"""Invariant-factor arithmetic, checked against independent oracles:
minor-gcd invariants for the p-local SNF, direct solution counting for
tensors, row-space counting for the modular eliminator at k = 1, and the
dense eliminator on every row set the suites hand `snf`."""

import sys
from itertools import combinations
from math import gcd, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense import _kernel_mod, _snf_local
from multlab.abelian import (
    AbelianGroup,
    InfiniteCokernel,
    direct_sum,
    exterior_square,
    kunneth,
    prime_power,
    snf,
    snf_group,
    tensor,
    valuation,
)
from multlab.cayley import walk
from multlab.oracle import cycle_relations, multiplier_via_oracle
from multlab.pcgroup import abelianization, cayley_table, multiplier_via_tails
from multlab.report import verify_theorem

PRIMES = [2, 3, 5, 7, 11, 13, 101]


def minor_gcd_invariants(matrix):
    """d_k = gcd(k-minors)/gcd((k-1)-minors): a brute-force SNF oracle."""
    m, n = len(matrix), len(matrix[0])
    out = []
    prev = 1
    for k in range(1, min(m, n) + 1):
        g = 0
        for rows in combinations(range(m), k):
            for cols in combinations(range(n), k):
                sub = [[matrix[i][j] for j in cols] for i in rows]
                g = gcd(g, _det(sub))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out + [0] * (n - len(out))


def _det(a):
    n = len(a)
    if n == 1:
        return a[0][0]
    return sum((-1) ** j * a[0][j] * _det([row[:j] + row[j + 1:] for row in a[1:]])
               for j in range(n))


def int64_limit(p):
    """The largest k whose modulus p^k still runs the eliminator in int64."""
    k = 1
    while p ** (2 * (k + 1)) < 2 ** 63:
        k += 1
    return k


def snf_of(matrix, p, k):
    """`snf` on a dense integer matrix, its rows handed over as {column: entry} dicts."""
    return snf([{j: v for j, v in enumerate(row) if v} for row in matrix],
               len(matrix[0]) if matrix else 0, p, k)


def local_valuations(invariants, p, k):
    """What `snf` at (p, k) should read off integer invariant factors."""
    return [min(valuation(abs(d), p), k) if d else k for d in invariants]


class TestSnf:
    """`snf` against minor-gcd invariants, which need no elimination: each
    invariant d reads as min(v_p(d), k), and d = 0 as k."""

    def test_zero_matrix(self):
        assert snf_of([[0, 0], [0, 0]], 3, 4) == [4, 4]

    def test_diag_2_3(self):
        assert snf_of([[2, 0], [0, 3]], 2, 3) == [0, 1]
        assert snf_of([[2, 0], [0, 3]], 3, 3) == [0, 1]

    def test_known_rectangular(self):
        assert snf_of([[2, 4], [6, 8]], 2, 5) == [1, 2]

    def test_empty(self):
        assert snf_of([], 5, 2) == []

    def test_prime_to_p_torsion_is_invisible(self):
        assert snf_of([[5, 0], [0, 9]], 3, 3) == [0, 2]

    def test_torsion_at_k_reads_as_free(self):
        # Z/9 + Z/27 and Z/9 + Z read alike at k = 3
        assert snf_of([[27, 0], [0, 9]], 3, 3) == snf_of([[9, 0]], 3, 3) == [2, 3]

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
    @pytest.mark.parametrize("side", ["small", "int64", "object"])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_minor_gcd_oracle(self, p, side, data):
        k = {"small": 2, "int64": int64_limit(p), "object": int64_limit(p) + 1}[side]
        ncols = data.draw(st.integers(1, 4))
        entry = st.integers(-p ** (k + 1), p ** (k + 1)) | st.integers(-9, 9)
        rows = data.draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                                  min_size=1, max_size=4))
        assert snf_of(rows, p, k) == local_valuations(minor_gcd_invariants(rows), p, k)

    def test_object_dtype_keeps_products_exact(self):
        # residues near m = p^k with determinant p^5: in int64 the products
        # of the first pivot sweep would wrap
        p = 13
        k = int64_limit(p) + 1
        m = p ** k
        assert snf_of([[m - 1, m - 2], [m - 3, m - 6 - p ** 5]], p, k) == [0, 5]

    def test_snf_group_rejects_free_columns(self):
        with pytest.raises(InfiniteCokernel, match="infinite: 1 of 2 columns free"):
            snf_group([{0: 3}], 2, 3, 2)
        assert snf_group([{0: 9, 1: 3}, {1: 3}], 2, 3, 4) == AbelianGroup.from_orders([3, 9])


def brute_rank_mod_p(a, p):
    """log_p of the number of distinct GF(p) combinations of the rows of a."""
    m, n = a.shape
    coeffs = np.indices((p,) * m).reshape(m, p ** m).T
    codes = ((coeffs @ a) % p) @ (p ** np.arange(n))
    return valuation(len(np.unique(codes)), p)


@st.composite
def matrices_mod_p(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    m, n = draw(st.integers(0, 6)), draw(st.integers(1, 6))
    entries = draw(st.lists(st.integers(-60, 60), min_size=m * n, max_size=m * n))
    return p, np.array(entries, dtype=np.int64).reshape(m, n)


class TestModularEliminatorOverGFp:
    """`_snf_local` and `_kernel_mod` at k = 1: the tensor construction
    takes ranks, the centre a nullspace."""

    @given(matrices_mod_p())
    @settings(max_examples=200, deadline=None)
    def test_rank_and_kernel(self, case):
        p, a = case
        n = a.shape[1]
        rank = len(_snf_local(a, p, 1)[0])
        ker = _kernel_mod(a, n, p, 1)
        assert rank == brute_rank_mod_p(a, p)
        assert ker.shape == (n, n - rank)
        assert not ((a @ ker) % p).any()
        assert brute_rank_mod_p(ker.T, p) == n - rank  # a basis, not just a spanning set


def count_bilinear_solutions(da, db):
    """#{bilinear maps A x B -> Q/Z} counted entry by entry: each matrix
    slot holds any element killed by both cyclic orders."""
    total = 1
    from math import lcm
    for d in da:
        for e in db:
            big = lcm(d, e)
            total *= sum(1 for m in range(big) if d * m % big == 0 and e * m % big == 0)
    return total


class TestTensor:
    def test_with_trivial(self):
        a = AbelianGroup.from_orders([4, 2])
        assert tensor(a, AbelianGroup.trivial()).is_trivial

    def test_z9_tensor_elementary(self):
        got = tensor(AbelianGroup.cyclic(9), AbelianGroup.elementary(3, 3))
        assert got == AbelianGroup.elementary(3, 3)

    def test_z4_z8(self):
        assert tensor(AbelianGroup.cyclic(4), AbelianGroup.cyclic(8)) == \
            AbelianGroup.cyclic(4)

    @given(st.sampled_from([2, 3]), st.lists(st.integers(1, 4), max_size=3),
           st.lists(st.integers(1, 4), max_size=3))
    @settings(max_examples=120, deadline=None)
    def test_order_counts_bilinear_maps(self, p, ea, eb):
        da, db = [p ** e for e in ea], [p ** e for e in eb]
        a, b = AbelianGroup.from_orders(da), AbelianGroup.from_orders(db)
        got = p ** tensor(a, b).order_exponent(p)
        assert got == count_bilinear_solutions(da, db)

    @given(st.sampled_from([2, 3, 5]), st.lists(st.integers(1, 3), max_size=4),
           st.lists(st.integers(1, 3), max_size=4))
    @settings(max_examples=120, deadline=None)
    def test_symmetry(self, p, ea, eb):
        a = AbelianGroup.from_orders([p ** e for e in ea])
        b = AbelianGroup.from_orders([p ** e for e in eb])
        assert tensor(a, b) == tensor(b, a)


class TestExteriorSquare:
    def test_cyclic_trivial(self):
        assert exterior_square(AbelianGroup.cyclic(125)).is_trivial

    def test_elementary_rank5(self):
        got = exterior_square(AbelianGroup.elementary(3, 5))
        assert got == AbelianGroup.elementary(3, 10)

    def test_z_p2_times_zp(self):
        got = exterior_square(AbelianGroup.from_orders([9, 3]))
        assert got == AbelianGroup.cyclic(3)

    @given(st.integers(0, 6), st.sampled_from([2, 3, 5]))
    @settings(max_examples=40, deadline=None)
    def test_elementary_rank_formula(self, k, p):
        got = exterior_square(AbelianGroup.elementary(p, k))
        assert got == AbelianGroup.elementary(p, k * (k - 1) // 2)


class TestKunneth:
    def test_trivial_factor(self):
        m = AbelianGroup.from_orders([3, 3])
        ab = AbelianGroup.from_orders([3, 3, 3])
        t = AbelianGroup.trivial()
        assert kunneth(m, t, ab, t) == m

    def test_main_part_i_arithmetic(self):
        # ES_p(p^3) x Z_p^(5): (p,p) + p^10 + (p^2 (x) p^5) has order p^22
        p = 3
        m_es = AbelianGroup.elementary(p, 2)
        m_e5 = exterior_square(AbelianGroup.elementary(p, 5))
        got = kunneth(m_es, m_e5, AbelianGroup.elementary(p, 2),
                      AbelianGroup.elementary(p, 5))
        assert got.order_exponent(p) == 22

    def test_part_ix_arithmetic(self):
        # ES_p(p^3) x Z_{p^2}: (p,p) + 1 + (p^2 (x) Z_{p^2}) has order p^4
        p = 3
        got = kunneth(AbelianGroup.elementary(p, 2), AbelianGroup.trivial(),
                      AbelianGroup.elementary(p, 2), AbelianGroup.cyclic(p * p))
        assert got.order_exponent(p) == 4

    @given(st.lists(st.sampled_from([3, 9, 27]), max_size=3),
           st.lists(st.sampled_from([3, 9, 27]), max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_symmetry(self, da, db):
        a, b = AbelianGroup.from_orders(da), AbelianGroup.from_orders(db)
        ma, mb = exterior_square(a), exterior_square(b)
        assert kunneth(ma, mb, a, b) == kunneth(mb, ma, b, a)


class TestAbelianGroup:
    @pytest.mark.parametrize("p,exponents", [(3, (2, 1)), (3, (0, 1)), (3, ()),
                                             (None, (1,))])
    def test_normal_form_enforced(self, p, exponents):
        with pytest.raises(ValueError, match="normalized"):
            AbelianGroup(p, exponents)

    def test_normalization(self):
        g = AbelianGroup.from_orders([9, 1, 3])
        assert g == AbelianGroup.of(3, [0, 2, 1]) == AbelianGroup(3, (1, 2))
        assert AbelianGroup.of(5, [0]) == AbelianGroup.from_orders([1]) == \
            AbelianGroup.trivial() == AbelianGroup(None, ())

    def test_mixed_primes_raise(self):
        z2, z3 = AbelianGroup.cyclic(2), AbelianGroup.cyclic(3)
        with pytest.raises(ValueError, match="prime"):
            AbelianGroup.from_orders([2, 3])
        with pytest.raises(ValueError, match="mixed primes"):
            tensor(z2, z3)
        with pytest.raises(ValueError, match="mixed primes"):
            direct_sum(z2, AbelianGroup.trivial(), z3)

    def test_render(self):
        assert AbelianGroup.from_orders([9, 3]).render() == "[3,3^2]"
        assert AbelianGroup.trivial().render() == "[]"

    def test_order_exponent_rejects_wrong_prime(self):
        with pytest.raises(ValueError):
            AbelianGroup.cyclic(9).order_exponent(2)


class TestPAdicHelpers:
    @given(st.sampled_from(PRIMES), st.integers(1, 40))
    @settings(max_examples=100, deadline=None)
    def test_prime_power_splits_prime_powers(self, p, k):
        assert prime_power(p ** k) == (p, k)

    @given(st.lists(st.sampled_from(PRIMES), min_size=2, max_size=4, unique=True),
           st.integers(1, 4), st.integers(1, 1000))
    @settings(max_examples=100, deadline=None)
    def test_prime_power_rejects_composites(self, primes, e, u):
        # at least two distinct primes divide m
        with pytest.raises(ValueError, match="prime power"):
            prime_power(prod(primes) ** e * u)

    @given(st.integers(-1000, 1))
    @settings(max_examples=50, deadline=None)
    def test_prime_power_rejects_below_two(self, m):
        with pytest.raises(ValueError):
            prime_power(m)

    @given(st.sampled_from(PRIMES), st.integers(-1000, 0))
    @settings(max_examples=30, deadline=None)
    def test_valuation_rejects_non_positive(self, p, n):
        with pytest.raises(ValueError):
            valuation(n, p)

    @given(st.sampled_from(PRIMES), st.integers(0, 30), st.integers(0, 1000),
           st.integers(0, 100))
    @settings(max_examples=150, deadline=None)
    def test_valuation_of_unit_times_power(self, p, v, q, r):
        u = p * q + r % (p - 1) + 1   # u mod p lies in 1..p-1
        assert valuation(p ** v * u, p) == v


def random_sparse_rows(rng, p, k):
    """An integer matrix, mostly zeros, whose entries mix units, multiples
    of p and p^2, and residues past 2^63 when p^k is."""
    m = p ** k
    nrows, ncols = (int(x) for x in rng.integers(1, 13, 2))
    rows = []
    for _ in range(nrows):
        row = []
        for _ in range(ncols):
            if rng.random() < 0.6:
                row.append(0)
                continue
            v = int(rng.integers(1, 1 << 30)) * p ** int(rng.integers(0, 3))
            if rng.random() < 0.3:
                v += m - p ** int(rng.integers(0, 3))
            row.append(v if rng.random() < 0.5 else -v)
        rows.append(row)
    return rows


def permuted(rows, width, rng):
    """The same matrix with its rows shuffled and its columns relabelled."""
    label = rng.permutation(width).tolist()
    return [{label[j]: v for j, v in rows[i].items()} for i in rng.permutation(len(rows))]


class TestSparseFront:
    """`snf` consumes its rows, keeps each unit pivot's row free of
    the other pivots' columns, reduces each row by one pass over its pivot
    columns and finishes the unit-free rows by least valuation; the
    valuations must be those of `_snf_local` on the whole matrix, whatever
    the order of rows, the labels of columns and the representatives of
    the entries mod p^k, and no dense eliminator may run on the way."""

    @staticmethod
    def dense_valuations(rows, width, p, k):
        dense = np.array([[row.get(j, 0) % p ** k for j in range(width)] for row in rows],
                         dtype=object)
        want, _ = _snf_local(dense, p, k)
        return want + [k] * (width - len(want))

    @pytest.mark.parametrize("p, k", [(2, 3), (3, 2), (5, 2)])
    def test_unreduced_and_negative_entries(self, p, k):
        # the rows go to `snf` as they are, unreduced: multiples of p^k in
        # any sign, negative units and non-units
        m = p ** k
        rows = [{0: m, 1: -1, 2: 3 * m + p}, {0: -m - 1, 2: -p, 3: 2 * m},
                {1: p - m, 3: -5 * m}, {2: -2 * m, 3: p * p - m}]
        want = self.dense_valuations(rows, 4, p, k)
        assert snf([dict(row) for row in rows], 4, p, k) == want
        assert snf_of([[row.get(j, 0) for j in range(4)] for row in rows], p, k) == want

    def test_row_that_is_zero_mod_p_to_the_k(self):
        # untouched multiples of 27 are zero mod 27 and must be dropped before
        # the finish, which would read 81 as a pivot of valuation 4
        assert snf([{0: 81, 2: -54}], 3, 3, 3) == [3, 3, 3]
        assert snf([{0: 27, 2: -54}, {1: 9, 2: 81}], 3, 3, 3) == [2, 3, 3]

    def test_update_cancelling_at_a_column_the_row_lacks(self):
        # mod 4: reducing row 1 by row 0's pivot on column 0 adds -2 * 2 = 0
        # at column 1, which row 1 does not hold; then row 3's pivot on
        # column 2 is substituted out of row 2's pivot row, adding 0 at
        # column 3, which that pivot row does not hold
        rows = [{0: 1, 1: 2}, {0: 2, 4: 1}, {5: 1, 2: 2}, {2: 1, 3: 2}]
        want = self.dense_valuations(rows, 6, 2, 2)
        assert want == [0, 0, 0, 0, 2, 2]
        assert snf(rows, 6, 2, 2) == want

    @pytest.mark.parametrize("n", [2, 40])
    def test_long_pivot_chain(self, n):
        # row 0 can pivot only on column 0, and row i = e_i - e_{i+1} pivots
        # on column i (touched no more often than i + 1, and first), so each
        # pivot row holds the column of the next: unreduced, they would chain
        # 0 -> 1 -> ... -> n, which the waiting row 3 e_0 and the last row
        # would each follow to its end
        rows = ([{0: 3}, {0: 1, 1: 3}] + [{i: 1, i + 1: -1} for i in range(1, n)]
                + [{0: 1, n: 1, n + 1: 1}])
        want = self.dense_valuations(rows, n + 2, 3, 4)
        assert want == [0] * (n + 1) + [2]
        assert snf(rows, n + 2, 3, 4) == want

    @pytest.mark.parametrize("p", [2, 3, 5, 13])
    @pytest.mark.parametrize("side", ["int64", "object"])
    def test_matches_dense_eliminator(self, p, side):
        # p^(2k) is below 2^63 at int64_limit(p) and above it one step later
        k = {"int64": int64_limit(p), "object": int64_limit(p) + 1}[side]
        assert (p ** (2 * k) < 2 ** 63) == (side == "int64")
        rng = np.random.default_rng([p, k])
        for _ in range(60):
            rows = random_sparse_rows(rng, p, k)
            reduced = np.array([[v % p ** k for v in row] for row in rows], dtype=object)
            want, _ = _snf_local(reduced, p, k)
            assert snf_of(rows, p, k) == want + [k] * (len(rows[0]) - len(want))

    @pytest.mark.parametrize("p", [2, 3, 5, 13])
    @pytest.mark.parametrize("side", ["int64", "object"])
    def test_row_order_and_column_labels_do_not_matter(self, p, side):
        k = {"int64": int64_limit(p), "object": int64_limit(p) + 1}[side]
        rng = np.random.default_rng([p, k, 1])
        for _ in range(60):
            dense = random_sparse_rows(rng, p, k)
            width = len(dense[0])
            rows = [{j: v for j, v in enumerate(row) if v} for row in dense]
            want = snf([dict(row) for row in rows], width, p, k)  # it consumes rows
            for _ in range(3):
                assert snf(permuted(rows, width, rng), width, p, k) == want

    @pytest.mark.parametrize("eid", ["T6_xiv", "T6_xx"])
    def test_oracle_rows_do_not_depend_on_their_order(self, catalog, eid):
        table = cayley_table(catalog.instantiate(eid, 2))
        actions = table.actions(table.generating_set())
        width, blocks = cycle_relations(actions, walk(actions))
        rows = [row for block in blocks for row in block]
        k = valuation(table.n, 2) + 1
        want = snf([dict(row) for row in rows], width, 2, k)  # it consumes rows
        assert want.count(k) == len(table.generating_set())
        rng = np.random.default_rng(len(rows))
        for _ in range(3):
            assert snf(permuted(rows, width, rng), width, 2, k) == want

    def test_unit_free_rows_reach_the_valuation_finish(self):
        # rows 0 and 1 pivot on units; row 2 is zero mod 3 and waits
        # (determinant 9); the pivots leave it at 9 e_2
        assert snf_of([[1, 2, 0], [0, 1, 1], [3, 6, 9]], 3, 4) == [0, 0, 2]
        assert snf([{0: 1, 1: 2}, {1: 1, 2: 1}, {0: 3, 1: 6, 2: 9}], 3, 3, 4) == [0, 0, 2]

    def test_finish_pivots_on_least_valuation_through_fill_in(self):
        # the unit row pivots on column 3; rows 1 and 2 finish.  3 at (1, 0)
        # is the least valuation; clearing column 0 from row 2 fills in -27
        # at column 1, which then pivots with valuation 3 ahead of the 81
        # at column 2 (dropping the fill-in would read valuation 4)
        matrix = [[0, 2, 0, 1], [3, 9, 0, 0], [9, 0, 81, 0]]
        want, _ = _snf_local(np.array(matrix, dtype=object), 3, 6)
        assert want == [0, 1, 3]
        assert snf_of(matrix, 3, 6) == [0, 1, 3, 6]

    def test_waiting_row_is_reduced_against_later_pivots(self):
        # row 1 loses its units to row 0's pivot and waits as 3 e_2; row 2
        # then pivots on column 2, so the waiting row must become
        # -9 (e_3 + e_4) before it finishes: valuation 2, not 1
        rows = [{0: 1, 1: 1}, {0: 1, 1: 1, 2: 3}, {2: 1, 3: 3, 4: 3}]
        dense = np.array([[row.get(j, 0) for j in range(5)] for row in rows], dtype=object)
        want, _ = _snf_local(dense, 3, 4)
        assert want == [0, 0, 2]
        assert snf(rows, 5, 3, 4) == [0, 0, 2, 4, 4]

    def test_no_dense_eliminator_on_the_snf_path(self, catalog, monkeypatch, clear_memos):
        # tails, the abelianization and the oracle all read through `snf`:
        # the package holds no dense eliminator, and with numpy made
        # unimportable the three give the same groups
        pres = catalog.instantiate("T6_xiv", 2)

        def run():
            return (multiplier_via_tails(pres).invariants, abelianization(pres),
                    multiplier_via_oracle(pres).invariants)

        want = run()
        clear_memos()  # else G^ab is read from the memo the first run filled

        monkeypatch.setitem(sys.modules, "numpy", None)  # `import numpy` now raises
        assert run() == want


class TestSuiteTraffic:
    """Every row set the suites hand `snf` -- tails, G^ab, abelian
    subgroups, Blackburn-Evens ranks and the oracle's relations -- reads the
    valuations `_snf_local` gives on the same rows made dense."""

    def test_snf_agrees_with_the_dense_eliminator(self, monkeypatch, clear_memos):
        real, calls = snf, []

        def recorded(rows, width, p, k):
            calls.append([[dict(row) for row in rows], width, p, k])  # snf consumes rows
            calls[-1].append(real(rows, width, p, k))
            return calls[-1][-1]

        patched = set()
        for name, mod in list(sys.modules.items()):
            if name.startswith("multlab") and getattr(mod, "snf", None) is real:
                monkeypatch.setattr(mod, "snf", recorded)
                patched.add(name.removeprefix("multlab."))
        assert {"abelian", "pcgroup", "blackburn_evens", "oracle"} <= patched
        clear_memos()  # else G^ab and the series come from memos
        reports = [r for p, part in ((2, "two"), (3, "odd"), (5, "odd"))
                   for r in verify_theorem(p, part)]
        traces = [line for r in reports for line in r.trace]
        assert any(line.startswith("oracle: N=") for line in traces)
        assert any(line.startswith("blackburn_evens:") for line in traces)
        for rows, width, p, k, got in calls:
            assert got == TestSparseFront.dense_valuations(rows, width, p, k), (width, p, k)
        assert len(calls) >= 100
