"""Cohomology oracle: frozen values, an enumeration oracle for tiny groups,
a dense full-triple eliminator as an independent implementation, the
universal-coefficient order identity, and the elimination's block
reduction and kernel refinement against plain references."""

import itertools

import numpy as np
import pytest

from multlab.abelian import AbelianGroup, exterior_square
from multlab.dsl import load_presentation
from multlab.oracle import (
    MemoryBudgetError,
    _kernel_mod,
    _LocalBasis,
    _refine_kernel,
    _snf_local,
    abelianization_from_table,
    h2_trivial_coeffs,
    multiplier_via_oracle,
)
from multlab.pcgroup import SizeCapError, abelianization, cayley_table

Z2 = "gen a 2"
Z22 = "gen a 2\ngen b 2"
D8 = "gen a 2\ngen b 4\ncomm b a = b^2"
Q8 = "gen b 2\ngen a 4\npow b = a^2\ncomm a b = a^2"
ES_P3 = "gen a p\ngen a1 p\ngen a2 p\ncomm a1 a = a2"
PHI3_14 = ("gen a p\ngen a1 p\ngen a2 p\ngen a3 p\npow a1 = a3^-cp3\n"
           "comm a1 a = a2\ncomm a2 a = a3")


def h2_by_enumeration(table, m):
    """Count and classify H^2 by enumerating all normalized 2-cochains.

    Only feasible for tiny groups; this is the ground truth the fast
    pipeline is judged against.
    """
    n = table.n
    cells = [(x, y) for x in range(1, n) for y in range(1, n)]
    idx = {c: i for i, c in enumerate(cells)}

    def value(f, x, y):
        if x == 0 or y == 0:
            return 0
        return f[idx[(x, y)]]

    cocycles = []
    for f in itertools.product(range(m), repeat=len(cells)):
        good = True
        for x in range(n):
            for y in range(n):
                for z in range(n):
                    lhs = value(f, x, y) + value(f, table.mul(x, y), z)
                    rhs = value(f, y, z) + value(f, x, table.mul(y, z))
                    if (lhs - rhs) % m:
                        good = False
                        break
                if not good:
                    break
            if not good:
                break
        if good:
            cocycles.append(f)
    coboundaries = set()
    for g in itertools.product(range(m), repeat=n - 1):
        gv = (0,) + g
        cob = tuple((gv[x] + gv[y] - gv[table.mul(x, y)]) % m for x, y in cells)
        coboundaries.add(cob)
    order = len(cocycles) // len(coboundaries)
    # element orders in the quotient give the invariant profile
    quotient_orders = {}
    seen = set()
    reps = []
    for f in cocycles:
        key = min(tuple((a - b) % m for a, b in zip(f, cob)) for cob in coboundaries)
        if key not in seen:
            seen.add(key)
            reps.append(key)
    return order, reps


class TestH2SmallFrozen:
    def test_z2_mod2(self):
        res = h2_trivial_coeffs(cayley_table(load_presentation(Z2, 2)), 2)
        assert res.invariants == AbelianGroup.cyclic(2)

    def test_z2z2_mod4(self):
        res = h2_trivial_coeffs(cayley_table(load_presentation(Z22, 2)), 4)
        assert res.invariants == AbelianGroup.from_orders([2, 2, 2])

    def test_enumeration_agreement_z2_m2(self):
        table = cayley_table(load_presentation(Z2, 2))
        order, _ = h2_by_enumeration(table, 2)
        assert order == 2
        assert h2_trivial_coeffs(table, 2).invariants.order_exponent(2) == 1

    def test_enumeration_agreement_z2z2_m2(self):
        table = cayley_table(load_presentation(Z22, 2))
        order, _ = h2_by_enumeration(table, 2)
        got = h2_trivial_coeffs(table, 2)
        assert 2 ** got.invariants.order_exponent(2) == order == 8

    def test_rejects_composite_modulus(self):
        table = cayley_table(load_presentation(Z2, 2))
        with pytest.raises(ValueError, match="prime power"):
            h2_trivial_coeffs(table, 6)

    def test_memory_budget(self):
        pres = load_presentation("gen a 3\ngen b 3\ngen c 3\ngen d 3", 3)
        with pytest.raises(MemoryBudgetError):
            h2_trivial_coeffs(cayley_table(pres), 81, memory_budget=1 << 10)


def h2_dense_full_triples(table, m, p):
    """Independent H^2: materialize every triple equation, eliminate over
    Z_m by plain dense row reduction, then quotient by coboundaries the
    same lattice way.  Shares no code with the streaming pipeline."""
    n = table.n
    cells = [(x, y) for x in range(1, n) for y in range(1, n)]
    idx = {c: i for i, c in enumerate(cells)}
    rows = []
    for x in range(1, n):
        for y in range(1, n):
            for z in range(1, n):
                row = np.zeros(len(cells), dtype=np.int64)
                row[idx[(x, y)]] += 1
                xy = table.mul(x, y)
                if xy != 0:
                    row[idx[(xy, z)]] += 1
                row[idx[(y, z)]] -= 1
                yz = table.mul(y, z)
                if yz != 0:
                    row[idx[(x, yz)]] -= 1
                if row.any():
                    rows.append(row % m)
    k = 0
    mm = m
    while mm % p == 0:
        mm //= p
        k += 1
    cols = len(cells)
    # count the solutions of E u = 0 over Z_m = Z/p^k by dense elimination,
    # one column at a time over every row at once.  The entry of least
    # valuation v is the pivot; it clears its column in all other rows, and
    # is itself replaced by p^(k-v) times its unit-normalized row, which is
    # zero in that column, so the rows left always span every equation with
    # zeros in the columns done.  The pivot column then admits p^v values.
    # int16 holds every product of two entries below m <= 128; equal rows
    # (compared as raw bytes) are one equation
    a = np.array(rows, dtype=np.int16).reshape(-1, cols)
    a = np.unique(a.view(np.dtype((np.void, a.itemsize * cols))).ravel())
    a = a.view(np.int16).reshape(-1, cols)
    log_solutions = 0
    for c in range(cols):
        nz = np.flatnonzero(a[:, c])
        if not len(nz):
            log_solutions += k
            continue
        vals = sum((a[nz, c] % p ** j == 0 for j in range(1, k)), np.zeros(len(nz), np.int64))
        i = nz[np.argmin(vals)]
        v = int(vals.min())
        unit = int(a[i, c]) // p ** v
        pivot = (a[i] * pow(unit, -1, m)) % m
        others = nz[nz != i]
        a[others] = (a[others] - (a[others, c] // p ** v)[:, None] * pivot) % m
        a[i] = (p ** (k - v) * pivot) % m
        log_solutions += v
    # coboundary count: m^{n-1} / |Hom(G, Z_m)|
    hom_count = 0
    gab = abelianization_from_table(table, p)
    for exp in gab.primary_exponents(p):
        hom_count += min(exp, k)
    log_cob = (n - 1) * k - hom_count
    return log_solutions - log_cob


class TestDenseCrossCheck:
    @pytest.mark.parametrize("text,p", [
        (Z22, 2), (D8, 2), (Q8, 2),
        ("gen a 4\ngen b 2", 2),
        ("gen a 3\ngen b 3", 3),
        (ES_P3, 3),
    ])
    def test_streamed_equals_dense(self, text, p):
        pres = load_presentation(text, p)
        table = cayley_table(pres)
        m = table.n
        fast = h2_trivial_coeffs(table, m)
        dense_log = h2_dense_full_triples(table, m, p)
        assert fast.invariants.order_exponent(p) == dense_log


class TestMultiplier:
    @pytest.mark.parametrize("text,p,want", [
        (Q8, 2, []),
        (D8, 2, [2]),
        (ES_P3, 3, [3, 3]),
        ("gen a p\ngen a1 p\ngen a2 p\npow a = a2\ncomm a1 a = a2", 3, []),
        (PHI3_14, 3, [3, 3]),
        ("gen a 9\ngen b 9", 3, [9]),
        ("gen a 3\ngen b 3\ngen c 3\ngen d 3", 3, [3] * 6),
    ])
    def test_known_values(self, text, p, want):
        res = multiplier_via_oracle(load_presentation(text, p))
        assert res.invariants == AbelianGroup.from_orders(want)

    def test_cap_exceeded(self):
        pres = load_presentation("gen a 3\ngen b 3\ngen c 3\ngen d 3\ngen e 3\ngen f 3", 3)
        with pytest.raises(SizeCapError):
            multiplier_via_oracle(pres, cap=128)

    def test_trivial_group(self):
        pres = load_presentation("", 3)
        assert multiplier_via_oracle(pres).invariants.is_trivial

    def test_order_identity_small(self):
        # |H^2(G, Z_|G|)| = |M(G)| * |G^ab| with M from the exterior square
        for text, p in [("gen a 2\ngen b 2\ngen c 2", 2), ("gen a 9\ngen b 3", 3)]:
            pres = load_presentation(text, p)
            table = cayley_table(pres)
            h2 = h2_trivial_coeffs(table, table.n)
            gab = abelianization(pres)
            m_exp = exterior_square(gab).order_exponent(p)
            assert h2.invariants.order_exponent(p) == \
                m_exp + gab.order_exponent(p)


class TestTableAbelianization:
    @pytest.mark.parametrize("text,p,want", [
        (D8, 2, [2, 2]),
        (Q8, 2, [2, 2]),
        ("gen a 4\ngen b 2", 2, [4, 2]),
        (ES_P3, 3, [3, 3]),
        ("gen a p^2\ngen a1 p\ngen a2 p\npow a = a2\ncomm a1 a = a2", 3, [9, 3]),
    ])
    def test_matches_presentation_route(self, text, p, want):
        pres = load_presentation(text, p)
        got = abelianization_from_table(cayley_table(pres), p)
        assert got == AbelianGroup.from_orders(want)
        assert got == abelianization(pres)


class TestExteriorSquareAgreement:
    def test_elementary_two_groups_up_to_32(self):
        # the exterior-square formula matches the oracle on Z_2^(k)
        for k in range(1, 6):
            pres = load_presentation("\n".join(f"gen x{i} 2" for i in range(k)), 2)
            got = multiplier_via_oracle(pres).invariants
            want = exterior_square(abelianization(pres))
            assert got == want == AbelianGroup.elementary(2, k * (k - 1) // 2)


class TestRelabelingInvariance:
    def test_five_random_relabelings(self):
        rng = np.random.default_rng(11)
        for text, p in [(D8, 2), (Q8, 2), (ES_P3, 3), ("gen a 4\ngen b 4", 2)]:
            pres = load_presentation(text, p)
            table = cayley_table(pres)
            base = h2_trivial_coeffs(table, table.n).invariants
            for _ in range(5):
                perm = [0] + list(rng.permutation(np.arange(1, table.n)))
                shuffled = table.relabel(perm)
                assert h2_trivial_coeffs(shuffled, table.n).invariants == base


def reduce_block_sweep(basis, block):
    """Reference block reduction: one sequential sweep over the pivot columns."""
    m, p = basis.m, basis.p
    rows = basis.rows.astype(np.int64)
    block = block % m
    for c in basis.pivot_columns():
        col = block[:, c]
        nz = np.nonzero(col)[0]
        pv = int(basis.piv_val[c])
        ok = nz[col[nz] % p ** pv == 0]
        if ok.size:
            qq = (col[ok] // p ** pv) % m
            block[ok] = (block[ok] - qq[:, None] * rows[c]) % m
    return block


def random_rows(rng, p, k, count, width):
    """Rows whose entries have random p-adic valuations, zero included."""
    return rng.integers(0, p ** k, (count, width)) * p ** rng.integers(0, k + 1, (count, width))


def span_log(gens, p, k):
    """log_p of the size of the column span of gens over Z_{p^k}."""
    diag, _, _ = _snf_local(gens.T.astype(np.int64), p, k, want_transform=False)
    return sum(k - v for v in diag)


MODULI = [(2, 6), (3, 4), (5, 2)]
WIDTH = 12


class TestIncrementalElimination:
    @pytest.mark.parametrize("p,k", MODULI)
    def test_substitution_matches_sweep(self, p, k):
        rng = np.random.default_rng(p)
        non_unit = 0
        for _ in range(30):
            basis = _LocalBasis(WIDTH, p, k)
            for row in random_rows(rng, p, k, int(rng.integers(1, WIDTH)), WIDTH):
                basis.insert_row(row)
            non_unit += int((basis.piv_val > 0).sum())
            block = random_rows(rng, p, k, 8, WIDTH)
            got = basis.reduce_block(block)
            assert np.array_equal(got, reduce_block_sweep(basis, block))
        assert non_unit > 0

    @pytest.mark.parametrize("p,k", MODULI)
    def test_refined_kernel_equals_rebuilt(self, p, k):
        rng = np.random.default_rng(10 + p)
        m = p ** k
        for _ in range(10):
            basis = _LocalBasis(WIDTH, p, k)
            for row in random_rows(rng, p, k, 3, WIDTH):
                basis.insert_row(row)
            gens = _kernel_mod(basis.compact(), WIDTH, p, k).gens.astype(np.float64)
            for _ in range(3):
                added = [row for row in random_rows(rng, p, k, 2, WIDTH)
                         if basis.insert_row(row)]
                if added:
                    gens = _refine_kernel(gens, np.array(added), p, k)
                rebuilt = _kernel_mod(basis.compact(), WIDTH, p, k)
                rows = basis.compact()
                for g in (gens.astype(np.int64), rebuilt.gens):
                    assert not (rows @ g % m).any()
                assert span_log(gens, p, k) == span_log(rebuilt.gens, p, k) \
                    == sum(rebuilt.orders)
