"""The oracle: Hopf's formula against the H^2 reference on every catalog
group the cap admits, its free-rank identity, and for the H^2 reference
frozen values, an enumeration oracle for tiny groups, a dense full-triple
eliminator as an independent implementation, the universal-coefficient
order identity, and the block-by-block kernel update against the dense
eliminator."""

import itertools

import numpy as np
import pytest

from multlab import oracle
from multlab.abelian import AbelianGroup, _snf_local, exterior_square, valuation
from multlab.dsl import load_presentation
from multlab.entries import CatalogError
from multlab.oracle import (
    DEFAULT_ORACLE_CAP,
    MemoryBudgetError,
    OracleInconsistency,
    _restrict,
    abelianization_from_table,
    cycle_relations,
    h2_trivial_coeffs,
    multiplier_from_table,
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

    def test_memory_budget_prices_the_gauged_table(self):
        # Z_3^4: 244 unknowns, an int32 table of 6.4 MB; at the full width
        # of 320 and 8 bytes an entry the table alone would need 16.8 MB
        pres = load_presentation("gen a 3\ngen b 3\ngen c 3\ngen d 3", 3)
        res = h2_trivial_coeffs(cayley_table(pres), 81, memory_budget=8 << 20)
        assert res.invariants == AbelianGroup.from_orders([3] * 10)


class TestGauge:
    @pytest.mark.parametrize("eid,p", [("D8", 2), ("T6_xiv", 2), ("T6_xii", 3)])
    def test_unknown_count(self, catalog, monkeypatch, eid, p):
        """The tree edges y*s with y != 1 carry no unknown, so the first
        block meets (N-1)(|S|-1) + |S| of them, not (N-1)|S|."""
        table = cayley_table(catalog.instantiate(eid, p))
        widths = []

        def spy(gens, block, p, k):
            widths.append(gens.shape[0])
            return _restrict(gens, block, p, k)

        monkeypatch.setattr(oracle, "_restrict", spy)
        h2_trivial_coeffs(table, table.n)
        ns = len(table.generating_set())
        assert widths[0] == (table.n - 1) * (ns - 1) + ns


def log_solutions(rows, p, k):
    """log_p of the number of solutions of rows @ u = 0 over Z_m = Z/p^k.

    Dense elimination, one column at a time over every row at once.  The
    entry of least valuation v is the pivot; it clears its column in all
    other rows, and is itself replaced by p^(k-v) times its unit-normalized
    row, which is zero in that column, so the rows left always span every
    equation with zeros in the columns done.  The pivot column then admits
    p^v values.  int16 holds every product of two entries below m <= 128;
    equal rows (compared as raw bytes) are one equation.
    """
    m = p ** k
    cols = rows.shape[1]
    a = np.ascontiguousarray(rows % m, dtype=np.int16)
    a = np.unique(a.view(np.dtype((np.void, a.itemsize * cols))).ravel())
    a = a.view(np.int16).reshape(-1, cols)
    log_sol = 0
    for c in range(cols):
        nz = np.flatnonzero(a[:, c])
        if not len(nz):
            log_sol += k
            continue
        vals = sum((a[nz, c] % p ** j == 0 for j in range(1, k)), np.zeros(len(nz), np.int64))
        i = nz[np.argmin(vals)]
        v = int(vals.min())
        unit = int(a[i, c]) // p ** v
        pivot = (a[i] * pow(unit, -1, m)) % m
        others = nz[nz != i]
        a[others] = (a[others] - (a[others, c] // p ** v)[:, None] * pivot) % m
        a[i] = (p ** (k - v) * pivot) % m
        log_sol += v
    return log_sol


def triple_rows(table):
    """Every cocycle identity f(x,y) + f(xy,z) = f(y,z) + f(x,yz) with
    x, y, z != 1, as an integer row over the normalized cells (x, y)."""
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
                    rows.append(row)
    return np.array(rows).reshape(-1, len(cells))


def h2_dense_full_triples(table, m, p):
    """Independent H^2: materialize every triple equation, eliminate over
    Z_m by plain dense row reduction, then quotient by coboundaries the
    same lattice way.  Shares no code with the streaming pipeline."""
    n = table.n
    k = 0
    mm = m
    while mm % p == 0:
        mm //= p
        k += 1
    log_sol = log_solutions(triple_rows(table), p, k)
    # coboundary count: m^{n-1} / |Hom(G, Z_m)|
    hom_count = 0
    gab = abelianization_from_table(table, p)
    for exp in gab.exponents:
        hom_count += min(exp, k)
    log_cob = (n - 1) * k - hom_count
    return log_sol - log_cob


DENSE_GROUPS = [(Z22, 2), (D8, 2), (Q8, 2), ("gen a 4\ngen b 2", 2), ("gen a 3\ngen b 3", 3),
                (ES_P3, 3)]


class TestDenseCrossCheck:
    @pytest.mark.parametrize("text,p", DENSE_GROUPS)
    def test_streamed_equals_dense(self, text, p):
        pres = load_presentation(text, p)
        table = cayley_table(pres)
        m = table.n
        fast = h2_trivial_coeffs(table, m)
        dense_log = h2_dense_full_triples(table, m, p)
        assert fast.invariants.order_exponent(p) == dense_log

    @pytest.mark.parametrize("text,p", DENSE_GROUPS)
    def test_pivots_count_row_module_generators(self, text, p):
        """pivots is the width less the Z_m summands of the cocycle module.

        The cocycles mod p^j are Hom(C, Z/p^j) for C the cokernel of the
        identities, so log_p of their number grows by the count of the
        summands of C of order at least p^k from j = k-1 to j = k.
        """
        table = cayley_table(load_presentation(text, p))
        k = valuation(table.n, p)
        rows = triple_rows(table)
        top = log_solutions(rows, p, k) - log_solutions(rows, p, k - 1)
        width = (table.n - 1) * len(table.generating_set())
        assert h2_trivial_coeffs(table, table.n).stats.pivots == width - top


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
            multiplier_via_oracle(pres)

    def test_trivial_group(self):
        pres = load_presentation("", 3)
        assert multiplier_via_oracle(pres).invariants.is_trivial

    @pytest.mark.parametrize("text,q,p", [(D8, 2, 3), (ES_P3, 3, 2), ("gen a 3", 3, 5)],
                             ids=["D8-at-3", "ESp_p3-at-2", "Z3-at-5"])
    def test_refuses_an_order_that_is_no_power_of_p(self, text, q, p):
        table = cayley_table(load_presentation(text, q))
        with pytest.raises(ValueError, match=rf"order {table.n} is not a power of p = {p}"):
            multiplier_from_table(table, p)

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


def h2_multiplier(table, p):
    """M(G) by the H^2 reference: the H^2(G, Z_|G|) invariants less G^ab's."""
    if table.n == 1:
        return AbelianGroup.trivial()
    rest = list(h2_trivial_coeffs(table, table.n).invariants.exponents)
    for e in abelianization_from_table(table, p).exponents:
        rest.remove(e)
    return AbelianGroup.of(p, rest)


class TestHopfAgainstH2:
    @pytest.mark.parametrize("p,groups", [(2, 21), (3, 15), (5, 4)])
    def test_every_catalog_group_under_the_cap(self, catalog, p, groups):
        checked = []
        for eid in catalog.ids():
            try:
                pres = catalog.instantiate(eid, p)
            except CatalogError:
                continue
            if pres.group_order() > DEFAULT_ORACLE_CAP:
                continue
            got = multiplier_via_oracle(pres).invariants
            assert got == h2_multiplier(cayley_table(pres), p), eid
            checked.append(eid)
        assert len(checked) == groups, checked

    def test_trace_counts_the_cycle_basis(self, catalog):
        # N(d - 1) + 1 cycles for d = 5 generators, d relation rows per cycle
        res = multiplier_via_oracle(catalog.instantiate("T6_xiv", 2))
        assert res.trace == ("oracle: N=64, d=5, cycles=257, relations=1285, free=5 "
                             "-> [2,2,2,2,2,2,2,2,2]",)

    def test_one_generator_short_breaks_the_free_rank(self, catalog, monkeypatch):
        """Without s_0's rows the module is the coinvariants under a proper
        subgroup H, of rank 1 + (d - 1)[G:H] > d."""
        real = oracle.cycle_relations

        def short(table, gens):
            ncycles, blocks = real(table, gens)
            return ncycles, blocks[1:]

        monkeypatch.setattr(oracle, "cycle_relations", short)
        with pytest.raises(OracleInconsistency, match=r"free rank 9 != 5 generators"):
            multiplier_via_oracle(catalog.instantiate("T6_xiv", 2))


def naive_cycle_rows(table, gens):
    """The rows s.c_e - c_e rebuilt edge by edge: each edge of the tree path
    1 -> y, of e = (y, s_i) and of the tree path back from y s_i, translated
    by s and counted when it lands off the tree.  The tree is the BFS tree
    that takes the generators in order."""
    t = table.table
    parent, letter, queue = {0: None}, {}, [0]
    for y in queue:
        for i, g in enumerate(gens):
            z = int(t[y, g])
            if z not in parent:
                parent[z], letter[z] = y, i
                queue.append(z)
    tree = {(parent[z], letter[z]) for z in queue[1:]}
    edges = [(y, i) for y in range(table.n) for i in range(len(gens)) if (y, i) not in tree]
    index = {edge: c for c, edge in enumerate(edges)}

    def tree_path(x):
        path = []
        while x:
            path.append((parent[x], letter[x]))
            x = parent[x]
        return path

    blocks = []
    for s in gens:
        rows = []
        for e, (y, i) in enumerate(edges):
            counts = {e: -1}
            z = int(t[y, gens[i]])
            for sign, path in ((1, tree_path(y) + [(y, i)]), (-1, tree_path(z))):
                for x, j in path:
                    c = index.get((int(t[s, x]), j))
                    if c is not None:
                        counts[c] = counts.get(c, 0) + sign
            rows.append({c: v for c, v in sorted(counts.items()) if v})
        blocks.append(rows)
    return len(edges), blocks


class TestCycleRows:
    @pytest.mark.parametrize("p,tables", [(2, 40), (3, 8)])
    def test_rows_equal_the_naive_walk(self, catalog, p, tables):
        rng = np.random.default_rng(p)
        checked = 0
        for eid in catalog.ids():
            try:
                pres = catalog.instantiate(eid, p)
            except CatalogError:
                continue
            if pres.group_order() > 64:
                continue
            table = cayley_table(pres)
            perm = [0] + list(rng.permutation(np.arange(1, table.n)))
            for tab in (table, table.relabel(perm)):
                gens = tab.generating_set()
                ncycles, blocks = cycle_relations(tab, gens)
                want = naive_cycle_rows(tab, gens)
                assert ncycles == want[0], eid
                assert [[list(row.items()) for row in block] for block in blocks] == \
                    [[list(row.items()) for row in block] for block in want[1]], eid
                checked += 1
        assert checked == tables


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
    def test_five_random_relabelings(self, catalog):
        """H^2 never moves, and neither do the equation and pivot counts:
        every labeling yields d(G) generators, though its BFS tree, and so
        its gauge, differ."""
        rng = np.random.default_rng(11)
        groups = [load_presentation(text, p) for text, p in
                  [(D8, 2), (Q8, 2), (ES_P3, 3), ("gen a 4\ngen b 4", 2)]]
        groups += [catalog.instantiate(eid, p) for eid, p in
                   [("Phi2_211b", 2), ("T6_xxiv", 2), ("Phi3_14", 3),
                    ("ESp_p3", 3), ("Phi2_14", 3)]]
        for pres in groups:
            d = abelianization(pres).rank  # d(G) = rank of G^ab/p for a p-group
            table = cayley_table(pres)
            assert len(table.generating_set()) == d
            base = h2_trivial_coeffs(table, table.n)
            for _ in range(5):
                perm = [0] + list(rng.permutation(np.arange(1, table.n)))
                shuffled = table.relabel(perm)
                assert len(shuffled.generating_set()) == d
                got = h2_trivial_coeffs(shuffled, table.n)
                assert got.invariants == base.invariants
                assert (got.stats.equations, got.stats.pivots) == \
                    (base.stats.equations, base.stats.pivots)


def random_rows(rng, p, k, count, width):
    """Rows whose entries have random p-adic valuations, zero included."""
    return rng.integers(0, p ** k, (count, width)) * p ** rng.integers(0, k + 1, (count, width))


def span_log(gens, p, k):
    """log_p of the size of the column span of gens over Z_{p^k}."""
    diag, _ = _snf_local(gens.T.astype(np.int64), p, k)
    return sum(k - v for v in diag)


MODULI = [(2, 6), (3, 4), (5, 2)]
WIDTH = 12


class TestIncrementalElimination:
    @pytest.mark.parametrize("p,k", MODULI)
    def test_refined_kernel_equals_rebuilt(self, p, k):
        """Blocks fed one by one leave generators of exactly the solutions of
        every row so far: each row annihilates them, and their span has the
        size the dense eliminator counts from all the rows at once."""
        rng = np.random.default_rng(p)
        m = p ** k
        shrunk = implied = 0
        for _ in range(20):
            gens = np.eye(WIDTH)
            seen = np.zeros((0, WIDTH), dtype=np.int64)
            for _ in range(5):
                if len(seen) and rng.random() < 0.3:
                    # combinations of earlier rows: an implied block
                    block = rng.integers(0, m, (3, len(seen))) @ seen % m
                else:
                    block = random_rows(rng, p, k, int(rng.integers(1, 4)), WIDTH)
                before = span_log(gens, p, k)
                gens = _restrict(gens, block.astype(np.float64), p, k)
                seen = np.vstack([seen, block])
                after = span_log(gens, p, k)
                assert not (seen @ gens.astype(np.int64) % m).any()
                assert after == log_solutions(seen, p, k)
                shrunk += after < before
                implied += after == before > 0
        assert shrunk and implied
