"""The oracle: Hopf's formula from a Cayley table against tails on every
catalog group the cap admits, its free-rank identity, the actions walked
from the stated relations against collection, the certificate on the
actions and on the relations they must satisfy, its quotient by a central
cyclic subgroup against the full graph and tails, and a report path that
builds no Cayley table and collects nothing in the oracle; and for
H^2, which `h2_trivial_coeffs` reads off G^ab and M(G) by the universal
coefficient theorem, frozen values and two references that share no code
with the oracle: an enumeration of every cochain of a tiny group, and a
dense eliminator of every cocycle identity."""

import functools
import itertools
import re
from collections import Counter

import numpy as np
import pytest
from conftest import catalog_instances

from multlab import oracle, pcgroup
from multlab.abelian import AbelianGroup, exterior_square, snf, valuation
from multlab.cayley import CayleyTable, greedy_generators, left_by, walk
from multlab.compute import Computer
from multlab.dsl import load_presentation
from multlab.entries import Catalog, parse_entry
from multlab.oracle import (
    DEFAULT_ORACLE_CAP,
    OracleInconsistency,
    abelianization_from_table,
    cycle_relations,
    h2_trivial_coeffs,
    multiplier_from_actions,
    multiplier_from_table,
    multiplier_via_oracle,
)
from multlab.pcgroup import (PcPresentation, SizeCapError, abelianization, cayley_table,
                             center, multiplier_via_tails, right_actions)
from multlab.report import run_table24, verify_entry, verify_theorem

Z2 = "gen a 2"
Z22 = "gen a 2\ngen b 2"
D8 = "gen a 2\ngen b 4\ncomm b a = b^2"
Q8 = "gen b 2\ngen a 4\npow b = a^2\ncomm a b = a^2"
ES_P3 = "gen a p\ngen a1 p\ngen a2 p\ncomm a1 a = a2"
PHI3_14 = ("gen a p\ngen a1 p\ngen a2 p\ngen a3 p\npow a1 = a3^-cp3\n"
           "comm a1 a = a2\ncomm a2 a = a3")


def instances(catalog, low, high, primes=(2, 3, 5, 7)):
    """Every catalog instance at `primes` of order in [low, high]."""
    return [(eid, p, pres) for eid, p, pres in catalog_instances(primes, catalog)
            if low <= pres.group_order() <= high]


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

    def test_z3_4_mod81(self):
        # Z_3^4: G^ab gives four summands and M(G) six, each Z/3
        pres = load_presentation("gen a 3\ngen b 3\ngen c 3\ngen d 3", 3)
        res = h2_trivial_coeffs(cayley_table(pres), 81)
        assert res.invariants == AbelianGroup.from_orders([3] * 10)

    def test_modulus_prime_to_the_order(self):
        res = h2_trivial_coeffs(cayley_table(load_presentation(D8, 2)), 3)
        assert res.invariants.is_trivial

    def test_rejects_a_table_that_is_no_p_group(self):
        # Z_6: the cyclic group of order 6, generated by 1
        table = CayleyTable([[(x + y) % 6 for y in range(6)] for x in range(6)])
        with pytest.raises(ValueError, match=r"order 6 is not a power of p = 2"):
            h2_trivial_coeffs(table, 2)


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


def hom_rows(table):
    """Every identity g(x) + g(y) = g(xy) with x, y != 1, as an integer row
    over the elements other than 1: its solutions are Hom(G, Z_m)."""
    n = table.n
    rows = []
    for x in range(1, n):
        for y in range(1, n):
            row = np.zeros(n - 1, dtype=np.int64)
            row[x - 1] += 1
            row[y - 1] += 1
            if (xy := table.mul(x, y)) != 0:
                row[xy - 1] -= 1
            rows.append(row)
    return np.array(rows).reshape(-1, n - 1)


def h2_dense_full_triples(table, m, p):
    """Independent log_p |H^2|: materialize every triple equation and
    eliminate over Z_m by plain dense row reduction, then divide by the
    coboundaries, m^(N-1) / |Hom(G, Z_m)|, with Hom counted the same way.
    Shares no code with the oracle."""
    k = valuation(m, p)
    log_cob = (table.n - 1) * k - log_solutions(hom_rows(table), p, k)
    return log_solutions(triple_rows(table), p, k) - log_cob


@functools.cache
def dense_logs(text, p):
    """log_p |H^2(G, Z/p^j)| by the dense eliminator for j = 0, ..., log_p N."""
    table = cayley_table(load_presentation(text, p))
    return [0] + [h2_dense_full_triples(table, p ** j, p)
                  for j in range(1, valuation(table.n, p) + 1)]


DENSE_GROUPS = [(Z22, 2), (D8, 2), (Q8, 2), ("gen a 4\ngen b 2", 2), ("gen a 3\ngen b 3", 3),
                (ES_P3, 3)]


class TestDenseCrossCheck:
    @pytest.mark.parametrize("text,p", DENSE_GROUPS)
    def test_streamed_equals_dense(self, text, p):
        table = cayley_table(load_presentation(text, p))
        logs = dense_logs(text, p)
        for j in (len(logs) - 1, 1):  # at m = p every summand of G^ab and M(G) is cut to Z/p
            fast = h2_trivial_coeffs(table, p ** j)
            assert fast.invariants.order_exponent(p) == logs[j], j

    @pytest.mark.parametrize("text,p", DENSE_GROUPS)
    def test_dense_counts_fix_the_invariants(self, text, p):
        """log_p |H^2(G, Z/p^j)| sums min(e, j) over the exponents e of H^2(G,
        Z_N), so its rise from j - 1 to j counts the summands of order at
        least p^j: the dense counts at every j fix the invariants, not just
        the order."""
        table = cayley_table(load_presentation(text, p))
        k = valuation(table.n, p)
        logs = dense_logs(text, p)
        at_least = [logs[j] - logs[j - 1] for j in range(1, k + 1)] + [0]
        exps = [j + 1 for j in range(k) for _ in range(at_least[j] - at_least[j + 1])]
        assert h2_trivial_coeffs(table, table.n).invariants == AbelianGroup.of(p, exps)


class TestH2AgainstPresentation:
    @pytest.mark.parametrize("eid,p", [("D8", 2), ("T6_xiv", 2), ("T6_xii", 3)])
    def test_table_equals_presentation_routes(self, catalog, eid, p):
        """H^2(G, Z/p^j) from the table equals Ext(G^ab) + Hom(M(G)) with G^ab
        from the relators and M(G) from tails, neither of which reads the
        table; j runs one past log_p N, so both cut and uncut summands show."""
        pres = catalog.instantiate(eid, p)
        table = cayley_table(pres)
        exps = abelianization(pres).exponents + multiplier_via_tails(pres).invariants.exponents
        for j in range(1, valuation(table.n, p) + 2):
            want = AbelianGroup.of(p, [min(e, j) for e in exps])
            assert h2_trivial_coeffs(table, p ** j).invariants == want, j


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

    def test_cap_error_names_cap(self):
        pres = load_presentation("gen a 3\ngen b 3\ngen c 3\ngen d 3\ngen e 3", 3)
        with pytest.raises(SizeCapError) as exc:
            multiplier_via_oracle(pres)
        assert str(exc.value) == "group order 243 exceeds the oracle cap 128"

    def test_trivial_group(self):
        pres = load_presentation("", 3)
        assert multiplier_via_oracle(pres).invariants.is_trivial

    @pytest.mark.parametrize("text,q,p", [(D8, 2, 3), (ES_P3, 3, 2), ("gen a 3", 3, 5)],
                             ids=["D8-at-3", "ESp_p3-at-2", "Z3-at-5"])
    def test_refuses_an_order_that_is_no_power_of_p(self, text, q, p):
        table = cayley_table(load_presentation(text, q))
        with pytest.raises(ValueError, match=rf"order {table.n} is not a power of p = {p}"):
            multiplier_from_table(table, p)
        with pytest.raises(ValueError, match=rf"order {table.n} is not a power of p = {p}"):
            abelianization_from_table(table, p)

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


class TestHopfAgainstTails:
    def test_above_the_cap_agrees_with_tails(self, catalog):
        # T6_xi at p = 3: N = 243, 1,461 relation rows, above the report's cap
        pres = catalog.instantiate("T6_xi", 3)
        assert pres.group_order() > DEFAULT_ORACLE_CAP
        got = multiplier_from_table(cayley_table(pres), 3)
        want = multiplier_via_tails(pres).invariants
        assert got.invariants == want == AbelianGroup.elementary(3, 4)

    def test_trace_counts_the_cycle_basis(self, catalog):
        # (N/q)(d - 1) + 1 cycles of the quotient by Z = <a>, of order q = 4,
        # for d = 5 generators, d relation rows per cycle
        res = multiplier_via_oracle(catalog.instantiate("T6_xiv", 2))
        assert res.trace == ("oracle: N=64, d=5, Z=4, cycles=65, relations=325, free=5 "
                             "-> [2,2,2,2,2,2,2,2,2]",)

    def test_one_generator_short_breaks_the_free_rank(self, catalog, monkeypatch):
        """Without s_0's rows the module is the coinvariants under a proper
        subgroup H, of rank 1 + (d - 1)[G:H] > d."""
        real = oracle.cycle_relations

        def short(right, tree):
            ncycles, blocks = real(right, tree)
            return ncycles, blocks[1:]

        monkeypatch.setattr(oracle, "cycle_relations", short)
        with pytest.raises(OracleInconsistency, match=r"free rank 9 != 5 generators"):
            multiplier_via_oracle(catalog.instantiate("T6_xiv", 2))


def naive_cycle_rows(table, gens):
    """The rows s.c_e - c_e rebuilt edge by edge: each edge of the tree path
    1 -> y, of e = (y, s_i) and of the tree path back from y s_i, translated
    by s and counted when it lands off the tree.  The tree is the BFS tree
    that takes the generators in order."""
    t = np.array(table.table)
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
        for eid, _, pres in instances(catalog, 1, 64, (p,)):
            table = cayley_table(pres)
            perm = [0] + list(rng.permutation(np.arange(1, table.n)))
            for tab in (table, table.relabel(perm)):
                gens = tab.generating_set()
                actions = tab.actions(gens)
                ncycles, blocks = cycle_relations(actions, walk(actions))
                want = naive_cycle_rows(tab, gens)
                assert ncycles == want[0], eid
                assert [[list(row.items()) for row in block] for block in blocks] == \
                    [[list(row.items()) for row in block] for block in want[1]], eid
                checked += 1
        assert checked == tables


def repeat_an_entry(actions):
    """The first pc generator's action, a pick, sends 1 where it sends 0."""
    return [actions[0][:1] * 2 + actions[0][2:]] + actions[1:]


def an_entry_out_of_range(actions):
    """The first action sends its last point to N, past the last point."""
    return [actions[0][:-1] + [len(actions[0])]] + actions[1:]


def swap_two_entries(actions):
    """Two entries swapped in the fourth pc generator's action, the one that
    the greedy pass does not pick on T6_xx."""
    a = list(actions[3])
    a[1], a[2] = a[2], a[1]
    return actions[:3] + [a] + actions[4:]


def drop_a_pick(actions):
    return actions[1:]


def transitive_not_regular(actions):
    """a = (0 1) and b = (0 2)(1 3) reach all four points, but the left
    action of b read along their walk sends 0 and 1 both to 2."""
    return [[1, 0, 2, 3], [2, 3, 0, 1]]


FAULTS = [(repeat_an_entry, "T6_xiv", "not a permutation"),
          (an_entry_out_of_range, "T6_xiv", "not a permutation"),
          (swap_two_entries, "T6_xx", "does not commute"),
          (drop_a_pick, "T6_xiv", "right walk reaches 32 of 64 points"),
          (transitive_not_regular, "T6_xiv", "not a permutation")]


def collected_actions(pres):
    """The reference for `right_actions`: every element collected by every
    pc generator."""
    words = list(pres.elements())
    index = {w: k for k, w in enumerate(words)}
    return [[index[pres.mul_gen(w, l)] for w in words] for l in range(pres.ngens)]


def another_groups_actions(catalog, monkeypatch):
    """Z_3^3's actions offered for ESp_p3: a regular group of order 27 that
    passes every other check but breaks the stated [a1, a] = a2."""
    real, z3 = pcgroup.right_actions, load_presentation("gen a p\ngen b p\ngen c p", 3)
    monkeypatch.setattr(pcgroup, "right_actions", lambda pres: real(z3))
    return catalog


def a_quotients_actions(catalog, monkeypatch):
    """The actions of ESp_p3/Z = Z_3^2 on its 9 points, a2 acting trivially:
    they satisfy every stated relation, so only N = p^n tells them apart."""
    real, z3 = pcgroup.right_actions, load_presentation("gen a p\ngen a1 p", 3)
    monkeypatch.setattr(pcgroup, "right_actions", lambda pres: real(z3) + [list(range(9))])
    return catalog


def a_changed_tail(catalog, monkeypatch):
    """ESp_p3 with [a1, a] = a1 in place of a2, built with `check_consistency`
    bypassed, so the walk follows relations no group of order 27 satisfies."""
    monkeypatch.setattr(pcgroup, "check_consistency", lambda pres: ())
    return Catalog({"ESp_p3": parse_entry(
        "name ESp_p3\nconstraint odd\ngen a p\ngen a1 p\ngen a2 p\ncomm a1 a = a1")})


RELATION_FAULTS = [(another_groups_actions, "break the stated relation [a1, a]"),
                   (a_quotients_actions, "not 27 points per pc generator"),
                   (a_changed_tail, "does not commute")]


class TestActions:
    def test_the_walk_equals_collection(self, catalog):
        """`right_actions` walks the stated relations and equals the collected
        actions; the bound 7^4 keeps this quick, and with 20,000 in its place
        all 105 catalog instances up to that order agree."""
        checked = Counter()
        for eid, p, pres in instances(catalog, 1, 7 ** 4):
            assert right_actions(pres) == collected_actions(pres), (eid, p)
            checked[p] += 1
        assert checked == {2: 21, 3: 30, 5: 15, 7: 15}

    @pytest.mark.parametrize("fault,message", RELATION_FAULTS,
                             ids=[f.__name__ for f, _ in RELATION_FAULTS])
    def test_actions_not_of_the_presented_group_are_a_fail_record(self, catalog, monkeypatch,
                                                                  fault, message):
        """The certificate makes the actions a regular group H of order N;
        N = p^n and the stated relations at its identity make H the
        presented group."""
        catalog = fault(catalog, monkeypatch)
        with pytest.raises(OracleInconsistency, match=re.escape(message)):
            multiplier_via_oracle(catalog.instantiate("ESp_p3", 3))
        report = verify_entry(Computer(catalog), "ESp_p3", 3, method="oracle")
        assert report.status == "FAIL"
        assert report.trace[0].startswith("OracleInconsistency: oracle: ")
        assert message in report.trace[0]

    def test_the_oracle_collects_nothing(self, catalog, monkeypatch):
        """Neither the actions nor their certificate collect a word."""
        def forbidden(*args, **kwargs):
            raise AssertionError("the oracle collected a word")

        pres = catalog.instantiate("T6_xiv", 2)
        want = multiplier_via_tails(pres).invariants
        monkeypatch.setattr(PcPresentation, "_collect_onto", forbidden)
        assert multiplier_via_oracle(pres).invariants == want

    def test_every_small_catalog_instance(self, catalog):
        """From the presentation's actions, the oracle equals the table
        adapter (its trace, invariants included) and tails on every catalog
        instance the cap admits, with as many greedy picks as the table's
        minimal generating set, so the row count does not grow."""
        checked = Counter()
        for eid, p, pres in instances(catalog, 1, DEFAULT_ORACLE_CAP):
            table = cayley_table(pres)
            actions = right_actions(pres)
            assert len(greedy_generators(actions)[0]) == len(table.generating_set()), (eid, p)
            got = multiplier_from_actions(actions, p)
            assert got.trace == multiplier_from_table(table, p).trace, (eid, p)
            assert got.invariants == multiplier_via_tails(pres).invariants, (eid, p)
            checked[p] += 1
        assert checked == {2: 21, 3: 15, 5: 4, 7: 2}

    def test_table_rows_are_the_left_actions(self, catalog):
        """Each row of the table, read along the walk of the right actions,
        is left multiplication by collection, and the columns of the pc
        generators are `right_actions`."""
        checked = 0
        for eid, p, pres in instances(catalog, 1, 64, (2, 3)):
            words = list(pres.elements())
            index = {w: k for k, w in enumerate(words)}
            table = cayley_table(pres).table
            assert table == tuple(tuple(index[pres.mul(s, x)] for x in words)
                                  for s in words), (eid, p)
            gens = [index[pres.gen(l)] for l in range(pres.ngens)]
            assert [[row[g] for row in table] for g in gens] == right_actions(pres), (eid, p)
            checked += 1
        assert checked == 24

    @pytest.mark.parametrize("fault,eid,message", FAULTS, ids=[f.__name__ for f, _, _ in FAULTS])
    def test_a_broken_certificate_is_a_fail_record(self, catalog, monkeypatch, fault, eid,
                                                   message):
        pres = catalog.instantiate(eid, 2)
        with pytest.raises(OracleInconsistency, match=message):
            multiplier_from_actions(fault(right_actions(pres)), 2)

        real = oracle.multiplier_from_actions
        monkeypatch.setattr(oracle, "multiplier_from_actions",
                            lambda actions, p: real(fault(actions), p))
        report = verify_entry(Computer(catalog), eid, 2)
        assert report.status == "FAIL"
        assert report.trace[0].startswith("OracleInconsistency: oracle: ")
        assert message in report.trace[0]

    def test_the_left_walk_check_catches_a_broken_derivation(self, catalog, monkeypatch):
        """Right reach and commuting imply the left walk's reach, so no input
        trips that check first; a derivation that reads every left action as
        the identity does."""
        monkeypatch.setattr(oracle, "left_by", lambda c, actions, tree: list(range(64)))
        with pytest.raises(OracleInconsistency, match="left walk reaches 1 of 64 points"):
            multiplier_via_oracle(catalog.instantiate("T6_xiv", 2))

    def test_the_report_path_builds_no_table(self, monkeypatch, clear_memos):
        def forbidden(self):
            raise AssertionError("built an N x N Cayley table")

        monkeypatch.setattr(CayleyTable, "__post_init__", forbidden)
        clear_memos()
        reports = verify_theorem(2, "two") + verify_theorem(3, "odd") + run_table24(3)
        assert reports
        assert all(r.status in ("PASS", "DISABLED") for r in reports), \
            [(r.group, r.trace) for r in reports if r.status not in ("PASS", "DISABLED")]


def full_graph_multiplier(right, p):
    """M(G) and the free rank by Hopf's formula on the whole Cayley graph:
    the rows s.c_e - c_e of every cycle of Gamma itself, with no quotient."""
    k = valuation(len(right[0]), p) + 1
    ncycles, blocks = cycle_relations(right, walk(right))
    vals = snf([row for block in blocks for row in block], ncycles, p, k)
    return AbelianGroup.of(p, [v for v in vals if v < k]), vals.count(k)


def quotient_order(result):
    return int(re.search(r"\bZ=(\d+),", result.trace[0]).group(1))


def non_central_z(real):
    """z: the first pick that is not central."""
    def quotient(right, zx):
        tree = walk(right)
        lefts = (left_by(a[0], right, tree) for a in right)
        return real(right, next(sx for sx, a in zip(lefts, right) if sx != a))
    return quotient


def holonomy_in_2z(real):
    """The holonomies read in 2Z/q, so that at p = 2 none is a unit."""
    def quotient(right, zx):
        q, qright, qtree, hol = real(right, zx)
        return q, qright, qtree, [2 * h % q for h in hol]
    return quotient


QUOTIENT_FAULTS = [(non_central_z, "holonomy sum is"),
                   (holonomy_in_2z, "no non-tree edge has unit holonomy")]


class TestCentralQuotient:
    def test_small_instances_equal_the_full_graph_and_tails(self, catalog):
        """Up to the cap, the quotient's M(G) and free rank are the full
        graph's, and M(G) is tails'; q is the largest order of an element
        of the centre the presentation gives (for an abelian p-group, the
        largest order of its generators)."""
        checked = 0
        for eid, p, pres in instances(catalog, 1, DEFAULT_ORACLE_CAP):
            actions = right_actions(pres)
            got = multiplier_from_actions(actions, p)
            want = multiplier_via_tails(pres).invariants
            picks, _ = greedy_generators(actions)
            assert full_graph_multiplier(picks, p) == (got.invariants, len(picks)), (eid, p)
            assert got.invariants == want, (eid, p)
            zs = center(pres).igs.values()
            assert quotient_order(got) == max(map(pres.element_order, zs)), (eid, p)
            checked += 1
        assert checked == 42

    def test_above_the_cap_equals_tails(self, catalog):
        """Orders 129 to 1,300, past the cap that `multiplier_via_oracle`
        enforces, so the actions go to `multiplier_from_actions` directly."""
        checked = 0
        for eid, p, pres in instances(catalog, DEFAULT_ORACLE_CAP + 1, 1300):
            if not any(tail for _, _, tail in pres.comms):
                continue  # abelian
            got = multiplier_from_actions(right_actions(pres), p)
            assert got.invariants == multiplier_via_tails(pres).invariants, (eid, p)
            zs = center(pres).igs.values()
            assert quotient_order(got) == max(map(pres.element_order, zs)), (eid, p)
            checked += 1
        assert checked == 28

    @pytest.mark.parametrize("fault,message", QUOTIENT_FAULTS,
                             ids=[f.__name__ for f, _ in QUOTIENT_FAULTS])
    def test_a_broken_quotient_is_a_fail_record(self, catalog, monkeypatch, fault, message):
        monkeypatch.setattr(oracle, "quotient_actions", fault(oracle.quotient_actions))
        with pytest.raises(OracleInconsistency, match=message):
            multiplier_via_oracle(catalog.instantiate("T6_xiv", 2))
        report = verify_entry(Computer(catalog), "T6_xiv", 2)
        assert report.status == "FAIL"
        assert report.trace[0].startswith("OracleInconsistency: oracle: ")
        assert message in report.trace[0]


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
        """H^2 never moves, and every labeling yields d(G) generators."""
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
                assert h2_trivial_coeffs(shuffled, table.n).invariants == base.invariants
