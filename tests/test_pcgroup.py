"""Collection, consistency, subgroup and structure machinery."""

import random
from collections import Counter

import numpy as np
import pytest
from conftest import catalog_instances

from multlab import bounds, pcgroup
from multlab.abelian import AbelianGroup, valuation
from multlab.blackburn_evens import BePreconditionError, build_be_data
from multlab.bounds import (
    KIND_CAPABLE,
    KIND_EXACT,
    Ledger,
    Provenance,
    _derived_meet_exponent,
    rule_extraspecial,
    rule_jones,
    rule_transgression_lower,
)
from multlab.cayley import CayleyTable, _light_associative
from multlab.dsl import DslError, load_presentation
from multlab.entries import Catalog
from multlab.oracle import _invariants_from_order_counts
from multlab.pcgroup import (
    CollectionError,
    InconsistentPresentation,
    PcPresentation,
    Subgroup,
    abelianization,
    cayley_table,
    center,
    central_quotient,
    check_consistency,
    derived_subgroup,
    direct_product,
    iso_witness_check,
    lower_central_series,
    multiplier_via_tails,
    structure_report,
    upper_central_series,
)
from multlab.report import verify_theorem
from multlab.results import METHOD_TAILS

ES_P3 = "gen a p\ngen a1 p\ngen a2 p\ncomm a1 a = a2"
ES2_P3 = "gen a p\ngen a1 p\ngen a2 p\npow a = a2\ncomm a1 a = a2"
PHI2_211B = "gen a p\ngen a1 p\ngen g p\ngen a2 p\ncomm a1 a = a2\npow g = a2"
PHI2_31 = "gen a p^2\ngen a1 p\ngen a2 p\npow a = a2\ncomm a1 a = a2"
PHI3_14 = ("gen a p\ngen a1 p\ngen a2 p\ngen a3 p\npow a1 = a3^-cp3\n"
           "comm a1 a = a2\ncomm a2 a = a3")
PHI7_15 = ("gen a p\ngen b p\ngen a1 p\ngen a2 p\ngen a3 p\npow a1 = a3^-cp3\n"
           "comm a1 a = a2\ncomm a2 a = a3\ncomm a1 b = a3")
D8 = "gen a 2\ngen b 4\ncomm b a = b^2"
Q8 = "gen b 2\ngen a 4\npow b = a^2\ncomm a b = a^2"


def subgroup_elements(sub):
    """Every element of a subgroup once: the triangular products
    u_1^{e_1} ... u_m^{e_m} of its igs."""
    pres = sub.pres
    gens = list(sub.igs.items())
    rel = [pres.orders[l] // u[l] for l, u in gens]

    def rec(k, acc):
        if k == len(gens):
            yield acc
            return
        _, u = gens[k]
        cur = acc
        for e in range(rel[k]):
            yield from rec(k + 1, cur)
            if e + 1 < rel[k]:
                cur = pres.mul(cur, u)

    return rec(0, pres.identity)


class TestCollect:
    def test_empty_word_is_identity(self):
        pres = load_presentation(ES_P3, 3)
        assert pres.collect([]) == (0, 0, 0)

    def test_phi2_211b_swap(self):
        # a1 * a collects to a * a1 * a2, i.e. (1, 1, 0, 1)
        pres = load_presentation(PHI2_211B, 3)
        assert pres.collect([(1, 1), (0, 1)]) == (1, 1, 0, 1)

    def test_d8_relative_order(self):
        pres = load_presentation(D8, 2)
        assert pres.collect([(1, 3), (1, 1)]) == (0, 0)

    def test_d8_conjugation(self):
        pres = load_presentation(D8, 2)
        assert pres.collect([(1, 1), (0, 1)]) == (1, 3)  # b a = a b^3

    def test_inverses(self):
        pres = load_presentation(PHI2_31, 3)
        for v in [(4, 2, 1), (1, 0, 2), (8, 2, 2)]:
            assert pres.mul(v, pres.inv(v)) == pres.identity

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_inverse_of_random_elements(self, catalog, p):
        # inv(u) on both sides of u, and against collecting the reversed word
        # with negative exponents, for random u in every catalog group at p
        rng = random.Random(p)
        checked = 0
        for _, _, pres in catalog_instances((p,), catalog):
            for _ in range(5):
                u = tuple(rng.randrange(r) for r in pres.orders)
                v = pres.inv(u)
                assert pres.mul(v, u) == pres.identity == pres.mul(u, v)
                assert v == pres.collect([(i, -e) for i, e in reversed(pres.word_of(u))])
                checked += 1
        assert checked >= 100

    def test_collect_idempotent_on_normal_words(self):
        pres = load_presentation(PHI3_14, 3)
        for v in pres.elements():
            assert pres.collect(pres.word_of(v)) == v


class TestCollectorChecks:
    def test_letter_out_of_range(self):
        pres = load_presentation(ES_P3, 3)
        for k in (3, -1):
            with pytest.raises(CollectionError, match=f"letter references generator {k} of 3"):
                pres.collect([(0, 1), (k, 1)])

    def test_guard_trips_on_a_long_collection(self, monkeypatch):
        pres = load_presentation(PHI7_15, 5)
        word = [(4, 1), (3, 1), (2, 1), (1, 1), (0, 1)] * 4
        assert pres.collect(word) == (4, 4, 4, 4, 4)
        monkeypatch.setattr(pcgroup, "_COLLECT_GUARD", 50)
        with pytest.raises(CollectionError, match="guard tripped"):
            pres.collect(word)


class TestConsistency:
    def test_phi2_211b_passes(self):
        pres = load_presentation(PHI2_211B, 3)
        check_consistency(pres)  # raises on a failing overlap
        assert pres.order_exponent == 4

    def test_collapsing_relation_fails(self):
        # [b, a] = b with |a| = |b| = 2 collapses b: the group has order 2, not 4
        with pytest.raises(InconsistentPresentation,
                           match=r"power-right overlap on \(b, a\): \(0, 1\) != \(0, 0\)"):
            PcPresentation(2, ("a", "b"), (2, 2), ((), ()), ((1, 0, ((1, 1),)),))

    def test_es_p3(self):
        pres = load_presentation(ES_P3, 3)
        check_consistency(pres)
        assert pres.order_exponent == 3

    def test_trivial_group(self):
        pres = load_presentation("", 3)
        check_consistency(pres)
        assert pres.group_order() == 1

    def test_tail_exponent_must_be_an_integer(self):
        for e in (0.5, 1.0):
            with pytest.raises(ValueError, match=rf"exponent {e} is not an integer"):
                PcPresentation(3, ("a", "b"), (3, 3), ((), ()), ((1, 0, ((1, e),)),))


class TestStatedTrivialCommutator:
    """[b, a] = 1 stated is the same presentation as [b, a] left out."""

    STATED = PcPresentation(2, ("a", "b"), (2, 2), ((), ()), ((1, 0, ()),))
    OMITTED = PcPresentation(2, ("a", "b"), (2, 2), ((), ()), ())

    def test_dropped_when_built(self):
        assert self.STATED.comms == ()
        assert self.STATED == self.OMITTED and hash(self.STATED) == hash(self.OMITTED)
        assert center(self.STATED) == Subgroup.whole(self.STATED)

    def test_the_abelian_method_applies(self, computer):
        methods, _ = computer.applicable(self.STATED, None)
        assert "abelian" in methods
        res = computer.compute(self.STATED, method="abelian")
        assert res.invariants.render() == "[2]"
        auto = computer.compute(self.STATED)
        assert auto.invariants == res.invariants
        assert f"auto: methods {methods} agree" in auto.trace

    def test_still_validated(self):
        with pytest.raises(ValueError, match=r"bad commutator index pair \(0, 1\)"):
            PcPresentation(2, ("a", "b"), (2, 2), ((), ()), ((0, 1, ()),))
        with pytest.raises(ValueError, match=r"duplicate commutator relation \(1, 0\)"):
            PcPresentation(2, ("a", "b"), (2, 2), ((), ()), ((1, 0, ()), (1, 0, ())))


class TestTails:
    """Central tails against every other method and the catalog's
    expectations, and the overlaps that a wrong evaluation of g_i^{r_i}
    loses."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_agrees_with_every_applicable_method(self, catalog, computer, p):
        checked = 0
        for eid in catalog.ids():
            entry = catalog[eid]
            if entry.is_disabled or not entry.allows(p):
                continue
            pres = catalog.instantiate(eid, p)
            tails = multiplier_via_tails(pres)
            assert tails.method == METHOD_TAILS
            assert tails.trace[0].endswith(f"free={pres.ngens} -> {tails.render()}")
            methods, _ = computer.applicable(pres, entry)
            for m in methods:
                if m != METHOD_TAILS:
                    assert computer._run(m, pres, entry).invariants == tails.invariants, \
                        (eid, m)
            for exp in entry.expects:
                if exp.kind == "multiplier":
                    assert tails.invariants == exp.multiplier_at(p), eid
            checked += 1
        assert checked >= 20

    # Taking g_i^{r_i} through the collector as a letter, instead of as its
    # collected tail w_i carrying t_i, loses one relation: [2], [p,p,p] and
    # [p^2,p^2] come out instead.
    @pytest.mark.parametrize("eid,p,want", [
        ("Phi2_31", 2, []), ("Phi2_31", 5, []),
        ("Phi2_211a", 3, [3, 3]), ("Phi2_211a", 7, [7, 7]),
        ("Phi2_211b", 2, [2, 2]), ("Phi2_211b", 5, [5, 5]),
    ])
    def test_power_overlaps_keep_their_relation(self, catalog, eid, p, want):
        res = multiplier_via_tails(catalog.instantiate(eid, p))
        assert res.invariants == AbelianGroup.from_orders(want)

    @pytest.mark.parametrize("eid,p", [("T6_iii", 3), ("Phi2_211b", 5), ("T6_xiv", 2)])
    def test_reads_the_certificate_without_collecting(self, catalog, monkeypatch, eid, p):
        pres = catalog.instantiate(eid, p)
        want = multiplier_via_tails(pres)

        def forbidden(*_):
            raise AssertionError("collected a word")

        monkeypatch.setattr(PcPresentation, "_collect_onto", forbidden)
        got = multiplier_via_tails(pres)
        assert (got.invariants, got.trace) == (want.invariants, want.trace)

    def test_inverse_letter_carries_minus_one_tail(self):
        # a^-1 = a^(r-1) t^-1, then a^r = t: a^-1 a collects to 1, no tail
        pres = load_presentation("gen a p^2", 3)
        tails = [0]
        assert pres._collect_onto([0], [(0, -1), (0, 1)], tails) == (0,)
        assert tails == [0]

    def test_trivial_and_cyclic_groups(self):
        trivial = PcPresentation(p=3, names=(), orders=(), powers=(), comms=())
        assert multiplier_via_tails(trivial).invariants.is_trivial
        cyclic = load_presentation("gen a p^3", 5)
        assert multiplier_via_tails(cyclic).trace == ("tails: tails=1, relations=1, free=1 -> []",)


class TestStructure:
    def test_es_p3(self):
        st = structure_report(load_presentation(ES_P3, 3))
        assert st.nilpotency_class == 2
        assert st.derived.order_exponent == 1
        assert st.center == st.derived

    def test_phi3_14(self):
        st = structure_report(load_presentation(PHI3_14, 3))
        assert st.nilpotency_class == 3
        assert st.derived.order_exponent == 2
        assert st.center.order_exponent == 1

    def test_abelian_class_one(self):
        pres = load_presentation("gen a p^2", 3)
        st = structure_report(pres)
        assert st.nilpotency_class == 1
        assert st.derived.order_exponent == 0
        # G = Z(G) exactly when the class is at most 1
        assert st.center.order_exponent == pres.order_exponent

    def test_trivial_group_all_ops(self):
        pres = load_presentation("", 3)
        st = structure_report(pres)
        assert st.nilpotency_class == 0
        assert st.derived.order_exponent == st.center.order_exponent == 0
        assert abelianization(pres).is_trivial
        assert cayley_table(pres).n == 1

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_igs_leads_are_powers_of_p(self, catalog, p):
        # sifting, orders and quotients read each igs lead entry as the step
        # p^v itself, which Subgroup.generate normalizes it to; <g^(p-1)>
        # starts from the unit lead p - 1
        checked = 0
        for eid, _, pres in catalog_instances((p,), catalog):
            st = structure_report(pres)
            units = [Subgroup.generate(pres, [pres.pow_el(pres.gen(i), p - 1)])
                     for i in range(pres.ngens)]
            for sub in st.lower_central + st.upper_central + [st.center] + units:
                for l, u in sub.igs.items():
                    assert u[l] == p ** valuation(u[l], p) < pres.orders[l], (eid, l, u)
                    checked += 1
        assert checked >= 100

    def test_series_nesting(self):
        pres = load_presentation(PHI7_15, 3)
        st = structure_report(pres)
        lower = st.lower_central
        for big, small in zip(lower, lower[1:]):
            assert all(big.contains(u) for u in small.igs.values())
        upper = st.upper_central
        for small, big in zip(upper, upper[1:]):
            assert all(big.contains(u) for u in small.igs.values())
        assert upper[-1].order_exponent == pres.order_exponent

    def test_derived_matches_abelianization(self):
        for text, p in [(ES_P3, 3), (PHI2_31, 3), (PHI3_14, 3), (Q8, 2), (D8, 2)]:
            pres = load_presentation(text, p)
            ab = abelianization(pres)
            assert ab.order_exponent(p) + derived_subgroup(pres).order_exponent \
                == pres.order_exponent


class TestAbelianization:
    def test_elementary(self):
        pres = load_presentation("gen a p\ngen b p\ngen c p", 3)
        assert abelianization(pres) == AbelianGroup.elementary(3, 3)

    def test_phi2_31(self):
        # killing a2 = a^{p^2} leaves Z_9 x Z_3
        assert abelianization(load_presentation(PHI2_31, 3)) == \
            AbelianGroup.from_orders([9, 3])

    def test_phi2_211c_with_zp(self):
        pres = direct_product(
            load_presentation("gen a p^2\ngen a1 p\ngen a2 p\ncomm a1 a = a2", 3),
            load_presentation("gen z p", 3))
        assert abelianization(pres) == AbelianGroup.from_orders([9, 3, 3])


class TestSubgroups:
    def test_igs_echelon_and_order(self):
        pres = load_presentation(PHI7_15, 3)
        g2 = derived_subgroup(pres)
        leads = list(g2.igs.keys())
        assert leads == sorted(leads)
        assert g2.order_exponent == 2

    def test_membership_spot_check(self):
        pres = load_presentation(PHI2_31, 3)
        z = center(pres)
        for x in subgroup_elements(z):
            assert all(pres.commutes(x, pres.gen(i)) for i in range(pres.ngens))

    def test_closure_under_operation(self):
        pres = load_presentation(PHI3_14, 3)
        sub = Subgroup.generate(pres, [pres.gen(1), pres.gen(2)], normal=True)
        els = list(subgroup_elements(sub))
        assert len(els) == sub.order()
        for u in els[:10]:
            for v in els[:10]:
                assert sub.contains(pres.mul(u, v))

    def test_displaced_igs_entry_is_sifted_again(self):
        # in Z_9 x Z_3, a^3 b takes lead 0 first; a displaces it (smaller
        # valuation there), and a^3 b must be sifted again to leave b
        pres = load_presentation("gen a p^2\ngen b p", 3)
        sub = Subgroup.generate(pres, [pres.gen(0), (3, 1)])
        assert sub.order_exponent == 3
        assert sub.igs == {0: (1, 0), 1: (0, 1)}

    def test_intersection(self):
        pres = load_presentation(PHI7_15, 3)
        st = structure_report(pres)
        assert _derived_meet_exponent(pres, st.center) == 1


class TestCentralQuotient:
    def test_es_mod_center(self):
        pres = load_presentation(ES_P3, 3)
        q = central_quotient(pres, structure_report(pres).center)
        assert q.order_exponent == 2
        assert abelianization(q) == AbelianGroup.elementary(3, 2)

    def test_phi7_mod_a3(self):
        pres = load_presentation(PHI7_15, 3)
        q = central_quotient(pres, structure_report(pres).center)
        assert q.order_exponent == 4

    def test_quotient_by_whole_group(self):
        pres = load_presentation("gen a p\ngen b p", 3)
        q = central_quotient(pres, Subgroup.whole(pres))
        assert q.group_order() == 1

    def test_order_exponent_arithmetic(self):
        pres = load_presentation(PHI2_211B, 3)
        k = derived_subgroup(pres)
        q = central_quotient(pres, k)
        assert q.order_exponent == pres.order_exponent - k.order_exponent

    def test_non_central_rejected(self):
        pres = load_presentation(PHI3_14, 3)
        with pytest.raises(ValueError, match="not central"):
            central_quotient(pres, derived_subgroup(pres))


def _survivors_by_membership(pres, K):
    """{i: p^v} for p^v > 1 the least power with g_i^(p^v) in <K, g_(i+1),
    ..., g_n>: the relative order of g_i in G/K, read by membership alone."""
    out = {}
    for i in range(pres.ngens):
        below = Subgroup.generate(
            pres, list(K.igs.values()) + [pres.gen(k) for k in range(i + 1, pres.ngens)])
        order = 1
        while not below.contains(pres.pow_el(pres.gen(i), order)):
            order *= pres.p
        if order > 1:
            out[i] = order
    return out


class TestSurvivors:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_against_membership(self, catalog, p):
        """Every lower central term, G' and Z(G) of every catalog instance;
        for a central K, the quotient is built on the same survivors.  The
        lower series and G' read no survivors, so they come before Z(G)."""
        checked = central = 0
        for eid, _, pres in catalog_instances((p,), catalog):
            for K in lower_central_series(pres) + [derived_subgroup(pres), None]:
                K = K or center(pres)  # Z(G) is built on survivors, so it comes last
                survivors = K.survivors()
                assert survivors == _survivors_by_membership(pres, K), (eid, K)
                checked += 1
                if K.is_central():
                    q, indices = pcgroup._central_quotient_map(pres, K)
                    assert (indices, list(q.orders)) == \
                        (list(survivors), list(survivors.values())), (eid, K)
                    central += 1
            st = structure_report(pres)
            assert st.center is center(pres), eid
            assert st.derived is derived_subgroup(pres), eid
        assert (checked, central) == {2: (107, 80), 3: (160, 117), 5: (160, 117)}[p]


class TestDirectProduct:
    def test_orders_add(self):
        es = load_presentation(ES_P3, 3)
        z5 = load_presentation("gen z1 p\ngen z2 p\ngen z3 p\ngen z4 p\ngen z5 p", 3)
        prod = direct_product(es, z5)
        assert prod.order_exponent == 8

    def test_mismatched_primes(self):
        with pytest.raises(ValueError, match="primes"):
            direct_product(load_presentation("gen a 2", 2),
                           load_presentation("gen a 3", 3))

    def test_product_with_trivial(self):
        es = load_presentation(ES_P3, 3)
        prod = direct_product(es, load_presentation("", 3))
        assert prod.orders == es.orders
        assert [prod.collect(prod.word_of(v)) for v in es.elements()] \
            == list(es.elements())

    def test_swap_gives_iso_witness(self):
        es2 = load_presentation(ES2_P3, 3)
        z3 = load_presentation("gen z1 p\ngen z2 p\ngen z3 p", 3)
        left = direct_product(es2, z3)
        right = direct_product(z3, es2)
        images = [right.gen(3), right.gen(4), right.gen(5),
                  right.gen(0), right.gen(1), right.gen(2)]
        assert iso_witness_check(left, right, images)


class TestCayleyTable:
    def test_z2_squared_is_addition(self):
        pres = load_presentation("gen a 2\ngen b 2", 2)
        tab = cayley_table(pres)
        words = list(pres.elements())
        for i, u in enumerate(words):
            for j, v in enumerate(words):
                s = tuple((x + y) % 2 for x, y in zip(u, v))
                assert tab.table[i][j] == words.index(s)

    def test_d8_noncommutative_entry(self):
        pres = load_presentation(D8, 2)
        tab = cayley_table(pres)
        a, b = 4, 1  # ranks of the generators in the lex enumeration
        assert tab.mul(a, b) != tab.mul(b, a)

    @pytest.mark.parametrize("p", [2, 3])
    def test_columns_match_pairwise_products(self, catalog, p):
        """The column-by-column build against every product w_i w_j."""
        checked = 0
        for eid in catalog.ids():
            entry = catalog[eid]
            if entry.is_disabled or not entry.allows(p):
                continue
            pres = catalog.instantiate(eid, p)
            if pres.group_order() > 81:
                continue
            words = list(pres.elements())
            index = {w: k for k, w in enumerate(words)}
            want = [[index[pres.mul(u, v)] for v in words] for u in words]
            assert list(map(list, cayley_table(pres).table)) == want, eid
            checked += 1
        assert checked >= 10

    def test_swapped_intercalate_rejected_at_first_bad_triple(self):
        # rows x, xg and columns y, gy of an involution g form a 2 x 2 Latin
        # subsquare; swapping it keeps every row and column a permutation
        t = np.array(cayley_table(Catalog.bundled().instantiate("T6_xiv", 2)).table)
        n = len(t)
        g = next(g for g in range(1, n) if t[g, g] == 0)
        x = y = next(x for x in range(1, n) if x != g)
        xg, gy = t[x, g], t[g, y]
        t[[x, xg], y], t[[x, xg], gy] = t[[x, xg], gy], t[[x, xg], y]
        bad = np.argwhere(t[t] != t[:, t])
        assert len(bad)
        first = ",".join(str(v) for v in bad[0])
        with pytest.raises(ValueError, match=rf"associativity fails at \({first}\)"):
            CayleyTable(t)

    def test_light_test_agrees_with_every_triple(self, catalog):
        """Light's test on a generating set passes exactly the associative
        tables: relabelled group tables pass, and it rejects every random
        intercalate swap that the scan of all triples rejects."""
        rng = np.random.default_rng(5)
        broken = 0
        for eid in ("D8", "Q8", "T6_xxi", "T6_xx", "T6_xiv"):
            table = cayley_table(catalog.instantiate(eid, 2))
            n = table.n
            perm = [0] + [int(v) for v in rng.permutation(np.arange(1, n))]
            assert _light_associative(table.relabel(perm).table)
            involutions = [g for g in range(1, n) if table.table[g][g] == 0]
            for _ in range(20):
                t = np.array(table.table)
                g = int(rng.choice(involutions))
                x, y = (int(v) for v in rng.choice([v for v in range(1, n) if v != g], 2))
                xg, gy = t[x, g], t[g, y]
                t[[x, xg], y], t[[x, xg], gy] = t[[x, xg], gy], t[[x, xg], y]
                associative = np.array_equal(t[t], t[:, t])
                assert _light_associative(tuple(map(tuple, t.tolist()))) == associative
                broken += not associative
        assert broken >= 90

    @pytest.mark.parametrize("rows, message", [
        ([[0, 1], [1, 0, 2]], "table must be square, got 2 rows of lengths [2, 3]"),
        (np.zeros((2, 3), dtype=int), "table must be square, got 2 rows of lengths [3]"),
        ([0, 1], "table rows must be sequences of ints"),
        ([], "empty table; the trivial group has N = 1"),
        ([[1, 0], [0, 1]], "index 0 is not an identity"),
    ], ids=["ragged", "wide", "flat", "empty", "identity-at-1"])
    def test_malformed_table_is_named(self, rows, message):
        with pytest.raises(ValueError) as exc:
            CayleyTable(rows)
        assert str(exc.value) == message

    def test_first_bad_row_or_column_named(self):
        t = np.array(cayley_table(load_presentation("gen a 2\ngen b 2", 2)).table)
        t[2, 1] = t[2, 3]  # row 2 and column 1 repeat an entry
        with pytest.raises(ValueError, match=r"row/column 1 is not a permutation"):
            CayleyTable(t)


class TestIsoWitness:
    def test_identity_on_d8(self):
        pres = load_presentation(D8, 2)
        assert iso_witness_check(pres, pres, [pres.gen(0), pres.gen(1)])

    def test_d8_to_q8_exhaustive(self):
        d8 = load_presentation(D8, 2)
        q8 = load_presentation(Q8, 2)
        assert not any(
            iso_witness_check(d8, q8, [tuple(u), tuple(v)])
            for u in q8.elements() for v in q8.elements())

    def test_size_mismatch_is_an_error(self):
        d8 = load_presentation(D8, 2)
        z2 = load_presentation("gen a 2", 2)
        with pytest.raises(ValueError, match="size mismatch"):
            iso_witness_check(d8, z2, [(0,), (1,)])

    # D8 has relative orders (2, 4): a wrong length, an exponent at or past
    # r_i, and a negative one, which the collector would chase to its step guard
    @pytest.mark.parametrize("images", [
        [(1, 0, 0), (0, 1)], [(1, 5), (0, 1)], [(3, 0), (0, 1)], [(1, 0), (0, 4)],
        [(1, 0), (0, -1)],
    ])
    def test_image_not_a_normal_word_is_an_error(self, images):
        d8 = load_presentation(D8, 2)
        with pytest.raises(ValueError, match="not a normal word"):
            iso_witness_check(d8, d8, images)


# -- brute-force references: enumerate the group ------------------------------


def brute_center(pres):
    """Z(G) by filtering every element of G against each generator."""
    candidates = list(pres.elements())
    for i in range(pres.ngens):
        candidates = [x for x in candidates if pres.commutes(x, pres.gen(i))]
    return Subgroup.generate(pres, [x for x in candidates if x != pres.identity])


def brute_invariants(sub):
    """Invariants of an abelian subgroup from the orders of all its elements."""
    p = sub.pres.p
    counts = Counter(valuation(sub.pres.element_order(x), p) for x in subgroup_elements(sub))
    return _invariants_from_order_counts(counts, p)


def _params(instances):
    return [pytest.param(pres, id=f"{eid}-{p}") for eid, p, pres in instances]


def _small_instances(limit=5 ** 5):
    return _params(i for i in catalog_instances((2, 3, 5)) if i[2].group_order() <= limit)


def _same(a, b):
    return (all(b.contains(u) for u in a.igs.values())
            and all(a.contains(u) for u in b.igs.values()))


def _forbid_enumeration(monkeypatch):
    def no_enumeration(*_):
        raise AssertionError("enumerated the group")

    monkeypatch.setattr(PcPresentation, "elements", no_enumeration)


class TestWholeGroup:
    @pytest.mark.parametrize("pres", _small_instances(limit=float("inf")))
    def test_unit_vectors_equal_the_generated_igs(self, pres):
        whole = Subgroup.whole(pres)
        assert whole == Subgroup.generate(pres, [pres.gen(i) for i in range(pres.ngens)])
        assert whole.order_exponent == pres.order_exponent


class TestCenterAgainstEnumeration:
    @pytest.mark.parametrize("pres", _small_instances())
    def test_catalog_entry(self, pres, monkeypatch, clear_memos):
        clear_memos()  # a memoized fact would skip the code under test
        _forbid_enumeration(monkeypatch)
        z = center(pres)
        upper = upper_central_series(pres)
        derived = derived_subgroup(pres)
        z_inv = z.abelian_invariants()
        d_inv = derived.abelian_invariants() if derived.is_abelian() else None
        monkeypatch.undo()

        assert _same(z, brute_center(pres))
        assert z_inv == brute_invariants(z)
        if d_inv is not None:
            assert d_inv == brute_invariants(derived)
        # the same series with the centre of each quotient by enumeration
        monkeypatch.setattr(pcgroup, "center", brute_center)
        reference = upper_central_series(pres)
        assert len(upper) == len(reference)
        assert all(_same(a, b) for a, b in zip(upper, reference))

    @pytest.mark.parametrize("p", [3, 5])
    def test_commutators_of_both_signs(self, p):
        """[b, a] = z and [b, c] = [c, b]^-1 = z^-1, so ac commutes with b
        and the centre is <ac, z>; a sign slip in [b, c] would put a c^-1
        there instead (no catalog entry tells them apart)."""
        pres = load_presentation("gen a p\ngen b p\ngen c p\ngen z p\n"
                                 "comm b a = z\ncomm c b = z", p)
        z = center(pres)
        assert _same(z, brute_center(pres))
        assert z.contains((1, 0, 1, 0)) and not z.contains((1, 0, p - 1, 0))


def brute_lower_central(pres):
    """gamma_{k+1} from the commutators of every element of gamma_k with the
    generators."""
    gens = [pres.gen(i) for i in range(pres.ngens)]
    series = [Subgroup.whole(pres)]
    while series[-1].order_exponent:
        comms = {pres.comm_el(x, g) for x in subgroup_elements(series[-1]) for g in gens}
        comms.discard(pres.identity)
        series.append(Subgroup.generate(pres, sorted(comms), normal=True))
    return series


def brute_be_outcome(pres, lower):
    """The first Blackburn-Evens precondition that fails, read off the
    elements of G and of G', or None when all hold."""
    p = pres.p
    if p == 2:
        return "even prime"
    if len(lower) - 1 != 2:
        return "wrong class"
    derived = lower[1]
    if not all(derived.contains(pres.pow_el(x, p)) for x in pres.elements()):
        return "quotient not elementary abelian"
    if any(pres.pow_el(x, p) != pres.identity for x in subgroup_elements(derived)):
        return "derived subgroup not elementary abelian"
    return None


def brute_meet_exponent(pres, K):
    """log_p |G' cap K| by testing every element of G' for membership in K."""
    count = sum(1 for x in subgroup_elements(derived_subgroup(pres)) if K.contains(x))
    return valuation(count, pres.p)


def _central_rule_bounds(pres, K):
    """Exponents of the divisibility upper bound and the transgression lower
    bound for central K, from an assumed premise and capability."""
    p = pres.p
    upper = Ledger()
    prem = upper.add("G/K", KIND_EXACT, p, exponent=50, provenance=Provenance.assumed("premise"))
    lower = Ledger()
    lprem = lower.add("G/K", KIND_EXACT, p, exponent=50, provenance=Provenance.assumed("premise"))
    lower.add("G", KIND_CAPABLE, p, provenance=Provenance.assumed("capable"))
    return (rule_jones(upper, "G", pres, K, lambda q: prem).exponent,
            rule_transgression_lower(lower, "G", pres, K, lambda q: lprem).exponent)


class TestStructureLayerWithoutEnumeration:
    """Structure reports, the Blackburn-Evens preconditions and the bound
    rules never enumerate G; their results match enumerated references."""

    @pytest.mark.parametrize("pres", _small_instances())
    def test_catalog_entry(self, pres, monkeypatch, clear_memos):
        clear_memos()
        _forbid_enumeration(monkeypatch)
        st = structure_report(pres)
        try:
            build_be_data(pres)
            be = None
        except BePreconditionError as exc:
            be = exc.reason
        kernels = [st.center] + ([st.derived] if st.derived.is_central() else [])
        kernels = [K for K in kernels if K.order_exponent]  # the rules refuse K = 1
        rules = [_central_rule_bounds(pres, K) for K in kernels]
        monkeypatch.undo()

        lower = st.lower_central
        if pres.group_order() <= 3 ** 5:  # |G| commutators per term
            reference = brute_lower_central(pres)
            assert len(lower) == len(reference)
            assert all(_same(a, b) for a, b in zip(lower, reference))
        assert _same(st.center, brute_center(pres))
        assert be == brute_be_outcome(pres, lower)
        monkeypatch.setattr(bounds, "_derived_meet_exponent", brute_meet_exponent)
        assert rules == [_central_rule_bounds(pres, K) for K in kernels]

    @pytest.mark.parametrize("eid,p", [("ESp_p3", 3), ("ESp_p3", 5), ("ESp_p3", 7),
                                       ("ESp2_p3", 3), ("ESp2_p3", 5), ("ESp2_p3", 7),
                                       ("D8", 2), ("Q8", 2)])
    def test_extraspecial_order_p3(self, catalog, eid, p, monkeypatch, clear_memos):
        pres = catalog.instantiate(eid, p)
        clear_memos()
        _forbid_enumeration(monkeypatch)
        led = Ledger()
        rule_extraspecial(led, eid, pres)
        monkeypatch.undo()

        # M is Z_2 for D8 (five involutions) and 1 for Q8 (one); at odd p it
        # is Z_p^2 for exponent p and 1 for exponent p^2
        [got] = led.facts
        orders = Counter(pres.element_order(x) for x in pres.elements())
        want = int(orders[2] > 1) if p == 2 else 2 * (max(orders) == p)
        assert (got.kind, got.exponent) == (KIND_EXACT, want)


class TestOneLowerSeries:
    """The lower central series starts from the stated commutator tails and
    is built once per presentation."""

    @pytest.mark.parametrize("pres", _params(catalog_instances((2, 3, 5, 7))))
    def test_derived_is_the_closure_of_generator_commutators(self, pres):
        comms = [pres.comm_el(pres.gen(j), pres.gen(i))
                 for j in range(pres.ngens) for i in range(j)]
        reference = Subgroup.generate(
            pres, [c for c in comms if c != pres.identity], normal=True)
        assert lower_central_series(pres)[1] == reference == derived_subgroup(pres)
        if not pres.comms:
            assert center(pres) == Subgroup.whole(pres)

    def test_auto_builds_each_series_once(self, catalog, computer, monkeypatch, clear_memos):
        # each step down the series is one normal closure, and nothing else
        # takes one, so a series built once per presentation takes one
        # closure per nontrivial term after G; the structure report after
        # the `auto` run reads the same series for its centre's N
        pres = catalog.instantiate("T6_ii", 5)
        clear_memos()
        closures = Counter()
        generate = Subgroup.generate.__func__

        def counted(cls, q, gens, normal=False):
            if normal:
                closures[q] += 1
            return generate(cls, q, gens, normal)

        monkeypatch.setattr(Subgroup, "generate", classmethod(counted))
        res = computer.compute("T6_ii", 5)
        structure_report(pres)
        monkeypatch.undo()
        assert "blackburn_evens" in [line.split(":")[0] for line in res.trace]
        assert closures[pres] == len(lower_central_series(pres)) - 1 > 0
        assert all(n == len(lower_central_series(q)) - 1 for q, n in closures.items())


def _reference_overlap_rows(pres):
    """The overlap family with every side evaluated from unit words as it
    is bracketed, nothing shared between overlaps; each row lhs - rhs as
    its nonzero (column, entry) pairs."""
    n = pres.ngens
    width = n + n * (n - 1) // 2

    def unit(i, e=1):
        v = [0] * n
        v[i] = e
        return tuple(v), [0] * width

    def power(i):  # g_i^{r_i} as its collected tail w_i carrying t_i
        tails = [int(k == i) for k in range(width)]
        return pres._collect_onto([0] * n, pres.powers[i], tails), tails

    def mul(x, y):
        (u, s), (v, t) = x, y
        acc = [a + b for a, b in zip(s, t)]
        return pres._collect_onto(list(u), pres.word_of(v), acc), acc

    def row(lhs, rhs):
        assert lhs[0] == rhs[0]
        return tuple((c, a - b) for c, (a, b) in enumerate(zip(lhs[1], rhs[1])) if a != b)

    rows = []
    for k in range(n):
        for j in range(k):
            for i in range(j):
                rows.append(row(mul(mul(unit(k), unit(j)), unit(i)),
                                mul(unit(k), mul(unit(j), unit(i)))))
    for j in range(n):
        for i in range(j):
            rows.append(row(mul(power(j), unit(i)),
                            mul(unit(j, pres.orders[j] - 1), mul(unit(j), unit(i)))))
            rows.append(row(mul(unit(j), power(i)),
                            mul(mul(unit(j), unit(i)), unit(i, pres.orders[i] - 1))))
    for i in range(n):
        rows.append(row(mul(unit(i), power(i)), mul(power(i), unit(i))))
    return tuple(rows)


class TestOverlapPass:
    """The overlap pass collects each g_j g_i once and shares it."""

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_rows_equal_the_unshared_reference(self, p):
        checked = 0
        for eid, _, pres in catalog_instances((p,)):
            assert check_consistency(pres) == _reference_overlap_rows(pres), eid
            checked += 1
        assert checked >= 20

    def test_rows_equal_the_reference_on_every_suite_presentation(self, monkeypatch,
                                                                  clear_memos):
        """Every presentation the suites certify, squeeze-replay quotients
        included, has the rows the unshared reference gives."""
        built = {}
        check = pcgroup.check_consistency

        def recorded(pres):
            built.setdefault(pres, pres)
            return check(pres)

        clear_memos()
        monkeypatch.setattr(pcgroup, "check_consistency", recorded)
        for p, part in ((2, "two"), (3, "odd"), (5, "odd"), (7, "odd")):
            verify_theorem(p, part)
        names = {pres.name for pres in built}
        assert {"Phi7_15/K", "Phi7_15/K/K"} <= names and len(built) >= 80
        for pres in built:
            assert pres._tail_rows == _reference_overlap_rows(pres), (pres.name, pres.p)

    def test_pass_collects_each_side_once(self, monkeypatch):
        """One pass makes one collector entry per shared side (n power tails,
        n(n-1)/2 pair products) and one per overlap side: a pass that
        collected a shared side again would make more."""
        pres = load_presentation(PHI7_15, 5)
        entries = []
        collect = PcPresentation._collect_onto

        def counted(self, a, letters, tails=None):
            entries.append(1)
            return collect(self, a, letters, tails)

        monkeypatch.setattr(PcPresentation, "_collect_onto", counted)
        rows = pcgroup.check_consistency.__wrapped__(pres)
        n = pres.ngens
        assert len(entries) == n + n * (n - 1) // 2 + 2 * len(rows) == 85

    def test_each_pair_product_collected_once(self, monkeypatch):
        pres = load_presentation(PHI7_15, 5)
        entries = Counter()
        collect = PcPresentation._collect_onto

        def counted(self, a, letters, tails=None):
            entries[tuple(a), tuple(letters)] += 1
            return collect(self, a, letters, tails)

        monkeypatch.setattr(PcPresentation, "_collect_onto", counted)
        list(pcgroup.overlaps(pres))
        for j in range(pres.ngens):
            for i in range(j):
                assert entries[pres.gen(j), ((i, 1),)] == 1, (j, i)


class TestMemoizedFacts:
    """Certification, the centre and G^ab are computed once per presentation;
    `check_consistency` itself still runs on every build."""

    def _counting(self, monkeypatch):
        calls = Counter()
        check, overlaps = pcgroup.check_consistency, pcgroup.overlaps

        def counted_check(pres):
            calls["check"] += 1
            return check(pres)

        def counted_overlaps(pres):
            calls["overlaps"] += 1
            return overlaps(pres)

        monkeypatch.setattr(pcgroup, "check_consistency", counted_check)
        monkeypatch.setattr(pcgroup, "overlaps", counted_overlaps)
        return calls

    def test_equal_presentation_runs_the_overlaps_once(self, monkeypatch, clear_memos):
        clear_memos()
        calls = self._counting(monkeypatch)
        a = load_presentation(PHI7_15, 5)
        b = load_presentation(PHI7_15, 5)
        assert a == b and a is not b
        assert calls == {"check": 2, "overlaps": 1}
        assert a._tail_rows == b._tail_rows == _reference_overlap_rows(b)

    def test_inconsistent_presentation_raises_on_every_build(self, monkeypatch):
        calls = self._counting(monkeypatch)
        for _ in range(3):
            with pytest.raises(InconsistentPresentation, match=r"power-right overlap on \(b, a\)"):
                PcPresentation(2, ("a", "b"), (2, 2), ((), ()), ((1, 0, ((1, 1),)),))
        assert calls == {"check": 3, "overlaps": 3}

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_memos_equal_their_wrapped_functions(self, p):
        for _, _, pres in catalog_instances((p,)):
            z, fresh = center(pres), center.__wrapped__(pres)
            assert z.igs == fresh.igs and z is center(pres)
            assert abelianization(pres) == abelianization.__wrapped__(pres)

    def test_repeated_suite_gives_the_same_reports(self, clear_memos):
        clear_memos()
        runs = [[{**r.as_record(), "millis": 0} for r in verify_theorem(3, "odd")]
                for _ in range(2)]
        assert runs[0] == runs[1]
        assert len(runs[0]) == 12 and all(r["status"] == "PASS" for r in runs[0])
