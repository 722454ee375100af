"""Acceptance suite: one test per criterion, each printing a PASS line.

Runtime limits are asserted with time.monotonic; tolerances are exact
invariant-list equality throughout.
"""

import time

import pytest

from multlab.abelian import AbelianGroup
from multlab.blackburn_evens import BePreconditionError, build_be_data, multiplier_via_be
from multlab.bounds import KIND_CAPABLE, ReplayAssertionError, replay_script
from multlab.compute import Computer
from multlab.entries import Catalog
from multlab.oracle import abelianization_from_table, h2_trivial_coeffs, multiplier_via_oracle
from multlab.pcgroup import cayley_table, multiplier_via_tails
from multlab.report import (
    load_script,
    run_table24,
    verify_theorem,
)
from multlab.results import METHOD_KUNNETH, METHOD_ORACLE


def _announce(criterion, detail):
    print(f"\n[criterion {criterion}] PASS: {detail}")


TABLE24_EXPECT = {
    "Phi2_211a": [3, 3],
    "Phi2_14": [3, 3, 3, 3],
    "Phi2_31": [],
    "Phi2_22": [3],
    "Phi2_211b": [3, 3],
    "Phi2_211c": [3, 3],
    "Phi3_211a": [3],
    "Phi3_211b1": [3],
    "Phi3_14": [3, 3],
}


class TestAcceptance:
    def test_criterion_1_table24(self):
        start = time.monotonic()
        reports = run_table24(3)
        elapsed = time.monotonic() - start
        assert len(reports) == 9
        by_group = {r.group: r for r in reports}
        for gid, want in TABLE24_EXPECT.items():
            r = by_group[gid]
            assert r.method == METHOD_ORACLE, (gid, r.method)
            assert r.status == "PASS", (gid, r.status, r.trace)
            want_g = AbelianGroup.from_orders(want)
            assert r.multiplier == [
                f"{want_g.p}^{e}" if e > 1 else f"{want_g.p}"
                for e in want_g.exponents], (gid, r.multiplier)
        # the second maximal-class parameter value also reproduces the table
        cat = Catalog.bundled()
        comp = Computer(cat)
        res = comp.compute("Phi3_211bnu", 3, method=METHOD_ORACLE)
        assert res.invariants == AbelianGroup.cyclic(3)
        assert elapsed < 60, f"table24 took {elapsed:.1f}s"
        _announce(1, f"nine order-81 groups match the table via the oracle "
                     f"({elapsed:.1f}s < 60s)")

    @pytest.mark.parametrize("p", [5, 7])
    def test_table24_above_the_oracle_cap(self, p):
        # order p^4 exceeds the oracle's cap, so `auto` chooses the methods;
        # every invariant in the table has order p
        reports = run_table24(p)
        assert [r.group for r in reports] == list(TABLE24_EXPECT)
        for r in reports:
            assert r.status == "PASS", (r.group, r.status, r.trace)
            assert r.method != METHOD_ORACLE, r.group
            assert r.multiplier == [str(p)] * len(TABLE24_EXPECT[r.group]), r.group

    def test_criterion_2_extraspecial(self, catalog):
        start = time.monotonic()
        p = 3
        es27 = catalog.instantiate("ESp_p3", p)
        es27e9 = catalog.instantiate("ESp2_p3", p)
        assert multiplier_via_be(es27).invariants == AbelianGroup.elementary(p, 2)
        assert multiplier_via_be(es27e9).invariants.is_trivial
        # oracle cross-checks the order-27 cases
        assert multiplier_via_oracle(es27).invariants == AbelianGroup.elementary(p, 2)
        assert multiplier_via_oracle(es27e9).invariants.is_trivial
        for eid in ("ESp_p5", "ESp2_p5"):
            res = multiplier_via_be(catalog.instantiate(eid, p))
            assert res.order_exponent == 5, (eid, res.order_exponent)
        elapsed = time.monotonic() - start
        assert elapsed < 10, f"extraspecial suite took {elapsed:.1f}s"
        _announce(2, f"extraspecial multipliers p^2, 1, p^5, p^5 at p=3 "
                     f"({elapsed:.1f}s < 10s)")

    def test_criterion_3_odd_part_p3(self):
        start = time.monotonic()
        reports = verify_theorem(3, "odd")
        elapsed = time.monotonic() - start
        by_group = {r.group: r for r in reports}
        # n = 6 entries carry |M| = p^9
        for part in ("ii", "iii", "iv", "v", "vi", "vii"):
            r = by_group[f"T6_{part}"]
            assert (r.n, r.t, r.status) == (6, 6, "PASS"), (part, r)
        # n = 5 computed entries carry |M| = p^4
        for part in ("viii", "ix", "x"):
            r = by_group[f"T6_{part}"]
            assert (r.n, r.t, r.status) == (5, 6, "PASS"), (part, r)
        r = by_group["T6_xii"]
        assert (r.n, r.t, r.status) == (4, 6, "PASS")
        assert r.multiplier == []
        r = by_group["T6_i"]
        assert (r.n, r.t, r.status) == (8, 6, "PASS")
        assert sum(1 for _ in r.multiplier) == 22
        # the order-p^5 maximal-class entry is computed by tails; its bound
        # squeeze still replays, as a cross-check of the order, in the trace
        r = by_group["T6_xi"]
        assert (r.n, r.t, r.status, r.method) == (5, 6, "PASS", "tails")
        assert r.multiplier == ["3", "3", "3", "3"]
        assert any("transgression" in line and "p^4" in line for line in r.trace)
        assert all(r.status == "PASS" and r.assumed == [] for r in reports)
        assert elapsed < 300, f"odd part took {elapsed:.1f}s"
        _announce(3, f"odd part at p=3: 12 computed PASS, none assumed "
                     f"({elapsed:.1f}s < 5min)")

    def test_criterion_4_odd_spot_p5(self):
        start = time.monotonic()
        reports = verify_theorem(5, "odd", entry_ids=("T6_ii", "T6_ix", "T6_xii"))
        elapsed = time.monotonic() - start
        by_group = {r.group: r for r in reports}
        assert by_group["T6_ii"].status == "PASS" and by_group["T6_ii"].t == 6
        assert by_group["T6_ix"].status == "PASS" and by_group["T6_ix"].t == 6
        # the order-p^4 entry is not a product and the tensor construction
        # does not apply (its quotient is non-elementary), so at p = 5 only
        # tails reaches it
        r = by_group["T6_xii"]
        assert (r.t, r.status, r.method, r.assumed) == (6, "PASS", "tails", [])
        assert elapsed < 60, f"p=5 spot check took {elapsed:.1f}s"
        _announce(4, f"p=5 spot checks (ii), (ix), (xii) computed "
                     f"({elapsed:.1f}s < 60s)")

    def test_criterion_4_t6_i_at_p5(self):
        # the order-p^8 entry, once out of reach of the whole-group centre
        [r] = verify_theorem(5, "odd", entry_ids=("T6_i",))
        assert (r.n, r.t, r.status) == (8, 6, "PASS"), r
        _announce(4, "T6_i at p=5 computed")

    def test_criterion_4_odd_part_p7(self):
        reports = verify_theorem(7, "odd")
        assert len(reports) == 12
        for r in reports:
            assert r.t == 6 and r.status == "PASS" and r.assumed == [], r
        _announce(4, "odd part at p=7: 12 computed entries with t = 6")

    def test_criterion_5_two_part(self):
        start = time.monotonic()
        reports = verify_theorem(2, "two")
        elapsed = time.monotonic() - start
        by_group = {r.group: r for r in reports}
        for part in ("xxi", "xxii", "xxiii"):
            r = by_group[f"T6_{part}"]
            assert (r.n, r.multiplier, r.t, r.status) == (4, [], 6, "PASS"), part
        for part in ("xx", "xxiv"):  # the order-32 entries
            r = by_group[f"T6_{part}"]
            assert r.n == 5 and r.t == 6 and r.status == "PASS"
            assert sum(int(f.split("^")[-1]) if "^" in f else 1
                       for f in r.multiplier) == 4, part
        for part in ("xiv", "xv", "xvi", "xvii", "xviii"):  # order 64
            r = by_group[f"T6_{part}"]
            assert r.n == 6 and r.t == 6 and r.status == "PASS"
        assert by_group["T6_xiv"].method == METHOD_ORACLE
        r13 = by_group["T6_xiii"]  # order 128 via the product identity
        assert (r13.n, r13.t, r13.status) == (7, 6, "PASS")
        assert r13.method == METHOD_KUNNETH
        assert len(r13.multiplier) == 15
        assert by_group["T6_xix"].status == "DISABLED"
        assert all(r.assumed == [] for r in reports)
        assert elapsed < 600, f"p=2 part took {elapsed:.1f}s"
        _announce(5, f"p=2 part: 11 PASS + (xix) disabled ({elapsed:.1f}s < 10min)")

    def test_criterion_6_cross_method_agreement(self, catalog, computer):
        start = time.monotonic()
        be_oracle = 0
        for eid in catalog.ids():
            entry = catalog[eid]
            if entry.is_disabled or not entry.allows(3):
                continue
            pres = catalog.instantiate(eid, 3)
            if pres.group_order() > 81:
                continue
            try:
                build_be_data(pres)
            except BePreconditionError:
                continue
            be = multiplier_via_be(pres)
            orc = multiplier_via_oracle(pres)
            assert be.invariants == orc.invariants, (eid, be.invariants, orc.invariants)
            be_oracle += 1
        assert be_oracle >= 5
        kunneth_oracle = 0
        for eid in catalog.ids():
            entry = catalog[eid]
            recipe = catalog.resolve_recipe(eid)
            if entry.is_disabled or not recipe.is_product:
                continue
            for p in (2, 3):
                if not entry.allows(p):
                    continue
                pres = catalog.instantiate(eid, p)
                if pres.group_order() > 64:
                    continue
                kun = computer.via_kunneth(entry, p)
                orc = multiplier_via_oracle(pres)
                assert kun.invariants == orc.invariants, (eid, p)
                kunneth_oracle += 1
        assert kunneth_oracle >= 4
        # the oracle checks tails on every small catalog group, including
        # those that `auto` no longer sends to it
        tails_oracle = 0
        for eid in catalog.ids():
            entry = catalog[eid]
            for p, cap in ((2, 64), (3, 81)):
                if entry.is_disabled or not entry.allows(p):
                    continue
                pres = catalog.instantiate(eid, p)
                if pres.group_order() > cap:
                    continue
                tails = multiplier_via_tails(pres)
                orc = multiplier_via_oracle(pres)
                assert tails.invariants == orc.invariants, (eid, p)
                tails_oracle += 1
        assert tails_oracle >= 35
        elapsed = time.monotonic() - start
        _announce(6, f"{be_oracle} tensor/oracle, {kunneth_oracle} product/oracle "
                     f"and {tails_oracle} tails/oracle agreements, zero tolerance "
                     f"({elapsed:.1f}s)")

    def test_criterion_7_oracle_self_identity(self, catalog, computer):
        start = time.monotonic()
        checked = 0
        for eid in catalog.ids():
            entry = catalog[eid]
            if entry.is_disabled:
                continue
            for p in ((2,) if entry.constraint == "two" else
                      (3,) if entry.constraint == "odd" else (2, 3)):
                if not entry.allows(p):
                    continue
                pres = catalog.instantiate(eid, p)
                n = pres.group_order()
                if n > 64 or n == 1:
                    continue
                table = cayley_table(pres)
                h2 = h2_trivial_coeffs(table, n)
                gab = abelianization_from_table(table, p)
                # cross-method |M| where a non-oracle method applies
                methods, _ = computer.applicable(pres, entry)
                non_oracle = [m for m in methods if m != METHOD_ORACLE]
                if non_oracle:
                    m_exp = computer._run(non_oracle[0], pres, entry).order_exponent
                else:
                    m_exp = multiplier_via_oracle(pres).order_exponent
                assert h2.invariants.order_exponent(p) == \
                    m_exp + gab.order_exponent(p), (eid, p)
                checked += 1
        assert checked >= 15
        elapsed = time.monotonic() - start
        _announce(7, f"|H^2| = |M| * |G^ab| exact on {checked} groups of "
                     f"order <= 64 ({elapsed:.1f}s)")

    def test_criterion_8_bound_replays(self, computer):
        es = replay_script(load_script("es_p3_class_bound.script"), 3, computer)
        assert es.ledger.best_upper("ESp_p3").exponent == 2
        assert es.final_exact().exponent == 2
        assert not es.assumed
        jn = replay_script(load_script("phi2_2111c_jones.script"), 3, computer)
        assert jn.ledger.best_upper("T6_viii").exponent == 5          # valid
        assert jn.ledger.best_upper("T6_viii").exponent >= 4          # >= exact
        assert jn.final_exact().exponent == 4
        sq = replay_script(load_script("phi7_15_squeeze.script"), 3, computer)
        exact = sq.final_exact()
        assert exact.exponent == 4
        chain = sq.ledger.trace(exact)
        assumed_orders = [f for f in chain if f.provenance.tag == "assumed"
                          and f.kind != KIND_CAPABLE]
        assert len(assumed_orders) == 1
        with pytest.raises(ReplayAssertionError) as err:
            replay_script(load_script("d8_wrong_upper.script"), 2, computer)
        assert "expect upper p^1" in str(err.value)
        _announce(8, "class-bound tight, divisibility upper valid, squeeze "
                     "exact with one assumed bound, deliberate failure caught")

    def test_criterion_9_property_suites(self):
        import subprocess
        import sys
        from pathlib import Path
        suite = Path(__file__).with_name("test_properties.py")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "--no-header",
             "-p", "no:cacheprovider", str(suite)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        _announce(9, "six property suites, >= 200 cases each, zero failures")
