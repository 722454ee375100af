"""Ledger rules, consistency guards, and script replays."""

import re

import pytest

from multlab import bounds
from multlab.abelian import AbelianGroup
from multlab.bounds import (
    KIND_CAPABLE,
    KIND_EXACT,
    KIND_LOWER,
    KIND_UPPER,
    Ledger,
    LedgerError,
    MissingPremiseError,
    Provenance,
    ReplayAssertionError,
    ReplayResult,
    _resolve_subgroup,
    replay_script,
    rule_class_bound,
    rule_extraspecial,
    rule_green,
    rule_jones,
    rule_transgression_lower,
    squeeze_exact,
)
from multlab.compute import Computer
from multlab.dsl import load_presentation
from multlab.pcgroup import Subgroup, structure_report
from multlab.report import load_script, verify_entry

ES_P3 = "gen a p\ngen a1 p\ngen a2 p\ncomm a1 a = a2"
PHI3_14 = ("gen a p\ngen a1 p\ngen a2 p\ngen a3 p\npow a1 = a3^-cp3\n"
           "comm a1 a = a2\ncomm a2 a = a3")


class TestLedger:
    def test_bounds_must_nest(self):
        led = Ledger()
        led.add("G", KIND_LOWER, 3, exponent=4, provenance=Provenance.assumed("x"))
        with pytest.raises(LedgerError, match="exceeds"):
            led.add("G", KIND_UPPER, 3, exponent=3, provenance=Provenance.assumed("y"))

    def test_exact_in_range(self):
        led = Ledger()
        led.add("G", KIND_UPPER, 3, exponent=3, provenance=Provenance.assumed("x"))
        with pytest.raises(LedgerError, match="escapes"):
            led.add("G", KIND_EXACT, 3, exponent=5, provenance=Provenance.assumed("y"))

    def test_monotone_aggregates(self):
        led = Ledger()
        uppers, lowers = [], []
        for e_up, e_lo in [(10, 0), (8, 2), (9, 4), (7, 4)]:
            led.add("G", KIND_UPPER, 3, exponent=e_up, provenance=Provenance.assumed("u"))
            led.add("G", KIND_LOWER, 3, exponent=e_lo, provenance=Provenance.assumed("l"))
            uppers.append(led.best_upper("G").exponent)
            lowers.append(led.best_lower("G").exponent)
        assert uppers == sorted(uppers, reverse=True)
        assert lowers == sorted(lowers)

    def test_trace_replays_premises(self):
        led = Ledger()
        a = led.add("G", KIND_LOWER, 3, exponent=2, provenance=Provenance.assumed("a"))
        b = led.add("G", KIND_UPPER, 3, exponent=2, provenance=Provenance.assumed("b"))
        ex = squeeze_exact(led, "G", 3)
        chain = led.trace(ex)
        assert [f.fact_id for f in chain] == [a.fact_id, b.fact_id, ex.fact_id]


class TestRules:
    def test_green(self):
        led = Ledger()
        assert rule_green(led, "G", 3, 6).exponent == 15
        assert rule_green(led, "H", 3, 1).exponent == 0

    def test_green_plus_exact_gives_t6(self):
        led = Ledger()
        rule_green(led, "G", 3, 6)
        led.add("G", KIND_EXACT, 3, exponent=9,
                provenance=Provenance.computed("kunneth"))
        n, m = 6, led.exact("G").exponent
        assert n * (n - 1) // 2 - m == 6

    def test_jones_tight_on_es(self, computer):
        pres = load_presentation(ES_P3, 3)
        st = structure_report(pres)
        led = Ledger()
        prem = led.add("G/Z", KIND_EXACT, 3, exponent=1,
                       provenance=Provenance.computed("abelian"))
        fact = rule_jones(led, "G", pres, st.center, prem)
        assert fact.exponent == 2

    def test_jones_missing_premise(self):
        pres = load_presentation(ES_P3, 3)
        st = structure_report(pres)
        with pytest.raises(MissingPremiseError, match="M\\(G/K\\)"):
            rule_jones(Ledger(), "G", pres, st.center, None)

    def test_jones_on_whole_abelian_group(self):
        # K = G abelian reproduces exterior-square exactness
        pres = load_presentation("gen x p\ngen y p^2", 3)
        led = Ledger()
        prem = led.add("G/G", KIND_EXACT, 3, exponent=0,
                       provenance=Provenance.computed("abelian"))
        fact = rule_jones(led, "G", pres, Subgroup.whole(pres), prem)
        assert fact.exponent == 1  # |M(Z_p x Z_{p^2})| = p

    def test_jones_rejects_trivial_k(self):
        # K = 1 would turn an exact |M(G/1)| = |M(G)| into its own upper bound
        pres = load_presentation(ES_P3, 3)
        led = Ledger()
        prem = led.add("G/1", KIND_EXACT, 3, exponent=2,
                       provenance=Provenance.computed("tails"))
        with pytest.raises(LedgerError, match="K is trivial"):
            rule_jones(led, "G", pres, Subgroup.trivial(pres), prem)

    def test_class_bound_es(self, computer):
        pres = load_presentation(ES_P3, 3)
        led = Ledger()
        prem = led.add("Q", KIND_EXACT, 3, exponent=1,
                       provenance=Provenance.computed("abelian"))
        assert rule_class_bound(led, "G", pres, prem).exponent == 2

    def test_class_bound_needs_class_2(self):
        pres = load_presentation("gen a p\ngen b p", 3)
        with pytest.raises(LedgerError, match="class"):
            rule_class_bound(Ledger(), "G", pres,
                             Ledger().add("Q", KIND_EXACT, 3, exponent=0,
                                          provenance=Provenance.assumed("c")))

    def test_class_bound_phi3_14(self, computer):
        # premise |M(G/gamma_3)| computed by the oracle at order 27
        pres = load_presentation(PHI3_14, 3)
        st = structure_report(pres)
        from multlab.pcgroup import central_quotient
        quot = central_quotient(pres, st.lower_central[2])
        led = Ledger()
        res = computer.compute(quot)
        prem = led.add("Q", KIND_EXACT, 3, exponent=res.order_exponent,
                       provenance=Provenance.computed(res.method))
        fact = rule_class_bound(led, "G", pres, prem)
        assert fact.exponent == 3  # true but not tight (exact is p^2)

    def test_extraspecial_cases(self):
        for text, p, want in [
            (ES_P3, 3, 2),
            ("gen a p\ngen a1 p\ngen a2 p\npow a = a2\ncomm a1 a = a2", 3, 0),
            ("gen a 2\ngen b 4\ncomm b a = b^2", 2, 1),              # dihedral
            ("gen b 2\ngen a 4\npow b = a^2\ncomm a b = a^2", 2, 0),  # quaternion
        ]:
            led = Ledger()
            fact = rule_extraspecial(led, "G", load_presentation(text, p))
            assert fact.exponent == want
        led = Ledger()
        big = load_presentation(
            "gen a1 p\ngen a2 p\ngen a3 p\ngen a4 p\ngen b p\n"
            "comm a2 a1 = b\ncomm a4 a3 = b", 3)
        assert rule_extraspecial(led, "G", big).exponent == 5

    def test_extraspecial_rejects_phi3(self):
        with pytest.raises(LedgerError, match="extraspecial"):
            rule_extraspecial(Ledger(), "G", load_presentation(PHI3_14, 3))

    def test_transgression_refuses_without_capability(self, catalog):
        pres = catalog.instantiate("Phi7_15", 3)
        st = structure_report(pres)
        led = Ledger()
        prem = led.add("Q", KIND_EXACT, 3, exponent=4,
                       provenance=Provenance.computed("kunneth"))
        with pytest.raises(MissingPremiseError, match="capab"):
            rule_transgression_lower(led, "G", pres, st.center, None, prem)

    def test_transgression_es_with_assumed_capability(self):
        pres = load_presentation(ES_P3, 3)
        st = structure_report(pres)
        led = Ledger()
        cap = led.add("G", KIND_CAPABLE, 3, provenance=Provenance.assumed("cap"))
        prem = led.add("Q", KIND_EXACT, 3, exponent=1,
                       provenance=Provenance.computed("abelian"))
        fact = rule_transgression_lower(led, "G", pres, st.center, cap, prem)
        assert fact.exponent == 1  # valid lower bound below the exact p^2

    def test_transgression_rejects_trivial_z(self):
        # Z = 1 would claim |M(G)| > |M(G)|: p^3 for ESp_p3, whose M is p^2
        pres = load_presentation(ES_P3, 3)
        led = Ledger()
        cap = led.add("G", KIND_CAPABLE, 3, provenance=Provenance.assumed("cap"))
        prem = led.add("G/1", KIND_EXACT, 3, exponent=2,
                       provenance=Provenance.computed("tails"))
        with pytest.raises(LedgerError, match="Z is trivial"):
            rule_transgression_lower(led, "G", pres, Subgroup.trivial(pres), cap, prem)


class TestReplay:
    def test_phi7_squeeze(self, computer):
        res = replay_script(load_script("phi7_15_squeeze.script"), 3, computer)
        exact = res.final_exact()
        assert exact is not None and exact.exponent == 4
        assert len(res.assumed_bounds()) == 1
        assert len(res.assumed_capabilities()) == 1
        # the derivation trace of the exact fact contains exactly one
        # assumed order fact
        chain = res.ledger.trace(exact)
        assumed_orders = [f for f in chain if f.provenance.tag == "assumed"
                          and f.kind != KIND_CAPABLE]
        assert len(assumed_orders) == 1

    def test_es_class_bound_script(self, computer):
        res = replay_script(load_script("es_p3_class_bound.script"), 3, computer)
        assert res.final_exact().exponent == 2
        assert not res.assumed

    def test_jones_script(self, computer):
        res = replay_script(load_script("phi2_2111c_jones.script"), 3, computer)
        assert res.ledger.best_upper("T6_viii").exponent == 5
        assert res.final_exact().exponent == 4
        assert not res.assumed

    def test_jones_script_at_p5_records_the_cited_factor(self, computer):
        # at p = 5 the Kunneth value of T6_viii uses M(Phi2_211c), once a
        # cited value and now computed by tails: the replay assumes nothing
        res = replay_script(load_script("phi2_2111c_jones.script"), 5, computer)
        assert res.final_exact().exponent == 4
        assert res.assumed_bounds() == [] and not res.assumed
        assert all(f.provenance.tag != "assumed" for f in res.ledger.facts)

    def test_deliberate_failure_names_step(self, computer):
        with pytest.raises(ReplayAssertionError) as exc:
            replay_script(load_script("d8_wrong_upper.script"), 2, computer)
        assert "expect upper p^1" in str(exc.value)
        assert "p^3" in str(exc.value)

    def test_unreachable_group_fails_its_step(self, computer):
        # Phi2_22 at p = 5: order 625 is above the oracle cap and no other
        # method applies, so this step once failed; tails computes it
        res = replay_script("use Phi2_22\ncompute\nexpect exact p^1", 5, computer)
        [fact] = res.ledger.facts
        assert fact.exponent == 1 and fact.provenance == Provenance.computed("tails")
        assert not res.assumed

    def test_cited_value_reaches_compute_step(self, catalog, computer):
        # Phi2_31 at p = 5 once rested on a cited value; the replay's compute
        # step and `verify_entry` (and so `multlab compute`) now agree on the
        # value tails computes, with nothing assumed
        res = replay_script("use Phi2_31\ncompute\nexpect exact 1", 5, computer)
        [fact] = res.ledger.facts
        assert fact.exponent == 0 and fact.provenance == Provenance.computed("tails")
        assert not res.assumed
        report = verify_entry(computer, "Phi2_31", 5)
        assert (report.status, report.method, report.assumed, report.multiplier) == \
            ("PASS", "tails", [], [])

    def test_wrong_order_value_fails(self, computer):
        script = "use ESp_p3\napply class_bound\nexpect upper p^9"
        with pytest.raises(ReplayAssertionError, match="p\\^2"):
            replay_script(script, 3, computer)

    @pytest.mark.parametrize("verb, citation, comment", [
        ("upper p^4", 'Thm "3.1" of MRR', ""),
        ("capable", 'Thm "3.1" of MRR', ""),
        ("upper p^4", "MRR #3.1", ""),
        ("upper p^4", 'Thm "3.1" of MRR #2', '  # see "MRR"'),
    ], ids=["upper p^4", "capable", "hash", "hash-and-comment"])
    def test_citation_may_hold_quotes(self, computer, verb, citation, comment):
        res = replay_script(f'use ESp_p3\nassume {verb} "{citation}"{comment}', 3, computer)
        [fact] = res.assumed
        assert fact.provenance.citation == citation
        assert res.trace[-1].endswith(f'[assumed "{citation}"]')

    @pytest.mark.parametrize("line", ["expect upper 9", "expect upper p^x",
                                      "assume upper 9 \"c\"", "assume upper p^2"])
    def test_malformed_step_names_its_step(self, computer, line):
        with pytest.raises(ReplayAssertionError, match=re.escape(f"step 2 ({line!r})")):
            replay_script(f"use ESp_p3\n{line}", 3, computer)

    @pytest.mark.parametrize("line, message", [
        ("apply jones derived", "key=value"),
        ("apply jones K=gammaX", "'gammaX' is not one of gamma1 ... gamma3"),
        ("apply jones K=gamma0", "'gamma0' is not one of gamma1 ... gamma3"),
        ("apply jones K=gamma4", "'gamma4' is not one of gamma1 ... gamma3"),
        ("apply jones K=gamma1", "gamma1 is not central"),
        ("apply transgression Z=gamma1", "gamma1 is not central"),
        ("apply jones K=gamma3", "K is trivial"),
        ('assume capable "x"\napply transgression Z=gamma3', "Z is trivial"),
    ])
    def test_bad_rule_argument_names_its_step(self, computer, line, message):
        # T6_viii has class 2: gamma1 ... gamma3 = 1; a line may follow others
        *before, last = line.split("\n")
        with pytest.raises(ReplayAssertionError) as exc:
            replay_script(f"use T6_viii\n{line}", 3, computer)
        assert str(exc.value).startswith(f"step {len(before) + 2} ({last!r}): ")
        assert message in str(exc.value)

    @pytest.mark.parametrize("line, key", [
        ("apply jones K=gamma3", "K"),
        ('assume capable "x"\napply transgression Z=gamma3', "Z"),
    ])
    def test_trivial_subgroup_is_refused_before_any_quotient(self, computer, monkeypatch,
                                                              line, key):
        # the quotient by a trivial K is the whole group: refusing K must
        # come before its multiplier is computed
        computed = []

        def compute(pres):
            computed.append(pres)
            raise AssertionError("computed a quotient's multiplier")

        monkeypatch.setattr(computer, "compute", compute)
        with pytest.raises(ReplayAssertionError, match=f"{key} is trivial"):
            replay_script(f"use T6_viii\n{line}", 3, computer)
        assert computed == []

    @pytest.mark.parametrize("line, message", [
        ("apply green K=nonsense", "green takes no arguments, got K"),
        ("apply class_bound Q=junk", "class_bound takes no arguments, got Q"),
        ("apply extraspecial K=center", "extraspecial takes no arguments, got K"),
        ("apply jones Q=center", "jones takes K, got Q"),
        ("apply jones", "jones takes K, got none"),
        ("apply jones K=center Q=junk", "jones takes K, got K Q"),
        ("apply jones K=center K=derived", "jones takes K, got K K"),
        ("apply transgression", "transgression takes Z, got none"),
        ("apply transgression K=center", "transgression takes Z, got K"),
        ("apply", "apply takes a rule: green, extraspecial, class_bound, jones, transgression"),
    ], ids=["green-unknown", "class_bound-unknown", "extraspecial-unknown",
            "jones-unknown", "jones-missing", "jones-extra", "jones-repeated",
            "transgression-missing", "transgression-unknown", "no-rule"])
    def test_rule_keys_are_checked(self, computer, line, message):
        script = f"use ESp_p3\n{line}\nexpect upper p^2"
        with pytest.raises(ReplayAssertionError) as exc:
            replay_script(script, 3, computer)
        assert str(exc.value) == f"step 2 ({line!r}): {message}"

    @pytest.mark.parametrize("script, line, message", [
        ("use ESp_p3 Phi7_15\ncompute", "use ESp_p3 Phi7_15",
         "use takes group, got ESp_p3 Phi7_15"),
        ("use ESp_p3\ncompute now please", "compute now please",
         "compute takes no arguments, got now please"),
        ("use ESp_p3\ncompute\nexpect upper p^2 junk", "expect upper p^2 junk",
         "expect takes kind order, got upper p^2 junk"),
        ('use ESp_p3\nassume upper p^4 junk "c"', 'assume upper p^4 junk "c"',
         "assume takes <upper|lower|exact> <order> or capable before the citation, "
         "got upper p^4 junk"),
        ('use ESp_p3\nassume capable p^9 "c"', 'assume capable p^9 "c"',
         "assume takes <upper|lower|exact> <order> or capable before the citation, "
         "got capable p^9"),
        ('use ESp_p3\nassume upper "c"', 'assume upper "c"',
         "assume takes <upper|lower|exact> <order> or capable before the citation, "
         "got upper"),
        ('use ESp_p3\nassume bogus p^2 "c"', 'assume bogus p^2 "c"',
         "unknown assumption kind 'bogus'"),
        ('use ESp_p3\nassume upper p^4 "c" junk', 'assume upper p^4 "c" junk',
         "only a comment may follow the closing quote of a citation"),
        ('use ESp_p3\nassume upper p^4 "c" junk # note', 'assume upper p^4 "c" junk # note',
         "only a comment may follow the closing quote of a citation"),
        ('use ESp_p3\nassume upper p^4 "c', 'assume upper p^4 "c',
         "only a comment may follow the closing quote of a citation"),
        ('use ESp_p3\nassume upper p^4 "MRR "#3.1""', 'assume upper p^4 "MRR "#3.1""',
         'a citation\'s "# is ambiguous when a later " follows'),
    ], ids=["use", "compute", "expect", "assume-extra", "assume-capable-order",
            "assume-missing-order", "assume-unknown-kind", "assume-after-citation",
            "assume-after-citation-commented", "assume-unclosed-citation",
            "assume-ambiguous-hash"])
    def test_extra_tokens_are_rejected(self, computer, script, line, message):
        with pytest.raises(ReplayAssertionError) as exc:
            replay_script(script, 3, computer)
        step = script.splitlines().index(line) + 1
        assert str(exc.value) == f"step {step} ({line!r}): {message}"

    def test_repeated_expect_exact_squeezes_once(self, computer):
        script = ('use ESp_p3\nassume lower p^2 "l"\nassume upper p^2 "u"\n'
                  "expect exact p^2\nexpect exact p^2")
        res = replay_script(script, 3, computer)
        assert [f.describe() for f in res.ledger.facts[2:]] == [
            "F2 ESp_p3: exact-order p^2 [rule squeeze <- [0, 1]]"]
        assert res.trace[-3:] == ["F2 ESp_p3: exact-order p^2 [rule squeeze <- [0, 1]]",
                                  "expect exact p^2: OK", "expect exact p^2: OK"]

    def test_last_lower_central_term_is_accepted(self, computer):
        # gamma3 = 1 of ESp_p3 is a valid spec, which jones then refuses as trivial
        pres = computer.catalog.instantiate("ESp_p3", 3)
        assert _resolve_subgroup(pres, "gamma3") == Subgroup.trivial(pres)
        with pytest.raises(ReplayAssertionError, match="step 2 .*: K is trivial"):
            replay_script("use ESp_p3\napply jones K=gamma3", 3, computer)

    def test_generator_spec_builds_no_structure_report(self, computer, monkeypatch):
        pres = computer.catalog.instantiate("ESp_p3", 3)

        def refuse(_):
            raise AssertionError("structure_report called")

        monkeypatch.setattr(bounds, "structure_report", refuse)
        got = _resolve_subgroup(pres, "gens:a1,a2")
        assert got == Subgroup.generate(pres, [pres.gen(1), pres.gen(2)])
        with pytest.raises(AssertionError, match="structure_report called"):
            _resolve_subgroup(pres, "center")

    def test_assumed_facts_are_read_off_the_ledger(self):
        led = Ledger()
        cap = led.add("G", KIND_CAPABLE, 3, provenance=Provenance.assumed("c"))
        led.add("G/Z", KIND_EXACT, 3, exponent=1, provenance=Provenance.computed("abelian"))
        up = led.add("G", KIND_UPPER, 3, exponent=4, provenance=Provenance.assumed("u"))
        res = ReplayResult("G", led, [])
        assert res.assumed == [cap, up]
        assert (res.assumed_bounds(), res.assumed_capabilities()) == ([up], [cap])
        assert led.for_subject("G") == [cap, up]

    def test_replay_is_deterministic(self, computer):
        first = replay_script(load_script("phi7_15_squeeze.script"), 3, computer)
        second = replay_script(load_script("phi7_15_squeeze.script"), 3, computer)
        assert first.trace == second.trace
        assert [f.describe() for f in first.ledger.facts] == \
            [f.describe() for f in second.ledger.facts]
