"""Catalog integrity, method auto-selection, suites, and report formats."""

import json
import re

import pytest

from multlab import pcgroup
from multlab.abelian import AbelianGroup, exterior_square
from multlab.compute import Computer, compute_t
from multlab.dsl import DslError
from multlab.entries import (
    Catalog,
    CatalogError,
    ConstraintError,
    load_group_dsl,
    parse_entry,
)
from multlab.pcgroup import abelianization, check_consistency, direct_product
from multlab.report import (
    ODD_PART,
    TWO_PART,
    Report,
    emit_report,
    parse_report_jsonl,
    verify_entry,
    verify_theorem,
)
from multlab.results import (
    METHOD_ABELIAN,
    METHOD_BE,
    METHOD_KUNNETH,
    METHOD_ORACLE,
    METHOD_TAILS,
    MultiplierResult,
)


def _primes_for(entry):
    if entry.constraint == "two":
        return (2,)
    if entry.constraint == "odd":
        return (3, 5)
    return (2, 3, 5)


class TestCatalogIntegrity:
    def test_every_entry_consistent_at_two_primes(self, catalog):
        for eid in catalog.ids():
            entry = catalog[eid]
            if entry.is_disabled:
                continue
            for p in _primes_for(entry)[:2]:
                check_consistency(catalog.instantiate(eid, p))  # raises on a failing overlap

    @pytest.mark.parametrize("eid,p,want", [
        ("Phi2_14", 3, ["ESp_p3", "Zp", "Phi2_14"]),
        ("T6_i", 3, ["ESp_p3", "Zp", "T6_i"]),  # ESp_p3 x Zp^5
    ])
    def test_product_entry_certified_once(self, monkeypatch, eid, p, want):
        # each distinct factor once, then the product itself under its entry
        # id: no intermediate product is built
        real = pcgroup.check_consistency
        checked = []
        monkeypatch.setattr(pcgroup, "check_consistency",
                            lambda pres: checked.append(pres.name) or real(pres))
        pres = Catalog.bundled().instantiate(eid, p)
        assert pres.name == eid
        assert checked == want

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_product_entry_is_the_pairwise_chain(self, catalog, p):
        checked = 0
        for eid in catalog.ids():
            recipe = catalog.resolve_recipe(eid)
            entry = catalog[eid]
            if not recipe.is_product or entry.is_disabled or not entry.allows(p):
                continue
            parts = [catalog.instantiate(fid, p) for fid in recipe.factors]
            chain = parts[0]
            for q in parts[1:-1]:
                chain = direct_product(chain, q)
            chain = direct_product(chain, parts[-1], name=eid)
            pres = catalog.instantiate(eid, p)
            assert (pres, pres.names, pres.name) == (chain, chain.names, chain.name), eid
            checked += 1
        assert checked >= 4

    def test_bundled_references_name_bundled_entries(self, catalog):
        # a user-built catalog may name a missing factor (a FAIL record, see
        # test_bad_factor_reference_is_a_fail_record); the bundled one never does
        ids = set(catalog.ids())
        products = aliases = 0
        for eid in catalog.ids():
            entry = catalog[eid]
            assert set(entry.factors) <= ids, (eid, set(entry.factors) - ids)
            assert entry.alias_of is None or entry.alias_of in ids, (eid, entry.alias_of)
            products += entry.is_product
            aliases += entry.alias_of is not None
        assert products >= 4 and aliases >= 6

    def test_one_factor_product_rejected(self):
        with pytest.raises(CatalogError, match="two factors"):
            parse_entry("name P\nproduct Zp")

    def test_constraint_violations(self, catalog):
        with pytest.raises(ConstraintError):
            catalog.instantiate("ESp_p3", 2)
        with pytest.raises(ConstraintError):
            catalog.instantiate("D8", 3)
        with pytest.raises(ConstraintError):
            catalog.instantiate("Zp", 4)

    def test_disabled_entry_rejected(self, catalog):
        with pytest.raises(CatalogError, match="disabled"):
            catalog.instantiate("T6_xix", 2)

    def test_unknown_entry(self, catalog):
        with pytest.raises(CatalogError, match="no catalog entry"):
            catalog.instantiate("Phi99", 3)

    def test_xiv_order_determined_by_checker(self, catalog):
        # no order is declared for this entry; consistency certifies 2^6
        pres = catalog.instantiate("T6_xiv", 2)
        assert pres.order_exponent == 6

    def test_xvi_core_order_determined_by_checker(self, catalog):
        assert catalog.instantiate("T6_xvi_core", 2).order_exponent == 5

    def test_parts_cover_the_classification(self, catalog):
        assert len(ODD_PART) == 12 and len(TWO_PART) == 12
        for eid in ODD_PART + TWO_PART:
            assert eid in catalog.entries


class TestLoadGroupDsl:
    def test_catalog_file_error_names_the_file_line(self):
        text = "name Bad\nconstraint any\n# header above\ngen a p\ngen b p\npow c = b\n"
        entry = parse_entry(text)
        with pytest.raises(CatalogError, match="line 6: unknown generator 'c'"):
            Catalog({entry.entry_id: entry}).instantiate("Bad", 3)

    def test_malformed_order_expectation(self):
        with pytest.raises(CatalogError, match="line 3: order values are written 1 or p\\^E"):
            parse_entry('name Z\ngen a p\nexpect order p^x "s"\n')

    @pytest.mark.parametrize("line, message", [
        ('expect mulitplier [p] "typo"', "line 3: unknown expect kind 'mulitplier'"),
        ('expect t seven "s"', "line 3: expect t needs an integer, got 'seven'"),
        ('expect multiplier 13 "s"', "line 3: expect multiplier needs [...], got '13'"),
        ('expect multiplier [p,,p] "s"', "line 3: expect multiplier [p,,p]: bad number ''"),
        ('expect multiplier [p^x] "s"', "line 3: expect multiplier [p^x]: bad exponent 'p^x'"),
        ('expect multiplier [p,] "s"', "line 3: expect multiplier [p,]: bad number ''"),
        ('expect t 6 "s" junk', "line 3: only a comment may follow the closing quote"),
        ('expect t 6 "s', "line 3: only a comment may follow the closing quote"),
        ('expect t "s"', "line 3: malformed expect line: 'expect t \"s\"'"),
    ])
    def test_bad_expectation_rejected_when_parsed(self, line, message):
        with pytest.raises(CatalogError, match=re.escape(message)):
            parse_entry(f"name Z\ngen a p\n{line}\n")

    def test_unknown_constraint_names_its_line(self):
        with pytest.raises(CatalogError, match="line 2: unknown constraint 'weird'"):
            parse_entry("name Z\nconstraint weird\ngen a p\n")

    @pytest.mark.parametrize("line, reason", [
        ('disabled gone "c"', 'gone "c"'),
        ('disabled gone "c"  # note', 'gone "c"'),
        ("disabled", "disabled"),
    ])
    def test_disabled_keeps_its_whole_reason(self, line, reason):
        assert parse_entry(f"name Z\n{line}\n").disabled_reason == reason

    @pytest.mark.parametrize("line, source", [
        ('expect t 6 "part #6"', "part #6"),
        ('expect t 6 "part #6"  # a "comment"', "part #6"),
        ('expect t 6 "Thm "3.1" of MRR"', 'Thm "3.1" of MRR'),
    ])
    def test_expect_source_is_kept_whole(self, line, source):
        [expect] = parse_entry(f"name Z\ngen a p\n{line}\n").expects
        assert (expect.kind, expect.value, expect.source) == ("t", "6", source)

    @pytest.mark.parametrize("keyword", ["name", "constraint", "squeeze", "alias"])
    def test_header_without_argument_rejected(self, keyword):
        message = f"line 2: '{keyword}' needs an argument"
        with pytest.raises(CatalogError, match=re.escape(message)):
            parse_entry(f"name Z\n{keyword}   # nothing after it\ngen a p\n")

    @pytest.mark.parametrize("keyword", ["name", "constraint", "squeeze", "alias"])
    def test_header_with_two_arguments_rejected(self, keyword):
        message = f"line 2: {keyword} takes one argument, got '{keyword} odd two'"
        with pytest.raises(CatalogError, match=re.escape(message)):
            parse_entry(f"name Z\n{keyword} odd two\ngen a p\n")

    @pytest.mark.parametrize("first, second", [
        ("name Z", "name Y"), ("constraint odd", "constraint odd"),
        ("squeeze a.script", "squeeze b.script"), ("alias ES", "alias ES"),
        ("product A B", "product A C"), ("disabled no source", "disabled"),
    ], ids=["name", "constraint", "squeeze", "alias", "product", "disabled"])
    def test_repeated_header_rejected(self, first, second):
        message = f"line 3: {second.split()[0]!r} is stated twice"
        with pytest.raises(CatalogError, match=re.escape(message)):
            parse_entry(f"# header\n{first}\n{second}\ngen a p\n")

    @pytest.mark.parametrize("value, token", [("[6]", "6"), ("[2]", "2"), ("[p,2]", "2"),
                                              ("[-p]", "-p"), ("[0]", "0")])
    def test_expected_multiplier_factor_must_be_a_power_of_p(self, value, token):
        entry = parse_entry(f'name Z\ngen a p\nexpect multiplier {value} "s"\n')
        with pytest.raises(CatalogError, match=re.escape(f"factor {token!r}")):
            entry.expects[0].multiplier_at(3)

    def test_parse_error_carries_line(self):
        with pytest.raises(DslError, match="line 3"):
            load_group_dsl("gen a 2\ngen b 2\ncomm a = b", 2)

    def test_inconsistent_text_rejected(self):
        with pytest.raises(DslError, match="inconsistent"):
            load_group_dsl("gen a 2\ngen b 2\ncomm b a = b", 2)

    def test_loads_phi2_211b(self):
        pres = load_group_dsl(
            "gen a p\ngen a1 p\ngen g p\ngen a2 p\ncomm a1 a = a2\npow g = a2", 3)
        assert pres.order_exponent == 4


class TestExpectedMultipliers:
    def test_all_declared_multipliers_match(self, catalog, computer):
        # every entry with a literature-tagged multiplier reproduces it
        for eid in catalog.ids():
            entry = catalog[eid]
            if entry.is_disabled:
                continue
            wants = [e for e in entry.expects if e.kind == "multiplier"]
            if not wants:
                continue
            for p in _primes_for(entry)[:1]:
                pres = catalog.instantiate(eid, p)
                if pres.group_order() > 300 and not (
                        catalog.resolve_recipe(eid).is_product):
                    continue  # the big direct ones are covered by suites
                res = computer.compute(eid, p)
                for want in wants:
                    assert res.invariants == want.multiplier_at(p), (eid, p)

    @pytest.mark.parametrize("p", [5, 7])
    @pytest.mark.parametrize("eid", ["Phi2_22", "Phi3_211a", "Phi3_211b1", "Phi3_211bnu"])
    def test_order_p4_groups_above_the_oracle_cap(self, catalog, computer, eid, p):
        # order p^4 > 128, no product, tensor or abelian route: tails alone
        res = computer.compute(eid, p)
        assert res.method == METHOD_TAILS
        [want] = [e for e in catalog[eid].expects if e.kind == "multiplier"]
        assert res.invariants == want.multiplier_at(p) == AbelianGroup.cyclic(p)


class TestAutoSelection:
    def test_es2_runs_be_and_oracle(self, computer):
        # the oracle joins only groups no other method reaches; tails
        # cross-checks the tensor construction here
        res = computer.compute("ESp2_p3", 3)
        assert res.method == METHOD_BE
        assert not any(line.startswith("oracle") for line in res.trace)
        assert res.trace[-1] == "auto: methods ['blackburn_evens', 'tails'] agree"

    def test_oracle_only_where_no_other_method_applies(self, catalog, computer):
        pres = catalog.instantiate("T6_xiv", 2)
        assert computer.applicable(pres, catalog["T6_xiv"])[0] == [METHOD_ORACLE, METHOD_TAILS]
        pres = catalog.instantiate("T6_xv", 2)  # order 64, a product
        assert computer.applicable(pres, catalog["T6_xv"])[0] == [METHOD_KUNNETH, METHOD_TAILS]

    def test_products_prefer_kunneth(self, computer):
        assert computer.compute("T6_ix", 3).method == METHOD_KUNNETH

    def test_phi5_via_be(self, computer):
        res = computer.compute("Phi5_214b", 3)
        assert res.method == METHOD_BE
        assert res.order_exponent == 9

    def test_forced_method_error(self, computer, catalog):
        from multlab.blackburn_evens import BePreconditionError
        with pytest.raises(BePreconditionError, match="class"):
            computer.compute("Phi7_15", 3, method=METHOD_BE)
        # the exterior square of Q8^ab is Z_2, but M(Q8) is trivial
        with pytest.raises(ValueError, match="group is nonabelian"):
            computer.compute("Q8", 2, method=METHOD_ABELIAN)


class TestComputeT:
    def test_es_p3(self, catalog, computer):
        pres = catalog.instantiate("ESp_p3", 3)
        assert compute_t(pres, computer.compute("ESp_p3", 3)) == 1

    def test_part_i(self, catalog, computer):
        pres = catalog.instantiate("T6_i", 3)
        res = computer.compute("T6_i", 3)
        assert res.order_exponent == 22
        assert compute_t(pres, res) == 6

    def test_zp(self, catalog, computer):
        pres = catalog.instantiate("Zp", 3)
        assert compute_t(pres, computer.compute("Zp", 3)) == 0


class TestGreenSanity:
    def test_t_nonnegative_across_catalog(self, catalog, computer):
        for eid in ("D8", "Q8", "Q16", "QD16", "ESp_p3", "Phi2_31", "Phi2_22",
                    "Phi3_14", "Zp", "Zp2"):
            entry = catalog[eid]
            p = _primes_for(entry)[0]
            pres = catalog.instantiate(eid, p)
            assert compute_t(pres, computer.compute(eid, p)) >= 0

    def test_elementary_abelian_meets_green(self, computer, catalog):
        # rank-k elementary abelian: |M| = p^{k(k-1)/2}, so t = 0
        pres = catalog.instantiate("Zp", 3)
        for _ in range(3):
            pres = direct_product(pres, catalog.instantiate("Zp", 3))
        res = computer.compute(pres)
        assert compute_t(pres, res) == 0


class TestReports:
    def test_jsonl_round_trip(self, catalog, computer):
        rep = verify_entry(catalog, computer, "D8", 2)
        text = emit_report([rep], "jsonl")
        back = parse_report_jsonl(text)
        assert len(back) == 1
        assert back[0].as_record() == rep.as_record()
        keys = list(json.loads(text.splitlines()[0]).keys())
        assert keys == ["group", "p", "n", "method", "multiplier", "t",
                        "status", "assumed", "trace", "millis"]

    def test_empty_report_has_header(self):
        out = emit_report([], "table")
        assert out.splitlines()[0].startswith("group")
        assert emit_report([], "jsonl") == ""

    def test_unknown_format(self):
        with pytest.raises(ValueError, match="format"):
            emit_report([], "xml")

    def test_table_contains_status(self, catalog, computer):
        rep = verify_entry(catalog, computer, "Q8", 2)
        out = emit_report([rep], "table")
        assert "PASS" in out and "Q8" in out

    def test_single_d8_row(self, catalog, computer):
        # n = 3 and |M| = 2 give corank 3 - 1 = 2
        rep = verify_entry(catalog, computer, "D8", 2)
        out = emit_report([rep], "table")
        assert len(out.splitlines()) == 3  # header, rule, one row
        assert rep.t == 2

    # At p = 5 these entries once rested on cited order-p^4 values; tails
    # computes them, so `assumed` stays empty and the trace shows tails.
    @pytest.mark.parametrize("entry_id, fields", [
        pytest.param(
            "T6_viii",
            r""""assumed": [], "trace": ["tails: tails=6, relations=10, free=3 -> [5,5]", """
            r""""abelian: exterior square -> []", """
            r""""tails: tails=1, relations=1, free=1 -> []", """
            r""""auto: methods ['abelian', 'tails'] agree", """
            r""""kunneth: factors ['Phi2_211c', 'Zp'] -> [5,5,5,5]", """
            r""""tails: tails=10, relations=20, free=4 -> [5,5,5,5]", """
            r""""auto: methods ['kunneth', 'tails'] agree"]""",
            id="T6_viii"),
        pytest.param(
            "T6_xii",
            r""""assumed": [], "trace": ["tails: tails=6, relations=10, free=3 -> []"]""",
            id="T6_xii"),
    ])
    def test_assumed_values_pinned_in_jsonl(self, catalog, computer, entry_id, fields):
        rep = verify_entry(catalog, computer, entry_id, 5)
        assert rep.status == "PASS"
        line = emit_report([rep], "jsonl")
        assert line[line.index('"assumed"'):line.index(', "millis"')] == fields

    def test_unknown_entry_ids_rejected(self):
        with pytest.raises(ValueError, match="T6_foo"):
            verify_theorem(3, "odd", entry_ids=("T6_ii", "T6_foo"))
        with pytest.raises(ValueError, match="T6_xiii"):
            verify_theorem(3, "odd", entry_ids=("T6_xiii",))

    def test_disagreement_is_a_fail_record(self, monkeypatch):
        import multlab.compute as compute_mod
        real_be = compute_mod.multiplier_via_be

        def skewed_be(pres):
            res = real_be(pres)
            if pres.name != "T6_iv":
                return res
            return MultiplierResult(res.p, AbelianGroup.trivial(), res.method)

        monkeypatch.setattr(compute_mod, "multiplier_via_be", skewed_be)
        reports = verify_theorem(3, "odd", entry_ids=("T6_iii", "T6_iv", "T6_vii"))
        assert [(r.group, r.status) for r in reports] == [
            ("T6_iii", "PASS"), ("T6_iv", "FAIL"), ("T6_vii", "PASS")]
        assert reports[1].trace == [
            "CrossMethodDisagreement: T6_iv: kunneth gives [3,3,3,3,3,3,3,3,3] "
            "but blackburn_evens gives []"]

    @pytest.mark.parametrize("value, problem", [
        ("[6]", "factor '6' is 6, not a power of p = 3"),
        ("[-p]", "factor '-p' is -3, not a power of p = 3"),
    ])
    def test_bad_expected_factor_is_a_fail_record(self, value, problem):
        # neither [6] nor [-p] is a power of 3: that entry fails, the run goes on
        entry = parse_entry(
            f'name T6_xii\ngen a p\ngen b p\nexpect multiplier {value} "s"\n')
        reports = verify_theorem(3, "odd", catalog=Catalog({"T6_xii": entry}),
                                 entry_ids=("T6_xii",))
        assert [(r.group, r.status, r.t) for r in reports] == [("T6_xii", "FAIL", None)]
        assert reports[0].trace == [f"CatalogError: expect multiplier {value}: {problem}"]

    def test_bad_factor_reference_is_a_fail_record(self, catalog):
        # the product names a factor the catalog lacks: that entry fails
        product = parse_entry("name P\nproduct Zp Zq\n")
        small = Catalog({"Zp": catalog["Zp"], "P": product})
        rep = verify_entry(small, Computer(small), "P", 2)
        assert (rep.group, rep.n, rep.status, rep.t) == ("P", 0, "FAIL", None)
        assert rep.trace == ["CatalogError: no catalog entry named 'Zq'"]

    def test_prime_outside_the_entry_constraint_is_an_error(self, catalog, computer):
        with pytest.raises(ConstraintError, match="T6_i requires an odd prime, got 2"):
            verify_entry(catalog, computer, "T6_i", 2)
        with pytest.raises(ConstraintError, match="T6_xiii requires p = 2, got 3"):
            verify_entry(catalog, computer, "T6_xiii", 3)

    def test_tails_free_rank_mismatch_is_a_fail_record(self, catalog, computer, monkeypatch):
        real_snf = pcgroup.snf
        monkeypatch.setattr(pcgroup, "snf", lambda rows, p, k: real_snf(rows, p, k) + [k])
        rep = verify_entry(catalog, computer, "T6_xii", 5)
        assert (rep.status, rep.t) == ("FAIL", None)
        assert rep.trace == [
            "InconsistentPresentation: tails: free rank 4 != 3 generators"]

    def test_corrupt_be_coordinates_are_a_fail_record(self, catalog, computer,
                                                      monkeypatch):
        # every W-coordinate off by one: the pairing and f read from the stated
        # relations are wrong, and tails disagrees
        import multlab.blackburn_evens as be_mod
        real = be_mod._w_coordinates
        monkeypatch.setattr(be_mod, "_w_coordinates", lambda d, x: [c + 1 for c in real(d, x)])
        rep = verify_entry(catalog, computer, "ESp_p3", 3)
        assert (rep.status, rep.t) == ("FAIL", None)
        assert rep.trace == [
            "CrossMethodDisagreement: ESp_p3: blackburn_evens gives [] but tails gives [3,3]"]

    def test_exhausted_oracle_cap_is_a_fail_record(self, catalog, computer):
        # T6_xi at p = 3 has order 3^5 = 243, above the Cayley table cap
        rep = verify_entry(catalog, computer, "T6_xi", 3, method="oracle")
        assert (rep.group, rep.n, rep.status, rep.t) == ("T6_xi", 5, "FAIL", None)
        assert rep.trace == [
            "SizeCapError: group order 243 exceeds the Cayley table cap 128"]


class TestCli:
    def test_compute_verb(self, capsys):
        from multlab.cli import main
        assert main(["compute", "--group", "ESp2_p3", "--p", "3"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_check_verb(self, capsys):
        from multlab.cli import main
        assert main(["check", "--group", "T6_xiv", "--p", "2"]) == 0
        assert "order 2^6" in capsys.readouterr().out

    def test_verify_theorem_bad_prime(self, capsys):
        from multlab.cli import main
        assert main(["verify-theorem", "--p", "4", "--part", "odd"]) == 1
        assert "not prime" in capsys.readouterr().err

    def test_replay_verb(self, capsys):
        from multlab.cli import main
        assert main(["replay", "--script", "es_p3_class_bound.script", "--p", "3"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_verify_theorem_unknown_entries(self, capsys):
        from multlab.cli import main
        assert main(["verify-theorem", "--p", "3", "--part", "odd",
                     "--entries", "T6_foo,T6_xiii"]) == 1
        err = capsys.readouterr().err
        assert "T6_foo" in err and "T6_xiii" in err

    def test_replay_missing_script(self, capsys):
        from multlab.cli import main
        assert main(["replay", "--script", "nope"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("script,p", [("phi7_15_squeeze.script", 2),
                                          ("d8_wrong_upper.script", 3)])
    def test_replay_at_disallowed_prime(self, capsys, script, p):
        from multlab.cli import main
        assert main(["replay", "--script", script, "--p", str(p)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "requires" in err

    def test_replay_unreachable_group(self, capsys, tmp_path):
        # order 625 is above the oracle cap and no other method applies
        # (once unreachable); tails computes the step
        from multlab.cli import main
        script = tmp_path / "unreachable.script"
        script.write_text("use Phi2_22\ncompute\nexpect exact p^1\n")
        assert main(["replay", "--script", str(script), "--p", "5"]) == 0
        out = capsys.readouterr()
        assert out.err == "" and "F0 Phi2_22: exact-order p^1 [computed(tails)]" in out.out
        assert out.out.endswith("replay of Phi2_22 at p=5: OK (0 assumed bound(s), "
                                "0 capability assumption(s))\n")

    def test_forced_tails_above_the_oracle_cap(self, capsys):
        from multlab.cli import main
        assert main(["compute", "--group", "T6_xii", "--p", "5", "--method", "tails",
                     "--format", "jsonl"]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert (rec["method"], rec["n"], rec["t"], rec["status"]) == ("tails", 4, 6, "PASS")

    def test_forced_inapplicable_method(self, capsys):
        from multlab.cli import main
        assert main(["compute", "--group", "Phi7_15", "--p", "3",
                     "--method", "be"]) == 1
        assert "class" in capsys.readouterr().err

    def test_forced_abelian_on_d8(self, capsys):
        from multlab.cli import main
        assert main(["compute", "--group", "D8", "--p", "2", "--method", "abelian"]) == 1
        out = capsys.readouterr()
        assert out.out == "" and out.err == "error: abelian: group is nonabelian\n"
