"""Presentation DSL parsing and instantiation."""

import pytest

from multlab.bounds import replay_script
from multlab.dsl import DslError, least_nonresidue, load_presentation
from multlab.entries import Catalog, parse_entry


class TestParsing:
    def test_malformed_comm(self):
        with pytest.raises(DslError, match="comm"):
            load_presentation("gen a 2\ngen b 2\ncomm a = b", 2)

    def test_unknown_statement(self):
        with pytest.raises(DslError, match="line 2"):
            load_presentation("gen a 2\nfrobnicate a", 2)

    def test_unknown_generator_in_word(self):
        with pytest.raises(DslError, match="unknown generator"):
            load_presentation("gen a 3\npow a = b^2", 3)

    def test_comments_and_blanks(self):
        pres = load_presentation("# header\n\ngen a p  # trailing\n", 5)
        assert pres.orders == (5,)

    def test_wrong_comm_order_rejected(self):
        with pytest.raises(DslError, match="higher index"):
            load_presentation("gen a 2\ngen b 4\ncomm a b = b^2", 2)

    @pytest.mark.parametrize("text, message", [
        ("gen a p\ngen b p\npow a = 1\npow a = b", "line 4: 'pow a' is stated twice"),
        ("gen a p\ngen b p\npow a = b\npow a = b", "line 4: 'pow a' is stated twice"),
        ("gen a p\ngen b p\ngen c p\ncomm b a = c\ncomm b a = 1",
         "line 5: 'comm b a' is stated twice"),
        ("gen a p\ngen b p\ngen c p\ncomm b a = c\ncomm b a = c^2",
         "line 5: 'comm b a' is stated twice"),
        ("prime 3\ngen a p\nprime 3", "line 3: 'prime' is stated twice"),
        ("gen a p\ngen b p\ngen a p^2", "line 3: 'gen a' is stated twice"),
    ], ids=["pow-trivial-first", "pow-same", "comm-trivial-second", "comm-two-tails",
            "prime", "gen"])
    def test_repeated_statement_rejected_with_its_line(self, text, message):
        with pytest.raises(DslError) as exc:
            load_presentation(text, 3)
        assert str(exc.value) == message


    @pytest.mark.parametrize("text, message", [
        ("prime x\ngen a 2", "line 1: bad prime 'x'"),
        ("gen a p\nprime 2.0", "line 2: bad prime '2.0'"),
        ("prime 2\ngen a 2", "line 1: presentation is fixed at prime 2, not 3"),
        ("gen a p\ngen b p^x", "line 2: bad exponent 'p^x'"),
        ("gen a p\n\ngen b 6", "line 3: relative order of b is 6, not a power of 3"),
        ("gen a 1", "line 1: relative order of a is 1, not a power of 3"),
    ], ids=["prime-word", "prime-float", "prime-mismatch", "gen-exponent", "gen-composite",
            "gen-one"])
    def test_prime_and_gen_errors_name_their_line(self, text, message):
        with pytest.raises(DslError) as exc:
            load_presentation(text, 3)
        assert str(exc.value) == message

    @pytest.mark.parametrize("text, message", [
        ("gen a p^-1", "line 1: bad exponent 'p^-1'"),
        ("gen a p\ngen b p\ncomm b a = b^p^-1", "line 3: bad exponent 'p^-1'"),
        ("gen a p\ngen b p\npow a = b^-p^-2", "line 3: bad exponent 'p^-2'"),
    ], ids=["order", "comm-word", "pow-word-negated"])
    def test_negative_power_of_p_is_a_bad_exponent(self, text, message):
        with pytest.raises(DslError) as exc:
            load_presentation(text, 3)
        assert str(exc.value) == message


class TestInstantiation:
    def test_parametric_orders(self):
        pres = load_presentation("gen a p^2\ngen b p", 5)
        assert pres.orders == (25, 5)

    def test_fixed_prime_mismatch(self):
        with pytest.raises(DslError, match="fixed at prime 2"):
            load_presentation("prime 2\ngen a 2", 3)

    def test_nu_token(self):
        assert least_nonresidue(3) == 2
        assert least_nonresidue(5) == 2
        assert least_nonresidue(7) == 3
        pres = load_presentation("gen a p\ngen b p\npow a = b^nu", 7)
        assert pres.powers[0] == ((1, 3),)

    def test_cp3_token_vanishes_for_big_p(self):
        text = "gen a p\ngen b p\npow a = b^cp3"
        assert load_presentation(text, 3).powers[0] == ((1, 1),)
        assert load_presentation(text, 5).powers[0] == ()

    def test_negative_exponents_normalize(self):
        pres = load_presentation("gen a 2\ngen b 4\ncomm b a = b^-2", 2)
        assert pres.comm_tail(1, 0) == ((1, 2),)

    def test_inconsistent_rejected_at_load(self):
        with pytest.raises(DslError, match="inconsistent"):
            load_presentation("gen a 2\ngen b 2\ncomm b a = b", 2)

    def test_word_folding(self):
        pres = load_presentation("gen a 3\ngen b 9\npow a = b * b^2", 3)
        assert pres.powers[0] == ((1, 3),)


class TestLineReader:
    """The DSL, catalog files and replay scripts share one line reader: every
    word and citation is consumed by its keyword or rejected with its line."""

    @staticmethod
    def read(fmt, text, computer):
        if fmt == "dsl":
            load_presentation(text, 3)
        elif fmt == "grp":
            entry = parse_entry(f"name Z\ngen a p\n{text}\n")
            Catalog({"Z": entry}).instantiate("Z", 3)
        else:
            replay_script(f"use ESp_p3\n{text}", 3, computer)

    @pytest.mark.parametrize("fmt, text, message", [
        ("dsl", "prime 3 5", "line 1: prime takes one argument"),
        ("dsl", 'prime 3 "c"', "line 1: prime takes no citation"),
        ("dsl", "gen a p p", "line 1: gen takes a name and a relative order"),
        ("dsl", 'gen a p "c"', "line 1: gen takes no citation"),
        ("dsl", "gen a p\ngen b p\npow a = b x", "line 3: unknown generator 'b x' in word"),
        ("dsl", 'gen a p\ngen b p\npow a = b "c"', "line 3: pow takes no citation"),
        ("dsl", "gen a p\ngen b p\ngen c p\ncomm b a = c x",
         "line 4: unknown generator 'c x' in word"),
        ("dsl", 'gen a p\ngen b p\ngen c p\ncomm b a = c "c"', "line 4: comm takes no citation"),
        ("dsl", '"c"', "line 1: a citation must follow a keyword"),
        ("grp", "name Y x", "line 3: name takes one argument, got 'name Y x'"),
        ("grp", 'name Y "c"', "line 3: name takes no citation"),
        ("grp", "constraint odd x",
         "line 3: constraint takes one argument, got 'constraint odd x'"),
        ("grp", 'constraint odd "c"', "line 3: constraint takes no citation"),
        ("grp", "squeeze a.script x",
         "line 3: squeeze takes one argument, got 'squeeze a.script x'"),
        ("grp", 'squeeze a.script "c"', "line 3: squeeze takes no citation"),
        ("grp", "alias Zp x", "line 3: alias takes one argument, got 'alias Zp x'"),
        ("grp", 'alias Zp "c"', "line 3: alias takes no citation"),
        ("grp", 'product Zp Zp "c"', "line 3: product takes no citation"),
        ("grp", 'expect t 6 x "s"', "line 3: malformed expect line: 'expect t 6 x \"s\"'"),
        ("grp", 'expect t 6 "s" x', "line 3: only a comment may follow the closing quote"
                                    " of a citation"),
        ("grp", "gen b p q", "line 3: gen takes a name and a relative order"),
        ("grp", 'gen b p "c"', "line 3: gen takes no citation"),
        ("grp", '"c"', "line 3: a citation must follow a keyword"),
        ("script", "use ESp_p3 x", "step 2 ('use ESp_p3 x'): use takes group, got ESp_p3 x"),
        ("script", 'use ESp_p3 "c"', "step 2 ('use ESp_p3 \"c\"'): use takes no citation"),
        ("script", "compute x", "step 2 ('compute x'): compute takes no arguments, got x"),
        ("script", 'compute "c"', "step 2 ('compute \"c\"'): compute takes no citation"),
        ("script", "expect upper p^2 x",
         "step 2 ('expect upper p^2 x'): expect takes kind order, got upper p^2 x"),
        ("script", 'expect upper p^2 "c"',
         "step 2 ('expect upper p^2 \"c\"'): expect takes no citation"),
        ("script", "apply green x",
         "step 2 ('apply green x'): rule arguments take the form key=value"),
        ("script", 'apply green "c"', "step 2 ('apply green \"c\"'): apply takes no citation"),
        ("script", 'assume upper p^4 x "c"',
         "step 2 ('assume upper p^4 x \"c\"'): assume takes <upper|lower|exact> <order> "
         "or capable before the citation, got upper p^4 x"),
        ("script", '"c"', "step 2 ('\"c\"'): a citation must follow a keyword"),
    ])
    def test_stray_word_or_citation_is_rejected_with_its_line(self, computer, fmt, text,
                                                              message):
        with pytest.raises(ValueError) as exc:
            self.read(fmt, text, computer)
        assert str(exc.value).endswith(message)
