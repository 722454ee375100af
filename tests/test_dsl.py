"""Presentation DSL parsing and instantiation."""

import pytest

from multlab.dsl import DslError, least_nonresidue, load_presentation, parse_statements


class TestParsing:
    def test_malformed_comm(self):
        with pytest.raises(DslError, match="comm"):
            parse_statements("gen a 2\ngen b 2\ncomm a = b")

    def test_unknown_statement(self):
        with pytest.raises(DslError, match="line 2"):
            parse_statements("gen a 2\nfrobnicate a")

    def test_unknown_generator_in_word(self):
        with pytest.raises(DslError, match="unknown generator"):
            load_presentation("gen a 3\npow a = b^2", 3)

    def test_comments_and_blanks(self):
        pres = load_presentation("# header\n\ngen a p  # trailing\n", 5)
        assert pres.orders == (5,)

    def test_wrong_comm_order_rejected(self):
        with pytest.raises(DslError, match="higher index"):
            load_presentation("gen a 2\ngen b 4\ncomm a b = b^2", 2)


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
