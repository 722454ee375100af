"""The class-2 tensor construction: frozen values, oracle agreement, basis
independence, the spanning-set soundness of X1 and X2, and what the
construction reads of the group (the lower central series only)."""

import numpy as np
import pytest

from multlab import pcgroup
from multlab.abelian import AbelianGroup
from multlab.blackburn_evens import (
    BePreconditionError,
    build_be_data,
    extension_data,
    multiplier_via_be,
)
from multlab.dsl import load_presentation
from multlab.entries import Catalog, CatalogError
from multlab.oracle import multiplier_via_oracle
from multlab.pcgroup import _central_quotient_map, direct_product, structure_report
from multlab.results import METHOD_BE

ES_P3 = "gen a p\ngen a1 p\ngen a2 p\ncomm a1 a = a2"
ES2_P3 = "gen a p\ngen a1 p\ngen a2 p\npow a = a2\ncomm a1 a = a2"
ES_P5 = ("gen a1 p\ngen a2 p\ngen a3 p\ngen a4 p\ngen b p\n"
         "comm a2 a1 = b\ncomm a4 a3 = b")
ES2_P5 = "pow a1 = b\n" + ES_P5
PHI2_211B = "gen a p\ngen a1 p\ngen g p\ngen a2 p\ncomm a1 a = a2\npow g = a2"
PHI4_15 = ("gen a p\ngen a1 p\ngen a2 p\ngen b1 p\ngen b2 p\n"
           "comm a1 a = b1\ncomm a2 a = b2")
PHI5_214B = ("gen a1 p\ngen a2 p\ngen a3 p\ngen a4 p\ngen g p\ngen b p\n"
             "comm a2 a1 = b\ncomm a4 a3 = b\npow g = b")
PHI3_14 = ("gen a p\ngen a1 p\ngen a2 p\ngen a3 p\npow a1 = a3^-cp3\n"
           "comm a1 a = a2\ncomm a2 a = a3")


class TestBuild:
    def test_es_p3_shape(self):
        data = build_be_data(load_presentation(ES_P3, 3))
        assert (data.dim_v, data.dim_w) == (2, 1)
        assert not data.power_map.any()
        assert data.x_rank == 0

    def test_es2_p3_x_is_everything(self):
        data = build_be_data(load_presentation(ES2_P3, 3))
        assert np.count_nonzero(data.power_map) == 1
        assert data.x_rank == data.tensor_dim() == 2

    def test_class3_rejected(self):
        with pytest.raises(BePreconditionError, match="class"):
            build_be_data(load_presentation(PHI3_14, 3))

    def test_even_prime_rejected(self):
        with pytest.raises(BePreconditionError, match="odd"):
            build_be_data(load_presentation("gen a 2\ngen b 4\ncomm b a = b^2", 2))

    def test_nonelementary_quotient_rejected(self):
        text = "gen a p^2\ngen a1 p\ngen a2 p\ncomm a1 a = a2"
        with pytest.raises(BePreconditionError, match="quotient"):
            build_be_data(load_presentation(text, 3))


class TestMultiplier:
    @pytest.mark.parametrize("text,p,want", [
        (ES_P3, 3, [3, 3]),
        (ES2_P3, 3, []),
        (PHI2_211B, 3, [3, 3]),
        (ES_P3, 5, [5, 5]),
        (ES2_P3, 5, []),
    ])
    def test_structures(self, text, p, want):
        res = multiplier_via_be(load_presentation(text, p))
        assert res.invariants == AbelianGroup.from_orders(want)

    @pytest.mark.parametrize("text,p,want_exp", [
        (ES_P5, 3, 5),
        (ES2_P5, 3, 5),
        (ES_P5, 5, 5),
        (ES2_P5, 5, 5),
        (PHI4_15, 3, 6),
        (PHI5_214B, 3, 9),
        (PHI5_214B, 5, 9),
    ])
    def test_orders(self, text, p, want_exp):
        assert multiplier_via_be(load_presentation(text, p)).order_exponent == want_exp


class TestOracleAgreement:
    @pytest.mark.parametrize("text,extra_ranks", [
        (ES_P3, 0), (ES2_P3, 0), (PHI2_211B, 0),
        (ES_P3, 1), (ES2_P3, 1),
    ])
    def test_order_81_and_below(self, text, extra_ranks):
        pres = load_presentation(text, 3)
        for _ in range(extra_ranks):
            pres = direct_product(pres, load_presentation("gen z p", 3))
        be = multiplier_via_be(pres)
        orc = multiplier_via_oracle(pres)
        assert be.invariants == orc.invariants


class TestBasisIndependence:
    def test_five_random_bases(self):
        rng = np.random.default_rng(5)
        for text in (ES_P3, PHI2_211B, PHI4_15):
            p = 3
            pres = load_presentation(text, p)
            base_res = multiplier_via_be(pres)
            data = build_be_data(pres)
            dv = data.dim_v
            for _ in range(5):
                while True:
                    t_mat = rng.integers(0, p, size=(dv, dv))
                    if round(np.linalg.det(t_mat)) % p:
                        break
                reps = []
                for col in t_mat.T:
                    x = pres.identity
                    for r, e in zip(data.reps, col):
                        x = pres.mul(x, pres.pow_el(r, int(e)))
                    reps.append(x)
                res = multiplier_via_be(pres, reps=reps)
                assert res.invariants == base_res.invariants


class TestDerivedLeadEntryP:
    """G' = <a^p> for a of relative order p^2: the igs of G' has lead entry p,
    so V-coordinates must reduce modulo G' lead entry by lead entry."""

    META = "gen b p\ngen a p^2\ncomm a b = a^p"
    META_C = "gen b p\ngen c p\ngen a p^2\ncomm a b = a^p\ncomm c b = a^p"

    @staticmethod
    def word(pres, *letters):
        return pres.collect([(pres.gen_index(g), e) for g, e in letters])

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_metacyclic_of_order_p_cubed(self, p):
        pres = load_presentation(self.META, p)
        assert build_be_data(pres).derived.igs == {1: (0, p)}
        # images b a and a^(1+p) in G/G' = <b, a> form a basis
        reps = [self.word(pres, ("b", 1), ("a", 1)), self.word(pres, ("a", 1 + p))]
        for r in (None, reps):
            assert multiplier_via_be(pres, reps=r).invariants.is_trivial
        with pytest.raises(ValueError, match="V-basis"):
            build_be_data(pres, reps=[pres.gen(0), self.word(pres, ("b", 1), ("a", p))])
        if p == 3:
            assert multiplier_via_oracle(pres).invariants.is_trivial

    def test_two_commutators_onto_a_p(self):
        pres = load_presentation(self.META_C, 3)
        want = AbelianGroup.from_orders([3, 3])
        reps = [self.word(pres, ("b", 1), ("c", 1)),
                self.word(pres, ("c", 1), ("a", 3)),
                self.word(pres, ("a", 1), ("b", 1))]
        for r in (None, reps):
            assert multiplier_via_be(pres, reps=r).invariants == want
        assert multiplier_via_oracle(pres).invariants == want


class TestSpanningSoundness:
    def test_x1_jacobi_closed_under_random_triples(self):
        rng = np.random.default_rng(17)
        for text in (PHI4_15, PHI5_214B, ES_P5):
            data = build_be_data(load_presentation(text, 3))
            for _ in range(100):
                u, v, w = rng.integers(0, 3, size=(3, data.dim_v))
                assert data.in_x(data.jacobi_element(u, v, w))

    def test_x2_power_closed_under_random_vectors(self):
        rng = np.random.default_rng(23)
        for text in (ES2_P3, PHI2_211B, ES2_P5):
            data = build_be_data(load_presentation(text, 3))
            for _ in range(100):
                v = rng.integers(0, 3, size=data.dim_v)
                assert data.in_x(data.power_element(v))


class TestExtension:
    def test_es_p3_counts(self):
        data = build_be_data(load_presentation(ES_P3, 3))
        ext = extension_data(data)
        assert (ext.dim_n, ext.dim_ker_rho) == (2, 0)

    def test_phi4_counts(self):
        data = build_be_data(load_presentation(PHI4_15, 3))
        ext = extension_data(data)
        assert ext.dim_n == 5
        assert ext.dim_ker_rho == 1

    def test_kernel_size_identity(self):
        # |ker rho| = |V^V| / |W| by surjectivity
        for text in (ES_P3, PHI2_211B, PHI4_15, PHI5_214B):
            data = build_be_data(load_presentation(text, 3))
            ext = extension_data(data)
            wedge = data.dim_v * (data.dim_v - 1) // 2
            assert ext.dim_ker_rho == wedge - data.dim_w


def _odd_instances():
    cat = Catalog.bundled()
    out = []
    for p in (3, 5, 7):
        for eid in cat.ids():
            try:
                cat.instantiate(eid, p)
            except CatalogError:
                continue
            out.append(pytest.param(eid, p, id=f"{eid}-{p}"))
    return out


ODD_INSTANCES = _odd_instances()


class TestReadsTheLowerSeries:
    @pytest.mark.parametrize("eid,p", ODD_INSTANCES)
    def test_no_upper_series_and_no_new_presentation(self, catalog, computer, eid, p,
                                                     monkeypatch):
        """The probe in `applicable` and the build run with the upper central
        series and presentation certification made to raise, so they build
        neither (a structure report would build both)."""
        pres = catalog.instantiate(eid, p)
        structure_report.cache_clear()

        def forbidden(*_):
            raise AssertionError("built an upper series or a presentation")

        monkeypatch.setattr(pcgroup, "upper_central_series", forbidden)
        monkeypatch.setattr(pcgroup, "check_consistency", forbidden)
        methods, _ = computer.applicable(pres, catalog[eid])
        if METHOD_BE in methods:
            build_be_data(pres)

    @pytest.mark.parametrize("eid,p", ODD_INSTANCES)
    def test_v_matches_the_quotient_by_the_derived_subgroup(self, catalog, computer,
                                                            eid, p):
        """dim V and the default representatives read off the igs of G' agree with
        the certified quotient presentation of G/G'."""
        pres = catalog.instantiate(eid, p)
        if METHOD_BE not in computer.applicable(pres, catalog[eid])[0]:
            with pytest.raises(BePreconditionError):
                build_be_data(pres)
            return
        data = build_be_data(pres)
        quotient, survivors = _central_quotient_map(pres, data.derived)
        assert data.dim_v == quotient.order_exponent
        assert data.reps == [pres.gen(i) for i in survivors]

