"""The class-2 tensor construction: frozen values, oracle agreement, the
pairing and power map against collection, the spanning-set soundness of X1
and X2, the rank count of extension_data against a kernel, and what the
construction reads of the group (the lower central series only)."""

import copy
import itertools
import sys

import numpy as np
import pytest
from conftest import catalog_instances

from multlab import pcgroup
from multlab.abelian import AbelianGroup, _kernel_mod, _snf_local
from multlab.blackburn_evens import (
    BeData,
    BePreconditionError,
    _w_coordinates,
    be_preconditions,
    build_be_data,
    extension_data,
    multiplier_via_be,
)
from multlab.dsl import load_presentation
from multlab.oracle import multiplier_via_oracle
from multlab.pcgroup import (
    InconsistentPresentation,
    _central_quotient_map,
    direct_product,
    multiplier_via_tails,
)
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
        assert not np.any(data.power_map)
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


def _odd_instances():
    """Every catalog group at p = 3, 5, 7, and those the construction applies to."""
    out, be = [], []
    for eid, p, pres in catalog_instances((3, 5, 7)):
        out.append(pytest.param(eid, p, id=f"{eid}-{p}"))
        try:
            be_preconditions(pres)
        except BePreconditionError:
            continue
        be.append(out[-1])
    return out, be


ODD_INSTANCES, BE_INSTANCES = _odd_instances()


def as_pairs(vec):
    """A dense vector as the (column, entry) pairs of a stored row."""
    return tuple((j, int(v)) for j, v in enumerate(vec) if v)


def assert_matches_collection(data):
    """The pairing and f, read from the stated relations, equal the collected
    [r_a, r_b] and r_a^p of the basis `data.reps`."""
    pres, derived = data.derived.pres, data.derived
    for a, r in enumerate(data.reps):
        assert np.array_equal(data.power_map[a],
                              _w_coordinates(derived, pres.pow_el(r, data.p)))
        for b, s in enumerate(data.reps):
            assert np.array_equal(data.pairing[a][b],
                                  _w_coordinates(derived, pres.comm_el(r, s)))


class TestCatalogBasis:
    @pytest.mark.parametrize("eid,p", BE_INSTANCES)
    def test_default_basis_without_a_kernel(self, catalog, eid, p, monkeypatch,
                                            clear_memos):
        """On every catalog group the construction applies to, the pairing
        and f in the presentation's own basis match collection, and the
        multiplier is found with `_kernel_mod` made to raise."""
        pres = catalog.instantiate(eid, p)
        assert_matches_collection(build_be_data(pres))
        clear_memos()  # the series and G^ab are built again under the ban

        def forbidden(*_):
            raise AssertionError("Blackburn-Evens took a kernel")

        for name, mod in list(sys.modules.items()):
            if name.startswith("multlab") and hasattr(mod, "_kernel_mod"):
                monkeypatch.setattr(mod, "_kernel_mod", forbidden)
        assert multiplier_via_be(pres).method == METHOD_BE


class TestXRows:
    @pytest.mark.parametrize("eid,p", BE_INSTANCES)
    def test_rows_equal_the_general_elements(self, catalog, eid, p):
        """X's rows, read off the pairing and f, equal the rows the general
        `jacobi_element` and `power_element` give over the identity basis."""
        data = build_be_data(catalog.instantiate(eid, p))
        eye = [[int(i == j) for j in range(data.dim_v)] for i in range(data.dim_v)]
        assert data.x_rows == [as_pairs(x) for x in (
            [data.jacobi_element(u, v, w) for u, v, w in itertools.combinations(eye, 3)]
            + [data.power_element(v) for v in eye]
            + [data.power_element([a + b for a, b in zip(u, v)])
               for u, v in itertools.combinations(eye, 2)])]


class TestStoredRows:
    """The stored rows -- the tail relations and X's -- survive their readers,
    which hand `snf` fresh dicts of them for it to consume."""

    @pytest.mark.parametrize("eid,p", [i for i in BE_INSTANCES if i.values[1] in (3, 5)])
    def test_rows_survive_their_readers(self, catalog, eid, p):
        pres = catalog.instantiate(eid, p)
        data = build_be_data(pres)
        stored = copy.deepcopy((pres._tail_rows, data.x_rows))
        e0 = [1] + [0] * (data.dim_v - 1)
        runs = [(multiplier_via_tails(pres), extension_data(data),
                 data.in_x(data.power_element(e0))) for _ in range(2)]
        assert runs[0] == runs[1] and runs[0][2]
        assert (pres._tail_rows, data.x_rows) == stored


class TestDerivedLeadEntryP:
    """G' = <a^p> for a of relative order p^2: the igs of G' has lead entry p,
    so a survives in V although a^p lies in G'."""

    META = "gen b p\ngen a p^2\ncomm a b = a^p"
    META_C = "gen b p\ngen c p\ngen a p^2\ncomm a b = a^p\ncomm c b = a^p"

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_metacyclic_of_order_p_cubed(self, p):
        pres = load_presentation(self.META, p)
        data = build_be_data(pres)
        assert data.derived.igs == {1: (0, p)}
        assert data.reps == [pres.gen(0), pres.gen(1)]
        assert multiplier_via_be(pres).invariants.is_trivial
        if p == 3:
            assert multiplier_via_oracle(pres).invariants.is_trivial

    def test_two_commutators_onto_a_p(self):
        pres = load_presentation(self.META_C, 3)
        want = AbelianGroup.from_orders([3, 3])
        assert multiplier_via_be(pres).invariants == want
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

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_rank_count_matches_the_kernel_method(self, p):
        """On random alternating pairings and power maps, the three counts
        equal those of ker(rho), sigma on it, and a rank modulo X."""
        rng = np.random.default_rng(p)
        onto = 0
        for _ in range(120):
            dim_v = int(rng.integers(2, 6))
            dim_w = int(rng.integers(1, min(dim_v * (dim_v - 1) // 2, 4) + 1))
            pairing = np.zeros((dim_v, dim_v, dim_w), dtype=np.int64)
            for a, b in itertools.combinations(range(dim_v), 2):
                pairing[b, a] = rng.integers(0, p, size=dim_w)
                pairing[a, b] = -pairing[b, a] % p
            # f = 0 about half the time, so X is X1 alone there
            power_map = rng.integers(0, p, size=(dim_w, dim_v)) * rng.integers(0, 2)
            data = BeData(p, dim_v, dim_w, [], pairing.tolist(), power_map.T.tolist(), [], 0, None)
            eye = np.eye(dim_v, dtype=np.int64)
            x_dense = (
                [data.jacobi_element(u, v, w) for u, v, w in itertools.combinations(eye, 3)]
                + [data.power_element(v) for v in eye]
                + [data.power_element((u + v) % p) for u, v in itertools.combinations(eye, 2)])
            data.x_rows = [as_pairs(x) for x in x_dense]
            data.x_rank = len(_snf_local(x_dense, p, 1)[0])

            pairs = list(itertools.combinations(range(dim_v), 2))
            rho = np.array([pairing[i, j] for i, j in pairs], dtype=np.int64).T
            ker = _kernel_mod(rho, len(pairs), p, 1)
            if len(pairs) - ker.shape[1] != dim_w:
                with pytest.raises(InconsistentPresentation, match="span"):
                    extension_data(data)
                continue
            sigma = np.array([np.outer(eye[i], power_map[:, j]).reshape(-1)
                              for i, j in pairs], dtype=np.int64).T
            image = (sigma @ ker % p).T
            rank_sigma = len(_snf_local(np.vstack([x_dense, image]), p, 1)[0])
            rank_sigma -= data.x_rank
            ext = extension_data(data)
            assert (ext.dim_n, ext.dim_ker_rho, ext.dim_ker_sigma_bar) == (
                dim_v * dim_w - data.x_rank, ker.shape[1], ker.shape[1] - rank_sigma)
            onto += 1
        assert onto >= 80


class TestReadsTheLowerSeries:
    @pytest.mark.parametrize("eid,p", ODD_INSTANCES)
    def test_no_upper_series_and_no_new_presentation(self, catalog, computer, eid, p,
                                                     monkeypatch, clear_memos):
        """The probe in `applicable` and the build run with the upper central
        series and presentation certification made to raise, so they build
        neither (a structure report would build both)."""
        pres = catalog.instantiate(eid, p)
        clear_memos()

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

