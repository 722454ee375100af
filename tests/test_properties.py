"""Property suites: collection idempotence, exhaustive Cayley associativity,
oracle relabeling invariance (H^2 and Hopf's formula), direct-product
symmetry, and ledger monotonicity.  Each suite covers at least 200
generated cases."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multlab.abelian import AbelianGroup, exterior_square, kunneth, tensor
from multlab.bounds import KIND_LOWER, KIND_UPPER, Ledger, LedgerError, Provenance
from multlab.dsl import load_presentation
from multlab.oracle import h2_trivial_coeffs, multiplier_from_table
from multlab.pcgroup import cayley_table

SAMPLE_GROUPS = [
    ("gen a 2\ngen b 4\ncomm b a = b^2", 2),                       # dihedral 8
    ("gen b 2\ngen a 4\npow b = a^2\ncomm a b = a^2", 2),          # quaternion 8
    ("gen s 2\ngen r 8\ncomm r s = r^2", 2),                       # semidihedral 16
    ("gen a p\ngen a1 p\ngen a2 p\ncomm a1 a = a2", 3),
    ("gen a p^2\ngen a1 p\ngen a2 p\npow a = a2\ncomm a1 a = a2", 3),
    ("gen a p\ngen a1 p\ngen a2 p\ngen a3 p\npow a1 = a3^-cp3\n"
     "comm a1 a = a2\ncomm a2 a = a3", 3),
    ("gen a p\ngen a1 p\ngen g p\ngen a2 p\ncomm a1 a = a2\npow g = a2", 5),
]


@pytest.fixture(scope="module")
def sample_presentations():
    return [load_presentation(text, p) for text, p in SAMPLE_GROUPS]


class TestCollectionIdempotence:
    def test_normal_words_are_fixed_points(self, sample_presentations):
        cases = 0
        for pres in sample_presentations:
            for v in pres.elements():
                assert pres.collect(pres.word_of(v)) == v
                cases += 1
        assert cases >= 200

    def test_recollection_of_random_words(self, sample_presentations):
        rng = np.random.default_rng(42)
        cases = 0
        for pres in sample_presentations:
            n = pres.ngens
            for _ in range(40):
                letters = [(int(rng.integers(0, n)), int(rng.integers(-4, 5)))
                           for _ in range(int(rng.integers(1, 10)))]
                v = pres.collect(letters)
                assert pres.collect(pres.word_of(v)) == v
                cases += 1
        assert cases >= 200

    def test_product_sampling_stays_inside_the_group(self, sample_presentations):
        # products of random normal-word pairs never leave the group
        rng = np.random.default_rng(3)
        for pres in sample_presentations:
            els = list(pres.elements())
            seen = set()
            for _ in range(50):
                u = els[rng.integers(0, len(els))]
                v = els[rng.integers(0, len(els))]
                seen.add(pres.mul(u, v))
                # one left division gives the commutator that two inversions give
                assert pres.comm_el(u, v) == pres.mul(pres.mul(pres.inv(u), pres.inv(v)),
                                                      pres.mul(u, v))
            assert len(seen) <= pres.group_order()


class TestCayleyAssociativity:
    def test_exhaustive_up_to_32(self, sample_presentations):
        checked = 0
        for pres in sample_presentations:
            if pres.group_order() > 32:
                continue
            t = np.array(cayley_table(pres).table)
            n = t.shape[0]
            for x, y, z in itertools.product(range(n), repeat=3):
                assert t[t[x, y], z] == t[x, t[y, z]]
            checked += n ** 3
        assert checked >= 200


class TestOracleRelabelingInvariance:
    def test_random_relabelings(self, sample_presentations):
        """Neither H^2 nor the Hopf-formula multiplier moves under a
        relabelling, and neither do the Hopf trace's counts: every labelling
        gives d(G) generators, though its BFS tree differs."""
        rng = np.random.default_rng(7)
        cases = 0
        for pres in sample_presentations:
            if pres.group_order() > 32:
                continue
            table = cayley_table(pres)
            base = h2_trivial_coeffs(table, table.n).invariants
            hopf = multiplier_from_table(table, pres.p)
            for _ in range(50):
                perm = [0] + [int(x) for x in rng.permutation(np.arange(1, table.n))]
                shuffled = table.relabel(perm)
                got = h2_trivial_coeffs(shuffled, table.n).invariants
                assert got == base
                assert multiplier_from_table(shuffled, pres.p).trace == hopf.trace
                cases += 1
        assert cases >= 200


# one prime first, then the exponents of two groups at that prime
_small_abelian_pair = st.sampled_from([2, 3, 5]).flatmap(lambda p: st.tuples(
    *[st.lists(st.sampled_from([p, p ** 2, p ** 3]), min_size=0, max_size=4)] * 2))


class TestKunnethSymmetry:
    @given(_small_abelian_pair)
    @settings(max_examples=220, deadline=None)
    def test_tensor_and_kunneth_symmetric(self, orders):
        a, b = (AbelianGroup.from_orders(d) for d in orders)
        assert tensor(a, b) == tensor(b, a)
        ma, mb = exterior_square(a), exterior_square(b)
        assert kunneth(ma, mb, a, b) == kunneth(mb, ma, b, a)


class TestLedgerMonotonicity:
    @given(st.lists(st.tuples(st.sampled_from([KIND_UPPER, KIND_LOWER]),
                              st.integers(0, 12)), min_size=1, max_size=30))
    @settings(max_examples=220, deadline=None)
    def test_bounds_only_tighten(self, moves):
        led = Ledger()
        best_hi, best_lo = None, None
        for kind, exp in moves:
            try:
                led.add("G", kind, 3, exponent=exp,
                        provenance=Provenance.assumed("gen"))
            except LedgerError:
                continue  # contradictory fact rejected, ledger unchanged
            hi = led.best_upper("G")
            lo = led.best_lower("G")
            hi = hi.exponent if hi else None
            lo = lo.exponent if lo else None
            if best_hi is not None:
                assert hi is not None and hi <= best_hi
            if best_lo is not None:
                assert lo is not None and lo >= best_lo
            best_hi = hi if best_hi is None else min(best_hi, hi if hi is not None else best_hi)
            best_lo = lo if best_lo is None else max(best_lo, lo if lo is not None else best_lo)
            if hi is not None and lo is not None:
                assert lo <= hi
