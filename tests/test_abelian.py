"""Invariant-factor arithmetic, checked against independent oracles:
minor-gcd invariants for SNF, and direct solution counting for tensors."""

from itertools import combinations
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multlab.abelian import (
    AbelianGroup,
    direct_sum,
    exterior_square,
    kunneth,
    prime_power,
    snf,
    tensor,
    valuation,
)

PRIMES = [2, 3, 5, 7, 11, 13, 101]


def minor_gcd_invariants(matrix):
    """d_k = gcd(k-minors)/gcd((k-1)-minors): a brute-force SNF oracle."""
    m, n = len(matrix), len(matrix[0])
    out = []
    prev = 1
    for k in range(1, min(m, n) + 1):
        g = 0
        for rows in combinations(range(m), k):
            for cols in combinations(range(n), k):
                sub = [[matrix[i][j] for j in cols] for i in rows]
                g = gcd(g, _det(sub))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out + [0] * (n - len(out))


def _det(a):
    n = len(a)
    if n == 1:
        return a[0][0]
    return sum((-1) ** j * a[0][j] * _det([row[:j] + row[j + 1:] for row in a[1:]])
               for j in range(n))


class TestSnf:
    def test_zero_matrix(self):
        assert snf([[0, 0], [0, 0]]) == [0, 0]

    def test_diag_2_3(self):
        assert snf([[2, 0], [0, 3]]) == [1, 6]

    def test_known_rectangular(self):
        assert snf([[2, 4], [6, 8]]) == [2, 4]

    def test_empty(self):
        assert snf([]) == []

    @given(st.lists(st.lists(st.integers(-9, 9), min_size=1, max_size=3),
                    min_size=1, max_size=3).filter(
                        lambda rows: len({len(r) for r in rows}) == 1))
    @settings(max_examples=150, deadline=None)
    def test_matches_minor_gcd_oracle(self, rows):
        assert snf(rows) == minor_gcd_invariants(rows)

    def test_divisibility_chain(self):
        out = [d for d in snf([[6, 4, 2], [4, 2, 8], [10, 2, 4]]) if d]
        for a, b in zip(out, out[1:]):
            assert b % a == 0


def count_bilinear_solutions(da, db):
    """#{bilinear maps A x B -> Q/Z} counted entry by entry: each matrix
    slot holds any element killed by both cyclic orders."""
    total = 1
    from math import lcm
    for d in da:
        for e in db:
            big = lcm(d, e)
            total *= sum(1 for m in range(big) if d * m % big == 0 and e * m % big == 0)
    return total


class TestTensor:
    def test_with_trivial(self):
        a = AbelianGroup.from_orders([4, 2])
        assert tensor(a, AbelianGroup.trivial()).is_trivial

    def test_z9_tensor_elementary(self):
        got = tensor(AbelianGroup.cyclic(9), AbelianGroup.elementary(3, 3))
        assert got == AbelianGroup.elementary(3, 3)

    def test_z4_z6(self):
        assert tensor(AbelianGroup.cyclic(4), AbelianGroup.cyclic(6)) == \
            AbelianGroup.cyclic(2)

    @given(st.lists(st.sampled_from([2, 3, 4, 8, 9, 16]), max_size=3),
           st.lists(st.sampled_from([2, 3, 4, 8, 9, 16]), max_size=3))
    @settings(max_examples=120, deadline=None)
    def test_order_counts_bilinear_maps(self, da, db):
        a, b = AbelianGroup.from_orders(da), AbelianGroup.from_orders(db)
        got = prod(tensor(a, b).factor_values())
        assert got == count_bilinear_solutions(da, db)

    @given(st.lists(st.sampled_from([2, 3, 4, 5, 9, 27]), max_size=4),
           st.lists(st.sampled_from([2, 3, 4, 5, 9, 27]), max_size=4))
    @settings(max_examples=120, deadline=None)
    def test_symmetry(self, da, db):
        a, b = AbelianGroup.from_orders(da), AbelianGroup.from_orders(db)
        assert tensor(a, b) == tensor(b, a)


class TestExteriorSquare:
    def test_cyclic_trivial(self):
        assert exterior_square(AbelianGroup.cyclic(125)).is_trivial

    def test_elementary_rank5(self):
        got = exterior_square(AbelianGroup.elementary(3, 5))
        assert got == AbelianGroup.elementary(3, 10)

    def test_z_p2_times_zp(self):
        got = exterior_square(AbelianGroup.from_orders([9, 3]))
        assert got == AbelianGroup.cyclic(3)

    @given(st.integers(0, 6), st.sampled_from([2, 3, 5]))
    @settings(max_examples=40, deadline=None)
    def test_elementary_rank_formula(self, k, p):
        got = exterior_square(AbelianGroup.elementary(p, k))
        assert got == AbelianGroup.elementary(p, k * (k - 1) // 2)


class TestKunneth:
    def test_trivial_factor(self):
        m = AbelianGroup.from_orders([3, 3])
        ab = AbelianGroup.from_orders([3, 3, 3])
        t = AbelianGroup.trivial()
        assert kunneth(m, t, ab, t) == m

    def test_main_part_i_arithmetic(self):
        # ES_p(p^3) x Z_p^(5): (p,p) + p^10 + (p^2 (x) p^5) has order p^22
        p = 3
        m_es = AbelianGroup.elementary(p, 2)
        m_e5 = exterior_square(AbelianGroup.elementary(p, 5))
        got = kunneth(m_es, m_e5, AbelianGroup.elementary(p, 2),
                      AbelianGroup.elementary(p, 5))
        assert got.order_exponent(p) == 22

    def test_part_ix_arithmetic(self):
        # ES_p(p^3) x Z_{p^2}: (p,p) + 1 + (p^2 (x) Z_{p^2}) has order p^4
        p = 3
        got = kunneth(AbelianGroup.elementary(p, 2), AbelianGroup.trivial(),
                      AbelianGroup.elementary(p, 2), AbelianGroup.cyclic(p * p))
        assert got.order_exponent(p) == 4

    @given(st.lists(st.sampled_from([3, 9, 27]), max_size=3),
           st.lists(st.sampled_from([3, 9, 27]), max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_symmetry(self, da, db):
        a, b = AbelianGroup.from_orders(da), AbelianGroup.from_orders(db)
        ma, mb = exterior_square(a), exterior_square(b)
        assert kunneth(ma, mb, a, b) == kunneth(mb, ma, b, a)


class TestAbelianGroup:
    def test_chain_enforced(self):
        with pytest.raises(ValueError):
            AbelianGroup(tuple([((3, 1),), ((2, 1),)]))

    def test_normalization(self):
        g = AbelianGroup.from_orders([2, 3])
        assert g == AbelianGroup.cyclic(6)

    def test_render(self):
        assert AbelianGroup.from_orders([9, 3]).render() == "[3,3^2]"
        assert AbelianGroup.trivial().render() == "[]"

    def test_order_exponent_rejects_wrong_prime(self):
        with pytest.raises(ValueError):
            AbelianGroup.cyclic(6).order_exponent(2)


class TestPAdicHelpers:
    @given(st.sampled_from(PRIMES), st.integers(1, 40))
    @settings(max_examples=100, deadline=None)
    def test_prime_power_splits_prime_powers(self, p, k):
        assert prime_power(p ** k) == (p, k)

    @given(st.lists(st.sampled_from(PRIMES), min_size=2, max_size=4, unique=True),
           st.integers(1, 4), st.integers(1, 1000))
    @settings(max_examples=100, deadline=None)
    def test_prime_power_rejects_composites(self, primes, e, u):
        # at least two distinct primes divide m
        with pytest.raises(ValueError, match="prime power"):
            prime_power(prod(primes) ** e * u)

    @given(st.integers(-1000, 1))
    @settings(max_examples=50, deadline=None)
    def test_prime_power_rejects_below_two(self, m):
        with pytest.raises(ValueError):
            prime_power(m)

    @given(st.sampled_from(PRIMES), st.integers(-1000, 0))
    @settings(max_examples=30, deadline=None)
    def test_valuation_rejects_non_positive(self, p, n):
        with pytest.raises(ValueError):
            valuation(n, p)

    @given(st.sampled_from(PRIMES), st.integers(0, 30), st.integers(0, 1000),
           st.integers(0, 100))
    @settings(max_examples=150, deadline=None)
    def test_valuation_of_unit_times_power(self, p, v, q, r):
        u = p * q + r % (p - 1) + 1   # u mod p lies in 1..p-1
        assert valuation(p ** v * u, p) == v
