"""Finite abelian p-groups as exponent lists.

Every abelian group multlab builds -- a multiplier, an abelianization, a
cokernel -- is a p-group, so a group is its prime p and the ascending
exponents e1 <= e2 <= ... of Z/p^e1 + Z/p^e2 + ...; orders like p^22 stay
exact at any prime.  The operations here are the abelian half of the
multiplier calculus: Smith normal form, tensor products, exterior squares,
and the direct-product identity M(A x B) = M(A) + M(B) + A^ab (x) B^ab.

Cokernels and ranks are read by `snf`, the one Smith-form entry point,
over Z_{p^k} on sparse {column: entry} rows, which it reduces in place:
one pass takes every unit pivot, keeping each pivot row free of the other
pivots' columns, and the unit-free rows left finish by least-valuation
pivoting.  Central tails, abelianizations, abelian subgroups, the oracle
and the tensor construction's ranks hand it dict rows; a stored row (the
tails', X's) is a tuple of (column, entry) pairs, which its reader copies
into a fresh dict.  Every cokernel read here is a p-group plus free
summands, read exactly while p^k exceeds its torsion: at k = n + 1 for a
group of order p^n (tails, abelianizations, abelian subgroups, the
oracle), and at k = 1 for ranks, where the valuations 0 count the GF(p)
rank."""

from __future__ import annotations

from collections import Counter, defaultdict
from itertools import combinations
from math import isqrt

from .record import Frozen


def valuation(n: int, p: int) -> int:
    """The exponent of the prime p in the positive integer n.  Divides by p
    directly rather than factoring n: sifting calls this at every step."""
    if n < 1:
        raise ValueError(f"valuation of non-positive {n}")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def prime_power(m: int) -> tuple[int, int]:
    """(p, k) with m = p^k and k >= 1; ValueError for any other m."""
    if m >= 2:
        p = next((d for d in range(2, isqrt(m) + 1) if m % d == 0), m)  # least prime factor
        k = valuation(m, p)
        if p ** k == m:
            return p, k
    raise ValueError(f"{m} is not a prime power")


class AbelianGroup(Frozen):
    """The finite abelian p-group Z/p^e1 + ... + Z/p^ek.

    ``exponents`` is ascending and positive; ``p`` is None exactly when it
    is empty, the trivial group.  Build through `of`, which normalizes.
    """

    _fields = ("p", "exponents")

    def __init__(self, p: int | None = None, exponents: tuple[int, ...] = ()):
        es = exponents
        if list(es) != sorted(es) or (es and es[0] < 1) or (p is None) != (not es):
            raise ValueError(f"not a normalized p-group: p={p}, exponents={es}")
        self._set(p=p, exponents=exponents)

    # -- constructors ------------------------------------------------------

    @classmethod
    def of(cls, p: int | None, exponents) -> "AbelianGroup":
        """Z/p^e over the exponents e, zeros dropped, in any order."""
        es = tuple(sorted(e for e in exponents if e))
        return cls(p if es else None, es)

    @classmethod
    def trivial(cls) -> "AbelianGroup":
        return cls()

    @classmethod
    def from_orders(cls, orders) -> "AbelianGroup":
        """Z/n1 + Z/n2 + ... where every n > 1 is a power of one prime."""
        p, es = None, []
        for n in orders:
            n = int(n)
            if n == 0:
                raise ValueError("infinite cyclic factors are out of scope")
            if n != 1:
                q, e = prime_power(n)
                p = _one_prime(p, q)
                es.append(e)
        return cls.of(p, es)

    @classmethod
    def cyclic(cls, n: int) -> "AbelianGroup":
        return cls.from_orders([n])

    @classmethod
    def elementary(cls, p: int, rank: int) -> "AbelianGroup":
        return cls.of(p, [1] * rank)

    # -- structure ---------------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.exponents)

    @property
    def is_trivial(self) -> bool:
        return not self.exponents

    def order_exponent(self, p: int) -> int:
        """log_p |A| (errors if A is not a p-group)."""
        if self.p not in (None, p):
            raise ValueError(f"not a {p}-group: {self.render()}")
        return sum(self.exponents)

    def is_elementary(self, p: int) -> bool:
        return self.p in (None, p) and all(e == 1 for e in self.exponents)

    def render_factors(self) -> list[str]:
        """Each cyclic order as p^e, or p for e = 1."""
        return [f"{self.p}^{e}" if e > 1 else f"{self.p}" for e in self.exponents]

    def render(self) -> str:
        return "[" + ",".join(self.render_factors()) + "]"

    def __str__(self) -> str:
        return self.render()


def _one_prime(*primes: int | None) -> int | None:
    """The one prime among `primes` (None stands for the trivial group)."""
    found = {q for q in primes if q is not None}
    if len(found) > 1:
        raise ValueError(f"mixed primes {sorted(found)}")
    return found.pop() if found else None


# -- Smith normal form: the one eliminator --------------------------------


class InfiniteCokernel(ValueError):
    """A cokernel that must be finite has a free column."""


def snf(rows: list[dict[int, int]], width: int, p: int, k: int) -> list[int]:
    """The Smith form of the integer matrix with {column: entry} rows over
    columns 0..width-1, read p-locally over Z_{p^k}.

    Cokernel convention: returns one valuation per column, the diagonal's
    p-adic valuations (ascending) padded with k for columns without a
    pivot.  Z^width / rowspace, localized at p, is the sum of Z/p^v over
    the valuations v < k, plus one summand of order at least p^k -- Z, or
    torsion too large to see -- for each valuation k.  So a cokernel whose
    torsion has exponent dividing p^n is read exactly at k = n + 1.
    Torsion prime to p has unit pivots and is invisible here.

    The rows are consumed (a caller that keeps its rows hands over copies):
    reduced in place, an entry mod p^k when first touched.  One pass,
    shortest row first, takes every unit pivot; a row left with a unit
    pivots on the unit whose column the fewest input rows touch, and its
    row and column drop out with valuation 0.  No pivot row holds another
    pivot's column: a new pivot on c is substituted out of the pivot rows
    holding c (`holders` indexes them), so one pass over a row's pivot
    columns reduces it.  A row left without a unit is zero mod p and stays
    so; it waits, and is reduced against every pivot at the end.  These
    rows finish by least valuation: the entry of valuation v clears its
    column, its row and column drop out with valuation v, and the rest
    stays a multiple of p^v, so the valuations ascend.  Python ints are
    exact at any modulus.
    """
    m = p ** k
    touch = Counter(j for row in rows for j in row)
    pivots: dict[int, dict[int, int]] = {}  # pivot column -> its row, without its own 1
    holders: dict[int, set[int]] = defaultdict(set)  # column -> pivots whose rows hold it

    def reduce(row: dict[int, int]) -> dict[int, int]:
        for c in row.keys() & pivots.keys():
            f = row.pop(c)
            for j, v in pivots[c].items():
                if w := (row.get(j, 0) - f * v) % m:
                    row[j] = w
                else:
                    row.pop(j, None)
        return row

    waiting = []
    for row in sorted(rows, key=len):
        units = [j for j, v in reduce(row).items() if v % p]
        if units:
            c = min(units, key=touch.__getitem__)
            inv = pow(row.pop(c), -1, m)
            new = {j: w for j, v in row.items() if (w := v * inv % m)}
            for q in holders.pop(c, ()):
                old = pivots[q]
                f = old.pop(c)
                for j, v in new.items():
                    if w := (old.get(j, 0) - f * v) % m:
                        holders[j].add(q)
                        old[j] = w
                    elif old.pop(j, 0):
                        holders[j].discard(q)
            for j in new:
                holders[j].add(c)
            pivots[c] = new
        elif row:
            waiting.append(row)
    # drop untouched multiples of p^k, which the finish would read as pivots
    rest = [row for row in ({j: e % m for j, e in reduce(row).items() if e % m}
                            for row in waiting) if row]
    vals: list[int] = []
    while rest:
        v = vals[-1] if vals else 0
        while not (hit := next(((row, j) for row in rest for j, e in row.items()
                                if e % p ** (v + 1)), None)):
            v += 1
        row, c = hit
        inv = pow(row.pop(c) // p ** v, -1, m)
        for other in rest:
            f = other.pop(c, 0) // p ** v * inv % m  # 0 on row itself
            for j, e in row.items() if f else ():
                other[j] = w = (other.get(j, 0) - f * e) % m
                if not w:
                    del other[j]
        rest = [other for other in rest if other and other is not row]
        vals.append(v)
    return [0] * len(pivots) + vals + [k] * (width - len(pivots) - len(vals))


def snf_group(rows: list[dict[int, int]], width: int, p: int, k: int) -> AbelianGroup:
    """`snf`'s cokernel, of order dividing p^(k-1), as an AbelianGroup;
    InfiniteCokernel if a column reads free."""
    vals = snf(rows, width, p, k)
    if free := vals.count(k):
        raise InfiniteCokernel(f"cokernel is infinite: {free} of {width} columns free")
    return AbelianGroup.of(p, vals)


# -- tensor / exterior / direct-product calculus ----------------------------


def tensor(a: AbelianGroup, b: AbelianGroup) -> AbelianGroup:
    """Tensor product: Z/p^min(e, f) over all factor pairs."""
    return AbelianGroup.of(_one_prime(a.p, b.p),
                           [min(e, f) for e in a.exponents for f in b.exponents])


def exterior_square(a: AbelianGroup) -> AbelianGroup:
    """Exterior square: Z/p^min(e_i, e_j) over i < j; equals M(a).  The
    exponents ascend, so the minimum is e_i."""
    return AbelianGroup.of(a.p, [e for e, _ in combinations(a.exponents, 2)])


def direct_sum(*groups: AbelianGroup) -> AbelianGroup:
    return AbelianGroup.of(_one_prime(*(g.p for g in groups)),
                           [e for g in groups for e in g.exponents])


def kunneth(m_a: AbelianGroup, m_b: AbelianGroup,
            a_ab: AbelianGroup, b_ab: AbelianGroup) -> AbelianGroup:
    """Multiplier of a direct product from the factors' multipliers and
    abelianizations: M(A) + M(B) + (A^ab tensor B^ab)."""
    return direct_sum(m_a, m_b, tensor(a_ab, b_ab))
