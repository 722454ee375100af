"""Finite abelian groups as invariant-factor chains.

Groups are stored as divisibility chains d1 | d2 | ... with every d_i kept
as a prime factorization (never a bare integer), so that orders like p^22
stay exact at any prime.  The operations here are the abelian half of the
multiplier calculus: Smith normal form, tensor products, exterior squares,
and the direct-product identity M(A x B) = M(A) + M(B) + A^ab (x) B^ab.

There is one Smith-form engine, the modular eliminator `_snf_local` over
Z_{p^k}; `_kernel_mod` solves with it and `snf` reads cokernels with it.
Every cokernel read here is a p-group plus free summands, so working
p-locally loses nothing as long as p^k exceeds its torsion: central tails,
abelianizations and abelian subgroups of a group of order p^n run at
k = n + 1 (exp M(G) and every quotient's order divide p^n, and a column
with valuation n + 1 can only be free), the cohomology oracle at
k = log_p |G|, and the tensor construction's ranks and kernels and the
centre's nullspace at k = 1, where the diagonal's length is the GF(p) rank."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np


def _factorize(n: int) -> tuple[tuple[int, int], ...]:
    if n < 1:
        raise ValueError(f"cannot factor non-positive order {n}")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


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
    f = _factorize(m) if m >= 2 else ()
    if len(f) != 1:
        raise ValueError(f"{m} is not a prime power")
    return f[0]


def _fact_value(f: tuple[tuple[int, int], ...]) -> int:
    v = 1
    for p, e in f:
        v *= p ** e
    return v


def _fact_gcd(a, b) -> tuple[tuple[int, int], ...]:
    da, db = dict(a), dict(b)
    return tuple(sorted((p, min(e, db[p])) for p, e in da.items() if p in db))


def render_factor(f: tuple[tuple[int, int], ...]) -> str:
    """Render one cyclic order as p^e (composite orders join with '*')."""
    if not f:
        return "1"
    return "*".join(f"{p}^{e}" if e > 1 else f"{p}" for p, e in f)


@dataclass(frozen=True)
class AbelianGroup:
    """A finite abelian group in invariant-factor normal form.

    ``factors`` is the divisibility chain, ascending, each entry a prime
    factorization tuple ((p, e), ...) with value > 1.  The empty chain is
    the trivial group.
    """

    factors: tuple[tuple[tuple[int, int], ...], ...] = ()

    def __post_init__(self):
        vals = [_fact_value(f) for f in self.factors]
        if any(v <= 1 for v in vals):
            raise ValueError(f"invariant factors must exceed 1: {vals}")
        for a, b in zip(vals, vals[1:]):
            if b % a != 0:
                raise ValueError(f"divisibility chain violated: {vals}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def trivial(cls) -> "AbelianGroup":
        return cls(())

    @classmethod
    def from_orders(cls, orders) -> "AbelianGroup":
        """Normalize an arbitrary cyclic decomposition to a divisibility chain."""
        primary: dict[int, list[int]] = {}
        for n in orders:
            n = int(n)
            if n == 0:
                raise ValueError("infinite cyclic factors are out of scope")
            for p, e in _factorize(n):
                primary.setdefault(p, []).append(e)
        return cls.from_primary(primary)

    @classmethod
    def from_primary(cls, primary: dict[int, list[int]]) -> "AbelianGroup":
        """Build from {prime: [exponents]} primary data."""
        cols = {p: sorted(es, reverse=True) for p, es in primary.items() if es}
        k = max((len(es) for es in cols.values()), default=0)
        chain = []
        for j in range(k):  # j = 0 is the largest invariant factor
            f = tuple(sorted((p, es[j]) for p, es in cols.items() if j < len(es)))
            if f:
                chain.append(f)
        chain.reverse()
        return cls(tuple(chain))

    @classmethod
    def cyclic(cls, n: int) -> "AbelianGroup":
        return cls.from_orders([n]) if n > 1 else cls(())

    @classmethod
    def elementary(cls, p: int, rank: int) -> "AbelianGroup":
        return cls.from_orders([p] * rank)

    # -- structure ---------------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.factors)

    @property
    def is_trivial(self) -> bool:
        return not self.factors

    def order_factorization(self) -> Counter:
        """Group order as a {prime: exponent} counter, never a raw integer."""
        total: Counter = Counter()
        for f in self.factors:
            for p, e in f:
                total[p] += e
        return total

    def order_exponent(self, p: int) -> int:
        """log_p |A| for a p-group (errors if another prime divides the order)."""
        of = self.order_factorization()
        if any(q != p for q in of):
            raise ValueError(f"not a {p}-group: order {dict(of)}")
        return of.get(p, 0)

    def primary_exponents(self, p: int) -> list[int]:
        """Exponent partition of the p-primary component, descending."""
        out = [e for f in self.factors for q, e in f if q == p]
        return sorted(out, reverse=True)

    def exponent(self) -> int:
        return _fact_value(self.factors[-1]) if self.factors else 1

    def factor_values(self) -> list[int]:
        return [_fact_value(f) for f in self.factors]

    def is_elementary(self, p: int) -> bool:
        return all(f == ((p, 1),) for f in self.factors)

    def render(self) -> str:
        return "[" + ",".join(render_factor(f) for f in self.factors) + "]"

    def __str__(self) -> str:
        return self.render()


# -- Smith normal form: the one eliminator --------------------------------


def _snf_local(a, p: int, k: int, track: np.ndarray | None = None):
    """Diagonalize over Z_{p^k} by min-valuation pivoting.

    Returns (diagonal valuations, V^T @ track) where the column change of
    basis satisfies A_new = U A V for some invertible U; neither U nor V is
    materialized.  A column operation on A is a row operation on V^T, so
    only V^T @ track is carried along (None: nothing is).  With the
    global-minimum pivot, one sweep of row operations clears the pivot's
    column and one sweep of column operations its row, exactly (all
    quotients divide out), so no Euclid iteration is needed, and the
    valuations come out ascending.  Entries stay below m = p^k, so every
    product is below m^2: int64 while m^2 < 2^63, Python ints (object
    dtype) past that, so the result is exact at every modulus.
    """
    m = p ** k
    dtype = np.int64 if m * m < 2 ** 63 else object
    a = np.asarray(a, dtype=dtype) % m
    rows, cols = a.shape
    x = None if track is None else np.asarray(track, dtype=dtype) % m
    diag_vals: list[int] = []
    t = 0
    limit = min(rows, cols)
    while t < limit:
        sub = a[t:, t:]
        # least p-adic valuation, searching unit entries first
        pi = pj = -1
        pv = k
        for v in range(k):
            mask = (sub % (p ** (v + 1))) != 0
            if mask.any():
                idx = int(np.argmax(mask))
                pi, pj = divmod(idx, cols - t)
                pi += t
                pj += t
                pv = v
                break
        if pi < 0:
            break
        if pi != t:
            a[[t, pi]] = a[[pi, t]]
        if pj != t:
            a[:, [t, pj]] = a[:, [pj, t]]
            if x is not None:
                x[[t, pj]] = x[[pj, t]]
        e = int(a[t, t])
        unit = e // (p ** pv)
        if unit != 1:
            a[t] = (a[t] * pow(unit, -1, m)) % m
        nzr = t + 1 + np.nonzero(a[t + 1:, t])[0]
        if nzr.size:
            q = (a[nzr, t] // (p ** pv)) % m
            a[nzr, t:] = (a[nzr, t:] - q[:, None] * a[t, t:]) % m
        # column t is now zero outside row t, so the column operations that
        # clear row t change nothing else; only V^T @ track records them
        cols_idx = t + 1 + np.nonzero(a[t, t + 1:])[0]
        if x is not None and cols_idx.size:
            q = (a[t, cols_idx] // (p ** pv)) % m
            x[cols_idx] = (x[cols_idx] - q[:, None] * x[t]) % m
        a[t, t + 1:] = 0
        diag_vals.append(pv)
        t += 1
    return diag_vals, x


def snf(matrix, p: int, k: int) -> list[int]:
    """The Smith form of an integer matrix, read p-locally over Z_{p^k}.

    Cokernel convention: returns one valuation per column, the diagonal's
    p-adic valuations (ascending) padded with k for columns without a
    pivot.  Z^cols / rowspace, localized at p, is the sum of Z/p^v over the
    valuations v < k, plus one summand of order at least p^k -- Z, or
    torsion too large to see -- for each valuation k.  So a cokernel whose
    torsion has exponent dividing p^n is read exactly at k = n + 1.
    Torsion prime to p has unit pivots and is invisible here; it cannot
    occur for a consistent presentation of a p-group, whose cokernels are
    p-groups plus free summands.
    """
    if not len(matrix):
        return []
    vals, _ = _snf_local(matrix, p, k)
    return vals + [k] * (len(matrix[0]) - len(vals))


def snf_group(matrix, p: int, k: int) -> AbelianGroup:
    """Cokernel of an integer matrix, of order dividing p^(k-1), as an
    AbelianGroup."""
    vals = snf(matrix, p, k)
    if any(v >= k for v in vals):
        raise ValueError("cokernel is infinite")
    return AbelianGroup.from_primary({p: [v for v in vals if v]})


def _kernel_mod(rows: np.ndarray, width: int, p: int, k: int) -> np.ndarray:
    """Generators (columns) of the solutions of rows @ u = 0 over Z_{p^k}.

    With U rows V = diag(p^{a_j}), u = V w solves it exactly when each
    p^{a_j} w_j vanishes, i.e. w_j is a multiple of p^{k-a_j}; coordinates
    past the last pivot are free (a_j = k), and a unit pivot admits only 0.
    """
    diag_vals, v_t = _snf_local(rows, p, k, np.eye(width, dtype=np.int64))
    a = np.array(diag_vals + [k] * (width - len(diag_vals)), dtype=v_t.dtype)
    keep = a > 0
    return (v_t[keep] * p ** (k - a[keep, None]) % p ** k).T


# -- tensor / exterior / direct-product calculus ----------------------------


def tensor(a: AbelianGroup, b: AbelianGroup) -> AbelianGroup:
    """Tensor product: direct sum of Z_gcd(d_i, e_j) over all factor pairs."""
    parts = []
    for f in a.factors:
        for g in b.factors:
            h = _fact_gcd(f, g)
            if h:
                parts.append(_fact_value(h))
    return AbelianGroup.from_orders(parts)


def exterior_square(a: AbelianGroup) -> AbelianGroup:
    """Exterior square: sum of Z_gcd(d_i, d_j) over i < j; equals M(a)."""
    parts = []
    fs = a.factors
    for i in range(len(fs)):
        for j in range(i + 1, len(fs)):
            h = _fact_gcd(fs[i], fs[j])
            if h:
                parts.append(_fact_value(h))
    return AbelianGroup.from_orders(parts)


def direct_sum(*groups: AbelianGroup) -> AbelianGroup:
    parts = []
    for g in groups:
        parts.extend(g.factor_values())
    return AbelianGroup.from_orders(parts)


def kunneth(m_a: AbelianGroup, m_b: AbelianGroup,
            a_ab: AbelianGroup, b_ab: AbelianGroup) -> AbelianGroup:
    """Multiplier of a direct product from the factors' multipliers and
    abelianizations: M(A) + M(B) + (A^ab tensor B^ab), renormalized."""
    return direct_sum(m_a, m_b, tensor(a_ab, b_ab))
