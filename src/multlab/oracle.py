"""Ground-truth Schur multipliers via exact second cohomology over Z_m.

The oracle works from a Cayley table alone.  Normalized 2-cochains
f: G x G -> Z_m (f(1,.) = f(.,1) = 0) satisfy the cocycle identity

    f(x,y) + f(xy,z) = f(y,z) + f(x,yz)

for all triples; coboundaries are dg(x,y) = g(x) + g(y) - g(xy).  Writing
the identity with z = s for a generating set S lets every unknown f(x, z)
with z outside S be eliminated along a fixed factorization z = y*s (a BFS
tree), so the cocycle space is parametrized by the (N-1)*|S| values
f(x, s).  The remaining instances of the identity become linear
constraints over Z_m on those values; the identity for arbitrary z then
follows by induction on word length, because associativity of the twisted
product composes.

A gauge removes N-1-|S| of those values.  Adding dg, with g built along
the tree by g(ys) = g(y) + g(s) + f(y, s), sets f(y, s) = 0 on every tree
edge with y != 1, so each class has a cocycle that vanishes there, and
only (N-1)(|S|-1) + |S| unknowns remain.  The coboundaries that keep the
gauge are the dg with g additive along the tree; they are spanned by the
|S| residual coboundaries dg_j, g_j(s_i) = [i = j], so H^2 is the gauged
cocycle module modulo those.  The full cocycle module maps onto the
dropped coordinates (by coboundaries) with the gauged module as kernel, so
it is the gauged module plus one free Z_m summand per dropped edge: the
width and #{a_i = 0} below both fall by N-1-|S|, and the reported pivots,
width - #{a_i = 0}, do not change.

The constraints are generated block by block.  The oracle holds
generators G of the solution module of every block so far, starting from
the identity.  A block B costs one product, resid = B G mod m; if some
rows are nonzero, G becomes G C with zero columns dropped, where C
generates the kernel of those rows (an SNF of a rows x t matrix, t the
column count of G).  A solution of B inside span(G) is G x with
resid x = 0, so span(G) is always exactly the solution module, and a block
implied by the earlier ones shrinks nothing.  At the end one SNF,
U G^T V = diag(p^{a_i}), gives span(G) = V^{-T}(sum p^{a_i} e_i): the
cocycle module is the sum of the Z/p^{k-a_i}, a coboundary d has
coordinates (V^T d)_i / p^{a_i}, and the equations' row module needs
width - #{a_i = 0} generators (the reported pivots).  A closing pass
checks every block against the final G.  Memory stays at the DP table plus
a few width^2 matrices (G and the SNF transform).  Every SNF here runs on
the package's one modular eliminator, `abelian._snf_local` / `_kernel_mod`.

H^2(G, Z_m) with m = |G| splits as Ext(G^ab, Z_m) + Hom(M(G), Z_m), and
both summands collapse to G^ab and M(G) because exp(G^ab) and exp(M(G))
divide |G|; the multiplier is therefore the multiset difference of the
H^2 and G^ab invariants.  That identity is asserted against independent
computations in the test suite before anything trusts this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .abelian import AbelianGroup, _kernel_mod, _snf_local, prime_power, valuation
from .cayley import CayleyTable
from .results import METHOD_ORACLE, MultiplierResult

DEFAULT_ORACLE_CAP = 128
DEFAULT_MEMORY_BUDGET = 1 << 30


class MemoryBudgetError(MemoryError):
    pass


class OracleInconsistency(RuntimeError):
    """The H^2 / G^ab multiset difference failed; a cornerstone identity broke."""


@dataclass
class EliminationStats:
    equations: int = 0
    pivots: int = 0
    verified: int = 0


@dataclass(frozen=True)
class H2Result:
    modulus: int
    invariants: AbelianGroup
    stats: EliminationStats = field(compare=False, default_factory=EliminationStats)

    def __post_init__(self):
        if any(self.modulus % d for d in self.invariants.factor_values()):
            raise ValueError("every invariant factor must divide the modulus")

    def order_exponent(self, p: int) -> int:
        return self.invariants.order_exponent(p)


def _mod(x: np.ndarray, m: int) -> np.ndarray:
    """x mod m for float64 integers with |x| + m < 2^53.

    x / m is then within half an ulp of no integer it does not equal, so
    its floor is exact; ten times faster than float64 %.
    """
    return x - m * np.floor(x / m)


def _residue(block: np.ndarray, gens: np.ndarray, m: int) -> np.ndarray:
    # block entries are at most 2N in size and gens entries below m, so every
    # sum is below 2N * m * width < 2^53: exact in BLAS
    return _mod(block @ gens, m)


def _restrict(gens: np.ndarray, block: np.ndarray, p: int, k: int) -> np.ndarray:
    """Generators of {u in span(gens) : block @ u = 0}, from those of span(gens).

    A member gens @ x is annihilated exactly when x solves the residue
    block @ gens, so gens times that kernel's generators spans the meet.
    Only the nonzero rows of the residue constrain x; with none, the block
    is implied and gens stands.
    """
    m = p ** k
    resid = _residue(block, gens, m)
    dirty = resid.any(axis=1)
    if not dirty.any():
        return gens
    c = _kernel_mod(resid[dirty].astype(np.int64), gens.shape[1], p, k)
    gens = _mod(gens @ c, m)
    return gens[:, gens.any(axis=0)]


def h2_trivial_coeffs(table: CayleyTable, m: int, *,
                      memory_budget: int = DEFAULT_MEMORY_BUDGET) -> H2Result:
    """Invariant factors of H^2(G, Z_m) for the group of a Cayley table."""
    p, k = prime_power(m)
    n = table.n
    stats = EliminationStats()
    if n == 1:
        return H2Result(m, AbelianGroup.trivial(), stats)

    gens = table.generating_set()
    ns = len(gens)
    t = np.asarray(table.table, dtype=np.int64)

    # BFS factorization z = parent * s over the generating set
    parent = {0: None}
    order = []
    frontier = [0]
    while frontier:
        nxt = []
        for y in frontier:
            for si, s in enumerate(gens):
                z = int(t[y, s])
                if z not in parent:
                    parent[z] = (y, si)
                    order.append(z)
                    nxt.append(z)
        frontier = nxt
    if len(parent) != n:
        raise RuntimeError("generating set failed to reach the whole group")

    # gauge: f(y, s) = 0 on every tree edge y*s with y != 1.  col[x, si] is
    # the unknown index of f(x, gens[si]), and -1 where f is fixed at zero
    # (x = 1 or a tree edge); the free (x, si) are also the blocks below.
    free = np.ones((n, ns), dtype=bool)
    free[0] = False
    for z in order:
        free[parent[z]] = False
    width = int(free.sum())
    col = np.full((n, ns), -1, dtype=np.int64)
    col[free] = np.arange(width)

    entry = np.dtype(np.int32)
    need = n * n * width * entry.itemsize + (width + n) * width * 8
    if need > memory_budget:
        raise MemoryBudgetError(
            f"estimated {need >> 20} MiB exceeds the budget of {memory_budget >> 20} MiB")

    # DP table: phi[x, z] = coefficient vector of f(x, z) on the unknowns
    phi = np.zeros((n, n, width), dtype=entry)
    for si, s in enumerate(gens):
        rows = np.nonzero(free[:, si])[0]
        phi[rows, s, col[rows, si]] = 1
    for z in order:
        y, si = parent[z]
        if y == 0:
            continue
        # f(x, y s) = f(x, y) + f(xy, s) - f(y, s), and f(y, s) = 0 here
        phi[:, z, :] = phi[:, y, :]
        c = col[t[:, y], si]
        rows = np.nonzero(c >= 0)[0]
        phi[rows, z, c[rows]] += 1

    def make_block(y: int, si: int) -> np.ndarray:
        # integer coefficients, unreduced: each phi entry counts at most one
        # step per letter of a factorization, so it is below N in size
        z = int(t[y, gens[si]])
        block = phi[1:, y, :].astype(np.float64)
        if z != 0:
            block -= phi[1:, z, :]
        c = col[t[1:, y], si]
        rows = np.nonzero(c >= 0)[0]
        block[rows, c[rows]] += 1
        block[:, col[y, si]] -= 1
        return block

    all_blocks = [(y, si) for si in range(ns) for y in range(1, n) if free[y, si]]

    kern = np.eye(width)  # generators of the solutions of every block so far
    for y, si in all_blocks:
        block = make_block(y, si)
        stats.equations += block.shape[0]
        stats.verified += block.shape[0]
        kern = _restrict(kern, block, p, k)

    # closing pass: every block must annihilate the final kernel.  Each block
    # was met with the kernel of the blocks before it, and the kernel only
    # shrinks, so a dirty block is a broken identity.
    for y, si in all_blocks:
        block = make_block(y, si)
        stats.verified += block.shape[0]
        if _residue(block, kern, m).any():
            raise OracleInconsistency(
                f"cocycle block ({y}, {si}) escapes the final kernel")

    # residual coboundaries dg_j, g_j additive along the tree with
    # g_j(s_i) = [i = j]: g_j(x) counts the letters s_j of x's tree word.
    # They span the coboundaries that respect the gauge, so they must vanish
    # off the unknowns (on the x = 1 row they do by definition).
    g = np.zeros((n, ns), dtype=np.int64)
    for z in order:
        y, si = parent[z]
        g[z] = g[y]
        g[z, si] += 1
    dg = g[:, None, :] + g[gens][None, :, :] - g[t[:, gens]]  # dg[x, si, j]
    if dg[~free].any():
        raise OracleInconsistency("a residual coboundary is nonzero on a tree edge")
    d_cols = dg[free] % m

    # U kern^T V = diag(p^{a_i}): span(kern) is V^{-T} (sum of p^{a_i} e_i),
    # so a coboundary d has coordinates (V^T d)_i / p^{a_i}
    diag, wv = _snf_local(kern.T.astype(np.int64), p, k, d_cols)
    stats.pivots = width - diag.count(0)
    tcount = len(diag)
    a = np.array(diag, dtype=np.int64)
    scale = p ** a[:, None]
    if wv[tcount:].any() or (wv[:tcount] % scale).any():
        raise OracleInconsistency("coboundary escaped the cocycle kernel")
    coords = wv[:tcount] // scale

    # H^2 = kernel / coboundaries: relations p^{k-a_i} g_i = 0 and D-columns
    rel = np.zeros((tcount, tcount + ns), dtype=np.int64)
    rel[range(tcount), range(tcount)] = p ** (k - a)
    rel[:, tcount:] = coords
    diag_vals, _ = _snf_local(rel, p, k)
    # positions without a pivot are Z_{p^k} summands (their order relation
    # p^k g = 0 vanishes mod m)
    exps = [min(v, k) for v in diag_vals] + [k] * (tcount - len(diag_vals))
    inv_exps = sorted(v for v in exps if v > 0)
    invs = AbelianGroup.from_primary({p: inv_exps})
    return H2Result(m, invs, stats)


def abelianization_from_table(table: CayleyTable, p: int) -> AbelianGroup:
    """G^ab invariants straight from the table (independent of presentations)."""
    dsub = table.derived_subgroup()
    powers = table.power_map(p)
    # coset order profile: least j with x^{p^j} in G'
    counts: dict[int, int] = {}
    for x in range(table.n):
        j = 0
        y = x
        while y not in dsub:
            y = int(powers[y])
            j += 1
        counts[j] = counts.get(j, 0) + 1
    coset_counts = {j: c // len(dsub) for j, c in counts.items()}
    return _invariants_from_order_counts(coset_counts, p)


def _invariants_from_order_counts(counts: dict[int, int], p: int) -> AbelianGroup:
    """Recover abelian p-group invariants from #elements of each order p^j.

    With invariants p^{e_1}, ..., p^{e_k}, the count of elements of order
    dividing p^j is p^{sum_i min(j, e_i)}; the increments of that profile
    give the number of e_i >= j, i.e. the transposed partition.
    """
    jmax = max(counts) if counts else 0
    exps = []  # exps[j-1] = number of invariants >= p^j
    prev_log = 0
    for j in range(1, jmax + 1):
        running_count = sum(c for o, c in counts.items() if o <= j)
        log = valuation(running_count, p)
        exps.append(log - prev_log)
        prev_log = log
    out = []
    for j in range(len(exps), 0, -1):
        need = exps[j - 1] - (exps[j] if j < len(exps) else 0)
        out.extend([j] * need)
    return AbelianGroup.from_primary({p: out}) if out else AbelianGroup.trivial()


def multiplier_via_oracle(pres) -> MultiplierResult:
    """M(G) = (invariants of H^2(G, Z_|G|)) minus (invariants of G^ab)."""
    from .pcgroup import cayley_table

    table = cayley_table(pres, cap=DEFAULT_ORACLE_CAP)
    p = pres.p
    m = table.n
    if m == 1:
        return MultiplierResult(p, AbelianGroup.trivial(), METHOD_ORACLE,
                                trace=("oracle: trivial group",))
    h2 = h2_trivial_coeffs(table, m)
    gab = abelianization_from_table(table, p)
    h2_exps = h2.invariants.primary_exponents(p)
    gab_exps = gab.primary_exponents(p)
    remaining = list(h2_exps)
    for e in gab_exps:
        if e not in remaining:
            raise OracleInconsistency(
                f"H^2 invariants {h2_exps} do not contain G^ab invariants {gab_exps}")
        remaining.remove(e)
    invs = AbelianGroup.from_primary({p: remaining})
    trace = (
        f"oracle: N={m}, m={m}, H2={h2.invariants.render()}, Gab={gab.render()}, "
        f"eqs={h2.stats.equations}, pivots={h2.stats.pivots}",
    )
    return MultiplierResult(p, invs, METHOD_ORACLE, trace=trace)
