"""Ground-truth Schur multipliers from a Cayley table, by Hopf's formula.

The oracle works from a Cayley table alone.  Take the free group F on a
minimal generating set S and G = F/R.  Hopf's formula gives
M(G) = (R cap [F,F]) / [F,R], and R/[F,R] = M(G) + Z^|S|: its torsion is
M(G), and R/(R cap [F,F]) is a subgroup of finite index in F/[F,F] = Z^|S|.
R is the fundamental group of the Cayley graph Gamma(G, S), so R/[R,R] is
H_1(Gamma) with G acting by left translation, and R/[F,R] is its module of
G-coinvariants (Gruenberg, Cohomological Topics in Group Theory, LNM 143,
1970; Brown, Cohomology of Groups, II.5).

Basis.  A BFS tree from the identity over S spans Gamma; each of the
N(|S| - 1) + 1 edges x -> xs off the tree closes one cycle c_e: the tree
path 1 -> y, the edge e = (y, s_i), and the tree path back from y s_i.
The c_e are a basis of H_1(Gamma), and a cycle's coordinates in it are its
signed counts of non-tree edges, since c_e crosses e and no other.

Relations.  The coinvariants are H_1(Gamma) / I_G H_1(Gamma).  As a right
ideal, I_G is generated by the s - 1 with s in S (s g - 1 = (s - 1) g +
(g - 1), by induction on word length), so I_G H_1(Gamma) is spanned by the
rows s.c_e - c_e for s in S, where s maps the edge x -> x s_j to
s x -> s x s_j.  A row has few entries: the translated edges of one cycle
that land off the tree.

Cokernel.  exp M(G) divides |G| = p^n, so the cokernel is read over
Z_{p^(n+1)} by `abelian.snf_sparse`: summands of valuation 0 < v < n + 1
are M(G), and the columns of valuation n + 1 are the free part.  Their
number must equal |S|; anything else raises `OracleInconsistency`.  The
|S| rows per cycle are held sparsely, so memory grows like |S|^2 N entries
plus fill-in, inside the O(|G|^2) the oracle is allowed.

`h2_trivial_coeffs` and `abelianization_from_table` are the earlier oracle.
Nothing in the report calls them; they stay as the independent reference
the tests compare M(G) with, and because `bench/tracer.py` times them by
name.  The reference rests on this:
H^2(G, Z_m) for m = |G| splits as Ext(G^ab, Z_m) + Hom(M(G), Z_m), and
both summands collapse to G^ab and M(G) because their exponents divide
|G|, so M(G) is the multiset difference of the H^2 and G^ab invariants.
H^2 is solved over Z_m from the cocycle identity

    f(x,y) + f(xy,z) = f(y,z) + f(x,yz)

written with z = s in S, so that every unknown f(x, z) with z outside S
is eliminated along the BFS factorization z = y*s and the cocycle space is
parametrized by the (N-1)*|S| values f(x, s); the identity for arbitrary z
then follows by induction on word length.  A gauge removes N-1-|S| of
those values: adding dg, with g built along the tree by
g(ys) = g(y) + g(s) + f(y, s), sets f(y, s) = 0 on every tree edge with
y != 1, leaving (N-1)(|S|-1) + |S| unknowns; the coboundaries that keep
the gauge are spanned by the |S| residual coboundaries dg_j,
g_j(s_i) = [i = j].  The full cocycle module is the gauged module plus
one free Z_m summand per dropped edge, so the reported pivots,
width - #{a_i = 0}, do not depend on the gauge.

The constraints are met block by block: G holds generators of the
solution module of every block so far, a block B costs the product
resid = B G mod m, and if some rows are nonzero G becomes G C, C
generating the kernel of those rows.  One SNF at the end,
U G^T V = diag(p^{a_i}), gives the cocycle module as the sum of the
Z/p^{k-a_i} and the coordinates (V^T d)_i / p^{a_i} of a coboundary d; a
closing pass checks every block against the final G.  Its phi table holds
N^2 * width entries, O(|G|^3), which is why it no longer serves the
report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .abelian import (AbelianGroup, _kernel_mod, _snf_local, prime_power, snf, snf_sparse,
                      valuation)
from .cayley import CayleyTable
from .results import METHOD_ORACLE, MultiplierResult

DEFAULT_ORACLE_CAP = 128
DEFAULT_MEMORY_BUDGET = 1 << 30


class MemoryBudgetError(MemoryError):
    pass


class OracleInconsistency(RuntimeError):
    """A cornerstone identity broke: the coinvariants' free rank is not |S|,
    or the H^2 reference's cocycle checks failed."""


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
        if any(self.modulus % self.invariants.p ** e for e in self.invariants.exponents):
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
    diag, wv = _snf_local(kern.T, p, k, d_cols)
    stats.pivots = width - diag.count(0)
    tcount = len(diag)
    a = np.array(diag, dtype=np.int64)
    scale = p ** a[:, None]
    if wv[tcount:].any() or (wv[:tcount] % scale).any():
        raise OracleInconsistency("coboundary escaped the cocycle kernel")
    coords = wv[:tcount] // scale

    # H^2 = kernel / coboundaries: relation rows p^{k-a_i} g_i = 0, then one
    # row per coboundary; valuation k marks a Z_{p^k} summand (its order
    # relation p^k g = 0 vanishes mod m)
    rel = np.zeros((tcount + ns, tcount), dtype=np.int64)
    rel[range(tcount), range(tcount)] = p ** (k - a)
    rel[tcount:] = coords.T
    invs = AbelianGroup.of(p, snf(rel, p, k))
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
    return AbelianGroup.of(p, out)


def cycle_relations(table: CayleyTable,
                    gens: list[int]) -> tuple[int, list[list[dict[int, int]]]]:
    """The relation rows of H_1(Gamma)_G for Gamma = Gamma(G, gens).

    Returns the number of non-tree edges, which index the cycle basis, and
    for each s in gens the block of rows s.c_e - c_e over every cycle c_e,
    as {non-tree edge: signed count} dicts (zeros dropped).
    """
    ns = len(gens)
    n = table.n
    t = np.asarray(table.table, dtype=np.int64)

    # BFS tree: z = parent[z] * gens[letter[z]]
    parent = np.zeros(n, dtype=np.int64)
    letter = np.zeros(n, dtype=np.int64)
    depth = np.full(n, -1, dtype=np.int64)
    depth[0] = 0
    tree = np.zeros((n, ns), dtype=bool)
    frontier = [0]
    while frontier:
        nxt = []
        for y in frontier:
            for si, s in enumerate(gens):
                z = int(t[y, s])
                if depth[z] < 0:
                    parent[z], letter[z], depth[z] = y, si, depth[y] + 1
                    tree[y, si] = True
                    nxt.append(z)
        frontier = nxt
    if (depth < 0).any():
        raise RuntimeError("generating set failed to reach the whole group")

    # col[x, si]: the index of the non-tree edge x -> x s_i, -1 on the tree
    ys, letters = np.nonzero(~tree)
    ncycles = len(ys)
    col = np.full((n, ns), -1, dtype=np.int64)
    col[ys, letters] = np.arange(ncycles)
    zs = t[ys, np.asarray(gens, dtype=np.int64)[letters]]

    # c_e = (tree path 1 -> y) + e - (tree path 1 -> z); walking y and z up
    # to their meeting point leaves the tree edges parent[w] -> w that the
    # cycle crosses, forward (+1) on y's side and backward (-1) on z's.
    cyc, nodes, signs = [], [], []
    a, b = ys.copy(), zs.copy()
    ids = np.arange(ncycles)
    while True:
        apart = a != b
        if not apart.any():
            break
        for x, sign, up in ((a, 1, apart & (depth[a] >= depth[b])),
                            (b, -1, apart & (depth[b] >= depth[a]))):
            cyc.append(ids[up])
            nodes.append(x[up])
            signs.append(np.full(int(up.sum()), sign))
            x[up] = parent[x[up]]
    cyc, nodes, signs = (np.concatenate(v) for v in (cyc, nodes, signs))

    blocks = []
    for s in gens:
        # s maps the edge x -> x s_j to s x -> s x s_j; a tree edge may land
        # off the tree, and then counts
        c = np.concatenate([col[t[s, parent[nodes]], letter[nodes]],
                            col[t[s, ys], letters], ids])
        r = np.concatenate([cyc, ids, ids])
        w = np.concatenate([signs, np.ones(ncycles, np.int64), -np.ones(ncycles, np.int64)])
        on = c >= 0
        keys, inv = np.unique(r[on] * ncycles + c[on], return_inverse=True)
        sums = np.bincount(inv, weights=w[on]).astype(np.int64)
        rows: list[dict[int, int]] = [{} for _ in range(ncycles)]
        for key, v in zip(keys.tolist(), sums.tolist()):
            if v:
                rows[key // ncycles][key % ncycles] = v
        blocks.append(rows)
    return ncycles, blocks


def multiplier_from_table(table: CayleyTable, p: int) -> MultiplierResult:
    """M(G) as the torsion of the G-coinvariants of H_1 of the Cayley graph."""
    m = table.n
    if m == 1:
        return MultiplierResult(p, AbelianGroup.trivial(), METHOD_ORACLE,
                                trace=("oracle: trivial group",))
    gens = table.generating_set()
    ncycles, blocks = cycle_relations(table, gens)
    rows = [row for block in blocks for row in block]
    k = valuation(m, p) + 1
    vals = snf_sparse(rows, ncycles, p, k)
    free = vals.count(k)
    if free != len(gens):
        raise OracleInconsistency(f"oracle: free rank {free} != {len(gens)} generators")
    invs = AbelianGroup.of(p, [v for v in vals if v < k])
    trace = (f"oracle: N={m}, d={len(gens)}, cycles={ncycles}, relations={len(rows)}, "
             f"free={free} -> {invs.render()}",)
    return MultiplierResult(p, invs, METHOD_ORACLE, trace=trace)


def multiplier_via_oracle(pres) -> MultiplierResult:
    """M(G) from the Cayley table of a presentation, up to DEFAULT_ORACLE_CAP."""
    from .pcgroup import cayley_table

    return multiplier_from_table(cayley_table(pres, cap=DEFAULT_ORACLE_CAP), pres.p)
