"""Ground-truth Schur multipliers from a Cayley table, by Hopf's formula.

The oracle works from a Cayley table alone.  Take the free group F on a
minimal generating set S and G = F/R.  Hopf's formula gives
M(G) = (R cap [F,F]) / [F,R], and R/[F,R] = M(G) + Z^|S|: its torsion is
M(G), and R/(R cap [F,F]) is a subgroup of finite index in F/[F,F] = Z^|S|.
R is the fundamental group of the Cayley graph Gamma(G, S), so R/[R,R] is
H_1(Gamma) with G acting by left translation, and R/[F,R] is its module of
G-coinvariants (Gruenberg, Cohomological Topics in Group Theory, LNM 143,
1970; Brown, Cohomology of Groups, II.5).

Basis.  `cayley.walk` gives a BFS tree from the identity over S that spans
Gamma; each of the N(|S| - 1) + 1 edges x -> xs off the tree closes one
cycle c_e: the tree path 1 -> y, the edge e = (y, s_i), and the tree path
back from z = y s_i.  The c_e are a basis of H_1(Gamma), and a cycle's
coordinates in it are its signed counts of non-tree edges, since c_e
crosses e and no other.

Relations.  The coinvariants are H_1(Gamma) / I_G H_1(Gamma).  As a right
ideal, I_G is generated by the s - 1 with s in S (s g - 1 = (s - 1) g +
(g - 1), by induction on word length), so I_G H_1(Gamma) is spanned by the
rows s.c_e - c_e for s in S, where s maps the edge x -> x s_j to
s x -> s x s_j.  One pass down the tree per s builds path_s[z], the
non-tree edges among the translates of the tree path 1 -> z: path_s[parent
z], plus the translated edge into z if it is off the tree.  The row of e is
+1 on path_s[y] less path_s[z], -1 on path_s[z] less path_s[y], +1 on s e
if it is off the tree, and -1 on e.

Cokernel.  exp M(G) divides |G| = p^n, so `abelian.snf_sparse` reads the
cokernel over Z_{p^(n+1)} in the rows' own dicts, which it consumes,
|S|^2 N entries plus fill-in.  Each unit pivot is substituted out of the
earlier pivot rows, so every row is reduced in one pass over the pivot
columns it holds, and the unit-free rest is finished by least-valuation
pivoting.  Summands
of valuation 0 < v < n + 1 are M(G); the columns of valuation n + 1 are
the free part, and their number must be |S| (else `OracleInconsistency`).

`h2_trivial_coeffs` and `abelianization_from_table` are the earlier oracle.
Nothing in the report calls them; they stay as the independent reference
the tests compare M(G) with, and because `bench/tracer.py` times them by
name.  The H^2 path (`h2_trivial_coeffs`, `_mod`, `_restrict`) is dense
numpy and imports it inside itself, so the report never loads it.  The
reference rests on this:
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

from .abelian import (AbelianGroup, _kernel_mod, _snf_local, prime_power, snf, snf_sparse,
                      valuation)
from .cayley import CayleyTable, walk
from .record import Frozen, Record
from .results import METHOD_ORACLE, MultiplierResult

DEFAULT_ORACLE_CAP = 128
DEFAULT_MEMORY_BUDGET = 1 << 30


class MemoryBudgetError(MemoryError):
    pass


class OracleInconsistency(RuntimeError):
    """A cornerstone identity broke: the coinvariants' free rank is not |S|,
    or the H^2 reference's cocycle checks failed."""


class EliminationStats(Record):
    _fields = ("equations", "pivots", "verified")

    def __init__(self, equations: int = 0, pivots: int = 0, verified: int = 0):
        self.equations = equations
        self.pivots = pivots
        self.verified = verified


class H2Result(Frozen):
    """H^2 with its modulus; the elimination's stats are not compared."""

    _fields = ("modulus", "invariants", "stats")
    _compared = ("modulus", "invariants")

    def __init__(self, modulus: int, invariants: AbelianGroup,
                 stats: EliminationStats | None = None):
        if any(modulus % invariants.p ** e for e in invariants.exponents):
            raise ValueError("every invariant factor must divide the modulus")
        self._set(modulus=modulus, invariants=invariants,
                  stats=EliminationStats() if stats is None else stats)

    def order_exponent(self, p: int) -> int:
        return self.invariants.order_exponent(p)


def _mod(x, m: int):
    """x mod m for a float64 array of integers with |x| + m < 2^53.

    x / m is then within half an ulp of no integer it does not equal, so
    its floor is exact; ten times faster than float64 %.
    """
    import numpy as np
    return x - m * np.floor(x / m)


def _residue(block, gens, m: int):
    # block entries are at most 2N in size and gens entries below m, so every
    # sum is below 2N * m * width < 2^53: exact in BLAS
    return _mod(block @ gens, m)


def _restrict(gens, block, p: int, k: int):
    """Generators of {u in span(gens) : block @ u = 0}, from those of span(gens).

    A member gens @ x is annihilated exactly when x solves the residue
    block @ gens, so gens times that kernel's generators spans the meet.
    Only the nonzero rows of the residue constrain x; with none, the block
    is implied and gens stands.
    """
    import numpy as np
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
    """Invariant factors of H^2(G, Z_m) for the group of a Cayley table.
    A dense reference that needs numpy, which it imports itself."""
    import numpy as np
    p, k = prime_power(m)
    n = table.n
    stats = EliminationStats()
    if n == 1:
        return H2Result(m, AbelianGroup.trivial(), stats)

    gens = table.generating_set()
    ns = len(gens)
    t = np.asarray(table.table, dtype=np.int64)

    # BFS factorization z = parent[z] * gens[letter[z]], z after 1 in the order reached
    order, parent, letter = walk(table.table, gens)
    if len(order) != n:
        raise RuntimeError("generating set failed to reach the whole group")

    # gauge: f(y, s) = 0 on every tree edge y*s with y != 1.  col[x, si] is
    # the unknown index of f(x, gens[si]), and -1 where f is fixed at zero
    # (x = 1 or a tree edge); the free (x, si) are also the blocks below.
    free = np.ones((n, ns), dtype=bool)
    free[0] = False
    free[list(parent.values()), list(letter.values())] = False
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
    for z in parent:
        y, si = parent[z], letter[z]
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
    for z in parent:
        y, si = parent[z], letter[z]
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
    as {non-tree edge: signed count} dicts, keys ascending (zeros dropped).
    """
    n, ns = table.n, len(gens)
    t = table.table
    order, parent, letter = walk(t, gens)
    if len(order) != n:
        raise RuntimeError("generating set failed to reach the whole group")
    tree = set(zip(parent.values(), letter.values()))
    edges = [(y, i) for y in range(n) for i in range(ns) if (y, i) not in tree]
    col = [[-1] * ns for _ in range(n)]  # col[y][i]: the edge y -> y s_i, -1 on the tree
    for c, (y, i) in enumerate(edges):
        col[y][i] = c

    blocks = []
    for s in gens:
        left = t[s]  # left[x] = s x
        # path[z]: the non-tree edges among the translates by s of the edges
        # of the tree path 1 -> z, as a bit set (translation is injective)
        path = [0] * n
        for z in parent:  # in the order reached
            c = col[left[parent[z]]][letter[z]]
            path[z] = path[parent[z]] if c < 0 else path[parent[z]] | 1 << c
        rows = []
        for e, (y, i) in enumerate(edges):
            # s.c_e = s(1 -> y) + s e - s(1 -> z): their shared head cancels
            py, pz = path[y], path[t[y][gens[i]]]
            plus, minus = py & ~pz, pz & ~py
            c = col[left[y]][i]
            if c >= 0:
                plus |= 1 << c
            row = {}
            rest = plus | minus | 1 << e  # - c_e crosses e alone
            while rest:
                low = rest & -rest
                rest ^= low
                c = low.bit_length() - 1
                v = (plus >> c & 1) - (minus >> c & 1) - (c == e)
                if v:
                    row[c] = v
            rows.append(row)
        blocks.append(rows)
    return len(edges), blocks


def multiplier_from_table(table: CayleyTable, p: int) -> MultiplierResult:
    """M(G) as the torsion of the G-coinvariants of H_1 of the Cayley graph."""
    m = table.n
    k = valuation(m, p) + 1  # exp M(G) divides m = p^(k-1)
    if m != p ** (k - 1):
        raise ValueError(f"the order {m} is not a power of p = {p}")
    if m == 1:
        return MultiplierResult(p, AbelianGroup.trivial(), METHOD_ORACLE,
                                trace=("oracle: trivial group",))
    gens = table.generating_set()
    ncycles, blocks = cycle_relations(table, gens)
    rows = [row for block in blocks for row in block]
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
    from .pcgroup import SizeCapError, cayley_table

    if (n := pres.group_order()) > DEFAULT_ORACLE_CAP:
        raise SizeCapError(f"group order {n} exceeds the Cayley table cap {DEFAULT_ORACLE_CAP}")
    return multiplier_from_table(cayley_table(pres), pres.p)
