"""Ground-truth Schur multipliers via exact second cohomology over Z_m.

The oracle works from a Cayley table alone.  Normalized 2-cochains
f: G x G -> Z_m (f(1,.) = f(.,1) = 0) satisfy the cocycle identity

    f(x,y) + f(xy,z) = f(y,z) + f(x,yz)

for all triples; coboundaries are dg(x,y) = g(x) + g(y) - g(xy).  Writing
the identity with z = s for a generating set S lets every unknown f(x, z)
with z outside S be eliminated along a fixed factorization z = y*s, so the
cocycle space is parametrized by the (N-1)*|S| values f(x, s).  The
remaining instances of the identity become linear constraints over Z_m on
those values; the identity for arbitrary z then follows by induction on
word length, because associativity of the twisted product composes.  The
constraints are generated block by block and reduced against a pivot basis
immediately (non-unit pivots deferred by p-adic valuation), so memory stays
at the DP table plus (pivot basis)^2.

H^2(G, Z_m) with m = |G| splits as Ext(G^ab, Z_m) + Hom(M(G), Z_m), and
both summands collapse to G^ab and M(G) because exp(G^ab) and exp(M(G))
divide |G|; the multiplier is therefore the multiset difference of the
H^2 and G^ab invariants.  That identity is asserted against independent
computations in the test suite before anything trusts this module.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .abelian import AbelianGroup
from .cayley import CayleyTable
from .results import METHOD_ORACLE, MultiplierResult

DEFAULT_ORACLE_CAP = 128
DEFAULT_MEMORY_BUDGET = 1 << 30
_SATURATION_BLOCKS = 4

ORACLE_CAP_ENV = "MLAB_ORACLE_CAP"


class MemoryBudgetError(MemoryError):
    pass


class OracleInconsistency(RuntimeError):
    """The H^2 / G^ab multiset difference failed; a cornerstone identity broke."""


def oracle_cap() -> int:
    return int(os.environ.get(ORACLE_CAP_ENV, DEFAULT_ORACLE_CAP))


def _val(x: int, p: int, k: int) -> int:
    if x == 0:
        return k
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def _prime_power(m: int) -> tuple[int, int]:
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    p = 2
    while p * p <= m:
        if m % p == 0:
            break
        p += 1
    else:
        p = m
    k = 0
    n = m
    while n % p == 0:
        n //= p
        k += 1
    if n != 1:
        raise ValueError(f"modulus {m} is not a prime power (out of scope)")
    return p, k


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


class _LocalBasis:
    """Row-echelon pivot basis over Z_{p^k}, rows stored at their pivot column."""

    def __init__(self, width: int, p: int, k: int):
        self.width = width
        self.p = p
        self.k = k
        self.m = p ** k
        self.rows = np.zeros((width, width), dtype=np.int64)
        self.piv_val = np.full(width, -1, dtype=np.int64)
        self.rank = 0

    def pivot_columns(self):
        return np.nonzero(self.piv_val >= 0)[0]

    def reduce_block(self, block: np.ndarray) -> np.ndarray:
        """Vectorized pre-reduction of a block against current pivots."""
        m, p = self.m, self.p
        block = block % m
        for c in self.pivot_columns():
            col = block[:, c]
            nz = np.nonzero(col)[0]
            if nz.size == 0:
                continue
            pv = int(self.piv_val[c])
            q, r = np.divmod(col[nz], p ** pv)
            ok = nz[r == 0]
            if ok.size:
                qq = (col[ok] // (p ** pv)) % m
                block[ok] = (block[ok] - qq[:, None] * self.rows[c]) % m
        return block

    def insert_row(self, row: np.ndarray) -> bool:
        """Full sequential insertion; returns True if the basis changed."""
        m, p, k = self.m, self.p, self.k
        changed = False
        row = row % m
        while True:
            nz = np.nonzero(row)[0]
            if nz.size == 0:
                return changed
            c = int(nz[0])
            e = int(row[c])
            v = _val(e, p, k)
            unit = e // (p ** v)
            if unit != 1:
                row = (row * pow(unit, -1, m)) % m
            pv = int(self.piv_val[c])
            if pv < 0:
                self.rows[c] = row
                self.piv_val[c] = v
                self.rank += 1
                return True
            if v >= pv:
                q = p ** (v - pv)
                row = (row - q * self.rows[c]) % m
            else:
                old = self.rows[c].copy()
                self.rows[c] = row
                self.piv_val[c] = v
                row = old
                changed = True

    def compact(self) -> np.ndarray:
        return self.rows[self.pivot_columns()].copy()


def _snf_local(a: np.ndarray, p: int, k: int, want_transform: bool):
    """Diagonalize over Z_{p^k} by min-valuation pivoting.

    Returns (diagonal valuations, V, Vinv) where the tracked column change
    of basis satisfies A_new = U A V for some invertible U that is never
    materialized.  With the global-minimum pivot, a single column sweep
    followed by a single row sweep clears the cross exactly (all quotients
    divide out), so no Euclid iteration is needed.
    """
    m = p ** k
    a = a % m
    rows, cols = a.shape
    v_mat = np.eye(cols, dtype=np.int64) if want_transform else None
    v_inv = np.eye(cols, dtype=np.int64) if want_transform else None
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
            if want_transform:
                v_mat[:, [t, pj]] = v_mat[:, [pj, t]]
                v_inv[[t, pj]] = v_inv[[pj, t]]
        e = int(a[t, t])
        unit = e // (p ** pv)
        if unit != 1:
            a[t] = (a[t] * pow(unit, -1, m)) % m
        col = a[t + 1:, t]
        nzr = np.nonzero(col)[0]
        if nzr.size:
            q = (col[nzr] // (p ** pv)) % m
            a[t + 1:][nzr] = (a[t + 1:][nzr] - q[:, None] * a[t]) % m
        rowvals = a[t, t + 1:]
        nzc = np.nonzero(rowvals)[0]
        if nzc.size:
            q = (rowvals[nzc] // (p ** pv)) % m
            cols_idx = nzc + t + 1
            a[:, cols_idx] = (a[:, cols_idx] - a[:, [t]] * q[None, :]) % m
            if want_transform:
                v_mat[:, cols_idx] = (v_mat[:, cols_idx] - v_mat[:, [t]] * q[None, :]) % m
                v_inv[t] = (v_inv[t] + q @ v_inv[cols_idx]) % m
        diag_vals.append(pv)
        t += 1
    return diag_vals, v_mat, v_inv


@dataclass
class _Kernel:
    """Solution module of B u = 0 over Z_{p^k} in generator form.

    Column i of ``gens`` has additive order p^{orders[i]}; it sits at
    transformed-coordinate position ``positions[i]`` scaled by p^{scales[i]},
    so a kernel member d has coordinates (v_inv @ d)[positions[i]] / p^{scales[i]}.
    """

    gens: np.ndarray
    orders: list[int]
    v_inv: np.ndarray
    positions: list[int]
    scales: list[int]


def _kernel_mod(basis_rows: np.ndarray, width: int, p: int, k: int) -> _Kernel:
    m = p ** k
    if basis_rows.size == 0:
        eye = np.eye(width, dtype=np.int64)
        return _Kernel(eye.copy(), [k] * width, eye, list(range(width)), [0] * width)
    diag_vals, v_mat, v_inv = _snf_local(basis_rows.copy(), p, k, want_transform=True)
    positions, scales, orders = [], [], []
    for j in range(width):
        a_j = diag_vals[j] if j < len(diag_vals) else k
        b_j = k - a_j
        if b_j < k:  # a_j > 0: the column contributes a nontrivial generator
            positions.append(j)
            scales.append(b_j)
            orders.append(a_j)
    gens = np.zeros((width, len(positions)), dtype=np.int64)
    for idx, (j, b) in enumerate(zip(positions, scales)):
        gens[:, idx] = (v_mat[:, j] * (p ** b)) % m
    return _Kernel(gens, orders, v_inv, positions, scales)


def h2_trivial_coeffs(table: CayleyTable, m: int, *,
                      memory_budget: int = DEFAULT_MEMORY_BUDGET) -> H2Result:
    """Invariant factors of H^2(G, Z_m) for the group of a Cayley table."""
    p, k = _prime_power(m)
    n = table.n
    stats = EliminationStats()
    if n == 1:
        return H2Result(m, AbelianGroup.trivial(), stats)

    gens = table.generating_set()
    ns = len(gens)
    width = (n - 1) * ns
    t = np.asarray(table.table, dtype=np.int64)

    need = n * n * width * 8 + width * width * 8 + n * width * 8
    if need > memory_budget:
        raise MemoryBudgetError(
            f"estimated {need >> 20} MiB exceeds the budget of {memory_budget >> 20} MiB")

    def col(x, si):
        # unknown index of f(x, gens[si]); x = 0 rows are excluded by callers
        return (x - 1) * ns + si

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

    # DP table: phi[x, z] = coefficient vector of f(x, z) on the unknowns
    phi = np.zeros((n, n, width), dtype=np.int32)
    for si, s in enumerate(gens):
        for x in range(1, n):
            phi[x, s, col(x, si)] += 1
    for z in order:
        if parent[z] is None or z in gens:
            continue
        y, si = parent[z]
        phi[:, z, :] = phi[:, y, :]
        xy = t[:, y]
        rows = np.nonzero(xy != 0)[0]
        phi[rows, z, col(xy[rows], si)] += 1
        phi[:, z, col(y, si)] -= 1

    def make_block(y: int, si: int) -> np.ndarray:
        s = gens[si]
        z = int(t[y, s])
        block = phi[1:, y, :].astype(np.int64)
        if z != 0:
            block -= phi[1:, z, :]
        xy = t[1:, y]
        rows = np.nonzero(xy != 0)[0]
        block[rows, col(xy[rows], si)] += 1
        block[:, col(y, si)] -= 1
        return block % m

    all_blocks = [(y, si) for si in range(ns) for y in range(1, n)
                  if parent.get(int(t[y, gens[si]])) != (y, si)]

    basis = _LocalBasis(width, p, k)
    kernel = None
    kf = None
    quiet_blocks = 0
    for y, si in all_blocks:
        block = make_block(y, si)
        stats.equations += block.shape[0]
        if kernel is not None:
            # fast path: a block orthogonal to the current kernel is implied
            resid = np.rint(block.astype(np.float64) @ kf).astype(np.int64) % m
            dirty = np.nonzero(resid.any(axis=1))[0]
            stats.verified += block.shape[0]
            if dirty.size == 0:
                continue
            block = block[dirty]
            kernel = kf = None
        block = basis.reduce_block(block)
        changed = False
        for row in block:
            if row.any():
                changed |= basis.insert_row(row)
        quiet_blocks = 0 if changed else quiet_blocks + 1
        if kernel is None and quiet_blocks >= _SATURATION_BLOCKS:
            kernel = _kernel_mod(basis.compact(), width, p, k)
            kf = kernel.gens.astype(np.float64)

    # closing pass: every block must annihilate the final kernel.  A block the
    # fast path skipped annihilates an earlier, larger kernel, so it lies in
    # the row module (Z_{p^k} has the double-annihilator property); every
    # other block was inserted.  A dirty block is therefore a broken identity.
    if kernel is None:
        kernel = _kernel_mod(basis.compact(), width, p, k)
        kf = kernel.gens.astype(np.float64)
    for y, si in all_blocks:
        block = make_block(y, si)
        stats.verified += block.shape[0]
        if (np.rint(block.astype(np.float64) @ kf).astype(np.int64) % m).any():
            raise OracleInconsistency(
                f"cocycle block ({y}, {si}) escapes the final kernel")
    stats.pivots = basis.rank
    tcount = kernel.gens.shape[1]

    # coboundary images in the reduced coordinates: dg(x,s) = g(x)+g(s)-g(xs)
    d_cols = np.zeros((width, n - 1), dtype=np.int64)
    for w in range(1, n):
        for si, s in enumerate(gens):
            d_cols[col(w, si), w - 1] += 1
            if s == w:
                for x in range(1, n):
                    d_cols[col(x, si), w - 1] += 1
            xs_inv = int(np.nonzero(t[:, s] == w)[0][0])  # the x with x*s = w
            if xs_inv != 0:
                d_cols[col(xs_inv, si), w - 1] -= 1
    d_cols %= m

    coords = np.zeros((tcount, n - 1), dtype=np.int64)
    if tcount:
        wv = (kernel.v_inv @ d_cols) % m
        for idx, (j, b) in enumerate(zip(kernel.positions, kernel.scales)):
            vals = wv[j]
            if np.any(vals % (p ** b)):
                raise OracleInconsistency("coboundary escaped the cocycle kernel")
            coords[idx] = (vals // (p ** b)) % m

    # H^2 = kernel / coboundaries: relations p^{o_i} g_i = 0 and D-columns
    rel = np.zeros((tcount, tcount + (n - 1)), dtype=np.int64)
    for i, o in enumerate(kernel.orders):
        rel[i, i] = p ** o
    rel[:, tcount:] = coords
    diag_vals, _, _ = _snf_local(rel, p, k, want_transform=False)
    # positions without a pivot are Z_{p^k} summands (their order relation
    # p^k g = 0 vanishes mod m)
    exps = [min(v, k) for v in diag_vals] + [k] * (tcount - len(diag_vals))
    inv_exps = sorted(v for v in exps if v > 0)
    invs = AbelianGroup.from_primary({p: inv_exps})
    return H2Result(m, invs, stats)


def abelianization_from_table(table: CayleyTable, p: int) -> AbelianGroup:
    """G^ab invariants straight from the table (independent of presentations)."""
    n = table.n
    t = table.table
    inv = np.nonzero(t == 0)[1]  # inv[x] is the y with xy = 1
    # derived subgroup: multiplicative closure of all commutators (a normal set)
    comms = set()
    for x in range(n):
        comms.update(t[t[inv[x], inv], t[x]].tolist())  # [x, y] for every y
    dsub = {0}
    frontier = [c for c in comms if c != 0]
    dsub.update(frontier)
    while frontier:
        a = frontier.pop()
        for b in comms:
            c = int(t[a, b])
            if c not in dsub:
                dsub.add(c)
                frontier.append(c)
    # coset order profile: least j with x^{p^j} in G'
    counts: dict[int, int] = {}
    for x in range(n):
        j = 0
        y = x
        while y not in dsub:
            y = _tbl_pow(t, y, p)
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
        log = _val(running_count, p, 0)
        exps.append(log - prev_log)
        prev_log = log
    out = []
    for j in range(len(exps), 0, -1):
        need = exps[j - 1] - (exps[j] if j < len(exps) else 0)
        out.extend([j] * need)
    return AbelianGroup.from_primary({p: out}) if out else AbelianGroup.trivial()


def _tbl_pow(t: np.ndarray, x: int, e: int) -> int:
    acc = 0
    base = x
    while e:
        if e & 1:
            acc = int(t[acc, base])
        base = int(t[base, base])
        e >>= 1
    return acc


def multiplier_via_oracle(pres, cap: int | None = None, *,
                          memory_budget: int = DEFAULT_MEMORY_BUDGET) -> MultiplierResult:
    """M(G) = (invariants of H^2(G, Z_|G|)) minus (invariants of G^ab)."""
    from .pcgroup import cayley_table

    if cap is None:
        cap = oracle_cap()
    table = cayley_table(pres, cap=cap)
    p = pres.p
    m = table.n
    if m == 1:
        return MultiplierResult(p, AbelianGroup.trivial(), METHOD_ORACLE,
                                trace=("oracle: trivial group",))
    h2 = h2_trivial_coeffs(table, m, memory_budget=memory_budget)
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
