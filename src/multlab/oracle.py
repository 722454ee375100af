"""Ground-truth Schur multipliers by Hopf's formula, from the actions of a
generating set on the elements.

The oracle works from right multiplication by elements that generate G, N
entries each: the pc generators' on a presentation (`multiplier_via_oracle`)
or a Cayley table's columns (`multiplier_from_table`).  S is the greedy
picks among them, and left multiplication is read along the picks' walk
(`cayley.left_by`).  With F free on S and G = F/R, Hopf's formula gives
M(G) = (R cap [F,F]) / [F,R], and R/[F,R] = M(G) + Z^|S|: its torsion is
M(G), and R/(R cap [F,F]) is a subgroup of finite index in F/[F,F] = Z^|S|.
R is the fundamental group of the Cayley graph Gamma(G, S), so R/[R,R] is
H_1(Gamma) with G acting by left translation, and R/[F,R] is its module of
G-coinvariants (Gruenberg, Cohomological Topics in Group Theory, LNM 143,
1970; Brown, Cohomology of Groups, II.5).

Certificate.  The actions are checked, not trusted: every input action
must be a permutation of the N points; the picks' walk must reach them
all; each pick's left action, read along that walk's tree, must be a
permutation and commute with each input action; and the left walk must
reach all N points.  Then the picks generate a transitive group H whose
centralizer holds the transitive left ones, so both are regular, H has
order N, the right walk's graph is the Cayley graph of H over S, and each
left action, and each input action, is multiplication by its image of the
identity.  Right reach and commuting imply the left walk's reach, so that
check guards the derivation.  On a presentation, `multiplier_via_oracle`
takes the last step: N = r_1 ... r_n, the product of the relative
orders, and both sides of each stated relation, walked from point 0, meet.
So H is a quotient of the presented group, of order at most
r_1 ... r_n = N, and is that group; neither the collector nor
`check_consistency` is trusted.  A failure is an `OracleInconsistency`, and
so are the two holonomy checks below.

Quotient.  The point c is central exactly when s c = c s for every s in S,
and z x is read along the right walk's tree like the left actions.
Z = <z>, for the first central z of largest order q, acts freely on Gamma
and commutes with G, so Gamma -> Gamma/Z is a covering with G acting on
both.  Its fundamental groups are R and R' = the preimage of Z in F, and
the 5-term sequence of 1 -> R -> R' -> Z -> 1 (Brown, VII.6), with
H_2(R') = H_2(Z) = 0, gives

    0 -> H_1(Gamma)_Z -> H_1(Gamma/Z) -> Z -> 0,

the last map the holonomy: the end z^h of a cycle lifted from the
identity.  So H_1(Gamma)_G = L_{G/Z}, where L is the holonomy's kernel,
and everything below is read on Gamma/Z = Gamma(G/Z, S), with N/q points
and (N/q)(|S| - 1) + 1 cycles.  Lifting its BFS tree gives each non-tree
edge e its holonomy h_e mod q.  Some h_e0 is a unit, else the holonomy
would miss z; none is an `OracleInconsistency`.  With k_e = h_e / h_e0
mod q, L has the basis b_e = c_e - k_e c_e0 (e != e0) and b_0 = q c_e0,
and a vector v of L has the coordinates v_e off e0 and, in place of e0,
its holonomy sum (sum of v_e k_e, with k_e0 = 1) over q.  G preserves
holonomy because Z is central, so each relation row lies in L; a row whose
holonomy sum is not 0 mod q is an `OracleInconsistency`.  The rows fed to
the cokernel are (s - 1) b in these coordinates, |S| per basis vector:
|S|((N/q)(|S| - 1) + 1) in all, against |S|(N(|S| - 1) + 1) on Gamma.

Basis.  `cayley.walk` gives a BFS tree from the identity over S that spans
the graph; each of the N(|S| - 1) + 1 edges x -> xs off the tree of a
Cayley graph Gamma on N points closes one cycle c_e: the tree path 1 -> y,
the edge e = (y, s_i), and the tree path back from z = y s_i.  The c_e are
a basis of H_1(Gamma), and a cycle's coordinates in it are its signed
counts of non-tree edges, since c_e crosses e and no other.

Relations.  The coinvariants are H_1(Gamma) / I_G H_1(Gamma).  As a right
ideal, I_G is generated by the s - 1 with s in S (s g - 1 = (s - 1) g +
(g - 1), by induction on word length), so I_G H_1(Gamma) is spanned by the
rows s.c_e - c_e for s in S, where s maps the edge x -> x s_j to
s x -> s x s_j.  One pass down the tree per s builds path_s[z], the
non-tree edges among the translates of the tree path 1 -> z: path_s[parent
z], plus the translated edge into z if it is off the tree.  The row of e is
+1 on path_s[y] less path_s[z], -1 on path_s[z] less path_s[y], +1 on s e
if it is off the tree, and -1 on e.  `cycle_relations` builds these rows
from any such right actions and their walk; the oracle gives it the
quotient's, walked once by `quotient_actions`.

Cokernel.  exp M(G) divides |G| = p^n, so `abelian.snf` reads the
cokernel over Z_{p^(n+1)} in the rows' own dicts, which it consumes.  Each
unit pivot is substituted out of the earlier pivot rows, so every row is
reduced in one pass over the pivot columns it holds, and the unit-free
rest is finished by least-valuation pivoting.  Summands of valuation
0 < v < n + 1 are M(G); the columns of valuation n + 1 are the free part,
and their number must be |S| (else `OracleInconsistency`), since
L_{G/Z} = H_1(Gamma)_G = M(G) + Z^|S|.

`h2_trivial_coeffs` reads H^2(G, Z_m), m = p^k, off G^ab and M(G) by the
universal coefficient theorem (Brown, Cohomology of Groups, III.1):
H^2(G, Z_m) = Ext(G^ab, Z_m) + Hom(M(G), Z_m), and each of Ext(Z/p^e, Z_m)
and Hom(Z/p^e, Z_m) is Z/p^min(e, k).  Nothing in the report calls it or
`abelianization_from_table`, which reads G^ab from a table's element
orders; `bench/tracer.py` times both by name.
"""

from __future__ import annotations

from .abelian import AbelianGroup, prime_power, snf, valuation
from .cayley import CayleyTable, follow, greedy_generators, left_by, walk
from .record import Frozen, Record
from .results import METHOD_ORACLE, MultiplierResult

DEFAULT_ORACLE_CAP = 128


class OracleInconsistency(RuntimeError):
    """A cornerstone identity broke: the actions fail their certificate, the
    coinvariants' free rank is not |S|, or a holonomy check failed."""


class EliminationStats(Record):
    _fields = ("equations", "pivots", "verified")

    def __init__(self, equations: int = 0, pivots: int = 0, verified: int = 0):
        self.equations = equations
        self.pivots = pivots
        self.verified = verified


class H2Result(Frozen):
    """H^2 with its modulus; the stats, zero since no elimination runs,
    are not compared."""

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


def h2_trivial_coeffs(table: CayleyTable, m: int) -> H2Result:
    """Invariant factors of H^2(G, Z_m), m = p^k, for the p-group of a
    Cayley table: Z/p^min(e, k) for each exponent e of G^ab and of M(G)."""
    p, k = prime_power(m)
    if table.n % p:
        return H2Result(m, AbelianGroup.trivial())
    exps = (abelianization_from_table(table, p).exponents
            + multiplier_from_table(table, p).invariants.exponents)
    return H2Result(m, AbelianGroup.of(p, [min(e, k) for e in exps]))


def abelianization_from_table(table: CayleyTable, p: int) -> AbelianGroup:
    """G^ab invariants straight from the table (independent of presentations).
    The order must be a power of p, else the power walk below never ends."""
    if (n := table.n) != p ** valuation(n, p):
        raise ValueError(f"the order {n} is not a power of p = {p}")
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


def cycle_relations(right, tree) -> tuple[int, list[list[dict[int, int]]]]:
    """The relation rows of H_1(Gamma)_G for Gamma = Gamma(G, S), from the
    right multiplications by each s in S and their walk `tree`, along which s x is read.

    Returns the number of non-tree edges, which index the cycle basis, and
    for each s in S the block of rows s.c_e - c_e over every cycle c_e,
    as {non-tree edge: signed count} dicts, keys ascending (zeros dropped).
    """
    n, ns = len(right[0]), len(right)
    order, parent, letter = tree
    if len(order) != n:
        raise OracleInconsistency(f"oracle: the right walk reaches {len(order)} of {n} points")
    tree_edges = set(zip(parent.values(), letter.values()))
    edges = [(y, i) for y in range(n) for i in range(ns) if (y, i) not in tree_edges]
    col = [[-1] * ns for _ in range(n)]  # col[y][i]: the edge y -> y s_i, -1 on the tree
    for c, (y, i) in enumerate(edges):
        col[y][i] = c

    blocks = []
    for a in right:
        s_left = left_by(a[0], right, tree)  # s_left[x] = s x
        # path[z]: the non-tree edges among the translates by s of the edges
        # of the tree path 1 -> z, as a bit set (translation is injective)
        path = [0] * n
        for z in parent:  # in the order reached
            c = col[s_left[parent[z]]][letter[z]]
            path[z] = path[parent[z]] if c < 0 else path[parent[z]] | 1 << c
        rows = []
        for e, (y, i) in enumerate(edges):
            # s.c_e = s(1 -> y) + s e - s(1 -> z): their shared head cancels
            py, pz = path[y], path[right[i][y]]
            plus, minus = py & ~pz, pz & ~py
            c = col[s_left[y]][i]
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


def _orbit_length(perm) -> int:
    """The length of 0's orbit under a permutation."""
    n, x = 1, perm[0]
    while x:
        n, x = n + 1, perm[x]
    return n


def quotient_actions(right, zx):
    """The right actions of S on Gamma / <z> for z x = zx[x], with z central,
    their walk, and the holonomy in Z/q of each non-tree edge of the quotient,
    in the order of `cycle_relations`' columns; q is the order of z.

    The cosets are labelled in order of their least element, so the
    identity's is 0; pos[x] = j for x = z^j times its coset's least element.
    """
    m, q = len(zx), _orbit_length(zx)
    coset, pos, reps = [-1] * m, [0] * m, []
    for x in range(m):
        y, j = x, 0
        while coset[y] < 0:  # the orbit x, z x, z^2 x, ...
            coset[y], pos[y], y, j = len(reps), j, zx[y], j + 1
        if j:
            reps.append(x)
    qright = [[coset[a[x]] for x in reps] for a in right]
    qtree = _, parent, letter = walk(qright)
    lift = [0] * len(reps)  # lift[c]: the end of the tree path 0 -> c lifted from 0
    for c in parent:
        lift[c] = right[letter[c]][lift[parent[c]]]
    tree = set(zip(parent.values(), letter.values()))
    hol = [(pos[a[lift[c]]] - pos[lift[qa[c]]]) % q for c in range(len(reps))
           for i, (a, qa) in enumerate(zip(right, qright)) if (c, i) not in tree]
    return q, qright, qtree, hol


def multiplier_from_actions(actions, p: int) -> MultiplierResult:
    """M(G) as the torsion of the G-coinvariants of H_1 of the Cayley graph,
    from actions[i][x] = x g_i for g_i that generate G, over S, the greedy
    picks among them, read on the quotient by a central cyclic subgroup."""
    m = len(actions[0]) if actions else 1
    k = valuation(m, p) + 1  # exp M(G) divides m = p^(k-1)
    if m != p ** (k - 1):
        raise ValueError(f"the order {m} is not a power of p = {p}")
    # the certificate (module docstring); the walks read every entry of the
    # inputs, so those are checked first, and the right walk is the picks' last
    full = list(range(m))
    if any(sorted(a) != full for a in actions):
        raise OracleInconsistency("oracle: an action is not a permutation of the elements")
    right, tree = greedy_generators(actions)
    if len(tree[0]) != m:
        raise OracleInconsistency(f"oracle: the right walk reaches {len(tree[0])} of {m} points")
    left = [left_by(a[0], right, tree) for a in right]
    if any(sorted(a) != full for a in left):
        raise OracleInconsistency("oracle: an action is not a permutation of the elements")
    if any([s[y] for y in r] != [r[y] for y in s] for s in left for r in actions):
        raise OracleInconsistency("oracle: a left action does not commute with a right one")
    if len(reached := walk(left)[0]) != m:
        raise OracleInconsistency(f"oracle: the left walk reaches {len(reached)} of {m} points")
    if m == 1:
        return MultiplierResult(p, AbelianGroup.trivial(), METHOD_ORACLE,
                                trace=("oracle: trivial group",))

    # z: the first central element of largest order, at N steps per central element
    zx = max((left_by(c, right, tree) for c in full
              if all(a[c] == b[c] for a, b in zip(left, right))), key=_orbit_length)
    q, qright, qtree, hol = quotient_actions(right, zx)
    e0 = next((e for e, h in enumerate(hol) if h % p), None)
    if e0 is None:
        raise OracleInconsistency("oracle: no non-tree edge has unit holonomy")
    inv = pow(hol[e0], -1, q)
    ratio = [h * inv % q for h in hol]  # k_e, and k_e0 = 1
    ncycles, blocks = cycle_relations(qright, qtree)
    rows = []
    for block in blocks:
        for row in block:  # into the coordinates of L: e0's is the holonomy sum over q
            total = sum(v * ratio[c] for c, v in row.items())
            if total % q:
                raise OracleInconsistency(
                    f"oracle: a relation row's holonomy sum is {total % q} mod {q}, not 0")
            row[e0] = total // q
        base = block[e0]  # (s - 1) b_e = (s - 1) c_e - k_e base, (s - 1) b_0 = q base
        for e, row in enumerate(block):
            f = ratio[e] if e != e0 else 1 - q
            row = dict(row)
            for c, v in base.items():
                row[c] = row.get(c, 0) - f * v
            rows.append({c: v for c, v in row.items() if v})
    vals = snf(rows, ncycles, p, k)
    free = vals.count(k)
    if free != len(right):
        raise OracleInconsistency(f"oracle: free rank {free} != {len(right)} generators")
    invs = AbelianGroup.of(p, [v for v in vals if v < k])
    trace = (f"oracle: N={m}, d={len(right)}, Z={q}, cycles={ncycles}, "
             f"relations={len(rows)}, free={free} -> {invs.render()}",)
    return MultiplierResult(p, invs, METHOD_ORACLE, trace=trace)


def multiplier_from_table(table: CayleyTable, p: int) -> MultiplierResult:
    """`multiplier_from_actions` on the columns of a minimal generating set."""
    return multiplier_from_actions(table.actions(table.generating_set()), p)


def multiplier_via_oracle(pres) -> MultiplierResult:
    """M(G) from the pc generators' right actions on a presentation's
    elements, up to DEFAULT_ORACLE_CAP, certified by its stated relations."""
    from .pcgroup import SizeCapError, right_actions

    if (n := pres.group_order()) > DEFAULT_ORACLE_CAP:
        raise SizeCapError(f"group order {n} exceeds the oracle cap {DEFAULT_ORACLE_CAP}")
    right = right_actions(pres)
    if [len(a) for a in right] != [n] * pres.ngens:
        raise OracleInconsistency(f"oracle: the actions are not {n} points per pc generator")
    result = multiplier_from_actions(right, pres.p)
    names, gens = pres.names, range(pres.ngens)
    sides = [(f"{names[i]}^{r}", ((i, r),), w) for i, r, w in zip(gens, pres.orders, pres.powers)]
    sides += [(f"[{names[j]}, {names[i]}]", ((j, 1), (i, 1)),
               ((i, 1), (j, 1), *pres.comm_tail(j, i))) for j in gens for i in range(j)]
    for rel, lhs, rhs in sides:  # the certificate's last step: each side from the identity
        if follow(right, lhs) != follow(right, rhs):
            raise OracleInconsistency(f"oracle: the actions break the stated relation {rel}")
    return result
