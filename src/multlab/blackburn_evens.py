"""Schur multipliers of odd-p class-2 groups with elementary quotient and
derived subgroup, by the Blackburn-Evens tensor construction.

Write V = G/G' and W = G' as GF(p) spaces, with the commutator pairing
(v1, v2) = [g1, g2] and the power map f(gG') = g^p (linear for odd p at
class 2 with exp(G') = p, since the class-2 expansion of (xy)^p leaves a
commutator factor with exponent p(p-1)/2, a multiple of p).  Inside V (x) W
sit two subspaces:

  X1 = span of  v1 (x) (v2,v3) + v2 (x) (v3,v1) + v3 (x) (v1,v2)
  X2 = span of  v (x) f(v)

and X = X1 + X2.  With N = V (x) W / X and rho(v1 ^ v2) = (v1, v2), the
multiplier is an extension of ker(rho) by N whose p-th power map is induced
by sigma(v1 ^ v2) = v1 (x) f(v2) + binom(p,2) v2 (x) (v1,v2) + X.  So
|M(G)| = |N| * |V ^ V| / |W|, the p-torsion count |ker(sigma-bar)| * |N|
fixes the number of Z_{p^2} factors, and everything reduces to GF(p) ranks
in dimension dim(V) * dim(W), taken with the package's one eliminator
(`abelian.snf`) at k = 1 on int lists; no kernel is formed.

The construction reads only the lower central series, whose length gives
the class and whose second term is G', and the stated relations: V's basis
is the surviving generators of the presentation (those the igs of G' does
not lead with entry 1), and the pairing and f are read off their stated
commutator and power relations, so no commutator is collected.
"""

from __future__ import annotations

from itertools import combinations

from .abelian import AbelianGroup, snf
from .pcgroup import (
    InconsistentPresentation,
    NormalWord,
    PcPresentation,
    Subgroup,
    _stated,
    abelianization,
    lower_central_series,
)
from .record import Record
from .results import METHOD_BE, MultiplierResult


class BePreconditionError(ValueError):
    """The construction's hypotheses fail; `reason` carries which one."""

    def __init__(self, reason: str, detail: str = ""):
        self.reason = reason
        super().__init__(f"{reason}" + (f": {detail}" if detail else ""))


def _rank(rows: list[list[int]], p: int) -> int:
    """GF(p) rank: the number of unit diagonal entries at k = 1."""
    return snf(rows, p, 1).count(0)


# -- construction data ---------------------------------------------------------


class BeData(Record):
    _fields = ("p", "dim_v", "dim_w", "reps", "pairing", "power_map", "x_rows", "x_rank",
               "derived")

    def __init__(self, p: int, dim_v: int, dim_w: int, reps: list[NormalWord],
                 pairing: list[list[list[int]]], power_map: list[list[int]],
                 x_rows: list[list[int]], x_rank: int, derived: Subgroup):
        self.p = p
        self.dim_v = dim_v
        self.dim_w = dim_w
        self.reps = reps              # the surviving generators: the V-basis
        self.pairing = pairing        # pairing[i][j] = (v_i, v_j) in W coordinates
        self.power_map = power_map    # power_map[i] = f(v_i) in W coordinates
        self.x_rows = x_rows          # rows spanning X inside V (x) W
        self.x_rank = x_rank          # dim X
        self.derived = derived

    def tensor_dim(self) -> int:
        return self.dim_v * self.dim_w

    def jacobi_element(self, u: list[int], v: list[int], w: list[int]) -> list[int]:
        """u (x) (v,w) + v (x) (w,u) + w (x) (u,v) for arbitrary V-vectors,
        with coordinate i * dim W + k of V (x) W."""
        dim_v, dim_w, pairing = self.dim_v, self.dim_w, self.pairing
        pair = lambda x, y: [sum(a * b * c[k] for a, row in zip(x, pairing)
                                 for b, c in zip(y, row)) for k in range(dim_w)]
        terms = ((u, pair(v, w)), (v, pair(w, u)), (w, pair(u, v)))
        return [sum(x[i] * y[k] for x, y in terms) % self.p
                for i in range(dim_v) for k in range(dim_w)]

    def power_element(self, v: list[int]) -> list[int]:
        """v (x) f(v) for an arbitrary V-vector."""
        fv = [sum(a * f[k] for a, f in zip(v, self.power_map)) for k in range(self.dim_w)]
        return [a * b % self.p for a in v for b in fv]

    def in_x(self, vec: list[int]) -> bool:
        return _rank(self.x_rows + [list(vec)], self.p) == self.x_rank


class BeExtensionData(Record):
    _fields = ("dim_n", "dim_ker_rho", "dim_ker_sigma_bar")

    def __init__(self, dim_n: int, dim_ker_rho: int, dim_ker_sigma_bar: int):
        self.dim_n = dim_n
        self.dim_ker_rho = dim_ker_rho
        self.dim_ker_sigma_bar = dim_ker_sigma_bar


def _w_coordinates(derived: Subgroup, x: NormalWord) -> list[int]:
    """Coordinates of x in the elementary abelian G' w.r.t. its echelon basis."""
    exps = derived.sift(x)
    if exps is None:
        raise ValueError("element not in the derived subgroup")
    return [exps.get(l, 0) for l in derived.igs]


def be_preconditions(pres: PcPresentation) -> Subgroup:
    """Check the construction's hypotheses one by one (odd p, nilpotency
    class exactly 2, G/G' and G' elementary abelian) and return G'."""
    p = pres.p
    if p == 2:
        raise BePreconditionError("even prime", "the construction needs p odd")
    lower = lower_central_series(pres)
    c = len(lower) - 1
    if c != 2:
        raise BePreconditionError("wrong class", f"class is {c}, need 2")
    if not abelianization(pres).is_elementary(p):
        raise BePreconditionError("quotient not elementary abelian")
    derived = lower[1]
    if not derived.abelian_invariants().is_elementary(p):
        raise BePreconditionError("derived subgroup not elementary abelian")
    return derived


def build_be_data(pres: PcPresentation) -> BeData:
    """Pairing, power map and X for a presentation that meets `be_preconditions`.

    Generator i survives in V = G/G' unless it leads the igs of G' with lead
    entry 1; with G/G' elementary, each survivor spans one dimension, and the
    survivors are the basis of V.  G' is central and elementary, so the
    pairing is alternating and bilinear, with the stated tail of [g_b, g_a]
    at (b, a) for survivors b > a, and f(g_a) = g_a^p is linear."""
    p = pres.p
    derived = be_preconditions(pres)
    survivors = [i for i in range(pres.ngens)
                 if i not in derived.igs or derived.igs[i][i] != 1]
    dim_v = len(survivors)
    dim_w = derived.order_exponent

    pairing = [[[0] * dim_w for _ in range(dim_v)] for _ in range(dim_v)]
    for a, b in combinations(range(dim_v), 2):
        tail = _stated(pres, pres.comm_tail(survivors[b], survivors[a]))
        pairing[b][a] = _w_coordinates(derived, tail)
        pairing[a][b] = [-c % p for c in pairing[b][a]]
    power_map = [_w_coordinates(derived, pres.collect([(i, p)])) for i in survivors]

    data = BeData(p, dim_v, dim_w, [pres.gen(i) for i in survivors], pairing,
                  power_map, [], 0, derived)
    eye = [[int(i == j) for j in range(dim_v)] for i in range(dim_v)]
    data.x_rows = (  # class 2 makes dim V >= 2
        [data.jacobi_element(u, v, w) for u, v, w in combinations(eye, 3)]
        + [data.power_element(v) for v in eye]
        + [data.power_element([a + b for a, b in zip(u, v)]) for u, v in combinations(eye, 2)])
    data.x_rank = _rank(data.x_rows, p)
    return data


def extension_data(data: BeData) -> BeExtensionData:
    """The dimensions of N, ker(rho) and ker(sigma-bar) that fix M(G), from
    ranks alone.  The commutators of a class-2 group span G', so rho is onto
    (if not, InconsistentPresentation) and dim ker(rho) = dim V^V - dim W.
    The map u -> (rho u, sigma u + X) on V ^ V has kernel ker(rho) meet
    sigma^-1(X), so sigma-bar has rank rank[rho sigma; 0 X] - dim W - dim X
    on ker(rho): one row [rho(e_i ^ e_j) | sigma(e_i ^ e_j)] per pair, one
    row [0 | x] per row x of X."""
    p, dim_w = data.p, data.dim_w
    pairs = list(combinations(range(data.dim_v), 2))
    # sigma(e_i ^ e_j) = e_i (x) f(e_j) + X, block i of V (x) W after rho's
    # columns; the binom(p,2) e_j (x) (e_i, e_j) term vanishes at odd p
    rho = [data.pairing[i][j] for i, j in pairs]
    if _rank(rho, p) != dim_w:
        raise InconsistentPresentation(
            "Blackburn-Evens: commutators do not span the derived subgroup")
    rows = [r + [0] * (dim_w * i) + data.power_map[j] + [0] * (dim_w * (data.dim_v - i - 1))
            for r, (i, j) in zip(rho, pairs)]
    rows += [[0] * dim_w + x for x in data.x_rows]
    rank_sigma = _rank(rows, p) - dim_w - data.x_rank
    dim_ker_rho = len(pairs) - dim_w
    return BeExtensionData(
        dim_n=data.tensor_dim() - data.x_rank,
        dim_ker_rho=dim_ker_rho,
        dim_ker_sigma_bar=dim_ker_rho - rank_sigma,
    )


def multiplier_via_be(pres: PcPresentation) -> MultiplierResult:
    """M(G): order p^{dim N + dim ker rho}, structure Z_{p^2}^a x Z_p^b with
    a determined by the p-torsion count |ker sigma-bar| * |N|."""
    data = build_be_data(pres)
    ext = extension_data(data)
    mu = ext.dim_n + ext.dim_ker_rho                  # log_p |M|
    nu = ext.dim_n + ext.dim_ker_sigma_bar            # log_p #{m : m^p = 1}
    a = mu - nu
    b = mu - 2 * a
    if a < 0 or b < 0:
        raise RuntimeError(f"impossible multiplier shape: mu={mu}, nu={nu}")
    invs = AbelianGroup.of(pres.p, [2] * a + [1] * b)
    trace = (
        f"blackburn_evens: dimV={data.dim_v}, dimW={data.dim_w}, "
        f"dimX={data.x_rank}, dimN={ext.dim_n}, ker_rho={ext.dim_ker_rho}, "
        f"ker_sigma={ext.dim_ker_sigma_bar}",
    )
    return MultiplierResult(pres.p, invs, METHOD_BE, trace=trace)
