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
fixes the number of Z_{p^2} factors, and everything reduces to GF(p)
ranks and kernels in dimension dim(V) * dim(W), taken with the package's
modular eliminator (`abelian._snf_local` / `_kernel_mod`) at k = 1.

The construction reads only the lower central series: its length gives
the class, and its second term is G'.  V's basis is read off the induced
generating sequence of G', so neither the structure report nor a quotient
presentation of G/G' is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .abelian import AbelianGroup, _kernel_mod, _snf_local
from .pcgroup import (
    InconsistentPresentation,
    NormalWord,
    PcPresentation,
    Subgroup,
    abelianization,
    lower_central_series,
    reduce_mod_central,
)
from .results import METHOD_BE, MultiplierResult


class BePreconditionError(ValueError):
    """The construction's hypotheses fail; `reason` carries which one."""

    def __init__(self, reason: str, detail: str = ""):
        self.reason = reason
        super().__init__(f"{reason}" + (f": {detail}" if detail else ""))


def _rank(rows: np.ndarray, p: int) -> int:
    """GF(p) rank: the length of the eliminator's diagonal at k = 1."""
    return len(_snf_local(rows, p, 1)[0])


# -- construction data ---------------------------------------------------------


@dataclass
class BeData:
    p: int
    dim_v: int
    dim_w: int
    reps: list[NormalWord]            # coset representatives of the V-basis
    pairing: np.ndarray               # (dV, dV, dW): (v_i, v_j) in W coordinates
    power_map: np.ndarray             # (dW, dV): f on the basis
    x_rows: np.ndarray                # rows spanning X inside V (x) W
    x_rank: int                       # dim X
    derived: Subgroup

    def tensor_dim(self) -> int:
        return self.dim_v * self.dim_w

    def jacobi_element(self, u: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
        """u (x) (v,w) + v (x) (w,u) + w (x) (u,v) for arbitrary V-vectors."""
        p = self.p
        pair = lambda x, y: np.einsum("i,j,ijk->k", x, y, self.pairing) % p
        out = (np.outer(u, pair(v, w)) + np.outer(v, pair(w, u))
               + np.outer(w, pair(u, v))) % p
        return out.reshape(-1)

    def power_element(self, v: np.ndarray) -> np.ndarray:
        """v (x) f(v) for an arbitrary V-vector."""
        fv = (self.power_map @ v) % self.p
        return np.outer(v, fv).reshape(-1) % self.p

    def in_x(self, vec: np.ndarray) -> bool:
        return _rank(np.vstack([self.x_rows, vec]), self.p) == self.x_rank


@dataclass
class BeExtensionData:
    dim_n: int
    dim_ker_rho: int
    dim_ker_sigma_bar: int


def _w_coordinates(derived: Subgroup, x: NormalWord) -> np.ndarray:
    """Coordinates of x in the elementary abelian G' w.r.t. its echelon basis."""
    exps = derived.sift(x)
    if exps is None:
        raise ValueError("element not in the derived subgroup")
    return np.array([exps.get(l, 0) for l in derived.igs], dtype=np.int64)


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


def build_be_data(pres: PcPresentation, reps: list[NormalWord] | None = None) -> BeData:
    """Assemble pairing, power map, and X for a presentation that meets
    `be_preconditions`.  A pairing that is not alternating cannot come from
    a consistent class-2 group, so it raises InconsistentPresentation.

    Generator i survives in V = G/G' unless it leads the igs of G' with lead
    entry 1; with G/G' elementary, each survivor spans one dimension."""
    p = pres.p
    derived = be_preconditions(pres)
    survivors = [i for i in range(pres.ngens)
                 if i not in derived.igs or derived.igs[i][i] != 1]
    dim_v = len(survivors)
    dim_w = derived.order_exponent

    if reps is None:
        reps = [pres.gen(i) for i in survivors]
    else:
        reps = [tuple(r) for r in reps]
        # each row is the image in G/G' over the surviving generators
        mat = np.array([[reduce_mod_central(derived, r)[i] for i in survivors]
                        for r in reps], dtype=np.int64)
        if len(reps) != dim_v or _rank(mat, p) != dim_v:
            raise ValueError("representatives do not project to a V-basis")

    pairing = np.zeros((dim_v, dim_v, dim_w), dtype=np.int64)
    for i in range(dim_v):
        for j in range(dim_v):
            if i == j:
                continue
            c = pres.comm_el(reps[i], reps[j])
            pairing[i, j] = _w_coordinates(derived, c)
    power_map = np.zeros((dim_w, dim_v), dtype=np.int64)
    for i in range(dim_v):
        power_map[:, i] = _w_coordinates(derived, pres.pow_el(reps[i], p))

    if not np.array_equal(pairing, (-pairing.transpose(1, 0, 2)) % p):
        raise InconsistentPresentation("Blackburn-Evens: pairing not alternating")

    data = BeData(p, dim_v, dim_w, reps, pairing, power_map,
                  np.zeros((0, dim_v * dim_w), dtype=np.int64), 0, derived)
    rows = []
    eye = np.eye(dim_v, dtype=np.int64)
    for a, b, c in combinations(range(dim_v), 3):
        rows.append(data.jacobi_element(eye[a], eye[b], eye[c]))
    for a in range(dim_v):
        rows.append(data.power_element(eye[a]))
    for a, b in combinations(range(dim_v), 2):
        rows.append(data.power_element((eye[a] + eye[b]) % p))
    data.x_rows = np.array(rows, dtype=np.int64)  # class 2 makes dim V >= 2
    data.x_rank = _rank(data.x_rows, p)
    return data


def extension_data(data: BeData) -> BeExtensionData:
    """The dimensions of N, ker(rho) and ker(sigma-bar) that fix M(G), with
    ker(rho) taken in exterior-square coordinates.  The commutators of a
    class-2 group span G', so rho is onto; if not, InconsistentPresentation."""
    p = data.p
    pairs = list(combinations(range(data.dim_v), 2))
    rho = np.zeros((data.dim_w, len(pairs)), dtype=np.int64)
    for c, (i, j) in enumerate(pairs):
        rho[:, c] = data.pairing[i, j]
    ker = _kernel_mod(rho, len(pairs), p, 1)
    if len(pairs) - ker.shape[1] != data.dim_w:
        raise InconsistentPresentation(
            "Blackburn-Evens: commutators do not span the derived subgroup")

    # sigma(e_i ^ e_j) = e_i (x) f(e_j) + X; the binom(p,2) e_j (x) (e_i, e_j)
    # term of the general formula vanishes at odd p
    sigma_cols = np.zeros((data.tensor_dim(), len(pairs)), dtype=np.int64)
    eye = np.eye(data.dim_v, dtype=np.int64)
    for c, (i, j) in enumerate(pairs):
        sigma_cols[:, c] = np.outer(eye[i], data.power_map[:, j]).reshape(-1)
    sigma_on_ker = (sigma_cols @ ker) % p

    # the rank of the image modulo X counts the Z_{p^2} factors
    rank_sigma = _rank(np.vstack([data.x_rows, sigma_on_ker.T]), p) - data.x_rank
    dim_ker_rho = ker.shape[1]
    dim_n = data.tensor_dim() - data.x_rank
    return BeExtensionData(
        dim_n=dim_n,
        dim_ker_rho=dim_ker_rho,
        dim_ker_sigma_bar=dim_ker_rho - rank_sigma,
    )


def multiplier_via_be(pres: PcPresentation,
                      reps: list[NormalWord] | None = None) -> MultiplierResult:
    """M(G): order p^{dim N + dim ker rho}, structure Z_{p^2}^a x Z_p^b with
    a determined by the p-torsion count |ker sigma-bar| * |N|."""
    data = build_be_data(pres, reps=reps)
    ext = extension_data(data)
    mu = ext.dim_n + ext.dim_ker_rho                  # log_p |M|
    nu = ext.dim_n + ext.dim_ker_sigma_bar            # log_p #{m : m^p = 1}
    a = mu - nu
    b = mu - 2 * a
    if a < 0 or b < 0:
        raise RuntimeError(f"impossible multiplier shape: mu={mu}, nu={nu}")
    invs = AbelianGroup.from_primary({pres.p: [2] * a + [1] * b})
    trace = (
        f"blackburn_evens: dimV={data.dim_v}, dimW={data.dim_w}, "
        f"dimX={data.x_rank}, dimN={ext.dim_n}, ker_rho={ext.dim_ker_rho}, "
        f"ker_sigma={ext.dim_ker_sigma_bar}",
    )
    return MultiplierResult(pres.p, invs, METHOD_BE, trace=trace)
