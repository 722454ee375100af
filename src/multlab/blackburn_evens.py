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
echelon algebra in dimension dim(V) * dim(W).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .abelian import AbelianGroup, nullspace_mod_p, rref_mod_p
from .pcgroup import (
    NormalWord,
    PcPresentation,
    Subgroup,
    _central_quotient_map,
    abelianization,
    structure_report,
)
from .results import METHOD_BE, MultiplierResult


class BePreconditionError(ValueError):
    """The construction's hypotheses fail; `reason` carries which one."""

    def __init__(self, reason: str, detail: str = ""):
        self.reason = reason
        super().__init__(f"{reason}" + (f": {detail}" if detail else ""))


# -- GF(p) echelon helpers ----------------------------------------------------


def _in_span(basis: np.ndarray, v: np.ndarray, p: int) -> bool:
    if basis.shape[0] == 0:
        return not np.any(v % p)
    stacked = rref_mod_p(np.vstack([basis, v % p]), p)
    return stacked.shape[0] == basis.shape[0]


# -- construction data ---------------------------------------------------------


@dataclass
class BeData:
    p: int
    dim_v: int
    dim_w: int
    reps: list[NormalWord]            # coset representatives of the V-basis
    pairing: np.ndarray               # (dV, dV, dW): (v_i, v_j) in W coordinates
    power_map: np.ndarray             # (dW, dV): f on the basis
    x_basis: np.ndarray               # echelon basis of X inside V (x) W
    derived: Subgroup

    def tensor_dim(self) -> int:
        return self.dim_v * self.dim_w

    def x_dim(self) -> int:
        return self.x_basis.shape[0]

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
        return _in_span(self.x_basis, vec % self.p, self.p)


@dataclass
class BeExtensionData:
    ker_rho: np.ndarray               # (C(dV,2), dK) basis of ker rho in wedge coords
    dim_n: int
    dim_ker_rho: int
    dim_ker_sigma_bar: int


def _w_coordinates(derived: Subgroup, x: NormalWord) -> np.ndarray:
    """Coordinates of x in the elementary abelian G' w.r.t. its echelon basis."""
    exps = derived.sift(x)
    if exps is None:
        raise ValueError("element not in the derived subgroup")
    return np.array([exps.get(l, 0) for l in derived.igs], dtype=np.int64)


def build_be_data(pres: PcPresentation, reps: list[NormalWord] | None = None) -> BeData:
    """Assemble pairing, power map, and X for an applicable presentation.

    Preconditions are reported individually: odd p, nilpotency class exactly
    2, and both G/G' and G' elementary abelian.
    """
    p = pres.p
    if p == 2:
        raise BePreconditionError("even prime", "the construction needs p odd")
    st = structure_report(pres)
    if st.nilpotency_class != 2:
        raise BePreconditionError("wrong class", f"class is {st.nilpotency_class}, need 2")
    if not abelianization(pres).is_elementary(p):
        raise BePreconditionError("quotient not elementary abelian")
    derived = st.derived
    if not derived.abelian_invariants().is_elementary(p):
        raise BePreconditionError("derived subgroup not elementary abelian")
    quotient, survivors = _central_quotient_map(pres, derived)
    dim_v = quotient.order_exponent
    dim_w = derived.order_exponent

    def v_coords(x: NormalWord) -> np.ndarray:
        # image of x in G/G' as a GF(p) vector over the surviving generators;
        # igs leading entries are 1 here (elementary abelian, normalized)
        y = tuple(x)
        for l in sorted(derived.igs):
            if y[l]:
                y = pres.mul(pres.pow_el(derived.igs[l], -y[l]), y)
        return np.array([y[i] % p for i in survivors], dtype=np.int64)

    if reps is None:
        reps = [pres.gen(i) for i in survivors]
    else:
        reps = [tuple(r) for r in reps]
        mat = np.array([v_coords(r) for r in reps], dtype=np.int64)
        if len(reps) != dim_v or rref_mod_p(mat, p).shape[0] != dim_v:
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
        raise BePreconditionError("pairing not alternating")

    data = BeData(p, dim_v, dim_w, reps, pairing, power_map,
                  np.zeros((0, dim_v * dim_w), dtype=np.int64), derived)
    rows = []
    eye = np.eye(dim_v, dtype=np.int64)
    for a, b, c in combinations(range(dim_v), 3):
        rows.append(data.jacobi_element(eye[a], eye[b], eye[c]))
    for a in range(dim_v):
        rows.append(data.power_element(eye[a]))
    for a, b in combinations(range(dim_v), 2):
        rows.append(data.power_element((eye[a] + eye[b]) % p))
    if rows:
        data.x_basis = rref_mod_p(np.array(rows), p)
    return data


def _wedge_pairs(dim_v: int) -> list[tuple[int, int]]:
    return list(combinations(range(dim_v), 2))


def extension_data(data: BeData) -> BeExtensionData:
    """ker(rho) in exterior-square coordinates, and the dimensions of N,
    ker(rho) and ker(sigma-bar) that fix M(G)."""
    p = data.p
    pairs = _wedge_pairs(data.dim_v)
    rho = np.zeros((data.dim_w, len(pairs)), dtype=np.int64)
    for c, (i, j) in enumerate(pairs):
        rho[:, c] = data.pairing[i, j]
    rank_rho = rref_mod_p(rho, p).shape[0]
    if rank_rho != data.dim_w:
        raise BePreconditionError("commutators do not span the derived subgroup")
    ker = nullspace_mod_p(rho, p)

    # sigma(e_i ^ e_j) = e_i (x) f(e_j) + X; the binom(p,2) e_j (x) (e_i, e_j)
    # term of the general formula vanishes at odd p
    sigma_cols = np.zeros((data.tensor_dim(), len(pairs)), dtype=np.int64)
    eye = np.eye(data.dim_v, dtype=np.int64)
    for c, (i, j) in enumerate(pairs):
        sigma_cols[:, c] = np.outer(eye[i], data.power_map[:, j]).reshape(-1)
    sigma_on_ker = (sigma_cols @ ker) % p

    # the rank of the image modulo X counts the Z_{p^2} factors
    stacked = np.vstack([data.x_basis, sigma_on_ker.T])
    rank_sigma = rref_mod_p(stacked, p).shape[0] - data.x_dim()
    dim_ker_rho = ker.shape[1]
    dim_n = data.tensor_dim() - data.x_dim()
    return BeExtensionData(
        ker_rho=ker,
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
        f"dimX={data.x_dim()}, dimN={ext.dim_n}, ker_rho={ext.dim_ker_rho}, "
        f"ker_sigma={ext.dim_ker_sigma_bar}",
    )
    return MultiplierResult(pres.p, invs, METHOD_BE, trace=trace)
