"""Dense Cayley tables: the oracle's presentation-free view of a group."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .abelian import prime_power


def walk(t: np.ndarray, gens: list[int]) -> tuple[list[int], dict[int, int], dict[int, int]]:
    """A breadth-first walk from the identity by right multiplication.

    `order` is the reached set in the order reached, the identity first: in
    a finite group, the subgroup `gens` generate.  For each z reached after
    the identity, z = parent[z] * gens[letter[z]]; these are the edges of a
    BFS tree, and parent's keys are the rest of `order`, in order.
    """
    cols = [t[:, s].tolist() for s in gens]  # cols[i][y] = y * gens[i]
    order, parent, letter = [0], {}, {}
    for y in order:  # the queue: order grows while it is read
        for i, col in enumerate(cols):
            z = col[y]
            if z and z not in parent:
                parent[z], letter[z] = y, i
                order.append(z)
    return order, parent, letter


def _light_associative(t: np.ndarray) -> bool:
    """Light's associativity test on an N x N table with identity 0.

    The elements s with (xs)y = x(sy) for all x and y are closed under
    products: for two of them, (x(ab))y = ((xa)b)y = (xa)(by) = x(a(by))
    = x((ab)y).  So the table is associative exactly when the test holds
    for every s in some set whose products reach every element.  The set is
    built greedily: each s is the least element that a walk over the earlier
    ones does not reach, so at most log2(N) of them are taken for a group.
    """
    gens: list[int] = []
    reached = {0}
    while len(reached) < len(t):
        gens.append(next(x for x in range(len(t)) if x not in reached))
        reached = set(walk(t, gens)[0])
    return all(np.array_equal(t[t[:, s]], t[:, t[s]]) for s in gens)


@dataclass(frozen=True)
class CayleyTable:
    """An N x N index table of the group operation, identity at index 0.

    Rows and columns must be permutations of 0..N-1, and the table must be
    associative.  Light's test checks that in O(dN^2); only when it fails
    does a scan of every triple find the first bad one to name.
    """

    table: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.table, dtype=np.int32)
        object.__setattr__(self, "table", t)
        n = self.n
        if t.ndim != 2 or t.shape != (n, n):
            raise ValueError(f"table must be square, got {t.shape}")
        if n == 0:
            raise ValueError("empty table; the trivial group has N = 1")
        full = np.arange(n)
        if not np.array_equal(t[0], full) or not np.array_equal(t[:, 0], full):
            raise ValueError("index 0 is not an identity")
        bad = np.flatnonzero(~((np.sort(t, axis=1) == full).all(axis=1)
                               & (np.sort(t, axis=0) == full[:, None]).all(axis=0)))
        if bad.size:
            raise ValueError(f"row/column {bad[0]} is not a permutation")
        if not _light_associative(t):
            for x in range(n):  # row x of t[t] == t[:, t], one row at a time
                bad = np.argwhere(t[t[x]] != t[x][t])
                if bad.size:
                    y, z = bad[0]
                    raise ValueError(f"associativity fails at ({x},{y},{z})")

    @property
    def n(self) -> int:
        return int(np.asarray(self.table).shape[0])

    def mul(self, i: int, j: int) -> int:
        return int(self.table[i, j])

    def relabel(self, perm: list[int]) -> "CayleyTable":
        """Conjugate by a permutation fixing the identity."""
        perm = list(perm)
        if perm[0] != 0:
            raise ValueError("relabeling must fix the identity")
        inv = [0] * self.n
        for i, v in enumerate(perm):
            inv[v] = i
        t = self.table
        new = np.zeros_like(t)
        for i in range(self.n):
            for j in range(self.n):
                new[i, j] = perm[t[inv[i], inv[j]]]
        return CayleyTable(new)

    def derived_subgroup(self) -> set[int]:
        """G', the subgroup the commutators generate."""
        t = self.table
        inv = np.nonzero(t == 0)[1]  # inv[x] is the y with xy = 1
        comms = np.zeros(self.n, dtype=bool)
        comms[t[t[np.ix_(inv, inv)], t]] = True  # [x, y] = x^-1 y^-1 x y
        return set(walk(t, np.flatnonzero(comms).tolist())[0])

    def power_map(self, e: int) -> np.ndarray:
        """x^e for every element x, as an index array (e >= 1)."""
        t = self.table
        powers = np.arange(self.n)
        for _ in range(e - 1):
            powers = t[powers, np.arange(self.n)]
        return powers

    def generating_set(self) -> list[int]:
        """A minimal generating set of the p-group: d(G) elements.

        By Burnside's basis theorem an element extends the picks so far
        towards a generating set of G/Phi(G), Phi(G) = G'G^p, exactly when
        it lies outside H = Phi(G)<picks>; each pick is the least such
        index, so the picks stop after d(G).  H holds G', so it is normal,
        and g^p lies in Phi(G), so H<g> is the union of the cosets H g^k,
        0 <= k < p.
        """
        n = self.n
        if n == 1:
            return []
        p, _ = prime_power(n)
        t = self.table
        # G^p G' is the union of the cosets x^p G', as G/G' is abelian
        covered = np.zeros(n, dtype=bool)  # H, starting at Phi(G)
        covered[t[np.ix_(self.power_map(p), sorted(self.derived_subgroup()))]] = True
        gens: list[int] = []
        while not covered.all():
            g = int(np.argmin(covered))
            gens.append(g)
            coset = np.flatnonzero(covered)
            for _ in range(p - 1):
                coset = t[coset, g]
                covered[coset] = True
        return gens
