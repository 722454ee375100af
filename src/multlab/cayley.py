"""Dense Cayley tables: the oracle's presentation-free view of a group."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CayleyTable:
    """An N x N index table of the group operation, identity at index 0.

    Rows and columns must be permutations of 0..N-1, and associativity is
    checked on every triple.
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
        for i in range(n):
            if not np.array_equal(np.sort(t[i]), full) or not np.array_equal(np.sort(t[:, i]), full):
                raise ValueError(f"row/column {i} is not a permutation")
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

    def _closure(self, gens: list[int]) -> set[int]:
        seen = {0, *gens}
        frontier = list(seen)
        while frontier:
            x = frontier.pop()
            for s in gens:
                y = self.mul(x, s)
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        return seen

    def generating_set(self) -> list[int]:
        """Deterministic small generating set: each pick maximizes the closure.

        Fewer generators means fewer unknowns downstream, so greed on closure
        size pays; ties break to the smallest index for determinism.
        """
        n = self.n
        gens: list[int] = []
        reached = {0}
        while len(reached) < n:
            best_g, best_size, best_closure = -1, -1, None
            for g in range(1, n):
                if g in reached:
                    continue
                cl = self._closure(gens + [g])
                if len(cl) > best_size:
                    best_g, best_size, best_closure = g, len(cl), cl
                if best_size == n:
                    break
            gens.append(best_g)
            reached = best_closure
        return gens
