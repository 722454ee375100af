"""Walks along permutation actions, and Cayley tables as tuples of int tuples:
the presentation-free view of a group.  The report's oracle picks its
generators with `greedy_generators`, whose last walk spans the group, and
reads left multiplication along that walk's tree with `left_by`; the tables
serve the table adapters in `oracle.py` (`multiplier_from_table`,
`abelianization_from_table`, `h2_trivial_coeffs`) and the tests."""

from __future__ import annotations

from itertools import product
from operator import itemgetter

from .abelian import prime_power
from .record import Frozen

Table = tuple[tuple[int, ...], ...]


def walk(actions) -> tuple[list[int], dict[int, int], dict[int, int]]:
    """A breadth-first walk from point 0 along permutations of 0..N-1.

    `order` is the reached set in the order reached, 0 first: for right
    multiplication by elements of a finite group, with the identity at 0,
    the subgroup they generate.  For each z reached after 0,
    z = actions[letter[z]][parent[z]]; these are the edges of a BFS tree,
    and parent's keys are the rest of `order`, in order.
    """
    order, parent, letter = [0], {}, {}
    for y in order:  # the queue: order grows while it is read
        for i, a in enumerate(actions):
            z = a[y]
            if z and z not in parent:
                parent[z], letter[z] = y, i
                order.append(z)
    return order, parent, letter


def left_by(c: int, actions, tree) -> list[int]:
    """c x for every point x: x's path in `tree`, a walk of the right
    multiplications `actions` that reached every point, followed from c."""
    order, parent, letter = tree
    cx = [c] * len(order)
    for x, y in parent.items():  # in the order reached, so cx[y] is set
        cx[x] = actions[letter[x]][cx[y]]
    return cx


def greedy_generators(actions) -> tuple[list, tuple]:
    """The actions, in order, that a walk over the earlier picks misses,
    and the walk over all the picks.

    Action a is picked when its image of 0, a[0], lies outside the points
    the picks so far reach; the picks stop once they reach all of them.
    For right multiplications, a[0] is the element that acts.
    """
    picks, tree = [], ([0], {}, {})  # the walk over no picks
    for a in actions:
        if a[0] and a[0] not in tree[1]:  # parent's keys: the reached points but 0
            picks.append(a)
            tree = walk(picks)
            if len(tree[0]) == len(a):
                break
    return picks, tree


def _light_associative(t: Table) -> bool:
    """Light's associativity test on an N x N table with identity 0.

    The elements s with (xs)y = x(sy) for all x and y are closed under
    products: for two of them, (x(ab))y = ((xa)b)y = (xa)(by) = x(a(by))
    = x((ab)y).  So the table is associative exactly when the test holds
    for every s in some set whose products reach every element.  The set is
    built greedily over the columns: each s is the least element that a
    walk over the earlier ones does not reach, so at most log2(N) of them
    are taken for a group.
    """
    gens = [col[0] for col in greedy_generators(zip(*t))[0]]
    return all(t[row[s]] == itemgetter(*t[s])(row) for s in gens for row in t)


class CayleyTable(Frozen):
    """An N x N index table of the group operation, identity at index 0.

    Rows may be any iterables of ints; they are stored as a tuple of int
    tuples.  Rows and columns must be permutations of 0..N-1, and
    the table must be associative.  Light's test checks that in O(dN^2);
    only when it fails does a scan of every triple find the first bad one
    to name.
    """

    _fields = ("table",)

    def __init__(self, table):
        self._set(table=table)
        # called through self, and by this name, so that a wrapper set on
        # the class (bench/tracer.py times the check this way) sees each build
        self.__post_init__()

    def __post_init__(self):
        try:
            t = tuple(tuple(map(int, row)) for row in self.table)
        except TypeError:
            raise ValueError("table rows must be sequences of ints") from None
        self._set(table=t)
        n = len(t)
        if any(len(row) != n for row in t):
            raise ValueError(f"table must be square, got {n} rows of lengths "
                             f"{sorted({len(row) for row in t})}")
        if n == 0:
            raise ValueError("empty table; the trivial group has N = 1")
        full = list(range(n))
        if list(t[0]) != full or [row[0] for row in t] != full:
            raise ValueError("index 0 is not an identity")
        bad = next((i for i, (row, col) in enumerate(zip(t, zip(*t)))
                    if sorted(row) != full or sorted(col) != full), None)
        if bad is not None:
            raise ValueError(f"row/column {bad} is not a permutation")
        if not _light_associative(t):
            x, y, z = next((x, y, z) for x, y, z in product(range(n), repeat=3)
                           if t[t[x][y]][z] != t[x][t[y][z]])
            raise ValueError(f"associativity fails at ({x},{y},{z})")

    @property
    def n(self) -> int:
        return len(self.table)

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]

    def relabel(self, perm: list[int]) -> "CayleyTable":
        """Conjugate by a permutation fixing the identity."""
        perm = list(perm)
        if perm[0] != 0:
            raise ValueError("relabeling must fix the identity")
        inv = [0] * self.n
        for i, v in enumerate(perm):
            inv[v] = i
        t = self.table
        return CayleyTable([[perm[t[a][b]] for b in inv] for a in inv])

    def actions(self, gens: list[int]) -> list[list[int]]:
        """Right multiplication by each of `gens`: its column."""
        return [[row[s] for row in self.table] for s in gens]

    def derived_subgroup(self) -> set[int]:
        """G', the subgroup the commutators generate."""
        t = self.table
        inv = [row.index(0) for row in t]  # inv[x] is the y with xy = 1
        comms = {t[t[inv[x]][inv[y]]][xy]  # [x, y] = x^-1 y^-1 x y
                 for x, row in enumerate(t) for y, xy in enumerate(row)}
        return set(walk(self.actions(sorted(comms)))[0])

    def power_map(self, e: int) -> list[int]:
        """x^e for every element x, as an index list (e >= 1)."""
        t = self.table
        powers = list(range(self.n))
        for _ in range(e - 1):
            powers = [t[y][x] for x, y in enumerate(powers)]
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
        derived = sorted(self.derived_subgroup())
        covered = {t[x][d] for x in self.power_map(p) for d in derived}  # H, from Phi(G)
        gens: list[int] = []
        while len(covered) < n:
            g = next(x for x in range(n) if x not in covered)
            gens.append(g)
            coset = covered
            for _ in range(p - 1):
                coset = {t[x][g] for x in coset}
                covered |= coset
        return gens
