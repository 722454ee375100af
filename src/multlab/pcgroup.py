"""Finite p-group arithmetic via power-commutator presentations.

A presentation holds generators g_1..g_n with relative orders r_i = p^{e_i},
power relations g_i^{r_i} = w_i, and commutator relations [g_j, g_i] = w_ji
for j > i.  Tails are normal words over generators of index > i (the
conjugate g_j^{g_i} must live in the tail subgroup <g_{i+1}, ..., g_n>),
which also admits the classical two-generator presentations of D8, Q16 and
friends where a commutator tail reuses g_j itself.

Collection from the left with a work-stack rewrites arbitrary words to the
unique normal form g_1^{a_1} ... g_n^{a_n}, 0 <= a_i < r_i; the standard
triple- and power-overlap tests certify that a presentation is consistent,
i.e. the presented group has order exactly prod r_i.  Every presentation
is checked when it is built, so no function here ever sees one that fails.
That one pass carries a free central tail on every relation, and the tail
relations it leaves are what central tails reads M(G) from.  It collects
each shared side, a pair product g_j g_i or a power tail w_i, once and
stores its word, letters and tails; an overlap copies those tails and
collects the other operand's letters onto a copy of the left word.  The
rows are memoized by `check_consistency`, so it runs once per distinct
presentation per process.
A presentation is immutable by construction: its fields are set once, in
`__init__`, and its hash is computed there, once, from every field but its
`name`.  So its other facts are memoized too: the lower central series,
the centre, G^ab and the structure report are each computed once, and each
lookup costs one stored hash.  Every quotient reads its generators from
`Subgroup.survivors`.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import prod

from .abelian import AbelianGroup, snf, snf_group, valuation
from .cayley import CayleyTable, follow, left_by, walk
from .record import Frozen, Record
from .results import METHOD_TAILS, MultiplierResult

Word = tuple[tuple[int, int], ...]       # ((gen index, exponent), ...)
NormalWord = tuple[int, ...]             # exponent vector, 0 <= a_i < r_i
Row = tuple[tuple[int, int], ...]        # ((column, nonzero entry), ...), columns ascending

_COLLECT_GUARD = 50_000_000


class CollectionError(RuntimeError):
    pass


class InconsistentPresentation(ValueError):
    pass


class SizeCapError(ValueError):
    pass


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


class PcPresentation(Frozen):
    """A consistent presentation, immutable once built.

    `name` is a label only: presentations with equal relations compare and
    hash equal whatever their names, so the memos below serve them both.
    Every relation is checked, but only commutators with nonempty tails are
    kept, so `not comms` means G is abelian.  The hash is computed once,
    here, since every memo looks it up."""

    _fields = ("p", "names", "orders", "powers", "comms", "name")
    _compared = ("p", "names", "orders", "powers", "comms")

    def __init__(self, p: int, names: tuple[str, ...], orders: tuple[int, ...],
                 powers: tuple[Word, ...],                  # tail of g_i^{r_i}
                 comms: tuple[tuple[int, int, Word], ...],  # (j, i, tail of [g_j, g_i]), j > i
                 name: str | None = None):
        self._set(p=p, names=names, orders=orders, powers=powers, comms=comms, name=name)
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        n = len(self.orders)
        if len(self.names) != n or len(self.powers) != n:
            raise ValueError("generator/order/power lists disagree")
        if len(set(self.names)) != n:
            raise ValueError("duplicate generator names")
        for i, r in enumerate(self.orders):
            if r < p or r != p ** valuation(r, p):
                raise ValueError(f"relative order of {self.names[i]} is {r}, not a power of {p}")
            self._check_tail(self.powers[i], i, f"power relation of {self.names[i]}")
        seen = set()
        for j, i, tail in self.comms:
            if not (0 <= i < j < n):
                raise ValueError(f"bad commutator index pair ({j}, {i})")
            if (j, i) in seen:
                raise ValueError(f"duplicate commutator relation ({j}, {i})")
            seen.add((j, i))
            self._check_tail(tail, i, f"commutator [{self.names[j]},{self.names[i]}]")
        self._set(comms=tuple(c for c in self.comms if c[2]))
        self._set(_comm_map={(j, i): tail for j, i, tail in self.comms},
                  _hash=hash(self._key()))
        self._set(_tail_rows=check_consistency(self))  # its memo reads _hash

    def __hash__(self) -> int:
        return self._hash

    def _check_tail(self, tail: Word, lhs_min: int, what: str):
        prev = lhs_min
        for k, e in tail:
            if k <= lhs_min:
                raise ValueError(f"{what}: tail uses generator index {k} <= {lhs_min}")
            if k < prev:
                raise ValueError(f"{what}: tail not in normal form")
            if k == prev and prev != lhs_min:
                raise ValueError(f"{what}: repeated generator in tail")
            if not isinstance(e, int):
                raise ValueError(f"{what}: exponent {e!r} is not an integer")
            if not 0 < e < self.orders[k]:
                raise ValueError(f"{what}: exponent {e} out of range for {self.names[k]}")
            prev = k

    # -- basics -------------------------------------------------------------

    @property
    def ngens(self) -> int:
        return len(self.orders)

    @property
    def order_exponent(self) -> int:
        """n with |G| = p^n."""
        return sum(valuation(r, self.p) for r in self.orders)

    def group_order(self) -> int:
        return prod(self.orders) if self.orders else 1

    @property
    def identity(self) -> NormalWord:
        return (0,) * self.ngens

    def gen(self, i: int) -> NormalWord:
        v = [0] * self.ngens
        v[i] = 1
        return tuple(v)

    def gen_index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"no generator named {name!r}") from None

    def comm_tail(self, j: int, i: int) -> Word:
        return self._comm_map.get((j, i), ())

    # -- collection ----------------------------------------------------------

    def collect(self, letters) -> NormalWord:
        """Normal form of a word (sequence of (gen index, exponent) letters)."""
        return self._collect_onto([0] * self.ngens, letters)

    def _collect_onto(self, a: list[int], letters, tails: list[int] | None = None) -> NormalWord:
        """Collect `letters` onto the normal word `a` (in place).  With
        `tails`, each relation applied adds its signed count to that
        relation's entry, read as a free central tail t: g_i^{r_i} = w_i t_i
        at position i and [g_j, g_i] = w_ji t_ji at n + j(j-1)/2 + i."""
        orders, powers, comm = self.orders, self.powers, self._comm_map
        guard = _COLLECT_GUARD
        n = len(a)
        stack = []
        for k, e in reversed(letters if isinstance(letters, (list, tuple)) else list(letters)):
            if not 0 <= k < n:
                raise CollectionError(f"letter references generator {k} of {n}")
            if e:
                stack.append((k, int(e)))
        top = n - 1
        while top >= 0 and a[top] == 0:
            top -= 1
        steps = 0
        while stack:
            steps += 1
            if steps > guard:
                raise CollectionError("collection did not terminate (guard tripped)")
            i, e = stack.pop()  # every pushed exponent is nonzero
            if e < 0:
                # g^-1 = g^{r-1} * w^-1 * t^-1 with w t the power relation of g
                if e < -1:
                    stack.append((i, e + 1))
                stack.extend([(k, -x) for k, x in powers[i]])
                stack.append((i, orders[i] - 1))
                if tails is not None:
                    tails[i] -= 1
                continue
            if top <= i:
                a[i] += e
                r = orders[i]
                while a[i] >= r:
                    a[i] -= r
                    stack.extend(reversed(powers[i]))
                    if tails is not None:
                        tails[i] += 1
                if a[i] and i > top:
                    top = i
                while top >= 0 and a[top] == 0:
                    top -= 1
                continue
            # blocked: swap one unit of g_i past the trailing g_top
            a[top] -= 1
            j = top
            while top >= 0 and a[top] == 0:
                top -= 1
            if e > 1:
                stack.append((i, e - 1))
            w = comm.get((j, i))
            if w:
                stack.extend(reversed(w))
            stack.append((j, 1))
            stack.append((i, 1))
            if tails is not None:
                tails[n + j * (j - 1) // 2 + i] += 1
        return tuple(a)

    def word_of(self, v: NormalWord) -> Word:
        return tuple((i, e) for i, e in enumerate(v) if e)

    def mul(self, u: NormalWord, v: NormalWord) -> NormalWord:
        return self._collect_onto(list(u), self.word_of(v))

    def mul_gen(self, u: NormalWord, i: int, e: int = 1) -> NormalWord:
        return self._collect_onto(list(u), [(i, e)])

    def inv(self, u: NormalWord) -> NormalWord:
        return self.ldiv(u, self.identity)

    def ldiv(self, u: NormalWord, v: NormalWord) -> NormalWord:
        """u^-1 v: the letters g_l^((v_l - a_l) mod r_l) that, multiplied onto
        a = u at each index l in turn, make a agree with v up to l.  A letter
        g_l^e leaves the entries below l alone, so one pass over l suffices,
        and the letters, with increasing l and exponents below r_l, are
        already the normal word of u^-1 v."""
        a = list(u)
        w = [0] * self.ngens
        for l, r in enumerate(self.orders):
            w[l] = (v[l] - a[l]) % r
            if w[l]:
                self._collect_onto(a, [(l, w[l])])  # multiplies onto a in place
        return tuple(w)

    def pow_el(self, u: NormalWord, k: int) -> NormalWord:
        if k < 0:
            return self.pow_el(self.inv(u), -k)
        acc = self.identity
        base = u
        while k:
            if k & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            k >>= 1
        return acc

    def comm_el(self, u: NormalWord, v: NormalWord) -> NormalWord:
        """[u, v] = u^-1 v^-1 u v = (vu)^-1 (uv)."""
        return self.ldiv(self.mul(v, u), self.mul(u, v))

    def element_order(self, u: NormalWord) -> int:
        o = 1
        while u != self.identity:
            u = self.pow_el(u, self.p)
            o *= self.p
        return o

    def elements(self):
        """All normal words in the fixed lexicographic enumeration."""
        return itertools.product(*[range(r) for r in self.orders])

    def commutes(self, u: NormalWord, v: NormalWord) -> bool:
        return self.mul(u, v) == self.mul(v, u)


# -- consistency -------------------------------------------------------------


def overlaps(pres: PcPresentation):
    """The triple/power overlap family, which certifies |G| = prod r_i.
    Yields (kind, generator indices, lhs, rhs) for each overlap evaluated
    both ways; a side is (normal word, tails), the tails being the tail
    vector the collection applied (see `_collect_onto`).  A power g_i^{r_i}
    enters as its collected tail w_i carrying t_i, never as a letter for
    the collector.  Each shared side, a power tail or a pair product g_j g_i
    (j > i), is collected once and stored with its letters; a side copies
    its shared operand's tails (the other operand, a letter, has none) and
    collects onto a copy of the left word, so no overlap changes another's."""
    n = pres.ngens
    width = n + n * (n - 1) // 2
    collect = pres._collect_onto
    gen = [pres.gen(i) for i in range(n)]
    one = [((i, 1),) for i in range(n)]

    def stored(u, letters, tails):  # u * letters with the letters of its word
        w = collect(list(u), letters, tails)
        return w, [(k, e) for k, e in enumerate(w) if e], tails

    def then(x, letters):  # stored x times letters
        tails = x[2].copy()
        return collect(list(x[0]), letters, tails), tails

    def onto(u, x):  # word u times stored x
        tails = x[2].copy()
        return collect(list(u), x[1], tails), tails

    wv = [stored(pres.identity, pres.powers[i], [int(k == i) for k in range(width)])
          for i in range(n)]
    pair = {(j, i): stored(gen[j], one[i], [0] * width) for j in range(n) for i in range(j)}
    for k in range(n):
        for j in range(k):
            for i in range(j):
                yield "triple", (k, j, i), then(pair[k, j], one[i]), onto(gen[k], pair[j, i])
    for j in range(n):
        for i in range(j):
            yield ("power-left", (j, i), then(wv[j], one[i]),  # rhs g_j^(r_j - 1) (g_j g_i)
                   onto([(pres.orders[j] - 1) * x for x in gen[j]], pair[j, i]))
            yield ("power-right", (j, i), onto(gen[j], wv[i]),
                   then(pair[j, i], ((i, pres.orders[i] - 1),)))
    for i in range(n):
        yield "power-cycle", (i,), onto(gen[i], wv[i]), then(wv[i], one[i])


@lru_cache(maxsize=None)
def check_consistency(pres: PcPresentation) -> tuple[Row, ...]:
    """Run the full overlap family; raise InconsistentPresentation naming the
    first overlap that fails.  Returns the tail relations lhs - rhs, one row
    of nonzero (column, entry) pairs per overlap, that central tails reads
    M(G) from.  The rows are memoized per presentation, so an equal
    presentation built again collects nothing; a failing overlap raises on
    every build, since nothing is cached then."""
    rows = []
    for kind, idxs, (lhs, ls), (rhs, rs) in overlaps(pres):
        if lhs != rhs:
            gens = ", ".join(pres.names[t] for t in idxs)
            raise InconsistentPresentation(
                f"inconsistent presentation: {kind} overlap on ({gens}): {lhs} != {rhs}")
        rows.append(tuple((c, d) for c, (a, b) in enumerate(zip(ls, rs)) if (d := a - b)))
    return tuple(rows)


def multiplier_via_tails(pres: PcPresentation) -> MultiplierResult:
    """M(G) by central tails (Nickel, DIMACS 25, 1996; Eick and Nickel,
    J. Algebra 320, 2008).  Each overlap, evaluated both ways in the
    presentation with a free central tail on every relation, gives a
    Z-linear relation lhs - rhs among the tails, and Z^tails / relations is
    R/[F,R] = Z^d + M(G) for d generators.  Its torsion is M(G), whose
    exponent divides |G| = p^n, so its Smith form is read over Z_{p^(n+1)},
    where valuation n + 1 marks a free column.  The free rank must be d,
    since R/(R cap F') has finite index in Z^d.  The relations are those
    the presentation's certification left, so no word is collected here."""
    rows, n = pres._tail_rows, pres.ngens
    k = pres.order_exponent + 1
    vals = snf([dict(row) for row in rows], n + n * (n - 1) // 2, pres.p, k)
    free = vals.count(k)
    if free != pres.ngens:
        raise InconsistentPresentation(
            f"tails: free rank {free} != {pres.ngens} generators")
    invs = AbelianGroup.of(pres.p, [v for v in vals if v < k])
    trace = (f"tails: tails={len(vals)}, relations={len(rows)}, free={free} "
             f"-> {invs.render()}",)
    return MultiplierResult(pres.p, invs, METHOD_TAILS, trace=trace)


# -- subgroups ----------------------------------------------------------------


def _lead(v: NormalWord) -> int:
    for i, e in enumerate(v):
        if e:
            return i
    return -1


def _sift(pres: PcPresentation, igs: dict[int, NormalWord],
          x: NormalWord) -> tuple[dict[int, int], NormalWord]:
    """Sift x through an induced generating sequence: at each lead l whose
    u_l (lead entry p^v) absorbs x[l], take u_l^(x[l] // p^v) off the front.
    Returns the exponents {lead: e} taken and the rest, which is the identity
    exactly when x lies in the subgroup and otherwise leads with the first
    entry the igs cannot absorb."""
    exps: dict[int, int] = {}
    while x != pres.identity:
        l = _lead(x)
        u = igs.get(l)
        if u is None:
            break
        if x[l] % u[l]:
            break
        exps[l] = x[l] // u[l]
        x = pres.ldiv(pres.pow_el(u, exps[l]), x)
    return exps, x


class Subgroup:
    """Subgroup of a pc group, held as an induced echelon generating sequence.

    Leading generator indices strictly increase and each leading exponent is
    normalized to a power of p, so membership tests reduce to sifting and the
    order is the product of the induced relative orders.
    """

    def __init__(self, pres: PcPresentation, igs: dict[int, NormalWord]):
        self.pres = pres
        self.igs = dict(sorted(igs.items()))

    # construction

    @classmethod
    def trivial(cls, pres: PcPresentation) -> "Subgroup":
        return cls(pres, {})

    @classmethod
    def whole(cls, pres: PcPresentation) -> "Subgroup":
        # the generators' unit vectors are already an igs with unit leads
        return cls(pres, {i: pres.gen(i) for i in range(pres.ngens)})

    @classmethod
    def generate(cls, pres: PcPresentation, gens, normal: bool = False) -> "Subgroup":
        p = pres.p
        igs: dict[int, NormalWord] = {}
        queue = [tuple(x) for x in gens]
        while queue:
            _, x = _sift(pres, igs, queue.pop())
            if x == pres.identity:
                continue
            # x joins the igs at its lead, normalized to lead entry p^v; an
            # entry it displaces there (larger valuation) is sifted again
            l = _lead(x)
            v = valuation(x[l], p)
            unit = x[l] // p ** v
            if unit != 1:
                x = pres.pow_el(x, pow(unit, -1, pres.orders[l]))
            if l in igs:
                queue.append(igs[l])
            igs[l] = x
            queue.append(pres.pow_el(x, pres.orders[l] // p ** v))
            for u in igs.values():
                if u is not x:
                    queue.append(pres.comm_el(x, u))
            if normal:
                for i in range(pres.ngens):
                    queue.append(pres.ldiv(pres.gen(i), pres.mul_gen(x, i)))  # x^g_i
        return cls(pres, igs)

    # structure

    @property
    def order_exponent(self) -> int:
        return sum(valuation(self.pres.orders[l] // u[l], self.pres.p)
                   for l, u in self.igs.items())

    def order(self) -> int:
        return self.pres.p ** self.order_exponent

    def sift(self, x: NormalWord) -> dict[int, int] | None:
        """Exponents {lead: e} with x = prod of u_lead^e in lead order, or None
        if x is outside the subgroup.  A lead entry p^v is one step, so e < rel."""
        exps, rest = _sift(self.pres, self.igs, tuple(x))
        return exps if rest == self.pres.identity else None

    def contains(self, x: NormalWord) -> bool:
        return self.sift(x) is not None

    def survivors(self) -> dict[int, int]:
        """{i: relative order of g_i in G/K} for the generators that survive
        modulo this subgroup K: K's lead entry p^v where K's igs leads at i,
        else r_i.  g_i survives unless that order is 1."""
        orders = {i: self.igs[i][i] if i in self.igs else r
                  for i, r in enumerate(self.pres.orders)}
        return {i: r for i, r in orders.items() if r != 1}

    def is_central(self) -> bool:
        pres = self.pres
        return all(pres.commutes(u, pres.gen(i))
                   for u in self.igs.values() for i in range(pres.ngens))

    def is_abelian(self) -> bool:
        us = list(self.igs.values())
        return all(self.pres.commutes(a, b)
                   for i, a in enumerate(us) for b in us[i + 1:])

    def abelian_invariants(self) -> AbelianGroup:
        """Invariant factors of an abelian subgroup: the SNF of the relations
        u_k^{rel_k} = prod_j u_j^{c_kj} that sifting the igs powers gives."""
        if not self.is_abelian():
            raise ValueError("subgroup is not abelian")
        pres, column = self.pres, {l: k for k, l in enumerate(self.igs)}
        rows = []
        for k, (l, u) in enumerate(self.igs.items()):
            rel = pres.orders[l] // u[l]
            exps = self.sift(pres.pow_el(u, rel))
            if exps is None:
                raise InconsistentPresentation(f"{u}^{rel} lies outside its own subgroup")
            row = {column[m]: -e for m, e in exps.items()}
            row[k] = row.get(k, 0) + rel
            rows.append(row)
        return snf_group(rows, len(rows), pres.p, self.order_exponent + 1)

    def __eq__(self, other):
        if not isinstance(other, Subgroup):
            return NotImplemented
        return (self.order_exponent == other.order_exponent
                and all(other.contains(u) for u in self.igs.values()))

    def __repr__(self):
        gens = ",".join(str(u) for u in self.igs.values())
        return f"Subgroup(order={self.pres.p}^{self.order_exponent}, igs=[{gens}])"


# -- derived / central series, quotients, products ----------------------------


def derived_subgroup(pres: PcPresentation) -> Subgroup:
    """G' = [G, G]: the second term of the lower central series."""
    lower = lower_central_series(pres)
    return lower[1] if len(lower) > 1 else lower[0]


def _stated(pres: PcPresentation, tail: Word) -> NormalWord:
    """A relation's tail, which is checked to be normal, as a normal word."""
    return tuple(dict(tail).get(k, 0) for k in range(pres.ngens))


def _preimage(pres: PcPresentation, sub: Subgroup, indices: list[int], K: Subgroup) -> Subgroup:
    """The preimage in G of a subgroup `sub` of G/K, generator t of G/K
    being the image of g_(indices[t])."""
    at = {i: t for t, i in enumerate(indices)}
    lifts = [tuple(u[at[i]] if i in at else 0 for i in range(pres.ngens)) for u in sub.igs.values()]
    return Subgroup.generate(pres, lifts + list(K.igs.values()))


@lru_cache(maxsize=None)
def center(pres: PcPresentation) -> Subgroup:
    """Z(G) by linear algebra down the lower central series (Holt, Eick and
    O'Brien, Handbook of Computational Group Theory, ch. 8).

    N = <u^(|u|/p) : u in the igs of gamma_c>, gamma_c the series' last
    nontrivial term.  gamma_c is central, so N is central, hence normal; N
    is generated by elements of order p in an abelian group, so it is
    elementary abelian; and gamma_c != 1, so N != 1.  The recursion and the
    echelon use nothing more.  Y/N = Z(G/N) comes from the quotient by
    recursion, and x -> ([x, g_i])_i is a homomorphism from Y into the
    GF(p)-space N^d whose kernel is Z(G).  One GF(p) echelon of the images
    of Y's igs carries each row's element: with a pivot row r, the image of
    v, u v^(p-f) has the image row - f r, so a row that reduces to zero
    names an element of the kernel.  Those, the p-th powers of Y's igs, and
    N (which holds [Y, Y], so Y/Y^pN is elementary) generate the kernel, of
    index p^rank, rank the number of pivots.  Cost grows with the number of
    generators; G is never enumerated.  Z(G) is built once per
    presentation, and the one Subgroup is shared by every caller, so none
    may change it.
    """
    p = pres.p
    if not pres.comms:
        return Subgroup.whole(pres)
    gens = [pres.gen(i) for i in range(pres.ngens)]
    gamma_c = lower_central_series(pres)[-2]
    n_sub = Subgroup.generate(
        pres, [pres.pow_el(u, pres.element_order(u) // p) for u in gamma_c.igs.values()])
    quotient, survivors = _central_quotient_map(pres, n_sub)
    y = _preimage(pres, center(quotient), survivors, n_sub)
    ys = list(y.igs.values())
    kernel = [pres.pow_el(u, p) for u in ys] + list(n_sub.igs.values())
    pivots = []  # (column, row scaled to 1 there, the element of Y it is the image of)
    for u in ys:
        row = []
        for g in gens:
            exps = n_sub.sift(pres.comm_el(u, g))
            if exps is None:
                raise InconsistentPresentation("[Z(G/N), G] is not inside N")
            row.extend(exps.get(l, 0) for l in n_sub.igs)
        for c, prow, pu in pivots:  # u * pu^(p - f) has the image row - f * prow
            if f := row[c]:
                row = [(a - f * b) % p for a, b in zip(row, prow)]
                u = pres.mul(u, pres.pow_el(pu, p - f))
        c = next((c for c, a in enumerate(row) if a % p), None)
        if c is None:
            kernel.append(u)
        else:
            inv = pow(row[c], -1, p)
            pivots.append((c, [a * inv % p for a in row], pres.pow_el(u, inv)))
    z = Subgroup.generate(pres, kernel)
    rank = len(pivots)
    if z.order_exponent != y.order_exponent - rank:
        raise InconsistentPresentation(
            f"centre has order p^{z.order_exponent}, expected p^{y.order_exponent - rank}")
    return z


@lru_cache(maxsize=None)
def lower_central_series(pres: PcPresentation) -> list[Subgroup]:
    """gamma_1 = G >= ... >= gamma_{c+1} = 1, gamma_{k+1} = [gamma_k, G],
    built once per presentation; `center()` reads its central gamma_c.
    [G, G] is the normal closure of the stated tails of [g_j, g_i], so the
    first step collects no commutator."""
    gens = [pres.gen(i) for i in range(pres.ngens)]
    series = [Subgroup.whole(pres)]
    words = [_stated(pres, tail) for _, _, tail in pres.comms]
    while series[-1].order_exponent:
        nxt = Subgroup.generate(pres, words, normal=True)
        if nxt.order_exponent == series[-1].order_exponent:
            raise InconsistentPresentation("lower central series stalled")
        series.append(nxt)
        words = [pres.comm_el(u, g) for u in nxt.igs.values() for g in gens]
    return series


def upper_central_series(pres: PcPresentation) -> list[Subgroup]:
    """1 = Z_0 <= Z_1 <= ... terminating at Z_c = G."""
    series = [Subgroup.trivial(pres)]
    quotient = pres  # G/Z_k
    indices = list(range(pres.ngens))  # ambient index of each quotient generator
    while series[-1].order_exponent < pres.order_exponent:
        zq = center(quotient)
        if series[-1].order_exponent + zq.order_exponent > pres.order_exponent:
            raise InconsistentPresentation("upper central series overflow")
        series.append(_preimage(pres, zq, indices, series[-1]))
        if series[-1].order_exponent == series[-2].order_exponent:
            raise InconsistentPresentation("upper central series stalled")
        if zq.order_exponent < quotient.order_exponent:  # else Z_(k+1) = G
            quotient, qindices = _central_quotient_map(quotient, zq)
            indices = [indices[t] for t in qindices]
    return series


def _central_quotient_map(pres: PcPresentation, K: Subgroup) -> tuple[PcPresentation, list[int]]:
    """Quotient presentation of G/K for central K, plus surviving-index map."""
    if K.pres != pres:
        raise ValueError("subgroup belongs to a different presentation")
    if not K.is_central():
        raise ValueError("subgroup is not central")
    survivors = K.survivors()
    pos = {i: t for t, i in enumerate(survivors)}

    def project(x: NormalWord) -> Word:
        """The normal word of xK in G/K: x reduced below each lead of K."""
        for l, u in K.igs.items():
            if q := x[l] // u[l]:
                x = pres.ldiv(pres.pow_el(u, q), x)
        return tuple((pos[i], x[i]) for i in survivors if x[i])

    new_comms = []  # the stated tails, projected, in (j, i) order
    for j, i, tail in sorted(pres.comms):
        if j in pos and i in pos:
            new_comms.append((pos[j], pos[i], project(_stated(pres, tail))))
    q = PcPresentation(
        p=pres.p,
        names=tuple(pres.names[i] for i in survivors),
        orders=tuple(survivors.values()),
        powers=tuple(project(pres.pow_el(pres.gen(i), r)) for i, r in survivors.items()),
        comms=tuple(new_comms),
        name=f"{pres.name}/K" if pres.name else None,
    )
    if q.order_exponent != pres.order_exponent - K.order_exponent:
        raise InconsistentPresentation("central quotient has wrong order")
    return q, list(survivors)


def central_quotient(pres: PcPresentation, K: Subgroup) -> PcPresentation:
    return _central_quotient_map(pres, K)[0]


def direct_product(*factors: PcPresentation, name: str | None = None) -> PcPresentation:
    """The product of `factors`, in order, named `name` or "A x B x ...";
    certified once, when it is built.  A repeated generator name is primed."""
    p = factors[0].p
    shift = lambda w, na: tuple((k + na, e) for k, e in w)
    names: list[str] = []
    orders, powers, comms = [], [], []
    for f in factors:
        if f.p != p:
            raise ValueError(f"mismatched primes {p} and {f.p}")
        na = len(names)
        for nm in f.names:
            while nm in names:
                nm = nm + "'"
            names.append(nm)
        orders += f.orders
        powers += [shift(w, na) for w in f.powers]
        comms += [(j + na, i + na, shift(t, na)) for j, i, t in f.comms]
    if name is None and all(f.name for f in factors):
        name = " x ".join(f.name for f in factors)
    return PcPresentation(p=p, names=tuple(names), orders=tuple(orders),
                          powers=tuple(powers), comms=tuple(comms), name=name)


# -- abelianization ------------------------------------------------------------


@lru_cache(maxsize=None)
def abelianization(pres: PcPresentation) -> AbelianGroup:
    """Invariant factors of G/G' from the SNF of the relation matrix,
    computed once per presentation."""
    return abelian_quotient_invariants(pres, ())


def abelian_quotient_invariants(pres: PcPresentation, extra) -> AbelianGroup:
    """Invariants of G/(G' <extra>) -- the abelianization with extra images
    killed -- read off the stated power and commutator relations."""
    rows = [{i: r, **{k: -e for k, e in w}}
            for i, (r, w) in enumerate(zip(pres.orders, pres.powers))]
    rows += [dict(tail) for _, _, tail in pres.comms]
    rows += [{j: e for j, e in enumerate(x) if e} for x in extra]
    return snf_group(rows, pres.ngens, pres.p, pres.order_exponent + 1)


# -- structure report ----------------------------------------------------------


class StructureReport(Record):
    _fields = ("nilpotency_class", "derived", "center", "lower_central", "upper_central")

    def __init__(self, nilpotency_class: int, derived: Subgroup, center: Subgroup,
                 lower_central: list[Subgroup], upper_central: list[Subgroup]):
        self.nilpotency_class = nilpotency_class
        self.derived = derived
        self.center = center
        self.lower_central = lower_central
        self.upper_central = upper_central


@lru_cache(maxsize=None)
def structure_report(pres: PcPresentation) -> StructureReport:
    lower = lower_central_series(pres)
    upper = upper_central_series(pres)
    # lower = [gamma_1, ..., gamma_{c+1} = 1], so the class is len - 1
    c = len(lower) - 1
    if c != len(upper) - 1:
        raise InconsistentPresentation(
            f"series disagree on nilpotency class: {c} vs {len(upper) - 1}")
    return StructureReport(
        nilpotency_class=c,
        derived=derived_subgroup(pres),
        center=center(pres),
        lower_central=lower,
        upper_central=upper,
    )


# -- element actions, Cayley tables and isomorphism witnesses -----------------


def right_actions(pres: PcPresentation) -> list[list[int]]:
    """right[l][x] = x g_l for every pc generator g_l, on the indices of the
    elements in the lexicographic order of `elements`, a unit at l adding
    stride_l = prod_(k > l) r_k.  The rows are walked from the stated
    relations as pc collection rewrites x g_l (Holt, Eick and O'Brien,
    Handbook of CGT, ch. 8), l descending and x ascending, m being x's last
    nonzero position: x + stride_l if m < l, or m = l below exponent
    r_l - 1; at that exponent, w_l walked from x with g_l cleared; and for
    m > l, x = x' g_m gives (x' g_l) g_m [g_m, g_l].  Nothing is collected."""
    orders, n = pres.orders, pres.ngens
    stride = [prod(orders[k + 1:]) for k in range(n)]
    last = [-1]  # last[x]: x's last nonzero position, -1 at the identity
    for k, r in enumerate(orders):
        last = [m for y in last for m in [y] + [k] * (r - 1)]
    right: list = [None] * n
    for l in reversed(range(n)):
        s, top = stride[l], (orders[l] - 1) * stride[l]
        row = right[l] = []
        for x, m in enumerate(last):
            if m < l or m == l and x % (top + s) < top:
                row.append(x + s)
            elif m == l:
                row.append(follow(right, pres.powers[l], x - top))
            else:
                row.append(follow(right, pres.comm_tail(m, l), right[m][row[x - stride[m]]]))
    return right


def cayley_table(pres: PcPresentation) -> CayleyTable:
    """The N x N table: row s is the left action of s, read along the walk
    of the right actions."""
    right = right_actions(pres)
    tree = walk(right)
    return CayleyTable([left_by(s, right, tree) for s in range(pres.group_order())])


def iso_witness_check(src: PcPresentation, dst: PcPresentation,
                      images: list[NormalWord]) -> bool:
    """True iff the generator images satisfy src's relations in dst and
    generate all of dst.  Size mismatch, or an image that is not a normal
    word of dst, is an error, not a False."""
    if len(images) != src.ngens:
        raise ValueError(f"need {src.ngens} images, got {len(images)}")
    if src.p != dst.p or src.order_exponent != dst.order_exponent:
        raise ValueError(
            f"size mismatch: |src| = {src.p}^{src.order_exponent}, "
            f"|dst| = {dst.p}^{dst.order_exponent}")
    images = [tuple(x) for x in images]
    for x in images:
        if len(x) != dst.ngens or not all(0 <= e < r for e, r in zip(x, dst.orders)):
            raise ValueError(f"image {x} is not a normal word of dst")

    def img(word: Word) -> NormalWord:
        acc = dst.identity
        for k, e in word:
            acc = dst.mul(acc, dst.pow_el(images[k], e))
        return acc

    for i in range(src.ngens):
        if dst.pow_el(images[i], src.orders[i]) != img(src.powers[i]):
            return False
    for j in range(src.ngens):
        for i in range(j):
            if dst.comm_el(images[j], images[i]) != img(src.comm_tail(j, i)):
                return False
    gen = Subgroup.generate(dst, [x for x in images if x != dst.identity])
    return gen.order_exponent == dst.order_exponent
