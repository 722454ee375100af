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
each pair product g_j g_i once and shares it between the overlaps that
start from it, and its rows are memoized, so it runs once per distinct
presentation per process.  A presentation is immutable by construction:
its fields are set once, in `__init__`, and its hash is computed there,
once, from every field but its `name`.  So its other facts are memoized
too: the lower central series, the centre, G^ab and the structure report
are each computed once, and each lookup costs one stored hash.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import prod

from .abelian import AbelianGroup, snf, snf_group, valuation
from .cayley import CayleyTable
from .record import Frozen, Record
from .results import METHOD_TAILS, MultiplierResult

Word = tuple[tuple[int, int], ...]       # ((gen index, exponent), ...)
NormalWord = tuple[int, ...]             # exponent vector, 0 <= a_i < r_i

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
    The hash is computed once, here, since every memo looks it up."""

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
        orders = self.orders
        powers = self.powers
        comm = self._comm_map
        n = len(a)
        stack = []
        for k, e in reversed(list(letters)):
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
            if steps > _COLLECT_GUARD:
                raise CollectionError("collection did not terminate (guard tripped)")
            i, e = stack.pop()
            if e == 0:
                continue
            if e < 0:
                # g^-1 = g^{r-1} * w^-1 * t^-1 with w t the power relation of g
                if e < -1:
                    stack.append((i, e + 1))
                w = powers[i]
                for k, x in w:
                    stack.append((k, -x))
                stack.append((i, orders[i] - 1))
                if tails is not None:
                    tails[i] -= 1
                continue
            if top <= i:
                a[i] += e
                r = orders[i]
                while a[i] >= r:
                    a[i] -= r
                    for k, x in reversed(powers[i]):
                        stack.append((k, x))
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
            for k, x in reversed(comm.get((j, i), ())):
                stack.append((k, x))
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
    the collector.  Each g_j g_i (j > i) is collected once, and every
    triple and power overlap that starts from it shares that side; `mul`
    copies its operands, so no overlap changes another's."""
    n = pres.ngens
    width = n + n * (n - 1) // 2

    def mul(x, y):
        (u, s), (v, t) = x, y
        acc = [a + b for a, b in zip(s, t)]
        return pres._collect_onto(list(u), pres.word_of(v), acc), acc

    def unit(i, e=1):
        v = [0] * n
        v[i] = e
        return tuple(v), [0] * width

    def power(i):  # g_i^{r_i} = w_i t_i
        tails = [int(k == i) for k in range(width)]
        return pres._collect_onto([0] * n, pres.powers[i], tails), tails

    g = [unit(i) for i in range(n)]
    wv = [power(i) for i in range(n)]
    pair = {(j, i): mul(g[j], g[i]) for j in range(n) for i in range(j)}
    for k in range(n):
        for j in range(k):
            for i in range(j):
                yield ("triple", (k, j, i), mul(pair[k, j], g[i]), mul(g[k], pair[j, i]))
    for j in range(n):
        for i in range(j):
            yield ("power-left", (j, i), mul(wv[j], g[i]),
                   mul(unit(j, pres.orders[j] - 1), pair[j, i]))
            yield ("power-right", (j, i), mul(g[j], wv[i]),
                   mul(pair[j, i], unit(i, pres.orders[i] - 1)))
    for i in range(n):
        yield "power-cycle", (i,), mul(g[i], wv[i]), mul(wv[i], g[i])


def check_consistency(pres: PcPresentation) -> tuple[tuple[int, ...], ...]:
    """Run the full overlap family; raise InconsistentPresentation naming the
    first overlap that fails.  Returns the tail relations lhs - rhs, one row
    per overlap, that central tails reads M(G) from.  The rows are memoized
    per presentation, so an equal presentation built again collects nothing;
    a failing overlap raises on every build, since nothing is cached then."""
    return _overlap_rows(pres)


@lru_cache(maxsize=None)
def _overlap_rows(pres: PcPresentation) -> tuple[tuple[int, ...], ...]:
    rows = []
    for kind, idxs, (lhs, ls), (rhs, rs) in overlaps(pres):
        if lhs != rhs:
            gens = ", ".join(pres.names[t] for t in idxs)
            raise InconsistentPresentation(
                f"inconsistent presentation: {kind} overlap on ({gens}): {lhs} != {rhs}")
        rows.append(tuple(a - b for a, b in zip(ls, rs)))
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
    rows = pres._tail_rows
    k = pres.order_exponent + 1
    vals = snf(rows, pres.p, k)
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

    def elements(self):
        pres = self.pres
        gens = list(self.igs.items())
        rel = [pres.orders[l] // u[l] for l, u in gens]

        # triangular products u_1^{e_1} ... u_m^{e_m} enumerate each element once
        def rec(k, acc):
            if k == len(gens):
                yield acc
                return
            _, u = gens[k]
            cur = acc
            for e in range(rel[k]):
                yield from rec(k + 1, cur)
                if e + 1 < rel[k]:
                    cur = pres.mul(cur, u)

        return rec(0, pres.identity)

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
        pres, p = self.pres, self.pres.p
        leads = list(self.igs)
        rows = []
        for k, (l, u) in enumerate(self.igs.items()):
            rel = pres.orders[l] // u[l]
            exps = self.sift(pres.pow_el(u, rel))
            if exps is None:
                raise InconsistentPresentation(f"{u}^{rel} lies outside its own subgroup")
            row = [-exps.get(m, 0) for m in leads]
            row[k] += rel
            rows.append(row)
        return snf_group(rows, p, self.order_exponent + 1)

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


def _descending_series(pres: PcPresentation, p_power: bool) -> list[Subgroup]:
    """S_1 = G, S_{k+1} = [S_k, G] (times S_k^p when `p_power`), down to and
    including the trivial term: the lower central series, or the lower
    exponent-p central series whose last nontrivial term is central and
    elementary abelian.  [G, G] is the normal closure of the stated tails
    of [g_j, g_i], so the first step collects no commutator."""
    gens = [pres.gen(i) for i in range(pres.ngens)]
    series = [Subgroup.whole(pres)]
    words = [_stated(pres, tail) for _, _, tail in pres.comms]
    while series[-1].order_exponent:
        if p_power:
            words += [pres.pow_el(u, pres.p) for u in series[-1].igs.values()]
        nxt = Subgroup.generate(pres, [x for x in words if x != pres.identity], normal=True)
        if nxt.order_exponent == series[-1].order_exponent:
            raise InconsistentPresentation("descending central series stalled")
        series.append(nxt)
        words = [pres.comm_el(u, g) for u in nxt.igs.values() for g in gens]
    return series


def _lift(u: NormalWord, survivors: list[int], n: int) -> NormalWord:
    """Normal word of G whose image in a quotient with surviving generators
    `survivors` is u."""
    w = [0] * n
    for t, e in enumerate(u):
        w[survivors[t]] = e
    return tuple(w)


@lru_cache(maxsize=None)
def center(pres: PcPresentation) -> Subgroup:
    """Z(G) by linear algebra down the lower exponent-p central series
    (Holt, Eick and O'Brien, Handbook of Computational Group Theory, ch. 8).

    With N that series' last nontrivial term, Y/N = Z(G/N) comes from the
    quotient by recursion.  N is central, so x -> ([x, g_i])_i is a
    homomorphism from Y into the GF(p)-space N^d whose kernel is Z(G).  One
    GF(p) echelon of the images of Y's igs carries each row's element: with
    a pivot row r, the image of v, u v^(p-f) has the image row - f r, so a
    row that reduces to zero names an element of the kernel.  Those, the
    p-th powers of Y's igs, and N (which holds [Y, Y], so Y/Y^pN is
    elementary) generate the kernel, of index p^rank, rank the number of
    pivots.  Cost grows with the number of generators; G is never
    enumerated.  Z(G) is built once per presentation, and the one Subgroup
    is shared by every caller, so none may change it.
    """
    p = pres.p
    if not any(tail for _, _, tail in pres.comms):
        return Subgroup.whole(pres)
    gens = [pres.gen(i) for i in range(pres.ngens)]
    n_sub = _descending_series(pres, p_power=True)[-2]
    quotient, survivors = _central_quotient_map(pres, n_sub)
    lifts = [_lift(u, survivors, pres.ngens) for u in center(quotient).igs.values()]
    y = Subgroup.generate(pres, lifts + list(n_sub.igs.values()))
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
    z = Subgroup.generate(pres, [x for x in kernel if x != pres.identity])
    rank = len(pivots)
    if z.order_exponent != y.order_exponent - rank:
        raise InconsistentPresentation(
            f"centre has order p^{z.order_exponent}, expected p^{y.order_exponent - rank}")
    return z


@lru_cache(maxsize=None)
def lower_central_series(pres: PcPresentation) -> list[Subgroup]:
    """gamma_1 = G >= gamma_2 >= ... >= 1, built once per presentation."""
    return _descending_series(pres, p_power=False)


def upper_central_series(pres: PcPresentation) -> list[Subgroup]:
    """1 = Z_0 <= Z_1 <= ... terminating at Z_c = G."""
    series = [Subgroup.trivial(pres)]
    quotient = pres
    indices = list(range(pres.ngens))  # ambient index of each quotient generator
    while True:
        zq = center(quotient)
        if series[-1].order_exponent + zq.order_exponent > pres.order_exponent:
            raise InconsistentPresentation("upper central series overflow")
        lifts = [_lift(u, indices, pres.ngens) for u in zq.igs.values()]
        z_next = Subgroup.generate(pres, lifts + list(series[-1].igs.values()))
        if z_next.order_exponent == series[-1].order_exponent:
            if z_next.order_exponent != pres.order_exponent:
                raise InconsistentPresentation("upper central series stalled")
            break
        series.append(z_next)
        if z_next.order_exponent == pres.order_exponent:
            break
        quotient, qindices = _central_quotient_map(quotient, zq)
        indices = [indices[t] for t in qindices]
    return series


def reduce_mod_central(K: Subgroup, x: NormalWord) -> NormalWord:
    """The representative of xK whose entry at each lead l of K's igs is
    below that lead's entry p^v; over the generators that survive in G/K it
    is the normal word of xK there."""
    pres = K.pres
    for l, u in K.igs.items():
        q = x[l] // u[l]
        if q:
            x = pres.ldiv(pres.pow_el(u, q), x)
    return x


def _central_quotient_map(pres: PcPresentation, K: Subgroup) -> tuple[PcPresentation, list[int]]:
    """Quotient presentation of G/K for central K, plus surviving-index map."""
    if K.pres != pres:
        raise ValueError("subgroup belongs to a different presentation")
    if not K.is_central():
        raise ValueError("subgroup is not central")
    p = pres.p
    lead_pow = {l: u[l] for l, u in K.igs.items()}
    new_orders = []
    survivors = []
    for i, r in enumerate(pres.orders):
        nr = lead_pow.get(i, r)
        if nr > 1:
            survivors.append(i)
            new_orders.append(nr)
    pos = {i: t for t, i in enumerate(survivors)}

    def project(x: NormalWord) -> Word:
        x = reduce_mod_central(K, x)
        return tuple((pos[i], x[i]) for i in survivors if x[i])

    new_powers = []
    for t, i in enumerate(survivors):
        y = pres.pow_el(pres.gen(i), new_orders[t])
        new_powers.append(project(y))
    new_comms = []  # the stated tails, projected, in (j, i) order
    for j, i, tail in sorted(pres.comms):
        if j in pos and i in pos and (w := project(_stated(pres, tail))):
            new_comms.append((pos[j], pos[i], w))
    q = PcPresentation(
        p=p,
        names=tuple(pres.names[i] for i in survivors),
        orders=tuple(new_orders),
        powers=tuple(new_powers),
        comms=tuple(new_comms),
        name=f"{pres.name}/K" if pres.name else None,
    )
    if q.order_exponent != pres.order_exponent - K.order_exponent:
        raise InconsistentPresentation("central quotient has wrong order")
    return q, survivors


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
    """Invariants of G/(G' <extra>) -- the abelianization with extra images killed."""
    n = pres.ngens
    rows = []
    for i in range(n):
        row = [0] * n
        row[i] = pres.orders[i]
        for k, e in pres.powers[i]:
            row[k] -= e
        rows.append(row)
    for j, i, tail in pres.comms:
        rows.append(list(_stated(pres, tail)))
    for x in extra:
        rows.append(list(x))
    return snf_group(rows, pres.p, pres.order_exponent + 1)


# -- structure report ----------------------------------------------------------


class StructureReport(Record):
    _fields = ("pres", "order_exponent", "nilpotency_class", "derived", "center",
               "lower_central", "upper_central")

    def __init__(self, pres: PcPresentation, order_exponent: int, nilpotency_class: int,
                 derived: Subgroup, center: Subgroup, lower_central: list[Subgroup],
                 upper_central: list[Subgroup]):
        self.pres = pres
        self.order_exponent = order_exponent
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
    trivial = Subgroup.trivial(pres)
    return StructureReport(
        pres=pres,
        order_exponent=pres.order_exponent,
        nilpotency_class=c,
        derived=lower[1] if c else trivial,
        center=upper[1] if c else trivial,
        lower_central=lower,
        upper_central=upper,
    )


# -- Cayley tables and isomorphism witnesses -----------------------------------


def cayley_table(pres: PcPresentation) -> CayleyTable:
    n = pres.group_order()
    words = list(pres.elements())
    index = {w: k for k, w in enumerate(words)}
    # right[l][i] = index of words[i] * g_l
    right = [[index[pres.mul_gen(w, l)] for w in words] for l in range(pres.ngens)]
    strides = [prod(pres.orders[l + 1:]) for l in range(pres.ngens)]
    # In the lexicographic enumeration, word j is its predecessor (the last
    # nonzero exponent, at l, lowered by one) times g_l, already normal, so
    # column j is column j - strides[l] multiplied on the right by g_l.
    cols = [list(range(n))]
    for j in range(1, n):
        l = max(i for i, e in enumerate(words[j]) if e)
        cols.append([right[l][c] for c in cols[j - strides[l]]])
    return CayleyTable(list(zip(*cols)))


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
