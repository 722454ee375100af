"""Method selection and orchestration for multiplier computations.

`auto` runs every method that applies, in this order: the direct-product
identity (for catalog product recipes), the class-2 tensor construction,
the abelian exterior square, the Cayley-table oracle, and central tails.
Tails applies to every group, so each result has at least one method; the
oracle runs only when none of the first three applies and the order is
within its cap.  All results must agree exactly, and the first one names
the method.
"""

from __future__ import annotations

from .abelian import direct_sum, exterior_square, kunneth
from .blackburn_evens import BePreconditionError, be_preconditions, multiplier_via_be
from .entries import Catalog, CatalogEntry
from .oracle import DEFAULT_ORACLE_CAP, multiplier_via_oracle
from .pcgroup import PcPresentation, abelianization, multiplier_via_tails
from .record import Record
from .results import (
    METHOD_ABELIAN,
    METHOD_BE,
    METHOD_KUNNETH,
    METHOD_ORACLE,
    METHOD_TAILS,
    MultiplierResult,
)

NONABELIAN = "group is nonabelian"  # why the abelian exterior square does not apply


class CrossMethodDisagreement(RuntimeError):
    pass


def compute_t(pres: PcPresentation, mult: MultiplierResult) -> int:
    """t = n(n-1)/2 - log_p |M(G)| for |G| = p^n."""
    n = pres.order_exponent
    return n * (n - 1) // 2 - mult.order_exponent


class Computer(Record):
    """Multiplier computation bound to a catalog (for product recipes)."""

    _fields = ("catalog",)

    def __init__(self, catalog: Catalog):
        self.catalog = catalog

    # -- single-method routes ------------------------------------------------

    def via_kunneth(self, entry: CatalogEntry, p: int) -> MultiplierResult:
        recipe = self.catalog.resolve_recipe(entry.entry_id)
        if not recipe.is_product:
            raise ValueError(f"{entry.entry_id} is not a product recipe")
        trace: list[str] = []
        total = None
        total_ab = None
        for fid in recipe.factors:
            fres = self.compute(fid, p)
            trace.extend(fres.trace)
            fab = abelianization(self.catalog.instantiate(fid, p))
            if total is None:
                total, total_ab = fres.invariants, fab
            else:
                total = kunneth(total, fres.invariants, total_ab, fab)
                total_ab = direct_sum(total_ab, fab)
        trace.append(f"kunneth: factors {list(recipe.factors)} -> {total.render()}")
        return MultiplierResult(p, total, METHOD_KUNNETH, trace=tuple(trace))

    # -- applicability ---------------------------------------------------------

    def applicable(self, pres: PcPresentation, entry: CatalogEntry | None):
        """The methods `auto` runs, in order, and why each other one does not."""
        methods: list[str] = []
        reasons: dict[str, str] = {}
        recipe = None if entry is None else self.catalog.resolve_recipe(entry.entry_id)
        if recipe is not None and recipe.is_product:
            methods.append(METHOD_KUNNETH)
        else:
            reasons[METHOD_KUNNETH] = "not a catalog product recipe"
        try:
            be_preconditions(pres)
            methods.append(METHOD_BE)
        except BePreconditionError as exc:
            reasons[METHOD_BE] = exc.reason
        if not pres.comms:
            methods.append(METHOD_ABELIAN)
        else:
            reasons[METHOD_ABELIAN] = NONABELIAN
        n = pres.group_order()
        if methods:
            reasons[METHOD_ORACLE] = f"{methods[0]} applies"
        elif n > DEFAULT_ORACLE_CAP:
            reasons[METHOD_ORACLE] = f"order {n} exceeds the oracle cap {DEFAULT_ORACLE_CAP}"
        else:
            methods.append(METHOD_ORACLE)
        methods.append(METHOD_TAILS)
        return methods, reasons

    # -- public entry points -----------------------------------------------------

    def compute(self, target: str | PcPresentation, p: int | None = None,
                method: str = "auto") -> MultiplierResult:
        if isinstance(target, str):
            if p is None:
                raise ValueError("a prime is required with an entry id")
            entry = self.catalog[target]
            pres = self.catalog.instantiate(target, p)
        else:
            pres = target
            entry = None
            name = pres.name
            if name is not None and name in self.catalog.entries:
                entry = self.catalog[name]
        if method != "auto":
            return self._run(method, pres, entry)
        methods, _ = self.applicable(pres, entry)
        results = [self._run(m, pres, entry) for m in methods]
        first = results[0]
        for other in results[1:]:
            if other.invariants != first.invariants:
                raise CrossMethodDisagreement(
                    f"{pres.name or 'group'}: {first.method} gives "
                    f"{first.invariants.render()} but {other.method} gives "
                    f"{other.invariants.render()}")
        trace = [line for r in results for line in r.trace]
        if len(results) > 1:
            trace.append(f"auto: methods {[r.method for r in results]} agree")
        return MultiplierResult(pres.p, first.invariants, first.method, trace=tuple(trace))

    def _run(self, method: str, pres: PcPresentation,
             entry: CatalogEntry | None) -> MultiplierResult:
        if method == METHOD_KUNNETH:
            if entry is None:
                raise ValueError(f"{method} needs a catalog entry")
            return self.via_kunneth(entry, pres.p)
        if method == METHOD_BE:
            return multiplier_via_be(pres)
        if method == METHOD_ABELIAN:
            if pres.comms:
                raise ValueError(f"{METHOD_ABELIAN}: {NONABELIAN}")
            invs = exterior_square(abelianization(pres))
            return MultiplierResult(pres.p, invs, METHOD_ABELIAN,
                                    trace=(f"abelian: exterior square -> {invs.render()}",))
        if method == METHOD_ORACLE:
            return multiplier_via_oracle(pres)
        if method == METHOD_TAILS:
            return multiplier_via_tails(pres)
        raise ValueError(f"unknown method {method!r}")
