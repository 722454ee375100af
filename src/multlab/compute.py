"""Method selection and orchestration for multiplier computations.

`auto` prefers the direct-product identity (for catalog product recipes),
then the class-2 tensor construction, then the abelian exterior square,
then the cohomology oracle.  When more than one method applies, all of them
run and their invariant lists must agree exactly; the oracle joins such
cross-checks only up to order 81 so that large product entries stay cheap.
When no method applies, an entry with a cited value (`fallback-multiplier`)
takes it as its one method, `ledger`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .abelian import direct_sum, exterior_square, kunneth
from .blackburn_evens import BePreconditionError, multiplier_via_be
from .entries import Catalog, CatalogEntry
from .oracle import multiplier_via_oracle, oracle_cap
from .pcgroup import PcPresentation, abelianization
from .results import (
    METHOD_ABELIAN,
    METHOD_BE,
    METHOD_KUNNETH,
    METHOD_LEDGER,
    METHOD_ORACLE,
    MultiplierResult,
)

ORACLE_CROSS_CAP = 81  # largest order at which the oracle runs as a cross-check
NONABELIAN = "group is nonabelian"  # why the abelian exterior square does not apply


class NoApplicableMethod(RuntimeError):
    def __init__(self, reasons: dict[str, str]):
        self.reasons = dict(reasons)
        lines = "; ".join(f"{m}: {r}" for m, r in reasons.items())
        super().__init__(f"no applicable method ({lines})")


class CrossMethodDisagreement(RuntimeError):
    pass


def compute_t(pres: PcPresentation, mult: MultiplierResult) -> int:
    """t = n(n-1)/2 - log_p |M(G)| for |G| = p^n."""
    n = pres.order_exponent
    return n * (n - 1) // 2 - mult.order_exponent


@dataclass
class Computer:
    """Multiplier computation bound to a catalog (for product recipes)."""

    catalog: Catalog

    # -- single-method routes ------------------------------------------------

    def via_kunneth(self, entry: CatalogEntry, p: int) -> MultiplierResult:
        recipe = self.catalog.resolve_recipe(entry.entry_id)
        if not recipe.is_product:
            raise ValueError(f"{entry.entry_id} is not a product recipe")
        trace: list[str] = []
        assumptions: list[str] = []
        total = None
        total_ab = None
        for fid in recipe.factors:
            fres = self.compute(fid, p)
            trace.extend(fres.trace)
            assumptions.extend(fres.assumptions)
            fab = abelianization(self.catalog.instantiate(fid, p))
            if total is None:
                total, total_ab = fres.invariants, fab
            else:
                total = kunneth(total, fres.invariants, total_ab, fab)
                total_ab = direct_sum(total_ab, fab)
        trace.append(f"kunneth: factors {list(recipe.factors)} -> {total.render()}")
        return MultiplierResult(p, total, METHOD_KUNNETH, trace=tuple(trace),
                                assumptions=tuple(assumptions))

    def assumed_multiplier(self, fid: str, p: int) -> MultiplierResult:
        """The cited literature value of M(fid), for groups no method reaches;
        the citation travels in the result's assumptions."""
        entry = self.catalog.resolve_recipe(fid)
        cited = entry.fallback_multiplier
        if cited is None:
            raise ValueError(f"{fid} cites no multiplier")
        invs = cited.multiplier_at(p)
        assumption = f'M({entry.entry_id}) = {invs.render()} "{cited.source}"'
        return MultiplierResult(p, invs, METHOD_LEDGER, trace=(f"assumed: {assumption}",),
                                assumptions=(assumption,))

    # -- applicability ---------------------------------------------------------

    def applicable(self, pres: PcPresentation, entry: CatalogEntry | None):
        p = pres.p
        methods: list[str] = []
        reasons: dict[str, str] = {}
        recipe = None if entry is None else self.catalog.resolve_recipe(entry.entry_id)
        if recipe is not None and recipe.is_product:
            methods.append(METHOD_KUNNETH)
        else:
            reasons[METHOD_KUNNETH] = "not a catalog product recipe"
        try:
            from .blackburn_evens import build_be_data
            build_be_data(pres)
            methods.append(METHOD_BE)
        except BePreconditionError as exc:
            reasons[METHOD_BE] = exc.reason
        if not pres.comms:
            methods.append(METHOD_ABELIAN)
        else:
            reasons[METHOD_ABELIAN] = NONABELIAN
        cap = oracle_cap()
        n = pres.group_order()
        limit = cap if not methods else min(cap, ORACLE_CROSS_CAP)
        if n <= limit:
            methods.append(METHOD_ORACLE)
        else:
            reasons[METHOD_ORACLE] = (
                f"order {n} exceeds the oracle cap {cap}" if n > cap
                else f"order {n} exceeds the cross-check cap {ORACLE_CROSS_CAP}")
        if not methods and recipe is not None and recipe.fallback_multiplier is not None:
            methods.append(METHOD_LEDGER)
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
        methods, reasons = self.applicable(pres, entry)
        if not methods:
            raise NoApplicableMethod(reasons)
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
        return MultiplierResult(pres.p, first.invariants, first.method,
                                trace=tuple(trace),
                                assumptions=tuple(a for r in results for a in r.assumptions))

    def _run(self, method: str, pres: PcPresentation,
             entry: CatalogEntry | None) -> MultiplierResult:
        if method in (METHOD_KUNNETH, METHOD_LEDGER) and entry is None:
            raise ValueError(f"{method} needs a catalog entry")
        if method == METHOD_KUNNETH:
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
        if method == METHOD_LEDGER:
            return self.assumed_multiplier(entry.entry_id, pres.p)
        raise ValueError(f"unknown method {method!r}")
