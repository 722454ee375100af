"""Which results rest on one method alone.

For each method m, a `Computer` whose `applicable` leaves m out computes
every enabled entry of the classification parts; an (entry, p) that is left
with no method has no result without m.  Kunneth's factors go through the
same `Computer`, so a product whose factors need m counts too.  The pinned
lists may only shrink, and CHANGES.md records each change.
"""

import pytest

from multlab.compute import Computer
from multlab.report import ODD_PART, TWO_PART
from multlab.results import METHOD_ABELIAN, METHOD_BE, METHOD_KUNNETH, METHOD_ORACLE, METHOD_TAILS

PARTS = [(TWO_PART, 2)] + [(ODD_PART, p) for p in (3, 5, 7, 11)]

# (entry, p) with no result once the method is left out
ONE_ROUTE = {
    METHOD_TAILS: {("T6_xi", 3)} | {(eid, p) for p in (5, 7, 11)
                                   for eid in ("T6_viii", "T6_x", "T6_xi", "T6_xii")},
    METHOD_ORACLE: set(),
    METHOD_BE: set(),
    METHOD_ABELIAN: set(),
    METHOD_KUNNETH: set(),
}


class NoRoute(Exception):
    pass


def without(method: str, catalog) -> Computer:
    class Without(Computer):
        def applicable(self, pres, entry):
            methods, reasons = super().applicable(pres, entry)
            methods = [m for m in methods if m != method]
            if not methods:
                raise NoRoute(pres.name)
            return methods, reasons

    return Without(catalog)


@pytest.mark.parametrize("method", sorted(ONE_ROUTE))
def test_results_that_rest_on_one_method(catalog, method):
    computer = without(method, catalog)
    stranded = set()
    for part, p in PARTS:
        for eid in part:
            if catalog[eid].is_disabled:
                continue
            try:
                computer.compute(eid, p)
            except NoRoute:
                stranded.add((eid, p))
    assert stranded == ONE_ROUTE[method]
