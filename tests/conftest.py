import pytest

from multlab import pcgroup
from multlab.compute import Computer
from multlab.entries import Catalog, CatalogError


def catalog_instances(primes, catalog=None):
    """(entry id, p, presentation) for every entry of `catalog` (the bundled
    one by default) that instantiates at p, for each p of `primes` in turn."""
    catalog = catalog or Catalog.bundled()
    for p in primes:
        for eid in catalog.ids():
            try:
                pres = catalog.instantiate(eid, p)
            except CatalogError:
                continue
            yield eid, p, pres


@pytest.fixture(scope="session")
def catalog():
    return Catalog.bundled()


@pytest.fixture(scope="session")
def computer(catalog):
    return Computer(catalog)


@pytest.fixture
def clear_memos():
    """A function that empties every per-presentation memo of `pcgroup`
    (overlap rows, series, centre, G^ab, structure report).  A test that
    forbids a code path calls it just before the forbidden run, so the code
    runs instead of a result an earlier call cached."""
    memos = [f for f in vars(pcgroup).values() if hasattr(f, "cache_clear")]

    def clear():
        for memo in memos:
            memo.cache_clear()
    return clear
