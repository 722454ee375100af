import pytest

from multlab import pcgroup
from multlab.compute import Computer
from multlab.entries import Catalog


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
