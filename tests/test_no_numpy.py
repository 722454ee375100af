"""The package runs on plain Python ints and a light standard library.

Importing multlab, building the bundled catalog, `verify-theorem` for the
p = 2 part and the odd part at p = 3, `table24` at p = 3 and a replay of the
bundled squeeze script never load numpy, and neither does the table path:
a Cayley table, H^2 from it, and its M(G) and G^ab.  No module of the
package imports numpy; it serves the tests and their dense eliminators
(`tests/dense.py`).  The report path loads none of `dataclasses` and the
modules it pulls in (`inspect`, `ast`, `dis`, `tokenize`), whose import is
a large share of the package's set-up.  Each run is in a fresh
interpreter, since this suite itself imports numpy.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize")

REPORT_PATH = """
import json
import sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import multlab
from multlab.report import load_script
catalog = multlab.Catalog.bundled()
reports = (multlab.verify_theorem(2, "two", catalog=catalog)
           + multlab.verify_theorem(3, "odd", catalog=catalog)
           + multlab.run_table24(3, catalog=catalog))
assert reports and all(r.ok for r in reports), [(r.group, r.status) for r in reports]
multlab.replay_script(load_script("phi7_15_squeeze.script"), 3, multlab.Computer(catalog))
print(json.dumps({"numpy": sorted(name for name in sys.modules
                                  if name.split(".")[0] == "numpy"),
                  "loaded": sorted(set(sys.modules) - before)}))
"""


TABLE_PATH = """
import json
import sys
sys.path.insert(0, sys.argv[1])
from multlab.dsl import load_presentation
from multlab.oracle import abelianization_from_table, h2_trivial_coeffs, multiplier_from_table
from multlab.pcgroup import cayley_table
t = cayley_table(load_presentation("gen a 2\\ngen b 4\\ncomm b a = b^2", 2))  # D8
groups = [h2_trivial_coeffs(t, 8).invariants, multiplier_from_table(t, 2).invariants,
          abelianization_from_table(t, 2)]
print(json.dumps({"numpy": sorted(name for name in sys.modules
                                  if name.split(".")[0] == "numpy"),
                  "groups": [g.render() for g in groups]}))
"""


def _fresh_run(script: str) -> dict:
    out = subprocess.run([sys.executable, "-c", script, str(SRC)],
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


@pytest.fixture(scope="module")
def report_path_modules() -> dict:
    return _fresh_run(REPORT_PATH)


def test_report_path_never_loads_numpy(report_path_modules):
    assert report_path_modules["numpy"] == []


def test_report_path_loads_no_dataclasses_or_inspect(report_path_modules):
    assert [m for m in HEAVY if m in report_path_modules["loaded"]] == []


def test_table_path_never_loads_numpy():
    got = _fresh_run(TABLE_PATH)
    assert got == {"numpy": [], "groups": ["[2,2,2]", "[2]", "[2,2]"]}


def test_no_module_mentions_numpy():
    assert [path.name for path in (SRC / "multlab").glob("*.py")
            if "numpy" in path.read_text()] == []
