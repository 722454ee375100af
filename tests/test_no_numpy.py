"""The report path runs on plain Python ints.

Importing multlab, building the bundled catalog, `verify-theorem` for the
p = 2 part and the odd part at p = 3, `table24` at p = 3 and a replay of the
bundled squeeze script never load numpy.  numpy serves the tests and the
dense references (`abelian._snf_local`, `abelian._kernel_mod` and the H^2
path in `oracle.py`), which import it themselves.  The run is in a fresh
interpreter, since this suite itself imports numpy.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

REPORT_PATH = """
import sys
sys.path.insert(0, sys.argv[1])
import multlab
from multlab.report import load_script
catalog = multlab.Catalog.bundled()
reports = (multlab.verify_theorem(2, "two", catalog=catalog)
           + multlab.verify_theorem(3, "odd", catalog=catalog)
           + multlab.run_table24(3, catalog=catalog))
assert reports and all(r.ok for r in reports), [(r.group, r.status) for r in reports]
multlab.replay_script(load_script("phi7_15_squeeze.script"), 3, multlab.Computer(catalog))
print(sorted(name for name in sys.modules if name.split(".")[0] == "numpy"))
"""


def test_report_path_never_loads_numpy():
    out = subprocess.run([sys.executable, "-c", REPORT_PATH, str(SRC)],
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
