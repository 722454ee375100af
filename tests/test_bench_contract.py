"""The benchmark's tracer still binds to the package.

bench/tracer.py wraps multlab functions by name from outside the package, so
renaming or deleting one of them breaks the benchmark's per-layer metrics
without failing any other test.  This runs one traced computation in a fresh
interpreter (the tracer patches modules in place) and checks that every
per-layer metric BENCHMARK.json declares is emitted.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TRACED_RUN = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import multlab, tracer
spans = tracer.Tracer()
originals = tracer.install(spans)
multlab.Computer(multlab.Catalog.bundled()).compute("ESp_p3", 3)
print(json.dumps(sorted(tracer.layer_metrics(spans, originals))))
"""


def test_tracer_emits_every_declared_layer():
    out = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(ROOT / "src"), str(ROOT / "bench")],
        capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    emitted = set(json.loads(out.stdout))
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    # bench/run.py derives these from report timings, not from the tracer
    derived = {n for n in declared if n.startswith("report.entry.") or n == "trace.overhead_s"}
    assert derived and declared - derived <= emitted, sorted(declared - derived - emitted)
