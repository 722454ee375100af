"""The benchmark's tracer still binds to the package.

bench/tracer.py wraps multlab functions by name from outside the package, so
renaming or deleting one of them breaks the benchmark's per-layer metrics
without failing any other test.  This runs traced computations in a fresh
interpreter (the tracer patches modules in place) and checks that every
per-layer metric BENCHMARK.json declares is emitted, that the tracer's
count of methods run (it reads the first element of what `applicable`
returns) matches the methods the computation reports, and that its
`abelian.snf` span sees every Smith form a method takes.
"""

import ast
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
res = multlab.Computer(multlab.Catalog.bundled()).compute(sys.argv[3], int(sys.argv[4]))
print(json.dumps([tracer.layer_metrics(spans, originals), res.trace]))
"""


def _traced_run(entry_id="ESp_p3", p=3):
    out = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(ROOT / "src"), str(ROOT / "bench"),
         entry_id, str(p)],
        capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def test_tracer_emits_every_declared_layer():
    emitted = set(_traced_run()[0])
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    # bench/run.py derives these from report timings, not from the tracer
    derived = {n for n in declared if n.startswith("report.entry.") or n == "trace.overhead_s"}
    assert derived and declared - derived <= emitted, sorted(declared - derived - emitted)


def test_tracer_counts_the_methods_auto_runs():
    metrics, trace = _traced_run()
    [agree] = [line for line in trace if line.startswith("auto: methods ")]
    methods = ast.literal_eval(agree[len("auto: methods "):-len(" agree")])
    assert metrics["compute.methods_run"] == len(methods) == 2


def test_snf_span_sees_the_oracle_and_tails():
    # T6_xxi at p = 2 runs the oracle and tails, each reading one cokernel
    metrics, trace = _traced_run("T6_xxi", 2)
    assert [line.split(":")[0] for line in trace] == ["oracle", "tails", "auto"]
    assert metrics["abelian.snf.calls"] == 2
    assert metrics["oracle.multiplier_via_oracle.calls"] == 1
