"""The benchmark's tracer still binds to the package.

bench/tracer.py wraps multlab functions by name from outside the package, so
renaming or deleting one of them breaks the benchmark's per-layer metrics
without failing any other test.  This runs traced computations in a fresh
interpreter (the tracer patches modules in place) and checks that every
per-layer metric BENCHMARK.json declares is emitted, that the tracer's
count of methods run (it reads the first element of what `applicable`
returns) matches the methods the computation reports, and that its
`abelian.snf` span sees every Smith form a method takes.  The report never
calls `h2_trivial_coeffs`, so one traced run calls it directly: the names
the tracer binds for the H^2 layer, and the stats its hook reads, stay.
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


TRACED_H2 = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import multlab, tracer
spans = tracer.Tracer()
originals = tracer.install(spans)
table = multlab.cayley_table(multlab.Catalog.bundled().instantiate(sys.argv[3], int(sys.argv[4])))
res = multlab.oracle.h2_trivial_coeffs(table, 8)
print(json.dumps([tracer.layer_metrics(spans, originals), res.invariants.render()]))
"""


def _traced_run(entry_id="ESp_p3", p=3, script=TRACED_RUN):
    out = subprocess.run(
        [sys.executable, "-c", script, str(ROOT / "src"), str(ROOT / "bench"),
         entry_id, str(p)],
        capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def _declared_from_tracer():
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    # bench/run.py derives these from report timings, not from the tracer
    derived = {n for n in declared if n.startswith("report.entry.") or n == "trace.overhead_s"}
    assert derived
    return declared - derived


def test_tracer_emits_every_declared_layer():
    emitted = set(_traced_run()[0])
    declared = _declared_from_tracer()
    assert declared <= emitted, sorted(declared - emitted)


def test_tracer_times_the_h2_layer():
    metrics, h2 = _traced_run("D8", 2, TRACED_H2)  # H^2(D8, Z_8)
    assert h2 == "[2,2,2]"
    assert metrics["oracle.h2_trivial_coeffs.calls"] == 1
    assert metrics["oracle.equations"] == 0
    declared = _declared_from_tracer()
    assert declared <= set(metrics), sorted(declared - set(metrics))


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
