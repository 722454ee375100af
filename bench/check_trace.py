"""Self-check of the benchmark's tracing and gate.

    python3 bench/check_trace.py [workload ...]     # default: two odd3 odd5

For each workload this makes two traced runs and asserts that
  * every per-layer metric is reported, and BENCHMARK.json declares the
    same metric names and units that run.py emits;
  * the spans README.md predicts fire (the oracle's H^2 on `two`, the centre
    on `odd5`, the squeeze replay on `odd3`) and `center()` is never called
    on `two`;
  * exact counts (calls, hits, misses, elimination stats) repeat exactly.
It also checks the correctness gate on made-up reports.  Takes about 3 min.
"""

from __future__ import annotations

import json
import sys

import run

NONZERO = {
    "two": ("oracle.h2_trivial_coeffs.s", "oracle.h2_trivial_coeffs.calls",
            "oracle.equations", "pcgroup.cayley_table.s", "compute.via_kunneth.s"),
    "odd3": ("bounds.replay_script.s", "bounds.replay_script.calls",
             "oracle.h2_trivial_coeffs.s", "pcgroup.cayley_table.s",
             "pcgroup.center.s"),
    "odd5": ("pcgroup.center.s", "pcgroup.center.calls", "pcgroup.structure_report.s",
             "blackburn_evens.build_be_data.calls", "blackburn_evens.multiplier_via_be.calls",
             "compute.applicable.s"),
}
ZERO = {"two": ("pcgroup.center.calls", "bounds.replay_script.calls"),
        "odd3": (), "odd5": ()}

COUNTS = ("oracle.equations", "oracle.pivots", "oracle.verified", "compute.methods_run",
          "pcgroup.structure_report.hits", "pcgroup.structure_report.misses")


def exact(name: str) -> bool:
    return name.endswith(".calls") or name in COUNTS


def check_declared() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    emitted = {name: run.layer_unit(name) for name in run.PER_LAYER}
    assert declared == emitted, f"per_layer mismatch: {set(declared) ^ set(emitted)}"
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert declared == dict(run.END_TO_END), f"end_to_end mismatch: {declared}"
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.EXPECTED)


def check_gate() -> None:
    ok = [{"group": e, "status": "PASS", "t": 6, "millis": 1} for e in run.TWO_PART]
    ok[run.TWO_PART.index(run.DISABLED)]["status"] = "DISABLED"
    assert run.grade("two", {"error": None, "reports": ok}) == (11, 0, [])
    assert run.grade("two", {"error": "CrossMethodDisagreement: x", "reports": []})[:2] == (11, 11)
    bad_t = [dict(r, t=5) if r["group"] == "T6_xiv" else r for r in ok]
    assert run.grade("two", {"error": None, "reports": bad_t})[:2] == (11, 1)
    enabled = [dict(r, status="PASS") for r in ok]
    assert run.grade("two", {"error": None, "reports": enabled})[2]
    assert run.grade("two", {"error": None, "reports": ok[:-1]})[:2] == (11, 1)


def check_workload(workload: str) -> None:
    first, reps, _ = run.traced(run.Runner(workload))
    second, reps2, _ = run.traced(run.Runner(workload))
    for rep in reps + reps2:
        assert run.grade(workload, rep)[1:] == (0, []), run.grade(workload, rep)
    assert set(first) == set(run.PER_LAYER)
    for name in NONZERO[workload]:
        assert first[name]["value"] > 0, f"{workload}: {name} did not fire"
    for name in ZERO[workload]:
        assert first[name]["value"] == 0, f"{workload}: {name} = {first[name]['value']}"
    for name in run.PER_LAYER:
        if exact(name):
            a, b = first[name]["value"], second[name]["value"]
            assert a == b, f"{workload}: {name} differs between traced runs ({a} vs {b})"
    print(f"{workload}: ok  collect.calls={first['pcgroup.collect.calls']['value']}  "
          f"overhead={first['trace.overhead_s']['value']:.2f} s")


def main(workloads) -> None:
    check_declared()
    check_gate()
    for workload in workloads or ("two", "odd3", "odd5"):
        check_workload(workload)


if __name__ == "__main__":
    main(sys.argv[1:])
