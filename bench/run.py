"""The multlab benchmark: classification suites end to end, layers from outside.

    python3 bench/run.py --workload two|odd3|odd5 --seed N --seconds S --trace 0|1

Each repetition runs in a fresh single-threaded child process (child.py), so
the process-global caches start cold, as they do for a CLI call.
`--trace 0` repeats the untraced suite until another repetition would
overrun `--seconds` (but at least once) and reports medians of its times,
each scaled to a reference machine speed (speed.py); `--trace 1`
runs the suite once untraced and once traced and reports the per-layer
metrics.  The suites are
fixed catalog inputs, so `--seed` is recorded but changes nothing yet.

Every report is gated: each entry must be PASS or PASS-WITH-ASSUMPTION with
t = 6, and T6_xix must be DISABLED.  The last stdout line is the JSON result;
the line before it records the machine, the samples and the failures.
See README.md for the design.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import REF_CHUNK_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# The gate's own copy of the classification parts, so that an entry the
# program stops reporting counts as a failure.
ODD_PART = tuple(f"T6_{r}" for r in
                 ("i", "ii", "iii", "iv", "v", "vi", "vii", "viii", "ix", "x",
                  "xi", "xii"))
TWO_PART = tuple(f"T6_{r}" for r in
                 ("xiii", "xiv", "xv", "xvi", "xvii", "xviii", "xix", "xx",
                  "xxi", "xxii", "xxiii", "xxiv"))
DISABLED = "T6_xix"
# The entries each workload runs.  At p = 5, T6_i alone would take most of
# the suite in one long sample per run (see README.md), so it is left out.
EXPECTED = {"two": TWO_PART, "odd3": ODD_PART,
            "odd5": tuple(e for e in ODD_PART if e != "T6_i")}
PASSING = ("PASS", "PASS-WITH-ASSUMPTION")

SETUP_SAMPLES = 7      # set-up-only children per untraced run, besides the suites
RUN_LIMIT_S = 170      # the whole run, children included, ends before this

END_TO_END = (("suite_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

PER_LAYER = (
    "oracle.h2_trivial_coeffs.s", "oracle.h2_trivial_coeffs.calls",
    "oracle.equations", "oracle.pivots", "oracle.verified",
    "oracle.abelianization_from_table.s", "oracle.multiplier_via_oracle.calls",
    "pcgroup.cayley_table.s", "cayley.CayleyTable.s", "cayley.generating_set.s",
    "pcgroup.center.s", "pcgroup.center.calls",
    "pcgroup.structure_report.s", "pcgroup.structure_report.hits",
    "pcgroup.structure_report.misses", "pcgroup.collect.calls",
    "pcgroup.lower_central_series.s",
    "pcgroup.check_consistency.s", "pcgroup.check_consistency.calls",
    "blackburn_evens.build_be_data.calls", "blackburn_evens.multiplier_via_be.calls",
    "blackburn_evens.useful_ratio", "blackburn_evens.extension_data.s",
    "compute.applicable.s", "compute.methods_run", "compute.via_kunneth.s",
    "abelian.snf.s", "abelian.snf.calls", "abelian.kunneth.calls",
    "bounds.replay_script.s", "bounds.replay_script.calls",
    "entries.Catalog.bundled.s", "entries.Catalog.instantiate.s",
    "entries.Catalog.instantiate.calls",
) + tuple(f"report.entry.{e}.s" for e in ODD_PART + TWO_PART if e != DISABLED) \
  + ("trace.overhead_s",)


def layer_unit(name: str) -> str:
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


class BenchError(RuntimeError):
    pass


class Runner:
    """Starts child processes against one overall deadline."""

    def __init__(self, workload: str):
        self.workload = workload
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                        MKL_NUM_THREADS="1", PYTHONHASHSEED="0")

    def child(self, mode: str) -> dict:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before starting a repetition")
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), mode, self.workload],
                cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} repetition overran the {RUN_LIMIT_S} s limit") from None
        if proc.returncode != 0:
            raise BenchError(f"{mode} child exited with {proc.returncode}:\n{proc.stderr}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def grade(workload: str, rep: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) for one suite repetition."""
    expected = EXPECTED[workload]
    attempted_ids = [e for e in expected if e != DISABLED]
    if rep["error"] is not None:
        return len(attempted_ids), len(attempted_ids), [f"suite raised {rep['error']}"]
    by_group = {r["group"]: r for r in rep["reports"]}
    problems = [f"unexpected entry {g}" for g in by_group if g not in expected]
    if DISABLED in expected:
        status = by_group.get(DISABLED, {}).get("status")
        if status != "DISABLED":
            problems.append(f"{DISABLED} is {status}, not DISABLED")
    failed = 0
    for eid in attempted_ids:
        r = by_group.get(eid)
        if r is None:
            failed += 1
            problems.append(f"{eid}: missing")
        elif r["status"] not in PASSING or r["t"] != 6:
            failed += 1
            problems.append(f"{eid}: {r['status']} with t = {r['t']}")
    return len(attempted_ids), failed, problems


def at_reference_speed(seconds: float, chunk_s: float) -> float:
    """A time measured while calibration chunks took `chunk_s` each, scaled
    to the speed at which they take speed.REF_CHUNK_S."""
    return seconds * REF_CHUNK_S / chunk_s


def untraced(runner: Runner, seconds: float) -> tuple[dict, list[dict], dict]:
    setups = [runner.child("setup") for _ in range(SETUP_SAMPLES)]
    reps, walls = [], []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        reps.append(runner.child("suite"))
        walls.append(time.monotonic() - t0)
        if time.monotonic() - start + statistics.median(walls) > seconds:
            break
    setups += reps
    samples = {
        "setup_s": [at_reference_speed(r["setup_s"], r["setup_chunk_s"]) for r in setups],
        "suite_s": [at_reference_speed(r["suite_s"], r["suite_chunk_s"]) for r in reps],
        "cpu_s": [at_reference_speed(r["cpu_s"], r["suite_chunk_s"]) for r in reps],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
        "raw": {"setup_s": [r["setup_s"] for r in setups],
                "suite_s": [r["suite_s"] for r in reps],
                "cpu_s": [r["cpu_s"] for r in reps],
                "setup_chunk_s": [r["setup_chunk_s"] for r in setups],
                "suite_chunk_s": [r["suite_chunk_s"] for r in reps],
                "suite_chunks": [r["suite_chunks"] for r in reps]},
    }
    metrics = {name: {"value": statistics.median(samples[name]), "unit": unit}
               for name, unit in END_TO_END}
    return metrics, reps, samples


def traced(runner: Runner) -> tuple[dict, list[dict], dict]:
    plain = runner.child("suite")
    rep = runner.child("traced")
    values = {name: rep["layers"].get(name, 0) for name in PER_LAYER}
    for r in plain["reports"]:
        values[f"report.entry.{r['group']}.s"] = r["millis"] / 1000
    values.pop(f"report.entry.{DISABLED}.s", None)
    values["trace.overhead_s"] = rep["suite_s"] - plain["suite_s"]
    metrics = {name: {"value": values[name], "unit": layer_unit(name)} for name in PER_LAYER}
    samples = {"raw": {"suite_s": [plain["suite_s"]], "traced_suite_s": [rep["suite_s"]]}}
    return metrics, [plain, rep], samples


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(EXPECTED))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SystemExit makes subprocess.run kill and reap the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    runner = Runner(args.workload)
    try:
        machine = runner.child("setup")["machine"]  # also compiles bytecode, untimed
        if args.trace:
            metrics, reps, samples = traced(runner)
        else:
            metrics, reps, samples = untraced(runner, args.seconds)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    attempted = failed = 0
    problems = []
    for rep in reps:
        a, f, probs = grade(args.workload, rep)
        attempted, failed = attempted + a, failed + f
        problems += probs
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "repetitions": len(reps), "machine": machine, "samples": samples,
        "fail_frac": {"value": failed / attempted, "unit": "ratio"},
        "problems": problems,
    }))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
