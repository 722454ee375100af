"""One benchmark repetition in a fresh process; prints one JSON line.

    python3 bench/child.py setup  <workload>   # import + Catalog.bundled() only
    python3 bench/child.py suite  <workload>   # set-up, then the untraced suite
    python3 bench/child.py traced <workload>   # the same with tracer.py installed

The suite runs the entries run.py's gate expects of the workload.  Set-up
and the untraced suite are timed together with the machine's speed
(speed.py); the times reported exclude the sampler's own work.
`multlab` is imported from the `src/` directory beside this one, never from
an installed copy.  An exception that escapes `verify_theorem` is recorded
in the output, not raised, so that the parent can count it as failures.
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import speed
from run import EXPECTED

SRC = Path(__file__).resolve().parents[1] / "src"

WORKLOADS = {"two": (2, "two"), "odd3": (3, "odd"), "odd5": (5, "odd")}


def blas_info() -> dict:
    """BLAS library name, version and live thread count, as far as numpy shows them."""
    import ctypes
    import glob

    import numpy as np

    info = {"env": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (TypeError, KeyError):
        pass
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for lib in libs[:1]:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                break
    return info


def main(mode: str, workload: str) -> dict:
    p, part = WORKLOADS[workload]
    sys.path.insert(0, str(SRC))
    setup_speed = speed.Sampler()
    setup_speed.burst()
    start = time.perf_counter()
    import multlab
    if Path(multlab.__file__).resolve().parent != SRC / "multlab":
        raise ImportError(f"multlab was imported from {multlab.__file__}, not {SRC}")
    if mode == "traced":
        import tracer
        spans = tracer.Tracer()
        originals = tracer.install(spans)
    catalog = multlab.Catalog.bundled()
    out = {"setup_s": time.perf_counter() - start}
    setup_speed.burst()
    out["setup_chunk_s"] = setup_speed.mean_chunk()
    if mode == "setup":
        import numpy as np
        out["machine"] = {
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": blas_info(),
        }
        return out
    # the traced run reports raw per-layer times, so it is not sampled
    suite_speed = speed.Sampler()
    sampling = suite_speed if mode == "suite" else contextlib.nullcontext()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        with sampling:
            reports = multlab.verify_theorem(p, part, catalog=catalog,
                                             entry_ids=EXPECTED[workload])
        out["error"] = None
    except Exception as exc:  # recorded as failed entries by the parent
        reports = []
        out["error"] = f"{type(exc).__name__}: {exc}"
    out["suite_s"] = time.perf_counter() - t0 - suite_speed.wall
    out["cpu_s"] = time.process_time() - cpu0 - suite_speed.cpu
    if mode == "suite":
        out["suite_chunk_s"] = suite_speed.mean_chunk()
        out["suite_chunks"] = len(suite_speed.chunks)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["reports"] = [{"group": r.group, "status": r.status, "t": r.t,
                       "millis": r.millis} for r in reports]
    if mode == "traced":
        out["layers"] = tracer.layer_metrics(spans, originals)
    return out


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1], sys.argv[2])))
