"""Per-layer spans and counters for multlab, installed from outside the package.

`install()` replaces public functions and methods of the `multlab` modules
with timing or counting wrappers.  A function is replaced at every name it is
bound to (for example `compute.multiplier_via_oracle` as well as
`oracle.multiplier_via_oracle`), because a module that imported it by name
would otherwise keep calling the unwrapped original and its span would read
zero.  Methods are replaced on their class.

Spans nest: a span's self time is its duration minus the time its directly
nested spans took, and its total time counts only the outermost call of a
recursive function.  The collector is only counted, never timed, because it
runs millions of times per suite.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter


class Tracer:
    def __init__(self):
        self.calls: Counter[str] = Counter()
        self.total: Counter[str] = Counter()       # seconds, outermost calls only
        self.self_time: Counter[str] = Counter()   # seconds, minus nested spans
        self.sums: Counter[str] = Counter()        # counts taken from results
        self.collect_calls = [0]
        self._stack: list[list[float]] = []        # nested-span time per open span
        self._depth: Counter[str] = Counter()

    def span(self, name, fn, on_result=None):
        calls, total, self_time = self.calls, self.total, self.self_time
        stack, depth = self._stack, self._depth
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            calls[name] += 1
            depth[name] += 1
            nested = [0.0]
            stack.append(nested)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                depth[name] -= 1
                if stack:
                    stack[-1][0] += dur
                self_time[name] += dur - nested[0]
                if not depth[name]:
                    total[name] += dur
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def counter(self, fn):
        cell = self.collect_calls

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper


def _rebind(original, replacement):
    """Point every multlab module attribute bound to `original` at `replacement`."""
    hits = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "multlab" or mod_name.startswith("multlab.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                hits += 1
    if not hits:
        raise RuntimeError(f"{original!r} is bound nowhere in multlab")


# (span name, module, function) for module-level functions
FUNCTION_SPANS = (
    ("oracle.h2_trivial_coeffs", "oracle", "h2_trivial_coeffs"),
    ("oracle.abelianization_from_table", "oracle", "abelianization_from_table"),
    ("oracle.multiplier_via_oracle", "oracle", "multiplier_via_oracle"),
    ("pcgroup.cayley_table", "pcgroup", "cayley_table"),
    ("pcgroup.center", "pcgroup", "center"),
    ("pcgroup.structure_report", "pcgroup", "structure_report"),
    ("pcgroup.lower_central_series", "pcgroup", "lower_central_series"),
    ("pcgroup.check_consistency", "pcgroup", "check_consistency"),
    ("blackburn_evens.build_be_data", "blackburn_evens", "build_be_data"),
    ("blackburn_evens.multiplier_via_be", "blackburn_evens", "multiplier_via_be"),
    ("blackburn_evens.extension_data", "blackburn_evens", "extension_data"),
    ("abelian.snf", "abelian", "snf"),
    ("abelian.kunneth", "abelian", "kunneth"),
    ("bounds.replay_script", "bounds", "replay_script"),
)

# (span name, module, class, method) for methods
METHOD_SPANS = (
    ("cayley.CayleyTable", "cayley", "CayleyTable", "__post_init__"),
    ("cayley.generating_set", "cayley", "CayleyTable", "generating_set"),
    ("compute.applicable", "compute", "Computer", "applicable"),
    ("compute.via_kunneth", "compute", "Computer", "via_kunneth"),
    ("entries.Catalog.instantiate", "entries", "Catalog", "instantiate"),
)

COLLECT_METHODS = ("collect", "mul", "mul_gen")


def install(tracer: Tracer) -> dict:
    """Wrap multlab in place; returns the unwrapped originals by span name."""
    import multlab

    def sum_stats(h2):
        for key in ("equations", "pivots", "verified"):
            tracer.sums[f"oracle.{key}"] += getattr(h2.stats, key)

    def sum_methods(found):
        tracer.sums["compute.methods_run"] += len(found[0])

    hooks = {"oracle.h2_trivial_coeffs": sum_stats, "compute.applicable": sum_methods}
    originals = {}
    for name, mod_name, func in FUNCTION_SPANS:
        original = getattr(importlib.import_module(f"multlab.{mod_name}"), func)
        originals[name] = original
        _rebind(original, tracer.span(name, original, hooks.get(name)))
    for name, mod_name, cls_name, meth in METHOD_SPANS:
        cls = getattr(importlib.import_module(f"multlab.{mod_name}"), cls_name)
        original = vars(cls)[meth]
        originals[name] = original
        setattr(cls, meth, tracer.span(name, original, hooks.get(name)))
    catalog_cls = multlab.entries.Catalog
    bundled = vars(catalog_cls)["bundled"].__func__
    originals["entries.Catalog.bundled"] = bundled
    catalog_cls.bundled = classmethod(tracer.span("entries.Catalog.bundled", bundled))
    pres_cls = multlab.pcgroup.PcPresentation
    for meth in COLLECT_METHODS:
        setattr(pres_cls, meth, tracer.counter(vars(pres_cls)[meth]))
    return originals


SELF_TIMED = ("pcgroup.cayley_table", "pcgroup.structure_report")


def layer_metrics(tracer: Tracer, originals: dict) -> dict[str, float]:
    """Flatten the tracer into the benchmark's per-layer metric names."""
    out: dict[str, float] = {}
    for name in [n for n, *_ in FUNCTION_SPANS] + [n for n, *_ in METHOD_SPANS] \
            + ["entries.Catalog.bundled"]:
        seconds = tracer.self_time if name in SELF_TIMED else tracer.total
        out[f"{name}.s"] = seconds[name]
        out[f"{name}.calls"] = tracer.calls[name]
    out.update(tracer.sums)
    for key in ("oracle.equations", "oracle.pivots", "oracle.verified",
                "compute.methods_run"):
        out.setdefault(key, 0)
    info = originals["pcgroup.structure_report"].cache_info()
    out["pcgroup.structure_report.hits"] = info.hits
    out["pcgroup.structure_report.misses"] = info.misses
    out["pcgroup.collect.calls"] = tracer.collect_calls[0]
    built = tracer.calls["blackburn_evens.build_be_data"]
    used = tracer.calls["blackburn_evens.multiplier_via_be"]
    out["blackburn_evens.useful_ratio"] = used / built if built else 0.0
    return out
