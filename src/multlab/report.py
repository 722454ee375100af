"""Verification suites and report emission.

A Report captures one group's verification: the method used, the computed
multiplier, the corank t = n(n-1)/2 - log_p|M|, and a status of PASS, FAIL,
or DISABLED.  An entry with a `squeeze` script also replays it as an order
cross-check; the replay's lines, cited bounds included, go to the trace.
Reports serialize as an aligned text table or as line-delimited JSON
records with a fixed key set, whose `assumed` list is always empty.
"""

from __future__ import annotations

import json
import time
from importlib import resources

from .abelian import InfiniteCokernel
from .bounds import ReplayAssertionError, replay_script
from .compute import Computer, CrossMethodDisagreement, compute_t
from .entries import Catalog, CatalogEntry, CatalogError
from .oracle import OracleInconsistency
from .pcgroup import CollectionError, InconsistentPresentation, PcPresentation, SizeCapError, is_prime
from .record import Record
from .results import METHOD_ORACLE, MultiplierResult

REPORT_KEYS = ("group", "p", "n", "method", "multiplier", "t", "status",
               "assumed", "trace", "millis")

ODD_PART = tuple(f"T6_{r}" for r in
                 ("i", "ii", "iii", "iv", "v", "vi", "vii", "viii", "ix", "x",
                  "xi", "xii"))
TWO_PART = tuple(f"T6_{r}" for r in
                 ("xiii", "xiv", "xv", "xvi", "xvii", "xviii", "xix", "xx",
                  "xxi", "xxii", "xxiii", "xxiv"))

TABLE24 = ("Phi2_211a", "Phi2_14", "Phi2_31", "Phi2_22", "Phi2_211b",
           "Phi2_211c", "Phi3_211a", "Phi3_211b1", "Phi3_14")


class Report(Record):
    _fields = REPORT_KEYS

    def __init__(self, group: str, p: int, n: int, method: str, multiplier: list[str],
                 t: int | None, status: str, assumed: list[str] | None = None,
                 trace: list[str] | None = None, millis: int = 0):
        self.group = group
        self.p = p
        self.n = n
        self.method = method
        self.multiplier = multiplier
        self.t = t
        self.status = status
        self.assumed = [] if assumed is None else assumed
        self.trace = [] if trace is None else trace
        self.millis = millis

    def as_record(self) -> dict:
        return {k: getattr(self, k) for k in REPORT_KEYS}

    @property
    def ok(self) -> bool:
        return self.status in ("PASS", "DISABLED")


def load_script(name: str) -> str:
    path = resources.files("multlab") / "scripts" / name
    if not path.is_file():
        raise CatalogError(f"no bundled script {name!r}")
    return path.read_text()


def _expect_failures(entry: CatalogEntry, p: int, t: int,
                     res: MultiplierResult) -> list[str]:
    """The entry's expectations that the result misses."""
    problems = []
    for exp in entry.expects:
        if exp.kind == "multiplier":
            want = exp.multiplier_at(p)
            if res.invariants != want:
                problems.append(
                    f"multiplier {res.render()} != expected {want.render()}")
        elif exp.kind == "order":
            if res.order_exponent != exp.value:
                problems.append(
                    f"order p^{res.order_exponent} != expected p^{exp.value}")
        elif exp.kind == "t":
            if t != exp.value:
                problems.append(f"t = {t} != expected {exp.value}")
    return problems


# Errors that mean a method, an internal identity or a size cap broke on one
# entry: they become that entry's FAIL record, and the rest of a suite still runs.
RECORDED_FAILURES = (CrossMethodDisagreement, OracleInconsistency, SizeCapError,
                     CollectionError, InconsistentPresentation, InfiniteCokernel, CatalogError)


def verify_entry(computer: Computer, entry_id: str, p: int, method: str = "auto") -> Report:
    """The report on entry `entry_id` of `computer`'s catalog at p."""
    start = time.monotonic()
    catalog = computer.catalog
    entry = catalog[entry_id]
    if entry.is_disabled:
        report = Report(entry_id, p, 0, "-", [], None, "DISABLED",
                        trace=[entry.disabled_reason])
    else:
        entry.check_prime(p)  # a prime the entry is not stated at is the caller's error
        pres = None  # a factor that cannot be built is the entry's FAIL record
        try:
            pres = catalog.instantiate(entry_id, p)
            report = _verify(computer, entry, pres, method)
        except RECORDED_FAILURES as exc:
            report = Report(entry_id, p, pres.order_exponent if pres else 0, "-", [], None,
                            "FAIL", trace=[f"{type(exc).__name__}: {exc}"])
    report.millis = int((time.monotonic() - start) * 1000)
    return report


def _verify(computer: Computer, entry: CatalogEntry, pres: PcPresentation,
            method: str) -> Report:
    p, n = pres.p, pres.order_exponent
    res = computer.compute(entry.entry_id, p, method=method)
    t = compute_t(pres, res)
    trace = list(res.trace)
    problems = _expect_failures(entry, p, t, res)
    script_name = (entry.squeeze_script
                   or computer.catalog.resolve_recipe(entry.entry_id).squeeze_script)
    if script_name is not None:
        problems += _squeeze_cross_check(computer, script_name, p, res, trace)
    return Report(entry.entry_id, p, n, res.method, res.invariants.render_factors(), t,
                  "FAIL" if problems else "PASS", trace=trace + problems)


def _squeeze_cross_check(computer: Computer, script_name: str, p: int,
                         res: MultiplierResult, trace: list[str]) -> list[str]:
    """Replay a bound script and compare the exact order it pins with the
    computed one; the replay's lines join `trace`, and the problems are
    returned."""
    try:
        result = replay_script(load_script(script_name), p, computer)
    except ReplayAssertionError as exc:
        return [f"squeeze replay failed: {exc}"]
    trace.extend(result.trace)
    exact = result.final_exact()
    if exact is None:
        return ["squeeze did not pin an exact order"]
    if exact.exponent != res.order_exponent:
        return [f"squeeze order p^{exact.exponent} != computed p^{res.order_exponent}"]
    return []


def verify_theorem(p: int, part: str, *, catalog: Catalog | None = None,
                   entry_ids: tuple[str, ...] | None = None) -> list[Report]:
    """Verify t(G) = 6 for every classification entry of the selected part,
    or for the subset `entry_ids` of it."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if part == "odd":
        if p == 2:
            raise ValueError("part=odd needs an odd prime")
        ids = ODD_PART
    elif part == "two":
        if p != 2:
            raise ValueError("part=two runs at p = 2")
        ids = TWO_PART
    else:
        raise ValueError("part must be odd or two")
    if entry_ids:
        unknown = [e for e in entry_ids if e not in ids]
        if unknown:
            raise ValueError(f"not entries of part {part}: {', '.join(unknown)}")
        ids = tuple(i for i in ids if i in entry_ids)
    computer = Computer(catalog or Catalog.bundled())
    return [verify_entry(computer, eid, p) for eid in ids]


def run_table24(p: int, *, catalog: Catalog | None = None) -> list[Report]:
    """The order-p^4 multiplier table: every entry through the oracle at
    p = 3, and through `auto` at p >= 5, where the order p^4 exceeds the
    oracle's cap."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p == 2:
        raise ValueError("the order-p^4 table suite runs at odd primes")
    computer = Computer(catalog or Catalog.bundled())
    method = METHOD_ORACLE if p == 3 else "auto"
    return [verify_entry(computer, eid, p, method=method) for eid in TABLE24]


def emit_report(reports: list[Report], fmt: str = "table") -> str:
    if fmt == "jsonl":
        return "\n".join(json.dumps(r.as_record(), sort_keys=False) for r in reports)
    if fmt != "table":
        raise ValueError(f"unknown report format {fmt!r}")
    headers = ["group", "p", "n", "method", "multiplier", "t", "status",
               "assumed", "millis"]
    rows = [headers]
    for r in reports:
        rows.append([
            r.group, str(r.p), str(r.n), r.method,
            "[" + ",".join(r.multiplier) + "]",
            "-" if r.t is None else str(r.t),
            r.status, str(len(r.assumed)), str(r.millis),
        ])
    widths = [max(len(row[i]) for row in rows) for i in range(len(headers))]
    lines = []
    for idx, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        if idx == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def parse_report_jsonl(text: str) -> list[Report]:
    out = []
    for line in text.splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        out.append(Report(**{k: rec[k] for k in REPORT_KEYS}))
    return out
