"""Command-line front door.

Verbs mirror the verification units: `compute` one group, `check` a
presentation's consistency, `verify-theorem` for the classification parts,
`table24` for the order-p^4 multiplier table, and `replay` for bound
scripts.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .bounds import ReplayAssertionError, replay_script
from .compute import Computer
from .entries import Catalog
from .report import (
    emit_report,
    load_script,
    run_table24,
    verify_entry,
    verify_theorem,
)


def _add_common(sub):
    sub.add_argument("--format", choices=("table", "jsonl"), default="table")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="multlab",
        description="Schur multipliers of finite p-groups, five ways")
    subs = parser.add_subparsers(dest="verb", required=True)

    sc = subs.add_parser("compute", help="compute M(G) for one catalog group")
    sc.add_argument("--group", required=True)
    sc.add_argument("--p", type=int, required=True)
    sc.add_argument("--method", default="auto",
                    choices=("auto", "tails", "oracle", "be", "kunneth", "abelian"))
    _add_common(sc)

    sv = subs.add_parser("verify-theorem", help="verify t(G) = 6 for one part")
    sv.add_argument("--p", type=int, required=True)
    sv.add_argument("--part", required=True, choices=("odd", "two"))
    sv.add_argument("--entries", default=None,
                    help="comma-separated subset of entry ids")
    _add_common(sv)

    st = subs.add_parser("table24", help="verify the order-p^4 multiplier table")
    st.add_argument("--p", type=int, required=True)
    _add_common(st)

    sr = subs.add_parser("replay", help="replay a bound-derivation script")
    sr.add_argument("--script", required=True,
                    help="path to a script, or the name of a bundled one")
    sr.add_argument("--p", type=int, default=3)

    sk = subs.add_parser("check", help="consistency-check one catalog group")
    sk.add_argument("--group", required=True)
    sk.add_argument("--p", type=int, required=True)

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except ReplayAssertionError as exc:
        print(f"REPLAY FAILED: {exc}", file=sys.stderr)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    return 1


def _dispatch(args) -> int:
    catalog = Catalog.bundled()
    computer = Computer(catalog)
    method_map = {"be": "blackburn_evens"}

    if args.verb == "compute":
        method = method_map.get(args.method, args.method)
        report = verify_entry(computer, args.group, args.p, method=method)
        print(emit_report([report], args.format))
        return 0 if report.ok else 1

    if args.verb == "verify-theorem":
        subset = tuple(args.entries.split(",")) if args.entries else None
        reports = verify_theorem(args.p, args.part, catalog=catalog, entry_ids=subset)
        print(emit_report(reports, args.format))
        bad = [r for r in reports if not r.ok]
        disabled = sum(r.status == "DISABLED" for r in reports)
        print(f"\n{len(reports) - len(bad) - disabled}/{len(reports)} entries verified"
              + (f", {disabled} disabled" if disabled else "")
              + (f"; failures: {[r.group for r in bad]}" if bad else ""))
        return 1 if bad else 0

    if args.verb == "table24":
        reports = run_table24(args.p, catalog=catalog)
        print(emit_report(reports, args.format))
        bad = [r for r in reports if not r.ok]
        return 1 if bad else 0

    if args.verb == "replay":
        path = Path(args.script)
        text = path.read_text() if path.exists() else load_script(args.script)
        result = replay_script(text, args.p, computer)
        for line in result.trace:
            print(line)
        print(f"replay of {result.subject} at p={args.p}: OK "
              f"({len(result.assumed_bounds())} assumed bound(s), "
              f"{len(result.assumed_capabilities())} capability assumption(s))")
        return 0

    if args.verb == "check":
        pres = catalog.instantiate(args.group, args.p)  # raises if inconsistent
        print(f"{args.group} at p={args.p}: consistent, "
              f"order {args.p}^{pres.order_exponent}")
        return 0

    return 2


if __name__ == "__main__":
    raise SystemExit(main())
