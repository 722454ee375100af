"""Command-line output pinned byte for byte.

Each case runs `multlab` in process and compares its exit code, stdout and
stderr with a file under tests/golden/; the `millis` of JSONL reports are
masked.  `two_p2` pins the p = 2 part, including the cycle, relation and
free counts of every oracle run on orders 8-64, and `compute_T6_xiii_p2_oracle`
pins one oracle run at the cap, order 128.  After a deliberate change
of output, rewrite the files with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import re
from pathlib import Path

import pytest

from multlab.cli import main

GOLDEN = Path(__file__).parent / "golden"
MILLIS = re.compile(r'"millis": \d+')
ODD5 = ",".join(f"T6_{r}" for r in
                ("ii", "iii", "iv", "v", "vi", "vii", "viii", "ix", "x", "xi", "xii"))

CASES = {
    "two_p2": ["verify-theorem", "--p", "2", "--part", "two", "--format", "jsonl"],
    "odd_p3": ["verify-theorem", "--p", "3", "--part", "odd", "--format", "jsonl"],
    "odd_p5": ["verify-theorem", "--p", "5", "--part", "odd", "--entries", ODD5,
               "--format", "jsonl"],
    "odd_p7": ["verify-theorem", "--p", "7", "--part", "odd", "--format", "jsonl"],
    "odd_p13": ["verify-theorem", "--p", "13", "--part", "odd", "--format", "jsonl"],
    "odd_p31": ["verify-theorem", "--p", "31", "--part", "odd", "--format", "jsonl"],
    "table24_p3": ["table24", "--p", "3", "--format", "jsonl"],
    "table24_p7": ["table24", "--p", "7", "--format", "jsonl"],
    "compute_Phi2_31_p5": ["compute", "--group", "Phi2_31", "--p", "5", "--format", "jsonl"],
    "compute_T6_xiii_p2_oracle": ["compute", "--group", "T6_xiii", "--p", "2", "--method", "oracle",
                                  "--format", "jsonl"],
    **{f"replay_{script}_p{p}": ["replay", "--script", f"{script}.script", "--p", str(p)]
       for script in ("phi7_15_squeeze", "phi2_2111c_jones", "es_p3_class_bound")
       for p in (3, 5)},
    "replay_d8_wrong_upper_p2": ["replay", "--script", "d8_wrong_upper.script", "--p", "2"],
}


def run_cli(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    text = f"$ multlab {' '.join(argv)}\nexit {code}\n--- stdout\n{out.getvalue()}" \
           f"--- stderr\n{err.getvalue()}"
    return MILLIS.sub('"millis": 0', text)


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case):
    assert run_cli(CASES[case]) == (GOLDEN / f"{case}.txt").read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case, argv in CASES.items():
        (GOLDEN / f"{case}.txt").write_text(run_cli(argv))
        print(f"wrote {case}")
