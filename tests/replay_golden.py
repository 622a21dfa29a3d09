"""CLI stdout pinned byte for byte against a committed corpus.

Each file under ``tests/golden`` holds the stdout of one invocation:
every named form's expansion, the series count, the count table, the
cross-check report, the canonical path listing, text and JSON, and the
README's command-line examples.  A change that keeps the package's
behaviour keeps these bytes.

This module holds the one case table, which ``test_golden.py`` runs
under pytest.  Run as a script it needs only the standard library, so
any interpreter can replay the corpus::

    PYTHONPATH=src python3 tests/replay_golden.py
    PYTHONPATH=src python3 tests/replay_golden.py python3.10 python3.13

It replays the table twice in one interpreter, the second time in
reverse order, so that state one call leaves behind for the next (the
CLI builds its parser once per process) shows as a mismatch.  It names
each case whose output differs, with its pass, and exits 1 if there is
one.  Given interpreters, it runs itself under each of them in turn,
with ``src`` on their path, prints what each prints, each line headed
by that interpreter, and exits 1 if any pass differs.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

from deutschpaths import FORM_NAMES, cli

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    **{f"gf-{form}-100.txt": ["gf", "--form", form, "--terms", "100"] for form in FORM_NAMES},
    **{
        f"gf-{form}-100.json": ["gf", "--form", form, "--terms", "100", "--json"]
        for form in FORM_NAMES
    },
    "count-2000-series.txt": ["count", "--length", "2000", "--method", "series"],
    # the benchmark's largest count, about 4,200 digits, by both routes,
    # and the series route's last halving alone
    "count-11000.txt": ["count", "--length", "11000"],
    "count-11000-series.txt": ["count", "--length", "11000", "--method", "series"],
    "count-1-series.txt": ["count", "--length", "1", "--method", "series"],
    "table-60.jsonl": ["table", "--max", "60", "--json"],
    "list-10.txt": ["list", "--length", "10"],
    "list-10.jsonl": ["list", "--length", "10", "--json"],
    # the first length whose records hold a two-digit token (D11)
    "list-12.jsonl": ["list", "--length", "12", "--json"],
    "verify-8.txt": ["verify", "--max", "8"],
    "verify-0.txt": ["verify", "--max", "0"],
    # the README's command-line examples; its `verify --max 12` has the
    # shape of verify-8.txt
    "count-9.txt": ["count", "--length", "9"],
    "count-90-series.txt": ["count", "--length", "90", "--method", "series"],
    "table-14.jsonl": ["table", "--max", "14", "--json"],
    "list-5.txt": ["list", "--length", "5"],
    "tree-UUD2UD1.txt": ["tree", "--path", "U U D2 U D1"],
    "tree-UUD2UD1.json": ["tree", "--path", "U U D2 U D1", "--json"],
    "path-example.txt": ["path", "--tree", '{"backbone":["d"],"bundles":[[["s","d"]]]}'],
    "gf-with-empty-14.txt": ["gf", "--form", "with-empty", "--terms", "14"],
    "mountains-10.txt": ["mountains", "--steps", "10"],
    "tilings-4-list.txt": ["tilings", "--length", "4", "--list"],
}


def run_main(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def replay_under(pythons: list[str]) -> int:
    src = Path(__file__).resolve().parents[1] / "src"
    failed = False
    for python in pythons:
        try:
            result = subprocess.run(
                [python, __file__],
                env={**os.environ, "PYTHONPATH": str(src)},
                capture_output=True,
                text=True,
            )
        except OSError as exc:
            print(f"{python}: cannot run: {exc}")
            failed = True
            continue
        for line in (result.stdout + result.stderr).splitlines():
            print(f"{python}: {line}")
        failed |= result.returncode != 0 or bool(result.stderr)
    return 1 if failed else 0


def main() -> int:
    failed = 0
    for label, names in (("first", sorted(CASES)), ("reversed", sorted(CASES, reverse=True))):
        matched = 0
        for name in names:
            code, out = run_main(CASES[name])
            if code == 0 and out == (GOLDEN / name).read_text():
                matched += 1
            else:
                print(f"MISMATCH {name} ({label} pass)")
        print(f"{matched}/{len(CASES)} golden cases match ({label} pass)")
        failed += len(CASES) - matched
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(replay_under(sys.argv[1:]) if sys.argv[1:] else main())
