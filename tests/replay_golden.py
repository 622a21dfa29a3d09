"""CLI output pinned byte for byte, and ``main``'s dispatch against argparse's.

Each file under ``tests/golden`` holds the stdout of one invocation:
every named form's expansion, the series count, the count table, the
cross-check report, the canonical path listing, text and JSON, and the
README's command-line examples.  A change that keeps the package's
behaviour keeps these bytes.

``main`` parses an argv that names a command through that command's
parser alone.  The reference for that is ``main`` given an empty command
map, so the top parser parses every argv, as ``argparse`` hands a command
to its parser.  Each argv in ``ARGVS`` must give the same exit code,
stdout and stderr both ways: every golden case's argv, and the argvs on
which the top parser itself has a say (help, ``--``, unknown and
abbreviated commands, left-over flags, and an integer too long to read).

This module holds the one case table, which ``test_golden.py`` runs
under pytest.  Run as a script it needs only the standard library, so
any interpreter can replay it::

    PYTHONPATH=src python3 tests/replay_golden.py
    PYTHONPATH=src python3 tests/replay_golden.py python3.10 python3.13

It replays the corpus twice in one interpreter, the second time in
reverse order, so that state one call leaves behind for the next (the
CLI builds its parser once per process) shows as a mismatch, and then
compares the dispatch of every argv.  It names each case whose output
differs, with its pass, and exits 1 if there is one.  argparse's help
and error text differ between Python versions, so each interpreter
compares its own.  Given interpreters, by path or by name on ``PATH``,
it runs itself under each of them in turn, with ``src`` on their path,
prints what each prints, each line headed by that interpreter, and exits
1 if any pass differs.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

from deutschpaths import FORM_NAMES, cli

GOLDEN = Path(__file__).parent / "golden"

# Python's default int-to-str digit limit; argparse meets it reading an
# integer flag, before main lifts it
DIGIT_LIMIT = 4300

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


ARGVS = {
    **CASES,
    "empty": [],
    "help": ["-h"],
    "unknown-command": ["nope"],
    "abbreviated-command": ["cou", "--length", "3"],
    "missing-flag": ["count"],
    "left-over-flag": ["count", "--length", "5", "--bogus"],
    "dashes-first": ["--", "count", "--length", "5"],
    "dashes-after-command": ["count", "--", "--length", "5"],
    "command-help": ["list", "--help"],
}
# Python 3.10.0 to 3.10.6 have no digit limit, and would count that length
if hasattr(sys, "set_int_max_str_digits"):
    ARGVS["too-many-digits"] = ["count", "--length", "1" * (DIGIT_LIMIT + 1)]


def run(argv: list[str], reference: bool = False) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``main(argv)``, under the default
    digit limit; ``reference`` has the top parser parse every argv."""
    out, err = io.StringIO(), io.StringIO()
    parser, _ = cli._build_parser()
    known = mock.patch.object(cli, "_build_parser", lambda: (parser, {}))
    limit = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(DIGIT_LIMIT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with known if reference else contextlib.nullcontext():
                code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    return code, out.getvalue(), err.getvalue()


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
            if run(CASES[name]) == (0, (GOLDEN / name).read_text(), ""):
                matched += 1
            else:
                print(f"MISMATCH {name} ({label} pass)")
        print(f"{matched}/{len(CASES)} golden cases match ({label} pass)")
        failed += len(CASES) - matched
    differ = [name for name, argv in ARGVS.items() if run(argv) != run(argv, reference=True)]
    for name in differ:
        print(f"differs: {name}")
    print(f"{len(ARGVS) - len(differ)}/{len(ARGVS)} argvs dispatch alike")
    return 1 if failed or differ else 0


if __name__ == "__main__":
    raise SystemExit(replay_under(sys.argv[1:]) if sys.argv[1:] else main())
