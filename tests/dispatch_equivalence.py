"""``cli.main`` against the top parser's own dispatch, argv by argv.

``main`` parses an argv that names a command through that command's
parser alone.  The reference here is ``main`` with no command known to
it, so the top parser parses every argv, as ``argparse`` hands a command
to its parser.  Each argv must give the same exit code, stdout and
stderr both ways: every golden case's argv, and the argvs on which the
top parser itself has a say (help, ``--``, unknown and abbreviated
commands, left-over flags, and an integer too long to read).

argparse's help and error text differ between Python versions, so the
comparison runs under the interpreter that runs it, which must have the
digit limit (Python 3.10.7 or later).  Run as a script it needs only the
standard library::

    PYTHONPATH=src python3 tests/dispatch_equivalence.py

It prints how many argvs dispatch alike, names each that does not, and
exits 1 if there is one.
"""

from __future__ import annotations

import contextlib
import io
import sys
from unittest import mock

from deutschpaths import cli
from replay_golden import CASES

# Python's default int-to-str digit limit; argparse meets it reading an
# integer flag, before main lifts it
DIGIT_LIMIT = 4300

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
    "too-many-digits": ["count", "--length", "1" * (DIGIT_LIMIT + 1)],
}


def run(argv: list[str], reference: bool = False) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``main(argv)``, under the default
    digit limit; ``reference`` has the top parser parse every argv."""
    out, err = io.StringIO(), io.StringIO()
    parser, _ = cli._build_parser()
    known = mock.patch.object(cli, "_build_parser", lambda: (parser, {}))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(DIGIT_LIMIT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with known if reference else contextlib.nullcontext():
                code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.set_int_max_str_digits(limit)
    return code, out.getvalue(), err.getvalue()


def main() -> int:
    differ = [name for name, argv in ARGVS.items() if run(argv) != run(argv, reference=True)]
    for name in differ:
        print(f"differs: {name}")
    print(f"{len(ARGVS) - len(differ)}/{len(ARGVS)} argvs dispatch alike")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
