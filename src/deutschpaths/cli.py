"""Command line interface.

Exit codes: 0 on success, 1 when verification fails, 2 on usage errors
including malformed paths, trees and form names, and when memory runs
out.  No length is refused: the enumerating routes take time that grows
with the number of paths.  All output is deterministic byte for byte
given identical flags, save the measured seconds of ``verify --json``;
JSON output is line oriented where a command prints several records.

``main`` may be called many times in one process.  It builds its parser
once, on the first call; each call parses into a fresh namespace, so no
flag of one call reaches the next.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from fractions import Fraction

from . import numbers, paths, series, trees, verify

__all__ = ["main"]


def _print_count(value: int | Fraction) -> int:
    print(value)
    return 0


def _cmd_count(args: argparse.Namespace) -> int:
    n = numbers._size(args.length, "--length")
    if args.method == "closed":
        return _print_count(numbers.count_nondecreasing_closed(n))
    if args.method == "series":
        return _print_count(series.named_form("with-empty").coefficient(n))
    if args.method == "brute":
        return _print_count(sum(1 for _ in paths.enumerate_nondecreasing_filter(n)))
    # a count needs no canonical order, so the composed paths go unsorted
    return _print_count(sum(1 for _ in map(paths.compose, paths.iter_decompositions(n))))


def _cmd_table(args: argparse.Namespace) -> int:
    top = numbers._size(args.max, "--max")
    cap = numbers._size(args.brute_cap, "--brute-cap")
    closed = [numbers.count_nondecreasing_closed(n) for n in range(top + 1)]
    by_series = series.gf_coefficients("with-empty", top)
    rows = []
    for n in range(top + 1):
        brute = sum(1 for _ in paths.enumerate_nondecreasing_filter(n)) if n <= cap else None
        agree = closed[n] == by_series[n] and brute in (None, closed[n])
        rows.append((n, closed[n], by_series[n], brute, agree))
    if args.json:
        for n, c, s, b, agree in rows:
            # an integral coefficient as a JSON number, any other as its str
            series_value = s.numerator if s.denominator == 1 else str(s)
            record = {"n": n, "closed": c, "series": series_value, "brute": b, "agree": agree}
            print(series._RECORD_ENCODER.encode(record))
    else:
        print("n\tclosed\tseries\tbrute\tagree")
        for n, c, s, b, agree in rows:
            brute_cell = "-" if b is None else str(b)
            print(f"{n}\t{c}\t{s}\t{brute_cell}\t{'yes' if agree else 'NO'}")
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    stream = paths.enumerate_nondecreasing_filter(numbers._size(args.length, "--length"))
    for line in paths._lines(stream, paths._JSON if args.json else paths._TEXT):
        print(line)
    return 0


def _cmd_tree(args: argparse.Namespace) -> int:
    tree = trees.path_to_tree(paths.parse_path(args.path))
    print(trees.tree_to_json(tree) if args.json else trees.render_outline(tree))
    return 0


def _cmd_path(args: argparse.Namespace) -> int:
    tree = trees.tree_from_json(args.tree)
    print(paths.render_path(trees.tree_to_path(tree)))
    return 0


def _cmd_gf(args: argparse.Namespace) -> int:
    coeffs = series.gf_coefficients(args.form, numbers._size(args.terms, "--terms"))
    if args.json:
        print(series.coefficients_to_json(args.form, coeffs))
    else:
        print(series.format_coefficients(coeffs))
    return 0


def _cmd_mountains(args: argparse.Namespace) -> int:
    return _print_count(numbers.count_mountains(numbers._size(args.steps, "--steps")))


def _cmd_tilings(args: argparse.Namespace) -> int:
    n = numbers._size(args.length, "--length")
    if args.list:
        for tiling in numbers.enumerate_tilings(n):
            if args.first_square and (not tiling or tiling[0] is not numbers.Piece.SQUARE):
                continue
            print(numbers.render_tiling(tiling))
        return 0
    if args.first_square:
        return _print_count(numbers.count_square_first_tilings(n))
    return _print_count(numbers.count_tilings(n))


def _cmd_verify(args: argparse.Namespace) -> int:
    numbers._size(args.max, "--max")
    if args.json:
        census_seconds, results = verify.timed_checks(args.max)
        census = f"census: each enumeration route walked once per length (n <= {args.max})"
        records = [{"name": census, "passed": None, "detail": "", "seconds": census_seconds}]
        records += [dataclasses.asdict(result) for result in results]
        for record in records:
            record["seconds"] = round(record["seconds"], 6)
            print(series._RECORD_ENCODER.encode(record))
    else:
        results = verify.run_checks(args.max)
        for result in results:
            if result.passed:
                print(f"PASS {result.name}")
            else:
                detail = f" ({result.detail})" if result.detail else ""
                print(f"FAIL {result.name}{detail}")
        print(f"{sum(result.passed for result in results)}/{len(results)} checks passed")
    return 0 if all(result.passed for result in results) else 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deutschpaths",
        description=(
            "Exact counting, listing and conversion tools for Deutsch paths "
            "whose valley levels never decrease."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="count the paths of one length")
    p.add_argument("--length", type=int, required=True, metavar="N")
    p.add_argument(
        "--method",
        choices=("closed", "series", "brute", "direct"),
        default="closed",
        help="counting route (default: closed)",
    )
    p.set_defaults(handler=_cmd_count)

    p = sub.add_parser("table", help="counts for all lengths up to a bound")
    p.add_argument("--max", type=int, required=True, metavar="N")
    p.add_argument("--json", action="store_true", help="one JSON record per row")
    p.add_argument(
        "--brute-cap",
        type=int,
        default=14,
        metavar="K",
        help="largest length counted by enumeration (default: 14)",
    )
    p.set_defaults(handler=_cmd_table)

    p = sub.add_parser("list", help="print every path of one length")
    p.add_argument("--length", type=int, required=True, metavar="N")
    p.add_argument("--json", action="store_true", help="one JSON record per path")
    p.set_defaults(handler=_cmd_list)

    p = sub.add_parser("tree", help="encode a path as a marked tree")
    p.add_argument("--path", required=True, metavar="TOKENS", help='e.g. "U U D2 U D1"')
    p.add_argument("--json", action="store_true", help="print the JSON record")
    p.set_defaults(handler=_cmd_tree)

    p = sub.add_parser("path", help="decode a marked tree back to its path")
    p.add_argument("--tree", required=True, metavar="JSON", help="tree record")
    p.set_defaults(handler=_cmd_path)

    p = sub.add_parser("gf", help="expand a named generating function")
    p.add_argument("--form", required=True, metavar="NAME")
    p.add_argument("--terms", type=int, required=True, metavar="N", help="highest order")
    p.add_argument("--json", action="store_true", help="print the JSON record")
    p.set_defaults(handler=_cmd_gf)

    p = sub.add_parser("mountains", help="count mountains of one length")
    p.add_argument("--steps", type=int, required=True, metavar="K")
    p.set_defaults(handler=_cmd_mountains)

    p = sub.add_parser("tilings", help="count or list square and domino tilings")
    p.add_argument("--length", type=int, required=True, metavar="N")
    p.add_argument(
        "--first-square", action="store_true", help="restrict to tilings opening with a square"
    )
    p.add_argument("--list", action="store_true", help="print the tilings instead of counting")
    p.set_defaults(handler=_cmd_tilings)

    p = sub.add_parser("verify", help="run the full cross-check suite")
    p.add_argument(
        "--max",
        type=int,
        default=12,
        metavar="N",
        help="largest length brute-force enumerations cover (default: 12)",
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="one JSON record per check, with its seconds, after one for the census",
    )
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    # Counts past n ~ 11,240 have more digits than Python >= 3.10.7 turns
    # into str by default (3.10.0 to 3.10.6 have neither limit nor setter).
    # It is lifted after parsing, so argv integers still meet it, and
    # set back however the call ends, so only this call runs without it.
    limit = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return args.handler(args)
    # BrokenPipeError propagates, as under `| head`
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
