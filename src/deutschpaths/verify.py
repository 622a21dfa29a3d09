"""Cross checks wiring the independent routes of the package together.

Each check pits at least two separately implemented routes against each
other: enumeration against closed forms, series against integer
recurrences, bijections against round trips.  The CLI ``verify``
subcommand runs the whole list and reports one line per check, so a
regression anywhere in the package shows up as a named failure here.

A check is its PASS name and the failures it finds, each a FAIL name
(``None`` for the check's own name) and a detail; the first failure
names the result.  The fixed checks are generators, so a check stops
at its first failure, and ``timed_checks`` reads every check in one
loop and times each read: a check runs when it is read, so that time
is the check's own.  ``run_checks`` returns the same results.

``max_length`` bounds the brute-force enumerations.  One census walks
``paths.enumerate_deutsch`` and ``paths.iter_decompositions`` once each
per length, and every check built on enumeration reads from those two
walks.  Everything not tied to enumeration uses the fixed orders the
package commits to (series order 64, sequence index 64, tiling length 20).
"""

from __future__ import annotations

import random
import time
from collections import defaultdict
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from fractions import Fraction

from . import numbers, paths, series, trees

__all__ = ["CheckResult", "run_checks", "timed_checks"]

SERIES_ORDER = 64
SEQUENCE_LIMIT = 64
TILING_LIMIT = 20
STAR_CASES = 60
STAR_ORDER = 32


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""
    seconds: float = field(default=0.0, compare=False)


# (FAIL name, or None for the check's own name; detail)
_Failure = tuple[str | None, str]
_Failures = Iterable[_Failure]


def _report(name: str, failures: _Failures) -> CheckResult:
    """The first of ``failures`` as a FAIL, or else the PASS of ``name``.

    The result carries the seconds that reading ``failures`` took.
    """
    start = time.perf_counter()
    for fail_name, detail in failures:
        return CheckResult(fail_name or name, False, detail, time.perf_counter() - start)
    return CheckResult(name, True, "", time.perf_counter() - start)


def _listed(values: Sequence[Fraction]) -> str:
    # str, not repr: integers print as in a list of int, 1/2 as 1/2
    return f"[{', '.join(map(str, values))}]"


def _failed_on(path: paths.DeutschPath) -> str:
    return f"failed on {paths.render_path(path)!r}"


def _take_census(
    max_length: int,
) -> tuple[list[int], list[int], list[int], dict[str, list[_Failure]]]:
    """Walk each enumeration route once per length, filing every failure.

    Returns the mountain, brute and unit-down (even lengths) censuses and
    each check's failures in (length, canonical path) order; ``_report``
    reports the first.  A path that ``heights`` flags goes no further.
    """
    mountain_census: list[int] = []
    brute: list[int] = []
    unit_down_census: list[int] = []
    failures: dict[str, list[_Failure]] = defaultdict(list)
    bad_paths = 0
    for n in range(max_length + 1):
        mountains = 0
        via_filter = []
        for p in paths.enumerate_deutsch(n):
            hs = paths.heights(p)
            if any(h < 0 for h in hs) or (hs and hs[-1] != 0):
                bad_paths += 1
                continue
            mountains += paths.as_mountain(p) is not None
            if paths.is_nondecreasing(p):
                via_filter.append(p)
        mountain_census.append(mountains)
        if mountains != numbers.count_mountains(n) or mountains != (
            numbers.fibonacci(n - 1) if n >= 2 else 0
        ):
            failures["mountains"].append(
                (
                    "paths: mountain census matches the binomial count and F(k-1)",
                    f"k={n}: census {mountains}",
                )
            )
        brute.append(len(via_filter))

        via_direct = []
        for dec in paths.iter_decompositions(n):
            p = paths.compose(dec)
            if paths.decompose(p) != dec:
                failures["decompositions"].append(
                    ("paths: decompose inverts compose", f"failed at length {n} on {dec!r}")
                )
            via_direct.append(p)
        via_direct.sort(key=paths.DeutschPath.sort_key)
        if via_filter != via_direct:
            failures["direct"].append(
                (
                    "paths: filtered and structural enumerations agree, in order",
                    f"streams differ at length {n}",
                )
            )
        del via_direct  # not held while the trees below are built

        encoded = {}  # tree -> the last path that encoded it
        unit_down = 0
        for p in via_filter:
            try:  # a path the filter let through by mistake has no decomposition
                round_trip = paths.compose(paths.decompose(p))
            except paths.NotNonDecreasingError:
                round_trip = None
            if round_trip != p:
                failures["compose"].append(("paths: compose inverts decompose", _failed_on(p)))
            if round_trip is None:
                continue
            tree = trees.path_to_tree(p)
            if encoded.get(tree, p) != p:
                failures["trees"].append(
                    ("trees: distinct paths map to distinct trees", f"collision at length {n}")
                )
            encoded[tree] = p
            if trees.tree_to_path(tree) != p:
                failures["trees"].append(("trees: tree decoding inverts encoding", _failed_on(p)))
            # edges + doubles = n and doubles = down-steps leave edges = up-steps
            stats = trees.tree_statistics(tree)
            if stats.weight != n:
                failures["weight"].append(("trees: weight equals path length", _failed_on(p)))
            elif stats.double_count != sum(s is not paths.UP for s in p.steps):
                failures["weight"].append(("trees: doubles count the down-steps", _failed_on(p)))
            if all(s is paths.UP or s.size == 1 for s in p.steps):
                unit_down += 1
                if stats.edge_count != stats.double_count:
                    failures["dyck"].append(
                        ("trees: unit-down paths mark every edge double", _failed_on(p))
                    )
        if n % 2 == 0:
            unit_down_census.append(unit_down)
        try:  # the closed route raises when its own ring check disagrees
            closed, detail = numbers.count_nondecreasing_closed(n), f"n={n}: {len(encoded)}"
        except numbers.NonIntegerResultError as exc:
            closed, detail = None, f"n={n}: {exc}"
        if len(encoded) != closed:
            failures["tree-count"].append(
                ("trees: trees of weight n are equinumerous with the paths", detail)
            )
    if bad_paths:
        failures["conservation"].append((None, f"{bad_paths} bad paths"))
    return mountain_census, brute, unit_down_census, failures


def _unit_down_failures(max_length: int, brute: list[int]) -> _Failures:
    top = max_length // 2
    expected = [numbers.fibonacci(2 * n - 1) for n in range(top + 1)]
    by_series = list(series.gf_coefficients("dyck-nondecreasing", top))
    if not brute == expected == by_series:
        yield None, f"brute {brute}, fibonacci {expected}, series {_listed(by_series)}"


def _five_forms_failures() -> _Failures:
    names = ("with-empty", "partial-fractions", "continued-fraction", "cf-closure", "tree-form")
    # equal through SERIES_ORDER, and as rational functions (P1 Q2 == P2 Q1)
    forms = {name: series.named_form(name) for name in names}
    reference = forms["with-empty"]
    expansion = reference.coefficients(SERIES_ORDER)
    bad = [
        name
        for name, form in forms.items()
        if form.coefficients(SERIES_ORDER) != expansion or form != reference
    ]
    if bad:
        yield None, f"disagreeing forms: {bad}"


def _series_vs_brute_failures(max_length: int, brute: list[int]) -> _Failures:
    by_series = list(series.gf_coefficients("with-empty", max_length))
    if by_series != brute:
        yield None, f"series {_listed(by_series)}, brute {brute}"


def _mountain_series_failures(max_length: int, mountains: list[int]) -> _Failures:
    coeffs = series.gf_coefficients("mountain", max(SERIES_ORDER, max_length))
    fib_ok = all(
        coeffs[k] == (numbers.fibonacci(k - 1) if k >= 2 else 0)
        for k in range(SERIES_ORDER + 1)
    )
    census_ok = list(coeffs[: max_length + 1]) == mountains
    if not (fib_ok and census_ok):
        yield None, ""


def _bundle_geometric_failures() -> _Failures:
    mountain = series.TruncatedSeries(series.gf_coefficients("mountain", SERIES_ORDER))
    bundle = series.TruncatedSeries(series.gf_coefficients("bundle", SERIES_ORDER))
    if bundle != 1 / (1 - mountain):
        yield None, ""


def _partial_fraction_failures() -> _Failures:
    coeffs = series.gf_coefficients("partial-fractions", SERIES_ORDER)
    if any(c.denominator != 1 for c in coeffs):
        yield None, ""


def _random_fractions(rng: random.Random, count: int, bound: int) -> list[Fraction]:
    return [Fraction(rng.randint(-bound, bound), rng.randint(1, 3)) for _ in range(count)]


def _division_failures() -> _Failures:
    rng = random.Random(20240831)
    order = 16
    for trial in range(40):
        a = series.TruncatedSeries(_random_fractions(rng, order + 1, 4))
        b_coeffs = _random_fractions(rng, order + 1, 4)
        b_coeffs[0] = b_coeffs[0] or Fraction(1)
        b = series.TruncatedSeries(b_coeffs)
        if (a / b) * b != a:
            yield None, f"trial {trial}"


def _star_identity_failures() -> _Failures:
    rng = random.Random(20240832)
    for trial in range(STAR_CASES):
        a = series.TruncatedSeries([0, *_random_fractions(rng, STAR_ORDER, 3)])
        b = series.TruncatedSeries([0, *_random_fractions(rng, STAR_ORDER, 3)])
        if not series.star_identity_holds(a, b, STAR_ORDER):
            yield "series: star identity (a+b)* = b*(ab*)*", f"trial {trial}"


def _pell_binet_failures() -> _Failures:
    for n in range(SEQUENCE_LIMIT + 1):
        if numbers.pell(n) != numbers.binet_pell(n):
            yield "numbers: Pell recurrence matches Binet", f"n={n}"
        if numbers.half_companion_pell(n) != numbers.binet_half_companion(n):
            yield "numbers: half companion recurrence matches Binet", f"n={n}"
    product = numbers.SILVER_RATIO * numbers.SILVER_CONJUGATE
    total = numbers.SILVER_RATIO + numbers.SILVER_CONJUGATE
    if product != numbers.QuadraticNumber(-1) or total != numbers.QuadraticNumber(2):
        yield None, ""


def _closed_count_failures(max_length: int, brute: list[int]) -> _Failures:
    by_series = series.gf_coefficients("with-empty", SEQUENCE_LIMIT)
    for n in range(SEQUENCE_LIMIT + 1):
        try:  # the closed route raises when its own ring check disagrees
            closed = numbers.count_nondecreasing_closed(n)
            agree = closed == numbers.count_nondecreasing_quadratic(n) == by_series[n]
        except numbers.NonIntegerResultError:
            agree = False
        if not agree:
            yield "numbers: closed count equals ring evaluation and series", f"n={n}"
    try:  # the series stops at SEQUENCE_LIMIT, the closed route does not
        closed_counts = [numbers.count_nondecreasing_closed(n) for n in range(max_length + 1)]
    except numbers.NonIntegerResultError:
        closed_counts = None
    if brute != closed_counts:
        yield "numbers: closed count equals the brute census", f"brute {brute}"


def _mountain_binomial_failures() -> _Failures:
    for k in range(SEQUENCE_LIMIT + 1):
        if numbers.count_mountains(k) != (numbers.fibonacci(k - 1) if k >= 2 else 0):
            yield "numbers: mountain binomial sums equal F(k-1)", f"k={k}"


def _tiling_failures() -> _Failures:
    square_first_series = series.gf_coefficients("square-first-tilings", TILING_LIMIT)
    for n in range(TILING_LIMIT + 1):
        count = numbers.count_tilings(n)
        if count != numbers.fibonacci(n + 1):
            yield "numbers: tiling count equals F(n+1)", f"n={n}"
        if n <= 12:
            listed = list(numbers.enumerate_tilings(n))
            if len(listed) != count or len(set(listed)) != count:
                yield "numbers: tiling enumeration matches the count", f"n={n}"
        square_first = numbers.count_square_first_tilings(n)
        if n >= 1 and square_first != square_first_series[n]:
            yield "numbers: square-first counts match their series", f"n={n}"
        # domino-first tilings of length n+1 biject with tilings of length n-1
        if 1 <= n <= 12:
            domino_first = [
                t for t in numbers.enumerate_tilings(n + 1) if t[0] is numbers.Piece.DOMINO
            ]
            images = {numbers.delete_leading_domino(t) for t in domino_first}
            if len(images) != len(domino_first) or images != set(
                numbers.enumerate_tilings(n - 1)
            ):
                yield "numbers: deleting the leading domino is a bijection", f"n={n}"


def run_checks(max_length: int = 12) -> list[CheckResult]:
    """Run every cross check; brute enumerations stop at ``max_length``."""
    return timed_checks(max_length)[1]


def timed_checks(max_length: int = 12) -> tuple[float, list[CheckResult]]:
    """The seconds the census walk takes, and every cross check's result.

    Each result carries the seconds its check took.  Brute
    enumerations stop at ``max_length``.
    """
    numbers._size(max_length, "max_length")
    start = time.perf_counter()
    mountains, brute, unit_down, failed = _take_census(max_length)
    census_seconds = time.perf_counter() - start
    within = f"(n <= {max_length})"
    checks = [
        (
            f"paths: every enumerated path stays on or above ground and ends there {within}",
            failed["conservation"],
        ),
        (
            f"paths: filtered and structural enumerations agree, in order {within}",
            failed["direct"],
        ),
        (f"paths: compose inverts decompose {within}", failed["compose"]),
        (f"paths: decompose inverts compose {within}", failed["decompositions"]),
        (
            "paths: unit-down restriction counts F(2n-1) and matches its series "
            f"(2n <= {max_length})",
            _unit_down_failures(max_length, unit_down),
        ),
        (
            f"paths: mountain census matches the binomial count and F(k-1) (k <= {max_length})",
            failed["mountains"],
        ),
        (
            f"trees: encoding and decoding are mutually inverse and injective {within}",
            failed["trees"],
        ),
        (
            f"trees: weight splits into edges = up-steps plus doubles = down-steps {within}",
            failed["weight"],
        ),
        (f"trees: unit-down paths mark every edge double {within}", failed["dyck"]),
        (
            f"trees: trees of weight n are equinumerous with the paths {within}",
            failed["tree-count"],
        ),
        (
            f"series: all five closed forms expand identically (order {SERIES_ORDER})",
            _five_forms_failures(),
        ),
        (
            f"series: with-empty coefficients equal the brute census {within}",
            _series_vs_brute_failures(max_length, brute),
        ),
        (
            "series: mountain coefficients equal F(k-1) and the brute census",
            _mountain_series_failures(max_length, mountains),
        ),
        (
            "series: bundle form equals the geometric closure of the mountain form "
            f"(order {SERIES_ORDER})",
            _bundle_geometric_failures(),
        ),
        (
            f"series: partial fraction pieces combine to integers (order {SERIES_ORDER})",
            _partial_fraction_failures(),
        ),
        ("series: division recomposes exactly under multiplication", _division_failures()),
        (
            f"series: star identity (a+b)* = b*(ab*)* on {STAR_CASES} random pairs "
            f"(order {STAR_ORDER})",
            _star_identity_failures(),
        ),
        (
            f"numbers: Pell sequences match their Binet forms (n <= {SEQUENCE_LIMIT}), "
            "silver ratio algebra holds",
            _pell_binet_failures(),
        ),
        (
            f"numbers: closed count, ring evaluation, series (n <= {SEQUENCE_LIMIT}) "
            f"and brute census (n <= {max_length}) all agree",
            _closed_count_failures(max_length, brute),
        ),
        (
            f"numbers: mountain binomial sums equal F(k-1) (k <= {SEQUENCE_LIMIT})",
            _mountain_binomial_failures(),
        ),
        (
            "numbers: tilings count F(n+1), square-first matches its series, "
            f"domino deletion bijects (n <= {TILING_LIMIT})",
            _tiling_failures(),
        ),
    ]
    return census_seconds, [_report(name, failures) for name, failures in checks]
