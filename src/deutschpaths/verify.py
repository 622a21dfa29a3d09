"""Cross checks wiring the independent routes of the package together.

Each check pits at least two separately implemented routes against each
other: enumeration against closed forms, series against integer
recurrences, bijections against round trips.  The CLI ``verify``
subcommand runs the whole list and reports one line per check, so a
regression anywhere in the package shows up as a named failure here.

``max_length`` bounds the brute-force enumerations.  Each enumeration
route is walked once per length, and that one census feeds every check
built on enumeration.  Everything not tied to enumeration uses the fixed
orders the package commits to (series order 64, sequence index 64,
tiling length 20).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from . import numbers, paths, series, trees

__all__ = ["CheckResult", "run_checks"]

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


def _check(name: str, passed: bool, detail: str = "") -> CheckResult:
    return CheckResult(name, bool(passed), "" if passed else detail)


def _counts_by_series(order: int) -> list[int]:
    coeffs = series.gf_coefficients("with-empty", order)
    assert all(c.denominator == 1 for c in coeffs)
    return [c.numerator for c in coeffs]


@dataclass
class _Census:
    """What one walk of each enumeration route per length leaves behind.

    ``failures`` keeps each check's first failure, as its FAIL name and
    detail, in (length, canonical path) order.
    """

    bad_paths: int = 0
    mountains: list[int] = field(default_factory=list)
    brute: list[int] = field(default_factory=list)
    unit_down: list[int] = field(default_factory=list)
    failures: dict[str, tuple[str, str]] = field(default_factory=dict)

    def fail(self, check: str, name: str, detail: str) -> None:
        self.failures.setdefault(check, (name, detail))

    def result(self, check: str, name: str) -> CheckResult:
        """The first failure of ``check``, or its pass under ``name``."""
        if check not in self.failures:
            return _check(name, True)
        fail_name, detail = self.failures[check]
        return _check(fail_name, False, detail)


def _failed_on(path: paths.DeutschPath) -> str:
    return f"failed on {paths.render_path(path)!r}"


def _take_census(max_length: int) -> _Census:
    census = _Census()
    for n in range(max_length + 1):
        mountains = 0
        for p in paths.enumerate_deutsch(n):
            hs = paths.heights(p)
            if any(h < 0 for h in hs) or (hs and hs[-1] != 0):
                census.bad_paths += 1
            mountains += paths.as_mountain(p) is not None
        census.mountains.append(mountains)
        if mountains != numbers.count_mountains(n) or mountains != (
            numbers.fibonacci(n - 1) if n >= 2 else 0
        ):
            census.fail(
                "mountains",
                "paths: mountain census matches the binomial count and F(k-1)",
                f"k={n}: census {mountains}",
            )

        via_filter = list(paths.enumerate_nondecreasing_filter(n))
        census.brute.append(len(via_filter))
        if via_filter != list(paths.enumerate_nondecreasing_direct(n)):
            census.fail(
                "direct",
                "paths: filtered and structural enumerations agree, in order",
                f"streams differ at length {n}",
            )
        for dec in paths.iter_decompositions(n):
            if paths.decompose(paths.compose(dec)) != dec:
                census.fail(
                    "decompositions",
                    "paths: decompose inverts compose",
                    f"failed at length {n} on {dec!r}",
                )
                break

        encoded = set()
        unit_down = 0
        for p in via_filter:
            if paths.compose(paths.decompose(p)) != p:
                census.fail("compose", "paths: compose inverts decompose", _failed_on(p))
            tree = trees.path_to_tree(p)
            encoded.add(tree)
            if trees.tree_to_path(tree) != p:
                census.fail("trees", "trees: tree decoding inverts encoding", _failed_on(p))
            stats = trees.tree_statistics(tree)
            record = paths.path_stats(p)
            if stats.weight != n or stats.edge_count + stats.double_count != n:
                census.fail("weight", "trees: weight equals path length", _failed_on(p))
            elif stats.double_count != record.downstep_count:
                census.fail("weight", "trees: doubles count the down-steps", _failed_on(p))
            elif stats.edge_count != record.up_count:
                census.fail("weight", "trees: edges count the up-steps", _failed_on(p))
            if all(not isinstance(s, paths.Down) or s.size == 1 for s in p.steps):
                unit_down += 1
                if stats.edge_count != stats.double_count:
                    census.fail(
                        "dyck", "trees: unit-down paths mark every edge double", _failed_on(p)
                    )
        if n % 2 == 0:
            census.unit_down.append(unit_down)
        if len(encoded) != len(via_filter):
            census.fail(
                "trees", "trees: distinct paths map to distinct trees", f"collision at length {n}"
            )
        if len(encoded) != numbers.count_nondecreasing_closed(n):
            census.fail(
                "tree-count",
                "trees: trees of weight n are equinumerous with the paths",
                f"n={n}: {len(encoded)}",
            )
    return census


def _check_unit_down_restriction(max_length: int, brute: list[int]) -> CheckResult:
    top = max_length // 2
    expected = [numbers.fibonacci(2 * n - 1) for n in range(top + 1)]
    coeffs = series.gf_coefficients("dyck-nondecreasing", top)
    by_series = [c.numerator for c in coeffs]
    ok = brute == expected == by_series
    return _check(
        f"paths: unit-down restriction counts F(2n-1) and matches its series (2n <= {max_length})",
        ok,
        f"brute {brute}, fibonacci {expected}, series {by_series}",
    )


def _check_five_forms(order: int) -> CheckResult:
    names = (
        "with-empty",
        "partial-fractions",
        "continued-fraction",
        "cf-closure",
        "tree-form",
    )
    # equal through ``order``, and as rational functions (P1 Q2 == P2 Q1)
    forms = {name: series.named_form(name) for name in names}
    reference = forms["with-empty"]
    expansion = reference.coefficients(order)
    bad = [
        name
        for name, form in forms.items()
        if form.coefficients(order) != expansion or form != reference
    ]
    return _check(
        f"series: all five closed forms expand identically (order {order})",
        not bad,
        f"disagreeing forms: {bad}",
    )


def _check_series_vs_brute(max_length: int, brute: list[int]) -> CheckResult:
    by_series = _counts_by_series(max_length)
    return _check(
        f"series: with-empty coefficients equal the brute census (n <= {max_length})",
        by_series == brute,
        f"series {by_series}, brute {brute}",
    )


def _check_mountain_series(max_length: int, mountains: list[int]) -> CheckResult:
    coeffs = series.gf_coefficients("mountain", SERIES_ORDER)
    fib_ok = all(
        coeffs[k] == (numbers.fibonacci(k - 1) if k >= 2 else 0)
        for k in range(SERIES_ORDER + 1)
    )
    census_ok = all(coeffs[k] == mountains[k] for k in range(min(max_length, 12) + 1))
    return _check(
        "series: mountain coefficients equal F(k-1) and the brute census",
        fib_ok and census_ok,
    )


def _check_bundle_geometric(order: int) -> CheckResult:
    mountain = series.TruncatedSeries(series.gf_coefficients("mountain", order))
    bundle = series.TruncatedSeries(series.gf_coefficients("bundle", order))
    ok = bundle == 1 / (1 - mountain)
    return _check(
        f"series: bundle form equals the geometric closure of the mountain form (order {order})",
        ok,
    )


def _check_partial_fraction_integrality(order: int) -> CheckResult:
    coeffs = series.gf_coefficients("partial-fractions", order)
    ok = all(c.denominator == 1 for c in coeffs)
    return _check(
        f"series: partial fraction pieces combine to integers (order {order})", ok
    )


def _check_division_exactness() -> CheckResult:
    rng = random.Random(20240831)
    for trial in range(40):
        order = 16
        a = series.TruncatedSeries(
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(order + 1)]
        )
        b_coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(order + 1)]
        if not b_coeffs[0]:
            b_coeffs[0] = Fraction(1)
        b = series.TruncatedSeries(b_coeffs)
        if (a / b) * b != a:
            return _check(
                "series: division recomposes exactly under multiplication",
                False,
                f"trial {trial}",
            )
    return _check("series: division recomposes exactly under multiplication", True)


def _check_star_identity() -> CheckResult:
    rng = random.Random(20240832)
    for trial in range(STAR_CASES):
        coeffs_a = [Fraction(0)] + [
            Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(STAR_ORDER)
        ]
        coeffs_b = [Fraction(0)] + [
            Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(STAR_ORDER)
        ]
        a = series.TruncatedSeries(coeffs_a)
        b = series.TruncatedSeries(coeffs_b)
        if not series.star_identity_holds(a, b, STAR_ORDER):
            return _check(
                "series: star identity (a+b)* = b*(ab*)*",
                False,
                f"trial {trial}",
            )
    return _check(
        f"series: star identity (a+b)* = b*(ab*)* on {STAR_CASES} random pairs (order {STAR_ORDER})",
        True,
    )


def _check_pell_binet() -> CheckResult:
    for n in range(SEQUENCE_LIMIT + 1):
        if numbers.pell(n) != numbers.binet_pell(n):
            return _check("numbers: Pell recurrence matches Binet", False, f"n={n}")
        if numbers.half_companion_pell(n) != numbers.binet_half_companion(n):
            return _check(
                "numbers: half companion recurrence matches Binet", False, f"n={n}"
            )
    product = numbers.SILVER_RATIO * numbers.SILVER_CONJUGATE
    total = numbers.SILVER_RATIO + numbers.SILVER_CONJUGATE
    algebra_ok = product == numbers.QuadraticNumber(-1) and total == numbers.QuadraticNumber(2)
    return _check(
        f"numbers: Pell sequences match their Binet forms (n <= {SEQUENCE_LIMIT}), "
        "silver ratio algebra holds",
        algebra_ok,
    )


def _check_closed_count_routes(max_length: int, brute: list[int]) -> CheckResult:
    by_series = _counts_by_series(SEQUENCE_LIMIT)
    for n in range(SEQUENCE_LIMIT + 1):
        closed = numbers.count_nondecreasing_closed(n)
        if closed != numbers.count_nondecreasing_quadratic(n) or closed != by_series[n]:
            return _check(
                "numbers: closed count equals ring evaluation and series",
                False,
                f"n={n}",
            )
    if brute != by_series[: max_length + 1]:
        return _check(
            "numbers: closed count equals the brute census", False, f"brute {brute}"
        )
    return _check(
        f"numbers: closed count, ring evaluation, series (n <= {SEQUENCE_LIMIT}) "
        f"and brute census (n <= {max_length}) all agree",
        True,
    )


def _check_mountain_binomials() -> CheckResult:
    for k in range(SEQUENCE_LIMIT + 1):
        expected = numbers.fibonacci(k - 1) if k >= 2 else 0
        if numbers.count_mountains(k) != expected:
            return _check(
                "numbers: mountain binomial sums equal F(k-1)", False, f"k={k}"
            )
    return _check(
        f"numbers: mountain binomial sums equal F(k-1) (k <= {SEQUENCE_LIMIT})", True
    )


def _check_tilings() -> CheckResult:
    square_first_series = series.gf_coefficients("square-first-tilings", TILING_LIMIT)
    for n in range(TILING_LIMIT + 1):
        count = numbers.count_tilings(n)
        if count != numbers.fibonacci(n + 1):
            return _check("numbers: tiling count equals F(n+1)", False, f"n={n}")
        if n <= 12:
            listed = list(numbers.enumerate_tilings(n))
            if len(listed) != count or len(set(listed)) != count:
                return _check(
                    "numbers: tiling enumeration matches the count", False, f"n={n}"
                )
        square_first = numbers.count_square_first_tilings(n)
        if n >= 1 and square_first != square_first_series[n]:
            return _check(
                "numbers: square-first counts match their series", False, f"n={n}"
            )
        # domino-first tilings of length n+1 biject with tilings of length n-1
        if 1 <= n <= 12:
            domino_first = [
                t for t in numbers.enumerate_tilings(n + 1) if t[0] is numbers.Piece.DOMINO
            ]
            images = {numbers.delete_leading_domino(t) for t in domino_first}
            if len(images) != len(domino_first) or images != set(
                numbers.enumerate_tilings(n - 1)
            ):
                return _check(
                    "numbers: deleting the leading domino is a bijection", False, f"n={n}"
                )
    return _check(
        f"numbers: tilings count F(n+1), square-first matches its series, "
        f"domino deletion bijects (n <= {TILING_LIMIT})",
        True,
    )


def run_checks(max_length: int = 12) -> list[CheckResult]:
    """Run every cross check; brute enumerations stop at ``max_length``."""
    if max_length < 0:
        raise ValueError("max length must be >= 0")
    census = _take_census(max_length)
    within = f"(n <= {max_length})"
    return [
        _check(
            f"paths: every enumerated path stays on or above ground and ends there {within}",
            census.bad_paths == 0,
            f"{census.bad_paths} bad paths",
        ),
        census.result(
            "direct", f"paths: filtered and structural enumerations agree, in order {within}"
        ),
        census.result("compose", f"paths: compose inverts decompose {within}"),
        census.result("decompositions", f"paths: decompose inverts compose {within}"),
        _check_unit_down_restriction(max_length, census.unit_down),
        census.result(
            "mountains",
            f"paths: mountain census matches the binomial count and F(k-1) (k <= {max_length})",
        ),
        census.result(
            "trees", f"trees: encoding and decoding are mutually inverse and injective {within}"
        ),
        census.result(
            "weight",
            f"trees: weight splits into edges = up-steps plus doubles = down-steps {within}",
        ),
        census.result("dyck", f"trees: unit-down paths mark every edge double {within}"),
        census.result(
            "tree-count", f"trees: trees of weight n are equinumerous with the paths {within}"
        ),
        _check_five_forms(SERIES_ORDER),
        _check_series_vs_brute(max_length, census.brute),
        _check_mountain_series(max_length, census.mountains),
        _check_bundle_geometric(SERIES_ORDER),
        _check_partial_fraction_integrality(SERIES_ORDER),
        _check_division_exactness(),
        _check_star_identity(),
        _check_pell_binet(),
        _check_closed_count_routes(max_length, census.brute),
        _check_mountain_binomials(),
        _check_tilings(),
    ]
