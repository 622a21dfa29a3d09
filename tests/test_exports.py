"""The package's public names, each declared once in its own module."""

from __future__ import annotations

import deutschpaths
from deutschpaths import (
    Decomposition,
    DeutschPath,
    EdgeMark,
    Mountain,
    RationalGF,
    TruncatedSeries,
    numbers,
    paths,
    series,
    trees,
)

EXPORTED = """
__version__ DeutschPath Up Down UP Step Mountain Decomposition
PathTokenError NegativeExcursionError NonzeroEndError
NotNonDecreasingError parse_path render_path path_to_json path_from_json
validate heights valley_levels is_nondecreasing as_mountain
enumerate_deutsch enumerate_nondecreasing_filter
enumerate_nondecreasing_direct iter_decompositions decompose compose
EdgeMark MarkedTree TreeStats DanglingSinglesError
TreeInvariantError TreeRecordError composition_to_marks marks_to_composition
path_to_tree tree_to_path tree_statistics validate_tree tree_to_json
tree_from_json render_outline TruncatedSeries RationalGF
FORM_NAMES ZeroConstantTermError NonzeroConstantTermError
UnknownFormError named_form gf_coefficients star_identity_holds
format_coefficients coefficients_to_json QuadraticNumber SQRT2 SILVER_RATIO
SILVER_CONJUGATE NonIntegerResultError DoesNotStartWithDominoError Piece
Tiling fibonacci pell half_companion_pell binet_pell binet_half_companion
count_nondecreasing_closed count_nondecreasing_quadratic count_mountains
enumerate_tilings count_tilings count_square_first_tilings
delete_leading_domino render_tiling CheckResult run_checks timed_checks
""".split()

# Names that are gone from the package and from every module: one-line
# wrappers around an operator, a method or str(), names that no
# command, verify check or benchmark workload reached, and a record and
# helpers that had one caller, which now does their work itself, and the
# series' own order check, which numbers._size replaced.
REMOVED = """
series_add series_mul series_div rational_coeffs format_coefficient quad_pow
statistics StatsSummary format_bfile DEFAULT_ORDER _fractions Polynomial _poly
PathStats path_stats _checked _check_order
""".split()

# members that nothing outside their own tests reached, or that had one caller
REMOVED_MEMBERS = [
    (TruncatedSeries, "truncate"),
    (RationalGF, "_integer_terms"),
    (TruncatedSeries, "variable"),
    (EdgeMark, "weight"),
    (Mountain, "length"),
    (Decomposition, "length"),
    (DeutschPath, "__len__"),
    (TruncatedSeries, "constant"),
]


def test_public_names_import_from_the_package():
    for name in EXPORTED:
        assert hasattr(deutschpaths, name), name
    assert sorted(deutschpaths.__all__) == sorted(EXPORTED)


def test_wrappers_are_gone():
    for name in REMOVED:
        for module in (deutschpaths, numbers, paths, series, trees):
            assert not hasattr(module, name), (module.__name__, name)
    for owner, name in REMOVED_MEMBERS:
        assert not hasattr(owner, name), (owner.__name__, name)
