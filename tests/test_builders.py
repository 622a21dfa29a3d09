"""The bijection layer against references built by the public constructors.

``decompose``, ``compose``, ``path_to_tree``, ``tree_to_path`` and
``iter_decompositions`` build their records with the package's private
builders, which skip the constructors' checks.  The references below
build the same records through the public constructors, with
``decompose`` as the ``groupby`` loop the package once ran.  On every
Deutsch path of length up to 12 each must return a value equal to its
reference's, hashing alike, whose fields pass every constructor check,
or raise the same exception type with the same message.
"""

from __future__ import annotations

import re
from itertools import groupby

import pytest

from deutschpaths import (
    Decomposition,
    DeutschPath,
    EdgeMark,
    MarkedTree,
    Mountain,
    NotNonDecreasingError,
    TreeInvariantError,
    compose,
    composition_to_marks,
    decompose,
    enumerate_deutsch,
    iter_decompositions,
    marks_to_composition,
    parse_path,
    path_to_tree,
    render_path,
    tree_to_path,
    validate,
    validate_tree,
)
from deutschpaths.paths import UP, _down


def reference_decompose(path: DeutschPath) -> Decomposition:
    validate(path)
    # alternating up- and down-runs; the last down-run is the home run
    runs = [tuple(run) for _, run in groupby(path.steps, type)]
    homerun = tuple(s.size for s in runs[-1]) if runs else ()
    height = sum(homerun)
    bundles: list[list[Mountain]] = [[] for _ in range(height)]
    level = 0  # the valley before, or the ground
    for ups, downs in zip(runs[:-2:2], runs[1:-2:2]):
        descent = tuple(s.size for s in downs)
        base = level + len(ups) - sum(descent)
        if not level <= base < height:
            raise NotNonDecreasingError(f"valley levels decrease in {render_path(path)!r}")
        bundles[base].append(Mountain(descent))
        level = base
    return Decomposition(tuple(map(tuple, bundles)), homerun)


def reference_compose(dec: Decomposition) -> DeutschPath:
    steps: list = []
    for bundle in dec.bundles:
        for mountain in bundle:
            steps += [UP] * mountain.ups
            steps += map(_down, mountain.descent)
        steps.append(UP)
    steps += map(_down, dec.homerun)
    return validate(DeutschPath(tuple(steps)))


def reference_path_to_tree(path: DeutschPath) -> MarkedTree:
    dec = reference_decompose(path)
    bundles = tuple(tuple(composition_to_marks(m.descent) for m in b) for b in dec.bundles)
    return MarkedTree(composition_to_marks(dec.homerun), bundles)


def reference_tree_to_path(tree: MarkedTree) -> DeutschPath:
    problems = validate_tree(tree)
    if problems:
        raise TreeInvariantError(problems)
    homerun = marks_to_composition(tree.backbone)
    bundles = tuple(tuple(Mountain(marks_to_composition(h)) for h in b) for b in tree.bundles)
    return reference_compose(Decomposition(bundles, homerun))


def _rebuilt(record):
    # the record again, through its public constructors, which refuse any
    # field a builder might have let through: a list, a 1.0, a 0
    if isinstance(record, Decomposition):
        bundles = tuple(tuple(Mountain(m.descent) for m in b) for b in record.bundles)
        return Decomposition(bundles, record.homerun)
    if isinstance(record, MarkedTree):
        return MarkedTree(record.backbone, record.bundles)
    return DeutschPath(record.steps)


def _outcome(function, *args):
    try:
        return function(*args)
    except ValueError as exc:  # the type and message are what is compared
        return type(exc), str(exc)


def _same(function, reference, *args):
    got, expected = _outcome(function, *args), _outcome(reference, *args)
    assert got == expected
    if not isinstance(got, tuple):  # a record, not an error
        assert hash(got) == hash(expected)
        assert _rebuilt(got) == got
    return got


@pytest.mark.parametrize("n", range(13))
def test_the_bijection_matches_the_references_on_every_path(n):
    rejected = 0
    for path in enumerate_deutsch(n):
        dec = _same(decompose, reference_decompose, path)
        tree = _same(path_to_tree, reference_path_to_tree, path)
        if isinstance(dec, tuple):
            assert dec[0] is NotNonDecreasingError
            rejected += 1
            continue
        assert _same(compose, reference_compose, dec) == path
        assert _same(tree_to_path, reference_tree_to_path, tree) == path
    # the first dip is at n = 7, the path "U U D1 U D2 U D1"
    assert (rejected > 0) == (n >= 7)


@pytest.mark.parametrize(
    "text", ["D1", "U", "U D2 U D1", "U U D1", "U D1 D1", "U U D1 U D2 U D1", "U U D2 U U D3"]
)
def test_paths_off_the_ground_rules_or_dipping_raise_as_the_references(text):
    path = parse_path(text)
    assert isinstance(_same(decompose, reference_decompose, path), tuple)
    assert isinstance(_same(path_to_tree, reference_path_to_tree, path), tuple)


_S, _D = EdgeMark.SINGLE, EdgeMark.DOUBLE
BROKEN_TREES = [
    MarkedTree((_S,), ((),)),
    MarkedTree((_D,), ()),
    MarkedTree((_D,), (((),),)),
    MarkedTree((_S, _D), (((_D,),), ((_S,),))),
]


@pytest.mark.parametrize("tree", BROKEN_TREES, ids=repr)
def test_trees_off_the_invariants_raise_as_the_reference(tree):
    assert isinstance(_same(tree_to_path, reference_tree_to_path, tree), tuple)


@pytest.mark.parametrize("n", range(13))
def test_iter_decompositions_yields_records_the_constructors_build(n):
    for dec in iter_decompositions(n):
        rebuilt = _rebuilt(dec)
        assert rebuilt == dec
        assert hash(rebuilt) == hash(dec)


# each public constructor, with what it refuses: a level that is not a
# tuple, a part or mark of the wrong type, a zero part, a home run that
# does not total the height
_M = Mountain((1,))
REFUSALS = {
    "Mountain: list": (lambda: Mountain([1]), "descent must be a tuple, got list"),
    "Mountain: float part": (lambda: Mountain((1.0,)), "descent parts must be ints >= 1, got 1.0"),
    "Mountain: zero part": (lambda: Mountain((2, 0)), "descent parts must be ints >= 1, got 0"),
    "Mountain: empty": (lambda: Mountain(()), "descent must be nonempty"),
    "Decomposition: bundles list": (
        lambda: Decomposition([()], (1,)),
        "bundles must be a tuple, got list",
    ),
    "Decomposition: bundle list": (
        lambda: Decomposition(([_M],), (1,)),
        "bundles must hold only tuples, got list",
    ),
    "Decomposition: bundle item": (
        lambda: Decomposition(((1,),), (1,)),
        "bundle must hold only Mountains, got int",
    ),
    "Decomposition: home run list": (
        lambda: Decomposition(((),), [1]),
        "home run must be a tuple, got list",
    ),
    "Decomposition: bool part": (
        lambda: Decomposition(((),), (True,)),
        "home run parts must be ints >= 1, got True",
    ),
    "Decomposition: zero part": (
        lambda: Decomposition(((),), (1, 0)),
        "home run parts must be ints >= 1, got 0",
    ),
    "Decomposition: short home run": (
        lambda: Decomposition(((), ()), (1,)),
        "home run must be a composition of the height",
    ),
    "Decomposition: long home run": (
        lambda: Decomposition(((),), (1, 1)),
        "home run must be a composition of the height",
    ),
    "MarkedTree: backbone list": (
        lambda: MarkedTree([_D], ((),)),
        "backbone must be a tuple, got list",
    ),
    "MarkedTree: letter mark": (
        lambda: MarkedTree(("d",), ((),)),
        "backbone must hold only EdgeMarks, got str",
    ),
    "MarkedTree: hanging list": (
        lambda: MarkedTree((_D,), (([_D],),)),
        "bundle must hold only tuples, got list",
    ),
    "MarkedTree: int mark": (
        lambda: MarkedTree((_D,), (((1,),),)),
        "hanging path must hold only EdgeMarks, got int",
    ),
}


@pytest.mark.parametrize("build, message", REFUSALS.values(), ids=REFUSALS)
def test_every_public_constructor_keeps_its_checks(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()
