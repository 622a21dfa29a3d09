"""Tree model: mark codes, the bijection in both directions, statistics."""

from __future__ import annotations

import copy
import dataclasses
import pickle
import re
from itertools import pairwise

import pytest
from hypothesis import assume, given, settings, strategies as st

from deutschpaths import (
    UP,
    DanglingSinglesError,
    Decomposition,
    EdgeMark,
    MarkedTree,
    Mountain,
    TreeInvariantError,
    TreeRecordError,
    TreeStats,
    compose,
    composition_to_marks,
    decompose,
    enumerate_nondecreasing_filter,
    is_nondecreasing,
    marks_to_composition,
    parse_path,
    path_from_json,
    path_to_json,
    path_to_tree,
    render_outline,
    render_path,
    tree_from_json,
    tree_statistics,
    tree_to_json,
    tree_to_path,
    validate,
    validate_tree,
)

S = EdgeMark.SINGLE
D = EdgeMark.DOUBLE


def _tree(backbone, bundles):
    return MarkedTree(tuple(backbone), tuple(tuple(tuple(h) for h in b) for b in bundles))


# The six length-5 paths and their marked trees, one pair per figure.
FIGURE_PAIRS = [
    ("U D1 U U D2", _tree([S, D], [[[D]], []])),
    ("U U D1 U D2", _tree([S, D], [[], [[D]]])),
    ("U U D2 U D1", _tree([D], [[[S, D]]])),
    ("U U U D2 D1", _tree([S, D, D], [[], [], []])),
    ("U U U D1 D2", _tree([D, S, D], [[], [], []])),
    ("U U U U D4", _tree([S, S, S, D], [[], [], [], []])),
]


class TestMarkCodes:
    @pytest.mark.parametrize(
        "parts,marks",
        [
            ((2, 1), (S, D, D)),
            ((1, 2), (D, S, D)),
            ((4,), (S, S, S, D)),
            ((), ()),
        ],
    )
    def test_composition_to_marks(self, parts, marks):
        assert composition_to_marks(parts) == marks
        assert marks_to_composition(marks) == parts

    def test_dangling_singles(self):
        with pytest.raises(DanglingSinglesError):
            marks_to_composition((D, S))
        with pytest.raises(DanglingSinglesError):
            marks_to_composition((S,))

    def test_bad_parts(self):
        # a part whose type is not exactly int is refused, bool included
        for part in (0, -1, 1.0, True, "1"):
            message = f"^composition parts must be ints >= 1, got {re.escape(repr(part))}$"
            with pytest.raises(ValueError, match=message):
                composition_to_marks((2, part))

    def test_a_composition_is_a_tuple(self):
        # the parts go through the records' shape rule, so a list is refused
        with pytest.raises(ValueError, match="^composition must be a tuple, got list$"):
            composition_to_marks([1, 2])

    @given(st.lists(st.integers(1, 6), max_size=8).map(tuple))
    def test_codes_invert(self, parts):
        assert marks_to_composition(composition_to_marks(parts)) == parts

    def test_mark_weights(self):
        # a tree's weight counts a single mark once and a double twice
        for mark, weight in ((S, 1), (D, 2)):
            assert tree_statistics(MarkedTree((mark,), ((),))).weight == weight


class TestBijection:
    @pytest.mark.parametrize("text,tree", FIGURE_PAIRS)
    def test_figure_pairs_forward(self, text, tree):
        assert path_to_tree(parse_path(text)) == tree

    @pytest.mark.parametrize("text,tree", FIGURE_PAIRS)
    def test_figure_pairs_backward(self, text, tree):
        assert render_path(tree_to_path(tree)) == text

    def test_round_trip_exhaustive(self):
        for n in range(11):
            for p in enumerate_nondecreasing_filter(n):
                assert tree_to_path(path_to_tree(p)) == p

    def test_distinct_paths_distinct_trees(self):
        for n in range(10):
            stream = list(enumerate_nondecreasing_filter(n))
            assert len({path_to_tree(p) for p in stream}) == len(stream)

    @pytest.mark.parametrize("text,tree", FIGURE_PAIRS)
    def test_copies_of_a_tree_hash_alike(self, text, tree):
        # marks hash by identity, and every way of copying a mark gives
        # the one member back, so a copied or re-read tree keys a dict
        encoded = path_to_tree(parse_path(text))
        copies = [
            tree,
            copy.copy(encoded),
            copy.deepcopy(encoded),
            pickle.loads(pickle.dumps(encoded)),
            tree_from_json(tree_to_json(encoded)),
        ]
        assert {copied: text for copied in copies} == {encoded: text}
        marks = [*encoded.backbone, *(m for b in encoded.bundles for h in b for m in h)]
        for copied in copies:
            assert hash(copied) == hash(encoded)
            copied_marks = [*copied.backbone, *(m for b in copied.bundles for h in b for m in h)]
            assert all(a is b for a, b in zip(copied_marks, marks, strict=True))

    def test_empty_path_empty_tree(self):
        tree = path_to_tree(parse_path(""))
        assert tree == MarkedTree()
        assert tree_to_path(tree) == parse_path("")


class TestStatistics:
    def test_staircase_example(self):
        stats = tree_statistics(path_to_tree(parse_path("U U U U D4")))
        assert (stats.edge_count, stats.double_count, stats.weight) == (4, 1, 5)

    def test_two_mountain_example(self):
        stats = tree_statistics(path_to_tree(parse_path("U D1 U U D2")))
        assert (stats.edge_count, stats.double_count, stats.weight) == (3, 2, 5)

    def test_thirty_step_unit_down_example(self):
        # classical path: every down-step has size one, thirty steps total
        text = (
            "U U U D1 D1 D1 U U D1 U D1 "
            "U U U U D1 D1 D1 D1 U U U U D1 D1 U D1 D1 D1 D1"
        )
        path = parse_path(text)
        tree = path_to_tree(path)
        assert len(tree.backbone) == 4
        hang_sizes = [tuple(len(h) for h in bundle) for bundle in tree.bundles]
        assert hang_sizes == [(3,), (1, 1, 4), (), (2,)]
        stats = tree_statistics(tree)
        assert (stats.edge_count, stats.double_count, stats.weight) == (15, 15, 30)

    def test_weight_equals_length_and_splits(self):
        for n in range(11):
            for p in enumerate_nondecreasing_filter(n):
                stats = tree_statistics(path_to_tree(p))
                ups = render_path(p).split().count("U")
                assert stats.weight == n
                assert stats.edge_count == ups
                assert stats.double_count == n - ups

    def test_unit_down_paths_mark_everything_double(self):
        for n in range(0, 11, 2):
            for p in enumerate_nondecreasing_filter(n):
                if any(t.startswith("D") and t != "D1" for t in render_path(p).split()):
                    continue
                stats = tree_statistics(path_to_tree(p))
                assert stats.edge_count == stats.double_count
                assert stats.weight == 2 * stats.edge_count


class TestValidation:
    def test_valid_trees_report_nothing(self):
        for _, tree in FIGURE_PAIRS:
            assert validate_tree(tree) == []
        assert validate_tree(MarkedTree()) == []

    def test_backbone_must_end_double(self):
        problems = validate_tree(_tree([S], [[]]))
        assert any("backbone" in p for p in problems)

    def test_hanging_paths_must_end_double(self):
        problems = validate_tree(_tree([D], [[[S]]]))
        assert problems == ["node 0, hanging path 0: last mark must be a double"]
        problems = validate_tree(_tree([S, D], [[], [[D], [D, S]]]))
        assert problems == ["node 1, hanging path 1: last mark must be a double"]

    def test_hanging_paths_must_be_nonempty(self):
        problems = validate_tree(_tree([D], [[[]]]))
        assert problems == ["node 0, hanging path 0: must be nonempty"]

    def test_bundle_count_must_match(self):
        problems = validate_tree(MarkedTree((D,), ()))
        assert problems

    def test_tree_to_path_reports_before_converting(self):
        with pytest.raises(TreeInvariantError) as info:
            tree_to_path(_tree([S], [[]]))
        assert info.value.problems


class TestSerialisation:
    def test_json_example(self):
        tree = path_to_tree(parse_path("U U D2 U D1"))
        text = tree_to_json(tree)
        assert text == '{"backbone":["d"],"bundles":[[["s","d"]]]}'
        assert tree_from_json(text) == tree

    def test_empty_tree_json(self):
        assert tree_to_json(MarkedTree()) == '{"backbone":[],"bundles":[]}'
        assert tree_from_json('{"backbone":[],"bundles":[]}') == MarkedTree()

    def test_json_round_trip_exhaustive(self):
        for n in range(9):
            for p in enumerate_nondecreasing_filter(n):
                tree = path_to_tree(p)
                assert tree_from_json(tree_to_json(tree)) == tree

    @pytest.mark.parametrize(
        "text",
        [
            "[]",
            '{"backbone":[]}',
            '{"backbone":["x"],"bundles":[[]]}',
            '{"backbone":["d"],"bundles":"no"}',
            '{"backbone":["d"],"bundles":[["d"]]}',
            "junk",
            pytest.param("[" * 100_000, id="deep-nesting"),
        ],
    )
    def test_bad_records(self, text):
        with pytest.raises(TreeRecordError):
            tree_from_json(text)

    def test_json_integer_past_the_digit_limit(self, int_digit_limit):
        with pytest.raises(TreeRecordError):
            tree_from_json('{"backbone": ' + "1" * 5000 + "}")

    @pytest.mark.parametrize(
        "text,message",
        [
            (
                '{"backbone":["s","x","y"],"bundles":[[]]}',
                """backbone: marks must be "s" or "d", got 'x'""",
            ),
            ('{"backbone":"sd","bundles":[]}', "backbone: expected a list of marks"),
            ('{"backbone":{"s":1},"bundles":[]}', "backbone: expected a list of marks"),
            (
                '{"backbone":["s","d"],"bundles":[[["d"]],[["d"],["d"],["s",[],"x"]]]}',
                'node 1, hanging path 2: marks must be "s" or "d", got []',
            ),
            (
                '{"backbone":["d"],"bundles":[[["d"],["s",null]]]}',
                'node 0, hanging path 1: marks must be "s" or "d", got None',
            ),
            (
                '{"backbone":["d"],"bundles":[[["d"],"d"]]}',
                "node 0, hanging path 1: expected a list of marks",
            ),
            # the first node's bad mark comes before the second's bad bundle
            (
                '{"backbone":["d"],"bundles":[[["x"]],"d"]}',
                """node 0, hanging path 0: marks must be "s" or "d", got 'x'""",
            ),
            ('{"backbone":["d"],"bundles":[[],"d"]}', "node 1: expected a list of hanging paths"),
        ],
    )
    def test_bad_records_name_the_first_fault(self, text, message):
        with pytest.raises(TreeRecordError) as info:
            tree_from_json(text)
        assert str(info.value) == message

    def test_outline(self):
        tree = path_to_tree(parse_path("U D1 U U D2"))
        assert render_outline(tree) == (
            "node 0 (root)\n"
            "  hang: d\n"
            "  spine s\n"
            "node 1\n"
            "  spine d\n"
            "node 2"
        )
        assert render_outline(MarkedTree()) == "node 0 (root)"

    def test_outline_shows_every_bundle_of_an_invalid_tree(self):
        lone = MarkedTree((), (((D,),),))
        assert validate_tree(lone) != []
        assert render_outline(lone) == "node 0 (root)\n  hang: d"
        # three bundles on one backbone edge: the last two hang at the
        # deepest node and at a node past it
        tree = MarkedTree((D,), (((S, D),), ((D,),), ((D,), (D,))))
        assert render_outline(tree) == (
            "node 0 (root)\n"
            "  hang: s d\n"
            "  spine d\n"
            "node 1\n"
            "  hang: d\n"
            "node 2\n"
            "  hang: d\n"
            "  hang: d"
        )


def _composition(draw, total, parts):
    """A composition of ``total`` into exactly ``parts`` positive parts."""
    cuts = sorted(draw(st.permutations(range(1, total)))[: parts - 1])
    return tuple(b - a for a, b in pairwise((0, *cuts, total)))


@st.composite
def decompositions(draw):
    """A decomposition of a path of 50 to 100 steps, and that length.

    The height, the home run and the mountains are drawn, and the
    mountains, read left to right, are cut into one bundle per level.
    """
    n = draw(st.integers(50, 100))
    height = draw(st.integers(1, n - 1))
    parts = draw(st.integers(1, min(height, n - height)))
    left = n - height - parts  # the steps the mountains take
    assume(left != 1)  # a mountain takes at least two
    homerun = _composition(draw, height, parts)
    run = []
    while left:
        size = draw(st.integers(2, left))
        if left - size == 1:
            size = left
        ups = draw(st.integers((size + 1) // 2, size - 1))
        run.append(Mountain(_composition(draw, ups, size - ups)))
        left -= size
    points = st.integers(0, len(run))
    cuts = sorted(draw(st.lists(points, min_size=height - 1, max_size=height - 1)))
    bundles = tuple(tuple(run[a:b]) for a, b in pairwise((0, *cuts, len(run))))
    return Decomposition(bundles, homerun), n


class TestRandomDecompositions:
    """The bijections at lengths 50 to 100, past the exhaustive tests."""

    @settings(max_examples=100, deadline=None)
    @given(decompositions())
    def test_bijections_invert(self, drawn):
        dec, n = drawn
        path = compose(dec)
        assert validate(path) is path and len(path.steps) == n
        assert is_nondecreasing(path)
        assert decompose(path) == dec
        tree = path_to_tree(path)
        assert tree_to_path(tree) == path
        assert tree_from_json(tree_to_json(tree)) == tree
        assert path_from_json(path_to_json(path)) == path
        stats = tree_statistics(tree)
        ups = sum(s is UP for s in path.steps)
        assert (stats.weight, stats.edge_count, stats.double_count) == (n, ups, n - ups)
        # the derived values read the same as the fields they come from
        assert all(m.ups == sum(m.descent) for bundle in dec.bundles for m in bundle)
        assert dec.height == len(dec.bundles) == sum(dec.homerun)
        assert stats.weight == stats.edge_count + stats.double_count


@pytest.mark.parametrize(
    "record,fields,derived",
    [
        (Mountain, ("descent",), "ups"),
        (Decomposition, ("bundles", "homerun"), "height"),
        (TreeStats, ("edge_count", "double_count"), "weight"),
    ],
)
def test_records_hold_only_what_they_cannot_derive(record, fields, derived):
    assert tuple(f.name for f in dataclasses.fields(record)) == fields
    prop = getattr(record, derived)
    assert isinstance(prop, property) and prop.fset is None
