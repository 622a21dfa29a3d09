"""The record codecs against per-token reference versions.

The references below are the plain loops the package once ran: one
regex match and one ``Down`` per token, one ``EdgeMark`` call per mark
read and one ``EdgeMark.value`` per mark written, and the shared JSON
encoder.  On the hostile text of ``test_records`` and on the random
decompositions of ``test_trees``, each codec must return what its
reference returns, with the very ``EdgeMark`` members, or raise the same
exception type with the same message.
"""

from __future__ import annotations

import json

from hypothesis import HealthCheck, given, settings, strategies as st
from test_records import json_text, token_text
from test_trees import decompositions

from deutschpaths import (
    DeutschPath,
    EdgeMark,
    MarkedTree,
    PathTokenError,
    TreeRecordError,
    compose,
    composition_to_marks,
    marks_to_composition,
    parse_path,
    path_from_json,
    path_to_json,
    path_to_tree,
    render_path,
    tree_from_json,
    tree_to_json,
)
from deutschpaths.paths import _composition, _parse_token
from deutschpaths.trees import DanglingSinglesError


def reference_parse_path(text: str) -> DeutschPath:
    return DeutschPath(tuple(_parse_token(t) for t in text.split()))


def reference_path_from_json(text: str) -> DeutschPath:
    try:
        record = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise PathTokenError(f"bad path record: {exc}") from None
    if not isinstance(record, dict) or set(record) != {"steps"}:
        raise PathTokenError('path record must be an object with a "steps" key')
    tokens = record["steps"]
    if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
        raise PathTokenError('"steps" must be a list of token strings')
    return DeutschPath(tuple(_parse_token(t) for t in tokens))


def reference_marks_from_record(raw: object, where: str) -> tuple[EdgeMark, ...]:
    if not isinstance(raw, list):
        raise TreeRecordError(f"{where}: expected a list of marks")
    marks = []
    for item in raw:
        if item not in ("s", "d"):
            raise TreeRecordError(f'{where}: marks must be "s" or "d", got {item!r}')
        marks.append(EdgeMark(item))
    return tuple(marks)


def reference_tree_from_json(text: str) -> MarkedTree:
    try:
        record = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise TreeRecordError(f"bad tree record: {exc}") from None
    if not isinstance(record, dict) or set(record) != {"backbone", "bundles"}:
        raise TreeRecordError('tree record must have exactly the keys "backbone" and "bundles"')
    backbone = reference_marks_from_record(record["backbone"], "backbone")
    raw_bundles = record["bundles"]
    if not isinstance(raw_bundles, list):
        raise TreeRecordError("bundles: expected a list per backbone node")
    bundles = []
    for node, raw_bundle in enumerate(raw_bundles):
        if not isinstance(raw_bundle, list):
            raise TreeRecordError(f"node {node}: expected a list of hanging paths")
        bundles.append(
            tuple(
                reference_marks_from_record(raw, f"node {node}, hanging path {slot}")
                for slot, raw in enumerate(raw_bundle)
            )
        )
    return MarkedTree(backbone, tuple(bundles))


def reference_tree_to_json(tree: MarkedTree) -> str:
    record = {
        "backbone": [m.value for m in tree.backbone],
        "bundles": [[[m.value for m in h] for h in bundle] for bundle in tree.bundles],
    }
    return json.JSONEncoder(separators=(",", ":")).encode(record)


def reference_composition_to_marks(parts: tuple[int, ...]) -> tuple[EdgeMark, ...]:
    _composition(parts, "composition")
    marks: list[EdgeMark] = []
    for part in parts:
        marks.extend([EdgeMark.SINGLE] * (part - 1))
        marks.append(EdgeMark.DOUBLE)
    return tuple(marks)


def reference_marks_to_composition(marks: tuple[EdgeMark, ...]) -> tuple[int, ...]:
    parts: list[int] = []
    run = 0
    for mark in marks:
        run += 1
        if mark is EdgeMark.DOUBLE:
            parts.append(run)
            run = 0
    if run:
        raise DanglingSinglesError("mark sequence must end with a double")
    return tuple(parts)


def _outcome(function, *args):
    try:
        return function(*args)
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)


def _marks_of(tree: MarkedTree) -> list[EdgeMark]:
    return [*tree.backbone, *(m for bundle in tree.bundles for h in bundle for m in h)]


def _same(function, reference, *args):
    got, expected = _outcome(function, *args), _outcome(reference, *args)
    assert got == expected
    if isinstance(got, MarkedTree):
        assert all(a is b for a, b in zip(_marks_of(got), _marks_of(expected), strict=True))
    elif isinstance(got, tuple) and got and isinstance(got[0], EdgeMark):
        assert all(a is b for a, b in zip(got, expected, strict=True))
    return got


fuzz = settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])


@fuzz
@given(text=token_text)
def test_parse_path_matches_the_reference(int_digit_limit, text):
    _same(parse_path, reference_parse_path, text)


@fuzz
@given(text=json_text)
def test_the_record_readers_match_the_references(int_digit_limit, text):
    _same(path_from_json, reference_path_from_json, text)
    _same(tree_from_json, reference_tree_from_json, text)


marks = st.lists(st.sampled_from([EdgeMark.SINGLE, EdgeMark.DOUBLE]), max_size=12).map(tuple)
parts = st.one_of(
    st.lists(st.integers(1, 6), max_size=8).map(tuple),
    st.lists(st.one_of(st.integers(-1, 3), st.booleans(), st.just(1.0)), max_size=4).map(tuple),
    st.lists(st.integers(1, 3), max_size=3),
)


@fuzz
@given(marks=marks, parts=parts)
def test_the_mark_codes_match_the_references(marks, parts):
    _same(marks_to_composition, reference_marks_to_composition, marks)
    _same(composition_to_marks, reference_composition_to_marks, parts)


@fuzz
@given(backbone=marks, bundles=st.lists(st.lists(marks, max_size=3).map(tuple), max_size=4))
def test_tree_to_json_matches_the_reference_on_any_tree(backbone, bundles):
    # trees that break the invariants are written all the same
    tree = MarkedTree(backbone, tuple(bundles))
    text = _same(tree_to_json, reference_tree_to_json, tree)
    assert _same(tree_from_json, reference_tree_from_json, text) == tree


@settings(max_examples=100, deadline=None)
@given(decompositions())
def test_the_codecs_match_the_references_on_long_paths(drawn):
    dec, _ = drawn
    path = compose(dec)
    assert _same(parse_path, reference_parse_path, render_path(path)) == path
    assert _same(path_from_json, reference_path_from_json, path_to_json(path)) == path
    tree = path_to_tree(path)
    text = _same(tree_to_json, reference_tree_to_json, tree)
    assert _same(tree_from_json, reference_tree_from_json, text) == tree
    pairs = [(dec.homerun, tree.backbone)] + [
        (mountain.descent, marks)
        for bundle, hanging in zip(dec.bundles, tree.bundles, strict=True)
        for mountain, marks in zip(bundle, hanging, strict=True)
    ]
    for parts, marks in pairs:
        assert _same(composition_to_marks, reference_composition_to_marks, parts) == marks
        assert _same(marks_to_composition, reference_marks_to_composition, marks) == parts
