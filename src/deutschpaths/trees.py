"""Marked trees encoding the weakly-increasing-valley paths.

A marked tree is a backbone of edges hanging from the root, each edge
marked single or double, plus bundles of marked hanging paths attached
at the backbone nodes.  Reading marks from the root down, a down-step of
size d becomes d-1 singles followed by one double, so the last mark of
the backbone and of every hanging path is always a double, and nothing
hangs at the deepest backbone node.

The weight of a tree counts every edge once and every double a second
time, which makes it equal to the length of the encoded path: edges
match up-steps and doubles match down-steps.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum

from .paths import (
    _RECORD_ENCODER, Decomposition, DeutschPath, Mountain, _composition, compose, decompose
)

__all__ = [
    "EdgeMark",
    "MarkedTree",
    "TreeStats",
    "DanglingSinglesError",
    "TreeInvariantError",
    "TreeRecordError",
    "composition_to_marks",
    "marks_to_composition",
    "path_to_tree",
    "tree_to_path",
    "tree_statistics",
    "validate_tree",
    "tree_to_json",
    "tree_from_json",
    "render_outline",
]


class DanglingSinglesError(ValueError):
    """Raised for a mark sequence that does not finish with a double."""


class TreeInvariantError(ValueError):
    """Raised when a tree violates its structural invariants."""

    def __init__(self, problems: list[str]):
        super().__init__("; ".join(problems))
        self.problems = tuple(problems)


class TreeRecordError(ValueError):
    """Raised for a malformed JSON tree record."""


class EdgeMark(Enum):
    """The mark on a tree edge: a single, or a double that weighs two."""

    SINGLE = "s"
    DOUBLE = "d"


def _check_marks(marks: tuple[EdgeMark, ...], where: str) -> None:
    # a stray "d" would pass for a single everywhere but the writers
    for mark in marks:
        if type(mark) is not EdgeMark:
            raise ValueError(f"{where} marks must be EdgeMarks, got {mark!r}")


@dataclass(frozen=True, slots=True)
class MarkedTree:
    """Backbone marks plus one bundle of hanging paths per backbone node.

    ``backbone[i]`` marks the edge from backbone node i to node i+1 and
    ``bundles[i]`` holds the hanging paths attached at node i, each a
    nonempty mark sequence.  The constructor checks only that every
    field is held in tuples, so that a tree hashes, and that every mark
    is an :class:`EdgeMark`; validity is checked by
    :func:`validate_tree`, so invalid trees can be built and inspected.
    """

    backbone: tuple[EdgeMark, ...] = ()
    bundles: tuple[tuple[tuple[EdgeMark, ...], ...], ...] = ()

    def __post_init__(self) -> None:
        if type(self.backbone) is not tuple:
            raise ValueError("backbone must be a tuple")
        _check_marks(self.backbone, "backbone")
        if type(self.bundles) is not tuple:
            raise ValueError("bundles and their hanging paths must be tuples")
        for bundle in self.bundles:
            if type(bundle) is not tuple:
                raise ValueError("bundles and their hanging paths must be tuples")
            for hanging in bundle:
                if type(hanging) is not tuple:
                    raise ValueError("bundles and their hanging paths must be tuples")
                _check_marks(hanging, "hanging path")


@dataclass(frozen=True, slots=True)
class TreeStats:
    """A tree's edge and double counts; its ``weight`` is their sum."""

    edge_count: int
    double_count: int

    @property
    def weight(self) -> int:
        return self.edge_count + self.double_count


def composition_to_marks(parts: tuple[int, ...]) -> tuple[EdgeMark, ...]:
    """Turn a composition into marks, one part at a time.

    A part d contributes d-1 singles followed by one double, read from
    the attachment node downward.  The empty composition gives the empty
    sequence.
    """
    _composition(parts, "composition")
    marks: list[EdgeMark] = []
    for part in parts:
        marks.extend([EdgeMark.SINGLE] * (part - 1))
        marks.append(EdgeMark.DOUBLE)
    return tuple(marks)


def marks_to_composition(marks: tuple[EdgeMark, ...]) -> tuple[int, ...]:
    """Inverse of :func:`composition_to_marks`.

    Splits after every double; a trailing run of singles has no closing
    double and raises :class:`DanglingSinglesError`.
    """
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


def validate_tree(tree: MarkedTree) -> list[str]:
    """Collect every violated invariant, with its location; [] means valid."""
    problems: list[str] = []
    if len(tree.bundles) != len(tree.backbone):
        problems.append(
            f"expected {len(tree.backbone)} bundles, one per backbone node "
            f"above the deepest, got {len(tree.bundles)}"
        )
    if tree.backbone and tree.backbone[-1] is not EdgeMark.DOUBLE:
        problems.append("backbone: last mark must be a double")
    for node, bundle in enumerate(tree.bundles):
        for slot, hanging in enumerate(bundle):
            if not hanging:
                problems.append(f"node {node}, hanging path {slot}: must be nonempty")
            elif hanging[-1] is not EdgeMark.DOUBLE:
                problems.append(f"node {node}, hanging path {slot}: last mark must be a double")
    return problems


def path_to_tree(path: DeutschPath) -> MarkedTree:
    """Encode a validated weakly-increasing-valley path as a marked tree.

    The home run becomes the backbone and each mountain becomes a
    hanging path at the backbone node matching its base level.
    """
    dec = decompose(path)
    backbone = composition_to_marks(dec.homerun)
    bundles = tuple(
        tuple(composition_to_marks(m.descent) for m in bundle)
        for bundle in dec.bundles
    )
    return MarkedTree(backbone, bundles)


def tree_to_path(tree: MarkedTree) -> DeutschPath:
    """Decode a marked tree; inverse of :func:`path_to_tree`.

    Invariant violations are reported before any conversion happens.
    """
    problems = validate_tree(tree)
    if problems:
        raise TreeInvariantError(problems)
    homerun = marks_to_composition(tree.backbone)
    bundles = tuple(
        tuple(Mountain(marks_to_composition(h)) for h in bundle) for bundle in tree.bundles
    )
    return compose(Decomposition(bundles, homerun))


def tree_statistics(tree: MarkedTree) -> TreeStats:
    """Count edges and doubles; weight counts doubles twice."""
    runs = (tree.backbone, *(run for bundle in tree.bundles for run in bundle))
    edges = sum(map(len, runs))
    doubles = sum(run.count(EdgeMark.DOUBLE) for run in runs)
    return TreeStats(edge_count=edges, double_count=doubles)


def tree_to_json(tree: MarkedTree) -> str:
    """Serialise as ``{"backbone": [...], "bundles": [[[...], ...], ...]}``.

    Marks appear as the lowercase letters "s" and "d".  The output is
    compact and deterministic.
    """
    record = {
        "backbone": [m.value for m in tree.backbone],
        "bundles": [[[m.value for m in h] for h in bundle] for bundle in tree.bundles],
    }
    return _RECORD_ENCODER.encode(record)


def _marks_from_record(raw: object, where: str) -> tuple[EdgeMark, ...]:
    if not isinstance(raw, list):
        raise TreeRecordError(f"{where}: expected a list of marks")
    marks = []
    for item in raw:
        if item not in ("s", "d"):
            raise TreeRecordError(f'{where}: marks must be "s" or "d", got {item!r}')
        marks.append(EdgeMark(item))
    return tuple(marks)


def tree_from_json(text: str) -> MarkedTree:
    """Inverse of :func:`tree_to_json`; checks shape, not tree invariants."""
    try:
        record = json.loads(text)
    # JSONDecodeError is a ValueError, as is an integer past the digit limit
    except (ValueError, RecursionError) as exc:
        raise TreeRecordError(f"bad tree record: {exc}") from None
    if not isinstance(record, dict) or set(record) != {"backbone", "bundles"}:
        raise TreeRecordError('tree record must have exactly the keys "backbone" and "bundles"')
    backbone = _marks_from_record(record["backbone"], "backbone")
    raw_bundles = record["bundles"]
    if not isinstance(raw_bundles, list):
        raise TreeRecordError("bundles: expected a list per backbone node")
    bundles = []
    for node, raw_bundle in enumerate(raw_bundles):
        if not isinstance(raw_bundle, list):
            raise TreeRecordError(f"node {node}: expected a list of hanging paths")
        bundles.append(
            tuple(
                _marks_from_record(raw, f"node {node}, hanging path {slot}")
                for slot, raw in enumerate(raw_bundle)
            )
        )
    return MarkedTree(backbone, tuple(bundles))


def render_outline(tree: MarkedTree) -> str:
    """Plain-text outline, one line per node, hanging path and spine edge."""
    lines = ["node 0 (root)"]
    for node, mark in enumerate(tree.backbone):
        for hanging in tree.bundles[node] if node < len(tree.bundles) else ():
            lines.append("  hang: " + " ".join(m.value for m in hanging))
        lines.append(f"  spine {mark.value}")
        lines.append(f"node {node + 1}")
    return "\n".join(lines)
