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
    DeutschPath,
    _composition,
    _decomposition,
    _mountain,
    _tuple_of,
    compose,
    decompose,
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

    # each member is the one object of its mark (copy, deepcopy and pickle
    # return it), so the identity hash of a C slot serves, where Enum's
    # hashes the name in a Python-level method
    __hash__ = object.__hash__


@dataclass(frozen=True, slots=True)
class MarkedTree:
    """Backbone marks plus one bundle of hanging paths per backbone node.

    ``backbone[i]`` marks the edge from backbone node i to node i+1 and
    ``bundles[i]`` holds the hanging paths attached at node i, each a
    nonempty mark sequence.  The constructor checks only the shape, so
    that a tree hashes: tuples all through and :class:`EdgeMark` marks,
    or a ``ValueError`` names the level.  Validity is checked by
    :func:`validate_tree`, so invalid trees can be built and inspected.
    """

    backbone: tuple[EdgeMark, ...] = ()
    bundles: tuple[tuple[tuple[EdgeMark, ...], ...], ...] = ()

    def __post_init__(self) -> None:
        # a stray "d" would pass for a single everywhere but the writers
        _tuple_of(self.backbone, "backbone", EdgeMark)
        for bundle in _tuple_of(self.bundles, "bundles", tuple):
            for hanging in _tuple_of(bundle, "bundle", tuple):
                _tuple_of(hanging, "hanging path", EdgeMark)


def _tree(
    backbone: tuple[EdgeMark, ...], bundles: tuple[tuple[tuple[EdgeMark, ...], ...], ...]
) -> MarkedTree:
    # a tree of marks the package has just written, which skips the
    # constructor's shape check, as paths._mountain does
    tree = object.__new__(MarkedTree)
    MarkedTree.backbone.__set__(tree, backbone)
    MarkedTree.bundles.__set__(tree, bundles)
    return tree


@dataclass(frozen=True, slots=True)
class TreeStats:
    """A tree's edge and double counts; its ``weight`` is their sum."""

    edge_count: int
    double_count: int

    @property
    def weight(self) -> int:
        return self.edge_count + self.double_count


# one-mark tuples: a part's run is then two in-place additions, no call
_SINGLE, _DOUBLE = (EdgeMark.SINGLE,), (EdgeMark.DOUBLE,)


def composition_to_marks(parts: tuple[int, ...]) -> tuple[EdgeMark, ...]:
    """Turn a composition into marks, one part at a time.

    A part d contributes d-1 singles followed by one double, read from
    the attachment node downward.  The empty composition gives the empty
    sequence.
    """
    _composition(parts, "composition")
    return _marks(parts)


def _marks(parts: tuple[int, ...]) -> tuple[EdgeMark, ...]:
    # the writer behind composition_to_marks, for parts already checked
    marks: list[EdgeMark] = []
    for part in parts:
        marks += _SINGLE * (part - 1)
        marks += _DOUBLE
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
    bundles = tuple([tuple([_marks(m.descent) for m in b]) for b in dec.bundles])
    return _tree(_marks(dec.homerun), bundles)


def tree_to_path(tree: MarkedTree) -> DeutschPath:
    """Decode a marked tree; inverse of :func:`path_to_tree`.

    Invariant violations are reported before any conversion happens.
    """
    problems = validate_tree(tree)
    if problems:
        raise TreeInvariantError(problems)
    # a valid tree's hanging paths are nonempty and close with a double,
    # so each reads as a nonempty composition, and its backbone, one mark
    # per bundle, as a home run that totals the height
    homerun = marks_to_composition(tree.backbone)
    bundles = tuple([tuple([_mountain(marks_to_composition(h)) for h in b]) for b in tree.bundles])
    return compose(_decomposition(bundles, homerun))


def tree_statistics(tree: MarkedTree) -> TreeStats:
    """Count edges and doubles; weight counts doubles twice."""
    runs = (tree.backbone, *(run for bundle in tree.bundles for run in bundle))
    edges = sum(map(len, runs))
    doubles = sum(run.count(EdgeMark.DOUBLE) for run in runs)
    return TreeStats(edge_count=edges, double_count=doubles)


def _marks_json(marks: tuple[EdgeMark, ...]) -> str:
    # each mark is told by identity and calls nothing, as an Enum's value
    # is a Python-level property
    double = EdgeMark.DOUBLE
    return "[" + ",".join(['"d"' if mark is double else '"s"' for mark in marks]) + "]"


def tree_to_json(tree: MarkedTree) -> str:
    """Serialise as ``{"backbone": [...], "bundles": [[[...], ...], ...]}``.

    Marks appear as the lowercase letters "s" and "d".  The bytes are
    those of ``json.dumps`` with ``(",", ":")`` separators, written here
    directly as :func:`~deutschpaths.paths.path_to_json` writes its own:
    no mark needs escaping, and an encoder call would build a new C
    encoder each time.
    """
    bundles = ["[" + ",".join(map(_marks_json, bundle)) + "]" for bundle in tree.bundles]
    return '{"backbone":' + _marks_json(tree.backbone) + ',"bundles":[' + ",".join(bundles) + "]}"


# the marks by their letters, for the reader; str keys hash in C
_MARK_OF = {"s": EdgeMark.SINGLE, "d": EdgeMark.DOUBLE}


def _marks_from_record(raw: object, *where: int) -> tuple[EdgeMark, ...]:
    # `where` is the node and slot of a hanging path, or nothing for the
    # backbone; the place is spelled out only for an error
    if isinstance(raw, list):
        try:
            return tuple(map(_MARK_OF.__getitem__, raw))
        except (KeyError, TypeError):  # an item other than s or d; a list does not hash
            bad = next(item for item in raw if item not in ("s", "d"))
            problem = f'marks must be "s" or "d", got {bad!r}'
    else:
        problem = "expected a list of marks"
    place = "node {}, hanging path {}".format(*where) if where else "backbone"
    raise TreeRecordError(f"{place}: {problem}")


def tree_from_json(text: str) -> MarkedTree:
    """Inverse of :func:`tree_to_json`; checks shape, not tree invariants."""
    try:
        record = json.loads(text)
    # JSONDecodeError is a ValueError, as is an integer past the digit limit
    except (ValueError, RecursionError) as exc:
        raise TreeRecordError(f"bad tree record: {exc}") from None
    if not isinstance(record, dict) or set(record) != {"backbone", "bundles"}:
        raise TreeRecordError('tree record must have exactly the keys "backbone" and "bundles"')
    backbone = _marks_from_record(record["backbone"])
    raw_bundles = record["bundles"]
    if not isinstance(raw_bundles, list):
        raise TreeRecordError("bundles: expected a list per backbone node")
    bundles = []
    for node, raw_bundle in enumerate(raw_bundles):
        if not isinstance(raw_bundle, list):
            raise TreeRecordError(f"node {node}: expected a list of hanging paths")
        bundles.append(
            tuple([_marks_from_record(raw, node, slot) for slot, raw in enumerate(raw_bundle)])
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
