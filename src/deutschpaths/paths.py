"""Lattice paths with unit up-steps and down-steps of arbitrary size.

A Deutsch path moves by (1, +1) or by (1, -j) for any integer j >= 1.  A
validated path starts at level 0, never dips below 0, and ends back at
level 0.  A valley is a lattice point reached by a down-step and left by
an up-step.  The paths whose valley levels never decrease from left to
right are the main subject of this package: they split uniquely into
bundles of mountains hung on a rising staircase, finished by one final
descent (the home run), and that split is what :func:`decompose` and
:func:`compose` convert between.

Enumeration is streaming and deterministic.  The canonical order is
lexicographic on token sequences with U before D1 before D2 and so on,
so the all-up prefix comes first.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, groupby, pairwise, product
from operator import attrgetter
from typing import Iterable, Iterator

from .numbers import _size

__all__ = [
    "PathTokenError",
    "NegativeExcursionError",
    "NonzeroEndError",
    "NotNonDecreasingError",
    "Up",
    "Down",
    "UP",
    "Step",
    "DeutschPath",
    "Mountain",
    "Decomposition",
    "parse_path",
    "render_path",
    "path_to_json",
    "path_from_json",
    "validate",
    "heights",
    "valley_levels",
    "is_nondecreasing",
    "as_mountain",
    "enumerate_deutsch",
    "enumerate_nondecreasing_filter",
    "enumerate_nondecreasing_direct",
    "iter_decompositions",
    "decompose",
    "compose",
]


class PathTokenError(ValueError):
    """Raised for a step token that is neither "U" nor "D<k>" with k >= 1."""


class NegativeExcursionError(ValueError):
    """Raised when a path dips below ground level."""

    def __init__(self, position: int, height: int):
        super().__init__(f"path reaches level {height} after step {position}")
        self.position = position
        self.height = height


class NonzeroEndError(ValueError):
    """Raised when a path does not return to ground level."""

    def __init__(self, final_height: int):
        super().__init__(f"path ends at level {final_height}, expected 0")
        self.final_height = final_height


class NotNonDecreasingError(ValueError):
    """Raised when valley levels decrease somewhere along a path."""


@dataclass(frozen=True, slots=True)
class Up:
    """Unit rise.

    There is one up-step, :data:`UP`: ``Up()`` returns it, and so do
    ``copy``, ``deepcopy``, ``pickle`` and ``dataclasses.replace``.  The
    package therefore tells steps apart by identity, ``step is UP``.
    """

    def __new__(cls) -> Up:
        return UP


@dataclass(frozen=True, slots=True)
class Down:
    """Fall of ``size`` levels in a single step.

    ``token`` is the step's text, ``"D<size>"``, formatted once when the
    step is built so that rendering formats nothing.  A size past
    Python's int-to-str digit limit (4,300 digits by default since
    3.10.7) therefore raises ``ValueError`` here, not when the path
    is rendered.  No command meets that: ``cli.main`` lifts the limit
    before a handler parses a path.
    """

    size: int
    token: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _size(self.size, "down-step size", 1)
        object.__setattr__(self, "token", f"D{self.size}")


Step = Up | Down

UP = object.__new__(Up)


# One step per size, shared by the walk and compose.  Bounded, as compose
# decodes trees of any size: the walk's tables hold their own steps, so a
# miss only builds a step again.
@lru_cache(maxsize=4096)
def _down(size: int) -> Down:
    return Down(size)


class _Walked:
    # the walk's shared prefix, out of the dataclass fields that views of
    # a path see: the steps but the last two, one object for the paths
    # enumerate_deutsch finishes from them, which the judge and the stream
    # writer tell by identity; None on any other path, taken whole
    __slots__ = ("_prefix",)


@dataclass(frozen=True, slots=True)
class DeutschPath(_Walked):
    """Immutable step sequence, not necessarily validated."""

    steps: tuple[Step, ...] = ()

    def __post_init__(self) -> None:
        # a tuple, so that a path hashes and equals its twin; the steps
        # themselves go unchecked, a pass over every parsed or composed path
        _tuple_of(self.steps, "steps")
        object.__setattr__(self, "_prefix", None)

    def sort_key(self) -> tuple[int, ...]:
        """Key realising the canonical order: U < D1 < D2 < ... is falling rise."""
        return tuple(-1 if s is UP else s.size for s in self.steps)


def _set_state(path: DeutschPath, state: list) -> None:
    # copies and pickles, of earlier versions too, hold the steps alone
    # and carry no prefix; assigned below, as Python 3.10's dataclass
    # replaces a __setstate__ written in the class body
    (steps,) = state
    object.__setattr__(path, "steps", steps)
    object.__setattr__(path, "_prefix", None)


DeutschPath.__setstate__ = _set_state


_DOWN_TOKEN = re.compile(r"D([1-9][0-9]*)\Z")


def _parse_token(token: str) -> Step:
    if token == "U":
        return UP
    match = _DOWN_TOKEN.fullmatch(token)
    if match is None:
        raise PathTokenError(f"bad step token {token!r}")
    try:
        size = int(match.group(1))
    except ValueError as exc:  # more digits than Python turns into an int
        raise PathTokenError(f"bad step token: {exc}") from None
    return Down(size)


def _steps_of(tokens: list[str]) -> tuple[Step, ...]:
    # each distinct token is parsed once, in order of first appearance, so
    # the first bad token is the one named, and its step is shared by all
    # its copies; the table lives for the call, as a path's sizes are
    # unbounded and would churn the bounded `_down` table for no reuse
    steps = {token: _parse_token(token) for token in dict.fromkeys(tokens)}
    return tuple(map(steps.__getitem__, tokens))


def parse_path(text: str) -> DeutschPath:
    """Parse whitespace separated step tokens into a path.

    Each token is "U" or "D<k>" with k a positive decimal integer
    carrying no leading zeros, so "D0", "D01" and "d1" are all
    rejected, and the first bad token is the one named.  The empty
    string parses to the empty path.  No ground rule is checked here;
    use :func:`validate` for that.  Each distinct token is parsed once
    per call, and its copies share one step.

    >>> parse_path("U D1 U U D2").steps[1]
    Down(size=1)
    """
    return DeutschPath(_steps_of(text.split()))


# The two ways a path is written, each as (opening, separator, closing,
# empty): a nonempty path is its opening, its tokens joined by the
# separator, and its closing; the empty path is `empty`.  The JSON is
# that of json.dumps with (",", ":") separators, written directly: every
# token is U or D and digits, so none needs escaping, and a call of
# JSONEncoder.encode builds a new C encoder each time, which costs more
# than the whole record.
_TEXT = ("", " ", "", "")
_JSON = ('{"steps":["', '","', '"]}', '{"steps":[]}')


def _written(steps: tuple[Step, ...], form: tuple[str, str, str, str]) -> str:
    # one comprehension, no call or formatting per step: each Down
    # carries its token
    opening, separator, closing, empty = form
    if not steps:
        return empty
    return opening + separator.join(["U" if s is UP else s.token for s in steps]) + closing


def render_path(path: DeutschPath) -> str:
    """Render a path as single-space separated tokens."""
    return _written(path.steps, _TEXT)


def path_to_json(path: DeutschPath) -> str:
    """Serialise a path as ``{"steps":["U","D1",...]}``, the bytes of
    ``json.dumps`` with ``(",", ":")`` separators."""
    return _written(path.steps, _JSON)


def _lines(stream: Iterable[DeutschPath], form: tuple[str, str, str, str]) -> Iterator[str]:
    # each path written as `_written` writes it, lazily.  A walked path
    # carries its shared prefix: the text of that prefix is kept while
    # the next paths carry the same object, as a walk's successive paths
    # do, and only their last two steps are written.  The kept prefix is
    # held, so no other object can take its identity.  A path without a
    # prefix is written whole, so any stream is written right; only the
    # speed depends on where it came from.
    opening, separator, closing, _ = form
    head_form = (opening, separator, separator, opening)  # ends in a separator
    kept: tuple[Step, ...] | None = None
    for path in stream:
        prefix = path._prefix
        if prefix is None:
            yield _written(path.steps, form)
            continue
        if prefix is not kept:
            kept = prefix
            head = _written(prefix, head_form)
        a, b = path.steps[-2:]
        a_token, b_token = "U" if a is UP else a.token, "U" if b is UP else b.token
        yield f"{head}{a_token}{separator}{b_token}{closing}"  # one copy of the head


def path_from_json(text: str) -> DeutschPath:
    """Inverse of :func:`path_to_json`; rejects malformed records."""
    try:
        record = json.loads(text)
    # JSONDecodeError is a ValueError, as is an integer past the digit limit
    except (ValueError, RecursionError) as exc:
        raise PathTokenError(f"bad path record: {exc}") from None
    if not isinstance(record, dict) or set(record) != {"steps"}:
        raise PathTokenError('path record must be an object with a "steps" key')
    tokens = record["steps"]
    # json.loads builds exact strs, so a type test is the isinstance test
    if not isinstance(tokens, list) or not {str}.issuperset(map(type, tokens)):
        raise PathTokenError('"steps" must be a list of token strings')
    return DeutschPath(_steps_of(tokens))


def validate(path: DeutschPath) -> DeutschPath:
    """Check the ground rules on :func:`is_nondecreasing`'s walk, which
    builds nothing, and return the path unchanged.  The empty path is valid."""
    is_nondecreasing(path)
    return path


def heights(path: DeutschPath) -> tuple[int, ...]:
    """Level after each step; no validation is performed."""
    out = []
    height = 0
    for step in path.steps:
        height += 1 if step is UP else -step.size
        out.append(height)
    return tuple(out)


def _below_ground(path: DeutschPath) -> NegativeExcursionError:
    # the error for a walk that fell below the ground; the walk counts no
    # positions and finds the fall where its down-run ends, so the first
    # step below the ground, and its level, are found again
    position, height = next((i, h) for i, h in enumerate(heights(path), start=1) if h < 0)
    return NegativeExcursionError(position, height)


def valley_levels(path: DeutschPath) -> tuple[int, ...]:
    """Levels of the valleys of a path, left to right, read off
    :func:`heights` once :func:`validate` has checked the ground rules.

    A valley is an interior lattice point entered by a down-step and
    left by an up-step.  Endpoints never count.  Raises what
    :func:`is_nondecreasing` raises: :class:`NegativeExcursionError` at
    the first step (1-based) that drops below level 0 and
    :class:`NonzeroEndError` when the walk ends off the ground.
    """
    steps = validate(path).steps
    return tuple(
        height
        for height, before, after in zip(heights(path), steps, steps[1:])
        if before is not UP and after is UP
    )


# The last walked prefix judged, and the walk's state after it:
# (prefix, height, fell, level, rising).  One tuple, replaced whole and
# never mutated, so a judge in another thread reads one entry or the
# other, which changes only the speed.  The entry holds its prefix, so
# no other object can take its identity while it is remembered.  A
# prefix whose walk breaks off is not stored; one that ends below the
# ground may be, and every path resumed from it falls below the ground
# too.
_walked: tuple = ((), 0, False, 0, True)


def is_nondecreasing(path: DeutschPath) -> bool:
    """True when the valley levels weakly increase left to right.

    The ground rules are checked on the same walk, which keeps only the
    height and the last valley's level and builds nothing: a path whose
    valleys dip is still walked to its end.  It is the package's one
    ground-rule walk, so :func:`validate`, :func:`valley_levels` and
    :func:`as_mountain` raise what it raises.

    One prefix is remembered, with the walk's state after it: the
    shared prefix of the last path of :func:`enumerate_deutsch` judged,
    its steps but the last two.  A path that carries that very object,
    as the walk's successive paths do, resumes from the state and walks
    only its last two steps; one that carries another prefix walks it
    once and remembers it.  Identity alone is tested, whatever the
    length, and any other path is walked whole.  The verdict and every
    error are those of a walk over all the steps, whatever was judged
    before, in this thread or another: the entry is one tuple, replaced
    whole.
    """
    global _walked
    steps = path.steps
    head = path._prefix
    # the walk's state: the height, whether the step before was a
    # down-step, the last valley's level (none lies below the ground)
    # and the verdict so far; the entry is read once, as another thread
    # may replace it.  `steps` is the part left to walk: the tail alone
    # when the head is the one remembered, else a walked path's head,
    # then its tail, or a path without a head whole.  `head` is kept
    # while it is to be stored.
    remembered, height, fell, level, rising = _walked
    if remembered is head:
        steps, head = steps[-2:], None
    else:
        height, fell, level, rising = 0, False, 0, True
        if head is not None:
            steps = head
    # A fall below the ground is met where its down-run ends: at the
    # valley it makes, which then lies below the last one (`level` never
    # does), or at the end of the walk.  So down-steps test nothing, and
    # a walk that fell leaves the loop by `break`.
    while True:
        for step in steps:
            if step is UP:
                if fell:
                    if height < level:
                        if height < 0:
                            break
                        rising = False
                    level = height
                    fell = False
                height += 1
            else:
                height -= step.size
                fell = True
        else:
            if head is not None:
                _walked = (head, height, fell, level, rising)
                steps, head = path.steps[-2:], None
                continue
            if height == 0:
                return rising
            if height > 0:
                raise NonzeroEndError(height)
        raise _below_ground(path)


def _tuple_of(value: tuple, what: str, kind: type | None = None) -> tuple:
    # the records' one shape rule: exactly a tuple, so that a record hashes,
    # and if `kind` is given, items exactly of that type.  Messages name
    # types, as a field's repr can be huge; a plain loop, run per bundle
    if type(value) is not tuple:
        raise ValueError(f"{what} must be a tuple, got {type(value).__name__}")
    if kind is not None:
        for item in value:
            if type(item) is not kind:
                got = type(item).__name__
                raise ValueError(f"{what} must hold only {kind.__name__}s, got {got}")
    return value


def _composition(parts: tuple[int, ...], what: str) -> int:
    # the total of parts that are each exactly an int >= 1; one call and
    # one plain loop per record, as a generator per part costs more
    for part in _tuple_of(parts, what):
        if type(part) is not int or part < 1:
            raise ValueError(f"{what} parts must be ints >= 1, got {part!r}")
    return sum(parts)


@dataclass(frozen=True, slots=True)
class Mountain:
    """A rise of unit up-steps followed only by the down-steps ``descent``.

    The descent is a nonempty composition, and the rise, ``ups``, is its
    total, so a mountain returns to its base level and stays strictly
    above it in between.  Its length is ``ups + len(descent)``.
    """

    descent: tuple[int, ...]

    def __post_init__(self) -> None:
        if not _composition(self.descent, "descent"):
            raise ValueError("descent must be nonempty")

    @property
    def ups(self) -> int:
        return sum(self.descent)


def as_mountain(path: DeutschPath) -> Mountain | None:
    """Return the mountain a path traces, or None, once :func:`validate`
    has checked the ground rules.

    A path is a mountain when it consists of one up-run followed by one
    down-run and nothing else, that is when it is nonempty and has no
    valley.  The empty path is not a mountain.
    """
    steps = validate(path).steps
    rises = [s is UP for s in steps]
    ups = rises.count(True)
    # a down-step among the first ``ups`` steps is followed by an up-step
    if not steps or False in rises[:ups]:
        return None
    return Mountain(tuple(s.size for s in steps[ups:]))


@dataclass(frozen=True, slots=True)
class Decomposition:
    """Canonical split of a path whose valley levels never decrease.

    ``bundles[i]`` lists the mountains based at level ``i`` in walking
    order, one entry per level 0 .. height-1, so the ``height`` is the
    number of bundles.  After the mountains at level ``i`` the path
    climbs one backbone up-step, and after the last backbone step it
    takes the home run, a final descent recorded as a composition of
    the height.  No bundles and no home run encode the empty path.
    """

    bundles: tuple[tuple[Mountain, ...], ...]
    homerun: tuple[int, ...]

    def __post_init__(self) -> None:
        # tuples all through, so that a decomposition hashes
        for bundle in _tuple_of(self.bundles, "bundles", tuple):
            _tuple_of(bundle, "bundle", Mountain)
        if _composition(self.homerun, "home run") != len(self.bundles):
            raise ValueError("home run must be a composition of the height")

    @property
    def height(self) -> int:
        return len(self.bundles)


_step_size = attrgetter("size")


def decompose(path: DeutschPath) -> Decomposition:
    """Split a validated path with weakly increasing valleys.

    The home run is the final maximal run of down-steps; its total fall
    is the height.  Every other down-run closes a mountain based at the
    valley it lands on, and the up-steps that strictly raise the running
    valley level form the backbone.  Raises
    :class:`NotNonDecreasingError` when the valley levels dip.

    >>> decompose(parse_path("U U D2 U D1"))
    Decomposition(bundles=((Mountain(descent=(2,)),),), homerun=(1,))
    """
    validate(path)
    # alternating up- and down-runs; the last down-run is the home run
    runs = [tuple(run) for _, run in groupby(path.steps, type)]
    homerun = tuple(map(_step_size, runs[-1])) if runs else ()
    height = sum(homerun)
    bundles: list[list[Mountain]] = [[] for _ in range(height)]
    level = 0  # the valley before, or the ground
    for ups, downs in zip(runs[:-2:2], runs[1:-2:2]):
        descent = tuple(map(_step_size, downs))
        fall = sum(descent)
        base = level + len(ups) - fall
        # valleys that never dip all lie below the height
        if not level <= base < height:
            raise NotNonDecreasingError(f"valley levels decrease in {render_path(path)!r}")
        bundles[base].append(Mountain(descent))
        level = base
    return Decomposition(tuple(map(tuple, bundles)), homerun)


def compose(dec: Decomposition) -> DeutschPath:
    """Rebuild the path of a decomposition; inverse of :func:`decompose`.

    Walks each level in turn, emitting its mountains and then one
    backbone up-step, and finishes with the home run.
    """
    steps: list[Step] = []
    for bundle in dec.bundles:
        for mountain in bundle:
            steps += [UP] * mountain.ups
            steps += map(_down, mountain.descent)
        steps.append(UP)
    steps += map(_down, dec.homerun)
    return validate(DeutschPath(tuple(steps)))


def _endings(height: int, endings_at: dict[int, list]) -> Iterator[tuple[Step, Step]]:
    # the two last steps home from a level, in canonical order: a rise
    # and the fall home, then each fall that keeps above the ground.  The
    # first next() files the level's list in ``endings_at``, and each
    # ending goes into it as it is yielded, for the level's later prefixes
    endings_at[height] = listed = [(UP, _down(height + 1))]
    yield listed[0]
    for size in range(1, height):
        listed.append((_down(size), _down(height - size)))
        yield listed[-1]


def _last_steps(height: int, steps_at: dict[int, list]) -> Iterator[tuple[Step, int]]:
    # a prefix's last step from a level, in canonical order, with the
    # level it reaches: a rise, then each fall that lands on or above the
    # ground; filed and listed as `_endings` files and lists
    steps_at[height] = listed = [(UP, height + 1)]
    yield listed[0]
    for size in range(1, height + 1):
        listed.append((_down(size), height - size))
        yield listed[-1]


def enumerate_deutsch(n: int) -> Iterator[DeutschPath]:
    """Yield every validated path of length ``n`` once, in canonical order.

    The stream is lexicographic on tokens with U < D1 < D2 < ..., so it
    opens with the all-up prefix.  Generation is lazy: the walk keeps
    only its current steps and the last steps and two-step endings of
    the levels it has met.

    Each path of three steps or more carries its prefix, its steps but
    the last two, as one object shared with the other paths that
    finish it, so that :func:`is_nondecreasing` and the stream writer
    behind ``list`` meet each prefix once.  A path kept therefore keeps
    its prefix alive: a list of the 97,513 non-decreasing paths of
    length 16 holds 26.0 MiB, where paths without their prefixes would
    hold 20.1 MiB (tracemalloc, Python 3.11).
    """
    _size(n, "n")

    def walk() -> Iterator[DeutschPath]:
        # each path skips DeutschPath's generated __init__, which checks
        # nothing: object.__new__ and the slot setters are C calls, and a
        # helper around them would cost as much as the __init__ it skips
        new, set_steps = object.__new__, DeutschPath.steps.__set__
        set_prefix = _Walked._prefix.__set__
        # the lexicographic successor of the first n - 3 steps, the stem,
        # in a loop: no frame per step to run out of.  A stem on or above
        # the ground takes each last step of its level, and the prefix
        # that makes finishes by the endings of its level.  Each level's
        # last steps and endings are listed once, as the first stem or
        # prefix there yields them, by a table that files its list on its
        # first step; a filed list is never empty, and is reused.  They live
        # in this walk: a list shared across walks would be left half built
        # by a walk abandoned inside it.
        last = n - 3
        steps_at: dict[int, list[tuple[Step, int]]] = {}  # by level, as are the endings
        endings_at: dict[int, list[tuple[Step, Step]]] = {}
        steps: list[Step] = []
        height = 0  # level after the steps kept
        while True:
            # the least completion climbs
            left = last - len(steps)
            if left:
                steps += [UP] * left
                height += left
            for step, level in steps_at.get(height) or _last_steps(height, steps_at):
                steps.append(step)
                prefix = tuple(steps)
                steps.pop()
                for ending in endings_at.get(level) or _endings(level, endings_at):
                    path = new(DeutschPath)
                    set_steps(path, prefix + ending)
                    set_prefix(path, prefix)
                    yield path
            # the last step that can fall one level further and still
            # land on or above the ground
            while steps:
                step = steps.pop()
                # the level before it, and the fall one level further
                if step is UP:
                    height -= 1
                    size = 1
                else:
                    size = step.size
                    height += size
                    size += 1
                if height >= size:
                    break
            else:
                return
            steps.append(_down(size))
            height -= size

    # the empty path is the one of length 0, no single step can leave
    # the ground and come back to it, and two steps do so one way; these
    # carry no prefix
    if n < 3:
        return iter(((DeutschPath(),), (), (DeutschPath((UP, _down(1))),))[n])
    return walk()


def enumerate_nondecreasing_filter(n: int) -> Iterator[DeutschPath]:
    """Brute-force stream: every length-``n`` path that keeps its valleys
    weakly increasing, in canonical order.

    Every candidate of :func:`enumerate_deutsch` goes to
    :func:`is_nondecreasing` once, and each verdict covers every step,
    which is what makes this the reference oracle.  Each candidate
    carries the prefix it shares with the others the walk finishes from
    it, its steps but the last two, and the judge resumes a candidate
    whose prefix is the very object it remembers, at any length: it
    walks each prefix once and two steps of each candidate.  That entry
    is one tuple, replaced whole, so threads may judge at once."""
    return filter(is_nondecreasing, enumerate_deutsch(n))


def _compositions_exact(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    # ordered compositions of total into exactly `parts` positive parts,
    # one per set of parts - 1 cut points inside 1 .. total-1; the cut
    # sets, and so the compositions, come in lexicographic order
    for cuts in combinations(range(1, total), parts - 1):
        yield tuple(b - a for a, b in pairwise((0, *cuts, total)))


def _mountains_of_length(length: int) -> list[Mountain]:
    return [Mountain(d) for u in range(1, length) for d in _compositions_exact(u, length - u)]


def _mountain_runs(total: int) -> Iterator[tuple[Mountain, ...]]:
    # ordered mountain sequences of the given total length; a mountain is
    # at least 2 steps long, so the lengths less one compose total - count.
    # Most mountains come first: `product` builds the full list of each
    # factor, and long mountains far outnumber short ones.
    if total == 0:
        yield ()
    for count in range(total // 2, 0, -1):
        for less_one in _compositions_exact(total - count, count):
            yield from product(*(_mountains_of_length(k + 1) for k in less_one))


def iter_decompositions(total_length: int) -> Iterator[Decomposition]:
    """Yield every decomposition whose composed path has the given length.

    The mountains of a path, read left to right, form one run, and its
    bundles are that run cut at ``height - 1`` weakly increasing points.
    The order is by height, then number of home-run parts, home run,
    mountain run and cut points.  It is not the canonical path order;
    callers that need that compose and re-sort, as
    :func:`enumerate_nondecreasing_direct` does.
    """
    if not _size(total_length, "total_length"):
        return iter((Decomposition((), ()),))
    return (
        Decomposition(tuple(run[a:b] for a, b in pairwise((0, *cuts, len(run)))), homerun)
        for height in range(1, total_length)
        for parts in range(1, min(height, total_length - height) + 1)
        for homerun in _compositions_exact(height, parts)
        for run in _mountain_runs(total_length - height - parts)
        for cuts in combinations_with_replacement(range(len(run) + 1), height - 1)
    )


def enumerate_nondecreasing_direct(n: int) -> Iterator[DeutschPath]:
    """Structural stream of the weakly-increasing-valley paths of length ``n``.

    Builds every path from its decomposition, without filtering, then
    re-sorts into the canonical lexicographic order so the stream can be
    compared step for step with :func:`enumerate_nondecreasing_filter`.
    """
    decompositions = iter_decompositions(_size(n, "n"))
    return iter(sorted(map(compose, decompositions), key=DeutschPath.sort_key))
