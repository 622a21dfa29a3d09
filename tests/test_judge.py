"""The judge, ``paths.is_nondecreasing``, against its per-step reference.

The reference below is the plain loop the package once ran: one walk
over every step of every path.  The judge remembers the last prefix
that a walked path carried, its steps but the last two, and resumes a
path that carries that very object.  So it is run here on streams of
paths one after another, walked paths and paths built the way the walk
builds them, with prefixes shared by identity, with equal prefixes of
other objects, and with no prefix; each path's value, or its error's
type, message and attributes, must be the reference's whatever the
paths judged before it.
"""

from __future__ import annotations

import sys
import threading
from itertools import islice

from hypothesis import example, given, strategies as st

from deutschpaths import (
    UP,
    DeutschPath,
    Down,
    NegativeExcursionError,
    NonzeroEndError,
    enumerate_deutsch,
    is_nondecreasing,
)
from deutschpaths import paths


def reference_is_nondecreasing(path: DeutschPath) -> bool:
    height = 0
    fell = False
    level = 0
    rising = True
    for position, step in enumerate(path.steps, start=1):
        if step is UP:
            if fell:
                if height < level:
                    rising = False
                level = height
                fell = False
            height += 1
        else:
            height -= step.size
            if height < 0:
                raise NegativeExcursionError(position, height)
            fell = True
    if height != 0:
        raise NonzeroEndError(height)
    return rising


def outcome(judge, path):
    # the value, or the error's type, message and attributes
    try:
        return judge(path)
    except ValueError as exc:
        return type(exc), str(exc), vars(exc)


def finished(prefix: tuple, ending) -> DeutschPath:
    # a path built as the walk builds one: `prefix`, the object itself,
    # is its steps but the last two
    path = DeutschPath(prefix + tuple(ending))
    object.__setattr__(path, "_prefix", prefix)
    return path


def judged_alike(stream):
    # a prefix of its own first, so that no example resumes from the one before
    assert is_nondecreasing(finished(tuple([UP, UP]), [UP, Down(3)]))
    for path in stream:
        assert outcome(is_nondecreasing, path) == outcome(reference_is_nondecreasing, path)


def _grounded(steps):
    # the steps with every fall cut to the height, so no prefix of them
    # falls below the ground; falls from the ground are dropped
    out, height = [], 0
    for step in steps:
        if step is UP:
            height += 1
        elif height:
            step = Down(min(step.size, height))
            height -= step.size
        else:
            continue
        out.append(step)
    return out


def _home(steps):
    # the two last steps of a Deutsch path after these, as a walk lists
    # them first: a rise and the fall home
    return [UP, Down(max(sum(1 if s is UP else -s.size for s in steps), 0) + 1)]


def _fresh(prefix: tuple, downs: bool) -> tuple:
    # an equal prefix of another object, with equal Downs of other
    # objects too if `downs`; an empty one stays (), a single object
    return tuple(s if s is UP or not downs else Down(s.size) for s in prefix)


STEP = st.one_of(st.just(UP), st.integers(1, 4).map(paths._down))
PREFIX = (
    st.one_of(st.integers(0, 6), st.integers(28, 36))
    .flatmap(lambda length: st.lists(STEP, min_size=length, max_size=length))
    .flatmap(lambda steps: st.sampled_from([steps, _grounded(steps)]))
    .map(tuple)
)
TAIL = st.one_of(st.lists(STEP, min_size=2, max_size=2), st.lists(STEP, max_size=3))

# a few prefixes, short and long, some falling below the ground, each
# one object, and a stream of picks of one of them with a tail: the
# walk's way home, or any steps, which may fall below the ground or end
# off it.  A pick of two last steps carries its prefix as the walk does,
# the object itself or, as `fresh` says, an equal one of another object
# (0), with other Downs (1); any other pick carries none.
PICKS = st.lists(PREFIX, min_size=1, max_size=3).flatmap(
    lambda prefixes: st.lists(
        st.tuples(
            st.sampled_from(prefixes),
            st.one_of(st.none(), TAIL),
            st.sampled_from([None, None, 0, 1]),
        ),
        min_size=1,
        max_size=12,
    )
)


def _stream(picks):
    for prefix, tail, fresh in picks:
        if fresh is not None:
            prefix = _fresh(prefix, downs=bool(fresh))
        tail = _home(prefix) if tail is None else tail
        yield finished(prefix, tail) if len(tail) == 2 else DeutschPath(prefix + tuple(tail))


U, D1, D2 = UP, Down(1), Down(2)
CLIMB = (U,) * 32  # a prefix ending at level 32


@given(PICKS)
# the last prefix is the one resumed from, not one of its tails
@example([(CLIMB, None, None), (CLIMB, [D2, Down(30)], None)])
# prefixes of one length but of other heights and valleys
@example([(CLIMB, None, None), ((U, D1) * 16, None, None), (CLIMB, None, None)])
@example([(CLIMB + (D1, U), None, None), (CLIMB + (D2, U), None, None)])
# an equal prefix of another object, then the first again
@example([(CLIMB, None, None), (CLIMB, [D1, Down(31)], 1), (CLIMB, [D2, Down(30)], None)])
# a short path, a prefix of its own, then the long one resumed
@example([(CLIMB, None, None), ((), [U, D1], None), (CLIMB, [U, U], None), (CLIMB, None, None)])
def test_streams_are_judged_as_path_by_path(picks):
    judged_alike(_stream(picks))


def test_a_prefix_that_raised_is_not_remembered():
    below = (U, D2) + CLIMB
    judged_alike([finished(CLIMB, [U, Down(33)]), finished(below, _home(below))])
    assert paths._walked[0] is CLIMB
    judged_alike([finished(below, _home(below)), finished(below, [U, D1])])
    assert paths._walked[0] is not below


def test_a_prefix_that_ends_below_the_ground_fails_every_path_resumed_from_it():
    below = CLIMB + (Down(33),)
    judged_alike([finished(below, tail) for tail in ([U, U], [D1, D1], [D1, U], [U, D1], [U, U])])
    assert paths._walked[0] is below


def test_the_judge_resumes_by_identity_alone(monkeypatch):
    # a remembered state that no walk reaches shows which paths resume
    # from it: the one that carries the remembered object does, and an
    # equal prefix of another object, even sharing every step, is walked
    # whole and remembered in its place
    head = CLIMB + (Down(3), U)
    path = finished(head, [U, Down(31)])
    assert is_nondecreasing(path)
    bogus = (head, 40, False, 29, True)  # ten levels off
    for twin in (_fresh(head, downs=False), _fresh(head, downs=True)):
        assert twin == head and twin is not head
        monkeypatch.setattr(paths, "_walked", bogus)
        assert is_nondecreasing(finished(twin, [U, Down(31)]))
        assert paths._walked[0] is twin and paths._walked[1:] == (30, False, 29, True)
    monkeypatch.setattr(paths, "_walked", bogus)
    ended = outcome(is_nondecreasing, path)
    assert ended == (NonzeroEndError, "path ends at level 10, expected 0", {"final_height": 10})
    # a path carrying no prefix is walked whole and leaves the entry be
    assert is_nondecreasing(DeutschPath(path.steps))
    assert paths._walked is bogus


def test_walks_of_every_length_are_judged_as_path_by_path():
    # the heads of walks, one after another, each prefix shared by its
    # endings, and the short walks whole; then two walks taken in turns,
    # so that each path's prefix differs from the one remembered
    heads = (islice(enumerate_deutsch(n), 2000) for n in [*range(9), *range(30, 37)])
    judged_alike(p for head in heads for p in head)
    walks = [islice(enumerate_deutsch(n), 2000) for n in (12, 34)]
    judged_alike(p for pair in zip(*walks) for p in pair)


def test_a_walked_path_is_resumed_from_its_own_prefix():
    walk = islice(enumerate_deutsch(40), 200)
    for path in walk:
        assert is_nondecreasing(path) == reference_is_nondecreasing(path)
        assert paths._walked[0] is path._prefix


def test_threads_judging_at_once_get_their_own_verdicts():
    # each thread judges the head of its own walk, so the one entry
    # changes hands between threads often; a verdict resumed from
    # another thread's state would show
    streams = [list(islice(enumerate_deutsch(n), 3000)) for n in range(35, 39)]
    expected = [[outcome(reference_is_nondecreasing, p) for p in s] for s in streams]
    got = [None] * len(streams)

    def judge(i):
        got[i] = [outcome(is_nondecreasing, p) for p in streams[i]]

    threads = [threading.Thread(target=judge, args=(i,)) for i in range(len(streams))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == expected
