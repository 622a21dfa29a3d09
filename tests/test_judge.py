"""The judge, ``paths.is_nondecreasing``, against its per-step reference.

The reference below is the plain loop the package once ran: one walk
over every step of every path.  The judge resumes a path longer than
``paths._RESUME_PAST`` steps from the last long prefix it walked, so it
is run here on streams of paths one after another, where each path's
value, or its error's type, message and attributes, must be the
reference's whatever the paths judged before it.
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

PAST = paths._RESUME_PAST


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


def judged_alike(stream):
    # a long path first, so that no example depends on the one before
    assert is_nondecreasing(DeutschPath((UP,) * PAST + (Down(PAST),)))
    for steps in stream:
        path = DeutschPath(tuple(steps))
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


STEP = st.one_of(st.just(UP), st.integers(1, 4).map(paths._down))
PREFIX = st.integers(PAST - 3, PAST + 2).flatmap(
    lambda length: st.lists(STEP, min_size=length, max_size=length)
).flatmap(lambda steps: st.sampled_from([steps, _grounded(steps)]))
TAIL = st.one_of(st.lists(STEP, min_size=2, max_size=2), st.lists(STEP, max_size=3))

# a few prefixes of lengths about the threshold, some falling below the
# ground, and a stream of picks of one of them with a tail: the walk's
# way home, or any steps, which may fall below the ground or end off it.
# A pick may copy its prefix's Downs into fresh equal objects.
PICKS = st.lists(PREFIX, min_size=1, max_size=3).flatmap(
    lambda prefixes: st.lists(
        st.tuples(st.sampled_from(prefixes), st.one_of(st.none(), TAIL), st.booleans()),
        min_size=1,
        max_size=12,
    )
)


def _stream(picks):
    for prefix, tail, fresh in picks:
        if fresh:
            prefix = [s if s is UP else Down(s.size) for s in prefix]
        yield prefix + (_home(prefix) if tail is None else tail)


U, D1, D2 = UP, Down(1), Down(2)
CLIMB = [U] * PAST  # a prefix long enough, ending at level PAST


@given(PICKS)
# the last long prefix is the one resumed from, not one of its tails
@example([(CLIMB, None, False), (CLIMB, [D2, Down(PAST - 2)], True)])
# prefixes of one length but of other heights and valleys
@example([(CLIMB, None, False), ([U, D1] * (PAST // 2), None, False), (CLIMB, None, False)])
@example([(CLIMB + [D1, U], None, False), (CLIMB + [D2, U], None, False)])
def test_streams_are_judged_as_path_by_path(picks):
    judged_alike(_stream(picks))


def test_a_prefix_that_raised_is_not_remembered():
    below = [U, D2] + CLIMB
    judged_alike([CLIMB + [U, Down(PAST + 1)], below + _home(below), below + [U, D1]])


def test_a_prefix_that_ends_below_the_ground_fails_every_path_resumed_from_it():
    below = CLIMB + [Down(PAST + 1)]
    judged_alike([below + tail for tail in ([U, U], [D1, D1], [D1, U], [U, D1], [U, U])])


def test_equal_downs_of_other_objects_share_a_prefix():
    first = CLIMB + [Down(3), U]
    second = [s if s is UP else Down(s.size) for s in first]
    assert first == second and first[-2] is not second[-2]
    judged_alike([first + [U, Down(PAST - 1)], second + [D2, Down(PAST - 4)]])


def test_walks_at_every_length_about_the_threshold():
    # the heads of walks, one after another, each prefix shared by its
    # endings, and the short walks whole
    heads = (islice(enumerate_deutsch(n), 2000) for n in [*range(9), *range(PAST - 1, PAST + 5)])
    judged_alike(p.steps for head in heads for p in head)


def test_threads_judging_at_once_get_their_own_verdicts():
    # each thread judges the head of its own walk, so the one entry
    # changes hands between threads often; a verdict resumed from
    # another thread's state would show
    streams = [list(islice(enumerate_deutsch(PAST + n), 3000)) for n in range(3, 7)]
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
