"""The judge, ``paths.is_nondecreasing``, against its per-step reference.

The reference below is the plain loop the package once ran: one walk
over every step of every path.  A walked path carries the list it
shares with the other paths finished from its prefix, its steps but
the last two; the judge fills that list with its state after the
prefix on the first of them, and resumes the others from it.  So it is
run here on streams of paths one after another, walked paths and paths
built the way the walk builds them, with lists shared by identity,
with equal prefixes carrying other lists, and with no list; on walks
read in turns; and on threads that race to fill one walk's lists.  Each
path's value, or its error's type, message and attributes, must be the
reference's whatever the paths judged before it, and each list must
hold the reference's state after its prefix.
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


def reference_state(steps) -> list:
    # the walk's state after the steps, [height, fell, level, rising], as
    # the judge files it in a walked path's list
    height = 0
    fell = False
    level = 0
    rising = True
    for position, step in enumerate(steps, start=1):
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
    return [height, fell, level, rising]


def reference_is_nondecreasing(path: DeutschPath) -> bool:
    height, _, _, rising = reference_state(path.steps)
    if height != 0:
        raise NonzeroEndError(height)
    return rising


def outcome(judge, path):
    # the value, or the error's type, message and attributes
    try:
        return judge(path)
    except ValueError as exc:
        return type(exc), str(exc), vars(exc)


def finished(prefix: tuple, ending, shared: list | None = None) -> DeutschPath:
    # a path built as the walk builds one: `prefix` is its steps but the
    # last two, and `shared` the list it shares with the other paths
    # finished from that prefix, a list of its own if none is given
    path = DeutschPath(prefix + tuple(ending))
    object.__setattr__(path, "_shared", [] if shared is None else shared)
    return path


def judged_alike(stream):
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
# off it.  A pick of two last steps carries its prefix's list as the walk
# does, one list per prefix object, or, as `fresh` says, an equal prefix
# of another object (0), with other Downs (1), and a list of its own; any
# other pick carries none.
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
    lists = {}  # by prefix object, each held by the picks
    for prefix, tail, fresh in picks:
        shared = lists.setdefault(id(prefix), [])
        if fresh is not None:
            prefix, shared = _fresh(prefix, downs=bool(fresh)), []
        tail = _home(prefix) if tail is None else tail
        yield finished(prefix, tail, shared) if len(tail) == 2 else DeutschPath(prefix + tuple(tail))


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
    climbed, fell = [], []
    judged_alike([finished(CLIMB, [U, Down(33)], climbed), finished(below, _home(below), fell)])
    assert climbed == reference_state(CLIMB) == [32, False, 0, True]
    judged_alike([finished(below, _home(below), fell), finished(below, [U, D1], fell)])
    assert fell == []


def test_a_prefix_that_ends_below_the_ground_fails_every_path_resumed_from_it():
    below = CLIMB + (Down(33),)
    shared = []
    tails = ([U, U], [D1, D1], [D1, U], [U, D1], [U, U])
    judged_alike([finished(below, tail, shared) for tail in tails])
    assert shared == [-1, True, 0, True]


ENDED = (NonzeroEndError, "path ends at level 10, expected 0", {"final_height": 10})


def test_the_judge_resumes_by_identity_alone():
    # a planted state that no walk reaches, ten levels off, shows which
    # paths resume from it: the ones that carry the very list do, and an
    # equal prefix carrying another list, even sharing every step, is
    # walked and fills its own
    head = CLIMB + (Down(3), U)
    shared = []
    path = finished(head, [U, Down(31)], shared)
    assert is_nondecreasing(path)
    assert shared == [30, False, 29, True]
    bogus = [40, False, 29, True]
    for twin in (head, _fresh(head, downs=False), _fresh(head, downs=True)):
        assert twin == head
        shared[:] = bogus
        other = []
        assert is_nondecreasing(finished(twin, [U, Down(31)], other))
        assert other == [30, False, 29, True] and shared == bogus
    assert outcome(is_nondecreasing, path) == ENDED
    assert outcome(is_nondecreasing, finished(head, [D1, Down(29)], shared)) == ENDED
    # a path carrying no list is walked whole and leaves the list be
    assert is_nondecreasing(DeutschPath(path.steps))
    assert shared == bogus


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
        assert path._shared == reference_state(path.steps[:-2])


def test_two_walks_read_in_turns_each_walk_every_prefix_once():
    # two walks taken in turns, so that the other walk's paths are judged
    # between any two paths of one prefix.  A prefix's list is empty when
    # its first path comes and holds the reference's state after it once
    # that path is judged; each later path finds it filled and resumes
    # from it, as a state planted there, ten levels off, shows.  So each
    # prefix is walked once, whatever the other walk does
    walks = [islice(enumerate_deutsch(n), 3000) for n in (12, 34)]
    last = [None, None]  # each walk's previous list
    resumed = 0
    for pair in zip(*walks):
        for i, path in enumerate(pair):
            shared = path._shared
            state = reference_state(path.steps[:-2])
            if shared is last[i]:
                assert shared == state
                shared[:] = [state[0] + 10, *state[1:]]
                assert outcome(is_nondecreasing, path) == ENDED
                shared[:] = state
                resumed += 1
            else:
                assert shared == []
            assert outcome(is_nondecreasing, path) == outcome(reference_is_nondecreasing, path)
            assert shared == state
            last[i] = shared
    assert resumed > 3000


def _race(judge, count):
    # `judge(i)` in `count` threads at once, switching as often as they can
    threads = [threading.Thread(target=judge, args=(i,), daemon=True) for i in range(count)]
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


def test_threads_judging_at_once_get_their_own_verdicts():
    # each thread judges the head of its own walk, so the judge runs on
    # the lists of several walks at once; a verdict resumed from another
    # walk's state would show
    streams = [list(islice(enumerate_deutsch(n), 3000)) for n in range(35, 39)]
    expected = [[outcome(reference_is_nondecreasing, p) for p in s] for s in streams]
    got = [None] * len(streams)

    def judge(i):
        got[i] = [outcome(is_nondecreasing, p) for p in streams[i]]

    _race(judge, len(streams))
    assert got == expected


def test_threads_sharing_one_walks_lists_get_the_reference_verdicts():
    # every thread judges the same walked paths, the first two of each of
    # 500 prefixes of 398 steps, in step, each spinning until the others
    # come to each path, so they race to fill each prefix's one list; a
    # list filled twice over, or read half filled, would show
    walked, last = [], None
    for path in enumerate_deutsch(400):
        if path._shared is not last:
            last, taken = path._shared, 0
        if taken < 2:
            walked.append(path)
            taken += 1
        if len(walked) == 1000:
            break
    expected = [outcome(reference_is_nondecreasing, p) for p in walked]
    got = [None] * 4
    at = [0] * len(got)  # the path each thread has come to

    def judge(i):
        got[i] = verdicts = []
        for k, path in enumerate(walked):
            at[i] = k
            while min(at) < k:  # spun, so that every thread wants to run
                pass
            verdicts.append(outcome(is_nondecreasing, path))

    _race(judge, len(got))
    assert got == [expected] * len(got)
    assert all(p._shared == reference_state(p.steps[:-2]) for p in walked)
