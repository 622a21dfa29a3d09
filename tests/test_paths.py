"""Path core: parsing, validation, valleys, enumeration, decomposition."""

from __future__ import annotations

import copy
import dataclasses
import json
import pickle
import re
import subprocess
import sys
from collections import Counter
from functools import lru_cache
from itertools import accumulate, islice

import pytest
from hypothesis import example, given, strategies as st

from deutschpaths import (
    Decomposition,
    DeutschPath,
    Down,
    Mountain,
    NegativeExcursionError,
    NonzeroEndError,
    NotNonDecreasingError,
    PathTokenError,
    UP,
    Up,
    as_mountain,
    compose,
    decompose,
    enumerate_deutsch,
    enumerate_nondecreasing_direct,
    enumerate_nondecreasing_filter,
    heights,
    is_nondecreasing,
    iter_decompositions,
    parse_path,
    path_from_json,
    path_to_json,
    render_path,
    valley_levels,
    validate,
)
from deutschpaths import paths
from test_judge import finished

# Counts of all weakly-increasing-valley paths by length, 0 through 12.
# Derived by dynamic programming (see _count_nondecreasing_dp below) and
# frozen only after the independent routes agreed.
EXPECTED_COUNTS = [1, 0, 1, 1, 3, 6, 15, 35, 85, 204, 493, 1189, 2871]


def _count_all_deutsch_dp(n: int) -> int:
    # independent oracle: count without building any path
    @lru_cache(maxsize=None)
    def walk(remaining: int, height: int) -> int:
        if remaining == 0:
            return 1 if height == 0 else 0
        total = walk(remaining - 1, height + 1)
        for drop in range(1, height + 1):
            total += walk(remaining - 1, height - drop)
        return total

    return walk(n, 0)


def _count_nondecreasing_dp(n: int) -> int:
    # independent oracle: track the smallest level future valleys may use
    @lru_cache(maxsize=None)
    def walk(remaining: int, height: int, floor: int, just_fell: bool) -> int:
        if remaining == 0:
            return 1 if height == 0 else 0
        total = 0
        if not just_fell or height >= floor:
            new_floor = max(floor, height) if just_fell else floor
            total += walk(remaining - 1, height + 1, new_floor, False)
        for drop in range(1, height + 1):
            total += walk(remaining - 1, height - drop, floor, True)
        return total

    return walk(n, 0, 0, False)


def _lex_rank(n: int):
    """An independent rank of the length-``n`` paths in canonical order.

    completions[r][h] counts the ways to finish from level h with r
    steps left, and below[r][h] sums completions[r][g] over g < h.  A
    path's rank adds, at each step, the completions of every smaller
    step there: U < D1 < D2 < ..., so a fall of k skips U and D1 ..
    D(k-1).
    """
    top = n + 1  # no level reached from 0 in n steps needs more
    completions = [[1] + [0] * top]
    for r in range(1, n + 1):
        prev = completions[-1]
        below = [0, *accumulate(prev)]
        completions.append([(prev[h + 1] if h < top else 0) + below[h] for h in range(top + 1)])
    below = [[0, *accumulate(row)] for row in completions]

    def rank(path: DeutschPath) -> int:
        total, height, left = 0, 0, n
        for step in path.steps:
            left -= 1
            if step == UP:
                height += 1
            else:
                total += completions[left][height + 1]
                total += below[left][height] - below[left][height - step.size + 1]
                height -= step.size
        return total

    return rank


class TestParsing:
    def test_example_tokens(self):
        path = parse_path("U D1 U U D2")
        assert path.steps == (UP, Down(1), UP, UP, Down(2))

    def test_empty_string_is_empty_path(self):
        assert parse_path("") == DeutschPath()
        assert parse_path("   ") == DeutschPath()

    def test_render_round_trip_examples(self):
        for text in ("", "U D1", "U U D2 U D1", "U U U U D4"):
            assert render_path(parse_path(text)) == text

    @pytest.mark.parametrize("token", ["D0", "D01", "d1", "X", "D", "U2", "D-1", "D1.5"])
    def test_bad_tokens_rejected(self, token):
        with pytest.raises(PathTokenError):
            parse_path(f"U {token}")

    @pytest.mark.parametrize(
        "text,message",
        [
            ("U D0 X D0", "bad step token 'D0'"),
            ("U X D0 X", "bad step token 'X'"),
            ("U D1 U U D01 D1", "bad step token 'D01'"),
        ],
    )
    def test_the_first_bad_token_is_named(self, text, message):
        with pytest.raises(PathTokenError) as info:
            parse_path(text)
        assert str(info.value) == message
        with pytest.raises(PathTokenError) as info:
            path_from_json(json.dumps({"steps": text.split()}))
        assert str(info.value) == message

    def test_down_size_past_the_digit_limit(self, int_digit_limit):
        with pytest.raises(PathTokenError):
            parse_path("D" + "9" * 5000)

    def test_parsing_leaves_the_down_cache_alone(self):
        # only enumeration and compose, which reuse small sizes, share Downs
        before = paths._down.cache_info().currsize
        assert parse_path("U D" + "9" * 60).steps[1] == Down(int("9" * 60))
        assert paths._down.cache_info().currsize == before

    def test_the_down_cache_is_bounded(self):
        # compose meets every size a decoded tree holds, so the shared
        # steps are capped; a size evicted is only built again
        bound = paths._down.cache_info().maxsize
        assert bound == 4096
        for size in range(10**6, 10**6 + bound + 100):
            assert paths._down(size) == Down(size)
        assert paths._down.cache_info().currsize == bound

    def test_down_size_must_be_positive(self):
        with pytest.raises(ValueError, match="^down-step size must be >= 1$"):
            Down(0)
        # True == 1 and 1.0 == 1, but neither renders as D1
        for size in (True, 1.0, 2.5):
            with pytest.raises(ValueError, match=f"^down-step size must be an int, got {size}$"):
                Down(size)

    def test_down_token_is_neither_shown_nor_compared(self):
        assert repr(Down(3)) == "Down(size=3)"
        assert Down(3) == paths._down(3)
        assert hash(Down(3)) == hash(paths._down(3))
        assert Down(3).token == "D3"

    def test_down_token_is_formatted_when_the_step_is_built(self, int_digit_limit):
        # cli.main lifts the limit before a handler parses a path
        with pytest.raises(ValueError):
            Down(10**5000)

    @given(
        st.lists(
            st.one_of(st.just(UP), st.integers(1, 9).map(Down)),
            max_size=12,
        )
    )
    def test_render_parse_round_trip(self, steps):
        path = DeutschPath(tuple(steps))
        assert parse_path(render_path(path)) == path

    @given(
        st.lists(
            st.one_of(
                st.just(UP),
                st.builds(Up),
                st.integers(1, 10**60 - 1).map(paths._down),
                st.integers(1, 10**60 - 1).map(Down),
            ),
            max_size=20,
        )
    )
    @example([])
    def test_writers_match_their_formulas(self, steps):
        path = DeutschPath(tuple(steps))
        tokens = ["U" if isinstance(s, Up) else f"D{s.size}" for s in steps]
        assert render_path(path) == " ".join(tokens)
        assert path_to_json(path) == json.dumps({"steps": tokens}, separators=(",", ":"))
        assert path_from_json(path_to_json(path)) == path

    def test_json_round_trip(self):
        path = parse_path("U U D2 U D1")
        assert path_to_json(path) == '{"steps":["U","U","D2","U","D1"]}'
        assert path_from_json(path_to_json(path)) == path

    @pytest.mark.parametrize(
        "text",
        [
            '{"steps": "U"}',
            '["U"]',
            '{"steps": [1]}',
            '{"moves": []}',
            "not json",
            pytest.param("[" * 100_000, id="deep-nesting"),
        ],
    )
    def test_bad_json_records(self, text):
        with pytest.raises(PathTokenError):
            path_from_json(text)

    def test_json_integer_past_the_digit_limit(self, int_digit_limit):
        with pytest.raises(PathTokenError):
            path_from_json('{"steps": ' + "1" * 5000 + "}")


WRITERS = [(paths._TEXT, render_path), (paths._JSON, path_to_json)]

TOKEN = st.sampled_from(["U", "D1", "D2", "D12"])

# a few prefixes, and a stream of picks of one of them with up to two
# tokens more, so prefixes repeat, interleave and share no step objects
PICKS = st.lists(st.lists(TOKEN, max_size=5), min_size=1, max_size=3).flatmap(
    lambda prefixes: st.lists(
        st.tuples(st.sampled_from(prefixes), st.lists(TOKEN, max_size=2)), max_size=12
    )
)


def _walked_like(picks):
    # the picks built as the walk builds its paths: each prefix parsed
    # once, so one object, with one list carried by every pick of two
    # tokens more; the other picks carry none
    heads = {}
    for prefix, more in picks:
        head, shared = heads.setdefault(tuple(prefix), (parse_path(" ".join(prefix)).steps, []))
        tail = parse_path(" ".join(more)).steps
        yield finished(head, tail, shared) if len(tail) == 2 else DeutschPath(head + tail)


class TestStreamWriter:
    @pytest.mark.parametrize("form, write", WRITERS, ids=["text", "json"])
    def test_every_short_path_is_written_as_alone(self, form, write):
        # the walks of n <= 12 one after another, so a kept prefix also
        # meets the first path of the next length
        stream = [p for n in range(13) for p in enumerate_deutsch(n)]
        assert len(stream) == 6787
        assert list(paths._lines(iter(stream), form)) == [write(p) for p in stream]

    @given(PICKS)
    @example([])
    @example([([], [])])
    @example([([], ["U"]), ([], ["D1", "U"]), ([], []), (["U"], ["U"]), ([], ["D2"])])
    @example([(["U", "D1"], ["U", "D1"]), (["U", "U"], ["D2"]), (["U", "D1"], ["D2"])])
    @example([(["U", "U", "D2"], ["U", "D1"]), (["U"], ["U", "D2"]), (["U", "U", "D2"], [])])
    # prefixes of one length, and the empty prefix, one after another
    @example([(["U", "U"], ["U", "D3"]), (["U", "D1"], ["U", "D1"]), ([], ["U", "D1"])])
    def test_any_stream_is_written_as_path_by_path(self, picks):
        # parse_path builds its steps per call, so equal prefixes share
        # no Down objects and no path carries a list, and up to two steps
        # more give lengths 0, 1, 2; then the same picks with their
        # prefixes' lists shared as the walk shares them, alone and taking
        # turns with the parsed paths
        parsed = [parse_path(" ".join(prefix + more)) for prefix, more in picks]
        shared = list(_walked_like(picks))
        assert shared == parsed
        for stream in (parsed, shared, [p for pair in zip(parsed, shared) for p in pair]):
            for form, write in WRITERS:
                assert list(paths._lines(iter(stream), form)) == [write(p) for p in stream]


class TestValidation:
    def test_valid_examples(self):
        validate(parse_path("U U D2"))
        validate(parse_path(""))

    def test_negative_excursion_reports_position(self):
        with pytest.raises(NegativeExcursionError) as info:
            validate(parse_path("U D2"))
        assert info.value.position == 2
        assert info.value.height == -1

    def test_nonzero_end_reports_height(self):
        with pytest.raises(NonzeroEndError) as info:
            validate(parse_path("U U D1"))
        assert info.value.final_height == 1

    def test_heights(self):
        assert heights(parse_path("U D1 U U D2")) == (1, 0, 1, 2, 0)

    def test_path_refuses_steps_that_are_not_a_tuple(self):
        # a list passes the ground rules, yet neither hashes nor equals
        # its tuple twin, so decompose and compose would not round trip
        for steps in ([UP, UP, Down(2), UP, Down(1)], [], range(0)):
            with pytest.raises(ValueError, match="^steps must be a tuple, got "):
                DeutschPath(steps)
        path = DeutschPath((UP, UP, Down(2), UP, Down(1)))
        assert compose(decompose(path)) == path


def _two_walk_valley_levels(path: DeutschPath):
    # reference oracle: the ground rules on one walk, the valleys on another
    rises = [1 if step == UP else -step.size for step in path.steps]
    height = 0
    for position, rise in enumerate(rises, start=1):
        height += rise
        if height < 0:
            return ("below ground", position, height)
    if height:
        return ("off the ground", height)
    levels, height = [], 0
    for i in range(1, len(rises)):
        height += rises[i - 1]
        if rises[i - 1] < 0 < rises[i]:
            levels.append(height)
    return ("value", tuple(levels))


def _grounded(steps):
    # a Deutsch path from any steps: falls clipped to the height, falls
    # from the ground dropped, and one last fall home
    out, height = [], 0
    for step in steps:
        if step == UP:
            out.append(step)
            height += 1
        elif height:
            fall = min(step.size, height)
            out.append(Down(fall))
            height -= fall
    if height:
        out.append(Down(height))
    return out


# up-steps are drawn as UP and as a caller's Up(), which is UP itself,
# so the walks' identity test meets every up-step a caller can build
STEP_LISTS = st.lists(
    st.one_of(st.just(UP), st.builds(Up), st.integers(1, 3).map(Down)), max_size=14
)
ANY_STEPS = st.one_of(STEP_LISTS, STEP_LISTS.map(_grounded))


def _outcome(function, path):
    # the value, or the error with what it reports
    try:
        return ("value", function(path))
    except NegativeExcursionError as exc:
        return ("below ground", exc.position, exc.height)
    except NonzeroEndError as exc:
        return ("off the ground", exc.final_height)


class TestValleys:
    @pytest.mark.parametrize(
        "text,levels",
        [
            ("U D1 U U D2", (0,)),
            ("U U U D2 D1", ()),
            ("U U D1 U D2", (1,)),
            ("U U D1 U D2 U D1", (1, 0)),
            ("", ()),
        ],
    )
    def test_valley_levels(self, text, levels):
        assert valley_levels(parse_path(text)) == levels

    def test_nondecreasing_judgements(self):
        assert is_nondecreasing(parse_path("U D1 U U D2"))
        assert is_nondecreasing(parse_path(""))
        assert not is_nondecreasing(parse_path("U U D1 U D2 U D1"))

    def test_consecutive_downs_make_no_valley(self):
        # the point between two down-steps is entered by a fall and left by one
        assert valley_levels(parse_path("U U D1 D1")) == ()

    @given(ANY_STEPS)
    @example([])
    def test_one_walk_matches_two(self, steps):
        path = DeutschPath(tuple(steps))
        assert _outcome(valley_levels, path) == _two_walk_valley_levels(path)

    @given(ANY_STEPS)
    @example([])
    # valleys 1 then 0, then below the ground at step 8: it raises, not False
    @example([UP, UP, Down(1), UP, Down(2), UP, Down(1), Down(1)])
    # valleys 1 then 0, then the walk ends at level 1
    @example([UP, UP, Down(1), UP, Down(2), UP])
    def test_nondecreasing_means_sorted_valleys(self, steps):
        path = DeutschPath(tuple(steps))
        expected = _two_walk_valley_levels(path)
        if expected[0] == "value":
            expected = ("value", list(expected[1]) == sorted(expected[1]))
        assert _outcome(is_nondecreasing, path) == expected

    def test_nondecreasing_means_sorted_valleys_on_every_short_path(self):
        # every Deutsch path of length 12 or less, 6,787 of them
        checked = 0
        for n in range(13):
            for p in enumerate_deutsch(n):
                levels = list(valley_levels(p))
                assert is_nondecreasing(p) == (levels == sorted(levels)), render_path(p)
                checked += 1
        assert checked == sum(_count_all_deutsch_dp(n) for n in range(13)) == 6787

    def test_fresh_up_instances_act_as_the_singleton(self):
        # there is one up-step, so the walks test steps by identity alone
        assert Up() is UP
        copies = (copy.copy(UP), copy.deepcopy(UP), pickle.loads(pickle.dumps(UP)))
        assert all(c is UP for c in copies) and dataclasses.replace(UP) is UP
        # repr, equality and hash are those of a frozen dataclass without fields
        assert repr(UP) == "Up()"
        assert UP == Up() and UP != Down(1)
        assert hash(UP) == hash(())


class TestMountains:
    def test_examples(self):
        assert as_mountain(parse_path("U U D1 D1")) == Mountain((1, 1))
        assert as_mountain(parse_path("U U U D2 D1")) == Mountain((2, 1))
        assert as_mountain(parse_path("U D1 U D1")) is None
        assert as_mountain(parse_path("")) is None

    def test_mountains_are_one_rise_then_one_fall(self):
        for n in range(12):
            for p in enumerate_deutsch(n):
                shape = "".join("U" if s == UP else "D" for s in p.steps)
                mountain = as_mountain(p)
                assert (mountain is not None) == bool(re.fullmatch("U+D+", shape))
                if mountain is not None:
                    assert mountain.ups == shape.count("U")

    @given(ANY_STEPS)
    @example([])
    # one rise and one fall that lands below the ground at step 3
    @example([UP, Down(1), Down(1)])
    # one rise and one fall that ends at level 1
    @example([UP, UP, Down(1)])
    def test_mountain_checks_the_ground_rules(self, steps):
        path = DeutschPath(tuple(steps))
        expected = _two_walk_valley_levels(path)
        if expected[0] == "value":
            downs = tuple(step.size for step in steps if step != UP)
            mountain = Mountain(downs) if steps and not expected[1] else None
            expected = ("value", mountain)
        assert _outcome(as_mountain, path) == expected

    def test_mountain_invariants(self):
        # the rise is the descent's total, so only the descent can be wrong
        with pytest.raises(ValueError, match="^descent must be nonempty$"):
            Mountain(())
        for part in (0, -1, 1.0, True, "1"):
            message = f"^descent parts must be ints >= 1, got {re.escape(repr(part))}$"
            with pytest.raises(ValueError, match=message):
                Mountain((3, part))
        # a list would build a frozen record that cannot be hashed
        for descent in ([1], [2, 1], range(1, 2)):
            with pytest.raises(ValueError, match="^descent must be a tuple, got "):
                Mountain(descent)
        assert Mountain((2, 1)).ups == 3
        assert hash(Mountain((1,))) == hash(Mountain((1,)))


class TestEnumeration:
    def test_small_streams(self):
        assert list(enumerate_deutsch(0)) == [DeutschPath()]
        assert list(enumerate_deutsch(1)) == []
        # the walk finishes the empty prefix
        assert [render_path(p) for p in enumerate_deutsch(2)] == ["U D1"]
        assert [render_path(p) for p in enumerate_deutsch(3)] == ["U U D2"]

    def test_length_four_census(self):
        # canonical order puts the all-up prefix first; the prefix U D1
        # is on the ground, where the two last steps can only rise and
        # fall home
        assert [render_path(p) for p in enumerate_deutsch(4)] == [
            "U U U D3",
            "U U D1 D1",
            "U D1 U D1",
        ]

    @pytest.mark.parametrize("n", [17, 70])
    def test_walks_of_one_length_share_nothing(self, n):
        # every walk lists its own endings, so a walk stopped partway
        # through the endings of a level leaves the next walk whole (a
        # length no other test walks, so that this walk is the first)
        abandoned = enumerate_deutsch(n)
        assert next(abandoned).steps[-2:] == (UP, Down(n - 1))  # the first of level n - 2
        next(abandoned)
        abandoned.close()
        alone = list(islice(enumerate_deutsch(n), 3000))
        rank = _lex_rank(n)
        assert [rank(p) for p in alone] == list(range(3000))
        # and two walks read in step give one stream
        interleaved = list(islice(zip(enumerate_deutsch(n), enumerate_deutsch(n)), 3000))
        assert [a for a, _ in interleaved] == [b for _, b in interleaved] == alone

    def test_canonical_order_is_sorted(self):
        for n in range(11):
            stream = list(enumerate_deutsch(n))
            assert stream == sorted(stream, key=DeutschPath.sort_key)
            assert len(set(stream)) == len(stream)

    def test_counts_against_dp_oracle(self):
        for n in range(11):
            assert sum(1 for _ in enumerate_deutsch(n)) == _count_all_deutsch_dp(n)

    def test_every_enumerated_path_is_valid(self):
        for n in range(9):
            for p in enumerate_deutsch(n):
                hs = heights(p)
                assert all(h >= 0 for h in hs)
                assert (hs[-1] if hs else 0) == 0

    @pytest.mark.parametrize("n", range(12))
    def test_whole_streams_rank_in_order(self, n):
        rank = _lex_rank(n)
        assert [rank(p) for p in enumerate_deutsch(n)] == list(range(_count_all_deutsch_dp(n)))

    def test_a_long_stream_opens_in_rank_order(self):
        # the golden listings stop at length 10; a reader under `| head`
        # sees the opening of streams hundreds of steps long
        rank = _lex_rank(200)
        assert [rank(p) for p in islice(enumerate_deutsch(200), 2000)] == list(range(2000))

    @pytest.mark.parametrize("n", [*range(11), 300])
    def test_walked_paths_are_ordinary_paths(self, n):
        # the walk builds its paths without __init__ and gives them their
        # prefix's list, which no comparison, hash, repr, key or dataclass
        # view sees: a twin carrying none, or another list, is the same path.
        # Every path up to length 10 (603 at most), the first 2,000 at
        # length 300
        for p in islice(enumerate_deutsch(n), 2000):
            built = DeutschPath(p.steps)
            other = finished(tuple(list(p.steps[:-2])), p.steps[-2:])
            assert type(p) is DeutschPath
            assert repr(p) == f"DeutschPath(steps={p.steps!r})"
            for twin in (built, other):
                assert p == twin
                assert hash(p) == hash(twin)
                assert repr(p) == repr(twin)
                assert p.sort_key() == twin.sort_key()
                assert dataclasses.asdict(p) == dataclasses.asdict(twin)
                assert dataclasses.astuple(p) == dataclasses.astuple(twin)
                assert dataclasses.fields(p) == dataclasses.fields(twin)
        assert DeutschPath.__match_args__ == ("steps",)
        assert [f.name for f in dataclasses.fields(DeutschPath)] == ["steps"]
        assert "__reduce__" not in vars(DeutschPath)
        assert not hasattr(DeutschPath, "__getattr__")

    @pytest.mark.parametrize("n", [*range(11), 300])
    def test_walked_paths_carry_their_shared_prefix(self, n):
        # every path of three steps or more carries a list, empty until a
        # judge fills it, one object for all the paths that share their
        # steps but the last two and another for each other prefix; the
        # shorter paths are built whole and carry none
        lists = {}
        for p in islice(enumerate_deutsch(n), 2000):
            if n < 3:
                assert p._shared is None
            else:
                assert p._shared == []
                assert lists.setdefault(p.steps[:-2], p._shared) is p._shared
        assert len(set(map(id, lists.values()))) == len(lists)

    def test_other_routes_carry_no_prefix_or_their_own(self):
        # each other way a path is built, copies and pickles of walked
        # paths too, gives it no list: the list is the walk's alone
        walked = [p for n in range(3, 9) for p in enumerate_deutsch(n)]
        for p in walked:
            routes = [
                DeutschPath(p.steps),
                parse_path(render_path(p)),
                path_from_json(path_to_json(p)),
                dataclasses.replace(p),
                dataclasses.replace(p, steps=p.steps[::-1]),
                copy.copy(p),
                copy.deepcopy(p),
                pickle.loads(pickle.dumps(p)),
            ]
            if is_nondecreasing(p):
                routes.append(compose(decompose(p)))
            for q in routes:
                assert q._shared is None
            assert routes[:4] + routes[5:] == [p] * (len(routes) - 1)

    def test_a_path_pickled_before_the_prefix_loads_and_works(self):
        # pickle.dumps(parse_path("U U D2 U D1")) as written by an earlier
        # version, whose dataclass state held the steps alone; the bytes
        # are the same under Python 3.10 to 3.13
        old = pickle.loads(
            b"\x80\x04\x95n\x00\x00\x00\x00\x00\x00\x00\x8c\x12deutschpaths.paths\x94"
            b"\x8c\x0bDeutschPath\x94\x93\x94)\x81\x94]\x94(h\x00\x8c\x02Up\x94\x93\x94)"
            b"\x81\x94]\x94bh\x07h\x00\x8c\x04Down\x94\x93\x94)\x81\x94]\x94(K\x02\x8c\x02"
            b"D2\x94ebh\x07h\n)\x81\x94]\x94(K\x01\x8c\x02D1\x94ebt\x94ab."
        )
        path = parse_path("U U D2 U D1")
        assert old == path and old._shared is None
        assert is_nondecreasing(old) and validate(old) is old
        assert decompose(old) == decompose(path)
        assert list(paths._lines([old], paths._TEXT)) == ["U U D2 U D1"]
        assert list(paths._lines([old], paths._JSON)) == [path_to_json(path)]

    def test_skipping_init_skips_no_check(self):
        # the walk builds its paths without __init__, so the one check
        # there, that the steps are a tuple, must hold of each path it yields
        for n in range(11):
            for p in enumerate_deutsch(n):
                p.__post_init__()

    def test_the_first_path_lists_one_ending(self, monkeypatch):
        # a level's endings are listed as the walk yields them, so the
        # first path of a long walk builds one down-step, not the
        # 2,995 that listing its level whole would
        calls = []

        def counted(size):
            calls.append(size)
            return Down(size)

        monkeypatch.setattr(paths, "_down", counted)
        assert next(enumerate_deutsch(1500)).steps[-2:] == (UP, Down(1499))
        assert len(calls) <= 2

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError, match="^n must be >= 0$"):
            enumerate_deutsch(-1)
        with pytest.raises(ValueError, match="^n must be >= 0$"):
            enumerate_nondecreasing_direct(-1)
        with pytest.raises(ValueError, match="^total_length must be >= 0$"):
            iter_decompositions(-1)

    def test_first_path_streams_at_any_length(self):
        # the walk keeps no frame per step, so no length meets the
        # recursion limit, and the first path needs no search
        assert render_path(next(enumerate_deutsch(5000))) == "U " * 4999 + "D4999"
        assert render_path(next(enumerate_nondecreasing_filter(1200))) == "U " * 1199 + "D1199"

    def test_filtered_counts_against_dp_oracle(self):
        for n in range(13):
            count = sum(1 for _ in enumerate_nondecreasing_filter(n))
            assert count == _count_nondecreasing_dp(n) == EXPECTED_COUNTS[n]

    def test_the_filter_judges_every_candidate_by_the_module_check(self, monkeypatch):
        # the filter reads paths.is_nondecreasing when it is called, and
        # hands it every Deutsch path: a bound or inlined check, or one
        # that skips candidates, would miss this counting wrapper
        judged = []
        check = paths.is_nondecreasing

        def counted(path):
            judged.append(path)
            return check(path)

        monkeypatch.setattr(paths, "is_nondecreasing", counted)
        kept = list(enumerate_nondecreasing_filter(8))
        assert judged == list(enumerate_deutsch(8))
        assert len(judged) == _count_all_deutsch_dp(8) == 91
        assert len(kept) == EXPECTED_COUNTS[8] == 85

    def test_length_five_stream(self):
        assert [render_path(p) for p in enumerate_nondecreasing_filter(5)] == [
            "U U U U D4",
            "U U U D1 D2",
            "U U U D2 D1",
            "U U D1 U D2",
            "U U D2 U D1",
            "U D1 U U D2",
        ]

    def test_first_filtered_path_appears_at_length_seven(self):
        # all shorter paths keep their valleys weakly increasing
        for n in range(7):
            assert list(enumerate_deutsch(n)) == list(enumerate_nondecreasing_filter(n))
        dropped = [
            render_path(p)
            for p in enumerate_deutsch(7)
            if not is_nondecreasing(p)
        ]
        assert dropped == ["U U D1 U D2 U D1"]

    def test_direct_equals_filter_in_order(self):
        for n in range(11):
            assert list(enumerate_nondecreasing_direct(n)) == list(
                enumerate_nondecreasing_filter(n)
            )


class TestDecomposition:
    @pytest.mark.parametrize(
        "text,height,homerun",
        [
            ("U D1 U U D2", 2, (2,)),
            ("U U D2 U D1", 1, (1,)),
            ("U U U D1 D2", 3, (1, 2)),
        ],
    )
    def test_examples(self, text, height, homerun):
        dec = decompose(parse_path(text))
        assert dec.height == height
        assert dec.homerun == homerun

    def test_example_bundles(self):
        dec = decompose(parse_path("U D1 U U D2"))
        assert dec.bundles == ((Mountain((1,)),), ())
        dec = decompose(parse_path("U U D2 U D1"))
        assert dec.bundles == ((Mountain((2,)),),)

    def test_empty_path(self):
        assert decompose(DeutschPath()) == Decomposition((), ())
        assert compose(Decomposition((), ())) == DeutschPath()

    @pytest.mark.parametrize(
        "height,homerun,expected",
        [
            (3, (1, 2), "U U U D1 D2"),
            (4, (4,), "U U U U D4"),
        ],
    )
    def test_compose_staircases(self, height, homerun, expected):
        dec = Decomposition(((),) * height, homerun)
        assert render_path(compose(dec)) == expected

    def test_decompose_rejects_falling_valleys(self):
        with pytest.raises(NotNonDecreasingError):
            decompose(parse_path("U U D1 U D2 U D1"))

    def test_decompose_rejects_exactly_the_falling_valleys(self):
        for n in range(12):
            for p in enumerate_deutsch(n):
                if is_nondecreasing(p):
                    assert compose(decompose(p)) == p
                else:
                    message = f"valley levels decrease in {render_path(p)!r}"
                    with pytest.raises(NotNonDecreasingError, match=re.escape(message)):
                        decompose(p)

    def test_decomposition_invariants(self):
        # the height is the number of bundles, and the home run composes it
        message = "^home run must be a composition of the height$"
        for bundles, homerun in (((), (1,)), (((),), (2,)), (((), ()), (1,)), (((),), ())):
            with pytest.raises(ValueError, match=message):
                Decomposition(bundles, homerun)

    def test_compose_refuses_a_part_that_is_not_an_int(self):
        # 1.0 sums to the height, but its step would render as D1.0, so the
        # decomposition refuses it when it is built
        for part in (1.0, True, "1"):
            message = f"^home run parts must be ints >= 1, got {re.escape(repr(part))}$"
            with pytest.raises(ValueError, match=message):
                Decomposition(((),), (part,))
        assert render_path(compose(Decomposition(((),), (1,)))) == "U D1"

    def test_round_trip_paths(self):
        for n in range(11):
            for p in enumerate_nondecreasing_filter(n):
                dec = decompose(p)
                assert len(compose(dec).steps) == n
                assert compose(dec) == p

    def test_round_trip_decompositions(self):
        for n in range(11):
            for dec in iter_decompositions(n):
                assert decompose(compose(dec)) == dec

    @pytest.mark.parametrize("n", range(14))
    def test_decompositions_are_those_of_the_filtered_paths(self, n):
        # each decomposition once, whatever order the generator takes
        assert Counter(iter_decompositions(n)) == Counter(
            decompose(p) for p in enumerate_nondecreasing_filter(n)
        )

    def test_first_decomposition_of_a_long_length_streams(self):
        # Runs with the most mountains come first.  The other way round the
        # first run is one mountain of length n - 2, and building it builds
        # every mountain of that length; the address-space limit turns that
        # into a quick failure instead of a machine out of memory.
        code = (
            "import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from deutschpaths import iter_decompositions\n"
            "print(repr(next(iter_decompositions(5000))))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=30
        )
        assert result.returncode == 0, result.stderr
        peaks = (Mountain((1,)),) * 2499
        assert result.stdout == repr(Decomposition((peaks,), (1,))) + "\n"

    def test_mountains_never_sit_at_the_top_level(self):
        # the home run follows the last backbone step immediately
        for n in range(12):
            for dec in (decompose(p) for p in enumerate_nondecreasing_filter(n)):
                assert len(dec.bundles) == dec.height
