"""The record parsers on hostile input: each returns a value or raises its
own record error, never another exception."""

from __future__ import annotations

import contextlib
import json

from hypothesis import HealthCheck, given, settings, strategies as st

from deutschpaths import PathTokenError, TreeRecordError, parse_path, path_from_json, tree_from_json

HUGE = "9" * 5000

# token pieces: huge sizes, zeros, signs, and digits that are not ASCII
# (Arabic-Indic three, fullwidth one)
PIECES = ["U", "D", "D1", "D0", "D01", "D-1", "u", "d1", "D" + HUGE, "D٣", "D１", "٣"]

token_text = st.one_of(
    st.text(),
    st.lists(st.sampled_from(PIECES), max_size=8).map(" ".join),
    st.integers(min_value=0).map(lambda k: f"D{k}"),
)

# JSON text assembled from fragments, so the huge integers never pass
# through int-to-str themselves
json_scalars = st.one_of(
    st.sampled_from(["null", "true", "0", "-1", "1.5", "1e400", "NaN", HUGE, "-" + HUGE]),
    st.sampled_from(PIECES + ["s", "d", "x"]).map(json.dumps),
    st.text(max_size=8).map(json.dumps),
)
KEYS = st.sampled_from(["steps", "backbone", "bundles", "x"]).map(json.dumps)
json_text = st.one_of(
    st.text(),
    st.recursive(
        json_scalars,
        lambda inner: st.one_of(
            st.lists(inner, max_size=4).map(lambda xs: "[" + ",".join(xs) + "]"),
            st.dictionaries(KEYS, inner, max_size=3).map(
                lambda d: "{" + ",".join(f"{k}:{v}" for k, v in d.items()) + "}"
            ),
        ),
        max_leaves=12,
    ),
)

fuzz = settings(max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])


@fuzz
@given(text=token_text)
def test_parse_path_raises_only_token_errors(int_digit_limit, text):
    with contextlib.suppress(PathTokenError):
        parse_path(text)


@fuzz
@given(text=json_text)
def test_path_from_json_raises_only_token_errors(int_digit_limit, text):
    with contextlib.suppress(PathTokenError):
        path_from_json(text)


@fuzz
@given(text=json_text)
def test_tree_from_json_raises_only_record_errors(int_digit_limit, text):
    with contextlib.suppress(TreeRecordError):
        tree_from_json(text)
