"""Tests of the benchmark's own parts: references, checker, plans, sinks
and tracer.  Run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import io
import json
import sys
from pathlib import Path

import pytest

import oracle
import plan
import run
import spans
from sinks import HeadSink

SRC = Path(__file__).resolve().parent.parent / "src"


def _deutsch_paths(length: int, height: int = 0):
    # every Deutsch path as tokens, by brute force
    if length == 0:
        if height == 0:
            yield []
        return
    for rest in _deutsch_paths(length - 1, height + 1):
        yield ["U"] + rest
    for size in range(1, height + 1):
        for rest in _deutsch_paths(length - 1, height - size):
            yield [f"D{size}"] + rest


def _list_output(length: int) -> str:
    keys = []
    for tokens in _deutsch_paths(length):
        key = oracle.path_key(tokens)
        try:
            oracle.check_path(key, length)
        except ValueError:
            continue
        keys.append(key)
    keys.sort()
    return "".join(" ".join("U" if s == 0 else f"D{s}" for s in key) + "\n" for key in keys)


def test_reference_recurrence():
    assert oracle.counts(12) == [1, 0, 1, 1, 3, 6, 15, 35, 85, 204, 493, 1189, 2871]
    assert oracle.counts_at([3, 12]) == {3: 1, 12: 2871}


def test_deutsch_counts_and_ranks():
    for length in range(9):
        paths = sorted(oracle.path_key(t) for t in _deutsch_paths(length))
        assert oracle.deutsch_count(length) == len(paths)
        assert [oracle.deutsch_rank(key) for key in paths] == list(range(len(paths)))


def test_list_checker_accepts_canonical_output_and_rejects_swapped_lines():
    text = _list_output(8)
    assert oracle.check_list(text, 8, False, oracle.counts(8)[-1]) == 85
    lines = text.splitlines(keepends=True)
    lines[10], lines[11] = lines[11], lines[10]
    with pytest.raises(ValueError):
        oracle.check_list("".join(lines), 8, False, 85)
    with pytest.raises(ValueError):  # one path missing
        oracle.check_list("".join(lines[1:]), 8, False, 85)


def test_count_checker_rejects_off_by_one():
    value = oracle.counts_at([500])[500]
    oracle.check_count(f"{value}\n", value)
    with pytest.raises(ValueError):
        oracle.check_count(f"{value + 1}\n", value)


def test_long_decimals_parse_in_chunks_under_the_digit_limit():
    value = oracle.counts_at([11300])[11300]  # 4,325 digits
    digits = []
    rest = value
    while rest:  # without str(), which the int-to-str limit refuses
        rest, digit = divmod(rest, 10)
        digits.append("0123456789"[digit])
    assert oracle.parse_decimal("".join(reversed(digits))) == value


def test_benchmark_changes_no_interpreter_limit():
    for source in Path(__file__).parent.glob("*.py"):
        if source.name != Path(__file__).name:
            text = source.read_text()
            assert "set_int_max_str_digits" not in text and "setrecursionlimit" not in text


def test_gf_checker_rejects_truncated_record():
    coeffs = [str(c) for c in oracle.form_sequence("gamma", 40)]
    record = json.dumps({"form": "gamma", "coeffs": coeffs}, separators=(",", ":"))
    oracle.check_gf(record + "\n", "gamma", 40, True)
    with pytest.raises(ValueError):
        oracle.check_gf(record[:-20] + "\n", "gamma", 40, True)
    with pytest.raises(ValueError):
        oracle.check_gf(", ".join(coeffs[:-1]) + "\n", "gamma", 40, False)


def test_same_seed_same_ops_other_seed_other_ops():
    for workload in plan.WORKLOADS:
        first = plan.make_plan(workload, 7, 1)
        assert first == plan.make_plan(workload, 7, 1)
        assert first != plan.make_plan(workload, 8, 1)


def test_plan_draws_stay_below_the_known_defects():
    sizes = {op.size for seed in range(20) for op in plan.make_plan("count", seed, 2)}
    assert max(oracle.counts_at(sizes).values()) < 10**4300
    for seed in range(20):
        for op in plan.make_plan("list", seed, 2):
            assert op.size <= plan.HEAD_LENGTHS[1]


def test_random_decompositions_compose_to_valid_paths():
    import random

    rng = random.Random(3)
    for length in (20, 21, 99, 2000):
        homerun, bundles = plan.random_decomposition(rng, length)
        path = plan.compose_tokens(homerun, bundles)
        oracle.check_path(oracle.path_key(path.split(" ")), length)


def test_head_sink_closes_after_limit_and_counts_as_completion():
    def main(argv):
        for i in range(5):
            print(f"line {i}")
        return 0

    status, seconds, first, sink, errors = run.call(main, ("x",), 3)
    assert status == 0 and errors == ""
    assert sink.getvalue() == "line 0\nline 1\nline 2\n"
    assert sink.rejected == "line 3"
    assert seconds > 0 and first is not None
    sink = HeadSink(1)
    sink.write("a\n")
    with pytest.raises(BrokenPipeError):
        sink.write("b")


def test_tracer_counts_match_own_counts_and_uninstall_restores():
    if not (SRC / "deutschpaths").is_dir():
        pytest.skip("package source not present")
    sys.path.insert(0, str(SRC))
    try:
        from deutschpaths import cli, paths, trees
    finally:
        sys.path.remove(str(SRC))
    original = paths.enumerate_deutsch, trees.decompose
    tracer = spans.Tracer()
    tracer.install()
    try:
        out, sys.stdout = sys.stdout, io.StringIO()
        try:
            cli.main(["list", "--length", "8"])
        finally:
            sys.stdout = out
    finally:
        tracer.uninstall()
    assert (paths.enumerate_deutsch, trees.decompose) == original
    metrics = tracer.layer_metrics()
    assert metrics["paths.enumerate_nondecreasing_filter.items"] == oracle.counts(8)[-1]
    assert metrics["paths.enumerate_deutsch.items"] == oracle.deutsch_count(8)
    assert metrics["paths.is_nondecreasing.calls"] == oracle.deutsch_count(8)
    assert metrics[spans.YIELD_RATIO] == 85 / 91
    assert all(metrics[f"{m}.{f}.self_s"] >= 0 for m, f, ms, _ in spans.LAYERS if "self_s" in ms)
    assert set(metrics) | {spans.OVERHEAD_RATIO} == {n for n, _ in spans.layer_metric_names()}
