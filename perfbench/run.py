"""Benchmark of the ``deutschpaths`` command line, run the way users run it.

    python3 perfbench/run.py --workload list --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One run drives ``deutschpaths.cli.main(argv)`` in-process over a seeded
op list (see ``plan.py``): one client, closed loop, no threads.  Each op's
output goes to a stand-in stdout and is checked against the benchmark's
own references (``oracle.py``) after the op's clock stops.  The package
is imported from ``src/`` of the checkout holding this file and from
nowhere else.

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` the run executes a smaller op list twice, untraced then
traced, and reports the per-layer metrics of ``spans.LAYERS``, with the
spans written to ``perfbench/results/``.  The line before the last holds
the run's details: Python version, CPU count, op mix, the tail
percentile used, failed ops and the state of the known defects.
``--workload all`` runs every workload in a fresh interpreter and prints
one table.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import calibrate
import oracle
import plan
import spans
from sinks import CaptureSink, HeadSink

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"

# setup_s is the median of fresh-interpreter samples, one batch taken
# before the ops and one after
SETUP_BATCH = 4
HARD_STOP_S = 150.0  # start no op after this, to end well inside 180 s
TAIL_BEYOND = 10
DIGEST_SLICE = 1 << 16

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("first_output_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
)

# A fresh interpreter imports the package and makes one trivial call,
# timed between two calibration loops.
SETUP_CODE = """
import io, sys, time
sys.path[:0] = sys.argv[1:3]
import calibrate
calibrate.loop_seconds()
before = calibrate.loop_seconds()
start = time.perf_counter()
import deutschpaths.cli
sys.stdout, out = io.StringIO(), sys.stdout
deutschpaths.cli.main(["count", "--length", "1"])
sys.stdout = out
end = time.perf_counter()
print((end - start) * calibrate.speed_factor(before, calibrate.loop_seconds()))
"""


@dataclass
class Result:
    """Outcome of one CLI call."""

    op: plan.Op
    argv: tuple[str, ...]
    seconds: float
    first_output: float | None
    ok: bool
    reason: str = ""
    rejected: str | None = None  # the line a head sink refused


def setup_samples(count: int) -> list[float]:
    """Seconds of import plus a first trivial call, each in a fresh interpreter."""
    samples = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(Path(__file__).resolve().parent)],
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
            cwd=ROOT,
        )
        samples.append(float(done.stdout))
    return samples


def call(main, argv: tuple[str, ...], head: int | None) -> tuple:
    """Run ``main(argv)`` with stdout and stderr captured.

    Returns (exit code or error text, seconds, first output seconds,
    stdout sink, stderr text), the times at the reference host speed
    (see ``calibrate``).  A ``BrokenPipeError`` raised by a head sink
    that closed on purpose is a normal end, as under ``| head``.
    """
    sink = HeadSink(head) if head is not None else CaptureSink()
    errors = CaptureSink()
    gc.collect()  # leave the last op's garbage out of this op and the loop
    before = calibrate.loop_seconds()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = sink, errors
    start = time.perf_counter()
    try:
        status = main(list(argv))
    except BrokenPipeError as exc:
        status = 0 if getattr(sink, "closed", False) else f"BrokenPipeError: {exc}"
    except SystemExit as exc:
        status = exc.code
    except Exception as exc:  # a crash is a failed op, reported with its type
        status = f"{type(exc).__name__}: {str(exc)[:200]}"
    finally:
        end = time.perf_counter()
        sys.stdout, sys.stderr = saved
    factor = calibrate.speed_factor(before, calibrate.loop_seconds())
    first = None if sink.first_write is None else (sink.first_write - start) * factor
    return status, (end - start) * factor, first, sink, errors.getvalue()


def _digest(text: str) -> bytes:
    # in slices, so that a long output is never copied whole
    hasher = hashlib.sha256()
    for i in range(0, len(text), DIGEST_SLICE):
        hasher.update(text[i : i + DIGEST_SLICE].encode())
    return hasher.digest()


class Checker:
    """Judges op outputs; an output already judged right for the same
    argv is recognised by its digest instead of being re-read."""

    def __init__(self, ops: list[plan.Op]):
        lengths = [op.size for op in ops if op.kind == "count"]
        lengths += [op.size for op in ops if op.kind == "list"]
        self.counts = oracle.counts_at(lengths)
        self._passed: set[tuple[tuple[str, ...], bytes]] = set()

    def check(self, op: plan.Op, kind: str, argv: tuple[str, ...], text: str) -> None:
        digest = _digest(text)
        if (argv, digest) in self._passed:
            return
        if kind == "count":
            oracle.check_count(text, self.counts[op.size])
        elif kind == "list":
            oracle.check_list(text, op.size, op.json, self.counts[op.size])
        elif kind == "head":
            oracle.check_list(text, op.size, op.json, op.head)
        elif kind == "gf":
            oracle.check_gf(text, op.form, op.size, op.json)
        elif kind == "verify":
            oracle.check_verify(text)
        elif kind == "table":
            oracle.check_table(text, op.size, op.json)
        elif kind == "tree":
            oracle.check_tree(text, op.tree)
        elif kind == "path":
            oracle.check_path_output(text, op.path)
        else:
            raise ValueError(f"no check for {kind}")
        self._passed.add((argv, digest))


def run_one(main, checker: Checker, op: plan.Op, kind: str,
            argv: tuple[str, ...]) -> tuple[Result, str]:
    """One checked CLI call, and what it printed."""
    status, seconds, first, sink, errors = call(main, argv, op.head)
    output = sink.getvalue()
    reason = ""
    if status != 0:
        reason = f"exit {status}" + (f": {errors.strip()[:200]}" if errors else "")
    else:
        try:
            checker.check(op, kind, argv, output)
        except (ValueError, KeyError, IndexError) as exc:  # json errors are ValueErrors
            reason = f"wrong output: {exc}"
    rejected = getattr(sink, "rejected", None)
    return Result(op, argv, seconds, first, not reason, reason, rejected), output


def execute(main, checker: Checker, op: plan.Op) -> list[Result]:
    """The CLI calls of one op: the op itself, and for a ``tree`` op a
    ``path`` call on the tree it printed (or on the expected tree, when
    it failed)."""
    result, output = run_one(main, checker, op, op.kind, op.argv)
    if op.kind != "tree":
        return [result]
    tree = output.strip() if result.ok else json.dumps(op.tree, separators=(",", ":"))
    return [result, run_one(main, checker, op, "path", ("path", "--tree", tree))[0]]


def measure(main, checker: Checker, ops: list[plan.Op], started: float) -> list[Result]:
    """Every op in plan order, until the hard stop."""
    results = []
    for op in ops:
        if time.perf_counter() - started > HARD_STOP_S:
            break
        results += execute(main, checker, op)
    return results


def _penalised(values: list[float | None], ok: list[bool], total: float) -> list[float]:
    # A failed op ranks slower than every success: it counts as the whole
    # run's op time, which no single op can exceed.
    return sorted(v if good and v is not None else total for v, good in zip(values, ok))


def end_to_end(results: list[Result], setup_s: float, rss_mb: float) -> tuple[dict, dict]:
    """The end-to-end metrics, and how the tail percentile was chosen."""
    ok = [r.ok for r in results]
    total = sum(r.seconds for r in results)
    latencies = _penalised([r.seconds for r in results], ok, total)
    firsts = _penalised([r.first_output for r in results], ok, total)
    count = len(latencies)
    tail = max(0, count - 1 - TAIL_BEYOND)
    values = {
        "setup_s": setup_s,
        "ops_per_s": sum(ok) / total,
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": latencies[tail] * 1e3,
        "first_output_ms_p50": statistics.median(firsts) * 1e3,
        "peak_rss_mb": rss_mb,
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    tail_info = {
        "percentile": round(100 * (tail + 1) / count, 3),
        "samples_beyond": count - 1 - tail,
        "samples": count,
    }
    return metrics, tail_info


def own_yield_ratio(results: list[Result]) -> float:
    """Filter items over Deutsch paths walked, from the benchmark's own
    counts: a full ``list`` keeps a(n) of all D(n) paths; a head op stops
    on the path its sink refused, the last one the filter yielded."""
    kept = walked = 0
    for r in results:
        if r.op.kind == "list":
            kept += oracle.counts(r.op.size)[-1]
            walked += oracle.deutsch_count(r.op.size)
        elif r.op.kind == "head" and r.rejected is not None:
            kept += r.op.head + 1
            walked += oracle.deutsch_rank(oracle.path_key(r.rejected.split(" "))) + 1
    return kept / walked if walked else 0.0


def probe_defects(main) -> dict[str, str]:
    """Outcome of one call in each known defect range (not timed, not counted)."""
    ops = [
        plan.Op("count", argv, int(argv[2])) if argv[0] == "count"
        else plan.Op("head", argv, int(argv[2]), head=plan.HEAD_LINES)
        for argv in plan.DEFECT_PROBES
    ]
    checker = Checker(ops)
    out = {}
    for op in ops:
        result = run_one(main, checker, op, op.kind, op.argv)[0]
        label = " ".join(op.argv) + (f" | head -n {op.head}" if op.head else "")
        out[label] = "ok" if result.ok else result.reason
    return out


def run_workload(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    # the first interpreter writes the bytecode caches; its time is dropped
    setup = setup_samples(1 + SETUP_BATCH)[1:] if not args.trace else []
    sys.path.insert(0, str(SRC))
    import deutschpaths.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "deutschpaths":
        print(f"error: imported deutschpaths from {cli.__file__}", file=sys.stderr)
        return 2
    scale = plan.scale_for(args.workload, args.seconds, bool(args.trace))
    ops = plan.make_plan(args.workload, args.seed, scale)
    checker = Checker(ops)
    call(cli.main, ("count", "--length", "1"), None)  # first-call set-up is setup_s's
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "scale": scale,
        "mix": plan.op_mix(ops),
    }
    if args.trace:
        results = measure(cli.main, checker, ops, started)
        untraced_s = sum(r.seconds for r in results)
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = measure(cli.main, checker, ops, started)
        finally:
            tracer.uninstall()
        values = tracer.layer_metrics()
        values[spans.OVERHEAD_RATIO] = sum(r.seconds for r in traced) / untraced_s
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in spans.layer_metric_names()
        }
        span_file = RESULTS / f"trace-{args.workload}.tsv"
        tracer.write(span_file)
        detail["spans"] = {"count": len(tracer.span_start), "file": str(span_file.relative_to(ROOT))}
        detail["own_yield_ratio"] = own_yield_ratio(traced)
        results += traced
    else:
        results = measure(cli.main, checker, ops, started)
        setup += setup_samples(SETUP_BATCH)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics, detail["latency_tail"] = end_to_end(results, statistics.median(setup), rss_mb)
        detail["defects"] = probe_defects(cli.main)
    failed = sum(not r.ok for r in results)
    detail["op_seconds"] = sum(r.seconds for r in results)
    detail["wall_seconds"] = time.perf_counter() - started
    detail["failures"] = [f"{' '.join(r.argv)[:120]}: {r.reason}" for r in results if not r.ok][:20]
    print(json.dumps(detail))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(results),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh interpreter, then one table of all metrics."""
    status = 0
    rows = {}
    for workload in plan.WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True,
            text=True,
            timeout=900,
        )
        lines = done.stdout.strip().splitlines()
        if done.returncode or len(lines) < 2:
            print(f"{workload}: failed with exit {done.returncode}\n{done.stderr}", file=sys.stderr)
            status = 1
            continue
        detail, result = json.loads(lines[-2]), json.loads(lines[-1])
        rows[workload] = result
        error_rate = result["failed"] / result["attempted"]
        print(f"== {workload}: {result['attempted']} ops, error_rate {error_rate:.4f}, "
              f"correct {result['correct']}, Python {detail['python']}, nproc {detail['nproc']}")
        for name, metric in result["metrics"].items():
            print(f"  {name:48s} {metric['value']:>14.6g} {metric['unit']}")
        if "latency_tail" in detail:
            tail = detail["latency_tail"]
            print(f"  latency_tail at p{tail['percentile']} "
                  f"({tail['samples_beyond']} of {tail['samples']} samples beyond)")
        for label, outcome in detail.get("defects", {}).items():
            print(f"  defect probe {label}: {outcome}")
        for line in detail["failures"]:
            print(f"  FAILED {line}")
    print(json.dumps(rows))
    return status


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=plan.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "deutschpaths" / "cli.py").is_file():
        print(f"error: no package source at {SRC / 'deutschpaths'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
