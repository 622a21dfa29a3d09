"""Command line interface, exercised through subprocess for real exit codes."""

from __future__ import annotations

import argparse
import contextlib
import errno
import io
import itertools
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from test_judge import reference_is_nondecreasing

from deutschpaths import cli, fibonacci, numbers, paths, series, trees


def run_cli(*args, timeout=None):
    return subprocess.run(
        [sys.executable, "-m", "deutschpaths", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def test_count():
    result = run_cli("count", "--length", "5")
    assert result.returncode == 0
    assert result.stdout == "6\n"


@pytest.mark.parametrize("method", ["closed", "series", "brute", "direct"])
def test_count_methods_agree(method):
    result = run_cli("count", "--length", "9", "--method", method)
    assert result.returncode == 0
    assert result.stdout == "204\n"


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads Linux VmHWM")
def test_direct_count_holds_no_list_of_paths():
    # counting needs no canonical order; sorted first, the 97,513 paths
    # of length 16 were all held at once and the peak passed 50 MB.  The
    # child reads its peak as VmHWM: on Linux its ru_maxrss would carry
    # this process's peak across the exec.
    code = (
        "from deutschpaths import cli\n"
        "code = cli.main(['count', '--method', 'direct', '--length', '16'])\n"
        "status = dict(line.split(':', 1) for line in open('/proc/self/status'))\n"
        "print(code, status['VmHWM'].split()[0])\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    count, code, peak_kib = result.stdout.split()
    assert (count, code) == ("97513", "0")
    assert int(peak_kib) < 30 * 1024


def test_count_large_closed():
    closed = run_cli("count", "--length", "90")
    series = run_cli("count", "--length", "90", "--method", "series")
    assert closed.returncode == series.returncode == 0
    assert closed.stdout == series.stdout
    assert int(closed.stdout) == 2062818444281274434110779898730725


def test_count_past_the_int_str_digit_limit():
    # a(12000) has 4,593 digits, past Python's default of 4,300
    closed = run_cli("count", "--length", "12000")
    series = run_cli("count", "--length", "12000", "--method", "series")
    assert closed.returncode == series.returncode == 0
    assert closed.stdout == series.stdout
    assert len(closed.stdout.strip()) > 4300


def test_both_routes_count_a_hundred_thousand_steps_in_seconds():
    # the series route took about 20 s here while it expanded every term
    closed = run_cli("count", "--length", "100000", timeout=10)
    by_series = run_cli("count", "--length", "100000", "--method", "series", timeout=10)
    assert closed.returncode == by_series.returncode == 0
    assert closed.stdout == by_series.stdout
    assert len(closed.stdout.strip()) == 38277


def test_gf_expansion_ends_on_the_count_at_twelve_thousand():
    expansion = run_cli("gf", "--form", "with-empty", "--terms", "12000")
    count = run_cli("count", "--length", "12000")
    assert expansion.returncode == count.returncode == 0
    coeffs = expansion.stdout.strip().split(", ")
    assert len(coeffs) == 12001
    assert coeffs[-1] + "\n" == count.stdout


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_table_past_the_int_str_digit_limit(int_digit_limit, json_flag):
    # 640 is the lowest limit Python accepts; counts pass 640 digits from
    # n = 1675 on, and a(1700) has 650.  This process reads them back
    # under the default limit of 4,300.
    result = subprocess.run(
        [sys.executable, "-X", "int_max_str_digits=640", "-m", "deutschpaths", "table"]
        + ["--max", "1700", *json_flag],
        capture_output=True,
        text=True,
    )
    assert (result.returncode, result.stderr) == (0, "")
    if json_flag:
        rows = [json.loads(line) for line in result.stdout.splitlines()]
        agree = [row["agree"] for row in rows]
        last = (rows[-1]["n"], rows[-1]["closed"], rows[-1]["series"])
    else:
        rows = [line.split("\t") for line in result.stdout.splitlines()[1:]]
        agree = [row[4] == "yes" for row in rows]
        last = (int(rows[-1][0]), int(rows[-1][1]), int(rows[-1][2]))
    assert len(agree) == 1701 and all(agree)
    count = numbers.count_nondecreasing_closed(1700)
    assert last == (1700, count, count)


@pytest.fixture
def ring_off_by_one_at_seven(monkeypatch):
    """``count_nondecreasing_quadratic`` one too high at n = 7 only."""
    ring = numbers.count_nondecreasing_quadratic
    monkeypatch.setattr(
        numbers, "count_nondecreasing_quadratic", lambda n: ring(n) + (n == 7)
    )


def test_a_ring_disagreement_ends_count(ring_off_by_one_at_seven, capsys):
    assert cli.main(["count", "--length", "6"]) == 0
    assert capsys.readouterr().out == "15\n"
    assert cli.main(["count", "--length", "7"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: closed form routes disagree at n=7\n"


def test_a_pell_fault_at_benchmark_size_ends_count(monkeypatch, capsys):
    # n = 11,000 is the benchmark's largest count, about 4,200 digits
    pair = numbers._silver_pair

    def pell_off_by_one_at_11000(n):
        half_companion, pell_n = pair(n)
        return half_companion, pell_n + (n == 11000)

    monkeypatch.setattr(numbers, "_silver_pair", pell_off_by_one_at_11000)
    assert cli.main(["count", "--length", "11000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: closed form routes disagree at n=11000\n"


def test_table_checks_every_row_in_the_ring(monkeypatch, capsys):
    calls = []
    ring = numbers.count_nondecreasing_quadratic

    def counted(n):
        calls.append(n)
        return ring(n)

    monkeypatch.setattr(numbers, "count_nondecreasing_quadratic", counted)
    assert cli.main(["table", "--max", "30"]) == 0
    assert sorted(calls) == list(range(31))
    assert len(capsys.readouterr().out.splitlines()) == 32


def test_table_text():
    result = run_cli("table", "--max", "5", "--brute-cap", "4")
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert lines[0] == "n\tclosed\tseries\tbrute\tagree"
    assert lines[1] == "0\t1\t1\t1\tyes"
    assert lines[5] == "4\t3\t3\t3\tyes"
    assert lines[6] == "5\t6\t6\t-\tyes"


def test_table_json():
    result = run_cli("table", "--max", "3", "--json")
    assert result.returncode == 0
    rows = [json.loads(line) for line in result.stdout.splitlines()]
    assert rows == [
        {"n": 0, "closed": 1, "series": 1, "brute": 1, "agree": True},
        {"n": 1, "closed": 0, "series": 0, "brute": 0, "agree": True},
        {"n": 2, "closed": 1, "series": 1, "brute": 1, "agree": True},
        {"n": 3, "closed": 1, "series": 1, "brute": 1, "agree": True},
    ]


@pytest.fixture
def half_at_three(monkeypatch):
    """1/2 in place of the with-empty count at n = 3.

    Both ways to the series count carry it: ``gf_coefficients``, which
    ``table`` reads, and ``RationalGF.coefficient``, which ``count``
    reads.
    """
    original = series.gf_coefficients
    original_coefficient = series.RationalGF.coefficient
    with_empty = series.named_form("with-empty")

    def fake(form, order):
        coeffs = list(original(form, order))
        if form == "with-empty" and order >= 3:
            coeffs[3] = Fraction(1, 2)
        return coeffs

    def fake_coefficient(gf, n):
        if n == 3 and gf == with_empty:
            return Fraction(1, 2)
        return original_coefficient(gf, n)

    monkeypatch.setattr(series, "gf_coefficients", fake)
    monkeypatch.setattr(series.RationalGF, "coefficient", fake_coefficient)


def test_a_non_integral_series_count_shows(half_at_three, capsys):
    assert cli.main(["table", "--max", "4"]) == 0
    assert capsys.readouterr().out.splitlines()[4] == "3\t1\t1/2\t1\tNO"
    assert cli.main(["table", "--max", "4", "--json"]) == 0
    row = json.loads(capsys.readouterr().out.splitlines()[3])
    assert row == {"n": 3, "closed": 1, "series": "1/2", "brute": 1, "agree": False}
    assert cli.main(["count", "--length", "3", "--method", "series"]) == 0
    assert capsys.readouterr().out == "1/2\n"


def test_list():
    result = run_cli("list", "--length", "4")
    assert result.returncode == 0
    assert result.stdout == "U U U D3\nU U D1 D1\nU D1 U D1\n"


def test_list_json():
    result = run_cli("list", "--length", "2", "--json")
    assert result.returncode == 0
    assert result.stdout == '{"steps":["U","D1"]}\n'


@pytest.mark.parametrize("flag", [[], ["--json"]], ids=["text", "json"])
def test_list_gives_the_structural_stream(flag):
    # the filter route the CLI lists by, against the route that builds
    # each path from its decomposition, past the golden listings' length
    expected = list(paths.enumerate_nondecreasing_direct(13))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["list", "--length", "13", *flag]) == 0
    render = paths.path_to_json if flag else paths.render_path
    lines = out.getvalue().splitlines()
    assert len(lines) == 6930
    assert lines == [render(p) for p in expected]


def test_list_empty_length():
    result = run_cli("list", "--length", "0")
    assert result.returncode == 0
    assert result.stdout == "\n"


def test_tree_outline():
    result = run_cli("tree", "--path", "U U D2 U D1")
    assert result.returncode == 0
    assert "node 0 (root)" in result.stdout
    assert "  hang: s d" in result.stdout


def test_tree_json():
    result = run_cli("tree", "--path", "U U D2 U D1", "--json")
    assert result.returncode == 0
    assert result.stdout == '{"backbone":["d"],"bundles":[[["s","d"]]]}\n'


def test_path_from_tree():
    result = run_cli("path", "--tree", '{"backbone":["s","d"],"bundles":[[],[["d"]]]}')
    assert result.returncode == 0
    assert result.stdout == "U U D1 U D2\n"


@pytest.mark.parametrize("tokens", ["U U D2 U D1", "U U U D1 D2", "U D1 U U D2"])
def test_tree_path_round_trip(tokens):
    tree = run_cli("tree", "--path", tokens, "--json")
    back = run_cli("path", "--tree", tree.stdout.strip())
    assert back.returncode == 0
    assert back.stdout == tokens + "\n"


def stdout_of(capsys, *argv):
    """Run ``main`` in process; it must exit 0 with a quiet stderr."""
    assert cli.main(list(argv)) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    return captured.out


# The value checks stop where the brute routes and the listing stay
# well under a second per length: n <= 11, and n <= 8 (147 paths) for
# the tree and path round trips, two calls per path.
@pytest.mark.parametrize("n", range(12))
def test_count_table_and_list_agree(capsys, n):
    # the four count routes, the table row and the listing of one length
    (count,) = {
        stdout_of(capsys, "count", "--length", str(n), "--method", method)
        for method in ("closed", "series", "brute", "direct")
    }
    count = int(count)
    row = json.loads(stdout_of(capsys, "table", "--max", "11", "--json").splitlines()[n])
    assert row == {"n": n, "closed": count, "series": count, "brute": count, "agree": True}
    for flag in ([], ["--json"]):
        assert len(stdout_of(capsys, "list", "--length", str(n), *flag).splitlines()) == count


def test_tree_then_path_gives_back_every_listed_path(capsys):
    listed = [
        tokens
        for n in range(9)
        for tokens in stdout_of(capsys, "list", "--length", str(n)).splitlines()
    ]
    assert len(listed) == 147
    for tokens in listed:
        record = stdout_of(capsys, "tree", "--path", tokens, "--json").removesuffix("\n")
        assert stdout_of(capsys, "path", "--tree", record) == f"{tokens}\n"


def test_gf():
    result = run_cli("gf", "--form", "with-empty", "--terms", "7")
    assert result.returncode == 0
    assert result.stdout == "1, 0, 1, 1, 3, 6, 15, 35\n"


def test_gf_json():
    result = run_cli("gf", "--form", "mountain", "--terms", "6", "--json")
    assert result.returncode == 0
    assert result.stdout == '{"form":"mountain","coeffs":["0","0","1","1","2","3","5"]}\n'


def test_gf_fractional_coefficients():
    result = run_cli("gf", "--form", "gamma", "--terms", "6")
    assert result.returncode == 0
    assert result.stdout == "0, 0, 1, 1, 2, 4, 9\n"


def test_mountains():
    result = run_cli("mountains", "--steps", "10")
    assert result.returncode == 0
    assert result.stdout == "34\n"


def test_mountains_at_twenty_thousand_steps():
    # a fresh binomial per term costs about a minute here; the timeout catches it
    result = run_cli("mountains", "--steps", "20000", timeout=20)
    assert result.returncode == 0
    assert result.stdout == f"{fibonacci(19999)}\n"


def test_tilings_count():
    result = run_cli("tilings", "--length", "4")
    assert result.returncode == 0
    assert result.stdout == "5\n"


def test_tilings_list():
    result = run_cli("tilings", "--length", "4", "--list")
    assert result.returncode == 0
    assert result.stdout == "S S S S\nS S D\nS D S\nD S S\nD D\n"


def test_tilings_first_square():
    result = run_cli("tilings", "--length", "3", "--first-square")
    assert result.returncode == 0
    assert result.stdout == "2\n"


def test_tilings_first_square_list():
    result = run_cli("tilings", "--length", "3", "--first-square", "--list")
    assert result.returncode == 0
    assert result.stdout == "S S S\nS D\n"


def test_verify():
    result = run_cli("verify", "--max", "6")
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert all(line.startswith("PASS ") for line in lines[:-1])
    assert lines[-1] == "21/21 checks passed"


class TestErrors:
    def check(self, *args, fragment):
        result = run_cli(*args)
        assert result.returncode == 2
        assert result.stdout == ""
        assert fragment in result.stderr

    def test_bad_token(self):
        self.check("tree", "--path", "U D0", fragment="bad step token 'D0'")

    def test_negative_excursion(self):
        self.check("tree", "--path", "U D2", fragment="reaches level -1 after step 2")

    def test_decreasing_valleys(self):
        self.check("tree", "--path", "U U D1 U D2 U D1", fragment="valley levels decrease")

    @pytest.mark.parametrize(
        "tokens, message",
        [
            ("U", "path ends at level 1, expected 0"),
            ("U D2", "path reaches level -1 after step 2"),
            ("U U D1 U D2 U D1", "valley levels decrease in 'U U D1 U D2 U D1'"),
        ],
    )
    def test_invalid_tree_path(self, capsys, tokens, message):
        assert cli.main(["tree", "--path", tokens]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_bad_tree_json(self):
        self.check("path", "--tree", "not json", fragment="error:")

    def test_deeply_nested_tree_record(self):
        self.check("path", "--tree", "[" * 100_000, fragment="error: bad tree record")

    def test_bad_tree_marks(self):
        self.check(
            "path",
            "--tree",
            '{"backbone":["s"],"bundles":[[]]}',
            fragment="last mark must be a double",
        )

    def test_unknown_form(self):
        self.check("gf", "--form", "nope", "--terms", "4", fragment="unknown form 'nope'")

    def test_negative_length(self):
        self.check("count", "--length", "-1", fragment="error:")

    @pytest.mark.parametrize("method", ["closed", "series", "brute", "direct"])
    def test_negative_length_by_method(self, capsys, method):
        # the flag is checked before any route runs, so each says the same
        assert cli.main(["count", "--length", "-1", "--method", method]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --length must be >= 0\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["table", "--max", "-1"], "--max must be >= 0"),
            (["table", "--max", "2", "--brute-cap", "-3"], "--brute-cap must be >= 0"),
            (["mountains", "--steps", "-1"], "--steps must be >= 0"),
            (["list", "--length", "-1"], "--length must be >= 0"),
            (["tilings", "--length", "-1"], "--length must be >= 0"),
            (["gf", "--form", "bundle", "--terms", "-1"], "--terms must be >= 0"),
            (["verify", "--max", "-1"], "--max must be >= 0"),
            (
                ["path", "--tree", '{"backbone":[],"bundles":[1]}'],
                "node 0: expected a list of hanging paths",
            ),
        ],
        ids=["table", "brute-cap", "mountains", "list", "tilings", "gf", "verify", "path"],
    )
    def test_domain_error(self, capsys, argv, message):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_out_of_memory(self):
        # 10**20 coefficients cannot fit; under a 512 MiB address-space
        # limit the expansion runs out of memory within seconds
        code = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))\n"
            "from deutschpaths.__main__ import entry\n"
            "sys.argv[1:] = ['gf', '--form', 'with-empty', '--terms', '100000000000000000000']\n"
            "raise SystemExit(entry())\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=30
        )
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == "error: out of memory\n"

    def test_unknown_method(self):
        result = run_cli("count", "--length", "4", "--method", "guess")
        assert result.returncode == 2

    def test_unknown_subcommand(self):
        result = run_cli("frobnicate")
        assert result.returncode == 2

    def test_unknown_flag(self):
        result = run_cli("count", "--length", "4", "--frob")
        assert result.returncode == 2

    def test_missing_argument(self):
        result = run_cli("count")
        assert result.returncode == 2


class _ClosedAfter(io.StringIO):
    # a reader such as `head -n <lines>` that leaves after its lines
    def __init__(self, lines):
        super().__init__()
        self.left = lines

    def write(self, text):
        if not self.left:
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")
        self.left -= text.count("\n")
        return super().write(text)


def test_main_lets_a_closed_pipe_through(int_digit_limit):
    with pytest.raises(BrokenPipeError):
        with contextlib.redirect_stdout(_ClosedAfter(1)):
            cli.main(["list", "--length", "8"])
    assert sys.get_int_max_str_digits() == 4300


@pytest.mark.parametrize("flag", [[], ["--json"]], ids=["text", "json"])
def test_a_head_of_a_long_listing_is_written_path_by_path(int_digit_limit, flag):
    sink = _ClosedAfter(1000)
    with pytest.raises(BrokenPipeError):
        with contextlib.redirect_stdout(sink):
            cli.main(["list", "--length", "200", *flag])
    assert sys.get_int_max_str_digits() == 4300
    write = paths.path_to_json if flag else paths.render_path
    head = itertools.islice(paths.enumerate_nondecreasing_filter(200), 1000)
    assert sink.getvalue().splitlines() == [write(p) for p in head]


@pytest.fixture
def judged(monkeypatch):
    """The paths handed to the module-level ``paths.is_nondecreasing``."""
    seen = []
    check = paths.is_nondecreasing

    def counted(path):
        seen.append(path)
        return check(path)

    monkeypatch.setattr(paths, "is_nondecreasing", counted)
    return seen


def test_list_judges_every_candidate(judged, capsys):
    # as the benchmark's tracer counts: a writer that judged paths itself,
    # or skipped candidates, would change the count
    assert cli.main(["list", "--length", "8"]) == 0
    assert len(judged) == 91
    assert len(capsys.readouterr().out.splitlines()) == 85


@pytest.mark.parametrize("flag", [[], ["--json"]], ids=["text", "json"])
def test_list_judges_every_candidate_past_the_threshold(judged, monkeypatch, flag):
    # paths of 60 steps resume from the prefix the walk shares, yet each
    # candidate the walk yields is still handed to the judge once
    pulled = []
    walk = paths.enumerate_deutsch

    def counted(n):
        for p in walk(n):
            pulled.append(p)
            yield p

    monkeypatch.setattr(paths, "enumerate_deutsch", counted)
    sink = _ClosedAfter(1000)
    with pytest.raises(BrokenPipeError):
        with contextlib.redirect_stdout(sink):
            cli.main(["list", "--length", "60", *flag])
    assert judged == pulled and len(pulled) > 1000
    write = paths.path_to_json if flag else paths.render_path
    head = itertools.islice(filter(reference_is_nondecreasing, walk(60)), 1000)
    assert sink.getvalue().splitlines() == [write(p) for p in head]


def test_the_first_line_needs_one_path(judged):
    pulled = []

    def stream():
        for p in paths.enumerate_nondecreasing_filter(1500):
            pulled.append(p)
            yield p

    assert next(paths._lines(stream(), paths._TEXT)) == "U " * 1499 + "D1499"
    assert len(pulled) == len(judged) == 1


@pytest.mark.parametrize(
    "argv, code", [(["count", "--length", "3"], 0), (["count", "--length", "-1"], 2)]
)
def test_main_restores_the_digit_limit(int_digit_limit, capsys, argv, code):
    assert cli.main(argv) == code
    assert sys.get_int_max_str_digits() == 4300


@pytest.mark.parametrize("length", [14, 1500])
def test_closed_pipe_ends_the_process_quietly(length):
    # the listing is far larger than a pipe buffer, so the writer is
    # still writing when the reader closes its end; at 1500 it never
    # ends in practice, so only the closed pipe stops the writer
    proc = subprocess.Popen(
        [sys.executable, "-m", "deutschpaths", "list", "--length", str(length)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == f"{'U ' * (length - 1)}D{length - 1}\n".encode()
    proc.stdout.close()
    _, stderr = proc.communicate(timeout=60)
    assert proc.returncode == 141
    assert stderr == b""


@pytest.fixture
def encoded(monkeypatch):
    """(record, text) for each record the package's shared JSON encoder writes."""
    seen = []
    encode = series._RECORD_ENCODER.encode

    def spy(record):
        seen.append((record, encode(record)))
        return seen[-1][1]

    monkeypatch.setattr(series._RECORD_ENCODER, "encode", spy)
    return seen


def test_each_record_writer_matches_json_dumps(encoded, capsys):
    # path and tree records are written without the encoder, so they
    # meet json.dumps here
    path_record = paths.path_to_json(paths.parse_path("U " * 40 + "D40 U D1"))
    tokens = ["U"] * 40 + ["D40", "U", "D1"]
    assert path_record == json.dumps({"steps": tokens}, separators=(",", ":"))
    tree_record = trees.tree_to_json(trees.path_to_tree(paths.parse_path("U U D2 U U D1 D1")))
    marks = {"backbone": ["d", "d"], "bundles": [[["s", "d"]], []]}
    assert tree_record == json.dumps(marks, separators=(",", ":"))
    huge = 10**4000 + 1  # inside the default int-to-str limit of 4,300 digits
    written = [series.coefficients_to_json("x", [Fraction(huge, 3), -huge, Fraction(-1, 2), 0])]
    assert cli.main(["table", "--max", "250", "--json"]) == 0
    assert cli.main(["verify", "--max", "0", "--json"]) == 0
    written += capsys.readouterr().out.splitlines()
    assert len(written) == len(encoded) > 1 + 251
    for text, (record, encoded_text) in zip(written, encoded):
        assert text == encoded_text == json.dumps(record, separators=(",", ":"))
    assert f'"{huge}/3","-{huge}","-1/2","0"' in written[0]


def test_output_is_deterministic():
    first = run_cli("table", "--max", "8", "--json")
    second = run_cli("table", "--max", "8", "--json")
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode == 0


class TestRepeatedCalls:
    """``main`` called again in one process: no state of one call reaches the next."""

    def test_the_parser_is_built_at_most_once(self, monkeypatch, capsys):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            if self.prog == "deutschpaths":  # the top parser, not a subcommand's
                built.append(self)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        calls = [["count", "--length", "5"], ["list", "--length", "2"], ["mountains", "--steps", "3"]]
        for argv in calls:
            assert cli.main(argv) == 0
        assert capsys.readouterr().out == "6\nU D1\n1\n"
        assert len(built) <= 1

    def test_a_flag_does_not_carry_over(self, capsys):
        assert cli.main(["list", "--length", "5", "--json"]) == 0
        assert capsys.readouterr().out.startswith('{"steps":["U","U","U","U","D4"]}\n')
        assert cli.main(["list", "--length", "5"]) == 0
        assert capsys.readouterr().out == (Path(__file__).parent / "golden/list-5.txt").read_text()

    def test_a_method_does_not_carry_over(self, monkeypatch, capsys):
        routes = []
        closed, form = numbers.count_nondecreasing_closed, series.named_form
        monkeypatch.setattr(
            numbers, "count_nondecreasing_closed", lambda n: routes.append("closed") or closed(n)
        )
        monkeypatch.setattr(
            series, "named_form", lambda name: routes.append("series") or form(name)
        )
        assert cli.main(["count", "--length", "9", "--method", "series"]) == 0
        assert cli.main(["count", "--length", "9"]) == 0
        assert capsys.readouterr().out == "204\n204\n"
        assert routes == ["series", "closed"]

    def test_a_usage_error_repeats_exactly(self, capsys):
        errors = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exit_info:
                cli.main(["count"])
            assert exit_info.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            errors.append(captured.err)
        assert errors[0] == errors[1]
        assert errors[0].endswith("error: the following arguments are required: --length\n")

    def test_help_repeats_exactly(self, capsys):
        helps = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exit_info:
                cli.main(["list", "--help"])
            assert exit_info.value.code == 0
            helps.append(capsys.readouterr().out)
        assert helps[0] == helps[1]
        assert helps[0].startswith("usage: deutschpaths list [-h] --length N [--json]\n")
