"""Reference values and output checks, held by the benchmark itself.

Nothing here imports ``deutschpaths``.  Counts come from the recurrence
a(n) = 2a(n-1) + 2a(n-2) - 2a(n-3) - a(n-4) seeded 1, 0, 1, 1; each
``gf`` form has its own integer recurrence or closed sequence; paths are
judged by a walker written here.  A check never compares one route of
the package with another.

No interpreter-wide setting is changed: decimal outputs longer than the
int-to-str limit are read in chunks of at most 4,000 digits.
"""

from __future__ import annotations

import json
from itertools import islice
from typing import Iterator

DIGIT_CHUNK = 4000
_CHUNK_SCALE = 10**DIGIT_CHUNK
# The CLI's default --brute-cap: table rows up to it carry a brute count.
BRUTE_CAP = 14


def count_stream() -> Iterator[int]:
    """a(0), a(1), ...: weakly-increasing-valley paths of each length."""
    w = [1, 0, 1, 1]
    yield from w
    a4, a3, a2, a1 = w
    while True:
        a4, a3, a2, a1 = a3, a2, a1, 2 * a1 + 2 * a2 - 2 * a3 - a4
        yield a1


def counts(top: int) -> list[int]:
    return list(islice(count_stream(), top + 1))


def counts_at(lengths) -> dict[int, int]:
    """a(n) for each n in ``lengths``, in one pass that keeps only those."""
    wanted = set(lengths)
    out = {}
    for n, value in enumerate(islice(count_stream(), max(wanted, default=-1) + 1)):
        if n in wanted:
            out[n] = value
    return out


def fibonacci(top: int) -> list[int]:
    """F(-1), F(0), ..., F(top) with F(-1) = 1, F(0) = 0, F(1) = 1; index k+1 holds F(k)."""
    out = [1, 0]
    while len(out) < top + 2:
        out.append(out[-1] + out[-2])
    return out


def _expand(numerator: tuple[int, ...], denominator: tuple[int, ...], order: int) -> list[int]:
    # integer coefficients of P/Q with Q[0] = 1
    out: list[int] = []
    for n in range(order + 1):
        acc = numerator[n] if n < len(numerator) else 0
        for i in range(1, min(n, len(denominator) - 1) + 1):
            acc -= denominator[i] * out[n - i]
        out.append(acc)
    return out


def form_sequence(form: str, order: int) -> list[int]:
    """Coefficients 0..order of a named generating function.

    The four continued-fraction shapes and the partial fractions expand
    to the path counts a(n); the others are shifted or interleaved
    Fibonacci numbers, a Jacobsthal sequence, and one more recurrence
    worked out by hand from the three-layer staircase.
    """
    fib = fibonacci(2 * order + 2)

    def f(k: int) -> int:
        return fib[k + 1]

    if form in ("with-empty", "partial-fractions", "continued-fraction", "cf-closure", "tree-form"):
        return counts(order)
    if form == "product":  # the same paths without the empty one
        return [0] + counts(order)[1:]
    if form == "mountain":  # z^2 / (1 - z - z^2)
        return [f(n - 1) if n >= 2 else 0 for n in range(order + 1)]
    if form == "bundle":  # 1 / (1 - mountain): 1 then Jacobsthal J(n-1)
        return [1] + [(2 ** (n - 1) - (-1) ** (n - 1)) // 3 for n in range(1, order + 1)]
    if form == "gamma":  # z^2 (1 - z - z^2) / (1 - 2z - z^2 + z^3)
        return _expand((0, 0, 1, -1, -1), (1, -2, -1, 1), order)
    if form == "dyck-nondecreasing":  # F(2n - 1)
        return [f(2 * n - 1) for n in range(order + 1)]
    if form == "square-first-tilings":  # (1 - z^2) / (1 - z - z^2)
        return [1] + [f(n) for n in range(1, order + 1)]
    if form == "edge-or-path":  # z times the square-first series
        return [0, 1][: order + 1] + [f(n - 1) for n in range(2, order + 1)]
    raise KeyError(form)


def parse_decimal(text: str) -> int:
    """Read a nonnegative decimal of any length without the int-to-str limit."""
    if not (text.isascii() and text.isdigit()) or (len(text) > 1 and text[0] == "0"):
        raise ValueError(f"not a decimal integer: {text[:40]!r}")
    head = len(text) % DIGIT_CHUNK or DIGIT_CHUNK
    value = int(text[:head])
    for i in range(head, len(text), DIGIT_CHUNK):
        value = value * _CHUNK_SCALE + int(text[i : i + DIGIT_CHUNK])
    return value


def path_key(tokens: list[str]) -> tuple[int, ...]:
    """Steps as integers, U -> 0 and Dk -> k, so that tuple order is the
    canonical order U < D1 < D2 < ...; rejects malformed tokens."""
    key = []
    for token in tokens:
        if token == "U":
            key.append(0)
        elif token[:1] == "D" and token[1:2] in "123456789" and token[1:].isdigit():
            key.append(int(token[1:]))
        else:
            raise ValueError(f"bad step token {token!r}")
    return tuple(key)


def check_path(key: tuple[int, ...], length: int) -> None:
    """Raise ValueError unless ``key`` is a Deutsch path of ``length`` steps
    whose valley levels never decrease."""
    if len(key) != length:
        raise ValueError(f"path has {len(key)} steps, expected {length}")
    height = 0
    floor = 0  # lowest level the next valley may have
    after_down = False
    for step in key:
        if step == 0:
            if after_down:
                if height < floor:
                    raise ValueError("valley levels decrease")
                floor = height
            height += 1
            after_down = False
        else:
            height -= step
            if height < 0:
                raise ValueError("path dips below ground")
            after_down = True
    if height:
        raise ValueError("path does not end on the ground")


def _path_lines(text: str) -> Iterator[str]:
    """The lines of ``text`` one at a time, without a list of them all."""
    if text and not text.endswith("\n"):
        raise ValueError("output does not end with a newline")
    start = 0
    while start < len(text):
        end = text.index("\n", start)
        yield text[start:end]
        start = end + 1


def line_key(line: str, as_json: bool) -> tuple[int, ...]:
    """One ``list`` output line as a path key."""
    if not as_json:
        return path_key(line.split(" "))
    record = json.loads(line)
    if not isinstance(record, dict) or set(record) != {"steps"}:
        raise ValueError(f"bad path record {line[:60]!r}")
    tokens = record["steps"]
    if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
        raise ValueError(f"bad path record {line[:60]!r}")
    return path_key(tokens)


def check_list(text: str, length: int, as_json: bool, lines: int) -> int:
    """Every line a valid path of ``length``, strictly rising in canonical
    order (hence distinct), and exactly ``lines`` of them.  Lines are read
    one at a time and only the previous key is kept, so checking takes
    little memory beside the text.  Returns the number of lines."""
    previous = None
    seen = 0
    for line in _path_lines(text):
        key = line_key(line, as_json)
        check_path(key, length)
        if previous is not None and key <= previous:
            raise ValueError("lines are not distinct and in canonical order")
        previous = key
        seen += 1
    if seen != lines:
        raise ValueError(f"{seen} lines, expected {lines}")
    return seen


def check_count(text: str, expected: int) -> None:
    if not text.endswith("\n") or parse_decimal(text[:-1]) != expected:
        raise ValueError("wrong count")


def check_gf(text: str, form: str, order: int, as_json: bool) -> None:
    expected = [str(c) for c in form_sequence(form, order)]
    if not text.endswith("\n"):
        raise ValueError("output does not end with a newline")
    if as_json:
        record = json.loads(text)
        if record != {"form": form, "coeffs": expected}:
            raise ValueError("wrong gf record")
    elif text[:-1].split(", ") != expected:
        raise ValueError("wrong coefficients")


def check_verify(text: str) -> None:
    lines = text.split("\n")
    if lines[-1] != "" or lines[-2] != "21/21 checks passed":
        raise ValueError("verify did not report 21/21 checks passed")
    if len(lines) != 23 or not all(line.startswith("PASS ") for line in lines[:-2]):
        raise ValueError("verify printed other than 21 PASS lines")


def check_table(text: str, top: int, as_json: bool) -> None:
    """Each row n holds a(n) as closed and series count, and as brute count
    up to ``BRUTE_CAP``, with agreement marked."""
    expected = counts(top)
    lines = text.split("\n")
    if lines[-1] != "":
        raise ValueError("output does not end with a newline")
    rows = lines[:-1]
    if not as_json:
        if rows[:1] != ["n\tclosed\tseries\tbrute\tagree"]:
            raise ValueError("missing table header")
        rows = rows[1:]
    if len(rows) != top + 1:
        raise ValueError(f"{len(rows)} rows, expected {top + 1}")
    for n, (row, value) in enumerate(zip(rows, expected)):
        brute = value if n <= BRUTE_CAP else None
        if as_json:
            want = {"n": n, "closed": value, "series": value, "brute": brute, "agree": True}
            ok = json.loads(row) == want
        else:
            cell = "-" if brute is None else str(brute)
            ok = row == f"{n}\t{value}\t{value}\t{cell}\tyes"
        if not ok:
            raise ValueError(f"wrong table row {n}")


def check_tree(text: str, expected: dict) -> None:
    if not text.endswith("\n") or json.loads(text) != expected:
        raise ValueError("wrong tree record")


def check_path_output(text: str, path: str) -> None:
    if text != path + "\n":
        raise ValueError("path did not round trip")


def completions(width: int, steps: int) -> list[list[int]]:
    """rows[r][h]: Deutsch paths of r steps from level h to the ground.

    An up-step goes to h+1, a down-step of size t to h-t >= 0.  Row r is
    exact for h < width - r, which is all a caller asking about heights
    below ``width - steps`` needs.
    """
    rows = [[1] + [0] * (width - 1)]
    for r in range(1, steps + 1):
        prev = rows[-1]
        row = [0] * width
        below = 0  # paths from the levels under h
        for h in range(width):
            row[h] = (prev[h + 1] if h + 1 < width else 0) + below
            below += prev[h]
        rows.append(row)
    return rows


def deutsch_count(length: int) -> int:
    """All Deutsch paths of ``length`` steps."""
    return completions(length + 2, length)[length][0]


def deutsch_rank(key: tuple[int, ...]) -> int:
    """Number of Deutsch paths of the same length before ``key`` in
    canonical order: for each down-step, the completions of every smaller
    step (U, then D1 .. D(k-1)) taken at the same point."""
    first_down = next((i for i, s in enumerate(key) if s), len(key))
    steps = len(key) - first_down
    top = 0
    height = 0
    for s in key:
        height += 1 if s == 0 else -s
        top = max(top, height)
    rows = completions(top + steps + 2, steps)
    rank = 0
    height = 0
    left = len(key)
    for s in key:
        left -= 1
        if s:
            row = rows[left]
            rank += row[height + 1] + sum(row[height - t] for t in range(1, s))
            height -= s
        else:
            height += 1
    return rank
