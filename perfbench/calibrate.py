"""Host-speed calibration for timings taken on a shared machine.

On a host whose other tenants come and go, the same Python code runs up
to 1.7 times slower for seconds at a stretch, so raw wall times of one
run spread by 15 to 40 percent from the next.  Each timing is therefore
taken between two runs of a fixed calibration loop and scaled by
``REFERENCE_S`` over the loop's mean time: the result is the wall time
the call would have taken with the loop running at its reference speed.

The correction is for host speed as measured around each call, and only
that.  The loop is the benchmark's own code, but it runs in the program's
interpreter and heap: the runner collects garbage before the first loop,
yet a collection set off by objects the call left alive can still land
in the second and shrink the factor.  Each loop samples about a
millisecond on each side of the call, so contention that comes and goes
inside a call of several seconds is not seen.
"""

from __future__ import annotations

import time

# Time of one calibration() on an idle core of the host the benchmark was
# written on (Python 3.11); timings are reported at this speed.
REFERENCE_S = 0.00084


def calibration() -> int:
    """A little of each kind of work the CLI does: interpreter arithmetic,
    small objects in lists and dicts, and one big-integer product.  Other
    tenants slow these unequally, so a loop of one kind alone would leave
    much of the slowdown of the others in the scaled times."""
    total = 0
    for i in range(3000):
        total += i * i
    rows = [(i, str(i)) for i in range(1500)]
    index = {text: number for number, text in rows}
    big = 7**12000
    return total + len(index) + (big * big) % 1000


def loop_seconds() -> float:
    start = time.perf_counter()
    calibration()
    return time.perf_counter() - start


def speed_factor(before: float, after: float) -> float:
    """Factor that takes a wall time measured between two calibration runs
    of ``before`` and ``after`` seconds to the reference speed."""
    return REFERENCE_S * 2 / (before + after)
