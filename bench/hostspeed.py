"""Host-speed calibration.

On a shared machine the speed of the host drifts by tens of percent
over seconds, and every operation timed in that interval drifts with it.
The benchmark therefore runs a fixed loop that does not use promisekit
between operations, at least every ``CALIBRATE_EVERY_S`` seconds, and
scales each operation's wall time by the loop's speed around it:
reported times are seconds on a host where the loop takes ``REFERENCE_S``
(about its time on the machine the baseline was taken on). Set-up times
are scaled the same way by ``setup_loop``, against ``SETUP_REFERENCE_S``.
"""

from __future__ import annotations

import gc
import marshal
import statistics
import time

REFERENCE_S = 0.004
SETUP_REFERENCE_S = 0.017
CALIBRATE_EVERY_S = 0.5
NEAREST = 9


def calibration_loop() -> int:
    # Hashing, small allocations, string formatting and sorting: the kind
    # of work the interpreter does for promisekit, which tracks the host's
    # speed for it far better than pure arithmetic does.
    table = {}
    for i in range(1500):
        table[frozenset((i % 97, i % 89, f"x{i % 50}"))] = (f"a{i}", i)
    return len(sorted(str(key) for key in table))


# A fixed module of 60 classes and 60 functions, for ``setup_loop``.
SETUP_SOURCE = "\n".join(
    f"class C{i}:\n"
    f"    def __init__(self, a, b={i}):\n"
    f"        self.a = [a, b, {{'k{i}': (a, b)}}]\n"
    f"    def m(self, x):\n"
    f"        if x > {i} and self.a:\n"
    f"            return sorted(y for y in self.a if y)\n"
    f"        return f'c{i}{{x}}'\n"
    f"def f{i}(p, *q, **r):\n"
    f"    for k, v in r.items():\n"
    f"        p = p + len(q) * {i} if k else p\n"
    f"    return p\n"
    for i in range(60)
)


def setup_loop() -> None:
    # Set-up is mostly loading and running module code: compiling and
    # unmarshalling a fixed module on top of the calibration loop tracks
    # the host's speed for it about twice as well as that loop alone.
    calibration_loop()
    marshal.loads(marshal.dumps(compile(SETUP_SOURCE, "<setup>", "exec")))


def calibrate(loop=calibration_loop) -> float:
    """Median seconds of three runs of ``loop``, now.

    The loop runs with the garbage collector off, so that its time does
    not depend on the program's heap or GC settings, and its allocations
    trigger no collections that would be counted against the program."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(3):
            start = time.perf_counter()
            loop()
            times.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


class HostSpeed:
    """Calibrations taken during a run, and the scaling they imply."""

    def __init__(self) -> None:
        self.points: list[tuple[float, float]] = []  # (when, loop seconds)

    def maybe_calibrate(self, force: bool = False) -> None:
        """Calibrates if forced or the last calibration is stale."""
        now = time.perf_counter()
        if force or not self.points or now - self.points[-1][0] >= CALIBRATE_EVERY_S:
            self.points.append((now, calibrate()))

    def scale(self, start: float, end: float) -> float:
        """Factor for an operation timed from ``start`` to ``end``: the
        reference over the median of the ``NEAREST`` calibrations nearest
        to its midpoint. Single calibrations jitter by tens of percent;
        the median of nine spans a few seconds, which is short against
        the host's drift, however long the operations are."""
        middle = (start + end) / 2
        nearest = sorted(self.points, key=lambda point: abs(point[0] - middle))[:NEAREST]
        return REFERENCE_S / statistics.median(loop for _, loop in nearest)
