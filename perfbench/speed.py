"""The machine's single-thread speed, sampled during a run.

On a shared 2-vCPU Xeon VM the speed of one Python thread switches
between a fast and a slow level about 1.8x apart, within milliseconds and
in phases of seconds to minutes, with no steal time reported and CPU time
tracking wall time.  Raw op times, best or median, then follow the
machine's share of slow time and spread by 25-40% between runs of the
same code.

A :class:`Speedometer` runs a fixed pure-Python kernel (sparse polynomial
products over tuple monomials with big-integer coefficients, ``Fraction``
arithmetic and sorting: the kinds of work the package does) every
``SAMPLE_INTERVAL_S`` seconds from an interval timer, also in the middle
of an op.  :meth:`Speedometer.scale` turns an op's time into seconds at a
fixed reference speed: the op's time times ``REFERENCE_KERNEL_S`` over the
mean kernel time during the op.  The kernel lives here, outside ``src/``,
so a change to the package cannot change it.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from array import array
from bisect import bisect_left, bisect_right
from fractions import Fraction

# Kernel seconds at the reference speed, a little above the kernel's time
# on the fast level of a 2-vCPU Xeon VM (0.85 ms).  Scaled times read as
# seconds on a machine that runs the kernel in this time.
REFERENCE_KERNEL_S = 0.001
SAMPLE_INTERVAL_S = 0.025
WINDOW_S = 0.02

_LEFT = {(i, j, 3 - i): (7 ** (i + 9)) * (j + 1) for i in range(4) for j in range(6)}
_RIGHT = {(j, i, 1): (11 ** (j + 5)) - i for i in range(6) for j in range(4)}
_FRACTIONS = [Fraction(7 * i + 1, i + 3) for i in range(40)]


def kernel() -> tuple[int, Fraction, int]:
    """A fixed amount of dict, tuple, big-integer, ``Fraction`` and
    sorting work."""
    size = 0
    for _ in range(3):
        out: dict[tuple[int, int, int], int] = {}
        for ma, ca in _LEFT.items():
            for mb, cb in _RIGHT.items():
                m = (ma[0] + mb[0], ma[1] + mb[1], ma[2] + mb[2])
                c = out.get(m, 0) + ca * cb
                if c:
                    out[m] = c
                else:
                    out.pop(m, None)
        size += len(out)
    total = Fraction(0)
    for a, b in zip(_FRACTIONS, _FRACTIONS[1:]):
        total += a * b - b / (a + 1)
    items = sorted(((37 * i) % 101, (13 * i) % 7, i) for i in range(120))
    items.sort(key=lambda t: (t[1], -t[0]))
    table: dict[tuple[int, int], int] = {}
    for x, y, z in items:
        table[x, y] = table.get((y, x), 0) + z
    return size, total, len(table)


def kernel_seconds() -> float:
    """One timing of :func:`kernel`, after an untimed run that brings its
    code and data back into the caches, and with the garbage collector off
    so that no collection of the program's objects falls into it.  Neither
    what the program left in the caches nor the size of its heap changes
    the sample, only the speed of the machine."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        kernel()
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Speedometer:
    """Kernel timings taken every ``interval`` seconds by an interval timer,
    each stamped with the middle of its run.

    Inside a ``with`` block the timer's signal handler runs the kernel in
    the middle of whatever the process is doing, so the speed is sampled
    during long ops too; one more sample is taken on entering and on
    leaving the block, so every op in it has a sample on either side; ``spent`` adds up the handler's time, which the
    caller takes off the time of the op it fell into.
    """

    def __init__(self, interval: float = SAMPLE_INTERVAL_S):
        self.interval = interval
        self.at = array("d")
        self.kernel_s = array("d")
        self.spent = 0.0
        self._saved_handler = None

    def sample(self, *_signal) -> None:
        start = time.perf_counter()
        self.kernel_s.append(kernel_seconds())
        end = time.perf_counter()
        self.at.append((start + end) / 2)
        self.spent += end - start

    def __enter__(self) -> "Speedometer":
        self.sample()
        self._saved_handler = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved_handler)
        self.sample()

    def scale(self, start: float, end: float) -> float:
        """``REFERENCE_KERNEL_S`` over the mean kernel time of the samples
        from ``WINDOW_S`` before ``start`` to ``WINDOW_S`` after ``end``,
        and at least the last sample before ``start`` and the first after
        ``end``.

        An op longer than the sampling interval is scaled by the samples
        taken during it; a shorter one by the few samples next to it.
        """
        first = min(bisect_left(self.at, start - WINDOW_S), bisect_right(self.at, start) - 1)
        last = max(bisect_right(self.at, end + WINDOW_S), bisect_left(self.at, end) + 1)
        window = self.kernel_s[max(first, 0) : min(last, len(self.at))]
        return REFERENCE_KERNEL_S / statistics.fmean(window)
