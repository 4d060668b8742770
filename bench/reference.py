"""Speed reference: a fixed pure-Python kernel timed around and during items.

Other tenants of a shared machine switch it between a fast and a slow
state (about 1.7 times slower) for stretches from a second to longer than
a run, and the process CPU clock slows with the wall clock.  The
benchmark therefore times this kernel before and after every item and,
on a timer signal, every ``INTERVAL_S`` while the item runs.  An item's
time, less the time its in-item samples took, is divided by the mean of
its samples and multiplied by ``NOMINAL_S``, the kernel's time in the
fast state; that takes the machine's state out of the figure.

The kernel is the inner loop of an exact sparse polynomial product
(tuples, a dict and ``Fraction``), written here rather than imported, so
no change to the program moves it.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

NOMINAL_S = 0.006  # kernel time on an unloaded 2-core x86-64 VM, CPython 3.11
INTERVAL_S = 0.2

_A = {(i % 5, i % 3, i % 4): Fraction(i % 7 + 1, i % 5 + 2) for i in range(40)}
_B = {(i % 4, i % 6, i % 2): Fraction(i % 3 + 1, i % 7 + 3) for i in range(40)}


def kernel_seconds() -> float:
    start = time.perf_counter()
    for _ in range(4):
        out = {}
        for e1, c1 in _A.items():
            for e2, c2 in _B.items():
                e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
                out[e] = out.get(e, 0) + c1 * c2
    return time.perf_counter() - start


class Clock:
    """Times calls and samples the kernel around and during them.

    ``sample_during=False`` keeps the timer off, for runs whose spans must
    not contain kernel samples.
    """

    def __init__(self, sample_during: bool = True):
        self.sample_during = sample_during
        self._before = kernel_seconds()
        self.kernel_samples = [self._before]

    def time(self, fn, *args):
        """Run ``fn(*args)``; return its result, its time and the speed factor.

        The time excludes the in-item samples; the time times the factor
        is the time in reference seconds.
        """
        during = []
        paused = 0.0

        def sample(signum, frame):
            nonlocal paused
            start = time.perf_counter()
            during.append(kernel_seconds())
            paused += time.perf_counter() - start

        previous = signal.signal(signal.SIGALRM, sample) if self.sample_during else None
        if self.sample_during:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            elapsed = time.perf_counter() - start - paused
            if self.sample_during:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        after = kernel_seconds()
        samples = [self._before, *during, after]
        self.kernel_samples.extend(during + [after])
        self._before = after
        return result, elapsed, NOMINAL_S * len(samples) / sum(samples)
