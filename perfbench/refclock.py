"""A reference kernel that measures the host's current speed.

The host this benchmark runs on is a share of a larger machine, and its
speed drifts by up to about 1.5x within seconds (a fixed NumPy loop shows
it as much as linkctl does; CPU time drifts with wall time, so it is not
time lost to other processes).  Run-to-run spreads of raw wall times are
then set by the host, not by the program.

So the benchmark runs this kernel, which is its own code and never changes
with linkctl, between every two operations and, from a timer signal, every
``INTERVAL_S`` during them.  Each operation's wall time, less the time spent
in the kernel, is scaled by ``REF_NOMINAL_S`` over the mean kernel time from
just before to just after it.  Every time the benchmark reports is in
*nominal seconds*: seconds on a host on which a kernel sample takes
``REF_NOMINAL_S``.  The kernel does what linkctl's hot loops do: Python
control flow around SVDs and products of small matrices.
"""

from __future__ import annotations

import contextlib
import gc
import signal
import statistics
import time

import numpy as np

# Median RefClock.sample() time on the 2-core x86-64 host the bounds were set on.
REF_NOMINAL_S = 0.00104
INTERVAL_S = 0.05  # timer period of the samples taken during an operation

# A closed chain of six bars with two diagonals in the plane, and a start
# off its constraint set.
_EDGES = [(i, (i + 1) % 6) for i in range(6)] + [(0, 3), (1, 4)]
_U, _V = np.array(_EDGES).T
_RNG = np.random.default_rng(0)
_TARGET = _RNG.uniform(1.0, 2.0, len(_EDGES))
_START = _RNG.standard_normal((6, 2))


def kernel() -> float:
    """Damped Gauss-Newton steps written the way linkctl writes them."""
    p = _START.copy()
    total = 0.0
    for _ in range(8):
        jac = np.zeros((len(_EDGES), p.size))
        for i, (u, v) in enumerate(_EDGES):
            g = 2.0 * (p[u] - p[v])
            jac[i, 2 * u : 2 * u + 2] = g
            jac[i, 2 * v : 2 * v + 2] = -g
        diff = p[_U] - p[_V]
        res = np.einsum("ij,ij->i", diff, diff) - _TARGET
        sv = np.linalg.svd(jac, compute_uv=False)
        step = np.linalg.lstsq(jac, -res, rcond=None)[0]
        p = p + 0.5 * step.reshape(p.shape)
        total += float(np.max(np.abs(res))) + float(sv[0])
    return total


class RefClock:
    """Kernel samples of one run, and the scale they give each operation."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.scales: list[float] = []
        self.paused = 0.0  # seconds spent sampling
        self._busy = False
        self._during: list[float] = []  # timer samples since the last scale()
        self.last = self.sample()

    def now(self) -> float:
        """A clock that stops while the kernel runs."""
        return time.perf_counter() - self.paused

    def sample(self) -> float:
        """The faster of two kernel runs: an interrupt can only slow one.

        The garbage collector is off meanwhile: a collection of the
        program's heap would time the heap, not the host.
        """
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        times = []
        for _ in range(2):
            t0 = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - t0)
        self.paused += time.perf_counter() - start
        if collecting:
            gc.enable()
        self._busy = False
        self.samples.append(min(times))
        return self.samples[-1]

    @contextlib.contextmanager
    def periodic(self):
        """Also sample every INTERVAL_S from a timer signal while inside."""

        def on_timer(signum, frame):
            if not self._busy:
                self._during.append(self.sample())

        previous = signal.signal(signal.SIGALRM, on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def begin(self) -> None:
        """An operation starts now: drop timer samples taken since ``last``."""
        self._during = []

    def scale(self) -> float:
        """Scale of the operation that ended just now, since ``last``."""
        self._busy = True  # a timer sample now would be neither during nor after
        during, self._during = self._during, []
        before, self.last = self.last, self.sample()
        refs = [before, *during, self.last]
        scale = REF_NOMINAL_S * len(refs) / sum(refs)
        self.scales.append(scale)
        return scale

    def median_scale(self) -> float:
        return statistics.median(self.scales) if self.scales else 1.0
