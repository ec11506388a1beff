"""Machine-speed sampling, so that timings compare across a noisy host.

On the 2-core VM this benchmark was built on, the same Python loop runs up
to 50% slower for seconds at a time while other tenants load the host;
process CPU time moves with wall time, so it does not help.  Every reported
op time is therefore scaled to a reference speed:

    reference seconds = work seconds * REFERENCE_KERNEL_NS / kernel_ns

where ``kernel_ns`` is the mean time of a fixed calibration kernel sampled
*while the timed work runs*: a ``SIGALRM`` interval timer interrupts the
work every ``SAMPLE_EVERY_S`` and times one kernel run, and the work clock
leaves that time out.  The kernel does what the program spends its time on
-- sparse polynomial products over dicts keyed by exponent tuples,
fraction-free big-integer elimination and ``Fraction`` arithmetic -- so a
host slowdown hits both alike.  On that VM, for a 4 s op repeated eight
times, sampling inside the op cut the spread (stdev / mean) from 8.6% raw
to 3.9%, where kernels timed just before and after each op gave 13%.  Raw
wall times are printed next to every scaled metric.
"""

from __future__ import annotations

import random
import signal
import statistics
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter_ns
from typing import Iterator

# Mean kernel time on the machine that defined the benchmark (2-core Intel
# Xeon VM, Python 3.11.7).  A constant, so scaled times stay comparable
# between commits and runs.
REFERENCE_KERNEL_NS = 4_500_000

# One kernel run (~4.5 ms) every 0.1 s of wall time costs ~4.5% of a run.
SAMPLE_EVERY_S = 0.1
# factor() tops the samples of a window up to this many with kernels run
# between ops, for windows too short to have been sampled enough.
MIN_SAMPLES = 5

_POLY = {(i, j): (3**41 + 7 * i - j) * (-1) ** (i + j) for i in range(13) for j in range(13 - i)}
_rng = random.Random(1)
_MATRIX = [[_rng.getrandbits(64) - (1 << 63) for _ in range(16)] for _ in range(16)]


def _kernel() -> None:
    """A sparse polynomial square over dicts, a fraction-free (Bareiss)
    integer determinant whose entries grow to ~1000 bits, and a
    ``Fraction`` sum: the three kinds of work the program does."""
    out: dict[tuple[int, int], int] = {}
    for (a, b), c in _POLY.items():
        for (d, e), f in _POLY.items():
            key = (a + d, b + e)
            out[key] = out.get(key, 0) + c * f
    m = [row[:] for row in _MATRIX]
    prev = 1
    for k in range(len(m) - 1):
        for i in range(k + 1, len(m)):
            for j in range(k + 1, len(m)):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    total = Fraction(0)
    for i in range(1, 120):
        total += Fraction(i, i + 1)


def _timed_kernel() -> int:
    start = perf_counter_ns()
    _kernel()
    return perf_counter_ns() - start


class Speedometer:
    """Samples the kernel while timed work runs.

    Inside ``sampling()``, time the work with ``clock()``: nanoseconds that
    leave out the samples taken meanwhile.  ``factor()`` turns the work
    timed since its previous call into reference time.
    """

    def __init__(self) -> None:
        self._samples: list[int] = []
        self._stolen_ns = 0

    def _sample(self, signum: int, frame: object) -> None:
        ns = _timed_kernel()
        self._samples.append(ns)
        self._stolen_ns += ns

    @contextmanager
    def sampling(self) -> Iterator[None]:
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def clock(self) -> int:
        """perf_counter_ns() minus the time spent in samples so far."""
        while True:
            stolen = self._stolen_ns
            now = perf_counter_ns()
            if stolen == self._stolen_ns:  # no sample ran in between
                return now - stolen

    def factor(self) -> float:
        """Reference factor for the work since the previous call: the
        reference kernel time over the mean of the samples taken since."""
        samples, self._samples = self._samples, []
        samples += [_timed_kernel() for _ in range(MIN_SAMPLES - len(samples))]
        return REFERENCE_KERNEL_NS / statistics.fmean(samples)
