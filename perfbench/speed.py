"""Host speed, sampled alongside the measured work.

The benchmark runs on shared machines whose speed drifts, by up to 2x, in
phases of seconds to minutes.  Every pure-Python workload slows down
together in such a phase, so the ratio of a job's time to the time of a
fixed piece of Python work done at the same moment stays steady (within
about 3% over a minute in which wall times moved by 33%).

A `Sampler` times `kernel()` every SAMPLE_EVERY_S seconds from a SIGALRM
handler while the measured work runs.  `ref_seconds(start, end)` turns a
stretch of wall time into reference seconds: each piece of it between two
samples, less the kernel time, times REF_KERNEL_S over the median kernel
time of the SMOOTH samples around the one that ends the piece.  A long job
that spans a change of speed is thus scaled by its time-weighted speed, not
by the speed of one phase.  A reference second is the time in which the
machine runs the kernel 1/REF_KERNEL_S times; a code change to modext does
not move the kernel, so it moves reference seconds as much as wall seconds.
"""

from __future__ import annotations

import signal
import statistics
from bisect import bisect_left
from time import perf_counter

KERNEL_ITERATIONS = 6500
REF_KERNEL_S = 0.001    # kernel time on the reference machine
SAMPLE_EVERY_S = 0.05   # about 2% of the run goes to sampling
SMOOTH = 11             # samples in the median that sets the speed at one sample

_TABLE = dict.fromkeys(range(256), 0)


def kernel():
    """Fixed pure-Python work.  It allocates no container, so a large heap
    left by the program does not make the garbage collector run inside it."""
    table = _TABLE
    for i in range(KERNEL_ITERATIONS):
        k = i & 255
        table[k] = table[k] ^ i


class Sampler:
    """Kernel times sampled at regular intervals of wall time."""

    def __init__(self):
        self.stamps = []    # perf_counter at the end of each sample
        self.costs = []     # kernel seconds of each sample
        self._scales = []   # reference seconds per wall second at each sample
        self._previous = None

    def sample(self, *_):
        t0 = perf_counter()
        kernel()
        t1 = perf_counter()
        self.stamps.append(t1)
        self.costs.append(t1 - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self) -> float:
        """REF_KERNEL_S over the median kernel time of the whole run."""
        return REF_KERNEL_S / statistics.median(self.costs)

    def _sample_scales(self) -> list:
        n = len(self.costs)
        if len(self._scales) != n:
            half = SMOOTH // 2
            self._scales = [
                REF_KERNEL_S / statistics.median(self.costs[max(0, k - half):k + half + 1])
                for k in range(n)]
        return self._scales

    def ref_seconds(self, start, end) -> float:
        """Wall seconds in [start, end], less the sampling in it, in
        reference seconds.  A sample ends at its stamp and ran entirely
        inside or outside the stretch, since the handler runs between two
        bytecodes of the measured code."""
        scales = self._sample_scales()
        k = bisect_left(self.stamps, start)
        total, t = 0.0, start
        while k < len(self.stamps) and self.stamps[k] < end:
            total += (self.stamps[k] - self.costs[k] - t) * scales[k]
            t = self.stamps[k]
            k += 1
        return total + (end - t) * scales[min(k, len(scales) - 1)]
