"""Host-speed track: a fixed reference kernel timed between ops.

The host this benchmark was written on runs the same code up to 2x slower
from one 20 s window to the next (other tenants share its cores). A kernel of
the same kind of work as an apexsim op - numpy scalar reads into small
objects, tuple building, heapify, a dict, and numpy arithmetic on a
4096-element array - slows down with it, so each timed interval is rescaled
by REF_NS over the mean of the two kernel timings around it; the kernel runs
at least every INTERVAL_NS, because the host's speed changes within a tenth
of a second. The result reads as host time on a machine where the kernel
takes REF_NS. The kernel is part of the benchmark and runs with the garbage
collector off, so neither a change to apexsim nor the number of objects it
keeps alive can move it.
"""

import gc
import heapq
import time

REF_NS = 1_000_000  # the kernel's duration on the reference host
INTERVAL_NS = 20_000_000  # at most this much work between two kernel timings
PROBE_MARKS = 5  # kernel timings whose median a set-up probe reports


class _Factors:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


class SpeedTrack:
    def __init__(self, np):
        self._arr = np.linspace(0.0, 1.0, 4096) ** 2
        self._ints = np.arange(4096, dtype=np.int64) % 7
        self.marks = []  # (start_ns, kernel_ns) of each kernel timing
        self.kernel_ns = 0  # total time spent in the kernel

    def _kernel(self):
        arr, ints = self._arr, self._ints
        pairs = []
        for i in range(0, 4096, 4):
            f = _Factors(int(ints[i]), float(arr[i]))
            pairs.append((-(4 * f.a - 7 * f.b + 0.5), i))
        heapq.heapify(pairs)
        slot = {a: j for j, (_, a) in enumerate(pairs)}
        for _ in range(4):
            b = (arr * 3.0 - arr) / 2.0
            b[b > 0.5] = 0.0
        return len(slot) + float(b[-1])

    def mark(self):
        gc.disable()
        try:
            start = time.perf_counter_ns()
            self._kernel()
            k = time.perf_counter_ns() - start
        finally:
            gc.enable()
        self.marks.append((start, k))
        self.kernel_ns += k

    def maybe_mark(self, now_ns):
        start, k = self.marks[-1]
        if now_ns - start - k >= INTERVAL_NS:
            self.mark()

    def scale(self, intervals):
        """Rescale (start_ns, duration_ns) intervals, each lying between two
        marks, by REF_NS over the mean of those two marks' kernel times."""
        out = []
        j = 1
        for start, dur in intervals:
            while self.marks[j][0] < start:
                j += 1
            k = (self.marks[j - 1][1] + self.marks[j][1]) / 2
            out.append(dur * REF_NS / k)
        return out

    def segments(self):
        """The spans of time between consecutive marks, as intervals."""
        return [(s0 + k0, s1 - s0 - k0) for (s0, k0), (s1, _k1) in zip(self.marks, self.marks[1:])]
