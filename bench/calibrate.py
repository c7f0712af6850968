"""Host-speed reference: a fixed slice of work timed between operations.

The machine this benchmark runs on shares its cores with other tenants, and
their load changes how fast the same code runs by up to 2x within minutes.
The timed loop therefore interleaves a reference slice with the workload
(about one tenth of the loop time) and scales timings by
``NOMINAL_S / mean slice time``, so a run on a host that is momentarily
slower reads the same as one on a quiet host.  Throughput is scaled by the
mean over the whole loop.  Each latency is scaled by the mean over the
slices within about a second of it, because the slowest operations are
often the ones that ran while the host was slowest.  Each set-up child
times its own slices right after its import.

The slice never calls lerchzeta, so a change to the package moves the
scaled timings exactly as it moves the raw ones.  It mixes what lerchzeta's
own hot paths do: scalar complex arithmetic and ``cmath`` calls in the
interpreter, and numpy on 15-point arrays as in one Gauss-Kronrod panel.
"""

from __future__ import annotations

import cmath
import time

import numpy as np

# Mean time of one slice on a 2-vCPU Intel Xeon VM (Python 3.11, numpy 2.4);
# scaled timings read as seconds on a machine that runs the slice that fast.
NOMINAL_S = 1.2e-4

SHARE = 0.1  # of the loop's time spent on reference slices
BUCKET_S = 0.5  # a latency is scaled by the slices of its bucket and the two next to it

_NODES = np.linspace(-1.0, 1.0, 15)
_WEIGHTS = np.full(15, 2.0 / 15)
_store = [0j] * 64


def reference_slice() -> complex:
    """One fixed unit of work; complex values are not tracked by the garbage collector."""
    z = 0.3 + 0.7j
    acc = 0j
    for k in range(1, 200):
        w = cmath.exp(z * (k * 1e-3)) / (k + z)
        acc += w * w.conjugate()
        _store[k & 63] = w
    for k in range(12):
        y = np.exp((z + 0.01 * k) * _NODES)
        acc += complex(np.sum(_WEIGHTS * y))
    return acc


class Reference:
    """Times reference slices and turns their mean time into a scale factor.

    The mean, not the median, because the slices then see the same share of
    host stalls as the operations between them.
    """

    def __init__(self) -> None:
        self.start = time.perf_counter()
        self.seconds = 0.0
        self.slices = 0
        self.bucket_seconds: list[float] = []
        self.bucket_slices: list[int] = []

    def run(self) -> None:
        t0 = time.perf_counter()
        reference_slice()
        t1 = time.perf_counter()
        self.seconds += t1 - t0
        self.slices += 1
        b = self.bucket(t1 - self.start)
        while len(self.bucket_slices) <= b:
            self.bucket_seconds.append(0.0)
            self.bucket_slices.append(0)
        self.bucket_seconds[b] += t1 - t0
        self.bucket_slices[b] += 1

    @staticmethod
    def bucket(since_start: float) -> int:
        return int(since_start / BUCKET_S)

    def keep_up(self, work_s: float) -> None:
        """Run slices until they have taken SHARE of the time `work_s` plus theirs."""
        while self.seconds < SHARE / (1.0 - SHARE) * work_s or not self.slices:
            self.run()

    def scale(self) -> float:
        """Factor that turns a time measured here into seconds at NOMINAL_S per slice."""
        return NOMINAL_S * self.slices / self.seconds

    def scale_at(self, since_start: float) -> float:
        """The factor from the slices of the bucket holding `since_start` and its neighbours."""
        b = min(self.bucket(since_start), len(self.bucket_slices) - 1)
        lo, hi = max(0, b - 1), b + 2
        n = sum(self.bucket_slices[lo:hi])
        return NOMINAL_S * n / sum(self.bucket_seconds[lo:hi]) if n else self.scale()
