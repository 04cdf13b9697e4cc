"""Host-speed calibration for timings taken on a shared host.

On a small VM whose cores are shared with other tenants the same code
runs up to half again as slow for minutes at a time, so raw wall times
of one commit spread by 15-40 % from run to run.  A fixed kernel of the
same kind of work as the timed calls measures the host's current speed:

* ``small``: argsort, cumsum and quantiles of 250-element arrays and a
  short Python loop, like lmtrees' per-node code on 250-row data;
* ``large``: a Python pass over 100 000 floats, parsing 20 000 decimal
  strings, and an in-place sort and cumsum of a 100 000-element column,
  like CSV parsing and the cut scan on 100 000-row data.  The small
  kernel stays in the core's caches and does not follow the slowdowns
  of this work.  This kernel allocates no large arrays: with numpy
  temporaries its speed depended on the allocator state the previous
  call left behind.

The kernel runs only between calls, never while lmtrees code is on the
stack: ``BURST`` times before and ``BURST`` times after every timed
call, after a garbage collection.  The call's wall time is multiplied by
``reference / median(samples)``, so it reads as seconds on a host that
runs the kernel in its reference time.  With the small kernel the
samples are the two bursts around the call.  The large kernel's calls
last seconds, longer than the host's fast and slow stretches, so their
samples are all those of the run so far, the burst after the call
included.  The median ignores the first, slower runs of a burst (the
kernel runs slower right after other work or a pause) and single
samples hit by preemption.  The kernels and their data belong to the
benchmark, and the program's garbage is collected before each burst, so
a change to lmtrees can only move the factor through what it leaves
live between calls.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

# kernel -> (its time on an uncontended 2.0 GHz Xeon vCPU with numpy 2.4
# and Python 3.11, the samples that scale a call: "call" or "run")
KERNELS = {"small": (0.0025, "call"), "large": (0.010, "run")}
BURST = 5


class Calibration:
    def __init__(self, kernel: str = "small") -> None:
        rng = np.random.Generator(np.random.PCG64(20190625))
        self.reference_s, self.window = KERNELS[kernel]
        if kernel == "small":
            self._data = rng.standard_normal((250, 10))
            self._kernel = self._small
        else:
            self._data = rng.standard_normal(100_000)
            self._sorted = np.empty_like(self._data)
            self._sums = np.empty_like(self._data)
            self._floats = self._data.tolist()
            self._texts = [repr(v) for v in self._floats[:20_000]]
            self._kernel = self._large
        self.samples: list[float] = []
        self.sample()  # the first call pays one-off numpy set-up
        self.samples.clear()

    def _small(self) -> float:
        total = 0.0
        for _ in range(3):
            for j in range(self._data.shape[1]):
                col = self._data[:, j]
                order = np.argsort(col, kind="stable")
                total += float(np.cumsum(col[order])[-1])
                total += float(np.quantile(col, (0.25, 0.5, 0.75))[1])
                for i in range(0, col.shape[0], 5):
                    total += col[i]
        return total

    def _large(self) -> float:
        np.copyto(self._sorted, self._data)
        self._sorted.sort()
        total = float(np.cumsum(self._sorted, out=self._sums)[-1])
        for value in self._floats:
            total += value
        for text in self._texts:
            total += float(text)
        return total

    def sample(self) -> float:
        start = time.perf_counter()
        self._kernel()
        seconds = time.perf_counter() - start
        self.samples.append(seconds)
        return seconds

    def burst(self) -> list[float]:
        gc.collect()
        return [self.sample() for _ in range(BURST)]

    def time(self, call):
        """Run ``call()``; return its result, its wall seconds, and those
        seconds scaled to the reference host.

        The kernel burst before the call also collects the garbage of
        earlier calls, so that a collection it would trigger does not land
        in this call's time.
        """
        before = self.burst()
        start = time.perf_counter()
        result = call()
        wall = time.perf_counter() - start
        after = self.burst()
        kernel = before + after if self.window == "call" else self.samples
        return result, wall, wall * self.reference_s / statistics.median(kernel)

    def factor(self) -> float:
        """Median scale factor over the process, for reporting."""
        return self.reference_s / statistics.median(self.samples)
