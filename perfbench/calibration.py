"""A fixed piece of work that tells how fast the machine runs right now.

On a small shared machine the speed one process gets drifts by a third over
minutes, as neighbours start and stop, and every workload slows together.
Raw wall times of runs a few minutes apart then spread more than any bound a
benchmark can set. So each run times this fixed mix of interpreted and numpy
work around its set-ups and between its items, and reports end-to-end times
at the reference speed: measured seconds times ``REFERENCE_S`` over the
median calibration time of the same stretch of the run. The mix does not
call the package, so a change to the package cannot move the scale. Over
ten runs of each workload on a 2-core VM, scaling cut the spread (quartile
distance over median) of ``wall_s`` from 0.29 to 0.09 on thm1-alt, from
0.27 to 0.13 on sim-schemes and from 0.19 to 0.12 on cli-oneshot; it left
tai-sweep at 0.15, and set-up spreads within 0.17.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# median calibration time on a 2-core x86-64 VM (Python 3.11, numpy 2.4);
# it fixes only the unit: a run on that machine at rest reports wall seconds
REFERENCE_S = 0.0090


class Calibrator:
    def __init__(self) -> None:
        self._vector = np.linspace(0.0, 1.0, 20_000)  # fits in a core's own cache
        self.samples: list[float] = []

    def sample(self, times: int = 1) -> None:
        for _ in range(times):
            start = time.perf_counter()
            acc = 0
            for i in range(80_000):
                acc += i * i % 7
            x = self._vector
            for _ in range(30):
                x = np.sqrt(x * x + 1.0)
            self.samples.append(time.perf_counter() - start)

    def scale(self) -> float:
        """Factor from this run's seconds to seconds at the reference speed."""
        return REFERENCE_S / statistics.median(self.samples)
