"""Machine-speed calibration of the benchmark's time metrics.

The benchmark runs on shared hosts whose speed drifts by tens of percent over
seconds to minutes: on a 2-vCPU host, a fixed computation timed in one-second
windows ran at 0.72 to 1.27 times its median speed within one minute, and one
workload's median call time differed by up to 50% between 15- to 20-second
runs.  That is more than any bound worth setting.  So a fixed kernel that
does not touch qls is timed between the calls of every run, and each call
time is scaled by REF_S / (median time of the kernel samples taken around
it): the time the call would take on a host where the kernel takes REF_S.
A change to qls moves the calls but not the kernel, so it moves the scaled
times in full, while a slow or fast stretch of the host moves both.

The kernel mixes the operations the workloads spend their time in: a sort, a
partition, uniform draws with a log transform, an interpreter loop and small
Cholesky factorizations.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

REF_S = 0.008       # kernel time that defines the reference speed
EVERY_S = 0.5       # wall time per kernel sample during a phase
BURST = 5           # samples taken back to back at the start and end of a phase


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(20240)
        self._x = rng.random(50_000)
        self._big = rng.random(200_000)
        self._kth = np.array([10_000, 100_000, 190_000])
        a = rng.random((24, 24))
        self._spd = a @ a.T + 24.0 * np.eye(24)
        self.samples: list[float] = []
        self.times: list[float] = []      # perf_counter() at the end of each sample
        self._last = time.perf_counter()

    def kernel(self) -> float:
        t0 = time.perf_counter()
        np.sort(self._x)
        np.partition(self._big, self._kth)
        np.log(np.random.default_rng(7).random(100_000))
        acc = 0
        for i in range(30_000):
            acc += i * i
        for _ in range(100):
            np.linalg.cholesky(self._spd)
        return time.perf_counter() - t0

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            self.samples.append(self.kernel())
            self.times.append(time.perf_counter())
        self._last = self.times[-1]

    def tick(self) -> None:
        """Take one sample per EVERY_S elapsed since the last one (at most
        BURST), so that the samples cover the phase evenly in time."""
        due = int((time.perf_counter() - self._last) / EVERY_S)
        if due > 0:
            self.sample(min(due, BURST))

    def factor(self) -> float:
        """Scale factor from all samples of the phase."""
        return REF_S / statistics.median(self.samples)

    def scale(self, starts, durations) -> np.ndarray:
        """Each duration scaled to the reference speed by the samples taken
        within EVERY_S of its interval (at least the BURST nearest), so that
        a slow or fast stretch within the phase is matched by the samples
        taken during it."""
        t0 = np.asarray(starts, dtype=float)[:, None]
        d = np.asarray(durations, dtype=float)
        t = np.asarray(self.times)[None, :]
        dist = np.maximum(np.maximum(t0 - t, t - (t0 + d[:, None])), 0.0)
        k = np.asarray(self.samples)
        rank = np.argsort(dist, axis=1, kind="stable")
        nearest = np.take_along_axis(dist, rank, axis=1)
        use = (nearest <= EVERY_S) | (np.arange(k.size) < BURST)
        kernel = np.array([np.median(k[r[u]]) for r, u in zip(rank, use)])
        return d * REF_S / kernel
