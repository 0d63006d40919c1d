"""Timing, percentiles, memory and trace digests for the benchmark.

The host this benchmark was written on is shared: the same simulated trial
took 29 ms in one few-second phase and 58 ms in the next, in CPU time as
much as in wall time. A median over one run cannot average such slow phases
away, so every run also samples a fixed reference loop from a timer signal,
eight times a second. The time spent in those samples is removed from every
measured interval, and each gated timing is scaled by
``REF_NOMINAL_S / median(samples within LOCAL_S of it)``: it reads as the
time on a host where the reference loop takes ``REF_NOMINAL_S``. The raw
times are printed next to them.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import resource
import signal
import statistics
from pathlib import Path
from time import perf_counter
from typing import Sequence

import numpy as np

# About the median of ``_reference_loop`` on the 2.1 GHz Xeon host the
# benchmark was written on.
REF_NOMINAL_S = 0.0025
_TAIL_CANDIDATES = (50.0, 90.0, 99.0, 99.9)
# Half-width of the window whose samples scale a moment's work.
LOCAL_S = 0.5
_REF_ROWS = [{"t_ms": 10 * i, "dist_m": 0.3 + 1e-4 * i, "state": "SAFE", "duty_pct": 0.0,
              "cond": "va", "seed": 3} for i in range(200)]


def _reference_loop() -> float:
    """Fixed work shaped like the program's: a scalar float loop, then JSON.

    On the shared host, the ratio of a trial's time to this loop's varied
    2-3 % between 5-second windows, against 15 % for the trial alone; a pure
    integer loop tracked the slow phases about half as well.
    """
    x, y, z = 0.1, 0.2, 0.3
    acc = 0.0
    for _ in range(3000):
        mx, my, mz = 1.0 - x, 0.5 - y, 0.25 - z
        d = math.sqrt(mx * mx + my * my + mz * mz)
        if d > 0.5:
            x, y, z = x + 0.01 * mx, y + 0.01 * my, z + 0.01 * mz
        else:
            x, y, z = 0.1, 0.2, 0.3
        acc += d
    for row in _REF_ROWS:
        acc += len(json.dumps(row, separators=(",", ":")))
    return acc


def reference_factor(n: int) -> float:
    """The factor from ``n`` reference loops run back to back now."""
    times = []
    for _ in range(n):
        t0 = perf_counter()
        _reference_loop()
        times.append(perf_counter() - t0)
    return REF_NOMINAL_S / statistics.median(times)


class SpeedMeter:
    """Samples the reference loop from SIGALRM and keeps a work clock.

    ``clock()`` is ``perf_counter()`` minus the time spent in samples, so an
    interval read from it holds only the benchmark's own work.
    """

    def __init__(self, period_s: float = 0.125) -> None:
        self.period_s = period_s
        self.samples: list[float] = []
        self.stamps: list[float] = []      # work-clock time of each sample
        self.spent = 0.0
        self._previous = None

    def _sample(self, _signum, _frame) -> None:
        t0 = perf_counter()
        _reference_loop()
        dt = perf_counter() - t0
        self.stamps.append(t0 - self.spent)
        self.samples.append(dt)
        self.spent += dt

    def __enter__(self) -> "SpeedMeter":
        self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def clock(self) -> float:
        while True:
            spent = self.spent
            now = perf_counter()
            if spent == self.spent:  # no sample ran between the two reads
                return now - spent

    def factor(self) -> float:
        """Multiply a raw time by this to get the time at nominal speed."""
        return REF_NOMINAL_S / statistics.median(self.samples)

    def factor_at(self, t: float) -> float:
        """The factor from the samples within ``LOCAL_S`` of work-clock time t."""
        lo = bisect.bisect_left(self.stamps, t - LOCAL_S)
        hi = bisect.bisect_right(self.stamps, t + LOCAL_S)
        near = self.samples[lo:hi]
        return REF_NOMINAL_S / statistics.median(near) if near else self.factor()

    def scaled(self, a: float, b: float) -> float:
        """Duration of work-clock interval [a, b] at nominal speed.

        Long intervals are cut into slices of at most ``LOCAL_S``, each
        scaled by the factor around its middle.
        """
        n = max(1, math.ceil((b - a) / LOCAL_S))
        step = (b - a) / n
        return sum(step * self.factor_at(a + (k + 0.5) * step) for k in range(n))


def tail_percentile(n: int) -> float | None:
    """Highest of p50/p90/p99/p99.9 that has at least ten samples beyond it."""
    best = None
    for p in _TAIL_CANDIDATES:
        if n * (100.0 - p) / 100.0 >= 10.0 - 1e-9:
            best = p
    return best


def percentile(values: Sequence[float], p: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), p))


def pct_label(p: float) -> str:
    return f"p{p:g}"


def peak_rss_mb() -> float:
    """Peak resident set of this process; Linux reports ``ru_maxrss`` in KiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tree_digest(directory: Path) -> str:
    """SHA-256 of the trace tree: every file's bytes, in byte order of name.

    The same as ``cd DIR && LC_ALL=C cat manifest.json trial_*.jsonl | sha256sum``.
    """
    h = hashlib.sha256()
    for path in sorted(directory.iterdir(), key=lambda p: p.name.encode()):
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()
