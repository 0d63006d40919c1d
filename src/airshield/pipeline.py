"""Stage latency model of the sense -> estimate -> decide -> actuate loop.

Stage timing: frames arrive every ``capture_ms``; pose computation takes a
Normal(detect_ms_mean, detect_ms_sd) time truncated at zero; the decision
and the serial transmit add small constants; the impeller needs
``actuator_rise_ms`` to reach 90% thrust after a command. The trial
simulator (``sim.run_trial``) runs the stages on this model; here live the
model itself, its detect-time draw and the Monte-Carlo latency budget.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "StageLatencyModel",
    "LatencySummary",
    "draw_detect_ms",
    "end_to_end_latency",
]


@dataclass(frozen=True)
class StageLatencyModel:
    capture_ms: float = 33.3
    detect_ms_mean: float = 30.0
    detect_ms_sd: float = 2.0
    decide_ms: float = 0.5
    transmit_ms: float = 2.0
    actuator_rise_ms: float = 100.0

    def __post_init__(self) -> None:
        if not 0.0 < self.capture_ms < np.inf:
            raise ValueError(f"capture_ms must be positive and finite, got {self.capture_ms}")
        for name in ("detect_ms_mean", "detect_ms_sd",
                     "decide_ms", "transmit_ms", "actuator_rise_ms"):
            if not 0.0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)}")


@dataclass(frozen=True)
class LatencySummary:
    p50_ms: float
    p95_ms: float
    max_ms: float


def draw_detect_ms(lat: StageLatencyModel, rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` pose-computation times in ms, Normal(mean, sd) truncated at zero."""
    return np.maximum(lat.detect_ms_mean + lat.detect_ms_sd * rng.standard_normal(n), 0.0)


def end_to_end_latency(lat: StageLatencyModel, n: int, seed: int) -> LatencySummary:
    """Monte-Carlo summary of the detect+decide+transmit span."""
    if n < 1:
        raise ValueError(f"need at least one sample, got {n}")
    total = draw_detect_ms(lat, np.random.default_rng(seed), n) + lat.decide_ms + lat.transmit_ms
    return LatencySummary(
        p50_ms=float(np.percentile(total, 50)),
        p95_ms=float(np.percentile(total, 95)),
        max_ms=float(total.max()),
    )
