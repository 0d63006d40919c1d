"""Proximity safety state machine with hysteresis.

Distances at or below the danger threshold classify DANGER, distances at or
below the haptic activation distance (HAD) classify ACTIVE, everything else
is SAFE. Boundary values go to the more severe state (fail-safe bias), and
a NaN or +inf distance, which carries no usable separation, is DANGER.
Negative distances, -inf among them, are rejected with NegativeDistance.
De-escalation requires clearing the threshold by the hysteresis margin so a
noisy distance estimate hovering at a boundary cannot chatter the actuator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

__all__ = [
    "NegativeDistance",
    "SafetyState",
    "SafetyZoneConfig",
    "SafetyDecision",
    "classify",
    "step",
]


class NegativeDistance(ValueError):
    pass


class SafetyState(IntEnum):
    """Severity-ordered so comparisons read naturally (SAFE < ACTIVE < DANGER)."""

    SAFE = 0
    ACTIVE = 1
    DANGER = 2


@dataclass(frozen=True)
class SafetyZoneConfig:
    had: float = 0.35
    danger: float = 0.25
    hysteresis: float = 0.01

    def __post_init__(self) -> None:
        if not 0.0 < self.danger < self.had < math.inf:
            raise ValueError(f"need 0 < danger < had < inf, got danger={self.danger}, had={self.had}")
        if not 0.0 <= self.hysteresis < (self.had - self.danger) / 2.0:
            raise ValueError(
                f"hysteresis must be in [0, (had - danger)/2), got {self.hysteresis}"
            )


@dataclass(frozen=True)
class SafetyDecision:
    state: SafetyState
    actuate: bool


# The decision for each state, built once; frozen, so every caller can share it.
_SAFE, _ACTIVE, _DANGER = (SafetyDecision(state=s, actuate=s is not SafetyState.SAFE)
                           for s in SafetyState)
# The states ``step`` compares with, bound once: an enum member looked up on
# its class costs several times a module global.
_STATE_SAFE, _STATE_DANGER = SafetyState.SAFE, SafetyState.DANGER


def classify(d: float, cfg: SafetyZoneConfig) -> SafetyState:
    """Memoryless threshold classification: from SAFE no hysteresis applies."""
    return step(SafetyState.SAFE, d, cfg).state


def step(prev: SafetyState, d: float, cfg: SafetyZoneConfig) -> SafetyDecision:
    """One transition of the state machine, as one of three shared, frozen
    decisions: one per state, the same object on every call.

    Escalation is immediate; de-escalation must clear the threshold plus the
    hysteresis margin. Callers must serialize calls per tracked marker.
    """
    if d < 0.0:
        raise NegativeDistance(f"distance must be non-negative, got {d}")
    # Leaving a state takes the hysteresis margin beyond that state's
    # threshold; the thresholds are positive, so adding 0.0 leaves them exact.
    if d <= cfg.danger + (cfg.hysteresis if prev is _STATE_DANGER else 0.0):
        return _DANGER
    if d <= cfg.had + (cfg.hysteresis if prev is not _STATE_SAFE else 0.0):
        return _ACTIVE
    if math.isfinite(d):
        return _SAFE
    return _DANGER  # NaN or +inf
