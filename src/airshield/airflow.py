"""Impeller jet model and airflow-based distance perception.

The ducted-fan jet is modeled as a classical round free jet: exit velocity
is held over a potential core of length ``core_k * duct_d`` and decays as
1/x beyond it. Thrust scales linearly with the commanded duty cycle.

Distance perception works by feel of dynamic pressure: the felt pressure is
the true pressure corrupted by multiplicative discrimination noise (a Weber
fraction), and the felt value is inverted through the jet law back to a
distance estimate. Perception therefore only works beyond the potential
core, where pressure actually varies with distance. ``pressure_to_distance``
inverts the law for the felt estimates and, at the threshold, for the range.

The trial loop draws one felt-pressure multiplier per tick from
``felt_multipliers`` and asks ``is_felt`` whether the hand feels the jet;
``perception_errors`` is the distance-judgement experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "AIR_DENSITY_KG_M3",
    "DEFAULT_WEBER",
    "ImperceptibleFlow",
    "InsidePotentialCore",
    "JetModel",
    "PerceptionModel",
    "jet_velocity",
    "dynamic_pressure",
    "pressure_to_distance",
    "felt_multipliers",
    "is_felt",
    "perception_errors",
]

AIR_DENSITY_KG_M3 = 1.225

# Weber fraction fitted so the simulated mean absolute perception error at
# 0.25 m equals 0.035 m (pinned by test_airflow::test_default_weber_meets_near_target);
# the 0.35 m behavior is then a prediction of the model, not a fit.
DEFAULT_WEBER = 0.301155

# Discrimination noise is truncated at +/-3 sigma and the felt-pressure
# multiplier floored at 0.04: an unbounded Normal would occasionally produce
# non-positive felt pressure, which has no inverse distance.
_NOISE_CLIP_SIGMA = 3.0
_MULTIPLIER_FLOOR = 0.04


class ImperceptibleFlow(ValueError):
    pass


class InsidePotentialCore(ValueError):
    pass


@dataclass(frozen=True)
class JetModel:
    v0: float = 25.0
    duct_d: float = 0.064
    core_k: float = 3.0

    def __post_init__(self) -> None:
        if not all(0.0 < v < math.inf for v in (self.v0, self.duct_d, self.core_k)):
            raise ValueError("jet parameters must be positive and finite")

    @property
    def core_len(self) -> float:
        return self.core_k * self.duct_d


@dataclass(frozen=True)
class PerceptionModel:
    weber: float = DEFAULT_WEBER
    detect_q: float = 0.5

    def __post_init__(self) -> None:
        # The noise is clipped at 3 sigma: a finite 3 * weber keeps felt multipliers finite.
        if not 0.0 <= _NOISE_CLIP_SIGMA * self.weber < math.inf:
            raise ValueError(f"weber fraction must be >= 0 and leave 3 * weber finite, "
                             f"got {self.weber}")
        if not self.detect_q > 0.0:  # an infinite threshold is never felt
            raise ValueError(f"detection threshold must be positive, got {self.detect_q}")


def jet_velocity(jm: JetModel, duty: float, x: float) -> float:
    """Axial jet velocity at distance x from the duct exit."""
    if x < 0.0:
        raise ValueError(f"distance must be non-negative, got {x}")
    v_exit = jm.v0 * (duty / 100.0)
    if x <= jm.core_len:
        return v_exit
    return v_exit * jm.core_len / x


def dynamic_pressure(jm: JetModel, duty: float, x: float) -> float:
    """Dynamic pressure q = rho/2 * v^2 at distance x, in Pa."""
    v = jet_velocity(jm, duty, x)
    return 0.5 * AIR_DENSITY_KG_M3 * v * v


def pressure_to_distance(jm: JetModel, duty: float,
                         q: float | np.ndarray) -> float | np.ndarray:
    """Invert the decay-region jet law: the distance where pressure equals q,
    for a pressure or an array of them.

    Pressures at or above the core value map to the core boundary (the law
    is flat inside the core, so no finer answer exists); within rounding of
    the core value the answer may lie one ulp beyond it.
    """
    if np.min(q) <= 0.0:
        raise ValueError(f"pressure must be positive, got {q}")
    v_exit = jm.v0 * (duty / 100.0)
    if v_exit <= 0.0:
        raise ValueError("duty must be positive to invert the jet law")
    v = np.sqrt(2.0 * q / AIR_DENSITY_KG_M3)
    return np.maximum(v_exit * jm.core_len / v, jm.core_len)


def felt_multipliers(pm: PerceptionModel, z: np.ndarray) -> np.ndarray:
    """Felt-over-true pressure ratios for standard normal draws z."""
    eps = pm.weber * np.clip(z, -_NOISE_CLIP_SIGMA, _NOISE_CLIP_SIGMA)
    return np.maximum(1.0 + eps, _MULTIPLIER_FLOOR)


def is_felt(pm: PerceptionModel, jm: JetModel, duty: float, x: float, mult: float) -> bool:
    """Whether the pressure at x, scaled by the felt multiplier, reaches the
    detection threshold."""
    return dynamic_pressure(jm, duty, x) * mult >= pm.detect_q


def _check_perceivable(pm: PerceptionModel, jm: JetModel, duty: float, true_x: float) -> float:
    if duty <= 0.0:
        raise ImperceptibleFlow("no airflow at zero duty")
    if true_x <= jm.core_len:
        raise InsidePotentialCore(
            f"distance {true_x} m is inside the potential core ({jm.core_len:.3f} m); "
            "pressure carries no distance information there"
        )
    q = dynamic_pressure(jm, duty, true_x)
    if q < pm.detect_q:
        raise ImperceptibleFlow(
            f"dynamic pressure {q:.3g} Pa at {true_x} m is below the "
            f"detection threshold {pm.detect_q} Pa"
        )
    return q


def perception_errors(pm: PerceptionModel, jm: JetModel, duty: float,
                      true_x: float, n: int, seed: int) -> np.ndarray:
    """Signed estimation errors (estimate - true) for n seeded samples;
    with weber = 0 every estimate equals ``true_x`` exactly."""
    if n < 1:
        raise ValueError(f"need at least one sample, got {n}")
    q = _check_perceivable(pm, jm, duty, true_x)
    if pm.weber == 0.0:
        return np.zeros(n)
    rng = np.random.default_rng(seed)
    # A Weber fraction near the float range can take a felt pressure to inf,
    # which the clip below judges as the core value.
    with np.errstate(over="ignore"):
        q_felt = q * felt_multipliers(pm, rng.standard_normal(n))
    # A felt pressure is judged between the threshold and the core value; sqrt and
    # division round monotonically, so q >= detect_q keeps each estimate in range.
    q_eff = np.clip(q_felt, pm.detect_q, dynamic_pressure(jm, duty, 0.0))
    return pressure_to_distance(jm, duty, q_eff) - true_x

