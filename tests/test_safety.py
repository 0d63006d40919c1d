import dataclasses
import math

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from airshield.safety import (NegativeDistance, SafetyDecision, SafetyState,
                              SafetyZoneConfig, classify, step)


def test_classify_thresholds(zone):
    assert classify(0.40, zone) is SafetyState.SAFE
    assert classify(0.30, zone) is SafetyState.ACTIVE
    assert classify(0.20, zone) is SafetyState.DANGER


def test_classify_boundaries_go_to_severe_state(zone):
    assert classify(zone.had, zone) is SafetyState.ACTIVE
    assert classify(zone.danger, zone) is SafetyState.DANGER
    assert classify(0.0, zone) is SafetyState.DANGER


def test_classify_negative_distance(zone):
    with pytest.raises(NegativeDistance):
        classify(-0.01, zone)


def test_step_crossing_below_had_activates(zone):
    d = step(SafetyState.SAFE, 0.349, zone)
    assert d.state is SafetyState.ACTIVE
    assert d.actuate


def test_step_holds_active_inside_hysteresis_band(zone):
    d = step(SafetyState.ACTIVE, 0.355, zone)
    assert d.state is SafetyState.ACTIVE


def test_step_releases_above_hysteresis(zone):
    d = step(SafetyState.ACTIVE, 0.365, zone)
    assert d.state is SafetyState.SAFE
    assert not d.actuate


def test_step_danger_needs_margin_to_deescalate(zone):
    assert step(SafetyState.DANGER, zone.danger + zone.hysteresis, zone).state \
        is SafetyState.DANGER
    assert step(SafetyState.DANGER, zone.danger + zone.hysteresis + 1e-6, zone).state \
        is SafetyState.ACTIVE


def test_step_danger_to_safe_requires_clearing_both_margins(zone):
    d = step(SafetyState.DANGER, zone.had + zone.hysteresis + 0.01, zone)
    assert d.state is SafetyState.SAFE


def test_step_negative_distance(zone):
    with pytest.raises(NegativeDistance):
        step(SafetyState.SAFE, -1e-9, zone)


@pytest.mark.parametrize("d", [math.nan, math.inf])
def test_non_finite_distance_is_danger(zone, d):
    assert classify(d, zone) is SafetyState.DANGER
    for prev in SafetyState:
        decision = step(prev, d, zone)
        assert decision.state is SafetyState.DANGER
        assert decision.actuate


def test_negative_infinity_is_negative_distance(zone):
    with pytest.raises(NegativeDistance):
        classify(-math.inf, zone)
    with pytest.raises(NegativeDistance):
        step(SafetyState.DANGER, -math.inf, zone)


def test_actuate_iff_not_safe(zone):
    for prev in SafetyState:
        for i in range(0, 101):
            d = step(prev, i / 100.0, zone)
            assert d.actuate == (d.state is not SafetyState.SAFE)


def test_severity_monotone_in_distance(zone):
    for prev in SafetyState:
        states = [step(prev, i / 1000.0, zone).state for i in range(0, 1001)]
        for a, b in zip(states, states[1:]):
            assert b <= a  # severity never increases as distance grows


def test_chattering_bound(zone):
    h = zone.hysteresis
    lo, hi = zone.had - h / 2 + 1e-9, zone.had + h / 2 - 1e-9
    state = SafetyState.SAFE
    transitions = 0
    for i in range(400):
        d = lo if i % 2 == 0 else hi
        nxt = step(state, d, zone).state
        if nxt is not state:
            transitions += 1
        state = nxt
    # one transition entering the band, none afterwards
    assert transitions <= 2
    first = step(SafetyState.SAFE, lo, zone).state
    assert first is SafetyState.ACTIVE


def test_step_deterministic(zone):
    seq = [0.5, 0.34, 0.352, 0.26, 0.24, 0.255, 0.261, 0.37, 0.5]

    def run():
        out = []
        s = SafetyState.SAFE
        for d in seq:
            dec = step(s, d, zone)
            s = dec.state
            out.append(dec)
        return out

    assert run() == run()


def test_zone_config_invariants():
    with pytest.raises(ValueError):
        SafetyZoneConfig(had=0.25, danger=0.35)
    with pytest.raises(ValueError):
        SafetyZoneConfig(had=0.35, danger=0.25, hysteresis=0.05)
    with pytest.raises(ValueError):
        SafetyZoneConfig(had=0.35, danger=0.0)


# --- properties of the hysteresis --------------------------------------------

@st.composite
def zones(draw):
    danger = draw(st.floats(0.01, 1.0))
    gap = draw(st.floats(0.01, 1.0))
    hysteresis = draw(st.floats(0.0, 0.49)) * gap
    return SafetyZoneConfig(had=danger + gap, danger=danger, hysteresis=hysteresis)


states = st.sampled_from(list(SafetyState))
distances = st.floats(0.0, 3.0)


@given(zones(), states, distances, distances)
def test_escalation_is_monotone(cfg, prev, d1, d2):
    near, far = min(d1, d2), max(d1, d2)
    assert step(prev, near, cfg).state >= step(prev, far, cfg).state


@given(zones(), st.floats(0.0, 1.0))
def test_no_chatter_inside_the_danger_band(cfg, u):
    d = u * (cfg.danger + cfg.hysteresis)
    assert step(SafetyState.DANGER, d, cfg).state is SafetyState.DANGER


@given(zones(), st.sampled_from([SafetyState.ACTIVE, SafetyState.DANGER]), st.floats(0.0, 1.0))
def test_no_chatter_inside_the_activation_band(cfg, prev, u):
    d = u * (cfg.had + cfg.hysteresis)
    assert step(prev, d, cfg).state >= SafetyState.ACTIVE


@given(zones(), states, st.sampled_from([math.nan, math.inf]))
def test_every_non_finite_distance_is_danger(cfg, prev, d):
    assert classify(d, cfg) is SafetyState.DANGER
    decision = step(prev, d, cfg)
    assert decision.state is SafetyState.DANGER and decision.actuate


@st.composite
def zone_and_distance(draw):
    """A zone and a distance anywhere, at or next to one of its edges, or
    not finite."""
    cfg = draw(zones())
    edges = [0.0, cfg.danger, cfg.had, cfg.danger + cfg.hysteresis, cfg.had + cfg.hysteresis]
    edge = draw(st.sampled_from(edges))
    d = draw(st.one_of(st.floats(), st.sampled_from([math.inf, -math.inf, math.nan]),
                       st.sampled_from([edge, math.nextafter(edge, -1.0),
                                        math.nextafter(edge, 2.0)])))
    return cfg, d


def thresholds(d, cfg):
    """The memoryless rule written out: severe state at a boundary, and
    DANGER for a distance that is not finite."""
    if d <= cfg.danger:
        return SafetyState.DANGER
    if d <= cfg.had:
        return SafetyState.ACTIVE
    return SafetyState.SAFE if math.isfinite(d) else SafetyState.DANGER


@given(zone_and_distance())
@example((SafetyZoneConfig(), 0.25))
@example((SafetyZoneConfig(), 0.35))
@example((SafetyZoneConfig(), math.nan))
@example((SafetyZoneConfig(), math.inf))
@example((SafetyZoneConfig(), -math.inf))
def test_classify_is_a_step_from_safe(case):
    cfg, d = case
    if d < 0.0:
        for judge in (lambda: classify(d, cfg), lambda: step(SafetyState.SAFE, d, cfg)):
            with pytest.raises(NegativeDistance):
                judge()
        return
    assert classify(d, cfg) is step(SafetyState.SAFE, d, cfg).state is thresholds(d, cfg)


def hysteresis_rule(prev, d, cfg):
    """The transition rule written out branch by branch: a state is held
    until the distance clears its threshold by the hysteresis margin."""
    if prev is SafetyState.DANGER and d <= cfg.danger + cfg.hysteresis:
        return SafetyState.DANGER
    if d <= cfg.danger:
        return SafetyState.DANGER
    if prev is not SafetyState.SAFE and d <= cfg.had + cfg.hysteresis:
        return SafetyState.ACTIVE
    if d <= cfg.had:
        return SafetyState.ACTIVE
    if math.isfinite(d):
        return SafetyState.SAFE
    return SafetyState.DANGER


@given(zone_and_distance(), states)
@example((SafetyZoneConfig(), 0.26), SafetyState.DANGER)
@example((SafetyZoneConfig(), 0.36), SafetyState.ACTIVE)
@example((SafetyZoneConfig(), 0.36), SafetyState.DANGER)
@example((SafetyZoneConfig(), math.nan), SafetyState.ACTIVE)
def test_step_is_the_written_out_hysteresis_rule(case, prev):
    cfg, d = case
    if d < 0.0:
        with pytest.raises(NegativeDistance):
            step(prev, d, cfg)
        return
    decision = step(prev, d, cfg)
    assert decision.state is hysteresis_rule(prev, d, cfg)
    assert decision.actuate == (decision.state is not SafetyState.SAFE)


@given(zone_and_distance(), states)
@example((SafetyZoneConfig(), math.nan), SafetyState.SAFE)
@example((SafetyZoneConfig(), math.inf), SafetyState.ACTIVE)
@example((SafetyZoneConfig(), 0.25), SafetyState.SAFE)
@example((SafetyZoneConfig(), 0.35), SafetyState.DANGER)
@example((SafetyZoneConfig(), 0.36), SafetyState.ACTIVE)
def test_step_returns_the_shared_frozen_decision_of_its_state(case, prev):
    cfg, d = case
    assume(not d < 0.0)  # NaN stays
    s = hysteresis_rule(prev, d, cfg)
    expected = SafetyDecision(state=s, actuate=s is not SafetyState.SAFE)
    decision = step(prev, d, cfg)
    assert decision == expected
    assert decision is step(prev, d, cfg)
    # Frozen, so no caller can change the decision every other caller holds.
    for name, value in (("state", SafetyState.SAFE), ("actuate", not decision.actuate)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(decision, name, value)
    assert decision == expected
