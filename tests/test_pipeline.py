import time

import numpy as np
import pytest

from airshield import pipeline as pl
from airshield.safety import SafetyState, step


def test_end_to_end_latency_default_budget(latency):
    summary = pl.end_to_end_latency(latency, 10_000, seed=1)
    assert summary.p95_ms <= 38.5
    assert summary.p50_ms == pytest.approx(32.5, abs=0.5)


def test_end_to_end_latency_degenerate_models():
    zero = pl.StageLatencyModel(detect_ms_mean=0, detect_ms_sd=0,
                                decide_ms=0, transmit_ms=0, actuator_rise_ms=0)
    assert pl.end_to_end_latency(zero, 1000, seed=2).p95_ms == 0.0
    fixed = pl.StageLatencyModel(detect_ms_sd=0.0)
    s = pl.end_to_end_latency(fixed, 1000, seed=3)
    assert s.p50_ms == s.p95_ms == s.max_ms == pytest.approx(32.5)


def test_end_to_end_latency_needs_a_sample(latency):
    with pytest.raises(ValueError, match=r"^need at least one sample, got 0$"):
        pl.end_to_end_latency(latency, 0, seed=1)


def test_end_to_end_latency_deterministic(latency):
    a = pl.end_to_end_latency(latency, 5000, seed=9)
    b = pl.end_to_end_latency(latency, 5000, seed=9)
    assert a == b


def test_detect_draw_truncated_at_zero():
    lat = pl.StageLatencyModel(detect_ms_mean=0.0, detect_ms_sd=2.0)
    draws = pl.draw_detect_ms(lat, np.random.default_rng(4), 10_000)
    assert draws.min() == 0.0
    assert 0.45 <= np.mean(draws == 0.0) <= 0.55


def test_latency_model_validation():
    with pytest.raises(ValueError):
        pl.StageLatencyModel(detect_ms_mean=-1.0)
    with pytest.raises(ValueError, match="capture_ms must be positive"):
        pl.StageLatencyModel(capture_ms=0.0)
    with pytest.raises(ValueError, match="^detect_ms_sd must leave"):
        pl.StageLatencyModel(detect_ms_mean=1e308, detect_ms_sd=1e307)
    # the widest spread the bound allows still draws finite times
    lat = pl.StageLatencyModel(detect_ms_sd=1e308 / 16)
    assert np.isfinite(pl.draw_detect_ms(lat, np.random.default_rng(0), 1000)).all()


def test_decide_stage_throughput(zone):
    n = 50_000
    state = SafetyState.SAFE
    t0 = time.perf_counter()
    for i in range(n):
        state = step(state, 0.2 + (i % 40) * 0.005, zone).state
    rate = n / (time.perf_counter() - t0)
    assert rate >= 10_000
