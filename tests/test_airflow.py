import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from airshield import airflow
from airshield.airflow import (ImperceptibleFlow, InsidePotentialCore, JetModel,
                               PerceptionModel)


def test_core_velocity_is_exit_velocity(jet):
    assert jet.core_len == pytest.approx(0.192)
    assert airflow.jet_velocity(jet, 100.0, 0.1) == pytest.approx(jet.v0)


def test_inverse_law_at_twice_core_length(jet):
    assert airflow.jet_velocity(jet, 100.0, 0.384) == pytest.approx(0.5 * jet.v0)


def test_zero_duty_means_no_flow(jet):
    assert airflow.jet_velocity(jet, 0.0, 0.7) == 0.0
    assert airflow.dynamic_pressure(jet, 0.0, 0.7) == 0.0


def test_dynamic_pressure_formula():
    jm = JetModel(v0=10.0)
    # inside the core the velocity is the exit velocity
    assert airflow.dynamic_pressure(jm, 100.0, 0.05) == pytest.approx(61.25)


def test_pressure_ratio_between_reference_distances(jet):
    ratio = airflow.dynamic_pressure(jet, 100.0, 0.25) / airflow.dynamic_pressure(jet, 100.0, 0.35)
    assert ratio == pytest.approx((0.35 / 0.25) ** 2, rel=1e-12)


def test_velocity_non_increasing_and_linear_in_duty(jet):
    xs = np.linspace(0.0, 3.0, 200)
    for duty in (12.5, 50.0, 100.0):
        v = [airflow.jet_velocity(jet, duty, float(x)) for x in xs]
        assert all(a >= b - 1e-12 for a, b in zip(v, v[1:]))
    for x in (0.1, 0.3, 1.0):
        v50 = airflow.jet_velocity(jet, 50.0, x)
        v100 = airflow.jet_velocity(jet, 100.0, x)
        assert v100 == pytest.approx(2.0 * v50, rel=1e-12)


def test_noiseless_perception_is_exact_inverse(jet):
    pm = PerceptionModel(weber=0.0)
    for x in (0.2, 0.25, 0.30, 0.35, 1.0):
        est = airflow.perception_errors(pm, jet, 100.0, x, 1, 1)[0] + x
        assert est == pytest.approx(x, abs=1e-12)


def test_pressure_to_distance_inverts_dynamic_pressure(jet):
    for x in (0.25, 0.5, 1.7):
        q = airflow.dynamic_pressure(jet, 80.0, x)
        assert airflow.pressure_to_distance(jet, 80.0, q) == pytest.approx(x, rel=1e-12)
    # pressures above the core value pin to the core boundary
    q_core = airflow.dynamic_pressure(jet, 80.0, 0.0)
    assert airflow.pressure_to_distance(jet, 80.0, 2.0 * q_core) == jet.core_len


def test_calibrated_absolute_errors_match_targets(jet, perception):
    errs25 = np.abs(airflow.perception_errors(perception, jet, 100.0, 0.25, 10_000, 7))
    assert errs25.mean() == pytest.approx(0.035, abs=0.005)
    errs35 = np.abs(airflow.perception_errors(perception, jet, 100.0, 0.35, 10_000, 7))
    assert errs35.mean() == pytest.approx(0.051, abs=0.010)


def test_error_grows_with_reference_distance(jet, perception):
    e25 = np.abs(airflow.perception_errors(perception, jet, 100.0, 0.25, 4000, 3)).mean()
    e35 = np.abs(airflow.perception_errors(perception, jet, 100.0, 0.35, 4000, 3)).mean()
    assert e35 > e25


def test_perception_deterministic_per_seed(jet, perception):
    a = airflow.perception_errors(perception, jet, 100.0, 0.3, 500, 42)
    b = airflow.perception_errors(perception, jet, 100.0, 0.3, 500, 42)
    assert np.array_equal(a, b)
    c = airflow.perception_errors(perception, jet, 100.0, 0.3, 500, 43)
    assert not np.array_equal(a, c)


def test_perception_errors_need_a_sample(jet, perception):
    with pytest.raises(ValueError, match=r"^need at least one sample, got 0$"):
        airflow.perception_errors(perception, jet, 100.0, 0.3, 0, 1)


def test_inside_core_rejected(jet, perception):
    with pytest.raises(InsidePotentialCore):
        airflow.perception_errors(perception, jet, 100.0, 0.1, 1, 1)


def test_imperceptible_flow_raised_beyond_range(jet, perception):
    x_max = airflow.pressure_to_distance(jet, 100.0, perception.detect_q)
    with pytest.raises(ImperceptibleFlow):
        airflow.perception_errors(perception, jet, 100.0, x_max * 1.2, 1, 1)
    with pytest.raises(ImperceptibleFlow):
        airflow.perception_errors(perception, jet, 0.0, 0.3, 1, 1)


def test_estimates_stay_in_physical_range(jet, perception):
    est = airflow.perception_errors(perception, jet, 100.0, 0.25, 20_000, 5) + 0.25
    assert est.min() >= jet.core_len
    assert est.max() <= airflow.pressure_to_distance(jet, 100.0, perception.detect_q)


@given(st.floats(0.5, 100.0), st.floats(0.01, 0.3), st.floats(1.0, 10.0), st.floats(0.0, 2.0),
       st.floats(1e-3, 50.0), st.floats(1.0, 100.0), st.floats(0.0, 1.0),
       st.integers(0, 2**32 - 1))
def test_estimates_lie_between_core_and_range(v0, duct_d, core_k, weber, detect_q, duty, u,
                                              seed):
    jm, pm = JetModel(v0, duct_d, core_k), PerceptionModel(weber, detect_q)
    x_max = airflow.pressure_to_distance(jm, duty, detect_q)
    true_x = jm.core_len + u * (x_max - jm.core_len)
    assume(true_x > jm.core_len and airflow.dynamic_pressure(jm, duty, true_x) >= detect_q)
    # Rounded subtraction is monotone, so an estimate in [core_len, x_max]
    # gives an error in [core_len - true_x, x_max - true_x] exactly.
    errs = airflow.perception_errors(pm, jm, duty, true_x, 200, seed)
    assert np.all(errs >= jm.core_len - true_x) and np.all(errs <= x_max - true_x)
    # The array call is the scalar call at each pressure, felt ones included.
    q_core = airflow.dynamic_pressure(jm, duty, 0.0)
    q = np.concatenate([[detect_q, q_core],
                        np.random.default_rng(seed).uniform(detect_q, q_core, 50)])
    x = airflow.pressure_to_distance(jm, duty, q)
    assert np.all(x >= jm.core_len) and np.all(x <= x_max)
    want = np.array([airflow.pressure_to_distance(jm, duty, qi) for qi in q.tolist()])
    assert np.array_equal(x.view(np.int64), want.view(np.int64))


def test_default_weber_meets_near_target():
    # DEFAULT_WEBER was fitted on this stream; a 1e-4 change in the Weber
    # fraction moves this mean by about 1.8e-5.
    errs = airflow.perception_errors(PerceptionModel(), JetModel(), 100.0, 0.25, 200_000, 3721)
    assert abs(np.abs(errs).mean() - 0.035) <= 1e-5


def test_felt_at_threshold_pressure(jet):
    q = airflow.dynamic_pressure(jet, 100.0, 0.5)
    assert airflow.is_felt(PerceptionModel(detect_q=q), jet, 100.0, 0.5, 1.0)
    assert not airflow.is_felt(PerceptionModel(detect_q=q), jet, 100.0, 0.5, 0.999)


def test_never_felt_without_flow_or_with_infinite_threshold(jet, perception):
    assert not airflow.is_felt(perception, jet, 0.0, 0.1, 5.0)
    assert not airflow.is_felt(PerceptionModel(detect_q=float("inf")), jet, 100.0, 0.1, 5.0)


def test_felt_multipliers_clipped_and_floored():
    z = np.array([-10.0, -1.0, 0.0, 1.0, 10.0])
    m = airflow.felt_multipliers(PerceptionModel(weber=0.5), z)
    assert m.tolist() == [0.04, 0.5, 1.0, 1.5, 2.5]


def test_model_validation():
    with pytest.raises(ValueError):
        JetModel(v0=-1.0)
    with pytest.raises(ValueError):
        PerceptionModel(weber=-0.1)
    with pytest.raises(ValueError, match="3 \\* weber finite"):
        PerceptionModel(weber=1e308)
    assert np.isfinite(airflow.felt_multipliers(PerceptionModel(weber=5e307),
                                                np.array([-9.0, 9.0]))).all()
    with pytest.raises(ValueError):
        PerceptionModel(detect_q=0.0)
