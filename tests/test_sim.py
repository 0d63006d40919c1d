import io
import json
import math
import tracemalloc
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from airshield import sim, stats, wire
from airshield.airflow import JetModel, PerceptionModel
from airshield.config import RunConfig
from airshield.pipeline import StageLatencyModel
from airshield.safety import SafetyState, SafetyZoneConfig


# --- robot trajectory ------------------------------------------------------

def tcp_at(traj, t):
    return sim.trajectory_positions(traj, np.array([t]))[0]


def test_tcp_at_phase_origin(trajectory):
    assert np.allclose(tcp_at(trajectory, 0.0), trajectory.waypoints[0][0])


def test_tcp_periodicity(trajectory):
    p = tcp_at(trajectory, trajectory.cycle_period)
    assert np.allclose(p, trajectory.waypoints[0][0], atol=1e-9)
    q1 = tcp_at(trajectory, 3.21)
    q2 = tcp_at(trajectory, 3.21 + trajectory.cycle_period)
    assert np.allclose(q1, q2, atol=1e-9)


def test_straight_segment_midpoint():
    two = sim.RobotTrajectory(waypoints=(((0, 0, 0), 0.0), ((1.0, 0, 0), 0.0)),
                              speed=0.5, accel=2.0)
    seg_time = two.cycle_period / 2.0
    mid = tcp_at(two, seg_time / 2.0)
    assert np.allclose(mid, [0.5, 0, 0], atol=1e-9)


def test_trajectory_is_continuous(trajectory):
    ts = np.linspace(0.0, 2.0 * trajectory.cycle_period, 4000)
    pos = sim.trajectory_positions(trajectory, ts)
    speeds = np.linalg.norm(np.diff(pos, axis=0), axis=1) / np.diff(ts)
    assert speeds.max() <= trajectory.speed + 1e-6


def test_trajectory_validation():
    line = (((0, 0, 0), 0.0), ((1, 0, 0), 0.0))
    for waypoints, kw in [
        ((((0, 0, 0), 1.0),), {}),
        # a loop that takes no time has no period to wrap the clock with
        ((((0, 0, 0), 0.0), ((0, 0, 0), 0.0)), {}),
        ((((0, 0, 0), 1.0), ((math.nan, 0, 0), 0.0)), {}),
        ((((0, 0, 0), 1.0), ((0, math.inf, 0), 0.0)), {}),
        ((((0, 0, 0), -1.0), ((1, 0, 0), 0.0)), {}),
        ((((0, 0, 0), math.inf), ((1, 0, 0), 0.0)), {}),
        ((((0, 0, 0), math.nan), ((1, 0, 0), 0.0)), {}),
        (line, {"speed": 0.0}), (line, {"speed": math.nan}), (line, {"speed": math.inf}),
        (line, {"accel": -0.6}), (line, {"accel": math.nan}), (line, {"accel": math.inf}),
    ]:
        with pytest.raises(ValueError):
            sim.RobotTrajectory(waypoints=waypoints, **kw)


def trapezoid_s_scalar(tau, dur, d, vmax, a):
    """The one-sample arc length that sim._trapezoid_s vectorises."""
    tau = min(max(tau, 0.0), dur)
    d_ramp = vmax * vmax / a
    if d >= d_ramp:
        t_r = vmax / a
        if tau < t_r:
            return 0.5 * a * tau * tau
        if tau <= dur - t_r:
            return 0.5 * d_ramp + vmax * (tau - t_r)
        rem = dur - tau
        return d - 0.5 * a * rem * rem
    t_peak = 0.5 * dur
    if tau <= t_peak:
        return 0.5 * a * tau * tau
    rem = dur - tau
    return d - 0.5 * a * rem * rem


waypoints = st.lists(
    st.tuples(st.tuples(*[st.floats(-1.0, 1.0)] * 3), st.floats(0.0, 2.0)),
    min_size=2, max_size=5).map(tuple)


def scalar_loop(wps, speed, accel):
    """One pass of the loop as (t_start, t_end, start, end, length) spans,
    walked one waypoint at a time; a dwell is a span of length 0."""
    spans, t = [], 0.0
    for (p, dwell), (q, _) in zip(wps, wps[1:] + wps[:1]):
        if dwell > 0.0:
            spans.append((t, t + dwell, p, p, 0.0))
            t += dwell
        d = math.sqrt((p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2 + (p[2] - q[2]) ** 2)
        if d > 0.0:
            d_ramp = speed * speed / accel
            dur = d / speed + speed / accel if d >= d_ramp else 2.0 * math.sqrt(d / accel)
            spans.append((t, t + dur, p, q, d))
            t += dur
    return spans


def scalar_position(spans, speed, accel, time):
    phase = time % spans[-1][1]
    k = min(sum(t1 <= phase for _, t1, *_ in spans), len(spans) - 1)
    t0, t1, p, q, d = spans[k]
    if d == 0.0:
        return [float(c) for c in p]
    f = trapezoid_s_scalar(phase - t0, t1 - t0, d, speed, accel) / d
    return [a + f * (b - a) for a, b in zip(p, q)]


@given(waypoints, st.floats(0.01, 2.0), st.floats(0.01, 10.0), st.floats(0.0, 1.0))
@example(wps=(((-0.0, 0.5, 0.0), 1.0), ((1.0, 0.5, 0.0), 0.0)), speed=0.5, accel=2.0, u=0.5)
def test_trapezoid_s_is_the_scalar_profile_bit_for_bit(wps, speed, accel, u):
    # Coinciding waypoints without a dwell make a loop that takes no time,
    # which RobotTrajectory rejects; such a loop has no position to check.
    spans = scalar_loop(wps, speed, accel)
    assume(spans and spans[-1][1] > 0.0)
    traj = sim.RobotTrajectory(waypoints=wps, speed=speed, accel=accel)
    period = traj.cycle_period
    assert period == spans[-1][1]
    t_r = speed / accel
    times = [-1e-300, period, 2.0 * period, -u * period, (1.0 + u) * period]
    for t0, t1, *_ in spans:
        times += [t0, t1, t0 + t_r, t1 - t_r, 0.5 * (t0 + t1), t0 + u * (t1 - t0)]
    times = np.concatenate([np.linspace(-period, 2.0 * period, 301), times])
    got = sim.trajectory_positions(traj, times)
    want = np.array([scalar_position(spans, speed, accel, t) for t in times.tolist()])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


# --- below-HAD metric ------------------------------------------------------

def test_below_had_mean_filters_samples(zone):
    assert sim.below_had_mean(np.array([0.40, 0.30, 0.32, 0.50]), zone.had) \
        == pytest.approx(0.31)


def test_below_had_mean_no_exposure(zone):
    assert sim.below_had_mean(np.array([0.5, 0.6, 0.7]), zone.had) is None


def test_below_had_mean_constant(zone):
    assert sim.below_had_mean([0.30, 0.30, 0.30], zone.had) == pytest.approx(0.30)


def test_below_had_boundary_inclusive(zone):
    assert sim.below_had_mean([zone.had, 1.0], zone.had) == pytest.approx(zone.had)


# --- run_trial -------------------------------------------------------------

def run(cond, seed, human, trajectory, zone, jet, perception, latency,
        duration=60.0, **kw):
    return sim.run_trial(cond, human, trajectory, zone, jet, perception,
                         latency, duration, seed, **kw)


def test_no_excursions_never_below_had(human, trajectory, zone, jet, perception, latency):
    quiet = replace(human, excursion_rate=0.0, attention_p=1.0)
    for cond in sim.CONDITIONS:
        t = run(cond, 3, quiet, trajectory, zone, jet, perception, latency)
        assert t.dist_m.min() > zone.had


def test_seed_determinism_bit_identical(human, trajectory, zone, jet, perception, latency):
    a = run("va", 11, human, trajectory, zone, jet, perception, latency)
    b = run("va", 11, human, trajectory, zone, jet, perception, latency)
    assert np.array_equal(a.dist_m, b.dist_m)
    assert np.array_equal(a.state, b.state)
    assert np.array_equal(a.duty_pct, b.duty_pct)
    assert a.decisions == b.decisions


def test_different_seeds_differ(human, trajectory, zone, jet, perception, latency):
    a = run("va", 11, human, trajectory, zone, jet, perception, latency)
    b = run("va", 12, human, trajectory, zone, jet, perception, latency)
    assert not np.array_equal(a.dist_m, b.dist_m)


def test_channel_isolation_with_airflow_disabled(human, trajectory, zone, jet, latency):
    off = PerceptionModel(weber=0.301155, detect_q=math.inf)
    v = run("v", 5, human, trajectory, zone, jet, off, latency)
    va = run("va", 5, human, trajectory, zone, jet, off, latency)
    assert np.array_equal(v.dist_m, va.dist_m)
    assert np.array_equal(v.state, va.state)
    assert np.array_equal(v.duty_pct, va.duty_pct)


def test_airflow_feedback_changes_behavior(human, trajectory, zone, jet, perception, latency):
    v = run("v", 5, human, trajectory, zone, jet, perception, latency)
    va = run("va", 5, human, trajectory, zone, jet, perception, latency)
    assert not np.array_equal(v.dist_m, va.dist_m)


def test_timestamps_strictly_increasing(human, trajectory, zone, jet, perception, latency):
    t = run("v", 2, human, trajectory, zone, jet, perception, latency, duration=20.0)
    assert np.all(np.diff(t.t_ms) > 0)
    assert np.all(t.dist_m >= 0.0)


def test_hand_speed_bounded_and_distance_continuous(human, trajectory, zone, jet,
                                                    perception, latency):
    t = run("va", 7, human, trajectory, zone, jet, perception, latency)
    dt = 0.010
    d_rate = np.abs(np.diff(t.dist_m)) / dt
    assert d_rate.max() <= human.retreat_speed + trajectory.speed + 1e-9


def test_duty_rises_only_when_active(human, trajectory, zone, jet, perception, latency):
    t = run("va", 1, human, trajectory, zone, jet, perception, latency)
    assert t.duty_pct.max() > 50.0  # impeller actually engaged at some point
    safe = t.state == int(SafetyState.SAFE)
    # duty decays while commanded safe; allow the actuator fall lag
    active_any = t.duty_pct[~safe]
    assert active_any.size > 0


def test_directional_effect_over_matched_seeds(human, trajectory, zone, jet,
                                               perception, latency):
    v_means, va_means = [], []
    for s in range(30):
        for cond, sink in (("v", v_means), ("va", va_means)):
            t = run(cond, s, human, trajectory, zone, jet, perception, latency,
                    duration=120.0)
            m = sim.below_had_mean(t.dist_m, zone.had)
            sink.append(zone.had if m is None else m)
    r = stats.paired_t(v_means, va_means)
    assert np.mean(va_means) > np.mean(v_means)
    assert r.statistic < 0
    assert r.p_value < 0.05


def test_run_trial_argument_validation(human, trajectory, zone, jet, perception, latency):
    with pytest.raises(ValueError):
        run("x", 0, human, trajectory, zone, jet, perception, latency)
    with pytest.raises(ValueError):
        run("v", 0, human, trajectory, zone, jet, perception, latency, duration=0.0)
    with pytest.raises(ValueError, match="at least one tick"):
        run("va", 3, human, trajectory, zone, jet, perception, latency, duration=1.0,
            tick_ms=5000.0)
    for duration, tick_ms in [(math.nan, 10.0), (math.inf, 10.0), (60.0, math.nan),
                              (60.0, math.inf)]:
        with pytest.raises(ValueError, match="finite"):
            run("v", 0, human, trajectory, zone, jet, perception, latency,
                duration=duration, tick_ms=tick_ms)


def test_run_trial_refuses_a_trial_its_loop_cannot_run(human, trajectory, zone, jet,
                                                      perception, latency):
    # Each is refused before a tick is simulated: np.empty is never reached.
    cases = [
        # inf ticks: int(round(inf)) would raise OverflowError
        (latency, dict(tick_ms=5e-324), "at most 10,000,000 ticks"),
        # 1e9 ticks
        (latency, dict(duration=1.0, tick_ms=1e-6), "at most 10,000,000 ticks"),
        # frames faster than the ticks
        (StageLatencyModel(capture_ms=5.0), dict(tick_ms=10.0), "capture_ms"),
        # a frame interval of 0 s: the capture clock would never pass a tick
        (StageLatencyModel(capture_ms=5e-324), dict(duration=1e-323, tick_ms=5e-324),
         "capture_ms"),
    ]
    with mock.patch.object(sim.np, "empty", side_effect=AssertionError("trial started")):
        for lat, kw, message in cases:
            with pytest.raises(ValueError, match=message):
                run("va", 3, human, trajectory, zone, jet, perception, lat, **kw)


@given(st.integers(0, 2**32 - 1), st.sampled_from([0.0, 100.0, 1000.0]),
       st.sampled_from([100.0, 50.0, 1e-4]))
def test_duty_settles_exactly_at_its_commanded_value(seed, rise_ms, duty_on):
    eps = sim._DUTY_SETTLE_PCT
    cfg = RunConfig(latency=StageLatencyModel(actuator_rise_ms=rise_ms), duty_pct=duty_on,
                    duration_s=20.0)
    # Each rise time shrinks the gap to the target tenfold, so after this many
    # ticks of one command the gap is below eps even from the other end.
    settle_ticks = max(1, math.ceil(rise_ms / cfg.tick_ms * math.log10(duty_on / eps)) + 1)
    for _, _, trace in sim.run_trials(cfg, sim.CONDITIONS, [seed]):
        duty = trace.duty_pct
        moving = duty[(duty != 0.0) & (duty != duty_on)]
        assert np.all((moving >= eps) & (moving <= duty_on - eps))
        # Ticks since the last command that ran the fan (ACTIVE or DANGER):
        # a SAFE command followed by a long enough quiet stretch, at the end
        # of the trial too, leaves the fan at exactly 0.0.
        ticks = np.arange(len(trace))
        quiet = ticks - np.maximum.accumulate(
            np.where(trace.state == int(SafetyState.SAFE), -1, ticks))
        assert np.all(duty[quiet >= settle_ticks] == 0.0)


@pytest.mark.parametrize("duty_on", [math.nan, math.inf, -1.0, 101.0])
def test_run_trial_rejects_duty_outside_0_to_100(human, trajectory, zone, jet, perception,
                                                  latency, duty_on):
    with pytest.raises(ValueError, match="duty"):
        run("va", 3, human, trajectory, zone, jet, perception, latency, duty_on=duty_on)


@pytest.mark.parametrize("kw", [
    {"task_positions": ((math.inf, 0.0, 0.0), (0.80, 0.25, 0.60))},
    {"task_positions": ((0.60, 0.45, 0.60), (0.80, math.nan, 0.60))},
    {"item_far_m": math.inf}, {"item_near_m": math.nan},
    {"reach_speed": math.nan}, {"task_speed": math.nan}, {"retreat_speed": math.nan},
])
def test_human_model_rejects_non_finite_positions_and_speeds(kw):
    with pytest.raises(ValueError):
        sim.HumanModel(**kw)


@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
@pytest.mark.parametrize("name", ["excursion_rate", "reaction_latency_ms", "task_dwell_s",
                                  "grab_dwell_s", "notice_delay_max_s"])
def test_human_model_rejects_non_finite_or_negative_times_and_rates(name, value):
    with pytest.raises(ValueError, match=name):
        sim.HumanModel(**{name: value})
    assert getattr(sim.HumanModel(**{name: 0.0}), name) == 0.0


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("model, name", [
    (model, f.name) for model in (StageLatencyModel, JetModel, PerceptionModel, SafetyZoneConfig)
    for f in fields(model)])
def test_loop_models_reject_nan_and_infinity(model, name, value):
    if (name, value) == ("detect_q", math.inf):  # a threshold no airflow reaches
        assert model(detect_q=value).detect_q == math.inf
        return
    with pytest.raises(ValueError):
        model(**{name: value})


@pytest.mark.parametrize("block", [1, 7, 4097])
def test_block_size_changes_no_trial_output(monkeypatch, block):
    # 10 000 ticks: several default blocks, and more than one of each size.
    # The second config starts excursions often and ramps the fan slowly
    # behind a slow link, so blocks open mid-excursion, with a state and a
    # duty held over from the block before.
    cfg = RunConfig(duration_s=100.0)
    edgy = replace(cfg, human=replace(cfg.human, excursion_rate=2.0),
                   latency=replace(cfg.latency, transmit_ms=100.0, actuator_rise_ms=1000.0))
    runs = [(c, cond) for c in (cfg, edgy) for cond in sim.CONDITIONS]
    wants = [next(sim.run_trials(c, [cond], [5]))[2] for c, cond in runs]
    assert all(any(actuate for _, _, actuate in want.decisions) for want in wants)
    # Some block opens on a state, and some on a duty, other than a trial's first.
    edges = np.arange(block, len(wants[0]), block)
    assert any((want.state[edges] > 0).any() for want in wants[2:])
    assert any((want.duty_pct[edges] > 0).any() for want in wants[2:])
    monkeypatch.setattr(sim, "_BLOCK", block)
    for (c, cond), want in zip(runs, wants):
        got = next(sim.run_trials(c, [cond], [5]))[2]
        for column in ("t_ms", "dist_m", "state", "duty_pct"):
            a, b = getattr(got, column), getattr(want, column)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (cond, column)
        assert got.decisions == want.decisions
        assert "".join(got.jsonl()) == "".join(want.jsonl())


def test_run_trials_yields_condition_major_direct_trials():
    cfg = RunConfig(duration_s=20.0, duty_pct=80.0, tick_ms=20.0)
    got = list(sim.run_trials(cfg, sim.CONDITIONS, [4, 2]))
    assert [(cond, seed) for cond, seed, _ in got] == [("v", 4), ("v", 2), ("va", 4), ("va", 2)]
    for cond, seed, trace in got:
        want = sim.run_trial(cond, cfg.human, cfg.trajectory, cfg.safety, cfg.jet,
                             cfg.perception, cfg.latency, 20.0, seed, 20.0, 80.0)
        assert (trace.condition, trace.seed) == (cond, seed)
        for column in ("dist_m", "state", "duty_pct"):
            a, b = getattr(trace, column), getattr(want, column)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def records(trace):
    """JSON-ready rows of a trace in trace-file field order, one per tick:
    the rows ``jsonl()`` encodes."""
    for i in range(len(trace)):
        yield {
            "t_ms": int(trace.t_ms[i]),
            "dist_m": float(trace.dist_m[i]),
            "state": SafetyState(int(trace.state[i])).name,
            "duty_pct": float(trace.duty_pct[i]),
            "cond": trace.condition,
            "seed": trace.seed,
        }


def test_trace_records_schema(human, trajectory, zone, jet, perception, latency):
    t = run("va", 4, human, trajectory, zone, jet, perception, latency, duration=5.0)
    recs = list(records(t))
    assert len(recs) == len(t)
    first = recs[0]
    assert list(first) == ["t_ms", "dist_m", "state", "duty_pct", "cond", "seed"]
    assert first["cond"] == "va"
    assert first["seed"] == 4
    assert first["state"] in {"SAFE", "ACTIVE", "DANGER"}


# --- trace file encoding ---------------------------------------------------

def make_trace(rows, cond="v", seed=0):
    t, d, state, duty = zip(*rows) if rows else ((), (), (), ())
    return sim.DistanceTrace(t_ms=np.array(t, dtype=np.int64), dist_m=np.array(d),
                             state=np.array(state, dtype=np.uint8),
                             duty_pct=np.array(duty), condition=cond, seed=seed)


def is_finite(trace):
    return np.isfinite(trace.dist_m).all() and np.isfinite(trace.duty_pct).all()


def records_jsonl(trace):
    return "".join(json.dumps(r, separators=(",", ":")) + "\n" for r in records(trace))


def full_parse(tmp_path, data):
    """(cond, seed, dist_m, truncated) of a trace as the full JSON parser,
    wire.journal_read, gives them; cond and seed None without a record."""
    path = tmp_path / "trace.jsonl"
    path.write_bytes(data)
    records, truncated = wire.journal_read(path)
    first = records[0] if records else {"cond": None, "seed": None}
    return (first["cond"], first["seed"],
            np.asarray([r["dist_m"] for r in records], dtype=float), truncated)


def assert_same_parse(got, want):
    assert got[:2] == want[:2] and got[3] == want[3]
    assert got[2].dtype == np.float64
    assert np.array_equal(got[2].view(np.int64), np.asarray(want[2], float).view(np.int64))


EMPTY = (None, None, [], False)


states = st.sampled_from([s.value for s in SafetyState])
int64s = st.integers(-2**63, 2**63 - 1)


@st.composite
def traces(draw, seeds=st.integers()):
    floats = st.floats() if draw(st.booleans()) else st.floats(allow_nan=False,
                                                               allow_infinity=False)
    rows = draw(st.lists(st.tuples(int64s, floats, states, floats), max_size=12))
    return make_trace(rows, draw(st.sampled_from(sim.CONDITIONS)), draw(seeds))


EDGE_ROWS = [(0, 0.3, 0, 0.0), (-2**63, -0.0, 1, 5e-324), (2**63 - 1, 1e16, 2, 100.0),
             (10, 2.2250738585072014e-308, 0, 1.7976931348623157e308)]


def read_dist(data, read_bytes=None):
    """read_trace_dist of a file holding ``data``, read ``read_bytes`` at a time."""
    with mock.patch.object(sim, "_READ_BYTES", read_bytes or sim._READ_BYTES):
        return sim.read_trace_dist(io.BytesIO(data))


def encoded(trace):
    return "".join(trace.jsonl()).encode()


@settings(max_examples=300)
@given(traces())
@example(make_trace([]))
@example(make_trace(EDGE_ROWS, "va", -10**30))
@example(make_trace(EDGE_ROWS + [(20, math.nan, 1, 0.0)]))
@example(make_trace(EDGE_ROWS + [(20, 0.3, 1, math.inf)], "va", 7))
@example(make_trace(EDGE_ROWS + [(20, -math.inf, 2, -math.inf)]))
def test_jsonl_equals_json_dumps_of_records(trace):
    if not is_finite(trace):
        with pytest.raises(ValueError):
            trace.jsonl()  # NaN and Infinity are not JSON: raised by the call itself
        return
    assert "".join(trace.jsonl()) == records_jsonl(trace)


@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_jsonl_blocks_are_whole_lines_at_the_block_edge(extra):
    n = sim._BLOCK + extra
    rng = np.random.default_rng(n)
    trace = make_trace(zip(range(0, 10 * n, 10), rng.random(n).tolist(),
                           rng.integers(0, 3, n).tolist(), (100.0 * rng.random(n)).tolist()),
                       "va", n)
    blocks = list(trace.jsonl())
    assert "".join(blocks) == records_jsonl(trace)
    assert [b.count("\n") for b in blocks] == [sim._BLOCK] * (n // sim._BLOCK) + (
        [n % sim._BLOCK] if n % sim._BLOCK else [])
    assert all(b.endswith("\n") for b in blocks)


@settings(max_examples=300)
@given(traces(seeds=int64s), st.one_of(st.none(), st.integers(1, 64)))
@example(make_trace(EDGE_ROWS, "va", -2**63), None)
@example(make_trace(EDGE_ROWS, "va", -2**63), 1)
@example(make_trace(EDGE_ROWS + [(20, math.nan, 1, 0.0)]), None)
def test_read_trace_dist_reads_jsonl_exactly(trace, read_bytes):
    if not is_finite(trace):
        with pytest.raises(ValueError):
            trace.jsonl()  # NaN and Infinity are not JSON
        return
    got = read_dist(encoded(trace), read_bytes)
    if len(trace) == 0:
        assert_same_parse(got, EMPTY)
        return
    assert_same_parse(got, (trace.condition, trace.seed, trace.dist_m, False))


def test_read_trace_dist_agrees_with_full_parser_on_damaged_files(tmp_path):
    data = encoded(make_trace(EDGE_ROWS[:3], "va", 12))
    cuts = [data[:k] for k in range(len(data) + 1)]
    flips = [data[:k] + bytes([data[k] ^ 1 << bit]) + data[k + 1:]
             for k in range(len(data)) for bit in range(8)]
    refused = not_utf8 = 0
    for blob in cuts + flips:
        try:
            got = read_dist(blob)
        except ValueError:
            assert blob not in cuts  # every cut reads as the full parser reads it
            with pytest.raises(ValueError):
                read_dist(blob, 7)
            refused += 1
            continue
        assert_same_parse(read_dist(blob, 7), got)
        try:
            want = full_parse(tmp_path, blob)
        except UnicodeDecodeError:
            # The last newline flipped to a byte that is not UTF-8: the full
            # parser cannot decode the last line, which is read as torn.
            assert blob[:-1] == data[:-1] and got[3]
            not_utf8 += 1
            continue
        assert_same_parse(got, want)
    # Flips to another digit stay readable; one that leaves no trace line is refused.
    assert not_utf8 == 1 and 0 < refused < len(flips)


def test_read_trace_dist_rejects_foreign_shapes():
    line = encoded(make_trace([(0, 0.3, 0, 0.0)], "va", 1))
    one_line = ("va", 1, [0.3], False)
    assert_same_parse(read_dist(line), one_line)
    assert_same_parse(read_dist(line[:-1]), one_line)  # a whole last line is kept
    assert_same_parse(read_dist(line + line[:50]), ("va", 1, [0.3], True))
    assert_same_parse(read_dist(b""), EMPTY)
    assert_same_parse(read_dist(line[:50]), (None, None, [], True))
    # The longest last piece without a newline that is held, and one byte more.
    assert_same_parse(read_dist(line + b" " * (sim._MAX_LINE - 1)), ("va", 1, [0.3], True))
    with pytest.raises(ValueError, match=f"line 2 is longer than {sim._MAX_LINE} bytes"):
        read_dist(line + b" " * sim._MAX_LINE)
    for foreign in (line + b"\n", line.replace(b":", b": "),
                    line.replace(b"0.3", b"3"), line.replace(b"va", b"vb"),
                    line.replace(b"SAFE", b"safe"), line.replace(b"\n", b"\r\n"),
                    line.replace(b'"seed":1', b'"seed":1.0'), b"\xef\xbb\xbf" + line,
                    line.replace(b'"seed":1', b'"seed":1' + b"0" * 19),
                    line.replace(b"0.3", b"3" * 17 + b".0"),
                    line.replace(b"0.3", b"0." + b"3" * 21), line.replace(b"0.3", b"3e0001"),
                    line.replace(b'"t_ms"', b'"u_ms"'), line + b"{}\n" + line):
        with pytest.raises(ValueError, match="is not a trace line"):
            read_dist(foreign)


@pytest.mark.parametrize("read_bytes", [1, None])
@pytest.mark.parametrize("number", [b"0." + b"3" * 5000, b"3" * 5000 + b".0",
                                    b"3e" + b"0" * 5000], ids=["fraction", "integer", "exponent"])
def test_read_trace_dist_refuses_a_long_number_whatever_the_read_size(read_bytes, number):
    # Valid JSON for 0.333..., 333...0 and 3.0, but longer than any float's repr.
    long = encoded(make_trace([(0, 0.3, 0, 0.0)], "va", 1)).replace(b"0.3", number)
    assert len(long) > sim._MAX_LINE
    with pytest.raises(ValueError, match="line 1 is"):
        read_dist(long, read_bytes)


class NewlineFree:
    """An endless stream of digits that fails the test once more than
    ``limit`` bytes are asked of it."""

    def __init__(self, limit):
        self.limit, self.asked = limit, 0

    def read(self, n):
        self.asked += n
        assert self.asked <= self.limit, f"{self.asked} bytes read of a newline-free stream"
        return b"7" * n


@pytest.mark.parametrize("read_bytes", [1, 1000, None])
def test_read_trace_dist_refuses_a_file_without_newlines_after_a_bounded_read(read_bytes):
    with mock.patch.object(sim, "_READ_BYTES", read_bytes or sim._READ_BYTES):
        stream = NewlineFree(sim._MAX_LINE + sim._READ_BYTES)
        with pytest.raises(ValueError, match=f"line 1 is longer than {sim._MAX_LINE} bytes"):
            sim.read_trace_dist(stream)
    assert stream.asked >= sim._MAX_LINE


# Lines of a real trial, about 90 to 120 bytes each, read a few bytes at a
# time so that lines straddle reads and the first line spans several.
TINY_READS = [1, 7, 50, 121, 1000]


@pytest.fixture(scope="module")
def trial_lines():
    cfg = RunConfig(duration_s=2.0)
    trace = next(sim.run_trials(cfg, ["va"], [3]))[2]
    return trace, encoded(trace)


@pytest.mark.parametrize("read_bytes", TINY_READS)
def test_parse_trace_dist_joins_lines_split_across_reads(trial_lines, read_bytes):
    trace, data = trial_lines
    assert len(data.split(b"\n", 1)[0]) > 50
    assert_same_parse(read_dist(data, read_bytes),
                      (trace.condition, trace.seed, trace.dist_m, False))


@pytest.mark.parametrize("read_bytes", TINY_READS)
def test_parse_trace_dist_rejects_damage_in_a_later_read(trial_lines, read_bytes):
    trace, data = trial_lines
    lines = data.splitlines(keepends=True)
    bad = b"".join(lines[:150]) + lines[150].replace(b'"state"', b'"State"') \
        + b"".join(lines[151:])
    with pytest.raises(ValueError, match="line 151 is not a trace line"):
        read_dist(bad, read_bytes)
    whole = (trace.condition, trace.seed, trace.dist_m, False)
    assert_same_parse(read_dist(data[:-1], read_bytes), whole)  # no final newline
    assert_same_parse(read_dist(data + b"{}", read_bytes), whole[:3] + (True,))  # torn
    assert_same_parse(read_dist(b"", read_bytes), EMPTY)


def io_peaks(tmp_path, duration_s):
    """Peak traced memory (bytes) of writing a VA trial's trace file, and of
    reading its distances back."""
    trace = next(sim.run_trials(RunConfig(duration_s=duration_s), ["va"], [1]))[2]
    path = tmp_path / f"trial_{duration_s:g}.jsonl"
    tracemalloc.start()
    try:
        wire.journal_append(path, trace.jsonl())
        _, write_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        with path.open("rb") as stream:
            parsed = sim.read_trace_dist(stream)
        _, read_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(parsed[2]) == len(trace)
    return write_peak, read_peak - before


def test_trace_write_and_read_memory_does_not_grow_with_trial_length(tmp_path):
    # Four times the ticks; only the 8-byte dist_m result may grow.
    short, long = io_peaks(tmp_path, 150.0), io_peaks(tmp_path, 600.0)
    for label, a, b in zip(("write", "read"), short, long):
        assert b - a <= 2e6, f"{label} peak grew from {a / 1e6:.2f} to {b / 1e6:.2f} MB"


def trial_peak_over_result(duration_s):
    """Peak traced memory (bytes) of simulating a VA trial, less the memory
    that the trace it returns keeps."""
    tracemalloc.start()
    try:
        trace = next(sim.run_trials(RunConfig(duration_s=duration_s), ["va"], [1]))[2]
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(trace.decisions) > 0
    return peak - kept


def test_trial_memory_beyond_its_result_does_not_grow_with_trial_length():
    # The result columns and decision log grow with the trial and are kept;
    # a second copy of the log or a whole-trial input list grows the rest
    # by about 1.6 MB over these 450 s.
    short, long = trial_peak_over_result(150.0), trial_peak_over_result(600.0)
    assert long - short <= 0.5e6, f"grew from {short / 1e6:.2f} to {long / 1e6:.2f} MB"


# --- analysis --------------------------------------------------------------

def test_analyze_pairs_report_fields():
    rng = np.random.default_rng(2)
    v = (0.307 + 0.01 * rng.standard_normal(12)).tolist()
    va = (0.326 + 0.005 * rng.standard_normal(12)).tolist()
    rep = sim.analyze_pairs(v, va)
    assert rep["n_pairs"] == 12
    assert rep["mean_diff_va_minus_v"] == pytest.approx(np.mean(va) - np.mean(v))
    assert rep["paired_t"] is not None and rep["paired_t"]["df"] == 11
    assert set(rep) == {"n_pairs", "v", "va", "paired_t", "mean_diff_va_minus_v", "warnings"}


def test_analyze_pairs_zero_variance_warns():
    rep = sim.analyze_pairs([0.3, 0.31], [0.3, 0.31])
    assert rep["paired_t"] is None
    assert any("paired_t" in w for w in rep["warnings"])


def test_analyze_pairs_needs_two():
    with pytest.raises(ValueError):
        sim.analyze_pairs([0.3], [0.31])
    with pytest.raises(stats.LengthMismatch):
        sim.analyze_pairs([0.3, 0.31], [0.3])


def test_matched_means_keeps_exposed_pairs_in_seed_order():
    per_seed = {7: {"va": 0.33, "v": 0.31}, 3: {"v": 0.30, "va": 0.32},
                5: {"v": None, "va": 0.34}, 4: {"v": 0.29}, 9: {"va": 0.35}}
    v, va, warnings = sim.matched_means(per_seed)
    assert (v, va) == ([0.30, 0.31], [0.32, 0.33])
    assert warnings == ["seed 5: no samples below HAD, pair dropped",
                        "2 seed(s) present in only one condition"]
    assert sim.matched_means({}) == ([], [], [])


# --- calibration -----------------------------------------------------------

def test_calibrate_zero_budget_fails():
    with pytest.raises(sim.CalibrationFailed):
        sim.calibrate(sim.CalibrationTargets(), budget=0, cfg=RunConfig())


def test_calibrate_self_consistent_targets_converge(human, trajectory, zone, jet,
                                                    perception, latency):
    # Evaluate the defaults once, use that output as the target: the first
    # evaluation must already satisfy it. Mirrors the objective's convention
    # of dropping pairs without below-HAD exposure.
    from airshield.airflow import perception_errors
    v, va = [], []
    for s in range(6):
        pair = {}
        for cond in sim.CONDITIONS:
            t = run(cond, 1000 + s, human, trajectory, zone, jet, perception,
                    latency, duration=30.0)
            pair[cond] = sim.below_had_mean(t.dist_m, zone.had)
        if pair["v"] is not None and pair["va"] is not None:
            v.append(pair["v"])
            va.append(pair["va"])
    e25 = float(np.mean(np.abs(perception_errors(perception, jet, 100.0, 0.25, 4000, 90001))))
    e35 = float(np.mean(np.abs(perception_errors(perception, jet, 100.0, 0.35, 4000, 90002))))
    targets = sim.CalibrationTargets(v_mean=float(np.mean(v)), va_mean=float(np.mean(va)),
                                     err_near=e25, err_far=e35)
    cfg = RunConfig(safety=zone, jet=jet, perception=perception, latency=latency,
                    human=human, trajectory=trajectory)
    result = sim.calibrate(targets, budget=8, cfg=cfg,
                           trials_per_eval=6, trial_duration_s=30.0,
                           mc_samples=4000, seed=0)
    assert result.evaluations <= 2
    assert abs(result.residuals["v_mean"]) <= targets.tol_mean
    assert abs(result.residuals["va_mean"]) <= targets.tol_mean


def test_calibrate_reports_deterministic_result():
    targets = sim.CalibrationTargets()
    kw = dict(cfg=RunConfig(), trials_per_eval=4, trial_duration_s=20.0,
              mc_samples=2000, seed=3)
    try:
        a = sim.calibrate(targets, budget=6, **kw)
        b = sim.calibrate(targets, budget=6, **kw)
        assert a.residuals == b.residuals and a.evaluations == b.evaluations
    except sim.CalibrationFailed:
        with pytest.raises(sim.CalibrationFailed):
            sim.calibrate(targets, budget=6, **kw)


@pytest.mark.parametrize("change", [dict(tick_ms=20.0), dict(duty_pct=20.0)])
def test_calibrate_fits_the_configured_loop(change):
    # Tolerances wide enough that the first evaluation is the result, so its
    # residuals show the loop that was simulated.
    wide = sim.CalibrationTargets(tol_mean=1.0, tol_err_near=1.0, tol_err_far=1.0)
    kw = dict(trials_per_eval=4, trial_duration_s=20.0, mc_samples=500, seed=0)
    default = sim.calibrate(wide, 1, RunConfig(), **kw).residuals
    changed = sim.calibrate(wide, 1, replace(RunConfig(), **change), **kw).residuals
    assert changed != default


def test_slow_detector_drops_frames_latest_wins(human, trajectory, zone, jet,
                                                perception, latency):
    # Detection slower than the frame interval: frames must be dropped
    # (freshest wins) instead of queueing, so the decision rate tracks the
    # detector, not the camera.
    from airshield.pipeline import StageLatencyModel
    slow = StageLatencyModel(capture_ms=33.3, detect_ms_mean=80.0, detect_ms_sd=0.0,
                             decide_ms=0.5, transmit_ms=2.0, actuator_rise_ms=100.0)
    t = run("v", 1, human, trajectory, zone, jet, perception, slow, duration=30.0)
    n_frames_captured = int(30.0 * 1000 / 33.3)
    assert len(t.decisions) <= int(30.0 * 1000 / 80.0) + 2
    assert len(t.decisions) < n_frames_captured / 2
    cmd_times = [ts for ts, _, _ in t.decisions]
    assert all(b > a for a, b in zip(cmd_times, cmd_times[1:]))


@settings(max_examples=12)
@given(st.integers(0, 2**32 - 1), st.sampled_from(sim.CONDITIONS),
       st.sampled_from([StageLatencyModel(), StageLatencyModel(detect_ms_sd=15.0),
                        StageLatencyModel(detect_ms_mean=80.0),
                        StageLatencyModel(transmit_ms=100.0)]))
@example(1, "va", StageLatencyModel(detect_ms_sd=15.0))
@example(1, "v", StageLatencyModel(detect_ms_mean=80.0))
@example(1, "va", StageLatencyModel(transmit_ms=100.0))
def test_each_tick_shows_the_last_command_due_by_then(seed, cond, latency):
    # With a noisy or slow detector frames queue and drop, and with a slow
    # link several commands are in flight at once; the actuator still takes
    # them in the order of their times.
    cfg = RunConfig(latency=latency, duration_s=20.0)
    trace = sim.run_trial(cond, cfg.human, cfg.trajectory, cfg.safety, cfg.jet,
                          cfg.perception, cfg.latency, cfg.duration_s, seed,
                          tick_ms=cfg.tick_ms, duty_on=cfg.duty_pct)
    times = [ts for ts, _, _ in trace.decisions]
    assert times == sorted(times)
    # The loop's clock: tick i is at i * dt s.
    tick_s = np.arange(len(trace)) * (cfg.tick_ms / 1000.0)
    applied = np.searchsorted(times, tick_s, side="right")
    states = np.array([int(SafetyState.SAFE)] + [s for _, s, _ in trace.decisions])
    assert np.array_equal(trace.state, states[applied])


@settings(max_examples=12)
@given(st.integers(0, 2**32 - 1), st.sampled_from(sim.CONDITIONS),
       st.sampled_from([StageLatencyModel(), StageLatencyModel(detect_ms_sd=15.0),
                        StageLatencyModel(detect_ms_mean=80.0),
                        StageLatencyModel(transmit_ms=100.0)]))
@example(1, "va", StageLatencyModel(detect_ms_sd=15.0))
@example(1, "v", StageLatencyModel(detect_ms_mean=80.0))
@example(1, "va", StageLatencyModel(transmit_ms=100.0))
def test_each_tick_shows_the_duty_its_state_drives(seed, cond, latency):
    # The impeller moves toward the duty of the tick's state (full duty unless
    # SAFE) by the first-order step, and within the settle band takes it exactly.
    # Frequent excursions run the fan in nearly every trial.
    cfg = RunConfig(latency=latency, duration_s=20.0,
                    human=sim.HumanModel(excursion_rate=0.5))
    trace = sim.run_trial(cond, cfg.human, cfg.trajectory, cfg.safety, cfg.jet,
                          cfg.perception, cfg.latency, cfg.duration_s, seed,
                          tick_ms=cfg.tick_ms, duty_on=cfg.duty_pct)
    tau = latency.actuator_rise_ms / 1000.0 / math.log(10.0)
    alpha = 1.0 - math.exp(-cfg.tick_ms / 1000.0 / tau)
    duty, want = 0.0, []
    for state in trace.state.tolist():
        target = cfg.duty_pct if state != SafetyState.SAFE else 0.0
        duty += (target - duty) * alpha
        if abs(target - duty) < sim._DUTY_SETTLE_PCT:
            duty = target
        want.append(duty)
    assume(trace.duty_pct.max() > 0.0)
    assert trace.duty_pct.tobytes() == np.array(want).tobytes()


def test_a_duty_of_minus_zero_runs_as_zero(human, trajectory, zone, jet, perception, latency):
    zero, minus_zero = (run("va", 7, human, trajectory, zone, jet, perception, latency,
                            duty_on=duty) for duty in (0.0, -0.0))
    assert list(minus_zero.jsonl()) == list(zero.jsonl())


# --- reaction latency ------------------------------------------------------

def test_actuation_reaction_bound(human, trajectory, zone, jet, perception, latency):
    bound = (latency.capture_ms + latency.detect_ms_mean + 3 * latency.detect_ms_sd
             + latency.decide_ms + latency.transmit_ms)
    delays = []
    for s in range(25):
        t = run("va", s, human, trajectory, zone, jet, perception, latency,
                duration=120.0)
        cmds = [ts * 1000.0 for ts, st, act in t.decisions if act]
        below = t.dist_m <= zone.had
        above = ~below
        for i in range(50, len(t) - 6):
            if below[i] and above[i - 50:i].all() and below[i:i + 6].all():
                t_cross = t.t_ms[i]
                nxt = [ts for ts in cmds if ts >= t_cross]
                if nxt:
                    delays.append(nxt[0] - t_cross)
    assert len(delays) >= 60
    assert np.percentile(delays, 99) <= bound


def response_window_ticks(latency, tick_ms):
    """Ticks within which the loop answers a distance: a frame interval, two
    detect times of mean + 6 sd (a frame can wait for one in progress), the
    decision and the link, plus a tick each to capture and apply."""
    window_ms = (latency.capture_ms + 2 * (latency.detect_ms_mean + 6 * latency.detect_ms_sd)
                 + latency.decide_ms + latency.transmit_ms)
    return math.ceil(window_ms / tick_ms) + 2


# detect_ms_mean stays bounded here. A detector slower than the trial
# (detect_ms_mean=1e308) never frees, so the loop answers no later frame and
# the bound fails; that is open until a stale-frame rule (ROADMAP item 7).
@settings(max_examples=25)
@given(st.integers(0, 2**32 - 1), st.sampled_from(sim.CONDITIONS),
       st.sampled_from([StageLatencyModel(), StageLatencyModel(detect_ms_sd=15.0),
                        StageLatencyModel(detect_ms_mean=80.0),
                        StageLatencyModel(detect_ms_mean=200.0),
                        StageLatencyModel(transmit_ms=100.0),
                        StageLatencyModel(actuator_rise_ms=1000.0)]),
       st.sampled_from([3.3, 7.0, 10.0]), st.sampled_from([0.0, 10.0, 100.0]),
       st.sampled_from([0.08, 0.3]))
@example(1, "va", StageLatencyModel(), 10.0, 100.0, 0.3)
@example(2, "v", StageLatencyModel(detect_ms_mean=80.0), 3.3, 0.0, 0.3)
def test_the_loop_answers_a_distance_within_its_response_window(seed, cond, latency, tick_ms,
                                                                 duty_pct, excursion_rate):
    cfg = RunConfig(latency=latency, tick_ms=tick_ms, duty_pct=duty_pct, duration_s=60.0,
                    human=sim.HumanModel(excursion_rate=excursion_rate))
    trace = next(sim.run_trials(cfg, [cond], [seed]))[2]
    w = response_window_ticks(latency, tick_ms)
    # Row k holds the w ticks that end at tick k + w - 1.
    last_w = np.lib.stride_tricks.sliding_window_view(trace.dist_m, w)
    state = trace.state[w - 1:]
    inside = (last_w <= cfg.safety.had).all(axis=1)
    outside = (last_w > cfg.safety.had + cfg.safety.hysteresis).all(axis=1)
    assert np.all(state[inside] != int(SafetyState.SAFE))
    assert np.all(state[outside] == int(SafetyState.SAFE))
