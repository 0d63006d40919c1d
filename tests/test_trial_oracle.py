"""``sim.run_trial`` against the loop it replaced, kept here as the oracle.

``reference_trial`` runs every tick through the per-tick body, draws each
excursion's three values as it starts, and fills the state and duty columns
from (tick, value) marks at each block's end; ``run_trial`` runs its idle
spans (ticks in any phase beyond the HAD with every command in flight SAFE,
no retreat pending, and the fan stopped or winding down outside the reach,
grab and return phases) a span at a time, its hand laid out in numpy, with
the fan stopped through excursion candidates and into the reaches they
start, and stores nonzero states and duties where it makes them, a
winding-down duty tick by tick. Both move the hand on ``sim._move``'s
closed-form law, so they must agree bit for bit.
"""

import math
from array import array
from dataclasses import replace
from itertools import chain, count
from typing import Optional
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from airshield import sim
from airshield.airflow import felt_multipliers, is_felt
from airshield.config import RunConfig
from airshield.pipeline import StageLatencyModel, draw_detect_ms
from airshield.safety import SafetyState, step

_TASK_MOVE, _TASK_DWELL, _REACH, _GRAB, _RETURN, _RETREAT = range(6)


def fill_from_marks(out, stop, marks):
    """Fill ``out`` from the first mark's tick up to ``stop`` so each tick holds
    the value of the last mark at or before it; of several marks on one tick,
    the last one counts."""
    ticks, values = zip(*marks)
    out[ticks[0]:stop] = np.repeat(values, np.diff(ticks, append=stop))


def reference_trial(cond, human, traj, zone, jet, perception, latency, duration_s, seed,
                    tick_ms=10.0, duty_on=100.0):
    """The trial loop with every tick run through its per-tick body."""
    if cond not in sim.CONDITIONS:
        raise ValueError(f"condition must be one of {sim.CONDITIONS}, got {cond!r}")
    n = sim.trial_ticks(duration_s, tick_ms, duty_on, latency.capture_ms)
    dt = tick_ms / 1000.0
    va = cond == "va"

    # Named random streams, drawn in full so both conditions consume
    # identical draws whichever channels fire; the per-tick and per-frame
    # ones are drawn in blocks of ``_BLOCK`` as the loop below uses them, and
    # ``g_event`` gives each excursion its three values as it starts.
    streams = np.random.SeedSequence(seed).spawn(4)
    g_exc, g_event, g_felt, g_lat = (np.random.default_rng(s) for s in streams)
    detect_s = chain.from_iterable((draw_detect_ms(latency, g_lat, sim._BLOCK) / 1000.0).tolist()
                                   for _ in count())

    out_t = np.empty(n, dtype=np.int64)
    out_d = np.empty(n)
    out_state = np.empty(n, dtype=np.uint8)
    out_duty = np.empty(n)

    # Hand state: in a move phase the hand is ``k`` ticks into ``move``.
    tray = human.task_positions[0]
    toolbox = human.task_positions[1]
    hx, hy, hz = tray
    phase = _TASK_DWELL
    task_target = toolbox
    phase_until = human.task_dwell_s
    move, k = None, 0
    crossed = False
    vis_at = math.inf
    air_at = math.inf
    reaction_s = human.reaction_latency_ms / 1000.0
    inf = math.inf
    sqrt = math.sqrt
    task_step = human.task_speed * dt
    reach_step = human.reach_speed * dt
    retreat_step = human.retreat_speed * dt

    # Pipeline state.
    capture_s = latency.capture_ms / 1000.0
    decide_s = latency.decide_ms / 1000.0
    transmit_s = latency.transmit_ms / 1000.0
    next_capture = 0.0
    mailbox_d: Optional[float] = None
    mailbox_t = 0.0
    detector_free = 0.0
    dec_state = SafetyState.SAFE
    live_state = 0
    # (command time s, state, actuate) per processed frame, the trace's
    # decision log; the first ``applied`` entries have reached the actuator.
    # ``due`` is the command time of ``commands[applied]``, inf while every
    # command has been applied, so an idle tick tests the queue in one compare.
    commands: list[tuple[float, int, bool]] = []
    applied = 0
    due = inf

    # Actuator first-order response; rise time is to 90% of target. The decay
    # alone never reaches its target, so within ``_DUTY_SETTLE_PCT`` of it the
    # duty settles there exactly and a stopped fan reads 0.0.
    tau = latency.actuator_rise_ms / 1000.0 / math.log(10.0)
    alpha = 1.0 - math.exp(-dt / tau) if tau > 0.0 else 1.0
    duty = 0.0
    duty_target = 0.0

    had = zone.had

    excursion_p = human.excursion_rate * dt

    for start in range(0, n, sim._BLOCK):
        # The per-tick inputs, one block at a time. Each generator is read in
        # sequence and the rest is elementwise, so the block size changes no draw.
        stop = min(start + sim._BLOCK, n)
        times = np.arange(start, stop) * dt
        out_t[start:stop] = np.rint(times * 1000.0)
        felt_block = felt_multipliers(perception, g_felt.standard_normal(stop - start))
        # The ticks whose draw may start an excursion, then inf: the loop
        # tests the rest of an excursion's conditions on these ticks only.
        kicks = iter((np.flatnonzero(g_exc.random(stop - start) < excursion_p)
                      + start).tolist() + [inf])
        next_kick = next(kicks)
        # (tick, value) marks of the state and duty columns: the values the
        # block opens with, then each tick that may change one; the columns
        # are filled from them at the block's end.
        state_marks = [(start, live_state)]
        duty_marks = [(start, duty)]
        for i, tx, ty, tz in zip(range(start, stop),
                                 *sim.trajectory_positions(traj, times).T.tolist()):
            t = i * dt

            # --- hand update ---------------------------------------------
            if phase == _TASK_DWELL:
                if t >= phase_until:
                    phase, move, k = _TASK_MOVE, sim._move((hx, hy, hz), task_target, task_step), 0
            elif phase == _GRAB:
                if t >= phase_until:
                    phase, move, k = _RETURN, sim._move((hx, hy, hz), tray, reach_step), 0
            else:
                k += 1
                sx, sy, sz, mx, my, mz, step_len, length, arrive, goal = move
                if k >= arrive:
                    hx, hy, hz = goal
                    if phase == _REACH:
                        phase = _GRAB
                        phase_until = t + human.grab_dwell_s
                    else:  # a task move, a return or a retreat ends in a task dwell
                        task_target = (tray if phase == _TASK_MOVE and task_target is toolbox
                                       else toolbox)
                        phase = _TASK_DWELL
                        phase_until = t + human.task_dwell_s
                else:
                    f = k * step_len / length
                    hx = sx + mx * f
                    hy = sy + my * f
                    hz = sz + mz * f

            # Excursion kick-off from the task loop.
            if i == next_kick:
                next_kick = next(kicks)
                if phase <= 1:
                    ux, uy, uz = hx - tx, hy - ty, hz - tz
                    un = sqrt(ux * ux + uy * uy + uz * uz)
                    if un > 1e-9:  # degenerate hand-on-TCP geometry: no direction to reach
                        item, notice, delay = g_event.random(3).tolist()
                        d_item = (human.item_near_m
                                  + (human.item_far_m - human.item_near_m) * item)
                        item_at = (tx + ux / un * d_item, ty + uy / un * d_item,
                                   tz + uz / un * d_item)
                        move, k = sim._move((hx, hy, hz), item_at, reach_step), 0
                        notice_s = (delay * human.notice_delay_max_s
                                    if notice < human.attention_p else inf)
                        vis_at = inf
                        air_at = inf
                        crossed = False
                        phase = _REACH

            dx, dy, dz = hx - tx, hy - ty, hz - tz
            d = sqrt(dx * dx + dy * dy + dz * dz)

            # --- tracking and decision pipeline --------------------------
            while next_capture <= t:
                # Freshest frame wins; older unprocessed frames are dropped. The
                # frame keeps its nominal capture time so the decision chain runs
                # in continuous time, one tick-grid snapshot of the distance.
                mailbox_d = d
                mailbox_t = next_capture
                next_capture += capture_s
            if mailbox_d is not None and t >= detector_free:
                done = max(mailbox_t, detector_free) + next(detect_s)
                decision = step(dec_state, mailbox_d, zone)
                dec_state = decision.state
                command_t = done + decide_s + transmit_s
                commands.append((command_t, int(decision.state), decision.actuate))
                if due == inf:
                    due = command_t
                detector_free = done
                mailbox_d = None
            while due <= t:
                _, state, actuate = commands[applied]
                applied += 1
                due = commands[applied][0] if applied < len(commands) else inf
                duty_target = duty_on if actuate else 0.0
                if state != live_state:
                    live_state = state
                    state_marks.append((i, state))

            # A settled duty is left as it is: the update would add 0.0 to it.
            if duty != duty_target:
                duty += (duty_target - duty) * alpha
                if abs(duty_target - duty) < sim._DUTY_SETTLE_PCT:
                    duty = duty_target
                duty_marks.append((i, duty))

            # --- feedback channels ---------------------------------------
            if 2 <= phase <= 4:  # reaching, grabbing, or returning near the robot
                if not crossed and d <= had:
                    crossed = True
                    vis_at = t + notice_s + reaction_s
                if (va and air_at == inf and duty > 0.0
                        and is_felt(perception, jet, duty, d, float(felt_block[i - start]))):
                    air_at = t + reaction_s
                if t >= vis_at or t >= air_at:
                    phase = _RETREAT
                    move, k = sim._move((hx, hy, hz), tray, retreat_step), 0
                    vis_at = inf
                    air_at = inf

            out_d[i] = d

        fill_from_marks(out_state, stop, state_marks)
        fill_from_marks(out_duty, stop, duty_marks)

    return sim.DistanceTrace(t_ms=out_t, dist_m=out_d, state=out_state, duty_pct=out_duty,
                             condition=cond, seed=seed,
                             command_s=array("d", [command_t for command_t, _, _ in commands]),
                             command_state=bytearray(state for _, state, _ in commands))


LATENCIES = [
    StageLatencyModel(),
    StageLatencyModel(detect_ms_sd=15.0),
    StageLatencyModel(detect_ms_mean=80.0),  # a detect time longer than a frame
    StageLatencyModel(detect_ms_mean=45.0, detect_ms_sd=10.0),
    StageLatencyModel(transmit_ms=100.0, actuator_rise_ms=1000.0),
    StageLatencyModel(detect_ms_mean=0.0, detect_ms_sd=0.0, decide_ms=0.0, transmit_ms=0.0,
                      actuator_rise_ms=0.0),
    StageLatencyModel(capture_ms=10.0),
    # the detector busy at most captures, so the schedule switches between a
    # run of idle frames and a frame stepped alone on nearly every frame
    StageLatencyModel(detect_ms_mean=33.0),
]
HUMANS = [
    {},
    {"task_dwell_s": 0.0},
    {"task_positions": ((0.60, 0.45, 0.60), (0.60, 0.45, 0.60))},  # equal task points
    # one task point within the HAD of the robot's loop, so spans end on near ticks
    {"task_positions": ((0.30, 0.20, 0.50), (0.80, 0.25, 0.60))},
    {"task_speed": 1e-4},  # a task move of 280 000 ticks, longer than any trial here
    {"task_speed": 1e-322},  # a step that underflows to 0: a task move never arrives
    {"task_positions": ([0.60, 0.45, 0.60], [0.80, 0.25, 0.60])},  # lists, not tuples
]


def assert_same_trial(got, want):
    for column in ("t_ms", "dist_m", "state", "duty_pct"):
        a, b = getattr(got, column), getattr(want, column)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), column
    assert repr(got.decisions) == repr(want.decisions)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), cond=st.sampled_from(sim.CONDITIONS),
       latency=st.sampled_from(LATENCIES), tick_ms=st.sampled_from([3.3, 7.0, 10.0]),
       duty_pct=st.sampled_from([0.0, -0.0, 10.0, 100.0]),
       excursion_rate=st.sampled_from([0.0, 0.08, 2.0]),
       attention_p=st.sampled_from([0.0, 0.9, 1.0]), human=st.sampled_from(HUMANS),
       duration_s=st.floats(0.1, 40.0), block=st.sampled_from([7, 61, sim._BLOCK]))
# At duty 0 the fan never moves, even while the state is ACTIVE: with a task
# point within the HAD, the task loop holds ACTIVE states with a stopped fan.
@example(seed=1, cond="va",
         latency=StageLatencyModel(capture_ms=100.0, detect_ms_mean=80.0, decide_ms=5.0),
         tick_ms=3.3, duty_pct=0.0, excursion_rate=2.0, attention_p=0.9, human={},
         duration_s=20.0, block=sim._BLOCK)
@example(seed=1, cond="v", latency=StageLatencyModel(), tick_ms=10.0, duty_pct=0.0,
         excursion_rate=0.08, attention_p=0.9, human=HUMANS[3], duration_s=20.0,
         block=sim._BLOCK)
# A task point within the HAD ends spans before candidates their walk laid
# out, reaches included: such a candidate is neither taken nor drawn, and the
# per-tick loop meets it as the walk did.
@example(seed=1, cond="v", latency=StageLatencyModel(), tick_ms=10.0, duty_pct=0.0,
         excursion_rate=2.0, attention_p=0.9, human=HUMANS[3], duration_s=20.0,
         block=sim._BLOCK)
@example(seed=1, cond="va", latency=StageLatencyModel(), tick_ms=10.0, duty_pct=0.0,
         excursion_rate=2.0, attention_p=0.9, human=HUMANS[3], duration_s=20.0,
         block=sim._BLOCK)
@example(seed=7, cond="v", latency=StageLatencyModel(), tick_ms=10.0, duty_pct=100.0,
         excursion_rate=2.0, attention_p=0.9, human=HUMANS[3], duration_s=20.0,
         block=sim._BLOCK)
@example(seed=1, cond="va", latency=StageLatencyModel(), tick_ms=10.0, duty_pct=100.0,
         excursion_rate=2.0, attention_p=0.9, human=HUMANS[3], duration_s=20.0,
         block=sim._BLOCK)
# With a slow actuator a candidate comes while the fan still winds down: it
# stays in the per-tick loop, since the air channel reads the duty from its
# reach on.
@example(seed=1, cond="va", latency=LATENCIES[4], tick_ms=10.0, duty_pct=100.0,
         excursion_rate=2.0, attention_p=0.9, human={}, duration_s=20.0, block=sim._BLOCK)
# With no lag, the fan stops while a retreat, set off by the airflow or by
# seeing the robot, is still pending, so no span may open before it starts.
@example(seed=1, cond="va", latency=LATENCIES[5], tick_ms=3.3, duty_pct=10.0,
         excursion_rate=2.0, attention_p=0.0, human=HUMANS[4], duration_s=20.0,
         block=sim._BLOCK)
@example(seed=1, cond="v", latency=LATENCIES[5], tick_ms=3.3, duty_pct=10.0,
         excursion_rate=2.0, attention_p=0.9, human=HUMANS[2], duration_s=20.0,
         block=sim._BLOCK)
# With a slow actuator the fan still winds down as the next reach starts, and
# the air channel feels it beyond the HAD, so no span may open in a reach then.
@example(seed=3, cond="va", latency=LATENCIES[4], tick_ms=10.0, duty_pct=100.0,
         excursion_rate=2.0, attention_p=0.0, human={}, duration_s=20.0, block=sim._BLOCK)
# A frame interval of one tick: the capture clock drifts against the tick
# grid, so now and then two captures land on one tick, and the older is dropped.
@example(seed=1, cond="va", latency=StageLatencyModel(capture_ms=33.3), tick_ms=33.3,
         duty_pct=100.0, excursion_rate=2.0, attention_p=0.9, human={}, duration_s=40.0,
         block=sim._BLOCK)
# Distances that overflow to inf, which ``step`` answers with DANGER.
@example(seed=2, cond="v", latency=StageLatencyModel(), tick_ms=10.0, duty_pct=100.0,
         excursion_rate=0.08, attention_p=0.9,
         human={"task_positions": ((1e307, 0.45, 0.60), (0.80, 1e307, -1e307))},
         duration_s=20.0, block=sim._BLOCK)
def test_run_trial_equals_the_per_tick_loop(seed, cond, latency, tick_ms, duty_pct,
                                            excursion_rate, attention_p, human, duration_s,
                                            block):
    cfg = RunConfig(latency=latency, tick_ms=tick_ms, duty_pct=duty_pct)
    hm = replace(cfg.human, excursion_rate=excursion_rate, attention_p=attention_p, **human)
    args = (cond, hm, cfg.trajectory, cfg.safety, cfg.jet, cfg.perception, latency,
            duration_s, seed, tick_ms, duty_pct)
    want = reference_trial(*args)
    with mock.patch.object(sim, "_BLOCK", block):
        got = sim.run_trial(*args)
    assert_same_trial(got, want)


@pytest.mark.parametrize("latency", LATENCIES[:3], ids=["default", "detect-sd-15", "detect-80"])
def test_the_frame_schedule_does_not_depend_on_the_hand(latency):
    # Which frames are processed, and when their commands land, follows from
    # the capture clock, the detect draws and the tick grid alone: it is the
    # same in both conditions and for every hand, while the states differ.
    cfg = RunConfig(latency=latency)
    times, logs = set(), set()
    for human in HUMANS:
        hm = replace(cfg.human, excursion_rate=2.0, **human)
        for cond in sim.CONDITIONS:
            trace = sim.run_trial(cond, hm, cfg.trajectory, cfg.safety, cfg.jet,
                                  cfg.perception, latency, 30.0, 7)
            times.add(repr([command_t for command_t, _, _ in trace.decisions]))
            logs.add(repr(trace.decisions))
    assert len(times) == 1
    assert len(logs) > 1


@pytest.mark.parametrize("latency", [LATENCIES[0], LATENCIES[2]], ids=["default", "detect-80"])
def test_idle_frames_do_not_call_step(latency):
    # Most frames of a trial, reaches and returns beyond the HAD among them,
    # fall in idle spans, whose decisions are SAFE without a call. With an
    # 80 ms detect time a command is nearly always in flight, so there this
    # holds only because a span opens while every command in flight is SAFE.
    cfg = RunConfig(duration_s=120.0, latency=latency)
    with mock.patch.object(sim, "step", wraps=sim.step) as spy:
        trace = next(sim.run_trials(cfg, ["va"], [1]))[2]
    assert 0 < spy.call_count < len(trace.decisions) / 5
    assert_same_trial(trace, reference_trial("va", cfg.human, cfg.trajectory, cfg.safety,
                                             cfg.jet, cfg.perception, cfg.latency, 120.0, 1))


@pytest.mark.parametrize("latency", [LATENCIES[0], LATENCIES[2]], ids=["default", "detect-80"])
def test_retreat_and_wind_down_frames_do_not_call_step(latency):
    # Once a retreat has taken the hand beyond the HAD, its frames fall in
    # idle spans, while the fan still winds down after the state went back to
    # SAFE too. Without them, 432 of 3604 frames call ``step`` here at the
    # default latency and 183 of 1492 with an 80 ms detect time.
    cfg = RunConfig(duration_s=120.0, latency=latency)
    with mock.patch.object(sim, "step", wraps=sim.step) as spy:
        trace = next(sim.run_trials(cfg, ["va"], [1]))[2]
    assert 0 < spy.call_count < len(trace.command_s) / 20
    assert_same_trial(trace, reference_trial("va", cfg.human, cfg.trajectory, cfg.safety,
                                             cfg.jet, cfg.perception, cfg.latency, 120.0, 1))


def test_a_span_that_ends_near_the_robot_is_not_tried_again_at_once():
    # With a task point within the HAD, a walk ends on the first near tick; it
    # is tried again only once the hand is back beyond the HAD. Retrying on
    # every tick took about 1000 walks per 120 s trial, against about 25 with the guard.
    cfg = RunConfig(latency=StageLatencyModel(capture_ms=1000.0))
    human = replace(cfg.human, **HUMANS[3])
    for seed in (1, 2, 3):
        for cond in sim.CONDITIONS:
            with mock.patch.object(sim, "_walk", side_effect=sim._walk) as walk:
                sim.run_trial(cond, human, cfg.trajectory, cfg.safety, cfg.jet,
                              cfg.perception, cfg.latency, 120.0, seed)
            assert walk.call_count < 100, (seed, cond, walk.call_count)


def test_idle_spans_run_through_excursion_candidates():
    # With the fan stopped a walk runs through an excursion candidate into
    # the reach it starts, and lays the hand out only up to the reach's
    # arrival, by the robot. Walks that ended at each candidate took 16.8
    # walks and 15 796 rows per default 120 s trial over these seeds.
    cfg = RunConfig(duration_s=120.0)
    seeds = range(1000, 1020)
    rows, plain = [], sim._walk

    def walk(*args):
        xyz, marks = plain(*args)
        rows.append(xyz.shape[1])
        return xyz, marks

    with mock.patch.object(sim, "_walk", side_effect=walk):
        trials = sum(1 for _ in sim.run_trials(cfg, sim.CONDITIONS, seeds))
    assert trials == 2 * len(seeds)
    assert len(rows) / trials <= 14.0
    assert sum(rows) / trials <= 12_600
