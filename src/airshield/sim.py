"""Seeded discrete-time simulation of a shared-workspace interaction trial.

A scripted robot arm runs a periodic plug-in loop while a distracted human
works a bit-tray/toolbox task nearby. Occasionally the human reaches toward
the robot's work zone after a dropped item; the reach crosses the haptic
activation distance (HAD), the tracking/decision pipeline activates the
impeller with realistic stage latency, and the human retreats either when
the airflow is felt (VA condition) or when proximity is noticed visually
(V condition; the visual channel is also present in VA).

Every random draw comes from named per-trial streams, drawn in full
whichever channels fire, so trials are bit-reproducible from their seed and
the two feedback conditions consume identical randomness: with the airflow
channel disabled, V and VA traces at equal seeds are identical by
construction. Per-tick and per-frame inputs are drawn, and traces encoded,
in blocks of ``_BLOCK``, and read back in chunks of ``_READ_BYTES``, so no
step holds inputs or text for a whole trial, whatever a file holds.

Within a block the loop does per tick only what changes every tick: it moves
the hand and stores the distance. The block's excursion candidates, the
ticks whose draw falls below the per-tick excursion chance, are found in one
comparison before the loop. The state and duty columns start at zero and a
tick stores each only where it is nonzero. Idle ticks, in the task loop
beyond the HAD with the state SAFE, the fan stopped and no command in flight,
run a span at a time and store only their distances: the hand walks task
moves laid out once per trial, the distances are taken in numpy, and each
frame decides SAFE without ``step``.
"""

from __future__ import annotations

import json
import math
import re
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace
from itertools import chain, count, islice
from operator import itemgetter
from typing import TYPE_CHECKING, BinaryIO, Iterator, Mapping, Optional, Sequence

import numpy as np

from . import stats
from .airflow import (JetModel, PerceptionModel, felt_multipliers, is_felt,
                      perception_errors)
from .pipeline import StageLatencyModel, draw_detect_ms
from .safety import SafetyState, SafetyZoneConfig, step

if TYPE_CHECKING:  # config imports this module
    from .config import RunConfig

__all__ = [
    "CalibrationFailed",
    "Vec3",
    "RobotTrajectory",
    "HumanModel",
    "DistanceTrace",
    "read_trace_dist",
    "CalibrationTargets",
    "CalibrationResult",
    "trajectory_positions",
    "trial_ticks",
    "run_trial",
    "run_trials",
    "below_had_mean",
    "matched_means",
    "analyze_pairs",
    "calibrate",
    "CONDITIONS",
    "default_trajectory",
]

CONDITIONS = ("v", "va")

Vec3 = tuple[float, float, float]


class CalibrationFailed(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Robot trajectory
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RobotTrajectory:
    """Periodic waypoint loop followed with a trapezoidal speed profile.

    ``waypoints`` holds (position, dwell seconds) pairs; the loop closes
    from the last waypoint back to the first. It is laid out once, in
    ``_table``, one row per timed move: start and end time, start and end
    point, length; a dwell is a move of length 0. ``cycle_period`` is the
    time one pass of the loop takes, the end time of the last row.
    """

    waypoints: tuple[tuple[Vec3, float], ...]
    speed: float = 0.12
    accel: float = 0.6
    cycle_period: float = field(init=False)
    _table: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.waypoints) < 2:
            raise ValueError("a trajectory needs at least 2 waypoints")
        if not all(math.isfinite(c) for pos, _ in self.waypoints for c in pos):
            raise ValueError("waypoint coordinates must be finite")
        if not all(0.0 <= dwell < math.inf for _, dwell in self.waypoints):
            raise ValueError("dwell times must be finite and >= 0")
        if not (0.0 < self.speed < math.inf and 0.0 < self.accel < math.inf):
            raise ValueError("speed and acceleration must be positive and finite")
        rows = []
        t = 0.0
        for (pos, dwell), (nxt, _) in zip(self.waypoints, self.waypoints[1:] + self.waypoints[:1]):
            if dwell > 0.0:
                rows.append((t, t + dwell, *pos, *pos, 0.0))
                t += dwell
            d = _dist3(pos, nxt)
            if d > 0.0:
                dur = _trapezoid_time(d, self.speed, self.accel)
                rows.append((t, t + dur, *pos, *nxt, d))
                t += dur
        period = rows[-1][1] if rows else 0.0
        if not 0.0 < period < math.inf:
            raise ValueError(f"a pass of the loop must take positive, finite time, got {period} s")
        object.__setattr__(self, "cycle_period", period)
        object.__setattr__(self, "_table", np.array(rows))


def _dist3(a: Vec3, b: Vec3) -> float:
    return math.sqrt((a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2 + (a[2] - b[2]) ** 2)


def _trapezoid_time(d: float, vmax: float, a: float) -> float:
    d_ramp = vmax * vmax / a
    if d >= d_ramp:
        return d / vmax + vmax / a
    return 2.0 * math.sqrt(d / a)


def _trapezoid_s(tau: np.ndarray, dur: np.ndarray, d: np.ndarray, vmax: float,
                 a: float) -> np.ndarray:
    """Arc length at times ``tau`` into trapezoidal moves of durations ``dur``, lengths ``d``."""
    tau = np.minimum(np.maximum(tau, 0.0), dur)
    rem = dur - tau
    accel = 0.5 * a * tau * tau
    decel = d - 0.5 * a * rem * rem
    d_ramp = vmax * vmax / a
    t_r = vmax / a
    cruise = 0.5 * d_ramp + vmax * (tau - t_r)
    return np.where(d >= d_ramp,
                    np.where(tau < t_r, accel, np.where(tau <= dur - t_r, cruise, decel)),
                    np.where(tau <= 0.5 * dur, accel, decel))


def trajectory_positions(traj: RobotTrajectory, times: np.ndarray) -> np.ndarray:
    """Vectorized TCP positions for an array of times, shape (n, 3)."""
    table = traj._table
    phases = np.mod(times, traj.cycle_period)
    idx = np.minimum(np.searchsorted(table[:, 1], phases, side="right"), len(table) - 1)
    rows = table[idx]
    t0, t1, p0, p1, d = rows[:, 0], rows[:, 1], rows[:, 2:5], rows[:, 5:8], rows[:, 8]
    s = _trapezoid_s(phases - t0, t1 - t0, d, traj.speed, traj.accel)
    # A dwell row has d = 0, so its f is inf or nan; it keeps its point as is.
    with np.errstate(divide="ignore", invalid="ignore"):
        f = (s / d)[:, None]
        return np.where(d[:, None] > 0.0, p0 + f * (p1 - p0), p0)


def default_trajectory() -> RobotTrajectory:
    """Compact plug-in loop for a desk-scale arm work zone."""
    return RobotTrajectory(waypoints=(
        ((0.00, 0.00, 0.55), 1.0),
        ((0.18, 0.02, 0.50), 0.3),
        ((0.20, 0.12, 0.42), 1.2),
        ((0.05, 0.08, 0.52), 0.3),
    ))


# ---------------------------------------------------------------------------
# Human behavior model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HumanModel:
    """Inattentive-worker hand model.

    The hand shuttles between the two task positions; with probability
    ``excursion_rate`` per second it leaves the task to reach for a dropped
    item near the robot, placed ``item_near_m``..``item_far_m`` from the
    current tool point. ``attention_p`` is the chance an approach is
    noticed visually; noticing takes a uniform glance delay plus the motor
    reaction latency, while a felt-airflow trigger pays only the reaction
    latency (the system latency is simulated explicitly).
    """

    task_positions: tuple[Vec3, Vec3] = ((0.60, 0.45, 0.60), (0.80, 0.25, 0.60))
    excursion_rate: float = 0.08
    reaction_latency_ms: float = 250.0
    retreat_speed: float = 0.5
    attention_p: float = 0.90
    reach_speed: float = 0.12
    task_speed: float = 0.30
    task_dwell_s: float = 0.5
    grab_dwell_s: float = 0.25
    notice_delay_max_s: float = 0.5
    item_near_m: float = 0.28
    item_far_m: float = 0.34

    def __post_init__(self) -> None:
        if not all(math.isfinite(c) for pos in self.task_positions for c in pos):
            raise ValueError("task position coordinates must be finite")
        if not 0.0 <= self.attention_p <= 1.0:
            raise ValueError(f"attention_p must be in [0, 1], got {self.attention_p}")
        for name in ("excursion_rate", "reaction_latency_ms", "task_dwell_s",
                     "grab_dwell_s", "notice_delay_max_s"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        for name in ("retreat_speed", "reach_speed", "task_speed"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")
        if not 0.0 < self.item_near_m <= self.item_far_m < math.inf:
            raise ValueError("need 0 < item_near_m <= item_far_m < inf")


# ---------------------------------------------------------------------------
# Trial output
# ---------------------------------------------------------------------------

_STATE_NAMES = {s.value: s.name for s in SafetyState}

# Ticks of a trial that ``run_trial`` simulates, and ``DistanceTrace.jsonl``
# encodes, as one piece.
_BLOCK = 4096
# Bytes that ``read_trace_dist`` asks its stream for at a time, and the
# longest piece without a newline that it holds before it refuses the file.
_READ_BYTES = 1 << 18
_MAX_LINE = 4096
# Duty (%) within which the impeller settles exactly at its commanded duty:
# 1/500 of the 0.5 % step an actuator frame carries, where the jet gives about
# 1e-8 Pa at the HAD against the 0.5 Pa felt threshold.
_DUTY_SETTLE_PCT = 1e-3
# Most ticks one trial may hold: about 28 h at the default 10 ms tick, and
# 250 MB of trace columns.
_MAX_TICKS = 1e7
# Most ticks of a task move laid out for idle spans; a longer one runs tick by tick.
_MOVE_TICKS = 4096


@dataclass
class DistanceTrace:
    """Fixed-tick samples of one trial plus its decision log: one (command
    time s, SafetyState value, actuate) entry per processed frame."""

    t_ms: np.ndarray
    dist_m: np.ndarray
    state: np.ndarray  # SafetyState integer values
    duty_pct: np.ndarray
    condition: str
    seed: int
    decisions: list[tuple[float, int, bool]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.t_ms)

    def jsonl(self) -> Iterator[str]:
        """The trace file: one compact JSON line per tick, fields in the order
        t_ms, dist_m, state (its name), duty_pct, cond, seed, given as blocks
        of up to ``_BLOCK`` whole lines.

        Built column by column from one row template; ``repr`` writes a finite
        float exactly as ``json.dumps`` does. NaN and infinities are not JSON,
        so a trace holding one raises ValueError here, before any block.
        """
        if not (np.isfinite(self.dist_m).all() and np.isfinite(self.duty_pct).all()):
            raise ValueError("a trace file holds finite dist_m and duty_pct only")
        # '"cond":...,"seed":...}', the same on every row.
        tail = json.dumps({"cond": self.condition, "seed": self.seed},
                          separators=(",", ":"))[1:]
        columns = (self.t_ms, self.dist_m, self.state, self.duty_pct)
        return ("".join([
            f'{{"t_ms":{t},"dist_m":{d!r},"state":"{_STATE_NAMES[s]}","duty_pct":{u!r},{tail}\n'
            for t, d, s, u in zip(*(c[lo:lo + _BLOCK].tolist() for c in columns))])
            for lo in range(0, len(self), _BLOCK))


# One trace line exactly as ``DistanceTrace.jsonl`` writes it, capturing the
# dist_m literal. JSON numbers: integers of up to 19 digits, dist_m and duty_pct
# as floats of at most 16 digits before the point, 20 after and 3 of exponent, as
# in any ``repr``; ``json.loads`` agrees on each match and none nears ``_MAX_LINE``.
_JSON_INT = rb"-?(?:0|[1-9][0-9]{0,18})"
_JSON_FLOAT = (rb"-?(?:0|[1-9][0-9]{0,15})"
               rb"(?:\.[0-9]{1,20}(?:[eE][-+]?[0-9]{1,3})?|[eE][-+]?[0-9]{1,3})")
_TRACE_LINE = re.compile(
    rb'^\{"t_ms":' + _JSON_INT + rb',"dist_m":(' + _JSON_FLOAT + rb'),"state":"(?:'
    + "|".join(_STATE_NAMES.values()).encode() + rb')","duty_pct":' + _JSON_FLOAT
    + rb',"cond":"(?:' + "|".join(CONDITIONS).encode() + rb')","seed":' + _JSON_INT
    + rb'\}\n', re.MULTILINE)


def read_trace_dist(stream: BinaryIO) -> tuple[str | None, int | None, np.ndarray, bool]:
    """(cond, seed, dist_m, truncated) of the trace file open for binary
    reading as ``stream``: cond and seed of the first line (None without a
    whole line) and dist_m of every line, as the full JSON parser gives them.

    Any whole line not in the exact shape ``jsonl()`` writes raises
    ValueError, as does a piece of ``_MAX_LINE`` bytes without a newline. A
    last piece without a newline is kept if it is a whole trace line and
    otherwise dropped with truncated True: a write torn by a crash. The file
    is read ``_READ_BYTES`` at a time and parsed up to the last whole line.
    """
    dist = array("d")
    head = rest = b""
    while chunk := stream.read(_READ_BYTES):
        data = rest + chunk
        end = data.rfind(b"\n") + 1
        found = _TRACE_LINE.findall(data, 0, end)
        # A match is one whole line, so every line matched when the counts agree.
        if len(found) != data.count(b"\n", 0, end):
            bad = next(i for i, line in enumerate(data[:end].split(b"\n"))
                       if not _TRACE_LINE.match(line + b"\n"))
            raise ValueError(f"line {len(dist) + bad + 1} is not a trace line")
        head = head or data[:data.find(b"\n") + 1]
        dist.extend(map(float, found))
        rest = data[end:]
        if len(rest) >= _MAX_LINE:
            raise ValueError(f"line {len(dist) + 1} is longer than {_MAX_LINE} bytes")
    if last := _TRACE_LINE.match(rest + b"\n"):
        dist.append(float(last[1]))
    first = json.loads(head or rest) if dist else {}
    return first.get("cond"), first.get("seed"), np.frombuffer(dist), bool(rest) and not last


def below_had_mean(dist_m: np.ndarray | Sequence[float], had: float) -> float | None:
    """Mean of the distance samples at or below the activation distance;
    None when the hand never entered the zone."""
    dist = np.asarray(dist_m)
    mask = dist <= had
    if not mask.any():
        return None
    return float(dist[mask].mean())


# ---------------------------------------------------------------------------
# Trial simulation
# ---------------------------------------------------------------------------

_TASK_MOVE, _TASK_DWELL, _REACH, _GRAB, _RETURN, _RETREAT = range(6)


def trial_ticks(duration_s: float, tick_ms: float, duty_pct: float,
                capture_ms: float) -> int:
    """Ticks in a trial of ``duration_s`` at ``tick_ms`` per tick. ValueError
    unless the tick is positive and finite, the trial finite and at least one
    tick long, the impeller duty ``duty_pct`` in [0, 100], the trial at most
    ``_MAX_TICKS`` ticks long, and the frame interval ``capture_ms`` at least
    one tick and above 0 s. Each message starts with the name of the value it
    refuses."""
    if not 0.0 < tick_ms < math.inf:
        raise ValueError(f"tick_ms must be positive and finite, got {tick_ms}")
    if not tick_ms <= duration_s * 1000.0 < math.inf:
        raise ValueError("duration_s must be finite and last at least one tick, "
                         f"got {duration_s}")
    if not 0.0 <= duty_pct <= 100.0:
        raise ValueError(f"duty_pct must be in [0, 100], got {duty_pct}")
    ticks = duration_s * 1000.0 / tick_ms
    if not ticks <= _MAX_TICKS:  # compared as a float: an int() of inf raises
        raise ValueError(f"tick_ms must leave at most {_MAX_TICKS:,.0f} ticks in the trial, "
                         f"got {tick_ms} ms for {duration_s} s, {ticks:.3g} ticks")
    # At most one frame per tick, and a frame interval still above 0 in
    # seconds, the unit the loop's capture clock steps in, so it passes each tick.
    if not (capture_ms >= tick_ms and capture_ms / 1000.0 > 0.0):
        raise ValueError(f"capture_ms must be at least one tick ({tick_ms} ms) and above 0 s, "
                         f"got {capture_ms}")
    return int(round(ticks))


class _TaskLoop:
    """The hand's task loop, laid out once per trial for its idle spans. A task
    move starts exactly at the tray or the toolbox, as arrivals snap to their
    goal, so ``points`` (and ``xyz``) hold both moves by the loop's recurrence:
    the start, a step per tick and the goal itself on arrival. Indexed by
    ``target is toolbox``: a move's first row (where the dwell before it is
    spent), its last row (the arrival; -1 for one longer than ``_MOVE_TICKS``
    ticks, not laid out) and the row of each point it holds while moving."""

    def __init__(self, tray: Vec3, toolbox: Vec3, step_len: float, dwell_s: float) -> None:
        self.tray, self.toolbox, self.dwell_s = tray, toolbox, dwell_s
        self.points, self.first, self.last, self.row = [], [], [], []
        for start, goal in ((toolbox, tray), (tray, toolbox)):
            (hx, hy, hz), (gx, gy, gz) = start, goal
            path = [tuple(start)]
            while len(path) <= _MOVE_TICKS:
                mx, my, mz = gx - hx, gy - hy, gz - hz
                dist_goal = math.sqrt(mx * mx + my * my + mz * mz)
                if dist_goal <= step_len:
                    break
                f = step_len / dist_goal
                hx += mx * f
                hy += my * f
                hz += mz * f
                path.append((hx, hy, hz))
            arrived = len(path) <= _MOVE_TICKS
            first = len(self.points)
            self.first.append(first)
            self.last.append(first + len(path) if arrived else -1)
            self.row.append({p: first + k for k, p in enumerate(path)} if arrived else {})
            self.points += path + [goal] if arrived else [start]
        self.xyz = np.array(self.points, dtype=float)

    def walk(self, phase: int, target: Vec3, until: float, hand: Vec3,
             times: list[float], lo: int, hi: int) -> tuple[np.ndarray, list]:
        """The hand's rows of ``points`` on ticks ``lo``.. of a block with tick
        times ``times``, from its ``phase``, ``target``, dwell end ``until`` and
        ``hand`` after tick ``lo - 1``; and its (tick, phase, target, until)
        after that tick and after each tick where the phase changes. The walk
        stops at ``hi``, before a move not laid out, or at once when the hand
        is moving off its laid-out move."""
        marks, pieces, r = [(lo - 1, phase, target, until)], [np.arange(0)], lo
        if phase == _TASK_MOVE:  # on from the row after the hand's, if it has one
            k = self.row[target is self.toolbox].get(hand, -2) + 1
            r = lo if k > 0 else hi
        while r < hi:
            box = target is self.toolbox
            if phase == _TASK_DWELL:  # ends on the first tick at or after ``until``
                end = bisect_left(times, until, r, hi)
                pieces.append(np.full(end - r, self.first[box]))
                r = end
                if r == hi or self.last[box] < 0:
                    break
                phase, k = _TASK_MOVE, self.first[box]
                marks.append((r, phase, target, until))
            else:
                n = min(self.last[box] + 1 - k, hi - r)
                pieces.append(np.arange(k, k + n))
                r += n
                if k + n <= self.last[box]:
                    break
                phase, target = _TASK_DWELL, self.tray if box else self.toolbox
                until = times[r - 1] + self.dwell_s
                marks.append((r - 1, phase, target, until))
        return np.concatenate(pieces), marks


def _idle_frames(commands: list, times: list[float], dist: np.ndarray, lo: int, hi: int,
                 next_capture: float, mailbox_t: float, detector_free: float, capture_s: float,
                 detect_s: Iterator[float], decide_s: float, transmit_s: float) -> tuple:
    """Run the frames of an idle span, block ticks ``lo``..``hi - 1`` with tick
    times ``times`` and distances ``dist[r - lo]``, as the trial loop does,
    appending their decisions to ``commands``. The span opens with the mailbox
    empty, and from SAFE a finite distance beyond the HAD decides SAFE, so no
    frame calls ``step``. Returns (next_capture, mailbox_d, mailbox_t,
    detector_free); a frame not yet processed stays in the mailbox."""
    held, r = -1, lo  # held: the tick of the frame in the mailbox, -1 while it is empty
    while True:
        at = bisect_left(times, next_capture, r, hi)
        # A held frame waits while the detector is busy, up to the next capture.
        if held < 0 or times[at - 1] < detector_free:
            if at == hi:
                break
            t = times[at]
            while next_capture <= t:
                mailbox_t = next_capture
                next_capture += capture_s
            held, r = at, at + 1
            if t < detector_free:
                continue
        # max(mailbox_t, detector_free), without the call
        done = (detector_free if detector_free > mailbox_t else mailbox_t) + next(detect_s)
        commands.append((done + decide_s + transmit_s, 0, False))
        detector_free = done
        held = -1
    return next_capture, None if held < 0 else float(dist[held - lo]), mailbox_t, detector_free


def run_trial(cond: str, human: HumanModel, traj: RobotTrajectory,
              zone: SafetyZoneConfig, jet: JetModel, perception: PerceptionModel,
              latency: StageLatencyModel, duration_s: float, seed: int,
              tick_ms: float = 10.0, duty_on: float = 100.0) -> DistanceTrace:
    """Simulate one trial; bit-identical for identical arguments."""
    if cond not in CONDITIONS:
        raise ValueError(f"condition must be one of {CONDITIONS}, got {cond!r}")
    n = trial_ticks(duration_s, tick_ms, duty_on, latency.capture_ms)
    dt = tick_ms / 1000.0
    va = cond == "va"

    # Named random streams, drawn in full so both conditions consume
    # identical draws whichever channels fire; the per-tick and per-frame
    # ones are drawn in blocks of ``_BLOCK`` as the loop below uses them.
    streams = np.random.SeedSequence(seed).spawn(4)
    g_exc, g_event, g_felt, g_lat = (np.random.default_rng(s) for s in streams)
    item_u, notice_u, delay_u = g_event.random((3, int(duration_s) + 16)).tolist()
    detect_s = chain.from_iterable((draw_detect_ms(latency, g_lat, _BLOCK) / 1000.0).tolist()
                                   for _ in count())

    out_t = np.empty(n, dtype=np.int64)
    out_d = np.empty(n)
    out_state = np.zeros(n, dtype=np.uint8)
    out_duty = np.zeros(n)

    # Hand state; ``goal`` and the tick's ``step_len`` are set as the phase changes.
    tray = human.task_positions[0]
    toolbox = human.task_positions[1]
    hx, hy, hz = tray
    phase = _TASK_DWELL
    task_target = toolbox
    phase_until = human.task_dwell_s
    exc_count = 0
    exc_max = len(item_u)
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

    task_loop = _TaskLoop(tray, toolbox, task_step, human.task_dwell_s)
    idle_from = 0  # the last walk saw the hand within the HAD up to this tick

    for start in range(0, n, _BLOCK):
        # The per-tick inputs, one block at a time. Each generator is read in
        # sequence and the rest is elementwise, so the block size changes no draw.
        stop = min(start + _BLOCK, n)
        times = np.arange(start, stop) * dt
        tick_s = times.tolist()
        tcp = trajectory_positions(traj, times)
        out_t[start:stop] = np.rint(times * 1000.0)
        felt_block = felt_multipliers(perception, g_felt.standard_normal(stop - start))
        # The ticks whose draw may start an excursion, then inf: the loop
        # tests the rest of an excursion's conditions on these ticks only.
        kicks = iter((np.flatnonzero(g_exc.random(stop - start) < excursion_p)
                      + start).tolist() + [inf])
        next_kick = next(kicks)
        ticks = zip(range(start, stop), *tcp.T.tolist())
        for i, tx, ty, tz in ticks:
            # --- idle span -----------------------------------------------
            # In the task loop with nothing in flight, the state SAFE and the fan
            # stopped, the ticks before the next excursion candidate where the
            # hand stays beyond the HAD run as one span: each frame decides SAFE,
            # and its ticks keep the zero state and duty the columns start with.
            if (phase <= 1 and due == inf and live_state == 0 and duty == 0.0
                    and idle_from <= i < next_kick):
                lo = i - start
                rows, marks = task_loop.walk(phase, task_target, phase_until, (hx, hy, hz),
                                             tick_s, lo, min(stop, next_kick) - start)
                with np.errstate(over="ignore", invalid="ignore"):
                    dx, dy, dz = (task_loop.xyz[rows] - tcp[lo:lo + len(rows)]).T
                    dist = np.sqrt(dx * dx + dy * dy + dz * dz)
                far = (dist > had) & (dist < inf)
                span = int(np.argmin(np.append(far, False)))
                idle_from = i + span + int(np.argmax(np.append(far[span:], True)))
                if span:
                    last = lo + span - 1
                    out_d[i:i + span] = dist[:span]
                    _, phase, task_target, phase_until = next(
                        m for m in reversed(marks) if m[0] <= last)
                    hx, hy, hz = task_loop.points[rows[span - 1]]
                    if phase == _TASK_MOVE:
                        goal, step_len = task_target, task_step
                    next_capture, mailbox_d, mailbox_t, detector_free = _idle_frames(
                        commands, tick_s, dist, lo, last + 1, next_capture, mailbox_t,
                        detector_free, capture_s, detect_s, decide_s, transmit_s)
                    applied = bisect_right(commands, tick_s[last], applied, key=itemgetter(0))
                    due = commands[applied][0] if applied < len(commands) else inf
                    next(islice(ticks, span - 1, span - 1), None)
                    continue

            t = i * dt

            # --- hand update ---------------------------------------------
            if phase == _TASK_DWELL:
                if t >= phase_until:
                    phase = _TASK_MOVE
                    goal, step_len = task_target, task_step
            elif phase == _GRAB:
                if t >= phase_until:
                    phase = _RETURN
                    goal, step_len = tray, reach_step
            else:
                gx, gy, gz = goal
                mx, my, mz = gx - hx, gy - hy, gz - hz
                dist_goal = sqrt(mx * mx + my * my + mz * mz)
                if dist_goal <= step_len:
                    hx, hy, hz = gx, gy, gz
                    if phase == _REACH:
                        phase = _GRAB
                        phase_until = t + human.grab_dwell_s
                    else:  # a task move, a return or a retreat ends in a task dwell
                        task_target = (tray if phase == _TASK_MOVE and task_target is toolbox
                                       else toolbox)
                        phase = _TASK_DWELL
                        phase_until = t + human.task_dwell_s
                else:
                    f = step_len / dist_goal
                    hx += mx * f
                    hy += my * f
                    hz += mz * f

            # Excursion kick-off from the task loop.
            if i == next_kick:
                next_kick = next(kicks)
                if phase <= 1 and exc_count < exc_max:
                    ux, uy, uz = hx - tx, hy - ty, hz - tz
                    un = sqrt(ux * ux + uy * uy + uz * uz)
                    if un > 1e-9:  # degenerate hand-on-TCP geometry: no direction to reach
                        e = exc_count
                        exc_count += 1
                        d_item = (human.item_near_m
                                  + (human.item_far_m - human.item_near_m) * item_u[e])
                        goal = (tx + ux / un * d_item, ty + uy / un * d_item,
                                tz + uz / un * d_item)
                        step_len = reach_step
                        notice_s = (delay_u[e] * human.notice_delay_max_s
                                    if notice_u[e] < human.attention_p else inf)
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
                live_state = state

            # A settled duty is left as it is: the update would add 0.0 to it.
            if duty != duty_target:
                duty += (duty_target - duty) * alpha
                if abs(duty_target - duty) < _DUTY_SETTLE_PCT:
                    duty = duty_target

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
                    goal, step_len = tray, retreat_step
                    vis_at = inf
                    air_at = inf

            out_d[i] = d
            if live_state:
                out_state[i] = live_state
            if duty:
                out_duty[i] = duty

        ticks = tick_s = tcp = None  # freed before the next block's inputs are made

    return DistanceTrace(t_ms=out_t, dist_m=out_d, state=out_state, duty_pct=out_duty,
                         condition=cond, seed=seed, decisions=commands)


def run_trials(cfg: RunConfig, conditions: Sequence[str], seeds: Sequence[int]
               ) -> Iterator[tuple[str, int, DistanceTrace]]:
    """(cond, seed, trace) of the trial ``cfg`` configures, for each seed in
    each condition, condition by condition; one trace is made per step."""
    for cond in conditions:
        for seed in seeds:
            yield cond, seed, run_trial(cond, cfg.human, cfg.trajectory, cfg.safety,
                                        cfg.jet, cfg.perception, cfg.latency,
                                        cfg.duration_s, seed, tick_ms=cfg.tick_ms,
                                        duty_on=cfg.duty_pct)


# ---------------------------------------------------------------------------
# Trial-set analysis
# ---------------------------------------------------------------------------

def matched_means(per_seed: Mapping[int, Mapping[str, float | None]]
                  ) -> tuple[list[float], list[float], list[str]]:
    """V and VA below-HAD means of the seeds run in both conditions, in seed
    order, and warnings for the rest. A pair without exposure (a None mean)
    carries no information about the below-HAD statistic; dropping it keeps
    the estimate unbiased."""
    v_means, va_means, warnings, one_sided = [], [], [], 0
    for seed, pair in sorted(per_seed.items()):
        if "v" not in pair or "va" not in pair:
            one_sided += 1
        elif pair["v"] is None or pair["va"] is None:
            warnings.append(f"seed {seed}: no samples below HAD, pair dropped")
        else:
            v_means.append(pair["v"])
            va_means.append(pair["va"])
    if one_sided:
        warnings.append(f"{one_sided} seed(s) present in only one condition")
    return v_means, va_means, warnings


def analyze_pairs(v_means: Sequence[float], va_means: Sequence[float]) -> dict:
    """Statistics over matched per-trial below-HAD means, as the JSON-ready
    report that ``analyze`` writes.

    The paired t-test is computed on V - VA differences, so a higher VA
    separation shows up as a negative statistic. A test that cannot run on
    the sample reports None and says why in ``warnings``. Samples of
    unequal length, or fewer than two pairs, raise as ``stats.paired_t`` does.
    """
    warnings: list[str] = []

    def attempt(label: str, test, *samples, skip: tuple) -> Optional[dict]:
        try:
            r = test(*samples)
        except skip as exc:
            warnings.append(f"{label}: {exc}")
            return None
        result = {"statistic": r.statistic, "p_value": r.p_value}
        if r.df is not None:
            result["df"] = r.df
        return result

    # The t-test runs first, so its warning leads the Shapiro ones.
    paired_t = attempt("paired_t", stats.paired_t, v_means, va_means,
                       skip=(stats.ZeroVarianceDifferences,))
    report: dict = {"n_pairs": len(v_means)}
    for label, x in (("v", v_means), ("va", va_means)):
        mean, sd = stats.summarize(x)
        report[label] = {"mean": mean, "sd": sd, "shapiro": attempt(
            f"shapiro[{label}]", stats.shapiro_wilk, x,
            skip=(stats.SampleTooSmall, stats.ConstantSample))}
    report["paired_t"] = paired_t
    report["mean_diff_va_minus_v"] = report["va"]["mean"] - report["v"]["mean"]
    report["warnings"] = warnings
    return report


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CalibrationTargets:
    v_mean: float = 0.307
    va_mean: float = 0.326
    err_near: float = 0.035  # mean |error| at the near reference distance
    err_far: float = 0.051  # at the far reference distance
    near_x: float = 0.25
    far_x: float = 0.35
    tol_mean: float = 0.005
    tol_err_near: float = 0.005
    tol_err_far: float = 0.010

    def __post_init__(self) -> None:
        for name in ("tol_mean", "tol_err_near", "tol_err_far"):
            if not getattr(self, name) >= 0.0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")


@dataclass
class CalibrationResult:
    human: HumanModel
    perception: PerceptionModel
    residuals: dict[str, float]
    evaluations: int


_SEARCH_SPACE = {
    "weber": (0.02, 0.8),
    "attention_p": (0.0, 1.0),
    "excursion_rate": (0.02, 0.20),
    "retreat_speed": (0.25, 1.2),
}


def calibrate(targets: CalibrationTargets, budget: int, cfg: RunConfig, *,
              trials_per_eval: int = 12, trial_duration_s: float = 120.0,
              mc_samples: int = 20_000, seed: int = 0) -> CalibrationResult:
    """Coordinate-descent fit of the free behavior/perception parameters.

    The fit runs the loop ``cfg`` describes: its models, its tick
    (``sim.tick_ms``) and its impeller duty (``sim.duty_pct``), which also
    drives the perception Monte Carlo. One evaluation simulates
    ``trials_per_eval`` matched trial pairs plus the two perception
    Monte-Carlo runs on fixed seeds (common random numbers), and scores
    squared deviations from the targets. Raises CalibrationFailed when the
    budget runs out before all targets sit within their tolerances.
    """
    if budget < 1:
        raise CalibrationFailed("evaluation budget is zero")

    def models(params: dict[str, float]) -> tuple[HumanModel, PerceptionModel]:
        return (replace(cfg.human, attention_p=params["attention_p"],
                        excursion_rate=params["excursion_rate"],
                        retreat_speed=params["retreat_speed"]),
                replace(cfg.perception, weber=params["weber"]))

    def residuals_for(params: dict[str, float]) -> dict[str, float]:
        hm, pm = models(params)
        err_near = float(np.mean(np.abs(perception_errors(
            pm, cfg.jet, cfg.duty_pct, targets.near_x, mc_samples, seed + 90001))))
        err_far = float(np.mean(np.abs(perception_errors(
            pm, cfg.jet, cfg.duty_pct, targets.far_x, mc_samples, seed + 90002))))
        fit_cfg = replace(cfg, human=hm, perception=pm, duration_s=trial_duration_s)
        seeds = range(seed + 1000, seed + 1000 + trials_per_eval)
        per_seed: dict[int, dict[str, float | None]] = {s: {} for s in seeds}
        for cond, s, trace in run_trials(fit_cfg, CONDITIONS, seeds):
            per_seed[s][cond] = below_had_mean(trace.dist_m, cfg.safety.had)
        v_vals, va_vals, _ = matched_means(per_seed)
        exposed = len(v_vals) >= max(2, trials_per_eval // 2)
        return {
            "v_mean": float(np.mean(v_vals)) - targets.v_mean if exposed else math.inf,
            "va_mean": float(np.mean(va_vals)) - targets.va_mean if exposed else math.inf,
            "err_near": err_near - targets.err_near,
            "err_far": err_far - targets.err_far,
        }

    def score(res: dict[str, float]) -> float:
        return (res["v_mean"] ** 2 + res["va_mean"] ** 2
                + res["err_near"] ** 2 + 0.25 * res["err_far"] ** 2)

    def within_tol(res: dict[str, float]) -> bool:
        return (abs(res["v_mean"]) <= targets.tol_mean
                and abs(res["va_mean"]) <= targets.tol_mean
                and abs(res["err_near"]) <= targets.tol_err_near
                and abs(res["err_far"]) <= targets.tol_err_far)

    params = {
        "weber": cfg.perception.weber,
        "attention_p": cfg.human.attention_p,
        "excursion_rate": cfg.human.excursion_rate,
        "retreat_speed": cfg.human.retreat_speed,
    }
    best = residuals_for(params)
    best_score = score(best)
    evals, passes = 1, 0
    # The step halves after each pass that brings no improvement. Six such
    # passes, the budget, or the first fit within every tolerance end the search.
    while not within_tol(best) and passes < 6 and evals < budget:
        improved = False
        for name, (lo, hi) in _SEARCH_SPACE.items():
            span = (hi - lo) / (2 ** (passes + 2))
            for cand in (params[name] - span, params[name] + span):
                cand = min(max(cand, lo), hi)
                if cand == params[name] or within_tol(best) or evals == budget:
                    continue
                trial_params = dict(params, **{name: cand})
                res = residuals_for(trial_params)
                evals += 1
                s = score(res)
                if s < best_score:
                    best, best_score, params = res, s, trial_params
                    improved = True
        if not improved:
            passes += 1
    if not within_tol(best):
        raise CalibrationFailed(f"targets not met after {evals} of {budget} "
                                f"evaluations (best residuals {best})")
    hm, pm = models(params)
    return CalibrationResult(human=hm, perception=pm, residuals=best, evaluations=evals)
