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
construction. Only the felt-pressure stream, which the VA air channel alone
reads, is left undrawn in V; it is a stream of its own, so no other moves.
Per-tick and per-frame inputs are drawn, and traces encoded, in blocks of
``_BLOCK``, and read back a line at a time, so no step holds inputs or text
for a whole trial, whatever a file holds. Each excursion takes three values,
its item distance, attention and glance delay, drawn three a candidate as a
block's excursion candidates are found, so the e-th excursion of either
condition gets the values it would draw one at a time, however many a trial
starts.

Which frames the detector takes, and when their commands land, never depend
on the hand: ``_schedule`` lays them out before the loop, the finishes of
frames that find the detector idle in one numpy add. ``step`` reads only a
frame's distance and the decision before it, so the loop decides a frame on
the tick it lands, before its command can be due. A trial's decision log is two
columns, one entry per processed frame: the command times, ``command_s``,
which the schedule makes, and the states decided, ``command_state``, all SAFE
until the loop writes the byte of a frame it decides otherwise.
``DistanceTrace.decisions`` lists them as (time, state, actuate) entries on
demand: a command actuates exactly when its state is not SAFE. Within a block
the loop does per tick only what changes every tick: it moves the hand and
stores the distance. The block's excursion candidates, the ticks whose draw
falls below the per-tick excursion chance, are found in one comparison
before the loop. The state and duty columns start at zero and a tick stores
each only where it is nonzero. Every straight move of the hand follows one
closed-form law, ``_move``: k ticks in, it is k steps along the segment from
its start, and on its arrival tick at its goal itself. Idle ticks, in any
phase, beyond the HAD with the state SAFE, every command in flight SAFE, no
retreat pending, and the fan stopped or the hand out of the reach, grab and
return phases, where the air channel reads the duty, run a span at a time:
``_walk`` lays the hand's path out on that law in numpy, up to the tick a
reach arrives on, and the distances are taken in numpy. With the fan stopped
a walk starts a reach on an excursion candidate as the loop does, by
``_reach``; while the fan winds down, a span ends before the next candidate.
A span skips its ticks by index and stores only their distances, and the
duty of a fan still winding down, tick by tick. A retreat
moves the hand off the path that the last walk laid out, so as it starts, the
loop drops that walk's horizon, the tick up to which the hand stayed within
the HAD.

Every trial of a run replays the same robot path and the same capture clock,
so trials of at most ``_MEMO_BLOCKS`` blocks (a default 120 s trial) share one
``_Run`` entry, made once and kept for the next trial with the same path, tick,
frame interval, length, task positions and task speed: the robot's inputs for
each block, its tick times and TCP positions, about 0.8 MB, each block's
capture times and landing ticks, and the text their trace files share, a
block's made whole as the run's first trace encodes it: each tick's
``{"t_ms":T,"dist_m":`` prefix, and the distance from each task position to the
TCP at each tick, where a resting hand sits, with its ``repr``. The entry also
holds a value table, the 760 distances (at the default config) from a hand at
rest or on a task move to the robot dwelling at a waypoint, with their
``repr``, and a pair slot: what a trial leaves the next trial of its seed,
latency model and excursion chance, the V and VA trials of one seed as
``run_trials`` runs them. That is its frame schedule and excursion candidates,
so the second trial neither lays out a schedule nor draws them, and the
first trace's distance text per block, at most about 1 MB, whose rows the
second trace takes where its distances have the same bits. The next seed's
trial replaces the slot. A longer trial makes its inputs a block at a time and
keeps none of them, and its trace makes its own text.
"""

from __future__ import annotations

import json
import math
import re
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace
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
# The most bytes ``read_trace_dist`` asks its stream for at a time: a piece
# this long without a newline is refused.
_MAX_LINE = 4096
# Duty (%) within which the impeller settles exactly at its commanded duty:
# 1/500 of the 0.5 % step an actuator frame carries, where the jet gives about
# 1e-8 Pa at the HAD against the 0.5 Pa felt threshold.
_DUTY_SETTLE_PCT = 1e-3
# Most ticks one trial may hold: about 28 h at the default 10 ms tick, and
# 250 MB of trace columns.
_MAX_TICKS = 1e7
# Most blocks of a trial that ``_run_memo`` keeps a ``_Run`` for: a default
# 120 s trial at 10 ms. A longer trial makes its inputs a block at a time.
_MEMO_BLOCKS = 3


@dataclass
class DistanceTrace:
    """Fixed-tick samples of one trial plus its decision log, one entry per
    processed frame in two columns: the command time in s, ``command_s``, and
    the SafetyState value decided, ``command_state``. ``decisions`` lists the
    log as (command time s, SafetyState value, actuate) entries; a command
    actuates exactly when its state is not SAFE. ``shared`` is the ``_Run``
    the trial ran on, from which ``jsonl`` takes the text of each block that
    holds the run's ticks, or None for a trial beyond the memo's bound."""

    t_ms: np.ndarray
    dist_m: np.ndarray
    state: np.ndarray  # SafetyState integer values
    duty_pct: np.ndarray
    condition: str
    seed: int
    command_s: array = field(default_factory=lambda: array("d"))
    command_state: bytearray = field(default_factory=bytearray)
    shared: Optional[_Run] = field(default=None, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.t_ms)

    @property
    def decisions(self) -> list[tuple[float, int, bool]]:
        return [(t, s, s != 0) for t, s in zip(self.command_s, self.command_state)]

    def jsonl(self) -> Iterator[str]:
        """The trace file: one compact JSON line per tick, fields in the order
        t_ms, dist_m, state (its name), duty_pct, cond, seed, given as blocks
        of up to ``_BLOCK`` whole lines.

        A block is one join of three strings a row: the row's
        ``{"t_ms":T,"dist_m":`` prefix, ``repr`` of its dist_m, and the rest of
        the row, taken from one table of the trace's (duty, state) pairs by a
        code, the duty's index among the trace's distinct duty bits times the
        number of states plus the state, so that a -0.0 duty keeps its sign;
        the table gains a pair's text as a block first holds it.
        A block of a trace with a ``shared`` run that holds the run's ticks
        takes its prefixes and its dist_m text from ``_Run.text``: the
        ``repr`` of each dist_m whose bits equal the distance from a task
        position to the TCP at its tick, or the distance at its tick of the
        trace of the same seed that encoded the block first, or an entry of
        the run's value table, is taken, not made. Any other block makes its
        prefixes and dist_m text itself.
        ``repr`` writes a finite float exactly as ``json.dumps`` does. NaN and
        infinities are not JSON, so a trace holding one raises ValueError
        here, before any block, as does a state that is no SafetyState value.
        """
        if not (np.isfinite(self.dist_m).all() and np.isfinite(self.duty_pct).all()):
            raise ValueError("a trace file holds finite dist_m and duty_pct only")
        state = np.asarray(self.state)
        if ((state < 0) | (state >= len(_STATE_NAMES))).any():
            raise ValueError("a trace's state holds SafetyState values only")
        # '"cond":...,"seed":...}', the same on every row.
        tail = json.dumps({"cond": self.condition, "seed": self.seed},
                          separators=(",", ":"))[1:]
        duty_bits = np.asarray(self.duty_pct, dtype=float).view(np.int64)
        # Sorted rather than np.unique, whose first call imports numpy.ma (about 1 MB).
        ordered = np.sort(duty_bits)
        distinct = np.concatenate((ordered[:1], ordered[1:][ordered[1:] != ordered[:-1]]))
        duties = distinct.view(float).tolist()
        rows: dict[int, str] = {}  # the rest of a row, from its "state" on, by its code

        def blocks() -> Iterator[str]:
            for lo in range(0, len(self), _BLOCK):
                hi = min(lo + _BLOCK, len(self))
                codes = np.searchsorted(distinct, duty_bits[lo:hi]) * len(_STATE_NAMES)
                codes += state[lo:hi]
                codes = codes.tolist()
                for code in set(codes).difference(rows):
                    duty, value = divmod(code, len(_STATE_NAMES))
                    rows[code] = (f',"state":"{_STATE_NAMES[value]}",'
                                  f'"duty_pct":{duties[duty]!r},{tail}\n')
                t_ms, dist = self.t_ms[lo:hi], self.dist_m[lo:hi]
                parts = [None] * (3 * (hi - lo))  # frees the last block's text before this one's
                texts = (self.shared.text(lo, t_ms, dist, self.seed)
                         if self.shared is not None else None)
                parts[0::3], parts[1::3] = texts or (_prefixes(t_ms), map(repr, dist.tolist()))
                parts[2::3] = map(rows.__getitem__, codes)
                yield "".join(parts)

        return blocks()


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
    + rb'\}\n')


def read_trace_dist(stream: BinaryIO) -> tuple[str | None, int | None, np.ndarray, bool]:
    """(cond, seed, dist_m, truncated) of the trace file open for binary
    reading as ``stream``: cond and seed of the first line (None without a
    whole line) and dist_m of every line, as the full JSON parser gives them.

    The file is read a line at a time, at most ``_MAX_LINE`` bytes per read.
    Any whole line not in the exact shape ``jsonl()`` writes raises
    ValueError, as does a piece of ``_MAX_LINE`` bytes without a newline. A
    last piece without a newline is kept if it is a whole trace line and
    otherwise dropped with truncated True: a write torn by a crash.
    """
    dist = array("d")
    head, torn = b"", False
    while line := stream.readline(_MAX_LINE):
        if not (found := _TRACE_LINE.match(line)):
            if line.endswith(b"\n"):
                raise ValueError(f"line {len(dist) + 1} is not a trace line")
            if len(line) == _MAX_LINE:
                raise ValueError(f"line {len(dist) + 1} is longer than {_MAX_LINE} bytes")
            # The last piece: kept if it is a whole trace line.
            if not (found := _TRACE_LINE.match(line + b"\n")):
                torn = True
                break
        head = head or line
        dist.append(float(found[1]))
    first = json.loads(head) if head else {}
    return first.get("cond"), first.get("seed"), np.frombuffer(dist), torn


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


def _move(start: Vec3, goal: Vec3, step_len: float) -> tuple:
    """A straight move of the hand from ``start`` to ``goal``, ``step_len`` a
    tick: (sx, sy, sz, mx, my, mz, step_len, length, arrival tick, goal), with
    m = goal - start. k ticks into it, before its arrival tick, the hand is at
    start + m * (k * step_len / length); on the arrival tick,
    max(1, ceil(length / step_len)), it is at ``goal`` itself. A move of length
    0 arrives on its first tick; one whose ratio is not finite, a zero step
    over a nonzero length included, arrives at inf, never."""
    (sx, sy, sz), (gx, gy, gz) = start, goal
    mx, my, mz = gx - sx, gy - sy, gz - sz
    length = math.sqrt(mx * mx + my * my + mz * mz)
    ratio = length / step_len if step_len > 0.0 else 0.0 if length == 0.0 else math.inf
    arrive = max(1, math.ceil(ratio)) if ratio < math.inf else math.inf
    return sx, sy, sz, mx, my, mz, step_len, length, arrive, goal


def _leave(phase: int, hand: Vec3, target: Vec3, human: HumanModel, dt: float) -> tuple:
    """(phase, move) as a task dwell or a grab ends with the hand at ``hand``: a
    task move toward ``target``, or the return to the tray."""
    if phase == _TASK_DWELL:
        return _TASK_MOVE, _move(hand, target, human.task_speed * dt)
    return _RETURN, _move(hand, human.task_positions[0], human.reach_speed * dt)


def _arrive(phase: int, target: Vec3, t: float, human: HumanModel) -> tuple:
    """(phase, task target, until) as a move of ``phase`` arrives at time ``t``:
    a reach grabs; a task move, a return or a retreat ends in a task dwell."""
    tray, toolbox = human.task_positions
    if phase == _REACH:
        return _GRAB, target, t + human.grab_dwell_s
    return (_TASK_DWELL, tray if phase == _TASK_MOVE and target is toolbox else toolbox,
            t + human.task_dwell_s)


def _reach(hand: Vec3, tx: float, ty: float, tz: float, values: Sequence[float], e: int,
           human: HumanModel, dt: float) -> Optional[tuple]:
    """(move, notice delay) of the reach the ``e``-th excursion of a trial
    starts with the hand at ``hand`` and the TCP at (tx, ty, tz), its item
    distance, attention and glance delay draws ``values[3e:3e + 3]``: toward
    an item that far from the TCP, on the line from the TCP through the hand,
    and noticed, if at all, that long after the hand crosses the HAD. None,
    taking no values, with the hand on the TCP, where no direction points."""
    hx, hy, hz = hand
    ux, uy, uz = hx - tx, hy - ty, hz - tz
    un = math.sqrt(ux * ux + uy * uy + uz * uz)
    if not un > 1e-9:  # degenerate hand-on-TCP geometry: no direction to reach
        return None
    item, notice, delay = values[3 * e:3 * e + 3]
    d_item = human.item_near_m + (human.item_far_m - human.item_near_m) * item
    item_at = (tx + ux / un * d_item, ty + uy / un * d_item, tz + uz / un * d_item)
    return (_move(hand, item_at, human.reach_speed * dt),
            delay * human.notice_delay_max_s if notice < human.attention_p else math.inf)


def _walk(human: HumanModel, dt: float, times: Sequence[float], lo: int, hi: int, hand: Vec3,
          phase: int, target: Vec3, until: float, move: tuple, k: int,
          kicks: Sequence[float] = (), tcp: tuple = (), values: Sequence[float] = (),
          exc: int = 0) -> tuple:
    """The hand's x, y and z rows from tick ``lo`` of a block with tick times
    ``times``, by the trial loop's transitions, from its point ``hand``,
    ``phase``, task ``target``, dwell or grab end ``until`` and ``move``, ``k``
    ticks in, with ``exc`` excursions started, after tick ``lo - 1``; and its
    (tick, phase, target, until, move, k, excursions started, notice delay)
    after that tick and after each tick where the phase changes. The rows end
    before tick ``hi``, or with the tick a reach arrives on, by the robot.

    ``kicks`` holds the block's excursion candidates, ascending, ``tcp`` its
    TCP x, y and z columns and ``values`` the trial's excursion values: on a
    candidate tick the hand in a task move or dwell starts a reach by
    ``_reach``, as the loop does. A mark's notice delay is that of the walk's
    last reach, None before one."""
    marks = [(lo - 1, phase, target, until, move, k, exc, None)]
    # (first tick, start, m, step, length, k less the tick): the pieces of the
    # walk. A still piece adds -0.0 to its point, which leaves every float as it is.
    still = (-0.0, -0.0, -0.0, 0.0, 1.0, 0.0)
    pieces = [(lo, *hand, *still)] if phase in (_TASK_DWELL, _GRAB) else []
    j, notice = bisect_left(kicks, lo), None  # the next candidate, kicks[j]
    r = lo
    while r < hi:
        q = kicks[j] if j < len(kicks) else math.inf
        if phase in (_TASK_DWELL, _GRAB):  # ends on the first tick at or after ``until``
            leave = bisect_left(times, until, r, hi)
            t = min(leave, q)
            if t >= hi:
                break
            if t == leave:
                phase, move = _leave(phase, hand, target, human, dt)
                k = 0
                marks.append((t, phase, target, until, move, k, exc, notice))
        else:
            # The move's ticks before its arrival, up to and with a candidate.
            n = min(move[8] - 1 - k, q + 1 - r, hi - r)
            if n:
                pieces.append((r, *move[:8], k + 1 - r))
                r += n
                k += n
            t = r - 1
            if t == q:  # a candidate on a tick of the move
                if phase == _TASK_MOVE:
                    sx, sy, sz, mx, my, mz, step_len, length = move[:8]
                    f = k * step_len / length
                    hand = (sx + mx * f, sy + my * f, sz + mz * f)
            elif r == hi:
                break
            else:
                t, hand, k = r, move[9], k + 1
                phase, target, until = _arrive(phase, target, times[t], human)
                marks.append((t, phase, target, until, move, k, exc, notice))
                pieces.append((t, *hand, *still))
                if phase == _GRAB:  # a reach arrived, by the robot
                    hi = t + 1
                    break
        if t == q:
            j += 1
            if phase <= _TASK_DWELL and (reach := _reach(
                    hand, tcp[0][t], tcp[1][t], tcp[2][t], values, exc, human, dt)) is not None:
                (move, notice), k, phase, exc = reach, 0, _REACH, exc + 1
                marks.append((t, phase, target, until, move, k, exc, notice))
        r = t + 1
    ticks = [b[0] - a[0] for a, b in zip(pieces, pieces[1:] + [(hi,)])]
    rows = np.array([p[1:] for p in pieces], dtype=float).T.repeat(ticks, axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        f = (np.arange(lo, hi) + rows[8]) * rows[6] / rows[7]
        return rows[:3] + rows[3:6] * f, marks


def _capture_blocks(capture_ms: float, n: int, dt: float) -> Iterator[tuple]:
    """The capture clock of a trial of ``n`` ticks ``dt`` s apart, a block of
    ``_BLOCK`` captures at a time, for ``_schedule``. Per block, of its captures
    up to the last tick's time: their times, whether each after the first lands
    on a tick before the next capture lands, the tick each lands on, and, as
    lists, their times and the time of the last tick before the next capture
    lands (-inf if that is the same tick).

    A frame is captured every ``capture_ms`` from 0, one addition after
    another, as ``np.add.accumulate`` adds, and lands on the first tick at or
    after its capture."""
    end = (n - 1) * dt  # the last tick's time
    first = 0.0  # the block's first capture
    while first <= end:  # a block of captures, and the next one's for its landing tick
        steps = np.full(_BLOCK + 1, capture_ms / 1000.0)
        steps[0] = first
        # The quotient is within a tick of the landing tick, so one step each
        # way fixes it. A capture time that overflows is inf, past the trial.
        with np.errstate(over="ignore"):
            times = np.add.accumulate(steps)
            ticks = np.ceil(times / dt)
        ticks += ticks * dt < times
        ticks -= (ticks - 1) * dt >= times
        nxt = np.minimum(ticks[1:], n)
        until = np.where(nxt > ticks[:-1], (nxt - 1) * dt, -np.inf)
        k = int(np.searchsorted(times[:_BLOCK], end, side="right"))
        yield (times[:k], times[1:k] <= until[1:k], ticks[:k].astype(np.int64),
               times[:k].tolist(), until[:k].tolist())
        first = float(times[_BLOCK])


def _schedule(latency: StageLatencyModel, g_lat: np.random.Generator, n: int,
              dt: float, run: Optional[_Run]) -> tuple[array, array]:
    """The frame schedule of a trial of ``n`` ticks ``dt`` s apart, per
    processed frame in order: the tick its capture lands on, then ``n``; and
    its command time in s.

    Frames are captured and land as ``_capture_blocks`` lays them out, which a
    trial with a ``run`` takes from it. The detector takes the freshest
    frame landed on the first tick it is free, so a frame not taken when the
    next one lands is dropped. It starts at the later of the capture and its
    last finish, and takes a detect time drawn from ``g_lat`` in blocks of
    ``_BLOCK``; the command time adds the decide and then the transmit time to
    its finish.

    Until a block's first drop, its j-th frame takes the j-th detect time
    from the block's start, so each frame that finds the detector idle
    finishes at its capture plus that time: one numpy add lays these
    finishes out for the block. A run of frames that find the detector idle
    is passed over in one step; a frame that finds it busy or is dropped,
    and every frame after the block's first drop, is stepped alone.
    """
    decide_s = latency.decide_ms / 1000.0
    transmit_s = latency.transmit_ms / 1000.0
    landed, command_s = array("q"), array("d")
    det, used = np.empty(0), 0  # detect times drawn, and how many of them are taken
    free = 0.0  # the detector's last finish
    blocks = run.captures if run is not None else _capture_blocks(latency.capture_ms, n, dt)
    for times, fits, ticks, caps, lasts in blocks:
        k = len(caps)
        if len(det) - used < k:
            det, used = np.concatenate((det[used:], draw_detect_ms(latency, g_lat, _BLOCK)
                                        / 1000.0)), 0
            dets = det.tolist()
        # Frame c takes detect time d; until the block's first drop, d - c is
        # ``used``. So ``finish`` starts as each frame's finish had it found
        # the detector idle, and a frame stepped alone sets its own through a
        # memoryview, where an item set costs a fraction of numpy's. A run
        # ends at a frame in ``breaks``: one that finds the detector busy or
        # is dropped.
        finish = times + det[used:used + k]
        idle = (finish[:-1] <= times[1:]) & fits
        breaks = (np.flatnonzero(~idle) + 1).tolist() + [k]
        taken = np.ones(k, dtype=bool)
        finish_at, taken_at = finish.data, taken.data
        c, d = 0, used
        while c < k:
            cap = caps[c]
            if free <= cap <= lasts[c] and d - c == used:  # idle, and taken: a run starts
                e = breaks[bisect_right(breaks, c)]
                free = finish_at[e - 1]
                d += e - c
                c = e
                continue
            if free <= lasts[c]:
                free = finish_at[c] = (free if free > cap else cap) + dets[d]
                d += 1
            else:
                taken_at[c] = False
            c += 1
        landed.frombytes(ticks[taken].tobytes())
        command_s.frombytes((finish[taken] + decide_s + transmit_s).tobytes())
        used = d
    landed.append(n)
    return landed, command_s


def _robot_block(traj: RobotTrajectory, dt: float, start: int, stop: int) -> tuple:
    """The robot inputs of ticks ``start``..``stop - 1``, ``dt`` s apart: their
    times, their ``t_ms``, the TCP positions and their x, y and z, the times and
    coordinates as ``array('d')`` columns."""
    times = np.arange(start, stop) * dt
    tcp = trajectory_positions(traj, times)
    return (array("d", times.tobytes()), np.rint(times * 1000.0).astype(np.int64), tcp,
            *(array("d", column.tobytes()) for column in tcp.T))


class _Run:
    """What the trials of one run share: the robot inputs of each block of
    ``n`` ticks ``dt`` s apart, ``robot``, and the capture clock of frames
    ``capture_ms`` apart, ``captures``, their arrays read-only; the text of
    their trace files by block, ``made``, a block's made whole the first time
    a trace encodes it: its ticks' ``_prefixes`` and, for each task position
    of ``human``, the distance from it to the TCP at each tick, as the trial
    loop takes it, with the ``repr`` of each; ``table``, ``_value_table``'s
    distances from a resting or shuttling hand to a dwelling robot; and
    ``pair``, the ``_Pair`` the run's last trial took or left."""

    def __init__(self, traj: RobotTrajectory, dt: float, n: int, capture_ms: float,
                 human: HumanModel) -> None:
        self.robot = tuple(_robot_block(traj, dt, lo, min(lo + _BLOCK, n))
                           for lo in range(0, n, _BLOCK))
        self.captures = tuple(_capture_blocks(capture_ms, n, dt))
        for block in self.robot + self.captures:
            for item in block:
                if isinstance(item, np.ndarray):
                    item.flags.writeable = False
        self.places = np.asarray(human.task_positions, dtype=float)
        self.made: dict[int, tuple] = {}
        self.table = _value_table(traj, human, dt)
        self.pair: Optional[_Pair] = None

    def text(self, lo: int, t_ms: np.ndarray, dist: np.ndarray, seed: int
             ) -> Optional[tuple[list[str], list[str]]]:
        """(prefixes, ``repr`` of each of ``dist``) for the block of ticks
        ``t_ms`` from tick ``lo`` of a trace of ``seed``, or None if the run
        does not have this block. The block's prefixes and task-position
        columns are made whole the first time a trace asks for them. A
        ``pair`` of ``seed`` keeps the text of the first of its seed's traces
        to encode the block, and gives it to the next as one more column of
        ``_dist_text``, ahead of the task positions'."""
        b, off = divmod(lo, len(self.robot[0][1]))
        if off or b >= len(self.robot) or not np.array_equal(self.robot[b][1], t_ms):
            return None
        if b not in self.made:
            _, run_t, tcp, *_ = self.robot[b]
            columns = []
            for dx, dy, dz in self.places[:, :, None] - tcp.T:
                dist_b = np.sqrt(dx * dx + dy * dy + dz * dz)
                columns.append((dist_b, np.array(list(map(repr, dist_b.tolist())), dtype=object)))
            self.made[b] = _prefixes(run_t), columns
        prefixes, columns = self.made[b]
        pair = self.pair if self.pair is not None and self.pair.key[0] == seed else None
        if pair is not None and b in pair.text:
            columns = [pair.text[b], *columns]
        text = _dist_text(dist, columns, self.table)
        if pair is not None and b not in pair.text:
            pair.text[b] = dist.copy(), text
        return prefixes, text.tolist()


@dataclass
class _Pair:
    """What a trial leaves its run's next trial of the same seed, latency model
    and per-tick excursion chance, ``key``: its frame schedule, ``landed`` and
    ``command_s``, as ``_schedule`` lays it out; each block's excursion
    candidates, as ticks of the block, ``kicks``; and, by block, the distances
    of the first trace of the seed to encode it and their ``repr``, ``text``.
    These are all that the trial reads of its ``g_lat`` and ``g_exc`` streams,
    so the next trial draws neither."""

    key: tuple
    landed: array
    command_s: array
    kicks: list[list[int]]
    text: dict[int, tuple] = field(default_factory=dict)


def _value_table(traj: RobotTrajectory, human: HumanModel, dt: float
                 ) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """The distance from each point a resting or shuttling hand takes to each
    point where the robot dwells, as the trial loop takes it: (their bits,
    distinct and sorted, and the ``repr`` of each). The hand's points are both
    task positions and every tick of the two task moves between them, by
    ``_move``'s law. None if that is more than ``_BLOCK`` distances, or none."""
    tray, toolbox = human.task_positions
    robot = traj._table[traj._table[:, 8] == 0.0, 2:5]  # the dwell rows' points
    moves = [_move(a, b, human.task_speed * dt) for a, b in ((tray, toolbox), (toolbox, tray))]
    if not 0 < (2 + sum(move[8] - 1 for move in moves)) * len(robot) <= _BLOCK:
        return None
    hands = [np.array((tray, toolbox), dtype=float)]
    for sx, sy, sz, mx, my, mz, step_len, length, arrive, _ in moves:
        f = np.arange(1, arrive) * step_len / length
        hands.append(np.column_stack((sx + mx * f, sy + my * f, sz + mz * f)))
    dx, dy, dz = (np.concatenate(hands)[:, None, :] - robot).reshape(-1, 3).T
    bits = np.sort(np.sqrt(dx * dx + dy * dy + dz * dz).view(np.int64))
    bits = np.concatenate((bits[:1], bits[1:][bits[1:] != bits[:-1]]))
    return bits, np.array(list(map(repr, bits.view(float).tolist())), dtype=object)


# The ``_Run`` of the last trial of at most ``_MEMO_BLOCKS`` blocks, by key.
_run_memo: dict[tuple, _Run] = {}


def _run(traj: RobotTrajectory, dt: float, n: int, capture_ms: float,
         human: HumanModel) -> Optional[_Run]:
    """The ``_Run`` of a trial of ``n`` ticks ``dt`` s apart on ``traj``, with
    frames ``capture_ms`` apart and the hand of ``human``, from ``_run_memo``:
    made, in place of the old entry, if it holds none. None for a trial beyond
    ``_MEMO_BLOCKS`` blocks. The key holds all that ``trajectory_positions``,
    the capture clock, the task distances, the value table and the block
    layout read."""
    if n > _MEMO_BLOCKS * _BLOCK:
        return None
    key = (traj._table.tobytes(), traj.cycle_period, traj.speed, traj.accel, dt, n,
           capture_ms, np.asarray(human.task_positions, dtype=float).tobytes(),
           human.task_speed, _BLOCK)
    run = _run_memo.get(key)
    if run is None:
        _run_memo.clear()  # the old entry goes before the new one is made
        run = _run_memo[key] = _Run(traj, dt, n, capture_ms, human)
    return run


def _prefixes(t_ms: np.ndarray) -> list[str]:
    """Each trace row's text up to its dist_m, ``{"t_ms":T,"dist_m":``, for ``t_ms``."""
    return [f'{{"t_ms":{t},"dist_m":' for t in t_ms.tolist()]


def _dist_text(dist: np.ndarray, columns: Sequence[tuple],
               table: Optional[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """``repr`` of each of ``dist``, as an object array. Each of ``columns``
    holds distances at the same ticks and their ``repr``: a distance with the
    same bits as a column's at its tick takes the first such column's text.
    ``table`` holds distinct distance bits, sorted, and the ``repr`` of each: a
    distance that no column took takes the table's text of its bits, found by
    one ``np.searchsorted``."""
    bits = dist.view(np.int64)
    text = np.empty(len(dist), dtype=object)
    rest = np.ones(len(dist), dtype=bool)
    for column, strings in columns:
        hit = np.flatnonzero(rest & (bits == column.view(np.int64)))
        text[hit] = strings[hit]
        rest[hit] = False
    rest = np.flatnonzero(rest)
    if table is not None:
        values, strings = table
        at = np.minimum(np.searchsorted(values, bits[rest]), len(values) - 1)
        hit = values[at] == bits[rest]
        text[rest[hit]] = strings[at[hit]]
        rest = rest[~hit]
    text[rest] = list(map(repr, dist[rest].tolist()))
    return text


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
    # identical draws whichever channels fire, but for ``g_felt``, which V
    # leaves undrawn; the per-tick ones are drawn in blocks of ``_BLOCK`` as
    # the loop below uses them, ``g_lat``'s by ``_schedule``, and ``g_event``'s
    # three a candidate, into ``values``, from which the e-th excursion takes
    # the e-th three, however far a walk looks ahead. A trial that takes
    # its run's ``_Pair`` takes from it all it would read of ``g_lat`` and
    # ``g_exc``, and draws neither.
    streams = np.random.SeedSequence(seed).spawn(4)
    g_exc, g_event, g_felt, g_lat = (np.random.default_rng(s) for s in streams)

    out_t = np.empty(n, dtype=np.int64)
    out_d = np.empty(n)
    out_state = np.zeros(n, dtype=np.uint8)
    out_duty = np.zeros(n)

    # Hand state: in a move phase the hand is ``k`` ticks into ``move``.
    tray, toolbox = human.task_positions
    hx, hy, hz = tray
    phase = _TASK_DWELL
    task_target = toolbox
    phase_until = human.task_dwell_s
    move, k = None, 0
    exc, values = 0, []  # excursions started, and the excursion values drawn
    crossed = False
    vis_at = air_at = math.inf
    reaction_s = human.reaction_latency_ms / 1000.0
    inf = math.inf
    sqrt = math.sqrt

    # A trial on a run takes the run's ``_Pair`` if it has this trial's key,
    # and otherwise drops it, text and all, and leaves its own as it ends.
    excursion_p = human.excursion_rate * dt
    run = _run(traj, dt, n, latency.capture_ms, human)
    pair = kept = None
    if run is not None:
        key = (seed, latency, excursion_p)
        if run.pair is not None and run.pair.key != key:
            run.pair = None
        pair = run.pair

    # Pipeline state: the trace's decision log, one command time and one state
    # per frame of the schedule, every state SAFE until the loop decides
    # otherwise. The loop decides ``frame`` on the tick it lands,
    # ``next_frame``; frames before ``hot`` include every one decided other
    # than SAFE. The first ``applied`` commands have reached the actuator, and
    # ``due`` is the time of the next one, inf past the last, so a tick tests
    # the queue in one compare.
    if pair is None:
        landed, command_s = _schedule(latency, g_lat, n, dt, run)
        kept = [] if run is not None else None  # each block's excursion candidates
    else:
        landed, command_s = pair.landed, pair.command_s[:]
    command_state = bytearray(len(command_s))
    frame = applied = hot = 0
    next_frame, due = landed[0], command_s[0]  # the frame at 0 s is always taken
    dec_state = SafetyState.SAFE
    live_state = 0

    # Actuator first-order response; rise time is to 90% of target. The decay
    # alone never reaches its target, so within ``_DUTY_SETTLE_PCT`` of it the
    # duty settles there exactly and a stopped fan reads 0.0.
    tau = latency.actuator_rise_ms / 1000.0 / math.log(10.0)
    alpha = 1.0 - math.exp(-dt / tau) if tau > 0.0 else 1.0
    duty = duty_target = 0.0

    had = zone.had
    idle_from = 0  # the last walk saw the hand within the HAD up to this tick

    # A trial with a ``run`` takes the robot's inputs from it; a longer one
    # makes them as it reaches each block.
    for start in range(0, n, _BLOCK):
        # The per-tick inputs, one block at a time. Each generator is read in
        # sequence and the rest is elementwise, so the block size changes no draw.
        stop = min(start + _BLOCK, n)
        tick_s, t_ms, tcp, xs, ys, zs = (run.robot[start // _BLOCK] if run is not None
                                         else _robot_block(traj, dt, start, stop))
        out_t[start:stop] = t_ms
        if va:  # only the VA air channel reads the felt stream
            felt_block = felt_multipliers(perception, g_felt.standard_normal(stop - start))
        # The ticks of the block whose draw may start an excursion, then inf:
        # the loop tests the rest of an excursion's conditions on these ticks
        # only, and ``kicks[c] + start`` is the next one. Each starts at most
        # one excursion, which takes three values.
        if pair is None:
            candidates = np.flatnonzero(g_exc.random(stop - start) < excursion_p).tolist()
            if kept is not None:
                kept.append(candidates)
        else:
            candidates = pair.kicks[start // _BLOCK]
        values += g_event.random(3 * len(candidates)).tolist()
        kicks, c = candidates + [inf], 0
        next_kick = start + kicks[0]
        i = start
        while i < stop:
            # --- idle span -----------------------------------------------
            # With every command decided other than SAFE applied, the state
            # SAFE and no retreat pending, the ticks where the hand stays
            # beyond the HAD run as one span, in any phase: each frame landing
            # in it decides SAFE, as its log entry stands, each command
            # applied in it is SAFE and changes nothing, and its ticks keep
            # the zero state the column starts with. With the fan stopped, it
            # stays so, and the span runs through excursion candidates as the
            # loop does, into a reach. A fan still winding down, tick by tick
            # as below, is felt in phases 2-4: then a span opens outside them
            # only and ends before the next candidate, so it never enters them.
            if (hot <= applied and live_state == 0 and vis_at == inf and air_at == inf
                    and (duty == 0.0 or (not 2 <= phase <= 4 and i < next_kick))
                    and idle_from <= i):
                lo = i - start
                xyz, marks = _walk(human, dt, tick_s, lo,
                                   (stop if duty == 0.0 else min(stop, next_kick)) - start,
                                   (hx, hy, hz), phase, task_target, phase_until, move, k,
                                   kicks, (xs, ys, zs), values, exc)
                with np.errstate(over="ignore", invalid="ignore"):
                    dx, dy, dz = xyz - tcp[lo:lo + xyz.shape[1]].T
                    dist = np.sqrt(dx * dx + dy * dy + dz * dz)
                far = (dist > had) & (dist < inf)
                span = int(np.argmin(np.append(far, False)))
                idle_from = i + span + int(np.argmax(np.append(far[span:], True)))
                if span:
                    last = lo + span - 1
                    out_d[i:i + span] = dist[:span]
                    mark, phase, task_target, phase_until, move, k, started, notice = next(
                        m for m in reversed(marks) if m[0] <= last)
                    k += last - mark
                    if started != exc:  # the span started a reach
                        exc, notice_s, crossed = started, notice, False
                    c = bisect_right(kicks, last, c)
                    next_kick = start + kicks[c]
                    hx, hy, hz = xyz[:, span - 1].tolist()
                    if duty:  # the fan winds down by the per-tick update below
                        for j in range(i, i + span):
                            duty += (duty_target - duty) * alpha
                            if abs(duty_target - duty) < _DUTY_SETTLE_PCT:
                                duty = duty_target
                            if not duty:
                                break
                            out_duty[j] = duty
                    frame = bisect_right(landed, start + last, frame)
                    next_frame = landed[frame]
                    applied = bisect_right(command_s, tick_s[last], applied)
                    due = command_s[applied] if applied < len(command_s) else inf
                    i += span
                    continue

            tx, ty, tz = xs[i - start], ys[i - start], zs[i - start]
            t = i * dt

            # --- hand update ---------------------------------------------
            if phase == _TASK_DWELL or phase == _GRAB:
                if t >= phase_until:
                    phase, move = _leave(phase, (hx, hy, hz), task_target, human, dt)
                    k = 0
            else:
                k += 1
                sx, sy, sz, mx, my, mz, step_len, length, arrive, goal = move
                if k >= arrive:
                    hx, hy, hz = goal
                    phase, task_target, phase_until = _arrive(phase, task_target, t, human)
                else:
                    f = k * step_len / length
                    hx = sx + mx * f
                    hy = sy + my * f
                    hz = sz + mz * f

            # Excursion kick-off from the task loop.
            if i == next_kick:
                c += 1
                next_kick = start + kicks[c]
                if phase <= _TASK_DWELL and (reach := _reach(
                        (hx, hy, hz), tx, ty, tz, values, exc, human, dt)) is not None:
                    (move, notice_s), k, exc = reach, 0, exc + 1
                    vis_at = inf
                    air_at = inf
                    crossed = False
                    phase = _REACH

            dx, dy, dz = hx - tx, hy - ty, hz - tz
            d = sqrt(dx * dx + dy * dy + dz * dz)

            # --- decision and actuation ----------------------------------
            if i == next_frame:
                dec_state = step(dec_state, d, zone).state
                if dec_state:
                    command_state[frame] = dec_state
                    hot = frame + 1
                frame += 1
                next_frame = landed[frame]
            if due <= t:  # the last command due sets the state and the fan's target
                applied = bisect_right(command_s, t, applied)
                due = command_s[applied] if applied < len(command_s) else inf
                live_state = command_state[applied - 1]
                duty_target = duty_on if live_state else 0.0

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
                    move, k = _move((hx, hy, hz), tray, human.retreat_speed * dt), 0
                    vis_at = inf
                    air_at = inf
                    idle_from = i  # the walk that set it never modelled the retreat

            out_d[i] = d
            if live_state:
                out_state[i] = live_state
            if duty:
                out_duty[i] = duty
            i += 1

        # A long trial frees a block's inputs before the next block's are made.
        tick_s = t_ms = tcp = xs = ys = zs = None

    if kept is not None:
        run.pair = _Pair(key, landed, command_s[:], kept)
    return DistanceTrace(t_ms=out_t, dist_m=out_d, state=out_state, duty_pct=out_duty,
                         condition=cond, seed=seed, command_s=command_s,
                         command_state=command_state, shared=run)


def run_trials(cfg: RunConfig, conditions: Sequence[str], seeds: Sequence[int]
               ) -> Iterator[tuple[str, int, DistanceTrace]]:
    """(cond, seed, trace) of the trial ``cfg`` configures, for each condition
    of each seed, seed by seed, so that each trial of a seed after its first
    takes the ``_Pair`` the one before it left; one trace is made per step."""
    for seed in seeds:
        for cond in conditions:
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
        raise CalibrationFailed(f"evaluation budget must be at least 1, got {budget}")

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
