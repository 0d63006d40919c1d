"""The four workloads: what each runs, what it checks, and what it reports.

Every workload is a closed batch job at a fixed input size, driven through
the public CLI (``cli.main``) or the library API, in this one process. The
rationale for each is in ``RATIONALE.md`` next to this file.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from airshield import cli, geometry, sim, wire

from measure import pct_label, percentile, tail_percentile, tree_digest

STUDY_PAIRS = 50                  # 100 trials: trial_p90 has 10 samples beyond it
STUDY_DURATION_S = 120.0
SHIFT_PAIRS = 2
SHIFT_DURATION_S = 1200.0         # ~13 MB per trace file
CALIBRATE_BUDGET = 60
POSES = 3000                      # pose_p99 has 30 samples beyond it
POSE_NOISE_PX = 0.5
POSE_TAG_M = 0.10
POSE_Z_RANGE = (0.3, 2.0)
POSE_MAX_TILT_RAD = 0.6
POSE_OUTLIER_M = 0.05             # half the 0.35 m HAD to 0.25 m danger band
ROUND_TRIP_POSES = 200
ROUND_TRIP_TOL = 1e-6

# Criterion 5 of the acceptance suite.
STUDY_V_MEAN, STUDY_VA_MEAN, STUDY_MEAN_TOL = 0.307, 0.326, 0.015


@dataclass
class Batch:
    """One repeat of a workload's batch job, timed on the work clock."""

    start: float
    end: float
    op_spans: list[tuple[float, float]]   # (start, end) of each trial or pose
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    info: dict = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return self.end - self.start

    @property
    def op_s(self) -> list[float]:
        return [b - a for a, b in self.op_spans]


@dataclass
class Context:
    seed: int
    work: Path                     # scratch directory inside the checkout
    clock: Callable[[], float]
    inputs: object = None


def quiet_cli(argv: list[str]) -> tuple[int, str]:
    """Run ``airshield`` with its output captured; returns (exit code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, err.getvalue()


@contextlib.contextmanager
def stamped(owner: object, attr: str, clock: Callable[[], float],
            starts: list | None = None, ends: list | None = None):
    """Record work-clock timestamps when ``owner.attr`` is entered or returns."""
    fn = getattr(owner, attr)

    def probe(*args, **kwargs):
        if starts is not None:
            starts.append(clock())
        result = fn(*args, **kwargs)
        if ends is not None:
            ends.append(clock())
        return result

    setattr(owner, attr, probe)
    try:
        yield
    finally:
        setattr(owner, attr, fn)


# ---------------------------------------------------------------------------
# study and shift: simulate --condition both, then analyze
# ---------------------------------------------------------------------------

class TraceStudy:
    """``simulate --condition both`` followed by ``analyze`` over the traces."""

    min_repeats = 2                # the trace digest is compared across repeats

    def __init__(self, name: str, pairs: int, duration_s: float, check_stats: bool):
        self.name = name
        self.pairs = pairs
        self.duration_s = duration_s
        self.check_stats = check_stats

    def simulate_argv(self, seed: int, out: Path) -> list[str]:
        # Trial seeds seed*1000 .. seed*1000 + pairs - 1: no overlap between workload seeds.
        return ["simulate", "--condition", "both", "--trials", str(self.pairs),
                "--seed", str(seed * 1000), "--duration", f"{self.duration_s:g}",
                "--out", str(out)]

    def prepare(self, ctx: Context) -> None:
        ctx.inputs = None          # the inputs are the CLI arguments

    def batch(self, ctx: Context, rep: int) -> Batch:
        out = ctx.work / f"{self.name}_{rep}"
        report = ctx.work / f"{self.name}_{rep}_report.json"
        shutil.rmtree(out, ignore_errors=True)
        starts: list[float] = []
        ends: list[float] = []
        t0 = ctx.clock()
        with stamped(sim, "run_trial", ctx.clock, starts=starts), \
                stamped(wire, "journal_append", ctx.clock, ends=ends):
            rc_sim, err_sim = quiet_cli(self.simulate_argv(ctx.seed, out))
        t1 = ctx.clock()
        rc_an, err_an = quiet_cli(["analyze", "--in", str(out), "--report", str(report)])
        t2 = ctx.clock()

        n_trials = 2 * self.pairs
        problems: list[str] = []
        if rc_sim != 0:
            problems.append(f"simulate exited {rc_sim}: {err_sim.strip()}")
        if rc_an != 0:
            problems.append(f"analyze exited {rc_an}: {err_an.strip()}")
        payload = json.loads(report.read_text()) if rc_an == 0 else {}
        bad_files = {w.split(":")[0] for w in payload.get("warnings", [])
                     if w.startswith("trial_")}
        written = len(list(out.glob("trial_*.jsonl")))
        failed_trials = n_trials if rc_sim != 0 else (n_trials - written) + len(bad_files)
        if bad_files:
            problems.append(f"unreadable or truncated traces: {sorted(bad_files)}")
        if rc_an == 0:
            problems += self.check_report(payload)
        digest = tree_digest(out) if out.is_dir() else ""
        trace_bytes = sum(p.stat().st_size for p in out.glob("trial_*.jsonl"))
        if rep > 0:
            shutil.rmtree(out, ignore_errors=True)   # keep only the first tree on disk
        return Batch(
            start=t0, end=t2, op_spans=list(zip(starts, ends)),
            attempted=n_trials + 1, failed=failed_trials + (rc_an != 0), problems=problems,
            info={"simulate_s": t1 - t0, "analyze_s": t2 - t1, "digest": digest,
                  "sim_s": len(ends) * self.duration_s, "trace_bytes": trace_bytes},
        )

    def check_report(self, payload: dict) -> list[str]:
        problems = []
        if payload["n_pairs"] < 2:
            problems.append(f"only {payload['n_pairs']} matched pairs analysed")
        if not self.check_stats:
            return problems
        v, va, t = payload["v"]["mean"], payload["va"]["mean"], payload["paired_t"]
        if abs(v - STUDY_V_MEAN) > STUDY_MEAN_TOL:
            problems.append(f"V mean {v:.4f} outside {STUDY_V_MEAN} +/- {STUDY_MEAN_TOL}")
        if abs(va - STUDY_VA_MEAN) > STUDY_MEAN_TOL:
            problems.append(f"VA mean {va:.4f} outside {STUDY_VA_MEAN} +/- {STUDY_MEAN_TOL}")
        if not va > v:
            problems.append(f"VA mean {va:.4f} not above V mean {v:.4f}")
        if t is None or not (t["p_value"] < 0.01 and t["statistic"] < 0.0):
            problems.append(f"paired t-test does not reject with t < 0: {t}")
        return problems

    def check_repeats(self, ctx: Context, batches: list[Batch]) -> list[str]:
        digests = [b.info["digest"] for b in batches]
        if len(set(digests)) != 1 or not digests[0]:
            return [f"trace tree digest differs across repeats: {digests}"]
        return []

    def report(self, batches: list[Batch]) -> list[tuple[str, float, str, int]]:
        trials = [x for b in batches for x in b.op_s]
        sim_s = sum(b.info["sim_s"] for b in batches)
        rows = [
            ("sim_s_per_host_s", sim_s / sum(b.wall_s for b in batches), "s/s", len(trials)),
            ("trial_p50_ms", 1e3 * statistics.median(trials), "ms", len(trials)),
        ]
        tail = tail_percentile(len(batches[0].op_s))
        if tail is not None and tail > 50.0:
            per_batch = [percentile(b.op_s, tail) for b in batches]
            rows.append((f"trial_{pct_label(tail)}_ms", 1e3 * statistics.median(per_batch),
                         "ms", len(trials)))
        rows += [
            ("simulate_s", statistics.median(b.info["simulate_s"] for b in batches), "s",
             len(batches)),
            ("analyze_s", statistics.median(b.info["analyze_s"] for b in batches), "s",
             len(batches)),
            ("trace_mb", batches[0].info["trace_bytes"] / 1e6, "MB", len(batches)),
        ]
        return rows


# ---------------------------------------------------------------------------
# calibrate
# ---------------------------------------------------------------------------

class Calibrate:
    """``calibrate --budget 60``: coordinate descent over seeded trial batches."""

    name = "calibrate"
    min_repeats = 1

    def prepare(self, ctx: Context) -> None:
        ctx.inputs = None

    def batch(self, ctx: Context, rep: int) -> Batch:
        fit = ctx.work / f"calibrate_{rep}.json"
        starts: list[float] = []
        ends: list[float] = []
        t0 = ctx.clock()
        with stamped(sim, "run_trial", ctx.clock, starts=starts, ends=ends):
            rc, err = quiet_cli(["calibrate", "--budget", str(CALIBRATE_BUDGET),
                                 "--seed", str(ctx.seed), "--out", str(fit)])
        t1 = ctx.clock()
        problems = [] if rc == 0 else [f"calibrate exited {rc}: {err.strip()}"]
        payload = json.loads(fit.read_text()) if rc == 0 else {}
        duration = sim.calibrate.__kwdefaults__["trial_duration_s"]
        return Batch(
            start=t0, end=t1, op_spans=list(zip(starts, ends)),
            attempted=1, failed=int(rc != 0), problems=problems,
            info={"evaluations": payload.get("evaluations", 0),
                  "sim_s": len(ends) * duration, "fit": payload},
        )

    def check_repeats(self, ctx: Context, batches: list[Batch]) -> list[str]:
        fits = {json.dumps(b.info["fit"], sort_keys=True) for b in batches}
        return [] if len(fits) == 1 else ["calibration result differs across repeats"]

    def report(self, batches: list[Batch]) -> list[tuple[str, float, str, int]]:
        wall = sum(b.wall_s for b in batches)
        evals = sum(b.info["evaluations"] for b in batches)
        trials = [x for b in batches for x in b.op_s]
        return [
            ("sim_s_per_host_s", sum(b.info["sim_s"] for b in batches) / wall, "s/s",
             len(trials)),
            ("evals_per_s", evals / wall, "1/s", evals),
            ("evaluations", statistics.median(b.info["evaluations"] for b in batches),
             "count", len(batches)),
            ("trial_p50_ms", 1e3 * statistics.median(trials), "ms", len(trials)),
        ]


# ---------------------------------------------------------------------------
# posecheck
# ---------------------------------------------------------------------------

def random_pose(rng: np.random.Generator) -> geometry.MarkerPose:
    """Marker pose facing the camera, drawn as ``airshield posecheck`` draws it."""
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(0.0, POSE_MAX_TILT_RAD)
    k = np.array([[0.0, -axis[2], axis[1]],
                  [axis[2], 0.0, -axis[0]],
                  [-axis[1], axis[0], 0.0]])
    rot = np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)
    z = rng.uniform(*POSE_Z_RANGE)
    t = np.array([rng.uniform(-0.3, 0.3) * z, rng.uniform(-0.25, 0.25) * z, z])
    return geometry.MarkerPose(rotation=rot, translation=t)


@dataclass
class PoseInputs:
    cam: geometry.CameraIntrinsics
    tag: geometry.MarkerSpec
    poses: list[geometry.MarkerPose]
    observations: list[geometry.TagObservation]


class PoseCheck:
    """``estimate_pose`` on noisy observations of random facing poses."""

    name = "posecheck"
    min_repeats = 2                # the pose errors are compared across repeats

    def __init__(self, poses: int = POSES):
        self.poses = poses

    def prepare(self, ctx: Context) -> None:
        rng = np.random.default_rng(ctx.seed)
        cam = geometry.CameraIntrinsics()
        tag = geometry.MarkerSpec(side_len=POSE_TAG_M)
        poses, observations = [], []
        for _ in range(self.poses):
            pose = random_pose(rng)
            poses.append(pose)
            observations.append(geometry.observe(pose, tag, cam, noise_px=POSE_NOISE_PX,
                                                 rng=rng))
        ctx.inputs = PoseInputs(cam, tag, poses, observations)

    def batch(self, ctx: Context, rep: int) -> Batch:
        inp: PoseInputs = ctx.inputs
        clock = ctx.clock
        estimates: list[geometry.MarkerPose | None] = []
        spans: list[tuple[float, float]] = []
        raised: list[str] = []
        t_batch = clock()
        for obs in inp.observations:
            t0 = clock()
            try:
                est = geometry.estimate_pose(obs, inp.tag, inp.cam)
            except (ValueError, ArithmeticError, np.linalg.LinAlgError) as exc:
                est = None
                raised.append(f"{type(exc).__name__}: {exc}")
            spans.append((t0, clock()))
            estimates.append(est)
        t_end = clock()
        errors = np.array([
            math.inf if est is None else float(np.linalg.norm(est.translation - pose.translation))
            for est, pose in zip(estimates, inp.poses)])
        ok = np.isfinite(errors)
        return Batch(
            start=t_batch, end=t_end, op_spans=spans, attempted=len(spans), failed=len(raised),
            info={"errors": errors, "err_p50_m": float(np.median(errors[ok])) if ok.any() else math.inf,
                  "outliers": int(np.sum(errors[ok] > POSE_OUTLIER_M)),
                  "raised": raised[:3]},
        )

    def check_repeats(self, ctx: Context, batches: list[Batch]) -> list[str]:
        problems = []
        worst = noise_free_round_trip(ctx.inputs)
        if worst > ROUND_TRIP_TOL:
            problems.append(f"noise-free pose round trip off by {worst:.3e} "
                            f"(> {ROUND_TRIP_TOL:g})")
        if any(not np.array_equal(b.info["errors"], batches[0].info["errors"]) for b in batches):
            problems.append("pose errors differ across repeats")
        return problems

    def report(self, batches: list[Batch]) -> list[tuple[str, float, str, int]]:
        calls = [x for b in batches for x in b.op_s]
        wall = sum(b.wall_s for b in batches)
        first = batches[0]
        rows = [
            ("poses_per_s", len(calls) / wall, "1/s", len(calls)),
            ("pose_p50_us", 1e6 * statistics.median(calls), "us", len(calls)),
        ]
        tail = tail_percentile(len(first.op_s))
        if tail is not None and tail > 50.0:
            per_batch = [percentile(b.op_s, tail) for b in batches]
            rows.append((f"pose_{pct_label(tail)}_us", 1e6 * statistics.median(per_batch),
                         "us", len(calls)))
        rows += [
            ("pose_err_p50_mm", 1e3 * first.info["err_p50_m"], "mm", len(first.op_spans)),
            ("pose_outlier_ratio", first.info["outliers"] / max(first.attempted, 1), "ratio",
             first.attempted),
        ]
        return rows


def noise_free_round_trip(inp: PoseInputs) -> float:
    """Worst rotation (rad) or translation (m) error on exact projections."""
    worst = 0.0
    for pose in inp.poses[:ROUND_TRIP_POSES]:
        est = geometry.estimate_pose(geometry.project(pose, inp.tag, inp.cam), inp.tag, inp.cam)
        worst = max(worst, geometry.rotation_geodesic_rad(est.rotation, pose.rotation),
                    float(np.linalg.norm(est.translation - pose.translation)))
    return worst


WORKLOADS = {
    "study": TraceStudy("study", STUDY_PAIRS, STUDY_DURATION_S, check_stats=True),
    "calibrate": Calibrate(),
    "shift": TraceStudy("shift", SHIFT_PAIRS, SHIFT_DURATION_S, check_stats=False),
    "posecheck": PoseCheck(),
}
