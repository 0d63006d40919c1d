"""Per-layer metrics of the traced run, named after the program's modules.

The spans wrap module attributes as the callers see them: ``sim`` imported
``step`` and ``perception_errors`` by name, so those are wrapped on ``sim``;
the CLI dispatches through ``cli._COMMANDS``, so its command spans wrap that
table. No file under ``src/`` changes.
"""

from __future__ import annotations

import inspect
import math

from airshield import cli, config, geometry, sim, stats, wire

from tracer import Tracer

# (owner, attribute, span name)
SPANS = [
    (sim, "trajectory_positions", "sim.trajectory_positions"),
    (sim, "step", "safety.step"),
    (sim, "below_had_mean", "sim.below_had_mean"),
    (sim, "analyze_pairs", "sim.analyze_pairs"),
    (sim, "perception_errors", "airflow.perception_errors"),
    (wire, "journal_append", "wire.journal_append"),
    (wire, "journal_read", "wire.journal_read"),
    (geometry, "estimate_pose", "geometry.estimate_pose"),
    (geometry, "observe", "geometry.observe"),
    (stats, "summarize", "stats.summarize"),
    (stats, "shapiro_wilk", "stats.shapiro_wilk"),
    (stats, "paired_t", "stats.paired_t"),
    (cli, "load_config", "config.load_config"),
    (config, "load_config", "config.load_config"),
    (cli._COMMANDS, "simulate", "cli.simulate"),
    (cli._COMMANDS, "analyze", "cli.analyze"),
    (cli._COMMANDS, "calibrate", "cli.calibrate"),
]


def install_probes(tracer: Tracer) -> dict[str, int]:
    """Wrap every layer boundary; returns frame counters filled as trials end."""
    counters = {"ticks": 0, "frames_captured": 0, "frames_processed": 0}
    signature = inspect.signature(sim.run_trial)

    def count_frames(args, kwargs, trace) -> None:
        bound = signature.bind(*args, **kwargs)
        capture_ms = bound.arguments["latency"].capture_ms
        last_tick_ms = float(trace.t_ms[-1])
        counters["ticks"] += len(trace)
        # run_trial takes a frame at every capture instant k * capture_ms
        # up to the last tick; the decision log holds the processed ones.
        counters["frames_captured"] += math.floor(last_tick_ms / capture_ms) + 1
        counters["frames_processed"] += len(trace.decisions)

    tracer.wrap(sim, "run_trial", "sim.run_trial", on_return=count_frames)
    for owner, attr, name in SPANS:
        tracer.wrap(owner, attr, name)
    return counters


def layer_metrics(summary: dict, everywhere: dict, counters: dict, traced_wall: float,
                  untraced_wall: float, trace_bytes: int) -> dict:
    """The per-layer metrics of BENCHMARK.json from the batch's span summary
    and the whole run's; a layer the workload never calls reports 0."""

    def stat(name: str, key: str) -> float:
        return summary.get(name, {}).get(key, 0)

    def per_call(name: str, key: str, scale: float) -> float:
        calls = stat(name, "calls")
        return scale * stat(name, key) / calls if calls else 0.0

    def rate(megabytes: float, seconds: float) -> float:
        return megabytes / seconds if seconds > 0 else 0.0

    mb = trace_bytes / 1e6
    captured = counters["frames_captured"]
    processed = counters["frames_processed"]
    values = {
        "sim.run_trial.self_ms": (per_call("sim.run_trial", "self_s", 1e3), "ms"),
        "sim.run_trial.calls": (stat("sim.run_trial", "calls"), "count"),
        "sim.trajectory_positions.ms": (per_call("sim.trajectory_positions", "total_s", 1e3), "ms"),
        "sim.ticks": (counters["ticks"], "count"),
        "sim.frames_processed": (processed, "count"),
        "sim.frames_dropped": (captured - processed, "count"),
        "sim.frame_use_ratio": (processed / captured if captured else 0.0, "ratio"),
        "sim.below_had_mean.us": (per_call("sim.below_had_mean", "total_s", 1e6), "us"),
        "safety.step.calls": (stat("safety.step", "calls"), "count"),
        "safety.step.us": (per_call("safety.step", "total_s", 1e6), "us"),
        "safety.step.busy_share": (
            stat("safety.step", "total_s") / stat("sim.run_trial", "total_s")
            if stat("sim.run_trial", "total_s") else 0.0, "ratio"),
        "wire.journal_append.ms": (per_call("wire.journal_append", "total_s", 1e3), "ms"),
        "wire.journal_append.mb_per_s": (rate(mb, stat("wire.journal_append", "total_s")), "MB/s"),
        "wire.journal_read.mb_per_s": (rate(mb, stat("wire.journal_read", "total_s")), "MB/s"),
        "wire.trace_mb": (mb, "MB"),
        "geometry.estimate_pose.us": (per_call("geometry.estimate_pose", "total_s", 1e6), "us"),
        "geometry.estimate_pose.calls": (stat("geometry.estimate_pose", "calls"), "count"),
        "geometry.estimate_pose.raises": (stat("geometry.estimate_pose", "raises"), "count"),
        "geometry.observe.us": (0.0, "us"),  # set-up layers: filled in below
        "airflow.perception_errors.ms": (per_call("airflow.perception_errors", "total_s", 1e3), "ms"),
        "stats.shapiro_wilk.us": (per_call("stats.shapiro_wilk", "total_s", 1e6), "us"),
        "stats.paired_t.us": (per_call("stats.paired_t", "total_s", 1e6), "us"),
        "cli.simulate.self_s": (stat("cli.simulate", "self_s"), "s"),
        "cli.analyze.self_s": (stat("cli.analyze", "self_s"), "s"),
        "config.load_config.ms": (0.0, "ms"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.untraced_wall_s": (untraced_wall, "s"),
        "trace.overhead_ratio": (traced_wall / untraced_wall - 1.0, "ratio"),
        "trace.spans": (sum(s["calls"] for s in summary.values()), "count"),
    }
    # Observations are made and the config is loaded in set-up, outside the
    # batch, so these two come from every span of the run.
    for name, metric, scale in (("geometry.observe", "geometry.observe.us", 1e6),
                                ("config.load_config", "config.load_config.ms", 1e3)):
        s = everywhere.get(name, {"calls": 0})
        if s["calls"]:
            values[metric] = (scale * s["total_s"] / s["calls"], values[metric][1])
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def print_layer_table(summary: dict, wall: float) -> None:
    print(f"  {'span':<28} {'calls':>9} {'self s':>10} {'share':>7}")
    rows = sorted(summary.items(), key=lambda kv: -kv[1]["self_s"])
    for name, s in rows:
        if s["calls"]:
            print(f"  {name:<28} {s['calls']:>9} {s['self_s']:>10.4f} {s['self_s'] / wall:>7.1%}")
