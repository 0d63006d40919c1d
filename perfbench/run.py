"""airshield benchmark: four closed batch workloads, end to end or traced.

    python3 perfbench/run.py --workload study --seed 0 --seconds 8 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 8 --trace 1

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs the batch once plain and once under the span tracer and reports the
per-layer metrics and the tracing overhead. Human-readable lines come first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0 on
success, 1 when a correctness check fails (then no timing is reported) and
2 when the program's sources are missing. ``--workload all`` runs every
workload in its own process, one after another.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 5
WORKLOAD_NAMES = ("study", "calibrate", "shift", "posecheck")

# Gated end-to-end metrics, in BENCHMARK.json order.
END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}


def import_program() -> None:
    """Put this checkout's ``src`` first on the path and refuse any other copy."""
    pkg = SRC / "airshield"
    if not (pkg / "__init__.py").is_file():
        print(f"perfbench: no airshield sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import airshield
    if Path(airshield.__file__).resolve().parent != pkg.resolve():
        print(f"perfbench: imported airshield from {airshield.__file__}, not {pkg}",
              file=sys.stderr)
        sys.exit(2)


def provenance(seed: int) -> dict:
    import numpy
    commit = "unknown"
    if (ROOT / ".git").exists():   # never report the commit of an enclosing repository
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {"seed": seed, "commit": commit, "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count()}


def set_up(wl, ctx) -> None:
    from airshield import config
    config.load_config(None, [])
    wl.prepare(ctx)


def time_setup(workload: str, seed: int) -> tuple[float, float]:
    """Wall time of a fresh process that imports, loads the config and makes
    inputs: raw, and scaled by reference loops run just before and after it."""
    from measure import reference_factor
    before = reference_factor(4)
    t0 = time.perf_counter()
    subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                    "--seed", str(seed), "--setup-only"], check=True, cwd=ROOT)
    raw = time.perf_counter() - t0
    return raw, raw * (before + reference_factor(4)) / 2.0


def work_dir(workload: str, seed: int) -> Path:
    path = OUT_DIR / f"work-{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def run_batches(wl, ctx, seconds: float) -> list:
    batches = []
    t0 = ctx.clock()
    while len(batches) < wl.min_repeats or ctx.clock() - t0 < seconds:
        batches.append(wl.batch(ctx, len(batches)))
        if batches[-1].problems:
            break
    return batches


def print_rows(rows) -> None:
    for name, value, unit, n in rows:
        print(f"  {name:<34} {value:>14.6g} {unit:<6} n={n}")


def fail_ratio_row(batches) -> tuple:
    attempted = sum(b.attempted for b in batches)
    failed = sum(b.failed for b in batches)
    outliers = sum(b.info.get("outliers", 0) for b in batches)
    return ("fail_ratio", (failed + outliers) / attempted, "ratio", attempted), failed, outliers


def measure(wl, seed: int, seconds: float) -> tuple[bool, int, int, dict]:
    from measure import SpeedMeter, peak_rss_mb
    from workloads import Context

    setup_raw, setup_scaled = zip(*(time_setup(wl.name, seed) for _ in range(SETUP_REPEATS)))
    ctx = Context(seed=seed, work=work_dir(wl.name, seed), clock=None)
    try:
        with SpeedMeter() as meter:
            ctx.clock = meter.clock
            set_up(wl, ctx)
            batches = run_batches(wl, ctx, seconds)
            problems = [p for b in batches for p in b.problems]
            if not problems:
                problems = wl.check_repeats(ctx, batches)
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)
    factor = meter.factor()
    ops = [x for b in batches for x in b.op_s]
    wall = sum(b.wall_s for b in batches)
    fail_row, failed, outliers = fail_ratio_row(batches)
    attempted = fail_row[3]
    raw = {
        "setup_s": (statistics.median(setup_raw), "s", SETUP_REPEATS),
        "ops_per_s": (len(ops) / wall, "1/s", len(ops)),
        "op_p50_ms": (1e3 * statistics.median(ops), "ms", len(ops)),
        "peak_rss_mb": (peak_rss_mb(), "MB", 1),
    }
    print(f"end-to-end, tracing off ({len(batches)} batches; median speed factor "
          f"{factor:.4f} from {len(meter.samples)} reference samples):")
    print_rows([(k, v, u, n) for k, (v, u, n) in raw.items()]
               + [("wall_s", statistics.median(b.wall_s for b in batches), "s", len(batches)),
                  fail_row] + wl.report(batches))
    if outliers:
        print(f"  fail_ratio counts {failed} failed calls and {outliers} poses off by more "
              f"than 0.05 m; only failed calls count as failed operations")
    if "digest" in batches[0].info:
        digests = {b.info["digest"] for b in batches}
        print(f"  trace tree sha256 {batches[0].info['digest']} (identical in all "
              f"{len(batches)} repeats: {len(digests) == 1})")
        print(f"  reproduce: airshield {' '.join(wl.simulate_argv(seed, Path('DIR')))}")
    if problems:
        for p in problems:
            print(f"CHECK FAILED: {p}")
        return False, attempted, failed, {}
    # Each op and each batch is scaled by the samples around it.
    metrics = {
        "setup_s": statistics.median(setup_scaled),
        "ops_per_s": len(ops) / sum(meter.scaled(b.start, b.end) for b in batches),
        "op_p50_ms": 1e3 * statistics.median(meter.scaled(a, b) for x in batches
                                             for a, b in x.op_spans),
        "peak_rss_mb": raw["peak_rss_mb"][0],
    }
    print("gated (times at nominal reference speed):")
    print_rows([(k, v, END_TO_END_UNITS[k], raw[k][2]) for k, v in metrics.items()])
    return True, attempted, failed, {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                                     for k, v in metrics.items()}


def trace(wl, seed: int, seconds: float) -> tuple[bool, int, int, dict]:
    from layers import install_probes, layer_metrics, print_layer_table
    from tracer import Tracer, self_times
    from workloads import Context

    ctx = Context(seed=seed, work=work_dir(wl.name, seed), clock=time.perf_counter)
    tracer = Tracer()
    try:
        set_up(wl, ctx)
        t0 = time.perf_counter()
        plain = wl.batch(ctx, 0)
        untraced_wall = time.perf_counter() - t0
        counters = install_probes(tracer)
        try:
            with tracer.span("setup"):
                set_up(wl, ctx)
            t0 = time.perf_counter()
            with tracer.span("batch") as root:
                traced = wl.batch(ctx, 1)
            traced_wall = time.perf_counter() - t0
        finally:
            tracer.unwrap_all()
        batches = [plain, traced]
        problems = [p for b in batches for p in b.problems]
        if not problems:
            problems = wl.check_repeats(ctx, batches)
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)
    spans_path = OUT_DIR / f"spans-{wl.name}-{seed}.npz"
    tracer.dump(spans_path)
    sel = tracer.subtree(root)
    summary = tracer.summary(sel)
    a = tracer.arrays()
    own = self_times(a["start"], a["end"], a["parent"])[sel]
    self_sum = float(own.sum())
    metrics = layer_metrics(summary, tracer.summary(), counters, traced_wall, untraced_wall,
                            traced.info.get("trace_bytes", 0))
    print(f"traced run: {len(tracer)} spans written to {spans_path.relative_to(ROOT)}")
    print_layer_table(summary, traced_wall)
    print(f"  traced wall {traced_wall:.3f} s vs untraced {untraced_wall:.3f} s: "
          f"overhead {metrics['trace.overhead_ratio']['value']:+.1%}; "
          f"span self times sum to {self_sum:.3f} s")
    problems += self_sum_problems(own, traced_wall)
    fail_row, failed, _ = fail_ratio_row(batches)
    if problems:
        for p in problems:
            print(f"CHECK FAILED: {p}")
        return False, fail_row[3], failed, {}
    return True, fail_row[3], failed, metrics


def self_sum_problems(own, wall: float) -> list[str]:
    """Self times must be non-negative and add up to the wall time measured
    outside the tracer, within 1 %."""
    problems = []
    if own.min() < -1e-6:
        problems.append(f"a span's children outlast it by {-own.min():.3g} s")
    if abs(own.sum() - wall) > 0.01 * wall + 1e-3:
        problems.append(f"span self times sum to {own.sum():.4f} s, traced wall is {wall:.4f} s")
    return problems


def run_one(args) -> int:
    import_program()
    sys.path.insert(0, str(BENCH_DIR))
    from workloads import WORKLOADS, Context

    wl = WORKLOADS[args.workload]
    if args.setup_only:
        set_up(wl, Context(seed=args.seed, work=ROOT, clock=time.perf_counter))
        return 0
    info = provenance(args.seed)
    print(f"perfbench {wl.name} trace={args.trace} seconds={args.seconds} "
          + " ".join(f"{k}={v}" for k, v in info.items()))
    fn = trace if args.trace else measure
    correct, attempted, failed, metrics = fn(wl, args.seed, float(args.seconds))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Run each workload in a fresh process, so each has its own peak memory."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        try:
            results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):   # no result line: the run crashed
            return proc.returncode or 2
    print("summary:")
    for name, res in results.items():
        status = "ok" if res["correct"] else "CHECK FAILED"
        metrics = ", ".join(f"{k} {m['value']:.6g} {m['unit']}" for k, m in res["metrics"].items())
        print(f"  {name:<10} {status}: {res['failed']}/{res['attempted']} failed; {metrics}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{k}": m for name, r in results.items()
                    for k, m in r["metrics"].items()},
    }))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
