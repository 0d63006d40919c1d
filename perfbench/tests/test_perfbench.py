"""Tests of the benchmark's own arithmetic and checks.

Run from the repository root: ``python3 -m pytest -q perfbench/tests``.
"""

import json
import shutil
import sys
from itertools import count
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import layers  # noqa: E402
import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402
from airshield import cli, geometry  # noqa: E402
from measure import REF_NOMINAL_S, SpeedMeter, tail_percentile, tree_digest  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402


# --- self time ---------------------------------------------------------------

def test_self_times_of_nested_spans():
    # root [0, 10] holds a [1, 4] (which holds a1 [2, 3]) and b [5, 9]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    parents = [-1, 0, 1, 0]
    own = self_times(starts, ends, parents)
    assert own.tolist() == [3.0, 2.0, 1.0, 4.0]
    assert own.sum() == 10.0


def test_tracer_self_time_through_wrapped_calls(monkeypatch):
    ticks = count()
    monkeypatch.setattr(tracer_mod, "perf_counter", lambda: float(next(ticks)))

    class Layer:
        @staticmethod
        def leaf():
            return "leaf"

        @staticmethod
        def mid():
            return Layer.leaf() + Layer.leaf()

    t = Tracer()
    t.wrap(Layer, "leaf", "leaf")
    t.wrap(Layer, "mid", "mid")
    with t.span("root") as root:
        assert Layer.mid() == "leafleaf"
    t.unwrap_all()
    assert Layer.mid.__name__ == "mid" and not hasattr(Layer.mid, "__wrapped__")
    summary = t.summary(t.subtree(root))
    # Clock reads: root 0..7, mid 1..6, leaf 2..3 and 4..5.
    assert summary["root"]["self_s"] == 2.0
    assert summary["mid"]["self_s"] == 3.0
    assert summary["leaf"] == {"calls": 2, "total_s": 2.0, "self_s": 2.0, "raises": 0}
    a = t.arrays()
    assert self_times(a["start"], a["end"], a["parent"]).sum() == 7.0


def test_tracer_counts_raises_and_restores_dict_entries():
    table = {"f": lambda: 1 / 0}
    t = Tracer()
    original = table["f"]
    t.wrap(table, "f", "div")
    with pytest.raises(ZeroDivisionError):
        table["f"]()
    t.unwrap_all()
    assert table["f"] is original
    assert t.summary()["div"]["raises"] == 1


# --- percentiles ---------------------------------------------------------------

@pytest.mark.parametrize("n, expected", [
    (1, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
    (1000, 99.0), (9999, 99.0), (10_000, 99.9), (10**6, 99.9),
])
def test_tail_percentile_has_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


# --- failures ------------------------------------------------------------------

def test_fail_ratio_counts_estimate_pose_raises(monkeypatch, tmp_path):
    wl = workloads.PoseCheck(poses=6)
    ctx = workloads.Context(seed=3, work=tmp_path, clock=lambda: 0.0)
    wl.prepare(ctx)
    real = geometry.estimate_pose
    calls = count()

    def flaky(obs, tag, cam):
        if next(calls) % 2:
            raise geometry.DegenerateObservation("corners are collinear")
        return real(obs, tag, cam)

    monkeypatch.setattr(geometry, "estimate_pose", flaky)
    batch = wl.batch(ctx, 0)
    assert (batch.attempted, batch.failed) == (6, 3)
    row, failed, outliers = run.fail_ratio_row([batch])
    assert failed == 3
    assert row[0] == "fail_ratio" and row[3] == 6
    assert row[1] == pytest.approx((3 + outliers) / 6)


# --- trace digest ----------------------------------------------------------------

def small_study() -> workloads.TraceStudy:
    return workloads.TraceStudy("tiny", pairs=2, duration_s=60.0, check_stats=False)


def test_tampered_trace_fails_the_digest_check(tmp_path):
    wl = small_study()
    ctx = workloads.Context(seed=1, work=tmp_path, clock=lambda: 0.0)
    batch = wl.batch(ctx, 0)
    assert batch.problems == [] and batch.failed == 0
    tree = tmp_path / "tiny_0"
    copy = tmp_path / "copy"
    shutil.copytree(tree, copy)
    assert wl.check_repeats(ctx, [batch, batch]) == []
    assert tree_digest(copy) == batch.info["digest"]

    victim = sorted(copy.glob("trial_*.jsonl"))[0]
    data = bytearray(victim.read_bytes())
    data[len(data) // 2] ^= 0x01
    victim.write_bytes(bytes(data))
    tampered = workloads.Batch(start=0.0, end=0.0, op_spans=[], attempted=0, failed=0,
                               info={"digest": tree_digest(copy)})
    assert wl.check_repeats(ctx, [batch, tampered]) != []


def test_benchmark_digest_equals_plain_simulate(tmp_path):
    wl = small_study()
    ctx = workloads.Context(seed=2, work=tmp_path / "bench", clock=lambda: 0.0)
    ctx.work.mkdir()
    batch = wl.batch(ctx, 0)
    plain = tmp_path / "plain"
    assert cli.main(wl.simulate_argv(2, plain)) == 0
    assert tree_digest(plain) == batch.info["digest"]


def test_truncated_trace_counts_as_failed_trial(monkeypatch, tmp_path):
    real = workloads.wire.journal_append

    def torn(path, records):
        real(path, records)
        if "trial_va_" in Path(path).name:
            with open(path, "ab") as fh:
                fh.write(b'{"t_ms": 1')  # a write torn by a crash

    monkeypatch.setattr(workloads.wire, "journal_append", torn)
    batch = small_study().batch(workloads.Context(seed=1, work=tmp_path, clock=lambda: 0.0), 0)
    assert batch.failed == 2
    assert any("truncated" in p for p in batch.problems)


# --- metric names ------------------------------------------------------------------

def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    counters = {"ticks": 0, "frames_captured": 0, "frames_processed": 0}
    metrics = layers.layer_metrics({}, {}, counters, 1.0, 1.0, 0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {k: v["unit"] for k, v in metrics.items()}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)


def test_speed_meter_clock_excludes_reference_samples():
    with SpeedMeter(period_s=0.01) as meter:
        t0 = meter.clock()
        end = meter.clock() + 0.2
        while meter.clock() < end:
            pass
        elapsed = meter.clock() - t0
    assert len(meter.samples) >= 2
    assert elapsed >= 0.2
    assert meter.factor() > 0.0 and np.isfinite(meter.factor())


def test_scaling_uses_the_samples_around_each_interval():
    meter = SpeedMeter()
    # The host ran at nominal speed for the first 3 s and at half speed from 7 s.
    meter.stamps = [0.0, 1.0, 2.0, 3.0, 7.0, 8.0, 9.0, 10.0]
    meter.samples = [REF_NOMINAL_S] * 4 + [2 * REF_NOMINAL_S] * 4
    assert meter.scaled(0.5, 1.5) == pytest.approx(1.0)
    assert meter.scaled(8.5, 9.5) == pytest.approx(0.5)
    assert meter.scaled(0.0, 2.0) + meter.scaled(8.0, 10.0) == pytest.approx(3.0)
    assert meter.factor_at(5.0) == meter.factor()   # no sample within 1 s: the run's median
