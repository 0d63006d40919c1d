import hashlib
import json
import math
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest

from airshield import sim, wire
from airshield.cli import main
from airshield.config import flatten, load_config


def run_cli(*args) -> int:
    return main([str(a) for a in args])


FAST_SIM = ("--set", "sim.duration_s=20")


def read_tree(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


def test_simulate_writes_traces_and_manifest(tmp_path, capsys):
    out = tmp_path / "runs"
    rc = run_cli(*FAST_SIM, "simulate", "--condition", "both", "--trials", "3",
                 "--seed", "42", "--out", out)
    assert rc == 0
    files = sorted(p.name for p in out.iterdir())
    assert "manifest.json" in files
    assert len([f for f in files if f.endswith(".jsonl")]) == 6
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["trials"]) == 6
    assert {t["cond"] for t in manifest["trials"]} == {"v", "va"}
    assert {t["seed"] for t in manifest["trials"]} == {42, 43, 44}
    assert len(manifest["config_sha256"]) == 64


def test_simulate_rerun_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run_cli(*FAST_SIM, "simulate", "--condition", "v", "--trials", "2",
                       "--seed", "7", "--out", out) == 0
    assert read_tree(a) == read_tree(b)


def test_manifest_hash_covers_the_duration_flag(tmp_path):
    def config_sha256(name, *args):
        out = tmp_path / name
        assert run_cli(*args, "--condition", "v", "--trials", "1", "--out", out) == 0
        return json.loads((out / "manifest.json").read_text())["config_sha256"]

    by_flag = config_sha256("flag", "simulate", "--duration", "5")
    by_config = config_sha256("config", "--set", "sim.duration_s=5", "simulate")
    assert by_flag == by_config
    assert config_sha256("other", "simulate", "--duration", "7") != by_flag


def test_simulate_alternates_run_trial_and_journal_append(tmp_path, monkeypatch):
    # perfbench/workloads.py times each trial from entering sim.run_trial to
    # the return of its wire.journal_append, patching both module attributes.
    calls = []

    def logged(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(sim, "run_trial", logged("run", sim.run_trial))
    monkeypatch.setattr(wire, "journal_append", logged("append", wire.journal_append))
    assert run_cli(*FAST_SIM, "simulate", "--trials", "2", "--condition", "both",
                   "--out", tmp_path / "runs") == 0
    assert calls == ["run", "append"] * 4


def test_simulate_zero_trials_is_usage_error(tmp_path, capsys):
    rc = run_cli("simulate", "--trials", "0", "--out", tmp_path / "x")
    assert rc == 2
    assert "trials" in capsys.readouterr().err


def test_simulate_single_condition(tmp_path):
    out = tmp_path / "v_only"
    assert run_cli(*FAST_SIM, "simulate", "--condition", "v", "--trials", "2",
                   "--seed", "1", "--out", out) == 0
    names = [p.name for p in out.iterdir() if p.suffix == ".jsonl"]
    assert sorted(names) == ["trial_v_1.jsonl", "trial_v_2.jsonl"]


def test_analyze_produces_report(tmp_path, capsys):
    out = tmp_path / "runs"
    assert run_cli(*FAST_SIM, "simulate", "--condition", "both", "--trials", "4",
                   "--seed", "0", "--duration", "60", "--out", out) == 0
    report = tmp_path / "report.json"
    rc = run_cli("analyze", "--in", out, "--report", report)
    assert rc == 0
    payload = json.loads(report.read_text())
    assert payload["n_pairs"] >= 2
    assert set(payload["v"]) == {"mean", "sd", "shapiro"}
    assert "paired_t" in payload and "config_sha256" in payload
    manifest = json.loads((out / "manifest.json").read_text())
    assert payload["traces_config_sha256"] == manifest["config_sha256"]


def test_analyze_reads_own_traces_without_the_full_parser(tmp_path, monkeypatch):
    out = tmp_path / "runs"
    assert run_cli("simulate", "--trials", "4", "--duration", "60", "--out", out) == 0

    def refuse(path):
        raise AssertionError(f"full parser called on {path}")

    monkeypatch.setattr(wire, "journal_read", refuse)
    clean, damaged = tmp_path / "clean.json", tmp_path / "damaged.json"
    assert run_cli("analyze", "--in", out, "--report", clean) == 0
    torn = out / "trial_va_3.jsonl"
    torn.write_bytes(torn.read_bytes() + b'{"t_ms": 1')
    (out / "trial_v_8.jsonl").write_bytes(b"")
    wire.journal_append(out / "trial_va_9.jsonl", [{"u_ms": 0, "dist_m": 0.3}])
    assert run_cli("analyze", "--in", out, "--report", damaged) == 0
    first, second = json.loads(clean.read_text()), json.loads(damaged.read_text())
    for key in ("n_pairs", "v", "va", "paired_t"):
        assert second[key] == first[key]
    assert second["warnings"] == first["warnings"] + [
        "trial_v_8.jsonl: empty trace skipped",
        "trial_va_3.jsonl: does not match manifest.json",
        "trial_va_3.jsonl: truncated trailing line ignored",
        "trial_va_9.jsonl: unreadable trace skipped (line 1 is not a trace line)",
        "2 trace file(s) not listed in manifest.json"]


def analyze_peak(tmp_path, duration_s):
    """Peak traced memory (bytes) of analyze over a directory holding a
    ``duration_s`` trial pair whose VA trace was torn by a crash."""
    out = tmp_path / f"runs_{duration_s:g}"
    assert run_cli("simulate", "--trials", "1", "--duration", duration_s, "--out", out) == 0
    torn = out / "trial_va_0.jsonl"
    torn.write_bytes(torn.read_bytes() + b'{"t_ms": 1')
    tracemalloc.start()
    try:
        # One pair is too few to analyze, so analyze ends in a config error
        # after it has read both traces.
        assert run_cli("analyze", "--in", out, "--report", out / "r.json") == 2
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_analyze_memory_does_not_grow_with_the_length_of_a_torn_trace(tmp_path, capsys):
    # Four times the ticks; only the 8-byte dist_m columns may grow.
    short, long = analyze_peak(tmp_path, 150.0), analyze_peak(tmp_path, 600.0)
    assert long - short <= 2e6, f"peak grew from {short / 1e6:.2f} to {long / 1e6:.2f} MB"


def test_analyze_single_condition_exits_2(tmp_path, capsys):
    out = tmp_path / "runs"
    assert run_cli(*FAST_SIM, "simulate", "--condition", "v", "--trials", "3",
                   "--seed", "0", "--out", out) == 0
    rc = run_cli("analyze", "--in", out, "--report", tmp_path / "r.json")
    assert rc == 2


def test_analyze_empty_dir_exits_2(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert run_cli("analyze", "--in", empty, "--report", tmp_path / "r.json") == 2
    assert capsys.readouterr().err.startswith("config error: no trace files found")


def test_analyze_identical_pairs_warns(tmp_path):
    out = tmp_path / "runs"
    out.mkdir()
    # two seeds whose V and VA traces are identical -> zero-variance differences
    for seed in (1, 2):
        rows = [{"t_ms": i * 10, "dist_m": 0.30 + 0.001 * seed, "state": "ACTIVE",
                 "duty_pct": 0.0, "cond": cond, "seed": seed}
                for cond in ("v", "va") for i in range(5)]
        for cond in ("v", "va"):
            wire.journal_append(out / wire.trace_filename(cond, seed),
                                [r for r in rows if r["cond"] == cond])
    report = tmp_path / "r.json"
    assert run_cli("analyze", "--in", out, "--report", report) == 0
    payload = json.loads(report.read_text())
    assert payload["paired_t"] is None
    assert any("paired_t" in w for w in payload["warnings"])


@pytest.mark.parametrize("manifest", [None, "not json", "[1]", '{"config_sha256": 5}', "{}"])
def test_analyze_without_a_manifest_hash_reports_null(tmp_path, manifest):
    out = tmp_path / "runs"
    out.mkdir()
    for seed in (1, 2):
        for cond, dist in (("v", 0.30), ("va", 0.31 + 0.01 * seed)):
            wire.journal_append(out / wire.trace_filename(cond, seed),
                                [{"t_ms": 0, "dist_m": dist, "state": "ACTIVE",
                                  "duty_pct": 0.0, "cond": cond, "seed": seed}])
    if manifest is not None:
        (out / "manifest.json").write_text(manifest)
    report = tmp_path / "r.json"
    assert run_cli("analyze", "--in", out, "--report", report) == 0
    assert json.loads(report.read_text())["traces_config_sha256"] is None


def test_analyze_skips_unreadable_trace(tmp_path):
    out = tmp_path / "runs"
    assert run_cli(*FAST_SIM, "simulate", "--condition", "both", "--trials", "3",
                   "--seed", "0", "--duration", "40", "--out", out) == 0
    (out / "trial_zz_9.jsonl").write_text("this is not json\n")
    report = tmp_path / "r.json"
    assert run_cli("analyze", "--in", out, "--report", report) == 0
    payload = json.loads(report.read_text())
    assert any("unreadable" in w for w in payload["warnings"])
    assert payload["n_pairs"] == 3


def test_analyze_reads_one_trace_per_condition_and_seed(tmp_path):
    out, other = tmp_path / "runs", tmp_path / "other"
    for seed, target in ((0, out), (7, other)):
        assert run_cli("simulate", "--trials", "3", "--seed", seed, "--duration", "30",
                       "--out", target) == 0
    clean, rerun = tmp_path / "clean.json", tmp_path / "rerun.json"
    assert run_cli("analyze", "--in", out, "--report", clean) == 0
    # A trace of another run, holding cond "v" and seed 7, renamed to seed 2's.
    data = (other / "trial_v_7.jsonl").read_bytes().replace(b'"seed":7', b'"seed":2')
    (out / "trial_v_2.rerun.jsonl").write_bytes(data)
    assert run_cli("analyze", "--in", out, "--report", rerun) == 0
    first, second = json.loads(clean.read_text()), json.loads(rerun.read_text())
    assert second["v"] == first["v"]
    assert ("trial_v_2.rerun.jsonl: another trace of v seed 2 was already read, skipped"
            in second["warnings"])


def test_analyze_counts_trace_files_the_manifest_does_not_list(tmp_path):
    out = tmp_path / "runs"
    assert run_cli("simulate", "--trials", "3", "--duration", "30", "--out", out) == 0
    report = tmp_path / "r.json"
    assert run_cli("analyze", "--in", out, "--report", report) == 0
    first = json.loads(report.read_text())
    assert not any("manifest" in w for w in first["warnings"])
    assert run_cli("simulate", "--trials", "2", "--seed", "3", "--duration", "30",
                   "--out", out) == 0
    assert run_cli("analyze", "--in", out, "--report", report) == 0
    second = json.loads(report.read_text())
    # The files of the first run are still read, and counted once.
    assert second["n_pairs"] > first["n_pairs"]
    assert [w for w in second["warnings"] if "manifest" in w] == [
        "6 trace file(s) not listed in manifest.json"]


def test_manifest_names_each_trace_digest_and_the_had_of_its_means(tmp_path):
    out = tmp_path / "runs"
    assert run_cli("--set", "safety.had_m=0.4", "simulate", "--trials", "2",
                   "--duration", "20", "--out", out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["had_m"] == 0.4
    for t in manifest["trials"]:
        assert t["sha256"] == hashlib.sha256((out / t["file"]).read_bytes()).hexdigest()


def analyze_report(out: Path, report: Path) -> bytes:
    assert run_cli("analyze", "--in", out, "--report", report) == 0
    return report.read_bytes()


def edit_manifest(out: Path, edit) -> None:
    path = out / "manifest.json"
    manifest = json.loads(path.read_text())
    edit(manifest)
    path.write_text(json.dumps(manifest))


def parsed_files(monkeypatch) -> list[str]:
    """Names of the files ``analyze`` hands to ``sim.read_trace_dist`` from now on."""
    names, read = [], sim.read_trace_dist

    def spy(stream):
        names.append(Path(stream.name).name)
        return read(stream)

    monkeypatch.setattr(sim, "read_trace_dist", spy)
    return names


@pytest.mark.parametrize("trials, duration_s", [(3, 30), (20, 8)])
def test_analyze_takes_the_stored_means_exactly_as_the_parse_gives_them(
        tmp_path, monkeypatch, trials, duration_s):
    out = tmp_path / "runs"
    assert run_cli("simulate", "--trials", trials, "--duration", duration_s, "--out", out) == 0
    means = [t["below_had_m"] for t in json.loads((out / "manifest.json").read_text())["trials"]]
    # Both trees hold a trial in which the hand never entered the zone.
    assert None in means

    def refuse(stream):
        raise AssertionError(f"{stream.name} parsed")

    with monkeypatch.context() as patch:
        patch.setattr(sim, "read_trace_dist", refuse)
        stored = analyze_report(out, tmp_path / "stored.json")
    edit_manifest(out, lambda m: m.pop("had_m"))
    assert analyze_report(out, tmp_path / "parsed.json") == stored


def _set_first(key, value):
    return lambda m: m["trials"][0].update({key: value})


def _set_had(value):
    return lambda m: m.update(had_m=value)


SEED_11_FILES = [wire.trace_filename(c, s) for c in sim.CONDITIONS for s in (11, 12, 13)]


@pytest.mark.parametrize("edit, parsed", [
    (_set_first("below_had_m", "0.3"), SEED_11_FILES[:1]),
    (_set_first("below_had_m", 0), SEED_11_FILES[:1]),
    (_set_first("below_had_m", math.nan), SEED_11_FILES[:1]),
    (_set_first("seed", True), SEED_11_FILES[:1]),
    (_set_first("seed", "11"), SEED_11_FILES[:1]),
    (_set_first("sha256", "ab"), SEED_11_FILES[:1]),
    (lambda m: m["trials"][0].update(sha256=m["trials"][0]["sha256"].upper()),
     SEED_11_FILES[:1]),
    (_set_first("seed", 12), SEED_11_FILES[:1]),
    (_set_first("cond", "va"), SEED_11_FILES[:1]),
    (_set_first("cond", "x"), SEED_11_FILES[:1]),
    (_set_had(0.36), SEED_11_FILES),
    (_set_had("0.35"), SEED_11_FILES),
    (_set_had(True), SEED_11_FILES),
    (_set_had(None), SEED_11_FILES),
], ids=["mean-str", "mean-int", "mean-nan", "seed-bool", "seed-str", "sha256-short",
        "sha256-upper", "file-of-another-seed", "file-of-another-cond", "cond-unknown",
        "had-other", "had-str", "had-bool", "had-null"])
def test_analyze_parses_a_file_whose_manifest_entry_it_cannot_use(
        tmp_path, monkeypatch, edit, parsed):
    out = tmp_path / "runs"
    assert run_cli("simulate", "--trials", 3, "--seed", 11, "--duration", 30,
                   "--out", out) == 0
    edit_manifest(out, lambda m: m.pop("had_m"))
    expected = analyze_report(out, tmp_path / "parsed.json")
    edit_manifest(out, _set_had(0.35))
    edit_manifest(out, edit)
    names = parsed_files(monkeypatch)
    assert analyze_report(out, tmp_path / "r.json") == expected
    assert names == parsed


def test_analyze_warns_about_a_trace_that_does_not_match_the_manifest(tmp_path):
    out = tmp_path / "runs"
    assert run_cli("simulate", "--trials", 3, "--duration", 60, "--out", out) == 0
    clean = json.loads(analyze_report(out, tmp_path / "clean.json"))
    # One dist_m digit of a VA trace changed: a whole, readable trace line.
    path = out / "trial_va_1.jsonl"
    path.write_bytes(path.read_bytes().replace(b'"dist_m":0.3', b'"dist_m":0.1', 1))
    tampered = json.loads(analyze_report(out, tmp_path / "tampered.json"))
    assert tampered["warnings"] == clean["warnings"] + [
        "trial_va_1.jsonl: does not match manifest.json"]
    assert tampered["v"] == clean["v"]
    assert tampered["va"]["mean"] < clean["va"]["mean"]


def test_perceive_reports_calibrated_error(capsys):
    assert run_cli("perceive", "--distance", "0.25", "--samples", "4000",
                   "--seed", "5") == 0
    out = capsys.readouterr().out
    assert "mean |error|" in out
    value = float(out.split("=")[1].split("+/-")[0])
    assert abs(value - 0.035) < 0.006


def test_perceive_inside_core_exits_2(capsys):
    assert run_cli("perceive", "--distance", "0.10") == 2
    assert "core" in capsys.readouterr().err


def test_calibrate_zero_budget_exits_4(tmp_path, capsys):
    rc = run_cli("calibrate", "--budget", "0", "--out", tmp_path / "fit.json")
    assert rc == 4


def test_calibrate_self_targets_succeeds(tmp_path):
    # target the known calibrated behavior; the first evaluation should pass
    targets = tmp_path / "targets.json"
    targets.write_text(json.dumps({"tol_mean": 0.02, "tol_err_near": 0.02,
                                   "tol_err_far": 0.03}))
    fit = tmp_path / "fit.json"
    rc = run_cli("calibrate", "--targets", targets, "--budget", "4", "--out", fit)
    assert rc == 0
    payload = json.loads(fit.read_text())
    assert set(payload) == {"fitted", "residuals", "evaluations"}


def test_calibrate_unknown_target_key_exits_2(tmp_path):
    targets = tmp_path / "targets.json"
    targets.write_text(json.dumps({"v_meen": 0.3}))
    assert run_cli("calibrate", "--targets", targets, "--budget", "1") == 2


@pytest.mark.parametrize("text", ['{"v_mean": "x"}', "[1]", "null", '{"near_x": 0.1}',
                                  '{"v_mean": 1%s}' % ("0" * 4999), '{"tol_mean": NaN}',
                                  '{"tol_mean": -1}', '{"v_mean": true}'])
def test_calibrate_bad_targets_file_exits_2(tmp_path, capsys, text):
    targets = tmp_path / "targets.json"
    targets.write_text(text)
    assert run_cli("calibrate", "--targets", targets, "--budget", "2") == 2
    assert capsys.readouterr().err.startswith("config error: ")


def test_calibrate_unreadable_targets_file_exits_3(tmp_path, capsys):
    assert run_cli("calibrate", "--targets", tmp_path / "missing.json") == 3
    assert "cannot read targets file" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ("simulate", "--duration", "nan"), ("simulate", "--duration", "inf"),
    ("simulate", "--seed", "-1"), ("posecheck", "--seed", "-1"),
    ("calibrate", "--seed", "-2000"), ("calibrate", "--seed", "-1"),
    ("posecheck", "--noise-px", "inf"), ("posecheck", "--noise-px", "nan"),
    ("posecheck", "--noise-px", "-1"), ("posecheck", "--noise-px", "1e308"),
    ("perceive", "--distance", "nan"),
    ("perceive", "--distance", "inf"), ("perceive", "--seed", "-1", "--distance", "0.25"),
    ("perceive", "--samples", "1", "--distance", "0.25"),
])
def test_bad_numeric_flag_exits_2(tmp_path, capsys, args):
    extra = {"simulate": ("--trials", "1", "--out", tmp_path / "x"),
             "posecheck": ("--poses", "2"), "calibrate": ("--budget", "1"),
             "perceive": ()}[args[0]]
    assert run_cli(*args, *extra) == 2
    assert capsys.readouterr().err.startswith(f"config error: {args[1]} must be ")
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command", [("simulate", "--trials", "1"),
                                     ("calibrate", "--budget", "1")])
def test_zero_frame_interval_is_config_error(tmp_path, capsys, command):
    out = tmp_path / "x"
    extra = ("--out", out) if command[0] == "simulate" else ()
    assert run_cli("--set", "latency.capture_ms=0", *command, *extra) == 2
    assert capsys.readouterr().err.startswith("config error: capture_ms must be positive")
    assert not out.exists()


def test_posecheck_noiseless(capsys):
    assert run_cli("posecheck", "--poses", "150", "--noise-px", "0") == 0
    out = capsys.readouterr().out
    trans_max = float(out.split("translation max")[1].split("m")[0])
    assert trans_max <= 1e-6


def test_posecheck_counts_degenerate_observations(capsys):
    assert run_cli("posecheck", "--poses", "200", "--noise-px", "10", "--seed", "0") == 0
    out = capsys.readouterr().out
    assert out.startswith("200 poses, noise 10.0 px: rotation max ")
    assert out.endswith("; 11 degenerate observations\n")


def test_posecheck_with_no_estimate_prints_only_the_count(capsys):
    assert run_cli("posecheck", "--poses", "2", "--noise-px", "1000", "--seed", "0") == 0
    assert capsys.readouterr().out == "2 poses, noise 1000.0 px; 2 degenerate observations\n"


def test_codec_check_reports_exact_count(capsys):
    assert run_cli("codec-check") == 0
    assert "154,368 frames OK" in capsys.readouterr().out


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as e:
        run_cli("--help")
    assert e.value.code == 0


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as e:
        run_cli("simulate", "--frobnicate")
    assert e.value.code == 2
    assert capsys.readouterr().err


def test_trial_shorter_than_a_tick_exits_2(tmp_path, capsys):
    rc = run_cli("--set", "sim.tick_ms=5000", "simulate", "--trials", "1",
                 "--duration", "2", "--out", tmp_path / "x")
    assert rc == 2
    assert "at least one tick" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("override, message", [
    # a 0 s frame interval: the capture clock never passed a tick
    ("latency.capture_ms=5e-324", "latency.capture_ms must be at least one tick (10.0 ms)"),
    # inf ticks: int(round(inf)) raised OverflowError
    ("sim.tick_ms=5e-324", "sim.tick_ms must leave at most 10,000,000 ticks"),
])
def test_trial_the_loop_cannot_run_exits_2(tmp_path, capsys, override, message):
    with mock.patch.object(sim, "run_trial", side_effect=AssertionError("trial started")):
        rc = run_cli("--set", override, "simulate", "--trials", "1", "--duration", "1",
                     "--out", tmp_path / "x")
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"config error: {message}")
    assert not (tmp_path / "x").exists()


def test_duration_flag_shorter_than_a_tick_exits_2(tmp_path, capsys):
    # The loaded config holds a 120 s trial; --duration makes it shorter than a tick.
    rc = run_cli("--set", "sim.tick_ms=5000", "--set", "latency.capture_ms=5000", "simulate",
                 "--trials", "1", "--duration", "2", "--out", tmp_path / "x")
    assert rc == 2
    assert capsys.readouterr().err.startswith(
        "config error: sim.duration_s must be finite and last at least one tick, got 2.0")
    assert not (tmp_path / "x").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_no_extreme_config_value_makes_simulate_hang_or_crash(tmp_path, capsys):
    # Each key at each value: a 1 s run exits 0 or 2 and raises nothing, not
    # even a numpy overflow warning. The trial-shape rules refuse a long trial
    # when the config loads, before --duration shortens it, so no run here is long.
    for key in sorted(flatten(load_config())):
        for value in (0, -1, 1e-12, 0.5, 1e12, 1e308, 5e-324):
            rc = run_cli("--set", f"{key}={value!r}", "simulate", "--trials", "1",
                         "--duration", "1", "--out", tmp_path / f"{key}={value!r}")
            assert rc in (0, 2), (key, value)
            err = capsys.readouterr().err
            if value == 1e308 and key in ("latency.detect_ms_sd", "perception.weber"):
                assert rc == 2 and err.startswith(f"config error: {key.split('.')[1]}"), key


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_no_extreme_config_value_makes_perceive_crash(capsys):
    # The perception Monte Carlo at each key and value: exit 0 or 2, and no
    # numpy overflow warning, not even where the felt pressure passes the
    # float range (perception.weber=5e307).
    for key in sorted(flatten(load_config())):
        for value in (0, -1, 1e-12, 0.5, 1e12, 1e308, 5e-324, 5e307):
            rc = run_cli("--set", f"{key}={value!r}", "perceive", "--distance", "0.5",
                         "--samples", "1000")
            assert rc in (0, 2), (key, value)
            capsys.readouterr()


def test_bad_config_override_exits_2(tmp_path, capsys):
    rc = run_cli("--set", "nope.key=1", "simulate", "--trials", "1",
                 "--out", tmp_path / "x")
    assert rc == 2


def test_simulate_unwritable_out_exits_3(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("plain file, not a directory")
    rc = run_cli(*FAST_SIM, "simulate", "--trials", "1", "--out",
                 blocker / "nested")
    assert rc == 3
    assert "I/O" in capsys.readouterr().err


def test_config_file_flows_through(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sim": {"duration_s": 10}}))
    out = tmp_path / "runs"
    assert run_cli("--config", cfg, "simulate", "--condition", "v", "--trials", "1",
                   "--seed", "3", "--out", out) == 0
    records, _ = wire.journal_read(out / "trial_v_3.jsonl")
    assert len(records) == 1000  # 10 s at 10 ms ticks


@pytest.mark.parametrize("override", ["latency.actuator_rise_ms=NaN", "jet.v0_mps=NaN",
                                      "sim.reaction_latency_ms=NaN",
                                      "sim.retreat_speed_mps=Infinity"])
def test_non_finite_override_exits_2(tmp_path, capsys, override):
    rc = run_cli("--set", override, "simulate", "--trials", "1", "--out", tmp_path / "x")
    assert rc == 2
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_non_finite_config_file_value_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"latency": {"actuator_rise_ms": NaN}}')
    assert run_cli("--config", cfg, "simulate", "--trials", "1", "--out", tmp_path / "x") == 2
    assert "latency.actuator_rise_ms must be a finite number" in capsys.readouterr().err
