"""Golden outputs: the exact bytes of small simulate/analyze/posecheck/
perceive/calibrate runs.

A refactor or speedup must leave every trace, manifest, report and stdout
byte as it was; these digests pin them. They were recorded with Python 3.11
and numpy 2.4 on x86-64. A change that alters them on purpose changes
behaviour and must say so.
"""

import hashlib

import pytest

from airshield import sim
from airshield.cli import main
from airshield.config import RunConfig

# The manifest's config_sha256 covers the --duration 30 of the run below; it
# also pins each trace's sha256 and below-HAD mean, and the HAD of those means.
TRACE_SHA256 = {
    "manifest.json": "6f4816e2d9d41ff9b7190d647ab9b3b842d4e811402cf39276d8ff2a75abbe52",
    "trial_v_11.jsonl": "2f3ac6a85de2413d2c7ebbfa5688a2bcac093f34c692629fc748dea38eb581b3",
    "trial_v_12.jsonl": "24eb36c621517e4c8ff337e3e9c6623dfb0c5790c76ee2261e2f0bf710f74f6b",
    "trial_v_13.jsonl": "53b92d033e6e2d49e409a5012a5b666c98afb258b64fc8a468885bad13bd0ddf",
    "trial_va_11.jsonl": "fbd4ab15432243407cb5f96573b14c2ac8323273cac1def39f6513f2767167f0",
    "trial_va_12.jsonl": "bff36422d2a734b929f49c0e91b10551fd4628f13fcefef90fd2ba52ad8b3c12",
    "trial_va_13.jsonl": "ce2cc4338cd208386752d67be4b8a81e68757e84e665ea7b521076d6e56525e3",
}
# 100 s trials hold 10 000 ticks, so they cross the boundaries of the
# blocks that run_trial simulates, the trace encoder writes and analyze
# reads (sim._BLOCK ticks each).
LONG_TRACE_SHA256 = {
    "manifest.json": "7bd14fa121c4efdb0dc49ee9273add7d1016a8ec2f24cb4df920dab7ce433eb4",
    "trial_v_5.jsonl": "b32f69f56804d3637724f292143766774e16b237c17f664b872e62ab4cb8da68",
    "trial_va_5.jsonl": "8e7838091fb384b390d3d32d58a927c609709755de3fe2c013052188ddca503b",
}
# What the hand did and what the loop decided in the six trials above:
# dist_m, state and the decision log, without the duty column, so a change
# to the actuator model alone leaves them as they are.
TRIAL_SHA256 = {
    "v_11": "e03dc1621bb692550df493d11d5e0a03b2920b3868bd599d8fb59f0be5decd9b",
    "v_12": "d694f2504dcd2241d5c5d151fa55f5a6eb159a20ce352561f5d03c9b4dda13be",
    "v_13": "eb1052bcfc74d123f35cf1d84e0a394a6b7395551f86221fbca0ba031293cd05",
    "va_11": "d08b29c40ef829f512ab8f7b8b44f24b9da0450a6eb5a1154a125155a2283b96",
    "va_12": "b867f194c7e5e162ff6a2d786343d83e4df5f114d2ad4a672965e613e75f4572",
    "va_13": "4824e1aa3ff4532ccc335f99493c4bc20e9ea3a10f23f327b8c2dc46022b72e5",
}
# The report names the manifest hash of the traces it read
# (traces_config_sha256) next to the hash of the analysing config.
REPORT_SHA256 = "34750b4f9b6367892dd7442325be1a645b9e2124948440bb28e2d8ffe1746c04"
POSECHECK_STDOUT_SHA256 = "72132334104304acf8c647fe39d7c069f2befa144da99d4040a137c0de9b66e6"
PERCEIVE_STDOUT_SHA256 = "dfe2ed8b16e872145d38db68966f07adb641406f7a867efce31916ecf9743462"
# One evaluation at the default parameters already converges; the residuals
# print at full precision, so this pins the trial loop and the perception
# Monte Carlo together.
CALIBRATE_STDOUT_SHA256 = "7c4bccda604eff99ff48748b16d7e3c949ef380ca4249bec5dfbb7514b2643c4"
# The coordinate-descent search itself, through sim.calibrate: a fit that
# converges after 32 evaluations, the same search cut at 14 by its budget,
# and one that gives up after 49 of 400 evaluations when six passes bring
# no improvement. Each digest covers the repr of (residuals, evaluations,
# human, perception), or the failure message.
NEAR_TARGETS = sim.CalibrationTargets(v_mean=0.33, va_mean=0.34, err_near=0.05,
                                      tol_mean=0.01)
NEAR_SEARCH = dict(trials_per_eval=4, trial_duration_s=20, mc_samples=2000, seed=0)
CALIBRATE_SEARCH_CASES = [
    (NEAR_TARGETS, 40, NEAR_SEARCH,
     "9e634671a9f5c573e75ffe8cc9ca21424542f008bb3c7cc4e71dd6ff32869bb8"),
    (NEAR_TARGETS, 14, NEAR_SEARCH,
     "32ee0116927bfb1ad369dbd05091d6e0eb5a97a399f9278c80213e5ec8d8adc5"),
    (sim.CalibrationTargets(tol_mean=0.0), 400,
     dict(trials_per_eval=2, trial_duration_s=10, mc_samples=500, seed=1),
     "d9df06b8e9691220744685e70f93cd3c0e3dadef2ce44557f2a87b3e73cb8196"),
]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_simulate_and_analyze_outputs_are_byte_identical(tmp_path, capsys):
    traces, report = tmp_path / "traces", tmp_path / "report.json"
    assert main(["simulate", "--trials", "3", "--seed", "11", "--duration", "30",
                 "--out", str(traces)]) == 0
    assert main(["analyze", "--in", str(traces), "--report", str(report)]) == 0
    capsys.readouterr()
    assert {p.name: sha256(p.read_bytes()) for p in sorted(traces.iterdir())} == TRACE_SHA256
    assert sha256(report.read_bytes()) == REPORT_SHA256


def test_trials_longer_than_one_block_are_byte_identical(tmp_path, capsys):
    traces = tmp_path / "traces"
    assert main(["simulate", "--trials", "1", "--seed", "5", "--duration", "100",
                 "--out", str(traces)]) == 0
    capsys.readouterr()
    assert {p.name: sha256(p.read_bytes()) for p in sorted(traces.iterdir())} == LONG_TRACE_SHA256


def test_distance_state_and_decisions_are_bit_identical():
    got = {}
    for cond, seed, t in sim.run_trials(RunConfig(duration_s=30.0), sim.CONDITIONS, [11, 12, 13]):
        got[f"{cond}_{seed}"] = sha256(t.dist_m.tobytes() + t.state.tobytes()
                                       + repr(t.decisions).encode())
    assert got == TRIAL_SHA256


def test_posecheck_stdout_is_byte_identical(capsys):
    assert main(["posecheck", "--poses", "200", "--noise-px", "0.5", "--seed", "3"]) == 0
    assert sha256(capsys.readouterr().out.encode()) == POSECHECK_STDOUT_SHA256


def test_perceive_stdout_is_byte_identical(capsys):
    assert main(["perceive", "--distance", "0.25", "--samples", "10000", "--seed", "1"]) == 0
    assert sha256(capsys.readouterr().out.encode()) == PERCEIVE_STDOUT_SHA256


def test_calibrate_stdout_is_byte_identical(capsys):
    assert main(["calibrate", "--budget", "1", "--seed", "7"]) == 0
    assert sha256(capsys.readouterr().out.encode()) == CALIBRATE_STDOUT_SHA256


@pytest.mark.parametrize("override", ["sim.tick_ms=20", "sim.duty_pct=20",
                                      "sim.duration_s=30"])
def test_calibrate_stdout_follows_the_configured_loop(capsys, override):
    # calibrate fits the loop the config describes, so a different tick,
    # duty or trial length gives a different fit: here, a failed one for
    # the coarser tick and for the shorter trials.
    main(["--set", override, "calibrate", "--budget", "1", "--seed", "7"])
    assert sha256(capsys.readouterr().out.encode()) != CALIBRATE_STDOUT_SHA256


@pytest.mark.parametrize("targets, budget, search, digest", CALIBRATE_SEARCH_CASES)
def test_calibrate_search_is_byte_identical(targets, budget, search, digest):
    try:
        r = sim.calibrate(targets, budget, RunConfig(), **search)
        text = repr((r.residuals, r.evaluations, r.human, r.perception))
    except sim.CalibrationFailed as exc:
        text = str(exc)
    assert sha256(text.encode()) == digest
