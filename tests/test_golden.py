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
    "manifest.json": "ad28b9110d3b2cb382759a0c53a93388296614035ce5cbb549e691953e3edf68",
    "trial_v_11.jsonl": "998816e838ddab643ab7ae4ec235f8263b75ee1330e327fcc158a75f62fd5152",
    "trial_v_12.jsonl": "d92e23fc0958645ca1325debc9a6d441bfdcdb782914a795b8f9547c490c955f",
    "trial_v_13.jsonl": "95bfebc86a37142f5dbdadcc4e226f8aa1fb66188182463c620dfb427e93a15e",
    "trial_va_11.jsonl": "33fe9e9de8916ed6a7a7f80c1eb4c535ac75192ca373a01887cb2be8b9ab9c4a",
    "trial_va_12.jsonl": "ecff1c8cf21a8e6f9a6d5146b05436a23a2b84f1c1b83fc844c466ad3e3a591c",
    "trial_va_13.jsonl": "b60e235def52b8276206c52345c29885d6313412b4c56c4d38977c0e5d7dbda9",
}
# 100 s trials hold 10 000 ticks, so they cross the boundaries of the
# blocks that run_trial simulates, the trace encoder writes and analyze
# reads (sim._BLOCK ticks each).
LONG_TRACE_SHA256 = {
    "manifest.json": "cd0c81b4bbcb618f093ffb7aa8c6b3a761a8b6119fc912b45e13cdb4ec592414",
    "trial_v_5.jsonl": "96e3478557f81bd72e096a2f4931558440d951bebbfeacda47a2038417b8c3ec",
    "trial_va_5.jsonl": "375cd4c7216f8e39ebbad54dc51654d9f5bc2a333185e2f4d83e9d27eb9d6f5c",
}
# What the hand did and what the loop decided in the six trials above:
# dist_m, state and the decision log, without the duty column, so a change
# to the actuator model alone leaves them as they are.
TRIAL_SHA256 = {
    "v_11": "212a068b9afc003507650990b29f32dc99cddba1b92238c2ae13f7e90767c27a",
    "v_12": "f43036a3d4c97579cd01f958e9698ffd28d0698b8a73e14a47faf6aa2bc368bd",
    "v_13": "6e210de91ac0aa21b1094436f6b2108980e8ed6767a0f6bb2931295f62c59f37",
    "va_11": "9264a3116f7bd60ecc69d0fcfc11b31750d27d6d2e18d88fa51a23ad628dd980",
    "va_12": "33ef60d84428f4a3652d2359c11c94c21264e64d369b1751cc23130ebbba38f6",
    "va_13": "fb027374b15d2022a3c588ea6f0de9faed2c354c336053468ce02cd64d0c654a",
}
# The report names the manifest hash of the traces it read
# (traces_config_sha256) next to the hash of the analysing config.
REPORT_SHA256 = "e714caca9eef611397e988d81a0051822f0477af2b9155f0df2047da903cdc37"
POSECHECK_STDOUT_SHA256 = "72132334104304acf8c647fe39d7c069f2befa144da99d4040a137c0de9b66e6"
PERCEIVE_STDOUT_SHA256 = "dfe2ed8b16e872145d38db68966f07adb641406f7a867efce31916ecf9743462"
# One evaluation at the default parameters already converges; the residuals
# print at full precision, so this pins the trial loop and the perception
# Monte Carlo together.
CALIBRATE_STDOUT_SHA256 = "5ba22da7fb1d9218b24ae775feaedce2acc293d5fe2f80f32fec4bf270b8b9bd"
# The coordinate-descent search itself, through sim.calibrate: a fit that
# converges after 34 evaluations, the same search cut at 14 by its budget,
# and one that gives up after 49 of 400 evaluations when six passes bring
# no improvement. Each digest covers the repr of (residuals, evaluations,
# human, perception), or the failure message.
NEAR_TARGETS = sim.CalibrationTargets(v_mean=0.33, va_mean=0.34, err_near=0.05,
                                      tol_mean=0.01)
NEAR_SEARCH = dict(trials_per_eval=4, trial_duration_s=20, mc_samples=2000, seed=4)
CALIBRATE_SEARCH_CASES = [
    (NEAR_TARGETS, 40, NEAR_SEARCH,
     "c8bebf390496b8d662abfcc55d07f6cc4b5f4279437f33c6fd6376a2aba70946"),
    (NEAR_TARGETS, 14, NEAR_SEARCH,
     "f6e4b3b4fee58825957b32dd3d41c72d1e323516118276cd88fd827a38dfc8f5"),
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
