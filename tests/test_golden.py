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
    "manifest.json": "0ea703d276f5aa34d02612152cc28fec230e7de8cd3146d0b6eed56258d757a1",
    "trial_v_11.jsonl": "6d04e6fb03ff3b0bc0211009331e8be0d47feae63635dbeb9fc57b82ca6f4acf",
    "trial_v_12.jsonl": "33f7f810785e649069bd4ceef5891747be42a6a93e2810ec24214ea412164002",
    "trial_v_13.jsonl": "747fe53f8b6e5f3d8cad6aac33b43449ba6344c86bbeee577622427dba5e5f5b",
    "trial_va_11.jsonl": "95df276d52cb260e78154d69fdc571f31262a5f451b42b8bd5f48ea34ee815b2",
    "trial_va_12.jsonl": "26052d1953fe69bd37402c6d284ec82e3a10a0c3e8dafeac1169c80e8d864933",
    "trial_va_13.jsonl": "dfee806941d295514567a7aba64c86e9d778fc0e28443fd2cab86e280ea8a460",
}
# 100 s trials hold 10 000 ticks, so they cross the boundaries of the
# blocks that run_trial simulates, the trace encoder writes and analyze
# reads (sim._BLOCK ticks each).
LONG_TRACE_SHA256 = {
    "manifest.json": "3dec56c199e04c4ea77fe30eff5cf09d7642aac45759837d4fbdd6ead3bb51ec",
    "trial_v_5.jsonl": "dd24bd998ded4dfd99204f916066aebc8e2c235c23a2d010025c37dbe0e3e4c4",
    "trial_va_5.jsonl": "6f2d3f2559c5db9a698746a3da6dd851e20c0782ee0fe8dc7ff7eeb475e1243d",
}
# 130 s trials hold 13 000 ticks, four blocks: more than sim._MEMO_BLOCKS, so
# run_trial and the trace encoder make each block's inputs and text alone,
# keeping none of them for the next trial of the run.
UNSHARED_TRACE_SHA256 = {
    "manifest.json": "96808d4a93029b6fcbd3f263be19bf0bf5045df282f9138eaf2e37b376897d91",
    "trial_v_5.jsonl": "5ca7041838df225e48c5e8e6b5e84d53a244500b65bfcaba652e9c6c4baf978a",
    "trial_va_5.jsonl": "26406a18b6413cfcdb2518562ab88971aee1e6917c5b19a27a4c2d16e2662099",
}
# What the hand did and what the loop decided in the six trials above:
# dist_m, state and the decision log, without the duty column, so a change
# to the actuator model alone leaves them as they are.
TRIAL_SHA256 = {
    "v_11": "46807bbb1565e03a61528b8c370de4eba9ae375b43111712a6a216ab0e1e5143",
    "v_12": "e0505253c8453ec6953b046d6feb9f46b989d1793d333716ef97ba373e929093",
    "v_13": "531853a0bc6eca22cf9fdd663f3b262bb612c0f7e91add0a44be814168400a96",
    "va_11": "0f118a8a54d2b9c5936a3986e0131d79993d3ab66852908c0517b48d7b234fea",
    "va_12": "63cb62d6300a5c54b4fde47fe2e8a8c60630f85b83816e0f90f6e250f3b3bdcd",
    "va_13": "dd645a2502d69c31d364dadbe6bf8a3d7f3fecdb759d5a772897954620c3f641",
}
# The report names the manifest hash of the traces it read
# (traces_config_sha256) next to the hash of the analysing config.
REPORT_SHA256 = "6355283f6290fa2b2897096c8bbced673dc7020dd99c3db497434f08bda4c88c"
POSECHECK_STDOUT_SHA256 = "72132334104304acf8c647fe39d7c069f2befa144da99d4040a137c0de9b66e6"
PERCEIVE_STDOUT_SHA256 = "dfe2ed8b16e872145d38db68966f07adb641406f7a867efce31916ecf9743462"
# One evaluation at the default parameters already converges; the residuals
# print at full precision, so this pins the trial loop and the perception
# Monte Carlo together.
CALIBRATE_STDOUT_SHA256 = "d01e8595a87fb2380d8e2db8f6673607c14c71807cc494724ee6020a7d833213"
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
     "fb04044b35df58925e51d98654bc54d89b37f273f486d021e93a4e5232abdb26"),
    (NEAR_TARGETS, 14, NEAR_SEARCH,
     "c51ad8fac75be4533a86bb3c8e963f6f0d83c40ab69e4fc5db68413ae59809a0"),
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


def test_trials_beyond_the_memo_bound_are_byte_identical(tmp_path, capsys):
    traces = tmp_path / "traces"
    assert sim.trial_ticks(130.0, 10.0, 100.0, 33.3) > sim._MEMO_BLOCKS * sim._BLOCK
    assert main(["simulate", "--trials", "1", "--seed", "5", "--duration", "130",
                 "--out", str(traces)]) == 0
    capsys.readouterr()
    assert ({p.name: sha256(p.read_bytes()) for p in sorted(traces.iterdir())}
            == UNSHARED_TRACE_SHA256)


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


@pytest.mark.parametrize("targets, budget, search, digest", CALIBRATE_SEARCH_CASES,
                         ids=["converges", "cut-by-budget", "gives-up"])
def test_calibrate_search_is_byte_identical(targets, budget, search, digest):
    try:
        r = sim.calibrate(targets, budget, RunConfig(), **search)
        text = repr((r.residuals, r.evaluations, r.human, r.perception))
    except sim.CalibrationFailed as exc:
        text = str(exc)
    assert sha256(text.encode()) == digest
