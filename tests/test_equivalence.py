"""What ``simulate`` writes, against trials run and encoded one at a time.

``simulate`` runs each seed's conditions back to back on one run memo, and
a seed's second trial takes what its first one made. Each trace file it
writes must still be byte for byte the file of the trial run cold: alone,
with ``sim._run_memo`` cleared, and encoded before the next trial starts.
"""

import json
from dataclasses import replace

import pytest

from airshield import sim, wire
from airshield.cli import main
from airshield.config import load_config

SEEDS = (5, 6)


@pytest.mark.parametrize("override, duration_s", [
    (None, 20.0),
    ("latency.detect_ms_mean=45", 40.0),
    ("latency.detect_ms_mean=80", 60.0),
    ("latency.detect_ms_sd=15", 20.0),
    ("latency.capture_ms=10", 40.0),
    ("sim.tick_ms=20", 60.0),
    ("sim.duty_pct=0", 20.0),
    # most spans run through a candidate into a reach, on candidates the pair passes on
    ("sim.excursion_rate_hz=2", 40.0),
])
def test_simulate_writes_the_files_of_cold_trials(tmp_path, capsys, override, duration_s):
    overrides = [] if override is None else ["--set", override]
    cfg = replace(load_config(overrides=overrides[1:]), duration_s=duration_s)
    want = {}
    for cond in sim.CONDITIONS:
        for seed in SEEDS:
            sim._run_memo.clear()
            trace = next(sim.run_trials(cfg, [cond], [seed]))[2]
            want[wire.trace_filename(cond, seed)] = "".join(trace.jsonl()).encode()
    sim._run_memo.clear()
    out = tmp_path / "runs"
    argv = ["simulate", "--condition", "both", "--trials", str(len(SEEDS)), "--seed",
            str(SEEDS[0]), "--duration", f"{duration_s:g}", "--out", str(out)]
    assert main(overrides + argv) == 0
    capsys.readouterr()
    got = {p.name: p.read_bytes() for p in sorted(out.glob("trial_*.jsonl"))}
    assert got.keys() == want.keys()
    for name in want:
        assert got[name] == want[name], name
    manifest = json.loads((out / "manifest.json").read_text())
    assert [t["file"] for t in manifest["trials"]] == list(want)
