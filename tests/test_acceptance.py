"""Acceptance suite: the eight release criteria, one pass/fail line each.

The criterion lines print uncaptured, so a plain `pytest -v` shows them.
Every tolerance is pinned here; nothing is deferred to later calibration.
"""

import math
import time

import numpy as np
from scipy.integrate import quad

from airshield import airflow, geometry as g, pipeline as pl, sim, stats, wire
from airshield.airflow import JetModel, PerceptionModel
from airshield.cli import main
from airshield.safety import SafetyState, SafetyZoneConfig, classify, step
from airshield.geometry import random_facing_pose
from airshield.pipeline import StageLatencyModel


def check(capsys, criterion: int, description: str, ok: bool) -> None:
    with capsys.disabled():
        print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {criterion} failed: {description}"


# --- 1. pose round-trip ------------------------------------------------------

def test_criterion_1_pose_round_trip(capsys):
    cam = g.CameraIntrinsics()
    tag = g.MarkerSpec(side_len=0.10)
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()

    worst_rot, worst_trans = 0.0, 0.0
    for _ in range(1000):
        pose = random_facing_pose(rng, z_range=(0.3, 2.0))
        est = g.estimate_pose(g.project(pose, tag, cam), tag, cam)
        worst_rot = max(worst_rot, g.rotation_geodesic_rad(est.rotation, pose.rotation))
        worst_trans = max(worst_trans, float(np.linalg.norm(est.translation - pose.translation)))

    # Noise capability check at 1 m depth with a clothing-patch-scale tag
    # (0.15 m); smaller tags cannot reach 5 mm at this focal length, see docs.
    patch = g.MarkerSpec(side_len=0.15)
    errs = []
    for _ in range(1000):
        pose = random_facing_pose(rng, z_range=(1.0, 1.0))
        obs = g.observe(pose, patch, cam, noise_px=0.5, rng=rng)
        est = g.estimate_pose(obs, patch, cam)
        errs.append(float(np.linalg.norm(est.translation - pose.translation)))
    med = float(np.median(errs))
    elapsed = time.perf_counter() - t0

    check(capsys, 1, f"round-trip rot {worst_rot:.2e} rad / trans {worst_trans:.2e} m (<=1e-6); "
             f"0.5 px noise median {med * 1000:.2f} mm (<=5); {elapsed:.1f}s (<=10)",
          worst_rot <= 1e-6 and worst_trans <= 1e-6 and med <= 0.005 and elapsed <= 10.0)


# --- 2. safety state machine -------------------------------------------------

def test_criterion_2_safety_state_machine(capsys):
    zone = SafetyZoneConfig()
    table_ok = True
    for i in range(0, 1001):
        d = i / 1000.0
        expect = (SafetyState.DANGER if d <= 0.25
                  else SafetyState.ACTIVE if d <= 0.35 else SafetyState.SAFE)
        if classify(d, zone) is not expect:
            table_ok = False
            break

    h = zone.hysteresis
    lo, hi = zone.had - h / 2 + 1e-9, zone.had + h / 2 - 1e-9
    state = SafetyState.SAFE
    transitions_after_first = -1
    for i in range(1000):
        nxt = step(state, lo if i % 2 == 0 else hi, zone).state
        if nxt is not state:
            transitions_after_first += 1
        state = nxt
    check(capsys, 2, f"classify table over d in 0..1.000 ({'ok' if table_ok else 'WRONG'}); "
             f"oscillation in hysteresis band: {transitions_after_first} transitions "
             f"after the first (<=1)",
          table_ok and 0 <= transitions_after_first <= 1)


# --- 3. statistics kernel ----------------------------------------------------

def test_criterion_3_statistics_kernel(capsys):
    t_res = stats.paired_t([1, 2, 3, 4], [2, 2, 5, 3])
    t_ok = abs(t_res.statistic - (-0.774597)) <= 1e-6 and t_res.df == 3

    w_linear = stats.shapiro_wilk([1.0, 2.0, 3.0]).statistic
    w_skew = stats.shapiro_wilk([1.0, 2.0, 10.0]).statistic
    w_ok = abs(w_linear - 1.0) <= 1e-6 and abs(w_skew - 0.8322) <= 1e-3

    def t_density(t, df):
        return math.exp(math.lgamma((df + 1) / 2) - math.lgamma(df / 2)) \
            / math.sqrt(df * math.pi) * (1 + t * t / df) ** (-(df + 1) / 2)

    p_worst = 0.0
    for df in (3, 9, 30):
        for t in np.linspace(0.1, 10.0, 21):
            tail, _ = quad(t_density, float(t), np.inf, args=(df,),
                           epsabs=1e-12, epsrel=1e-12)
            p_worst = max(p_worst, abs(stats.t_two_sided_p(float(t), df) - 2 * tail))

    rejections = sum(
        stats.shapiro_wilk(np.random.default_rng(s).standard_normal(10)).p_value < 0.05
        for s in range(1000))
    rate = rejections / 1000.0

    check(capsys, 3, f"paired T {t_res.statistic:.6f} (df 3); W lin {w_linear:.6f} / skew {w_skew:.4f}; "
             f"p vs quadrature worst {p_worst:.2e} (<=1e-6); "
             f"false-rejection {rate:.1%} (5% +/- 2%)",
          t_ok and w_ok and p_worst <= 1e-6 and 0.03 <= rate <= 0.07)


# --- 4. perception experiment reproduction -----------------------------------

def test_criterion_4_perception_experiment(capsys):
    t0 = time.perf_counter()
    jet = JetModel()
    pm = PerceptionModel()
    e25 = float(np.mean(np.abs(airflow.perception_errors(pm, jet, 100.0, 0.25, 10_000, 1))))
    e35 = float(np.mean(np.abs(airflow.perception_errors(pm, jet, 100.0, 0.35, 10_000, 1))))
    rc25 = main(["perceive", "--distance", "0.25", "--samples", "10000", "--seed", "1"])
    rc35 = main(["perceive", "--distance", "0.35", "--samples", "10000", "--seed", "1"])
    capsys.readouterr()
    elapsed = time.perf_counter() - t0

    check(capsys, 4, f"mean |error| at 0.25 m: {e25:.4f} (0.035 +/- 0.005, fitted); "
                 f"at 0.35 m: {e35:.4f} (0.051 +/- 0.010, predicted); "
                 f"cli exits {rc25}/{rc35}; {elapsed:.1f}s (<=5)",
              abs(e25 - 0.035) <= 0.005 and abs(e35 - 0.051) <= 0.010
              and rc25 == 0 and rc35 == 0 and elapsed <= 5.0)


# --- 5. interaction experiment reproduction ----------------------------------

def test_criterion_5_interaction_experiment(capsys):
    t0 = time.perf_counter()
    zone = SafetyZoneConfig()
    jet, pm, lat = JetModel(), PerceptionModel(), StageLatencyModel()
    human, traj = sim.HumanModel(), sim.default_trajectory()
    v_means, va_means = [], []
    for seed in range(100):
        pair = {}
        for cond in sim.CONDITIONS:
            trace = sim.run_trial(cond, human, traj, zone, jet, pm, lat, 120.0, seed)
            pair[cond] = sim.below_had_mean(trace.dist_m, zone.had)
        if pair["v"] is not None and pair["va"] is not None:
            v_means.append(pair["v"])
            va_means.append(pair["va"])
    v_bar = float(np.mean(v_means))
    va_bar = float(np.mean(va_means))
    t_res = stats.paired_t(v_means, va_means)
    elapsed = time.perf_counter() - t0

    check(capsys, 5, f"{len(v_means)} matched pairs: V {v_bar:.4f} (0.307 +/- 0.015), "
             f"VA {va_bar:.4f} (0.326 +/- 0.015); VA-V {va_bar - v_bar:+.4f} > 0; "
             f"paired T {t_res.statistic:.2f}, p {t_res.p_value:.2e} (<0.01); "
             f"{elapsed:.1f}s (<=60)",
          len(v_means) >= 100 and abs(v_bar - 0.307) <= 0.015
          and abs(va_bar - 0.326) <= 0.015 and va_bar > v_bar
          and t_res.p_value < 0.01 and t_res.statistic < 0 and elapsed <= 60.0)


# --- 6. latency budget --------------------------------------------------------

def test_criterion_6_latency_budget(capsys):
    summary = pl.end_to_end_latency(StageLatencyModel(), 10_000, seed=2)
    zone = SafetyZoneConfig()
    n = 100_000
    state = SafetyState.SAFE
    t0 = time.perf_counter()
    for i in range(n):
        state = step(state, 0.2 + (i % 40) * 0.005, zone).state
    rate = n / (time.perf_counter() - t0)
    check(capsys, 6, f"detect+decide+transmit p95 {summary.p95_ms:.2f} ms (<=38.5); "
             f"decide stage {rate:,.0f} updates/s (>=10,000)",
          summary.p95_ms <= 38.5 and rate >= 10_000)


# --- 7. wire codec -------------------------------------------------------------

def test_criterion_7_wire_codec(tmp_path, capsys):
    count = 0
    sweep_ok = True
    for opcode in wire.Opcode:
        for payload in range(wire.MAX_PAYLOAD + 1):
            for seq in range(256):
                f = wire.CommandFrame(seq=seq, opcode=opcode, payload=payload)
                if wire.decode(wire.encode(f)) != f:
                    sweep_ok = False
                count += 1

    rng = np.random.default_rng(77)
    corrupt_ok = True
    for _ in range(1000):
        f = wire.CommandFrame(seq=int(rng.integers(256)),
                              opcode=list(wire.Opcode)[int(rng.integers(3))],
                              payload=int(rng.integers(201)))
        data = bytearray(wire.encode(f))
        byte_idx = int(rng.integers(1, 4))
        bit = int(rng.integers(8))
        data[byte_idx] ^= 1 << bit
        try:
            wire.decode(bytes(data))
            corrupt_ok = False
        except (wire.BadChecksum, wire.UnknownOpcode, wire.PayloadOutOfRange):
            pass

    path = tmp_path / "journal.jsonl"
    records = [{"t_ms": int(i), "dist_m": float(rng.random()), "state": "SAFE",
                "duty_pct": float(rng.integers(0, 201)) / 2.0, "seq": int(i % 256)}
               for i in range(10_000)]
    wire.journal_append(path, records)
    got, truncated = wire.journal_read(path)
    journal_ok = got == records and not truncated
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"t_ms": 999999, "dist')
    got2, truncated2 = wire.journal_read(path)
    recovery_ok = got2 == records and truncated2

    check(capsys, 7, f"exhaustive sweep {count:,} frames ({'ok' if sweep_ok else 'FAIL'}); "
             f"1000 single-bit corruptions rejected ({'ok' if corrupt_ok else 'FAIL'}); "
             f"10,000-record journal round-trip + truncated-tail recovery "
             f"({'ok' if journal_ok and recovery_ok else 'FAIL'})",
          sweep_ok and count == 154_368 and corrupt_ok and journal_ok and recovery_ok)


# --- 8. end-to-end determinism --------------------------------------------------

def test_criterion_8_cli_determinism(tmp_path, capsys):
    args = ["simulate", "--condition", "both", "--trials", "10", "--seed", "42"]
    dirs = (tmp_path / "run1", tmp_path / "run2")
    for out in dirs:
        assert main(args + ["--out", str(out)]) == 0
    capsys.readouterr()
    trees = []
    for out in dirs:
        trees.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    identical = trees[0] == trees[1]
    n_files = len(trees[0])
    check(capsys, 8, f"two runs of simulate --condition both --trials 10 --seed 42: "
                 f"{n_files} files byte-identical ({'yes' if identical else 'NO'})",
              identical and n_files == 21)
