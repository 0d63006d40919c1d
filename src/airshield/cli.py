"""Command-line front end.

Subcommands: simulate (seeded trial traces), analyze (statistics over a
trace directory), perceive (airflow distance-perception Monte Carlo),
calibrate (fit free model parameters to targets), posecheck (pose
round-trip accuracy), codec-check (exhaustive wire-frame sweep).

Exit codes, all set in ``main``: 0 success, 2 usage/config error, 3 I/O
error, 4 calibration failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
from collections import defaultdict
from collections.abc import Iterable, Iterator
from pathlib import Path

import numpy as np

from . import airflow, geometry, sim, wire
from .config import ConfigError, RunConfig, config_hash, finite_number, load_config
from .sim import CalibrationFailed, CalibrationTargets

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_ANALYSIS = 4

_HASH_CHUNK = 1 << 18  # bytes of a file hashed per read


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="airshield",
        description="Airflow safety barrier simulation and analysis toolkit",
    )
    parser.add_argument("--config", metavar="PATH", default=None,
                        help="JSON config file")
    parser.add_argument("--set", metavar="KEY=VALUE", action="append", default=[],
                        dest="overrides", help="dotted-key config override, repeatable")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run seeded interaction trials")
    p.add_argument("--condition", choices=[*sim.CONDITIONS, "both"], default="both")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--duration", type=float, default=None, metavar="SEC")
    p.add_argument("--out", required=True, metavar="DIR")

    p = sub.add_parser("analyze", help="statistics over a trace directory")
    p.add_argument("--in", dest="in_dir", required=True, metavar="DIR")
    p.add_argument("--report", required=True, metavar="PATH")

    p = sub.add_parser("perceive", help="distance-perception error Monte Carlo")
    p.add_argument("--distance", type=float, required=True, metavar="M")
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("calibrate", help="fit model parameters to targets")
    p.add_argument("--targets", metavar="PATH", default=None,
                   help="JSON file overriding default calibration targets")
    p.add_argument("--budget", type=int, default=60)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", metavar="PATH", default=None)

    p = sub.add_parser("posecheck", help="marker pose round-trip accuracy")
    p.add_argument("--poses", type=int, default=1000)
    p.add_argument("--noise-px", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)

    sub.add_parser("codec-check", help="exhaustive command-frame round-trip sweep")
    return parser


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _require(ok: bool, flag: str, rule: str, value: object) -> None:
    if not ok:
        raise ConfigError(f"{flag} must be {rule}, got {value}")


def cmd_simulate(cfg: RunConfig, args: argparse.Namespace) -> int:
    _require(args.trials >= 1, "--trials", ">= 1", args.trials)
    _require(args.seed >= 0, "--seed", ">= 0", args.seed)
    # A trace line's seed has at most 19 digits, as ``sim.read_trace_dist`` reads it.
    _require(args.seed + args.trials <= 10**19, "--seed",
             f"at most {10**19 - args.trials} with --trials {args.trials}", args.seed)
    duration = args.duration if args.duration is not None else cfg.duration_s
    _require(math.isfinite(duration) and duration > 0.0, "--duration",
             "positive and finite", duration)
    cfg = dataclasses.replace(cfg, duration_s=duration)
    conditions = sim.CONDITIONS if args.condition == "both" else (args.condition,)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    had = cfg.safety.had
    # The trials run seed by seed, and the manifest lists them condition by condition.
    entries: dict[str, list] = {cond: [] for cond in conditions}
    seeds = range(args.seed, args.seed + args.trials)
    for cond, seed, trace in sim.run_trials(cfg, conditions, seeds):
        name = wire.trace_filename(cond, seed)
        path = out_dir / name
        path.unlink(missing_ok=True)
        digest = hashlib.sha256()
        wire.journal_append(path, _hashed(trace.jsonl(), digest))
        entries[cond].append({"file": name, "cond": cond, "seed": seed,
                              "n_samples": len(trace), "sha256": digest.hexdigest(),
                              "below_had_m": sim.below_had_mean(trace.dist_m, had)})
    manifest = {"config_sha256": config_hash(cfg), "had_m": had,
                "trials": [entry for cond in conditions for entry in entries[cond]]}
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(manifest['trials'])} trace files to {out_dir}")
    return EXIT_OK


def _hashed(blocks: Iterable[str], digest: hashlib._Hash) -> Iterator[str]:
    """``blocks`` as they are, each fed to ``digest`` as the bytes it is
    written as: trace blocks are ASCII."""
    for block in blocks:
        digest.update(block.encode())
        yield block


def _read_manifest(in_dir: Path) -> dict:
    """The directory's ``manifest.json``; empty without a readable object."""
    try:
        manifest = json.loads((in_dir / "manifest.json").read_bytes())
    except (OSError, ValueError):
        return {}
    return manifest if isinstance(manifest, dict) else {}


_HEX = frozenset("0123456789abcdef")


def _usable_entry(t: object) -> bool:
    """Whether a manifest entry has the shape ``simulate`` writes."""
    if not isinstance(t, dict):
        return False
    cond, seed, digest, mean = (t.get(k) for k in ("cond", "seed", "sha256", "below_had_m"))
    return (cond in sim.CONDITIONS and isinstance(seed, int) and not isinstance(seed, bool)
            and t.get("file") == wire.trace_filename(cond, seed)
            and isinstance(digest, str) and len(digest) == 64 and set(digest) <= _HEX
            and (mean is None or isinstance(mean, float) and math.isfinite(mean)))


def _file_sha256(path: Path) -> str:
    """SHA-256 of a file, read ``_HASH_CHUNK`` bytes at a time."""
    digest = hashlib.sha256()
    with path.open("rb") as stream:
        while chunk := stream.read(_HASH_CHUNK):
            digest.update(chunk)
    return digest.hexdigest()


def cmd_analyze(cfg: RunConfig, args: argparse.Namespace) -> int:
    in_dir = Path(args.in_dir)
    files = sorted(in_dir.glob("trial_*.jsonl"))
    if not files:
        raise ConfigError(f"no trace files found in {in_dir}")
    manifest = _read_manifest(in_dir)
    listed, traces_had = manifest.get("trials"), manifest.get("had_m")
    listed = listed if isinstance(listed, list) else []
    traces_had = traces_had if isinstance(traces_had, float) else None
    # The entries of the shape ``simulate`` writes, by file name, whose stored
    # below-HAD mean may stand in for a parse: none unless taken at this run's HAD.
    stored = ({t["file"]: t for t in listed if _usable_entry(t)}
              if traces_had == cfg.safety.had else {})
    per_seed: dict[int, dict[str, float | None]] = defaultdict(dict)
    warnings: list[str] = []
    for path in files:
        entry = stored.get(path.name)
        if entry is not None and _file_sha256(path) == entry["sha256"]:
            cond, seed, mean = entry["cond"], entry["seed"], entry["below_had_m"]
        else:
            if entry is not None:
                warnings.append(f"{path.name}: does not match manifest.json")
            try:
                with path.open("rb") as stream:
                    cond, seed, dist_m, truncated = sim.read_trace_dist(stream)
            except ValueError as exc:
                warnings.append(f"{path.name}: unreadable trace skipped ({exc})")
                continue
            if truncated:
                warnings.append(f"{path.name}: truncated trailing line ignored")
            mean = sim.below_had_mean(dist_m, cfg.safety.had)
        if cond is None:
            warnings.append(f"{path.name}: empty trace skipped")
        elif cond in per_seed[seed]:
            warnings.append(f"{path.name}: another trace of {cond} seed {seed} "
                            "was already read, skipped")
        else:
            per_seed[seed][cond] = mean
    names = {t["file"] for t in listed
             if isinstance(t, dict) and isinstance(t.get("file"), str)}
    unlisted = sum(path.name not in names for path in files)
    if listed and unlisted:
        warnings.append(f"{unlisted} trace file(s) not listed in manifest.json")
    # The means are taken below this run's HAD all the same.
    had_note = (f"manifest.json: traces simulated at had_m {traces_had}, "
                f"analyzed at had_m {cfg.safety.had}"
                if traces_had is not None and traces_had != cfg.safety.had else None)
    if had_note:
        warnings.append(had_note)
    v_means, va_means, pair_warnings = sim.matched_means(per_seed)
    warnings.extend(pair_warnings)
    if len(v_means) < 2:
        raise ConfigError("need at least 2 matched-seed trial pairs to analyze"
                          + (f" ({had_note})" if had_note else ""))
    report = sim.analyze_pairs(v_means, va_means)
    report["warnings"].extend(warnings)
    report["config_sha256"] = config_hash(cfg)
    traces_hash = manifest.get("config_sha256")
    report["traces_config_sha256"] = traces_hash if isinstance(traces_hash, str) else None
    Path(args.report).write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    t_test = report["paired_t"]
    t_txt = ("t=%.4f p=%.4g" % (t_test["statistic"], t_test["p_value"])
             if t_test else "t-test unavailable")
    print(f"{report['n_pairs']} pairs: V {report['v']['mean']:.4f} m, "
          f"VA {report['va']['mean']:.4f} m, {t_txt}")
    return EXIT_OK


def cmd_perceive(cfg: RunConfig, args: argparse.Namespace) -> int:
    _require(args.samples >= 2, "--samples", ">= 2", args.samples)
    _require(args.seed >= 0, "--seed", ">= 0", args.seed)
    _require(math.isfinite(args.distance), "--distance", "finite", args.distance)
    errors = airflow.perception_errors(cfg.perception, cfg.jet, cfg.duty_pct,
                                       args.distance, args.samples, args.seed)
    abs_err = np.abs(errors)
    print(f"distance {args.distance:.3f} m, {args.samples} samples: "
          f"mean |error| = {abs_err.mean():.4f} +/- {abs_err.std(ddof=1):.4f} m "
          f"(signed bias {errors.mean():+.4f} m)")
    return EXIT_OK


def cmd_calibrate(cfg: RunConfig, args: argparse.Namespace) -> int:
    _require(args.seed >= 0, "--seed", ">= 0", args.seed)
    target_kv = {}
    if args.targets:
        try:
            target_kv = json.loads(Path(args.targets).read_text(encoding="utf-8"))
        except OSError as exc:
            raise wire.IoFailure(f"cannot read targets file: {exc}") from exc
        except ValueError as exc:  # also undecodable UTF-8 and overlong integers
            raise ConfigError(f"targets file is not valid JSON: {exc}") from exc
        if not isinstance(target_kv, dict):
            raise ConfigError("targets file must hold a JSON object")
        unknown = set(target_kv) - set(CalibrationTargets.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown target keys: {', '.join(sorted(unknown))}")
        target_kv = {k: finite_number(f"targets.{k}", v) for k, v in target_kv.items()}
    try:
        targets = CalibrationTargets(**target_kv)
    except ValueError as exc:
        raise ConfigError(f"targets: {exc}") from exc
    result = sim.calibrate(targets, args.budget, cfg, seed=args.seed,
                           trial_duration_s=cfg.duration_s)
    fitted = {
        "perception.weber": result.perception.weber,
        "sim.attention_p": result.human.attention_p,
        "sim.excursion_rate_hz": result.human.excursion_rate,
        "sim.retreat_speed_mps": result.human.retreat_speed,
    }
    payload = {"fitted": fitted, "residuals": result.residuals,
               "evaluations": result.evaluations}
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    print(text, end="")
    return EXIT_OK


def cmd_posecheck(cfg: RunConfig, args: argparse.Namespace) -> int:
    _require(args.poses >= 1, "--poses", ">= 1", args.poses)
    _require(args.seed >= 0, "--seed", ">= 0", args.seed)
    # A normal draw stays below 13.8 sd, so a finite 16-fold keeps every corner finite.
    _require(args.noise_px >= 0.0 and math.isfinite(16.0 * args.noise_px), "--noise-px",
             ">= 0 and leave 16 * --noise-px finite", args.noise_px)
    rng = np.random.default_rng(args.seed)
    cam = geometry.CameraIntrinsics()
    marker = geometry.MarkerSpec(side_len=0.10)
    rot_errs, trans_errs, degenerate = [], [], 0
    for _ in range(args.poses):
        pose = geometry.random_facing_pose(rng)
        obs = geometry.observe(pose, marker, cam, noise_px=args.noise_px, rng=rng)
        try:
            est = geometry.estimate_pose(obs, marker, cam)
        except geometry.DegenerateObservation:
            degenerate += 1
            continue
        rot_errs.append(geometry.rotation_geodesic_rad(est.rotation, pose.rotation))
        trans_errs.append(float(np.linalg.norm(est.translation - pose.translation)))
    line = f"{args.poses} poses, noise {args.noise_px} px"
    if rot_errs:
        line += (f": rotation max {max(rot_errs):.3e} rad (median {np.median(rot_errs):.3e}), "
                 f"translation max {max(trans_errs):.3e} m (median {np.median(trans_errs):.3e})")
    if degenerate:
        line += f"; {degenerate} degenerate observations"
    print(line)
    return EXIT_OK


def cmd_codec_check(_cfg: RunConfig, _args: argparse.Namespace) -> int:
    count = 0
    for opcode in wire.Opcode:
        for payload in range(wire.MAX_PAYLOAD + 1):
            for seq in range(256):
                frame = wire.CommandFrame(seq=seq, opcode=opcode, payload=payload)
                if wire.decode(encoded := wire.encode(frame)) != frame:
                    print(f"round-trip mismatch for {encoded.hex()}", file=sys.stderr)
                    return 1
                count += 1
    print(f"{count:,} frames OK")
    return EXIT_OK


_COMMANDS = {
    "simulate": cmd_simulate,
    "analyze": cmd_analyze,
    "perceive": cmd_perceive,
    "calibrate": cmd_calibrate,
    "posecheck": cmd_posecheck,
    "codec-check": cmd_codec_check,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, args.overrides)
        return _COMMANDS[args.command](cfg, args)
    except (ConfigError, airflow.InsidePotentialCore, airflow.ImperceptibleFlow) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CalibrationFailed as exc:
        print(f"calibration failed: {exc}", file=sys.stderr)
        return EXIT_ANALYSIS
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
