"""Run configuration: JSON file plus dotted-key command-line overrides.

Keys are grouped by subsystem (safety.*, jet.*, perception.*, latency.*,
sim.*). Unknown keys are rejected so typos cannot silently fall back to
defaults; all subsystem invariants are enforced when the typed objects are
built.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .airflow import JetModel, PerceptionModel
from .pipeline import StageLatencyModel
from .safety import SafetyZoneConfig
from .sim import HumanModel, RobotTrajectory, default_trajectory, trial_ticks

__all__ = ["ConfigError", "RunConfig", "finite_number", "load_config", "flatten",
           "config_hash"]


class ConfigError(ValueError):
    pass


# dotted key -> (RunConfig attribute holding the value, field name); "run"
# names RunConfig's own fields.
_KEY_MAP = {
    "safety.had_m": ("safety", "had"),
    "safety.danger_m": ("safety", "danger"),
    "safety.hysteresis_m": ("safety", "hysteresis"),
    "jet.v0_mps": ("jet", "v0"),
    "jet.duct_d_m": ("jet", "duct_d"),
    "jet.core_k": ("jet", "core_k"),
    "perception.weber": ("perception", "weber"),
    "perception.detect_q_pa": ("perception", "detect_q"),
    "latency.capture_ms": ("latency", "capture_ms"),
    "latency.detect_ms_mean": ("latency", "detect_ms_mean"),
    "latency.detect_ms_sd": ("latency", "detect_ms_sd"),
    "latency.decide_ms": ("latency", "decide_ms"),
    "latency.transmit_ms": ("latency", "transmit_ms"),
    "latency.actuator_rise_ms": ("latency", "actuator_rise_ms"),
    "sim.tick_ms": ("run", "tick_ms"),
    "sim.duration_s": ("run", "duration_s"),
    "sim.duty_pct": ("run", "duty_pct"),
    "sim.excursion_rate_hz": ("human", "excursion_rate"),
    "sim.attention_p": ("human", "attention_p"),
    "sim.reaction_latency_ms": ("human", "reaction_latency_ms"),
    "sim.retreat_speed_mps": ("human", "retreat_speed"),
    "sim.reach_speed_mps": ("human", "reach_speed"),
    "sim.task_speed_mps": ("human", "task_speed"),
    "sim.task_dwell_s": ("human", "task_dwell_s"),
    "sim.grab_dwell_s": ("human", "grab_dwell_s"),
    "sim.notice_delay_max_s": ("human", "notice_delay_max_s"),
    "sim.item_near_m": ("human", "item_near_m"),
    "sim.item_far_m": ("human", "item_far_m"),
}


@dataclass(frozen=True)
class RunConfig:
    safety: SafetyZoneConfig = field(default_factory=SafetyZoneConfig)
    jet: JetModel = field(default_factory=JetModel)
    perception: PerceptionModel = field(default_factory=PerceptionModel)
    latency: StageLatencyModel = field(default_factory=StageLatencyModel)
    human: HumanModel = field(default_factory=HumanModel)
    trajectory: RobotTrajectory = field(default_factory=default_trajectory)
    tick_ms: float = 10.0
    duration_s: float = 120.0
    duty_pct: float = 100.0

    def __post_init__(self) -> None:
        try:
            trial_ticks(self.duration_s, self.tick_ms, self.duty_pct, self.latency.capture_ms)
        except ValueError as exc:
            # Each message starts with the field it refuses: "tick_ms ..."
            # names the key sim.tick_ms, "capture_ms ..." latency.capture_ms.
            section = "latency" if str(exc).startswith("capture_ms") else "sim"
            raise ConfigError(f"{section}.{exc}") from exc


def _flatten_file_tree(tree: dict, prefix: str = "") -> dict[str, Any]:
    flat: dict[str, Any] = {}
    for key, value in tree.items():
        dotted = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten_file_tree(value, f"{dotted}."))
        else:
            flat[dotted] = value
    return flat


def _parse_override(text: str) -> tuple[str, Any]:
    if "=" not in text:
        raise ConfigError(f"override must look like key=value, got {text!r}")
    key, raw = text.split("=", 1)
    try:
        value = json.loads(raw)
    except ValueError:  # not JSON, or an integer past Python's int-string limit
        raise ConfigError(f"override value for {key!r} is not a JSON scalar: {raw!r}") from None
    return key.strip(), value


def finite_number(key: str, value: Any) -> float:
    """A JSON value as a float, or ConfigError naming ``key``.

    JSON accepts NaN and Infinity, and NaN passes every range check of the
    typed objects; a bool, or an integer past the float range, is no number.
    """
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    return number


def load_config(path: str | Path | None = None,
                overrides: list[str] | None = None) -> RunConfig:
    """Build a validated RunConfig from defaults, a JSON file, and overrides."""
    flat: dict[str, Any] = {}
    if path is not None:
        try:
            tree = json.loads(Path(path).read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        except ValueError as exc:  # also undecodable UTF-8 and overlong integers
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(tree, dict):
            raise ConfigError("config file must hold a JSON object")
        flat.update(_flatten_file_tree(tree))
    for text in overrides or []:
        key, value = _parse_override(text)
        flat[key] = value

    unknown = sorted(set(flat) - set(_KEY_MAP))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")

    sections: dict[str, dict[str, Any]] = {section: {} for section, _ in _KEY_MAP.values()}
    for key, value in flat.items():
        section, fname = _KEY_MAP[key]
        sections[section][fname] = finite_number(key, value)

    try:
        return RunConfig(
            safety=SafetyZoneConfig(**sections["safety"]),
            jet=JetModel(**sections["jet"]),
            perception=PerceptionModel(**sections["perception"]),
            latency=StageLatencyModel(**sections["latency"]),
            human=HumanModel(**sections["human"]),
            **sections["run"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def flatten(cfg: RunConfig) -> dict[str, float]:
    """Full dotted-key view of a config, suitable for hashing and reports."""
    out: dict[str, float] = {}
    for key, (section, fname) in _KEY_MAP.items():
        source = cfg if section == "run" else getattr(cfg, section)
        out[key] = float(getattr(source, fname))
    return out


def config_hash(cfg: RunConfig) -> str:
    """Stable content hash over every effective config value."""
    payload = json.dumps(flatten(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
