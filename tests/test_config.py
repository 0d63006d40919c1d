import json
import math

import pytest
from hypothesis import given, reject
from hypothesis import strategies as st

from airshield.config import ConfigError, RunConfig, config_hash, flatten, load_config
from airshield.pipeline import StageLatencyModel


def test_defaults_load():
    cfg = load_config()
    assert cfg.safety.had == 0.35
    assert cfg.safety.danger == 0.25
    assert cfg.jet.v0 == 25.0
    assert cfg.latency.detect_ms_mean == 30.0
    assert cfg.duration_s == 120.0


def test_file_values_apply(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"safety": {"had_m": 0.5}, "sim": {"duration_s": 30}}))
    cfg = load_config(path)
    assert cfg.safety.had == 0.5
    assert cfg.duration_s == 30.0


def test_overrides_beat_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"safety": {"had_m": 0.5}}))
    cfg = load_config(path, overrides=["safety.had_m=0.40"])
    assert cfg.safety.had == 0.40


def test_unknown_key_rejected():
    with pytest.raises(ConfigError):
        load_config(overrides=["safety.hda_m=0.4"])


def test_unknown_file_key_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"turbo": {"boost": 11}}))
    with pytest.raises(ConfigError):
        load_config(path)


def test_non_numeric_value_rejected():
    with pytest.raises(ConfigError):
        load_config(overrides=['safety.had_m="wide"'])
    with pytest.raises(ConfigError):
        load_config(overrides=["safety.had_m=true"])


@pytest.mark.parametrize("raw", ["NaN", "Infinity", "-Infinity",
                                 pytest.param("1" + "0" * 400, id="int-past-float-range")])
def test_non_finite_value_rejected(raw):
    with pytest.raises(ConfigError, match="finite"):
        load_config(overrides=[f"sim.tick_ms={raw}"])


@pytest.mark.parametrize("kw", [{"tick_ms": math.nan}, {"tick_ms": math.inf},
                                {"duration_s": math.nan}, {"duration_s": math.inf}])
def test_run_config_rejects_non_finite_tick_and_duration(kw):
    with pytest.raises(ConfigError, match="finite"):
        RunConfig(**kw)


def test_trial_of_more_than_ten_million_ticks_rejected():
    with pytest.raises(ConfigError, match=r"^sim\.tick_ms must leave at most 10,000,000 ticks"):
        load_config(overrides=["sim.tick_ms=1e-6", "sim.duration_s=1"])
    assert RunConfig(tick_ms=1.0, duration_s=1e4, latency=StageLatencyModel(capture_ms=1.0))
    with pytest.raises(ConfigError, match="at most 10,000,000 ticks"):
        RunConfig(tick_ms=1.0, duration_s=10_000.001, latency=StageLatencyModel(capture_ms=1.0))


def test_frame_interval_shorter_than_a_tick_rejected():
    refused = r"^latency\.capture_ms must be at least one tick \(40.0 ms\)"
    with pytest.raises(ConfigError, match=refused):
        load_config(overrides=["sim.tick_ms=40"])
    assert load_config(overrides=["sim.tick_ms=33.3"]).tick_ms == 33.3


def test_non_finite_file_value_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"jet": {"v0_mps": Infinity}}')
    with pytest.raises(ConfigError, match="jet.v0_mps"):
        load_config(path)


def test_overlong_integer_rejected(tmp_path):
    digits = "1" * 5000  # past Python's int-string limit: json.loads raises ValueError
    with pytest.raises(ConfigError):
        load_config(overrides=[f"sim.tick_ms={digits}"])
    path = tmp_path / "cfg.json"
    path.write_text(f'{{"sim": {{"tick_ms": {digits}}}}}')
    with pytest.raises(ConfigError):
        load_config(path)


def test_malformed_override():
    with pytest.raises(ConfigError):
        load_config(overrides=["safety.had_m"])


def test_invariants_enforced_at_load():
    with pytest.raises(ConfigError):
        load_config(overrides=["safety.had_m=0.2"])  # danger would exceed had
    with pytest.raises(ConfigError):
        load_config(overrides=["jet.v0_mps=-5"])
    with pytest.raises(ConfigError):
        load_config(overrides=["sim.duration_s=0"])


def test_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.json")


def test_config_file_holding_an_array_is_config_error(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('[{"sim": {"duration_s": 30}}]')
    with pytest.raises(ConfigError, match=r"^config file must hold a JSON object$"):
        load_config(path)


def test_flatten_covers_every_key():
    cfg = load_config()
    flat = flatten(cfg)
    assert flat["safety.had_m"] == 0.35
    assert flat["latency.capture_ms"] == pytest.approx(33.3)
    assert flat["sim.attention_p"] == cfg.human.attention_p


def test_config_hash_stable_and_sensitive():
    a = config_hash(load_config())
    b = config_hash(load_config())
    c = config_hash(load_config(overrides=["safety.had_m=0.4"]))
    assert a == b
    assert a != c


# --- flatten <-> load_config -------------------------------------------------

DEFAULTS = flatten(load_config())


@st.composite
def override_sets(draw):
    """A few dotted keys, each set to its default scaled by 0.5 to 1.5."""
    keys = draw(st.lists(st.sampled_from(sorted(DEFAULTS)), max_size=5, unique=True))
    return {k: DEFAULTS[k] * draw(st.floats(0.5, 1.5)) for k in keys}


@given(override_sets())
def test_flatten_round_trips_through_overrides(values):
    try:
        cfg = load_config(None, [f"{k}={v!r}" for k, v in values.items()])
    except ConfigError:
        reject()  # the draw broke an invariant, such as danger_m <= had_m
    flat = flatten(cfg)
    assert list(flat) == list(DEFAULTS)
    assert flat == {**DEFAULTS, **values}
    again = load_config(None, [f"{k}={v!r}" for k, v in flat.items()])
    assert again == cfg
    assert config_hash(again) == config_hash(cfg)
