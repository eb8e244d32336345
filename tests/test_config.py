import textwrap

import numpy as np
import pytest

from heatvalve.config import (
    ConfigError,
    apply_full_preset,
    config_hash,
    load_config,
    make_valve_config,
)
from heatvalve.evolution import (
    MIN_WINDOW_SAMPLES,
    CurrentTrace,
    steady_state_estimate,
    window_sample_count,
    window_times,
)
from heatvalve.valve import CouplingDistribution


BASE = """\
schema_version: 1
bath_size: 10
gamma: 0.3
seed: 5
"""


def write(tmp_path, text, name="exp.yaml"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text))
    return path


def test_defaults_filled_in(tmp_path):
    cfg = load_config(write(tmp_path, BASE))
    assert cfg["t_hot"] == 1.0
    assert cfg["t_cold"] == 0.0
    assert cfg["kind"] == "both"
    assert cfg["coupling_dist"] == "uniform"
    assert cfg["window"] == [20.0, 50.0]
    assert cfg["realizations"] == 5


def test_missing_file_names_path(tmp_path):
    with pytest.raises(ConfigError, match="nope.yaml"):
        load_config(tmp_path / "nope.yaml")


def test_missing_bath_size(tmp_path):
    with pytest.raises(ConfigError, match="bath_size"):
        load_config(write(tmp_path, "schema_version: 1\ngamma: 0.1\n"))


def test_wrong_schema_version(tmp_path):
    with pytest.raises(ConfigError, match="schema_version"):
        load_config(write(tmp_path, "schema_version: 2\nbath_size: 5\n"))


def test_unknown_key_named(tmp_path):
    with pytest.raises(ConfigError, match="bogus"):
        load_config(write(tmp_path, BASE + "bogus: 1\n"))


def test_invalid_window(tmp_path):
    with pytest.raises(ConfigError, match="window"):
        load_config(write(tmp_path, BASE + "window: [50, 20]\n"))


def test_invalid_kind(tmp_path):
    with pytest.raises(ConfigError, match="kind"):
        load_config(write(tmp_path, BASE + "kind: approximate\n"))


def test_invalid_distribution(tmp_path):
    with pytest.raises(ConfigError, match="coupling_dist"):
        load_config(write(tmp_path, BASE + "coupling_dist: cauchy\n"))


def test_invalid_yaml(tmp_path):
    with pytest.raises(ConfigError, match="YAML"):
        load_config(write(tmp_path, "bath_size: [unclosed\n"))


def test_internal_coupling_section(tmp_path):
    cfg = load_config(
        write(tmp_path, BASE + "internal_coupling: {generator: random_hermitian, scale: 0.2}\n")
    )
    vc = make_valve_config(cfg, gamma=0.1)
    assert vc.internal_coupling is not None
    assert vc.internal_coupling.scale == 0.2


def test_internal_coupling_bad_generator(tmp_path):
    with pytest.raises(ConfigError, match="generator"):
        load_config(write(tmp_path, BASE + "internal_coupling: {generator: banded}\n"))


def test_internal_coupling_rejects_unknown_key(tmp_path):
    # a misspelt key used to run silently with the default scale
    with pytest.raises(ConfigError, match="internal_coupling.scal"):
        load_config(write(
            tmp_path, BASE + "internal_coupling: {generator: random_hermitian, scal: 5.0}\n"
        ))


@pytest.mark.parametrize("window,ok", [
    ("[0, 4.5]", True),   # 0, 0.5, ..., 4.5: exactly 10 samples
    ("[0, 4.0]", False),  # 9 samples
    ("[20, 20.2]", False),
])
def test_window_needs_enough_samples(tmp_path, window, ok):
    text = BASE + f"time_step: 0.5\nwindow: {window}\n"
    if ok:
        load_config(write(tmp_path, text))
    else:
        with pytest.raises(ConfigError, match="window.*samples"):
            load_config(write(tmp_path, text))


def test_window_check_agrees_with_steady_state_estimate():
    # the config check and the estimate count the same grid
    for lo, hi, dt in [(20, 20.2, 0.05), (20, 20.45, 0.05), (20, 20.5, 0.05),
                       (0.1, 0.55, 0.05), (0.1, 1.0, 0.1), (3, 3.3, 0.0333)]:
        times = window_times((lo, hi), dt)
        trace = CurrentTrace(times=times, total=np.zeros_like(times),
                             normal=np.zeros_like(times), anomalous=np.zeros_like(times))
        enough = window_sample_count((lo, hi), dt) >= MIN_WINDOW_SAMPLES
        try:
            steady_state_estimate(trace, (lo, hi))
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == enough, (lo, hi, dt)


def test_full_preset_overrides(tmp_path):
    cfg = load_config(write(tmp_path, BASE + "full: {bath_size: 1200, realizations: 10}\n"))
    assert cfg["bath_size"] == 10
    full = apply_full_preset(cfg)
    assert full["bath_size"] == 1200
    assert full["realizations"] == 10


def test_full_preset_rejects_unknown_key(tmp_path):
    cfg = load_config(write(tmp_path, BASE + "full: {realizations: 10, bogus_key: 3}\n"))
    with pytest.raises(ConfigError, match="bogus_key"):
        apply_full_preset(cfg)


def test_full_preset_rejects_invalid_value(tmp_path):
    cfg = load_config(write(tmp_path, BASE + "full: {kind: bogus}\n"))
    with pytest.raises(ConfigError, match="kind"):
        apply_full_preset(cfg)


@pytest.mark.parametrize("line,key", [
    ("bath_sizes: [true, 2]", "bath_sizes"),
    ("gamma_grid: [true]", "gamma_grid"),
    ("window: [false, true]", "window"),
    ("internal_coupling: {scale: true}", "internal_coupling.scale"),
])
def test_booleans_rejected_as_numbers(tmp_path, line, key):
    with pytest.raises(ConfigError, match=key):
        load_config(write(tmp_path, BASE + line + "\n"))


def test_make_valve_config(tmp_path):
    cfg = load_config(write(tmp_path, BASE + "coupling_dist: equal\nt_cold: 0.5\n"))
    vc = make_valve_config(cfg, gamma=0.25, bath_size=7)
    assert vc.bath_size == 7
    assert vc.gamma == 0.25
    assert vc.rwa is False
    assert vc.t_cold == 0.5
    assert vc.coupling_dist is CouplingDistribution.EQUAL
    assert vc.seed == 5


def test_config_hash_stable_and_sensitive(tmp_path):
    cfg1 = load_config(write(tmp_path, BASE, "a.yaml"))
    cfg2 = load_config(write(tmp_path, BASE, "b.yaml"))
    cfg3 = load_config(write(tmp_path, BASE + "t_hot: 2.0\n", "c.yaml"))
    assert config_hash(cfg1) == config_hash(cfg2)
    assert config_hash(cfg1) != config_hash(cfg3)
