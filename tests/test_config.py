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
from heatvalve.evolution import MIN_WINDOW_SAMPLES, CurrentTrace, window_times
from heatvalve.valve import CouplingDistribution, InternalCouplingSpec

from reference import steady_state_estimate


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
    # a window before t = 0 would average the time-reversed evolution
    with pytest.raises(ConfigError, match="'window'"):
        load_config(write(tmp_path, BASE + "window: [-30, 0]\n"))
    assert load_config(write(tmp_path, BASE + "window: [0, 30]\n"))["window"] == [0, 30]


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
    assert vc.internal_coupling == InternalCouplingSpec(scale=0.2)


def test_internal_coupling_scale_defaults_to_the_spec(tmp_path):
    cfg = load_config(write(tmp_path, BASE + "internal_coupling: {}\n"))
    spec = make_valve_config(cfg, gamma=0.3).internal_coupling
    assert spec.scale == InternalCouplingSpec().scale


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
        enough = len(times) >= MIN_WINDOW_SAMPLES
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


# YAML 1.1 reads a float only with a decimal point and a signed exponent
@pytest.mark.parametrize("line,key,text,fix", [
    ("t_max: 1e-3", "t_max", "1e-3", "1.0e-3"),
    ("gamma: 1e-3", "gamma", "1e-3", "1.0e-3"),
    ("time_step: 5e-2", "time_step", "5e-2", "5.0e-2"),
    ("t_hot: 1e0", "t_hot", "1e0", "1.0e+0"),
    ("gamma_grid: [0.1, 1e-3]", "gamma_grid", "1e-3", "1.0e-3"),
    ("window: [2e1, 50.0]", "window", "2e1", "2.0e+1"),
    ("internal_coupling: {scale: 1.0e1}", "internal_coupling.scale", "1.0e1", "1.0e+1"),
], ids=["t_max", "gamma", "time_step", "t_hot", "gamma_grid", "window", "scale"])
def test_float_read_as_text_names_the_fix(tmp_path, line, key, text, fix):
    base = BASE.replace("gamma: 0.3\n", "")
    with pytest.raises(ConfigError) as exc:
        load_config(write(tmp_path, base + line + "\n"))
    msg = str(exc.value)
    assert f"'{key}' holds '{text}', which YAML reads as text: write {fix}" in msg
    assert float(fix) == float(text)
    load_config(write(tmp_path, base + line.replace(text, fix) + "\n"))


def test_int_key_read_as_text_gets_no_float_fix(tmp_path):
    # 1.0e+3 would be a float, which bath_size refuses too
    with pytest.raises(ConfigError, match=r"'bath_size' has wrong type str$"):
        load_config(write(tmp_path, "schema_version: 1\nbath_size: 1e3\n"))


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
