"""Experiment configuration files: schema, validation, canonical hashing."""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import yaml

from .evolution import MIN_WINDOW_SAMPLES, window_sample_count
from .valve import CouplingDistribution, InternalCouplingSpec, ValveConfig

SCHEMA_VERSION = 1

KINDS = ("exact", "rwa", "both")

_DEFAULTS = {
    "t_hot": 1.0,
    "t_cold": 0.0,
    "coupling_dist": "uniform",
    "kind": "both",
    "seed": 0,
    "time_step": 0.05,
    "window": [20.0, 50.0],
    "t_max": 50.0,
    "realizations": 5,
    "internal_coupling": None,
    "full": None,
    "gamma": None,
    "gamma_grid": None,
    "bath_sizes": None,
}

_KNOWN_KEYS = set(_DEFAULTS) | {"schema_version", "bath_size"}


class ConfigError(Exception):
    """Invalid or missing configuration; message names the offending key/path."""


def _require(cfg: dict, key: str, types, pred=None, what: str = ""):
    if key not in cfg or cfg[key] is None:
        raise ConfigError(f"missing required config key '{key}'")
    val = cfg[key]
    if not isinstance(val, types) or isinstance(val, bool):
        raise ConfigError(f"config key '{key}' has wrong type {type(val).__name__}")
    if pred is not None and not pred(val):
        raise ConfigError(f"config key '{key}' invalid: {what}")
    return val


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _merge(cfg: dict, overrides: dict) -> dict:
    """cfg updated by overrides, refusing keys the schema does not know."""
    unknown = set(overrides) - _KNOWN_KEYS
    if unknown:
        raise ConfigError(f"unknown config key '{sorted(unknown)[0]}'")
    out = dict(cfg)
    out.update(overrides)
    return out


def load_config(path) -> dict:
    """Read and validate a YAML experiment config; returns a plain dict."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = yaml.safe_load(path.read_text())
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file {path} is not valid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must contain a mapping")
    cfg = _merge(_DEFAULTS, raw)
    _validate(cfg)
    return cfg


def _validate(cfg: dict) -> None:
    version = cfg.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"config key 'schema_version' must be {SCHEMA_VERSION}, got {version!r}"
        )
    _require(cfg, "bath_size", int, lambda v: v >= 1, "must be >= 1")
    _require(cfg, "t_hot", (int, float), lambda v: v >= 0, "must be >= 0")
    _require(cfg, "t_cold", (int, float), lambda v: v >= 0, "must be >= 0")
    _require(cfg, "seed", int, lambda v: 0 <= v < 2**64, "must fit in 64 bits")
    _require(cfg, "time_step", (int, float), lambda v: 0 < v < math.inf, "must be in (0, inf)")
    _require(cfg, "realizations", int, lambda v: v >= 1, "must be >= 1")
    _require(cfg, "t_max", (int, float), lambda v: 0 < v < math.inf, "must be in (0, inf)")
    if cfg["kind"] not in KINDS:
        raise ConfigError(f"config key 'kind' must be one of {KINDS}, got {cfg['kind']!r}")
    try:
        CouplingDistribution(cfg["coupling_dist"])
    except ValueError:
        raise ConfigError(
            f"config key 'coupling_dist' must be one of "
            f"{[d.value for d in CouplingDistribution]}, got {cfg['coupling_dist']!r}"
        ) from None
    window = cfg["window"]
    if (
        not isinstance(window, (list, tuple))
        or len(window) != 2
        or not all(_is_number(v) and math.isfinite(v) for v in window)
        or window[0] >= window[1]
    ):
        raise ConfigError("config key 'window' must be finite [t_lo, t_hi] with t_lo < t_hi")
    samples = window_sample_count(window, cfg["time_step"])
    if samples < MIN_WINDOW_SAMPLES:
        raise ConfigError(
            f"config key 'window' holds {samples} samples at time_step "
            f"{cfg['time_step']}; need >= {MIN_WINDOW_SAMPLES}"
        )
    if cfg["gamma"] is not None:
        _require(cfg, "gamma", (int, float), lambda v: 0 <= v < math.inf, "must be in [0, inf)")
    if cfg["gamma_grid"] is not None:
        grid = cfg["gamma_grid"]
        if (
            not isinstance(grid, list)
            or not grid
            or not all(_is_number(v) and 0 <= v < math.inf for v in grid)
        ):
            raise ConfigError("config key 'gamma_grid' must list one or more floats in [0, inf)")
    if cfg["bath_sizes"] is not None:
        sizes = cfg["bath_sizes"]
        if not isinstance(sizes, list) or not all(
            isinstance(v, int) and not isinstance(v, bool) and v >= 1 for v in sizes
        ):
            raise ConfigError("config key 'bath_sizes' must be a list of ints >= 1")
    ic = cfg["internal_coupling"]
    if ic is not None:
        if not isinstance(ic, dict):
            raise ConfigError("config key 'internal_coupling' must be a mapping")
        unknown = set(ic) - {"generator", "scale"}
        if unknown:
            raise ConfigError(
                f"unknown config key 'internal_coupling.{sorted(map(str, unknown))[0]}'"
            )
        gen = ic.get("generator", "random_hermitian")
        scale = ic.get("scale", 0.1)
        if gen != "random_hermitian":
            raise ConfigError(
                f"config key 'internal_coupling.generator' unknown: {gen!r}"
            )
        if not _is_number(scale) or not 0 <= scale < math.inf:
            raise ConfigError("config key 'internal_coupling.scale' must be a float in [0, inf)")
    full = cfg["full"]
    if full is not None and not isinstance(full, dict):
        raise ConfigError("config key 'full' must be a mapping of overrides")


def apply_full_preset(cfg: dict) -> dict:
    """Apply the figure-scale override section, if any, and revalidate."""
    if not cfg.get("full"):
        return dict(cfg)
    out = _merge(cfg, cfg["full"])
    out["full"] = None
    _validate(out)
    return out


def make_valve_config(cfg: dict, gamma: float, bath_size: int | None = None) -> ValveConfig:
    """The config's valve at coupling gamma; the experiments set ``rwa`` per kind."""
    ic = cfg.get("internal_coupling")
    spec = None if ic is None else InternalCouplingSpec(scale=float(ic.get("scale", 0.1)))
    return ValveConfig(
        bath_size=bath_size if bath_size is not None else cfg["bath_size"],
        gamma=float(gamma),
        t_hot=float(cfg["t_hot"]),
        t_cold=float(cfg["t_cold"]),
        coupling_dist=CouplingDistribution(cfg["coupling_dist"]),
        seed=cfg["seed"],
        internal_coupling=spec,
    )


def config_hash(cfg: dict) -> str:
    """Stable digest of the canonicalized (JSON, sorted keys) config."""
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canon.encode()).hexdigest()
