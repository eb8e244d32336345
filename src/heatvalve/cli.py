"""Command-line entry point.

Subcommands: ``sweep`` and ``trace`` drive the experiments from a YAML
config, ``dist`` repeats a sweep for all three coupling distributions,
``oracle`` evaluates the analytic formulas, and ``fock-check`` is a debug
command comparing the engine against the brute-force Fock oracle.

All quantities are in natural units hbar = k_B = 1 with energies in
omega0; exit codes are 0 (success), 2 (usage/config error),
3 (numerical failure).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
import time
from dataclasses import astuple, fields
from datetime import datetime, timezone
from itertools import repeat
from pathlib import Path

import numpy as np

from . import __version__, analytics
from .config import (
    KINDS,
    SEED_BOUND,
    ConfigError,
    apply_full_preset,
    config_hash,
    load_config,
    make_valve_config,
)
from .evolution import heat_current
from .experiments import (
    SweepRecord,
    realization,
    run_distribution_comparison,
    run_sweep,
    run_trace,
)
from .valve import ValveConfig, sample_bath

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

# fock-check's tolerance, relative to max(1, max|fock|): FOCK_TOL plus
# FOCK_ROUNDING eps s_max t_max.  Rounding in the phases s t alone moves the
# current by about eps s_max t of its size, so the bound grows with gamma and
# is FOCK_TOL absolute at gamma <= 1.  Over n = 1-4, seeds 0-15, both kinds
# and gamma 1e3-1e9 the deviation needed a median 1.0 and at most 29 times
# eps s_max t_max; the largest came where the 81 samples of the fast
# oscillating current miss its peak, so max|fock| understates its size.
FOCK_TOL = 1e-9
FOCK_ROUNDING = 64.0
# A relative tolerance this large would pass an engine that is wrong by 1%.
FOCK_MAX_REL_TOL = 1e-2

UNITS_COMMENT = "# units: omega0 = 1; time in 1/omega0; currents in hbar*omega0^2\n"

SWEEP_HEADER = [f.name for f in fields(SweepRecord)]
TRACE_HEADER = ["time", "kind", "N", "total", "normal", "anomalous", "pert_anomalous"]


def _write_csv(path: Path, header: list[str], chunks) -> None:
    """Write the units comment, the header and ``chunks``, text of whole rows.

    Rows end in CRLF and no cell needs quoting: a cell is a kind, an int
    written by str() or a float written by repr(), its shortest round-trip
    text, the same text that csv.writer writes.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(UNITS_COMMENT)
        fh.write(",".join(header) + "\r\n")
        fh.writelines(chunks)


def _column(values: np.ndarray) -> list[str]:
    """A float column as CSV cells: the repr of each value."""
    return list(map(repr, values.tolist()))


def _record_lines(records):
    """One CSV row per SweepRecord, its fields written by str()."""
    return (",".join(map(str, astuple(r))) + "\r\n" for r in records)


def _trace_lines(times: np.ndarray, runs):
    """trace.csv's rows as one text chunk per (N, kind), in the order of ``runs``.

    ``runs`` holds (N, traces by kind, overlay) per bath size.  The time
    column is formatted once per run and the overlay once per N; the chunks
    are made as the file is written, after every trace is computed.
    """
    time_col = _column(times)
    for N, traces, pert in runs:
        pert_col = _column(pert)
        for kind, tr in traces.items():
            rows = zip(time_col, repeat(f"{kind},{N}"), _column(tr.total),
                       _column(tr.normal), _column(tr.anomalous), pert_col)
            yield "\r\n".join(map(",".join, rows)) + "\r\n"


def _physical_scales(gammas, sizes) -> list[dict]:
    """The scales that decide whether a window mean can be trusted, per (gamma, N).

    A steady state needs a window past the relaxation time tau and before
    the Heisenberg time t_H, and a continuum bath needs many levels per
    linewidth.  tau is infinite, written as null, at gamma = 0.
    """
    scales = []
    for N in sizes:
        for gamma in gammas:
            tau = analytics.relaxation_time(gamma)
            scales.append({
                "gamma_over_omega0": float(gamma),
                "bath_size": N,
                "relaxation_time": tau if math.isfinite(tau) else None,
                "heisenberg_time": analytics.heisenberg_time(N),
                "levels_per_linewidth": analytics.levels_per_linewidth(gamma, N),
            })
    return scales


def _write_manifest(
    out_dir: Path, cfg: dict, started: float, outputs: list[str], scales: list[dict],
    wall_s: dict[str, float],
) -> None:
    manifest = {
        "tool": "heatvalve",
        "tool_version": __version__,
        "config_hash": config_hash(cfg),
        "master_seed": cfg["seed"],
        "started": datetime.fromtimestamp(started, timezone.utc).isoformat(),
        "finished": datetime.now(timezone.utc).isoformat(),
        "outputs": outputs,
        "physical_scales": scales,
        "wall_s": wall_s,
    }
    tmp = out_dir / "manifest.json.tmp"
    tmp.write_text(json.dumps(manifest, indent=2) + "\n")
    tmp.replace(out_dir / "manifest.json")


def _load(args) -> dict:
    cfg = load_config(args.config)
    if args.full:
        cfg = apply_full_preset(cfg)
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.kind is not None:
        cfg["kind"] = args.kind
    return cfg


def _kinds(cfg: dict) -> tuple[str, ...]:
    return ("exact", "rwa") if cfg["kind"] == "both" else (cfg["kind"],)


def _run(args, required: str, tables) -> int:
    """Config in, CSV files and manifest out: the body of sweep, trace and dist.

    ``tables(cfg)`` runs the experiment and returns {file name: (header,
    text chunks)} and the bath sizes it ran; the manifest's physical scales
    cover those sizes and the couplings of the ``required`` key, and its
    ``wall_s`` gives the seconds spent running and writing the CSV files.
    """
    cfg = _load(args)
    if cfg[required] is None:
        raise ConfigError(f"missing required config key '{required}'")
    out_dir = Path(args.out)
    created = [d for d in (out_dir, *out_dir.parents) if not d.exists()]
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create the output directory: {exc}") from exc
    started = time.time()
    clock = time.perf_counter()
    try:
        files, sizes = tables(cfg)
    except BaseException:
        # a failed run leaves no directory it made behind
        with contextlib.suppress(OSError):
            for d in created:
                d.rmdir()
        raise
    ran = time.perf_counter()
    for name, (header, chunks) in files.items():
        _write_csv(out_dir / name, header, chunks)
    wall_s = {"run": ran - clock, "write": time.perf_counter() - ran}
    gammas = cfg[required] if isinstance(cfg[required], list) else [cfg[required]]
    scales = _physical_scales(gammas, sizes)
    _write_manifest(out_dir, cfg, started, list(files), scales, wall_s)
    print(f"wrote {', '.join(str(out_dir / name) for name in files)}")
    return EXIT_OK


def _sweep_args(cfg: dict, args) -> dict:
    """Arguments of run_sweep and run_distribution_comparison."""
    return dict(
        config_template=make_valve_config(cfg, gamma=0.0),
        gamma_grid=cfg["gamma_grid"],
        realizations=cfg["realizations"],
        kinds=_kinds(cfg),
        window=tuple(cfg["window"]),
        time_step=cfg["time_step"],
        n_jobs=args.jobs,
    )


def cmd_sweep(args) -> int:
    def tables(cfg):
        records = run_sweep(**_sweep_args(cfg, args))
        return {"sweep.csv": (SWEEP_HEADER, _record_lines(records))}, [cfg["bath_size"]]

    return _run(args, "gamma_grid", tables)


def cmd_trace(args) -> int:
    def tables(cfg):
        times = np.arange(0.0, cfg["t_max"] + cfg["time_step"] / 2, cfg["time_step"])
        sizes = cfg["bath_sizes"] or [cfg["bath_size"]]
        runs = [
            (N, *run_trace(make_valve_config(cfg, gamma=cfg["gamma"], bath_size=N), times,
                           kinds=_kinds(cfg)))
            for N in sizes
        ]
        return {"trace.csv": (TRACE_HEADER, _trace_lines(times, runs))}, sizes

    return _run(args, "gamma", tables)


def cmd_dist(args) -> int:
    def tables(cfg):
        by_dist = run_distribution_comparison(**_sweep_args(cfg, args))
        files = {f"sweep_{d}.csv": (SWEEP_HEADER, _record_lines(r)) for d, r in by_dist.items()}
        return files, [cfg["bath_size"]]

    return _run(args, "gamma_grid", tables)


def cmd_oracle(args) -> int:
    if args.formula == "fermi":
        val = analytics.fermi(args.x)
    else:
        gamma_sd = analytics.spectral_density(args.gamma)
        if args.formula == "weak":
            val = analytics.weak_coupling_current(gamma_sd, gamma_sd, args.t1, args.t2)
        elif args.formula == "landauer":
            val = analytics.landauer_current(args.gamma, args.t1, args.t2)
        elif args.formula == "transmission":
            val = analytics.transmission(args.gamma, args.omega)
        elif args.formula == "selfenergy":
            val = analytics.self_energy(args.gamma, args.omega)
        else:  # anomalous (continuum limit)
            val = analytics.anomalous_current_continuum(args.gamma, args.temp, args.t)
    if not math.isfinite(val):
        raise FloatingPointError(f"oracle {args.formula} gave {val}")
    print(repr(float(val)))
    return EXIT_OK


def cmd_fock_check(args) -> int:
    from . import fock  # scipy.sparse; no other command loads it

    rng = np.random.default_rng(args.seed)
    cfg = ValveConfig(
        bath_size=args.n,
        gamma=args.gamma,
        t_hot=1.0,
        t_cold=0.0,
        rwa=args.rwa,
        seed=int(rng.integers(2**63)),
    )
    times = np.linspace(0.0, 20.0, 81)
    bath = sample_bath(cfg)
    prop, levels = realization(cfg, bath)
    trace = heat_current(prop, levels, times)
    rounding = np.finfo(float).eps * float(prop.s.max(initial=0.0)) * times[-1]
    rel_tol = FOCK_TOL + FOCK_ROUNDING * rounding
    if rel_tol >= FOCK_MAX_REL_TOL:
        raise ArithmeticError(
            f"phase rounding eps*s_max*t = {rounding:.3g} at t={times[-1]} allows a deviation "
            f"of {rel_tol:.3g} of the current, at least {FOCK_MAX_REL_TOL:g}: engine and "
            "oracle cannot be told apart"
        )
    exact = fock.exact_current(cfg, bath, times)
    dev = np.abs(trace.total - exact).max()
    tol = max(1.0, np.abs(exact).max()) * rel_tol
    print(f"max |engine - fock| over t in [0,20]: {dev:.3e} (tolerance {tol:.3e})")
    return EXIT_OK if dev < tol else EXIT_NUMERICAL


def _in_range(kind, lo, hi):
    """argparse type: ``kind(text)`` within [lo, hi], else a usage error (exit 2)."""

    def parse(text: str):
        x = kind(text)
        if not lo <= x <= hi:
            raise argparse.ArgumentTypeError(f"{x} is outside [{lo}, {hi}]")
        return x

    return parse


# the range that the config key `seed` accepts
_seed = _in_range(int, 0, SEED_BOUND - 1)


def _fock_bath_size(text: str) -> int:
    """argparse type of fock-check's --n: a bath the Fock oracle can hold, M = 2N+1 modes."""
    from . import fock

    return _in_range(int, 1, (fock.MAX_MODES - 1) // 2)(text)


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="YAML experiment config")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=_seed, default=None, help="override the config seed")
    p.add_argument("--full", action="store_true", help="apply the figure-scale preset")
    p.add_argument("--jobs", type=_in_range(int, 1, np.inf), default=1,
                   help="parallel worker processes")
    p.add_argument("--kind", choices=KINDS, default=None,
                   help="override the Hamiltonian kind")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heatvalve",
        description="Exact heat transport in quadratic fermionic systems "
                    "(natural units: hbar = k_B = 1, energies in omega0).",
    )
    parser.add_argument("--version", action="version", version=f"heatvalve {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    non_negative = _in_range(float, 0.0, np.inf)
    coupling = _in_range(float, 0.0, sys.float_info.max)  # finite, as the config's gamma

    p = sub.add_parser("sweep", help="steady-state current vs coupling strength")
    _add_run_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("trace", help="heat-current time traces")
    _add_run_flags(p)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("dist", help="sweep repeated for all coupling distributions")
    _add_run_flags(p)
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("oracle", help="evaluate an analytic formula")
    p.add_argument("formula", choices=[
        "fermi", "weak", "landauer", "transmission", "selfenergy", "anomalous",
    ])
    p.add_argument("--x", type=_in_range(float, -np.inf, np.inf), default=1.0,
                   help="fermi argument beta*omega")
    p.add_argument("--gamma", type=coupling, default=0.1,
                   help="coupling scale gamma/omega0")
    p.add_argument("--t1", type=non_negative, default=1.0, help="hot bath temperature")
    p.add_argument("--t2", type=non_negative, default=0.0, help="cold bath temperature")
    p.add_argument("--omega", type=float, default=1.0,
                   help="evaluation frequency, inside the open band (0, 2)")
    p.add_argument("--temp", type=non_negative, default=0.0,
                   help="bath temperature (anomalous)")
    p.add_argument("--t", type=non_negative, default=1.0, help="time (anomalous)")
    p.set_defaults(func=cmd_oracle)

    # debug command, intentionally undocumented in the top-level help
    p = sub.add_parser("fock-check")
    p.add_argument("--n", type=_fock_bath_size, default=2,
                   help="bath size (M = 2N+1 modes, within the Fock oracle's cap)")
    p.add_argument("--gamma", type=coupling, default=0.3)
    p.add_argument("--rwa", action="store_true")
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=cmd_fock_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "oracle" and args.formula in ("transmission", "selfenergy"):
        lo, hi = 0.0, analytics.BAND_TOP
        if not lo + analytics.EDGE_TOL < args.omega < hi - analytics.EDGE_TOL:
            parser.error(f"argument --omega: {args.omega} is outside the open band ({lo}, {hi})")
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (np.linalg.LinAlgError, ArithmeticError, RuntimeError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as exc:
        print(f"numerical failure: out of memory: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
