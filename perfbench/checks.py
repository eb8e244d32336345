"""Correctness gate for the CSV files the heatvalve CLI writes.

Plain Python, no numpy, so the gate does not share code with what it checks.

- Structural checks hold at any seed: the expected header and rows, finite
  values, ``total = normal + anomalous`` and no anomalous current in RWA.
- Reference checks compare numbers, not bytes, with values committed for
  the default seed: a legitimate change in floating-point order moves the
  last bits, a wrong result moves far more than ``REL_TOL``.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

# |value - reference| <= REL_TOL * max(|reference|, largest |reference| of the column)
REL_TOL = 1e-6
# The engine's own bound on |total - (normal + anomalous)|.
SUM_TOL = 1e-10
# Every TRACE_STRIDE-th row of a trace (and the last) is kept as reference.
TRACE_STRIDE = 100

SWEEP_HEADER = ["gamma_over_omega0", "kind", "mean_current", "std_current",
                "landauer", "weak_coupling", "realizations"]
TRACE_HEADER = ["time", "kind", "N", "total", "normal", "anomalous", "pert_anomalous"]
DISTRIBUTIONS = ("uniform", "gaussian", "equal")


def kinds(cfg: dict) -> list[str]:
    return ["exact", "rwa"] if cfg["kind"] == "both" else [cfg["kind"]]


def output_files(command: str) -> list[str]:
    if command == "dist":
        return [f"sweep_{d}.csv" for d in DISTRIBUTIONS]
    return [f"{command}.csv"]


def trace_times(cfg: dict) -> list[float]:
    """The CLI's time grid, numpy.arange(0, t_max + dt/2, dt)."""
    dt = cfg["time_step"]
    return [i * dt for i in range(math.ceil((cfg["t_max"] + dt / 2) / dt))]


def realizations(command: str, cfg: dict) -> int:
    """Realizations one invocation computes: (grid point, kind, realization) jobs or traces."""
    if command == "trace":
        return len(kinds(cfg))
    per_law = len(cfg["gamma_grid"]) * len(kinds(cfg)) * cfg["realizations"]
    return per_law * (len(DISTRIBUTIONS) if command == "dist" else 1)


def read_outputs(command: str, out_dir: Path) -> dict[str, list[list[str]]]:
    """Header and rows of every CSV the command writes, units comment skipped."""
    tables = {}
    for name in output_files(command):
        with open(out_dir / name, newline="", encoding="utf-8") as fh:
            tables[name] = [row for row in csv.reader(fh) if row and not row[0].startswith("#")]
    return tables


def _num(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def structural_errors(command: str, cfg: dict, tables: dict) -> list[str]:
    errors = []
    for name, table in tables.items():
        header, rows = table[0], table[1:]
        if command == "trace":
            expected = [(t, k) for k in kinds(cfg) for t in trace_times(cfg)]
            want_header = TRACE_HEADER
        else:
            expected = [(g, k) for g in cfg["gamma_grid"] for k in kinds(cfg)]
            want_header = SWEEP_HEADER
        if header != want_header:
            errors.append(f"{name}: header {header} != {want_header}")
            continue
        if len(rows) != len(expected):
            errors.append(f"{name}: {len(rows)} rows, expected {len(expected)}")
            continue
        for i, (row, (key, kind)) in enumerate(zip(rows, expected)):
            vals = dict(zip(header, row))
            nums = {k: _num(v) for k, v in vals.items() if k != "kind"}
            bad = [k for k, v in nums.items() if v is None or not math.isfinite(v)]
            if bad:
                errors.append(f"{name} row {i}: non-finite {bad}")
                continue
            first = nums[header[0]]
            if vals["kind"] != kind or abs(first - key) > 1e-9 * max(1.0, abs(key)):
                errors.append(f"{name} row {i}: ({first}, {vals['kind']}) != ({key}, {kind})")
            if command == "trace":
                gap = abs(nums["total"] - (nums["normal"] + nums["anomalous"]))
                if gap > SUM_TOL:
                    errors.append(f"{name} row {i}: total - (normal + anomalous) = {gap:.3e}")
                if kind == "rwa" and nums["anomalous"] != 0.0:
                    errors.append(f"{name} row {i}: RWA anomalous current {nums['anomalous']}")
                if nums["N"] != cfg["bath_size"]:
                    errors.append(f"{name} row {i}: N {nums['N']} != {cfg['bath_size']}")
            else:
                if nums["realizations"] != cfg["realizations"]:
                    errors.append(f"{name} row {i}: realizations {nums['realizations']}")
                if nums["std_current"] < 0:
                    errors.append(f"{name} row {i}: negative std_current")
            if len(errors) > 20:
                return errors
    return errors


def make_reference(command: str, tables: dict) -> dict:
    ref = {"rel_tol": REL_TOL, "files": {}}
    for name, table in tables.items():
        n = len(table) - 1
        stride = TRACE_STRIDE if command == "trace" else 1
        index = sorted(set(range(0, n, stride)) | {n - 1})
        ref["files"][name] = {
            "header": table[0],
            "index": index,
            "rows": [[_num(c) if _num(c) is not None else c for c in table[1 + i]]
                     for i in index],
        }
    return ref


def reference_errors(tables: dict, ref: dict) -> list[str]:
    errors = []
    tol = ref["rel_tol"]
    for name, want in ref["files"].items():
        table = tables.get(name)
        if table is None or table[0] != want["header"]:
            errors.append(f"{name}: missing or header differs from reference")
            continue
        scale = [max((abs(r[j]) for r in want["rows"] if isinstance(r[j], float)), default=0.0)
                 for j in range(len(want["header"]))]
        for i, ref_row in zip(want["index"], want["rows"]):
            if i + 1 >= len(table):
                errors.append(f"{name}: row {i} missing")
                break
            for j, (cell, ref_val) in enumerate(zip(table[1 + i], ref_row)):
                if not isinstance(ref_val, float):
                    ok = cell == ref_val
                else:
                    val = _num(cell)
                    ok = val is not None and abs(val - ref_val) <= tol * max(abs(ref_val), scale[j])
                if not ok:
                    errors.append(f"{name} row {i} {want['header'][j]}: {cell} vs reference {ref_val}")
            if len(errors) > 20:
                return errors
    return errors
