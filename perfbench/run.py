"""Outside-in benchmark of the heatvalve command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; paths resolve against the checkout that holds this file.
The benchmark writes the workload's YAML config from ``--seed``, then runs
``heatvalve.cli.main`` (``sweep``, ``trace`` or ``dist`` with ``--jobs 1``) in
fresh processes, one after another, as often as fits in ``--seconds``
seconds and at least three times.  Every process is started by ``launch.py``, which fixes
the BLAS thread count before numpy loads.

With ``--trace 0`` it prints the end-to-end metrics, medians over the
invocations: ``realizations_per_s`` (realizations over the wall time of
``main``, CSV and manifest writes included), ``setup_s`` (process start to
``heatvalve.cli`` imported and the config loaded) and ``peak_rss_mb``.
With ``--trace 1`` untraced and traced invocations alternate; it prints
per-layer self times, call counts and exact work counts of the traced ones,
and the ratio of traced to untraced wall time.

Every invocation's CSV files pass the structural checks of ``checks.py``
and, at the default seed, match ``reference/<workload>.json``.  One
instance of the engine drawn from the seed is compared with the Fock-space
oracle before anything is timed.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``; a
failed check makes the exit code 1.  The full report, spans included, is
written under ``.bench_build/perfbench/``.

Self-test: ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build" / "perfbench"

DEFAULT_SEED = 0
MIN_INVOCATIONS = 3
ORACLE_TOL = 1e-9

COMMON = {"schema_version": 1, "t_hot": 1.0, "t_cold": 0.0,
          "time_step": 0.05, "window": [20.0, 50.0]}
# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "sweep-exact": ("sweep", {"bath_size": 450, "gamma_grid": [0.2], "kind": "exact",
                              "realizations": 1}),
    "trace-long": ("trace", {"bath_size": 250, "gamma": 0.1, "kind": "both",
                             "t_max": 250.0}),
    "dist-small": ("dist", {"bath_size": 60, "gamma_grid": [0.1, 0.2, 0.4], "kind": "both",
                            "realizations": 4,
                            "internal_coupling": {"generator": "random_hermitian",
                                                  "scale": 0.1}}),
}
# --tiny: the harness self-test size, one realization per grid point and kind.
TINY = {"bath_size": 20, "realizations": 1, "t_max": 60.0}


def workload_config(name: str, seed: int, tiny: bool) -> tuple[str, dict]:
    command, own = WORKLOADS[name]
    cfg = {**COMMON, **own, "seed": seed}
    if tiny:
        cfg.update({k: v for k, v in TINY.items() if k in cfg})
        if "gamma_grid" in cfg:
            cfg["gamma_grid"] = cfg["gamma_grid"][:1]
    return command, cfg


def write_config(cfg: dict, path: Path) -> None:
    # JSON scalars, lists and mappings are valid YAML flow values.
    path.write_text("".join(f"{k}: {json.dumps(v)}\n" for k, v in cfg.items()))


def oracle_params(name: str, command: str, cfg: dict, seed: int) -> dict:
    """One Fock-oracle instance (M = 2N + 1 <= 9) drawn from the workload seed."""
    rng = random.Random(f"{name}:{seed}")
    ic = cfg.get("internal_coupling")
    return {
        "bath_size": rng.choice([2, 3, 4]),
        "gamma": rng.choice(cfg.get("gamma_grid") or [cfg.get("gamma")]),
        "rwa": rng.choice(checks.kinds(cfg)) == "rwa",
        "coupling_dist": (rng.choice(checks.DISTRIBUTIONS) if command == "dist"
                          else cfg.get("coupling_dist", "uniform")),
        "seed": rng.randrange(2**63),
        "internal_coupling_scale": None if ic is None else ic["scale"],
    }


def launch(args: list[str], result: Path, timeout: float) -> tuple[float, dict | None, str]:
    """Run launch.py in a fresh process; return its spawn time, result and stderr."""
    result.unlink(missing_ok=True)
    spawned = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "launch.py"), args[0], str(result), *args[1:]],
            cwd=ROOT, capture_output=True, text=True, timeout=timeout,
        )
        stderr = proc.stderr
    except subprocess.TimeoutExpired as exc:
        stderr = f"timed out after {timeout:.0f} s: {exc.stderr or ''}"
    data = json.loads(result.read_text()) if result.exists() else None
    return spawned, data, stderr


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def check_outputs(command, cfg, out_dir: Path, reference: dict | None) -> tuple[list, dict]:
    try:
        tables = checks.read_outputs(command, out_dir)
    except (OSError, UnicodeDecodeError) as exc:
        return [f"cannot read outputs: {exc}"], {}
    errors = checks.structural_errors(command, cfg, tables)
    if reference is not None:
        errors += checks.reference_errors(tables, reference)
    return errors, tables


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--tiny", action="store_true", help="self-test size (N=20)")
    p.add_argument("--reference", type=Path, default=None,
                   help="reference values to compare with (default: the committed "
                        "ones at the default seed, none otherwise)")
    p.add_argument("--write-reference", type=Path, default=None,
                   help="write reference values from the first invocation "
                        "instead of comparing with any")
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        p.error("--seed must be in [0, 2**63)")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    command, cfg = workload_config(args.workload, args.seed, args.tiny)
    reference_path = args.reference
    if args.write_reference is not None:
        reference_path = None
    elif reference_path is None and args.seed == DEFAULT_SEED and not args.tiny:
        reference_path = HERE / "reference" / f"{args.workload}.json"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    work = OUT / f"{tag}-{time.time_ns()}"
    work.mkdir(parents=True)
    try:
        return run(args, command, cfg, reference_path, tag, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, command, cfg, reference_path, tag, work: Path) -> int:
    config_path = work / "config.yaml"
    write_config(cfg, config_path)
    per_invocation = checks.realizations(command, cfg)
    reference = None
    errors: list[str] = []
    if reference_path is not None:
        try:
            reference = json.loads(Path(reference_path).read_text())
        except (OSError, ValueError) as exc:
            errors.append(f"reference {reference_path} unreadable: {exc}")

    # The oracle runs outside every timed interval; it also fails fast, with
    # no result printed, where heatvalve cannot be imported.
    params = oracle_params(args.workload, command, cfg, args.seed)
    _, oracle, stderr = launch(["oracle", json.dumps(params)], work / "oracle.json", 120)
    if oracle is None:
        print(f"benchmark cannot run heatvalve:\n{stderr}", file=sys.stderr)
        return 2
    if not oracle["max_abs_dev"] <= ORACLE_TOL:
        errors.append(f"Fock oracle (M={oracle['modes']}): max |engine - fock| = "
                      f"{oracle['max_abs_dev']:.3e} > {ORACLE_TOL}")

    invocations = []
    begun = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(invocations) % 2 == 1
        out_dir = work / f"out{len(invocations)}"
        cli_args = [command, "--config", str(config_path), "--out", str(out_dir),
                    "--jobs", "1"]
        spawned, res, stderr = launch(["cli", str(config_path), "1" if traced else "0",
                                       *cli_args], work / "result.json", 120)
        inv = {"traced": traced, "realizations": per_invocation, "errors": []}
        invocations.append(inv)
        if res is None:
            inv["errors"].append(f"benchmark process failed: {stderr.strip()[-2000:]}")
            break
        inv.update(main_s=res["end"] - res["start"], cpu_s=res["cpu_s"],
                   setup_s=res["setup_done"] - spawned,
                   peak_rss_mb=res["peak_rss_mb"], exit_code=res["exit_code"])
        if res["exit_code"] != 0:
            inv["errors"].append(f"heatvalve exited {res['exit_code']}: {stderr.strip()[-2000:]}")
        else:
            inv_errors, tables = check_outputs(command, cfg, out_dir, reference)
            inv["errors"] += inv_errors
            if args.write_reference is not None and len(invocations) == 1:
                args.write_reference.write_text(
                    json.dumps(checks.make_reference(command, tables), indent=1) + "\n")
        if traced:
            inv["trace"] = res["trace"]
            inv["absent"] = res["absent"]
            inv["layers"] = tracer.layer_metrics(res["trace"])
            inv["realization_closure_s"] = tracer.realization_closure(res["trace"]["spans"])
        shutil.rmtree(out_dir, ignore_errors=True)
        now = time.perf_counter()
        minimum = 2 * MIN_INVOCATIONS - 2 if args.trace else MIN_INVOCATIONS
        # Start another invocation only if one as long as the last still fits.
        if len(invocations) >= minimum and 2 * now - spawned - begun > args.seconds:
            break

    attempted = per_invocation * len(invocations)
    failed = per_invocation * sum(1 for inv in invocations if inv["errors"])
    if errors:  # a failed oracle or reference fails every operation
        failed = attempted
    timed = [inv for inv in invocations if "main_s" in inv]
    metrics = (layer_report(timed) if args.trace else end_to_end(timed)) if timed else {}

    environment = {**oracle["environment"], "git_commit": git_commit(), "jobs": 1,
                   "workload": args.workload, "seed": args.seed,
                   "invocations": len(invocations)}
    report = {"environment": environment, "config": cfg, "command": command,
              "oracle": oracle | {"params": params}, "errors": errors,
              "invocations": invocations, "metrics": metrics}
    (OUT / f"{tag}.json").write_text(json.dumps(report))
    print(json.dumps({"environment": environment}))
    for msg in errors + [e for inv in invocations for e in inv["errors"]][:20]:
        print(f"check failed: {msg}")
    print(f"report: {(OUT / f'{tag}.json').relative_to(ROOT)}")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def end_to_end(invocations: list[dict]) -> dict:
    def median(key):
        return statistics.median(inv[key] for inv in invocations)

    return {
        "realizations_per_s": {
            "value": statistics.median(inv["realizations"] / inv["main_s"] for inv in invocations),
            "unit": "1/s"},
        "setup_s": {"value": median("setup_s"), "unit": "s"},
        "peak_rss_mb": {"value": median("peak_rss_mb"), "unit": "MB"},
    }


def layer_report(invocations: list[dict]) -> dict:
    traced = [inv for inv in invocations if inv["traced"]]
    plain = [inv for inv in invocations if not inv["traced"]]
    metrics = {}
    for name in traced[0]["layers"] if traced else ():
        timing = name.endswith("_s")
        # Counts repeat exactly; median_low keeps them whole numbers.
        pick = statistics.median if timing else statistics.median_low
        metrics[name] = {"value": pick(inv["layers"][name] for inv in traced),
                         "unit": "s" if timing else "count"}
    if traced and plain:
        ratio = (statistics.median(inv["main_s"] for inv in traced)
                 / statistics.median(inv["main_s"] for inv in plain))
        metrics["trace.overhead_ratio"] = {"value": ratio, "unit": "ratio"}
    return metrics


if __name__ == "__main__":
    sys.exit(main())
