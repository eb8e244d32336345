import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_suite_collects_without_pythonpath():
    # pyproject.toml puts src on the path, so a plain `python -m pytest` finds heatvalve,
    # and the test modules import the tests' own reference module; every module
    # is collected, so one that fails at import fails here
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    res = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--collect-only", "-p", "no:cacheprovider",
         "tests"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert res.returncode == 0, res.stdout + res.stderr


def test_benchmark_oracle_runs(tmp_path):
    # the benchmark's own library calls: ValveConfig, InternalCouplingSpec,
    # simulate_trace, sample_bath, apply_internal_couplings, fock.exact_current
    params = {"bath_size": 2, "gamma": 0.3, "rwa": False, "coupling_dist": "uniform",
              "seed": 7, "internal_coupling_scale": 0.1}
    result = tmp_path / "oracle.json"
    res = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "launch.py"), "oracle", str(result),
         json.dumps(params)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert res.returncode == 0, res.stdout + res.stderr
    assert json.loads(result.read_text())["max_abs_dev"] <= 1e-9


RUNS_WITHOUT_SCIPY = r"""
import sys
from pathlib import Path
import heatvalve.cli as cli

tmp = Path(sys.argv[1])
base = ("schema_version: 1\nbath_size: 4\nseed: 3\nrealizations: 2\ntime_step: 0.5\n"
        "window: [20, 30]\nt_max: 5.0\n")
for command, extra in (("sweep", "gamma_grid: [0.0, 0.3]\n"), ("trace", "gamma: 0.3\n"),
                       ("dist", "gamma_grid: [0.2]\n")):
    cfg = tmp / f"{command}.yaml"
    cfg.write_text(base + extra)
    assert cli.main([command, "--config", str(cfg), "--out", str(tmp / command), "--jobs", "1"]) == 0
pool = sorted(m for m in sys.modules if m in ("multiprocessing", "concurrent.futures.process"))
for formula in ("fermi", "weak", "landauer", "transmission", "selfenergy"):
    assert cli.main(["oracle", formula]) == 0
print(pool)
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_sweep_trace_and_dist_load_no_scipy(tmp_path):
    # sweep, trace, dist and every closed-form oracle need numpy and PyYAML
    # alone; oracle anomalous loads scipy.integrate and fock-check
    # scipy.sparse when they run.  With one job no process pool opens, so
    # neither multiprocessing nor concurrent.futures.process is loaded
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    res = subprocess.run([sys.executable, "-c", RUNS_WITHOUT_SCIPY, str(tmp_path)], cwd=ROOT,
                         env=env, capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    pool_modules, scipy_modules = res.stdout.strip().splitlines()[-2:]
    assert pool_modules == "[]"
    assert scipy_modules == "[]"


def test_committed_bench_reports_are_comparable():
    # a BENCH_*.json pairs the harness reports of a parent and a change on
    # one workload of BENCHMARK.json; each side records the seed, the BLAS
    # thread count and the commit it measured, without which no speedup counts
    workloads = {w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
    reports = sorted((ROOT / "bench").glob("BENCH_*.json"))
    assert reports
    for path in reports:
        report = json.loads(path.read_text())
        assert set(report) == {"about", "command", "workload", "parent", "change"}, path.name
        assert report["workload"] in workloads, path.name
        for side in ("parent", "change"):
            environment = report[side]["environment"]
            for key in ("seed", "blas_threads", "git_commit"):
                assert key in environment, (path.name, side, key)
            assert environment["workload"] == report["workload"], (path.name, side)


def test_readme_names_existing_attributes():
    # every `module.NAME` in README.md that names a module of the package
    # names an attribute of it (and every `heatvalve.module` a module), so
    # a constant or function deleted or renamed cannot leave README stale
    modules = {p.stem for p in (ROOT / "src" / "heatvalve").glob("*.py")}
    refs = re.findall(r"`(\w+)\.(\w+)`", (ROOT / "README.md").read_text(encoding="utf-8"))
    named = [(m, n) for m, n in refs if m in modules]
    assert len(named) >= 9
    for module, name in named:
        assert hasattr(importlib.import_module(f"heatvalve.{module}"), name), f"{module}.{name}"
    for module in {n for m, n in refs if m == "heatvalve"}:
        assert module in modules, f"heatvalve.{module}"
