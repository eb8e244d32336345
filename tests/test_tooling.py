import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_suite_collects_without_pythonpath():
    # pyproject.toml puts src on the path, so a plain `python -m pytest` finds heatvalve;
    # test_nambu.py also imports the tests' own reference module
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    res = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--collect-only", "-p", "no:cacheprovider",
         "tests/test_config.py", "tests/test_nambu.py"],
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


def test_cli_import_loads_no_optional_scipy():
    # sweep, trace and dist need numpy, PyYAML and scipy.linalg alone; oracle
    # anomalous loads scipy.integrate and fock-check scipy.sparse when they run
    code = ("import sys, heatvalve.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[:2] in "
            "[['scipy', p] for p in ('integrate', 'optimize', 'special', 'sparse')]))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    res = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"
