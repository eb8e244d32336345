import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_suite_collects_without_pythonpath():
    # pyproject.toml puts src on the path, so a plain `python -m pytest` finds heatvalve
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    res = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--collect-only", "-p", "no:cacheprovider",
         "tests/test_config.py"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert res.returncode == 0, res.stdout + res.stderr
