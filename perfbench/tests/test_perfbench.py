"""Self-test of the benchmark harness at tiny size (N=20, one realization per job).

    python3 -m pytest perfbench/tests
"""

import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, trace=0, *extra, seed=3):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny", *map(str, extra)],
        capture_output=True, text=True, timeout=300,
    )
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1]), proc


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_its_unit(workload, trace, section):
    code, result, proc = bench(workload, trace)
    assert code == 0, proc.stdout + proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_gate_trips_on_perturbed_reference(tmp_path):
    ref = tmp_path / "reference.json"
    code, result, proc = bench("trace-long", 0, "--write-reference", ref)
    assert code == 0, proc.stderr
    code, result, _ = bench("trace-long", 0, "--reference", ref)
    assert code == 0 and result["correct"]

    data = json.loads(ref.read_text())
    row = data["files"]["trace.csv"]["rows"][5]
    row[3] *= 1 + 1e-3  # total current, far outside REL_TOL
    ref.write_text(json.dumps(data))
    code, result, proc = bench("trace-long", 0, "--reference", ref)
    assert code == 1
    assert not result["correct"] and result["failed"] == result["attempted"]
    assert "total" in proc.stdout


def test_structural_check_catches_broken_sum():
    cfg = {"kind": "rwa", "time_step": 0.5, "t_max": 1.0, "bath_size": 2}
    rows = [["0.0", "rwa", "2", "0.0", "0.0", "0.0", "0.0"],
            ["0.5", "rwa", "2", "0.25", "0.25", "0.0", "0.1"],
            ["1.0", "rwa", "2", "0.5", "0.25", "0.0", "0.1"]]
    tables = {"trace.csv": [checks.TRACE_HEADER] + rows}
    errors = checks.structural_errors("trace", cfg, tables)
    assert len(errors) == 1 and "row 2" in errors[0]
    rows[2][4] = "0.5"
    rows[1][5] = "1e-3"
    errors = checks.structural_errors("trace", cfg, tables)
    assert len(errors) == 2 and all("row 1" in e for e in errors)


def test_absent_target_is_reported_not_fatal():
    def sample_bath():
        return "bath"

    valve = types.ModuleType("valve")
    valve.sample_bath = sample_bath
    experiments = types.ModuleType("experiments")
    experiments.sample_bath = sample_bath  # a from-import of the same function
    t = tracer.Tracer("test")
    absent = t.install({"valve": valve, "experiments": experiments},
                       targets=("valve.sample_bath", "evolution.gone", "valve.gone"))
    assert absent == ["evolution.gone", "valve.gone"]
    assert experiments.sample_bath is valve.sample_bath is not sample_bath
    assert experiments.sample_bath() == "bath"
    assert [s[2] for s in t.spans] == ["valve.sample_bath"]


def test_self_times_add_up_to_each_realization():
    code, _, proc = bench("dist-small", 1)
    assert code == 0, proc.stderr
    report = next(line for line in proc.stdout.splitlines() if line.startswith("report: "))
    data = json.loads((ROOT / report.removeprefix("report: ")).read_text())
    traced = [inv for inv in data["invocations"] if inv["traced"]]
    assert traced
    for inv in traced:
        assert inv["realization_closure_s"] < 1e-9
        spans = inv["trace"]["spans"]
        own = tracer.self_times(spans)
        assert min(own) > -1e-9
        root = [s for s in spans if s["parent"] is None]
        assert [s["name"] for s in root] == ["cli.main"]
        assert abs(sum(own) - (root[0]["end"] - root[0]["start"])) < 1e-9
