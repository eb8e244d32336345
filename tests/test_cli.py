import csv
import json

import pytest

from heatvalve import experiments, heisenberg_time, levels_per_linewidth, relaxation_time
from heatvalve.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main
from heatvalve.valve import sample_bath


def write_config(tmp_path, extra="", **overrides):
    base = {
        "schema_version": 1,
        "bath_size": 4,
        "seed": 3,
        "realizations": 2,
        "time_step": 0.5,
        "window": [20, 30],
        "t_max": 5.0,
    }
    base.update(overrides)
    lines = [f"{k}: {v}" for k, v in base.items()]
    path = tmp_path / "exp.yaml"
    path.write_text("\n".join(lines) + "\n" + extra)
    return path


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        comment = fh.readline()
        assert comment.startswith("# units:")
        rows = list(csv.reader(fh))
    for row in rows[1:]:
        for cell in row:
            check_cell(cell)
    return rows[0], rows[1:]


def check_cell(cell):
    """A kind, an int written as str(int) or a float as repr(float): never np.float64(...)."""
    if cell in ("exact", "rwa"):
        return
    try:
        assert cell == str(int(cell))
    except ValueError:
        assert cell == repr(float(cell))


class TestSweep:
    def test_row_count_and_header(self, tmp_path):
        cfg = write_config(tmp_path, "gamma_grid: [0.0, 0.3]\n")
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        header, rows = read_csv(out / "sweep.csv")
        assert header == [
            "gamma_over_omega0", "kind", "mean_current", "std_current",
            "landauer", "weak_coupling", "realizations",
        ]
        assert len(rows) == 2 * 2  # |gamma_grid| x both kinds

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path, "gamma_grid: [0.2]\n")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["sweep", "--config", str(cfg), "--out", str(out1)])
        main(["sweep", "--config", str(cfg), "--out", str(out2)])
        assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        cfg = write_config(tmp_path, "gamma_grid: [0.2]\n")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["sweep", "--config", str(cfg), "--out", str(out1)])
        main(["sweep", "--config", str(cfg), "--out", str(out2), "--seed", "99"])
        assert (out1 / "sweep.csv").read_bytes() != (out2 / "sweep.csv").read_bytes()

    def test_largest_seed_is_accepted(self, tmp_path):
        cfg = write_config(tmp_path, "gamma_grid: [0.2]\n")
        out = tmp_path / "out"
        seed = str(2**64 - 1)
        assert main(["sweep", "--config", str(cfg), "--out", str(out), "--seed", seed]) == EXIT_OK
        assert json.loads((out / "manifest.json").read_text())["master_seed"] == 2**64 - 1

    def test_manifest_written(self, tmp_path):
        cfg = write_config(tmp_path, "gamma_grid: [0.2]\n")
        out = tmp_path / "out"
        main(["sweep", "--config", str(cfg), "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == ["sweep.csv"]
        assert manifest["master_seed"] == 3
        assert len(manifest["config_hash"]) == 64

    def test_manifest_physical_scales(self, tmp_path):
        cfg = write_config(tmp_path, "gamma_grid: [0.0, 0.3]\n")
        out = tmp_path / "out"
        main(["sweep", "--config", str(cfg), "--out", str(out)])
        scales = json.loads((out / "manifest.json").read_text())["physical_scales"]
        assert [(s["gamma_over_omega0"], s["bath_size"]) for s in scales] == [(0.0, 4), (0.3, 4)]
        assert scales[0]["relaxation_time"] is None  # infinite at gamma = 0
        assert scales[0]["levels_per_linewidth"] == 0.0
        assert scales[1]["relaxation_time"] == pytest.approx(relaxation_time(0.3), rel=1e-15)
        assert scales[1]["heisenberg_time"] == pytest.approx(heisenberg_time(4), rel=1e-15)
        assert scales[1]["levels_per_linewidth"] == pytest.approx(
            levels_per_linewidth(0.3, 4), rel=1e-15
        )

    def test_couplings_under_the_deflation_tolerance(self, tmp_path):
        # every coupling deflated: the centre is the broken arrow's one root
        cfg = write_config(tmp_path, "gamma_grid: [1.0e-15]\n", bath_size=20, kind="exact")
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        _, rows = read_csv(out / "sweep.csv")
        assert [row[1] for row in rows] == ["exact"]

    def test_missing_gamma_grid(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG


class TestTrace:
    def test_header_and_time_column(self, tmp_path):
        cfg = write_config(tmp_path, "gamma: 0.3\nkind: exact\n")
        out = tmp_path / "out"
        assert main(["trace", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        header, rows = read_csv(out / "trace.csv")
        assert header == ["time", "kind", "N", "total", "normal", "anomalous", "pert_anomalous"]
        times = [float(r[0]) for r in rows]
        assert times == sorted(times)
        assert len(set(times)) == len(times)

    def test_rwa_anomalous_column_zero(self, tmp_path):
        cfg = write_config(tmp_path, "gamma: 0.3\nkind: rwa\n")
        out = tmp_path / "out"
        main(["trace", "--config", str(cfg), "--out", str(out)])
        _, rows = read_csv(out / "trace.csv")
        assert all(float(r[5]) == 0.0 for r in rows)

    def test_zero_coupling_zero_current(self, tmp_path):
        cfg = write_config(tmp_path, "gamma: 0.0\nkind: exact\n")
        out = tmp_path / "out"
        main(["trace", "--config", str(cfg), "--out", str(out)])
        _, rows = read_csv(out / "trace.csv")
        assert all(float(r[3]) == 0.0 for r in rows)

    def test_bath_sizes_expand_rows(self, tmp_path):
        cfg = write_config(tmp_path, "gamma: 0.2\nkind: rwa\nbath_sizes: [3, 5]\n")
        out = tmp_path / "out"
        main(["trace", "--config", str(cfg), "--out", str(out)])
        _, rows = read_csv(out / "trace.csv")
        assert {r[2] for r in rows} == {"3", "5"}
        scales = json.loads((out / "manifest.json").read_text())["physical_scales"]
        assert [(s["gamma_over_omega0"], s["bath_size"]) for s in scales] == [(0.2, 3), (0.2, 5)]
        assert scales[1]["heisenberg_time"] == pytest.approx(heisenberg_time(5), rel=1e-15)

    def test_kinds_share_one_bath_per_size(self, tmp_path, monkeypatch):
        sizes = []

        def counting(config):
            sizes.append(config.bath_size)
            return sample_bath(config)

        monkeypatch.setattr(experiments, "sample_bath", counting)
        cfg = write_config(tmp_path, "gamma: 0.2\nkind: both\nbath_sizes: [3, 5]\n")
        out = tmp_path / "out"
        assert main(["trace", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert sizes == [3, 5]
        _, rows = read_csv(out / "trace.csv")
        for N in ("3", "5"):
            exact, rwa = ([r[6] for r in rows if r[2] == N and r[1] == kind]
                          for kind in ("exact", "rwa"))
            assert len(exact) == 11 and exact == rwa


class TestDist:
    def test_writes_one_file_per_distribution(self, tmp_path):
        cfg = write_config(tmp_path, "gamma_grid: [0.2]\nkind: rwa\n")
        out = tmp_path / "out"
        assert main(["dist", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        names = {p.name for p in out.glob("sweep_*.csv")}
        assert names == {"sweep_uniform.csv", "sweep_gaussian.csv", "sweep_equal.csv"}
        for name in names:
            assert len(read_csv(out / name)[1]) == 1
        scales = json.loads((out / "manifest.json").read_text())["physical_scales"]
        assert [(s["gamma_over_omega0"], s["bath_size"]) for s in scales] == [(0.2, 4)]
        assert scales[0]["relaxation_time"] == pytest.approx(relaxation_time(0.2), rel=1e-15)

    def test_grid_longer_than_the_seed_stride_is_refused(self, tmp_path, capsys, monkeypatch):
        def never(*args):
            raise AssertionError("a realization ran")

        monkeypatch.setattr(experiments, "_steady_state_job", never)
        cfg = write_config(tmp_path, f"gamma_grid: {[0.1] * 1001}\n")
        out = tmp_path / "out"
        assert main(["dist", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert "'gamma_grid' has 1001 points" in capsys.readouterr().err
        assert not out.exists()


class TestOracle:
    def test_fermi_value(self, capsys):
        assert main(["oracle", "fermi", "--x", "1"]) == EXIT_OK
        assert float(capsys.readouterr().out) == pytest.approx(0.2689414213699951, abs=1e-15)

    def test_weak_coupling_value(self, capsys):
        main(["oracle", "weak", "--gamma", "0.1", "--t1", "1", "--t2", "0"])
        assert float(capsys.readouterr().out) == pytest.approx(1.4082e-3, abs=1e-7)

    # at 0.003 the centre peak is narrower than 2e-5: adaptive quadrature
    # stepped over it and printed a negative current
    @pytest.mark.parametrize("gamma", ["0.01", "0.003"])
    def test_landauer_approaches_weak_limit(self, gamma, capsys):
        main(["oracle", "landauer", "--gamma", gamma])
        landauer = float(capsys.readouterr().out)
        main(["oracle", "weak", "--gamma", gamma])
        weak = float(capsys.readouterr().out)
        assert landauer / weak == pytest.approx(1.0, abs=1e-3)


class TestExitCodes:
    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["sweep", "--config", str(tmp_path / "gone.yaml"), "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "gone.yaml" in capsys.readouterr().err

    def test_invalid_config_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "gamma_grid: [0.1]\nbogus: 7\n")
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "bogus" in capsys.readouterr().err

    def test_invalid_full_override(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "gamma_grid: [0.1]\nfull: {kind: bogus, bogus_key: 3}\n")
        out = tmp_path / "o"
        assert main(["sweep", "--full", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert "bogus_key" in capsys.readouterr().err
        assert not (out / "sweep.csv").exists()

    def test_boolean_bath_size(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "gamma: 0.2\nbath_sizes: [true, 2]\n")
        assert main(["trace", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "bath_sizes" in capsys.readouterr().err

    def test_empty_bath_sizes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "gamma: 0.2\nbath_sizes: []\n")
        out = tmp_path / "o"
        assert main(["trace", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert "'bath_sizes'" in capsys.readouterr().err
        assert not out.exists()

    def test_out_naming_a_file_fails_before_the_run(self, tmp_path, capsys, monkeypatch):
        def never(*args):
            raise AssertionError("a realization ran")

        monkeypatch.setattr(experiments, "_steady_state_job", never)
        cfg = write_config(tmp_path, "gamma_grid: [0.2]\n")
        out = tmp_path / "out"
        out.write_text("kept")
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert "output directory" in capsys.readouterr().err
        assert out.read_text() == "kept"

    def test_failed_run_removes_the_directories_it_made(self, tmp_path, capsys, monkeypatch):
        def no_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(experiments, "arrow_propagator", no_memory)
        cfg = write_config(tmp_path, "gamma_grid: [0.2]\n")
        (tmp_path / "kept").mkdir()
        out = tmp_path / "kept" / "a" / "b"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_NUMERICAL
        assert (tmp_path / "kept").exists() and not (tmp_path / "kept" / "a").exists()

    def test_fock_check_passes(self, capsys):
        assert main(["fock-check", "--n", "2", "--gamma", "0.3"]) == EXIT_OK

    @pytest.mark.parametrize("n", ["6", "0"])
    def test_fock_check_refuses_bath_beyond_oracle(self, n, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fock-check", "--n", n])
        assert exc.value.code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "--n" in err and "numerical failure" not in err

    def test_unknown_internal_coupling_key(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "gamma_grid: [0.2]\ninternal_coupling: {generator: random_hermitian, scal: 5.0}\n",
        )
        out = tmp_path / "o"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert "internal_coupling.scal" in capsys.readouterr().err
        assert not (out / "sweep.csv").exists()

    def test_aliasing_time_step(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "gamma_grid: [0.2]\n", time_step=1.0, window="[20, 50]")
        out = tmp_path / "o"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "numerical failure" in err and "pi/(2 s_max)" in err
        assert not out.exists()

    @pytest.mark.parametrize("command, extra", [
        ("sweep", "gamma_grid: [0.2]\n"), ("trace", "gamma: 0.2\n"),
    ], ids=["sweep", "trace"])
    def test_out_of_memory_is_a_numerical_failure(self, tmp_path, capsys, monkeypatch,
                                                  command, extra):
        def no_memory(*args):
            raise MemoryError("Unable to allocate 596. GiB for an array")

        monkeypatch.setattr(experiments, "arrow_propagator", no_memory)
        argv = [command, "--config", str(write_config(tmp_path, extra)), "--out", str(tmp_path)]
        assert main(argv) == EXIT_NUMERICAL
        # one line, no traceback
        assert capsys.readouterr().err == (
            "numerical failure: out of memory: Unable to allocate 596. GiB for an array\n"
        )

    def test_programming_error_escapes(self, tmp_path, monkeypatch):
        def broken(*args):
            raise TypeError("broken call")

        monkeypatch.setattr(experiments, "arrow_propagator", broken)
        cfg = write_config(tmp_path, "gamma_grid: [0.2]\n")
        with pytest.raises(TypeError, match="broken call"):
            main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")])

    def test_window_with_too_few_samples(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "gamma_grid: [0.2]\n", window="[20, 21]")
        out = tmp_path / "o"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "window" in err and "numerical failure" not in err
        assert not out.exists()


@pytest.mark.parametrize("command,extra,overrides,key", [
    ("trace", "gamma: .inf\n", {}, "gamma"),
    ("trace", "gamma: .nan\n", {}, "gamma"),
    ("sweep", "gamma_grid: [0.1, .inf]\n", {}, "gamma_grid"),
    ("sweep", "gamma_grid: [.nan]\n", {}, "gamma_grid"),
    ("sweep", "gamma_grid: [0.1]\n", {"time_step": ".inf"}, "time_step"),
    ("trace", "gamma: 0.1\n", {"t_max": ".inf"}, "t_max"),
    ("sweep", "gamma_grid: [0.1]\n", {"window": "[.nan, 50]"}, "window"),
    ("sweep", "gamma_grid: [0.1]\n", {"window": "[20, .inf]"}, "window"),
    ("sweep", "gamma_grid: [0.1]\ninternal_coupling: {scale: .inf}\n", {},
     "internal_coupling.scale"),
], ids=["gamma-inf", "gamma-nan", "gamma_grid-inf", "gamma_grid-nan", "time_step-inf",
        "t_max-inf", "window-nan", "window-inf", "internal_coupling.scale-inf"])
def test_non_finite_config_values_are_config_errors(tmp_path, capsys, command, extra,
                                                    overrides, key):
    cfg = write_config(tmp_path, extra, **overrides)
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"'{key}'" in err and "numerical failure" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["oracle", "landauer", "--n", "0"],
    ["oracle", "weak", "--gamma", "-0.5"],
    ["oracle", "landauer", "--t1", "-1"],
    ["oracle", "landauer", "--t2", "-0.1"],
    ["oracle", "anomalous", "--temp", "-1"],
    ["fock-check", "--gamma", "-1"],
    ["oracle", "anomalous", "--t", "-5"],
    ["oracle", "selfenergy", "--omega", "3"],
    ["oracle", "transmission", "--omega", "2"],
    ["oracle", "selfenergy", "--omega", "0"],
    ["sweep", "--config", "c.yaml", "--out", "o", "--seed", "-1"],
    ["sweep", "--config", "c.yaml", "--out", "o", "--seed", "18446744073709551616"],
    ["sweep", "--config", "c.yaml", "--out", "o", "--seed", "18446744073709551617"],
    ["trace", "--config", "c.yaml", "--out", "o", "--seed", "-1"],
    ["dist", "--config", "c.yaml", "--out", "o", "--seed", "-1"],
    ["fock-check", "--seed", "-1"],
    ["sweep", "--config", "c.yaml", "--out", "o", "--jobs", "0"],
    ["dist", "--config", "c.yaml", "--out", "o", "--jobs", "-4"],
], ids=["n", "gamma", "t1", "t2", "temp", "fock-check-gamma", "t", "selfenergy-omega",
        "transmission-omega-edge", "selfenergy-omega-zero", "sweep-seed-negative",
        "sweep-seed-2**64", "sweep-seed-2**64+1", "trace-seed-negative", "dist-seed-negative",
        "fock-check-seed-negative", "sweep-jobs-zero", "dist-jobs-negative"])
def test_out_of_range_arguments_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert argv[-2] in err and "outside" in err
