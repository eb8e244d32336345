"""End-to-end acceptance suite.

Each test checks one headline claim of the package at its stated tolerance
and records a single pass/fail line, shown in the terminal summary after
the run.  Criteria 3 and 4 run at figure scale (N = 1200) and take several
minutes each on one core; everything else is desk scale.
"""

import itertools
import time

import numpy as np

from heatvalve import (
    InternalCouplingSpec,
    ValveConfig,
    apply_internal_couplings,
    arrow_propagator,
    bath_levels,
    build_arrow,
    empirical_gamma,
    heat_current,
    sample_bath,
    thermal_occupations,
    weak_coupling_current,
)
from heatvalve import fock
from heatvalve.cli import main
from heatvalve.experiments import (
    derive_seed,
    run_distribution_comparison,
    run_sweep,
    run_trace,
    simulate_trace,
)

from reference import (
    bath_hamiltonian,
    build_hamiltonian,
    build_nambu,
    dense,
    evolve,
    expectation,
    expectation_series,
    initial_correlation,
    ph_swap,
    steady_state_estimate,
)

# the steady-state window and time step of the sweep criteria
WINDOW = dict(window=(20.0, 50.0), time_step=0.05)


def test_criterion_1_fock_oracle_equivalence(criterion_report):
    rng = np.random.default_rng(101)
    times = np.linspace(0.0, 20.0, 41)
    start = time.monotonic()
    worst = 0.0
    count = 52
    for i in range(count):
        n = int(rng.choice([1, 2, 3, 4], p=[0.3, 0.3, 0.25, 0.15]))
        cfg = ValveConfig(
            bath_size=n,
            gamma=0.0 if i < 2 else float(rng.uniform(0, 1)),
            t_hot=float(rng.choice([0.0, 0.5, 1.0])),
            t_cold=float(rng.choice([0.0, 0.5, 1.0])),
            rwa=bool(i % 2),
            seed=int(rng.integers(2**63)),
            internal_coupling=InternalCouplingSpec(scale=0.2) if i % 3 == 0 else None,
        )
        trace = simulate_trace(cfg, times)
        bath = apply_internal_couplings(cfg, sample_bath(cfg))
        dev = np.abs(trace.total - fock.exact_current(cfg, bath, times)).max()
        worst = max(worst, float(dev))
    elapsed = time.monotonic() - start
    ok = worst < 1e-9 and elapsed < 60.0
    criterion_report(
        1, "Fock-oracle equivalence", ok,
        f"{count} instances, max pointwise dev {worst:.2e}, {elapsed:.1f} s",
    )


def test_criterion_2_weak_coupling_scaling(criterion_report):
    grid = [0.02, 0.04, 0.06, 0.08, 0.1]
    template = ValveConfig(bath_size=600, gamma=0.0, t_hot=1.0, t_cold=0.0, seed=202)
    records = run_sweep(template, grid, realizations=5, kinds=("rwa",), **WINDOW)
    means = np.array([r.mean_current for r in records])
    weak = np.array([r.weak_coupling for r in records])
    slope = float(np.polyfit(np.log(grid), np.log(means), 1)[0])
    ratios = means / weak
    ok = abs(slope - 2.0) <= 0.1 and bool(np.all(np.abs(ratios - 1) <= 0.10))
    criterion_report(
        2, "weak-coupling scaling, N=600 window [20,50]", ok,
        f"log-log slope {slope:.2f} (want 2.0 +- 0.1), "
        f"mean/weak ratios {np.round(ratios, 3).tolist()} (want within 10% of 1)",
    )


def test_criterion_3_landauer_agreement(criterion_report):
    grid_agree = [0.05, 0.1, 0.2, 0.4]
    # from the (measured) crossover at gamma ~ 0.7 up to where the suppression
    # of the exact current below the continuum limit starts to saturate
    grid_strong = [0.7, 0.85, 1.0]
    template = ValveConfig(bath_size=1200, gamma=0.0, t_hot=1.0, t_cold=0.0, seed=303)
    records = run_sweep(
        template, grid_agree, realizations=3, kinds=("exact", "rwa"), **WINDOW
    )
    records += run_sweep(
        template, grid_strong, realizations=4, kinds=("exact",), grid_offset=100, **WINDOW
    )
    by = {(r.gamma_over_omega0, r.kind): r for r in records}
    failures = []
    for g, kind in itertools.product(grid_agree, ("exact", "rwa")):
        r = by[(g, kind)]
        tol = max(0.10 * abs(r.landauer), 2 * r.std_current)
        if abs(r.mean_current - r.landauer) > tol:
            failures.append(
                f"{kind}@gamma={g}: mean {r.mean_current:.3e} vs "
                f"Landauer {r.landauer:.3e} (tol {tol:.1e})"
            )
    devs = [by[(g, "exact")].landauer - by[(g, "exact")].mean_current for g in grid_strong]
    if not all(d > 0 for d in devs):
        failures.append(f"exact: current not below Landauer on {grid_strong}")
    if not all(a < b for a, b in zip(devs, devs[1:])):
        failures.append(f"exact: deviation not monotone on {grid_strong}")
    ok = not failures
    criterion_report(
        3, "Landauer agreement, N=1200 window [20,50]", ok,
        "; ".join(failures) if failures else "all grid points within tolerance",
    )


def test_criterion_4_anomalous_current_formula(criterion_report):
    cfg = ValveConfig(bath_size=1200, gamma=0.1, t_hot=1.0, t_cold=0.0, seed=404)
    times = np.arange(0.0, 50.0 + 0.025, 0.05)
    traces, pert = run_trace(cfg, times, kinds=("exact",))
    anom = traces["exact"].anomalous
    rel = float(np.sqrt(np.mean((anom - pert) ** 2) / np.mean(anom**2)))
    ok = rel < 0.15
    criterion_report(
        4, "first-order anomalous-current formula", ok,
        f"relative RMS deviation {rel:.3f} (want < 0.15)",
    )


def test_criterion_5_rwa_structure(criterion_report):
    cfg = ValveConfig(
        bath_size=100, gamma=0.3, t_hot=1.0, t_cold=0.2, rwa=True, seed=505
    )
    bath = sample_bath(cfg)
    arrow = build_arrow(cfg, bath)
    prop = arrow_propagator(arrow, thermal_occupations(cfg, bath))
    times = np.linspace(0.0, 50.0, 251)
    trace = heat_current(prop, bath_levels(cfg, bath, 2), times)
    anom_max = float(np.abs(trace.anomalous).max())
    number_op = build_nambu(np.eye(cfg.modes))
    n_series = expectation_series(dense(prop), number_op, times)
    drift = float(np.abs(n_series - n_series[0]).max())
    ok = anom_max < 1e-12 and drift < 1e-9
    criterion_report(
        5, "RWA structure", ok,
        f"max |anomalous| {anom_max:.1e} (< 1e-12), "
        f"particle-number drift {drift:.1e} (< 1e-9)",
    )


def test_criterion_6_distribution_invariance(criterion_report):
    grid = [0.05, 0.1, 0.2, 0.35, 0.5]
    template = ValveConfig(bath_size=500, gamma=0.0, t_hot=1.0, t_cold=0.0, seed=606)
    out = run_distribution_comparison(template, grid, realizations=10, kinds=("rwa",), **WINDOW)
    failures = []
    for gi, g in enumerate(grid):
        recs = {d: out[d][gi] for d in out}
        for (d1, r1), (d2, r2) in itertools.combinations(recs.items(), 2):
            pooled = float(np.hypot(r1.std_current, r2.std_current))
            gap = abs(r1.mean_current - r2.mean_current)
            if gap > 2 * pooled:
                failures.append(
                    f"{d1} vs {d2} @gamma={g}: gap {gap:.2e} > 2*pooled {2 * pooled:.2e}"
                )
    ok = not failures
    criterion_report(
        6, "coupling-distribution invariance, N=500", ok,
        "; ".join(failures) if failures else "all pairs within 2 pooled std",
    )


def test_criterion_7_conservation_and_structure(criterion_report):
    instances = [
        ValveConfig(bath_size=30, gamma=0.3, t_hot=1.0, t_cold=0.0, seed=71),
        ValveConfig(bath_size=25, gamma=0.6, t_hot=0.5, t_cold=0.5, rwa=True, seed=72),
        ValveConfig(
            bath_size=20, gamma=0.2, t_hot=1.0, t_cold=0.0, seed=73,
            internal_coupling=InternalCouplingSpec(scale=0.15),
        ),
    ]
    worst = dict.fromkeys(
        ("energy", "hermiticity", "trace", "spectrum", "ph", "finite_diff"), 0.0
    )
    dt = 1e-4
    for cfg in instances:
        bath = apply_internal_couplings(cfg, sample_bath(cfg))
        arrow = build_arrow(cfg, bath)
        prop = arrow_propagator(arrow, thermal_occupations(cfg, bath))
        # dense references
        dense_prop = dense(prop)
        H = build_hamiltonian(cfg, bath)
        chi0 = initial_correlation(cfg, bath)
        Hb = bath_hamiltonian(cfg, bath, 2)
        e0 = expectation(H, chi0)
        spec0 = np.linalg.eigvalsh(chi0.data)
        X = ph_swap(cfg.modes)
        eye = np.eye(2 * cfg.modes)
        for t in (0.0, 1.3, 7.0, 23.5):
            chi = evolve(dense_prop, t)
            worst["energy"] = max(
                worst["energy"], abs(expectation(H, chi) - e0) / max(abs(e0), 1.0)
            )
            worst["hermiticity"] = max(
                worst["hermiticity"], float(np.abs(chi.data - chi.data.conj().T).max())
            )
            worst["trace"] = max(worst["trace"], abs(chi.data.trace().real - cfg.modes))
            worst["spectrum"] = max(
                worst["spectrum"],
                float(np.abs(np.linalg.eigvalsh(chi.data) - spec0).max()),
            )
            worst["ph"] = max(
                worst["ph"], float(np.abs(chi.data + X @ chi.data.T @ X - eye).max())
            )
            current = heat_current(prop, bath_levels(cfg, bath, 2), [t]).total[0]
            fd = (
                expectation(Hb, evolve(dense_prop, t + dt))
                - expectation(Hb, evolve(dense_prop, t - dt))
            ) / (2 * dt)
            worst["finite_diff"] = max(worst["finite_diff"], abs(current - fd))
    ok = (
        worst["energy"] < 1e-9
        and worst["hermiticity"] < 1e-12
        and worst["trace"] < 1e-9
        and worst["spectrum"] < 1e-9
        and worst["ph"] < 1e-10
        and worst["finite_diff"] < 1e-6
    )
    # the spectrum residual is eigvalsh's rounding noise, so it is printed
    # against its bound: its digits move with any 1-ulp change of the state
    spectrum = worst.pop("spectrum")
    detail = ", ".join(f"{k} {v:.1e}" for k, v in worst.items())
    detail += f", spectrum {'< 1e-9' if spectrum < 1e-9 else f'{spectrum:.1e}'}"
    criterion_report(7, "conservation and structure suite", ok, detail)


def test_criterion_8_internal_coupling_invariance(criterion_report):
    sims, preds = [], []
    norm_dev = 0.0
    window = (150.0, 400.0)
    times = np.arange(window[0], window[1] + 0.05, 0.1)
    for r in range(6):
        cfg = ValveConfig(
            bath_size=200, gamma=0.1, t_hot=1.0, t_cold=0.0,
            seed=derive_seed(808, r),
            internal_coupling=InternalCouplingSpec(scale=0.1),
        )
        bath = sample_bath(cfg)
        tbath = apply_internal_couplings(cfg, bath)
        for a in range(2):
            before = float(np.sum(bath.couplings[a] ** 2))
            after = float(np.sum(np.abs(tbath.couplings[a]) ** 2))
            norm_dev = max(norm_dev, abs(after - before) / before)
        g1 = empirical_gamma(tbath.frequencies[0], tbath.couplings[0], 1.0)
        g2 = empirical_gamma(tbath.frequencies[1], tbath.couplings[1], 1.0)
        preds.append(weak_coupling_current(g1, g2, cfg.t_hot, cfg.t_cold))
        trace = simulate_trace(cfg, times)
        mean, _ = steady_state_estimate(trace, window)
        sims.append(mean)
    pooled = float(np.hypot(np.std(sims), np.std(preds)))
    gap = abs(float(np.mean(sims)) - float(np.mean(preds)))
    ok = norm_dev < 1e-10 and gap <= 2 * pooled
    criterion_report(
        8, "internal-coupling invariance, N=200", ok,
        f"coupling-norm dev {norm_dev:.1e} (< 1e-10), mean sim {np.mean(sims):.3e} "
        f"vs empirical-DOS prediction {np.mean(preds):.3e}, "
        f"gap {gap:.2e} <= 2*pooled {2 * pooled:.2e}",
    )


def test_criterion_9_determinism(criterion_report, tmp_path):
    cfg_path = tmp_path / "exp.yaml"
    cfg_path.write_text(
        "schema_version: 1\n"
        "bath_size: 50\n"
        "gamma: 0.2\n"
        "gamma_grid: [0.1, 0.3]\n"
        "kind: rwa\n"
        "seed: 9\n"
        "realizations: 2\n"
        "time_step: 0.1\n"
        "window: [20, 30]\n"
        "t_max: 10.0\n"
    )
    identical = True
    for command, name in (("sweep", "sweep.csv"), ("trace", "trace.csv")):
        out1, out2 = tmp_path / f"{command}_a", tmp_path / f"{command}_b"
        assert main([command, "--config", str(cfg_path), "--out", str(out1)]) == 0
        assert main([command, "--config", str(cfg_path), "--out", str(out2)]) == 0
        if (out1 / name).read_bytes() != (out2 / name).read_bytes():
            identical = False
    criterion_report(
        9, "determinism", identical,
        "sweep.csv and trace.csv byte-identical across reruns"
        if identical else "outputs differ between reruns",
    )
