import dataclasses
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import jv

from heatvalve import (
    Arrow,
    ArrowPropagator,
    BathRealization,
    CurrentTrace,
    InternalCouplingSpec,
    ValveConfig,
    anomalous_current_discrete,
    apply_internal_couplings,
    arrow_propagator,
    bath_levels,
    build_arrow,
    heat_current,
    sample_bath,
    thermal_occupations,
    window_mean_current,
)
from heatvalve import analytics, evolution
from heatvalve.analytics import occupation
from heatvalve.evolution import (
    _gram_rule,
    _panel_degree,
    _window_rule,
    chebyshev_panels,
    phase_blocks,
    window_times,
)

from reference import (
    CorrelationMatrix,
    bath_hamiltonian,
    build_hamiltonian,
    build_nambu,
    dense,
    dense_current,
    evolve,
    expectation,
    expectation_series,
    factors,
    initial_correlation,
    make_propagator,
    random_correlation,
    random_nambu,
    rate_series,
    steady_state_estimate,
)


def arrow_setup(**kw):
    """A valve's arrow and propagator, as ``simulate_trace`` builds them."""
    base = dict(bath_size=6, gamma=0.3, t_hot=1.0, t_cold=0.0, seed=5)
    base.update(kw)
    cfg = ValveConfig(**base)
    bath = apply_internal_couplings(cfg, sample_bath(cfg))
    arrow = build_arrow(cfg, bath)
    prop = arrow_propagator(arrow, thermal_occupations(cfg, bath))
    return cfg, bath, arrow, prop


class TestEvolve:
    def test_t0_recovers_initial_state(self):
        rng = np.random.default_rng(0)
        H = random_nambu(rng, 5)
        chi0 = random_correlation(rng, 5)
        prop = make_propagator(H, chi0)
        assert np.abs(evolve(prop, 0.0).data - chi0.data).max() < 1e-12

    def test_diagonal_hamiltonian_keeps_diagonal_state(self):
        h = np.diag([0.3, 1.1, 1.7])
        chi0_diag = np.diag([0.9, 0.4, 0.2, 0.1, 0.6, 0.8])
        prop = make_propagator(
            build_nambu(h), CorrelationMatrix(modes=3, data=chi0_diag)
        )
        chi_t = evolve(prop, 4.2).data
        assert np.abs(chi_t - np.diag(np.diagonal(chi_t))).max() < 1e-12
        assert np.abs(chi_t - chi0_diag).max() < 1e-12

    def test_matches_matrix_exponential(self):
        rng = np.random.default_rng(1)
        H = random_nambu(rng, 5)
        chi0 = random_correlation(rng, 5)
        prop = make_propagator(H, chi0)
        for t in (0.3, 2.0, 7.7):
            U = expm(-1j * H.data * t)
            want = U @ chi0.data @ U.conj().T
            assert np.abs(evolve(prop, t).data - want).max() < 1e-10

    def test_zero_hamiltonian_freezes_state(self):
        rng = np.random.default_rng(2)
        chi0 = random_correlation(rng, 4)
        prop = make_propagator(build_nambu(np.zeros((4, 4))), chi0)
        assert np.abs(evolve(prop, 31.4).data - chi0.data).max() < 1e-12

    def test_spectrum_and_trace_preserved(self):
        rng = np.random.default_rng(3)
        H = random_nambu(rng, 20)
        chi0 = random_correlation(rng, 20)
        prop = make_propagator(H, chi0)
        want = np.linalg.eigvalsh(chi0.data)
        for t in (1.0, 9.5):
            chi_t = evolve(prop, t)
            chi_t.validate()
            assert np.abs(np.linalg.eigvalsh(chi_t.data) - want).max() < 1e-10
            assert chi_t.data.trace().real == pytest.approx(20.0, abs=1e-10)

    def test_negative_time_reverses(self):
        rng = np.random.default_rng(4)
        H = random_nambu(rng, 4)
        chi0 = random_correlation(rng, 4)
        prop = make_propagator(H, chi0)
        fwd = make_propagator(H, evolve(prop, 2.5))
        assert np.abs(evolve(fwd, -2.5).data - chi0.data).max() < 1e-10

    def test_mode_mismatch(self):
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError, match="mismatch"):
            make_propagator(random_nambu(rng, 3), random_correlation(rng, 4))


class TestExpectationSeries:
    def test_matches_pointwise_expectation(self):
        cfg, bath, _, prop = arrow_setup()
        rng = np.random.default_rng(10)
        cases = [
            (dense(prop), bath_hamiltonian(cfg, bath, 2)),  # the valve's arrow basis
            # complex H and state: a complex basis and contraction
            (make_propagator(random_nambu(rng, 7), random_correlation(rng, 7)),
             random_nambu(rng, 7)),
        ]
        times = np.array([0.0, 1.5, 6.0, 12.25])
        for prop, O in cases:
            series = expectation_series(prop, O, times)
            for i, t in enumerate(times):
                assert series[i] == pytest.approx(
                    expectation(O, evolve(prop, t)), abs=1e-12
                )


# time grids of a trace against the block size B
TRACE_GRIDS = {
    "empty": lambda B: np.array([]),
    "one": lambda B: np.array([7.3]),
    "under_block": lambda B: np.linspace(0, 30, B - 3),
    "two_blocks": lambda B: np.linspace(0, 30, 2 * B),
    "block_plus_7": lambda B: np.linspace(0, 30, B + 7),
    "unequal": lambda B: np.sort(np.random.default_rng(3).uniform(-5, 40, B + 7)),
}


class TestPhaseBlocks:
    def phases(self, x):
        """cos x and sin x from phase_blocks at s = 1, blocks joined."""
        parts = [(cos[0], sin[0]) for _, cos, sin in phase_blocks(np.ones(1), x)]
        return np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts])

    def test_matches_numpy_within_eps(self):
        # the poles of tan(x/2), at and beside odd multiples of pi, and t = 0
        odd = np.pi * np.arange(-41, 2000, 2.0)
        x = np.concatenate([
            [0.0, -0.0, 5e-324, 1e-300, 1e-8],
            odd, np.nextafter(odd, np.inf), np.nextafter(odd, -np.inf),
            np.nextafter(np.nextafter(odd, np.inf), np.inf),
            np.random.default_rng(4).uniform(-1e4, 1e4, 5000),
        ])
        cos, sin = self.phases(x)
        eps = np.finfo(float).eps
        assert np.abs(cos - np.cos(x)).max() <= 2 * eps
        assert np.abs(sin - np.sin(x)).max() <= 2 * eps
        assert cos[0] == 1.0 and sin[0] == 0.0

    def test_blocks_cover_the_times_in_order(self, monkeypatch):
        monkeypatch.setattr(evolution, "TRACE_BLOCK", 4)
        s = np.array([0.5, 1.0, 2.0])
        for T in (0, 1, 3, 4, 8, 11):
            times = np.linspace(0, 9, T)
            blocks = list(phase_blocks(s, times))
            assert [b for b, _, _ in blocks] == [slice(t, t + 4) for t in range(0, T, 4)]
            for block, cos, sin in blocks:
                assert cos.shape == sin.shape == (3, len(times[block]))
        # a block holds at least M times
        blocks = list(phase_blocks(np.ones(6), np.arange(13.0)))
        assert [b for b, _, _ in blocks] == [slice(0, 6), slice(6, 12), slice(12, 18)]


@pytest.mark.parametrize("part", ["exact", "rwa", "overlay"])
def test_trace_memory_is_blocked(part):
    """No (M, T) or (T, N) array: the traced peak is O(n B + n^2 + T) for n = M or N."""
    M, T = 201, 20001
    cfg, bath, _, prop = arrow_setup(bath_size=100, rwa=(part == "rwa"))
    times = np.arange(T) * 0.05
    if part == "overlay":
        n = cfg.bath_size
        run = lambda: anomalous_current_discrete(bath.frequencies[1], 0.0, cfg.gamma, times)
    else:
        n = M
        levels = bath_levels(cfg, bath, 2)
        run = lambda: heat_current(prop, levels, times)
    B = max(evolution.TRACE_BLOCK, n)
    bound = 8 * (5 * n * B + 4 * n * n + 16 * T)  # bytes
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one (n, T) array alone is 8 n T bytes: 32 MB for M, 16 MB for N
    assert bound < 8 * n * T / 2
    assert peak < bound, f"peak {peak / 1e6:.1f} MB over the bound {bound / 1e6:.1f} MB"


class TestHeatCurrent:
    def test_zero_coupling_zero_current(self):
        cfg, bath, arrow, prop = arrow_setup(gamma=0.0)
        trace = heat_current(prop, bath_levels(cfg, bath, 2), np.linspace(0, 20, 30))
        assert np.abs(trace.total).max() == 0.0

    def test_starts_at_zero_for_uncorrelated_state(self):
        cfg, bath, arrow, prop = arrow_setup()
        trace = heat_current(prop, bath_levels(cfg, bath, 2), [0.0])
        assert abs(trace.total[0]) < 1e-12

    def test_rwa_anomalous_identically_zero(self):
        cfg, bath, arrow, prop = arrow_setup(rwa=True)
        trace = heat_current(prop, bath_levels(cfg, bath, 2), np.linspace(0, 20, 101))
        assert np.abs(trace.anomalous).max() == 0.0

    def test_lowrank_equals_dense(self, monkeypatch):
        # a block holds B = max(TRACE_BLOCK, M) times: 16 for the 13-mode
        # valve, M for the others
        monkeypatch.setattr(evolution, "TRACE_BLOCK", 16)
        cases = [
            dict(bath_size=25),
            dict(bath_size=25, rwa=True, t_cold=0.3),
            dict(bath_size=12, internal_coupling=InternalCouplingSpec(scale=0.3)),
            dict(bath_size=6, internal_coupling=InternalCouplingSpec(scale=0.2)),
        ]
        for kw in cases:
            cfg, bath, arrow, prop = arrow_setup(**kw)
            H = build_hamiltonian(cfg, bath)
            for grid in TRACE_GRIDS.values():
                times = grid(max(16, arrow.modes))
                got = heat_current(prop, bath_levels(cfg, bath, 2), times)
                normal, anomalous = dense_current(
                    dense(prop), H, bath_hamiltonian(cfg, bath, 2), times
                )
                assert len(got.times) == len(times)
                assert np.abs(got.normal - normal).max(initial=0.0) < 1e-13
                assert np.abs(got.anomalous - anomalous).max(initial=0.0) < 1e-13
                if cfg.rwa:
                    assert np.abs(got.anomalous).max(initial=0.0) == 0.0

    def test_matches_finite_difference_of_bath_energy(self):
        cfg, bath, arrow, prop = arrow_setup()
        Hb = bath_hamiltonian(cfg, bath, 2)
        dense_prop = dense(prop)
        dt = 1e-4
        for t0 in (0.5, 7.3, 18.0):
            current = heat_current(prop, bath_levels(cfg, bath, 2), [t0]).total[0]
            fd = (
                expectation(Hb, evolve(dense_prop, t0 + dt))
                - expectation(Hb, evolve(dense_prop, t0 - dt))
            ) / (2 * dt)
            assert current == pytest.approx(fd, abs=1e-6)

    def test_rejects_wrong_length_levels(self):
        cfg, bath, arrow, prop = arrow_setup()
        levels = bath_levels(cfg, bath, 2)
        nambu_diagonal = np.concatenate([levels, -levels])
        for bad in (levels[:-1], np.append(levels, 0.5), nambu_diagonal, np.diag(levels)):
            with pytest.raises(ValueError, match="shape"):
                heat_current(prop, bad, [0.0, 1.0])
            with pytest.raises(ValueError, match="shape"):
                window_mean_current(prop, bad, (20.0, 30.0), 0.5)

    def test_complex_or_misshaped_factors_are_refused(self):
        _, _, arrow, prop = arrow_setup()
        assert prop.arrow is arrow
        other_arrow = arrow_setup(bath_size=5)[2]
        parts = {f.name: getattr(prop, f.name) for f in dataclasses.fields(prop)}
        ArrowPropagator(**parts)
        with pytest.raises(ValueError, match="array of shape"):
            ArrowPropagator(**{**parts, "arrow": other_arrow})
        for name, value in parts.items():
            if name == "arrow":
                continue
            for bad in (value.astype(complex), value[:-1], value[None]):
                with pytest.raises(ValueError, match=f"{name} must be an? (real|integer) array"):
                    ArrowPropagator(**{**parts, name: bad})
        with pytest.raises(ValueError, match="perm must be an integer array"):
            ArrowPropagator(**{**parts, "perm": parts["perm"].astype(float)})


def synthetic_series(band, terms=40, seed=0):
    """direct(t) of a random series with frequencies in [-band, band], and the log of its calls."""
    rng = np.random.default_rng(seed)
    omega = rng.uniform(-band, band, terms)
    omega[0] = band
    a, b = rng.standard_normal((2, terms))
    calls = []

    def direct(t):
        x = np.multiply.outer(omega, t)
        out = np.stack([a @ np.cos(x), b @ np.sin(x)])
        calls.append((np.array(t), out))
        return out

    return direct, calls


def assert_within_column_max(got, want, tol=1e-12):
    """Every row of got within tol of the largest |entry| of the same row of want."""
    for g, w in zip(np.atleast_2d(got), np.atleast_2d(want)):
        assert np.abs(g - w).max() <= tol * np.abs(w).max()


def phased_times(monkeypatch, module):
    """The number of times ``module.phase_blocks`` phases, per call."""
    seen = []
    blocks = module.phase_blocks

    def counting(s, times):
        seen.append(len(times))
        return blocks(s, times)

    monkeypatch.setattr(module, "phase_blocks", counting)
    return seen


class TestChebyshevPanels:
    # multiply-adds per time of the synthetic direct path: panels pay off
    WORK = 10**6

    def test_matches_the_series(self):
        direct, calls = synthetic_series(3.0)
        times = np.linspace(0.0, 300.0, 6001)
        got = chebyshev_panels(direct, times, 3.0, self.WORK)
        # one call, at the nodes alone
        assert len(calls) == 1 and len(calls[0][0]) < len(times) / 4
        assert_within_column_max(got, direct(times))

    def test_times_in_any_order_negative_and_repeated(self):
        direct, calls = synthetic_series(3.0, seed=1)
        grid = np.linspace(-150.0, 150.0, 6001)
        times = np.random.default_rng(2).permutation(np.concatenate([grid, grid[::7], [0.0] * 3]))
        got = chebyshev_panels(direct, times, 3.0, self.WORK)
        assert len(calls) == 1 and calls[0][0].min() == -150.0 and calls[0][0].max() == 150.0
        assert_within_column_max(got, direct(times))

    def test_node_times_take_the_node_values(self):
        direct, calls = synthetic_series(3.0, seed=3)
        grid = np.linspace(-0.3, 299.9, 6001)
        chebyshev_panels(direct, grid, 3.0, self.WORK)
        nodes, _ = calls[0]
        assert nodes[0] == grid[0] and nodes[-1] == grid[-1]
        # a panel's last node is the next one's first: the panel boundaries
        shared = np.flatnonzero(nodes[1:] == nodes[:-1])
        assert len(shared) >= 2
        picks = np.array([0, 5, shared[0], shared[0] + 1, shared[1] - 3, len(nodes) - 1])
        beside = [np.nextafter(nodes[shared[0]], np.inf), np.nextafter(nodes[shared[0]], -np.inf)]
        times = np.concatenate([grid, nodes[picks], beside])
        got = chebyshev_panels(direct, times, 3.0, self.WORK)
        again, values = calls[-1]
        assert np.array_equal(again, nodes)  # the range, so the nodes, are unchanged
        T = len(grid)
        for i, j in enumerate(picks):
            assert np.array_equal(got[:, T + i], values[:, j])
        assert np.array_equal(got[:, [0, T - 1]], values[:, [0, -1]])  # the grid's ends
        assert_within_column_max(got, direct(times))

    def test_a_single_panel(self):
        direct, calls = synthetic_series(1.0, seed=4)
        times = np.linspace(0.0, 100.0, 2001)  # band * span / 2 = 50 <= PANEL_PHASE
        got = chebyshev_panels(direct, times, 1.0, self.WORK)
        nodes, _ = calls[0]
        assert len(nodes) == evolution._panel_degree(50.0) + 1
        assert np.all(np.diff(nodes) > 0)
        assert_within_column_max(got, direct(times))

    @pytest.mark.parametrize("times, work", [
        (np.full(5000, 3.0), WORK),  # zero width
        (np.linspace(0.0, 300.0, 500), WORK),  # fewer times than nodes
        (np.linspace(0.0, 300.0, 6001), 1),  # interpolation costs more
        (np.array([np.nan, *np.linspace(0.0, 300.0, 6000)]), WORK),
        (np.array([0.0, np.inf, *np.linspace(0.0, 300.0, 6000)]), WORK),
        (np.array([]), WORK),
    ], ids=["zero_width", "few_times", "cheap_direct", "nan", "inf", "empty"])
    def test_direct_path_when_panels_do_not_pay(self, times, work):
        direct, calls = synthetic_series(3.0)
        with np.errstate(invalid="ignore"):  # cos(inf)
            got = chebyshev_panels(direct, times, 3.0, work)
        assert len(calls) == 1 and np.array_equal(calls[0][0], times, equal_nan=True)
        assert got is calls[0][1]


def test_panel_degree_bounds_the_bessel_coefficients():
    # J_n(z) < eps / 50 at n = _panel_degree(z) for every z <= PANEL_DEGREE_PHASE_MAX:
    # the degree the panels and the window means' Gauss rules rely on
    z = np.linspace(0.0, evolution.PANEL_DEGREE_PHASE_MAX, 22001)
    n = np.array([_panel_degree(x) for x in z])
    assert np.abs(jv(n, z)).max() < np.finfo(float).eps / 50


class TestHeatCurrentPanels:
    """heat_current and the overlay at sizes where the panel path is taken."""

    TIMES = np.arange(0.0, 200.0, 0.05)

    @pytest.mark.parametrize("kw", [
        dict(),
        dict(rwa=True),
        dict(internal_coupling=InternalCouplingSpec(scale=0.2)),
        dict(rwa=True, internal_coupling=InternalCouplingSpec(scale=0.2)),
    ], ids=["exact", "rwa", "exact_internal", "rwa_internal"])
    def test_matches_direct_and_dense(self, kw, monkeypatch):
        cfg, bath, _, prop = arrow_setup(bath_size=30, **kw)
        levels = bath_levels(cfg, bath, 2)
        phased = phased_times(monkeypatch, evolution)
        got = heat_current(prop, levels, self.TIMES)
        assert len(phased) == 1 and phased[0] < len(self.TIMES) / 3
        monkeypatch.setattr(evolution, "PANEL_TERM_COST", np.inf)
        want = heat_current(prop, levels, self.TIMES)
        assert phased[1] == len(self.TIMES)
        parts = ("total", "normal") if cfg.rwa else ("total", "normal", "anomalous")
        for name in parts:
            assert_within_column_max(getattr(got, name), getattr(want, name))
        assert got.total[0] == 0.0
        if cfg.rwa:
            assert np.abs(got.anomalous).max() == 0.0
        sub = slice(0, None, 97)
        normal, anomalous = dense_current(
            dense(prop), build_hamiltonian(cfg, bath), bath_hamiltonian(cfg, bath, 2),
            self.TIMES[sub],
        )
        assert np.abs(got.normal[sub] - normal).max() <= 1e-12 * np.abs(want.normal).max()
        assert np.abs(got.anomalous[sub] - anomalous).max() <= 1e-12 * np.abs(want.total).max()

    def test_overlay_matches_its_direct_sum(self, monkeypatch):
        cfg, bath, _, _ = arrow_setup(bath_size=100)
        w = bath.frequencies[1]
        times = np.arange(0.0, 500.0, 0.05)
        phased = phased_times(monkeypatch, analytics)
        got = anomalous_current_discrete(w, 0.0, cfg.gamma, times)
        assert phased[0] < len(times) / 3
        weight = 2 * cfg.gamma**2 / (3 * len(w)) * w * (1 - occupation(w, 0.0)) / (1 + w)
        want = weight @ np.sin(np.multiply.outer(1 + w, times))
        assert_within_column_max(got, want)
        assert got[0] == 0.0

    @pytest.mark.parametrize("gamma", [0.0, 0.3])
    def test_non_finite_times_are_refused(self, gamma):
        cfg, bath, _, prop = arrow_setup(gamma=gamma)
        levels = bath_levels(cfg, bath, 2)
        for times, bad in (([np.nan, 1.0], r"times\[0\] = nan"), ([np.inf], r"times\[0\] = inf"),
                           ([0.0, 2.0, -np.inf], r"times\[2\] = -inf")):
            with pytest.raises(ValueError, match=bad):
                heat_current(prop, levels, times)

    @pytest.mark.parametrize("rwa", [False, True], ids=["exact", "rwa"])
    def test_unresolved_phases_are_refused(self, rwa):
        # beyond s_max |t| = 1/eps fl(s t) keeps no digit of the phase
        cfg, bath, _, prop = arrow_setup(rwa=rwa)
        levels = bath_levels(cfg, bath, 2)
        s_max = prop.s.max()
        edge = 1 / (np.finfo(float).eps * s_max)
        heat_current(prop, levels, [0.0, 0.5 * edge])
        for t in (edge, -3 * edge, 1e300):
            with pytest.raises(ValueError, match=r"phase s_max\*\|t\| = .* beyond 1/eps") as exc:
                heat_current(prop, levels, [1.0, t, 2.0])
            assert f"t={t}" in str(exc.value) and f"s_max={s_max:.6g}" in str(exc.value)


def assert_equals_grid_mean(prop, levels, window, time_step):
    """window_mean_current against the current on every sample, then averaged."""
    trace = heat_current(prop, levels, window_times(window, time_step))
    want = steady_state_estimate(trace, window)[0]
    got = window_mean_current(prop, levels, window, time_step)
    assert got == pytest.approx(want, rel=1e-12, abs=0)


@dataclasses.dataclass(frozen=True)
class FactorDouble:
    """A stand-in realization from given s, P, Q and X, read as ``_forms`` reads a propagator.

    With alpha = beta = 1 and r = 0 (``state_scales``) the Löwner rows are
    the rows of X^T, and ``project`` and ``centre_rows`` give Q^T w, P^T w
    and the centre's rows, so the forms see X, P and Q as given, with no
    arrow solved.
    """

    arrow: Arrow
    s: np.ndarray
    P: np.ndarray
    Q: np.ndarray
    X: np.ndarray

    @property
    def roots(self):
        return len(self.s)

    def state_scales(self):
        return np.ones(self.roots), np.ones(self.roots), np.zeros(self.roots)

    def project(self, w):
        return self.Q.T @ w, self.P.T @ w

    def centre_rows(self):
        return self.Q[self.arrow.center], self.P[self.arrow.center]

    def lowner(self, l0, l1):
        return self.X.T[l0:l1].copy()


def assert_mean_is_term_sum(prop, levels, P, Q, X):
    """window_mean_current against the grid mean and the total 2 f_Q summed term by term."""
    s, arrow = prop.s, prop.arrow
    # the total 2 f_Q = -cos(st)^T G_Q sin(st)
    a, b = (levels * arrow.couplings) @ Q, Q[arrow.center]
    G = X * (np.outer(b, a) - np.outer(a, b))
    for window, time_step in (((20.0, 50.0), 0.05), ((200.0, 400.0), 0.05)):
        assert_equals_grid_mean(prop, levels, window, time_step)
        times = window_times(window, time_step)
        total = sum(
            -G[j, k] * np.cos(s[j] * times) * np.sin(s[k] * times)
            for j in range(len(s)) for k in range(len(s))
        )
        got = window_mean_current(prop, levels, window, time_step)
        assert got == pytest.approx(total.mean(), rel=1e-12, abs=0)


def assert_equals_dense_mean(cfg, bath, prop, window, time_step):
    """window_mean_current against the mean of the dense 2M x 2M route's current.

    The reference solves the dense H by ``np.linalg.eigh`` from chi(0)
    itself, not from the arrow solver's factors.
    """
    H = build_hamiltonian(cfg, bath)
    rate = rate_series(make_propagator(H, initial_correlation(cfg, bath)),
                       bath_hamiltonian(cfg, bath, 2), H, window_times(window, time_step))
    got = window_mean_current(prop, bath_levels(cfg, bath, 2), window, time_step)
    assert abs(got - rate.mean()) <= 1e-12 * np.abs(rate).max()


# repeated levels, a zero level and a +-level pair (test_majorana); with
# pairing the spectrum holds a zero mode, s ~ 1e-18
DEGENERATE = BathRealization(
    frequencies=np.array([[0.5, 0.5, 1.2], [0.0, -1.2, 0.8]]),
    couplings=np.array([[0.3, -0.2, 0.25], [0.15, 0.3, -0.1]]),
)


class TestGramRule:
    """The Gauss rule of a window's samples (``_gram_rule``, ``_window_rule``)."""

    @pytest.mark.parametrize("T, n", [(10, 4), (11, 10), (600, 55), (600, 157), (4000, 243)])
    def test_exact_on_the_samples(self, T, n):
        # every Chebyshev polynomial of degree <= 2n - 1 in [-1, 1] coordinates
        # averages as on the samples themselves
        nodes, weights = _gram_rule(T, n)
        assert len(nodes) == len(weights) == n
        scaled = 2 * nodes / (T - 1) - 1
        samples = 2 * np.arange(T) / (T - 1) - 1
        got = weights @ np.polynomial.chebyshev.chebvander(scaled, 2 * n - 1)
        want = np.polynomial.chebyshev.chebvander(samples, 2 * n - 1).mean(axis=0)
        assert np.abs(got - want).max() <= 1e-13
        assert weights.min() > 0 and weights.sum() == pytest.approx(1, abs=1e-14)

    @pytest.mark.parametrize("window, time_step", [((20.0, 50.0), 0.05), ((200.0, 400.0), 0.05)])
    def test_nodes_lie_strictly_inside_the_window(self, window, time_step):
        times = window_times(window, time_step)
        nodes, weights = _window_rule(times[0], time_step, len(times), s_max=2.2)
        assert len(nodes) < len(times) / 2
        assert window[0] < nodes.min() and nodes.max() < window[1]
        assert weights.min() > 0 and weights.sum() == pytest.approx(1, abs=1e-14)

    @pytest.mark.parametrize("n", [10, 11])
    def test_as_many_nodes_as_samples_are_the_samples(self, n):
        nodes, weights = _gram_rule(10, n)
        assert np.array_equal(nodes, np.arange(10.0))
        assert np.array_equal(weights, np.full(10, 0.1))

    def test_cached_read_only_and_repeatable(self):
        nodes, weights = _gram_rule(600, 55)
        assert not nodes.flags.writeable and not weights.flags.writeable
        again = _gram_rule(600, 55)
        assert again[0] is nodes and again[1] is weights
        _gram_rule.cache_clear()
        fresh = _gram_rule(600, 55)
        assert fresh[0] is not nodes
        assert np.array_equal(fresh[0], nodes) and np.array_equal(fresh[1], weights)


class TestWindowMeanCurrent:
    @pytest.mark.parametrize("kw, window, time_step", [
        (dict(bath_size=450, gamma=0.2), (20.0, 50.0), 0.05),
        (dict(bath_size=450, gamma=0.2), (200.0, 400.0), 0.5),
        (dict(bath_size=450, gamma=0.2, rwa=True, t_cold=0.3), (20.0, 50.0), 0.05),
        (dict(bath_size=450, gamma=0.2, rwa=True), (200.0, 400.0), 0.5),
        (dict(bath_size=12, internal_coupling=InternalCouplingSpec(scale=0.3)), (20.0, 50.0), 0.05),
        (dict(bath_size=6, internal_coupling=InternalCouplingSpec(scale=0.2)), (20.0, 30.0), 0.5),
        # s_max (t_hi - t_lo) = 1199 > PANEL_DEGREE_PHASE_MAX: two runs' rules
        (dict(bath_size=450, gamma=0.2), (0.0, 600.0), 0.05),
    ], ids=["exact-short", "exact-long", "rwa-short", "rwa-long", "real_internal",
            "internal_n6", "exact-composite"])
    def test_equals_grid_mean(self, kw, window, time_step):
        cfg, bath, arrow, prop = arrow_setup(**kw)
        levels = bath_levels(cfg, bath, 2)
        assert_equals_grid_mean(prop, levels, window, time_step)
        if arrow.modes <= 25:
            assert_equals_dense_mean(cfg, bath, prop, window, time_step)

    @pytest.mark.parametrize("rwa", [False, True], ids=["exact", "rwa"])
    @pytest.mark.parametrize("bath_size", [20, 32, 64, 128], ids=["M41", "M65", "M129", "M257"])
    def test_equals_grid_mean_at_chunk_edges(self, bath_size, rwa):
        # M = 2N + 1 inside one slice of form rows, and one row past one, two
        # and four slices: a last, one-row slice
        assert evolution.FORM_ROWS == 64
        cfg, bath, arrow, prop = arrow_setup(bath_size=bath_size, gamma=0.2, rwa=rwa)
        levels = bath_levels(cfg, bath, 2)
        assert_equals_grid_mean(prop, levels, (20.0, 50.0), 0.05)
        if arrow.modes <= 129:
            assert_equals_dense_mean(cfg, bath, prop, (20.0, 50.0), 0.05)

    @pytest.mark.parametrize("rwa", [False, True], ids=["exact", "rwa"])
    def test_degenerate_and_zero_levels(self, rwa):
        cfg = ValveConfig(bath_size=3, gamma=0.3, t_hot=1.0, t_cold=0.5, rwa=rwa)
        arrow = build_arrow(cfg, DEGENERATE)
        prop = arrow_propagator(arrow, thermal_occupations(cfg, DEGENERATE))
        levels = bath_levels(cfg, DEGENERATE, 2)
        for window, time_step in (((20.0, 50.0), 0.05), ((200.0, 400.0), 0.5)):
            assert_equals_grid_mean(prop, levels, window, time_step)
            assert_equals_dense_mean(cfg, DEGENERATE, prop, window, time_step)

    def test_near_degenerate_energies(self):
        # two quasiparticle energies 1e-10 apart dominate the mean: a slow
        # beat that the samples must carry without loss
        rng = np.random.default_rng(12)
        s = np.array([1.5, 1.5 - 1e-10, 0.4])
        P, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        e = rng.uniform(-1, 1, size=3)
        levels = np.array([0.0, 0.0, 1.3])
        for rwa in (False, True):
            if rwa:
                P = Q * np.array([1.0, -1.0, 1.0])  # an RWA basis: P = Q sign(l)
            arrow = Arrow(levels=np.array([0.7, 1.0, 1.3]), couplings=np.array([0.2, 0.0, -0.3]),
                          center=1, rwa=rwa)
            X = (Q.T * e) @ P
            prop = FactorDouble(arrow=arrow, s=s, P=P, Q=Q, X=X)
            assert_mean_is_term_sum(prop, levels, P, Q, X)

    def test_near_degenerate_arrow_energies(self):
        # two bath levels 1e-10 apart, weakly coupled: two quasiparticle
        # energies about 1e-10 apart in a solved arrow
        levels = np.array([0.0, 0.0, 1.5])
        n = np.array([0.05, 0.4, 0.85])
        for rwa in (False, True):
            arrow = Arrow(levels=np.array([1.5, 1.0, 1.5 + 1e-10]),
                          couplings=np.array([3e-6, 0.0, 3e-6]), center=1, rwa=rwa)
            prop = arrow_propagator(arrow, n)
            assert 0 < np.diff(np.sort(prop.s))[-1] < 2e-10
            assert_mean_is_term_sum(prop, levels, *factors(prop))

    @pytest.mark.parametrize("rwa", [False, True], ids=["exact", "rwa"])
    def test_peak_memory_is_below_one_form(self, rwa):
        # G is built a slice of rows at a time: the mean never holds an M x M
        # float64 array beside the propagator's own
        cfg, bath, arrow, prop = arrow_setup(bath_size=450, gamma=0.2, rwa=rwa)
        levels = bath_levels(cfg, bath, 2)
        tracemalloc.start()
        try:
            window_mean_current(prop, levels, (20.0, 50.0), 0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        one_form = 8 * arrow.modes**2
        assert peak < one_form, f"peak {peak / 1e6:.2f} MB over one form, {one_form / 1e6:.2f} MB"

    @pytest.mark.parametrize("rwa", [False, True], ids=["exact", "rwa"])
    def test_zero_coupling_is_exactly_zero(self, rwa):
        cfg, bath, arrow, prop = arrow_setup(gamma=0.0, rwa=rwa)
        got = window_mean_current(prop, bath_levels(cfg, bath, 2), (20.0, 50.0), 0.05)
        assert got == 0.0

    def test_sparse_window_rejected(self):
        cfg, bath, arrow, prop = arrow_setup()
        with pytest.raises(ValueError, match="only 5 samples"):
            window_mean_current(prop, bath_levels(cfg, bath, 2), (20.0, 22.0), 0.5)

    def test_unresolved_phases_are_refused(self):
        # samples whose phase s_max t reaches 1/eps, named by the last of them
        cfg, bath, arrow, prop = arrow_setup()
        levels = bath_levels(cfg, bath, 2)
        s_max = prop.s.max()
        edge = 1 / (np.finfo(float).eps * s_max)
        dt = 0.5 / s_max
        window_mean_current(prop, levels, (0.5 * edge, 0.5 * edge + 20 * dt), dt)
        window = (edge, edge + 20 * dt)
        with pytest.raises(ValueError, match=r"phase s_max\*\|t\| = .* beyond 1/eps") as exc:
            window_mean_current(prop, levels, window, dt)
        assert f"t={window_times(window, dt)[-1]}" in str(exc.value)

    def test_aliasing_time_step_is_refused(self):
        cfg, bath, arrow, prop = arrow_setup()
        levels = bath_levels(cfg, bath, 2)
        s_max = prop.s.max()
        bound = np.pi / (2 * s_max)
        window_mean_current(prop, levels, (20.0, 50.0), 0.99 * bound)
        for dt in (bound, 1.0):
            with pytest.raises(ValueError, match=r"s_max.*pi/\(2 s_max\)") as exc:
                window_mean_current(prop, levels, (20.0, 50.0), dt)
            assert f"dt={dt}" in str(exc.value)


class TestSteadyStateEstimate:
    @staticmethod
    def _trace(times, total):
        return CurrentTrace(
            times=times, total=total, normal=total.copy(), anomalous=np.zeros_like(total)
        )

    def test_constant_trace(self):
        times = np.linspace(20, 50, 61)
        mean, std = steady_state_estimate(self._trace(times, np.full(61, 3.25)), (20.0, 50.0))
        assert (mean, std) == (3.25, 0.0)

    def test_sinusoid_over_integer_periods_averages_out(self):
        times = np.linspace(20, 50, 3001)
        total = np.sin(2 * np.pi * times / 5)  # 6 full periods on [20, 50]
        mean, std = steady_state_estimate(self._trace(times, total), (20.0, 50.0))
        assert abs(mean) < 1e-3
        assert std == pytest.approx(np.sqrt(0.5), rel=1e-3)

    def test_window_subselects(self):
        times = np.linspace(0, 50, 501)
        total = np.where(times < 25, 0.0, 1.0)
        mean, _ = steady_state_estimate(self._trace(times, total), window=(30, 50))
        assert mean == 1.0

    def test_empty_window_rejected(self):
        times = np.linspace(0, 10, 101)
        with pytest.raises(ValueError, match="window"):
            steady_state_estimate(self._trace(times, np.zeros(101)), window=(20, 50))

    def test_sparse_window_rejected(self):
        times = np.linspace(0, 50, 26)
        with pytest.raises(ValueError, match="samples"):
            steady_state_estimate(self._trace(times, np.zeros(26)), window=(40, 50))


def test_window_times_are_the_averaged_samples():
    # np.arange overshoots: its 601st point is 50.000000000000426
    times = window_times((20.0, 50.0), 0.05)
    assert len(times) == 600
    assert times[0] == 20.0 and times[-1] <= 50.0


def test_current_trace_consistency_enforced():
    t = np.linspace(0, 1, 5)
    with pytest.raises(ValueError, match="normal"):
        CurrentTrace(times=t, total=np.ones(5), normal=np.zeros(5), anomalous=np.zeros(5))


def test_current_trace_refuses_nan():
    t = np.linspace(0, 1, 5)
    nan = np.full(5, np.nan)
    with pytest.raises(ValueError, match="normal"):
        CurrentTrace(times=t, total=nan, normal=nan, anomalous=nan)
