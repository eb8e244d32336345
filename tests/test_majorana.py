"""The M x M SVD of the valve's arrow against the 2M x 2M eigh.

The dense Nambu matrix from ``build_hamiltonian`` and its ``diagonalize``
(the 2M x 2M eigh, on a complex copy where a complex basis is wanted)
serve as the reference throughout.  Every valve's K = h + Delta must be
solved by the numpy secular solver ``nambu._secular_roots`` on its broken
arrow (under the RWA, the broken arrow of the shifted arrowhead),
coincident and zero levels included; a dense SVD or eigh call fails the
check.
"""

import dataclasses

import numpy as np
import pytest

from heatvalve import (
    BathRealization,
    CouplingDistribution,
    InternalCouplingSpec,
    ValveConfig,
    apply_internal_couplings,
    arrow_propagator,
    bath_levels,
    build_arrow,
    heat_current,
    sample_bath,
    thermal_occupations,
)
import heatvalve.experiments as experiments
import heatvalve.valve as valve_module
from heatvalve import evolution, fock, nambu
from heatvalve.experiments import simulate_trace

from reference import (
    CorrelationMatrix,
    NambuMatrix,
    bath_hamiltonian,
    build_hamiltonian,
    build_nambu,
    dense,
    dense_current,
    diagonalize,
    evolve,
    factors,
    initial_correlation,
    make_propagator,
    observable_rate,
)

TIMES = np.linspace(0.0, 30.0, 121)


def as_complex(H: NambuMatrix) -> NambuMatrix:
    return NambuMatrix(modes=H.modes, data=H.data.astype(complex),
                       const_offset=H.const_offset)


def center_level_at(monkeypatch, level):
    """Has ``build_arrow`` put the central level at ``level`` instead of omega0 = 1.

    No config moves the centre off the unit; this reaches the solver paths
    of a zero central level through the whole valve pipeline (the engine,
    ``build_hamiltonian`` and the Fock oracle).
    """
    def moved(config, bath):
        arrow = build_arrow(config, bath)
        levels = arrow.levels.copy()
        levels[arrow.center] = level
        return dataclasses.replace(arrow, levels=levels)

    for module in (valve_module, experiments):
        monkeypatch.setattr(module, "build_arrow", moved)


def valve(bath_size=40, edit=None, center_level=None, monkeypatch=None, **kw):
    """A valve realization; ``edit(freqs, couplings)`` may change the bath in place.

    A ``center_level`` is set through ``center_level_at`` on ``monkeypatch``.
    """
    if center_level is not None:
        center_level_at(monkeypatch, center_level)
    cfg = ValveConfig(bath_size=bath_size, t_hot=1.0, t_cold=0.0, seed=11, **kw)
    bath = apply_internal_couplings(cfg, sample_bath(cfg))
    if edit is not None:
        freqs, g = bath.frequencies.copy(), bath.couplings.copy()
        edit(freqs, g)
        bath = BathRealization(frequencies=freqs, couplings=g)
    return cfg, bath, build_hamiltonian(cfg, bath), initial_correlation(cfg, bath)


def zero_coupling(freqs, g):
    g[1, 2] = 0.0  # deflated: the level is its own singular value


def coincident_levels(freqs, g):
    freqs[1, 3] = freqs[0, 1]


def zero_level(freqs, g):
    freqs[0, 0] = 0.0  # coincides with the pole at 0 of the central column


def zero_levels(freqs, g):
    freqs[:] = 0.0


def equal_run(freqs, g):
    # four equal levels, two in each bath: hot and cold occupations differ
    freqs[0, 1] = freqs[0, 2] = freqs[1, 0] = freqs[1, 3] = freqs[0, 0]


# scale 1 shifts some levels below 0 (checked in test_negative_levels_present)
NEGATIVE = dict(gamma=0.3, internal_coupling=InternalCouplingSpec(scale=1.0))

VALVES = [
    pytest.param(dict(gamma=0.3, coupling_dist=dist), id=dist.value)
    for dist in CouplingDistribution
] + [
    pytest.param(dict(gamma=0.0), id="gamma0"),
    # every level at 0 and no coupling: K = 0
    pytest.param(dict(gamma=0.0, edit=zero_levels, center_level=0.0), id="zero_arrow"),
    pytest.param(dict(gamma=0.3, rwa=True), id="rwa"),
    # every coupling under the deflation tolerance: the centre is the one root
    pytest.param(dict(gamma=1e-15), id="tiny_coupling"),
    pytest.param(dict(gamma=1e-15, rwa=True), id="tiny_coupling_rwa"),
    pytest.param(dict(gamma=0.3, internal_coupling=InternalCouplingSpec(scale=0.2)),
                 id="random_hermitian"),
    pytest.param(NEGATIVE, id="negative_levels"),
    pytest.param(dict(gamma=0.3, edit=zero_coupling), id="zero_coupling"),
    # coupled poles moved apart by the solver
    pytest.param(dict(gamma=0.3, edit=coincident_levels), id="coincident_levels"),
    pytest.param(dict(gamma=0.3, edit=zero_level), id="zero_level"),
    pytest.param(dict(gamma=0.3, rwa=True, edit=coincident_levels), id="rwa_coincident"),
    pytest.param(dict(gamma=0.3, edit=equal_run), id="equal_run"),
    pytest.param(dict(gamma=0.3, rwa=True, edit=equal_run), id="rwa_equal_run"),
]


def propagate(cfg, bath):
    """The arrow and its propagator, as ``simulate_trace`` builds them."""
    arrow = valve_module.build_arrow(cfg, bath)
    return arrow, arrow_propagator(arrow, thermal_occupations(cfg, bath))


def solvers_called(monkeypatch, cfg, bath):
    """propagate(cfg, bath) with the dense SVD refused, and the solvers it called."""
    calls = []

    def counting(name, f):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return f(*args, **kwargs)
        return wrapped

    def refused(*args, **kwargs):
        raise AssertionError("dense SVD called")

    with monkeypatch.context() as m:
        m.setattr(nambu, "_secular_roots", counting("secular", nambu._secular_roots))
        m.setattr(np.linalg, "eigh", counting("eigh", np.linalg.eigh))
        m.setattr(np.linalg, "svd", refused)
        _, prop = propagate(cfg, bath)
    return prop, set(calls)


def test_negative_levels_present():
    _, bath, _, _ = valve(**NEGATIVE)
    assert (bath.frequencies < 0).any()


@pytest.mark.parametrize("kw", VALVES)
class TestValveHamiltonians:
    def test_svd_basis_matches_eigh(self, kw, monkeypatch):
        cfg, bath, H, _ = valve(monkeypatch=monkeypatch, **kw)
        prop, calls = solvers_called(monkeypatch, cfg, bath)
        assert calls == {"secular"}
        ref = diagonalize(as_complex(H))
        dense_prop = dense(prop)
        U, E = dense_prop.transform, dense_prop.eigenvalues
        assert np.isrealobj(U)
        assert np.abs(E - ref.eigenvalues).max() < 1e-13
        assert np.abs((U * E) @ U.T - H.data).max() < 1e-13
        assert np.abs(U.T @ U - np.eye(2 * cfg.modes)).max() < 1e-13

    def test_rotated_initial_state_matches_dense_rotation(self, kw, monkeypatch):
        cfg, bath, _, chi0 = valve(monkeypatch=monkeypatch, **kw)
        dense_prop = dense(propagate(cfg, bath)[1])
        U = dense_prop.transform
        assert np.abs(dense_prop.rotated_initial - U.T @ chi0.data @ U).max() < 1e-13

    def test_heat_current_matches_dense_and_eigh_paths(self, kw, monkeypatch):
        # blocks of M = 81 times: the 121 times are a full block and a short one
        monkeypatch.setattr(evolution, "TRACE_BLOCK", 1)
        cfg, bath, H, chi0 = valve(monkeypatch=monkeypatch, **kw)
        levels = bath_levels(cfg, bath, 2)
        _, prop = propagate(cfg, bath)
        got = heat_current(prop, levels, TIMES)
        Hb = bath_hamiltonian(cfg, bath, 2)
        dense_prop = dense(prop)
        total = np.array([observable_rate(Hb, H, evolve(dense_prop, t)) for t in TIMES])
        assert np.abs(got.total - total).max() < 1e-13
        # the 2M x 2M eigh route, split into parts by the blocks of H
        normal, anomalous = dense_current(make_propagator(as_complex(H), chi0), H, Hb, TIMES)
        for name, ref in (("total", normal + anomalous), ("normal", normal),
                          ("anomalous", anomalous)):
            assert np.abs(getattr(got, name) - ref).max() < 1e-13


@pytest.mark.parametrize("kw", [
    dict(gamma=0.2),
    dict(gamma=0.2, internal_coupling=InternalCouplingSpec(scale=0.1)),
], ids=["uniform", "random_hermitian"])
def test_broken_arrow_accuracy_at_large_n(kw, monkeypatch):
    # Löwner denominators formed as d_k^2 - d_j^2 instead of as products
    # reach 1.7e-12 here
    cfg, bath, H, _ = valve(bath_size=450, **kw)
    prop, calls = solvers_called(monkeypatch, cfg, bath)
    assert calls == {"secular"}
    dense_prop = dense(prop)
    U, E = dense_prop.transform, dense_prop.eigenvalues
    M = cfg.modes
    s = np.linalg.svd(H.particle_block + H.anomalous_block, compute_uv=False)
    assert np.abs(E[M:][::-1] - s).max() < 1e-13
    assert np.abs((U * E) @ U.T - H.data).max() <= 1e-13
    assert np.abs(U.T @ U - np.eye(2 * M)).max() <= 1e-13


def test_exact_degeneracies_and_zero_modes(monkeypatch):
    # repeated levels, a zero level and a +-level pair in one arrow: the
    # solver moves the coupled poles apart, with pairing and under the RWA;
    # at gamma = 0 every mode is deflated
    freqs = np.array([[0.5, 0.5, 1.2], [0.0, -1.2, 0.8]])
    couplings = np.array([[0.3, -0.2, 0.25], [0.15, 0.3, -0.1]])
    for rwa, scale in ((False, 1.0), (True, 1.0), (False, 0.0)):
        cfg = ValveConfig(bath_size=3, gamma=0.3, t_hot=1.0, t_cold=0.5, rwa=rwa)
        bath = BathRealization(frequencies=freqs.copy(), couplings=scale * couplings)
        prop, calls = solvers_called(monkeypatch, cfg, bath)
        assert calls == {"secular"}
        H = build_hamiltonian(cfg, bath)
        ref = diagonalize(as_complex(H))
        dense_prop = dense(prop)
        U, E = dense_prop.transform, dense_prop.eigenvalues
        assert np.abs(E - ref.eigenvalues).max() < 1e-14
        assert np.abs((U * E) @ U.T - H.data).max() < 1e-14
        assert np.abs(U.T @ U - np.eye(14)).max() < 1e-14
        chi0 = initial_correlation(cfg, bath)
        assert np.abs(dense_prop.rotated_initial - U.T @ chi0.data @ U).max() < 1e-14


def test_non_physical_diagonal_state_uses_dense_rotation():
    cfg, bath, H, _ = valve(bath_size=5, gamma=0.3)
    # a + b != 1: no thermal product state
    chi0 = CorrelationMatrix(modes=cfg.modes, data=np.diag(np.linspace(0.1, 0.9, 2 * cfg.modes)))
    prop = make_propagator(H, chi0)
    U = prop.transform
    assert np.abs(prop.rotated_initial - U.T @ chi0.data @ U).max() < 1e-14


class TestSolverPaths:
    def test_real_internal_couplings_run_from_arrow_and_match_fock(self, monkeypatch):
        spec = InternalCouplingSpec(scale=0.3)
        cfg, bath, _, _ = valve(bath_size=3, gamma=0.6, internal_coupling=spec)
        assert solvers_called(monkeypatch, cfg, bath)[1] == {"secular"}
        times = np.linspace(0.0, 20.0, 81)
        dev = np.abs(simulate_trace(cfg, times).total - fock.exact_current(cfg, bath, times))
        assert dev.max() < 1e-9

    @pytest.mark.parametrize("kw", [dict(gamma=0.6, edit=zero_coupling), NEGATIVE,
                                    dict(NEGATIVE, rwa=True), dict(gamma=0.6, edit=equal_run),
                                    dict(gamma=0.6, rwa=True, edit=equal_run)],
                             ids=["zero_coupling", "negative_levels", "rwa_negative_levels",
                                  "equal_run", "rwa_equal_run"])
    def test_broken_arrow_matches_fock(self, kw, monkeypatch):
        cfg, bath, _, _ = valve(bath_size=4, **kw)
        assert solvers_called(monkeypatch, cfg, bath)[1] == {"secular"}
        times = np.linspace(0.0, 20.0, 81)
        got = simulate_trace(cfg, times, bath=bath).total
        dev = np.abs(got - fock.exact_current(cfg, bath, times))
        assert dev.max() < 1e-9

    @pytest.mark.parametrize("rwa", [False, True], ids=["exact", "rwa"])
    def test_zero_center_level_matches_fock(self, rwa, monkeypatch):
        # the bath drawn on (0, 2), the centre at 0: with pairing its
        # z_c = 0 is raised to the deflation tolerance
        cfg, bath, _, _ = valve(bath_size=4, gamma=0.6, rwa=rwa, center_level=0.0,
                                monkeypatch=monkeypatch)
        assert solvers_called(monkeypatch, cfg, bath)[1] == {"secular"}
        times = np.linspace(0.0, 20.0, 81)
        got = simulate_trace(cfg, times, bath=bath).total
        dev = np.abs(got - fock.exact_current(cfg, bath, times))
        assert dev.max() < 1e-9

    def test_symmetric_pairing_block_is_not_taken_as_majorana(self):
        # [[h, D], [D, -h]] with D symmetric is Hermitian with a paired
        # spectrum, but h + D does not carry it
        rng = np.random.default_rng(3)
        h = rng.normal(size=(4, 4))
        h = (h + h.T) / 2
        D = rng.normal(size=(4, 4))
        D = (D + D.T) / 2
        H = NambuMatrix(modes=4, data=np.block([[h, D], [D, -h]]))
        svd_energies = np.sort(np.linalg.svd(h + D, compute_uv=False))
        basis = diagonalize(H)
        assert np.abs(basis.eigenvalues[4:] - svd_energies).max() > 1e-3
        U, E = basis.transform, basis.eigenvalues
        assert np.abs((U * E) @ U.T - H.data).max() < 1e-12

    def test_broken_hole_block_is_refused(self):
        rng = np.random.default_rng(4)
        H = build_nambu(np.diag(rng.uniform(0.5, 1.5, size=4)), rng.normal(size=(4, 4)))
        data = H.data.copy()
        data[4:, 4:] *= 1.5  # -h^T no longer the negated particle block
        with pytest.raises(ValueError, match="particle-hole"):
            diagonalize(NambuMatrix(modes=4, data=data))

    def test_probe_catches_bad_svd_basis(self, monkeypatch):
        cfg, bath, _, _ = valve(bath_size=5, gamma=0.3)
        good = nambu._broken_arrow_svd

        def corrupted(stack, weights, probe, work):
            parts, projected = good(stack, weights, probe, work)
            for name in ("s", "D2"):  # mislabel two quasiparticles
                parts[name][0, [0, 1]] = parts[name][0, [1, 0]]
            return parts, projected

        monkeypatch.setattr(nambu, "_broken_arrow_svd", corrupted)
        with pytest.raises(ValueError, match="probe"):
            propagate(cfg, bath)

    def test_probe_catches_nan(self, monkeypatch):
        cfg, bath, _, _ = valve(bath_size=5, gamma=0.3)
        good = nambu._broken_arrow_svd

        def corrupted(stack, weights, probe, work):
            parts, projected = good(stack, weights, probe, work)
            parts["D2"][0, 3, 4] = np.nan  # every residual is NaN, and NaN > tol is False
            return parts, projected

        monkeypatch.setattr(nambu, "_broken_arrow_svd", corrupted)
        with pytest.raises(ValueError, match="probe.*nan"):
            propagate(cfg, bath)

    def test_secular_root_that_does_not_converge_raises(self, monkeypatch):
        # one step from the midpoint leaves the roots short of the stopping test
        cfg, bath, _, _ = valve(bath_size=5, gamma=0.3)
        monkeypatch.setattr(nambu, "SECULAR_MAX_ITER", 1)
        with pytest.raises(np.linalg.LinAlgError, match="secular root .* did not converge"):
            propagate(cfg, bath)

    def test_probe_catches_bad_rotated_state(self, monkeypatch):
        # the state alone wrong, s, P and Q exact: built from the wrong side
        # of the Fermi level (holes for particles, -e for e), or with F,
        # which enters X alone, scaled by 1 + 1e-6 (X off by about 1e-6).
        # The state residual, and it alone, must see either
        cfg, bath, _, _ = valve(bath_size=5, gamma=0.3)
        arrow = valve_module.build_arrow(cfg, bath)
        weights = 1 - 2 * thermal_occupations(cfg, bath)
        good = nambu._broken_arrow_svd

        def wrong_side(stack, weights, probe, work):
            return good(stack, -weights, probe, work)

        def scaled_F(stack, weights, probe, work):
            parts, projected = good(stack, weights, probe, work)
            parts["F"] *= 1 + 1e-6
            return parts, projected

        for corrupted, most in ((wrong_side, np.inf), (scaled_F, 1e-4)):
            with monkeypatch.context() as m:
                m.setattr(nambu, "_broken_arrow_svd", corrupted)
                with pytest.raises(ValueError, match="probe.*rotated-state residual"):
                    propagate(cfg, bath)
            stack = [nambu._broken_arrow(arrow)]
            work = nambu._workspace(1, stack[0].k)
            parts, projected = corrupted(stack, weights[None], nambu._probe_vector(arrow.modes),
                                         work)
            prop = nambu.ArrowPropagator(arrow, **{name: part[0] for name, part in parts.items()})
            ((recon, ortho, state),) = nambu._probe_residuals([prop], parts, weights[None],
                                                              projected, work)
            assert max(recon, ortho) <= nambu.SPECTRAL_TOL < state < most


@pytest.mark.parametrize("cfg", [
    ValveConfig(bath_size=450, gamma=0.2, t_hot=1.0, t_cold=0.0, seed=11),
    ValveConfig(bath_size=450, gamma=0.2, t_hot=1.0, t_cold=0.0, seed=11,
                internal_coupling=InternalCouplingSpec(scale=0.1)),
    # two quasiparticle energies 2e-5 apart: s_i^2 - s_k^2 formed from the
    # roots themselves, instead of at the pole nearest s_i, costs 3.9e-12 here
    ValveConfig(bath_size=1200, gamma=0.2, t_hot=1.0, t_cold=0.0, seed=5),
    ValveConfig(bath_size=450, gamma=0.2, t_hot=1.0, t_cold=0.0, seed=11, rwa=True),
    ValveConfig(bath_size=450, t_hot=1.0, t_cold=0.0, seed=11, rwa=True, **NEGATIVE),
    ValveConfig(bath_size=1200, gamma=0.2, t_hot=1.0, t_cold=0.0, seed=5, rwa=True),
], ids=["uniform", "random_hermitian", "close_pair", "rwa_uniform", "rwa_negative_levels",
        "rwa_close_pair"])
def test_lowner_state_matches_product(cfg, monkeypatch):
    bath = apply_internal_couplings(cfg, sample_bath(cfg))
    prop, calls = solvers_called(monkeypatch, cfg, bath)
    assert calls == {"secular"}
    e = 1 - 2 * thermal_occupations(cfg, bath)
    P, Q, X = factors(prop)
    assert np.abs(X - (Q.T * e) @ P).max() <= 1e-13


def dense_matrix(arrow):
    K = np.diag(arrow.levels)
    K[:, arrow.center] += arrow.column
    if arrow.rwa:
        K[arrow.center] += arrow.couplings
    return K


def assert_factors_match_dense_svd(prop, n):
    """The factors of ``prop`` against the dense SVD of its K and against Q^T diag(1 - 2n) P.

    Errors are relative to max(||K||, 1), as K = 0 has no scale of its own.
    """
    M = prop.arrow.modes
    K = dense_matrix(prop.arrow)
    scale = max(np.linalg.norm(K, 2), 1.0)
    s, (P, Q, X) = prop.s, factors(prop)
    ref = np.linalg.svd(K, compute_uv=False)
    assert np.abs(np.sort(s)[::-1] - ref).max() / scale < 1e-13
    assert np.abs((P * s) @ Q.T - K).max() / scale < 1e-13
    assert np.abs(P.T @ P - np.eye(M)).max() < 1e-13
    assert np.abs(Q.T @ Q - np.eye(M)).max() < 1e-13
    assert np.abs(X - (Q.T * (1 - 2 * n)) @ P).max() < 1e-13


def assert_matches_dense_svd(levels, g, c, e):
    """``arrow_propagator`` of the arrow, with pairing and under the RWA, against the dense SVD."""
    for rwa in (False, True):
        arrow = nambu.Arrow(levels=levels, couplings=g, center=c, rwa=rwa)
        n = (1 - e) / 2
        assert_factors_match_dense_svd(nambu.arrow_propagator(arrow, n), n)


@pytest.mark.parametrize("rwa", [False, True], ids=["exact", "rwa"])
@pytest.mark.parametrize("kw, roots", [
    (dict(gamma=0.3), "all"),
    (dict(gamma=0.3, edit=zero_coupling), "deflated"),
    (dict(gamma=0.0), "one"),
], ids=["valve", "zero_coupling", "gamma0"])
def test_factor_blocks_agree(kw, roots, rwa):
    # the Cauchy and Löwner rows are elementwise in D2 and O(M) vectors, so
    # the factors come out the same, bit for bit, from blocks of any size
    cfg, bath, _, _ = valve(bath_size=12, rwa=rwa, **kw)
    _, prop = propagate(cfg, bath)
    M, k = prop.arrow.modes, prop.roots
    assert k == {"all": M, "deflated": M - 1, "one": 1}[roots]
    whole = factors(prop)
    for rows in (1, 7):
        for a, b in zip(factors(prop, rows), whole):
            assert np.array_equal(a, b)
    # the centre's rows, O(k), are those of Q and P
    P, Q, _ = whole
    c = prop.arrow.center
    for got, want in zip(prop.centre_rows(), (Q[c, :k], P[c, :k])):
        assert np.array_equal(got, want)
    assert_factors_match_dense_svd(prop, thermal_occupations(cfg, bath))


def test_small_arrows_match_dense_svd():
    # levels on a coarse grid (repeats and zeros), zero couplings and a
    # centre at 0 are common here; each arrow goes through the secular solver
    rng = np.random.default_rng(12)
    for _ in range(300):
        M = int(rng.integers(2, 13))
        c = int(rng.integers(M))
        levels = rng.integers(-4, 5, M) * rng.choice([0.25, 0.5, 1.0])
        g = rng.integers(-2, 3, M) * rng.choice([1e-3, 0.25, 1.0])
        if rng.random() < 0.3:
            g = g * rng.uniform(0.5, 1.5, M)
        g[c] = 0.0
        assert_matches_dense_svd(levels.astype(float), g, c, rng.uniform(-1.0, 1.0, M))
    # K = 0 has no scale of its own: the solver takes 1
    for M in (2, 5):
        assert_matches_dense_svd(np.zeros(M), np.zeros(M), M // 2, rng.uniform(-1.0, 1.0, M))


def test_rwa_shift_keeps_relative_accuracy():
    # the RWA shift mu = 2 (max|d| + ||g||) scales with the arrow, so a small
    # K keeps its relative accuracy; a shift of at least 1 left this 2-mode
    # arrow 1.6e-13 off
    arrow = nambu.Arrow(levels=np.zeros(2), couplings=np.array([0.0, 1e-3]), center=0, rwa=True)
    s = nambu.arrow_propagator(arrow, np.zeros(2)).s
    ref = np.linalg.svd(dense_matrix(arrow), compute_uv=False)
    assert np.abs(np.sort(s)[::-1] - ref).max() <= 4 * np.finfo(float).eps * ref.max()


@pytest.mark.parametrize("rwa", [False, True], ids=["exact", "rwa"])
@pytest.mark.parametrize("gamma", [1e100, 1e150])
def test_huge_couplings_solve(gamma, rwa):
    # squares of squares of these couplings leave the float range, so the
    # secular steps must run on the scaled arrow K 2^-p
    cfg = ValveConfig(bath_size=2, gamma=gamma, t_hot=1.0, t_cold=0.0, rwa=rwa, seed=3)
    bath = sample_bath(cfg)
    arrow = build_arrow(cfg, bath)
    prop = arrow_propagator(arrow, thermal_occupations(cfg, bath))  # probed inside
    ref = np.linalg.svd(dense_matrix(arrow), compute_uv=False)
    assert np.abs(np.sort(prop.s)[::-1] - ref).max() <= 1e-13 * ref.max()


@pytest.mark.parametrize("rwa", [False, True], ids=["exact", "rwa"])
@pytest.mark.parametrize("power", [-600, -100, 100, 500])
def test_power_of_two_scaling_is_exact(power, rwa):
    cfg = ValveConfig(bath_size=20, gamma=0.3, t_hot=1.0, t_cold=0.0, rwa=rwa, seed=4)
    bath = sample_bath(cfg)
    arrow = build_arrow(cfg, bath)
    n = thermal_occupations(cfg, bath)
    scaled = dataclasses.replace(arrow, levels=np.ldexp(arrow.levels, power),
                                 couplings=np.ldexp(arrow.couplings, power))
    a, b = arrow_propagator(arrow, n), arrow_propagator(scaled, n)
    assert np.array_equal(np.ldexp(a.s, power), b.s)
    # every other field is the scaled arrow's K 2^-p, the same for both
    for name in (f.name for f in dataclasses.fields(a) if f.name not in ("arrow", "s")):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def test_coupling_whose_square_overflows_is_refused():
    arrow = nambu.Arrow(levels=np.ones(3), couplings=np.array([1e155, 0.0, 1.0]), center=1,
                        rwa=False)
    with pytest.raises(ValueError, match=r"coupling scale max\|g\| = 1e\+155 .*overflows"):
        arrow_propagator(arrow, np.zeros(3))
