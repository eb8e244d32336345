"""The numpy secular solver ``nambu._secular_roots`` against LAPACK dlasd4.

Each instance is the broken arrow ``_broken_arrow_svd`` hands the solver,
recorded by calling it: valves up to M = 2401, coincident and zero levels
moved apart by the solver's gap, couplings just above the deflation
tolerance and the all-deflated k = 1.  Every s_i must lie within 4 eps
(relative) of dlasd4's and every D2_ij within 1e-12.  dlasd4 stops on its own
test too, and on an ill-conditioned root of a large valve it lands up to
26 eps (s) or 6e-11 (D2) off the root.  A root outside the bounds is
therefore held to the root itself, found from the numpy one by a Newton
step of the secular function in 40-digit arithmetic: the numpy root must
be within the bounds of it, where the D2 bound grows by what the stopping
test guarantees for eta (twice 8 eps (1 + sum |terms| + |eta| F') / F'),
which for a root far from both its poles exceeds 1e-12 relative.
"""

import numpy as np
import pytest

from heatvalve import InternalCouplingSpec, ValveConfig, nambu
from heatvalve.valve import apply_internal_couplings, build_arrow, sample_bath, thermal_occupations

from reference import secular_roots

EPS = np.finfo(float).eps
SIG_TOL = 4 * EPS
D2_TOL = 1e-12


def solver_inputs(monkeypatch, arrow, weights):
    """The (ds, zn, rho) of every secular problem ``_broken_arrow_svd`` solves for the arrow."""
    seen = []
    solve = nambu._secular_roots

    def recording(ds, zn, rho, work):
        seen.extend((d.copy(), z.copy(), float(r)) for d, z, r in zip(ds, zn, rho))
        return solve(ds, zn, rho, work)

    with monkeypatch.context() as m:
        m.setattr(nambu, "_secular_roots", recording)
        stack = [nambu._broken_arrow(arrow)]
        nambu._broken_arrow_svd(stack, weights[None], nambu._probe_vector(arrow.modes),
                                nambu._workspace(1, stack[0].k))
    return seen


def secular_roots_alone(ds, zn, rho):
    """``nambu._secular_roots`` on the stack of one problem."""
    sig, D2 = nambu._secular_roots(ds[None], zn[None], np.array([rho]),
                                   nambu._workspace(1, len(ds)))
    return sig[0], D2[0]


def valve_arrow(N, gamma, rwa=False, seed=0, scale=None):
    cfg = ValveConfig(bath_size=N, gamma=gamma, t_hot=1.0, t_cold=0.0, rwa=rwa, seed=seed,
                      internal_coupling=None if scale is None else InternalCouplingSpec(scale=scale))
    bath = apply_internal_couplings(cfg, sample_bath(cfg))
    return build_arrow(cfg, bath), 1 - 2 * thermal_occupations(cfg, bath)


def arrow(levels, couplings, rwa=False, center=0):
    levels, couplings = np.asarray(levels, float), np.asarray(couplings, float)
    return nambu.Arrow(levels=levels, couplings=couplings, center=center, rwa=rwa), np.ones(len(levels))


def _true_root(ds, zn, rho, origin, eta):
    """eta_i = s_i^2 - ds_o^2 one Newton step of F from the numpy root, in 40-digit mpmath.

    Also the error in eta the stopping test allows there,
    8 eps (1 + sum_j |rho zn_j^2 / D_j| + |eta| F') / F', doubled.
    """
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    q = [mp.mpf(float(d)) ** 2 - mp.mpf(float(ds[origin])) ** 2 for d in ds]
    w = [mp.mpf(float(rho)) * mp.mpf(float(z)) ** 2 for z in zn]
    x = mp.mpf(float(eta))
    f = 1 + mp.fsum(wj / (qj - x) for wj, qj in zip(w, q))
    fp = mp.fsum(wj / (qj - x) ** 2 for wj, qj in zip(w, q))
    size = mp.fsum(wj / abs(qj - x) for wj, qj in zip(w, q))
    root = x - f / fp
    return root, q, float(16 * EPS * (1 + size + abs(root) * fp) / fp)


def assert_matches_dlasd4(ds, zn, rho):
    sig, D2 = secular_roots_alone(ds, zn, rho)
    ref_sig, ref_D2 = secular_roots(ds, zn, rho)
    sig_err = np.abs(sig - ref_sig) / ref_sig
    d2_err = (np.abs(D2 - ref_D2) / np.abs(ref_D2)).max(axis=1)
    for i in np.flatnonzero((sig_err > SIG_TOL) | (d2_err > D2_TOL)):
        # held to the root itself, in the frame of its nearest pole
        origin = int(np.argmin(np.abs(D2[i])))
        root, q, allowed = _true_root(ds, zn, rho, origin, -D2[i, origin])
        true_sig = float((root + float(ds[origin]) ** 2) ** 0.5)
        true_D2 = np.array([float(qj - root) for qj in q])
        # an ill-conditioned root is held to what the stopping test guarantees
        bound = D2_TOL + allowed / abs(float(root))
        ours = (abs(sig[i] - true_sig) / true_sig, (np.abs(D2[i] - true_D2) / np.abs(true_D2)).max())
        theirs = (abs(ref_sig[i] - true_sig) / true_sig,
                  (np.abs(ref_D2[i] - true_D2) / np.abs(true_D2)).max())
        assert ours[0] <= SIG_TOL and ours[1] <= bound, (i, ours, theirs, bound)


LARGE = [
    pytest.param(dict(N=1200, gamma=0.1, seed=5), id="exact_2401"),
    pytest.param(dict(N=450, gamma=0.2, seed=11, rwa=True), id="rwa_901"),
    # criterion 3's strong-coupling realization whose root 690, a weak pole
    # between strong ones, ping-pongs under the fixed weight
    pytest.param(dict(N=1200, gamma=0.85, seed=11982370528577440003), id="ping_pong_2401"),
    pytest.param(dict(N=450, gamma=0.2, seed=11), id="exact_901"),
    pytest.param(dict(N=200, gamma=0.4, seed=3, scale=0.1), id="random_hermitian_401"),
    pytest.param(dict(N=60, gamma=0.02, seed=1), id="weak_121"),
]


@pytest.mark.parametrize("kw", LARGE)
def test_valve_roots_match_dlasd4(kw, monkeypatch):
    (problem,) = solver_inputs(monkeypatch, *valve_arrow(**kw))
    assert len(problem[0]) == 2 * kw["N"] + 1
    assert_matches_dlasd4(*problem)


SMALL = [
    # coincident levels, a level at the centre's pole 0, a +-level pair
    pytest.param(([1.0, 0.5, 0.5, 1.2, 0.0, -1.2, 0.8], [0, 0.3, -0.2, 0.25, 0.15, 0.3, -0.1]),
                 id="coincident_and_zero"),
    pytest.param(([0.0] * 5, [0, 0.3, 0.3, 0.2, 0.1]), id="all_levels_zero"),
    # couplings just above the deflation tolerance 8 eps max(|d|, |z|)
    pytest.param(([1.0, 0.3, 0.7, 1.4, 1.9], [0, 20 * EPS, -30 * EPS, 0.4, 50 * EPS]),
                 id="couplings_at_tolerance"),
    # every coupling under the tolerance: the centre is the one root (k = 1)
    pytest.param(([1.0, 0.3, 0.7], [0, EPS, -EPS]), id="k1"),
    pytest.param(([0.0, 0.0], [0, 1e-3]), id="two_modes"),
]


@pytest.mark.parametrize("rwa", [False, True], ids=["exact", "rwa"])
@pytest.mark.parametrize("levels_couplings", SMALL)
def test_degenerate_roots_match_dlasd4(levels_couplings, rwa, monkeypatch):
    (problem,) = solver_inputs(monkeypatch, *arrow(*levels_couplings, rwa=rwa))
    assert_matches_dlasd4(*problem)


def test_k1_closed_form(monkeypatch):
    (problem,) = solver_inputs(monkeypatch, *arrow([1.0, 0.3, 0.7], [0, EPS, -EPS]))
    ds, zn, rho = problem
    assert len(ds) == 1
    sig, D2 = secular_roots_alone(ds, zn, rho)
    assert sig[0] == np.sqrt(rho) and D2[0, 0] == -rho


def test_seeded_small_arrows_match_dlasd4(monkeypatch):
    # levels on a coarse grid (repeats and zeros), zero couplings and a
    # centre at 0, as test_majorana's dense-SVD check draws them
    rng = np.random.default_rng(12)
    for _ in range(120):
        M = int(rng.integers(2, 13))
        c = int(rng.integers(M))
        levels = rng.integers(-4, 5, M) * rng.choice([0.25, 0.5, 1.0])
        g = rng.integers(-2, 3, M) * rng.choice([1e-3, 0.25, 1.0])
        g[c] = 0.0
        for rwa in (False, True):
            a = nambu.Arrow(levels=levels.astype(float), couplings=g.astype(float), center=c, rwa=rwa)
            for problem in solver_inputs(monkeypatch, a, np.ones(M)):
                assert_matches_dlasd4(*problem)
