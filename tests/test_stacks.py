"""Arrows solved as stacks (``nambu.arrow_propagators``) against each arrow solved alone.

A stack's arrows share one secular iteration, one probe and one workspace,
yet every ``ArrowPropagator`` field, and the [20,50] window mean taken
from it, must be the bits the arrow gets alone (``arrow_propagator``).
"""

from dataclasses import fields, replace

import numpy as np
import pytest

from heatvalve import InternalCouplingSpec, ValveConfig, nambu
from heatvalve.evolution import window_mean_current
from heatvalve.experiments import _inputs, derive_seed
from heatvalve.valve import BathRealization, sample_bath

WINDOW, DT = (20.0, 50.0), 0.05


def valves(N, specs, internal=None):
    """One realization per (gamma, kind, seed) in ``specs``."""
    base = ValveConfig(bath_size=N, gamma=0.1, t_hot=1.0, t_cold=0.0,
                       internal_coupling=internal and InternalCouplingSpec(scale=internal))
    return [_inputs(replace(base, gamma=g, rwa=kind == "rwa", seed=seed))
            for g, kind, seed in specs]


def solve_stacked(monkeypatch, inputs):
    """The propagators of ``arrow_propagators`` and the sizes of the stacks it solved."""
    sizes = []
    solve = nambu._solve_stack

    def recording(stack, weights):
        sizes.append(len(stack))
        return solve(stack, weights)

    with monkeypatch.context() as m:
        m.setattr(nambu, "_solve_stack", recording)
        props = list(nambu.arrow_propagators((a, n) for a, n, _ in inputs))
    return props, sizes


def assert_stack_invariant(monkeypatch, inputs, want_sizes):
    props, sizes = solve_stacked(monkeypatch, inputs)
    assert sizes == want_sizes
    for prop, (arrow, occupations, levels) in zip(props, inputs, strict=True):
        alone = nambu.arrow_propagator(arrow, occupations)
        assert prop.arrow is arrow
        for field in fields(alone)[1:]:
            got, want = getattr(prop, field.name), getattr(alone, field.name)
            assert got.dtype == want.dtype and np.array_equal(got, want), field.name
        assert window_mean_current(prop, levels, WINDOW, DT) == window_mean_current(
            alone, levels, WINDOW, DT)


SEEDS = [derive_seed(7, i) for i in range(8)]


def test_internal_couplings_both_kinds(monkeypatch):
    # M = 121 has k = 121 and stacks of max(1, 2^16 // 121^2) = 4: the
    # exact arrows fill one stack and start another, broken by the RWA ones
    specs = [(g, "exact", s) for g, s in zip([0.1, 0.4, 0.2, 0.1, 0.3], SEEDS)]
    specs += [(g, "rwa", s) for g, s in zip([0.2, 0.1, 0.4], SEEDS[5:])]
    inputs = valves(60, specs, internal=0.1)
    assert {a.modes for a, _, _ in inputs} == {121}
    assert_stack_invariant(monkeypatch, inputs, [4, 1, 3])


def test_coincident_levels_in_a_stack(monkeypatch):
    # the solver moves coincident poles (and a level at the centre's pole
    # 0) apart: such an arrow keeps k = M and shares its stack
    inputs = valves(20, [(0.3, "exact", s) for s in SEEDS[:3]] +
                    [(0.3, "rwa", s) for s in SEEDS[3:6]])
    for i in (1, 4):
        cfg = ValveConfig(bath_size=20, gamma=0.3, t_hot=1.0, t_cold=0.0, rwa=i == 4,
                          seed=SEEDS[i])
        bath = sample_bath(cfg)
        freqs = bath.frequencies.copy()
        freqs[0, 3:6] = freqs[0, 2]  # a run of equal hot levels
        freqs[1, 7] = freqs[1, 8] = 0.0  # cold levels at the centre's pole
        inputs[i] = _inputs(cfg, BathRealization(frequencies=freqs, couplings=bath.couplings))
    assert_stack_invariant(monkeypatch, inputs, [3, 3])


def test_uncoupled_arrows_stack_apart(monkeypatch):
    # at gamma = 0 every coupling is deflated: k = 1, its own stacks
    inputs = valves(60, [(0.2, "exact", SEEDS[0]), (0.2, "exact", SEEDS[1]),
                         (0.0, "exact", SEEDS[2]), (0.0, "exact", SEEDS[3]),
                         (0.3, "exact", SEEDS[4]), (0.0, "rwa", SEEDS[5])])
    props, _ = solve_stacked(monkeypatch, inputs)
    assert [p.roots for p in props] == [121, 121, 1, 1, 121, 1]
    assert_stack_invariant(monkeypatch, inputs, [2, 2, 1, 1])


def stack_of_four(rwa=False):
    inputs = valves(60, [(0.2, "rwa" if rwa else "exact", s) for s in SEEDS[:4]], internal=0.1)
    return inputs, [nambu._broken_arrow(a) for a, _, _ in inputs]


@pytest.mark.parametrize("rwa", [False, True], ids=["exact", "rwa"])
def test_corrupted_arrow_in_a_stack_fails_the_probe(rwa, monkeypatch):
    # arrow 2 of 4 with F, which enters X alone, scaled by 1 + 1e-6: its
    # state residual, and no other residual of the stack, must see it
    inputs, stack = stack_of_four(rwa)
    weights = np.array([1 - 2 * n for _, n, _ in inputs])
    good = nambu._broken_arrow_svd

    def corrupted(stack, weights, probe, work):
        parts, projected = good(stack, weights, probe, work)
        parts["F"][2] *= 1 + 1e-6
        return parts, projected

    with monkeypatch.context() as m:
        m.setattr(nambu, "_broken_arrow_svd", corrupted)
        with pytest.raises(ValueError,
                           match=r"probe \(arrow 2 of a stack of 4\).*rotated-state residual"):
            list(nambu.arrow_propagators((a, n) for a, n, _ in inputs))
    work = nambu._workspace(4, stack[0].k)
    parts, projected = corrupted(stack, weights, nambu._probe_vector(121), work)
    props = [nambu.ArrowPropagator(a.arrow, **{name: part[b] for name, part in parts.items()})
             for b, a in enumerate(stack)]
    residuals = nambu._probe_residuals(props, parts, weights, projected, work)
    assert (np.delete(residuals, 2, axis=0) <= nambu.SPECTRAL_TOL).all()
    assert max(residuals[2, :2]) <= nambu.SPECTRAL_TOL < residuals[2, 2] < 1e-4


@pytest.mark.parametrize("rwa", [False, True], ids=["exact", "rwa"])
def test_probe_reads_the_state_scales_the_currents_read(rwa, monkeypatch):
    # r, the rank-one term of X, off by 1e-6 in ``state_scales``, which the
    # forms of every current read: the probe reads the same r, so it must
    # see it in arrow 2 alone and in arrow 2 of a stack of four
    inputs, _ = stack_of_four(rwa)
    arrow, occupations, _ = inputs[2]
    scales = nambu.ArrowPropagator.state_scales

    def perturbed(prop):
        alpha, beta, r = scales(prop)
        return alpha, beta, (r + 1e-6 if prop.arrow is arrow else r)

    monkeypatch.setattr(nambu.ArrowPropagator, "state_scales", perturbed)
    with pytest.raises(ValueError, match=r"probe: .*rotated-state residual"):
        nambu.arrow_propagator(arrow, occupations)
    with pytest.raises(ValueError,
                       match=r"probe \(arrow 2 of a stack of 4\).*rotated-state residual"):
        list(nambu.arrow_propagators((a, n) for a, n, _ in inputs))


def test_root_that_does_not_converge_in_a_stack_raises(monkeypatch):
    inputs, _ = stack_of_four()
    monkeypatch.setattr(nambu, "SECULAR_MAX_ITER", 1)
    with pytest.raises(np.linalg.LinAlgError,
                       match=r"secular root \d+ of a 121-root arrow \(arrow [0-3] of a stack "
                             r"of 4\) did not converge in 1 steps"):
        list(nambu.arrow_propagators((a, n) for a, n, _ in inputs))


def test_roots_taking_the_middle_way_in_a_stack(monkeypatch):
    # couplings on four scales put weak poles between strong ones, whose
    # roots ping-pong and take the middle way (``_secular_step``), each
    # arrow's at its own steps
    rng = np.random.default_rng(0)
    inputs = []
    for rwa in (False, True):
        for _ in range(12):
            levels = np.sort(rng.uniform(0, 2, 24))
            levels[0] = 1.0
            g = rng.choice([1e-4, 1e-2, 0.3, 1.0], 24) * rng.choice([-1, 1], 24)
            g[0] = 0.0
            arrow = nambu.Arrow(levels=levels, couplings=g, center=0, rwa=rwa)
            inputs.append((arrow, np.zeros(24), np.where(np.arange(24) % 2, levels, 0.0)))
    middle = []
    step = nambu._secular_step

    def recording(state, *args):
        x = step(state, *args)
        middle.append(np.count_nonzero(state[11]))
        return x

    with monkeypatch.context() as m:
        m.setattr(nambu, "_secular_step", recording)
        solve_stacked(monkeypatch, inputs)
    assert max(middle) > 0
    assert_stack_invariant(monkeypatch, inputs, [12, 12])
