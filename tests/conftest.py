"""Shared helpers: random valid operators/states and the acceptance report."""

import numpy as np
import pytest

from heatvalve import CorrelationMatrix, build_nambu, diagonalize, evolve, observable_rate
from heatvalve.nambu import NambuMatrix

acceptance_lines = []


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


@pytest.fixture
def criterion_report():
    """Record one pass/fail line per acceptance criterion, then assert."""

    def _report(num, title, ok, detail=""):
        line = f"criterion {num} ({title}): {'PASS' if ok else 'FAIL'}  {detail}"
        acceptance_lines.append(line)
        print(line)
        assert ok, line

    return _report


def random_nambu(rng, modes, pairing=True):
    h = rng.normal(size=(modes, modes)) + 1j * rng.normal(size=(modes, modes))
    h = (h + h.conj().T) / 2
    delta = None
    if pairing:
        delta = rng.normal(size=(modes, modes)) + 1j * rng.normal(size=(modes, modes))
    return build_nambu(h, delta)


def random_correlation(rng, modes):
    """Valid chi: random occupations in a random quasiparticle basis."""
    H = random_nambu(rng, modes)
    U = diagonalize(H).transform
    f = rng.uniform(0, 1, size=modes)
    occ = np.concatenate([1 - f, f[::-1]])  # particle-hole consistent pairing
    return CorrelationMatrix(modes=modes, data=U @ np.diag(occ) @ U.conj().T)


def block_parts(H: NambuMatrix) -> tuple[NambuMatrix, NambuMatrix]:
    """H with its pairing blocks zeroed, and H with only its pairing blocks."""
    M = H.modes
    normal = H.data.copy()
    normal[:M, M:] = 0.0
    normal[M:, :M] = 0.0
    return (NambuMatrix(modes=M, data=normal),
            NambuMatrix(modes=M, data=H.data - normal))


def dense_current(prop, H, Hb, times):
    """(normal, anomalous) from chi(t) rebuilt densely at every time."""
    Hn, Ha = block_parts(H)
    chis = [evolve(prop, t) for t in times]
    return (np.array([observable_rate(Hb, Hn, chi) for chi in chis]),
            np.array([observable_rate(Hb, Ha, chi) for chi in chis]))
