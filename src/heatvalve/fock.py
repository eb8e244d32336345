"""Exact many-body verification oracle on the full 2^M Fock space.

Ladder operators are built with the Jordan-Wigner string construction and
kept sparse; everything else is dense.  A quadratic operator is lifted from
its M x M particle and pairing blocks (``valve.hamiltonian_blocks`` for the
valve), with no Nambu doubling, so the oracle shares nothing with the
correlation-matrix engine beyond the valve's arrow.  The hard size cap
M <= 12 keeps oracle runs at desk scale.  This module exists to ground the
correlation-matrix method against brute-force evolution of the density
matrix, nothing here is performance oriented.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy import sparse

from .valve import (
    COLD_BATH,
    BathRealization,
    ValveConfig,
    bath_levels,
    hamiltonian_blocks,
    thermal_occupations,
)

MAX_MODES = 12

_LOWER = sparse.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
_Z = sparse.csr_matrix(np.diag([1.0, -1.0]))
_I2 = sparse.identity(2, format="csr")


def _check_cap(modes: int) -> None:
    if modes > MAX_MODES:
        raise ValueError(f"Fock oracle capped at M <= {MAX_MODES}, got M = {modes}")


@lru_cache(maxsize=4)
def ladder_operators(modes: int) -> tuple:
    """Annihilation operators a_0 ... a_{M-1} as sparse 2^M x 2^M matrices."""
    _check_cap(modes)
    ops = []
    for i in range(modes):
        factors = [_Z] * i + [_LOWER] + [_I2] * (modes - 1 - i)
        op = factors[0]
        for f in factors[1:]:
            op = sparse.kron(op, f, format="csr")
        ops.append(op)
    return tuple(ops)


def lift(h, delta=None) -> np.ndarray:
    """sum_ij h_ij a_i^dag a_j + (1/2) sum_ij (Delta_ij a_i^dag a_j^dag + h.c.) on Fock space.

    The operator of the M x M particle block h and pairing block Delta as a
    dense 2^M x 2^M matrix.  It is normal-ordered as written, so the vacuum
    has energy 0, and Delta's symmetric part drops out.
    """
    h = np.asarray(h)
    M = len(h)
    _check_cap(M)
    a = ladder_operators(M)
    dim = 2**M  # the ladder operators are real: a^dag = a^T
    hop = sparse.csr_matrix((dim, dim), dtype=complex)
    pair = sparse.csr_matrix((dim, dim), dtype=complex)
    for i, j in zip(*np.nonzero(h)):
        hop = hop + h[i, j] * (a[i].T @ a[j])
    if delta is not None:
        for i, j in zip(*np.nonzero(delta)):
            pair = pair + 0.5 * delta[i, j] * (a[i].T @ a[j].T)
    return (hop + pair + pair.conj().T).toarray()


def thermal_state(config: ValveConfig, bath: BathRealization) -> np.ndarray:
    """Product density matrix: thermal bath modes, empty central mode."""
    _check_cap(config.modes)
    diag = np.ones(1)
    for f in thermal_occupations(config, bath):
        diag = np.kron(diag, np.array([1 - f, f]))
    return np.diag(diag)


def exact_current(config: ValveConfig, bath: BathRealization, times) -> np.ndarray:
    """-i tr(rho(t) [H_bath, H]) of the cold bath via dense Fock-space evolution."""
    _check_cap(config.modes)
    times = np.asarray(times, dtype=float)
    H = lift(*hamiltonian_blocks(config, bath))
    Hb = lift(np.diag(bath_levels(config, bath, COLD_BATH)))
    rho0 = thermal_state(config, bath)
    evals, S = np.linalg.eigh(H)
    rho_rot = S.conj().T @ rho0 @ S
    K = Hb @ H - H @ Hb
    K_rot = S.conj().T @ K @ S
    B = rho_rot * K_rot.T
    Z = np.exp(-1j * np.multiply.outer(evals, times))
    vals = np.einsum("jt,jt->t", Z, B @ Z.conj())
    out = -1j * vals
    if np.abs(out.imag).max(initial=0.0) > 1e-9 * max(np.abs(out.real).max(initial=0.0), 1.0):
        raise ValueError("Fock current has spurious imaginary part")
    return out.real
