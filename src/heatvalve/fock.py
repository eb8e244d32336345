"""Exact many-body verification oracle on the full 2^M Fock space.

Ladder operators are built with the Jordan-Wigner string construction and
kept sparse; everything else is dense.  The hard size cap M <= 12 keeps
oracle runs at desk scale.  This module exists to ground the
correlation-matrix method against brute-force evolution of the density
matrix, nothing here is performance oriented.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import sparse

from .nambu import NambuMatrix
from .valve import (
    COLD_BATH,
    BathRealization,
    ValveConfig,
    bath_hamiltonian,
    build_hamiltonian,
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


@dataclass(frozen=True)
class FockOperator:
    modes: int
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix.setflags(write=False)


def lift(O: NambuMatrix) -> FockOperator:
    """Assemble (1/2) sum_ij O_ij A_i^dag A_j + const_offset on Fock space."""
    _check_cap(O.modes)
    M = O.modes
    a = ladder_operators(M)
    A = list(a) + [op.conj().T.tocsr() for op in a]
    dim = 2**M
    acc = sparse.csr_matrix((dim, dim), dtype=complex)
    for i in range(2 * M):
        row = O.data[i]
        cols = np.nonzero(row)[0]
        if len(cols) == 0:
            continue
        S = sum(row[j] * A[j] for j in cols)
        acc = acc + 0.5 * (A[i].conj().T @ S)
    out = acc.toarray() + O.const_offset * np.eye(dim)
    return FockOperator(modes=M, matrix=out)


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
    H = lift(build_hamiltonian(config, bath)).matrix
    Hb = lift(bath_hamiltonian(config, bath, COLD_BATH)).matrix
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
