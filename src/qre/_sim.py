"""Dense state-vector helpers for simulation-backed verification.

Qubit 0 is the most significant bit of the computational-basis index; a state
on n qubits is stored as a complex ndarray of shape (2,)*n so that axis q is
qubit q. Everything here is exact linear algebra on <= a dozen qubits; no
approximations, no stabilizer shortcuts.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

SQ2 = 1.0 / math.sqrt(2.0)

# Single- and multi-qubit gate matrices over the computational basis.
H_MAT = np.array([[SQ2, SQ2], [SQ2, -SQ2]], dtype=complex)
X_MAT = np.array([[0, 1], [1, 0]], dtype=complex)
Y_MAT = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z_MAT = np.array([[1, 0], [0, -1]], dtype=complex)
S_MAT = np.array([[1, 0], [0, 1j]], dtype=complex)
SDG_MAT = S_MAT.conj()
T_MAT = np.array([[1, 0], [0, np.exp(1j * math.pi / 4)]], dtype=complex)
TDG_MAT = T_MAT.conj()

CX_MAT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
CZ_MAT = np.diag([1, 1, 1, -1]).astype(complex)
SWAP_MAT = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)
CCX_MAT = np.eye(8, dtype=complex)
CCX_MAT[6:, 6:] = X_MAT


def rz_mat(theta: float) -> np.ndarray:
    """Rz(theta) = diag(e^{-i theta/2}, e^{+i theta/2})."""
    return np.array(
        [[np.exp(-0.5j * theta), 0], [0, np.exp(0.5j * theta)]], dtype=complex
    )


def cphase_mat(theta: float) -> np.ndarray:
    """Controlled phase: diag(1, 1, 1, e^{i theta}) (symmetric in its qubits)."""
    return np.diag([1, 1, 1, np.exp(1j * theta)]).astype(complex)


def apply_matrix(state: np.ndarray, mat: np.ndarray, qubits: Sequence[int]) -> np.ndarray:
    """Apply a 2^k x 2^k matrix to the given axes of a (2,)*n state tensor.

    Extra trailing axes (e.g. a batch axis when building unitaries) are left
    untouched because they are never listed in ``qubits``.
    """
    k = len(qubits)
    ndim = state.ndim
    tensor = mat.reshape((2,) * (2 * k))
    moved = np.tensordot(tensor, state, axes=(range(k, 2 * k), qubits))
    # tensordot puts the k output axes first; restore original axis order.
    rest = [ax for ax in range(ndim) if ax not in qubits]
    order = list(qubits) + rest
    inverse = np.argsort(order)
    return moved.transpose(inverse)


def project_qubit(state: np.ndarray, qubit: int, vec: np.ndarray) -> tuple[np.ndarray, float]:
    """Contract one qubit axis against <vec| and return (reduced state, probability).

    The reduced state keeps its norm (unnormalized branch amplitude); the
    returned probability is that squared norm.
    """
    reduced = np.tensordot(vec.conj(), state, axes=([0], [qubit]))
    prob = float(np.vdot(reduced, reduced).real)
    return reduced, prob
