"""Dense state-vector simulation, for ``verify`` and the tests alone.

Qubit 0 is the most significant bit of the computational-basis index; a state
on n qubits is stored as a complex ndarray of shape (2,)*n so that axis q is
qubit q. Everything here is exact linear algebra on <= a dozen qubits; no
approximations, no stabilizer shortcuts.

``verify_unitarity`` runs a sequence of compiled widgets on such a state and
undoes it with the inverse source gates. ``pipeline.verify_circuit`` imports
this module when it is called, so an estimate, a sweep or a compile never
loads numpy.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .circuit import Gate, GateKind
from .compiler import CompileError, CompiledWidget

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


# --------------------------------------------------------------------------
# Simulation-backed verification of compiled widgets
# --------------------------------------------------------------------------

SIM_QUBIT_LIMIT = 12  # the most qubits verify_unitarity holds at once

# The matrix of each fixed gate, by its name: the names of the preparation
# ops and the values of the source gates' kinds.
_GATE_MATS = {
    "h": H_MAT, "s": S_MAT, "sdg": SDG_MAT, "x": X_MAT, "y": Y_MAT,
    "z": Z_MAT, "cx": CX_MAT, "cz": CZ_MAT, "swap": SWAP_MAT,
    "t": T_MAT, "tdg": TDG_MAT, "ccx": CCX_MAT,
}


class _Register:
    """Dense register addressed by node labels (axes tracked under removal)."""

    def __init__(self) -> None:
        self.state = np.ones((), dtype=complex)
        self.axes: dict[object, int] = {}

    def add(self, label: object, vec: np.ndarray) -> None:
        self.state = np.multiply.outer(self.state, vec.astype(complex))
        self.axes[label] = self.state.ndim - 1

    def apply(self, mat: np.ndarray, labels: Sequence[object]) -> None:
        self.state = apply_matrix(
            self.state, mat, tuple(self.axes[l] for l in labels))

    def measure(self, label: object, vecs: Sequence[np.ndarray],
                rng: np.random.Generator) -> int:
        axis = self.axes.pop(label)
        reduced0, p0 = project_qubit(self.state, axis, vecs[0])
        outcome = 0 if rng.random() < p0 else 1
        if outcome == 0:
            self.state = reduced0 / math.sqrt(max(p0, 1e-300))
        else:
            reduced1, p1 = project_qubit(self.state, axis, vecs[1])
            self.state = reduced1 / math.sqrt(max(p1, 1e-300))
        for other, ax in self.axes.items():
            if ax > axis:
                self.axes[other] = ax - 1
        return outcome

    def ordered(self, labels: Sequence[object]) -> np.ndarray:
        perm = [self.axes[l] for l in labels]
        return np.transpose(self.state, perm)


def _meas_vectors(angle: float) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal pair for an angle-rotated X measurement (angle 0 is X)."""
    a = np.array([np.exp(0.5j * angle), np.exp(-0.5j * angle)]) / math.sqrt(2)
    b = np.array([np.exp(0.5j * angle), -np.exp(-0.5j * angle)]) / math.sqrt(2)
    return a, b


_PLUS = np.array([1, 1], dtype=complex) / math.sqrt(2)
_ZERO = np.array([1, 0], dtype=complex)
_X_VECS = _meas_vectors(0.0)


def verify_unitarity(
    widgets: Sequence[CompiledWidget],
    inverse_gates: Sequence[Gate],
    *,
    seed: int | None = None,
) -> float:
    """Execute the widget sequence by exact simulation on |0...0> with random
    measurement outcomes and eager frame corrections, apply the inverse gate
    list, and return the overlap-squared with |0...0>."""
    if not widgets:
        raise CompileError("empty widget sequence")
    n = widgets[0].n_input
    if any(w.n_input != n for w in widgets):
        raise CompileError("widgets must share n_input")
    peak = max(w.n_nodes for w in widgets)
    if len(widgets) > 1:
        peak = max(peak, n + 2)
    if peak > SIM_QUBIT_LIMIT:
        raise CompileError(f"verification needs {peak} simulated qubits, "
                           f"limit is {SIM_QUBIT_LIMIT}")

    rng = np.random.default_rng(seed)
    reg = _Register()
    carriers: list[object] = []

    for i, w in enumerate(widgets):
        if i == 0:
            for q in range(n):
                reg.add((0, q), _ZERO)
            carriers = [(0, q) for q in range(n)]
        else:
            for q in range(n):
                relay = ("relay", i, q)
                target = (i, q)
                reg.add(relay, _PLUS)
                reg.apply(CZ_MAT, (carriers[q], relay))
                s1 = reg.measure(carriers[q], _X_VECS, rng)
                reg.add(target, _PLUS)
                reg.apply(CZ_MAT, (relay, target))
                s2 = reg.measure(relay, _X_VECS, rng)
                if s2:
                    reg.apply(X_MAT, (target,))
                if s1:
                    reg.apply(Z_MAT, (target,))
                carriers[q] = target
        for v in range(n, w.n_nodes):
            reg.add((i, v), _PLUS)
        for name, qubits in w.prep_ops:
            reg.apply(_GATE_MATS[name], [(i, v) for v in qubits])
        meas = w.meas_schedule
        for layer in w.consump_schedule:
            for node in layer:
                spec = meas[node]
                outcome = reg.measure((i, node), _meas_vectors(spec.angle), rng)
                if outcome:
                    frame = w.frames[node]
                    for v in frame.x_support:
                        reg.apply(X_MAT, [(i, v)])
                    for v in frame.z_support:
                        reg.apply(Z_MAT, [(i, v)])
        carriers = [(i, w.output_nodes[q]) for q in range(n)]

    state = reg.ordered(carriers)
    for g in inverse_gates:
        state = apply_matrix(state, _gate_mat(g), g.qubits)
    amp = state[(0,) * n]
    return float(abs(amp) ** 2)


def _gate_mat(g: Gate) -> np.ndarray:
    if g.kind is GateKind.Rz:
        return rz_mat(g.angle)
    if g.kind is GateKind.CPhase:
        return cphase_mat(g.angle)
    return _GATE_MATS[g.kind.value]
