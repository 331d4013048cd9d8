"""Dense-matrix views of package objects, for tests that check them against
exact linear algebra (qubit 0 is the most significant bit)."""

from __future__ import annotations

import numpy as np

from qre import _sim
from qre.stabilizer import PauliRows

PREP_MATS = {
    "h": _sim.H_MAT, "s": _sim.S_MAT, "sdg": _sim.SDG_MAT, "x": _sim.X_MAT,
    "y": _sim.Y_MAT, "z": _sim.Z_MAT, "cx": _sim.CX_MAT, "cz": _sim.CZ_MAT,
    "swap": _sim.SWAP_MAT,
}


def plus_state(n: int) -> np.ndarray:
    """|+...+> on n qubits, shape (2,)*n."""
    return np.full((2,) * n, 2.0 ** (-n / 2), dtype=complex)


def prep_state(ops, n: int) -> np.ndarray:
    """Clifford preparation ops [(name, qubits)] applied to |+...+>."""
    state = plus_state(n)
    for name, qubits in ops:
        state = _sim.apply_matrix(state, PREP_MATS[name], qubits)
    return state


def circuit_unitary(apply_fn, n: int) -> np.ndarray:
    """Dense unitary of a circuit given a function state -> state on (2,)*n + batch."""
    basis = np.eye(2 ** n, dtype=complex).reshape((2,) * n + (2 ** n,))
    out = apply_fn(basis)
    return out.reshape(2 ** n, 2 ** n)


def packed_rows(x_rows, z_rows) -> PauliRows:
    """``PauliRows`` from row-major 0/1 lists: x_rows[j][q] is row j's X bit
    on qubit q."""
    def columns(bit_rows):
        return [sum(int(bool(r[q])) << j for j, r in enumerate(bit_rows))
                for q in range(len(bit_rows[0]))]
    return PauliRows(columns(x_rows), columns(z_rows))


def row_matrix(row, n: int) -> np.ndarray:
    """Dense matrix of one (x mask, z mask, sign bit) row over n qubits."""
    x, z, sign = row
    out = np.eye(1, dtype=complex)
    for q in range(n):
        xq, zq = x >> q & 1, z >> q & 1
        if xq and zq:
            f = _sim.Y_MAT
        elif xq:
            f = _sim.X_MAT
        elif zq:
            f = _sim.Z_MAT
        else:
            f = np.eye(2, dtype=complex)
        out = np.kron(out, f)
    return -out if sign else out


def pauli_matrix(rows: PauliRows, row: int = 0, sign: int = 0) -> np.ndarray:
    """Dense matrix of one row of a ``PauliRows``, which holds no sign,
    times (-1)^sign."""
    def mask(columns):
        return sum((c >> row & 1) << q for q, c in enumerate(columns))
    return row_matrix((mask(rows.x), mask(rows.z), sign), rows.n_qubits)


def row_signs(rows: PauliRows, psi: np.ndarray) -> list[int]:
    """The sign bit of each row of ``rows`` that stabilizes ``psi``: each
    row P must have <psi|P|psi> = +-1, and -1 gives sign bit 1."""
    psi = psi.reshape(-1)
    signs = []
    for j in range(rows.n_qubits):
        value = np.vdot(psi, pauli_matrix(rows, j) @ psi)
        assert np.isclose(abs(value), 1.0, atol=1e-9), (j, value)
        signs.append(int(round(value.real) < 0))
    return signs


def adjacency_matrix(edges, n: int) -> np.ndarray:
    """(n, n) bool adjacency matrix of an edge list."""
    adj = np.zeros((n, n), dtype=bool)
    for u, v in edges:
        adj[u, v] = adj[v, u] = True
    return adj


def local_matrix(applied) -> np.ndarray:
    """Dense 2x2 local Clifford L_v of one node, given the gates that were
    applied to it to reach the graph state: |psi> = (... L_v ...) |G>."""
    out = np.eye(2, dtype=complex)
    for name in applied:
        out = out @ PREP_MATS[name].conj().T
    return out


def graph_state(edges, applied) -> np.ndarray:
    """(tensor of local Cliffords) |G>, shape (2,)*n, from a graph's edges
    and the per-node gate lists of its local Cliffords."""
    n = len(applied)
    state = plus_state(n)
    for u, v in edges:
        state = _sim.apply_matrix(state, _sim.CZ_MAT, (u, v))
    for v in range(n):
        state = _sim.apply_matrix(state, local_matrix(applied[v]), (v,))
    return state
