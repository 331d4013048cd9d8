"""Binary-symplectic Pauli algebra and stabilizer-state canonicalization.

Paulis are stored as x/z bit rows with a sign bit, in the Hermitian
convention: row (x, z, r) denotes (-1)^r * prod_j i^{x_j z_j} X_j^{x_j}
Z_j^{z_j}, so the (1,1) pair is Y. Gate conjugation and row multiplication
follow the standard CHP update rules; everything is vectorized over rows so a
full stabilizer tableau and a single tracked byproduct Pauli share one code
path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np


class StabilizerError(ValueError):
    pass


class PauliRows:
    """R Pauli operators over N qubits (see module docstring for convention)."""

    __slots__ = ("x", "z", "r")

    def __init__(self, x: np.ndarray, z: np.ndarray, r: np.ndarray):
        self.x = x
        self.z = z
        self.r = r

    @classmethod
    def identity_x(cls, n: int) -> "PauliRows":
        """n rows: row i = X_i (the stabilizers of |+...+>)."""
        return cls(np.eye(n, dtype=bool), np.zeros((n, n), bool), np.zeros(n, np.uint8))

    @classmethod
    def zeros(cls, rows: int, n: int) -> "PauliRows":
        """``rows`` identity rows over n qubits: each is a fixed point of
        every conjugation until a bit is set."""
        return cls(np.zeros((rows, n), bool), np.zeros((rows, n), bool),
                   np.zeros(rows, np.uint8))

    def copy(self) -> "PauliRows":
        return PauliRows(self.x.copy(), self.z.copy(), self.r.copy())

    @property
    def n_qubits(self) -> int:
        return self.x.shape[1]

    # -- gate conjugation (columns) ------------------------------------------

    def _h(self, q: int) -> None:
        self.r ^= self.x[:, q] & self.z[:, q]
        self.x[:, q], self.z[:, q] = self.z[:, q].copy(), self.x[:, q].copy()

    def _s(self, q: int) -> None:
        self.r ^= self.x[:, q] & self.z[:, q]
        self.z[:, q] ^= self.x[:, q]

    def _sdg(self, q: int) -> None:
        self.z[:, q] ^= self.x[:, q]
        self.r ^= self.x[:, q] & self.z[:, q]

    def _x(self, q: int) -> None:
        self.r ^= self.z[:, q]

    def _y(self, q: int) -> None:
        self.r ^= self.x[:, q] ^ self.z[:, q]

    def _z(self, q: int) -> None:
        self.r ^= self.x[:, q]

    def _cx(self, a: int, b: int) -> None:
        self.r ^= self.x[:, a] & self.z[:, b] & ~(self.x[:, b] ^ self.z[:, a])
        self.x[:, b] ^= self.x[:, a]
        self.z[:, a] ^= self.z[:, b]

    def _cz(self, a: int, b: int) -> None:
        self._h(b)
        self._cx(a, b)
        self._h(b)

    def _swap(self, a: int, b: int) -> None:
        self._cx(a, b)
        self._cx(b, a)
        self._cx(a, b)

    def apply(self, name: str, qubits: Sequence[int]) -> None:
        try:
            getattr(self, f"_{name}")(*qubits)
        except AttributeError:
            raise StabilizerError(f"no conjugation rule for gate {name!r}") from None

    def apply_ops(self, ops: Iterable[tuple[str, tuple[int, ...]]]) -> None:
        for name, qubits in ops:
            self.apply(name, qubits)

    # -- row algebra -----------------------------------------------------------

    def multiply_into(self, h: int, i: int) -> None:
        """Row h <- row i * row h (rows must commute for the sign to be valid)."""
        phase = (2 * int(self.r[h]) + 2 * int(self.r[i])
                 + int(_g(self.x[i], self.z[i], self.x[h], self.z[h]).sum()))
        if phase % 2:
            raise StabilizerError("multiplied anticommuting rows")
        self.r[h] = (phase // 2) % 2
        self.x[h] ^= self.x[i]
        self.z[h] ^= self.z[i]

    def swap_rows(self, a: int, b: int) -> None:
        for arr in (self.x, self.z, self.r):
            arr[[a, b]] = arr[[b, a]]


def _g(x1: np.ndarray, z1: np.ndarray, x2: np.ndarray, z2: np.ndarray) -> np.ndarray:
    """Per-qubit exponent of i picked up multiplying row-1 Paulis into row 2."""
    x1i, z1i = x1.astype(np.int8), z1.astype(np.int8)
    x2i, z2i = x2.astype(np.int8), z2.astype(np.int8)
    out = np.zeros(x1.shape, np.int8)
    is_x = x1 & ~z1
    is_z = ~x1 & z1
    is_y = x1 & z1
    out[is_x] = (z2i * (2 * x2i - 1))[is_x]
    out[is_z] = (x2i * (1 - 2 * z2i))[is_z]
    out[is_y] = (z2i - x2i)[is_y]
    return out


@dataclass(frozen=True)
class GraphForm:
    """Graph-state canonical form: |psi> = (tensor of locals) |G(adjacency)>.

    ``applied`` lists, per qubit, the single-qubit gates that were applied to
    the state to reach |G>; the node's local Clifford is their inverse product.
    """

    adjacency: np.ndarray  # (N, N) bool, symmetric, zero diagonal
    applied: tuple[tuple[str, ...], ...]

    def edges(self) -> list[tuple[int, int]]:
        us, vs = np.nonzero(np.triu(self.adjacency, k=1))
        return list(zip(us.tolist(), vs.tolist()))


def stabilizer_after(ops: Iterable[tuple[str, tuple[int, ...]]], n: int) -> PauliRows:
    """Stabilizer rows of (ops applied to |+>^n)."""
    rows = PauliRows.identity_x(n)
    rows.apply_ops(ops)
    return rows


def graph_form(rows: PauliRows) -> GraphForm:
    """Canonicalize a stabilizer state into graph + local-Clifford form.

    Gaussian elimination brings the X block to the identity, applying H on
    rank-deficient columns, then S clears the Z diagonal and Z fixes signs.
    """
    work = rows.copy()
    n = work.n_qubits
    applied: list[list[str]] = [[] for _ in range(n)]

    def rref() -> list[int]:
        rank = 0
        pivots = []
        for col in range(n):
            hits = np.nonzero(work.x[rank:, col])[0]
            if hits.size == 0:
                continue
            work.swap_rows(rank, rank + hits[0])
            for row in np.nonzero(work.x[:, col])[0]:
                if row != rank:
                    work.multiply_into(row, rank)
            pivots.append(col)
            rank += 1
        return pivots

    pivots = rref()
    for col in range(n):
        if col not in pivots:
            work._h(col)
            applied[col].append("h")
    pivots = rref()
    if len(pivots) != n:
        raise StabilizerError("stabilizer X block is not full rank after H sweep")

    # Full reduction left a permutation matrix; reorder rows so X = I.
    order = np.argmax(work.x, axis=1)
    perm = np.argsort(order)
    for arr_name in ("x", "z"):
        setattr(work, arr_name, getattr(work, arr_name)[perm])
    work.r = work.r[perm]

    for v in range(n):
        if work.z[v, v]:
            work._s(v)
            applied[v].append("s")
    for v in range(n):
        if work.r[v]:
            work._z(v)
            applied[v].append("z")

    adj = work.z.copy()
    if not np.array_equal(work.x, np.eye(n, dtype=bool)):
        raise StabilizerError("canonicalization failed to reach X = I")
    if np.any(adj != adj.T) or np.any(np.diag(adj)):
        raise StabilizerError("canonical Z block is not a graph adjacency")
    if np.any(work.r):
        raise StabilizerError("canonicalization left negative signs")
    return GraphForm(adj, tuple(tuple(a) for a in applied))
