"""Bit-packed Pauli algebra and stabilizer-state canonicalization.

A Pauli row is three Python ints (x, z, sign): bit q of x and z is the
qubit-q pair, in the Hermitian convention (x, z, s) = (-1)^s * prod_q
i^{x_q z_q} X_q^{x_q} Z_q^{z_q}, so the (1,1) pair is Y. ``PauliRows``
stores a set of rows by qubit column instead: x[q] and z[q] hold bit j for
row j, and the signs of all rows are one int. A gate conjugation is then a
few big-int operations per gate over all rows at once (the CHP update rules
of Aaronson & Gottesman, in one branch chain over the gate name), and rows
of any kind share one sweep: the compiler runs its byproduct frames and the
stabilizer tableau through the preparation ops together.

``graph_form`` reads the graph-state form straight from the tableau's
columns: the pivot columns of the X block come from an XOR basis over the
x[q], H on the other columns makes the X block invertible, and node q's
adjacency is the coordinate vector of z[q] in the basis of the X columns.
Only the graph is kept: nothing the package runs reads the per-node local
Cliffords that turn it back into the state (``verify`` simulates the
preparation ops themselves), and the reference derivations of those live
with the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

Row = tuple[int, int, int]  # (x mask, z mask, sign bit)


class StabilizerError(ValueError):
    pass


def bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of a nonnegative int, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class PauliRows:
    """Pauli rows over n qubits, packed by qubit column (see module docstring)."""

    __slots__ = ("x", "z", "r")

    def __init__(self, x: list[int], z: list[int], r: int):
        self.x = x
        self.z = z
        self.r = r

    @classmethod
    def identity_x(cls, n: int) -> "PauliRows":
        """n rows: row i = X_i (the stabilizers of |+...+>)."""
        return cls([1 << q for q in range(n)], [0] * n, 0)

    @property
    def n_qubits(self) -> int:
        return len(self.x)

    def row_masks(self, n_rows: int) -> list[Row]:
        """Rows 0..n_rows-1 as row-major (x, z, sign) masks."""
        if any(m >> n_rows for m in (*self.x, *self.z, self.r)):
            raise StabilizerError(f"rows beyond the first {n_rows} are set")
        xs, zs = [0] * n_rows, [0] * n_rows
        for q in range(len(self.x)):
            for j in bits(self.x[q]):
                xs[j] |= 1 << q
            for j in bits(self.z[q]):
                zs[j] |= 1 << q
        return [(xs[j], zs[j], (self.r >> j) & 1) for j in range(n_rows)]

    # -- gate conjugation (columns) ------------------------------------------

    def apply_ops(self, ops: Iterable[tuple[str, tuple[int, ...]]]) -> None:
        """Conjugate every row by each op in turn. An unknown gate name
        raises StabilizerError with the ops before it applied, signs too."""
        # Most frequent compiled ops first; the sign is written back on a raise.
        x, z, r = self.x, self.z, self.r
        try:
            for name, qubits in ops:
                if name == "h":
                    (q,) = qubits
                    xq, zq = x[q], z[q]
                    r ^= xq & zq
                    x[q], z[q] = zq, xq
                elif name == "cz":
                    a, b = qubits
                    xa, xb = x[a], x[b]
                    r ^= xa & xb & (z[a] ^ z[b])
                    z[a] ^= xb
                    z[b] ^= xa
                elif name == "cx":
                    a, b = qubits
                    xa, zb = x[a], z[b]
                    r ^= xa & zb & ~(x[b] ^ z[a])
                    x[b] ^= xa
                    z[a] ^= zb
                elif name == "s":
                    (q,) = qubits
                    r ^= x[q] & z[q]
                    z[q] ^= x[q]
                elif name == "sdg":
                    (q,) = qubits
                    z[q] ^= x[q]
                    r ^= x[q] & z[q]
                elif name == "x":
                    (q,) = qubits
                    r ^= z[q]
                elif name == "z":
                    (q,) = qubits
                    r ^= x[q]
                elif name == "y":
                    (q,) = qubits
                    r ^= x[q] ^ z[q]
                elif name == "swap":
                    a, b = qubits
                    x[a], x[b] = x[b], x[a]
                    z[a], z[b] = z[b], z[a]
                else:
                    raise StabilizerError(
                        f"no conjugation rule for gate {name!r}")
        finally:
            self.r = r


def stabilizer_after(ops: Iterable[tuple[str, tuple[int, ...]]], n: int) -> PauliRows:
    """Stabilizer rows of (ops applied to |+>^n)."""
    rows = PauliRows.identity_x(n)
    rows.apply_ops(ops)
    return rows


# An XOR basis of column vectors, keyed by each vector's highest set bit
# (its bit_length, which costs nothing to read off a big int):
# basis[v.bit_length()] = (v, the columns whose XOR v is, as a mask).
Basis = dict[int, tuple[int, int]]


def _reduce(basis: Basis, v: int, c: int) -> tuple[int, int]:
    """Reduce ``v`` against ``basis`` while its highest set bit has an
    entry, XOR-ing each entry used into v and its column mask into ``c``.
    From c = 0, c ends as v's coordinates if v reduces to zero; from
    c = 1 << q for column q, a zero v means column q is the XOR of the
    columns in c ^ (1 << q), and a nonzero v is the XOR of those in c."""
    while v:
        entry = basis.get(v.bit_length())
        if entry is None:
            break
        v ^= entry[0]
        c ^= entry[1]
    return v, c


@dataclass(frozen=True)
class GraphForm:
    """The graph of a stabilizer state's graph-state canonical form
    |psi> = (tensor of local Cliffords) |G>.

    ``adjacency[u]`` has bit v set for each edge u-v (symmetric, no
    self-loops); ``edge_list`` holds each edge once, u < v, sorted.
    """

    adjacency: tuple[int, ...]
    edge_list: tuple[tuple[int, int], ...]


def graph_form(rows: PauliRows) -> GraphForm:
    """The graph of a stabilizer state's graph + local-Clifford form.

    H on the columns that are not pivots of the X block makes that block
    invertible; multiplying the rows by its inverse gives [I | A], and
    column q of A is z[q]'s coordinate vector in the basis of the X
    columns. S clears the diagonal of A, and Z would clear the signs, which
    the graph does not depend on. Every step is fixed by the state, not by
    the generators it is given, so the form is canonical. ``rows`` is left
    as it is.
    """
    n = rows.n_qubits
    x, z = rows.x, rows.z
    if max(max(x, default=0), max(z, default=0), rows.r) >> n:
        raise StabilizerError(f"rows beyond the first {n} are set")

    # The pivot columns are those independent of the columns before them.
    # A non-pivot x[q] is the XOR of earlier pivot columns, and H moves it
    # into the Z block, so its coordinates are known already.
    basis: Basis = {}
    coords = [0] * n
    h_mask = 0
    for q in range(n):
        v, c = _reduce(basis, x[q], 1 << q)
        if v:
            basis[v.bit_length()] = (v, c)
        else:
            h_mask |= 1 << q
            coords[q] = c ^ (1 << q)
    for q in bits(h_mask):
        v, c = _reduce(basis, z[q], 1 << q)
        if not v:
            raise StabilizerError("stabilizer X block is not full rank after H sweep")
        basis[v.bit_length()] = (v, c)
    # n independent columns: every highest bit has an entry, so z[q] reduces
    # to zero. Only a pivot's coordinates can hold its own bit: S clears it.
    for q in range(n):
        if not h_mask >> q & 1:
            coords[q] = _reduce(basis, z[q], 0)[1] & ~(1 << q)
    # Each upper-triangle bit needs its mirror; equal totals then leave no
    # unmatched bit below the diagonal. Anticommuting rows show up here.
    edges = []
    for u, row in enumerate(coords):
        for v in bits(row & ~((2 << u) - 1)):
            if not coords[v] >> u & 1:
                raise StabilizerError(_NOT_A_GRAPH)
            edges.append((u, v))
    if sum(map(int.bit_count, coords)) != 2 * len(edges):
        raise StabilizerError(_NOT_A_GRAPH)
    return GraphForm(tuple(coords), tuple(edges))


_NOT_A_GRAPH = "canonical Z block is not a graph adjacency (anticommuting rows)"
