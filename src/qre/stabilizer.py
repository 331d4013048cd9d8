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
The per-node local Cliffords (``GraphForm.applied``), which also need the
row signs, are derived on first read: only verification and the tests
read them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
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

    @classmethod
    def zeros(cls, n: int) -> "PauliRows":
        """Identity rows over n qubits: every row is a fixed point of every
        conjugation until one of its bits is set."""
        return cls([0] * n, [0] * n, 0)

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
    """Graph-state canonical form: |psi> = (tensor of locals) |G(adjacency)>.

    ``adjacency[u]`` has bit v set for each edge u-v (symmetric, no
    self-loops); ``edge_list`` holds each edge once, u < v, sorted. The gates
    applied to each qubit to reach |G> are H on ``h_mask``, then S on
    ``s_mask``, then Z where the sign calls for it; ``applied`` lists them
    per qubit (the node's local Clifford is their inverse product), read
    from ``tableau``, a copy of the rows ``graph_form`` was given.
    """

    adjacency: tuple[int, ...]
    edge_list: tuple[tuple[int, int], ...]
    h_mask: int
    s_mask: int
    tableau: PauliRows = field(repr=False, compare=False)

    @cached_property
    def applied(self) -> tuple[tuple[str, ...], ...]:
        """Per qubit, the gates applied to reach |G>. After H, S and CZ on
        every edge the state is Z^c |+...+>, so the tableau's rows are
        X strings and its sign vector is sum_v c_v x[v]: c is the
        coordinate vector of the signs in the basis of the X columns."""
        t = self.tableau
        rows = PauliRows(list(t.x), list(t.z), t.r)
        rows.apply_ops([*(("h", (q,)) for q in bits(self.h_mask)),
                        *(("s", (q,)) for q in bits(self.s_mask)),
                        *(("cz", e) for e in self.edge_list)])
        basis: Basis = {}
        for q, col in enumerate(rows.x):
            v, c = _reduce(basis, col, 1 << q)
            basis[v.bit_length()] = (v, c)
        z_mask = _reduce(basis, rows.r, 0)[1]
        return tuple(("h",) * (self.h_mask >> q & 1)
                     + ("s",) * (self.s_mask >> q & 1)
                     + ("z",) * (z_mask >> q & 1)
                     for q in range(len(self.adjacency)))


def graph_form(rows: PauliRows) -> GraphForm:
    """Canonicalize a stabilizer state into graph + local-Clifford form.

    H on the columns that are not pivots of the X block makes that block
    invertible; multiplying the rows by its inverse gives [I | A], and
    column q of A is z[q]'s coordinate vector in the basis of the X
    columns. S clears the diagonal of A (and Z clears the signs, see
    ``GraphForm.applied``). Every step is fixed by the state, not by the
    generators it is given, so the form is canonical. ``rows`` is left as
    it is.
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
    s_mask = 0
    for q in range(n):
        if not h_mask >> q & 1:
            c = _reduce(basis, z[q], 0)[1]
            if c >> q & 1:
                s_mask |= 1 << q
                c ^= 1 << q
            coords[q] = c
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
    return GraphForm(tuple(coords), tuple(edges), h_mask, s_mask,
                     PauliRows(list(x), list(z), rows.r))


_NOT_A_GRAPH = "canonical Z block is not a graph adjacency (anticommuting rows)"
