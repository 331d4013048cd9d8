"""Bit-packed Pauli algebra, up to sign, and graph-state canonicalization.

A Pauli row is two Python ints (x, z): bit q of x and z is the qubit-q
pair, and the (1,1) pair is Y. ``PauliRows`` stores a set of rows by qubit
column instead: x[q] and z[q] hold bit j for row j. A gate conjugation is
then a few big-int operations per gate over all rows at once, and rows of
any kind share one sweep. ``apply_ops`` holds the rules, one branch chain
over the op name, and ``stabilizer_after`` and the tests replay op lists
through it. The compiler applies the same rules by gate kind as it reads
a widget's gates, to its byproduct frames and the stabilizer tableau
together, and passes no op list through ``apply_ops``.

Rows are Paulis up to sign: a Clifford conjugation maps P to +-P', and
only P' is kept. Nothing the package runs reads a sign. A stabilizer
state is local-Clifford equivalent to a graph state whose edges do not
depend on its generators' signs (Van den Nest, Dehaene & De Moor), the
byproduct frames are X and Z supports, and the consumption layering reads
those supports alone. So the CHP sign updates of Aaronson & Gottesman are
left out, and the Pauli gates x, y and z, which change only signs, leave
the columns as they are.

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

from typing import Iterable, Iterator

Row = tuple[int, int]  # (x mask, z mask)


class StabilizerError(ValueError):
    pass


def bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of a nonnegative int, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class PauliRows:
    """Pauli rows over n qubits, up to sign, packed by qubit column (see
    module docstring)."""

    __slots__ = ("x", "z")

    def __init__(self, x: list[int], z: list[int]):
        self.x = x
        self.z = z

    @classmethod
    def identity_x(cls, n: int) -> "PauliRows":
        """n rows: row i = X_i (the stabilizers of |+...+>)."""
        return cls([1 << q for q in range(n)], [0] * n)

    @property
    def n_qubits(self) -> int:
        return len(self.x)

    def row_masks(self, n_rows: int) -> list[Row]:
        """Rows 0..n_rows-1 as row-major (x, z) masks."""
        if any(m >> n_rows for m in (*self.x, *self.z)):
            raise StabilizerError(f"rows beyond the first {n_rows} are set")
        xs, zs = [0] * n_rows, [0] * n_rows
        for q in range(len(self.x)):
            for j in bits(self.x[q]):
                xs[j] |= 1 << q
            for j in bits(self.z[q]):
                zs[j] |= 1 << q
        return list(zip(xs, zs))

    # -- gate conjugation (columns) ------------------------------------------

    def apply_ops(self, ops: Iterable[tuple[str, tuple[int, ...]]]) -> None:
        """Conjugate every row by each op in turn, up to sign. An unknown
        gate name raises StabilizerError with the ops before it applied."""
        # Most frequent compiled ops first.
        x, z = self.x, self.z
        for name, qubits in ops:
            if name == "h":
                (q,) = qubits
                x[q], z[q] = z[q], x[q]
            elif name == "cz":
                a, b = qubits
                z[a] ^= x[b]
                z[b] ^= x[a]
            elif name == "cx":
                a, b = qubits
                x[b] ^= x[a]
                z[a] ^= z[b]
            elif name == "s" or name == "sdg":
                (q,) = qubits
                z[q] ^= x[q]
            elif name == "x" or name == "y" or name == "z":
                pass  # a Pauli changes signs only
            elif name == "swap":
                a, b = qubits
                x[a], x[b] = x[b], x[a]
                z[a], z[b] = z[b], z[a]
            else:
                raise StabilizerError(
                    f"no conjugation rule for gate {name!r}")


def stabilizer_after(ops: Iterable[tuple[str, tuple[int, ...]]], n: int) -> PauliRows:
    """Stabilizer rows, up to sign, of (ops applied to |+>^n)."""
    rows = PauliRows.identity_x(n)
    rows.apply_ops(ops)
    return rows


# An XOR basis of column vectors, keyed by each vector's highest set bit
# (its bit_length, which costs nothing to read off a big int):
# basis[v.bit_length()] = (v, the columns whose XOR v is, as a mask).
# ``graph_form`` reduces a vector v against it, with a column mask c, while
# v's highest set bit has an entry, XOR-ing each entry used into v and its
# mask into c. From c = 0, c ends as v's coordinates if v reduces to zero;
# from c = 1 << q for column q, a zero v means column q is the XOR of the
# columns in c ^ (1 << q), and a nonzero v is the XOR of those in c. The
# reduction is written out in each of its three loops: a call per column
# costs more than the reduction of most columns.
Basis = dict[int, tuple[int, int]]


def graph_form(rows: PauliRows) -> tuple[tuple[int, int], ...]:
    """The edges of the graph in a stabilizer state's graph + local-Clifford
    form |psi> = (tensor of local Cliffords) |G>: each edge once, u < v,
    sorted.

    H on the columns that are not pivots of the X block makes that block
    invertible; multiplying the rows by its inverse gives [I | A], and
    column q of A is z[q]'s coordinate vector in the basis of the X
    columns. S clears the diagonal of A, and Z would clear the signs, which
    the rows do not hold and the graph does not depend on. Every step is
    fixed by the state, not by the generators it is given, so the form is
    canonical. ``rows`` is left as it is.
    """
    n = rows.n_qubits
    x, z = rows.x, rows.z
    if max(max(x, default=0), max(z, default=0)) >> n:
        raise StabilizerError(f"rows beyond the first {n} are set")

    # The pivot columns are those independent of the columns before them.
    # A non-pivot x[q] is the XOR of earlier pivot columns, and H moves it
    # into the Z block, so its coordinates are known already.
    basis: Basis = {}
    coords = [0] * n
    h_mask = 0
    for q in range(n):
        v, c = x[q], 1 << q
        while v and (entry := basis.get(v.bit_length())) is not None:
            v ^= entry[0]
            c ^= entry[1]
        if v:
            basis[v.bit_length()] = (v, c)
        else:
            h_mask |= 1 << q
            coords[q] = c ^ (1 << q)
    for q in bits(h_mask):
        v, c = z[q], 1 << q
        while v and (entry := basis.get(v.bit_length())) is not None:
            v ^= entry[0]
            c ^= entry[1]
        if not v:
            raise StabilizerError("stabilizer X block is not full rank after H sweep")
        basis[v.bit_length()] = (v, c)
    # n independent columns: every highest bit has an entry, so z[q] reduces
    # to zero. Only a pivot's coordinates can hold its own bit: S clears it.
    for q in range(n):
        if not h_mask >> q & 1:
            v, c = z[q], 0
            while v:
                entry = basis[v.bit_length()]
                v ^= entry[0]
                c ^= entry[1]
            coords[q] = c & ~(1 << q)
    # Each upper-triangle bit needs its mirror; equal totals then leave no
    # unmatched bit below the diagonal. Anticommuting rows show up here.
    edges = []
    for u, row in enumerate(coords):
        row &= ~((2 << u) - 1)
        while row:
            low = row & -row
            v = low.bit_length() - 1
            if not coords[v] >> u & 1:
                raise StabilizerError(_NOT_A_GRAPH)
            edges.append((u, v))
            row ^= low
    if sum(map(int.bit_count, coords)) != 2 * len(edges):
        raise StabilizerError(_NOT_A_GRAPH)
    return tuple(edges)


_NOT_A_GRAPH = "canonical Z block is not a graph adjacency (anticommuting rows)"
