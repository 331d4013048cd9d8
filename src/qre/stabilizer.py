"""Bit-packed Pauli algebra and stabilizer-state canonicalization.

A Pauli row is three Python ints (x, z, sign): bit q of x and z is the
qubit-q pair, in the Hermitian convention (x, z, s) = (-1)^s * prod_q
i^{x_q z_q} X_q^{x_q} Z_q^{z_q}, so the (1,1) pair is Y. ``PauliRows``
stores a set of rows by qubit column instead: x[q] and z[q] hold bit j for
row j, and the signs of all rows are one int. A gate conjugation is then a
few big-int operations per gate over all rows at once (the CHP update rules
of Aaronson & Gottesman), so a full stabilizer tableau and one tracked
byproduct Pauli share one code path. ``graph_form`` works on the row masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

Row = tuple[int, int, int]  # (x mask, z mask, sign bit)


class StabilizerError(ValueError):
    pass


def bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of a nonnegative int, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def pauli_product(a: Row, b: Row) -> Row:
    """The row of P_a * P_b; the rows must commute for it to be Hermitian.

    Moving Z^{z_a} past X^{x_b} gives (-1)^{|z_a & x_b|}, and the Hermitian
    i^{|x & z|} factors give the exponent of i below.
    """
    xa, za, sa = a
    xb, zb, sb = b
    x, z = xa ^ xb, za ^ zb
    e = ((xa & za).bit_count() + (xb & zb).bit_count()
         + 2 * (za & xb).bit_count() - (x & z).bit_count())
    if e & 1:
        raise StabilizerError("multiplied anticommuting rows")
    return x, z, sa ^ sb ^ ((e >> 1) & 1)


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

    def _h(self, q: int) -> None:
        self.r ^= self.x[q] & self.z[q]
        self.x[q], self.z[q] = self.z[q], self.x[q]

    def _s(self, q: int) -> None:
        self.r ^= self.x[q] & self.z[q]
        self.z[q] ^= self.x[q]

    def _sdg(self, q: int) -> None:
        self.z[q] ^= self.x[q]
        self.r ^= self.x[q] & self.z[q]

    def _x(self, q: int) -> None:
        self.r ^= self.z[q]

    def _y(self, q: int) -> None:
        self.r ^= self.x[q] ^ self.z[q]

    def _z(self, q: int) -> None:
        self.r ^= self.x[q]

    def _cx(self, a: int, b: int) -> None:
        self.r ^= self.x[a] & self.z[b] & ~(self.x[b] ^ self.z[a])
        self.x[b] ^= self.x[a]
        self.z[a] ^= self.z[b]

    def _cz(self, a: int, b: int) -> None:
        self.r ^= self.x[a] & self.x[b] & (self.z[a] ^ self.z[b])
        self.z[a] ^= self.x[b]
        self.z[b] ^= self.x[a]

    def _swap(self, a: int, b: int) -> None:
        self.x[a], self.x[b] = self.x[b], self.x[a]
        self.z[a], self.z[b] = self.z[b], self.z[a]

    def apply(self, name: str, qubits: Sequence[int]) -> None:
        try:
            getattr(self, f"_{name}")(*qubits)
        except AttributeError:
            raise StabilizerError(f"no conjugation rule for gate {name!r}") from None

    def apply_ops(self, ops: Iterable[tuple[str, tuple[int, ...]]]) -> None:
        for name, qubits in ops:
            self.apply(name, qubits)


@dataclass(frozen=True)
class GraphForm:
    """Graph-state canonical form: |psi> = (tensor of locals) |G(adjacency)>.

    ``adjacency[u]`` has bit v set for each edge u-v (symmetric, no
    self-loops). ``applied`` lists, per qubit, the single-qubit gates that
    were applied to the state to reach |G>; the node's local Clifford is
    their inverse product.
    """

    adjacency: tuple[int, ...]
    applied: tuple[tuple[str, ...], ...]

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u, row in enumerate(self.adjacency)
                for v in bits(row & ~((2 << u) - 1))]


def stabilizer_after(ops: Iterable[tuple[str, tuple[int, ...]]], n: int) -> PauliRows:
    """Stabilizer rows of (ops applied to |+>^n)."""
    rows = PauliRows.identity_x(n)
    rows.apply_ops(ops)
    return rows


def graph_form(rows: PauliRows) -> GraphForm:
    """Canonicalize a stabilizer state into graph + local-Clifford form.

    H on the columns that are not pivots of the X block makes that block
    full rank; elimination then brings the rows to [I | A], S clears the
    diagonal of A and Z clears the signs. Every step is fixed by the state,
    not by the generators it is given, so the form is canonical.
    """
    n = rows.n_qubits
    work = rows.row_masks(n)

    # The pivot columns of the X block are the lowest set bits of an
    # echelon basis of its row space.
    pivots: dict[int, int] = {}
    for x, _, _ in work:
        while x:
            low = x & -x
            if low not in pivots:
                pivots[low] = x
                break
            x ^= pivots[low]
    h_mask = ((1 << n) - 1) & ~sum(pivots)
    applied = [["h"] if h_mask >> q & 1 else [] for q in range(n)]
    work = [(x & ~h_mask | z & h_mask, z & ~h_mask | x & h_mask,
             s ^ ((x & z & h_mask).bit_count() & 1)) for x, z, s in work]

    # Echelon form keyed by lowest X bit, then back-substitution to [I | A].
    by_pivot: list[Row | None] = [None] * n
    for row in work:
        while row[0]:
            q = (row[0] & -row[0]).bit_length() - 1
            if by_pivot[q] is None:
                by_pivot[q] = row
                break
            row = pauli_product(by_pivot[q], row)
        else:
            raise StabilizerError("stabilizer X block is not full rank after H sweep")
    for q in reversed(range(n)):
        row = by_pivot[q]
        for p in bits(row[0] & ~((2 << q) - 1)):
            row = pauli_product(by_pivot[p], row)
        by_pivot[q] = row

    adjacency = []
    for v, (x, z, s) in enumerate(by_pivot):
        if z >> v & 1:
            z ^= 1 << v
            s ^= 1
            applied[v].append("s")
        if s:
            applied[v].append("z")
        adjacency.append(z)
    for u, row in enumerate(adjacency):
        if any(not adjacency[v] >> u & 1 for v in bits(row)):
            raise StabilizerError("canonical Z block is not a graph adjacency")
    return GraphForm(tuple(adjacency), tuple(tuple(a) for a in applied))
