"""Tests for the binary-symplectic Pauli engine and graph canonicalization."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense import (
    adjacency_matrix,
    circuit_unitary,
    graph_state,
    packed_rows,
    pauli_matrix,
    prep_state,
    row_matrix,
    row_signs,
)
from oracles import (
    compiled,
    graph_form_by_elimination,
    graph_form_by_rows,
    pauli_product,
    same_up_to_phase,
)
from qre import _sim
from qre.circuit import generate_qft
from qre.stabilizer import (
    PauliRows,
    StabilizerError,
    bits,
    graph_form,
    stabilizer_after,
)

GATE_MATS = {
    "h": (_sim.H_MAT, 1),
    "s": (_sim.S_MAT, 1),
    "sdg": (_sim.SDG_MAT, 1),
    "x": (_sim.X_MAT, 1),
    "y": (_sim.Y_MAT, 1),
    "z": (_sim.Z_MAT, 1),
    "cx": (_sim.CX_MAT, 2),
    "cz": (_sim.CZ_MAT, 2),
    "swap": (_sim.SWAP_MAT, 2),
}


def make_rows(x_bits, z_bits):
    return packed_rows([x_bits], [z_bits])


def unitary_on(name: str, qubits: tuple[int, ...], n: int) -> np.ndarray:
    mat = GATE_MATS[name][0]
    return circuit_unitary(
        lambda s: _sim.apply_matrix(s, mat, qubits), n)


def all_paulis(n: int):
    """Every unsigned n-qubit Pauli as (x bits, z bits)."""
    for x_bits in itertools.product([0, 1], repeat=n):
        for z_bits in itertools.product([0, 1], repeat=n):
            yield x_bits, z_bits


def signed_masks(rows, signs):
    """The row-major rows of ``rows`` with the given sign bits, as
    ``pauli_product`` takes them."""
    return [(x, z, s) for (x, z), s in zip(rows.row_masks(len(signs)), signs)]


class TestDenseConvention:
    def test_single_axes(self):
        assert np.allclose(pauli_matrix(make_rows([1], [0])), _sim.X_MAT)
        assert np.allclose(pauli_matrix(make_rows([0], [1])), _sim.Z_MAT)
        assert np.allclose(pauli_matrix(make_rows([1], [1])), _sim.Y_MAT)
        assert np.allclose(pauli_matrix(make_rows([1], [0]), sign=1),
                           -_sim.X_MAT)

    def test_constructors(self):
        rows = PauliRows.identity_x(3)
        for i in range(3):
            expected = unitary_on("x", (i,), 3) @ np.eye(8)
            assert np.allclose(pauli_matrix(rows, i), expected)
        z1 = PauliRows([0] * 2, [0] * 2)
        assert np.allclose(pauli_matrix(z1, 0), np.eye(4))
        z1.z[1] |= 1 << 0
        assert np.allclose(pauli_matrix(z1, 0), np.kron(np.eye(2), _sim.Z_MAT))
        assert np.allclose(pauli_matrix(z1, 1), np.eye(4))

    def test_dense_is_hermitian(self):
        for x_bits, z_bits in all_paulis(2):
            for sign in (0, 1):
                mat = pauli_matrix(make_rows(x_bits, z_bits), sign=sign)
                assert np.allclose(mat, mat.conj().T)


class TestGateConjugation:
    @pytest.mark.parametrize("name", sorted(GATE_MATS))
    def test_matches_dense_conjugation(self, name):
        """U P U^dagger = +-P' for every unsigned Pauli P, where P' is the
        row ``apply_ops`` leaves; x, y and z leave the columns as they are."""
        arity = GATE_MATS[name][1]
        n = arity
        for qubits in itertools.permutations(range(n), arity):
            u = unitary_on(name, qubits, n)
            for x_bits, z_bits in all_paulis(n):
                rows = make_rows(x_bits, z_bits)
                before = pauli_matrix(rows)
                columns = (list(rows.x), list(rows.z))
                rows.apply_ops([(name, qubits)])
                after = pauli_matrix(rows)
                want = u @ before @ u.conj().T
                assert (np.allclose(after, want, atol=1e-12)
                        or np.allclose(-after, want, atol=1e-12)), (
                    name, qubits, x_bits, z_bits)
                if name in ("x", "y", "z"):
                    assert (rows.x, rows.z) == columns


class TestDispatch:
    def test_unknown_gate_raises(self):
        rows = PauliRows.identity_x(2)
        with pytest.raises(StabilizerError, match="no conjugation rule for gate 'ccx'"):
            rows.apply_ops([("ccx", (0, 1))])
        with pytest.raises(StabilizerError, match="'t'"):
            rows.apply_ops([("h", (0,)), ("t", (1,))])

    def test_unknown_gate_keeps_the_ops_before_it(self):
        """The columns of a failed sweep equal those of its prefix alone:
        the ops before the bad one stay applied."""
        prefix = [("h", (0,)), ("s", (1,)), ("cx", (1, 2)), ("y", (2,)),
                  ("cz", (0, 2)), ("sdg", (0,)), ("x", (1,)),
                  ("swap", (0, 1)), ("z", (2,))]
        start = stabilizer_after([("h", (1,)), ("s", (1,))], 3)
        want = PauliRows(list(start.x), list(start.z))
        want.apply_ops(prefix)
        assert (want.x, want.z) != (start.x, start.z)
        rows = PauliRows(list(start.x), list(start.z))
        with pytest.raises(StabilizerError, match="'ccz'"):
            rows.apply_ops(prefix + [("ccz", (0, 1, 2)), ("h", (2,))])
        assert (rows.x, rows.z) == (want.x, want.z)

    def test_error_inside_a_rule_is_not_relabeled(self):
        """An AttributeError raised by a rule is the rule's own error, not a
        missing rule."""
        rows = PauliRows.__new__(PauliRows)  # no columns set
        with pytest.raises(AttributeError):
            rows.apply_ops([("h", (0,))])
        with pytest.raises(AttributeError):
            rows.apply_ops([("cz", (0, 1))])


class TestMultiplyInto:
    """``pauli_product`` on the row masks of packed rows, signed here."""

    def test_commuting_product(self):
        rows = packed_rows([[1, 1], [0, 0]], [[0, 0], [1, 1]])  # XX, ZZ
        expected = pauli_matrix(rows, 0) @ pauli_matrix(rows, 1)
        a, b = signed_masks(rows, [0, 0])
        assert np.allclose(row_matrix(pauli_product(a, b), 2), expected)

    def test_disjoint_product(self):
        rows = packed_rows([[1, 0], [0, 0]], [[0, 0], [0, 1]])  # -XI, IZ
        expected = pauli_matrix(rows, 0, sign=1) @ pauli_matrix(rows, 1)
        a, b = signed_masks(rows, [1, 0])
        assert np.allclose(row_matrix(pauli_product(a, b), 2), expected)

    def test_anticommuting_raises(self):
        rows = packed_rows([[1], [0]], [[0], [1]])  # X and Z on one qubit
        a, b = signed_masks(rows, [0, 0])
        with pytest.raises(StabilizerError):
            pauli_product(a, b)

    def test_sign_matches_dense_on_all_two_qubit_pairs(self):
        paulis = [(*make_rows(*p).row_masks(1)[0], sign)
                  for p in all_paulis(2) for sign in (0, 1)]
        for a, b in itertools.product(paulis, repeat=2):
            ma, mb = row_matrix(a, 2), row_matrix(b, 2)
            if np.allclose(ma @ mb, mb @ ma):
                assert np.allclose(row_matrix(pauli_product(a, b), 2), ma @ mb)
            else:
                with pytest.raises(StabilizerError):
                    pauli_product(a, b)


@st.composite
def clifford_ops(draw, max_qubits=6, max_ops=30):
    n = draw(st.integers(1, max_qubits))
    k = draw(st.integers(0, max_ops))
    ops = []
    for _ in range(k):
        name = draw(st.sampled_from(sorted(GATE_MATS)))
        if GATE_MATS[name][1] == 2 and n >= 2:
            a = draw(st.integers(0, n - 1))
            b = draw(st.integers(0, n - 2))
            if b >= a:
                b += 1
            ops.append((name, (a, b)))
        elif GATE_MATS[name][1] == 1:
            ops.append((name, (draw(st.integers(0, n - 1)),)))
    return n, ops


class TestStabilizerAfter:
    @settings(max_examples=60, deadline=None)
    @given(clifford_ops())
    def test_rows_stabilize_the_state(self, case):
        """Each row is a +-1 eigen-operator of the prepared state."""
        n, ops = case
        rows = stabilizer_after(ops, n)
        psi = prep_state(ops, n).reshape(-1)
        for i, sign in enumerate(row_signs(rows, psi)):
            assert np.allclose(pauli_matrix(rows, i, sign) @ psi, psi,
                               atol=1e-10)

    def test_bell_pair(self):
        # h(1) sends |++> to |+0>, then cx makes (|00>+|11>)/sqrt(2)
        ops = [("h", (1,)), ("cx", (0, 1))]
        rows = stabilizer_after(ops, 2)
        bell = prep_state(ops, 2).reshape(-1)
        assert np.allclose(bell, np.array([1, 0, 0, 1]) / np.sqrt(2))
        for m in (np.kron(_sim.X_MAT, _sim.X_MAT),
                  np.kron(_sim.Z_MAT, _sim.Z_MAT)):
            assert np.allclose(m @ bell, bell)
        assert row_signs(rows, bell) == [0, 0]
        for i in range(2):
            assert np.allclose(pauli_matrix(rows, i) @ bell, bell)


class TestGraphForm:
    def test_plus_states_give_empty_graph(self):
        edges = graph_form(PauliRows.identity_x(4))
        assert edges == ()
        assert adjacency_matrix(edges, 4).shape == (4, 4)

    def test_bell_pair_graph(self):
        edges = graph_form(stabilizer_after([("h", (1,)), ("cx", (0, 1))], 2))
        assert edges == ((0, 1),)

    def test_product_state_has_no_edges(self):
        edges = graph_form(stabilizer_after([("h", (0,)), ("cx", (0, 1))], 2))
        assert edges == ()

    def test_adjacency_shape_and_symmetry(self):
        ops = [("h", (0,)), ("cx", (0, 1)), ("s", (1,)), ("cz", (1, 2))]
        edges = graph_form(stabilizer_after(ops, 3))
        assert list(edges) == sorted(edges)
        assert all(u < v for u, v in edges)
        adj = adjacency_matrix(edges, 3)
        assert np.array_equal(adj, adj.T)
        assert not adj.diagonal().any()

    def test_determinism(self):
        ops = [("h", (0,)), ("cx", (0, 1)), ("cz", (1, 2)), ("s", (2,))]
        a = graph_form(stabilizer_after(ops, 3))
        b = graph_form(stabilizer_after(ops, 3))
        assert a == b

    @settings(max_examples=60, deadline=None)
    @given(clifford_ops())
    def test_state_level_equivalence(self, case):
        """The package's edges, with the local Cliffords the reference
        derives from the signs the dense state gives the rows, reproduce
        the prepared state."""
        n, ops = case
        rows = stabilizer_after(ops, n)
        psi = prep_state(ops, n)
        _, local = graph_form_by_rows(rows, row_signs(rows, psi))
        state = graph_state(graph_form(rows), local)
        assert same_up_to_phase(state.reshape(-1), psi.reshape(-1))

    def test_anticommuting_generators_raise(self):
        # X0 and Y0 Z1: the X block needs H on qubit 1, then X0 * Y0 X1
        rows = packed_rows([[1, 0], [1, 0]], [[0, 0], [1, 1]])
        with pytest.raises(StabilizerError, match="anticommuting"):
            graph_form(rows)

    def test_asymmetric_z_block_raises(self):
        # X0 and Z0 X1 anticommute but need no product to reach X = I
        rows = packed_rows([[1, 0], [0, 1]], [[0, 0], [1, 0]])
        with pytest.raises(StabilizerError, match="graph adjacency"):
            graph_form(rows)

    def test_asymmetry_below_the_diagonal_raises(self):
        # X0 Z1 and X1: A has its one entry below the diagonal, so only the
        # entry count tells
        rows = packed_rows([[1, 0], [0, 1]], [[0, 1], [0, 0]])
        with pytest.raises(StabilizerError, match="graph adjacency"):
            graph_form(rows)

    def test_wrong_row_count_raises(self):
        with pytest.raises(StabilizerError):
            graph_form(packed_rows([[1, 0]], [[0, 0]]))
        with pytest.raises(StabilizerError):
            graph_form(packed_rows([[1], [0]], [[0], [1]]))

    def test_rows_are_left_unchanged(self):
        rows = stabilizer_after([("h", (0,)), ("cx", (0, 1)), ("y", (1,))], 3)
        before = (list(rows.x), list(rows.z))
        graph_form(rows)
        assert (rows.x, rows.z) == before


@st.composite
def rank_deficient_cliffords(draw):
    """Clifford circuits that start by turning some qubits to |0> (a rank-
    deficient X block unless later gates restore it) and end with a layer
    of x/y/z gates (negative signs in the dense state, for the Z sweep)."""
    n, ops = draw(clifford_ops(max_qubits=8, max_ops=25))
    prefix = [("h", (q,)) for q in range(n) if draw(st.booleans())]
    suffix = [(draw(st.sampled_from(["x", "y", "z"])), (q,))
              for q in range(n) if draw(st.booleans())]
    return n, prefix + ops + suffix


class TestMatchesElimination:
    """The packed graph form against the numpy Gauss-Jordan reference, and
    that reference's local Cliffords against the row-major one's, both
    given the same sign vector."""

    def assert_same(self, rows, signs):
        """The graph form of ``rows`` and the local Cliffords both
        references derive from ``rows`` with ``signs``."""
        edges = graph_form(rows)
        adjacency, applied = graph_form_by_elimination(rows, signs)
        assert np.array_equal(adjacency_matrix(edges, rows.n_qubits),
                              adjacency)
        assert graph_form_by_rows(rows, signs)[1] == applied
        return edges, applied

    def assert_same_as_state(self, ops, n):
        """``assert_same`` on the rows of ``ops`` with the signs of the
        dense state they prepare."""
        rows = stabilizer_after(ops, n)
        return self.assert_same(rows, row_signs(rows, prep_state(ops, n)))

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(clifford_ops(), rank_deficient_cliffords()))
    def test_random_cliffords(self, case):
        n, ops = case
        self.assert_same_as_state(ops, n)

    def test_h_and_z_sweeps_run(self):
        # |1>|+>: the stabilizers -Z0 and X1 need H and then Z on qubit 0
        _, applied = self.assert_same_as_state([("h", (0,)), ("x", (0,))], 2)
        assert applied == (("h", "z"), ())
        edges, applied = self.assert_same_as_state(
            [("h", (1,)), ("cx", (0, 1)), ("s", (0,)), ("y", (1,))], 2)
        assert edges == ((0, 1),)
        assert {g for a in applied for g in a} == {"h", "s", "z"}

    @pytest.mark.parametrize("n", [8, 16])
    def test_qft_widgets(self, n):
        """Too many nodes for a dense state: a fixed pseudo-random sign
        vector, the same for both references."""
        cw = compiled(generate_qft(n))
        rng = random.Random(n)
        signs = [rng.getrandbits(1) for _ in range(cw.n_nodes)]
        edges, _ = self.assert_same(
            stabilizer_after(cw.prep_ops, cw.n_nodes), signs)
        assert edges == cw.edges


class TestMatchesRowElimination:
    """The column-basis graph form against the row-major elimination it
    replaced (``oracles.graph_form_by_rows``)."""

    @staticmethod
    def reference_edges(rows):
        adjacency, _ = graph_form_by_rows(rows)
        return tuple((u, v) for u, row in enumerate(adjacency)
                     for v in bits(row) if u < v)

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(clifford_ops(), rank_deficient_cliffords()))
    def test_random_cliffords(self, case):
        n, ops = case
        rows = stabilizer_after(ops, n)
        assert graph_form(rows) == self.reference_edges(rows)

    @pytest.mark.parametrize("n", [8, 20])
    def test_qft_widgets(self, n):
        cw = compiled(generate_qft(n))
        rows = stabilizer_after(cw.prep_ops, cw.n_nodes)
        edges = graph_form(rows)
        assert edges == self.reference_edges(rows)
        assert edges == cw.edges

    def test_invalid_rows_raise_in_both(self):
        for rows in (packed_rows([[1, 0], [1, 0]], [[0, 0], [1, 1]]),
                     packed_rows([[1, 0], [0, 1]], [[0, 0], [1, 0]]),
                     packed_rows([[1, 0], [1, 0]], [[0, 0], [0, 0]]),
                     packed_rows([[1, 0]], [[0, 0]])):
            with pytest.raises(StabilizerError):
                graph_form(rows)
            with pytest.raises(StabilizerError):
                graph_form_by_rows(rows)
