"""Tests for the binary-symplectic Pauli engine and graph canonicalization."""

import itertools

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
)
from oracles import (
    graph_form_by_elimination,
    graph_form_by_rows,
    pauli_product,
    same_up_to_phase,
)
from qre import _sim
from qre.circuit import generate_qft, transpile
from qre.compiler import compile_widget
from qre.stabilizer import (
    PauliRows,
    StabilizerError,
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


def make_rows(x_bits, z_bits, r_bit):
    return packed_rows([x_bits], [z_bits], [r_bit])


def unitary_on(name: str, qubits: tuple[int, ...], n: int) -> np.ndarray:
    mat = GATE_MATS[name][0]
    return circuit_unitary(
        lambda s: _sim.apply_matrix(s, mat, qubits), n)


def all_paulis(n: int):
    for x_bits in itertools.product([0, 1], repeat=n):
        for z_bits in itertools.product([0, 1], repeat=n):
            for r_bit in (0, 1):
                yield x_bits, z_bits, r_bit


class TestDenseConvention:
    def test_single_axes(self):
        assert np.allclose(pauli_matrix(make_rows([1], [0], 0)), _sim.X_MAT)
        assert np.allclose(pauli_matrix(make_rows([0], [1], 0)), _sim.Z_MAT)
        assert np.allclose(pauli_matrix(make_rows([1], [1], 0)), _sim.Y_MAT)
        assert np.allclose(pauli_matrix(make_rows([1], [0], 1)), -_sim.X_MAT)

    def test_constructors(self):
        rows = PauliRows.identity_x(3)
        for i in range(3):
            expected = unitary_on("x", (i,), 3) @ np.eye(8)
            assert np.allclose(pauli_matrix(rows, i), expected)
        z1 = PauliRows.zeros(2)
        assert np.allclose(pauli_matrix(z1, 0), np.eye(4))
        z1.z[1] |= 1 << 0
        assert np.allclose(pauli_matrix(z1, 0), np.kron(np.eye(2), _sim.Z_MAT))
        assert np.allclose(pauli_matrix(z1, 1), np.eye(4))

    def test_dense_is_hermitian(self):
        for x_bits, z_bits, r_bit in all_paulis(2):
            mat = pauli_matrix(make_rows(x_bits, z_bits, r_bit))
            assert np.allclose(mat, mat.conj().T)


class TestGateConjugation:
    @pytest.mark.parametrize("name", sorted(GATE_MATS))
    def test_matches_dense_conjugation(self, name):
        arity = GATE_MATS[name][1]
        n = arity
        for qubits in itertools.permutations(range(n), arity):
            u = unitary_on(name, qubits, n)
            for x_bits, z_bits, r_bit in all_paulis(n):
                rows = make_rows(x_bits, z_bits, r_bit)
                before = pauli_matrix(rows)
                rows.apply(name, qubits)
                after = pauli_matrix(rows)
                assert np.allclose(after, u @ before @ u.conj().T, atol=1e-12), (
                    name, qubits, x_bits, z_bits, r_bit)


class TestDispatch:
    def test_unknown_gate_raises(self):
        rows = PauliRows.identity_x(2)
        with pytest.raises(StabilizerError, match="no conjugation rule for gate 'ccx'"):
            rows.apply("ccx", (0, 1))
        with pytest.raises(StabilizerError, match="'t'"):
            rows.apply_ops([("h", (0,)), ("t", (1,))])

    def test_error_inside_a_rule_is_not_relabeled(self):
        """An AttributeError raised by a rule is the rule's own error, not a
        missing rule."""
        rows = PauliRows.__new__(PauliRows)  # no columns set
        with pytest.raises(AttributeError):
            rows.apply("h", (0,))
        with pytest.raises(AttributeError):
            rows.apply_ops([("cz", (0, 1))])


class TestMultiplyInto:
    """``pauli_product`` on the row masks of packed rows."""

    def test_commuting_product(self):
        rows = packed_rows([[1, 1], [0, 0]], [[0, 0], [1, 1]], [0, 0])  # XX, ZZ
        expected = pauli_matrix(rows, 0) @ pauli_matrix(rows, 1)
        a, b = rows.row_masks(2)
        assert np.allclose(row_matrix(pauli_product(a, b), 2), expected)

    def test_disjoint_product(self):
        rows = packed_rows([[1, 0], [0, 0]], [[0, 0], [0, 1]], [1, 0])  # -XI, IZ
        expected = pauli_matrix(rows, 0) @ pauli_matrix(rows, 1)
        a, b = rows.row_masks(2)
        assert np.allclose(row_matrix(pauli_product(a, b), 2), expected)

    def test_anticommuting_raises(self):
        rows = packed_rows([[1], [0]], [[0], [1]], [0, 0])  # X and Z on one qubit
        a, b = rows.row_masks(2)
        with pytest.raises(StabilizerError):
            pauli_product(a, b)

    def test_sign_matches_dense_on_all_two_qubit_pairs(self):
        paulis = [make_rows(*p).row_masks(1)[0] for p in all_paulis(2)]
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
        n, ops = case
        rows = stabilizer_after(ops, n)
        psi = prep_state(ops, n).reshape(-1)
        for i in range(n):
            assert np.allclose(pauli_matrix(rows, i) @ psi, psi, atol=1e-10)

    def test_bell_pair(self):
        # h(1) sends |++> to |+0>, then cx makes (|00>+|11>)/sqrt(2)
        ops = [("h", (1,)), ("cx", (0, 1))]
        rows = stabilizer_after(ops, 2)
        bell = prep_state(ops, 2).reshape(-1)
        assert np.allclose(bell, np.array([1, 0, 0, 1]) / np.sqrt(2))
        for m in (np.kron(_sim.X_MAT, _sim.X_MAT),
                  np.kron(_sim.Z_MAT, _sim.Z_MAT)):
            assert np.allclose(m @ bell, bell)
        for i in range(2):
            assert np.allclose(pauli_matrix(rows, i) @ bell, bell)


class TestGraphForm:
    def test_plus_states_give_empty_graph(self):
        gf = graph_form(PauliRows.identity_x(4))
        assert not gf.edges()
        assert adjacency_matrix(gf).shape == (4, 4)

    def test_bell_pair_graph(self):
        gf = graph_form(stabilizer_after([("h", (1,)), ("cx", (0, 1))], 2))
        assert gf.edges() == [(0, 1)]

    def test_product_state_has_no_edges(self):
        gf = graph_form(stabilizer_after([("h", (0,)), ("cx", (0, 1))], 2))
        assert gf.edges() == []

    def test_adjacency_shape_and_symmetry(self):
        ops = [("h", (0,)), ("cx", (0, 1)), ("s", (1,)), ("cz", (1, 2))]
        gf = graph_form(stabilizer_after(ops, 3))
        adj = adjacency_matrix(gf)
        assert np.array_equal(adj, adj.T)
        assert not adj.diagonal().any()

    def test_only_h_s_z_locals(self):
        ops = [("h", (0,)), ("cx", (0, 1)), ("sdg", (1,)), ("y", (0,))]
        gf = graph_form(stabilizer_after(ops, 2))
        for per_qubit in gf.applied:
            assert set(per_qubit) <= {"h", "s", "z"}

    def test_determinism(self):
        ops = [("h", (0,)), ("cx", (0, 1)), ("cz", (1, 2)), ("s", (2,))]
        a = graph_form(stabilizer_after(ops, 3))
        b = graph_form(stabilizer_after(ops, 3))
        assert a.adjacency == b.adjacency
        assert a.applied == b.applied

    @settings(max_examples=60, deadline=None)
    @given(clifford_ops())
    def test_state_level_equivalence(self, case):
        n, ops = case
        gf = graph_form(stabilizer_after(ops, n))
        state = graph_state(gf.edges(), gf.applied)
        assert same_up_to_phase(state.reshape(-1),
                                prep_state(ops, n).reshape(-1))

    def test_anticommuting_generators_raise(self):
        # X0 and Y0 Z1: the X block needs H on qubit 1, then X0 * Y0 X1
        rows = packed_rows([[1, 0], [1, 0]], [[0, 0], [1, 1]], [0, 0])
        with pytest.raises(StabilizerError, match="anticommuting"):
            graph_form(rows)

    def test_asymmetric_z_block_raises(self):
        # X0 and Z0 X1 anticommute but need no product to reach X = I
        rows = packed_rows([[1, 0], [0, 1]], [[0, 0], [1, 0]], [0, 0])
        with pytest.raises(StabilizerError, match="graph adjacency"):
            graph_form(rows)

    def test_asymmetry_below_the_diagonal_raises(self):
        # X0 Z1 and X1: A has its one entry below the diagonal, so only the
        # entry count tells
        rows = packed_rows([[1, 0], [0, 1]], [[0, 1], [0, 0]], [0, 0])
        with pytest.raises(StabilizerError, match="graph adjacency"):
            graph_form(rows)

    def test_wrong_row_count_raises(self):
        with pytest.raises(StabilizerError):
            graph_form(packed_rows([[1, 0]], [[0, 0]], [0]))
        with pytest.raises(StabilizerError):
            graph_form(packed_rows([[1], [0]], [[0], [1]], [0, 0]))


    def test_rows_are_left_unchanged(self):
        rows = stabilizer_after([("h", (0,)), ("cx", (0, 1)), ("y", (1,))], 3)
        before = (list(rows.x), list(rows.z), rows.r)
        gf = graph_form(rows)
        assert gf.applied
        assert (rows.x, rows.z, rows.r) == before


@st.composite
def rank_deficient_cliffords(draw):
    """Clifford circuits that start by turning some qubits to |0> (a rank-
    deficient X block unless later gates restore it) and end with a layer
    of x/y/z gates (negative signs for the Z sweep)."""
    n, ops = draw(clifford_ops(max_qubits=8, max_ops=25))
    prefix = [("h", (q,)) for q in range(n) if draw(st.booleans())]
    suffix = [(draw(st.sampled_from(["x", "y", "z"])), (q,))
              for q in range(n) if draw(st.booleans())]
    return n, prefix + ops + suffix


class TestMatchesElimination:
    """The packed graph form against the numpy Gauss-Jordan reference."""

    def assert_same(self, rows):
        gf = graph_form(rows)
        adjacency, applied = graph_form_by_elimination(rows)
        assert np.array_equal(adjacency_matrix(gf), adjacency)
        assert gf.applied == applied
        return gf

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(clifford_ops(), rank_deficient_cliffords()))
    def test_random_cliffords(self, case):
        n, ops = case
        self.assert_same(stabilizer_after(ops, n))

    def test_h_and_z_sweeps_run(self):
        # |1>|+>: the stabilizers -Z0 and X1 need H and then Z on qubit 0
        gf = self.assert_same(stabilizer_after([("h", (0,)), ("x", (0,))], 2))
        assert gf.applied == (("h", "z"), ())
        gf = self.assert_same(stabilizer_after([("h", (1,)), ("cx", (0, 1)),
                                                ("s", (0,)), ("y", (1,))], 2))
        assert gf.edges() == [(0, 1)]
        assert {g for a in gf.applied for g in a} == {"h", "s", "z"}

    @pytest.mark.parametrize("n", [8, 16])
    def test_qft_widgets(self, n, monkeypatch):
        monkeypatch.delenv("QRE_CACHE_DIR", raising=False)
        cw = compile_widget(transpile(generate_qft(n)))
        gf = self.assert_same(stabilizer_after(cw.prep_ops, cw.n_nodes))
        assert tuple(gf.edges()) == cw.edges
        assert gf.applied == cw.local_cliffords


class TestMatchesRowElimination:
    """The column-basis graph form against the row-major elimination it
    replaced (``oracles.graph_form_by_rows``)."""

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(clifford_ops(), rank_deficient_cliffords()))
    def test_random_cliffords(self, case):
        n, ops = case
        rows = stabilizer_after(ops, n)
        gf = graph_form(rows)
        assert (gf.adjacency, gf.applied) == graph_form_by_rows(rows)

    @pytest.mark.parametrize("n", [8, 20])
    def test_qft_widgets(self, n, monkeypatch):
        monkeypatch.delenv("QRE_CACHE_DIR", raising=False)
        cw = compile_widget(transpile(generate_qft(n)))
        rows = stabilizer_after(cw.prep_ops, cw.n_nodes)
        gf = graph_form(rows)
        assert (gf.adjacency, gf.applied) == graph_form_by_rows(rows)
        assert gf.edge_list == cw.edges
        assert gf.applied == cw.local_cliffords

    def test_invalid_rows_raise_in_both(self):
        for rows in (packed_rows([[1, 0], [1, 0]], [[0, 0], [1, 1]], [0, 0]),
                     packed_rows([[1, 0], [0, 1]], [[0, 0], [1, 0]], [0, 0]),
                     packed_rows([[1, 0], [1, 0]], [[0, 0], [0, 0]], [0, 1]),
                     packed_rows([[1, 0]], [[0, 0]], [0])):
            with pytest.raises(StabilizerError):
                graph_form(rows)
            with pytest.raises(StabilizerError):
                graph_form_by_rows(rows)
