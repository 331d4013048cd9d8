"""Tests for parsing, transpilation, QFT generation, and widget files."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dense import circuit_unitary
from oracles import gate
from qre import _sim, circuit
from qre.circuit import (
    ANGLE_LIMIT,
    ARITY,
    KIND_NAME,
    SNAP_TOL,
    CircuitError,
    Gate,
    GateKind,
    GateOp,
    circuit_width,
    emit_qasm,
    gate_list_digest,
    generate_qft,
    parse_qasm,
    transpile,
)
from qre.config import ArchConfig
from qre.pipeline import load_circuit
from qre.widgetizer import WidgetPlan, parse_widget_file

import oracles


def unitary_of(gates, n):
    def apply(state):
        for g in gates:
            state = _sim.apply_matrix(state, _gate_matrix(g), g.qubits)
        return state
    return circuit_unitary(apply, n)


def _gate_matrix(g: Gate):
    table = {
        GateKind.H: _sim.H_MAT, GateKind.S: _sim.S_MAT, GateKind.Sdg: _sim.SDG_MAT,
        GateKind.X: _sim.X_MAT, GateKind.Y: _sim.Y_MAT, GateKind.Z: _sim.Z_MAT,
        GateKind.T: _sim.T_MAT, GateKind.Tdg: _sim.TDG_MAT,
        GateKind.CX: _sim.CX_MAT, GateKind.CZ: _sim.CZ_MAT,
        GateKind.SWAP: _sim.SWAP_MAT, GateKind.CCX: _sim.CCX_MAT,
    }
    if g.kind is GateKind.Rz:
        return _sim.rz_mat(g.angle)
    if g.kind is GateKind.CPhase:
        return _sim.cphase_mat(g.angle)
    return table[g.kind]


class TestGate:
    def test_negative_qubit_rejected(self):
        with pytest.raises(CircuitError, match="negative qubit index"):
            Gate(GateKind.CX, (-1, 0))
        with pytest.raises(CircuitError, match="negative qubit index"):
            gate(GateKind.Rz, -3, angle=0.1)

    @pytest.mark.parametrize("kind, qubits", [(GateKind.Rz, (0,)),
                                              (GateKind.CPhase, (0, 1))])
    def test_angle_limit(self, kind, qubits):
        """At and past 2**52 * SNAP_TOL an angle's float spacing nears
        SNAP_TOL, so the pi/4 snap test means nothing: rz(1e16) became Z
        and rz(1e20) vanished. Such angles are refused."""
        assert ANGLE_LIMIT == 2**52 * SNAP_TOL
        below = math.nextafter(ANGLE_LIMIT, 0)
        assert Gate(kind, qubits, below).angle == below
        assert Gate(kind, qubits, -below).angle == -below
        for angle in (ANGLE_LIMIT, -ANGLE_LIMIT, 1e16, -1e20):
            with pytest.raises(CircuitError, match=(
                    rf"^{kind.name} angle {re.escape(repr(angle))} is too "
                    r"large: reduce it modulo 2\*pi below 4503\.6$")):
                Gate(kind, qubits, angle)

    def test_kinds_hash_by_identity_and_name_table(self):
        assert all(hash(kind) == object.__hash__(kind) for kind in GateKind)
        assert KIND_NAME == {kind: kind.value for kind in GateKind}

    def test_digest_is_exact(self):
        qft = generate_qft(4)
        assert gate_list_digest(qft) == gate_list_digest(tuple(qft))
        assert gate_list_digest(qft) != gate_list_digest(qft[:-1])
        near = [[gate(GateKind.Rz, 0, angle=a)] for a in (0.1234561, 0.1234564)]
        assert repr(near[0]) == repr(near[1])  # Gate.__repr__ rounds
        assert gate_list_digest(near[0]) != gate_list_digest(near[1])
        moved = [gate(GateKind.CX, 1, 0)]
        assert gate_list_digest(moved) != gate_list_digest([gate(GateKind.CX, 0, 1)])
        assert len(gate_list_digest(qft)) == 64


class TestParseQasm:
    def test_declared_register(self):
        assert parse_qasm("qreg q[40]; h q[0];")[0] == 40
        assert parse_qasm("// qreg q[4];\n") == (None, [])

    def test_basic(self):
        n_qubits, gates = parse_qasm("qreg q[2]; h q[0]; cx q[0],q[1];")
        assert n_qubits == 2
        assert gates == [gate(GateKind.H, 0), gate(GateKind.CX, 0, 1)]

    def test_rz_float(self):
        _, gates = parse_qasm("qreg q[2]; rz(0.3) q[1];")
        assert gates == [gate(GateKind.Rz, 1, angle=0.3)]

    def test_rz_pi_expression(self):
        _, (g,) = parse_qasm("qreg q[1]; rz(pi/4) q[0];")
        assert g.kind is GateKind.Rz
        assert g.angle == pytest.approx(math.pi / 4, abs=0)

    def test_header_include_and_comments(self):
        text = """OPENQASM 2.0;
        include "qelib1.inc";
        qreg q[3];
        // a comment
        ccx q[0],q[1],q[2]; cp(-pi/8) q[0],q[2];
        """
        _, gates = parse_qasm(text)
        assert [g.kind for g in gates] == [GateKind.CCX, GateKind.CPhase]
        assert gates[1].angle == pytest.approx(-math.pi / 8)

    def test_unsupported_gate_names_gate_and_line(self):
        with pytest.raises(CircuitError, match=r"line 2.*'u3'"):
            parse_qasm("qreg q[1];\nu3(0,0,0) q[0];")

    def test_index_out_of_range(self):
        with pytest.raises(CircuitError, match="out of range"):
            parse_qasm("qreg q[2]; h q[2];")

    def test_duplicate_operand_rejected(self):
        with pytest.raises(CircuitError, match="duplicate"):
            parse_qasm("qreg q[2]; cx q[1],q[1];")

    def test_repeated_angle_literal_is_folded_once(self, monkeypatch):
        parsed = []
        real_parse = circuit.ast.parse
        monkeypatch.setattr(circuit.ast, "parse",
                            lambda *args, **kw: parsed.append(args[0])
                            or real_parse(*args, **kw))
        circuit._fold_angle.cache_clear()
        _, gates = parse_qasm("qreg q[2];\n" + "rz(pi/7) q[0];\ncp(pi/7) q[1],q[0];\n" * 40)
        assert parsed == ["pi/7"]
        assert {g.angle for g in gates} == {math.pi / 7}

    def test_bad_angle_names_its_own_line_every_time(self):
        good = "qreg q[1];\nrz(pi/7) q[0];\n"
        for k in (3, 5, 8):
            text = good + "rz(pi/7) q[0];\n" * (k - 3) + "rz(tau/2) q[0];\n"
            with pytest.raises(CircuitError, match=rf"^line {k}: unknown symbol 'tau'"):
                parse_qasm(text)
        with pytest.raises(CircuitError, match=r"^line 2: bad angle expression"):
            parse_qasm("qreg q[1];\nrz(pi/) q[0];")

    @pytest.mark.parametrize("expr, message", [
        ("1/0", "division by zero in angle '1/0'"),
        ("0**-1", "division by zero in angle '0**-1'"),
        ("10**400", "angle '10**400' does not fit in a float"),
        ("2**0.5**-2000", "angle '2**0.5**-2000' does not fit in a float"),
        # Refused before the integer is built: it would take ~1.2e9 bits.
        ("9**9**9", "angle '9**9**9' does not fit in a float"),
        ("2**1024/2", "angle '2**1024/2' does not fit in a float"),
        ("10**300*10**300/3", "angle '10**300*10**300/3' does not fit in a float"),
        # Too deep for the evaluator, and for the parser itself.
        ("-" * 1200 + "1", f"angle expression {'-' * 1200 + '1'!r} is nested too deeply"),
        ("+".join(["1"] * 5000),
         f"angle expression {'+'.join(['1'] * 5000)!r} is nested too deeply"),
        ("2**" * 5000 + "2", f"angle expression {'2**' * 5000 + '2'!r} is nested too deeply"),
    ])
    def test_angle_arithmetic_failure_names_its_line(self, expr, message):
        with pytest.raises(CircuitError, match="^line 3: " + re.escape(message) + "$"):
            parse_qasm(f"qreg q[1];\nh q[0];\nrz({expr}) q[0];")

    def test_complex_angle_rejected(self):
        with pytest.raises(CircuitError, match=r"^angle '\(-1\)\*\*0\.5' is not a real number$"):
            circuit._fold_angle("(-1)**0.5")

    def test_powers_that_fit_keep_their_value(self):
        assert circuit._fold_angle("2**1023") == 2.0**1023
        assert circuit._fold_angle("(2**1023 + 2**970) / 2**1000") == float(
            (2**1023 + 2**970) / 2**1000)
        assert circuit._fold_angle("1**(10**300)") == 1.0
        assert circuit._fold_angle("2**-2000") == 0.0

    ANGLE_ATOMS = st.sampled_from(["0", "1", "2", "3", "7", "9", "0.5", "1e-3",
                                   "2.5e2", "pi", "1e308"])

    @settings(max_examples=300, deadline=None)
    @given(st.recursive(
        st.one_of(ANGLE_ATOMS,
                  st.builds("{}**{}".format, ANGLE_ATOMS,
                            st.sampled_from(["0", "1", "2", "3", "0.5"]))),
        lambda inner: st.one_of(
            st.builds("({}){}({})".format, inner,
                      st.sampled_from(["+", "-", "*", "/"]), inner),
            st.builds("-({})".format, inner)),
        max_leaves=6))
    def test_fold_matches_eval(self, expr):
        """Powers apply to numbers alone, so every integer these
        expressions build fits a float: the fold gives ``eval``'s value,
        and fails exactly where ``eval`` does."""
        try:
            expected = repr(oracles.fold_angle_by_eval(expr))
        except ArithmeticError:
            expected = None
        try:
            got = repr(circuit._fold_angle(expr))
        except CircuitError:
            got = None
        assert got == expected

    def test_roundtrip_exact(self):
        gates = [gate(GateKind.H, 0), gate(GateKind.Rz, 1, angle=0.12345678901234567),
                 gate(GateKind.CPhase, 2, 0, angle=-math.pi / 16),
                 gate(GateKind.CCX, 0, 1, 2), gate(GateKind.SWAP, 1, 2)]
        assert parse_qasm(emit_qasm(gates)) == (3, gates)


# Statements as token runs; ``qasm_texts`` draws the whitespace between
# tokens, so a statement may split over lines or lose a needed space.
QASM_VALID = [
    ("h", "q[0]"), ("h", "q", "[", "2", "]"), ("x", "q[1]"), ("y", "q[\u0661]"),
    ("t", "q[2]"), ("sdg", "q[0]"), ("cx", "q[0]", ",", "q[1]"),
    ("swap", "q[0],", "q[2]"), ("ccx", "q[0],q[1],q[2]"), ("cz", "q[2],q[1]"),
    ("rz(pi/4)", "q[1]"), ("rz", "(", "0.3", ")", "q[2]"), ("rz(-pi/8)", "q[0]"),
    ("rz(pi", "/", "2)", "q[0]"), ("rz(", "pi/2", ")", "q[1]"),
    ("rz(2*pi/3)", "q[2]"), ("cp(pi/16)", "q[2],q[0]"), ("cp(1e3)", "q[0],q[1]"),
    ("cp(-1.5)", "q[1]", ",", "q[2]"), ("include", '"qelib1.inc"'),
]
QASM_INVALID = [
    ("OPENQASM", "3.0"), ("qreg", "q", "[", "4", "]"), ("qreg", "r[2]"),
    ("qreg", "q"), ("x", "q[3]"), ("t", "r[0]"), ("cx", "q[1],q[1]"),
    ("cz", "q[0]"), ("cz", "q[0],q[1],q[2]"), ("cz", "q[0],r[1]"), ("rz", "q[0]"),
    ("h(0.5)", "q[0]"), ("rz(tau)", "q[0]"), ("rz()", "q[0]"), ("rz(pi/)", "q[0]"),
    ("rz((pi)/2)", "q[0]"), ("rz(pi\\", "/2)", "q[0]"), ("rz(5e3)", "q[0]"),
    ("foo", "q[0]"), ("U3(0,0,0)", "q[0]"), ("h", "q[0]", "q[1]"), ("h", "q[-1]"),
    ("hq[0]",), ("measure", "q[0]", "->", "c[0]"),
]
QASM_SPACES = [" ", "  ", "\n", "\t", "\r\n", "\r", "\n \n",
               " // a comment; not a statement\n", "//\n", "\x0b", "\x85",
               "\u2028", "\xa0", "\x1f"]


@st.composite
def qasm_texts(draw):
    """Random QASM-like text: mostly valid statements after a header,
    tokens and statements parted by any whitespace or comment (now and
    then by none), several statements on a line or one over several, the
    last sometimes missing its ';'."""
    space = st.sampled_from([""] + QASM_SPACES)
    token_space = st.sampled_from([" "] * 8 + QASM_SPACES + [""])
    statements = draw(st.lists(
        st.sampled_from(QASM_VALID * 12 + QASM_INVALID), max_size=10))
    if draw(st.sampled_from([True] * 9 + [False])):
        statements.insert(0, ("qreg q[3]",))
    if draw(st.booleans()):
        statements.insert(0, ("OPENQASM", "2.0"))
    parts = [draw(space)]
    for k, tokens in enumerate(statements):
        for token in tokens:
            parts += [token, draw(token_space)]
        if k < len(statements) - 1 or draw(st.integers(0, 3)):
            parts += [";", draw(space)]
    return "".join(parts)


def outcome(parse, text):
    try:
        return parse(text)
    except CircuitError as exc:
        return str(exc)


class TestParseQasmOracle:
    """parse_qasm against ``oracles.parse_qasm_by_lines``, the reader that
    cut statements from a line buffer and matched each field by field: the
    same register size and gates, or the same error message."""

    @settings(max_examples=400, deadline=None)
    @given(qasm_texts())
    def test_same_result_or_message(self, text):
        assert outcome(parse_qasm, text) == outcome(oracles.parse_qasm_by_lines, text)

    @pytest.mark.parametrize("text", [
        "", "\n\n", "qreg q[2];", "qreg q[2];\nh q[0]",
        "qreg q[2];\n\n  h\n q[0] // c;\n\n x q[5];",
        "qreg q[2]; h q[0];\r\nfoo q[1];", "qreg q[2];\x0bh q[0];\u2028 rz(pi/) q[1];",
        "qreg q[2];\nh q[0]; x q[1]\n\n", "qreg q[2];\nrz(pi\\\n/2) q[0];",
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n"
        "qreg q[2];\ncp(pi/2) q[0], q[1];\nrz( pi / 4 ) q[1];\n",
    ])
    def test_examples(self, text):
        assert outcome(parse_qasm, text) == outcome(oracles.parse_qasm_by_lines, text)


class TestTranspile:
    def test_ccx_is_seven_t_and_matches_matrix(self):
        tw = transpile([gate(GateKind.CCX, 0, 1, 2)])
        assert tw.n_T_init == 7
        assert tw.n_Rz_init == 0
        assert tw.n_T_init + tw.n_Rz_init + tw.n_Clifford_init == len(tw.gates)
        u = unitary_of(tw.gates, 3)
        assert oracles.same_up_to_phase(u, oracles.ccx_matrix())

    def test_clifford_angle_snaps(self):
        tw = transpile([gate(GateKind.Rz, 0, angle=math.pi / 2)])
        assert [g.kind for g in tw.gates] == [GateKind.S]
        assert (tw.n_Rz_init, tw.n_Clifford_init) == (0, 1)

    def test_identity_angle_drops(self):
        tw = transpile([gate(GateKind.Rz, 0, angle=0.0)])
        assert tw.gates == ()

    def test_generic_rz_kept(self):
        tw = transpile([gate(GateKind.Rz, 0, angle=0.3), gate(GateKind.T, 0)])
        assert tw.n_Rz_init == 1
        assert tw.n_T_init == 1

    def test_every_pi4_multiple(self):
        for k in range(-8, 9):
            angle = k * math.pi / 4
            tw = transpile([gate(GateKind.Rz, 0, angle=angle)])
            assert tw.n_Rz_init == 0
            u = unitary_of(tw.gates, 1)
            assert oracles.same_up_to_phase(u, oracles.small_matrix("rz", angle))

    def test_cphase_expansion_counts(self):
        tw = transpile([gate(GateKind.CPhase, 0, 1, angle=0.7)])
        assert tw.n_Rz_init == 3
        assert sum(1 for g in tw.gates if g.kind is GateKind.CX) == 2

    def test_cphase_at_pi_over_2_becomes_t_like(self):
        # angle/2 = pi/4: all three rotations snap to T/Tdg.
        tw = transpile([gate(GateKind.CPhase, 0, 1, angle=math.pi / 2)])
        assert tw.n_Rz_init == 0
        assert tw.n_T_init == 3

    def test_nan_angle_rejected(self):
        with pytest.raises(CircuitError):
            transpile([Gate(GateKind.Rz, (0,), float("nan"))])


ALPHABET = list(GateKind)


@st.composite
def random_circuit(draw, n_qubits=3, max_len=12):
    length = draw(st.integers(0, max_len))
    gates = []
    for _ in range(length):
        kind = draw(st.sampled_from(ALPHABET))
        arity = {GateKind.CX: 2, GateKind.CZ: 2, GateKind.SWAP: 2,
                 GateKind.CPhase: 2, GateKind.CCX: 3}.get(kind, 1)
        qubits = tuple(draw(st.permutations(range(n_qubits)))[:arity])
        angle = None
        if kind in (GateKind.Rz, GateKind.CPhase):
            angle = draw(st.one_of(
                st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False),
                st.sampled_from([k * math.pi / 4 for k in range(-8, 9)]),
            ))
        gates.append(Gate(kind, qubits, angle))
    return gates


class TestTranspileUnitarity:
    @settings(max_examples=60, deadline=None)
    @given(random_circuit())
    def test_preserves_unitary(self, gates):
        tw = transpile(gates)
        u_in = oracles.oracle_unitary(gates, 3)
        u_out = unitary_of(tw.gates, 3)
        assert oracles.same_up_to_phase(u_out, u_in)

    @settings(max_examples=40, deadline=None)
    @given(random_circuit())
    def test_roundtrip_qasm(self, gates):
        assert parse_qasm(emit_qasm(gates, 3)) == (3, gates)

    @settings(max_examples=40, deadline=None)
    @given(random_circuit())
    def test_count_conservation(self, gates):
        tw = transpile(gates)
        assert tw.n_T_init == sum(1 for g in tw.gates
                                  if g.kind in (GateKind.T, GateKind.Tdg))
        assert tw.n_Rz_init == sum(1 for g in tw.gates if g.kind is GateKind.Rz)
        assert tw.n_T_init + tw.n_Rz_init + tw.n_Clifford_init == len(tw.gates)

    @settings(max_examples=40, deadline=None)
    @given(random_circuit())
    def test_output_gates_pass_validation(self, gates):
        """transpile builds its ops without Gate's checks; each one must
        still pass them when rebuilt as a Gate, with the same triple."""
        out = transpile(gates).gates
        rebuilt = [Gate(*op) for op in out]
        assert [(g.kind, g.qubits, g.angle) for g in rebuilt] == list(map(tuple, out))


SNAP_ANGLES = st.builds(
    lambda k, delta: k * math.pi / 4 + delta,
    st.integers(-16, 16),
    st.one_of(st.just(0.0),
              st.floats(-2 * SNAP_TOL, 2 * SNAP_TOL, allow_nan=False)))


@st.composite
def near_snap_circuit(draw, n_qubits=3, max_len=12):
    """Gates of every kind whose Rz angles, and CPhase half-angles, lie
    near multiples of pi/4: within SNAP_TOL, just past it, or generic."""
    gates = []
    for _ in range(draw(st.integers(0, max_len))):
        kind = draw(st.sampled_from(ALPHABET))
        qubits = tuple(draw(st.permutations(range(n_qubits)))[:ARITY[kind]])
        angle = None
        if kind in (GateKind.Rz, GateKind.CPhase):
            angle = draw(st.one_of(SNAP_ANGLES,
                                   st.floats(-4 * math.pi, 4 * math.pi,
                                             allow_nan=False)))
            if kind is GateKind.CPhase:
                angle *= 2
        gates.append(Gate(kind, qubits, angle))
    return gates


class TestTranspileOracle:
    """transpile against ``oracles.transpile_by_gates``, which builds one
    validated Gate per output gate, snaps each rotation on its own and
    counts in a second pass."""

    @settings(max_examples=200, deadline=None)
    @given(near_snap_circuit())
    def test_ops_and_counts_match(self, gates):
        tw = transpile(gates)
        ref, n_t, n_rz, n_clifford = oracles.transpile_by_gates(gates)
        assert all(type(op) is GateOp for op in tw.gates)
        assert list(map(tuple, tw.gates)) == [(g.kind, g.qubits, g.angle)
                                              for g in ref]
        assert (tw.n_T_init, tw.n_Rz_init, tw.n_Clifford_init) == (
            n_t, n_rz, n_clifford)

    def test_cphase_halves_snap_together(self):
        for k in range(-8, 9):
            for delta in (0.0, SNAP_TOL / 2, -SNAP_TOL / 2, 3 * SNAP_TOL):
                g = gate(GateKind.CPhase, 0, 1, angle=2 * (k * math.pi / 4 + delta))
                ref = oracles.transpile_by_gates([g])[0]
                assert list(map(tuple, transpile([g]).gates)) == [
                    (r.kind, r.qubits, r.angle) for r in ref]


class TestGenerateQft:
    def test_n1(self):
        assert generate_qft(1) == [gate(GateKind.H, 0)]

    def test_n2_structure(self):
        gates = generate_qft(2)
        assert gates == [
            gate(GateKind.H, 0),
            gate(GateKind.CPhase, 1, 0, angle=math.pi / 2),
            gate(GateKind.H, 1),
            gate(GateKind.SWAP, 0, 1),
        ]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_count_formula(self, n):
        assert len(generate_qft(n)) == n * (n + 1) // 2 + n // 2

    def test_largest_size(self):
        """QFT-512's smallest phase, pi / 2**511, is still a positive float
        that its QASM text gives back exactly."""
        gates = generate_qft(512)
        assert len(gates) == 512 * 513 // 2 + 256 == 131_584
        assert sum(g.kind is GateKind.CPhase for g in gates) == 512 * 511 // 2
        assert parse_qasm(emit_qasm(gates, 512)) == (512, gates)
        assert min(g.angle for g in gates if g.angle) == math.pi / 2 ** 511

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_dft_matrix(self, n):
        u = unitary_of(generate_qft(n), n)
        assert np.max(np.abs(u - oracles.dft_matrix(n))) < 1e-10

    def test_transpiled_qft_still_dft(self):
        tw = transpile(generate_qft(3))
        u = unitary_of(tw.gates, 3)
        assert oracles.same_up_to_phase(u, oracles.dft_matrix(3))

    def test_out_of_range(self):
        with pytest.raises(CircuitError):
            generate_qft(0)
        with pytest.raises(CircuitError, match=r"1\.\.512"):
            generate_qft(513)


class TestWidgetFiles:
    PATH = "circ.json"

    def test_sequence_and_stitches(self):
        qasm = "qreg q[2]; h q[0];"
        payload = {
            "format": 1, "n_input": 2,
            "distinct_widgets": {"A": qasm, "B": qasm},
            "sequence": ["A", "B", "A", "B"],
        }
        wc = WidgetPlan.from_sequence(*parse_widget_file(payload, self.PATH))
        assert wc.n_widgets == 4
        assert wc.n_distinct_widgets == 2
        assert wc.stitches == {("A", "B"): 2, ("B", "A"): 1}
        assert sum(wc.stitches.values()) == wc.n_widgets - 1

    def test_single_widget(self):
        payload = {
            "format": 1, "n_input": 1,
            "distinct_widgets": {"A": "qreg q[1]; t q[0];"},
            "sequence": ["A"],
        }
        wc = WidgetPlan.from_sequence(*parse_widget_file(payload, self.PATH))
        assert wc.n_widgets == 1
        assert wc.stitches == {}

    def test_undefined_id(self):
        payload = {
            "format": 1, "n_input": 1,
            "distinct_widgets": {"A": "qreg q[1]; t q[0];"},
            "sequence": ["A", "C"],
        }
        with pytest.raises(CircuitError, match="'C'"):
            WidgetPlan.from_sequence(*parse_widget_file(payload, self.PATH))

    def test_width_mismatch(self):
        payload = {
            "format": 1, "n_input": 2,
            "distinct_widgets": {"A": "qreg q[3]; h q[0];"},
            "sequence": ["A"],
        }
        with pytest.raises(CircuitError, match="declares 3"):
            parse_widget_file(payload, self.PATH)

    def test_commented_qreg_is_not_a_declaration(self):
        payload = {"n_input": 3, "sequence": ["A"],
                   "distinct_widgets": {"A": "// qreg c[2]\nqreg q[3];\nh q[2];"}}
        n_input, table, _ = parse_widget_file(payload, self.PATH)
        assert n_input == 3
        assert table == {"A": [gate(GateKind.H, 2)]}

    def test_body_without_register_is_not_checked(self):
        payload = {"n_input": 2, "sequence": ["A"],
                   "distinct_widgets": {"A": "// qreg q[5];"}}
        assert parse_widget_file(payload, self.PATH)[1] == {"A": []}

    @pytest.mark.parametrize("body", [5, None, ["h q[0];"], {"qasm": "x"}])
    def test_widget_body_not_a_string(self, body):
        payload = {"format": 1, "n_input": 1,
                   "distinct_widgets": {"A": "qreg q[1]; t q[0];", "B": body},
                   "sequence": ["A", "B"]}
        with pytest.raises(CircuitError,
                           match=r"circ\.json: widget 'B' must be an OpenQASM"):
            parse_widget_file(payload, self.PATH)

    @pytest.mark.parametrize("n_input", [None, 2.5, True, "2", [2]])
    def test_n_input_must_be_an_integer(self, n_input):
        payload = {"n_input": n_input, "distinct_widgets": {"A": "t q[0];"},
                   "sequence": ["A"]}
        with pytest.raises(CircuitError,
                           match=r"^circ\.json: n_input must be an integer"):
            parse_widget_file(payload, self.PATH)

    def test_integral_n_input_accepted(self):
        payload = {"n_input": 2.0, "distinct_widgets": {"A": "qreg q[2]; t q[1];"},
                   "sequence": ["A"]}
        n_input, _, _ = parse_widget_file(payload, self.PATH)
        assert n_input == 2 and type(n_input) is int

    def test_qasm_error_names_file_and_widget(self):
        payload = {"n_input": 1,
                   "distinct_widgets": {"A": "qreg q[1]; foo q[0];",
                                        "B": "qreg q[1]; h q[0];"},
                   "sequence": ["B", "A"]}
        with pytest.raises(CircuitError, match=r"^circ\.json: widget 'A': "
                           r"line 1: unsupported gate 'foo'"):
            parse_widget_file(payload, self.PATH)

    def test_table_order_is_kept(self):
        payload = {"n_input": 1,
                   "distinct_widgets": {"B": "qreg q[1]; h q[0];",
                                        "U": "qreg q[1]; x q[0];",
                                        "A": "qreg q[1]; t q[0];"},
                   "sequence": ["A", "B", "A"]}
        plan = WidgetPlan.from_sequence(*parse_widget_file(payload, self.PATH))
        assert list(plan.widgets) == ["B", "A"]
        assert list(plan.multiplicity) == list(plan.ids) == ["B", "A"]
        assert (plan.first, plan.last) == ("A", "A")

    def test_count_stitches_plain(self):
        def stitches(sequence):
            return WidgetPlan.from_sequence(1, {"a": []}, sequence).stitches
        assert stitches(["a"] * 4) == {("a", "a"): 3}
        assert stitches(["a"]) == {}

    def test_single_helper(self, tmp_path):
        # a flat QASM file is one widget on its declared register
        path = tmp_path / "h.qasm"
        path.write_text("qreg q[3]; h q[0];")
        wc = load_circuit(path, ArchConfig()).plan
        assert wc.n_input == 3
        assert wc.n_widgets == 1


def test_circuit_width():
    assert circuit_width([]) == 0
    assert circuit_width([gate(GateKind.CX, 0, 3)]) == 4
