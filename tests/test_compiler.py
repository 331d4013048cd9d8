"""Tests for widget -> graph-state compilation, stitching, and verification."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dense import graph_state, prep_state
from oracles import (
    frames_by_replay,
    gadgets_of,
    layers_by_kahn,
    layers_by_rescan,
    max_live_nodes_by_scan,
    same_up_to_phase,
)
from pool import benchmark_pool_circuit
from qre import _sim
from qre.circuit import (
    ANGLED,
    ARITY,
    Gate,
    GateKind,
    circuit_width,
    emit_qasm,
    gate,
    gate_list_digest,
    generate_qft,
    invert_gates,
    transpile,
)
from qre.compiler import (
    SIM_QUBIT_LIMIT,
    CompileError,
    CompiledWidget,
    Measurement,
    PauliFrame,
    _layer_consumption,
    cache_key,
    compile_widget,
    stitch,
    verify_unitarity,
)
from qre.config import ArchConfig
from qre.pipeline import compile_plan, load_circuit, verify_circuit
from qre.stabilizer import GraphForm, PauliRows
from qre.widgetizer import WidgetPlan

PI = math.pi


def compiled(gates, n=None):
    return compile_widget(transpile(gates), n_input=n)


class TestSingleGadget:
    def test_t_widget_structure(self):
        cw = compiled([gate(GateKind.T, 0)])
        assert cw.n_input == 1
        assert cw.n_nodes == 2
        assert cw.edges == ((0, 1),)
        assert cw.input_nodes == (0,)
        assert cw.output_nodes == (1,)
        assert cw.measurements == (Measurement(0, "T", PI / 4),)
        assert cw.frames == {0: PauliFrame(x_support=(), z_support=(1,))}
        assert cw.consump_schedule == ((0,),)
        assert cw.n_logical == 2
        assert cw.n_T == 1 and cw.n_Rz == 0

    def test_tdg_and_rz_angles(self):
        cw = compiled([gate(GateKind.Tdg, 0), gate(GateKind.Rz, 0, angle=0.3)])
        kinds = [(m.kind, m.angle) for m in cw.measurements]
        assert kinds == [("T", -PI / 4), ("Rz", 0.3)]

    def test_clifford_only_widget(self):
        cw = compiled([gate(GateKind.H, 0), gate(GateKind.CX, 0, 1)])
        assert cw.n_nodes == 2
        assert cw.measurements == ()
        assert cw.frames == {}
        assert cw.consump_schedule == ()
        assert cw.n_logical == 2
        assert cw.output_nodes == (0, 1)

    def test_empty_widget_with_width(self):
        cw = compiled([], n=2)
        assert cw.n_nodes == 2
        assert cw.prep_ops == ()
        assert cw.n_logical == 2

    def test_swap_is_pure_relabeling(self):
        cw = compiled([gate(GateKind.SWAP, 0, 1)])
        assert cw.n_nodes == 2
        assert cw.prep_ops == ()
        assert cw.output_nodes == (1, 0)

    def test_width_overflow_rejected(self):
        with pytest.raises(CompileError):
            compiled([gate(GateKind.CX, 0, 1)], n=1)


class TestFramesAndSchedule:
    def test_tt_chain_frames(self):
        cw = compiled([gate(GateKind.T, 0), gate(GateKind.T, 0)])
        # each byproduct Z_f commutes with the later cz, so it stays local,
        # but node 1's own measurement must wait for node 0's outcome
        assert cw.frames[0] == PauliFrame(x_support=(), z_support=(1,))
        assert cw.frames[1] == PauliFrame(x_support=(), z_support=(2,))
        assert cw.consump_schedule == ((0,), (1,))
        # canonical form turns the gadget path into a star centered on the
        # input, so both fresh nodes must exist when node 0 is measured
        assert cw.edges == ((0, 1), (0, 2))
        assert cw.n_logical == 3

    def test_parallel_ts_share_one_substep(self):
        cw = compiled([gate(GateKind.T, 0), gate(GateKind.T, 1)])
        assert cw.consump_schedule == ((0, 1),)
        assert cw.n_nodes == 4

    def test_frames_never_touch_their_source(self):
        cw = compiled(transpile(generate_qft(3)).gates)
        for a, frame in cw.frames.items():
            assert a not in frame.touches()

    def test_layers_partition_measured_nodes(self):
        cw = compiled(transpile(generate_qft(3)).gates)
        flat = [v for layer in cw.consump_schedule for v in layer]
        assert sorted(flat) == sorted(m.node for m in cw.measurements)
        assert len(flat) == len(set(flat))


class TestNodeCounts:
    def test_qft3_totals(self):
        cw = compile_widget(transpile(generate_qft(3)))
        assert cw.n_nodes == 12
        assert cw.n_T == 6 and cw.n_Rz == 3

    def test_toffoli_totals(self):
        cw = compiled([gate(GateKind.CCX, 0, 1, 2)])
        assert cw.n_nodes == 10
        assert cw.n_T == 7 and cw.n_Rz == 0

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 6), st.integers(0, 3))
    def test_node_count_formula(self, n_t, n_rz):
        gates = [gate(GateKind.T, 0)] * n_t
        gates += [gate(GateKind.Rz, 0, angle=0.1 + i) for i in range(n_rz)]
        cw = compiled(gates, n=2)
        assert cw.n_nodes == 2 + n_t + n_rz
        assert len(cw.measurements) == n_t + n_rz
        assert 2 <= cw.n_logical <= cw.n_nodes


class TestLocalState:
    def test_canonical_graph_reproduces_prep_state(self):
        for gates in ([gate(GateKind.T, 0)],
                      [gate(GateKind.H, 0), gate(GateKind.CX, 0, 1),
                       gate(GateKind.T, 1), gate(GateKind.S, 0)],
                      transpile(generate_qft(3)).gates):
            cw = compiled(gates)
            state = graph_state(cw.edges, cw.local_cliffords)
            assert same_up_to_phase(
                state.reshape(-1),
                prep_state(cw.prep_ops, cw.n_nodes).reshape(-1))


class TestVerification:
    def test_t_widget_is_t_gate(self):
        cw = compiled([gate(GateKind.T, 0)])
        for seed in range(8):
            fid = verify_unitarity([cw], [gate(GateKind.Tdg, 0)], seed=seed)
            assert fid >= 1 - 1e-9

    def test_rz_widget(self):
        theta = 1.234
        cw = compiled([gate(GateKind.Rz, 0, angle=theta)])
        for seed in range(8):
            fid = verify_unitarity([cw], [gate(GateKind.Rz, 0, angle=-theta)],
                                   seed=seed)
            assert fid >= 1 - 1e-9

    def test_qft3_round_trip(self):
        gates = generate_qft(3)
        cw = compile_widget(transpile(gates))
        for seed in range(5):
            fid = verify_unitarity([cw], invert_gates(gates), seed=seed)
            assert fid >= 1 - 1e-9

    def test_toffoli_round_trip(self):
        gates = [gate(GateKind.CCX, 0, 1, 2)]
        cw = compile_widget(transpile(gates))
        for seed in range(5):
            fid = verify_unitarity([cw], invert_gates(gates), seed=seed)
            assert fid >= 1 - 1e-9

    def test_two_widget_relay(self):
        a = compiled([gate(GateKind.H, 0)])
        b = compiled([gate(GateKind.H, 0)])
        for seed in range(6):
            assert verify_unitarity([a, b], [], seed=seed) >= 1 - 1e-9

    def test_t_then_tdg_chain(self):
        a = compiled([gate(GateKind.T, 0)])
        b = compiled([gate(GateKind.Tdg, 0)])
        for seed in range(6):
            assert verify_unitarity([a, b], [], seed=seed) >= 1 - 1e-9

    def test_qubit_budget_enforced(self):
        cw = compiled([gate(GateKind.T, 0)] * 12)  # 13 nodes
        with pytest.raises(CompileError):
            verify_unitarity([cw], invert_gates([gate(GateKind.T, 0)] * 12))

    def test_mismatched_widths_rejected(self):
        a = compiled([gate(GateKind.H, 0)], n=1)
        b = compiled([gate(GateKind.H, 0)], n=2)
        with pytest.raises(CompileError):
            verify_unitarity([a, b], [])


SINGLE_Q = [GateKind.H, GateKind.S, GateKind.Sdg, GateKind.X, GateKind.Z,
            GateKind.T, GateKind.Tdg]
DOUBLE_Q = [GateKind.CX, GateKind.CZ, GateKind.SWAP]


@st.composite
def small_circuits(draw, n=3, max_gates=10):
    k = draw(st.integers(0, max_gates))
    gates = []
    for _ in range(k):
        if draw(st.booleans()):
            kind = draw(st.sampled_from(SINGLE_Q))
            gates.append(gate(kind, draw(st.integers(0, n - 1))))
        elif draw(st.integers(0, 3)) == 0:
            angle = draw(st.floats(-3.0, 3.0, allow_nan=False))
            gates.append(gate(GateKind.Rz, draw(st.integers(0, n - 1)),
                              angle=angle))
        else:
            kind = draw(st.sampled_from(DOUBLE_Q))
            a = draw(st.integers(0, n - 1))
            b = draw(st.integers(0, n - 2))
            if b >= a:
                b += 1
            gates.append(gate(kind, a, b))
    return gates


class TestRandomVerification:
    @settings(max_examples=25, deadline=None)
    @given(small_circuits(), st.integers(0, 2 ** 31))
    def test_single_widget(self, gates, seed):
        tw = transpile(gates)
        assume(3 + tw.n_T_init + tw.n_Rz_init <= 12)
        cw = compile_widget(tw, n_input=3)
        fid = verify_unitarity([cw], invert_gates(gates), seed=seed)
        assert fid >= 1 - 1e-9

    @settings(max_examples=15, deadline=None)
    @given(small_circuits(max_gates=5), small_circuits(max_gates=5),
           st.integers(0, 2 ** 31))
    def test_two_widget_chain(self, g1, g2, seed):
        t1, t2 = transpile(g1), transpile(g2)
        assume(3 + t1.n_T_init + t1.n_Rz_init <= 12)
        assume(3 + t2.n_T_init + t2.n_Rz_init <= 12)
        w1 = compile_widget(t1, n_input=3)
        w2 = compile_widget(t2, n_input=3)
        fid = verify_unitarity([w1, w2], invert_gates(list(g1) + list(g2)),
                               seed=seed)
        assert fid >= 1 - 1e-9


class TestStitch:
    def test_single_widget_identity(self):
        cw = compiled([gate(GateKind.T, 0)])
        s = stitch([(cw, 1)])
        assert s.n_nodes_total == cw.n_nodes
        assert s.n_widgets == 1
        assert s.n_logical_max == cw.n_logical

    def test_three_t_widgets(self):
        cw = compiled([gate(GateKind.T, 0)])
        s = stitch([(cw, 3)])
        assert s.n_widgets == 3
        assert s.n_nodes_total == 3 * 2 + 2 * 1
        assert s.n_T_init == 3

    def test_mixed_multiplicities(self):
        a = compiled([gate(GateKind.T, 0), gate(GateKind.T, 1)], n=2)
        b = compiled([gate(GateKind.Rz, 0, angle=0.5)], n=2)
        s = stitch([(a, 2), (b, 1)])
        assert s.n_widgets == 3
        assert s.n_nodes_total == 2 * a.n_nodes + b.n_nodes + 2 * 2
        assert s.n_T_init == 4 and s.n_Rz_init == 1
        assert s.n_logical_max == max(a.n_logical, b.n_logical)

    def test_error_cases(self):
        a = compiled([gate(GateKind.H, 0)], n=1)
        b = compiled([gate(GateKind.H, 0)], n=2)
        with pytest.raises(CompileError):
            stitch([])
        with pytest.raises(CompileError):
            stitch([(a, 1), (b, 1)])
        with pytest.raises(CompileError):
            stitch([(a, 0)])


def cached_record(gates, cache_dir=None, n=None):
    """The widget record ``compile_plan`` gives a single-widget circuit,
    through the disk cache in ``cache_dir`` when one is given."""
    n = max(circuit_width(gates), 1) if n is None else n
    plan = WidgetPlan.from_sequence(n, {"w0": gates}, ["w0"])
    (record,) = compile_plan(plan, ArchConfig(), cache_dir)[0].compiled.values()
    return record


class TestDeterminismAndCache:
    def test_recompilation_is_identical(self):
        gates = transpile(generate_qft(3)).gates
        assert compiled(gates) == compiled(gates)

    def test_cache_round_trip(self, tmp_path):
        gates = generate_qft(3)
        first = cached_record(gates, cache_dir=tmp_path)
        files = list(tmp_path.glob("widget-*.json"))
        assert len(files) == 1
        again = cached_record(gates, cache_dir=tmp_path)
        assert first == again

    def test_compile_and_cache_load_run_no_dense_simulation(
            self, tmp_path, monkeypatch):
        gates = generate_qft(3)

        def refuse(*args):
            raise AssertionError("dense simulation outside verify")

        monkeypatch.setattr(_sim, "apply_matrix", refuse)
        first = cached_record(gates, cache_dir=tmp_path)
        assert first.n_nodes <= SIM_QUBIT_LIMIT
        assert cached_record(gates, cache_dir=tmp_path) == first

    def test_cache_is_actually_used(self, tmp_path, monkeypatch):
        gates = [gate(GateKind.T, 0)]
        cached_record(gates, cache_dir=tmp_path)
        import qre.compiler as comp
        monkeypatch.setattr(comp, "_compile",
                            lambda *a: (_ for _ in ()).throw(AssertionError))
        cw = cached_record(gates, cache_dir=tmp_path)
        assert cw.n_nodes == 2

    def test_corrupt_cache_recomputes(self, tmp_path):
        gates = [gate(GateKind.T, 0)]
        cached_record(gates, cache_dir=tmp_path)
        for f in tmp_path.glob("widget-*.json"):
            f.write_text("{not json")
        cw = cached_record(gates, cache_dir=tmp_path)
        assert cw.n_nodes == 2

    def test_env_var_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QRE_CACHE_DIR", str(tmp_path))
        cached_record([gate(GateKind.T, 0)])
        assert list(tmp_path.glob("widget-*.json"))

    def test_verification_works_after_cache_load(self, tmp_path,
                                                 monkeypatch):
        """verify compiles afresh: it passes after the cache is warm and
        never reads it, even with QRE_CACHE_DIR set."""
        path = tmp_path / "qft3.qasm"
        path.write_text(emit_qasm(generate_qft(3), 3))
        cache = tmp_path / "cache"
        monkeypatch.setenv("QRE_CACHE_DIR", str(cache))
        loaded = load_circuit(path, ArchConfig())
        compile_plan(loaded.plan, ArchConfig())
        compile_plan(loaded.plan, ArchConfig())
        import qre.compiler as comp
        monkeypatch.setattr(
            comp, "load_cached",
            lambda *a: (_ for _ in ()).throw(AssertionError("cache read")))
        fid = verify_circuit(loaded, seed=0)
        assert fid >= 1 - 1e-9


@st.composite
def any_circuits(draw, n=5, max_gates=40):
    """Circuits over every gate kind, composites included."""
    gates = []
    for _ in range(draw(st.integers(0, max_gates))):
        kind = draw(st.sampled_from(list(GateKind)))
        qubits = draw(st.permutations(range(n)))[:ARITY[kind]]
        angle = (draw(st.floats(-3.0, 3.0, allow_nan=False))
                 if kind in ANGLED else None)
        gates.append(Gate(kind, tuple(qubits), angle))
    return gates


def assert_matches_references(cw):
    want = frames_by_replay(cw.prep_ops, gadgets_of(cw), cw.n_nodes)
    assert {a: (f.x_support, f.z_support) for a, f in cw.frames.items()} == want
    assert list(cw.frames) == list(want)
    assert cw.n_logical == max_live_nodes_by_scan(
        cw.n_input, cw.n_nodes, cw.edges, cw.consump_schedule)
    assert cw.consump_schedule == layers_by_rescan(cw.measurements, cw.frames)


class TestOneSweepFrames:
    @settings(max_examples=60, deadline=None)
    @given(any_circuits())
    def test_matches_per_gadget_replay(self, gates):
        assert_matches_references(compile_widget(transpile(gates), n_input=5))

    def test_qft_matches_per_gadget_replay(self):
        assert_matches_references(compile_widget(transpile(generate_qft(8))))

    def test_frame_ops_at_most_prep_ops(self, monkeypatch):
        """Frame propagation passes each prep op to apply_ops at most once."""
        import qre.compiler as comp

        frame_ops = []
        tableau_depth = []
        apply_ops, stabilizer_after = PauliRows.apply_ops, comp.stabilizer_after

        def counting_apply_ops(self, ops):
            ops = list(ops)
            if not tableau_depth:
                frame_ops.append(len(ops))
            apply_ops(self, ops)

        def marked_stabilizer_after(ops, n):
            tableau_depth.append(1)
            try:
                return stabilizer_after(ops, n)
            finally:
                tableau_depth.pop()

        monkeypatch.delenv("QRE_CACHE_DIR", raising=False)
        monkeypatch.setattr(PauliRows, "apply_ops", counting_apply_ops)
        monkeypatch.setattr(comp, "stabilizer_after", marked_stabilizer_after)
        cw = compile_widget(transpile(generate_qft(16)))
        assert frame_ops, "frames go through PauliRows.apply_ops"
        assert sum(frame_ops) <= len(cw.prep_ops)

    def test_each_prep_op_is_swept_exactly_once(self, monkeypatch):
        """Frames and tableau share one sweep: the ops passed to apply_ops,
        in call order, are the prep ops, each once."""
        swept = []
        apply_ops = PauliRows.apply_ops

        def recording_apply_ops(self, ops):
            ops = list(ops)
            swept.extend(ops)
            apply_ops(self, ops)

        monkeypatch.delenv("QRE_CACHE_DIR", raising=False)
        monkeypatch.setattr(PauliRows, "apply_ops", recording_apply_ops)
        for gates in (generate_qft(16), [gate(GateKind.H, 0)],
                      [gate(GateKind.T, 0), gate(GateKind.CX, 0, 1)]):
            swept.clear()
            cw = compile_widget(transpile(gates))
            assert swept == list(cw.prep_ops)

    @settings(max_examples=40, deadline=None)
    @given(any_circuits())
    def test_frames_touch_only_nodes_measured_later(self, gates):
        """Gadget order is topological: no frame touches a node measured
        at or before its own gadget."""
        cw = compile_widget(transpile(gates), n_input=5)
        measured = [m.node for m in cw.measurements]
        for j, frame in enumerate(cw.frames.values()):
            assert not frame.touches() & set(measured[:j + 1])

    def test_qft_frames_touch_only_nodes_measured_later(self):
        cw = compile_widget(transpile(generate_qft(8)))
        measured = [m.node for m in cw.measurements]
        assert list(cw.frames) == measured
        for j, frame in enumerate(cw.frames.values()):
            assert not frame.touches() & set(measured[:j + 1])


class TestVerifyOnlyFields:
    def test_estimation_derives_no_verify_only_field(self, tmp_path,
                                                     monkeypatch):
        """Frames and local Cliffords are derived on first read, and only
        verification reads them."""
        def refuse(self):
            raise AssertionError("verify-only field read")

        for owner, name in ((CompiledWidget, "frames"),
                            (CompiledWidget, "local_cliffords"),
                            (GraphForm, "applied")):
            monkeypatch.setattr(owner, name, property(refuse))
        pool3, qft8 = tmp_path / "pool3.json", tmp_path / "qft8.qasm"
        pool3.write_text(benchmark_pool_circuit(3))
        qft8.write_text(emit_qasm(generate_qft(8), 8))
        for path in (pool3, qft8):
            compile_plan(load_circuit(path, ArchConfig()).plan, ArchConfig())

    def test_derived_fields_are_cached(self):
        cw = compiled(transpile(generate_qft(3)).gates)
        assert cw.frames is cw.frames
        assert cw.local_cliffords is cw.local_cliffords


@st.composite
def forward_cases(draw, max_nodes=12):
    """Nodes measured in a random order, and one frame per measured node
    touching any nodes measured after it or never measured: the shape the
    compiler's one sweep produces."""
    n = draw(st.integers(0, max_nodes))
    order = draw(st.permutations(range(n)))[:draw(st.integers(0, n))]
    measurements = [Measurement(v, "T", PI / 4) for v in order]
    later = set(range(n + 3)) - set(order)
    frames = {}
    for b in reversed(order):
        touched = draw(st.lists(st.sampled_from(sorted(later)), unique=True,
                                max_size=4))
        frames[b] = PauliFrame(x_support=tuple(sorted(touched[:2])),
                               z_support=tuple(sorted(touched[2:])))
        later.add(b)
    return measurements, {b: frames[b] for b in order}


def pred_masks(order, frames):
    """Bit i of entry j: gadget i's frame touches the node gadget j measures."""
    index = {v: j for j, v in enumerate(order)}
    preds = [0] * len(order)
    for i, b in enumerate(order):
        for v in frames[b].touches():
            if v in index:
                preds[index[v]] |= 1 << i
    return preds


class TestConsumptionLayers:
    @settings(max_examples=300, deadline=None)
    @given(forward_cases())
    def test_matches_rescanning_reference(self, case):
        measurements, frames = case
        order = [m.node for m in measurements]
        assert (_layer_consumption(order, pred_masks(order, frames))
                == layers_by_rescan(measurements, frames))

    @pytest.mark.parametrize("n", [8, 16])
    def test_qft_matches_rescanning_reference(self, n):
        cw = compile_widget(transpile(generate_qft(n)))
        assert cw.consump_schedule == layers_by_rescan(
            cw.measurements, cw.frames)
        assert len(cw.consump_schedule) > 1

    def test_longest_path_sets_the_layer(self):
        # gadgets 0 -> 1 -> 2 and 0 -> 2, measuring nodes 7, 3, 5: the
        # last waits for the longer chain
        assert (_layer_consumption([7, 3, 5], [0, 0b1, 0b11])
                == ((7,), (3,), (5,)))
        assert _layer_consumption([7, 3, 5], [0, 0, 0b1]) == ((3, 7), (5,))

    def test_cycle_raises(self):
        """A frame touching a node measured at or before its own gadget."""
        for preds in ([0b1], [0, 0b10], [0b10, 0], [0, 0b100, 0]):
            with pytest.raises(CompileError, match="cyclic"):
                _layer_consumption(list(range(len(preds))), preds)

    def test_matches_kahn_layering_on_compiled_widgets(self):
        cw = compile_widget(transpile(generate_qft(12)))
        assert cw.consump_schedule == layers_by_kahn(cw.measurements,
                                                     cw.frames)


class TestExactCacheKey:
    def test_nearby_angles_get_separate_entries(self, tmp_path):
        angles = (0.1234561, 0.1234564)
        plans = [[gate(GateKind.Rz, 0, angle=a)] for a in angles]
        assert repr(plans[0][0]) == repr(plans[1][0])  # Gate.__repr__ rounds
        got = [cached_record(gates, cache_dir=tmp_path) for gates in plans]
        assert got == [cached_record(gates) for gates in plans]
        assert len(list(tmp_path.glob("widget-*.json"))) == 2

    def test_key_covers_gates_wires_and_fan_out(self):
        gates = generate_qft(3)
        digest, shorter = gate_list_digest(gates), gate_list_digest(gates[:-1])
        keys = {cache_key(digest, 3, 4), cache_key(digest, 4, 4),
                cache_key(digest, 3, 2), cache_key(shorter, 3, 4)}
        assert len(keys) == 4
        assert gate_list_digest(list(gates)) == gate_list_digest(tuple(gates))
