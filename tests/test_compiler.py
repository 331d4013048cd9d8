"""Tests for widget -> graph-state compilation, stitching, and verification."""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dense import graph_state, prep_state, row_signs
from oracles import (
    compiled,
    frames_by_replay,
    gadgets_of,
    gate,
    graph_form_by_rows,
    layers_by_kahn,
    layers_by_rescan,
    max_live_nodes_by_scan,
    n_Rz,
    n_T,
    same_up_to_phase,
    sweep_by_replay,
    touches,
)
from pool import benchmark_pool_circuit
from qre import _sim
from qre._sim import SIM_QUBIT_LIMIT, verify_unitarity
from qre.circuit import (
    ANGLED,
    ARITY,
    CircuitError,
    Gate,
    GateKind,
    TranspiledWidget,
    circuit_width,
    emit_qasm,
    gate_list_digest,
    generate_qft,
    invert_gates,
    transpile,
)
from qre.compiler import (
    CompileError,
    CompiledWidget,
    Measurement,
    PauliFrame,
    _layer_consumption,
    compile_widget,
    widget_set_key,
)
from qre.config import ArchConfig
from qre.pipeline import compile_plan, load_circuit, verify_circuit
from qre.stabilizer import graph_form, stabilizer_after
from qre.widgetizer import PlanRecord, WidgetPlan

PI = math.pi


class TestSingleGadget:
    def test_t_widget_structure(self):
        cw = compiled([gate(GateKind.T, 0)])
        assert cw.n_input == 1
        assert cw.n_nodes == 2
        assert cw.edges == ((0, 1),)
        assert cw.output_nodes == (1,)
        assert cw.measurements == (Measurement(0, "T", PI / 4),)
        assert cw.frames == {0: PauliFrame(x_support=(), z_support=(1,))}
        assert cw.consump_schedule == ((0,),)
        assert cw.n_logical == 2
        assert n_T(cw) == 1 and n_Rz(cw) == 0

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
        cw = compiled([], n_input=2)
        assert cw.n_nodes == 2
        assert cw.prep_ops == ()
        assert cw.n_logical == 2

    def test_swap_is_pure_relabeling(self):
        cw = compiled([gate(GateKind.SWAP, 0, 1)])
        assert cw.n_nodes == 2
        assert cw.prep_ops == ()
        assert cw.output_nodes == (1, 0)

    def test_width_overflow_rejected(self):
        with pytest.raises(CompileError, match=r"^widget touches 2 wires "
                                               r"but n_input=1$"):
            compiled([gate(GateKind.CX, 0, 1)], n_input=1)

    @pytest.mark.parametrize("gates, width", [
        ([gate(GateKind.H, 0), gate(GateKind.SWAP, 0, 2)], 3),
        ([gate(GateKind.T, 0), gate(GateKind.T, 1), gate(GateKind.T, 3)], 4),
    ], ids=["swap", "gadget"])
    def test_width_overflow_message(self, gates, width):
        """An overflow is named by the widget's width, whichever gate
        reaches past the wires: a relabeling or a gadget."""
        with pytest.raises(CompileError, match=rf"^widget touches {width} "
                                               rf"wires but n_input=2$"):
            compiled(gates, n_input=2)

    @pytest.mark.parametrize("n_t", [1, 3], ids=["short", "over"])
    def test_gadget_count_mismatch_rejected(self, n_t):
        gates = (gate(GateKind.T, 0), gate(GateKind.CX, 0, 1),
                 gate(GateKind.Tdg, 1))
        tw = TranspiledWidget(gates, n_T_init=n_t, n_Rz_init=0,
                              n_Clifford_init=1)
        with pytest.raises(CompileError, match="^gadget count disagrees "
                                               "with transpiled gate counts$"):
            compile_widget(tw, n_input=2)

    def test_composite_gate_rejected(self):
        tw = TranspiledWidget((gate(GateKind.CCX, 0, 1, 2),), 0, 0, 1)
        with pytest.raises(CompileError, match="^composite gate CCX"):
            compile_widget(tw, n_input=3)


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
            assert a not in touches(frame)

    def test_layers_partition_measured_nodes(self):
        cw = compiled(transpile(generate_qft(3)).gates)
        flat = [v for layer in cw.consump_schedule for v in layer]
        assert sorted(flat) == sorted(m.node for m in cw.measurements)
        assert len(flat) == len(set(flat))


class TestNodeCounts:
    def test_qft3_totals(self):
        cw = compiled(generate_qft(3))
        assert cw.n_nodes == 12
        assert n_T(cw) == 6 and n_Rz(cw) == 3

    def test_toffoli_totals(self):
        cw = compiled([gate(GateKind.CCX, 0, 1, 2)])
        assert cw.n_nodes == 10
        assert n_T(cw) == 7 and n_Rz(cw) == 0

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 6), st.integers(0, 3))
    def test_node_count_formula(self, n_t, n_rz):
        gates = [gate(GateKind.T, 0)] * n_t
        gates += [gate(GateKind.Rz, 0, angle=0.1 + i) for i in range(n_rz)]
        cw = compiled(gates, n_input=2)
        assert cw.n_nodes == 2 + n_t + n_rz
        assert len(cw.measurements) == n_t + n_rz
        assert 2 <= cw.n_logical <= cw.n_nodes


class TestLocalState:
    def test_canonical_graph_reproduces_prep_state(self):
        """The compiled edges, with the reference local Cliffords of the
        rows signed as the dense state signs them, give the state the
        preparation ops prepare."""
        for gates in ([gate(GateKind.T, 0)],
                      [gate(GateKind.H, 0), gate(GateKind.CX, 0, 1),
                       gate(GateKind.T, 1), gate(GateKind.S, 0)],
                      transpile(generate_qft(3)).gates):
            cw = compiled(gates)
            rows = stabilizer_after(cw.prep_ops, cw.n_nodes)
            psi = prep_state(cw.prep_ops, cw.n_nodes)
            _, local = graph_form_by_rows(rows, row_signs(rows, psi))
            state = graph_state(cw.edges, local)
            assert same_up_to_phase(state.reshape(-1), psi.reshape(-1))


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
        cw = compiled(gates)
        for seed in range(5):
            fid = verify_unitarity([cw], invert_gates(gates), seed=seed)
            assert fid >= 1 - 1e-9

    def test_toffoli_round_trip(self):
        gates = [gate(GateKind.CCX, 0, 1, 2)]
        cw = compiled(gates)
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
        a = compiled([gate(GateKind.H, 0)], n_input=1)
        b = compiled([gate(GateKind.H, 0)], n_input=2)
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


def stitched(n_input, *items):
    """The compiled algorithm of ``(gates, multiplicity)`` widgets on
    ``n_input`` wires, each repeated in a row, as ``compile_plan`` gives
    it."""
    widgets = {f"w{i}": gates for i, (gates, _) in enumerate(items)}
    sequence = [f"w{i}" for i, (_, m) in enumerate(items) for _ in range(m)]
    plan = WidgetPlan.from_sequence(n_input, widgets, sequence)
    return compile_plan(plan, ArchConfig())


class TestStitch:
    def test_single_widget_identity(self):
        cw = compiled([gate(GateKind.T, 0)])
        s = stitched(1, ([gate(GateKind.T, 0)], 1)).est
        assert s.n_nodes_total == cw.n_nodes
        assert s.n_widgets == 1
        assert s.n_logical_max == cw.n_logical

    def test_three_t_widgets(self):
        s = stitched(1, ([gate(GateKind.T, 0)], 3)).est
        assert s.n_widgets == 3
        assert s.n_nodes_total == 3 * 2 + 2 * 1
        assert s.n_T_init == 3

    def test_mixed_multiplicities(self):
        ga = [gate(GateKind.T, 0), gate(GateKind.T, 1)]
        gb = [gate(GateKind.Rz, 0, angle=0.5)]
        a, b = compiled(ga, n_input=2), compiled(gb, n_input=2)
        s = stitched(2, (ga, 2), (gb, 1)).est
        assert s.n_widgets == 3
        assert s.n_nodes_total == 2 * a.n_nodes + b.n_nodes + 2 * 2
        assert s.n_T_init == 4 and s.n_Rz_init == 1
        assert s.n_logical_max == max(a.n_logical, b.n_logical)

    def test_error_cases(self):
        """Each check of a stitched sequence sits where its data is made: an
        empty plan and a multiplicity below 1 are plan errors."""
        with pytest.raises(CircuitError, match="must name widgets"):
            PlanRecord(1, {}, {}, "a", "a")
        with pytest.raises(CircuitError, match="multiplicities must be >= 1"):
            PlanRecord(1, {"a": 0}, {}, "a", "a")


def cached_record(gates, cache_dir=None, n=None):
    """The widget record ``compile_plan`` gives a single-widget circuit,
    through the disk cache in ``cache_dir`` when one is given."""
    n = max(circuit_width(gates), 1) if n is None else n
    plan = WidgetPlan.from_sequence(n, {"w0": gates}, ["w0"])
    (record,) = compile_plan(plan, ArchConfig(), cache_dir).compiled.values()
    return record


class TestDeterminismAndCache:
    def test_recompilation_is_identical(self):
        gates = transpile(generate_qft(3)).gates
        assert compiled(gates) == compiled(gates)

    def test_cache_round_trip(self, tmp_path):
        gates = generate_qft(3)
        first = cached_record(gates, cache_dir=tmp_path)
        files = list(tmp_path.glob("widgets-*.json"))
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
        import qre.pipeline as pipeline
        monkeypatch.setattr(
            pipeline, "compile_widget",
            lambda *a, **k: (_ for _ in ()).throw(AssertionError))
        cw = cached_record(gates, cache_dir=tmp_path)
        assert cw.n_nodes == 2

    def test_corrupt_cache_recomputes(self, tmp_path):
        gates = [gate(GateKind.T, 0)]
        cached_record(gates, cache_dir=tmp_path)
        for f in tmp_path.glob("widgets-*.json"):
            f.write_text("{not json")
        cw = cached_record(gates, cache_dir=tmp_path)
        assert cw.n_nodes == 2

    def test_verification_works_after_cache_load(self, tmp_path,
                                                 monkeypatch):
        """verify compiles afresh: it passes after the cache is warm and
        never reads it."""
        path = tmp_path / "qft3.qasm"
        path.write_text(emit_qasm(generate_qft(3), 3))
        cache = tmp_path / "cache"
        loaded = load_circuit(path, ArchConfig())
        compile_plan(loaded.plan, ArchConfig(), cache_dir=cache)
        compile_plan(loaded.plan, ArchConfig(), cache_dir=cache)
        assert list(cache.glob("widgets-*.json"))
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


def assert_matches_replay(cw):
    """The sweep equals a replay of the prep ops through ``apply_ops``, and
    the edges are the graph form of the replayed tableau."""
    want = sweep_by_replay(cw.prep_ops, gadgets_of(cw), cw.n_nodes)
    assert (cw.sweep.x, cw.sweep.z) == (want.x, want.z)
    assert cw.edges == graph_form(stabilizer_after(cw.prep_ops, cw.n_nodes))


def assert_matches_references(cw):
    assert_matches_replay(cw)
    want = frames_by_replay(cw.prep_ops, gadgets_of(cw), cw.n_nodes)
    assert {a: (f.x_support, f.z_support) for a, f in cw.frames.items()} == want
    assert list(cw.frames) == list(want)
    assert cw.n_logical == max_live_nodes_by_scan(
        cw.n_input, cw.n_nodes, cw.edges, cw.consump_schedule)
    assert cw.consump_schedule == layers_by_rescan(cw.measurements, cw.frames)
    assert cw.nodes_by_kind == {
        kind: tuple(m.node for m in cw.measurements if m.kind == kind)
        for kind in ("T", "Rz")}


class TestOneSweepFrames:
    @settings(max_examples=60, deadline=None)
    @given(any_circuits())
    def test_matches_per_gadget_replay(self, gates):
        assert_matches_references(compile_widget(transpile(gates), n_input=5))

    def test_qft_matches_per_gadget_replay(self):
        assert_matches_references(compiled(generate_qft(8)))

    @pytest.mark.parametrize("gates", [
        generate_qft(16), [gate(GateKind.H, 0)],
        [gate(GateKind.T, 0), gate(GateKind.CX, 0, 1)],
    ], ids=["qft16", "h", "t_cx"])
    def test_sweep_matches_apply_ops_replay(self, gates):
        assert_matches_replay(compiled(gates))

    def test_pool_circuit_matches_references(self, tmp_path):
        path = tmp_path / "pool0.json"
        path.write_text(benchmark_pool_circuit(0))
        plan = load_circuit(path, ArchConfig()).plan
        for gates in plan.widgets.values():
            assert_matches_references(
                compile_widget(transpile(gates), n_input=plan.n_input))

    @pytest.mark.parametrize("kind", [
        k for k in GateKind if k not in (GateKind.CCX, GateKind.CPhase)],
        ids=lambda k: k.value)
    def test_each_gate_kind_matches_apply_ops_replay(self, kind):
        """The compile loop applies each kind's conjugation by kind, apart
        from ``apply_ops``'s rules by name: each kind once, after a prefix
        that leaves both wires' columns nonzero in x and z and unequal."""
        prefix = [gate(GateKind.T, 0), gate(GateKind.T, 1),
                  gate(GateKind.CZ, 0, 1), gate(GateKind.H, 0),
                  gate(GateKind.H, 1), gate(GateKind.CX, 0, 1),
                  gate(GateKind.T, 0)]
        before = compiled(prefix, n_input=2)
        x, z = before.sweep.x, before.sweep.z
        a, b = before.output_nodes
        assert all((x[a], z[a], x[b], z[b])) and (x[a], z[a]) != (x[b], z[b])
        g = Gate(kind, (0, 1)[:ARITY[kind]], 0.3 if kind in ANGLED else None)
        assert_matches_replay(compiled(prefix + [g], n_input=2))

    @settings(max_examples=40, deadline=None)
    @given(any_circuits())
    def test_frames_touch_only_nodes_measured_later(self, gates):
        """Gadget order is topological: no frame touches a node measured
        at or before its own gadget."""
        cw = compile_widget(transpile(gates), n_input=5)
        measured = [m.node for m in cw.measurements]
        for j, frame in enumerate(cw.frames.values()):
            assert not touches(frame) & set(measured[:j + 1])

    def test_qft_frames_touch_only_nodes_measured_later(self):
        cw = compiled(generate_qft(8))
        measured = [m.node for m in cw.measurements]
        assert list(cw.frames) == measured
        for j, frame in enumerate(cw.frames.values()):
            assert not touches(frame) & set(measured[:j + 1])


class TestVerifyOnlyFields:
    FIELDS = ("frames", "prep_ops", "measurements")

    def test_estimation_derives_no_verify_only_field(self, tmp_path,
                                                     monkeypatch):
        """Frames, preparation ops and measurements are derived on first
        read, and only verification reads them."""
        def refuse(self):
            raise AssertionError("verify-only field read")

        for name in self.FIELDS:
            monkeypatch.setattr(CompiledWidget, name, property(refuse))
        pool3, qft8 = tmp_path / "pool3.json", tmp_path / "qft8.qasm"
        pool3.write_text(benchmark_pool_circuit(3))
        qft8.write_text(emit_qasm(generate_qft(8), 8))
        for path in (pool3, qft8):
            compile_plan(load_circuit(path, ArchConfig()).plan, ArchConfig())

    def test_derived_fields_are_cached(self):
        cw = compiled(transpile(generate_qft(3)).gates)
        for name in self.FIELDS:
            assert name not in vars(cw)
            assert getattr(cw, name) is getattr(cw, name)
            assert name in vars(cw)


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
        for v in touches(frames[b]):
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
        cw = compiled(generate_qft(n))
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
        cw = compiled(generate_qft(12))
        assert cw.consump_schedule == layers_by_kahn(cw.measurements,
                                                     cw.frames)


class TestExactCacheKey:
    def test_nearby_angles_get_separate_entries(self, tmp_path):
        angles = (0.1234561, 0.1234564)
        plans = [[gate(GateKind.Rz, 0, angle=a)] for a in angles]
        assert repr(plans[0][0]) == repr(plans[1][0])  # Gate.__repr__ rounds
        got = [cached_record(gates, cache_dir=tmp_path) for gates in plans]
        assert got == [cached_record(gates) for gates in plans]
        assert len(list(tmp_path.glob("widgets-*.json"))) == 2

    def test_key_covers_gates_wires_and_fan_out(self):
        gates = generate_qft(3)
        digest, shorter = gate_list_digest(gates), gate_list_digest(gates[:-1])
        keys = {widget_set_key([digest], 3, 4), widget_set_key([digest], 4, 4),
                widget_set_key([digest], 3, 2),
                widget_set_key([shorter], 3, 4),
                widget_set_key([digest, shorter], 3, 4)}
        assert len(keys) == 5
        assert gate_list_digest(list(gates)) == gate_list_digest(tuple(gates))

    def test_set_key_ignores_order_and_repeats(self):
        digests = [gate_list_digest(generate_qft(n)) for n in (2, 3, 4)]
        key = widget_set_key(digests, 4, 4)
        assert widget_set_key(reversed(digests), 4, 4) == key
        assert widget_set_key(digests + digests[:1], 4, 4) == key
        for k in range(3):  # every digest is covered
            assert widget_set_key(digests[:k] + digests[k + 1:], 4, 4) != key
