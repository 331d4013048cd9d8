"""Tests for dependency-graph construction and lazy widget/stitch counting."""

import hashlib
import itertools
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    block_stats,
    expanded_kind_counts,
    gate,
    parse_nested_per_item,
)
from pool import SPLIT_CRITERIA, benchmark_pool_circuit
from qre import widgetizer
from qre.circuit import (
    CircuitError,
    Gate,
    GateKind,
    emit_qasm,
    gate_list_digest,
    generate_qft,
)
from qre.compiler import CACHE_ENV, widget_set_key
from qre.config import ArchConfig
from qre.pipeline import load_circuit, run_estimate
from qre.widgetizer import (
    MAX_NESTING_DEPTH,
    BlockRef,
    NestedCircuit,
    PlanRecord,
    WidgetPlan,
    build_dependency_graph,
    iter_leaf_sequence,
    parse_nested_file,
)


def eager_counts(root):
    """Brute-force oracle: materialize the leaf sequence, count directly."""
    seq = list(iter_leaf_sequence(root))
    widgets = {}
    for wid in seq:
        widgets[wid] = widgets.get(wid, 0) + 1
    stitches = {}
    for a, b in zip(seq, seq[1:]):
        stitches[(a, b)] = stitches.get((a, b), 0) + 1
    return widgets, stitches


def leaves_of(root):
    """Every distinct leaf under ``root``, by id."""
    leaves, stack = {}, [root]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            leaves[node.id] = node
        stack.extend(child for child, _ in node.children)
    return leaves


def h_chain(qubit, n):
    return [gate(GateKind.H, qubit) for _ in range(n)]


class TestBuild:
    def test_flat_small_circuit_single_leaf(self):
        circ = NestedCircuit(2, {"main": h_chain(0, 10)}, "main")
        root = build_dependency_graph(circ, 100)
        assert root.is_leaf
        assert len(root.gates) == 10

    def test_cut_closes_each_piece_before_it_breaks_the_criterion(self):
        circ = NestedCircuit(1, {"main": h_chain(0, 10)}, "main")
        root = build_dependency_graph(circ, 4)
        plan = WidgetPlan.from_root(root, n_input=1)
        assert [len(plan.widgets[wid]) for wid in iter_leaf_sequence(root)
                ] == [3, 3, 3, 1]
        # The three 3-gate pieces are identical, so they share one node.
        assert sorted(plan.multiplicity.values()) == [1, 3]
        assert plan.n_widgets == 4

    def test_cut_keeps_gate_order(self):
        body = [gate(GateKind.H, 0), gate(GateKind.T, 0), gate(GateKind.S, 0),
                gate(GateKind.X, 0), gate(GateKind.CX, 1, 2),
                gate(GateKind.T, 1)]
        circ = NestedCircuit(3, {"main": body}, "main")
        root = build_dependency_graph(circ, 3)
        plan = WidgetPlan.from_root(root, n_input=3)
        assert (plan.n_widgets, plan.n_distinct_widgets) == (3, 3)
        assert [plan.widgets[wid] for wid in iter_leaf_sequence(root)] == [
            tuple(body[0:2]), tuple(body[2:4]), tuple(body[4:6])]

    @pytest.mark.parametrize("max_gates", [1, 0])
    def test_threshold_below_two_is_refused(self, max_gates):
        """Any one gate meets a budget of 1, so the builder refuses it, as
        ``ArchConfig.validate`` does."""
        circ = NestedCircuit(1, {"main": h_chain(0, 3)}, "main")
        with pytest.raises(CircuitError,
                           match="any one gate meets a threshold of 1"):
            build_dependency_graph(circ, max_gates)

    def test_one_h_layer_on_128_wires_gives_1_widget(self):
        """The budget counts gates alone: 128 gates on 128 wires are under
        the default 4096, so they stay one widget however many wires they
        touch."""
        gates = [gate(GateKind.H, q) for q in range(128)]
        circ = NestedCircuit(128, {"main": gates}, "main")
        root = build_dependency_graph(circ, ArchConfig().max_gates)
        assert root.is_leaf and root.gates == tuple(gates)

    def test_gate_run_of_a_mixed_block_is_one_widget(self):
        """A split block that mixes gates and block references cuts each
        run of consecutive gates as one gate list."""
        run = [gate(GateKind.H, 0), gate(GateKind.T, 0), gate(GateKind.CX, 0, 1)]
        circ = NestedCircuit(2, {"main": [*run, BlockRef("a", 2),
                                          gate(GateKind.S, 1)],
                                 "a": [gate(GateKind.T, 1)]}, "main")
        root = build_dependency_graph(circ, 5)
        plan = WidgetPlan.from_root(root, n_input=2)
        assert [plan.widgets[wid] for wid in iter_leaf_sequence(root)] == [
            tuple(run), (gate(GateKind.T, 1),), (gate(GateKind.T, 1),),
            (gate(GateKind.S, 1),)]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from(
               [(GateKind.H, 0), (GateKind.T, 1), (GateKind.S, 2),
                (GateKind.H, 3), (GateKind.T, 4), (GateKind.CX, 0, 1),
                (GateKind.CX, 2, 5), (GateKind.CZ, 3, 4), (GateKind.CX, 5, 0)]),
               min_size=1, max_size=40),
           st.integers(2, 8))
    def test_cut_of_random_gate_lists(self, items, max_gates):
        """The widgets' gates in plan order are the source list, and every
        piece but the last holds exactly ``max_gates - 1`` gates, the last
        at least one and at most that many."""
        gates = [gate(*item) for item in items]
        circ = NestedCircuit(6, {"main": gates}, "main")
        root = build_dependency_graph(circ, max_gates)
        plan = WidgetPlan.from_root(root, n_input=6)
        pieces = [plan.widgets[wid] for wid in iter_leaf_sequence(root)]
        assert [g for piece in pieces for g in piece] == gates
        assert all(len(piece) == max_gates - 1 for piece in pieces[:-1])
        assert 1 <= len(pieces[-1]) <= max_gates - 1

    def test_leaves_on_different_qubits_stay_distinct(self):
        a = [gate(GateKind.H, 0), gate(GateKind.CX, 0, 1), gate(GateKind.T, 1)]
        b = [gate(GateKind.H, 2), gate(GateKind.CX, 2, 0), gate(GateKind.T, 0)]
        circ = NestedCircuit(3, {"main": [BlockRef("a"), BlockRef("b")],
                                 "a": a, "b": b}, "main")
        root = build_dependency_graph(circ, 4)
        plan = WidgetPlan.from_root(root, n_input=3)
        assert (plan.n_widgets, plan.n_distinct_widgets) == (2, 2)
        assert [plan.widgets[plan.first], plan.widgets[plan.last]] == [
            tuple(a), tuple(b)]

    def test_same_gates_share_one_widget(self):
        body = [gate(GateKind.H, 1), gate(GateKind.T, 1)]
        circ = NestedCircuit(2, {"main": [BlockRef("a"), BlockRef("b")],
                                 "a": list(body), "b": list(body)}, "main")
        root = build_dependency_graph(circ, 3)
        plan = WidgetPlan.from_root(root, n_input=2)
        assert (plan.n_widgets, plan.n_distinct_widgets) == (2, 1)

    def test_cycle_detected(self):
        with pytest.raises(CircuitError, match="cyclic"):
            NestedCircuit(1, {
                "a": [BlockRef("b")],
                "b": [BlockRef("a")],
            }, "a")

    def test_self_reference_detected(self):
        with pytest.raises(CircuitError, match="cyclic block reference "
                                               "through 'a'"):
            NestedCircuit(1, {"a": [gate(GateKind.H, 0), BlockRef("a")]}, "a")

    @pytest.mark.parametrize("depth", [MAX_NESTING_DEPTH,
                                       MAX_NESTING_DEPTH + 1])
    def test_nesting_depth_limit(self, depth):
        """Each block references the next two, listed leaf first: the
        longest chain below the root is ``depth`` references long."""
        names = [f"b{k}" for k in range(depth + 1)]
        blocks = {names[-1]: [gate(GateKind.T, 0)],
                  names[-2]: [BlockRef(names[-1])]}
        for k in range(depth - 2, -1, -1):
            blocks[names[k]] = [BlockRef(names[k + 1]),
                                BlockRef(names[k + 2])]
        if depth <= MAX_NESTING_DEPTH:
            NestedCircuit(1, blocks, "b0")
            return
        with pytest.raises(CircuitError) as info:
            NestedCircuit(1, blocks, "b0")
        assert str(info.value) == (
            f"block 'b0' nests {depth} levels of block references, beyond "
            f"the limit of {MAX_NESTING_DEPTH}")

    def test_undefined_block(self):
        with pytest.raises(CircuitError, match="undefined"):
            NestedCircuit(1, {"a": [BlockRef("zzz")]}, "a")

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_recorded_stats_match_recursion(self, data):
        """Random acyclic block graphs, empty blocks and repeats up to 1e12
        included: each block's recorded stats equal the recursive ones."""
        n_blocks = data.draw(st.integers(1, 6))
        names = [f"b{i}" for i in range(n_blocks)]
        blocks = {}
        for i, name in enumerate(names):
            items = []
            for _ in range(data.draw(st.integers(0, 5))):
                # Only reference later blocks: acyclic by construction.
                if i + 1 < n_blocks and data.draw(st.booleans()):
                    items.append(BlockRef(
                        data.draw(st.sampled_from(names[i + 1:])),
                        data.draw(st.integers(1, 10**12))))
                else:
                    qubits = data.draw(st.sampled_from(
                        [(0,), (3,), (1, 4), (4, 2)]))
                    items.append(gate(GateKind.CX if len(qubits) == 2
                                      else GateKind.T, *qubits))
            blocks[name] = items
        circ = NestedCircuit(5, blocks, "b0")
        memo = {}
        assert circ.stats == {name: block_stats(blocks, name, memo)
                              for name in blocks}


def two_level_repeats():
    """Full = B, 4*A, B;  A = W0, 500*C, W1, W2 — with distinct small bodies."""
    blocks = {
        "Full": [BlockRef("B"), BlockRef("A", repeat=4), BlockRef("B")],
        "A": [BlockRef("W0"), BlockRef("C", repeat=500), BlockRef("W1"), BlockRef("W2")],
        # B: 6 gates on 2 qubits -> cut into leaves of 4 and 2 gates
        "B": [gate(GateKind.H, 0), gate(GateKind.CX, 0, 1),
              gate(GateKind.T, 0), gate(GateKind.CX, 1, 0),
              gate(GateKind.S, 1), gate(GateKind.CZ, 0, 1)],
        "W0": [gate(GateKind.T, 0)],
        "C": [gate(GateKind.CX, 0, 1), gate(GateKind.T, 1)],
        "W1": [gate(GateKind.Tdg, 0)],
        "W2": [gate(GateKind.S, 0), gate(GateKind.T, 0)],
    }
    return NestedCircuit(2, blocks, "Full")


class TestTwoLevelRepeats:
    MAX_GATES = 5

    def test_leaf_count_and_multiplicities(self):
        root = build_dependency_graph(two_level_repeats(), self.MAX_GATES)
        plan = WidgetPlan.from_root(root, n_input=2)
        # leaves: 2 B-pieces + W0 + C + W1 + W2 = 6 distinct
        assert plan.n_distinct_widgets == 6
        total = plan.n_widgets
        # 2 B-runs of 2 pieces + 4 * (1 + 500 + 1 + 1)
        assert total == 4 + 4 * 503
        assert sum(plan.stitches.values()) == total - 1

    def test_matches_eager_expansion(self):
        root = build_dependency_graph(two_level_repeats(), self.MAX_GATES)
        plan = WidgetPlan.from_root(root, n_input=2)
        widgets_eager, stitches_eager = eager_counts(root)
        assert plan.multiplicity == widgets_eager
        assert plan.stitches == stitches_eager

    def test_seam_stitch_wraparound(self):
        root = build_dependency_graph(two_level_repeats(), self.MAX_GATES)
        plan = WidgetPlan.from_root(root, n_input=2)
        stitches = plan.stitches
        by_gates = {gates: wid for wid, gates in plan.widgets.items()}
        blocks = two_level_repeats().blocks
        leaves = {name: by_gates[tuple(blocks[name])]
                  for name in ("W0", "W2", "C")}
        # A repeats 4 times: 3 seam stitches (W2 -> W0).
        assert stitches[(leaves["W2"], leaves["W0"])] == 3
        # C repeats 500 times per A: 499 self-seams, 4 A's -> 1996.
        assert stitches[(leaves["C"], leaves["C"])] == 4 * 499

    def test_determinism(self):
        roots = [build_dependency_graph(two_level_repeats(), self.MAX_GATES) for _ in range(2)]
        plans = [WidgetPlan.from_root(r, n_input=2) for r in roots]
        assert plans[0] == plans[1]


class TestRepeatCounting:
    def test_single_leaf_repeated(self):
        circ = NestedCircuit(1, {
            "main": [BlockRef("w", repeat=7)],
            "w": [gate(GateKind.T, 0)],
        }, "main")
        root = build_dependency_graph(circ, 5)
        plan = WidgetPlan.from_root(root, n_input=1)
        (wid,) = plan.widgets
        assert plan.multiplicity[wid] == 7
        assert plan.stitches == {(wid, wid): 6}

    def test_alternating(self):
        n = 5
        circ = NestedCircuit(1, {
            "main": [BlockRef("pair", repeat=n)],
            "pair": [BlockRef("a"), BlockRef("b")],
            "a": [gate(GateKind.T, 0)],
            "b": [gate(GateKind.H, 0), gate(GateKind.T, 0)],
        }, "main")
        root = build_dependency_graph(circ, 3)
        plan = WidgetPlan.from_root(root, n_input=1)
        by_label = {len(g): wid for wid, g in plan.widgets.items()}
        a, b = by_label[1], by_label[2]
        assert plan.stitches == {(a, b): n, (b, a): n - 1}
        assert sum(plan.stitches.values()) == 2 * n - 1

    def test_huge_symbolic_counts(self):
        circ = NestedCircuit(1, {
            "main": [BlockRef("mid", repeat=10**6)],
            "mid": [BlockRef("w", repeat=10**6)],
            "w": [gate(GateKind.T, 0)],
        }, "main")
        root = build_dependency_graph(circ, 2)
        plan = WidgetPlan.from_root(root, n_input=1)
        (wid,) = plan.widgets
        assert plan.multiplicity[wid] == 10**12
        assert plan.stitches == {(wid, wid): 10**12 - 1}


@st.composite
def nested_circuits(draw):
    """Random small nested circuits (fully expandable) over 3 qubits."""
    n_blocks = draw(st.integers(1, 4))
    names = [f"b{i}" for i in range(n_blocks)]
    blocks = {}
    for i, name in enumerate(names):
        body = []
        for _ in range(draw(st.integers(1, 4))):
            # Only reference later blocks: acyclic by construction.
            if i + 1 < n_blocks and draw(st.booleans()):
                target = draw(st.sampled_from(names[i + 1:]))
                body.append(BlockRef(target, draw(st.integers(1, 3))))
            else:
                q = draw(st.integers(0, 2))
                kind = draw(st.sampled_from([GateKind.H, GateKind.T, GateKind.S]))
                body.append(gate(kind, q))
        blocks[name] = body
    return NestedCircuit(3, blocks, "b0")


class TestLazyVsEager:
    @settings(max_examples=80, deadline=None)
    @given(nested_circuits(), st.integers(2, 6))
    def test_agreement(self, circ, max_gates):
        root = build_dependency_graph(circ, max_gates)
        plan = WidgetPlan.from_root(root, n_input=3)
        widgets_eager, stitches_eager = eager_counts(root)
        assert plan.multiplicity == widgets_eager
        assert plan.stitches == stitches_eager
        total = sum(widgets_eager.values())
        assert sum(plan.stitches.values()) == total - 1


class TestWidgetPlan:
    def test_from_root(self):
        root = build_dependency_graph(two_level_repeats(), TestTwoLevelRepeats.MAX_GATES)
        plan = WidgetPlan.from_root(root, n_input=2)
        assert plan.n_widgets == 4 + 4 * 503
        assert plan.n_distinct_widgets == 6
        seq = list(iter_leaf_sequence(root))
        assert plan.first == seq[0]
        assert plan.last == seq[-1]

    def test_from_sequence(self):
        plan = WidgetPlan.from_sequence(
            1, {"a": [gate(GateKind.T, 0)], "b": [gate(GateKind.H, 0)]},
            ["a", "b", "a"])
        assert plan.multiplicity == {"a": 2, "b": 1}
        assert plan.stitches == {("a", "b"): 1, ("b", "a"): 1}
        assert (plan.first, plan.last) == ("a", "a")

    def test_from_sequence_rejects_a_gate_beyond_n_input(self):
        with pytest.raises(CircuitError, match="touches qubit 2, beyond"):
            WidgetPlan.from_sequence(2, {"a": [gate(GateKind.H, 2)]}, ["a"])

    @pytest.mark.parametrize("change", [
        {"stitches": {("a", "c"): 2}}, {"first": "c"}, {"last": "c"},
        {"stitches": {("a", "b"): 1}}])
    def test_record_names_only_its_widgets(self, change):
        fields = {"n_input": 1, "multiplicity": {"a": 2, "b": 1},
                  "stitches": {("a", "b"): 1, ("b", "a"): 1},
                  "first": "a", "last": "a", "digests": {"a": "0", "b": "1"}}
        record = PlanRecord(**fields)
        assert list(record.ids) == ["a", "b"] and record.n_widgets == 3
        with pytest.raises(CircuitError):
            PlanRecord(**{**fields, **change})


class TestNestedFile:
    def test_roundtrip(self):
        payload = {
            "format": 1,
            "n_input": 2,
            "root": "main",
            "blocks": {
                "main": [{"block": "w", "repeat": 3},
                         {"gate": "cx", "qubits": [0, 1]}],
                "w": [{"gate": "rz", "qubits": [0], "angle": "pi/8"},
                      {"gate": "h", "qubits": [1]}],
            },
        }
        circ = parse_nested_file(payload)
        assert circ.n_input == 2
        assert circ.root == "main"
        assert isinstance(circ.blocks["main"][0], BlockRef)
        rz = circ.blocks["w"][0]
        assert isinstance(rz, Gate) and rz.kind is GateKind.Rz

    def test_bad_gate_name(self):
        payload = {"blocks": {"main": [{"gate": "u3", "qubits": [0]}]}}
        with pytest.raises(CircuitError, match="u3"):
            parse_nested_file(payload)

    def test_gate_name_that_is_not_a_string(self):
        payload = {"blocks": {"main": [{"gate": ["h"], "qubits": [0]}]}}
        with pytest.raises(CircuitError, match="unsupported gate"):
            parse_nested_file(payload)

    BAD_ITEMS = {
        "negative qubit": {"gate": "cx", "qubits": [-1, 0]},
        "fractional qubit": {"gate": "h", "qubits": [0.5]},
        "boolean qubit": {"gate": "h", "qubits": [True]},
        "string qubit": {"gate": "h", "qubits": ["0"]},
        "qubits not a list": {"gate": "h", "qubits": 3},
        "list angle": {"gate": "rz", "qubits": [0], "angle": [1]},
        "boolean angle": {"gate": "rz", "qubits": [0], "angle": True},
        "bad angle expression": {"gate": "rz", "qubits": [0], "angle": "pi/"},
        "fractional repeat": {"block": "w", "repeat": 2.5},
        "boolean repeat": {"block": "w", "repeat": True},
        "string repeat": {"block": "w", "repeat": "x"},
        "zero repeat": {"block": "w", "repeat": 0},
        "not an object": ["h", 0],
        "a string": "h q[0]",
        "neither gate nor block": {"qubits": [0]},
    }

    @pytest.mark.parametrize("case", sorted(BAD_ITEMS))
    def test_bad_item_names_block_and_item(self, case):
        payload = {"blocks": {
            "main": [{"gate": "h", "qubits": [0]}, {"block": "w"},
                     self.BAD_ITEMS[case]],
            "w": [{"gate": "x", "qubits": [0]}]}}
        with pytest.raises(CircuitError,
                           match=r"^block 'main' item 2: "):
            parse_nested_file(payload)

    def test_block_body_not_a_list(self):
        payload = {"blocks": {"main": {"gate": "h", "qubits": [0]}}}
        with pytest.raises(CircuitError, match="block 'main' must be a list"):
            parse_nested_file(payload)

    def test_non_integral_n_input(self):
        payload = {"n_input": 2.5, "blocks": {"main": [{"gate": "h",
                                                         "qubits": [0]}]}}
        with pytest.raises(CircuitError, match="n_input must be an integer"):
            parse_nested_file(payload)

    def test_repeated_bad_item_names_its_first_position(self):
        bad = {"gate": "cx", "qubits": [-1, 0]}
        payload = {"blocks": {"a": [{"gate": "h", "qubits": [0]}, bad],
                              "b": [dict(bad), bad]}}
        with pytest.raises(CircuitError, match=r"block 'a' item 1: "):
            parse_nested_file(payload)

    @pytest.mark.parametrize("good, bad", [
        ({"gate": "h", "qubits": [1]}, {"gate": "h", "qubits": [True]}),
        ({"gate": "h", "qubits": [0]}, {"gate": "h", "qubits": [False]}),
        ({"gate": "rz", "qubits": [0], "angle": 1},
         {"gate": "rz", "qubits": [0], "angle": True}),
    ])
    def test_boolean_rejected_after_an_equal_number(self, good, bad):
        payload = {"blocks": {"main": [good, bad]}}
        with pytest.raises(CircuitError, match="item 1: "):
            parse_nested_file(payload)

    def test_equal_items_share_one_gate(self):
        cx = {"gate": "cx", "qubits": [0, 1]}
        payload = {"blocks": {"main": [cx, dict(cx), {"block": "b"}],
                              "b": [dict(cx), {"gate": "cx", "qubits": [1, 0]}]}}
        circ = parse_nested_file(payload)
        a, b, _ = circ.blocks["main"]
        c, d = circ.blocks["b"]
        assert a is b is c
        assert d.qubits == (1, 0)

    def test_numeric_spellings_parse_as_before(self):
        payload = {"n_input": 3.0, "blocks": {
            "main": [{"gate": "rz", "qubits": [0], "angle": "pi/4"},
                     {"gate": "rz", "qubits": [0],
                      "angle": 0.7853981633974483},
                     {"gate": "cp", "qubits": [0, 2], "angle": 1},
                     {"gate": "cp", "qubits": [0, 2], "angle": 1.0},
                     {"gate": "cx", "qubits": [0, 1]},
                     {"gate": "cx", "qubits": [0.0, 1.0]},
                     {"block": "w", "repeat": 2.0},
                     {"block": "w", "repeat": 2}],
            "w": [{"gate": "h", "qubits": [2]}]}}
        circ = parse_nested_file(payload)
        assert circ == parse_nested_per_item(payload)
        assert circ.n_input == 3 and circ.blocks["main"][0].angle == 0.7853981633974483

    @pytest.mark.parametrize("sub_seed", range(16))
    def test_pool_plans_match_per_item_parse(self, sub_seed):
        payload = json.loads(benchmark_pool_circuit(sub_seed))
        max_gates = ArchConfig().max_gates
        plans = []
        for parse in (parse_nested_file, parse_nested_per_item):
            circ = parse(payload)
            plans.append(WidgetPlan.from_root(
                build_dependency_graph(circ, max_gates), circ.n_input))
        assert plans[0] == plans[1]
        assert plans[0].n_distinct_widgets == 120


def plan_sha256(circ, max_gates, prefix):
    """sha256 of the id-free content and order of ``circ``'s nested plan:
    each widget's digest and multiplicity in plan order, each stitch as two
    digests and a count in stitch order, the first and last digests, and
    the digests of the first ``prefix`` entries of the leaf sequence."""
    root = build_dependency_graph(circ, max_gates)
    plan = WidgetPlan.from_root(root, circ.n_input)
    d = plan.digests
    h = hashlib.sha256()
    h.update(repr([(d[w], plan.multiplicity[w]) for w in plan.ids]).encode())
    h.update(repr([(d[a], d[b], n)
                   for (a, b), n in plan.stitches.items()]).encode())
    h.update(repr((d[plan.first], d[plan.last])).encode())
    sequence = itertools.islice(iter_leaf_sequence(root), prefix)
    h.update(" ".join(map(d.__getitem__, sequence)).encode())
    return h.hexdigest()


class TestPlanPins:
    """Each pool circuit's plan under four split budgets, pinned by the
    sha256s in plan_sha256.json. The default's, "64,4096,16", were recorded
    with the earlier two-pass fold; "400,7,2" and "64,30,3" were recorded
    again once gate lists were cut in gate order, and "4,50,1" once the
    active-qubit threshold was dropped. Only the first 20000 leaves of each
    sequence are hashed: the full sequences run to millions."""

    CRITERIA = SPLIT_CRITERIA
    PINS = Path(__file__).with_name("plan_sha256.json")

    @pytest.mark.parametrize("sub_seed", range(16))
    def test_plan_content_and_order_are_pinned(self, sub_seed):
        circ = parse_nested_file(json.loads(benchmark_pool_circuit(sub_seed)))
        got = {label: plan_sha256(circ, max_gates, 20_000)
               for label, max_gates in self.CRITERIA.items()}
        assert got == json.loads(self.PINS.read_text())[str(sub_seed)]


class TestEveryGateKept:
    """Each pool circuit's plan under each pinned split budget holds
    every source gate: its widgets' gate kinds, weighted by multiplicity,
    count the fully expanded source's (gates, T and Rz included)."""

    @pytest.mark.parametrize("label", TestPlanPins.CRITERIA)
    @pytest.mark.parametrize("sub_seed", range(16))
    def test_plan_counts_match_source(self, sub_seed, label):
        circ = parse_nested_file(json.loads(benchmark_pool_circuit(sub_seed)))
        plan = WidgetPlan.from_root(
            build_dependency_graph(circ, TestPlanPins.CRITERIA[label]),
            circ.n_input)
        got = {}
        for wid, gates in plan.widgets.items():
            for g in gates:
                got[g.kind] = got.get(g.kind, 0) + plan.multiplicity[wid]
        assert got == expanded_kind_counts(circ.blocks, circ.root, {})


class TestSharedDigest:
    def test_leaf_keys_and_plan_digests_are_gate_list_digests(self):
        payload = json.loads(benchmark_pool_circuit(3))
        max_gates = ArchConfig().max_gates
        circ = parse_nested_file(payload)
        root = build_dependency_graph(circ, max_gates)
        plan = WidgetPlan.from_root(root, circ.n_input)
        assert set(leaves_of(root)) == set(plan.widgets)
        for wid, leaf in leaves_of(root).items():
            assert leaf.digest == gate_list_digest(leaf.gates)
            assert plan.digests[wid] == leaf.digest

    def test_lone_widget_digest_waits_for_the_cache(self, tmp_path,
                                                    monkeypatch):
        """A plan of one leaf computes no digest until the cache asks for
        it: a cold estimate digests the gates once with a cache directory
        and never without one."""
        gates = generate_qft(20)
        path = tmp_path / "qft20.qasm"
        path.write_text(emit_qasm(gates, 20))
        plan = load_circuit(path, ArchConfig()).plan
        (wid,) = plan.ids
        assert plan.digests == {}
        assert plan.digest(wid) == gate_list_digest(gates)

        calls = []

        def counted(gate_list):
            calls.append(1)
            return gate_list_digest(gate_list)

        monkeypatch.setattr(widgetizer, "gate_list_digest", counted)
        monkeypatch.delenv(CACHE_ENV, raising=False)
        run_estimate(path)
        assert len(calls) == 0
        cache = tmp_path / "cache"
        run_estimate(path, cache_dir=cache)
        assert len(calls) == 1
        key = widget_set_key([gate_list_digest(gates)], 20, 4)
        assert [p.name for p in cache.glob("widgets-*.json")] == [
            f"widgets-{key}.json"]

    def test_sequence_plan_digests_on_first_use(self):
        args = (2, {"a": [gate(GateKind.H, 0)], "b": [gate(GateKind.CX, 0, 1)],
                    "unused": []}, ["a", "b", "a"])
        plan = WidgetPlan.from_sequence(*args)
        assert plan.digests == {}
        for wid, gates in plan.widgets.items():
            assert plan.digest(wid) == gate_list_digest(gates)
        assert set(plan.digests) == {"a", "b"}
        assert plan == WidgetPlan.from_sequence(*args)
