"""Tests for the greedy graph-preparation scheduler."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    compiled,
    cross_module_ops,
    encode_spans,
    min_prep_substeps,
    schedule_by_rescan,
    star_nodes,
    substep_spans,
)
from pool import benchmark_pool_circuit
from qre.compiler import WidgetRecord, compile_widget
from qre.circuit import generate_qft, transpile
from qre.config import ArchConfig
from qre.pipeline import load_circuit
from qre.prepsched import (
    PrepSchedule,
    PrepTuple,
    schedule_preparation,
)

FAN_OUT = ArchConfig().fan_out


def canonical(edges):
    """A hand-made or random edge list in the scheduler's input form, the
    form ``graph_form`` returns: each edge once as (u, v), u < v, sorted."""
    return sorted({(u, v) if u < v else (v, u) for u, v in edges})


def stars(schedule: PrepSchedule):
    """Per sub-step, (center, leaves) of each star: the reference's form."""
    return [[(t.center, t.leaves) for t in step]
            for step in schedule.sub_steps]


def all_tuples(schedule: PrepSchedule) -> list[PrepTuple]:
    return [t for step in schedule.sub_steps for t in step]


def check_schedule(schedule: PrepSchedule, edges) -> None:
    want = Counter((min(u, v), max(u, v)) for u, v in edges)
    got = Counter((min(t.center, v), max(t.center, v))
                  for t in all_tuples(schedule) for v in t.leaves)
    assert want == got, "every edge covered exactly once"
    for step in schedule.sub_steps:
        seen = set()
        intervals = []
        for t in step:
            nodes = star_nodes(t)
            assert len(nodes) <= 5
            assert not (set(nodes) & seen), "node-disjoint within sub-step"
            seen.update(nodes)
            lo, hi = min(nodes), max(nodes)
            assert all(hi < a or b < lo for a, b in intervals), \
                "interval-disjoint within sub-step"
            intervals.append((lo, hi))


class TestExamples:
    def test_path_takes_two_substeps(self):
        s = schedule_preparation(3, [(0, 1), (1, 2)], FAN_OUT)
        check_schedule(s, [(0, 1), (1, 2)])
        assert s.n_sub_steps == 2

    def test_star_hub_first_is_one_substep(self):
        edges = [(0, v) for v in range(1, 5)]
        s = schedule_preparation(5, edges, FAN_OUT)
        check_schedule(s, edges)
        assert s.n_sub_steps == 1
        (t,) = all_tuples(s)
        assert t == PrepTuple(0, (1, 2, 3, 4))
        assert substep_spans(s) == ((4,),)

    def test_empty_graph(self):
        s = schedule_preparation(4, [], FAN_OUT)
        assert s.n_sub_steps == 0
        assert all_tuples(s) == []

    def test_fan_out_cap_splits_large_stars(self):
        edges = [(0, v) for v in range(1, 7)]
        s = schedule_preparation(7, edges, FAN_OUT)
        check_schedule(s, edges)
        assert s.n_sub_steps == 2
        assert max(len(t.leaves) for t in all_tuples(s)) == 4

    def test_invalid_edges_rejected(self):
        """The input is checked, not normalized: each edge once as (u, v)
        with 0 <= u < v < n, the pairs strictly increasing; an int n_nodes
        >= 0 and an int fan_out >= 1 (0 would drop edges), or a ValueError
        that names the argument."""
        for n, edges in [
            (3, [(1, 0)]),            # reversed pair
            (3, [(0, 1), (0, 1)]),    # duplicate
            (4, [(0, 2), (0, 1)]),    # unsorted
            (4, [(1, 2), (0, 3)]),    # unsorted by first node
            (3, [(0, 0)]),            # self-loop
            (3, [(-1, 2)]),           # negative node
            (3, [(0, 5)]),            # out of range
        ]:
            with pytest.raises(ValueError):
                schedule_preparation(n, edges, FAN_OUT)
        for n, fan_out, name in [
            (3, 0, "fan_out"),
            (3, -1, "fan_out"),
            (3, 2.0, "fan_out"),
            (3, "4", "fan_out"),
            (-1, FAN_OUT, "n_nodes"),
            (3.0, FAN_OUT, "n_nodes"),
        ]:
            with pytest.raises(ValueError, match=name):
                schedule_preparation(n, [(0, 1), (1, 2)], fan_out)

    def test_center_whose_low_neighbors_are_all_used(self):
        # After star (0, (1,)) reaches 1, center 3 fits: its only neighbor
        # at or below reach is the used node 1, so it takes 4, ahead of
        # center 4 whose lowest neighbor 3 lies past reach.
        s = schedule_preparation(5, [(0, 1), (1, 3), (3, 4)], FAN_OUT)
        assert stars(s) == [[(0, (1,)), (3, (4,))], [(1, (3,))]]

    def test_queued_center_that_a_later_star_uses_waits(self):
        # Star (0, (1,)) queues center 3, whose lowest neighbor 0 is used;
        # star (2, (3,)) then uses 3, so 3 must wait for the next sub-step.
        s = schedule_preparation(5, [(0, 1), (0, 3), (2, 3), (3, 4)],
                                 fan_out=1)
        assert stars(s) == [[(0, (1,)), (2, (3,))], [(0, (3,))], [(3, (4,))]]

    @pytest.mark.parametrize("n, edges", [
        (0, []),
        (1, []),
        (2, [(1, 0)]),
        (7, [(0, 6), (1, 5), (2, 4), (3, 6), (5, 6)]),  # not a power of two
        (12, [(0, 3), (1, 2), (2, 3), (0, 1)]),  # isolated trailing nodes
    ])
    def test_small_and_sparse_node_counts(self, n, edges):
        edges = canonical(edges)
        s = schedule_preparation(n, edges, FAN_OUT)
        check_schedule(s, edges)
        assert stars(s) == schedule_by_rescan(n, edges, FAN_OUT)

    def test_determinism(self):
        edges = canonical([(0, 3), (1, 2), (2, 3), (0, 1), (1, 3)])
        assert (schedule_preparation(5, edges, FAN_OUT)
                == schedule_preparation(5, edges, FAN_OUT))


def hub_and_spoke(n_spokes, hub, seed, p_chord=0.0):
    """A hub joined to ``n_spokes`` spokes in index order, the hub placed
    ``hub`` of the way along. Without chords most spokes have degree 1; a
    seeded third start a chain of 1-3 fresh nodes that ends at the next
    spoke, so the chain nodes sit between the spokes they join. With
    ``p_chord``, each non-hub node also joins each of the second to fourth
    non-hub nodes after it with that probability."""
    rng = random.Random(seed)
    order = ["spoke"]
    for _ in range(n_spokes - 1):
        if rng.random() < 1 / 3:
            order += ["chain"] * rng.randint(1, 3)
        order.append("spoke")
    order.insert(round(hub * len(order)), "hub")
    h = order.index("hub")
    edges = [(h, v) for v, kind in enumerate(order) if kind == "spoke"]
    rest = [v for v in range(len(order)) if v != h]
    edges += [(a, b) for a, b in zip(rest, rest[1:])
              if "chain" in (order[a], order[b])]
    edges += [(a, b) for i, a in enumerate(rest) for b in rest[i + 2:i + 5]
              if rng.random() < p_chord]
    return len(order), edges


@st.composite
def random_graphs(draw, max_nodes=8, p_edge=0.4):
    n = draw(st.integers(2, max_nodes))
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if draw(st.booleans() if p_edge == 0.5 else
                    st.floats(0, 1).map(lambda x: x < p_edge)):
                edges.append((u, v))
    return n, edges


def check_single_star_runs(n, edges, sub_steps, fan_out):
    """The run rule, on a list of sub-steps of (center, leaves): after a
    sub-step of one star, while its center keeps an edge, each sub-step is
    one star at that center, which is the lowest node with an edge, taking
    its next ``fan_out`` neighbors in order. Returns the sub-steps so
    predicted."""
    unc = {v: [] for v in range(n)}
    for u, v in edges:
        unc[u].append(v)
        unc[v].append(u)
    for nbrs in unc.values():
        nbrs.sort()
    run_center = None
    predicted = 0
    for step in sub_steps:
        if run_center is not None and unc[run_center]:
            c = run_center
            assert c == min(v for v in unc if unc[v])
            assert step == [(c, tuple(unc[c][:fan_out]))]
            predicted += 1
        for c, leaves in step:
            for v in leaves:
                unc[c].remove(v)
                unc[v].remove(c)
        run_center = step[0][0] if len(step) == 1 else None
    return predicted


class TestSingleStarRuns:
    """The rule the scheduler's run loop relies on (module docstring),
    checked on the rescanning reference's output, not on the loop."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 40).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                 .filter(lambda e: e[0] != e[1]), max_size=120))),
        st.integers(1, 6))
    def test_random_graphs(self, case, fan_out):
        n, edges = case
        edges = canonical(edges)
        check_single_star_runs(n, edges, schedule_by_rescan(n, edges,
                                                            fan_out), fan_out)

    def test_hub_graph_runs(self):
        n, edges = hub_and_spoke(60, 0, 0)
        edges = canonical(edges)
        for fan_out in range(1, 7):
            steps = schedule_by_rescan(n, edges, fan_out)
            assert check_single_star_runs(n, edges, steps, fan_out) > 0

    def test_qft20_and_pool_circuit_0_widgets(self):
        plan = load_circuit("pool0.json", ArchConfig(),
                            benchmark_pool_circuit(0).encode()).plan
        widgets = [(generate_qft(20), 20)] + [
            (gates, plan.n_input) for gates in plan.widgets.values()]
        runs = 0
        for gates, n_input in widgets:
            cw = compile_widget(transpile(gates), n_input=n_input)
            for fan_out in range(1, 7):
                steps = schedule_by_rescan(cw.n_nodes, cw.edges, fan_out)
                runs += check_single_star_runs(cw.n_nodes, cw.edges, steps,
                                               fan_out)
        assert runs > 0


class TestInvariants:
    @settings(max_examples=80, deadline=None)
    @given(random_graphs())
    def test_coverage_and_disjointness(self, case):
        n, edges = case
        s = schedule_preparation(n, edges, FAN_OUT)
        check_schedule(s, edges)

    @settings(max_examples=30, deadline=None)
    @given(random_graphs(max_nodes=6, p_edge=0.35))
    def test_greedy_never_beats_exhaustive_minimum(self, case):
        n, edges = case
        if len(edges) > 6:
            edges = edges[:6]
        s = schedule_preparation(n, edges, FAN_OUT)
        assert s.n_sub_steps >= min_prep_substeps(n, edges, FAN_OUT)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 40).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                 .filter(lambda e: e[0] != e[1]), max_size=80))),
        st.integers(1, 5))
    def test_matches_rescanning_reference(self, case, fan_out):
        n, edges = case
        edges = canonical(edges)
        s = schedule_preparation(n, edges, fan_out=fan_out)
        assert stars(s) == schedule_by_rescan(n, edges, fan_out=fan_out)

    def test_minimum_matches_on_known_cases(self):
        star = [(0, v) for v in range(1, 5)]
        assert min_prep_substeps(5, star, FAN_OUT) == 1
        # center-1 star, then parallel pairs
        assert min_prep_substeps(3, [(0, 1), (1, 2)], FAN_OUT) == 1
        assert min_prep_substeps(4, [(0, 1), (2, 3)], FAN_OUT) == 1


class TestDegreeBound:
    def test_holds_on_simple_families(self):
        for n, edges in [
            (6, [(i, i + 1) for i in range(5)]),              # path
            (6, [(i, (i + 1) % 6) for i in range(6)]),         # cycle
            (5, [(0, v) for v in range(1, 5)]),                # star, hub first
            (5, [(u, v) for u in range(5) for v in range(u + 1, 5)]),  # K5
        ]:
            s = schedule_preparation(n, canonical(edges), FAN_OUT)
            degree = Counter()
            for u, v in edges:
                degree[u] += 1
                degree[v] += 1
            assert s.n_sub_steps <= 2 * max(degree.values())

    def test_nested_matching_defeats_degree_bound(self):
        # Pairwise-nested intervals serialize completely under the bus
        # model even though every node has degree 1, so no schedule (greedy
        # or optimal) can meet a 2*max-degree bound here.
        edges = [(0, 5), (1, 4), (2, 3)]
        s = schedule_preparation(6, edges, FAN_OUT)
        check_schedule(s, edges)
        assert s.n_sub_steps == 3
        assert min_prep_substeps(6, edges, FAN_OUT) == 3
        assert s.n_sub_steps > 2 * 1

    def test_adding_an_edge_can_shorten_the_schedule(self):
        # Greedy length is not monotone in the edge set: densifying K8 minus
        # one edge reshapes the star tuples and saves a sub-step.
        n = 8
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if (u, v) != (1, 2)]
        before = schedule_preparation(n, edges, FAN_OUT).n_sub_steps
        after = schedule_preparation(n, canonical(edges + [(1, 2)]),
                                     FAN_OUT).n_sub_steps
        assert (before, after) == (9, 8)


class TestCrossModuleOps:
    def test_short_spans_never_cross(self):
        s = schedule_preparation(3, [(0, 1), (1, 2)], FAN_OUT)
        assert cross_module_ops(s, n_logical=3, n_inter_pipes=1) == 0

    def test_long_span_crossings(self):
        edges = [(0, 7)]
        s = schedule_preparation(8, edges, FAN_OUT)
        # span 7 crosses floor(7/3) = 2 boundaries: the divisor is the
        # register size n_logical, not the slots per module
        assert cross_module_ops(s, n_logical=3, n_inter_pipes=1) == 2
        assert cross_module_ops(s, n_logical=3, n_inter_pipes=2) == 1
        assert cross_module_ops(s, n_logical=8, n_inter_pipes=1) == 0

    @settings(max_examples=40, deadline=None)
    @given(random_graphs(max_nodes=7), st.integers(1, 5))
    def test_nonincreasing_in_pipes(self, case, n_logical):
        n, edges = case
        s = schedule_preparation(n, edges, FAN_OUT)
        counts = [cross_module_ops(s, n_logical, pipes) for pipes in (1, 2, 3, 4)]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_argument_validation(self):
        s = schedule_preparation(2, [(0, 1)], FAN_OUT)
        with pytest.raises(ValueError):
            cross_module_ops(s, 0, 1)
        with pytest.raises(ValueError):
            cross_module_ops(s, 1, 0)


class TestOnCompiledWidgets:
    def test_qft3_graph_schedules_cleanly(self):
        cw = compiled(generate_qft(3))
        s = schedule_preparation(cw.n_nodes, cw.edges, FAN_OUT)
        check_schedule(s, cw.edges)
        assert s.n_sub_steps >= 1

    @pytest.mark.parametrize("n", [8, 16])
    def test_qft_matches_rescanning_reference(self, n):
        cw = compiled(generate_qft(n))
        for fan_out in range(1, 6):
            s = schedule_preparation(cw.n_nodes, cw.edges, fan_out=fan_out)
            assert stars(s) == schedule_by_rescan(cw.n_nodes, cw.edges,
                                                  fan_out)

    def test_qft24_matches_rescanning_reference(self):
        cw = compiled(generate_qft(24))
        s = schedule_preparation(cw.n_nodes, cw.edges, FAN_OUT)
        assert stars(s) == schedule_by_rescan(cw.n_nodes, cw.edges, FAN_OUT)

    def test_qft64_schedule_size(self):
        cw = compiled(generate_qft(64))
        s = schedule_preparation(cw.n_nodes, cw.edges, FAN_OUT)
        assert (s.n_sub_steps, len(all_tuples(s))) == (1770, 2592)


class TestHubGraphs:
    """Hubs of high degree leave many centers whose lowest neighbor is used
    but whose other neighbors all lie at or below reach: the type (b)
    candidates the push rule leaves out of the heap."""

    @pytest.mark.parametrize("p_chord", [0.0, 0.3])
    @pytest.mark.parametrize("hub", [0, 0.5, 1])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_rescanning_reference(self, hub, seed, p_chord):
        n, edges = hub_and_spoke(40 + 5 * seed, hub, seed, p_chord)
        edges = canonical(edges)
        degree = Counter(u for e in edges for u in e)
        assert max(degree.values()) >= 40
        for fan_out in range(1, 6):
            s = schedule_preparation(n, edges, fan_out=fan_out)
            assert stars(s) == schedule_by_rescan(n, edges, fan_out)


QFT3 = compiled(generate_qft(3))


def record_spans(cw, schedule):
    """The spans text a widget record writes for ``schedule``."""
    return WidgetRecord.of(cw, schedule, n_clifford=0).spans_text


class TestRecordSpans:
    """A record writes its spans in one pass over the sub-steps; the text
    is the reference encoding of the schedule's spans, character for
    character."""

    @settings(max_examples=60, deadline=None)
    @given(random_graphs(max_nodes=12), st.integers(1, 6))
    def test_random_graphs(self, case, fan_out):
        n, edges = case
        s = schedule_preparation(n, edges, fan_out)
        assert record_spans(QFT3, s) == encode_spans(substep_spans(s))

    def test_qft20(self):
        cw = compiled(generate_qft(20))
        for fan_out in range(1, 7):
            s = schedule_preparation(cw.n_nodes, cw.edges, fan_out)
            assert record_spans(cw, s) == encode_spans(substep_spans(s))

    def test_every_widget_of_pool_circuit_0(self):
        text = benchmark_pool_circuit(0)
        plan = load_circuit("pool0.json", ArchConfig(),
                            text.encode()).plan
        assert len(plan.widgets) > 1
        for gates in plan.widgets.values():
            cw = compile_widget(transpile(gates), n_input=plan.n_input)
            for fan_out in range(1, 7):
                s = schedule_preparation(cw.n_nodes, cw.edges, fan_out)
                assert record_spans(cw, s) == encode_spans(substep_spans(s))
