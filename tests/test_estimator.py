"""Tests for distance/precision/factory selection and the timing model."""

import dataclasses
import json
import math
import random
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    budget_lhs,
    compile_fresh,
    distance_by_full_scan,
    gate,
    handover_crossings,
    layout_aware_lhs,
    min_distance_sweep,
    read_record,
    select_by_fixed_point,
    star_nodes,
    timing_per_call,
    totals_by_walk,
    widget_timing,
)
from pool import benchmark_pool_circuit
from qre.architecture import DEFAULT_FACTORIES, EstimationError, ModuleLayout, TFactory
from qre.circuit import GateKind, circuit_width, generate_qft
from qre.config import ArchConfig, ConfigError
from qre import compiler, estimator
from qre.estimator import (
    CompiledAlgorithm,
    SequentialCounts,
    StitchedEstimationSet,
    TimingBreakdown,
    _solve_distance,
    _widget_inputs,
    budget_rhs,
    compute_timing,
    decoding_cores,
    gate_synthesis_length,
    logical_error_per_cycle,
    logical_error_per_tock,
    sequential_counts,
    solve_distance_and_factory,
    spacetime_lhs,
)
from qre.pipeline import (
    compile_circuit,
    compile_plan,
    load_circuit,
    run_pipe_sweep,
)
from qre.widgetizer import WidgetPlan


def build_algo(sequence, distinct, n_input):
    """Compile a widget sequence into a CompiledAlgorithm."""
    plan = WidgetPlan.from_sequence(n_input, distinct, list(sequence))
    return compile_plan(plan, ArchConfig())


def single_widget_algo(gates, n_input=None):
    gates = list(gates)
    if n_input is None:
        n_input = max(circuit_width(gates), 1)
    return build_algo(["w0"], {"w0": gates}, n_input)


def widget_record(gates, n_input):
    """The record of a single-widget circuit."""
    (record,) = single_widget_algo(gates, n_input).compiled.values()
    return record


# --------------------------------------------------------------------------
# Error-rate and synthesis primitives
# --------------------------------------------------------------------------

class TestErrorRates:
    def test_per_cycle_at_mwpm_circuit_level(self):
        assert logical_error_per_cycle(1e-3, 9, 0.009, 0.016) == 8.58306884765625e-09

    def test_per_cycle_at_threshold_is_kappa(self):
        assert logical_error_per_cycle(0.016, 7, 0.52, 0.016) == pytest.approx(0.52)

    def test_per_tock_compounds_over_d_cycles(self):
        assert logical_error_per_tock(1e-3, 3) == pytest.approx(0.002997001, rel=1e-9)
        assert logical_error_per_tock(0.0, 11) == 0.0

    def test_per_tock_bounded_by_union_bound(self):
        for d in (3, 7, 15):
            p_c = logical_error_per_cycle(1e-3, d, 0.009, 0.016)
            assert p_c < logical_error_per_tock(p_c, d) < d * p_c


class TestSynthesisLength:
    """At the default ``ArchConfig`` constants unless a case sets its own."""

    C0, C1 = ArchConfig().c0, ArchConfig().c1

    def length(self, epsilon):
        return gate_synthesis_length(epsilon, self.C0, self.C1)

    def test_mixed_fallback_constants(self):
        assert self.length(1e-10) == 28

    def test_gridsynth_constants(self):
        assert gate_synthesis_length(2.0 ** -10, c0=3.0, c1=0.0) == 30

    def test_trivial_precision(self):
        assert self.length(1.0) == 9  # ceil(c1)

    def test_nonpositive_precision_rejected(self):
        with pytest.raises(ValueError):
            self.length(0.0)
        with pytest.raises(ValueError):
            self.length(-1e-3)

    @given(st.floats(min_value=1e-30, max_value=1.0),
           st.floats(min_value=1.0, max_value=1e6))
    def test_tighter_precision_never_shortens(self, eps, factor):
        tighter = eps / factor
        assert self.length(tighter) >= self.length(eps)


class TestSequentialCounts:
    def test_frozen_examples(self):
        assert sequential_counts(10, 0, 0, 5) == SequentialCounts(10, 2, 2)
        assert sequential_counts(0, 3, 28, 4) == SequentialCounts(84, 28, 21)
        assert sequential_counts(1, 1, 9, 1) == SequentialCounts(10, 10, 10)

    def test_unit_feed_serializes_everything(self):
        c = sequential_counts(7, 2, 13, 1)
        assert c.n_tot_t == 7 + 2 * 13
        assert c.n_seq_consump == c.n_seq_distill == c.n_tot_t

    def test_feed_must_be_positive(self):
        with pytest.raises(ValueError):
            sequential_counts(1, 0, 0, 0)

    @given(st.integers(0, 500), st.integers(0, 50), st.integers(0, 60),
           st.integers(1, 40))
    def test_distillation_never_outpaces_consumption(self, n_t, n_rz, l_eps, n_prime):
        c = sequential_counts(n_t, n_rz, l_eps, n_prime)
        assert c.n_tot_t == n_rz * l_eps + n_t
        assert 0 <= c.n_seq_distill <= c.n_seq_consump
        # n_prime states per step can't finish faster than the total demands
        assert c.n_seq_distill * n_prime >= c.n_tot_t


# --------------------------------------------------------------------------
# Failure-budget inequality and the distance sweep
# --------------------------------------------------------------------------

WORKED = dict(n_logical=1, l_prep_total=1, n_per_leg=1, l_transfer_bus=10,
              counts=SequentialCounts(10, 10, 10), cycles=42.6)

# Arguments of solve_distance after the config.
SOLVE = dict(n_logical=1, l_prep_total=1, factory=DEFAULT_FACTORIES[0],
             l_eps=0, n_t_init=10, n_rz_init=10)


def lhs(d, cfg, *args, **kwargs):
    """``spacetime_lhs`` at d with ``cfg``'s per-cycle error."""
    p_c = logical_error_per_cycle(cfg.p, d, cfg.kappa, cfg.p_thresh)
    return spacetime_lhs(d, p_c, *args, **kwargs)


def prep_bound(d, cfg, n_logical, l_prep_total):
    """The preparation-only failure weight at d under ``cfg``."""
    p_c = logical_error_per_cycle(cfg.p, d, cfg.kappa, cfg.p_thresh)
    return estimator._failure_weight(p_c, d, n_logical, l_prep_total, 0.0)


def solve_distance(cfg, n_logical, l_prep_total, factory, **kwargs):
    """``_solve_distance`` for ``factory`` alone, on a scan of its own."""
    scan = estimator._Scan(dataclasses.replace(cfg, factories=(factory,)),
                           n_logical, l_prep_total)
    return _solve_distance(scan, 0, **kwargs)


def solved_d(cfg, **kwargs):
    solved = solve_distance(cfg, **kwargs)
    return None if isinstance(solved, str) else solved[0]


class TestBudgetInequality:
    def test_rhs_is_log_failure_budget(self):
        assert budget_rhs(0.05) == pytest.approx(-math.log(0.95), rel=1e-14)
        assert budget_rhs(0.05) == pytest.approx(0.051293294387550536, rel=1e-14)

    def test_worked_instance_lhs_values(self):
        cfg = ArchConfig()
        assert lhs(5, cfg, **WORKED) == pytest.approx(
            0.06286376953125, rel=1e-12)
        assert lhs(7, cfg, **WORKED) == pytest.approx(
            0.005735137939453125, rel=1e-12)

    def test_worked_instance_minimal_distance(self):
        cfg = ArchConfig()
        rhs = budget_rhs(cfg.p_algo_fail)
        assert lhs(7, cfg, **WORKED) < rhs <= lhs(5, cfg, **WORKED)
        assert lhs(3, cfg, **WORKED) >= rhs
        assert min_distance_sweep(lambda d: lhs(d, cfg, **WORKED),
                                  cfg.p_algo_fail) == 7

    def test_matches_oracle_transcription(self):
        cfg = ArchConfig()
        for d in (3, 5, 7, 9, 21):
            want = budget_lhs(d, cfg.kappa, cfg.p, cfg.p_thresh, 1, 1, 1, 10,
                              10, 10, 42.6)
            assert lhs(d, cfg, **WORKED) == pytest.approx(want, rel=1e-13)

    def test_randomized_minimality_against_sweep_oracle(self):
        rng = random.Random(20260814)
        n_solved = 0
        for trial in range(50):
            args = dict(n_logical=rng.randint(1, 500),
                        l_prep_total=rng.randint(1, 200),
                        factory=rng.choice(DEFAULT_FACTORIES),
                        l_eps=rng.randint(0, 60),
                        n_t_init=rng.randint(0, 5000),
                        n_rz_init=rng.randint(0, 200))
            p_algo_fail = rng.uniform(0.01, 0.6)
            # a few trials near threshold to exercise deep sweeps
            p = 0.012 if trial % 10 == 0 else 1e-3
            cfg = ArchConfig(p=p, p_algo_fail=p_algo_fail,
                             n_phys_per_module=rng.choice([10 ** 6, 10 ** 7]))
            lhs_at = layout_aware_lhs(cfg, **args)
            solved = solve_distance(cfg, **args)
            want = min_distance_sweep(lhs_at, p_algo_fail)
            if isinstance(solved, str):
                assert want is None, trial
                continue
            assert solved[0] == want, trial
            n_solved += 1
            d, layout, counts = solved
            got = lhs(d, cfg, args["n_logical"], args["l_prep_total"],
                      layout.n_per_leg, layout.l_transfer_bus, counts,
                      args["factory"].cycles)
            assert got == pytest.approx(lhs_at(d), rel=1e-12)
            assert got < budget_rhs(p_algo_fail)
        assert n_solved >= 40

    def test_exhausted_cap_returns_the_budget_reason(self):
        cfg = ArchConfig(p_algo_fail=1e-12)
        args = dict(SOLVE, l_prep_total=10 ** 140)
        assert solve_distance(cfg, **args) == (
            "no odd d <= 199 meets the failure budget p_algo_fail=1e-12")
        assert min_distance_sweep(layout_aware_lhs(cfg, **args),
                                  cfg.p_algo_fail) is None

    def test_no_layout_at_any_distance_returns_the_layout_reason(self):
        cfg = ArchConfig(n_phys_per_module=5000)
        assert solve_distance(cfg, **SOLVE) == (
            "no module layout fits at any odd d <= 199")
        assert all(lhs is None for lhs in map(
            layout_aware_lhs(cfg, **SOLVE), range(3, 200, 2)))

    def test_no_layout_at_skipped_distances_keeps_the_layout_reason(self):
        """The preparation volume skips d = 3..9 here, and no layout fits
        at those either."""
        cfg = ArchConfig(n_phys_per_module=5000)
        args = dict(SOLVE, l_prep_total=10 ** 5)
        assert prep_bound(3, cfg, 1, 10 ** 5) >= budget_rhs(cfg.p_algo_fail)
        assert solve_distance(cfg, **args) == (
            "no module layout fits at any odd d <= 199")
        assert distance_by_full_scan(cfg, **args) == (
            "no module layout fits at any odd d <= 199")

    def test_layout_only_at_skipped_distances_returns_the_budget_reason(
            self, monkeypatch):
        """On 20,000-qubit modules a layout fits only at d = 3..9, and there
        the preparation volume alone fails the budget, so the scan skips
        them and chooses a layout only at d = 11..199, where none fits.
        The reason is still the budget's, as in a full scan."""
        cfg = ArchConfig(n_phys_per_module=20_000)
        args = dict(SOLVE, l_prep_total=10 ** 5)
        lhs_at = layout_aware_lhs(cfg, **args)
        fitting = [d for d in range(3, 200, 2) if lhs_at(d) is not None]
        assert fitting == [3, 5, 7, 9]
        rhs = budget_rhs(cfg.p_algo_fail)
        assert all(prep_bound(d, cfg, 1, 10 ** 5) >= rhs for d in fitting)
        assert prep_bound(11, cfg, 1, 10 ** 5) < rhs

        calls = []
        choose = estimator.choose_modules_per_leg

        def counted(*a):
            calls.append(a[2])
            return choose(*a)

        monkeypatch.setattr(estimator, "choose_modules_per_leg", counted)
        reason = solve_distance(cfg, **args)
        assert reason == (
            "no odd d <= 199 meets the failure budget p_algo_fail=0.05")
        assert reason == distance_by_full_scan(cfg, **args)
        # the scan from d=11, then the skipped distances until one fits
        assert calls == [*range(11, 200, 2), 3]

    def test_generous_budget_gives_smallest_distance(self):
        cfg = ArchConfig(p_algo_fail=1 - 1e-9)
        assert solved_d(cfg, **dict(SOLVE, n_t_init=0)) == 3

    def test_monotone_in_failure_budget(self):
        lax = ArchConfig(p_algo_fail=0.5)
        strict = ArchConfig(p_algo_fail=0.001)
        assert solved_d(strict, **SOLVE) > solved_d(lax, **SOLVE)

    def test_monotone_in_volume(self):
        cfg = ArchConfig()
        base = solved_d(cfg, **SOLVE)
        for field, value in (("n_logical", 1000), ("l_prep_total", 10 ** 6),
                             ("n_t_init", 10 ** 6), ("l_eps", 30)):
            assert solved_d(cfg, **dict(SOLVE, **{field: value})) >= base, field


# --------------------------------------------------------------------------
# Full selection: distance + precision + factory
# --------------------------------------------------------------------------

NESTED_REPEATS = {"blocks": {
    "main": [{"gate": "h", "qubits": [0]}, {"block": "outer", "repeat": 4},
             {"gate": "t", "qubits": [2]}],
    "outer": [{"block": "layer", "repeat": 3}, {"gate": "s", "qubits": [0]}],
    "layer": [{"gate": "cx", "qubits": [0, 1]}, {"gate": "t", "qubits": [1]},
              {"gate": "h", "qubits": [2]},
              {"gate": "rz", "qubits": [2], "angle": 0.3},
              {"gate": "cx", "qubits": [1, 2]}]}}
TABLE_OUT_OF_USE_ORDER = {
    "n_input": 2, "sequence": ["a", "b", "a", "a", "c", "a"],
    "distinct_widgets": {"c": "qreg q[2]; rz(0.7) q[0]; h q[1];",
                         "b": "qreg q[2]; s q[1];",
                         "a": "qreg q[2]; h q[0]; cx q[0],q[1]; t q[1];"}}


class TestSequenceTotals:
    @pytest.mark.parametrize("payload", [NESTED_REPEATS,
                                         TABLE_OUT_OF_USE_ORDER],
                             ids=["nested", "table"])
    def test_every_total_matches_an_expanded_walk(self, payload, tmp_path):
        """``est`` of a cold and of a warm compile equals the totals of a
        position-by-position walk over the expanded sequence."""
        path = tmp_path / "circuit.json"
        path.write_text(json.dumps(payload))
        cfg = ArchConfig(max_gates=3)
        loaded = load_circuit(path, cfg)
        sequence, _ = loaded.expand()
        assert 1 < loaded.plan.n_distinct_widgets < len(sequence)
        if "sequence" in payload:  # table order, not the order of first use
            assert list(loaded.plan.ids) == ["c", "b", "a"]
        expected = totals_by_walk(loaded, cfg.fan_out)
        est = compile_plan(loaded.plan, cfg).est
        assert dataclasses.asdict(est) == expected
        for _ in range(2):  # cold, then from the plan and widget records
            algo, _ = compile_circuit(path, cfg, tmp_path / "cache")
            assert dataclasses.asdict(algo.est) == expected


@pytest.fixture(scope="module")
def qft3_algo():
    return single_widget_algo(generate_qft(3))


@pytest.fixture(scope="module")
def qft3_selection(qft3_algo):
    cfg = ArchConfig()
    return cfg, solve_distance_and_factory(cfg, qft3_algo.est)


class TestSelection:
    def test_qft3_operating_point(self, qft3_selection):
        _, sel = qft3_selection
        assert sel.d == 11
        assert sel.factory is DEFAULT_FACTORIES[1]
        assert sel.l_eps == 25
        assert sel.counts == SequentialCounts(81, 26, 11)
        assert sel.layout.n_per_leg == 1
        assert sel.layout.l_edge == 64
        assert sel.layout.n_t_factories == 10
        assert sel.layout.l_transfer_bus == 754
        assert sel.layout.n_prime_effective == 8

    def test_qft3_precision_consistency(self, qft3_selection):
        cfg, sel = qft3_selection
        assert sel.epsilon is not None
        assert sel.epsilon < sel.p_logical
        assert sel.l_eps == gate_synthesis_length(sel.epsilon, cfg.c0, cfg.c1)
        p_c = logical_error_per_cycle(cfg.p, sel.d, cfg.kappa, cfg.p_thresh)
        assert sel.p_logical == logical_error_per_tock(p_c, sel.d)
        assert sel.factory.p_out < sel.p_logical

    def test_qft3_budget_binds(self, qft3_selection):
        cfg, sel = qft3_selection
        rhs = budget_rhs(cfg.p_algo_fail)
        args = (cfg, 6, 4, sel.layout.n_per_leg, sel.layout.l_transfer_bus,
                sel.counts, sel.factory.cycles)
        assert lhs(sel.d, *args) < rhs

    def test_qft3_distance_matches_layout_aware_oracle(self, qft3_algo,
                                                       qft3_selection):
        """Independent sweep recomputing the layout at every candidate d."""
        cfg, sel = qft3_selection
        est = qft3_algo.est
        lhs_at = layout_aware_lhs(cfg, est.n_logical_max,
                                  est.l_prep_total, sel.factory,
                                  sel.l_eps, est.n_T_init, est.n_Rz_init)
        assert min_distance_sweep(lhs_at, cfg.p_algo_fail) == sel.d

    def test_deterministic(self, qft3_algo, qft3_selection):
        cfg, sel = qft3_selection
        again = solve_distance_and_factory(cfg, qft3_algo.est)
        assert again == sel

    def test_clifford_only_needs_no_synthesis_or_distillation(self):
        algo = single_widget_algo(
            [gate(GateKind.H, 0), gate(GateKind.CX, 0, 1), gate(GateKind.S, 1)])
        cfg = ArchConfig()
        sel = solve_distance_and_factory(cfg, algo.est)
        assert algo.est.n_T_init == 0 and algo.est.n_Rz_init == 0
        assert sel.epsilon is None
        assert sel.l_eps == 0
        assert sel.counts.n_tot_t == 0
        # with the factories idle, the first table row serves
        assert sel.factory is DEFAULT_FACTORIES[0]

    def test_pinned_precision_skips_fixed_point(self, qft3_algo):
        cfg = ArchConfig(epsilon=1e-10)
        sel = solve_distance_and_factory(cfg, qft3_algo.est)
        assert sel.epsilon == 1e-10
        assert sel.l_eps == 28

    def test_factory_scan_picks_first_dominant_row(self):
        """Physics tuned so the d=3 logical tock error is exactly 1e-9: the
        selected factory must be the first table row beating it, determined
        from the table itself."""
        p_c_target = 1.0 - (1.0 - 1e-9) ** (1.0 / 3.0)
        kappa = p_c_target * (0.016 / 1e-3) ** 2
        algo = single_widget_algo([gate(GateKind.T, 0)])
        cfg = ArchConfig(kappa=kappa)
        sel = solve_distance_and_factory(cfg, algo.est)
        assert sel.d == 3
        assert sel.p_logical == pytest.approx(1e-9, rel=1e-9)
        expected = next(f for f in DEFAULT_FACTORIES if f.p_out < sel.p_logical)
        assert sel.factory is expected
        assert expected is not DEFAULT_FACTORIES[0]

    def test_no_dominant_factory_is_infeasible(self, qft3_algo):
        # QFT3 solves at d=11 where the logical tock error (~5.9e-9) is below
        # the first row's 4.5e-8 output error; with only that row available
        # the distillation would be the weakest link.
        cfg = ArchConfig(factories=(DEFAULT_FACTORIES[0],))
        with pytest.raises(EstimationError) as info:
            solve_distance_and_factory(cfg, qft3_algo.est)
        assert str(info.value) == (
            "estimation infeasible: factory '(15-to-1)_17,7,7': output error "
            "4.5e-08 is not below the logical tock error 5.901e-09 at d=11")

    def test_no_layout_fits_is_infeasible(self, qft3_algo):
        cfg = ArchConfig(n_phys_per_module=5000)  # too small for any table row
        with pytest.raises(EstimationError) as info:
            solve_distance_and_factory(cfg, qft3_algo.est)
        assert str(info.value) == "estimation infeasible: " + "; ".join(
            f"factory {f.name!r}: no module layout fits at any odd d <= 199"
            for f in DEFAULT_FACTORIES)

    def test_no_distance_meets_the_budget_is_infeasible(self):
        est = StitchedEstimationSet(
            n_input=1, n_widgets=1, n_T_init=10, n_Rz_init=0,
            n_clifford_init=0, n_logical_max=1, n_nodes_total=1,
            l_prep_total=10 ** 140, consump_steps_total=1)
        cfg = ArchConfig(p_algo_fail=1e-12)
        with pytest.raises(EstimationError) as info:
            solve_distance_and_factory(cfg, est)
        assert str(info.value) == "estimation infeasible: " + "; ".join(
            f"factory {f.name!r}: no odd d <= 199 meets the failure budget "
            f"p_algo_fail=1e-12" for f in DEFAULT_FACTORIES)

    def test_each_factory_names_its_own_reason(self):
        est = StitchedEstimationSet(
            n_input=1, n_widgets=1, n_T_init=10 ** 6, n_Rz_init=10 ** 3,
            n_clifford_init=0, n_logical_max=10, n_nodes_total=1,
            l_prep_total=1000, consump_steps_total=1)
        cfg = ArchConfig(n_phys_per_module=100000)
        with pytest.raises(EstimationError) as info:
            solve_distance_and_factory(cfg, est)
        head, _, body = str(info.value).partition(": ")
        assert head == "estimation infeasible"
        reasons = body.split("; ")
        assert [r.partition(": ")[0] for r in reasons] == [
            f"factory {f.name!r}" for f in DEFAULT_FACTORIES]
        kinds = {"not below": "output", "no module layout": "layout",
                 "failure budget": "budget"}
        assert [next(k for key, k in kinds.items() if key in r)
                for r in reasons] == ["output", "layout", "layout", "output",
                                      "budget", "layout", "layout"]

    def test_completeness_check(self, qft3_algo):
        with pytest.raises(EstimationError, match="incomplete"):
            CompiledAlgorithm(qft3_algo.plan, {})


def random_selection_case(rng):
    """A config and sequence totals spanning every outcome of the solve:
    p up to 0.012, modules of 5,000 to 10^7 qubits, a pinned precision,
    subsets of the factory table, T- and Rz-free algorithms, and T counts
    up to 10^12."""
    subset = tuple(f for f in DEFAULT_FACTORIES if rng.random() < 0.6)
    cfg = ArchConfig(
        p=0.012 if rng.random() < 0.1 else 10 ** rng.uniform(-4, -1.93),
        p_algo_fail=10 ** rng.uniform(-4, -0.23),
        n_phys_per_module=int(10 ** rng.uniform(3.7, 7)),
        epsilon=10 ** -rng.uniform(2, 20) if rng.random() < 0.3 else None,
        factories=subset if subset and rng.random() < 0.7
        else DEFAULT_FACTORIES)
    est = StitchedEstimationSet(
        n_input=1, n_widgets=1,
        n_T_init=0 if rng.random() < 0.2 else int(10 ** rng.uniform(0, 12)),
        n_Rz_init=0 if rng.random() < 0.25 else int(10 ** rng.uniform(0, 9)),
        n_clifford_init=0, n_logical_max=int(10 ** rng.uniform(0, 3.3)),
        n_nodes_total=1, l_prep_total=int(10 ** rng.uniform(0, 6)),
        consump_steps_total=1)
    return cfg, est


@pytest.fixture(scope="module")
def pool3_algo(tmp_path_factory):
    path = tmp_path_factory.mktemp("pool3") / "nested3.json"
    path.write_text(benchmark_pool_circuit(3))
    return compile_circuit(path, ArchConfig())[0]


class TestSelectionReference:
    def test_randomized_agreement_with_fixed_point_reference(self):
        """The per-factory loop selects what a separate precision fixed
        point and a full failure scan select, or both raise the same error
        with the same message, every factory's reason included."""
        rng = random.Random(20261018)
        seen = Counter()
        for trial in range(400):
            cfg, est = random_selection_case(rng)
            try:
                ref = select_by_fixed_point(cfg, est)
            except (EstimationError, ValueError) as exc:
                with pytest.raises(type(exc)) as info:
                    solve_distance_and_factory(cfg, est)
                assert str(info.value) == str(exc), trial
                seen[type(exc).__name__] += 1
                for key in ("not below", "no module layout", "failure budget"):
                    seen[key] += key in str(info.value)
                continue
            sel = solve_distance_and_factory(cfg, est)
            assert (sel.d, sel.epsilon, sel.l_eps, sel.factory, sel.p_logical,
                    sel.layout, sel.counts) == ref, trial
            seen["solved"] += 1
            seen["pinned"] += cfg.epsilon is not None and est.n_Rz_init > 0
            seen["no T"] += est.n_T_init == 0
            seen["no Rz"] += est.n_Rz_init == 0
        assert min(seen.values()) >= 10, seen
        assert seen["solved"] >= 80 and seen["EstimationError"] >= 150, seen

    def test_synthesis_length_shrinking_with_precision_is_rejected(self):
        """A negative c0 would shrink the synthesis length as epsilon
        shrinks, which the resumed distance scan does not allow for: every
        such config is a ConfigError naming ``synthesis.c0``."""
        rng = random.Random(5)
        for trial in range(400):
            cfg, _ = random_selection_case(rng)
            with pytest.raises(ConfigError, match=r"synthesis\.c0"):
                dataclasses.replace(cfg, c0=-rng.uniform(0.01, 1.0),
                                    c1=rng.uniform(10, 60), epsilon=None)

    def test_synthesis_constants_in_range_agree(self):
        """With c0 in [0, 1] the synthesis length grows as epsilon shrinks,
        and the selection, or the error and its message, equals the
        reference, which scans every distance from 3."""
        rng = random.Random(5)
        solved = 0
        for trial in range(400):
            cfg, est = random_selection_case(rng)
            c0 = 0.0 if trial % 10 == 0 else rng.uniform(0.0, 1.0)
            cfg = dataclasses.replace(cfg, c0=c0, c1=rng.uniform(0.01, 60),
                                      epsilon=None)
            try:
                ref = select_by_fixed_point(cfg, est)
            except (EstimationError, ValueError) as exc:
                with pytest.raises(type(exc)) as info:
                    solve_distance_and_factory(cfg, est)
                assert str(info.value) == str(exc), trial
                continue
            sel = solve_distance_and_factory(cfg, est)
            assert (sel.d, sel.epsilon, sel.l_eps, sel.factory, sel.p_logical,
                    sel.layout, sel.counts) == ref, trial
            solved += 1
        assert solved >= 80

    @staticmethod
    def counted_solve(algo, monkeypatch):
        """One default solve of ``algo``, with the (factory, d) of each
        layout choice and the d of each per-cycle error evaluation."""
        layouts, cycle_errors = [], []
        choose = estimator.choose_modules_per_leg
        per_cycle = estimator.logical_error_per_cycle

        def counted_choose(*args):
            layouts.append((args[3], args[2]))
            return choose(*args)

        def counted_per_cycle(*args):
            cycle_errors.append(args[1])
            return per_cycle(*args)

        with monkeypatch.context() as patch:
            patch.setattr(estimator, "choose_modules_per_leg", counted_choose)
            patch.setattr(estimator, "logical_error_per_cycle",
                          counted_per_cycle)
            sel = solve_distance_and_factory(ArchConfig(), algo.est)
        return sel, layouts, cycle_errors

    def test_each_precision_step_resumes_the_distance_scan(
            self, pool3_algo, monkeypatch):
        """Pool circuit 3 tries six factories with three distance solves
        each. Each solve after a factory's first starts at the last d, and
        every d below 17 is skipped because its preparation volume alone
        fails the budget. The solve chooses the layout of each of its 14
        (factory, d) pairs once (26 times when each precision step chose
        its own, 37 when every solve also scans from d=3), and evaluates
        the per-cycle error once at each of the 10 distances 3..21 (112
        times when each use computed its own)."""
        sel, layouts, cycle_errors = self.counted_solve(pool3_algo,
                                                        monkeypatch)
        assert sel.d == 21
        assert len(layouts) == len(set(layouts)) == 14
        assert sorted(cycle_errors) == list(range(3, 22, 2))

    def test_a_second_solve_recomputes_what_it_reads(self, pool3_algo,
                                                     monkeypatch):
        """A second solve of the same algorithm in the same process
        chooses the same layouts and evaluates the same per-cycle errors
        again: no value outlives its solve."""
        first = self.counted_solve(pool3_algo, monkeypatch)
        assert self.counted_solve(pool3_algo, monkeypatch) == first


# --------------------------------------------------------------------------
# Timing model
# --------------------------------------------------------------------------

class TestDecodingCores:
    def test_default_ratio(self):
        assert decoding_cores(1e-6, 25e-9) == 5

    def test_fast_decoder_needs_one_core(self):
        assert decoding_cores(2e-7, 25e-9) == 1
        assert decoding_cores(2.2e-7, 25e-9) == 2


class TestTimingQft3:
    def test_frozen_breakdown(self, qft3_algo, qft3_selection):
        cfg, sel = qft3_selection
        timing = compute_timing(cfg, qft3_algo, sel)
        assert qft3_algo.l_prep_first == 4
        # 8*t*d*(L0_prep + N_seq_consump) = 2.2us * 30
        assert timing.t_consump_total == pytest.approx(6.6e-5, rel=1e-12)
        assert timing.t_distill_delay_total == 0.0
        assert timing.t_prep_delay_total == 0.0
        assert timing.t_handover_inter_total == 0.0  # single module pair
        # 30 consumption tocks, each waiting (d*t_decoder - 8*t*d)
        assert timing.t_decode_delay_total == pytest.approx(2.64e-4, rel=1e-12)
        assert timing.t_ft_total == timing.t_hardware_total  # one repetition

    def test_time_sum_identity(self, qft3_algo, qft3_selection):
        cfg, sel = qft3_selection
        timing = compute_timing(cfg, qft3_algo, sel)
        assert timing.t_hardware_total == (timing.t_consump_total
                                           + timing.t_handover_inter_total
                                           + timing.t_decode_delay_total)

    def test_repetitions_scale_total(self, qft3_algo, qft3_selection):
        cfg, sel = qft3_selection
        reps = ArchConfig(n_algo_reps=17)
        timing = compute_timing(reps, qft3_algo, sel)
        assert timing.t_ft_total == pytest.approx(17 * timing.t_hardware_total)

    def test_fast_decoder_removes_decode_delay(self, qft3_algo, qft3_selection):
        _, sel = qft3_selection
        cfg = ArchConfig(t_decoder=1e-9)
        timing = compute_timing(cfg, qft3_algo, sel)
        assert timing.t_decode_delay_total == 0.0

    def test_negative_components_rejected(self):
        with pytest.raises(EstimationError):
            TimingBreakdown(-1.0, 0, 0, 0, 0, 0, 0)

    def test_distillation_stalls_add_left_to_right(self, qft3_selection,
                                                   monkeypatch):
        """Three widgets whose stalls are 2**54, 1 and 1 factory tocks:
        added in order the small two vanish, while the compensated sum()
        of Python 3.12+ keeps them. The total must not depend on the
        interpreter."""
        cfg, sel = qft3_selection
        layout = sel.layout
        factory_tock = 8.0 * cfg.t * sel.factory.cycles
        shortfalls = (2**54, 1, 1)
        widgets = tuple(
            estimator._WidgetInputs(
                n_sub_steps=0, crossings=Counter(), n_max_rz=0, handover=0,
                n_max_t=layout.l_transfer_bus + k * layout.n_t_factories)
            for k in shortfalls)
        inputs = estimator._TimingInputs(
            widgets=widgets, weights=(1, 1, 1), stitches=(),
            handover=Counter(), crossing=())
        monkeypatch.setattr(CompiledAlgorithm, "timing_inputs",
                            lambda self, layout: inputs)
        in_order = 0.0
        for k in shortfalls:
            in_order += factory_tock * k
        assert in_order != math.fsum(factory_tock * k for k in shortfalls)
        algo = single_widget_algo(generate_qft(3))
        timing = compute_timing(cfg, algo, sel)
        assert timing.t_distill_delay_total == in_order


class TestModuleAssignment:
    def test_per_module_maxima_splits_by_register_block(self):
        cw = widget_record([gate(GateKind.T, 0), gate(GateKind.T, 1),
                            gate(GateKind.T, 2)], n_input=3)
        assert sorted(cw.t_nodes) == [0, 1, 2]
        layout = ModuleLayout(
            d=3, n_per_leg=2, factory=DEFAULT_FACTORIES[0], l_edge=16,
            memory_per_module=2, l_qbus=3, n_row_qbus=1, n_col_t_factories=1,
            n_t_factories=2, l_transfer_bus=20, n_prime=1,
            n_unalloc_logical=0)
        inputs = _widget_inputs(cw, 3, layout)
        assert (inputs.n_max_t, inputs.n_max_rz) == (2, 0)  # nodes 0,1 | 2
        single = ModuleLayout(
            d=3, n_per_leg=1, factory=DEFAULT_FACTORIES[0], l_edge=16,
            memory_per_module=3, l_qbus=3, n_row_qbus=1, n_col_t_factories=1,
            n_t_factories=2, l_transfer_bus=20, n_prime=1,
            n_unalloc_logical=0)
        inputs = _widget_inputs(cw, 3, single)
        assert (inputs.n_max_t, inputs.n_max_rz) == (3, 0)

    def test_handover_crossings_wire_by_wire(self):
        cw = widget_record([gate(GateKind.T, 0), gate(GateKind.T, 1),
                            gate(GateKind.T, 2)], n_input=3)
        assert cw.output_nodes == (3, 4, 5)
        layout = ModuleLayout(
            d=3, n_per_leg=2, factory=DEFAULT_FACTORIES[0], l_edge=16,
            memory_per_module=2, l_qbus=3, n_row_qbus=1, n_col_t_factories=1,
            n_t_factories=2, l_transfer_bus=20, n_prime=1,
            n_unalloc_logical=0)
        # outputs 3,4,5 fold to 0,1,2 -> same module as inputs: 1 seam each
        assert _widget_inputs(cw, 3, layout).handover == 3

    def test_preparation_crossings_divide_spans_by_the_register(self):
        """A preparation tuple spanning d_max slots crosses floor(d_max /
        register size) module boundaries, where the register size is
        ``n_logical_max``, not the slots per module, also on a layout of
        two modules per leg."""
        record = read_record(
            n_nodes=14, n_edges=5, output_text="", t_text="", rz_text="",
            n_consump_steps=0, n_logical=6, n_clifford=0,
            spans_text="7 ;5 2 ;13 6 ;")
        layout = ModuleLayout(
            d=3, n_per_leg=2, factory=DEFAULT_FACTORIES[0], l_edge=16,
            memory_per_module=3, l_qbus=3, n_row_qbus=1, n_col_t_factories=1,
            n_t_factories=2, l_transfer_bus=20, n_prime=1,
            n_unalloc_logical=0)
        inputs = _widget_inputs(record, 6, layout)
        # per sub-step: 7//6 = 1; 5//6 + 2//6 = 0; 13//6 + 6//6 = 3
        # (with the 3 slots per module as divisor: 2; 1; 6)
        assert inputs.n_sub_steps == 3
        assert inputs.crossings == Counter({1: 1, 3: 1})
        assert estimator.pipe_rounds(inputs.crossings, 1) == 4
        assert estimator.pipe_rounds(inputs.crossings, 2) == 3

    def test_pool3_preparation_and_placement_disagree(self, two_module_nested):
        """On pool circuit 3 at two modules per leg (28 slots each, register
        55), the preparation rule counts 10 crossings over the 1916 tuples
        of its distinct widgets, while 799 of those tuples hold nodes in
        both modules by the placement that the maxima and handovers use."""
        _, algo, sel, fresh = two_module_nested
        register = algo.est.n_logical_max
        slots = sel.layout.memory_per_module
        assert (sel.layout.n_per_leg, slots, register) == (2, 28, 55)
        inputs = algo.timing_inputs(sel.layout)
        assert sum(c * n for w in inputs.widgets
                   for c, n in w.crossings.items()) == 10
        tuples = [star_nodes(t) for _, prep in fresh.values()
                  for step in prep.sub_steps for t in step]
        split = [t for t in tuples
                 if len({v % register // slots for v in t}) > 1]
        assert (len(tuples), len(split)) == (1916, 799)


# --------------------------------------------------------------------------
# Cross-module sequences (several modules per leg)
# --------------------------------------------------------------------------

SMALL_FACTORY = TFactory("unit-test-15-to-1", 1.0e-5, 10, 12, 120, 10.0)


def cross_module_config(pipes=1):
    return ArchConfig(n_phys_per_module=5000, p_algo_fail=0.9,
                      t_inter=25e-9, factories=(SMALL_FACTORY,),
                      n_inter_pipes=pipes)


@pytest.fixture(scope="module")
def wide_algo():
    n = 80
    ladder = [gate(GateKind.CZ, i, i + 1) for i in range(n - 1)]
    rotations = [gate(GateKind.Rz, q, angle=0.375) for q in (0, 1, 2)]
    return build_algo(["a", "b", "a"], {"a": rotations, "b": ladder}, n)


@pytest.fixture(scope="module")
def wide_fresh(wide_algo):
    return compile_fresh(wide_algo.plan, cross_module_config().fan_out)


@pytest.fixture(scope="module")
def wide_selection(wide_algo):
    cfg = cross_module_config()
    return cfg, solve_distance_and_factory(cfg, wide_algo.est)


class TestCrossModule:
    def test_memory_spans_several_modules(self, wide_selection):
        _, sel = wide_selection
        assert sel.d == 5
        assert sel.layout.n_per_leg == 3
        assert sel.l_eps == 19
        assert sel.counts == SequentialCounts(114, 38, 29)

    def test_all_delay_components_active(self, wide_algo, wide_selection):
        cfg, sel = wide_selection
        timing = compute_timing(cfg, wide_algo, sel)
        assert timing.t_distill_delay_total == pytest.approx(1.8e-5, rel=1e-12)
        assert timing.t_prep_delay_total == pytest.approx(3e-6, rel=1e-12)
        assert timing.t_handover_inter_total == pytest.approx(1.66e-4, rel=1e-12)
        assert timing.t_hardware_total == (timing.t_consump_total
                                           + timing.t_handover_inter_total
                                           + timing.t_decode_delay_total)

    def test_hardware_time_nonincreasing_in_pipes(self, wide_algo,
                                                  wide_selection):
        _, sel = wide_selection
        times = [compute_timing(cross_module_config(pipes), wide_algo,
                                sel).t_hardware_total
                 for pipes in (1, 2, 3, 4, 8, 16, 32, 64, 86, 128, 1024)]
        assert all(a >= b for a, b in zip(times, times[1:]))
        assert times[0] > times[-1]
        # saturated once one pipe round moves every crossing (max is 86)
        assert times[-3] == times[-2] == times[-1]

    def test_sequence_totals_match_expanded_walk(self, wide_algo, wide_fresh,
                                                 wide_selection):
        cfg, sel = wide_selection
        seq = ["a", "b", "a"]
        per = {w: widget_timing(cfg, *wide_fresh[w], sel,
                                wide_algo.est.n_logical_max)
               for w in wide_algo.plan.widgets}
        distill = sum(per[w].t_distill_delay for w in seq[:-1])
        prep_delay = 0.0
        handover_ops = 0
        for a, b in zip(seq, seq[1:]):
            lag = (per[b].t_prep - per[a].t_consump_intra
                   - per[a].t_distill_delay)
            if lag > 0:
                prep_delay += lag
            crossings = handover_crossings(
                wide_fresh[a][0], wide_fresh[b][0],
                wide_algo.est.n_logical_max, sel.layout)
            if crossings:
                handover_ops += -(-crossings // cfg.n_inter_pipes)
        timing = compute_timing(cfg, wide_algo, sel)
        assert timing.t_distill_delay_total == pytest.approx(distill, rel=1e-12)
        assert timing.t_prep_delay_total == pytest.approx(prep_delay, rel=1e-12)
        assert timing.t_handover_inter_total == pytest.approx(
            8.0 * cfg.t_inter * sel.d * handover_ops, rel=1e-12)
        assert distill > 0 and prep_delay > 0 and handover_ops > 0

    def test_expanded_walk_other_ending(self, wide_algo, wide_fresh):
        """Same distinct widgets, different sequence shape: [a, a, b]."""
        algo = CompiledAlgorithm(
            WidgetPlan(n_input=wide_algo.plan.n_input,
                       widgets=dict(wide_algo.plan.widgets),
                       multiplicity={"a": 2, "b": 1},
                       stitches={("a", "a"): 1, ("a", "b"): 1},
                       first="a", last="b"),
            dict(wide_algo.compiled))
        cfg = cross_module_config()
        sel = solve_distance_and_factory(cfg, algo.est)
        per = {w: widget_timing(cfg, *wide_fresh[w], sel,
                                algo.est.n_logical_max)
               for w in algo.plan.widgets}
        seq = ["a", "a", "b"]
        distill = sum(per[w].t_distill_delay for w in seq[:-1])
        timing = compute_timing(cfg, algo, sel)
        assert timing.t_distill_delay_total == pytest.approx(distill, rel=1e-12)


# --------------------------------------------------------------------------
# Timing inputs built once per layout, against the per-call oracle
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def two_module_nested(tmp_path_factory):
    """Benchmark pool circuit 3 on modules small enough for two per leg."""
    path = tmp_path_factory.mktemp("pool") / "nested3.json"
    path.write_text(benchmark_pool_circuit(3))
    cfg = ArchConfig(n_phys_per_module=250_000)
    algo = compile_plan(load_circuit(path, cfg).plan, cfg)
    return (cfg, algo,
            solve_distance_and_factory(cfg, algo.est),
            compile_fresh(algo.plan, cfg.fan_out))


class ReadCounter(tuple):
    """A tuple that counts how often it is iterated."""

    def __iter__(self):
        self.reads = getattr(self, "reads", 0) + 1
        return super().__iter__()


class TestTimingMatchesPerCallOracle:
    @pytest.mark.parametrize("pipes", range(1, 129))
    def test_wide_algo_every_field_exact(self, wide_algo, wide_fresh,
                                         wide_selection, pipes):
        _, sel = wide_selection
        cfg = cross_module_config(pipes)
        timing = compute_timing(cfg, wide_algo, sel)
        assert dataclasses.asdict(timing) == timing_per_call(
            cfg, wide_algo, sel, wide_fresh)

    def test_nested_two_modules_per_leg_every_field_exact(
            self, two_module_nested):
        cfg, algo, sel, fresh = two_module_nested
        assert (sel.d, sel.layout.n_per_leg) == (21, 2)
        one_module = solve_distance_and_factory(ArchConfig(), algo.est)
        assert one_module.layout.n_per_leg == 1
        # Slow inter-module links make the preparation crossings set lags.
        for t_inter in (cfg.t_inter, 1e-4):
            for pipes in (1, 2, 3, 5, 8, 13, 64):
                pcfg = dataclasses.replace(cfg, n_inter_pipes=pipes,
                                           t_inter=t_inter)
                for s in (sel, one_module):
                    assert (dataclasses.asdict(compute_timing(pcfg, algo, s))
                            == timing_per_call(pcfg, algo, s, fresh))
        slow = dataclasses.replace(cfg, t_inter=1e-4)
        assert (compute_timing(slow, algo, sel).t_prep_delay_total
                > 1e3 * compute_timing(cfg, algo, sel).t_prep_delay_total)
        rows = run_pipe_sweep(algo, cfg, range(1, 65))
        assert rows[-1].normalized_runtime == 0.875638243017282
        assert all(row.t_hardware == timing_per_call(
            dataclasses.replace(cfg, n_inter_pipes=int(row.label)),
            algo, sel, fresh)["t_hardware_total"] for row in rows)

    def test_timing_follows_the_rounds_tuple(self, two_module_nested,
                                             monkeypatch):
        """compute_timing reads the pipe count through
        ``_TimingInputs.pipe_rounds`` alone: handed a changed tuple, its
        handover and preparation-delay terms follow the tuple, not the
        config's pipe count. On this fixture every preparation crossing is
        a single one, so no real pipe count changes those rounds."""
        cfg, algo, sel, _ = two_module_nested
        slow = dataclasses.replace(cfg, t_inter=1e-4)
        *prep, handover = algo.timing_inputs(sel.layout).pipe_rounds(1)
        assert prep and handover
        base = compute_timing(slow, algo, sel)
        timings = []
        for extra in (0, 10, 1000):
            rounds = (*(r + extra for r in prep), 3 * handover + extra)
            monkeypatch.setattr(estimator._TimingInputs, "pipe_rounds",
                                lambda self, n_inter_pipes: rounds)
            timing = compute_timing(slow, algo, sel)
            assert timing.t_handover_inter_total == (
                8.0 * slow.t_inter * sel.d * rounds[-1])
            timings.append(timing)
        assert timings[0].t_prep_delay_total == base.t_prep_delay_total
        assert (base.t_prep_delay_total < timings[1].t_prep_delay_total
                < timings[2].t_prep_delay_total)

    def test_pipe_sweep_reads_each_widget_once(self, wide_algo, monkeypatch):
        """A pipe sweep over one module split decodes each record's node
        lists and each of its sub-steps' spans once, and reads each decoded
        list once: the decodes are ``_widget_inputs``', which
        ``timing_inputs`` runs once per layout."""
        decoded = Counter()
        lists = []
        decode = compiler._decode

        def counting_decode(text):
            decoded[text] += 1
            lists.append(ReadCounter(decode(text)))
            return lists[-1]

        monkeypatch.setattr(compiler, "_decode", counting_decode)
        # a fresh algorithm, so that no layout's inputs are memoized yet
        algo = CompiledAlgorithm(wide_algo.plan, wide_algo.compiled)
        cfg = cross_module_config()
        sel = solve_distance_and_factory(cfg, algo.est)
        assert sel.layout.n_per_leg == 3  # the module split walks nodes
        assert not decoded
        assert len(run_pipe_sweep(algo, cfg, range(1, 65))) == 64
        assert decoded == Counter(
            text for record in algo.compiled.values()
            for text in (record.output_text, record.t_text, record.rz_text,
                         *record.spans_text.split(";")[:-1]))
        assert [nodes.reads for nodes in lists] == [1] * len(lists)
