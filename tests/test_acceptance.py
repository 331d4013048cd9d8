"""Acceptance gate: the eleven end-to-end criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they pass.
Each criterion checks the package against independently written oracles
(tests/oracles.py), published anchor values, or property suites, within the
stated runtime budget.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

import oracles
from oracles import gate
from qre._sim import verify_unitarity
from qre.architecture import DEFAULT_FACTORIES, TFactory, compute_layout
from qre.circuit import GateKind as G
from qre.circuit import emit_qasm, generate_qft, invert_gates, transpile
from qre.compiler import compile_widget
from qre.config import ArchConfig
from qre.estimator import (
    SequentialCounts,
    _Scan,
    _solve_distance,
    gate_synthesis_length,
    logical_error_per_cycle,
    solve_distance_and_factory,
    spacetime_lhs,
    budget_rhs,
)
from qre.pipeline import compile_plan, run_estimate, run_pipe_sweep
from qre.report import format_si
from qre.scalefit import ScalingSample, fit_scaling_law
from qre.thermal import DEFAULT_THERMAL, module_dissipation
from qre.widgetizer import WidgetPlan


def _conclude(num: int, name: str, started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"criterion {num} took {elapsed:.2f}s >= {budget}s"
    print(f"ACCEPTANCE {num:2d} ({name}): PASS  [{elapsed:.2f}s]")


def _fail_line(num: int, name: str):
    print(f"ACCEPTANCE {num:2d} ({name}): FAIL")


# --------------------------------------------------------------------------
# 1. Layout oracle equivalence
# --------------------------------------------------------------------------

def test_criterion_1_layout_oracle():
    name = "layout oracle equivalence"
    start = time.perf_counter()
    try:
        layout = compute_layout(1_000_000, 100, 17, DEFAULT_FACTORIES[0], 1)
        assert layout is not None
        assert (layout.l_edge, layout.l_qbus, layout.n_row_qbus,
                layout.n_col_t_factories, layout.n_t_factories,
                layout.l_transfer_bus, layout.n_prime) == (41, 6, 16, 8,
                                                           104, 475, 16)

        rng = np.random.default_rng(20260814)
        checked = 0
        for _ in range(200):
            n_phys = int(rng.integers(20_000, 5_000_000))
            d = int(rng.integers(1, 18)) * 2 + 1
            n_log = int(rng.integers(1, 3000))
            factory = DEFAULT_FACTORIES[int(rng.integers(len(DEFAULT_FACTORIES)))]
            n_per_leg = int(rng.integers(1, 7))
            ours = compute_layout(n_phys, n_log, d, factory, n_per_leg)
            ref = oracles.layout_oracle(n_phys, n_log, d, factory, n_per_leg)
            if ref is None:
                assert ours is None
            else:
                assert ours is not None
                for field, want in ref.items():
                    assert getattr(ours, field) == want, (
                        f"{field}: {getattr(ours, field)} != {want} at "
                        f"(n_phys={n_phys}, d={d}, n_log={n_log}, "
                        f"factory={factory.name}, legs={n_per_leg})")
            checked += 1
        assert checked == 200
    except BaseException:
        _fail_line(1, name)
        raise
    _conclude(1, name, start, budget=1.0)


# --------------------------------------------------------------------------
# 2. Distance-solver minimality
# --------------------------------------------------------------------------

def test_criterion_2_distance_minimality():
    name = "distance-solver minimality"
    start = time.perf_counter()
    try:
        # worked instance
        cfg = ArchConfig()
        counts = SequentialCounts(10, 10, 10)
        worked = (1, 1, 1, 10, counts, 42.6)

        def lhs(d):
            p_c = logical_error_per_cycle(cfg.p, d, cfg.kappa, cfg.p_thresh)
            return spacetime_lhs(d, p_c, *worked)

        assert lhs(7) < budget_rhs(cfg.p_algo_fail) <= lhs(5)

        rng = np.random.default_rng(17)
        n_solved = 0
        for trial in range(50):
            p = 0.012 if trial % 10 == 9 else 1e-3
            paf = float(rng.uniform(0.01, 0.9))
            cfg = ArchConfig(p=p, p_algo_fail=paf,
                             n_phys_per_module=int(rng.choice([10 ** 6,
                                                               10 ** 7])))
            # n_logical, l_prep_total, factory, l_eps, n_T_init, n_Rz_init
            args = (int(rng.integers(1, 500)), int(rng.integers(1, 2000)),
                    DEFAULT_FACTORIES[int(rng.integers(len(DEFAULT_FACTORIES)))],
                    int(rng.integers(0, 60)), int(rng.integers(0, 5000)),
                    int(rng.integers(0, 200)))

            n_logical, l_prep_total, factory, *rest = args
            scan = _Scan(dataclasses.replace(cfg, factories=(factory,)),
                         n_logical, l_prep_total)
            solved = _solve_distance(scan, 0, *rest)
            ours = None if isinstance(solved, str) else solved[0]
            ref = oracles.min_distance_sweep(
                oracles.layout_aware_lhs(cfg, *args), paf)
            assert ours == ref, f"trial {trial}: {ours} != {ref}"
            n_solved += not isinstance(solved, str)
        assert n_solved >= 40, n_solved
    except BaseException:
        _fail_line(2, name)
        raise
    _conclude(2, name, start, budget=10.0)


# --------------------------------------------------------------------------
# 3. Verification protocol (QFT3 / Toffoli3, 100 seeds each)
# --------------------------------------------------------------------------

def test_criterion_3_verification_protocol():
    name = "QFT3/Toffoli3 verification"
    start = time.perf_counter()
    try:
        for gates in (generate_qft(3), [gate(G.CCX, 0, 1, 2)]):
            cw = compile_widget(transpile(gates), n_input=3)
            inverse = invert_gates(gates)
            for seed in range(100):
                fidelity = verify_unitarity([cw], inverse, seed=seed)
                assert fidelity >= 1 - 1e-9, (
                    f"seed {seed}: fidelity {fidelity}")
    except BaseException:
        _fail_line(3, name)
        raise
    _conclude(3, name, start, budget=30.0)


# --------------------------------------------------------------------------
# 4. Power reproduction (published 3-significant-figure values)
# --------------------------------------------------------------------------

def test_criterion_4_power_reproduction():
    name = "power reproduction"
    start = time.perf_counter()
    try:
        p_4k, p_20mk = module_dissipation(DEFAULT_THERMAL, 1_000_000)
        modules = (2, 4, 6, 20, 42, 52, 110, 132)
        want_4k = ("840", "1.68k", "2.52k", "8.4k", "17.6k", "21.8k",
                   "46.2k", "55.4k")
        want_20mk = ("168n", "336n", "504n", "1.68µ", "3.53µ", "4.37µ",
                     "9.24µ", "11.1µ")
        for m, w4, w20 in zip(modules, want_4k, want_20mk):
            assert format_si(m * p_4k) == w4, (m, format_si(m * p_4k), w4)
            assert format_si(m * p_20mk) == w20, (m, format_si(m * p_20mk),
                                                  w20)
    except BaseException:
        _fail_line(4, name)
        raise
    _conclude(4, name, start, budget=1.0)


# --------------------------------------------------------------------------
# 5. Scaling fit (noiseless exact; noisy median within 2%)
# --------------------------------------------------------------------------

def test_criterion_5_scaling_fit():
    name = "scaling-law fit"
    start = time.perf_counter()
    try:
        kappa, p_thresh = 0.009, 0.016
        grid = [(p, d) for p in (5e-4, 1e-3, 2e-3, 4e-3, 8e-3)
                for d in (3, 5, 7, 9)]

        clean = [ScalingSample(p, d, kappa * (p / p_thresh) ** ((d + 1) / 2))
                 for p, d in grid]
        fit = fit_scaling_law(clean)
        assert abs(fit.kappa - kappa) / kappa < 1e-9
        assert abs(fit.p_thresh - p_thresh) / p_thresh < 1e-9

        rng = np.random.default_rng(99)
        kappas, thresholds = [], []
        for _ in range(100):
            noisy = []
            for p, d in grid:  # 4 draws per grid point -> 80 samples
                truth = kappa * (p / p_thresh) ** ((d + 1) / 2)
                for _ in range(4):
                    noise = float(rng.lognormal(0.0, 0.01))
                    noisy.append(ScalingSample(p, d, truth * noise))
            fit = fit_scaling_law(noisy)
            kappas.append(fit.kappa)
            thresholds.append(fit.p_thresh)
        assert abs(np.median(kappas) - kappa) / kappa < 0.02
        assert abs(np.median(thresholds) - p_thresh) / p_thresh < 0.02
    except BaseException:
        _fail_line(5, name)
        raise
    _conclude(5, name, start, budget=5.0)


# --------------------------------------------------------------------------
# 6. Synthesis length anchors
# --------------------------------------------------------------------------

def test_criterion_6_synthesis_length():
    name = "synthesis-length anchors"
    start = time.perf_counter()
    try:
        cfg = ArchConfig()
        assert gate_synthesis_length(1e-10, cfg.c0, cfg.c1) == 28
        assert gate_synthesis_length(2.0 ** -10, c0=3.0, c1=0.0) == 30
    except BaseException:
        _fail_line(6, name)
        raise
    _conclude(6, name, start, budget=1.0)


# --------------------------------------------------------------------------
# 7. Factory dominance (row scan against the table's own data)
# --------------------------------------------------------------------------

def test_criterion_7_factory_dominance():
    name = "factory dominance"
    start = time.perf_counter()
    try:
        # back-solve kappa so d=3 yields a memory error rate of exactly 1e-9
        forced = 1e-9
        kappa = (1 - (1 - forced) ** (1 / 3)) * (0.016 / 1e-3) ** 2
        cfg = ArchConfig(kappa=kappa)
        wc_gates = [gate(G.T, 0), gate(G.CX, 0, 1)]
        plan = WidgetPlan.from_sequence(2, {"wc": wc_gates}, ["wc"])
        sel = solve_distance_and_factory(cfg, compile_plan(plan, cfg).est)

        assert sel.d == 3
        assert sel.p_logical == pytest.approx(forced, rel=1e-9)
        expected = next(f for f in cfg.factories if f.p_out < sel.p_logical)
        assert sel.factory == expected
        skipped = [f for f in cfg.factories
                   if cfg.factories.index(f) < cfg.factories.index(expected)]
        assert all(f.p_out >= sel.p_logical for f in skipped)
    except BaseException:
        _fail_line(7, name)
        raise
    _conclude(7, name, start, budget=5.0)


# --------------------------------------------------------------------------
# 8. Stitching identity on randomized sequences
# --------------------------------------------------------------------------

def _random_widget(rng, n: int) -> list:
    kinds_1q = [G.H, G.S, G.X, G.Z, G.T, G.Tdg]
    gates = []
    for _ in range(int(rng.integers(3, 13))):
        roll = rng.random()
        if roll < 0.55:
            gates.append(gate(kinds_1q[int(rng.integers(len(kinds_1q)))],
                              int(rng.integers(n))))
        elif roll < 0.85:
            a, b = rng.choice(n, size=2, replace=False)
            gates.append(gate(G.CZ, int(a), int(b)))
        else:
            gates.append(gate(G.Rz, int(rng.integers(n)),
                              angle=float(rng.uniform(0.1, 1.4))))
    return gates


def test_criterion_8_stitching_identity():
    name = "stitching identity"
    start = time.perf_counter()
    try:
        rng = np.random.default_rng(8)
        n = 4
        for _ in range(20):
            k = int(rng.integers(1, 4))
            widgets = {f"w{i}": _random_widget(rng, n) for i in range(k)}
            mults = [int(rng.integers(1, 4)) for _ in range(k)]
            plan = WidgetPlan.from_sequence(
                n, widgets, [w for w, m in zip(widgets, mults)
                             for _ in range(m)])
            algo = compile_plan(plan, ArchConfig())
            compiled = [algo.compiled[w] for w in widgets]
            est = algo.est
            n_widgets = sum(mults)
            assert est.n_nodes_total == (
                sum(m * cw.n_nodes for cw, m in zip(compiled, mults))
                + (n_widgets - 1) * n)
            assert est.n_logical_max == max(cw.n_logical for cw in compiled)
    except BaseException:
        _fail_line(8, name)
        raise
    _conclude(8, name, start, budget=10.0)


# --------------------------------------------------------------------------
# 9. Pipe-sweep monotonicity with cross-module I/O
# --------------------------------------------------------------------------

def test_criterion_9_pipe_sweep_monotonic():
    name = "pipe-sweep monotonicity"
    start = time.perf_counter()
    try:
        n = 80
        ladder = [gate(G.CZ, i, i + 1) for i in range(n - 1)]
        rotations = [gate(G.Rz, q, angle=0.375) for q in (0, 1, 2)]
        plan = WidgetPlan.from_sequence(n, {"a": rotations, "b": ladder},
                                        ["a", "b", "a"])
        algo = compile_plan(plan, ArchConfig())

        small_factory = TFactory("unit-test-15-to-1", 1.0e-5, 10, 12, 120,
                                 10.0)
        cfg = ArchConfig(n_phys_per_module=5000, p_algo_fail=0.9,
                         t_inter=25e-9, factories=(small_factory,))
        pipe_values = [1, 2, 3, 4, 6, 8, 16, 32, 64, 86, 100, 128]
        rows = run_pipe_sweep(algo, cfg, pipe_values)
        times = [r.t_hardware for r in rows]

        assert all(a >= b for a, b in zip(times, times[1:])), times
        assert times[0] > times[-1]  # cross-module I/O is actually nonzero
        # the largest per-stitch crossing count is 86; beyond it, no change
        plateau = [t for v, t in zip(pipe_values, times) if v >= 86]
        assert len(set(plateau)) == 1
        assert rows[0].normalized_runtime == 1.0
    except BaseException:
        _fail_line(9, name)
        raise
    _conclude(9, name, start, budget=30.0)


# --------------------------------------------------------------------------
# 10. Transpiler unitarity over the full gate alphabet
# --------------------------------------------------------------------------

def _random_full_alphabet_circuit(rng, n: int = 3) -> list:
    one_q = [G.H, G.S, G.Sdg, G.X, G.Y, G.Z, G.T, G.Tdg]
    two_q = [G.CX, G.CZ, G.SWAP]
    gates = []
    for _ in range(int(rng.integers(1, 21))):
        roll = rng.random()
        if roll < 0.4:
            gates.append(gate(one_q[int(rng.integers(len(one_q)))],
                              int(rng.integers(n))))
        elif roll < 0.6:
            a, b = rng.choice(n, size=2, replace=False)
            gates.append(gate(two_q[int(rng.integers(len(two_q)))],
                              int(a), int(b)))
        elif roll < 0.75:
            gates.append(gate(G.Rz, int(rng.integers(n)),
                              angle=float(rng.uniform(-2 * math.pi,
                                                      2 * math.pi))))
        elif roll < 0.9:
            a, b = rng.choice(n, size=2, replace=False)
            gates.append(gate(G.CPhase, int(a), int(b),
                              angle=float(rng.uniform(-2 * math.pi,
                                                      2 * math.pi))))
        else:
            a, b, c = rng.permutation(n)[:3]
            gates.append(gate(G.CCX, int(a), int(b), int(c)))
    return gates


def test_criterion_10_transpiler_unitarity():
    name = "transpiler unitarity"
    start = time.perf_counter()
    try:
        rng = np.random.default_rng(10)
        for trial in range(500):
            gates = _random_full_alphabet_circuit(rng)
            if not gates:
                continue
            original = oracles.oracle_unitary(gates, 3)
            transpiled = oracles.oracle_unitary(transpile(gates).gates, 3)
            assert oracles.same_up_to_phase(original, transpiled, 1e-10), (
                f"trial {trial}: {gates}")
    except BaseException:
        _fail_line(10, name)
        raise
    _conclude(10, name, start, budget=60.0)


# --------------------------------------------------------------------------
# 11. End-to-end smoke on QFT-4
# --------------------------------------------------------------------------

def test_criterion_11_end_to_end_qft4(tmp_path):
    name = "end-to-end QFT-4"
    start = time.perf_counter()
    try:
        path = tmp_path / "qft4.qasm"
        path.write_text(emit_qasm(generate_qft(4), 4))
        result = run_estimate(path)
        report = result.report

        assert len(report.rows) == 49
        assert [r.id for r in report.rows] == list(range(1, 50))
        # allocation identity: every module's grid is fully accounted for
        assert (report.value(32) + report.value(34)
                == report.value(12) * report.value(31))
        # time-sum identity: the wall clock is exactly its printed parts
        assert report.value(47) == (report.value(42) + report.value(43)
                                    + report.value(46))
        # per-module aggregate is the sum of its four allocations
        assert report.value(14) == (report.value(5) + report.value(7)
                                    + report.value(9) + report.value(11))
        assert report.value(48) > 0 and report.value(49) > 0
    except BaseException:
        _fail_line(11, name)
        raise
    _conclude(11, name, start, budget=10.0)
