"""Tests for module layout computation and the T-factory catalog."""

import random

import pytest

from oracles import layout_oracle, modules_per_leg_by_scan
from qre.architecture import (
    DEFAULT_FACTORIES,
    TFactory,
    choose_modules_per_leg,
    compute_layout,
    factory_tiles,
    interconnect_count,
)

FIRST = DEFAULT_FACTORIES[0]


class TestFactoryTable:
    def test_seven_rows_in_quality_order(self):
        assert len(DEFAULT_FACTORIES) == 7
        p_outs = [f.p_out for f in DEFAULT_FACTORIES]
        assert p_outs == sorted(p_outs, reverse=True)
        assert p_outs[0] == 4.5e-8 and p_outs[-1] == 9.0e-23

    def test_20to4_layers(self):
        multipliers = [f.output_multiplier() for f in DEFAULT_FACTORIES]
        assert multipliers == [1, 4, 4, 1, 1, 1, 1]

    def test_first_row_values(self):
        assert (FIRST.l_width, FIRST.l_length) == (64, 72)
        assert FIRST.q_phys == 4620
        assert FIRST.cycles == 42.6

    def test_validation(self):
        with pytest.raises(ValueError):
            TFactory("bad", 1.5, 1, 1, 10, 10.0)
        with pytest.raises(ValueError):
            TFactory("bad", 0.5, 1, 1, 0, 10.0)


class TestFactoryTiles:
    def test_worked_values(self):
        assert factory_tiles(64, 17) == 3
        assert factory_tiles(72, 17) == 3

    def test_matches_float_ceiling(self):
        import math
        for length in (1, 5, 64, 72, 155, 234, 387, 696):
            for d in (3, 5, 7, 13, 17, 25, 49):
                assert factory_tiles(length, d) == math.ceil(
                    length / (math.sqrt(2) * d))


class TestComputeLayout:
    def test_worked_example(self):
        lay = compute_layout(10 ** 6, 100, 17, FIRST, 1)
        assert lay is not None
        assert lay.l_edge == 41
        assert lay.l_qbus == 6
        assert lay.n_row_qbus == 16
        assert lay.n_col_t_factories == 8
        assert lay.n_t_factories == 104
        assert lay.l_transfer_bus == 475
        assert lay.n_prime == 16
        assert lay.memory_per_module == 100

    def test_qbus_clamp_at_tiny_memory(self):
        lay = compute_layout(10 ** 6, 1, 17, FIRST, 1)
        assert lay is not None
        assert lay.l_qbus == 3
        assert lay.n_row_qbus == 0  # floor(2/3); effective feed clamps to 1
        assert lay.n_prime_effective == 1

    def test_oversized_memory_is_infeasible(self):
        assert compute_layout(10 ** 6, 10 ** 5, 17, FIRST, 1) is None

    def test_tiny_module_is_infeasible(self):
        assert compute_layout(1000, 10, 17, FIRST, 1) is None

    def test_allocation_identity(self):
        lay = compute_layout(10 ** 6, 100, 17, FIRST, 1)
        assert lay.n_alloc_logical + lay.n_unalloc_logical == lay.l_edge ** 2

    def test_l_edge_nonincreasing_in_d(self):
        edges = []
        for d in range(3, 40, 2):
            lay = compute_layout(10 ** 6, 10, d, FIRST, 1)
            if lay is not None:
                edges.append(lay.l_edge)
        assert edges == sorted(edges, reverse=True)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            compute_layout(10 ** 6, 100, 4, FIRST, 1)
        with pytest.raises(ValueError):
            compute_layout(10 ** 6, 0, 17, FIRST, 1)

    def test_randomized_agreement_with_oracle(self):
        rng = random.Random(20260814)
        checked = 0
        for _ in range(200):
            n_phys = rng.randrange(10 ** 4, 5 * 10 ** 6)
            d = rng.randrange(3, 31, 2)
            n_log = rng.randrange(1, 3000)
            n_per_leg = rng.randrange(1, 5)
            factory = rng.choice(DEFAULT_FACTORIES)
            lay = compute_layout(n_phys, n_log, d, factory, n_per_leg)
            want = layout_oracle(n_phys, n_log, d, factory, n_per_leg)
            if want is None:
                assert lay is None, (n_phys, d, n_log, n_per_leg, factory.name)
                continue
            assert lay is not None, (n_phys, d, n_log, n_per_leg, factory.name)
            for key, value in want.items():
                assert getattr(lay, key) == value, key
            checked += 1
        assert checked > 50  # plenty of feasible cases exercised


class TestChooseModulesPerLeg:
    def test_tiny_memory_needs_one_module_per_leg(self):
        lay = choose_modules_per_leg(10 ** 6, 10, 17, FIRST)
        assert lay.n_per_leg == 1
        assert lay.n_modules == 2

    def test_growth_splits_memory(self):
        # find the single-module capacity boundary by scanning
        base = None
        for n_log in range(100, 40000, 100):
            if compute_layout(10 ** 6, n_log, 17, FIRST, 1) is None:
                base = n_log
                break
        assert base is not None
        lay = choose_modules_per_leg(10 ** 6, base, 17, FIRST)
        assert lay.n_per_leg == 2
        assert compute_layout(10 ** 6, base, 17, FIRST, 1) is None

    def test_impossible_configuration_returns_none(self):
        assert choose_modules_per_leg(2000, 5, 17, FIRST) is None

    def test_feasible_layout_returned_is_first(self):
        lay = choose_modules_per_leg(10 ** 6, 5000, 17, FIRST)
        for smaller in range(1, lay.n_per_leg):
            assert compute_layout(10 ** 6, 5000, 17, FIRST, smaller) is None

    def test_randomized_agreement_with_exhaustive_scan(self):
        """The scan that stops once the one-qubit-memory layout fails
        returns what trying every n_per_leg up to n_logical returns."""
        rng = random.Random(20261018)
        kinds = {"one": 0, "several": 0, "none": 0}
        for trial in range(300):
            args = (int(10 ** rng.uniform(3.5, 6.7)),
                    int(10 ** rng.uniform(0, 4)),
                    rng.randrange(3, 42, 2), rng.choice(DEFAULT_FACTORIES))
            want = modules_per_leg_by_scan(*args)
            if want is None:
                assert choose_modules_per_leg(*args) is None, (trial, args)
                kinds["none"] += 1
                continue
            assert choose_modules_per_leg(*args) == want, (trial, args)
            kinds["one" if want.n_per_leg == 1 else "several"] += 1
        assert min(kinds.values()) >= 30, kinds


class TestInterconnects:
    def test_examples(self):
        assert interconnect_count(1, 1) == 1
        assert interconnect_count(3, 1) == 7
        assert interconnect_count(3, 2) == 14
