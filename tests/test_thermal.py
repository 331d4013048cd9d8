"""Tests for cryogenic heat loads, decoding power, and total energy."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qre.thermal import (
    DEFAULT_LINES,
    DEFAULT_THERMAL,
    LineClass,
    ThermalConfig,
    module_dissipation,
    total_energy,
)

MODULE_QUBITS = 1_000_000


class TestDefaults:
    def test_line_census(self):
        assert sum(c.per_qubit for c in DEFAULT_LINES) == pytest.approx(4.2)
        assert {c.name for c in DEFAULT_LINES} == {
            "xy_control", "flux_bias", "coupler_bias", "readout", "hemt"}

    def test_efficiencies(self):
        assert DEFAULT_THERMAL.eta_4k == 500.0
        assert DEFAULT_THERMAL.eta_20mk == 1.0e9
        assert DEFAULT_THERMAL.p_decoding_core == 100.0


class TestModuleDissipation:
    def test_million_qubit_calibration(self):
        p_4k, p_20mk = module_dissipation(DEFAULT_THERMAL, MODULE_QUBITS)
        assert p_4k == pytest.approx(420.0, rel=1e-12)
        assert p_20mk == pytest.approx(84e-9, rel=1e-12)

    @pytest.mark.parametrize("n_modules,watts_4k", [
        (2, 840.0), (4, 1680.0), (6, 2520.0), (20, 8400.0), (42, 17640.0),
        (52, 21840.0), (110, 46200.0), (132, 55440.0),
    ])
    def test_machine_scale_totals(self, n_modules, watts_4k):
        p_4k, p_20mk = module_dissipation(DEFAULT_THERMAL, MODULE_QUBITS)
        assert n_modules * p_4k == pytest.approx(watts_4k, rel=1e-12)
        assert n_modules * p_20mk == pytest.approx(n_modules * 84e-9, rel=1e-12)

    def test_zero_qubits(self):
        assert module_dissipation(DEFAULT_THERMAL, 0) == (0.0, 0.0)

    @given(st.integers(0, 10 ** 8))
    def test_linear_in_qubits(self, n):
        one_4k, one_20mk = module_dissipation(DEFAULT_THERMAL, 1)
        p_4k, p_20mk = module_dissipation(DEFAULT_THERMAL, n)
        assert p_4k == pytest.approx(n * one_4k)
        assert p_20mk == pytest.approx(n * one_20mk)

    def test_loads_add_left_to_right(self):
        """1e16 + 1 + 1 is 1e16 added in order, but 1e16 + 2 under the
        compensated sum() of Python 3.12+: the report must not depend on
        the interpreter."""
        big = ThermalConfig(lines=(
            LineClass("big", 1.0, 1e16, 1e16),
            LineClass("one", 1.0, 1.0, 1.0),
            LineClass("two", 1.0, 1.0, 1.0),
        ))
        assert module_dissipation(big, 1) == (1e16, 1e16)

    def test_custom_lines(self):
        custom = ThermalConfig(lines=(
            LineClass("only", 3.0, 1e-3, 1e-12),))
        assert module_dissipation(custom, 1000) == pytest.approx(
            (3.0, 3e-9))


class TestTotalEnergy:
    def test_one_hour_plugin_example(self):
        # 2 modules (840 W / 168 nW), 5 decoding cores, one hour:
        # 100*5 + 500*840 + 1e9*168e-9 = 420,668 W of wall power.
        joules = total_energy(840.0, 168e-9, cores=5, t_ft_total=3600.0)
        assert joules == pytest.approx(420668.0 * 3600.0, rel=1e-9)

    def test_zero_time_zero_energy(self):
        assert total_energy(840.0, 168e-9, 5, 0.0) == 0.0

    @given(st.floats(1e-6, 1e6), st.floats(1e-18, 1e-3),
           st.integers(1, 100), st.floats(1e-9, 1e9))
    def test_linear_in_time(self, p_4k, p_20mk, cores, t_ft):
        one = total_energy(p_4k, p_20mk, cores, 1.0)
        assert total_energy(p_4k, p_20mk, cores, t_ft) == pytest.approx(
            one * t_ft)

    def test_cryo_amplification_dominates(self):
        # the 20 mK stage is nano-watts but costs a billion-fold to cool
        assert total_energy(0.0, 84e-9, cores=0,
                            t_ft_total=1.0) == pytest.approx(84.0)


class TestValidation:
    def test_negative_line_entry_rejected(self):
        with pytest.raises(ValueError):
            LineClass("bad", -1.0, 1e-4, 1e-14)
        with pytest.raises(ValueError):
            LineClass("bad", 1.0, -1e-4, 1e-14)

    def test_efficiency_must_exceed_unity(self):
        with pytest.raises(ValueError):
            ThermalConfig(eta_4k=0.5)
        with pytest.raises(ValueError):
            ThermalConfig(eta_20mk=1.0)

    def test_core_power_nonnegative(self):
        with pytest.raises(ValueError):
            ThermalConfig(p_decoding_core=-1.0)
