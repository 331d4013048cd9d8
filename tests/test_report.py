"""Report assembly, engineering formatting, and CSV round-trip."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qre.architecture import EstimationError
from qre.config import ArchConfig
from qre.estimator import TimingBreakdown, compute_timing, solve_distance_and_factory
from qre.pipeline import compile_plan, load_circuit
from qre.report import (
    N_PARAMETERS,
    UNITS,
    ReportRow,
    ResourceReport,
    assemble_report,
    format_si,
    format_time,
    format_value,
    parse_csv,
    render_console,
    render_csv,
)


# --------------------------------------------------------------------------
# Engineering formatting
# --------------------------------------------------------------------------

class TestFormatSi:
    @pytest.mark.parametrize("value, expected", [
        (1_320_000, "1.32M"),
        (1_380_000, "1.38M"),
        (840, "840"),
        (1680, "1.68k"),
        (2520, "2.52k"),
        (8400, "8.4k"),
        (17640, "17.6k"),
        (21840, "21.8k"),
        (46200, "46.2k"),
        (55440, "55.4k"),
        (2073.6, "2.07k"),
        (168e-9, "168n"),
        (84e-9, "84n"),
        (3.528e-6, "3.53µ"),
        (1.0, "1"),
        (11, "11"),
        (0, "0"),
        (2.0, "2"),
        (1.32e12, "1.32T"),
        (999.4, "999"),
    ])
    def test_pins(self, value, expected):
        assert format_si(value) == expected

    def test_rounding_bumps_to_next_suffix(self):
        assert format_si(999_600) == "1M"
        assert format_si(0.9996) == "1"

    def test_negative_keeps_sign(self):
        assert format_si(-8400) == "-8.4k"

    def test_none_is_na(self):
        assert format_si(None) == "n/a"

    @given(st.floats(min_value=1e-14, max_value=9e11))
    def test_three_significant_figures_invertible(self, value):
        text = format_si(value)
        suffixes = {"T": 1e12, "G": 1e9, "M": 1e6, "k": 1e3, "m": 1e-3,
                    "µ": 1e-6, "n": 1e-9, "p": 1e-12, "f": 1e-15}
        scale = suffixes.get(text[-1], 1.0)
        mantissa = float(text[:-1]) if text[-1] in suffixes else float(text)
        assert mantissa * scale == pytest.approx(value, rel=5.1e-3)

    @given(st.floats(min_value=1e-14, max_value=9e11))
    def test_mantissa_never_reaches_1000(self, value):
        text = format_si(value)
        digits = text.rstrip("TGMkmµnpf")
        assert 1.0 <= float(digits) < 1000.0


class TestFormatTime:
    @pytest.mark.parametrize("seconds, expected", [
        (4.09, "4.09s"),
        (35.1, "35.1s"),
        (64.4, "64.4s"),
        (2.03 * 60, "2.03m"),
        (569.4, "9.49m"),
        (10.6 * 60, "10.6m"),
        (6.9 * 3600, "6.9h"),
        (136080.0, "37.8h"),
        (5.06 * 86400, "5.06d"),
        (82.6 * 86400, "82.6d"),
        (7.14 * 365 * 86400, "7.14y"),
        (0.0028, "2.8ms"),
        (90.0, "90s"),
        (59.94, "59.9s"),
        (2 * 86400.0, "2d"),
        (365 * 86400.0, "365d"),
        (2.5 * 365 * 86400.0, "2.5y"),
        (3.3e-4, "330µs"),
        (0.0, "0s"),
    ])
    def test_pins(self, seconds, expected):
        assert format_time(seconds) == expected

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            format_time(-1.0)

    @given(st.floats(min_value=1e-9, max_value=1e10))
    def test_unit_boundaries(self, seconds):
        text = format_time(seconds)
        if seconds >= 2 * 365 * 86400:
            assert text.endswith("y")
        elif seconds >= 2 * 86400:
            assert text.endswith("d")
        elif seconds >= 2 * 3600:
            assert text.endswith("h")
        elif seconds >= 120:
            assert text.endswith("m") and not text.endswith("µm")
        else:
            assert text.endswith("s")


# --------------------------------------------------------------------------
# Row/report validation
# --------------------------------------------------------------------------

class TestReportModel:
    def test_unknown_unit_rejected(self):
        with pytest.raises(EstimationError, match="unknown unit"):
            ReportRow(1, "code_distance", 3, "furlongs")

    def test_wrong_row_count_rejected(self):
        rows = tuple(ReportRow(i, f"p{i}", i, "") for i in range(1, 10))
        with pytest.raises(EstimationError, match="1..49"):
            ResourceReport(rows=rows, provenance={})

    def test_out_of_order_ids_rejected(self):
        rows = list(ReportRow(i, f"p{i}", i, "") for i in range(1, 50))
        rows[0], rows[1] = rows[1], rows[0]
        with pytest.raises(EstimationError):
            ResourceReport(rows=tuple(rows), provenance={})


def synthetic_report(values) -> ResourceReport:
    units = sorted(UNITS)
    rows = tuple(
        ReportRow(i, f"param_{i}", values[i - 1], units[i % len(units)])
        for i in range(1, N_PARAMETERS + 1))
    return ResourceReport(rows=rows, provenance={"config_hash": "abc",
                                                 "circuit_hash": "def",
                                                 "tool_version": "0.1.0"})


class TestCsvRoundTrip:
    def test_header_and_row_count(self):
        report = synthetic_report(list(range(49)))
        lines = render_csv(report).splitlines()
        data = [ln for ln in lines if ln and not ln.startswith("#")]
        assert data[0] == "param_id,param_name,value,unit"
        assert len(data) == 1 + N_PARAMETERS
        ids = [int(ln.split(",", 1)[0]) for ln in data[1:]]
        assert ids == sorted(ids) == list(range(1, 50))

    def test_round_trip_identity(self):
        report = synthetic_report([float(i) / 7 for i in range(49)])
        assert parse_csv(render_csv(report)) == report

    def test_none_round_trips_as_na(self):
        values = list(range(49))
        values[15] = None
        report = synthetic_report(values)
        assert ",n/a," in render_csv(report)
        assert parse_csv(render_csv(report)) == report

    @settings(max_examples=50)
    @given(st.lists(
        st.one_of(
            st.integers(min_value=-10**15, max_value=10**15),
            st.floats(allow_nan=False, allow_infinity=False),
            st.none()),
        min_size=49, max_size=49))
    def test_round_trip_any_values(self, values):
        report = synthetic_report(values)
        back = parse_csv(render_csv(report))
        assert back == report

    def test_int_float_distinction_preserved(self):
        values = list(range(49))
        values[0] = 420
        values[1] = 420.0
        back = parse_csv(render_csv(synthetic_report(values)))
        assert isinstance(back.value(1), int)
        assert isinstance(back.value(2), float)


# --------------------------------------------------------------------------
# Assembly from a real run
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def qft3_estimate(tmp_path_factory):
    import qre.circuit as qc
    path = tmp_path_factory.mktemp("rpt") / "qft3.qasm"
    path.write_text(qc.emit_qasm(qc.generate_qft(3), 3))
    config = ArchConfig()
    loaded = load_circuit(path, config)
    algo = compile_plan(loaded.plan, config)
    sel = solve_distance_and_factory(config, algo.est)
    timing = compute_timing(config, algo, sel)
    report = assemble_report(config, algo, sel, timing,
                             {"tool_version": "0.1.0"})
    (gates,) = loaded.plan.widgets.values()
    n_clifford = qc.transpile(gates).n_Clifford_init
    return config, algo, sel, timing, n_clifford, report


class TestAssembly:
    def test_exactly_49_rows_ascending(self, qft3_estimate):
        report = qft3_estimate[-1]
        assert [r.id for r in report.rows] == list(range(1, 50))
        assert all(r.unit in UNITS for r in report.rows)

    def test_operating_point_rows(self, qft3_estimate):
        config, algo, sel, timing, n_clifford, report = qft3_estimate
        assert report.value(1) == sel.d == 11
        assert report.value(2) == algo.est.n_logical_max
        assert report.value(15) == 3
        assert report.value(16) == sel.epsilon
        assert report.value(17) == sel.counts.n_tot_t
        assert report.value(19) == algo.est.n_Rz_init
        assert report.value(20) == algo.est.n_T_init
        assert report.value(21) == n_clifford
        assert report.value(25) == 1 and report.value(26) == 1
        assert report.value(36) == 5
        assert report.value(40) == pytest.approx(840.0, rel=1e-12)
        assert report.value(41) == pytest.approx(168e-9, rel=1e-12)
        assert report.value(42) == timing.t_consump_total
        assert report.value(47) == pytest.approx(3.3e-4, rel=1e-12)

    def test_patch_and_module_identities(self, qft3_estimate):
        _, _, sel, _, _, report = qft3_estimate
        patch = 2 * sel.d ** 2
        assert report.value(5) == patch * report.value(4)
        assert report.value(7) == report.value(5)
        assert report.value(9) == patch * report.value(8)
        assert report.value(14) == (report.value(5) + report.value(7)
                                    + report.value(9) + report.value(11))
        assert (report.value(32) + report.value(34)
                == report.value(12) * report.value(31))
        assert report.value(33) == patch * report.value(32)
        assert report.value(35) == patch * report.value(34)
        assert report.value(30) >= report.value(33) + report.value(35)

    def test_count_identities(self, qft3_estimate):
        _, algo, _, _, _, report = qft3_estimate
        assert report.value(18) == math.ceil(report.value(17)
                                             / report.value(2))
        assert report.value(22) == algo.est.n_nodes_total
        assert report.value(23) == algo.est.consump_steps_total
        assert report.value(24) == algo.est.l_prep_total

    def test_time_power_energy_identities(self, qft3_estimate):
        config, _, _, timing, _, report = qft3_estimate
        assert report.value(47) == (report.value(42) + report.value(43)
                                    + report.value(46))
        assert report.value(48) == config.n_algo_reps * report.value(47)
        assert report.value(37) == (report.value(30)
                                    * config.qubit_pitch ** 2)
        assert report.value(38) == (config.couplers_per_qubit
                                    * report.value(30))
        assert report.value(39) == 100.0 * report.value(36)
        wall = (100.0 * report.value(36) + 500.0 * report.value(40)
                + 1e9 * report.value(41))
        assert report.value(49) == pytest.approx(
            wall * report.value(48) / 3600.0, rel=1e-12)

    def test_inconsistent_timing_rejected(self, qft3_estimate):
        config, algo, sel, timing, _, _ = qft3_estimate
        broken = TimingBreakdown(
            t_consump_total=timing.t_consump_total,
            t_distill_delay_total=timing.t_distill_delay_total,
            t_prep_delay_total=timing.t_prep_delay_total,
            t_handover_inter_total=timing.t_handover_inter_total,
            t_decode_delay_total=timing.t_decode_delay_total,
            t_hardware_total=timing.t_hardware_total * 2,
            t_ft_total=timing.t_ft_total)
        with pytest.raises(EstimationError, match="wall time"):
            assemble_report(config, algo, sel, broken)

    def test_provenance_carried(self, qft3_estimate):
        report = qft3_estimate[-1]
        assert report.provenance == {"tool_version": "0.1.0"}


class TestRendering:
    def test_console_has_all_rows_and_footer(self, qft3_estimate):
        report = qft3_estimate[-1]
        text = render_console(report)
        for row in report.rows:
            assert row.name in text
        assert "total energy:" in text
        assert text.count("J)") == 1

    def test_time_rows_use_time_units(self, qft3_estimate):
        report = qft3_estimate[-1]
        assert format_value(report[47]) == "330µs"
        assert format_value(report[27]) == "11µs"

    def test_precision_rendered_scientific(self, qft3_estimate):
        report = qft3_estimate[-1]
        rendered = format_value(report[16])
        assert "e-" in rendered
        assert float(rendered) == pytest.approx(report.value(16), rel=1e-2)

    def test_na_for_rotation_free(self):
        row = ReportRow(16, "synthesis_precision", None, "")
        assert format_value(row) == "n/a"
