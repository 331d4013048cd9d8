"""Tests for configuration loading and validation."""

import math
import re
import warnings
from dataclasses import replace

import pytest

from qre.architecture import DEFAULT_FACTORIES, DEFAULT_FACTORIES_P, TFactory
from qre.circuit import emit_qasm, generate_qft
from qre.config import ArchConfig, ConfigError, config_from_mapping, load_config
from qre.thermal import DEFAULT_THERMAL


class TestDefaults:
    def test_field_defaults(self):
        cfg = ArchConfig()
        assert cfg.p == 1e-3
        assert cfg.t == 25e-9
        assert cfg.n_phys_per_module == 1_000_000
        assert (cfg.kappa, cfg.p_thresh) == (0.009, 0.016)
        assert cfg.t_inter == 1e-6 and cfg.t_decoder == 1e-6
        assert (cfg.c0, cfg.c1) == (0.57, 8.83)
        assert cfg.epsilon is None
        assert cfg.p_algo_fail == 0.05
        assert cfg.n_inter_pipes == 1
        assert cfg.factories is DEFAULT_FACTORIES
        assert cfg.thermal == DEFAULT_THERMAL

    def test_none_path_gives_defaults(self):
        assert load_config(None) == ArchConfig()

    def test_empty_mapping_gives_defaults(self):
        assert config_from_mapping(None) == ArchConfig()
        assert config_from_mapping({}) == ArchConfig()


class TestHash:
    def test_equal_configs_hash_equal(self):
        assert hash(ArchConfig()) == hash(config_from_mapping({}))
        cfg = ArchConfig(n_inter_pipes=3, epsilon=1e-9)
        assert hash(cfg) == hash(replace(ArchConfig(), n_inter_pipes=3,
                                         epsilon=1e-9))
        assert {cfg: 1}[replace(cfg)] == 1

    def test_replace_rehashes(self):
        cfg = ArchConfig()
        hash(cfg)
        for change in ({"n_inter_pipes": 2}, {"kappa": 0.56},
                       {"factories": DEFAULT_FACTORIES[:1]}):
            other = replace(cfg, **change)
            assert other != cfg and hash(other) != hash(cfg)
            assert hash(replace(other, **{
                name: getattr(cfg, name) for name in change})) == hash(cfg)

    def test_one_instance_hashes_its_factories_once(self, monkeypatch):
        calls = []
        factory_hash = TFactory.__hash__

        def counting(factory):
            calls.append(factory)
            return factory_hash(factory)

        monkeypatch.setattr(TFactory, "__hash__", counting)
        cfg = ArchConfig()
        first = hash(cfg)
        assert calls == list(cfg.factories)
        assert [hash(cfg) for _ in range(5)] == [first] * 5
        assert {cfg: 1}.get(cfg) == 1
        assert calls == list(cfg.factories)
        hash(replace(cfg))  # a new instance hashes its fields anew
        assert calls == list(cfg.factories) * 2


class TestValidation:
    def test_error_rate_must_stay_below_threshold(self):
        with pytest.raises(ConfigError, match="p_thresh"):
            ArchConfig(p=0.02)  # above the 0.016 default threshold

    def test_problems_are_collected(self):
        with pytest.raises(ConfigError) as err:
            ArchConfig(p=-1.0, n_algo_reps=0, fan_out=0)
        message = str(err.value)
        assert "p_thresh" in message
        assert "n_algo_reps" in message
        assert "fan_out" in message

    def test_epsilon_range(self):
        with pytest.raises(ConfigError, match="epsilon"):
            ArchConfig(epsilon=0.0)
        with pytest.raises(ConfigError, match="epsilon"):
            ArchConfig(epsilon=1.5)
        assert ArchConfig(epsilon=1.0).epsilon == 1.0

    @pytest.mark.parametrize("c0, c1, key", [
        (-0.5, 8.83, "c0"), (-1e-12, 8.83, "c0"), (math.inf, 8.83, "c0"),
        (math.nan, 8.83, "c0"), (0.57, 0.0, "c1"), (0.57, -40.0, "c1"),
        (0.57, math.inf, "c1"), (0.57, math.nan, "c1"),
    ])
    def test_synthesis_constants_range(self, c0, c1, key):
        """The synthesis length must be at least 1 at epsilon = 1 and never
        shrink as epsilon does: a finite c0 >= 0 and a finite c1 > 0."""
        with pytest.raises(ConfigError, match=rf"synthesis\.{key}"):
            ArchConfig(c0=c0, c1=c1)

    def test_synthesis_constants_at_their_bounds(self):
        cfg = ArchConfig(c0=0.0, c1=1e-9)
        assert (cfg.c0, cfg.c1) == (0.0, 1e-9)

    def test_factories_must_be_nonempty(self):
        with pytest.raises(ConfigError, match="factories"):
            ArchConfig(factories=())


class TestSections:
    def test_physical_and_timing_overrides(self):
        with pytest.warns(UserWarning, match="default factories"):
            cfg = config_from_mapping({
                "physical": {"p": 2e-3, "n_phys_per_module": 2_000_000},
                "timing": {"t_decoder": 5e-7, "n_algo_reps": 3},
            })
        assert cfg.p == 2e-3
        assert cfg.n_phys_per_module == 2_000_000
        assert cfg.t_decoder == 5e-7
        assert cfg.n_algo_reps == 3
        assert cfg.t == 25e-9  # untouched default

    def test_scaling_preset(self):
        cfg = config_from_mapping({"scaling": {"preset": "astra-gnn"}})
        assert (cfg.kappa, cfg.p_thresh) == (0.56, 0.17)

    def test_explicit_scaling_beats_nothing_else(self):
        cfg = config_from_mapping({"scaling": {"kappa": 0.52, "p_thresh": 0.14}})
        assert (cfg.kappa, cfg.p_thresh) == (0.52, 0.14)

    def test_unknown_preset_fails(self):
        with pytest.raises(ConfigError, match="preset"):
            config_from_mapping({"scaling": {"preset": "union-find"}})

    def test_int_fields_coerced(self):
        cfg = config_from_mapping({"physical": {"n_phys_per_module": 1.5e6}})
        assert cfg.n_phys_per_module == 1_500_000
        assert isinstance(cfg.n_phys_per_module, int)

    def test_non_integral_int_field_fails(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        for text in ("2.7", ".inf"):
            path.write_text(f"architecture:\n  fan_out: {text}\n")
            with pytest.raises(ConfigError, match="architecture.fan_out"):
                load_config(path)

    def test_integral_int_field_accepted(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        for text in ("4", "4.0"):
            path.write_text(f"architecture:\n  fan_out: {text}\n")
            cfg = load_config(path)
            assert cfg.fan_out == 4 and isinstance(cfg.fan_out, int)

    def test_unknown_section_warns(self):
        with pytest.warns(UserWarning, match="unknown config section"):
            cfg = config_from_mapping({"flux_capacitor": {"gw": 1.21}})
        assert cfg == ArchConfig()

    def test_slice_moments_is_no_longer_read(self):
        """A config that sets the retired moment-slice size gets the
        unknown-key warning and the defaults; the field cannot be set, and
        stays in the repr that config_hash reads."""
        with pytest.warns(UserWarning, match=r"^cfg\.yaml: unknown key "
                          r"architecture\.slice_moments ignored$"):
            cfg = config_from_mapping({"architecture": {"slice_moments": 4}},
                                      source="cfg.yaml")
        assert cfg == ArchConfig()
        with pytest.raises(TypeError, match="slice_moments"):
            ArchConfig(slice_moments=4)
        assert "max_gates=4096, slice_moments=16, thermal=" in repr(cfg)

    def test_max_active_qubits_is_no_longer_read(self):
        """A config that sets the retired active-qubit threshold gets the
        unknown-key warning and the defaults; the field cannot be set, and
        stays in the repr that config_hash reads."""
        with pytest.warns(UserWarning, match=r"^cfg\.yaml: unknown key "
                          r"architecture\.max_active_qubits ignored$"):
            cfg = config_from_mapping(
                {"architecture": {"max_active_qubits": 4}}, source="cfg.yaml")
        assert cfg == ArchConfig()
        with pytest.raises(TypeError, match="max_active_qubits"):
            ArchConfig(max_active_qubits=4)
        assert "max_active_qubits=64, max_gates=4096," in repr(cfg)

    @pytest.mark.parametrize("key", ["max_gates"])
    def test_split_threshold_of_one_fails(self, key):
        """Any one gate meets a split budget of 1, so it would fail every
        input with gates; 2 is accepted."""
        with pytest.raises(ConfigError, match=rf"architecture\.{key} must "
                           r"be >= 2"):
            config_from_mapping({"architecture": {key: 1}})
        assert getattr(config_from_mapping({"architecture": {key: 2}}),
                       key) == 2

    def test_unknown_key_warns(self):
        with pytest.warns(UserWarning, match="physical.colour"):
            cfg = config_from_mapping({"physical": {"colour": "blue"}})
        assert cfg == ArchConfig()

    def test_bad_structure_fails(self):
        with pytest.raises(ConfigError, match="mapping"):
            config_from_mapping([1, 2, 3])
        with pytest.raises(ConfigError, match="mapping"):
            config_from_mapping({"physical": [1]})

    def test_bad_value_names_key(self):
        with pytest.raises(ConfigError, match="physical.p"):
            config_from_mapping({"physical": {"p": "fast"}})


class TestBadValues:
    """Every bad numeric value is a ConfigError naming its section and key."""

    ROW = {"name": "tiny", "p_out": 1e-6, "width": 10, "length": 12,
           "qubits": 120, "cycles": 10.0}
    CASES = {
        "null float": ({"physical": {"t": None}}, "physical.t"),
        "non-numeric thermal": ({"thermal": {"eta_4k": "abc"}},
                                "thermal.eta_4k"),
        "boolean int": ({"architecture": {"n_inter_pipes": True}},
                        "architecture.n_inter_pipes"),
        "boolean epsilon": ({"synthesis": {"epsilon": True}},
                            "synthesis.epsilon"),
        "list thermal": ({"thermal": {"p_decoding_core": [1]}},
                         "thermal.p_decoding_core"),
        "null line load": ({"thermal": {"lines": {"readout": {
            "per_qubit": None}}}}, "thermal.lines.readout.per_qubit"),
        "boolean float": ({"physical": {"p": False}}, "physical.p"),
        "nan float": ({"physical": {"t": float("nan")}}, "physical.t"),
        "nan string": ({"timing": {"t_inter": "nan"}}, "timing.t_inter"),
        "boolean factory size": ({"factories": [dict(ROW, width=True)]},
                                 r"factories\[0\]\.width"),
        "boolean factory p_out": ({"factories": [dict(ROW, p_out=True)]},
                                  r"factories\[0\]\.p_out"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_names_the_key(self, case):
        data, key = self.CASES[case]
        with pytest.raises(ConfigError, match=rf"^cfg\.yaml: {key}: must be"):
            config_from_mapping(data, source="cfg.yaml")

    @pytest.mark.parametrize("value, message", [
        ("abc", "must be a number, got 'abc'"),
        ("", "must be a number, got ''"),
        ("1,000", "must be a number, got '1,000'"),
        ("nan", "must be a finite number, got 'nan'"),
        ("-inf", "must be a finite number, got '-inf'"),
        (10**400, f"must be a finite number, got {10**400!r}")])
    def test_not_a_number_is_told_from_not_finite(self, value, message):
        """A string that is no numeral is not a number; NaN, an infinity
        and an integer too large for a float are numbers that are not
        finite."""
        with pytest.raises(ConfigError) as info:
            config_from_mapping({"architecture": {"n_inter_pipes": value}},
                                source="cfg.yaml")
        assert str(info.value) == (
            f"cfg.yaml: architecture.n_inter_pipes: {message}")

    def test_cli_exits_invalid_naming_the_key(self, tmp_path, capsys):
        from qre.cli import main
        path = tmp_path / "cfg.yaml"
        path.write_text("thermal:\n  lines:\n    readout:\n"
                        "      per_qubit: null\n")
        circuit = tmp_path / "h.qasm"
        circuit.write_text("qreg q[1]; h q[0];")
        assert main(["estimate", str(circuit), "--config", str(path)]) == 2
        assert "thermal.lines.readout.per_qubit" in capsys.readouterr().err

    def test_cli_exits_invalid_on_bad_synthesis_constants(
            self, tmp_path, capsys):
        """Without the range check this config ran QFT-3 to a negative
        timing component (exit 3) and pool circuit 3 to a negative T count
        (exit 0)."""
        from qre.cli import main
        path = tmp_path / "cfg.yaml"
        path.write_text("synthesis:\n  c0: -0.5\n  c1: -40\n")
        circuit = tmp_path / "qft3.qasm"
        circuit.write_text(emit_qasm(generate_qft(3), 3))
        assert main(["estimate", str(circuit), "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "synthesis.c0" in err and "synthesis.c1" in err

    @pytest.mark.parametrize("value", [".inf", "-.inf"])
    @pytest.mark.parametrize("key", [
        "physical.t", "timing.t_inter", "timing.t_decoder",
        "architecture.qubit_pitch", "architecture.couplers_per_qubit",
        "thermal.eta_4k", "thermal.p_decoding_core",
        "thermal.lines.xy_control.load_4k", "scaling.kappa"])
    def test_cli_exits_invalid_on_an_infinite_value(self, tmp_path, capsys,
                                                    key, value):
        """An infinite value is refused where it is read, naming its key.
        Without the check these ran to a NaN-to-integer error, an
        OverflowError traceback from the report, or no feasible distance."""
        from qre.cli import main
        *sections, name = key.split(".")
        path = tmp_path / "cfg.yaml"
        path.write_text("".join(f"{'  ' * i}{section}:\n"
                                for i, section in enumerate(sections))
                        + f"{'  ' * len(sections)}{name}: {value}\n")
        circuit = tmp_path / "qft3.qasm"
        circuit.write_text(emit_qasm(generate_qft(3), 3))
        assert main(["estimate", str(circuit), "--config", str(path)]) == 2
        assert (f"{path}: {key}: must be a finite number, got "
                f"{float(value.replace('.', ''))!r}") in capsys.readouterr().err

    @pytest.mark.parametrize("key", [
        "physical.n_phys_per_module", "timing.n_algo_reps",
        "architecture.n_inter_pipes", "architecture.fan_out",
        "architecture.max_gates", "factories[0].width",
        "factories[0].length", "factories[0].qubits"])
    def test_cli_exits_invalid_on_an_integer_too_large_for_a_float(
            self, tmp_path, capsys, key):
        """An integer key takes an int as it is, but only one that a float
        holds. Without the check a 401-digit integer ran to an
        OverflowError traceback that named no key."""
        from qre.cli import main
        huge = 10**400
        section, name = key.split(".")
        path = tmp_path / "cfg.yaml"
        if section == "factories[0]":
            row = dict(self.ROW, **{name: huge})
            path.write_text("factories:\n" + "".join(
                f"{'  - ' if i == 0 else '    '}{k}: {v}\n"
                for i, (k, v) in enumerate(row.items())))
        else:
            path.write_text(f"{section}:\n  {name}: {huge}\n")
        circuit = tmp_path / "qft3.qasm"
        circuit.write_text(emit_qasm(generate_qft(3), 3))
        assert main(["estimate", str(circuit), "--config", str(path)]) == 2
        assert (f"{path}: {key}: must be a finite number, got {huge!r}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("value, detail", [
        ("1" * 5001, "Exceeds the limit (4300 digits)"),
        ("2020-13-45", "month must be in 1..12"),
    ], ids=["5001-digit integer", "bad date"])
    def test_cli_exits_invalid_on_a_scalar_yaml_cannot_build(
            self, tmp_path, capsys, value, detail):
        """PyYAML builds an integer with int() and a date with datetime,
        and lets their ValueError through. Without the check the message
        was that error's alone, naming neither the file nor the key."""
        from qre.cli import main
        path = tmp_path / "cfg.yaml"
        path.write_text(f"physical:\n  n_phys_per_module: {value}\n")
        circuit = tmp_path / "qft3.qasm"
        circuit.write_text(emit_qasm(generate_qft(3), 3))
        assert main(["estimate", str(circuit), "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: invalid YAML: {detail}"), err

    def test_invariant_error_names_the_source(self):
        """A value that parses but breaks an invariant names the file, as a
        malformed one does."""
        with pytest.raises(ConfigError,
                           match=r"^cfg\.yaml: synthesis\.c0 must be"):
            config_from_mapping({"synthesis": {"c0": -0.5}}, source="cfg.yaml")

    def test_null_epsilon_means_solve(self):
        cfg = config_from_mapping({"synthesis": {"epsilon": None}})
        assert cfg.epsilon is None

    def test_numeric_strings_still_read(self):
        cfg = config_from_mapping({"physical": {"p": "1e-3",
                                                "n_phys_per_module": "1e6"}})
        assert (cfg.p, cfg.n_phys_per_module) == (1e-3, 1_000_000)


class TestFactoriesSection:
    def test_replaces_table(self):
        cfg = config_from_mapping({"factories": [
            {"name": "tiny", "p_out": 1e-6, "width": 10, "length": 12,
             "qubits": 120, "cycles": 10.0},
        ]})
        assert len(cfg.factories) == 1
        f = cfg.factories[0]
        assert f.name == "tiny"
        assert (f.l_width, f.l_length, f.q_phys, f.cycles) == (10, 12, 120, 10.0)

    def test_non_integral_size_fails(self):
        row = {"name": "tiny", "p_out": 1e-6, "width": 10, "length": 12,
               "qubits": 120, "cycles": 10.0}
        for key, value in (("width", 2.7), ("length", 3.9),
                           ("qubits", 1000.5), ("width", None)):
            with pytest.raises(ConfigError, match=rf"factories\[0\]\.{key}"):
                config_from_mapping({"factories": [dict(row, **{key: value})]})

    def test_missing_or_non_numeric_float_field_fails(self):
        row = {"name": "tiny", "p_out": 1e-6, "width": 10, "length": 12,
               "qubits": 120, "cycles": 10.0}
        for key, value in (("p_out", None), ("cycles", None),
                           ("p_out", "low"), ("cycles", [42.6])):
            with pytest.raises(ConfigError, match=rf"factories\[0\]\.{key}"):
                config_from_mapping({"factories": [dict(row, **{key: value})]})

    def test_integral_size_accepted(self):
        for value in (4, 4.0):
            cfg = config_from_mapping({"factories": [
                {"name": "tiny", "p_out": 1e-6, "width": value,
                 "length": value, "qubits": value, "cycles": 10.0},
            ]})
            f = cfg.factories[0]
            assert (f.l_width, f.l_length, f.q_phys) == (4, 4, 4)
            assert all(isinstance(x, int)
                       for x in (f.l_width, f.l_length, f.q_phys))

    def test_missing_key_fails(self):
        with pytest.raises(ConfigError, match="missing key"):
            config_from_mapping({"factories": [{"name": "tiny", "p_out": 1e-6}]})

    def test_empty_list_fails(self):
        with pytest.raises(ConfigError, match="nonempty"):
            config_from_mapping({"factories": []})

    def test_unknown_factory_key_warns(self):
        with pytest.warns(UserWarning, match="colour"):
            config_from_mapping({"factories": [
                {"name": "tiny", "p_out": 1e-6, "width": 10, "length": 12,
                 "qubits": 120, "cycles": 10.0, "colour": "red"},
            ]})


class TestWarningOrder:
    def test_unknown_keys_warn_in_file_order(self):
        """Every mapping warns about its unknown keys in the file's
        order, not in the order of a set of strings."""
        extra = {"size": 3, "colour": "red", "spin": 1, "shape": "round",
                 "mass": 2, "charge": 0}
        data = {
            "physical": {"p": 1e-3, **extra, "t": 25e-9},
            "factories": [{"name": "tiny", "p_out": 1e-6, **extra,
                           "width": 10, "length": 12, "qubits": 120,
                           "cycles": 10.0}],
            "thermal": {**extra, "lines": {"hemt": {**extra,
                                                    "load_4k": 1e-4}}},
        }
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            config_from_mapping(data, source="cfg.yaml")
        assert [str(w.message) for w in caught] == [
            f"cfg.yaml: unknown key {where}.{key} ignored"
            for where in ("physical", "factories[0]", "thermal",
                          "thermal.lines.hemt")
            for key in extra]


class TestRangeErrors:
    @pytest.mark.parametrize("key, value", [
        ("physical.p", 0.5), ("physical.t", 0),
        ("physical.n_phys_per_module", 0),
        ("scaling.kappa", 0), ("scaling.p_thresh", 1.5),
        ("timing.t_inter", 0), ("timing.t_decoder", -1e-6),
        ("timing.n_algo_reps", 0), ("synthesis.c0", -1), ("synthesis.c1", 0),
        ("synthesis.epsilon", 2), ("architecture.p_algo_fail", 1),
        ("architecture.n_inter_pipes", 0), ("architecture.qubit_pitch", 0),
        ("architecture.couplers_per_qubit", -1), ("architecture.fan_out", 0),
        ("architecture.max_gates", 1)])
    def test_names_the_section_and_key(self, tmp_path, key, value):
        """A value that reads as a number but is out of range is named by
        its file and ``section.key``, as a value that does not read is."""
        section, name = key.split(".")
        path = tmp_path / "cfg.yaml"
        path.write_text(f"{section}:\n  {name}: {value}\n")
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert str(err.value).startswith(f"{path}: {key}")

    def test_times_must_be_positive(self):
        with pytest.raises(ConfigError, match=(
                r"^cfg\.yaml: physical\.t must be positive: 0\.0; "
                r"timing\.t_inter must be positive: 0\.0; "
                r"timing\.t_decoder must be positive: -1\.0$")):
            config_from_mapping({"physical": {"t": 0},
                                 "timing": {"t_inter": 0, "t_decoder": -1}},
                                source="cfg.yaml")

    @pytest.mark.parametrize("data, where", [
        ([1], "top level"), ({"physical": [1]}, "physical"),
        ({"thermal": [1]}, "thermal"), ({"thermal": {"lines": 3}},
                                        "thermal.lines"),
        ({"thermal": {"lines": {"hemt": 3}}}, "thermal.lines.hemt"),
        ({"factories": [3]}, "factories[0]")])
    def test_a_mapping_that_is_not_one_is_named(self, data, where):
        with pytest.raises(ConfigError, match=(
                rf"^cfg\.yaml: {re.escape(where)} must be a mapping$")):
            config_from_mapping(data, source="cfg.yaml")


class TestFileOrder:
    """Each mapping is read in the file's order."""

    ROW = TestBadValues.ROW

    @pytest.mark.parametrize("scaling, kappa", [
        ({"kappa": 0.1, "preset": "astra-gnn"}, 0.56),
        ({"preset": "astra-gnn", "kappa": 0.1}, 0.1)])
    def test_the_later_of_preset_and_kappa_wins(self, scaling, kappa):
        assert config_from_mapping({"scaling": scaling}).kappa == kappa

    def test_unknown_keys_warn_across_sections_in_file_order(self):
        data = {
            "timing": {"spin": 1, "t_inter": 2e-6, "mass": 2},
            "factories": [dict(self.ROW, colour="red"),
                          {"size": 3, **self.ROW}],
            "flux_capacitor": {},
            "physical": {"charge": 0},
            "thermal": {"lines": {"laser": {}, "hemt": {"shape": "round"}},
                        "glow": 1},
        }
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            config_from_mapping(data, source="cfg.yaml")
        assert [str(w.message) for w in caught] == [
            "cfg.yaml: unknown key timing.spin ignored",
            "cfg.yaml: unknown key timing.mass ignored",
            "cfg.yaml: unknown key factories[0].colour ignored",
            "cfg.yaml: unknown key factories[1].size ignored",
            "cfg.yaml: unknown config section 'flux_capacitor' ignored",
            "cfg.yaml: unknown key physical.charge ignored",
            "cfg.yaml: unknown key thermal.glow ignored",
            "cfg.yaml: unknown thermal line class 'laser' ignored",
            "cfg.yaml: unknown key thermal.lines.hemt.shape ignored",
        ]

    @pytest.mark.parametrize("data, key", [
        ({"physical": {"t": "slow", "p": "low"}}, "physical.t"),
        ({"physical": {"p": "low", "t": "slow"}}, "physical.p"),
        ({"factories": [{"cycles": None, "name": "tiny", "p_out": 1e-6,
                         "width": 10, "length": 12, "qubits": 1.5}]},
         r"factories\[0\]\.cycles"),
        ({"factories": [dict(ROW, qubits=1.5, cycles=None)]},
         r"factories\[0\]\.qubits"),
        ({"thermal": {"lines": {"hemt": {"load_20mk": "x", "load_4k": "y"}}}},
         r"thermal\.lines\.hemt\.load_20mk"),
    ])
    def test_the_first_bad_value_in_the_file_is_named(self, data, key):
        with pytest.raises(ConfigError, match=rf"^cfg\.yaml: {key}: must be"):
            config_from_mapping(data, source="cfg.yaml")


class TestThermalSection:
    def test_efficiency_override(self):
        cfg = config_from_mapping({"thermal": {"eta_4k": 300.0}})
        assert cfg.thermal.eta_4k == 300.0
        assert cfg.thermal.eta_20mk == DEFAULT_THERMAL.eta_20mk
        assert cfg.thermal.lines == DEFAULT_THERMAL.lines

    def test_line_override_by_name(self):
        cfg = config_from_mapping({"thermal": {"lines": {
            "hemt": {"load_4k": 2e-3},
        }}})
        by_name = {c.name: c for c in cfg.thermal.lines}
        assert by_name["hemt"].load_4k == 2e-3
        assert by_name["hemt"].per_qubit == 0.1  # untouched
        assert by_name["xy_control"] == {
            c.name: c for c in DEFAULT_THERMAL.lines}["xy_control"]

    def test_unknown_line_warns(self):
        with pytest.warns(UserWarning, match="line class"):
            config_from_mapping({"thermal": {"lines": {"laser": {}}}})

    def test_bad_efficiency_fails(self):
        with pytest.raises(ConfigError, match="thermal"):
            config_from_mapping({"thermal": {"eta_4k": 0.1}})


class TestYamlFiles:
    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text(
            "physical:\n"
            "  p: 5.0e-4\n"
            "scaling:\n"
            "  preset: mwpm-code-capacity\n"
            "architecture:\n"
            "  p_algo_fail: 0.01\n"
            "  n_inter_pipes: 4\n")
        with pytest.warns(UserWarning, match="default factories"):
            cfg = load_config(path)
        assert cfg.p == 5e-4
        assert (cfg.kappa, cfg.p_thresh) == (0.52, 0.14)
        assert cfg.p_algo_fail == 0.01
        assert cfg.n_inter_pipes == 4

    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("")
        assert load_config(path) == ArchConfig()

    def test_invalid_yaml_fails(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("physical: [unclosed\n")
        with pytest.raises(ConfigError, match="invalid YAML"):
            load_config(path)

    def test_validation_error_carries_source(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("physical:\n  p: 0.5\n")
        with pytest.raises(ConfigError, match="p_thresh"):
            load_config(path)


class TestFactoryAssumption:
    """The default factory rows hold for one physical error rate only."""

    ROW = {"name": "tiny", "p_out": 1e-6, "width": 10, "length": 12,
           "qubits": 120, "cycles": 10.0}

    def test_reference_p_is_the_default_p(self):
        assert DEFAULT_FACTORIES_P == ArchConfig().p == 1e-3

    def test_changed_p_with_default_factories_warns(self):
        with pytest.warns(UserWarning, match=r"^cfg\.yaml: physical\.p is "
                          r"0\.0001, but the default factories are sized "
                          r"for p = 0\.001"):
            cfg = config_from_mapping({"physical": {"p": 1e-4}},
                                      source="cfg.yaml")
        assert cfg.p == 1e-4 and cfg.factories == DEFAULT_FACTORIES

    @pytest.mark.parametrize("data", [
        None, {}, {"physical": {"p": 1e-3, "t": 1e-8}},
        {"physical": {"p": 1e-4}, "factories": [ROW]},
    ], ids=["none", "empty", "reference-p", "own-factories"])
    def test_no_warning(self, data):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            config_from_mapping(data, source="cfg.yaml")

    def test_load_config_warns_with_the_path(self, tmp_path):
        path = tmp_path / "low.yaml"
        path.write_text("physical:\n  p: 1.0e-4\n")
        with pytest.warns(UserWarning, match="low.yaml: physical.p is"):
            load_config(path)
