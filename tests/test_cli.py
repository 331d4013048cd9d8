"""Command-line interface: subcommands, outputs, exit codes."""

import json

import pytest

from qre.cli import EXIT_INFEASIBLE, EXIT_INVALID, EXIT_IO, EXIT_OK, main
from qre.report import parse_csv


@pytest.fixture(scope="module")
def qft3_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "qft3.qasm"
    assert main(["gen-qft", "3", "--out", str(path)]) == EXIT_OK
    return path


class TestGenQft:
    def test_stdout(self, capsys):
        assert main(["gen-qft", "2"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("OPENQASM 2.0;")
        assert "qreg q[2];" in out

    def test_deterministic(self, capsys):
        main(["gen-qft", "4"])
        first = capsys.readouterr().out
        main(["gen-qft", "4"])
        assert capsys.readouterr().out == first


class TestEstimate:
    def test_console_and_csv(self, qft3_path, tmp_path, capsys):
        csv_path = tmp_path / "report.csv"
        rc = main(["estimate", str(qft3_path), "--csv", str(csv_path)])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert "code_distance" in out
        assert "total energy:" in out
        report = parse_csv(csv_path.read_text())
        assert report.value(1) == 11
        assert len(report.rows) == 49

    def test_out_dir(self, qft3_path, tmp_path):
        out_dir = tmp_path / "artifacts"
        rc = main(["estimate", str(qft3_path), "--out-dir", str(out_dir)])
        assert rc == EXIT_OK
        assert (out_dir / "report.csv").exists()

    def test_missing_circuit_is_io_error(self, tmp_path, capsys):
        rc = main(["estimate", str(tmp_path / "absent.qasm")])
        assert rc == EXIT_IO
        assert "error:" in capsys.readouterr().err

    def test_bad_circuit_is_invalid(self, tmp_path, capsys):
        path = tmp_path / "junk.qasm"
        path.write_text("this is not qasm")
        assert main(["estimate", str(path)]) == EXIT_INVALID

    def test_bad_config_is_invalid(self, qft3_path, tmp_path, capsys):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text("physical:\n  p: 0.02\n")
        rc = main(["estimate", str(qft3_path), "--config", str(cfg)])
        assert rc == EXIT_INVALID
        assert "p_thresh" in capsys.readouterr().err

    def test_non_integral_fan_out_is_invalid(self, qft3_path, tmp_path,
                                             capsys):
        cfg = tmp_path / "frac.yaml"
        cfg.write_text("architecture:\n  fan_out: 2.7\n")
        rc = main(["estimate", str(qft3_path), "--config", str(cfg)])
        assert rc == EXIT_INVALID
        assert "fan_out" in capsys.readouterr().err

    def test_non_integral_factory_width_is_invalid(self, qft3_path, tmp_path,
                                                   capsys):
        cfg = tmp_path / "frac.yaml"
        cfg.write_text("factories:\n"
                       "  - {name: tiny, p_out: 4.5e-8, width: 2.7,"
                       " length: 72, qubits: 4620, cycles: 42.6}\n")
        rc = main(["estimate", str(qft3_path), "--config", str(cfg)])
        assert rc == EXIT_INVALID
        assert "factories[0].width" in capsys.readouterr().err

    def test_null_factory_p_out_is_invalid(self, qft3_path, tmp_path, capsys):
        cfg = tmp_path / "null.yaml"
        cfg.write_text("factories:\n"
                       "  - {name: tiny, p_out: null, width: 64,"
                       " length: 72, qubits: 4620, cycles: 42.6}\n")
        rc = main(["estimate", str(qft3_path), "--config", str(cfg)])
        assert rc == EXIT_INVALID
        assert "factories[0].p_out" in capsys.readouterr().err

    def test_infeasible_is_exit_3(self, qft3_path, tmp_path, capsys):
        cfg = tmp_path / "tiny.yaml"
        cfg.write_text("physical:\n  n_phys_per_module: 5000\n")
        rc = main(["estimate", str(qft3_path), "--config", str(cfg)])
        assert rc == EXIT_INFEASIBLE
        assert "error:" in capsys.readouterr().err

    def test_cache_dir_used(self, qft3_path, tmp_path):
        cache = tmp_path / "cache"
        rc = main(["estimate", str(qft3_path), "--cache-dir", str(cache)])
        assert rc == EXIT_OK
        assert any(cache.iterdir())


class TestStageCommands:
    def test_widgetize(self, qft3_path, capsys):
        assert main(["widgetize", str(qft3_path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "n_input: 3" in out
        assert "widgets: 1 (1 distinct)" in out

    def test_compile(self, qft3_path, capsys):
        assert main(["compile", str(qft3_path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "nodes" in out and "consumption steps" in out

    def test_transpile(self, qft3_path, capsys):
        assert main(["transpile", str(qft3_path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "6 T, 3 Rz" in out

    def test_verify_passes(self, qft3_path, capsys):
        rc = main(["verify", str(qft3_path), "--trials", "2", "--seed", "5"])
        assert rc == EXIT_OK
        assert "fidelity:" in capsys.readouterr().out

    def test_verify_takes_no_cache_dir(self, qft3_path, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", str(qft3_path), "--cache-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert "--cache-dir" in capsys.readouterr().err

    def test_compile_same_lines_cold_and_warm(self, qft3_path, tmp_path,
                                              capsys):
        cache = tmp_path / "cache"
        assert main(["compile", str(qft3_path)]) == EXIT_OK
        uncached = capsys.readouterr().out
        for _ in range(2):  # cold, then warm
            assert main(["compile", str(qft3_path),
                         "--cache-dir", str(cache)]) == EXIT_OK
            assert capsys.readouterr().out == uncached
        assert len(list(cache.iterdir())) == 1
        assert uncached == (
            "w0: 12 nodes, 10 edges, 6 T, 3 Rz, 5 consumption steps, "
            "4 preparation sub-steps\n"
            "sequence: 1 widgets, 12 nodes, max 6 logical, "
            "10 Clifford gates\n")


class TestFitScaling:
    def test_recovers_parameters(self, tmp_path, capsys):
        path = tmp_path / "samples.csv"
        rows = ["p,d,ler"]
        for p in (1e-3, 2e-3):
            for d in (3, 5, 7):
                rows.append(f"{p},{d},{0.009 * (p / 0.016) ** ((d + 1) / 2)!r}")
        path.write_text("\n".join(rows) + "\n")
        assert main(["fit-scaling", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        fitted = {line.split(":")[0]: float(line.split(":")[1])
                  for line in out.strip().splitlines()}
        assert fitted["kappa"] == pytest.approx(0.009, rel=1e-9)
        assert fitted["p_thresh"] == pytest.approx(0.016, rel=1e-9)

    def test_malformed_samples_invalid(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("p,d,ler\n0.001,three,0.01\n")
        assert main(["fit-scaling", str(path)]) == EXIT_INVALID


class TestSweep:
    def test_pipes_to_stdout(self, qft3_path, capsys):
        rc = main(["sweep", "pipes", str(qft3_path), "--values", "1,2,4"])
        assert rc == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == ("n_inter_pipes,code_distance,t_hardware,"
                            "normalized_runtime")
        assert len(lines) == 4
        assert lines[1].split(",")[0] == "1"
        assert lines[1].split(",")[3] == "1.0"

    def test_pipes_to_file(self, qft3_path, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "pipes", str(qft3_path), "--values", "1,2",
                   "--csv", str(out)])
        assert rc == EXIT_OK
        assert out.read_text().startswith("n_inter_pipes,")

    def test_decoder_presets(self, qft3_path, capsys):
        rc = main(["sweep", "decoder", str(qft3_path)])
        assert rc == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        table = {row.split(",")[0]: int(row.split(",")[1])
                 for row in lines[1:]}
        assert table["astra-gnn"] <= table["mwpm-circuit"]

    def test_unknown_preset_invalid(self, qft3_path, capsys):
        rc = main(["sweep", "decoder", str(qft3_path),
                   "--presets", "union-find"])
        assert rc == EXIT_INVALID

    def test_bad_values_invalid(self, qft3_path):
        rc = main(["sweep", "pipes", str(qft3_path), "--values", "1,two"])
        assert rc == EXIT_INVALID

    @pytest.mark.parametrize("values, token", [
        ("1,x", "'x'"), ("", "''"), ("2,,3", "''"), ("1.5", "'1.5'")])
    def test_non_integer_values_name_the_token(self, qft3_path, capsys,
                                               values, token):
        rc = main(["sweep", "pipes", str(qft3_path), f"--values={values}"])
        assert rc == EXIT_INVALID
        err = capsys.readouterr().err
        assert f"--values: {token} is not an integer" in err

    @pytest.mark.parametrize("values", ["0", "-1", "4,0"])
    def test_pipe_counts_below_one_invalid(self, qft3_path, capsys, values):
        rc = main(["sweep", "pipes", str(qft3_path), f"--values={values}"])
        assert rc == EXIT_INVALID
        assert ("architecture.n_inter_pipes must be >= 1"
                in capsys.readouterr().err)


class TestBadInput:
    NESTED = {
        "negative qubit": {"gate": "cx", "qubits": [-1, 0]},
        "fractional repeat": {"block": "w", "repeat": 2.5},
        "boolean repeat": {"block": "w", "repeat": True},
        "string repeat": {"block": "w", "repeat": "x"},
        "qubits not a list": {"gate": "h", "qubits": 3},
        "list angle": {"gate": "rz", "qubits": [0], "angle": [1]},
        "a number": 7,
        "a list": ["h", 0],
    }

    @pytest.mark.parametrize("case", sorted(NESTED))
    def test_bad_nested_item_is_invalid(self, tmp_path, capsys, case):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n_input": 2, "blocks": {
            "main": [{"gate": "h", "qubits": [0]}, self.NESTED[case]],
            "w": [{"gate": "x", "qubits": [1]}]}}))
        assert main(["estimate", str(path)]) == EXIT_INVALID
        assert "block 'main' item 1: " in capsys.readouterr().err

    def test_widget_body_not_a_string_is_invalid(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n_input": 1, "sequence": ["A"],
                                    "distinct_widgets": {"A": 7}}))
        assert main(["estimate", str(path)]) == EXIT_INVALID
        assert "widget 'A' must be an OpenQASM string" in capsys.readouterr().err


    @pytest.mark.parametrize("n_input", [None, 2.5, True])
    def test_bad_widget_table_n_input_is_invalid(self, tmp_path, capsys,
                                                 n_input):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n_input": n_input, "sequence": ["A"],
                                    "distinct_widgets": {"A": "h q[0];"}}))
        assert main(["estimate", str(path)]) == EXIT_INVALID
        err = capsys.readouterr().err
        assert f"{path}: n_input must be an integer" in err

    def test_undefined_widget_names_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "n_input": 1, "sequence": ["A", "C"],
            "distinct_widgets": {"A": "qreg q[1]; h q[0];"}}))
        assert main(["estimate", str(path)]) == EXIT_INVALID
        assert (f"{path}: sequence references undefined widget 'C'"
                in capsys.readouterr().err)

    def test_bad_widget_body_names_file_and_widget(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "n_input": 1, "sequence": ["B", "A"],
            "distinct_widgets": {"A": "qreg q[1]; foo q[0];",
                                 "B": "qreg q[1]; h q[0];"}}))
        assert main(["estimate", str(path)]) == EXIT_INVALID
        err = capsys.readouterr().err
        assert (f"{path}: widget 'A': line 1: unsupported gate 'foo'"
                in err)


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == "0.1.0"

    def test_no_command_errors(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
