"""Command-line interface: subcommands, outputs, exit codes."""

import json
import random
import time

import pytest

from pool import benchmark_pool_circuit
from qre.architecture import DEFAULT_FACTORIES
from qre.cli import (
    EXIT_INFEASIBLE,
    EXIT_INVALID,
    EXIT_IO,
    EXIT_OK,
    EXIT_PIPE,
    main,
)
from qre.pipeline import run_estimate
from qre.report import parse_csv, render_csv
from subproc import QRE, run_python, start_python


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
        """--out-dir makes its directory and writes report.csv; with --csv
        too, both files hold the report's CSV."""
        out_dir = tmp_path / "artifacts" / "new"
        csv_path = tmp_path / "report.csv"
        rc = main(["estimate", str(qft3_path), "--out-dir", str(out_dir),
                   "--csv", str(csv_path)])
        assert rc == EXIT_OK
        text = (out_dir / "report.csv").read_text()
        assert csv_path.read_text() == text
        report = run_estimate(qft3_path).report
        assert text == render_csv(report)
        assert parse_csv(text) == report

    def test_unwritable_csv_prints_no_report(self, qft3_path, tmp_path,
                                             capsys):
        """The CSV is written before the console report: a --csv path in a
        missing directory fails with nothing on stdout and names the path."""
        csv_path = tmp_path / "nodir" / "r.csv"
        rc = main(["estimate", str(qft3_path), "--csv", str(csv_path)])
        out, err = capsys.readouterr()
        assert rc == EXIT_IO
        assert out == ""
        assert err.startswith("error: ") and str(csv_path) in err

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

    def test_invariant_config_error_names_the_file(self, qft3_path, tmp_path,
                                                  capsys):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text("synthesis:\n  c0: -0.5\n")
        rc = main(["estimate", str(qft3_path), "--config", str(cfg)])
        assert rc == EXIT_INVALID
        assert capsys.readouterr().err.startswith(
            f"error: {cfg}: synthesis.c0")

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
        err = capsys.readouterr().err
        assert "error:" in err
        for factory in DEFAULT_FACTORIES:
            assert f"factory {factory.name!r}: no module layout fits" in err

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

    @pytest.mark.parametrize("flag, value, message", [
        ("--trials", "0", "--trials must be >= 1, got 0"),
        ("--seed", "-1", "--seed must be >= 0, got -1"),
    ], ids=["trials", "seed"])
    def test_verify_bad_flag_names_the_fix(self, tmp_path, capsys, flag,
                                           value, message):
        # checked before the circuit is read: a missing file is not reported
        absent = str(tmp_path / "absent.qasm")
        assert main(["verify", absent, flag, value]) == EXIT_INVALID
        assert capsys.readouterr().err == f"error: {message}\n"

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
        assert len(list(cache.glob("widgets-*.json"))) == 1
        assert len(list(cache.glob("plan-*.json"))) == 1
        assert uncached == (
            "n0: 12 nodes, 10 edges, 6 T, 3 Rz, 5 consumption steps, "
            "4 preparation sub-steps\n"
            "sequence: 1 widgets, 12 nodes, max 6 logical, "
            "10 Clifford gates\n")

    # Inputs that verify against their own gates, each with the split
    # threshold it runs under and its widget count: a table whose order
    # differs from first use; a nested block on three wires that max_gates 3
    # cuts into three two-gate widgets; a repeated block that max_gates 3
    # splits into leaves shared across the repetitions, with seams between
    # them; an empty block repeated 1000 times, which a split leaves out (2
    # widgets, not 1002); a block of four gates on one wire and two on two
    # others, cut in gate order into three widgets that keep all six gates.
    VERIFIED = {
        "table": ({"n_input": 2, "sequence": ["a", "b", "a"],
                   "distinct_widgets": {
                       "b": "qreg q[2]; s q[1];",
                       "a": "qreg q[2]; h q[0]; cx q[0],q[1]; t q[1];"}},
                  None, "widgets: 3 (2 distinct)"),
        "split": ({"blocks": {"main": [
            {"gate": "h", "qubits": [0]}, {"gate": "cx", "qubits": [0, 1]},
            {"gate": "t", "qubits": [1]}, {"gate": "h", "qubits": [2]},
            {"gate": "rz", "qubits": [2], "angle": 0.3},
            {"gate": "cx", "qubits": [1, 2]}]}},
            3, "widgets: 3 (3 distinct)"),
        "repeat": ({"blocks": {
            "main": [{"gate": "h", "qubits": [0]},
                     {"block": "layer", "repeat": 3},
                     {"gate": "t", "qubits": [2]}],
            "layer": [{"gate": "cx", "qubits": [0, 1]},
                      {"gate": "t", "qubits": [1]},
                      {"gate": "h", "qubits": [2]},
                      {"gate": "rz", "qubits": [2], "angle": 0.3},
                      {"gate": "cx", "qubits": [1, 2]}]}},
            3, "widgets: 11 (5 distinct)"),
        "empty": ({"n_input": 2, "blocks": {
            "main": [{"gate": "h", "qubits": [0]},
                     {"gate": "t", "qubits": [1]},
                     {"block": "e", "repeat": 1000}],
            "e": []}},
            2, "widgets: 2 (2 distinct)"),
        "late": ({"blocks": {"main": [
            {"gate": "h", "qubits": [0]}, {"gate": "t", "qubits": [0]},
            {"gate": "s", "qubits": [0]}, {"gate": "x", "qubits": [0]},
            {"gate": "cx", "qubits": [1, 2]}, {"gate": "t", "qubits": [1]}]}},
            3, "widgets: 3 (3 distinct)"),
    }

    @pytest.mark.parametrize("case", sorted(VERIFIED))
    def test_widgetize_and_verify_against_the_source(self, tmp_path, capsys,
                                                     case):
        payload, max_gates, widgets = self.VERIFIED[case]
        path = tmp_path / f"{case}.json"
        path.write_text(json.dumps(payload))
        options = []
        if max_gates is not None:
            cfg = tmp_path / "split.yaml"
            cfg.write_text(f"architecture:\n  max_gates: {max_gates}\n")
            options = ["--config", str(cfg)]
        assert main(["widgetize", str(path), *options]) == EXIT_OK
        assert widgets in capsys.readouterr().out.splitlines()
        assert main(["verify", str(path), *options]) == EXIT_OK
        assert capsys.readouterr().out.startswith("fidelity: ")

    def test_long_flat_block_widgetizes_in_one_pass(self, tmp_path, capsys):
        """A flat block is cut in one pass over its gates: a seeded
        262,144-gate block on 8 qubits widgetizes within 30 s (a rescan of
        the whole block per piece took 80 s), and its widgets hold every
        gate."""
        rng = random.Random(1)
        gates = [{"gate": "cx", "qubits": rng.sample(range(8), 2)}
                 if rng.random() < 0.5 else
                 {"gate": rng.choice(["h", "t", "s", "x"]),
                  "qubits": [rng.randrange(8)]}
                 for _ in range(262_144)]
        path = tmp_path / "flat.json"
        path.write_text(json.dumps({"n_input": 8, "blocks": {"main": gates}}))
        start = time.perf_counter()
        assert main(["widgetize", str(path)]) == EXIT_OK
        assert time.perf_counter() - start < 30
        # widget lines read "  n0: x1, 66 gates": sum multiplicity * gates
        total = 0
        for line in capsys.readouterr().out.splitlines():
            if line.endswith(" gates"):
                _, mult, n_gates, _ = line.split()
                total += int(mult[1:-1]) * int(n_gates)
        assert total == 262_144


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

    def test_decoder_rows_match_estimates_naming_the_preset(self, tmp_path,
                                                            capsys):
        """A decoder sweep re-solves and re-times the machine per preset,
        and its default preset shares the estimate's solve and timing: each
        row's distance and hardware time equal those of one estimate whose
        config file names that preset, and the distance differs between
        the rows."""
        pool3 = tmp_path / "pool3.json"
        pool3.write_text(benchmark_pool_circuit(3))
        cache = ["--cache-dir", str(tmp_path / "cache")]
        presets = ("mwpm-circuit", "mwpm-code-capacity", "astra-gnn")
        assert main(["sweep", "decoder", str(pool3),
                     "--presets", ",".join(presets), *cache]) == EXIT_OK
        swept = [row.split(",")[:3]
                 for row in capsys.readouterr().out.splitlines()[1:]]
        single = []
        for preset in presets:
            cfg = tmp_path / f"{preset}.yaml"
            cfg.write_text(f"scaling:\n  preset: {preset}\n")
            csv_path = tmp_path / f"{preset}.csv"
            assert main(["estimate", str(pool3), "--config", str(cfg),
                         "--csv", str(csv_path), *cache]) == EXIT_OK
            rows = dict(row.split(",")[1:3]
                        for row in csv_path.read_text().splitlines()
                        if row[:1].isdigit())
            single.append([preset, rows["code_distance"],
                           rows["hardware_time_per_step"]])
        assert swept == single
        assert len({d for _, d, _ in swept}) > 1

    @pytest.mark.parametrize("kind", ["pipes", "decoder"])
    def test_zero_time_circuit_normalizes_to_n_a(self, tmp_path, capsys,
                                                 kind):
        """A circuit with no T or Rz gate takes no hardware time, so no row
        can be divided by the first: every normalized runtime is n/a."""
        path = tmp_path / "x1.qasm"
        path.write_text("OPENQASM 2.0;\nqreg q[1];\nx q[0];\n")
        assert main(["sweep", kind, str(path)]) == EXIT_OK
        rows = [line.split(",") for line in
                capsys.readouterr().out.strip().splitlines()[1:]]
        assert len(rows) > 1
        assert all(r[2:] == ["0.0", "n/a"] for r in rows), rows

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

    @staticmethod
    def block_chain(depth):
        """A nested file whose root starts a chain of ``depth`` block
        references; every block but the last has a gate and a reference."""
        names = ["main"] + [f"b{k}" for k in range(1, depth + 1)]
        blocks = {a: [{"gate": "h", "qubits": [0]}, {"block": b}]
                  for a, b in zip(names, names[1:])}
        blocks[names[-1]] = [{"gate": "t", "qubits": [0]}]
        return json.dumps({"blocks": blocks})

    def test_too_deep_nesting_is_invalid(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text(self.block_chain(1000))
        assert main(["estimate", str(path)]) == EXIT_INVALID
        assert ("block 'main' nests 1000 levels of block references, beyond "
                "the limit of 256") in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["cycle", "undefined", "too-deep",
                                      "beyond-n_input"])
    def test_nested_structure_error_names_the_file_first(self, tmp_path,
                                                          capsys, case):
        h = {"gate": "h", "qubits": [0]}
        text, message = {
            "cycle": (json.dumps({"blocks": {
                "main": [h, {"block": "a"}], "a": [{"block": "main"}]}}),
                "cyclic block reference through 'main'"),
            "undefined": (json.dumps({"blocks": {
                "main": [h, {"block": "nope"}]}}),
                "block 'main' references undefined 'nope'"),
            "too-deep": (self.block_chain(257),
                         "block 'main' nests 257 levels of block references, "
                         "beyond the limit of 256"),
            "beyond-n_input": (json.dumps({"n_input": 2, "blocks": {
                "main": [h, {"gate": "cx", "qubits": [0, 2]}]}}),
                "gates touch qubit 2, beyond n_input=2"),
        }[case]
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert main(["estimate", str(path)]) == EXIT_INVALID
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    @pytest.mark.parametrize("split", [False, True], ids=["whole", "split"])
    def test_nesting_at_the_limit_estimates(self, tmp_path, split):
        path = tmp_path / "deep.json"
        path.write_text(self.block_chain(256))
        args = ["estimate", str(path), "--out-dir", str(tmp_path / "out")]
        if split:  # every block is split, one level of the build per block
            cfg = tmp_path / "split.yaml"
            cfg.write_text("architecture:\n  max_gates: 2\n")
            args += ["--config", str(cfg)]
        assert main(args) == EXIT_OK
        report = parse_csv((tmp_path / "out" / "report.csv").read_text())
        assert report.value(25) == (257 if split else 1)  # widget_count

    @pytest.mark.parametrize("text, message", [
        ({"n_input": 0, "blocks": {"main": []}}, "n_input must be >= 1, got 0"),
        ({"n_input": -2, "blocks": {"main": [{"block": "e", "repeat": 3}],
                                    "e": []}},
         "n_input must be >= 1, got -2"),
    ], ids=["zero", "negative"])
    def test_nested_n_input_below_one_is_invalid(self, tmp_path, capsys,
                                                 text, message):
        path = tmp_path / "x.json"
        path.write_text(json.dumps(text))
        assert main(["estimate", str(path)]) == EXIT_INVALID
        assert f"{path}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("name, data", [
        ("bad.qasm", b"\xffqreg q[1];\nh q[0];\n"),
        ("bad.json", b'{"blocks": {"main": [{"gate": "h\xff", "qubits": [0]}]}}'),
    ], ids=["qasm", "json"])
    def test_non_utf8_input_is_invalid(self, tmp_path, capsys, name, data):
        path = tmp_path / name
        path.write_bytes(data)
        assert main(["estimate", str(path)]) == EXIT_INVALID
        assert f"error: {path}: not UTF-8 text: " in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        "", 'OPENQASM 2.0;\ninclude "qelib1.inc";\n', "qreg q[0];\n"],
        ids=["empty", "header-only", "zero-qubits"])
    def test_flat_qasm_without_a_register_is_invalid(self, tmp_path, capsys,
                                                     text):
        path = tmp_path / "x.qasm"
        path.write_text(text)
        assert main(["estimate", str(path)]) == EXIT_INVALID
        assert capsys.readouterr().err == (
            f"error: {path}: a flat QASM file needs a qreg of at least 1 "
            "qubit\n")

    def test_flat_qasm_error_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "foo.qasm"
        path.write_text("qreg q[1];\nfoo q[0];\n")
        assert main(["estimate", str(path)]) == EXIT_INVALID
        assert capsys.readouterr().err == (
            f"error: {path}: line 2: unsupported gate 'foo'\n")

    def test_json_integer_too_long_to_read_names_the_file(self, tmp_path,
                                                         capsys):
        """Python reads no integer of more than 4300 digits; json.loads then
        raises a plain ValueError, which names the file like a syntax
        error."""
        path = tmp_path / "long.json"
        path.write_text('{"n_input": 2, "blocks": {"main": [{"gate": "rz", '
                        '"qubits": [0], "angle": ' + "1" * 5001 + '}]}}')
        assert main(["estimate", str(path)]) == EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: not valid JSON: ")
        assert "4300" in err

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


class TestBadAngle:
    """An angle expression whose arithmetic fails, and an Rz or CPhase
    angle too large for the pi/4 snap test, are input errors (exit 2) that
    name the QASM line or the JSON block item, from every command that
    reads a circuit. Before, the first three raised a traceback (exit 1),
    rz(1e20) transpiled to nothing and rz(1e16) to Z."""

    TOO_LARGE = "is too large: reduce it modulo 2*pi below 4503.6"
    CASES = {
        "division by zero": ("rz(1/0)", "division by zero in angle '1/0'"),
        "integer overflow": ("rz(10**400)", "angle '10**400' does not fit in a float"),
        "float overflow": ("rz(2**0.5**-2000)",
                           "angle '2**0.5**-2000' does not fit in a float"),
        "unbounded power": ("rz(9**9**9)", "angle '9**9**9' does not fit in a float"),
        "dropped angle": ("rz(1e20)", f"Rz angle 1e+20 {TOO_LARGE}"),
        "snapped to Z": ("rz(1e16)", f"Rz angle 1e+16 {TOO_LARGE}"),
        "large cphase": ("cp(-5000)", f"CPhase angle -5000.0 {TOO_LARGE}"),
    }

    @pytest.mark.parametrize("command", ["estimate", "transpile"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_qasm(self, tmp_path, capsys, command, case):
        gate, message = self.CASES[case]
        path = tmp_path / "bad.qasm"
        path.write_text(f"OPENQASM 2.0;\nqreg q[2];\nh q[0];\n{gate} q[0],q[1];\n"
                        if gate.startswith("cp") else
                        f"OPENQASM 2.0;\nqreg q[2];\nh q[0];\n{gate} q[1];\n")
        assert main([command, str(path)]) == EXIT_INVALID
        assert capsys.readouterr().err == f"error: {path}: line 4: {message}\n"

    JSON_CASES = {
        "division by zero": ("rz", "1/0", "division by zero in angle '1/0'"),
        "unbounded power": ("rz", "9**9**9", "angle '9**9**9' does not fit in a float"),
        "complex": ("rz", "(-1)**0.5", "angle '(-1)**0.5' is not a real number"),
        "integer too large": ("rz", 10**400, "integer angle does not fit in a float"),
        "dropped angle": ("rz", 1e20, f"Rz angle 1e+20 {TOO_LARGE}"),
        "string too large": ("cp", "2**13", f"CPhase angle 8192.0 {TOO_LARGE}"),
    }

    @pytest.mark.parametrize("command", ["estimate", "transpile"])
    @pytest.mark.parametrize("case", sorted(JSON_CASES))
    def test_nested_json(self, tmp_path, capsys, command, case):
        name, angle, message = self.JSON_CASES[case]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n_input": 2, "blocks": {"main": [
            {"gate": "h", "qubits": [0]},
            {"gate": name, "qubits": [0, 1] if name == "cp" else [1],
             "angle": angle}]}}))
        assert main([command, str(path)]) == EXIT_INVALID
        assert capsys.readouterr().err == (
            f"error: {path}: block 'main' item 1: {message}\n")


class TestClosedOutput:
    @pytest.mark.parametrize("n_widgets, lines_read", [(4000, 1), (1, 0)],
                             ids=["after-one-line", "before-any"])
    def test_closed_stdout_exits_like_a_filter(self, tmp_path, n_widgets,
                                               lines_read):
        """A reader that closes the pipe early, as `qre widgetize x | head`
        does, ends the run with exit 141 and nothing on stderr: when the
        output is more than a pipe buffer holds (4000 widget lines), and
        when it is short enough to wait in stdout's buffer until exit."""
        path = tmp_path / "table.json"
        path.write_text(json.dumps({
            "n_input": 1, "sequence": [f"w{i}" for i in range(n_widgets)],
            "distinct_widgets": {f"w{i}": "qreg q[1]; h q[0];"
                                 for i in range(n_widgets)}}))
        proc = start_python(*QRE, "widgetize", str(path))
        for _ in range(lines_read):
            assert proc.stdout.readline() == b"n_input: 1\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == EXIT_PIPE == 141
        assert err == b""


class TestFactoryWarning:
    def test_changed_p_warns_on_stderr(self, qft3_path, tmp_path):
        """The default factories assume p = 1e-3: an estimate at another p
        still runs, with a warning on stderr; the default run prints none."""
        cfg = tmp_path / "low.yaml"
        cfg.write_text("physical:\n  p: 1.0e-4\n")
        low = run_python(*QRE, "estimate", str(qft3_path),
                         "--config", str(cfg))
        assert low.returncode == EXIT_OK
        assert low.stderr == (
            f"warning: {cfg}: physical.p is 0.0001, but the default "
            f"factories are sized for p = 0.001; give a factories section "
            f"sized for this p\n")
        default = run_python(*QRE, "estimate", str(qft3_path))
        assert (default.returncode, default.stderr) == (EXIT_OK, "")

    def test_unknown_key_warns_on_one_line(self, qft3_path, tmp_path):
        cfg = tmp_path / "typo.yaml"
        cfg.write_text("physical:\n  colour: red\n")
        run = run_python(*QRE, "estimate", str(qft3_path),
                         "--config", str(cfg))
        assert run.returncode == EXIT_OK
        assert run.stderr == f"warning: {cfg}: unknown key physical.colour " \
            "ignored\n"


    def test_warnings_in_file_order_under_any_hash_seed(self, qft3_path,
                                                        tmp_path):
        """Unknown keys of a factories row and of a thermal line warn in
        the file's order, whatever PYTHONHASHSEED is."""
        cfg = tmp_path / "extra.yaml"
        f = DEFAULT_FACTORIES[1]
        cfg.write_text(
            f"factories:\n  - {{name: f, p_out: {f.p_out!r}, "
            f"width: {f.l_width}, length: {f.l_length}, qubits: {f.q_phys}, "
            f"cycles: {f.cycles!r}, size: 3, colour: red, shape: round}}\n"
            "thermal:\n  lines:\n"
            "    hemt: {load_4k: 1.0e-4, size: 3, colour: red, shape: round}\n")
        expected = "".join(
            f"warning: {cfg}: unknown key {where}.{key} ignored\n"
            for where in ("factories[0]", "thermal.lines.hemt")
            for key in ("size", "colour", "shape"))
        for seed in ("1", "2", "3"):
            run = run_python(*QRE, "estimate", str(qft3_path),
                             "--config", str(cfg), PYTHONHASHSEED=seed)
            assert (run.returncode, run.stderr) == (EXIT_OK, expected)


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
