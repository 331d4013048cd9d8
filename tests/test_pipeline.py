"""End-to-end pipeline: input dispatch, caching, estimation runs, sweeps."""

import hashlib
import json

import pytest

from qre.architecture import EstimationError
from qre.circuit import CircuitError, emit_qasm, gate, generate_qft, transpile
from qre.circuit import GateKind as G
from qre.config import ArchConfig
from qre.pipeline import (
    LoadedCircuit,
    compile_plan,
    load_circuit,
    render_sweep_csv,
    run_decoder_sweep,
    run_estimate,
    run_pipe_sweep,
    verify_circuit,
)
from qre.report import parse_csv, render_csv


@pytest.fixture(scope="module")
def config():
    return ArchConfig()


@pytest.fixture(scope="module")
def qft3_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("pipe") / "qft3.qasm"
    path.write_text(emit_qasm(generate_qft(3), 3))
    return path


class TestLoadDispatch:
    def test_qasm_becomes_single_widget(self, qft3_path, config):
        loaded = load_circuit(qft3_path, config)
        assert loaded.plan.n_input == 3
        assert loaded.plan.n_widgets == 1
        assert loaded.sequence == ("w0",)
        assert loaded.data == qft3_path.read_bytes()

    def test_widget_json(self, tmp_path, config):
        body = "qreg q[2];\nh q[0];\ncz q[0],q[1];\n"
        payload = {
            "format": 1,
            "n_input": 2,
            "distinct_widgets": {"a": "OPENQASM 2.0;\n" + body},
            "sequence": ["a", "a", "a"],
        }
        path = tmp_path / "widgets.json"
        path.write_text(json.dumps(payload))
        loaded = load_circuit(path, config)
        assert loaded.plan.multiplicity == {"a": 3}
        assert loaded.sequence == ("a", "a", "a")
        assert loaded.plan.stitches == {("a", "a"): 2}

    def test_nested_json(self, tmp_path, config):
        payload = {
            "n_input": 2,
            "root": "main",
            "blocks": {
                "main": [{"block": "body", "repeat": 4}],
                "body": [{"gate": "h", "qubits": [0]},
                         {"gate": "cz", "qubits": [0, 1]}],
            },
        }
        path = tmp_path / "nested.json"
        path.write_text(json.dumps(payload))

        # under default thresholds the whole thing fits one widget
        folded = load_circuit(path, config)
        assert folded.plan.n_widgets == 1

        # a tight gate threshold forces the split the thresholds ask for
        split = load_circuit(path, ArchConfig(max_gates=2))
        assert split.plan.n_widgets == 8
        assert split.plan.n_distinct_widgets == 2
        assert split.sequence is not None and len(split.sequence) == 8
        assert sum(split.plan.stitches.values()) == 7

    def test_nested_block_named_distinct_widgets(self, tmp_path, config):
        payload = {
            "root": "main",
            "blocks": {
                "main": [{"block": "distinct_widgets", "repeat": 2}],
                "distinct_widgets": [{"gate": "h", "qubits": [0]}],
            },
        }
        path = tmp_path / "nested.json"
        path.write_text(json.dumps(payload))
        loaded = load_circuit(path, config)
        assert loaded.plan.n_input == 1
        (gates,) = loaded.plan.widgets.values()
        assert gates == (gate(G.H, 0), gate(G.H, 0))

    def test_invalid_json_rejected(self, tmp_path, config):
        path = tmp_path / "bad.json"
        path.write_text('{"blocks": ')
        with pytest.raises(CircuitError, match="not valid JSON"):
            load_circuit(path, config)

    def test_garbage_rejected(self, tmp_path, config):
        path = tmp_path / "bad.qasm"
        path.write_text("definitely not a circuit")
        with pytest.raises(CircuitError):
            load_circuit(path, config)

    def test_missing_file_is_oserror(self, tmp_path, config):
        with pytest.raises(OSError):
            load_circuit(tmp_path / "absent.qasm", config)


class TestCompilePlan:
    def test_tables_complete_and_clifford_total(self, qft3_path, config):
        plan = load_circuit(qft3_path, config).plan
        algo, n_clifford = compile_plan(plan, config)
        assert set(algo.compiled) == set(plan.widgets)
        assert set(algo.preps) == set(plan.widgets)
        expected = sum(plan.multiplicity[w] * transpile(plan.widgets[w]).n_Clifford_init
                       for w in plan.widgets)
        assert n_clifford == expected > 0

    def test_multiplicity_scales_clifford_total(self, tmp_path, config):
        gates = [gate(G.H, 0), gate(G.CZ, 0, 1)]
        body = emit_qasm(gates, 2)
        payload = {"format": 1, "n_input": 2,
                   "distinct_widgets": {"a": body},
                   "sequence": ["a"] * 5}
        path = tmp_path / "w.json"
        path.write_text(json.dumps(payload))
        plan = load_circuit(path, config).plan
        _, n_clifford = compile_plan(plan, config)
        assert n_clifford == 5 * transpile(gates).n_Clifford_init

    def test_cache_round_trip(self, qft3_path, config, tmp_path):
        plan = load_circuit(qft3_path, config).plan
        cache = tmp_path / "cache"
        algo_first, _ = compile_plan(plan, config, cache_dir=cache)
        assert any(cache.iterdir())
        algo_again, _ = compile_plan(plan, config, cache_dir=cache)
        for wid in plan.widgets:
            assert algo_again.compiled[wid] == algo_first.compiled[wid]


class TestRunEstimate:
    def test_writes_parseable_csv(self, qft3_path, tmp_path):
        result = run_estimate(qft3_path, out_dir=tmp_path / "out")
        text = (tmp_path / "out" / "report.csv").read_text()
        assert parse_csv(text) == result.report

    def test_provenance_keys(self, qft3_path):
        result = run_estimate(qft3_path)
        assert set(result.report.provenance) == {
            "config_hash", "circuit_hash", "tool_version"}
        assert result.report.provenance["tool_version"] == "0.1.0"

    def test_circuit_hash_is_sha256_of_file_bytes(self, tmp_path):
        body = emit_qasm([gate(G.H, 0), gate(G.CZ, 0, 1), gate(G.T, 1)], 2)
        table = {"format": 1, "n_input": 2,
                 "distinct_widgets": {"a": body}, "sequence": ["a", "a"]}
        nested = {"blocks": {"main": [{"gate": "h", "qubits": [0]},
                                      {"gate": "t", "qubits": [0]}]}}
        for name, text in (("crlf.qasm", body),
                           ("table.json", json.dumps(table, indent=1)),
                           ("nested.json", json.dumps(nested, indent=1))):
            path = tmp_path / name
            path.write_bytes(text.replace("\n", "\r\n").encode())
            result = run_estimate(path)
            assert (result.report.provenance["circuit_hash"]
                    == hashlib.sha256(path.read_bytes()).hexdigest()[:16])

    def test_deterministic(self, qft3_path):
        a = run_estimate(qft3_path)
        b = run_estimate(qft3_path)
        assert a.report == b.report

    def test_config_changes_hash_and_result(self, qft3_path, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("timing:\n  n_algo_reps: 3\n")
        base = run_estimate(qft3_path)
        tuned = run_estimate(qft3_path, config_path=cfg)
        assert (tuned.report.provenance["config_hash"]
                != base.report.provenance["config_hash"])
        assert tuned.report.value(48) == pytest.approx(
            3 * base.report.value(48))

    def test_infeasible_config_raises(self, qft3_path, tmp_path):
        cfg = tmp_path / "tiny.yaml"
        cfg.write_text("physical:\n  n_phys_per_module: 5000\n")
        with pytest.raises(EstimationError):
            run_estimate(qft3_path, config_path=cfg)

    def test_rotation_free_reports_na_precision(self, tmp_path):
        path = tmp_path / "cliff.qasm"
        path.write_text(emit_qasm([gate(G.H, 0), gate(G.CZ, 0, 1),
                                   gate(G.H, 1)], 2))
        result = run_estimate(path)
        assert result.report.value(16) is None
        assert ",n/a," in render_csv(result.report)


@pytest.fixture(scope="module")
def qft3_algo(qft3_path, config):
    plan = load_circuit(qft3_path, config).plan
    algo, _ = compile_plan(plan, config)
    return algo


class TestSweeps:
    def test_pipe_sweep_single_module_is_flat(self, qft3_algo, config):
        rows = run_pipe_sweep(qft3_algo, config, [1, 2, 4, 8])
        assert [r.label for r in rows] == ["1", "2", "4", "8"]
        assert rows[0].normalized_runtime == 1.0
        assert all(r.normalized_runtime == 1.0 for r in rows)
        assert len({r.d for r in rows}) == 1

    def test_pipe_sweep_rejects_empty(self, qft3_algo, config):
        with pytest.raises(ValueError):
            run_pipe_sweep(qft3_algo, config, [])

    def test_decoder_sweep_astra_at_most_mwpm(self, qft3_algo, config):
        rows = run_decoder_sweep(qft3_algo, config,
                                 ["mwpm-circuit", "astra-gnn"])
        mwpm, astra = rows
        assert mwpm.label == "mwpm-circuit" and astra.label == "astra-gnn"
        assert astra.d <= mwpm.d
        assert mwpm.normalized_runtime == 1.0

    def test_decoder_sweep_unknown_preset(self, qft3_algo, config):
        with pytest.raises(ValueError, match="unknown scaling presets"):
            run_decoder_sweep(qft3_algo, config, ["union-find"])

    def test_sweep_csv_shape(self, qft3_algo, config):
        rows = run_pipe_sweep(qft3_algo, config, [1, 2])
        text = render_sweep_csv(rows, "n_inter_pipes")
        lines = text.strip().splitlines()
        assert lines[0] == "n_inter_pipes,code_distance,t_hardware,normalized_runtime"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "1" and float(first[3]) == 1.0


class TestVerifyCircuit:
    def test_qft3_identity(self, qft3_path, config):
        loaded = load_circuit(qft3_path, config)
        assert verify_circuit(loaded, seed=7) >= 1 - 1e-9

    def test_repeated_widget_sequence(self, tmp_path, config):
        body = emit_qasm([gate(G.H, 0), gate(G.CZ, 0, 1), gate(G.T, 1)], 2)
        payload = {"format": 1, "n_input": 2,
                   "distinct_widgets": {"a": body},
                   "sequence": ["a", "a"]}
        path = tmp_path / "seq.json"
        path.write_text(json.dumps(payload))
        loaded = load_circuit(path, config)
        assert verify_circuit(loaded, seed=11) >= 1 - 1e-9

    def test_unexpanded_sequence_rejected(self, qft3_path, config):
        loaded = load_circuit(qft3_path, config)
        symbolic = LoadedCircuit(loaded.plan, None, loaded.data)
        with pytest.raises(CircuitError, match="too large"):
            verify_circuit(symbolic)
