"""End-to-end pipeline: input dispatch, caching, estimation runs, sweeps."""

import hashlib
import json
import sys
import threading
from dataclasses import replace
from pathlib import Path

import pytest

from oracles import pipe_sweep_per_point
from pool import REFS, benchmark_inputs, benchmark_pool_circuit
from qre import compiler, pipeline, widgetizer
from qre.architecture import EstimationError
from qre.circuit import (
    CircuitError,
    emit_qasm,
    gate,
    generate_qft,
    transpile,
)
from qre.circuit import GateKind as G
from qre.cli import main
from qre.config import ArchConfig, ConfigError
from qre.estimator import compute_timing, solve_distance_and_factory
from qre.pipeline import (
    SEQUENCE_LIMIT,
    compile_plan,
    load_circuit,
    render_sweep_csv,
    run_decoder_sweep,
    run_estimate,
    run_pipe_sweep,
    verify_circuit,
)
from qre.report import parse_csv, render_csv
from qre.scalefit import SCALING_PRESETS
from qre.widgetizer import WidgetPlan


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
        assert loaded.expand()[0] == ("w0",)
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
        assert loaded.expand()[0] == ("a", "a", "a")
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
        assert len(split.expand()[0]) == 8
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

    # Widget tables that parse but make no plan: (n_input, table, sequence,
    # the plan's error). A commented-out qreg satisfies the declared-width
    # check, so the gate beyond n_input reaches the plan.
    PLAN_ERRORS = {
        "empty-sequence": (1, {"A": "qreg q[1]; h q[0];"}, [],
                           "widget sequence is empty"),
        "undefined-widget": (1, {"A": "qreg q[1]; h q[0];"}, ["A", "C"],
                             "sequence references undefined widget 'C'"),
        "gate-beyond-n-input": (
            1, {"A": "// qreg c[1]\nqreg q[3];\nh q[2];"}, ["A"],
            "widget 'A' touches qubit 2, beyond n_input=1"),
        "n-input-zero": (0, {"A": ""}, ["A"], "n_input must be >= 1"),
    }

    @pytest.mark.parametrize("case", sorted(PLAN_ERRORS))
    def test_widget_table_plan_errors_name_the_file(self, case, tmp_path,
                                                    config):
        n_input, table, sequence, message = self.PLAN_ERRORS[case]
        path = tmp_path / "table.json"
        path.write_text(json.dumps({"n_input": n_input, "sequence": sequence,
                                    "distinct_widgets": table}))
        with pytest.raises(CircuitError) as exc:
            load_circuit(path, config)
        assert str(exc.value) == f"{path}: {message}"

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
        assert all(record.n_sub_steps > 0 for record in algo.compiled.values())
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


def cache_entries(cache):
    return sorted(p.name for p in cache.iterdir())


def estimate_and_sweep(path, config_path, cache_dir):
    """Report CSV plus 64-pipe and three-preset sweep CSVs of one run."""
    result = run_estimate(path, config_path=config_path, cache_dir=cache_dir)
    pipes = run_pipe_sweep(result.algo, result.config, range(1, 65))
    presets = run_decoder_sweep(result.algo, result.config,
                                ("mwpm-circuit", "mwpm-code-capacity",
                                 "astra-gnn"))
    return (render_csv(result.report)
            + render_sweep_csv(pipes, "n_inter_pipes")
            + render_sweep_csv(presets, "preset"))


@pytest.fixture(scope="module")
def pool3_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("pool") / "nested3.json"
    path.write_text(benchmark_pool_circuit(3))
    return path


def refuse(name):
    def refused(*args, **kwargs):
        raise AssertionError(f"{name} ran on a warm cache")
    return refused


class TestWidgetCache:
    @pytest.mark.parametrize("circuit", ["qft3", "pool3"])
    @pytest.mark.parametrize("modules", ["default", "small"])
    def test_warm_run_compiles_nothing_and_matches_cold(
            self, circuit, modules, qft3_path, pool3_path, tmp_path,
            monkeypatch):
        path = qft3_path if circuit == "qft3" else pool3_path
        config_path = None
        if modules == "small":
            # several modules per leg: the crossings read the cached spans
            config_path = tmp_path / "small.yaml"
            config_path.write_text("physical:\n  n_phys_per_module: 250000\n")
        cache = tmp_path / "cache"
        uncached = estimate_and_sweep(path, config_path, None)
        cold = estimate_and_sweep(path, config_path, cache)
        for name in ("transpile", "compile_widget", "schedule_preparation"):
            monkeypatch.setattr(pipeline, name, refuse(name))
        warm = estimate_and_sweep(path, config_path, cache)
        assert warm == cold == uncached
        if modules == "small" and circuit == "pool3":
            result = run_estimate(path, config_path=config_path,
                                  cache_dir=cache)
            assert result.selection.layout.n_per_leg > 1

    def test_fan_out_keys_separate_entries(self, pool3_path, tmp_path):
        cache = tmp_path / "cache"
        plan = load_circuit(pool3_path, ArchConfig()).plan
        records = {}
        for fan_out in (2, 4):
            cfg = ArchConfig(fan_out=fan_out)
            records[fan_out] = compile_plan(plan, cfg, cache)[0].compiled
            assert records[fan_out] == compile_plan(plan, cfg)[0].compiled
        assert len(cache_entries(cache)) == 2 * plan.n_distinct_widgets
        assert records[2] != records[4]
        for fan_out in (2, 4):  # now warm
            cfg = ArchConfig(fan_out=fan_out)
            assert compile_plan(plan, cfg, cache)[0].compiled == records[fan_out]

    @pytest.mark.parametrize("content", ["[]", "null", '"x"', "{}", "",
                                         "format-2", "other-key", "missing",
                                         "directory", "t_nodes", "n_nodes",
                                         "n_logical", "prep_spans"])
    def test_bad_entry_is_recomputed_and_overwritten(
            self, content, qft3_path, config, tmp_path):
        cache = tmp_path / "cache"
        plan = load_circuit(qft3_path, config).plan
        fresh = compile_plan(plan, config)[0].compiled
        compile_plan(plan, config, cache)
        (entry,) = cache.iterdir()
        good = json.loads(entry.read_text())
        if content == "directory":
            entry.unlink()
            entry.mkdir()
        else:
            bad = dict(good)
            if content == "format-2":
                bad["format"] = 2
            elif content == "other-key":
                bad["key"] = "0" * 32
            elif content == "missing":
                del bad["prep_spans"]
            elif content in good:  # right key and format, wrong type
                bad[content] = {"t_nodes": "abcdefgh", "n_nodes": "12",
                                "n_logical": True,
                                "prep_spans": [[1, "2"]]}[content]
            else:
                bad = None
            entry.write_text(content if bad is None else json.dumps(bad))
        assert compile_plan(plan, config, cache)[0].compiled == fresh
        assert json.loads(entry.read_text()) == good
        assert cache_entries(cache) == [entry.name]

    def test_bad_entry_does_not_fail_the_cli(self, qft3_path, tmp_path,
                                             capsys):
        cache = tmp_path / "cache"
        assert main(["estimate", str(qft3_path), "--cache-dir", str(cache)]) == 0
        first = capsys.readouterr().out
        (entry,) = cache.iterdir()
        entry.write_text("[]")
        assert main(["estimate", str(qft3_path), "--cache-dir", str(cache)]) == 0
        assert capsys.readouterr().out == first

    def test_stale_temp_files_do_not_stop_a_save(self, qft3_path, config,
                                                 tmp_path):
        cache = tmp_path / "cache"
        plan = load_circuit(qft3_path, config).plan
        key = compiler.cache_key(plan.digest("w0"), plan.n_input,
                                 config.fan_out)
        cache.mkdir()
        (cache / f"widget-{key}.tmp").mkdir()
        (cache / f"widget-{key}.stale.tmp").write_text("half a rec")
        compile_plan(plan, config, cache)
        record = compiler.load_cached(cache, key)
        assert record == compile_plan(plan, config)[0].compiled["w0"]
        assert len(cache_entries(cache)) == 3

    def test_format_3_entry_is_recomputed_and_overwritten(
            self, qft3_path, config, tmp_path):
        cache = tmp_path / "cache"
        plan = load_circuit(qft3_path, config).plan
        fresh = compile_plan(plan, config)[0].compiled["w0"]
        compile_plan(plan, config, cache)
        (entry,) = cache.iterdir()
        payload = json.loads(entry.read_text())
        assert payload["format"] == compiler.CACHE_FORMAT == 4
        payload["format"] = 3
        payload["n_nodes"] += 1  # a stale record must not be read
        entry.write_text(json.dumps(payload))
        assert compile_plan(plan, config, cache)[0].compiled["w0"] == fresh
        assert json.loads(entry.read_text())["format"] == 4
        assert compiler.load_cached(cache, payload["key"]) == fresh

    def test_entries_are_keyed_on_the_plan_digests(self, pool3_path, config,
                                                   tmp_path):
        plan = load_circuit(pool3_path, config).plan
        compile_plan(plan, config, tmp_path)
        keys = {compiler.cache_key(plan.digest(wid), plan.n_input,
                                   config.fan_out)
                for wid in plan.widgets}
        assert cache_entries(tmp_path) == sorted(f"widget-{key}.json"
                                                 for key in keys)
        assert len(keys) == plan.n_distinct_widgets == 120

    def test_save_creates_a_missing_directory_on_first_write(
            self, qft3_path, config, tmp_path, monkeypatch):
        plan = load_circuit(qft3_path, config).plan
        record = compile_plan(plan, config)[0].compiled["w0"]
        cache = tmp_path / "new" / "cache"
        made = []
        mkdir = Path.mkdir

        def counting_mkdir(self, *args, **kwargs):
            made.append(self)
            return mkdir(self, *args, **kwargs)

        monkeypatch.setattr(Path, "mkdir", counting_mkdir)
        compiler.save_cached(cache, "k0", record)
        assert cache in made
        first = len(made)
        for key in ("k1", "k2"):
            compiler.save_cached(cache, key, record)
        assert len(made) == first
        assert cache_entries(cache) == [f"widget-k{i}.json" for i in range(3)]
        assert compiler.load_cached(cache, "k2") == record

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        record = compiler.WidgetRecord(1, 1, 0, (0,), (), (), 0, 1,
                                       object(), ())
        with pytest.raises(TypeError):
            compiler.save_cached(tmp_path, "k", record)
        assert cache_entries(tmp_path) == []

    def test_concurrent_writers_of_one_key(self, qft3_path, config, tmp_path):
        plan = load_circuit(qft3_path, config).plan
        record = compile_plan(plan, config)[0].compiled["w0"]
        errors = []

        def write():
            try:
                for _ in range(25):
                    compiler.save_cached(tmp_path, "k", record)
            except Exception as exc:  # reported through the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=write) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert cache_entries(tmp_path) == ["widget-k.json"]
        assert compiler.load_cached(tmp_path, "k") == record


class TestRunEstimate:
    def test_writes_parseable_csv(self, qft3_path, tmp_path):
        result = run_estimate(qft3_path, out_dir=tmp_path / "out")
        text = (tmp_path / "out" / "report.csv").read_text()
        assert parse_csv(text) == result.report

    def test_nested_run_never_expands_the_sequence(self, pool3_path,
                                                   monkeypatch):
        monkeypatch.setattr(pipeline, "iter_leaf_sequence",
                            refuse("iter_leaf_sequence"))
        monkeypatch.setattr(widgetizer, "iter_leaf_sequence",
                            refuse("iter_leaf_sequence"))
        result = run_estimate(pool3_path)
        assert result.algo.plan.n_widgets > 1

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
def bench_inputs():
    return {name: (suffix, text) for name, suffix, text in benchmark_inputs()}


class TestBenchmarkReports:
    """The benchmark's ``qft`` input and its 16 ``nested`` pool circuits,
    estimated on a cold cache: inputs and report CSVs byte-identical to the
    sha256s recorded in perfbench/refs.json (read, never written)."""

    @pytest.mark.parametrize("name", ["qft20"] + [f"nested{s}"
                                                  for s in range(16)])
    def test_cold_report_matches_reference(self, name, bench_inputs,
                                           tmp_path, monkeypatch):
        monkeypatch.delenv("QRE_CACHE_DIR", raising=False)
        ref = json.loads(REFS.read_text())[name]
        suffix, text = bench_inputs[name]
        data = text.encode()
        assert hashlib.sha256(data).hexdigest() == ref["input_sha256"]
        path = tmp_path / f"{name}{suffix}"
        path.write_bytes(data)
        report = run_estimate(path, cache_dir=tmp_path / "cache").report
        assert (hashlib.sha256(render_csv(report).encode()).hexdigest()
                == ref["report_sha256"])


@pytest.fixture(scope="module")
def qft3_algo(qft3_path, config):
    plan = load_circuit(qft3_path, config).plan
    algo, _ = compile_plan(plan, config)
    return algo


@pytest.fixture(scope="module")
def pool3_small_modules(pool3_path):
    """Pool circuit 3 on modules small enough for two per leg."""
    config = ArchConfig(n_phys_per_module=250_000)
    algo, _ = compile_plan(load_circuit(pool3_path, config).plan, config)
    return config, algo


@pytest.fixture(scope="module")
def qft20_small_modules():
    """QFT-20, one widget, on modules small enough for two per leg: only
    its preparation crossings depend on the pipe count."""
    config = ArchConfig(n_phys_per_module=300_000)
    plan = WidgetPlan.from_sequence(20, {"w0": generate_qft(20)}, ["w0"])
    return config, compile_plan(plan, config)[0]


def count_timing_calls(monkeypatch):
    """Pipe counts of the `compute_timing` calls the sweeps make."""
    calls = []
    timing = pipeline.compute_timing

    def counted(config, algo, sel):
        calls.append(config.n_inter_pipes)
        return timing(config, algo, sel)

    monkeypatch.setattr(pipeline, "compute_timing", counted)
    return calls


class TestSweeps:
    @pytest.mark.parametrize("t_inter", [1e-6, 1e-4])
    @pytest.mark.parametrize("values", [range(1, 129), (64, 1, 64, 3)],
                             ids=["1-128", "unsorted-repeated"])
    def test_pipe_sweep_matches_per_point_timing(self, pool3_small_modules,
                                                 t_inter, values):
        config, algo = pool3_small_modules
        config = replace(config, t_inter=t_inter)
        rows = run_pipe_sweep(algo, config, values)
        expected = pipe_sweep_per_point(algo, config, values)
        assert [(r.label, r.d, r.t_hardware) for r in rows] == expected
        assert [r.normalized_runtime for r in rows] == [
            t / expected[0][2] for _, _, t in expected]
        assert len({r.t_hardware for r in rows}) > 1

    def test_one_module_sweep_times_once(self, pool3_path, config,
                                         monkeypatch):
        algo, _ = compile_plan(load_circuit(pool3_path, config).plan, config)
        calls = count_timing_calls(monkeypatch)
        rows = run_pipe_sweep(algo, config, range(1, 65))
        assert calls == [1]
        assert len(rows) == 64
        assert all(r.t_hardware == rows[0].t_hardware for r in rows)

    @pytest.mark.parametrize("machine", ["pool3_small_modules",
                                         "qft20_small_modules"])
    def test_sweep_times_each_rounds_tuple_once(self, request, machine,
                                                monkeypatch):
        config, algo = request.getfixturevalue(machine)
        sel = solve_distance_and_factory(config, algo.est, algo.l_prep_total)
        assert sel.layout.n_per_leg == 2
        inputs = algo.timing_inputs(sel.layout)
        first_of_each = {}
        for pipes in range(1, 129):
            first_of_each.setdefault(inputs.pipe_rounds(pipes), pipes)
        calls = count_timing_calls(monkeypatch)
        run_pipe_sweep(algo, config, range(1, 129))
        assert calls == list(first_of_each.values())
        assert 1 < len(calls) < 128

    def test_estimate_and_sweeps_solve_each_config_once(self, pool3_path,
                                                        monkeypatch):
        solved = []
        solve = pipeline.solve_distance_and_factory

        def counted(config, est, l_prep_total):
            solved.append(config)
            return solve(config, est, l_prep_total)

        monkeypatch.setattr(pipeline, "solve_distance_and_factory", counted)
        presets = ("mwpm-circuit", "mwpm-code-capacity", "astra-gnn")
        result = run_estimate(pool3_path)
        algo, config = result.algo, result.config
        pipe_rows = run_pipe_sweep(algo, config, range(1, 65))
        preset_rows = run_decoder_sweep(algo, config, presets)
        # the mwpm-circuit preset is the default config, the estimate's own
        assert len(solved) == len(set(solved)) == 3

        assert [(r.label, r.d, r.t_hardware) for r in pipe_rows] == (
            pipe_sweep_per_point(algo, config, range(1, 65)))
        fresh = []
        for name in presets:
            kappa, p_thresh = SCALING_PRESETS[name]
            cfg = replace(config, kappa=kappa, p_thresh=p_thresh)
            sel = solve_distance_and_factory(cfg, algo.est, algo.l_prep_total)
            fresh.append((sel.d, compute_timing(cfg, algo, sel).t_hardware_total))
        assert [(r.d, r.t_hardware) for r in preset_rows] == fresh

    @pytest.mark.parametrize("values", [[0], [-1], [2, 0]])
    def test_pipe_counts_below_one_fail_config_validation(
            self, pool3_small_modules, values):
        config, algo = pool3_small_modules
        with pytest.raises(ConfigError,
                           match="architecture.n_inter_pipes must be >= 1"):
            run_pipe_sweep(algo, config, values)

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

    def test_unexpanded_sequence_rejected(self, tmp_path, monkeypatch):
        path = tmp_path / "long.json"
        path.write_text(json.dumps({"blocks": {
            "main": [{"block": "w", "repeat": 10**6}],
            "w": [{"gate": "h", "qubits": [0]}, {"gate": "t", "qubits": [0]}]}}))
        loaded = load_circuit(path, ArchConfig())
        assert loaded.plan.n_widgets == 10**6 > SEQUENCE_LIMIT

        def expanded(root):
            raise AssertionError("the sequence was expanded")
        monkeypatch.setattr(pipeline, "iter_leaf_sequence", expanded)
        with pytest.raises(CircuitError, match="too large"):
            verify_circuit(loaded)

    BELL = [{"gate": "h", "qubits": [0]}, {"gate": "cx", "qubits": [0, 1]},
            {"gate": "t", "qubits": [1]}]
    SOURCES = {
        "qasm": "qreg q[3];\nh q[0];\ncx q[0],q[1];\nt q[1];\n",
        "table": json.dumps({
            "n_input": 3, "sequence": ["a", "b", "b"],
            "distinct_widgets": {
                "a": "qreg q[3]; h q[0]; cx q[0],q[1]; t q[1];",
                "b": "qreg q[3]; s q[1];"}}),
        "nested": json.dumps({"n_input": 3, "blocks": {"main": BELL}}),
    }

    @pytest.mark.parametrize("kind", sorted(SOURCES))
    def test_tampered_plan_fails(self, tmp_path, config, kind):
        path = tmp_path / "circuit"
        path.write_text(self.SOURCES[kind])
        loaded = load_circuit(path, config)
        assert verify_circuit(loaded, seed=3) >= 1 - 1e-9
        plan = loaded.plan
        idle = plan.n_input - 1
        plan.widgets[plan.first] += (gate(G.X, idle),)
        assert verify_circuit(loaded, seed=3) < 0.5

    def test_split_plan_verifies_against_its_source(self, tmp_path):
        path = tmp_path / "nested.json"
        path.write_text(json.dumps({"blocks": {"main": [
            {"gate": "h", "qubits": [0]}, {"gate": "cx", "qubits": [0, 1]},
            {"gate": "t", "qubits": [1]}, {"gate": "h", "qubits": [2]},
            {"gate": "rz", "qubits": [2], "angle": 0.3},
            {"gate": "cx", "qubits": [1, 2]}]}}))
        loaded = load_circuit(path, ArchConfig(max_gates=3, slice_moments=1))
        plan = loaded.plan
        sequence, source = loaded.expand()
        assert len(sequence) == plan.n_widgets > 1
        in_plan_order = [g for wid in sequence for g in plan.widgets[wid]]
        assert in_plan_order != source
        assert sorted(map(repr, in_plan_order)) == sorted(map(repr, source))
        assert verify_circuit(loaded, seed=5) >= 1 - 1e-9
