"""End-to-end pipeline: input dispatch, caching, estimation runs, sweeps."""

import gc
import hashlib
import json
import math
import sys
import tempfile
import threading
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import encode_spans, gate, pipe_sweep_per_point
from pool import (
    REFS,
    SPLIT_CRITERIA,
    benchmark_inputs,
    benchmark_pool_circuit,
)
from subproc import run_python
from qre import cli, compiler, estimator, pipeline, widgetizer
from qre.architecture import EstimationError
from qre.circuit import (
    CircuitError,
    Gate,
    GateOp,
    emit_qasm,
    generate_qft,
    parse_qasm,
    transpile,
)
from qre.circuit import GateKind as G
from qre.cli import main
from qre.config import ArchConfig, ConfigError
from qre.estimator import (
    CompiledAlgorithm,
    compute_timing,
    solve_distance_and_factory,
)
from qre.pipeline import (
    SEQUENCE_LIMIT,
    compile_circuit,
    compile_plan,
    load_circuit,
    render_sweep_csv,
    run_decoder_sweep,
    run_estimate,
    run_pipe_sweep,
    verify_circuit,
)
from qre.prepsched import PrepTuple
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
        assert loaded.expand()[0] == ("n0",)

    H = {"gate": "h", "qubits": [0]}
    BAD_INPUTS = {
        "qasm": ("bad.qasm", "qreg q[1];\nfoo q[0];\n", {}),
        "qasm-no-register": ("bad.qasm", "qreg q[0];\n", {}),
        "widget-table": ("bad.json", json.dumps({
            "n_input": 1, "sequence": ["B", "A"],
            "distinct_widgets": {"A": "qreg q[1]; foo q[0];",
                                 "B": "qreg q[1]; h q[0];"}}), {}),
        "widget-sequence": ("bad.json", json.dumps({
            "n_input": 1, "sequence": ["A", "C"],
            "distinct_widgets": {"A": "qreg q[1]; h q[0];"}}), {}),
        "nested-item": ("bad.json", json.dumps({"n_input": 2, "blocks": {
            "main": [H, {"gate": "cx", "qubits": [-1, 0]}]}}), {}),
        "nested-structure": ("bad.json", json.dumps({"blocks": {
            "main": [H, {"block": "a"}], "a": [{"block": "main"}]}}), {}),
        "utf8-qasm": ("bad.qasm", b"\xffqreg q[1];\nh q[0];\n", {}),
        "utf8-json": ("bad.json",
                      b'{"blocks": {"main": [{"gate": "h\xff", "qubits": [0]}]}}',
                      {}),
        "json": ("bad.json", '{"blocks": ', {}),
    }

    @pytest.mark.parametrize("case", sorted(BAD_INPUTS))
    def test_input_error_names_the_file_once(self, tmp_path, case):
        name, data, settings = self.BAD_INPUTS[case]
        path = tmp_path / name
        if isinstance(data, bytes):
            path.write_bytes(data)
        else:
            path.write_text(data)
        with pytest.raises(CircuitError) as info:
            load_circuit(path, ArchConfig(**settings))
        message = str(info.value)
        assert message.startswith(f"{path}: ")
        assert message.count(str(path)) == 1

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

    # Widget tables that make no plan: (n_input, table, sequence, the
    # error). A commented-out qreg is not a declaration, so the real one is
    # compared with n_input.
    PLAN_ERRORS = {
        "empty-sequence": (1, {"A": "qreg q[1]; h q[0];"}, [],
                           "widget sequence is empty"),
        "undefined-widget": (1, {"A": "qreg q[1]; h q[0];"}, ["A", "C"],
                             "sequence references undefined widget 'C'"),
        "gate-beyond-n-input": (
            1, {"A": "// qreg c[1]\nqreg q[3];\nh q[2];"}, ["A"],
            "widget 'A' declares 3 qubits, expected 1"),
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
        algo = compile_plan(plan, config)
        assert set(algo.compiled) == set(plan.widgets)
        assert all(record.n_sub_steps > 0 for record in algo.compiled.values())
        expected = sum(plan.multiplicity[w] * transpile(plan.widgets[w]).n_Clifford_init
                       for w in plan.widgets)
        assert algo.est.n_clifford_init == expected > 0

    def test_multiplicity_scales_clifford_total(self, tmp_path, config):
        gates = [gate(G.H, 0), gate(G.CZ, 0, 1)]
        body = emit_qasm(gates, 2)
        payload = {"format": 1, "n_input": 2,
                   "distinct_widgets": {"a": body},
                   "sequence": ["a"] * 5}
        path = tmp_path / "w.json"
        path.write_text(json.dumps(payload))
        plan = load_circuit(path, config).plan
        n_clifford = compile_plan(plan, config).est.n_clifford_init
        assert n_clifford == 5 * transpile(gates).n_Clifford_init

    def test_cache_round_trip(self, qft3_path, config, tmp_path):
        plan = load_circuit(qft3_path, config).plan
        cache = tmp_path / "cache"
        algo_first = compile_plan(plan, config, cache_dir=cache)
        assert any(cache.iterdir())
        algo_again = compile_plan(plan, config, cache_dir=cache)
        for wid in plan.widgets:
            assert algo_again.compiled[wid] == algo_first.compiled[wid]


class TestColdPathConstructors:
    """A cold widget record builds no Python object per gate, gadget or
    star: ``_widget_record`` never enters a constructor written in Python.
    A deterministic count of calls, seen through ``sys.setprofile``."""

    WATCHED = {
        Gate.__init__.__code__: "Gate.__init__",
        Gate.__post_init__.__code__: "Gate.__post_init__",
        GateOp.__new__.__code__: "GateOp.__new__",
        compiler.Measurement.__new__.__code__: "Measurement.__new__",
        PrepTuple.__new__.__code__: "PrepTuple.__new__",
        # A positive control: the profile hook sees Python calls.
        pipeline.transpile.__code__: "transpile",
    }

    def calls(self, gates, n_input, config):
        seen = Counter()

        def profile(frame, event, arg):
            if event == "call" and frame.f_code in self.WATCHED:
                seen[self.WATCHED[frame.f_code]] += 1

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            record = pipeline._widget_record(gates, n_input, config.fan_out)
        finally:
            sys.setprofile(previous)
        assert record.n_T + record.n_Rz > 0
        return seen

    def test_qft8(self, config):
        assert self.calls(generate_qft(8), 8, config) == {"transpile": 1}

    def test_ccx_cphase_and_generic_rz(self, config):
        gates = [gate(G.H, 0), gate(G.CCX, 0, 1, 2),
                 gate(G.CPhase, 1, 2, angle=0.3), gate(G.Rz, 0, angle=0.7),
                 gate(G.CPhase, 0, 2, angle=math.pi / 2), gate(G.T, 1),
                 gate(G.Rz, 2, angle=-math.pi / 4), gate(G.SWAP, 0, 2)]
        assert self.calls(gates, 3, config) == {"transpile": 1}


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


def _record(n_nodes, t_nodes=(), rz_nodes=(), prep_spans=(),
            output_nodes=None):
    if output_nodes is None:
        output_nodes = (n_nodes - 2, n_nodes - 1)
    return compiler.WidgetRecord(
        n_nodes=n_nodes, n_edges=n_nodes - 1,
        output_text=compiler.encode_nodes(output_nodes),
        t_text=compiler.encode_nodes(t_nodes),
        rz_text=compiler.encode_nodes(rz_nodes),
        n_consump_steps=len(t_nodes) + len(rz_nodes),
        n_logical=n_nodes, n_clifford=3,
        spans_text=encode_spans(prep_spans))


# Widget sets by digest: one widget; one with no T, no Rz and no preparation
# sub-step; such a widget beside ones whose sub-steps differ in length.
HAND_MADE_SETS = {
    "single": {"a" * 64: _record(5, (2,), (3,), ((1, 2), (4,)))},
    "empty": {"b" * 64: _record(2)},
    "mixed": {"c" * 64: _record(6, (2, 4), (), ((1,), (2, 2, 5), ())),
              "d" * 64: _record(2),
              "e" * 64: _record(4, (), (2,), ((3, 1),))},
}


def _all_ints(values):
    return type(values) is tuple and all(type(v) is int for v in values)


# The timing section of each small-module config of the warm-run test: the
# default inter-module time, under which no report row depends on the
# preparation crossings, and a slow one, under which 7 rows of pool circuit
# 3 do.
WARM_TIMING = {"small": "", "slow-links": "timing:\n  t_inter: 1.0e-4\n"}


class TestWidgetCache:
    @pytest.mark.parametrize("circuit", ["qft3", "pool3"])
    @pytest.mark.parametrize("modules", ["default", "small", "slow-links"])
    def test_warm_run_compiles_nothing_and_matches_cold(
            self, circuit, modules, qft3_path, pool3_path, tmp_path,
            monkeypatch):
        path = qft3_path if circuit == "qft3" else pool3_path
        config_path = None
        if modules != "default":
            # several modules per leg: the crossings read the cached spans
            config_path = tmp_path / "small.yaml"
            config_path.write_text("physical:\n  n_phys_per_module: 250000\n"
                                   + WARM_TIMING[modules])
        cache = tmp_path / "cache"
        uncached = estimate_and_sweep(path, config_path, None)
        cold = estimate_and_sweep(path, config_path, cache)
        for name in ("transpile", "compile_widget", "schedule_preparation"):
            monkeypatch.setattr(pipeline, name, refuse(name))
        warm = estimate_and_sweep(path, config_path, cache)
        assert warm == cold == uncached
        assert len(list(cache.glob("plan-*.json"))) == 1
        assert len(list(cache.glob("widgets-*.json"))) == 1
        if modules != "default" and circuit == "pool3":
            result = run_estimate(path, config_path=config_path,
                                  cache_dir=cache)
            assert result.selection.layout.n_per_leg > 1
        if modules == "slow-links" and circuit == "pool3":
            # Here the crossings move the report, so a warm run that
            # decoded the spans wrongly would not match the cold one.
            monkeypatch.setattr(estimator, "substep_crossings",
                                lambda spans, n_logical: Counter())
            dropped = run_estimate(path, config_path=config_path,
                                   cache_dir=cache)
            rows = zip(render_csv(result.report).splitlines(),
                       render_csv(dropped.report).splitlines())
            assert sum(row != other for row, other in rows) == 7

    def test_every_column_is_checked(self):
        """Each ``WidgetRecord`` field is a count, a node list's text or
        the preparation spans' text, so the set reader validates every
        column."""
        assert set(compiler._RECORD_FIELDS) == {
            *compiler._RECORD_COUNTS, *compiler._RECORD_NODES, "spans_text"}

    @pytest.mark.parametrize("name", [f"nested{s}" for s in range(16)]
                             + ["qft3", "qft8", "qft20", "single", "empty",
                                "mixed"])
    def test_load_of_a_save_returns_the_records(self, name, bench_inputs,
                                                config, tmp_path):
        """``load_cached`` of ``save_cached(records)`` gives the records
        back equal, in their order, with every text a string and every
        decoded list a tuple of integers."""
        if name in HAND_MADE_SETS:
            records = HAND_MADE_SETS[name]
        else:
            if name.startswith("nested"):
                path = tmp_path / f"{name}.json"
                path.write_text(bench_inputs[name][1])
                plan = load_circuit(path, config).plan
            else:
                n = int(name.removeprefix("qft"))
                plan = WidgetPlan.from_sequence(n, {"w0": generate_qft(n)},
                                                ["w0"])
            compiled = compile_plan(plan, config).compiled
            records = {plan.digest(wid): compiled[wid] for wid in plan.ids}
        compiler.save_cached(tmp_path, "k", records)
        loaded = compiler.load_cached(tmp_path, "k")
        assert loaded == records
        assert list(loaded) == list(records)
        for record in loaded.values():
            assert type(record) is compiler.WidgetRecord
            assert {type(getattr(record, name)) for name in (
                *compiler._RECORD_NODES, "spans_text")} == {str}
            assert _all_ints(record.output_nodes)
            assert _all_ints(record.t_nodes) and _all_ints(record.rz_nodes)
            assert type(record.prep_spans) is tuple
            assert all(map(_all_ints, record.prep_spans))

    def test_fan_out_keys_separate_entries(self, pool3_path, tmp_path):
        cache = tmp_path / "cache"
        plan = load_circuit(pool3_path, ArchConfig()).plan
        records = {}
        for fan_out in (2, 4):
            cfg = ArchConfig(fan_out=fan_out)
            records[fan_out] = compile_plan(plan, cfg, cache).compiled
            assert records[fan_out] == compile_plan(plan, cfg).compiled
        assert len(cache_entries(cache)) == 2  # one set record per fan-out
        assert records[2] != records[4]
        for fan_out in (2, 4):  # now warm
            cfg = ArchConfig(fan_out=fan_out)
            assert compile_plan(plan, cfg, cache).compiled == records[fan_out]

    @pytest.mark.parametrize("content", ["[]", "null", '"x"', "{}", "",
                                         "format-2", "other-key", "missing",
                                         "missing-digests", "directory",
                                         "t_nodes", "n_nodes", "n_logical",
                                         "prep_spans", "widgets", "record",
                                         "no-record", "short-column",
                                         "long-column", "duplicate-digest",
                                         "digest-type", "true-count",
                                         "float-count", "sub-step",
                                         "non-digit", "minus-sign",
                                         "doubled-separator",
                                         "number-as-text", "leading-space",
                                         "no-final-space", "span-space",
                                         "step-space", "comma"])
    def test_bad_entry_is_recomputed_and_overwritten(
            self, content, qft3_path, config, tmp_path):
        cache = tmp_path / "cache"
        plan = load_circuit(qft3_path, config).plan
        fresh = compile_plan(plan, config).compiled
        compile_plan(plan, config, cache)
        (entry,) = cache.iterdir()
        good = entry.read_text()  # text: a 1.0 left in place equals 1
        assert json.loads(good)["digests"] == [plan.digest("n0")]
        # the texts to break
        assert json.loads(good)["t_text"] == ["0 1 3 4 7 9 "]
        assert json.loads(good)["spans_text"] == ["4 ;8 ;9 ;7 ;"]
        if content == "directory":
            entry.unlink()
            entry.mkdir()
        else:
            bad = json.loads(entry.read_text())
            columns = ["digests", *(f.name for f in fields(compiler.WidgetRecord))]
            if content == "format-2":
                bad["format"] = 2
            elif content == "other-key":
                bad["key"] = "0" * 32
            elif content == "missing":  # a field's column
                del bad["spans_text"]
            elif content == "missing-digests":
                del bad["digests"]
            elif content == "widgets":  # digests as an object, not a list
                bad["digests"] = {plan.digest("n0"): 0}
            elif content == "record":  # a column as an object, not a list
                bad["n_nodes"] = {plan.digest("n0"): bad["n_nodes"][0]}
            elif content == "no-record":
                for name in columns:
                    bad[name] = []
            elif content == "short-column":
                bad["n_edges"] = []
            elif content == "long-column":
                bad["rz_text"].append("")
            elif content == "duplicate-digest":  # every column doubled
                for name in columns:
                    bad[name] = bad[name] * 2
            elif content == "digest-type":
                bad["digests"] = [7]
            elif content == "true-count":
                bad["n_edges"] = [True]
            elif content == "float-count":
                bad["n_clifford"] = [float(bad["n_clifford"][0])]
            elif content == "sub-step":  # the last sub-step left open
                bad["spans_text"] = ["4 ;8 ;9 ;7 "]
            elif content == "non-digit":
                bad["t_text"] = ["0 1 3 x 7 9 "]
            elif content == "minus-sign":
                bad["t_text"] = ["0 1 -3 4 7 9 "]
            elif content == "doubled-separator":
                bad["t_text"] = ["0 1  3 4 7 9 "]
            elif content == "number-as-text":
                bad["spans_text"] = [1]
            elif content == "leading-space":
                bad["output_text"] = [" " + bad["output_text"][0]]
            elif content == "no-final-space":  # one node fewer by count
                bad["t_text"] = ["0 1 3 4 7 9"]
            elif content == "span-space":  # a span with no space before ;
                bad["spans_text"] = ["4 ;8;9 ;7 ;"]
            elif content == "step-space":  # a sub-step led by a space
                bad["spans_text"] = ["4 ; 8 ;9 ;7 ;"]
            elif content == "comma":  # two texts in one
                bad["rz_text"] = [bad["rz_text"][0] + ","]
            elif content in ("t_nodes", "n_nodes", "n_logical",
                             "prep_spans"):
                # right key and format, wrong type
                name, value = {"t_nodes": ("t_text", "abcdefgh"),
                               "n_nodes": ("n_nodes", "12"),
                               "n_logical": ("n_logical", True),
                               "prep_spans": ("spans_text", [[1, 2]])}[content]
                bad[name] = [value]
            else:
                bad = None
            entry.write_text(content if bad is None else json.dumps(bad))
        assert compile_plan(plan, config, cache).compiled == fresh
        assert entry.read_text() == good
        assert cache_entries(cache) == [entry.name]

    def test_bad_entry_does_not_fail_the_cli(self, qft3_path, tmp_path,
                                             capsys):
        cache = tmp_path / "cache"
        assert main(["estimate", str(qft3_path), "--cache-dir", str(cache)]) == 0
        first = capsys.readouterr().out
        (entry,) = cache.glob("widgets-*.json")
        entry.write_text("[]")
        assert main(["estimate", str(qft3_path), "--cache-dir", str(cache)]) == 0
        assert capsys.readouterr().out == first

    def test_warm_one_module_run_decodes_no_text(self, pool3_path, tmp_path,
                                                 monkeypatch):
        """With one module per leg, a warm estimate and its pipe and
        decoder sweeps read only the records' counts: no node list, so no
        handover is walked, and no span."""
        cache = tmp_path / "cache"
        cold = estimate_and_sweep(pool3_path, None, cache)
        assert run_estimate(pool3_path).selection.layout.n_per_leg == 1
        monkeypatch.setattr(compiler, "_decode", refuse("_decode"))
        assert estimate_and_sweep(pool3_path, None, cache) == cold

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.fixed_dictionaries({
        "n_nodes": st.integers(2, 10 ** 12),
        "t_nodes": st.lists(st.integers(0, 10 ** 12), max_size=6).map(tuple),
        "rz_nodes": st.lists(st.integers(0, 10 ** 12), max_size=6).map(tuple),
        "prep_spans": st.lists(st.lists(st.integers(0, 10 ** 6), max_size=4)
                               .map(tuple), max_size=5).map(tuple),
        "output_nodes": st.lists(st.integers(0, 99), max_size=4).map(tuple),
    }), max_size=5))
    def test_random_records_round_trip(self, values):
        """Records with any node lists and spans, empty ones, no sub-step
        and empty sub-steps included, load back equal, and decode to the
        lists they were made from."""
        by_digest = {f"{i:064x}": _record(**v) for i, v in enumerate(values)}
        with tempfile.TemporaryDirectory() as directory:
            compiler.save_cached(directory, "k", by_digest)
            loaded = compiler.load_cached(directory, "k")
        assert loaded == by_digest
        for record, made in zip(loaded.values(), values):
            for name in ("output_nodes", "t_nodes", "rz_nodes", "prep_spans"):
                assert getattr(record, name) == made[name]
            assert (record.n_T, record.n_Rz, record.n_sub_steps) == (
                len(made["t_nodes"]), len(made["rz_nodes"]),
                len(made["prep_spans"]))

    @pytest.mark.parametrize("texts, end, ok", [
        (["1 2 ", "", "30 "], " ", True),
        (["1 2 ", " 30 "], " ", False),     # a later text led by a space
        (["1 2", "30 "], " ", False),       # a text not closed by a space
        (["1 2 ", "3,0 "], " ", False),     # a "," inside a text
        (["1 2 ", "3;"], " ", False),       # a ";" in a node text
        (["1 ;;", "", ";2 30 ;"], ";", True),
        (["1 ;", " 2 ;"], ";", False),      # a later text led by a space
        (["1 ;", "2 ; 3 ;"], ";", False),   # a sub-step led by a space
        (["1 ;", "2 ;3 "], ";", False),     # a sub-step left open
        (["1 ;", "2 ;3;"], ";", False),     # a span not followed by a space
        (["1 ;", "2  ;"], ";", False),      # a doubled space
        (["1 ;", "\u0663 ;"], ";", False),  # a non-ASCII digit
    ])
    def test_text_column_check(self, texts, end, ok):
        if ok:
            compiler._check_texts(texts, end)
        else:
            with pytest.raises(TypeError):
                compiler._check_texts(texts, end)

    def test_stale_temp_files_do_not_stop_a_save(self, qft3_path, config,
                                                 tmp_path):
        cache = tmp_path / "cache"
        plan = load_circuit(qft3_path, config).plan
        digest = plan.digest("n0")
        key = compiler.widget_set_key([digest], plan.n_input, config.fan_out)
        cache.mkdir()
        (cache / f"widgets-{key}.tmp").mkdir()
        (cache / f"widgets-{key}.stale.tmp").write_text("half a rec")
        compile_plan(plan, config, cache)
        records = compiler.load_cached(cache, key)
        assert records == {digest: compile_plan(plan, config).compiled["n0"]}
        assert len(cache_entries(cache)) == 3

    def test_format_3_entry_is_recomputed_and_overwritten(
            self, qft3_path, config, tmp_path):
        """An entry of an older format (3; 4, the last one with a record
        per widget; 5, the last one with a record per widget inside the
        set record; 6, the last one with node lists as JSON lists; 7, the
        last one with an ``n_input`` column) is never read, even under the
        current key."""
        cache = tmp_path / "cache"
        plan = load_circuit(qft3_path, config).plan
        fresh = compile_plan(plan, config).compiled["n0"]
        compile_plan(plan, config, cache)
        (entry,) = cache.iterdir()
        payload = json.loads(entry.read_text())
        assert payload["format"] == compiler.CACHE_FORMAT == 8
        assert "n_input" not in payload
        # Format 6 as written: the lists in place of the texts.
        lists = {**json.loads(entry.read_text()), "format": 6,
                 "output_nodes": [list(fresh.output_nodes)],
                 "t_nodes": [list(fresh.t_nodes)],
                 "rz_nodes": [list(fresh.rz_nodes)],
                 "prep_spans": [[list(step) for step in fresh.prep_spans]]}
        for name in ("output_text", "t_text", "rz_text", "spans_text"):
            del lists[name]
        stales = [{**json.loads(entry.read_text()), "format": old}
                  for old in (3, 4, 5, 6)]
        # Format 7 as written: one more column, the wire count.
        stales.append({**json.loads(entry.read_text()), "format": 7,
                       "n_input": [plan.n_input]})
        for stale in [*stales, lists]:
            stale["n_nodes"][0] += 1  # a stale record must not be read
            entry.write_text(json.dumps(stale))
            assert compile_plan(plan, config, cache).compiled["n0"] == fresh
            assert json.loads(entry.read_text()) == payload
        assert compiler.load_cached(cache, payload["key"]) == {
            plan.digest("n0"): fresh}

    def test_entries_are_keyed_on_the_plan_digests(self, pool3_path, config,
                                                   tmp_path):
        plan = load_circuit(pool3_path, config).plan
        compile_plan(plan, config, tmp_path)
        digests = {plan.digest(wid) for wid in plan.widgets}
        key = compiler.widget_set_key(digests, plan.n_input, config.fan_out)
        assert cache_entries(tmp_path) == [f"widgets-{key}.json"]
        payload = json.loads((tmp_path / f"widgets-{key}.json").read_text())
        assert set(payload["digests"]) == digests
        assert len(digests) == plan.n_distinct_widgets == 120

    def test_save_creates_a_missing_directory_on_first_write(
            self, qft3_path, config, tmp_path, monkeypatch):
        plan = load_circuit(qft3_path, config).plan
        records = {plan.digest("n0"): compile_plan(plan, config).compiled["n0"]}
        cache = tmp_path / "new" / "cache"
        made = []
        mkdir = Path.mkdir

        def counting_mkdir(self, *args, **kwargs):
            made.append(self)
            return mkdir(self, *args, **kwargs)

        monkeypatch.setattr(Path, "mkdir", counting_mkdir)
        compiler.save_cached(cache, "k0", records)
        assert cache in made
        first = len(made)
        for key in ("k1", "k2"):
            compiler.save_cached(cache, key, records)
        assert len(made) == first
        assert cache_entries(cache) == [f"widgets-k{i}.json" for i in range(3)]
        assert compiler.load_cached(cache, "k2") == records

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        record = compiler.WidgetRecord(1, 0, "0 ", "", "", 0, 1, object(),
                                       "")
        with pytest.raises(TypeError):
            compiler.save_cached(tmp_path, "k", {"d": record})
        assert cache_entries(tmp_path) == []

    def test_concurrent_writers_of_one_key(self, qft3_path, config, tmp_path):
        plan = load_circuit(qft3_path, config).plan
        records = {plan.digest("n0"): compile_plan(plan, config).compiled["n0"]}
        errors = []

        def write():
            try:
                for _ in range(25):
                    compiler.save_cached(tmp_path, "k", records)
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
        assert cache_entries(tmp_path) == ["widgets-k.json"]
        assert compiler.load_cached(tmp_path, "k") == records

    def test_cache_traffic_is_one_record_of_each_kind(
            self, pool3_path, tmp_path, monkeypatch):
        """A cold estimate writes the set record and the plan record; a
        warm estimate and both sweeps read them and compile nothing; a plan
        hit whose set misses loads the source, reads the set record once,
        compiles the whole set and writes its set record alone."""
        cache = tmp_path / "cache"
        saves = counting(monkeypatch, compiler, "_save_entry")
        loads = counting(monkeypatch, compiler, "_load_entry")
        compiles = counting(monkeypatch, pipeline, "compile_widget")
        run_estimate(pool3_path, cache_dir=cache)
        assert [args[1] for args in saves] == ["widgets", "plan"]
        assert len(compiles) == 120
        del saves[:], loads[:], compiles[:]
        estimate_and_sweep(pool3_path, None, cache)
        assert [args[1] for args in loads] == ["plan", "widgets"]
        assert saves == compiles == []
        del loads[:]
        fan_out = tmp_path / "fan_out.yaml"
        fan_out.write_text("architecture:\n  fan_out: 2\n")
        set_loads = counting(monkeypatch, compiler, "load_cached")
        monkeypatch.setattr(compiler, "save_plan", refuse("save_plan"))
        run_estimate(pool3_path, config_path=fan_out, cache_dir=cache)
        assert len(set_loads) == 1
        assert [args[1] for args in loads] == ["plan", "widgets"]
        assert [args[1] for args in saves] == ["widgets"]
        assert len(compiles) == 120
        assert len(cache_entries(cache)) == 3

    def test_malformed_set_record_of_a_plan_hit_matches_uncached(
            self, pool3_path, tmp_path, monkeypatch):
        """A plan hit whose set record is malformed reads it once, compiles
        every widget and writes the set record whole again, and keeps the
        plan record; the report and sweeps are byte-identical to an
        uncached run's."""
        cache = tmp_path / "cache"
        uncached = estimate_and_sweep(pool3_path, None, None)
        estimate_and_sweep(pool3_path, None, cache)
        (entry,) = cache.glob("widgets-*.json")
        good = entry.read_text()
        entry.write_text(good[:len(good) // 2])
        loads = counting(monkeypatch, compiler, "_load_entry")
        compiles = counting(monkeypatch, pipeline, "compile_widget")
        monkeypatch.setattr(compiler, "save_plan", refuse("save_plan"))
        assert estimate_and_sweep(pool3_path, None, cache) == uncached
        assert [args[1] for args in loads] == ["plan", "widgets"]
        assert len(compiles) == 120
        assert entry.read_text() == good

    def test_inputs_with_the_same_widgets_share_one_set_record(
            self, pool3_path, table_path, tmp_path, monkeypatch):
        """Root repeats and plan order do not key the set record: the
        second input's cold run reads it and compiles nothing."""
        payload = json.loads(pool3_path.read_text())
        for item in payload["blocks"][payload.get("root", "main")]:
            if "repeat" in item:
                item["repeat"] *= 10
        scaled = tmp_path / "scaled.json"
        scaled.write_text(json.dumps(payload))
        table = json.loads(table_path.read_text())
        table["distinct_widgets"] = dict(
            reversed(table["distinct_widgets"].items()))
        reordered = tmp_path / "reordered.json"
        reordered.write_text(json.dumps(table))
        assert list(load_circuit(reordered, ArchConfig()).plan.ids) == [
            "a", "b"]
        config = ArchConfig()
        for first, second in ((pool3_path, scaled), (table_path, reordered)):
            cache = tmp_path / f"cache-{first.stem}"
            compile_circuit(first, config, cache)
            compiles = counting(monkeypatch, pipeline, "compile_widget")
            algo, _ = compile_circuit(second, config, cache)
            assert compiles == []
            monkeypatch.undo()
            fresh, _ = compile_circuit(second, config)
            assert (algo.compiled, algo.est) == (fresh.compiled, fresh.est)
            assert len(list(cache.glob("widgets-*.json"))) == 1
            assert len(list(cache.glob("plan-*.json"))) == 2

TABLE = {"n_input": 2, "sequence": ["a", "b", "a"],
         "distinct_widgets": {"b": "qreg q[2]; s q[1];",
                              "a": "qreg q[2]; h q[0]; cx q[0],q[1]; "
                                   "t q[1]; rz(0.3) q[0];"}}


@pytest.fixture(scope="module")
def table_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("table") / "table.json"
    path.write_text(json.dumps(TABLE))
    return path


@pytest.fixture
def source_path(request, qft3_path, table_path, pool3_path):
    return {"qasm": qft3_path, "table": table_path,
            "pool3": pool3_path}[request.param]


def compile_lines(path, capsys, *options):
    assert main(["compile", str(path), *options]) == 0
    return capsys.readouterr().out


def refuse_source_reads(monkeypatch, path):
    """Make every read of ``path``'s content past its bytes raise: JSON
    decoding of the source, each reader, the widgetizer and the plan fold,
    and every compile stage."""
    data = path.read_bytes()
    loads = json.loads

    def guarded_loads(text, *args, **kwargs):
        if text in (data, data.decode()):
            raise AssertionError("the source was decoded on a warm cache")
        return loads(text, *args, **kwargs)

    monkeypatch.setattr(json, "loads", guarded_loads)
    for owner, name in ((pipeline, "parse_qasm"),
                        (pipeline, "parse_nested_file"),
                        (pipeline, "parse_widget_file"),
                        (pipeline, "build_dependency_graph"),
                        (widgetizer, "parse_qasm"),
                        (pipeline, "transpile"),
                        (pipeline, "compile_widget"),
                        (pipeline, "schedule_preparation")):
        monkeypatch.setattr(owner, name, refuse(name))
    monkeypatch.setattr(WidgetPlan, "from_root", refuse("from_root"))


def counting(monkeypatch, owner, name):
    """Wrap ``owner.name`` so that each call is counted in the returned
    list."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def plan_entry(cache):
    (entry,) = cache.glob("plan-*.json")
    return entry


class TestPlanRecord:
    """One plan record per input and split thresholds: a warm run reads it
    and every widget record, and parses nothing."""

    @pytest.mark.parametrize("source_path", ["qasm", "table", "pool3"],
                             indirect=True)
    def test_warm_run_parses_nothing_and_matches_cold(
            self, source_path, tmp_path, capsys, monkeypatch):
        cache = tmp_path / "cache"
        uncached = (estimate_and_sweep(source_path, None, None),
                    compile_lines(source_path, capsys))
        cold = (estimate_and_sweep(source_path, None, cache),
                compile_lines(source_path, capsys, "--cache-dir", str(cache)))
        entry = plan_entry(cache)
        refuse_source_reads(monkeypatch, source_path)
        warm = (estimate_and_sweep(source_path, None, cache),
                compile_lines(source_path, capsys, "--cache-dir", str(cache)))
        assert warm == cold == uncached
        assert plan_entry(cache) == entry

    def test_record_holds_the_plan_in_plan_order(self, table_path, config,
                                                 tmp_path):
        plan = load_circuit(table_path, config).plan
        # plan order is table order, not the order of first use
        assert list(plan.ids) == list(plan.widgets) == ["b", "a"]
        assert plan.first == "a"
        compile_circuit(table_path, config, tmp_path)
        payload = json.loads(plan_entry(tmp_path).read_text())
        assert payload["n_input"] == 2
        assert payload["ids"] == ["b", "a"]
        assert payload["multiplicities"] == [1, 2]
        assert payload["digests"] == [plan.digest("b"), plan.digest("a")]
        assert (payload["stitch_a"], payload["stitch_b"],
                payload["stitch_counts"]) == (["a", "b"], ["b", "a"], [1, 1])
        assert (payload["first"], payload["last"]) == ("a", "a")
        record = compiler.load_plan(tmp_path, payload["key"])
        assert list(record.ids) == list(plan.widgets)
        assert record.stitches == plan.stitches

    @pytest.mark.parametrize("content", [
        "[]", "null", '"x"', "{}", "", "format-2", "other-key", "missing",
        "directory", "n_input", "widgets", "multiplicity",
        "float-multiplicity", "digest",
        "duplicate-widget", "stitches", "stitch-count", "stitch-sum",
        "stitch-id", "first", "zero-multiplicity", "id-type",
        "duplicate-stitch", "zero-stitch", "short-column",
        "stitch-column"])
    def test_bad_entry_is_recomputed_and_overwritten(
            self, content, pool3_path, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        fresh = estimate_and_sweep(pool3_path, None, None)
        estimate_and_sweep(pool3_path, None, cache)
        entry = plan_entry(cache)
        entries = cache_entries(cache)
        good = json.loads(entry.read_text())
        if content == "directory":
            entry.unlink()
            entry.mkdir()
        else:
            bad = json.loads(entry.read_text())
            ids, counts = bad["ids"], bad["multiplicities"]
            if content == "format-2":
                bad["format"] = 2
            elif content == "other-key":
                bad["key"] = "0" * 64
            elif content == "missing":
                del bad["stitch_b"]
            elif content == "n_input":
                bad["n_input"] = True
            elif content == "widgets":  # a column as an object
                bad["ids"] = {"a": 1}
            elif content == "multiplicity":
                counts[0] = str(counts[0])
            elif content == "float-multiplicity":
                counts[0] = float(counts[0])
            elif content == "zero-multiplicity":
                counts[0] = 0
            elif content == "digest":
                bad["digests"][0] = None
            elif content == "id-type":
                ids[0] = 0
            elif content == "duplicate-widget":  # every widget column
                for name in ("ids", "multiplicities", "digests"):
                    bad[name].append(bad[name][0])
            elif content == "short-column":
                bad["digests"].pop()
            elif content == "stitches":  # a stitch without its count
                bad["stitch_counts"].pop()
            elif content == "stitch-column":  # a column as an object
                bad["stitch_counts"] = {"0": bad["stitch_counts"][0]}
            elif content == "duplicate-stitch":  # every stitch column
                for name in ("stitch_a", "stitch_b", "stitch_counts"):
                    bad[name].append(bad[name][0])
            elif content == "zero-stitch":  # a new pair, counted 0 times
                pairs = set(zip(bad["stitch_a"], bad["stitch_b"]))
                new = next((x, y) for x in ids for y in ids
                           if (x, y) not in pairs)
                for name, value in zip(("stitch_a", "stitch_b",
                                        "stitch_counts"), (*new, 0)):
                    bad[name].append(value)
            elif content == "stitch-count":
                bad["stitch_counts"][0] = float(bad["stitch_counts"][0])
            elif content == "stitch-sum":
                bad["stitch_counts"][0] += 1
            elif content == "stitch-id":
                bad["stitch_a"][0] = "nowhere"
            elif content == "first":
                bad["first"] = ["a"]
            else:
                bad = None
            entry.write_text(content if bad is None else json.dumps(bad))
        loads = counting(monkeypatch, pipeline, "load_circuit")
        assert estimate_and_sweep(pool3_path, None, cache) == fresh
        assert len(loads) == 1
        assert json.loads(entry.read_text()) == good
        assert cache_entries(cache) == entries

    def test_stitch_sum_is_a_plan_error(self, pool3_path, config, tmp_path):
        compile_circuit(pool3_path, config, tmp_path)
        payload = json.loads(plan_entry(tmp_path).read_text())
        payload["stitch_counts"][0] += 1
        with pytest.raises(CircuitError, match="n_widgets - 1"):
            compiler._plan_from_dict(payload)

    def test_missing_widget_record_falls_back_to_the_source(
            self, pool3_path, config, tmp_path, monkeypatch):
        """A set record lacking one widget's record is a miss as a whole:
        the source is loaded, every widget compiled and the set record
        written whole again."""
        cache = tmp_path / "cache"
        cold = estimate_and_sweep(pool3_path, None, cache)
        plan = load_circuit(pool3_path, config).plan
        (entry,) = cache.glob("widgets-*.json")
        good = json.loads(entry.read_text())
        bad = json.loads(entry.read_text())
        k = bad["digests"].index(plan.digest(list(plan.widgets)[7]))
        for name in ("digests", *(f.name for f in fields(compiler.WidgetRecord))):
            del bad[name][k]
        entry.write_text(json.dumps(bad))
        loads = counting(monkeypatch, pipeline, "load_circuit")
        compiled = counting(monkeypatch, pipeline, "compile_widget")
        assert estimate_and_sweep(pool3_path, None, cache) == cold
        assert len(loads) == 1
        assert len(compiled) == plan.n_distinct_widgets
        assert json.loads(entry.read_text()) == good

    def test_one_byte_edit_misses(self, qft3_path, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        path = tmp_path / "edited.qasm"
        data = qft3_path.read_bytes()
        path.write_bytes(data)
        estimate_and_sweep(path, None, cache)
        path.write_bytes(data.replace(b"\nh q[0];", b"\nx q[0];", 1))
        assert path.read_bytes() != data
        assert len(path.read_bytes()) == len(data)
        loads = counting(monkeypatch, pipeline, "load_circuit")
        edited = estimate_and_sweep(path, None, cache)
        assert len(loads) == 1
        assert edited == estimate_and_sweep(path, None, None)
        assert len(list(cache.glob("plan-*.json"))) == 2

    def test_split_thresholds_key_the_record(self, pool3_path, tmp_path,
                                             monkeypatch):
        cache = tmp_path / "cache"
        configs = {}
        for name, text in (("gates", "architecture:\n  max_gates: 64\n"),
                           ("modules",
                            "physical:\n  n_phys_per_module: 250000\n")):
            configs[name] = tmp_path / f"{name}.yaml"
            configs[name].write_text(text)
        estimate_and_sweep(pool3_path, None, cache)
        estimate_and_sweep(pool3_path, configs["gates"], cache)
        assert len(list(cache.glob("plan-*.json"))) == 2
        loads = counting(monkeypatch, pipeline, "load_circuit")
        small = estimate_and_sweep(pool3_path, configs["modules"], cache)
        assert loads == []
        assert len(list(cache.glob("plan-*.json"))) == 2
        assert small == estimate_and_sweep(pool3_path, configs["modules"],
                                           None)

    def test_a_record_of_another_rule_is_never_read(self, tmp_path,
                                                    monkeypatch):
        # A plan of the first rule sized a flat QASM file by its widest
        # gate, one of the second numbered a nested plan's ids over its
        # composites too, one of the third kept a widget for each empty
        # block of a split nested file, one of the fourth dropped the gates
        # of a flat block that sat past its last gate's moment, and one of
        # the fifth sized a flat QASM file with no register as 1 qubit.
        # Plant a wrong plan, with the widget records it names, under each
        # old rule's key: the current rule must read none of them.
        cache = tmp_path / "cache"
        narrow, wide = tmp_path / "narrow.qasm", tmp_path / "wide.qasm"
        narrow.write_text("qreg q[1]; h q[0]; t q[0];\n")
        wide.write_text("qreg q[40]; h q[0]; t q[0];\n")
        config = ArchConfig()
        compile_circuit(narrow, config, cache)
        old = compiler.load_plan(cache, compiler.plan_key(
            hashlib.sha256(narrow.read_bytes()).hexdigest(),
            config.max_gates))
        for old_rule in (1, 2, 3, 4, 5):
            monkeypatch.setattr(compiler, "PLAN_RULE", old_rule)
            compiler.save_plan(cache, compiler.plan_key(
                hashlib.sha256(wide.read_bytes()).hexdigest(),
                config.max_gates), old)
        monkeypatch.undo()
        report = run_estimate(wide, cache_dir=cache).report
        assert report.value(15) == 40
        assert render_csv(report) == render_csv(run_estimate(wide).report)

    @pytest.mark.parametrize("text", ["", "qreg q[0];\n"],
                             ids=["empty", "zero-qubits"])
    def test_a_record_of_a_registerless_file_is_never_read(
            self, tmp_path, monkeypatch, text):
        """Rule 5 planned a flat QASM file with no register, or with an
        empty one, as one empty widget on 1 qubit. Such a record, with its
        widget records, left in a cache must not let a warm run estimate
        the file, which is now an input error."""
        cache = tmp_path / "cache"
        path = tmp_path / "none.qasm"
        path.write_text(text)
        config = ArchConfig()
        plan = WidgetPlan.from_sequence(1, {"w0": []}, ["w0"])
        compile_plan(plan, config, cache)
        monkeypatch.setattr(compiler, "PLAN_RULE", 5)
        compiler.save_plan(cache, compiler.plan_key(
            hashlib.sha256(path.read_bytes()).hexdigest(),
            config.max_gates), plan)
        assert run_estimate(path, cache_dir=cache).report.value(15) == 1
        monkeypatch.undo()
        with pytest.raises(CircuitError, match="needs a qreg of at least 1"):
            run_estimate(path, cache_dir=cache)

    def test_verify_and_widgetize_never_read_the_record(
            self, table_path, tmp_path, capsys, monkeypatch):
        cache = tmp_path / "cache"
        estimate_and_sweep(table_path, None, cache)
        monkeypatch.setenv("QRE_CACHE_DIR", str(cache))
        monkeypatch.setattr(compiler, "load_plan", refuse("load_plan"))
        loads = counting(monkeypatch, cli, "load_circuit")
        assert main(["widgetize", str(table_path)]) == 0
        assert main(["verify", str(table_path)]) == 0
        assert len(loads) == 2
        assert "fidelity: " in capsys.readouterr().out


class TestRunEstimate:
    def test_writes_parseable_csv(self, qft3_path, tmp_path, monkeypatch):
        """run_estimate writes no file; its report renders to a CSV that
        parses back to the same report."""
        monkeypatch.chdir(tmp_path)
        result = run_estimate(qft3_path)
        assert list(tmp_path.iterdir()) == []
        assert parse_csv(render_csv(result.report)) == result.report

    def test_nested_run_never_expands_the_sequence(self, pool3_path,
                                                   monkeypatch):
        monkeypatch.setattr(pipeline, "iter_leaf_sequence",
                            refuse("iter_leaf_sequence"))
        monkeypatch.setattr(widgetizer, "iter_leaf_sequence",
                            refuse("iter_leaf_sequence"))
        result = run_estimate(pool3_path)
        assert result.algo.plan.n_widgets > 1

    def test_flat_qasm_is_sized_by_its_register(self, tmp_path):
        path = tmp_path / "q40.qasm"
        path.write_text("qreg q[40]; h q[0]; t q[0];\n")
        report = run_estimate(path).report
        assert report.value(15) == 40
        assert report.value(2) == 40

    @pytest.mark.parametrize("blocks", [
        {"main": ["h", "t", {"block": "e", "repeat": 1000}], "e": []},
        {"main": ["h", {"block": "e"}, "t"], "e": []},
        {"main": ["h", "t", {"block": "w", "repeat": 1000}],
         "w": [{"block": "e", "repeat": 3}], "e": []},
    ], ids=["repeated", "between-gates", "nested"])
    def test_an_empty_block_adds_no_widget(self, tmp_path, blocks):
        """Under a split, a reference to a block with no gates leaves the
        report as it is without the reference, except for the input's
        hash, and the plan still verifies against the source."""
        gates = {"h": {"gate": "h", "qubits": [0]},
                 "t": {"gate": "t", "qubits": [1]}}
        config_path = tmp_path / "split.yaml"
        config_path.write_text("architecture:\n  max_gates: 2\n")
        with_ref, without = tmp_path / "empty.json", tmp_path / "plain.json"
        with_ref.write_text(json.dumps({"n_input": 2, "blocks": {
            name: [gates[item] if isinstance(item, str) else item
                   for item in body]
            for name, body in blocks.items()}}))
        without.write_text(json.dumps({"n_input": 2, "blocks": {
            "main": [gates["h"], gates["t"]]}}))
        report = run_estimate(with_ref, config_path).report
        plain = run_estimate(without, config_path).report
        assert report.rows == plain.rows
        assert report.value(25) == report.value(26) == 2
        assert ({k: v for k, v in report.provenance.items()
                 if k != "circuit_hash"}
                == {k: v for k, v in plain.provenance.items()
                    if k != "circuit_hash"})
        loaded = load_circuit(with_ref, ArchConfig(max_gates=2))
        assert verify_circuit(loaded, seed=0) >= 1 - 1e-9

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


class TestCollectorPause:
    """``compile_circuit`` runs with the cyclic collector paused and hands
    back the caller's setting; the pause is safe because loading and
    compiling leave no reference cycle for the collector to find."""

    @staticmethod
    def set_collector(enabled):
        if enabled:
            gc.enable()
        else:
            gc.disable()

    @pytest.fixture
    def collector(self):
        enabled = gc.isenabled()
        yield
        self.set_collector(enabled)

    @pytest.mark.parametrize("enabled", [True, False])
    def test_setting_restored_on_return(self, enabled, qft3_path, config,
                                        collector, monkeypatch):
        seen = []
        load = pipeline.load_circuit

        def spy(*args):
            seen.append(gc.isenabled())
            return load(*args)

        monkeypatch.setattr(pipeline, "load_circuit", spy)
        self.set_collector(enabled)
        compile_circuit(qft3_path, config)
        assert seen == [False]
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_setting_restored_on_raise(self, enabled, tmp_path, config,
                                       collector):
        path = tmp_path / "bad.qasm"
        path.write_text("qreg q[1]; frob q[0];\n")
        self.set_collector(enabled)
        with pytest.raises(CircuitError):
            compile_circuit(path, config)
        assert gc.isenabled() is enabled

    def test_estimates_leave_no_cyclic_garbage(self, bench_inputs, tmp_path,
                                               collector, monkeypatch):
        """Cold, warm and uncached estimates of QFT-20 and of pool circuit
        0, each followed by a full collection that finds nothing."""
        monkeypatch.delenv("QRE_CACHE_DIR", raising=False)
        for name in ("qft20", "nested0"):
            suffix, text = bench_inputs[name]
            path = tmp_path / f"{name}{suffix}"
            path.write_text(text)
            for cache in (tmp_path / name, tmp_path / name, None):
                gc.collect()
                gc.disable()
                run_estimate(path, cache_dir=cache)
                assert gc.collect() == 0, (name, cache)


@pytest.fixture(scope="module")
def qft3_algo(qft3_path, config):
    plan = load_circuit(qft3_path, config).plan
    algo = compile_plan(plan, config)
    return algo


@pytest.fixture(scope="module")
def pool3_small_modules(pool3_path):
    """Pool circuit 3 on modules small enough for two per leg."""
    config = ArchConfig(n_phys_per_module=250_000)
    algo = compile_plan(load_circuit(pool3_path, config).plan, config)
    return config, algo


@pytest.fixture(scope="module")
def qft20_small_modules():
    """QFT-20, one widget, on modules small enough for two per leg: only
    its preparation crossings depend on the pipe count."""
    config = ArchConfig(n_phys_per_module=300_000)
    plan = WidgetPlan.from_sequence(20, {"w0": generate_qft(20)}, ["w0"])
    return config, compile_plan(plan, config)


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
        algo = compile_plan(load_circuit(pool3_path, config).plan, config)
        calls = count_timing_calls(monkeypatch)
        rows = run_pipe_sweep(algo, config, range(1, 65))
        assert calls == [1]
        assert len(rows) == 64
        assert all(r.t_hardware == rows[0].t_hardware for r in rows)

    @pytest.mark.parametrize("machine", ["pool3_small_modules",
                                         "qft20_small_modules"])
    def test_sweep_times_each_rounds_tuple_once(self, request, machine,
                                                monkeypatch):
        config, shared = request.getfixturevalue(machine)
        # a fresh algorithm: the fixture's may hold timings from other tests
        algo = CompiledAlgorithm(shared.plan, shared.compiled)
        sel = solve_distance_and_factory(config, algo.est)
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

        def counted(config, est):
            solved.append(config)
            return solve(config, est)

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
            sel = solve_distance_and_factory(cfg, algo.est)
            fresh.append((sel.d, compute_timing(cfg, algo, sel).t_hardware_total))
        assert [(r.d, r.t_hardware) for r in preset_rows] == fresh

    def test_estimate_and_sweeps_time_each_config_once(self, pool3_path,
                                                       monkeypatch):
        """The estimate, the pipe sweep's default count and the
        mwpm-circuit preset share one timing; the two other presets each
        need their own."""
        calls = count_timing_calls(monkeypatch)
        result = run_estimate(pool3_path)
        algo, config = result.algo, result.config
        pipe_rows = run_pipe_sweep(algo, config, range(1, 65))
        preset_rows = run_decoder_sweep(
            algo, config, ("mwpm-circuit", "mwpm-code-capacity", "astra-gnn"))
        assert len(calls) == 3
        t_hardware = result.timing.t_hardware_total
        assert all(r.t_hardware == t_hardware for r in pipe_rows)
        assert preset_rows[0].t_hardware == t_hardware

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


class TestReportInvariants:
    def test_more_pipes_never_lengthen_the_run(self, pool3_path, tmp_path):
        """Pool circuit 3 on 250,000-qubit modules, two per leg: the
        hardware time never rises over pipes 1..64, and the sweep's point
        at the config's own pipe count is the estimate's time."""
        config_path = tmp_path / "small.yaml"
        config_path.write_text("physical:\n  n_phys_per_module: 250000\n")
        result = run_estimate(pool3_path, config_path)
        assert result.selection.layout.n_per_leg == 2
        rows = run_pipe_sweep(result.algo, result.config, range(1, 65))
        times = [r.t_hardware for r in rows]
        assert all(b <= a for a, b in zip(times, times[1:]))
        assert times[-1] < times[0]
        assert times[0] == result.timing.t_hardware_total

    @staticmethod
    def assert_flat_and_nested_agree(text, tmp_path):
        """Flat QASM ``text`` and its gates as the one block of a nested
        file give the same 49 rows: of the report CSV only the
        circuit_hash line differs."""
        n_qubits, gates = parse_qasm(text)
        flat, nested = tmp_path / "flat.qasm", tmp_path / "nested.json"
        flat.write_text(text)
        nested.write_text(json.dumps({"n_input": n_qubits, "blocks": {
            "main": [{"gate": g.kind.value, "qubits": list(g.qubits),
                      **({} if g.angle is None else {"angle": g.angle})}
                     for g in gates]}}))
        lines = [render_csv(run_estimate(path).report).splitlines()
                 for path in (flat, nested)]
        differ = [a for a, b in zip(*lines) if a != b]
        assert len(lines[0]) == len(lines[1])
        assert [line.split(":")[0] for line in differ] == ["# circuit_hash"]

    def test_flat_and_one_block_nested_qft20_agree(self, tmp_path):
        """The benchmark's QFT-20, under both thresholds: one widget."""
        (text,) = [text for name, _, text in benchmark_inputs()
                   if name == "qft20"]
        self.assert_flat_and_nested_agree(text, tmp_path)

    @pytest.mark.parametrize("n", [64, 128])
    def test_flat_and_one_block_nested_wide_qft_agree(self, tmp_path, n):
        """QFT-64 stays one widget; QFT-128's 8320 gates reach the gate
        budget, so its flat and nested inputs are both cut, and cut
        alike."""
        self.assert_flat_and_nested_agree(emit_qasm(generate_qft(n), n),
                                          tmp_path)

    def test_flat_qft128_split_rows(self, tmp_path):
        """QFT-128 as flat QASM under the default budget: its 8320 gates
        are cut into 3 widgets of at most 4095, each compiled on all 128
        wires, and every internal boundary charges a handover. Pinned so
        that a change to the cut or to handover costs fails here, not only
        moves flat and nested input together."""
        path = tmp_path / "qft128.qasm"
        path.write_text(emit_qasm(generate_qft(128), 128))
        report = run_estimate(path).report
        assert [report.value(k) for k in (1, 22, 25, 26)] == [19, 13540, 3, 3]
        assert report.value(43) == pytest.approx(0.108832, rel=1e-12)
        assert report.value(48) == pytest.approx(3.8260718, rel=1e-12)

    def test_smaller_gate_budget_gives_a_smaller_machine(self, tmp_path):
        """Flat QFT-128 under ``max_gates: 256``: 33 widgets on a
        2-module machine, against the default budget's 3 widgets on 16
        modules. The gate budget alone trades run time for machine size."""
        path = tmp_path / "qft128.qasm"
        path.write_text(emit_qasm(generate_qft(128), 128))
        config_path = tmp_path / "budget.yaml"
        config_path.write_text("architecture:\n  max_gates: 256\n")
        report = run_estimate(path, config_path).report
        assert [report.value(k) for k in (1, 2, 12, 25)] == [17, 594, 2, 33]
        assert report.value(48) == pytest.approx(4.80857, rel=1e-12)

    def test_cold_qft256_estimate_peaks_under_100_mb(self, tmp_path):
        """A cold QFT-256 estimate in a fresh interpreter keeps its peak
        resident set under 100 MB; unsplit, its one widget's compile
        peaked at 523 MB. A small interpreter starts the estimate and reads
        its peak: a child started by the test process itself would count
        that process's resident set, which it inherits until its exec."""
        path = tmp_path / "qft256.qasm"
        path.write_text(emit_qasm(generate_qft(256), 256))
        proc = run_python("-c", (
            "import resource, subprocess, sys\n"
            "subprocess.run([sys.executable, '-m', 'qre.cli', 'estimate',\n"
            "                sys.argv[1]], check=True,\n"
            "               stdout=subprocess.DEVNULL)\n"
            "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"),
            str(path))
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 100 * 1024  # kilobytes, as Linux counts

    @pytest.fixture(scope="class")
    def pool_cache(self, tmp_path_factory):
        return tmp_path_factory.mktemp("invariants") / "cache"

    @staticmethod
    def pool_est(payload, config, cache, tmp_path):
        path = tmp_path / "pool.json"
        path.write_text(json.dumps(payload))
        return compile_plan(load_circuit(path, config).plan, config, cache).est

    @pytest.mark.parametrize("k", [10, 10**3, 10**6])
    @pytest.mark.parametrize("sub_seed", [3, 7])
    def test_root_repeats_scale_the_totals(self, sub_seed, k, config,
                                           pool_cache, tmp_path):
        """Multiplying every root repeat by k multiplies the T, Rz and
        Clifford counts, the consumption and preparation steps and the
        widgets by exactly k. The node total adds n_input per internal
        boundary, so what scales is the node total plus n_input."""
        payload = json.loads(benchmark_pool_circuit(sub_seed))
        base = self.pool_est(payload, config, pool_cache, tmp_path)
        root = payload["blocks"][payload["root"]]
        assert all("block" in item for item in root)
        for item in root:
            item["repeat"] = k * item.get("repeat", 1)
        scaled = self.pool_est(payload, config, pool_cache, tmp_path)
        for name in ("n_T_init", "n_Rz_init", "n_clifford_init",
                     "consump_steps_total", "l_prep_total", "n_widgets"):
            assert getattr(scaled, name) == k * getattr(base, name), name
        assert (scaled.n_nodes_total + scaled.n_input
                == k * (base.n_nodes_total + base.n_input))
        assert (scaled.n_input, scaled.n_logical_max) == (
            base.n_input, base.n_logical_max)

    @pytest.mark.parametrize("sub_seed", [3, 7])
    def test_splits_keep_the_gate_totals(self, sub_seed, pool_cache,
                                         tmp_path):
        """Under every pinned split budget the plan keeps n_input and
        the T, Rz and Clifford totals of the default one."""
        payload = json.loads(benchmark_pool_circuit(sub_seed))
        totals = set()
        for max_gates in SPLIT_CRITERIA.values():
            config = ArchConfig(max_gates=max_gates)
            est = self.pool_est(payload, config, pool_cache, tmp_path)
            totals.add((est.n_input, est.n_T_init, est.n_Rz_init,
                        est.n_clifford_init))
        assert len(totals) == 1


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
        loaded = load_circuit(path, ArchConfig(max_gates=3))
        plan = loaded.plan
        sequence, source = loaded.expand()
        assert len(sequence) == plan.n_widgets > 1
        in_plan_order = [g for wid in sequence for g in plan.widgets[wid]]
        assert in_plan_order == source
        assert verify_circuit(loaded, seed=5) >= 1 - 1e-9

    def test_split_flat_qasm_verifies_against_its_source(self, tmp_path):
        path = tmp_path / "flat.qasm"
        path.write_text("qreg q[3];\nh q[0];\ncx q[0],q[1];\nt q[1];\n"
                        "h q[2];\nrz(0.3) q[2];\ncx q[1],q[2];\n")
        loaded = load_circuit(path, ArchConfig(max_gates=3))
        plan = loaded.plan
        sequence, source = loaded.expand()
        assert len(sequence) == plan.n_widgets == 3
        assert [g for wid in sequence for g in plan.widgets[wid]] == source
        assert verify_circuit(loaded, seed=5) >= 1 - 1e-9
