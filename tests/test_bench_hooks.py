"""The benchmark's trace mode wraps estimator entry points by attribute name
(perfbench/spans.py); every name it hooks must still exist, and an estimate
must still call the compile hooks through those names."""

import importlib.util
import sys
from pathlib import Path

import qre
import qre.pipeline
from qre.circuit import emit_qasm, generate_qft

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve field types through the module's sys.modules entry
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_hooked_name_exists_and_is_restored(monkeypatch):
    spans = load_spans(monkeypatch)
    before = [owner.__dict__[attr] for owner, attr, *_ in spans._hooks(qre)]
    with spans.instrument(spans.Recorder(), qre):
        pass
    after = [owner.__dict__[attr] for owner, attr, *_ in spans._hooks(qre)]
    assert after == before


def test_cold_estimate_reaches_every_compile_hook(tmp_path, monkeypatch):
    """A hook that an estimate no longer calls reads 0: a cold QFT-20
    estimate must count its widget, graph and preparation sub-steps."""
    spans = load_spans(monkeypatch)
    path = tmp_path / "qft20.qasm"
    path.write_text(emit_qasm(generate_qft(20), 20))
    with spans.instrument(spans.Recorder(), qre) as rec:
        qre.pipeline.run_estimate(path)
    counts = spans.layer_counts(rec)
    assert {name: counts[name] for name in (
        "compiler.nodes", "compiler.edges", "prepsched.sub_steps",
        "widgetizer.widgets_distinct")} == {
        "compiler.nodes": 590, "compiler.edges": 1064,
        "prepsched.sub_steps": 197, "widgetizer.widgets_distinct": 1}
