"""The benchmark's trace mode wraps estimator entry points by attribute name
(perfbench/spans.py); every name it hooks must still exist."""

import importlib.util
import sys
from pathlib import Path

import qre
import qre.pipeline

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
