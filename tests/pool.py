"""Benchmark inputs as test inputs, loaded from perfbench/workloads.py
(plain Python that never imports the estimator)."""

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = PERFBENCH / "workloads.py"
REFS = PERFBENCH / "refs.json"

# Split criteria (max_active_qubits, max_gates, slice_moments) that the
# pool circuits' plans are pinned and checked under: the default first.
SPLIT_CRITERIA = [(64, 4096, 16), (400, 7, 2), (4, 50, 1), (64, 30, 3)]


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve field types through the module's sys.modules entry
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def benchmark_pool_circuit(sub_seed):
    """Nested-JSON text of one benchmark pool circuit."""
    return _workloads().nested_circuit(sub_seed).text


def benchmark_inputs():
    """(name, file suffix, text) of the ``qft`` input and of every ``nested``
    pool circuit, named as in refs.json."""
    workloads = _workloads()
    circuits = [workloads.qft_circuit()] + [
        workloads.nested_circuit(s) for s in range(workloads.POOL_SIZE)]
    return [(c.name, c.suffix, c.text) for c in circuits]
