"""Benchmark pool circuits as test inputs, loaded from perfbench/workloads.py
(plain Python that never imports the estimator)."""

import importlib.util
import sys
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def benchmark_pool_circuit(sub_seed):
    """Nested-JSON text of one benchmark pool circuit."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve field types through the module's sys.modules entry
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.nested_circuit(sub_seed).text
