"""What an estimate imports: numpy only for ``verify`` and ``fit-scaling``,
PyYAML only for a config file."""

import json

import pytest

from pool import benchmark_pool_circuit
from qre.circuit import emit_qasm, generate_qft
from subproc import run_python

# Runs in a fresh interpreter and prints, after each stage, which of numpy
# and yaml are loaded; the last line holds the verified fidelity.
SCRIPT = """
import contextlib, io, json, sys

def loaded(stage):
    print(json.dumps([stage, sorted(m for m in ("numpy", "yaml")
                                    if m in sys.modules)]))

import qre.cli
loaded("import qre.cli")
from qre.config import ArchConfig
from qre.pipeline import load_circuit, run_estimate, verify_circuit
qft8, pool3, qft3, config, cache = sys.argv[1:]
with contextlib.redirect_stdout(io.StringIO()):
    assert qre.cli.main(["estimate", qft8]) == 0
loaded("qre estimate")
for path in (qft8, pool3):
    run_estimate(path, cache_dir=cache)
    loaded("cold " + path)
    run_estimate(path, cache_dir=cache)
    loaded("warm " + path)
run_estimate(qft8, config_path=config)
loaded("with a config file")
fidelity = verify_circuit(load_circuit(qft3, ArchConfig()), seed=1)
loaded("verify")
print(json.dumps(fidelity))
"""


def python_output(*args):
    proc = run_python(*args)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_estimate_loads_neither_numpy_nor_yaml(tmp_path):
    """``import qre.cli``, ``qre estimate`` of QFT-8, and a cold and a
    warm estimate of QFT-8 and of pool circuit 3 load neither numpy nor
    yaml; an estimate with a config file loads yaml, and
    ``verify_circuit`` loads numpy and gives 1.0."""
    qft8, pool3, qft3 = (tmp_path / name for name in
                         ("qft8.qasm", "pool3.json", "qft3.qasm"))
    qft8.write_text(emit_qasm(generate_qft(8), 8))
    pool3.write_text(benchmark_pool_circuit(3))
    qft3.write_text(emit_qasm(generate_qft(3), 3))
    config = tmp_path / "config.yaml"
    config.write_text("timing:\n  t_inter: 2.0e-6\n")
    out = python_output("-c", SCRIPT, str(qft8), str(pool3), str(qft3),
                        str(config), str(tmp_path / "cache"))
    *stages, fidelity = out.splitlines()
    modules = dict(map(json.loads, stages))
    assert modules == {
        "import qre.cli": [], "qre estimate": [],
        f"cold {qft8}": [], f"warm {qft8}": [],
        f"cold {pool3}": [], f"warm {pool3}": [],
        "with a config file": ["yaml"],
        "verify": ["numpy", "yaml"],
    }
    assert json.loads(fidelity) == pytest.approx(1.0, abs=1e-9)


def test_sim_resolves_as_a_package_attribute():
    """The benchmark's hooks read ``qre._sim.apply_matrix`` after importing
    ``qre.pipeline`` alone; any other missing name is still an
    AttributeError."""
    out = python_output("-c", (
        "import sys, qre.pipeline\n"
        "assert 'qre._sim' not in sys.modules\n"
        "import qre\n"
        "print(qre._sim.apply_matrix.__module__)\n"
        "try:\n"
        "    qre.nonexistent\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"))
    assert out.splitlines() == [
        "qre._sim", "module 'qre' has no attribute 'nonexistent'"]
