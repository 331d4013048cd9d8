"""What an estimate imports: numpy only for ``verify`` and ``fit-scaling``,
PyYAML only for a config file, the fitter and ``csv`` only for
``fit-scaling``; what the package defines: only what
something other than the tests calls; and what the tests import: only what
they read."""

import ast
import json
import re
from pathlib import Path

import pytest

from pool import benchmark_pool_circuit
from qre.circuit import emit_qasm, generate_qft
from subproc import run_python

# Runs in a fresh interpreter and prints, after each stage, which of numpy,
# yaml, the fitter and csv are loaded; the last line holds the verified
# fidelity.
SCRIPT = """
import contextlib, io, json, sys

def loaded(stage):
    print(json.dumps([stage, sorted(
        m for m in ("numpy", "yaml", "qre.scalefit", "csv")
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
    yaml, nor ``qre.scalefit`` or ``csv``; an estimate with a config file
    loads yaml alone, and ``verify_circuit`` loads numpy and gives 1.0."""
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


ROOT = Path(__file__).resolve().parent.parent

# Names the package defines for its library users alone, each with why.
PUBLIC_ONLY = {
    ("report", "parse_csv"): "public in report.__all__: reads a report CSV "
                             "back, the inverse of render_csv",
    ("scalefit", "per_cycle_error"): "public in scalefit.__all__ and its "
                                     "docstring: a per-shot error rate as "
                                     "a per-cycle one",
}


def _code_names(tree):
    """(name, line) of every name and attribute the code reads: docstrings
    and comments are not code."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def _bench_names(tree):
    """Names of the package the benchmark reads: attributes reached from
    ``qre``, and the attribute names its trace hooks give as strings."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            root = node
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id == "qre":
                yield node.attr
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and re.fullmatch(r"\w+(\.\w+)*", node.value)):
            yield from node.value.split(".")


def test_every_package_definition_has_a_caller():
    """Each function, method and class in ``src/qre`` (dunders aside) is
    named in package code outside its own definition or by the benchmark,
    so no code lives in the package for the tests alone."""
    defs, uses = [], []
    for path in sorted((ROOT / "src" / "qre").glob("*.py")):
        tree = ast.parse(path.read_text())
        uses += [(path.stem, name, line) for name, line in _code_names(tree)]
        defs += [(path.stem, node.name, node.lineno, node.end_lineno)
                 for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef))
                 and not re.fullmatch(r"__\w+__", node.name)]
    bench = {name for path in (ROOT / "perfbench").glob("*.py")
             for name in _bench_names(ast.parse(path.read_text()))}
    unused = [(module, name) for module, name, first, last in defs
              if name not in bench
              and not any(n == name and not (m == module and first <= line <= last)
                          for m, n, line in uses)]
    assert sorted(unused) == sorted(PUBLIC_ONLY)


def _imported_names(tree):
    """(name, line) of every name an import binds; ``__future__`` imports
    bind none that code reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _unread_imports(directory):
    """(module, line, name) of each name that a module in ``directory``
    imports and never reads."""
    unread = []
    for path in sorted(directory.glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        unread += [(path.stem, line, name)
                   for name, line in _imported_names(tree)
                   if name not in read]
    return unread


def test_every_test_import_is_read():
    """Each name a module under ``tests/`` imports is read somewhere in
    that module."""
    assert _unread_imports(ROOT / "tests") == []


# Names a package module imports for others to read, each with why.
REEXPORTS = {
    ("compiler", "stabilizer_after"): "the benchmark's trace hook wraps "
                                      "it as an attribute of compiler",
}


def test_every_package_import_is_read():
    """Each name a module of ``src/qre`` imports is read somewhere in that
    module, but for the re-exports in ``REEXPORTS``."""
    unread = _unread_imports(ROOT / "src" / "qre")
    assert {(module, name) for module, _, name in unread} == set(REEXPORTS)


def test_no_package_module_reads_the_environment():
    """No module of ``src/qre`` reads an environment variable, through
    ``os.environ``, ``os.getenv`` or an imported ``environ``: a run's
    inputs are its arguments and the files they name."""
    reads = []
    for path in sorted((ROOT / "src" / "qre").glob("*.py")):
        tree = ast.parse(path.read_text())
        names = (*_code_names(tree), *_imported_names(tree))
        reads += [(path.stem, line, name) for name, line in names
                  if name in {"environ", "environb", "getenv", "getenvb"}]
    assert reads == []
