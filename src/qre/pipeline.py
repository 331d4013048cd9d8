"""End-to-end estimation runs: parse, widgetize, compile, solve, time, report.

This module strings the stages together for a single circuit source and owns
the run-level concerns the stages themselves do not: input-format dispatch
(flat QASM, widget-table JSON, nested-block JSON), the shared cache,
provenance hashing, and parameter sweeps that re-solve or re-time one
compiled algorithm.

``load_circuit`` builds the widget plan and expands nothing. Flat QASM
and nested JSON are cut into widgets by the one widgetizer, into pieces
of fewer than ``max_gates`` gates each; a widget table's sequence is its
plan. Only ``verify_circuit`` calls ``LoadedCircuit.expand``, and it
checks the plan against the source's own gates.

``compile_circuit`` is the one entry point of ``estimate``, ``sweep`` and
``compile``: it gives the compiled algorithm and the input's sha256, and
``compile_plan`` the compiled algorithm of a plan, whose ``est`` holds
every sequence total the report prints. The cache holds two kinds of
record for it. A plan record (``PlanRecord``) is keyed on the sha256 of
the input file's bytes, which is also the report's ``circuit_hash``, and
on the split budget ``max_gates``. A widget-set record holds the
``WidgetRecord`` of every widget of a plan under its gate-list digest
(``WidgetPlan.digest``), and is keyed on the sorted, distinct digests, the
wire count and the preparation fan-out; inputs with the same widgets, such
as one circuit at several root repeats, share it. A warm run reads the
plan record and then the one set record it names, so it parses,
widgetizes, transpiles, compiles and schedules nothing. If the plan record
misses or is malformed, the run loads the source, and ``compile_plan``
reads the set record or else compiles every widget and writes the set
record anew; then the plan record is written anew. If only the set
record misses, the run loads the source, compiles every widget and writes
the set record anew. A set record lacking one widget is a miss as a
whole, so inputs whose widget sets only partly overlap share no record.
``load_circuit`` itself never reads the cache, so neither ``verify`` nor
``widgetize`` does. ``verify_circuit`` compiles every distinct widget
afresh, since it needs the fields the record leaves out.

Each distinct config is solved and timed once per compiled algorithm
(``CompiledAlgorithm.selections`` and ``CompiledAlgorithm.timings``), so a
sweep reuses the estimate's solve and timing at its default point. A pipe
sweep times the machine once per distinct tuple of pipe rounds
(``_TimingInputs.pipe_rounds``), at the first count that gives it: the
timing reads the pipe count through that tuple alone, so every later count
with the tuple reuses the time.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Sequence

from . import __version__, compiler
from .circuit import (
    CircuitError,
    Gate,
    invert_gates,
    parse_qasm,
    transpile,
)
from .compiler import CACHE_ENV, WidgetRecord, compile_widget
from .config import ArchConfig, load_config
from .estimator import (
    CompiledAlgorithm,
    SelectionResult,
    TimingBreakdown,
    compute_timing,
    solve_distance_and_factory,
)
from .prepsched import schedule_preparation
from .report import ResourceReport, assemble_report, emit_value
from .scalefit import SCALING_PRESETS
from .widgetizer import (
    NestedCircuit,
    PlanRecord,
    WidgetPlan,
    build_dependency_graph,
    iter_leaf_sequence,
    parse_nested_file,
    parse_widget_file,
)

__all__ = [
    "LoadedCircuit",
    "EstimateResult",
    "SweepRow",
    "load_circuit",
    "compile_circuit",
    "compile_plan",
    "run_estimate",
    "run_pipe_sweep",
    "run_decoder_sweep",
    "render_sweep_csv",
    "verify_circuit",
]

Expansion = tuple[tuple[str, ...], list[Gate]]


@dataclass(frozen=True)
class LoadedCircuit:
    """A parsed circuit source: the estimation plan, and the source, which
    only ``expand`` reads."""

    plan: WidgetPlan
    _expand: Callable[[], Expansion] = field(repr=False, compare=False)

    def expand(self) -> Expansion:
        """The widget sequence and the source gate list, both in source
        order. Each is as long as the expanded circuit, so check
        ``plan.n_widgets`` before calling this."""
        return self._expand()


def load_circuit(path: str | Path, config: ArchConfig,
                 data: bytes | None = None) -> LoadedCircuit:
    """Parse a circuit file, dispatching on its content: OpenQASM text
    becomes the one root block of a nested circuit on its declared
    register, which must hold at least one qubit; JSON is either a widget
    table ({distinct_widgets, sequence}), whose sequence is the plan, or
    nested blocks ({blocks, root}). A nested circuit is widgetized under
    the configured split budget, ``max_gates``. ``data`` is the file's
    bytes when the caller has read them already. A CircuitError names the
    file, here alone: the readers and the widgetizer say what is wrong in
    it."""
    if data is None:
        data = Path(path).read_bytes()
    try:
        return _parse(data, config)
    except CircuitError as exc:
        raise CircuitError(f"{path}: {exc}") from exc


def _parse(data: bytes, config: ArchConfig) -> LoadedCircuit:
    try:
        text = data.decode()
    except UnicodeDecodeError as exc:
        raise CircuitError(f"not UTF-8 text: {exc}") from exc
    if not data.lstrip().startswith(b"{"):
        n_qubits, gates = parse_qasm(text)
        if not n_qubits:
            raise CircuitError(
                "a flat QASM file needs a qreg of at least 1 qubit")
        nested = NestedCircuit(n_qubits, {"main": gates}, "main")
    else:
        try:
            payload = json.loads(text)
        except ValueError as exc:  # a JSONDecodeError, or an integer too long
            raise CircuitError(f"not valid JSON: {exc}") from exc
        if "distinct_widgets" in payload:
            n_input, table, sequence = parse_widget_file(payload)
            return LoadedCircuit(
                WidgetPlan.from_sequence(n_input, table, sequence),
                lambda: (tuple(sequence),
                         [g for wid in sequence for g in table[wid]]))
        nested = parse_nested_file(payload)
    root = build_dependency_graph(nested, config.max_gates)
    return LoadedCircuit(
        WidgetPlan.from_root(root, nested.n_input),
        lambda: (tuple(iter_leaf_sequence(root)), nested.flatten()))


def _cache_directory(cache_dir: str | Path | None) -> str | Path | None:
    return cache_dir if cache_dir is not None else os.environ.get(CACHE_ENV)


def compile_circuit(
    path: str | Path,
    config: ArchConfig,
    cache_dir: str | Path | None = None,
) -> tuple[CompiledAlgorithm, str]:
    """Compile a circuit file: the compiled algorithm and the sha256 of the
    file's bytes.

    With a cache directory (``cache_dir`` or the QRE_CACHE_DIR variable),
    a warm run reads the input's plan record and the set record of its
    widgets, and parses nothing. If the plan record misses or is
    malformed, the run loads the source, compiles the plan through
    ``compile_plan`` and writes the plan record anew; if only the set
    record misses, it loads the source and compiles every widget.

    The run pauses the cyclic garbage collector, process-wide, and restores
    the caller's setting on return or raise. Loading and compiling build no
    reference cycle, so reference counting frees all they build, and the
    collector's passes over it would only cost time.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        data = Path(path).read_bytes()
        source_digest = hashlib.sha256(data).hexdigest()
        directory = _cache_directory(cache_dir)
        record = None
        if directory:
            key = compiler.plan_key(source_digest, config.max_gates)
            record = compiler.load_plan(directory, key)
            if record is not None:
                algo = _cached_set(record, config, directory)
                if algo is not None:
                    return algo, source_digest
        plan = load_circuit(path, config, data).plan
        if record is not None:
            return _compile_set(plan, config, directory), source_digest
        algo = compile_plan(plan, config, directory)
        if directory:
            compiler.save_plan(directory, key, plan)
        return algo, source_digest
    finally:
        if enabled:
            gc.enable()


def _set_key(plan: PlanRecord, config: ArchConfig) -> str:
    return compiler.widget_set_key(map(plan.digest, plan.ids), plan.n_input,
                                   config.fan_out)


def _cached_set(plan: PlanRecord, config: ArchConfig,
                directory: str | Path) -> CompiledAlgorithm | None:
    """The compiled algorithm of ``plan`` from the set record of its
    widgets, or None when that record misses or lacks one of them."""
    # Load and save are looked up on the compiler module at call time, so
    # wrappers installed there (the benchmark trace) see them.
    by_digest = compiler.load_cached(directory, _set_key(plan, config))
    if by_digest is None:
        return None
    try:
        return CompiledAlgorithm(
            plan, {wid: by_digest[plan.digest(wid)] for wid in plan.ids})
    except KeyError:
        return None


def compile_plan(
    plan: WidgetPlan,
    config: ArchConfig,
    cache_dir: str | Path | None = None,
) -> CompiledAlgorithm:
    """Transpile, compile, and prep-schedule every distinct widget. With a
    cache directory (``cache_dir`` or the QRE_CACHE_DIR variable), the
    records come from the set record of the plan's widgets when it holds
    them all; otherwise every widget is compiled and the set record is
    written anew."""
    directory = _cache_directory(cache_dir)
    algo = _cached_set(plan, config, directory) if directory else None
    return algo if algo is not None else _compile_set(plan, config, directory)


def _compile_set(plan: WidgetPlan, config: ArchConfig,
                 directory: str | Path | None) -> CompiledAlgorithm:
    """Compile every widget of ``plan`` and, with a cache directory, write
    the set record of its widgets anew."""
    records = {wid: _widget_record(gates, plan.n_input, config.fan_out)
               for wid, gates in plan.widgets.items()}
    if directory:
        compiler.save_cached(directory, _set_key(plan, config),
                             {plan.digest(wid): record
                              for wid, record in records.items()})
    return CompiledAlgorithm(plan, records)


def _widget_record(gates: Sequence[Gate], n_input: int,
                   fan_out: int) -> WidgetRecord:
    tw = transpile(gates)
    cw = compile_widget(tw, n_input=n_input)
    prep = schedule_preparation(cw.n_nodes, cw.edges, fan_out=fan_out)
    return WidgetRecord.of(cw, prep, tw.n_Clifford_init)


@dataclass(frozen=True)
class EstimateResult:
    """Everything one estimation run produced, report included."""

    report: ResourceReport
    config: ArchConfig
    algo: CompiledAlgorithm
    selection: SelectionResult
    timing: TimingBreakdown


def _select(algo: CompiledAlgorithm, config: ArchConfig) -> SelectionResult:
    """The selection of ``algo`` under ``config``, solved on first use. The
    solver is looked up here, so a wrapper on it sees every real solve."""
    sel = algo.selections.get(config)
    if sel is None:
        sel = algo.selections[config] = solve_distance_and_factory(
            config, algo.est)
    return sel


def _time(algo: CompiledAlgorithm, config: ArchConfig,
          sel: SelectionResult) -> TimingBreakdown:
    """The timing of ``algo`` under ``config`` at its selection ``sel``,
    computed on first use. The timing model is looked up here, so a wrapper
    on it sees every real timing."""
    timing = algo.timings.get(config)
    if timing is None:
        timing = algo.timings[config] = compute_timing(config, algo, sel)
    return timing


def _config_hash(config: ArchConfig) -> str:
    return hashlib.sha256(repr(config).encode()).hexdigest()[:16]


def run_estimate(
    circuit_path: str | Path,
    config_path: str | Path | None = None,
    cache_dir: str | Path | None = None,
) -> EstimateResult:
    """Full run from files: the report and what it was built from."""
    config = load_config(config_path)
    algo, source_digest = compile_circuit(circuit_path, config, cache_dir)
    sel = _select(algo, config)
    timing = _time(algo, config, sel)
    provenance = {
        "config_hash": _config_hash(config),
        "circuit_hash": source_digest[:16],
        "tool_version": __version__,
    }
    report = assemble_report(config, algo, sel, timing, provenance)
    return EstimateResult(report, config, algo, sel, timing)


# --------------------------------------------------------------------------
# Sweeps
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    """One sweep point: the varied setting, the solved distance, the wall
    time per run, and that time divided by the first row's (None when the
    first row takes no time)."""

    label: str
    d: int
    t_hardware: float
    normalized_runtime: float | None


def _normalize(labels: Sequence[str], solved: Sequence[tuple[int, float]],
               ) -> list[SweepRow]:
    base = solved[0][1]
    return [SweepRow(label, d, t, t / base if base else None)
            for label, (d, t) in zip(labels, solved)]


def run_pipe_sweep(
    algo: CompiledAlgorithm,
    config: ArchConfig,
    pipe_values: Sequence[int],
) -> list[SweepRow]:
    """Re-time the solved machine at each interconnect-pipe count.

    The distance/factory solution does not depend on the pipe count, so it
    is the one solved for ``config``. The timing reads the pipe count only
    through the layout's pipe rounds (``_TimingInputs.pipe_rounds``), so
    it is computed once per distinct rounds tuple, at the first count that
    gives it, and shared by every later count with that tuple: one call in
    all when each leg is a single module. When that first count is
    ``config``'s own, the point is ``config`` itself, so it shares the
    estimate's timing.
    """
    if not pipe_values:
        raise ValueError("pipe sweep needs at least one value")
    # The pipe count is the only field that varies and its check is a lower
    # bound, so this validates every count before any rounds are computed.
    replace(config, n_inter_pipes=min(pipe_values))
    sel = _select(algo, config)
    inputs = algo.timing_inputs(sel.layout)
    by_rounds: dict[tuple[int, ...], float] = {}
    solved = []
    for pipes in pipe_values:
        rounds = inputs.pipe_rounds(pipes)
        t_hardware = by_rounds.get(rounds)
        if t_hardware is None:
            t_hardware = by_rounds[rounds] = _time(
                algo, replace(config, n_inter_pipes=pipes),
                sel).t_hardware_total
        solved.append((sel.d, t_hardware))
    return _normalize([str(v) for v in pipe_values], solved)


def run_decoder_sweep(
    algo: CompiledAlgorithm,
    config: ArchConfig,
    presets: Sequence[str],
) -> list[SweepRow]:
    """Re-solve and re-time the run under each decoder scaling preset."""
    unknown = [name for name in presets if name not in SCALING_PRESETS]
    if unknown:
        raise ValueError(f"unknown scaling presets: {unknown} "
                         f"(available: {sorted(SCALING_PRESETS)})")
    solved = []
    for name in presets:
        kappa, p_thresh = SCALING_PRESETS[name]
        cfg = replace(config, kappa=kappa, p_thresh=p_thresh)
        sel = _select(algo, cfg)
        solved.append((sel.d, _time(algo, cfg, sel).t_hardware_total))
    return _normalize(list(presets), solved)


def render_sweep_csv(rows: Sequence[SweepRow], label_name: str) -> str:
    lines = [f"{label_name},code_distance,t_hardware,normalized_runtime"]
    for row in rows:
        lines.append(f"{row.label},{row.d},{row.t_hardware!r},"
                     f"{emit_value(row.normalized_runtime)}")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# Verification entry point
# --------------------------------------------------------------------------

SEQUENCE_LIMIT = 100_000  # the longest widget sequence verify expands


def verify_circuit(loaded: LoadedCircuit, seed: int | None = None) -> float:
    """Compile the plan's widgets afresh, execute its widget sequence by
    exact simulation, undo it with the inverted *source* gate list, and
    return the overlap with the initial state: 1.0 means the plan and its
    compilation reproduce the source circuit exactly. A plan of more than
    ``SEQUENCE_LIMIT`` widgets is refused before anything is expanded."""
    plan = loaded.plan
    if plan.n_widgets > SEQUENCE_LIMIT:
        raise CircuitError(
            f"circuit too large to expand for verification: "
            f"{plan.n_widgets} widgets, limit is {SEQUENCE_LIMIT}")
    from ._sim import verify_unitarity  # loads numpy; an estimate does not

    sequence, source = loaded.expand()
    compiled = {wid: compile_widget(transpile(gates), n_input=plan.n_input)
                for wid, gates in plan.widgets.items()}
    return verify_unitarity([compiled[wid] for wid in sequence],
                            invert_gates(source), seed=seed)
