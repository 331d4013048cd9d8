"""End-to-end estimation runs: parse, widgetize, compile, solve, time, report.

This module strings the stages together for a single circuit source and owns
the run-level concerns the stages themselves do not: input-format dispatch
(flat QASM, widget-table JSON, nested-block JSON), the shared widget cache,
provenance hashing, and parameter sweeps that re-solve or re-time one
compiled algorithm.

``load_circuit`` builds the widget plan and expands nothing. Only
``verify_circuit`` calls ``LoadedCircuit.expand``, and it checks the plan
against the source's own gates.

The widget cache sits at ``compile_plan``'s per-widget step. Its key comes
from the widget's gate-list digest (``WidgetPlan.digest``), the wire count
and the preparation fan-out; its value is the ``WidgetRecord`` that
estimation reads. A hit therefore transpiles, compiles and schedules
nothing. ``verify_circuit`` does not use the cache: it compiles every
distinct widget afresh, since it needs the fields the record leaves out.

Each distinct config is solved once per compiled algorithm
(``CompiledAlgorithm.selections``), so a sweep reuses the estimate's solve.
A pipe sweep times the machine once per distinct tuple of pipe rounds
(``_TimingInputs.pipe_rounds``), the only way the timing reads the pipe
count; every pipe count with that tuple reuses the time.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Mapping, Sequence

from . import __version__, compiler
from .circuit import (
    CircuitError,
    Gate,
    circuit_width,
    invert_gates,
    parse_qasm,
    transpile,
)
from .compiler import (
    CACHE_ENV,
    WidgetRecord,
    cache_key,
    compile_widget,
    verify_unitarity,
)
from .config import ArchConfig, load_config
from .estimator import (
    CompiledAlgorithm,
    SelectionResult,
    TimingBreakdown,
    compute_timing,
    solve_distance_and_factory,
)
from .prepsched import schedule_preparation
from .report import ResourceReport, assemble_report, render_csv
from .scalefit import SCALING_PRESETS
from .widgetizer import (
    SplitCriterion,
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
    """A parsed circuit source: the estimation plan, the raw bytes for
    provenance hashing, and the source, which only ``expand`` reads."""

    plan: WidgetPlan
    data: bytes
    _expand: Callable[[], Expansion] = field(repr=False, compare=False)

    def expand(self) -> Expansion:
        """The widget sequence and the source gate list, both in source
        order. Each is as long as the expanded circuit, so check
        ``plan.n_widgets`` before calling this."""
        return self._expand()


def load_circuit(path: str | Path, config: ArchConfig) -> LoadedCircuit:
    """Parse a circuit file, dispatching on its content: OpenQASM text
    becomes a single widget; JSON is either a widget table
    ({distinct_widgets, sequence}) or nested blocks ({blocks, root}), the
    latter widgetized under the configured split thresholds."""
    data = Path(path).read_bytes()
    if not data.lstrip().startswith(b"{"):
        gates = parse_qasm(data.decode())
        return _flat(path, max(circuit_width(gates), 1), {"w0": gates},
                     ["w0"], data)
    try:
        payload = json.loads(data)
    except json.JSONDecodeError as exc:
        raise CircuitError(f"{path}: not valid JSON: {exc}") from exc
    if "distinct_widgets" in payload:
        return _flat(path, *parse_widget_file(payload, path), data)
    nested = parse_nested_file(payload, path)
    criterion = SplitCriterion(
        max_active_qubits=config.max_active_qubits,
        max_gates=config.max_gates,
        slice_moments=config.slice_moments,
    )
    root = build_dependency_graph(nested, criterion)
    return LoadedCircuit(
        WidgetPlan.from_root(root, nested.n_input), data,
        lambda: (tuple(iter_leaf_sequence(root)), nested.flatten()))


def _flat(path: str | Path, n_input: int, table: Mapping[str, list[Gate]],
          sequence: list[str], data: bytes) -> LoadedCircuit:
    """A flat widget sequence over a table of gate lists; a plan error
    names the file."""
    try:
        plan = WidgetPlan.from_sequence(n_input, table, sequence)
    except CircuitError as exc:
        raise CircuitError(f"{path}: {exc}") from exc
    return LoadedCircuit(
        plan, data,
        lambda: (tuple(sequence), [g for wid in sequence for g in table[wid]]))


def compile_plan(
    plan: WidgetPlan,
    config: ArchConfig,
    cache_dir: str | Path | None = None,
) -> tuple[CompiledAlgorithm, int]:
    """Transpile, compile, and prep-schedule every distinct widget, reading
    and writing each widget's record in the cache directory when one is
    given (or set via the QRE_CACHE_DIR variable).

    Returns the compiled algorithm and the transpiled Clifford-gate total
    over the full sequence.
    """
    directory = cache_dir if cache_dir is not None else os.environ.get(CACHE_ENV)
    records = {}
    n_clifford = 0
    for wid, gates in plan.widgets.items():
        record = None
        if directory:
            key = cache_key(plan.digest(wid), plan.n_input, config.fan_out)
            # Load and save are looked up on the compiler module at call
            # time, so wrappers installed there (the benchmark trace) see them.
            record = compiler.load_cached(directory, key)
        if record is None:
            record = _widget_record(gates, plan.n_input, config.fan_out)
            if directory:
                compiler.save_cached(directory, key, record)
        records[wid] = record
        n_clifford += plan.multiplicity[wid] * record.n_clifford
    return CompiledAlgorithm(plan, records), n_clifford


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
    n_clifford_init: int


def _select(algo: CompiledAlgorithm, config: ArchConfig) -> SelectionResult:
    """The selection of ``algo`` under ``config``, solved on first use. The
    solver is looked up here, so a wrapper on it sees every real solve."""
    sel = algo.selections.get(config)
    if sel is None:
        sel = algo.selections[config] = solve_distance_and_factory(
            config, algo.est, algo.l_prep_total)
    return sel


def _config_hash(config: ArchConfig) -> str:
    return hashlib.sha256(repr(config).encode()).hexdigest()[:16]


def _estimate(
    loaded: LoadedCircuit,
    config: ArchConfig,
    cache_dir: str | Path | None,
) -> EstimateResult:
    algo, n_clifford = compile_plan(loaded.plan, config, cache_dir)
    sel = _select(algo, config)
    timing = compute_timing(config, algo, sel)
    provenance = {
        "config_hash": _config_hash(config),
        "circuit_hash": hashlib.sha256(loaded.data).hexdigest()[:16],
        "tool_version": __version__,
    }
    report = assemble_report(config, algo, sel, timing, n_clifford,
                             provenance)
    return EstimateResult(report, config, algo, sel, timing, n_clifford)


def run_estimate(
    circuit_path: str | Path,
    config_path: str | Path | None = None,
    out_dir: str | Path | None = None,
    cache_dir: str | Path | None = None,
) -> EstimateResult:
    """Full run from files; writes report.csv under out_dir when given."""
    config = load_config(config_path)
    loaded = load_circuit(circuit_path, config)
    result = _estimate(loaded, config, cache_dir)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.csv").write_text(render_csv(result.report))
    return result


# --------------------------------------------------------------------------
# Sweeps
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    """One sweep point: the varied setting, the solved distance, the wall
    time per run, and that time divided by the first row's."""

    label: str
    d: int
    t_hardware: float
    normalized_runtime: float


def _normalize(labels: Sequence[str], solved: Sequence[tuple[int, float]],
               ) -> list[SweepRow]:
    base = solved[0][1]
    return [SweepRow(label, d, t, t / base)
            for label, (d, t) in zip(labels, solved)]


def run_pipe_sweep(
    algo: CompiledAlgorithm,
    config: ArchConfig,
    pipe_values: Sequence[int],
) -> list[SweepRow]:
    """Re-time the solved machine at each interconnect-pipe count.

    The distance/factory solution does not depend on the pipe count, so it
    is the one solved for ``config``. The timing reads the pipe count only
    through the layout's pipe rounds, so it is computed once per distinct rounds tuple
    and shared by every count that gives that tuple: one call in all when
    each leg is a single module.
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
            timing = compute_timing(replace(config, n_inter_pipes=pipes),
                                    algo, sel)
            t_hardware = by_rounds[rounds] = timing.t_hardware_total
        solved.append((sel.d, t_hardware))
    return _normalize([str(v) for v in pipe_values], solved)


def run_decoder_sweep(
    algo: CompiledAlgorithm,
    config: ArchConfig,
    presets: Sequence[str] = ("mwpm-circuit", "astra-gnn"),
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
        timing = compute_timing(cfg, algo, sel)
        solved.append((sel.d, timing.t_hardware_total))
    return _normalize(list(presets), solved)


def render_sweep_csv(rows: Sequence[SweepRow], label_name: str) -> str:
    lines = [f"{label_name},code_distance,t_hardware,normalized_runtime"]
    for row in rows:
        lines.append(f"{row.label},{row.d},{row.t_hardware!r},"
                     f"{row.normalized_runtime!r}")
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
    sequence, source = loaded.expand()
    compiled = {wid: compile_widget(transpile(gates), n_input=plan.n_input)
                for wid, gates in plan.widgets.items()}
    return verify_unitarity([compiled[wid] for wid in sequence],
                            invert_gates(source), seed=seed)
