"""Span recorder and the wrappers that time the estimator's layers from outside.

The estimator is not modified: ``instrument`` swaps the public entry points
of each layer, as the calling module looks them up, for wrappers that record
a span (name, start, end, parent, thread id) and counts, and restores the
originals on exit. Parents are tracked per thread because the sweeps run on a
thread pool. Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
from collections import Counter
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    thread: int


class Recorder:
    """Spans and counts of one traced unit of work."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def parent_name(self) -> str | None:
        stack = self._stack()
        return self.spans[stack[-1]].name if stack else None

    def add(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] += n

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            sid = len(self.spans)
            self.spans.append(Span(name, time.perf_counter(), 0.0, parent,
                                   threading.get_ident()))
        stack.append(sid)
        try:
            yield
        finally:
            self.spans[sid].end = time.perf_counter()
            stack.pop()

    def self_times(self) -> Counter[tuple[str, str | None]]:
        """Self time summed per (span name, parent span name): duration minus
        the time of direct children, which share the span's thread."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        out: Counter[tuple[str, str | None]] = Counter()
        for s, covered in zip(self.spans, child_time):
            parent = None if s.parent is None else self.spans[s.parent].name
            out[(s.name, parent)] += s.end - s.start - covered
        return out

    def to_json(self) -> dict:
        return {"spans": [[s.name, s.start, s.end, s.parent, s.thread]
                          for s in self.spans],
                "counts": dict(self.counts)}


def _count_ops(rec: Recorder, args) -> None:
    ops = args[1]
    parent = rec.parent_name()
    key = ("stabilizer.frame_ops" if parent == "compiler.compile_widget"
           else "stabilizer.tableau_ops")
    rec.add(key, len(ops))


def _count_plan(rec: Recorder, loaded) -> None:
    rec.add("widgetizer.widgets_distinct", loaded.plan.n_distinct_widgets)
    rec.add("widgetizer.widgets_total", loaded.plan.n_widgets)


def _count_widget(rec: Recorder, cw) -> None:
    rec.add("compiler.nodes", cw.n_nodes)
    rec.add("compiler.edges", len(cw.edges))


def _count_load(rec: Recorder, cw) -> None:
    rec.add("compiler.cache_loads")
    if cw is not None:
        rec.add("compiler.cache_hits")


def _hooks(qre):
    """(owner, attribute, span name or None for count-only, on_args,
    on_result) for every layer entry point the benchmark times."""
    pipeline, compiler = qre.pipeline, qre.compiler
    return [
        (pipeline, "run_estimate", "pipeline.run_estimate", None, None),
        (pipeline, "load_circuit", "pipeline.load_circuit", None, _count_plan),
        (pipeline, "parse_nested_file", "widgetizer.parse_nested_file",
         None, None),
        (pipeline, "build_dependency_graph",
         "widgetizer.build_dependency_graph", None, None),
        (qre.widgetizer.WidgetPlan, "from_root", "widgetizer.from_root",
         None, None),
        (pipeline, "compile_plan", "pipeline.compile_plan", None, None),
        (pipeline, "transpile", "circuit.transpile", None, None),
        (pipeline, "compile_widget", "compiler.compile_widget",
         None, _count_widget),
        (compiler, "load_cached", "compiler.load_cached", None, _count_load),
        (compiler, "save_cached", "compiler.save_cached", None, None),
        (compiler, "stabilizer_after", "stabilizer.stabilizer_after",
         None, None),
        (compiler, "graph_form", "stabilizer.graph_form", None, None),
        (qre.stabilizer.PauliRows, "apply_ops", "stabilizer.apply_ops",
         _count_ops, None),
        (qre._sim, "apply_matrix", None,
         lambda rec, args: rec.add("sim.dense_ops"), None),
        (pipeline, "schedule_preparation", "prepsched.schedule_preparation",
         None, lambda rec, s: rec.add("prepsched.sub_steps", s.n_sub_steps)),
        (pipeline, "solve_distance_and_factory", "estimator.solve",
         None, None),
        (qre.estimator, "choose_modules_per_leg", None,
         lambda rec, args: rec.add("architecture.layouts_evaluated"), None),
        (pipeline, "compute_timing", "estimator.compute_timing", None, None),
        (pipeline, "assemble_report", "report.assemble_report", None, None),
        (qre.report, "render_csv", "report.render_csv", None, None),
        (pipeline, "run_pipe_sweep", "pipeline.run_pipe_sweep", None, None),
        (pipeline, "run_decoder_sweep", "pipeline.run_decoder_sweep",
         None, None),
    ]


def _wrap(rec: Recorder, fn, name, on_args, on_result):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if on_args is not None:
            on_args(rec, args)
        if name is None:
            return fn(*args, **kwargs)
        with rec.span(name):
            result = fn(*args, **kwargs)
        if on_result is not None:
            on_result(rec, result)
        return result
    return wrapper


@contextlib.contextmanager
def instrument(rec: Recorder, qre):
    """Route every hooked entry point through ``rec`` until exit."""
    saved = []
    try:
        for owner, attr, name, on_args, on_result in _hooks(qre):
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(_wrap(rec, original.__func__, name,
                                            on_args, on_result))
            else:
                wrapped = _wrap(rec, original, name, on_args, on_result)
            saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)
        yield rec
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# Per-layer metric of each (span, parent) self time; None matches any parent.
_TIME_METRICS = [
    ("stabilizer.apply_ops", "compiler.compile_widget", "stabilizer.frames_s"),
    ("stabilizer.apply_ops", "stabilizer.stabilizer_after",
     "stabilizer.tableau_s"),
    ("stabilizer.stabilizer_after", None, "stabilizer.tableau_s"),
    ("stabilizer.graph_form", None, "stabilizer.graph_form_s"),
    ("compiler.compile_widget", None, "compiler.self_s"),
    ("compiler.load_cached", None, "compiler.cache_load_s"),
    ("compiler.save_cached", None, "compiler.cache_save_s"),
    ("prepsched.schedule_preparation", None, "prepsched.schedule_s"),
    ("widgetizer.parse_nested_file", None, "widgetizer.parse_s"),
    ("widgetizer.build_dependency_graph", None, "widgetizer.build_s"),
    ("widgetizer.from_root", None, "widgetizer.build_s"),
    ("circuit.transpile", None, "circuit.transpile_s"),
    ("pipeline.load_circuit", None, "pipeline.load_circuit_s"),
    ("pipeline.compile_plan", None, "pipeline.compile_plan_s"),
    ("pipeline.run_pipe_sweep", None, "pipeline.sweep_s"),
    ("pipeline.run_decoder_sweep", None, "pipeline.sweep_s"),
    ("estimator.solve", None, "estimator.solve_s"),
    ("estimator.compute_timing", None, "estimator.timing_s"),
    ("report.assemble_report", None, "report.assemble_s"),
    ("report.render_csv", None, "report.assemble_s"),
]

COUNT_METRICS = [
    "stabilizer.frame_ops", "compiler.nodes", "compiler.edges",
    "sim.dense_ops", "prepsched.sub_steps", "widgetizer.widgets_distinct",
    "widgetizer.widgets_total", "architecture.layouts_evaluated",
]

TIME_METRICS = list(dict.fromkeys(m for _, _, m in _TIME_METRICS))


def layer_times(rec: Recorder) -> dict[str, float]:
    """Self time per per-layer time metric over all of ``rec``'s spans."""
    out = dict.fromkeys(TIME_METRICS, 0.0)
    for (name, parent), seconds in rec.self_times().items():
        for span, want_parent, metric in _TIME_METRICS:
            if span == name and want_parent in (None, parent):
                out[metric] += seconds
                break
    return out


def layer_counts(rec: Recorder) -> dict[str, int]:
    """Exact counts, plus the cache hit ratio (0.0 when nothing was loaded)."""
    out = {name: rec.counts[name] for name in COUNT_METRICS}
    loads = rec.counts["compiler.cache_loads"]
    out["compiler.cache_hit_ratio"] = (rec.counts["compiler.cache_hits"]
                                       / loads if loads else 0.0)
    return out
