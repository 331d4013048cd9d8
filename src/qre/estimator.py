"""Code-distance / precision / factory selection and the timing model.

Selection works outside-in: factories are tried in table order, and each is
solved by one loop (``_solve_factory``) that co-solves the synthesis
precision and the code distance (the precision budget per rotation must stay
below the per-tock logical error rate, but the synthesis length it implies
feeds back into the space-time volume that sets the distance).  A factory is
accepted only when its output error rate beats the logical cell it feeds
(otherwise distillation would be the weakest link), and the module layout is
recomputed for every candidate distance because the transfer-bus length and
the concurrent T-state feed both depend on d.  The distance scan skips,
without choosing a layout, each d at which the preparation volume alone
fails the budget: that volume reads neither the layout nor the synthesis
length.  A factory that fails gives
its reason: no module layout fits at any distance, no distance up to
``D_CAP`` meets the failure budget, or its output is not below the tock
error at the solved distance.  An infeasible run names every factory with
its reason.

One solve builds one scan state (``_Scan``) that every factory and every
precision step reads: the budget, and per odd d the per-cycle error, the
preparation-only bound and the tock error, each computed once, at first
need; and per (factory position, d) the chosen layout, computed once,
so a precision step that resumes at the last d does not choose it again.
Values are reused as computed, never rearranged, so each selection and
each reason is the one a scan recomputing them gives.  The state lives
for one call.

Timing follows the prepare-while-consuming pipeline across the two module
legs: total consumption time plus per-step distillation and preparation
delays, inter-leg handover teleports, and the decoding lag accumulated
whenever the classical decoder tock exceeds the quantum tock.  All sums are
multiplicity-weighted over the widget sequence so repeated widgets never
force an expanded walk.

Every sequence total the solver and the report read is
``CompiledAlgorithm.est``, built from the records' fields as columns in
``plan.ids`` order.

The module-crossing model lives here whole: ``_widget_inputs``, the one
place a node is mapped to a module, gives each widget's prep sub-step
count, per-sub-step crossings, per-module T/Rz maxima and handover
crossings, once per compiled algorithm and module layout
(``CompiledAlgorithm.timing_inputs``).  A ``compute_timing`` call only
does the arithmetic that depends on the config and the operating point
(t, t_inter, pipe count, d, synthesis length, factory), summing over
``plan.ids`` and ``plan.stitches`` in their order.  It reads the pipe
count only through ``_TimingInputs.pipe_rounds``, the one place the rounds
are computed, so a pipe sweep that times each distinct rounds tuple once
is right by construction.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from operator import mul
from typing import Iterable, Mapping, NamedTuple, Sequence

from .architecture import (
    EstimationError,
    ModuleLayout,
    TFactory,
    choose_modules_per_leg,
)
from .compiler import WidgetRecord
from .config import ArchConfig
from .widgetizer import PlanRecord

__all__ = [
    "StitchedEstimationSet",
    "CompiledAlgorithm",
    "SequentialCounts",
    "SelectionResult",
    "TimingBreakdown",
    "logical_error_per_cycle",
    "logical_error_per_tock",
    "gate_synthesis_length",
    "sequential_counts",
    "budget_rhs",
    "spacetime_lhs",
    "solve_distance_and_factory",
    "decoding_cores",
    "substep_crossings",
    "pipe_rounds",
    "compute_timing",
]

D_CAP = 199          # largest code distance the solver will consider
EPS_ITER_CAP = 50    # fixed-point iteration budget for the precision solve

# Builds a hot named tuple (SequentialCounts, _WidgetInputs) in C, past its
# Python-level __new__; neither validates.
_new = tuple.__new__


# --------------------------------------------------------------------------
# Error-rate and synthesis primitives
# --------------------------------------------------------------------------

def logical_error_per_cycle(p: float, d: int, kappa: float,
                            p_thresh: float) -> float:
    """Per-QEC-cycle logical error rate of a distance-d patch."""
    return kappa * (p / p_thresh) ** ((d + 1) / 2.0)


def logical_error_per_tock(p_c: float, d: int) -> float:
    """Failure probability of one d-cycle logical tock."""
    return 1.0 - (1.0 - p_c) ** d


def gate_synthesis_length(epsilon: float, c0: float, c1: float) -> int:
    """Worst-case Clifford+T length, c0 log2(1/epsilon) + c1 rounded up,
    approximating one rotation to diamond distance epsilon (c0 and c1 are
    ``ArchConfig``'s)."""
    if epsilon <= 0:
        raise ValueError(f"synthesis precision must be positive: {epsilon}")
    return math.ceil(c0 * math.log2(1.0 / epsilon) + c1)


class SequentialCounts(NamedTuple):
    """Totals of T-basis work after rotations are synthesized."""

    n_tot_t: int
    n_seq_consump: int
    n_seq_distill: int


def sequential_counts(n_t_init: int, n_rz_init: int, l_eps: int,
                      n_prime_eff: int) -> SequentialCounts:
    """Sequential T-consumption and T-distillation step counts when n'
    states can be delivered concurrently."""
    if n_prime_eff < 1:
        raise ValueError("concurrent T-state feed must be >= 1")
    n_tot_t = n_rz_init * l_eps + n_t_init
    n_seq_consump = (-(-n_t_init // n_prime_eff)
                     + l_eps * -(-n_rz_init // n_prime_eff))
    n_seq_distill = -(-n_tot_t // n_prime_eff)
    return _new(SequentialCounts, (n_tot_t, n_seq_consump, n_seq_distill))


# --------------------------------------------------------------------------
# Compiled-sequence container
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class StitchedEstimationSet:
    """Sequence totals of a compiled algorithm, each widget weighted by its
    multiplicity, so repeated widgets are never expanded. The node total
    adds one output-teleportation relay per wire per internal boundary:
    sum(N_i) + (n_widgets - 1) * n_input."""

    n_input: int
    n_widgets: int
    n_T_init: int
    n_Rz_init: int
    n_clifford_init: int       # transpiled Clifford gates
    n_logical_max: int
    n_nodes_total: int
    l_prep_total: int          # preparation sub-steps
    consump_steps_total: int


@dataclass(frozen=True)
class CompiledAlgorithm:
    """A widget plan, or the plan record of a warm run, with the record of
    each distinct widget, compiled and prep-scheduled.

    Keys of `compiled` are the plan's widget ids, each record compiled on
    the plan's wire count. ``est`` holds every sequence total.
    """

    plan: PlanRecord
    compiled: Mapping[str, WidgetRecord]
    _timing_memo: dict[tuple[int, int], _TimingInputs] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    # Distance/factory selection per whole config, filled by the pipeline:
    # an estimate and its sweeps solve each distinct config once.
    selections: dict[ArchConfig, SelectionResult] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    # Timing per whole config at its selection, filled likewise: configs
    # that share one, such as the default pipe count or decoder preset of a
    # sweep, are timed once.
    timings: dict[ArchConfig, TimingBreakdown] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        missing = set(self.plan.ids) - set(self.compiled)
        if missing:
            raise EstimationError(
                f"compiled table incomplete: missing {sorted(missing)}")

    @cached_property
    def est(self) -> StitchedEstimationSet:
        """Every multiplicity-weighted total over ``plan.ids``: the
        records, in that order, read as one column per field."""
        multiplicity = self.plan.multiplicity
        mults = list(multiplicity.values())
        column = dict(zip(WidgetRecord._fields,
                          zip(*map(self.compiled.__getitem__, multiplicity))))

        def total(name: str) -> int:
            return sum(map(mul, mults, column[name]))

        widgets = sum(mults)
        n = self.plan.n_input
        return StitchedEstimationSet(
            n_input=n, n_widgets=widgets, n_T_init=total("n_T"),
            n_Rz_init=total("n_Rz"), n_clifford_init=total("n_clifford"),
            n_logical_max=max(column["n_logical"]),
            n_nodes_total=total("n_nodes") + (widgets - 1) * n,
            l_prep_total=total("n_sub_steps"),
            consump_steps_total=total("n_consump_steps"))

    @property
    def l_prep_first(self) -> int:
        """Sub-steps to prepare the first graph (the unpipelined head)."""
        return self.compiled[self.plan.first].n_sub_steps

    def timing_inputs(self, layout: ModuleLayout) -> _TimingInputs:
        """The layout's integer timing inputs, built on first use: they
        depend on the layout only through its module split."""
        key = (layout.n_per_leg, layout.memory_per_module)
        inputs = self._timing_memo.get(key)
        if inputs is None:
            inputs = self._timing_memo[key] = _timing_inputs(self, layout)
        return inputs


# --------------------------------------------------------------------------
# Distance / precision / factory selection
# --------------------------------------------------------------------------

def budget_rhs(p_algo_fail: float) -> float:
    """-J1 = -ln(1 - p_algo_fail): the positive failure-budget bound."""
    return -math.log1p(-p_algo_fail)


def spacetime_lhs(
    d: int,
    p_c: float,
    n_logical: int,
    l_prep_total: int,
    n_per_leg: int,
    l_transfer_bus: int,
    counts: SequentialCounts,
    cycles: float,
) -> float:
    """Expected failure weight of the full space-time volume at distance d,
    with per-cycle logical error ``p_c`` (``logical_error_per_cycle``)."""
    consump_volume = (2.0 * n_logical + n_per_leg * l_transfer_bus) * (
        counts.n_seq_consump * d + counts.n_seq_distill * cycles)
    return _failure_weight(p_c, d, n_logical, l_prep_total, consump_volume)


def _failure_weight(p_c: float, d: int, n_logical: int, l_prep_total: int,
                    consump_volume: float) -> float:
    """Failure weight of the preparation volume plus ``consump_volume``.

    The preparation volume reads neither the layout nor the synthesis
    length. With ``consump_volume`` zero this is a lower bound on
    ``spacetime_lhs`` at d for every layout, exact in floating point: the
    rounded sum is never below its nonnegative addend, and multiplying by
    the positive factor ``p_c * d`` keeps the order."""
    prep_volume = 2.0 * n_logical * l_prep_total * d
    return p_c * d * (prep_volume + consump_volume)


class SelectionResult(NamedTuple):
    """Outcome of the distance/precision/factory solve."""

    d: int
    epsilon: float | None      # None when the algorithm needs no synthesis
    l_eps: int
    factory: TFactory
    p_logical: float           # logical error of one tock at d
    layout: ModuleLayout
    counts: SequentialCounts


class _Scan:
    """What one solve computes once and every factory and precision step
    reads: the budget ``rhs``; per odd d the per-cycle error, the
    preparation-only bound and the tock error; and per (factory position,
    d) the chosen module layout. Each value is computed at first need, by
    the same operations in the same order as a scan that recomputes it,
    so reuse changes no float. A scan lives for one solve: its values read
    the config and the sequence totals it was built from."""

    __slots__ = ("config", "n_logical", "l_prep_total", "rhs", "_cycle",
                 "_bound", "_tock", "_layouts")

    def __init__(self, config: ArchConfig, n_logical: int,
                 l_prep_total: int) -> None:
        self.config = config
        self.n_logical = n_logical
        self.l_prep_total = l_prep_total
        self.rhs = budget_rhs(config.p_algo_fail)
        self._cycle: dict[int, float] = {}
        self._bound: dict[int, float] = {}
        self._tock: dict[int, float] = {}
        self._layouts: dict[tuple[int, int], ModuleLayout | None] = {}

    def cycle_error(self, d: int) -> float:
        """Per-cycle logical error at d."""
        p_c = self._cycle.get(d)
        if p_c is None:
            config = self.config
            p_c = self._cycle[d] = logical_error_per_cycle(
                config.p, d, config.kappa, config.p_thresh)
        return p_c

    def prep_bound(self, d: int) -> float:
        """Failure weight of the preparation volume alone at d: a lower
        bound on ``spacetime_lhs`` at d for every layout."""
        bound = self._bound.get(d)
        if bound is None:
            bound = self._bound[d] = _failure_weight(
                self.cycle_error(d), d, self.n_logical, self.l_prep_total, 0.0)
        return bound

    def tock_error(self, d: int) -> float:
        """Logical error of one d-cycle tock at d."""
        p_tock = self._tock.get(d)
        if p_tock is None:
            p_tock = self._tock[d] = logical_error_per_tock(
                self.cycle_error(d), d)
        return p_tock

    def layout(self, position: int, d: int) -> ModuleLayout | None:
        """The layout of factory ``config.factories[position]`` at d, or
        None when none fits."""
        key = (position, d)
        layouts = self._layouts
        if key in layouts:
            return layouts[key]
        config = self.config
        layout = layouts[key] = choose_modules_per_leg(
            config.n_phys_per_module, self.n_logical, d,
            config.factories[position])
        return layout


def _solve_distance(
    scan: _Scan,
    position: int,
    l_eps: int,
    n_t_init: int,
    n_rz_init: int,
    d_start: int = 3,
) -> tuple[int, ModuleLayout, SequentialCounts] | str:
    """Smallest odd d in [d_start, D_CAP] meeting the failure budget with
    factory ``config.factories[position]``, with the module layout and
    sequential counts of every candidate distance; otherwise the reason no
    distance does.

    A distance whose preparation volume alone sinks the budget fails at
    every layout, so it is skipped without choosing one. Only when no
    distance passes are the skipped ones checked for a layout, to tell a
    machine too small at every distance from a budget no distance meets."""
    rhs = scan.rhs
    cycles = scan.config.factories[position].cycles
    fits = False
    skipped = []
    for d in range(d_start, D_CAP + 1, 2):
        if scan.prep_bound(d) >= rhs:
            skipped.append(d)
            continue
        layout = scan.layout(position, d)
        if layout is None:
            continue
        fits = True
        counts = sequential_counts(n_t_init, n_rz_init, l_eps,
                                   layout.n_prime_effective)
        lhs = spacetime_lhs(d, scan.cycle_error(d), scan.n_logical,
                            scan.l_prep_total, layout.n_per_leg,
                            layout.l_transfer_bus, counts, cycles)
        if lhs < rhs:
            return d, layout, counts
    if not (fits or any(scan.layout(position, d) is not None
                        for d in skipped)):
        return f"no module layout fits at any odd d <= {D_CAP}"
    return (f"no odd d <= {D_CAP} meets the failure budget "
            f"p_algo_fail={scan.config.p_algo_fail}")


def _solve_factory(
    scan: _Scan,
    est: StitchedEstimationSet,
    position: int,
) -> SelectionResult | str:
    """Co-solve (d, epsilon) for factory ``config.factories[position]``,
    or the reason it fails.

    Without rotations the synthesis length is zero, and a pinned precision
    fixes it, so one distance solve suffices.  Otherwise start at length
    zero and iterate: solve d, then demand epsilon below the tock error at
    d, setting epsilon to that error the first time and to half of it after
    each failed demand.  Distance grows monotonically while epsilon shrinks,
    so the loop settles quickly.  Each distance solve starts its scan at
    the last one's d: with ``c0 >= 0`` (``ArchConfig.validate``) the
    synthesis length never shrinks as epsilon does, and at a fixed d the
    failure volume does not fall as that length grows (the layout does not
    read it), so no smaller d can pass.  The factory is accepted when its
    output error beats the tock error of the cell it feeds, or when no T
    state is consumed and the factories idle.
    """
    config = scan.config
    factory = config.factories[position]
    fixed_point = est.n_Rz_init > 0 and config.epsilon is None
    epsilon = config.epsilon if est.n_Rz_init > 0 else None
    d = 3
    for _ in range(EPS_ITER_CAP + 1):
        l_eps = (0 if epsilon is None
                 else gate_synthesis_length(epsilon, config.c0, config.c1))
        solved = _solve_distance(scan, position, l_eps, est.n_T_init,
                                 est.n_Rz_init, d)
        if isinstance(solved, str):
            return solved
        d, layout, counts = solved
        p_logical = scan.tock_error(d)
        if fixed_point and (epsilon is None or not epsilon < p_logical):
            epsilon = p_logical if epsilon is None else p_logical / 2.0
            continue
        if counts.n_tot_t > 0 and not factory.p_out < p_logical:
            return (f"output error {factory.p_out} is not below the logical "
                    f"tock error {p_logical:.3e} at d={d}")
        return SelectionResult(d, epsilon, l_eps, factory, p_logical, layout,
                               counts)
    raise EstimationError(
        f"precision fixed point did not settle within {EPS_ITER_CAP} "
        f"iterations (factory {factory.name!r})")


def solve_distance_and_factory(
    config: ArchConfig,
    est: StitchedEstimationSet,
) -> SelectionResult:
    """Solve each factory in table order and keep the first that succeeds;
    when none does, the error names every factory with its reason. Every
    factory and precision step reads one scan (``_Scan``), so each
    distance's errors and each (factory, distance) layout are computed
    once per call."""
    scan = _Scan(config, est.n_logical_max, est.l_prep_total)
    reasons = []
    for position, factory in enumerate(config.factories):
        solved = _solve_factory(scan, est, position)
        if isinstance(solved, SelectionResult):
            return solved
        reasons.append(f"factory {factory.name!r}: {solved}")
    raise EstimationError("estimation infeasible: " + "; ".join(reasons))


# --------------------------------------------------------------------------
# Timing model
# --------------------------------------------------------------------------

def decoding_cores(t_decoder: float, t: float) -> int:
    """Concurrent decoding cores needed so decoding lags by at most one tock
    (ratio of decoder tock to quantum tock; the shared factor d cancels)."""
    return math.ceil(t_decoder / (8.0 * t))


@dataclass(frozen=True)
class TimingBreakdown:
    """Wall-time components of one algorithm repetition (seconds)."""

    t_consump_total: float
    t_distill_delay_total: float
    t_prep_delay_total: float
    t_handover_inter_total: float
    t_decode_delay_total: float
    t_hardware_total: float
    t_ft_total: float

    def __post_init__(self) -> None:
        parts = (self.t_consump_total, self.t_distill_delay_total,
                 self.t_prep_delay_total, self.t_handover_inter_total,
                 self.t_decode_delay_total)
        if any(x < 0 for x in parts):
            raise EstimationError(f"negative timing component: {self}")


def substep_crossings(spans: Iterable[Sequence[int]],
                      n_logical: int) -> Counter[int]:
    """Module-boundary crossings of one widget's preparation, per sub-step,
    from each sub-step's tuple spans (``WidgetRecord.prep_spans``).

    Each tuple spanning d_max register slots crosses floor(d_max / n_logical)
    module boundaries, and a sub-step's crossings travel together. The
    result maps each nonzero per-sub-step total to its number of sub-steps.
    """
    if n_logical < 1:
        raise ValueError("n_logical must be >= 1")
    totals = (sum(span // n_logical for span in step) for step in spans)
    return Counter(c for c in totals if c)


def pipe_rounds(crossings: Mapping[int, int], n_inter_pipes: int) -> int:
    """Operations that carry batches of crossings over the inter-module
    pipes: a batch of c crossings shares the pipes, so it takes
    ceil(c / n_inter_pipes) operations. ``crossings`` maps each batch size
    to its number of batches."""
    if n_inter_pipes < 1:
        raise ValueError("n_inter_pipes must be >= 1")
    return sum(count * -(-c // n_inter_pipes)
               for c, count in crossings.items())


class _WidgetInputs(NamedTuple):
    """One widget's integer timing inputs on one module layout."""

    n_sub_steps: int          # preparation sub-steps
    crossings: Mapping[int, int]  # per-sub-step cross-module crossings
    n_max_t: int              # per-module T maximum
    n_max_rz: int             # per-module Rz maximum
    handover: int             # crossings to teleport its outputs onward


def _widget_inputs(record: WidgetRecord, register_size: int,
                   layout: ModuleLayout) -> _WidgetInputs:
    """One widget's timing inputs on ``layout``: node v sits in module
    (v % register_size) // memory_per_module of its leg. The handover
    teleports output j onto wire j, input j of the next widget, so it
    reads this widget alone. With one module per leg nothing crosses a
    module boundary, so no node list or span is read: only the counts, and
    the crossings are a fresh empty dict, which costs less to build than a
    ``Counter``."""
    if layout.n_per_leg == 1:
        return _new(_WidgetInputs,
                    (record.n_sub_steps, {}, record.n_T, record.n_Rz, 0))
    slots = layout.memory_per_module
    maxima = []
    for nodes in (record.t_nodes, record.rz_nodes):
        counts = [0] * layout.n_per_leg
        for node in nodes:
            counts[node % register_size // slots] += 1
        maxima.append(max(counts))
    handover = sum(abs(node % register_size // slots
                       - wire % register_size // slots) + 1
                   for wire, node in enumerate(record.output_nodes))
    return _WidgetInputs(record.n_sub_steps,
                         substep_crossings(record.prep_spans, register_size),
                         *maxima, handover)


@dataclass(frozen=True)
class _TimingInputs:
    """Integer timing inputs of one compiled algorithm on one module layout:
    ``widgets`` in ``plan.ids`` order; ``weights`` the positions of each
    that can stall, its multiplicity less one for the sequence's last
    widget; ``stitches`` as (index of a, index of b, count) in
    ``plan.stitches`` order; ``handover`` mapping a handover's
    module-boundary crossings to the stitch occurrences that have that
    many; and ``crossing`` the nonempty per-sub-step crossings of
    ``widgets``, in their order."""

    widgets: tuple[_WidgetInputs, ...]
    weights: tuple[int, ...]
    stitches: tuple[tuple[int, int, int], ...]
    handover: Counter[int]
    crossing: tuple[Mapping[int, int], ...]

    def pipe_rounds(self, n_inter_pipes: int) -> tuple[int, ...]:
        """Everything the timing reads of the pipe count: the preparation
        pipe rounds of each widget that crosses modules, in ``widgets``
        order, then the handover rounds. Pipe counts with equal tuples
        give identical timings."""
        return (*(pipe_rounds(c, n_inter_pipes) for c in self.crossing),
                pipe_rounds(self.handover, n_inter_pipes))


def _timing_inputs(algo: CompiledAlgorithm,
                   layout: ModuleLayout) -> _TimingInputs:
    plan = algo.plan
    register_size = algo.est.n_logical_max
    widgets = tuple(_widget_inputs(algo.compiled[wid], register_size, layout)
                    for wid in plan.ids)
    index = {wid: i for i, wid in enumerate(plan.ids)}
    stitches = tuple((index[a], index[b], count)
                     for (a, b), count in plan.stitches.items())
    handover: Counter[int] = Counter()
    for a, _, count in stitches:
        if widgets[a].handover:
            handover[widgets[a].handover] += count
    return _TimingInputs(
        widgets=widgets,
        weights=tuple(plan.multiplicity[wid] - (1 if wid == plan.last else 0)
                      for wid in plan.ids),
        stitches=stitches,
        handover=handover,
        crossing=tuple(w.crossings for w in widgets if w.crossings))


def compute_timing(
    config: ArchConfig,
    algo: CompiledAlgorithm,
    sel: SelectionResult,
) -> TimingBreakdown:
    """All wall-time components for the compiled sequence at the selected
    (d, epsilon, factory) operating point."""
    inputs = algo.timing_inputs(sel.layout)
    d = sel.d
    t, t_inter = config.t, config.t_inter
    cycles = sel.factory.cycles
    l_eps = sel.l_eps
    n_fact = sel.layout.n_t_factories
    l_transfer_bus = sel.layout.l_transfer_bus
    prep_tock, tock, factory_tock = 8.0 * d, 8.0 * t * d, 8.0 * t * cycles

    # All that the timing reads of the pipe count: the rounds of each
    # widget that crosses modules, in order, then the handover's.
    *prep_rounds, handover_rounds = inputs.pipe_rounds(config.n_inter_pipes)
    prep_rounds_left = iter(prep_rounds)
    t_prep, t_consump_intra, t_distill_delay = [], [], []
    for n_intra, crossings, n_max_t, n_max_rz, _ in inputs.widgets:
        n_cross = next(prep_rounds_left) if crossings else 0
        prep = prep_tock * (n_intra * t + n_cross * t_inter)
        t_prep.append(prep)
        t_consump_intra.append(tock * (
            -(-n_max_t // n_fact) + l_eps * -(-n_max_rz // n_fact)))
        # T states banked on the transfer bus while this graph was prepared,
        # against the longest sequential T demand any single module sees.
        n_t_per_module = max(int(n_fact * prep // factory_tock),
                             l_transfer_bus)
        l_max_seq = n_max_t + l_eps * n_max_rz
        if l_max_seq > n_t_per_module:
            shortfall = -(-(l_max_seq - n_t_per_module) // n_fact)
            t_distill_delay.append(factory_tock * shortfall)
        else:
            t_distill_delay.append(0.0)

    # Distillation stalls occur at every sequence position except the last.
    # Added left to right, not by sum(), whose float rounding changed in
    # Python 3.12, so every interpreter gives one total.
    t_distill_total = 0.0
    for w, delay in zip(inputs.weights, t_distill_delay):
        t_distill_total += w * delay

    # Preparation stalls and handover teleports are properties of ordered
    # adjacent pairs, so the stitch multiset gives their sequence totals.
    t_prep_delay_total = 0.0
    for a, b, count in inputs.stitches:
        lag = t_prep[b] - t_consump_intra[a] - t_distill_delay[a]
        if lag > 0:
            t_prep_delay_total += count * lag
    t_handover = 8.0 * t_inter * d * handover_rounds

    t_consump = (tock * (algo.l_prep_first + sel.counts.n_seq_consump)
                 + t_distill_total + t_prep_delay_total)

    # Decoding lag: one (decoder tock - quantum tock) per consumption-side
    # tock, plus the slower factory tock for distillation stalls.
    decoder_tock = config.t_decoder * d
    consump_tocks = (algo.l_prep_first + sel.counts.n_seq_consump
                     + math.ceil(t_prep_delay_total / tock))
    distill_tocks = math.ceil(t_distill_total / factory_tock)
    t_decode = (consump_tocks * max(0.0, decoder_tock - tock)
                + distill_tocks * max(0.0, decoder_tock - factory_tock))

    t_hardware = t_consump + t_handover + t_decode
    return TimingBreakdown(
        t_consump_total=t_consump,
        t_distill_delay_total=t_distill_total,
        t_prep_delay_total=t_prep_delay_total,
        t_handover_inter_total=t_handover,
        t_decode_delay_total=t_decode,
        t_hardware_total=t_hardware,
        t_ft_total=config.n_algo_reps * t_hardware,
    )
