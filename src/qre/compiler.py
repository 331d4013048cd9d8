"""Compile transpiled widgets into graph states, schedules, and Pauli frames.

Every non-Clifford rotation becomes a teleportation gadget: the wire's current
node is entangled to a fresh node (CZ then H on the fresh node), marked for
measurement in the rotation-angle basis, and the wire retargets to the fresh
node. Clifford gates act directly on current nodes (SWAP is pure relabeling).

One ``PauliRows`` sweep over the preparation ops carries two kinds of rows:
rows 0..g-1 are the g gadgets' conditional byproducts, each injected at its
gadget, and the rows above them the stabilizer tableau of |+>^n_nodes. Each
node's column is then a mask: its low g bits are the frames that touch the
node, its high bits the tableau column. The consumption sub-steps (greedy
maximal antichains of the frame-dependency order) are read from the low
bits of the measured nodes' columns, and ``graph_form`` canonicalizes the
high bits to graph + local-Clifford form. ``verify_unitarity`` checks the
whole construction by exact dense simulation; nothing else here simulates.

``compile_widget`` is pure. What estimation reads of a compiled and
prep-scheduled widget is a ``WidgetRecord``, and that record is what the
disk cache stores (``load_cached``/``save_cached``), one JSON file per key.
The fields that only verification and the tests read are the preparation
ops, the measurement angles and two derived on first read from the kept
masks: the per-gadget frames (``CompiledWidget.frames``) and the local
Cliffords (``CompiledWidget.local_cliffords``). None of them is written.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import _sim
from .circuit import (
    CLIFFORD_1Q,
    CLIFFORD_2Q,
    KIND_NAME,
    CircuitError,
    Gate,
    GateKind,
    TranspiledWidget,
    circuit_width,
)
from .prepsched import PrepSchedule
from .stabilizer import GraphForm, PauliRows, bits, graph_form
from .stabilizer import stabilizer_after  # noqa: F401  hooked by perfbench

CACHE_ENV = "QRE_CACHE_DIR"
CACHE_FORMAT = 4

SIM_QUBIT_LIMIT = 12


class CompileError(ValueError):
    """Raised for widget-compilation and verification failures."""


class Measurement(NamedTuple):
    """Consumption measurement of one node.

    kind "T" and "Rz" measure in the X basis rotated by the stored angle
    (pi/4-magnitude angles are tagged "T"); kind "X" is a plain X-basis
    teleportation measurement.
    """

    node: int
    kind: str
    angle: float


class PauliFrame(NamedTuple):
    """Byproduct applied when the source node's outcome is 1: X on
    x_support, Z on z_support (overlap means both, i.e. Y up to phase)."""

    x_support: tuple[int, ...]
    z_support: tuple[int, ...]

    def touches(self) -> frozenset[int]:
        return frozenset(self.x_support) | frozenset(self.z_support)


@dataclass(eq=True)
class CompiledWidget:
    """Graph state plus consumption data for one widget (see module docstring)."""

    n_input: int
    n_nodes: int
    edges: tuple[tuple[int, int], ...]
    input_nodes: tuple[int, ...]
    output_nodes: tuple[int, ...]
    prep_ops: tuple[tuple[str, tuple[int, ...]], ...]
    measurements: tuple[Measurement, ...]
    consump_schedule: tuple[tuple[int, ...], ...]
    n_logical: int
    # The sweep's rows (frames below, tableau above) and the graph form,
    # kept for the fields derived on first read.
    sweep: PauliRows = field(repr=False, compare=False)
    graph: GraphForm = field(repr=False, compare=False)

    @cached_property
    def frames(self) -> dict[int, PauliFrame]:
        """The byproduct frame of each measured node, in measurement order."""
        n_frames = len(self.measurements)
        low = (1 << n_frames) - 1
        rows = PauliRows([c & low for c in self.sweep.x],
                         [c & low for c in self.sweep.z], 0)
        return {m.node: PauliFrame(tuple(bits(x)), tuple(bits(z)))
                for m, (x, z, _) in zip(self.measurements,
                                        rows.row_masks(n_frames))}

    @property
    def local_cliffords(self) -> tuple[tuple[str, ...], ...]:
        return self.graph.applied

    @cached_property
    def nodes_by_kind(self) -> dict[str, tuple[int, ...]]:
        """Measured nodes of each measurement kind, in measurement order:
        the one pass over ``measurements`` that the counts and the widget
        record share."""
        nodes: dict[str, list[int]] = {"T": [], "Rz": []}
        for m in self.measurements:
            nodes.setdefault(m.kind, []).append(m.node)
        return {kind: tuple(v) for kind, v in nodes.items()}

    @property
    def n_T(self) -> int:
        return len(self.nodes_by_kind["T"])

    @property
    def n_Rz(self) -> int:
        return len(self.nodes_by_kind["Rz"])

    @property
    def meas_schedule(self) -> dict[int, Measurement]:
        return {m.node: m for m in self.measurements}


@dataclass(frozen=True)
class WidgetRecord:
    """What estimation and ``qre compile`` read of one compiled widget and
    its preparation schedule; the value the disk cache stores."""

    n_input: int
    n_nodes: int
    n_edges: int
    output_nodes: tuple[int, ...]
    t_nodes: tuple[int, ...]      # T-measured nodes, in measurement order
    rz_nodes: tuple[int, ...]     # Rz-measured nodes, in measurement order
    n_consump_steps: int
    n_logical: int
    n_clifford: int               # transpiled Clifford gates of one instance
    prep_spans: tuple[tuple[int, ...], ...]  # per prep sub-step, each
                                             # tuple's d_max

    @classmethod
    def of(cls, cw: CompiledWidget, prep: PrepSchedule,
           n_clifford: int) -> WidgetRecord:
        by_kind = cw.nodes_by_kind
        return cls(
            n_input=cw.n_input,
            n_nodes=cw.n_nodes,
            n_edges=len(cw.edges),
            output_nodes=cw.output_nodes,
            t_nodes=by_kind["T"],
            rz_nodes=by_kind["Rz"],
            n_consump_steps=len(cw.consump_schedule),
            n_logical=cw.n_logical,
            n_clifford=n_clifford,
            prep_spans=prep.substep_spans(),
        )

    @property
    def input_nodes(self) -> range:
        return range(self.n_input)

    @property
    def n_T(self) -> int:
        return len(self.t_nodes)

    @property
    def n_Rz(self) -> int:
        return len(self.rz_nodes)

    @property
    def n_sub_steps(self) -> int:
        return len(self.prep_spans)


# The prep op of each Clifford kind except SWAP (a relabeling), and the
# measurement kind and angle (None: the gate's own) of each gadget kind.
_PREP_OP = {kind: KIND_NAME[kind]
            for kind in (CLIFFORD_1Q | CLIFFORD_2Q) - {GateKind.SWAP}}
_GADGET = {GateKind.T: ("T", math.pi / 4), GateKind.Tdg: ("T", -math.pi / 4),
           GateKind.Rz: ("Rz", None)}


def compile_widget(w: TranspiledWidget,
                   n_input: int | None = None) -> CompiledWidget:
    """Compile one transpiled widget on ``n_input`` wires (default: the
    wires it touches)."""
    width = circuit_width(w.gates)
    n = max(width, 1) if n_input is None else n_input
    if width > n:
        raise CompileError(f"widget touches {width} wires but n_input={n}")
    return _compile(w, n)


def _compile(w: TranspiledWidget, n: int) -> CompiledWidget:
    cur = list(range(n))
    next_node = n
    ops: list[tuple[str, tuple[int, ...]]] = []
    measurements: list[Measurement] = []
    gadgets: list[tuple[int, int, int]] = []  # (measured node, fresh node, op index)

    for g in w.gates:
        name = _PREP_OP.get(g.kind)
        if name is not None:
            ops.append((name, tuple(map(cur.__getitem__, g.qubits))))
        elif g.kind is GateKind.SWAP:
            a, b = g.qubits
            cur[a], cur[b] = cur[b], cur[a]
        elif g.kind in _GADGET:
            kind, angle = _GADGET[g.kind]
            (q,) = g.qubits
            a, f = cur[q], next_node
            next_node += 1
            ops.append(("cz", (a, f)))
            ops.append(("h", (f,)))
            measurements.append(
                Measurement(a, kind, g.angle if angle is None else angle))
            gadgets.append((a, f, len(ops)))
            cur[q] = f
        else:
            raise CompileError(f"composite gate {g} in transpiled widget")

    n_nodes = next_node
    n_frames = len(gadgets)
    if n_frames != w.n_T_init + w.n_Rz_init:
        raise CompileError("gadget count disagrees with transpiled gate counts")

    # One sweep over ops: frame row j stays the identity (a fixed point of
    # every conjugation) until op index k_j, where it becomes Z on its fresh
    # node; tableau row n_frames + q starts as X_q.
    rows = PauliRows([1 << q for q in range(n_frames, n_frames + n_nodes)],
                     [0] * n_nodes, 0)
    start = 0
    for j, (_, f, k) in enumerate(gadgets):
        rows.apply_ops(ops[start:k])
        rows.z[f] |= 1 << j
        start = k
    rows.apply_ops(ops[start:])

    low = (1 << n_frames) - 1
    nodes = [a for a, _, _ in gadgets]
    schedule = _layer_consumption(
        nodes, [(rows.x[a] | rows.z[a]) & low for a in nodes])
    gf = graph_form(PauliRows([c >> n_frames for c in rows.x],
                              [c >> n_frames for c in rows.z],
                              rows.r >> n_frames))
    edges = gf.edge_list
    n_logical = _max_live_nodes(n, n_nodes, edges, schedule)

    return CompiledWidget(
        n_input=n,
        n_nodes=n_nodes,
        edges=edges,
        input_nodes=tuple(range(n)),
        output_nodes=tuple(cur),
        prep_ops=tuple(ops),
        measurements=tuple(measurements),
        consump_schedule=schedule,
        n_logical=n_logical,
        sweep=rows,
        graph=gf,
    )


def _layer_consumption(
    nodes: Sequence[int], preds: Sequence[int]
) -> tuple[tuple[int, ...], ...]:
    """Greedy maximal antichains of 'b before a if b's frame touches a'.

    Gadget j measures ``nodes[j]``, and bit i of ``preds[j]`` is set when
    gadget i's frame touches that node. Gadget order is topological (a
    frame is injected after the last op on its own node, so it can touch
    only nodes measured later), so one pass in that order finds each node's
    layer, its longest-path depth: one more than its deepest pred's.
    """
    depth: list[int] = []
    for j, p in enumerate(preds):
        if p >> j:
            raise CompileError("cyclic measurement dependencies")
        d = 0
        for i in bits(p):
            if depth[i] >= d:
                d = depth[i] + 1
        depth.append(d)
    layers: list[list[int]] = [[] for _ in range(max(depth, default=-1) + 1)]
    for v, d in sorted(zip(nodes, depth)):
        layers[d].append(v)
    return tuple(map(tuple, layers))


def _max_live_nodes(
    n_input: int,
    n_nodes: int,
    edges: Iterable[tuple[int, int]],
    schedule: Sequence[Sequence[int]],
) -> int:
    """Maximum concurrent nodes under just-in-time creation: a node exists
    from the first sub-step that measures it or a neighbor (inputs from the
    start) until its own measurement, outputs until the end."""
    horizon = len(schedule) + 1
    meas_time = {v: t + 1 for t, layer in enumerate(schedule) for v in layer}
    create = [0] * n_input + [
        meas_time.get(v, horizon) for v in range(n_input, n_nodes)]
    for u, v in edges:
        if u >= n_input:
            create[u] = min(create[u], meas_time.get(v, horizon))
        if v >= n_input:
            create[v] = min(create[v], meas_time.get(u, horizon))
    # Node v is live on sub-steps max(create, 1)..its measurement (or the
    # horizon): count it with +1/-1 at the ends and take the peak prefix sum.
    delta = [0] * (horizon + 2)
    for v in range(n_nodes):
        delta[max(create[v], 1)] += 1
        delta[meas_time.get(v, horizon) + 1] -= 1
    peak = live = 0
    for t in range(1, horizon + 1):
        live += delta[t]
        peak = max(peak, live)
    return peak


# --------------------------------------------------------------------------
# Stitching
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class StitchedEstimationSet:
    """Sequence-level counts: totals use multiplicities without expansion."""

    n_input: int
    n_widgets: int
    n_T_init: int
    n_Rz_init: int
    n_logical_max: int
    n_nodes_total: int


def stitch(items: Sequence[tuple[WidgetRecord, int]]) -> StitchedEstimationSet:
    """Combine widget records (with multiplicities) into sequence totals.

    The stitched node count adds one output-teleportation relay per wire per
    internal boundary: sum(N_i) + (n_widgets - 1) * n_input.
    """
    if not items:
        raise CompileError("empty widget sequence")
    n = items[0][0].n_input
    if any(w.n_input != n for w, _ in items):
        raise CompileError("stitched widgets must share n_input")
    if any(mult < 1 for _, mult in items):
        raise CompileError("multiplicities must be >= 1")
    n_widgets = sum(mult for _, mult in items)
    return StitchedEstimationSet(
        n_input=n,
        n_widgets=n_widgets,
        n_T_init=sum(mult * w.n_T for w, mult in items),
        n_Rz_init=sum(mult * w.n_Rz for w, mult in items),
        n_logical_max=max(w.n_logical for w, _ in items),
        n_nodes_total=sum(mult * w.n_nodes for w, mult in items)
        + (n_widgets - 1) * n,
    )


# --------------------------------------------------------------------------
# Simulation-backed verification
# --------------------------------------------------------------------------

_OP_MATS = {
    "h": _sim.H_MAT, "s": _sim.S_MAT, "sdg": _sim.SDG_MAT, "x": _sim.X_MAT,
    "y": _sim.Y_MAT, "z": _sim.Z_MAT, "cx": _sim.CX_MAT, "cz": _sim.CZ_MAT,
    "swap": _sim.SWAP_MAT,
}


class _Register:
    """Dense register addressed by node labels (axes tracked under removal)."""

    def __init__(self) -> None:
        self.state = np.ones((), dtype=complex)
        self.axes: dict[object, int] = {}

    @property
    def size(self) -> int:
        return self.state.ndim

    def add(self, label: object, vec: np.ndarray) -> None:
        self.state = np.multiply.outer(self.state, vec.astype(complex))
        self.axes[label] = self.state.ndim - 1

    def apply(self, mat: np.ndarray, labels: Sequence[object]) -> None:
        self.state = _sim.apply_matrix(
            self.state, mat, tuple(self.axes[l] for l in labels))

    def measure(self, label: object, vecs: Sequence[np.ndarray],
                rng: np.random.Generator) -> int:
        axis = self.axes.pop(label)
        reduced0, p0 = _sim.project_qubit(self.state, axis, vecs[0])
        outcome = 0 if rng.random() < p0 else 1
        if outcome == 0:
            self.state = reduced0 / math.sqrt(max(p0, 1e-300))
        else:
            reduced1, p1 = _sim.project_qubit(self.state, axis, vecs[1])
            self.state = reduced1 / math.sqrt(max(p1, 1e-300))
        for other, ax in self.axes.items():
            if ax > axis:
                self.axes[other] = ax - 1
        return outcome

    def ordered(self, labels: Sequence[object]) -> np.ndarray:
        perm = [self.axes[l] for l in labels]
        return np.transpose(self.state, perm)


def _meas_vectors(angle: float) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal pair for an angle-rotated X measurement (angle 0 is X)."""
    a = np.array([np.exp(0.5j * angle), np.exp(-0.5j * angle)]) / math.sqrt(2)
    b = np.array([np.exp(0.5j * angle), -np.exp(-0.5j * angle)]) / math.sqrt(2)
    return a, b


_PLUS = np.array([1, 1], dtype=complex) / math.sqrt(2)
_ZERO = np.array([1, 0], dtype=complex)
_X_VECS = _meas_vectors(0.0)


def verify_unitarity(
    widgets: Sequence[CompiledWidget],
    inverse_gates: Sequence[Gate],
    *,
    seed: int | None = None,
) -> float:
    """Execute the widget sequence by exact simulation on |0...0> with random
    measurement outcomes and eager frame corrections, apply the inverse gate
    list, and return the overlap-squared with |0...0>."""
    if not widgets:
        raise CompileError("empty widget sequence")
    n = widgets[0].n_input
    if any(w.n_input != n for w in widgets):
        raise CompileError("widgets must share n_input")
    peak = max(w.n_nodes for w in widgets)
    if len(widgets) > 1:
        peak = max(peak, n + 2)
    if peak > SIM_QUBIT_LIMIT:
        raise CompileError(f"verification needs {peak} simulated qubits, "
                           f"limit is {SIM_QUBIT_LIMIT}")

    rng = np.random.default_rng(seed)
    reg = _Register()
    carriers: list[object] = []

    for i, w in enumerate(widgets):
        if i == 0:
            for q in range(n):
                reg.add((0, q), _ZERO)
            carriers = [(0, q) for q in range(n)]
        else:
            for q in range(n):
                relay = ("relay", i, q)
                target = (i, q)
                reg.add(relay, _PLUS)
                reg.apply(_sim.CZ_MAT, (carriers[q], relay))
                s1 = reg.measure(carriers[q], _X_VECS, rng)
                reg.add(target, _PLUS)
                reg.apply(_sim.CZ_MAT, (relay, target))
                s2 = reg.measure(relay, _X_VECS, rng)
                if s2:
                    reg.apply(_sim.X_MAT, (target,))
                if s1:
                    reg.apply(_sim.Z_MAT, (target,))
                carriers[q] = target
        for v in range(n, w.n_nodes):
            reg.add((i, v), _PLUS)
        for name, qubits in w.prep_ops:
            reg.apply(_OP_MATS[name], [(i, v) for v in qubits])
        meas = w.meas_schedule
        for layer in w.consump_schedule:
            for node in layer:
                spec = meas[node]
                outcome = reg.measure((i, node), _meas_vectors(spec.angle), rng)
                if outcome:
                    frame = w.frames[node]
                    for v in frame.x_support:
                        reg.apply(_sim.X_MAT, [(i, v)])
                    for v in frame.z_support:
                        reg.apply(_sim.Z_MAT, [(i, v)])
        carriers = [(i, w.output_nodes[q]) for q in range(n)]

    state = reg.ordered(carriers)
    for g in inverse_gates:
        state = _sim.apply_matrix(state, _inverse_mat(g), g.qubits)
    amp = state[(0,) * n]
    return float(abs(amp) ** 2)


def _inverse_mat(g: Gate) -> np.ndarray:
    if g.kind is GateKind.Rz:
        return _sim.rz_mat(g.angle)
    if g.kind is GateKind.CPhase:
        return _sim.cphase_mat(g.angle)
    table = {GateKind.T: _sim.T_MAT, GateKind.Tdg: _sim.TDG_MAT,
             GateKind.CCX: _sim.CCX_MAT}
    return table.get(g.kind, _OP_MATS.get(g.kind.value))


# --------------------------------------------------------------------------
# Disk cache
# --------------------------------------------------------------------------

def cache_key(digest: str, n_input: int, fan_out: int) -> str:
    """Key of one widget's record under ``CACHE_FORMAT``: the
    ``gate_list_digest`` of its source gates, its wire count and the
    preparation fan-out."""
    text = f"v{CACHE_FORMAT}|n{n_input}|f{fan_out}|{digest}"
    return hashlib.sha256(text.encode()).hexdigest()


_RECORD_COUNTS = ("n_input", "n_nodes", "n_edges", "n_consump_steps",
                  "n_logical", "n_clifford")


def _ints(values: object) -> tuple[int, ...]:
    if type(values) is not list or not set(map(type, values)) <= {int}:
        raise TypeError("expected a list of integers")
    return tuple(values)


def _from_dict(payload: dict) -> WidgetRecord:
    """Rebuild a record; TypeError unless every count is an integer and
    every node or span list a list of integers."""
    counts = {name: payload[name] for name in _RECORD_COUNTS}
    if not set(map(type, counts.values())) <= {int}:
        raise TypeError("record counts must be integers")
    return WidgetRecord(
        **counts,
        output_nodes=_ints(payload["output_nodes"]),
        t_nodes=_ints(payload["t_nodes"]),
        rz_nodes=_ints(payload["rz_nodes"]),
        prep_spans=tuple(map(_ints, payload["prep_spans"])),
    )


def save_cached(directory: str | Path, key: str, record: WidgetRecord) -> Path:
    """Write ``record`` under ``key``, creating the directory on the first
    write into it. Each writer fills its own temporary file and renames it
    into place, so concurrent writers of one key never share a file; an
    empty directory squatting on the entry is replaced."""
    directory = Path(directory)
    path = directory / f"widget-{key}.json"
    payload = {"format": CACHE_FORMAT, "key": key, **vars(record)}
    temp = {"prefix": f"widget-{key}.", "suffix": ".tmp", "dir": directory}
    try:
        fd, tmp = tempfile.mkstemp(**temp)
    except FileNotFoundError:
        directory.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(**temp)
    try:
        with os.fdopen(fd, "w") as f:
            f.write(json.dumps(payload))
        try:
            os.replace(tmp, path)
        except IsADirectoryError:
            path.rmdir()
            os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return path


def load_cached(directory: str | Path, key: str) -> WidgetRecord | None:
    """The record stored under ``key``, or None when the entry is missing,
    unreadable, not a JSON object, of another format or key, or malformed:
    the caller then recomputes and overwrites it."""
    try:
        payload = json.loads((Path(directory) / f"widget-{key}.json")
                             .read_bytes())
        if (not isinstance(payload, dict)
                or payload.get("format") != CACHE_FORMAT
                or payload.get("key") != key):
            return None
        return _from_dict(payload)
    except (OSError, KeyError, TypeError, ValueError):
        return None
