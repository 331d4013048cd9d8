"""Compile transpiled widgets into graph states, schedules, and Pauli frames.

Every non-Clifford rotation becomes a teleportation gadget: the wire's current
node is entangled to a fresh node (CZ then H on the fresh node), marked for
measurement in the rotation-angle basis, and the wire retargets to the fresh
node. Clifford gates act directly on current nodes (SWAP is pure relabeling).

One pass over the widget's gates (the ``GateOp`` tuples of
``circuit.transpile``, read by ``kind``, ``qubits`` and ``angle``)
conjugates the columns of one ``PauliRows`` sweep by the preparation ops of
each gate, and records each gadget's measured node, in gadget order and in
its kind's list. It builds no op and no ``Measurement``: estimation reads
neither.
The sweep carries two kinds of rows, both Paulis up to sign: rows 0..g-1
are the g gadgets' conditional byproducts, each injected right after its
gadget's H, and the rows above them the stabilizer tableau of
|+>^n_nodes. The pass applies the conjugation rules by gate kind; they are
those of ``PauliRows.apply_ops``, the rules by op name that
``stabilizer_after`` and the tests replay the preparation ops through.
Each node's column is then a mask: its low g bits are the frames that
touch the node, its high bits the tableau column. The consumption
sub-steps (greedy maximal antichains of the frame-dependency order) are
read from the low bits of the measured nodes' columns, and ``graph_form``
reads the edges of the state's graph-state form from the high bits. None
of these reads a sign: a frame is an X and a Z support, and the graph
does not depend on the signs. Nothing here simulates: the dense check of
the whole construction, ``verify_unitarity``, lives in ``_sim``, which
only ``verify`` and the tests import.

``compile_widget`` is pure. What estimation reads of a compiled and
prep-scheduled widget is a ``WidgetRecord``. The disk cache stores those
records one JSON file per distinct set of widgets (``load_cached``/
``save_cached``), so a plan's widgets cost one read and one write. The
file is columnar: the widgets' gate-list digests in one list, and one list
per ``WidgetRecord`` field in digest order, so a read validates each
field once per set, over its column, not once per record. A record holds
its node lists and preparation spans as compact text, which a read checks
but does not decode: the counts come from the separators, and the values
are decoded on first read, which only a layout with more than one module
per leg makes. The records' sequence totals are the estimator's
(``CompiledAlgorithm.est``). Beside the set records the cache keeps one
``PlanRecord`` per input file and split budget (``load_plan``/
``save_plan``), columnar too; both kinds share one atomic write and one
validated read.
The fields that only verification and the tests read are derived on first
read: the preparation ops, by one relabeling pass over the kept gates
(``_preparation``, the compile loop's rule without the sweep); each
gadget's ``Measurement``, its kept measured node with its gate's kind and
angle; and the per-gadget frames, from the kept sweep
(``CompiledWidget.frames``). None of them is written.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import tempfile
from dataclasses import dataclass, field, fields
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence, TypeVar

from .circuit import (
    KIND_NAME,
    GateKind,
    GateOp,
    TranspiledWidget,
    circuit_width,
)
from .prepsched import PrepSchedule
from .stabilizer import PauliRows, bits, graph_form
from .stabilizer import stabilizer_after  # noqa: F401  hooked by perfbench
from .widgetizer import PlanRecord

CACHE_ENV = "QRE_CACHE_DIR"
CACHE_FORMAT = 8
# The rule that derives a plan from its source, part of every plan key, so
# that a plan record written under another rule is never read. Rule 1 gave a
# flat QASM file the width of its widest gate; rule 2 gives it its declared
# register; rule 3 numbers a nested plan's widget ids over its leaves only;
# rule 4 drops the blocks with no gates from a split nested plan; rule 5
# slices a flat block up to its largest moment, where rule 4 stopped at the
# last gate's moment and dropped the gates past it; rule 6 rejects a flat
# QASM file with no register or an empty one, which rule 5 sized as 1 qubit;
# rule 7 splits flat QASM and cuts gate lists in gate order; rule 8 cuts by
# gate count alone, where rule 7 also cut at 64 active qubits.
PLAN_RULE = 8


class CompileError(ValueError):
    """Raised for widget-compilation and verification failures."""


class Measurement(NamedTuple):
    """Consumption measurement of one node.

    Both kinds, "T" and "Rz", measure in the X basis rotated by the stored
    angle (pi/4-magnitude angles are tagged "T").
    """

    node: int
    kind: str
    angle: float


class PauliFrame(NamedTuple):
    """Byproduct applied when the source node's outcome is 1: X on
    x_support, Z on z_support (overlap means both, i.e. Y up to phase)."""

    x_support: tuple[int, ...]
    z_support: tuple[int, ...]


@dataclass(eq=True)
class CompiledWidget:
    """Graph state plus consumption data for one widget (see module
    docstring). ``prep_ops``, ``measurements`` and ``frames``, which only
    verification and the tests read, are derived on first read from the
    kept gates, measured nodes and sweep."""

    n_input: int
    n_nodes: int
    edges: tuple[tuple[int, int], ...]
    output_nodes: tuple[int, ...]
    measured: tuple[int, ...]  # the measured node of each gadget, in order
    nodes_by_kind: dict[str, tuple[int, ...]]  # ``measured`` split by kind
    consump_schedule: tuple[tuple[int, ...], ...]
    n_logical: int
    # The transpiled gates, kept for ``prep_ops`` and ``measurements``.
    gates: tuple[GateOp, ...] = field(repr=False)
    # The sweep's rows (frames below, tableau above), kept for ``frames``.
    sweep: PauliRows = field(repr=False, compare=False)

    @cached_property
    def prep_ops(self) -> tuple[tuple[str, tuple[int, ...]], ...]:
        """The ops that prepare the graph state from |+> on every node."""
        return _preparation(self.gates, self.n_input)

    @cached_property
    def measurements(self) -> tuple[Measurement, ...]:
        """Each gadget's measurement, in gadget order: its measured node,
        with the kind and angle of its gate."""
        out = []
        gadgets = (g for g in self.gates if g.kind in _GADGET)
        for a, g in zip(self.measured, gadgets):
            kind, angle = _GADGET[g.kind]
            out.append(Measurement(a, kind, g.angle if angle is None else angle))
        return tuple(out)

    @cached_property
    def frames(self) -> dict[int, PauliFrame]:
        """The byproduct frame of each measured node, in measurement order."""
        n_frames = len(self.measured)
        low = (1 << n_frames) - 1
        rows = PauliRows([c & low for c in self.sweep.x],
                         [c & low for c in self.sweep.z])
        return {a: PauliFrame(tuple(bits(x)), tuple(bits(z)))
                for a, (x, z) in zip(self.measured, rows.row_masks(n_frames))}

    @property
    def meas_schedule(self) -> dict[int, Measurement]:
        return {m.node: m for m in self.measurements}


def encode_nodes(nodes: Iterable[int]) -> str:
    """A node list as a record holds it: each node in decimal, followed by
    one space."""
    return "".join([f"{v} " for v in nodes])


def _decode(text: str) -> tuple[int, ...]:
    """The integers of an ``encode_nodes`` text."""
    return tuple(map(int, text.split()))


@dataclass(frozen=True)
class WidgetRecord:
    """What estimation and ``qre compile`` read of one compiled widget and
    its preparation schedule; the value the disk cache stores. It holds no
    wire count: the plan and the set record's key fix it.

    The node lists and the spans are held as text: a node list as
    ``encode_nodes`` writes it, and the spans as each sub-step's tuple
    spans written the same way, then ``;``. Their lengths are counted from
    the separators, and the values, which only a layout with more than one
    module per leg reads, are decoded on first read."""

    n_nodes: int
    n_edges: int
    output_text: str              # output nodes, wire by wire
    t_text: str                   # T-measured nodes, in measurement order
    rz_text: str                  # Rz-measured nodes, in measurement order
    n_consump_steps: int
    n_logical: int
    n_clifford: int               # transpiled Clifford gates of one instance
    spans_text: str               # per prep sub-step, each tuple's d_max

    @classmethod
    def of(cls, cw: CompiledWidget, prep: PrepSchedule,
           n_clifford: int) -> WidgetRecord:
        """The record of ``cw`` and its preparation ``prep``. The spans
        text is written in one pass over the sub-steps: each tuple's span,
        its d_max (the width of the interval its nodes span, for
        cross-module counting), read off its center and end leaves."""
        by_kind = cw.nodes_by_kind
        spans = []
        for step in prep.sub_steps:
            for c, leaves in step:
                lo, hi = leaves[0], leaves[-1]
                span = (c if c > hi else hi) - (c if c < lo else lo)
                spans.append(f"{span} ")
            spans.append(";")
        return cls(
            n_nodes=cw.n_nodes,
            n_edges=len(cw.edges),
            output_text=encode_nodes(cw.output_nodes),
            t_text=encode_nodes(by_kind["T"]),
            rz_text=encode_nodes(by_kind["Rz"]),
            n_consump_steps=len(cw.consump_schedule),
            n_logical=cw.n_logical,
            n_clifford=n_clifford,
            spans_text="".join(spans),
        )

    @property
    def n_T(self) -> int:
        return self.t_text.count(" ")

    @property
    def n_Rz(self) -> int:
        return self.rz_text.count(" ")

    @property
    def n_sub_steps(self) -> int:
        return self.spans_text.count(";")

    @cached_property
    def output_nodes(self) -> tuple[int, ...]:
        return _decode(self.output_text)

    @cached_property
    def t_nodes(self) -> tuple[int, ...]:
        return _decode(self.t_text)

    @cached_property
    def rz_nodes(self) -> tuple[int, ...]:
        return _decode(self.rz_text)

    @cached_property
    def prep_spans(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(_decode, self.spans_text.split(";")[:-1]))


# The measurement kind and angle (None: the gate's own) of each gadget kind.
_GADGET = {GateKind.T: ("T", math.pi / 4), GateKind.Tdg: ("T", -math.pi / 4),
           GateKind.Rz: ("Rz", None)}
_PAULI = frozenset({GateKind.X, GateKind.Y, GateKind.Z})
# Members read as module globals: a read off the Enum class is a Python-level
# descriptor call, some ten times slower, and the compile loop makes one per
# branch it tests.
_H, _S, _SDG = GateKind.H, GateKind.S, GateKind.Sdg
_CX, _CZ, _SWAP, _RZ = GateKind.CX, GateKind.CZ, GateKind.SWAP, GateKind.Rz
_COUNT_MISMATCH = "gadget count disagrees with transpiled gate counts"


def compile_widget(w: TranspiledWidget, n_input: int) -> CompiledWidget:
    """Compile one transpiled widget on ``n_input`` wires, its plan's wire
    count. CompileError when a gate reaches a wire past them, when the
    gadgets disagree with the widget's T and Rz counts, or on a composite
    gate."""
    # One pass over the gates conjugates the sweep's columns by each prep
    # op, by the rules of ``PauliRows.apply_ops``, and records each gadget's
    # measured node; the ops themselves are ``_preparation``'s. Frame row j
    # stays the identity (a fixed point of every conjugation) until its
    # gadget's H, where it becomes Z on the fresh node n + j; tableau row
    # n_frames + v starts as X_v.
    n = n_input
    n_frames = w.n_T_init + w.n_Rz_init
    n_nodes = n + n_frames
    x = [1 << v for v in range(n_frames, n_frames + n_nodes)]
    z = [0] * n_nodes
    cur = list(range(n))
    f = n  # the next fresh node
    nodes: list[int] = []  # the measured node of each gadget
    t_nodes: list[int] = []
    rz_nodes: list[int] = []
    try:
        for g in w.gates:
            k = g.kind
            if k is _CX:
                a, b = g.qubits
                a, b = cur[a], cur[b]
                x[b] ^= x[a]
                z[a] ^= z[b]
            elif k in _GADGET:
                # CZ(a, f) then H on f, whose column is X_f until then.
                (q,) = g.qubits
                a = cur[q]
                xf = x[f]
                z[a] ^= xf
                x[f] = x[a]
                z[f] = xf | 1 << (f - n)
                nodes.append(a)
                (rz_nodes if k is _RZ else t_nodes).append(a)
                cur[q] = f
                f += 1
            elif k is _H:
                q = cur[g.qubits[0]]
                x[q], z[q] = z[q], x[q]
            elif k is _CZ:
                a, b = g.qubits
                a, b = cur[a], cur[b]
                z[a] ^= x[b]
                z[b] ^= x[a]
            elif k is _S or k is _SDG:
                q = cur[g.qubits[0]]
                z[q] ^= x[q]
            elif k in _PAULI:  # changes signs only
                pass
            elif k is _SWAP:  # a relabeling
                a, b = g.qubits
                cur[a], cur[b] = cur[b], cur[a]
            else:
                raise CompileError(f"composite gate {g} in transpiled widget")
    except IndexError:
        # A wire at or past n, or a gadget past the counted ones, indexes
        # past the lists; the width is counted on this path alone.
        width = circuit_width(w.gates)
        if width > n:
            raise CompileError(
                f"widget touches {width} wires but n_input={n}") from None
        raise CompileError(_COUNT_MISMATCH) from None
    if f != n_nodes:
        raise CompileError(_COUNT_MISMATCH)

    low = (1 << n_frames) - 1
    schedule = _layer_consumption(
        nodes, [(x[a] | z[a]) & low for a in nodes])
    edges = graph_form(PauliRows([c >> n_frames for c in x],
                                 [c >> n_frames for c in z]))
    n_logical = _max_live_nodes(n, n_nodes, edges, schedule)

    return CompiledWidget(
        n_input=n,
        n_nodes=n_nodes,
        edges=edges,
        output_nodes=tuple(cur),
        measured=tuple(nodes),
        nodes_by_kind={"T": tuple(t_nodes), "Rz": tuple(rz_nodes)},
        consump_schedule=schedule,
        n_logical=n_logical,
        gates=w.gates,
        sweep=PauliRows(x, z),
    )


def _preparation(gates: Iterable[GateOp],
                 n: int) -> tuple[tuple[str, tuple[int, ...]], ...]:
    """The preparation ops of a compiled widget's ``gates`` on ``n`` wires,
    by the compile loop's rule: a gate acts on its wires' current nodes; a
    gadget is CZ(a, f) then H(f) on the next fresh node f, to which its
    wire then moves; a SWAP only relabels."""
    cur = list(range(n))
    f = n  # the next fresh node
    ops: list[tuple[str, tuple[int, ...]]] = []
    for g in gates:
        k = g.kind
        if k in _GADGET:
            (q,) = g.qubits
            ops += [("cz", (cur[q], f)), ("h", (f,))]
            cur[q] = f
            f += 1
        elif k is _SWAP:
            a, b = g.qubits
            cur[a], cur[b] = cur[b], cur[a]
        else:
            ops.append((KIND_NAME[k], tuple([cur[q] for q in g.qubits])))
    return tuple(ops)


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
        while p:  # each set bit i of p, lowest first
            low = p & -p
            i = low.bit_length() - 1
            if depth[i] >= d:
                d = depth[i] + 1
            p ^= low
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
    meas = [horizon] * n_nodes
    for t, layer in enumerate(schedule, 1):
        for v in layer:
            meas[v] = t
    # Minima and maxima are taken inline: a builtin call per edge and per
    # node costs more than the comparison.
    create = [0] * n_input + meas[n_input:]
    for u, v in edges:
        if u >= n_input and meas[v] < create[u]:
            create[u] = meas[v]
        if v >= n_input and meas[u] < create[v]:
            create[v] = meas[u]
    # Node v is live on sub-steps max(create, 1)..its measurement (or the
    # horizon): count it with +1/-1 at the ends and take the peak prefix sum.
    delta = [0] * (horizon + 2)
    for c, m in zip(create, meas):
        delta[c if c > 1 else 1] += 1
        delta[m + 1] -= 1
    peak = live = 0
    for d in delta[1:horizon + 1]:
        live += d
        if live > peak:
            peak = live
    return peak


# --------------------------------------------------------------------------
# Disk cache
# --------------------------------------------------------------------------

T = TypeVar("T")


def widget_set_key(digests: Iterable[str], n_input: int, fan_out: int) -> str:
    """Key of one widget set's record under ``CACHE_FORMAT``: the wire
    count, the preparation fan-out and the sorted, distinct
    ``gate_list_digest``s of the widgets' source gates, so that it does
    not depend on the order or the multiplicity of the widgets."""
    text = (f"v{CACHE_FORMAT}|n{n_input}|f{fan_out}|"
            + "|".join(sorted(set(digests))))
    return hashlib.sha256(text.encode()).hexdigest()


# The set record's columns, one per ``WidgetRecord`` field in field order:
# the counts, JSON integers, and the texts, JSON strings.
_RECORD_COUNTS = ("n_nodes", "n_edges", "n_consump_steps", "n_logical",
                  "n_clifford")
_RECORD_NODES = ("output_text", "t_text", "rz_text")
_RECORD_FIELDS = tuple(f.name for f in fields(WidgetRecord))
# The characters of a node or spans text column joined by ",".
_NODE_CHARS = re.compile(r"[0-9 ,]*")
_SPANS_CHARS = re.compile(r"[0-9 ;,]*")
_DIGITS_AS_0 = str.maketrans("123456789", "000000000")


def _all(kind: type, values: Iterable[object]) -> bool:
    """Whether every value is exactly of type ``kind`` (a bool is not an
    int, and 1.0 not an int)."""
    return set(map(type, values)) <= {kind}


def save_cached(directory: str | Path, key: str,
                records: Mapping[str, WidgetRecord]) -> Path:
    """Write a widget set's ``records``, by digest, under ``key`` (see
    ``_save_entry``), as columns: ``digests`` lists the digests, and each
    ``WidgetRecord`` field has one list of its values in digest order."""
    columns: dict[str, list] = {"digests": list(records)}
    for name in _RECORD_FIELDS:
        columns[name] = [getattr(record, name) for record in records.values()]
    return _save_entry(directory, "widgets", key, columns)


def load_cached(directory: str | Path,
                key: str) -> dict[str, WidgetRecord] | None:
    """The widget records, by digest, of the set stored under ``key``, or
    None (see ``_load_entry``) when the set record is missing or any of
    its columns malformed: the caller then recompiles the whole set and
    overwrites it."""
    return _load_entry(directory, "widgets", key, _set_from_dict)


def _set_from_dict(payload: dict) -> dict[str, WidgetRecord]:
    """Rebuild a set's records from its columns; TypeError unless the
    digests are distinct strings, every field's column is a list as long,
    every count an integer and every text well formed (``_check_texts``).
    Each check runs once over a whole column, no text is decoded, and each
    record is built without the frozen dataclass's ``__init__``, which
    sets every field through ``object.__setattr__``."""
    digests = payload["digests"]
    if (type(digests) is not list or not _all(str, digests)
            or len(set(digests)) != len(digests)):
        raise TypeError("digests must be distinct strings")
    columns = [payload[name] for name in _RECORD_FIELDS]
    if not _all(list, columns) or any(
            len(column) != len(digests) for column in columns):
        raise TypeError("every column must be a list, one value per digest")
    if not _all(int, chain.from_iterable(
            payload[name] for name in _RECORD_COUNTS)):
        raise TypeError("record counts must be integers")
    for name in _RECORD_NODES:
        _check_texts(payload[name], " ")
    _check_texts(payload["spans_text"], ";")
    records = {}
    for digest, values in zip(digests, zip(*columns)):
        record = object.__new__(WidgetRecord)
        record.__dict__.update(zip(_RECORD_FIELDS, values))
        records[digest] = record
    return records


def _check_texts(texts: list, end: str) -> None:
    """TypeError unless every text of a column is what ``encode_nodes``
    writes (``end`` " ") or what ``WidgetRecord.of`` writes for the spans
    (``end`` ";").

    The texts are joined, each followed by ",", and each check is one pass
    over the joined text: only digits, spaces, "," and, in spans, ";"; one
    "," per text (no text holds one); ``end`` before the "," of each
    nonempty text; no space that does not follow a digit (none first, none
    after a space, a "," or a ";"); and, in spans, no digit right before a
    ";". So each value is digits and then one space, and each sub-step is
    closed."""
    joined = ",".join([*texts, ""])  # TypeError unless all are strings
    chars = _SPANS_CHARS if end == ";" else _NODE_CHARS
    if (not chars.fullmatch(joined) or joined.count(",") != len(texts)
            or joined.count(end + ",") != len(texts) - texts.count("")
            or joined.startswith(" ") or "  " in joined or ", " in joined
            or (end == ";" and ("; " in joined
                                or "0;" in joined.translate(_DIGITS_AS_0)))):
        raise TypeError("malformed text")


def plan_key(source_digest: str, max_gates: int) -> str:
    """Key of one input's plan record under ``CACHE_FORMAT`` and
    ``PLAN_RULE``: the full sha256 of the input file's bytes and the split
    budget, which together fix the plan."""
    text = f"v{CACHE_FORMAT}|plan{PLAN_RULE}|g{max_gates}|{source_digest}"
    return hashlib.sha256(text.encode()).hexdigest()


def save_plan(directory: str | Path, key: str, plan: PlanRecord) -> Path:
    """Write ``plan``'s record under ``key``, as columns: the widget ids,
    multiplicities and digests in plan order, and the stitches' first and
    second ids and counts in their order, so a load rebuilds every sum in
    the same order."""
    return _save_entry(directory, "plan", key, {
        "n_input": plan.n_input,
        "ids": list(plan.ids),
        "multiplicities": list(plan.multiplicity.values()),
        "digests": [plan.digest(wid) for wid in plan.ids],
        "stitch_a": [a for a, _ in plan.stitches],
        "stitch_b": [b for _, b in plan.stitches],
        "stitch_counts": list(plan.stitches.values()),
        "first": plan.first,
        "last": plan.last,
    })


def load_plan(directory: str | Path, key: str) -> PlanRecord | None:
    """The plan record stored under ``key``, or None (see ``_load_entry``):
    the caller then loads the source and overwrites it."""
    return _load_entry(directory, "plan", key, _plan_from_dict)


def _plan_from_dict(payload: dict) -> PlanRecord:
    """Rebuild a plan record; TypeError or ValueError (``CircuitError``
    included) unless every column is a list, the three widget columns
    equally long and so the three stitch columns, the ids distinct
    strings, the digests and stitch ids strings, the multiplicities and
    stitch counts positive integers, the stitch pairs distinct, and the
    stitches form a valid plan. Each check runs once over its columns."""
    n_input = payload["n_input"]
    if type(n_input) is not int or n_input < 1:
        raise TypeError("n_input must be a positive integer")
    ids, digests = payload["ids"], payload["digests"]
    counts = payload["multiplicities"]
    a, b = payload["stitch_a"], payload["stitch_b"]
    stitch_counts = payload["stitch_counts"]
    if (not _all(list, (ids, counts, digests, a, b, stitch_counts))
            or not len(ids) == len(counts) == len(digests)
            or not len(a) == len(b) == len(stitch_counts)):
        raise TypeError("every column must be a list, as long as its kind's")
    if not _all(str, chain(ids, digests, a, b)) or len(set(ids)) != len(ids):
        raise TypeError("ids must be distinct strings, digests strings")
    if not _all(int, chain(counts, stitch_counts)) or min(
            chain(counts, stitch_counts), default=1) < 1:
        raise TypeError("counts must be positive integers")
    stitches = dict(zip(zip(a, b), stitch_counts))
    if len(stitches) != len(stitch_counts):
        raise TypeError("stitch pairs must be distinct")
    return PlanRecord(n_input, dict(zip(ids, counts)), stitches,
                      payload["first"], payload["last"],
                      dict(zip(ids, digests)))


def _save_entry(directory: str | Path, kind: str, key: str,
                fields: dict) -> Path:
    """Write ``fields`` as the ``kind`` entry under ``key``, creating the
    directory on the first write into it. Each writer fills its own
    temporary file and renames it into place, so concurrent writers of one
    key never share a file; an empty directory squatting on the entry is
    replaced."""
    directory = Path(directory)
    path = directory / f"{kind}-{key}.json"
    payload = {"format": CACHE_FORMAT, "key": key, **fields}
    temp = {"prefix": f"{kind}-{key}.", "suffix": ".tmp", "dir": directory}
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


def _load_entry(directory: str | Path, kind: str, key: str,
                build: Callable[[dict], T]) -> T | None:
    """``build`` applied to the ``kind`` entry stored under ``key``, or None
    when the entry is missing, unreadable, not a JSON object, of another
    format or key, or malformed (``build`` raises KeyError, TypeError or
    ValueError)."""
    try:
        with open(os.path.join(directory, f"{kind}-{key}.json"), "rb") as f:
            payload = json.loads(f.read())
        if (not isinstance(payload, dict)
                or payload.get("format") != CACHE_FORMAT
                or payload.get("key") != key):
            return None
        return build(payload)
    except (OSError, KeyError, TypeError, ValueError):
        return None
