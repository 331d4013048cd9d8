"""Widget plans, the one model of a circuit that estimation reads, and the
JSON readers. A widget table (``parse_widget_file``) becomes a plan through
``WidgetPlan.from_sequence``, the cuts its user chose; a nested-block file
(``parse_nested_file``), or a flat QASM file taken as the one root block of
a ``NestedCircuit``, is split into widgets via a subcircuit dependency
graph whose root ``WidgetPlan.from_root`` reads.

A ``NestedCircuit`` validates its blocks in one walk, which also records
each block's expanded gate count (``stats``); the builder reads them and
walks no block again to size it. The one split budget is ``max_gates``:
every widget is compiled on all ``n_input`` wires, so a widget's width is
no reason to cut it. Blocks are expanded depth-first; a node of
``max_gates`` or more expanded gates is decomposed into one child per run
of consecutive gates and one per invocation of another block, leaving out
each invocation of a block with no gates. A run of gates is cut in gate
order into consecutive pieces of ``max_gates - 1`` gates, the last holding
the rest, so a split never reorders gates. Leaves with equal gate lists,
qubits included (equal ``gate_list_digest``), are built once and shared,
so a widget always acts on the qubits its gates name; ids number the
leaves only. A leaf gets its digest when a second leaf is compared with
it, so a plan of one widget, such as a flat QASM file under the budget,
digests nothing while it is built. A plan keeps each digest it knows, and
``WidgetPlan.digest`` computes the others on first use, which only the
widget cache makes: it derives its key from the digests.

One fold (``_fold``) counts every plan's widget multiplicities and ordered
stitches. Each composite node folds its children as it is built, with
repeat counts kept symbolic, so the root's counts are exact Python
integers even for billions of expanded gates, computed without
materializing the leaf sequence. A leaf holds no plan: the fold counts it
as itself, and a widget table's sequence folds the same way, each id a
leaf.

A ``WidgetPlan`` is a ``PlanRecord``, the gate-free part that estimation
reads and the plan cache stores, plus each widget's gate list.

Both JSON readers refuse a key that their format does not define.
``parse_nested_file`` validates each distinct gate item of a file once and
builds one ``Gate`` for it, which every repetition of the item shares.
Only ``verify`` expands a whole circuit (``iter_leaf_sequence``,
``NestedCircuit.flatten``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby, repeat
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .circuit import (
    _QASM_NAME_TO_KIND,
    CircuitError,
    Gate,
    _fold_angle,
    circuit_width,
    gate_list_digest,
    parse_qasm,
)

NESTED_FORMAT = 1
WIDGET_FORMAT = 1
# Longest chain of block references below the root of a nested circuit.
MAX_NESTING_DEPTH = 256


@dataclass(frozen=True)
class BlockRef:
    """An invocation of a named block, repeated `repeat` times."""

    name: str
    repeat: int = 1

    def __post_init__(self) -> None:
        if self.repeat < 1:
            raise CircuitError(f"repeat must be >= 1 in block ref {self.name!r}")


BodyItem = Union[Gate, BlockRef]


@dataclass
class NestedCircuit:
    """Named blocks of gates and block invocations, plus a root block."""

    n_input: int
    blocks: dict[str, list[BodyItem]]
    root: str

    # Each block's fully expanded gate count for one repetition, recorded by
    # the validating walk; never materializes repeats.
    stats: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        """Validate the blocks in one post-order walk over them all, which
        records their ``stats`` and rejects an undefined or cyclic block
        reference where it meets one; then reject a root whose longest
        chain of block references is deeper than MAX_NESTING_DEPTH, and a
        gate beyond ``n_input``. The block walks (``flatten``, the
        dependency-graph builder) recurse once or twice per level, and the
        depth limit keeps them within Python's recursion limit; this walk
        keeps its own stack."""
        blocks = self.blocks
        if self.root not in blocks:
            raise CircuitError(f"root block {self.root!r} is not defined")
        stats = self.stats = {}
        depth: dict[str, int] = {}  # done: longest reference chain below
        for start in blocks:
            if start in stats:
                continue
            path = {start}
            # name, items left, gates, depth below, repeat in caller
            stack = [[start, iter(blocks[start]), 0, 0, 1]]
            while stack:
                frame = stack[-1]
                for item in frame[1]:
                    if isinstance(item, Gate):
                        frame[2] += 1
                        continue
                    ref = item.name
                    if ref in stats:
                        frame[2] += item.repeat * stats[ref]
                        frame[3] = max(frame[3], depth[ref] + 1)
                    elif ref in path:
                        raise CircuitError(
                            f"cyclic block reference through {ref!r}")
                    elif ref not in blocks:
                        raise CircuitError(
                            f"block {frame[0]!r} references undefined {ref!r}")
                    else:
                        path.add(ref)
                        stack.append([ref, iter(blocks[ref]), 0, 0,
                                      item.repeat])
                        break
                else:
                    name, _, n_gates, below, repeat = stack.pop()
                    path.remove(name)
                    stats[name] = n_gates
                    depth[name] = below
                    if stack:  # fold into the caller's frame
                        stack[-1][2] += repeat * n_gates
                        stack[-1][3] = max(stack[-1][3], below + 1)
        if depth[self.root] > MAX_NESTING_DEPTH:
            raise CircuitError(
                f"block {self.root!r} nests {depth[self.root]} levels of "
                f"block references, beyond the limit of {MAX_NESTING_DEPTH}")
        width = circuit_width([item for body in blocks.values()
                               for item in body if isinstance(item, Gate)])
        if width > self.n_input:
            raise CircuitError(f"gates touch qubit {width - 1}, beyond n_input={self.n_input}")

    def flatten(self, name: str | None = None) -> list[Gate]:
        """Block ``name`` (the root by default) fully expanded, in source
        order. It is as long as the block's expanded gate count."""
        out: list[Gate] = []
        for item in self.blocks[self.root if name is None else name]:
            if isinstance(item, Gate):
                out.append(item)
            else:
                out.extend(self.flatten(item.name) * item.repeat)
        return out


@dataclass(eq=False)
class SubcircuitNode:
    """One node of the dependency graph, a leaf gate list or a composite.

    ``children`` holds ordered (node, repeat) edges in execution order and is
    empty exactly when ``gates`` is set. A leaf's ``id`` names its widget,
    and ``digest`` is the ``gate_list_digest`` of its gates, or "" for a
    first leaf that no other leaf was compared with (see
    ``_Builder.build_leaf``). A composite folds its children as it is built
    (``_fold``) and stores the result: ``multiplicity`` counts each leaf
    under it and ``stitches`` each ordered pair of consecutive leaves, both
    in order of first use, and ``first`` and ``last`` open and close its
    leaf sequence. A leaf holds no plan, and has none of those four
    attributes: ``_fold`` counts a leaf as itself.
    """

    gates: tuple[Gate, ...] | None = None
    children: list[tuple[SubcircuitNode, int]] = field(default_factory=list)
    id: str = ""
    digest: str = ""
    multiplicity: dict[SubcircuitNode, int] = field(init=False, repr=False)
    stitches: dict[tuple[SubcircuitNode, SubcircuitNode], int] = field(
        init=False, repr=False)
    first: SubcircuitNode = field(init=False, repr=False)
    last: SubcircuitNode = field(init=False, repr=False)

    @property
    def is_leaf(self) -> bool:
        return self.gates is not None

    def __post_init__(self) -> None:
        if not self.is_leaf:
            (self.multiplicity, self.stitches,
             self.first, self.last) = _fold(self.children)


def _fold(children: Iterable[tuple]) -> tuple[dict, dict, object, object]:
    """The plan of ordered (child, repeat) edges: each leaf's multiplicity
    and each ordered pair of consecutive leaves' stitch count, both in
    order of first use, and the first and last leaf. A composite child's
    stored plan is scaled by its repeat; any other child is a leaf and
    counts as itself, a leaf node or a widget table's id. A child's repeat
    seam is counted before its stitch to the child before it."""
    widgets, stitches = {}, {}
    first = last = None
    for sub, repeat in children:
        if type(sub) is SubcircuitNode and sub.gates is None:  # composite
            for leaf, count in sub.multiplicity.items():
                widgets[leaf] = widgets.get(leaf, 0) + repeat * count
            for pair, count in sub.stitches.items():
                stitches[pair] = stitches.get(pair, 0) + repeat * count
            head, tail = sub.first, sub.last
        else:
            widgets[sub] = widgets.get(sub, 0) + repeat
            head = tail = sub
        if repeat > 1:  # seam between consecutive repetitions
            seam = (tail, head)
            stitches[seam] = stitches.get(seam, 0) + (repeat - 1)
        if last is None:
            first = head
        else:
            pair = (last, head)
            stitches[pair] = stitches.get(pair, 0) + 1
        last = tail
    return widgets, stitches, first, last


class _Builder:
    def __init__(self, circ: NestedCircuit, max_gates: int):
        self.circ = circ
        self.max_gates = max_gates
        self.leaves: dict[str, SubcircuitNode] = {}  # by gate_list_digest
        self.first_leaf: SubcircuitNode | None = None
        self.block_nodes: dict[str, SubcircuitNode] = {}

    def build_block(self, name: str) -> SubcircuitNode:
        if name in self.block_nodes:
            return self.block_nodes[name]
        stats = self.circ.stats
        if stats[name] < self.max_gates:
            node = self.build_leaf(self.circ.flatten(name))
        else:
            # Each run of consecutive gates is cut as one gate list. A block
            # with no gates adds no widget; the body has gates, since it
            # is over the budget, so at least one child stays.
            children: list[tuple[SubcircuitNode, int]] = []
            for is_gate, run in groupby(self.circ.blocks[name],
                                        lambda item: isinstance(item, Gate)):
                if is_gate:
                    children.append((self.build_gate_list(tuple(run)), 1))
                else:
                    children += [(self.build_block(ref.name), ref.repeat)
                                 for ref in run if stats[ref.name]]
            node = SubcircuitNode(children=children)
        self.block_nodes[name] = node
        return node

    def build_gate_list(self, gates: tuple[Gate, ...]) -> SubcircuitNode:
        """The leaf of ``gates`` when they are under the budget; otherwise a
        node over consecutive pieces of ``max_gates - 1`` of them in gate
        order, the last holding the rest."""
        size = self.max_gates - 1
        if len(gates) <= size:
            return self.build_leaf(gates)
        return SubcircuitNode(children=[
            (self.build_leaf(gates[i:i + size]), 1)
            for i in range(0, len(gates), size)])

    def build_leaf(self, gates: Sequence[Gate]) -> SubcircuitNode:
        """The one leaf of ``gates``, shared by every equal gate list. The
        first leaf gets its digest only when a second one is compared with
        it, so a plan of one leaf leaves it to ``WidgetPlan.digest``."""
        gates = tuple(gates)
        if not self.leaves:
            first = self.first_leaf
            if first is None:
                self.first_leaf = SubcircuitNode(gates=gates, id="n0")
                return self.first_leaf
            first.digest = gate_list_digest(first.gates)
            self.leaves[first.digest] = first
        digest = gate_list_digest(gates)
        leaf = self.leaves.get(digest)
        if leaf is None:
            leaf = self.leaves[digest] = SubcircuitNode(
                gates=gates, id=f"n{len(self.leaves)}", digest=digest)
        return leaf


def build_dependency_graph(circ: NestedCircuit, max_gates: int) -> SubcircuitNode:
    """Recursively split the circuit's root block until every leaf holds
    fewer than ``max_gates`` gates, sharing equal leaves, and return the
    root node, which carries the whole circuit's multiplicities."""
    if max_gates < 2:
        raise CircuitError(
            f"max_gates must be >= 2, got {max_gates}: any one gate meets a "
            f"threshold of 1, so no split could satisfy it")
    return _Builder(circ, max_gates).build_block(circ.root)


def iter_leaf_sequence(root: SubcircuitNode) -> Iterator[str]:
    """Depth-first leaf-id sequence, one id per widget occurrence. It is as
    long as the plan's ``n_widgets``: callers check that before they
    materialize it."""
    if root.is_leaf:
        yield root.id
        return
    for child, repeat in root.children:
        for _ in range(repeat):
            yield from iter_leaf_sequence(child)


# --------------------------------------------------------------------------
# Plan handed to the estimator
# --------------------------------------------------------------------------

@dataclass
class PlanRecord:
    """What estimation reads of a widget plan, with no gates: the wire
    count, each widget's multiplicity and ``gate_list_digest`` in plan
    order, the ordered-pair stitch multiset, and the first/last widgets of
    the sequence. It is the value the plan cache stores (one record per
    input file and split budget), and a warm run estimates from it and
    the widget records alone."""

    n_input: int
    multiplicity: dict[str, int]
    stitches: dict[tuple[str, str], int]
    first: str
    last: str
    digests: dict[str, str] = field(default_factory=dict, compare=False,
                                    repr=False)

    @property
    def ids(self) -> Iterable[str]:
        """The widget ids in plan order, the order of the estimator's sums."""
        return self.multiplicity.keys()

    @property
    def n_widgets(self) -> int:
        return sum(self.multiplicity.values())

    @property
    def n_distinct_widgets(self) -> int:
        return len(self.multiplicity)

    def __post_init__(self) -> None:
        named = self.multiplicity
        if not (self.first in named and self.last in named
                and all(a in named and b in named for a, b in self.stitches)):
            raise CircuitError("stitches and first/last must name widgets")
        if min(self.multiplicity.values()) < 1:
            raise CircuitError("multiplicities must be >= 1")
        if sum(self.stitches.values()) != self.n_widgets - 1:
            raise CircuitError("stitch counts must sum to n_widgets - 1")

    def digest(self, wid: str) -> str:
        """The ``gate_list_digest`` of widget ``wid``."""
        return self.digests[wid]


@dataclass(kw_only=True)
class WidgetPlan(PlanRecord):
    """A plan record with each distinct widget's gate list, in plan order:
    everything downstream estimation needs from a widget decomposition.
    ``digests`` holds each widget's digest once known: a nested plan takes
    those its leaves have, and ``digest`` computes the others on first
    use."""

    widgets: dict[str, tuple[Gate, ...]]

    def __post_init__(self) -> None:
        if set(self.widgets) != set(self.multiplicity):
            raise CircuitError("widget table and multiplicity keys differ")
        super().__post_init__()

    def digest(self, wid: str) -> str:
        digest = self.digests.get(wid)
        if digest is None:
            digest = self.digests[wid] = gate_list_digest(self.widgets[wid])
        return digest

    @classmethod
    def from_root(cls, root: SubcircuitNode, n_input: int) -> "WidgetPlan":
        """The plan of a dependency graph's root, folded as one child
        (``_fold``): a composite root gives its stored plan, and a leaf
        root, which holds none, counts as itself. Leaves are named by id."""
        leaves, stitches, first, last = _fold([(root, 1)])
        return cls(
            n_input=n_input,
            widgets={leaf.id: leaf.gates for leaf in leaves},
            multiplicity={leaf.id: count for leaf, count in leaves.items()},
            stitches={(a.id, b.id): count
                      for (a, b), count in stitches.items()},
            first=first.id,
            last=last.id,
            digests={leaf.id: leaf.digest for leaf in leaves if leaf.digest},
        )

    @classmethod
    def from_sequence(cls, n_input: int, widgets: Mapping[str, Sequence[Gate]],
                      sequence: Sequence[str]) -> "WidgetPlan":
        """The plan of a flat widget sequence over a table of gate lists,
        folded as a nested plan is (``_fold``), each id a leaf repeated once.
        The multiplicities keep the table's order, which orders the
        estimator's sums, and drop the widgets the sequence never uses."""
        if not sequence:
            raise CircuitError("widget sequence is empty")
        counts, stitches, first, last = _fold(zip(sequence, repeat(1)))
        for wid in counts:
            if wid not in widgets:
                raise CircuitError(f"sequence references undefined widget {wid!r}")
        for wid, gates in widgets.items():
            width = circuit_width(gates)
            if width > n_input:
                raise CircuitError(f"widget {wid!r} touches qubit {width - 1}, "
                                   f"beyond n_input={n_input}")
        multiplicity = {wid: counts[wid] for wid in widgets if wid in counts}
        return cls(
            n_input=n_input,
            widgets={wid: tuple(widgets[wid]) for wid in multiplicity},
            multiplicity=multiplicity,
            stitches=stitches,
            first=first,
            last=last,
        )


# --------------------------------------------------------------------------
# JSON inputs: widget tables and nested blocks
# --------------------------------------------------------------------------

# The keys of each JSON mapping. Any other key is an input error, not a
# warning: the format field versions each schema, and a warm run reads the
# plan record and parses nothing, so a warning would be printed once and
# the estimate it spoiled then served from the cache.
_NESTED_KEYS = ("format", "n_input", "root", "blocks")
_WIDGET_KEYS = ("format", "n_input", "distinct_widgets", "sequence")
_BLOCK_REF_KEYS = ("block", "repeat")
_GATE_KEYS = ("gate", "qubits", "angle")


def _check_keys(obj: Mapping, keys: tuple[str, ...], where: str) -> None:
    for key in obj:
        if key not in keys:
            raise CircuitError(f"{where}: unknown key {key!r}; known keys: "
                               f"{', '.join(keys)}")


def _json_int(value: object) -> int | None:
    """A JSON integer: an int, or a float with an integral value such as
    ``2.0``. None for anything else, booleans and ``2.5`` included."""
    if type(value) is int:
        return value
    if type(value) is float and value.is_integer():
        return int(value)
    return None


def _check_format(payload: Mapping, expected: int, what: str) -> None:
    """CircuitError unless ``payload`` gives no ``format`` or gives
    ``expected`` as a JSON integer (``_json_int``: ``1.0`` is 1, ``true``
    is not)."""
    fmt = payload.get("format", expected)
    if _json_int(fmt) != expected:
        raise CircuitError(
            f"format must be {expected} for a {what} file, got {fmt!r}")


def _n_input(value: object) -> int:
    """``n_input`` of either JSON format: an integer of at least 1."""
    n_input = _json_int(value)
    if n_input is None:
        raise CircuitError(f"n_input must be an integer, got {value!r}")
    if n_input < 1:
        raise CircuitError(f"n_input must be >= 1, got {n_input}")
    return n_input


def _gate_from_json(obj: Mapping, where: str) -> Gate:
    _check_keys(obj, _GATE_KEYS, where)
    name = obj["gate"]
    kind = _QASM_NAME_TO_KIND.get(name) if isinstance(name, str) else None
    if kind is None:
        raise CircuitError(f"{where}: unsupported gate {name!r}")
    raw_qubits = obj.get("qubits", [])
    if not isinstance(raw_qubits, list):
        raise CircuitError(f"{where}: 'qubits' must be a list, got {raw_qubits!r}")
    qubits = tuple(map(_json_int, raw_qubits))
    if None in qubits:
        raise CircuitError(f"{where}: qubits must be integers, got {raw_qubits!r}")
    angle = obj.get("angle")
    try:
        if isinstance(angle, str):
            angle = _fold_angle(angle)
        elif angle is not None:
            if type(angle) not in (int, float):
                raise CircuitError(
                    f"angle must be a number or an expression, got {angle!r}")
            angle = float(angle)
        return Gate(kind, qubits, angle)
    except CircuitError as exc:
        raise CircuitError(f"{where}: {exc}") from exc
    except OverflowError:  # an integer past the float range
        raise CircuitError(f"{where}: integer angle does not fit in a float") from None


def _block_ref_from_json(obj: object, where: str) -> BlockRef:
    if not isinstance(obj, dict) or "block" not in obj:
        raise CircuitError(f"{where}: need an object with 'gate' or 'block'")
    _check_keys(obj, _BLOCK_REF_KEYS, where)
    repeat = _json_int(obj.get("repeat", 1))
    if repeat is None:
        raise CircuitError(
            f"{where}: repeat must be an integer, got {obj['repeat']!r}")
    try:
        return BlockRef(str(obj["block"]), repeat)
    except CircuitError as exc:
        raise CircuitError(f"{where}: {exc}") from exc


def parse_nested_file(payload: Mapping) -> NestedCircuit:
    """Build a nested circuit from decoded JSON: {format, n_input?, root,
    blocks:{name: [items]}} where an item is {"gate", "qubits", "angle"?} or
    {"block", "repeat"?}. An error message names the block and the first
    position of the bad item, or the top level; ``pipeline.load_circuit``
    adds the file.

    Each distinct gate item is validated once and becomes one ``Gate``,
    shared by its repetitions. Items are told apart by their name, the
    ``repr`` of their qubits and their angle with its type, since ``1``,
    ``1.0`` and ``true`` are equal as Python values but not as JSON input,
    and by their key count and whether they give an angle, so an item
    with an unknown key never shares the ``Gate`` of one without.
    """
    _check_format(payload, NESTED_FORMAT, "nested-circuit")
    _check_keys(payload, _NESTED_KEYS, "top level")
    raw_blocks = payload.get("blocks")
    if not isinstance(raw_blocks, dict) or not raw_blocks:
        raise CircuitError("'blocks' must be a non-empty object")

    gates: dict[tuple, Gate] = {}
    blocks: dict[str, list[BodyItem]] = {}
    for name, body in raw_blocks.items():
        if not isinstance(body, list):
            raise CircuitError(f"block {name!r} must be a list of items")
        items: list[BodyItem] = []
        for k, obj in enumerate(body):
            if not (isinstance(obj, dict) and "gate" in obj):
                items.append(_block_ref_from_json(
                    obj, f"block {name!r} item {k}"))
                continue
            angle = obj.get("angle")
            key = (obj["gate"], repr(obj.get("qubits")), angle, type(angle),
                   len(obj), "angle" in obj)
            try:
                gate = gates.get(key)
            except TypeError:  # an unhashable name or angle, never valid
                gate = None
            if gate is None:
                gate = gates[key] = _gate_from_json(
                    obj, f"block {name!r} item {k}")
            items.append(gate)
        blocks[name] = items

    root = payload.get("root")
    if root is None:
        root = next(iter(raw_blocks))
    n_input = _n_input(payload.get(
        "n_input", max(circuit_width(list(gates.values())), 1)))
    return NestedCircuit(n_input=n_input, blocks=blocks, root=str(root))


def parse_widget_file(payload: Mapping,
                      ) -> tuple[int, dict[str, list[Gate]], list[str]]:
    """Read decoded widget-table JSON, {format, n_input, distinct_widgets,
    sequence} with each widget an OpenQASM string, into ``n_input``, the
    table of gate lists in file order and the sequence, the arguments of
    ``WidgetPlan.from_sequence``. A widget body that declares a register
    must declare ``n_input`` qubits, as ``parse_qasm`` reads it, so a
    commented-out declaration is never compared. An error message names
    the widget or the top level; ``pipeline.load_circuit`` adds the
    file."""
    _check_format(payload, WIDGET_FORMAT, "widget-table")
    _check_keys(payload, _WIDGET_KEYS, "top level")
    try:
        n_input = _n_input(payload["n_input"])
        table = payload["distinct_widgets"]
        sequence = payload["sequence"]
    except KeyError as exc:
        raise CircuitError(f"missing key {exc.args[0]!r}") from exc
    if not isinstance(table, dict) or not isinstance(sequence, list):
        raise CircuitError("distinct_widgets must be a map and sequence a list")

    distinct: dict[str, list[Gate]] = {}
    for wid, qasm in table.items():
        where = f"widget {wid!r}"
        if not isinstance(qasm, str):
            raise CircuitError(f"{where} must be an OpenQASM string, "
                               f"got {type(qasm).__name__}")
        try:
            declared, distinct[wid] = parse_qasm(qasm)
        except CircuitError as exc:
            raise CircuitError(f"{where}: {exc}") from exc
        if declared is not None and declared != n_input:
            raise CircuitError(
                f"{where} declares {declared} qubits, expected {n_input}")
    return n_input, distinct, [str(w) for w in sequence]
