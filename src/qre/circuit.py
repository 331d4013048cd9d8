"""Logical gates: representation, OpenQASM parsing, transpilation, and the
QFT generator.

The gate alphabet is frozen: 1Q/2Q Cliffords, T/Tdg, arbitrary-angle Rz, plus
the two composites (CCX, CPhase) that the transpiler expands exactly. Anything
else in an input file is a hard parse error. The two JSON inputs, widget
tables and nested blocks, are read in ``widgetizer``, which builds the
widget plan of every input.
"""

from __future__ import annotations

import ast
import functools
import hashlib
import math
import re
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence


class GateKind(Enum):
    H = "h"
    S = "s"
    Sdg = "sdg"
    X = "x"
    Y = "y"
    Z = "z"
    CX = "cx"
    CZ = "cz"
    SWAP = "swap"
    T = "t"
    Tdg = "tdg"
    Rz = "rz"
    CCX = "ccx"      # composite; expanded by transpile
    CPhase = "cp"    # composite; expanded by transpile

    # Members are singletons compared by identity, so they hash by identity
    # too: in C, where Enum's own hash is a Python call on the name.
    __hash__ = object.__hash__


ARITY = {
    GateKind.H: 1, GateKind.S: 1, GateKind.Sdg: 1, GateKind.X: 1,
    GateKind.Y: 1, GateKind.Z: 1, GateKind.T: 1, GateKind.Tdg: 1,
    GateKind.Rz: 1, GateKind.CX: 2, GateKind.CZ: 2, GateKind.SWAP: 2,
    GateKind.CPhase: 2, GateKind.CCX: 3,
}

ANGLED = frozenset({GateKind.Rz, GateKind.CPhase})
CLIFFORD_1Q = frozenset({GateKind.H, GateKind.S, GateKind.Sdg, GateKind.X,
                         GateKind.Y, GateKind.Z})
CLIFFORD_2Q = frozenset({GateKind.CX, GateKind.CZ, GateKind.SWAP})
T_LIKE = frozenset({GateKind.T, GateKind.Tdg})

_QASM_NAME_TO_KIND = {kind.value: kind for kind in GateKind}
# Each kind's name, read in hot loops instead of the Python-level `.value`.
KIND_NAME = {kind: kind.value for kind in GateKind}

# Clifford-angle snapping tolerance (radians); float-synthesized multiples of
# pi/4 must not be misclassified as generic rotations.
SNAP_TOL = 1e-12


class CircuitError(ValueError):
    """Raised for malformed circuit inputs (parse and validation failures)."""


@dataclass(frozen=True)
class Gate:
    """One logical gate: a kind, its qubit operands, and an angle if rotational."""

    kind: GateKind
    qubits: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self) -> None:
        if len(self.qubits) != ARITY[self.kind]:
            raise CircuitError(
                f"{self.kind.name} takes {ARITY[self.kind]} qubits, got {self.qubits}"
            )
        if len(set(self.qubits)) != len(self.qubits):
            raise CircuitError(f"duplicate qubit operand in {self.kind.name}{self.qubits}")
        if min(self.qubits) < 0:
            raise CircuitError(f"negative qubit index in {self.kind.name}{self.qubits}")
        if self.kind in ANGLED:
            if self.angle is None or not math.isfinite(self.angle):
                raise CircuitError(f"{self.kind.name} requires a finite angle")
        elif self.angle is not None:
            raise CircuitError(f"{self.kind.name} takes no angle")

    @functools.cached_property
    def exact_text(self) -> str:
        """Kind name, qubit tuple and ``repr`` angle, e.g. ``rz(1,)0.3``:
        unlike ``__repr__``, it tells every two unequal gates apart."""
        return f"{KIND_NAME[self.kind]}{self.qubits}{self.angle!r}"

    def __repr__(self) -> str:  # compact, e.g. CX(0,1) or Rz(0.3)(1)
        qs = ",".join(str(q) for q in self.qubits)
        if self.kind in ANGLED:
            return f"{self.kind.name}({self.angle:g})({qs})"
        return f"{self.kind.name}({qs})"


def gate(kind: GateKind, *qubits: int, angle: float | None = None) -> Gate:
    return Gate(kind, tuple(qubits), angle)


def gate_list_digest(gates: Iterable[Gate]) -> str:
    """Full sha256 of a gate list's exact encoding, each gate's
    ``exact_text`` in order (cached on the gate, so a gate shared by many
    lists is formatted once). Equal digests mean equal gate lists; the
    digest keys both widget sharing and the widget cache."""
    text = "|".join([g.exact_text for g in gates])
    return hashlib.sha256(text.encode()).hexdigest()


def circuit_width(gates: Sequence[Gate]) -> int:
    """Number of qubits spanned by a gate list (max index + 1; 0 if empty)."""
    return max((max(g.qubits) for g in gates), default=-1) + 1


# --------------------------------------------------------------------------
# OpenQASM 2.0 subset
# --------------------------------------------------------------------------

_ANGLE_ALLOWED = (ast.Expression, ast.BinOp, ast.UnaryOp, ast.Constant, ast.Name,
                  ast.Load, ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow,
                  ast.USub, ast.UAdd)


def _eval_angle(expr: str, line_no: int) -> float:
    """Constant-fold an angle expression over numbers, `pi`, and + - * / ** ().
    Errors name ``line_no``; values are memoized on the literal."""
    try:
        return _fold_angle(expr)
    except CircuitError as exc:
        raise CircuitError(f"line {line_no}: {exc}") from exc


@functools.lru_cache(maxsize=4096)
def _fold_angle(expr: str) -> float:
    try:
        tree = ast.parse(expr.strip(), mode="eval")
    except SyntaxError as exc:
        raise CircuitError(f"bad angle expression {expr!r}") from exc
    for node in ast.walk(tree):
        if not isinstance(node, _ANGLE_ALLOWED):
            raise CircuitError(f"unsupported angle syntax {expr!r}")
        if isinstance(node, ast.Name) and node.id != "pi":
            raise CircuitError(f"unknown symbol {node.id!r} in angle")
        if isinstance(node, ast.Constant) and not isinstance(node.value, (int, float)):
            raise CircuitError("non-numeric constant in angle")
    value = eval(compile(tree, "<angle>", "eval"), {"__builtins__": {}}, {"pi": math.pi})
    return float(value)


_STMT_GATE = re.compile(
    r"^(?P<name>[a-z][a-z0-9_]*)\s*(?:\(\s*(?P<args>[^)]*)\s*\))?\s+(?P<operands>.+)$"
)
_OPERAND = re.compile(r"^(?P<reg>[A-Za-z_][A-Za-z0-9_]*)\s*\[\s*(?P<idx>\d+)\s*\]$")


def parse_qasm(text: str) -> tuple[int | None, list[Gate]]:
    """Parse the supported OpenQASM 2.0 subset into the declared register
    size (None when the text declares no register, and so has no gates) and
    the ordered gate list.

    Supported: the version header, `include "qelib1.inc";`, at most one
    qreg, and gate statements drawn from the frozen alphabet. Anything else
    raises :class:`CircuitError` naming the offending token and line.
    """
    gates: list[Gate] = []
    reg_name: str | None = None
    reg_size = 0

    for stmt, line_no in _statements(text):
        if stmt.startswith("OPENQASM"):
            if not re.fullmatch(r"OPENQASM\s+2\.0", stmt):
                raise CircuitError(f"line {line_no}: unsupported QASM version: {stmt!r}")
            continue
        if stmt.startswith("include"):
            continue
        if stmt.startswith("qreg"):
            m = re.fullmatch(r"qreg\s+([A-Za-z_][A-Za-z0-9_]*)\s*\[\s*(\d+)\s*\]", stmt)
            if not m:
                raise CircuitError(f"line {line_no}: malformed qreg: {stmt!r}")
            if reg_name is not None:
                raise CircuitError(f"line {line_no}: multiple qreg declarations")
            reg_name, reg_size = m.group(1), int(m.group(2))
            continue

        m = _STMT_GATE.match(stmt)
        if not m:
            raise CircuitError(f"line {line_no}: unsupported statement: {stmt!r}")
        name = m.group("name")
        kind = _QASM_NAME_TO_KIND.get(name)
        if kind is None:
            raise CircuitError(f"line {line_no}: unsupported gate {name!r}")
        if reg_name is None:
            raise CircuitError(f"line {line_no}: gate before qreg declaration")

        angle: float | None = None
        if kind in ANGLED:
            if m.group("args") is None:
                raise CircuitError(f"line {line_no}: {name} requires an angle argument")
            angle = _eval_angle(m.group("args"), line_no)
        elif m.group("args") is not None:
            raise CircuitError(f"line {line_no}: {name} takes no argument")

        qubits = []
        for operand in m.group("operands").split(","):
            om = _OPERAND.match(operand.strip())
            if not om or om.group("reg") != reg_name:
                raise CircuitError(f"line {line_no}: bad operand {operand.strip()!r}")
            idx = int(om.group("idx"))
            if idx >= reg_size:
                raise CircuitError(
                    f"line {line_no}: qubit index {idx} out of range for "
                    f"{reg_name}[{reg_size}]"
                )
            qubits.append(idx)
        try:
            gates.append(Gate(kind, tuple(qubits), angle))
        except CircuitError as exc:
            raise CircuitError(f"line {line_no}: {exc}") from exc

    return (None if reg_name is None else reg_size), gates


def _statements(text: str) -> Iterable[tuple[str, int]]:
    """Yield (statement, starting line number), comments stripped."""
    buffer = ""
    buffer_line = 1
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("//", 1)[0]
        if not buffer.strip():
            buffer_line = line_no
        buffer += line + "\n"
        while ";" in buffer:
            stmt, buffer = buffer.split(";", 1)
            stmt = " ".join(stmt.split())
            if stmt:
                yield stmt, buffer_line
            buffer_line = line_no
    if buffer.strip():
        raise CircuitError(f"line {buffer_line}: missing ';' after {buffer.strip()!r}")


def emit_qasm(gates: Sequence[Gate], n_qubits: int | None = None) -> str:
    """Emit the gate list as OpenQASM 2.0 (round-trips through parse_qasm)."""
    n = circuit_width(gates) if n_qubits is None else n_qubits
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{max(n, 1)}];"]
    for g in gates:
        operands = ",".join(f"q[{q}]" for q in g.qubits)
        if g.kind in ANGLED:
            lines.append(f"{g.kind.value}({g.angle!r}) {operands};")
        else:
            lines.append(f"{g.kind.value} {operands};")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# Transpilation to Clifford + T + Rz
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class TranspiledWidget:
    """Composite-free gate list with per-class counts.

    n_T_init counts T/Tdg gates as they appear post-expansion (before any gate
    synthesis); n_Rz_init counts only genuine non-Clifford rotations.
    """

    gates: tuple[Gate, ...]
    n_T_init: int
    n_Rz_init: int
    n_Clifford_init: int


# Rz(k*pi/4) rewrite table, k mod 8 -> replacement kinds (empty = identity).
_SNAP_TABLE: dict[int, tuple[GateKind, ...]] = {
    0: (),
    1: (GateKind.T,),
    2: (GateKind.S,),
    3: (GateKind.S, GateKind.T),
    4: (GateKind.Z,),
    5: (GateKind.Z, GateKind.T),
    6: (GateKind.Sdg,),
    7: (GateKind.Tdg,),
}


def _derived(kind: GateKind, qubits: tuple[int, ...],
             angle: float | None = None) -> Gate:
    """A gate that an exact identity derived from an already validated one,
    built without repeating Gate's checks: each gate is validated once, when
    it is parsed or first constructed."""
    g = object.__new__(Gate)
    g.__dict__.update(kind=kind, qubits=qubits, angle=angle)
    return g


def _snap_rz(qubit: int, angle: float) -> list[Gate] | None:
    """Rewrite Rz at a multiple of pi/4 into Clifford/T/Tdg gates, else None."""
    k = round(angle / (math.pi / 4))
    if abs(angle - k * (math.pi / 4)) > SNAP_TOL:
        return None
    return [_derived(kind, (qubit,)) for kind in _SNAP_TABLE[k % 8]]


# The kinds that ``_expand`` rewrites; ``transpile`` keeps every other gate.
_EXPANDED = frozenset({GateKind.CCX, GateKind.CPhase, GateKind.Rz})


def _expand(g: Gate) -> list[Gate]:
    """Expand one composite gate or Rz into the Clifford+T+Rz alphabet by
    exact identities."""
    if g.kind is GateKind.CCX:
        a, b, c = g.qubits
        k = GateKind
        return [
            _derived(k.H, (c,)), _derived(k.CX, (b, c)),
            _derived(k.Tdg, (c,)), _derived(k.CX, (a, c)),
            _derived(k.T, (c,)), _derived(k.CX, (b, c)),
            _derived(k.Tdg, (c,)), _derived(k.CX, (a, c)),
            _derived(k.T, (b,)), _derived(k.T, (c,)), _derived(k.H, (c,)),
            _derived(k.CX, (a, b)), _derived(k.T, (a,)),
            _derived(k.Tdg, (b,)), _derived(k.CX, (a, b)),
        ]
    if g.kind is GateKind.CPhase:
        a, b = g.qubits
        assert g.angle is not None
        half = g.angle / 2.0
        out = [_derived(GateKind.CX, (a, b))]
        out.extend(_rz_or_snapped(b, -half))
        out.append(_derived(GateKind.CX, (a, b)))
        out.extend(_rz_or_snapped(a, half))
        out.extend(_rz_or_snapped(b, half))
        return out
    assert g.angle is not None  # an Rz
    return _rz_or_snapped(g.qubits[0], g.angle)


def _rz_or_snapped(qubit: int, angle: float) -> list[Gate]:
    snapped = _snap_rz(qubit, angle)
    if snapped is not None:
        return snapped
    return [_derived(GateKind.Rz, (qubit,), angle)]


def transpile(gates: Sequence[Gate]) -> TranspiledWidget:
    """Expand composites and canonicalize Clifford-angle rotations, with counts."""
    out: list[Gate] = []
    for g in gates:
        if g.kind in _EXPANDED:
            out.extend(_expand(g))
        else:
            out.append(g)
    n_t = n_rz = 0
    rz = GateKind.Rz  # read once: a read off the Enum class is slow
    for g in out:
        if g.kind is rz:
            n_rz += 1
        elif g.kind in T_LIKE:
            n_t += 1
    return TranspiledWidget(tuple(out), n_T_init=n_t, n_Rz_init=n_rz,
                            n_Clifford_init=len(out) - n_t - n_rz)


_INVERSE_KIND = {GateKind.S: GateKind.Sdg, GateKind.Sdg: GateKind.S,
                 GateKind.T: GateKind.Tdg, GateKind.Tdg: GateKind.T}


def invert_gates(gates: Sequence[Gate]) -> list[Gate]:
    """Gate list for the inverse circuit (reversed order, each gate inverted)."""
    out: list[Gate] = []
    for g in reversed(gates):
        if g.kind in _INVERSE_KIND:
            out.append(Gate(_INVERSE_KIND[g.kind], g.qubits))
        elif g.kind in ANGLED:
            out.append(Gate(g.kind, g.qubits, -g.angle))
        else:  # h, x, y, z, cx, cz, swap, ccx are self-inverse
            out.append(g)
    return out


# --------------------------------------------------------------------------
# QFT fixture generator
# --------------------------------------------------------------------------

def generate_qft(n: int) -> list[Gate]:
    """Textbook QFT on n qubits: H + controlled-phase ladder + swap reversal.

    Gate count is n(n+1)/2 + floor(n/2).
    """
    if not 1 <= n <= 64:
        raise CircuitError(f"QFT size must be in 1..64, got {n}")
    gates: list[Gate] = []
    for i in range(n):
        gates.append(Gate(GateKind.H, (i,)))
        for j in range(i + 1, n):
            gates.append(Gate(GateKind.CPhase, (j, i), math.pi / 2 ** (j - i)))
    for i in range(n // 2):
        gates.append(Gate(GateKind.SWAP, (i, n - 1 - i)))
    return gates
