"""Logical gates: representation, OpenQASM parsing, transpilation, and the
QFT generator.

The gate alphabet is frozen: 1Q/2Q Cliffords, T/Tdg, arbitrary-angle Rz, plus
the two composites (CCX, CPhase) that the transpiler expands exactly. Anything
else in an input file is a hard parse error. The two JSON inputs, widget
tables and nested blocks, are read in ``widgetizer``, which builds the
widget plan of every input.

A gate is a ``Gate`` from parse to compile, a tuple validated when made:
arity, distinct non-negative qubits, and a finite angle below
``ANGLE_LIMIT`` on Rz and CPhase. ``transpile`` passes on each gate it
does not rewrite and builds each one it derives in C (``tuple.__new__``)
without a second check, as an exact identity derived it from a valid gate.
Angle expressions are folded over a checked syntax tree, so arithmetic
that fails or leaves the float range is a ``CircuitError`` too.
"""

from __future__ import annotations

import ast
import functools
import hashlib
import math
import operator
import re
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NamedTuple, Sequence


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

_QASM_NAME_TO_KIND = {kind.value: kind for kind in GateKind}
# Each kind's name, read in hot loops instead of the Python-level `.value`.
KIND_NAME = {kind: kind.value for kind in GateKind}

# Clifford-angle snapping tolerance (radians); float-synthesized multiples of
# pi/4 must not be misclassified as generic rotations.
SNAP_TOL = 1e-12
# Rz and CPhase angles must stay below this magnitude: there an angle's
# float spacing, about |angle| * 2**-52, reaches SNAP_TOL, and the snap
# test loses its meaning.
ANGLE_LIMIT = 2**52 * SNAP_TOL


class CircuitError(ValueError):
    """Raised for malformed circuit inputs (parse and validation failures)."""


class Gate(NamedTuple("Gate", [("kind", GateKind),
                                ("qubits", tuple[int, ...]),
                                ("angle", float | None)])):
    """One logical gate: a kind, its qubit operands, and an angle if
    rotational. It equals, and hashes as, the plain tuple of its fields."""

    __slots__ = ()

    def __new__(cls, kind, qubits, angle=None) -> Gate:
        if len(qubits) != ARITY[kind]:
            raise CircuitError(
                f"{kind.name} takes {ARITY[kind]} qubits, got {qubits}")
        if len(set(qubits)) != len(qubits):
            raise CircuitError(f"duplicate qubit operand in {kind.name}{qubits}")
        if min(qubits) < 0:
            raise CircuitError(f"negative qubit index in {kind.name}{qubits}")
        if kind in ANGLED:
            if angle is None or not math.isfinite(angle):
                raise CircuitError(f"{kind.name} requires a finite angle")
            if abs(angle) >= ANGLE_LIMIT:
                raise CircuitError(
                    f"{kind.name} angle {angle!r} is too large: "
                    f"reduce it modulo 2*pi below {ANGLE_LIMIT:.1f}")
        elif angle is not None:
            raise CircuitError(f"{kind.name} takes no angle")
        return tuple.__new__(cls, (kind, qubits, angle))

    def __repr__(self) -> str:  # compact, e.g. CX(0,1) or Rz(0.3)(1)
        qs = ",".join(str(q) for q in self.qubits)
        if self.kind in ANGLED:
            return f"{self.kind.name}({self.angle:g})({qs})"
        return f"{self.kind.name}({qs})"


def gate_list_digest(gates: Iterable[Gate]) -> str:
    """Full sha256 of a gate list's exact encoding: each gate's kind name,
    qubit tuple and ``repr`` angle, e.g. ``rz(1,)0.3``, in order. Unlike
    ``__repr__``, the encoding tells every two unequal gates apart, so
    equal digests mean equal gate lists; the digest keys both widget
    sharing and the widget cache."""
    text = "|".join([f"{KIND_NAME[g.kind]}{g.qubits}{g.angle!r}"
                     for g in gates])
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
# Every finite float is below 2**_FLOAT_BITS in magnitude.
_FLOAT_BITS = 1024


def _power(base, exponent):
    """``base ** exponent``, refusing an integer power too large for a
    float before it is built: ``9**9**9`` would take some 1.2e9 bits."""
    if (type(base) is int and type(exponent) is int and exponent > 0
            and exponent * (abs(base).bit_length() - 1) >= _FLOAT_BITS):
        raise OverflowError
    return base ** exponent


_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub,
           ast.Mult: operator.mul, ast.Div: operator.truediv,
           ast.Pow: _power}


def _evaluate(node):
    """The value of a checked angle tree, by the operators ``eval`` would
    apply, so every value that fits a float is the same as ``eval``'s."""
    if isinstance(node, ast.BinOp):
        return _BINARY[type(node.op)](_evaluate(node.left),
                                      _evaluate(node.right))
    if isinstance(node, ast.UnaryOp):
        value = _evaluate(node.operand)
        return -value if isinstance(node.op, ast.USub) else +value
    if isinstance(node, ast.Constant):
        return node.value
    if isinstance(node, ast.Name):
        return math.pi
    return _evaluate(node.body)  # the Expression root


@functools.lru_cache(maxsize=4096)
def _fold_angle(expr: str) -> float:
    """Constant-fold an angle expression over numbers, `pi`, and + - * / ** ().
    Every failure is a CircuitError; values are memoized on the literal."""
    try:
        tree = ast.parse(expr.strip(), mode="eval")
    except SyntaxError as exc:
        raise CircuitError(f"bad angle expression {expr!r}") from exc
    except (RecursionError, MemoryError):
        raise CircuitError(f"angle expression {expr!r} is nested too deeply") from None
    for node in ast.walk(tree):
        if not isinstance(node, _ANGLE_ALLOWED):
            raise CircuitError(f"unsupported angle syntax {expr!r}")
        if isinstance(node, ast.Name) and node.id != "pi":
            raise CircuitError(f"unknown symbol {node.id!r} in angle")
        if isinstance(node, ast.Constant) and not isinstance(node.value, (int, float)):
            raise CircuitError("non-numeric constant in angle")
    try:
        value = _evaluate(tree)
        if isinstance(value, complex):  # a fractional power of a negative
            raise CircuitError(f"angle {expr!r} is not a real number")
        return float(value)
    except ZeroDivisionError:
        raise CircuitError(f"division by zero in angle {expr!r}") from None
    except OverflowError:
        raise CircuitError(f"angle {expr!r} does not fit in a float") from None
    except RecursionError:
        raise CircuitError(f"angle expression {expr!r} is nested too deeply") from None


# A gate statement as generated and as usually written: operands on one
# register, no whitespace in the angle. ``parse_qasm`` builds such a gate
# from this one match; every other statement, and any that fails a check,
# goes through ``_statement``, which names the failure.
_GATE_STMT = re.compile(
    r"\s*([a-z][a-z0-9_]*)(?:\s*\(([^()\s]*)\))?\s+"
    r"([A-Za-z_][A-Za-z0-9_]*)\s*\[\s*([0-9]+)\s*\]"
    r"(?:\s*,\s*\3\s*\[\s*([0-9]+)\s*\])?(?:\s*,\s*\3\s*\[\s*([0-9]+)\s*\])?\s*"
)
_STMT_GATE = re.compile(
    r"^(?P<name>[a-z][a-z0-9_]*)\s*(?:\(\s*(?P<args>[^)]*)\s*\))?\s+(?P<operands>.+)$"
)
_OPERAND = re.compile(r"^(?P<reg>[A-Za-z_][A-Za-z0-9_]*)\s*\[\s*(?P<idx>\d+)\s*\]$")
# Line boundaries of ``str.splitlines`` other than "\n".
_LINE_BREAK = re.compile("[\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]")
_COMMENT = re.compile("//[^\n]*")


def parse_qasm(text: str) -> tuple[int | None, list[Gate]]:
    """Parse the supported OpenQASM 2.0 subset into the declared register
    size (None when the text declares no register, and so has no gates) and
    the ordered gate list.

    Supported: the version header, `include "qelib1.inc";`, at most one
    qreg, and gate statements drawn from the frozen alphabet. Anything else
    raises :class:`CircuitError` naming the offending token and the line
    where its statement starts.
    """
    if _LINE_BREAK.search(text):
        text = "\n".join(text.splitlines())
    if "//" in text:
        text = _COMMENT.sub("", text)
    *pieces, tail = text.split(";")
    gates: list[Gate] = []
    register: tuple[str, int] | None = None
    for i, piece in enumerate(pieces):
        m = _GATE_STMT.fullmatch(piece)
        if m is not None and register is not None:
            name, args, reg, *operands = m.groups()
            kind = _QASM_NAME_TO_KIND.get(name)
            qubits = tuple(map(int, filter(None, operands)))
            if (kind is not None and reg == register[0]
                    and (args is None) is (kind not in ANGLED)
                    and max(qubits) < register[1]):
                try:
                    gates.append(Gate(kind, qubits, None if args is None
                                      else _fold_angle(args)))
                    continue
                except CircuitError:
                    pass  # _statement names the failure
        try:
            register = _statement(" ".join(piece.split()), register, gates)
        except CircuitError as exc:
            raise CircuitError(f"line {_line_of(text, pieces, i)}: {exc}") from None
    if tail.strip():
        raise CircuitError(f"line {_line_of(text, pieces + [tail], len(pieces))}: "
                           f"missing ';' after {tail.strip()!r}")
    return (None if register is None else register[1]), gates


def _statement(stmt: str, register: tuple[str, int] | None,
               gates: list[Gate]) -> tuple[str, int] | None:
    """Read one whitespace-normalized statement: append its gate, or
    return the register it declares (else ``register``)."""
    if not stmt or stmt.startswith("include"):
        return register
    if stmt.startswith("OPENQASM"):
        if not re.fullmatch(r"OPENQASM\s+2\.0", stmt):
            raise CircuitError(f"unsupported QASM version: {stmt!r}")
        return register
    if stmt.startswith("qreg"):
        m = re.fullmatch(r"qreg\s+([A-Za-z_][A-Za-z0-9_]*)\s*\[\s*(\d+)\s*\]", stmt)
        if not m:
            raise CircuitError(f"malformed qreg: {stmt!r}")
        if register is not None:
            raise CircuitError("multiple qreg declarations")
        return m.group(1), int(m.group(2))

    m = _STMT_GATE.match(stmt)
    if not m:
        raise CircuitError(f"unsupported statement: {stmt!r}")
    name = m.group("name")
    kind = _QASM_NAME_TO_KIND.get(name)
    if kind is None:
        raise CircuitError(f"unsupported gate {name!r}")
    if register is None:
        raise CircuitError("gate before qreg declaration")
    reg_name, reg_size = register

    angle: float | None = None
    if kind in ANGLED:
        if m.group("args") is None:
            raise CircuitError(f"{name} requires an angle argument")
        angle = _fold_angle(m.group("args"))
    elif m.group("args") is not None:
        raise CircuitError(f"{name} takes no argument")

    qubits = []
    for operand in m.group("operands").split(","):
        om = _OPERAND.match(operand.strip())
        if not om or om.group("reg") != reg_name:
            raise CircuitError(f"bad operand {operand.strip()!r}")
        idx = int(om.group("idx"))
        if idx >= reg_size:
            raise CircuitError(
                f"qubit index {idx} out of range for {reg_name}[{reg_size}]")
        qubits.append(idx)
    gates.append(Gate(kind, tuple(qubits), angle))
    return register


def _line_of(text: str, pieces: list[str], i: int) -> int:
    """The line of the first non-blank character of ``pieces[i]``, the
    i-th ';'-separated piece of ``text``."""
    piece = pieces[i]
    start = sum(map(len, pieces[:i])) + i + len(piece) - len(piece.lstrip())
    return text.count("\n", 0, start) + 1


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


# Rz(k*pi/4) rewrite table, indexed by k mod 8 (empty = identity); the
# entry for k holds one T or Tdg exactly when k is odd.
_SNAP_TABLE: tuple[tuple[GateKind, ...], ...] = (
    (),
    (GateKind.T,),
    (GateKind.S,),
    (GateKind.S, GateKind.T),
    (GateKind.Z,),
    (GateKind.Z, GateKind.T),
    (GateKind.Sdg,),
    (GateKind.Tdg,),
)
_QUARTER = math.pi / 4
_new = tuple.__new__
# Members read as module globals: a read off the Enum class is a
# Python-level descriptor call.
_H, _CX, _T, _TDG = GateKind.H, GateKind.CX, GateKind.T, GateKind.Tdg
_RZ, _CCX, _CPHASE = GateKind.Rz, GateKind.CCX, GateKind.CPhase


def transpile(gates: Sequence[Gate]) -> TranspiledWidget:
    """Expand composites and canonicalize Clifford-angle rotations, with
    counts, in one pass.

    CCX becomes 7 T/Tdg and 8 Cliffords; CPhase(a, b, theta) becomes
    CX(a, b) Rz(b, -theta/2) CX(a, b) Rz(a, theta/2) Rz(b, theta/2); an Rz
    within ``SNAP_TOL`` of a multiple k of pi/4 becomes ``_SNAP_TABLE[k]``.
    The three rotations of a CPhase snap together, as -theta/2 snaps
    exactly when theta/2 does, to the mirrored k. Every other gate is
    passed on as the same object."""
    out: list[Gate] = []
    add = out.append
    n_t = n_rz = 0
    for g in gates:
        kind, qubits = g.kind, g.qubits
        if kind is _CPHASE:
            a, b = qubits
            qa, qb = (a,), (b,)
            half = g.angle / 2.0
            cx = _new(Gate, (_CX, qubits, None))
            k = round(half / _QUARTER)
            if abs(half - k * _QUARTER) > SNAP_TOL:
                n_rz += 3
                out += (cx, _new(Gate, (_RZ, qb, -half)), cx,
                        _new(Gate, (_RZ, qa, half)),
                        _new(Gate, (_RZ, qb, half)))
                continue
            n_t += 3 * (k & 1)
            add(cx)
            for snapped in _SNAP_TABLE[-k % 8]:
                add(_new(Gate, (snapped, qb, None)))
            add(cx)
            for q in (qa, qb):
                for snapped in _SNAP_TABLE[k % 8]:
                    add(_new(Gate, (snapped, q, None)))
        elif kind is _RZ:
            angle = g.angle
            k = round(angle / _QUARTER)
            if abs(angle - k * _QUARTER) > SNAP_TOL:
                n_rz += 1
                add(g)
                continue
            n_t += k & 1
            for snapped in _SNAP_TABLE[k % 8]:
                add(_new(Gate, (snapped, qubits, None)))
        elif kind is _CCX:
            a, b, c = qubits
            qa, qb, qc = (a,), (b,), (c,)
            ab, ac, bc = (a, b), (a, c), (b, c)
            n_t += 7
            out += (
                _new(Gate, (_H, qc, None)), _new(Gate, (_CX, bc, None)),
                _new(Gate, (_TDG, qc, None)), _new(Gate, (_CX, ac, None)),
                _new(Gate, (_T, qc, None)), _new(Gate, (_CX, bc, None)),
                _new(Gate, (_TDG, qc, None)), _new(Gate, (_CX, ac, None)),
                _new(Gate, (_T, qb, None)), _new(Gate, (_T, qc, None)),
                _new(Gate, (_H, qc, None)), _new(Gate, (_CX, ab, None)),
                _new(Gate, (_T, qa, None)), _new(Gate, (_TDG, qb, None)),
                _new(Gate, (_CX, ab, None)),
            )
        else:
            if kind is _T or kind is _TDG:
                n_t += 1
            add(g)
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
    if not 1 <= n <= 512:
        raise CircuitError(f"QFT size must be in 1..512, got {n}")
    gates: list[Gate] = []
    for i in range(n):
        gates.append(Gate(GateKind.H, (i,)))
        for j in range(i + 1, n):
            gates.append(Gate(GateKind.CPhase, (j, i), math.pi / 2 ** (j - i)))
    for i in range(n // 2):
        gates.append(Gate(GateKind.SWAP, (i, n - 1 - i)))
    return gates
