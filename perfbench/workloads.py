"""Input generators for the three benchmark workloads.

Everything here is plain Python over the standard library: the estimator is
never imported, so the inputs the program receives do not depend on the code
under test. Each generator also tallies, independently of the estimator, the
T and Rz counts the report must show for its input.

Workloads:

* ``qft``    -- flat OpenQASM for the textbook QFT on ``QFT_N`` qubits.
* ``nested`` -- nested-blocks JSON circuits drawn from a fixed pool of
  ``POOL_SIZE`` sub-seeds; the run seed picks the order.
* ``ladder`` -- one pool circuit re-emitted with its root repeats multiplied
  by 10**k for k in ``LADDER_EXPONENTS``.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

NAMES = ("qft", "nested", "ladder")
QFT_N = 20
POOL_SIZE = 16
LADDER_EXPONENTS = (0, 1, 2, 3, 4, 5)

N_QUBITS = 8
N_SMALL_LAYERS = 20          # at most 4 gadgets: 12 graph nodes or fewer
N_LARGE_LAYERS = 100
N_ROUNDS = 12
LAYERS_PER_ROUND = 8
ALPHABET = ("h", "s", "sdg", "x", "t", "tdg", "cx", "cz", "swap", "rz", "cp",
            "ccx")
ARITY = {"cx": 2, "cz": 2, "swap": 2, "cp": 2, "ccx": 3}
T_WEIGHT = {"t": 1, "tdg": 1, "ccx": 7}      # T/Tdg gates after transpiling
RZ_WEIGHT = {"rz": 1, "cp": 3}               # generic Rz gates after transpiling
ANGLE_MARGIN = 0.05                          # radians from any Clifford+T angle


@dataclass(frozen=True)
class Circuit:
    """One generated input file with the counts its report must carry."""

    name: str
    suffix: str
    text: str
    t_count: int
    rz_count: int


def qft_circuit(n: int = QFT_N) -> Circuit:
    """QFT-n as OpenQASM, with the controlled phases written out as cp.

    Each cp(pi/2**k) transpiles into three generic Rz gates, except cp(pi/2),
    whose half-angles snap to T/Tdg: T = 3(n-1), Rz = 3(n-1)(n-2)/2.
    """
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{n}];"]
    for i in range(n):
        lines.append(f"h q[{i}];")
        for j in range(i + 1, n):
            lines.append(f"cp({math.pi / 2 ** (j - i)!r}) q[{j}],q[{i}];")
    for i in range(n // 2):
        lines.append(f"swap q[{i}],q[{n - 1 - i}];")
    return Circuit(f"qft{n}", ".qasm", "\n".join(lines) + "\n",
                   t_count=3 * (n - 1), rz_count=3 * (n - 1) * (n - 2) // 2)


def _generic_angle(rng: random.Random) -> float:
    """Uniform angle at least ANGLE_MARGIN away from every multiple of pi/4."""
    quarter = math.pi / 4
    return rng.randrange(8) * quarter + rng.uniform(ANGLE_MARGIN,
                                                    quarter - ANGLE_MARGIN)


def _gate(rng: random.Random, name: str) -> dict:
    item: dict = {"gate": name,
                  "qubits": rng.sample(range(N_QUBITS), ARITY.get(name, 1))}
    if name == "rz":
        item["angle"] = _generic_angle(rng)
    elif name == "cp":
        # The three Rz gates of cp(theta) turn by +-theta/2.
        item["angle"] = 2 * _generic_angle(rng)
    return item


def _layer(rng: random.Random, n_gates: int, max_gadgets: int | None):
    """A layer of ``n_gates`` consecutive alphabet entries from a random
    start, shuffled: the gate mix is fixed by the size, the order is not."""
    while True:
        start = rng.randrange(len(ALPHABET))
        kinds = [ALPHABET[(start + i) % len(ALPHABET)] for i in range(n_gates)]
        t = sum(T_WEIGHT.get(k, 0) for k in kinds)
        rz = sum(RZ_WEIGHT.get(k, 0) for k in kinds)
        if max_gadgets is None or t + rz <= max_gadgets:
            break
    rng.shuffle(kinds)
    return [_gate(rng, k) for k in kinds], t, rz


@dataclass(frozen=True)
class NestedSpec:
    """A nested circuit before emission: layers, rounds and root repeats."""

    layers: tuple[tuple[list, int, int], ...]        # (items, T, Rz)
    rounds: tuple[tuple[tuple[int, int], ...], ...]  # ((layer, repeat), ...)
    round_repeats: tuple[int, ...]


def nested_spec(sub_seed: int) -> NestedSpec:
    """Pool circuit ``sub_seed``.

    Layer sizes come from one fixed multiset in a seeded order and only the
    gates vary, so circuits of the pool cost about the same to estimate.
    """
    rng = random.Random(1_000_003 * sub_seed + 7)
    small = [(4 + k % 3, 4) for k in range(N_SMALL_LAYERS)]
    large = [(8 + (40 * k) // (N_LARGE_LAYERS - 1), None)
             for k in range(N_LARGE_LAYERS)]
    sizes = small + large
    rng.shuffle(sizes)
    layers = tuple(_layer(rng, n, cap) for n, cap in sizes)
    # Rounds use layers of 8+ gates only: 8 x 200 x 8 gates exceed the
    # default max_gates of 4096, so every round stays symbolic. The round
    # slots take evenly spaced sizes and a fixed multiset of repeats, so the
    # expanded T and Rz totals vary little across the pool.
    roomy = sorted((k for k, (n, _) in enumerate(sizes) if n >= 8),
                   key=lambda k: sizes[k][0])
    n_slots = N_ROUNDS * LAYERS_PER_ROUND
    slots = [roomy[(i * len(roomy)) // n_slots] for i in range(n_slots)]
    rng.shuffle(slots)
    repeats = [200 + (800 * i) // (n_slots - 1) for i in range(n_slots)]
    rng.shuffle(repeats)
    rounds = tuple(
        tuple(zip(slots[r::N_ROUNDS], repeats[r::N_ROUNDS]))
        for r in range(N_ROUNDS))
    round_repeats = [1 + i % 10 for i in range(N_ROUNDS)]
    rng.shuffle(round_repeats)
    return NestedSpec(layers, rounds, tuple(round_repeats))


def emit_nested(spec: NestedSpec, name: str, multiplier: int = 1) -> Circuit:
    """Emit the spec as nested-blocks JSON, each round's root repeat scaled
    by ``multiplier``, and tally T and Rz with every repeat multiplied out."""
    blocks: dict[str, list] = {}
    for k, (items, _, _) in enumerate(spec.layers):
        blocks[f"layer{k}"] = items
    root: list = []
    t_total = sum(t for _, t, _ in spec.layers)
    rz_total = sum(rz for _, _, rz in spec.layers)
    for r, (refs, repeat) in enumerate(zip(spec.rounds, spec.round_repeats)):
        blocks[f"round{r}"] = [{"block": f"layer{k}", "repeat": rep}
                               for k, rep in refs]
        root.append({"block": f"round{r}", "repeat": repeat * multiplier})
        t_total += repeat * multiplier * sum(rep * spec.layers[k][1]
                                             for k, rep in refs)
        rz_total += repeat * multiplier * sum(rep * spec.layers[k][2]
                                              for k, rep in refs)
    root.extend({"block": f"layer{k}"} for k in range(len(spec.layers)))
    blocks["main"] = root
    payload = {"format": 1, "n_input": N_QUBITS, "root": "main",
               "blocks": blocks}
    return Circuit(name, ".json", json.dumps(payload, sort_keys=True) + "\n",
                   t_count=t_total, rz_count=rz_total)


def run_order(seed: int) -> list[int]:
    """The pool sub-seeds in the order a run with ``seed`` visits them."""
    return random.Random(seed).sample(range(POOL_SIZE), POOL_SIZE)


def nested_circuit(sub_seed: int) -> Circuit:
    return emit_nested(nested_spec(sub_seed), f"nested{sub_seed}")


def ladder_circuits(sub_seed: int) -> list[Circuit]:
    """Rungs of one pool circuit; rung 0 is byte-identical to the nested
    workload's circuit of the same sub-seed."""
    spec = nested_spec(sub_seed)
    return [emit_nested(spec, f"nested{sub_seed}" if k == 0
                        else f"nested{sub_seed}x1e{k}", 10 ** k)
            for k in LADDER_EXPONENTS]


def workload_inputs(workload: str, seed: int) -> list[Circuit]:
    """All input files of one run, in the order the run uses them."""
    if workload == "qft":
        return [qft_circuit()]
    if workload == "nested":
        return [nested_circuit(s) for s in run_order(seed)]
    if workload == "ladder":
        return ladder_circuits(run_order(seed)[0])
    raise ValueError(f"unknown workload {workload!r}")
