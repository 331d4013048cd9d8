"""Independent oracle implementations for the test suite.

Everything here is deliberately written from first principles, using different
constructions than the package (index-arithmetic dense unitaries instead of
tensor contractions, direct formula evaluation instead of shared layout code),
so agreement between package and oracle is meaningful.
"""

from __future__ import annotations

import cmath
import itertools
import math
from typing import NamedTuple

import numpy as np

# --------------------------------------------------------------------------
# Builders and views of package objects that only the tests use
# --------------------------------------------------------------------------


def touches(frame) -> frozenset[int]:
    """The nodes a ``PauliFrame`` acts on: its X and Z supports."""
    return frozenset(frame.x_support) | frozenset(frame.z_support)


def star_nodes(star) -> tuple[int, ...]:
    """A ``PrepTuple``'s center, then its leaves."""
    return (star.center,) + star.leaves


def gate(kind, *qubits: int, angle: float | None = None):
    """A source ``Gate`` of ``kind`` on ``qubits``."""
    from qre.circuit import Gate

    return Gate(kind, qubits, angle)


def compiled(gates, n_input: int | None = None):
    """``gates`` transpiled and compiled on ``n_input`` wires, by default
    on the wires they touch (at least one)."""
    from qre.circuit import circuit_width, transpile
    from qre.compiler import compile_widget

    tw = transpile(gates)
    if n_input is None:
        n_input = max(circuit_width(tw.gates), 1)
    return compile_widget(tw, n_input)


def n_T(cw) -> int:
    """A ``CompiledWidget``'s T-measured node count."""
    return len(cw.nodes_by_kind["T"])


def n_Rz(cw) -> int:
    """A ``CompiledWidget``'s Rz-measured node count."""
    return len(cw.nodes_by_kind["Rz"])


def substep_spans(schedule) -> tuple[tuple[int, ...], ...]:
    """Per sub-step of a ``PrepSchedule``, the d_max of each tuple: the
    width of the interval its nodes span."""
    return tuple(tuple(max(star_nodes(t)) - min(star_nodes(t)) for t in step)
                 for step in schedule.sub_steps)


def encode_spans(spans) -> str:
    """Preparation spans as a ``WidgetRecord`` holds them, the reference
    encoding: each span in decimal and one space, each sub-step closed by
    ``;``."""
    return "".join("".join(f"{span} " for span in step) + ";"
                   for step in spans)


# --------------------------------------------------------------------------
# Dense unitaries by index arithmetic (qubit 0 = most significant bit)
# --------------------------------------------------------------------------

_S2 = 1 / math.sqrt(2)
SMALL = {
    "h": np.array([[_S2, _S2], [_S2, -_S2]], dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.diag([1, -1]).astype(complex),
    "s": np.diag([1, 1j]).astype(complex),
    "sdg": np.diag([1, -1j]).astype(complex),
    "t": np.diag([1, cmath.exp(1j * math.pi / 4)]).astype(complex),
    "tdg": np.diag([1, cmath.exp(-1j * math.pi / 4)]).astype(complex),
    "cx": np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
                   dtype=complex),
    "cz": np.diag([1, 1, 1, -1]).astype(complex),
    "swap": np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
                     dtype=complex),
}


def small_matrix(name: str, angle: float | None = None) -> np.ndarray:
    if name == "rz":
        return np.diag([cmath.exp(-0.5j * angle), cmath.exp(0.5j * angle)]).astype(complex)
    if name == "cp":
        return np.diag([1, 1, 1, cmath.exp(1j * angle)]).astype(complex)
    if name == "ccx":
        m = np.eye(8, dtype=complex)
        m[[6, 7], [6, 7]] = 0
        m[6, 7] = m[7, 6] = 1
        return m
    return SMALL[name]


def embed(small: np.ndarray, qubits: tuple[int, ...], n: int) -> np.ndarray:
    """Embed a 2^k x 2^k matrix on the named qubits into the full 2^n space."""
    k = len(qubits)
    dim = 2 ** n
    full = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        sub_in = 0
        for q in qubits:
            sub_in = (sub_in << 1) | ((col >> (n - 1 - q)) & 1)
        for sub_out in range(2 ** k):
            amp = small[sub_out, sub_in]
            if amp == 0:
                continue
            row = col
            for pos, q in enumerate(qubits):
                bit = (sub_out >> (k - 1 - pos)) & 1
                mask = 1 << (n - 1 - q)
                row = (row | mask) if bit else (row & ~mask)
            full[row, col] += amp
    return full


def oracle_unitary(gates, n: int) -> np.ndarray:
    """Full circuit unitary, multiplying embedded gate matrices left to right."""
    full = np.eye(2 ** n, dtype=complex)
    for g in gates:
        small = small_matrix(g.kind.value, g.angle)
        full = embed(small, g.qubits, n) @ full
    return full


def same_up_to_phase(u: np.ndarray, v: np.ndarray, tol: float = 1e-10) -> bool:
    """Are two matrices/vectors equal after quotienting a global phase?"""
    u = np.asarray(u)
    v = np.asarray(v)
    idx = np.unravel_index(np.argmax(np.abs(v)), v.shape)
    if abs(v[idx]) < 1e-14:
        return bool(np.max(np.abs(u - v)) <= tol)
    phase = u[idx] / v[idx]
    if abs(phase) < 1e-14:
        return False
    phase /= abs(phase)
    return bool(np.max(np.abs(u - phase * v)) <= tol)


def dft_matrix(n_qubits: int) -> np.ndarray:
    """The DFT matrix the QFT circuit must implement: W[j,k] = w^{jk}/sqrt(N)."""
    dim = 2 ** n_qubits
    omega = cmath.exp(2j * math.pi / dim)
    return np.array([[omega ** (j * k) for k in range(dim)] for j in range(dim)],
                    dtype=complex) / math.sqrt(dim)


def ccx_matrix() -> np.ndarray:
    """CCX truth-table permutation |a,b,c> -> |a,b,c^(a&b)>."""
    m = np.zeros((8, 8), dtype=complex)
    for a, b, c in itertools.product((0, 1), repeat=3):
        src = (a << 2) | (b << 1) | c
        dst = (a << 2) | (b << 1) | (c ^ (a & b))
        m[dst, src] = 1
    return m


# --------------------------------------------------------------------------
# Exhaustive minimum preparation-schedule length (tiny graphs only)
# --------------------------------------------------------------------------

def min_prep_substeps(n_nodes, edges, fan_out, cap=12):
    """Minimum sub-step count over all valid star schedules, by memoized
    search over uncovered-edge sets. Intervals are inclusive index ranges;
    two stars are compatible iff their intervals are disjoint (which also
    forces node-disjointness). Exponential: keep n_nodes/edges tiny."""
    import itertools

    def norm(u, v):
        return (u, v) if u < v else (v, u)

    all_edges = frozenset(norm(u, v) for u, v in edges)

    def tuples_for(uncov):
        out = []
        for c in range(n_nodes):
            nbrs = [v for v in range(n_nodes)
                    if v != c and norm(c, v) in uncov]
            for k in range(1, min(fan_out, len(nbrs)) + 1):
                for leaves in itertools.combinations(nbrs, k):
                    nodes = (c, *leaves)
                    out.append((c, leaves, min(nodes), max(nodes)))
        return out

    def compatible(t1, t2):
        return t1[3] < t2[2] or t2[3] < t1[2]

    def step_covers(uncov):
        cands = tuples_for(uncov)
        results = set()

        def rec(i, chosen, covered):
            extended = False
            for j in range(i, len(cands)):
                t = cands[j]
                if all(compatible(t, u) for u in chosen):
                    extended = True
                    rec(j + 1, chosen + [t],
                        covered | frozenset(norm(t[0], v) for v in t[1]))
            if not extended and chosen:
                results.add(covered)

        rec(0, [], frozenset())
        return results

    memo = {}

    def solve(uncov):
        if not uncov:
            return 0
        if uncov in memo:
            return memo[uncov]
        memo[uncov] = cap
        best = cap
        for covered in step_covers(uncov):
            best = min(best, 1 + solve(uncov - covered))
        memo[uncov] = best
        return best

    return solve(all_edges)


# --------------------------------------------------------------------------
# Independent module-layout evaluation (plain float arithmetic)
# --------------------------------------------------------------------------

def layout_oracle(n_phys, n_log, d, factory, n_per_leg):
    """Hand-transcription of the layout equations using float math.floor /
    math.ceil, kept stylistically separate from the package implementation.
    Returns a dict of the layout integers, or None when infeasible."""
    import math

    l_edge = math.floor(math.sqrt(n_phys / (2 * d ** 2)))
    if l_edge < 3:
        return None
    mem = math.ceil(n_log / n_per_leg)
    comb = 2 * math.floor((l_edge - 2) / 4) + 1
    l_qbus = max(math.ceil(mem / comb), 3)
    len_tiles = math.ceil(factory.l_length / (math.sqrt(2) * d))
    wid_tiles = math.ceil(factory.l_width / (math.sqrt(2) * d))
    n_col = math.floor((l_edge - l_qbus - 1) / (len_tiles + 1))
    if n_col < 1:
        return None
    n_fact = math.floor((l_edge - 1) / wid_tiles) * n_col
    if n_fact < 1:
        return None
    l_tb = (l_edge - l_qbus - n_col * len_tiles) * l_edge + n_col * len_tiles
    n_row_qbus = math.floor((mem + 1) / l_qbus)
    unalloc = l_edge ** 2 - 2 * mem - l_tb - n_fact * len_tiles * wid_tiles
    if unalloc < 0:
        return None
    return {
        "l_edge": l_edge,
        "memory_per_module": mem,
        "l_qbus": l_qbus,
        "n_row_qbus": n_row_qbus,
        "n_col_t_factories": n_col,
        "n_t_factories": n_fact,
        "l_transfer_bus": l_tb,
        "n_prime": min(n_fact, n_row_qbus),
        "n_unalloc_logical": unalloc,
    }


# --------------------------------------------------------------------------
# Failure-budget inequality: brute-force odd-d sweep
# --------------------------------------------------------------------------

def budget_lhs(
    d: int,
    kappa: float,
    p: float,
    p_thresh: float,
    n_logical: float,
    l_prep_total: float,
    n_per_leg: int,
    l_transfer_bus: float,
    n_seq_consump: float,
    n_seq_distill: float,
    cycles: float,
) -> float:
    """Left side of the space-time failure inequality, transcribed term by
    term with plain float arithmetic."""
    suppression = kappa * d * (p / p_thresh) ** ((d + 1) / 2.0)
    prep_volume = 2.0 * n_logical * l_prep_total * d
    consump_volume = (2.0 * n_logical + n_per_leg * l_transfer_bus) * (
        n_seq_consump * d + n_seq_distill * cycles
    )
    return suppression * (prep_volume + consump_volume)


def min_distance_sweep(lhs_at, p_algo_fail: float, d_cap: int = 199):
    """Smallest odd d in 3..d_cap with lhs_at(d) < -ln(1 - p_algo_fail),
    found by exhaustive sweep; None when the cap is exhausted."""
    rhs = -math.log(1.0 - p_algo_fail)
    for d in range(3, d_cap + 1, 2):
        value = lhs_at(d)
        if value is not None and value < rhs:
            return d
    return None


def layout_aware_lhs(config, n_logical, l_prep_total, factory, l_eps,
                     n_t_init, n_rz_init):
    """lhs_at(d) for min_distance_sweep with the module layout recomputed at
    every candidate d (fewest modules per leg whose layout fits, by
    layout_oracle); lhs_at(d) is None when nothing fits at d."""
    def lhs_at(d):
        lay = None
        for n_per_leg in range(1, n_logical + 1):
            lay = layout_oracle(config.n_phys_per_module, n_logical, d,
                                factory, n_per_leg)
            if lay is not None or -(-n_logical // n_per_leg) == 1:
                break
        if lay is None:
            return None
        n_eff = max(1, lay["n_prime"]) * factory.output_multiplier()
        n_c = -(-n_t_init // n_eff) + l_eps * -(-n_rz_init // n_eff)
        n_d = -(-(n_t_init + l_eps * n_rz_init) // n_eff)
        return budget_lhs(d, config.kappa, config.p, config.p_thresh,
                          n_logical, l_prep_total, n_per_leg,
                          lay["l_transfer_bus"], n_c, n_d, factory.cycles)
    return lhs_at


def modules_per_leg_by_scan(n_phys, n_log, d, factory):
    """The layout of the first n_per_leg in 1..n_log that fits, found by
    trying every one; None when none fits."""
    from qre.architecture import compute_layout

    for n_per_leg in range(1, n_log + 1):
        layout = compute_layout(n_phys, n_log, d, factory, n_per_leg)
        if layout is not None:
            return layout
    return None


# --------------------------------------------------------------------------
# Distance/precision/factory selection as a fixed point and a failure scan
# --------------------------------------------------------------------------

def distance_by_full_scan(config, n_logical, l_prep_total, factory, l_eps,
                          n_t_init, n_rz_init):
    """(d, layout, counts) of the smallest odd d in 3..D_CAP meeting the
    failure budget, choosing a layout at every distance with no bound to
    skip any; otherwise the solver's reason, decided from the whole scan."""
    from qre.architecture import choose_modules_per_leg
    from qre.estimator import (
        D_CAP,
        budget_rhs,
        sequential_counts,
        spacetime_lhs,
    )

    rhs = budget_rhs(config.p_algo_fail)
    fits = False
    for d in range(3, D_CAP + 1, 2):
        layout = choose_modules_per_leg(config.n_phys_per_module,
                                        n_logical, d, factory)
        if layout is None:
            continue
        fits = True
        counts = sequential_counts(n_t_init, n_rz_init, l_eps,
                                   layout.n_prime_effective)
        if spacetime_lhs(d, config, n_logical, l_prep_total,
                         layout.n_per_leg, layout.l_transfer_bus, counts,
                         factory.cycles) < rhs:
            return d, layout, counts
    if not fits:
        return f"no module layout fits at any odd d <= {D_CAP}"
    return (f"no odd d <= {D_CAP} meets the failure budget "
            f"p_algo_fail={config.p_algo_fail}")


def select_by_fixed_point(config, est):
    """(d, epsilon, l_eps, factory, p_logical, layout, counts) of the first
    factory in table order that solves, each factory's (d, epsilon) found by
    a separate fixed-point routine with its own guess and pinned branches,
    and every distance by a full scan from d=3; when none solves, the
    EstimationError names every factory with its reason, word for word as
    the solver gives it."""
    from qre.architecture import EstimationError
    from qre.estimator import (
        EPS_ITER_CAP,
        gate_synthesis_length,
        logical_error_per_cycle,
        logical_error_per_tock,
    )

    def tock_error(d):
        return logical_error_per_tock(
            logical_error_per_cycle(config.p, d, config.kappa,
                                    config.p_thresh), d)

    def fixed_point(factory):
        def solve(l_eps):
            return distance_by_full_scan(config, est.n_logical_max,
                                         est.l_prep_total, factory, l_eps,
                                         est.n_T_init, est.n_Rz_init)

        if est.n_Rz_init == 0:
            solved = solve(0)
            return solved if isinstance(solved, str) else (*solved, None, 0)
        if config.epsilon is not None:
            l_eps = gate_synthesis_length(config.epsilon, config.c0, config.c1)
            solved = solve(l_eps)
            return (solved if isinstance(solved, str)
                    else (*solved, config.epsilon, l_eps))
        guess = solve(0)
        if isinstance(guess, str):
            return guess
        epsilon = tock_error(guess[0])
        for _ in range(EPS_ITER_CAP):
            l_eps = gate_synthesis_length(epsilon, config.c0, config.c1)
            solved = solve(l_eps)
            if isinstance(solved, str):
                return solved
            p_logical = tock_error(solved[0])
            if epsilon < p_logical:
                return (*solved, epsilon, l_eps)
            epsilon = p_logical / 2.0
        raise EstimationError(
            f"precision fixed point did not settle within {EPS_ITER_CAP} "
            f"iterations (factory {factory.name!r})")

    reasons = []
    for factory in config.factories:
        solved = fixed_point(factory)
        if isinstance(solved, str):
            reasons.append(f"factory {factory.name!r}: {solved}")
            continue
        d, layout, counts, epsilon, l_eps = solved
        p_logical = tock_error(d)
        if counts.n_tot_t > 0 and not factory.p_out < p_logical:
            reasons.append(
                f"factory {factory.name!r}: output error {factory.p_out} is "
                f"not below the logical tock error {p_logical:.3e} at d={d}")
            continue
        return d, epsilon, l_eps, factory, p_logical, layout, counts
    raise EstimationError("estimation infeasible: " + "; ".join(reasons))


# --------------------------------------------------------------------------
# Straightforward compiler and scheduler references (quadratic, kept simple)
# --------------------------------------------------------------------------

def gadgets_of(cw):
    """(measured node, fresh node, op index after its H) per teleportation
    gadget: a fresh node first appears in its gadget's CZ, then gets an H."""
    seen = set(range(cw.n_input))
    out = []
    for i, (name, qubits) in enumerate(cw.prep_ops):
        fresh = [q for q in qubits if q not in seen]
        if fresh:
            a, f = qubits
            assert name == "cz" and fresh == [f]
            assert cw.prep_ops[i + 1] == ("h", (f,))
            out.append((a, f, i + 2))
        seen.update(qubits)
    return out


def frames_by_replay(ops, gadgets, n_nodes):
    """Byproduct frames, replaying the Clifford tail once per gadget:
    {measured node: (x_support, z_support)}."""
    from qre.stabilizer import PauliRows

    frames = {}
    for a, f, k in gadgets:
        p = PauliRows([0] * n_nodes, [0] * n_nodes)
        p.z[f] = 1
        p.apply_ops(ops[k:])
        frames[a] = (tuple(q for q in range(n_nodes) if p.x[q] & 1),
                     tuple(q for q in range(n_nodes) if p.z[q] & 1))
    return frames


def sweep_by_replay(ops, gadgets, n_nodes):
    """The compiler's sweep replayed by op name: the prep ops run through
    ``PauliRows.apply_ops`` on frame rows 0..g-1 (the identity) and tableau
    rows g + v (X_v to start), with frame bit j set on gadget j's fresh node
    right after its H."""
    from qre.stabilizer import PauliRows

    g = len(gadgets)
    rows = PauliRows([1 << v for v in range(g, g + n_nodes)], [0] * n_nodes)
    start = 0
    for j, (_, f, k) in enumerate(gadgets):
        rows.apply_ops(ops[start:k])
        rows.z[f] |= 1 << j
        start = k
    rows.apply_ops(ops[start:])
    return rows


def _g(x1, z1, x2, z2):
    """Per-qubit exponent of i picked up multiplying row-1 Paulis into row 2."""
    x1i, z1i = x1.astype(np.int8), z1.astype(np.int8)
    x2i, z2i = x2.astype(np.int8), z2.astype(np.int8)
    out = np.zeros(x1.shape, np.int8)
    is_x = x1 & ~z1
    is_z = ~x1 & z1
    is_y = x1 & z1
    out[is_x] = (z2i * (2 * x2i - 1))[is_x]
    out[is_z] = (x2i * (1 - 2 * z2i))[is_z]
    out[is_y] = (z2i - x2i)[is_y]
    return out


def graph_form_by_elimination(rows, signs=None):
    """Graph form of n stabilizer rows by Gauss-Jordan elimination on numpy
    bool arrays, with per-qubit phase bookkeeping: (adjacency as an (n, n)
    bool array, applied gates per qubit). ``signs`` holds row j's sign bit
    at j (default: all +1), since ``PauliRows`` holds none. Same steps as
    the package: H on non-pivot columns of the X block, S on the Z
    diagonal, Z on signs."""
    n = rows.n_qubits
    x = np.array([[rows.x[q] >> j & 1 for q in range(n)] for j in range(n)],
                 dtype=bool).reshape(n, n)
    z = np.array([[rows.z[q] >> j & 1 for q in range(n)] for j in range(n)],
                 dtype=bool).reshape(n, n)
    r = np.array(signs or [0] * n, dtype=np.uint8)
    applied = [[] for _ in range(n)]

    def multiply_into(h, i):
        phase = 2 * int(r[h]) + 2 * int(r[i]) + int(_g(x[i], z[i], x[h], z[h]).sum())
        if phase % 2:
            raise ValueError("multiplied anticommuting rows")
        r[h] = (phase // 2) % 2
        x[h] ^= x[i]
        z[h] ^= z[i]

    def rref():
        rank = 0
        pivots = []
        for col in range(n):
            hits = np.nonzero(x[rank:, col])[0]
            if hits.size == 0:
                continue
            for arr in (x, z, r):
                arr[[rank, rank + hits[0]]] = arr[[rank + hits[0], rank]]
            for row in np.nonzero(x[:, col])[0]:
                if row != rank:
                    multiply_into(row, rank)
            pivots.append(col)
            rank += 1
        return pivots

    pivots = rref()
    for col in range(n):
        if col not in pivots:
            r ^= x[:, col] & z[:, col]
            x[:, col], z[:, col] = z[:, col].copy(), x[:, col].copy()
            applied[col].append("h")
    if len(rref()) != n:
        raise ValueError("X block is not full rank after the H sweep")
    assert np.array_equal(x, np.eye(n, dtype=bool))
    for v in range(n):
        if z[v, v]:
            r ^= x[:, v] & z[:, v]
            z[:, v] ^= x[:, v]
            applied[v].append("s")
    for v in range(n):
        if r[v]:
            r ^= x[:, v]
            applied[v].append("z")
    assert np.array_equal(z, z.T) and not z.diagonal().any() and not r.any()
    return z, tuple(tuple(a) for a in applied)


def pauli_product(a, b):
    """The row of P_a * P_b for row-major (x mask, z mask, sign) rows; the
    rows must commute for it to be Hermitian.

    Moving Z^{z_a} past X^{x_b} gives (-1)^{|z_a & x_b|}, and the Hermitian
    i^{|x & z|} factors give the exponent of i below.
    """
    from qre.stabilizer import StabilizerError

    xa, za, sa = a
    xb, zb, sb = b
    x, z = xa ^ xb, za ^ zb
    e = ((xa & za).bit_count() + (xb & zb).bit_count()
         + 2 * (za & xb).bit_count() - (x & z).bit_count())
    if e & 1:
        raise StabilizerError("multiplied anticommuting rows")
    return x, z, sa ^ sb ^ ((e >> 1) & 1)


def graph_form_by_rows(rows, signs=None):
    """Graph form by row-major elimination on (x, z, sign) rows, with
    ``pauli_product``: (adjacency masks, applied gates per qubit). ``signs``
    holds row j's sign bit at j (default: all +1). H on the non-pivot
    columns of the X block, echelon form keyed by lowest X bit,
    back-substitution to [I | A], S on the diagonal, Z on the signs."""
    from qre.stabilizer import StabilizerError, bits

    n = rows.n_qubits
    work = [(x, z, s) for (x, z), s in zip(rows.row_masks(n),
                                           signs or [0] * n)]
    pivots = {}
    for x, _, _ in work:
        while x:
            low = x & -x
            if low not in pivots:
                pivots[low] = x
                break
            x ^= pivots[low]
    h_mask = ((1 << n) - 1) & ~sum(pivots)
    applied = [["h"] if h_mask >> q & 1 else [] for q in range(n)]
    work = [(x & ~h_mask | z & h_mask, z & ~h_mask | x & h_mask,
             s ^ ((x & z & h_mask).bit_count() & 1)) for x, z, s in work]

    by_pivot = [None] * n
    for row in work:
        while row[0]:
            q = (row[0] & -row[0]).bit_length() - 1
            if by_pivot[q] is None:
                by_pivot[q] = row
                break
            row = pauli_product(by_pivot[q], row)
        else:
            raise StabilizerError("stabilizer X block is not full rank after H sweep")
    for q in reversed(range(n)):
        row = by_pivot[q]
        for p in bits(row[0] & ~((2 << q) - 1)):
            row = pauli_product(by_pivot[p], row)
        by_pivot[q] = row

    adjacency = []
    for v, (x, z, s) in enumerate(by_pivot):
        if z >> v & 1:
            z ^= 1 << v
            s ^= 1
            applied[v].append("s")
        if s:
            applied[v].append("z")
        adjacency.append(z)
    for u, row in enumerate(adjacency):
        if any(not adjacency[v] >> u & 1 for v in bits(row)):
            raise StabilizerError("canonical Z block is not a graph adjacency")
    return tuple(adjacency), tuple(tuple(a) for a in applied)


def max_live_nodes_by_scan(n_input, n_nodes, edges, schedule):
    """Peak live-node count, counting every node at every sub-step."""
    horizon = len(schedule) + 1
    meas_time = {v: t + 1 for t, layer in enumerate(schedule) for v in layer}
    nbrs = {v: [] for v in range(n_nodes)}
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    create = {}
    for v in range(n_nodes):
        if v < n_input:
            create[v] = 0
        else:
            create[v] = min(meas_time.get(u, horizon) for u in (v, *nbrs[v]))
    peak = 0
    for t in range(1, horizon + 1):
        live = sum(1 for v in range(n_nodes)
                   if create[v] <= t <= meas_time.get(v, horizon))
        peak = max(peak, live)
    return peak


def schedule_by_rescan(n_nodes, edges, fan_out):
    """Greedy star packing that rescans every node, neighbour list and
    interval on each sub-step: a list of sub-steps of (center, leaves)."""
    def norm(u, v):
        return (u, v) if u < v else (v, u)

    uncovered = {norm(u, v) for u, v in edges}
    adj = {v: [] for v in range(n_nodes)}
    for u, v in uncovered:
        adj[u].append(v)
        adj[v].append(u)
    for v in adj:
        adj[v].sort()
    sub_steps = []
    while uncovered:
        used = set()
        intervals = []
        step = []
        for c in range(n_nodes):
            if c in used:
                continue
            leaves = [v for v in adj[c]
                      if v not in used and norm(c, v) in uncovered]
            if not leaves:
                continue
            take = tuple(leaves[:fan_out])
            lo = min(c, take[0])
            hi = max(c, take[-1])
            if any(lo <= b and a <= hi for a, b in intervals):
                continue
            step.append((c, take))
            used.add(c)
            used.update(take)
            intervals.append((lo, hi))
            for v in take:
                uncovered.discard(norm(c, v))
        sub_steps.append(step)
    return sub_steps


def layers_by_rescan(measurements, frames):
    """Consumption layers that rescan every remaining measured node for
    each layer: a node joins the first layer after all its predecessors."""
    from qre.compiler import CompileError

    measured = {m.node for m in measurements}
    preds = {v: set() for v in measured}
    for b, frame in frames.items():
        for v in touches(frame):
            if v in measured:
                preds[v].add(b)
    remaining = set(measured)
    done = set()
    layers = []
    while remaining:
        layer = sorted(v for v in remaining if preds[v] <= done)
        if not layer:
            raise CompileError("cyclic measurement dependencies")
        layers.append(tuple(layer))
        done.update(layer)
        remaining.difference_update(layer)
    return tuple(layers)


def layers_by_kahn(measurements, frames):
    """Consumption layers from a dict of frames: Kahn's order over 'b before
    a if b's frame touches a', first in first out, so a node's last
    predecessor is its deepest and sets its longest-path depth."""
    from qre.compiler import CompileError

    measured = {m.node for m in measurements}
    succs = {}
    n_preds = dict.fromkeys(measured, 0)
    for b, frame in frames.items():
        for v in touches(frame):
            if v in measured:
                n_preds[v] += 1
                succs.setdefault(b, []).append(v)
    depth = dict.fromkeys(measured, 0)
    ready = [v for v in measured if not n_preds[v]]
    for b in ready:
        for v in succs.get(b, ()):
            n_preds[v] -= 1
            if not n_preds[v]:
                depth[v] = depth[b] + 1
                ready.append(v)
    if len(ready) < len(measured):
        raise CompileError("cyclic measurement dependencies")
    layers = [[] for _ in range(max(depth.values(), default=-1) + 1)]
    for v in sorted(measured):
        layers[depth[v]].append(v)
    return tuple(map(tuple, layers))


# --------------------------------------------------------------------------
# Timing model recomputed from the widgets on every call
# --------------------------------------------------------------------------

def compile_fresh(plan, fan_out):
    """Each distinct widget of ``plan`` transpiled, compiled and
    prep-scheduled from its source gates, outside the pipeline and its
    widget records: {widget id: (compiled widget, prep schedule)}."""
    from qre.circuit import transpile
    from qre.compiler import compile_widget
    from qre.prepsched import schedule_preparation

    fresh = {}
    for wid, gates in plan.widgets.items():
        cw = compile_widget(transpile(gates), n_input=plan.n_input)
        fresh[wid] = (cw, schedule_preparation(cw.n_nodes, cw.edges,
                                               fan_out=fan_out))
    return fresh


def totals_by_walk(loaded, fan_out):
    """Every field of ``CompiledAlgorithm.est``, summed position by position
    over the expanded widget sequence of ``loaded`` with widgets compiled
    by ``compile_fresh``: no multiplicity is read."""
    from qre.circuit import transpile

    plan = loaded.plan
    fresh = compile_fresh(plan, fan_out)
    sequence, _ = loaded.expand()
    walk = [fresh[wid] for wid in sequence]
    n_widgets = len(walk)
    return {
        "n_input": plan.n_input,
        "n_widgets": n_widgets,
        "n_T_init": sum(n_T(cw) for cw, _ in walk),
        "n_Rz_init": sum(n_Rz(cw) for cw, _ in walk),
        "n_clifford_init": sum(transpile(plan.widgets[wid]).n_Clifford_init
                               for wid in sequence),
        "n_logical_max": max(cw.n_logical for cw, _ in walk),
        "n_nodes_total": (sum(cw.n_nodes for cw, _ in walk)
                          + (n_widgets - 1) * plan.n_input),
        "l_prep_total": sum(prep.n_sub_steps for _, prep in walk),
        "consump_steps_total": sum(len(cw.consump_schedule)
                                   for cw, _ in walk),
    }


class WidgetTiming(NamedTuple):
    """Per-widget quantities reused across sequence positions."""

    t_prep: float             # time to prepare this widget's graph
    t_consump_intra: float    # intra-module consumption time bound
    t_distill_delay: float    # stall waiting for distilled T states
    n_max_t: int
    n_max_rz: int


def _module(node, register_size, layout):
    return (node % register_size) // layout.memory_per_module


def per_module_maxima(cw, register_size, layout):
    """Max per-module T and Rz measurement counts, by a walk of the
    measurements (one module per leg: the widget's totals)."""
    t_counts = [0] * layout.n_per_leg
    rz_counts = [0] * layout.n_per_leg
    for m in cw.measurements:
        module = _module(m.node, register_size, layout)
        if m.kind == "T":
            t_counts[module] += 1
        elif m.kind == "Rz":
            rz_counts[module] += 1
    return max(t_counts), max(rz_counts)


def handover_crossings(out_widget, in_widget, register_size, layout):
    """Module-boundary crossings of one handover, wire by wire (none with
    one module per leg)."""
    if layout.n_per_leg == 1:
        return 0
    return sum(abs(_module(o, register_size, layout)
                   - _module(i, register_size, layout)) + 1
               for o, i in zip(out_widget.output_nodes,
                               range(in_widget.n_input)))


def prep_cross_ops(prep, register_size, n_inter_pipes):
    """Cross-module operations of one preparation: per sub-step, the tuples'
    floor(d_max / register_size) crossings share the pipes."""
    total = 0
    for step in prep.sub_steps:
        crossings = sum((max(star_nodes(t)) - min(star_nodes(t)))
                        // register_size
                        for t in step)
        total += -(-crossings // n_inter_pipes)
    return total


def cross_module_ops(schedule, n_logical, n_inter_pipes):
    """Vertical cross-module operation count for one widget's preparation,
    from the package's own steps: each sub-step's crossings
    (``substep_crossings``) share the pipes (``pipe_rounds``)."""
    from qre.estimator import pipe_rounds, substep_crossings

    return pipe_rounds(substep_crossings(substep_spans(schedule), n_logical),
                       n_inter_pipes)


def widget_timing(config, cw, prep, sel, register_size):
    """One widget's prep, consumption and distillation-stall times at the
    selected operating point, counted from the widget itself."""
    d = sel.d
    layout = sel.layout
    t, t_inter = config.t, config.t_inter
    cycles = sel.factory.cycles
    n_fact = layout.n_t_factories

    n_intra = prep.n_sub_steps
    n_cross = (prep_cross_ops(prep, register_size, config.n_inter_pipes)
               if layout.n_per_leg > 1 else 0)
    t_prep = 8.0 * d * (n_intra * t + n_cross * t_inter)

    n_max_t, n_max_rz = per_module_maxima(cw, register_size, layout)
    t_consump_intra = 8.0 * t * d * (
        -(-n_max_t // n_fact) + sel.l_eps * -(-n_max_rz // n_fact))

    n_t_per_module = max(int(n_fact * t_prep // (8.0 * t * cycles)),
                         layout.l_transfer_bus)
    l_max_seq = n_max_t + sel.l_eps * n_max_rz
    if l_max_seq > n_t_per_module:
        shortfall = -(-(l_max_seq - n_t_per_module) // n_fact)
        t_distill_delay = 8.0 * t * cycles * shortfall
    else:
        t_distill_delay = 0.0
    return WidgetTiming(t_prep, t_consump_intra, t_distill_delay,
                        n_max_t, n_max_rz)


def timing_per_call(config, algo, sel, fresh):
    """The seven TimingBreakdown fields as a dict, with every widget and
    stitch recounted on each call from ``fresh`` (``compile_fresh`` of the
    algorithm's plan) rather than from the algorithm's records."""
    plan = algo.plan
    register_size = max(cw.n_logical for cw, _ in fresh.values())
    l_prep_first = fresh[plan.first][1].n_sub_steps
    d = sel.d
    t = config.t
    per_widget = {
        wid: widget_timing(config, *fresh[wid], sel, register_size)
        for wid in plan.widgets
    }
    # Left to right, as the estimator adds them: sum() rounds floats
    # differently from Python 3.12 on.
    t_distill_total = 0.0
    for wid, wt in per_widget.items():
        t_distill_total += ((plan.multiplicity[wid]
                             - (1 if wid == plan.last else 0))
                            * wt.t_distill_delay)
    t_prep_delay_total = 0.0
    handover_ops = 0
    for (a, b), count in plan.stitches.items():
        wt_a = per_widget[a]
        lag = (per_widget[b].t_prep - wt_a.t_consump_intra
               - wt_a.t_distill_delay)
        if lag > 0:
            t_prep_delay_total += count * lag
        crossings = handover_crossings(
            fresh[a][0], fresh[b][0], register_size, sel.layout)
        if crossings:
            handover_ops += count * -(-crossings // config.n_inter_pipes)
    t_handover = 8.0 * config.t_inter * d * handover_ops
    t_consump = (8.0 * t * d * (l_prep_first + sel.counts.n_seq_consump)
                 + t_distill_total + t_prep_delay_total)
    quantum_tock = 8.0 * t * d
    decoder_tock = config.t_decoder * d
    factory_tock = 8.0 * t * sel.factory.cycles
    consump_tocks = (l_prep_first + sel.counts.n_seq_consump
                     + math.ceil(t_prep_delay_total / quantum_tock))
    distill_tocks = math.ceil(t_distill_total / factory_tock)
    t_decode = (consump_tocks * max(0.0, decoder_tock - quantum_tock)
                + distill_tocks * max(0.0, decoder_tock - factory_tock))
    t_hardware = t_consump + t_handover + t_decode
    return {
        "t_consump_total": t_consump,
        "t_distill_delay_total": t_distill_total,
        "t_prep_delay_total": t_prep_delay_total,
        "t_handover_inter_total": t_handover,
        "t_decode_delay_total": t_decode,
        "t_hardware_total": t_hardware,
        "t_ft_total": config.n_algo_reps * t_hardware,
    }


def pipe_sweep_per_point(algo, config, pipe_values):
    """(label, distance, hardware time) of each pipe count, with the machine
    re-timed afresh at every point by ``compute_timing``."""
    from dataclasses import replace

    from qre.estimator import compute_timing, solve_distance_and_factory

    sel = solve_distance_and_factory(config, algo.est)
    return [(str(pipes), sel.d,
             compute_timing(replace(config, n_inter_pipes=pipes), algo,
                            sel).t_hardware_total)
            for pipes in pipe_values]


# --------------------------------------------------------------------------
# Nested-circuit JSON parsed item by item
# --------------------------------------------------------------------------

def parse_nested_per_item(payload):
    """Nested-circuit JSON parsed as before gate items were interned: one
    ``Gate`` built and validated per item, qubits and repeats read with
    ``int()``. Takes only well-formed input."""
    from qre.circuit import _QASM_NAME_TO_KIND, Gate, circuit_width
    from qre.widgetizer import BlockRef, NestedCircuit

    blocks = {}
    for name, body in payload["blocks"].items():
        items = []
        for obj in body:
            if "gate" in obj:
                angle = obj.get("angle")
                if isinstance(angle, str):
                    angle = fold_angle_by_eval(angle)
                if angle is not None:
                    angle = float(angle)
                items.append(Gate(_QASM_NAME_TO_KIND[obj["gate"]],
                                  tuple(map(int, obj.get("qubits", ()))),
                                  angle))
            else:
                items.append(BlockRef(str(obj["block"]),
                                      int(obj.get("repeat", 1))))
        blocks[name] = items
    root = payload.get("root", next(iter(payload["blocks"])))
    width = max(circuit_width([i for i in body if isinstance(i, Gate)])
                for body in blocks.values())
    return NestedCircuit(int(payload.get("n_input", max(width, 1))), blocks,
                         str(root))


# --------------------------------------------------------------------------
# Nested-circuit block statistics by memoized recursion
# --------------------------------------------------------------------------

def block_stats(blocks, name, memo):
    """The fully expanded gate count of one repetition of block ``name``,
    by recursion over its references, memoized in ``memo``. Never
    materializes repeats."""
    if name in memo:
        return memo[name]
    count = 0
    for item in blocks[name]:
        if hasattr(item, "qubits"):
            count += 1
        else:
            count += item.repeat * block_stats(blocks, item.name, memo)
    memo[name] = count
    return count


def expanded_kind_counts(blocks, name, memo):
    """{gate kind: count} over block ``name`` fully expanded, by the same
    memoized recursion as ``block_stats``."""
    if name in memo:
        return memo[name]
    counts = {}
    for item in blocks[name]:
        if hasattr(item, "qubits"):
            counts[item.kind] = counts.get(item.kind, 0) + 1
        else:
            for kind, n in expanded_kind_counts(blocks, item.name,
                                                memo).items():
                counts[kind] = counts.get(kind, 0) + item.repeat * n
    memo[name] = counts
    return counts


# --------------------------------------------------------------------------
# The circuit reader and transpiler as first built: line buffers, eval, and
# one validated Gate per transpiled gate
# --------------------------------------------------------------------------

def fold_angle_by_eval(expr):
    """An angle expression checked node by node and then handed to
    ``eval``, with no bound on ``**`` and no mapping of arithmetic errors."""
    import ast

    from qre.circuit import CircuitError

    allowed = (ast.Expression, ast.BinOp, ast.UnaryOp, ast.Constant, ast.Name,
               ast.Load, ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow,
               ast.USub, ast.UAdd)
    try:
        tree = ast.parse(expr.strip(), mode="eval")
    except SyntaxError as exc:
        raise CircuitError(f"bad angle expression {expr!r}") from exc
    for node in ast.walk(tree):
        if not isinstance(node, allowed):
            raise CircuitError(f"unsupported angle syntax {expr!r}")
        if isinstance(node, ast.Name) and node.id != "pi":
            raise CircuitError(f"unknown symbol {node.id!r} in angle")
        if isinstance(node, ast.Constant) and not isinstance(node.value, (int, float)):
            raise CircuitError("non-numeric constant in angle")
    value = eval(compile(tree, "<angle>", "eval"), {"__builtins__": {}},
                 {"pi": math.pi})
    return float(value)


def _statements_by_lines(text):
    """Yield (statement, starting line number), comments stripped, from a
    buffer that grows line by line and is cut at each ';'."""
    from qre.circuit import CircuitError

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


def parse_qasm_by_lines(text):
    """``parse_qasm`` read statement by statement from a line buffer, each
    statement whitespace-normalized and matched field by field."""
    import re

    from qre.circuit import _QASM_NAME_TO_KIND, ANGLED, CircuitError, Gate

    stmt_gate = re.compile(r"^(?P<name>[a-z][a-z0-9_]*)\s*(?:\(\s*(?P<args>[^)]*)"
                           r"\s*\))?\s+(?P<operands>.+)$")
    operand_re = re.compile(r"^(?P<reg>[A-Za-z_][A-Za-z0-9_]*)\s*\[\s*(?P<idx>\d+)\s*\]$")
    gates = []
    reg_name = None
    reg_size = 0
    for stmt, line_no in _statements_by_lines(text):
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
        m = stmt_gate.match(stmt)
        if not m:
            raise CircuitError(f"line {line_no}: unsupported statement: {stmt!r}")
        name = m.group("name")
        kind = _QASM_NAME_TO_KIND.get(name)
        if kind is None:
            raise CircuitError(f"line {line_no}: unsupported gate {name!r}")
        if reg_name is None:
            raise CircuitError(f"line {line_no}: gate before qreg declaration")
        angle = None
        if kind in ANGLED:
            if m.group("args") is None:
                raise CircuitError(f"line {line_no}: {name} requires an angle argument")
            try:
                angle = fold_angle_by_eval(m.group("args"))
            except CircuitError as exc:
                raise CircuitError(f"line {line_no}: {exc}") from exc
        elif m.group("args") is not None:
            raise CircuitError(f"line {line_no}: {name} takes no argument")
        qubits = []
        for operand in m.group("operands").split(","):
            om = operand_re.match(operand.strip())
            if not om or om.group("reg") != reg_name:
                raise CircuitError(f"line {line_no}: bad operand {operand.strip()!r}")
            idx = int(om.group("idx"))
            if idx >= reg_size:
                raise CircuitError(f"line {line_no}: qubit index {idx} out of range "
                                   f"for {reg_name}[{reg_size}]")
            qubits.append(idx)
        try:
            gates.append(Gate(kind, tuple(qubits), angle))
        except CircuitError as exc:
            raise CircuitError(f"line {line_no}: {exc}") from exc
    return (None if reg_name is None else reg_size), gates


def transpile_by_gates(gates):
    """``transpile`` expanding gate by gate into validated ``Gate``s, each
    rotation snapped on its own, and counting in a second pass:
    ``(gates, n_T, n_Rz, n_Clifford)``."""
    from qre.circuit import SNAP_TOL, Gate, GateKind as K

    snap_table = {0: (), 1: (K.T,), 2: (K.S,), 3: (K.S, K.T), 4: (K.Z,),
                  5: (K.Z, K.T), 6: (K.Sdg,), 7: (K.Tdg,)}

    def rz_or_snapped(qubit, angle):
        k = round(angle / (math.pi / 4))
        if abs(angle - k * (math.pi / 4)) > SNAP_TOL:
            return [Gate(K.Rz, (qubit,), angle)]
        return [Gate(kind, (qubit,)) for kind in snap_table[k % 8]]

    out = []
    for g in gates:
        if g.kind is K.CCX:
            a, b, c = g.qubits
            out += [Gate(K.H, (c,)), Gate(K.CX, (b, c)), Gate(K.Tdg, (c,)),
                    Gate(K.CX, (a, c)), Gate(K.T, (c,)), Gate(K.CX, (b, c)),
                    Gate(K.Tdg, (c,)), Gate(K.CX, (a, c)), Gate(K.T, (b,)),
                    Gate(K.T, (c,)), Gate(K.H, (c,)), Gate(K.CX, (a, b)),
                    Gate(K.T, (a,)), Gate(K.Tdg, (b,)), Gate(K.CX, (a, b))]
        elif g.kind is K.CPhase:
            a, b = g.qubits
            half = g.angle / 2.0
            out += [Gate(K.CX, (a, b)), *rz_or_snapped(b, -half),
                    Gate(K.CX, (a, b)), *rz_or_snapped(a, half),
                    *rz_or_snapped(b, half)]
        elif g.kind is K.Rz:
            out += rz_or_snapped(g.qubits[0], g.angle)
        else:
            out.append(Gate(g.kind, g.qubits, g.angle))
    n_t = sum(g.kind in (K.T, K.Tdg) for g in out)
    n_rz = sum(g.kind is K.Rz for g in out)
    return tuple(out), n_t, n_rz, len(out) - n_t - n_rz
