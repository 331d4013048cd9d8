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

def min_prep_substeps(n_nodes, edges, fan_out=4, cap=12):
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
        p = PauliRows.zeros(n_nodes)
        p.z[f] = 1
        p.apply_ops(ops[k:])
        frames[a] = (tuple(q for q in range(n_nodes) if p.x[q] & 1),
                     tuple(q for q in range(n_nodes) if p.z[q] & 1))
    return frames


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


def graph_form_by_elimination(rows):
    """Graph form of n stabilizer rows by Gauss-Jordan elimination on numpy
    bool arrays, with per-qubit phase bookkeeping: (adjacency as an (n, n)
    bool array, applied gates per qubit). Same steps as the package: H on
    non-pivot columns of the X block, S on the Z diagonal, Z on signs."""
    n = rows.n_qubits
    x = np.array([[rows.x[q] >> j & 1 for q in range(n)] for j in range(n)],
                 dtype=bool).reshape(n, n)
    z = np.array([[rows.z[q] >> j & 1 for q in range(n)] for j in range(n)],
                 dtype=bool).reshape(n, n)
    r = np.array([rows.r >> j & 1 for j in range(n)], dtype=np.uint8)
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


def graph_form_by_rows(rows):
    """Graph form by row-major elimination on packed (x, z, sign) rows, with
    ``pauli_product``: (adjacency masks, applied gates per qubit). H on the
    non-pivot columns of the X block, echelon form keyed by lowest X bit,
    back-substitution to [I | A], S on the diagonal, Z on the signs."""
    from qre.stabilizer import StabilizerError, bits

    n = rows.n_qubits
    work = rows.row_masks(n)
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


def schedule_by_rescan(n_nodes, edges, fan_out=4):
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
        for v in frame.touches():
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
        for v in frame.touches():
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
               for o, i in zip(out_widget.output_nodes, in_widget.input_nodes))


def prep_cross_ops(prep, register_size, n_inter_pipes):
    """Cross-module operations of one preparation: per sub-step, the tuples'
    floor(d_max / register_size) crossings share the pipes."""
    total = 0
    for step in prep.sub_steps:
        crossings = sum((max(t.nodes) - min(t.nodes)) // register_size
                        for t in step)
        total += -(-crossings // n_inter_pipes)
    return total


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
    t_distill_total = sum(
        (plan.multiplicity[wid] - (1 if wid == plan.last else 0))
        * wt.t_distill_delay
        for wid, wt in per_widget.items())
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

    sel = solve_distance_and_factory(config, algo.est, algo.l_prep_total)
    return [(str(pipes), sel.d,
             compute_timing(replace(config, n_inter_pipes=pipes), algo,
                            sel).t_hardware_total)
            for pipes in pipe_values]


# --------------------------------------------------------------------------
# Nested-circuit JSON parsed item by item
# --------------------------------------------------------------------------

def parse_nested_per_item(payload, path):
    """Nested-circuit JSON parsed as before gate items were interned: one
    ``Gate`` built and validated per item, qubits and repeats read with
    ``int()``. Takes only well-formed input."""
    from qre.circuit import _QASM_NAME_TO_KIND, Gate, _eval_angle, circuit_width
    from qre.widgetizer import BlockRef, NestedCircuit

    blocks = {}
    for name, body in payload["blocks"].items():
        items = []
        for obj in body:
            if "gate" in obj:
                angle = obj.get("angle")
                if isinstance(angle, str):
                    angle = _eval_angle(angle, 0)
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
