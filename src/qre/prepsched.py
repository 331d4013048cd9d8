"""Greedy scheduling of graph-state preparation on a bilinear register.

Each multi-Pauli product operation (MPPO) prepares one star: a center node
together with up to four of its not-yet-entangled neighbors. Node v sits at
register index v, and an MPPO occupies the inclusive index interval spanned
by its nodes, so two MPPOs can share a sub-step only if their intervals are
disjoint (they ride the same auxiliary bus). The schedule greedily packs a
maximal set of compatible stars per sub-step, sweeping centers in index
order, until every edge is covered exactly once.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Sequence

FAN_OUT_CAP = 4


@dataclass(frozen=True)
class PrepTuple:
    """One star MPPO: center plus the neighbors it entangles this sub-step."""

    center: int
    leaves: tuple[int, ...]

    @property
    def nodes(self) -> tuple[int, ...]:
        return (self.center,) + self.leaves

    @property
    def interval(self) -> tuple[int, int]:
        nodes = self.nodes
        return min(nodes), max(nodes)

    @property
    def d_max(self) -> int:
        lo, hi = self.interval
        return hi - lo

    def covered_edges(self) -> list[tuple[int, int]]:
        return [(min(self.center, v), max(self.center, v)) for v in self.leaves]


@dataclass(frozen=True)
class PrepSchedule:
    """Ordered sub-steps of node-disjoint, interval-disjoint star MPPOs."""

    n_nodes: int
    sub_steps: tuple[tuple[PrepTuple, ...], ...]

    @property
    def n_sub_steps(self) -> int:
        return len(self.sub_steps)

    def all_tuples(self) -> list[PrepTuple]:
        return [t for step in self.sub_steps for t in step]

    def covered_edges(self) -> list[tuple[int, int]]:
        return [e for t in self.all_tuples() for e in t.covered_edges()]

    def substep_spans(self) -> tuple[tuple[int, ...], ...]:
        """Per sub-step, the d_max of each tuple (for cross-module counting)."""
        return tuple(tuple(t.d_max for t in step) for step in self.sub_steps)

    def check_covers(self, edges: Iterable[tuple[int, int]]) -> None:
        want = sorted((min(u, v), max(u, v)) for u, v in edges)
        got = sorted(self.covered_edges())
        if want != got:
            raise ValueError("schedule does not cover the edge set exactly")


def _normalize(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def schedule_preparation(
    n_nodes: int,
    edges: Iterable[tuple[int, int]],
    fan_out: int = FAN_OUT_CAP,
) -> PrepSchedule:
    """Greedy star packing; see module docstring for the conflict model."""
    uncovered = {_normalize(u, v) for u, v in edges}
    if any(u == v or not (0 <= u < n_nodes and 0 <= v < n_nodes)
           for u, v in uncovered):
        raise ValueError("edges must join distinct nodes in range")
    # Sorted uncovered neighbours per node; both entries go when an edge is
    # covered, so each sub-step visits only nodes with edges left.
    unc: list[list[int]] = [[] for _ in range(n_nodes)]
    for u, v in uncovered:
        unc[u].append(v)
        unc[v].append(u)
    for nbrs in unc:
        nbrs.sort()
    active = [c for c in range(n_nodes) if unc[c]]

    sub_steps: list[tuple[PrepTuple, ...]] = []
    while active:
        used: set[int] = set()
        # Centers rise through the sweep and every interval holds its
        # center, so a star fits only past the last accepted interval (and
        # every used node lies at or below that reach).
        reach = -1
        step: list[PrepTuple] = []
        for c in active:
            if c <= reach:
                continue
            leaves = [v for v in unc[c] if v not in used]
            if not leaves:
                continue
            take = tuple(leaves[:fan_out])
            lo = min(c, take[0])
            if lo <= reach:
                continue
            step.append(PrepTuple(c, take))
            used.add(c)
            used.update(take)
            reach = max(c, take[-1])
            taken = set(take)
            unc[c] = [v for v in unc[c] if v not in taken]
            for v in take:
                del unc[v][bisect_left(unc[v], c)]
        assert step, "a fresh sub-step always fits at least one star"
        sub_steps.append(tuple(step))
        active = [c for c in active if unc[c]]
    return PrepSchedule(n_nodes, tuple(sub_steps))


def cross_module_ops(
    schedule: PrepSchedule, n_logical: int, n_inter_pipes: int
) -> int:
    """Vertical cross-module operation count for one widget's preparation.

    Each tuple spanning d_max register slots crosses floor(d_max / n_logical)
    module boundaries; per sub-step the crossings share the inter-module
    pipes, hence the ceiling division.
    """
    if n_logical < 1 or n_inter_pipes < 1:
        raise ValueError("n_logical and n_inter_pipes must be >= 1")
    total = 0
    for spans in schedule.substep_spans():
        crossings = sum(span // n_logical for span in spans)
        total += -(-crossings // n_inter_pipes) if crossings else 0
    return total
