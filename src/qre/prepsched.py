"""Greedy scheduling of graph-state preparation on a bilinear register.

Each multi-Pauli product operation (MPPO) prepares one star: a center node
together with up to ``fan_out`` (``ArchConfig.fan_out``) of its
not-yet-entangled neighbors. Node v sits at register index v, and an MPPO
occupies the inclusive index interval spanned by its nodes, so two MPPOs
can share a sub-step only if their intervals are disjoint (they ride the
same auxiliary bus). The schedule greedily packs a maximal set of
compatible stars per sub-step, sweeping centers in index order, until every
edge is covered exactly once. This module holds the scheduler alone: what a
schedule costs across module boundaries is counted in ``estimator``, the
one module that places a node in a module.

The graph comes in the form ``stabilizer.graph_form`` returns it: each edge
once as a pair (u, v) with u < v, the pairs in sorted order. The scheduler
checks that form and does not rebuild it, so its neighbor lists, appended
along the edges, are sorted as they are built; an edge list in any other
form raises ValueError.

Centers rise through the sweep and every interval holds its center, so a
star fits only past ``reach``, the high end of the sub-step's last accepted
interval, and every node used in the sub-step lies at or below it. The sweep
accepts center c exactly when min(c, lowest uncovered neighbor of c not yet
used this sub-step) > reach, and c then takes its lowest ``fan_out``
uncovered neighbors above reach. A center that fails this test fails it for
the rest of the sub-step, so each next star is the lowest center that
passes, found without visiting the others:

- (a) centers whose lowest uncovered neighbor lies above reach. A max
  segment tree over centers holds key(c) = min(c, lowest uncovered
  neighbor), -1 once c has no edges; the leftmost c with key(c) > reach is
  one descent, and accepting a star rekeys only its own nodes.
- (b) centers whose neighbors at or below reach were all used this
  sub-step. Such a center's lowest uncovered neighbor is a used node, so a
  per-sub-step heap collects centers v from each newly used node u: v is
  pushed when it is an uncovered neighbor of u above reach, u is v's lowest
  uncovered neighbor, and v keeps an uncovered neighbor above reach (one
  without can never pass, as reach only grows and edges only go). Heap
  entries below the type (a) candidate are tested in order and dropped
  when they fail.

Single-star runs. A sub-step's first star is at the lowest node with an
edge and takes that node's lowest ``fan_out`` neighbors. Once a sub-step
holds that one star alone, every following sub-step is one star at the same
center, taking its next ``fan_out`` neighbors in order, until the center has
no edge left. The scheduler emits such a run in one loop, with no descent,
neighbor scan, ``used`` set or heap. Proof: a sub-step ends with reach r
when no center passes, that is when every key is at or below r and every
node above r is dead (no neighbor above r) or blocked (an unused neighbor
at or below r). Take a sub-step that ends so with one star. The next star's
leaves all lie above r, and it covers only the center's edges. A leaf's key
stays at or below the leaf, hence at or below the new reach, and every
other key is unchanged. A dead node stays dead. A blocker was unused, so it
is not the center, and it lies at or below r, so it is not a leaf: it
stays unused and stays a neighbor. So no second star fits, and by
induction the run goes on until the center has no edge left. The center
stays the lowest node with an edge, so it is every leaf's lowest neighbor,
and covering an edge drops the head of the leaf's neighbor list.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from heapq import heappop, heappush
from operator import lt
from typing import NamedTuple, Sequence


class PrepTuple(NamedTuple):
    """One star MPPO: center plus the neighbors it entangles this sub-step,
    at least one and in ascending order. ``schedule_preparation`` builds
    each in C (``tuple.__new__``), past the Python-level ``__new__``."""

    center: int
    leaves: tuple[int, ...]


_new = tuple.__new__  # builds a PrepTuple in C, past its Python __new__


@dataclass(frozen=True)
class PrepSchedule:
    """Ordered sub-steps of node-disjoint, interval-disjoint star MPPOs."""

    sub_steps: tuple[tuple[PrepTuple, ...], ...]

    @property
    def n_sub_steps(self) -> int:
        return len(self.sub_steps)


def schedule_preparation(
    n_nodes: int,
    edges: Sequence[tuple[int, int]],
    fan_out: int,
) -> PrepSchedule:
    """Greedy star packing; see module docstring for the conflict model and
    the search that finds each sub-step's next star.

    ``edges`` is the form ``graph_form`` returns: each edge once as (u, v)
    with 0 <= u < v < ``n_nodes``, the pairs strictly increasing. The input
    is checked, not normalized: any other list raises ValueError, as do an
    ``n_nodes`` that is not an int >= 0 and a ``fan_out`` that is not an
    int >= 1."""
    if not isinstance(n_nodes, int) or n_nodes < 0:
        raise ValueError(f"n_nodes must be an int >= 0, got {n_nodes!r}")
    if not isinstance(fan_out, int) or fan_out < 1:
        raise ValueError(f"fan_out must be an int >= 1, got {fan_out!r}")
    if edges and not (edges[0][0] >= 0
                      and all(map(lt, edges, edges[1:]))):
        raise ValueError("edges must be distinct (u, v) pairs in sorted "
                         "order, nodes from 0")
    # Uncovered neighbours per node; both entries go when an edge is
    # covered. Appending along the sorted edges leaves each list sorted: a
    # node's lower neighbours arrive, in order, before its higher ones.
    unc: list[list[int]] = [[] for _ in range(n_nodes)]
    try:
        for u, v in edges:
            if u >= v:
                raise ValueError("each edge must be a pair (u, v), u < v")
            unc[u].append(v)
            unc[v].append(u)
    except IndexError:
        raise ValueError(f"edges must join nodes below n_nodes={n_nodes}") \
            from None

    # Max-segment tree over key(c) = min(c, unc[c][0]), -1 without edges;
    # node i covers children 2i and 2i + 1, leaf c sits at size + c. Maxima
    # are taken inline: a builtin max() call per level costs more.
    size = 1
    while size < n_nodes:
        size *= 2
    tree = [-1] * (2 * size)
    for c, nbrs in enumerate(unc):
        if nbrs:
            tree[size + c] = c if c < nbrs[0] else nbrs[0]
    for i in range(size - 1, 0, -1):
        left, right = tree[2 * i], tree[2 * i + 1]
        tree[i] = left if left > right else right

    sub_steps: list[tuple[PrepTuple, ...]] = []
    while tree[1] >= 0:
        used: set[int] = set()
        waiting: list[int] = []  # type (b) candidates, a min-heap
        reach = -1
        step: list[PrepTuple] = []
        while True:
            # Type (a): the leftmost center with every neighbor past reach.
            c = -1
            if tree[1] > reach:
                i = 1
                while i < size:
                    i = 2 * i if tree[2 * i] > reach else 2 * i + 1
                c = i - size
            # Type (b): a lower center whose neighbors at or below reach are
            # all used; one that fails now fails for the rest of the step.
            while waiting and (c < 0 or waiting[0] < c):
                b = heappop(waiting)
                nbrs = unc[b]
                # b passes if it lies past reach, keeps a neighbor past it
                # and has only used ones below; the bisect comes last.
                if (b > reach and nbrs and nbrs[-1] > reach
                        and used.issuperset(nbrs[:bisect_right(nbrs, reach)])):
                    c = b
                    break
            if c < 0:
                break
            nbrs = unc[c]
            low = bisect_right(nbrs, reach)
            take = nbrs[low:low + fan_out]
            del nbrs[low:low + fan_out]
            for v in take:
                del unc[v][bisect_left(unc[v], c)]
            step.append(_new(PrepTuple, (c, tuple(take))))
            reach = take[-1]
            if c > reach:
                reach = c
            take.append(c)  # now the star's nodes
            used.update(take)
            for u in take:
                # Rekey u, then refresh its ancestors until one is unchanged.
                nbrs = unc[u]
                key = (u if u < nbrs[0] else nbrs[0]) if nbrs else -1
                i = size + u
                while i and tree[i] != key:
                    tree[i] = key
                    i >>= 1
                    left, right = tree[2 * i], tree[2 * i + 1]
                    key = left if left > right else right
                # A center whose lowest neighbor is unused cannot pass
                # this sub-step, nor can one with no neighbor above reach
                # (reach only grows and edges only go), so u queues only
                # the centers above reach whose lowest neighbor it is and
                # that keep a neighbor above reach. Every star node lies at
                # or below reach, so one without a neighbor past it queues
                # none and skips the scan.
                if nbrs and nbrs[-1] > reach:
                    for v in nbrs[bisect_right(nbrs, reach):]:
                        nv = unc[v]
                        if nv[0] == u and nv[-1] > reach:
                            heappush(waiting, v)
        assert step, "a fresh sub-step always fits at least one star"
        sub_steps.append(tuple(step))
        if len(step) > 1:
            continue
        # A single-star run (module docstring): each next sub-step is one
        # star at c, the lowest node with an edge, so c is every leaf's
        # lowest neighbor, and c keeps key c until its last edge goes.
        c = step[0].center
        nbrs = unc[c]
        while nbrs:
            take = nbrs[:fan_out]
            del nbrs[:fan_out]
            sub_steps.append((_new(PrepTuple, (c, tuple(take))),))
            for v in take:
                del unc[v][0]
            if not nbrs:
                take.append(c)
            for u in take:
                nu = unc[u]
                key = (u if u < nu[0] else nu[0]) if nu else -1
                i = size + u
                while i and tree[i] != key:
                    tree[i] = key
                    i >>= 1
                    left, right = tree[2 * i], tree[2 * i + 1]
                    key = left if left > right else right
    return PrepSchedule(tuple(sub_steps))
