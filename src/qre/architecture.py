"""Module layouts for the bilinear surface-code architecture.

Each module is a square grid of l_edge x l_edge logical patches (one patch =
2d^2 physical qubits). The left portion holds the memory/auxiliary quantum
bus in a comb pattern, the right portion hosts columns of T-factories wrapped
by a T-transfer bus. Machines are ladders of 2 * n_per_leg such modules (two
legs that alternate widget preparation and consumption).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple


class EstimationError(RuntimeError):
    """Raised when no feasible architecture or code distance exists."""


@dataclass(frozen=True)
class TFactory:
    """One magic-state distillation unit: footprint, qubit cost, and cycle
    count; two-level factories ending in a 20-to-4 layer emit four states."""

    name: str
    p_out: float
    l_width: int
    l_length: int
    q_phys: int
    cycles: float

    def __post_init__(self):
        if not 0 < self.p_out < 1:
            raise ValueError(f"factory p_out out of range: {self.p_out}")
        if self.q_phys <= 0 or self.cycles <= 0:
            raise ValueError("factory qubit and cycle counts must be positive")

    def output_multiplier(self) -> int:
        return 4 if "20-to-4" in self.name else 1


# Litinski's protocols (arXiv:1905.06903) with their outputs, footprints and
# cycle counts at the physical error rate DEFAULT_FACTORIES_P: the rows do
# not follow a config's own p.
DEFAULT_FACTORIES_P = 1e-3
DEFAULT_FACTORIES: tuple[TFactory, ...] = (
    TFactory("(15-to-1)_17,7,7", 4.5e-8, 64, 72, 4620, 42.6),
    TFactory("(15-to-1)^6_15,5,5 x (20-to-4)_23,11,13", 1.4e-10, 387, 155,
             43300, 130.0),
    TFactory("(15-to-1)^4_13,5,5 x (20-to-4)_27,13,15", 2.6e-11, 382, 142,
             46800, 157.0),
    TFactory("(15-to-1)^6_11,5,5 x (15-to-1)_25,11,11", 2.7e-12, 279, 117,
             30700, 82.5),
    TFactory("(15-to-1)^6_13,5,5 x (15-to-1)_29,11,13", 3.3e-14, 292, 138,
             39100, 97.5),
    TFactory("(15-to-1)^6_17,7,7 x (15-to-1)_41,17,17", 4.5e-20, 426, 181,
             73400, 128.0),
    TFactory("(15-to-1)^8_23,9,9 x (15-to-1)_49,19,21", 9.0e-23, 696, 234,
             133842, 157.5),
)


def factory_tiles(length: int, d: int) -> int:
    """ceil(length / (sqrt(2) * d)) in logical-patch units, computed exactly.

    A rotated patch occupies sqrt(2)*d physical lattice units per side, so
    the smallest tile count k satisfies 2*(k*d)^2 >= length^2.
    """
    target = -(-length * length // (2 * d * d))
    k = math.isqrt(target)
    return k if k * k >= target else k + 1


class ModuleLayout(NamedTuple):
    """All per-module layout integers for one (d, factory, n_per_leg) choice.
    A named tuple, like the package's other records built in a hot loop."""

    d: int
    n_per_leg: int
    factory: TFactory
    l_edge: int
    memory_per_module: int
    l_qbus: int
    n_row_qbus: int
    n_col_t_factories: int
    n_t_factories: int
    l_transfer_bus: int
    n_prime: int
    n_unalloc_logical: int

    @property
    def n_modules(self) -> int:
        return 2 * self.n_per_leg

    @property
    def factory_tiles_each(self) -> int:
        return (factory_tiles(self.factory.l_length, self.d)
                * factory_tiles(self.factory.l_width, self.d))

    @property
    def n_alloc_logical(self) -> int:
        return (2 * self.memory_per_module + self.l_transfer_bus
                + self.n_t_factories * self.factory_tiles_each)

    @property
    def n_prime_effective(self) -> int:
        """Concurrent T-state feed, quadrupled for 20-to-4 output layers and
        clamped to 1 so sequential counts stay defined for tiny memories."""
        return max(1, self.n_prime) * self.factory.output_multiplier()


def compute_layout(
    n_phys_per_module: int,
    n_logical: int,
    d: int,
    factory: TFactory,
    n_per_leg: int,
) -> ModuleLayout | None:
    """Evaluate the layout equations; None when the pieces cannot coexist."""
    if d < 3 or d % 2 == 0:
        raise ValueError(f"code distance must be odd and >= 3, got {d}")
    if n_logical < 1 or n_per_leg < 1:
        raise ValueError("n_logical and n_per_leg must be >= 1")

    l_edge = math.isqrt(int(n_phys_per_module) // (2 * d * d))
    if l_edge < 3:
        return None
    memory = -(-n_logical // n_per_leg)
    comb_teeth = 2 * ((l_edge - 2) // 4) + 1
    l_qbus = max(-(-memory // comb_teeth), 3)

    len_tiles = factory_tiles(factory.l_length, d)
    wid_tiles = factory_tiles(factory.l_width, d)
    n_col = (l_edge - l_qbus - 1) // (len_tiles + 1)
    if n_col < 1:
        return None
    n_fact = ((l_edge - 1) // wid_tiles) * n_col
    if n_fact < 1:
        return None

    l_transfer = (l_edge - l_qbus - n_col * len_tiles) * l_edge + n_col * len_tiles
    n_row_qbus = (memory + 1) // l_qbus
    n_unalloc = (l_edge * l_edge - 2 * memory - l_transfer
                 - n_fact * len_tiles * wid_tiles)
    if n_unalloc < 0:
        return None

    # Positional, in field order: the distance scan builds one per
    # candidate distance, and keywords would double the cost.
    return ModuleLayout(d, n_per_leg, factory, l_edge, memory, l_qbus,
                        n_row_qbus, n_col, n_fact, l_transfer,
                        min(n_fact, n_row_qbus), n_unalloc)


def choose_modules_per_leg(
    n_phys_per_module: int,
    n_logical: int,
    d: int,
    factory: TFactory,
) -> ModuleLayout | None:
    """Smallest n_per_leg whose layout is feasible (splitting the memory
    across more modules shrinks the per-module bus until everything fits),
    or None when no n_per_leg is.

    Feasibility depends on n_per_leg only through the memory per module, and
    a memory of 1 is the easiest case: l_qbus sits at its floor of 3, so the
    factory columns and count are at their maximum, and n_unalloc >=
    3 * l_edge - 2 > 0.  So once n_per_leg = 1 fails, the one-qubit-memory
    layout tells at once whether any n_per_leg fits; if it does, the scan
    ends by n_per_leg = n_logical."""
    layout = compute_layout(n_phys_per_module, n_logical, d, factory, 1)
    if layout is None and compute_layout(n_phys_per_module, 1, d, factory,
                                         1) is None:
        return None
    n_per_leg = 1
    while layout is None:
        n_per_leg += 1
        layout = compute_layout(n_phys_per_module, n_logical, d, factory,
                                n_per_leg)
    return layout


def interconnect_count(n_per_leg: int, n_inter_pipes: int) -> int:
    """Total pipe bundles in the ladder: each leg pair plus the two rails."""
    return n_inter_pipes * (3 * n_per_leg - 2)
