"""Cryogenic heat loads, decoding power, and end-to-end energy.

Every physical qubit drags a bundle of signal lines down the fridge: an XY
drive, a qubit flux bias, a share of two coupler biases, and a tenth of a
multiplexed readout chain with its HEMT amplifier.  Each line class
contributes a static dissipation at the 4 K plate and a (much smaller) load
at the 20 mK mixing chamber; HEMT dissipation and static loads dominate, so
flat per-line figures per stage are sufficient.  The shipped defaults are
calibrated so that a million-qubit module dissipates exactly 420 W at 4 K
and 84 nW at 20 mK.

Energy combines three consumers over the total algorithm wall time: decoding
cores at a fixed TDP, the 4 K stage scaled by its cooling efficiency, and
the 20 mK stage scaled by its (far worse) efficiency.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "LineClass",
    "ThermalConfig",
    "DEFAULT_LINES",
    "DEFAULT_THERMAL",
    "module_dissipation",
    "total_energy",
]


@dataclass(frozen=True)
class LineClass:
    """One signal-line class: multiplicity per physical qubit and static
    per-line dissipation at each temperature stage (watts)."""

    name: str
    per_qubit: float
    load_4k: float
    load_20mk: float

    def __post_init__(self) -> None:
        if self.per_qubit < 0 or self.load_4k < 0 or self.load_20mk < 0:
            raise ValueError(f"line class {self.name!r} has a negative entry")


# 4.2 lines per qubit in total; flat 100 uW/line at 4 K and 20 fW/line at
# 20 mK make a 1e6-qubit module come out at 420 W / 84 nW.
DEFAULT_LINES: tuple[LineClass, ...] = (
    LineClass("xy_control", 1.0, 1.0e-4, 2.0e-14),
    LineClass("flux_bias", 1.0, 1.0e-4, 2.0e-14),
    LineClass("coupler_bias", 2.0, 1.0e-4, 2.0e-14),
    LineClass("readout", 0.1, 1.0e-4, 2.0e-14),
    LineClass("hemt", 0.1, 1.0e-4, 2.0e-14),
)


@dataclass(frozen=True)
class ThermalConfig:
    """Per-line loads plus stage cooling efficiencies and decoder TDP."""

    lines: tuple[LineClass, ...] = DEFAULT_LINES
    eta_4k: float = 500.0
    eta_20mk: float = 1.0e9
    p_decoding_core: float = 100.0

    def __post_init__(self) -> None:
        if self.eta_4k <= 1 or self.eta_20mk <= 1:
            raise ValueError("cooling efficiency factors must exceed 1")
        if self.p_decoding_core < 0:
            raise ValueError("decoding-core power must be nonnegative")


DEFAULT_THERMAL = ThermalConfig()


def module_dissipation(
    thermal: ThermalConfig, n_phys_per_module: int
) -> tuple[float, float]:
    """(P_4K, P_20mK) in watts for one module of n_phys_per_module qubits.
    The line loads add left to right, not by ``sum()``, whose float
    rounding changed in Python 3.12, so every interpreter gives one value."""
    per_qubit_4k = per_qubit_20mk = 0.0
    for c in thermal.lines:
        per_qubit_4k += c.per_qubit * c.load_4k
        per_qubit_20mk += c.per_qubit * c.load_20mk
    return (n_phys_per_module * per_qubit_4k,
            n_phys_per_module * per_qubit_20mk)


def total_energy(
    p_4k_total: float,
    p_20mk_total: float,
    cores: int,
    t_ft_total: float,
    thermal: ThermalConfig = DEFAULT_THERMAL,
) -> float:
    """Energy in joules over the full algorithm: decoding cores at fixed TDP
    plus each cryo stage's dissipation amplified by its cooling efficiency."""
    wall_power = (
        thermal.p_decoding_core * cores
        + thermal.eta_4k * p_4k_total
        + thermal.eta_20mk * p_20mk_total
    )
    return wall_power * t_ft_total
