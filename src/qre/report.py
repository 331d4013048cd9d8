"""The 49-parameter resource report: assembly, formatting, CSV round-trip.

Every estimation run produces the same 49 rows (id, name, value, unit) in id
order, covering the code/layout choice (1-14), algorithm-level counts
(15-26), tock constants (27-29), machine totals (30-41), and the timing and
energy bottom line (42-49).  Assembly re-derives each row from first inputs
and refuses to emit a report whose internal identities disagree, so a bug
upstream surfaces as a hard error rather than an inconsistent table.

Formatting follows engineering style: three significant figures with SI
suffixes for magnitudes and s/m/h/d/y for times, trailing zeros stripped
("8.4k", not "8.40k").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

from .architecture import EstimationError, interconnect_count
from .config import ArchConfig
from .estimator import (
    CompiledAlgorithm,
    SelectionResult,
    TimingBreakdown,
    decoding_cores,
)
from .thermal import module_dissipation, total_energy

__all__ = [
    "ReportRow",
    "ResourceReport",
    "assemble_report",
    "format_si",
    "format_time",
    "format_value",
    "render_console",
    "render_csv",
    "parse_csv",
]

N_PARAMETERS = 49

# the only unit strings a report may carry
UNITS = frozenset({
    "", "s", "W", "Wh", "m^2", "logical qubits", "physical qubits",
    "factories", "modules", "interconnects", "gates", "layers", "nodes",
    "steps", "widgets", "cores", "couplers",
})


@dataclass(frozen=True)
class ReportRow:
    """One output parameter; value None renders as n/a (e.g. the synthesis
    precision of a rotation-free algorithm)."""

    id: int
    name: str
    value: int | float | None
    unit: str

    def __post_init__(self) -> None:
        if self.unit not in UNITS:
            raise EstimationError(f"row {self.id}: unknown unit {self.unit!r}")


@dataclass(frozen=True)
class ResourceReport:
    """Exactly 49 rows in ascending id order, plus run provenance."""

    rows: tuple[ReportRow, ...]
    provenance: Mapping[str, str]

    def __post_init__(self) -> None:
        ids = [r.id for r in self.rows]
        if ids != list(range(1, N_PARAMETERS + 1)):
            raise EstimationError(
                f"report must hold parameters 1..{N_PARAMETERS} in order, "
                f"got {len(ids)} rows")

    def __getitem__(self, row_id: int) -> ReportRow:
        return self.rows[row_id - 1]

    def value(self, row_id: int):
        return self.rows[row_id - 1].value


# --------------------------------------------------------------------------
# Assembly
# --------------------------------------------------------------------------

def _check_identity(name: str, lhs, rhs) -> None:
    if lhs != rhs:
        raise EstimationError(
            f"internal identity {name!r} violated: {lhs} != {rhs}")


def assemble_report(
    config: ArchConfig,
    algo: CompiledAlgorithm,
    sel: SelectionResult,
    timing: TimingBreakdown,
    provenance: Mapping[str, str] | None = None,
) -> ResourceReport:
    """Derive all 49 parameters and verify the cross-identities."""
    est = algo.est
    layout = sel.layout
    d = sel.d
    n_per_leg = layout.n_per_leg
    n_modules = layout.n_modules
    memory = layout.memory_per_module
    l_tb = layout.l_transfer_bus
    n_fact = layout.n_t_factories
    tiles = layout.factory_tiles_each
    patch = 2 * d * d

    alloc_phys_per_module = (2 * patch * memory + patch * l_tb
                             + n_fact * sel.factory.q_phys)
    total_phys = n_modules * config.n_phys_per_module
    cores = decoding_cores(config.t_decoder, config.t)
    p_4k_module, p_20mk_module = module_dissipation(
        config.thermal, config.n_phys_per_module)
    p_4k = n_modules * p_4k_module
    p_20mk = n_modules * p_20mk_module
    energy_j = total_energy(p_4k, p_20mk, cores, timing.t_ft_total,
                            config.thermal)

    # Consistency gates: the module grid must tile exactly, the per-module
    # allocation may exceed one leg's share only by the memory-split ceiling
    # slack, and the wall time must be the sum of its printed parts.
    _check_identity(
        "allocated + unallocated logical = modules * grid",
        2 * layout.n_alloc_logical * n_per_leg
        + 2 * layout.n_unalloc_logical * n_per_leg,
        n_modules * layout.l_edge ** 2)
    _check_identity(
        "per-module allocation slack = memory ceiling slack",
        n_per_leg * alloc_phys_per_module
        - (2 * patch * est.n_logical_max
           + n_per_leg * (n_fact * sel.factory.q_phys + patch * l_tb)),
        2 * patch * (n_per_leg * memory - est.n_logical_max))
    _check_identity(
        "wall time = consumption + handover + decode delay",
        timing.t_hardware_total,
        timing.t_consump_total + timing.t_handover_inter_total
        + timing.t_decode_delay_total)

    rows = (
        ReportRow(1, "code_distance", d, ""),
        ReportRow(2, "memory_logical_qubits", est.n_logical_max,
                  "logical qubits"),
        ReportRow(3, "t_factories_per_module", n_fact, "factories"),
        ReportRow(4, "memory_logical_per_module", memory, "logical qubits"),
        ReportRow(5, "memory_physical_per_module", patch * memory,
                  "physical qubits"),
        ReportRow(6, "aux_bus_logical_per_module", memory, "logical qubits"),
        ReportRow(7, "aux_bus_physical_per_module", patch * memory,
                  "physical qubits"),
        ReportRow(8, "transfer_bus_logical_per_module", l_tb,
                  "logical qubits"),
        ReportRow(9, "transfer_bus_physical_per_module", patch * l_tb,
                  "physical qubits"),
        ReportRow(10, "factory_logical_per_module", n_fact * tiles,
                  "logical qubits"),
        ReportRow(11, "factory_physical_per_module",
                  n_fact * sel.factory.q_phys, "physical qubits"),
        ReportRow(12, "total_modules", n_modules, "modules"),
        ReportRow(13, "total_interconnects",
                  interconnect_count(n_per_leg, config.n_inter_pipes),
                  "interconnects"),
        ReportRow(14, "allocated_physical_per_module", alloc_phys_per_module,
                  "physical qubits"),
        ReportRow(15, "algorithm_qubits", est.n_input, "logical qubits"),
        ReportRow(16, "synthesis_precision", sel.epsilon, ""),
        ReportRow(17, "total_t_count", sel.counts.n_tot_t, "gates"),
        ReportRow(18, "effective_t_depth",
                  -(-sel.counts.n_tot_t // est.n_logical_max), "layers"),
        ReportRow(19, "input_rz_count", est.n_Rz_init, "gates"),
        ReportRow(20, "input_t_count", est.n_T_init, "gates"),
        ReportRow(21, "input_clifford_count", est.n_clifford_init, "gates"),
        ReportRow(22, "graph_nodes_total", est.n_nodes_total, "nodes"),
        ReportRow(23, "consumption_steps_total", est.consump_steps_total,
                  "steps"),
        ReportRow(24, "preparation_steps_total", est.l_prep_total, "steps"),
        ReportRow(25, "widget_count", est.n_widgets, "widgets"),
        ReportRow(26, "distinct_widget_count",
                  algo.plan.n_distinct_widgets, "widgets"),
        ReportRow(27, "decoder_tock", d * config.t_decoder, "s"),
        ReportRow(28, "quantum_tock_intra", 8.0 * d * config.t, "s"),
        ReportRow(29, "factory_tock", 8.0 * sel.factory.cycles * config.t,
                  "s"),
        ReportRow(30, "available_physical_total", total_phys,
                  "physical qubits"),
        ReportRow(31, "available_logical_per_module", layout.l_edge ** 2,
                  "logical qubits"),
        ReportRow(32, "unallocated_logical_total",
                  2 * layout.n_unalloc_logical * n_per_leg, "logical qubits"),
        ReportRow(33, "unallocated_physical_total",
                  2 * patch * layout.n_unalloc_logical * n_per_leg,
                  "physical qubits"),
        ReportRow(34, "allocated_logical_total",
                  2 * layout.n_alloc_logical * n_per_leg, "logical qubits"),
        ReportRow(35, "allocated_physical_total",
                  2 * patch * layout.n_alloc_logical * n_per_leg,
                  "physical qubits"),
        ReportRow(36, "decoding_cores", cores, "cores"),
        ReportRow(37, "qpu_area", total_phys * config.qubit_pitch ** 2,
                  "m^2"),
        ReportRow(38, "total_couplers",
                  config.couplers_per_qubit * total_phys, "couplers"),
        ReportRow(39, "decoding_power",
                  config.thermal.p_decoding_core * cores, "W"),
        ReportRow(40, "power_dissipation_4k", p_4k, "W"),
        ReportRow(41, "power_dissipation_20mk", p_20mk, "W"),
        ReportRow(42, "consumption_time_total", timing.t_consump_total, "s"),
        ReportRow(43, "handover_time_total", timing.t_handover_inter_total,
                  "s"),
        ReportRow(44, "distillation_delay_total",
                  timing.t_distill_delay_total, "s"),
        ReportRow(45, "preparation_delay_total", timing.t_prep_delay_total,
                  "s"),
        ReportRow(46, "decoding_delay_total", timing.t_decode_delay_total,
                  "s"),
        ReportRow(47, "hardware_time_per_step", timing.t_hardware_total, "s"),
        ReportRow(48, "total_ft_time", timing.t_ft_total, "s"),
        ReportRow(49, "total_energy", energy_j / 3600.0, "Wh"),
    )
    return ResourceReport(rows=rows, provenance=dict(provenance or {}))


# --------------------------------------------------------------------------
# Engineering formatting
# --------------------------------------------------------------------------

_SI_STEPS = (
    (1e12, "T"), (1e9, "G"), (1e6, "M"), (1e3, "k"), (1.0, ""),
    (1e-3, "m"), (1e-6, "µ"), (1e-9, "n"), (1e-12, "p"), (1e-15, "f"),
)

# A duration moves to the next-larger unit once it reaches 2 of it, so
# "64.4s" and "37.8h" render as printed rather than "1.07m" / "1.57d".
_TIME_STEPS = (  # threshold in seconds, divisor, suffix
    (2 * 365.0 * 86400.0, 365.0 * 86400.0, "y"),
    (2 * 86400.0, 86400.0, "d"),
    (2 * 3600.0, 3600.0, "h"),
    (2 * 60.0, 60.0, "m"),
)


def _three_sig_figs(mantissa: float) -> str:
    """Format a value in [1, 1000) to 3 significant figures, stripping
    trailing zeros ('8.4', not '8.40')."""
    decimals = 2 - int(math.floor(math.log10(abs(mantissa))))
    text = f"{mantissa:.{max(decimals, 0)}f}"
    if "." in text:
        text = text.rstrip("0").rstrip(".")
    return text


def format_si(value: float) -> str:
    """Engineering notation: 3 significant figures with an SI suffix
    (1320000 -> '1.32M', 8400 -> '8.4k', 1.68e-7 -> '168n')."""
    if value is None:
        return "n/a"
    if value == 0:
        return "0"
    sign = "-" if value < 0 else ""
    mag = abs(float(value))
    for scale, suffix in _SI_STEPS:
        if mag >= scale:
            break
    else:
        scale, suffix = _SI_STEPS[-1]
    mantissa = mag / scale
    if round(mantissa, 2 - int(math.floor(math.log10(mantissa)))) >= 1000.0:
        index = [s for s, _ in _SI_STEPS].index(scale)
        if index > 0:
            scale, suffix = _SI_STEPS[index - 1]
            mantissa = mag / scale
    return f"{sign}{_three_sig_figs(mantissa)}{suffix}"


def format_time(seconds: float) -> str:
    """Wall-time formatting: 3 significant figures with s/m/h/d/y units
    (switching at 2 of the next unit) and SI sub-second suffixes
    (4.09 -> '4.09s', 136080 -> '37.8h', 0.0028 -> '2.8ms')."""
    if seconds is None:
        return "n/a"
    if seconds == 0:
        return "0s"
    if seconds < 0:
        raise ValueError(f"negative duration: {seconds}")
    for threshold, divisor, suffix in _TIME_STEPS:
        if seconds >= threshold:
            return f"{_three_sig_figs(seconds / divisor)}{suffix}"
    return f"{format_si(seconds)}s"


def format_value(row: ReportRow) -> str:
    """Console rendering for one row, dispatched on its unit."""
    if row.value is None:
        return "n/a"
    if row.unit == "s":
        return format_time(row.value)
    if row.unit == "" and 0 < abs(row.value) < 1e-3:
        return f"{row.value:.3g}"  # dimensionless precisions
    return format_si(row.value)


# --------------------------------------------------------------------------
# Console table and CSV
# --------------------------------------------------------------------------

def render_console(report: ResourceReport) -> str:
    """Fixed-width table of all 49 rows plus the energy footer in joules."""
    header = f"{'id':>3}  {'parameter':<32} {'value':>12}  unit"
    lines = [header, "-" * len(header)]
    for row in report.rows:
        unit = "" if row.unit == "s" else row.unit  # format_time embeds "s"
        lines.append(f"{row.id:>3}  {row.name:<32} "
                     f"{format_value(row):>12}  {unit}".rstrip())
    energy_wh = report.value(49)
    lines.append("-" * len(header))
    lines.append(f"total energy: {format_si(energy_wh)}Wh "
                 f"({format_si(energy_wh * 3600.0)}J)")
    for key in sorted(report.provenance):
        lines.append(f"# {key}: {report.provenance[key]}")
    return "\n".join(lines)


def emit_value(value) -> str:
    if value is None:
        return "n/a"
    return repr(value)


def _parse_value(text: str):
    if text == "n/a":
        return None
    try:
        return int(text)
    except ValueError:
        return float(text)


def render_csv(report: ResourceReport) -> str:
    """CSV with provenance comments, then param_id,param_name,value,unit
    rows in id order; floats use repr so parsing is bit-exact."""
    lines = [f"# {key}: {report.provenance[key]}"
             for key in sorted(report.provenance)]
    lines.append("param_id,param_name,value,unit")
    for row in report.rows:
        lines.append(f"{row.id},{row.name},{emit_value(row.value)},{row.unit}")
    return "\n".join(lines) + "\n"


def parse_csv(text: str | Iterable[str]) -> ResourceReport:
    """Inverse of render_csv: parse_csv(render_csv(r)) == r."""
    if isinstance(text, str):
        text = text.splitlines()
    provenance: dict[str, str] = {}
    rows: list[ReportRow] = []
    for line in text:
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            key, _, value = line[1:].partition(":")
            provenance[key.strip()] = value.strip()
            continue
        if line.startswith("param_id,"):
            continue
        row_id, name, value, unit = line.split(",", 3)
        rows.append(ReportRow(int(row_id), name, _parse_value(value), unit))
    return ResourceReport(rows=tuple(rows), provenance=provenance)
