"""Run configuration: dataclass of defaults, YAML loading, validation.

The YAML file is organized in sections (physical, scaling, timing, synthesis,
architecture, thermal, factories); every key is optional and absent keys keep
their defaults.  Unknown sections or keys warn rather than fail, so configs
written for newer versions degrade gracefully; values that violate an
invariant (e.g. a physical error rate at or above threshold) are hard errors.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

from .architecture import DEFAULT_FACTORIES, DEFAULT_FACTORIES_P, TFactory
from .scalefit import SCALING_PRESETS
from .thermal import DEFAULT_THERMAL, LineClass, ThermalConfig

__all__ = ["ArchConfig", "ConfigError", "load_config", "config_from_mapping"]


class ConfigError(ValueError):
    """Raised when a configuration value violates an invariant."""


@dataclass(frozen=True)
class ArchConfig:
    """All architectural knobs for one estimation run."""

    # physical
    p: float = 1e-3                  # physical error rate per operation
    t: float = 25e-9                 # characteristic intra-module gate time (s)
    n_phys_per_module: int = 1_000_000
    # scaling law
    kappa: float = 0.009
    p_thresh: float = 0.016
    # timing
    t_inter: float = 1e-6            # inter-module operation time (s)
    t_decoder: float = 1e-6          # decoder cycle time (s)
    n_algo_reps: int = 1
    # gate synthesis
    c0: float = 0.57
    c1: float = 8.83
    epsilon: float | None = None     # fixed precision override (None = solve)
    # architecture
    p_algo_fail: float = 0.05        # total algorithm failure budget
    n_inter_pipes: int = 1
    qubit_pitch: float = 1e-3        # physical qubit pitch (m)
    couplers_per_qubit: float = 2.0
    fan_out: int = 4                 # preparation MPPO fan-out cap
    # max_active_qubits and slice_moments are read by nothing and cannot be
    # set; they stay, in this order around max_gates, only so that
    # repr(config), whose sha256 every report prints as its config_hash,
    # stays as the benchmark pins it.
    max_active_qubits: int = field(default=64, init=False)
    max_gates: int = 4096            # widgetization split budget
    slice_moments: int = field(default=16, init=False)
    # thermal model
    thermal: ThermalConfig = field(default_factory=lambda: DEFAULT_THERMAL)
    # distillation units, scanned in listed order
    factories: tuple[TFactory, ...] = DEFAULT_FACTORIES

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        problems: list[str] = []
        if not 0 < self.p < self.p_thresh:
            problems.append(
                f"physical.p: need 0 < p < p_thresh, got p={self.p}, "
                f"p_thresh={self.p_thresh}")
        if not 0 < self.p_thresh < 1:
            problems.append(f"scaling.p_thresh out of (0, 1): {self.p_thresh}")
        if self.kappa <= 0:
            problems.append(f"scaling.kappa must be positive: {self.kappa}")
        if not 0 < self.p_algo_fail < 1:
            problems.append(
                f"architecture.p_algo_fail out of (0, 1): {self.p_algo_fail}")
        for name in ("t", "t_inter", "t_decoder"):
            if getattr(self, name) <= 0:
                problems.append(f"{name} must be positive: {getattr(self, name)}")
        # A synthesis length of at least 1 at epsilon = 1 that never
        # shrinks as epsilon does.
        if not (math.isfinite(self.c0) and self.c0 >= 0):
            problems.append(
                f"synthesis.c0 must be finite and >= 0: {self.c0}")
        if not (math.isfinite(self.c1) and self.c1 > 0):
            problems.append(
                f"synthesis.c1 must be finite and positive: {self.c1}")
        if self.epsilon is not None and not 0 < self.epsilon <= 1:
            problems.append(
                f"synthesis.epsilon out of (0, 1]: {self.epsilon}")
        if self.n_phys_per_module < 1:
            problems.append("physical.n_phys_per_module must be >= 1")
        if self.n_inter_pipes < 1:
            problems.append("architecture.n_inter_pipes must be >= 1")
        if self.n_algo_reps < 1:
            problems.append("timing.n_algo_reps must be >= 1")
        if self.qubit_pitch <= 0:
            problems.append("architecture.qubit_pitch must be positive")
        if self.couplers_per_qubit < 0:
            problems.append("architecture.couplers_per_qubit must be >= 0")
        if self.fan_out < 1:
            problems.append("architecture.fan_out must be >= 1")
        # Any one gate meets a split budget of 1, so such a budget fails
        # every input that has gates.
        if self.max_gates < 2:
            problems.append("architecture.max_gates must be >= 2")
        if not self.factories:
            problems.append("factories: need at least one distillation unit")
        if problems:
            raise ConfigError("; ".join(problems))


# section -> its keys: ArchConfig fields, each read from the YAML key of its
# name, and scaling's preset, which sets kappa and p_thresh
_SECTIONS: dict[str, set[str]] = {
    "physical": {"p", "t", "n_phys_per_module"},
    "scaling": {"kappa", "p_thresh", "preset"},
    "timing": {"t_inter", "t_decoder", "n_algo_reps"},
    "synthesis": {"c0", "c1", "epsilon"},
    "architecture": {"p_algo_fail", "n_inter_pipes", "qubit_pitch",
                     "couplers_per_qubit", "fan_out", "max_gates"},
}

# ArchConfig fields, then the integer keys of a factories row.
_INT_FIELDS = {"n_phys_per_module", "n_algo_reps", "n_inter_pipes", "fan_out",
               "max_gates", "width", "length", "qubits"}


def _number(name: str, value, integer: bool = False):
    """``value`` as a finite float, or as an int for an integer field, from
    a number or a numeric string. Anything else, booleans, ``None``, NaN and
    the infinities included, is a ConfigError naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ConfigError(f"{name}: must be a number, got {value!r}")
    if integer and isinstance(value, int):
        return value
    try:
        number = float(value)
    except (ValueError, OverflowError):
        number = math.nan
    if not math.isfinite(number):
        raise ConfigError(f"{name}: must be a finite number, got {value!r}")
    if not integer:
        return number
    if not number.is_integer():
        raise ConfigError(f"{name}: must be a whole number, got {value!r}")
    return int(number)


def config_from_mapping(data: dict | None, *, source: str = "<config>") -> ArchConfig:
    """Build an ArchConfig from a parsed YAML mapping (None = all defaults)."""
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(f"{source}: top level must be a mapping")

    overrides: dict[str, object] = {}
    for section, content in data.items():
        if section == "factories":
            overrides["factories"] = _parse_factories(content, source)
            continue
        if section == "thermal":
            overrides["thermal"] = _parse_thermal(content, source)
            continue
        known = _SECTIONS.get(section)
        if known is None:
            warnings.warn(f"{source}: unknown config section {section!r} ignored")
            continue
        if content is None:
            continue
        if not isinstance(content, dict):
            raise ConfigError(f"{source}: section {section!r} must be a mapping")
        _warn_unknown(source, section, content, known)
        for key, value in content.items():
            if key not in known:
                continue
            if key == "preset":
                preset = SCALING_PRESETS.get(str(value))
                if preset is None:
                    raise ConfigError(
                        f"{source}: unknown scaling preset {value!r}; "
                        f"choices: {sorted(SCALING_PRESETS)}")
                overrides["kappa"], overrides["p_thresh"] = preset
            elif key == "epsilon" and value is None:
                overrides[key] = None  # solve for it
            else:
                overrides[key] = _number(f"{source}: {section}.{key}",
                                         value, key in _INT_FIELDS)
    try:
        config = ArchConfig(**overrides)
    except ConfigError as exc:
        raise ConfigError(f"{source}: {exc}") from exc
    if "factories" not in overrides and config.p != DEFAULT_FACTORIES_P:
        warnings.warn(
            f"{source}: physical.p is {config.p!r}, but the default factories "
            f"are sized for p = {DEFAULT_FACTORIES_P!r}; give a factories "
            f"section sized for this p")
    return config


def _warn_unknown(source: str, where: str, mapping: dict, known) -> None:
    """Warn about each key of ``mapping`` not in ``known``, in the file's
    order, so the warnings do not depend on the hash seed."""
    for key in mapping:
        if key not in known:
            warnings.warn(f"{source}: unknown key {where}.{key} ignored")


# factories row key -> TFactory field
_FACTORY_FIELDS = {"p_out": "p_out", "width": "l_width", "length": "l_length",
                   "qubits": "q_phys", "cycles": "cycles"}


def _parse_factories(content, source: str) -> tuple[TFactory, ...]:
    if not isinstance(content, list) or not content:
        raise ConfigError(f"{source}: factories must be a nonempty list")
    rows: list[TFactory] = []
    for i, row in enumerate(content):
        if not isinstance(row, dict):
            raise ConfigError(f"{source}: factories[{i}] must be a mapping")
        _warn_unknown(source, f"factories[{i}]", row,
                      {"name", *_FACTORY_FIELDS})
        missing = [key for key in (*_FACTORY_FIELDS, "name") if key not in row]
        if missing:
            raise ConfigError(
                f"{source}: factories[{i}] missing key {missing[0]!r}")
        fields = {field: _number(f"{source}: factories[{i}].{key}",
                                 row[key], key in _INT_FIELDS)
                  for key, field in _FACTORY_FIELDS.items()}
        try:
            rows.append(TFactory(name=str(row["name"]), **fields))
        except ValueError as exc:
            raise ConfigError(f"{source}: factories[{i}]: {exc}") from exc
    return tuple(rows)


_LINE_FIELDS = ("per_qubit", "load_4k", "load_20mk")


def _parse_thermal(content, source: str) -> ThermalConfig:
    if content is None:
        return DEFAULT_THERMAL
    if not isinstance(content, dict):
        raise ConfigError(f"{source}: thermal must be a mapping")
    kwargs = {
        "eta_4k": DEFAULT_THERMAL.eta_4k,
        "eta_20mk": DEFAULT_THERMAL.eta_20mk,
        "p_decoding_core": DEFAULT_THERMAL.p_decoding_core,
    }
    lines = {c.name: c for c in DEFAULT_THERMAL.lines}
    _warn_unknown(source, "thermal", content, {*kwargs, "lines"})
    for key, value in content.items():
        if key in kwargs:
            kwargs[key] = _number(f"{source}: thermal.{key}", value)
        elif key == "lines":
            if not isinstance(value, dict):
                raise ConfigError(f"{source}: thermal.lines must be a mapping")
            for name, entry in value.items():
                base = lines.get(name)
                if base is None:
                    warnings.warn(
                        f"{source}: unknown thermal line class {name!r} ignored")
                    continue
                if not isinstance(entry, dict):
                    raise ConfigError(
                        f"{source}: thermal.lines.{name} must be a mapping")
                _warn_unknown(source, f"thermal.lines.{name}", entry,
                              _LINE_FIELDS)
                loads = {k: _number(f"{source}: thermal.lines.{name}.{k}",
                                    entry.get(k, getattr(base, k)))
                         for k in _LINE_FIELDS}
                try:
                    lines[name] = LineClass(name=name, **loads)
                except ValueError as exc:
                    raise ConfigError(
                        f"{source}: thermal.lines.{name}: {exc}") from exc
    try:
        return ThermalConfig(lines=tuple(lines.values()), **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{source}: thermal: {exc}") from exc


def load_config(path: str | Path | None) -> ArchConfig:
    """Load a YAML config file; None or an empty file yields all defaults."""
    if path is None:
        return ArchConfig()
    import yaml  # only a config file needs it

    text = Path(path).read_text()
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
    return config_from_mapping(data, source=str(path))

