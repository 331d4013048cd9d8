"""Run configuration: dataclass of defaults, YAML loading, validation.

The YAML file is organized in sections (physical, scaling, timing, synthesis,
architecture, thermal, factories); every key is optional and absent keys keep
their defaults.  Unknown sections or keys warn rather than fail, so configs
written for newer versions degrade gracefully; values that violate an
invariant (e.g. a physical error rate at or above threshold) are hard errors.

Every mapping of the file (each section, each factories row, thermal and
each of its line classes) goes through one reader, ``_read``: the mapping
check, the unknown-key warnings and the reading of each value by the one
number rule, ``_number``, all in the file's order. One step, ``_build``,
constructs what a mapping describes and names the mapping in its error.
Every message names the file and, for a value, its ``section.key``. A
sweep reads each of its values by the same rules (``read_field``,
``scaling_preset``), so it gets the same messages, without a file name.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields, replace
from functools import partial
from pathlib import Path

from .architecture import DEFAULT_FACTORIES, DEFAULT_FACTORIES_P, TFactory
from .thermal import DEFAULT_THERMAL, LineClass, ThermalConfig

__all__ = ["ArchConfig", "ConfigError", "SCALING_PRESETS", "load_config",
           "config_from_mapping", "read_field", "scaling_preset"]

# (kappa, p_thresh) pairs for common decoder/noise combinations, read
# through scaling_preset.
SCALING_PRESETS: dict[str, tuple[float, float]] = {
    "mwpm-circuit": (0.009, 0.016),
    "mwpm-code-capacity": (0.52, 0.14),
    "astra-gnn": (0.56, 0.17),
}


class ConfigError(ValueError):
    """Raised when a configuration value violates an invariant."""


@dataclass(frozen=True)
class ArchConfig:
    """All architectural knobs for one estimation run. Its hash, which keys
    the selections and timings of a compiled algorithm, is computed once
    per instance: the config is frozen, and ``replace`` makes a new one."""

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

    def __hash__(self) -> int:
        # The hash of the fields, as a frozen dataclass's own __hash__ takes
        # it, kept in the instance's __dict__ after the first call.
        value = self.__dict__.get("_hash")
        if value is None:
            value = self.__dict__["_hash"] = hash(
                tuple([getattr(self, f.name) for f in fields(self)]))
        return value

    def validate(self) -> None:
        # Each message names the YAML key of its field (_KEY).
        problems: list[str] = []
        if not 0 < self.p < self.p_thresh:
            problems.append(
                f"{_KEY['p']}: need 0 < p < p_thresh, got p={self.p}, "
                f"p_thresh={self.p_thresh}")
        if not 0 < self.p_thresh < 1:
            problems.append(
                f"{_KEY['p_thresh']} out of (0, 1): {self.p_thresh}")
        if self.kappa <= 0:
            problems.append(f"{_KEY['kappa']} must be positive: {self.kappa}")
        if not 0 < self.p_algo_fail < 1:
            problems.append(
                f"{_KEY['p_algo_fail']} out of (0, 1): {self.p_algo_fail}")
        for name in ("t", "t_inter", "t_decoder"):
            if getattr(self, name) <= 0:
                problems.append(
                    f"{_KEY[name]} must be positive: {getattr(self, name)}")
        # A synthesis length of at least 1 at epsilon = 1 that never
        # shrinks as epsilon does.
        if not (math.isfinite(self.c0) and self.c0 >= 0):
            problems.append(f"{_KEY['c0']} must be finite and >= 0: {self.c0}")
        if not (math.isfinite(self.c1) and self.c1 > 0):
            problems.append(
                f"{_KEY['c1']} must be finite and positive: {self.c1}")
        if self.epsilon is not None and not 0 < self.epsilon <= 1:
            problems.append(f"{_KEY['epsilon']} out of (0, 1]: {self.epsilon}")
        if self.qubit_pitch <= 0:
            problems.append(f"{_KEY['qubit_pitch']} must be positive")
        if self.couplers_per_qubit < 0:
            problems.append(f"{_KEY['couplers_per_qubit']} must be >= 0")
        problems += filter(None, [_below_least(name, getattr(self, name))
                                  for name in _LEAST])
        if not self.factories:
            problems.append("factories: need at least one distillation unit")
        if problems:
            raise ConfigError("; ".join(problems))


# section -> its YAML keys, each the field of its name: ArchConfig's fields,
# scaling's preset, which sets kappa and p_thresh, and thermal's fields
_SECTIONS: dict[str, tuple[str, ...]] = {
    "physical": ("p", "t", "n_phys_per_module"),
    "scaling": ("kappa", "p_thresh", "preset"),
    "timing": ("t_inter", "t_decoder", "n_algo_reps"),
    "synthesis": ("c0", "c1", "epsilon"),
    "architecture": ("p_algo_fail", "n_inter_pipes", "qubit_pitch",
                     "couplers_per_qubit", "fan_out", "max_gates"),
    "thermal": ("eta_4k", "eta_20mk", "p_decoding_core", "lines"),
}
# ArchConfig field -> its YAML key, for the messages of validate
_KEY = {name: f"{section}.{name}"
        for section, names in _SECTIONS.items() for name in names}

# factories row key -> TFactory field; a row gives every one of them
_FACTORY_FIELDS = {"p_out": "p_out", "width": "l_width", "length": "l_length",
                   "qubits": "q_phys", "cycles": "cycles", "name": "name"}

_LINE_FIELDS = ("per_qubit", "load_4k", "load_20mk")

# The integer keys: ArchConfig fields, then those of a factories row.
_INTEGER_KEYS = {"n_phys_per_module", "n_algo_reps", "n_inter_pipes",
                 "fan_out", "max_gates", "width", "length", "qubits"}

# The integer fields' lower bounds, in the order validate reports them.
# Any one gate meets a split budget of 1, so such a budget fails every
# input that has gates.
_LEAST = {"n_phys_per_module": 1, "n_inter_pipes": 1, "n_algo_reps": 1,
          "fan_out": 1, "max_gates": 2}


def _below_least(name: str, value) -> str | None:
    """The message for a ``value`` of the field ``name`` below its bound."""
    if name in _LEAST and value < _LEAST[name]:
        return f"{_KEY[name]} must be >= {_LEAST[name]}: {value}"
    return None


def _number(name: str, value, integer: bool = False):
    """``value`` as a finite float, or as an int for an integer key, from a
    number or a numeric string. Anything else is a ConfigError naming
    ``name``: "not a number" for booleans, ``None`` and strings that are
    not numerals, and "not finite" for NaN, the infinities and integers
    too large for a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ConfigError(f"{name}: must be a number, got {value!r}")
    try:
        number = float(value)
    except ValueError:
        raise ConfigError(f"{name}: must be a number, got {value!r}") from None
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{name}: must be a finite number, got {value!r}")
    if not integer:
        return number
    if isinstance(value, int):
        return value
    if not number.is_integer():
        raise ConfigError(f"{name}: must be a whole number, got {value!r}")
    return int(number)


def read_field(name: str, value):
    """``value`` read as a config file reads the ArchConfig field ``name``:
    by the number rule, as an int for an integer field, and held to the
    field's lower bound as ``ArchConfig.validate`` holds it. A ConfigError
    names the field's ``section.key``."""
    number = _number(_KEY[name], value, name in _INTEGER_KEYS)
    problem = _below_least(name, number)
    if problem is not None:
        raise ConfigError(problem)
    return number


def scaling_preset(name, where: str = _KEY["preset"]) -> tuple[float, float]:
    """The (kappa, p_thresh) of the scaling preset ``name``, read by
    ``scaling.preset`` and by the decoder sweep. An unknown name is a
    ConfigError under ``where``."""
    preset = SCALING_PRESETS.get(str(name))
    if preset is None:
        raise ConfigError(f"{where}: unknown preset {name!r}; "
                          f"choices: {sorted(SCALING_PRESETS)}")
    return preset


def config_from_mapping(data: dict | None, *, source: str = "<config>") -> ArchConfig:
    """Build an ArchConfig from a parsed YAML mapping (None = all defaults)."""
    overrides: dict[str, object] = {}
    for section, content in _mapping(
            source, "top level", {} if data is None else data).items():
        if section == "factories":
            overrides["factories"] = _factories(source, content)
        elif section not in _SECTIONS:
            warnings.warn(
                f"{source}: unknown config section {section!r} ignored")
        elif content is not None:
            values = _read(source, section, content, _SECTIONS[section])
            if section == "thermal":
                values = {"thermal": _build(f"{source}: thermal", partial(
                    replace, DEFAULT_THERMAL), values)}
            overrides.update(values)
    config = _build(source, ArchConfig, overrides)
    if "factories" not in overrides and config.p != DEFAULT_FACTORIES_P:
        warnings.warn(
            f"{source}: physical.p is {config.p!r}, but the default factories "
            f"are sized for p = {DEFAULT_FACTORIES_P!r}; give a factories "
            f"section sized for this p")
    return config


def _mapping(source: str, where: str, content) -> dict:
    if not isinstance(content, dict):
        raise ConfigError(f"{source}: {where} must be a mapping")
    return content


def _read(source: str, where: str, content, keys,
          required: bool = False) -> dict[str, object]:
    """The values that the YAML mapping ``content`` at ``where`` gives its
    ``keys``, by key; a scaling preset gives kappa and p_thresh, and
    thermal lines the line classes. Unknown keys warn, in the file's order
    so that the warnings do not depend on the hash seed; with
    ``required``, a missing key fails before any value is read. The values
    are read in the file's order, so a later key wins and the first bad
    value is the one named."""
    for key in _mapping(source, where, content):
        if key not in keys:
            warnings.warn(f"{source}: unknown key {where}.{key} ignored")
    missing = [key for key in keys if required and key not in content]
    if missing:
        raise ConfigError(f"{source}: {where} missing key {missing[0]!r}")
    values: dict[str, object] = {}
    for key, value in content.items():
        if key not in keys:
            continue
        if key == "preset":
            values["kappa"], values["p_thresh"] = scaling_preset(
                value, f"{source}: {where}.{key}")
        elif key == "epsilon" and value is None:
            values[key] = None  # solve for it
        elif key == "name":
            values[key] = str(value)
        elif key == "lines":
            values[key] = _lines(source, value)
        else:
            values[key] = _number(f"{source}: {where}.{key}", value,
                                  key in _INTEGER_KEYS)
    return values


def _build(where: str, make, values: dict[str, object]):
    """``make(**values)``, its ValueError a ConfigError under ``where``."""
    try:
        return make(**values)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _factories(source: str, content) -> tuple[TFactory, ...]:
    if not isinstance(content, list) or not content:
        raise ConfigError(f"{source}: factories must be a nonempty list")
    rows = []
    for i, row in enumerate(content):
        values = _read(source, f"factories[{i}]", row, _FACTORY_FIELDS, True)
        rows.append(_build(f"{source}: factories[{i}]", TFactory, {
            _FACTORY_FIELDS[key]: value for key, value in values.items()}))
    return tuple(rows)


def _lines(source: str, content) -> tuple[LineClass, ...]:
    """The thermal line classes, each one that ``content`` names read over
    its default."""
    lines = {line.name: line for line in DEFAULT_THERMAL.lines}
    for name, entry in _mapping(source, "thermal.lines", content).items():
        if name not in lines:
            warnings.warn(
                f"{source}: unknown thermal line class {name!r} ignored")
            continue
        where = f"thermal.lines.{name}"
        lines[name] = _build(f"{source}: {where}",
                             partial(replace, lines[name]),
                             _read(source, where, entry, _LINE_FIELDS))
    return tuple(lines.values())


def load_config(path: str | Path | None) -> ArchConfig:
    """Load a YAML config file; None or an empty file yields all defaults."""
    if path is None:
        return ArchConfig()
    import yaml  # only a config file needs it

    text = Path(path).read_text()
    try:
        data = yaml.safe_load(text)
    except (yaml.YAMLError, ValueError) as exc:
        # PyYAML lets through the ValueError of a scalar it cannot build: an
        # integer longer than Python's int-string limit, or a bad date.
        raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
    return config_from_mapping(data, source=str(path))

