"""Fit the two-coefficient error-scaling law from observed logical error rates.

The model is p_C = kappa * (p / p_thresh)^((d+1)/2).  Taking logs makes both
coefficients linear: with m = (d+1)/2,

    ln p_C = u - m*v + m*ln p,      u = ln kappa,  v = ln p_thresh,

so a weighted linear least-squares solve over (u, v) recovers the law from
(p, d, LER) samples.  Identifying u and v separately requires at least two
distinct code distances; otherwise only the combination u - m*v is
constrained and the system is singular.

Samples must be per-cycle logical error rates.  Data reported per shot over
r rounds converts via p_cycle = 1 - (1 - p_shot)^(1/r) (`per_cycle_error`).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

__all__ = [
    "FitError",
    "ScalingSample",
    "ScalingFit",
    "SCALING_PRESETS",
    "fit_scaling_law",
    "per_cycle_error",
    "read_samples_csv",
]


class FitError(ValueError):
    """Raised when the sample set cannot determine both coefficients."""


# (kappa, p_thresh) pairs for common decoder/noise combinations.
SCALING_PRESETS: dict[str, tuple[float, float]] = {
    "mwpm-circuit": (0.009, 0.016),
    "mwpm-code-capacity": (0.52, 0.14),
    "astra-gnn": (0.56, 0.17),
}


@dataclass(frozen=True)
class ScalingSample:
    """One observation: physical rate, code distance, per-cycle LER."""

    p: float
    d: int
    p_c_obs: float
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not 0 < self.p < 1:
            raise ValueError(f"physical error rate out of range: {self.p}")
        if not 0 < self.p_c_obs < 1:
            raise ValueError(f"observed LER out of range: {self.p_c_obs}")
        if self.d < 1 or self.d % 2 == 0:
            raise ValueError(f"code distance must be odd and >= 1: {self.d}")
        if not (math.isfinite(self.weight) and self.weight > 0):
            raise ValueError(
                f"weight must be finite and positive: {self.weight}")


@dataclass(frozen=True)
class ScalingFit:
    kappa: float
    p_thresh: float
    residual: float


def fit_scaling_law(samples: Sequence[ScalingSample]) -> ScalingFit:
    """Weighted log-space least squares for (kappa, p_thresh).

    residual is the weighted RMS misfit of ln p_C.
    """
    if len(samples) < 2:
        raise FitError("need at least two samples")
    if len({s.d for s in samples}) < 2:
        raise FitError("need samples at two or more distinct code distances")

    import numpy as np  # only this fit needs it; an estimate does not

    m = np.array([(s.d + 1) / 2.0 for s in samples])
    y = np.array([math.log(s.p_c_obs) - mi * math.log(s.p)
                  for s, mi in zip(samples, m)])
    design = np.column_stack([np.ones(len(samples)), -m])
    w = np.sqrt(np.array([s.weight for s in samples]))
    aw = design * w[:, None]
    yw = y * w
    if np.linalg.matrix_rank(aw) < 2:
        raise FitError("singular fit: code distances do not separate "
                       "kappa from p_thresh")
    coeffs, *_ = np.linalg.lstsq(aw, yw, rcond=None)
    u, v = coeffs
    misfit = design @ coeffs - y
    residual = float(np.sqrt(np.sum(w**2 * misfit**2) / np.sum(w**2)))
    return ScalingFit(kappa=math.exp(u), p_thresh=math.exp(v),
                      residual=residual)


def per_cycle_error(p_shot: float, rounds: int) -> float:
    """Per-cycle LER from a per-shot LER measured over `rounds` cycles."""
    if not 0 <= p_shot < 1:
        raise ValueError(f"per-shot error rate out of range: {p_shot}")
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    if rounds == 1:
        return float(p_shot)
    # 1 - (1 - p_shot)^(1/rounds), kept stable for tiny rates
    return -math.expm1(math.log1p(-p_shot) / rounds)


def read_samples_csv(path: str | Path) -> list[ScalingSample]:
    """Load `p,d,ler[,weight]` rows; a header line is detected and skipped."""
    rows: list[ScalingSample] = []
    with open(path, newline="") as fh:
        for i, row in enumerate(csv.reader(fh)):
            if not row or not row[0].strip():
                continue
            if i == 0 and not _is_number(row[0]):
                continue  # header
            if len(row) not in (3, 4):
                raise FitError(f"{path}: row {i + 1}: expected p,d,ler[,weight]")
            try:
                weight = float(row[3]) if len(row) == 4 else 1.0
                rows.append(ScalingSample(float(row[0]), int(row[1]),
                                          float(row[2]), weight))
            except ValueError as exc:
                raise FitError(f"{path}: row {i + 1}: {exc}") from exc
    return rows


def _is_number(text: str) -> bool:
    try:
        float(text)
        return True
    except ValueError:
        return False
