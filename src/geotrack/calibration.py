"""Post-hoc affine recalibration of detection covariances.

A detection's covariance is rescaled as cov' = a * cov + b * I; the (a, b)
pair is selected per view by exhaustive grid search minimizing mean NLL on
validation pairs. The grid always contains the identity point (1, 0), so a
fitted calibration can never be worse than no calibration on the data it was
fit to. The pairs are arrays (core.Pairs): detection means and covariances
with their truth positions, one row each, as the readers load them. The fit
scores, for each a, blocks of b rows over all pairs at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import LOG_TWO_PI, Pairs

# Pair-cells per block of the grid fit: the b rows of one a evaluated at once.
BLOCK_CELLS = 1 << 14


@dataclass(frozen=True)
class CalibrationParams:
    """Affine covariance transform: multiplier a (unitless), floor b (cm^2)."""

    a: float
    b: float

    def __post_init__(self):
        if not 0.0 < self.a < math.inf:
            raise ValueError(f"calibration multiplier a must be positive and finite, got {self.a}")
        if not 0.0 <= self.b < math.inf:
            raise ValueError(f"calibration floor b must be non-negative and finite, got {self.b}")
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", float(self.b))


IDENTITY = CalibrationParams(1.0, 0.0)


@dataclass(frozen=True)
class CalibrationGrid:
    """Search grid over (a, b); must contain the identity point (1, 0)."""

    a_values: tuple[float, ...]
    b_values: tuple[float, ...]

    def __post_init__(self):
        a = tuple(float(v) for v in self.a_values)
        b = tuple(float(v) for v in self.b_values)
        if not a or not b:
            raise ValueError("grid axes must be non-empty")
        if not all(map(math.isfinite, a + b)):
            raise ValueError("grid values must be finite")
        if any(v <= 0.0 for v in a):
            raise ValueError("all a values must be positive")
        if any(v < 0.0 for v in b):
            raise ValueError("all b values must be non-negative")
        if list(a) != sorted(set(a)) or list(b) != sorted(set(b)):
            raise ValueError("grid axes must be strictly ascending")
        if 1.0 not in a or 0.0 not in b:
            raise ValueError("grid must contain the identity point a=1, b=0")
        object.__setattr__(self, "a_values", a)
        object.__setattr__(self, "b_values", b)


def log_spaced_axis(lo: float, hi: float, count: int) -> tuple[float, ...]:
    vals = set(float(v) for v in np.geomspace(lo, hi, count))
    if lo <= 1.0 <= hi:
        vals.add(1.0)
    return tuple(sorted(vals))


def linear_axis(lo: float, hi: float, count: int) -> tuple[float, ...]:
    vals = set(float(v) for v in np.linspace(lo, hi, count))
    if lo <= 0.0 <= hi:
        vals.add(0.0)
    return tuple(sorted(vals))


def default_grid() -> CalibrationGrid:
    """60 log-spaced multipliers over [0.05, 10] plus 1.0 exactly, and 51
    linear floors over [0, 500]."""
    return CalibrationGrid(log_spaced_axis(0.05, 10.0, 60), linear_axis(0.0, 500.0, 51))


def obs_transform(
    calib: dict[str, CalibrationParams], views: Sequence[str], cov: np.ndarray
) -> np.ndarray:
    """The affine calibration a * cov + b * I over an array of detections.

    cov has shape (..., V, 2, 2); column i holds detections of views[i].
    Views without an entry in calib pass through unchanged. The tangents
    are sparse (a calibrated view's dR/da = cov, dR/db = I, zero
    otherwise), and kalman._fuse forms them from the raw covariances.
    """
    params = [calib.get(v, IDENTITY) for v in views]
    a = np.array([p.a for p in params])[:, None, None]
    b = np.array([p.b for p in params])[:, None, None]
    return a * cov + b * np.eye(2)


def fit(grid: CalibrationGrid, pairs: Pairs) -> tuple[CalibrationParams, float]:
    """Select the grid cell minimizing mean NLL over (detection, truth) pairs.

    Ties break toward the smallest a, then the smallest b, so the result is
    deterministic. Returns the winning parameters and their mean NLL.
    """
    if len(pairs) == 0:
        raise ValueError("cannot fit calibration on zero pairs")
    sxx, sxy, syy = pairs.cov[:, 0, 0], pairs.cov[:, 0, 1], pairs.cov[:, 1, 1]
    rx, ry = (pairs.truth - pairs.mean).T
    rx2, ry2, rxy = rx * rx, ry * ry, rx * ry

    n = len(pairs)
    b_values = np.array(grid.b_values)
    rows = max(1, BLOCK_CELLS // n)
    best: tuple[float, float, float] | None = None
    for a in grid.a_values:
        axx, axy, ayy = a * sxx, a * sxy, a * syy
        cross = 2.0 * rxy * axy
        for lo in range(0, len(b_values), rows):
            b = b_values[lo : lo + rows, None]
            pxx = axx + b
            pyy = ayy + b
            det = pxx * pyy - axy * axy
            quad = (rx2 * pyy - cross + ry2 * pxx) / det
            # np.mean of a cell's row is this row sum over n, to the bit.
            log_det = np.add.reduce(np.log(det), axis=1) / n
            mean_nll = LOG_TWO_PI + 0.5 * log_det + 0.5 * (np.add.reduce(quad, axis=1) / n)
            for b_cell, value in zip(b[:, 0].tolist(), mean_nll.tolist()):
                if best is None or value < best[0]:
                    best = (value, a, b_cell)
    assert best is not None
    return CalibrationParams(best[1], best[2]), best[0]


@dataclass
class PerViewCalibration:
    """fit_per_view output: fitted params and NLLs keyed by view, plus
    per-view error messages for views that could not be fit."""

    params: dict[str, CalibrationParams]
    best_nll: dict[str, float]
    errors: dict[str, str]


def fit_per_view(
    grid: CalibrationGrid,
    pairs_by_view: dict[str, Pairs],
) -> PerViewCalibration:
    """Fit each view independently; a failing view does not stop the others."""
    out = PerViewCalibration({}, {}, {})
    for view in sorted(pairs_by_view):
        try:
            params, best = fit(grid, pairs_by_view[view])
        except ValueError as exc:
            out.errors[view] = str(exc)
            continue
        out.params[view] = params
        out.best_nll[view] = best
    return out
