"""Post-hoc affine recalibration of detection covariances.

A detection's covariance is rescaled as cov' = a * cov + b * I; the (a, b)
pair is selected per view by exhaustive grid search minimizing mean NLL on
validation pairs. The grid always contains the identity point (1, 0), so a
fitted calibration can never be worse than no calibration on the data it was
fit to. The pairs are arrays (core.Pairs): detection means and covariances
with their truth positions, one row each, as the readers load them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import LOG_TWO_PI, Pairs


@dataclass(frozen=True)
class CalibrationParams:
    """Affine covariance transform: multiplier a (unitless), floor b (cm^2)."""

    a: float
    b: float

    def __post_init__(self):
        if not self.a > 0.0:
            raise ValueError("calibration multiplier a must be positive")
        if self.b < 0.0:
            raise ValueError("calibration floor b must be non-negative")
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


def log_spaced_axis(lo: float, hi: float, count: int, anchor: float = 1.0) -> tuple[float, ...]:
    vals = set(float(v) for v in np.geomspace(lo, hi, count))
    if lo <= anchor <= hi:
        vals.add(float(anchor))
    return tuple(sorted(vals))


def linear_axis(lo: float, hi: float, count: int, anchor: float = 0.0) -> tuple[float, ...]:
    vals = set(float(v) for v in np.linspace(lo, hi, count))
    if lo <= anchor <= hi:
        vals.add(float(anchor))
    return tuple(sorted(vals))


def default_grid() -> CalibrationGrid:
    """60 log-spaced multipliers over [0.05, 10] plus 1.0 exactly, and 51
    linear floors over [0, 500]."""
    return CalibrationGrid(log_spaced_axis(0.05, 10.0, 60), linear_axis(0.0, 500.0, 51))


def obs_transform(
    calib: dict[str, CalibrationParams],
    views: Sequence[str],
    cov: np.ndarray,
    tangent_views: Sequence[str] = (),
) -> tuple[np.ndarray, np.ndarray]:
    """The affine calibration a * cov + b * I over an array of detections,
    with its tangents.

    cov has shape (..., V, 2, 2); column i holds detections of views[i].
    Views without an entry in calib pass through unchanged. Returns the
    calibrated covariances and their tangent stack (..., V, K, 2, 2) with
    K = 1 + 2 * len(tangent_views): channel 0 (sigma_accel) is zero, and
    view i of tangent_views, when calibrated, gets dR/da = cov on channel
    1 + 2i and dR/db = I on channel 2 + 2i. Every other view's tangent is zero.
    """
    params = [calib.get(v, IDENTITY) for v in views]
    a = np.array([p.a for p in params])[:, None, None]
    b = np.array([p.b for p in params])[:, None, None]
    eye = np.eye(2)
    dR = np.zeros(cov.shape[:-2] + (1 + 2 * len(tangent_views), 2, 2))
    for i, view in enumerate(tangent_views):
        if view in calib and view in views:
            col = list(views).index(view)
            dR[..., col, 1 + 2 * i, :, :] = cov[..., col, :, :]
            dR[..., col, 2 + 2 * i, :, :] = eye
    return a * cov + b * eye, dR


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

    best: tuple[float, float, float] | None = None
    for a in grid.a_values:
        axx, axy, ayy = a * sxx, a * sxy, a * syy
        for b in grid.b_values:
            pxx = axx + b
            pyy = ayy + b
            det = pxx * pyy - axy * axy
            quad = (rx2 * pyy - 2.0 * rxy * axy + ry2 * pxx) / det
            mean_nll = LOG_TWO_PI + 0.5 * float(np.mean(np.log(det))) + 0.5 * float(np.mean(quad))
            if best is None or mean_nll < best[0]:
                best = (mean_nll, a, b)
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
