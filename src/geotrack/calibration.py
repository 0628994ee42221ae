"""Post-hoc affine recalibration of detection covariances.

A detection's covariance is rescaled as cov' = a * cov + b * I; the (a, b)
pair is selected per view by exhaustive grid search minimizing mean NLL on
validation pairs. The grid always contains the identity point (1, 0), so a
fitted calibration can never be worse than no calibration on the data it was
fit to. The pairs are arrays (core.Pairs) of detection means, covariances and
truth positions. Each pair (covariance C, residual r) reduces to d = det C,
t = tr C, q = r' adj(C) r and s = |r|^2: det(aC + bI) = a^2 d + b (a t + b)
and r' adj(aC + bI) r = a q + b s, scored for each a in blocks of b rows.
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


# The default grid's axes as (lo, hi, count): log-spaced multipliers a and
# linear floors b. calibrate's --grid-a and --grid-b defaults spell these.
DEFAULT_A_AXIS = (0.05, 10.0, 60)
DEFAULT_B_AXIS = (0.0, 500.0, 51)


def default_grid() -> CalibrationGrid:
    """60 log-spaced multipliers over [0.05, 10] plus 1.0 exactly, and 51
    linear floors over [0, 500]."""
    return CalibrationGrid(log_spaced_axis(*DEFAULT_A_AXIS), linear_axis(*DEFAULT_B_AXIS))


def obs_transform(
    calib: dict[str, CalibrationParams], views: Sequence[str], cov: np.ndarray
) -> np.ndarray:
    """The affine calibration a * cov + b * I over an array of detections.

    cov has shape (..., V, 2, 2); column i holds detections of views[i].
    Views without an entry in calib pass through unchanged. Its derivatives
    are a calibrated view's dR/da = cov and dR/db = I (zero otherwise), which
    the filter's backward pass contracts with each detection's adjoint.
    """
    params = [calib.get(v, IDENTITY) for v in views]
    a = np.array([p.a for p in params])[:, None, None]
    b = np.array([p.b for p in params])[:, None, None]
    return a * cov + b * np.eye(2)


@np.errstate(all="ignore")
def fit(grid: CalibrationGrid, pairs: Pairs) -> tuple[CalibrationParams, float]:
    """Select the grid cell minimizing mean NLL over (detection, truth) pairs.

    Ties break toward the smallest a, then the smallest b, so the result is
    deterministic. A cell whose mean NLL is not finite never wins; with no
    finite cell this raises ValueError. Returns the winning parameters and
    their mean NLL.
    """
    if len(pairs) == 0:
        raise ValueError("cannot fit calibration on zero pairs")
    sxx, sxy, syy = pairs.cov[:, 0, 0], pairs.cov[:, 0, 1], pairs.cov[:, 1, 1]
    rx, ry = (pairs.truth - pairs.mean).T
    d, t = sxx * syy - sxy * sxy, sxx + syy
    q, s = rx * rx * syy - 2.0 * (rx * ry) * sxy + ry * ry * sxx, rx * rx + ry * ry
    n, b_values = len(pairs), np.array(grid.b_values)[:, None]
    rows = max(1, BLOCK_CELLS // n)
    det, quad = np.empty((2, min(rows, len(b_values)), n))
    total = np.empty((len(grid.a_values), len(b_values)))
    for lo in range(0, len(b_values), rows):
        # A block of b rows, b and b s spelled out per pair once for every a.
        b = np.repeat(b_values[lo : lo + rows], n, axis=1)
        bs, det_b, quad_b = s * b, det[: len(b)], quad[: len(b)]
        for i, a in enumerate(grid.a_values):
            # det_b = a^2 d + b (a t + b); quad_b = (a q + b s) / det_b.
            np.add(a * a * d, np.multiply(np.add(a * t, b, out=det_b), b, out=det_b), out=det_b)
            np.divide(np.add(a * q, bs, out=quad_b), det_b, out=quad_b)
            np.add(np.log(det_b, out=det_b), quad_b, out=det_b)
            np.add.reduce(det_b, axis=1, out=total[i, lo : lo + len(b)])
    # A row sum over n is np.mean to the bit; argmin's first minimum is a-major.
    mean_nll = LOG_TWO_PI + 0.5 * (total / n)
    mean_nll[~np.isfinite(mean_nll)] = math.inf
    i, j = np.unravel_index(np.argmin(mean_nll), mean_nll.shape)
    if mean_nll[i, j] == math.inf:
        raise ValueError("no grid cell gives a finite mean NLL")
    return CalibrationParams(grid.a_values[i], grid.b_values[j]), float(mean_nll[i, j])


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
