"""Detection output-head math and extent-grid losses.

Maps raw 5-vectors of unconstrained detector outputs, one row each, to
valid location Gaussians, and provides the per-detection training losses
(point negative log likelihood, and the tile-grid variant that spreads mass
over the object's physical extent). No learned backbone exists in this
package, and no command makes raw head vectors: these functions are for a
detector's training loop. tuning takes the nonlinearities.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .core import Arena, nll_rows


def sigmoid(x):
    """Numerically stable logistic function (scalar or array)."""
    x = np.asarray(x, dtype=float)
    out = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))), np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
    return out if out.ndim else float(out)


def softplus(x):
    """Overflow-safe softplus: max(x, 0) + log1p(exp(-|x|))."""
    x = np.asarray(x, dtype=float)
    out = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
    return out if out.ndim else float(out)


def inv_softplus(y: float) -> float:
    """Inverse of softplus for y > 0; tiny y is clamped to keep it finite."""
    y = max(float(y), 1e-12)
    if y > 30.0:
        return y
    return float(np.log(np.expm1(y)))


def head_to_gaussian(raw: np.ndarray, arena: Arena) -> tuple[np.ndarray, np.ndarray]:
    """Decode raw head vectors (N, 5) into location means (N, 2) and
    covariances (N, 2, 2).

    Each mean is a sigmoid of the row's first two values scaled to the arena
    size. Each covariance is M @ M.T + I where M is lower triangular with
    the softplus of the next two values on its diagonal and the last value
    in its (2, 1) slot; the identity floor keeps the result positive
    definite for every input. Non-finite raw values raise ValueError.
    """
    raw = np.asarray(raw, dtype=float)
    if not np.all(np.isfinite(raw)):
        raise ValueError("raw head values must be finite")
    mean = sigmoid(raw[:, :2]) * (arena.width, arena.length)
    d1, d2, off = softplus(raw[:, 2]), softplus(raw[:, 3]), raw[:, 4]
    cov = np.empty((len(raw), 2, 2))
    cov[:, 0, 0] = d1 * d1 + 1.0
    cov[:, 0, 1] = cov[:, 1, 0] = d1 * off
    cov[:, 1, 1] = off * off + d2 * d2 + 1.0
    return mean, cov


def nll_loss(raw: np.ndarray, arena: Arena, truth: np.ndarray) -> np.ndarray:
    """Point NLL (N,) of each ground-truth position (N, 2) under its row's
    decoded head output; warns where a truth position lies outside the arena."""
    truth = np.asarray(truth, dtype=float)
    if not np.all(np.isfinite(truth)):
        raise ValueError("truth positions must be finite")
    outside = truth[~arena.contains(truth)]
    if len(outside):
        warnings.warn(
            f"truth point {outside[0].tolist()} lies outside the {arena.width}x{arena.length} arena",
            stacklevel=2,
        )
    return nll_rows(*head_to_gaussian(raw, arena), truth)


def extent_grid(position, heading: float, extent: tuple[float, float], tile: float) -> np.ndarray:
    """Tile-center lattice (n, 2) over the rectangle of the given extent,
    rotated by heading and centered on position in the world frame.

    Uses floor(extent / tile) tiles per axis, centered on the rectangle, so
    every point lies strictly inside the extent.
    """
    w, l = extent
    if not tile > 0.0:
        raise ValueError("tile size must be positive")
    if tile > min(w, l) / 2.0:
        raise ValueError(f"tile size {tile} exceeds half the smallest extent {min(w, l) / 2.0}")
    nx = int(w // tile)
    ny = int(l // tile)
    xs = (np.arange(nx) - (nx - 1) / 2.0) * tile
    ys = (np.arange(ny) - (ny - 1) / 2.0) * tile
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    body = np.column_stack([gx.ravel(), gy.ravel()])
    c, s = math.cos(heading), math.sin(heading)
    return np.asarray(position, dtype=float) + body @ np.array([[c, s], [-s, c]])


def grid_loss(mean: np.ndarray, cov: np.ndarray, points: np.ndarray, tile_area: float) -> float:
    """Negative log of the tile-area-weighted density sum of N(mean, cov)
    over the grid points (n, 2).

    A soft integral of the probability mass captured by the object's extent;
    log-sum-exp keeps distant tiles from underflowing.
    """
    if not tile_area > 0.0:
        raise ValueError("tile_area must be positive")
    n = len(points)
    lp = -nll_rows(np.broadcast_to(mean, (n, 2)), np.broadcast_to(cov, (n, 2, 2)), points)
    m = float(np.max(lp))
    lse = m + float(np.log(np.sum(np.exp(lp - m))))
    return -(lse + float(np.log(tile_area)))
