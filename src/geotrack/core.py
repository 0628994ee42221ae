"""Core geometry and Gaussian primitives shared by every other module.

Conventions used throughout the package: distances in centimeters, time in
seconds, angles in radians. All types here are immutable values and every
function is pure, so concurrent use needs no coordination; the only stateful
object anywhere is a numpy Generator owned by its caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

LOG_TWO_PI = math.log(2.0 * math.pi)


class NotPositiveDefiniteError(ValueError):
    """A covariance matrix failed its positive-definiteness check.

    ``minor_index`` is the 1-based index of the offending leading principal
    minor and ``minor_value`` its value (for a 2x2 matrix: the top-left entry,
    then the determinant). ``where``, when given, prefixes the message with
    the matrix's origin (a file and line, or a frame time).
    """

    def __init__(self, minor_index: int, minor_value: float, where: str = ""):
        self.minor_index = minor_index
        self.minor_value = float(minor_value)
        message = (
            f"matrix is not positive definite: leading minor {minor_index} "
            f"is {minor_value:.6g}"
        )
        super().__init__(f"{where}: {message}" if where else message)


def rotation(angle: float) -> np.ndarray:
    """2x2 counter-clockwise rotation matrix."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


def wrap_angle(angle: float) -> float:
    """Wrap an angle into [-pi, pi)."""
    return (angle + math.pi) % (2.0 * math.pi) - math.pi


_ADJUGATE_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])


def _det2(S: np.ndarray) -> np.ndarray:
    return S[..., 0, 0] * S[..., 1, 1] - S[..., 0, 1] * S[..., 1, 0]


def _inv2(S: np.ndarray) -> np.ndarray:
    """Closed-form inverse of (..., 2, 2) matrices; no check (see _is_pd)."""
    return S.swapaxes(-1, -2)[..., ::-1, ::-1] * _ADJUGATE_SIGNS / _det2(S)[..., None, None]


def _is_pd(S: np.ndarray) -> np.ndarray:
    """Both leading minors of (..., 2, 2) matrices positive and finite."""
    det = _det2(S)
    return (S[..., 0, 0] > 0.0) & (det > 0.0) & (det < np.inf)


def _pd_error(S: np.ndarray) -> NotPositiveDefiniteError:
    """The error for one 2x2 matrix that failed _is_pd."""
    if not S[0, 0] > 0.0 or not np.isfinite(S[0, 0]):
        return NotPositiveDefiniteError(1, S[0, 0])
    return NotPositiveDefiniteError(2, _det2(S))


def _nll(mu, sig, truth):
    """NLL of truth positions under N(mu, sig), with the sig^-1 and whitened
    residual w = sig^-1 (truth - mu) that its adjoint takes."""
    sig_inv = _inv2(sig)
    r = truth - mu
    w = (sig_inv @ r[..., None])[..., 0]
    return LOG_TWO_PI + 0.5 * np.log(_det2(sig)) + 0.5 * (r * w).sum(axis=-1), sig_inv, w


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _fields_equal(self, other):
    """__eq__ of a value dataclass with array fields: every field equal by
    np.array_equal. Defining it leaves the class unhashable."""
    if not isinstance(other, type(self)):
        return NotImplemented
    return all(np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))


@dataclass(frozen=True, eq=False)
class Gaussian2D:
    """A 2-D Gaussian over object location: mean (cm) and covariance (cm^2).

    The covariance is symmetric by construction (the off-diagonal value is
    stored once) and validated positive definite at construction time.
    """

    mean: np.ndarray
    cov: np.ndarray

    __eq__ = _fields_equal

    def __post_init__(self):
        mean, cov = _gaussian_arrays(self.mean, self.cov)
        object.__setattr__(self, "mean", _frozen(mean))
        object.__setattr__(self, "cov", _frozen(cov))


def _gaussian_arrays(mean, cov) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian2D's checks without the object: the mean as a 2-vector and the
    covariance made symmetric from its upper off-diagonal entry."""
    mean = np.array(mean, dtype=float).reshape(2)
    if not np.all(np.isfinite(mean)):
        raise ValueError("mean components must be finite")
    raw = np.array(cov, dtype=float)
    if raw.shape != (2, 2):
        raise ValueError(f"covariance must be 2x2, got shape {raw.shape}")
    if not np.all(np.isfinite(raw)):
        raise ValueError("covariance entries must be finite")
    cov = np.array([[raw[0, 0], raw[0, 1]], [raw[0, 1], raw[1, 1]]])
    # An overflowing determinant is inf (or NaN), which _is_pd rejects.
    with np.errstate(all="ignore"):
        if not _is_pd(cov):
            raise _pd_error(cov)
    return mean, cov


@dataclass(frozen=True, eq=False)
class ObjectPose:
    """Ground-truth position, heading, and rectangular extent of the object.

    The body frame puts the width axis along x and the length axis along y;
    heading rotates the body frame into the world frame and is normalized
    into [-pi, pi).
    """

    position: np.ndarray
    heading: float
    extent: tuple[float, float]

    __eq__ = _fields_equal

    def __post_init__(self):
        position = np.array(self.position, dtype=float).reshape(2)
        _, _, heading, w, l = _pose_values(
            *position.tolist(), float(self.heading), float(self.extent[0]), float(self.extent[1])
        )
        object.__setattr__(self, "position", _frozen(position))
        object.__setattr__(self, "heading", heading)
        object.__setattr__(self, "extent", (w, l))


def _pose_values(x: float, y: float, heading: float, w: float, l: float) -> tuple[float, ...]:
    """ObjectPose's checks without the object, on plain floats: the position,
    the heading wrapped into [-pi, pi), and the extent."""
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError("position components must be finite")
    if not (w > 0.0 and l > 0.0):
        raise ValueError(f"extent components must be positive, got {(w, l)}")
    if not math.isfinite(heading):
        raise ValueError(f"heading must be finite, got {heading}")
    return x, y, wrap_angle(heading), w, l


@dataclass(frozen=True, eq=False)
class Pairs:
    """Predicted location Gaussians and the truth position each is scored
    against, one row each: means (N, 2), covariances (N, 2, 2) and truth
    (N, 2). len() is the row count."""

    mean: np.ndarray
    cov: np.ndarray
    truth: np.ndarray

    def __len__(self) -> int:
        return len(self.mean)

    @cached_property
    def nll(self) -> np.ndarray:
        """Each row's NLL of its truth position, computed once."""
        return nll_rows(self.mean, self.cov, self.truth)


@dataclass(frozen=True)
class Arena:
    """Rectangular tracking environment with origin at one corner."""

    width: float = 500.0
    length: float = 700.0

    def __post_init__(self):
        if not (0.0 < self.width < math.inf and 0.0 < self.length < math.inf):
            raise ValueError("arena dimensions must be positive and finite")

    @property
    def center(self) -> np.ndarray:
        return np.array([self.width / 2.0, self.length / 2.0])

    def contains(self, point: np.ndarray) -> bool:
        x, y = float(point[0]), float(point[1])
        return 0.0 <= x <= self.width and 0.0 <= y <= self.length


def nll(g: Gaussian2D, point: np.ndarray) -> float:
    """Negative log density of ``point`` under ``g``, in nats: nll_rows of
    one row."""
    point = np.asarray(point, dtype=float).reshape(2)
    if not np.all(np.isfinite(point)):
        raise ValueError("evaluation point must be finite")
    return float(nll_rows(g.mean[None], g.cov[None], point[None])[0])


def nll_rows(mean: np.ndarray, cov: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Negative log density of each of points (N, 2) under the Gaussian of
    its row, means (N, 2) and covariances (N, 2, 2), in nats.

    Raises NotPositiveDefiniteError for the first covariance that is not.
    """
    with np.errstate(all="ignore"):
        for i in np.flatnonzero(~_is_pd(cov))[:1]:
            raise _pd_error(cov[i])
    return _nll(mean, cov, points)[0]


def log_density(g: Gaussian2D, points: np.ndarray) -> np.ndarray:
    """Vectorized log density of ``g`` at an (n, 2) array of points."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = len(points)
    return -nll_rows(np.broadcast_to(g.mean, (n, 2)), np.broadcast_to(g.cov, (n, 2, 2)), points)


def heading_from_velocity(velocity: np.ndarray) -> np.ndarray:
    """Headings (N,) that align the pose's length axis with each velocity
    (N, 2); 0 for a zero velocity. math.atan2 per row, as np.arctan2 can
    differ from it in the last bit."""
    vx, vy = velocity[:, 0], velocity[:, 1]
    angle = np.fromiter(map(math.atan2, (-vx).tolist(), vy.tolist()), float, len(velocity))
    return np.where((vx == 0.0) & (vy == 0.0), 0.0, wrap_angle(angle))
