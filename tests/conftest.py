"""Shared fixtures and independent oracles used across the test suite."""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from typing import Optional, Sequence

import mpmath
import numpy as np
import pytest
from hypothesis import settings

from geotrack import calibration, dataio, forking, simulator, tuning
from geotrack.calibration import CalibrationParams
from geotrack.core import (
    LOG_TWO_PI,
    Gaussian2D,
    NotPositiveDefiniteError,
    Pairs,
    _fields_equal,
    _frozen,
    _is_pd,
    _pd_error,
    _pose_values,
    heading_from_velocity,
    nll_rows,
    wrap_angle,
)
from geotrack.kalman import (
    BatchResult,
    DetectionFrame,
    FilterParams,
    FrameBatch,
    _record_failures,
    pack,
    process_noise,
    transition,
)
from geotrack.metrics import Records
from geotrack.simulator import REPORTED_COV_FLOOR, Trajectory, generate_trajectory

# Every property test runs the same examples on every run, keeps no example
# database and has no per-example deadline; tests set only max_examples.
settings.register_profile("geotrack", derandomize=True, database=None, deadline=None)
settings.load_profile("geotrack")


# ---------------------------------------------------------------------------
# Work split between this process and a forked child (geotrack.forking)

fork_only = pytest.mark.skipif(not hasattr(os, "fork"), reason="the split needs os.fork")


def assert_no_child():
    """This process has no child left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def first_child_line(path) -> Optional[int]:
    """The number of the first line of path that a forked child reads; None
    if its range holds less than SPLIT_BYTES (and 1) or the file is not a
    regular file, so that the file is read in one pass."""
    with open(path, "rb") as fh:
        split, work = dataio._second_range(fh)
        if split is None or work < max(forking.SPLIT_BYTES, 1):
            return None
        return len(list(dataio._lines_to(fh, split))) + 1


def open_fds() -> list:
    """This process's open file descriptors, [] where /proc does not list them."""
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else []


def phi(x: float) -> float:
    """Standard normal CDF via erf; independent of any package code."""
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


# ---------------------------------------------------------------------------
# A ground-truth pose and one Gaussian's NLL as objects, for tests that
# build single records by hand; the package reads and scores them as arrays.


def rotation(angle: float) -> np.ndarray:
    """2x2 counter-clockwise rotation matrix."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


@dataclass(frozen=True, eq=False)
class ObjectPose:
    """Ground-truth position, heading, and rectangular extent of the object,
    checked and its heading wrapped by core._pose_values."""

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


def nll(g: Gaussian2D, point) -> float:
    """Negative log density of point under g, in nats: nll_rows of one row."""
    point = np.asarray(point, dtype=float).reshape(2)
    if not np.all(np.isfinite(point)):
        raise ValueError("evaluation point must be finite")
    return float(nll_rows(g.mean[None], g.cov[None], point[None])[0])


def log_density(g: Gaussian2D, points) -> np.ndarray:
    """Log density of g at an (n, 2) array of points."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = len(points)
    return -nll_rows(np.broadcast_to(g.mean, (n, 2)), np.broadcast_to(g.cov, (n, 2, 2)), points)


def dense_nll(mean, cov, point) -> float:
    """Direct bivariate-normal NLL via the explicit inverse formula, written
    out on one point without any package code."""
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    point = np.asarray(point, dtype=float)
    det = cov[0, 0] * cov[1, 1] - cov[0, 1] * cov[1, 0]
    inv = np.array([[cov[1, 1], -cov[0, 1]], [-cov[1, 0], cov[0, 0]]]) / det
    d = point - mean
    return float(math.log(2.0 * math.pi) + 0.5 * math.log(det) + 0.5 * d @ inv @ d)


def mp_nll(mean, cov, point, dps: int = 40) -> float:
    """The bivariate-normal NLL of point under N(mean, cov) in mpmath at dps
    digits, the float64 inputs taken as exact."""
    with mpmath.workdps(dps):
        S = mpmath.matrix(np.asarray(cov, dtype=float).tolist())
        d = mpmath.matrix([mpmath.mpf(p) - mpmath.mpf(m) for p, m in zip(point, mean)])
        quad = (d.T * S**-1 * d)[0]
        return float(mpmath.log(2 * mpmath.pi) + mpmath.log(mpmath.det(S)) / 2 + quad / 2)


def random_pd_2x2(rng: np.random.Generator, lo: float = 1.0, hi: float = 100.0) -> np.ndarray:
    """Random symmetric PD matrix with eigenvalues in [lo, hi]."""
    eigs = rng.uniform(lo, hi, size=2)
    R = rotation(rng.uniform(0.0, 2.0 * math.pi))
    return R @ np.diag(eigs) @ R.T


def stacked_update(x, P, detections):
    """Joint Kalman update with a stacked observation block.

    Independent oracle for the fused information-form update: builds the
    full block H and block-diagonal R and applies the textbook equations in
    one shot (Joseph form), in 40-digit mpmath. After a long gap the stacked
    innovation covariance has a condition number of about k * P / R, far
    past what float64 inverts accurately; 40 digits keep the result exact
    to float64 rounding. Returns float64 x and symmetric P.
    """
    k = len(detections)
    with mpmath.workdps(40):
        x = mpmath.matrix(np.asarray(x, dtype=float).tolist())
        P = mpmath.matrix(np.asarray(P, dtype=float).tolist())
        H = mpmath.zeros(2 * k, 4)
        R = mpmath.zeros(2 * k, 2 * k)
        z = mpmath.zeros(2 * k, 1)
        for i, (_, g) in enumerate(detections):
            for r in range(2):
                H[2 * i + r, r] = 1
                z[2 * i + r] = g.mean[r]
                for c in range(2):
                    R[2 * i + r, 2 * i + c] = g.cov[r, c]
        K = P * H.T * (H * P * H.T + R) ** -1
        x_new = x + K * (z - H * x)
        A = mpmath.eye(4) - K * H
        P_new = A * P * A.T + K * R * K.T
        P_new = (P_new + P_new.T) / 2
        return np.array(x_new.tolist(), dtype=float)[:, 0], np.array(P_new.tolist(), dtype=float)


def make_cv_frames(
    rng: np.random.Generator,
    n_steps: int = 20,
    dt: float = 0.05,
    sigma_accel: float = 0.0,
    obs_var: float = 16.0,
    views: tuple[str, ...] = ("N1", "N2"),
    drop_rate: float = 0.1,
    start=(100.0, 100.0),
    velocity=(40.0, -20.0),
):
    """Synthesize a constant-velocity truth path with noisy detections.

    With sigma_accel > 0 the truth follows the discretized white-noise
    acceleration model exactly, so the filter's process model is correct.
    """
    pos = np.array(start, dtype=float)
    vel = np.array(velocity, dtype=float)
    frames = []
    truth = []
    for k in range(n_steps):
        t = k * dt
        dets = []
        for view in views:
            if rng.random() >= drop_rate:
                cov = random_pd_2x2(rng, obs_var * 0.5, obs_var * 1.5)
                mean = pos + np.linalg.cholesky(cov) @ rng.standard_normal(2)
                dets.append((view, Gaussian2D(mean, cov)))
        frames.append(DetectionFrame(t, tuple(dets)))
        truth.append(pos.copy())
        if sigma_accel > 0.0:
            # Exact discretization: accel noise enters position and velocity
            # with the standard correlated (dt^2/2, dt) factors.
            w = rng.standard_normal(2) * sigma_accel
            pos = pos + vel * dt + w * dt * dt / 2.0
            vel = vel + w * dt
        else:
            pos = pos + vel * dt
    return frames, np.array(truth)


def pack_windows(windows):
    """(frames, truth) windows as one tuning split: a FrameBatch and the
    truth positions (B, T, 2)."""
    return pack([f for f, _ in windows]), np.array([np.asarray(t, dtype=float) for _, t in windows])


def window_loss(params, frames, truth, init_vel_var: float = 1e4):
    """tuning.sequence_loss of one window: its loss and gradient."""
    losses, grads = tuning.sequence_loss(params, *pack_windows([(frames, truth)]), init_vel_var)
    return float(losses[0]), grads[0]


def read_detection_frames(path):
    """Object oracle for dataio.read_detections: each line becomes a
    DetectionFrame of Gaussian2D detections, checked in the order these
    objects check it. As in the reader, a view id must be a string (checked
    after the line's detections, before duplicates). Returns the frames,
    for kalman.pack."""

    def parse(rec):
        t = dataio._time(rec["t"])
        dets = tuple((d["view"], Gaussian2D(d["mean"], d["cov"])) for d in rec["detections"])
        for view, _ in dets:
            if not isinstance(view, str):
                raise ValueError(f"view id must be a string, got {view!r}")
        return DetectionFrame(t, dets)

    frames = []
    line_no = 0
    try:
        with open(path, "rb") as fh:
            for line_no, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                frame = parse(json.loads(line))
                if frames and not frame.t > frames[-1].t:
                    raise RuntimeError(f"{path}: timestamp disorder at line {line_no}")
                frames.append(frame)
    except dataio._MALFORMED as exc:
        raise dataio._located(exc, path, line_no) from exc
    if not any(f.detections for f in frames):
        raise RuntimeError(f"{path}: no detections")
    return frames


def read_truth_rows(path) -> Trajectory:
    """Row oracle for dataio.read_truth: the whole file read as csv.reader
    reads it, the header row first, then each row checked as an ObjectPose
    checks it (heading wrapped) and its time after the row before's. An
    error names the row's number, counting the header as 1."""
    samples = []
    line_no = 1
    try:
        with open(path, newline="") as fh:
            rows = csv.reader(fh)
            header = next(rows, None)
            if header != dataio.TRUTH_HEADER:
                raise ValueError(f"expected header {dataio.TRUTH_HEADER}, got {header}")
            for line_no, row in enumerate(rows, start=2):
                if len(row) != len(dataio.TRUTH_HEADER):
                    raise ValueError(f"expected {len(dataio.TRUTH_HEADER)} fields, got {len(row)}")
                t, *pose = (float(v) for v in row)
                sample = (dataio._time(t), *_pose_values(*pose))
                if samples and not sample[0] > samples[-1][0]:
                    raise RuntimeError(f"{path}: timestamp disorder at line {line_no}")
                samples.append(sample)
    except dataio._MALFORMED as exc:
        raise dataio._located(exc, path, line_no) from exc
    table = np.array(samples, dtype=float).reshape(-1, len(dataio.TRUTH_HEADER))
    return Trajectory(table[:, 0], table[:, 1:3], table[:, 3], table[:, 4:])


def batch_frames(batch: FrameBatch) -> list[DetectionFrame]:
    """The frames of a one-window batch as objects, views in batch order."""
    return [
        DetectionFrame(
            t,
            tuple(
                (view, Gaussian2D(batch.mean[0, i, j], batch.cov[0, i, j]))
                for j, view in enumerate(batch.views)
                if batch.mask[0, i, j]
            ),
        )
        for i, t in enumerate(batch.t[0].tolist())
    ]


def pairs_arrays(pairs) -> Pairs:
    """(Gaussian2D, truth point) pairs as the arrays calibration.fit takes."""
    return Pairs(
        np.array([g.mean for g, _ in pairs]).reshape(-1, 2),
        np.array([g.cov for g, _ in pairs]).reshape(-1, 2, 2),
        np.array([t for _, t in pairs], dtype=float).reshape(-1, 2),
    )


@np.errstate(all="ignore")
def cell_fit(grid, pairs: Pairs):
    """calibration.fit one grid cell at a time, in the coefficient form: each
    pair's d = det C, t = tr C, q = r' adj(C) r and s = |r|^2 give
    det(aC + bI) = a^2 d + b (a t + b) and r' adj(aC + bI) r = a q + b s.
    np.mean per cell; cells whose mean NLL is not finite are skipped and the
    rest compared in (a, b) order. The reference for the blocked fit."""
    sxx, sxy, syy = pairs.cov[:, 0, 0], pairs.cov[:, 0, 1], pairs.cov[:, 1, 1]
    rx, ry = (pairs.truth - pairs.mean).T
    d, t = sxx * syy - sxy * sxy, sxx + syy
    q, s = rx * rx * syy - 2.0 * (rx * ry) * sxy + ry * ry * sxx, rx * rx + ry * ry
    best = None
    for a in grid.a_values:
        for b in grid.b_values:
            det = a * a * d + b * (a * t + b)
            quad = (a * q + b * s) / det
            mean_nll = LOG_TWO_PI + 0.5 * float(np.mean(np.log(det) + quad))
            if math.isfinite(mean_nll) and (best is None or mean_nll < best[0]):
                best = (mean_nll, a, b)
    if best is None:
        raise ValueError("no grid cell gives a finite mean NLL")
    return CalibrationParams(best[1], best[2]), best[0]


@np.errstate(all="ignore")
def direct_cell_nll(a: float, b: float, pairs: Pairs) -> float:
    """Mean NLL of the pairs under a * cov + b * I, from the calibrated 2x2
    matrix's own determinant and quadratic form."""
    sxx, sxy, syy = pairs.cov[:, 0, 0], pairs.cov[:, 0, 1], pairs.cov[:, 1, 1]
    rx, ry = (pairs.truth - pairs.mean).T
    pxx, axy, pyy = a * sxx + b, a * sxy, a * syy + b
    det = pxx * pyy - axy * axy
    quad = (rx * rx * pyy - 2.0 * (rx * ry) * axy + ry * ry * pxx) / det
    return LOG_TWO_PI + 0.5 * float(np.mean(np.log(det))) + 0.5 * float(np.mean(quad))


def direct_cell_fit(grid, pairs: Pairs):
    """cell_fit with each cell scored by direct_cell_nll: the fit before the
    coefficient form, with the same tie-breaking and non-finite skip."""
    best = None
    for a in grid.a_values:
        for b in grid.b_values:
            mean_nll = direct_cell_nll(a, b, pairs)
            if math.isfinite(mean_nll) and (best is None or mean_nll < best[0]):
                best = (mean_nll, a, b)
    if best is None:
        raise ValueError("no grid cell gives a finite mean NLL")
    return CalibrationParams(best[1], best[2]), best[0]


def records_arrays(records) -> Records:
    """(Gaussian2D, ObjectPose) records as the arrays metrics.evaluate takes."""
    pairs = pairs_arrays([(g, pose.position) for g, pose in records])
    return Records(
        pairs.mean,
        pairs.cov,
        pairs.truth,
        np.array([pose.heading for _, pose in records]),
        np.array([pose.extent for _, pose in records]).reshape(-1, 2),
    )


def cholesky(cov: np.ndarray) -> np.ndarray:
    """Lower-triangular factors L (N, 2, 2) with L @ L.T == cov for symmetric
    2x2 covariances (N, 2, 2), read from their upper triangle.

    Raises NotPositiveDefiniteError for the first that is not PD, identifying
    its failing leading minor.
    """
    a, b, c = cov[:, 0, 0], cov[:, 0, 1], cov[:, 1, 1]
    with np.errstate(all="ignore"):
        l00 = np.sqrt(a)
        l10 = b / l00
        rem = c - l10 * l10
    for i in np.flatnonzero(~((a > 0.0) & (rem > 0.0)))[:1]:
        if not a[i] > 0.0:
            raise NotPositiveDefiniteError(1, a[i])
        raise NotPositiveDefiniteError(2, a[i] * c[i] - b[i] * b[i])
    return np.stack([l00, np.zeros_like(a), l10, np.sqrt(rem)], axis=-1).reshape(-1, 2, 2)


def sample_gaussian(mean: np.ndarray, L: np.ndarray, rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw ``n`` points from the Gaussian with mean (2,) and lower Cholesky
    factor L (2, 2) of its covariance, as an (n, 2) array, reproducible per
    rng."""
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    return mean + rng.standard_normal((n, 2)) @ L.T


def points_in_pose(position, heading: float, extent, points: np.ndarray) -> np.ndarray:
    """Vectorized membership test for an (n, 2) array of points in the
    rectangle of a pose's position, heading and extent (width, length)."""
    d = np.atleast_2d(np.asarray(points, dtype=float)) - position
    b = d @ rotation(-heading).T
    return (np.abs(b[:, 0]) <= extent[0] / 2.0) & (np.abs(b[:, 1]) <= extent[1] / 2.0)


def mc_mass(mean, L, position, heading, extent, n: int, rng: np.random.Generator) -> float:
    """Monte Carlo fraction of n draws from N(mean, L L^T) inside the
    rectangle of the given position, heading and extent (width, length)."""
    samples = sample_gaussian(mean, L, rng, n)
    return float(np.mean(points_in_pose(position, heading, extent, samples)))


def opm(g: Gaussian2D, pose: ObjectPose, n: int = 1000, *, rng: np.random.Generator) -> float:
    """Monte Carlo estimate of one prediction's object probability mass: the
    fraction of n draws from g inside the pose's rectangle."""
    L = cholesky(g.cov[None])[0]
    return mc_mass(g.mean, L, pose.position, pose.heading, pose.extent, n, rng)


def mc_scores(records: Records, n: int, seed: int) -> np.ndarray:
    """Monte Carlo OPM of each record from n draws, each record from its own
    seeded substream (seed, record index)."""
    L = cholesky(records.cov)
    rows = zip(records.mean, L, records.truth, records.heading.tolist(), records.extent)
    out = np.empty(len(records))
    for i, (mean, factor, position, heading, extent) in enumerate(rows):
        rng = np.random.default_rng(np.random.SeedSequence([seed, i]))
        out[i] = mc_mass(mean, factor, position, heading, extent, n, rng)
    return out


def mp_orthant(h: float, k: float, r: float, dps: int = 30) -> float:
    """P(X > h, Y > k) for standard normals with correlation r, |r| < 1, in
    mpmath at dps digits: the integral over x > h of phi(x) Phi((r x - k) /
    sqrt(1 - r^2)), split where the Phi term turns (x = k / r) and clipped
    to |x| <= 40, beyond which phi is below 1e-347."""
    with mpmath.workdps(dps):
        lo, k, r = max(mpmath.mpf(h), mpmath.mpf(-40)), mpmath.mpf(k), mpmath.mpf(r)
        if lo >= 40:
            return 0.0
        t = mpmath.sqrt(1 - r * r)

        def density(x):
            return mpmath.npdf(x) * mpmath.ncdf((r * x - k) / t)

        kink = [k / r] if r != 0 and lo < k / r < 40 else []
        return float(mpmath.quad(density, [lo, *kink, mpmath.mpf(40)]))


def mp_mean_nll(
    frames: Sequence[DetectionFrame], truth, sigma_accel, init_vel_var: float = 1e4, calib=None
) -> float:
    """The mean filtered NLL of one window of frames in mpmath at the working
    precision: the textbook per-frame recursion (each detection calibrated
    as a * cov + b * I with its view's (a, b) from calib, views without an
    entry as they are; information-sum fusion of a frame's detections;
    predict; update with P = (I - K H) P), an independent reference for the
    tracker's NLL and, through mpmath.diff in sigma_accel, a or b, its
    gradient."""
    mpf, matrix = mpmath.mpf, mpmath.matrix
    sigma_accel = mpf(sigma_accel)
    calib = calib or {}

    def fused(f):
        lam, eta = mpmath.zeros(2, 2), mpmath.zeros(2, 1)
        for view, g in f.detections:
            a, b = calib.get(view, (1, 0))
            info = (mpf(a) * matrix(g.cov.tolist()) + mpf(b) * mpmath.eye(2)) ** -1
            lam, eta = lam + info, eta + info * matrix(g.mean.tolist())
        return lam**-1 * eta, lam**-1

    def nll(x, P, pos):
        S = P[:2, :2]
        d = matrix([mpf(pos[0]) - x[0], mpf(pos[1]) - x[1]])
        return (mpmath.log(mpmath.det(S)) + (d.T * S**-1 * d)[0]) / 2 + mpmath.log(2 * mpmath.pi)

    start = next(i for i, f in enumerate(frames) if f.detections)
    z, R = fused(frames[start])
    x, P = matrix([z[0], z[1], 0, 0]), mpmath.zeros(4, 4)
    P[:2, :2] = R
    P[2, 2] = P[3, 3] = mpf(init_vel_var)
    H = matrix([[1, 0, 0, 0], [0, 1, 0, 0]])
    values = [nll(x, P, truth[start])]
    for i in range(start + 1, len(frames)):
        f, dt = frames[i], mpf(frames[i].t) - mpf(frames[i - 1].t)
        F, Q = mpmath.eye(4), mpmath.zeros(4, 4)
        for a in (0, 1):
            F[a, a + 2] = dt
            Q[a, a] = sigma_accel**2 * dt**4 / 4
            Q[a, a + 2] = Q[a + 2, a] = sigma_accel**2 * dt**3 / 2
            Q[a + 2, a + 2] = sigma_accel**2 * dt**2
        x, P = F * x, F * P * F.T + Q
        if f.detections:
            z, R = fused(f)
            K = P * H.T * (H * P * H.T + R) ** -1
            x, P = x + K * (z - H * x), (mpmath.eye(4) - K * H) * P
        values.append(nll(x, P, truth[i]))
    return sum(values) / len(values)


def mp_rectangle_mass(mean, cov, position, heading, extent, dps: int = 30) -> float:
    """The mass of N(mean, cov) inside the rectangle of a pose's position,
    heading and extent (width, length), in mpmath at dps digits: an
    independent reference for the exact OPM.

    The frame comes from ObjectPose's definition, as matrices: heading
    rotates the body frame (width along x, length along y) into the world,
    so a world offset d is B^T d in the body frame and the covariance
    B^T cov B, with B the rotation by heading. Standardised, with
    correlation r, the mass is the integral over x in [h_lo, h_hi] of
    phi(x) (Phi((r x - k_lo) / t) - Phi((r x - k_hi) / t)), t = sqrt(1 -
    r^2): the conditional law of the second coordinate given the first. The
    quadrature is split where each Phi term turns (x = k / r) and at the
    density's peak, and clipped to |x| <= 40, beyond which phi is below
    1e-347.
    """
    with mpmath.workdps(dps):
        mpf = mpmath.mpf
        c, s = mpmath.cos(mpf(heading)), mpmath.sin(mpf(heading))
        B = mpmath.matrix([[c, -s], [s, c]])
        m = B.T * mpmath.matrix([mpf(mean[0]) - mpf(position[0]), mpf(mean[1]) - mpf(position[1])])
        body = B.T * mpmath.matrix([[mpf(v) for v in row] for row in cov]) * B
        m0, m1 = m[0], m[1]
        s0, s1 = mpmath.sqrt(body[0, 0]), mpmath.sqrt(body[1, 1])
        r = body[0, 1] / (s0 * s1)
        half_w, half_l = mpf(extent[0]) / 2, mpf(extent[1]) / 2
        lo, hi = max((-half_w - m0) / s0, mpf(-40)), min((half_w - m0) / s0, mpf(40))
        k_lo, k_hi = (-half_l - m1) / s1, (half_l - m1) / s1
        if lo >= hi:
            return 0.0
        t = mpmath.sqrt(1 - r * r)

        def density(x):
            return mpmath.npdf(x) * (mpmath.ncdf((r * x - k_lo) / t) - mpmath.ncdf((r * x - k_hi) / t))

        kinks = [k / r for k in (k_lo, k_hi) if r != 0] + [mpf(0)]
        points = sorted({lo, hi, *(x for x in kinks if lo < x < hi)})
        return float(mpmath.quad(density, points))


def visibility(node, pose: ObjectPose, occluders=()) -> bool:
    """Whether the node sees the object at one pose: simulator._sight of
    one position."""
    return bool(simulator._sight(node, pose.position[None], occluders)[2][0])


def simulate_detection(node, pose: ObjectPose, config, rng):
    """One node's detection of the object at one pose, (view, Gaussian2D),
    or None when the node emits nothing: simulator._detections of one frame."""
    mean, cov, emit = simulator._detections(node, pose.position[None], config, rng)
    return (node.id, Gaussian2D(mean[0], cov[0])) if emit[0] else None


def truth_arrays(samples) -> Trajectory:
    """(t, ObjectPose) samples as the truth arrays dataio.write_truth takes."""
    return Trajectory(
        np.array([t for t, _ in samples], dtype=float),
        np.array([pose.position for _, pose in samples]),
        np.array([pose.heading for _, pose in samples]),
        np.array([pose.extent for _, pose in samples]),
    )


# ---------------------------------------------------------------------------
# Per-detection simulator oracle: the simulator and writers as they were
# before the bulk simulator, one frame and one node at a time.


def oracle_segment_hits_rect(p0, p1, rect) -> bool:
    """Liang-Barsky overlap test between segment p0->p1 and an axis-aligned
    rectangle (xmin, ymin, xmax, ymax)."""
    xmin, ymin, xmax, ymax = rect
    d = p1 - p0
    t0, t1 = 0.0, 1.0
    for axis, (lo, hi) in enumerate(((xmin, xmax), (ymin, ymax))):
        if abs(d[axis]) < 1e-12:
            if p0[axis] < lo or p0[axis] > hi:
                return False
            continue
        ta = (lo - p0[axis]) / d[axis]
        tb = (hi - p0[axis]) / d[axis]
        if ta > tb:
            ta, tb = tb, ta
        t0 = max(t0, ta)
        t1 = min(t1, tb)
        if t0 > t1:
            return False
    return True


def oracle_visibility(node, pose, occluders=()) -> bool:
    d = pose.position - node.position
    dist = float(np.linalg.norm(d))
    if dist < 1e-12:
        return True
    bearing = wrap_angle(math.atan2(d[1], d[0]) - node.facing)
    if abs(bearing) > node.fov / 2.0:
        return False
    for rect in occluders:
        if oracle_segment_hits_rect(node.position, pose.position, rect):
            return False
    return True


def _unit(v):
    return v / np.linalg.norm(v)


def oracle_floor_eigenvalues(mat, floor):
    """Clamp the eigenvalues of a symmetric 2x2 matrix from below."""
    a, b, c = mat[0, 0], mat[0, 1], mat[1, 1]
    if abs(b) < 1e-15:
        return np.diag([max(a, floor), max(c, floor)])
    half = (a + c) / 2.0
    disc = math.hypot((a - c) / 2.0, b)
    lam1, lam2 = half + disc, half - disc
    if lam2 >= floor:
        return mat
    v1 = _unit(np.array([b, lam1 - a]))
    v2 = np.array([-v1[1], v1[0]])
    return max(lam1, floor) * np.outer(v1, v1) + max(lam2, floor) * np.outer(v2, v2)


def oracle_simulate_detection(node, pose, config, rng):
    if oracle_visibility(node, pose, config.occluders):
        offset = pose.position - node.position
        dist = float(np.linalg.norm(offset))
        s = config.noise_multiplier * (node.noise_floor + node.noise_slope * dist)
        var = s * s
        if config.ray_anisotropy > 1.0 and dist > 1e-12:
            u = offset / dist
            k2 = config.ray_anisotropy**2
            cov_true = var * (k2 * np.outer(u, u) + (np.eye(2) - np.outer(u, u)))
        else:
            cov_true = var * np.eye(2)
        noise = rng.standard_normal(2)
        if cov_true[0, 1] == 0.0 and cov_true[0, 0] == cov_true[1, 1]:
            mean = pose.position + s * noise
        else:
            L = np.linalg.cholesky(cov_true)
            mean = pose.position + L @ noise
        a_true, b_true = node.miscalibration
        reported = (cov_true - b_true * np.eye(2)) / a_true
        reported = oracle_floor_eigenvalues(reported, REPORTED_COV_FLOOR)
        return node.id, Gaussian2D(mean, reported)
    if rng.random() < config.fallback_rate:
        cov = config.fallback_sigma**2 * np.eye(2)
        return node.id, Gaussian2D(config.arena.center, cov)
    return None


def mask_trajectory(config, rng) -> Trajectory:
    """simulator.generate_trajectory with a boolean mask over all frames
    for each path piece, as it was before it sliced them."""
    n = int(round(config.duration * config.fps))
    times = np.arange(n) / config.fps
    pieces, durations, speeds = simulator._PathBuilder(config.arena, rng).build(config.duration)
    starts = np.concatenate([[0.0], np.cumsum(durations)])[:-1]
    ends = starts + durations
    idx = np.clip(np.searchsorted(ends, times, side="right"), 0, len(pieces) - 1)
    positions = np.empty((n, 2))
    tangents = np.empty((n, 2))
    for p in np.unique(idx):
        sel = idx == p
        s = (times[sel] - starts[p]) * speeds[p]
        piece = pieces[p]
        if piece[0] == "s":
            _, origin, direction, _ = piece
            positions[sel] = origin + s[:, None] * direction
            tangents[sel] = direction
        else:
            _, center, radius, ang0, side, _ = piece
            phi = ang0 + side * s / radius
            positions[sel] = center + radius * np.column_stack([np.cos(phi), np.sin(phi)])
            tangents[sel] = side * np.column_stack([-np.sin(phi), np.cos(phi)])
    extent = np.broadcast_to(config.object_extent, (n, 2))
    return Trajectory(times, positions, heading_from_velocity(tangents), extent)


def oracle_build_dataset(config):
    root = np.random.SeedSequence(config.seed)
    streams = root.spawn(1 + len(config.nodes))
    traj = generate_trajectory(config, np.random.default_rng(streams[0]))
    node_rngs = [np.random.default_rng(s) for s in streams[1:]]
    records = []
    for i in range(len(traj)):
        pose = ObjectPose(traj.positions[i], float(traj.headings[i]), traj.extent[i])
        dets = []
        for node, rng in zip(config.nodes, node_rngs):
            result = oracle_simulate_detection(node, pose, config, rng)
            if result is not None:
                dets.append(result)
        records.append((DetectionFrame(traj.times[i], tuple(dets)), pose))
    n = len(records)
    n_train = int(round(n * config.split[0]))
    n_val = int(round(n * config.split[1]))
    if n_train + n_val > n:
        raise ValueError("split fractions leave no room for a test set")
    return {
        "train": records[:n_train],
        "val": records[n_train : n_train + n_val],
        "test": records[n_train + n_val :],
    }


def _gaussian_to_json(mean: np.ndarray, cov: np.ndarray) -> dict:
    return {
        "mean": [float(mean[0]), float(mean[1])],
        "cov": [[float(cov[0, 0]), float(cov[0, 1])], [float(cov[1, 0]), float(cov[1, 1])]],
    }


def oracle_write_detections(path, frames) -> None:
    with open(path, "w") as fh:
        for frame in frames:
            dets = [
                {"view": view, **_gaussian_to_json(g.mean, g.cov)}
                for view, g in frame.detections
            ]
            fh.write(dataio.dumps({"t": float(frame.t), "detections": dets}) + "\n")


def oracle_write_track(path, times, means, covs) -> None:
    """write_track as it was before it wrote chunks: one dumps per step."""
    with open(path, "w") as fh:
        for t, mean, cov in zip(times, means, covs):
            fh.write(dataio.dumps({"t": float(t), **_gaussian_to_json(mean, cov)}) + "\n")


# 95% quantile of chi-squared with 2 dof, for confidence ellipses.
CHI2_95_2D = -2.0 * math.log(0.05)


def oracle_write_plot_data(path, times, means, covs, truth) -> None:
    """track's plot_data.csv as it was before it wrote from arrays: an
    f-string and a math.atan2 per step. truth is (N, 2) or None."""
    step_truth = np.asarray(truth).tolist() if truth is not None else [None] * len(times)
    evals, evecs = np.linalg.eigh(covs)
    axes = np.sqrt(CHI2_95_2D * evals).tolist()
    rows = zip(np.asarray(times).tolist(), np.asarray(means).tolist(), axes, evecs, step_truth)
    with open(path, "w") as fh:
        fh.write("t,truth_x,truth_y,mean_x,mean_y,ell_major,ell_minor,ell_angle\n")
        for t, (mx, my), (minor, major), evec, xy in rows:
            angle = math.atan2(evec[1, 1], evec[0, 1])
            tx, ty = map(repr, xy) if xy else ("", "")
            fh.write(f"{t!r},{tx},{ty},{mx!r},{my!r},{major!r},{minor!r},{angle!r}\n")


def oracle_write_truth(path, samples) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(dataio.TRUTH_HEADER)
        for t, pose in samples:
            row = (t, *pose.position, pose.heading, *pose.extent)
            writer.writerow([repr(float(v)) for v in row])


def oracle_simulate_files(config, out) -> None:
    """The six split files of the oracle simulator, as simulate writes them."""
    out.mkdir(parents=True, exist_ok=True)
    for split, records in oracle_build_dataset(config).items():
        oracle_write_detections(out / f"detections_{split}.jsonl", [f for f, _ in records])
        oracle_write_truth(out / f"truth_{split}.csv", [(f.t, pose) for f, pose in records])


# ---------------------------------------------------------------------------
# Filter arithmetic of the oracles below, written out here from the textbook
# so that no error in kalman's own can cancel out of a comparison with it.


def _T(M: np.ndarray) -> np.ndarray:
    return M.swapaxes(-1, -2)


def _sym(P: np.ndarray) -> np.ndarray:
    return (P + _T(P)) / 2.0


def _inv2(S: np.ndarray) -> np.ndarray:
    """Inverse of (..., 2, 2) matrices by the adjugate over the determinant."""
    det = S[..., 0, 0] * S[..., 1, 1] - S[..., 0, 1] * S[..., 1, 0]
    adj = np.empty(S.shape)
    adj[..., 0, 0], adj[..., 1, 1] = S[..., 1, 1], S[..., 0, 0]
    adj[..., 0, 1], adj[..., 1, 0] = -S[..., 0, 1], -S[..., 1, 0]
    return adj / det[..., None, None]


def _init(z, R, dz, dR, init_vel_var: float):
    """State at a track's first frame with its tangents over K channels:
    the fused detection (dz, dR) for position, zero velocity with
    init_vel_var per axis, and no cross-covariance."""
    shape, k = z.shape[:-1], dz.shape[-2]
    x, P = np.zeros(shape + (4,)), np.zeros(shape + (4, 4))
    sx, sP = np.zeros(shape + (k, 4)), np.zeros(shape + (k, 4, 4))
    x[..., :2], P[..., :2, :2], sx[..., :2], sP[..., :2, :2] = z, R, dz, dR
    P[..., 2, 2] = P[..., 3, 3] = init_vel_var
    return x, _sym(P), sx, _sym(sP)


def _nll(mu, sig, truth):
    """NLL of truth positions under N(mu, sig), with sig^-1 and the whitened
    residual w = sig^-1 (truth - mu)."""
    sig_inv = _inv2(sig)
    r = truth - mu
    w = (sig_inv @ r[..., None])[..., 0]
    det = sig[..., 0, 0] * sig[..., 1, 1] - sig[..., 0, 1] * sig[..., 1, 0]
    return LOG_TWO_PI + 0.5 * np.log(det) + 0.5 * (r * w).sum(axis=-1), sig_inv, w


def _nll_grad(sig_inv, w, dmu, dsig):
    """The gradient of _nll over the tangent channels of dmu (..., K, 2) and
    dsig (..., K, 2, 2): tr(sig^-1 dsig) / 2 - dmu . w - w^T dsig w / 2."""
    return (
        0.5 * (dsig * _T(sig_inv)[..., None, :, :]).sum(axis=(-2, -1))
        - (dmu * w[..., None, :]).sum(axis=-1)
        - 0.5 * ((dsig @ w[..., None, :, None])[..., 0] * w[..., None, :]).sum(axis=-1)
    )


# ---------------------------------------------------------------------------
# Dense fusion: any per-detection dR stack, pushed forward and summed over
# every view and tangent channel. kalman pulls each detection's adjoint back
# instead (_fuse_adjoint); this is its reference, and the loop oracle's and
# per-step API's fusion.


def obs_tangents(calib, views, cov, tangent_views=()) -> np.ndarray:
    """The dense tangent stack (..., V, K, 2, 2) of calibration.obs_transform's
    a * cov + b * I, K = 1 + 2 * len(tangent_views): channel 0 (sigma_accel) is zero, and
    view i of tangent_views, when calibrated, gets dR/da = cov on channel
    1 + 2i and dR/db = I on channel 2 + 2i. Every other view's tangent is zero."""
    dR = np.zeros(cov.shape[:-2] + (1 + 2 * len(tangent_views), 2, 2))
    for i, view in enumerate(tangent_views):
        if view in calib and view in views:
            col = list(views).index(view)
            dR[..., col, 1 + 2 * i, :, :] = cov[..., col, :, :]
            dR[..., col, 2 + 2 * i, :, :] = np.eye(2)
    return dR


def dense_fuse(mean, cov, mask, dR):
    """Collapse each frame's detections into one position pseudo-measurement.

    Information-form fusion over the view axis: R = (sum R_i^-1)^-1 and
    z = R sum R_i^-1 z_i, with tangents dR and dz = R sum P_i dR_i P_i (z - z_i)
    (P_i = R_i^-1) over K channels from each detection's dR_i stack; that
    form of dz does not cancel, as dR eta + R d(eta) does when a detection
    covariance is ill-conditioned. mean is (..., V, 2), cov (..., V, 2, 2), mask
    (..., V) and dR (..., V, K, 2, 2). A frame with one detection returns it
    unchanged; a frame with none returns finite filler. Also returns the
    information matrix.
    """
    m = mask[..., None, None]
    prec = np.where(m, _inv2(cov), 0.0)
    lam = prec.sum(axis=-3)
    eta = (prec @ mean[..., None])[..., 0].sum(axis=-2)
    dprec = -(prec[..., None, :, :] @ dR @ prec[..., None, :, :])
    dlam = dprec.sum(axis=-4)
    count = mask.sum(axis=-1)
    R = _inv2(np.where((count > 0)[..., None, None], lam, np.eye(2)))
    dR_f = -(R[..., None, :, :] @ dlam @ R[..., None, :, :])
    z = (R @ eta[..., None])[..., 0]
    spread = (dprec @ (mean - z[..., None, :])[..., None, :, None]).sum(axis=-4)
    dz = (R[..., None, :, :] @ spread)[..., 0]
    one = count == 1
    if np.any(one):
        first = mask.argmax(axis=-1)[..., None]

        def pick(a, tail):
            idx = first.reshape(first.shape + (1,) * tail)
            return np.take_along_axis(a, idx, axis=first.ndim - 1).squeeze(axis=first.ndim - 1)

        z = np.where(one[..., None], pick(mean, 1), z)
        R = np.where(one[..., None, None], pick(cov, 2), R)
        dz = np.where(one[..., None, None], 0.0, dz)
        dR_f = np.where(one[..., None, None, None], pick(dR, 3), dR_f)
    return z, R, dz, dR_f, lam


# ---------------------------------------------------------------------------
# Per-frame filter loop: the recursion run_windows computed as a time loop
# before it became a prefix scan, its gradient by forward-mode tangents
# before it became a backward pass. It fuses densely (dense_fuse), shares
# only the failure bookkeeping with kalman, and steps through time with
# predict and the Joseph update; the reference for the scan.

# Detection x tangent-channel 2x2 matrices per fusion block of the loop.
LOOP_BLOCK_MATRICES = 1 << 12


def _select(mask: np.ndarray, new: tuple, old: tuple) -> tuple:
    """Per window b, new[i][b] where mask[b] else old[i][b]."""
    return tuple(
        np.where(mask.reshape(mask.shape + (1,) * (a.ndim - mask.ndim)), a, o)
        for a, o in zip(new, old)
    )


def _predict(x, P, sx, sP, F, Q, dQ):
    """Propagate states by their transitions F with process noise Q."""
    Ft = _T(F)
    sP = F[..., None, :, :] @ sP @ Ft[..., None, :, :]
    # Only the sigma_accel channel sees process noise: dQ/dsigma = 2 Q / sigma.
    sP[..., 0, :, :] += dQ
    return (F @ x[..., None])[..., 0], _sym(F @ P @ Ft + Q), sx @ Ft, _sym(sP)


def _update(x, P, sx, sP, z, R, dz, dR):
    """Absorb one fused pseudo-measurement per state (Joseph form, which
    keeps P symmetric PD under roundoff). Also returns the innovation
    covariance S, whose positive definiteness the caller checks."""
    S = P[..., :2, :2] + R
    S_inv = _inv2(S)
    K_gain = P[..., :, :2] @ S_inv
    Kt = _T(K_gain)
    # A = I - K H, its position block formed as R S^-1: I - P_pos S^-1
    # cancels when P_pos dwarfs R, and A carries into every tangent.
    A = np.zeros(P.shape)
    A[..., :2, :2] = R @ S_inv
    A[..., 2:, :2] = -K_gain[..., 2:, :]
    A[..., 2, 2] = A[..., 3, 3] = 1.0
    # dK = (dP H^T - K (dP_pos + dR)) S^-1 = (A dP H^T - K dR) S^-1.
    dK = A[..., None, :, :] @ sP[..., :, :2] - K_gain[..., None, :, :] @ dR
    dK = dK @ S_inv[..., None, :, :]
    y = z - x[..., :2]
    dy = dz - sx[..., :2]

    AP = A @ P
    # Tangent of A P A^T + K R K^T with dA = -[dK 0] and P, R symmetric:
    # M + M^T + A dP A^T + K dR K^T, where M = dK (R K^T - (A P)[:, :2]^T).
    M = dK @ (R @ Kt - _T(AP[..., :, :2]))[..., None, :, :]
    sP = (
        M
        + _T(M)
        + A[..., None, :, :] @ sP @ _T(A)[..., None, :, :]
        + K_gain[..., None, :, :] @ dR @ Kt[..., None, :, :]
    )
    return (
        x + (K_gain @ y[..., None])[..., 0],
        _sym(AP @ _T(A) + K_gain @ R @ Kt),
        sx + (dK @ y[..., None, :, None])[..., 0] + dy @ Kt,
        _sym(sP),
        S,
    )


def _position_blocks(B: int, n: int, k: int) -> list[np.ndarray]:
    """Storage for n steps of the position marginal and its tangents."""
    return [np.zeros((B, n) + shape) for shape in ((2,), (2, 2), (k, 2), (k, 2, 2))]


def _store(blocks: list[np.ndarray], jj: int, state: tuple) -> None:
    x, P, sx, sP = state
    blocks[0][:, jj] = x[..., :2]
    blocks[1][:, jj] = P[..., :2, :2]
    blocks[2][:, jj] = sx[..., :2]
    blocks[3][:, jj] = sP[..., :2, :2]


def loop_windows(
    batch: FrameBatch,
    params: FilterParams,
    truth: Optional[np.ndarray] = None,
    calib: Optional[dict[str, CalibrationParams]] = None,
    grad: bool = True,
) -> tuple[BatchResult, Optional[np.ndarray]]:
    """kalman.run_windows as a per-frame loop: predict, then the Joseph
    update, one frame at a time over all windows at once, with calibration,
    fusion and the NLL in blocks of frames. It always carries every tangent
    channel forward. Returns the result, whose gradient is the sum over
    each window's frames where run_windows gives one, and the per-frame
    gradients (B, T, K) that sum to it (NaN before the start), or None. The
    reference for the scan."""
    tangent_views = tuple(sorted(calib or {}))
    n_params = 1 + 2 * len(tangent_views)
    B, T, V = batch.mask.shape
    if truth is not None:
        truth = np.asarray(truth, dtype=float)
        if truth.shape != (B, T, 2):
            raise ValueError(f"truth shape {truth.shape} does not match the frames' {(B, T, 2)}")
    sigma = params.sigma_accel
    has = batch.mask.any(axis=-1)
    start = np.where(has.any(axis=1), has.argmax(axis=1), T)
    first = int(start.min())
    steps = np.arange(T)
    dt = np.diff(batch.t, axis=1, prepend=batch.t[:, :1] - 1.0)
    run = steps > start[:, None]
    upd = run & has
    run_all, upd_all, upd_any = run.all(axis=0), upd.all(axis=0), upd.any(axis=0)
    begins = set(start.tolist())

    means = np.full((B, T, 2), np.nan)
    covs = np.full((B, T, 2, 2), np.nan)
    nlls = np.full((B, T), np.nan) if truth is not None else None
    grads = np.full((B, T, n_params), np.nan) if truth is not None and grad else None
    failures: dict[int, tuple[float, int, float]] = {}
    state = (
        np.zeros((B, 4)),
        np.broadcast_to(np.eye(4), (B, 4, 4)).copy(),
        np.zeros((B, n_params, 4)),
        np.zeros((B, n_params, 4, 4)),
    )
    block = max(1, LOOP_BLOCK_MATRICES // (B * max(V, 1) * n_params))
    with np.errstate(all="ignore"):
        for lo in range(first, T, block):
            sl = slice(lo, min(lo + block, T))
            t, mask = batch.t[:, sl], batch.mask[:, sl]
            cov = calibration.obs_transform(calib or {}, batch.views, batch.cov[:, sl])
            dR = obs_tangents(calib or {}, batch.views, batch.cov[:, sl], tangent_views)
            _record_failures(failures, cov, mask, t)
            z, R, dz, dR, lam = dense_fuse(batch.mean[:, sl], cov, mask, dR)
            _record_failures(failures, lam, mask.sum(axis=-1) > 1, t)
            F = transition(dt[:, sl])
            Q = process_noise(sigma, dt[:, sl])
            dQ = 2.0 * Q / sigma

            n = sl.stop - sl.start
            filtered = _position_blocks(B, n, n_params)
            innovations = np.broadcast_to(np.eye(2), (B, n, 2, 2)).copy()
            for jj, j in enumerate(range(sl.start, sl.stop)):
                if j > first:
                    pred = _predict(*state, F[:, jj], Q[:, jj], dQ[:, jj])
                    new = pred
                    if upd_any[j]:
                        *post, innovations[:, jj] = _update(
                            *pred, z[:, jj], R[:, jj], dz[:, jj], dR[:, jj]
                        )
                        new = tuple(post) if upd_all[j] else _select(upd[:, j], post, pred)
                    state = new if run_all[j] else _select(run[:, j], new, state)
                if j in begins:
                    init = _init(z[:, jj], R[:, jj], dz[:, jj], dR[:, jj], params.init_vel_var)
                    starting = start == j
                    state = init if starting.all() else _select(starting, init, state)
                _store(filtered, jj, state)

            _record_failures(failures, innovations, upd[:, sl], t)
            before = steps[sl] < start[:, None]
            means[:, sl] = np.where(before[..., None], np.nan, filtered[0])
            covs[:, sl] = np.where(before[..., None, None], np.nan, filtered[1])
            _record_failures(failures, filtered[1], ~before, t)
            if truth is None:
                continue
            mu, sig, dmu, dsig = filtered
            value, sig_inv, w = _nll(mu, sig, truth[:, sl])
            nlls[:, sl] = np.where(before, np.nan, value)
            if grads is not None:
                dnll = _nll_grad(sig_inv, w, dmu, dsig)
                grads[:, sl] = np.where(before[..., None], np.nan, dnll)
    total = None if grads is None else np.nansum(grads, axis=1)
    return BatchResult(start, means, covs, nlls, total, failures), grads


# ---------------------------------------------------------------------------
# Per-step filter: kalman's step functions run one frame at a time with an
# empty batch shape. Independent of run_windows' scan, block layout and
# failure bookkeeping; the chain oracle for the batched recursion.


@dataclass(frozen=True)
class KalmanState:
    """Filter state at time t: mean x, covariance P, and tangent stacks.

    sens_x has shape (K, 4) and sens_P shape (K, 4, 4); row k holds the
    derivative of x and P with respect to tangent parameter k. Channel 0 is
    sigma_accel.
    """

    t: float
    x: np.ndarray
    P: np.ndarray
    sens_x: np.ndarray
    sens_P: np.ndarray

    @property
    def n_params(self) -> int:
        return self.sens_x.shape[0]


def _frame_arrays(frame: DetectionFrame, r_tangents, k: int):
    """A frame's detections as one fusion group, with checked fusion."""
    mean = np.array([g.mean for _, g in frame.detections])
    cov = np.array([g.cov for _, g in frame.detections])
    mask = np.ones(len(frame.detections), dtype=bool)
    if r_tangents is None:
        dR = np.zeros((len(cov), k, 2, 2))
    else:
        dR = np.array([np.asarray(d, dtype=float) for d in r_tangents])
        dR = dR.reshape(len(cov), k, 2, 2)
    with np.errstate(all="ignore"):
        z, R, dz, dR, lam = dense_fuse(mean, cov, mask, dR)
    if len(cov) > 1 and not _is_pd(lam):
        raise _pd_error(lam)
    return z, R, dz, dR


def init_state(
    frame: DetectionFrame,
    params: FilterParams,
    n_params: int = 1,
    r_tangents: Optional[Sequence[np.ndarray]] = None,
) -> KalmanState:
    """Start a track from the detections of one frame.

    The position block is the fused detection of the frame (see dense_fuse);
    velocity starts at zero with init_vel_var per axis and no
    cross-covariance. Tangents are zero except for channels whose dR stacks
    make the fused block parameter-dependent.
    """
    if not frame.detections:
        raise ValueError("cannot initialize without a detection")
    fused = _frame_arrays(frame, r_tangents, n_params)
    return KalmanState(frame.t, *_init(*fused, params.init_vel_var))


def predict(state: KalmanState, dt: float, params: FilterParams) -> KalmanState:
    """Propagate the state forward by dt under the constant-velocity model."""
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    Q = process_noise(params.sigma_accel, dt)
    dQ = 2.0 * Q / params.sigma_accel
    moved = _predict(state.x, state.P, state.sens_x, state.sens_P, transition(dt), Q, dQ)
    return KalmanState(state.t + dt, *moved)


def update(
    state: KalmanState,
    frame: DetectionFrame,
    r_tangents: Optional[Sequence[np.ndarray]] = None,
) -> KalmanState:
    """Fuse all detections of a frame into the state.

    The detections (conditionally independent given the state) are first
    fused into one pseudo-measurement (see dense_fuse), then absorbed by a
    single Kalman update; this equals the stacked joint update, and the posterior
    does not depend on detection order. An empty frame is a no-op.
    """
    if abs(frame.t - state.t) > 1e-9:
        raise ValueError(f"frame time {frame.t} does not match state time {state.t}")
    if not frame.detections:
        return state
    fused = _frame_arrays(frame, r_tangents, state.n_params)
    with np.errstate(all="ignore"):
        *post, S = _update(state.x, state.P, state.sens_x, state.sens_P, *fused)
    if not _is_pd(S):
        raise _pd_error(S)
    return KalmanState(state.t, *post)


def marginal(state: KalmanState) -> Gaussian2D:
    """The tracker's published output: the position block of (x, P)."""
    return Gaussian2D(state.x[:2], state.P[:2, :2])


@pytest.fixture(scope="session")
def session_rng_seed() -> int:
    return 20260808
