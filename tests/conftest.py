"""Shared fixtures and independent oracles used across the test suite."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import settings

from geotrack import dataio, tuning
from geotrack.core import Gaussian2D, rotation
from geotrack.kalman import DetectionFrame, FrameBatch, pack

# Every property test runs the same examples on every run, keeps no example
# database and has no per-example deadline; tests set only max_examples.
settings.register_profile("geotrack", derandomize=True, database=None, deadline=None)
settings.load_profile("geotrack")


def phi(x: float) -> float:
    """Standard normal CDF via erf; independent of any package code."""
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def dense_nll(mean, cov, point) -> float:
    """Direct bivariate-normal NLL via the explicit inverse formula.

    Deliberately avoids the package's Cholesky path so it can serve as an
    independent oracle.
    """
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    point = np.asarray(point, dtype=float)
    det = cov[0, 0] * cov[1, 1] - cov[0, 1] * cov[1, 0]
    inv = np.array([[cov[1, 1], -cov[0, 1]], [-cov[1, 0], cov[0, 0]]]) / det
    d = point - mean
    return float(math.log(2.0 * math.pi) + 0.5 * math.log(det) + 0.5 * d @ inv @ d)


def random_pd_2x2(rng: np.random.Generator, lo: float = 1.0, hi: float = 100.0) -> np.ndarray:
    """Random symmetric PD matrix with eigenvalues in [lo, hi]."""
    eigs = rng.uniform(lo, hi, size=2)
    R = rotation(rng.uniform(0.0, 2.0 * math.pi))
    return R @ np.diag(eigs) @ R.T


def stacked_update(x, P, detections):
    """Joint Kalman update with a stacked observation block.

    Independent oracle for the fused information-form update: builds the
    full block H and block-diagonal R and applies the textbook equations in
    one shot (Joseph form).
    """
    x = np.asarray(x, dtype=float)
    P = np.asarray(P, dtype=float)
    k = len(detections)
    H = np.zeros((2 * k, 4))
    R = np.zeros((2 * k, 2 * k))
    z = np.zeros(2 * k)
    for i, (_, g) in enumerate(detections):
        H[2 * i : 2 * i + 2, :2] = np.eye(2)
        R[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = g.cov
        z[2 * i : 2 * i + 2] = g.mean
    S = H @ P @ H.T + R
    K = P @ H.T @ np.linalg.inv(S)
    x_new = x + K @ (z - H @ x)
    A = np.eye(4) - K @ H
    P_new = A @ P @ A.T + K @ R @ K.T
    return x_new, (P_new + P_new.T) / 2.0


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
    for line_no, frame in dataio._read_jsonl(path, parse):
        if frames and not frame.t > frames[-1].t:
            raise RuntimeError(f"{path}: timestamp disorder at line {line_no}")
        frames.append(frame)
    if not any(f.detections for f in frames):
        raise RuntimeError(f"{path}: no detections")
    return frames


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


@pytest.fixture(scope="session")
def session_rng_seed() -> int:
    return 20260808
