"""Constant-velocity multi-observation Kalman tracker over 4-D latent state.

The latent state is (px, py, vx, vy) in cm and cm/s. Any number of
simultaneous detections updates the state per step under the assumption that
they are mutually conditionally independent given the state. Every detection
observes position directly, so a frame's detections collapse exactly into one
information-form pseudo-measurement (product of Gaussians); the update is
algebraically identical to a stacked joint update, and fusion automatically
weights low-uncertainty detections more heavily.

Every state carries a stack of forward-mode tangents (d state / d parameter).
Tangent channel 0 is always the acceleration-noise parameter sigma_accel;
callers that differentiate through per-detection observation covariances
(e.g. calibration parameters) append further channels and supply dR stacks
per detection. predict and update return new states; nothing mutates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .core import LOG_TWO_PI, Gaussian2D, NotPositiveDefiniteError

ObsTransform = Callable[[str, Gaussian2D], tuple[Gaussian2D, np.ndarray]]


@dataclass(frozen=True)
class FilterParams:
    """Filter parameters: acceleration noise std (cm/s^2) and the initial
    velocity variance ((cm/s)^2) used when a track starts."""

    sigma_accel: float
    init_vel_var: float = 1e4

    def __post_init__(self):
        if not self.sigma_accel > 0.0:
            raise ValueError("sigma_accel must be positive")
        if not self.init_vel_var > 0.0:
            raise ValueError("init_vel_var must be positive")


@dataclass(frozen=True)
class DetectionFrame:
    """A timestamp with zero or more per-view detections."""

    t: float
    detections: tuple[tuple[str, Gaussian2D], ...]

    def __post_init__(self):
        dets = tuple((str(v), g) for v, g in self.detections)
        views = [v for v, _ in dets]
        if len(set(views)) != len(views):
            raise ValueError(f"duplicate view ids in frame at t={self.t}: {views}")
        object.__setattr__(self, "t", float(self.t))
        object.__setattr__(self, "detections", dets)


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


@dataclass
class TrackResult:
    """Output of run_sequence: one marginal per frame from initialization on.

    When truth is supplied, nlls holds the per-step NLL of the truth position
    under the reported marginal (NaN for steps where the chosen mode defines
    no value) and nll_grads its per-step gradient over the tangent channels.
    """

    times: np.ndarray
    marginals: list[Gaussian2D]
    nlls: Optional[np.ndarray]
    nll_grads: Optional[np.ndarray]

    @property
    def total_nll(self) -> float:
        if self.nlls is None:
            raise ValueError("sequence was run without truth")
        return float(np.nansum(self.nlls))

    @property
    def mean_nll(self) -> float:
        if self.nlls is None:
            raise ValueError("sequence was run without truth")
        return float(np.nanmean(self.nlls))

    @property
    def total_grad(self) -> np.ndarray:
        if self.nll_grads is None:
            raise ValueError("sequence was run without truth")
        return np.nansum(self.nll_grads, axis=0)

    @property
    def n_nll_steps(self) -> int:
        return int(np.sum(np.isfinite(self.nlls)))


def transition(dt: float) -> np.ndarray:
    F = np.eye(4)
    F[0, 2] = dt
    F[1, 3] = dt
    return F


def process_noise(sigma_accel: float, dt: float) -> np.ndarray:
    """Discretized white-noise-acceleration covariance, per axis."""
    s2 = sigma_accel * sigma_accel
    q_pp = s2 * dt**4 / 4.0
    q_pv = s2 * dt**3 / 2.0
    q_vv = s2 * dt**2
    Q = np.zeros((4, 4))
    Q[0, 0] = Q[1, 1] = q_pp
    Q[0, 2] = Q[2, 0] = Q[1, 3] = Q[3, 1] = q_pv
    Q[2, 2] = Q[3, 3] = q_vv
    return Q


def _inv2(S: np.ndarray) -> tuple[np.ndarray, float]:
    """Closed-form inverse of a symmetric 2x2 PD matrix, with determinant."""
    det = S[0, 0] * S[1, 1] - S[0, 1] * S[1, 0]
    if not (S[0, 0] > 0.0 and np.isfinite(S[0, 0])):
        raise NotPositiveDefiniteError(1, S[0, 0])
    if not (det > 0.0 and np.isfinite(det)):
        raise NotPositiveDefiniteError(2, det)
    inv = np.array([[S[1, 1], -S[0, 1]], [-S[1, 0], S[0, 0]]]) / det
    return inv, det


def _sym(P: np.ndarray) -> np.ndarray:
    return (P + np.swapaxes(P, -1, -2)) / 2.0


def _fuse(
    detections: Sequence[tuple[str, Gaussian2D]],
    r_tangents: Optional[Sequence[np.ndarray]],
    k: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Collapse a frame's detections into one position pseudo-measurement.

    Information-form fusion: R = (sum R_i^-1)^-1 and z = R sum R_i^-1 z_i.
    Also returns the tangents dz and dR over k channels, given each
    detection's (k, 2, 2) dR_i stack (zero when r_tangents is None). A single
    detection is returned unchanged.
    """
    if r_tangents is None:
        r_tangents = [np.zeros((k, 2, 2))] * len(detections)
    if len(detections) == 1:
        g = detections[0][1]
        return g.mean, g.cov, np.zeros((k, 2)), r_tangents[0]
    lam = np.zeros((2, 2))
    eta = np.zeros(2)
    dlam = np.zeros((k, 2, 2))
    deta = np.zeros((k, 2))
    for (_, g), dR in zip(detections, r_tangents):
        prec, _ = _inv2(g.cov)
        lam += prec
        eta += prec @ g.mean
        dprec = -prec @ dR @ prec
        dlam += dprec
        deta += dprec @ g.mean
    R, _ = _inv2(lam)
    dR_f = -R @ dlam @ R
    return R @ eta, R, dR_f @ eta + (R @ deta[..., None])[..., 0], dR_f


def init_state(
    frame: DetectionFrame,
    params: FilterParams,
    n_params: int = 1,
    r_tangents: Optional[Sequence[np.ndarray]] = None,
) -> KalmanState:
    """Start a track from the detections of one frame.

    The position block is the fused detection of the frame (see _fuse);
    velocity starts at zero with init_vel_var per axis and no
    cross-covariance. Tangents are zero except for channels whose dR stacks
    make the fused block parameter-dependent.
    """
    if not frame.detections:
        raise ValueError("cannot initialize without a detection")
    k = n_params
    z, R, dz, dR = _fuse(frame.detections, r_tangents, k)
    x = np.zeros(4)
    x[:2] = z
    P = np.zeros((4, 4))
    P[:2, :2] = R
    P[2, 2] = P[3, 3] = params.init_vel_var
    sens_x = np.zeros((k, 4))
    sens_x[:, :2] = dz
    sens_P = np.zeros((k, 4, 4))
    sens_P[:, :2, :2] = dR
    return KalmanState(frame.t, x, _sym(P), sens_x, _sym(sens_P))


def predict(state: KalmanState, dt: float, params: FilterParams) -> KalmanState:
    """Propagate the state forward by dt under the constant-velocity model."""
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    F = transition(dt)
    Q = process_noise(params.sigma_accel, dt)
    x = F @ state.x
    P = _sym(F @ state.P @ F.T + Q)
    sens_x = state.sens_x @ F.T
    sens_P = F @ state.sens_P @ F.T
    # Only the sigma_accel channel sees process noise: dQ/dsigma = 2 Q / sigma.
    sens_P[0] += 2.0 * Q / params.sigma_accel
    return KalmanState(state.t + dt, x, P, sens_x, _sym(sens_P))


def update(
    state: KalmanState,
    frame: DetectionFrame,
    r_tangents: Optional[Sequence[np.ndarray]] = None,
) -> KalmanState:
    """Fuse all detections of a frame into the state.

    The detections (conditionally independent given the state) are first
    fused into one pseudo-measurement (see _fuse), then absorbed by a single
    Kalman update; this equals the stacked joint update, and the posterior
    does not depend on detection order. Uses the Joseph-form covariance
    update so P stays symmetric PD under roundoff. An empty frame is a no-op.
    """
    if abs(frame.t - state.t) > 1e-9:
        raise ValueError(f"frame time {frame.t} does not match state time {state.t}")
    if not frame.detections:
        return state
    k = state.n_params
    z, R, dz, dR = _fuse(frame.detections, r_tangents, k)
    x, P, sx, sP = state.x, state.P, state.sens_x, state.sens_P
    y = z - x[:2]
    S_inv, _ = _inv2(P[:2, :2] + R)
    K_gain = P[:, :2] @ S_inv

    dS = sP[:, :2, :2] + dR
    dK = (sP[:, :, :2] - K_gain @ dS) @ S_inv
    dy = dz - sx[:, :2]

    A = np.eye(4)
    A[:, :2] -= K_gain
    dA = np.zeros((k, 4, 4))
    dA[:, :, :2] = -dK
    AP = A @ P
    sP = (
        dA @ P @ A.T
        + A @ sP @ A.T
        + AP @ np.swapaxes(dA, 1, 2)
        + dK @ R @ K_gain.T
        + K_gain @ dR @ K_gain.T
        + (K_gain @ R) @ np.swapaxes(dK, 1, 2)
    )
    return KalmanState(
        state.t,
        x + K_gain @ y,
        _sym(AP @ A.T + K_gain @ R @ K_gain.T),
        sx + dK @ y + dy @ K_gain.T,
        _sym(sP),
    )


def marginal(state: KalmanState) -> Gaussian2D:
    """The tracker's published output: the position block of (x, P)."""
    return Gaussian2D(state.x[:2], state.P[:2, :2])


def _marginal_nll_grad(state: KalmanState, truth: np.ndarray) -> tuple[float, np.ndarray]:
    """NLL of the truth position under the position marginal, with its
    gradient over the tangent channels."""
    mu = state.x[:2]
    sig = state.P[:2, :2]
    dmu = state.sens_x[:, :2]
    dsig = state.sens_P[:, :2, :2]
    sig_inv, det = _inv2(sig)
    r = np.asarray(truth, dtype=float) - mu
    w = sig_inv @ r
    value = LOG_TWO_PI + 0.5 * np.log(det) + 0.5 * r @ w
    grad = (
        0.5 * np.einsum("kij,ji->k", dsig, sig_inv)
        - dmu @ w
        - 0.5 * np.einsum("i,kij,j->k", w, dsig, w)
    )
    return float(value), grad


def run_sequence(
    frames: Sequence[DetectionFrame],
    params: FilterParams,
    truth: Optional[np.ndarray] = None,
    obs_transform: Optional[ObsTransform] = None,
    n_params: int = 1,
    nll_mode: str = "filtered",
) -> TrackResult:
    """Filter a whole sequence of frames.

    Initializes on the first non-empty frame, then alternates predict and
    update using the actual timestamp gaps. ``truth``, when given, must hold
    one 2-vector per frame; NLL is evaluated on the filtered (post-update)
    marginal by default, or on the predictive (pre-update) marginal with
    nll_mode="predictive", which defines no value for the first step.

    ``obs_transform`` maps (view_id, detection) to a transformed detection
    plus its (n_params, 2, 2) covariance tangent stack, letting callers
    differentiate through per-view observation models.
    """
    if nll_mode not in ("filtered", "predictive"):
        raise ValueError(f"unknown nll_mode {nll_mode!r}")
    if len(frames) == 0:
        raise ValueError("no frames supplied")
    for i in range(1, len(frames)):
        if not frames[i].t > frames[i - 1].t:
            raise ValueError(
                f"timestamps must be strictly increasing: frame {i} has "
                f"t={frames[i].t} after t={frames[i - 1].t}"
            )
    if truth is not None:
        truth = np.asarray(truth, dtype=float)
        if truth.shape != (len(frames), 2):
            raise ValueError(
                f"truth shape {truth.shape} does not match {len(frames)} frames"
            )

    def prepare(frame: DetectionFrame):
        if obs_transform is None:
            return frame, None
        dets = []
        tangents = []
        for view, g in frame.detections:
            g2, dR = obs_transform(view, g)
            dets.append((view, g2))
            tangents.append(np.asarray(dR, dtype=float))
        return DetectionFrame(frame.t, tuple(dets)), tangents

    start = next((i for i, f in enumerate(frames) if f.detections), None)
    if start is None:
        raise ValueError("no frame has any detection; cannot initialize")

    first, first_tan = prepare(frames[start])
    state = init_state(first, params, n_params=n_params, r_tangents=first_tan)

    times = [state.t]
    marginals = [marginal(state)]
    nlls: list[float] = []
    grads: list[np.ndarray] = []
    if truth is not None:
        if nll_mode == "filtered":
            v, gvec = _marginal_nll_grad(state, truth[start])
        else:
            v, gvec = float("nan"), np.full(n_params, np.nan)
        nlls.append(v)
        grads.append(gvec)

    for i in range(start + 1, len(frames)):
        state = predict(state, frames[i].t - state.t, params)
        if truth is not None and nll_mode == "predictive":
            v, gvec = _marginal_nll_grad(state, truth[i])
            nlls.append(v)
            grads.append(gvec)
        frame, tangents = prepare(frames[i])
        if frame.detections:
            state = update(state, frame, r_tangents=tangents)
        if truth is not None and nll_mode == "filtered":
            v, gvec = _marginal_nll_grad(state, truth[i])
            nlls.append(v)
            grads.append(gvec)
        times.append(state.t)
        marginals.append(marginal(state))

    return TrackResult(
        times=np.array(times),
        marginals=marginals,
        nlls=np.array(nlls) if truth is not None else None,
        nll_grads=np.array(grads) if truth is not None else None,
    )
