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
per detection.

Array layout. The filter has one recursion, ``run_windows``, over a
FrameBatch of B equal-length windows of T frames and V views: times (B, T),
detection means (B, T, V, 2), covariances (B, T, V, 2, 2) and a presence
mask (B, T, V). It is vectorised over the B windows and the K tangent
channels. Work that does not depend on the filter state runs outside the
time loop, in blocks of frames: the per-view calibration of the detection
covariances, the information-form fusion of each frame, the transition and
process noise, and the NLL of the reported marginals with its gradient. The
time loop keeps only predict and the Joseph update. ``run_track`` is the
B = 1 case, and takes the batch dataio.read_detections or
simulator.simulate returns. DetectionFrame objects (build_dataset's object
view, and tests) enter through ``pack``; ``run_sequence`` is run_track over
them. Nothing mutates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import calibration
from .calibration import CalibrationParams
from .core import LOG_TWO_PI, Gaussian2D, NotPositiveDefiniteError

# Detection x tangent-channel 2x2 matrices per fusion block; bounds the
# block's working memory whatever the batch shape.
BLOCK_MATRICES = 1 << 12


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
class FrameBatch:
    """B windows of T frames as dense arrays over V views (see module doc).

    An absent detection has mask False, mean 0 and identity covariance.
    """

    views: tuple[str, ...]
    t: np.ndarray
    mean: np.ndarray
    cov: np.ndarray
    mask: np.ndarray

    def __len__(self) -> int:
        """The number of frames, B * T."""
        return self.t.size

    def take(self, rows) -> "FrameBatch":
        """The windows at the given row indices."""
        return FrameBatch(
            self.views, self.t[rows], self.mean[rows], self.cov[rows], self.mask[rows]
        )

    @classmethod
    def scatter(cls, t: np.ndarray, frames, views: Sequence[str], mean, cov) -> "FrameBatch":
        """The batch over times t (B, T) of flat detections: detection i is
        views[i]'s, mean[i] (2,) and cov[i] (2, 2), in the frame at flat
        index frames[i] of t. The views are the sorted ids."""
        order = tuple(sorted(set(views)))
        column = {v: i for i, v in enumerate(order)}
        shape = (*t.shape, len(order))
        slots = np.array([column[v] for v in views], dtype=np.intp)
        slots += np.asarray(frames, dtype=np.intp) * len(order)
        full_mean = np.zeros((t.size * len(order), 2))
        full_cov = np.broadcast_to(np.eye(2), (len(full_mean), 2, 2)).copy()
        mask = np.zeros(len(full_mean), dtype=bool)
        full_mean[slots] = np.reshape(mean, (-1, 2))
        full_cov[slots] = np.reshape(cov, (-1, 2, 2))
        mask[slots] = True
        return cls(
            order,
            t,
            full_mean.reshape(shape + (2,)),
            full_cov.reshape(shape + (2, 2)),
            mask.reshape(shape),
        )


def pack(windows: Sequence[Sequence[DetectionFrame]]) -> FrameBatch:
    """Pack equal-length windows of frames into a FrameBatch.

    The views are the sorted ids seen in any window. Each window needs
    strictly increasing timestamps and at least one detection.
    """
    if not windows or any(len(w) == 0 for w in windows):
        raise ValueError("no frames supplied")
    n_frames = len(windows[0])
    if any(len(w) != n_frames for w in windows):
        raise ValueError("windows must all have the same number of frames")
    t = np.array([[f.t for f in w] for w in windows])
    bad = np.argwhere(~(np.diff(t, axis=1) > 0.0))
    if len(bad):
        b, i = bad[0]
        raise ValueError(
            f"timestamps must be strictly increasing: frame {i + 1} has "
            f"t={t[b, i + 1]} after t={t[b, i]}"
        )
    dets = [(i, v, g) for i, f in enumerate(f for w in windows for f in w) for v, g in f.detections]
    batch = FrameBatch.scatter(
        t,
        [i for i, _, _ in dets],
        [v for _, v, _ in dets],
        [g.mean for _, _, g in dets],
        [g.cov for _, _, g in dets],
    )
    if not np.all(batch.mask.any(axis=(1, 2))):
        raise ValueError("no frame has any detection; cannot initialize")
    return batch


@dataclass
class BatchResult:
    """Output of run_windows, per window b and frame j.

    means (B, T, 2) and covs (B, T, 2, 2) hold the filtered position
    marginal from the window's first non-empty frame, start[b], on (NaN
    before it). With truth, nlls (B, T) holds the NLL of the truth position
    under the marginal the NLL mode names (NaN where the mode defines no
    value) and nll_grads (B, T, K) its gradient over the tangent channels.
    failures maps each window whose recursion met a matrix that is not
    positive definite to the earliest one: (t, leading minor, its value).
    """

    start: np.ndarray
    means: np.ndarray
    covs: np.ndarray
    nlls: Optional[np.ndarray]
    nll_grads: Optional[np.ndarray]
    failures: dict[int, tuple[float, int, float]]


@dataclass
class TrackResult:
    """Output of run_sequence: one position marginal per frame from
    initialization on, as times (N,), means (N, 2) and covs (N, 2, 2).

    When truth is supplied, nlls holds the per-step NLL of the truth position
    under the reported marginal (NaN for steps where the chosen mode defines
    no value) and nll_grads its per-step gradient over the tangent channels.
    """

    times: np.ndarray
    means: np.ndarray
    covs: np.ndarray
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


def transition(dt) -> np.ndarray:
    """Constant-velocity transition matrix; dt of any shape gives (..., 4, 4)."""
    dt = np.asarray(dt, dtype=float)
    F = np.broadcast_to(np.eye(4), dt.shape + (4, 4)).copy()
    F[..., 0, 2] = dt
    F[..., 1, 3] = dt
    return F


def process_noise(sigma_accel: float, dt) -> np.ndarray:
    """Discretized white-noise-acceleration covariance, per axis; dt of any
    shape gives (..., 4, 4)."""
    dt = np.asarray(dt, dtype=float)
    s2 = sigma_accel * sigma_accel
    q_pp = s2 * dt**4 / 4.0
    q_pv = s2 * dt**3 / 2.0
    q_vv = s2 * dt**2
    Q = np.zeros(dt.shape + (4, 4))
    Q[..., 0, 0] = Q[..., 1, 1] = q_pp
    Q[..., 0, 2] = Q[..., 2, 0] = Q[..., 1, 3] = Q[..., 3, 1] = q_pv
    Q[..., 2, 2] = Q[..., 3, 3] = q_vv
    return Q


_EYE4 = np.eye(4)
_ADJUGATE_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])


def _T(M: np.ndarray) -> np.ndarray:
    return M.swapaxes(-1, -2)


def _sym(P: np.ndarray) -> np.ndarray:
    return (P + _T(P)) / 2.0


def _det2(S: np.ndarray) -> np.ndarray:
    return S[..., 0, 0] * S[..., 1, 1] - S[..., 0, 1] * S[..., 1, 0]


def _inv2(S: np.ndarray) -> np.ndarray:
    """Closed-form inverse of (..., 2, 2) matrices; no check (see _is_pd)."""
    return _T(S)[..., ::-1, ::-1] * _ADJUGATE_SIGNS / _det2(S)[..., None, None]


def _is_pd(S: np.ndarray) -> np.ndarray:
    """Both leading minors of (..., 2, 2) matrices positive and finite."""
    det = _det2(S)
    return (S[..., 0, 0] > 0.0) & (det > 0.0) & (det < np.inf)


def _pd_error(S: np.ndarray, where: str = "") -> NotPositiveDefiniteError:
    """The error for one 2x2 matrix that failed _is_pd."""
    if not S[0, 0] > 0.0 or not np.isfinite(S[0, 0]):
        return NotPositiveDefiniteError(1, S[0, 0], where)
    return NotPositiveDefiniteError(2, _det2(S), where)


def _select(mask: np.ndarray, new: tuple, old: tuple) -> tuple:
    """Per window b, new[i][b] where mask[b] else old[i][b]."""
    return tuple(
        np.where(mask.reshape(mask.shape + (1,) * (a.ndim - mask.ndim)), a, o)
        for a, o in zip(new, old)
    )


def _fuse(mean, cov, mask, dR):
    """Collapse each frame's detections into one position pseudo-measurement.

    Information-form fusion over the view axis: R = (sum R_i^-1)^-1 and
    z = R sum R_i^-1 z_i, with tangents dz and dR over K channels from each
    detection's dR_i stack. mean is (..., V, 2), cov (..., V, 2, 2), mask
    (..., V) and dR (..., V, K, 2, 2). A frame with one detection returns it
    unchanged; a frame with none returns finite filler. Also returns the
    information matrix, whose positive definiteness the caller checks on
    frames with two or more detections.
    """
    m = mask[..., None, None]
    prec = np.where(m, _inv2(cov), 0.0)
    lam = prec.sum(axis=-3)
    eta = (prec @ mean[..., None])[..., 0].sum(axis=-2)
    dprec = -(prec[..., None, :, :] @ dR @ prec[..., None, :, :])
    dlam = dprec.sum(axis=-4)
    deta = (dprec @ mean[..., None, :, None])[..., 0].sum(axis=-3)
    count = mask.sum(axis=-1)
    R = _inv2(np.where((count > 0)[..., None, None], lam, np.eye(2)))
    dR_f = -(R[..., None, :, :] @ dlam @ R[..., None, :, :])
    z = (R @ eta[..., None])[..., 0]
    dz = (dR_f @ eta[..., None, :, None])[..., 0] + (R[..., None, :, :] @ deta[..., None])[..., 0]
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


def _init(z, R, dz, dR, init_vel_var: float):
    """State at a track's first frame: the fused detection for position,
    zero velocity with init_vel_var per axis, and no cross-covariance."""
    shape = z.shape[:-1]
    k = dz.shape[-2]
    x = np.zeros(shape + (4,))
    x[..., :2] = z
    P = np.zeros(shape + (4, 4))
    P[..., :2, :2] = R
    P[..., 2, 2] = P[..., 3, 3] = init_vel_var
    sx = np.zeros(shape + (k, 4))
    sx[..., :2] = dz
    sP = np.zeros(shape + (k, 4, 4))
    sP[..., :2, :2] = dR
    return x, _sym(P), sx, _sym(sP)


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
    dS = sP[..., :2, :2] + dR
    dK = (sP[..., :, :2] - K_gain[..., None, :, :] @ dS) @ S_inv[..., None, :, :]
    y = z - x[..., :2]
    dy = dz - sx[..., :2]

    A = _EYE4 - np.concatenate((K_gain, np.zeros(K_gain.shape)), axis=-1)
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


def _nll_grad(mu, sig, dmu, dsig, truth):
    """NLL of truth positions under N(mu, sig), with its gradient over the
    tangent channels of dmu (..., K, 2) and dsig (..., K, 2, 2)."""
    sig_inv = _inv2(sig)
    r = truth - mu
    w = (sig_inv @ r[..., None])[..., 0]
    value = LOG_TWO_PI + 0.5 * np.log(_det2(sig)) + 0.5 * (r * w).sum(axis=-1)
    grad = (
        0.5 * (dsig * _T(sig_inv)[..., None, :, :]).sum(axis=(-2, -1))
        - (dmu * w[..., None, :]).sum(axis=-1)
        - 0.5 * ((dsig @ w[..., None, :, None])[..., 0] * w[..., None, :]).sum(axis=-1)
    )
    return value, grad


def _record_failures(failures: dict, S: np.ndarray, valid: np.ndarray, t: np.ndarray) -> None:
    """Note each window's earliest matrix in S (B, n, ..., 2, 2) that counts
    (valid) and is not positive definite; t (B, n) gives frame times."""
    bad = valid & ~_is_pd(S)
    if not bad.any():
        return
    for b in np.flatnonzero(bad.reshape(len(bad), -1).any(axis=1)):
        idx = tuple(np.argwhere(bad[b])[0])
        err = _pd_error(S[b][idx])
        if b not in failures or t[b, idx[0]] < failures[b][0]:
            failures[int(b)] = (float(t[b, idx[0]]), err.minor_index, err.minor_value)


def _position_blocks(B: int, n: int, k: int) -> list[np.ndarray]:
    """Storage for n steps of the position marginal and its tangents."""
    return [np.zeros((B, n) + shape) for shape in ((2,), (2, 2), (k, 2), (k, 2, 2))]


def _store(blocks: list[np.ndarray], jj: int, state: tuple) -> None:
    x, P, sx, sP = state
    blocks[0][:, jj] = x[..., :2]
    blocks[1][:, jj] = P[..., :2, :2]
    blocks[2][:, jj] = sx[..., :2]
    blocks[3][:, jj] = sP[..., :2, :2]


def _tangent_views(calib: Optional[dict[str, CalibrationParams]], n_params: int) -> tuple[str, ...]:
    if n_params == 1:
        return ()
    views = tuple(sorted(calib or {}))
    if n_params != 1 + 2 * len(views):
        raise ValueError(
            f"n_params must be 1 or 1 + 2 * {len(views)} calibrated views, got {n_params}"
        )
    return views


def run_windows(
    batch: FrameBatch,
    params: FilterParams,
    truth: Optional[np.ndarray] = None,
    calib: Optional[dict[str, CalibrationParams]] = None,
    n_params: int = 1,
    nll_mode: str = "filtered",
) -> BatchResult:
    """Filter B windows at once; the one recursion of the tracker.

    Each window initializes on its first non-empty frame, then alternates
    predict and update using the actual timestamp gaps. ``calib`` rescales
    each view's detection covariances before fusion (calibration.obs_transform;
    views without an entry pass through). ``n_params`` is the tangent
    width: 1 carries only sigma_accel, and 1 + 2 * len(calib) also carries
    d/da and d/db of each calibrated view, in sorted view order.

    ``truth`` (B, T, 2), when given, scores the filtered (post-update)
    marginal by default, or the predictive (pre-update) marginal with
    nll_mode="predictive", which defines no value for a window's first
    step. A window whose recursion meets a matrix that is not positive
    definite is listed in the result's failures; its values are not
    meaningful, and its batch-mates are unaffected.
    """
    if nll_mode not in ("filtered", "predictive"):
        raise ValueError(f"unknown nll_mode {nll_mode!r}")
    tangent_views = _tangent_views(calib, n_params)
    B, T, V = batch.mask.shape
    if truth is not None:
        truth = np.asarray(truth, dtype=float)
        if truth.shape != (B, T, 2):
            raise ValueError(f"truth shape {truth.shape} does not match the frames' {(B, T, 2)}")
    predictive = nll_mode == "predictive"
    sigma = params.sigma_accel
    has = batch.mask.any(axis=-1)
    start = has.argmax(axis=1)
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
    grads = np.full((B, T, n_params), np.nan) if truth is not None else None
    failures: dict[int, tuple[float, int, float]] = {}
    state = (
        np.zeros((B, 4)),
        np.broadcast_to(np.eye(4), (B, 4, 4)).copy(),
        np.zeros((B, n_params, 4)),
        np.zeros((B, n_params, 4, 4)),
    )
    block = max(1, BLOCK_MATRICES // (B * max(V, 1) * n_params))
    with np.errstate(all="ignore"):
        for lo in range(first, T, block):
            sl = slice(lo, min(lo + block, T))
            t, mask = batch.t[:, sl], batch.mask[:, sl]
            cov, dR = calibration.obs_transform(
                calib or {}, batch.views, batch.cov[:, sl], tangent_views
            )
            _record_failures(failures, cov, mask, t)
            z, R, dz, dR, lam = _fuse(batch.mean[:, sl], cov, mask, dR)
            _record_failures(failures, lam, mask.sum(axis=-1) > 1, t)
            F = transition(dt[:, sl])
            Q = process_noise(sigma, dt[:, sl])
            dQ = 2.0 * Q / sigma

            n = sl.stop - sl.start
            filtered = _position_blocks(B, n, n_params)
            predicted = _position_blocks(B, n, n_params) if predictive else None
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
                    if predictive:
                        _store(predicted, jj, pred)
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
            if predictive:
                scored = run[:, sl]
                _record_failures(failures, predicted[1], scored, t)
            else:
                scored, predicted = ~before, filtered
            value, grad = _nll_grad(*predicted, truth[:, sl])
            nlls[:, sl] = np.where(scored, value, np.nan)
            grads[:, sl] = np.where(scored[..., None], grad, np.nan)
    return BatchResult(start, means, covs, nlls, grads, failures)


def run_track(
    batch: FrameBatch,
    params: FilterParams,
    truth: Optional[np.ndarray] = None,
    calib: Optional[dict[str, CalibrationParams]] = None,
    n_params: int = 1,
    nll_mode: str = "filtered",
) -> TrackResult:
    """Filter one sequence, a batch of B = 1: run_windows, with the track
    from its first non-empty frame on.

    ``truth``, when given, must hold one 2-vector per frame. Raises
    NotPositiveDefiniteError, naming the frame time, if the recursion meets
    a matrix that is not positive definite.
    """
    if truth is not None:
        truth = np.asarray(truth, dtype=float)[None]
    result = run_windows(batch, params, truth, calib, n_params, nll_mode)
    if result.failures:
        t, minor, value = result.failures[0]
        raise NotPositiveDefiniteError(minor, value, where=f"frame at t={t!r}")
    s = int(result.start[0])
    return TrackResult(
        times=batch.t[0, s:],
        means=result.means[0, s:],
        covs=result.covs[0, s:],
        nlls=None if truth is None else result.nlls[0, s:],
        nll_grads=None if truth is None else result.nll_grads[0, s:],
    )


def run_sequence(
    frames: Sequence[DetectionFrame],
    params: FilterParams,
    truth: Optional[np.ndarray] = None,
    calib: Optional[dict[str, CalibrationParams]] = None,
    n_params: int = 1,
    nll_mode: str = "filtered",
) -> TrackResult:
    """run_track over frames given as DetectionFrame objects."""
    return run_track(pack([frames]), params, truth, calib, n_params, nll_mode)
