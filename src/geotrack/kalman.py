"""Constant-velocity multi-observation Kalman tracker over 4-D latent state.

The latent state is (px, py, vx, vy) in cm and cm/s. Any number of
simultaneous detections updates the state per step under the assumption that
they are mutually conditionally independent given the state. Every detection
observes position directly, so a frame's detections collapse exactly into one
information-form pseudo-measurement (product of Gaussians); the update is
algebraically identical to a stacked joint update, and fusion automatically
weights low-uncertainty detections more heavily.

The NLL is that of the truth position under the filtered (post-update)
marginal. For its gradient every state carries a stack of forward-mode
tangents (d state / d parameter), one channel per tunable: channel 0 is the
acceleration-noise parameter sigma_accel, and each calibrated view, in
sorted order, adds channels for its a and b, whose covariance tangents are
sparse (dR/da its raw covariance, dR/db = I, zero for other views), so
fusion forms each view's two products alone. Without truth, or with
grad=False, no tangent is carried: the NLL is scored from the same
expression, so its values are the same bits, with no gradient.

Array layout. The filter has one recursion, ``run_windows``, over a
FrameBatch of B equal-length windows of T frames and V views: times (B, T),
detection means (B, T, V, 2), covariances (B, T, V, 2, 2) and a presence
mask (B, T, V). It is vectorised over the B windows and the K tangent
channels, and parallel in time: each frame is a filtering element
(A, b, C, eta, J), and one work-efficient (Blelloch) inclusive scan of the
elements along the frame axis gives every filtered state, each level of the
scan one batched operation (Särkkä and García-Fernández, "Temporal
parallelization of Bayesian smoothers", IEEE TAC 66(1), 2021). The tangents
follow from the filtered covariances: with the optimal gain they obey two
affine recursions that share each frame's transition (I - K H) F, one more
scan each, run only when a gradient is asked for. Frames go in blocks
of SCAN_FRAMES, a length that depends on T alone, each block carrying on
from the last state of the one before, and windows go in chunks that bound
the working memory (CHUNK_MATRICES). Per block, the per-view calibration
of the detection covariances, the information-form fusion of each frame,
the transition and process noise, and the NLL of the reported marginals
with its gradient are computed in bulk. ``run_track`` is the B = 1 case,
and takes the batch dataio.read_detections or simulator.simulate returns.
Nothing mutates.

``DetectionFrame``, ``pack`` and ``run_sequence`` (run_track over frames
given as DetectionFrame objects) have no pipeline caller. They remain only
for tests and for perfbench's filter hook (perfbench/layers.py), which
binds ``run_sequence``'s signature, until that hook moves to run_track.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import calibration
from .calibration import CalibrationParams
from .core import LOG_TWO_PI, Gaussian2D, NotPositiveDefiniteError

# Frames per scan block. It depends on the window length alone, so that a
# window's arithmetic, and so its result, does not depend on its batch-mates.
SCAN_FRAMES = 1 << 9
# 2x2 matrices per chunk of windows, which bounds the working memory of a
# block whatever the batch shape. A window-frame counts max(V, 4) * (K + 3):
# the tangents grow with 4 * K, the filter's own elements and scan take about
# as much as three channels, and fusion (a few per view, two per channel)
# fits inside that.
CHUNK_MATRICES = 1 << 14


@dataclass(frozen=True)
class FilterParams:
    """Filter parameters: acceleration noise std (cm/s^2) and the initial
    velocity variance ((cm/s)^2) used when a track starts."""

    sigma_accel: float
    init_vel_var: float = 1e4

    def __post_init__(self):
        if not 0.0 < self.sigma_accel < np.inf:
            raise ValueError(f"sigma_accel must be positive and finite, got {self.sigma_accel}")
        if not 0.0 < self.init_vel_var < np.inf:
            raise ValueError(f"init_vel_var must be positive and finite, got {self.init_vel_var}")


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
        """The windows at the given row indices; with an index (rows,
        frames), those frames of them."""
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
    under that marginal (NaN before the start) and nll_grads (B, T, K) its
    gradient over the K tangent channels, None without a gradient.
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
    """Output of run_track: one position marginal per frame from
    initialization on, as times (N,), means (N, 2) and covs (N, 2, 2).

    When truth is supplied, nlls holds the per-step NLL of the truth position
    under the reported marginal and nll_grads its per-step gradient over the
    tangent channels, None without a gradient.
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


def _fuse(mean, cov, mask, raw, channels, k: int):
    """Collapse each frame's detections into one position pseudo-measurement.

    Information-form fusion over the view axis: R = (sum R_i^-1)^-1 and
    z = R sum R_i^-1 z_i, with tangents dz and dR over k channels. mean is
    (..., V, 2), cov (..., V, 2, 2) calibrated, raw uncalibrated and mask
    (..., V). View i with channels[i] = c >= 0 has dR_i/da = raw_i on
    channel c and dR_i/db = I on c + 1, every other dR_i is zero, so each
    channel's d(sum R_i^-1) is one view's -R_i^-1 dR_i R_i^-1. A frame with
    one detection returns it unchanged; a frame with none returns finite
    filler. Also returns the information matrix, whose positive
    definiteness the caller checks on frames with two or more detections.
    """
    m = mask[..., None, None]
    prec = np.where(m, _inv2(cov), 0.0)
    lam = prec.sum(axis=-3)
    eta = (prec @ mean[..., None])[..., 0].sum(axis=-2)
    cols = np.flatnonzero(channels >= 0)
    slots = (channels[cols][:, None] + [0, 1]).ravel()
    p = prec[..., cols, :, :]
    dprec = np.stack((-(p @ raw[..., cols, :, :] @ p), -(p @ p)), axis=-3)
    shape = lam.shape[:-2] + (len(slots), 2)
    dlam = np.zeros(lam.shape[:-2] + (k, 2, 2))
    dlam[..., slots, :, :] = dprec.reshape(shape + (2,))
    deta = np.zeros(dlam.shape[:-1])
    deta[..., slots, :] = (dprec @ mean[..., cols, None, :, None]).reshape(shape)
    count = mask.sum(axis=-1)
    R = _inv2(np.where((count > 0)[..., None, None], lam, np.eye(2)))
    dR_f = -(R[..., None, :, :] @ dlam @ R[..., None, :, :])
    z = (R @ eta[..., None])[..., 0]
    dz = (dR_f @ eta[..., None, :, None])[..., 0] + (R[..., None, :, :] @ deta[..., None])[..., 0]
    one = count == 1
    if np.any(one):
        first = mask.argmax(axis=-1)

        def pick(a):
            idx = first.reshape(first.shape + (1,) * (a.ndim - first.ndim))
            return np.take_along_axis(a, idx, axis=first.ndim).squeeze(axis=first.ndim)

        z = np.where(one[..., None], pick(mean), z)
        R = np.where(one[..., None, None], pick(cov), R)
        dz = np.where(one[..., None, None], 0.0, dz)
        own = np.zeros(dR_f.shape)
        slot = channels[first]
        at = np.nonzero(one & (slot >= 0))
        own[at + (slot[at],)] = raw[at + (first[at],)]
        own[at + (slot[at] + 1,)] = np.eye(2)
        dR_f = np.where(one[..., None, None, None], own, dR_f)
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


def _nll(mu, sig, truth):
    """NLL of truth positions under N(mu, sig), with the sig^-1 and whitened
    residual w = sig^-1 (truth - mu) that its gradient takes."""
    sig_inv = _inv2(sig)
    r = truth - mu
    w = (sig_inv @ r[..., None])[..., 0]
    return LOG_TWO_PI + 0.5 * np.log(_det2(sig)) + 0.5 * (r * w).sum(axis=-1), sig_inv, w


def _nll_grad(sig_inv, w, dmu, dsig):
    """The gradient of _nll, from its sig^-1 and w, over the tangent
    channels of dmu (..., K, 2) and dsig (..., K, 2, 2)."""
    return (
        0.5 * (dsig * _T(sig_inv)[..., None, :, :]).sum(axis=(-2, -1))
        - (dmu * w[..., None, :]).sum(axis=-1)
        - 0.5 * ((dsig @ w[..., None, :, None])[..., 0] * w[..., None, :]).sum(axis=-1)
    )


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


def _inv4(M: np.ndarray) -> np.ndarray:
    """np.linalg.inv over a stack of matrices, NaN for one it finds singular.

    The scan inverts I + C J, whose eigenvalues are all at least 1 while C
    and J are positive semi-definite; only a window whose recursion already
    failed can hold a singular one, and it must not stop its batch-mates."""
    try:
        return np.linalg.inv(M)
    except np.linalg.LinAlgError:
        out = np.full(M.shape, np.nan)
        for m, o in zip(M.reshape((-1,) + M.shape[-2:]), out.reshape((-1,) + M.shape[-2:])):
            with contextlib.suppress(np.linalg.LinAlgError):
                o[...] = np.linalg.inv(m)
        return out


def _combine_filter(first: tuple, then: tuple) -> tuple:
    """The filtering element of element ``first`` followed by ``then``.

    An element (A, b, C, eta, J), with b and eta as (..., 4, 1) columns,
    maps the filtered state before it to the one after it (Särkkä and
    García-Fernández, IEEE TAC 66(1), 2021, Lemma 8)."""
    A1, b1, C1, eta1, J1 = first
    A2, b2, C2, eta2, J2 = then
    M = _inv4(_EYE4 + C1 @ J2)
    A2M = A2 @ M
    MA1t = _T(M @ A1)
    return (
        A2M @ A1,
        A2M @ (b1 + C1 @ eta2) + b2,
        A2M @ C1 @ _T(A2) + C2,
        MA1t @ (eta2 - J2 @ b1) + eta1,
        MA1t @ J2 @ A1 + J1,
    )


def _combine_congruence(first: tuple, then: tuple) -> tuple:
    """(Phi, D) elements of sP -> Phi sP Phi^T + D, D over K channels."""
    Phi1, D1 = first
    Phi2, D2 = then
    return Phi2 @ Phi1, Phi2[..., None, :, :] @ D1 @ _T(Phi2)[..., None, :, :] + D2


def _combine_affine(first: tuple, then: tuple) -> tuple:
    """(Phi, e) elements of sx -> Phi sx + e, sx and e (..., K, 4) rows."""
    Phi1, e1 = first
    Phi2, e2 = then
    return Phi2 @ Phi1, e1 @ _T(Phi2) + e2


def _scan(elements: tuple, combine) -> tuple:
    """Inclusive prefix scan of elements along axis 1, work-efficient: pairs
    combine on the way up, and each even position with the prefix before it
    on the way down (Blelloch), about 2n combines in 2 log2(n) batched
    steps."""
    n = elements[0].shape[1]
    if n == 1:
        return elements
    half = n // 2
    pairs = combine(
        tuple(e[:, 0 : 2 * half : 2] for e in elements),
        tuple(e[:, 1 : 2 * half : 2] for e in elements),
    )
    odd = _scan(pairs, combine)
    out = tuple(np.empty(e.shape) for e in elements)
    for o, e, p in zip(out, elements, odd):
        o[:, :1] = e[:, :1]
        o[:, 1::2] = p
    if n > 2:
        even = combine(
            tuple(p[:, : (n - 1) // 2] for p in odd), tuple(e[:, 2::2] for e in elements)
        )
        for o, q in zip(out, even):
            o[:, 2::2] = q
    return out


def _scan_after(carry: Optional[tuple], elements: tuple, combine) -> tuple:
    """_scan of elements preceded by the carry element (None: nothing)."""
    if carry is not None:
        head = combine(carry, tuple(e[:, :1] for e in elements))
        elements = tuple(np.concatenate((h, e[:, 1:]), axis=1) for h, e in zip(head, elements))
    return _scan(elements, combine)


def _by_frame(on_update: np.ndarray, kinds: tuple, on_predict, at_start, before_start):
    """on_update (B, n, ...), an array of the caller's own, with the other
    kinds of frame set in place; kinds holds (B, n) masks of the
    predict-only frames, the start frames and the frames before the start."""
    for mask, value in zip(kinds, (on_predict, at_start, before_start)):
        on_update[mask] = np.broadcast_to(value, on_update.shape)[mask]
    return on_update


def _gain(P: np.ndarray, R: np.ndarray) -> tuple:
    """Kalman gain K = P H^T S^-1 for the position observation, I - K H and
    S^-1, with S = P_pos + R and H = [I 0]."""
    S_inv = _inv2(P[..., :2, :2] + R)
    gain = P[..., :2] @ S_inv
    return gain, _EYE4 - np.concatenate((gain, np.zeros(gain.shape)), axis=-1), S_inv


def _complement(gain: np.ndarray, R: np.ndarray, S_inv: np.ndarray) -> np.ndarray:
    """I - K H for a gain K of _gain, with its position block formed as
    R S^-1: the same in exact arithmetic, but without the cancellation of
    I - P_pos S^-1 when P_pos dwarfs R, which the tangents would carry.
    The filter's elements keep _gain's form, whose bits every track
    carries."""
    G = np.zeros(gain.shape[:-2] + (4, 4))
    G[..., :2, :2] = R @ S_inv
    G[..., 2:, :2] = -gain[..., 2:, :]
    G[..., 2, 2] = G[..., 3, 3] = 1.0
    return G


def _shifted(carried: Optional[np.ndarray], a: np.ndarray) -> np.ndarray:
    """Each frame's value at the frame before it: carried (zeros when None)
    ahead of the block's first frame."""
    head = np.zeros_like(a[:, :1]) if carried is None else carried
    return np.concatenate((head, a[:, :-1]), axis=1)


class _Carry(NamedTuple):
    """The last frame of a block, for the next: the filter scan's prefix A
    (0 once a window has started, I before; so also the tangent scans'
    prefix Phi), and the filtered state with its tangents."""

    A: np.ndarray
    x: np.ndarray
    P: np.ndarray
    sx: Optional[np.ndarray]
    sP: Optional[np.ndarray]


def _filter_block(block, dt, start, truth, params, calib, tangent_views, carry, failures) -> tuple:
    """run_windows over a block of frames of some windows, with time steps
    dt and each window's start frame counted from the block's first frame,
    after the carry of the block before it (None for the first block).
    tangent_views None carries no tangents; otherwise truth is given.
    Returns the carry for the next block and the block's position means,
    covariances, NLLs and NLL gradients."""
    t = block.t
    z, R, dz, dR = _fused_frames(block, calib, tangent_views, failures)
    F = transition(dt)
    Q = process_noise(params.sigma_accel, dt)
    steps = np.arange(t.shape[1])
    before, at, run = (op(steps, start[:, None]) for op in (np.less, np.equal, np.greater))
    kinds = (run & ~block.mask.any(axis=-1), at, before)
    windows = np.arange(len(t))
    i = np.clip(start, 0, len(steps) - 1)
    x0, P0, sx0, sP0 = _init(
        z[windows, i], R[windows, i], dz[windows, i], dR[windows, i], params.init_vel_var
    )

    # The filter: one scan of elements (A, b, C, eta, J), the identity
    # before the start, the initial state at it, then a prediction with the
    # frame's fused detection folded in where there is one.
    gain, G, S_inv = _gain(Q, R)
    HF = F[..., :2, :]
    FtHt_Sinv = _T(HF) @ S_inv
    zc = z[..., None]
    elements = (
        _by_frame(G @ F, kinds, F, 0.0, _EYE4),
        _by_frame(gain @ zc, kinds, 0.0, x0[:, None, :, None], 0.0),
        _by_frame(G @ Q @ _T(G) + gain @ R @ _T(gain), kinds, Q, P0[:, None], 0.0),
        _by_frame(FtHt_Sinv @ zc, kinds, 0.0, 0.0, 0.0),
        _by_frame(FtHt_Sinv @ HF, kinds, 0.0, 0.0, 0.0),
    )
    head = None
    if carry is not None:
        zero = np.zeros(carry.P.shape)
        head = (carry.A, carry.x[..., None], carry.P, zero[..., :1], zero)
    A, xc, C = _scan_after(head, elements, _combine_filter)[:3]
    x, P = xc[..., 0], _sym(C)

    # The prediction into each frame, and the update's innovation S.
    xm = (F @ _shifted(carry and carry.x, x)[..., None])[..., 0]
    Pm = _sym(F @ _shifted(carry and carry.P, P) @ _T(F) + Q)
    upd = run & ~kinds[0]
    _record_failures(failures, Pm[..., :2, :2] + R, upd, t)
    _record_failures(failures, P[..., :2, :2], ~before, t)
    out_x = np.where(before[..., None], np.nan, x[..., :2])
    out_P = np.where(before[..., None, None], np.nan, P[..., :2, :2])
    value = None
    if truth is not None:
        value, sig_inv, w = _nll(x[..., :2], P[..., :2, :2], truth)
        value = np.where(before, np.nan, value)
    if tangent_views is None:
        return _Carry(A[:, -1:], x[:, -1:], P[:, -1:], None, None), out_x, out_P, value, None

    # The tangents. With the optimal gain the Joseph form is stationary in
    # the gain, so sP and sx follow affine recursions that share
    # Phi = (I - K H) F: sP -> Phi sP Phi^T + D and sx -> Phi sx + e.
    gain, _, S_inv = _gain(Pm, R)
    G = _complement(gain, R, S_inv)
    Phi = _by_frame(G @ F, kinds, F, 0.0, _EYE4)
    # Only the sigma_accel channel sees process noise: dQ/dsigma = 2 Q / sigma.
    dQ = 2.0 * Q / params.sigma_accel
    D = gain[..., None, :, :] @ dR @ _T(gain)[..., None, :, :]
    D[..., 0, :, :] += G @ dQ @ _T(G)
    D = _by_frame(D, kinds, 0.0, sP0[:, None], 0.0)
    D[kinds[0], 0] = dQ[kinds[0]]
    sP = _sym(_scan_after(carry and (carry.A, carry.sP), (Phi, D), _combine_congruence)[1])

    sPm = F[..., None, :, :] @ _shifted(carry and carry.sP, sP) @ _T(F)[..., None, :, :]
    sPm[..., 0, :, :] += dQ
    sPm = _sym(sPm)
    # dK = (sPm H^T - K (H sPm H^T + dR)) S^-1, with (I - K H) from _complement.
    dK = (G[..., None, :, :] @ sPm[..., :2] - gain[..., None, :, :] @ dR) @ S_inv[..., None, :, :]
    y = z - xm[..., :2]
    e = (dK @ y[..., None, :, None])[..., 0] + dz @ _T(gain)
    e = _by_frame(e, kinds, 0.0, sx0[:, None], 0.0)
    sx = _scan_after(carry and (carry.A, carry.sx), (Phi, e), _combine_affine)[1]

    grad = _nll_grad(sig_inv, w, sx[..., :2], sP[..., :2, :2])
    return (
        _Carry(A[:, -1:], x[:, -1:], P[:, -1:], sx[:, -1:], sP[:, -1:]),
        out_x,
        out_P,
        value,
        np.where(before[..., None], np.nan, grad),
    )


def _fused_frames(block: FrameBatch, calib, tangent_views, failures) -> tuple:
    """The calibrated, fused detection of each frame of a block, z and R
    with their tangents dz and dR (see _fuse); notes each window's first
    calibrated covariance and fused information that is not positive
    definite."""
    t, mask = block.t, block.mask
    cov = calibration.obs_transform(calib or {}, block.views, block.cov)
    _record_failures(failures, cov, mask, t)
    k = 0 if tangent_views is None else 1 + 2 * len(tangent_views)
    views = list(tangent_views or ())
    channels = np.array([1 + 2 * views.index(v) if v in views else -1 for v in block.views], int)
    z, R, dz, dR, lam = _fuse(block.mean, cov, mask, block.cov, channels, k)
    _record_failures(failures, lam, mask.sum(axis=-1) > 1, t)
    return z, R, dz, dR


def run_windows(
    batch: FrameBatch,
    params: FilterParams,
    truth: Optional[np.ndarray] = None,
    calib: Optional[dict[str, CalibrationParams]] = None,
    grad: bool = True,
) -> BatchResult:
    """Filter B windows at once; the one recursion of the tracker.

    Each window initializes on its first non-empty frame, then alternates
    predict and update using the actual timestamp gaps. ``calib`` rescales
    each view's detection covariances before fusion (calibration.obs_transform;
    views without an entry pass through).

    ``truth`` (B, T, 2), when given, scores the filtered (post-update)
    marginal of each frame from the window's start on. With ``grad`` the
    NLL's gradient comes too, over 1 + 2 * len(calib) tangent channels:
    sigma_accel, then d/da and d/db of each calibrated view in sorted view
    order. With grad=False, or without truth, no tangent is carried; the
    NLLs are the same bits, and the gradient is None. A window whose
    recursion meets a matrix that is not positive definite is listed in the
    result's failures; its values are not meaningful, and its batch-mates
    are unaffected.
    """
    B, T, V = batch.mask.shape
    tangent_views = None
    if truth is not None:
        truth = np.asarray(truth, dtype=float)
        if truth.shape != (B, T, 2):
            raise ValueError(f"truth shape {truth.shape} does not match the frames' {(B, T, 2)}")
        if grad:
            tangent_views = tuple(sorted(calib or {}))
    k = 0 if tangent_views is None else 1 + 2 * len(tangent_views)
    start = batch.mask.any(axis=-1).argmax(axis=1)
    dt = np.diff(batch.t, axis=1, prepend=batch.t[:, :1] - 1.0)

    means = np.full((B, T, 2), np.nan)
    covs = np.full((B, T, 2, 2), np.nan)
    nlls = np.full((B, T), np.nan) if truth is not None else None
    grads = np.full((B, T, k), np.nan) if k else None
    failures: dict[int, tuple[float, int, float]] = {}
    frames = min(T, SCAN_FRAMES)
    chunk = max(1, CHUNK_MATRICES // (frames * max(V, 4) * (k + 3)))
    with np.errstate(all="ignore"):
        for lo in range(0, B, chunk):
            rows = slice(lo, lo + chunk)
            found: dict[int, tuple[float, int, float]] = {}
            carry = None
            for first in range(0, T, frames):
                cols = slice(first, min(first + frames, T))
                carry, x, P, nll, nll_grad = _filter_block(
                    batch.take((rows, cols)),
                    dt[rows, cols],
                    start[rows] - first,
                    None if truth is None else truth[rows, cols],
                    params,
                    calib,
                    tangent_views,
                    carry,
                    found,
                )
                means[rows, cols] = x
                covs[rows, cols] = P
                if truth is not None:
                    nlls[rows, cols] = nll
                if grads is not None:
                    grads[rows, cols] = nll_grad
            failures.update((lo + b, failure) for b, failure in found.items())
    return BatchResult(start, means, covs, nlls, grads, failures)


def run_track(
    batch: FrameBatch,
    params: FilterParams,
    truth: Optional[np.ndarray] = None,
    calib: Optional[dict[str, CalibrationParams]] = None,
    grad: bool = True,
) -> TrackResult:
    """Filter one sequence, a batch of B = 1: run_windows, with the track
    from its first non-empty frame on.

    ``truth``, when given, must hold one 2-vector per frame. Raises
    NotPositiveDefiniteError, naming the frame time, if the recursion meets
    a matrix that is not positive definite.
    """
    if truth is not None:
        truth = np.asarray(truth, dtype=float)[None]
    result = run_windows(batch, params, truth, calib, grad)
    if result.failures:
        t, minor, value = result.failures[0]
        raise NotPositiveDefiniteError(minor, value, where=f"frame at t={t!r}")
    s = int(result.start[0])
    return TrackResult(
        times=batch.t[0, s:],
        means=result.means[0, s:],
        covs=result.covs[0, s:],
        nlls=None if truth is None else result.nlls[0, s:],
        nll_grads=None if result.nll_grads is None else result.nll_grads[0, s:],
    )


def run_sequence(
    frames: Sequence[DetectionFrame],
    params: FilterParams,
    truth: Optional[np.ndarray] = None,
    calib: Optional[dict[str, CalibrationParams]] = None,
    grad: bool = True,
) -> TrackResult:
    """run_track over frames given as DetectionFrame objects."""
    return run_track(pack([frames]), params, truth, calib, grad)
