"""Constant-velocity multi-observation Kalman tracker over 4-D latent state.

The latent state is (px, py, vx, vy) in cm and cm/s. Any number of
simultaneous detections updates the state per step under the assumption that
they are mutually conditionally independent given the state. Every detection
observes position directly, so a frame's detections collapse exactly into one
information-form pseudo-measurement (product of Gaussians); the update is
algebraically identical to a stacked joint update, and fusion automatically
weights low-uncertainty detections more heavily.

The NLL is that of the truth position under the filtered (post-update)
marginal. Its gradient over sigma_accel and each calibrated view's a and b
(dR/da its raw covariance, dR/db = I) is taken in reverse mode, for about
one channel's cost whatever their number (Giles, "An extended collection
of matrix derivative results for forward and reverse mode automatic
differentiation", 2008). Without truth, or with grad=False, there is no
backward pass, and the NLLs are the same bits.

Array layout. The filter has one recursion, ``run_windows``, over a
FrameBatch of B equal-length windows of T frames and V views: times (B, T),
detection means (B, T, V, 2), covariances (B, T, V, 2, 2) and a presence
mask (B, T, V). It is vectorised over the windows and parallel in time:
each frame is a filtering element (A, b, C, eta, J), and one
work-efficient (Blelloch) inclusive scan of the elements along the frame
axis gives every filtered state (Särkkä and García-Fernández, "Temporal
parallelization of Bayesian smoothers", IEEE TAC 66(1), 2021). The
adjoints lambda of the filtered means and Lambda of the covariances are
two more scans, over the reversed frames: with Phi = (I - K H) F,
v = H^T S^-1 y and each frame's NLL seeds a = -w and A = (Sigma^-1 -
w w^T) / 2 (w = Sigma^-1 r), lambda_{t-1} = H^T a_{t-1} + Phi_t^T lambda_t
and Lambda_{t-1} = H^T A_{t-1} H + Phi_t^T Lambda_t Phi_t +
F_t^T sym((I - K H)_t^T lambda_t v_t^T) F_t. Each frame then contracts
them once with dQ/dsigma and, through the fusion's adjoint, with its
detections' dR/da and dR/db. Frames go in blocks of SCAN_FRAMES, a length
that depends on T alone, each block carrying on from the last state of the
one before and, backwards, from the adjoint the one after hands back;
windows go in chunks that bound the working memory (CHUNK_MATRICES).
Calibration, fusion, the process model and the NLL run in bulk per block.
Where the blocks from the boundary nearest T / 2 on (the fold) hold at least
forking.SPLIT_BYTES, counted at one 32-byte covariance a view-frame, each
of them is filtered in two halves: a carry-free one (calibration, fusion,
the process model, the elements and their scan, from the identity at the
fold and for each later block after the last prefix element of the one
before) and a carry-dependent one, which folds the carry at the fold into
the block's prefixes with one batched combine, then checks, outputs and
scores the block. That rule depends on T and V alone, so a window's bits
depend on neither its batch-mates nor the host; of the benchmark's tracks,
long_track's 10,000-frame, 8-view one folds and the 2400-frame ones do not.
A batch is filtered in two ranges through forking.split_work, the fork
protocol dataio's reads and writes share, and where split_work hands back
None (no child ran, or it failed) this process does the second range itself
with the same arithmetic, so the bits are those of one pass:
- a batch of one chunk that folds, in time: a forked child runs the
  carry-free half of the blocks from the fold on while this process filters
  the blocks before it, then this process takes the child's blocks from an
  unnamed temporary file, one pickle a block, and runs their carry-dependent
  half. The backward pass does not split;
- any other batch, across windows: where the chunks from the boundary
  nearest B / 2 on hold at least forking.SPLIT_BYTES of working set, a
  forked child filters them while this process filters the chunks before
  it, then this process takes the child's rows (and its failures, keyed by
  batch row). tune's train gradient passes split; its validation passes,
  one chunk, do not.
``run_track`` is the B = 1 case without a gradient, and takes the batch
dataio.read_detections or simulator.simulate returns. Nothing mutates.

``DetectionFrame``, ``pack`` and ``run_sequence`` (run_track over frames
given as DetectionFrame objects) have no pipeline caller. They remain only
for tests and for perfbench's filter hook (perfbench/layers.py), which
binds ``run_sequence``'s signature, until that hook moves to run_windows.
"""

from __future__ import annotations

import contextlib
import pickle
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import calibration, forking
from .calibration import CalibrationParams
from .core import Gaussian2D, NotPositiveDefiniteError, _inv2, _is_pd, _nll, _pd_error
from .forking import split_work

# Frames per scan block. It depends on the window length alone, so that a
# window's arithmetic, and so its result, does not depend on its batch-mates.
SCAN_FRAMES = 1 << 9
# 2x2 matrices per chunk of windows, which bounds the working memory of a
# block whatever the batch shape. A window-frame counts max(V, 4) * 3 for
# the filter's elements, scan and fusion, and max(V, 4) * 5 with a gradient,
# whose tape and two one-channel scans do not grow with the views.
CHUNK_MATRICES = 1 << 14


@dataclass(frozen=True)
class FilterParams:
    """Filter parameters: acceleration noise std (cm/s^2) and the initial
    velocity variance ((cm/s)^2) used when a track starts."""

    sigma_accel: float
    init_vel_var: float = 1e4

    def __post_init__(self):
        object.__setattr__(self, "sigma_accel", float(self.sigma_accel))
        object.__setattr__(self, "init_vel_var", float(self.init_vel_var))
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
    def scatter(cls, t: np.ndarray, views: Sequence[str], pieces) -> "FrameBatch":
        """The batch over times t (B, T) of flat detections, given in pieces
        (frames, columns, mean, cov): a piece's detection i is view
        views[columns[i]]'s, mean[i] (2,) and cov[i] (2, 2), in the frame at
        flat index frames[i] of t. views holds distinct ids in any order; the
        batch's views are the sorted ids. Each piece is scattered as it is
        taken, so an iterator of pieces need not hold them all at once."""
        order = sorted(range(len(views)), key=views.__getitem__)
        shape = (*t.shape, len(order))
        # The sorted column of each of views, indexed by the detection's column.
        sorted_column = np.argsort(order)
        full_mean = np.zeros((t.size * len(order), 2))
        full_cov = np.broadcast_to(np.eye(2), (len(full_mean), 2, 2)).copy()
        mask = np.zeros(len(full_mean), dtype=bool)
        for frames, columns, mean, cov in pieces:
            slots = sorted_column[np.asarray(columns, dtype=np.intp)]
            slots += np.asarray(frames, dtype=np.intp) * len(order)
            full_mean[slots] = np.reshape(mean, (-1, 2))
            full_cov[slots] = np.reshape(cov, (-1, 2, 2))
            mask[slots] = True
        return cls(
            tuple(views[i] for i in order),
            t,
            full_mean.reshape(shape + (2,)),
            full_cov.reshape(shape + (2, 2)),
            mask.reshape(shape),
        )


def pack(windows: Sequence[Sequence[DetectionFrame]]) -> FrameBatch:
    """Pack equal-length windows of frames into a FrameBatch.

    The views are the sorted ids seen in any window. Each window needs
    strictly increasing timestamps.
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
    views: dict[str, int] = {}
    columns = [views.setdefault(v, len(views)) for _, v, _ in dets]
    piece = ([i for i, _, _ in dets], columns, [g.mean for _, _, g in dets], [g.cov for _, _, g in dets])
    return FrameBatch.scatter(t, list(views), [piece])


@dataclass
class BatchResult:
    """Output of run_windows, per window b and frame j.

    means (B, T, 2) and covs (B, T, 2, 2) hold the filtered position
    marginal from the window's first non-empty frame, start[b], on (NaN
    before it; start[b] is T for a window without a detection, whose
    outputs are all NaN and whose gradient is zero). With truth, nlls
    (B, T) holds the NLL of the truth position under that marginal (NaN
    before the start) and grad (B, K) the gradient of each window's summed
    NLL over the K parameters, None without a gradient. failures maps each
    window whose recursion met a matrix that is not positive definite to
    the earliest one: (t, leading minor, its value).
    """

    start: np.ndarray
    means: np.ndarray
    covs: np.ndarray
    nlls: Optional[np.ndarray]
    grad: Optional[np.ndarray]
    failures: dict[int, tuple[float, int, float]]


@dataclass
class TrackResult:
    """Output of run_track: one position marginal per frame from
    initialization on, as times (N,), means (N, 2) and covs (N, 2, 2).

    When truth is supplied, nlls holds the per-step NLL of the truth position
    under the reported marginal.
    """

    times: np.ndarray
    means: np.ndarray
    covs: np.ndarray
    nlls: Optional[np.ndarray]

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
    # Products, not powers: numpy's x**3 and x**4 take SIMD paths whose last
    # bit depends on the CPU, and x * x on none.
    dt2 = dt * dt
    q_pp = s2 * (dt2 * dt2) / 4.0
    q_pv = s2 * (dt2 * dt) / 2.0
    q_vv = s2 * dt2
    Q = np.zeros(dt.shape + (4, 4))
    Q[..., 0, 0] = Q[..., 1, 1] = q_pp
    Q[..., 0, 2] = Q[..., 2, 0] = Q[..., 1, 3] = Q[..., 3, 1] = q_pv
    Q[..., 2, 2] = Q[..., 3, 3] = q_vv
    return Q


_EYE4 = np.eye(4)


def _T(M: np.ndarray) -> np.ndarray:
    return M.swapaxes(-1, -2)


def _sym(P: np.ndarray) -> np.ndarray:
    return (P + _T(P)) / 2.0


def _fuse(mean, cov, mask):
    """Collapse each frame's detections into one position pseudo-measurement.

    Information-form fusion over the view axis: R = (sum R_i^-1)^-1 and
    z = R sum R_i^-1 z_i. mean is (..., V, 2), cov (..., V, 2, 2)
    calibrated and mask (..., V). A frame with one detection returns it
    unchanged; a frame with none returns finite filler. Also returns each
    detection's precision R_i^-1 (zero where absent), and the information
    matrix, which the caller checks on frames with two or more detections.
    """
    prec = np.where(mask[..., None, None], _inv2(cov), 0.0)
    lam = prec.sum(axis=-3)
    eta = (prec @ mean[..., None])[..., 0].sum(axis=-2)
    count = mask.sum(axis=-1)
    R = _inv2(np.where((count > 0)[..., None, None], lam, np.eye(2)))
    z = (R @ eta[..., None])[..., 0]
    one = count == 1
    if np.any(one):
        first = mask.argmax(axis=-1)

        def pick(a):
            idx = first.reshape(first.shape + (1,) * (a.ndim - first.ndim))
            return np.take_along_axis(a, idx, axis=first.ndim).squeeze(axis=first.ndim)

        z = np.where(one[..., None], pick(mean), z)
        R = np.where(one[..., None, None], pick(cov), R)
    return z, R, prec, lam


def _fuse_adjoint(M, m, z, R, mean, prec, mask):
    """The adjoint of _fuse: from the adjoints M (..., 2, 2), symmetric, of
    each frame's fused R and m (..., 2) of its z, the adjoint N_i
    (..., V, 2, 2) of each detection's covariance R_i. With P_i = R_i^-1,
    dR = R (sum P_i dR_i P_i) R and dz = R sum P_i dR_i P_i (z - z_i), so
    N_i = P_i R M R P_i + sym(P_i R m (z - z_i)^T P_i); a lone detection is
    the fused one, N_i = M, and an absent one gets zero."""
    PiR = prec @ R[..., None, :, :]
    u = (PiR @ m[..., None, :, None])[..., 0]
    r = (prec @ (z[..., None, :] - mean)[..., None])[..., 0]
    N = PiR @ M[..., None, :, :] @ _T(PiR) + _sym(u[..., :, None] * r[..., None, :])
    N = np.where((mask.sum(axis=-1) == 1)[..., None, None, None], M[..., None, :, :], N)
    return np.where(mask[..., None, None], N, 0.0)


def _init(z, R, init_vel_var: float):
    """State at a track's first frame: the fused detection for position,
    zero velocity with init_vel_var per axis, and no cross-covariance."""
    x, P = np.zeros(z.shape[:-1] + (4,)), np.zeros(z.shape[:-1] + (4, 4))
    x[..., :2], P[..., :2, :2] = z, R
    P[..., 2, 2] = P[..., 3, 3] = init_vel_var
    return x, _sym(P)


def _note_failure(failures: dict, b: int, failure: tuple) -> None:
    """Keep failure (t, minor, value) for window b if it is the window's
    earliest; of two at one time, the one noted first."""
    if b not in failures or failure[0] < failures[b][0]:
        failures[b] = failure


def _record_failures(failures: dict, S: np.ndarray, valid: np.ndarray, t: np.ndarray) -> None:
    """Note each window's earliest matrix in S (B, n, ..., 2, 2) that counts
    (valid) and is not positive definite; t (B, n) gives frame times."""
    bad = valid & ~_is_pd(S)
    if not bad.any():
        return
    for b in np.flatnonzero(bad.reshape(len(bad), -1).any(axis=1)):
        idx = tuple(np.argwhere(bad[b])[0])
        err = _pd_error(S[b][idx])
        _note_failure(failures, int(b), (float(t[b, idx[0]]), err.minor_index, err.minor_value))


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
    """(A, D) elements of a symmetric U -> A U A^T + D."""
    A1, D1 = first
    A2, D2 = then
    return A2 @ A1, A2 @ D1 @ _T(A2) + D2


def _combine_affine(first: tuple, then: tuple) -> tuple:
    """(A, c) elements of a (..., 4, 1) column u -> A u + c."""
    A1, c1 = first
    A2, c2 = then
    return A2 @ A1, A2 @ c1 + c2


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


def _scan_back(elements: tuple, combine) -> tuple:
    """_scan from the last frame to the first."""
    return tuple(e[:, ::-1] for e in _scan(tuple(e[:, ::-1] for e in elements), combine))


def _by_frame(on_update: np.ndarray, kinds: tuple, on_predict, at_start, before_start):
    """on_update (B, n, ...), an array of the caller's own, with the other
    kinds of frame set in place; kinds holds (B, n) masks of the
    predict-only frames, the start frames and the frames before the start."""
    for mask, value in zip(kinds, (on_predict, at_start, before_start)):
        on_update[mask] = np.broadcast_to(value, on_update.shape)[mask]
    return on_update


def _gain(P: np.ndarray, R: np.ndarray) -> tuple:
    """Kalman gain K = P H^T S^-1 for the position observation, G = I - K H
    and S^-1, with S = P_pos + R and H = [I 0]. G's position block,
    I - P_pos S^-1, is formed as R S^-1: the same in exact arithmetic, but
    without the cancellation when P_pos dwarfs R."""
    S_inv = _inv2(P[..., :2, :2] + R)
    gain = P[..., :2] @ S_inv
    G = np.zeros(gain.shape[:-2] + (4, 4))
    G[..., :2, :2] = R @ S_inv
    G[..., 2:, :2] = -gain[..., 2:, :]
    G[..., 2, 2] = G[..., 3, 3] = 1.0
    return gain, G, S_inv


def _shifted(carried: Optional[np.ndarray], a: np.ndarray) -> np.ndarray:
    """Each frame's value at the frame before it: carried (zeros when None)
    ahead of the block's first frame."""
    head = np.zeros_like(a[:, :1]) if carried is None else carried
    return np.concatenate((head, a[:, :-1]), axis=1)


def _next(a: np.ndarray) -> np.ndarray:
    """Each frame's value at the frame after it, zeros after the last."""
    return np.concatenate((a[:, 1:], np.zeros_like(a[:, :1])), axis=1)


class _Carry(NamedTuple):
    """The last frame of a block, for the next: the filter scan's prefix A
    (0 once a window has started, I before) and the filtered state."""

    A: np.ndarray
    x: np.ndarray
    P: np.ndarray

    def element(self) -> tuple:
        """The filtering element that sets the state to this one."""
        zero = np.zeros(self.P.shape)
        return self.A, self.x[..., None], self.P, zero[..., :1], zero


class _Block(NamedTuple):
    """What a block's carry-dependent half takes from its carry-free half,
    per frame: F and Q, the fused detection z and R, the frame kinds (masks
    of the predict-only frames, the start frames and the frames before the
    start) and, for the tape, each detection's precision (None without a
    gradient)."""

    F: np.ndarray
    Q: np.ndarray
    z: np.ndarray
    R: np.ndarray
    kinds: tuple
    prec: Optional[np.ndarray]


def _block_elements(block, dt, start, params, calib, failures, grad) -> tuple:
    """The carry-free half of _filter_block: the block's _Block and its
    filtering elements (A, b, C, eta, J)."""
    t, mask = block.t, block.mask
    # The calibrated, fused detection of each frame, noting each window's
    # first covariance and fused information that is not positive definite.
    cov = calibration.obs_transform(calib or {}, block.views, block.cov)
    _record_failures(failures, cov, mask, t)
    z, R, prec, lam = _fuse(block.mean, cov, mask)
    _record_failures(failures, lam, mask.sum(axis=-1) > 1, t)
    F = transition(dt)
    Q = process_noise(params.sigma_accel, dt)
    steps = np.arange(t.shape[1])
    before, at, run = (op(steps, start[:, None]) for op in (np.less, np.equal, np.greater))
    kinds = (run & ~mask.any(axis=-1), at, before)
    windows = np.arange(len(t))
    i = np.clip(start, 0, len(steps) - 1)
    x0, P0 = _init(z[windows, i], R[windows, i], params.init_vel_var)

    # The filter's elements: the identity before the start, the initial
    # state at it, then a prediction with the frame's fused detection
    # folded in where there is one.
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
    return _Block(F, Q, z, R, kinds, prec if grad else None), elements


def _after_scan(block, part: _Block, prefix: tuple, carry, truth, params, failures, grad) -> tuple:
    """The carry-dependent half of _filter_block, from the prefixes (A, b, C)
    of the block's filter scan after the carry."""
    F, Q, z, R, kinds, prec = part
    before = kinds[2]
    A, xc, C = prefix
    x, P = xc[..., 0], _sym(C)

    # The prediction into each frame, and the update's innovation S.
    Pm = _sym(F @ _shifted(carry and carry.P, P) @ _T(F) + Q)
    upd = ~before & ~kinds[1] & ~kinds[0]
    _record_failures(failures, Pm[..., :2, :2] + R, upd, block.t)
    _record_failures(failures, P[..., :2, :2], ~before, block.t)
    out_x = np.where(before[..., None], np.nan, x[..., :2])
    out_P = np.where(before[..., None, None], np.nan, P[..., :2, :2])
    ahead = _Carry(A[:, -1:], x[:, -1:], P[:, -1:])
    if truth is None:
        return ahead, out_x, out_P, None, None
    value, sig_inv, w = _nll(x[..., :2], P[..., :2, :2], truth)
    value = np.where(before, np.nan, value)
    if not grad:
        return ahead, out_x, out_P, value, None

    # The update's gain from the predicted covariance, with G, K and v set
    # so that predict-only frames pass the adjoints through F (G = I, K = 0)
    # and the start frame hands its own to the fused detection (G = 0,
    # K = H^T).
    xm = (F @ _shifted(carry and carry.x, x)[..., None])[..., 0]
    gain, G, S_inv = _gain(Pm, R)
    v = np.zeros(x.shape)
    v[..., :2] = (S_inv @ (z - xm[..., :2])[..., None])[..., 0]
    tape = (
        F,
        2.0 * Q / params.sigma_accel,
        _by_frame(G, kinds, _EYE4, 0.0, _EYE4),
        _by_frame(gain, kinds, 0.0, _EYE4[:, :2], 0.0),
        _by_frame(v, kinds, 0.0, 0.0, 0.0),
        np.where(before[..., None], 0.0, -w),
        np.where(before[..., None, None], 0.0, 0.5 * (sig_inv - w[..., :, None] * w[..., None, :])),
        (z, R, block.mean, prec, block.mask, block.cov),
    )
    return ahead, out_x, out_P, value, tape


def _filter_block(block, dt, start, truth, params, calib, carry, failures, grad) -> tuple:
    """run_windows over a block of frames of some windows, with time steps
    dt and each window's start frame counted from the block's first frame,
    after the carry of the block before it (None for the first block).
    Returns the carry for the next block, the block's position means,
    covariances and NLLs, and with grad the tape of _adjoint_block."""
    part, elements = _block_elements(block, dt, start, params, calib, failures, grad)
    prefix = _scan_after(carry and carry.element(), elements, _combine_filter)[:3]
    return _after_scan(block, part, prefix, carry, truth, params, failures, grad)


def _adjoint_block(tape: tuple, owed: tuple, channels: np.ndarray, k: int) -> tuple:
    """A block's backward pass (see the module doc) after owed, the adjoint
    of its last state (x, P) that later blocks hand back (zeros for a
    window's last block). The tape holds, per frame, F, dQ/dsigma,
    G = I - K H, the gain K, v = H^T S^-1 y, the NLL's seeds a and A, and
    the fusion's (z, R, mean, prec, mask, raw). Returns what the block
    hands back to the state before it, and each window's gradient (B, k)
    over its frames: sigma_accel from the adjoint of each predicted
    covariance, G^T Lambda G + sym(G^T lambda v^T), with dQ; calibrated
    view i (channels[i] >= 0) from its detections' _fuse_adjoint, with
    dR/da and dR/db."""
    F, dQ, G, gain, v, a, A, fused = tape
    Phi_next = _T(_next(G @ F))
    seed = np.zeros(a.shape[:2] + (4, 1))
    seed[..., :2, 0] = a
    seed[:, -1] += owed[0]
    lam = _scan_back((Phi_next, seed), _combine_affine)[1]
    U = _sym(_T(G) @ lam * v[..., None, :])
    E = _T(F) @ U @ F
    D = _next(E)
    D[..., :2, :2] += A
    D[:, -1] += owed[1]
    Lam = _scan_back((Phi_next, D), _combine_congruence)[1]
    Phi = G[:, 0] @ F[:, 0]
    handed = (_T(Phi) @ lam[:, 0], _T(Phi) @ Lam[:, 0] @ Phi + E[:, 0])

    grad = np.zeros((len(a), k))
    grad[:, 0] = ((_T(G) @ Lam @ G + U) * dQ).sum(axis=(-2, -1)).sum(axis=1)
    Kt = _T(gain)
    m = (Kt @ lam)[..., 0]
    M = Kt @ Lam @ gain - _sym(m[..., :, None] * v[..., None, :2])
    z, R, mean, prec, mask, raw = fused
    cols = np.flatnonzero(channels >= 0)
    N = _fuse_adjoint(M, m, z, R, mean, prec, mask)[:, :, cols]
    grad[:, channels[cols]] = (N * raw[:, :, cols]).sum(axis=(-2, -1)).sum(axis=1)
    grad[:, channels[cols] + 1] = (N[..., 0, 0] + N[..., 1, 1]).sum(axis=1)
    return handed, grad


def run_windows(
    batch: FrameBatch,
    params: FilterParams,
    truth: Optional[np.ndarray] = None,
    calib: Optional[dict[str, CalibrationParams]] = None,
    grad: bool = True,
) -> BatchResult:
    """Filter B windows at once; the one recursion of the tracker.

    Each window initializes on its first non-empty frame, then alternates
    predict and update using the actual timestamp gaps; a window without a
    detection never starts. ``calib`` rescales each view's detection
    covariances before fusion (calibration.obs_transform; views without an
    entry pass through).

    ``truth`` (B, T, 2), when given, scores the filtered (post-update)
    marginal of each frame from the window's start on. With ``grad``, one
    backward pass also gives each window's summed NLL its gradient over
    sigma_accel, then a and b of each calibrated view in sorted view order
    (zero for a view the batch lacks); otherwise the NLLs are the same bits
    and the gradient is None. A window whose recursion meets a matrix that
    is not positive definite is listed in the result's failures; its values
    are not meaningful, and its batch-mates are unaffected.
    """
    B, T, V = batch.mask.shape
    if truth is not None:
        truth = np.asarray(truth, dtype=float)
        if truth.shape != (B, T, 2):
            raise ValueError(f"truth shape {truth.shape} does not match the frames' {(B, T, 2)}")
    grad = grad and truth is not None
    order = sorted(calib or {})
    channels = np.array([1 + 2 * order.index(v) if v in order else -1 for v in batch.views], int)
    k = 1 + 2 * len(order)
    present = batch.mask.any(axis=-1)
    start = np.where(present.any(axis=1), present.argmax(axis=1), T)
    dt = np.diff(batch.t, axis=1, prepend=batch.t[:, :1] - 1.0)

    means = np.full((B, T, 2), np.nan)
    covs = np.full((B, T, 2, 2), np.nan)
    nlls = np.full((B, T), np.nan) if truth is not None else None
    grads = np.zeros((B, k)) if grad else None
    failures: dict[int, tuple[float, int, float]] = {}
    frames = min(T, SCAN_FRAMES)
    window_matrices = frames * max(V, 4) * (5 if grad else 3)
    chunk = max(1, CHUNK_MATRICES // window_matrices)
    # The blocks from the boundary nearest T / 2 on are scanned carry-free
    # and the carry there folded in, where they hold at least
    # forking.SPLIT_BYTES at one 32-byte covariance a view-frame. That
    # depends on T and V alone, so a window's bits depend on neither its
    # batch-mates nor the host.
    fold = (T + frames) // (2 * frames) * frames
    fold_work = (T - fold) * V * 32
    if fold_work < max(forking.SPLIT_BYTES, 1):
        fold = T

    def store(rows, cols, block: tuple):
        """A block's outputs into the arrays; its tape."""
        means[rows, cols], covs[rows, cols] = block[1:3]
        if truth is not None:
            nlls[rows, cols] = block[3]
        return block[4]

    def filter_to_fold(rows, found: dict) -> tuple:
        """Filter the windows at rows up to the fold: the carry there and the
        blocks' tapes."""
        carry = None
        tapes = []
        for first in range(0, fold, frames):
            cols = slice(first, first + frames)
            block = _filter_block(
                batch.take((rows, cols)),
                dt[rows, cols],
                start[rows] - first,
                None if truth is None else truth[rows, cols],
                params,
                calib,
                carry,
                found,
                grad,
            )
            carry = block[0]
            tapes.append(store(rows, cols, block))
        return carry, tapes

    def carry_free(rows):
        """Per block from the fold on, the carry-free half of the windows at
        rows: its _Block, the prefixes of its filter scan from the fold (each
        block's scan after the last prefix element of the one before) and
        the failures it noted."""
        head = None
        for first in range(fold, T, frames):
            cols = slice(first, first + frames)
            found: dict[int, tuple[float, int, float]] = {}
            part, elements = _block_elements(
                batch.take((rows, cols)), dt[rows, cols], start[rows] - first, params, calib, found, grad
            )
            prefix = _scan_after(head, elements, _combine_filter)
            head = tuple(p[:, -1:] for p in prefix)
            yield part, prefix, found

    def filter_from_fold(rows, carry: _Carry, pieces, found: dict) -> list:
        """Filter the windows at rows from the fold on, after their carry
        there, from the pieces of carry_free: the blocks' tapes."""
        head = carry.element()
        tapes = []
        for first, (part, prefix, noted) in zip(range(fold, T, frames), pieces):
            cols = slice(first, first + frames)
            for b, failure in noted.items():
                _note_failure(found, b, failure)
            block = _after_scan(
                batch.take((rows, cols)),
                part,
                _combine_filter(head, prefix)[:3],
                carry,
                None if truth is None else truth[rows, cols],
                params,
                found,
                grad,
            )
            carry = block[0]
            tapes.append(store(rows, cols, block))
        return tapes

    def finish(first_row: int, rows, tapes: list, found: dict) -> None:
        """The backward pass of the windows at rows, and their failures."""
        owed = (0.0, 0.0)
        for tape in reversed(tapes if grad else []):
            owed, block_grad = _adjoint_block(tape, owed, channels, k)
            grads[rows] += block_grad
        failures.update((first_row + b, failure) for b, failure in found.items())

    def filter_rows(lo: int, hi: int) -> None:
        """Filter windows [lo, hi), chunk by chunk from lo, into the arrays."""
        for first_row in range(lo, hi, chunk):
            rows = slice(first_row, min(first_row + chunk, hi))
            found: dict[int, tuple[float, int, float]] = {}
            carry, tapes = filter_to_fold(rows, found)
            if fold < T:
                tapes += filter_from_fold(rows, carry, carry_free(rows), found)
            finish(first_row, rows, tapes, found)

    def in_time() -> None:
        """A batch of one chunk, split at the fold: a forked child runs
        carry_free while this process filters up to the fold, then this
        process takes the child's pieces, one pickle a block. Where no child
        ran, or it failed, this process runs carry_free itself."""
        rows = slice(0, B)
        found: dict[int, tuple[float, int, float]] = {}
        ahead = []

        def theirs(out) -> None:
            for piece in carry_free(rows):
                pickle.dump(piece, out, protocol=5)

        def take(out) -> list:
            pieces = (pickle.load(out) for _ in range(fold, T, frames))
            return filter_from_fold(rows, ahead[0], pieces, found)

        tapes = split_work(B * fold_work, lambda: ahead.extend(filter_to_fold(rows, found)), theirs, take)
        if tapes is None:
            tapes = filter_from_fold(rows, ahead[0], carry_free(rows), found)
        finish(0, rows, ahead[1] + tapes, found)

    def by_windows() -> None:
        """A batch in two ranges of chunks: the chunks from the boundary
        nearest B / 2 on are split_work's second range, their working set
        counted at 32 bytes a 2x2 matrix. The child is forked before this
        process's range runs, so its failures hold its own rows alone, keyed
        by batch row."""
        mid = (B + chunk) // (2 * chunk) * chunk
        outputs = (means, covs, nlls, grads)

        def theirs(out) -> None:
            filter_rows(mid, B)
            pickle.dump(([None if a is None else a[mid:] for a in outputs], failures), out, protocol=5)

        def take(out) -> bool:
            rows, found = pickle.load(out)
            for a, got in zip(outputs, rows):
                if a is not None:
                    a[mid:] = got
            failures.update(found)
            return True

        work = (B - mid) * window_matrices * 32 if mid else 0
        if split_work(work, lambda: filter_rows(0, mid), theirs, take) is None:
            filter_rows(mid, B)

    with np.errstate(all="ignore"):
        if B <= chunk and fold < T:
            in_time()
        else:
            by_windows()
    return BatchResult(start, means, covs, nlls, grads, failures)


def run_track(
    batch: FrameBatch,
    params: FilterParams,
    truth: Optional[np.ndarray] = None,
    calib: Optional[dict[str, CalibrationParams]] = None,
) -> TrackResult:
    """Filter one sequence, a batch of B = 1: run_windows without a
    gradient, with the track from its first non-empty frame on.

    ``truth``, when given, must hold one 2-vector per frame. Raises
    ValueError if no frame has a detection, and NotPositiveDefiniteError,
    naming the frame time, if the recursion meets a matrix that is not
    positive definite.
    """
    if truth is not None:
        truth = np.asarray(truth, dtype=float)[None]
    result = run_windows(batch, params, truth, calib, grad=False)
    s = int(result.start[0])
    if s == len(batch):
        raise ValueError("no frame has any detection; cannot initialize")
    if result.failures:
        t, minor, value = result.failures[0]
        raise NotPositiveDefiniteError(minor, value, where=f"frame at t={t!r}")
    return TrackResult(
        times=batch.t[0, s:],
        means=result.means[0, s:],
        covs=result.covs[0, s:],
        nlls=None if truth is None else result.nlls[0, s:],
    )


def run_sequence(
    frames: Sequence[DetectionFrame],
    params: FilterParams,
    truth: Optional[np.ndarray] = None,
    calib: Optional[dict[str, CalibrationParams]] = None,
) -> TrackResult:
    """run_track over frames given as DetectionFrame objects."""
    return run_track(pack([frames]), params, truth, calib)
