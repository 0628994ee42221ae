"""Gradient-based fine-tuning of the tracker through its own recursion.

The tunables are the filter's acceleration-noise parameter and the per-view
affine covariance calibration applied to detections before fusion. All live
in unconstrained space (log for multiplicative quantities, inverse softplus
for the non-negative floor) so any optimizer step decodes to a valid value.
Gradients are exact: the filter takes them in one backward pass over each
window's frames, whose cost does not grow with the number of tunables.

make_windows reshapes a split's detections, the one-window FrameBatch
dataio.read_detections returns, into a kalman.FrameBatch of B windows
(times (B, T), detections (B, T, V, ...), mask (B, T, V)) with truth
positions (B, T, 2). sequence_loss filters a whole minibatch, or a whole
split for an epoch snapshot, in one call of the batched recursion and
returns one loss and gradient per window; a snapshot needs only the losses,
so it filters with grad=False, with no backward pass at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .calibration import CalibrationParams
from .heads import inv_softplus, sigmoid, softplus
from .kalman import FilterParams, FrameBatch, run_windows

# A split's windows and their truth positions (B, T, 2).
Split = tuple[FrameBatch, np.ndarray]

# The optimizer's fixed settings, each recorded in the history's meta: the
# moment decays and epsilon, the decoupled weight decay, the clip on the
# gradient's L2 norm, the epoch from which the learning rate is a tenth, and
# the windows per step.
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8
WEIGHT_DECAY = 1e-4
GRAD_CLIP = 0.1
LR_DROP_EPOCH = 4
BATCH = 8


@dataclass(frozen=True)
class TuneConfig:
    """The settings the tune command's flags set; the others are constants."""

    seq_len: int = 100
    epochs: int = 5
    lr: float = 1e-4

    def __post_init__(self):
        if self.seq_len < 2:
            raise ValueError("seq_len must be >= 2")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        # lr == 0 is allowed as an explicit no-op optimizer.
        if not 0.0 <= self.lr < math.inf:
            raise ValueError(f"lr must be non-negative and finite, got {self.lr}")


@dataclass(frozen=True)
class TunableParams:
    """Unconstrained tunables: log sigma_accel plus per-view (log a, raw b)."""

    log_sigma_accel: float
    views: dict[str, tuple[float, float]]

    def __post_init__(self):
        object.__setattr__(self, "log_sigma_accel", float(self.log_sigma_accel))
        object.__setattr__(
            self,
            "views",
            {str(v): (float(la), float(rb)) for v, (la, rb) in self.views.items()},
        )

    @classmethod
    def from_natural(
        cls, sigma_accel: float, calib: dict[str, CalibrationParams]
    ) -> "TunableParams":
        return cls(
            math.log(sigma_accel),
            {v: (math.log(p.a), inv_softplus(p.b)) for v, p in calib.items()},
        )

    def view_order(self) -> list[str]:
        return sorted(self.views)

    def decode(self) -> tuple[float, dict[str, CalibrationParams]]:
        sigma = math.exp(self.log_sigma_accel)
        calib = {
            v: CalibrationParams(math.exp(la), softplus(rb))
            for v, (la, rb) in self.views.items()
        }
        return sigma, calib

    def to_vector(self) -> np.ndarray:
        vec = [self.log_sigma_accel]
        for v in self.view_order():
            vec.extend(self.views[v])
        return np.array(vec)

    def with_vector(self, vec: np.ndarray) -> "TunableParams":
        order = self.view_order()
        if len(vec) != 1 + 2 * len(order):
            raise ValueError(f"expected {1 + 2 * len(order)} values, got {len(vec)}")
        views = {v: (float(vec[1 + 2 * i]), float(vec[2 + 2 * i])) for i, v in enumerate(order)}
        return TunableParams(float(vec[0]), views)


def sequence_loss(
    params: TunableParams,
    batch: FrameBatch,
    truth: np.ndarray,
    init_vel_var: float = FilterParams.init_vel_var,
    grad: bool = True,
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Mean per-step filtered NLL of each window and its exact gradient.

    Returns losses (B,) and gradients (B, P) with respect to the
    unconstrained tunable vector (see to_vector for the ordering). Per-view
    calibration enters the filter through calibration.obs_transform. The
    filter's backward pass gives each window's summed NLL its gradient in
    sigma_accel and each view's a and b (kalman.run_windows), which is
    divided here by the window's step count and carried to the
    unconstrained tunables. With grad=False there is no backward pass, the
    losses are the same bits and the gradient is None. A window that fails
    numerically (a matrix that is not positive definite, or a non-finite
    loss) gets loss inf and a zero gradient; the other windows of the batch
    are unaffected.
    """
    order = params.view_order()
    n_windows = len(batch.t)
    try:
        sigma, calib = params.decode()
    except OverflowError:
        return np.full(n_windows, math.inf), np.zeros((n_windows, 1 + 2 * len(order))) if grad else None
    result = run_windows(batch, FilterParams(sigma, init_vel_var), truth=truth, calib=calib, grad=grad)
    n_steps = np.sum(np.isfinite(result.nlls), axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        loss = np.nansum(result.nlls, axis=1) / n_steps
    failed = ~np.isfinite(loss)
    failed[list(result.failures)] = True
    loss[failed] = math.inf
    if not grad:
        return loss, None

    with np.errstate(divide="ignore", invalid="ignore"):
        grad_natural = result.grad / n_steps[:, None]
    # d sigma / d log sigma, then per view d a / d log a and d b / d raw b.
    scale = [sigma]
    for v in order:
        scale += [calib[v].a, sigmoid(params.views[v][1])]
    gradient = grad_natural * np.array(scale)
    gradient[failed] = 0.0
    return loss, gradient


@dataclass
class TuneHistory:
    """Per-epoch record (epoch 0 is the pre-training evaluation): rows of
    losses and sigma_accel, and epochs of each view's (a, b), the largest
    gradient norm of the epoch's steps before clipping (None at epoch 0)
    and how many of them were clipped."""

    rows: list[dict] = field(default_factory=list)
    epochs: list[dict] = field(default_factory=list)
    meta: dict = field(default_factory=dict)
    diverged: bool = False

    def add(
        self,
        epoch: int,
        train_nll: float,
        val_nll: float,
        params: TunableParams,
        norms: list[float],
    ):
        sigma, calib = params.decode()
        self.rows.append(
            {
                "epoch": epoch,
                "train_nll": float(train_nll),
                "val_nll": float(val_nll),
                "sigma_accel": float(sigma),
            }
        )
        self.epochs.append(
            {
                "epoch": epoch,
                "views": {v: (calib[v].a, calib[v].b) for v in params.view_order()},
                "max_grad_norm": max(norms) if norms else None,
                "clipped": sum(norm > GRAD_CLIP for norm in norms),
            }
        )


def make_windows(frames: FrameBatch, truth: np.ndarray, seq_len: int) -> Split:
    """Chop a split, one window of T frames with truth positions (T, 2),
    into disjoint consecutive windows of seq_len frames; frames past the
    last whole window are left out.

    Windows without any detection are dropped: the filter cannot start on
    them, so they hold no filtered-NLL step."""
    n_frames = len(frames)
    if n_frames < seq_len:
        raise ValueError(
            f"need at least seq_len={seq_len} frames, got {n_frames}; "
            "use a smaller --seq-len"
        )
    n = n_frames // seq_len

    def windows(a: np.ndarray) -> np.ndarray:
        return a[: n * seq_len].reshape((n, seq_len) + a.shape[1:])

    split = FrameBatch(
        frames.views, *(windows(a[0]) for a in (frames.t, frames.mean, frames.cov, frames.mask))
    )
    keep = split.mask.any(axis=(1, 2))
    return split.take(keep), windows(np.asarray(truth, dtype=float))[keep]


def _mean_loss(
    params: TunableParams, batch: FrameBatch, truth: np.ndarray, init_vel_var: float
) -> float:
    return float(np.mean(sequence_loss(params, batch, truth, init_vel_var, grad=False)[0]))


def tune(
    config: TuneConfig,
    params0: TunableParams,
    train_windows: Split,
    val_windows: Split,
    seed: int = 0,
    init_vel_var: float = FilterParams.init_vel_var,
) -> tuple[TunableParams, TuneHistory]:
    """Mini-batch optimization of the tunables against sequence NLL.

    First-order updates with momentum/second-moment normalization and
    decoupled weight decay; the gradient's L2 norm is clipped, and the
    learning rate drops by 10x from LR_DROP_EPOCH on. Returns the parameters
    with the best validation NLL seen (epoch 0 included) and the history;
    its meta names that epoch and NLL, and its lr_sum is the sum of the
    learning rates of the steps taken. If the training loss stops being
    finite the run aborts, with the history flagged, and returns the best
    parameters seen so far.
    """
    train, train_truth = train_windows
    val, val_truth = val_windows
    if not len(train) or not len(val):
        raise ValueError("train and validation window sets must be non-empty")
    history = TuneHistory(
        meta={
            "beta1": BETA1,
            "beta2": BETA2,
            "eps": EPS,
            "weight_decay": WEIGHT_DECAY,
            "lr": config.lr,
            "lr_drop_epoch": LR_DROP_EPOCH,
            "grad_clip": GRAD_CLIP,
            "batch": BATCH,
            "seed": seed,
            "lr_sum": 0.0,
        }
    )
    rng = np.random.default_rng(seed)
    vec = params0.to_vector()
    best_vec = vec
    m = np.zeros_like(vec)
    v = np.zeros_like(vec)
    step = 0

    def snapshot(epoch: int, norms: list[float]) -> tuple[float, float]:
        """Record the epoch's losses, and keep vec if it is the best yet."""
        nonlocal best_vec
        p = params0.with_vector(vec)
        train_nll = _mean_loss(p, train, train_truth, init_vel_var)
        val_nll = _mean_loss(p, val, val_truth, init_vel_var)
        history.add(epoch, train_nll, val_nll, p, norms)
        if epoch == 0 or val_nll < history.meta["best_val_nll"]:
            history.meta.update(best_val_nll=val_nll, best_epoch=epoch)
            best_vec = vec.copy()
        return train_nll, val_nll

    if not np.all(np.isfinite(snapshot(0, []))):
        history.diverged = True
        return params0, history

    for epoch in range(1, config.epochs + 1):
        lr = config.lr / 10.0 if epoch >= LR_DROP_EPOCH else config.lr
        perm = rng.permutation(len(train.t))
        norms = []
        for lo in range(0, len(perm), BATCH):
            batch = perm[lo : lo + BATCH]
            losses, grads = sequence_loss(
                params0.with_vector(vec), train.take(batch), train_truth[batch], init_vel_var
            )
            if not np.all(np.isfinite(losses)):
                history.diverged = True
                return params0.with_vector(best_vec), history
            g = np.mean(grads, axis=0)
            norm = float(np.linalg.norm(g))
            norms.append(norm)
            if norm > GRAD_CLIP:
                g = g * (GRAD_CLIP / norm)
            step += 1
            history.meta["lr_sum"] += lr
            m = BETA1 * m + (1.0 - BETA1) * g
            v = BETA2 * v + (1.0 - BETA2) * g * g
            m_hat = m / (1.0 - BETA1**step)
            v_hat = v / (1.0 - BETA2**step)
            vec = vec - lr * m_hat / (np.sqrt(v_hat) + EPS) - lr * WEIGHT_DECAY * vec
        snapshot(epoch, norms)

    return params0.with_vector(best_vec), history
