"""Gradient-based fine-tuning of the tracker through its own recursion.

The tunables are the filter's acceleration-noise parameter and the per-view
affine covariance calibration applied to detections before fusion. All live
in unconstrained space (log for multiplicative quantities, inverse softplus
for the non-negative floor), so a step decodes to a valid value unless exp
over- or underflows. Gradients are exact: the filter takes them in one
backward pass over each window's frames, whose cost does not grow with the
number of tunables.

make_windows reshapes a split's detections, the one-window FrameBatch
dataio.read_detections returns, into a kalman.FrameBatch of B windows
(times (B, T), detections (B, T, V, ...), mask (B, T, V)) with truth
positions (B, T, 2). sequence_loss filters all of a split's windows in one
call of the batched recursion, which filters a large batch, such as the
walkthrough's train gradient pass, on two CPUs (kalman.run_windows), and
returns one loss and gradient per window.
tune minimises the mean train-window loss by deterministic full-batch BFGS
(K = 1 + 2V tunables, a dense K x K inverse Hessian): each epoch is one
iteration, a line search of full passes over the train windows with the
gradient, then one validation pass, which needs only the losses and so
filters with grad=False, with no backward pass at all.
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

# The line search's sufficient-decrease (Armijo) constant, and the most
# times it halves an iteration's step before it leaves the point as it is.
ARMIJO = 1e-4
MAX_HALVINGS = 20


@dataclass(frozen=True)
class TuneConfig:
    """The settings the tune command's flags set; the others are constants."""

    seq_len: int = 100
    epochs: int = 5

    def __post_init__(self):
        if self.seq_len < 2:
            raise ValueError("seq_len must be >= 2")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")


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
    are unaffected. A point whose decoding over- or underflows to a value
    outside the parameters' domain fails every window.
    """
    order = params.view_order()
    n_windows = len(batch.t)
    try:  # exp overflows, or a underflows to 0 and CalibrationParams rejects it
        sigma, calib = params.decode()
        outside = not sigma > 0.0
    except (OverflowError, ValueError):
        outside = True
    if outside:
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
    """A row per epoch, epoch 0 the starting point: the train and validation
    NLL, sigma_accel, the train gradient's L2 norm and each view's a and b
    (keys <view>_a and <view>_b). The meta names the epoch with the best
    validation NLL and that NLL, whether the start was not finite
    (diverged), and how many train gradient evaluations the run took."""

    rows: list[dict] = field(default_factory=list)
    meta: dict = field(default_factory=lambda: {"diverged": False, "evaluations": 0})


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
    init_vel_var: float = FilterParams.init_vel_var,
) -> tuple[TunableParams, TuneHistory]:
    """Full-batch BFGS on the mean train-window loss, one iteration an epoch.

    Each iteration steps along -H g, where g is the exact gradient and H the
    inverse-Hessian estimate, and halves the step until the loss is finite
    and falls by at least ARMIJO times the step's first-order decrease
    (Nocedal & Wright, Numerical Optimization, 2nd ed., algorithms 3.1 and
    6.1). H starts as the identity over max(1, |g|), so the first step is at
    most 1 long, and is rescaled by s'y / y'y before its first update; a
    step with s'y <= 0 leaves H as it is. If MAX_HALVINGS halvings find no
    step, the point stays where it is and its row repeats to the last epoch.
    Returns the parameters with the best validation NLL seen (epoch 0
    included) and the history. A start whose train or validation loss is not
    finite is returned as it is, with the meta's diverged set.
    """
    train, train_truth = train_windows
    val, val_truth = val_windows
    if not len(train) or not len(val):
        raise ValueError("train and validation window sets must be non-empty")
    history = TuneHistory()
    points = []

    def train_loss(vec: np.ndarray) -> tuple[float, np.ndarray]:
        history.meta["evaluations"] += 1
        losses, grads = sequence_loss(params0.with_vector(vec), train, train_truth, init_vel_var)
        return float(np.mean(losses)), np.mean(grads, axis=0)

    def record(vec: np.ndarray, loss: float, gradient: np.ndarray) -> float:
        """Add the epoch at vec to the history, naming it in the meta if its
        validation NLL is the best yet; returns that NLL."""
        params = params0.with_vector(vec)
        val_nll = _mean_loss(params, val, val_truth, init_vel_var)
        sigma, calib = params.decode()
        row = {"epoch": len(points), "train_nll": loss, "val_nll": val_nll, "sigma_accel": sigma}
        row["grad_norm"] = float(np.linalg.norm(gradient))
        for v in params.view_order():
            row[f"{v}_a"], row[f"{v}_b"] = calib[v].a, calib[v].b
        history.rows.append(row)
        if not points or val_nll < history.meta["best_val_nll"]:
            history.meta.update(best_epoch=len(points), best_val_nll=val_nll)
        points.append(vec)
        return val_nll

    vec = params0.to_vector()
    loss, gradient = train_loss(vec)
    val_nll = record(vec, loss, gradient)
    if not (math.isfinite(loss) and math.isfinite(val_nll)):
        history.meta["diverged"] = True
        return params0, history

    identity = np.eye(len(vec))
    h_inv = identity / max(1.0, float(np.linalg.norm(gradient)))
    rescaled = False
    for _ in range(config.epochs):
        direction = -h_inv @ gradient
        slope = float(gradient @ direction)
        for halvings in range(MAX_HALVINGS + 1):
            step = 0.5**halvings
            trial = vec + step * direction
            trial_loss, trial_gradient = train_loss(trial)
            if math.isfinite(trial_loss) and trial_loss <= loss + ARMIJO * step * slope:
                break
        else:
            break
        s, y = trial - vec, trial_gradient - gradient
        sy = float(s @ y)
        if sy > 0.0:
            if not rescaled:
                h_inv, rescaled = identity * (sy / float(y @ y)), True
            v = identity - np.outer(s, y) / sy
            h_inv = v @ h_inv @ v.T + np.outer(s, s) / sy
        vec, loss, gradient = trial, trial_loss, trial_gradient
        record(vec, loss, gradient)
    while len(history.rows) <= config.epochs:
        history.rows.append({**history.rows[-1], "epoch": len(history.rows)})
    return params0.with_vector(points[history.meta["best_epoch"]]), history
