"""Evaluation suite: NLL aggregation, object probability mass, and the
threshold-sweep tracking scores derived from it.

The object probability mass (OPM) of a prediction is the predicted
probability mass falling inside the object's ground-truth rectangle,
estimated by Monte Carlo. Because it lives in [0, 1] it substitutes for IoU
in threshold-style tracking metrics: detection precision over an alpha sweep
(which equals detection recall in the one-prediction-per-frame setting) and
localization accuracy over the on-track steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import Gaussian2D, ObjectPose, nll, points_in_pose, sample_gaussian


@dataclass(frozen=True)
class EvalRecord:
    """One timestep: a predicted location Gaussian and the true pose."""

    t: float
    prediction: Gaussian2D
    truth: ObjectPose


@dataclass(frozen=True)
class AlphaSweep:
    """Strictly ascending score thresholds, all in the open interval (0, 1)."""

    thresholds: tuple[float, ...]

    def __post_init__(self):
        th = tuple(float(v) for v in self.thresholds)
        if not th:
            raise ValueError("alpha sweep must be non-empty")
        if any(not 0.0 < v < 1.0 for v in th):
            raise ValueError("alpha thresholds must lie in (0, 1)")
        if any(b <= a for a, b in zip(th, th[1:])):
            raise ValueError("alpha thresholds must be strictly ascending")
        object.__setattr__(self, "thresholds", th)


def default_sweep() -> AlphaSweep:
    return AlphaSweep(tuple(i / 20.0 for i in range(1, 20)))


@dataclass(frozen=True)
class MetricReport:
    """The four headline metrics plus everything needed to reproduce them."""

    nll: float
    opm: float
    det_pr: float
    loc_a: float
    seed: int
    n_mc: int
    alpha_sweep: tuple[float, ...]

    def to_dict(self) -> dict:
        return {
            "nll": self.nll,
            "opm": self.opm,
            "det_pr": self.det_pr,
            "loc_a": self.loc_a,
            "seed": self.seed,
            "n_mc": self.n_mc,
            "alpha_sweep": list(self.alpha_sweep),
        }


def mean_nll(records: Sequence[EvalRecord]) -> float:
    """Arithmetic mean of per-record NLL of the truth position."""
    if len(records) == 0:
        raise ValueError("cannot evaluate zero records")
    return float(np.mean([nll(r.prediction, r.truth.position) for r in records]))


def opm(
    prediction: Gaussian2D,
    truth: ObjectPose,
    n: int = 1000,
    *,
    rng: np.random.Generator,
) -> float:
    """Monte Carlo fraction of predicted samples inside the truth rectangle.

    The caller owns the random source; there is no implicit global stream.
    """
    if n < 1:
        raise ValueError("sample count must be >= 1")
    samples = sample_gaussian(prediction, rng, n)
    return float(np.mean(points_in_pose(truth, samples)))


def det_pr(scores: Sequence[float], sweep: AlphaSweep) -> float:
    """Fraction of timesteps scoring above alpha, averaged over the sweep.

    With one prediction and one truth per step, every below-threshold step
    produces one unmatched prediction and one unmatched truth, so precision
    and recall coincide: both are tp / n.
    """
    scores = np.asarray(scores, dtype=float)
    if scores.size == 0:
        raise ValueError("cannot evaluate zero scores")
    values = [int(np.sum(scores > alpha)) / scores.size for alpha in sweep.thresholds]
    return float(np.mean(values))


def loc_a(scores: Sequence[float], sweep: AlphaSweep) -> float:
    """Mean score over above-threshold steps, averaged over the sweep.

    Thresholds with no on-track step are skipped; if no threshold has any,
    the tracker was never on track and the metric is undefined.
    """
    scores = np.asarray(scores, dtype=float)
    if scores.size == 0:
        raise ValueError("cannot evaluate zero scores")
    values = []
    for alpha in sweep.thresholds:
        mask = scores > alpha
        if not np.any(mask):
            continue
        values.append(float(np.mean(scores[mask])))
    if not values:
        raise ValueError("tracker never on track: no threshold has a true positive")
    return float(np.mean(values))


def per_record_scores(
    records: Sequence[EvalRecord], n_mc: int, seed: int
) -> np.ndarray:
    """One OPM score per record, each from an independent seeded substream
    derived from (seed, record index), so records can be scored in parallel
    without changing the result."""
    out = np.empty(len(records))
    for i, rec in enumerate(records):
        rng = np.random.default_rng(np.random.SeedSequence([seed, i]))
        out[i] = opm(rec.prediction, rec.truth, n=n_mc, rng=rng)
    return out


def per_record_nlls(records: Sequence[EvalRecord]) -> np.ndarray:
    return np.array([nll(r.prediction, r.truth.position) for r in records])


def evaluate(
    records: Sequence[EvalRecord],
    sweep: AlphaSweep | None = None,
    n_mc: int = 1000,
    seed: int = 0,
) -> MetricReport:
    """Compute all four metrics from one shared per-record score pass."""
    if len(records) == 0:
        raise ValueError("cannot evaluate zero records")
    if sweep is None:
        sweep = default_sweep()
    scores = per_record_scores(records, n_mc, seed)
    return MetricReport(
        nll=mean_nll(records),
        opm=float(np.mean(scores)),
        det_pr=det_pr(scores, sweep),
        loc_a=loc_a(scores, sweep),
        seed=seed,
        n_mc=n_mc,
        alpha_sweep=sweep.thresholds,
    )
