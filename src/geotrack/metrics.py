"""Evaluation suite: NLL aggregation, object probability mass, and the
threshold-sweep tracking scores derived from it.

The object probability mass (OPM) of a prediction is the predicted
probability mass falling inside the object's ground-truth rectangle,
estimated by Monte Carlo. Because it lives in [0, 1] it substitutes for IoU
in threshold-style tracking metrics: detection precision over an alpha sweep
(which equals detection recall in the one-prediction-per-frame setting) and
localization accuracy over the on-track steps.

The scored predictions are arrays (Records): means, covariances and the
truth rows they are matched to, one row each, as dataio loads them. One NLL
pass per Records serves the report and the per-record histogram.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import Pairs, cholesky, points_in_pose, sample_gaussian


@dataclass(frozen=True, eq=False)
class Records(Pairs):
    """Predictions and their matched truth rows, one row each: means (N, 2),
    covariances (N, 2, 2), and the truth position (N, 2), heading (N,) and
    extent (N, 2). len() is the row count."""

    heading: np.ndarray
    extent: np.ndarray


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


def mean_nll(records: Records) -> float:
    """Arithmetic mean of per-record NLL of the truth position."""
    if len(records) == 0:
        raise ValueError("cannot evaluate zero records")
    return float(np.mean(records.nll))


def _mass(mean, L, position, heading, extent, n: int, rng: np.random.Generator) -> float:
    """Monte Carlo fraction of n draws from N(mean, L L^T) inside the
    rectangle of the given position, heading and extent (width, length)."""
    samples = sample_gaussian(mean, L, rng, n)
    return float(np.mean(points_in_pose(position, heading, extent, samples)))


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


def per_record_scores(records: Records, n_mc: int, seed: int) -> np.ndarray:
    """One OPM score per record, each from an independent seeded substream
    derived from (seed, record index), so records can be scored in parallel
    without changing the result."""
    L = cholesky(records.cov)
    rows = zip(records.mean, L, records.truth, records.heading.tolist(), records.extent)
    out = np.empty(len(records))
    for i, (mean, factor, position, heading, extent) in enumerate(rows):
        rng = np.random.default_rng(np.random.SeedSequence([seed, i]))
        out[i] = _mass(mean, factor, position, heading, extent, n_mc, rng)
    return out


def evaluate(
    records: Records,
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
