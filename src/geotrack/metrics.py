"""Evaluation suite: NLL aggregation, object probability mass, and the
threshold-sweep tracking scores derived from it.

The object probability mass (OPM) of a prediction is the predicted
probability mass falling inside the object's ground-truth rectangle. It is
computed exactly: in the rectangle's frame the mass is an axis-aligned
rectangle probability of a correlated bivariate normal, which is four
bivariate-normal orthant probabilities, each from Genz's bvnu (Genz,
Statistics and Computing 14 (2004) 251-260; Drezner & Wesolowsky, J.
Statist. Comput. Simul. 35 (1990) 101-107). Because it lives in [0, 1] it
substitutes for IoU in threshold-style tracking metrics: detection precision
over an alpha sweep (which equals detection recall in the
one-prediction-per-frame setting) and localization accuracy over the
on-track steps.

The scored predictions are arrays (Records): means, covariances and the
truth rows they are matched to, one row each, as dataio loads them. One NLL
pass per Records serves the report and the per-record histogram, and one
bulk OPM pass serves the three OPM-based scores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import Pairs

# The 20-point Gauss-Legendre rule on [-1, 1] is symmetric: its positive
# nodes and their weights, correctly rounded.
_GL_X = np.array([
    0.9931285991850949, 0.9639719272779138, 0.912234428251326, 0.8391169718222188,
    0.7463319064601508, 0.636053680726515, 0.5108670019508271, 0.37370608871541955,
    0.22778585114164507, 0.07652652113349734,
])
_GL_W = np.array([
    0.017614007139152118, 0.04060142980038694, 0.06267204833410907, 0.08327674157670475,
    0.10193011981724044, 0.11819453196151841, 0.13168863844917664, 0.14209610931838204,
    0.14917298647260374, 0.15275338713072584,
])
# The full rule mapped to [0, 1], t = (1 -+ x) / 2, with its weights.
_GL_T = np.concatenate([(1.0 - _GL_X) / 2.0, (1.0 + _GL_X) / 2.0])
_GL_W2 = np.concatenate([_GL_W, _GL_W])
_TWO_PI = 2.0 * math.pi
# A standardised bound beyond +-40 changes no orthant probability in double
# precision (Phi(-40) is below 1e-348); clipping to it keeps h*h and h*k finite.
_BOUND = 40.0


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
    """The four headline metrics and the alpha sweep they were scored over."""

    nll: float
    opm: float
    det_pr: float
    loc_a: float
    alpha_sweep: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "alpha_sweep", tuple(self.alpha_sweep))


def mean_nll(records: Records) -> float:
    """Arithmetic mean of per-record NLL of the truth position."""
    if len(records) == 0:
        raise ValueError("cannot evaluate zero records")
    return float(np.mean(records.nll))


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


def _phi(x: np.ndarray) -> np.ndarray:
    """Standard normal CDF per element, 0.5 * erfc(-x / sqrt(2)) by math.erfc:
    numpy has no erf."""
    flat = (x / -math.sqrt(2.0)).ravel().tolist()
    return 0.5 * np.fromiter(map(math.erfc, flat), float, len(flat)).reshape(x.shape)


def _bvnu(h: np.ndarray, k: np.ndarray, r: np.ndarray) -> np.ndarray:
    """P(X > h, Y > k) for standard normals X, Y with correlation r in
    [-1, 1], by Genz's bvnu: h and k are (M, J), J orthants per row that
    share the row's r (M,)."""
    h, k = np.clip(h, -_BOUND, _BOUND), np.clip(k, -_BOUND, _BOUND)
    p = np.empty(h.shape)
    # At r = 0 the orthant is the product of its two margins: the series'
    # value there, bit for bit, at under half its cost.
    zero = r == 0.0
    p[zero] = _phi(-h[zero]) * _phi(-k[zero])
    low = (np.abs(r) < 0.925) & ~zero
    p[low] = _bvnu_series(h[low], k[low], r[low])
    high = np.abs(r) >= 0.925
    p[high] = _bvnu_asymptotic(h[high], k[high], r[high])
    return p


def _bvnu_series(h, k, r):
    """bvnu for |r| < 0.925: Drezner & Wesolowsky's integral over theta from
    0 to asin(r), on the 20-point Gauss-Legendre rule."""
    # math.asin per element: np.arcsin can differ from it in the last bit.
    asr = np.fromiter(map(math.asin, r.tolist()), float, len(r))
    sn = np.sin(asr[:, None] * _GL_T)[:, None, :]
    hk, hs = (h * k)[..., None], ((h * h + k * k) / 2.0)[..., None]
    total = np.exp((sn * hk - hs) / (1.0 - sn * sn)) @ _GL_W2
    return total * (asr / (2.0 * _TWO_PI))[:, None] + _phi(-h) * _phi(-k)


def _bvnu_asymptotic(h, k, r):
    """bvnu for 0.925 <= |r| <= 1: Genz's expansion of the integral in
    sqrt(1 - r^2) about r = +-1, plus the degenerate orthant at r = +-1."""
    k = np.where(r[:, None] < 0.0, -k, k)
    correction = np.zeros(h.shape)
    inner = np.abs(r) < 1.0
    correction[inner] = _asymptotic_correction(h[inner], k[inner], r[inner])
    between = np.where(h < 0.0, _phi(k) - _phi(h), _phi(-h) - _phi(-k))
    return np.where(
        r[:, None] > 0.0,
        _phi(-np.maximum(h, k)) + correction,
        np.where(k > h, between, 0.0) - correction,
    )


def _asymptotic_correction(h, k, r):
    """The r-dependent part of bvnu for 0.925 <= |r| < 1, with k already
    negated where r < 0."""
    hk = h * k
    as_ = ((1.0 - r) * (1.0 + r))[:, None]
    a = np.sqrt(as_)
    bs = (h - k) ** 2
    c = (4.0 - hk) / 8.0
    d = (12.0 - hk) / 16.0
    series = a * np.exp(-(bs / as_ + hk) / 2.0) * (
        1.0 - c * (bs - as_) * (1.0 - d * bs / 5.0) / 3.0 + c * d * as_ * as_ / 5.0
    )
    # Below hk = -160 the tail term is below the double range: Phi(-b/a) is 0.
    b = np.sqrt(bs)
    tail = (
        np.exp(-np.maximum(hk, -160.0) / 2.0) * math.sqrt(_TWO_PI) * _phi(-b / a)
        * b * (1.0 - c * bs * (1.0 - d * bs / 5.0) / 3.0)
    )
    series -= np.where(hk > -160.0, tail, 0.0)
    xs = (as_ * _GL_T * _GL_T)[:, None, :]
    rs = np.sqrt(1.0 - xs)
    bs, hk, c, d = (v[..., None] for v in (bs, hk, c, d))
    nodes = (
        np.exp(-bs / (2.0 * xs) - hk / (1.0 + rs)) / rs
        - np.exp(-(bs / xs + hk) / 2.0) * (1.0 + c * xs * (1.0 + d * xs))
    )
    return -(series + a / 2.0 * (nodes @ _GL_W2)) / _TWO_PI


def per_record_scores(records: Records) -> np.ndarray:
    """Each record's OPM: the mass of N(mean, cov) inside its truth rectangle.

    Each mean offset and covariance is rotated into the rectangle's frame
    (width along x, length along y, as ObjectPose defines it) and
    standardised; the mass is then F(lo, lo) - F(hi, lo) - F(lo, hi) +
    F(hi, hi) over the standardised bounds, with F the upper orthant
    probability at the frame's correlation. Clipped to [0, 1].
    """
    c, s = np.cos(records.heading), np.sin(records.heading)
    d = records.mean - records.truth
    m0 = c * d[:, 0] + s * d[:, 1]
    m1 = c * d[:, 1] - s * d[:, 0]
    a, b, e = records.cov[:, 0, 0], records.cov[:, 0, 1], records.cov[:, 1, 1]
    s0 = np.sqrt(c * c * a + 2.0 * c * s * b + s * s * e)
    s1 = np.sqrt(s * s * a - 2.0 * c * s * b + c * c * e)
    rho = np.clip((c * s * (e - a) + (c * c - s * s) * b) / (s0 * s1), -1.0, 1.0)
    half_w, half_l = records.extent[:, 0] / 2.0, records.extent[:, 1] / 2.0
    h_lo, h_hi = (-half_w - m0) / s0, (half_w - m0) / s0
    k_lo, k_hi = (-half_l - m1) / s1, (half_l - m1) / s1
    f = _bvnu(
        np.stack([h_lo, h_hi, h_lo, h_hi], axis=1),
        np.stack([k_lo, k_lo, k_hi, k_hi], axis=1),
        rho,
    )
    return np.clip(f[:, 0] - f[:, 1] - f[:, 2] + f[:, 3], 0.0, 1.0)


def evaluate(
    records: Records,
    sweep: AlphaSweep | None = None,
    *,
    n_mc: int = 0,
) -> MetricReport:
    """Compute all four metrics from one shared per-record score pass."""
    # n_mc is kept only for perfbench/layers.py's evaluate hook, which reads
    # it; the scores are exact, so 0 (no Monte Carlo draws) is its one value.
    if n_mc != 0:
        raise ValueError(f"OPM is exact and draws no samples; n_mc must be 0, got {n_mc}")
    if len(records) == 0:
        raise ValueError("cannot evaluate zero records")
    if sweep is None:
        sweep = default_sweep()
    # The NLL pass also rejects a covariance that is not positive definite.
    nll = mean_nll(records)
    scores = per_record_scores(records)
    return MetricReport(
        nll=nll,
        opm=float(np.mean(scores)),
        det_pr=det_pr(scores, sweep),
        loc_a=loc_a(scores, sweep),
        alpha_sweep=sweep.thresholds,
    )
