import math

import numpy as np
import pytest

from conftest import opm, phi, random_pd_2x2, records_arrays
from geotrack.core import Gaussian2D, ObjectPose, nll
from geotrack.metrics import (
    AlphaSweep,
    default_sweep,
    det_pr,
    evaluate,
    loc_a,
    mean_nll,
    per_record_scores,
)

LOG_2PI = math.log(2.0 * math.pi)


def rect(cx=0.0, cy=0.0, heading=0.0, w=15.0, l=30.0):
    return ObjectPose((cx, cy), heading, (w, l))


def centered_opm_exact(sigma, w=15.0, l=30.0):
    """Closed form for an isotropic Gaussian centered in an axis-aligned
    rectangle: product of per-axis CDF differences."""
    return (2.0 * phi(w / (2.0 * sigma)) - 1.0) * (2.0 * phi(l / (2.0 * sigma)) - 1.0)


class TestAlphaSweep:
    def test_validation(self):
        with pytest.raises(ValueError):
            AlphaSweep(())
        with pytest.raises(ValueError):
            AlphaSweep((0.0, 0.5))
        with pytest.raises(ValueError):
            AlphaSweep((0.5, 0.5))

    def test_default(self):
        sweep = default_sweep()
        assert len(sweep.thresholds) == 19
        assert sweep.thresholds[0] == 0.05 and sweep.thresholds[-1] == 0.95


class TestMeanNll:
    def test_unit_gaussians_at_truth(self):
        records = records_arrays(
            [(Gaussian2D((k, 0.0), np.eye(2)), rect(cx=k)) for k in range(5)]
        )
        assert mean_nll(records) == pytest.approx(LOG_2PI, abs=1e-12)

    def test_mean_of_two(self):
        r1 = (Gaussian2D((0.0, 0.0), np.eye(2)), rect())
        r2 = (Gaussian2D((3.0, 0.0), 4.0 * np.eye(2)), rect())
        v1 = mean_nll(records_arrays([r1]))
        v2 = mean_nll(records_arrays([r2]))
        assert mean_nll(records_arrays([r1, r2])) == pytest.approx((v1 + v2) / 2.0, rel=1e-12)

    def test_against_naive_sum_oracle(self):
        rng = np.random.default_rng(40)
        records = [
            (
                Gaussian2D(rng.uniform(-10, 10, 2), random_pd_2x2(rng, 1, 50)),
                rect(cx=rng.uniform(-5, 5), cy=rng.uniform(-5, 5)),
            )
            for k in range(100)
        ]
        total = 0.0
        for g, pose in records:
            total += nll(g, pose.position)
        assert mean_nll(records_arrays(records)) == pytest.approx(total / 100.0, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_nll(records_arrays([]))


class TestOpm:
    def test_concentrated_inside(self):
        g = Gaussian2D((0.0, 0.0), 1e-6 * np.eye(2))
        assert opm(g, rect(), rng=np.random.default_rng(0)) == 1.0

    def test_half_plane_on_edge_midpoint(self):
        g = Gaussian2D((0.0, 15.0), 1e-6 * np.eye(2))  # midpoint of the long edge
        value = opm(g, rect(), n=1000, rng=np.random.default_rng(1))
        assert value == pytest.approx(0.5, abs=0.05)

    def test_reference_analytic_case(self):
        expected = centered_opm_exact(10.0)
        assert expected == pytest.approx(0.4737, abs=5e-4)
        g = Gaussian2D((0.0, 0.0), 100.0 * np.eye(2))
        value = opm(g, rect(), n=1000, rng=np.random.default_rng(2))
        assert value == pytest.approx(expected, abs=0.05)

    def test_bounds_and_monotone_in_scale(self):
        scores = []
        for scale in (1.0, 4.0, 16.0, 64.0, 256.0):
            g = Gaussian2D((0.0, 0.0), scale * np.eye(2))
            v = opm(g, rect(), n=2000, rng=np.random.default_rng(3))
            assert 0.0 <= v <= 1.0
            scores.append(v)
        assert all(b <= a for a, b in zip(scores, scores[1:]))

    def test_rotated_rectangle(self):
        # Rotating both the rectangle and the (isotropic) prediction together
        # leaves the captured mass unchanged.
        g = Gaussian2D((0.0, 0.0), 100.0 * np.eye(2))
        base = opm(g, rect(), n=50_000, rng=np.random.default_rng(4))
        tilted = opm(g, rect(heading=0.9), n=50_000, rng=np.random.default_rng(5))
        assert tilted == pytest.approx(base, abs=0.01)


class TestDetPr:
    def test_direct_count(self):
        assert det_pr([0.9, 0.2, 0.6], AlphaSweep((0.5,))) == pytest.approx(2.0 / 3.0)

    def test_all_perfect(self):
        assert det_pr([1.0] * 7, default_sweep()) == 1.0

    def test_uniform_scores_expectation(self):
        rng = np.random.default_rng(41)
        scores = rng.uniform(0.0, 1.0, 10_000)
        value = det_pr(scores, default_sweep())
        assert value == pytest.approx(0.5, abs=0.03)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(42)
        scores = rng.uniform(0, 1, 50)
        sweep = default_sweep()
        assert det_pr(scores, sweep) == det_pr(scores[::-1], sweep)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            det_pr([], default_sweep())


class TestLocA:
    def test_direct_mean(self):
        assert loc_a([0.9, 0.2, 0.6], AlphaSweep((0.5,))) == pytest.approx(0.75)

    def test_constant_scores(self):
        assert loc_a([0.7, 0.7, 0.7], AlphaSweep((0.1, 0.3, 0.5))) == pytest.approx(0.7)

    def test_against_brute_force_double_loop(self):
        rng = np.random.default_rng(43)
        scores = rng.uniform(0, 1, 500)
        sweep = default_sweep()
        per_alpha = []
        for alpha in sweep.thresholds:
            tps = [s for s in scores if s > alpha]
            if tps:
                per_alpha.append(sum(tps) / len(tps))
        expected = sum(per_alpha) / len(per_alpha)
        assert loc_a(scores, sweep) == pytest.approx(expected, abs=1e-12)

    def test_never_on_track(self):
        with pytest.raises(ValueError, match="never on track"):
            loc_a([0.01, 0.02], default_sweep())

    def test_skips_empty_thresholds(self):
        # Scores above only the lowest alphas: those alphas alone contribute.
        value = loc_a([0.2, 0.25], AlphaSweep((0.1, 0.9)))
        assert value == pytest.approx(0.225)


class TestEvaluate:
    def test_perfect_tracker(self):
        records = records_arrays(
            [(Gaussian2D((0.0, 0.0), 1e-6 * np.eye(2)), rect()) for k in range(10)]
        )
        report = evaluate(records, n_mc=500, seed=0)
        assert report.opm == 1.0
        assert report.det_pr == 1.0
        assert report.loc_a == 1.0

    def test_report_recomputation_oracle(self):
        rng = np.random.default_rng(44)
        records = records_arrays(
            [
                (Gaussian2D(rng.uniform(-8, 8, 2), random_pd_2x2(rng, 10, 300)), rect())
                for k in range(40)
            ]
        )
        sweep = default_sweep()
        report = evaluate(records, sweep=sweep, n_mc=400, seed=9)
        scores = per_record_scores(records, 400, 9)
        assert report.opm == pytest.approx(float(np.mean(scores)), abs=1e-12)
        assert report.det_pr == pytest.approx(det_pr(scores, sweep), abs=1e-12)
        assert report.loc_a == pytest.approx(loc_a(scores, sweep), abs=1e-12)
        assert report.nll == pytest.approx(mean_nll(records), abs=1e-12)

    def test_nll_independent_of_sweep_and_mc(self):
        records = records_arrays([(Gaussian2D((1.0, 1.0), 4.0 * np.eye(2)), rect())])
        a = evaluate(records, sweep=AlphaSweep((0.5,)), n_mc=50, seed=1)
        b = evaluate(records, sweep=default_sweep(), n_mc=5000, seed=7)
        assert a.nll == b.nll

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(45)
        records = records_arrays(
            [
                (Gaussian2D(rng.uniform(-5, 5, 2), random_pd_2x2(rng, 20, 200)), rect())
                for k in range(10)
            ]
        )
        a = evaluate(records, n_mc=300, seed=5)
        b = evaluate(records, n_mc=300, seed=5)
        assert a == b

    def test_scores_above_sweep_identity(self):
        # All scores above max(alpha): det_pr is 1 and loc_a the plain mean.
        scores = np.array([0.97, 0.99, 0.96])
        sweep = default_sweep()
        assert det_pr(scores, sweep) == 1.0
        assert loc_a(scores, sweep) == pytest.approx(float(scores.mean()), abs=1e-12)
