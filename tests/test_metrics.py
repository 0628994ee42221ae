import math
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import mc_scores, mp_orthant, mp_rectangle_mass, phi, random_pd_2x2, records_arrays
from geotrack.core import Gaussian2D, NotPositiveDefiniteError, ObjectPose, nll, rotation
from geotrack.metrics import (
    AlphaSweep,
    Records,
    _bvnu,
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


def exact_opm(g: Gaussian2D, pose: ObjectPose) -> float:
    """per_record_scores of one record."""
    return float(per_record_scores(records_arrays([(g, pose)]))[0])


def body_records(rng, n, heading, extent, sigma, rho, offset) -> Records:
    """n records whose covariance has standard deviations sigma (n, 2) and
    correlation rho (n,) in the frame of a rectangle at the origin with the
    given headings (n,) and extents (n, 2); mean offsets (n, 2) are in that
    frame too."""
    cov_body = np.empty((n, 2, 2))
    cov_body[:, 0, 0], cov_body[:, 1, 1] = sigma[:, 0] ** 2, sigma[:, 1] ** 2
    cov_body[:, 0, 1] = cov_body[:, 1, 0] = rho * sigma[:, 0] * sigma[:, 1]
    R = np.stack([rotation(a) for a in heading])
    cov = R @ cov_body @ R.transpose(0, 2, 1)
    cov[:, 1, 0] = cov[:, 0, 1]
    position = rng.uniform(-100.0, 100.0, (n, 2))
    mean = position + np.einsum("nij,nj->ni", R, offset)
    return Records(mean, cov, position, heading, extent)


class TestOpm:
    def test_concentrated_inside(self):
        g = Gaussian2D((0.0, 0.0), 1e-6 * np.eye(2))
        assert exact_opm(g, rect()) == 1.0

    def test_half_plane_on_edge_midpoint(self):
        g = Gaussian2D((0.0, 15.0), 1e-6 * np.eye(2))  # midpoint of the long edge
        assert exact_opm(g, rect()) == pytest.approx(0.5, abs=1e-12)

    def test_reference_analytic_case(self):
        expected = centered_opm_exact(10.0)
        assert expected == pytest.approx(0.4737, abs=5e-4)
        g = Gaussian2D((0.0, 0.0), 100.0 * np.eye(2))
        assert exact_opm(g, rect()) == pytest.approx(expected, abs=1e-12)

    def test_bounds_and_monotone_in_scale(self):
        scores = []
        for scale in (1.0, 4.0, 16.0, 64.0, 256.0):
            g = Gaussian2D((0.0, 0.0), scale * np.eye(2))
            v = exact_opm(g, rect())
            assert 0.0 <= v <= 1.0
            scores.append(v)
        assert all(b < a for a, b in zip(scores, scores[1:]))

    def test_rotated_rectangle(self):
        # Rotating both the rectangle and the (isotropic) prediction together
        # leaves the captured mass unchanged.
        g = Gaussian2D((0.0, 0.0), 100.0 * np.eye(2))
        assert exact_opm(g, rect(heading=0.9)) == pytest.approx(exact_opm(g, rect()), abs=1e-12)


class TestExactOpm:
    @pytest.mark.parametrize("sigma", [0.1, 1.0, 5.0, 10.0, 40.0, 1e3])
    def test_centered_closed_form(self, sigma):
        # An isotropic covariance has correlation 0 in every frame: the
        # product-of-margins branch.
        records = records_arrays(
            [(Gaussian2D((0.0, 0.0), sigma**2 * np.eye(2)), rect(heading=a)) for a in (0.0, 0.4, -2.5)]
        )
        np.testing.assert_allclose(per_record_scores(records), centered_opm_exact(sigma), rtol=0, atol=1e-12)

    def test_axis_aligned_closed_form_under_rotation(self):
        # A covariance diagonal in the rectangle's frame, offset and rotated
        # with it: the product of per-axis CDF differences, through the
        # rotation and the correlated branches (the rotated correlation is
        # a rounding residue, not 0).
        rng = np.random.default_rng(46)
        n = 200
        extent = rng.uniform(5.0, 40.0, (n, 2))
        sigma = rng.uniform(1.0, 30.0, (n, 2))
        offset = rng.uniform(-30.0, 30.0, (n, 2))
        records = body_records(rng, n, rng.uniform(-math.pi, math.pi, n), extent, sigma, np.zeros(n), offset)
        expected = [
            (phi((w / 2 - m0) / s0) - phi((-w / 2 - m0) / s0)) * (phi((l / 2 - m1) / s1) - phi((-l / 2 - m1) / s1))
            for (w, l), (s0, s1), (m0, m1) in zip(extent, sigma, offset)
        ]
        np.testing.assert_allclose(per_record_scores(records), expected, rtol=0, atol=1e-12)

    @given(
        extent=st.tuples(st.floats(0.5, 50.0), st.floats(0.5, 50.0)),
        heading=st.floats(-math.pi, math.pi),
        log_scale=st.tuples(st.floats(-2.0, 3.0), st.floats(-2.0, 3.0)),
        rho=st.floats(-0.9999, 0.9999),
        offset=st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
    )
    def test_matches_mpmath_reference(self, extent, heading, log_scale, rho, offset):
        # sigma from 1e-2 to 1e3 times the rectangle's size, any correlation
        # up to |rho| = 0.9999 in the rectangle's frame, and a mean from
        # inside the rectangle to a few sigma outside it.
        size = math.hypot(*extent)
        sigma = np.array([size * 10.0**log_scale[0], size * 10.0**log_scale[1]])
        reach = np.array(extent) / 2.0 + 2.0 * sigma
        records = body_records(
            np.random.default_rng(0), 1, np.array([heading]), np.array([extent]),
            sigma[None], np.array([rho]), (np.array(offset) * reach)[None],
        )
        score = per_record_scores(records)[0]
        reference = mp_rectangle_mass(
            records.mean[0], records.cov[0], records.truth[0], heading, extent
        )
        assert 0.0 <= score <= 1.0
        assert abs(score - reference) <= 1e-12

    @pytest.mark.parametrize("r", [-0.9999, -0.97, -0.6, 0.1, 0.9, 0.925, 0.999])
    def test_orthant_matches_mpmath(self, r):
        # Both branches (|r| < 0.925 and the asymptotic one), both signs, and
        # h, k on either side of each other and of 0.
        values = [-4.0, -1.7, -0.3, 0.4, 1.1, 6.0]
        h, k = (np.array(v, dtype=float).reshape(1, -1) for v in zip(*[(a, b) for a in values for b in values]))
        got = _bvnu(h, k, np.array([r]))[0]
        expected = [mp_orthant(a, b, r, dps=20) for a, b in zip(h[0], k[0])]
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-15)

    @given(
        heading=st.floats(-math.pi, math.pi),
        log_scale=st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)),
        rho=st.one_of(st.floats(0.9, 0.9999), st.floats(-0.9999, -0.9)),
        offset=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    )
    def test_strongly_correlated_matches_mpmath(self, heading, log_scale, rho, offset):
        # sigma near the rectangle's size, where the correlation moves the
        # mass most, and |rho| >= 0.9 in the rectangle's frame.
        extent = np.array([15.0, 30.0])
        sigma = extent * 10.0 ** np.array(log_scale)
        records = body_records(
            np.random.default_rng(0), 1, np.array([heading]), extent[None],
            sigma[None], np.array([rho]), (np.array(offset) * (extent / 2.0 + sigma))[None],
        )
        reference = mp_rectangle_mass(records.mean[0], records.cov[0], records.truth[0], heading, extent)
        assert abs(per_record_scores(records)[0] - reference) <= 1e-12

    def test_orthant_limits(self):
        # At r = 0 the orthant is a product; at r = +-1 it is an interval of
        # one normal: Phi(-max(h, k)) and P(h < X < -k).
        h = np.array([[-1.5, 0.0, 0.3, 2.0]])
        k = np.array([[0.7, -0.2, -2.5, 1.0]])
        margins = [(1.0 - phi(a), 1.0 - phi(b)) for a, b in zip(h[0], k[0])]
        np.testing.assert_allclose(_bvnu(h, k, np.array([0.0]))[0], [p * q for p, q in margins], rtol=0, atol=1e-15)
        up = [1.0 - phi(max(a, b)) for a, b in zip(h[0], k[0])]
        np.testing.assert_allclose(_bvnu(h, k, np.array([1.0]))[0], up, rtol=0, atol=1e-15)
        down = [max(0.0, phi(-b) - phi(a)) for a, b in zip(h[0], k[0])]
        np.testing.assert_allclose(_bvnu(h, k, np.array([-1.0]))[0], down, rtol=0, atol=1e-15)

    def test_monte_carlo_oracle_within_binomial_interval(self):
        # The correlated path, which no isotropic scenario runs: rotated
        # rectangles and anisotropic covariances correlated in their frame.
        # Each Monte Carlo score lies in the binomial interval of the exact
        # mass, at a per-record level that gives 99% for all records at once.
        rng = np.random.default_rng(47)
        n_records, n = 40, 2000
        records = body_records(
            rng, n_records, rng.uniform(-math.pi, math.pi, n_records),
            np.tile([15.0, 30.0], (n_records, 1)), rng.uniform(3.0, 20.0, (n_records, 2)),
            rng.uniform(-0.95, 0.95, n_records), rng.uniform(-10.0, 10.0, (n_records, 2)),
        )
        exact = per_record_scores(records)
        estimate = mc_scores(records, n, seed=3)
        z = NormalDist().inv_cdf(1.0 - 0.01 / (2 * n_records))
        half_width = z * np.sqrt(exact * (1.0 - exact) / n) + 0.5 / n
        assert np.all(np.abs(estimate - exact) <= half_width)


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
        report = evaluate(records)
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
        report = evaluate(records, sweep=sweep)
        scores = per_record_scores(records)
        assert report.opm == pytest.approx(float(np.mean(scores)), abs=1e-12)
        assert report.det_pr == pytest.approx(det_pr(scores, sweep), abs=1e-12)
        assert report.loc_a == pytest.approx(loc_a(scores, sweep), abs=1e-12)
        assert report.nll == pytest.approx(mean_nll(records), abs=1e-12)

    def test_nll_independent_of_sweep(self):
        records = records_arrays([(Gaussian2D((1.0, 1.0), 4.0 * np.eye(2)), rect())])
        a = evaluate(records, sweep=AlphaSweep((0.5,)))
        b = evaluate(records, sweep=default_sweep())
        assert a.nll == b.nll

    def test_deterministic(self):
        rng = np.random.default_rng(45)
        records = records_arrays(
            [
                (Gaussian2D(rng.uniform(-5, 5, 2), random_pd_2x2(rng, 20, 200)), rect())
                for k in range(10)
            ]
        )
        assert evaluate(records) == evaluate(records)

    def test_draws_no_samples(self):
        # n_mc is keyword-only and 0 is its one accepted value.
        records = records_arrays([(Gaussian2D((1.0, 1.0), 4.0 * np.eye(2)), rect())])
        assert evaluate(records, n_mc=0) == evaluate(records)
        with pytest.raises(ValueError, match="n_mc must be 0"):
            evaluate(records, n_mc=1000)
        with pytest.raises(TypeError):
            evaluate(records, None, 0)

    def test_rejects_covariance_not_positive_definite(self):
        records = Records(
            np.zeros((1, 2)), np.array([[[1.0, 2.0], [2.0, 1.0]]]), np.zeros((1, 2)),
            np.zeros(1), np.array([[15.0, 30.0]]),
        )
        with pytest.raises(NotPositiveDefiniteError):
            evaluate(records)

    def test_scores_above_sweep_identity(self):
        # All scores above max(alpha): det_pr is 1 and loc_a the plain mean.
        scores = np.array([0.97, 0.99, 0.96])
        sweep = default_sweep()
        assert det_pr(scores, sweep) == 1.0
        assert loc_a(scores, sweep) == pytest.approx(float(scores.mean()), abs=1e-12)
