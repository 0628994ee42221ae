import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cell_fit, pairs_arrays, random_pd_2x2
from geotrack.calibration import (
    IDENTITY,
    CalibrationGrid,
    CalibrationParams,
    default_grid,
    fit,
    fit_per_view,
    linear_axis,
    log_spaced_axis,
    obs_transform,
)
from geotrack.core import Gaussian2D, Pairs, nll, rotation


def sampled_pairs(rng, n, true_scale=1.0, base_var=25.0):
    """Detections whose true noise covariance is true_scale times the
    reported one; truths drawn from the true distribution."""
    pairs = []
    for _ in range(n):
        reported = random_pd_2x2(rng, base_var * 0.5, base_var * 1.5)
        mean = rng.uniform(0, 500, 2)
        true_cov = true_scale * reported
        truth = mean + np.linalg.cholesky(true_cov) @ rng.standard_normal(2)
        pairs.append((Gaussian2D(mean, reported), truth))
    return pairs


class TestParamsAndGrid:
    def test_params_validation(self):
        with pytest.raises(ValueError):
            CalibrationParams(0.0, 0.0)
        with pytest.raises(ValueError):
            CalibrationParams(1.0, -1.0)
        for a, b in ((math.inf, 0.0), (1.0, math.nan), (1.0, math.inf)):
            with pytest.raises(ValueError, match="finite"):
                CalibrationParams(a, b)

    def test_grid_requires_identity_point(self):
        with pytest.raises(ValueError, match="identity"):
            CalibrationGrid((0.5, 2.0), (0.0, 10.0))
        with pytest.raises(ValueError, match="identity"):
            CalibrationGrid((0.5, 1.0, 2.0), (10.0, 20.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_grid_requires_finite_values(self, bad):
        with pytest.raises(ValueError, match="finite"):
            CalibrationGrid((1.0, bad), (0.0,))
        with pytest.raises(ValueError, match="finite"):
            CalibrationGrid((1.0,), (0.0, bad))

    def test_grid_requires_ascending(self):
        with pytest.raises(ValueError):
            CalibrationGrid((1.0, 0.5), (0.0,))

    def test_default_grid_shape(self):
        grid = default_grid()
        assert 1.0 in grid.a_values and 0.0 in grid.b_values
        assert len(grid.a_values) == 61  # 60 log-spaced plus exact 1.0
        assert len(grid.b_values) == 51  # linspace already contains 0
        assert grid.a_values[0] == 0.05 and grid.a_values[-1] == 10.0
        assert grid.b_values[-1] == 500.0

    def test_axis_helpers(self):
        assert 1.0 in log_spaced_axis(0.05, 10.0, 60)
        assert 0.0 in linear_axis(0.0, 500.0, 51)


def apply(params: CalibrationParams, g: Gaussian2D) -> Gaussian2D:
    """One detection calibrated by obs_transform; the mean is untouched."""
    cov = obs_transform({"": params}, ("",), g.cov[None])
    return Gaussian2D(g.mean, cov[0])


class TestApply:
    def test_identity(self):
        g = Gaussian2D((1.0, 2.0), [[4.0, 1.0], [1.0, 9.0]])
        out = apply(IDENTITY, g)
        np.testing.assert_allclose(out.mean, g.mean)
        np.testing.assert_allclose(out.cov, g.cov)

    def test_determinant_scaling(self):
        g = Gaussian2D((0.0, 0.0), np.eye(2))
        out = apply(CalibrationParams(4.0, 0.0), g)
        np.testing.assert_allclose(out.cov, 4.0 * np.eye(2))
        assert nll(out, (0.0, 0.0)) - nll(g, (0.0, 0.0)) == pytest.approx(
            math.log(4.0), abs=1e-12
        )

    def test_elementwise_affine(self):
        g = Gaussian2D((0.0, 0.0), [[4.0, 1.0], [1.0, 9.0]])
        out = apply(CalibrationParams(2.0, 3.0), g)
        np.testing.assert_allclose(out.cov, [[11.0, 2.0], [2.0, 21.0]])

    def test_never_shrinks_eigenvalues(self):
        rng = np.random.default_rng(30)
        for _ in range(100):
            cov = random_pd_2x2(rng, 0.5, 50.0)
            a = rng.uniform(1.0, 5.0)
            b = rng.uniform(0.0, 20.0)
            out = apply(CalibrationParams(a, b), Gaussian2D((0, 0), cov))
            assert np.linalg.eigvalsh(out.cov)[0] >= np.linalg.eigvalsh(cov)[0] - 1e-12

    def test_commutes_with_rotation(self):
        rng = np.random.default_rng(31)
        g = Gaussian2D((1.0, 2.0), random_pd_2x2(rng, 1.0, 30.0))
        p = CalibrationParams(2.5, 7.0)
        R = rotation(0.8)
        first = apply(p, Gaussian2D(R @ g.mean, R @ g.cov @ R.T))
        second = apply(p, g)
        np.testing.assert_allclose(first.cov, R @ second.cov @ R.T, rtol=1e-12)


class TestFit:
    def test_exact_covariances_select_identity_region(self):
        # Sampling oracle: with truths drawn from the reported covariances,
        # the NLL at (1, 0) sits within 0.02 of the grid minimum.
        rng = np.random.default_rng(32)
        pairs = sampled_pairs(rng, 10_000, true_scale=1.0)
        grid = default_grid()
        params, best = fit(grid, pairs_arrays(pairs))
        at_identity = float(np.mean([nll(g, t) for g, t in pairs]))
        assert at_identity - best <= 0.02
        assert 0.8 <= params.a <= 1.25

    def test_underdispersed_recovers_scale(self):
        # Moment-matching oracle: true noise is 4x the reported covariance.
        rng = np.random.default_rng(33)
        pairs = sampled_pairs(rng, 10_000, true_scale=4.0)
        params, _ = fit(default_grid(), pairs_arrays(pairs))
        assert 3.5 <= params.a <= 4.5
        assert params.b <= 20.0

    def test_single_pair_truth_at_mean(self):
        # No quadratic term: the smallest determinant wins, i.e. (a_min, 0).
        g = Gaussian2D((10.0, 10.0), 25.0 * np.eye(2))
        grid = default_grid()
        params, _ = fit(grid, pairs_arrays([(g, np.array([10.0, 10.0]))]))
        assert params.a == grid.a_values[0]
        assert params.b == 0.0

    def test_never_worse_than_identity(self):
        rng = np.random.default_rng(34)
        for scale in (0.3, 1.0, 5.0):
            pairs = sampled_pairs(rng, 300, true_scale=scale)
            _, best = fit(default_grid(), pairs_arrays(pairs))
            at_identity = float(np.mean([nll(g, t) for g, t in pairs]))
            assert best <= at_identity + 1e-12

    def test_deterministic(self):
        rng = np.random.default_rng(35)
        pairs = sampled_pairs(rng, 200, true_scale=2.0)
        pairs = pairs_arrays(pairs)
        assert fit(default_grid(), pairs) == fit(default_grid(), pairs)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fit(default_grid(), pairs_arrays([]))


@st.composite
def grid_fit_case(draw):
    """Pairs and a grid for the blocked fit. N runs from 1 to above 2^14
    pairs, so a block holds every b row (N <= 2^14 / n_b), some of them, or
    one. The pairs may be copies of fewer distinct pairs; in the tie mode
    every covariance is I and the grid's a + b sums coincide, so whole
    groups of cells give the same NLL bits."""
    n = draw(st.one_of(st.integers(1, 300), st.integers(301, 8192), st.integers(8193, 17_000)))
    distinct = draw(st.integers(1, n))
    tie = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mean = rng.uniform(0.0, 500.0, (distinct, 2))
    if tie:
        grid = CalibrationGrid(tuple(np.arange(1, 7) / 2.0), tuple(np.arange(7) / 2.0))
        cov = np.broadcast_to(np.eye(2), (distinct, 2, 2))
        noise = rng.standard_normal((distinct, 2)) * draw(st.floats(1.0, 3.0))
    else:
        a_values = draw(st.lists(st.floats(0.05, 10.0), max_size=8))
        b_values = draw(st.lists(st.floats(0.0, 500.0), min_size=20, max_size=60))
        grid = CalibrationGrid(sorted({1.0, *a_values}), sorted({0.0, *b_values}))
        eig = 10.0 ** rng.uniform(-1.0, 3.0, (distinct, 2))
        turn = np.array([rotation(a) for a in rng.uniform(0.0, 2.0 * np.pi, distinct)])
        cov = turn @ (eig[..., None] * np.swapaxes(turn, -1, -2))
        scale = draw(st.floats(0.3, 3.0))
        noise = (np.linalg.cholesky(cov) @ rng.standard_normal((distinct, 2, 1)))[..., 0] * scale
    rows = np.arange(n) % distinct
    return grid, Pairs(mean[rows], np.array(cov)[rows], (mean + noise)[rows])


class TestBlockedFit:
    @settings(max_examples=100)
    @given(grid_fit_case())
    def test_matches_per_cell_fit_bitwise(self, case):
        grid, pairs = case
        params, best = fit(grid, pairs)
        ref_params, ref_best = cell_fit(grid, pairs)
        assert (params.a, params.b) == (ref_params.a, ref_params.b)
        assert best.hex() == ref_best.hex()


class TestFitPerView:
    def test_identical_data_identical_params(self):
        rng = np.random.default_rng(36)
        pairs = sampled_pairs(rng, 500, true_scale=2.0)
        result = fit_per_view(default_grid(), {"N1": pairs_arrays(pairs), "N2": pairs_arrays(pairs)})
        assert result.params["N1"] == result.params["N2"]
        assert not result.errors

    def test_mixed_views(self):
        rng = np.random.default_rng(37)
        result = fit_per_view(
            default_grid(),
            {
                "bad": pairs_arrays(sampled_pairs(rng, 4000, true_scale=4.0)),
                "good": pairs_arrays(sampled_pairs(rng, 4000, true_scale=1.0)),
            },
        )
        assert 3.5 <= result.params["bad"].a <= 4.5
        assert 0.8 <= result.params["good"].a <= 1.25

    def test_view_without_data_errors_alone(self):
        rng = np.random.default_rng(38)
        result = fit_per_view(
            default_grid(), {"ok": pairs_arrays(sampled_pairs(rng, 100)), "empty": pairs_arrays([])}
        )
        assert "empty" in result.errors
        assert "ok" in result.params
