import math

import numpy as np
import pytest

from conftest import opm, points_in_pose
from geotrack.core import Arena, Gaussian2D, ObjectPose, nll, rotation
from geotrack.heads import (
    ExtentGrid,
    RawHead,
    extent_grid,
    grid_loss,
    head_to_gaussian,
    inv_softplus,
    nll_loss,
    sigmoid,
    softplus,
)

LOG_2PI = math.log(2.0 * math.pi)
# softplus(0)^2 + 1, the covariance diagonal produced by an all-zero raw head
ZERO_HEAD_VAR = math.log(2.0) ** 2 + 1.0


class TestNonlinearities:
    def test_sigmoid_values(self):
        assert sigmoid(0.0) == pytest.approx(0.5)
        assert sigmoid(50.0) == pytest.approx(1.0, abs=1e-9)
        assert sigmoid(-50.0) == pytest.approx(0.0, abs=1e-9)
        assert sigmoid(-800.0) == 0.0  # no overflow

    def test_softplus_values(self):
        assert softplus(0.0) == pytest.approx(math.log(2.0))
        assert softplus(1.0) == pytest.approx(math.log(1.0 + math.e))
        assert softplus(-800.0) == 0.0
        assert softplus(800.0) == 800.0

    def test_inv_softplus_round_trip(self):
        for y in (1e-6, 0.1, 1.0, 5.0, 40.0):
            assert softplus(inv_softplus(y)) == pytest.approx(y, rel=1e-9)


class TestHeadToGaussian:
    def test_all_zero_raw(self):
        g = head_to_gaussian(RawHead((0.0, 0.0), (0.0, 0.0), 0.0), Arena())
        np.testing.assert_allclose(g.mean, [250.0, 350.0])
        np.testing.assert_allclose(g.cov, ZERO_HEAD_VAR * np.eye(2), atol=1e-12)
        assert g.cov[0, 0] == pytest.approx(1.4804530139182014, abs=1e-9)

    def test_mean_saturation(self):
        g = head_to_gaussian(RawHead((50.0, 50.0), (0.0, 0.0), 0.0), Arena())
        np.testing.assert_allclose(g.mean, [500.0, 700.0], atol=1e-9)

    def test_hand_multiplied_covariance(self):
        sp1 = math.log(1.0 + math.e)  # softplus(1)
        g = head_to_gaussian(RawHead((0.0, 0.0), (1.0, 1.0), 2.0), Arena())
        expected = np.array(
            [
                [sp1 * sp1 + 1.0, 2.0 * sp1],
                [2.0 * sp1, 4.0 + sp1 * sp1 + 1.0],
            ]
        )
        np.testing.assert_allclose(g.cov, expected, rtol=1e-12)

    def test_min_eigenvalue_floor(self):
        rng = np.random.default_rng(8)
        covs = np.empty((100_000, 2, 2))
        for i in range(covs.shape[0]):
            raw = RawHead(rng.uniform(-10, 10, 2), rng.uniform(-10, 10, 2), rng.uniform(-10, 10))
            covs[i] = head_to_gaussian(raw, Arena()).cov
        min_eig = np.linalg.eigvalsh(covs)[:, 0].min()
        assert min_eig >= 1.0 - 1e-9

    def test_mean_monotone_in_raw(self):
        arena = Arena()
        xs = [
            head_to_gaussian(RawHead((m, 0.0), (0.0, 0.0), 0.0), arena).mean[0]
            for m in np.linspace(-4, 4, 17)
        ]
        assert all(b > a for a, b in zip(xs, xs[1:]))


class TestNllLoss:
    def test_zero_raw_at_truth(self):
        expected = LOG_2PI + math.log(ZERO_HEAD_VAR)
        loss = nll_loss(RawHead((0.0, 0.0), (0.0, 0.0), 0.0), Arena(), (250.0, 350.0))
        assert loss == pytest.approx(expected, abs=1e-12)
        # Frozen from the closed-form oracle log(2 pi) + log(ln(2)^2 + 1).
        assert loss == pytest.approx(2.230225197834505, abs=1e-9)

    def test_unit_displacement_increment(self):
        raw = RawHead((0.0, 0.0), (0.0, 0.0), 0.0)
        arena = Arena()
        base = nll_loss(raw, arena, (250.0, 350.0))
        shifted = nll_loss(raw, arena, (251.0, 350.0))
        assert shifted - base == pytest.approx(1.0 / (2.0 * ZERO_HEAD_VAR), abs=1e-12)
        assert shifted - base == pytest.approx(0.337735, abs=1e-6)

    def test_minimized_at_truth(self):
        arena = Arena()
        truth = (250.0, 350.0)
        best = nll_loss(RawHead((0.0, 0.0), (0.0, 0.0), 0.0), arena, truth)
        for dx in (-0.5, -0.1, 0.1, 0.5):
            other = nll_loss(RawHead((dx, 0.0), (0.0, 0.0), 0.0), arena, truth)
            assert other > best

    def test_warns_outside_arena(self):
        with pytest.warns(UserWarning):
            nll_loss(RawHead((0.0, 0.0), (0.0, 0.0), 0.0), Arena(), (600.0, 100.0))


class TestExtentGrid:
    def test_standard_object_count(self):
        pose = ObjectPose((100.0, 100.0), 0.3, (15.0, 30.0))
        grid = extent_grid(pose, 1.0)
        assert grid.points.shape == (450, 2)
        assert grid.tile_area == 1.0

    def test_four_tile_centers(self):
        pose = ObjectPose((0.0, 0.0), 0.0, (2.0, 2.0))
        grid = extent_grid(pose, 1.0)
        got = {tuple(np.round(p, 9)) for p in grid.points}
        assert got == {(-0.5, -0.5), (-0.5, 0.5), (0.5, -0.5), (0.5, 0.5)}

    def test_rotation_of_lattice(self):
        base = extent_grid(ObjectPose((0.0, 0.0), 0.0, (4.0, 6.0)), 1.0)
        rot = extent_grid(ObjectPose((0.0, 0.0), math.pi / 2.0, (4.0, 6.0)), 1.0)
        expected = base.points @ rotation(math.pi / 2.0).T
        got = {tuple(np.round(p, 9)) for p in rot.points}
        want = {tuple(np.round(p, 9)) for p in expected}
        assert got == want

    def test_all_points_inside_pose(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            pose = ObjectPose(rng.uniform(-50, 50, 2), rng.uniform(-3, 3), (15.0, 30.0))
            grid = extent_grid(pose, 1.0)
            assert points_in_pose(pose.position, pose.heading, pose.extent, grid.points).all()

    def test_tile_out_of_range(self):
        pose = ObjectPose((0.0, 0.0), 0.0, (15.0, 30.0))
        with pytest.raises(ValueError):
            extent_grid(pose, 0.0)
        with pytest.raises(ValueError):
            extent_grid(pose, 8.0)


class TestGridLoss:
    def test_single_point_grid_equals_nll(self):
        g = Gaussian2D((3.0, 4.0), [[5.0, 1.0], [1.0, 7.0]])
        grid = ExtentGrid(np.array([[3.0, 4.0]]), 1.0)
        assert grid_loss(g, grid) == pytest.approx(nll(g, (3.0, 4.0)), rel=1e-12)

    def test_full_mass_capture(self):
        # Rectangle much larger than the distribution: captured mass ~= 1.
        pose = ObjectPose((0.0, 0.0), 0.0, (200.0, 200.0))
        grid = extent_grid(pose, 1.0)
        g = Gaussian2D((0.0, 0.0), 9.0 * np.eye(2))
        assert abs(grid_loss(g, grid)) < 1e-6

    def test_matches_monte_carlo_mass(self):
        # Cross-module oracle: exp(-grid_loss) is the captured mass, which a
        # large Monte Carlo OPM estimates independently.
        pose = ObjectPose((0.0, 0.0), 0.0, (15.0, 30.0))
        grid = extent_grid(pose, 1.0)
        g = Gaussian2D((0.0, 0.0), np.diag([100.0, 100.0]))
        loss = grid_loss(g, grid)
        mass_mc = opm(g, pose, n=200_000, rng=np.random.default_rng(10))
        assert loss == pytest.approx(-math.log(mass_mc), abs=0.02)

    def test_nonnegative_for_fine_tiles(self):
        rng = np.random.default_rng(11)
        pose = ObjectPose((0.0, 0.0), 0.0, (15.0, 30.0))
        grid = extent_grid(pose, 1.0)
        for _ in range(50):
            eigs = rng.uniform(1.0, 400.0, 2)
            R = rotation(rng.uniform(0, math.pi))
            g = Gaussian2D(rng.uniform(-10, 10, 2), R @ np.diag(eigs) @ R.T)
            assert grid_loss(g, grid) >= -0.05

    def test_agrees_with_opm_for_centered_configs(self):
        # Smoke version of the acceptance-level consistency check.
        rng = np.random.default_rng(12)
        pose = ObjectPose((0.0, 0.0), 0.0, (15.0, 30.0))
        grid = extent_grid(pose, 1.0)
        for _ in range(10):
            eigs = rng.uniform(25.0, 400.0, 2)
            R = rotation(rng.uniform(0, math.pi))
            g = Gaussian2D((0.0, 0.0), R @ np.diag(eigs) @ R.T)
            mass = math.exp(-grid_loss(g, grid))
            mc = opm(g, pose, n=100_000, rng=rng)
            assert mass == pytest.approx(mc, abs=0.01)


class TestRawHeadValidation:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            RawHead((np.inf, 0.0), (0.0, 0.0), 0.0)
        with pytest.raises(ValueError):
            RawHead((0.0, 0.0), (0.0, 0.0), np.nan)
