import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    ObjectPose,
    cholesky,
    dense_nll,
    log_density,
    mp_nll,
    nll,
    points_in_pose,
    random_pd_2x2,
    rotation,
    sample_gaussian,
)
from geotrack.core import (
    Arena,
    Gaussian2D,
    NotPositiveDefiniteError,
    heading_from_velocity,
    nll_rows,
    wrap_angle,
)
from geotrack.simulator import CameraNode

LOG_2PI = math.log(2.0 * math.pi)
EPS = float(np.finfo(float).eps)
# The NLL's accuracy envelope: its error is at most NLL_ENVELOPE * eps *
# kappa times the size of its terms, log(2 pi) + |log det| / 2 + the
# quadratic form / 2, kappa the covariance's condition number.
NLL_ENVELOPE = 2.0


def factor(cov) -> np.ndarray:
    """cholesky of a one-matrix stack."""
    return cholesky(np.array(cov, dtype=float)[None])[0]


def inside(pose: ObjectPose, point) -> bool:
    """points_in_pose of one point."""
    return bool(points_in_pose(pose.position, pose.heading, pose.extent, point)[0])


class TestGaussian2D:
    def test_symmetric_by_construction(self):
        g = Gaussian2D((1.0, 2.0), [[4.0, 1.0], [1.0, 9.0]])
        assert g.cov[0, 1] == g.cov[1, 0]

    def test_rejects_non_pd(self):
        with pytest.raises(NotPositiveDefiniteError) as exc:
            Gaussian2D((0, 0), [[-1.0, 0.0], [0.0, 1.0]])
        assert exc.value.minor_index == 1
        with pytest.raises(NotPositiveDefiniteError) as exc:
            Gaussian2D((0, 0), [[1.0, 2.0], [2.0, 1.0]])
        assert exc.value.minor_index == 2

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Gaussian2D((np.nan, 0.0), np.eye(2))
        with pytest.raises(ValueError):
            Gaussian2D((0.0, 0.0), [[np.inf, 0.0], [0.0, 1.0]])


class TestNll:
    def test_unit_gaussian_at_mean(self):
        g = Gaussian2D((0.0, 0.0), np.eye(2))
        assert nll(g, (0.0, 0.0)) == pytest.approx(LOG_2PI, abs=1e-12)

    def test_scaled_gaussian_at_mean(self):
        g = Gaussian2D((0.0, 0.0), 4.0 * np.eye(2))
        assert nll(g, (0.0, 0.0)) == pytest.approx(LOG_2PI + math.log(4.0), abs=1e-12)

    def test_against_dense_formula_oracle(self):
        mean = (10.0, 20.0)
        cov = [[4.0, 1.0], [1.0, 9.0]]
        point = (12.0, 18.0)
        expected = dense_nll(mean, cov, point)
        g = Gaussian2D(mean, cov)
        assert nll(g, point) == pytest.approx(expected, rel=1e-12)
        # Frozen value: log(2 pi) + 0.5 log 35 + 6/7.
        assert nll(g, point) == pytest.approx(4.472693954296909, abs=1e-12)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(1)
        mean = rng.uniform(-10, 10, 2)
        cov = random_pd_2x2(rng, 2.0, 50.0)
        point = rng.uniform(-10, 10, 2)
        base = nll(Gaussian2D(mean, cov), point)
        for k in range(8):
            R = rotation(2.0 * math.pi * k / 8.0 + 0.37)
            rotated = nll(Gaussian2D(R @ mean, R @ cov @ R.T), R @ point)
            assert rotated == pytest.approx(base, abs=1e-9)

    def test_diagonal_equals_sum_of_1d(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            var = rng.uniform(0.5, 40.0, 2)
            mean = rng.uniform(-5, 5, 2)
            point = rng.uniform(-5, 5, 2)
            one_d = sum(
                0.5 * math.log(2.0 * math.pi * v) + (p - m) ** 2 / (2.0 * v)
                for v, m, p in zip(var, mean, point)
            )
            g = Gaussian2D(mean, np.diag(var))
            assert nll(g, point) == pytest.approx(one_d, abs=1e-10)

    def test_rejects_non_finite_point(self):
        g = Gaussian2D((0.0, 0.0), np.eye(2))
        with pytest.raises(ValueError):
            nll(g, (np.nan, 0.0))

    def test_log_density_matches_nll(self):
        rng = np.random.default_rng(3)
        g = Gaussian2D((1.0, -2.0), random_pd_2x2(rng, 1.0, 30.0))
        pts = rng.uniform(-10, 10, (50, 2))
        dens = log_density(g, pts)
        for p, d in zip(pts, dens):
            assert -nll(g, p) == pytest.approx(d, rel=1e-12)


@st.composite
def ill_conditioned_case(draw):
    """A mean, covariance, point and the covariance's condition number:
    standard deviations from 1e-3 to 1e6 along the major axis, condition
    numbers up to 1e8, and the point's offset either whitened (a quadratic
    form near 1) or as large along the minor axis as the major one (up to
    kappa)."""
    scale = 10.0 ** draw(st.floats(-3.0, 6.0))
    kappa = 10.0 ** draw(st.floats(0.0, 8.0))
    R = rotation(draw(st.floats(0.0, 2.0 * math.pi)))
    cov = scale * scale * R @ np.diag([1.0, 1.0 / kappa]) @ R.T
    cov[1, 0] = cov[0, 1]
    mean = scale * np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=2)))
    u = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2)))
    if draw(st.booleans()):
        u[1] /= math.sqrt(kappa)
    return mean, cov, mean + scale * (R @ u), kappa


class TestNllRows:
    @settings(max_examples=400)
    @given(ill_conditioned_case())
    def test_within_envelope_of_mpmath(self, case):
        mean, cov, point, kappa = case
        d = point - mean
        size = LOG_2PI + abs(np.linalg.slogdet(cov)[1]) / 2 + d @ np.linalg.solve(cov, d) / 2
        actual = nll_rows(mean[None], cov[None], point[None])[0]
        assert abs(actual - mp_nll(mean, cov, point)) <= NLL_ENVELOPE * EPS * kappa * size

    @pytest.mark.parametrize(
        "bad, minor, value",
        [
            ([[1.0, 3.0], [3.0, 1.0]], 2, -8.0),
            ([[0.0, 0.0], [0.0, 1.0]], 1, 0.0),
            ([[np.nan, 0.0], [0.0, 1.0]], 1, np.nan),
        ],
    )
    def test_names_first_row_not_positive_definite(self, bad, minor, value):
        cov = np.tile(np.eye(2), (6, 1, 1))
        cov[2] = bad
        cov[4] = [[-1.0, 0.0], [0.0, 1.0]]
        with pytest.raises(NotPositiveDefiniteError) as exc:
            nll_rows(np.zeros((6, 2)), cov, np.ones((6, 2)))
        assert exc.value.minor_index == minor
        np.testing.assert_equal(exc.value.minor_value, value)


class TestCholesky2x2:
    def test_identity(self):
        np.testing.assert_allclose(factor(np.eye(2)), np.eye(2))

    def test_diagonal(self):
        np.testing.assert_allclose(
            factor([[4.0, 0.0], [0.0, 9.0]]), [[2.0, 0.0], [0.0, 3.0]]
        )

    def test_known_factor(self):
        L = factor([[4.0, 2.0], [2.0, 5.0]])
        np.testing.assert_allclose(L, [[2.0, 0.0], [1.0, 2.0]])
        np.testing.assert_allclose(L @ L.T, [[4.0, 2.0], [2.0, 5.0]])

    def test_round_trip_random(self):
        rng = np.random.default_rng(4)
        covs = np.array([random_pd_2x2(rng, 0.1, 1000.0) for _ in range(1000)])
        L = cholesky(covs)
        np.testing.assert_allclose(L @ L.mT, covs, rtol=1e-12, atol=1e-12)
        assert np.all(L[:, 0, 1] == 0.0)

    def test_non_pd_reports_minor(self):
        with pytest.raises(NotPositiveDefiniteError) as exc:
            factor([[0.0, 0.0], [0.0, 1.0]])
        assert exc.value.minor_index == 1
        with pytest.raises(NotPositiveDefiniteError) as exc:
            factor([[1.0, 3.0], [3.0, 1.0]])
        assert exc.value.minor_index == 2
        assert exc.value.minor_value == pytest.approx(-8.0)


class TestPointInPose:
    def test_center_inside(self):
        pose = ObjectPose((0.0, 0.0), 0.0, (15.0, 30.0))
        assert inside(pose, (0.0, 0.0))

    def test_beyond_half_width(self):
        pose = ObjectPose((0.0, 0.0), 0.0, (15.0, 30.0))
        assert not inside(pose, (7.6, 0.0))
        assert inside(pose, (7.5, 0.0))  # boundary counts as inside

    def test_rotated_quarter_turn(self):
        pose = ObjectPose((0.0, 0.0), math.pi / 2.0, (15.0, 30.0))
        # Width axis now along y: |y| <= 7.5 and |x| <= 15.
        assert inside(pose, (0.0, 7.4))
        assert not inside(pose, (0.0, 7.6))
        assert inside(pose, (14.9, 0.0))

    def test_rigid_transform_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            pose = ObjectPose(rng.uniform(-50, 50, 2), rng.uniform(-3, 3), (15.0, 30.0))
            point = rng.uniform(-60, 60, 2)
            angle = rng.uniform(-3, 3)
            shift = rng.uniform(-100, 100, 2)
            R = rotation(angle)
            moved_pose = ObjectPose(
                R @ pose.position + shift, pose.heading + angle, pose.extent
            )
            moved_point = R @ np.asarray(point) + shift
            assert inside(pose, point) == inside(moved_pose, moved_point)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(6)
        pose = ObjectPose((3.0, -4.0), 0.7, (15.0, 30.0))
        pts = rng.uniform(-30, 30, (500, 2))
        vec = points_in_pose(pose.position, pose.heading, pose.extent, pts)
        for p, v in zip(pts, vec):
            assert inside(pose, p) == bool(v)

    def test_pose_validation(self):
        with pytest.raises(ValueError):
            ObjectPose((0, 0), 0.0, (0.0, 30.0))
        pose = ObjectPose((0, 0), 3.5 * math.pi, (1, 1))
        assert -math.pi <= pose.heading < math.pi


class TestSampleGaussian:
    def test_degenerate_concentration(self):
        g = Gaussian2D((5.0, -3.0), 1e-12 * np.eye(2))
        pts = sample_gaussian(g.mean, factor(g.cov), np.random.default_rng(0), 1000)
        assert np.max(np.abs(pts - g.mean)) < 1e-4

    def test_clt_bound(self):
        # 4 sigma / sqrt(1000) ~= 0.126 < 0.15 per axis.
        g = Gaussian2D((0.0, 0.0), np.eye(2))
        pts = sample_gaussian(g.mean, factor(g.cov), np.random.default_rng(7), 1000)
        assert np.all(np.abs(pts.mean(axis=0)) < 0.15)

    def test_deterministic_per_seed(self):
        g = Gaussian2D((1.0, 2.0), [[4.0, 1.0], [1.0, 3.0]])
        a = sample_gaussian(g.mean, factor(g.cov), np.random.default_rng(42), 100)
        b = sample_gaussian(g.mean, factor(g.cov), np.random.default_rng(42), 100)
        np.testing.assert_array_equal(a, b)

    def test_rejects_bad_count(self):
        g = Gaussian2D((0.0, 0.0), np.eye(2))
        with pytest.raises(ValueError):
            sample_gaussian(g.mean, factor(g.cov), np.random.default_rng(0), 0)


class TestHelpers:
    def test_wrap_angle_range(self):
        for a in np.linspace(-20, 20, 401):
            w = wrap_angle(a)
            assert -math.pi <= w < math.pi
            assert math.isclose(math.sin(w), math.sin(a), abs_tol=1e-12)

    def test_heading_from_velocity_aligns_length_axis(self):
        for v in ([1.0, 0.0], [0.0, 1.0], [-2.0, 3.0], [0.5, -0.5]):
            h = heading_from_velocity(np.array([v]))[0]
            length_axis = rotation(h) @ np.array([0.0, 1.0])
            unit = np.array(v) / np.linalg.norm(v)
            np.testing.assert_allclose(length_axis, unit, atol=1e-12)

    def test_arena_contains(self):
        arena = Arena()
        assert arena.width == 500.0 and arena.length == 700.0
        assert arena.contains(np.array([[0.0, 0.0], [500.0, 700.0]])).all()
        assert not arena.contains(np.array([[-0.1, 10.0]]))[0]
        np.testing.assert_allclose(arena.center, [250.0, 350.0])

    @pytest.mark.parametrize("heading", [math.nan, math.inf, -math.inf])
    def test_pose_rejects_non_finite_heading(self, heading):
        with pytest.raises(ValueError, match="heading must be finite"):
            ObjectPose((0.0, 0.0), heading, (1.0, 1.0))

    @pytest.mark.parametrize("size", [(math.inf, 700.0), (500.0, math.inf)])
    def test_arena_rejects_non_finite_size(self, size):
        with pytest.raises(ValueError, match="arena dimensions must be positive and finite"):
            Arena(*size)


# Each value type with field-wise equality: a strategy for its values and,
# per field, a change that gives that field a different valid value.
_COORD = st.floats(-1e4, 1e4)
_FIELD_EQUALITY = {
    Gaussian2D: (
        st.builds(
            lambda mean, sd, rho: Gaussian2D(mean, [[sd[0] ** 2, rho * sd[0] * sd[1]], [0.0, sd[1] ** 2]]),
            st.tuples(_COORD, _COORD),
            st.tuples(st.floats(0.1, 100.0), st.floats(0.1, 100.0)),
            st.floats(-0.9, 0.9),
        ),
        {"mean": lambda m: m + [0.0, 1.0], "cov": lambda c: c * 2.0},
    ),
    ObjectPose: (
        st.builds(
            ObjectPose, st.tuples(_COORD, _COORD), st.floats(-10.0, 10.0),
            st.tuples(st.floats(0.1, 100.0), st.floats(0.1, 100.0)),
        ),
        {
            "position": lambda p: p + [1.0, 0.0],
            "heading": lambda h: h + 0.5 if h < 0.0 else h - 0.5,
            "extent": lambda e: (e[0], e[1] + 1.0),
        },
    ),
    CameraNode: (
        st.builds(
            CameraNode, st.text(min_size=1, max_size=4), st.tuples(_COORD, _COORD), _COORD,
            fov=st.floats(0.1, 6.0), noise_floor=st.floats(0.1, 100.0), noise_slope=st.floats(0.0, 1.0),
            miscalibration=st.tuples(st.floats(0.1, 100.0), st.floats(0.0, 100.0)),
        ),
        {
            "id": lambda i: i + "x",
            "position": lambda p: p + [0.0, 1.0],
            "facing": lambda f: f + 1.0,
            "fov": lambda f: f / 2.0,
            "noise_floor": lambda n: n + 1.0,
            "noise_slope": lambda n: n + 1.0,
            "miscalibration": lambda m: (m[0], m[1] + 1.0),
        },
    ),
}


@pytest.mark.parametrize("cls", list(_FIELD_EQUALITY), ids=lambda cls: cls.__name__)
@settings(max_examples=50)
@given(data=st.data())
def test_equality_is_field_wise(cls, data):
    values, changes = _FIELD_EQUALITY[cls]
    assert set(changes) == {f.name for f in dataclasses.fields(cls)}
    value = data.draw(values)
    copy = cls(**{f.name: getattr(value, f.name) for f in dataclasses.fields(cls)})
    assert copy == value and not copy != value
    for name, change in changes.items():
        other = dataclasses.replace(value, **{name: change(getattr(value, name))})
        assert other != value and not other == value, name
    for stranger in (object(), None, "x", dataclasses.astuple(value), Arena()):
        assert value.__eq__(stranger) is NotImplemented
        assert (value == stranger) is False and (value != stranger) is True
    with pytest.raises(TypeError):
        hash(value)
