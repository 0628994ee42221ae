import math
import os
import pickle
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    KalmanState,
    assert_no_child,
    dense_fuse,
    fork_only,
    init_state,
    loop_windows,
    make_cv_frames,
    marginal,
    mp_mean_nll,
    nll,
    obs_tangents,
    open_fds,
    pack_windows,
    predict,
    random_pd_2x2,
    rotation,
    stacked_update,
    update,
)
from geotrack import forking, kalman
from geotrack.calibration import CalibrationParams, obs_transform
from geotrack.core import Gaussian2D
from geotrack.kalman import (
    DetectionFrame,
    FilterParams,
    FrameBatch,
    _fuse,
    _fuse_adjoint,
    _inv4,
    pack,
    process_noise,
    run_sequence,
    run_windows,
    transition,
)
from geotrack.tuning import TunableParams, sequence_loss


def frame(t, *dets):
    return DetectionFrame(t, tuple(dets))


def random_state(rng, n_params=1, t=0.0):
    P = np.zeros((4, 4))
    P[:2, :2] = random_pd_2x2(rng, 5.0, 200.0)
    P[2:, 2:] = random_pd_2x2(rng, 5.0, 200.0)
    x = rng.uniform(-100, 100, 4)
    return KalmanState(t, x, P, np.zeros((n_params, 4)), np.zeros((n_params, 4, 4)))


def random_frame(rng, t=0.0, n_det=None, r_lo=1.0, r_hi=100.0):
    if n_det is None:
        n_det = int(rng.integers(1, 5))
    dets = tuple(
        (f"N{i + 1}", Gaussian2D(rng.uniform(-50, 50, 2), random_pd_2x2(rng, r_lo, r_hi)))
        for i in range(n_det)
    )
    return frame(t, *dets)


class TestFilterParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            FilterParams(0.0)
        with pytest.raises(ValueError):
            FilterParams(10.0, init_vel_var=0.0)
        with pytest.raises(ValueError, match="finite"):
            FilterParams(math.inf)
        with pytest.raises(ValueError, match="finite"):
            FilterParams(10.0, init_vel_var=math.inf)


class TestDetectionFrame:
    def test_duplicate_views_rejected(self):
        g = Gaussian2D((0, 0), np.eye(2))
        with pytest.raises(ValueError):
            DetectionFrame(0.0, (("N1", g), ("N1", g)))

    def test_empty_allowed(self):
        assert DetectionFrame(0.0, ()).detections == ()


class TestInit:
    def test_single_detection(self):
        g = Gaussian2D((3.0, -7.0), [[9.0, 2.0], [2.0, 16.0]])
        state = init_state(frame(0.0, ("N1", g)), FilterParams(10.0, init_vel_var=25.0))
        np.testing.assert_allclose(state.x, [3.0, -7.0, 0.0, 0.0])
        np.testing.assert_allclose(state.P[:2, :2], g.cov)
        np.testing.assert_allclose(state.P[2:, 2:], 25.0 * np.eye(2))
        np.testing.assert_allclose(state.P[:2, 2:], 0.0)
        np.testing.assert_allclose(state.sens_x, 0.0)
        np.testing.assert_allclose(state.sens_P, 0.0)

    def test_two_identical_detections(self):
        g = Gaussian2D((3.0, 4.0), [[8.0, 1.0], [1.0, 6.0]])
        state = init_state(
            frame(0.0, ("N1", g), ("N2", Gaussian2D(g.mean, g.cov))), FilterParams(10.0)
        )
        np.testing.assert_allclose(state.x[:2], g.mean, atol=1e-12)
        np.testing.assert_allclose(state.P[:2, :2], g.cov / 2.0, atol=1e-12)

    def test_precision_weighted_average(self):
        a = Gaussian2D((0.0, 0.0), 100.0 * np.eye(2))
        b = Gaussian2D((10.0, 0.0), 100.0 * np.eye(2))
        state = init_state(frame(0.0, ("N1", a), ("N2", b)), FilterParams(10.0))
        np.testing.assert_allclose(state.x[:2], [5.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(state.P[:2, :2], 50.0 * np.eye(2), atol=1e-12)

    def test_empty_frame_rejected(self):
        with pytest.raises(ValueError, match="cannot initialize"):
            init_state(frame(0.0), FilterParams(10.0))


class TestPredict:
    def test_position_propagation(self):
        state = KalmanState(
            0.0, np.array([0.0, 0.0, 10.0, 0.0]), np.eye(4), np.zeros((1, 4)), np.zeros((1, 4, 4))
        )
        out = predict(state, 0.05, FilterParams(10.0))
        np.testing.assert_allclose(out.x, [0.5, 0.0, 10.0, 0.0])
        assert out.t == 0.05

    def test_zero_noise_limit(self):
        rng = np.random.default_rng(13)
        state = random_state(rng)
        dt = 0.05
        out = predict(state, dt, FilterParams(1e-9))
        F = transition(dt)
        np.testing.assert_allclose(out.P, F @ state.P @ F.T, rtol=1e-12, atol=1e-12)

    def test_process_noise_value(self):
        Q = process_noise(20.0, 0.05)
        assert Q[0, 0] == pytest.approx(0.000625)
        assert Q[0, 2] == pytest.approx(400.0 * 0.05**3 / 2.0)
        assert Q[2, 2] == pytest.approx(400.0 * 0.05**2)

    def test_rejects_bad_dt(self):
        rng = np.random.default_rng(14)
        with pytest.raises(ValueError):
            predict(random_state(rng), 0.0, FilterParams(10.0))


class TestUpdate:
    def test_uninformative_observation(self):
        rng = np.random.default_rng(15)
        state = random_state(rng)
        g = Gaussian2D((5.0, 5.0), 1e12 * np.eye(2))
        out = update(state, frame(0.0, ("N1", g)))
        np.testing.assert_allclose(out.x, state.x, rtol=1e-6)
        np.testing.assert_allclose(out.P, state.P, rtol=1e-6)

    def test_equal_variance_scalar_fusion(self):
        g0 = Gaussian2D((0.0, 0.0), 100.0 * np.eye(2))
        state = init_state(frame(0.0, ("N1", g0)), FilterParams(10.0))
        det = Gaussian2D((10.0, 0.0), 100.0 * np.eye(2))
        out = update(state, frame(0.0, ("N2", det)))
        np.testing.assert_allclose(out.x[:2], [5.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(out.P[:2, :2], 50.0 * np.eye(2), atol=1e-10)

    def test_two_detections_equal_fused_one(self):
        # Product-of-Gaussians equivalence: two R=100I detections fuse to one
        # detection at their precision-weighted mean with R=50I.
        rng = np.random.default_rng(16)
        state = random_state(rng)
        m1, m2 = rng.uniform(-40, 40, 2), rng.uniform(-40, 40, 2)
        two = frame(
            0.0,
            ("N1", Gaussian2D(m1, 100.0 * np.eye(2))),
            ("N2", Gaussian2D(m2, 100.0 * np.eye(2))),
        )
        one = frame(0.0, ("N1", Gaussian2D((m1 + m2) / 2.0, 50.0 * np.eye(2))))
        out_two = update(state, two)
        out_one = update(state, one)
        np.testing.assert_allclose(out_two.x, out_one.x, atol=1e-9)
        np.testing.assert_allclose(out_two.P, out_one.P, atol=1e-9)

    def test_order_invariance(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            state = random_state(rng)
            f = random_frame(rng)
            perm = rng.permutation(len(f.detections))
            shuffled = frame(0.0, *(f.detections[i] for i in perm))
            a = update(state, f)
            b = update(state, shuffled)
            assert np.linalg.norm(a.x - b.x) < 1e-9
            assert np.linalg.norm(a.P - b.P) < 1e-9

    def test_matches_stacked_joint_update(self):
        rng = np.random.default_rng(18)
        for _ in range(200):
            state = random_state(rng)
            f = random_frame(rng)
            seq = update(state, f)
            x_ref, P_ref = stacked_update(state.x, state.P, f.detections)
            assert np.linalg.norm(seq.x - x_ref) < 1e-9
            assert np.linalg.norm(seq.P - P_ref) < 1e-9

    def test_lower_uncertainty_dominates(self):
        d = 10.0
        sharp = Gaussian2D((0.0, 0.0), np.eye(2))
        broad = Gaussian2D((d, 0.0), 100.0 * np.eye(2))
        state = init_state(frame(0.0, ("N1", sharp), ("N2", broad)), FilterParams(10.0))
        assert abs(state.x[0]) <= d / 101.0 * (1.0 + 1e-6)
        assert state.x[0] == pytest.approx(d / 101.0, rel=1e-9)

    def test_covariance_stays_symmetric_pd(self):
        rng = np.random.default_rng(19)
        state = random_state(rng)
        params = FilterParams(20.0)
        t = 0.0
        for _ in range(10_000):
            t += 0.05
            state = predict(state, 0.05, params)
            state = update(state, random_frame(rng, t=t))
            assert np.allclose(state.P, state.P.T, atol=1e-9)
            np.linalg.cholesky(state.P)  # raises if not PD

    def test_mismatched_time_rejected(self):
        rng = np.random.default_rng(20)
        state = random_state(rng, t=0.0)
        with pytest.raises(ValueError):
            update(state, random_frame(rng, t=1.0))


def pd_2x2(lo, hi):
    """Strategy: symmetric PD 2x2 matrix with log-uniform eigenvalues in [lo, hi]."""
    log_eig = st.floats(math.log(lo), math.log(hi))

    def build(e1, e2, angle):
        R = rotation(angle)
        return R @ np.diag(np.exp([e1, e2])) @ R.T

    return st.builds(build, log_eig, log_eig, st.floats(0.0, 2.0 * math.pi))


def sym_stack(k, n, bound):
    """Strategy: (k, n, n) stack of symmetric matrices with entries in [-bound, bound]."""

    def build(values):
        m = np.reshape(values, (k, n, n))
        return (m + np.swapaxes(m, 1, 2)) / 2.0

    size = k * n * n
    return st.lists(st.floats(-bound, bound), min_size=size, max_size=size).map(build)


@st.composite
def predicted_update_case(draw, min_det=0, max_det=4):
    """A random PD prior with random tangents, predicted over a log-uniform
    dt in [1e-3, 1e3], and a frame of min_det..max_det detections with
    random dR stacks at the predicted time."""
    k = draw(st.integers(1, 3))
    P = np.zeros((4, 4))
    P[:2, :2] = draw(pd_2x2(5.0, 200.0))
    P[2:, 2:] = draw(pd_2x2(5.0, 200.0))
    x = np.array(draw(st.lists(st.floats(-100.0, 100.0), min_size=4, max_size=4)))
    sens_x = np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=4 * k, max_size=4 * k)))
    state = KalmanState(0.0, x, P, sens_x.reshape(k, 4), draw(sym_stack(k, 4, 10.0)))
    dt = 10.0 ** draw(st.floats(-3.0, 3.0))
    prior = predict(state, dt, FilterParams(10.0 ** draw(st.floats(0.0, 2.0))))
    n_det = draw(st.integers(min_det, max_det))
    dets = []
    for i in range(n_det):
        mean = draw(st.lists(st.floats(-500.0, 500.0), min_size=2, max_size=2))
        dets.append((f"N{i}", Gaussian2D(mean, draw(pd_2x2(1.0, 100.0)))))
    r_tangents = [draw(sym_stack(k, 2, 10.0)) for _ in dets]
    return prior, frame(prior.t, *dets), r_tangents


def long_gap_case():
    """predicted_update_case at its corner: a 5 I prior predicted over
    dt = 1e3 at sigma_accel 100, then one unit detection at the origin."""
    state = KalmanState(0.0, np.zeros(4), 5.0 * np.eye(4), np.zeros((1, 4)), np.zeros((1, 4, 4)))
    prior = predict(state, 1e3, FilterParams(100.0))
    return prior, frame(prior.t, ("N0", Gaussian2D([0.0, 0.0], np.eye(2)))), [np.zeros((1, 2, 2))]


class TestFusedUpdateProperties:
    @settings(max_examples=300)
    @given(predicted_update_case(min_det=1))
    @example(long_gap_case())
    def test_matches_stacked_and_stays_pd(self, case):
        # The oracle's joint update of the whole frame runs in 40 digits, so
        # the bound scales with the posterior, which after a long gap can be
        # 1e-12 of the prior. The velocity block's posterior is its prior
        # less a term of the same size, so any float64 update of a float64
        # prior rounds it by about eps |P_vv prior|: in long_gap_case a prior
        # velocity variance of 1e10 falls to 5.00002, 2e-7 |P_post| off.
        # Over 6000 draws (20 seeds of 300) the largest deviations were
        # 2.3e-12 |P_post| in x, 1.2e-15 |P_post| in P's position rows and
        # 1.01 eps |P_vv prior| in its velocity block.
        prior, f, r_tangents = case
        out = update(prior, f, r_tangents=r_tangents)
        x_ref, P_ref = stacked_update(prior.x, prior.P, f.detections)
        tol = 1e-9 * np.linalg.norm(P_ref)
        assert np.linalg.norm(out.x - x_ref) < tol
        assert np.linalg.norm(out.P[:2] - P_ref[:2]) < tol
        floor = 4.0 * np.finfo(float).eps * np.linalg.norm(prior.P[2:, 2:])
        assert np.linalg.norm(out.P[2:, 2:] - P_ref[2:, 2:]) < tol + floor
        assert np.array_equal(out.P, out.P.T)
        np.linalg.cholesky(out.P)  # raises if not PD

    @settings(max_examples=50)
    @given(predicted_update_case(max_det=0))
    def test_empty_frame_is_noop(self, case):
        prior, f, _ = case
        out = update(prior, f)
        for name in ("x", "P", "sens_x", "sens_P"):
            assert np.array_equal(getattr(out, name), getattr(prior, name))


@st.composite
def fusion_case(draw):
    """A block of B x T frames over 1..5 views, each view present with
    probability 1/2 (0, 1 or several detections a frame), with raw
    covariances over six decades; calibrations for a random subset of
    N0..N6, so some calibrated views are missing from the batch and some
    batch views have no calibration."""
    views = tuple(f"N{i}" for i in range(draw(st.integers(1, 5))))
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 6)), len(views))
    size = math.prod(shape)
    mask = np.array(draw(st.lists(st.booleans(), min_size=size, max_size=size))).reshape(shape)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mean = np.where(mask[..., None], rng.uniform(-500.0, 500.0, shape + (2,)), 0.0)
    eig = 10.0 ** rng.uniform(-2.0, 4.0, shape + (2,))
    turn = np.array([rotation(a) for a in rng.uniform(0.0, 2.0 * math.pi, mask.size)])
    turn = turn.reshape(shape + (2, 2))
    raw = turn @ (eig[..., None] * np.swapaxes(turn, -1, -2))
    raw = np.where(mask[..., None, None], raw, np.eye(2))
    calib = {}
    for view in (f"N{i}" for i in range(7)):
        if draw(st.booleans()):
            a = 10.0 ** draw(st.floats(-0.5, 0.5))
            calib[view] = CalibrationParams(a, draw(st.floats(0.0, 10.0)))
    return views, mean, raw, mask, calib


class TestSparseFusion:
    @settings(max_examples=300)
    @given(fusion_case())
    def test_matches_dense_tangent_fusion_bitwise(self, case):
        # kalman fuses each frame's views without forming tangents; z, R and
        # the information are the same bits as dense_fuse's, which also
        # pushes every calibrated view's tangents forward.
        views, mean, raw, mask, calib = case
        cov = obs_transform(calib, views, raw)
        z, R, _, lam = _fuse(mean, cov, mask)
        dense = dense_fuse(mean, cov, mask, obs_tangents(calib, views, raw, tuple(sorted(calib))))
        for name, actual, expected in zip(("z", "R", "lam"), (z, R, lam), dense[:2] + dense[4:]):
            assert actual.shape == expected.shape, name
            assert actual.tobytes() == expected.tobytes(), name

    @settings(max_examples=300)
    @given(fusion_case(), st.integers(0, 2**32 - 1))
    def test_adjoint_matches_dense_tangent_fusion(self, case, seed):
        # The dot-product identity of the fusion's adjoint: for any adjoints
        # M of the fused R and m of the fused z, the sum of each calibrated
        # view's N_i against dR_i/da = raw_i and dR_i/db = I is, channel by
        # channel, <M, dR> + <m, dz> of the tangents dense_fuse pushes
        # forward from every view, within 16 eps kappa relative for
        # covariances of condition number kappa.
        views, mean, raw, mask, calib = case
        order = sorted(calib)
        cov = obs_transform(calib, views, raw)
        z, R, prec, _ = _fuse(mean, cov, mask)
        dense = dense_fuse(mean, cov, mask, obs_tangents(calib, views, raw, tuple(order)))

        rng = np.random.default_rng(seed)
        M = rng.standard_normal(R.shape)
        M = (M + np.swapaxes(M, -1, -2)) / 2.0
        m = rng.standard_normal(z.shape)
        _, _, dz, dR, _ = dense
        expected = (dR * M[..., None, :, :]).sum(axis=(-2, -1)) + (dz * m[..., None, :]).sum(axis=-1)
        N = _fuse_adjoint(M, m, z, R, mean, prec, mask)
        actual = np.zeros(expected.shape)
        for i, view in enumerate(views):
            if view in calib:
                c = 1 + 2 * order.index(view)
                actual[..., c] = (N[..., i, :, :] * raw[..., i, :, :]).sum(axis=(-2, -1))
                actual[..., c + 1] = np.trace(N[..., i, :, :], axis1=-2, axis2=-1)
        eig = np.linalg.eigvalsh(np.where(mask[..., None, None], cov, np.eye(2)))
        kappa = np.max(eig[..., 1] / eig[..., 0])
        assert_close(actual, expected, rtol=16.0 * np.finfo(float).eps * kappa)


VIEWS = ("N1", "N2", "N3")


@st.composite
def windows_case(draw, min_windows=1, max_windows=4, min_frames=2, max_frames=10):
    """Equal-length windows of frames over VIEWS with truth positions:
    log-uniform gaps in [1e-3, 1e2], each view present in a frame with
    probability 1/2 (so 0..3 detections and interior empty frames), and a
    random run of leading empty frames."""
    n_windows = draw(st.integers(min_windows, max_windows))
    n_frames = draw(st.integers(min_frames, max_frames))
    coord = st.floats(-500.0, 500.0)
    windows = []
    for _ in range(n_windows):
        lead = draw(st.integers(0, n_frames - 1))
        t = draw(st.floats(0.0, 100.0))
        frames, truth = [], []
        for i in range(n_frames):
            if i:
                t += 10.0 ** draw(st.floats(-3.0, 2.0))
            dets = []
            for view in VIEWS:
                if i >= lead and draw(st.booleans()):
                    mean = draw(st.lists(coord, min_size=2, max_size=2))
                    dets.append((view, Gaussian2D(mean, draw(pd_2x2(1.0, 100.0)))))
            if i == n_frames - 1 and not any(f.detections for f in frames) and not dets:
                dets.append(("N1", Gaussian2D((0.0, 0.0), draw(pd_2x2(1.0, 100.0)))))
            frames.append(frame(t, *dets))
            truth.append(draw(st.lists(coord, min_size=2, max_size=2)))
        windows.append((frames, np.array(truth)))
    return windows


@st.composite
def calibration_case(draw):
    """sigma_accel and per-view calibrations for a random subset of VIEWS."""
    sigma = 10.0 ** draw(st.floats(0.0, 2.0))
    calib = {}
    for view in VIEWS:
        if draw(st.booleans()):
            a = 10.0 ** draw(st.floats(-0.5, 0.5))
            calib[view] = CalibrationParams(a, draw(st.floats(0.0, 10.0)))
    return sigma, calib


def chain_nll(frames, truth, sigma, calib):
    """Per-step oracle: init_state / predict / update over one window, with
    each detection calibrated here (a * cov + b * I; dR/da = cov, dR/db = I
    on its view's channels, zero for an uncalibrated view). Returns the
    position means and covariances from the first non-empty frame on, the
    filtered NLLs (core.nll) and their gradients over the tangent channels."""
    order = sorted(calib)
    k = 1 + 2 * len(order)
    params = FilterParams(sigma)

    def calibrated(f):
        dets, tangents = [], []
        for view, g in f.detections:
            dR = np.zeros((k, 2, 2))
            cov = g.cov
            if view in calib:
                i = order.index(view)
                dR[1 + 2 * i], dR[2 + 2 * i] = g.cov, np.eye(2)
                cov = calib[view].a * g.cov + calib[view].b * np.eye(2)
            dets.append((view, Gaussian2D(g.mean, cov)))
            tangents.append(dR)
        return frame(f.t, *dets), tangents

    start = next(i for i, f in enumerate(frames) if f.detections)
    first, first_tangents = calibrated(frames[start])
    states = [init_state(first, params, k, first_tangents)]
    for f in frames[start + 1 :]:
        state = predict(states[-1], f.t - states[-1].t, params)
        if f.detections:
            state = update(state, *calibrated(f))
        states.append(state)
    values, grads = [], []
    for state, pos in zip(states, truth[start:]):
        sig_inv = np.linalg.inv(state.P[:2, :2])
        w = sig_inv @ (pos - state.x[:2])
        dsig = state.sens_P[:, :2, :2]
        values.append(nll(marginal(state), pos))
        grads.append(
            [
                0.5 * np.trace(sig_inv @ d) - dmu @ w - 0.5 * w @ d @ w
                for dmu, d in zip(state.sens_x[:, :2], dsig)
            ]
        )
    means = np.array([s.x[:2] for s in states])
    covs = np.array([s.P[:2, :2] for s in states])
    return start, means, covs, np.array(values), np.array(grads)


def assert_close(actual, expected, rtol=1e-9):
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(actual - expected)) <= rtol * scale


class TestBatchedRecursionProperties:
    @settings(max_examples=150)
    @given(windows_case(), calibration_case())
    def test_batch_equals_each_window_alone(self, windows, setup):
        sigma, calib = setup
        params = FilterParams(sigma)
        truth = np.array([t for _, t in windows])
        together = run_windows(pack([f for f, _ in windows]), params, truth, calib)
        for b, (f, t) in enumerate(windows):
            alone = run_windows(pack([f]), params, t[None], calib)
            assert together.start[b] == alone.start[0]
            assert (b in together.failures) == (0 in alone.failures)
            for name in ("means", "covs", "nlls", "grad"):
                np.testing.assert_array_equal(getattr(together, name)[b], getattr(alone, name)[0])

    @settings(max_examples=150)
    @given(windows_case(), calibration_case(), st.data())
    def test_matches_per_step_chain(self, windows, setup, data):
        # The whole windows, and a prefix of their first j frames (each
        # window started within it), whose gradient is the chain's partial
        # sum.
        sigma, calib = setup
        batch, truth = pack_windows(windows)
        result = run_windows(batch, FilterParams(sigma), truth, calib)
        assert not result.failures
        j = data.draw(st.integers(int(result.start.max()) + 1, truth.shape[1]))
        prefix = run_windows(batch.take((slice(None), slice(0, j))), FilterParams(sigma), truth[:, :j], calib)
        assert not prefix.failures
        for b, (f, t) in enumerate(windows):
            start, means, covs, values, grads = chain_nll(f, t, sigma, calib)
            assert result.start[b] == start
            assert np.all(np.isnan(result.means[b, :start]))
            assert_close(result.means[b, start:], means)
            assert_close(result.covs[b, start:], covs)
            assert_close(result.nlls[b, start:], values)
            assert_close(result.grad[b], grads.sum(axis=0))
            assert_close(prefix.grad[b], grads[: j - start].sum(axis=0))

    @settings(max_examples=100)
    @given(windows_case(), calibration_case(), st.data())
    def test_failing_window_leaves_batch_mates_unchanged(self, windows, setup, data):
        sigma, calib = setup
        tunables = TunableParams.from_natural(sigma, calib)
        batch, truth = pack_windows(windows)
        base_loss, base_grad = sequence_loss(tunables, batch, truth)

        # A copy of window b with one detection covariance made indefinite
        # (and kept so by any calibration drawn here), inserted at row pos.
        b = data.draw(st.integers(0, len(windows) - 1))
        pos = data.draw(st.integers(0, len(windows)))
        j, v = np.argwhere(batch.mask[b])[0]
        bad_cov = batch.cov[b].copy()
        bad_cov[j, v] = [[1.0, 0.0], [0.0, -1e3]]
        merged = FrameBatch(
            batch.views,
            np.insert(batch.t, pos, batch.t[b], axis=0),
            np.insert(batch.mean, pos, batch.mean[b], axis=0),
            np.insert(batch.cov, pos, bad_cov, axis=0),
            np.insert(batch.mask, pos, batch.mask[b], axis=0),
        )
        loss, grad = sequence_loss(tunables, merged, np.insert(truth, pos, truth[b], axis=0))
        assert loss[pos] == math.inf
        assert np.all(grad[pos] == 0.0)
        np.testing.assert_array_equal(np.delete(loss, pos), base_loss)
        np.testing.assert_array_equal(np.delete(grad, pos, axis=0), base_grad)

    def test_window_without_detection_never_starts(self):
        # An empty window beside a normal one: it gets start T, NaN outputs,
        # a zero gradient and no failure; its batch-mate keeps its bits.
        rng = np.random.default_rng(72)
        frames, truth = make_cv_frames(rng, n_steps=10)
        empty = [DetectionFrame(f.t, ()) for f in frames]
        batch, both = pack_windows([(frames, truth), (empty, truth)])
        calib = {"N1": CalibrationParams(1.5, 2.0)}
        params = FilterParams(30.0)
        together = run_windows(batch, params, both, calib)
        alone = run_windows(batch.take([0]), params, both[:1], calib)
        assert together.start.tolist() == [0, 10] and not together.failures
        loop, _ = loop_windows(batch, params, both, calib)
        assert loop.start.tolist() == [0, 10] and np.all(loop.grad[1] == 0.0)
        for name in ("means", "covs", "nlls", "grad"):
            np.testing.assert_array_equal(getattr(together, name)[0], getattr(alone, name)[0])
        for name in ("means", "covs", "nlls"):
            assert np.all(np.isnan(getattr(together, name)[1]))
        assert np.all(together.grad[1] == 0.0)
        loss, grad = sequence_loss(TunableParams.from_natural(30.0, calib), batch, both)
        assert np.isfinite(loss[0]) and loss[1] == math.inf and np.all(grad[1] == 0.0)
        with pytest.raises(ValueError, match="^no frame has any detection; cannot initialize$"):
            kalman.run_track(batch.take([1]), params, truth)

    def test_tune_shape_chunks_equal_each_window_alone(self):
        # A chunk of the walkthrough tune's gradient pass: 8 windows of
        # T = 100 over V = 4 calibrated views, 9 parameters. The chunk bound
        # holds all 8 with a gradient; a third of it filters them in chunks of 3.
        views = ("N1", "N2", "N3", "N4")
        rng = np.random.default_rng(71)
        windows = [make_cv_frames(rng, 100, sigma_accel=50.0, views=views) for _ in range(8)]
        batch, truth = pack_windows(windows)
        calib = {v: CalibrationParams(0.8 + 0.1 * i, 2.0 * i) for i, v in enumerate(views)}
        tunables = TunableParams.from_natural(100.0, calib)
        for bound, per_chunk in ((kalman.CHUNK_MATRICES, 8), (3 * 100 * 4 * 5, 3)):
            with mock.patch.object(kalman, "CHUNK_MATRICES", bound):
                assert kalman.CHUNK_MATRICES // (100 * 4 * 5) == per_chunk
                loss, grad = sequence_loss(tunables, batch, truth)
                assert grad.shape == (8, 9) and np.all(np.isfinite(loss))
                for b in range(8):
                    alone_loss, alone_grad = sequence_loss(tunables, batch.take([b]), truth[[b]])
                    assert alone_loss.tobytes() == loss[[b]].tobytes()
                    assert alone_grad.tobytes() == grad[[b]].tobytes()

    @settings(max_examples=100)
    @given(windows_case(), calibration_case())
    def test_loss_without_gradient_is_bitwise_the_same(self, windows, setup):
        # Validation passes filter at tangent width 0; their losses must be
        # the gradient pass's exactly, as sequence_loss promises.
        tunables = TunableParams.from_natural(*setup)
        batch, truth = pack_windows(windows)
        loss, grad = sequence_loss(tunables, batch, truth)
        alone, none = sequence_loss(tunables, batch, truth, grad=False)
        assert grad.shape == (len(windows), 1 + 2 * len(setup[1])) and none is None
        np.testing.assert_array_equal(alone, loss)

    @settings(max_examples=100)
    @given(windows_case(), calibration_case())
    def test_view_without_tunables_passes_through(self, windows, setup):
        # As for a view seen in validation but not in training: N3 has no
        # tunables, so its detections enter uncalibrated with zero tangent.
        sigma, calib = setup
        calib.pop("N3", None)
        tunables = TunableParams.from_natural(sigma, calib)
        sigma, calib = tunables.decode()
        loss, grad = sequence_loss(tunables, *pack_windows(windows))
        for b, (f, t) in enumerate(windows):
            _, _, _, values, grads = chain_nll(f, t, sigma, calib)
            scale = [sigma]
            for view in sorted(calib):
                raw_b = tunables.views[view][1]
                scale += [calib[view].a, 1.0 / (1.0 + math.exp(-raw_b))]
            assert_close(loss[b], values.mean())
            assert_close(grad[b], grads.mean(axis=0) * scale)


def test_gradient_after_long_gap():
    # Unit detections at the truth at t = 2 and t = 102, sigma_accel 1 and
    # init_vel_var 1e4: the predicted position variance at t = 102 is
    # p = 1 + 1e4 * 100**2 + 100**4 / 4 per axis and the filtered one
    # p / (p + 1), so the mean NLL's gradient in log sigma_accel is
    # (100**4 / 2) / (2 p (p + 1)), about 1.6e-9. I - K H is about 1e-8 of
    # I here, and the tangents must not form it by subtraction.
    unit = ("N1", Gaussian2D((0.0, 0.0), np.eye(2)))
    windows = [([frame(0.0), frame(1.0), frame(2.0, unit), frame(102.0, unit)], np.zeros((4, 2)))]
    p = 1.0 + 1e4 * 100.0**2 + 100.0**4 / 4.0
    exact = (100.0**4 / 2.0) / (2.0 * p * (p + 1.0))
    _, grad = sequence_loss(TunableParams.from_natural(1.0, {}), *pack_windows(windows))
    assert_close(grad[0], np.array([exact]))


LONG_GAP_CASES = [
    (
        [
            frame(0.0, ("N1", Gaussian2D((0.0, 0.0), np.eye(2)))),
            frame(100.0, ("N1", Gaussian2D((1.0, 2.0), [[1.0, 0.3], [0.3, 2.0]]))),
        ],
        np.array([[0.0, 0.0], [1.0, 2.0]]),
    ),
    (
        [
            frame(0.0, ("N1", Gaussian2D((0.0, 0.0), np.eye(2)))),
            frame(100.0, ("N1", Gaussian2D((1.0, 2.0), [[1.0, 0.3], [0.3, 2.0]]))),
            frame(200.0, ("N2", Gaussian2D((3.0, 1.0), [[2.0, 0.3], [0.3, 1.0]]))),
        ],
        np.array([[0.0, 0.0], [1.0, 2.0], [3.0, 1.0]]),
    ),
    (
        [
            frame(0.0, ("N1", Gaussian2D((1.0, -2.0), [[2.0, 0.5], [0.5, 1.0]]))),
            frame(
                100.0,
                ("N1", Gaussian2D((3.0, 4.0), [[1.0, 0.2], [0.2, 3.0]])),
                ("N2", Gaussian2D((2.0, 5.0), np.eye(2))),
            ),
            frame(100.5),
            frame(150.0, ("N3", Gaussian2D((-4.0, 6.0), [[5.0, -1.0], [-1.0, 2.0]]))),
        ],
        np.array([[0.5, -1.0], [3.0, 4.5], [2.0, 5.0], [-3.0, 7.0]]),
    ),
]


LONG_GAP_CALIBRATION = {"N1": CalibrationParams(1.5, 0.3), "N2": CalibrationParams(0.7, 2.0)}


@pytest.mark.parametrize(
    "frames, truth, calib",
    [pytest.param(f, t, {}, id=f"frames{i}-truth{i}") for i, (f, t) in enumerate(LONG_GAP_CASES)]
    + [
        pytest.param(f, t, LONG_GAP_CALIBRATION, id=f"frames{i}-truth{i}-calibrated")
        for i, (f, t) in enumerate(LONG_GAP_CASES)
    ],
)
@pytest.mark.parametrize("sigma", [0.3, 1.0, 10.0])
def test_gradient_after_long_gap_matches_mpmath(frames, truth, sigma, calib):
    # Gaps of 50 to 100 s, where the predicted covariance dwarfs R and the
    # gradient can be 1e-9 of the NLL: the mean NLL and its gradient against
    # the 40-digit textbook recursion, differentiated by mpmath in every
    # tunable: log sigma_accel and each calibrated view's log a and raw b
    # (N2 is calibrated but absent from the first case, and N3 is never
    # calibrated).
    params = TunableParams.from_natural(sigma, calib)
    vector = params.to_vector()
    order = params.view_order()

    def mp_loss(i, value):
        theta = [mpmath.mpf(v) for v in vector]
        theta[i] = value
        views = {
            view: (mpmath.exp(theta[1 + 2 * j]), mpmath.log1p(mpmath.exp(theta[2 + 2 * j])))
            for j, view in enumerate(order)
        }
        return mp_mean_nll(frames, truth, mpmath.exp(theta[0]), calib=views)

    with mpmath.workdps(40):
        value = mp_loss(0, mpmath.mpf(vector[0]))
        slope = [mpmath.diff(lambda s: mp_loss(i, s), mpmath.mpf(v)) for i, v in enumerate(vector)]
    loss, grad = sequence_loss(params, *pack_windows([(frames, truth)]))
    assert_close(loss[0], float(value))
    for actual, expected in zip(grad[0], slope):
        assert_close(actual, float(expected))


class TestScanMatchesLoop:
    @settings(max_examples=200)
    @given(
        windows_case(max_frames=14, min_frames=1),
        calibration_case(),
        st.data(),
    )
    def test_matches_per_frame_loop(self, windows, setup, data):
        # Short scan blocks carry state forward, and adjoints backward,
        # across block boundaries, and a tiny chunk bound filters one window
        # at a time. With a gradient, a prefix of the first j frames (each
        # window started within it) matches the loop's partial sum.
        sigma, calib = setup
        grad = data.draw(st.booleans())
        batch, truth = pack_windows(windows)
        if data.draw(st.booleans()):
            truth = None
        if data.draw(st.booleans()):
            # One detection covariance made indefinite, whatever its
            # calibration: that window fails at the same frame both ways.
            b = data.draw(st.integers(0, len(windows) - 1))
            j, v = np.argwhere(batch.mask[b])[0]
            batch.cov[b, j, v] = [[1.0, 0.0], [0.0, -1e3]]
        frames = data.draw(st.integers(1, 5))
        chunk = data.draw(st.sampled_from([1, kalman.CHUNK_MATRICES]))
        params = FilterParams(sigma)
        start = batch.mask.any(axis=-1).argmax(axis=1)
        j = data.draw(st.integers(int(start.max()) + 1, batch.t.shape[1]))
        with mock.patch.object(kalman, "SCAN_FRAMES", frames):
            with mock.patch.object(kalman, "CHUNK_MATRICES", chunk):
                scan = run_windows(batch, params, truth, calib, grad)
                if scan.grad is not None:
                    prefix = run_windows(batch.take((slice(None), slice(0, j))), params, truth[:, :j], calib)
        loop, per_frame = loop_windows(batch, params, truth, calib, grad)
        assert scan.failures == loop.failures
        np.testing.assert_array_equal(scan.start, loop.start)
        assert (scan.grad is None) == (truth is None or not grad)
        names = ("means", "covs") if truth is None else ("means", "covs", "nlls")
        if scan.grad is not None:
            names += ("grad",)
        kept = [b for b in range(len(windows)) if b not in loop.failures]
        for name in names:
            actual, expected = getattr(scan, name)[kept], getattr(loop, name)[kept]
            defined = ~np.isnan(expected)
            np.testing.assert_array_equal(np.isnan(actual), ~defined)
            if defined.any():
                assert_close(actual[defined], expected[defined])
        if scan.grad is not None and kept:
            assert_close(prefix.grad[kept], np.nansum(per_frame[kept, :j], axis=1))

    @settings(max_examples=200)
    @given(
        windows_case(max_frames=14, min_frames=1),
        calibration_case(),
        st.data(),
    )
    def test_width_zero_scores_as_width_one(self, windows, setup, data):
        # track's summary and tune's epoch snapshots filter with truth but
        # no tangents: the same NLLs and failures as with every tangent
        # channel, bit for bit, whatever the blocks and chunks (width 0 also
        # chunks more windows together).
        sigma, calib = setup
        batch, truth = pack_windows(windows)
        if data.draw(st.booleans()):
            b = data.draw(st.integers(0, len(windows) - 1))
            j, v = np.argwhere(batch.mask[b])[0]
            batch.cov[b, j, v] = [[1.0, 0.0], [0.0, -1e3]]
        frames = data.draw(st.integers(1, 5))
        chunk = data.draw(st.sampled_from([1, kalman.CHUNK_MATRICES]))
        params = FilterParams(sigma)
        with mock.patch.object(kalman, "SCAN_FRAMES", frames):
            with mock.patch.object(kalman, "CHUNK_MATRICES", chunk):
                zero = run_windows(batch, params, truth, calib, grad=False)
                full = run_windows(batch, params, truth, calib, grad=True)
        assert zero.grad is None
        assert full.grad.shape == (len(windows), 1 + 2 * len(calib))
        assert zero.failures == full.failures
        for name in ("start", "means", "covs", "nlls"):
            assert getattr(zero, name).tobytes() == getattr(full, name).tobytes(), name

    def test_singular_matrix_inverts_to_nan_alone(self):
        rng = np.random.default_rng(25)
        stack = rng.standard_normal((3, 2, 4, 4)) + 4.0 * np.eye(4)
        stack[1, 0] = 0.0
        out = _inv4(stack)
        assert np.all(np.isnan(out[1, 0]))
        out[1, 0] = np.linalg.inv(np.eye(4))
        stack[1, 0] = np.eye(4)
        np.testing.assert_array_equal(out, np.linalg.inv(stack))


class TestMarginal:
    def test_fresh_init_round_trip(self):
        g = Gaussian2D((4.0, 5.0), [[3.0, 1.0], [1.0, 2.0]])
        state = init_state(frame(0.0, ("N1", g)), FilterParams(10.0))
        m = marginal(state)
        np.testing.assert_allclose(m.mean, g.mean)
        np.testing.assert_allclose(m.cov, g.cov)

    def test_zero_velocity_prediction_keeps_mean(self):
        g = Gaussian2D((4.0, 5.0), np.eye(2))
        state = init_state(frame(0.0, ("N1", g)), FilterParams(1e-9))
        out = predict(state, 0.05, FilterParams(1e-9))
        np.testing.assert_allclose(marginal(out).mean, g.mean)

    def test_projection(self):
        rng = np.random.default_rng(21)
        state = random_state(rng)
        m = marginal(state)
        np.testing.assert_allclose(m.cov, state.P[:2, :2])


class TestRunSequence:
    def test_tracks_noiseless_path(self):
        pos = np.array([50.0, 50.0])
        vel = np.array([30.0, 10.0])
        frames = []
        truth = []
        for k in range(12):
            p = pos + vel * (k * 0.05)
            frames.append(frame(k * 0.05, ("N1", Gaussian2D(p, 1e-4 * np.eye(2)))))
            truth.append(p)
        res = run_sequence(frames, FilterParams(10.0))
        for m, p in zip(res.means[10:], truth[10:]):
            assert np.linalg.norm(m - p) < 1e-3

    def test_empty_frames_inflate_uncertainty(self):
        frames = [frame(0.0, ("N1", Gaussian2D((0.0, 0.0), np.eye(2))))]
        frames += [frame(0.05 * k) for k in range(1, 8)]
        res = run_sequence(frames, FilterParams(20.0))
        traces = [np.trace(c) for c in res.covs]
        assert all(b > a for a, b in zip(traces, traces[1:]))

    def test_total_gradient_matches_fd(self):
        rng = np.random.default_rng(22)
        frames, truth = make_cv_frames(rng, n_steps=100, sigma_accel=15.0, obs_var=25.0)
        sigma = 15.0
        batch = pack([frames])
        res = run_windows(batch, FilterParams(sigma), truth[None])
        h = 1e-4 * sigma
        hi = np.nansum(run_windows(batch, FilterParams(sigma + h), truth[None]).nlls)
        lo = np.nansum(run_windows(batch, FilterParams(sigma - h), truth[None]).nlls)
        fd = (hi - lo) / (2.0 * h)
        assert res.grad[0, 0] == pytest.approx(fd, rel=1e-4)

    def test_per_step_sensitivities_match_fd(self):
        # Walk the recursion manually and difference every step's x and P.
        rng = np.random.default_rng(23)
        frames, _ = make_cv_frames(rng, n_steps=15, sigma_accel=10.0)
        sigma = 25.0
        h = 1e-4 * sigma

        def states_for(s):
            params = FilterParams(s)
            out = [init_state(frames[0], params)]
            for f in frames[1:]:
                st = predict(out[-1], f.t - out[-1].t, params)
                if f.detections:
                    st = update(st, f)
                out.append(st)
            return out

        base = states_for(sigma)
        hi = states_for(sigma + h)
        lo = states_for(sigma - h)
        for b, u, d in zip(base[1:], hi[1:], lo[1:]):
            fd_x = (u.x - d.x) / (2.0 * h)
            fd_P = (u.P - d.P) / (2.0 * h)
            np.testing.assert_allclose(b.sens_x[0], fd_x, rtol=1e-4, atol=1e-8)
            np.testing.assert_allclose(b.sens_P[0], fd_P, rtol=1e-4, atol=1e-6)

    def test_marginals_start_at_first_nonempty(self):
        frames = [frame(0.0), frame(0.05)]
        frames.append(frame(0.10, ("N1", Gaussian2D((0.0, 0.0), np.eye(2)))))
        frames.append(frame(0.15, ("N1", Gaussian2D((1.0, 0.0), np.eye(2)))))
        res = run_sequence(frames, FilterParams(10.0))
        assert len(res.means) == 2
        assert res.times[0] == 0.10

    def test_width_zero_carries_no_tangents(self):
        rng = np.random.default_rng(26)
        frames, truth = make_cv_frames(rng, n_steps=10)
        batch = pack([frames])
        res = run_windows(batch, FilterParams(10.0), truth[None], grad=False)
        assert res.grad is None
        assert np.nansum(res.nlls) == np.nansum(run_windows(batch, FilterParams(10.0), truth[None]).nlls)

    def test_error_paths(self):
        g = Gaussian2D((0.0, 0.0), np.eye(2))
        with pytest.raises(ValueError, match="no frame"):
            run_sequence([frame(0.0), frame(0.05)], FilterParams(10.0))
        with pytest.raises(ValueError, match="strictly increasing"):
            run_sequence([frame(0.05, ("N1", g)), frame(0.0, ("N1", g))], FilterParams(10.0))
        with pytest.raises(ValueError, match="truth shape"):
            run_sequence([frame(0.0, ("N1", g))], FilterParams(10.0), truth=np.zeros((3, 2)))
        with pytest.raises(ValueError):
            run_sequence([], FilterParams(10.0))


# ---------------------------------------------------------------------------
# Filtering a batch in two ranges: a forked child filters the window chunks
# from the chunk boundary nearest B / 2 on, while this process filters the
# chunks before it. Every run must give the one-pass run's bits, failures
# included, and leave no child and no file descriptor behind. Two CPUs are
# patched in, and the floor (forking.SPLIT_BYTES) patched to 0 where a test
# does not say, so the split runs on any host and any batch of two chunks.
# The fork protocol's own check of a raise in this process's range is
# tests/test_forking.py's.

_SPLIT_VIEWS = ("N1", "N2", "N3")
_SPLIT_CALIB = {"N1": CalibrationParams(1.3, 0.5), "N3": CalibrationParams(0.8, 2.0)}


def _split_windows(n_windows, n_frames=12, empty=(), indefinite=()):
    """n_windows windows of n_frames frames over _SPLIT_VIEWS and their
    truth; the windows in empty without a detection, and those in
    indefinite with one detection covariance that is not positive definite."""
    rng = np.random.default_rng(n_windows)
    windows = [make_cv_frames(rng, n_frames, sigma_accel=30.0, views=_SPLIT_VIEWS) for _ in range(n_windows)]
    batch, truth = pack_windows(windows)
    mask = batch.mask.copy()
    mask[list(empty)] = False
    cov = batch.cov.copy()
    for b in indefinite:
        present = np.argwhere(mask[b])
        j, v = present[len(present) // 2]
        cov[b, j, v] = [[1.0, 0.0], [0.0, -1e3]]
    return FrameBatch(batch.views, batch.t, batch.mean, cov, mask), truth


def _split_run(batch, truth, grad, per_chunk, cpus=(0, 1)):
    """run_windows on the given CPUs with chunks of per_chunk windows and
    the floor at 0: its result, the children it forked, the windows each
    split_work call offered a child and the chunks this process filtered.
    It must leave no child and no file descriptor behind."""
    n_frames = batch.t.shape[1]
    per_window = n_frames * 4 * (5 if grad and truth is not None else 3)
    fds = open_fds()
    with mock.patch.object(kalman, "CHUNK_MATRICES", per_chunk * per_window), \
            mock.patch.object(forking, "SPLIT_BYTES", 0), \
            mock.patch.object(os, "sched_getaffinity", return_value=set(cpus)), \
            mock.patch.object(os, "fork", wraps=os.fork) as fork, \
            mock.patch.object(kalman, "split_work", wraps=forking.split_work) as split_work, \
            mock.patch.object(kalman, "_filter_block", wraps=kalman._filter_block) as block:
        result = run_windows(batch, FilterParams(40.0), truth, _SPLIT_CALIB, grad)
    assert_no_child()
    assert open_fds() == fds
    offered = [call.args[0] // (per_window * 32) for call in split_work.call_args_list]
    return result, fork.call_count, offered, block.call_count


def _assert_same_result(got, want):
    for name in ("start", "means", "covs", "nlls", "grad"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
    assert list(got.failures.items()) == list(want.failures.items())


@fork_only
@pytest.mark.parametrize("grad,with_truth", [(True, True), (False, True), (True, False)])
@pytest.mark.parametrize(
    "n_windows,per_chunk,child_windows",
    [(1, 1, 0), (2, 1, 1), (3, 4, 0), (5, 1, 2), (5, 2, 3), (6, 2, 2), (7, 3, 4), (9, 2, 5)],
)
def test_a_split_batch_filters_as_in_one_pass(n_windows, per_chunk, child_windows, grad, with_truth):
    # The child takes the windows from the chunk boundary nearest B / 2 (the
    # upper one on a tie), none if that is 0 or B; this process filters the
    # chunks before it. The first and the last window hold no detection.
    batch, truth = _split_windows(n_windows, empty={0, n_windows - 1})
    truth = truth if with_truth else None
    got, forks, offered, chunks = _split_run(batch, truth, grad, per_chunk)
    want, one_pass_forks, _, one_pass_chunks = _split_run(batch, truth, grad, per_chunk, cpus=(0,))
    assert (forks, one_pass_forks) == (int(child_windows > 0), 0)
    assert offered == [child_windows]
    assert chunks == -(-(n_windows - child_windows) // per_chunk)
    assert one_pass_chunks == -(-n_windows // per_chunk)
    _assert_same_result(got, want)
    assert got.start[0] == got.start[-1] == batch.t.shape[1]
    assert (got.grad is None) == (not grad or truth is None)


@fork_only
def test_a_failure_in_the_childs_half_is_reported_at_its_batch_row():
    # Windows 1 and 6 of eight meet an indefinite covariance, one in each
    # half (the child takes windows 4-7): each is listed at its own row, in
    # row order, and sequence_loss gives it inf and a zero gradient.
    batch, truth = _split_windows(8, indefinite=(6, 1))
    got, forks, offered, _ = _split_run(batch, truth, True, 2)
    want = _split_run(batch, truth, True, 2, cpus=(0,))[0]
    assert (forks, offered) == (1, [4])
    _assert_same_result(got, want)
    assert list(got.failures) == [1, 6]
    tunables = TunableParams.from_natural(40.0, _SPLIT_CALIB)
    with mock.patch.object(kalman, "CHUNK_MATRICES", 2 * 12 * 4 * 5), \
            mock.patch.object(forking, "SPLIT_BYTES", 0), \
            mock.patch.object(os, "sched_getaffinity", return_value={0, 1}):
        loss, gradient = sequence_loss(tunables, batch, truth)
    assert_no_child()
    assert loss[1] == loss[6] == math.inf and np.all(gradient[[1, 6]] == 0.0)
    assert np.all(np.isfinite(np.delete(loss, [1, 6])))


@fork_only
def test_a_failed_child_leaves_its_windows_to_this_process():
    # pickle.dump fails in the child (which inherits the patch): it exits 1,
    # and this process filters all four chunks itself.
    batch, truth = _split_windows(8, indefinite=(5,))
    want = _split_run(batch, truth, True, 2, cpus=(0,))[0]
    with mock.patch.object(pickle, "dump", side_effect=MemoryError):
        got, forks, _, chunks = _split_run(batch, truth, True, 2)
    assert (forks, chunks) == (1, 4)
    _assert_same_result(got, want)


@fork_only
@pytest.mark.parametrize("fails", ["fork", "temporary file"])
def test_a_fork_that_fails_filters_in_one_pass(fails):
    batch, truth = _split_windows(6)
    want = _split_run(batch, truth, True, 1, cpus=(0,))[0]
    target = (os, "fork") if fails == "fork" else (forking.tempfile, "TemporaryFile")
    fds = open_fds()
    with mock.patch.object(kalman, "CHUNK_MATRICES", 12 * 4 * 5), \
            mock.patch.object(forking, "SPLIT_BYTES", 0), \
            mock.patch.object(os, "sched_getaffinity", return_value={0, 1}), \
            mock.patch.object(*target, side_effect=BlockingIOError) as failing:
        got = run_windows(batch, FilterParams(40.0), truth, _SPLIT_CALIB)
    assert_no_child()
    assert failing.call_count == 1 and open_fds() == fds
    _assert_same_result(got, want)


# ---------------------------------------------------------------------------
# Filtering windows in two ranges of time: where the blocks from the boundary
# nearest T / 2 on (the fold) hold at least the floor at one 32-byte
# covariance a view-frame, they are scanned carry-free and the carry at the
# fold folded into their prefixes; a batch of one chunk has a forked child
# scan them while this process filters the blocks before the fold. The
# split must give the one-pass run's bits, failures included.


@st.composite
def time_split_case(draw):
    """A scan block of 1-3 frames and 1-3 windows of more than one block
    over _SPLIT_VIEWS, with truth: each window's first detection anywhere,
    or none (B > 1), a predict-only stretch, a long gap that may sit at the
    fold, and at most one indefinite detection covariance and one gap so
    long that the innovation and filtered covariances overflow, each in
    either range."""
    frames = draw(st.integers(1, 3))
    n_frames = draw(st.integers(frames + 1, 8 * frames))
    fold = (n_frames + frames) // (2 * frames) * frames
    n_windows = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (n_windows, n_frames, len(_SPLIT_VIEWS))
    mask = rng.random(shape) < 0.6
    mean = rng.uniform(-500.0, 500.0, shape + (2,))
    root = rng.standard_normal(shape + (2, 2))
    cov = root @ np.swapaxes(root, -1, -2) + np.eye(2)
    gaps = 10.0 ** rng.uniform(-3.0, 1.0, (n_windows, n_frames))
    index = st.integers(0, n_frames - 1)
    for b in range(n_windows):
        first = draw(st.integers(0, n_frames if n_windows > 1 else n_frames - 1))
        mask[b, :first] = False
        if first < n_frames and not mask[b, first].any():
            mask[b, first, draw(st.integers(0, len(_SPLIT_VIEWS) - 1))] = True
        lo = draw(index)
        mask[b, max(lo, first + 1) : draw(st.integers(lo, n_frames))] = False
        gaps[b, draw(st.sampled_from([fold, draw(index)]))] = 10.0 ** draw(st.floats(1.0, 3.0))
        if draw(st.booleans()):
            gaps[b, draw(index)] = 1e60
        present = np.argwhere(mask[b])
        if len(present) and draw(st.booleans()):
            j, v = present[draw(st.integers(0, len(present) - 1))]
            cov[b, j, v] = [[1.0, 0.0], [0.0, -1e3]]
    t = np.cumsum(gaps, axis=1)
    mean[~mask], cov[~mask] = 0.0, np.eye(2)
    batch = FrameBatch(_SPLIT_VIEWS, t, mean, cov, mask)
    return frames, batch, rng.uniform(-500.0, 500.0, (n_windows, n_frames, 2))


def _time_split_run(batch, truth, grad, frames, cpus):
    """run_windows in scan blocks of frames with the floor at 0, on the
    given CPUs: its result and the children it forked. It must leave no
    child and no file descriptor behind."""
    fds = open_fds()
    with mock.patch.object(kalman, "SCAN_FRAMES", frames), \
            mock.patch.object(forking, "SPLIT_BYTES", 0), \
            mock.patch.object(os, "sched_getaffinity", return_value=set(cpus)), \
            mock.patch.object(os, "fork", wraps=os.fork) as fork:
        result = run_windows(batch, FilterParams(40.0), truth, _SPLIT_CALIB, grad)
    assert_no_child()
    assert open_fds() == fds
    return result, fork.call_count


@fork_only
@settings(max_examples=100, deadline=None)
@given(time_split_case(), st.booleans(), st.booleans())
def test_a_split_in_time_filters_as_in_one_pass(case, grad, with_truth):
    # Each window reports its earliest failure, whichever range holds it
    # and whichever half of the block's arithmetic notes it.
    frames, batch, truth = case
    truth = truth if with_truth else None
    got, forks = _time_split_run(batch, truth, grad, frames, (0, 1))
    want, one_pass_forks = _time_split_run(batch, truth, grad, frames, (0,))
    assert (forks, one_pass_forks) == (1, 0)
    _assert_same_result(got, want)


@fork_only
def test_a_failed_child_leaves_the_blocks_after_the_fold_to_this_process():
    # pickle.dump fails in the child (which inherits the patch): it exits 1,
    # and this process scans the blocks after the fold itself.
    batch, truth = _split_windows(1, n_frames=40, indefinite=(0,))
    want = _time_split_run(batch, truth, True, 4, (0,))[0]
    with mock.patch.object(pickle, "dump", side_effect=MemoryError):
        got, forks = _time_split_run(batch, truth, True, 4, (0, 1))
    assert forks == 1
    _assert_same_result(got, want)
    assert list(got.failures) == [0]


@settings(max_examples=100, deadline=None)
@given(windows_case(min_frames=8, max_frames=16), calibration_case(), st.data())
def test_the_fold_matches_the_per_frame_loop(windows, setup, data):
    # Blocks short enough for two or more on each side of the fold, the
    # floor at 0, and the batch in one chunk or one window a chunk (each
    # window folded alone), on one CPU, so that this process filters every
    # block before the fold through _filter_block: the oracles of
    # TestScanMatchesLoop at their tolerance. On two CPUs the bits are the
    # same (test_a_split_in_time_filters_as_in_one_pass). A window's first
    # and last detection covariances may both be indefinite, often one on
    # each side of the fold: the window reports the earlier.
    sigma, calib = setup
    grad = data.draw(st.booleans())
    batch, truth = pack_windows(windows)
    b = data.draw(st.integers(0, len(windows) - 1))
    for which in data.draw(st.sets(st.sampled_from([0, -1]))):
        j, v = np.argwhere(batch.mask[b])[which]
        batch.cov[b, j, v] = [[1.0, 0.0], [0.0, -1e3]]
    n_frames = batch.t.shape[1]
    frames = data.draw(st.integers(1, n_frames // 4))
    fold = (n_frames + frames) // (2 * frames) * frames
    chunk = data.draw(st.sampled_from([1, kalman.CHUNK_MATRICES]))
    params = FilterParams(sigma)
    with mock.patch.object(kalman, "SCAN_FRAMES", frames), \
            mock.patch.object(kalman, "CHUNK_MATRICES", chunk), \
            mock.patch.object(forking, "SPLIT_BYTES", 0), \
            mock.patch.object(os, "sched_getaffinity", return_value={0}), \
            mock.patch.object(kalman, "_filter_block", wraps=kalman._filter_block) as block:
        scan = run_windows(batch, params, truth, calib, grad)
    chunks = len(windows) if chunk == 1 else 1
    assert fold >= 2 * frames and n_frames - fold >= 2 * frames
    assert block.call_count == chunks * fold // frames
    loop, _ = loop_windows(batch, params, truth, calib, grad)
    assert scan.failures == loop.failures
    np.testing.assert_array_equal(scan.start, loop.start)
    names = ("means", "covs", "nlls") + (("grad",) if grad else ())
    kept = [b for b in range(len(windows)) if b not in loop.failures]
    for name in names:
        actual, expected = getattr(scan, name)[kept], getattr(loop, name)[kept]
        defined = ~np.isnan(expected)
        np.testing.assert_array_equal(np.isnan(actual), ~defined)
        if defined.any():
            assert_close(actual[defined], expected[defined])


@fork_only
def test_the_floor_splits_tunes_gradient_passes_alone():
    # At the default floor and chunk bound, on two CPUs: the walkthrough
    # tune's gradient pass (30 windows of 100 frames over 4 views, the child
    # 14 windows, 896 KB) splits; its validation pass (6 windows, one chunk)
    # does not, nor does the largest batch the filter properties draw with
    # one window a chunk. A track (one window) splits in time where its
    # blocks from the fold on reach the floor at 32 bytes a view-frame: at
    # floor 0 a 3000-frame track; at the default floor not the walkthrough's
    # and sparse_views' 2400-frame tracks (4 views, 1376 frames from the
    # fold: 176 KB), but long_track's 10,000-frame track (8 views, 4880
    # frames: 1.25 MB).
    views = ("N1", "N2", "N3", "N4")
    rng = np.random.default_rng(30)
    train, train_truth = pack_windows([make_cv_frames(rng, 100, sigma_accel=50.0, views=views) for _ in range(30)])
    calib = {v: CalibrationParams(1.0, 0.0) for v in views}

    def forks(batch, truth, grad, chunk_matrices=kalman.CHUNK_MATRICES, cpus=(0, 1)):
        fds = open_fds()
        with mock.patch.object(kalman, "CHUNK_MATRICES", chunk_matrices), \
                mock.patch.object(os, "sched_getaffinity", return_value=set(cpus)), \
                mock.patch.object(os, "fork", wraps=os.fork) as fork:
            result = run_windows(batch, FilterParams(100.0), truth, calib, grad)
        assert_no_child()
        assert open_fds() == fds
        return result, fork.call_count

    split, n_forks = forks(train, train_truth, True)
    one_pass, no_forks = forks(train, train_truth, True, cpus=(0,))
    assert (n_forks, no_forks) == (1, 0)
    _assert_same_result(split, one_pass)
    assert forks(train.take(slice(0, 6)), train_truth[:6], False)[1] == 0
    assert forks(train.take((slice(0, 4), slice(0, 14))), train_truth[:4, :14], True, 1)[1] == 0
    # The 30 windows end to end, 10 s apart, as one track of 3000 frames.
    joined = (train.t + 10.0 * np.arange(30)[:, None], train.mean, train.cov, train.mask)
    track = FrameBatch(train.views, *(a.reshape((1, -1) + a.shape[2:]) for a in joined))
    track_truth = train_truth.reshape(1, -1, 2)
    with mock.patch.object(forking, "SPLIT_BYTES", 0):
        split, n_forks = forks(track, track_truth, False)
        one_pass, no_forks = forks(track, track_truth, False, cpus=(0,))
    assert (n_forks, no_forks) == (1, 0)
    _assert_same_result(split, one_pass)
    short, short_truth = track.take((slice(None), slice(0, 2400))), track_truth[:, :2400]
    alone, n_forks = forks(short, short_truth, False)
    assert n_forks == 0
    # The rule reads T and V alone: two such tracks in one batch (one
    # chunk) do not fold either, and keep the bits of one.
    pair = FrameBatch(short.views, *(np.concatenate([a, a]) for a in (short.t, short.mean, short.cov, short.mask)))
    both = forks(pair, np.concatenate([short_truth, short_truth]), False)[0]
    for name in ("means", "covs", "nlls"):
        assert getattr(both, name)[1].tobytes() == getattr(alone, name)[0].tobytes(), name
    # 10,000 frames of 8 views, each present.
    n_frames, n_views = 10_000, 8
    long_track = FrameBatch(
        tuple(f"N{i + 1}" for i in range(n_views)),
        0.05 * np.arange(1.0, n_frames + 1.0)[None],
        rng.uniform(0.0, 500.0, (1, n_frames, n_views, 2)),
        np.broadcast_to(16.0 * np.eye(2), (1, n_frames, n_views, 2, 2)),
        np.ones((1, n_frames, n_views), bool),
    )
    assert forks(long_track, None, False)[1] == 1
