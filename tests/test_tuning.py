import math
from unittest import mock

import numpy as np
import pytest

from conftest import make_cv_frames, pack_windows, window_loss
from geotrack.calibration import IDENTITY, CalibrationParams
from geotrack.core import Gaussian2D
from geotrack import tuning
from geotrack.kalman import DetectionFrame, pack
from geotrack.tuning import (
    TunableParams,
    TuneConfig,
    make_windows,
    sequence_loss,
    tune,
)


def scaled_noise_frames(rng, n_steps, true_scale, views=("N1", "N2"), dt=0.05):
    """Constant-velocity truth with detections whose true noise covariance is
    true_scale times the reported one."""
    pos = np.array([100.0, 200.0])
    vel = np.array([30.0, -15.0])
    frames, truth = [], []
    for k in range(n_steps):
        dets = []
        for view in views:
            reported = (10.0 + 5.0 * rng.random()) * np.eye(2)
            noise = np.linalg.cholesky(true_scale * reported) @ rng.standard_normal(2)
            dets.append((view, Gaussian2D(pos + noise, reported)))
        frames.append(DetectionFrame(k * dt, tuple(dets)))
        truth.append(pos.copy())
        pos = pos + vel * dt
    return frames, np.array(truth)


class TestTunableParams:
    def test_round_trip_through_vector(self):
        p = TunableParams.from_natural(
            50.0, {"N2": CalibrationParams(2.0, 3.0), "N1": CalibrationParams(0.5, 0.1)}
        )
        q = p.with_vector(p.to_vector())
        assert q == p
        sigma, calib = q.decode()
        assert sigma == pytest.approx(50.0, rel=1e-12)
        assert calib["N2"].a == pytest.approx(2.0, rel=1e-9)
        assert calib["N2"].b == pytest.approx(3.0, rel=1e-9)

    def test_decoded_domain_for_extreme_vectors(self):
        p = TunableParams.from_natural(10.0, {"N1": IDENTITY})
        for vec in ([50.0, -50.0, -200.0], [-40.0, 60.0, 100.0]):
            sigma, calib = p.with_vector(np.array(vec)).decode()
            assert sigma > 0.0
            assert calib["N1"].a > 0.0
            assert calib["N1"].b >= 0.0

    def test_vector_length_checked(self):
        p = TunableParams.from_natural(10.0, {"N1": IDENTITY})
        with pytest.raises(ValueError):
            p.with_vector(np.zeros(5))


class TestSequenceLoss:
    def test_gradients_match_central_differences(self):
        rng = np.random.default_rng(50)
        frames, truth = make_cv_frames(rng, n_steps=20, sigma_accel=10.0)
        params = TunableParams.from_natural(
            25.0,
            {"N1": CalibrationParams(1.4, 6.0), "N2": CalibrationParams(0.7, 0.3)},
        )
        loss, grad = window_loss(params, frames, truth)
        vec = params.to_vector()
        for i in range(len(vec)):
            h = 1e-5 * max(1.0, abs(vec[i]))
            up, dn = vec.copy(), vec.copy()
            up[i] += h
            dn[i] -= h
            fd = (
                window_loss(params.with_vector(up), frames, truth)[0]
                - window_loss(params.with_vector(dn), frames, truth)[0]
            ) / (2.0 * h)
            assert abs(grad[i] - fd) <= 1e-4 * max(abs(grad[i]), abs(fd)) + 1e-8

    def test_sigma_sweep_recovers_generating_noise(self):
        # Self-consistency: data generated by the constant-velocity model with
        # sigma* should have its sampled NLL minimum near sigma*.
        rng = np.random.default_rng(51)
        sigma_star = 30.0
        seqs = [
            make_cv_frames(rng, n_steps=200, sigma_accel=sigma_star, obs_var=25.0, drop_rate=0.0)
            for _ in range(4)
        ]
        sweep = np.geomspace(3.0, 300.0, 50)
        batch, truth = pack_windows(seqs)
        totals = []
        for s in sweep:
            p = TunableParams(math.log(s), {})
            totals.append(sequence_loss(p, batch, truth)[0].sum())
        best = sweep[int(np.argmin(totals))]
        assert sigma_star / 2.0 <= best <= sigma_star * 2.0

    def test_single_tunable_shape(self):
        rng = np.random.default_rng(52)
        frames, truth = make_cv_frames(rng, n_steps=10)
        params = TunableParams(math.log(20.0), {})
        loss, grad = window_loss(params, frames, truth)
        assert grad.shape == (1,)
        assert math.isfinite(loss)

    def test_loss_alone_filters_without_tangents(self):
        rng = np.random.default_rng(54)
        batch, truth = pack_windows([make_cv_frames(rng, n_steps=10) for _ in range(2)])
        params = TunableParams.from_natural(20.0, {"N1": CalibrationParams(1.5, 2.0)})
        with mock.patch.object(tuning, "run_windows", wraps=tuning.run_windows) as spy:
            loss, grad = sequence_loss(params, batch, truth, grad=False)
        assert spy.call_args.kwargs["grad"] is False and grad is None
        np.testing.assert_array_equal(loss, sequence_loss(params, batch, truth)[0])

    def test_length_mismatch_rejected(self):
        rng = np.random.default_rng(53)
        frames, truth = make_cv_frames(rng, n_steps=10)
        params = TunableParams(math.log(20.0), {})
        with pytest.raises(ValueError):
            window_loss(params, frames, truth[:-1])


class TestTuneConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TuneConfig(seq_len=1)
        with pytest.raises(ValueError):
            TuneConfig(epochs=0)
        with pytest.raises(ValueError):
            TuneConfig(lr=-1e-4)
        with pytest.raises(ValueError):
            TuneConfig(grad_clip=0.0)
        TuneConfig(lr=0.0)  # explicit no-op optimizer is allowed


class TestMakeWindows:
    def test_disjoint_full_windows(self):
        rng = np.random.default_rng(54)
        frames, truth = make_cv_frames(rng, n_steps=25)
        windows, window_truth = make_windows(pack([frames]), truth, 10)
        assert windows.t.shape == (2, 10)
        assert window_truth.shape == (2, 10, 2)

    def test_windows_without_detections_dropped(self):
        rng = np.random.default_rng(57)
        frames, truth = make_cv_frames(rng, n_steps=30)
        frames[10:20] = [DetectionFrame(f.t, ()) for f in frames[10:20]]
        windows, window_truth = make_windows(pack([frames]), truth, 10)
        assert windows.t[:, 0].tolist() == [frames[0].t, frames[20].t]
        np.testing.assert_array_equal(window_truth[1], truth[20:])

    def test_too_few_frames(self):
        rng = np.random.default_rng(55)
        frames, truth = make_cv_frames(rng, n_steps=5)
        with pytest.raises(ValueError, match="seq_len"):
            make_windows(pack([frames]), truth, 10)


class TestTune:
    @pytest.fixture()
    def small_problem(self):
        rng = np.random.default_rng(56)
        frames, truth = scaled_noise_frames(rng, 300, true_scale=4.0)
        train = make_windows(pack([frames[:200]]), truth[:200], 50)
        val = make_windows(pack([frames[200:]]), truth[200:], 50)
        params0 = TunableParams.from_natural(30.0, {"N1": IDENTITY, "N2": IDENTITY})
        return params0, train, val

    def test_zero_lr_is_noop(self, small_problem):
        params0, train, val = small_problem
        tuned, history = tune(TuneConfig(seq_len=50, epochs=3, lr=0.0), params0, train, val)
        assert tuned == params0
        vals = [row["val_nll"] for row in history.rows]
        assert all(v == vals[0] for v in vals)

    def test_best_seen_never_worse_than_initial(self, small_problem):
        params0, train, val = small_problem
        tuned, history = tune(TuneConfig(seq_len=50, epochs=2), params0, train, val)
        from geotrack.tuning import _mean_loss

        assert _mean_loss(tuned, *val, 1e4) <= history.rows[0]["val_nll"] + 1e-12
        assert len(history.rows) == 3  # epochs + 1, including epoch 0

    def test_underdispersed_scale_grows_with_adequate_lr(self, small_problem):
        params0, train, val = small_problem
        config = TuneConfig(seq_len=50, epochs=8, lr=0.2, lr_drop_epoch=8)
        tuned, history = tune(config, params0, train, val, seed=3)
        _, calib = tuned.decode()
        assert calib["N1"].a > 1.5
        assert calib["N2"].a > 1.5
        assert history.rows[-1]["val_nll"] < history.rows[0]["val_nll"]

    def test_bit_identical_histories(self, small_problem):
        params0, train, val = small_problem
        config = TuneConfig(seq_len=50, epochs=2, lr=0.01)
        _, h1 = tune(config, params0, train, val, seed=11)
        _, h2 = tune(config, params0, train, val, seed=11)
        assert h1.rows == h2.rows

    def test_divergence_guard(self, small_problem):
        params0, train, val = small_problem
        # A starting sigma of exp(700) overflows the filter immediately.
        broken = TunableParams(700.0, params0.views)
        tuned, history = tune(TuneConfig(seq_len=50, epochs=2), broken, train, val)
        assert history.diverged

    def test_empty_sets_rejected(self, small_problem):
        params0, train, val = small_problem
        empty = (train[0].take([]), train[1][:0])
        with pytest.raises(ValueError, match="non-empty"):
            tune(TuneConfig(), params0, empty, val)
        with pytest.raises(ValueError, match="non-empty"):
            tune(TuneConfig(), params0, train, empty)

    def test_history_metadata_records_step_budget(self, small_problem):
        # 4 windows in batches of 3 take 2 steps an epoch: one epoch at lr,
        # then two at lr / 10. A run that diverges at once takes none.
        params0, train, val = small_problem
        config = TuneConfig(seq_len=50, epochs=3, lr=0.01, lr_drop_epoch=2, batch=3)
        _, history = tune(config, params0, train, val)
        assert history.meta["lr_sum"] == sum([config.lr] * 2 + [config.lr / 10.0] * 4)
        _, history = tune(config, TunableParams(700.0, params0.views), train, val)
        assert history.diverged and history.meta["lr_sum"] == 0.0

    def test_history_metadata_records_optimizer_constants(self, small_problem):
        params0, train, val = small_problem
        _, history = tune(TuneConfig(seq_len=50, epochs=1), params0, train, val)
        assert history.meta["beta1"] == 0.9
        assert history.meta["beta2"] == 0.999
        assert history.meta["eps"] == 1e-8
        assert history.meta["weight_decay"] == 1e-4
