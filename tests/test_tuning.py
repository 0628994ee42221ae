import math
from unittest import mock

import numpy as np
import pytest

from conftest import make_cv_frames, pack_windows, window_loss
from geotrack.calibration import IDENTITY, CalibrationParams
from geotrack.core import Gaussian2D
from geotrack import dataio, tuning
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

    @pytest.mark.parametrize("vec", [[-800.0, 0.0, 0.0], [0.0, -800.0, 0.0], [800.0, 0.0, 0.0]])
    def test_point_outside_the_domain_fails_every_window(self, vec):
        # exp underflows to a zero sigma_accel or a, or overflows: a line
        # search trial there must read as failed, not raise.
        rng = np.random.default_rng(58)
        batch, truth = pack_windows([make_cv_frames(rng, n_steps=10) for _ in range(2)])
        params = TunableParams.from_natural(20.0, {"N1": IDENTITY}).with_vector(np.array(vec))
        loss, grad = sequence_loss(params, batch, truth)
        assert loss.tolist() == [math.inf, math.inf] and not grad.any()

    def test_invalid_init_vel_var_raises(self):
        # Only a decoded point outside the domain reads as failed; a bad
        # init_vel_var is the caller's error.
        rng = np.random.default_rng(58)
        batch, truth = pack_windows([make_cv_frames(rng, n_steps=10) for _ in range(2)])
        params = TunableParams.from_natural(20.0, {"N1": IDENTITY})
        for init_vel_var in (-1.0, 0.0, math.inf):
            with pytest.raises(ValueError, match="init_vel_var"):
                sequence_loss(params, batch, truth, init_vel_var)

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

    def test_best_seen_never_worse_than_initial(self, small_problem):
        params0, train, val = small_problem
        tuned, history = tune(TuneConfig(seq_len=50, epochs=2), params0, train, val)
        from geotrack.tuning import _mean_loss

        assert _mean_loss(tuned, *val, 1e4) <= history.rows[0]["val_nll"] + 1e-12
        assert len(history.rows) == 3  # epochs + 1, including epoch 0

    def test_a_row_per_epoch_and_train_nll_never_rises(self, small_problem):
        params0, train, val = small_problem
        for epochs in (1, 4):
            _, history = tune(TuneConfig(seq_len=50, epochs=epochs), params0, train, val)
            assert [row["epoch"] for row in history.rows] == list(range(epochs + 1))
            train_nll = [row["train_nll"] for row in history.rows]
            assert all(b <= a for a, b in zip(train_nll, train_nll[1:]))

    def test_underdispersed_scale_grows(self, small_problem):
        params0, train, val = small_problem
        tuned, history = tune(TuneConfig(seq_len=50, epochs=8), params0, train, val)
        _, calib = tuned.decode()
        assert calib["N1"].a > 1.5
        assert calib["N2"].a > 1.5
        assert history.rows[-1]["val_nll"] < history.rows[0]["val_nll"]

    def test_gradient_norm_falls(self, small_problem):
        # Eight BFGS iterations on the 4 train windows take the gradient's
        # norm from 1.75 to 0.012.
        params0, train, val = small_problem
        _, history = tune(TuneConfig(seq_len=50, epochs=8), params0, train, val)
        assert history.rows[-1]["grad_norm"] < 0.01 * history.rows[0]["grad_norm"]

    def test_bit_identical_histories(self, small_problem, tmp_path):
        params0, train, val = small_problem
        config = TuneConfig(seq_len=50, epochs=3)
        runs = [tune(config, params0, train, val) for _ in range(2)]
        for name, (_, history) in zip("ab", runs):
            dataio.write_history(tmp_path / f"{name}.csv", history.rows)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert runs[0][0] == runs[1][0] and runs[0][1].meta == runs[1][1].meta

    def test_divergence_guard(self, small_problem):
        params0, train, val = small_problem
        # A starting sigma of exp(700) overflows the filter immediately.
        broken = TunableParams(700.0, params0.views)
        tuned, history = tune(TuneConfig(seq_len=50, epochs=2), broken, train, val)
        assert history.meta["diverged"] and tuned == broken
        assert len(history.rows) == 1 and history.meta["evaluations"] == 1

    def test_non_finite_trial_is_halved_and_never_accepted(self, small_problem, monkeypatch):
        # The first two trial points of epoch 1 lose every window: the line
        # search halves the step twice and takes the third, a quarter of the
        # first, which a finite loss would have taken whole.
        params0, train, val = small_problem
        trials = []

        def failing(params, batch, truth, init_vel_var, grad=True):
            losses, grads = sequence_loss(params, batch, truth, init_vel_var, grad)
            if grad:
                trials.append(params.to_vector())
                if len(trials) in (2, 3):
                    losses = np.full_like(losses, math.inf)
            return losses, grads

        monkeypatch.setattr(tuning, "sequence_loss", failing)
        tuned, history = tune(TuneConfig(seq_len=50, epochs=1), params0, train, val)
        start, first = trials[0], trials[1] - trials[0]
        assert history.meta["evaluations"] == len(trials) == 4
        for k in (1, 2, 3):
            np.testing.assert_allclose(trials[k] - start, first / 2 ** (k - 1), rtol=1e-12, atol=1e-12)
        assert not history.meta["diverged"] and math.isfinite(history.rows[1]["train_nll"])
        assert history.rows[1]["sigma_accel"] == params0.with_vector(trials[3]).decode()[0]
        assert tuned == params0.with_vector(trials[3])

    def test_best_epoch_is_returned_when_it_is_not_the_last(self, small_problem, monkeypatch):
        # Validation gets worse after epoch 1 (its NLL is raised by 1 from
        # epoch 2 on) while training goes on: the run returns epoch 1's
        # point, and the meta names that epoch and its validation NLL.
        params0, train, val = small_problem
        val_points = []

        def worsening(params, batch, truth, init_vel_var, grad=True):
            losses, grads = sequence_loss(params, batch, truth, init_vel_var, grad)
            if not grad:
                val_points.append(params)
                if len(val_points) > 2:
                    losses = losses + 1.0
            return losses, grads

        monkeypatch.setattr(tuning, "sequence_loss", worsening)
        tuned, history = tune(TuneConfig(seq_len=50, epochs=4), params0, train, val)
        monkeypatch.undo()
        vals = [row["val_nll"] for row in history.rows]
        assert len(val_points) == len(vals) == 5 and vals[1] < vals[0]
        assert history.rows[-1]["train_nll"] < history.rows[1]["train_nll"]
        assert history.meta["best_epoch"] == 1 and history.meta["best_val_nll"] == vals[1]
        assert tuned == val_points[1] != val_points[-1]
        sigma, calib = tuned.decode()
        assert sigma == history.rows[1]["sigma_accel"]
        assert [(calib[v].a, calib[v].b) for v in ("N1", "N2")] == [
            (history.rows[1][f"{v}_a"], history.rows[1][f"{v}_b"]) for v in ("N1", "N2")
        ]
        assert tuning._mean_loss(tuned, *val, 1e4) == history.meta["best_val_nll"]

    def test_a_point_with_no_acceptable_step_repeats_its_row(self, small_problem, monkeypatch):
        # Every trial point loses every window: the line search gives up
        # after MAX_HALVINGS halvings, once, and the start's row repeats.
        params0, train, val = small_problem
        calls = []

        def failing(params, batch, truth, init_vel_var, grad=True):
            losses, grads = sequence_loss(params, batch, truth, init_vel_var, grad)
            if grad:
                calls.append(len(calls))
                if len(calls) > 1:
                    losses = np.full_like(losses, math.inf)
            return losses, grads

        monkeypatch.setattr(tuning, "sequence_loss", failing)
        tuned, history = tune(TuneConfig(seq_len=50, epochs=3), params0, train, val)
        assert tuned == params0 and not history.meta["diverged"]
        assert history.meta["evaluations"] == len(calls) == 2 + tuning.MAX_HALVINGS
        assert history.rows == [{**history.rows[0], "epoch": epoch} for epoch in range(4)]

    def test_empty_sets_rejected(self, small_problem):
        params0, train, val = small_problem
        empty = (train[0].take([]), train[1][:0])
        with pytest.raises(ValueError, match="non-empty"):
            tune(TuneConfig(), params0, empty, val)
        with pytest.raises(ValueError, match="non-empty"):
            tune(TuneConfig(), params0, train, empty)

    def test_history_metadata_records_step_budget(self, small_problem, monkeypatch):
        # The meta counts the train gradient evaluations: one a line-search
        # trial, and one at the start. A run that diverges at once takes one.
        params0, train, val = small_problem
        calls = []

        def counted(params, batch, truth, init_vel_var, grad=True):
            calls.append(grad)
            return sequence_loss(params, batch, truth, init_vel_var, grad)

        monkeypatch.setattr(tuning, "sequence_loss", counted)
        _, history = tune(TuneConfig(seq_len=50, epochs=3), params0, train, val)
        assert set(history.meta) == {"best_epoch", "best_val_nll", "diverged", "evaluations"}
        assert history.meta["evaluations"] == calls.count(True) >= 4
        assert calls.count(False) == 4  # a validation pass an epoch
        _, history = tune(TuneConfig(seq_len=50, epochs=3), TunableParams(700.0, params0.views), train, val)
        assert history.meta["diverged"] and history.meta["evaluations"] == 1

    def test_history_rows_record_gradient_norm_and_views(self, small_problem, tmp_path):
        # Epoch 0 holds the starting (a, b) and the starting gradient's norm;
        # history.csv has a column per key.
        params0, train, val = small_problem
        _, history = tune(TuneConfig(seq_len=50, epochs=2), params0, train, val)
        start = history.rows[0]
        _, grads = sequence_loss(params0, *train)
        assert start["grad_norm"] == float(np.linalg.norm(np.mean(grads, axis=0)))
        assert [start[f"{v}_{p}"] for v in ("N1", "N2") for p in "ab"] == [
            x for v, p in sorted(params0.decode()[1].items()) for x in (p.a, p.b)
        ]
        assert history.rows[1]["N1_a"] != start["N1_a"]

        dataio.write_history(tmp_path / "history.csv", history.rows)
        lines = (tmp_path / "history.csv").read_text().splitlines()
        assert lines[0] == "epoch,train_nll,val_nll,sigma_accel,grad_norm,N1_a,N1_b,N2_a,N2_b"
        assert lines[1] == "0," + ",".join(repr(value) for value in list(start.values())[1:])
        assert len(lines) == 4
