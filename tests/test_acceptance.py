"""Acceptance suite: one test (or test group) per acceptance criterion.

Each criterion prints a PASS/FAIL line (visible with pytest -s) before its
assertions fire, so a full run gives a one-line-per-criterion summary.
"""

import dataclasses
import json
import math
import time

import numpy as np
import pytest

from conftest import (
    KalmanState,
    ObjectPose,
    make_cv_frames,
    nll,
    opm,
    phi,
    random_pd_2x2,
    records_arrays,
    rotation,
    stacked_update,
    update,
    window_loss,
)
from geotrack import calibration, dataio, metrics, tuning
from geotrack.cli import main
from geotrack.core import Arena, Gaussian2D, Pairs
from geotrack.heads import extent_grid, grid_loss, head_to_gaussian
from geotrack.kalman import DetectionFrame, FilterParams, run_sequence
from geotrack.simulator import default_scenario, simulate

LOG_2PI = math.log(2.0 * math.pi)
Z_99 = 2.5758293035489004  # two-sided 99% normal quantile


def report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def miscalibrated_config(seed: int, **overrides):
    cfg = default_scenario(seed=seed)
    nodes = tuple(dataclasses.replace(n, miscalibration=(4.0, 0.0)) for n in cfg.nodes)
    return dataclasses.replace(cfg, nodes=nodes, **overrides)


# ---------------------------------------------------------------------------
# 1. Filter-vs-Bayes oracle


def test_criterion_1_filter_matches_grid_bayes():
    started = time.monotonic()
    dt = 0.05
    sigma_accel = 20.0
    vel_var = 100.0
    obs_var = 25.0
    params = FilterParams(sigma_accel, init_vel_var=vel_var)
    frames = [
        DetectionFrame(0.0, (("A", Gaussian2D((0.0, 0.0), obs_var * np.eye(2))),)),
        DetectionFrame(dt, (("A", Gaussian2D((2.0, 0.0), obs_var * np.eye(2))),)),
    ]
    result = run_sequence(frames, params)
    posterior = Gaussian2D(result.means[-1], result.covs[-1])

    # Dense grid Bayes filter over the 1-D motion axis. The prediction step
    # convolves with the exact transition kernel (velocity integrated out,
    # valid because position and velocity are independent at initialization),
    # and the update is a pointwise Bayes rule; nothing of the Kalman algebra
    # is reused.
    step = 0.1
    grid = np.arange(-50.0, 50.0 + 1e-9, step)

    def normal_pdf(x, mu, var):
        return np.exp(-((x - mu) ** 2) / (2.0 * var)) / np.sqrt(2.0 * np.pi * var)

    prior = normal_pdf(grid, 0.0, obs_var)
    transition_var = dt**2 * vel_var + sigma_accel**2 * dt**4 / 4.0
    predicted = normal_pdf(grid[:, None], grid[None, :], transition_var) @ prior * step
    post = predicted * normal_pdf(grid, 2.0, obs_var)
    post /= post.sum() * step
    mean = float((grid * post).sum() * step)
    var = float(((grid - mean) ** 2 * post).sum() * step)

    elapsed = time.monotonic() - started
    mean_err = abs(mean - posterior.mean[0])
    var_rel = abs(var - posterior.cov[0, 0]) / var
    ok = mean_err < 0.05 and var_rel < 0.01 and elapsed < 10.0
    assert report(
        "1",
        ok,
        f"grid-Bayes mean err {mean_err:.2e} cm, var rel err {var_rel:.2e}, {elapsed:.1f}s",
    )
    assert mean_err < 0.05
    assert var_rel < 0.01
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 2. Multi-observation equivalence


def test_criterion_2_multi_observation_equivalence():
    rng = np.random.default_rng(8601)
    worst_stacked = 0.0
    worst_order = 0.0
    for _ in range(1000):
        P = np.zeros((4, 4))
        P[:2, :2] = random_pd_2x2(rng, 5.0, 200.0)
        P[2:, 2:] = random_pd_2x2(rng, 5.0, 200.0)
        state = KalmanState(0.0, rng.uniform(-100, 100, 4), P, np.zeros((1, 4)), np.zeros((1, 4, 4)))
        n_det = int(rng.integers(1, 5))
        dets = tuple(
            (f"N{i}", Gaussian2D(rng.uniform(-50, 50, 2), random_pd_2x2(rng, 1.0, 100.0)))
            for i in range(n_det)
        )
        frame = DetectionFrame(0.0, dets)
        seq = update(state, frame)
        x_ref, P_ref = stacked_update(state.x, state.P, dets)
        worst_stacked = max(
            worst_stacked, np.linalg.norm(seq.x - x_ref), np.linalg.norm(seq.P - P_ref)
        )
        perm = rng.permutation(n_det)
        shuffled = update(state, DetectionFrame(0.0, tuple(dets[i] for i in perm)))
        worst_order = max(
            worst_order, np.linalg.norm(seq.x - shuffled.x), np.linalg.norm(seq.P - shuffled.P)
        )
    ok = worst_stacked < 1e-9 and worst_order < 1e-9
    assert report(
        "2", ok, f"stacked max dev {worst_stacked:.2e}, order max dev {worst_order:.2e}"
    )
    assert worst_stacked < 1e-9
    assert worst_order < 1e-9


# ---------------------------------------------------------------------------
# 3. Gradient correctness


def test_criterion_3_gradient_correctness():
    started = time.monotonic()
    rng = np.random.default_rng(8602)
    worst = 0.0
    for _ in range(50):
        frames, truth = make_cv_frames(
            rng,
            n_steps=20,
            sigma_accel=float(rng.uniform(5.0, 30.0)),
            obs_var=float(rng.uniform(10.0, 40.0)),
        )
        params = tuning.TunableParams.from_natural(
            float(rng.uniform(10.0, 50.0)),
            {
                "N1": calibration.CalibrationParams(rng.uniform(0.5, 2.0), rng.uniform(0.1, 10.0)),
                "N2": calibration.CalibrationParams(rng.uniform(0.5, 2.0), rng.uniform(0.1, 10.0)),
            },
        )
        _, grad = window_loss(params, frames, truth)
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
            rel = abs(grad[i] - fd) / max(abs(grad[i]), abs(fd), 1e-8)
            worst = max(worst, rel)
    elapsed = time.monotonic() - started
    ok = worst < 1e-4 and elapsed < 30.0
    assert report("3", ok, f"max relative gradient error {worst:.2e}, {elapsed:.1f}s")
    assert worst < 1e-4
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# 4. OPM accuracy


def test_criterion_4_opm_binomial_accuracy():
    rng = np.random.default_rng(8603)
    n = 1000

    def exact_axis_aligned(mean, sig, w, l):
        px = phi((w / 2.0 - mean[0]) / sig[0]) - phi((-w / 2.0 - mean[0]) / sig[0])
        py = phi((l / 2.0 - mean[1]) / sig[1]) - phi((-l / 2.0 - mean[1]) / sig[1])
        return px * py

    # Reference case: sigma=10, 15x30 rectangle, centered.
    ref_exact = (2.0 * phi(0.75) - 1.0) * (2.0 * phi(1.5) - 1.0)
    assert ref_exact == pytest.approx(0.4737, abs=5e-4)
    configs = [((0.0, 0.0), (10.0, 10.0))]
    for _ in range(49):
        sig = rng.uniform(3.0, 20.0, 2)
        mean = rng.uniform(-7.0, 7.0, 2)
        configs.append((tuple(mean), tuple(sig)))

    worst_margin = -np.inf
    records = []
    for i, (mean, sig) in enumerate(configs):
        exact = exact_axis_aligned(mean, sig, 15.0, 30.0)
        pose = ObjectPose((0.0, 0.0), 0.0, (15.0, 30.0))
        g = Gaussian2D(mean, np.diag([sig[0] ** 2, sig[1] ** 2]))
        records.append((g, pose))
        estimate = opm(g, pose, n=n, rng=np.random.default_rng(11000 + i))
        half_width = Z_99 * math.sqrt(exact * (1.0 - exact) / n) + 0.5 / n
        margin = abs(estimate - exact) - half_width
        worst_margin = max(worst_margin, margin)
    # The package's OPM is exact: it matches the closed form, not a sample.
    closed = [exact_axis_aligned(mean, sig, 15.0, 30.0) for mean, sig in configs]
    exact_err = float(np.max(np.abs(metrics.per_record_scores(records_arrays(records)) - closed)))
    ok = worst_margin <= 0.0 and exact_err <= 1e-12
    assert report(
        "4", ok, f"50 configs inside 99% CI (worst margin {worst_margin:+.4f}); "
        f"exact OPM within {exact_err:.1e} of the closed form"
    )
    assert worst_margin <= 0.0
    assert exact_err <= 1e-12


# ---------------------------------------------------------------------------
# 5. Calibration recovery


def test_criterion_5_calibration_recovery():
    # Detectors under-dispersed by 4x; the fallback channel is disabled so
    # every validation pair comes from the miscalibrated detector itself.
    cfg = miscalibrated_config(11, duration=625.0, split=(0.1, 0.8, 0.1), fallback_rate=0.0)
    batch, truth = simulate(cfg)["val"]
    assert len(truth) == 10_000
    # The batch's columns view by view (V, T, ...), as cmd_calibrate reads them.
    mean, cov, mask = (np.moveaxis(a[0], 1, 0) for a in (batch.mean, batch.cov, batch.mask))
    position = np.broadcast_to(truth.positions, mask.shape + (2,))
    by_view = {
        view: Pairs(mean[j][mask[j]], cov[j][mask[j]], position[j][mask[j]])
        for j, view in enumerate(batch.views)
    }
    result = calibration.fit_per_view(calibration.default_grid(), by_view)
    assert not result.errors
    a_values = {v: result.params[v].a for v in sorted(result.params)}
    improved = True
    for view, pairs in by_view.items():
        uncalibrated = float(np.mean(pairs.nll))
        improved &= result.best_nll[view] <= uncalibrated + 1e-12
    in_range = all(3.5 <= a <= 4.5 for a in a_values.values())
    ok = in_range and improved
    assert report(
        "5",
        ok,
        "recovered a per view "
        + ", ".join(f"{v}={a:.3f}" for v, a in a_values.items())
        + ("; calibrated NLL never worse" if improved else "; NLL regressed"),
    )
    assert in_range
    assert improved


# ---------------------------------------------------------------------------
# 6. Tuning behavior (cmd_tune, seed 7, default flags)


@pytest.fixture(scope="module")
def tuned_run(tmp_path_factory):
    sim = tmp_path_factory.mktemp("c6_sim")
    config_path = sim / "config.json"
    config_path.write_text(
        dataio.dumps(dataio.scenario_to_dict(miscalibrated_config(7)), indent=2)
    )
    assert main(["simulate", "--config", str(config_path), "--out", str(sim)]) == 0

    def run_tune(out):
        started = time.monotonic()
        code = main(
            [
                "tune",
                "--train-detections", str(sim / "detections_train.jsonl"),
                "--train-truth", str(sim / "truth_train.csv"),
                "--val-detections", str(sim / "detections_val.jsonl"),
                "--val-truth", str(sim / "truth_val.csv"),
                "--seq-len", "100",
                "--epochs", "5",
                "--out", str(out),
            ]
        )
        return code, time.monotonic() - started

    first = tmp_path_factory.mktemp("c6_tune_a")
    second = tmp_path_factory.mktemp("c6_tune_b")
    code1, elapsed1 = run_tune(first)
    code2, _ = run_tune(second)
    assert code1 == 0 and code2 == 0
    return first, second, elapsed1


def test_criterion_6a_val_nll_never_worse(tuned_run):
    first, _, elapsed = tuned_run
    rows = (first / "history.csv").read_text().strip().splitlines()
    header = rows[0].split(",")
    table = [dict(zip(header, r.split(","))) for r in rows[1:]]
    meta = json.loads((first / "history_meta.json").read_text())
    ok = meta["best_val_nll"] <= float(table[0]["val_nll"]) + 1e-12 and elapsed < 300.0
    assert report(
        "6a",
        ok,
        f"best val NLL {meta['best_val_nll']:.4f} <= epoch-0 "
        f"{float(table[0]['val_nll']):.4f}, tune took {elapsed:.0f}s < 300s",
    )
    assert ok


def test_criterion_6b_history_bit_reproducible(tuned_run):
    first, second, _ = tuned_run
    same = (first / "history.csv").read_bytes() == (second / "history.csv").read_bytes()
    assert report("6b", same, "history.csv byte-identical across identical-seed runs")
    assert same


def test_criterion_6c_per_view_scale_exceeds_threshold(tuned_run):
    # Every view reports its covariance 4x too small, so tuning from the
    # identity calibration at the default flags should move each per-view a
    # well above 1.5, into [3.5, 4.5] around the true 4. tune runs full-batch
    # BFGS on the train windows' exact gradient, whose first step is at most
    # 1 long in the log-a coordinates, so it needs a few iterations, not a
    # learning-rate budget, to get there: at the default 5 epochs a lands at
    # about 3.6-3.8 (3.9-4.1 after 10), against 1.00 for a step that does not
    # move.
    first, _, _ = tuned_run
    calib = dataio.read_calibration(first / "tuned_calibration.json")
    a_values = {v: p.a for v, p in calib.items()}
    all_grew = all(a > 1.0 for a in a_values.values())
    ok = all(a > 1.5 and 3.5 <= a <= 4.5 for a in a_values.values())
    assert report(
        "6c",
        ok,
        "per-view a after tuning "
        + ", ".join(f"{v}={a:.4f}" for v, a in sorted(a_values.items()))
        + (" (direction correct: all grew from 1.0)" if all_grew else ""),
    )
    assert ok


# ---------------------------------------------------------------------------
# 7. Detector-vs-tracker direction


@pytest.fixture(scope="module")
def default_run(tmp_path_factory):
    sim = tmp_path_factory.mktemp("c7_sim")
    assert main(["simulate", "--seed", "7", "--out", str(sim)]) == 0
    track = tmp_path_factory.mktemp("c7_track")
    assert (
        main(
            [
                "track",
                "--detections", str(sim / "detections_test.jsonl"),
                "--truth", str(sim / "truth_test.csv"),
                "--out", str(track),
            ]
        )
        == 0
    )
    return sim, track


def test_identity_scenario_calibration_near_one(default_run, tmp_path):
    # Companion check to criterion 5: when the simulated detectors report
    # their true covariances, every fitted per-view multiplier stays near 1.
    sim, _ = default_run
    out = tmp_path / "calib"
    assert (
        main(
            [
                "calibrate",
                "--detections", str(sim / "detections_val.jsonl"),
                "--truth", str(sim / "truth_val.csv"),
                "--out", str(out),
            ]
        )
        == 0
    )
    calib = dataio.read_calibration(out / "calibration.json")
    assert set(calib) == {"N1", "N2", "N3", "N4"}
    for view, params in calib.items():
        assert 0.8 <= params.a <= 1.25, (view, params)


def test_criterion_7_tracker_beats_mean_detector_opm(default_run, tmp_path):
    sim, track = default_run
    out = tmp_path / "tracker"
    assert (
        main(
            [
                "evaluate",
                "--track", str(track / "track.jsonl"),
                "--truth", str(sim / "truth_test.csv"),
                "--out", str(out),
            ]
        )
        == 0
    )
    tracker, _ = dataio.read_report(out / "report.json")
    detector_opms = []
    detector_nlls = []
    for view in ("N1", "N2", "N3", "N4"):
        vout = tmp_path / f"det_{view}"
        assert (
            main(
                [
                    "evaluate",
                    "--detections", str(sim / "detections_test.jsonl"),
                    "--view", view,
                    "--truth", str(sim / "truth_test.csv"),
                    "--out", str(vout),
                ]
            )
            == 0
        )
        rep, _ = dataio.read_report(vout / "report.json")
        detector_opms.append(rep.opm)
        detector_nlls.append(rep.nll)
    mean_detector = float(np.mean(detector_opms))
    summary = json.loads((track / "summary.json").read_text())
    ok = tracker.opm > mean_detector
    assert report(
        "7",
        ok,
        f"tracker OPM {tracker.opm:.3f} > mean detector OPM {mean_detector:.3f}",
    )
    assert tracker.opm > mean_detector
    # Fusion of well-calibrated views is also no worse than the worst view
    # in likelihood terms.
    assert summary["mean_nll"] <= max(detector_nlls)


# ---------------------------------------------------------------------------
# 8. Metric identities


def test_criterion_8_metric_identities():
    rng = np.random.default_rng(8604)
    sweep = metrics.default_sweep()
    scores = rng.uniform(0.0, 1.0, 500)

    # DetPr = DetRe per alpha, by explicit FP/FN counting.
    identity_holds = True
    for alpha in sweep.thresholds:
        tp = int(np.sum(scores > alpha))
        fn = len(scores) - tp
        fp = len(scores) - tp
        identity_holds &= fn == fp
        identity_holds &= tp / (tp + fn) == tp / (tp + fp)
    metrics.det_pr(scores, sweep)  # implementation computes tp / n directly

    per_alpha = []
    for alpha in sweep.thresholds:
        tps = [s for s in scores if s > alpha]
        if tps:
            per_alpha.append(sum(tps) / len(tps))
    brute = sum(per_alpha) / len(per_alpha)
    loc_err = abs(metrics.loc_a(scores, sweep) - brute)

    unit_err = abs(nll(Gaussian2D((0.0, 0.0), np.eye(2)), (0.0, 0.0)) - LOG_2PI)
    ok = identity_holds and loc_err < 1e-12 and unit_err < 1e-9
    assert report(
        "8",
        ok,
        f"DetPr=DetRe per alpha; LocA brute-force err {loc_err:.1e}; "
        f"unit NLL err {unit_err:.1e}",
    )
    assert identity_holds
    assert loc_err < 1e-12
    assert unit_err < 1e-9


# ---------------------------------------------------------------------------
# 9. Head construction


def test_criterion_9_head_construction():
    mean, cov = head_to_gaussian(np.zeros((1, 5)), Arena())
    mean_err = float(np.max(np.abs(mean[0] - np.array([250.0, 350.0]))))
    # softplus(0)^2 + 1 exactly; 1.48045 is its 5-decimal display rounding.
    zero_head_var = math.log(2.0) ** 2 + 1.0
    assert zero_head_var == pytest.approx(1.48045, abs=5e-6)
    cov_err = float(np.max(np.abs(cov[0] - zero_head_var * np.eye(2))))

    # Row by row these are the draws of 2 mean, 2 diagonal and 1 off-diagonal
    # raw values per head, bit for bit.
    raws = np.random.default_rng(8605).uniform(-20, 20, (100_000, 5))
    covs = head_to_gaussian(raws, Arena())[1]
    min_eig = float(np.linalg.eigvalsh(covs)[:, 0].min())
    ok = mean_err < 1e-9 and cov_err < 1e-6 and min_eig >= 1.0 - 1e-9
    assert report(
        "9",
        ok,
        f"zero-raw head mean err {mean_err:.1e}, cov err {cov_err:.1e}, "
        f"min eigenvalue {min_eig:.6f} over 1e5 raws",
    )
    assert mean_err < 1e-9
    assert cov_err < 1e-6
    assert min_eig >= 1.0 - 1e-9


# ---------------------------------------------------------------------------
# 10. Grid-loss / OPM consistency


def test_criterion_10_grid_loss_opm_consistency():
    rng = np.random.default_rng(8606)
    pose = ObjectPose((0.0, 0.0), 0.0, (15.0, 30.0))
    points = extent_grid(pose.position, pose.heading, pose.extent, 1.0)
    worst = 0.0
    for i in range(100):
        eigs = rng.uniform(25.0, 400.0, 2)
        R = rotation(rng.uniform(0.0, math.pi))
        g = Gaussian2D((0.0, 0.0), R @ np.diag(eigs) @ R.T)
        mass = math.exp(-grid_loss(g.mean, g.cov, points, 1.0))
        mc = opm(g, pose, n=200_000, rng=np.random.default_rng(9100 + i))
        worst = max(worst, abs(mass - mc))
    ok = worst < 0.01
    assert report("10", ok, f"max |exp(-grid_loss) - OPM| = {worst:.4f} over 100 configs")
    assert worst < 0.01


# ---------------------------------------------------------------------------
# 11. End-to-end determinism


def run_pipeline(root, seed: int):
    config = {
        "duration": 60.0,
        "seed": seed,
        "nodes": dataio.scenario_to_dict(miscalibrated_config(seed))["nodes"],
    }
    config_path = root / "config.json"
    config_path.write_text(json.dumps(config))
    sim = root / "sim"
    assert main(["simulate", "--config", str(config_path), "--out", str(sim)]) == 0
    calib = root / "calib"
    assert (
        main(
            [
                "calibrate",
                "--detections", str(sim / "detections_val.jsonl"),
                "--truth", str(sim / "truth_val.csv"),
                "--out", str(calib),
            ]
        )
        == 0
    )
    track = root / "track"
    assert (
        main(
            [
                "track",
                "--detections", str(sim / "detections_test.jsonl"),
                "--truth", str(sim / "truth_test.csv"),
                "--calib", str(calib / "calibration.json"),
                "--out", str(track),
            ]
        )
        == 0
    )
    tune_dir = root / "tune"
    assert (
        main(
            [
                "tune",
                "--train-detections", str(sim / "detections_train.jsonl"),
                "--train-truth", str(sim / "truth_train.csv"),
                "--val-detections", str(sim / "detections_val.jsonl"),
                "--val-truth", str(sim / "truth_val.csv"),
                "--init", str(calib / "calibration.json"),
                "--seq-len", "100",
                "--epochs", "2",
                "--out", str(tune_dir),
            ]
        )
        == 0
    )
    ev = root / "eval"
    assert (
        main(
            [
                "evaluate",
                "--track", str(track / "track.jsonl"),
                "--truth", str(sim / "truth_test.csv"),
                "--out", str(ev),
            ]
        )
        == 0
    )


def test_criterion_11_end_to_end_determinism(tmp_path):
    for name in ("run_a", "run_b"):
        (tmp_path / name).mkdir()
        run_pipeline(tmp_path / name, seed=21)
    a_files = sorted(
        p.relative_to(tmp_path / "run_a")
        for p in (tmp_path / "run_a").rglob("*")
        if p.is_file() and p.name != "manifest.json"
    )
    b_files = sorted(
        p.relative_to(tmp_path / "run_b")
        for p in (tmp_path / "run_b").rglob("*")
        if p.is_file() and p.name != "manifest.json"
    )
    same_set = a_files == b_files
    diffs = [
        str(rel)
        for rel in a_files
        if (tmp_path / "run_a" / rel).read_bytes() != (tmp_path / "run_b" / rel).read_bytes()
    ]
    ok = same_set and not diffs
    assert report(
        "11",
        ok,
        f"{len(a_files)} pipeline files byte-identical across identical-seed runs"
        + (f"; differing: {diffs}" if diffs else ""),
    )
    assert same_set
    assert not diffs
