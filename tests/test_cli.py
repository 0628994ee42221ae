import csv
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import oracle_write_plot_data, truth_arrays
from geotrack import __version__, calibration, dataio, metrics, tuning
from geotrack.cli import _parse_axis, build_parser, main
from geotrack.core import ObjectPose
from geotrack.kalman import FilterParams

SMALL_CONFIG = {
    "duration": 30.0,
    "seed": 13,
    "nodes": [
        {"id": "N1", "position": [250.0, 0.0], "facing": math.pi / 2.0},
        {"id": "N2", "position": [500.0, 350.0], "facing": math.pi},
        {"id": "N3", "position": [250.0, 700.0], "facing": -math.pi / 2.0},
        {"id": "N4", "position": [0.0, 350.0], "facing": 0.0},
    ],
}


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    config = out / "config.json"
    config.write_text(json.dumps(SMALL_CONFIG))
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def track_dir(tmp_path_factory, sim_dir):
    out = tmp_path_factory.mktemp("track")
    code = main(
        [
            "track",
            "--detections", str(sim_dir / "detections_test.jsonl"),
            "--truth", str(sim_dir / "truth_test.csv"),
            "--out", str(out),
        ]
    )
    assert code == 0
    return out


class TestSimulate:
    def test_writes_expected_files(self, sim_dir):
        for split in ("train", "val", "test"):
            assert (sim_dir / f"detections_{split}.jsonl").exists()
            assert (sim_dir / f"truth_{split}.csv").exists()
        assert (sim_dir / "manifest.json").exists()
        assert (sim_dir / "scenario_resolved.json").exists()

    def test_resolved_config_echoes_defaults(self, sim_dir):
        resolved = json.loads((sim_dir / "scenario_resolved.json").read_text())
        assert resolved["fps"] == 20.0
        assert resolved["split"] == [0.5, 0.1, 0.4]
        manifest = json.loads((sim_dir / "manifest.json").read_text())
        assert manifest["options"]["resolved"]["seed"] == 13

    def test_deterministic_data_files(self, sim_dir, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(SMALL_CONFIG))
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path)]) == 0
        for name in ("detections_train.jsonl", "truth_val.csv", "detections_test.jsonl"):
            assert (tmp_path / name).read_bytes() == (sim_dir / name).read_bytes()

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["simulate", "--config", str(bad), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "line" in err and "column" in err  # parse location

    def test_non_string_node_id_exits_2(self, tmp_path, capsys):
        # A node id is the view id of its detections, which every reader
        # takes only as a string: simulate must not write what none can read.
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"nodes": [{"id": 5, "position": [0.0, 0.0], "facing": 0.0}]}))
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "sim")]) == 2
        assert capsys.readouterr().err == f"error: {config}: node id must be a string, got 5\n"
        assert not (tmp_path / "sim" / "detections_test.jsonl").exists()

    def test_unknown_field_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"frames_per_second": 20}')
        assert main(["simulate", "--config", str(bad), "--out", str(tmp_path)]) == 2
        assert "frames_per_second" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["1.5", "true", "-1", '"7"'])
    def test_bad_seed_exits_2_naming_the_config(self, tmp_path, capsys, seed):
        config = tmp_path / "c.json"
        config.write_text(f'{{"seed": {seed}}}')
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "sim")]) == 2
        message = f"seed must be a non-negative integer, got {json.loads(seed)!r}"
        assert capsys.readouterr().err == f"error: {config}: {message}\n"
        assert not (tmp_path / "sim" / "scenario_resolved.json").exists()

    def test_negative_seed_flag_exits_2(self, tmp_path, capsys):
        assert main(["simulate", "--seed", "-1", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "error: seed must be a non-negative integer, got -1\n"

    def test_seed_override(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(SMALL_CONFIG))
        out = tmp_path / "other"
        assert main(["simulate", "--config", str(config), "--seed", "99", "--out", str(out)]) == 0
        resolved = json.loads((out / "scenario_resolved.json").read_text())
        assert resolved["seed"] == 99


class TestTrack:
    def test_one_marginal_per_frame_from_first_nonempty(self, sim_dir, track_dir):
        batch = dataio.read_detections(sim_dir / "detections_test.jsonl")
        first_nonempty = int(batch.mask[0].any(axis=1).argmax())
        times, _, _ = dataio.read_track(track_dir / "track.jsonl")
        assert len(times) == len(batch) - first_nonempty

    def test_summary_contains_nll(self, track_dir):
        summary = json.loads((track_dir / "summary.json").read_text())
        assert "mean_nll" in summary and math.isfinite(summary["mean_nll"])

    def test_plot_data_columns(self, track_dir):
        lines = (track_dir / "plot_data.csv").read_text().strip().splitlines()
        assert lines[0] == "t,truth_x,truth_y,mean_x,mean_y,ell_major,ell_minor,ell_angle"
        assert len(lines) > 1
        first = lines[1].split(",")
        assert len(first) == 8
        assert float(first[5]) >= float(first[6]) > 0.0  # major >= minor
        for line in lines[1:]:
            assert all(math.isfinite(float(field)) for field in line.split(","))

    @pytest.mark.parametrize("with_truth", [True, False])
    def test_plot_data_matches_per_step_oracle(self, sim_dir, tmp_path, with_truth):
        # The first frames carry no detection, so the track starts late and
        # its truth rows are a tail of the truth file's.
        lines = (sim_dir / "detections_test.jsonl").read_text().splitlines()
        for k in range(5):
            lines[k] = json.dumps({"t": json.loads(lines[k])["t"], "detections": []})
        detections = tmp_path / "late.jsonl"
        detections.write_text("\n".join(lines) + "\n")
        truth_args = ["--truth", str(sim_dir / "truth_test.csv")] if with_truth else []
        argv = ["track", "--detections", str(detections), "--out", str(tmp_path / "out")]
        assert main(argv + truth_args) == 0
        times, means, covs = dataio.read_track(tmp_path / "out" / "track.jsonl")
        assert len(times) == len(lines) - 5
        truth = dataio.read_truth(sim_dir / "truth_test.csv")
        positions = truth.positions[dataio.match_truth(times, truth, "track")] if with_truth else None
        oracle_write_plot_data(tmp_path / "oracle.csv", times, means, covs, positions)
        expected = (tmp_path / "oracle.csv").read_bytes()
        assert (tmp_path / "out" / "plot_data.csv").read_bytes() == expected

    def test_identity_calibration_equals_no_calibration(self, sim_dir, tmp_path):
        calib = tmp_path / "identity.json"
        calib.write_text(
            json.dumps({"views": {f"N{i}": {"a": 1.0, "b": 0.0} for i in range(1, 5)}})
        )
        plain = tmp_path / "plain"
        with_calib = tmp_path / "calib"
        for out, extra in ((plain, []), (with_calib, ["--calib", str(calib)])):
            code = main(
                [
                    "track",
                    "--detections", str(sim_dir / "detections_test.jsonl"),
                    "--truth", str(sim_dir / "truth_test.csv"),
                    "--out", str(out),
                ]
                + extra
            )
            assert code == 0
        assert (plain / "track.jsonl").read_bytes() == (with_calib / "track.jsonl").read_bytes()

    def test_timestamp_disorder_exits_1(self, tmp_path, capsys):
        path = tmp_path / "d.jsonl"
        g = {"view": "N1", "mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]}
        path.write_text(
            json.dumps({"t": 0.1, "detections": [g]})
            + "\n"
            + json.dumps({"t": 0.0, "detections": [g]})
            + "\n"
        )
        assert main(["track", "--detections", str(path), "--out", str(tmp_path)]) == 1
        assert "line 2" in capsys.readouterr().err

    def test_missing_detections_exits_2(self, tmp_path):
        assert (
            main(["track", "--detections", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path)])
            == 2
        )

    @pytest.mark.parametrize("field", ["cov", "mean", "view", "t", "detections"])
    def test_missing_field_exits_2_naming_line(self, tmp_path, capsys, field):
        path = tmp_path / "d.jsonl"
        g = {"view": "N1", "mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]}
        det = {k: v for k, v in g.items() if k != field}
        bad = {k: v for k, v in {"t": 0.05, "detections": [det]}.items() if k != field}
        path.write_text(json.dumps({"t": 0.0, "detections": [g]}) + "\n" + json.dumps(bad) + "\n")
        assert main(["track", "--detections", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {path}:2: missing field '{field}'\n"

    @pytest.mark.parametrize("view", [None, 3])
    def test_non_string_view_exits_2_naming_line(self, tmp_path, capsys, view):
        path = tmp_path / "d.jsonl"
        g = {"view": "N1", "mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]}
        bad = dict(g, view=view)
        path.write_text(
            json.dumps({"t": 0.0, "detections": [g]})
            + "\n"
            + json.dumps({"t": 0.05, "detections": [bad]})
            + "\n"
        )
        assert main(["track", "--detections", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {path}:2: view id must be a string, got {view!r}\n"

    def test_non_finite_truth_heading_exits_2_naming_line(self, sim_dir, tmp_path, capsys):
        truth = tmp_path / "t.csv"
        truth.write_text("t,x,y,heading,width,length\n0.0,1.0,2.0,nan,15.0,30.0\n")
        argv = ["track", "--detections", str(sim_dir / "detections_test.jsonl")]
        assert main(argv + ["--truth", str(truth), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {truth}:2: heading must be finite, got nan\n"

    def test_non_pd_detection_covariance_exits_1_naming_line(self, tmp_path, capsys):
        path = tmp_path / "d.jsonl"
        g = {"view": "N1", "mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]}
        bad = dict(g, cov=[[1.0, 0.0], [0.0, -1.0]])
        path.write_text(
            json.dumps({"t": 0.0, "detections": [g]})
            + "\n"
            + json.dumps({"t": 0.05, "detections": [bad]})
            + "\n"
        )
        assert main(["track", "--detections", str(path), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err == (
            f"error: {path}:2: matrix is not positive definite: leading minor 2 is -1\n"
        )

    def test_determinant_overflow_exits_1_naming_line(self, tmp_path, capsys):
        # Each entry is finite, but the determinant overflows to inf.
        path = tmp_path / "d.jsonl"
        g = {"view": "N1", "mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]}
        bad = dict(g, cov=[[1e200, 0.0], [0.0, 1e200]])
        path.write_text(
            json.dumps({"t": 0.0, "detections": [g]})
            + "\n"
            + json.dumps({"t": 0.05, "detections": [bad]})
            + "\n"
        )
        assert main(["track", "--detections", str(path), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err == (
            f"error: {path}:2: matrix is not positive definite: leading minor 2 is inf\n"
        )

    def test_numeric_failure_mid_run_exits_1(self, sim_dir, tmp_path, capsys):
        # sigma_accel 1e300 overflows the process noise on the first predict.
        params = tmp_path / "params.json"
        params.write_text(json.dumps({"sigma_accel": 1e300}))
        code = main(
            [
                "track",
                "--detections", str(sim_dir / "detections_test.jsonl"),
                "--params", str(params),
                "--out", str(tmp_path),
            ]
        )
        assert code == 1
        assert "not positive definite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag,text,t",
        [
            ("--calib", '{"views": {"N1": {"a": 1e308, "b": 0.0}}}', "18.0"),
            ("--params", '{"sigma_accel": 1e200}', "18.05"),
        ],
        ids=["calib-huge-a", "params-huge-sigma"],
    )
    def test_numeric_failure_mid_run_names_the_detections_file(self, sim_dir, tmp_path, capsys, flag, text, t):
        # a = 1e308 overflows N1's first calibrated covariance; sigma_accel
        # 1e200 the process noise of the first predict.
        record = tmp_path / "record.json"
        record.write_text(text)
        detections = sim_dir / "detections_test.jsonl"
        argv = ["track", "--detections", str(detections), flag, str(record), "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: {detections}: frame at t={t}: matrix is not positive definite: leading minor 1 is inf\n"
        )

    def test_calibration_of_none_of_the_views_exits_2(self, sim_dir, tmp_path, capsys):
        # Applied, it would change nothing while summary.json said "calibrated".
        calib = tmp_path / "c.json"
        calib.write_text('{"views": {"N9": {"a": 2.0, "b": 0.0}}}')
        argv = ["track", "--detections", str(sim_dir / "detections_test.jsonl"), "--calib", str(calib)]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {calib}: calibrates none of the detections' views: N1, N2, N3, N4\n"
        assert not (tmp_path / "out" / "track.jsonl").exists()


class TestCalibrate:
    def test_grid_flag_defaults_parse_to_default_grid(self):
        args = build_parser().parse_args(["calibrate", "--detections", "d", "--truth", "t"])
        grid = calibration.CalibrationGrid(_parse_axis(args.grid_a), _parse_axis(args.grid_b))
        assert grid == calibration.default_grid()

    def test_fits_identity_scenario_near_one(self, sim_dir, tmp_path, capsys):
        code = main(
            [
                "calibrate",
                "--detections", str(sim_dir / "detections_val.jsonl"),
                "--truth", str(sim_dir / "truth_val.csv"),
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        calib = dataio.read_calibration(tmp_path / "calibration.json")
        assert set(calib) == {"N1", "N2", "N3", "N4"}
        out = capsys.readouterr().out
        # The printed per-view lines report before -> after NLL.
        for line in out.strip().splitlines():
            before, after = line.split("nll")[1].split("->")
            assert float(after) <= float(before) + 1e-9

    def test_shared_flag(self, sim_dir, tmp_path):
        code = main(
            [
                "calibrate",
                "--detections", str(sim_dir / "detections_val.jsonl"),
                "--truth", str(sim_dir / "truth_val.csv"),
                "--shared",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        data = json.loads((tmp_path / "calibration.json").read_text())
        assert data["shared"] is True
        values = {(v["a"], v["b"]) for v in data["views"].values()}
        assert len(values) == 1

    def test_missing_truth_exits_2(self, sim_dir, tmp_path):
        code = main(
            [
                "calibrate",
                "--detections", str(sim_dir / "detections_val.jsonl"),
                "--truth", str(tmp_path / "nope.csv"),
                "--out", str(tmp_path),
            ]
        )
        assert code == 2

    def test_custom_grid_spec(self, sim_dir, tmp_path):
        code = main(
            [
                "calibrate",
                "--detections", str(sim_dir / "detections_val.jsonl"),
                "--truth", str(sim_dir / "truth_val.csv"),
                "--grid-a", "0.5:2:log11",
                "--grid-b", "0:10:lin3",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0

    def test_overflowing_grid_cells_never_win(self, sim_dir, tmp_path, capsys):
        # b = 8.5e307 and 1.7e308 overflow a * cov + b * I's determinant:
        # those cells score NaN, silently, and b = 0 wins for every view.
        argv = [
            "calibrate",
            "--detections", str(sim_dir / "detections_val.jsonl"),
            "--truth", str(sim_dir / "truth_val.csv"),
            "--grid-b=0:1.7e308:lin3",
            "--out", str(tmp_path),
        ]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 0
        assert not caught
        assert capsys.readouterr().err == ""
        views = dataio.read_calibration(tmp_path / "calibration.json")
        assert len(views) == 4 and all(p.b == 0.0 for p in views.values())

    def test_bad_grid_spec_exits_2(self, sim_dir, tmp_path, capsys):
        code = main(
            [
                "calibrate",
                "--detections", str(sim_dir / "detections_val.jsonl"),
                "--truth", str(sim_dir / "truth_val.csv"),
                "--grid-a", "nonsense",
                "--out", str(tmp_path),
            ]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "flag,spec,reason",
        [
            ("--grid-a", "0.05:10:log0", "expected lo <= hi and a count of at least 1"),
            ("--grid-b", "0:500:lin-3", "expected lo <= hi and a count of at least 1"),
            ("--grid-a", "10:0.05:log5", "expected lo <= hi and a count of at least 1"),
            ("--grid-b", "0:10:log5", "a log axis needs lo > 0"),
            ("--grid-a", "-1:10:log5", "a log axis needs lo > 0"),
        ],
        ids=["count-zero", "count-negative", "reversed-span", "log-from-zero", "log-from-negative"],
    )
    def test_empty_or_reversed_axis_exits_2(self, sim_dir, tmp_path, capsys, flag, spec, reason):
        # Before these were rejected, a zero count fitted over the one-point
        # axis {1.0}, a negative one failed inside numpy and a reversed span
        # lost the identity point; a log axis from 0 failed inside numpy,
        # and one from below 0 warned and then met non-finite grid values.
        code = main(
            [
                "calibrate",
                "--detections", str(sim_dir / "detections_val.jsonl"),
                "--truth", str(sim_dir / "truth_val.csv"),
                f"{flag}={spec}",
                "--out", str(tmp_path),
            ]
        )
        assert code == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line == f"error: bad grid axis spec {spec!r}; {reason}"
        assert not (tmp_path / "calibration.json").exists()

    def test_one_point_axis_parses(self):
        assert _parse_axis("1:1:log1") == (1.0,)
        assert _parse_axis("0:0:lin1") == (0.0,)


class TestTune:
    def test_small_run_outputs(self, sim_dir, tmp_path):
        code = main(
            [
                "tune",
                "--train-detections", str(sim_dir / "detections_train.jsonl"),
                "--train-truth", str(sim_dir / "truth_train.csv"),
                "--val-detections", str(sim_dir / "detections_val.jsonl"),
                "--val-truth", str(sim_dir / "truth_val.csv"),
                "--seq-len", "50",
                "--epochs", "2",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        rows = (tmp_path / "history.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 3  # header + epochs + epoch 0
        header = rows[0].split(",")
        views = [f"{v}_{p}" for v in ("N1", "N2", "N3", "N4") for p in "ab"]
        assert header == ["epoch", "train_nll", "val_nll", "sigma_accel", "grad_norm", *views]
        vals = [dict(zip(header, r.split(","))) for r in rows[1:]]
        outputs = json.loads((tmp_path / "manifest.json").read_text())["outputs"]
        assert outputs == ["history.csv", "history_meta.json", "tuned_calibration.json", "tuned_params.json"]
        meta = json.loads((tmp_path / "history_meta.json").read_text())
        assert sorted(meta) == ["best_epoch", "best_val_nll", "diverged", "evaluations"]
        assert meta["diverged"] is False
        # Best-seen selection: the returned parameters are never worse on
        # validation than the epoch-0 starting point.
        assert meta["best_val_nll"] <= float(vals[0]["val_nll"]) + 1e-12

    def test_defaults_come_from_the_config_types(self, tmp_path):
        # The flags' defaults are TuneConfig's, and a params file without
        # init_vel_var reads as FilterParams' default.
        files = ["--train-detections", "d", "--train-truth", "t", "--val-detections", "d"]
        args = build_parser().parse_args(["tune", *files, "--val-truth", "t"])
        config = tuning.TuneConfig(seq_len=args.seq_len, epochs=args.epochs)
        assert config == tuning.TuneConfig()
        (tmp_path / "p.json").write_text('{"sigma_accel": 50.0}')
        assert dataio.read_filter_params(tmp_path / "p.json") == FilterParams(50.0)

    @pytest.mark.parametrize("flag", [["--lr", "0.1"], ["--seed", "7"]], ids=["lr", "seed"])
    def test_retired_flags_are_unknown(self, sim_dir, tmp_path, capsys, flag):
        # tune is deterministic full-batch BFGS: no learning rate, no shuffle seed.
        argv = [arg.format(sim=sim_dir) for arg in _TUNE.split()] + flag + ["--out", str(tmp_path)]
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines()[-1].endswith(f"error: unrecognized arguments: {' '.join(flag)}")
        assert not any(tmp_path.iterdir())

    def test_seq_len_too_large_exits_2(self, sim_dir, tmp_path, capsys):
        code = main(
            [
                "tune",
                "--train-detections", str(sim_dir / "detections_val.jsonl"),
                "--train-truth", str(sim_dir / "truth_val.csv"),
                "--val-detections", str(sim_dir / "detections_val.jsonl"),
                "--val-truth", str(sim_dir / "truth_val.csv"),
                "--seq-len", "1000",
                "--out", str(tmp_path),
            ]
        )
        assert code == 2
        assert "seq-len" in capsys.readouterr().err

    def test_split_without_a_window_holding_a_detection_exits_1(self, sim_dir, tmp_path, capsys):
        # 10 frames, the only detection in the last: the one 7-frame window
        # holds none.
        train = tmp_path / "train.jsonl"
        det = {"view": "N1", "mean": [100.0, 100.0], "cov": [[4.0, 0.0], [0.0, 4.0]]}
        train.write_text("".join(
            json.dumps({"t": 0.05 * k, "detections": [det] if k == 9 else []}) + "\n" for k in range(10)
        ))
        poses = [(0.05 * k, ObjectPose((100.0, 100.0), 0.0, (15.0, 30.0))) for k in range(10)]
        dataio.write_truth(tmp_path / "truth.csv", truth_arrays(poses))
        code = main(
            [
                "tune",
                "--train-detections", str(train),
                "--train-truth", str(tmp_path / "truth.csv"),
                "--val-detections", str(sim_dir / "detections_val.jsonl"),
                "--val-truth", str(sim_dir / "truth_val.csv"),
                "--seq-len", "7",
                "--epochs", "1",
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line == f"error: {train}: no window of 7 frames holds a detection"


    @pytest.mark.parametrize(
        "flag,text",
        [("--init", '{"views": {"N1": {"a": 1e308, "b": 0.0}}}'), ("--params", '{"sigma_accel": 1e200}')],
        ids=["init-huge-a", "params-huge-sigma"],
    )
    def test_a_start_whose_train_nll_is_not_finite_exits_1(self, sim_dir, tmp_path, capsys, flag, text):
        # a = 1e308 overflows N1's calibrated covariances, sigma_accel 1e200
        # the process noise: every train window fails at the start.
        record, out = tmp_path / "record.json", tmp_path / "out"
        record.write_text(text)
        argv = [arg.format(sim=sim_dir) for arg in _TUNE.split()] + [flag, str(record), "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: {sim_dir / 'detections_train.jsonl'}: the starting parameters' train NLL is not finite\n"
        )
        assert not any(out.iterdir())

    def test_a_start_whose_validation_nll_is_not_finite_exits_1(self, sim_dir, tmp_path, capsys):
        # The validation detections hold a view N9 that the train split
        # lacks, and --init gives it a = 1e308: the train NLL is finite,
        # every validation window fails.
        val, init, out = tmp_path / "val.jsonl", tmp_path / "init.json", tmp_path / "out"
        val.write_text((sim_dir / "detections_val.jsonl").read_text().replace('"N1"', '"N9"'))
        init.write_text('{"views": {"N9": {"a": 1e308, "b": 0.0}}}')
        argv = [
            "tune",
            "--train-detections", str(sim_dir / "detections_train.jsonl"),
            "--train-truth", str(sim_dir / "truth_train.csv"),
            "--val-detections", str(val),
            "--val-truth", str(sim_dir / "truth_val.csv"),
            "--init", str(init),
            "--out", str(out),
        ]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {val}: the starting parameters' validation NLL is not finite\n"
        assert not any(out.iterdir())


class TestEvaluate:
    def test_track_mode(self, sim_dir, track_dir, tmp_path):
        code = main(
            [
                "evaluate",
                "--track", str(track_dir / "track.jsonl"),
                "--truth", str(sim_dir / "truth_test.csv"),
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        report, _ = dataio.read_report(tmp_path / "report.json")
        assert 0.0 <= report.opm <= 1.0
        assert (tmp_path / "nll_hist.csv").exists()
        assert (tmp_path / "report_row.csv").exists()

    def test_single_view_mode(self, sim_dir, tmp_path):
        code = main(
            [
                "evaluate",
                "--detections", str(sim_dir / "detections_test.jsonl"),
                "--view", "N2",
                "--truth", str(sim_dir / "truth_test.csv"),
                "--out", str(tmp_path),
            ]
        )
        assert code == 0

    def test_default_alpha_sweep_is_exact(self, sim_dir, track_dir, tmp_path):
        # The default thresholds are i / 20 exactly, not linspace's 0.39999999999999997.
        code = main(
            [
                "evaluate",
                "--track", str(track_dir / "track.jsonl"),
                "--truth", str(sim_dir / "truth_test.csv"),
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        report, _ = dataio.read_report(tmp_path / "report.json")
        assert report.alpha_sweep == metrics.default_sweep().thresholds

    def test_alpha_sweep_range_is_exact(self, sim_dir, track_dir, tmp_path):
        # lo:hi:count is computed from the decimal strings and rounded once,
        # so this range is the default sweep and scores as the default does.
        reports = []
        for name, extra in (("range", ["--alpha-sweep", "0.05:0.95:19"]), ("default", [])):
            out = tmp_path / name
            argv = ["evaluate", "--track", str(track_dir / "track.jsonl"),
                    "--truth", str(sim_dir / "truth_test.csv"), "--out", str(out)]
            assert main(argv + extra) == 0
            reports.append((out / "report.json").read_bytes())
        assert dataio.read_report(tmp_path / "range" / "report.json")[0].alpha_sweep == (
            metrics.default_sweep().thresholds
        )
        assert reports[0] == reports[1]

    @pytest.mark.parametrize(
        "spec",
        ["0.05:0.95", "0.05:0.95:x", "a:0.95:3", "0:0.5:3", "0.9:0.1:3", "0.05:0.95:0",
         "1/3:0.5:2", "1e-99999:0.5:2", "0.1:nan:3", "0.2,0.1", "0.5,1.5", ""],
    )
    def test_malformed_alpha_sweep_exits_2(self, sim_dir, track_dir, tmp_path, spec, capsys):
        argv = ["evaluate", "--track", str(track_dir / "track.jsonl"),
                "--truth", str(sim_dir / "truth_test.csv"), f"--alpha-sweep={spec}", "--out", str(tmp_path)]
        assert main(argv) == 2
        assert "bad alpha sweep spec" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--mc-samples", "10"], ["--seed", "4"]])
    def test_monte_carlo_flags_are_unknown(self, sim_dir, track_dir, tmp_path, flag):
        argv = ["evaluate", "--track", str(track_dir / "track.jsonl"),
                "--truth", str(sim_dir / "truth_test.csv"), "--out", str(tmp_path)]
        assert main(argv + flag) == 2

    def test_requires_exactly_one_source(self, sim_dir, track_dir, tmp_path):
        assert (
            main(["evaluate", "--truth", str(sim_dir / "truth_test.csv"), "--out", str(tmp_path)])
            == 2
        )
        code = main(
            [
                "evaluate",
                "--track", str(track_dir / "track.jsonl"),
                "--detections", str(sim_dir / "detections_test.jsonl"),
                "--view", "N1",
                "--truth", str(sim_dir / "truth_test.csv"),
                "--out", str(tmp_path),
            ]
        )
        assert code == 2

    def test_truth_field_over_the_csv_limit_exits_2_naming_line(self, tmp_path, capsys):
        # csv.reader refuses a field of more than 131,072 characters.
        truth = tmp_path / "big.csv"
        truth.write_text("t,x,y,heading,width,length\n0.0," + "1" * 200000 + ",2.0,0.5,15.0,30.0\n")
        argv = ["evaluate", "--track", str(tmp_path / "x.jsonl"), "--truth", str(truth)]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {truth}:2: field larger than field limit (131072)\n"

    def test_unmatched_timestamps_exit_1_with_count(self, sim_dir, track_dir, tmp_path, capsys):
        code = main(
            [
                "evaluate",
                "--track", str(track_dir / "track.jsonl"),
                "--truth", str(sim_dir / "truth_train.csv"),
                "--out", str(tmp_path),
            ]
        )
        assert code == 1
        assert "timestamps" in capsys.readouterr().err

    def test_deterministic_reports(self, sim_dir, track_dir, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = main(
                [
                    "evaluate",
                    "--track", str(track_dir / "track.jsonl"),
                    "--truth", str(sim_dir / "truth_test.csv"),
                    "--out", str(out),
                ]
            )
            assert code == 0
            outs.append((out / "report.json").read_bytes())
        assert outs[0] == outs[1]

    def test_perfect_prediction_fixture(self, tmp_path):
        truth_path = tmp_path / "truth.csv"
        poses = [(0.0, ObjectPose((100.0, 100.0), 0.0, (15.0, 30.0))),
                 (0.05, ObjectPose((101.0, 100.0), 0.0, (15.0, 30.0)))]
        dataio.write_truth(truth_path, truth_arrays(poses))

        # Unit covariance at truth: mean NLL is exactly log(2 pi).
        unit_track = tmp_path / "unit.jsonl"
        dataio.write_track(
            unit_track, [0.0, 0.05], [p.position for _, p in poses], [np.eye(2)] * 2
        )
        out1 = tmp_path / "unit"
        assert main(
            ["evaluate", "--track", str(unit_track), "--truth", str(truth_path), "--out", str(out1)]
        ) == 0
        report, _ = dataio.read_report(out1 / "report.json")
        assert report.nll == pytest.approx(math.log(2.0 * math.pi), abs=1e-9)

        # Tiny covariance at truth: all scores saturate at 1.
        tiny_track = tmp_path / "tiny.jsonl"
        dataio.write_track(
            tiny_track, [0.0, 0.05], [p.position for _, p in poses], [1e-6 * np.eye(2)] * 2
        )
        out2 = tmp_path / "tiny"
        assert main(
            ["evaluate", "--track", str(tiny_track), "--truth", str(truth_path), "--out", str(out2)]
        ) == 0
        report, _ = dataio.read_report(out2 / "report.json")
        assert report.opm == 1.0 and report.det_pr == 1.0 and report.loc_a == 1.0


class TestReport:
    @pytest.fixture()
    def two_runs(self, sim_dir, track_dir, tmp_path):
        runs = []
        for i, sweep in enumerate(("0.5", "0.25,0.75")):
            out = tmp_path / f"run{i}"
            code = main(
                [
                    "evaluate",
                    "--track", str(track_dir / "track.jsonl"),
                    "--truth", str(sim_dir / "truth_test.csv"),
                    "--alpha-sweep", sweep,
                    "--out", str(out),
                ]
            )
            assert code == 0
            runs.append(out)
        return runs

    def test_two_rows_and_column_order(self, two_runs, tmp_path):
        out = tmp_path / "table"
        assert main(["report", str(two_runs[0]), str(two_runs[1]), "--out", str(out)]) == 0
        lines = (out / "report_table.csv").read_text().strip().splitlines()
        assert lines[0].startswith("run,nll,opm,det_pr,loc_a")
        assert len(lines) == 3

    def test_text_and_csv_values_identical(self, two_runs, tmp_path):
        out = tmp_path / "table"
        assert main(["report", str(two_runs[0]), str(two_runs[1]), "--out", str(out)]) == 0
        csv_rows = [
            line.split(",") for line in (out / "report_table.csv").read_text().strip().splitlines()
        ]
        txt_rows = [
            line.split() for line in (out / "report_table.txt").read_text().strip().splitlines()
        ]
        assert [r for r in csv_rows] == [r for r in txt_rows]

    def test_csv_quotes_run_names(self, two_runs, tmp_path):
        # A run name with a comma and a quote stays one field of six.
        run = tmp_path / 'run,"x'
        shutil.copytree(two_runs[0], run)
        out = tmp_path / "table"
        assert main(["report", str(run), str(two_runs[1]), "--out", str(out)]) == 0
        with open(out / "report_table.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert [len(r) for r in rows] == [6, 6, 6]
        assert rows[1][0] == 'run,"x' and rows[2][0] == "run1"

    def test_reads_report_with_monte_carlo_keys(self, two_runs, tmp_path):
        # A report.json written before OPM was exact also carries seed and
        # n_mc; report ignores them and tabulates the same values.
        old = tmp_path / "old"
        old.mkdir()
        data = json.loads((two_runs[0] / "report.json").read_text())
        (old / "report.json").write_text(json.dumps({**data, "seed": 0, "n_mc": 1000}, indent=2) + "\n")
        out = tmp_path / "table"
        assert main(["report", str(old), str(two_runs[0]), "--out", str(out)]) == 0
        with open(out / "report_table.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        # Values agree; the fingerprint is of the file's bytes.
        assert rows[1][1:5] == rows[2][1:5]
        assert rows[1][1:5] == [repr(data[key]) for key in ("nll", "opm", "det_pr", "loc_a")]

    def test_missing_report_flagged_exit_0(self, two_runs, tmp_path, capsys):
        out = tmp_path / "table"
        assert main(["report", str(two_runs[0]), str(tmp_path / "ghost"), "--out", str(out)]) == 0
        assert "missing" in capsys.readouterr().err.lower()
        lines = (out / "report_table.csv").read_text().strip().splitlines()
        assert "MISSING" in lines[2]


class TestUsage:
    def test_no_out_and_no_env_exits_2(self, sim_dir, monkeypatch):
        monkeypatch.delenv("GEOTRACK_OUT", raising=False)
        assert main(["simulate"]) == 2

    def test_env_var_output_root(self, sim_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("GEOTRACK_OUT", str(tmp_path))
        config = tmp_path / "config.json"
        config.write_text(json.dumps(SMALL_CONFIG))
        assert main(["simulate", "--config", str(config)]) == 0
        assert (tmp_path / "simulate" / "manifest.json").exists()

    def test_unknown_command_exits_2(self):
        assert main(["frobnicate"]) == 2



@pytest.fixture(scope="module")
def plot_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("plot")


@settings(max_examples=200)
@given(
    data=st.data(),
    n=st.integers(1, 12),
    with_truth=st.booleans(),
    chunk=st.sampled_from([1, 2, 3, dataio.CHUNK_FRAMES]),
)
def test_write_plot_data_matches_per_step_oracle(plot_dir, data, n, with_truth, chunk):
    # Random covariances: np.arctan2 differs from math.atan2 in the last bit
    # for about 8% of their major axes, so a vectorised angle shows here.
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** data.draw(st.integers(-3, 6))
    root = rng.standard_normal((n, 2, 2)) * scale
    covs = root @ np.swapaxes(root, 1, 2) + scale**2 * 1e-3 * np.eye(2)
    if data.draw(st.booleans()):
        covs[0] = scale**2 * np.eye(2)  # a circle: any axis is the major one
    times = np.cumsum(rng.uniform(1e-3, 1.0, n)) + data.draw(st.floats(-1e6, 1e6))
    means = rng.standard_normal((n, 2)) * 10.0 ** data.draw(st.integers(-3, 6))
    truth = np.where(rng.random((n, 2)) < 0.2, -0.0, rng.uniform(0.0, 700.0, (n, 2))) if with_truth else None
    with mock.patch.object(dataio, "CHUNK_FRAMES", chunk):
        dataio.write_plot_data(plot_dir / "plot.csv", times, means, covs, truth)
    oracle_write_plot_data(plot_dir / "oracle.csv", times, means, covs, truth)
    assert (plot_dir / "plot.csv").read_bytes() == (plot_dir / "oracle.csv").read_bytes()


_GOOD = '{"view": "N1", "mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]}'
_TRACK = "track --detections {sim}/detections_test.jsonl"
_TUNE = (
    "tune --train-detections {sim}/detections_train.jsonl --train-truth {sim}/truth_train.csv"
    " --val-detections {sim}/detections_val.jsonl --val-truth {sim}/truth_val.csv"
)
_CALIBRATE = "calibrate --detections {sim}/detections_val.jsonl --truth {sim}/truth_val.csv"
_SIMULATE = "simulate --config {tmp}/c.json"

# One row per cause in the README's exit-code table: id, exit code, files to
# write into the scratch dir, argv (without --out) and the file the one-line
# error must name (None when no file is at fault). {sim} is the simulate
# output dir and {tmp} the scratch dir.
EXIT_CODE_CASES = [
    ("bad-flags", 2, {}, "evaluate --truth {sim}/truth_test.csv", None),
    ("missing-file", 2, {}, "track --detections {tmp}/nope.jsonl", "{tmp}/nope.jsonl"),
    ("directory-as-file", 2, {}, "track --detections {sim}", "{sim}"),
    ("invalid-json", 2, {"c.json": "{not json"}, "simulate --config {tmp}/c.json", "{tmp}/c.json"),
    (
        "node-without-facing",
        2,
        {"c.json": '{"nodes": [{"id": "N1", "position": [0, 0]}]}'},
        "simulate --config {tmp}/c.json",
        "{tmp}/c.json",
    ),
    (
        "node-id-not-a-string",
        2,
        {"c.json": '{"nodes": [{"id": 5, "position": [0, 0], "facing": 0}]}'},
        "simulate --config {tmp}/c.json",
        "{tmp}/c.json",
    ),
    ("calib-missing-views", 2, {"c.json": "{}"}, _TRACK + " --calib {tmp}/c.json", "{tmp}/c.json"),
    ("params-missing-sigma", 2, {"p.json": "{}"}, _TRACK + " --params {tmp}/p.json", "{tmp}/p.json"),
    (
        "calib-nan-floor",
        2,
        {"c.json": '{"views": {"N1": {"a": 1.0, "b": NaN}}}'},
        _TRACK + " --calib {tmp}/c.json",
        "{tmp}/c.json",
    ),
    (
        "params-infinite-sigma",
        2,
        {"p.json": '{"sigma_accel": 1e400}'},
        _TRACK + " --params {tmp}/p.json",
        "{tmp}/p.json",
    ),
    (
        "grid-infinite-bound",
        2,
        {},
        "calibrate --detections {sim}/detections_val.jsonl --truth {sim}/truth_val.csv"
        " --grid-b 0:inf:lin5",
        None,
    ),
    ("grid-span-overflow", 2, {}, _CALIBRATE + " --grid-a=-1e308:1e308:lin5", None),
    ("grid-count-zero", 2, {}, _CALIBRATE + " --grid-a 0.05:10:log0", None),
    ("grid-count-negative", 2, {}, _CALIBRATE + " --grid-b 0:500:lin-3", None),
    ("grid-reversed-span", 2, {}, _CALIBRATE + " --grid-a 10:0.05:log5", None),
    ("grid-log-from-zero", 2, {}, _CALIBRATE + " --grid-b 0:10:log5", None),
    ("grid-log-from-negative", 2, {}, _CALIBRATE + " --grid-a=-1:10:log5", None),
    ("split-four-fractions", 2, {"c.json": '{"split": [0.5, 0.3, 0.1, 0.1]}'}, _SIMULATE, "{tmp}/c.json"),
    ("split-two-fractions", 2, {"c.json": '{"split": [0.5, 0.5]}'}, _SIMULATE, "{tmp}/c.json"),
    ("extent-one-value", 2, {"c.json": '{"object_extent": [15.0]}'}, _SIMULATE, "{tmp}/c.json"),
    ("extent-three-values", 2, {"c.json": '{"object_extent": [15.0, 30.0, 5.0]}'}, _SIMULATE, "{tmp}/c.json"),
    ("seed-fraction", 2, {"c.json": '{"seed": 1.5}'}, _SIMULATE, "{tmp}/c.json"),
    ("seed-bool", 2, {"c.json": '{"seed": true}'}, _SIMULATE, "{tmp}/c.json"),
    ("seed-negative", 2, {"c.json": '{"seed": -1}'}, _SIMULATE, "{tmp}/c.json"),
    ("seed-flag-negative", 2, {}, "simulate --seed -1", None),
    (
        "arena-unknown-field",
        2,
        {"c.json": '{"arena": {"width": 500, "length": 700, "hieght": 3}}'},
        _SIMULATE,
        "{tmp}/c.json",
    ),
    (
        "report-missing-opm",
        2,
        {"run/report.json": '{"nll": 1.0}'},
        "report {tmp}/run",
        "{tmp}/run/report.json",
    ),
    (
        "bad-value",
        2,
        {"d.jsonl": '{"t": 0.0, "detections": [{"view": "N1", "mean": "x", "cov": 1}]}\n'},
        "track --detections {tmp}/d.jsonl",
        "{tmp}/d.jsonl:1",
    ),
    ("wrong-truth-header", 2, {"t.csv": "a,b\n"}, _TRACK + " --truth {tmp}/t.csv", "{tmp}/t.csv"),
    (
        "short-truth-row",
        2,
        {"t.csv": "t,x,y,heading,width,length\n0.0,1.0,2.0,0.0,15.0,30.0\n1.0,2.0,3.0\n"},
        _TRACK + " --truth {tmp}/t.csv",
        "{tmp}/t.csv:3",
    ),
    (
        "timestamp-disorder",
        1,
        {"d.jsonl": f'{{"t": 0.1, "detections": [{_GOOD}]}}\n{{"t": 0.0, "detections": []}}\n'},
        "track --detections {tmp}/d.jsonl",
        "{tmp}/d.jsonl",
    ),
    (
        "truth-timestamp-disorder",
        1,
        {"t.csv": "t,x,y,heading,width,length\n0.0,1.0,2.0,0.0,15.0,30.0\n0.0,2.0,3.0,0.0,15.0,30.0\n"},
        _TRACK + " --truth {tmp}/t.csv",
        "{tmp}/t.csv",
    ),
    (
        "track-timestamp-disorder",
        1,
        {
            "tr.jsonl": '{"cov": [[1.0, 0.0], [0.0, 1.0]], "mean": [0.0, 0.0], "t": 0.0}\n'
            * 2
        },
        "evaluate --track {tmp}/tr.jsonl --truth {sim}/truth_train.csv",
        "{tmp}/tr.jsonl",
    ),
    (
        "frames-without-truth",
        1,
        {},
        _TRACK + " --truth {sim}/truth_train.csv",
        "{sim}/detections_test.jsonl",
    ),
    (
        "non-pd-input",
        1,
        {"d.jsonl": '{"t": 0.0, "detections": [{"view": "N1", "mean": [0, 0], "cov": [[-1, 0], [0, 1]]}]}\n'},
        "track --detections {tmp}/d.jsonl",
        "{tmp}/d.jsonl:1",
    ),
    (
        "non-pd-mid-run",
        1,
        {"p.json": '{"sigma_accel": 1e300}'},
        _TRACK + " --params {tmp}/p.json",
        "{sim}/detections_test.jsonl",
    ),
    (
        "tune-start-not-finite",
        1,
        {"p.json": '{"sigma_accel": 1e200}'},
        _TUNE + " --params {tmp}/p.json",
        "{sim}/detections_train.jsonl",
    ),
    (
        "no-detections",
        1,
        {"d.jsonl": '{"t": 0.0, "detections": []}\n'},
        "track --detections {tmp}/d.jsonl",
        "{tmp}/d.jsonl",
    ),
    (
        "view-with-track",
        2,
        {
            "tr.jsonl": '{"cov": [[1.0, 0.0], [0.0, 1.0]], "mean": [0.0, 0.0], "t": 0.0}\n',
            "t.csv": "t,x,y,heading,width,length\n0.0,1.0,2.0,0.0,15.0,30.0\n",
        },
        "evaluate --track {tmp}/tr.jsonl --view N2 --truth {tmp}/t.csv",
        None,
    ),
]


@pytest.mark.parametrize(
    "code,files,argv,named", [c[1:] for c in EXIT_CODE_CASES], ids=[c[0] for c in EXIT_CODE_CASES]
)
def test_exit_code_table(sim_dir, tmp_path, capsys, code, files, argv, named):
    dirs = {"sim": sim_dir, "tmp": tmp_path}
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text(text)
    args = [arg.format(**dirs) for arg in argv.split()]
    assert main(args + ["--out", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    [line] = err.splitlines()
    assert line.startswith("error: ")
    if named is not None:
        assert line.startswith(f"error: {named.format(**dirs)}:")


# Parameter and calibration files hold objects of known keys only: id, the
# command (without the file), its flag for the file, the file's text and the
# message after the file's name.
_PARAMS_TYPO = '{"sigma_accel": 50.0, "init_vel_vr": 5000.0}'
RECORD_FILE_CASES = [
    ("params-list", _TRACK, "--params", "[]", "filter parameters must be an object"),
    ("params-string", _TRACK, "--params", '"x"', "filter parameters must be an object"),
    ("params-unknown-key", _TRACK, "--params", _PARAMS_TYPO, "unknown config field: init_vel_vr"),
    ("calib-list", _TRACK, "--calib", "[]", "calibration must be an object"),
    ("calib-views-list", _TRACK, "--calib", '{"views": []}', "views must be an object"),
    ("calib-view-list", _TRACK, "--calib", '{"views": {"N1": [1.0, 0.0]}}', "views.N1 must be an object"),
    ("calib-unknown-key", _TRACK, "--calib", '{"views": {}, "scale": 2.0}', "unknown config field: scale"),
    (
        "calib-unknown-view-key",
        _TRACK,
        "--calib",
        '{"views": {"N1": {"a": 1.0, "b": 0.0, "bb": 1.0}}}',
        "unknown config field: views.N1.bb",
    ),
    ("tune-params-unknown-key", _TUNE, "--params", _PARAMS_TYPO, "unknown config field: init_vel_vr"),
    ("tune-init-views-list", _TUNE, "--init", '{"views": []}', "views must be an object"),
]


@pytest.mark.parametrize(
    "command,flag,text,message", [c[1:] for c in RECORD_FILE_CASES], ids=[c[0] for c in RECORD_FILE_CASES]
)
def test_record_file_errors_name_the_file_and_the_shape(sim_dir, tmp_path, capsys, command, flag, text, message):
    path = tmp_path / "record.json"
    path.write_text(text)
    argv = [arg.format(sim=sim_dir) for arg in command.split()]
    assert main(argv + [flag, str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


@pytest.fixture(scope="module")
def eval_dir(tmp_path_factory, sim_dir, track_dir):
    out = tmp_path_factory.mktemp("eval")
    argv = ["evaluate", "--track", str(track_dir / "track.jsonl"), "--truth", str(sim_dir / "truth_test.csv")]
    assert main(argv + ["--out", str(out)]) == 0
    return out


_PARAMS = {"sigma_accel": 123.0, "init_vel_var": 5000.0}
_CALIB = json.dumps({"views": {v: {"a": 1.0, "b": 0.0} for v in ("N1", "N2", "N3", "N4")}})

# One run per command with every optional input given: id, files to write
# into the scratch dir, argv (without --out), the input flags it names and
# the values the command resolves into its options. {track} and {eval} are
# the track and evaluate output dirs.
MANIFEST_CASES = [
    (
        "simulate",
        {"c.json": json.dumps(SMALL_CONFIG)},
        "simulate --config {tmp}/c.json --seed 3",
        {"config": "{tmp}/c.json"},
        {"seed": 3},
    ),
    (
        "track",
        {"p.json": json.dumps(_PARAMS), "c.json": _CALIB},
        _TRACK + " --truth {sim}/truth_test.csv --params {tmp}/p.json --calib {tmp}/c.json",
        {
            "detections": "{sim}/detections_test.jsonl",
            "truth": "{sim}/truth_test.csv",
            "params": "{tmp}/p.json",
            "calib": "{tmp}/c.json",
        },
        {"params": _PARAMS},
    ),
    (
        "calibrate",
        {},
        _CALIBRATE + " --grid-a 0.5:2:log5 --grid-b 0:10:lin3 --shared",
        {"detections": "{sim}/detections_val.jsonl", "truth": "{sim}/truth_val.csv"},
        {},
    ),
    (
        "tune",
        {"p.json": json.dumps(_PARAMS), "c.json": _CALIB},
        _TUNE + " --init {tmp}/c.json --params {tmp}/p.json --seq-len 50 --epochs 1",
        {
            "train_detections": "{sim}/detections_train.jsonl",
            "train_truth": "{sim}/truth_train.csv",
            "val_detections": "{sim}/detections_val.jsonl",
            "val_truth": "{sim}/truth_val.csv",
            "init": "{tmp}/c.json",
            "params": "{tmp}/p.json",
        },
        {"params": _PARAMS},
    ),
    (
        "evaluate-track",
        {},
        "evaluate --track {track}/track.jsonl --truth {sim}/truth_test.csv --alpha-sweep 0.25,0.5",
        {"track": "{track}/track.jsonl", "truth": "{sim}/truth_test.csv"},
        {"alpha_sweep": [0.25, 0.5]},
    ),
    (
        "evaluate-detections",
        {},
        "evaluate --detections {sim}/detections_test.jsonl --view N2 --truth {sim}/truth_test.csv",
        {"detections": "{sim}/detections_test.jsonl", "truth": "{sim}/truth_test.csv"},
        {"alpha_sweep": list(metrics.default_sweep().thresholds)},
    ),
    ("report", {}, "report {eval} {track}", {"run_dirs": ["{eval}", "{track}"]}, {}),
]


@pytest.mark.parametrize(
    "files,argv,inputs,resolved", [c[1:] for c in MANIFEST_CASES], ids=[c[0] for c in MANIFEST_CASES]
)
def test_manifest_records_every_flag(sim_dir, track_dir, eval_dir, tmp_path, files, argv, inputs, resolved):
    dirs = {"sim": sim_dir, "tmp": tmp_path, "track": track_dir, "eval": eval_dir}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    args = [arg.format(**dirs) for arg in argv.split()]
    out = tmp_path / "out"
    assert main(args + ["--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())

    given = {
        flag: [p.format(**dirs) for p in path] if isinstance(path, list) else path.format(**dirs)
        for flag, path in inputs.items()
    }
    # The input flags not given (the other evaluate source) are recorded as None.
    assert {k: v for k, v in manifest["inputs"].items() if v is not None} == given
    parsed = vars(build_parser().parse_args(args))
    flags = set(parsed) - {"func", "command", "out"}
    assert set(manifest["inputs"]) <= flags
    # Every other flag is an option as parsed, unless the command resolved it.
    expected = {**{k: parsed[k] for k in flags - set(manifest["inputs"])}, **resolved}
    assert {k: manifest["options"].get(k, "<absent>") for k in expected} == expected
    assert manifest["outputs"] == sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
    versions = {"geotrack": __version__, "numpy": np.__version__, "python": platform.python_version()}
    assert manifest["versions"] == versions
    # Megabytes: numpy alone takes more than one, and no command here a gigabyte.
    assert 1.0 < manifest["peak_rss_mb"] < 1024.0


# The README walkthrough in small, run through the CLI in one process.
PIPELINE = """
import json, sys
from geotrack.cli import main

config = {config}
open("config.json", "w").write(json.dumps(config))
commands = [
    "simulate --config config.json --out sim",
    "track --detections sim/detections_test.jsonl --truth sim/truth_test.csv --out track",
    "calibrate --detections sim/detections_val.jsonl --truth sim/truth_val.csv --out calib",
    "tune --train-detections sim/detections_train.jsonl --train-truth sim/truth_train.csv"
    " --val-detections sim/detections_val.jsonl --val-truth sim/truth_val.csv"
    " --init calib/calibration.json --seq-len 50 --epochs 2 --out tune",
    "track --detections sim/detections_test.jsonl --truth sim/truth_test.csv"
    " --params tune/tuned_params.json --calib tune/tuned_calibration.json --out track_tuned",
    "evaluate --track track_tuned/track.jsonl --truth sim/truth_test.csv --out eval",
    "evaluate --detections sim/detections_test.jsonl --view N2 --truth sim/truth_test.csv --out eval_n2",
    "report eval eval_n2 --out table",
]
sys.exit(max(main(c.split()) for c in commands))
"""


def simd_levels() -> list[list[str]]:
    """The NPY_DISABLE_CPU_FEATURES settings this CPU can run: none, then
    numpy's dispatch targets that it has, switched off from the highest."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    present = [f for f in __cpu_dispatch__ if __cpu_features__.get(f)]
    return [present[len(present) - i :] for i in range(len(present) + 1)]


def test_outputs_identical_across_simd_levels(tmp_path):
    # numpy picks a ufunc's SIMD loop by CPU, and some (x**3, x**4, exp,
    # log) round differently in the last bit from one loop to another. Every
    # output byte must be the same at every level, manifests apart from
    # their wall-clock and peak memory fields.
    levels = simd_levels()
    if len(levels) < 2:
        pytest.skip("this CPU runs numpy at its baseline only")
    src = Path(dataio.__file__).resolve().parent.parent
    outputs = []
    for i, disabled in enumerate(levels):
        root = tmp_path / f"level{i}"
        root.mkdir()
        env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(disabled)}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        script = PIPELINE.format(config=repr(SMALL_CONFIG))
        done = subprocess.run(
            [sys.executable, "-c", script], cwd=root, env=env, capture_output=True, text=True, timeout=300
        )
        assert done.returncode == 0, done.stderr
        files = {}
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            data = path.read_bytes()
            if path.name == "manifest.json":
                manifest = json.loads(data)
                for field in ("wall_clock_utc", "elapsed_seconds", "peak_rss_mb", "peak_child_rss_mb"):
                    del manifest[field]
                data = json.dumps(manifest, sort_keys=True).encode()
            files[str(path.relative_to(root))] = data
        outputs.append(files)
    assert len(outputs[0]) > 20
    for disabled, files in zip(levels[1:], outputs[1:]):
        assert files.keys() == outputs[0].keys()
        differ = sorted(name for name in files if files[name] != outputs[0][name])
        assert not differ, f"with {' '.join(disabled)} disabled: {differ}"


# Runs geotrack.cli.main on the arguments in a fresh interpreter, then prints
# whether numpy.ma was imported.
FRESH = "import sys; from geotrack.cli import main; rc = main(sys.argv[1:]); print('numpy.ma' in sys.modules); sys.exit(rc)"


def _fresh_main(cwd, *argv, shell=()) -> str:
    """geotrack.cli.main(argv) in a fresh interpreter, which the shell
    command line shell execs if given; its last line of stdout."""
    src = Path(dataio.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([*shell, sys.executable, "-c", FRESH, *argv], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


def test_fresh_simulate_does_not_import_numpy_ma(tmp_path):
    # numpy.ma cost a fresh process 13 ms and 1.3 MB, and geotrack needs none of it.
    (tmp_path / "config.json").write_text(json.dumps(SMALL_CONFIG))
    assert _fresh_main(tmp_path, "simulate", "--config", "config.json", "--out", "sim") == "False"


def test_manifest_records_the_forked_readers_peak_rss(tmp_path):
    # A fresh process forks only to read or write a file in two ranges,
    # which it does when it may run on two CPUs and the file's second range
    # holds at least SPLIT_BYTES: here simulate's writes of the 3000-line
    # train and 2400-line test files and track's read of the train file, and
    # not track's read of the 600-line val file nor its writes of 600 steps.
    (tmp_path / "config.json").write_text(json.dumps({**SMALL_CONFIG, "duration": 300.0}))
    _fresh_main(tmp_path, "simulate", "--config", "config.json", "--out", "sim")
    lines = {split: (tmp_path / f"sim/detections_{split}.jsonl").read_bytes().count(b"\n") for split in ("train", "val")}
    assert lines == {"train": 3000, "val": 600}
    two_cpus = hasattr(os, "fork") and len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) > 1
    peaks = {"sim": json.loads((tmp_path / "sim" / "manifest.json").read_text())["peak_child_rss_mb"]}
    for split in lines:
        _fresh_main(tmp_path, "track", "--detections", f"sim/detections_{split}.jsonl", "--out", split)
        peaks[split] = json.loads((tmp_path / split / "manifest.json").read_text())["peak_child_rss_mb"]
    for run, peak in peaks.items():
        if run != "val" and two_cpus:
            assert 1.0 < peak < 1024.0, run
        else:
            assert peak == 0.0, run


@pytest.mark.skipif(shutil.which("bash") is None, reason="needs bash")
def test_a_one_pass_command_execd_by_a_shell_records_no_child(tmp_path):
    # bash waits for the child of x=$(true), then execs python, and the
    # kernel keeps that child's RUSAGE_CHILDREN peak (about 3 MB) across
    # exec: the manifest counts only the children this command reaped.
    (tmp_path / "config.json").write_text(json.dumps(SMALL_CONFIG))
    shell = ["bash", "-c", 'x=$(true); exec "$@"', "bash"]
    _fresh_main(tmp_path, "simulate", "--config", "config.json", "--out", "sim", shell=shell)
    assert json.loads((tmp_path / "sim" / "manifest.json").read_text())["peak_child_rss_mb"] == 0.0
