import dataclasses
import json
import math

import numpy as np
import pytest

from geotrack import dataio
from geotrack.calibration import CalibrationParams
from geotrack.core import Gaussian2D, ObjectPose
from geotrack.kalman import DetectionFrame, FilterParams
from geotrack.metrics import MetricReport
from geotrack.simulator import default_scenario


@pytest.fixture()
def frames():
    rng = np.random.default_rng(70)
    out = []
    for k in range(20):
        dets = []
        for view in ("N1", "N2"):
            if rng.random() < 0.8:
                cov = np.diag(rng.uniform(1, 50, 2))
                cov[0, 1] = cov[1, 0] = rng.uniform(-0.3, 0.3) * math.sqrt(cov[0, 0] * cov[1, 1])
                dets.append((view, Gaussian2D(rng.uniform(0, 500, 2), cov)))
        out.append(DetectionFrame(k * 0.05, tuple(dets)))
    return out


def test_detections_round_trip(tmp_path, frames):
    path = tmp_path / "d.jsonl"
    dataio.write_detections(path, frames)
    back = dataio.read_detections(path)
    assert len(back) == len(frames)
    for a, b in zip(frames, back):
        assert a.t == b.t
        for (va, ga), (vb, gb) in zip(a.detections, b.detections):
            assert va == vb
            np.testing.assert_array_equal(ga.mean, gb.mean)
            np.testing.assert_array_equal(ga.cov, gb.cov)
    second = tmp_path / "d2.jsonl"
    dataio.write_detections(second, back)
    assert path.read_bytes() == second.read_bytes()


def test_detections_bad_json_names_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"t": 0.0, "detections": []}\nnot json\n')
    with pytest.raises(ValueError, match="bad.jsonl:2"):
        dataio.read_detections(path)


def test_truth_round_trip(tmp_path):
    rng = np.random.default_rng(71)
    samples = [
        (k * 0.05, ObjectPose(rng.uniform(0, 500, 2), rng.uniform(-3, 3), (15.0, 30.0)))
        for k in range(25)
    ]
    path = tmp_path / "t.csv"
    dataio.write_truth(path, samples)
    back = dataio.read_truth(path)
    for (ta, pa), (tb, pb) in zip(samples, back):
        assert ta == tb
        np.testing.assert_array_equal(pa.position, pb.position)
        assert pa.heading == pb.heading
        assert pa.extent == pb.extent
    second = tmp_path / "t2.csv"
    dataio.write_truth(second, back)
    assert path.read_bytes() == second.read_bytes()


def test_truth_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="header"):
        dataio.read_truth(path)


def test_scenario_round_trip(tmp_path):
    cfg = dataclasses.replace(
        default_scenario(seed=5),
        occluders=((10.0, 10.0, 50.0, 60.0),),
        lighting="low",
    )
    path = tmp_path / "s.json"
    dataio.write_scenario(path, cfg)
    back = dataio.load_scenario(path)
    assert back == cfg
    second = tmp_path / "s2.json"
    dataio.write_scenario(second, back)
    assert path.read_bytes() == second.read_bytes()


def test_scenario_defaults_filled():
    cfg = dataio.scenario_from_dict({"seed": 3, "duration": 10.0})
    assert cfg.seed == 3
    assert cfg.duration == 10.0
    assert cfg.fps == 20.0
    assert len(cfg.nodes) == 4
    assert cfg.split == (0.5, 0.1, 0.4)


def test_scenario_unknown_field_named():
    with pytest.raises(ValueError, match="unknown config field: fsp"):
        dataio.scenario_from_dict({"fsp": 30})
    with pytest.raises(ValueError, match="nodes.colour"):
        dataio.scenario_from_dict(
            {"nodes": [{"id": "N1", "position": [0, 0], "facing": 0.0, "colour": "red"}]}
        )


def test_filter_params_round_trip(tmp_path):
    path = tmp_path / "p.json"
    dataio.write_filter_params(path, FilterParams(55.5, init_vel_var=123.0))
    back = dataio.read_filter_params(path)
    assert back.sigma_accel == 55.5
    assert back.init_vel_var == 123.0


def test_calibration_round_trip(tmp_path):
    params = {"N1": CalibrationParams(2.5, 7.0), "N2": CalibrationParams(1.0, 0.0)}
    path = tmp_path / "c.json"
    dataio.write_calibration(path, params)
    back = dataio.read_calibration(path)
    assert back == params


def test_track_round_trip(tmp_path):
    rng = np.random.default_rng(72)
    times = np.arange(10) * 0.05
    marginals = [
        Gaussian2D(rng.uniform(0, 500, 2), np.diag(rng.uniform(1, 20, 2))) for _ in times
    ]
    path = tmp_path / "track.jsonl"
    dataio.write_track(path, times, [g.mean for g in marginals], [g.cov for g in marginals])
    back = dataio.read_track(path)
    assert [t for t, _ in back] == list(times)
    second = tmp_path / "track2.jsonl"
    dataio.write_track(
        second, [t for t, _ in back], [g.mean for _, g in back], [g.cov for _, g in back]
    )
    assert path.read_bytes() == second.read_bytes()


def test_report_round_trip(tmp_path):
    report = MetricReport(
        nll=5.5, opm=0.9, det_pr=0.91, loc_a=0.95, seed=7, n_mc=1000,
        alpha_sweep=tuple(i / 20 for i in range(1, 20)),
    )
    path = tmp_path / "r.json"
    dataio.write_report(path, report)
    assert dataio.read_report(path) == report


def test_histogram_output(tmp_path):
    path = tmp_path / "h.csv"
    dataio.write_histogram(path, np.array([1.0, 1.5, 2.0, 2.5, 9.0]), bins=4)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "bin_left,bin_right,count"
    assert len(lines) == 5
    counts = [int(line.split(",")[2]) for line in lines[1:]]
    assert sum(counts) == 5


def test_history_csv(tmp_path):
    rows = [
        {"epoch": 0, "train_nll": 5.0, "val_nll": 5.5, "sigma_accel": 100.0},
        {"epoch": 1, "train_nll": 4.9, "val_nll": 5.4, "sigma_accel": 100.2},
    ]
    path = tmp_path / "hist.csv"
    dataio.write_history(path, rows)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,train_nll,val_nll,sigma_accel"
    assert len(lines) == 3
