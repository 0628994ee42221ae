import contextlib
import copy
import dataclasses
import errno
import hashlib
import itertools
import json
import math
import os
import pickle
import re
import resource
import subprocess
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    assert_no_child,
    batch_frames,
    fork_only,
    open_fds,
    oracle_write_detections,
    oracle_write_plot_data,
    oracle_write_track,
    oracle_write_truth,
    read_detection_frames,
    read_truth_rows,
    truth_arrays,
)
from geotrack import dataio, forking
from geotrack.calibration import CalibrationParams
from geotrack.core import Arena, Gaussian2D, NotPositiveDefiniteError, ObjectPose, wrap_angle
from geotrack.kalman import DetectionFrame, FilterParams, FrameBatch, pack
from geotrack.metrics import MetricReport
from geotrack.simulator import CameraNode, Trajectory, default_scenario


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
    dataio.write_detections(path, pack([frames]))
    batch = dataio.read_detections(path)
    back = batch_frames(batch)
    assert len(back) == len(frames)
    for a, b in zip(frames, back):
        assert a.t == b.t
        for (va, ga), (vb, gb) in zip(a.detections, b.detections):
            assert va == vb
            np.testing.assert_array_equal(ga.mean, gb.mean)
            np.testing.assert_array_equal(ga.cov, gb.cov)
    second = tmp_path / "d2.jsonl"
    dataio.write_detections(second, batch)
    assert path.read_bytes() == second.read_bytes()


def test_write_detections_in_batch_column_order(tmp_path):
    # Views ("N2", "N1") are not sorted; the second frame has only N1 and the
    # third has no detection.
    rng = np.random.default_rng(72)
    mean = rng.uniform(0, 500, (1, 3, 2, 2))
    cov = np.broadcast_to(np.diag([4.0, 9.0]), (1, 3, 2, 2, 2)).copy()
    cov[..., 0, 1] = cov[..., 1, 0] = rng.uniform(-1.0, 1.0, (1, 3, 2))
    mask = np.array([[[True, True], [False, True], [False, False]]])
    batch = FrameBatch(("N2", "N1"), np.array([[0.0, 0.05, 0.1]]), mean, cov, mask)
    path = tmp_path / "d.jsonl"
    dataio.write_detections(path, batch)
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert [[d["view"] for d in rec["detections"]] for rec in records] == [["N2", "N1"], ["N1"], []]
    assert records[1]["detections"][0]["mean"] == mean[0, 1, 1].tolist()
    assert records[1]["detections"][0]["cov"] == cov[0, 1, 1].tolist()
    oracle = tmp_path / "oracle.jsonl"
    oracle_write_detections(oracle, batch_frames(batch))
    assert path.read_bytes() == oracle.read_bytes()


def test_detections_determinant_overflow_names_line(tmp_path):
    path = tmp_path / "d.jsonl"
    ok = {"view": "N1", "mean": [1.0, 2.0], "cov": [[1.0, 0.0], [0.0, 1.0]]}
    bad = dict(ok, cov=[[1e200, 0.0], [0.0, 1e200]])
    lines = [{"t": 0.0, "detections": [ok]}, {"t": 0.05, "detections": [bad]}]
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    message = f"^{re.escape(str(path))}:2: matrix is not positive definite: leading minor 2 is inf$"
    with pytest.raises(NotPositiveDefiniteError, match=message):
        dataio.read_detections(path)
    with pytest.raises(NotPositiveDefiniteError, match="leading minor 2 is inf"):
        Gaussian2D([0.0, 0.0], [[1e200, 0.0], [0.0, 1e200]])


def test_detections_bad_json_names_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"t": 0.0, "detections": []}\nnot json\n')
    with pytest.raises(ValueError, match="bad.jsonl:2"):
        dataio.read_detections(path)


def test_detections_disorder_names_file_line(tmp_path):
    path = tmp_path / "d.jsonl"
    good = {"view": "N1", "mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]}
    lines = [json.dumps({"t": t, "detections": [good]}) for t in (0.0, 0.1)]
    path.write_text(lines[0] + "\n\n" + lines[1] + "\n" + lines[0] + "\n")
    with pytest.raises(RuntimeError, match=f"{re.escape(str(path))}: timestamp disorder at line 4"):
        dataio.read_detections(path)


def test_detections_without_any_detection_rejected(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text('{"t": 0.0, "detections": []}\n{"t": 0.1, "detections": []}\n')
    with pytest.raises(RuntimeError, match="no detections"):
        dataio.read_detections(path)


@pytest.mark.parametrize("view", [None, 3])
def test_detections_non_string_view_rejected(tmp_path, view):
    path = tmp_path / "d.jsonl"
    good = {"view": "N1", "mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]}
    lines = [
        json.dumps({"t": 0.0, "detections": [good]}),
        json.dumps({"t": 0.1, "detections": [dict(good, view=view)]}),
    ]
    path.write_text("\n".join(lines) + "\n")
    message = f"{re.escape(str(path))}:2: view id must be a string, got {view!r}$"
    with pytest.raises(ValueError, match=message):
        dataio.read_detections(path)


def test_detections_arrays_in_sorted_view_order(tmp_path):
    path = tmp_path / "d.jsonl"
    records = [
        {"t": 0.0, "detections": []},
        {"t": 0.5, "detections": [
            {"view": "b", "mean": [1.0, 2.0], "cov": [[4.0, 1.0], [7.0, 9.0]]},
            {"view": "a", "mean": [3, 4], "cov": [[1, 0], [0, 1]]},
        ]},
    ]
    path.write_text(json.dumps(records[0]) + "\n\n" + json.dumps(records[1]) + "\n")
    batch = dataio.read_detections(path)
    assert len(batch) == 2
    assert batch.views == ("a", "b")
    np.testing.assert_array_equal(batch.t, [[0.0, 0.5]])
    np.testing.assert_array_equal(batch.mask, [[[False, False], [True, True]]])
    np.testing.assert_array_equal(batch.mean[0, 1], [[3.0, 4.0], [1.0, 2.0]])
    # The off-diagonal comes from cov[0][1], as in Gaussian2D; an absent
    # slot holds mean 0 and identity covariance.
    np.testing.assert_array_equal(batch.cov[0, 1, 1], [[4.0, 1.0], [1.0, 9.0]])
    np.testing.assert_array_equal(batch.mean[0, 0], np.zeros((2, 2)))
    np.testing.assert_array_equal(batch.cov[0, 0], [np.eye(2), np.eye(2)])


def test_detections_irregular_but_valid_values_read_as_gaussian2d_does(tmp_path):
    # Values no bulk check covers (a nested mean, numeric strings, booleans)
    # are read record by record, to the same arrays as the objects.
    path = tmp_path / "d.jsonl"
    det = {"view": "N1", "mean": [[1.0, 2.0]], "cov": [["4", 0], [0, True]]}
    path.write_text(json.dumps({"t": "0.25", "detections": [det]}) + "\n")
    batch = dataio.read_detections(path)
    expected = pack([read_detection_frames(path)])
    for name in ("t", "mean", "cov", "mask"):
        np.testing.assert_array_equal(getattr(batch, name), getattr(expected, name))
    np.testing.assert_array_equal(batch.cov[0, 0, 0], [[4.0, 0.0], [0.0, 1.0]])


def test_match_truth_exact_times():
    poses = [ObjectPose((float(k), 0.0), 0.0, (15.0, 30.0)) for k in range(4)]
    truth = truth_arrays(list(zip((0.0, 0.05, 0.1, 0.15), poses)))
    assert dataio.match_truth(np.array([0.15, 0.0]), truth, "src").tolist() == [3, 0]
    with pytest.raises(RuntimeError, match="^src: 2 of 3 timestamps have no matching truth row"):
        dataio.match_truth(np.array([0.05, 0.07, 0.2]), truth, "src")


def test_truth_round_trip(tmp_path):
    rng = np.random.default_rng(71)
    samples = [
        (k * 0.05, ObjectPose(rng.uniform(0, 500, 2), rng.uniform(-3, 3), (15.0, 30.0)))
        for k in range(25)
    ]
    path = tmp_path / "t.csv"
    dataio.write_truth(path, truth_arrays(samples))
    back, sent = dataio.read_truth(path), truth_arrays(samples)
    assert len(back) == len(samples)
    np.testing.assert_array_equal(back.times, sent.times)
    np.testing.assert_array_equal(back.positions, sent.positions)
    np.testing.assert_array_equal(back.headings, sent.headings)
    np.testing.assert_array_equal(back.extent, sent.extent)
    second = tmp_path / "t2.csv"
    dataio.write_truth(second, back)
    assert path.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("heading", ["nan", "inf", "-inf"])
def test_truth_rejects_non_finite_heading(tmp_path, heading):
    path = tmp_path / "t.csv"
    path.write_text(
        "t,x,y,heading,width,length\n0.0,1.0,2.0,0.5,15.0,30.0\n"
        f"0.05,1.0,2.0,{heading},15.0,30.0\n"
    )
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: heading must be finite"):
        dataio.read_truth(path)


@pytest.mark.parametrize("t", ["0.05", "0.02"])
def test_truth_rejects_repeated_or_decreasing_time(tmp_path, t):
    # A repeated time would otherwise match only one of its rows.
    path = tmp_path / "t.csv"
    path.write_text(
        "t,x,y,heading,width,length\n0.0,1.0,2.0,0.5,15.0,30.0\n0.05,1.0,2.0,0.5,15.0,30.0\n"
        f"{t},3.0,4.0,0.5,15.0,30.0\n"
    )
    with pytest.raises(RuntimeError, match=f"^{re.escape(str(path))}: timestamp disorder at line 4$"):
        dataio.read_truth(path)


@pytest.mark.parametrize("sigma", [1e100, 1e160])
def test_fallback_sigma_with_overflowing_determinant_rejected(tmp_path, sigma):
    # sigma^4 overflows: the fallback covariance sigma^2 * I is not usable.
    with pytest.raises(ValueError, match=r"^fallback_sigma must be positive and finite, as must sigma\^4"):
        dataio.scenario_from_dict({"fallback_sigma": sigma, "fallback_rate": 1.0})
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"fallback_sigma": sigma, "fallback_rate": 1.0}))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: fallback_sigma"):
        dataio.load_scenario(path)


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


def _away(strategy, default):
    return strategy.filter(lambda value: value != default)


def _floats(lo, hi):
    """Floats in [lo, hi], whole ones often: a config's numbers may be written as JSON ints."""
    return st.one_of(st.integers(math.ceil(lo), math.floor(hi)).map(float), st.floats(lo, hi))


@st.composite
def _camera_node(draw, node_id):
    defaults = CameraNode(node_id, (0.0, 0.0), 0.0)
    return CameraNode(
        node_id,
        (draw(_floats(-1e4, 1e4)), draw(_floats(-1e4, 1e4))),
        draw(_floats(-10.0, 10.0)),
        fov=draw(_away(_floats(0.01, 6.28), defaults.fov)),
        noise_floor=draw(_away(_floats(0.01, 100.0), defaults.noise_floor)),
        noise_slope=draw(_away(_floats(0.0, 1.0), defaults.noise_slope)),
        miscalibration=(draw(_away(_floats(0.01, 100.0), 1.0)), draw(_away(_floats(0.0, 100.0), 0.0))),
    )


@st.composite
def _scenario_configs(draw):
    """A ScenarioConfig with every field away from its default, the
    arena's and each node's too."""
    default = default_scenario()
    ids = draw(st.lists(st.text(min_size=1, max_size=4), min_size=1, max_size=4, unique=True))
    split = draw(_away(st.tuples(_floats(0.0, 0.5), _floats(0.0, 0.5)), default.split[:2]))
    return dataclasses.replace(
        default,
        arena=Arena(draw(_away(_floats(1.0, 1e4), 500.0)), draw(_away(_floats(1.0, 1e4), 700.0))),
        nodes=tuple(draw(_camera_node(node_id)) for node_id in ids),
        occluders=draw(st.lists(st.tuples(*[_floats(-1e3, 1e3)] * 4), min_size=1, max_size=3)),
        lighting="low",
        low_light_noise_multiplier=draw(_away(_floats(0.1, 10.0), default.low_light_noise_multiplier)),
        fps=draw(_away(_floats(0.1, 100.0), default.fps)),
        duration=draw(_away(_floats(0.1, 1e4), default.duration)),
        split=(*split, 1.0 - split[0] - split[1]),
        object_extent=draw(_away(st.tuples(_floats(0.1, 100.0), _floats(0.1, 100.0)), default.object_extent)),
        seed=draw(st.integers(1, 2**64)),
        fallback_rate=draw(_away(_floats(0.0, 1.0), default.fallback_rate)),
        fallback_sigma=draw(_away(_floats(0.1, 1e4), default.fallback_sigma)),
        ray_anisotropy=draw(_away(_floats(1.0, 10.0), default.ray_anisotropy)),
    )


def _ints_for_whole_floats(value):
    """A JSON value with every whole float but -0.0 (whose sign an int
    drops) written as an int."""
    if isinstance(value, dict):
        return {key: _ints_for_whole_floats(v) for key, v in value.items()}
    if isinstance(value, list):
        return [_ints_for_whole_floats(v) for v in value]
    whole = isinstance(value, float) and value.is_integer() and repr(float(int(value))) == repr(value)
    return int(value) if whole else value


@settings(max_examples=150)
@given(config=_scenario_configs())
def test_scenario_round_trips_every_field(fuzz_dir, config):
    # Every field is away from its default, so a field the writer drops or
    # the reader ignores loads unequal.
    path, second, ints = fuzz_dir / "s.json", fuzz_dir / "s2.json", fuzz_dir / "ints.json"
    dataio.write_scenario(path, config)
    back = dataio.load_scenario(path)
    assert back == config
    dataio.write_scenario(second, back)
    assert second.read_bytes() == path.read_bytes()
    ints.write_text(json.dumps(_ints_for_whole_floats(json.loads(path.read_text()))))
    from_ints = dataio.load_scenario(ints)
    assert from_ints == config
    dataio.write_scenario(second, from_ints)
    assert second.read_bytes() == path.read_bytes()


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
    with pytest.raises(ValueError, match=r"^unknown config field: arena\.hieght$"):
        dataio.scenario_from_dict({"arena": {"width": 500, "length": 700, "hieght": 3}})


@pytest.mark.parametrize("arena,missing", [({"width": 500.0}, "length"), ({"length": 700.0}, "width")])
def test_scenario_arena_needs_every_field(tmp_path, arena, missing):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"arena": arena}))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: missing field '{missing}'$"):
        dataio.load_scenario(path)


@pytest.mark.parametrize("seed", [True, "7", 1.5, -1, -1.0, None, [7]])
def test_scenario_rejects_a_seed_that_is_not_a_non_negative_integer(tmp_path, seed):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"seed": seed}))
    message = f"{path}: seed must be a non-negative integer, got {seed!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        dataio.load_scenario(path)


@pytest.mark.parametrize("seed", [7, 7.0])
def test_scenario_seed_loads_as_an_int(seed):
    config = dataio.scenario_from_dict({"seed": seed})
    assert type(config.seed) is int and config.seed == 7
    assert dataio.scenario_to_dict(config) == dataio.scenario_to_dict(default_scenario(7))


def test_scenario_node_defaults_are_camera_node_defaults():
    cfg = dataio.scenario_from_dict({"nodes": [{"id": "N1", "position": [1.0, 2.0], "facing": 0.5}]})
    assert cfg.nodes == (CameraNode("N1", np.array([1.0, 2.0]), 0.5),)


def test_filter_params_round_trip(tmp_path):
    path = tmp_path / "p.json"
    dataio.write_filter_params(path, FilterParams(55.5, init_vel_var=123.0))
    back = dataio.read_filter_params(path)
    assert back.sigma_accel == 55.5
    assert back.init_vel_var == 123.0
    # Given as ints, both are written as floats.
    dataio.write_filter_params(path, FilterParams(10, init_vel_var=5))
    assert path.read_text() == '{\n  "init_vel_var": 5.0,\n  "sigma_accel": 10.0\n}\n'


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
    assert back[0].tolist() == list(times)
    second = tmp_path / "track2.jsonl"
    dataio.write_track(second, *back)
    assert path.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("t", [0.0, -0.05])
def test_track_rejects_repeated_or_decreasing_time(tmp_path, t):
    # evaluate would otherwise score the repeated time twice.
    path = tmp_path / "track.jsonl"
    dataio.write_track(path, np.array([0.0, t]), np.zeros((2, 2)), np.tile(np.eye(2), (2, 1, 1)))
    with pytest.raises(RuntimeError, match=f"^{re.escape(str(path))}: timestamp disorder at line 2$"):
        dataio.read_track(path)


def test_report_round_trip(tmp_path):
    report = MetricReport(
        nll=5.5, opm=0.9, det_pr=0.91, loc_a=0.95,
        alpha_sweep=tuple(i / 20 for i in range(1, 20)),
    )
    path = tmp_path / "r.json"
    dataio.write_report(path, report)
    # One read gives the report and its fingerprint, the file's sha256 in 12 hex digits.
    assert dataio.read_report(path) == (report, hashlib.sha256(path.read_bytes()).hexdigest()[:12])


def test_report_row_csv(tmp_path):
    report = MetricReport(nll=5.5, opm=0.9, det_pr=0.91, loc_a=0.1 + 0.2, alpha_sweep=(0.5,))
    path = tmp_path / "row.csv"
    dataio.write_report_row(path, report)
    assert path.read_bytes() == b"nll,opm,det_pr,loc_a\r\n5.5,0.9,0.91,0.30000000000000004\r\n"


def test_histogram_output(tmp_path, monkeypatch):
    path = tmp_path / "h.csv"
    monkeypatch.setattr(dataio, "HISTOGRAM_BINS", 4)
    dataio.write_histogram(path, np.array([1.0, 1.5, 2.0, 2.5, 9.0]))
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


# ---------------------------------------------------------------------------
# Fuzzing the readers: a valid file with one line or one field corrupted must
# give a ValueError, NotPositiveDefiniteError (a ValueError) or RuntimeError
# that names the file, and for line formats the line; never KeyError,
# TypeError, IndexError or AttributeError.

_BAD_LIST = [
    "x",
    None,
    True,
    [],
    {},
    [1.0],
    math.nan,
    math.inf,
    -math.inf,
    [[1.0, 0.0], [0.0, -1.0]],  # not positive definite
    [[1e200, 0.0], [0.0, 1e200]],  # determinant overflows
    [[1.0, 2.0], [2.0, 1.0]],  # indefinite
    # Values that unpack into two or six items where a mean or a
    # covariance row is expected, and a number as a string.
    "ab",
    [1.0, 2.0, 3.0],
    [[1.0, 2.0], [3.0, 4.0]],
    "1.5",
]
_BAD_VALUES = st.sampled_from(_BAD_LIST)
_BAD_FIELDS = st.sampled_from(["x", "", "nan", "inf", "-inf", "1e999", "-1.0"])

# Chunk sizes for the readers and writers: chunks of one to three lines
# split the drawn files at every place.
_CHUNKS = st.sampled_from([1, 2, 3, dataio.CHUNK_FRAMES])

# Floors for a read or write in two ranges: at 0 a drawn file of more than
# one chunk is split on a host with two CPUs, at the default it never is.
_FLOORS = st.sampled_from([0, forking.SPLIT_BYTES])


@contextlib.contextmanager
def _chunks_and_floor(chunk, floor, **patches):
    """dataio.CHUNK_FRAMES patched to chunk, with any other patches of
    dataio, and the split floor, forking.SPLIT_BYTES, to floor."""
    with mock.patch.multiple(dataio, CHUNK_FRAMES=chunk, **patches), \
            mock.patch.object(forking, "SPLIT_BYTES", floor):
        yield


def _paths(value, prefix=()):
    """Every path (a tuple of keys and indices) into a JSON value."""
    yield prefix
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield from _paths(child, prefix + (key,))


def _corrupt_json(data, value):
    """value with one item dropped or replaced by a bad value."""
    kind = data.draw(st.sampled_from(["drop", "replace"]))
    paths = [p for p in _paths(value) if p or kind == "replace"]
    path = data.draw(st.sampled_from(paths))
    if not path:
        return data.draw(_BAD_VALUES)
    value = copy.deepcopy(value)
    parent = value
    for key in path[:-1]:
        parent = parent[key]
    if kind == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(_BAD_VALUES)
    return value


def _truncate(data, line):
    return line[: data.draw(st.integers(0, len(line) - 1))]


def _read_located(read, path, lines=None):
    """Call read(path); an error must name path and, for a line format, a
    line in lines (a ValueError names exactly the corrupted line)."""
    try:
        read(path)
    except (ValueError, RuntimeError) as exc:
        message = str(exc)
        assert message.startswith(f"{path}:"), message
        if lines is not None:
            found = re.match(rf"{re.escape(str(path))}:(\d+): ", message) or re.search(
                r"at line (\d+)", message
            )
            assert found, message
            line = int(found.group(1))
            if isinstance(exc, RuntimeError):
                assert lines[0] <= line <= lines[-1] + 1, message
            else:
                assert line == lines[0], message


def _fuzz_jsonl(data, path, records, read):
    lines = [json.dumps(rec) for rec in records]
    k = data.draw(st.integers(0, len(records) - 1))
    kind = data.draw(st.sampled_from(["field", "truncate", "swap"]))
    corrupted = [k + 1]
    if kind == "field":
        lines[k] = json.dumps(_corrupt_json(data, records[k]))
    elif kind == "truncate":
        lines[k] = _truncate(data, lines[k])
    else:
        j = data.draw(st.integers(0, len(records) - 1).filter(lambda j: j != k))
        swapped = [copy.deepcopy(rec) for rec in records]
        swapped[k]["t"], swapped[j]["t"] = records[j]["t"], records[k]["t"]
        lines = [json.dumps(rec) for rec in swapped]
        corrupted = sorted([k + 1, j + 1])
    path.write_text("\n".join(lines) + "\n")
    _read_located(read, path, corrupted)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


_FUZZ_DET = {"view": "N1", "mean": [10.0, 20.0], "cov": [[4.0, 1.0], [1.0, 9.0]]}
_FUZZ_FRAMES = [
    {"t": 0.0, "detections": [_FUZZ_DET, dict(_FUZZ_DET, view="N2")]},
    {"t": 0.05, "detections": [_FUZZ_DET]},
    {"t": 0.1, "detections": [dict(_FUZZ_DET, view="N2")]},
    {"t": 0.15, "detections": [_FUZZ_DET, dict(_FUZZ_DET, view="N2")]},
]


@settings(max_examples=300)
@given(data=st.data())
def test_fuzz_read_detections(fuzz_dir, data):
    _fuzz_jsonl(data, fuzz_dir / "d.jsonl", _FUZZ_FRAMES, dataio.read_detections)


@settings(max_examples=200)
@given(data=st.data())
def test_fuzz_read_track(fuzz_dir, data):
    steps = [{"t": f["t"], "mean": _FUZZ_DET["mean"], "cov": _FUZZ_DET["cov"]} for f in _FUZZ_FRAMES]
    _fuzz_jsonl(data, fuzz_dir / "track.jsonl", steps, dataio.read_track)


@settings(max_examples=200)
@given(data=st.data(), chunk=_CHUNKS)
def test_fuzz_read_truth(fuzz_dir, data, chunk):
    path = fuzz_dir / "t.csv"
    rows = [list(dataio.TRUTH_HEADER)] + [
        [repr(0.05 * k), "100.0", "200.0", "0.5", "15.0", "30.0"] for k in range(4)
    ]
    k = data.draw(st.integers(0, len(rows) - 1))
    kind = data.draw(st.sampled_from(["drop", "replace", "truncate", "swap"]))
    corrupted = [k + 1]
    if kind == "drop":
        del rows[k][data.draw(st.integers(0, len(rows[k]) - 1))]
    elif kind == "replace":
        rows[k][data.draw(st.integers(0, len(rows[k]) - 1))] = data.draw(_BAD_FIELDS)
    elif kind == "swap" and k > 0:
        j = data.draw(st.integers(1, len(rows) - 1).filter(lambda j: j != k))
        rows[k][0], rows[j][0] = rows[j][0], rows[k][0]
        corrupted = sorted([k + 1, j + 1])
    lines = [",".join(row) for row in rows]
    if kind == "truncate":
        lines[k] = _truncate(data, lines[k])
    path.write_text("\n".join(lines) + "\n")
    with mock.patch.object(dataio, "CHUNK_FRAMES", chunk):
        _read_located(dataio.read_truth, path, corrupted)
        _assert_reads_as_truth_rows(path)


@settings(max_examples=300)
@given(data=st.data())
def test_fuzz_load_scenario(fuzz_dir, data):
    path = fuzz_dir / "s.json"
    config = dataio.scenario_to_dict(
        dataclasses.replace(default_scenario(seed=3), occluders=((10.0, 10.0, 50.0, 60.0),))
    )
    text = json.dumps(config)
    if data.draw(st.booleans()):
        text = _truncate(data, text)
    else:
        text = json.dumps(_corrupt_json(data, config))
    path.write_text(text)
    _read_located(dataio.load_scenario, path)


def _numeric_fields(value, prefix=()):
    """Every path to a number in a JSON value."""
    return [
        path
        for path in _paths(value, prefix)
        if isinstance(_at(value, path), float) or type(_at(value, path)) is int
    ]


def _at(value, path):
    for key in path:
        value = value[key]
    return value


def _with(value, path, new):
    value = copy.deepcopy(value)
    _at(value, path[:-1])[path[-1]] = new
    return value


# The default scenario plus an occluder: a config with every numeric field.
_SCENARIO = dataio.scenario_to_dict(
    dataclasses.replace(default_scenario(seed=3), occluders=((10.0, 10.0, 50.0, 60.0),))
)
# One node stands for all: every node is checked the same way.
_SCENARIO_FIELDS = [
    path
    for path in _numeric_fields(_SCENARIO)
    if path[0] != "nodes" or path[1] == 0
]


@pytest.mark.parametrize(
    "path", _SCENARIO_FIELDS, ids=[".".join(map(str, p)) for p in _SCENARIO_FIELDS]
)
def test_scenario_rejects_non_finite_values(tmp_path, path):
    # Loading only: a config is never simulated here, whatever its duration.
    config_path = tmp_path / "s.json"
    for value in (math.nan, math.inf, -math.inf):
        data = _with(_SCENARIO, path, value)
        with pytest.raises((ValueError, OverflowError)):
            dataio.scenario_from_dict(data)
        config_path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=f"^{re.escape(str(config_path))}: "):
            dataio.load_scenario(config_path)


def test_scenario_rejects_non_positive_object_extent():
    with pytest.raises(ValueError, match="object_extent must be positive"):
        dataio.scenario_from_dict({"object_extent": [15.0, -1.0]})


# ---------------------------------------------------------------------------
# The array reader against its object oracle (conftest.read_detection_frames):
# the same arrays, bit for bit, for any valid file, and the same error for any
# file with one corrupted record.

_FINITE = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
_NUMBER = st.one_of(_FINITE, st.integers(-1000, 1000))


@st.composite
def _detection(draw, view):
    sd = draw(st.tuples(st.floats(0.1, 100.0), st.floats(0.1, 100.0)))
    rho = draw(st.floats(-0.95, 0.95))
    off = rho * sd[0] * sd[1]
    # cov[1][0] is ignored by the reader, so it need not match cov[0][1].
    lower = draw(st.one_of(st.just(off), _NUMBER))
    return {
        "view": view,
        "mean": [draw(_NUMBER), draw(_NUMBER)],
        "cov": [[sd[0] ** 2, off], [lower, sd[1] ** 2]],
    }


@st.composite
def _detection_records(draw):
    """Valid records: 1-4 views, each line's views in any order, empty
    frames (leading ones too) and at least one detection."""
    views = draw(st.lists(st.sampled_from(["N1", "N2", "cam 3", "Ω"]), min_size=1, max_size=4, unique=True))
    n = draw(st.integers(1, 8))
    t = draw(_FINITE)
    records = []
    for _ in range(n):
        line_views = draw(st.lists(st.sampled_from(views), max_size=len(views), unique=True))
        records.append({"t": t, "detections": [draw(_detection(v)) for v in line_views]})
        t += draw(st.floats(1e-3, 10.0))
    if not any(rec["detections"] for rec in records):
        records[-1]["detections"] = [draw(_detection(views[0]))]
    return records


def _write_lines(data, path, lines):
    """Write lines with blank lines drawn in between."""
    text = ""
    for line in lines:
        text += data.draw(st.sampled_from(["", "\n", "  \n"])) + line + "\n"
    path.write_text(text)


def _outcome(read, path):
    try:
        return read(path)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


def _assert_same_batch(batch, expected):
    assert len(batch) == len(expected.t[0])
    assert batch.views == expected.views
    for name in ("t", "mean", "cov", "mask"):
        a, b = getattr(batch, name), getattr(expected, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


@settings(max_examples=200)
@given(data=st.data(), records=_detection_records())
def test_read_detections_matches_object_oracle(fuzz_dir, data, records):
    path = fuzz_dir / "valid.jsonl"
    _write_lines(data, path, [json.dumps(rec) for rec in records])
    _assert_same_batch(dataio.read_detections(path), pack([read_detection_frames(path)]))


_BAD_VIEWS = st.sampled_from([None, 3, 2.5, True, [], {}, ["N1"]])


def _corrupt_record(data, records):
    """The lines of records with one of them corrupted."""
    k = data.draw(st.integers(0, len(records) - 1))
    lines = [json.dumps(rec) for rec in records]
    kind = data.draw(st.sampled_from(["field", "truncate", "view", "duplicate", "t"]))
    rec = copy.deepcopy(records[k])
    if kind == "field":
        lines[k] = json.dumps(_corrupt_json(data, rec))
    elif kind == "truncate":
        lines[k] = _truncate(data, lines[k])
    elif kind in ("view", "duplicate") and rec["detections"]:
        i = data.draw(st.integers(0, len(rec["detections"]) - 1))
        if kind == "view":
            rec["detections"][i]["view"] = data.draw(_BAD_VIEWS)
        else:
            rec["detections"].append(copy.deepcopy(rec["detections"][i]))
        lines[k] = json.dumps(rec)
    else:
        rec["t"] = data.draw(st.sampled_from([math.nan, math.inf, -1e9, rec["t"] - 1e-3]))
        lines[k] = json.dumps(rec)
    return lines


@settings(max_examples=400)
@given(data=st.data(), records=_detection_records(), chunk=_CHUNKS, floor=_FLOORS)
def test_read_detections_corrupted_record_matches_object_oracle(fuzz_dir, data, records, chunk, floor):
    path = fuzz_dir / "corrupt.jsonl"
    _write_lines(data, path, _corrupt_record(data, records))
    with _chunks_and_floor(chunk, floor):
        got = _outcome(dataio.read_detections, path)
    want = _outcome(lambda p: pack([read_detection_frames(p)]), path)
    if isinstance(want, tuple):
        assert got == want
    else:
        _assert_same_batch(got, want)


_DROP = object()


def _assert_bulk_declines_or_matches(path, frames=True):
    """Check each chunk of path's lines, as read_detections (read_track, if
    not frames) splits them, with the bulk check and the record parse, on
    the same lines, views and time before: the bulk check must decline, or
    give the arrays that the record parse gives. True if it took every
    chunk up to the first that the record parse rejects."""
    with open(path, "rb") as fh:
        lines = fh.readlines()
    views, after, taken = {}, -math.inf, True
    for lo in range(0, len(lines), dataio.CHUNK_FRAMES):
        block = lines[lo : lo + dataio.CHUNK_FRAMES]
        bulk = dataio._bulk_chunk(block, frames, views, after)
        with mock.patch.object(dataio, "_bulk_chunk", return_value=None):
            record = _outcome(lambda p: dataio._jsonl_chunk(frames, views, p, block, lo + 1, after), path)
        if bulk is not None:
            _assert_same_arrays(bulk, record)
        taken = taken and bulk is not None
        if isinstance(record[0], type):
            break
        after = record[0][-1] if len(record[0]) else after
    return taken


@settings(max_examples=100)
@given(data=st.data(), records=_detection_records(), chunk=_CHUNKS)
def test_bulk_reader_declines_or_matches_records(fuzz_dir, data, records, chunk):
    # The bulk check unpacks each detection into six flat numbers; it must
    # take every chunk of a valid file, and whatever else it takes it must
    # read as the record parse does: here after one random corruption, and
    # after each bad value or drop at each place in one detection.
    with mock.patch.object(dataio, "CHUNK_FRAMES", chunk):
        _bulk_reader_declines_or_matches_records(fuzz_dir, data, records)


def _bulk_reader_declines_or_matches_records(fuzz_dir, data, records):
    path = fuzz_dir / "bulk.jsonl"
    _write_lines(data, path, [json.dumps(rec) for rec in records])
    assert _assert_bulk_declines_or_matches(path)
    kinds = _write_decorated(data, path, records)
    assert _assert_bulk_declines_or_matches(path) or not kinds <= {None, "crlf"}
    _write_lines(data, path, _corrupt_record(data, records))
    _assert_bulk_declines_or_matches(path)
    k = data.draw(st.sampled_from([k for k, rec in enumerate(records) if rec["detections"]]))
    i = data.draw(st.integers(0, len(records[k]["detections"]) - 1))
    for place in _paths(records[k]["detections"][i], ("detections", i)):
        for value in [_DROP, *_BAD_LIST]:
            rec = copy.deepcopy(records[k])
            parent = _at(rec, place[:-1])
            if value is _DROP:
                del parent[place[-1]]
            else:
                parent[place[-1]] = value
            lines = [json.dumps(r) for r in records]
            lines[k] = json.dumps(rec)
            path.write_text("\n".join(lines) + "\n")
            _assert_bulk_declines_or_matches(path)


# How a line of records may be decorated, as bytes: a CRLF line end, which
# the bulk check takes; and spaces or tabs before the record or after it, a
# UTF-8 BOM, bytes that are not UTF-8, an encoded surrogate (which json.loads
# decodes), a number spelt NaN or Infinity, and a second value on the line.
_DECORATIONS = [None, "crlf", "lead", "trail", "bom", "invalid", "surrogate", "nonfinite", "second"]


def _write_decorated(data, path, records) -> set:
    """Write records a line each, each line with a drawn decoration; the
    decorations drawn."""
    kinds, lines = set(), []
    for rec in records:
        kind = data.draw(st.sampled_from(_DECORATIONS))
        kinds.add(kind)
        if kind == "nonfinite":
            place = data.draw(st.sampled_from(_numeric_fields(rec)))
            rec = _with(rec, place, data.draw(st.sampled_from([math.nan, math.inf, -math.inf])))
        line = json.dumps(rec).encode()
        if kind == "lead":
            line = data.draw(st.sampled_from([b" ", b"\t", b"  \t"])) + line
        elif kind in ("invalid", "surrogate"):
            line = b'{"note":"%s",' % (b"\xff" if kind == "invalid" else b"\xed\xa0\x80") + line[1:]
        elif kind == "bom":
            line = b"\xef\xbb\xbf" + line
        else:
            line += {"crlf": b"\r", "trail": b" \t\r", "second": b" " + line}.get(kind, b"")
        lines.append(line + b"\n")
    path.write_bytes(b"".join(lines))
    return kinds


_TRACK_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([-0.0, 5e-324, 1e16, 1e300, math.nan, math.inf, -math.inf]),
)


@settings(max_examples=200)
@given(data=st.data(), n=st.integers(0, 6), chunk=_CHUNKS, floor=_FLOORS)
def test_write_track_matches_per_step_dumps(fuzz_dir, data, n, chunk, floor):
    # Chunks of one or two steps mix chunks with and without NaN and inf,
    # which dumps spells NaN, Infinity and -Infinity; at floor 0 the steps
    # from the chunk boundary nearest n / 2 are spelt by a forked child.
    steps = np.array(data.draw(st.lists(_TRACK_FLOATS, min_size=7 * n, max_size=7 * n)))
    times, means, covs = steps[:n], steps[n : 3 * n].reshape(n, 2), steps[3 * n :].reshape(n, 2, 2)
    oracle_write_track(fuzz_dir / "oracle.jsonl", times, means, covs)
    expected = (fuzz_dir / "oracle.jsonl").read_bytes()
    path = fuzz_dir / "track.jsonl"
    with _chunks_and_floor(chunk, floor):
        dataio.write_track(path, times, means, covs)
        assert path.read_bytes() == expected
        dataio.write_track(path, times.tolist(), list(means), [c.tolist() for c in covs])
        assert path.read_bytes() == expected


@settings(max_examples=100)
@given(data=st.data(), n=st.integers(0, 7), chunk=_CHUNKS)
def test_write_detections_matches_per_frame_dumps(fuzz_dir, data, n, chunk):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    ids = st.sampled_from(["N1", "N2", "cam 3", "Ω"])
    views = data.draw(st.lists(ids, min_size=1, max_size=4, unique=True))
    mask = rng.random((1, n, len(views))) < 0.7
    root = rng.standard_normal((1, n, len(views), 2, 2))
    cov = root @ np.swapaxes(root, -1, -2) + 0.1 * np.eye(2)
    batch = FrameBatch(tuple(views), np.cumsum(rng.uniform(0.01, 1.0, (1, n)), axis=1),
                       rng.uniform(-1e3, 1e3, (1, n, len(views), 2)), cov, mask)
    oracle_write_detections(fuzz_dir / "oracle.jsonl", batch_frames(batch))
    path = fuzz_dir / "detections.jsonl"
    with mock.patch.object(dataio, "CHUNK_FRAMES", chunk):
        dataio.write_detections(path, batch)
    assert path.read_bytes() == (fuzz_dir / "oracle.jsonl").read_bytes()


# NaNs with other payloads and signs than np.nan's; each is spelt nan.
_NANS = [np.frombuffer(np.uint64(bits).tobytes())[0].item()
         for bits in (0x7FF8000000000001, 0xFFF8000000000000, 0x7FF0000000000001, 0x7FFFFFFFFFFFFFFF)]
_SPECIAL = st.sampled_from([0.0, -0.0, 1.0, -2.5, 5e-324, 1e16, math.inf, -math.inf, math.nan, *_NANS])


@st.composite
def _columns(draw, n, k, values):
    """An (n, k) table drawn from values, a column at a time. A column may
    repeat an earlier one's bits, or its values with each zero's sign
    flipped: equal values that a writer must still spell apart."""
    columns = []
    for _ in range(k):
        how = draw(st.sampled_from(["new", "repeat", "flip"])) if columns else "new"
        if how == "new":
            column = np.array(draw(st.lists(values, min_size=n, max_size=n)), dtype=float)
        else:
            column = columns[draw(st.integers(0, len(columns) - 1))].copy()
            if how == "flip":
                column[column == 0.0] *= -1.0
        columns.append(column)
    return np.column_stack(columns).reshape(n, k)


_MIXED = st.one_of(_SPECIAL, _TRACK_FLOATS)
_ROW_TEMPLATES = st.sampled_from(["%r,%d,%r,%d\n", "%d,%r,%r,%r\r\n", "%r;%r;%r;%r\n", "<%d|%d|%d|%d>"])


@settings(max_examples=200)
@given(data=st.data(), n=st.integers(0, 6), row=_ROW_TEMPLATES, chunk=_CHUNKS)
def test_write_rows_matches_per_row_formatting(fuzz_dir, data, n, row, chunk):
    # A %d column shares no strings with a %r column of the same bits; %d
    # columns hold finite values, which %d takes.
    table = data.draw(_columns(n, 4, st.one_of(_SPECIAL, _FINITE)))
    spelt_d = np.array([spec == "%d" for spec in re.findall("%[rd]", row)])
    table[:, spelt_d] = np.where(np.isfinite(table[:, spelt_d]), table[:, spelt_d], 7.0)
    path = fuzz_dir / "rows.csv"
    with mock.patch.object(dataio, "CHUNK_FRAMES", chunk):
        dataio._write_rows(path, "head\n", row, table)
    with open(path, newline="") as fh:
        assert fh.read() == "head\n" + "".join(row % tuple(r) for r in table.tolist())


@settings(max_examples=150)
@given(data=st.data(), n=st.integers(0, 6), chunk=_CHUNKS)
def test_writers_spell_repeated_and_signed_columns_as_the_oracles(fuzz_dir, data, n, chunk):
    # Tables whose columns repeat one another's bits, differ from one
    # another only in a zero's sign, or hold NaNs of several payloads and
    # infinities, through write_track, write_plot_data and write_truth; and
    # symmetric covariances, isotropic ones and signed zero means through
    # write_detections. Each writes what its per-row oracle writes.
    steps = data.draw(_columns(n, 7, _MIXED))
    table = data.draw(_columns(n, 6, _MIXED))
    rows = data.draw(_columns(n, 5, _MIXED))
    variances = data.draw(_columns(n, 2, st.floats(0.5, 100.0)))
    rho = data.draw(_columns(n, 1, st.sampled_from([0.0, -0.0, 0.5, -0.9])))[:, 0]
    off = rho * np.sqrt(variances[:, 0] * variances[:, 1])
    covs = np.stack([variances[:, 0], off, off, variances[:, 1]], axis=1).reshape(n, 2, 2)
    means = data.draw(_columns(n, 2, st.one_of(_SPECIAL, _FINITE).filter(math.isfinite)))
    views = ("N1", "N2")
    batch = FrameBatch(views, np.arange(n // 2, dtype=float)[None] - 1.0, means[: n // 2 * 2].reshape(1, -1, 2, 2),
                       covs[: n // 2 * 2].reshape(1, -1, 2, 2, 2), np.ones((1, n // 2, 2), dtype=bool))
    truth = Trajectory(table[:, 0], table[:, 1:3], table[:, 3], table[:, 4:])
    samples = [(t, SimpleNamespace(position=p, heading=h, extent=e))
               for t, p, h, e in zip(truth.times, truth.positions, truth.headings, truth.extent)]
    with mock.patch.object(dataio, "CHUNK_FRAMES", chunk):
        for write, oracle, args in [
            (dataio.write_track, oracle_write_track, (steps[:, 0], steps[:, 1:3], steps[:, 3:].reshape(n, 2, 2))),
            (dataio.write_plot_data, oracle_write_plot_data, (rows[:, 0], rows[:, 1:3], covs, rows[:, 3:])),
            (dataio.write_plot_data, oracle_write_plot_data, (rows[:, 0], rows[:, 1:3], covs, None)),
        ]:
            write(fuzz_dir / "got", *args)
            oracle(fuzz_dir / "want", *args)
            assert (fuzz_dir / "got").read_bytes() == (fuzz_dir / "want").read_bytes(), write.__name__
        dataio.write_truth(fuzz_dir / "got", truth)
        oracle_write_truth(fuzz_dir / "want", samples)
        assert (fuzz_dir / "got").read_bytes() == (fuzz_dir / "want").read_bytes()
        dataio.write_detections(fuzz_dir / "got", batch)
        oracle_write_detections(fuzz_dir / "want", batch_frames(batch))
        assert (fuzz_dir / "got").read_bytes() == (fuzz_dir / "want").read_bytes()


def _three_chunks(chunk, frames):
    """The records of three chunks of 8-view frames (or track steps)."""
    records = []
    for k in range(3 * chunk):
        dets = [{"view": f"N{j}", "mean": [k, j], "cov": [[4.0, 1.0], [1.0, 9.0]]} for j in range(1, 9)]
        records.append({"t": 0.05 * k, "detections": dets} if frames else {"t": 0.05 * k, **dets[0]})
    return records


def _later_chunk_file(path, chunk, kind, frames):
    """A file of three chunks of frames (or track steps) with the second
    line of the third chunk corrupted (for "disorder", the first line, at the
    time of the line before it); the corrupted line's number."""
    line = 2 * chunk + (1 if kind == "disorder" else 2)
    records = _three_chunks(chunk, frames)
    bad = records[line - 1]
    gaussian = bad["detections"][3] if frames else bad
    if kind == "disorder":
        bad["t"] = records[line - 2]["t"]
    elif kind == "cov":
        gaussian["cov"] = [[4.0, 5.0], [5.0, 4.0]]
    elif kind == "view":
        gaussian["view"] = 3
    lines = [json.dumps(rec) for rec in records]
    if kind == "truncate":
        lines[line - 1] = lines[line - 1][:-5]
    path.write_text("\n".join(lines) + "\n")
    return line


_LATER_CHUNK_ERRORS = {
    "disorder": (RuntimeError, "{path}: timestamp disorder at line {line}"),
    "cov": (NotPositiveDefiniteError, "{path}:{line}: matrix is not positive definite"),
    "view": (ValueError, "{path}:{line}: view id must be a string"),
    "truncate": (ValueError, "{path}:{line}: invalid JSON"),
}


def _declined_chunks(read, path, bulk="_bulk_chunk") -> int:
    """Call read(path); the number of chunks that its bulk check, dataio's
    function named bulk, declined, so that they were parsed line by line."""
    check, declined = getattr(dataio, bulk), []

    def spy(*args):
        chunk = check(*args)
        declined.append(chunk is None)
        return chunk

    with mock.patch.object(dataio, bulk, spy):
        _outcome(read, path)
    return sum(declined)


@pytest.mark.parametrize("chunk", [3, dataio.CHUNK_FRAMES])
@pytest.mark.parametrize(
    "kind,frames",
    # Track steps carry no view id.
    [(kind, frames) for kind in sorted(_LATER_CHUNK_ERRORS) for frames in (True, False)
     if frames or kind != "view"],
)
def test_corruption_in_a_later_chunk_names_its_line(tmp_path, chunk, kind, frames):
    # Earlier chunks pass their checks; the third chunk's failure, or the
    # disorder across the boundary before it, must make the bulk check
    # decline that chunk alone, and its record parse name the line.
    path = tmp_path / "later.jsonl"
    read = dataio.read_detections if frames else dataio.read_track
    with mock.patch.object(dataio, "CHUNK_FRAMES", chunk):
        line = _later_chunk_file(path, chunk, kind, frames)
        error, message = _LATER_CHUNK_ERRORS[kind]
        with pytest.raises(error, match="^" + re.escape(message.format(path=path, line=line))):
            read(path)
        assert _declined_chunks(read, path) == 1


@pytest.mark.parametrize("chunk", [3, dataio.CHUNK_FRAMES])
@pytest.mark.parametrize("frames", [True, False])
def test_odd_line_in_a_middle_chunk_reads_as_records(tmp_path, chunk, frames):
    # A mean spelt as strings, in the second of three chunks: the bulk check
    # declines that chunk alone, and the file reads as the object oracle
    # (for a track, the record parse of every chunk) reads it.
    path = tmp_path / "odd.jsonl"
    records = _three_chunks(chunk, frames)
    gaussian = records[chunk + 1]["detections"][3] if frames else records[chunk + 1]
    gaussian["mean"] = [str(v) for v in gaussian["mean"]]
    path.write_text("".join(json.dumps(rec) + "\n" for rec in records))
    read = dataio.read_detections if frames else dataio.read_track
    with mock.patch.object(dataio, "CHUNK_FRAMES", chunk):
        if frames:
            _assert_same_batch(read(path), pack([read_detection_frames(path)]))
        else:
            _assert_same_arrays(read(path), _read_track_records(path))
        assert _declined_chunks(read, path) == 1


# A bound on the traced peak memory of read_detections and write_detections,
# as a multiple of the nbytes of the FrameBatch arrays read or written. On
# 8-view files of 4000 and 16,000 frames it measured 2.3 (read) and at most
# 1.8 (write). Parsing a whole file into one float list, and formatting
# 4096-frame chunks, measured 6.4 (read) and 3.6 to 10.9 (write).
MEMORY_FACTOR = 3


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _eight_view_batch(n):
    """A one-window batch of n frames of 8 views, 90% present; and the
    nbytes of its arrays."""
    rng = np.random.default_rng(n)
    mask = rng.random((1, n, 8)) < 0.9
    mean = np.where(mask[..., None], rng.uniform(0.0, 500.0, (1, n, 8, 2)), 0.0)
    cov = np.where(mask, rng.uniform(1.0, 50.0, (1, n, 8)), 1.0)[..., None, None] * np.eye(2)
    batch = FrameBatch(tuple(f"N{j}" for j in range(1, 9)), 0.05 * np.arange(n)[None], mean, cov, mask)
    return batch, sum(a.nbytes for a in (batch.t, batch.mean, batch.cov, batch.mask))


@pytest.mark.parametrize("n", [4000, 16000])
def test_detection_io_memory_scales_with_the_arrays(tmp_path, n):
    batch, nbytes = _eight_view_batch(n)
    path = tmp_path / "d.jsonl"
    assert _traced_peak(lambda: dataio.write_detections(path, batch)) <= MEMORY_FACTOR * nbytes
    assert _traced_peak(lambda: dataio.read_detections(path)) <= MEMORY_FACTOR * nbytes
    _assert_same_batch(dataio.read_detections(path), batch)


@pytest.mark.parametrize("last", ["odd", "bad"])
def test_detection_reading_memory_bounded_on_odd_and_bad_files(tmp_path, last):
    # A last line with a mean spelt as strings, which the bulk check
    # declines, or with a null time: only the last chunk is parsed record by
    # record, so the traced peak stays within the bound of a valid file's.
    # Reading such a file again from its first line measured 11.4 (odd) and
    # 8.8 (bad).
    n = 4000
    batch, nbytes = _eight_view_batch(n)
    path = tmp_path / "d.jsonl"
    dataio.write_detections(path, batch)
    lines = path.read_text().splitlines()
    rec = json.loads(lines[-1])
    if last == "odd":
        rec["detections"][0]["mean"] = [str(v) for v in rec["detections"][0]["mean"]]
    else:
        rec["t"] = None
    path.write_text("\n".join([*lines[:-1], json.dumps(rec)]) + "\n")
    assert _traced_peak(lambda: _outcome(dataio.read_detections, path)) <= MEMORY_FACTOR * nbytes
    got, want = _outcome(dataio.read_detections, path), _outcome(lambda p: pack([read_detection_frames(p)]), path)
    if last == "odd":
        _assert_same_batch(got, want)
        _assert_same_batch(got, batch)
    else:
        assert got == want
        assert want[1].startswith(f"{path}:{n}: ")


# ---------------------------------------------------------------------------
# Reading a JSONL file in two ranges: a forked child parses the lines after
# the first line that ends at or after the file's byte midpoint, while this
# process parses the lines before them. Every read must give the one-pass
# read's arrays or exactly its error, and leave no child and no file
# descriptor behind. Two CPUs are patched in, and SPLIT_BYTES patched to 0
# (but where a test says otherwise), so the split runs on any host and any
# file. The fork protocol's own checks (one CPU, another thread) are
# tests/test_forking.py's; those here check that a read or write whose fork
# or temporary file fails still comes out as in one pass.

def _split_line(k, views=("N1", "N2")):
    """Frame k (0 <= k < 900) as one line of a fixed width for its views."""
    dets = [{"view": v, "mean": [100.0 + k, 200.0], "cov": [[4.0, 1.0], [1.0, 9.0]]} for v in views]
    return json.dumps({"t": 1000.0 + k, "detections": dets})


def _child_first_line(path) -> int | None:
    """The number of the first line the child reads; None if its range holds
    less than the patched SPLIT_BYTES (and 1) or the file is not a regular
    file, so that the file is read in one pass."""
    with open(path, "rb") as fh:
        split, work = dataio._second_range(fh)
        if split is None or work < max(forking.SPLIT_BYTES, 1):
            return None
        return len(list(dataio._lines_to(fh, split))) + 1


def _read_counting_forks(read, path, cpus=(0, 1)):
    """read(path)'s outcome on the given CPUs and how many children it
    forked; it must leave no child and no file descriptor behind."""
    fds = open_fds()
    with mock.patch.object(os, "sched_getaffinity", return_value=set(cpus)), \
            mock.patch.object(os, "fork", wraps=os.fork) as fork:
        got = _outcome(read, path)
    assert_no_child()
    assert open_fds() == fds
    return got, fork.call_count


def _assert_same_outcome(got, want):
    if isinstance(want, tuple) and isinstance(want[0], type):
        assert got == want
    elif isinstance(want, FrameBatch):
        _assert_same_batch(got, want)
    else:
        _assert_same_arrays(got, want)


def _assert_split_reads_as_one_pass(path, frames=True, forks=1):
    """The split read (forking forks children) gives the one-pass read's
    outcome, and for detections the object oracle's."""
    read = dataio.read_detections if frames else dataio.read_track
    got, forked = _read_counting_forks(read, path)
    want, one_pass_forks = _read_counting_forks(read, path, cpus=(0,))
    assert (forked, one_pass_forks) == (forks, 0)
    _assert_same_outcome(got, want)
    if frames:
        _assert_same_outcome(got, _outcome(lambda p: pack([read_detection_frames(p)]), path))
    return got


@fork_only
@pytest.mark.parametrize("n", [9, 10])
def test_split_after_the_line_that_ends_at_or_after_the_midpoint(tmp_path, n):
    # Equal lines of w bytes. For n = 9 the midpoint 4.5 w falls inside line
    # 5; for n = 10 it is 5 w, the end of line 5 and the start of line 6.
    # Either way the child starts at line 6.
    path = tmp_path / "d.jsonl"
    path.write_text("".join(_split_line(k) + "\n" for k in range(n)))
    with _chunks_and_floor(2, 0):
        assert _child_first_line(path) == 6
        batch = _assert_split_reads_as_one_pass(path)
    assert len(batch) == n


@fork_only
@pytest.mark.parametrize("n,child_first_line", [(4, None), (6, None), (7, None), (8, 5), (9, 6)])
def test_a_childs_range_under_the_floor_reads_in_one_pass(tmp_path, n, child_first_line):
    # Equal lines, and the floor at four lines' bytes: the child's range
    # holds the n // 2 lines after the midpoint's line, so a file of fewer
    # than eight lines reads in one pass.
    path = tmp_path / "d.jsonl"
    path.write_text("".join(_split_line(k) + "\n" for k in range(n)))
    with _chunks_and_floor(2, 4 * len(_split_line(0) + "\n")):
        assert _child_first_line(path) == child_first_line
        _assert_split_reads_as_one_pass(path, forks=int(child_first_line is not None))


# Corruptions of a _split_line that keep its length, and so the split.
_NEAR_SPLIT = {
    "truncate": lambda line: line[:-3] + "   ",
    "cov": lambda line: line.replace("[[4.0, 1.0], [1.0, 9.0]]", "[[4.0, 5.0], [5.0, 4.0]]", 1),
    "view": lambda line: line.replace('"N2"', "3   "),
    "null t": lambda line: re.sub(r'"t": [0-9.]+', '"t":   null', line),
    "odd": lambda line: line.replace("200.0]", '"200"]', 1),
    "disorder": None,
}


@fork_only
@pytest.mark.parametrize("line", [5, 6, 7, 8])
@pytest.mark.parametrize("kind", sorted(_NEAR_SPLIT))
def test_a_line_near_the_split_reads_as_in_one_pass(tmp_path, kind, line):
    # Twelve lines: 5 and 6 end the parent's range, 7 and 8 start the
    # child's. A bad line in the child's range fails the child, and the
    # parent reads that range again from line 7, so the error is the
    # one-pass read's; an odd but valid line (a number spelt as a string)
    # reads the same.
    lines = [_split_line(k) for k in range(12)]
    if kind == "disorder":
        lines[line - 1] = _split_line(line - 2)
    else:
        lines[line - 1] = _NEAR_SPLIT[kind](lines[line - 1])
    path = tmp_path / "d.jsonl"
    path.write_text("".join(text + "\n" for text in lines))
    with _chunks_and_floor(2, 0):
        assert _child_first_line(path) == 7
        got = _assert_split_reads_as_one_pass(path)
    if kind != "odd":
        assert re.search(rf"^{re.escape(str(path))}(:{line}: |: timestamp disorder at line {line}$)", got[1]), got


@fork_only
@pytest.mark.parametrize("gap", ["", "\n", " \r\n\n"])
def test_disorder_across_the_split_names_the_childs_first_record(tmp_path, gap):
    # The child's range is in order on its own; only the join shows that
    # its first record (after any blank lines) does not follow line 5.
    lines = [_split_line(k) + "\n" for k in range(10)]
    lines[5] = gap + _split_line(4) + "\n"
    path = tmp_path / "d.jsonl"
    path.write_text("".join(lines))
    with _chunks_and_floor(2, 0):
        first = _child_first_line(path)
        assert 6 <= first <= 6 + gap.count("\n")
        got = _assert_split_reads_as_one_pass(path)
    assert got == (RuntimeError, f"{path}: timestamp disorder at line {6 + gap.count(chr(10))}")


@fork_only
@pytest.mark.parametrize("ending", ["\n", "\r\n"])
@pytest.mark.parametrize("blank", ["", "\n", "  \r\n", "\t\n\n"])
def test_blank_and_crlf_lines_at_the_split(tmp_path, ending, blank):
    lines = [_split_line(k) + ending for k in range(10)]
    lines[4] += blank
    lines[5] = blank + lines[5]
    path = tmp_path / "d.jsonl"
    path.write_text("".join(lines), newline="")
    with _chunks_and_floor(2, 0):
        first = _child_first_line(path)
        assert 6 <= first <= 6 + 2 * blank.count("\n")
        batch = _assert_split_reads_as_one_pass(path)
    assert len(batch) == 10


@fork_only
def test_a_view_first_seen_in_the_childs_range(tmp_path):
    # The child numbers the views of its range afresh, "N1" and "A0" after
    # "N3" and "N2", as the parent numbers "N4" (line 4) after them: the
    # parent maps the child's columns onto its own, and the batch sorts them.
    lines = [_split_line(k, ("N3", "N4") if k == 3 else ("N3", "N2")) for k in range(8)]
    lines += [_split_line(k, ("N2", "N1", "A0")) for k in range(8, 10)]
    path = tmp_path / "d.jsonl"
    path.write_text("".join(text + "\n" for text in lines))
    with _chunks_and_floor(2, 0):
        assert 4 < _child_first_line(path) <= 9
        batch = _assert_split_reads_as_one_pass(path)
    assert batch.views == ("A0", "N1", "N2", "N3", "N4")
    assert batch.mask[0].sum(axis=0).tolist() == [2, 2, 9, 8, 1]


@fork_only
@pytest.mark.parametrize("kind", ["valid", "cov", "disorder"])
def test_track_split_reads_as_in_one_pass(tmp_path, kind):
    steps = [{"t": 1000.0 + k, "mean": [100.0 + k, 200.0], "cov": [[4.0, 1.0], [1.0, 9.0]]} for k in range(10)]
    if kind == "cov":
        steps[7]["cov"] = [[4.0, 5.0], [5.0, 4.0]]
    elif kind == "disorder":
        steps[6]["t"] = steps[5]["t"]
    path = tmp_path / "track.jsonl"
    path.write_text("".join(json.dumps(step) + "\n" for step in steps))
    with _chunks_and_floor(2, 0):
        assert _child_first_line(path) == 6
        got = _assert_split_reads_as_one_pass(path, frames=False)
    if kind == "valid":
        _assert_same_arrays(got, _read_track_records(path))


@fork_only
def test_a_failed_child_is_read_again_by_the_parent(tmp_path):
    # pickle.dump fails in the child (which inherits the patch): it exits 1,
    # and the parent reads the child's range itself, not the file it left.
    path = tmp_path / "d.jsonl"
    path.write_text("".join(_split_line(k) + "\n" for k in range(10)))
    with _chunks_and_floor(2, 0), \
            mock.patch.object(pickle, "dump", side_effect=MemoryError):
        _assert_split_reads_as_one_pass(path)


@fork_only
@pytest.mark.parametrize("fails", ["fork", "temporary file"])
def test_a_fork_that_fails_reads_in_one_pass(tmp_path, fails):
    target = (os, "fork") if fails == "fork" else (forking.tempfile, "TemporaryFile")
    path = tmp_path / "d.jsonl"
    path.write_text("".join(_split_line(k) + "\n" for k in range(10)))
    want = _read_counting_forks(dataio.read_detections, path, cpus=(0,))[0]
    fds = open_fds()
    with _chunks_and_floor(2, 0), \
            mock.patch.object(os, "sched_getaffinity", return_value={0, 1}), \
            mock.patch.object(*target, side_effect=BlockingIOError) as failing:
        _assert_same_batch(dataio.read_detections(path), want)
    assert failing.call_count == 1 and open_fds() == fds


@fork_only
@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
@pytest.mark.parametrize("kind", ["valid", "cov"])
def test_a_fifo_reads_in_one_pass(tmp_path, kind):
    lines = [_split_line(k) for k in range(10)]
    if kind == "cov":
        lines[7] = _NEAR_SPLIT["cov"](lines[7])
    source = tmp_path / "d.jsonl"
    source.write_text("".join(text + "\n" for text in lines))
    fifo = tmp_path / "fifo.jsonl"
    want = _outcome(lambda p: pack([read_detection_frames(p)]), source)
    os.mkfifo(fifo)
    # A writer process, not a thread: a thread alone would rule the split out.
    writer = subprocess.Popen(["sh", "-c", 'cat "$0" > "$1"', str(source), str(fifo)])
    try:
        with _chunks_and_floor(2, 0), \
                mock.patch.object(os, "sched_getaffinity", return_value={0, 1}), \
                mock.patch.object(os, "fork", wraps=os.fork) as fork:
            got = _outcome(dataio.read_detections, fifo)
    finally:
        writer.wait(timeout=60)
    assert_no_child()
    assert fork.call_count == 0
    if kind == "valid":
        _assert_same_batch(got, want)
    else:
        assert got == (want[0], want[1].replace(str(source), str(fifo)))


# Corruptions the readers must reject: a non-string view id, a non-finite
# truth heading, a non-finite number in any numeric scenario field.


# ---------------------------------------------------------------------------
# Writing a file in two ranges: a forked child spells the rows from the chunk
# boundary nearest the middle into an unnamed temporary file, as a reading
# child pickles its arrays into one, and this process appends it after the
# header and its own rows. Every write must give the one-pass write's bytes
# and error, and leave behind no child, no open file descriptor and no file
# but the one written. As for reading, two CPUs are patched in, and
# SPLIT_BYTES patched to 0 where a test does not say.


def _write_counting_forks(write, path, cpus=(0, 1)):
    """write(path)'s outcome (None, or its error's type and text), the bytes
    it left in path and how many children it forked, on the given CPUs."""
    fds, listing = open_fds(), set(os.listdir(path.parent)) | {path.name}
    with mock.patch.object(os, "sched_getaffinity", return_value=set(cpus)), \
            mock.patch.object(os, "fork", wraps=os.fork) as fork:
        try:
            got = write(path)
        except (OSError, ValueError) as exc:
            got = type(exc), str(exc)
    assert_no_child()
    assert open_fds() == fds
    assert set(os.listdir(path.parent)) == listing
    return got, path.read_bytes(), fork.call_count


def _assert_split_writes_as_one_pass(write, path, forks=1):
    """The write on two CPUs (forking forks children) leaves the one-pass
    write's outcome and bytes; those two."""
    got, data, forked = _write_counting_forks(write, path)
    want, one_pass, one_pass_forks = _write_counting_forks(write, path, cpus=(0,))
    assert (forked, one_pass_forks) == (forks, 0)
    assert (got, data) == (want, one_pass)
    return got, data


def _split_mid(n, chunk):
    """The chunk boundary nearest n / 2 (the higher at a tie)."""
    return chunk * math.floor(n / (2 * chunk) + 0.5)


@fork_only
@settings(max_examples=100)
@given(data=st.data(), n=st.integers(0, 13), chunk=st.sampled_from([1, 2, 3, 5]))
def test_split_writes_match_one_pass_writes(fuzz_dir, data, n, chunk):
    # Detections with empty frames and anisotropic covariances, and track
    # steps with NaN and infinities, which dumps spells NaN and Infinity.
    path = fuzz_dir / "split_writes" / "out"
    path.parent.mkdir(exist_ok=True)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    views = data.draw(st.lists(st.sampled_from(["N1", "N2", "cam 3", "Ω"]), min_size=1, max_size=4, unique=True))
    mask = (rng.random((1, n, len(views))) < 0.6) & (rng.random((1, n, 1)) < 0.7)
    root = rng.standard_normal((1, n, len(views), 2, 2)) * rng.uniform(0.1, 30.0, (1, n, len(views), 2, 1))
    cov = root @ np.swapaxes(root, -1, -2) + 0.1 * np.eye(2)
    batch = FrameBatch(tuple(views), np.cumsum(rng.uniform(0.01, 1.0, (1, n)), axis=1),
                       rng.uniform(-1e3, 1e3, (1, n, len(views), 2)), cov, mask)
    steps = np.array(data.draw(st.lists(_TRACK_FLOATS, min_size=7 * n, max_size=7 * n))).reshape(n, 7)
    track = (steps[:, 0], steps[:, 1:3], steps[:, 3:].reshape(n, 2, 2))
    forks = int(0 < _split_mid(n, chunk) < n)
    with _chunks_and_floor(chunk, 0):
        _, written = _assert_split_writes_as_one_pass(lambda p: dataio.write_detections(p, batch), path, forks)
        oracle_write_detections(fuzz_dir / "oracle", batch_frames(batch))
        assert written == (fuzz_dir / "oracle").read_bytes()
        _, written = _assert_split_writes_as_one_pass(lambda p: dataio.write_track(p, *track), path, forks)
        oracle_write_track(fuzz_dir / "oracle", *track)
        assert written == (fuzz_dir / "oracle").read_bytes()


@fork_only
@pytest.mark.parametrize("n,child_rows", [(3, 0), (4, 0), (5, 0), (8, 0), (9, 5), (10, 6), (11, 7), (12, 0), (13, 5)])
def test_a_write_splits_where_the_childs_rows_reach_the_floor(tmp_path, n, child_rows):
    # Four-row chunks of six-value truth rows, and the floor at five rows'
    # values: the child takes the rows from the boundary nearest n / 2 (4
    # up to n = 11, then 8) if they are five or more, and none else. This
    # process writes the rows before the child's, or all of them.
    rows = np.arange(n, dtype=float)
    truth = Trajectory(0.05 * rows + 0.05, np.column_stack([rows, -rows]), 0.01 * rows, np.full((n, 2), 15.0))
    floor = 5 * 6 * dataio._VALUE_BYTES
    with _chunks_and_floor(4, floor), \
            mock.patch.object(dataio, "_write_range", wraps=dataio._write_range) as write_range:
        _, written = _assert_split_writes_as_one_pass(lambda p: dataio.write_truth(p, truth), tmp_path / "t.csv",
                                                      forks=int(child_rows > 0))
    # The split write's calls in this process, then the one-pass write's:
    # the rows before the boundary, then those from it unless a child spelt them.
    mid = _split_mid(n, 4)
    assert child_rows in (0, n - mid)
    split_write = [(0, mid)] if child_rows else [(0, mid), (mid, n)]
    assert [call.args[1:3] for call in write_range.call_args_list] == split_write + [(0, mid), (mid, n)]
    samples = [(t, SimpleNamespace(position=p, heading=h, extent=e))
               for t, p, h, e in zip(truth.times, truth.positions, truth.headings, truth.extent)]
    oracle_write_truth(tmp_path / "oracle.csv", samples)
    assert written == (tmp_path / "oracle.csv").read_bytes()


def _history_rows(bad_epoch=None):
    """Ten tune history rows; the epoch of row bad_epoch NaN, which %d cannot spell."""
    rows = [{"epoch": k, "train_nll": 1.0 / (k + 1), "N1_a": 0.5 * k} for k in range(10)]
    if bad_epoch is not None:
        rows[bad_epoch]["epoch"] = math.nan
    return rows


@fork_only
@pytest.mark.parametrize("kind", ["child only", "child's range"])
def test_a_failed_writer_child_leaves_its_rows_to_this_process(tmp_path, kind):
    # A MemoryError that only the child meets, or a NaN epoch in the child's
    # range (rows 6-9), which this process meets again as it spells those
    # rows itself: either way, the one-pass write's bytes and error.
    parent, spelt = os.getpid(), dataio._spelt

    def child_fails(table, specs):
        if os.getpid() != parent:
            raise MemoryError
        return spelt(table, specs)

    rows = _history_rows(bad_epoch=8 if kind == "child's range" else None)
    spell = child_fails if kind == "child only" else spelt
    with _chunks_and_floor(2, 0, _spelt=spell):
        got, written = _assert_split_writes_as_one_pass(lambda p: dataio.write_history(p, rows), tmp_path / "h.csv")
    if kind == "child's range":
        assert got == (ValueError, "cannot convert float NaN to integer")
        assert written.count(b"\n") == 9  # the header and rows 0-7
    else:
        assert got is None and written.count(b"\n") == 11


@fork_only
@pytest.mark.parametrize("fails", ["fork", "temporary file"])
def test_a_fork_or_temporary_file_that_fails_writes_in_one_pass(tmp_path, fails):
    target = (os, "fork") if fails == "fork" else (forking.tempfile, "TemporaryFile")
    rows = _history_rows()

    def write(path):
        dataio.write_history(path, rows)

    want = _write_counting_forks(write, tmp_path / "h.csv", cpus=(0,))
    with _chunks_and_floor(2, 0), \
            mock.patch.object(*target, side_effect=BlockingIOError) as failing:
        assert _write_counting_forks(write, tmp_path / "h.csv")[:2] == want[:2]
    assert failing.call_count == 1


@fork_only
@pytest.mark.skipif(not hasattr(resource, "RLIMIT_FSIZE"), reason="needs RLIMIT_FSIZE")
def test_an_oserror_in_this_processs_range_is_the_one_pass_error(tmp_path):
    # A file size limit of 16 KB, which this process's range of 256 steps
    # (about 38 KB) passes: its write raises EFBIG (Python ignores
    # SIGXFSZ), and the child, which the limit fails too, is reaped.
    n = 512
    times, means = 0.05 * np.arange(n), np.linspace(-5.0, 5.0, 2 * n).reshape(n, 2)
    covs = np.linspace(1.0, 2.0, 4 * n).reshape(n, 2, 2) + np.eye(2)

    def write(path):
        dataio.write_track(path, times, means, covs)

    soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
    resource.setrlimit(resource.RLIMIT_FSIZE, (1 << 14, hard))
    try:
        with _chunks_and_floor(64, 0):
            got, written = _assert_split_writes_as_one_pass(write, tmp_path / "track.jsonl")
    finally:
        resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))
    assert got == (OSError, f"[Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}") and len(written) == 1 << 14


@settings(max_examples=100)
@given(data=st.data(), view=_BAD_VIEWS)
def test_fuzz_read_detections_non_string_view(fuzz_dir, data, view):
    path = fuzz_dir / "view.jsonl"
    records = json.loads(json.dumps(_FUZZ_FRAMES))  # no shared detection dicts
    k = data.draw(st.integers(0, len(records) - 1))
    i = data.draw(st.integers(0, len(records[k]["detections"]) - 1))
    records[k]["detections"][i]["view"] = view
    path.write_text("\n".join(json.dumps(rec) for rec in records) + "\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:{k + 1}: view id must be a string"):
        dataio.read_detections(path)


@settings(max_examples=50)
@given(data=st.data(), heading=st.sampled_from(["nan", "inf", "-inf", "NaN", "Infinity"]))
def test_fuzz_read_truth_non_finite_heading(fuzz_dir, data, heading):
    path = fuzz_dir / "heading.csv"
    rows = [[repr(0.05 * k), "100.0", "200.0", "0.5", "15.0", "30.0"] for k in range(4)]
    k = data.draw(st.integers(0, len(rows) - 1))
    rows[k][3] = heading
    path.write_text("\n".join(",".join(r) for r in [dataio.TRUTH_HEADER] + rows) + "\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:{k + 2}: heading must be finite"):
        dataio.read_truth(path)


@settings(max_examples=200)
@given(data=st.data(), value=st.sampled_from([math.nan, math.inf, -math.inf]))
def test_fuzz_load_scenario_non_finite_field(fuzz_dir, data, value):
    path = fuzz_dir / "nonfinite.json"
    field = data.draw(st.sampled_from(_numeric_fields(_SCENARIO)))
    path.write_text(json.dumps(_with(_SCENARIO, field, value)))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
        dataio.load_scenario(path)



# ---------------------------------------------------------------------------
# The truth and track readers against their row (record) oracles: the same
# arrays bit for bit, or the same error, at every chunk size, on valid files
# and after one corruption.


def _read_track_records(path):
    with mock.patch.object(dataio, "_bulk_chunk", return_value=None):
        return dataio.read_track(path)


def _assert_same_arrays(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def _assert_reads_as_truth_rows(path):
    """read_truth must give read_truth_rows' arrays bit for bit, or raise its
    exception type with its text. The number of chunks the bulk check
    declined."""
    got, want = _outcome(dataio.read_truth, path), _outcome(read_truth_rows, path)
    if isinstance(want, tuple):
        assert got == want
    else:
        _assert_same_arrays(dataclasses.astuple(got), dataclasses.astuple(want))
    return _declined_chunks(dataio.read_truth, path, "_truth_bulk")


# Every spelling of a valid number the writers or a hand edit might use.
_SPELLINGS = st.sampled_from([repr, "{:.3e}".format, "{:+.17g}".format, "{:.0f}".format])
_BAD_TRUTH = st.sampled_from(
    [
        *["", " ", "x", "nan", "inf", "-inf", "1e999", "-1.0", "0.0", "1e", "--1", "1.5.2", "0x10"],
        # Fields csv.reader and float() read in their own ways.
        *[" 1.0", "1.0 ", "1_0", '"1.0"', '"1,5"', "#1", "1,5", "1\r5", "1\n5", "\u0661"],
    ]
)


@st.composite
def _truth_lines(draw):
    """The lines of a valid truth file: time-ordered rows of finite
    positions and headings (some far outside [-pi, pi)) and positive extents,
    each field spelt in one of several ways."""
    n = draw(st.integers(1, 8))
    t = draw(_FINITE)
    lines = [",".join(dataio.TRUTH_HEADER)]
    for _ in range(n):
        heading = draw(st.one_of(st.floats(-4.0, 4.0), _FINITE, st.sampled_from([-math.pi, math.pi, -0.0])))
        extent = [draw(st.floats(0.5, 100.0)), draw(st.floats(0.5, 100.0))]
        pose = [draw(_FINITE), draw(_FINITE), heading, *extent]
        spelt = [draw(_SPELLINGS)(v) for v in pose]
        # Keep only spellings that leave the row valid.
        spelt = [s if float(s) == v or i < 3 else repr(v) for i, (s, v) in enumerate(zip(spelt, pose))]
        lines.append(",".join([repr(t), *spelt]))
        t += draw(st.floats(1e-3, 10.0))
    return lines


def _corrupt_truth(data, lines):
    """lines with one row, field or line ending spoilt."""
    lines = list(lines)
    k = data.draw(st.integers(1, len(lines) - 1))
    fields = lines[k].split(",")
    kind = data.draw(st.sampled_from(["field", "drop", "extra", "blank", "swap", "header", "rows"]))
    if kind == "field":
        fields[data.draw(st.integers(0, len(fields) - 1))] = data.draw(_BAD_TRUTH)
    elif kind == "drop":
        del fields[data.draw(st.integers(0, len(fields) - 1))]
    elif kind == "extra":
        fields.append("1.0")
    elif kind == "blank":
        lines.insert(k, data.draw(st.sampled_from(["", "  ", "#", "# t,x"])))
    elif kind == "swap" and len(lines) > 2:
        j = data.draw(st.integers(1, len(lines) - 1).filter(lambda j: j != k))
        other = lines[j].split(",")
        fields[0], other[0] = other[0], fields[0]
        lines[j] = ",".join(other)
    elif kind == "header":
        header = ["t,x,y,heading,width,length\r", '"t",x,y,heading,width,length', "t,x,y"]
        lines[0] = data.draw(st.sampled_from(header))
    elif kind == "rows":
        return lines[:1]
    lines[k if kind != "blank" else k + 1] = ",".join(fields)
    return lines


@settings(max_examples=300)
@given(data=st.data(), lines=_truth_lines(), eol=st.sampled_from(["\n", "\r\n"]), chunk=_CHUNKS)
def test_bulk_truth_reader_declines_or_matches_rows(fuzz_dir, data, lines, eol, chunk):
    # The bulk check must take every chunk of a valid file, and whatever
    # else it takes it must read as the row oracle does.
    with mock.patch.object(dataio, "CHUNK_FRAMES", chunk):
        _bulk_truth_reader_declines_or_matches_rows(fuzz_dir, data, lines, eol)


def _bulk_truth_reader_declines_or_matches_rows(fuzz_dir, data, lines, eol):
    path = fuzz_dir / "bulk.csv"
    path.write_bytes((eol.join(lines) + data.draw(st.sampled_from([eol, ""]))).encode())
    assert _assert_reads_as_truth_rows(path) == 0
    text = eol.join(_corrupt_truth(data, lines)) + eol
    if data.draw(st.booleans()):
        # One line ending of the other kind, or a stray carriage return.
        at = data.draw(st.sampled_from([m.start() for m in re.finditer(eol, text)]))
        text = text[:at] + data.draw(st.sampled_from(["\n", "\r\n", "\r"])) + text[at + len(eol) :]
    path.write_bytes(text.encode())
    _assert_reads_as_truth_rows(path)


def test_bulk_truth_reader_reads_simulated_files(tmp_path):
    # simulate writes truth with csv.writer's \r\n line endings.
    path = tmp_path / "t.csv"
    samples = [(0.05 * k, ObjectPose((10.0 * k, 5.0), 7.0 * k - 3.0, (15.0, 30.0))) for k in range(5)]
    dataio.write_truth(path, truth_arrays(samples))
    assert b"\r\n" in path.read_bytes()
    assert _assert_reads_as_truth_rows(path) == 0


def _truth_table(n):
    """n valid truth rows as a Trajectory, and the nbytes of its arrays."""
    rng = np.random.default_rng(n)
    positions, headings = rng.uniform(0.0, 500.0, (n, 2)), wrap_angle(rng.uniform(-3.0, 3.0, n))
    truth = Trajectory(0.05 * np.arange(n), positions, headings, rng.uniform(10.0, 40.0, (n, 2)))
    return truth, sum(a.nbytes for a in dataclasses.astuple(truth))


def _later_truth_chunk_file(path, chunk, kind):
    """A truth file of three chunks of lines, the header first, with the
    second line of the third chunk spoilt (for "disorder", the first line,
    at the time of the line before it); the spoilt line's number."""
    line = 2 * chunk + (1 if kind == "disorder" else 2)
    dataio.write_truth(path, _truth_table(3 * chunk - 1)[0])
    lines = path.read_bytes().decode().splitlines(keepends=True)
    fields = lines[line - 1].split(",")
    if kind == "disorder":
        fields[0] = lines[line - 2].split(",")[0]
    elif kind == "field":
        fields[1] = "x"
    else:
        # A bare carriage return splits the row into two lines.
        fields[2] += "\r"
    lines[line - 1] = ",".join(fields)
    path.write_bytes("".join(lines).encode())
    return line


_LATER_TRUTH_CHUNK_ERRORS = {
    "disorder": (RuntimeError, "{path}: timestamp disorder at line {line}"),
    "field": (ValueError, "{path}:{line}: could not convert string to float: 'x'"),
    "split": (ValueError, "{path}:{line}: expected 6 fields, got 3"),
}


@pytest.mark.parametrize("chunk", [3, dataio.CHUNK_FRAMES])
@pytest.mark.parametrize("kind", sorted(_LATER_TRUTH_CHUNK_ERRORS))
def test_truth_corruption_in_a_later_chunk_names_its_line(tmp_path, chunk, kind):
    # As test_corruption_in_a_later_chunk_names_its_line, for truth: only
    # the third chunk is read row by row, and the row oracle agrees.
    path = tmp_path / "later.csv"
    with mock.patch.object(dataio, "CHUNK_FRAMES", chunk):
        line = _later_truth_chunk_file(path, chunk, kind)
        error, message = _LATER_TRUTH_CHUNK_ERRORS[kind]
        with pytest.raises(error, match="^" + re.escape(message.format(path=path, line=line)) + "$"):
            dataio.read_truth(path)
        assert _assert_reads_as_truth_rows(path) == 1


@pytest.mark.parametrize("chunk", [1, 2, dataio.CHUNK_FRAMES])
def test_truth_quoted_line_break_ends_the_row(tmp_path, chunk):
    # Each line is one row, at every chunk size: a quoted field that holds a
    # line break ends with its line. csv.reader over the whole file, as the
    # row oracle reads it, runs such a field on into the next line.
    path = tmp_path / "t.csv"
    path.write_bytes(b't,x,y,heading,width,length\r\n0.0,"1.0\r\n",2.0,0.5,15.0,30.0\r\n')
    with mock.patch.object(dataio, "CHUNK_FRAMES", chunk):
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: expected 6 fields, got 2$"):
            dataio.read_truth(path)
    assert read_truth_rows(path).positions.tolist() == [[1.0, 2.0]]


def test_truth_bytes_that_do_not_decode_name_the_line_being_read(tmp_path):
    # Each line's bytes are decoded on their own, so the error names the
    # line that holds the byte, at its position in that line, whatever the
    # line ends and the chunk size.
    path = tmp_path / "t.csv"
    dataio.write_truth(path, _truth_table(2000)[0])
    rows = path.read_bytes().split(b"\r\n")
    for line, eol, chunk in itertools.product([2, 6, 301, 1501], [b"\r\n", b"\n", b"\r"], [1, 3, dataio.CHUNK_FRAMES]):
        lines = list(rows)
        lines[line - 1] = lines[line - 1][:4] + b"\xff" + lines[line - 1][4:]
        path.write_bytes(eol.join(lines))
        with mock.patch.object(dataio, "CHUNK_FRAMES", chunk):
            error, message = _outcome(dataio.read_truth, path)
        assert error is ValueError
        assert re.fullmatch(
            rf"{re.escape(str(path))}:{line}: '[-\w]+' codec can't decode byte 0xff in position 4: invalid start byte",
            message,
        ), message


@pytest.mark.parametrize("last", ["valid", "odd", "bad"])
def test_truth_reading_memory_scales_with_the_arrays(tmp_path, last):
    # A last row with a quoted field, which the bulk check declines, or with
    # a field that is not a number: only the last chunk is read row by row.
    # This reader measured 2.2 (valid, odd) and 1.3 (bad); reading the whole
    # file at once, then row by row for any other, 9.5 on all three.
    n = 16000
    truth, nbytes = _truth_table(n)
    path = tmp_path / "t.csv"
    dataio.write_truth(path, truth)
    if last != "valid":
        lines = path.read_bytes().decode().splitlines(keepends=True)
        fields = lines[-1].split(",")
        fields[1] = f'"{fields[1]}"' if last == "odd" else "x"
        path.write_bytes("".join([*lines[:-1], ",".join(fields)]).encode())
    assert _traced_peak(lambda: _outcome(dataio.read_truth, path)) <= MEMORY_FACTOR * nbytes
    assert _assert_reads_as_truth_rows(path) == int(last != "valid")
    if last != "bad":
        _assert_same_arrays(dataclasses.astuple(dataio.read_truth(path)), dataclasses.astuple(truth))


def _assert_track_bulk_declines_or_matches(path):
    taken, records = _assert_bulk_declines_or_matches(path, frames=False), _outcome(_read_track_records, path)
    got = _outcome(dataio.read_track, path)
    if isinstance(records[0], type):
        assert got == records
    else:
        _assert_same_arrays(got, records)
        assert all(a.flags.c_contiguous for a in got)
    return taken


@st.composite
def _track_steps(draw):
    steps, t = [], draw(_FINITE)
    for _ in range(draw(st.integers(1, 8))):
        step = draw(_detection("N1"))
        del step["view"]
        steps.append({"t": t, **step})
        t += draw(st.floats(1e-3, 10.0))
    return steps


@settings(max_examples=100)
@given(data=st.data(), steps=_track_steps(), chunk=_CHUNKS)
def test_bulk_track_reader_declines_or_matches_records(fuzz_dir, data, steps, chunk):
    # As test_bulk_reader_declines_or_matches_records, for track steps: each
    # step unpacks into six flat numbers and a time.
    with mock.patch.object(dataio, "CHUNK_FRAMES", chunk):
        _bulk_track_reader_declines_or_matches_records(fuzz_dir, data, steps)


def _bulk_track_reader_declines_or_matches_records(fuzz_dir, data, steps):
    path = fuzz_dir / "bulk_track.jsonl"
    _write_lines(data, path, [json.dumps(step) for step in steps])
    assert _assert_track_bulk_declines_or_matches(path)
    kinds = _write_decorated(data, path, steps)
    assert _assert_track_bulk_declines_or_matches(path) or not kinds <= {None, "crlf"}
    k = data.draw(st.integers(0, len(steps) - 1))
    lines = [json.dumps(step) for step in steps]
    kind = data.draw(st.sampled_from(["field", "truncate", "t"]))
    if kind == "field":
        lines[k] = json.dumps(_corrupt_json(data, steps[k]))
    elif kind == "truncate":
        lines[k] = _truncate(data, lines[k])
    else:
        t = data.draw(st.sampled_from([math.nan, math.inf, -1e9, steps[k]["t"] - 1e-3, True, "0.5"]))
        lines[k] = json.dumps(dict(steps[k], t=t))
    _write_lines(data, path, lines)
    _assert_track_bulk_declines_or_matches(path)
    for place in _paths(steps[k]):
        for value in [_DROP, *_BAD_LIST] if place else []:
            step = copy.deepcopy(steps[k])
            parent = _at(step, place[:-1])
            if value is _DROP:
                del parent[place[-1]]
            else:
                parent[place[-1]] = value
            lines = [json.dumps(s) for s in steps]
            lines[k] = json.dumps(step)
            path.write_text("\n".join(lines) + "\n")
            _assert_track_bulk_declines_or_matches(path)


@pytest.mark.parametrize(
    "field,value",
    [("split", [0.5, 0.3, 0.1, 0.1]), ("split", [0.5, 0.5]), ("object_extent", [15.0]),
     ("object_extent", [15.0, 30.0, 5.0])],
)
def test_scenario_rejects_wrong_tuple_lengths(tmp_path, field, value):
    # Read as given, a 4th fraction would be dropped, a 2-fraction split
    # would leave an empty test split and a 1-value extent a square object.
    path = tmp_path / "c.json"
    path.write_text(json.dumps({field: value}))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {field} needs "):
        dataio.load_scenario(path)
