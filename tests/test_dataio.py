import copy
import dataclasses
import json
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    batch_frames,
    oracle_write_detections,
    oracle_write_track,
    read_detection_frames,
    truth_arrays,
)
from geotrack import dataio
from geotrack.calibration import CalibrationParams
from geotrack.core import Gaussian2D, NotPositiveDefiniteError, ObjectPose
from geotrack.kalman import DetectionFrame, FilterParams, FrameBatch, pack
from geotrack.metrics import MetricReport
from geotrack.simulator import CameraNode, default_scenario


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


def test_scenario_node_defaults_are_camera_node_defaults():
    cfg = dataio.scenario_from_dict({"nodes": [{"id": "N1", "position": [1.0, 2.0], "facing": 0.5}]})
    assert cfg.nodes == (CameraNode("N1", np.array([1.0, 2.0]), 0.5),)


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
    assert dataio.read_report(path) == report


def test_report_row_csv(tmp_path):
    report = MetricReport(nll=5.5, opm=0.9, det_pr=0.91, loc_a=0.1 + 0.2, alpha_sweep=(0.5,))
    path = tmp_path / "row.csv"
    dataio.write_report_row(path, report)
    assert path.read_bytes() == b"nll,opm,det_pr,loc_a\r\n5.5,0.9,0.91,0.30000000000000004\r\n"


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
@given(data=st.data())
def test_fuzz_read_truth(fuzz_dir, data):
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
    _read_located(dataio.read_truth, path, corrupted)


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
@given(data=st.data(), records=_detection_records())
def test_read_detections_corrupted_record_matches_object_oracle(fuzz_dir, data, records):
    path = fuzz_dir / "corrupt.jsonl"
    _write_lines(data, path, _corrupt_record(data, records))
    got = _outcome(dataio.read_detections, path)
    want = _outcome(lambda p: pack([read_detection_frames(p)]), path)
    if isinstance(want, tuple):
        assert got == want
    else:
        _assert_same_batch(got, want)


_DROP = object()


def _assert_bulk_declines_or_matches(path):
    bulk = dataio._read_bulk(path)
    if bulk is not None:
        _assert_same_batch(bulk, dataio._read_records(path))
    return bulk


@settings(max_examples=100)
@given(data=st.data(), records=_detection_records())
def test_bulk_reader_declines_or_matches_records(fuzz_dir, data, records):
    # The bulk reader unpacks each detection into six flat numbers; it must
    # accept every valid file, and whatever else it accepts it must read as
    # the record-by-record reader does: here after one random corruption,
    # and after each bad value or drop at each place in one detection.
    path = fuzz_dir / "bulk.jsonl"
    _write_lines(data, path, [json.dumps(rec) for rec in records])
    assert _assert_bulk_declines_or_matches(path) is not None
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


_TRACK_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([-0.0, 5e-324, 1e16, 1e300, math.nan, math.inf, -math.inf]),
)


@settings(max_examples=200)
@given(data=st.data(), n=st.integers(0, 6), chunk=st.sampled_from([1, 2, dataio.CHUNK_FRAMES]))
def test_write_track_matches_per_step_dumps(fuzz_dir, data, n, chunk):
    # Chunks of one or two steps mix chunks with and without NaN and inf,
    # which dumps spells NaN, Infinity and -Infinity.
    steps = np.array(data.draw(st.lists(_TRACK_FLOATS, min_size=7 * n, max_size=7 * n)))
    times, means, covs = steps[:n], steps[n : 3 * n].reshape(n, 2), steps[3 * n :].reshape(n, 2, 2)
    oracle_write_track(fuzz_dir / "oracle.jsonl", times, means, covs)
    expected = (fuzz_dir / "oracle.jsonl").read_bytes()
    path = fuzz_dir / "track.jsonl"
    with mock.patch.object(dataio, "CHUNK_FRAMES", chunk):
        dataio.write_track(path, times, means, covs)
        assert path.read_bytes() == expected
        dataio.write_track(path, times.tolist(), list(means), [c.tolist() for c in covs])
        assert path.read_bytes() == expected


# Corruptions the readers must reject: a non-string view id, a non-finite
# truth heading, a non-finite number in any numeric scenario field.


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
# The bulk truth and track readers against the readers they front: each
# returns None or the arrays that reading the file row by row (record by
# record) gives, bit for bit, on valid files and after one corruption.


def _read_truth_rows(path):
    with mock.patch.object(dataio, "_read_truth_bulk", return_value=None):
        return dataio.read_truth(path)


def _read_track_records(path):
    with mock.patch.object(dataio, "_read_bulk_rows", return_value=None):
        return dataio.read_track(path)


def _assert_same_arrays(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def _assert_truth_bulk_declines_or_matches(path):
    bulk, rows = dataio._read_truth_bulk(path), _outcome(_read_truth_rows, path)
    if bulk is not None:
        _assert_same_arrays(dataclasses.astuple(bulk), dataclasses.astuple(rows))
    got = _outcome(dataio.read_truth, path)
    if isinstance(rows, tuple):
        assert got == rows
    else:
        _assert_same_arrays(dataclasses.astuple(got), dataclasses.astuple(rows))
    return bulk


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
@given(data=st.data(), lines=_truth_lines(), eol=st.sampled_from(["\n", "\r\n"]))
def test_bulk_truth_reader_declines_or_matches_rows(fuzz_dir, data, lines, eol):
    path = fuzz_dir / "bulk.csv"
    path.write_bytes((eol.join(lines) + data.draw(st.sampled_from([eol, ""]))).encode())
    assert _assert_truth_bulk_declines_or_matches(path) is not None
    text = eol.join(_corrupt_truth(data, lines)) + eol
    if data.draw(st.booleans()):
        # One line ending of the other kind, or a stray carriage return.
        at = data.draw(st.sampled_from([m.start() for m in re.finditer(eol, text)]))
        text = text[:at] + data.draw(st.sampled_from(["\n", "\r\n", "\r"])) + text[at + len(eol) :]
    path.write_bytes(text.encode())
    _assert_truth_bulk_declines_or_matches(path)


def test_bulk_truth_reader_reads_simulated_files(tmp_path):
    # simulate writes truth with csv.writer's \r\n line endings.
    path = tmp_path / "t.csv"
    samples = [(0.05 * k, ObjectPose((10.0 * k, 5.0), 7.0 * k - 3.0, (15.0, 30.0))) for k in range(5)]
    dataio.write_truth(path, truth_arrays(samples))
    assert b"\r\n" in path.read_bytes()
    assert _assert_truth_bulk_declines_or_matches(path) is not None


def _assert_track_bulk_declines_or_matches(path):
    bulk, records = dataio._read_bulk_rows(path, frames=False), _outcome(_read_track_records, path)
    if bulk is not None:
        _assert_same_arrays([bulk[0], bulk[3], bulk[4]], records)
    got = _outcome(dataio.read_track, path)
    if isinstance(records[0], type):
        assert got == records
    else:
        _assert_same_arrays(got, records)
        assert all(a.flags.c_contiguous for a in got)
    return bulk


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
@given(data=st.data(), steps=_track_steps())
def test_bulk_track_reader_declines_or_matches_records(fuzz_dir, data, steps):
    # As test_bulk_reader_declines_or_matches_records, for track steps: each
    # step unpacks into six flat numbers and a time.
    path = fuzz_dir / "bulk_track.jsonl"
    _write_lines(data, path, [json.dumps(step) for step in steps])
    assert _assert_track_bulk_declines_or_matches(path) is not None
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
