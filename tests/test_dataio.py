import copy
import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geotrack import dataio
from geotrack.calibration import CalibrationParams
from geotrack.core import Gaussian2D, NotPositiveDefiniteError, ObjectPose
from geotrack.kalman import DetectionFrame, FilterParams
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


def test_match_truth_exact_times():
    poses = [ObjectPose((float(k), 0.0), 0.0, (15.0, 30.0)) for k in range(4)]
    truth = list(zip((0.0, 0.05, 0.1, 0.15), poses))
    assert dataio.match_truth([0.15, 0.0], truth, "src") == [poses[3], poses[0]]
    with pytest.raises(RuntimeError, match="^src: 2 of 3 timestamps have no matching truth row"):
        dataio.match_truth([0.05, 0.07, 0.2], truth, "src")


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


# ---------------------------------------------------------------------------
# Fuzzing the readers: a valid file with one line or one field corrupted must
# give a ValueError, NotPositiveDefiniteError (a ValueError) or RuntimeError
# that names the file, and for line formats the line; never KeyError,
# TypeError, IndexError or AttributeError.

_BAD_VALUES = st.sampled_from(
    [
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
        [[1.0, 2.0], [2.0, 1.0]],  # indefinite
    ]
)
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
