"""File formats for datasets, parameters, and reports.

All writers are deterministic (sorted keys, repr-exact floats) so that a
write -> read -> write round trip is byte-identical and identically seeded
pipeline runs produce identical files. Detections, truth and tracks are
written from arrays, a bounded chunk of frames at a time.

This module is the input boundary: every file enters through a reader here,
which returns validated values or raises an error naming the file (and line):
ValueError for a missing, unreadable or malformed file; NotPositiveDefiniteError
for a covariance that is not positive definite; RuntimeError for data that
parses but is wrong (timestamp disorder, no detections, no truth row).

Detections, truth and tracks load as arrays, in bulk, with a record-by-record
re-read for the error line. read_detections returns one kalman.FrameBatch,
read_truth a simulator.Trajectory and read_track (times, means, covs). A
JSONL file parses into one flat list of numbers, with no list or object per
Gaussian: kept, the 288,000 nested lists of a 10,000-frame detections file
set off repeated cyclic garbage collections and convert slowly to arrays. A
truth CSV parses into one table. numpy checks either at once, and a file
that fails a bulk check is read again record by record, to name its first
bad record with that record's first failing check. match_truth gives the
truth row of each time.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
from pathlib import Path
from typing import Callable, Iterator, Optional, Sequence, TypeVar

import numpy as np

from .calibration import CalibrationParams
from .core import Arena, NotPositiveDefiniteError, _gaussian_arrays, _pose_values, wrap_angle
from .kalman import FilterParams, FrameBatch, _is_pd
from .metrics import MetricReport
from .simulator import CameraNode, ScenarioConfig, Trajectory, default_scenario


def dumps(obj, indent: int | None = None) -> str:
    if indent is None:
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return json.dumps(obj, sort_keys=True, indent=indent)


def _write_json(path: Path, obj) -> None:
    Path(path).write_text(dumps(obj, indent=2) + "\n")


# ---------------------------------------------------------------------------
# Gaussian records, and the readers every file goes through


Record = TypeVar("Record")

# What reading a missing, unreadable or malformed file raises.
_MALFORMED = (OSError, ValueError, KeyError, TypeError, IndexError, AttributeError, OverflowError)


def _located(exc: Exception, path: Path, line: int = 0) -> Exception:
    """exc as the error to raise, naming path (and line, if > 0)."""
    where = f"{path}:{line}" if line else str(path)
    if isinstance(exc, NotPositiveDefiniteError):
        return NotPositiveDefiniteError(exc.minor_index, exc.minor_value, where)
    if isinstance(exc, KeyError):
        return ValueError(f"{where}: missing field {exc}")
    if isinstance(exc, json.JSONDecodeError):
        return ValueError(f"{where}: invalid JSON: {exc}")
    if isinstance(exc, OSError):
        return ValueError(f"{where}: {exc.strerror or exc}")
    return ValueError(f"{where}: {exc}")


def _read_json(path: Path, parse: Callable[[dict], Record]) -> Record:
    try:
        with open(path, "rb") as fh:
            return parse(json.load(fh))
    except _MALFORMED as exc:
        raise _located(exc, path) from exc


def _read_jsonl(path: Path, parse: Callable[[dict], Record]) -> Iterator[tuple[int, Record]]:
    """Yield (line number, parse(record)) per non-blank line; every error
    names path:line."""
    line_no = 0
    try:
        with open(path, "rb") as fh:
            for line_no, line in enumerate(fh, start=1):
                if line.strip():
                    yield line_no, parse(json.loads(line))
    except _MALFORMED as exc:
        raise _located(exc, path, line_no) from exc


def _time(value) -> float:
    t = float(value)
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    return t


# ---------------------------------------------------------------------------
# detections: one frame per line


# Frames per chunk that the writers format and write at once.
CHUNK_FRAMES = 1 << 12

# One detection as dumps writes it: sorted keys, repr-exact floats.
_DETECTION = '{"cov":[[%r,%r],[%r,%r]],"mean":[%r,%r],"view":%s}'


def write_detections(path: Path, batch: FrameBatch) -> None:
    """One line per frame of the batch's windows, listing the frame's
    detections in the batch's column order; written from the arrays, a chunk
    of frames at a time."""
    views = [dumps(view) for view in batch.views]
    t = batch.t.reshape(-1)
    mean = batch.mean.reshape(len(t), len(views), 2)
    cov = batch.cov.reshape(len(t), len(views), 4)
    mask = batch.mask.reshape(len(t), len(views))
    with open(path, "w") as fh:
        for lo in range(0, len(t), CHUNK_FRAMES):
            rows = slice(lo, lo + CHUNK_FRAMES)
            present = mask[rows]
            values = np.concatenate([cov[rows][present], mean[rows][present]], axis=1)
            columns = np.nonzero(present)[1].tolist()
            dets = [_DETECTION % (*v, views[j]) for v, j in zip(values.tolist(), columns)]
            ends = np.cumsum(present.sum(axis=1)).tolist()
            lines = [
                '{"detections":[%s],"t":%r}\n' % (",".join(dets[start:end]), time)
                for time, start, end in zip(t[rows].tolist(), [0, *ends], ends)
            ]
            fh.write("".join(lines))


def _detection_record(rec: dict) -> tuple[float, list, list]:
    """One line as (t, view ids, (mean, cov) arrays), checked in the order
    a DetectionFrame of Gaussian2D detections checks it, then its view ids:
    strings, none repeated."""
    t = _time(rec["t"])
    views, gaussians = [], []
    for d in rec["detections"]:
        views.append(d["view"])
        gaussians.append(_gaussian_arrays(d["mean"], d["cov"]))
    for view in views:
        if not isinstance(view, str):
            raise ValueError(f"view id must be a string, got {view!r}")
    if len(set(views)) != len(views):
        raise ValueError(f"duplicate view ids in frame at t={t}: {views}")
    return t, views, gaussians


def _read_records(path: Path) -> FrameBatch:
    """read_detections record by record, for a file _read_bulk declines."""
    times, frames, views, gaussians = [], [], [], []
    for line_no, (t, line_views, line_gaussians) in _read_jsonl(path, _detection_record):
        if times and not t > times[-1]:
            raise RuntimeError(f"{path}: timestamp disorder at line {line_no}")
        frames += [len(times)] * len(line_views)
        times.append(t)
        views += line_views
        gaussians += line_gaussians
    if not views:
        raise RuntimeError(f"{path}: no detections")
    mean, cov = zip(*gaussians)
    return FrameBatch.scatter(np.array([times]), frames, views, mean, cov)


def _read_bulk_rows(path: Path, frames: bool) -> Optional[tuple]:
    """A file of detections frames (or, if not frames, track steps) as times
    (T,), Gaussians per line, view ids, means (n, 2) and covariances (n, 2, 2)
    made symmetric from the upper entry; None unless it passes every bulk
    check: finite numbers, string view ids, rising times and _is_pd."""
    times, counts, views, values = [], [], [], []
    try:
        with open(path, "rb") as fh:
            for line in fh:
                if line.strip():
                    rec = json.loads(line)
                    gaussians = rec["detections"] if frames else (rec,)
                    for g in gaussians:
                        if frames:
                            views.append(g["view"])
                        x, y = g["mean"]
                        (c00, c01), (c10, c11) = g["cov"]
                        values += (x, y, c00, c01, c10, c11)
                    counts.append(len(gaussians))
                    times.append(rec["t"])
        t, flat = np.array(times), np.array(values)
        plain = all(isinstance(v, str) for v in set(views))
    except _MALFORMED:
        return None
    n = len(values) // 6
    # A mean or covariance row that unpacks into anything but numbers
    # (strings, nested lists) gives a non-numeric dtype or another shape.
    shapes = (t.shape, flat.shape) == ((len(times),), (6 * n,))
    if not (plain and n and shapes and all(a.dtype.kind in "biuf" for a in (t, flat))):
        return None
    t, flat = t.astype(float), flat.astype(float).reshape(n, 6)
    finite = np.isfinite(t).all() and np.isfinite(flat).all()
    mean, cov = flat[:, :2], flat[:, 2:].reshape(n, 2, 2)
    cov[:, 1, 0] = cov[:, 0, 1]
    with np.errstate(all="ignore"):
        valid = finite and (t[1:] > t[:-1]).all() and _is_pd(cov).all()
    return (t, counts, views, mean, cov) if valid else None


def _read_bulk(path: Path) -> Optional[FrameBatch]:
    """read_detections for a file of plain, valid records, checked in bulk;
    None for any other file."""
    rows = _read_bulk_rows(path, frames=True)
    if rows is None:
        return None
    t, counts, views, mean, cov = rows
    batch = FrameBatch.scatter(t[None], np.repeat(np.arange(len(t)), counts), views, mean, cov)
    # A view repeated within a line fills one slot twice.
    return batch if batch.mask.sum() == len(views) else None


def read_detections(path: Path) -> FrameBatch:
    """A detections file as a FrameBatch of one window over all its frames,
    its views the sorted ids it holds. Errors are those of reading it record
    by record: the first bad record's line, with its first failing check."""
    batch = _read_bulk(path)
    return batch if batch is not None else _read_records(path)


# ---------------------------------------------------------------------------
# truth: CSV with header t,x,y,heading,width,length

TRUTH_HEADER = ["t", "x", "y", "heading", "width", "length"]


def write_truth(path: Path, truth: Trajectory) -> None:
    """One row per sample of the truth arrays."""
    columns = (truth.times, *truth.positions.T, truth.headings, *truth.extent.T)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRUTH_HEADER)
        for lo in range(0, len(truth), CHUNK_FRAMES):
            rows = zip(*(column[lo : lo + CHUNK_FRAMES].tolist() for column in columns))
            writer.writerows(map(repr, row) for row in rows)


def _read_truth_bulk(path: Path) -> Optional[Trajectory]:
    """read_truth for a plain file of valid rows, checked in bulk; None for
    any other file."""
    header = ",".join(TRUTH_HEADER).encode()
    try:
        data = Path(path).read_bytes()
        eol = b"\r\n" if data.startswith(header + b"\r\n") else b"\n"
        rows = data.removesuffix(eol).split(eol)
        # Numbers and commas alone, no blank line, one line ending: csv.reader
        # splits these as loadtxt does, which parses a field as float() does.
        numbers = not b",".join(rows[1:]).translate(None, b"0123456789+-.eE,")
        if not (rows[0] == header and len(rows) > 1 and all(rows[1:]) and numbers):
            return None
        table = np.loadtxt(io.BytesIO(data), delimiter=",", comments=None, skiprows=1, ndmin=2)
        t, _, _, heading, width, length = table.T
    except _MALFORMED:
        return None
    valid = np.isfinite(table[:, :4]).all() and (t[1:] > t[:-1]).all()
    if not (valid and (width > 0.0).all() and (length > 0.0).all()):
        return None
    table[:, 3] = wrap_angle(heading)
    return Trajectory(t, table[:, 1:3], table[:, 3], table[:, 4:])


def read_truth(path: Path) -> Trajectory:
    """A truth file as the arrays write_truth takes. Each row is checked as
    an ObjectPose checks it, its heading wrapped the same way, and its time
    must follow the previous row's."""
    truth = _read_truth_bulk(path)
    if truth is not None:
        return truth
    samples = []
    line_no = 1
    try:
        with open(path, newline="") as fh:
            rows = csv.reader(fh)
            header = next(rows, None)
            if header != TRUTH_HEADER:
                raise ValueError(f"expected header {TRUTH_HEADER}, got {header}")
            for line_no, row in enumerate(rows, start=2):
                if len(row) != len(TRUTH_HEADER):
                    raise ValueError(f"expected {len(TRUTH_HEADER)} fields, got {len(row)}")
                t, *pose = (float(v) for v in row)
                sample = (_time(t), *_pose_values(*pose))
                if samples and not sample[0] > samples[-1][0]:
                    raise RuntimeError(f"{path}: timestamp disorder at line {line_no}")
                samples.append(sample)
    except _MALFORMED as exc:
        raise _located(exc, path, line_no) from exc
    table = np.array(samples, dtype=float).reshape(-1, len(TRUTH_HEADER))
    return Trajectory(table[:, 0], table[:, 1:3], table[:, 3], table[:, 4:])


def match_truth(times: np.ndarray, truth: Trajectory, source: str) -> np.ndarray:
    """The index of the truth row at each of times. Matching is exact:
    simulate writes detections and truth from the same floats, each with
    repr."""
    rows = np.searchsorted(truth.times, times)
    # A time after the last row indexes the sentinel, which matches no time.
    missing = np.count_nonzero(np.append(truth.times, np.inf)[rows] != times)
    if missing:
        raise RuntimeError(
            f"{source}: {missing} of {len(times)} timestamps have no matching truth row"
        )
    return rows


# ---------------------------------------------------------------------------
# scenario config


def scenario_to_dict(config: ScenarioConfig) -> dict:
    return {
        "arena": {"width": float(config.arena.width), "length": float(config.arena.length)},
        "nodes": [
            {
                "id": n.id,
                "position": [float(n.position[0]), float(n.position[1])],
                "facing": float(n.facing),
                "fov": float(n.fov),
                "noise_floor": float(n.noise_floor),
                "noise_slope": float(n.noise_slope),
                "miscalibration": [float(n.miscalibration[0]), float(n.miscalibration[1])],
            }
            for n in config.nodes
        ],
        "occluders": [list(r) for r in config.occluders],
        "lighting": config.lighting,
        "low_light_noise_multiplier": float(config.low_light_noise_multiplier),
        "fps": float(config.fps),
        "duration": float(config.duration),
        "split": list(config.split),
        "object_extent": list(config.object_extent),
        "seed": int(config.seed),
        "fallback_rate": float(config.fallback_rate),
        "fallback_sigma": float(config.fallback_sigma),
        "ray_anisotropy": float(config.ray_anisotropy),
    }


_NODE_REQUIRED = ("id", "position", "facing")
_NODE_KEYS = {*_NODE_REQUIRED, "fov", "noise_floor", "noise_slope", "miscalibration"}
_CONFIG_KEYS = set(scenario_to_dict(default_scenario()).keys())


def scenario_from_dict(data: dict) -> ScenarioConfig:
    """Build a config from a possibly partial dict; missing fields take the
    bundled defaults. Unknown fields are an error, named in the message."""
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise ValueError(f"unknown config field: {sorted(unknown)[0]}")
    base = default_scenario(seed=int(data.get("seed", 0)))
    # ScenarioConfig converts the other fields itself.
    kwargs = {key: value for key, value in data.items() if key not in ("arena", "nodes", "seed")}
    if "arena" in data:
        kwargs["arena"] = Arena(float(data["arena"]["width"]), float(data["arena"]["length"]))
    if "nodes" in data:
        nodes = []
        for nd in data["nodes"]:
            bad = set(nd) - _NODE_KEYS
            if bad:
                raise ValueError(f"unknown config field: nodes.{sorted(bad)[0]}")
            # Omitted keys take CameraNode's own defaults.
            required = {key: nd[key] for key in _NODE_REQUIRED}
            optional = {key: value for key, value in nd.items() if key not in required}
            nodes.append(CameraNode(**required, **optional))
        kwargs["nodes"] = tuple(nodes)
    return dataclasses.replace(base, **kwargs)


def load_scenario(path: Path) -> ScenarioConfig:
    return _read_json(path, scenario_from_dict)


def write_scenario(path: Path, config: ScenarioConfig) -> None:
    _write_json(path, scenario_to_dict(config))


# ---------------------------------------------------------------------------
# parameter files


def write_filter_params(path: Path, params: FilterParams) -> None:
    _write_json(path, {"sigma_accel": float(params.sigma_accel), "init_vel_var": float(params.init_vel_var)})


def read_filter_params(path: Path) -> FilterParams:
    return _read_json(
        path,
        lambda data: FilterParams(float(data["sigma_accel"]), float(data.get("init_vel_var", 1e4))),
    )


def write_calibration(path: Path, params: dict[str, CalibrationParams], shared: bool = False) -> None:
    views = {v: {"a": float(p.a), "b": float(p.b)} for v, p in params.items()}
    _write_json(path, {"shared": shared, "views": views})


def read_calibration(path: Path) -> dict[str, CalibrationParams]:
    return _read_json(
        path, lambda data: {v: CalibrationParams(d["a"], d["b"]) for v, d in data["views"].items()}
    )


# ---------------------------------------------------------------------------
# track output


# One track step as dumps writes it: sorted keys, repr-exact floats.
_STEP = '{"cov":[[%r,%r],[%r,%r]],"mean":[%r,%r],"t":%r}\n'


def write_track(path: Path, times: np.ndarray, means: np.ndarray, covs: np.ndarray) -> None:
    """One record per step: times (N,), means (N, 2), covs (N, 2, 2); written
    from the arrays, a chunk of steps at a time."""
    steps = np.column_stack((np.reshape(covs, (-1, 4)), np.reshape(means, (-1, 2)), times))
    steps = steps.astype(float)
    with open(path, "w") as fh:
        for lo in range(0, len(steps), CHUNK_FRAMES):
            chunk = steps[lo : lo + CHUNK_FRAMES]
            text = "".join([_STEP % tuple(row) for row in chunk.tolist()])
            if not np.isfinite(chunk).all():
                # dumps spells the non-finite floats NaN, Infinity and -Infinity.
                text = text.replace("nan", "NaN").replace("inf", "Infinity")
            fh.write(text)


def read_track(path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A track file as the arrays write_track takes: times (N,), means
    (N, 2) and covs (N, 2, 2), each line checked as a Gaussian2D checks it
    and its time following the previous line's."""
    rows = _read_bulk_rows(path, frames=False)
    if rows is not None:
        return tuple(np.ascontiguousarray(rows[i]) for i in (0, 3, 4))

    def step(rec: dict) -> tuple:
        return _time(rec["t"]), *_gaussian_arrays(rec["mean"], rec["cov"])

    steps = []
    for line_no, values in _read_jsonl(path, step):
        if steps and not values[0] > steps[-1][0]:
            raise RuntimeError(f"{path}: timestamp disorder at line {line_no}")
        steps.append(values)
    times, means, covs = (np.array([s[i] for s in steps], dtype=float) for i in range(3))
    return times, means.reshape(-1, 2), covs.reshape(-1, 2, 2)


# ---------------------------------------------------------------------------
# metric report


def write_report(path: Path, report: MetricReport) -> None:
    _write_json(path, report.to_dict())


def _report_from_dict(data: dict) -> MetricReport:
    values = {field.name: data[field.name] for field in dataclasses.fields(MetricReport)}
    return MetricReport(**{**values, "alpha_sweep": tuple(values["alpha_sweep"])})


def read_report(path: Path) -> MetricReport:
    return _read_json(path, _report_from_dict)


def write_report_row(path: Path, report: MetricReport) -> None:
    header = ["nll", "opm", "det_pr", "loc_a"]
    row = [repr(getattr(report, key)) for key in header]
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([header, row])


def write_histogram(path: Path, values: np.ndarray, bins: int = 30) -> None:
    """Binned counts of a value list, for plot-ready NLL histograms."""
    values = np.asarray(values, dtype=float)
    lo, hi = float(np.min(values)), float(np.max(values))
    if lo == hi:
        hi = lo + 1.0
    edges = np.linspace(lo, hi, bins + 1)
    counts, _ = np.histogram(values, bins=edges)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_left", "bin_right", "count"])
        for i, c in enumerate(counts):
            writer.writerow([repr(float(edges[i])), repr(float(edges[i + 1])), int(c)])


# ---------------------------------------------------------------------------
# tuning history


def write_history(path: Path, rows: Sequence[dict]) -> None:
    header = ["epoch", "train_nll", "val_nll", "sigma_accel"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([row["epoch"], *(repr(row[key]) for key in header[1:])] for row in rows)
