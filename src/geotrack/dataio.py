"""File formats for datasets, parameters, and reports.

All writers are deterministic (sorted keys, repr-exact floats) so that a
write -> read -> write round trip is byte-identical and identically seeded
pipeline runs produce identical files.

This module is the input boundary: every file enters through a reader here,
which returns validated values or raises an error naming the file (and line):
ValueError for a missing, unreadable or malformed file; NotPositiveDefiniteError
for a covariance that is not positive definite; RuntimeError for data that
parses but is wrong (timestamp disorder, no detections, no truth row).
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from pathlib import Path
from typing import Callable, Iterator, Sequence, TypeVar

import numpy as np

from .calibration import CalibrationParams
from .core import Arena, Gaussian2D, NotPositiveDefiniteError, ObjectPose
from .kalman import DetectionFrame, FilterParams
from .metrics import MetricReport
from .simulator import CameraNode, ScenarioConfig, default_scenario


def dumps(obj, indent: int | None = None) -> str:
    if indent is None:
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return json.dumps(obj, sort_keys=True, indent=indent)


def _f(x) -> float:
    return float(x)


# ---------------------------------------------------------------------------
# Gaussian records, and the readers every file goes through


def _gaussian_to_json(mean: np.ndarray, cov: np.ndarray) -> dict:
    return {
        "mean": [_f(mean[0]), _f(mean[1])],
        "cov": [[_f(cov[0, 0]), _f(cov[0, 1])], [_f(cov[1, 0]), _f(cov[1, 1])]],
    }


def _gaussian_from_json(rec: dict) -> Gaussian2D:
    return Gaussian2D(rec["mean"], rec["cov"])


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


def write_detections(path: Path, frames: Sequence[DetectionFrame]) -> None:
    with open(path, "w") as fh:
        for frame in frames:
            dets = [
                {"view": view, **_gaussian_to_json(g.mean, g.cov)} for view, g in frame.detections
            ]
            fh.write(dumps({"t": _f(frame.t), "detections": dets}) + "\n")


def _frame_from_json(rec: dict) -> DetectionFrame:
    return DetectionFrame(
        _time(rec["t"]), tuple((d["view"], _gaussian_from_json(d)) for d in rec["detections"])
    )


def read_detections(path: Path) -> list[DetectionFrame]:
    frames: list[DetectionFrame] = []
    for line_no, frame in _read_jsonl(path, _frame_from_json):
        if frames and not frame.t > frames[-1].t:
            raise RuntimeError(f"{path}: timestamp disorder at line {line_no}")
        frames.append(frame)
    if not any(f.detections for f in frames):
        raise RuntimeError(f"{path}: no detections")
    return frames


# ---------------------------------------------------------------------------
# truth: CSV with header t,x,y,heading,width,length

TRUTH_HEADER = ["t", "x", "y", "heading", "width", "length"]


def write_truth(path: Path, samples: Sequence[tuple[float, ObjectPose]]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRUTH_HEADER)
        for t, pose in samples:
            writer.writerow(
                [
                    repr(_f(t)),
                    repr(_f(pose.position[0])),
                    repr(_f(pose.position[1])),
                    repr(_f(pose.heading)),
                    repr(_f(pose.extent[0])),
                    repr(_f(pose.extent[1])),
                ]
            )


def read_truth(path: Path) -> list[tuple[float, ObjectPose]]:
    out = []
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
                t, x, y, heading, width, length = (float(v) for v in row)
                out.append((_time(t), ObjectPose((x, y), heading, (width, length))))
    except _MALFORMED as exc:
        raise _located(exc, path, line_no) from exc
    return out


def match_truth(
    times: Sequence[float], truth: Sequence[tuple[float, ObjectPose]], source: str
) -> list[ObjectPose]:
    """The truth pose at each of times. Matching is exact: simulate writes
    detections and truth from the same floats, each with repr."""
    by_t = dict(truth)
    missing = sum(1 for t in times if t not in by_t)
    if missing:
        raise RuntimeError(
            f"{source}: {missing} of {len(times)} timestamps have no matching truth row"
        )
    return [by_t[t] for t in times]


# ---------------------------------------------------------------------------
# scenario config


def scenario_to_dict(config: ScenarioConfig) -> dict:
    return {
        "arena": {"width": _f(config.arena.width), "length": _f(config.arena.length)},
        "nodes": [
            {
                "id": n.id,
                "position": [_f(n.position[0]), _f(n.position[1])],
                "facing": _f(n.facing),
                "fov": _f(n.fov),
                "noise_floor": _f(n.noise_floor),
                "noise_slope": _f(n.noise_slope),
                "miscalibration": [_f(n.miscalibration[0]), _f(n.miscalibration[1])],
            }
            for n in config.nodes
        ],
        "occluders": [list(r) for r in config.occluders],
        "lighting": config.lighting,
        "low_light_noise_multiplier": _f(config.low_light_noise_multiplier),
        "fps": _f(config.fps),
        "duration": _f(config.duration),
        "split": list(config.split),
        "object_extent": list(config.object_extent),
        "seed": int(config.seed),
        "fallback_rate": _f(config.fallback_rate),
        "fallback_sigma": _f(config.fallback_sigma),
        "ray_anisotropy": _f(config.ray_anisotropy),
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
    Path(path).write_text(dumps(scenario_to_dict(config), indent=2) + "\n")


# ---------------------------------------------------------------------------
# parameter files


def write_filter_params(path: Path, params: FilterParams) -> None:
    Path(path).write_text(
        dumps(
            {"sigma_accel": _f(params.sigma_accel), "init_vel_var": _f(params.init_vel_var)},
            indent=2,
        )
        + "\n"
    )


def read_filter_params(path: Path) -> FilterParams:
    return _read_json(
        path,
        lambda data: FilterParams(float(data["sigma_accel"]), float(data.get("init_vel_var", 1e4))),
    )


def write_calibration(path: Path, params: dict[str, CalibrationParams], shared: bool = False) -> None:
    Path(path).write_text(
        dumps(
            {
                "shared": shared,
                "views": {v: {"a": _f(p.a), "b": _f(p.b)} for v, p in params.items()},
            },
            indent=2,
        )
        + "\n"
    )


def read_calibration(path: Path) -> dict[str, CalibrationParams]:
    return _read_json(
        path, lambda data: {v: CalibrationParams(d["a"], d["b"]) for v, d in data["views"].items()}
    )


# ---------------------------------------------------------------------------
# track output


def write_track(path: Path, times: np.ndarray, means: np.ndarray, covs: np.ndarray) -> None:
    """One record per step: times (N,), means (N, 2), covs (N, 2, 2)."""
    with open(path, "w") as fh:
        for t, mean, cov in zip(times, means, covs):
            fh.write(dumps({"t": _f(t), **_gaussian_to_json(mean, cov)}) + "\n")


def _step_from_json(rec: dict) -> tuple[float, Gaussian2D]:
    return _time(rec["t"]), _gaussian_from_json(rec)


def read_track(path: Path) -> list[tuple[float, Gaussian2D]]:
    return [step for _, step in _read_jsonl(path, _step_from_json)]


# ---------------------------------------------------------------------------
# metric report


def write_report(path: Path, report: MetricReport) -> None:
    Path(path).write_text(dumps(report.to_dict(), indent=2) + "\n")


def _report_from_dict(data: dict) -> MetricReport:
    return MetricReport(
        nll=data["nll"],
        opm=data["opm"],
        det_pr=data["det_pr"],
        loc_a=data["loc_a"],
        seed=data["seed"],
        n_mc=data["n_mc"],
        alpha_sweep=tuple(data["alpha_sweep"]),
    )


def read_report(path: Path) -> MetricReport:
    return _read_json(path, _report_from_dict)


def write_report_row(path: Path, report: MetricReport) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["nll", "opm", "det_pr", "loc_a", "seed", "n_mc"])
        writer.writerow(
            [
                repr(report.nll),
                repr(report.opm),
                repr(report.det_pr),
                repr(report.loc_a),
                report.seed,
                report.n_mc,
            ]
        )


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
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_nll", "val_nll", "sigma_accel"])
        for row in rows:
            writer.writerow(
                [
                    row["epoch"],
                    repr(row["train_nll"]),
                    repr(row["val_nll"]),
                    repr(row["sigma_accel"]),
                ]
            )
