"""Output checks for each CLI operation, independent of the geotrack code.

They read the files a command wrote (plain json, csv and numpy) and test
seed-independent invariants, so they hold on every workload and seed. Each
check returns a list of error strings; an empty list means the outputs are
correct.
"""

from __future__ import annotations

import csv
import json
import math
from functools import lru_cache
from pathlib import Path

import numpy as np

LOG_TWO_PI = math.log(2.0 * math.pi)


def argv_options(argv) -> dict[str, str]:
    return {argv[i]: argv[i + 1] for i in range(len(argv) - 1) if argv[i].startswith("--")}


def _detections(path: str):
    """Yield (t, [(view, mean, cov), ...]) per line of a detections file."""
    with open(path) as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                yield rec["t"], [(d["view"], d["mean"], d["cov"]) for d in rec["detections"]]


@lru_cache(maxsize=8)
def detection_counts(path: str) -> tuple[int, ...]:
    """Number of detections in each frame of a detections file."""
    return tuple(len(dets) for _, dets in _detections(path))


def _truth(path: str) -> dict[float, tuple[float, float]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return {float(r[0]): (float(r[1]), float(r[2])) for r in rows}


def _lines(path: Path) -> list[str]:
    return [line for line in path.read_text().splitlines() if line.strip()]


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def check_simulate(out: Path, argv) -> list[str]:
    errors = []
    for split in ("train", "val", "test"):
        det, truth = out / f"detections_{split}.jsonl", out / f"truth_{split}.csv"
        if not det.exists() or not truth.exists():
            errors.append(f"simulate: {split} split files missing")
            continue
        n_det, n_truth = len(_lines(det)), len(_lines(truth)) - 1
        if n_det != n_truth:
            errors.append(f"simulate: {split} has {n_det} frames but {n_truth} truth rows")
    return errors


def check_track(out: Path, argv) -> list[str]:
    counts = detection_counts(argv_options(argv)["--detections"])
    start = next((i for i, n in enumerate(counts) if n), len(counts))
    expected = len(counts) - start
    steps = _lines(out / "track.jsonl")
    summary = json.loads((out / "summary.json").read_text())
    errors = []
    if len(steps) != expected or summary["n_steps"] != expected:
        errors.append(
            f"track: {len(steps)} steps (summary {summary['n_steps']}), expected "
            f"{expected} frames from initialisation on"
        )
    if "mean_nll" in summary and not _finite(summary["mean_nll"]):
        errors.append(f"track: mean NLL {summary['mean_nll']} is not finite")
    return errors


def _nll(pairs: np.ndarray, a: float, b: float) -> float:
    """Mean NLL of truth under detections with covariance a*cov + b*I.
    Columns of ``pairs``: rx, ry, cxx, cxy, cyy."""
    rx, ry, cxx, cxy, cyy = pairs.T
    pxx, pyy, pxy = a * cxx + b, a * cyy + b, a * cxy
    det = pxx * pyy - pxy * pxy
    quad = (rx * rx * pyy - 2.0 * rx * ry * pxy + ry * ry * pxx) / det
    return float(LOG_TWO_PI + 0.5 * np.mean(np.log(det)) + 0.5 * np.mean(quad))


def check_calibrate(out: Path, argv) -> list[str]:
    opts = argv_options(argv)
    truth = _truth(opts["--truth"])
    by_view: dict[str, list] = {}
    for t, dets in _detections(opts["--detections"]):
        tx, ty = truth[t]
        for view, mean, cov in dets:
            by_view.setdefault(view, []).append(
                (tx - mean[0], ty - mean[1], cov[0][0], cov[0][1], cov[1][1])
            )
    fitted = json.loads((out / "calibration.json").read_text())["views"]
    errors = []
    if sorted(fitted) != sorted(by_view):
        errors.append(f"calibrate: views {sorted(fitted)}, expected {sorted(by_view)}")
    for view, p in sorted(fitted.items()):
        pairs = np.array(by_view.get(view, []), dtype=float).reshape(-1, 5)
        before, after = _nll(pairs, 1.0, 0.0), _nll(pairs, p["a"], p["b"])
        if not after <= before + 1e-9 * abs(before):
            errors.append(f"calibrate: {view} val NLL {after} > uncalibrated {before}")
    return errors


def check_tune(out: Path, argv) -> list[str]:
    epochs = int(argv_options(argv)["--epochs"])
    with open(out / "history.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    meta = json.loads((out / "history_meta.json").read_text())
    params = json.loads((out / "tuned_params.json").read_text())
    errors = []
    if len(rows) != epochs + 1:
        errors.append(f"tune: {len(rows)} history rows, expected {epochs + 1}")
    values = [float(r[k]) for r in rows for k in ("train_nll", "val_nll", "sigma_accel")]
    if not _finite(*values, params["sigma_accel"]) or meta.get("diverged"):
        errors.append("tune: history or tuned parameters not finite, or diverged")
    elif not meta["best_val_nll"] <= float(rows[0]["val_nll"]):
        errors.append(f"tune: best val NLL {meta['best_val_nll']} > epoch-0 {rows[0]['val_nll']}")
    return errors


def check_evaluate(out: Path, argv) -> list[str]:
    report = json.loads((out / "report.json").read_text())
    errors = []
    if not _finite(report["nll"]):
        errors.append(f"evaluate: NLL {report['nll']} is not finite")
    for key in ("opm", "det_pr", "loc_a"):
        if not (_finite(report[key]) and 0.0 <= report[key] <= 1.0):
            errors.append(f"evaluate: {key} {report[key]} outside [0, 1]")
    return errors


def check_report(out: Path, argv) -> list[str]:
    with open(out / "report_table.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    run_dirs = [a for a in argv[1:] if not a.startswith("--") and a != argv_options(argv).get("--out")]
    errors = []
    if len(rows) != 1 + len(run_dirs) or any("MISSING" in r for r in rows):
        errors.append(f"report: table rows {rows[1:]} do not cover {run_dirs}")
    return errors


CHECKS = {
    "simulate": check_simulate,
    "track": check_track,
    "calibrate": check_calibrate,
    "tune": check_tune,
    "evaluate": check_evaluate,
    "report": check_report,
}


def check(command: str, out: Path, argv) -> list[str]:
    """Run the check for ``command``; a missing or unreadable output is an error."""
    try:
        return CHECKS[command](out, argv)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"{command}: cannot read outputs in {out}: {type(exc).__name__}: {exc}"]
