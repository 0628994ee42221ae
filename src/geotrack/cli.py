"""Command-line front end: simulate -> track -> calibrate -> tune -> evaluate
-> report, composing through files. Every command writes a manifest next to
its outputs recording the resolved options, inputs, and versions.

This module only parses flags and wires commands together: dataio reads,
validates and matches every input file. main maps errors to exit codes: 1
for data that parses but is wrong (RuntimeError, NotPositiveDefiniteError in
the input or mid-run); 2 for bad flags (UsageError), a missing or unreadable
file and malformed content (OSError, ValueError).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import math
import os
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, calibration, dataio, metrics, tuning
from .core import NotPositiveDefiniteError, Pairs
from .kalman import FilterParams, FrameBatch, run_track
from .simulator import default_scenario, simulate

# 95% quantile of chi-squared with 2 dof, for confidence ellipses.
CHI2_95_2D = -2.0 * math.log(0.05)

DEFAULT_SIGMA_ACCEL = 100.0
OUT_ROOT_ENV = "GEOTRACK_OUT"


class UsageError(Exception):
    """Bad flags, unreadable config, malformed input format: exit code 2."""


def _out_dir(args, command: str) -> Path:
    if args.out is not None:
        out = Path(args.out)
    elif os.environ.get(OUT_ROOT_ENV):
        out = Path(os.environ[OUT_ROOT_ENV]) / command
    else:
        raise UsageError(f"--out is required (or set {OUT_ROOT_ENV})")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_manifest(
    out: Path, command: str, options: dict, inputs: dict, outputs: list[str], elapsed: float
) -> None:
    manifest = {
        "command": command,
        "options": options,
        "inputs": inputs,
        "outputs": sorted(outputs),
        "versions": {"geotrack": __version__},
        "wall_clock_utc": datetime.now(timezone.utc).isoformat(),
        "elapsed_seconds": elapsed,
    }
    (out / "manifest.json").write_text(dataio.dumps(manifest, indent=2) + "\n")


def _parse_axis(spec: str) -> tuple[float, ...]:
    """Parse a grid axis spec "lo:hi:log60" or "lo:hi:lin51"."""
    try:
        lo_s, hi_s, tail = spec.split(":")
        lo, hi = float(lo_s), float(hi_s)
        kind, count = tail[:3], int(tail[3:])
    except (ValueError, IndexError) as exc:
        raise UsageError(f"bad grid axis spec {spec!r}; expected lo:hi:log<N> or lo:hi:lin<N>") from exc
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise UsageError(f"bad grid axis spec {spec!r}; lo and hi must be finite")
    if kind == "log":
        return calibration.log_spaced_axis(lo, hi, count)
    if kind == "lin":
        return calibration.linear_axis(lo, hi, count)
    raise UsageError(f"bad grid axis kind {kind!r} in {spec!r}")


def _truth_positions(batch: FrameBatch, truth_path: str, source: str) -> np.ndarray:
    """The truth position (T, 2) at each frame of a one-window batch."""
    truth = dataio.read_truth(Path(truth_path))
    return truth.positions[dataio.match_truth(batch.t[0], truth, source)]


def _filter_params(path: str | None) -> FilterParams:
    return dataio.read_filter_params(Path(path)) if path else FilterParams(DEFAULT_SIGMA_ACCEL)


def _parse_sweep(spec: str) -> metrics.AlphaSweep:
    """Parse "lo:hi:count" or a comma-separated threshold list."""
    try:
        if ":" in spec:
            lo, hi, count = spec.split(":")
            return metrics.AlphaSweep(tuple(np.linspace(float(lo), float(hi), int(count))))
        return metrics.AlphaSweep(tuple(float(v) for v in spec.split(",")))
    except ValueError as exc:
        raise UsageError(f"bad alpha sweep spec {spec!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(args) -> int:
    started = time.monotonic()
    out = _out_dir(args, "simulate")
    if args.config is not None:
        config = dataio.load_scenario(Path(args.config))
    else:
        config = default_scenario()
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)

    dataset = simulate(config)
    outputs = ["scenario_resolved.json"]
    dataio.write_scenario(out / "scenario_resolved.json", config)
    for split, (batch, truth) in dataset.items():
        det_name = f"detections_{split}.jsonl"
        truth_name = f"truth_{split}.csv"
        dataio.write_detections(out / det_name, batch)
        dataio.write_truth(out / truth_name, truth)
        outputs += [det_name, truth_name]
    _write_manifest(
        out,
        "simulate",
        options={"config": args.config, "seed": config.seed, "resolved": dataio.scenario_to_dict(config)},
        inputs={"config": args.config},
        outputs=outputs,
        elapsed=time.monotonic() - started,
    )
    print(f"simulate: wrote {len(outputs)} files to {out}")
    return 0


# ---------------------------------------------------------------------------
# track


def cmd_track(args) -> int:
    started = time.monotonic()
    out = _out_dir(args, "track")
    batch = dataio.read_detections(Path(args.detections))
    params = _filter_params(args.params)
    calib = dataio.read_calibration(Path(args.calib)) if args.calib else None
    truth_pos = _truth_positions(batch, args.truth, args.detections) if args.truth else None

    # The summary needs the NLL only, not its gradient: no tangents.
    result = run_track(batch, params, truth=truth_pos, calib=calib, grad=False)
    dataio.write_track(out / "track.jsonl", result.times, result.means, result.covs)
    n_steps = len(result.times)

    summary = {
        "n_frames": len(batch),
        "n_steps": n_steps,
        "sigma_accel": params.sigma_accel,
        "init_vel_var": params.init_vel_var,
        "calibrated": bool(args.calib),
    }
    if truth_pos is not None:
        summary["total_nll"] = result.total_nll
        summary["mean_nll"] = result.mean_nll
    (out / "summary.json").write_text(dataio.dumps(summary, indent=2) + "\n")

    # The track starts at the first frame with a detection.
    step_truth = truth_pos[len(batch) - n_steps :].tolist() if truth_pos is not None else [None] * n_steps
    evals, evecs = np.linalg.eigh(result.covs)
    axes = np.sqrt(CHI2_95_2D * evals).tolist()
    rows = zip(result.times.tolist(), result.means.tolist(), axes, evecs, step_truth)
    with open(out / "plot_data.csv", "w") as fh:
        fh.write("t,truth_x,truth_y,mean_x,mean_y,ell_major,ell_minor,ell_angle\n")
        for t, (mx, my), (minor, major), evec, xy in rows:
            angle = math.atan2(evec[1, 1], evec[0, 1])
            tx, ty = map(repr, xy) if xy else ("", "")
            fh.write(f"{t!r},{tx},{ty},{mx!r},{my!r},{major!r},{minor!r},{angle!r}\n")

    _write_manifest(
        out,
        "track",
        options={
            "params": {"sigma_accel": params.sigma_accel, "init_vel_var": params.init_vel_var},
            "calib": args.calib,
        },
        inputs={"detections": args.detections, "truth": args.truth, "calib": args.calib, "params": args.params},
        outputs=["track.jsonl", "summary.json", "plot_data.csv"],
        elapsed=time.monotonic() - started,
    )
    if truth_pos is not None:
        print(f"track: {n_steps} steps, mean NLL {result.mean_nll:.4f}")
    else:
        print(f"track: {n_steps} steps")
    return 0


# ---------------------------------------------------------------------------
# calibrate


def cmd_calibrate(args) -> int:
    started = time.monotonic()
    out = _out_dir(args, "calibrate")
    batch = dataio.read_detections(Path(args.detections))
    position = _truth_positions(batch, args.truth, args.detections)
    grid = calibration.CalibrationGrid(_parse_axis(args.grid_a), _parse_axis(args.grid_b))
    # The batch's columns view by view: (V, T, ...), each detection once.
    mean, cov, mask = (np.moveaxis(a[0], 1, 0) for a in (batch.mean, batch.cov, batch.mask))
    truth = np.broadcast_to(position, mask.shape + (2,))

    def pairs(rows) -> Pairs:
        return Pairs(mean[rows], cov[rows], truth[rows])

    fitted: dict[str, calibration.CalibrationParams] = {}
    if args.shared:
        pooled = pairs(mask)
        params, best = calibration.fit(grid, pooled)
        for view in batch.views:
            fitted[view] = params
        print(f"shared: a={params.a:.4g} b={params.b:.4g} nll {np.mean(pooled.nll):.4f} -> {best:.4f}")
    else:
        by_view = {view: pairs((j, mask[j])) for j, view in enumerate(batch.views)}
        result = calibration.fit_per_view(grid, by_view)
        for view, msg in sorted(result.errors.items()):
            print(f"{view}: fit failed: {msg}", file=sys.stderr)
        for view in sorted(result.params):
            p = result.params[view]
            before = float(np.mean(by_view[view].nll))
            fitted[view] = p
            print(f"{view}: a={p.a:.4g} b={p.b:.4g} nll {before:.4f} -> {result.best_nll[view]:.4f}")

    dataio.write_calibration(out / "calibration.json", fitted, shared=args.shared)
    _write_manifest(
        out,
        "calibrate",
        options={"grid_a": args.grid_a, "grid_b": args.grid_b, "shared": args.shared},
        inputs={"detections": args.detections, "truth": args.truth},
        outputs=["calibration.json"],
        elapsed=time.monotonic() - started,
    )
    return 0


# ---------------------------------------------------------------------------
# tune


def cmd_tune(args) -> int:
    started = time.monotonic()
    out = _out_dir(args, "tune")
    train = dataio.read_detections(Path(args.train_detections))
    val = dataio.read_detections(Path(args.val_detections))
    train_pos = _truth_positions(train, args.train_truth, args.train_detections)
    val_pos = _truth_positions(val, args.val_truth, args.val_detections)

    config = tuning.TuneConfig(
        seq_len=args.seq_len, epochs=args.epochs, lr=args.lr
    )
    train_windows = tuning.make_windows(train, train_pos, config.seq_len)
    val_windows = tuning.make_windows(val, val_pos, min(config.seq_len, len(val)))

    base = _filter_params(args.params)
    if args.init:
        calib0 = dataio.read_calibration(Path(args.init))
        for view in train.views:
            calib0.setdefault(view, calibration.IDENTITY)
    else:
        calib0 = {view: calibration.IDENTITY for view in train.views}
    params0 = tuning.TunableParams.from_natural(base.sigma_accel, calib0)

    tuned, history = tuning.tune(
        config,
        params0,
        train_windows,
        val_windows,
        seed=args.seed,
        init_vel_var=base.init_vel_var,
    )
    sigma, calib = tuned.decode()
    dataio.write_filter_params(out / "tuned_params.json", FilterParams(sigma, base.init_vel_var))
    dataio.write_calibration(out / "tuned_calibration.json", calib)
    dataio.write_history(out / "history.csv", history.rows)
    (out / "history_meta.json").write_text(
        dataio.dumps({"diverged": history.diverged, **history.meta}, indent=2) + "\n"
    )
    _write_manifest(
        out,
        "tune",
        options={
            "seq_len": config.seq_len,
            "epochs": config.epochs,
            "lr": config.lr,
            "seed": args.seed,
            "init": args.init,
        },
        inputs={
            "train_detections": args.train_detections,
            "train_truth": args.train_truth,
            "val_detections": args.val_detections,
            "val_truth": args.val_truth,
        },
        outputs=["tuned_params.json", "tuned_calibration.json", "history.csv", "history_meta.json"],
        elapsed=time.monotonic() - started,
    )
    best = history.meta.get("best_val_nll", history.rows[-1]["val_nll"])
    print(
        f"tune: {config.epochs} epochs, sigma_accel {sigma:.4g}, "
        f"val NLL {history.rows[0]['val_nll']:.4f} -> {best:.4f} (best seen)"
    )
    return 0


# ---------------------------------------------------------------------------
# evaluate


def cmd_evaluate(args) -> int:
    started = time.monotonic()
    out = _out_dir(args, "evaluate")
    if (args.track is None) == (args.detections is None):
        raise UsageError("provide exactly one of --track or --detections")
    if args.detections is not None and args.view is None:
        raise UsageError("--view is required when evaluating raw detections")

    truth = dataio.read_truth(Path(args.truth))
    if args.track is not None:
        times, mean, cov = dataio.read_track(Path(args.track))
        source = args.track
    else:
        batch = dataio.read_detections(Path(args.detections))
        # The view's column of the mask; all False if the file lacks the view.
        present = batch.mask[0] & (np.array(batch.views) == args.view)
        times, mean, cov = batch.t[0][present.any(axis=1)], batch.mean[0][present], batch.cov[0][present]
        source = f"{args.detections}[view={args.view}]"
    if not len(times):
        raise RuntimeError(f"{source}: no predictions to evaluate")

    truth = truth[dataio.match_truth(times, truth, source)]
    records = metrics.Records(mean, cov, truth.positions, truth.headings, truth.extent)

    sweep = _parse_sweep(args.alpha_sweep)
    report = metrics.evaluate(records, sweep=sweep, n_mc=args.mc_samples, seed=args.seed)
    dataio.write_report(out / "report.json", report)
    dataio.write_report_row(out / "report_row.csv", report)
    dataio.write_histogram(out / "nll_hist.csv", records.nll)
    _write_manifest(
        out,
        "evaluate",
        options={
            "alpha_sweep": list(sweep.thresholds),
            "mc_samples": args.mc_samples,
            "seed": args.seed,
            "view": args.view,
        },
        inputs={"track": args.track, "detections": args.detections, "truth": args.truth},
        outputs=["report.json", "report_row.csv", "nll_hist.csv"],
        elapsed=time.monotonic() - started,
    )
    print(
        f"evaluate: n={len(records)} nll={report.nll:.4f} opm={report.opm:.4f} "
        f"det_pr={report.det_pr:.4f} loc_a={report.loc_a:.4f}"
    )
    return 0


# ---------------------------------------------------------------------------
# report


def cmd_report(args) -> int:
    started = time.monotonic()
    out = _out_dir(args, "report")
    header = ["run", "nll", "opm", "det_pr", "loc_a", "fingerprint"]
    rows: list[list[str]] = []
    for run_dir in args.run_dirs:
        report_path = Path(run_dir) / "report.json"
        name = Path(run_dir).name
        if not report_path.exists():
            print(f"warning: {report_path} missing; row flagged", file=sys.stderr)
            rows.append([name, "MISSING", "MISSING", "MISSING", "MISSING", "-"])
            continue
        report = dataio.read_report(report_path)
        fingerprint = hashlib.sha256(report_path.read_bytes()).hexdigest()[:12]
        rows.append(
            [
                name,
                repr(report.nll),
                repr(report.opm),
                repr(report.det_pr),
                repr(report.loc_a),
                fingerprint,
            ]
        )

    with open(out / "report_table.csv", "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header] + rows)
    widths = [max(len(r[i]) for r in [header] + rows) for i in range(len(header))]
    txt_lines = [
        "  ".join(value.ljust(widths[i]) for i, value in enumerate(row))
        for row in [header] + rows
    ]
    (out / "report_table.txt").write_text("\n".join(txt_lines) + "\n")
    _write_manifest(
        out,
        "report",
        options={},
        inputs={"run_dirs": list(args.run_dirs)},
        outputs=["report_table.csv", "report_table.txt"],
        elapsed=time.monotonic() - started,
    )
    print("\n".join(txt_lines))
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geotrack",
        description="Synthetic multi-view geospatial tracking pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic dataset")
    p.add_argument("--config", help="scenario config JSON (bundled defaults if omitted)")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--out")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("track", help="run the tracker over a detections file")
    p.add_argument("--detections", required=True)
    p.add_argument("--truth", help="truth CSV; enables NLL in the summary")
    p.add_argument("--params", help="filter params JSON")
    p.add_argument("--calib", help="calibration JSON applied before fusion")
    p.add_argument("--out")
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("calibrate", help="grid-search per-view covariance calibration")
    p.add_argument("--detections", required=True, help="validation detections")
    p.add_argument("--truth", required=True, help="validation truth CSV")
    p.add_argument("--grid-a", default="0.05:10:log60")
    p.add_argument("--grid-b", default="0:500:lin51")
    p.add_argument("--shared", action="store_true", help="fit one (a, b) across views")
    p.add_argument("--out")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("tune", help="fine-tune filter and calibration parameters")
    p.add_argument("--train-detections", required=True)
    p.add_argument("--train-truth", required=True)
    p.add_argument("--val-detections", required=True)
    p.add_argument("--val-truth", required=True)
    p.add_argument("--init", help="initial calibration JSON")
    p.add_argument("--params", help="filter params JSON for the starting point")
    p.add_argument("--seq-len", type=int, default=100)
    p.add_argument("--epochs", type=int, default=5)
    p.add_argument("--lr", type=float, default=1e-4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("evaluate", help="score a track or a single view's detections")
    p.add_argument("--track", help="track JSONL from the track command")
    p.add_argument("--detections", help="detections JSONL (requires --view)")
    p.add_argument("--view", help="view id to evaluate from --detections")
    p.add_argument("--truth", required=True)
    p.add_argument("--alpha-sweep", default="0.05:0.95:19")
    p.add_argument("--mc-samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("report", help="consolidate metric reports into one table")
    p.add_argument("run_dirs", nargs="+")
    p.add_argument("--out")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (UsageError, OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, (NotPositiveDefiniteError, RuntimeError)) else 2


if __name__ == "__main__":
    sys.exit(main())
