"""Command-line front end: simulate -> track -> calibrate -> tune -> evaluate
-> report, composing through files.

Each cmd_* function takes the parsed flags and the output directory, writes
its files there and returns their names with the values it resolved (a
seed, the filter parameters, the alpha sweep). main runs every command the
same way: it times it, resolves --out and writes the one manifest.json next
to the outputs: every input flag under "inputs", every other flag under
"options" as parsed, overlaid with the resolved values, the versions, the
elapsed time and the peak resident memory.

This module only parses flags and wires commands together: dataio reads,
validates and matches every input file. main maps errors to exit codes: 1
for data that parses but is wrong (RuntimeError, NotPositiveDefiniteError in
the input or mid-run); 2 for bad flags (UsageError), a missing or unreadable
file and malformed content (OSError, ValueError).
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import resource
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, calibration, dataio, forking, metrics, tuning
from .core import NotPositiveDefiniteError, Pairs
from .kalman import FilterParams, FrameBatch, run_track
from .simulator import default_scenario, simulate

DEFAULT_SIGMA_ACCEL = 100.0
OUT_ROOT_ENV = "GEOTRACK_OUT"

# Flags that name an input file or directory: the manifest lists them under
# "inputs" and every other flag under "options".
INPUT_FLAGS = frozenset({
    "config", "detections", "truth", "params", "calib", "init", "track", "run_dirs",
    "train_detections", "train_truth", "val_detections", "val_truth",
})


class UsageError(Exception):
    """Bad flags, unreadable config, malformed input format: exit code 2."""


def _out_dir(args) -> Path:
    if args.out is not None:
        out = Path(args.out)
    elif os.environ.get(OUT_ROOT_ENV):
        out = Path(os.environ[OUT_ROOT_ENV]) / args.command
    else:
        raise UsageError(f"--out is required (or set {OUT_ROOT_ENV})")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_manifest(out: Path, args, outputs: list[str], resolved: dict, elapsed: float) -> None:
    """Input flags under "inputs"; every other flag under "options" as parsed,
    with the command's resolved values written over them. peak_rss_mb is the
    process's peak resident set so far, which in a process that runs several
    commands covers the earlier ones too; peak_child_rss_mb is the largest
    of the children that this command's reads, writes, filter runs and
    calibration fits forked (each taking the second range of a file, of a
    batch of windows, of a long window's frames or of the views), 0 if
    none."""
    flags = {k: v for k, v in vars(args).items() if k not in ("func", "command", "out")}
    # ru_maxrss counts kilobytes (bytes on macOS).
    scale = 1024 * (1024 if sys.platform == "darwin" else 1)
    manifest = {
        "command": args.command,
        "options": {**{k: v for k, v in flags.items() if k not in INPUT_FLAGS}, **resolved},
        "inputs": {k: v for k, v in flags.items() if k in INPUT_FLAGS},
        "outputs": sorted(outputs),
        "versions": {
            "geotrack": __version__,
            "numpy": np.__version__,
            "python": "%d.%d.%d" % sys.version_info[:3],
        },
        "wall_clock_utc": datetime.now(timezone.utc).isoformat(),
        "elapsed_seconds": elapsed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / scale,
        "peak_child_rss_mb": forking.take_child_peak_rss() / scale,
    }
    dataio._write_json(out / "manifest.json", manifest)


def _parse_axis(spec: str) -> tuple[float, ...]:
    """Parse a grid axis spec "lo:hi:log60" or "lo:hi:lin51"."""
    try:
        lo_s, hi_s, tail = spec.split(":")
        lo, hi = float(lo_s), float(hi_s)
        kind, count = tail[:3], int(tail[3:])
    except (ValueError, IndexError) as exc:
        raise UsageError(f"bad grid axis spec {spec!r}; expected lo:hi:log<N> or lo:hi:lin<N>") from exc
    # A finite span also keeps numpy from overflowing as it spaces the axis.
    if not math.isfinite(hi - lo):
        raise UsageError(f"bad grid axis spec {spec!r}; lo, hi and hi - lo must be finite")
    if count < 1 or lo > hi:
        raise UsageError(f"bad grid axis spec {spec!r}; expected lo <= hi and a count of at least 1")
    if kind == "log":
        if not lo > 0.0:
            raise UsageError(f"bad grid axis spec {spec!r}; a log axis needs lo > 0")
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
    """Parse "lo:hi:count" or a comma-separated threshold list.

    The i-th of count thresholds is lo + i * (hi - lo) / (count - 1), taken
    exactly from the decimal strings and rounded once, so 0.05:0.95:19 is
    the default sweep to the bit.
    """
    try:
        if ":" in spec:
            lo_s, hi_s, count_s = spec.split(":")
            lo, hi, count = _exact_threshold(lo_s), _exact_threshold(hi_s), int(count_s)
            step = (hi - lo) / max(count - 1, 1)
            return metrics.AlphaSweep(tuple(float(lo + i * step) for i in range(count)))
        return metrics.AlphaSweep(tuple(float(v) for v in spec.split(",")))
    except ValueError as exc:
        raise UsageError(f"bad alpha sweep spec {spec!r}: {exc}") from exc


def _exact_threshold(text: str) -> "Fraction":
    """The exact value of a threshold's decimal string. It must lie in
    (0, 1) as a float first, which also keeps Fraction from expanding a
    huge exponent."""
    # Imported here: fractions loads decimal, about 0.35 MB of resident
    # memory that no other command needs.
    from fractions import Fraction

    if not 0.0 < float(text) < 1.0:
        raise ValueError(f"alpha thresholds must lie in (0, 1), got {text}")
    return Fraction(text)


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(args, out: Path) -> tuple[list[str], dict]:
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
    print(f"simulate: wrote {len(outputs)} files to {out}")
    return outputs, {"seed": config.seed, "resolved": dataio.scenario_to_dict(config)}


# ---------------------------------------------------------------------------
# track


def cmd_track(args, out: Path) -> tuple[list[str], dict]:
    batch = dataio.read_detections(Path(args.detections))
    params = _filter_params(args.params)
    calib = dataio.read_calibration(Path(args.calib)) if args.calib else None
    if calib is not None and not set(calib) & set(batch.views):
        raise ValueError(f"{args.calib}: calibrates none of the detections' views: {', '.join(batch.views)}")
    truth_pos = _truth_positions(batch, args.truth, args.detections) if args.truth else None

    try:
        result = run_track(batch, params, truth=truth_pos, calib=calib)
    except NotPositiveDefiniteError as exc:
        raise RuntimeError(f"{args.detections}: {exc}") from exc
    dataio.write_track(out / "track.jsonl", result.times, result.means, result.covs)
    n_steps = len(result.times)

    summary = {
        "n_frames": len(batch),
        "n_steps": n_steps,
        **dataclasses.asdict(params),
        "calibrated": bool(args.calib),
    }
    if truth_pos is not None:
        summary["total_nll"] = result.total_nll
        summary["mean_nll"] = result.mean_nll
    dataio._write_json(out / "summary.json", summary)

    # The track starts at the first frame with a detection.
    step_truth = truth_pos[len(batch) - n_steps :] if truth_pos is not None else None
    dataio.write_plot_data(out / "plot_data.csv", result.times, result.means, result.covs, step_truth)

    if truth_pos is not None:
        print(f"track: {n_steps} steps, mean NLL {result.mean_nll:.4f}")
    else:
        print(f"track: {n_steps} steps")
    return ["track.jsonl", "summary.json", "plot_data.csv"], {"params": dataclasses.asdict(params)}


# ---------------------------------------------------------------------------
# calibrate


def cmd_calibrate(args, out: Path) -> tuple[list[str], dict]:
    grid = calibration.CalibrationGrid(_parse_axis(args.grid_a), _parse_axis(args.grid_b))
    batch = dataio.read_detections(Path(args.detections))
    position = _truth_positions(batch, args.truth, args.detections)
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
    return ["calibration.json"], {}


# ---------------------------------------------------------------------------
# tune


def cmd_tune(args, out: Path) -> tuple[list[str], dict]:
    train = dataio.read_detections(Path(args.train_detections))
    val = dataio.read_detections(Path(args.val_detections))
    train_pos = _truth_positions(train, args.train_truth, args.train_detections)
    val_pos = _truth_positions(val, args.val_truth, args.val_detections)

    config = tuning.TuneConfig(seq_len=args.seq_len, epochs=args.epochs)
    train_windows = tuning.make_windows(train, train_pos, config.seq_len)
    val_windows = tuning.make_windows(val, val_pos, min(config.seq_len, len(val)))
    for source, (windows, _) in ((args.train_detections, train_windows), (args.val_detections, val_windows)):
        if not len(windows):
            raise RuntimeError(f"{source}: no window of {windows.t.shape[1]} frames holds a detection")

    base = _filter_params(args.params)
    if args.init:
        calib0 = dataio.read_calibration(Path(args.init))
        for view in train.views:
            calib0.setdefault(view, calibration.IDENTITY)
    else:
        calib0 = {view: calibration.IDENTITY for view in train.views}
    params0 = tuning.TunableParams.from_natural(base.sigma_accel, calib0)

    tuned, history = tuning.tune(config, params0, train_windows, val_windows, init_vel_var=base.init_vel_var)
    if history.meta["diverged"]:
        start = history.rows[0]
        split, source = (
            ("train", args.train_detections) if not math.isfinite(start["train_nll"])
            else ("validation", args.val_detections)
        )
        raise RuntimeError(f"{source}: the starting parameters' {split} NLL is not finite")
    sigma, calib = tuned.decode()
    dataio.write_filter_params(out / "tuned_params.json", FilterParams(sigma, base.init_vel_var))
    dataio.write_calibration(out / "tuned_calibration.json", calib)
    dataio.write_history(out / "history.csv", history.rows)
    dataio._write_json(out / "history_meta.json", history.meta)
    print(
        f"tune: {config.epochs} epochs, sigma_accel {sigma:.4g}, "
        f"val NLL {history.rows[0]['val_nll']:.4f} -> {history.meta['best_val_nll']:.4f} (best seen)"
    )
    outputs = ["tuned_params.json", "tuned_calibration.json", "history.csv", "history_meta.json"]
    return outputs, {"params": dataclasses.asdict(base)}


# ---------------------------------------------------------------------------
# evaluate


def cmd_evaluate(args, out: Path) -> tuple[list[str], dict]:
    if (args.track is None) == (args.detections is None):
        raise UsageError("provide exactly one of --track or --detections")
    if args.detections is not None and args.view is None:
        raise UsageError("--view is required when evaluating raw detections")
    if args.track is not None and args.view is not None:
        raise UsageError("--view applies only to --detections")

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

    sweep = metrics.default_sweep() if args.alpha_sweep is None else _parse_sweep(args.alpha_sweep)
    report = metrics.evaluate(records, sweep=sweep)
    dataio.write_report(out / "report.json", report)
    dataio.write_report_row(out / "report_row.csv", report)
    dataio.write_histogram(out / "nll_hist.csv", records.nll)
    print(
        f"evaluate: n={len(records)} nll={report.nll:.4f} opm={report.opm:.4f} "
        f"det_pr={report.det_pr:.4f} loc_a={report.loc_a:.4f}"
    )
    return ["report.json", "report_row.csv", "nll_hist.csv"], {"alpha_sweep": list(sweep.thresholds)}


# ---------------------------------------------------------------------------
# report


def cmd_report(args, out: Path) -> tuple[list[str], dict]:
    runs = []
    for run_dir in args.run_dirs:
        report_path = Path(run_dir) / "report.json"
        if not report_path.exists():
            print(f"warning: {report_path} missing; row flagged", file=sys.stderr)
            runs.append((Path(run_dir).name, None, None))
            continue
        runs.append((Path(run_dir).name, *dataio.read_report(report_path)))
    print(dataio.write_report_table(out / "report_table.csv", out / "report_table.txt", runs), end="")
    return ["report_table.csv", "report_table.txt"], {}


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
    p.add_argument("--grid-a", default="%g:%g:log%d" % calibration.DEFAULT_A_AXIS)
    p.add_argument("--grid-b", default="%g:%g:lin%d" % calibration.DEFAULT_B_AXIS)
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
    p.add_argument("--seq-len", type=int, default=tuning.TuneConfig.seq_len)
    p.add_argument("--epochs", type=int, default=tuning.TuneConfig.epochs)
    p.add_argument("--out")
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("evaluate", help="score a track or a single view's detections")
    p.add_argument("--track", help="track JSONL from the track command")
    p.add_argument("--detections", help="detections JSONL (requires --view)")
    p.add_argument("--view", help="view id to evaluate from --detections")
    p.add_argument("--truth", required=True)
    p.add_argument("--alpha-sweep", help="lo:hi:count or v1,v2,...; default 0.05, 0.10, ..., 0.95")
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
        started = time.monotonic()
        forking.take_child_peak_rss()  # children of the commands before this one
        out = _out_dir(args)
        outputs, resolved = args.func(args, out)
        _write_manifest(out, args, outputs, resolved, time.monotonic() - started)
        return 0
    except (UsageError, OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, (NotPositiveDefiniteError, RuntimeError)) else 2


if __name__ == "__main__":
    sys.exit(main())
