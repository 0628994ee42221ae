"""Per-layer instrumentation of the geotrack package, from outside it.

``install`` wraps the public functions of each package module (the layers)
with tracer spans, plus ``core.Gaussian2D`` construction, and adds hooks
that count work where it happens. ``layer_metrics`` turns one traced
sample's spans and counts into the per-layer metrics. ``heads`` is not a
layer here: no CLI stage calls it.
"""

from __future__ import annotations

import importlib
import inspect
import os
from collections import Counter

from stats import percentile, tail_percentile
from tracer import Tracer

LAYERS = ("simulator", "dataio", "core", "kalman", "calibration", "tuning", "metrics", "cli")
STAGES = ("simulate", "track", "calibrate", "tune", "evaluate", "report")
SEQUENCE_LOSS = "tuning.sequence_loss"


def _bound(fn):
    signature = inspect.signature(fn)

    def arguments(args, kwargs) -> dict:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    return arguments


def _hooks(modules) -> dict:
    kalman, calibration, metrics, dataio = (
        modules[m] for m in ("kalman", "calibration", "metrics", "dataio")
    )
    run_sequence_args = _bound(kalman.run_sequence)
    fit_args = _bound(calibration.fit)
    evaluate_args = _bound(metrics.evaluate)

    def run_sequence(c: Counter, args, kwargs, result, ns):
        a = run_sequence_args(args, kwargs)
        frames, width = a["frames"], a["n_params"]
        kind = "k1" if width == 1 else "kN"
        c["kalman.frames"] += len(frames)
        c[f"kalman.frames.{kind}"] += len(frames)
        c[f"kalman.run_sequence_ns.{kind}"] += ns
        c["kalman.detections_fused"] += sum(len(f.detections) for f in frames)
        c["kalman.empty_frames"] += sum(1 for f in frames if not f.detections)
        c["kalman.tangent_width"] = max(c["kalman.tangent_width"], width)

    def fit(c: Counter, args, kwargs, result, ns):
        a = fit_args(args, kwargs)
        grid = a["grid"]
        c["calibration.fit.pair_cells"] += len(a["pairs"]) * len(grid.a_values) * len(grid.b_values)

    def evaluate(c: Counter, args, kwargs, result, ns):
        a = evaluate_args(args, kwargs)
        c["metrics.records"] += len(a["records"])
        c["metrics.mc_samples"] += len(a["records"]) * a["n_mc"]

    def build_dataset(c: Counter, args, kwargs, result, ns):
        for records in result.values():
            c["simulator.frames"] += len(records)
            c["simulator.detections"] += sum(len(f.detections) for f, _ in records)

    def read_detections(c: Counter, args, kwargs, result, ns):
        c["dataio.read_detections.frames"] += len(result)
        bytes_read(c, args, kwargs, result, ns)

    def bytes_read(c: Counter, args, kwargs, result, ns):
        c["dataio.bytes_read"] += os.path.getsize(args[0])

    def bytes_written(c: Counter, args, kwargs, result, ns):
        c["dataio.bytes_written"] += os.path.getsize(args[0])

    hooks = {
        "kalman.run_sequence": run_sequence,
        "calibration.fit": fit,
        "metrics.evaluate": evaluate,
        "simulator.build_dataset": build_dataset,
    }
    for name in vars(dataio):
        if name.startswith(("read_", "load_")):
            hooks[f"dataio.{name}"] = bytes_read
        elif name.startswith("write_"):
            hooks[f"dataio.{name}"] = bytes_written
    hooks["dataio.read_detections"] = read_detections
    return hooks


def install(tracer: Tracer) -> None:
    """Wrap every layer of the imported geotrack package with spans."""
    package = importlib.import_module("geotrack")
    modules = {name: importlib.import_module(f"geotrack.{name}") for name in LAYERS}
    namespaces = [package, importlib.import_module("geotrack.heads"), *modules.values()]
    tracer.install_modules(modules, namespaces, _hooks(modules))
    gaussian = modules["core"].Gaussian2D
    tracer.patch(gaussian, "__post_init__", tracer.wrap("core.Gaussian2D", gaussian.__post_init__))


def _per(numerator: float, denominator: float, scale: float = 1.0) -> float:
    return numerator * scale / denominator if denominator else 0.0


def layer_metrics(
    tracer: Tracer, cli_self_ns: dict[str, int], tune_grad_windows: int, scale: float = 1.0
) -> dict:
    """Per-layer metrics of one traced sample.

    ``cli_self_ns`` maps each stage to the self time of cli spans while that
    stage's commands ran; ``tune_grad_windows`` is the number of window
    losses whose gradient drives an optimizer step (epochs x train windows).
    Every time is multiplied by ``scale``, the sample's host-speed factor.
    A layer the workload does not call reads 0.
    """
    c = tracer.counters

    def s(name: str) -> float:
        return tracer.total_s(name) * scale

    kept = sorted(tracer.durations.get(SEQUENCE_LOSS, []))
    tail = tail_percentile(len(kept))
    loss_calls = tracer.calls(SEQUENCE_LOSS)
    run_sequence_s = s("kalman.run_sequence")
    out = {
        "simulator.build_dataset_s": s("simulator.build_dataset"),
        "simulator.us_per_frame": _per(s("simulator.build_dataset"), c["simulator.frames"], 1e6),
        "simulator.frames": c["simulator.frames"],
        "simulator.detections": c["simulator.detections"],
        "dataio.read_detections_s": s("dataio.read_detections"),
        "dataio.read_detections.us_per_frame": _per(
            s("dataio.read_detections"), c["dataio.read_detections.frames"], 1e6
        ),
        "dataio.read_truth_s": s("dataio.read_truth"),
        "dataio.write_detections_s": s("dataio.write_detections"),
        "dataio.write_track_s": s("dataio.write_track"),
        "dataio.bytes_read": c["dataio.bytes_read"],
        "dataio.bytes_written": c["dataio.bytes_written"],
        "core.Gaussian2D.constructions": tracer.calls("core.Gaussian2D"),
        "core.Gaussian2D_s": s("core.Gaussian2D"),
        "kalman.run_sequence.calls": tracer.calls("kalman.run_sequence"),
        "kalman.frames": c["kalman.frames"],
        "kalman.detections_fused": c["kalman.detections_fused"],
        "kalman.empty_frames": c["kalman.empty_frames"],
        "kalman.tangent_width": c["kalman.tangent_width"],
        "kalman.us_per_frame.k1": _per(c["kalman.run_sequence_ns.k1"], c["kalman.frames.k1"], scale / 1e3),
        "kalman.us_per_frame.kN": _per(c["kalman.run_sequence_ns.kN"], c["kalman.frames.kN"], scale / 1e3),
        "kalman.update_s": s("kalman.update"),
        "kalman.update.calls": tracer.calls("kalman.update"),
        "kalman.update.share": _per(s("kalman.update"), run_sequence_s),
        "kalman.predict_s": s("kalman.predict"),
        "calibration.fit_s": s("calibration.fit"),
        "calibration.fit.calls": tracer.calls("calibration.fit"),
        "calibration.fit.pair_cells": c["calibration.fit.pair_cells"],
        "calibration.fit.ns_per_pair_cell": _per(
            s("calibration.fit"), c["calibration.fit.pair_cells"], 1e9
        ),
        "tuning.tune_s": s("tuning.tune"),
        "tuning.sequence_loss.calls": loss_calls,
        "tuning.sequence_loss.ms_p50": percentile(kept, 50.0) * scale / 1e6 if kept else 0.0,
        "tuning.sequence_loss.ms_tail": percentile(kept, tail) * scale / 1e6 if tail else 0.0,
        "tuning.grad_used_ratio": _per(tune_grad_windows, loss_calls),
        "tuning.windows_per_s": _per(loss_calls, s("tuning.tune")),
        "metrics.evaluate_s": s("metrics.evaluate"),
        "metrics.records": c["metrics.records"],
        "metrics.mc_samples": c["metrics.mc_samples"],
        "metrics.ns_per_mc_sample": _per(s("metrics.evaluate"), c["metrics.mc_samples"], 1e9),
        "metrics.mean_nll_s": s("metrics.mean_nll"),
    }
    for stage in STAGES:
        out[f"cli.{stage}.self_s"] = cli_self_ns.get(stage, 0) * scale / 1e9
    return out
