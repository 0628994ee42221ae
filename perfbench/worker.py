"""One benchmark sample: set up a workload and run its CLI pipeline once.

Run by run.py as a fresh child process, with the geotrack sources on
PYTHONPATH and BLAS pinned to one thread:

    python3 perfbench/worker.py --workload walkthrough --seed 7 \
        --workdir <empty dir> [--trace] [--setup-only]

Set-up is importing geotrack and generating the workload's inputs from the
seed. Each operation is timed around ``geotrack.cli.main`` and then checked
(outside the timed region). Times are corrected for the host's speed by a
hostspeed.SpeedProbe that runs from the start of set-up to the end. The
result is written to <workdir>/result.json.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path


def _run_cli(cli, argv, log) -> tuple[int, float, float, str]:
    """Exit code, start and end perf_counter, and for an exception that
    escaped main, its description."""
    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        start = time.perf_counter()
        try:
            rc = cli.main(list(argv))
            note = ""
        except Exception as exc:  # a traceback escaping main is a failed operation
            rc = -1
            note = "".join(traceback.format_exception_only(type(exc), exc)).strip()
        end = time.perf_counter()
    return rc, start, end, note


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    # Imports are set-up too: the parent times set-up from the spawn.
    from hostspeed import SpeedProbe

    probe = SpeedProbe()
    probe.start()
    try:
        return run(args, probe)
    finally:
        # Disarm the timer on every path: a SIGALRM after the handler is
        # reset at exit would kill the process.
        probe.stop()


def run(args, probe) -> int:
    """Set up, run the workload once, write result.json; the exit code."""
    import numpy

    import checks
    import workloads
    from geotrack import cli

    workload = workloads.get(args.workload, args.seed)
    tracer = None
    if args.trace:
        import layers
        from tracer import Tracer

        tracer = Tracer(keep=[layers.SEQUENCE_LOSS])
        layers.install(tracer)

    os.chdir(args.workdir)
    started = probe.ticks[0][0]
    result: dict = {"numpy": numpy.__version__, "ops": []}
    cli_self_ns: dict[str, int] = {}
    tune_grad_windows = 0
    with open("cli.log", "w") as log:

        def run_op(stage: str, argv) -> tuple[int, float, float, str]:
            before = tracer.layer_self_ns("cli") if tracer else 0
            outcome = _run_cli(cli, argv, log)
            if tracer:
                cli_self_ns[stage] = cli_self_ns.get(stage, 0) + tracer.layer_self_ns("cli") - before
            return outcome

        if workload.scenario is not None:
            Path("scenario.json").write_text(json.dumps(workload.scenario, indent=2) + "\n")
        if workload.setup_simulate is not None:
            rc, _, _, note = run_op("simulate", workload.setup_simulate)
            errors = checks.check("simulate", Path("sim"), workload.setup_simulate)
            if rc != 0 or errors:
                print(f"set-up simulate failed (exit {rc}): {note} {errors}", file=sys.stderr)
                return 1
        result["setup_end_wall"] = time.time()
        setup_end = time.perf_counter()
        result["setup_factor"] = probe.factor(started, setup_end)
        result["setup_probe_s"] = probe.probe_time(started, setup_end)
        if args.setup_only:
            Path("result.json").write_text(json.dumps(result))
            return 0

        # Probes run last, untraced, so their time reaches no metric.
        ordered = [op for op in workload.ops if not op.probe] + [op for op in workload.ops if op.probe]
        for op in ordered:
            if op.probe and tracer:
                tracer.uninstall()
            rc, start, end, note = run_op(op.stage, op.argv)
            errors = [note] if note else []
            if rc == 0:
                errors += checks.check(op.argv[0], Path(op.out), op.argv)
            result["ops"].append(
                {"stage": op.stage, "out": op.out, "probe": op.probe, "rc": rc,
                 "seconds": probe.correct(start, end), "raw_seconds": end - start,
                 "errors": errors}
            )
            if op.stage == "tune" and not op.probe:
                opts = checks.argv_options(op.argv)
                n_train = len(checks.detection_counts(opts["--train-detections"]))
                tune_grad_windows += int(opts["--epochs"]) * (n_train // int(opts["--seq-len"]))
    pipeline_factor = probe.factor(setup_end, time.perf_counter())
    result["pipeline_factor"] = pipeline_factor

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["hashes"] = {
        name: hashlib.sha256(Path(name).read_bytes()).hexdigest()
        for name in workload.deterministic
        if Path(name).exists()
    }
    quality = {}
    with contextlib.suppress(OSError, ValueError, KeyError):
        report = json.loads(Path("eval_tracker/report.json").read_text())
        quality["test_nll"], quality["test_opm"] = report["nll"], report["opm"]
    with contextlib.suppress(OSError, ValueError, KeyError):
        quality["val_nll_best"] = json.loads(Path("tune/history_meta.json").read_text())["best_val_nll"]
    result["quality"] = quality
    if tracer:
        result["layers"] = layers.layer_metrics(
            tracer, cli_self_ns, tune_grad_windows, scale=pipeline_factor
        )
    Path("result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
