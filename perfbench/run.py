"""geotrack benchmark: time the CLI pipeline end to end and layer by layer.

    python3 perfbench/run.py --workload walkthrough --seed 7 --seconds 28 --trace 0

Run from the root of a checkout. Each sample is a fresh child process
(perfbench/worker.py), one at a time, that imports geotrack from src/,
generates the workload's inputs from the seed and runs the workload's CLI
commands in-process, one after the other. Samples repeat while another one
fits in --seconds; at least one always runs. End-to-end metrics are medians
over the samples. With --trace 1, each untraced sample is followed by a
traced one, and the per-layer metrics come from the traced samples.

Prints a table (metric, median, unit, sample count, tail percentile) and,
as the last line, one JSON object with the keys correct, attempted, failed
and metrics. Exits 2 without a result when the geotrack sources or
BENCHMARK.json are missing, and 1 when a sample cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

import workloads
from stats import median, percentile, tail_percentile

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORK = ROOT / ".perfbench_work"
MIN_SETUPS = 3
RUN_LIMIT_S = 170.0
# Per-layer metrics read from the untraced samples of a traced run.
UNTRACED_LAYER_METRICS = (
    "stage.simulate_s", "stage.calibrate_s", "stage.tune_s", "stage.evaluate_s",
    "quality.test_nll", "quality.val_nll_best", "raw.wall_s", "host.factor",
)
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


class SampleError(Exception):
    """A sample could not run: the benchmark has no result to report."""


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "blas_threads": {k: "1" for k in BLAS_THREADS},
        "seed": seed,
    }


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update({k: "1" for k in BLAS_THREADS})
    return env


def run_child(args, deadline: float, trace: bool = False, setup_only: bool = False) -> dict:
    """Run one worker in a fresh directory and return its result."""
    workdir = WORK / f"sample-{os.getpid()}-{time.monotonic_ns()}"
    workdir.mkdir(parents=True)
    argv = [sys.executable, str(WORKER), "--workload", args.workload,
            "--seed", str(args.seed), "--workdir", str(workdir)]
    argv += ["--trace"] * trace + ["--setup-only"] * setup_only
    try:
        spawned = time.time()
        try:
            proc = subprocess.run(argv, env=child_env(), capture_output=True, text=True,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired as exc:
            raise SampleError(f"sample exceeded the {RUN_LIMIT_S:.0f} s run limit") from exc
        if proc.returncode != 0:
            raise SampleError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        result = json.loads((workdir / "result.json").read_text())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    raw_setup = result["setup_end_wall"] - spawned
    result["raw_setup_s"] = raw_setup
    result["setup_s"] = (raw_setup - result["setup_probe_s"]) * result["setup_factor"]
    return result


def sample_metrics(sample: dict) -> dict:
    """End-to-end values of one sample; probe operations are left out.
    Times are corrected for host speed; raw.* keep the uncorrected ones."""
    ops = [op for op in sample["ops"] if not op["probe"]]
    out = {"setup_s": sample["setup_s"], "wall_s": sum(op["seconds"] for op in ops),
           "raw.setup_s": sample["raw_setup_s"], "raw.wall_s": sum(op["raw_seconds"] for op in ops),
           "host.factor": sample["pipeline_factor"], "peak_rss_mb": sample["peak_rss_mb"]}
    for stage in ("simulate", "track", "calibrate", "tune", "evaluate"):
        out[f"stage.{stage}_s"] = sum(op["seconds"] for op in ops if op["stage"] == stage)
    for key, value in sample["quality"].items():
        out[f"quality.{key}"] = value
    return out


def audit(samples: list[dict]) -> tuple[int, int, int, int, list[str]]:
    """(attempted, failed, probes attempted, probes failed, problems).

    An operation fails when it exits non-zero or its outputs fail a check.
    A probe is expected to fail; a probe that exits 0 must still pass its
    checks. Deterministic outputs must be byte-identical in every sample.
    """
    attempted = failed = probes = probes_failed = 0
    problems = []
    for sample in samples:
        for op in sample["ops"]:
            bad = op["rc"] != 0 or bool(op["errors"])
            if op["probe"]:
                probes += 1
                probes_failed += bad
                if op["rc"] == 0 and op["errors"]:
                    problems += op["errors"]
            else:
                attempted += 1
                failed += bad
                if bad:
                    problems.append(f"{op['out']}: exit {op['rc']} {'; '.join(op['errors'])}")
    hashes = [json.dumps(s["hashes"], sort_keys=True) for s in samples]
    if len(set(hashes)) > 1:
        problems.append("deterministic outputs differ between samples (traced or not)")
    return attempted, failed, probes, probes_failed, problems


def summarize(name: str, values: list[float], unit: str) -> str:
    tail = tail_percentile(len(values))
    tail_text = f"p{tail:g}={percentile(values, tail):.6g}" if tail else "-"
    return f"{name:42s} {median(values):14.6g} {unit:6s} n={len(values):<4d} {tail_text}"


def collect(args) -> tuple[dict[str, list[float]], list[dict]]:
    """Run samples for --seconds; return each metric's values and the raw samples."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    untraced, traced = [], []
    while True:
        untraced.append(run_child(args, deadline))
        if args.trace:
            traced.append(run_child(args, deadline, trace=True))
        elapsed = time.monotonic() - start
        if elapsed + elapsed / len(untraced) > args.seconds:
            break
    per_sample = [sample_metrics(s) for s in untraced]
    values: dict[str, list[float]] = {}
    for m in per_sample:
        for key, value in m.items():
            values.setdefault(key, []).append(value)
    if not args.trace:
        setups = values["setup_s"]
        while len(setups) < MIN_SETUPS and time.monotonic() + 2 * max(setups) < deadline:
            setups.append(run_child(args, deadline, setup_only=True)["setup_s"])
        return values, untraced

    layer_values: dict[str, list[float]] = {}
    for s in traced:
        for key, value in s["layers"].items():
            layer_values.setdefault(key, []).append(value)
    traced_wall = median([sample_metrics(s)["wall_s"] for s in traced])
    layer_values["trace.overhead_ratio"] = [traced_wall / median(values["wall_s"]) - 1.0]
    attempted, failed, probes, probes_failed, _ = audit(untraced)
    layer_values["failed_ratio"] = [(failed + probes_failed) / (attempted + probes)]
    for key in UNTRACED_LAYER_METRICS:
        layer_values[key] = values.get(key, [0.0])
    return layer_values, untraced + traced


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "geotrack" / "cli.py").is_file() or not bench.is_file():
        print(f"error: {ROOT} has no geotrack sources (src/geotrack) or BENCHMARK.json",
              file=sys.stderr)
        return 2
    spec = json.loads(bench.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    env = environment(args.seed)
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}")
    print("# env " + json.dumps(env, sort_keys=True))
    try:
        values, samples = collect(args)
    except SampleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print("# numpy " + samples[0]["numpy"])

    attempted, failed, _, probes_failed, problems = audit(samples)
    missing = sorted(set(units) - set(values))
    for name in missing:
        problems.append(f"metric {name} was not measured")
        values[name] = [0.0]
    for problem in problems:
        print(f"# problem: {problem}")
    if probes_failed:
        print(f"# known defect: {probes_failed} probe operation(s) failed, as documented")
    metrics = {}
    for name, unit in units.items():
        print(summarize(name, values[name], unit))
        metrics[name] = {"value": median(values[name]), "unit": unit}
    if not args.trace:
        for name, unit in (("raw.setup_s", "s"), ("raw.wall_s", "s"), ("host.factor", "ratio")):
            print("# " + summarize(name, values[name], unit))
    if args.trace:
        calls = median(values["tuning.sequence_loss.calls"])
        tail = tail_percentile(int(calls))
        print(f"# tuning.sequence_loss.ms_tail is p{tail or 0:g} of {calls:g} calls per traced sample")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
