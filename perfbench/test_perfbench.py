"""Tests of the benchmark's own arithmetic and inputs.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import sys
import time
import types
from pathlib import Path

import pytest

import layers
import run
import workloads
from hostspeed import REFERENCE_S, SpeedProbe
from stats import percentile, tail_percentile
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------------
# percentile rule


@pytest.mark.parametrize(
    "n, expected",
    [(0, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0),
     (366, 97.0), (999, 98.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_tail_leaves_at_least_ten_samples_beyond():
    for n in range(20, 3000, 7):
        p = tail_percentile(n)
        values = list(range(n))
        beyond = sum(1 for v in values if v > percentile(values, p))
        assert beyond >= 10, (n, p, beyond)


def test_percentile_interpolates_linearly():
    assert percentile([1, 2, 3, 4], 50.0) == 2.5
    assert percentile([5, 1, 3], 0.0) == 1
    assert percentile([5, 1, 3], 100.0) == 5
    assert percentile(list(range(11)), 90.0) == 9.0


# ---------------------------------------------------------------------------
# span self-time arithmetic


class FakeClock:
    """A clock that advances only when told to."""

    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now

    def tick(self, ns):
        self.now += ns


def test_self_time_subtracts_covered_child_spans():
    clock = FakeClock()
    tracer = Tracer(clock=clock, keep=["inner"])
    inner = tracer.wrap("inner", lambda ns: clock.tick(ns))

    def outer_body():
        clock.tick(5)
        inner(10)
        clock.tick(1)
        inner(20)
        clock.tick(4)

    outer = tracer.wrap("outer", outer_body)
    outer()
    assert (tracer.stats["outer"].calls, tracer.stats["outer"].total_ns) == (1, 40)
    assert tracer.stats["outer"].self_ns == 10
    assert tracer.stats["inner"].total_ns == tracer.stats["inner"].self_ns == 30
    assert tracer.durations["inner"] == [10, 20]


def test_self_time_of_grandchildren_is_charged_once():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    leaf = tracer.wrap("leaf", lambda: clock.tick(7))
    mid = tracer.wrap("mid", lambda: (clock.tick(2), leaf()))
    top = tracer.wrap("top", lambda: (clock.tick(1), mid(), clock.tick(3)))
    top()
    self_ns = {name: s.self_ns for name, s in tracer.stats.items()}
    assert self_ns == {"leaf": 7, "mid": 2, "top": 4}
    assert sum(self_ns.values()) == tracer.stats["top"].total_ns


def test_span_is_recorded_when_the_call_raises():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def fail():
        clock.tick(3)
        raise ValueError("boom")

    outer = tracer.wrap("outer", lambda: (clock.tick(1), tracer.wrap("fail", fail)()))
    with pytest.raises(ValueError):
        outer()
    assert tracer.stats["fail"].total_ns == 3
    assert tracer.stats["outer"].self_ns == 1
    assert tracer._stack == []


def test_install_patches_imported_copies_and_uninstall_restores():
    def helper(x):
        return x + 1

    def _private(x):
        return x

    lib = types.ModuleType("lib")
    helper.__module__ = _private.__module__ = "lib"
    lib.helper, lib._private = helper, _private
    user = types.ModuleType("user")
    user.helper = helper  # as after "from lib import helper"
    calls = []
    tracer = Tracer()
    tracer.install_modules({"lib": lib}, [lib, user],
                           {"lib.helper": lambda c, a, k, r, ns: calls.append(r)})
    assert user.helper(1) == 2 and lib.helper(2) == 3
    assert tracer.calls("lib.helper") == 2 and calls == [2, 3]
    assert lib._private is _private and "lib._private" not in tracer.stats
    tracer.uninstall()
    assert lib.helper is helper and user.helper is helper


# ---------------------------------------------------------------------------
# host-speed correction


def test_correction_removes_probe_time_and_scales_by_kernel_speed():
    probe = SpeedProbe(interval=1.0)
    probe.ticks = [(0.0, 0.002), (1.0, 0.004), (2.0, 0.002), (5.0, 0.001)]
    # [0.5, 2.5] holds the ticks at 1.0 and 2.0: mean kernel time 3 ms.
    assert probe.probe_time(0.5, 2.5) == pytest.approx(0.006)
    assert probe.factor(0.5, 2.5) == pytest.approx(REFERENCE_S / 0.003)
    assert probe.correct(0.5, 2.5) == pytest.approx(1.994 * REFERENCE_S / 0.003)
    # An interval too short to hold a tick uses the ticks just around it.
    assert probe.factor(4.5, 4.6) == pytest.approx(REFERENCE_S / 0.001)
    assert probe.correct(4.5, 4.6) == pytest.approx(0.1 * REFERENCE_S / 0.001)


def test_probe_ticks_while_the_main_thread_works():
    probe = SpeedProbe(interval=0.01)
    probe.start()
    end = time.perf_counter() + 0.2
    while time.perf_counter() < end:
        sum(range(1000))
    probe.stop()
    assert len(probe.ticks) >= 5
    assert all(d > 0 for _, d in probe.ticks)


# ---------------------------------------------------------------------------
# workload inputs


def _simulate(tmp_path: Path, name: str, seed: int, duration: float | None = None) -> dict:
    from geotrack import cli

    workload = workloads.get(name, seed)
    argv = list(workload.setup_simulate or workload.ops[0].argv)
    out = tmp_path / f"{name}-{seed}-{len(list(tmp_path.iterdir()))}"
    out.mkdir()
    if workload.scenario is not None:
        scenario = dict(workload.scenario)
        if duration is not None:
            scenario["duration"] = duration
        (out / "scenario.json").write_text(json.dumps(scenario))
        argv[argv.index("scenario.json")] = str(out / "scenario.json")
    argv[argv.index("--out") + 1] = str(out / "sim")
    assert cli.main(argv) == 0
    return {p.name: p.read_bytes() for p in sorted((out / "sim").glob("*_*.*"))}


@pytest.mark.parametrize("name, duration", [("walkthrough", None), ("sparse_views", None),
                                            ("long_track", 20.0)])
def test_same_seed_gives_identical_inputs(tmp_path, name, duration):
    first = _simulate(tmp_path, name, 7, duration)
    assert first == _simulate(tmp_path, name, 7, duration)
    assert first != _simulate(tmp_path, name, 8, duration)
    assert workloads.get(name, 7) == workloads.get(name, 7)


def test_only_sparse_views_has_the_known_defect_probe():
    for name in workloads.NAMES:
        probes = [op for op in workloads.get(name, 7).ops if op.probe]
        assert len(probes) == (name == "sparse_views")


# ---------------------------------------------------------------------------
# metric names and failure accounting


def test_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    produced = set(layers.layer_metrics(Tracer(), {}, 0)) | {
        "trace.overhead_ratio", "failed_ratio", *run.UNTRACED_LAYER_METRICS,
    }
    assert {m["name"] for m in spec["per_layer"]} == produced
    sample = {"setup_s": 1.0, "raw_setup_s": 1.0, "pipeline_factor": 1.0, "peak_rss_mb": 50.0, "ops": [],
              "quality": {"test_nll": 5.0, "test_opm": 0.9}}
    assert {m["name"] for m in spec["end_to_end"]} <= set(run.sample_metrics(sample))
    assert set(run.UNTRACED_LAYER_METRICS) - {"quality.val_nll_best"} <= set(run.sample_metrics(sample))


def _op(rc=0, probe=False, errors=()):
    return {"stage": "tune", "out": "x", "probe": probe, "rc": rc, "seconds": 1.0,
            "raw_seconds": 1.0, "errors": list(errors)}


def test_expected_probe_failure_is_counted_but_not_a_problem():
    samples = [{"ops": [_op(), _op(rc=2, probe=True)], "hashes": {"a": "1"}}] * 2
    assert run.audit(samples) == (2, 0, 2, 2, [])


def test_failures_and_nondeterminism_are_problems():
    samples = [{"ops": [_op(rc=1), _op(errors=["bad"])], "hashes": {"a": "1"}},
               {"ops": [_op(), _op(rc=0, probe=True, errors=["wrong"])], "hashes": {"a": "2"}}]
    attempted, failed, probes, probes_failed, problems = run.audit(samples)
    assert (attempted, failed, probes, probes_failed) == (3, 2, 1, 1)
    assert len(problems) == 4


def test_missing_sources_exit_nonzero_without_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    monkeypatch.setattr(sys, "argv", ["run.py", "--workload", "walkthrough"])
    assert run.main() == 2
    assert capsys.readouterr().out == ""
