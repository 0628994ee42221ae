"""The benchmark's three workloads: scenario configs and CLI operation lists.

Each workload is a closed loop of ``geotrack`` CLI commands, run in-process
one after another. Its inputs are generated from the workload seed alone, so
the same seed always gives byte-identical inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

DEFAULT_SEED = 7

# Eight nodes (side midpoints and corners) all facing the arena center.
_LONG_TRACK_POSITIONS = [
    (250.0, 0.0), (500.0, 350.0), (250.0, 700.0), (0.0, 350.0),
    (0.0, 0.0), (500.0, 0.0), (500.0, 700.0), (0.0, 700.0),
]


def long_track_scenario(seed: int) -> dict:
    """8 cameras, one occluder, low lighting: ~7 detections per frame and
    10000 test frames (625 s at 20 fps, split 0.1/0.1/0.8)."""
    return {
        "seed": seed,
        "duration": 625.0,
        "split": [0.1, 0.1, 0.8],
        "lighting": "low",
        "occluders": [[200.0, 300.0, 260.0, 380.0]],
        "nodes": [
            {"id": f"N{i + 1}", "position": [x, y], "facing": math.atan2(350.0 - y, 250.0 - x)}
            for i, (x, y) in enumerate(_LONG_TRACK_POSITIONS)
        ],
    }


def sparse_views_scenario(seed: int) -> dict:
    """2 cameras 3 m outside the arena with 0.5 rad fields of view, one
    occluder, no fallback detections: ~25% empty frames, ~1 detection per
    frame, blind stretches shorter than a 100-frame tuning window."""
    return {
        "seed": seed,
        "fallback_rate": 0.0,
        "occluders": [[200.0, 300.0, 300.0, 400.0]],
        "nodes": [
            {"id": "N1", "position": [250.0, -300.0], "facing": math.pi / 2.0, "fov": 0.5},
            {"id": "N2", "position": [-300.0, 350.0], "facing": 0.0, "fov": 0.5},
        ],
    }


@dataclass(frozen=True)
class Op:
    """One CLI command. ``stage`` groups commands into stage.*_s metrics.
    A ``probe`` is a known-defect command: its outcome is counted in
    failed_ratio, its time in no timing metric."""

    stage: str
    argv: tuple[str, ...]
    out: str
    probe: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]
    # Output files whose bytes must match across samples and trace modes.
    deterministic: tuple[str, ...]
    # Scenario config written to scenario.json during set-up, if any.
    scenario: dict | None = None
    # simulate command run during set-up (None: simulate is a timed op).
    setup_simulate: tuple[str, ...] | None = None


def _sim(det: str, split: str) -> str:
    return f"sim/{det}_{split}" + (".jsonl" if det == "detections" else ".csv")


def _walkthrough_ops(simulate: tuple[str, ...]) -> list[Op]:
    """The README walkthrough; the detector baseline is view N2."""
    return [
        Op("simulate", simulate, "sim"),
        Op("track", ("track", "--detections", _sim("detections", "test"),
                     "--truth", _sim("truth", "test"), "--out", "track"), "track"),
        Op("calibrate", ("calibrate", "--detections", _sim("detections", "val"),
                         "--truth", _sim("truth", "val"), "--out", "calib"), "calib"),
        Op("tune", _tune_argv(100, 5, "tune"), "tune"),
        Op("track", ("track", "--detections", _sim("detections", "test"),
                     "--truth", _sim("truth", "test"),
                     "--params", "tune/tuned_params.json",
                     "--calib", "tune/tuned_calibration.json", "--out", "track_tuned"),
           "track_tuned"),
        Op("evaluate", ("evaluate", "--track", "track_tuned/track.jsonl",
                        "--truth", _sim("truth", "test"), "--out", "eval_tracker"),
           "eval_tracker"),
        Op("evaluate", ("evaluate", "--detections", _sim("detections", "test"),
                        "--view", "N2", "--truth", _sim("truth", "test"),
                        "--out", "eval_view"), "eval_view"),
        Op("report", ("report", "eval_tracker", "eval_view", "--out", "table"), "table"),
    ]


def _tune_argv(seq_len: int, epochs: int, out: str) -> tuple[str, ...]:
    return (
        "tune",
        "--train-detections", _sim("detections", "train"),
        "--train-truth", _sim("truth", "train"),
        "--val-detections", _sim("detections", "val"),
        "--val-truth", _sim("truth", "val"),
        "--init", "calib/calibration.json",
        "--seq-len", str(seq_len), "--epochs", str(epochs),
        "--out", out,
    )


_WALKTHROUGH_FILES = (
    "track/track.jsonl", "calib/calibration.json", "tune/history.csv",
    "track_tuned/track.jsonl", "eval_tracker/report.json", "eval_view/report.json",
)


def get(name: str, seed: int) -> Workload:
    """The named workload with inputs generated from ``seed``."""
    s = str(seed)
    if name == "walkthrough":
        ops = _walkthrough_ops(("simulate", "--seed", s, "--out", "sim"))
        return Workload(name, tuple(ops), _WALKTHROUGH_FILES)
    if name == "sparse_views":
        ops = _walkthrough_ops(("simulate", "--config", "scenario.json", "--seed", s, "--out", "sim"))
        # Known defect: a 25-frame window with no detection makes run_sequence
        # raise a ValueError that escapes tuning._safe_loss (exit 2).
        ops.append(Op("tune", _tune_argv(25, 1, "tune_short"), "tune_short", probe=True))
        return Workload(name, tuple(ops), _WALKTHROUGH_FILES, sparse_views_scenario(seed))
    if name == "long_track":
        ops = (
            Op("track", ("track", "--detections", _sim("detections", "test"),
                         "--truth", _sim("truth", "test"), "--out", "track"), "track"),
            Op("calibrate", ("calibrate", "--detections", _sim("detections", "val"),
                             "--truth", _sim("truth", "val"), "--out", "calib"), "calib"),
            Op("track", ("track", "--detections", _sim("detections", "test"),
                         "--truth", _sim("truth", "test"),
                         "--calib", "calib/calibration.json", "--out", "track_calib"),
               "track_calib"),
            Op("evaluate", ("evaluate", "--track", "track_calib/track.jsonl",
                            "--truth", _sim("truth", "test"), "--out", "eval_tracker"),
               "eval_tracker"),
        )
        return Workload(
            name,
            ops,
            ("track/track.jsonl", "calib/calibration.json", "track_calib/track.jsonl",
             "eval_tracker/report.json"),
            long_track_scenario(seed),
            setup_simulate=("simulate", "--config", "scenario.json", "--seed", s, "--out", "sim"),
        )
    raise KeyError(name)


NAMES = ("walkthrough", "long_track", "sparse_views")
