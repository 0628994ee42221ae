"""geotrack: multi-view geospatial tracking with calibrated uncertainty.

A library and CLI for fusing full-covariance Gaussian detections from
multiple camera views with a constant-velocity multi-observation Kalman
tracker, recalibrating and fine-tuning detection uncertainty, and scoring
trackers with probabilistic metrics, driven by a synthetic multi-camera
scenario simulator.
"""

__version__ = "0.1.0"

from .calibration import CalibrationGrid, CalibrationParams
from .core import Arena, Gaussian2D, NotPositiveDefiniteError
from .heads import head_to_gaussian
from .kalman import DetectionFrame, FilterParams, run_sequence
from .metrics import AlphaSweep, MetricReport, Records, evaluate
from .simulator import CameraNode, ScenarioConfig, default_scenario, simulate
from .tuning import TunableParams, TuneConfig

__all__ = [
    "__version__",
    "AlphaSweep",
    "Arena",
    "CalibrationGrid",
    "CalibrationParams",
    "CameraNode",
    "DetectionFrame",
    "FilterParams",
    "Gaussian2D",
    "MetricReport",
    "NotPositiveDefiniteError",
    "Records",
    "ScenarioConfig",
    "TunableParams",
    "TuneConfig",
    "default_scenario",
    "evaluate",
    "head_to_gaussian",
    "run_sequence",
    "simulate",
]
