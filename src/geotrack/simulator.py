"""Synthetic multi-camera scenario generator.

Stands in for real camera nodes and their learned detectors: a smooth
waypoint trajectory through the arena, four camera nodes with limited fields
of view and optional occluders, and a heteroskedastic per-view noise model
whose reported covariance is deliberately miscalibrated by a known per-node
(a_true, b_true), so the calibration machinery has an exact recovery target.

When a node cannot see the object it either stays silent or emits a
low-confidence detection anchored at the arena center, mimicking how a
detector behaves on frames that do not show the object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Arena, Gaussian2D, ObjectPose, heading_from_velocity, wrap_angle
from .kalman import DetectionFrame

WALL_MARGIN = 20.0
SPEED_RANGE = (50.0, 150.0)
MIN_LEG = 150.0
MAX_TURN = 2.6
FILLET_RADIUS = 40.0
REPORTED_COV_FLOOR = 0.25


@dataclass(frozen=True, eq=False)
class CameraNode:
    """A camera node: where it sits, where it looks, and how noisy it is.

    noise_floor is the detection std at zero distance and noise_slope its
    growth per cm of distance. miscalibration (a_true, b_true) is applied
    inversely to the covariance the node reports, so that recalibrating the
    reported covariance with exactly (a_true, b_true) recovers the true one.
    """

    id: str
    position: np.ndarray
    facing: float
    fov: float = 2.0 * math.pi / 3.0
    noise_floor: float = 3.0
    noise_slope: float = 0.01
    miscalibration: tuple[float, float] = (1.0, 0.0)

    def __eq__(self, other):
        if not isinstance(other, CameraNode):
            return NotImplemented
        return (
            self.id == other.id
            and np.array_equal(self.position, other.position)
            and (self.facing, self.fov, self.noise_floor, self.noise_slope)
            == (other.facing, other.fov, other.noise_floor, other.noise_slope)
            and self.miscalibration == other.miscalibration
        )

    def __post_init__(self):
        # Each check also rejects NaN and infinity.
        position = np.array(self.position, dtype=float).reshape(2)
        if not np.all(np.isfinite([*position, self.facing])):
            raise ValueError("position and facing must be finite")
        if not 0.0 < self.fov < 2.0 * math.pi:
            raise ValueError("fov must lie in (0, 2*pi)")
        if not 0.0 < self.noise_floor < math.inf:
            raise ValueError("noise_floor must be positive and finite")
        if not 0.0 <= self.noise_slope < math.inf:
            raise ValueError("noise_slope must be non-negative and finite")
        a_true, b_true = self.miscalibration
        if not (0.0 < a_true < math.inf and 0.0 <= b_true < math.inf):
            raise ValueError("miscalibration requires finite a_true > 0 and b_true >= 0")
        position.setflags(write=False)
        object.__setattr__(self, "position", position)
        object.__setattr__(self, "facing", float(self.facing))
        object.__setattr__(self, "miscalibration", (float(a_true), float(b_true)))


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to reproduce a dataset, including the seed."""

    arena: Arena
    nodes: tuple[CameraNode, ...]
    occluders: tuple[tuple[float, float, float, float], ...] = ()
    lighting: str = "normal"
    low_light_noise_multiplier: float = 3.0
    fps: float = 20.0
    duration: float = 300.0
    split: tuple[float, float, float] = (0.5, 0.1, 0.4)
    object_extent: tuple[float, float] = (15.0, 30.0)
    seed: int = 0
    fallback_rate: float = 0.5
    fallback_sigma: float = 200.0
    ray_anisotropy: float = 1.0

    def __post_init__(self):
        if self.lighting not in ("normal", "low"):
            raise ValueError(f"lighting must be 'normal' or 'low', got {self.lighting!r}")
        # Each check also rejects NaN and infinity.
        if not 0.0 < self.fps < math.inf:
            raise ValueError("fps must be positive and finite")
        if not 0.0 < self.duration < math.inf:
            raise ValueError("duration must be positive and finite")
        if abs(sum(self.split) - 1.0) > 1e-9:
            raise ValueError(f"split fractions must sum to 1, got {self.split}")
        if not all(f >= 0.0 for f in self.split):
            raise ValueError("split fractions must be non-negative")
        if not 0.0 <= self.fallback_rate <= 1.0:
            raise ValueError("fallback_rate must lie in [0, 1]")
        if not 0.0 < self.fallback_sigma < math.inf:
            raise ValueError("fallback_sigma must be positive and finite")
        if not 1.0 <= self.ray_anisotropy < math.inf:
            raise ValueError("ray_anisotropy must be >= 1 and finite")
        ids = [n.id for n in self.nodes]
        if len(set(ids)) != len(ids):
            raise ValueError(f"node ids must be unique, got {ids}")
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(
            self,
            "occluders",
            tuple(tuple(float(v) for v in r) for r in self.occluders),
        )
        object.__setattr__(self, "split", tuple(float(f) for f in self.split))
        object.__setattr__(
            self, "object_extent", tuple(float(v) for v in self.object_extent)
        )
        if not all(0.0 < v < math.inf for v in self.object_extent):
            raise ValueError(f"object_extent must be positive and finite, got {self.object_extent}")
        numbers = [self.low_light_noise_multiplier, *(v for rect in self.occluders for v in rect)]
        if not np.all(np.isfinite(numbers)):
            raise ValueError(f"low_light_noise_multiplier and occluders must be finite: {numbers}")

    @property
    def noise_multiplier(self) -> float:
        return self.low_light_noise_multiplier if self.lighting == "low" else 1.0


def default_scenario(seed: int = 0, lighting: str = "normal") -> ScenarioConfig:
    """Four nodes at the side midpoints of the 500x700 arena, facing inward."""
    arena = Arena()
    nodes = (
        CameraNode("N1", (arena.width / 2.0, 0.0), math.pi / 2.0),
        CameraNode("N2", (arena.width, arena.length / 2.0), math.pi),
        CameraNode("N3", (arena.width / 2.0, arena.length), -math.pi / 2.0),
        CameraNode("N4", (0.0, arena.length / 2.0), 0.0),
    )
    return ScenarioConfig(arena=arena, nodes=nodes, lighting=lighting, seed=seed)


@dataclass(frozen=True)
class Trajectory:
    """Sampled ground truth: strictly increasing times at 1/fps spacing."""

    times: np.ndarray
    positions: np.ndarray
    headings: np.ndarray
    extent: tuple[float, float]

    def __len__(self) -> int:
        return len(self.times)

    def pose(self, i: int) -> ObjectPose:
        return ObjectPose(self.positions[i], float(self.headings[i]), self.extent)


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _perp(v: np.ndarray) -> np.ndarray:
    return np.array([-v[1], v[0]])


def _cross2(a: np.ndarray, b: np.ndarray) -> float:
    return float(a[0] * b[1] - a[1] * b[0])


class _PathBuilder:
    """Incrementally grows a waypoint path with arc-blended corners until the
    accumulated travel time covers the requested duration."""

    def __init__(self, arena: Arena, rng: np.random.Generator):
        lo = WALL_MARGIN
        if arena.width <= 2 * lo or arena.length <= 2 * lo:
            raise ValueError(
                f"arena {arena.width}x{arena.length} too small for a "
                f"{WALL_MARGIN} cm wall margin"
            )
        self.lo = np.array([lo, lo])
        self.hi = np.array([arena.width - lo, arena.length - lo])
        self.rng = rng
        self.waypoints = [self._draw_point()]
        self.speeds: list[float] = []
        # piece: ("s", origin, direction, length) or
        #        ("a", center, radius, start_angle, side, angle_span)
        self.pieces: list[tuple] = []
        self.piece_speeds: list[float] = []
        self.durations: list[float] = []
        self.total_duration = 0.0
        self.cursor = self.waypoints[0]

    def _draw_point(self) -> np.ndarray:
        return self.rng.uniform(self.lo, self.hi)

    def _accept_waypoint(self) -> None:
        last = self.waypoints[-1]
        while True:
            cand = self._draw_point()
            if np.linalg.norm(cand - last) < MIN_LEG:
                continue
            if len(self.waypoints) >= 2:
                d_in = _unit(last - self.waypoints[-2])
                d_out = _unit(cand - last)
                turn = math.atan2(_cross2(d_in, d_out), float(d_in @ d_out))
                if abs(turn) > MAX_TURN:
                    continue
            break
        self.waypoints.append(cand)
        self.speeds.append(float(self.rng.uniform(*SPEED_RANGE)))

    def _push(self, piece: tuple, length: float, speed: float) -> None:
        if length < 1e-9:
            return
        self.pieces.append(piece)
        self.piece_speeds.append(speed)
        self.durations.append(length / speed)
        self.total_duration += length / speed

    def _emit_corner(self, i: int) -> None:
        """Straight piece up to corner i's fillet entry, then the arc."""
        w_prev, w, w_next = self.waypoints[i - 1], self.waypoints[i], self.waypoints[i + 1]
        d_in = _unit(w - w_prev)
        d_out = _unit(w_next - w)
        speed_in = self.speeds[i - 1]
        speed_out = self.speeds[i]
        cross = _cross2(d_in, d_out)
        turn = math.atan2(cross, float(d_in @ d_out))
        half_tan = math.tan(abs(turn) / 2.0)
        len_in = float(np.linalg.norm(w - self.cursor))
        len_out = float(np.linalg.norm(w_next - w))
        t_fillet = min(FILLET_RADIUS * half_tan, 0.35 * len_in, 0.35 * len_out) if half_tan > 0 else 0.0
        radius = t_fillet / half_tan if half_tan > 1e-12 else 0.0
        if radius < 1e-6:
            self._push(("s", self.cursor.copy(), d_in, len_in), len_in, speed_in)
            self.cursor = w
            return
        entry = w - d_in * t_fillet
        exit_pt = w + d_out * t_fillet
        side = 1.0 if cross > 0 else -1.0
        center = entry + side * _perp(d_in) * radius
        ang0 = math.atan2(entry[1] - center[1], entry[0] - center[0])
        straight_len = float(np.linalg.norm(entry - self.cursor))
        self._push(("s", self.cursor.copy(), d_in, straight_len), straight_len, speed_in)
        arc_len = radius * abs(turn)
        self._push(("a", center, radius, ang0, side, abs(turn)), arc_len, speed_out)
        self.cursor = exit_pt

    def build(self, duration: float) -> tuple[list[tuple], np.ndarray, np.ndarray]:
        self._accept_waypoint()
        while self.total_duration < duration:
            self._accept_waypoint()
            self._emit_corner(len(self.waypoints) - 2)
        # Tail straight so the duration check above cannot leave us short.
        last = self.waypoints[-1]
        tail = float(np.linalg.norm(last - self.cursor))
        if tail > 1e-9:
            self._push(("s", self.cursor.copy(), _unit(last - self.cursor), tail), tail, self.speeds[-1])
        return self.pieces, np.array(self.durations), np.array(self.piece_speeds)


def generate_trajectory(config: ScenarioConfig, rng: np.random.Generator) -> Trajectory:
    """Smooth waypoint-following path sampled at the configured frame rate.

    Waypoints stay at least 20 cm from the walls; each leg has a constant
    speed drawn from [50, 150] cm/s; corners are blended with circular arcs
    and the heading always points along the velocity.
    """
    n = int(round(config.duration * config.fps))
    times = np.arange(n) / config.fps
    pieces, durations, speeds = _PathBuilder(config.arena, rng).build(config.duration)
    starts = np.concatenate([[0.0], np.cumsum(durations)])[:-1]
    ends = starts + durations
    idx = np.clip(np.searchsorted(ends, times, side="right"), 0, len(pieces) - 1)

    positions = np.empty((n, 2))
    tangents = np.empty((n, 2))
    for p in np.unique(idx):
        sel = idx == p
        s = (times[sel] - starts[p]) * speeds[p]
        piece = pieces[p]
        if piece[0] == "s":
            _, origin, direction, _ = piece
            positions[sel] = origin + s[:, None] * direction
            tangents[sel] = direction
        else:
            _, center, radius, ang0, side, _ = piece
            phi = ang0 + side * s / radius
            positions[sel] = center + radius * np.column_stack([np.cos(phi), np.sin(phi)])
            tangents[sel] = side * np.column_stack([-np.sin(phi), np.cos(phi)])
    headings = np.array([heading_from_velocity(t) for t in tangents])
    return Trajectory(times, positions, headings, config.object_extent)


def _segment_hits_rect(
    p0: np.ndarray, p1: np.ndarray, rect: tuple[float, float, float, float]
) -> bool:
    """Liang-Barsky overlap test between segment p0->p1 and an axis-aligned
    rectangle (xmin, ymin, xmax, ymax)."""
    xmin, ymin, xmax, ymax = rect
    d = p1 - p0
    t0, t1 = 0.0, 1.0
    for axis, (lo, hi) in enumerate(((xmin, xmax), (ymin, ymax))):
        if abs(d[axis]) < 1e-12:
            if p0[axis] < lo or p0[axis] > hi:
                return False
            continue
        ta = (lo - p0[axis]) / d[axis]
        tb = (hi - p0[axis]) / d[axis]
        if ta > tb:
            ta, tb = tb, ta
        t0 = max(t0, ta)
        t1 = min(t1, tb)
        if t0 > t1:
            return False
    return True


def visibility(
    node: CameraNode,
    pose: ObjectPose,
    occluders: tuple[tuple[float, float, float, float], ...] = (),
) -> bool:
    """True iff the object center is inside the node's FOV cone and the line
    of sight crosses no occluder."""
    d = pose.position - node.position
    dist = float(np.linalg.norm(d))
    if dist < 1e-12:
        return True
    bearing = wrap_angle(math.atan2(d[1], d[0]) - node.facing)
    if abs(bearing) > node.fov / 2.0:
        return False
    for rect in occluders:
        if _segment_hits_rect(node.position, pose.position, rect):
            return False
    return True


def _floor_eigenvalues(mat: np.ndarray, floor: float) -> np.ndarray:
    """Clamp the eigenvalues of a symmetric 2x2 matrix from below."""
    a, b, c = mat[0, 0], mat[0, 1], mat[1, 1]
    if abs(b) < 1e-15:
        return np.diag([max(a, floor), max(c, floor)])
    half = (a + c) / 2.0
    disc = math.hypot((a - c) / 2.0, b)
    lam1, lam2 = half + disc, half - disc
    if lam2 >= floor:
        return mat
    v1 = _unit(np.array([b, lam1 - a]))
    v2 = _perp(v1)
    return max(lam1, floor) * np.outer(v1, v1) + max(lam2, floor) * np.outer(v2, v2)


def simulate_detection(
    node: CameraNode,
    pose: ObjectPose,
    config: ScenarioConfig,
    rng: np.random.Generator,
) -> tuple[str, Gaussian2D] | None:
    """One node's detection for one frame, or None.

    A visible object yields a mean sampled around the truth with std
    lighting_multiplier * (noise_floor + noise_slope * distance), optionally
    inflated along the viewing ray, and a reported covariance that is the
    true one pushed through the inverse of the node's miscalibration (floored
    to stay positive definite). An invisible object yields, with probability
    fallback_rate, a detection at the arena center with a large fixed
    covariance, and otherwise nothing.
    """
    if visibility(node, pose, config.occluders):
        offset = pose.position - node.position
        dist = float(np.linalg.norm(offset))
        s = config.noise_multiplier * (node.noise_floor + node.noise_slope * dist)
        var = s * s
        if config.ray_anisotropy > 1.0 and dist > 1e-12:
            u = offset / dist
            k2 = config.ray_anisotropy**2
            cov_true = var * (k2 * np.outer(u, u) + (np.eye(2) - np.outer(u, u)))
        else:
            cov_true = var * np.eye(2)
        noise = rng.standard_normal(2)
        if cov_true[0, 1] == 0.0 and cov_true[0, 0] == cov_true[1, 1]:
            mean = pose.position + s * noise
        else:
            L = np.linalg.cholesky(cov_true)
            mean = pose.position + L @ noise
        a_true, b_true = node.miscalibration
        reported = (cov_true - b_true * np.eye(2)) / a_true
        reported = _floor_eigenvalues(reported, REPORTED_COV_FLOOR)
        return node.id, Gaussian2D(mean, reported)
    if rng.random() < config.fallback_rate:
        cov = config.fallback_sigma**2 * np.eye(2)
        return node.id, Gaussian2D(config.arena.center, cov)
    return None


def build_dataset(
    config: ScenarioConfig,
) -> dict[str, list[tuple[DetectionFrame, ObjectPose]]]:
    """Simulate the full scenario and return contiguous train/val/test splits.

    Every frame carries all detections emitted for that timestep. The
    trajectory and each node consume independent seeded substreams, so the
    result is byte-reproducible from the config alone.
    """
    root = np.random.SeedSequence(config.seed)
    streams = root.spawn(1 + len(config.nodes))
    traj = generate_trajectory(config, np.random.default_rng(streams[0]))
    node_rngs = [np.random.default_rng(s) for s in streams[1:]]

    records: list[tuple[DetectionFrame, ObjectPose]] = []
    for i in range(len(traj)):
        pose = traj.pose(i)
        dets = []
        for node, rng in zip(config.nodes, node_rngs):
            result = simulate_detection(node, pose, config, rng)
            if result is not None:
                dets.append(result)
        records.append((DetectionFrame(traj.times[i], tuple(dets)), pose))

    n = len(records)
    n_train = int(round(n * config.split[0]))
    n_val = int(round(n * config.split[1]))
    if n_train + n_val > n:
        raise ValueError("split fractions leave no room for a test set")
    return {
        "train": records[:n_train],
        "val": records[n_train : n_train + n_val],
        "test": records[n_train + n_val :],
    }
