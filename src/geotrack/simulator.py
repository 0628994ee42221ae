"""Synthetic multi-camera scenario generator.

Stands in for real camera nodes and their learned detectors: a smooth
waypoint trajectory through the arena, four camera nodes with limited fields
of view and optional occluders, and a heteroskedastic per-view noise model
whose reported covariance is deliberately miscalibrated by a known per-node
(a_true, b_true), so the calibration machinery has an exact recovery target.

When a node cannot see the object it either stays silent or emits a
low-confidence detection anchored at the arena center, mimicking how a
detector behaves on frames that do not show the object.

The simulator works per node over all frames at once: visibility, noise
scale, means, miscalibration and the eigenvalue floor are array operations,
and one draw per run of equal visibility reproduces the per-frame random
stream bit for bit. ``simulate`` returns each split as a one-window
kalman.FrameBatch plus its truth as a Trajectory of arrays, which dataio
writes directly and dataio.read_truth reads back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import Arena, _gaussian_arrays, _pose_values, heading_from_velocity, wrap_angle
from .kalman import FrameBatch, _is_pd

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
        # The fallback covariance sigma^2 * I needs a positive, finite determinant.
        sigma = float(self.fallback_sigma)
        if not (0.0 < sigma < math.inf and 0.0 < (sigma * sigma) * (sigma * sigma) < math.inf):
            raise ValueError(f"fallback_sigma must be positive and finite, as must sigma^4: got {sigma!r}")
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


def default_scenario(seed: int = 0) -> ScenarioConfig:
    """Four nodes at the side midpoints of the 500x700 arena, facing inward."""
    arena = Arena()
    nodes = (
        CameraNode("N1", (arena.width / 2.0, 0.0), math.pi / 2.0),
        CameraNode("N2", (arena.width, arena.length / 2.0), math.pi),
        CameraNode("N3", (arena.width / 2.0, arena.length), -math.pi / 2.0),
        CameraNode("N4", (0.0, arena.length / 2.0), 0.0),
    )
    return ScenarioConfig(arena=arena, nodes=nodes, seed=seed)


@dataclass(frozen=True)
class Trajectory:
    """Ground truth as arrays, one row per sample: strictly increasing times
    (N,), positions (N, 2), headings (N,) and extents (width, length) (N, 2).
    generate_trajectory samples it at 1/fps; dataio.read_truth reads it."""

    times: np.ndarray
    positions: np.ndarray
    headings: np.ndarray
    extent: np.ndarray

    def __len__(self) -> int:
        return len(self.times)

    def __getitem__(self, rows) -> Trajectory:
        """The samples at rows: a slice or an index array."""
        return Trajectory(self.times[rows], self.positions[rows], self.headings[rows], self.extent[rows])


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
    extent = np.broadcast_to(config.object_extent, (n, 2))
    return Trajectory(times, positions, heading_from_velocity(tangents), extent)


Rect = tuple[float, float, float, float]


def _segment_hits_rect(p0: np.ndarray, p1: np.ndarray, rect: Rect) -> np.ndarray:
    """Liang-Barsky overlap test between segments p0->p1 and an axis-aligned
    rectangle (xmin, ymin, xmax, ymax); p0 and p1 broadcast over (..., 2)."""
    xmin, ymin, xmax, ymax = rect
    p0, d = np.broadcast_arrays(p0, np.subtract(p1, p0))
    t0, t1 = np.zeros(d.shape[:-1]), np.ones(d.shape[:-1])
    hit = np.ones(d.shape[:-1], dtype=bool)
    for axis, (lo, hi) in enumerate(((xmin, xmax), (ymin, ymax))):
        start, step = p0[..., axis], d[..., axis]
        flat = np.abs(step) < 1e-12
        hit &= ~(flat & ((start < lo) | (start > hi)))
        with np.errstate(divide="ignore", invalid="ignore"):
            ta, tb = (lo - start) / step, (hi - start) / step
        t0 = np.where(flat, t0, np.maximum(t0, np.minimum(ta, tb)))
        t1 = np.where(flat, t1, np.minimum(t1, np.maximum(ta, tb)))
        hit &= ~(t0 > t1)
    return hit


def _sight(node: CameraNode, positions: np.ndarray, occluders: tuple[Rect, ...]):
    """The offsets (N, 2) from the node to object positions (N, 2), their
    lengths, and whether the node sees each: the object center inside the FOV
    cone, its line of sight crossing no occluder."""
    offset = positions - node.position
    # vecdot is the BLAS dot np.linalg.norm takes, so lengths match it bit
    # for bit; math.atan2 per row, as np.arctan2 can differ in the last bit.
    dist = np.sqrt(np.vecdot(offset, offset))
    atan2 = map(math.atan2, offset[:, 1].tolist(), offset[:, 0].tolist())
    bearing = wrap_angle(np.fromiter(atan2, float, len(offset)) - node.facing)
    seen = ~(np.abs(bearing) > node.fov / 2.0)
    for rect in occluders:
        seen &= ~_segment_hits_rect(node.position, positions, rect)
    return offset, dist, seen | (dist < 1e-12)


def _floor_eigenvalues(mat: np.ndarray, floor: float) -> np.ndarray:
    """Clamp the eigenvalues of symmetric 2x2 matrices (N, 2, 2) from below."""
    a, b, c = mat[:, 0, 0], mat[:, 0, 1], mat[:, 1, 1]
    out = mat.copy()
    diag = np.abs(b) < 1e-15
    out[diag] = 0.0
    out[diag, 0, 0], out[diag, 1, 1] = np.maximum(a[diag], floor), np.maximum(c[diag], floor)
    rows = np.flatnonzero(~diag)
    # math.hypot per row, as np.hypot can differ in the last bit.
    half_gap = ((a[rows] - c[rows]) / 2.0).tolist()
    disc = np.fromiter(map(math.hypot, half_gap, b[rows].tolist()), float, len(rows))
    lam1, lam2 = (a[rows] + c[rows]) / 2.0 + disc, (a[rows] + c[rows]) / 2.0 - disc
    clamp = ~(lam2 >= floor)
    rows, lam1, lam2 = rows[clamp], lam1[clamp], lam2[clamp]
    v1 = np.stack([b[rows], lam1 - a[rows]], axis=-1)
    v1 = v1 / np.sqrt(np.vecdot(v1, v1))[:, None]
    v2 = np.stack([-v1[:, 1], v1[:, 0]], axis=-1)
    lam1, lam2 = np.maximum(lam1, floor)[:, None, None], np.maximum(lam2, floor)[:, None, None]
    out[rows] = lam1 * (v1[:, :, None] * v1[:, None, :]) + lam2 * (v2[:, :, None] * v2[:, None, :])
    return out


def _detections(node: CameraNode, positions: np.ndarray, config: ScenarioConfig, rng):
    """One node's detections of the object at positions (N, 2), one frame
    each in order: means (N, 2), covariances (N, 2, 2) and whether the node
    emits (N,). A row without a detection holds mean 0 and the identity.

    A visible object yields a mean sampled around the truth with std
    lighting_multiplier * (noise_floor + noise_slope * distance), optionally
    inflated along the viewing ray, and a reported covariance that is the
    true one pushed through the inverse of the node's miscalibration (floored
    to stay positive definite). An invisible object yields, with probability
    fallback_rate, a detection at the arena center with a large fixed
    covariance, and otherwise nothing.
    """
    offset, dist, seen = _sight(node, positions, config.occluders)
    # Per frame the node draws standard_normal(2) if it sees the object, else
    # one random(); one draw per run of equal visibility is the same stream.
    noise, emit = np.zeros((len(seen), 2)), seen.copy()
    starts = np.flatnonzero(np.diff(seen, prepend=~seen[:1])).tolist()
    for lo, hi in zip(starts, [*starts[1:], len(seen)]):
        if seen[lo]:
            noise[lo:hi] = rng.standard_normal((hi - lo, 2))
        else:
            emit[lo:hi] = rng.random(hi - lo) < config.fallback_rate
    eye = np.eye(2)
    s = config.noise_multiplier * (node.noise_floor + node.noise_slope * dist)
    var = (s * s)[:, None, None]
    cov = var * eye
    if config.ray_anisotropy > 1.0:
        ray = dist > 1e-12
        u = offset[ray] / dist[ray, None]
        uu = u[:, :, None] * u[:, None, :]
        cov[ray] = var[ray] * (config.ray_anisotropy**2 * uu + (eye - uu))
    mean = positions + s[:, None] * noise
    skew = seen & ~((cov[:, 0, 1] == 0.0) & (cov[:, 0, 0] == cov[:, 1, 1]))
    if skew.any():
        L = np.linalg.cholesky(cov[skew])
        mean[skew] = positions[skew] + np.matmul(L, noise[skew, :, None])[:, :, 0]
    a_true, b_true = node.miscalibration
    out_mean, out_cov = np.zeros_like(mean), np.broadcast_to(eye, cov.shape).copy()
    if (emit & ~seen).any():
        out_mean[emit], out_cov[emit] = config.arena.center, config.fallback_sigma**2 * eye
    out_mean[seen] = mean[seen]
    out_cov[seen] = _floor_eigenvalues((cov[seen] - b_true * eye) / a_true, REPORTED_COV_FLOOR)
    return out_mean, out_cov, emit


def simulate(config: ScenarioConfig) -> dict[str, tuple[FrameBatch, Trajectory]]:
    """Simulate the full scenario as contiguous train/val/test splits.

    Each split is a FrameBatch of one window, its views the node ids in
    config order (the order a written line lists its detections in), and its
    truth arrays, headings wrapped as ObjectPose wraps them.

    The trajectory and each node consume independent seeded substreams, so
    the result is byte-reproducible from the config alone. Poses and
    detections get ObjectPose's and Gaussian2D's checks in bulk; the first
    failing one raises its error.
    """
    streams = np.random.SeedSequence(config.seed).spawn(1 + len(config.nodes))
    traj = generate_trajectory(config, np.random.default_rng(streams[0]))
    posed = np.isfinite(traj.positions).all(axis=1) & np.isfinite(traj.headings)
    if not posed.all():
        # The first non-finite pose raises ObjectPose's error.
        i = int(np.argmin(posed))
        _pose_values(*traj.positions[i].tolist(), float(traj.headings[i]), *traj.extent[i].tolist())
    n = len(traj)
    mean, cov = np.zeros((n, len(config.nodes), 2)), np.zeros((n, len(config.nodes), 2, 2))
    mask = np.zeros((n, len(config.nodes)), dtype=bool)
    for j, (node, stream) in enumerate(zip(config.nodes, streams[1:])):
        rng = np.random.default_rng(stream)
        mean[:, j], cov[:, j], mask[:, j] = _detections(node, traj.positions, config, rng)
    with np.errstate(all="ignore"):
        valid = np.isfinite(mean).all(axis=-1) & np.isfinite(cov).all(axis=(-2, -1)) & _is_pd(cov)
    bad = np.argwhere(mask & ~valid)
    if len(bad):
        _gaussian_arrays(mean[tuple(bad[0])], cov[tuple(bad[0])])  # raises Gaussian2D's error
    n_train = int(round(n * config.split[0]))
    n_val = int(round(n * config.split[1]))
    if n_train + n_val > n:
        raise ValueError("split fractions leave no room for a test set")
    splits = {"train": slice(0, n_train), "val": slice(n_train, n_train + n_val)}
    splits["test"] = slice(n_train + n_val, n)
    truth = replace(traj, headings=wrap_angle(traj.headings))
    views = tuple(node.id for node in config.nodes)
    return {
        name: (FrameBatch(views, traj.times[None, s], mean[None, s], cov[None, s], mask[None, s]), truth[s])
        for name, s in splits.items()
    }
