import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mask_trajectory, oracle_simulate_files, simulate_detection, visibility
from geotrack import dataio
from geotrack.cli import main
from geotrack.core import Arena, ObjectPose, rotation
from geotrack.simulator import (
    CameraNode,
    ScenarioConfig,
    _segment_hits_rect,
    _sight,
    default_scenario,
    generate_trajectory,
    simulate,
)

CHI2_95_2D = -2.0 * math.log(0.05)


def small_config(seed=0, **overrides):
    cfg = default_scenario(seed=seed)
    return dataclasses.replace(cfg, duration=overrides.pop("duration", 30.0), **overrides)


@pytest.fixture(scope="module")
def default_dataset():
    return simulate(default_scenario(seed=0))


class TestTrajectory:
    def test_sample_count_and_spacing(self):
        cfg = default_scenario(seed=1)
        traj = generate_trajectory(cfg, np.random.default_rng(1))
        assert len(traj) == 6000
        dts = np.diff(traj.times)
        np.testing.assert_allclose(dts, 1.0 / cfg.fps, atol=1e-12)

    def test_speed_bound(self):
        cfg = small_config(seed=2, duration=120.0)
        traj = generate_trajectory(cfg, np.random.default_rng(2))
        steps = np.linalg.norm(np.diff(traj.positions, axis=0), axis=1)
        assert steps.max() <= 150.0 / cfg.fps + 1e-9

    def test_inside_arena_with_margin(self):
        cfg = small_config(seed=3, duration=120.0)
        traj = generate_trajectory(cfg, np.random.default_rng(3))
        assert traj.positions[:, 0].min() >= 20.0 - 1e-9
        assert traj.positions[:, 0].max() <= cfg.arena.width - 20.0 + 1e-9
        assert traj.positions[:, 1].min() >= 20.0 - 1e-9
        assert traj.positions[:, 1].max() <= cfg.arena.length - 20.0 + 1e-9

    def test_heading_follows_motion(self):
        cfg = small_config(seed=4, duration=60.0)
        traj = generate_trajectory(cfg, np.random.default_rng(4))
        for i in range(0, len(traj) - 1, 97):
            step = traj.positions[i + 1] - traj.positions[i]
            if np.linalg.norm(step) < 1e-9:
                continue
            length_axis = rotation(traj.headings[i]) @ np.array([0.0, 1.0])
            cosine = step @ length_axis / np.linalg.norm(step)
            assert cosine > 0.99

    def test_deterministic_per_seed(self):
        cfg = small_config(seed=5)
        a = generate_trajectory(cfg, np.random.default_rng(5))
        b = generate_trajectory(cfg, np.random.default_rng(5))
        np.testing.assert_array_equal(a.positions, b.positions)

    @settings(max_examples=60, deadline=None)
    @given(
        duration=st.floats(0.01, 120.0),
        fps=st.floats(0.5, 60.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_piece_slices_match_piece_masks_bitwise(self, duration, fps, seed):
        # Each path piece's frames are one slice of them, as the mask over
        # all frames selects them: every array keeps its bits.
        cfg = small_config(seed=0, duration=duration, fps=fps)
        got = generate_trajectory(cfg, np.random.default_rng(seed))
        want = mask_trajectory(cfg, np.random.default_rng(seed))
        for name in ("times", "positions", "headings", "extent"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name

    def test_arena_too_small(self):
        cfg = default_scenario()
        with pytest.raises(ValueError, match="margin"):
            generate_trajectory(
                dataclasses.replace(cfg, arena=Arena(30.0, 30.0)),
                np.random.default_rng(0),
            )


class TestVisibility:
    def test_along_facing(self):
        node = CameraNode("N", (0.0, 0.0), 0.0)
        pose = ObjectPose((100.0, 0.0), 0.0, (15.0, 30.0))
        assert visibility(node, pose)

    def test_behind_node(self):
        node = CameraNode("N", (0.0, 0.0), 0.0)
        pose = ObjectPose((-100.0, 0.0), 0.0, (15.0, 30.0))
        assert not visibility(node, pose)

    def test_fov_boundary(self):
        node = CameraNode("N", (0.0, 0.0), 0.0, fov=math.pi / 2.0)
        inside = ObjectPose((100.0, 99.0), 0.0, (15, 30))
        outside = ObjectPose((100.0, 101.0), 0.0, (15, 30))
        assert visibility(node, inside)
        assert not visibility(node, outside)

    def test_occluder_blocks_sight_line(self):
        node = CameraNode("N", (0.0, 0.0), 0.0)
        pose = ObjectPose((200.0, 0.0), 0.0, (15, 30))
        blocking = (90.0, -10.0, 110.0, 10.0)
        aside = (90.0, 30.0, 110.0, 50.0)
        assert not visibility(node, pose, (blocking,))
        assert visibility(node, pose, (aside,))

    def test_segment_rect_against_dense_sampling_oracle(self):
        rng = np.random.default_rng(60)
        for _ in range(300):
            p0 = rng.uniform(-100, 100, 2)
            p1 = rng.uniform(-100, 100, 2)
            lo = rng.uniform(-80, 60, 2)
            rect = (lo[0], lo[1], lo[0] + rng.uniform(5, 60), lo[1] + rng.uniform(5, 60))
            ts = np.linspace(0.0, 1.0, 2001)
            pts = p0 + ts[:, None] * (p1 - p0)
            brute = bool(
                np.any(
                    (pts[:, 0] >= rect[0])
                    & (pts[:, 0] <= rect[2])
                    & (pts[:, 1] >= rect[1])
                    & (pts[:, 1] <= rect[3])
                )
            )
            assert _segment_hits_rect(p0, p1, rect) == brute


class TestSimulateDetection:
    def config(self, **overrides):
        return dataclasses.replace(default_scenario(seed=0), **overrides)

    def test_identity_miscalibration_reports_true_covariance(self):
        node = CameraNode("N", (0.0, 0.0), 0.0, noise_floor=3.0, noise_slope=0.01)
        pose = ObjectPose((200.0, 0.0), 0.0, (15, 30))
        _, g = simulate_detection(node, pose, self.config(), np.random.default_rng(0))
        s = 3.0 + 0.01 * 200.0
        np.testing.assert_allclose(g.cov, s * s * np.eye(2), rtol=1e-12)

    def test_low_light_scales_noise(self):
        node = CameraNode("N", (0.0, 0.0), 0.0)
        pose = ObjectPose((200.0, 0.0), 0.0, (15, 30))
        _, normal = simulate_detection(node, pose, self.config(), np.random.default_rng(1))
        _, low = simulate_detection(
            node, pose, self.config(lighting="low"), np.random.default_rng(1)
        )
        np.testing.assert_allclose(low.cov, 9.0 * normal.cov, rtol=1e-12)

    def test_miscalibration_inverse_applied(self):
        node = CameraNode(
            "N", (0.0, 0.0), 0.0, noise_floor=5.0, noise_slope=0.0, miscalibration=(4.0, 3.0)
        )
        pose = ObjectPose((100.0, 0.0), 0.0, (15, 30))
        _, g = simulate_detection(node, pose, self.config(), np.random.default_rng(2))
        # Reported = (true - b I) / a, and a * reported + b I recovers true.
        np.testing.assert_allclose(4.0 * g.cov + 3.0 * np.eye(2), 25.0 * np.eye(2), rtol=1e-12)

    def test_floor_binds_when_inverse_would_degenerate(self):
        node = CameraNode(
            "N", (0.0, 0.0), 0.0, noise_floor=2.0, noise_slope=0.0, miscalibration=(1.0, 100.0)
        )
        pose = ObjectPose((100.0, 0.0), 0.0, (15, 30))
        _, g = simulate_detection(node, pose, self.config(), np.random.default_rng(3))
        np.testing.assert_allclose(g.cov, 0.25 * np.eye(2), rtol=1e-12)

    def test_invisible_fallback(self):
        node = CameraNode("N", (0.0, 0.0), 0.0)
        pose = ObjectPose((-100.0, 0.0), 0.0, (15, 30))  # behind the node
        cfg = self.config(fallback_rate=1.0)
        out = simulate_detection(node, pose, cfg, np.random.default_rng(4))
        assert out is not None
        _, g = out
        np.testing.assert_allclose(g.mean, [250.0, 350.0])
        np.testing.assert_allclose(g.cov, 200.0**2 * np.eye(2))
        silent = self.config(fallback_rate=0.0)
        assert simulate_detection(node, pose, silent, np.random.default_rng(4)) is None

    def test_ray_anisotropy_inflates_along_ray(self):
        node = CameraNode("N", (0.0, 0.0), 0.0, noise_slope=0.0)
        pose = ObjectPose((100.0, 0.0), 0.0, (15, 30))
        cfg = self.config(ray_anisotropy=2.0)
        _, g = simulate_detection(node, pose, cfg, np.random.default_rng(5))
        assert g.cov[0, 0] == pytest.approx(4.0 * g.cov[1, 1], rel=1e-12)


class TestBuildDataset:
    """simulate's splits, read as arrays."""

    def test_default_split_sizes(self, default_dataset):
        for split, n in (("train", 3000), ("val", 600), ("test", 2400)):
            batch, truth = default_dataset[split]
            assert len(batch) == len(truth) == n

    def test_timestamps_partition(self, default_dataset):
        seen = np.concatenate([batch.t[0] for batch, _ in default_dataset.values()]).tolist()
        assert len(seen) == len(set(seen)) == 6000
        assert seen == sorted(seen)

    def test_coverage_gaps_on_default_seed(self, default_dataset):
        cfg = default_scenario(seed=0)
        positions = np.concatenate([truth.positions for _, truth in default_dataset.values()])
        vis = np.stack([_sight(n, positions, cfg.occluders)[2] for n in cfg.nodes], axis=1)
        assert vis.any(axis=1).all(), "no sample may be invisible to all four nodes"
        assert not vis.all(axis=1).all(), "some sample must be invisible to at least one node"

    def test_low_light_inflates_reported_trace(self):
        normal = simulate(small_config(seed=8))
        low = simulate(small_config(seed=8, lighting="low"))

        def mean_trace(ds):
            traces = [np.trace(batch.cov[batch.mask], axis1=1, axis2=2) for batch, _ in ds.values()]
            return float(np.mean(np.concatenate(traces)))

        assert mean_trace(low) > mean_trace(normal)

    def test_reported_coverage_of_95_percent_ellipse(self):
        # Identity miscalibration: the reported covariance is the true one, so
        # the truth must fall in the reported 95% ellipse about 95% of the time.
        cfg = default_scenario(seed=9)
        inside = 0
        total = 0
        for batch, truth in simulate(cfg).values():
            for j, node in enumerate(cfg.nodes):
                # Fallback detections are not coverage claims.
                rows = batch.mask[0, :, j] & _sight(node, truth.positions, cfg.occluders)[2]
                d = batch.mean[0, rows, j] - truth.positions[rows]
                m2 = np.vecdot(d, np.linalg.solve(batch.cov[0, rows, j], d[:, :, None])[:, :, 0])
                inside += int(np.sum(m2 <= CHI2_95_2D))
                total += int(rows.sum())
        assert total >= 10_000
        assert 0.93 <= inside / total <= 0.97

    def test_true_reported_relation_invertible(self):
        cfg = small_config(seed=10)
        nodes = tuple(
            dataclasses.replace(n, miscalibration=(4.0, 2.0)) for n in cfg.nodes
        )
        cfg = dataclasses.replace(cfg, nodes=nodes, fallback_rate=0.0)
        batch, truth = simulate(cfg)["train"]
        checked = 0
        for j, node in enumerate(cfg.nodes):
            rows = batch.mask[0, :, j]
            dist = np.linalg.norm(truth.positions[rows] - node.position, axis=1)
            s2 = (node.noise_floor + node.noise_slope * dist) ** 2
            kept = ~((s2 - 2.0) / 4.0 <= 0.25)  # floor binds; relation broken there
            cov = batch.cov[0, rows, j][kept]
            np.testing.assert_allclose(
                4.0 * cov + 2.0 * np.eye(2), s2[kept, None, None] * np.eye(2), rtol=1e-9
            )
            checked += int(kept.sum())
        assert checked > 100

    def test_byte_identical_serialization_per_seed(self, tmp_path):
        from geotrack import dataio

        cfg = small_config(seed=11)
        for name in ("a", "b"):
            batch, truth = simulate(cfg)["train"]
            dataio.write_detections(tmp_path / f"{name}.jsonl", batch)
            dataio.write_truth(tmp_path / f"{name}.csv", truth)
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


SPLIT_FILES = tuple(
    f"{kind}_{split}.{ext}"
    for split in ("train", "val", "test")
    for kind, ext in (("detections", "jsonl"), ("truth", "csv"))
)


def _object_positions(seed: int, duration: float) -> np.ndarray:
    """The object's positions in any scenario with this seed and duration on
    the default arena: the trajectory takes the first of the seed's streams."""
    config = dataclasses.replace(default_scenario(seed), duration=duration)
    stream = np.random.SeedSequence(seed).spawn(1)[0]
    return generate_trajectory(config, np.random.default_rng(stream)).positions


def _toward(node_position, target) -> float:
    d = np.asarray(target) - np.asarray(node_position)
    return math.atan2(d[1], d[0])


def _assert_files_match_oracle(config, root):
    """simulate's six split files, written from its arrays, equal the
    per-detection oracle's byte for byte."""
    bulk, oracle = root / "bulk", root / "oracle"
    bulk.mkdir(parents=True, exist_ok=True)
    for split, (batch, truth) in simulate(config).items():
        dataio.write_detections(bulk / f"detections_{split}.jsonl", batch)
        dataio.write_truth(bulk / f"truth_{split}.csv", truth)
    oracle_simulate_files(config, oracle)
    for name in SPLIT_FILES:
        assert (bulk / name).read_bytes() == (oracle / name).read_bytes(), name


@st.composite
def scenarios(draw):
    """Short scenarios on the default arena: 1-5 nodes with ids in any order,
    some at the object's position or level with it on one axis (a line of
    sight parallel to an arena edge), occluders, some around a node, random
    noise, miscalibration, lighting, fallback rate and ray anisotropy."""
    seed = draw(st.integers(0, 2**31))
    duration = draw(st.sampled_from([1.0, 1.5, 2.5]))
    positions = _object_positions(seed, duration)
    coordinate = st.floats(-100.0, 800.0)
    ids = draw(st.permutations([f"N{i}" for i in range(1, 6)]))[: draw(st.integers(1, 5))]
    nodes = []
    for node_id in ids:
        target = positions[draw(st.integers(0, len(positions) - 1))]
        kind = draw(st.sampled_from(["free", "at_object", "level"]))
        if kind == "free":
            position = [draw(coordinate), draw(coordinate)]
        elif kind == "at_object":
            position = list(target)
        else:
            position = list(target)
            position[draw(st.integers(0, 1))] = draw(coordinate)
        # b_true up to 1e4 floors some or all eigenvalues of the reported covariance.
        b_true = draw(st.sampled_from([0.0, 1.0, 50.0, 200.0, 1e4]))
        nodes.append(
            CameraNode(
                node_id,
                position,
                _toward(position, target) + draw(st.floats(-1.0, 1.0)),
                fov=draw(st.floats(0.2, 6.0)),
                noise_floor=draw(st.floats(0.5, 10.0)),
                noise_slope=draw(st.sampled_from([0.0, 0.01, 0.05])),
                miscalibration=(draw(st.floats(0.25, 4.0)), b_true),
            )
        )
    occluders = []
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            x, y = nodes[draw(st.integers(0, len(nodes) - 1))].position
            occluders.append((x - 5.0, y - 5.0, x + 5.0, y + 5.0))
        else:
            x, y = draw(coordinate), draw(coordinate)
            width, length = draw(st.floats(1.0, 200.0)), draw(st.floats(1.0, 200.0))
            occluders.append((x, y, x + width, y + length))
    return ScenarioConfig(
        arena=Arena(),
        nodes=tuple(nodes),
        occluders=tuple(occluders),
        lighting=draw(st.sampled_from(["normal", "low"])),
        duration=duration,
        seed=seed,
        fallback_rate=draw(st.sampled_from([0.0, 0.5, 1.0])),
        ray_anisotropy=draw(st.sampled_from([1.0, 1.5, 3.0])),
    )


@pytest.fixture(scope="module")
def oracle_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("oracle")


@settings(max_examples=60)
@given(config=scenarios())
def test_simulate_files_match_per_detection_oracle(oracle_dir, config):
    _assert_files_match_oracle(config, oracle_dir)


def _branch_config(seed, ray_anisotropy, lighting, fallback_rate):
    """Nodes and occluders that reach every branch: a node at the object's
    position, a node level with it on the x axis, a node inside an occluder,
    and miscalibrations that leave the reported eigenvalues alone, floor the
    smaller one and floor both."""
    positions = _object_positions(seed, 2.0)
    target = positions[10]
    level = (target[0], target[1] + 150.0)
    inside = (100.0, 100.0)
    nodes = (
        CameraNode("C", tuple(target), math.pi),
        CameraNode("A", level, _toward(level, target), fov=3.0),
        CameraNode("B", inside, 1.0, fov=6.0, miscalibration=(2.0, 1.0)),
        CameraNode(
            "E", (0.0, 350.0), 0.0, noise_floor=10.0, noise_slope=0.0, miscalibration=(1.0, 200.0)
        ),
        CameraNode("D", (250.0, 0.0), math.pi / 2.0, miscalibration=(1.0, 1e4)),
    )
    around = (inside[0] - 5.0, inside[1] - 5.0, inside[0] + 5.0, inside[1] + 5.0)
    occluders = (around, (200.0, 300.0, 260.0, 380.0))
    return dataclasses.replace(
        default_scenario(seed),
        nodes=nodes,
        occluders=occluders,
        duration=2.0,
        lighting=lighting,
        fallback_rate=fallback_rate,
        ray_anisotropy=ray_anisotropy,
    )


@pytest.mark.parametrize(
    "seed, ray_anisotropy, lighting, fallback_rate",
    [
        pytest.param(3, 1.0, "low", 1.0, id="1.0-low-1.0"),
        pytest.param(3, 2.0, "normal", 0.5, id="2.0-normal-0.5"),
        pytest.param(3, 2.0, "low", 0.0, id="2.0-low-0.0"),
        pytest.param(3, 1.0, "normal", 0.5, id="1.0-normal-0.5"),
        pytest.param(5, 2.0, "low", 0.5, id="seed5-2.0-low-0.5"),
    ],
)
def test_branch_cases_match_per_detection_oracle(tmp_path, seed, ray_anisotropy, lighting, fallback_rate):
    config = _branch_config(seed, ray_anisotropy, lighting, fallback_rate)
    positions = _object_positions(seed, 2.0)
    at_object, level = config.nodes[0].position, config.nodes[1].position
    assert (np.abs(positions - at_object).max(axis=1) == 0.0).any()
    assert (positions[:, 0] == level[0]).any()
    _assert_files_match_oracle(config, tmp_path)


@pytest.mark.parametrize("duration, n_nodes", [(0.01, 4), (0.05, 4), (1.0, 0)])
def test_no_frame_one_frame_and_no_node_match_per_detection_oracle(tmp_path, duration, n_nodes):
    config = default_scenario(seed=4)
    config = dataclasses.replace(config, duration=duration, nodes=config.nodes[:n_nodes])
    _assert_files_match_oracle(config, tmp_path)


def test_unsorted_ids_simulate_like_oracle_and_read_sorted(tmp_path):
    config = dataclasses.replace(small_config(seed=12, duration=5.0), nodes=(
        CameraNode("N2", (500.0, 350.0), math.pi),
        CameraNode("N1", (250.0, 0.0), math.pi / 2.0),
    ))
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(dataio.scenario_to_dict(config)))
    assert main(["simulate", "--config", str(config_path), "--out", str(tmp_path / "cli")]) == 0
    oracle_simulate_files(config, tmp_path / "oracle")
    for name in SPLIT_FILES:
        assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "oracle" / name).read_bytes()
    first = json.loads((tmp_path / "cli" / "detections_train.jsonl").read_text().splitlines()[0])
    assert [d["view"] for d in first["detections"]] == ["N2", "N1"]
    batch, _ = simulate(config)["train"]
    assert batch.views == ("N2", "N1")
    read = dataio.read_detections(tmp_path / "cli" / "detections_train.jsonl")
    assert read.views == ("N1", "N2")
    np.testing.assert_array_equal(read.mask[..., ::-1], batch.mask)
    np.testing.assert_array_equal(read.mean[..., ::-1, :], batch.mean)
    np.testing.assert_array_equal(read.cov[..., ::-1, :, :], batch.cov)


class TestScenarioConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="split"):
            small_config(split=(0.5, 0.2, 0.4))
        with pytest.raises(ValueError, match="lighting"):
            small_config(lighting="dusk")
        with pytest.raises(ValueError, match="fallback_rate"):
            small_config(fallback_rate=1.5)
        with pytest.raises(ValueError, match="unique"):
            cfg = default_scenario()
            dataclasses.replace(
                cfg, nodes=(cfg.nodes[0], dataclasses.replace(cfg.nodes[1], id="N1"))
            )

    def test_noise_multiplier(self):
        assert small_config().noise_multiplier == 1.0
        assert small_config(lighting="low").noise_multiplier == 3.0
