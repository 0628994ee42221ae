import math
import os
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    assert_no_child,
    cell_fit,
    direct_cell_fit,
    direct_cell_nll,
    fork_only,
    nll,
    open_fds,
    pairs_arrays,
    random_pd_2x2,
    rotation,
)
from geotrack import calibration, forking
from geotrack.calibration import (
    IDENTITY,
    CalibrationGrid,
    CalibrationParams,
    PerViewCalibration,
    default_grid,
    fit,
    fit_per_view,
    linear_axis,
    log_spaced_axis,
    obs_transform,
)
from geotrack.core import Gaussian2D, Pairs


def sampled_pairs(rng, n, true_scale=1.0, base_var=25.0):
    """Detections whose true noise covariance is true_scale times the
    reported one; truths drawn from the true distribution."""
    pairs = []
    for _ in range(n):
        reported = random_pd_2x2(rng, base_var * 0.5, base_var * 1.5)
        mean = rng.uniform(0, 500, 2)
        true_cov = true_scale * reported
        truth = mean + np.linalg.cholesky(true_cov) @ rng.standard_normal(2)
        pairs.append((Gaussian2D(mean, reported), truth))
    return pairs


class TestParamsAndGrid:
    def test_params_validation(self):
        with pytest.raises(ValueError):
            CalibrationParams(0.0, 0.0)
        with pytest.raises(ValueError):
            CalibrationParams(1.0, -1.0)
        for a, b in ((math.inf, 0.0), (1.0, math.nan), (1.0, math.inf)):
            with pytest.raises(ValueError, match="finite"):
                CalibrationParams(a, b)

    def test_grid_requires_identity_point(self):
        with pytest.raises(ValueError, match="identity"):
            CalibrationGrid((0.5, 2.0), (0.0, 10.0))
        with pytest.raises(ValueError, match="identity"):
            CalibrationGrid((0.5, 1.0, 2.0), (10.0, 20.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_grid_requires_finite_values(self, bad):
        with pytest.raises(ValueError, match="finite"):
            CalibrationGrid((1.0, bad), (0.0,))
        with pytest.raises(ValueError, match="finite"):
            CalibrationGrid((1.0,), (0.0, bad))

    def test_grid_requires_ascending(self):
        with pytest.raises(ValueError):
            CalibrationGrid((1.0, 0.5), (0.0,))

    def test_default_grid_shape(self):
        grid = default_grid()
        assert 1.0 in grid.a_values and 0.0 in grid.b_values
        assert len(grid.a_values) == 61  # 60 log-spaced plus exact 1.0
        assert len(grid.b_values) == 51  # linspace already contains 0
        assert grid.a_values[0] == 0.05 and grid.a_values[-1] == 10.0
        assert grid.b_values[-1] == 500.0

    def test_axis_helpers(self):
        assert 1.0 in log_spaced_axis(0.05, 10.0, 60)
        assert 0.0 in linear_axis(0.0, 500.0, 51)


def apply(params: CalibrationParams, g: Gaussian2D) -> Gaussian2D:
    """One detection calibrated by obs_transform; the mean is untouched."""
    cov = obs_transform({"": params}, ("",), g.cov[None])
    return Gaussian2D(g.mean, cov[0])


class TestApply:
    def test_identity(self):
        g = Gaussian2D((1.0, 2.0), [[4.0, 1.0], [1.0, 9.0]])
        out = apply(IDENTITY, g)
        np.testing.assert_allclose(out.mean, g.mean)
        np.testing.assert_allclose(out.cov, g.cov)

    def test_determinant_scaling(self):
        g = Gaussian2D((0.0, 0.0), np.eye(2))
        out = apply(CalibrationParams(4.0, 0.0), g)
        np.testing.assert_allclose(out.cov, 4.0 * np.eye(2))
        assert nll(out, (0.0, 0.0)) - nll(g, (0.0, 0.0)) == pytest.approx(
            math.log(4.0), abs=1e-12
        )

    def test_elementwise_affine(self):
        g = Gaussian2D((0.0, 0.0), [[4.0, 1.0], [1.0, 9.0]])
        out = apply(CalibrationParams(2.0, 3.0), g)
        np.testing.assert_allclose(out.cov, [[11.0, 2.0], [2.0, 21.0]])

    def test_never_shrinks_eigenvalues(self):
        rng = np.random.default_rng(30)
        for _ in range(100):
            cov = random_pd_2x2(rng, 0.5, 50.0)
            a = rng.uniform(1.0, 5.0)
            b = rng.uniform(0.0, 20.0)
            out = apply(CalibrationParams(a, b), Gaussian2D((0, 0), cov))
            assert np.linalg.eigvalsh(out.cov)[0] >= np.linalg.eigvalsh(cov)[0] - 1e-12

    def test_commutes_with_rotation(self):
        rng = np.random.default_rng(31)
        g = Gaussian2D((1.0, 2.0), random_pd_2x2(rng, 1.0, 30.0))
        p = CalibrationParams(2.5, 7.0)
        R = rotation(0.8)
        first = apply(p, Gaussian2D(R @ g.mean, R @ g.cov @ R.T))
        second = apply(p, g)
        np.testing.assert_allclose(first.cov, R @ second.cov @ R.T, rtol=1e-12)


class TestFit:
    def test_exact_covariances_select_identity_region(self):
        # Sampling oracle: with truths drawn from the reported covariances,
        # the NLL at (1, 0) sits within 0.02 of the grid minimum.
        rng = np.random.default_rng(32)
        pairs = sampled_pairs(rng, 10_000, true_scale=1.0)
        grid = default_grid()
        params, best = fit(grid, pairs_arrays(pairs))
        at_identity = float(np.mean([nll(g, t) for g, t in pairs]))
        assert at_identity - best <= 0.02
        assert 0.8 <= params.a <= 1.25

    def test_underdispersed_recovers_scale(self):
        # Moment-matching oracle: true noise is 4x the reported covariance.
        rng = np.random.default_rng(33)
        pairs = sampled_pairs(rng, 10_000, true_scale=4.0)
        params, _ = fit(default_grid(), pairs_arrays(pairs))
        assert 3.5 <= params.a <= 4.5
        assert params.b <= 20.0

    def test_single_pair_truth_at_mean(self):
        # No quadratic term: the smallest determinant wins, i.e. (a_min, 0).
        g = Gaussian2D((10.0, 10.0), 25.0 * np.eye(2))
        grid = default_grid()
        params, _ = fit(grid, pairs_arrays([(g, np.array([10.0, 10.0]))]))
        assert params.a == grid.a_values[0]
        assert params.b == 0.0

    def test_never_worse_than_identity(self):
        rng = np.random.default_rng(34)
        for scale in (0.3, 1.0, 5.0):
            pairs = sampled_pairs(rng, 300, true_scale=scale)
            _, best = fit(default_grid(), pairs_arrays(pairs))
            at_identity = float(np.mean([nll(g, t) for g, t in pairs]))
            assert best <= at_identity + 1e-12

    def test_deterministic(self):
        rng = np.random.default_rng(35)
        pairs = sampled_pairs(rng, 200, true_scale=2.0)
        pairs = pairs_arrays(pairs)
        assert fit(default_grid(), pairs) == fit(default_grid(), pairs)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fit(default_grid(), pairs_arrays([]))

    def test_non_finite_cells_never_win(self):
        # At a = 1e-10 the determinant of 1e-170 * I underflows to 0: that
        # cell's mean NLL is NaN, and no later cell compares less than NaN.
        pairs = Pairs(np.zeros((3, 2)), np.tile(1e-160 * np.eye(2), (3, 1, 1)), np.zeros((3, 2)))
        params, best = fit(CalibrationGrid((1e-10, 1.0), (0.0,)), pairs)
        assert params == IDENTITY and math.isfinite(best)

    def test_no_finite_cell_raises(self):
        # Every cell's determinant overflows.
        pairs = Pairs(np.zeros((3, 2)), np.tile(1e200 * np.eye(2), (3, 1, 1)), np.ones((3, 2)))
        with pytest.raises(ValueError, match="no grid cell gives a finite mean NLL"):
            fit(default_grid(), pairs)


@st.composite
def grid_fit_case(draw):
    """Pairs and a grid for the blocked fit. N runs from 1 to above 2^14
    pairs, so a block holds every b row (N <= 2^14 / n_b), some of them, or
    one. The pairs may be copies of fewer distinct pairs; in the tie mode
    every covariance is I and the grid's a + b sums coincide, so whole
    groups of cells give the same NLL bits."""
    n = draw(st.one_of(st.integers(1, 300), st.integers(301, 8192), st.integers(8193, 17_000)))
    distinct = draw(st.integers(1, n))
    tie = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mean = rng.uniform(0.0, 500.0, (distinct, 2))
    if tie:
        grid = CalibrationGrid(tuple(np.arange(1, 7) / 2.0), tuple(np.arange(7) / 2.0))
        cov = np.broadcast_to(np.eye(2), (distinct, 2, 2))
        noise = rng.standard_normal((distinct, 2)) * draw(st.floats(1.0, 3.0))
    else:
        a_values = draw(st.lists(st.floats(0.05, 10.0), max_size=8))
        b_values = draw(st.lists(st.floats(0.0, 500.0), min_size=20, max_size=60))
        grid = CalibrationGrid(sorted({1.0, *a_values}), sorted({0.0, *b_values}))
        eig = 10.0 ** rng.uniform(-1.0, 3.0, (distinct, 2))
        turn = np.array([rotation(a) for a in rng.uniform(0.0, 2.0 * np.pi, distinct)])
        cov = turn @ (eig[..., None] * np.swapaxes(turn, -1, -2))
        scale = draw(st.floats(0.3, 3.0))
        noise = (np.linalg.cholesky(cov) @ rng.standard_normal((distinct, 2, 1)))[..., 0] * scale
    rows = np.arange(n) % distinct
    return grid, Pairs(mean[rows], np.array(cov)[rows], (mean + noise)[rows])


@st.composite
def conditioned_fit_case(draw):
    """Pairs whose covariances have condition numbers up to 1e6 and largest
    eigenvalues from 1e-3 to 1e6, residuals drawn from them, on a grid as in
    grid_fit_case."""
    n = draw(st.integers(1, 2000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    top = 10.0 ** rng.uniform(-3.0, 6.0, n)
    eig = np.stack([top, top / 10.0 ** rng.uniform(0.0, 6.0, n)], axis=-1)
    turn = np.array([rotation(a) for a in rng.uniform(0.0, 2.0 * np.pi, n)])
    cov = turn @ (eig[..., None] * np.swapaxes(turn, -1, -2))
    mean = rng.uniform(0.0, 500.0, (n, 2))
    noise = (np.linalg.cholesky(cov) @ rng.standard_normal((n, 2, 1)))[..., 0] * draw(st.floats(0.3, 3.0))
    a_values = draw(st.lists(st.floats(0.05, 10.0), max_size=8))
    b_values = draw(st.lists(st.floats(0.0, 500.0), min_size=20, max_size=60))
    return CalibrationGrid(sorted({1.0, *a_values}), sorted({0.0, *b_values})), Pairs(mean, cov, mean + noise)


class TestBlockedFit:
    @settings(max_examples=100)
    @given(grid_fit_case())
    def test_matches_per_cell_fit_bitwise(self, case):
        grid, pairs = case
        params, best = fit(grid, pairs)
        ref_params, ref_best = cell_fit(grid, pairs)
        assert (params.a, params.b) == (ref_params.a, ref_params.b)
        assert best.hex() == ref_best.hex()

    def test_oracles_skip_non_finite_cells(self):
        # As in TestFit: the first cell, a = 1e-10, scores NaN and must not
        # stick as the best; with every cell overflowing there is no best.
        pairs = Pairs(np.zeros((3, 2)), np.tile(1e-160 * np.eye(2), (3, 1, 1)), np.zeros((3, 2)))
        grid = CalibrationGrid((1e-10, 1.0), (0.0,))
        assert fit(grid, pairs) == cell_fit(grid, pairs) == direct_cell_fit(grid, pairs)
        assert fit(grid, pairs)[0] == IDENTITY
        huge = Pairs(np.zeros((3, 2)), np.tile(1e200 * np.eye(2), (3, 1, 1)), np.ones((3, 2)))
        for oracle in (cell_fit, direct_cell_fit):
            with pytest.raises(ValueError, match="no grid cell gives a finite mean NLL"):
                oracle(default_grid(), huge)

    @settings(max_examples=100)
    @given(st.one_of(grid_fit_case(), conditioned_fit_case()))
    def test_picks_a_direct_form_minimum(self, case):
        # The coefficient form rounds differently from the calibrated 2x2
        # matrix's own determinant and quadratic form, but the cell it picks
        # scores, in that direct form, within 1e-12 relative of the best cell.
        grid, pairs = case
        params, _ = fit(grid, pairs)
        _, direct_best = direct_cell_fit(grid, pairs)
        chosen = direct_cell_nll(params.a, params.b, pairs)
        assert chosen - direct_best <= 1e-12 * abs(direct_best)


class TestFitPerView:
    def test_identical_data_identical_params(self):
        rng = np.random.default_rng(36)
        pairs = sampled_pairs(rng, 500, true_scale=2.0)
        result = fit_per_view(default_grid(), {"N1": pairs_arrays(pairs), "N2": pairs_arrays(pairs)})
        assert result.params["N1"] == result.params["N2"]
        assert not result.errors

    def test_mixed_views(self):
        rng = np.random.default_rng(37)
        result = fit_per_view(
            default_grid(),
            {
                "bad": pairs_arrays(sampled_pairs(rng, 4000, true_scale=4.0)),
                "good": pairs_arrays(sampled_pairs(rng, 4000, true_scale=1.0)),
            },
        )
        assert 3.5 <= result.params["bad"].a <= 4.5
        assert 0.8 <= result.params["good"].a <= 1.25

    def test_view_without_finite_cell_errors_alone(self):
        rng = np.random.default_rng(39)
        huge = Pairs(np.zeros((3, 2)), np.tile(1e200 * np.eye(2), (3, 1, 1)), np.ones((3, 2)))
        result = fit_per_view(default_grid(), {"ok": pairs_arrays(sampled_pairs(rng, 100)), "huge": huge})
        assert result.errors == {"huge": "no grid cell gives a finite mean NLL"}
        assert list(result.params) == ["ok"]

    def test_view_without_data_errors_alone(self):
        rng = np.random.default_rng(38)
        result = fit_per_view(
            default_grid(), {"ok": pairs_arrays(sampled_pairs(rng, 100)), "empty": pairs_arrays([])}
        )
        assert "empty" in result.errors
        assert "ok" in result.params


# ---------------------------------------------------------------------------
# Fitting the views in two ranges: a forked child fits the sorted views from
# the view boundary nearest half the pairs, where their pair-cells (pairs
# times grid cells, 4 to a byte) reach forking.SPLIT_BYTES, while this
# process fits the views before them. Every fit must give the one-pass
# result, and leave behind no child and no open file descriptor. Two CPUs
# are patched in, and one for the one-pass result.

_SMALL_GRID = CalibrationGrid((0.5, 1.0, 2.0), (0.0, 10.0))


def _view_pairs(rng, n, overflow=False):
    """n pairs whose covariances are drawn around 25 I, or, with overflow,
    are 1e200 I, which no grid cell scores finitely."""
    if overflow:
        return Pairs(np.zeros((n, 2)), np.tile(1e200 * np.eye(2), (n, 1, 1)), np.ones((n, 2)))
    return pairs_arrays(sampled_pairs(rng, n, true_scale=rng.uniform(0.5, 3.0)))


def _split_fit(grid, pairs_by_view, cpus=(0, 1)):
    """fit_per_view on the given CPUs: its result, the children it forked
    and the work it offered a child. It must leave no child and no file
    descriptor behind."""
    fds = open_fds()
    with mock.patch.object(os, "sched_getaffinity", return_value=set(cpus)), \
            mock.patch.object(os, "fork", wraps=os.fork) as fork, \
            mock.patch.object(calibration, "split_work", wraps=forking.split_work) as split_work:
        result = fit_per_view(grid, pairs_by_view)
    assert_no_child()
    assert open_fds() == fds
    return result, fork.call_count, [call.args[0] for call in split_work.call_args_list]


def _view_by_view(grid, pairs_by_view):
    """The one-pass result: fit on each view in sorted order, its error
    message kept where it raises ValueError."""
    want = PerViewCalibration({}, {}, {})
    for view in sorted(pairs_by_view):
        try:
            want.params[view], want.best_nll[view] = fit(grid, pairs_by_view[view])
        except ValueError as exc:
            want.errors[view] = str(exc)
    return want


def _assert_same_fit(got, want):
    assert list(got.params.items()) == list(want.params.items())
    assert [(v, b.hex()) for v, b in got.best_nll.items()] == [(v, b.hex()) for v, b in want.best_nll.items()]
    assert list(got.errors.items()) == list(want.errors.items())


@st.composite
def split_fit_case(draw):
    """1 to 9 views of 0 to 40 pairs, each of which may score no finite
    cell, named so that their sorted order is not the order drawn."""
    n_views = draw(st.integers(1, 9))
    counts = draw(st.lists(st.integers(0, 40), min_size=n_views, max_size=n_views))
    overflow = draw(st.lists(st.booleans(), min_size=n_views, max_size=n_views))
    return counts, overflow, draw(st.integers(0, 2**32 - 1))


@fork_only
@settings(max_examples=100)
@given(split_fit_case())
@example(([30, 10, 0], [False] * 3, 1))  # no pairs in the child's range
@example(([30, 10, 10], [False, False, True], 2))  # no finite cell in it
@example(([0, 10, 10, 30], [False, True, False, False], 3))  # both in this process's
def test_a_split_fit_is_the_one_pass_fit(case):
    counts, overflow, seed = case
    rng = np.random.default_rng(seed)
    pairs_by_view = {f"V{9 - k}": _view_pairs(rng, n, bad and n > 0) for k, (n, bad) in
                     enumerate(zip(counts, overflow))}
    # The boundary nearest half the pairs, the upper one on a tie.
    ordered = [len(pairs_by_view[view]) for view in sorted(pairs_by_view)]
    ends = [sum(ordered[:k]) for k in range(len(ordered) + 1)]
    mid = max(range(len(ends)), key=lambda k: (-abs(2 * ends[k] - ends[-1]), k))
    work = (ends[-1] - ends[mid]) * 6 // 4
    with mock.patch.object(forking, "SPLIT_BYTES", 0):
        got, forks, offered = _split_fit(_SMALL_GRID, pairs_by_view)
        want, one_pass_forks, _ = _split_fit(_SMALL_GRID, pairs_by_view, cpus=(0,))
    assert (forks, one_pass_forks, offered) == (int(work > 0), 0, [work])
    _assert_same_fit(got, want)
    _assert_same_fit(got, _view_by_view(_SMALL_GRID, pairs_by_view))


@fork_only
def test_a_failed_child_leaves_its_views_to_this_process():
    # pickle.dump fails in the child (which inherits the patch): it exits 1,
    # and this process fits its views itself.
    rng = np.random.default_rng(40)
    pairs_by_view = {"N1": _view_pairs(rng, 30), "N2": _view_pairs(rng, 20), "N3": _view_pairs(rng, 3, True)}
    with mock.patch.object(forking, "SPLIT_BYTES", 0):
        want = _split_fit(_SMALL_GRID, pairs_by_view, cpus=(0,))[0]
        with mock.patch.object(pickle, "dump", side_effect=MemoryError), \
                mock.patch.object(calibration, "fit", wraps=calibration.fit) as fits:
            got, forks, _ = _split_fit(_SMALL_GRID, pairs_by_view)
    assert (forks, fits.call_count) == (1, 3)
    _assert_same_fit(got, want)
    assert list(got.errors) == ["N3"]


@fork_only
@pytest.mark.parametrize("fails", ["fork", "temporary file"])
def test_a_fork_that_fails_fits_in_one_pass(fails):
    rng = np.random.default_rng(41)
    pairs_by_view = {"N1": _view_pairs(rng, 30), "N2": _view_pairs(rng, 3, True), "N3": _view_pairs(rng, 20)}
    target = (os, "fork") if fails == "fork" else (forking.tempfile, "TemporaryFile")
    with mock.patch.object(forking, "SPLIT_BYTES", 0):
        want = _split_fit(_SMALL_GRID, pairs_by_view, cpus=(0,))[0]
        fds = open_fds()
        with mock.patch.object(os, "sched_getaffinity", return_value={0, 1}), \
                mock.patch.object(*target, side_effect=BlockingIOError) as failing:
            got = fit_per_view(_SMALL_GRID, pairs_by_view)
    assert_no_child()
    assert failing.call_count == 1 and open_fds() == fds
    _assert_same_fit(got, want)


@fork_only
def test_the_floor_splits_the_eight_view_fit_alone():
    # At the default floor and grid (3111 cells), on two CPUs: long_track's
    # 8-view validation split (seed 7's pair counts; the child fits N5-N8,
    # 4447 pairs) and the walkthrough's 4-view one (N3 and N4, 1188 pairs)
    # split; sparse_views' 2-view one (353 + 253 pairs: the child would fit
    # N2's 253, 196,770 bytes at 4 pair-cells a byte) does not.
    rng = np.random.default_rng(42)
    shapes = {
        "long_track": [1158, 1141, 1154, 1068, 1172, 1121, 1126, 1028],
        "walkthrough": [585, 537, 588, 600],
        "sparse_views": [353, 253],
    }
    forks = {}
    for name, counts in shapes.items():
        pairs_by_view = {f"N{k + 1}": _view_pairs(rng, n) for k, n in enumerate(counts)}
        got, forks[name], _ = _split_fit(default_grid(), pairs_by_view)
        if name == "long_track":
            _assert_same_fit(got, _split_fit(default_grid(), pairs_by_view, cpus=(0,))[0])
    assert forks == {"long_track": 1, "walkthrough": 1, "sparse_views": 0}
