import math
import os
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.integrate import quad

from levysheet import fdd, gauss
from levysheet.exponent import brownian
from levysheet.paths import (
    ExponentialPath,
    HorizontalPath,
    LinearPath,
    TabulatedPath,
    VerticalPath,
)
from levysheet.verify import cf_match, empirical_cf


def bridge():
    return LinearPath(0.0, 1.0, 1.0, 1.0, 0.0, 1.0)


def bridge_law():
    return gauss.GaussPathLaw(bridge())


class TestCovariance:
    def test_example(self):
        assert gauss.covariance(bridge_law(), 0.3, 0.6) == pytest.approx(0.12)
        assert gauss.covariance(bridge_law(), 0.6, 0.3) == pytest.approx(0.12)

    def test_diagonal_is_variance(self):
        assert gauss.covariance(bridge_law(), 0.5, 0.5) == pytest.approx(0.25)

    def test_bridge_family_covariance(self):
        # (p t, (1 - t/l)/p) has covariance s (1 - t/l) regardless of p
        law = gauss.GaussPathLaw(LinearPath(0.0, 2.0, 0.5, 0.5, 0.0, 1.0))
        for s, t in ((0.2, 0.7), (0.1, 0.9)):
            assert gauss.covariance(law, s, t) == pytest.approx(s * (1 - t))

    def test_matrix_psd(self):
        rng = np.random.default_rng(41)
        paths = [bridge(), ExponentialPath(0.7, 1.3, 0.8, 0.0, 2.0),
                 LinearPath(0.3, 1.0, 2.0, 1.0, 0.0, 1.5)]
        for path in paths:
            law = gauss.GaussPathLaw(path)
            times = np.sort(rng.uniform(path.t_lo, path.t_hi, size=8))
            mat = gauss.covariance_matrix(law, times)
            assert np.min(np.linalg.eigvalsh(mat)) >= -1e-10

    def test_time_reversal_of_bridge(self):
        law = bridge_law()
        for s, t in ((0.25, 0.75), (0.125, 0.5)):  # dyadic: exact reversal
            assert gauss.covariance(law, s, t) == gauss.covariance(law, 1 - t, 1 - s)
        rng = np.random.default_rng(42)
        for _ in range(20):
            s, t = np.sort(rng.uniform(0, 1, size=2))
            assert gauss.covariance(law, s, t) == pytest.approx(
                gauss.covariance(law, 1 - t, 1 - s), abs=1e-12)


class TestJointCF:
    def test_two_point_example(self):
        val = gauss.gaussian_joint_cf(bridge_law(), [0.3, 0.6], [1.0, 1.0])
        assert val == pytest.approx(math.exp(-0.345), abs=1e-14)

    def test_zero_probe(self):
        assert gauss.gaussian_joint_cf(bridge_law(), [0.3, 0.6], [0.0, 0.0]) == 1.0

    @pytest.mark.parametrize("zs", [[[1.0], [2.0], [3.0]], [[1.0, 2.0]], [[1.0, 2.0], [3.0, 4.0]],
                                    [1.0, 2.0, 3.0]])
    def test_rejects_bad_probe_shape(self, zs):
        with pytest.raises(ValueError, match=r"zs must have shape \(2, 1\)"):
            gauss.gaussian_joint_cf(bridge_law(), [0.3, 0.6], zs)

    def test_agrees_with_general_formula(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            d = int(rng.integers(1, 4))
            n = int(rng.integers(1, 6))
            path = ExponentialPath(*rng.uniform(0.5, 2.0, size=3), 0.0, 1.5)
            times = np.sort(rng.uniform(0.05, 1.45, size=n))
            if np.any(np.diff(times) <= 0):
                continue
            zs = rng.normal(size=(n, d))
            law = gauss.GaussPathLaw(path, dim=d)
            a = gauss.gaussian_joint_cf(law, times, zs)
            b = fdd.joint_cf(brownian(d), path, times, zs)
            assert abs(a - b) < 1e-12


class TestSimulate:
    def test_endpoints_exactly_zero(self):
        rng = np.random.default_rng(44)
        values = gauss.simulate_paths(bridge_law(), [0.0, 0.5, 1.0], rng)[0]
        assert values[0, 0] == 0.0
        assert values[2, 0] == 0.0

    def test_marginal_variance_band(self):
        rng = np.random.default_rng(45)
        n = 50_000
        vals = gauss.simulate_paths(bridge_law(), [0.3, 0.5, 0.8], rng, n_paths=n)[:, :, 0]
        for j, t in enumerate((0.3, 0.5, 0.8)):
            target = t * (1 - t)
            assert abs(vals[:, j].var() - target) <= 4.0 * target * math.sqrt(2.0 / n)

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("path, grid", [
        (ExponentialPath(1.0, 0.5, 1.0, 0.0, 1.5), np.linspace(0.0, 1.5, 31)),
        (bridge(), np.array([0.0, 0.3, 0.5, 0.6, 0.9])),
    ])
    def test_ratio_recursion_bit_for_bit(self, path, grid, dim):
        # where y > 0: X = y(t) B_{x/y}, B summed from N(0, diff(x/y)) increments
        n = 6
        got = gauss.simulate_paths(gauss.GaussPathLaw(path, dim=dim), grid,
                                   np.random.default_rng(46), n_paths=n)
        rng = np.random.default_rng(46)
        for k in range(dim):
            normals = rng.standard_normal((n, grid.size))
            want = np.zeros((n, grid.size))
            for i in range(n):
                bm, prev = 0.0, 0.0
                for j, t in enumerate(grid):
                    x, y = float(path.x(t)), float(path.y(t))
                    bm += math.sqrt(x / y - prev) * normals[i, j]
                    prev = x / y
                    want[i, j] = y * bm if x * y != 0.0 else 0.0
            assert got[:, :, k].tobytes() == want.tobytes()

    def test_bridge_ends_pinned_inner_covariance(self):
        rng = np.random.default_rng(48)
        grid = [0.0, 0.3, 0.5, 0.6, 1.0]
        n = 40_000
        vals = gauss.simulate_paths(bridge_law(), grid, rng, n_paths=n)[:, :, 0]
        ends = vals[:, [0, -1]]
        assert np.all(ends == 0.0) and not np.any(np.signbit(ends))
        target = gauss.covariance_matrix(bridge_law(), grid[1:-1])
        emp = np.cov(vals[:, 1:-1], rowvar=False)
        se = np.sqrt((np.outer(np.diag(target), np.diag(target)) + target ** 2) / n)
        assert np.all(np.abs(emp - target) <= 4.0 * se)

    def test_multidimensional_components_independent(self):
        rng = np.random.default_rng(47)
        law = gauss.GaussPathLaw(bridge(), dim=2)
        vals = gauss.simulate_paths(law, [0.5], rng, n_paths=30_000)[:, 0, :]
        cross = float(np.corrcoef(vals[:, 0], vals[:, 1])[0, 1])
        assert abs(cross) < 4.0 / math.sqrt(30_000)

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError, match="nonempty"):
            gauss.simulate_paths(bridge_law(), [], np.random.default_rng(48))

    def test_rejects_nan_grid_times(self):
        for grid in ([0.2, math.nan, 0.5], [math.nan, 0.5]):
            with pytest.raises(ValueError, match="strictly increasing"):
                gauss.simulate_paths(bridge_law(), grid, np.random.default_rng(48))
        with pytest.raises(ValueError, match="outside the path domain"):
            gauss.simulate_paths(bridge_law(), [math.nan], np.random.default_rng(48))

    def test_sample_grid_rejects_non_finite_times(self):
        for times in ([0.0, math.nan], [math.nan], [0.0, math.inf]):
            with pytest.raises(ValueError, match="finite and strictly increasing"):
                gauss.SamplePathGrid(times, np.zeros(len(times)))

    @pytest.mark.parametrize("times, values, message", [
        ([math.nan], [0.0], "finite and strictly increasing"),
        ([0.0, math.nan], [0.0, 0.0], "finite and strictly increasing"),
        ([math.nan, 0.5], [0.0, 0.0], "finite and strictly increasing"),
        ([-math.inf, 0.5], [0.0, 0.0], "finite and strictly increasing"),
        ([0.1, 0.3, 0.3], [0.0, 0.0, 0.0], "finite and strictly increasing"),
        ([0.3, 0.1, 0.2], [0.0, 0.0, 0.0], "finite and strictly increasing"),
        ([0.2, 0.1], [math.nan, 0.0], "finite and strictly increasing"),  # times are checked first
        ([0.1, 0.2], [0.0, math.nan], "sample values must be finite"),
        ([0.1, 0.2], [[0.0, 1.0], [-math.inf, 0.0]], "sample values must be finite"),
        ([0.1], [[math.nan]], "sample values must be finite"),
        ([], [], None),
    ])
    def test_sample_grid_verdicts(self, times, values, message):
        if message is None:
            assert gauss.SamplePathGrid(times, values).values.shape == (len(times), 1)
        else:
            with pytest.raises(ValueError, match=message):
                gauss.SamplePathGrid(times, values)

    def test_sample_grid_rejects_unordered_times_and_bad_values(self):
        for times in ([0.5, 0.5], [0.5, 0.2], [0.1, 0.3, 0.2]):
            with pytest.raises(ValueError, match="finite and strictly increasing"):
                gauss.SamplePathGrid(times, np.zeros(len(times)))
        with pytest.raises(ValueError, match="one row per grid time"):
            gauss.SamplePathGrid([0.1, 0.2], np.zeros(3))
        with pytest.raises(ValueError, match="sample values must be finite"):
            gauss.SamplePathGrid([0.1, 0.2], [[0.0], [math.inf]])
        assert gauss.SamplePathGrid([0.3], [1.0]).values.tolist() == [[1.0]]

    def test_one_draw_wrapper(self):
        rng = np.random.default_rng(49)
        sample = gauss.SamplePathGrid([0.25, 0.5],
                                      gauss.simulate_paths(bridge_law(), [0.25, 0.5], rng)[0])
        assert sample.values.shape == (2, 1)
        assert sample.to_csv().startswith("t,v1\n")


class TestBlockedSampler:
    """Calls above _BLOCK_NORMALS normals are drawn in row blocks, one child
    generator per block, on a thread pool."""

    EXPO = ExponentialPath(1.0, 0.5, 1.0, 0.0, 1.5)
    GRID = np.linspace(0.0, 1.5, 301)

    @staticmethod
    def blocks(dim, n_paths, points):
        return -(-dim * n_paths // max(1, gauss._BLOCK_NORMALS // points))

    @pytest.mark.parametrize("dim, n_paths", [(1, 6000), (2, 3000)])
    def test_same_bytes_on_any_worker_count(self, monkeypatch, dim, n_paths):
        assert self.blocks(dim, n_paths, self.GRID.size) == 4
        law = gauss.GaussPathLaw(self.EXPO, dim=dim)
        draws = []
        pools = [gauss._pool(), None, ThreadPoolExecutor(3)]  # default, inline, 3 workers
        try:
            for pool in pools:
                monkeypatch.setattr(gauss, "_pool", lambda pool=pool: pool)
                vals = gauss.simulate_paths(law, self.GRID, np.random.default_rng(50), n_paths)
                draws.append(vals.tobytes())
        finally:
            pools[-1].shutdown()
        assert draws[0] == draws[1] == draws[2]

    def test_variance_covariance_and_independent_blocks(self):
        # 40,000 rows of 101 points are 8 blocks of 5,190 rows
        grid = np.linspace(0.0, 1.0, 101)
        n = 40_000
        assert self.blocks(1, n, grid.size) == 8
        vals = gauss.simulate_paths(bridge_law(), grid, np.random.default_rng(51), n)[:, :, 0]
        i3, i5, i6 = 30, 50, 60
        var = 0.25
        assert abs(np.mean(vals[:, i5] ** 2) - var) <= 4.0 * var * math.sqrt(2.0 / n)
        cov = 0.3 * 0.4
        se = math.sqrt((0.3 * 0.7 * 0.6 * 0.4 + cov ** 2) / n)
        assert abs(np.mean(vals[:, i3] * vals[:, i6]) - cov) <= 4.0 * se
        # rows of block 0 against rows of block 1: distinct streams, no correlation
        rows = gauss._BLOCK_NORMALS // grid.size
        first, second = vals[:rows, i5], vals[rows:2 * rows, i5]
        assert abs(np.mean(first * second)) <= 4.0 * var / math.sqrt(rows)

    def test_seeded_and_consecutive_calls(self):
        law = gauss.GaussPathLaw(self.EXPO)
        one = gauss.simulate_paths(law, self.GRID, np.random.default_rng(52), 6000)
        rng = np.random.default_rng(52)
        again = gauss.simulate_paths(law, self.GRID, rng, 6000)
        later = gauss.simulate_paths(law, self.GRID, rng, 6000)
        assert one.tobytes() == again.tobytes()
        assert not np.any(later == again)

    def test_concurrent_callers_share_one_pool(self, monkeypatch):
        # more callers and pool workers than cores, racing on the lazy pool
        law = gauss.GaussPathLaw(self.EXPO)
        want = gauss.simulate_paths(law, self.GRID, np.random.default_rng(53), 6000).tobytes()
        monkeypatch.setattr(gauss, "_POOL", None)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(6) as callers:
                runs = [callers.submit(gauss.simulate_paths, law, self.GRID,
                                       np.random.default_rng(53), 6000) for _ in range(6)]
                got = [run.result(timeout=60).tobytes() for run in runs]
            made = gauss._POOL
        finally:
            sys.setswitchinterval(interval)
            if gauss._POOL and gauss._POOL[1]:
                gauss._POOL[1].shutdown()
        assert got == [want] * 6
        assert made[0] == os.getpid()

    def test_forked_process_makes_its_own_pool(self, monkeypatch):
        pool = gauss._pool()
        monkeypatch.setattr(gauss, "_POOL", (-1, pool))  # as if made before a fork
        fresh = gauss._pool()
        try:
            assert gauss._POOL == (os.getpid(), fresh)
            assert fresh is None or fresh is not pool
        finally:
            if fresh is not None:
                fresh.shutdown()


class TestTransitionDensity:
    def test_example_moments(self):
        law = bridge_law()
        # mean 0.625, variance 0.1875 at the conditioning in the docs
        peak = gauss.transition_density(law, 0.2, 0.5, 1.0, 0.625)
        assert peak == pytest.approx(1.0 / math.sqrt(2 * math.pi * 0.1875), abs=1e-12)

    def test_integrates_to_one(self):
        law = bridge_law()
        total, err = quad(lambda w: gauss.transition_density(law, 0.2, 0.5, 1.0, w),
                          -8.0, 8.0, limit=200)
        assert abs(total - 1.0) < 1e-8

    def test_variance_shrinks_near_s(self):
        law = bridge_law()
        wide = gauss.transition_density(law, 0.2, 0.5, 1.0, 0.625)
        narrow = gauss.transition_density(law, 0.2, 0.2001, 1.0, 1.0)
        assert narrow > wide  # density concentrates as t -> s

    def test_degenerate_terminal(self):
        law = bridge_law()
        assert gauss.transition_density(law, 0.5, 1.0, 0.3, 0.0) == math.inf
        assert gauss.transition_density(law, 0.5, 1.0, 0.3, 0.1) == 0.0


class TestZeroCrossing:
    def test_conditional_closed_form_vs_quadrature(self):
        law = bridge_law()
        s, t, z = 0.25, 0.75, 0.1
        closed = gauss.zero_prob_conditional(law, s, t, z)
        k = abs(z / float(bridge().y(s)))
        gap = float(bridge().x(t) / bridge().y(t) - bridge().x(s) / bridge().y(s))
        integral, _ = quad(lambda u: u ** -1.5 * math.exp(-k * k / (2 * u)),
                           0.0, gap, limit=200)
        assert closed == pytest.approx(k / math.sqrt(2 * math.pi) * integral, abs=1e-8)

    def test_limits(self):
        law = gauss.GaussPathLaw(ExponentialPath(1.0, 1.0, 1.0, 0.0, 60.0))
        assert gauss.zero_prob_conditional(law, 1.0, 1.0001, 2.0) < 1e-6
        assert gauss.zero_prob_conditional(law, 1.0, 25.0, 0.01) > 0.999

    def test_conditional_rejects_zero_start(self):
        for z in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="finite and nonzero"):
                gauss.zero_prob_conditional(bridge_law(), 0.25, 0.75, z)

    def test_unconditional_rejects_nan_times(self):
        for s, t in ((math.nan, 0.5), (0.25, math.nan)):
            with pytest.raises(ValueError, match="strictly increasing"):
                gauss.zero_prob(bridge_law(), s, t)

    def test_unconditional_example(self):
        val = gauss.zero_prob(bridge_law(), 0.25, 0.75)
        assert val == pytest.approx(2.0 / math.pi * math.acos(1.0 / 3.0), abs=1e-14)

    def test_unconditional_limits(self):
        law = bridge_law()
        assert gauss.zero_prob(law, 0.5, 0.5) == 0.0
        assert gauss.zero_prob(law, 1e-12, 0.9) == pytest.approx(1.0, abs=1e-5)

    def test_frequency_unbiased_on_a_coarse_grid(self):
        # a plain sign-change count on 100 points gives about 0.746 here
        law, n = bridge_law(), 20_000
        target = gauss.zero_prob(law, 0.25, 0.75)
        freq = gauss.zero_crossing_frequency(law, 0.25, 0.75, n, 100, np.random.default_rng(26))
        # per-path values lie in [0, 1], so their variance is at most p (1 - p)
        assert abs(freq - target) <= 4.0 * math.sqrt(target * (1.0 - target) / n)

    @pytest.mark.parametrize("grid_points", [0, 1])
    def test_frequency_rejects_degenerate_grid(self, grid_points):
        with pytest.raises(ValueError, match="grid_points"):
            gauss.zero_crossing_frequency(bridge_law(), 0.25, 0.75, 10, grid_points,
                                          np.random.default_rng(27))

    def test_unconditional_at_vanishing_y(self):
        # the bridge is pinned to 0 at t = 1, where y(1) = 0 and r(t) -> infinity
        law = bridge_law()
        assert gauss.zero_prob(law, 0.25, 1.0) == 1.0
        near = gauss.zero_prob(law, 0.25, 0.999999)
        assert 0.999 < near < 1.0

    def test_conditional_at_vanishing_y(self):
        law = bridge_law()
        assert gauss.zero_prob_conditional(law, 0.25, 1.0, 0.1) == 1.0
        near = gauss.zero_prob_conditional(law, 0.25, 0.999999, 0.1)
        assert 0.999 < near < 1.0

    def test_frequency_at_vanishing_y(self):
        # every path reaches the pinned zero at t = 1; log(0) there must not warn,
        # also on the pool threads that draw the 4 blocks
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            freq = gauss.zero_crossing_frequency(bridge_law(), 0.25, 1.0, 20_000, 100,
                                                 np.random.default_rng(28))
        assert freq == 1.0

    @pytest.mark.parametrize("s, t", [(0.5, 0.5), (0.75, 0.25)])
    def test_frequency_rejects_empty_window(self, s, t):
        with pytest.raises(ValueError, match="strictly increasing"):
            gauss.zero_crossing_frequency(bridge_law(), s, t, 10, 50, np.random.default_rng(29))


class TestCrossingBlocks:
    """zero_crossing_frequency reduces the blocks of one simulate_paths draw."""

    EXPO = gauss.GaussPathLaw(ExponentialPath(1.0, 0.5, 1.0, 0.0, 1.5))

    @staticmethod
    def plain(law, s, t, n_paths, points, seed):
        grid = np.linspace(s, t, points)
        vals = gauss.simulate_paths(law, grid, np.random.default_rng(seed), n_paths)[:, :, 0]
        xs, ys = law.path.x(grid), law.path.y(grid)
        gap = xs[1:] * ys[:-1] - xs[:-1] * ys[1:]
        with np.errstate(divide="ignore"):
            stay = -np.expm1(-2.0 * np.maximum(vals[:, 1:] * vals[:, :-1], 0.0) / gap)
        return float(np.mean(1.0 - np.prod(stay, axis=1)))

    @pytest.mark.parametrize("n_paths, points, blocks", [(300, 50, 1), (20_000, 100, 4)])
    @pytest.mark.parametrize("which, s, t", [("bridge", 0.25, 0.75), ("expo", 0.2, 1.3)])
    def test_mean_over_one_simulate_paths_call(self, which, s, t, n_paths, points, blocks):
        assert TestBlockedSampler.blocks(1, n_paths, points) == blocks
        law = bridge_law() if which == "bridge" else self.EXPO
        freq = gauss.zero_crossing_frequency(law, s, t, n_paths, points,
                                             np.random.default_rng(30))
        assert abs(freq - self.plain(law, s, t, n_paths, points, 30)) <= 1e-12

    def test_same_estimate_on_any_worker_count(self, monkeypatch):
        got = []
        pools = [gauss._pool(), None, ThreadPoolExecutor(3)]  # default, inline, 3 workers
        try:
            for pool in pools:
                monkeypatch.setattr(gauss, "_pool", lambda pool=pool: pool)
                got.append(gauss.zero_crossing_frequency(bridge_law(), 0.25, 0.75, 20_000, 100,
                                                         np.random.default_rng(31)))
        finally:
            pools[-1].shutdown()
        assert got[0] == got[1] == got[2]

    def test_rejects_vector_law(self):
        law = gauss.GaussPathLaw(bridge(), dim=2)
        with pytest.raises(ValueError, match="dim=1"):
            gauss.zero_crossing_frequency(law, 0.25, 0.75, 10, 50, np.random.default_rng(32))


class TestIdentification:
    def test_bridge_standard(self):
        assert gauss.identify_bridge(bridge()) == pytest.approx((1.0, 1.0))

    def test_bridge_rescaled(self):
        got = gauss.identify_bridge(LinearPath(0.0, 2.0, 0.5, 0.5, 0.0, 1.0))
        assert got == pytest.approx((1.0, 2.0))

    def test_bridge_rejects_exponential(self):
        assert gauss.identify_bridge(ExponentialPath(1.0, 1.0, 1.0, 0.0, 1.0)) is None

    def test_bridge_tabulated(self):
        ts = np.linspace(0.0, 2.0, 21)
        tab = TabulatedPath(ts, 1.5 * ts, (1.0 - ts / 2.0) / 1.5)
        l, p = gauss.identify_bridge(tab)
        assert (l, p) == pytest.approx((2.0, 1.5))

    def test_ou_exponential(self):
        a, b, c = gauss.identify_ou(ExponentialPath(1.0, 0.5, 2.0, 0.0, 1.0))
        assert (a, b, c) == pytest.approx((1.0, 0.5, 2.0))
        assert a * b == pytest.approx(0.5)  # stationary variance

    def test_ou_normalized_variance_half(self):
        a, b, _ = gauss.identify_ou(ExponentialPath(1.0, 0.5, 1.0, 0.0, 1.0))
        assert a * b == pytest.approx(0.5)

    def test_ou_rejects_linear(self):
        assert gauss.identify_ou(bridge()) is None

    @pytest.mark.parametrize("path", [
        HorizontalPath.affine(0.0, 1.0, 1.0, 0.0, 1.0),
        VerticalPath.affine(1.0, 1.0, 1.0, 0.0, 1.0),
    ])
    def test_zero_slope_lines_are_neither(self, path):
        assert gauss.identify_bridge(path) is None
        assert gauss.identify_ou(path) is None

    def test_ou_tabulated(self):
        ts = np.linspace(0.0, 1.0, 33)
        tab = TabulatedPath(ts, 0.8 * np.exp(1.2 * ts), 0.6 * np.exp(-1.2 * ts))
        a, b, c = gauss.identify_ou(tab)
        assert (a, b, c) == pytest.approx((0.8, 0.6, 1.2))
