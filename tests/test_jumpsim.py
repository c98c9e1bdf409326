import math

import numpy as np
import pytest

from levysheet import fdd, jumpsim
from levysheet.exponent import Categorical, TwoPoint, cpp_from_atoms
from levysheet.paths import ExponentialPath, LinearPath
from levysheet.verify import cf_match, chi2_binned, empirical_cf, ks_1d


def bridge():
    return LinearPath(0.0, 1.0, 1.0, 1.0, 0.0, 1.0)


class TestSheetSimulation:
    def test_zero_rate_gives_empty_field(self):
        rng = np.random.default_rng(50)
        field = jumpsim.simulate_cpp_sheet(0.0, TwoPoint(1.0),
                                           jumpsim.RectRegion(1.0, 1.0), rng)
        assert field.count == 0

    def test_mean_count(self):
        rng = np.random.default_rng(51)
        region = jumpsim.RectRegion(2.0, 1.5)
        rate = 3.0
        reps = 4000
        counts = [jumpsim.simulate_cpp_sheet(rate, TwoPoint(1.0), region, rng).count
                  for _ in range(reps)]
        mean = rate * region.area
        assert abs(np.mean(counts) - mean) <= 4.0 * math.sqrt(mean / reps)

    def test_location_uniformity(self):
        rng = np.random.default_rng(52)
        region = jumpsim.RectRegion(2.0, 1.0)
        field = jumpsim.simulate_cpp_sheet(50_000 / region.area, TwoPoint(1.0),
                                           region, rng)
        report = chi2_binned(field.locations,
                             density=lambda u, v: np.full_like(u, 1.0 / region.area),
                             bins=10, support=((0.0, 2.0), (0.0, 1.0)))
        assert report.extra["pvalue"] > 1e-3

    def test_triangle_sampler_stays_inside(self):
        rng = np.random.default_rng(53)
        region = jumpsim.TriangleRegion(2.0, 3.0)
        pts = region.sample(rng, 10_000)
        assert np.all(region.contains(pts))


class TestRestriction:
    def test_single_jump_events(self):
        field = jumpsim.JumpField(jumpsim.RectRegion(1.0, 1.0),
                                  np.array([[0.3, 0.4]]), np.array([[5.0]]))
        events = jumpsim.restrict_to_path(field, bridge())
        assert events.times.tolist() == [pytest.approx(0.3), pytest.approx(0.6)]
        assert events.increments[:, 0].tolist() == [5.0, -5.0]

    def test_empty_field(self):
        field = jumpsim.JumpField(jumpsim.RectRegion(1.0, 1.0),
                                  np.zeros((0, 2)), np.zeros((0, 1)))
        events = jumpsim.restrict_to_path(field, bridge())
        assert events.times.size == 0
        assert np.all(events.values([0.1, 0.9]) == 0.0)

    def test_brute_force_equality_exact(self):
        rng = np.random.default_rng(54)
        path = LinearPath(0.25, 1.0, 2.0, 1.5, 0.0, 1.0)
        region = jumpsim.RectRegion(float(path.x(1.0)) * 1.2, float(path.y(0.0)) * 1.2)
        dist = Categorical([[0.5], [-0.25], [1.5]], [0.3, 0.4, 0.3])
        field = jumpsim.simulate_cpp_sheet(30.0, dist, region, rng)
        events = jumpsim.restrict_to_path(field, path)
        for t in rng.uniform(0.0, 1.0, size=100):
            want = jumpsim.rectangle_sum(field, float(path.x(t)), float(path.y(t)))
            assert np.array_equal(events.values([t])[0], want)

    def test_brute_force_equality_exact_on_flat_stretches(self, flat_stretch_path):
        rng = np.random.default_rng(55)
        path = flat_stretch_path
        region = jumpsim.RectRegion(float(path.x(1.0)) * 1.2, float(path.y(0.0)) * 1.2)
        field = jumpsim.simulate_cpp_sheet(400.0, TwoPoint(1.0), region, rng)
        events = jumpsim.restrict_to_path(field, path)
        probes = np.concatenate([rng.uniform(0.0, 1.0, size=200), path.times])
        for t in probes:
            want = jumpsim.rectangle_sum(field, float(path.x(t)), float(path.y(t)))
            assert np.array_equal(events.values([t])[0], want)

    def test_persistent_jumps_have_no_exit(self):
        # path ends at (1.5, 1): jumps below y=1 stay in the rectangle forever
        path = LinearPath(0.5, 1.0, 2.0, 1.0, 0.0, 1.0)
        field = jumpsim.JumpField(jumpsim.RectRegion(2.0, 2.0),
                                  np.array([[0.7, 0.5], [0.7, 1.5]]),
                                  np.array([[1.0], [1.0]]))
        events = jumpsim.restrict_to_path(field, path)
        # first jump enters (below terminal y) and never leaves; second enters and leaves
        incs = events.increments[:, 0]
        assert np.sum(incs > 0) == 2
        assert np.sum(incs < 0) == 1

    def test_region_must_cover_sweep(self):
        field = jumpsim.JumpField(jumpsim.RectRegion(0.5, 0.5),
                                  np.array([[0.2, 0.2]]), np.array([[1.0]]))
        with pytest.raises(ValueError):
            jumpsim.restrict_to_path(field, bridge())

    def test_exponential_path_restriction(self):
        path = ExponentialPath(0.5, 1.0, 1.0, 0.0, 1.0)
        field = jumpsim.JumpField(jumpsim.RectRegion(1.5, 1.0),
                                  np.array([[0.7, 0.6]]), np.array([[2.0]]))
        events = jumpsim.restrict_to_path(field, path)
        assert events.times[0] == pytest.approx(math.log(0.7 / 0.5), abs=1e-12)
        assert events.times[1] == pytest.approx(math.log(1.0 / 0.6), abs=1e-12)


class TestEventPath:
    def test_equal_times_keep_insertion_order(self):
        ev = jumpsim.EventPath.from_events([0.5, 0.25, 0.5], [[1.0], [2.0], [-1.0]],
                                           0.0, 1.0)
        assert ev.times.tolist() == [0.25, 0.5, 0.5]
        assert ev.increments[:, 0].tolist() == [2.0, 1.0, -1.0]

    def test_value_includes_events_at_query_time(self):
        ev = jumpsim.EventPath.from_events([0.5], [[3.0]], 0.0, 1.0)
        assert ev.value(0.5)[0] == 3.0
        assert ev.value(0.49)[0] == 0.0

    def test_initial_value(self):
        ev = jumpsim.EventPath.from_events([0.5], [[1.0]], 0.0, 1.0, initial=[2.0])
        assert ev.value(0.0)[0] == 2.0
        assert ev.value(0.9)[0] == 3.0

    def test_csv(self):
        ev = jumpsim.EventPath.from_events([0.5], [[1.0]], 0.0, 1.0)
        assert ev.to_csv().splitlines()[0] == "tau,dj1"


class TestOrderStats:
    def test_corner_maps_to_full_interval(self):
        assert jumpsim.triangle_to_order_stats(np.array([0.0, 0.0]), 1.0, 1.0, 1.0) \
            == (0.0, 1.0)

    def test_rejects_outside_triangle(self):
        with pytest.raises(ValueError):
            jumpsim.triangle_to_order_stats(np.array([0.9, 0.9]), 1.0, 1.0, 1.0)

    def test_ordering_and_min_law(self):
        rng = np.random.default_rng(55)
        b, c, l = 1.5, 2.0, 2.0
        region = jumpsim.TriangleRegion(b * l, c)
        taus = jumpsim.triangle_to_order_stats(region.sample(rng, 50_000), b, c, l)
        assert np.all(taus[:, 0] <= taus[:, 1] + 1e-12)
        report = ks_1d(taus[:, 0],
                       lambda t: 1.0 - (1.0 - np.clip(t, 0.0, l) / l) ** 2)
        assert report.extra["pvalue"] > 1e-3


class TestRearrangement:
    def test_no_jumps(self):
        rng = np.random.default_rng(56)
        empty = jumpsim.EventPath.from_events(np.zeros(0), np.zeros((0, 1)), 0.0, 1.0)
        y_prime, z = jumpsim.rearranged_difference(empty, rng)
        assert z.times.size == 0
        assert np.all(z.values([0.3, 0.9]) == 0.0)

    def test_total_increment_cancels(self):
        rng = np.random.default_rng(57)
        y = jumpsim.simulate_cpp_path(5.0, TwoPoint(1.0), 0.0, 1.0, rng)
        _, z = jumpsim.rearranged_difference(y, rng)
        assert float(z.increments.sum()) == 0.0
        assert z.value(1.0)[0] == 0.0

    def test_rearranged_preserves_law(self):
        rng = np.random.default_rng(58)
        n = 20_000
        vals = np.empty((n, 2))
        for i in range(n):
            y = jumpsim.simulate_cpp_path(2.0, TwoPoint(1.0), 0.0, 1.0, rng)
            y_prime, _ = jumpsim.rearranged_difference(y, rng)
            vals[i, 0] = y.values([0.6])[0, 0]
            vals[i, 1] = y_prime.values([0.6])[0, 0]
        target = empirical_cf(vals[:, 0], 1.0)
        rearranged = empirical_cf(vals[:, 1], 1.0)
        # both match the analytic CPP characteristic function
        analytic = complex(np.exp(0.6 * 2.0 * (math.cos(1.0) - 1.0)))
        assert cf_match(target, analytic).passed
        assert cf_match(rearranged, analytic).passed

    def test_difference_matches_symmetrized_sheet(self):
        rng = np.random.default_rng(59)
        n = 20_000
        vals = np.empty((n, 1))
        for i in range(n):
            y = jumpsim.simulate_cpp_path(2.0, TwoPoint(1.0), 0.0, 1.0, rng)
            _, z = jumpsim.rearranged_difference(y, rng)
            vals[i, 0] = z.values([0.5])[0, 0]
        sheet = cpp_from_atoms([(1.0, 2.0), (-1.0, 2.0)])
        target = fdd.joint_cf(sheet, bridge(), [0.5], [[1.0]])
        assert cf_match(empirical_cf(vals, np.array([1.0])), target).passed


class TestBridgeExperiment:
    def test_endpoint_is_exactly_zero(self):
        rng = np.random.default_rng(60)
        draw = jumpsim.bridge_experiment(200, TwoPoint(1.0), 1.0, [0.5, 1.0], rng)
        assert draw.values[1] == 0.0

    def test_variance_decays_near_endpoints(self):
        rng = np.random.default_rng(61)
        reps = 3000
        vals = np.empty((reps, 2))
        for i in range(reps):
            d = jumpsim.bridge_experiment(400, TwoPoint(1.0), 1.0, [0.02, 0.5], rng)
            vals[i] = d.values
        assert vals[:, 0].var() < 0.1 * vals[:, 1].var()

    def test_rejects_flat_second_moment(self):
        rng = np.random.default_rng(62)

        class Degenerate:
            dim = 1
            abs_second_moment = 0.0
            mean = np.zeros(1)

        with pytest.raises(ValueError):
            jumpsim.bridge_experiment(100, Degenerate(), 1.0, [0.5], rng)


class TestRandomWalkBridge:
    def test_zero_at_origin(self):
        rng = np.random.default_rng(63)
        sample = jumpsim.random_walk_bridge(100, 1.0, TwoPoint(1.0), rng, grid=[0.0, 0.5])
        assert sample.values[0, 0] == 0.0

    def test_covariance_formula_symmetric_walk(self):
        assert jumpsim.rw_bridge_cov(1000, 1.0, 0.0, 1.0, 0.3, 0.6) \
            == pytest.approx(0.3 * 0.4)
        assert jumpsim.rw_bridge_cov(1000, 1.0, 0.0, 1.0, 0.0, 0.6) == 0.0

    def test_covariance_with_drifting_steps(self):
        # mu1 = 1, mu2 = 1 (constant steps): the difference is degenerate
        assert jumpsim.rw_bridge_cov(1000, 1.0, 1.0, 1.0, 0.3, 0.6) == 0.0

    def test_empirical_covariance(self):
        rng = np.random.default_rng(64)
        reps = 4000
        pairs = np.empty((reps, 2))
        for i in range(reps):
            pairs[i] = jumpsim.random_walk_bridge(300, 1.0, TwoPoint(1.0), rng,
                                                  grid=[0.3, 0.6]).values[:, 0]
        prods = pairs[:, 0] * pairs[:, 1]
        cov = prods.mean() - pairs[:, 0].mean() * pairs[:, 1].mean()
        target = jumpsim.rw_bridge_cov(300, 1.0, 0.0, 1.0, 0.3, 0.6)
        assert abs(cov - target) <= 4.0 * prods.std(ddof=1) / math.sqrt(reps)


class TestJumpCountLaw:
    def test_zero_rate(self):
        rng = np.random.default_rng(65)
        report = jumpsim.jump_count_law_check(bridge(), 1e-9, 200, rng)
        assert report.all_even
        assert report.mean_half_count == 0.0

    def test_bridge_path_poisson_counts(self):
        rng = np.random.default_rng(66)
        report = jumpsim.jump_count_law_check(bridge(), 4.0, 4000, rng)
        assert report.expected_half_rate == pytest.approx(2.0)
        assert report.all_even
        assert report.chi2_pvalue > 1e-3
        assert abs(report.mean_half_count - 2.0) <= 4.0 * math.sqrt(2.0 / 4000)

    def test_swept_area(self):
        assert jumpsim.swept_exit_area(bridge()) == pytest.approx(0.5)
        assert jumpsim.swept_exit_area(LinearPath(1.0, 1.0, 3.0, 2.0, 0.0, 1.0)) \
            == pytest.approx(2.0 * (1.0 + 0.5))
