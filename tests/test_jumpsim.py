import math

import numpy as np
import pytest

from levysheet import fdd, jumpsim
from levysheet.exponent import Categorical, TwoPoint, cpp_from_atoms
from levysheet.paths import ExponentialPath, LinearPath
from levysheet.verify import cf_match, chi2_binned, empirical_cf, ks_1d


def bridge():
    return LinearPath(0.0, 1.0, 1.0, 1.0, 0.0, 1.0)


def dyadic_dist(dim):
    """Jump values whose partial sums are exact in any order."""
    atoms = np.array([[1.0, -0.5], [-0.25, 2.0], [1.5, 0.75]])[:, :dim]
    return Categorical(atoms, [0.5, 0.25, 0.25])


def covering_rect(path):
    return jumpsim.RectRegion(float(path.x(path.t_hi)) * 1.2, float(path.y(path.t_lo)) * 1.2)


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

    def test_tiny_jump_is_not_zero(self):
        # Its squared norm underflows to 0, but the jump itself is nonzero.
        field = jumpsim.JumpField(jumpsim.RectRegion(1.0, 1.0), [[0.5, 0.5]], [[1e-200]])
        assert field.jumps.tolist() == [[1e-200]]
        with pytest.raises(ValueError, match="zero jumps"):
            jumpsim.JumpField(jumpsim.RectRegion(1.0, 1.0), [[0.5, 0.5], [0.2, 0.2]],
                              [[1e-200, 0.0], [0.0, 0.0]])

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

    @pytest.mark.parametrize("count", [0, 60])
    def test_exact_for_two_dimensional_and_empty_fields(self, count, six_forms):
        rng = np.random.default_rng(56)
        for path in six_forms.values():
            region = covering_rect(path)
            field = jumpsim.JumpField(region, region.sample(rng, count),
                                      dyadic_dist(2).sample(rng, count).reshape(count, 2))
            events = jumpsim.restrict_to_path(field, path)
            probes = rng.uniform(path.t_lo, path.t_hi, size=50)
            got = events.values(probes)
            assert got.shape == (50, 2)
            for t, row in zip(probes, got):
                want = jumpsim.rectangle_sum(field, float(path.x(t)), float(path.y(t)))
                assert np.array_equal(row, want)


class TestRestrictedSheets:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_each_draw_equals_its_rectangle_sums(self, dim, flat_stretch_path):
        path = flat_stretch_path
        region, dist, rate, n = covering_rect(path), dyadic_dist(dim), 20.0, 300
        probes = np.concatenate([path.times[::7], [0.123, 0.77]])
        values, paired = jumpsim.restricted_sheets(rate, dist, region, path, probes, n,
                                                   np.random.default_rng(57))
        # the same stream, drawn as one field per sheet
        field, owner = jumpsim.simulate_cpp_sheets(rate, dist, region, n, np.random.default_rng(57))
        assert values.shape == (n, probes.size, dim)
        x_end, y_end = float(path.x(path.t_hi)), float(path.y(path.t_hi))
        for i in range(n):
            sheet = jumpsim.JumpField(region, field.locations[owner == i], field.jumps[owner == i])
            for j, t in enumerate(probes):
                want = jumpsim.rectangle_sum(sheet, float(path.x(t)), float(path.y(t)))
                assert np.array_equal(values[i, j], want)
            u, v = sheet.locations[:, 0], sheet.locations[:, 1]
            persistent = np.sum((u <= x_end) & (v <= y_end))
            assert paired[i] == jumpsim.restrict_to_path(sheet, path).times.size - persistent

    def test_single_sheet_is_the_first_draw_of_a_batch(self):
        region = jumpsim.RectRegion(1.0, 1.0)
        one = jumpsim.simulate_cpp_sheet(6.0, dyadic_dist(1), region, np.random.default_rng(58))
        many, owner = jumpsim.simulate_cpp_sheets(6.0, dyadic_dist(1), region, 1,
                                                  np.random.default_rng(58))
        assert np.array_equal(one.locations, many.locations)
        assert np.array_equal(one.jumps, many.jumps)
        assert np.all(owner == 0)

    def test_draws_spread_over_several_chunks(self, monkeypatch):
        monkeypatch.setattr(jumpsim, "_EVENT_CHUNK", 40)
        rng = np.random.default_rng(59)
        values, paired = jumpsim.restricted_sheets(4.0, TwoPoint(1.0), jumpsim.RectRegion(1.0, 1.0),
                                                   bridge(), [0.5, 1.0], 37, rng)
        assert values.shape == (37, 2, 1)
        assert np.all(values[:, 1] == 0.0)  # y(1) = 0: every jump has left
        assert paired.shape == (37,) and np.all(paired % 2 == 0)
        draws = jumpsim.bridge_experiments(20, TwoPoint(1.0), 1.0, [0.5, 1.0], 37, rng)
        assert draws.values.shape == (37, 2)
        assert np.all(draws.values[:, 1] == 0.0)
        walks = jumpsim.random_walk_bridges(30, 1.0, TwoPoint(1.0), 37, rng, grid=[0.5, 1.0])
        assert walks.shape == (37, 2)
        assert np.all(walks[:, 1] == 0.0)

    def test_rejects_empty_batch(self):
        with pytest.raises(ValueError):
            jumpsim.bridge_experiments(20, TwoPoint(1.0), 1.0, [0.5], 0,
                                       np.random.default_rng(60))


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
        ys, rearr = jumpsim.rearranged_pairs(2.0, TwoPoint(1.0), 1.0, [0.6], n, rng)
        target = empirical_cf(ys[:, 0, 0], 1.0)
        rearranged = empirical_cf(rearr[:, 0, 0], 1.0)
        # both match the analytic CPP characteristic function
        analytic = complex(np.exp(0.6 * 2.0 * (math.cos(1.0) - 1.0)))
        assert cf_match(target, analytic).passed
        assert cf_match(rearranged, analytic).passed

    def test_difference_matches_symmetrized_sheet(self):
        rng = np.random.default_rng(59)
        n = 20_000
        ys, rearr = jumpsim.rearranged_pairs(2.0, TwoPoint(1.0), 1.0, [0.5], n, rng)
        vals = (ys - rearr)[:, 0, :]
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

    def test_step_times_by_default(self):
        n, l, dist = 50, 1.3, Categorical([[1.0], [-0.5], [0.25]], [0.5, 0.25, 0.25])
        sample = jumpsim.random_walk_bridge(n, l, dist, np.random.default_rng(66))
        # the same draw written out: the steps, then their uniform permutation
        rng = np.random.default_rng(66)
        steps = dist.sample(rng, 65)[:, 0]
        shuffled = rng.permuted(steps)
        want = (np.cumsum(steps) - np.cumsum(shuffled)) / math.sqrt(2.0 * dist.abs_second_moment * n)
        assert np.array_equal(sample.times, np.arange(1, 66) / n)
        assert np.array_equal(sample.values[:, 0], want)

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

    def test_swept_area_of_zero_slope_lines(self):
        horizontal = LinearPath(0.5, 2.0, 1.5, 0.0, 0.0, 1.0)
        vertical = LinearPath(2.0, 0.0, 3.0, 1.0, 0.0, 1.0)
        assert jumpsim.swept_exit_area(horizontal) == 0.0
        y_lo, y_hi = float(vertical.y(0.0)), float(vertical.y(1.0))
        assert jumpsim.swept_exit_area(vertical) == pytest.approx(2.0 * (y_lo - y_hi))

    def test_horizontal_line_has_no_pairs_to_count(self):
        rng = np.random.default_rng(67)
        with pytest.raises(ValueError, match="swept exit area is 0"):
            jumpsim.jump_count_law_check(LinearPath(0.5, 2.0, 1.5, 0.0, 0.0, 1.0), 4.0, 200, rng)

    def test_vertical_line_poisson_counts(self):
        rng = np.random.default_rng(68)
        vertical = LinearPath(2.0, 0.0, 3.0, 1.0, 0.0, 1.0)  # swept area 2
        report = jumpsim.jump_count_law_check(vertical, 3.0, 4000, rng)
        assert report.expected_half_rate == pytest.approx(6.0)
        assert report.all_even
        assert report.chi2_statistic <= report.chi2_critical
        assert abs(report.mean_half_count - 6.0) <= 4.0 * math.sqrt(6.0 / 4000)
