import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from levysheet import fdd, gauss, jumpsim
from levysheet.exponent import (Categorical, LevyTriplet, ScaledJumps, TwoPoint, cpp,
                                 cpp_from_atoms, pure_drift)
from levysheet.paths import ExponentialPath, LinearPath
from levysheet.verify import cf_match, chi2_binned, chi2_counts, empirical_cf, ks_1d


def bridge():
    return LinearPath(0.0, 1.0, 1.0, 1.0, 0.0, 1.0)


def dyadic_dist(dim):
    """Jump values whose partial sums are exact in any order."""
    atoms = np.array([[1.0, -0.5], [-0.25, 2.0], [1.5, 0.75]])[:, :dim]
    return Categorical(atoms, [0.5, 0.25, 0.25])


def covering_rect(path):
    return jumpsim.RectRegion(float(path.x(path.t_hi)) * 1.2, float(path.y(path.t_lo)) * 1.2)


def staircase_sheets(path, ts, rate, dist, n, rng):
    """The jumps that `simulate_triplet` draws for n draws at the times ts, from the same
    stream, as one sheet per draw on `path_region`.  A jump over the column
    (x(t_{i-1}), x(t_i)] is put at u = x(t_i): any u there has the same rectangle sums."""
    _, xs, ys = path.grid(ts)
    areas = np.cumsum(np.diff(xs, prepend=0.0) * ys)
    owner = np.repeat(np.arange(n), rng.poisson(rate * areas[-1], size=n))
    col = np.searchsorted(areas[:-1], rng.uniform(0.0, areas[-1], owner.size), side="right")
    locs = np.column_stack([xs[col], ys[col] * (1.0 - rng.random(owner.size))])
    jumps = dist.sample(rng, owner.size)
    region = jumpsim.path_region(path)
    return [jumpsim.JumpField(region, locs[owner == i], jumps[owner == i]) for i in range(n)]


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
                             lambda x0, x1, y0, y1: (x1 - x0) * (y1 - y0) / region.area,
                             ((0.0, 2.0), (0.0, 1.0)))
        assert report.extra["pvalue"] > 1e-3

    @pytest.mark.parametrize("rate, region, message", [
        (math.nan, jumpsim.RectRegion(1.0, 1.0), "rate must be finite and nonnegative"),
        (-1.0, jumpsim.RectRegion(1.0, 1.0), "rate must be finite and nonnegative"),
        (1.0, jumpsim.RectRegion(1e300, 1e300), "region must have finite area"),
    ])
    def test_rejects_bad_rate_and_region(self, rate, region, message):
        with pytest.raises(ValueError, match=message):
            jumpsim.simulate_cpp_sheet(rate, TwoPoint(1.0), region, np.random.default_rng(53))

    def test_field_rejects_bad_shapes_and_locations(self):
        region = jumpsim.RectRegion(1.0, 1.0)
        with pytest.raises(ValueError, match="matching lengths"):
            jumpsim.JumpField(region, [[0.5, 0.5], [0.2, 0.2]], [[1.0]])
        for loc in ([0.0, 0.5], [0.5, 1.5], [math.nan, 0.5]):
            with pytest.raises(ValueError, match="strictly inside the region"):
                jumpsim.JumpField(region, [loc], [[1.0]])
        assert jumpsim.JumpField(region, [0.5, 1.0], 2.0).jumps.tolist() == [[2.0]]

    @pytest.mark.parametrize("locs, jumps, message", [
        ([[1.0, 2.0], [1e-300, 5e-324]], [[1.0], [-2.0]], None),  # the closed upper ends, tiny lower ones
        ([[math.nan, 0.5]], [[1.0]], "strictly inside the region"),
        ([[0.5, math.nan]], [[1.0]], "strictly inside the region"),
        ([[0.0, 0.5]], [[1.0]], "strictly inside the region"),
        ([[0.5, -0.0]], [[1.0]], "strictly inside the region"),
        ([[1.0 + 1e-15, 0.5]], [[1.0]], "strictly inside the region"),
        ([[0.5, 2.5]], [[1.0]], "strictly inside the region"),
        ([[0.5, math.inf]], [[1.0]], "strictly inside the region"),
        ([[math.nan, 0.5]], [[math.nan]], "strictly inside the region"),  # locations are checked first
        ([[0.5, 0.5]], [[math.nan]], "jump values must be finite"),
        ([[0.5, 0.5]], [[-math.inf]], "jump values must be finite"),
        ([[0.5, 0.5], [0.2, 0.2]], [[0.0, math.inf], [1.0, 1.0]], "jump values must be finite"),
        ([[0.5, 0.5]], [[-0.0]], "zero jumps"),
        ([[0.5, 0.5], [0.2, 0.2]], [[1.0, -0.0], [-0.0, -0.0]], "zero jumps"),
        ([[0.5, 0.5], [0.2, 0.2]], [[1.0, 0.0], [0.0, -1.0]], None),  # zero entries, no zero jump
    ])
    def test_field_verdicts(self, locs, jumps, message):
        region = jumpsim.RectRegion(1.0, 2.0)
        if message is None:
            assert jumpsim.JumpField(region, np.array(locs), np.array(jumps)).count == len(locs)
        else:
            with pytest.raises(ValueError, match=message):
                jumpsim.JumpField(region, np.array(locs), np.array(jumps))

    def test_a_zero_uniform_draw_stays_inside_the_region(self):
        """U = 0 happens with probability 2^-53 per coordinate; it reads as U = 1."""
        class ZeroUniforms:  # every uniform draw exactly 0.0, the other draws from a real generator
            def __init__(self, seed):
                self.rng = np.random.default_rng(seed)

            def random(self, size=None):
                return np.zeros(size)

            def uniform(self, low=0.0, high=1.0, size=None):
                return np.full(size, float(low))

            def __getattr__(self, name):
                return getattr(self.rng, name)

        region = jumpsim.RectRegion(2.0, 3.0)
        assert region.sample(ZeroUniforms(1), 3).tolist() == [[2.0, 3.0]] * 3
        field = jumpsim.simulate_cpp_sheet(5.0, TwoPoint(1.0), region, ZeroUniforms(2))
        assert field.count > 0 and np.all(field.locations == [2.0, 3.0])
        path = LinearPath(0.5, 1.0, 2.0, 1.0, 0.0, 1.0)  # sweeps (0, 1.5] x (0, 2]; (1.5, 2) is above it
        counts = jumpsim.paired_event_counts(path, 3.0, 50, ZeroUniforms(3))
        assert counts.tolist() == [0] * 50

    def test_triangle_sampler_stays_inside(self):
        rng = np.random.default_rng(53)
        u, v = jumpsim.TriangleRegion(2.0, 3.0).sample(rng, 10_000).T
        assert np.all((u > 0) & (v > 0) & (u / 2.0 + v / 3.0 <= 1.0 + 1e-12))


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

    def test_non_finite_jump_rejected(self):
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                jumpsim.JumpField(jumpsim.RectRegion(1.0, 1.0), [[0.5, 0.5]], [[value]])

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


def interleaved_restriction(field, path):
    """Restriction the direct way: the entry and exit of every jump interleaved,
    masked, with their +J and -J increments: (jump index, times, increments)."""
    u, v = field.locations[:, 0], field.locations[:, 1]
    entry, exit_ = path.first_time_x_at_least(u), path.last_time_y_at_least(v)
    enters = entry <= exit_
    keep = np.column_stack([enters, enters & (v > path.ends[3])]).ravel()
    incs = np.stack([field.jumps, -field.jumps], axis=1).reshape(-1, field.dim)
    return (np.repeat(np.arange(field.count), 2)[keep],
            np.column_stack([entry, exit_]).ravel()[keep], incs[keep])


def tie_heavy_field(path, dim, rng, count=400):
    """Jumps over a covering rectangle with many entries at t_lo, many on the path
    itself (entry equal to exit) and many on the levels of flat stretches."""
    region = covering_rect(path)
    x_lo = path.ends[0]
    t = rng.uniform(path.t_lo, path.t_hi, size=count // 4)
    knots = getattr(path, "times", np.array([path.t_lo, path.t_hi]))
    levels_x = rng.choice(path.x(knots)[1:], size=count // 4)
    levels_y = rng.choice(path.y(knots)[:-1], size=count // 4)
    locs = np.concatenate([
        region.sample(rng, count // 4),
        np.column_stack([rng.uniform(0.0, x_lo, count // 4),
                         rng.uniform(0.0, region.y_max, count // 4)]),
        np.column_stack([path.x(t), path.y(t)]),
        np.column_stack([levels_x, levels_y]),
    ])
    locs = locs[np.all((locs > 0) & (locs <= [region.x_max, region.y_max]), axis=1)]  # inside the region
    return jumpsim.JumpField(region, locs, rng.normal(size=(locs.shape[0], dim)))


def tile_and_mask_values(events, ts):
    """`EventPath.values` as a tile of the initial value overwritten where an event has passed."""
    q = np.atleast_1d(np.asarray(ts, dtype=float))
    cums = events.initial + np.cumsum(events.increments, axis=0) \
        if events.times.size else np.zeros((0, events.dim))
    idx = np.searchsorted(events.times, q, side="right")
    out = np.tile(events.initial, (q.size, 1))
    out[idx > 0] = cums[idx[idx > 0] - 1]
    return out


class TestEventIndices:
    """The index pipeline gives the events of the interleaved one byte for byte."""

    @pytest.mark.parametrize("dim", [1, 2])
    def test_restrict_equals_interleaved_restriction(self, dim, six_forms):
        rng = np.random.default_rng(61)
        for name, path in six_forms.items():
            for count in (0, 1, 400):
                field = tie_heavy_field(path, dim, rng, count) if count else jumpsim.JumpField(
                    covering_rect(path), np.zeros((0, 2)), np.zeros((0, dim)))
                _, times, incs = interleaved_restriction(field, path)
                order = np.argsort(times, kind="stable")
                events = jumpsim.restrict_to_path(field, path)
                assert events.times.tobytes() == times[order].tobytes(), name
                assert events.increments.shape == (times.size, dim)
                assert events.increments.tobytes() == incs[order].tobytes(), name
                probes = np.concatenate([events.times, rng.uniform(path.t_lo, path.t_hi, 20)])
                assert events.values(probes).tobytes() == tile_and_mask_values(events, probes).tobytes()

    def test_fields_have_the_ties_they_are_built_for(self, flat_stretch_path):
        path = flat_stretch_path
        field = tie_heavy_field(path, 1, np.random.default_rng(62))
        entry = path.first_time_x_at_least(field.locations[:, 0])
        exit_ = path.last_time_y_at_least(field.locations[:, 1])
        assert np.sum(entry == path.t_lo) > 50
        assert np.sum(entry == exit_) > 20
        _, times, _ = interleaved_restriction(field, path)
        assert times.size - np.unique(times).size > 100

    @pytest.mark.parametrize("dim", [1, 2])
    def test_restricted_sheets_equal_interleaved_restriction(self, dim, flat_stretch_path):
        # one field of a batch of sheets on path_region, restricted in one pass
        path, rate, n = flat_stretch_path, 30.0, 200
        rng = np.random.default_rng(63)
        dist = Categorical(rng.normal(size=(4, dim)), [0.4, 0.3, 0.2, 0.1])
        field, owner = jumpsim.simulate_cpp_sheets(rate, dist, jumpsim.path_region(path), n,
                                                   np.random.default_rng(64))
        jump, times, incs = jumpsim._restrict_events(field, path)
        want_jump, want_times, want_incs = interleaved_restriction(field, path)
        assert np.array_equal(jump, want_jump) and np.unique(owner[jump]).size == n
        assert times.tobytes() == want_times.tobytes()
        assert incs.tobytes() == want_incs.tobytes()


class TestRestrictedSheets:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_each_draw_equals_its_rectangle_sums(self, dim, flat_stretch_path):
        # x is flat between two of the probes: their column is empty
        path, dist, rate, n = flat_stretch_path, dyadic_dist(dim), 20.0, 300
        probes = np.sort(np.concatenate([path.times[::7], [0.123, 0.77]]))
        values = jumpsim.simulate_triplet(cpp(rate, dist), path, probes, n, np.random.default_rng(57))
        sheets = staircase_sheets(path, probes, rate, dist, n, np.random.default_rng(57))
        assert values.shape == (n, probes.size, dim)
        assert sum(sheet.count for sheet in sheets) > 1000
        for i, sheet in enumerate(sheets):
            for j, t in enumerate(probes):
                want = jumpsim.rectangle_sum(sheet, float(path.x(t)), float(path.y(t)))
                assert np.array_equal(values[i, j], want)

    def test_single_sheet_is_the_first_draw_of_a_batch(self):
        region = jumpsim.RectRegion(1.0, 1.0)
        one = jumpsim.simulate_cpp_sheet(6.0, dyadic_dist(1), region, np.random.default_rng(58))
        many, owner = jumpsim.simulate_cpp_sheets(6.0, dyadic_dist(1), region, 1,
                                                  np.random.default_rng(58))
        assert np.array_equal(one.locations, many.locations)
        assert np.array_equal(one.jumps, many.jumps)
        assert np.all(owner == 0)

    def test_draws_spread_over_several_chunks(self, monkeypatch):
        monkeypatch.setattr(gauss, "_BLOCK_NORMALS", 40)
        rng = np.random.default_rng(59)
        # the staircase at (0.5, 1.0) has area 1/4: 4 jumps a draw, 10 draws a block
        values = jumpsim.simulate_triplet(cpp(16.0, TwoPoint(1.0)), bridge(), [0.5, 1.0], 37, rng)
        assert values.shape == (37, 2, 1)
        assert np.all(values[:, 1] == 0.0)  # y(1) = 0: every jump has left
        assert np.all(jumpsim.paired_event_counts(bridge(), 4.0, 37, rng) % 2 == 0)
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


class TestBlockedDraws:
    """Batches of more than gauss._BLOCK_NORMALS events (or walk steps) draw block b
    from the b-th rng.spawn child, on the sampler's pool."""

    def triplets(n, rng):
        # the staircase at (0.25, 0.5) has area 0.25 * 0.75 + 0.25 * 0.5 = 0.3125
        return (jumpsim.simulate_triplet(cpp(1600.0, TwoPoint(1.0)), bridge(), [0.25, 0.5], n, rng),)

    def bridges(n, rng):
        d = jumpsim.bridge_experiments(1000, TwoPoint(1.0), 1.0, [0.25, 0.5], n, rng)
        return d.values, d.centered_original, d.centered_rearranged

    def walks(n, rng):
        return (jumpsim.random_walk_bridges(1000, 1.0, TwoPoint(1.0), n, rng, grid=[0.3, 0.6]),)

    # name: (n_draws, items per draw, draw(n_draws, rng) -> arrays); three or four blocks each
    DRAWS = {"simulate_triplet": (3000, 500.0, triplets),
             "bridge_experiments": (1000, 2000.0, bridges),
             "random_walk_bridges": (1200, 1000, walks)}

    @staticmethod
    def block_sizes(n_draws, per_draw):
        step = int(gauss._BLOCK_NORMALS // per_draw)
        return [min(step, n_draws - lo) for lo in range(0, n_draws, step)]

    @pytest.mark.parametrize("name", DRAWS)
    def test_same_bytes_on_any_worker_count(self, monkeypatch, name):
        n, per_draw, draw = self.DRAWS[name]
        assert len(self.block_sizes(n, per_draw)) >= 3
        got = []
        pools = [gauss._pool(), None, ThreadPoolExecutor(3)]  # default, inline, 3 workers
        try:
            for pool in pools:
                monkeypatch.setattr(gauss, "_pool", lambda pool=pool: pool)
                got.append([a.tobytes() for a in draw(n, np.random.default_rng(70))])
        finally:
            pools[-1].shutdown()
        assert got[0] == got[1] == got[2]

    @pytest.mark.parametrize("name", DRAWS)
    def test_blocks_are_one_block_calls_on_spawned_children(self, name):
        n, per_draw, draw = self.DRAWS[name]
        sizes = self.block_sizes(n, per_draw)
        children = np.random.default_rng(71).spawn(len(sizes))
        parts = [draw(size, child) for size, child in zip(sizes, children)]
        whole = draw(n, np.random.default_rng(71))
        for k, array in enumerate(whole):
            assert array.tobytes() == np.concatenate([part[k] for part in parts]).tobytes()


def mixed_triplet(dim, rate_scale=1.0):
    """Drift, a Gaussian part and non-symmetric atom jumps together."""
    atoms = [([0.6, -0.4][:dim], 0.9 * rate_scale), ([-1.1, 0.3][:dim], 0.4 * rate_scale)]
    jumps = cpp_from_atoms(atoms, drift=[0.3, -0.2][:dim])
    return LevyTriplet(jumps.gamma, np.array([[0.5, 0.2], [0.2, 0.3]])[:dim, :dim], jumps.jumps)


class TestSimulateTriplet:
    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("form", ["linear", "horizontal", "vertical", "corner",
                                      "exponential", "tabulated"])
    def test_joint_cf_of_mixed_triplet(self, form, dim, six_forms):
        path, triplet, n = six_forms[form], mixed_triplet(dim), 100_000  # c7's n
        times = [0.2, 0.55, 0.9]
        draws = jumpsim.simulate_triplet(triplet, path, times, n, np.random.default_rng(61))
        assert draws.shape == (n, 3, dim)
        for z in (np.array([[0.5, -0.2], [-0.3, 0.4], [0.4, 0.1]])[:, :dim],
                  np.array([[-0.2, 0.3], [0.6, 0.2], [0.1, -0.5]])[:, :dim]):
            emp = empirical_cf(draws.reshape(n, -1), z.ravel())
            report = cf_match(emp, fdd.joint_cf(triplet, path, times, z), k=4.0)
            assert report.passed, report

    @pytest.mark.parametrize("dim", [1, 2])
    def test_one_draw_is_its_three_parts(self, dim):
        # the Gaussian part is drawn first, then the jumps on the probes' staircase, whose
        # dyadic values sum exactly in any order
        path, ts = ExponentialPath(1.0, 0.8, 1.0, 0.0, 1.0), np.array([0.0, 0.5, 1.0])
        triplet = LevyTriplet(np.full(dim, 0.75), 4.0 * np.eye(dim),
                              ScaledJumps(3.0, dyadic_dist(dim)))
        got = jumpsim.simulate_triplet(triplet, path, ts, 1, np.random.default_rng(65))[0]
        rng = np.random.default_rng(65)
        gaussian = 2.0 * gauss.simulate_paths(gauss.GaussPathLaw(path, dim), ts, rng)[0]
        [sheet] = staircase_sheets(path, ts, 3.0, dyadic_dist(dim), 1, rng)
        drift = (path.x(ts) * path.y(ts))[:, None] * triplet.drift
        jumps = [jumpsim.rectangle_sum(sheet, float(path.x(t)), float(path.y(t))) for t in ts]
        assert sheet.count > 0
        assert got.tobytes() == (drift + gaussian + np.array(jumps)).tobytes()

    def test_bridge_draws_vanish_at_both_ends(self):
        # y(1) = 0 on (t, 1 - t): every jump has left and x y gamma_0 = 0
        draws = jumpsim.simulate_triplet(mixed_triplet(2), bridge(), [0.0, 0.5, 1.0], 20_000,
                                         np.random.default_rng(62))
        assert np.all(draws[:, [0, 2]] == 0.0)
        assert np.all(draws[:, 1] != 0.0)

    def test_empty_rectangles_read_exactly_zero(self):
        # at t = 0 and 1 the bridge's rectangle is empty: no +J - J may round to +-1e-16 there
        triplet = cpp_from_atoms([(0.6, 0.9), (-1.1, 0.4), (0.37, 1.3)])
        draws = jumpsim.simulate_triplet(triplet, bridge(), np.linspace(0.0, 1.0, 11), 5000,
                                         np.random.default_rng(66))
        assert np.all(draws[:, [0, -1]] == 0.0)
        assert np.mean(np.any(draws[:, 1:-1] != 0.0, axis=(1, 2))) > 0.5

    def test_zero_area_staircase_has_no_jumps(self):
        draws = jumpsim.simulate_triplet(mixed_triplet(2), bridge(), [0.0, 1.0], 50,
                                         np.random.default_rng(67))
        assert draws.shape == (50, 2, 2) and np.all(draws == 0.0)

    def test_joint_cf_on_a_long_exponential_path(self):
        # (e^t, e^{-t} / 2) over [0, 20]: its bounding rectangle has area e^20 / 2, the
        # staircase at these times 1/2 + (1 - e^{-10}) / 2 + e^{-10} (1 - e^{-10}) / 2 < 1
        path, times, n = ExponentialPath(1.0, 0.5, 1.0, 0.0, 20.0), [0.0, 10.0, 20.0], 100_000
        triplet = cpp_from_atoms([([0.8], 1.5), ([-1.3], 0.5)])
        draws = jumpsim.simulate_triplet(triplet, path, times, n, np.random.default_rng(68))
        for z in ([0.5, -0.3, 0.4], [0.2, 0.6, -0.5]):
            z = np.array(z)[:, None]
            emp = empirical_cf(draws.reshape(n, -1), z.ravel())
            report = cf_match(emp, fdd.joint_cf(triplet, path, times, z), k=4.0)
            assert report.passed, report

    def test_grid_draws_never_restrict_events(self, monkeypatch, six_forms):
        def refuse(*args, **kwargs):
            raise AssertionError("grid draws must not restrict event streams")

        monkeypatch.setattr(jumpsim, "_restrict_events", refuse)
        monkeypatch.setattr(jumpsim, "simulate_cpp_sheets", refuse)
        monkeypatch.setattr(jumpsim, "path_region", refuse)
        for path in six_forms.values():
            for name in ("first_time_x_at_least", "last_time_y_at_least", "_x_inverse", "_y_inverse"):
                monkeypatch.setattr(type(path), name, refuse)
            draws = jumpsim.simulate_triplet(mixed_triplet(2), path, [0.1, 0.5, 0.9], 200,
                                             np.random.default_rng(69))
            assert np.all(draws[:, :, 0] != 0.0)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_empty_jump_fields_add_nothing(self, dim):
        # at this rate every field is empty: the draws are those of the law without jumps
        triplet, times = mixed_triplet(dim, rate_scale=1e-12), [0.1, 0.5, 0.9]
        draws = jumpsim.simulate_triplet(triplet, bridge(), times, 500, np.random.default_rng(63))
        no_jumps = LevyTriplet(triplet.drift, triplet.gaussian)
        want = jumpsim.simulate_triplet(no_jumps, bridge(), times, 500, np.random.default_rng(63))
        assert draws.tobytes() == want.tobytes()

    @pytest.mark.parametrize("triplet", [pure_drift(1.0), cpp_from_atoms([(1.0, 2.0)]),
                                         mixed_triplet(1)], ids=["drift", "jumps", "mixed"])
    @pytest.mark.parametrize("grid, message", [
        ([], "nonempty"), ([0.2, 0.2], "strictly increasing"), ([0.6, 0.3], "strictly increasing"),
        ([0.5, 1.5], "outside the path domain"), ([-0.1, 0.5], "outside the path domain"),
        ([0.2, math.nan], "strictly increasing"), ([math.nan], "outside the path domain"),
    ])
    def test_rejects_bad_grids(self, triplet, grid, message):
        with pytest.raises(ValueError, match=message):
            jumpsim.simulate_triplet(triplet, bridge(), grid, 3, np.random.default_rng(64))


class TestEventPath:
    def test_equal_times_keep_insertion_order(self):
        ev = jumpsim.EventPath(0.0, 1.0, [0.5, 0.25, 0.5], [[1.0], [2.0], [-1.0]])
        assert ev.times.tolist() == [0.25, 0.5, 0.5]
        assert ev.increments[:, 0].tolist() == [2.0, 1.0, -1.0]

    def test_value_includes_events_at_query_time(self):
        ev = jumpsim.EventPath(0.0, 1.0, [0.5], [[3.0]])
        assert ev.values([0.5, 0.49])[:, 0].tolist() == [3.0, 0.0]

    def test_initial_value(self):
        ev = jumpsim.EventPath(0.0, 1.0, [0.5], [[1.0]], initial=[2.0])
        assert ev.values([0.0, 0.9])[:, 0].tolist() == [2.0, 3.0]

    def test_values_equal_tile_and_mask(self):
        rng = np.random.default_rng(65)
        times = np.sort(rng.uniform(0.2, 0.8, 50))
        times[10:14] = times[10]  # simultaneous events
        incs = rng.normal(size=(50, 2)) * 1e3
        incs[::7, 1] = -0.0
        probes = np.concatenate([[0.0, 0.1, 0.2], times, [1.0]])  # before, at and after events
        for initial in ([0.0, 0.0], [-0.0, 0.0], [1e16, -0.0], [0.1, -2.5]):
            for ev in (jumpsim.EventPath(0.0, 1.0, times, incs, initial),
                       jumpsim.EventPath(0.0, 1.0, np.zeros(0), np.zeros((0, 2)), initial)):
                got = ev.values(probes)
                assert got.shape == (probes.size, 2)
                assert got.tobytes() == tile_and_mask_values(ev, probes).tobytes()
        one = jumpsim.EventPath(0.0, 1.0, [0.5], [3.0], initial=[1.0])
        assert one.values(0.5).tolist() == [[4.0]] and one.values([]).shape == (0, 1)

    def test_constructor_rejects_unsorted_and_out_of_domain_times(self):
        # unsorted times are sorted (equal times keep their input order, as tested above)
        ev = jumpsim.EventPath(0.0, 1.0, [0.5, 0.25], [[1.0], [2.0]], [0.0])
        assert ev.times.tolist() == [0.25, 0.5] and ev.increments[:, 0].tolist() == [2.0, 1.0]
        for times in ([-1e-11, 0.5], [0.5, 1.0 + 1e-11], [-1e-11]):
            with pytest.raises(ValueError, match="within the domain"):
                jumpsim.EventPath(0.0, 1.0, times, np.ones((len(times), 1)), [0.0])
        # within the 1e-12 slack, and equal times, are accepted
        ev = jumpsim.EventPath(0.0, 1.0, [-1e-13, 0.5, 0.5, 1.0 + 1e-13], np.ones((4, 1)), [0.0])
        assert ev.times.size == 4

    def test_rejects_non_finite_times_increments_and_queries(self):
        for times in ([math.nan], [0.5, math.nan], [math.nan, 0.5]):
            with pytest.raises(ValueError, match="within the domain"):
                jumpsim.EventPath(0.0, 1.0, times, np.ones((len(times), 1)), [0.0])
        for incs, initial in (([[math.inf]], [0.0]), ([[math.nan]], [0.0]), ([[1.0]], [math.nan])):
            with pytest.raises(ValueError, match="must be finite"):
                jumpsim.EventPath(0.0, 1.0, [0.5], incs, initial)
        ev = jumpsim.EventPath(0.0, 1.0, [0.5], [[1.0]], [0.0])
        with pytest.raises(ValueError, match="query times must be finite"):
            ev.values([math.nan])

    @pytest.mark.parametrize("times, incs, initial, message", [
        ([0.5], [[math.nan]], None, "increments and initial value must be finite"),
        ([0.5], [[math.inf]], [0.0], "increments and initial value must be finite"),
        ([0.5], [[-math.inf]], None, "increments and initial value must be finite"),
        ([0.5], [[1.0]], [math.nan], "increments and initial value must be finite"),
        ([0.5], [[1.0]], [math.inf], "increments and initial value must be finite"),
        ([], [], [-math.inf], "increments and initial value must be finite"),
        # a NaN time sorts last, and then lies outside the domain
        ([math.nan], [[1.0]], None, "event times must lie within the domain"),
        ([0.5, math.nan], [[1.0], [2.0]], None, "event times must lie within the domain"),
        ([math.nan, 0.5], [[1.0], [2.0]], [0.0], "event times must lie within the domain"),
        ([0.5, math.inf], [[1.0], [2.0]], None, "event times must lie within the domain"),
        ([-math.inf, 0.5], [[1.0], [2.0]], None, "event times must lie within the domain"),
        ([math.nan, 0.5], [[1.0], [math.inf]], None, "must be finite"),  # increments come first
        ([0.5, 0.2], [[1.0]], None, "matching lengths"),
    ])
    @pytest.mark.parametrize("layout", ["rows", "flat"])
    def test_event_verdicts(self, times, incs, initial, message, layout):
        """Increments given as (m, 1) rows, taken as they are, or flat, widened first."""
        incs = np.array(incs) if layout == "rows" else [row[0] for row in incs]
        with pytest.raises(ValueError, match=message):
            jumpsim.EventPath(0.0, 1.0, times, incs, initial)

    @pytest.mark.parametrize("query", [math.nan, [math.nan], [0.5, math.nan], [math.inf, 0.5],
                                       np.array([0.2, -math.inf])])
    def test_values_rejects_non_finite_queries(self, query):
        ev = jumpsim.EventPath(0.0, 1.0, [0.5], [[1.0]])
        with pytest.raises(ValueError, match="query times must be finite"):
            ev.values(query)

    @pytest.mark.parametrize("t_lo, t_hi, message", [
        (1.0, 0.0, "t_lo < t_hi"), (0.5, 0.5, "t_lo < t_hi"),
        (math.nan, 1.0, "domain endpoints must be finite"),
        (0.0, math.inf, "domain endpoints must be finite"),
    ])
    def test_rejects_bad_domain(self, t_lo, t_hi, message):
        with pytest.raises(ValueError, match=message):
            jumpsim.EventPath(t_lo, t_hi, [], [])

    def test_csv(self):
        ev = jumpsim.EventPath(0.0, 1.0, [0.5], [[1.0]])
        assert ev.to_csv().splitlines()[0] == "tau,dj1"

    def test_no_events_take_the_initial_width(self):
        for ev in (jumpsim.EventPath(0.0, 1.0, [], [], [1.0, 2.0]),
                   jumpsim.EventPath(0.0, 1.0, [], np.zeros((0, 0)), [1.0, 2.0])):
            assert ev.dim == 2 and ev.increments.shape == (0, 2)
            assert ev.to_csv() == "tau,dj1,dj2\n"
            assert ev.values([0.5]).tolist() == [[1.0, 2.0]]

    def test_no_events_without_initial_are_one_dimensional(self):
        ev = jumpsim.EventPath(0.0, 1.0, [], [])
        assert ev.dim == 1 and ev.initial.tolist() == [0.0]

    def test_initial_defaults_to_the_width_of_its_increments(self):
        ev = jumpsim.EventPath(0.0, 1.0, [0.5], [[1.0, -1.0]])
        assert ev.initial.tolist() == [0.0, 0.0]
        ev = jumpsim.EventPath(0.0, 1.0, [0.5], [[1.0, -1.0]], initial=[2.0, 3.0])
        assert ev.values([0.5]).tolist() == [[3.0, 2.0]]

    def test_width_differing_from_initial_rejected(self):
        with pytest.raises(ValueError, match="same width"):
            jumpsim.EventPath(0.0, 1.0, [0.5], [[1.0, 2.0]], [0.0])
        with pytest.raises(ValueError, match="same width"):
            jumpsim.EventPath(0.0, 1.0, [], np.zeros((0, 2)), [0.0])
        with pytest.raises(ValueError, match="same width"):
            jumpsim.EventPath(0.0, 1.0, [0.5], [[1.0]], initial=[0.0, 0.0])


class TestOrderStats:
    def test_corner_maps_to_full_interval(self):
        assert jumpsim.triangle_to_order_stats(np.array([0.0, 0.0]), 1.0, 1.0, 1.0) \
            == (0.0, 1.0)

    def test_rejects_outside_triangle(self):
        for point in ([0.9, 0.9], [math.nan, 0.1], [0.1, math.nan]):
            with pytest.raises(ValueError, match="outside the triangle"):
                jumpsim.triangle_to_order_stats(np.array(point), 1.0, 1.0, 1.0)

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
        empty = jumpsim.EventPath(0.0, 1.0, np.zeros(0), np.zeros((0, 1)))
        y_prime, z = jumpsim.rearranged_difference(empty, rng)
        assert z.times.size == 0
        assert np.all(z.values([0.3, 0.9]) == 0.0)

    def test_total_increment_cancels(self):
        rng = np.random.default_rng(57)
        y = jumpsim.simulate_cpp_path(5.0, TwoPoint(1.0), 0.0, 1.0, rng)
        _, z = jumpsim.rearranged_difference(y, rng)
        assert float(z.increments.sum()) == 0.0
        assert z.values([1.0])[0, 0] == 0.0

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

    def test_pair_agrees_bit_for_bit_at_the_end(self):
        # Y(l) and Y'(l) sum the same jumps: with non-dyadic values, in the same order
        dist = Categorical([[0.1], [-0.37], [1.3]], [0.3, 0.3, 0.4])
        ys, rearr = jumpsim.rearranged_pairs(5.0, dist, 1.0, [0.2, 0.5, 0.8, 1.0], 2000,
                                             np.random.default_rng(70))
        assert ys[:, -1].tobytes() == rearr[:, -1].tobytes()
        assert np.mean(ys[:, 1] != rearr[:, 1]) > 0.5

    def test_pair_reads_exactly_zero_before_every_jump(self):
        # non-dyadic values: a difference of two sums of the same jumps need not read 0
        dist = Categorical([[0.1], [-0.37], [1.3]], [0.3, 0.3, 0.4])
        for ts in ([0.0, 0.5, 1.0], [1.0, 0.0, 0.5]):
            ys, rearr = jumpsim.rearranged_pairs(3.0, dist, 1.0, ts, 2000, np.random.default_rng(1))
            first, last = ts.index(0.0), ts.index(1.0)
            assert ys[:, first].tobytes() == rearr[:, first].tobytes() == np.zeros((2000, 1)).tobytes()
            assert ys[:, last].tobytes() == rearr[:, last].tobytes()

    def test_pair_reads_the_total_after_the_last_jump(self):
        # a probe with no jump after it reads the same total as t = l, in Y and in Y'
        dist = Categorical([[0.1], [-0.37], [1.3]], [0.3, 0.3, 0.4])
        ys, rearr = jumpsim.rearranged_pairs(3.0, dist, 1.0, [0.9, 1.0], 4000, np.random.default_rng(2))
        for vals in (ys, rearr):
            done = vals[:, 0, 0] == vals[:, 1, 0]
            assert 0 < done.sum() < 4000
        both = (ys[:, 0, 0] == ys[:, 1, 0]) & (rearr[:, 0, 0] == rearr[:, 1, 0])
        assert np.array_equal(ys[both, 0], rearr[both, 0])

    @staticmethod
    def bridges(ts, rng):
        d = jumpsim.bridge_experiments(4.0, TwoPoint(1.0), 1.0, ts, 300, rng)
        return d.values, d.centered_original, d.centered_rearranged

    def test_times_in_any_order(self):
        # the reversed times give the reversed columns, drawn from the same stream
        for draw in (lambda ts, rng: jumpsim.rearranged_pairs(4.0, TwoPoint(1.0), 1.0, ts, 300, rng),
                     self.bridges):
            down = draw([0.7, 0.3], np.random.default_rng(71))
            up = draw([0.3, 0.7], np.random.default_rng(71))
            for a, b in zip(down, up):
                assert a.tobytes() == b[:, ::-1].tobytes()
                assert not np.array_equal(a, b)


class TestBridgeExperiment:
    def test_endpoint_is_exactly_zero(self):
        rng = np.random.default_rng(60)
        draw = jumpsim.bridge_experiment(200, TwoPoint(1.0), 1.0, [0.5, 1.0], rng)
        assert draw.values[1] == 0.0

    def test_variance_decays_near_endpoints(self):
        rng = np.random.default_rng(61)
        vals = jumpsim.bridge_experiments(400, TwoPoint(1.0), 1.0, [0.02, 0.5], 3000, rng).values
        assert vals[:, 0].var() < 0.1 * vals[:, 1].var()

    def test_rejects_flat_second_moment(self):
        rng = np.random.default_rng(62)

        class Degenerate:
            dim = 1
            abs_second_moment = 0.0
            mean = np.zeros(1)

        with pytest.raises(ValueError):
            jumpsim.bridge_experiment(100, Degenerate(), 1.0, [0.5], rng)

    @pytest.mark.parametrize("rate, l, message", [
        (0, 1.0, "rate must be finite and positive"), (-3, 1.0, "rate must be"),
        (math.nan, 1.0, "rate must be"), (math.inf, 1.0, "rate must be"),
        (20, math.nan, "l must be finite and positive"), (20, math.inf, "l must be"),
        (20, 0.0, "l must be"), (20, -1.0, "l must be"),
    ])
    def test_rejects_bad_rate_and_length(self, rate, l, message):
        rng = np.random.default_rng(62)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=message):
            jumpsim.bridge_experiments(rate, TwoPoint(1.0), l, [0.5], 10, rng)
        with pytest.raises(ValueError, match=message):
            jumpsim.rearranged_pairs(rate, TwoPoint(1.0), l, [0.5], 10, rng)
        assert rng.bit_generator.state == state  # nothing was drawn


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

    @pytest.mark.parametrize("l", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_rejects_bad_length(self, l):
        with pytest.raises(ValueError, match="l must be finite and positive"):
            jumpsim.random_walk_bridges(30, l, TwoPoint(1.0), 5, np.random.default_rng(63))
        with pytest.raises(ValueError, match="l must be finite and positive"):
            jumpsim.rw_bridge_cov(30, l, 0.0, 1.0, 0.3, 0.6)

    @pytest.mark.parametrize("s, t", [(2.0, 3.0), (0.3, 1.5), (-0.1, 0.5), (math.nan, 0.5),
                                      (0.3, math.inf), (0.5, math.nan), (-1.0, 0.5), (2.0, 0.5),
                                      (math.nan, math.nan), (-math.inf, 0.5)])
    def test_rejects_times_outside_the_walk(self, s, t):
        # the walk, the rearranged pair and the bridge experiment share one check
        with pytest.raises(ValueError, match=r"must lie in \[0, l\]"):
            jumpsim.random_walk_bridges(30, 1.0, TwoPoint(1.0), 5, np.random.default_rng(63),
                                        grid=[s, t])
        with pytest.raises(ValueError, match=r"must lie in \[0, l\]"):
            jumpsim.rearranged_pairs(10.0, TwoPoint(1.0), 1.0, [s, t], 3, np.random.default_rng(63))
        with pytest.raises(ValueError, match=r"must lie in \[0, l\]"):
            jumpsim.bridge_experiments(10.0, TwoPoint(1.0), 1.0, [s, t], 3,
                                       np.random.default_rng(63))
        with pytest.raises(ValueError, match=r"must lie in \[0, l\]"):
            jumpsim.rw_bridge_cov(30, 1.0, 0.0, 1.0, s, t)

    def test_covariance_with_drifting_steps(self):
        # mu1 = 1, mu2 = 1 (constant steps): the difference is degenerate
        assert jumpsim.rw_bridge_cov(1000, 1.0, 1.0, 1.0, 0.3, 0.6) == 0.0

    def test_empirical_covariance(self):
        rng = np.random.default_rng(64)
        reps = 4000
        pairs = jumpsim.random_walk_bridges(300, 1.0, TwoPoint(1.0), reps, rng, grid=[0.3, 0.6])
        prods = pairs[:, 0] * pairs[:, 1]
        cov = prods.mean() - pairs[:, 0].mean() * pairs[:, 1].mean()
        target = jumpsim.rw_bridge_cov(300, 1.0, 0.0, 1.0, 0.3, 0.6)
        assert abs(cov - target) <= 4.0 * prods.std(ddof=1) / math.sqrt(reps)


def brute_force_counts(path, rate, n, seed):
    """`paired_event_counts`' stream drawn as one field per sheet: each draw's events,
    and its jumps under the terminal rectangle, counted from the sheet itself."""
    region = jumpsim.path_region(path)
    field, owner = jumpsim.simulate_cpp_sheets(rate, TwoPoint(1.0), region, n,
                                               np.random.default_rng(seed))
    x_end, y_end = float(path.x(path.t_hi)), float(path.y(path.t_hi))
    events, persistent = np.empty(n, dtype=int), np.empty(n, dtype=int)
    for i in range(n):
        sheet = jumpsim.JumpField(region, field.locations[owner == i], field.jumps[owner == i])
        u, v = sheet.locations[:, 0], sheet.locations[:, 1]
        events[i] = jumpsim.restrict_to_path(sheet, path).times.size
        persistent[i] = np.sum((u <= x_end) & (v <= y_end))
    return events, persistent


def poisson_halves(paired, mean):
    """The chi-square report of the half-counts against Poisson(mean), as c5 builds it."""
    return chi2_counts(paired // 2, lambda k: math.exp(-mean) * mean ** k / math.factorial(k))


class TestJumpCountLaw:
    def test_zero_rate(self):
        rng = np.random.default_rng(65)
        paired = jumpsim.paired_event_counts(bridge(), 1e-9, 200, rng)
        assert paired.shape == (200,)
        assert np.all(paired == 0)

    def test_bridge_path_poisson_counts(self):
        rng = np.random.default_rng(66)
        paired = jumpsim.paired_event_counts(bridge(), 4.0, 4000, rng)
        mean = 4.0 * jumpsim.swept_exit_area(bridge())
        assert mean == pytest.approx(2.0)
        assert np.all(paired % 2 == 0)
        assert poisson_halves(paired, mean).extra["pvalue"] > 1e-3
        assert abs((paired // 2).mean() - 2.0) <= 4.0 * math.sqrt(2.0 / 4000)

    def test_counts_are_brute_force_counts(self):
        path, rate, n = LinearPath(0.2, 1.0, 1.5, 1.2, 0.0, 1.0), 6.0, 300  # y(t_hi) = 0.3
        paired = jumpsim.paired_event_counts(path, rate, n, np.random.default_rng(69))
        events, persistent = brute_force_counts(path, rate, n, 69)
        assert persistent.sum() > 0 and paired.sum() > 0
        assert np.array_equal(paired, events - persistent)
        assert np.all(paired % 2 == 0)

    def test_even_counts_on_every_form(self, six_forms):
        for name, path in six_forms.items():
            paired = jumpsim.paired_event_counts(path, 3.0, 200, np.random.default_rng(72))
            assert np.all(paired % 2 == 0), name
            events, persistent = brute_force_counts(path, 3.0, 200, 72)
            assert np.array_equal(paired, events - persistent), name

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
        # y never falls, so every jump that enters stays
        rng = np.random.default_rng(67)
        paired = jumpsim.paired_event_counts(LinearPath(0.5, 2.0, 1.5, 0.0, 0.0, 1.0), 4.0, 200, rng)
        assert np.all(paired == 0)

    def test_vertical_line_poisson_counts(self):
        rng = np.random.default_rng(68)
        vertical = LinearPath(2.0, 0.0, 3.0, 1.0, 0.0, 1.0)  # swept area 2
        paired = jumpsim.paired_event_counts(vertical, 3.0, 4000, rng)
        mean = 3.0 * jumpsim.swept_exit_area(vertical)
        assert mean == pytest.approx(6.0)
        assert np.all(paired % 2 == 0)
        assert poisson_halves(paired, mean).passed
        assert abs((paired // 2).mean() - 6.0) <= 4.0 * math.sqrt(6.0 / 4000)
