"""Sheets restricted to decreasing paths: whole triplets, and compound-Poisson fields.

`simulate_triplet` draws a sheet at k times of a path from the jumps in the
union of their k rectangles alone.  Event paths draw every jump below the
path's sweep, on `path_region(path)`: a jump at (u, v) enters at the first time
x(t) reaches u and leaves at the last time y(t) still covers v; jumps under the
terminal rectangle never leave.  Event 2j is the entry of jump j and 2j + 1 its
exit; the kept ones are sorted once, stably, by time, so equal times keep that
order.  The restricted process is not cadlag and no merging is attempted.

`paired_event_counts` returns each draw's count of those paired events; the
checks of their law are built from the counts by their callers.  The
uniform-triangle-to-order-statistics map, the jump-time rearrangement
construction, and its diffusion-scale bridge limit experiments live here too.

Experiments draw N replicates at once, as flat event arrays plus each event's
draw (or the first of its draw's result bins); single-draw functions are their N = 1 calls.
`gauss._run_blocks` cuts a batch into blocks of whole draws by its expected
events (or walk steps): a batch of at most 2^19 draws from `rng` itself, a
larger one draws block b from the b-th `rng.spawn` child on the sampler's pool.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exponent import TwoPoint, _positive
from .gauss import GaussPathLaw, SamplePathGrid, _csv, _run_blocks, simulate_paths
from .paths import DecreasingPath, LinearPath


_SIGNS = np.array([[1.0], [-1.0]])  # of an entry (even event index) and an exit (odd)


def _slot_sums(out, at, jumps) -> np.ndarray:
    """Write into out, (n_draws, n_slots, d), the running sums along the slots of the jumps in bins
    at = draw * (n_slots + 1) + slot, slot n_slots past the last: a bincount per component, a cumsum."""
    n_draws, n_slots, d = out.shape
    for c in range(d):
        sums = np.bincount(at, jumps[:, c], n_draws * (n_slots + 1)).reshape(n_draws, n_slots + 1)
        np.add.accumulate(sums[:, :-1], axis=1, out=out[:, :, c])
    return out


__all__ = [
    "RectRegion",
    "TriangleRegion",
    "JumpField",
    "EventPath",
    "simulate_cpp_sheet",
    "simulate_cpp_sheets",
    "restrict_to_path",
    "path_region",
    "simulate_triplet",
    "rectangle_sum",
    "triangle_to_order_stats",
    "simulate_cpp_path",
    "rearranged_difference",
    "rearranged_pairs",
    "BridgeDraw",
    "bridge_experiment",
    "bridge_experiments",
    "random_walk_bridge",
    "random_walk_bridges",
    "rw_bridge_cov",
    "swept_exit_area",
    "paired_event_counts",
]


@dataclass(frozen=True)
class RectRegion:
    """Axis-aligned rectangle (0, x_max] x (0, y_max]."""

    x_max: float
    y_max: float

    def __post_init__(self):
        _positive(x_max=self.x_max, y_max=self.y_max)

    @property
    def area(self) -> float:
        return self.x_max * self.y_max

    def sample(self, rng, size: int) -> np.ndarray:
        """size locations, (size, 2): the u's, then the v's, each side * U, rng.uniform(0.0, side)'s
        bits; U = 0 reads as 1 (the law of 1 - U on the same grid), so each lies in the region."""
        draws = rng.random((2, size))
        np.putmask(draws, draws == 0.0, 1.0)
        draws[0] *= self.x_max
        draws[1] *= self.y_max
        return draws.T

    def covers_path(self, path: DecreasingPath) -> bool:
        tol = 1e-9
        _, x_end, y_start, _ = path.ends
        return x_end <= self.x_max * (1 + tol) and y_start <= self.y_max * (1 + tol)

    def to_dict(self) -> dict:
        return {"shape": "rect", "x_max": self.x_max, "y_max": self.y_max}


@dataclass(frozen=True)
class TriangleRegion:
    """Right triangle with vertices (0,0), (0, height), (width, 0)."""

    width: float
    height: float

    def __post_init__(self):
        _positive(width=self.width, height=self.height)

    def sample(self, rng, size: int) -> np.ndarray:
        u = rng.uniform(0.0, self.width, size=size)
        v = rng.uniform(0.0, self.height, size=size)
        above = u / self.width + v / self.height > 1.0
        u[above] = self.width - u[above]
        v[above] = self.height - v[above]
        return np.column_stack([u, v])


@dataclass(frozen=True, eq=False)
class JumpField:
    """Finite set of sheet jumps: locations in the region, values in R^d."""

    region: RectRegion
    locations: np.ndarray  # (n, 2)
    jumps: np.ndarray  # (n, d)

    def __post_init__(self):
        locs = np.asarray(self.locations, dtype=float).reshape(-1, 2)
        js = np.array(self.jumps, dtype=float, copy=None, ndmin=2)
        if js.shape[0] != locs.shape[0]:
            raise ValueError("locations and jumps must have matching lengths")
        sides = self.region.x_max, self.region.y_max  # inside (0, x_max] x (0, y_max]: NaN fails
        if np.count_nonzero(locs > 0.0) + np.count_nonzero(locs <= sides) < 2 * locs.size:
            raise ValueError("all jump locations must lie strictly inside the region")
        if np.count_nonzero(np.isfinite(js)) < js.size:
            raise ValueError("jump values must be finite")
        if np.count_nonzero(js) < js.size and (np.ascontiguousarray(js.T) == 0.0).all(axis=0).any():
            raise ValueError("zero jumps are not allowed")
        object.__setattr__(self, "locations", locs)
        object.__setattr__(self, "jumps", js)

    @property
    def count(self) -> int:
        return self.locations.shape[0]

    @property
    def dim(self) -> int:
        return self.jumps.shape[1]

    def to_dict(self) -> dict:
        return {
            "region": self.region.to_dict(),
            "points": [
                {"u": float(u), "v": float(v), "j": j.tolist()}
                for (u, v), j in zip(self.locations, self.jumps)
            ],
        }


@dataclass(frozen=True, eq=False, init=False)
class EventPath:
    """Initial value plus time-stamped increments on [t_lo, t_hi].

    value(t) sums the initial value and every increment with time <= t.  The events are
    sorted stably by time, so simultaneous events keep their input order.  `initial`
    defaults to zeros of the increments' width.  The constructor checks and sets each field once.
    """

    t_lo: float
    t_hi: float
    times: np.ndarray  # (m,)
    increments: np.ndarray  # (m, d)
    initial: np.ndarray  # (d,)

    def __init__(self, t_lo: float, t_hi: float, times, increments, initial=None):
        object.__setattr__(self, "t_lo", t_lo)
        object.__setattr__(self, "t_hi", t_hi)
        DecreasingPath._validate_domain(self)  # finite t_lo < t_hi, as for paths
        ts, incs = np.asarray(times, dtype=float), np.asarray(increments, dtype=float)
        if incs.ndim < 2 or not incs.shape[1]:  # flat increments, or no events as [] or (0, 0)
            width = 1 if initial is None or incs.size else np.size(initial)
            incs = incs.reshape(-1 if incs.size else 0, width)
        if incs.shape[0] != ts.size:
            raise ValueError("times and increments must have matching lengths")
        init = (np.zeros(incs.shape[1]) if initial is None  # finite zeros: no check needed
                else np.array(initial, dtype=float, ndmin=1))
        if incs.shape[1] != init.size:
            raise ValueError("increments and initial value must have the same width")
        if np.count_nonzero(np.isfinite(incs)) < incs.size or (
                initial is not None and np.count_nonzero(np.isfinite(init)) < init.size):
            raise ValueError("increments and initial value must be finite")
        order = ts.argsort(kind="stable")  # NaN sorts last
        ts = ts.take(order)
        if ts.size and not (t_lo - 1e-12 <= ts[0] and ts[-1] <= t_hi + 1e-12):
            raise ValueError("event times must lie within the domain")
        object.__setattr__(self, "times", ts)
        object.__setattr__(self, "increments", incs.take(order, axis=0))
        object.__setattr__(self, "initial", init)

    @property
    def dim(self) -> int:
        return self.increments.shape[1]

    def values(self, ts) -> np.ndarray:
        """Path values at query times; output (k, d)."""
        q = np.array(ts, dtype=float, copy=None, ndmin=1)
        if np.count_nonzero(np.isfinite(q)) < q.size:
            raise ValueError("query times must be finite")
        # row k sums the first k events; row 0 is -0.0, which adds to `initial` bit for bit
        sums = np.empty((self.times.size + 1, self.dim))
        sums[0] = -0.0
        np.add.accumulate(self.increments, axis=0, out=sums[1:])
        return self.initial + sums.take(self.times.searchsorted(q, side="right"), axis=0)

    def to_csv(self) -> str:
        return _csv("tau", "dj", self.times, self.increments)


# ---------------------------------------------------------------------------
# Sheet simulation and restriction
# ---------------------------------------------------------------------------

def simulate_cpp_sheets(rate: float, jump_dist, region, n_draws: int, rng) -> tuple[JumpField, np.ndarray]:
    """n_draws sheets as in `simulate_cpp_sheet`: one field of all their jumps, and each jump's draw."""
    if not (math.isfinite(rate) and rate >= 0):
        raise ValueError("rate must be finite and nonnegative")
    if not math.isfinite(region.area):
        raise ValueError("region must have finite area")
    owner = np.arange(n_draws).repeat(rng.poisson(rate * region.area, size=n_draws))
    locs = region.sample(rng, owner.size)
    return JumpField(region, locs, jump_dist.sample(rng, owner.size)), owner


def simulate_cpp_sheet(rate: float, jump_dist, region, rng) -> JumpField:
    """Poisson(rate * area) jumps, uniform locations, i.i.d. jump values."""
    return simulate_cpp_sheets(rate, jump_dist, region, 1, rng)[0]


def _restrict_events(field: JumpField, path: DecreasingPath):
    """Events of the field's jumps along the path: (jump index, times, increments).

    A jump at (u, v) contributes +J at the entry time inf{t : x(t) >= u}
    provided v <= y(entry), and -J at the exit time sup{t : y(t) >= v}
    unless v <= y(t_hi), in which case it stays for good.  Event 2j is the
    entry of jump j and 2j + 1 its exit, in that order.
    """
    if not field.region.covers_path(path):
        raise ValueError("field region does not cover the path's sweep")
    u, v = field.locations[:, 0], field.locations[:, 1]
    stamps, kept = np.empty((u.size, 2)), np.empty((u.size, 2), dtype=bool)  # row j: jump j's events
    stamps[:, 0], stamps[:, 1] = path.first_time_x_at_least(u), path.last_time_y_at_least(v)
    np.less_equal(stamps[:, 0], stamps[:, 1], out=kept[:, 0])  # False where either is NaN
    np.logical_and(kept[:, 0], v > path.ends[3], out=kept[:, 1])
    event = kept.reshape(-1).nonzero()[0]
    jump = event >> 1
    incs = field.jumps.take(jump, axis=0)
    incs *= _SIGNS.take(event & 1, axis=0)  # an exact sign flip at exits
    return jump, stamps.ravel().take(event), incs


def restrict_to_path(field: JumpField, path: DecreasingPath) -> EventPath:
    """Events of the sheet restricted to the path: value(t) = sheet((0,x(t)] x (0,y(t)])."""
    _, times, incs = _restrict_events(field, path)
    return EventPath(path.t_lo, path.t_hi, times, incs)


def path_region(path: DecreasingPath) -> RectRegion:
    """Where an event path's jump fields are drawn: (0, x(t_hi)] x (0, y(t_lo)], which
    covers the path's sweep, the union over t of (0, x(t)] x (0, y(t)], as x rises and y falls."""
    _, x_end, y_start, _ = path.ends
    return RectRegion(x_end, y_start)


def simulate_triplet(triplet, path: DecreasingPath, ts, n_draws: int, rng) -> np.ndarray:
    """n_draws exact draws at the times ts, (n_draws, k, d), of the triplet's sheet along
    the path: x(t) y(t) gamma_0, plus the Brownian sheet along the path times the eigen-root
    of A, plus (drawn after it) the jumps in the union of the rectangles (0, x(t)] x (0, y(t)]:
    a jump over (x(t_{i-1}), x(t_i)] at height v lies in those of t_i..the last t with y(t) >= v."""
    ts, xs, ys = path.grid(ts)
    if n_draws < 1:
        raise ValueError("n_draws must be positive")
    xys = xs * ys
    rest = xys[:, None] * triplet.drift  # the drift part, (k, d), then plus the Gaussian part
    if np.count_nonzero(triplet.gaussian):
        eigvals, eigvecs = np.linalg.eigh(triplet.gaussian)
        root = eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))
        gaussian = simulate_paths(GaussPathLaw(path, triplet.dim), ts, rng, n_paths=n_draws) @ root.T
        rest = np.add(gaussian, rest, out=gaussian)
    if triplet.jumps is None:
        return np.broadcast_to(rest, (n_draws, ts.size, triplet.dim)).copy()
    rate, neg_ys, k = triplet.jumps.rate, -ys, ts.size
    values = np.empty((n_draws, k, triplet.dim))  # the jump part, then the sum
    widths = xs.copy()  # x(t_i) - x(t_{i-1}), with x(t_{-1}) = 0
    widths[1:] -= xs[:-1]
    areas = (widths * ys).cumsum()  # columns 0..i

    def block(lo, hi, gen):  # base: the first of the k + 1 bins of each jump's draw (see _slot_sums)
        base = np.arange(0, (hi - lo) * (k + 1), k + 1).repeat(gen.poisson(rate * areas[-1], size=hi - lo))
        col = areas[:-1].searchsorted(areas[-1] * gen.random(base.size), side="right")  # A U: uniform(0, A)
        # a height uniform on (0, y(t_col)], and the slot after the last probe that covers it
        stop = neg_ys.searchsorted(neg_ys.take(col) * (1.0 - gen.random(base.size)), side="right")
        jumps = triplet.jumps.dist.sample(gen, base.size)
        _slot_sums(values[lo:hi], np.concatenate([base + col, base + stop]), np.concatenate([jumps, -jumps]))

    _run_blocks(n_draws, rate * areas[-1], rng, block)
    np.copyto(values, 0.0, where=(xys <= 0.0)[:, None])  # empty rectangles read 0, not +J - J
    values += rest
    return values


def rectangle_sum(field: JumpField, x_val: float, y_val: float) -> np.ndarray:
    """Brute-force sheet value over (0, x_val] x (0, y_val]."""
    u, v = field.locations[:, 0], field.locations[:, 1]
    return field.jumps[(u <= x_val) & (v <= y_val)].sum(axis=0)


# ---------------------------------------------------------------------------
# Order statistics from the uniform triangle
# ---------------------------------------------------------------------------

def triangle_to_order_stats(xi, b: float, c: float, l: float):
    """Map points of the triangle with vertices (0,0), (0,c), (b l, 0).

    (xi1, xi2) -> (xi1 / b, l (1 - xi2 / c)); uniform input gives the order
    statistics of two independent uniforms on (0, l).
    """
    arr = np.asarray(xi, dtype=float)
    single = arr.ndim == 1
    pts = np.atleast_2d(arr)
    if pts.shape[1] != 2:
        raise ValueError("xi must be a point or array of points in the plane")
    u, v = pts[:, 0], pts[:, 1]
    if not ((u >= 0).all() and (v >= 0).all() and (u / (b * l) + v / c <= 1.0 + 1e-12).all()):
        raise ValueError("point outside the triangle")
    tau1 = u / b
    tau2 = l * (1.0 - v / c)
    out = np.column_stack([tau1, tau2])
    return (float(out[0, 0]), float(out[0, 1])) if single else out


# ---------------------------------------------------------------------------
# Rearrangement construction and bridge-limit experiments
# ---------------------------------------------------------------------------

def simulate_cpp_path(rate: float, jump_dist, t_lo: float, t_hi: float, rng) -> EventPath:
    """One-parameter compound Poisson path on [t_lo, t_hi] starting at 0."""
    if not t_hi > t_lo:
        raise ValueError("domain must satisfy t_lo < t_hi")
    m = rng.poisson(rate * (t_hi - t_lo))
    return EventPath(t_lo, t_hi, rng.uniform(t_lo, t_hi, size=m), jump_dist.sample(rng, m))


def rearranged_difference(y_events: EventPath, rng) -> tuple[EventPath, EventPath]:
    """Redraw the jump times uniformly, keep the jump values; return (y', y - y').

    The rearranged path has the same law as the original; their difference
    has the law of a symmetrized sheet restricted to the straight-line path.
    """
    m = y_events.times.size
    new_times = rng.uniform(y_events.t_lo, y_events.t_hi, size=m)
    y_prime = EventPath(y_events.t_lo, y_events.t_hi, new_times, y_events.increments,
                        y_events.initial)
    diff_times = np.concatenate([y_events.times, new_times])
    diff_incs = np.concatenate([y_events.increments, -y_events.increments])
    z = EventPath(y_events.t_lo, y_events.t_hi, diff_times, diff_incs)
    return y_prime, z


def _grid_times(times, l: float) -> np.ndarray:
    """The times as a float array, which must lie in [0, l]."""
    ts = np.array(times, dtype=float, copy=None, ndmin=1)
    if np.count_nonzero((ts >= 0) & (ts <= l)) < ts.size:  # False at NaN
        raise ValueError("grid times must lie in [0, l]")
    return ts


def rearranged_pairs(rate: float, jump_dist, l: float, ts, n_draws: int, rng) -> np.ndarray:
    """Values at the times ts in [0, l] of Y ~ CPP(rate) on [0, l] and of Y' with Y's jump values
    at fresh uniform times (see `rearranged_difference`), (2, n_draws, k, d), which unpacks as (Y, Y');
    each sums its jumps at or before t (exactly 0 before the first), and where none comes later Y
    and Y' read Y's total, so Y(l) == Y'(l) bit for bit."""
    _positive(rate=rate, l=l)
    ts = _grid_times(ts, l)
    up, k = np.sort(ts), ts.size
    rank = up.searchsorted(ts)  # ts[j] is up[rank[j]]; equal probes read equal slot sums
    pairs = np.empty((2, n_draws, k, jump_dist.dim))

    def block(lo, hi, gen):
        # Y's jumps (first of their draw's k + 2 bins, times, values), then Y''s bins; l U: uniform(0, l)
        base = np.arange(0, (hi - lo) * (k + 2), k + 2).repeat(gen.poisson(rate * l, size=hi - lo))
        times, jumps = l * gen.random(base.size), jump_dist.sample(gen, base.size)
        at = base + up.searchsorted(l * gen.random(base.size))
        sums = np.empty((2, hi - lo, k + 1, jumps.shape[1]))  # Y, Y' at the sorted probes, then past all
        _slot_sums(sums[0], base + up.searchsorted(times), jumps)
        _slot_sums(sums[1], at, jumps)
        seen = np.bincount(at, minlength=(hi - lo) * (k + 2)).reshape(hi - lo, k + 2).cumsum(axis=1)
        np.copyto(sums[1], sums[0, :, -1:], where=(seen[:, :-1] == seen[:, -1:])[:, :, None])  # none after
        sums.take(rank, axis=2, out=pairs[:, lo:hi])

    _run_blocks(n_draws, 2.0 * rate * l, rng, block)
    return pairs


@dataclass(frozen=True, eq=False)
class BridgeDraw:
    """Diffusion-scaled draws of the rearrangement difference on a grid.

    `values` is the scaled difference; the two `centered_*` arrays are the
    mean-centered, scaled original and rearranged paths whose difference it
    is (each converging to a BM with variance parameter 1/2).  Each holds one
    value per grid time, (k,) for one draw and (n_draws, k) for a batch.
    """

    times: np.ndarray
    values: np.ndarray
    centered_original: np.ndarray
    centered_rearranged: np.ndarray


def bridge_experiments(rate: float, jump_dist, l: float, grid, n_draws: int, rng) -> BridgeDraw:
    """n_draws draws of (Y - Y')/sqrt(2 m2 rate) on the grid, Y ~ CPP(rate) on [0, l]."""
    mu2 = jump_dist.abs_second_moment
    if not mu2 > 0:
        raise ValueError("jump distribution needs a positive second moment")
    if jump_dist.dim != 1:
        raise ValueError("bridge experiment is defined for real-valued jumps")
    ts = np.array(grid, dtype=float, copy=None, ndmin=1)
    pairs = rearranged_pairs(rate, jump_dist, l, ts, n_draws, rng)[..., 0]  # Y and Y'
    norm = math.sqrt(2.0 * mu2 * rate)
    centered = (pairs - rate * float(jump_dist.mean[0]) * ts) / norm
    return BridgeDraw(ts, (pairs[0] - pairs[1]) / norm, centered[0], centered[1])


def bridge_experiment(rate: float, jump_dist, l: float, grid, rng) -> BridgeDraw:
    """One draw of (Y - Y')/sqrt(2 m2 rate) on the grid, Y ~ CPP(rate) on [0, l]."""
    draws = bridge_experiments(rate, jump_dist, l, grid, 1, rng)
    return BridgeDraw(draws.times, draws.values[0], draws.centered_original[0],
                      draws.centered_rearranged[0])


def random_walk_bridges(n: int, l: float, xi_dist, n_draws: int, rng, grid=None) -> np.ndarray:
    """n_draws draws of the permuted-minus-original random walk, (n_draws, k).

    With partial sums S_k of i.i.d. steps and S'_k of the same steps in a
    uniformly permuted order, the value at t is
    (S_[nt] - S'_[nt]) / sqrt(2 m2 n).  Evaluated at every step time k/n by
    default, or at the given grid times, which must lie in [0, l].
    """
    _positive(l=l)
    total = int(math.floor(n * l))
    if total < 1:
        raise ValueError("need n * l >= 1")
    mu2 = xi_dist.abs_second_moment
    if not mu2 > 0:
        raise ValueError("step distribution needs a positive second moment")
    if grid is None:
        idx = np.arange(1, total + 1)
    else:
        idx = (n * _grid_times(grid, l)).astype(int)  # truncation floors these nonnegative times
    gaps = np.empty((n_draws, idx.size))

    def block(lo, hi, gen):
        steps = xi_dist.sample(gen, (hi - lo) * total)[:, 0].reshape(hi - lo, total)
        walks = np.zeros((2, hi - lo, total + 1))  # S and S', 0 before the first step
        np.add.accumulate(steps, axis=1, out=walks[0, :, 1:])
        np.add.accumulate(gen.permuted(steps, axis=1), axis=1, out=walks[1, :, 1:])
        np.subtract(walks[0].take(idx, axis=1), walks[1].take(idx, axis=1), out=gaps[lo:hi])

    _run_blocks(n_draws, total, rng, block)
    return np.divide(gaps, math.sqrt(2.0 * mu2 * n), out=gaps)


def random_walk_bridge(n: int, l: float, xi_dist, rng, grid=None) -> SamplePathGrid:
    """One draw of `random_walk_bridges` at the grid times, or at every step time k/n."""
    vals = random_walk_bridges(n, l, xi_dist, 1, rng, grid)[0]
    ts = np.arange(1, vals.size + 1) / n if grid is None else np.array(grid, dtype=float, copy=None, ndmin=1)
    return SamplePathGrid(ts, vals)


def rw_bridge_cov(n: int, l: float, mu1: float, mu2: float, s: float, t: float) -> float:
    """Exact finite-n covariance of the permuted-walk difference at (s, t) in [0, l]."""
    _positive(mu2=mu2, l=l)
    if not (0 <= s <= l and 0 <= t <= l):
        raise ValueError("s and t must lie in [0, l]")
    total = int(math.floor(n * l))
    ks = int(math.floor(n * min(s, t)))
    kt = int(math.floor(n * max(s, t)))
    if total < 1:
        raise ValueError("need n * l >= 1")
    return (1.0 - mu1 ** 2 / mu2) * (ks / n) * (1.0 - kt / total)


# ---------------------------------------------------------------------------
# Paired-event counts of the restricted process
# ---------------------------------------------------------------------------

def swept_exit_area(path: LinearPath) -> float:
    """Area of the region whose jumps both enter and leave the restricted path."""
    lo, hi = path.t_lo, path.t_hi
    return path.d * (path.a * (hi - lo) + 0.5 * path.b * (hi ** 2 - lo ** 2))


def paired_event_counts(path: DecreasingPath, rate: float, n_draws: int, rng) -> np.ndarray:
    """Each draw's count of events that come in cancelling pairs, (n_draws,) ints.

    n_draws sheets of +/-1 jumps at the given rate are drawn on `path_region(path)`
    and restricted to the path; each count is the draw's events less its jumps under
    the terminal rectangle, which enter and never leave.  So every count is even, and
    on a straight line half of it is Poisson with mean rate * `swept_exit_area(path)`.
    """
    _positive(rate=rate)
    region, signs = path_region(path), TwoPoint(1.0)  # values unused, but drawn from the stream

    def block(lo, hi, gen):
        # the jumps that stay are those with v <= y(t_hi), as no jump lies right of x(t_hi)
        field, owner = simulate_cpp_sheets(rate, signs, region, hi - lo, gen)
        jump, _, _ = _restrict_events(field, path)
        stays = field.locations[:, 1] <= path.ends[3]
        return np.bincount(owner[jump], minlength=hi - lo) - np.bincount(owner[stays], minlength=hi - lo)

    return np.concatenate(_run_blocks(n_draws, rate * region.area, rng, block))
