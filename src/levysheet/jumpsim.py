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

Experiments draw N replicates at once, as flat event arrays plus `owner`,
the draw each event belongs to; single-draw functions are their N = 1 calls.
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


_SIGNS = np.array([1.0, -1.0])  # of an entry (even event index) and an exit (odd)


def _slot_sums(out, owner, slots, jumps) -> np.ndarray:
    """Write into out, (n_draws, n_slots, d), the running sums along the slots of the jumps put at
    (owner, slot), slot n_slots being past the last: one bincount per component, then one cumsum."""
    n_draws, n_slots, d = out.shape
    at = owner * (n_slots + 1) + slots
    for c in range(d):
        sums = np.bincount(at, jumps[:, c], n_draws * (n_slots + 1)).reshape(n_draws, n_slots + 1)
        np.add.accumulate(sums[:, :-1], axis=1, out=out[:, :, c])
    return out


def _as_increments(increments, n_events: int, default_dim: int) -> np.ndarray:
    """(m, d) increments; no events given as [] or (0, 0) take the width default_dim."""
    incs = np.asarray(increments, dtype=float)
    if incs.size == 0 and (incs.ndim == 1 or incs.shape[1] == 0):
        incs = incs.reshape(0, default_dim)
    elif incs.ndim == 1:
        incs = incs[:, None]
    if incs.shape[0] != n_events:
        raise ValueError("times and increments must have matching lengths")
    return incs

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
        locs = np.empty((size, 2))
        locs[:, 0] = rng.uniform(0.0, self.x_max, size=size)
        locs[:, 1] = rng.uniform(0.0, self.y_max, size=size)
        return locs

    def contains(self, locations: np.ndarray) -> np.ndarray:
        u, v = locations[:, 0], locations[:, 1]
        return (u > 0) & (u <= self.x_max) & (v > 0) & (v <= self.y_max)

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
        js = np.atleast_2d(np.asarray(self.jumps, dtype=float))
        if js.shape[0] != locs.shape[0]:
            raise ValueError("locations and jumps must have matching lengths")
        if not self.region.contains(locs).all():
            raise ValueError("all jump locations must lie strictly inside the region")
        if not np.isfinite(js).all():
            raise ValueError("jump values must be finite")
        if js.size and (np.ascontiguousarray(js.T) == 0.0).all(axis=0).any():  # by column: fast
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


@dataclass(frozen=True, eq=False)
class EventPath:
    """Initial value plus time-stamped increments on [t_lo, t_hi].

    value(t) sums the initial value and every increment with time <= t.
    The events are sorted stably by time, so simultaneous events keep their
    input order.  `initial` defaults to zeros of the increments' width.
    """

    t_lo: float
    t_hi: float
    times: np.ndarray  # (m,)
    increments: np.ndarray  # (m, d)
    initial: np.ndarray | None = None  # (d,)

    def __post_init__(self):
        DecreasingPath._validate_domain(self)  # finite t_lo < t_hi, as for paths
        ts = np.asarray(self.times, dtype=float)
        incs = _as_increments(self.increments, ts.size, 1 if self.initial is None else np.size(self.initial))
        init = (np.zeros(incs.shape[1]) if self.initial is None  # finite zeros: no check needed
                else np.array(self.initial, dtype=float, ndmin=1))
        if incs.shape[1] != init.size:
            raise ValueError("increments and initial value must have the same width")
        if not (np.isfinite(incs).all() and (self.initial is None or np.isfinite(init).all())):
            raise ValueError("increments and initial value must be finite")
        order = ts.argsort(kind="stable")  # NaN sorts last
        ts, incs = ts.take(order), incs.take(order, axis=0)
        if ts.size and not (self.t_lo - 1e-12 <= ts[0] and ts[-1] <= self.t_hi + 1e-12):
            raise ValueError("event times must lie within the domain")
        object.__setattr__(self, "times", ts)
        object.__setattr__(self, "increments", incs)
        object.__setattr__(self, "initial", init)

    @property
    def dim(self) -> int:
        return self.increments.shape[1]

    def values(self, ts) -> np.ndarray:
        """Path values at query times; output (k, d)."""
        q = np.array(ts, dtype=float, ndmin=1)
        if not np.isfinite(q).all():
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
    owner = np.repeat(np.arange(n_draws), rng.poisson(rate * region.area, size=n_draws))
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
    times = stamps.ravel().take(event)
    incs = field.jumps.take(event >> 1, axis=0)
    incs *= _SIGNS.take(event & 1)[:, None]  # an exact sign flip at exits
    return event >> 1, times, incs


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
    values = np.empty((n_draws, ts.size, triplet.dim))  # the jump part, then the sum
    rate, neg_ys = triplet.jumps.rate, -ys
    areas = np.cumsum((xs - np.concatenate(([0.0], xs[:-1]))) * ys)  # columns 0..i

    def block(lo, hi, gen):
        owner = np.repeat(np.arange(hi - lo), gen.poisson(rate * areas[-1], size=hi - lo))
        col = areas[:-1].searchsorted(gen.uniform(0.0, areas[-1], owner.size), side="right")
        # a height uniform on (0, y(t_col)], and the slot after the last probe that covers it
        stop = neg_ys.searchsorted(neg_ys.take(col) * (1.0 - gen.random(owner.size)), side="right")
        jumps = triplet.jumps.dist.sample(gen, owner.size)
        _slot_sums(values[lo:hi], np.concatenate([owner, owner]), np.concatenate([col, stop]),
                   np.concatenate([jumps, -jumps]))

    _run_blocks(n_draws, rate * areas[-1], rng, block)
    values[:, xys <= 0.0] = 0.0  # empty rectangles read 0, not +J - J
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

def _cpp_path_jumps(rate: float, jump_dist, t_lo: float, t_hi: float, n_draws: int, rng):
    """Owner, times and values of the jumps of n_draws compound-Poisson paths on [t_lo, t_hi]."""
    if not t_hi > t_lo:
        raise ValueError("domain must satisfy t_lo < t_hi")
    owner = np.repeat(np.arange(n_draws), rng.poisson(rate * (t_hi - t_lo), size=n_draws))
    times = rng.uniform(t_lo, t_hi, size=owner.size)
    return owner, times, jump_dist.sample(rng, owner.size)


def simulate_cpp_path(rate: float, jump_dist, t_lo: float, t_hi: float, rng) -> EventPath:
    """One-parameter compound Poisson path on [t_lo, t_hi] starting at 0."""
    _, times, jumps = _cpp_path_jumps(rate, jump_dist, t_lo, t_hi, 1, rng)
    return EventPath(t_lo, t_hi, times, jumps)


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
    diff_incs = np.vstack([y_events.increments, -y_events.increments])
    z = EventPath(y_events.t_lo, y_events.t_hi, diff_times, diff_incs)
    return y_prime, z


def _grid_times(times, l: float) -> np.ndarray:
    """The times as a float array, which must lie in [0, l]."""
    ts = np.atleast_1d(np.asarray(times, dtype=float))
    if not ((ts >= 0) & (ts <= l)).all():  # False at NaN
        raise ValueError("grid times must lie in [0, l]")
    return ts


def rearranged_pairs(rate: float, jump_dist, l: float, ts, n_draws: int,
                     rng) -> tuple[np.ndarray, np.ndarray]:
    """Values at the times ts in [0, l], (n_draws, k, d) each, of Y ~ CPP(rate) on [0, l]
    and of Y' with Y's jump values at fresh uniform times (see `rearranged_difference`); each sums
    its jumps at or before t (exactly 0 before the first), and where none comes later Y and Y' read
    Y's total, so Y(l) == Y'(l) bit for bit."""
    _positive(rate=rate, l=l)
    ts = _grid_times(ts, l)
    up, rank, k = np.sort(ts), np.argsort(np.argsort(ts)), ts.size  # ts[j] is up[rank[j]]
    pairs = np.empty((2, n_draws, k, jump_dist.dim))

    def block(lo, hi, gen):
        owner, times, jumps = _cpp_path_jumps(rate, jump_dist, 0.0, l, hi - lo, gen)
        new_slot = up.searchsorted(gen.uniform(0.0, l, size=owner.size))  # the probes before it
        # Y at the sorted probes, then at slot k, past them all, its total
        ys = _slot_sums(np.empty((hi - lo, k + 1, jumps.shape[1])), owner, up.searchsorted(times), jumps)
        rearranged = _slot_sums(np.empty((hi - lo, k, jumps.shape[1])), owner, new_slot, jumps)
        seen = np.bincount(owner * (k + 1) + new_slot, minlength=(hi - lo) * (k + 1))
        seen = seen.reshape(hi - lo, k + 1).cumsum(axis=1)  # Y''s jumps up to each probe
        np.copyto(rearranged, ys[:, -1:], where=(seen[:, :-1] == seen[:, -1:])[:, :, None])
        ys.take(rank, axis=1, out=pairs[0, lo:hi])
        rearranged.take(rank, axis=1, out=pairs[1, lo:hi])

    _run_blocks(n_draws, 2.0 * rate * l, rng, block)
    return pairs[0], pairs[1]


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
    ts = np.atleast_1d(np.asarray(grid, dtype=float))
    y, y_prime = rearranged_pairs(rate, jump_dist, l, ts, n_draws, rng)
    y, y_prime = y[:, :, 0], y_prime[:, :, 0]
    norm = math.sqrt(2.0 * mu2 * rate)
    drift = rate * float(jump_dist.mean[0]) * ts
    return BridgeDraw(ts, (y - y_prime) / norm, (y - drift) / norm, (y_prime - drift) / norm)


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
        idx = np.floor(n * _grid_times(grid, l)).astype(int)

    def block(lo, hi, gen):
        steps = xi_dist.sample(gen, (hi - lo) * total)[:, 0].reshape(hi - lo, total)
        gap = np.zeros((hi - lo, total + 1))
        gap[:, 1:] = steps.cumsum(axis=1) - gen.permuted(steps, axis=1).cumsum(axis=1)
        return gap.take(idx, axis=1)

    return np.concatenate(_run_blocks(n_draws, total, rng, block)) / math.sqrt(2.0 * mu2 * n)


def random_walk_bridge(n: int, l: float, xi_dist, rng, grid=None) -> SamplePathGrid:
    """One draw of `random_walk_bridges` at the grid times, or at every step time k/n."""
    vals = random_walk_bridges(n, l, xi_dist, 1, rng, grid)[0]
    ts = np.arange(1, vals.size + 1) / n if grid is None else np.atleast_1d(np.asarray(grid, dtype=float))
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
