"""Compound-Poisson sheet simulation and restriction to decreasing paths.

Each sheet jump at location (u, v) below the path's sweep produces a pair of
cancelling events in the restricted process: the jump enters at the first
time x(t) reaches u and leaves at the last time y(t) still covers v.  Jumps
left under the terminal rectangle never leave.  Event times at equal values
keep insertion order; the restricted process is not cadlag and no merging is
attempted.

The uniform-triangle-to-order-statistics map, the jump-time rearrangement
construction, and its diffusion-scale bridge limit experiments live here too.

Experiments draw N replicates at once, as flat event arrays plus `owner`,
the draw each event belongs to; single-draw functions are their N = 1 calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gauss import SamplePathGrid
from .paths import DecreasingPath, LinearPath


_EVENT_CHUNK = 1_000_000  # events (or walk steps) drawn at a time by the batched experiments


def _chunks(n_draws: int, per_draw: float):
    """Sizes of the successive chunks of n_draws draws of about per_draw events each."""
    if n_draws < 1:
        raise ValueError("n_draws must be positive")
    size = max(1, int(_EVENT_CHUNK // max(per_draw, 1.0)))
    for done in range(0, n_draws, size):
        yield min(size, n_draws - done)


def _batch_values(owner, times, increments, n_draws: int, ts) -> np.ndarray:
    """Values at the times ts, (n_draws, k, d), of the event paths from 0 of each owner."""
    q = np.atleast_1d(np.asarray(ts, dtype=float))
    out = np.empty((n_draws, q.size, increments.shape[1]))
    for j, t in enumerate(q):
        hit = times <= t
        for c in range(increments.shape[1]):
            out[:, j, c] = np.bincount(owner[hit], weights=increments[hit, c], minlength=n_draws)
    return out


def _as_increments(increments, n_events: int, default_dim: int) -> np.ndarray:
    incs = np.asarray(increments, dtype=float)
    if incs.ndim == 1:
        incs = incs[:, None]
    if incs.size == 0:
        incs = incs.reshape(0, incs.shape[1] if incs.ndim == 2 and incs.shape[1] else default_dim)
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
    "restricted_sheets",
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
    "JumpCountReport",
    "jump_count_law_check",
]


@dataclass(frozen=True)
class RectRegion:
    """Axis-aligned rectangle (0, x_max] x (0, y_max]."""

    x_max: float
    y_max: float

    def __post_init__(self):
        if not (np.isfinite(self.x_max) and np.isfinite(self.y_max)
                and self.x_max > 0 and self.y_max > 0):
            raise ValueError("rectangle sides must be finite and positive")

    @property
    def area(self) -> float:
        return self.x_max * self.y_max

    def sample(self, rng, size: int) -> np.ndarray:
        u = rng.uniform(0.0, self.x_max, size=size)
        v = rng.uniform(0.0, self.y_max, size=size)
        return np.column_stack([u, v])

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
        if not (np.isfinite(self.width) and np.isfinite(self.height)
                and self.width > 0 and self.height > 0):
            raise ValueError("triangle sides must be finite and positive")

    @property
    def area(self) -> float:
        return 0.5 * self.width * self.height

    def sample(self, rng, size: int) -> np.ndarray:
        u = rng.uniform(0.0, self.width, size=size)
        v = rng.uniform(0.0, self.height, size=size)
        above = u / self.width + v / self.height > 1.0
        u[above] = self.width - u[above]
        v[above] = self.height - v[above]
        return np.column_stack([u, v])

    def contains(self, locations: np.ndarray) -> np.ndarray:
        u, v = locations[:, 0], locations[:, 1]
        return (u > 0) & (v > 0) & (u / self.width + v / self.height <= 1.0 + 1e-12)

    def covers_path(self, path: DecreasingPath) -> bool:
        ts = np.linspace(path.t_lo, path.t_hi, 129)
        xs, ys = path.x(ts), path.y(ts)
        return bool(np.all(xs / self.width + ys / self.height <= 1.0 + 1e-9))

    def to_dict(self) -> dict:
        return {"shape": "triangle", "width": self.width, "height": self.height}


@dataclass(frozen=True)
class JumpField:
    """Finite set of sheet jumps: locations in the region, values in R^d."""

    region: RectRegion | TriangleRegion
    locations: np.ndarray  # (n, 2)
    jumps: np.ndarray  # (n, d)

    def __post_init__(self):
        locs = np.asarray(self.locations, dtype=float).reshape(-1, 2)
        js = np.atleast_2d(np.asarray(self.jumps, dtype=float))
        if js.shape[0] != locs.shape[0]:
            raise ValueError("locations and jumps must have matching lengths")
        if locs.size and not np.all(self.region.contains(locs)):
            raise ValueError("all jump locations must lie strictly inside the region")
        if js.size and np.any(np.all(js == 0.0, axis=1)):
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


@dataclass(frozen=True)
class EventPath:
    """Initial value plus time-stamped increments on [t_lo, t_hi].

    value(t) sums the initial value and every increment with time <= t.
    Events are stored stably sorted by time, so simultaneous events keep
    their insertion order.
    """

    t_lo: float
    t_hi: float
    times: np.ndarray  # (m,)
    increments: np.ndarray  # (m, d)
    initial: np.ndarray  # (d,)

    def __post_init__(self):
        ts = np.asarray(self.times, dtype=float)
        init = np.atleast_1d(np.asarray(self.initial, dtype=float))
        incs = _as_increments(self.increments, ts.size, init.size)
        if ts.size and (ts.min() < self.t_lo - 1e-12 or ts.max() > self.t_hi + 1e-12):
            raise ValueError("event times must lie within the domain")
        if ts.size and np.any(np.diff(ts) < 0):
            raise ValueError("event times must be nondecreasing; use from_events")
        object.__setattr__(self, "times", ts)
        object.__setattr__(self, "increments", incs)
        object.__setattr__(self, "initial", init)

    @classmethod
    def from_events(cls, times, increments, t_lo: float, t_hi: float,
                    initial=None) -> "EventPath":
        ts = np.asarray(times, dtype=float)
        incs = np.asarray(increments, dtype=float)
        if incs.ndim == 1:
            incs = incs[:, None]
        if initial is None:
            initial = np.zeros(incs.shape[1])
        order = np.argsort(ts, kind="stable")
        return cls(t_lo, t_hi, ts[order], incs[order], initial)

    @property
    def dim(self) -> int:
        return self.increments.shape[1]

    def values(self, ts) -> np.ndarray:
        """Path values at query times; output (k, d)."""
        q = np.atleast_1d(np.asarray(ts, dtype=float))
        cums = self.initial + np.cumsum(self.increments, axis=0) \
            if self.times.size else np.zeros((0, self.dim))
        idx = np.searchsorted(self.times, q, side="right")
        out = np.tile(self.initial, (q.size, 1))
        hit = idx > 0
        out[hit] = cums[idx[hit] - 1]
        return out

    def value(self, t: float) -> np.ndarray:
        return self.values([t])[0]

    def to_csv(self) -> str:
        header = "tau," + ",".join(f"dj{i + 1}" for i in range(self.dim))
        lines = [header]
        for t, row in zip(self.times, self.increments):
            lines.append(",".join([repr(float(t))] + [repr(float(v)) for v in row]))
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Sheet simulation and restriction
# ---------------------------------------------------------------------------

def simulate_cpp_sheets(rate: float, jump_dist, region, n_draws: int, rng) -> tuple[JumpField, np.ndarray]:
    """n_draws sheets as in `simulate_cpp_sheet`: one field of all their jumps, and each jump's draw."""
    if not (np.isfinite(rate) and rate >= 0):
        raise ValueError("rate must be finite and nonnegative")
    if not np.isfinite(region.area):
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
    unless v <= y(t_hi), in which case it stays for good.  Events are in
    jump order, each jump's entry before its exit.
    """
    if not field.region.covers_path(path):
        raise ValueError("field region does not cover the path's sweep")
    u, v = field.locations[:, 0], field.locations[:, 1]
    entry = path.first_time_x_at_least(u)
    exit_ = path.last_time_y_at_least(v)
    enters = entry <= exit_  # False where either is NaN
    keep = np.column_stack([enters, enters & (v > path.ends[3])]).ravel()
    incs = np.stack([field.jumps, -field.jumps], axis=1).reshape(-1, field.jumps.shape[1])
    return (np.repeat(np.arange(field.count), 2)[keep],
            np.column_stack([entry, exit_]).ravel()[keep], incs[keep])


def restrict_to_path(field: JumpField, path: DecreasingPath) -> EventPath:
    """Events of the sheet restricted to the path: value(t) = sheet((0,x(t)] x (0,y(t)])."""
    _, times, incs = _restrict_events(field, path)
    return EventPath.from_events(times, incs, path.t_lo, path.t_hi)


def restricted_sheets(rate: float, jump_dist, region, path: DecreasingPath, ts,
                      n_draws: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """n_draws sheets as in `simulate_cpp_sheets`, restricted to the path.

    Returns their values at the times ts, (n_draws, k, d), and per draw the
    count of events less that of jumps under the terminal rectangle, which
    enter and never leave: the events that come in cancelling pairs.
    """
    _, x_end, _, y_end = path.ends
    values, paired = [], []
    for size in _chunks(n_draws, rate * region.area):
        field, owner = simulate_cpp_sheets(rate, jump_dist, region, size, rng)
        jump, times, incs = _restrict_events(field, path)
        u, v = field.locations[:, 0], field.locations[:, 1]
        values.append(_batch_values(owner[jump], times, incs, size, ts))
        paired.append(np.bincount(owner[jump], minlength=size)
                      - np.bincount(owner[(u <= x_end) & (v <= y_end)], minlength=size))
    return np.concatenate(values), np.concatenate(paired)


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
    if np.any(u < 0) or np.any(v < 0) or np.any(u / (b * l) + v / c > 1.0 + 1e-12):
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
    return EventPath.from_events(times, jumps, t_lo, t_hi)


def rearranged_difference(y_events: EventPath, rng) -> tuple[EventPath, EventPath]:
    """Redraw the jump times uniformly, keep the jump values; return (y', y - y').

    The rearranged path has the same law as the original; their difference
    has the law of a symmetrized sheet restricted to the straight-line path.
    """
    m = y_events.times.size
    new_times = rng.uniform(y_events.t_lo, y_events.t_hi, size=m)
    y_prime = EventPath.from_events(new_times, y_events.increments.copy(),
                                    y_events.t_lo, y_events.t_hi,
                                    initial=y_events.initial)
    diff_times = np.concatenate([y_events.times, new_times])
    diff_incs = np.vstack([y_events.increments, -y_events.increments])
    z = EventPath.from_events(diff_times, diff_incs, y_events.t_lo, y_events.t_hi)
    return y_prime, z


def rearranged_pairs(rate: float, jump_dist, l: float, ts, n_draws: int,
                     rng) -> tuple[np.ndarray, np.ndarray]:
    """Values at the times ts, (n_draws, k, d) each, of Y ~ CPP(rate) on [0, l] and of
    Y' with Y's jump values at fresh uniform times (see `rearranged_difference`)."""
    ys, rearranged = [], []
    for size in _chunks(n_draws, 2.0 * rate * l):
        owner, times, jumps = _cpp_path_jumps(rate, jump_dist, 0.0, l, size, rng)
        new_times = rng.uniform(0.0, l, size=owner.size)
        ys.append(_batch_values(owner, times, jumps, size, ts))
        rearranged.append(_batch_values(owner, new_times, jumps, size, ts))
    return np.concatenate(ys), np.concatenate(rearranged)


@dataclass(frozen=True)
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
    default, or at the given grid times.
    """
    total = int(math.floor(n * l))
    if total < 1:
        raise ValueError("need n * l >= 1")
    mu2 = xi_dist.abs_second_moment
    if not mu2 > 0:
        raise ValueError("step distribution needs a positive second moment")
    if grid is None:
        idx = np.arange(1, total + 1)
    else:
        idx = np.clip(np.floor(n * np.atleast_1d(np.asarray(grid, dtype=float))).astype(int), 0, total)
    parts = []
    for size in _chunks(n_draws, total):
        steps = xi_dist.sample(rng, size * total)[:, 0].reshape(size, total)
        gap = np.zeros((size, total + 1))
        gap[:, 1:] = np.cumsum(steps, axis=1) - np.cumsum(rng.permuted(steps, axis=1), axis=1)
        parts.append(gap[:, idx])
    return np.concatenate(parts) / math.sqrt(2.0 * mu2 * n)


def random_walk_bridge(n: int, l: float, xi_dist, rng, grid=None) -> SamplePathGrid:
    """One draw of `random_walk_bridges` at the grid times, or at every step time k/n."""
    vals = random_walk_bridges(n, l, xi_dist, 1, rng, grid)[0]
    ts = np.arange(1, vals.size + 1) / n if grid is None else np.atleast_1d(np.asarray(grid, dtype=float))
    return SamplePathGrid(ts, vals)


def rw_bridge_cov(n: int, l: float, mu1: float, mu2: float, s: float, t: float) -> float:
    """Exact finite-n covariance of the permuted-walk difference at (s, t)."""
    if not mu2 > 0:
        raise ValueError("mu2 must be positive")
    total = int(math.floor(n * l))
    ks = int(math.floor(n * min(s, t)))
    kt = int(math.floor(n * max(s, t)))
    if total < 1:
        raise ValueError("need n * l >= 1")
    return (1.0 - mu1 ** 2 / mu2) * (ks / n) * (1.0 - kt / total)


# ---------------------------------------------------------------------------
# Jump-count law of the restricted process on a straight-line path
# ---------------------------------------------------------------------------

def swept_exit_area(path: LinearPath) -> float:
    """Area of the region whose jumps both enter and leave the restricted path."""
    lo, hi = path.t_lo, path.t_hi
    return path.d * (path.a * (hi - lo) + 0.5 * path.b * (hi ** 2 - lo ** 2))


@dataclass(frozen=True)
class JumpCountReport:
    n_sims: int
    expected_half_rate: float
    all_even: bool
    mean_half_count: float
    chi2_statistic: float
    chi2_critical: float  # the statistic's value at the test's p-value threshold
    chi2_pvalue: float


def jump_count_law_check(path: LinearPath, sheet_rate: float, n_sims: int,
                         rng, jump_dist=None, p_threshold: float = 1e-3) -> JumpCountReport:
    """Check the paired-event count law of the restricted process.

    Events excluding never-exiting jumps always come in cancelling pairs, and
    the pair counts are Poisson with mean sheet_rate times the swept area.
    """
    from .exponent import TwoPoint
    from .verify import chi2_counts  # deferred: verify is a consumer of this module's outputs

    if not isinstance(path, LinearPath):
        raise TypeError("the jump-count law check applies to straight-line paths")
    dist = TwoPoint(np.array([1.0])) if jump_dist is None else jump_dist
    area = swept_exit_area(path)
    if area == 0.0:
        raise ValueError("no jump leaves a horizontal path: its swept exit area is 0")
    p = sheet_rate * area
    _, x_end, y_start, _ = path.ends
    region = RectRegion(x_end, y_start)
    _, paired = restricted_sheets(sheet_rate, dist, region, path, [], n_sims, rng)
    halves = paired // 2
    chi2 = chi2_counts(
        halves,
        lambda k: math.exp(-p) * p ** k / math.factorial(k),
        name="jump-count-poisson",
        p_threshold=p_threshold,
    )
    all_even = bool(np.all(paired % 2 == 0))
    return JumpCountReport(
        n_sims=n_sims,
        expected_half_rate=p,
        all_even=all_even,
        mean_half_count=float(halves.mean()),
        chi2_statistic=chi2.statistic,
        chi2_critical=chi2.threshold,
        chi2_pvalue=chi2.extra["pvalue"],
    )
