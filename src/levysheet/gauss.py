"""Brownian sheet along a decreasing path: the tractable Gaussian case.

The restricted process is centered Gaussian with covariance
x(s ^ t) y(s v t) per component.  It equals in law each of

    y(t) B_{x(t)/y(t)}
    x(t) B_{y(t)/x(t)}
    (x+y)(t) B_{x/(x+y)}(t) - x(t) B_1
    (x+y)(t) B_{y/(x+y)}(t) - y(t) B_1

for a standard Brownian motion B, which gives exact-in-law simulation on any
grid with no discretization error.  The sampler uses the first: an O(n)
recursion with independent Gaussian increments in the ratio time x/y.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .fdd import _as_z_matrix
from .paths import DecreasingPath, PathTag, classify

__all__ = [
    "GaussPathLaw",
    "SamplePathGrid",
    "covariance",
    "covariance_matrix",
    "gaussian_joint_cf",
    "simulate_paths",
    "transition_density",
    "zero_prob_conditional",
    "zero_prob",
    "zero_crossing_frequency",
    "identify_bridge",
    "identify_ou",
]

# Items (normals, jump events or walk steps) per block of a batched draw; 2^19
# normals are 4 MB of float64.  A call is cut into blocks of whole draws by its
# shape alone, so its bytes do not depend on how many cores draw them.
_BLOCK_NORMALS = 1 << 19

# The process-wide pool that draws the blocks of large calls, made on first
# use (importing concurrent.futures costs ~12 ms), with the pid that made it:
# a forked child must not reuse its parent's pool, whose threads it lacks.
_POOL = None
_POOL_LOCK = threading.Lock()


@dataclass(frozen=True)
class GaussPathLaw:
    """Law of a standard Brownian sheet restricted to a decreasing path."""

    path: DecreasingPath
    dim: int = 1

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")


@dataclass(frozen=True, eq=False)
class SamplePathGrid:
    """Sample values on a strictly increasing time grid; values are (n, d)."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        ts = np.asarray(self.times, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        vals = vals[:, None] if vals.ndim == 1 else vals
        if ts.ndim != 1 or vals.shape[0] != ts.size:
            raise ValueError("values must have one row per grid time")
        if np.count_nonzero(np.isfinite(ts)) + np.count_nonzero(ts[1:] > ts[:-1]) < 2 * ts.size - 1:
            raise ValueError("grid times must be finite and strictly increasing")
        if np.count_nonzero(np.isfinite(vals)) < vals.size:
            raise ValueError("sample values must be finite")
        object.__setattr__(self, "times", ts)
        object.__setattr__(self, "values", vals)

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def to_csv(self) -> str:
        return _csv("t", "v", self.times, self.values)


def _csv(time_name: str, value_name: str, times, rows) -> str:
    """CSV of a time column and (m, d) value rows, headed time_name,value_name1..d;
    each float is written by repr."""
    lines = [f"{time_name}," + ",".join(f"{value_name}{i + 1}" for i in range(rows.shape[1]))]
    for t, row in zip(times, rows):
        lines.append(",".join([repr(float(t))] + [repr(float(v)) for v in row]))
    return "\n".join(lines) + "\n"


def covariance(law: GaussPathLaw, s: float, t: float) -> float:
    """Per-component covariance x(min(s,t)) * y(max(s,t))."""
    return float(covariance_matrix(law, [s, t])[0, 1])


def covariance_matrix(law: GaussPathLaw, times) -> np.ndarray:
    """Per-component covariance matrix over the (sorted) time set."""
    ts = np.sort(np.atleast_1d(np.asarray(times, dtype=float)))
    xs, ys = law.path.eval(ts)
    xs, ys = np.atleast_1d(xs), np.atleast_1d(ys)
    idx = np.arange(ts.size)
    lo = np.minimum.outer(idx, idx)
    hi = np.maximum.outer(idx, idx)
    return xs[lo] * ys[hi]


def gaussian_joint_cf(law: GaussPathLaw, times, zs) -> complex:
    """Joint characteristic function from the Gaussian quadratic form."""
    ts, _, _ = law.path.grid(times)
    z = _as_z_matrix(zs, ts.size, law.dim)
    quad = float(np.sum(covariance_matrix(law, ts) * (z @ z.T)))
    return complex(math.exp(-0.5 * quad))


def simulate_paths(law: GaussPathLaw, grid, rng, n_paths: int = 1) -> np.ndarray:
    """Exact-in-law samples on the grid; returns an (n_paths, n, dim) view of the
    (dim, n_paths, n) buffer they are drawn into, so that d > 1 copies nothing.

    Each component is y(t) B_{r(t)} for a standard BM B in the ratio time
    r = x/y, drawn as the cumulative sum of independent N(0, diff(r))
    increments, n normals per component.  Values are exactly +0.0 wherever
    x(t) y(t) = 0.

    The dim * n_paths rows are drawn in blocks of whole rows, about
    _BLOCK_NORMALS normals each, on every usable core.  A call of one block
    draws from `rng` itself; in a larger call block b draws from the b-th of
    `rng.spawn(blocks)`.  The blocks depend only on (dim, n_paths, n), so the
    same `rng` state gives the same bytes on any number of cores.
    """
    _, ys, std, dead = _ratio_time(law, grid)
    vals = np.empty((law.dim, n_paths, ys.size))
    rows = vals.reshape(law.dim * n_paths, ys.size)
    _run_blocks(rows.shape[0], ys.size, rng,
                lambda lo, hi, gen: _draw_block(rows[lo:hi], gen, std, ys, dead))
    return np.moveaxis(vals, 0, -1)


def _ratio_time(law: GaussPathLaw, grid):
    """(x, y, std, dead) on a checked grid: the path's values, the standard
    deviation of each ratio-time increment, and where x y = 0."""
    _, xs, ys = law.path.grid(grid)
    dead = xs * ys == 0.0
    # y is nonincreasing, so y = 0 only on a final stretch of the grid; r = 0
    # there makes its increments negative, which the clamp below turns into
    # zero-variance steps, as if each point repeated the last live ratio time.
    ratio = np.divide(xs, ys, out=np.zeros_like(xs), where=ys > 0)
    if np.any(np.diff(ratio[~dead]) < -1e-12):
        raise ValueError("x/y must be nondecreasing along the grid")
    std = np.sqrt(np.maximum(np.diff(ratio, prepend=0.0), 0.0))
    return xs, ys, std, dead


def _run_blocks(n_draws: int, per_draw: float, rng, task) -> list:
    """task(lo, hi, gen) on each block of draws [lo, hi) of n_draws draws of
    about per_draw items each (normals, events, walk steps, or the bins of a
    draw's row in a jump sampler's slot table where those are more), on every
    usable core; the results in block order.

    A block holds about _BLOCK_NORMALS items.  One block draws from `rng`
    itself, more draw from `rng.spawn(blocks)`, one child each.  Tasks run on
    pool threads: they must not call simulate_paths, which submits to the
    same pool, and the caller's np.errstate does not reach them.
    """
    if n_draws < 1:
        raise ValueError("n_draws must be positive")
    step = max(1, int(_BLOCK_NORMALS // max(per_draw, 1)))
    if n_draws <= step:
        return [task(0, n_draws, rng)]
    starts = range(0, n_draws, step)
    blocks = [(lo, min(lo + step, n_draws), gen) for lo, gen in zip(starts, rng.spawn(len(starts)))]
    pool = _pool()
    if pool is None:
        return [task(*block) for block in blocks]
    return [done.result() for done in [pool.submit(task, *block) for block in blocks]]


def _draw_block(rows, gen, std, ys, dead):
    """Draw the ratio-time recursion in place on a contiguous (k, n) row block."""
    gen.standard_normal(out=rows)
    rows *= std
    np.cumsum(rows, axis=1, out=rows)
    rows *= ys
    rows[:, dead] = 0.0


def _pool():
    """The process-wide block pool, or None when one core is usable."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None or _POOL[0] != os.getpid():
            cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                     else os.cpu_count() or 1)
            if cores > 1:
                from concurrent.futures import ThreadPoolExecutor

                _POOL = (os.getpid(), ThreadPoolExecutor(cores, "levysheet-gauss"))
            else:
                _POOL = (os.getpid(), None)
        return _POOL[1]


def transition_density(law: GaussPathLaw, s: float, t: float,
                       value_from: float, value_to: float) -> float:
    """Transition density of the real-valued restricted sheet.

    Gaussian with mean (y(t)/y(s)) * value_from and variance
    y(t) [x(t) - (y(t)/y(s)) x(s)].  When the law degenerates (zero
    variance) the returned value is the pointwise limit: infinity on the
    atom, zero elsewhere.
    """
    if law.dim != 1:
        raise ValueError("transition density is defined for dim=1 only")
    _, (xs, xt), (ys, yt) = law.path.grid([s, t])
    if ys <= 0:
        raise ValueError("conditioning time must have y(s) > 0")
    if yt == 0.0:
        return math.inf if value_to == 0.0 else 0.0
    mean = (yt / ys) * value_from
    var = yt * (xt - (yt / ys) * xs)
    if var < -1e-12 * max(1.0, abs(yt * xt)):
        raise ValueError("invalid path data: negative conditional variance")
    if var <= 0.0:
        return math.inf if value_to == mean else 0.0
    return math.exp(-0.5 * (value_to - mean) ** 2 / var) / math.sqrt(2.0 * math.pi * var)


def zero_prob_conditional(law: GaussPathLaw, s: float, t: float, z: float) -> float:
    """P(at least one zero in (s, t) | value z at time s), z != 0.

    Equals the BM first-passage probability over the ratio-time gap,
    2 (1 - Phi(|z/y(s)| / sqrt(r(t) - r(s)))).  When y(t) = 0 the process is
    pinned to zero at t and the value is the r(t) -> infinity limit, 1.
    """
    if law.dim != 1:
        raise ValueError("zero-crossing probabilities are defined for dim=1 only")
    if not (math.isfinite(z) and z != 0.0):
        raise ValueError("conditioning value must be finite and nonzero")
    _, (xs, xt), (ys, yt) = law.path.grid([s, t])
    if yt <= 0.0:  # y(s) >= y(t) > 0 below, as y is nonincreasing
        return 1.0
    gap = xt / yt - xs / ys
    if gap < 0:
        raise ValueError("x/y must be nondecreasing")
    if gap == 0.0:
        return 0.0
    a = abs(z / ys) / math.sqrt(gap)
    return math.erfc(a / math.sqrt(2.0))


def zero_prob(law: GaussPathLaw, s: float, t: float) -> float:
    """Unconditional P(at least one zero in (s, t)): (2/pi) arccos sqrt(r(s)/r(t)),
    for path times s < t, and 0 for s = t.

    When y(t) = 0 the process is pinned to zero at t and the value is the
    r(t) -> infinity limit, 1.
    """
    if law.dim != 1:
        raise ValueError("zero-crossing probabilities are defined for dim=1 only")
    if s == t:
        law.path.grid([s])  # raises outside the domain
        return 0.0
    _, (xs, xt), (ys, yt) = law.path.grid([s, t])
    if yt <= 0.0:  # y(s) >= y(t) > 0 below, as y is nonincreasing
        return 1.0
    rs, rt = xs / ys, xt / yt
    if rt <= 0:
        raise ValueError("zero_prob requires x(t) > 0")
    ratio = min(max(rs / rt, 0.0), 1.0)
    return (2.0 / math.pi) * math.acos(math.sqrt(ratio))


def zero_crossing_frequency(law: GaussPathLaw, s: float, t: float, n_paths: int,
                            grid_points: int, rng) -> float:
    """Monte Carlo estimate of zero_prob(law, s, t) from n_paths exact draws on
    the even grid of grid_points times over [s, t], with no grid bias.

    Between neighbouring grid values the ratio-time BM b = X/y is a Brownian
    bridge, which has a zero with probability p_i = 1 at a sign change and
    p_i = exp(-2 b_i b_{i+1} / (r_{i+1} - r_i)) otherwise; in X that is
    exp(-2 X_i X_{i+1} / (x_{i+1} y_i - x_i y_{i+1})).  The estimate averages
    each path's chance of a zero, 1 - prod_i (1 - p_i).

    The draws are those of simulate_paths(law, linspace(s, t, grid_points),
    rng, n_paths), and each sampler block is reduced on the thread that drew
    it, so no more than one block per core is held.
    """
    if law.dim != 1:
        raise ValueError("zero-crossing probabilities are defined for dim=1 only")
    if grid_points < 2:
        raise ValueError("grid_points must be at least 2")
    xs, ys, std, dead = _ratio_time(law, np.linspace(s, t, grid_points))
    gap = xs[1:] * ys[:-1] - xs[:-1] * ys[1:]  # y_i y_{i+1} (r_{i+1} - r_i)

    def chances(lo, hi, gen):
        vals = np.empty((hi - lo, grid_points))
        _draw_block(vals, gen, std, ys, dead)
        prod = vals[:, 1:] * vals[:, :-1]
        # Elsewhere 2 X_i X_{i+1} / gap >= 40, and 1 - p_i rounds to 1.
        near = np.flatnonzero(prod < 20.0 * gap)
        rows, cols = np.divmod(near, gap.size)
        with np.errstate(divide="ignore"):
            log_stay = np.log(-np.expm1(-2.0 * np.maximum(prod.ravel()[near], 0.0) / gap[cols]))
        return float(np.sum(-np.expm1(np.bincount(rows, weights=log_stay, minlength=hi - lo))))

    return sum(_run_blocks(n_paths, grid_points, rng, chances)) / n_paths


# ---------------------------------------------------------------------------
# Named-law identification
# ---------------------------------------------------------------------------

def identify_bridge(path: DecreasingPath, tol: float = 1e-9):
    """(l, p) if the path is (p t, (1 - t/l)/p) on [0, l]; None otherwise."""
    cls = classify(path, tol)
    if cls.tag is not PathTag.LINEAR:
        return None
    a, b, c, d = (cls.params[k] for k in "abcd")
    l = c / d
    ok = (
        abs(a) <= tol * max(1.0, b)
        and abs(path.t_lo) <= tol * max(1.0, l)
        and abs(path.t_hi - l) <= tol * max(1.0, l)
        and abs(b * c - 1.0) <= tol
    )
    return (l, b) if ok else None


def identify_ou(path: DecreasingPath, tol: float = 1e-9):
    """(a, b, c) if the path is (a e^{ct}, b e^{-ct}); the stationary variance is ab."""
    cls = classify(path, tol)
    if cls.tag is not PathTag.EXPONENTIAL:
        return None
    return cls.params["a"], cls.params["b"], cls.params["c"]
