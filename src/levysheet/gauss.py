"""Brownian sheet along a decreasing path: the tractable Gaussian case.

The restricted process is centered Gaussian with covariance
x(s ^ t) y(s v t) per component.  It equals in law each of

    y(t) B_{x(t)/y(t)}                      ("bm_ratio")
    x(t) B_{y(t)/x(t)}                      ("bm_ratio_swapped")
    (x+y)(t) B_{x/(x+y)}(t) - x(t) B_1      ("bm_pinned")
    (x+y)(t) B_{y/(x+y)}(t) - y(t) B_1      ("bm_pinned_swapped")

for a standard Brownian motion B, which gives exact-in-law simulation on any
grid with no discretization error.  The ratio form is an O(n) recursion with
independent Gaussian increments; the pinned forms keep BM time in [0, 1] and
cover paths whose y vanishes at the right endpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .paths import (
    DecreasingPath,
    ExponentialPath,
    LinearPath,
    TabulatedPath,
    _fit_affine,
    _fit_exponential,
)

__all__ = [
    "GaussPathLaw",
    "SamplePathGrid",
    "covariance",
    "covariance_matrix",
    "gaussian_joint_cf",
    "simulate",
    "simulate_paths",
    "transition_density",
    "zero_prob_conditional",
    "zero_prob",
    "zero_crossing_frequency",
    "identify_bridge",
    "identify_ou",
]

REPRESENTATIONS = ("auto", "bm_ratio", "bm_ratio_swapped", "bm_pinned", "bm_pinned_swapped")
# Paths per simulate_paths call in zero_crossing_frequency: at 10^4 grid
# points a batch's arrays stay near 20 MB, which the allocator reuses rather
# than mapping fresh pages for each batch.
_CROSSING_BATCH = 250


@dataclass(frozen=True)
class GaussPathLaw:
    """Law of a standard Brownian sheet restricted to a decreasing path."""

    path: DecreasingPath
    dim: int = 1

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")

    def ratio(self, t):
        """r(t) = x(t)/y(t), defined where y(t) > 0."""
        xv, yv = np.asarray(self.path.x(t), dtype=float), np.asarray(self.path.y(t), dtype=float)
        if np.any(yv <= 0):
            raise ValueError("ratio requires y(t) > 0")
        out = xv / yv
        return float(out) if np.ndim(t) == 0 else out


@dataclass(frozen=True)
class SamplePathGrid:
    """Sample values on a strictly increasing time grid; values are (n, d)."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        ts = np.asarray(self.times, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim == 1:
            vals = vals[:, None]
        if ts.ndim != 1 or vals.shape[0] != ts.size:
            raise ValueError("values must have one row per grid time")
        if np.any(np.diff(ts) <= 0):
            raise ValueError("grid times must be strictly increasing")
        if not np.all(np.isfinite(vals)):
            raise ValueError("sample values must be finite")
        object.__setattr__(self, "times", ts)
        object.__setattr__(self, "values", vals)

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def to_csv(self) -> str:
        header = "t," + ",".join(f"v{i + 1}" for i in range(self.dim))
        lines = [header]
        for t, row in zip(self.times, self.values):
            lines.append(",".join([repr(float(t))] + [repr(float(v)) for v in row]))
        return "\n".join(lines) + "\n"


def covariance(law: GaussPathLaw, s: float, t: float) -> float:
    """Per-component covariance x(min(s,t)) * y(max(s,t))."""
    lo, hi = (s, t) if s <= t else (t, s)
    x_lo, _ = law.path.eval(lo)
    _, y_hi = law.path.eval(hi)
    return float(x_lo) * float(y_hi)


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
    ts = np.atleast_1d(np.asarray(times, dtype=float))
    if np.any(np.diff(ts) <= 0):
        raise ValueError("times must be strictly increasing")
    xs, ys = law.path.eval(ts)
    xs, ys = np.atleast_1d(xs), np.atleast_1d(ys)
    z = np.asarray(zs, dtype=float)
    if z.ndim == 0:
        z = z.reshape(1, 1)
    elif z.ndim == 1:
        z = z.reshape(ts.size, 1) if law.dim == 1 else z.reshape(1, law.dim)
    if z.shape != (ts.size, law.dim):
        raise ValueError(f"zs must have shape ({ts.size}, {law.dim})")
    quad = float(np.sum(xs * ys * np.sum(z * z, axis=1)))
    for i in range(ts.size - 1):
        cross = z[i + 1:] @ z[i]
        quad += 2.0 * float(np.sum(xs[i] * ys[i + 1:] * cross))
    return complex(math.exp(-0.5 * quad))


def _bm_at(times: np.ndarray, rng, n_paths: int) -> np.ndarray:
    """Standard BM sampled at arbitrary nonnegative times; output (n_paths, m)."""
    presorted = bool(np.all(np.diff(times) >= 0))
    order = None if presorted else np.argsort(times, kind="stable")
    sorted_times = times if presorted else times[order]
    if sorted_times.size and sorted_times[0] < 0:
        raise ValueError("BM times must be nonnegative")
    std = np.sqrt(np.diff(np.concatenate([[0.0], sorted_times])))
    vals = rng.standard_normal((n_paths, sorted_times.size))
    vals *= std
    np.cumsum(vals, axis=1, out=vals)
    if order is None:
        return vals
    out = np.empty_like(vals)
    out[:, order] = vals
    return out


def simulate_paths(law: GaussPathLaw, grid, rng, n_paths: int = 1,
                   representation: str = "auto") -> np.ndarray:
    """Exact-in-law samples on the grid; returns an (n_paths, n, dim) array.

    Values are exactly zero wherever x(t) y(t) = 0.  The default picks the
    O(n) ratio recursion and falls back to the pinned form when y vanishes at
    the right end of the grid.
    """
    if representation not in REPRESENTATIONS:
        raise ValueError(f"representation must be one of {REPRESENTATIONS}")
    ts = np.atleast_1d(np.asarray(grid, dtype=float))
    if np.any(np.diff(ts) <= 0):
        raise ValueError("grid times must be strictly increasing")
    xs, ys = law.path.eval(ts)
    xs, ys = np.atleast_1d(np.asarray(xs, float)), np.atleast_1d(np.asarray(ys, float))
    dead = xs * ys == 0.0
    if representation == "auto":
        representation = "bm_pinned" if ys[-1] == 0.0 else "bm_ratio"

    if representation == "bm_ratio":
        bm_times = np.where(ys > 0, xs / np.where(ys > 0, ys, 1.0), 0.0)
        live = ~dead
        if np.any(np.diff(bm_times[live]) < -1e-12):
            raise ValueError("x/y must be nondecreasing along the grid")
        coef, offset_coef = ys, None
    elif representation == "bm_ratio_swapped":
        bm_times = np.where(xs > 0, ys / np.where(xs > 0, xs, 1.0), 0.0)
        coef, offset_coef = xs, None
    elif representation == "bm_pinned":
        tot = xs + ys
        bm_times = np.where(tot > 0, xs / np.where(tot > 0, tot, 1.0), 0.0)
        coef, offset_coef = tot, xs
    else:  # bm_pinned_swapped
        tot = xs + ys
        bm_times = np.where(tot > 0, ys / np.where(tot > 0, tot, 1.0), 0.0)
        coef, offset_coef = tot, ys

    need_unit = offset_coef is not None
    all_times = np.concatenate([bm_times, [1.0]]) if need_unit else bm_times
    comps = []
    for _ in range(law.dim):
        bm = _bm_at(all_times, rng, n_paths)
        if need_unit:
            vals = coef * bm[:, :-1]
            vals -= offset_coef * bm[:, -1][:, None]
        else:
            bm *= coef
            vals = bm
        if np.any(dead):
            vals[:, dead] = 0.0
        comps.append(vals)
    if law.dim == 1:
        return comps[0][:, :, None]
    return np.stack(comps, axis=-1)


def simulate(law: GaussPathLaw, grid, rng, representation: str = "auto") -> SamplePathGrid:
    """One exact draw of the restricted sheet on the grid."""
    vals = simulate_paths(law, grid, rng, n_paths=1, representation=representation)
    return SamplePathGrid(np.atleast_1d(np.asarray(grid, dtype=float)), vals[0])


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
    if not s < t:
        raise ValueError("transition needs s < t")
    xs, ys = law.path.eval(s)
    xt, yt = law.path.eval(t)
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
    2 (1 - Phi(|z/y(s)| / sqrt(r(t) - r(s)))).
    """
    if law.dim != 1:
        raise ValueError("zero-crossing probabilities are defined for dim=1 only")
    if z == 0.0:
        raise ValueError("conditioning value must be nonzero")
    if not s < t:
        raise ValueError("needs s < t")
    gap = law.ratio(t) - law.ratio(s)
    if gap < 0:
        raise ValueError("x/y must be nondecreasing")
    if gap == 0.0:
        return 0.0
    _, ys = law.path.eval(s)
    a = abs(z / ys) / math.sqrt(gap)
    return math.erfc(a / math.sqrt(2.0))


def zero_prob(law: GaussPathLaw, s: float, t: float) -> float:
    """Unconditional P(at least one zero in (s, t)): (2/pi) arccos sqrt(r(s)/r(t)).

    When y(t) = 0 the process is pinned to zero at t and the value is the
    r(t) -> infinity limit, 1.
    """
    if law.dim != 1:
        raise ValueError("zero-crossing probabilities are defined for dim=1 only")
    if t < s:
        raise ValueError("needs s <= t")
    if s == t:
        return 0.0
    if float(law.path.y(t)) == 0.0:
        return 1.0
    rs, rt = law.ratio(s), law.ratio(t)
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
    """
    if n_paths < 1:
        raise ValueError("n_paths must be positive")
    grid = np.linspace(s, t, grid_points)
    xs, ys = law.path.x(grid), law.path.y(grid)
    gap = xs[1:] * ys[:-1] - xs[:-1] * ys[1:]  # y_i y_{i+1} (r_{i+1} - r_i)
    total = 0.0
    for done in range(0, n_paths, _CROSSING_BATCH):
        take = min(_CROSSING_BATCH, n_paths - done)
        vals = simulate_paths(law, grid, rng, n_paths=take)[:, :, 0]
        prod = vals[:, 1:] * vals[:, :-1]
        # Elsewhere 2 X_i X_{i+1} / gap >= 40, and 1 - p_i rounds to 1.
        near = np.flatnonzero(prod < 20.0 * gap)
        rows, cols = np.divmod(near, gap.size)
        with np.errstate(divide="ignore"):
            log_stay = np.log(-np.expm1(-2.0 * np.maximum(prod.ravel()[near], 0.0) / gap[cols]))
        total += float(np.sum(-np.expm1(np.bincount(rows, weights=log_stay, minlength=take))))
    return total / n_paths


# ---------------------------------------------------------------------------
# Named-law identification
# ---------------------------------------------------------------------------

def identify_bridge(path: DecreasingPath, tol: float = 1e-9):
    """(l, p) if the path is (p t, (1 - t/l)/p) on [0, l]; None otherwise."""
    if isinstance(path, LinearPath):
        p = path.b
        l = path.c / path.d
        ok = (
            abs(path.a) <= tol * max(1.0, p)
            and abs(path.t_lo) <= tol * max(1.0, l)
            and abs(path.t_hi - l) <= tol * max(1.0, l)
            and abs(path.b * path.c - 1.0) <= tol
        )
        return (l, p) if ok else None
    if isinstance(path, TabulatedPath):
        ts, xs, ys = path.times, path.xs, path.ys
        if abs(ts[0]) > tol:
            return None
        denom = float(np.dot(ts, ts))
        if denom == 0.0:
            return None
        p = float(np.dot(ts, xs) / denom)
        if p <= 0:
            return None
        w = ys * p  # should be 1 - t/l
        _, slope, _ = _fit_affine(ts, w)
        if slope >= 0:
            return None
        l = -1.0 / slope
        resid = max(
            float(np.max(np.abs(xs - p * ts))),
            float(np.max(np.abs(w - (1.0 - ts / l)))),
        )
        scale = max(1.0, float(np.max(np.abs(xs))))
        if resid > tol * scale or abs(ts[-1] - l) > tol * max(1.0, l):
            return None
        return (l, p)
    return None


def identify_ou(path: DecreasingPath, tol: float = 1e-9):
    """(a, b, c) if the path is (a e^{ct}, b e^{-ct}); the stationary variance is ab."""
    if isinstance(path, ExponentialPath):
        return (path.a, path.b, path.c)
    if isinstance(path, TabulatedPath):
        fit = _fit_exponential(path.times, path.xs, path.ys)
        if fit is None or fit[3] > tol:
            return None
        return fit[:3]
    return None
