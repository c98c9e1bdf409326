"""Finite-dimensional characteristic functions of a sheet along a path.

For ordered times t_1 < ... < t_n on a decreasing path, the quadrant below
the path decomposes into disjoint rectangles

    B_ij = (x(t_{i-1}), x(t_i)] x (y(t_{i+j}), y(t_{i+j-1})],
    i = 1..n, j = 1..n-i+1,   with x(t_0) = y(t_{n+1}) = 0,

and the joint characteristic function of the restricted process is

    exp[ sum_ij m(B_ij) psi(z_i + ... + z_{i+j-1}) ].

`joint_cf` forms only these n(n+1)/2 cells, their areas as products of side
lengths and their sums of z as differences of prefix sums, and evaluates psi
on all of them as one batch: O(n^2) array work, no Python loop over cells.

Single increments only involve the lower rectangle (x(s), x(t)] x (0, y(t)]
and the upper rectangle (0, x(s)] x (y(t), y(s)].
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .exponent import LevyTriplet, eval_psi, is_symmetric
from .paths import DecreasingPath, PathClass, PathTag

__all__ = [
    "RectangleGrid",
    "lower_area",
    "upper_area",
    "joint_cf",
    "increment_cf",
    "stationary_increment_cf",
    "conditional_mean",
]


@dataclass(frozen=True)
class RectangleGrid:
    """Rectangle areas under a path at ordered times.

    `areas[i, j]` holds m(B_{i+1, j+1}) in the 1-based convention above;
    entries with j >= n - i are identically zero padding.
    """

    times: np.ndarray
    x: np.ndarray
    y: np.ndarray
    areas: np.ndarray

    @classmethod
    def from_path(cls, path: DecreasingPath, times) -> "RectangleGrid":
        ts, xs, ys, first, last, area = _cells(path, times)
        areas = np.zeros((ts.size, ts.size))
        areas[first, last - first] = area
        return cls(ts, xs, ys, areas)

    @property
    def n(self) -> int:
        return self.times.size

    def covered_area(self, k: int) -> float:
        """Total area of the rectangles composing the value at times[k]."""
        i, j = np.indices(self.areas.shape)
        return float(self.areas[(i <= k) & (i + j >= k)].sum())


def _cells(path: DecreasingPath, times):
    """Times, path values and the cells (first, last, area) under the path, row
    by row: B_ij covers z_first .. z_last (0-based, first = i - 1, last = i + j - 2)."""
    ts = np.atleast_1d(np.asarray(times, dtype=float))
    if ts.ndim != 1 or ts.size == 0:
        raise ValueError("times must be a nonempty 1-d array")
    if (ts[1:] <= ts[:-1]).any():
        raise ValueError("times must be strictly increasing")
    xs, ys = path.eval(ts)
    dx, dy = xs - np.concatenate(([0.0], xs[:-1])), ys - np.concatenate((ys[1:], [0.0]))
    n = ts.size
    rows = np.arange(n)
    first = np.repeat(rows, n - rows)
    start = rows * n - rows * (rows - 1) // 2  # where row i's first cell, (i, i), sits
    last = np.arange(first.size) - (start - rows)[first]
    return ts, xs, ys, first, last, dx[first] * dy[last]


def lower_area(path: DecreasingPath, s: float, t: float) -> float:
    """m of the lower increment rectangle (x(s), x(t)] x (0, y(t)]."""
    return float((path.x(t) - path.x(s)) * path.y(t))


def upper_area(path: DecreasingPath, s: float, t: float) -> float:
    """m of the upper increment rectangle (0, x(s)] x (y(t), y(s)]."""
    return float(path.x(s) * (path.y(s) - path.y(t)))


def _as_z_matrix(zs, n: int, dim: int) -> np.ndarray:
    arr = np.asarray(zs, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(n, 1) if dim == 1 else arr.reshape(1, dim)
    if arr.shape != (n, dim):
        raise ValueError(f"zs must have shape ({n}, {dim}), got {arr.shape}")
    return arr


def joint_cf(triplet: LevyTriplet, path: DecreasingPath, times, zs) -> complex:
    """Joint characteristic function of the path values at the given times.

    One psi call on the sums z_i + ... + z_k of the rectangles of nonzero
    area, O(n^2) in the number of times n.
    """
    ts, _, _, first, last, areas = _cells(path, times)
    z = _as_z_matrix(zs, ts.size, triplet.dim)
    prefix = np.concatenate([np.zeros((triplet.dim, 1)), z.T.cumsum(axis=1)], axis=1)
    keep = areas != 0.0
    sums = prefix[:, last[keep] + 1] - prefix[:, first[keep]]
    return cmath.exp(complex((areas[keep] * eval_psi(triplet, sums.T)).sum()))


def increment_cf(triplet: LevyTriplet, path: DecreasingPath,
                 s: float, t: float, z) -> complex:
    """Characteristic function of the increment between path times s < t."""
    if not s < t:
        raise ValueError("increment needs s < t")
    zz = np.atleast_1d(np.asarray(z, dtype=float))
    (x_s, x_t), (y_s, y_t) = path.eval(np.array([s, t]))
    psi = eval_psi(triplet, np.stack([zz, -zz]))
    # lower rectangle (x(s), x(t)] x (0, y(t)], upper (0, x(s)] x (y(t), y(s)]
    return cmath.exp((x_t - x_s) * y_t * psi[0] + x_s * (y_s - y_t) * psi[1])


def stationary_increment_cf(triplet: LevyTriplet, cls: PathClass,
                            u: float, z) -> complex:
    """Increment characteristic function exp[phi(u) * ...] for a stationary class.

    Symmetric laws admit all four families; non-symmetric laws only the
    single-leg family (with the sign of z fixed by the leg orientation) and
    the exponential family (which averages psi(z) and psi(-z)).
    """
    if cls.tag is PathTag.NON_STATIONARY:
        raise ValueError("path class has no stationary increments")
    ph = cls.phi(u)
    zz = np.atleast_1d(np.asarray(z, dtype=float))
    if is_symmetric(triplet) or cls.tag is PathTag.HORIZONTAL:
        return cmath.exp(ph * eval_psi(triplet, zz))
    if cls.tag is PathTag.EXPONENTIAL:
        psi = eval_psi(triplet, np.stack([zz, -zz]))
        return cmath.exp(ph * (0.5 * (psi[0] + psi[1])))
    if cls.tag is PathTag.VERTICAL:
        return cmath.exp(ph * eval_psi(triplet, -zz))
    raise ValueError(
        f"a non-symmetric law has no stationary increments on a {cls.tag.value} path"
    )


def conditional_mean(mean11: float, path: DecreasingPath,
                     s: float, t: float, x_s: float) -> float:
    """E[value at t | value at s = x_s] for an integrable real-valued sheet."""
    if not s < t:
        raise ValueError("conditioning needs s < t")
    xs, ys = path.eval(s)
    xt, yt = path.eval(t)
    if ys == 0.0:
        raise ValueError("conditioning time must have y(s) > 0")
    return (yt / ys) * x_s + (xt - xs) * yt * mean11
