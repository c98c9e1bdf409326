"""Finite-dimensional characteristic functions of a sheet along a path.

For ordered times t_1 < ... < t_n on a decreasing path, the quadrant below
the path decomposes into disjoint rectangles

    B_ik = (x(t_{i-1}), x(t_i)] x (y(t_{k+1}), y(t_k)],   1 <= i <= k <= n,
    with x(t_0) = y(t_{n+1}) = 0,

and the joint characteristic function of the restricted process is

    exp[ sum_{i<=k} m(B_ik) psi(z_i + ... + z_k) ].

Each area is one x-side times one y-side, dx_i dy_k, and each argument a
difference of prefix sums, P_k - P_{i-1}, so the sum separates for every part
of psi built from characters, and `joint_cf` sums it in O(n) array passes: the
drift as i gamma_0 . sum_l x_l y_l z_l, the Gaussian part as
-1/2 sum_{l,m} z_l.A z_m x_min(l,m) y_max(l,m) with one running sum of x_l z_l,
and atoms a_j of probability p_j as rate sum_j p_j sum_k dy_k (e^{i a_j.P_k} L_jk - x_k)
with the running sums L_jk = sum_{i<=k} dx_i e^{-i a_j.P_{i-1}}.  Only the jumps
of a law with no atoms (uniform, Gaussian) are still summed over the n(n+1)/2 cells.
"""

from __future__ import annotations

import cmath

import numpy as np

from .exponent import LevyTriplet, eval_psi, is_symmetric
from .paths import DecreasingPath, PathClass, PathTag

__all__ = [
    "lower_area",
    "upper_area",
    "joint_cf",
    "increment_cf",
    "stationary_increment_cf",
    "conditional_mean",
]


def _cells(dx, dy):
    """The cells (first, last, area) under the path, row by row: B_ik covers
    z_first .. z_last (0-based, first = i - 1, last = k - 1)."""
    n = dx.size
    rows = np.arange(n)
    first = np.repeat(rows, n - rows)
    start = rows * n - rows * (rows - 1) // 2  # where row i's first cell, (i, i), sits
    last = np.arange(first.size) - (start - rows)[first]
    return first, last, dx[first] * dy[last]


def lower_area(path: DecreasingPath, s: float, t: float) -> float:
    """m of the lower increment rectangle (x(s), x(t)] x (0, y(t)], for path times s < t."""
    _, (xs, xt), (_, yt) = path.grid([s, t])
    return float((xt - xs) * yt)


def upper_area(path: DecreasingPath, s: float, t: float) -> float:
    """m of the upper increment rectangle (0, x(s)] x (y(t), y(s)], for path times s < t."""
    _, (xs, _), (ys, yt) = path.grid([s, t])
    return float(xs * (ys - yt))


def _as_z_matrix(zs, n: int, dim: int) -> np.ndarray:
    arr = np.asarray(zs, dtype=float)
    if arr.ndim < 2 and arr.size == n * dim and 1 in (n, dim):  # one probe, or one per time
        arr = arr.reshape(n, dim)
    if arr.shape != (n, dim):
        raise ValueError(f"zs must have shape ({n}, {dim}), got {arr.shape}")
    return arr


def joint_cf(triplet: LevyTriplet, path: DecreasingPath, times, zs) -> complex:
    """Joint characteristic function of the path values at the given times.

    The exponent is summed with running sums in O(n) (module docstring), except the
    jumps of a law with no atoms, over the n(n+1)/2 cells; one time is x y psi(z).
    """
    ts, xs, ys = path.grid(times)
    z = _as_z_matrix(zs, ts.size, triplet.dim)
    if ts.size == 1:
        return cmath.exp(xs[0] * ys[0] * eval_psi(triplet, z[0]))
    if np.count_nonzero(np.isfinite(z)) < z.size:
        raise ValueError("z must be finite")
    xz = xs[:, None] * z
    re, im = 0.0, float(triplet.drift @ (ys @ xz))
    if triplet.has_gaussian:  # sum_m y_m z_m.A (z_m x_m + 2 sum_{l<m} x_l z_l)
        re = -0.5 * float(np.vdot(ys[:, None] * (z @ triplet.gaussian), 2.0 * xz.cumsum(axis=0) - xz))
    if (jumps := triplet.jumps) is not None:
        dx, dy = xs.copy(), ys.copy()  # x_i - x_{i-1} and y_k - y_{k+1}, x_0 = y_{n+1} = 0
        dx[1:] -= xs[:-1]
        dy[:-1] -= ys[1:]
        prefix = np.zeros((ts.size + 1, triplet.dim))  # P_0 .. P_n
        z.cumsum(axis=0, out=prefix[1:])
        atoms = getattr(jumps.dist, "atoms", None)
        if atoms is None:
            first, last, area = _cells(dx, dy)
            cf_re, cf_im = jumps.dist.cf(prefix[last + 1] - prefix[first])
            jump = area @ (cf_re - 1.0) + 1j * np.sum(area * cf_im)
        else:
            points, probs = atoms
            wave = np.exp(1j * (prefix @ points.T))  # e^{i a_j.P_k}, (n + 1, atoms)
            running = (dx[:, None] * wave[:-1].conj()).cumsum(axis=0)  # L_jk
            # x_k as the running sum of dx: at z = 0, L_jk equals it bit for bit and cancels
            jump = dy @ ((wave[1:] * running - dx.cumsum()[:, None]) @ probs)
        re, im = re + jumps.rate * float(jump.real), im + jumps.rate * float(jump.imag)
    return cmath.exp(complex(re, im + 0.0))  # + 0.0: a zero probe's -0.0 becomes 0.0


def increment_cf(triplet: LevyTriplet, path: DecreasingPath,
                 s: float, t: float, z) -> complex:
    """Characteristic function of the increment between path times s < t: `joint_cf` at (-z, z)."""
    zz = np.array(z, dtype=float, copy=None, ndmin=1)
    return joint_cf(triplet, path, [s, t], np.array([-zz, zz]))


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
    _, (xs, xt), (ys, yt) = path.grid([s, t])
    if ys == 0.0:
        raise ValueError("conditioning time must have y(s) > 0")
    return float((yt / ys) * x_s + (xt - xs) * yt * mean11)
