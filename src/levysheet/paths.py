"""Decreasing paths in the positive quadrant and their classification.

A decreasing path is a curve (x(t), y(t)) on an interval [t_lo, t_hi] with x
nondecreasing, y nonincreasing, both positive on the interior, and at least
one non-constant.  Restricting a two-parameter Levy process to such a path
yields a one-parameter process; that process has stationary increments
exactly when the path solves

    x(s) y(s) + x(t) y(t) - 2 x(s) y(t) = phi(t - s)

for some function phi, which happens for exactly four families:

  (i)   horizontal (y = a, x = b + c t) or vertical (x = a, y = b - c t),
        phi(u) = a c u: the straight lines of (iii) with one slope zero;
  (ii)  vertical-then-horizontal with corner at s* and a c = b d,
        phi(u) = a c u;
  (iii) linear x = a + b t, y = c - d t, phi(u) = (a d + b c) u - b d u^2;
  (iv)  exponential x = a e^{c t}, y = b e^{-c t}, phi(u) = 2 a b (1 - e^{-c u}).

There are four path forms: `LinearPath` (families (i) and (iii)),
`ExponentialPath`, `VThenHPath` and the piecewise-linear `TabulatedPath`.
`classify` reads the family off closed forms and fits/validates tabulated
data; everything else here is evaluation plumbing around the forms.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "DecreasingPath",
    "LinearPath",
    "ExponentialPath",
    "VThenHPath",
    "HorizontalPath",
    "VerticalPath",
    "TabulatedPath",
    "IncreasingPath",
    "PathTag",
    "PathClass",
    "TwoPieceVerdict",
    "classify",
    "phi",
    "equivalent",
    "scaled",
    "check_two_piece_nonstationary",
    "symmetric_increment_area",
    "path_to_dict",
    "path_from_dict",
]

CLOSED_FORM_TOL = 1e-9
TABULATED_TOL = 1e-6
_PROBE_COUNT = 33


# Argument types that the sweep inverses answer with float arithmetic.
_SCALARS = (float, int, np.generic)


class DecreasingPath:
    """Shared behavior for all path forms; concrete forms are dataclasses."""

    t_lo: float
    t_hi: float

    # -- evaluation ---------------------------------------------------------

    def x(self, t):
        return self._x(np.asarray(t, dtype=float))

    def y(self, t):
        return self._y(np.asarray(t, dtype=float))

    def eval(self, t):
        """(x(t), y(t)) for t in the domain; raises outside it."""
        tt = np.asarray(t, dtype=float)
        if np.any(tt < self.t_lo - 1e-15) or np.any(tt > self.t_hi + 1e-15):
            raise ValueError(f"t outside the path domain [{self.t_lo}, {self.t_hi}]")
        xv, yv = self._x(tt), self._y(tt)
        if np.ndim(t) == 0:
            return float(xv), float(yv)
        return xv, yv

    @property
    def span(self) -> float:
        return self.t_hi - self.t_lo

    @functools.cached_property
    def ends(self) -> tuple[float, float, float, float]:
        """(x(t_lo), x(t_hi), y(t_lo), y(t_hi)) as floats, computed once per path."""
        lo, hi = self.t_lo, self.t_hi
        return (float(self._x(lo)), float(self._x(hi)),
                float(self._y(lo)), float(self._y(hi)))

    # -- sweep inverses (used when restricting jump fields to the path) -----
    # Each form inverts x and y exactly, with no iteration, by one formula
    # that takes arrays and floats alike: _x_inverse(u) for
    # x(t_lo) < u <= x(t_hi) and _y_inverse(v) for y(t_hi) < v <= y(t_lo).
    # An array is inverted everywhere, with division and log warnings off,
    # and np.where keeps the values inside that range.  A scalar is
    # range-tested as a float against `ends` first, so the formula runs only
    # strictly inside the range, where no form divides by zero: np.where and
    # errstate on a 0-d value cost many times what the formula does.

    def first_time_x_at_least(self, u):
        """inf{t : x(t) >= u} elementwise: NaN where x never reaches u, None for a scalar u."""
        x_lo, x_hi, _, _ = self.ends
        if not isinstance(u, _SCALARS):
            u = np.asarray(u, dtype=float)
            if u.ndim:
                with np.errstate(divide="ignore", invalid="ignore"):
                    inside = self._x_inverse(u)
                return np.where(u <= x_lo, self.t_lo, np.where(u > x_hi, np.nan, inside))
        u = float(u)
        if u <= x_lo:
            return float(self.t_lo)
        return float(self._x_inverse(u)) if u <= x_hi else None

    def last_time_y_at_least(self, v):
        """sup{t : y(t) >= v} elementwise: NaN where y starts below v, None for a scalar v."""
        _, _, y_lo, y_hi = self.ends
        if not isinstance(v, _SCALARS):
            v = np.asarray(v, dtype=float)
            if v.ndim:
                with np.errstate(divide="ignore", invalid="ignore"):
                    inside = self._y_inverse(v)
                return np.where(v > y_lo, np.nan, np.where(v <= y_hi, self.t_hi, inside))
        v = float(v)
        if v <= y_hi:
            return float(self.t_hi)
        return float(self._y_inverse(v)) if v <= y_lo else None

    # -- construction checks -------------------------------------------------

    def _validate_domain(self):
        if not (np.isfinite(self.t_lo) and np.isfinite(self.t_hi)):
            raise ValueError("domain endpoints must be finite")
        if not self.t_hi > self.t_lo:
            raise ValueError("domain must satisfy t_lo < t_hi")

    def _validate_probes(self, knots=None):
        """Monotonicity / positivity / non-constancy checks on a probe grid.

        A piecewise-linear path passes its knots, where alone it can turn.
        """
        ts = np.linspace(self.t_lo, self.t_hi, _PROBE_COUNT)
        if knots is not None:
            ts = np.union1d(ts, knots)
        xs, ys = self._x(ts), self._y(ts)
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
            raise ValueError("path values must be finite")
        scale_x = max(1.0, float(np.max(np.abs(xs))))
        scale_y = max(1.0, float(np.max(np.abs(ys))))
        if np.any(np.diff(xs) < -1e-12 * scale_x):
            raise ValueError("x must be nondecreasing")
        if np.any(np.diff(ys) > 1e-12 * scale_y):
            raise ValueError("y must be nonincreasing")
        if xs[0] < -1e-12 * scale_x or ys[-1] < -1e-12 * scale_y:
            raise ValueError("path must be nonnegative")
        if np.any(xs[1:-1] <= 0) or np.any(ys[1:-1] <= 0):
            raise ValueError("path must be strictly positive on the interior")
        if xs[-1] - xs[0] <= 1e-12 * scale_x and ys[0] - ys[-1] <= 1e-12 * scale_y:
            raise ValueError("at least one of x, y must be non-constant")


@dataclass(frozen=True)
class LinearPath(DecreasingPath):
    """x = a + b t, y = c - d t with b, d >= 0.

    A zero slope is family (i): d = 0 is a horizontal line and b = 0 a
    vertical one.  Both slopes zero is a constant, which is no path.
    """

    a: float
    b: float
    c: float
    d: float
    t_lo: float
    t_hi: float

    def __post_init__(self):
        self._validate_domain()
        if not (self.b >= 0 and self.d >= 0):
            raise ValueError("linear path needs nonnegative slopes b and d")
        self._validate_probes()

    def _x(self, t):
        return self.a + self.b * t

    def _y(self, t):
        return self.c - self.d * t

    def _x_inverse(self, u):
        return (u - self.a) / self.b

    def _y_inverse(self, v):
        return (self.c - v) / self.d


@dataclass(frozen=True)
class ExponentialPath(DecreasingPath):
    """x = a e^{c t}, y = b e^{-c t} with a, b, c > 0."""

    a: float
    b: float
    c: float
    t_lo: float
    t_hi: float

    def __post_init__(self):
        self._validate_domain()
        if not (self.a > 0 and self.b > 0 and self.c > 0):
            raise ValueError("exponential path needs positive a, b, c")
        self._validate_probes()

    def _x(self, t):
        return self.a * np.exp(self.c * t)

    def _y(self, t):
        return self.b * np.exp(-self.c * t)

    def _x_inverse(self, u):
        return np.log(u / self.a) / self.c

    def _y_inverse(self, v):
        return np.log(self.b / v) / self.c


@dataclass(frozen=True)
class VThenHPath(DecreasingPath):
    """Vertical leg (x = a) down to (a, b) at s_star, then horizontal (y = b).

    x(t) = a + d (t - s*) for t > s*, y(t) = b + c (s* - t) for t <= s*.
    """

    s_star: float
    a: float
    b: float
    c: float
    d: float
    t_lo: float
    t_hi: float

    def __post_init__(self):
        self._validate_domain()
        if not (self.a > 0 and self.b > 0 and self.c > 0 and self.d > 0):
            raise ValueError("corner path needs positive a, b, c, d")
        if not (self.t_lo < self.s_star < self.t_hi):
            raise ValueError("corner s_star must be interior to the domain")
        self._validate_probes()

    def _x(self, t):
        t = np.asarray(t, dtype=float)
        return self.a + self.d * np.where(t > self.s_star, t - self.s_star, 0.0)

    def _y(self, t):
        t = np.asarray(t, dtype=float)
        return self.b + self.c * np.where(t <= self.s_star, self.s_star - t, 0.0)

    def _x_inverse(self, u):
        return self.s_star + (u - self.a) / self.d

    def _y_inverse(self, v):
        return self.s_star - (v - self.b) / self.c


class HorizontalPath:
    """Family (i) with y constant: the `LinearPath` with d = 0."""

    @staticmethod
    def affine(intercept: float, slope: float, y_const: float, t_lo: float, t_hi: float):
        return LinearPath(intercept, slope, y_const, 0.0, t_lo, t_hi)


class VerticalPath:
    """Family (i) with x constant: the `LinearPath` with b = 0."""

    @staticmethod
    def affine(intercept: float, slope: float, x_const: float, t_lo: float, t_hi: float):
        return LinearPath(x_const, 0.0, intercept, slope, t_lo, t_hi)


@dataclass(frozen=True)
class TabulatedPath(DecreasingPath):
    """Piecewise-linear path through strictly increasing knot times.

    The sweep inverses locate the knot segment with one binary search on the
    monotone knot values and invert the linear piece there.  That piece is
    never flat, so flat stretches of x or y need no special case.
    """

    times: np.ndarray
    xs: np.ndarray
    ys: np.ndarray
    _neg_ys: np.ndarray = field(init=False, repr=False, compare=False)  # nondecreasing

    def __post_init__(self):
        ts = np.asarray(self.times, dtype=float)
        xs = np.asarray(self.xs, dtype=float)
        ys = np.asarray(self.ys, dtype=float)
        if ts.ndim != 1 or ts.size < 2:
            raise ValueError("tabulated path needs at least two knots")
        if xs.shape != ts.shape or ys.shape != ts.shape:
            raise ValueError("knot arrays must have matching shapes")
        if np.any(np.diff(ts) <= 0):
            raise ValueError("knot times must be strictly increasing")
        object.__setattr__(self, "times", ts)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)
        object.__setattr__(self, "_neg_ys", -ys)
        self._validate_probes(ts)

    @classmethod
    def from_knots(cls, knots) -> "TabulatedPath":
        """Build from an iterable of (t, (x, y)) or (t, x, y) rows."""
        rows = []
        for row in knots:
            if len(row) == 2:
                t, (x, y) = row
            else:
                t, x, y = row
            rows.append((float(t), float(x), float(y)))
        arr = np.array(rows)
        return cls(arr[:, 0], arr[:, 1], arr[:, 2])

    @property
    def t_lo(self) -> float:  # type: ignore[override]
        return float(self.times[0])

    @property
    def t_hi(self) -> float:  # type: ignore[override]
        return float(self.times[-1])

    def _x(self, t):
        return np.interp(np.asarray(t, dtype=float), self.times, self.xs)

    def _y(self, t):
        return np.interp(np.asarray(t, dtype=float), self.times, self.ys)

    # Searching the inner knots keeps k in [1, n - 1].
    def _x_inverse(self, u):
        ts, xs = self.times, self.xs
        k = xs[1:-1].searchsorted(u) + 1  # xs[k-1] < u <= xs[k]
        return ts[k - 1] + (u - xs[k - 1]) / (xs[k] - xs[k - 1]) * (ts[k] - ts[k - 1])

    def _y_inverse(self, v):
        ts, ys = self.times, self.ys
        k = self._neg_ys[1:-1].searchsorted(-v, side="right") + 1  # ys[k-1] >= v > ys[k]
        return ts[k - 1] + (ys[k - 1] - v) / (ys[k - 1] - ys[k]) * (ts[k] - ts[k - 1])


@dataclass(frozen=True)
class IncreasingPath:
    """Curve with both coordinates nondecreasing; only used by the two-piece guard."""

    x_func: Callable[[np.ndarray], np.ndarray]
    y_func: Callable[[np.ndarray], np.ndarray]
    t_lo: float
    t_hi: float

    def __post_init__(self):
        if not self.t_hi > self.t_lo:
            raise ValueError("domain must satisfy t_lo < t_hi")
        ts = np.linspace(self.t_lo, self.t_hi, _PROBE_COUNT)
        xs, ys = self.x(ts), self.y(ts)
        for name, vals in (("x", xs), ("y", ys)):
            scale = max(1.0, float(np.max(np.abs(vals))))
            if np.any(np.diff(vals) < -1e-12 * scale):
                raise ValueError(f"{name} must be nondecreasing on an increasing path")
        if np.any(xs[1:-1] <= 0) or np.any(ys[1:-1] <= 0):
            raise ValueError("path must be strictly positive on the interior")

    def x(self, t):
        return np.asarray(self.x_func(np.asarray(t, dtype=float)), dtype=float)

    def y(self, t):
        return np.asarray(self.y_func(np.asarray(t, dtype=float)), dtype=float)


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

class PathTag(enum.Enum):
    HORIZONTAL = "horizontal"
    VERTICAL = "vertical"
    V_THEN_H = "v_then_h"
    LINEAR = "linear"
    EXPONENTIAL = "exponential"
    NON_STATIONARY = "non_stationary"


_STATIONARY_TAGS = (
    PathTag.HORIZONTAL,
    PathTag.VERTICAL,
    PathTag.V_THEN_H,
    PathTag.LINEAR,
    PathTag.EXPONENTIAL,
)


class TwoPieceVerdict(enum.Enum):
    NONSTATIONARY = "nonstationary"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class PathClass:
    """Outcome of classification: the family tag and the constants behind phi."""

    tag: PathTag
    params: dict
    max_lag: float = 0.0

    def phi(self, u):
        return phi(self, u)

    def to_dict(self) -> dict:
        return {"class": self.tag.value, "phi": dict(self.params)}


def phi(cls: PathClass, u):
    """Increment-law coefficient phi(u) for a stationary path class."""
    if cls.tag is PathTag.NON_STATIONARY:
        raise ValueError("phi is undefined for a non-stationary path")
    uu = np.asarray(u, dtype=float)
    if np.any(uu < 0) or np.any(uu > cls.max_lag * (1 + 1e-12)):
        raise ValueError(f"lag must lie in [0, {cls.max_lag}]")
    p = cls.params
    if cls.tag in (PathTag.HORIZONTAL, PathTag.VERTICAL, PathTag.V_THEN_H):
        out = p["a"] * p["c"] * uu
    elif cls.tag is PathTag.LINEAR:
        out = (p["a"] * p["d"] + p["b"] * p["c"]) * uu - p["b"] * p["d"] * uu ** 2
    else:
        out = 2.0 * p["a"] * p["b"] * (1.0 - np.exp(-p["c"] * uu))
    return float(out) if np.isscalar(u) else out


def symmetric_increment_area(path: DecreasingPath, s, t):
    """x(s)y(s) + x(t)y(t) - 2 x(s)y(t): the increment's total rectangle area."""
    xs, ys = path.x(s), path.y(s)
    xt, yt = path.x(t), path.y(t)
    return xs * ys + xt * yt - 2.0 * xs * yt


def _fit_affine(ts, vals):
    """Least-squares (intercept, slope) plus max abs residual."""
    coef = np.polynomial.polynomial.polyfit(ts, vals, 1)
    resid = vals - (coef[0] + coef[1] * ts)
    return float(coef[0]), float(coef[1]), float(np.max(np.abs(resid)))


def _functional_equation_holds(path, cls, tol, times, grid_size=50):
    """Validate phi against the functional equation on a (s, t) grid of knots.

    The grid is aligned with the tabulated path's knot times, where the values
    are exact; between knots the interpolant of a curved family is not an
    exact solution of the equation.
    """
    if times.size > grid_size:
        ts = times[np.linspace(0, times.size - 1, grid_size).round().astype(int)]
    else:
        ts = times
    s, t = np.meshgrid(ts, ts, indexing="ij")
    mask = t > s
    lhs = symmetric_increment_area(path, s[mask], t[mask])
    ph = phi(cls, t[mask] - s[mask])
    denom = np.maximum(1.0, np.abs(ph))
    return bool(np.all(np.abs(lhs - ph) <= tol * denom))


def _candidate_horizontal(ts, xs, ys, span, tol):
    scale_y = max(1.0, float(np.max(np.abs(ys))))
    if np.max(np.abs(ys - ys.mean())) > tol * scale_y:
        return None
    b, c, resid = _fit_affine(ts, xs)
    if c <= 0 or resid > tol * max(1.0, float(np.max(np.abs(xs)))):
        return None
    return PathClass(PathTag.HORIZONTAL, {"a": float(ys.mean()), "b": b, "c": c}, span)


def _candidate_vertical(ts, xs, ys, span, tol):
    scale_x = max(1.0, float(np.max(np.abs(xs))))
    if np.max(np.abs(xs - xs.mean())) > tol * scale_x:
        return None
    b, negc, resid = _fit_affine(ts, ys)
    if -negc <= 0 or resid > tol * max(1.0, float(np.max(np.abs(ys)))):
        return None
    return PathClass(PathTag.VERTICAL, {"a": float(xs.mean()), "b": b, "c": -negc}, span)


def _candidate_corner(ts, xs, ys, span, tol):
    best = None
    scale = max(1.0, float(np.max(np.abs(xs))), float(np.max(np.abs(ys))))
    # A corner at knot k needs xs[:k+1] and ys[k:] flat within tol * scale, and a
    # residual is at least half a stretch's range: skip ranges over 2 tol scale.
    spread = lambda v: np.maximum.accumulate(v) - np.minimum.accumulate(v)  # noqa: E731
    flat = np.maximum(spread(xs), spread(ys[::-1])[::-1]) <= 2.0 * tol * scale * (1.0 + 1e-9)
    for k in np.flatnonzero(flat[1:-1]) + 1:
        s_star = ts[k]
        a = float(xs[: k + 1].mean())
        b = float(ys[k:].mean())
        left, right = ts[: k + 1], ts[k:]
        c = float(np.polynomial.polynomial.polyfit(s_star - left, ys[: k + 1] - b, 1)[1])
        d = float(np.polynomial.polynomial.polyfit(right - s_star, xs[k:] - a, 1)[1])
        if a <= 0 or b <= 0 or c <= 0 or d <= 0:
            continue
        resid = max(
            float(np.max(np.abs(xs[: k + 1] - a))),
            float(np.max(np.abs(ys[k:] - b))),
            float(np.max(np.abs(ys[: k + 1] - (b + c * (s_star - left))))),
            float(np.max(np.abs(xs[k:] - (a + d * (right - s_star))))),
        )
        if resid > tol * scale:
            continue
        if abs(a * c - b * d) > tol * max(a * c, b * d):
            continue
        if best is None or resid < best[0]:
            best = (resid, PathClass(
                PathTag.V_THEN_H,
                {"s_star": float(s_star), "a": a, "b": b, "c": c, "d": d},
                span,
            ))
    return None if best is None else best[1]


def _candidate_linear(ts, xs, ys, span, tol):
    a, b, resid_x = _fit_affine(ts, xs)
    c, negd, resid_y = _fit_affine(ts, ys)
    d = -negd
    if b <= 0 or d <= 0:
        return None
    scale = max(1.0, float(np.max(np.abs(xs))), float(np.max(np.abs(ys))))
    if max(resid_x, resid_y) > tol * scale:
        return None
    return PathClass(PathTag.LINEAR, {"a": a, "b": b, "c": c, "d": d}, span)


def _candidate_exponential(ts, xs, ys, span, tol):
    """Log-linear fit of x = a e^{ct}, y = b e^{-ct}, if no such curve is far off."""
    if np.any(xs <= 0) or np.any(ys <= 0):
        return None
    _, cx, _ = _fit_affine(ts, np.log(xs))
    _, cy, _ = _fit_affine(ts, np.log(ys))
    if cx <= 0 or cy >= 0:
        return None
    c = 0.5 * (cx - cy)
    a = float(np.exp(np.mean(np.log(xs) - c * ts)))
    b = float(np.exp(np.mean(np.log(ys) + c * ts)))
    resid = max(
        float(np.max(np.abs(xs - a * np.exp(c * ts)))),
        float(np.max(np.abs(ys - b * np.exp(-c * ts)))),
    )
    scale = max(1.0, float(np.max(np.abs(xs))), float(np.max(np.abs(ys))))
    if resid / scale > np.sqrt(tol):  # loose pre-filter; the functional equation decides
        return None
    return PathClass(PathTag.EXPONENTIAL, {"a": a, "b": b, "c": c}, span)


def _classify_tabulated(path: TabulatedPath, tol: float) -> PathClass:
    if path.times.size < 3:
        raise ValueError("classification needs at least three knots")
    ts, xs, ys, span = path.times, path.xs, path.ys, path.span
    candidates = [
        _candidate_horizontal(ts, xs, ys, span, tol),
        _candidate_vertical(ts, xs, ys, span, tol),
        _candidate_corner(ts, xs, ys, span, tol),
        _candidate_linear(ts, xs, ys, span, tol),
        _candidate_exponential(ts, xs, ys, span, tol),
    ]
    for cand in candidates:  # tie-break: fewest-parameter family first
        if cand is not None and _functional_equation_holds(path, cand, tol, ts):
            return cand
    return PathClass(PathTag.NON_STATIONARY, {}, span)


def classify(path: DecreasingPath, tol: float | None = None) -> PathClass:
    """Classify a path into the stationary-increment families, or NON_STATIONARY.

    Closed forms are read off structurally (a straight line with a zero slope
    is horizontal or vertical; the corner family additionally checks its
    a c = b d constraint); tabulated paths are classified by
    least-squares family fitting validated against the functional equation.
    """
    if isinstance(path, TabulatedPath):
        return _classify_tabulated(path, TABULATED_TOL if tol is None else tol)
    tol = CLOSED_FORM_TOL if tol is None else tol
    span = path.span
    if isinstance(path, LinearPath):
        a, b, c, d = path.a, path.b, path.c, path.d
        if d == 0:
            return PathClass(PathTag.HORIZONTAL, {"a": c, "b": a, "c": b}, span)
        if b == 0:
            return PathClass(PathTag.VERTICAL, {"a": a, "b": c, "c": d}, span)
        return PathClass(PathTag.LINEAR, {"a": a, "b": b, "c": c, "d": d}, span)
    if isinstance(path, ExponentialPath):
        return PathClass(PathTag.EXPONENTIAL,
                         {"a": path.a, "b": path.b, "c": path.c}, span)
    if isinstance(path, VThenHPath):
        ac, bd = path.a * path.c, path.b * path.d
        if abs(ac - bd) > tol * max(ac, bd):
            return PathClass(PathTag.NON_STATIONARY, {}, span)
        return PathClass(PathTag.V_THEN_H,
                         {"s_star": path.s_star, "a": path.a, "b": path.b,
                          "c": path.c, "d": path.d}, span)
    raise TypeError(f"cannot classify object of type {type(path).__name__}")


# ---------------------------------------------------------------------------
# Law-equivalence of paths and the two-piece stationarity guard
# ---------------------------------------------------------------------------

def equivalent(p1: DecreasingPath, p2: DecreasingPath, tol: float = 1e-9):
    """Scale p > 0 with x2 = p x1 and y2 = y1 / p on the common domain, or None."""
    if abs(p1.t_lo - p2.t_lo) > 1e-12 or abs(p1.t_hi - p2.t_hi) > 1e-12:
        raise ValueError("paths must share the same domain")
    ts = np.linspace(p1.t_lo, p1.t_hi, _PROBE_COUNT)
    x1, y1 = p1.x(ts), p1.y(ts)
    x2, y2 = p2.x(ts), p2.y(ts)
    mask = x1 > 0
    if not np.any(mask):
        return None
    p = float(np.median(x2[mask] / x1[mask]))
    if not (np.isfinite(p) and p > 0):
        return None
    scale_x = max(float(np.max(np.abs(x2))), 1e-300)
    scale_y = max(float(np.max(np.abs(y2))), 1e-300)
    if np.max(np.abs(x2 - p * x1)) > tol * scale_x:
        return None
    if np.max(np.abs(y2 - y1 / p)) > tol * scale_y:
        return None
    return p


def scaled(path: DecreasingPath, p: float) -> DecreasingPath:
    """The law-equivalent path (p x(t), y(t)/p)."""
    if not p > 0:
        raise ValueError("scale must be positive")
    if isinstance(path, LinearPath):
        return LinearPath(p * path.a, p * path.b, path.c / p, path.d / p,
                          path.t_lo, path.t_hi)
    if isinstance(path, ExponentialPath):
        return ExponentialPath(p * path.a, path.b / p, path.c, path.t_lo, path.t_hi)
    if isinstance(path, VThenHPath):
        return VThenHPath(path.s_star, p * path.a, path.b / p, path.c / p,
                          p * path.d, path.t_lo, path.t_hi)
    if isinstance(path, TabulatedPath):
        return TabulatedPath(path.times, p * path.xs, path.ys / p)
    raise TypeError(f"cannot rescale object of type {type(path).__name__}")


def check_two_piece_nonstationary(up: IncreasingPath, down: DecreasingPath,
                                  s: float, t: float,
                                  tol: float = 1e-9) -> TwoPieceVerdict:
    """Flag an increasing-then-decreasing concatenation as non-stationary.

    The junction must satisfy max T1 = min T2 with matching curve values.
    Returns NONSTATIONARY when the level test y(junction) not in {y(s), y(t)}
    holds for the supplied s in T1, t in T2, and INCONCLUSIVE otherwise.
    """
    if not isinstance(up, IncreasingPath):
        raise TypeError("first piece must be an IncreasingPath")
    if not isinstance(down, DecreasingPath):
        raise TypeError("second piece must be a DecreasingPath")
    a = up.t_hi
    if abs(a - down.t_lo) > 1e-12:
        raise ValueError("junction mismatch: max T1 must equal min T2")
    xa_up, ya_up = float(up.x(a)), float(up.y(a))
    xa_dn, ya_dn = float(down.x(a)), float(down.y(a))
    scale = max(1.0, abs(xa_up), abs(ya_up))
    if abs(xa_up - xa_dn) > tol * scale or abs(ya_up - ya_dn) > tol * scale:
        raise ValueError("junction mismatch: curve values disagree at the joint")
    if not (up.t_lo <= s <= up.t_hi and down.t_lo <= t <= down.t_hi):
        raise ValueError("s must lie in the first piece and t in the second")
    y_a = ya_up
    y_s, y_t = float(up.y(s)), float(down.y(t))
    level = max(1.0, abs(y_a))
    if abs(y_a - y_s) <= tol * level or abs(y_a - y_t) <= tol * level:
        return TwoPieceVerdict.INCONCLUSIVE
    return TwoPieceVerdict.NONSTATIONARY


# ---------------------------------------------------------------------------
# JSON round-trip
# ---------------------------------------------------------------------------

def path_to_dict(path: DecreasingPath) -> dict:
    if isinstance(path, LinearPath):
        return {"form": "linear", "a": path.a, "b": path.b, "c": path.c,
                "d": path.d, "t_lo": path.t_lo, "t_hi": path.t_hi}
    if isinstance(path, ExponentialPath):
        return {"form": "exponential", "a": path.a, "b": path.b, "c": path.c,
                "t_lo": path.t_lo, "t_hi": path.t_hi}
    if isinstance(path, VThenHPath):
        return {"form": "v_then_h", "s_star": path.s_star, "a": path.a,
                "b": path.b, "c": path.c, "d": path.d,
                "t_lo": path.t_lo, "t_hi": path.t_hi}
    if isinstance(path, TabulatedPath):
        knots = [[float(t), float(x), float(y)]
                 for t, x, y in zip(path.times, path.xs, path.ys)]
        return {"form": "tabulated", "knots": knots}
    raise TypeError(f"cannot serialize object of type {type(path).__name__}")


def path_from_dict(spec: dict) -> DecreasingPath:
    try:
        form = spec["form"]
    except KeyError:
        raise ValueError("path spec missing field 'form'") from None

    def need(*fields):
        missing = [f for f in fields if f not in spec]
        if missing:
            raise ValueError(f"path spec ({form}) missing field {missing[0]!r}")
        return [float(spec[f]) for f in fields]

    if form == "linear":
        a, b, c, d, lo, hi = need("a", "b", "c", "d", "t_lo", "t_hi")
        return LinearPath(a, b, c, d, lo, hi)
    if form == "exponential":
        a, b, c, lo, hi = need("a", "b", "c", "t_lo", "t_hi")
        return ExponentialPath(a, b, c, lo, hi)
    if form == "v_then_h":
        s_star, a, b, c, d, lo, hi = need("s_star", "a", "b", "c", "d", "t_lo", "t_hi")
        return VThenHPath(s_star, a, b, c, d, lo, hi)
    if form == "horizontal":
        y, xi, xs, lo, hi = need("y", "x_intercept", "x_slope", "t_lo", "t_hi")
        return HorizontalPath.affine(xi, xs, y, lo, hi)
    if form == "vertical":
        x, yi, ys, lo, hi = need("x", "y_intercept", "y_slope", "t_lo", "t_hi")
        return VerticalPath.affine(yi, ys, x, lo, hi)
    if form == "tabulated":
        if "knots" not in spec:
            raise ValueError("path spec (tabulated) missing field 'knots'")
        return TabulatedPath.from_knots(spec["knots"])
    raise ValueError(f"unknown path form {form!r}")
