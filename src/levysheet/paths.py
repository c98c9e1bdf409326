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
Each is monotone by its parameter signs (a tabulated path by its knots), so
its construction checks read the end values and knots, not a probe grid.
`classify` reads the family off closed forms and fits/validates tabulated
data; `equivalent` and `scaled` relate law-equivalent paths (p x, y / p).
Each form states its parameters once: its class names the fields that carry x
(`X_PARAMS`, which `scaled` multiplies by p) and y (`Y_PARAMS`, divided by p),
and a closed form its JSON `FORM`, whose keys are the constructor's parameters
in order.  `path_to_dict` and `path_from_dict` read those, and a tabulated
spec's knots are [t, x, y] rows.  Everything else here is evaluation plumbing
around the forms.
"""

from __future__ import annotations

import bisect
import contextlib
import dataclasses
import enum
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .exponent import _read_spec, _spec_fields

__all__ = [
    "DecreasingPath",
    "LinearPath",
    "ExponentialPath",
    "VThenHPath",
    "HorizontalPath",
    "VerticalPath",
    "TabulatedPath",
    "PathTag",
    "PathClass",
    "classify",
    "phi",
    "equivalent",
    "scaled",
    "symmetric_increment_area",
    "path_to_dict",
    "path_from_dict",
]

CLOSED_FORM_TOL = 1e-9
TABULATED_TOL = 1e-6
_PROBE_COUNT = 33


# Argument types that the sweep inverses answer with float arithmetic.
_SCALARS = (float, int, np.generic)
_QUIET = contextlib.nullcontext()  # in place of np.errstate for the forms with `_quiet_inverses`


class DecreasingPath:
    """Shared behavior for all path forms; concrete forms are dataclasses."""

    t_lo: float
    t_hi: float
    ends: tuple[float, float, float, float]  # (x(t_lo), x(t_hi), y(t_lo), y(t_hi)), set by the checks

    # -- evaluation ---------------------------------------------------------

    def x(self, t):
        return self._x(np.asarray(t, dtype=float))

    def y(self, t):
        return self._y(np.asarray(t, dtype=float))

    def eval(self, t):
        """(x(t), y(t)) for t in the domain; raises outside it."""
        tt = np.asarray(t, dtype=float)
        if not ((tt >= self.t_lo - 1e-15).all() and (tt <= self.t_hi + 1e-15).all()):
            raise ValueError(f"t outside the path domain [{self.t_lo}, {self.t_hi}]")
        xv, yv = self._x(tt), self._y(tt)
        if np.ndim(t) == 0:
            return float(xv), float(yv)
        return xv, yv

    def grid(self, times):
        """(ts, x(ts), y(ts)) as float arrays for nonempty, strictly increasing times
        in the domain; raises otherwise.  The one place caller times meet a path."""
        ts = np.array(times, dtype=float, copy=None, ndmin=1)
        if ts.ndim != 1 or ts.size == 0 or np.count_nonzero(ts[1:] > ts[:-1]) < ts.size - 1:
            raise ValueError("times must be nonempty and strictly increasing")
        if not (self.t_lo - 1e-15 <= ts[0] and ts[-1] <= self.t_hi + 1e-15):  # the ends bound increasing times
            raise ValueError(f"t outside the path domain [{self.t_lo}, {self.t_hi}]")
        return ts, self._x(ts), self._y(ts)

    @property
    def span(self) -> float:
        return self.t_hi - self.t_lo

    # -- sweep inverses (used when restricting jump fields to the path) -----
    # Each form inverts x and y exactly, with no iteration, by one formula
    # that takes arrays and floats alike: _x_inverse(u) for
    # x(t_lo) < u <= x(t_hi) and _y_inverse(v) for y(t_hi) < v <= y(t_lo).
    # An array is inverted everywhere, with division and log warnings off (unless no
    # float makes the form's formulas warn), and the entries outside that range are
    # overwritten in the formula's result, a new array (no form returns its argument):
    # t_lo and t_hi by `_entry_times` and `_exit_times`, which leave any value where x
    # never reaches u (y starts below v), and then NaN.  A scalar is range-tested as a
    # float against `ends` first, so the formula runs only strictly inside the range,
    # where no form divides by zero: errstate and masks on a 0-d value cost many times
    # what the formula does.
    _quiet_inverses = False  # True where no float makes a formula divide by zero or take a log

    def first_time_x_at_least(self, u):
        """inf{t : x(t) >= u} elementwise: NaN where x never reaches u, None for a scalar u."""
        x_lo, x_hi, _, _ = self.ends
        if not isinstance(u, _SCALARS):
            u = np.asarray(u, dtype=float)
            if u.ndim:
                t = self._entry_times(u)
                np.putmask(t, u > x_hi, np.nan)
                return t
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
                t = self._exit_times(v)
                np.putmask(t, v > y_lo, np.nan)
                return t
        v = float(v)
        if v <= y_hi:
            return float(self.t_hi)
        return float(self._y_inverse(v)) if v <= y_lo else None

    def _entry_times(self, u: np.ndarray) -> np.ndarray:
        with _QUIET if self._quiet_inverses else np.errstate(divide="ignore", invalid="ignore"):
            t = self._x_inverse(u)
        np.putmask(t, u <= self.ends[0], self.t_lo)
        return t

    def _exit_times(self, v: np.ndarray) -> np.ndarray:
        with _QUIET if self._quiet_inverses else np.errstate(divide="ignore", invalid="ignore"):
            t = self._y_inverse(v)
        np.putmask(t, v <= self.ends[3], self.t_hi)
        return t

    # -- construction checks -------------------------------------------------

    def _validate_domain(self):
        if not (math.isfinite(self.t_lo) and math.isfinite(self.t_hi)):
            raise ValueError("domain endpoints must be finite")
        if not self.t_hi > self.t_lo:
            raise ValueError("domain must satisfy t_lo < t_hi")

    def _ends(self) -> tuple[float, float, float, float]:
        lo, hi = self.t_lo, self.t_hi
        with np.errstate(over="ignore", invalid="ignore"):
            return (float(self._x(lo)), float(self._x(hi)),
                    float(self._y(lo)), float(self._y(hi)))

    def _validate_values(self):
        """Finiteness, sign and non-constancy checks, read off the end values (monotone
        forms), which it keeps as `ends`."""
        x_lo, x_hi, y_lo, y_hi = ends = self._ends()
        object.__setattr__(self, "ends", ends)
        if not all(map(math.isfinite, (x_lo, x_hi, y_lo, y_hi))):
            raise ValueError("path values must be finite")
        scale_x, scale_y = max(1.0, abs(x_lo), abs(x_hi)), max(1.0, abs(y_lo), abs(y_hi))
        if x_lo < -1e-12 * scale_x or y_hi < -1e-12 * scale_y:
            raise ValueError("path must be nonnegative")
        if not self._interior_positive(x_lo, x_hi, y_lo, y_hi):
            raise ValueError("path must be strictly positive on the interior")
        if x_hi - x_lo <= 1e-12 * scale_x and y_lo - y_hi <= 1e-12 * scale_y:
            raise ValueError("at least one of x, y must be non-constant")

    def _interior_positive(self, x_lo, x_hi, y_lo, y_hi) -> bool:
        # exponential and corner: positive by their parameter signs unless an end underflows
        return x_lo > 0 and y_hi > 0


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
    FORM, X_PARAMS, Y_PARAMS = "linear", ("a", "b"), ("c", "d")  # class constants, not fields

    def __post_init__(self):
        self._validate_domain()
        if not (self.b >= 0 and self.d >= 0):
            raise ValueError("linear path needs nonnegative slopes b and d")
        self._validate_values()
        object.__setattr__(self, "_quiet_inverses", self.b > 0 and self.d > 0)  # finite, as the ends are

    def _interior_positive(self, x_lo, x_hi, y_lo, y_hi) -> bool:
        return x_hi > 0 and y_lo > 0  # a line from (near) zero must leave it

    def _ends(self):  # in float arithmetic, which never warns: no errstate to enter
        a, b, c, d, lo, hi = map(float, (self.a, self.b, self.c, self.d, self.t_lo, self.t_hi))
        return a + b * lo, a + b * hi, c - d * lo, c - d * hi

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
    FORM, X_PARAMS, Y_PARAMS = "exponential", ("a",), ("b",)

    def __post_init__(self):
        self._validate_domain()
        if not (self.a > 0 and self.b > 0 and self.c > 0):
            raise ValueError("exponential path needs positive a, b, c")
        self._validate_values()

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
    FORM, X_PARAMS, Y_PARAMS = "v_then_h", ("a", "d"), ("b", "c")
    _quiet_inverses = True  # the formulas divide by c, d > 0 (a class attribute, not a field)

    def __post_init__(self):
        self._validate_domain()
        if not (self.a > 0 and self.b > 0 and self.c > 0 and self.d > 0):
            raise ValueError("corner path needs positive a, b, c, d")
        if not (self.t_lo < self.s_star < self.t_hi):
            raise ValueError("corner s_star must be interior to the domain")
        self._validate_values()

    def _ends(self):  # _x and _y at t_lo < s* < t_hi, in float arithmetic, which never warns
        s, a, b, c, d, lo, hi = map(float, (self.s_star, self.a, self.b, self.c, self.d, self.t_lo, self.t_hi))
        return a + d * 0.0, a + d * (hi - s), b + c * (s - lo), b + c * 0.0

    def _x(self, t):
        return self.a + self.d * np.maximum(t - self.s_star, 0.0)

    def _y(self, t):
        return self.b + self.c * np.maximum(self.s_star - t, 0.0)

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


@dataclass(frozen=True, eq=False)
class TabulatedPath(DecreasingPath):
    """Piecewise-linear path through strictly increasing knot times, compared by identity.

    The knots are checked once and kept with the differences the checks take, each
    piece's rise in t and x and its drop in y, as arrays and as float lists.  The sweep
    inverses locate the knot segment with one binary search on the monotone knot values
    and invert the linear piece there.  That piece is never flat, so flat stretches of x
    or y need no special case.
    """

    times: np.ndarray
    xs: np.ndarray
    ys: np.ndarray
    t_lo: float = field(init=False, repr=False)
    t_hi: float = field(init=False, repr=False)
    _knots: np.ndarray = field(init=False, repr=False)  # rows: times, xs, -ys, each nondecreasing
    _steps: np.ndarray = field(init=False, repr=False)  # rows: each piece's rise in t, x and -y
    _knot_lists: tuple = field(init=False, repr=False)  # the rows of both as float lists
    X_PARAMS, Y_PARAMS = ("xs",), ("ys",)

    def __post_init__(self):
        ts, xs, ys = (np.asarray(v, dtype=float) for v in (self.times, self.xs, self.ys))
        if ts.ndim != 1 or ts.size < 2:
            raise ValueError("tabulated path needs at least two knots")
        if xs.shape != ts.shape or ys.shape != ts.shape:
            raise ValueError("knot arrays must have matching shapes")
        knots = np.array([ts, xs, -ys])
        with np.errstate(invalid="ignore"):  # a NaN difference (inf - inf) passes on to the next check
            steps = knots[:, 1:] - knots[:, :-1]  # -ys[k] - -ys[k-1] is ys[k-1] - ys[k], bit for bit
        if np.count_nonzero(steps[0] <= 0):
            raise ValueError("knot times must be strictly increasing")
        if np.count_nonzero(np.isfinite(knots)) < knots.size:
            raise ValueError("path values must be finite")
        # linear between knots, the path is monotone iff its knots are
        if np.count_nonzero(steps[1] < -1e-12 * max(1.0, np.abs(xs).max())):
            raise ValueError("x must be nondecreasing")
        if np.count_nonzero(steps[2] < -1e-12 * max(1.0, np.abs(ys).max())):
            raise ValueError("y must be nonincreasing")
        lists = (*knots.tolist(), *steps.tolist())
        for name, value in (("times", knots[0]), ("xs", knots[1]), ("ys", ys), ("t_lo", lists[0][0]),
                            ("t_hi", lists[0][-1]), ("_knots", knots), ("_steps", steps), ("_knot_lists", lists)):
            object.__setattr__(self, name, value)
        self._validate_values()

    @classmethod
    def from_knots(cls, knots) -> "TabulatedPath":
        """Build from the [t, x, y] rows of the JSON schema."""
        try:
            arr = np.array(list(knots), dtype=float)
        except ValueError:  # ragged rows, or entries that are not numbers
            arr = None
        if arr is None or arr.ndim != 2 or arr.shape[1] != 3:
            raise ValueError("tabulated knots must be [t, x, y] rows of numbers")
        return cls(arr[:, 0], arr[:, 1], arr[:, 2])

    def _ends(self) -> tuple[float, float, float, float]:
        _, xs, neg_ys = self._knot_lists[:3]  # np.interp gives a knot's own value at its time
        return xs[0], xs[-1], -neg_ys[0], -neg_ys[-1]

    def _interior_positive(self, x_lo, x_hi, y_lo, y_hi) -> bool:
        return bool(self.xs[1:].min() > 0 and self.ys[:-1].min() > 0)  # LinearPath's, per piece

    def _x(self, t):
        return np.interp(np.asarray(t, dtype=float), self.times, self.xs)

    def _y(self, t):
        return np.interp(np.asarray(t, dtype=float), self.times, self.ys)

    # Searching the inner knots puts the piece j in [0, n - 2].  Bisect on the knot lists takes
    # searchsorted's steps, so a float finds the same j and runs the same formula on floats.
    def _x_inverse(self, u):
        if isinstance(u, float):
            ts, xs, _, dts, dxs, _ = self._knot_lists
            j = bisect.bisect_left(xs, u, 1, len(xs) - 1) - 1
        else:
            (ts, xs, _), (dts, dxs, _) = self._knots, self._steps
            j = xs[1:-1].searchsorted(u)  # xs[j] < u <= xs[j+1]
        return ts[j] + (u - xs[j]) / dxs[j] * dts[j]

    def _y_inverse(self, v):
        w = -v  # searched among the -ys; w - -ys[j] is ys[j] - v, bit for bit
        if isinstance(v, float):
            ts, _, neg_ys, dts, _, drops = self._knot_lists
            j = bisect.bisect_right(neg_ys, w, 1, len(neg_ys) - 1) - 1
        else:
            (ts, _, neg_ys), (dts, _, drops) = self._knots, self._steps
            j = neg_ys[1:-1].searchsorted(w, side="right")  # ys[j] >= v > ys[j+1]
        return ts[j] + (w - neg_ys[j]) / drops[j] * dts[j]


_CLOSED_FORMS = (LinearPath, ExponentialPath, VThenHPath)
_CLOSED_BY_FORM = {cls.FORM: cls for cls in _CLOSED_FORMS}


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
    if not ((uu >= 0).all() and (uu <= cls.max_lag * (1 + 1e-12)).all()):
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
    xs, ys = path.eval(s)
    xt, yt = path.eval(t)
    return xs * ys + xt * yt - 2.0 * xs * yt


def _fit_affine(ts, vals):
    """Least-squares (intercept, slope), from two means and two dot products,
    plus max abs residual."""
    t_mean, v_mean = ts.mean(), vals.mean()
    centred = ts - t_mean
    slope = float(centred @ (vals - v_mean) / (centred @ centred))
    intercept = float(v_mean - slope * t_mean)
    return intercept, slope, float(np.abs(vals - (intercept + slope * ts)).max())


@functools.lru_cache(maxsize=64)
def _knot_pairs(size: int, grid_size: int):
    """Indices s < t of the pairs of at most `grid_size` evenly spread knots, built once per size."""
    pick = np.linspace(0, size - 1, min(size, grid_size)).round().astype(int)
    s, t = (pick[i] for i in np.triu_indices(pick.size, 1))
    s.flags.writeable = t.flags.writeable = False  # shared by every later call
    return s, t


def _functional_equation_holds(path, cls, tol, grid_size=50):
    """Validate phi at pairs s < t of (at most `grid_size`, evenly spread) knots, where the
    values are exact; between knots the interpolant of a curved family solves it only roughly."""
    ts, xs, ys = path.times, path.xs, path.ys
    s, t = _knot_pairs(ts.size, grid_size)
    xy, x2 = xs * ys, 2.0 * xs
    lhs = xy[s] + xy[t] - x2[s] * ys[t]
    ph = phi(cls, ts[t] - ts[s])
    return bool((np.abs(lhs - ph) <= tol * np.maximum(1.0, np.abs(ph))).all())


def _line_candidates(ts, xs, ys, span, tol):
    """One straight-line fit of x and y; every reading that fits within tol:
    family (i) where a flat coordinate names it horizontal or vertical, then (iii)."""
    a, b, resid_x = _fit_affine(ts, xs)
    c, negd, resid_y = _fit_affine(ts, ys)
    d = -negd
    scale_x = max(1.0, float(np.abs(xs).max()))
    scale_y = max(1.0, float(np.abs(ys).max()))
    level_x, level_y = float(xs.mean()), float(ys.mean())
    found = []
    if np.abs(ys - level_y).max() <= tol * scale_y and b > 0 and resid_x <= tol * scale_x:
        found.append(PathClass(PathTag.HORIZONTAL, {"a": level_y, "b": a, "c": b}, span))
    if np.abs(xs - level_x).max() <= tol * scale_x and d > 0 and resid_y <= tol * scale_y:
        found.append(PathClass(PathTag.VERTICAL, {"a": level_x, "b": c, "c": d}, span))
    if b > 0 and d > 0 and max(resid_x, resid_y) <= tol * max(scale_x, scale_y):
        found.append(PathClass(PathTag.LINEAR, {"a": a, "b": b, "c": c, "d": d}, span))
    return found


def _candidate_corner(ts, xs, ys, span, tol):
    best = None
    scale = max(1.0, float(np.abs(xs).max()), float(np.abs(ys).max()))
    # A corner at knot k needs xs[:k+1] and ys[k:] flat within tol * scale, and a
    # residual is at least half a stretch's range: skip ranges over 2 tol scale.
    spread = lambda v: np.maximum.accumulate(v) - np.minimum.accumulate(v)  # noqa: E731
    flat = np.maximum(spread(xs), spread(ys[::-1])[::-1]) <= 2.0 * tol * scale * (1.0 + 1e-9)
    for k in np.flatnonzero(flat[1:-1]) + 1:
        s_star = ts[k]
        a = float(xs[: k + 1].mean())
        b = float(ys[k:].mean())
        left, right = ts[: k + 1], ts[k:]
        c = _fit_affine(s_star - left, ys[: k + 1] - b)[1]
        d = _fit_affine(right - s_star, xs[k:] - a)[1]
        if a <= 0 or b <= 0 or c <= 0 or d <= 0:
            continue
        resid = max(
            float(np.abs(xs[: k + 1] - a).max()),
            float(np.abs(ys[k:] - b).max()),
            float(np.abs(ys[: k + 1] - (b + c * (s_star - left))).max()),
            float(np.abs(xs[k:] - (a + d * (right - s_star))).max()),
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


def _candidate_exponential(ts, xs, ys, span, tol):
    """Log-linear fit of x = a e^{ct}, y = b e^{-ct}, if no such curve is far off."""
    if (xs <= 0).any() or (ys <= 0).any():
        return None
    log_x, log_y = np.log(xs), np.log(ys)
    _, cx, _ = _fit_affine(ts, log_x)
    _, cy, _ = _fit_affine(ts, log_y)
    if cx <= 0 or cy >= 0:
        return None
    c = 0.5 * (cx - cy)
    ct = c * ts
    a = float(np.exp((log_x - ct).mean()))
    b = float(np.exp((log_y + ct).mean()))
    resid = max(
        float(np.abs(xs - a * np.exp(ct)).max()),
        float(np.abs(ys - b * np.exp(-ct)).max()),
    )
    scale = max(1.0, float(np.abs(xs).max()), float(np.abs(ys).max()))
    if resid / scale > np.sqrt(tol):  # loose pre-filter; the functional equation decides
        return None
    return PathClass(PathTag.EXPONENTIAL, {"a": a, "b": b, "c": c}, span)


def _classify_tabulated(path: TabulatedPath, tol: float) -> PathClass:
    if path.times.size < 3:
        raise ValueError("classification needs at least three knots")
    ts, xs, ys, span = path.times, path.xs, path.ys, path.span

    def candidates():  # fitted lazily: straight lines, then the corner, then the exponential
        yield from _line_candidates(ts, xs, ys, span, tol)
        yield _candidate_corner(ts, xs, ys, span, tol)
        yield _candidate_exponential(ts, xs, ys, span, tol)

    for cand in candidates():
        if cand is not None and _functional_equation_holds(path, cand, tol):
            return cand
    return PathClass(PathTag.NON_STATIONARY, {}, span)


def _check_tol(tol: float) -> float:
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and nonnegative, got {tol}")
    return tol


def classify(path: DecreasingPath, tol: float | None = None) -> PathClass:
    """Classify a path into the stationary-increment families, or NON_STATIONARY.

    Closed forms are read off structurally (a straight line with a zero slope
    is horizontal or vertical; the corner family additionally checks its
    a c = b d constraint); tabulated paths are classified by
    least-squares family fitting validated against the functional equation.
    """
    if isinstance(path, TabulatedPath):
        return _classify_tabulated(path, _check_tol(TABULATED_TOL if tol is None else tol))
    tol = _check_tol(CLOSED_FORM_TOL if tol is None else tol)
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
# Law-equivalence of paths
# ---------------------------------------------------------------------------

def equivalent(p1: DecreasingPath, p2: DecreasingPath, tol: float = 1e-9):
    """Scale p > 0 with x2 = p x1 and y2 = y1 / p on the common domain, or None,
    compared on an even probe grid joined with the knots and corners s* of both."""
    _check_tol(tol)
    if abs(p1.t_lo - p2.t_lo) > 1e-12 or abs(p1.t_hi - p2.t_hi) > 1e-12:
        raise ValueError("paths must share the same domain")
    kinks = [p.times if isinstance(p, TabulatedPath) else [getattr(p, "s_star", p.t_lo)]
             for p in (p1, p2)]
    ts = np.union1d(np.linspace(p1.t_lo, p1.t_hi, _PROBE_COUNT), np.concatenate(kinks))
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
    """The law-equivalent path (p x(t), y(t)/p): the form's x parameters times p, its y ones over p."""
    if not p > 0:
        raise ValueError("scale must be positive")
    if not isinstance(path, (*_CLOSED_FORMS, TabulatedPath)):
        raise TypeError(f"cannot rescale object of type {type(path).__name__}")
    return dataclasses.replace(path, **{name: p * getattr(path, name) for name in path.X_PARAMS},
                               **{name: getattr(path, name) / p for name in path.Y_PARAMS})


# ---------------------------------------------------------------------------
# JSON round-trip
# ---------------------------------------------------------------------------

def path_to_dict(path: DecreasingPath) -> dict:
    """A closed form as its `FORM` and its constructor's parameters in order; a tabulated
    path as its [t, x, y] knot rows."""
    if isinstance(path, TabulatedPath):
        knots = [[float(t), float(x), float(y)]
                 for t, x, y in zip(path.times, path.xs, path.ys)]
        return {"form": "tabulated", "knots": knots}
    if not isinstance(path, _CLOSED_FORMS):
        raise TypeError(f"cannot serialize object of type {type(path).__name__}")
    return {"form": path.FORM, **_spec_fields(path)}


def path_from_dict(spec: dict) -> DecreasingPath:
    form, = _read_spec(spec, "path spec", "form")
    what = f"path spec ({form})"
    if isinstance(form, str) and form in _CLOSED_BY_FORM:  # a JSON list or object is no form
        cls = _CLOSED_BY_FORM[form]
        return cls(*map(float, _read_spec(spec, what, *(f.name for f in dataclasses.fields(cls)))))
    if form == "horizontal":
        y, xi, xs, lo, hi = map(float, _read_spec(spec, what, "y", "x_intercept", "x_slope",
                                                  "t_lo", "t_hi"))
        return HorizontalPath.affine(xi, xs, y, lo, hi)
    if form == "vertical":
        x, yi, ys, lo, hi = map(float, _read_spec(spec, what, "x", "y_intercept", "y_slope",
                                                  "t_lo", "t_hi"))
        return VerticalPath.affine(yi, ys, x, lo, hi)
    if form == "tabulated":
        return TabulatedPath.from_knots(*_read_spec(spec, what, "knots"))
    raise ValueError(f"unknown path form {form!r}")
