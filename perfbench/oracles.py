"""Closed forms and estimators the benchmark checks levysheet against.

Nothing here imports levysheet: every value is derived from the paper's
formulas (or elementary probability) by the benchmark's own code, so a check
compares the program with an independent computation, never with a stored
copy of an earlier output.

Statistical bands are sized for a designed false-failure probability of
`P_FALSE` per check.  Means of bounded variables use the empirical-Bernstein
inequality, which holds for any sample size; near-Gaussian statistics use
`Z_BAND` standard errors (two-sided normal tail 2.6e-12), leaving room for
skew; chi-square and KS tests must give a p-value above `P_FALSE`.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr

P_FALSE = 1e-10
Z_BAND = 7.0
EPS = np.finfo(float).eps


def bernstein_band(var: float, n: int, width: float, p: float = P_FALSE) -> float:
    """Empirical-Bernstein half-width (Maurer and Pontil 2009) for a mean of n
    variables in an interval of `width` with sample variance `var`; two-sided,
    failing with probability at most p.  Tighter than Hoeffding when var is small.
    """
    log_term = math.log(4.0 / p)
    return math.sqrt(2.0 * var * log_term / n) + 7.0 * width * log_term / (3.0 * (n - 1))


def cf_rounding_tol(n: int) -> float:
    """Tolerance for two evaluations of an n-time CF that round differently.

    The exponent is a sum of O(n^2) terms of order one, so the two results may
    differ by a few units of n^2 * eps; 1e-12 is the floor that the library's
    own exact identities are gated at.
    """
    return max(1e-12, 64.0 * EPS * n * n)


# ---------------------------------------------------------------------------
# Path coordinates and sweep inverses, per path form
# ---------------------------------------------------------------------------

class Coords:
    """x(t), y(t) and the sweep inverses of one path form, from its parameters.

    `form` is one of linear, exponential, corner, tabulated; `p` holds the
    form's parameters in the library's naming (a, b, c, d, s_star), or the
    knot arrays ts, xs, ys of a tabulated path.
    Inverses return NaN where the library returns None.
    """

    def __init__(self, form: str, t_lo: float, t_hi: float, **p):
        self.form, self.t_lo, self.t_hi, self.p = form, t_lo, t_hi, p

    def x(self, t):
        t, p = np.asarray(t, dtype=float), self.p
        if self.form == "linear":
            return p["a"] + p["b"] * t
        if self.form == "exponential":
            return p["a"] * np.exp(p["c"] * t)
        if self.form == "corner":
            return p["a"] + p["d"] * np.maximum(t - p["s_star"], 0.0)
        return np.interp(t, p["ts"], p["xs"])

    def y(self, t):
        t, p = np.asarray(t, dtype=float), self.p
        if self.form == "linear":
            return p["c"] - p["d"] * t
        if self.form == "exponential":
            return p["b"] * np.exp(-p["c"] * t)
        if self.form == "corner":
            return p["b"] + p["c"] * np.maximum(p["s_star"] - t, 0.0)
        return np.interp(t, p["ts"], p["ys"])

    def first_x_at_least(self, u):
        """inf{t : x(t) >= u} for an array of levels u."""
        u, p = np.asarray(u, dtype=float), self.p
        if self.form == "tabulated":
            ts, xs = p["ts"], p["xs"]
            k = np.clip(np.searchsorted(xs, u, side="left"), 1, xs.size - 1)
            frac = (u - xs[k - 1]) / np.where(xs[k] > xs[k - 1], xs[k] - xs[k - 1], 1.0)
            out = ts[k - 1] + frac * (ts[k] - ts[k - 1])
        elif self.form == "linear":
            out = (u - p["a"]) / p["b"]
        elif self.form == "exponential":
            out = np.log(u / p["a"]) / p["c"]
        else:
            out = p["s_star"] + (u - p["a"]) / p["d"]
        out = np.where(u <= self.x(self.t_lo), self.t_lo, out)
        return np.where(u > self.x(self.t_hi), np.nan, out)

    def last_y_at_least(self, v):
        """sup{t : y(t) >= v} for an array of levels v."""
        v, p = np.asarray(v, dtype=float), self.p
        if self.form == "tabulated":
            ts, ys = p["ts"], p["ys"]
            k = np.clip(np.searchsorted(-ys, -v, side="right") - 1, 0, ys.size - 2)
            frac = (ys[k] - v) / np.where(ys[k] > ys[k + 1], ys[k] - ys[k + 1], 1.0)
            out = ts[k] + frac * (ts[k + 1] - ts[k])
        elif self.form == "linear":
            out = (p["c"] - v) / p["d"]
        elif self.form == "exponential":
            out = np.log(p["b"] / v) / p["c"]
        else:
            out = p["s_star"] - (v - p["b"]) / p["c"]
        out = np.where(v <= self.y(self.t_hi), self.t_hi, out)
        return np.where(v > self.y(self.t_lo), np.nan, out)


def sheet_values(locations, jumps, xs, ys):
    """Brute-force sheet values over (0, x] x (0, y] for each (x, y) pair; (k, d)."""
    u, v = locations[:, 0], locations[:, 1]
    inside = (u[None, :] <= np.asarray(xs)[:, None]) & (v[None, :] <= np.asarray(ys)[:, None])
    return inside.astype(float) @ jumps


def increment_area(xs, ys, xt, yt):
    """x(s)y(s) + x(t)y(t) - 2x(s)y(t): the stationarity functional equation's left side."""
    return xs * ys + xt * yt - 2.0 * xs * yt


# ---------------------------------------------------------------------------
# Characteristic exponents and finite-dimensional CFs
# ---------------------------------------------------------------------------

def atom_psi(z, points, masses, drift: float):
    """psi(z) = i drift z + sum_k m_k (e^{i z x_k} - 1) for real z (any shape)."""
    z = np.asarray(z, dtype=float)
    phase = z[..., None] * np.asarray(points, dtype=float)
    return 1j * drift * z + np.sum(np.asarray(masses) * np.expm1(1j * phase), axis=-1)


def gaussian_psi(z):
    """psi(z) = -|z|^2 / 2 of the standard Brownian sheet; z has shape (..., d)."""
    z = np.asarray(z, dtype=float)
    return -0.5 * np.sum(z * z, axis=-1)


def gaussian_joint_cf(xs, ys, zs) -> float:
    """exp(-1/2 sum_ij z_i.z_j x(t_min) y(t_max)) at increasing times."""
    idx = np.arange(len(xs))
    cov = np.asarray(xs)[np.minimum.outer(idx, idx)] * np.asarray(ys)[np.maximum.outer(idx, idx)]
    gram = zs @ zs.T
    return float(np.exp(-0.5 * np.sum(cov * gram)))


def rectangle_cf(psi, xs, ys, zs) -> complex:
    """exp(sum over rectangles B_ik of m(B_ik) psi(z_i + ... + z_k)), real-valued laws.

    Rectangle (i, k), i <= k, spans (x_{i-1}, x_i] x (y_{k+1}, y_k] with
    x_{-1} = y_n = 0, evaluated for all pairs at once from prefix sums of z.
    """
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    z = np.asarray(zs, dtype=float).reshape(-1)
    dx = np.diff(np.concatenate([[0.0], xs]))
    dy = ys - np.concatenate([ys[1:], [0.0]])
    prefix = np.concatenate([[0.0], np.cumsum(z)])
    i, k = np.triu_indices(xs.size)
    return complex(np.exp(np.sum(dx[i] * dy[k] * psi(prefix[k + 1] - prefix[i]))))


def pinned_bridge_cf(t: float, z: float) -> float:
    """CF of the Brownian sheet on the line (t, 1 - t): exp(-z^2 x(t) y(t) / 2)."""
    return math.exp(-0.5 * z * z * t * (1.0 - t))


def ou_gap(psi, c: float, t: float, z: float) -> float:
    """|CF of the OU-type integrated driver - CF along the exponential path| at (t, z)."""
    ect, emct = math.exp(c * t), math.exp(-c * t)
    ou = np.exp(psi(ect * z) - psi(z))
    sheet = np.exp(emct * psi((ect - 1.0) * z) + (1.0 - emct) * (psi(ect * z) + psi(-z)))
    return float(abs(ou - sheet))


# ---------------------------------------------------------------------------
# Gaussian crossings
# ---------------------------------------------------------------------------

def crossing_prob(r_s: float, r_t: float) -> float:
    """P(BM has a zero in (r_s, r_t)) = (2/pi) arccos sqrt(r_s / r_t)."""
    return 2.0 / math.pi * math.acos(math.sqrt(r_s / r_t))


def bridge_crossing(w, r):
    """Per-path probability of a zero between the first and last grid times.

    `w` holds a Brownian motion (in time `r`) on a grid, one path per row.
    Between two grid values a, b of equal sign the Brownian bridge reaches
    zero with probability exp(-2ab/dr), and a sign change is a sure crossing
    (Glasserman 2004, section 6.4).  Conditional on the grid values the
    bridges are independent, so the row mean is an unbiased estimator of the
    continuous-time crossing probability whatever the grid.
    """
    a, b = w[:, :-1], w[:, 1:]
    prod = a * b
    with np.errstate(divide="ignore", over="ignore"):
        hit = np.exp(-2.0 * np.maximum(prod, 0.0) / np.diff(r))
        log_miss = np.where(prod > 0.0, np.log1p(-hit), -np.inf)
    return -np.expm1(log_miss.sum(axis=1))


def sign_changes(w):
    """1.0 for each row whose grid values change sign, else 0.0."""
    s = np.signbit(w)
    return np.any(s[:, 1:] != s[:, :-1], axis=1).astype(float)


std_normal_cdf = ndtr


def uniform_cdf(t):
    """CDF of the uniform law on [0, 1]."""
    return np.clip(t, 0.0, 1.0)


# ---------------------------------------------------------------------------
# Compound-Poisson laws
# ---------------------------------------------------------------------------

def rearranged_difference_cf(rate: float, l: float, s: float, t: float,
                             z1: float, z2: float) -> float:
    """CF of (Z_s, Z_t) for Z = Y - Y', Y a rate-`rate` CPP with +/-1 jumps on [0, l].

    Each jump contributes J (1{U<=.} - 1{V<=.}) with U, V independent
    uniform times, so the CF is exp(rate l (sum_aa' p_a p_a' cos(c_a - c_a') - 1))
    with p the chances of landing in [0,s], (s,t], (t,l] and c = (z1+z2, z2, 0).
    """
    p = np.array([s, t - s, l - t]) / l
    c = np.array([z1 + z2, z2, 0.0])
    inner = float(np.sum(np.outer(p, p) * np.cos(np.subtract.outer(c, c))))
    return math.exp(rate * l * (inner - 1.0))


def bridge_cumulants(rate: float, l: float, t: float, m2: float, m4: float):
    """(kappa2, kappa4) of the scaled rearranged difference at t, Y ~ CPP(rate) on [0, l]."""
    q = t / l
    w2 = 2.0 * q * (1.0 - q)  # E w^2 = E w^4 for w = 1{U<=t} - 1{V<=t}
    norm2 = 2.0 * m2 * rate
    return rate * l * m2 * w2 / norm2, rate * l * m4 * w2 / norm2 ** 2


def centred_cumulants(rate: float, l: float, m2: float, m4: float):
    """(kappa2, kappa4) of (Y_l - rate mu1 l) / sqrt(2 m2 rate)."""
    norm2 = 2.0 * m2 * rate
    return rate * l * m2 / norm2, rate * l * m4 / norm2 ** 2


def walk_cov(n: int, l: float, mu1: float, mu2: float, s: float, t: float) -> float:
    """Finite-n covariance (1 - mu1^2/mu2)(k_s/n)(1 - k_t/N) of the permuted-walk difference."""
    total = math.floor(n * l)
    ks, kt = math.floor(n * min(s, t)), math.floor(n * max(s, t))
    return (1.0 - mu1 ** 2 / mu2) * (ks / n) * (1.0 - kt / total)


def poisson_pmf(mean: float):
    return lambda k: math.exp(-mean + k * math.log(mean) - math.lgamma(k + 1))


def square_sd(kappa2: float, kappa4: float) -> float:
    """Standard deviation of X^2 for a centred X with cumulants kappa2, kappa4."""
    return math.sqrt(kappa4 + 2.0 * kappa2 ** 2)


# ---------------------------------------------------------------------------
# Regression
# ---------------------------------------------------------------------------

def ols_hc0(x, y):
    """Least squares y = a + b x with heteroskedasticity-robust (HC0) standard errors.

    Returns (slope, intercept, se_slope, se_intercept).
    """
    design = np.column_stack([np.ones_like(x), x])
    gram_inv = np.linalg.inv(design.T @ design)
    coef = gram_inv @ design.T @ y
    resid = y - design @ coef
    meat = design.T @ (design * (resid ** 2)[:, None])
    cov = gram_inv @ meat @ gram_inv
    return float(coef[1]), float(coef[0]), math.sqrt(cov[1, 1]), math.sqrt(cov[0, 0])
