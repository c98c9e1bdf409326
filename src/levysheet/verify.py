"""Statistical verification harness: empirical CFs, regressions, chi^2 and KS.

Law claims are checked against closed-form oracles through empirical
characteristic functions with conservative k/sqrt(N) error bands (k = 4 by
default, false-failure rate under 1e-4 per probe), least-squares regression
with robust standard errors for conditional-mean formulas, and standard
chi-square / Kolmogorov-Smirnov tests at 0.001 significance: planar samples
on 10 x 10 cells of a given support against each cell's exact mass, counts
against a pmf and real samples against a CDF (these two take another
threshold on request).
Everything is deterministic given the seed recorded in the report.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .fdd import conditional_mean

__all__ = [
    "EmpiricalCF",
    "TestReport",
    "empirical_cf",
    "pair_covariance",
    "cf_match",
    "conditional_mean_regression",
    "chi2_binned",
    "chi2_counts",
    "ks_1d",
]

P_THRESHOLD = 1e-3
_BINS = 10  # per axis of `chi2_binned`


@dataclass(frozen=True, eq=False)
class EmpiricalCF:
    """Sample means and standard errors of cos<z, X> and sin<z, X>."""

    z: np.ndarray
    n: int
    re: float
    im: float
    se_re: float
    se_im: float

    @property
    def value(self) -> complex:
        return complex(self.re, self.im)


@dataclass(frozen=True)
class TestReport:
    """Outcome of one deterministic check; it passes iff statistic <= threshold."""

    name: str
    statistic: float
    threshold: float
    seed: int | None = None
    n: int | None = None
    extra: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.statistic <= self.threshold

    def to_json(self) -> str:
        out = {
            "name": self.name,
            "statistic": self.statistic,
            "threshold": self.threshold,
            "passed": bool(self.passed),
            "seed": self.seed,
            "n": self.n,
        }
        out.update(self.extra)
        return json.dumps(out)


def empirical_cf(samples, z) -> EmpiricalCF:
    """Empirical characteristic function of the samples at probe z."""
    arr = np.asarray(samples, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    n = arr.shape[0]
    if n < 100:
        raise ValueError("empirical CF needs at least 100 samples")
    zz = np.atleast_1d(np.asarray(z, dtype=float))
    if zz.size != arr.shape[1]:
        raise ValueError("probe dimension does not match the samples")
    proj = arr @ zz
    cos, sin = np.cos(proj), np.sin(proj)
    return EmpiricalCF(
        z=zz,
        n=n,
        re=float(cos.mean()),
        im=float(sin.mean()),
        se_re=float(cos.std(ddof=1) / math.sqrt(n)),
        se_im=float(sin.std(ddof=1) / math.sqrt(n)),
    )


def pair_covariance(pairs) -> tuple[float, float]:
    """Sample covariance of the two columns of an (N, 2) array, with its SE.

    The covariance is mean(x y) - mean(x) mean(y); the standard error is that
    of mean(x y), std(x y) / sqrt(N) with ddof 1.
    """
    arr = np.asarray(pairs, dtype=float)
    prods = arr[:, 0] * arr[:, 1]
    cov = float(prods.mean() - arr[:, 0].mean() * arr[:, 1].mean())
    return cov, float(prods.std(ddof=1) / math.sqrt(arr.shape[0]))


def cf_match(emp: EmpiricalCF, analytic: complex, k: float = 4.0,
             name: str = "cf-match", seed: int | None = None) -> TestReport:
    """Compare the larger of the real and imaginary gaps with k / sqrt(N)."""
    if k < 3:
        raise ValueError("band width k must be at least 3")
    band = k / math.sqrt(emp.n)
    gap = max(abs(emp.re - analytic.real), abs(emp.im - analytic.imag))
    return TestReport(
        name=name,
        statistic=gap,
        threshold=band,
        seed=seed,
        n=emp.n,
        extra={"re": emp.re, "im": emp.im,
               "re_target": analytic.real, "im_target": analytic.imag},
    )


def _ols(x: np.ndarray, y: np.ndarray):
    """Least-squares line with heteroskedasticity-robust (HC0) standard errors.

    Both estimates are linear in y, sum_i w_i y_i, so each HC0 variance is
    sum_i w_i^2 e_i^2 over the residuals e_i.
    """
    n = x.size
    xbar, ybar = x.mean(), y.mean()
    dx = x - xbar
    sxx = float(np.sum(dx ** 2))
    if sxx == 0.0:
        raise ValueError("degenerate regressor")
    slope = float(np.sum(dx * (y - ybar)) / sxx)
    intercept = ybar - slope * xbar
    resid2 = (y - intercept - slope * x) ** 2
    w_slope = dx / sxx
    w_intercept = 1.0 / n - xbar * w_slope
    se_slope = math.sqrt(float(np.sum(w_slope ** 2 * resid2)))
    se_intercept = math.sqrt(float(np.sum(w_intercept ** 2 * resid2)))
    return slope, intercept, se_slope, se_intercept


def conditional_mean_regression(pairs, path, s: float, t: float, mean11: float,
                                k: float = 4.0, name: str = "conditional-mean",
                                seed: int | None = None) -> TestReport:
    """Regress values at t on values at s and compare with the closed form.

    The slope must match y(t)/y(s) and the intercept (x(t)-x(s)) y(t) mean11
    (`fdd.conditional_mean` at x_s = 1 with no drift, and at x_s = 0), each
    within k standard errors (plus a tiny absolute floor for the
    deterministic zero-residual case).  The standard errors are
    heteroskedasticity-robust (HC0): for a jump sheet the conditional variance
    of the value at t grows with the value at s.
    """
    arr = np.asarray(pairs, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("pairs must be an (N, 2) array of (value_s, value_t)")
    if arr.shape[0] < 100:
        raise ValueError("regression needs at least 100 pairs")
    slope_target = conditional_mean(0.0, path, s, t, 1.0)
    intercept_target = conditional_mean(mean11, path, s, t, 0.0)
    slope, intercept, se_slope, se_intercept = _ols(arr[:, 0], arr[:, 1])
    floor = 1e-9 * max(1.0, abs(slope_target), abs(intercept_target))
    gap_slope = abs(slope - slope_target)
    gap_intercept = abs(intercept - intercept_target)
    return TestReport(
        name=name,
        statistic=max(gap_slope / (k * se_slope + floor),
                      gap_intercept / (k * se_intercept + floor)),
        threshold=1.0,
        seed=seed,
        n=arr.shape[0],
        extra={"slope": slope, "slope_target": slope_target,
               "intercept": intercept, "intercept_target": intercept_target},
    )


def chi2_binned(samples2d, cell_prob, support, name: str = "chi2-2d",
                seed: int | None = None) -> TestReport:
    """Chi-square test of planar samples against a target law, on 10 x 10 cells.

    `support` = ((x0, x1), (y0, y1)) is split evenly, and `cell_prob(x0, x1, y0, y1)`
    gives the target's mass of a cell.  Samples outside the support fall in
    one more cell, whose expected count is n (1 - sum of the cell masses).
    Cells with expected count below 5 are pooled (standard practice).  The
    threshold is the statistic's value at p-value P_THRESHOLD.
    """
    arr = np.asarray(samples2d, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("samples2d must be an (N, 2) array")
    n = arr.shape[0]
    if n < 10_000:
        raise ValueError("chi-square binning needs at least 10^4 samples")
    (x0, x1), (y0, y1) = support
    counts, _, _ = np.histogram2d(arr[:, 0], arr[:, 1], bins=_BINS,
                                  range=[[x0, x1], [y0, y1]])
    xs = np.linspace(x0, x1, _BINS + 1)
    ys = np.linspace(y0, y1, _BINS + 1)
    expected = np.empty((_BINS, _BINS))
    for i in range(_BINS):
        for j in range(_BINS):
            expected[i, j] = n * cell_prob(xs[i], xs[i + 1], ys[j], ys[j + 1])
    observed, expected = counts.ravel(), expected.ravel()
    outside, missing = n - observed.sum(), n - expected.sum()
    # Below 1e-9 n, the missing mass is the rounding of the cell masses,
    # which _chi2_report renormalizes away.
    if outside > 0 or missing > 1e-9 * n:
        observed = np.append(observed, outside)
        expected = np.append(expected, max(missing, 0.0))
    obs, exp = _pool_small_cells(observed, expected)
    return _chi2_report(obs, exp, n, P_THRESHOLD, name, seed)


def chi2_counts(counts, pmf, p_threshold: float = P_THRESHOLD,
                name: str = "chi2-counts", seed: int | None = None) -> TestReport:
    """Chi-square test of nonnegative integer samples against a pmf callable."""
    arr = np.asarray(counts, dtype=int)
    n = arr.size
    kmax = int(arr.max(initial=0))
    observed = np.bincount(arr, minlength=kmax + 2).astype(float)
    expected = np.array([n * pmf(k) for k in range(kmax + 1)])
    expected = np.append(expected, max(n - expected.sum(), 0.0))  # upper tail
    obs, exp = _pool_small_cells(observed, expected)
    return _chi2_report(obs, exp, n, p_threshold, name, seed)


def _pool_small_cells(observed: np.ndarray, expected: np.ndarray,
                      min_expected: float = 5.0):
    """Merge cells with small expectation into a single pooled cell."""
    keep = expected >= min_expected
    obs = list(observed[keep])
    exp = list(expected[keep])
    if np.any(~keep):
        obs.append(float(observed[~keep].sum()))
        exp.append(float(expected[~keep].sum()))
    return np.array(obs), np.array(exp)


def _chi2_report(obs, exp, n, p_threshold, name, seed) -> TestReport:
    from scipy import stats  # deferred, like every scipy import: it is slow to load

    total = exp.sum()
    if total <= 0:
        raise ValueError("expected counts must be positive")
    exp = exp * obs.sum() / total  # renormalize rounding of the target masses
    positive = exp > 0
    stat = float(np.sum((obs[positive] - exp[positive]) ** 2 / exp[positive]))
    if np.any(obs[~positive] > 0):
        stat = math.inf  # samples where the target has no mass refute it
    dof = int(positive.sum()) - 1
    if dof < 1:
        raise ValueError("not enough cells for a chi-square test")
    pvalue = float(stats.chi2.sf(stat, dof))
    return TestReport(
        name=name,
        statistic=stat,
        threshold=float(stats.chi2.isf(p_threshold, dof)),
        seed=seed,
        n=n,
        extra={"pvalue": pvalue, "dof": dof},
    )


def ks_1d(samples, cdf, p_threshold: float = P_THRESHOLD,
          name: str = "ks-1d", seed: int | None = None) -> TestReport:
    """Kolmogorov-Smirnov test of real samples against a CDF callable.

    Reports the statistic D against the critical D at which the p-value
    reaches p_threshold.
    """
    from scipy import stats

    arr = np.asarray(samples, dtype=float).ravel()
    if arr.size < 10_000:
        raise ValueError("KS test needs at least 10^4 samples")
    result = stats.ks_1samp(arr, cdf)
    return TestReport(
        name=name,
        statistic=float(result.statistic),
        threshold=float(stats.kstwo.isf(p_threshold, arr.size)),
        seed=seed,
        n=arr.size,
        extra={"pvalue": float(result.pvalue)},
    )
