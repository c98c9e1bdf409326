"""Named verification suites run by `levysheet verify` and the acceptance tests.

Each criterion function takes the seed as its only parameter (its sample
sizes are fixed inside it), is deterministic given the seed, draws its random
input from its own stream, and returns a list of TestReports, one per
sub-check.  Every check passes iff its statistic is at most its threshold.
`CRITERIA` wraps the criteria named in the one budget table `_BUDGETS`
(seconds per criterion number) so that each of them also times its whole
call and appends a `cN.runtime` report against its budget.  Suites group the
criteria by subject: fdd, gauss, jumps, stationary; `all` is their union and
runs them in criterion order.
"""

from __future__ import annotations

import functools
import math
import time

import numpy as np

from . import fdd, gauss, jumpsim, stationary, verify
from .exponent import (
    Categorical,
    TwoPoint,
    brownian,
    cpp_from_atoms,
    pure_drift,
)
from .paths import (
    ExponentialPath,
    HorizontalPath,
    LinearPath,
    PathTag,
    TabulatedPath,
    VerticalPath,
    VThenHPath,
    classify,
    scaled,
    symmetric_increment_area,
)

__all__ = ["DEFAULT_SEED", "SUITE_NAMES", "run_suite", "CRITERIA"]

DEFAULT_SEED = 1


def _rng(seed: int, tag: int):
    return np.random.default_rng([seed, tag])


def _report(name, statistic, threshold, seed, n=None, **extra):
    statistic, threshold = float(statistic), float(threshold)
    return verify.TestReport(name=name, statistic=statistic, threshold=threshold,
                             seed=seed, n=n, extra=extra)


# ---------------------------------------------------------------------------
# Random instances shared by several criteria
# ---------------------------------------------------------------------------

def _random_stationary_path(rng, family: str):
    t_hi = float(rng.uniform(0.5, 2.0))
    if family == "horizontal":
        return HorizontalPath.affine(rng.uniform(0.0, 1.0), rng.uniform(0.5, 2.0),
                                     rng.uniform(0.5, 2.0), 0.0, t_hi)
    if family == "vertical":
        slope = rng.uniform(0.5, 2.0)
        intercept = slope * t_hi + rng.uniform(0.1, 1.0)
        return VerticalPath.affine(intercept, slope, rng.uniform(0.5, 2.0), 0.0, t_hi)
    if family == "corner":
        a, b, c = rng.uniform(0.5, 2.0, size=3)
        return VThenHPath(float(rng.uniform(0.25, 0.75)) * t_hi, a, b, c,
                          a * c / b, 0.0, t_hi)
    if family == "linear":
        b, d = rng.uniform(0.5, 2.0, size=2)
        a = rng.uniform(0.0, 1.0)
        c = d * t_hi + rng.uniform(0.05, 1.0)
        return LinearPath(a, b, c, d, 0.0, t_hi)
    if family == "exponential":
        a, b, c = rng.uniform(0.5, 2.0, size=3)
        return ExponentialPath(a, b, c, 0.0, t_hi)
    raise ValueError(family)


_FAMILIES = ("horizontal", "vertical", "corner", "linear", "exponential")


def _random_path(rng):
    return _random_stationary_path(rng, _FAMILIES[rng.integers(len(_FAMILIES))])


def _random_times(rng, path, n):
    span = path.t_hi - path.t_lo
    ts = path.t_lo + span * np.sort(rng.uniform(0.05, 0.95, size=n))
    while np.any(np.diff(ts) <= 0):
        ts = path.t_lo + span * np.sort(rng.uniform(0.05, 0.95, size=n))
    return ts


def _nonstationary_tabulated(rng, kind: int) -> TabulatedPath:
    ts = np.linspace(0.1, 0.9, 64)
    if kind == 0:
        power = rng.uniform(1.3, 2.5)
        return TabulatedPath(ts, ts ** power, 1.0 - ts / 2.0)
    if kind == 1:
        a, b = rng.uniform(0.8, 1.5, size=2)
        c = rng.uniform(0.6, 1.2)
        ratio = rng.uniform(0.4, 0.7)
        return TabulatedPath(ts, a * np.exp(c * ts), b * np.exp(-ratio * c * ts))
    xs = ts + np.cumsum(np.abs(rng.normal(0.0, 0.01, size=ts.size)))
    return TabulatedPath(ts, xs, 1.05 - ts)


# ---------------------------------------------------------------------------
# Criterion 1: the path classifier and its phi
# ---------------------------------------------------------------------------

_EXPECTED_TAG = {
    "horizontal": PathTag.HORIZONTAL,
    "vertical": PathTag.VERTICAL,
    "corner": PathTag.V_THEN_H,
    "linear": PathTag.LINEAR,
    "exponential": PathTag.EXPONENTIAL,
}


def criterion_1(seed: int = DEFAULT_SEED):
    rng = _rng(seed, 1)
    tag_failures = 0
    worst_resid = 0.0
    families = ["horizontal"] * 10 + ["vertical"] * 10 + ["corner"] * 20 \
        + ["linear"] * 20 + ["exponential"] * 20
    for family in families:
        path = _random_stationary_path(rng, family)
        cls = classify(path)
        if cls.tag is not _EXPECTED_TAG[family]:
            tag_failures += 1
            continue
        s = rng.uniform(path.t_lo, path.t_hi, size=1000)
        t = rng.uniform(path.t_lo, path.t_hi, size=1000)
        s, t = np.minimum(s, t), np.maximum(s, t)
        keep = t > s
        lhs = symmetric_increment_area(path, s[keep], t[keep])
        ph = cls.phi(t[keep] - s[keep])
        resid = float(np.max(np.abs(lhs - ph) / np.maximum(1.0, np.abs(ph))))
        worst_resid = max(worst_resid, resid)
    nonstat_failures = 0
    for k in range(20):
        tab = _nonstationary_tabulated(rng, k % 3)
        if classify(tab).tag is not PathTag.NON_STATIONARY:
            nonstat_failures += 1
    return [
        _report("c1.tags", tag_failures, 0.5, seed, n=80),
        _report("c1.phi-residual", worst_resid, 1e-9, seed, n=80_000),
        _report("c1.perturbed-nonstationary", nonstat_failures, 0.5, seed, n=20),
    ] + _increment_law(seed)


# (law, symmetric): the paper's theorem gives every family stationary increments
# under a symmetric law, and under any other only a single leg or an exponential path.
_INCREMENT_LAWS = (
    (brownian(1), True),
    (cpp_from_atoms([(1.0, 1.0), (-1.0, 1.0)]), True),
    (cpp_from_atoms([(1.0, 0.7), (-0.5, 1.2)], drift=0.3), False),
    (pure_drift(0.5), False),
)


def _increment_law(seed: int):
    """`fdd.increment_cf` against the theorem's `fdd.stationary_increment_cf` on 20
    paths of each family, one probe (s, t, z) per path, from a stream of its own."""
    rng = np.random.default_rng([seed, 1, 1])
    worst, compared, wrong_raises = 0.0, 0, 0
    for family in [f for f in _FAMILIES for _ in range(20)]:
        path = _random_stationary_path(rng, family)
        cls = classify(path)
        s, t = np.sort(rng.uniform(path.t_lo, path.t_hi, size=2))
        z = float(rng.uniform(-3.0, 3.0))
        for triplet, symmetric in _INCREMENT_LAWS:
            must_raise = not symmetric and family in ("corner", "linear")
            try:
                law = fdd.stationary_increment_cf(triplet, cls, t - s, z)
            except ValueError:
                wrong_raises += not must_raise
                continue
            wrong_raises += must_raise
            worst = max(worst, abs(fdd.increment_cf(triplet, path, s, t, z) - law))
            compared += 1
    n_pairs = 20 * len(_FAMILIES) * len(_INCREMENT_LAWS)
    return [
        _report("c1.increment-law", worst, 1e-12, seed, n=compared),
        _report("c1.increment-law-raises", wrong_raises, 0.5, seed, n=n_pairs),
    ]


# ---------------------------------------------------------------------------
# Criterion 2: general FDD formula vs the Gaussian quadratic form
# ---------------------------------------------------------------------------

def criterion_2(seed: int = DEFAULT_SEED):
    rng = _rng(seed, 2)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(1, 6))
        path = _random_path(rng)
        times = _random_times(rng, path, n)
        zs = rng.normal(0.0, 1.0, size=(n, d))
        triplet = brownian(d)
        law = gauss.GaussPathLaw(path, dim=d)
        gap = abs(fdd.joint_cf(triplet, path, times, zs)
                  - gauss.gaussian_joint_cf(law, times, zs))
        worst = max(worst, gap)
    return [
        _report("c2.cf-agreement", worst, 1e-12, seed, n=100),
    ]


# ---------------------------------------------------------------------------
# Criterion 3: the pinned straight-line path simulates a standard bridge
# ---------------------------------------------------------------------------

def criterion_3(seed: int = DEFAULT_SEED):
    rng, n_paths = _rng(seed, 3), 100_000
    path = LinearPath(0.0, 1.0, 1.0, 1.0, 0.0, 1.0)
    grid = np.array([0.0, 0.3, 0.5, 0.6, 1.0])
    vals = jumpsim.simulate_triplet(brownian(1), path, grid, n_paths, rng)[:, :, 0]
    var_mid = float(vals[:, 2].var())
    cov = float(np.cov(vals[:, 1], vals[:, 3])[0, 1])
    endpoints_zero = bool(np.all(vals[:, 0] == 0.0) and np.all(vals[:, -1] == 0.0))
    return [
        _report("c3.var-at-half", abs(var_mid - 0.25), 0.01, seed, n=n_paths, value=var_mid),
        _report("c3.cov-03-06", abs(cov - 0.12), 0.01, seed, n=n_paths, value=cov),
        _report("c3.endpoints-pinned", 0.0 if endpoints_zero else 1.0, 0.5, seed, n=n_paths),
    ]


# ---------------------------------------------------------------------------
# Criterion 4: zero-crossing probabilities (MC and quadrature oracles)
# ---------------------------------------------------------------------------

def criterion_4(seed: int = DEFAULT_SEED):
    from scipy.integrate import quad  # deferred: scipy is slow to import

    rng, n_paths, grid_points = _rng(seed, 4), 100_000, 10_000
    path = LinearPath(0.0, 1.0, 1.0, 1.0, 0.0, 1.0)
    law = gauss.GaussPathLaw(path)
    s, t = 0.25, 0.75
    target = gauss.zero_prob(law, s, t)
    freq = gauss.zero_crossing_frequency(law, s, t, n_paths, grid_points, rng)

    z = 0.1
    closed = gauss.zero_prob_conditional(law, s, t, z)
    _, (xs, xt), (ys, yt) = path.grid([s, t])
    scale = float(abs(z / ys))
    gap = xt / yt - xs / ys
    integral, _ = quad(lambda u: u ** -1.5 * math.exp(-scale ** 2 / (2.0 * u)),
                       0.0, gap, limit=200)
    quad_value = scale / math.sqrt(2.0 * math.pi) * integral
    return [
        _report("c4.mc-crossing", abs(freq - target), 0.02, seed, n=n_paths,
                value=freq, target=target),
        _report("c4.conditional-quadrature", abs(closed - quad_value), 1e-8, seed,
                value=closed, target=quad_value),
    ]


# ---------------------------------------------------------------------------
# Criterion 5: cancelling jumps (exact restriction, even counts, Poisson law)
# ---------------------------------------------------------------------------

def _dyadic_jump_dist(rng) -> Categorical:
    support = np.array([-2.0, -1.5, -1.0, -0.5, -0.25, 0.25, 0.5, 1.0, 1.5, 2.0])
    k = int(rng.integers(2, 5))
    points = rng.choice(support, size=k, replace=False)[:, None]
    probs = rng.uniform(0.5, 1.5, size=k)
    return Categorical(points, probs / probs.sum())


def criterion_5(seed: int = DEFAULT_SEED):
    rng, n_fields, n_sims = _rng(seed, 5), 100, 10_000
    exact_failures = 0
    for i in range(n_fields):
        if i % 2 == 0:
            t_hi = float(rng.uniform(0.5, 1.5))
            b, d = rng.uniform(0.5, 2.0, size=2)
            path = LinearPath(rng.uniform(0.0, 0.5), b, d * t_hi + rng.uniform(0.05, 0.5),
                              d, 0.0, t_hi)
        else:
            a, b, c = rng.uniform(0.5, 1.5, size=3)
            path = ExponentialPath(a, b, c, 0.0, float(rng.uniform(0.5, 1.0)))
        cover = jumpsim.path_region(path)
        region = jumpsim.RectRegion(cover.x_max * rng.uniform(1.0, 1.4),
                                    cover.y_max * rng.uniform(1.0, 1.4))
        field = jumpsim.simulate_cpp_sheet(8.0 / region.area, _dyadic_jump_dist(rng),
                                           region, rng)
        events = jumpsim.restrict_to_path(field, path)
        probes = rng.uniform(path.t_lo, path.t_hi, size=25)
        vals = events.values(probes)
        for tt, got in zip(probes, vals):
            want = jumpsim.rectangle_sum(field, float(path.x(tt)), float(path.y(tt)))
            if not np.array_equal(got, want):
                exact_failures += 1
    # on the bridge every sheet jump below the sweep pairs up; half-counts are Poisson
    path, rate = LinearPath(0.0, 1.0, 1.0, 1.0, 0.0, 1.0), 4.0
    paired = jumpsim.paired_event_counts(path, rate, n_sims, rng)
    halves, mean = paired // 2, rate * jumpsim.swept_exit_area(path)
    chi2 = verify.chi2_counts(halves, lambda k: math.exp(-mean) * mean ** k / math.factorial(k))
    return [
        _report("c5.exact-restriction", exact_failures, 0.5, seed, n=n_fields * 25),
        _report("c5.even-counts", 0.0 if np.all(paired % 2 == 0) else 1.0, 0.5,
                seed, n=n_sims),
        _report("c5.half-count-poisson", chi2.statistic, chi2.threshold, seed, n=n_sims,
                pvalue=chi2.extra["pvalue"], mean_half_count=float(halves.mean()),
                expected=mean),
    ]


# ---------------------------------------------------------------------------
# Criterion 6: the uniform-triangle-to-order-statistics map
# ---------------------------------------------------------------------------

def _order_stat_cdf(p: float, q: float, l: float) -> float:
    """P(min <= p, max <= q) for two independent uniforms on (0, l)."""
    p = min(max(p, 0.0), l)
    q = min(max(q, 0.0), l)
    if q <= p:
        return (q / l) ** 2
    return (q / l) ** 2 - ((q - p) / l) ** 2


def criterion_6(seed: int = DEFAULT_SEED):
    rng, n_samples = _rng(seed, 6), 100_000
    b, c, l = 2.0, 3.0, 1.5
    region = jumpsim.TriangleRegion(b * l, c)
    taus = jumpsim.triangle_to_order_stats(region.sample(rng, n_samples), b, c, l)

    def cell_prob(x0, x1, y0, y1):
        return (_order_stat_cdf(x1, y1, l) - _order_stat_cdf(x0, y1, l)
                - _order_stat_cdf(x1, y0, l) + _order_stat_cdf(x0, y0, l))

    chi2 = verify.chi2_binned(taus, cell_prob, ((0.0, l), (0.0, l)),
                              name="c6.order-stat-chi2", seed=seed)
    ks = verify.ks_1d(taus[:, 0], lambda t: 1.0 - (1.0 - np.clip(t, 0.0, l) / l) ** 2,
                      name="c6.min-uniform-ks", seed=seed)
    return [chi2, ks]


# ---------------------------------------------------------------------------
# Criterion 7: rearranged difference matches the symmetrized-sheet law
# ---------------------------------------------------------------------------

def criterion_7(seed: int = DEFAULT_SEED):
    rng, n_rep = _rng(seed, 7), 100_000
    y, y_prime = jumpsim.rearranged_pairs(2.0, TwoPoint(1.0), 1.0, [0.3, 0.7], n_rep, rng)
    zvals = (y - y_prime)[:, :, 0]
    sheet = cpp_from_atoms([(1.0, 2.0), (-1.0, 2.0)])  # nu + dual(nu) for rate-2 +/-1 jumps
    path = LinearPath(0.0, 1.0, 1.0, 1.0, 0.0, 1.0)
    reports = []
    for probe in ([1.0, 0.0], [0.7, -0.4], [1.0, 1.0]):
        emp = verify.empirical_cf(zvals, np.asarray(probe))
        target = fdd.joint_cf(sheet, path, [0.3, 0.7], np.asarray(probe).reshape(2, 1))
        reports.append(verify.cf_match(emp, target, name=f"c7.joint-cf@{probe}", seed=seed))
    return reports


# ---------------------------------------------------------------------------
# Criterion 8: diffusion-scale bridge convergence at the reported scale
# ---------------------------------------------------------------------------

def criterion_8(seed: int = DEFAULT_SEED):
    rng, rate, n_rep = _rng(seed, 8), 1000, 10_000
    dist = TwoPoint(1.0)
    draws = jumpsim.bridge_experiments(rate, dist, 1.0, [0.5, 1.0], n_rep, rng)
    var_mid = float(draws.values[:, 0].var())
    var_a = float(draws.centered_original[:, 1].var())
    # at t = 1 both paths sum the same jumps; at t = 0.5 the rearranged one differs
    var_b = float(draws.centered_rearranged[:, 0].var())

    walk = jumpsim.random_walk_bridges(rate, 1.0, dist, n_rep, rng, grid=[0.3, 0.6])
    cov, cov_se = verify.pair_covariance(walk)
    cov_target = jumpsim.rw_bridge_cov(rate, 1.0, 0.0, 1.0, 0.3, 0.6)
    return [
        _report("c8.bridge-var-at-half", abs(var_mid - 0.25), 0.02, seed, n=n_rep,
                value=var_mid),
        _report("c8.component-var-original", abs(var_a - 0.5), 0.03, seed, n=n_rep,
                value=var_a),
        _report("c8.component-var-rearranged", abs(var_b - 0.25), 0.015, seed, n=n_rep,
                value=var_b),
        _report("c8.walk-covariance", abs(cov - cov_target), 4.0 * cov_se, seed, n=n_rep,
                value=cov, target=cov_target),
    ]


# ---------------------------------------------------------------------------
# Criterion 9: exponential-path stationarity
# ---------------------------------------------------------------------------

def criterion_9(seed: int = DEFAULT_SEED):
    rng, n_paths = _rng(seed, 9), 100_000
    law = stationary.StationaryLaw(brownian(1), a=1.0, b=0.5, c=1.0)
    lags = [0.1, 0.5, 1.0]
    grid = np.array([0.0] + lags)
    vals = jumpsim.simulate_triplet(law.triplet, law.path(grid[-1]), grid, n_paths, rng)[:, :, 0]
    reports = []
    worst = 0.0
    for j, u in enumerate(lags):
        corr = float(np.corrcoef(vals[:, 0], vals[:, j + 1])[0, 1])
        target = stationary.autocorrelation(law, u)
        worst = max(worst, abs(corr - target))
    reports.append(_report("c9.autocorrelation", worst, 0.02, seed, n=n_paths))

    shift_gap = 0.0
    path = law.path(4.0)
    for triplet in (brownian(1), cpp_from_atoms([(1.0, 1.0), (-1.0, 1.0)])):
        for _ in range(20):
            times = np.sort(rng.uniform(0.0, 2.0, size=3))
            while np.any(np.diff(times) <= 0):
                times = np.sort(rng.uniform(0.0, 2.0, size=3))
            tau = rng.uniform(0.0, 2.0)
            zs = rng.normal(0.0, 1.0, size=(3, 1))
            base = fdd.joint_cf(triplet, path, times, zs)
            shifted = fdd.joint_cf(triplet, path, times + tau, zs)
            shift_gap = max(shift_gap, abs(base - shifted))
    reports.append(_report("c9.shift-invariance", shift_gap, 1e-12, seed, n=40))
    return reports


# ---------------------------------------------------------------------------
# Criterion 10: OU-type discrimination
# ---------------------------------------------------------------------------

def criterion_10(seed: int = DEFAULT_SEED):
    one_atom = cpp_from_atoms([(1.0, 1.0)])
    jump_report = stationary.distinguish_ou(one_atom, 1.0)
    gauss_report = stationary.distinguish_ou(brownian(1), 1.0)
    return [
        # Passes iff some probe's CF gap reaches the witness threshold.
        _report("c10.jump-law-witness",
                jump_report.gap_threshold / max(jump_report.max_gap, 1e-300), 1.0, seed,
                n=jump_report.n_probes, max_gap=jump_report.max_gap,
                witness_gap=None if jump_report.witness is None else jump_report.witness.gap),
        _report("c10.gaussian-indistinguishable", gauss_report.max_gap, 1e-10, seed,
                n=gauss_report.n_probes),
    ]


# ---------------------------------------------------------------------------
# Criterion 11: law rescaling invariance and conditional-mean regressions
# ---------------------------------------------------------------------------

def criterion_11(seed: int = DEFAULT_SEED):
    rng, n_pairs, n_sims = _rng(seed, 11), 20_000, 10_000
    triplets = [brownian(1), cpp_from_atoms([(1.0, 0.7), (-0.5, 1.2)]),
                cpp_from_atoms([(0.8, 2.0)], drift=0.3)]
    worst = 0.0
    for _ in range(50):
        path = _random_path(rng)
        triplet = triplets[rng.integers(len(triplets))]
        n = int(rng.integers(1, 4))
        times = _random_times(rng, path, n)
        zs = rng.normal(0.0, 1.0, size=(n, 1))
        p = float(rng.uniform(0.25, 4.0))
        gap = abs(fdd.joint_cf(triplet, path, times, zs)
                  - fdd.joint_cf(triplet, scaled(path, p), times, zs))
        worst = max(worst, gap)
    reports = [_report("c11.rescaling-invariance", worst, 1e-12, seed, n=50)]

    path = LinearPath(0.0, 1.0, 1.0, 1.0, 0.0, 1.0)
    s, t = 0.2, 0.5
    pairs = jumpsim.simulate_triplet(brownian(1), path, [s, t], n_pairs, rng)[:, :, 0]
    reports.append(verify.conditional_mean_regression(
        pairs, path, s, t, mean11=0.0, name="c11.regression-gaussian", seed=seed))

    sheet = cpp_from_atoms([(1.0, 4.0)])  # mean of the law at (1,1) is 4
    mean11 = float(sheet.mean11[0])
    cpp_pairs = jumpsim.simulate_triplet(sheet, path, [s, t], n_sims, rng)[:, :, 0]
    reports.append(verify.conditional_mean_regression(
        cpp_pairs, path, s, t, mean11=mean11, name="c11.regression-cpp", seed=seed))
    return reports


_BUDGETS = {1: 5.0, 2: 1.0, 3: 30.0, 4: 60.0, 7: 60.0}  # seconds


def _timed(number: int, criterion):
    """The criterion with a `cN.runtime` report of its whole call appended."""

    @functools.wraps(criterion)
    def run(seed: int = DEFAULT_SEED):
        start = time.perf_counter()
        reports = criterion(seed)
        elapsed = time.perf_counter() - start
        return reports + [_report(f"c{number}.runtime", elapsed, _BUDGETS[number], seed,
                                  unit="seconds")]

    return run


CRITERIA = {
    number: _timed(number, criterion) if number in _BUDGETS else criterion
    for number, criterion in enumerate(
        (criterion_1, criterion_2, criterion_3, criterion_4, criterion_5, criterion_6,
         criterion_7, criterion_8, criterion_9, criterion_10, criterion_11), start=1)
}

SUITES = {
    "fdd": (1, 2, 11),
    "gauss": (3, 4),
    "jumps": (5, 6, 7, 8),
    "stationary": (9, 10),
}
SUITE_NAMES = tuple(SUITES) + ("all",)


def run_suite(name: str, seed: int = DEFAULT_SEED):
    """Run a named suite; returns the reports in criterion order."""
    if name == "all":
        numbers = sorted(CRITERIA)
    elif name in SUITES:
        numbers = SUITES[name]
    else:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    return [report for k in numbers for report in CRITERIA[k](seed)]
