import json
import math

import numpy as np
import pytest
from scipy import stats

from levysheet import suites, verify
from levysheet.paths import LinearPath, TabulatedPath


class TestEmpiricalCF:
    def test_constant_zero_samples(self):
        emp = verify.empirical_cf(np.zeros(500), 1.0)
        assert emp.value == 1.0 + 0j
        assert emp.se_re == 0.0

    def test_zero_probe(self):
        rng = np.random.default_rng(80)
        emp = verify.empirical_cf(rng.normal(size=1000), 0.0)
        assert emp.value == 1.0 + 0j

    def test_gaussian_samples(self):
        rng = np.random.default_rng(81)
        n = 100_000
        emp = verify.empirical_cf(rng.normal(size=n), 1.0)
        assert abs(emp.re - math.exp(-0.5)) <= 4.0 / math.sqrt(n)
        assert abs(emp.im) <= 4.0 / math.sqrt(n)

    def test_bounds(self):
        rng = np.random.default_rng(82)
        emp = verify.empirical_cf(rng.normal(size=1000), 2.0)
        assert abs(emp.value) <= 1.0 + 4.0 / math.sqrt(emp.n)
        assert max(emp.se_re, emp.se_im) <= 1.0 / math.sqrt(emp.n)

    def test_needs_enough_samples(self):
        with pytest.raises(ValueError):
            verify.empirical_cf(np.zeros(50), 1.0)


class TestPairCovariance:
    def test_hand_values(self):
        # x y = 1, 1, 3, 3: mean 2, sample variance 4/3; mean x = mean y = 3/2.
        cov, se = verify.pair_covariance([[1.0, 1.0], [1.0, 1.0], [1.0, 3.0], [3.0, 1.0]])
        assert cov == pytest.approx(2.0 - 2.25)
        assert se == pytest.approx(math.sqrt(4.0 / 3.0) / 2.0)


class TestCFMatch:
    def test_exact_match_passes(self):
        emp = verify.empirical_cf(np.zeros(10_000), 1.0)
        assert verify.cf_match(emp, 1.0 + 0j).passed

    def test_wide_gap_fails(self):
        emp = verify.empirical_cf(np.zeros(10_000), 1.0)
        off = complex(1.0 - 10.0 / math.sqrt(10_000), 0.0)
        assert not verify.cf_match(emp, off).passed

    def test_rejects_narrow_band(self):
        emp = verify.empirical_cf(np.zeros(10_000), 1.0)
        with pytest.raises(ValueError):
            verify.cf_match(emp, 1.0 + 0j, k=2.0)

    def test_bridge_marginal(self):
        from levysheet import gauss

        rng = np.random.default_rng(1)
        law = gauss.GaussPathLaw(LinearPath(0, 1, 1, 1, 0, 1))
        vals = gauss.simulate_paths(law, [0.5], rng, n_paths=100_000)[:, 0, 0]
        emp = verify.empirical_cf(vals, 1.0)
        assert verify.cf_match(emp, complex(math.exp(-0.125))).passed


class TestRegression:
    def test_deterministic_line(self):
        x = np.linspace(0.0, 1.0, 500)
        path = LinearPath(0, 1, 1, 1, 0, 1)
        pairs = np.column_stack([x, (0.5 / 0.8) * x])
        report = verify.conditional_mean_regression(pairs, path, 0.2, 0.5, 0.0)
        assert report.passed
        assert report.extra["slope"] == pytest.approx(0.625, abs=1e-12)

    def test_detects_wrong_slope(self):
        rng = np.random.default_rng(83)
        x = rng.normal(size=5000)
        pairs = np.column_stack([x, 0.9 * x + 0.01 * rng.normal(size=5000)])
        path = LinearPath(0, 1, 1, 1, 0, 1)
        report = verify.conditional_mean_regression(pairs, path, 0.2, 0.5, 0.0)
        assert not report.passed  # target slope is 0.625

    def test_robust_standard_errors(self):
        # noise sd grows with |x|, as for a jump sheet's value at t given its value at s
        rng = np.random.default_rng(90)
        x = rng.exponential(size=5000)
        y = 0.3 + 0.625 * x + rng.normal(size=5000) * (0.1 + 0.5 * x)
        slope, intercept, se_slope, se_intercept = verify._ols(x, y)
        design = np.column_stack([np.ones_like(x), x])
        bread = np.linalg.inv(design.T @ design)
        resid = y - design @ (bread @ design.T @ y)
        sandwich = bread @ (design.T * resid ** 2) @ design @ bread
        assert slope == pytest.approx((bread @ design.T @ y)[1], rel=1e-12)
        assert se_slope == pytest.approx(math.sqrt(sandwich[1, 1]), rel=1e-9)
        assert se_intercept == pytest.approx(math.sqrt(sandwich[0, 0]), rel=1e-9)
        classical = math.sqrt(np.sum(resid ** 2) / (x.size - 2) * bread[1, 1])
        assert classical < 0.9 * se_slope  # the classical SE would understate the spread
        path = LinearPath(0, 1, 1, 1, 0, 1)
        report = verify.conditional_mean_regression(np.column_stack([x, y]), path,
                                                    0.2, 0.5, 0.0)
        want = max(abs(slope - 0.625) / (4.0 * se_slope + 1e-9),
                   abs(intercept) / (4.0 * se_intercept + 1e-9))
        assert report.statistic == pytest.approx(want, rel=1e-12)

    def test_rejects_conditioning_where_y_vanishes(self):
        # y(1) = 0, and 1 + 2^-52 is inside the domain's 1e-15 slack
        path = TabulatedPath.from_knots([[0.0, 0.2, 1.0], [0.5, 0.6, 0.5], [1.0, 1.0, 0.0]])
        with pytest.raises(ValueError, match=r"conditioning time must have y\(s\) > 0"):
            verify.conditional_mean_regression(np.zeros((100, 2)), path, 1.0,
                                               np.nextafter(1.0, 2.0), 0.0)

    def test_noisy_but_correct(self):
        rng = np.random.default_rng(84)
        x = rng.normal(size=20_000)
        y = 0.625 * x + rng.normal(size=20_000) * 0.43
        path = LinearPath(0, 1, 1, 1, 0, 1)
        report = verify.conditional_mean_regression(np.column_stack([x, y]),
                                                    path, 0.2, 0.5, 0.0)
        assert report.passed


class TestChi2:
    def test_uniform_square_passes(self):
        rng = np.random.default_rng(85)
        samples = rng.uniform(0.0, 1.0, size=(50_000, 2))
        area = lambda x0, x1, y0, y1: (x1 - x0) * (y1 - y0)  # noqa: E731
        report = verify.chi2_binned(samples, area, ((0, 1), (0, 1)))
        assert report.passed

    def test_shifted_gaussian_fails(self):
        rng = np.random.default_rng(86)
        samples = rng.normal(0.25, 1.0, size=(50_000, 2))
        cdf = lambda v: 0.5 * (1.0 + math.erf(v / math.sqrt(2.0)))  # noqa: E731
        standard = lambda x0, x1, y0, y1: (cdf(x1) - cdf(x0)) * (cdf(y1) - cdf(y0))  # noqa: E731
        report = verify.chi2_binned(samples, standard, ((-4, 4), (-4, 4)))
        assert not report.passed

    def test_standard_gaussian_tails_outside_support_pass(self):
        # about 6 of 50,000 samples are expected outside the window
        rng = np.random.default_rng(84)
        samples = rng.normal(0.0, 1.0, size=(50_000, 2))
        cdf = lambda v: 0.5 * (1.0 + math.erf(v / math.sqrt(2.0)))  # noqa: E731
        standard = lambda x0, x1, y0, y1: (cdf(x1) - cdf(x0)) * (cdf(y1) - cdf(y0))  # noqa: E731
        report = verify.chi2_binned(samples, standard, ((-4, 4), (-4, 4)))
        assert report.passed

    def test_samples_outside_support_fail(self):
        # a fifth of the points moved off the unit square; the law has no mass there
        rng = np.random.default_rng(85)
        samples = rng.uniform(0.0, 1.0, size=(50_000, 2))
        samples[:10_000] = 5.0
        area = lambda x0, x1, y0, y1: (x1 - x0) * (y1 - y0)  # noqa: E731
        report = verify.chi2_binned(samples, area, ((0, 1), (0, 1)))
        assert not report.passed

    def test_excess_mass_outside_support_fails(self):
        # inside the window the samples follow the target's shape, but a tenth
        # more of them than the target puts outside it lie outside
        rng = np.random.default_rng(83)
        samples = rng.normal(0.0, 1.0, size=(50_000, 2))
        samples[:5_000] = 5.0
        cdf = lambda v: 0.5 * (1.0 + math.erf(v / math.sqrt(2.0)))  # noqa: E731
        standard = lambda x0, x1, y0, y1: (cdf(x1) - cdf(x0)) * (cdf(y1) - cdf(y0))  # noqa: E731
        report = verify.chi2_binned(samples, standard, ((-1, 1), (-1, 1)))
        assert not report.passed and math.isfinite(report.statistic)

    def test_counts_poisson(self):
        rng = np.random.default_rng(87)
        counts = rng.poisson(2.0, size=20_000)
        pmf = lambda k: math.exp(-2.0) * 2.0 ** k / math.factorial(k)
        assert verify.chi2_counts(counts, pmf).passed
        wrong = lambda k: math.exp(-3.0) * 3.0 ** k / math.factorial(k)
        assert not verify.chi2_counts(counts, wrong).passed


class TestKS:
    def test_uniform_passes(self):
        rng = np.random.default_rng(88)
        report = verify.ks_1d(rng.uniform(size=20_000), lambda x: np.clip(x, 0, 1))
        assert report.passed

    def test_shift_fails(self):
        rng = np.random.default_rng(89)
        report = verify.ks_1d(rng.normal(0.1, 1.0, size=20_000),
                              stats.norm.cdf)
        assert not report.passed


class TestReportUnits:
    """The statistic is compared with its critical value, and passes iff it is at most that."""

    def test_ks_reports_critical_statistic(self):
        rng = np.random.default_rng(90)
        for samples, cdf in ((rng.uniform(size=20_000), lambda x: np.clip(x, 0, 1)),
                             (rng.normal(0.1, 1.0, size=20_000), stats.norm.cdf)):
            report = verify.ks_1d(samples, cdf)
            assert report.threshold == stats.kstwo.isf(1e-3, 20_000)
            assert report.passed == (report.statistic <= report.threshold)

    def test_half_count_reports_chi2_statistic(self):
        reports = {r.name: r for r in suites.criterion_5(seed=1)}
        report = reports["c5.half-count-poisson"]
        assert report.statistic != report.extra["pvalue"]
        assert report.passed == (report.statistic <= report.threshold)


    def test_passed_is_statistic_at_most_threshold(self):
        assert verify.TestReport("at", 1.0, 1.0).passed
        assert not verify.TestReport("above", 1.0 + 1e-12, 1.0).passed


class TestReportJSON:
    def test_round_trip(self):
        report = verify.TestReport("demo", 0.5, 1.0, seed=7, n=100,
                                   extra={"pvalue": 0.2})
        parsed = json.loads(report.to_json())
        assert parsed["name"] == "demo"
        assert parsed["passed"] is True
        assert parsed["pvalue"] == 0.2
