import math

import numpy as np
import pytest
from scipy.integrate import quad

from levysheet import fdd, gauss
from levysheet.exponent import brownian
from levysheet.paths import (
    ExponentialPath,
    HorizontalPath,
    LinearPath,
    TabulatedPath,
    VerticalPath,
)
from levysheet.verify import cf_match, empirical_cf


def bridge():
    return LinearPath(0.0, 1.0, 1.0, 1.0, 0.0, 1.0)


def bridge_law():
    return gauss.GaussPathLaw(bridge())


class TestCovariance:
    def test_example(self):
        assert gauss.covariance(bridge_law(), 0.3, 0.6) == pytest.approx(0.12)
        assert gauss.covariance(bridge_law(), 0.6, 0.3) == pytest.approx(0.12)

    def test_diagonal_is_variance(self):
        assert gauss.covariance(bridge_law(), 0.5, 0.5) == pytest.approx(0.25)

    def test_bridge_family_covariance(self):
        # (p t, (1 - t/l)/p) has covariance s (1 - t/l) regardless of p
        law = gauss.GaussPathLaw(LinearPath(0.0, 2.0, 0.5, 0.5, 0.0, 1.0))
        for s, t in ((0.2, 0.7), (0.1, 0.9)):
            assert gauss.covariance(law, s, t) == pytest.approx(s * (1 - t))

    def test_matrix_psd(self):
        rng = np.random.default_rng(41)
        paths = [bridge(), ExponentialPath(0.7, 1.3, 0.8, 0.0, 2.0),
                 LinearPath(0.3, 1.0, 2.0, 1.0, 0.0, 1.5)]
        for path in paths:
            law = gauss.GaussPathLaw(path)
            times = np.sort(rng.uniform(path.t_lo, path.t_hi, size=8))
            mat = gauss.covariance_matrix(law, times)
            assert np.min(np.linalg.eigvalsh(mat)) >= -1e-10

    def test_time_reversal_of_bridge(self):
        law = bridge_law()
        for s, t in ((0.25, 0.75), (0.125, 0.5)):  # dyadic: exact reversal
            assert gauss.covariance(law, s, t) == gauss.covariance(law, 1 - t, 1 - s)
        rng = np.random.default_rng(42)
        for _ in range(20):
            s, t = np.sort(rng.uniform(0, 1, size=2))
            assert gauss.covariance(law, s, t) == pytest.approx(
                gauss.covariance(law, 1 - t, 1 - s), abs=1e-12)


class TestJointCF:
    def test_two_point_example(self):
        val = gauss.gaussian_joint_cf(bridge_law(), [0.3, 0.6], [1.0, 1.0])
        assert val == pytest.approx(math.exp(-0.345), abs=1e-14)

    def test_zero_probe(self):
        assert gauss.gaussian_joint_cf(bridge_law(), [0.3, 0.6], [0.0, 0.0]) == 1.0

    def test_agrees_with_general_formula(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            d = int(rng.integers(1, 4))
            n = int(rng.integers(1, 6))
            path = ExponentialPath(*rng.uniform(0.5, 2.0, size=3), 0.0, 1.5)
            times = np.sort(rng.uniform(0.05, 1.45, size=n))
            if np.any(np.diff(times) <= 0):
                continue
            zs = rng.normal(size=(n, d))
            law = gauss.GaussPathLaw(path, dim=d)
            a = gauss.gaussian_joint_cf(law, times, zs)
            b = fdd.joint_cf(brownian(d), path, times, zs)
            assert abs(a - b) < 1e-12


class TestSimulate:
    def test_endpoints_exactly_zero(self):
        rng = np.random.default_rng(44)
        sample = gauss.simulate(bridge_law(), [0.0, 0.5, 1.0], rng)
        assert sample.values[0, 0] == 0.0
        assert sample.values[2, 0] == 0.0

    def test_marginal_variance_band(self):
        rng = np.random.default_rng(45)
        n = 50_000
        vals = gauss.simulate_paths(bridge_law(), [0.3, 0.5, 0.8], rng, n_paths=n)[:, :, 0]
        for j, t in enumerate((0.3, 0.5, 0.8)):
            target = t * (1 - t)
            assert abs(vals[:, j].var() - target) <= 4.0 * target * math.sqrt(2.0 / n)

    def test_representation_equivalence(self):
        rng = np.random.default_rng(46)
        law = gauss.GaussPathLaw(LinearPath(0.2, 1.0, 1.5, 1.0, 0.0, 1.0))
        times = [0.2, 0.5, 0.9]
        n = 40_000
        for rep in ("bm_ratio", "bm_ratio_swapped", "bm_pinned", "bm_pinned_swapped"):
            vals = gauss.simulate_paths(law, times, rng, n_paths=n,
                                        representation=rep)[:, :, 0]
            for j, (t, z) in enumerate(zip(times, (1.0, 0.7, 1.4))):
                emp = empirical_cf(vals[:, j], z)
                target = complex(math.exp(-0.5 * gauss.covariance(law, t, t) * z * z))
                assert cf_match(emp, target, name=rep).passed

    def test_multidimensional_components_independent(self):
        rng = np.random.default_rng(47)
        law = gauss.GaussPathLaw(bridge(), dim=2)
        vals = gauss.simulate_paths(law, [0.5], rng, n_paths=30_000)[:, 0, :]
        cross = float(np.corrcoef(vals[:, 0], vals[:, 1])[0, 1])
        assert abs(cross) < 4.0 / math.sqrt(30_000)

    def test_auto_uses_pinned_when_y_vanishes(self):
        rng = np.random.default_rng(48)
        vals = gauss.simulate_paths(bridge_law(), [0.5, 1.0], rng, n_paths=10)
        assert np.all(vals[:, 1, 0] == 0.0)

    def test_one_draw_wrapper(self):
        rng = np.random.default_rng(49)
        sample = gauss.simulate(bridge_law(), [0.25, 0.5], rng)
        assert sample.values.shape == (2, 1)
        assert sample.to_csv().startswith("t,v1\n")


class TestTransitionDensity:
    def test_example_moments(self):
        law = bridge_law()
        # mean 0.625, variance 0.1875 at the conditioning in the docs
        peak = gauss.transition_density(law, 0.2, 0.5, 1.0, 0.625)
        assert peak == pytest.approx(1.0 / math.sqrt(2 * math.pi * 0.1875), abs=1e-12)

    def test_integrates_to_one(self):
        law = bridge_law()
        total, err = quad(lambda w: gauss.transition_density(law, 0.2, 0.5, 1.0, w),
                          -8.0, 8.0, limit=200)
        assert abs(total - 1.0) < 1e-8

    def test_variance_shrinks_near_s(self):
        law = bridge_law()
        wide = gauss.transition_density(law, 0.2, 0.5, 1.0, 0.625)
        narrow = gauss.transition_density(law, 0.2, 0.2001, 1.0, 1.0)
        assert narrow > wide  # density concentrates as t -> s

    def test_degenerate_terminal(self):
        law = bridge_law()
        assert gauss.transition_density(law, 0.5, 1.0, 0.3, 0.0) == math.inf
        assert gauss.transition_density(law, 0.5, 1.0, 0.3, 0.1) == 0.0


class TestZeroCrossing:
    def test_conditional_closed_form_vs_quadrature(self):
        law = bridge_law()
        s, t, z = 0.25, 0.75, 0.1
        closed = gauss.zero_prob_conditional(law, s, t, z)
        k = abs(z / float(bridge().y(s)))
        gap = law.ratio(t) - law.ratio(s)
        integral, _ = quad(lambda u: u ** -1.5 * math.exp(-k * k / (2 * u)),
                           0.0, gap, limit=200)
        assert closed == pytest.approx(k / math.sqrt(2 * math.pi) * integral, abs=1e-8)

    def test_limits(self):
        law = gauss.GaussPathLaw(ExponentialPath(1.0, 1.0, 1.0, 0.0, 60.0))
        assert gauss.zero_prob_conditional(law, 1.0, 1.0001, 2.0) < 1e-6
        assert gauss.zero_prob_conditional(law, 1.0, 25.0, 0.01) > 0.999

    def test_conditional_rejects_zero_start(self):
        with pytest.raises(ValueError):
            gauss.zero_prob_conditional(bridge_law(), 0.25, 0.75, 0.0)

    def test_unconditional_example(self):
        val = gauss.zero_prob(bridge_law(), 0.25, 0.75)
        assert val == pytest.approx(2.0 / math.pi * math.acos(1.0 / 3.0), abs=1e-14)

    def test_unconditional_limits(self):
        law = bridge_law()
        assert gauss.zero_prob(law, 0.5, 0.5) == 0.0
        assert gauss.zero_prob(law, 1e-12, 0.9) == pytest.approx(1.0, abs=1e-5)

    def test_frequency_unbiased_on_a_coarse_grid(self):
        # a plain sign-change count on 100 points gives about 0.746 here
        law, n = bridge_law(), 20_000
        target = gauss.zero_prob(law, 0.25, 0.75)
        freq = gauss.zero_crossing_frequency(law, 0.25, 0.75, n, 100, np.random.default_rng(26))
        # per-path values lie in [0, 1], so their variance is at most p (1 - p)
        assert abs(freq - target) <= 4.0 * math.sqrt(target * (1.0 - target) / n)

    def test_unconditional_at_vanishing_y(self):
        # the bridge is pinned to 0 at t = 1, where y(1) = 0 and r(t) -> infinity
        law = bridge_law()
        assert gauss.zero_prob(law, 0.25, 1.0) == 1.0
        near = gauss.zero_prob(law, 0.25, 0.999999)
        assert 0.999 < near < 1.0


class TestIdentification:
    def test_bridge_standard(self):
        assert gauss.identify_bridge(bridge()) == pytest.approx((1.0, 1.0))

    def test_bridge_rescaled(self):
        got = gauss.identify_bridge(LinearPath(0.0, 2.0, 0.5, 0.5, 0.0, 1.0))
        assert got == pytest.approx((1.0, 2.0))

    def test_bridge_rejects_exponential(self):
        assert gauss.identify_bridge(ExponentialPath(1.0, 1.0, 1.0, 0.0, 1.0)) is None

    def test_bridge_tabulated(self):
        ts = np.linspace(0.0, 2.0, 21)
        tab = TabulatedPath(ts, 1.5 * ts, (1.0 - ts / 2.0) / 1.5)
        l, p = gauss.identify_bridge(tab)
        assert (l, p) == pytest.approx((2.0, 1.5))

    def test_ou_exponential(self):
        a, b, c = gauss.identify_ou(ExponentialPath(1.0, 0.5, 2.0, 0.0, 1.0))
        assert (a, b, c) == pytest.approx((1.0, 0.5, 2.0))
        assert a * b == pytest.approx(0.5)  # stationary variance

    def test_ou_normalized_variance_half(self):
        a, b, _ = gauss.identify_ou(ExponentialPath(1.0, 0.5, 1.0, 0.0, 1.0))
        assert a * b == pytest.approx(0.5)

    def test_ou_rejects_linear(self):
        assert gauss.identify_ou(bridge()) is None

    @pytest.mark.parametrize("path", [
        HorizontalPath.affine(0.0, 1.0, 1.0, 0.0, 1.0),
        VerticalPath.affine(1.0, 1.0, 1.0, 0.0, 1.0),
    ])
    def test_zero_slope_lines_are_neither(self, path):
        assert gauss.identify_bridge(path) is None
        assert gauss.identify_ou(path) is None

    def test_ou_tabulated(self):
        ts = np.linspace(0.0, 1.0, 33)
        tab = TabulatedPath(ts, 0.8 * np.exp(1.2 * ts), 0.6 * np.exp(-1.2 * ts))
        a, b, c = gauss.identify_ou(tab)
        assert (a, b, c) == pytest.approx((0.8, 0.6, 1.2))
