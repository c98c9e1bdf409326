"""The benchmark's oracles against hand values and against each other.

    python3 -m pytest perfbench -q

These tests do not import levysheet: they check the benchmark's own
formulas, so that a check in a workload compares the program with something
known to be right.
"""

import math

import numpy as np
import pytest

import harness
import oracles


def gaussian_psi_1d(z):
    return -0.5 * np.asarray(z) ** 2


def test_crossing_prob_hand_value():
    # straight line (t, 1 - t) on (0.25, 0.75): r = x/y goes from 1/3 to 3
    assert oracles.crossing_prob(1 / 3, 3.0) == pytest.approx(0.78365310, abs=5e-9)
    assert oracles.crossing_prob(1.0, 1.0) == 0.0


def test_cli_example_from_readme():
    # levysheet cf --times 0.5 --z 1 on the Brownian bridge path prints 0.8824969025845955
    assert oracles.pinned_bridge_cf(0.5, 1.0) == pytest.approx(0.88249690, abs=5e-9)


def test_bridge_crossing_removes_grid_bias():
    """Pure-numpy Brownian motion on a 50-point grid: the bridge-corrected
    estimator finds the continuous-time value, the raw sign count falls short."""
    rng = np.random.default_rng(12345)
    r = np.linspace(1 / 3, 3.0, 50)
    n = 40_000
    w = rng.normal(0.0, math.sqrt(r[0]), size=(n, 1)) + np.concatenate(
        [np.zeros((n, 1)), np.cumsum(rng.normal(0.0, 1.0, size=(n, r.size - 1)) * np.sqrt(np.diff(r)), axis=1)],
        axis=1)
    target = oracles.crossing_prob(r[0], r[-1])
    est = oracles.bridge_crossing(w, r)
    assert abs(est.mean() - target) <= oracles.bernstein_band(est.var(ddof=1), n, 1.0)
    raw = oracles.sign_changes(w)
    assert raw.mean() < target - 0.02
    assert np.all(est[raw == 1.0] == 1.0)


def test_rectangle_sum_matches_gaussian_quadratic_form():
    rng = np.random.default_rng(7)
    ts = np.sort(rng.uniform(0.05, 0.95, size=7))
    xs, ys = 0.3 + ts, 1.4 - ts
    zs = rng.normal(size=(7, 1))
    assert oracles.rectangle_cf(gaussian_psi_1d, xs, ys, zs) == pytest.approx(
        oracles.gaussian_joint_cf(xs, ys, zs), abs=1e-13)


def test_atom_psi_hand_value():
    # one atom of mass 2 at x = 1 with drift 0.5: psi(pi) = i pi / 2 + 2 (e^{i pi} - 1)
    assert oracles.atom_psi(math.pi, [1.0], [2.0], 0.5) == pytest.approx(0.5j * math.pi - 4.0)


def test_rearranged_difference_single_time():
    # z2 = 0 leaves exp(-2 rate s (1 - s)(1 - cos z1)), the symmetrised CPP marginal
    rate, s, z = 2.0, 0.3, 1.3
    want = math.exp(-2.0 * rate * s * (1.0 - s) * (1.0 - math.cos(z)))
    assert oracles.rearranged_difference_cf(rate, 1.0, s, 0.7, z, 0.0) == pytest.approx(want, rel=1e-14)
    assert oracles.rearranged_difference_cf(rate, 1.0, s, 0.7, 0.0, 0.0) == 1.0


def test_bridge_and_walk_moments_hand_values():
    assert oracles.bridge_cumulants(1000, 1.0, 0.5, 1.0, 1.0) == pytest.approx((0.25, 1 / 8000))
    assert oracles.centred_cumulants(1000, 1.0, 1.0, 1.0) == pytest.approx((0.5, 1 / 4000))
    assert oracles.walk_cov(1000, 1.0, 0.0, 1.0, 0.3, 0.6) == pytest.approx(0.12)


def test_poisson_pmf_sums_to_one():
    pmf = oracles.poisson_pmf(2.0)
    assert sum(pmf(k) for k in range(60)) == pytest.approx(1.0, abs=1e-14)
    assert pmf(0) == pytest.approx(math.exp(-2.0))


def test_ou_gap_vanishes_only_for_gaussian_laws():
    assert max(oracles.ou_gap(gaussian_psi_1d, 1.0, t, z)
               for t in (0.5, 1.0) for z in (0.3, 3.0)) < 1e-12
    one_atom = lambda z: oracles.atom_psi(z, [1.0], [1.0], 0.0)  # noqa: E731
    assert oracles.ou_gap(one_atom, 1.0, math.log(2.0), 1.0) > 1e-3


def test_tabulated_inverses_with_flat_segments():
    ts = np.linspace(0.0, 1.0, 9)
    xs = np.array([0.1, 0.2, 0.4, 0.4, 0.4, 0.5, 0.7, 0.8, 1.0])  # flat over knots 2..4
    ys = np.array([1.0, 0.9, 0.8, 0.6, 0.5, 0.5, 0.5, 0.3, 0.2])  # flat over knots 4..6
    c = oracles.Coords("tabulated", 0.0, 1.0, ts=ts, xs=xs, ys=ys)
    fine = np.linspace(0.0, 1.0, 800_001)
    levels = np.array([0.05, 0.1, 0.15, 0.4, 0.45, 0.99, 1.0, 1.1])
    for u, got in zip(levels, c.first_x_at_least(levels)):
        hit = fine[c.x(fine) >= u]
        assert (np.isnan(got) and hit.size == 0) or abs(got - hit[0]) < 2e-6
    for v, got in zip(levels, c.last_y_at_least(levels)):
        hit = fine[c.y(fine) >= v]
        assert (np.isnan(got) and hit.size == 0) or abs(got - hit[-1]) < 2e-6


def test_sheet_values_brute_force():
    locs = np.array([[0.2, 0.2], [0.5, 0.1], [0.1, 0.9]])
    jumps = np.array([[1.0], [0.25], [-2.0]])
    assert oracles.sheet_values(locs, jumps, [0.3, 1.0], [0.5, 1.0]).ravel().tolist() == [1.0, -0.75]


def test_ols_hc0_exact_line():
    x = np.arange(10.0)
    slope, intercept, se_slope, se_intercept = oracles.ols_hc0(x, 2.0 + 0.5 * x)
    assert (slope, intercept) == pytest.approx((0.5, 2.0))
    assert se_slope == pytest.approx(0.0, abs=1e-12) and se_intercept == pytest.approx(0.0, abs=1e-12)


def test_self_time_subtracts_children():
    spans = [(0, None, "bench.round", 0.0, 10.0, {}),
             (1, 0, "gauss.simulate_paths", 1.0, 4.0, {}),
             (2, 0, "verify.ks", 5.0, 6.0, {})]
    assert harness._self_times(spans) == {0: 6.0, 1: 3.0, 2: 1.0}
