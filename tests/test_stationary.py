import cmath
import math

import numpy as np
import pytest

from levysheet import fdd, gauss, jumpsim, stationary
from levysheet.exponent import brownian, cpp_from_atoms, eval_psi, pure_drift
from levysheet.paths import ExponentialPath, LinearPath, VThenHPath, classify
from levysheet.verify import cf_match, empirical_cf


def corner():
    return VThenHPath(0.5, 1.0, 2.0, 4.0, 2.0, 0.0, 1.0)  # a c = b d = 4


class TestRebase:
    """Re-basing a corner path: for a symmetric law the increments over a lag u
    are those of a Levy process with exponent a c psi (`fdd.stationary_increment_cf`)."""

    @staticmethod
    def increment_cf(triplet, path, u, z):
        return fdd.stationary_increment_cf(triplet, classify(path), u, z)

    def test_brownian_doubled_exponent(self):
        path = VThenHPath(0.5, 2.0, 1.0, 1.0, 2.0, 0.0, 1.0)  # a c = 2
        assert classify(path).phi(1.0) == pytest.approx(2.0)
        val = self.increment_cf(brownian(1), path, 0.75, 1.0)
        assert cmath.log(val) / 0.75 == pytest.approx(-1.0 + 0j)

    def test_increment_cf_is_levy(self):
        val = self.increment_cf(brownian(1), corner(), 0.3, 1.0)
        assert val == pytest.approx(cmath.exp(0.3 * 4.0 * (-0.5)), abs=1e-12)
        # independent stationary increments: the exponent is linear in the lag
        halves = self.increment_cf(brownian(1), corner(), 0.15, 1.0) ** 2
        assert halves == pytest.approx(val, abs=1e-12)

    def test_rejects_empty_domain(self):
        with pytest.raises(ValueError, match="lag"):
            self.increment_cf(brownian(1), corner(), 1.5, 1.0)

    def test_rejects_non_corner_path(self):
        unbalanced = VThenHPath(0.5, 1.0, 2.0, 4.0, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError, match="no stationary increments"):
            self.increment_cf(brownian(1), unbalanced, 0.25, 1.0)
        # the bridge line has stationary increments, but phi is not linear in the
        # lag, so they are not those of a Levy process
        line = LinearPath(0, 1, 1, 1, 0, 1)
        assert self.increment_cf(brownian(1), line, 0.2, 1.0) ** 2 \
            != pytest.approx(self.increment_cf(brownian(1), line, 0.4, 1.0), abs=1e-3)

    def test_rejects_asymmetric_law(self):
        with pytest.raises(ValueError, match="non-symmetric"):
            self.increment_cf(cpp_from_atoms([(1.0, 1.0)]), corner(), 0.25, 1.0)

    def test_increments_uncorrelated(self):
        # increments past the corner are independent; check zero correlation
        rng = np.random.default_rng(70)
        path = corner()
        law = gauss.GaussPathLaw(path)
        grid = [0.5, 0.7, 0.9]
        vals = gauss.simulate_paths(law, grid, rng, n_paths=50_000)[:, :, 0]
        inc1 = vals[:, 1] - vals[:, 0]
        inc2 = vals[:, 2] - vals[:, 1]
        corr = float(np.corrcoef(inc1, inc2)[0, 1])
        assert abs(corr) <= 4.0 / math.sqrt(50_000)


class TestAutocorrelation:
    def law(self, c=1.0):
        return stationary.StationaryLaw(brownian(1), a=1.0, b=0.5, c=c)

    def test_zero_lag(self):
        assert stationary.autocorrelation(self.law(), 0.0) == 1.0

    def test_log_two(self):
        assert stationary.autocorrelation(self.law(1.0), math.log(2.0)) \
            == pytest.approx(0.5)

    def test_semigroup(self):
        law = self.law(0.7)
        r = stationary.autocorrelation
        for u1, u2 in ((0.2, 0.5), (1.0, 2.0)):
            assert r(law, u1) * r(law, u2) == pytest.approx(r(law, u1 + u2), rel=1e-12)

    def test_requires_square_integrable_nondeterministic(self):
        det = stationary.StationaryLaw(pure_drift(1.0), 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            stationary.autocorrelation(det, 0.5)

    def test_empirical_lag_correlation(self):
        rng = np.random.default_rng(71)
        law = self.law(1.0)
        grid = np.array([0.0, 0.5])
        vals = gauss.simulate_paths(gauss.GaussPathLaw(law.path(0.5)), grid, rng,
                                    n_paths=50_000)[:, :, 0]
        corr = float(np.corrcoef(vals[:, 0], vals[:, 1])[0, 1])
        assert abs(corr - math.exp(-0.5)) < 0.02


class TestSimulateStationary:
    def test_marginal_cf(self):
        rng = np.random.default_rng(72)
        law = stationary.StationaryLaw(cpp_from_atoms([(1.0, 1.0), (-1.0, 1.0)]),
                                       a=1.0, b=0.5, c=1.0)
        n = 8000
        vals = jumpsim.simulate_triplet(law.triplet, law.path(0.25), [0.25], n, rng)[:, 0, 0]
        target = cmath.exp(law.marginal_psi(1.0))
        assert cf_match(empirical_cf(vals, 1.0), target).passed

    def test_shift_invariance_of_joint_cf(self):
        rng = np.random.default_rng(73)
        law = stationary.StationaryLaw(cpp_from_atoms([(1.0, 1.0), (-1.0, 1.0)]),
                                       a=1.0, b=0.5, c=1.0)
        n = 8000
        probe = np.array([0.9, -0.6])
        v = jumpsim.simulate_triplet(law.triplet, law.path(1.4), [0.1, 0.4, 1.1, 1.4], n,
                                     rng)[:, :, 0]
        znow = np.exp(1j * (v[:, :2] @ probe))
        zlater = np.exp(1j * (v[:, 2:] @ probe))
        gap = abs(znow.mean() - zlater.mean())
        assert gap <= 2 * 4.0 / math.sqrt(n)

    def test_gaussian_reproduces_ou_covariance(self):
        rng = np.random.default_rng(74)
        law = stationary.StationaryLaw(brownian(1), a=1.0, b=0.5, c=2.0)
        grid = np.array([0.0, 0.3])
        vals = gauss.simulate_paths(gauss.GaussPathLaw(law.path(0.3)), grid, rng,
                                    n_paths=50_000)[:, :, 0]
        cov = float(np.cov(vals[:, 0], vals[:, 1])[0, 1])
        target = 0.5 * math.exp(-2.0 * 0.3)
        assert abs(cov - target) < 0.01

    def test_drift_rides_along(self):
        rng = np.random.default_rng(75)
        law = stationary.StationaryLaw(pure_drift(3.0), a=2.0, b=0.25, c=1.0)
        draw = stationary.simulate_stationary(law, [0.2, 0.8], rng)
        assert np.allclose(draw.values, 2.0 * 0.25 * 3.0)


class TestOUDiscrimination:
    def test_gaussian_identity(self):
        rng = np.random.default_rng(76)
        for _ in range(50):
            t = float(rng.uniform(0.1, 2.0))
            z = float(rng.uniform(-4.0, 4.0))
            if z == 0.0:
                continue
            a = stationary.ou_cf(brownian(1), 1.0, t, z)
            b = stationary.exp_path_cf(brownian(1), 1.0, t, z)
            assert abs(a - b) < 1e-12
            # both reduce to exp[-(e^{2ct} - 1) z^2 / 2]
            direct = cmath.exp(-(math.exp(2 * t) - 1) * z * z / 2.0)
            assert a == pytest.approx(direct, abs=1e-12)

    def test_zero_probe(self):
        trip = cpp_from_atoms([(1.0, 1.0)])
        assert stationary.ou_cf(trip, 1.0, 0.5, 0.0) == 1.0
        assert stationary.exp_path_cf(trip, 1.0, 0.5, 0.0) == 1.0

    def test_one_atom_gap_at_log_two(self):
        trip = cpp_from_atoms([(1.0, 1.0)])
        gap = abs(stationary.ou_cf(trip, 1.0, math.log(2.0), 1.0)
                  - stationary.exp_path_cf(trip, 1.0, math.log(2.0), 1.0))
        assert gap > 0.01

    def test_witness_found_for_jump_laws(self):
        report = stationary.distinguish_ou(cpp_from_atoms([(1.0, 1.0)]), 1.0)
        assert report.distinguishable
        assert report.witness.gap > 1e-3

    def test_gaussian_indistinguishable(self):
        report = stationary.distinguish_ou(brownian(1), 1.0)
        assert not report.distinguishable
        assert report.max_gap < 1e-10

    def test_deterministic_indistinguishable(self):
        report = stationary.distinguish_ou(pure_drift(2.0), 1.0)
        assert not report.distinguishable

    def test_report_serializes(self):
        report = stationary.distinguish_ou(cpp_from_atoms([(1.0, 1.0)]), 1.0)
        d = report.to_dict()
        assert d["witness"] is not None and "gap" in d["witness"]


def probe_loop(triplet, c, probes, gap_threshold=1e-3):
    """Witness (t, z, gap) and max gap of the probes, one probe at a time."""
    witness, max_gap = None, 0.0
    for t, z in probes:
        zz = np.atleast_1d(np.asarray(z, dtype=float))
        ect, emct = math.exp(c * t), math.exp(-c * t)
        ou = cmath.exp(eval_psi(triplet, ect * zz) - eval_psi(triplet, zz))
        sheet = cmath.exp(emct * eval_psi(triplet, (ect - 1.0) * zz)
                          + (1.0 - emct) * (eval_psi(triplet, ect * zz) + eval_psi(triplet, -zz)))
        gap = abs(ou - sheet)
        max_gap = max(max_gap, gap)
        if witness is None and gap > gap_threshold:
            witness = (float(t), tuple(zz.tolist()), gap)
    return witness, max_gap


class TestOUProbeBatch:
    LAWS = {
        "one-atom": cpp_from_atoms([(1.0, 1.0)]),
        "three-atom": cpp_from_atoms([(1.0, 0.8), (-0.6, 1.1), (2.5, 0.3)], drift=0.15),
        "atoms-d2": cpp_from_atoms([([1.0, 0.5], 0.8), ([-0.6, 0.2], 1.1)], drift=[0.1, 0.2]),
        "brownian-d1": brownian(1),
        "brownian-d2": brownian(2),
        "drift": pure_drift(2.0),
    }

    @staticmethod
    def assert_same(report, witness, max_gap):
        tol = lambda v: 4 * np.finfo(float).eps * max(1.0, v)  # noqa: E731
        assert abs(report.max_gap - max_gap) <= tol(max_gap)
        if witness is None:
            assert report.witness is None
            return
        assert (report.witness.t, report.witness.z) == witness[:2]
        assert abs(report.witness.gap - witness[2]) <= tol(witness[2])

    @pytest.mark.parametrize("name", list(LAWS))
    def test_matches_probe_loop(self, name):
        triplet = self.LAWS[name]
        for c in (0.5, 1.0, 1.7):
            report = stationary.distinguish_ou(triplet, c)
            self.assert_same(report, *probe_loop(triplet, c, stationary.default_ou_probes(triplet.dim)))
            assert report.distinguishable == (triplet.jumps is not None)

    def test_default_probes_in_order(self):
        probes, k = stationary.default_ou_probes(2), 0
        for t in (math.log(2.0), math.log(3.0), 1.0):
            for axis in range(2):
                for m in np.geomspace(0.1, 10.0, 16):
                    z = np.zeros(2)
                    z[axis] = m
                    assert probes[k][0] == t and np.array_equal(probes[k][1], z)
                    k += 1
        assert k == len(probes)

    def test_default_probes_are_built_once_per_dim(self):
        triplet = self.LAWS["three-atom"]
        ts, zs = stationary._default_probe_arrays(triplet.dim)
        assert stationary._default_probe_arrays(triplet.dim)[0] is ts
        assert not ts.flags.writeable and not zs.flags.writeable
        assert stationary.distinguish_ou(triplet, 0.8) == stationary.distinguish_ou(triplet, 0.8)


class TestStationaryLaw:
    def test_marginal_exponent(self):
        law = stationary.StationaryLaw(brownian(1), a=2.0, b=0.5, c=1.0)
        assert law.marginal_psi(1.0) == pytest.approx(-0.5 + 0j)

    def test_path_is_built_once_per_domain(self):
        law = stationary.StationaryLaw(brownian(1), a=2.0, b=0.5, c=1.0)
        path = law.path(1.5)
        assert law.path(1.5) is path and law.path(2.0) is not path
        assert stationary.StationaryLaw(brownian(1), a=2.0, b=0.5, c=1.0).path(1.5) is path
        assert path == ExponentialPath(2.0, 0.5, 1.0, 0.0, 1.5)
        with pytest.raises(ValueError, match="t_lo < t_hi"):
            law.path(0.0)

    def test_class_iv_joint_cf_shift_invariant_analytically(self):
        rng = np.random.default_rng(77)
        trip = cpp_from_atoms([(1.0, 1.0)], drift=0.2)
        path = ExponentialPath(1.0, 0.5, 1.0, 0.0, 5.0)
        for _ in range(20):
            times = np.sort(rng.uniform(0.0, 2.0, size=3))
            if np.any(np.diff(times) <= 0):
                continue
            zs = rng.normal(size=(3, 1))
            tau = float(rng.uniform(0.0, 2.5))
            a = fdd.joint_cf(trip, path, times, zs)
            b = fdd.joint_cf(trip, path, times + tau, zs)
            assert abs(a - b) < 1e-12
