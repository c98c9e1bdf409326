import cmath
import math

import numpy as np
import pytest

from levysheet import fdd, stationary
from levysheet.exponent import (
    Categorical,
    GaussianJumps,
    LevyTriplet,
    ScaledJumps,
    UniformJumps,
    brownian,
    cpp,
    cpp_from_atoms,
    eval_psi,
    pure_drift,
)
from levysheet.paths import (
    ExponentialPath,
    HorizontalPath,
    LinearPath,
    VerticalPath,
    VThenHPath,
    classify,
)


def bridge():
    return LinearPath(0.0, 1.0, 1.0, 1.0, 0.0, 1.0)


def random_paths(rng, count):
    for _ in range(count):
        kind = rng.integers(3)
        t_hi = float(rng.uniform(0.5, 1.5))
        if kind == 0:
            b, d = rng.uniform(0.5, 2.0, size=2)
            yield LinearPath(rng.uniform(0, 0.5), b, d * t_hi + rng.uniform(0.1, 1.0),
                             d, 0.0, t_hi)
        elif kind == 1:
            a, b, c = rng.uniform(0.5, 2.0, size=3)
            yield ExponentialPath(a, b, c, 0.0, t_hi)
        else:
            yield HorizontalPath.affine(rng.uniform(0, 1), rng.uniform(0.5, 2),
                                        rng.uniform(0.5, 2), 0.0, t_hi)


class TestJointCF:
    def test_single_time_brownian(self):
        val = fdd.joint_cf(brownian(1), bridge(), [0.5], [1.0])
        assert val == pytest.approx(math.exp(-0.125), abs=1e-14)

    def test_zero_probe(self):
        val = fdd.joint_cf(cpp_from_atoms([(1.0, 1.0)]), bridge(),
                           [0.2, 0.7], np.zeros((2, 1)))
        assert val == 1.0 + 0j

    def test_marginal_consistency(self):
        rng = np.random.default_rng(32)
        trip = cpp_from_atoms([(1.0, 0.8), (-0.6, 1.1)])
        for path in random_paths(rng, 10):
            t1, t2 = np.sort(rng.uniform(path.t_lo + 0.05, path.t_hi - 0.05, size=2))
            if t2 <= t1:
                continue
            z = float(rng.normal())
            two = fdd.joint_cf(trip, path, [t1, t2], np.array([[z], [0.0]]))
            one = fdd.joint_cf(trip, path, [t1], np.array([[z]]))
            assert two == pytest.approx(one, abs=1e-14)

    def test_modulus_bounded_and_hermitian(self):
        rng = np.random.default_rng(33)
        trip = cpp_from_atoms([(0.9, 1.3)], drift=0.2)
        for path in random_paths(rng, 10):
            n = int(rng.integers(1, 5))
            times = np.sort(rng.uniform(path.t_lo + 0.05, path.t_hi - 0.05, size=n))
            if np.any(np.diff(times) <= 0):
                continue
            zs = rng.normal(size=(n, 1))
            val = fdd.joint_cf(trip, path, times, zs)
            assert abs(val) <= 1.0 + 1e-12
            conj = fdd.joint_cf(trip, path, times, -zs)
            assert conj == pytest.approx(val.conjugate(), abs=1e-14)

    def test_rejects_unordered_times(self):
        with pytest.raises(ValueError):
            fdd.joint_cf(brownian(1), bridge(), [0.5, 0.2], np.zeros((2, 1)))

    def test_rejects_times_outside_the_domain(self):
        path = bridge()
        for times in ([-1e-14, 0.5], [0.5, 1.0 + 1e-14], [-1e-14, 0.5, 1.0 + 1e-14]):
            with pytest.raises(ValueError, match="outside the path domain"):
                fdd.joint_cf(brownian(1), path, times, np.ones((len(times), 1)))
        # within the 1e-15 slack the times are accepted
        assert cmath.isfinite(fdd.joint_cf(brownian(1), path, [-1e-16, 1.0 + 1e-16], np.ones((2, 1))))

    def test_rejects_bad_probe_shape(self):
        with pytest.raises(ValueError, match=r"zs must have shape \(2, 1\), got \(3,\)"):
            fdd.joint_cf(brownian(1), bridge(), [0.3, 0.6], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("times", [[0.5], [0.3, 0.6], [0.2, 0.4, 0.6]])
    @pytest.mark.parametrize("triplet", [brownian(2), cpp_from_atoms([([1.0, 0.5], 1.0)])])
    def test_rejects_nonfinite_probes(self, times, triplet):
        for bad in (math.nan, math.inf):
            zs = np.ones((len(times), 2))
            zs[-1, 1] = bad
            with pytest.raises(ValueError, match="z must be finite"):
                fdd.joint_cf(triplet, bridge(), times, zs)

    def test_increment_probe_takes_the_shape_check(self):
        with pytest.raises(ValueError, match=r"zs must have shape \(2, 2\), got \(2, 1\)"):
            fdd.increment_cf(brownian(2), bridge(), 0.3, 0.6, 1.0)
        with pytest.raises(ValueError, match=r"zs must have shape \(2, 1\), got \(2, 1, 1\)"):
            fdd.increment_cf(brownian(1), bridge(), 0.3, 0.6, [[1.0]])

    def test_ou_probes_take_the_same_shape_check(self):
        with pytest.raises(ValueError, match=r"zs must have shape \(2, 1\), got \(3,\)"):
            stationary.ou_cf(brownian(1), 1.0, [0.5, 1.0], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("times", [[0.2, math.nan], [math.nan, 0.2], [math.nan]])
    def test_rejects_nan_times(self, times):
        with pytest.raises(ValueError, match="strictly increasing|outside the path domain"):
            fdd.joint_cf(brownian(1), bridge(), times, np.ones((len(times), 1)))

    def test_pure_drift_covers_area(self):
        # the cells composing the value at t_l cover area x(t_l) y(t_l), so a
        # drift gamma gives exp(i gamma . sum_l z_l x(t_l) y(t_l))
        rng = np.random.default_rng(31)
        for path in random_paths(rng, 20):
            n, d = int(rng.integers(1, 6)), int(rng.integers(1, 3))
            times = np.sort(rng.uniform(path.t_lo + 0.01 * path.span,
                                        path.t_hi - 0.01 * path.span, size=n))
            if np.any(np.diff(times) <= 0):
                continue
            gamma, zs = rng.normal(size=d), rng.normal(size=(n, d))
            xs, ys = path.eval(times)
            want = cmath.exp(1j * float(gamma @ (zs * (xs * ys)[:, None]).sum(axis=0)))
            assert abs(fdd.joint_cf(pure_drift(gamma), path, times, zs) - want) <= 1e-14


def loop_areas(path, times):
    """Rectangle areas by the double loop over (i, j), the reference layout."""
    xs, ys = path.eval(np.asarray(times, dtype=float))
    n = len(times)
    x_ext, y_ext = np.concatenate([[0.0], xs]), np.concatenate([ys, [0.0]])
    areas = np.zeros((n, n))
    for i in range(n):
        for j in range(n - i):
            areas[i, j] = (x_ext[i + 1] - x_ext[i]) * (y_ext[i + j] - y_ext[i + j + 1])
    return areas


def loop_joint_cf(triplet, path, times, zs):
    """One scalar psi call per rectangle of nonzero area, each on a re-summed
    slice of z: the O(n^3) evaluation of the closed form."""
    areas = loop_areas(path, times)
    total = 0j
    for i in range(len(times)):
        for j in range(len(times) - i):
            if areas[i, j] != 0.0:
                total += areas[i, j] * eval_psi(triplet, zs[i: i + j + 1].sum(axis=0))
    return cmath.exp(total)


class TestJointCFBatch:
    N = 200
    CASES = {
        "horizontal": (HorizontalPath.affine(0.2, 1.1, 0.9, 0.0, 1.0),
                       cpp_from_atoms([(1.0, 0.8), (-0.6, 1.1)], drift=0.15)),
        "corner": (VThenHPath(0.5, 1.0, 2.0, 4.0, 2.0, 0.0, 1.0),
                   cpp_from_atoms([(1.0, 0.8), (-0.6, 1.1)], drift=0.15)),
        "linear-d2": (LinearPath(0.1, 1.0, 1.3, 1.1, 0.0, 1.0),
                      cpp_from_atoms([([1.0, 0.5], 0.8), ([-0.6, 0.2], 1.1)], drift=[0.1, 0.2])),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_matches_rectangle_loop(self, name):
        path, triplet = self.CASES[name]
        rng = np.random.default_rng(36)
        times = np.sort(rng.uniform(0.02, 0.98, size=self.N))
        zs = rng.normal(0.0, 1.0 / math.sqrt(self.N), size=(self.N, triplet.dim))
        got = fdd.joint_cf(triplet, path, times, zs)
        want = loop_joint_cf(triplet, path, times, zs)
        assert abs(got - want) <= 64 * np.finfo(float).eps * self.N ** 2

    @pytest.mark.parametrize("name", list(CASES))
    def test_zero_probe_is_exactly_one(self, name):
        path, triplet = self.CASES[name]
        times = np.linspace(0.02, 0.98, self.N)
        val = fdd.joint_cf(triplet, path, times, np.zeros((self.N, triplet.dim)))
        assert val == 1.0 + 0j and not math.copysign(1.0, val.imag) < 0


class TestJointCFCells:
    """Paths with zero-area cells: a vertical or horizontal leg gives cells of
    zero width or height, which joint_cf leaves out of the psi batch."""

    PATHS = {
        "horizontal": HorizontalPath.affine(0.2, 1.1, 0.9, 0.0, 1.0),
        "vertical": VerticalPath.affine(2.5, 1.3, 1.2, 0.0, 1.0),
        "corner": VThenHPath(0.5, 1.0, 2.0, 4.0, 2.0, 0.0, 1.0),
    }
    LAWS = {
        "cpp": cpp_from_atoms([(1.0, 0.8), (-0.6, 1.1)], drift=0.15),
        "brownian-d2": brownian(2),
    }

    @pytest.mark.parametrize("law", list(LAWS))
    @pytest.mark.parametrize("name", list(PATHS))
    def test_matches_rectangle_loop(self, name, law):
        path, triplet = self.PATHS[name], self.LAWS[law]
        rng = np.random.default_rng(37)
        zero_cells = 0
        for n in (1, 2, 3, 7, 30):
            times = np.sort(rng.uniform(0.02, 0.98, size=n))
            zs = rng.normal(0.0, 1.0 / math.sqrt(n), size=(n, triplet.dim))
            areas = loop_areas(path, times)
            i, j = np.indices(areas.shape)
            zero_cells += int(((i + j < n) & (areas == 0.0)).sum())  # cells, not padding
            got = fdd.joint_cf(triplet, path, times, zs)
            assert abs(got - loop_joint_cf(triplet, path, times, zs)) <= 64 * np.finfo(float).eps * n ** 2
        assert zero_cells > 0

    @pytest.mark.parametrize("name", list(PATHS) + ["linear"])
    def test_single_time(self, name):
        path = self.PATHS.get(name, bridge())
        triplet = self.LAWS["cpp"]
        for t in (0.1, 0.5, 0.9):
            x, y = path.eval(t)
            want = cmath.exp(x * y * eval_psi(triplet, 0.7))
            assert fdd.joint_cf(triplet, path, [t], [0.7]) == want


def random_triplet(rng, d):
    """A drift, a random nonnegative-definite Gaussian part of random rank and
    one to three Categorical atoms, all in one law."""
    root = rng.normal(size=(d, int(rng.integers(1, d + 1))))
    k = int(rng.integers(1, 4))
    jumps = ScaledJumps(float(rng.uniform(0.5, 2.0)),
                        Categorical(rng.normal(size=(k, d)), rng.uniform(0.2, 1.0, size=k)))
    return LevyTriplet(rng.normal(size=d), root @ root.T, jumps)


class TestJointCFProperty:
    """joint_cf against the cell-by-cell loop for drift, Gaussian and atom parts
    in d = 1, 2, 3, and for the two jump laws with no atoms, which go through
    the cells, on every path form, including legs with zero-area cells."""

    PATHS = {
        "linear": LinearPath(0.1, 1.0, 1.3, 1.1, 0.0, 1.0),
        "exponential": ExponentialPath(0.7, 1.2, 0.9, 0.0, 1.0),
        "corner": VThenHPath(0.5, 1.0, 2.0, 4.0, 2.0, 0.0, 1.0),
        "horizontal": HorizontalPath.affine(0.2, 1.1, 0.9, 0.0, 1.0),
        "vertical": VerticalPath.affine(2.5, 1.3, 1.2, 0.0, 1.0),
    }
    NS = (1, 2, 3, 7, 30)

    @staticmethod
    def assert_matches_loop(triplet, path, rng):
        for n in TestJointCFProperty.NS:
            times = np.sort(rng.uniform(0.02, 0.98, size=n))
            zs = rng.normal(0.0, 1.0 / math.sqrt(n), size=(n, triplet.dim))
            got = fdd.joint_cf(triplet, path, times, zs)
            assert abs(got - loop_joint_cf(triplet, path, times, zs)) \
                <= 64 * np.finfo(float).eps * n ** 2

    @pytest.mark.parametrize("name", list(PATHS))
    def test_character_laws_match_loop(self, name):
        rng = np.random.default_rng([38, list(self.PATHS).index(name)])
        for d in (1, 2, 3):
            self.assert_matches_loop(random_triplet(rng, d), self.PATHS[name], rng)

    @pytest.mark.parametrize("name", list(PATHS))
    def test_laws_without_atoms_match_loop(self, name):
        rng = np.random.default_rng(39)
        for triplet in (cpp(1.3, UniformJumps(0.8), drift=0.2),
                        LevyTriplet([0.1, -0.2], np.eye(2), ScaledJumps(0.9, GaussianJumps(0.7, 2)))):
            self.assert_matches_loop(triplet, self.PATHS[name], rng)

    def test_character_laws_build_no_cells(self, monkeypatch):
        def no_cells(*args):
            raise AssertionError("joint_cf built the cells")

        monkeypatch.setattr(fdd, "_cells", no_cells)
        rng = np.random.default_rng(40)
        times = np.linspace(0.1, 0.9, 30)
        laws = (brownian(1), brownian(2), pure_drift([0.3, -0.1]),
                cpp_from_atoms([(1.0, 0.8), (-0.6, 1.1)], drift=0.15))
        for triplet in laws:
            for path in self.PATHS.values():
                fdd.joint_cf(triplet, path, times, rng.normal(size=(30, triplet.dim)))
        with pytest.raises(AssertionError, match="built the cells"):
            fdd.joint_cf(cpp(1.0, UniformJumps(0.5)), bridge(), times, np.ones(30))


class TestIncrementCF:
    def test_pinned_bridge_increment(self):
        # both endpoints pinned at zero: the total increment is a.s. zero
        for z in (0.5, 2.0, -3.0):
            assert fdd.increment_cf(brownian(1), bridge(), 0.0, 1.0, z) \
                == pytest.approx(1.0 + 0j, abs=1e-14)

    def test_half_increment(self):
        val = fdd.increment_cf(brownian(1), bridge(), 0.0, 0.5, 1.0)
        assert val == pytest.approx(math.exp(-0.125), abs=1e-14)

    def test_equals_joint_cf_with_opposed_probes(self):
        rng = np.random.default_rng(34)
        trip = cpp_from_atoms([(1.0, 1.0)])
        for path in random_paths(rng, 10):
            s, t = np.sort(rng.uniform(path.t_lo + 0.05, path.t_hi - 0.05, size=2))
            if t <= s:
                continue
            z = float(rng.normal())
            inc = fdd.increment_cf(trip, path, s, t, z)
            joint = fdd.joint_cf(trip, path, [s, t], np.array([[-z], [z]]))
            assert inc == pytest.approx(joint, abs=1e-14)

    def test_symmetric_law_depends_only_on_lag(self):
        trip = cpp_from_atoms([(1.0, 0.5), (-1.0, 0.5)])
        path = ExponentialPath(1.0, 1.0, 1.0, 0.0, 2.0)
        rng = np.random.default_rng(35)
        for _ in range(20):
            u = rng.uniform(0.05, 1.0)
            s1, s2 = rng.uniform(0.0, 2.0 - u, size=2)
            a = fdd.increment_cf(trip, path, s1, s1 + u, 1.3)
            b = fdd.increment_cf(trip, path, s2, s2 + u, 1.3)
            assert a == pytest.approx(b, abs=1e-12)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            fdd.increment_cf(brownian(1), bridge(), 0.5, 0.5, 1.0)

    def test_increment_rectangles(self):
        p = bridge()
        assert fdd.lower_area(p, 0.3, 0.6) == pytest.approx(0.3 * 0.4)
        assert fdd.upper_area(p, 0.3, 0.6) == pytest.approx(0.3 * 0.3)

    def test_equals_rectangle_formula(self):
        rng = np.random.default_rng(37)
        laws = (cpp_from_atoms([(1.0, 0.8), (-0.6, 1.1)], drift=0.15), brownian(1))
        for path in random_paths(rng, 20):
            for trip in laws:
                s, t = np.sort(rng.uniform(path.t_lo, path.t_hi, size=2))
                z = float(rng.normal())
                want = cmath.exp(fdd.lower_area(path, s, t) * eval_psi(trip, z)
                                 + fdd.upper_area(path, s, t) * eval_psi(trip, -z))
                assert abs(fdd.increment_cf(trip, path, s, t, z) - want) <= 1e-15


class TestStationaryIncrementCF:
    def test_symmetric_class_iv(self):
        trip = cpp_from_atoms([(1.0, 1.0), (-1.0, 1.0)])
        path = ExponentialPath(1.0, 1.0, 1.0, 0.0, 2.0)
        cls = classify(path)
        u = math.log(2.0)
        val = fdd.stationary_increment_cf(trip, cls, u, 1.0)
        assert val == pytest.approx(cmath.exp(eval_psi(trip, 1.0)), abs=1e-12)
        # agrees with the direct increment CF on the path
        direct = fdd.increment_cf(trip, path, 0.3, 0.3 + u, 1.0)
        assert val == pytest.approx(direct, abs=1e-12)

    def test_small_lag_limit(self):
        trip = brownian(1)
        cls = classify(ExponentialPath(1.0, 1.0, 1.0, 0.0, 2.0))
        assert fdd.stationary_increment_cf(trip, cls, 1e-12, 1.0) \
            == pytest.approx(1.0, abs=1e-10)

    def test_nonsymmetric_rejected_on_linear(self):
        trip = cpp_from_atoms([(1.0, 1.0)])
        cls = classify(bridge())
        with pytest.raises(ValueError):
            fdd.stationary_increment_cf(trip, cls, 0.3, 1.0)

    def test_nonsymmetric_exponential_averages(self):
        trip = cpp_from_atoms([(1.0, 1.0)])
        path = ExponentialPath(1.0, 1.0, 1.0, 0.0, 2.0)
        cls = classify(path)
        u = 0.4
        val = fdd.stationary_increment_cf(trip, cls, u, 1.0)
        direct = fdd.increment_cf(trip, path, 0.5, 0.9, 1.0)
        assert val == pytest.approx(direct, abs=1e-12)

    def test_nonsymmetric_single_leg_signs(self):
        trip = cpp_from_atoms([(1.0, 1.0)])
        h = HorizontalPath.affine(0.3, 1.2, 0.8, 0.0, 1.0)
        v = VerticalPath.affine(2.0, 1.1, 0.9, 0.0, 1.0)
        u = 0.35
        for path in (h, v):
            cls = classify(path)
            val = fdd.stationary_increment_cf(trip, cls, u, 1.0)
            direct = fdd.increment_cf(trip, path, 0.2, 0.2 + u, 1.0)
            assert val == pytest.approx(direct, abs=1e-12)


class TestConditionalMean:
    def test_bridge_example(self):
        assert fdd.conditional_mean(0.0, bridge(), 0.2, 0.5, 1.0) \
            == pytest.approx(0.625)

    def test_zero_start(self):
        assert fdd.conditional_mean(0.0, bridge(), 0.2, 0.5, 0.0) == 0.0

    def test_vertical_path_levy_backward_mean(self):
        # x constant: the restricted process is a Levy process run backwards
        # in the y coordinate, so E[later | earlier = w] = ratio * w.
        path = VerticalPath.affine(2.0, 1.0, 1.0, 0.0, 1.0)  # y: 2 -> 1
        assert fdd.conditional_mean(5.0, path, 0.0, 1.0, 4.0) == pytest.approx(2.0)

    def test_drift_term(self):
        assert fdd.conditional_mean(4.0, bridge(), 0.2, 0.5, 1.0) \
            == pytest.approx(0.625 + 0.3 * 0.5 * 4.0)
