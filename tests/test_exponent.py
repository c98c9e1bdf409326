import cmath
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from levysheet import exponent as ex
from levysheet.verify import cf_match, empirical_cf


def one_atom_cpp():
    return ex.cpp_from_atoms([(1.0, 1.0)])


def symmetric_cpp():
    return ex.cpp_from_atoms([(1.0, 0.5), (-1.0, 0.5)])


class TestEvalPsi:
    def test_brownian(self):
        assert ex.eval_psi(ex.brownian(1), 1.0) == pytest.approx(-0.5 + 0j)

    def test_zero_is_exact(self):
        for triplet in (ex.brownian(3), one_atom_cpp(),
                        ex.cpp(2.0, ex.UniformJumps(0.7))):
            assert ex.eval_psi(triplet, np.zeros(triplet.dim)) == 0j

    def test_one_atom_at_pi(self):
        # drift zero, single unit jump: psi(z) = e^{iz} - 1
        assert ex.eval_psi(one_atom_cpp(), np.pi) == pytest.approx(-2.0 + 0j, abs=1e-14)

    def test_one_atom_against_poisson_mc(self):
        rng = np.random.default_rng(10)
        samples = rng.poisson(1.0, size=200_000).astype(float)
        emp = empirical_cf(samples, np.pi)
        target = cmath.exp(ex.eval_psi(one_atom_cpp(), np.pi))
        assert cf_match(emp, target).passed

    def test_discrete_matches_bruteforce_sum(self):
        rng = np.random.default_rng(11)
        atoms = [(rng.normal(size=2), float(rng.uniform(0.1, 2.0))) for _ in range(5)]
        masses = [m for _, m in atoms]
        jumps = ex.ScaledJumps(sum(masses), ex.Categorical([x for x, _ in atoms], masses))
        triplet = ex.LevyTriplet(np.array([0.3, -0.2]), 0.1 * np.eye(2), jumps)
        for _ in range(20):
            z = rng.normal(size=2)
            brute = 1j * np.dot(triplet.gamma, z) - 0.5 * z @ triplet.gaussian @ z
            for point, mass in atoms:
                cut = 1.0 if np.linalg.norm(point) <= 1 else 0.0
                brute += mass * (cmath.exp(1j * np.dot(z, point)) - 1
                                 - 1j * np.dot(z, point) * cut)
            assert ex.eval_psi(triplet, z) == pytest.approx(brute, abs=1e-14)

    def test_scaled_uniform_and_gaussian(self):
        trip = ex.cpp(3.0, ex.UniformJumps(0.5))
        z = 1.3
        expected = 3.0 * (np.sin(0.5 * z) / (0.5 * z) - 1.0)
        assert ex.eval_psi(trip, z) == pytest.approx(expected, abs=1e-14)
        trip2 = ex.cpp(2.0, ex.GaussianJumps(0.8))
        expected2 = 2.0 * (np.exp(-0.5 * 0.64 * z * z) - 1.0)
        assert ex.eval_psi(trip2, z) == pytest.approx(expected2, abs=1e-14)

    def test_rejects_bad_z(self):
        with pytest.raises(ValueError, match="z must be finite"):
            ex.eval_psi(ex.brownian(1), np.inf)
        with pytest.raises(ValueError, match=r"z has shape \(1,\), not \(2,\) or \(m, 2\)"):
            ex.eval_psi(ex.brownian(2), np.array([1.0]))
        with pytest.raises(ValueError, match=r"z has shape \(\), not \(2,\) or \(m, 2\)"):
            ex.eval_psi(ex.brownian(2), 1.0)

    @given(st.floats(-20.0, 20.0))
    def test_hermitian_symmetry(self, z):
        for triplet in (ex.brownian(1), one_atom_cpp(),
                        ex.cpp(1.5, ex.UniformJumps(1.2), drift=0.4)):
            left = ex.eval_psi(triplet, -z)
            right = ex.eval_psi(triplet, z).conjugate()
            assert left == pytest.approx(right, abs=1e-12)


def batch_laws():
    """One law of each kind the exponent distinguishes, with d = 1 and 2."""
    return {
        "uniform": ex.cpp(1.3, ex.UniformJumps(0.8), drift=0.3),
        "gaussian-d1": ex.cpp(0.9, ex.GaussianJumps(0.7), drift=-0.2),
        "gaussian-d2": ex.LevyTriplet([0.1, -0.3], [[1.0, 0.3], [0.3, 0.5]],
                                      ex.ScaledJumps(1.1, ex.GaussianJumps(0.6, 2))),
        "categorical-d1": ex.cpp_from_atoms([(1.0, 0.8), (-0.6, 1.1), (2.5, 0.3)], drift=0.15),
        "categorical-d2": ex.cpp_from_atoms([([1.0, 0.5], 0.8), ([-0.6, 0.2], 1.1)],
                                            drift=[0.1, 0.2]),
        "drift": ex.pure_drift([0.7, -1.2]),
        "brownian-d1": ex.brownian(1),
        "brownian-d2": ex.LevyTriplet(np.zeros(2), [[1.0, 0.4], [0.4, 0.6]]),
        # enough atoms or coordinates that numpy's own sums would go pairwise
        "categorical-10-atoms": ex.cpp_from_atoms(
            [(float(x), 0.1 + 0.05 * i) for i, x in enumerate(np.linspace(-2.2, 2.3, 10))], drift=0.2),
        "brownian-d9": ex.LevyTriplet(np.linspace(-0.4, 0.4, 9), np.eye(9) + 0.05),
    }


def reference_psi(triplet, z):
    """psi(z) term by term in Python complex arithmetic, the jump cf as a
    complex exponential (an average of them for Uniform and Gaussian jumps)."""
    z = np.asarray(z, dtype=float)
    val = 1j * float(np.dot(triplet.gamma, z)) - 0.5 * float(z @ triplet.gaussian @ z)
    if triplet.jumps is None:
        return val
    rate, dist = triplet.jumps.rate, triplet.jumps.dist
    if isinstance(dist, ex.Categorical):
        cf = sum(p * cmath.exp(1j * float(np.dot(x, z))) for x, p in zip(dist.points, dist.probs))
    elif isinstance(dist, ex.UniformJumps):
        hz = dist.halfwidth * float(z[0])
        cf = (cmath.exp(1j * hz) - cmath.exp(-1j * hz)) / (2j * hz)
    else:
        cf = cmath.exp(-0.5 * dist.sigma ** 2 * float(z @ z))
    return val + rate * (cf - 1.0) - 1j * float(np.dot(triplet.jumps.truncated_first_moment, z))


class TestEvalPsiBatch:
    @pytest.mark.parametrize("name", list(batch_laws()))
    def test_rows_equal_single_calls(self, name):
        triplet = batch_laws()[name]
        rng = np.random.default_rng(14)
        zs = rng.normal(0.0, 2.0, size=(500, triplet.dim))
        zs[::9] = 0.0
        batch = ex.eval_psi(triplet, zs)
        assert batch.shape == (500,) and batch.dtype == complex
        single = np.array([ex.eval_psi(triplet, z) for z in zs])
        assert np.array_equal(batch, single)
        assert np.all(batch[::9] == 0j)
        assert not np.any(np.signbit(batch[::9].real) | np.signbit(batch[::9].imag))

    @pytest.mark.parametrize("name", ["uniform", "gaussian-d1", "gaussian-d2", "categorical-d1",
                                      "categorical-d2", "categorical-10-atoms"])
    def test_real_arithmetic_matches_complex_exp(self, name):
        """The cf's real and imaginary parts, summed apart, agree with the complex
        exponential to a few ulps of the size of psi's terms."""
        triplet = batch_laws()[name]
        rng = np.random.default_rng(15)
        zs = rng.normal(0.0, 2.0, size=(300, triplet.dim))
        got = ex.eval_psi(triplet, zs)
        for z, value in zip(zs, got):
            size = (abs(float(np.dot(triplet.gamma, z))) + float(z @ triplet.gaussian @ z)
                    + 2.0 * triplet.jumps.rate + 1.0)
            assert abs(value - reference_psi(triplet, z)) <= 8 * np.finfo(float).eps * size

    def test_single_call_returns_python_complex(self):
        for triplet in batch_laws().values():
            val = ex.eval_psi(triplet, np.full(triplet.dim, 0.5))
            assert type(val) is complex
        assert type(ex.eval_psi(ex.brownian(1), 0.0)) is complex

    def test_empty_batch(self):
        assert ex.eval_psi(one_atom_cpp(), np.zeros((0, 1))).shape == (0,)

    def test_rejects_bad_shapes_and_nonfinite_rows(self):
        law2 = batch_laws()["categorical-d2"]
        for z in (np.zeros((3, 1)), np.zeros((3, 3)), np.zeros((2, 3, 2)), np.zeros(3)):
            with pytest.raises(ValueError, match=re.escape(f"z has shape {z.shape}, not (2,) or (m, 2)")):
                ex.eval_psi(law2, z)
        for bad in (np.nan, np.inf, -np.inf):
            zs = np.ones((4, 2))
            zs[2, 1] = bad
            with pytest.raises(ValueError, match="z must be finite"):
                ex.eval_psi(law2, zs)


class TestPredicates:
    def test_symmetry(self):
        assert ex.is_symmetric(ex.brownian(1))
        assert not ex.is_symmetric(one_atom_cpp())
        sym = symmetric_cpp()
        assert ex.is_symmetric(sym)
        rng = np.random.default_rng(12)
        for z in rng.normal(size=10):
            gap = abs(ex.eval_psi(sym, z) - ex.eval_psi(sym, -z))
            assert gap < 1e-12

    def test_symmetric_scaled_flag(self):
        assert ex.is_symmetric(ex.cpp(1.0, ex.TwoPoint(1.0)))
        assert not ex.is_symmetric(ex.cpp(1.0, ex.PointMass(1.0)))

    def test_deterministic(self):
        assert ex.is_deterministic(ex.pure_drift(3.0))
        assert not ex.is_deterministic(ex.brownian(1))
        cppt = one_atom_cpp()
        assert not ex.is_deterministic(cppt)
        # psi(z) + psi(-z) != 0 somewhere for a nondeterministic law
        zs = np.linspace(0.1, 5.0, 40)
        assert max(abs(ex.eval_psi(cppt, z) + ex.eval_psi(cppt, -z)) for z in zs) > 1e-3

    def test_deterministic_exponent_odd_imaginary(self):
        trip = ex.pure_drift(2.0)
        for z in (0.3, 1.7):
            val = ex.eval_psi(trip, z)
            assert val.real == 0.0
            assert val == -ex.eval_psi(trip, -z)


class TestSymmetrize:
    def test_single_atom_gains_mirror(self):
        sym = ex.symmetrize(one_atom_cpp())
        assert sorted(sym.jumps.dist.points[:, 0].tolist()) == [-1.0, 1.0]
        assert np.allclose(sym.jumps.rate * sym.jumps.dist.probs, [1.0, 1.0])

    def test_symmetric_input_doubles_masses(self):
        sym = ex.symmetrize(symmetric_cpp())
        assert sym.jumps.dist.points.shape == (2, 1)  # coincident atoms merged
        assert np.allclose(sorted(sym.jumps.rate * sym.jumps.dist.probs), [1.0, 1.0])
        assert ex.is_symmetric(sym)

    def test_scaled_point_mass_becomes_two_point(self):
        sym = ex.symmetrize(ex.cpp(1.5, ex.PointMass(0.7)))
        assert sorted(sym.jumps.dist.points[:, 0].tolist()) == [-0.7, 0.7]
        assert np.allclose(sym.jumps.dist.probs, [0.5, 0.5])
        assert sym.jumps.rate == pytest.approx(3.0)

    @given(st.floats(-8.0, 8.0))
    def test_exponent_identity(self, z):
        for triplet in (ex.brownian(1), one_atom_cpp(),
                        ex.cpp_from_atoms([(0.4, 1.0), (-1.3, 0.2)], drift=0.7),
                        ex.cpp(2.0, ex.PointMass(0.7), drift=-0.1)):
            lhs = ex.eval_psi(ex.symmetrize(triplet), z)
            rhs = ex.eval_psi(triplet, z) + ex.eval_psi(triplet, -z)
            assert lhs == pytest.approx(rhs, abs=1e-12)


class TestConstruction:
    def test_gaussian_must_be_psd(self):
        with pytest.raises(ValueError):
            ex.LevyTriplet(np.zeros(2), np.array([[1.0, 0.0], [0.0, -1.0]]))

    @pytest.mark.parametrize("gamma,gaussian,jumps,message", [
        ([], [[1.0]], None, "gamma must be a nonempty 1-d array"),
        ([[0.0]], [[1.0]], None, "gamma must be a nonempty 1-d array"),
        ([np.nan], [[1.0]], None, "gamma must be finite"),
        ([0.0, 0.0], [[1.0]], None, r"gaussian must be 2x2, got \(1, 1\)"),
        ([0.0], [[np.inf]], None, "gaussian must be finite"),
        ([0.0, 0.0], [[1.0, 0.0], [0.0, -1e-9]], None, "gaussian must be nonnegative definite"),
        ([0.0], [[-1e-9]], None, "gaussian must be nonnegative definite"),
        ([0.0, 0.0], np.zeros((2, 2)), ex.ScaledJumps(1.0, ex.TwoPoint(1.0)),
         "jump measure dimension does not match gamma"),
    ])
    def test_construction_messages(self, gamma, gaussian, jumps, message):
        with pytest.raises(ValueError, match=message):
            ex.LevyTriplet(gamma, gaussian, jumps)

    @pytest.mark.parametrize("dim", [0, -1, 1.5, np.nan, np.inf, 2.000001])
    def test_gaussian_jumps_dim_is_an_integer(self, dim):
        with pytest.raises(ValueError, match=r"dim must be an integer >= 1, got "):
            ex.GaussianJumps(1.0, dim)

    def test_gaussian_jumps_dim_reads_as_int(self):
        law = ex.GaussianJumps(1, 3.0)
        assert (law.sigma, law.dim) == (1.0, 3) and type(law.dim) is int and type(law.sigma) is float

    @pytest.mark.parametrize("gaussian,has", [
        (np.zeros((2, 2)), False), (np.eye(2), True), (-np.zeros((2, 2)), True),
        ([[0.0, 1e-300], [1e-300, 0.0]], True)])
    def test_gaussian_part_and_drift_are_computed_once(self, gaussian, has):
        jumps = ex.ScaledJumps(2.0, ex.TwoPoint([0.5, 0.0]))
        trip = ex.LevyTriplet([0.25, 1.0], gaussian, jumps)
        assert trip.has_gaussian is has
        assert trip.drift is trip.drift
        assert trip.drift.tolist() == (trip.gamma - jumps.truncated_first_moment).tolist()

    def test_gaussian_symmetrized_on_input(self):
        trip = ex.LevyTriplet(np.zeros(2), np.array([[1.0, 0.2], [0.2, 1.0]]))
        assert np.array_equal(trip.gaussian, trip.gaussian.T)

    def test_no_atom_at_zero(self):
        with pytest.raises(ValueError):
            ex.cpp_from_atoms([(0.0, 1.0)])
        with pytest.raises(ValueError):
            ex.PointMass(0.0)

    def test_tiny_atom_is_not_zero(self):
        # Its squared norm underflows to 0, but the atom itself is nonzero.
        trip = ex.cpp_from_atoms([(1e-200, 1.0)])
        assert trip.jumps.dist.points.tolist() == [[1e-200]]
        with pytest.raises(ValueError, match="mass at 0"):
            ex.Categorical([[1e-200, 0.0], [0.0, 0.0]], [0.5, 0.5])

    def test_masses_positive(self):
        with pytest.raises(ValueError):
            ex.cpp_from_atoms([(1.0, -0.5)])
        with pytest.raises(ValueError):
            ex.cpp_from_atoms([(1.0, 2.0), (-1.0, -0.5)])

    def test_scaled_needs_cf(self):
        class NoCF:
            has_finite_mean = True
            dim = 1

        with pytest.raises(TypeError):
            ex.ScaledJumps(1.0, NoCF())

    def test_scaled_needs_finite_mean_flag(self):
        class NoMean:
            dim = 1

            def cf(self, z):
                return 1.0

        with pytest.raises(ValueError):
            ex.ScaledJumps(1.0, NoMean())

    def test_drift_accessor(self):
        trip = one_atom_cpp()
        assert trip.drift[0] == pytest.approx(0.0)
        assert trip.gamma[0] == pytest.approx(1.0)  # truncated first moment of delta_1
        assert trip.mean11[0] == pytest.approx(1.0)

    def test_variance11(self):
        trip = ex.cpp_from_atoms([(2.0, 0.5)])
        assert trip.variance11 == pytest.approx(2.0)
        assert ex.brownian(1).variance11 == pytest.approx(1.0)


class TestSerialization:
    def test_round_trip_discrete(self):
        for atoms in ([(1.0, 2.0), (-0.5, 0.7)], [(1.0, 0.1), (2.0, 0.2), (3.0, 0.3)]):
            trip = ex.cpp_from_atoms(atoms, drift=0.3)
            spec = ex.triplet_to_dict(trip)
            back = ex.triplet_from_dict(spec)
            assert ex.triplet_to_dict(back) == spec

    def test_round_trip_scaled(self):
        for dist in (ex.PointMass([0.5, -0.5]), ex.TwoPoint(1.0),
                     ex.UniformJumps(0.9), ex.GaussianJumps(0.4, 2),
                     ex.Categorical([[1.0], [-2.0]], [0.25, 0.75])):
            trip = ex.cpp(1.5, dist)
            spec = ex.triplet_to_dict(trip)
            back = ex.triplet_from_dict(spec)
            assert ex.triplet_to_dict(back) == spec

    def test_old_atom_specs_load(self):
        # earlier versions wrote atom measures as "discrete" lists and had
        # "point_mass" / "two_point" laws; each exponent is the one those
        # versions evaluated, an atom-by-atom sum
        atoms = [(1.0, 2.0), (-0.5, 0.7), (1.5, 0.3)]
        specs = [
            ({"kind": "discrete", "atoms": [{"x": [x], "mass": m} for x, m in atoms]},
             0.9, atoms),
            ({"kind": "scaled", "rate": 1.5,
              "dist": {"name": "point_mass", "params": {"point": [0.7]}}},
             1.05, [(0.7, 1.5)]),
            ({"kind": "scaled", "rate": 2.5,
              "dist": {"name": "two_point", "params": {"point": [1.2]}}},
             0.0, [(1.2, 1.25), (-1.2, 1.25)]),
        ]
        for jumps, gamma, atom_list in specs:
            trip = ex.triplet_from_dict({"gamma": [gamma], "gaussian": [[0.0]], "jumps": jumps})
            assert ex.triplet_to_dict(trip)["jumps"]["dist"]["name"] == "categorical"
            for z in np.linspace(-6.0, 6.0, 41):
                want = 1j * gamma * z + sum(
                    m * (cmath.exp(1j * z * x) - 1.0 - 1j * z * x * (abs(x) <= 1.0))
                    for x, m in atom_list)
                assert abs(ex.eval_psi(trip, z) - want) <= 1e-14

    def test_missing_field_named(self):
        with pytest.raises(ValueError, match="gamma"):
            ex.triplet_from_dict({"gaussian": [[1.0]]})
        with pytest.raises(ValueError, match="name"):
            ex.dist_from_dict({"params": {}})

    def test_categorical_draws(self):
        dist = ex.Categorical([[1.0], [-2.0], [0.5]], [0.2, 0.5, 0.3])
        idx = np.random.default_rng(14).choice(3, size=1000, p=dist.probs)
        assert np.array_equal(dist.sample(np.random.default_rng(14), 1000), dist.points[idx])
        rng = np.random.default_rng(15)
        state = rng.bit_generator.state
        draws = ex.PointMass([0.5, -0.5]).sample(rng, 3)
        assert np.array_equal(draws, np.tile([0.5, -0.5], (3, 1)))
        assert rng.bit_generator.state == state  # a one-atom law draws nothing

    def test_categorical_moments_are_computed_once(self):
        dist = ex.Categorical([[1.0, 0.5], [-2.0, 0.0]], [0.25, 0.75])
        mean, m2 = dist.mean, dist.abs_second_moment
        assert mean.tolist() == [-1.25, 0.125] and m2 == 0.25 * 1.25 + 0.75 * 4.0
        assert dist.mean is mean and not mean.flags.writeable

    def test_jump_samplers_match_declared_moments(self):
        rng = np.random.default_rng(13)
        for dist in (ex.TwoPoint(1.0), ex.UniformJumps(1.5), ex.GaussianJumps(0.7),
                     ex.Categorical([[1.0], [-2.0]], [0.5, 0.5])):
            draws = dist.sample(rng, 100_000)
            assert draws.shape == (100_000, 1)
            m2 = float(np.mean(np.sum(draws ** 2, axis=1)))
            assert m2 == pytest.approx(dist.abs_second_moment, rel=0.05)
