"""Levy triplets of infinitely divisible laws and their characteristic exponents.

A law is represented by a triplet (gamma, A, nu): a drift-like vector, a
symmetric nonnegative-definite Gaussian matrix, and a finite-activity jump
measure.  The exponent

    psi(z) = i<gamma, z> - <z, A z>/2
             + integral( exp(i<z, x>) - 1 - i<z, x> 1{|x| <= 1} ) nu(dx)

is evaluated in closed form.  Every jump measure is a rate times a named
jump distribution, nu = rate * F, so the integral is rate * (cf_F(z) - 1)
minus the truncated-mean term; finitely many atoms are the `Categorical`
law.  Only finite total mass is supported; infinite-activity measures are
rejected at construction.  In JSON a law is its class's `name` and its
constructor's fields (`dist_from_dict`, `triplet_to_dict`).
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

__all__ = [
    "PointMass",
    "TwoPoint",
    "UniformJumps",
    "GaussianJumps",
    "Categorical",
    "ScaledJumps",
    "LevyTriplet",
    "eval_psi",
    "is_symmetric",
    "is_deterministic",
    "symmetrize",
    "brownian",
    "pure_drift",
    "cpp",
    "cpp_from_atoms",
    "dist_from_dict",
    "triplet_to_dict",
    "triplet_from_dict",
]

SYMMETRY_TOL = 1e-12


def _as_vector(v, name="vector"):
    arr = np.atleast_1d(np.asarray(v, dtype=float))
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a nonempty 1-d array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


def _positive(**named: float):
    """Raise a ValueError naming the first value that is not finite and positive."""
    for name, value in named.items():
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive")


def _lead_sum(terms: np.ndarray) -> np.ndarray:
    """Sum over the short leading axis, left to right: each element is summed in
    one order whatever the batch length (numpy's reductions go pairwise on long
    axes), and every addition runs along the batch."""
    return functools.reduce(np.add, terms)


# ---------------------------------------------------------------------------
# Named jump distributions.  Each carries a closed-form characteristic
# function, evaluated at the rows of an (m, d) array as real and imaginary
# parts (0.0 for a real cf), a sampler, and the truncated first moment; a
# finitely supported law also gives its `atoms`.
# ---------------------------------------------------------------------------

class _Centered:
    """What the laws symmetric about 0 share: a zero mean and truncated mean, and
    their own symmetrization."""

    has_finite_mean: ClassVar[bool] = True
    is_symmetric: ClassVar[bool] = True

    @property
    def truncated_mean(self) -> np.ndarray:
        return np.zeros(self.dim)

    mean = truncated_mean

    def symmetrized(self):
        return self


@dataclass(frozen=True)
class UniformJumps(_Centered):
    """Real-valued jumps uniform on [-halfwidth, halfwidth]."""

    halfwidth: float
    name: ClassVar[str] = "uniform"
    dim: ClassVar[int] = 1

    def __post_init__(self):
        object.__setattr__(self, "halfwidth", float(self.halfwidth))
        _positive(halfwidth=self.halfwidth)

    def cf(self, z: np.ndarray):
        return np.sinc(self.halfwidth * z[:, 0] / np.pi), 0.0

    def sample(self, rng, size: int) -> np.ndarray:
        return rng.uniform(-self.halfwidth, self.halfwidth, size=(size, 1))

    @property
    def abs_second_moment(self) -> float:
        return self.halfwidth ** 2 / 3.0


@dataclass(frozen=True)
class GaussianJumps(_Centered):
    """Centered Gaussian jumps in R^dim with isotropic covariance sigma^2 I."""

    sigma: float
    dim: int = 1
    name: ClassVar[str] = "gaussian"

    def __post_init__(self):
        dim = float(self.dim)
        if not (dim.is_integer() and dim >= 1):
            raise ValueError(f"dim must be an integer >= 1, got {self.dim!r}")
        object.__setattr__(self, "sigma", float(self.sigma))
        object.__setattr__(self, "dim", int(dim))
        _positive(sigma=self.sigma)

    def cf(self, z: np.ndarray):
        return np.exp(-0.5 * self.sigma ** 2 * _lead_sum(z.T * z.T)), 0.0

    def sample(self, rng, size: int) -> np.ndarray:
        return rng.normal(0.0, self.sigma, size=(size, self.dim))

    @property
    def abs_second_moment(self) -> float:
        return self.dim * self.sigma ** 2


@dataclass(frozen=True, eq=False)
class Categorical:
    """Finitely supported jump distribution with given atoms and weights.

    Weights are normalized to probabilities on input; weights that already
    sum to 1 up to rounding are kept bit for bit, so a law read back from its
    own params is the same law.  Sampling inverts the cumulative weights on
    uniform draws, which is the draw numpy's `Generator.choice(k, p=probs)`
    makes.  The checks, the cumulative weights and the views `cf` reads run
    once, at construction, and `mean` and `abs_second_moment` once per law, on
    first use.  Laws compare and hash by identity.
    """

    points: np.ndarray  # (k, d)
    probs: np.ndarray  # (k,)
    _cdf: np.ndarray = field(init=False, repr=False)
    _point_cols: np.ndarray = field(init=False, repr=False)  # points.T[:, :, None]
    _prob_col: np.ndarray = field(init=False, repr=False)  # probs[:, None]
    name: ClassVar[str] = "categorical"
    has_finite_mean: ClassVar[bool] = True

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        pr = np.asarray(self.probs, dtype=float)
        if pts.shape[0] != pr.size:
            raise ValueError("points and probs must have matching lengths")
        if not np.all(np.isfinite(pts)) or not np.all(np.isfinite(pr)):
            raise ValueError("points and probs must be finite")
        if np.any(pr <= 0):
            raise ValueError("probs must be positive")
        if np.any(np.all(pts == 0.0, axis=1)):
            raise ValueError("jump distribution may not put mass at 0")
        total = pr.sum()
        if abs(total - 1.0) > 4 * pr.size * np.finfo(float).eps:
            pr = pr / total
        cdf = np.cumsum(pr)
        for name, value in (("points", pts), ("probs", pr), ("_cdf", cdf / cdf[-1]),
                            ("_point_cols", pts.T[:, :, None]), ("_prob_col", pr[:, None])):
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def cf(self, z: np.ndarray):
        phases = _lead_sum(self._point_cols * z.T[:, None, :])  # (k, m)
        return _lead_sum(self._prob_col * np.cos(phases)), _lead_sum(self._prob_col * np.sin(phases))

    def sample(self, rng, size: int) -> np.ndarray:
        if self.probs.size == 1:  # a one-atom law is deterministic: draw nothing
            return np.repeat(self.points, size, axis=0)
        return self.points.take(self._cdf.searchsorted(rng.random(size), side="right"), axis=0)

    @property
    def atoms(self):
        """(points, probs): the law as a finite sum of point masses."""
        return self.points, self.probs

    @property
    def truncated_mean(self) -> np.ndarray:
        inside = np.linalg.norm(self.points, axis=1) <= 1.0
        return (self.probs[inside, None] * self.points[inside]).sum(axis=0)

    @functools.cached_property
    def mean(self) -> np.ndarray:
        mean = (self.probs[:, None] * self.points).sum(axis=0)
        mean.flags.writeable = False  # shared by every reader of the law
        return mean

    @functools.cached_property
    def abs_second_moment(self) -> float:
        return float(np.sum(self.probs * np.sum(self.points ** 2, axis=1)))

    def _merged(self, sign: float = 1.0):
        """Atoms of the law (sign -1: of its reflection) with coincident atoms
        merged, in lexicographic order."""
        pts, inv = np.unique(sign * self.points, axis=0, return_inverse=True)
        return pts, np.bincount(inv.ravel(), weights=self.probs, minlength=len(pts))

    @property
    def is_symmetric(self) -> bool:
        pts, pr = self._merged()
        neg, neg_pr = self._merged(-1.0)
        return (pts.shape == neg.shape
                and np.allclose(pts, neg, rtol=0.0, atol=SYMMETRY_TOL)
                and np.allclose(pr, neg_pr, rtol=0.0, atol=SYMMETRY_TOL))

    def symmetrized(self) -> "Categorical":
        both = Categorical(np.vstack([self.points, -self.points]),
                           np.concatenate([self.probs, self.probs]) / 2.0)
        return Categorical(*both._merged())


# PointMass and TwoPoint keep the names of the classes they replace.
def PointMass(point) -> Categorical:
    """Every jump equals the fixed nonzero vector `point`."""
    return Categorical(_as_vector(point, "point")[None, :], [1.0])


def TwoPoint(point) -> Categorical:
    """Jumps +/- `point`, each with probability one half."""
    p = _as_vector(point, "point")
    return Categorical(np.vstack([p, -p]), [0.5, 0.5])


# The point_mass and two_point laws of earlier versions are read, as categorical laws,
# and never written.
_DISTS = {**{cls.name: cls for cls in (UniformJumps, GaussianJumps, Categorical)},
          "point_mass": PointMass, "two_point": TwoPoint}


def dist_from_dict(spec: dict):
    """Rebuild a named jump distribution from {"name": ..., "params": {...}}, whose params
    are the arguments of the named law's constructor; one with a default may be left out."""
    name, = _read_spec(spec, "jump distribution spec", "name")
    make = _DISTS.get(name) if isinstance(name, str) else None  # a JSON list or object is no name
    if make is None:
        raise ValueError(f"unknown jump distribution {name!r}")
    params = spec.get("params", {})
    fields = inspect.signature(make).parameters.values()
    _read_spec(params, f"jump distribution params ({name})",
               *(f.name for f in fields if f.default is f.empty))
    return make(**{f.name: params[f.name] for f in fields if f.name in params})


# ---------------------------------------------------------------------------
# Finite-activity jump measure
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ScaledJumps:
    """Jump measure nu = rate * F for a named sampleable distribution F; compared by identity."""

    rate: float
    dist: object
    # rate * F's truncated mean, read by every psi evaluation
    truncated_first_moment: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        _positive(rate=self.rate)
        if not callable(getattr(self.dist, "cf", None)):
            raise TypeError("scaled jump measure needs a distribution with an evaluable cf")
        if not getattr(self.dist, "has_finite_mean", False):
            raise ValueError("scaled jump measure needs a declared finite-mean distribution")
        object.__setattr__(self, "truncated_first_moment",
                           self.rate * self.dist.truncated_mean)

    @property
    def dim(self) -> int:
        return self.dist.dim

    @property
    def first_moment(self) -> np.ndarray:
        return self.rate * self.dist.mean

    @property
    def abs_second_moment(self) -> float:
        return self.rate * self.dist.abs_second_moment

    def plus_dual(self) -> "ScaledJumps":
        # nu + dual(nu) = 2*rate * (F + dual(F))/2
        return ScaledJumps(2.0 * self.rate, self.dist.symmetrized())

    def to_dict(self) -> dict:
        return {
            "kind": "scaled",
            "rate": self.rate,
            "dist": {"name": self.dist.name, "params": _spec_fields(self.dist)},
        }


def _jumps_from_dict(spec: dict) -> ScaledJumps:
    kind, = _read_spec(spec, "jump measure spec", "kind")
    if kind == "discrete":  # the atom list of earlier versions: read, never written
        atoms, = _read_spec(spec, "jump measure spec (discrete)", "atoms")
        return cpp_from_atoms([_read_spec(a, "jump atom spec", "x", "mass") for a in atoms]).jumps
    if kind == "scaled":
        rate, dist = _read_spec(spec, "jump measure spec (scaled)", "rate", "dist")
        return ScaledJumps(float(rate), dist_from_dict(dist))
    raise ValueError(f"unknown jump measure kind {kind!r}")


# ---------------------------------------------------------------------------
# Levy triplet
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class LevyTriplet:
    """(gamma, A, nu) with finite-activity nu; jumps=None means nu = 0.

    The Gaussian matrix is symmetrized on input and must be nonnegative
    definite up to an eigenvalue tolerance of -1e-12.  The checks run, and
    `drift` and `has_gaussian` are computed, once; laws compare by identity.
    """

    gamma: np.ndarray
    gaussian: np.ndarray
    jumps: ScaledJumps | None = None
    drift: np.ndarray = field(init=False, repr=False)  # gamma_0 = gamma - integral_{|x|<=1} x nu(dx)
    has_gaussian: bool = field(init=False, repr=False)  # False iff every entry of A is +0.0

    def __post_init__(self):
        g = _as_vector(self.gamma, "gamma")
        a = np.asarray(self.gaussian, dtype=float)
        if a.ndim == 0:
            a = a.reshape(1, 1)
        if a.shape != (g.size, g.size):
            raise ValueError(f"gaussian must be {g.size}x{g.size}, got {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("gaussian must be finite")
        a = 0.5 * (a + a.T)
        has_gaussian = bool(a.any() or np.signbit(a).any())  # A = 0 needs no eigenvalues
        if has_gaussian and np.min(np.linalg.eigvalsh(a)) < -1e-12:
            raise ValueError("gaussian must be nonnegative definite")
        if self.jumps is not None and self.jumps.dim != g.size:
            raise ValueError("jump measure dimension does not match gamma")
        drift = g if self.jumps is None else g - self.jumps.truncated_first_moment
        for name, value in (("gamma", g), ("gaussian", a), ("drift", drift), ("has_gaussian", has_gaussian)):
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        return self.gamma.size

    @property
    def mean11(self) -> np.ndarray:
        """Mean of the sheet at time (1,1): gamma_0 + integral x nu(dx)."""
        if self.jumps is None:
            return self.gamma
        return self.drift + self.jumps.first_moment

    @property
    def variance11(self) -> float:
        """Variance at (1,1), real-valued laws only."""
        if self.dim != 1:
            raise ValueError("variance11 is defined for d=1 only")
        var = float(self.gaussian[0, 0])
        if self.jumps is not None:
            var += self.jumps.abs_second_moment
        return var


def eval_psi(triplet: LevyTriplet, z):
    """Exponent psi at z, shape (d,) (a scalar if d = 1), as a complex, or at each
    row of z, shape (m, d), as an (m,) array: one pass of real arithmetic over the
    rows, the single z being the m = 1 batch.  A zero row gives exactly 0j."""
    zz = np.asarray(z, dtype=float)
    rows = zz.reshape(1, -1) if zz.ndim <= 1 else zz
    if rows.ndim != 2 or rows.shape[1] != triplet.dim:
        raise ValueError(f"z has shape {zz.shape}, not ({triplet.dim},) or (m, {triplet.dim})")
    if np.count_nonzero(np.isfinite(rows)) < rows.size:  # count_nonzero: a third of all()'s cost
        raise ValueError("z must be finite")
    cols = rows.T  # (d, m): every array operation below runs along the m rows
    re = -0.0  # the Gaussian term where A is all +0.0: exactly -0.0 at every finite z
    if triplet.has_gaussian:
        az = _lead_sum(triplet.gaussian[:, :, None] * cols[:, None, :])  # (z A)_j as row j
        re = -0.5 * _lead_sum(az * cols)
    im = _lead_sum(triplet.gamma[:, None] * cols)
    jumps = triplet.jumps
    if jumps is not None:  # rate * (cf(z) - 1) - i <truncated first moment, z>
        cf_re, cf_im = jumps.dist.cf(rows)
        re = re + jumps.rate * (cf_re - 1.0)
        im = im + (jumps.rate * cf_im - _lead_sum(jumps.truncated_first_moment[:, None] * cols))
    val = re + 1j * im
    if np.count_nonzero(rows) < rows.size:  # then a row may be zero, and its psi exactly 0j
        val[~cols.any(axis=0)] = 0j
    return val.item() if zz.ndim <= 1 else val


def is_symmetric(triplet: LevyTriplet) -> bool:
    """True iff the law equals its reflection: zero drift and nu = dual(nu), to SYMMETRY_TOL."""
    scale = max(1.0, float(np.max(np.abs(triplet.gamma), initial=0.0)))
    if np.max(np.abs(triplet.drift), initial=0.0) > SYMMETRY_TOL * scale:
        return False
    return triplet.jumps is None or triplet.jumps.dist.is_symmetric


def is_deterministic(triplet: LevyTriplet) -> bool:
    """True iff the law is a point mass: A = 0 (to SYMMETRY_TOL) and nu = 0."""
    return triplet.jumps is None and float(np.max(np.abs(triplet.gaussian), initial=0.0)) <= SYMMETRY_TOL


def symmetrize(triplet: LevyTriplet) -> LevyTriplet:
    """Triplet of the law X - X' for X' an independent copy of X.

    Jump measure nu + dual(nu), Gaussian part 2A, drift 0; the exponent of
    the result equals psi(z) + psi(-z).
    """
    jumps = None if triplet.jumps is None else triplet.jumps.plus_dual()
    gamma = np.zeros(triplet.dim) if jumps is None else jumps.truncated_first_moment
    return LevyTriplet(gamma, 2.0 * triplet.gaussian, jumps)


# ---------------------------------------------------------------------------
# Convenience constructors
# ---------------------------------------------------------------------------

def brownian(dim: int = 1) -> LevyTriplet:
    """Standard Brownian sheet: psi(z) = -|z|^2/2."""
    return LevyTriplet(np.zeros(dim), np.eye(dim))


def pure_drift(gamma) -> LevyTriplet:
    g = _as_vector(gamma, "gamma")
    return LevyTriplet(g, np.zeros((g.size, g.size)))


def cpp(rate: float, dist, drift=0.0) -> LevyTriplet:
    """Compound-Poisson triplet with the given jump rate/distribution and drift."""
    jumps = ScaledJumps(rate, dist)
    g = np.broadcast_to(np.atleast_1d(np.asarray(drift, dtype=float)), (dist.dim,)).copy()
    return LevyTriplet(g + jumps.truncated_first_moment, np.zeros((dist.dim, dist.dim)), jumps)


def cpp_from_atoms(atoms, drift=0.0) -> LevyTriplet:
    """Compound-Poisson triplet from (point, mass) atoms of the jump measure.

    nu = sum_k mass_k delta_{x_k} is the total mass times a Categorical law.
    """
    points = [np.atleast_1d(np.asarray(x, dtype=float)) for x, _ in atoms]
    masses = [float(m) for _, m in atoms]
    if not points:
        raise ValueError("at least one atom required; use jumps=None for no jumps")
    return cpp(sum(masses), Categorical(np.array(points), masses), drift)


# ---------------------------------------------------------------------------
# JSON round-trip
# ---------------------------------------------------------------------------

def _read_spec(spec, what: str, *names: str) -> list:
    """The named fields of the JSON object `spec`, called `what`, in order; a ValueError
    says that `spec` is no object, or names the first field it lacks."""
    if not isinstance(spec, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(spec).__name__}")
    for name in names:
        if name not in spec:
            raise ValueError(f"{what} missing field {name!r}")
    return [spec[name] for name in names]


def _spec_fields(obj) -> dict:
    """A dataclass's constructor fields by name, in order, arrays as nested lists: the
    keys a jump law's params and a closed path form are written with and read back from."""
    values = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj) if f.init}
    return {name: v.tolist() if isinstance(v, np.ndarray) else v for name, v in values.items()}


def triplet_to_dict(triplet: LevyTriplet) -> dict:
    out = {
        "gamma": triplet.gamma.tolist(),
        "gaussian": triplet.gaussian.tolist(),
    }
    if triplet.jumps is not None:
        out["jumps"] = triplet.jumps.to_dict()
    return out


def triplet_from_dict(spec: dict) -> LevyTriplet:
    gamma, gaussian = _read_spec(spec, "triplet spec", "gamma", "gaussian")
    jumps = spec.get("jumps")  # absent or null: no jumps
    return LevyTriplet(gamma, gaussian, None if jumps is None else _jumps_from_dict(jumps))
