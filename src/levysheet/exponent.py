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
rejected at construction.
"""

from __future__ import annotations

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
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


# ---------------------------------------------------------------------------
# Named jump distributions.  Each carries a closed-form characteristic
# function, evaluated at the rows of an (m, d) array of arguments, a sampler,
# and the truncated first moment needed by the exponent.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UniformJumps:
    """Real-valued jumps uniform on [-halfwidth, halfwidth]."""

    halfwidth: float
    name: ClassVar[str] = "uniform"
    has_finite_mean: ClassVar[bool] = True

    def __post_init__(self):
        if not (np.isfinite(self.halfwidth) and self.halfwidth > 0):
            raise ValueError("halfwidth must be finite and positive")

    @property
    def dim(self) -> int:
        return 1

    def cf(self, z: np.ndarray) -> np.ndarray:
        return np.sinc(self.halfwidth * z[:, 0] / np.pi).astype(complex)

    def sample(self, rng, size: int) -> np.ndarray:
        return rng.uniform(-self.halfwidth, self.halfwidth, size=(size, 1))

    @property
    def truncated_mean(self) -> np.ndarray:
        return np.zeros(1)

    @property
    def mean(self) -> np.ndarray:
        return np.zeros(1)

    @property
    def abs_second_moment(self) -> float:
        return self.halfwidth ** 2 / 3.0

    @property
    def is_symmetric(self) -> bool:
        return True

    def negated(self) -> "UniformJumps":
        return self

    def symmetrized(self) -> "UniformJumps":
        return self

    def params(self) -> dict:
        return {"halfwidth": self.halfwidth}


@dataclass(frozen=True)
class GaussianJumps:
    """Centered Gaussian jumps with isotropic covariance sigma^2 I."""

    sigma: float
    dim_: int = 1
    name: ClassVar[str] = "gaussian"
    has_finite_mean: ClassVar[bool] = True

    def __post_init__(self):
        if not (np.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError("sigma must be finite and positive")
        if self.dim_ < 1:
            raise ValueError("dim must be >= 1")

    @property
    def dim(self) -> int:
        return self.dim_

    def cf(self, z: np.ndarray) -> np.ndarray:
        return np.exp(-0.5 * self.sigma ** 2 * (z * z).sum(axis=1)).astype(complex)

    def sample(self, rng, size: int) -> np.ndarray:
        return rng.normal(0.0, self.sigma, size=(size, self.dim_))

    @property
    def truncated_mean(self) -> np.ndarray:
        return np.zeros(self.dim_)

    @property
    def mean(self) -> np.ndarray:
        return np.zeros(self.dim_)

    @property
    def abs_second_moment(self) -> float:
        return self.dim_ * self.sigma ** 2

    @property
    def is_symmetric(self) -> bool:
        return True

    def negated(self) -> "GaussianJumps":
        return self

    def symmetrized(self) -> "GaussianJumps":
        return self

    def params(self) -> dict:
        return {"sigma": self.sigma, "dim": self.dim_}


@dataclass(frozen=True)
class Categorical:
    """Finitely supported jump distribution with given atoms and weights.

    Weights are normalized to probabilities on input; weights that already
    sum to 1 up to rounding are kept bit for bit, so a law read back from its
    own params is the same law.  Sampling inverts the cumulative weights on
    uniform draws, which is the draw numpy's `Generator.choice(k, p=probs)`
    makes.
    """

    points: np.ndarray  # (k, d)
    probs: np.ndarray  # (k,)
    _cdf: np.ndarray = field(init=False, repr=False, compare=False)
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
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "probs", pr)
        object.__setattr__(self, "_cdf", cdf / cdf[-1])

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def cf(self, z: np.ndarray) -> np.ndarray:
        phases = (z[:, None, :] * self.points).sum(axis=2)  # (m, k)
        return (self.probs * np.exp(1j * phases)).sum(axis=1)

    def sample(self, rng, size: int) -> np.ndarray:
        if self.probs.size == 1:  # a one-atom law is deterministic: draw nothing
            return np.repeat(self.points, size, axis=0)
        return self.points[np.searchsorted(self._cdf, rng.random(size), side="right")]

    @property
    def truncated_mean(self) -> np.ndarray:
        inside = np.linalg.norm(self.points, axis=1) <= 1.0
        return (self.probs[inside, None] * self.points[inside]).sum(axis=0)

    @property
    def mean(self) -> np.ndarray:
        return (self.probs[:, None] * self.points).sum(axis=0)

    @property
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

    def negated(self) -> "Categorical":
        return Categorical(-self.points, self.probs)

    def symmetrized(self) -> "Categorical":
        both = Categorical(np.vstack([self.points, -self.points]),
                           np.concatenate([self.probs, self.probs]) / 2.0)
        return Categorical(*both._merged())

    def params(self) -> dict:
        return {"points": self.points.tolist(), "probs": self.probs.tolist()}


# PointMass and TwoPoint keep the names of the classes they replace.
def PointMass(point) -> Categorical:
    """Every jump equals the fixed nonzero vector `point`."""
    return Categorical(_as_vector(point, "point")[None, :], [1.0])


def TwoPoint(point) -> Categorical:
    """Jumps +/- `point`, each with probability one half."""
    p = _as_vector(point, "point")
    return Categorical(np.vstack([p, -p]), [0.5, 0.5])


_DIST_REGISTRY = {
    "point_mass": lambda p: PointMass(np.asarray(p["point"], dtype=float)),
    "two_point": lambda p: TwoPoint(np.asarray(p["point"], dtype=float)),
    "uniform": lambda p: UniformJumps(float(p["halfwidth"])),
    "gaussian": lambda p: GaussianJumps(float(p["sigma"]), int(p.get("dim", 1))),
    "categorical": lambda p: Categorical(
        np.asarray(p["points"], dtype=float), np.asarray(p["probs"], dtype=float)
    ),
}


def dist_from_dict(spec: dict):
    """Rebuild a named jump distribution from {"name": ..., "params": {...}}."""
    try:
        name = spec["name"]
    except KeyError:
        raise ValueError("jump distribution spec missing field 'name'") from None
    if name not in _DIST_REGISTRY:
        raise ValueError(f"unknown jump distribution {name!r}")
    return _DIST_REGISTRY[name](spec.get("params", {}))


# ---------------------------------------------------------------------------
# Finite-activity jump measure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScaledJumps:
    """Jump measure nu = rate * F for a named sampleable distribution F."""

    rate: float
    dist: object
    # rate * F's truncated mean, read by every psi evaluation
    truncated_first_moment: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (np.isfinite(self.rate) and self.rate > 0):
            raise ValueError("rate must be finite and positive")
        if not callable(getattr(self.dist, "cf", None)):
            raise TypeError("scaled jump measure needs a distribution with an evaluable cf")
        if not getattr(self.dist, "has_finite_mean", False):
            raise ValueError("scaled jump measure needs a declared finite-mean distribution")
        object.__setattr__(self, "truncated_first_moment",
                           self.rate * self.dist.truncated_mean)

    @property
    def dim(self) -> int:
        return self.dist.dim

    def psi_jump(self, z: np.ndarray) -> np.ndarray:
        """Jump part of the exponent at the rows of z, shape (m, d)."""
        return (self.rate * (self.dist.cf(z) - 1.0)
                - 1j * (z * self.truncated_first_moment).sum(axis=1))

    @property
    def first_moment(self) -> np.ndarray:
        return self.rate * self.dist.mean

    @property
    def abs_second_moment(self) -> float:
        return self.rate * self.dist.abs_second_moment

    def is_symmetric(self, tol=SYMMETRY_TOL) -> bool:
        return self.dist.is_symmetric

    def dual(self) -> "ScaledJumps":
        return ScaledJumps(self.rate, self.dist.negated())

    def plus_dual(self) -> "ScaledJumps":
        # nu + dual(nu) = 2*rate * (F + dual(F))/2
        return ScaledJumps(2.0 * self.rate, self.dist.symmetrized())

    def to_dict(self) -> dict:
        return {
            "kind": "scaled",
            "rate": self.rate,
            "dist": {"name": self.dist.name, "params": self.dist.params()},
        }


def _jumps_from_dict(spec: dict):
    kind = spec.get("kind")
    if kind == "discrete":  # the atom list of earlier versions
        return cpp_from_atoms([(a["x"], a["mass"]) for a in spec["atoms"]]).jumps
    if kind == "scaled":
        return ScaledJumps(float(spec["rate"]), dist_from_dict(spec["dist"]))
    raise ValueError(f"unknown jump measure kind {kind!r}")


# ---------------------------------------------------------------------------
# Levy triplet
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LevyTriplet:
    """(gamma, A, nu) with finite-activity nu; jumps=None means nu = 0.

    The Gaussian matrix is symmetrized on input and must be nonnegative
    definite up to an eigenvalue tolerance of -1e-12.
    """

    gamma: np.ndarray
    gaussian: np.ndarray
    jumps: ScaledJumps | None = None

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
        if a.size and np.min(np.linalg.eigvalsh(a)) < -1e-12:
            raise ValueError("gaussian must be nonnegative definite")
        if self.jumps is not None and self.jumps.dim != g.size:
            raise ValueError("jump measure dimension does not match gamma")
        object.__setattr__(self, "gamma", g)
        object.__setattr__(self, "gaussian", a)

    @property
    def dim(self) -> int:
        return self.gamma.size

    @property
    def drift(self) -> np.ndarray:
        """gamma_0 = gamma - integral_{|x|<=1} x nu(dx)."""
        if self.jumps is None:
            return self.gamma
        return self.gamma - self.jumps.truncated_first_moment

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

    @property
    def is_gaussian(self) -> bool:
        return self.jumps is None


def eval_psi(triplet: LevyTriplet, z):
    """Exponent psi at z, shape (d,) (a scalar if d = 1), as a complex, or at each
    row of z, shape (m, d), as an (m,) array: one array pass over the rows, the
    single z being the m = 1 batch.  A zero row gives exactly 0j."""
    zz = np.asarray(z, dtype=float)
    rows = np.atleast_1d(zz)[None, :] if zz.ndim <= 1 else zz
    if rows.ndim != 2 or rows.shape[1] != triplet.dim:
        raise ValueError(f"z has shape {zz.shape}, not ({triplet.dim},) or (m, {triplet.dim})")
    if not np.isfinite(rows).all():
        raise ValueError("z must be finite")
    az = (rows[:, :, None] * triplet.gaussian).sum(axis=1)  # rows of z A
    val = 1j * (rows * triplet.gamma).sum(axis=1) - 0.5 * (az * rows).sum(axis=1)
    if triplet.jumps is not None:
        val = val + triplet.jumps.psi_jump(rows)
    val[~rows.any(axis=1)] = 0j
    return complex(val[0]) if zz.ndim <= 1 else val


def is_symmetric(triplet: LevyTriplet, tol: float = SYMMETRY_TOL) -> bool:
    """True iff the law equals its reflection: zero drift and nu = dual(nu)."""
    scale = max(1.0, float(np.max(np.abs(triplet.gamma), initial=0.0)))
    if np.max(np.abs(triplet.drift), initial=0.0) > tol * scale:
        return False
    return triplet.jumps is None or triplet.jumps.is_symmetric(tol)


def is_deterministic(triplet: LevyTriplet, tol: float = SYMMETRY_TOL) -> bool:
    """True iff the law is a point mass: A = 0 and nu = 0."""
    return triplet.jumps is None and float(np.max(np.abs(triplet.gaussian), initial=0.0)) <= tol


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

def triplet_to_dict(triplet: LevyTriplet) -> dict:
    out = {
        "gamma": triplet.gamma.tolist(),
        "gaussian": triplet.gaussian.tolist(),
    }
    if triplet.jumps is not None:
        out["jumps"] = triplet.jumps.to_dict()
    return out


def triplet_from_dict(spec: dict) -> LevyTriplet:
    for field in ("gamma", "gaussian"):
        if field not in spec:
            raise ValueError(f"triplet spec missing field {field!r}")
    jumps = _jumps_from_dict(spec["jumps"]) if spec.get("jumps") else None
    return LevyTriplet(
        np.asarray(spec["gamma"], dtype=float),
        np.asarray(spec["gaussian"], dtype=float),
        jumps,
    )
