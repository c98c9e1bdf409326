"""Strictly stationary processes from exponential paths, and OU discrimination.

Restricting any sheet to the path (a e^{ct}, b e^{-ct}) produces a strictly
stationary process whose one-dimensional marginal has exponent a*b*psi and
whose autocorrelation (square-integrable case) is exp(-c|u|).  Despite the
matching correlation structure, such a process agrees in law with a
stationary Ornstein-Uhlenbeck-type process only in the Gaussian case; the
discriminator here exhibits a probe (t, z) where the two transformed
characteristic functions disagree whenever the law has jumps.

Corner paths (vertical-then-horizontal) give stationary independent
increments instead: for a symmetric law, re-basing at any interior time yields
a one-parameter Levy process in law whose exponent is a*c times the sheet's,
which `fdd.stationary_increment_cf` evaluates.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import gauss, jumpsim
from .exponent import LevyTriplet, eval_psi
from .fdd import _as_z_matrix
from .paths import ExponentialPath

__all__ = [
    "StationaryLaw",
    "autocorrelation",
    "simulate_stationary",
    "ou_cf",
    "exp_path_cf",
    "OUWitness",
    "OUDistinguishReport",
    "distinguish_ou",
    "default_ou_probes",
]


@dataclass(frozen=True)
class StationaryLaw:
    """Sheet law restricted to the exponential path (a e^{ct}, b e^{-ct})."""

    triplet: LevyTriplet
    a: float
    b: float
    c: float

    def __post_init__(self):
        if not (self.a > 0 and self.b > 0 and self.c > 0):
            raise ValueError("exponential path parameters must be positive")

    def marginal_psi(self, z) -> complex:
        """Exponent of the one-dimensional marginal: a*b*psi(z)."""
        return self.a * self.b * eval_psi(self.triplet, z)

    def path(self, t_hi: float, t_lo: float = 0.0) -> ExponentialPath:
        return _exponential_path(self.a, self.b, self.c, t_lo, t_hi)


# Each path is built and checked once for the 64 parameter sets and domains used last.
_exponential_path = functools.lru_cache(maxsize=64)(ExponentialPath)


def autocorrelation(law: StationaryLaw, u: float) -> float:
    """Lag-u correlation exp(-c|u|) of the square-integrable stationary process."""
    if law.triplet.dim != 1:
        raise ValueError("autocorrelation is defined for real-valued laws")
    if not law.triplet.variance11 > 0:
        raise ValueError("autocorrelation needs a nondeterministic square-integrable law")
    return math.exp(-law.c * abs(u))


def simulate_stationary(law: StationaryLaw, grid, rng) -> gauss.SamplePathGrid:
    """One draw of the stationary process on the grid (within [0, inf)): the n_draws = 1
    `jumpsim.simulate_triplet` call on `law.path(t_hi)`, t_hi the last time or 1."""
    ts = np.array(grid, dtype=float, copy=None, ndmin=1)
    path = law.path(float(ts[-1]) if ts.size and ts[-1] > 0 else 1.0)
    return gauss.SamplePathGrid(ts, jumpsim.simulate_triplet(law.triplet, path, ts, 1, rng)[0])


# ---------------------------------------------------------------------------
# Ornstein-Uhlenbeck-type discrimination
# ---------------------------------------------------------------------------

_GAP_THRESHOLD = 1e-3  # a probe whose CF gap exceeds it witnesses a difference in law

def _probes(triplet: LevyTriplet, c: float, t, z):
    """The probes' times, (k,), z values, (k, d), and e^{ct}, (k, 1)."""
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    zs = _as_z_matrix(z, ts.size, triplet.dim)
    if not (math.isfinite(c) and c > 0 and np.all(ts > 0) and np.isfinite(ts).all()):
        raise ValueError("c and t must be finite and positive")
    return ts, zs, np.exp(c * ts)[:, None]


def _cf(exponents, t):
    """A complex at one probe (a scalar t), otherwise one value per probe."""
    return cmath.exp(exponents[0]) if np.ndim(t) == 0 else np.exp(exponents)


def _ou_exponents(triplet: LevyTriplet, c: float, t, z):
    """The exponents of `ou_cf` and `exp_path_cf` at the probes, from one psi call (row by row)."""
    ts, zs, ect = _probes(triplet, c, t, z)
    rows = np.concatenate([ect * zs, zs, (ect - 1.0) * zs, -zs])
    up, base, diff, neg = eval_psi(triplet, rows).reshape(4, ts.size)
    emct = np.exp(-c * ts)
    return up - base, emct * diff + (1.0 - emct) * (up + neg)


def ou_cf(triplet: LevyTriplet, c: float, t, z):
    """CF of the integrated driver e^{ct} V_t - V_0 of a stationary OU-type process.

    Equals exp[psi(e^{ct} z) - psi(z)] when the stationary marginal has
    exponent psi.  At one probe (t, z) a complex; at the probes (t[k], z[k]),
    t of shape (k,) and z of shape (k, d), a (k,) array from one psi call.
    """
    return _cf(_ou_exponents(triplet, c, t, z)[0], t)


def exp_path_cf(triplet: LevyTriplet, c: float, t, z):
    """CF of e^{ct} X_t - X_0 for the sheet along (e^{ct}, e^{-ct}), probes as in `ou_cf`.

    Equals exp[e^{-ct} psi((e^{ct}-1) z)
               + (1 - e^{-ct}) (psi(e^{ct} z) + psi(-z))].
    """
    return _cf(_ou_exponents(triplet, c, t, z)[1], t)


@dataclass(frozen=True)
class OUWitness:
    t: float
    z: tuple
    gap: float


@dataclass(frozen=True)
class OUDistinguishReport:
    max_gap: float  # the fields in the order of the JSON keys
    n_probes: int
    gap_threshold: float
    witness: OUWitness | None

    @property
    def distinguishable(self) -> bool:
        return self.witness is not None

    def to_dict(self) -> dict:
        return asdict(self)


def default_ou_probes(dim: int):
    """Times {ln 2, ln 3, 1} crossed with 16 log-spaced |z| along each axis."""
    return [(t, m * np.eye(dim)[axis]) for t in (math.log(2.0), math.log(3.0), 1.0)
            for axis in range(dim) for m in np.geomspace(0.1, 10.0, 16)]


@functools.lru_cache(maxsize=None)
def _default_probe_arrays(dim: int):
    """`default_ou_probes(dim)` as read-only arrays of times, (k,), and z values,
    (k, dim), built once per dim."""
    probes = default_ou_probes(dim)
    ts = np.array([t for t, _ in probes], dtype=float)
    zs = np.array([z for _, z in probes], dtype=float)
    ts.flags.writeable = zs.flags.writeable = False
    return ts, zs


def distinguish_ou(triplet: LevyTriplet, c: float) -> OUDistinguishReport:
    """Search the default probes for one where `ou_cf` and `exp_path_cf` disagree.

    Laws with jumps always admit a witness, a gap over _GAP_THRESHOLD; the
    Gaussian case reports 'indistinguishable by this test' (no witness, tiny
    max gap).
    """
    ts, zs = _default_probe_arrays(triplet.dim)
    ou, exp_path = _ou_exponents(triplet, c, ts, zs)
    gaps = np.abs(np.exp(ou) - np.exp(exp_path))
    hits = np.flatnonzero(gaps > _GAP_THRESHOLD)
    witness = None
    if hits.size:  # the first probe, in probe order, over the threshold
        k = hits[0]
        witness = OUWitness(float(ts[k]), tuple(zs[k].tolist()), float(gaps[k]))
    return OUDistinguishReport(witness=witness, max_gap=float(np.max(gaps)),
                               n_probes=ts.size, gap_threshold=_GAP_THRESHOLD)
