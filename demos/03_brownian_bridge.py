"""The Brownian sheet along a straight path is a Brownian bridge.

The Gaussian case is fully tractable: covariance x(min) y(max), exact
simulation as y(t) B(x(t)/y(t)), a Brownian motion run in the ratio time x/y
and scaled by y (no discretization error at the grid points, and exactly 0
where x y = 0), Gaussian transition densities, and closed-form zero-crossing
probabilities.
"""

import math

import numpy as np

from levysheet import LinearPath
from levysheet import gauss

path = LinearPath(0.0, 1.0, 1.0, 1.0, 0.0, 1.0)  # x = t, y = 1 - t
law = gauss.GaussPathLaw(path)

l, p = gauss.identify_bridge(path)
print(f"identified as a standard bridge on [0, {l:g}] with scale p = {p:g}")
print(f"covariance(0.3, 0.6) = {gauss.covariance(law, 0.3, 0.6):.4f} "
      f"(bridge formula s(1-t) = {0.3 * 0.4:.4f})")

rng = np.random.default_rng(42)
grid = np.array([0.0, 0.3, 0.5, 0.6, 1.0])
draws = gauss.simulate_paths(law, grid, rng, n_paths=100_000)[:, :, 0]
print(f"\n100k exact draws on {grid.tolist()}:")
print(f"  endpoints exactly zero: {bool(np.all(draws[:, [0, -1]] == 0.0))}")
print(f"  empirical Var at 0.5:   {draws[:, 2].var():.4f}  (target 0.25)")
print(f"  empirical Cov(0.3,0.6): {np.cov(draws[:, 1], draws[:, 3])[0, 1]:.4f}"
      f"  (target 0.12)")

# Transition density: Gaussian with a contraction mean and explicit variance.
mean = 0.625  # (y(t)/y(s)) * 1 at s=0.2, t=0.5
dens = gauss.transition_density(law, 0.2, 0.5, 1.0, mean)
print(f"\ntransition density peak at its mean {mean}: {dens:.4f} "
      f"(= 1/sqrt(2 pi 0.1875))")

# Zero crossings of the bridge over (0.25, 0.75).
exact = gauss.zero_prob(law, 0.25, 0.75)
n = 40_000
freq = gauss.zero_crossing_frequency(law, 0.25, 0.75, n, 4000, rng)
print(f"\nP(zero in (0.25, 0.75)) = (2/pi) arccos(1/3) = {exact:.4f}")
print(f"Monte Carlo crossing frequency ({n} paths, 4000-point grid): {freq:.4f}")

cond = gauss.zero_prob_conditional(law, 0.25, 0.75, 0.1)
print(f"conditional on the value 0.1 at time 0.25: {cond:.4f}")

# An exponential path instead gives a stationary Ornstein-Uhlenbeck law.
from levysheet import ExponentialPath

ou_path = ExponentialPath(1.0, 0.5, 2.0, 0.0, 1.0)
a, b, c = gauss.identify_ou(ou_path)
print(f"\nexponential path identified as OU with variance r = ab = {a * b:g}, "
      f"decay c = {c:g}")
vals = gauss.simulate_paths(gauss.GaussPathLaw(ou_path), [0.0, 0.3], rng,
                            n_paths=50_000)[:, :, 0]
print(f"empirical Cov(0, 0.3) = {np.cov(vals[:, 0], vals[:, 1])[0, 1]:.4f} "
      f"(r e^(-c u) = {0.5 * math.exp(-0.6):.4f})")
