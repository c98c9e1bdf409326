"""Stationary processes from exponential paths, and how they differ from OU.

Along (a e^{ct}, b e^{-ct}) every sheet yields a strictly stationary process
whose marginal is the sheet law at area ab and whose autocorrelation is
exp(-c|u|) -- the same correlation as a stationary Ornstein-Uhlenbeck-type
process.  The laws still differ whenever jumps are present, which a single
characteristic-function probe exposes.
"""

import cmath
import math

import numpy as np

from levysheet import VThenHPath, brownian, classify, cpp_from_atoms, eval_psi
from levysheet import fdd, gauss, jumpsim, stationary

rng = np.random.default_rng(3)

law = stationary.StationaryLaw(cpp_from_atoms([(1.0, 1.0), (-1.0, 1.0)]),
                               a=1.0, b=0.5, c=1.0)
print(f"marginal exponent at z=1: {law.marginal_psi(1.0):.4f} "
      f"(= ab * psi(1))")

# Strict stationarity in simulation: same marginal CF at any time.
grid = np.array([0.0, 0.1, 0.5, 1.0])
vals = jumpsim.simulate_triplet(law.triplet, law.path(grid[-1]), grid, 6000, rng)[:, :, 0]
print("\nempirical lag correlations vs exp(-c u):")
for j, u in enumerate(grid[1:], start=1):
    corr = float(np.corrcoef(vals[:, 0], vals[:, j])[0, 1])
    print(f"  u = {u:3.1f}: {corr:+.3f}  target {math.exp(-u):+.3f}")

# The Gaussian case really is the stationary OU process.
g = stationary.StationaryLaw(brownian(1), a=1.0, b=0.5, c=2.0)
draws = gauss.simulate_paths(gauss.GaussPathLaw(g.path(0.4)), [0.0, 0.4], rng,
                             n_paths=50_000)[:, :, 0]
print(f"\nGaussian case Cov(0, 0.4): {np.cov(draws[:, 0], draws[:, 1])[0, 1]:.4f} "
      f"(r e^(-c u) = {0.5 * math.exp(-0.8):.4f})")

# With jumps, no OU-type process has the same law: probe the CF gap.
one_atom = cpp_from_atoms([(1.0, 1.0)])
report = stationary.distinguish_ou(one_atom, 1.0)
w = report.witness
print(f"\nOU discrimination for the one-atom jump law: witness at "
      f"t = {w.t:.3f}, z = {w.z[0]:.3f}, CF gap {w.gap:.4f}")
print(f"  there the OU-type CF reads {stationary.ou_cf(one_atom, 1.0, w.t, w.z[0]):.4f} "
      f"and the path's {stationary.exp_path_cf(one_atom, 1.0, w.t, w.z[0]):.4f}")
print(f"same probes on the Gaussian law: max gap {stationary.distinguish_ou(brownian(1), 1.0).max_gap:.2e}"
      f" (indistinguishable by this test)")

# Corner paths give stationary *independent* increments: for a symmetric law,
# re-basing yields a one-parameter Levy process with exponent a c psi.
corner = VThenHPath(0.5, 2.0, 1.0, 1.0, 2.0, 0.0, 1.0)  # a c = 2
u = 0.75
cf = fdd.stationary_increment_cf(brownian(1), classify(corner), u, 1.0)
print(f"\nre-based corner path: Levy exponent log(cf)/u = {cmath.log(cf) / u:.3f} "
      f"at z = 1 (a c psi(1) = {2.0 * eval_psi(brownian(1), 1.0):.3f})")
