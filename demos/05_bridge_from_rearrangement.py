"""A Brownian bridge as the difference of a walk and its shuffled self.

Redrawing the jump times of a compound Poisson path uniformly (keeping the
jump values) preserves its law; the difference of the original and the
rearranged path has the law of a symmetrized sheet along a straight path.
Diffusion-scaled, that difference converges to a standard Brownian bridge,
written as the difference of two limiting Brownian motions of variance 1/2.
A finite random walk with a uniformly permuted copy shows the same
covariance structure.
"""

import numpy as np

from levysheet import LinearPath, cpp_from_atoms
from levysheet import fdd, jumpsim
from levysheet.exponent import TwoPoint
from levysheet.verify import cf_match, empirical_cf

rng = np.random.default_rng(11)

# The law identity at a fixed rate: difference values vs the sheet CF.
y, y_prime = jumpsim.rearranged_pairs(2.0, TwoPoint(1.0), 1.0, [0.3, 0.7], 30_000, rng)
vals = (y - y_prime)[:, :, 0]
sheet = cpp_from_atoms([(1.0, 2.0), (-1.0, 2.0)])  # doubled symmetric measure
path = LinearPath(0.0, 1.0, 1.0, 1.0, 0.0, 1.0)
probe = np.array([0.9, -0.4])
emp = empirical_cf(vals, probe)
target = fdd.joint_cf(sheet, path, [0.3, 0.7], probe.reshape(2, 1))
report = cf_match(emp, target)
print("rearranged-difference law vs symmetrized-sheet CF:")
print(f"  empirical  {emp.value:.4f}")
print(f"  analytic   {target:.4f}")
print(f"  within 4/sqrt(N): {report.passed}")

# Diffusion scale: variance t(1-t) at every rate, bridge limit as rate grows.
reps = 4000
draws = jumpsim.bridge_experiments(1000, TwoPoint(1.0), 1.0, [0.5, 1.0], reps, rng)
mid, comp = draws.values[:, 0], draws.centered_original[:, 1]
print(f"\nscaled difference at rate 1000 ({reps} replicates):")
print(f"  Var at t=0.5: {mid.var():.4f} (bridge target 0.25)")
print(f"  variance of each centered component at t=1: {comp.var():.4f} (target 0.5)")

# The random-walk analogue has the same exact covariance at finite n.
pairs = jumpsim.random_walk_bridges(1000, 1.0, TwoPoint(1.0), reps, rng, grid=[0.3, 0.6])
cov = float(np.cov(pairs[:, 0], pairs[:, 1])[0, 1])
print(f"\npermuted random walk, covariance at (0.3, 0.6): {cov:.4f} "
      f"(closed form {jumpsim.rw_bridge_cov(1000, 1.0, 0.0, 1.0, 0.3, 0.6):.4f})")
