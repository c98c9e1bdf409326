"""Cancelling jumps: what a compound-Poisson sheet looks like along a path.

Each sheet jump below the path's sweep enters the restricted process when
x(t) reaches its first coordinate and leaves when y(t) drops below its
second, producing a +J/-J pair.  Jumps under the terminal rectangle never
leave.  On a straight path the paired-event count is twice a Poisson count.
"""

import math

import numpy as np

from levysheet import LinearPath
from levysheet import jumpsim, verify
from levysheet.exponent import TwoPoint

path = LinearPath(0.0, 1.0, 1.0, 1.0, 0.0, 1.0)
rng = np.random.default_rng(7)

# One small field, inspected by hand.
field = jumpsim.simulate_cpp_sheet(5.0, TwoPoint(1.0),
                                   jumpsim.RectRegion(1.0, 1.0), rng)
events = jumpsim.restrict_to_path(field, path)
print(f"sheet jumps in the unit square: {field.count}")
print(f"events of the restricted process: {events.times.size}")
for tau, dj in zip(events.times, events.increments[:, 0]):
    print(f"  t = {tau:.3f}  jump {dj:+.0f}")

# The event path reproduces rectangle sums of the field exactly.
t_probe = 0.62
ev_val = events.values([t_probe])[0, 0]
brute = jumpsim.rectangle_sum(field, float(path.x(t_probe)),
                              float(path.y(t_probe)))[0]
print(f"\nvalue at t={t_probe}: events {ev_val:g}, brute-force rectangle sum "
      f"{brute:g} (equal: {ev_val == brute})")

# A jump at (u, v) enters at time u and leaves at time 1 - v on this path.
single = jumpsim.JumpField(jumpsim.RectRegion(1.0, 1.0),
                           np.array([[0.3, 0.4]]), np.array([[1.0]]))
ev = jumpsim.restrict_to_path(single, path)
print(f"\njump at (0.3, 0.4): enters at {ev.times[0]:g}, leaves at {ev.times[1]:g}")

# Paired counts are even, and half-counts are Poisson with mean
# rate * (area swept and exited) -- the triangle under this path.
paired = jumpsim.paired_event_counts(path, 4.0, 5000, rng)
halves, mean = paired // 2, 4.0 * jumpsim.swept_exit_area(path)
chi2 = verify.chi2_counts(halves, lambda k: math.exp(-mean) * mean ** k / math.factorial(k))
print(f"\n5000 simulations at sheet rate 4:")
print(f"  paired event counts always even: {bool(np.all(paired % 2 == 0))}")
print(f"  mean half-count {halves.mean():.3f} (target {mean:g})")
print(f"  chi-square p-value vs Poisson: {chi2.extra['pvalue']:.3f}")

# Uniform jump locations in the swept triangle map to the order statistics
# of two uniforms: the enter/leave times of a uniformly placed jump.
tri = jumpsim.TriangleRegion(1.0, 1.0)
taus = jumpsim.triangle_to_order_stats(tri.sample(rng, 5), 1.0, 1.0, 1.0)
print("\nfive uniform triangle points -> (enter, leave) times:")
for t1, t2 in taus:
    print(f"  ({t1:.3f}, {t2:.3f})")
