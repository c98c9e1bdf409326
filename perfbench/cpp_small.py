"""cpp-small-draws: thousands of independent small compound-Poisson draws.

The cost here is per-call Python work (`EventPath` construction, scalar
loops), not arithmetic.  Restrictions use only closed-form inverses, so the
tabulated-path bisection never runs.  A round draws:

- `REARRANGED` rearranged differences of a rate-2 +/-1 path, valued at
  (0.3, 0.7, 1);
- `BRIDGES` diffusion-scale bridges at rate 1000 and `WALKS` permuted walks
  at n = 1000;
- `SHEETS` unit-square sheets with mean 4 dyadic jumps restricted to the
  straight line (t, 1 - t), valued at (0.2, 0.5);
- `STATIONARY` draws of the stationary process along (e^t, 0.8 e^-t).

Checked against: the rearranged difference's closed-form CF and exact zero
at t = l, uniform jump times (KS), the exact finite-rate bridge variances
t(1 - t) and 1/2 (the centred original and rearranged paths agree at t = l),
the finite-n walk covariance, brute-force sheet sums, even
counts of cancelling events with Poisson(rate x swept area) half-counts, the
conditional-mean regression, and the stationary marginal's mean and variance.
"""

from __future__ import annotations

import math

import numpy as np
from levysheet import exponent, jumpsim, paths, stationary, verify

import oracles

ITEM = "replicate draws"
RATE_NAME = "draws_per_s"  # what items_per_s is called for this workload

REARRANGED, BRIDGES, WALKS, SHEETS, STATIONARY = 4000, 800, 800, 2000, 800
RATE_PATH, RATE_BRIDGE, WALK_N, RATE_SHEET = 2.0, 1000, 1000, 4.0
CF_PROBES = ((1.0, 0.0), (0.7, -0.4), (1.0, 1.0))
SHEET_ATOMS = ((1.0, 0.5), (-0.5, 0.25), (2.0, 0.25))  # (value, probability), dyadic
STAT_ATOMS = ((1.0, 1.0), (-0.5, 0.5))  # (value, mass) of the stationary law's jump measure
STAT_A, STAT_B, STAT_C = 1.0, 0.8, 1.0
SHEET_PROBES = np.array([0.2, 0.5])
# A round draws in BATCHES batches, each with the same share of every shape;
# the checks run once per round on all of its draws.
BATCHES = 20


def _part(total: int, b: int) -> range:
    """The indices of batch b's share of `total` draws."""
    k = total // BATCHES
    return range(b * k, (b + 1) * k)


class Workload:
    def __init__(self, ctx):
        self.pm1 = exponent.TwoPoint(np.array([1.0]))
        self.sheet_dist = exponent.Categorical(np.array([[v] for v, _ in SHEET_ATOMS]),
                                               np.array([p for _, p in SHEET_ATOMS]))
        self.unit = jumpsim.RectRegion(1.0, 1.0)
        self.line = paths.LinearPath(0.0, 1.0, 1.0, 1.0, 0.0, 1.0)
        self.stat = stationary.StationaryLaw(exponent.cpp_from_atoms(list(STAT_ATOMS)),
                                             a=STAT_A, b=STAT_B, c=STAT_C)

    def round(self, rng, tr, ck):
        st = {"rearranged": np.empty((REARRANGED, 3)), "times": [],
              "mid": np.empty(BRIDGES), "comps": np.empty((BRIDGES, 2)), "ends": np.empty(BRIDGES),
              "walks": np.empty((WALKS, 3)),
              "pairs": np.empty((SHEETS, 2)), "halves": np.empty(SHEETS, dtype=int),
              "exact": True, "even": True,
              "stationary": np.empty((STATIONARY, 2))}
        per_batch = (REARRANGED + BRIDGES + WALKS + SHEETS + STATIONARY) // BATCHES
        for b in range(BATCHES):
            with tr.batch(items=per_batch):
                self._draw_rearranged(st, _part(REARRANGED, b), rng, tr)
                self._draw_bridges(st, _part(BRIDGES, b), rng, tr)
                self._draw_walks(st, _part(WALKS, b), rng, tr)
                self._draw_sheets(st, _part(SHEETS, b), rng, tr)
                self._draw_stationary(st, _part(STATIONARY, b), rng, tr)
        self._check_rearranged(st, tr, ck)
        self._check_bridges(st, ck)
        self._check_walks(st, ck)
        self._check_sheets(st, tr, ck)
        self._check_stationary(st, ck)

    def _draw_rearranged(self, st, part, rng, tr):
        for i in part:
            with tr.span("jumpsim.simulate_cpp_path"):
                y = jumpsim.simulate_cpp_path(RATE_PATH, self.pm1, 0.0, 1.0, rng)
            with tr.span("jumpsim.rearranged_difference"):
                y_prime, z = jumpsim.rearranged_difference(y, rng)
            with tr.span("jumpsim.eventpath.values"):
                st["rearranged"][i] = z.values([0.3, 0.7, 1.0])[:, 0]
            st["times"] += (y.times, y_prime.times)

    def _check_rearranged(self, st, tr, ck):
        vals = st["rearranged"]
        ck.ops(REARRANGED)
        ck.check("rearranged.zero-at-l", bool(np.all(vals[:, 2] == 0.0)),
                 "difference at t = l is not exactly zero")
        for probe in CF_PROBES:
            with tr.span("verify.empirical_cf"):
                emp = verify.empirical_cf(vals[:, :2], np.asarray(probe))
            ck.ops()
            proj = vals[:, :2] @ np.asarray(probe)
            cos, sin = np.cos(proj), np.sin(proj)
            ck.close(f"rearranged.ecf-mean@{probe}", complex(emp.re, emp.im),
                     complex(cos.mean(), sin.mean()), 1e-12)
            ck.mean(f"rearranged.ecf-re@{probe}", cos,
                    oracles.rearranged_difference_cf(RATE_PATH, 1.0, 0.3, 0.7, *probe), width=2.0)
            ck.mean(f"rearranged.ecf-im@{probe}", sin, 0.0, width=2.0)
        times = np.concatenate(st["times"])
        with tr.span("verify.ks"):
            ks = verify.ks_1d(times, oracles.uniform_cdf, p_threshold=oracles.P_FALSE)
        ck.ops()
        ck.ks("rearranged.times-uniform", times, oracles.uniform_cdf, ks.extra["pvalue"])

    def _draw_bridges(self, st, part, rng, tr):
        for i in part:
            with tr.span("jumpsim.bridge_experiment"):
                draw = jumpsim.bridge_experiment(RATE_BRIDGE, self.pm1, 1.0, [0.5, 1.0], rng)
            st["mid"][i], st["ends"][i] = draw.values
            st["comps"][i] = draw.centered_original[1], draw.centered_rearranged[1]

    def _check_bridges(self, st, ck):
        mid, comps = st["mid"], st["comps"]
        ck.ops(BRIDGES)
        ck.check("bridge.zero-at-l", bool(np.all(st["ends"] == 0.0)), "bridge at t = l is not exactly zero")
        k2, k4 = oracles.bridge_cumulants(RATE_BRIDGE, 1.0, 0.5, 1.0, 1.0)
        ck.mean("bridge.var@0.5", mid ** 2, k2, sd=oracles.square_sd(k2, k4))
        # Y and its rearrangement share their jumps, so they agree at t = l.
        ck.check("bridge.centred-agree-at-l", bool(np.array_equal(comps[:, 0], comps[:, 1])),
                 "original and rearranged paths differ at t = l")
        k2, k4 = oracles.centred_cumulants(RATE_BRIDGE, 1.0, 1.0, 1.0)
        ck.mean("bridge.var-centred", comps[:, 0] ** 2, k2, sd=oracles.square_sd(k2, k4))

    def _draw_walks(self, st, part, rng, tr):
        for i in part:
            with tr.span("jumpsim.random_walk_bridge"):
                st["walks"][i] = jumpsim.random_walk_bridge(WALK_N, 1.0, self.pm1, rng,
                                                            grid=[0.3, 0.6, 1.0]).values[:, 0]

    def _check_walks(self, st, ck):
        vals = st["walks"]
        ck.ops(WALKS)
        ck.check("walk.zero-at-l", bool(np.all(vals[:, 2] == 0.0)), "walk at t = l is not exactly zero")
        cov = oracles.walk_cov(WALK_N, 1.0, 0.0, 1.0, 0.3, 0.6)
        var_s = oracles.walk_cov(WALK_N, 1.0, 0.0, 1.0, 0.3, 0.3)
        var_t = oracles.walk_cov(WALK_N, 1.0, 0.0, 1.0, 0.6, 0.6)
        ck.mean("walk.cov@0.3,0.6", vals[:, 0] * vals[:, 1], cov, sd=math.sqrt(var_s * var_t + cov ** 2))

    def _draw_sheets(self, st, part, rng, tr):
        probes = SHEET_PROBES
        xs, ys = probes, 1.0 - probes  # the line (t, 1 - t)
        for i in part:
            with tr.span("jumpsim.simulate_cpp_sheet"):
                field = jumpsim.simulate_cpp_sheet(RATE_SHEET, self.sheet_dist, self.unit, rng)
            with tr.span("jumpsim.restrict_to_path", form="small", jumps=field.count):
                events = jumpsim.restrict_to_path(field, self.line)
            with tr.span("jumpsim.eventpath.values"):
                got = events.values(probes)
            st["exact"] &= np.array_equal(got, oracles.sheet_values(field.locations, field.jumps, xs, ys))
            # y(t_hi) = 0, so every jump that enters also leaves: events come in pairs.
            st["even"] &= events.times.size % 2 == 0
            st["halves"][i] = events.times.size // 2
            st["pairs"][i] = got[:, 0]

    def _check_sheets(self, st, tr, ck):
        xs, ys = SHEET_PROBES, 1.0 - SHEET_PROBES
        pairs, halves = st["pairs"], st["halves"]
        ck.ops(SHEETS)
        ck.check("sheet.exact-values", bool(st["exact"]), "restricted values differ from the brute-force sums")
        ck.check("sheet.even-counts", bool(st["even"]), "an odd number of cancelling events")
        swept = 0.5  # area under the line x + y = 1 in the unit square
        with tr.span("verify.chi2"):
            chi2 = verify.chi2_counts(halves, oracles.poisson_pmf(RATE_SHEET * swept),
                                      p_threshold=oracles.P_FALSE)
        ck.ops()
        ck.pvalue("sheet.half-count-poisson", chi2.extra["pvalue"])
        mean11 = RATE_SHEET * sum(v * p for v, p in SHEET_ATOMS)
        with tr.span("verify.regression"):
            rep = verify.conditional_mean_regression(pairs, self.line, 0.2, 0.5, mean11=mean11,
                                                     k=oracles.Z_BAND)
        ck.ops()
        slope, intercept, se_slope, se_icpt = oracles.ols_hc0(pairs[:, 0], pairs[:, 1])
        ck.close("sheet.regression-slope-ols", rep.extra["slope"], slope, 1e-9)
        ck.band("sheet.regression-slope", slope, ys[1] / ys[0], se_slope)
        ck.band("sheet.regression-intercept", intercept, (xs[1] - xs[0]) * ys[1] * mean11, se_icpt)

    def _draw_stationary(self, st, part, rng, tr):
        for i in part:
            with tr.span("stationary.simulate_stationary"):
                st["stationary"][i] = stationary.simulate_stationary(
                    self.stat, [0.0, 0.5, 1.0], rng).values[[0, 2], 0]

    def _check_stationary(self, st, ck):
        vals = st["stationary"]
        ck.ops(STATIONARY)
        ab = STAT_A * STAT_B
        mean = ab * sum(x * m for x, m in STAT_ATOMS)
        k2 = ab * sum(x ** 2 * m for x, m in STAT_ATOMS)
        k4 = ab * sum(x ** 4 * m for x, m in STAT_ATOMS)
        for j, t in enumerate((0.0, 1.0)):
            ck.mean(f"stationary.mean@{t}", vals[:, j], mean, sd=math.sqrt(k2))
            ck.mean(f"stationary.var@{t}", (vals[:, j] - mean) ** 2, k2, sd=oracles.square_sd(k2, k4))
