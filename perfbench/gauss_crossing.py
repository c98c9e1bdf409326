"""gauss-crossing: exact Gaussian path simulation on fine grids, checked by crossings.

Two Brownian sheets restricted to paths, drawn in batches on grids of
thousands of points: the pinned straight line (t, 1 - t) on [0, 1] and the
exponential path (e^t, 0.5 e^-t) on [0, 1.5].  `gauss.simulate_paths` does
almost all of the program's work; `jumpsim` and `fdd` do none.

Each round checks, against the benchmark's own closed forms:
- the bridge-corrected crossing estimator on (0.25, 0.75) against
  (2/pi) arccos sqrt(r(s)/r(t)) in ratio time r = x/y, and the raw grid
  sign-change frequency against that value plus its band (a grid can only
  miss crossings);
- variance x(t)y(t), covariance x(s)y(t), exact zeros at the pinned ends;
- lag correlations e^{-u} on the exponential path;
- a KS test of the standardised value at t = 1/2, the empirical joint CF of
  (X_0.3, X_0.6) and the conditional-mean regression of X_0.5 on X_0.2.
"""

from __future__ import annotations

import math

import numpy as np
from levysheet import gauss, paths, verify

import oracles

ITEM = "crossing paths"
RATE_NAME = "crossing_paths_per_s"  # what items_per_s is called for this workload

# Per round, BATCHES draws of BATCH paths on each grid.  Smaller draws, or
# draws that alternate between the grids, left the peak resident memory of
# the process depending on the run (133-148 MB with 500 paths, 245-303 MB with
# 2,500 alternating), so that `peak_rss_mb` moved between runs of the same code.
BATCHES, BATCH = 4, 2500
S, T = 0.25, 0.75
LAGS = (0.1, 0.5, 1.0)
CF_PROBES = ((1.0, 0.0), (0.7, -0.4), (1.0, 1.0))


def _index(grid, t):
    i = int(np.argmin(np.abs(grid - t)))
    if abs(grid[i] - t) > 1e-12:
        raise ValueError(f"time {t} is not a grid point")
    return i


class Workload:
    def __init__(self, ctx):
        self.pinned = gauss.GaussPathLaw(paths.LinearPath(0.0, 1.0, 1.0, 1.0, 0.0, 1.0))
        self.expo = gauss.GaussPathLaw(paths.ExponentialPath(1.0, 0.5, 1.0, 0.0, 1.5))
        self.cases = []
        for law, coords, grid in (
            (self.pinned, oracles.Coords("linear", 0.0, 1.0, a=0.0, b=1.0, c=1.0, d=1.0),
             np.linspace(0.0, 1.0, 2001)),
            (self.expo, oracles.Coords("exponential", 0.0, 1.5, a=1.0, b=0.5, c=1.0),
             np.linspace(0.0, 1.5, 1501)),
        ):
            lo, hi = _index(grid, S), _index(grid, T)
            xs, ys = coords.x(grid), coords.y(grid)
            r = xs[lo:hi + 1] / ys[lo:hi + 1]
            kept = (0.2, 0.3, 0.5, 0.6) if law is self.pinned else (0.0, 0.25, 0.75) + LAGS
            self.cases.append({"law": law, "grid": grid, "x": xs, "y": ys,
                               "window": (lo, hi), "r": r,
                               "keep": sorted({_index(grid, t) for t in kept}),
                               "target": oracles.crossing_prob(r[0], r[-1])})

    def round(self, rng, tr, ck):
        """Grid by grid, the grid's draws and then its checks; batch b is draw b
        on each grid, so that every batch makes the same calls."""
        seconds = []
        for case in self.cases:
            acc = {"bridge": [], "raw": [], "kept": []}
            seconds.append([])
            for _ in range(BATCHES):
                before = tr.program_s
                self._draw(case, acc, rng, tr, ck)
                seconds[-1].append(tr.program_s - before)
            self._check(case, acc, tr, ck)
        for pair in zip(*seconds):
            tr.batches.append((sum(pair), BATCH * len(self.cases)))

    def _draw(self, case, acc, rng, tr, ck):
        """One draw of BATCH paths on the case's grid, reduced to what the checks use."""
        law, grid, ys = case["law"], case["grid"], case["y"]
        lo, hi = case["window"]
        with tr.span("gauss.simulate_paths", normals=BATCH * grid.size):
            vals = gauss.simulate_paths(law, grid, rng, n_paths=BATCH)[:, :, 0]
        ck.ops()
        if law is self.pinned:
            ck.check("pinned-endpoints-zero",
                     bool(np.all(vals[:, 0] == 0.0) and np.all(vals[:, -1] == 0.0)),
                     "a pinned end is not exactly zero")
        w = vals[:, lo:hi + 1] / ys[lo:hi + 1]
        acc["bridge"].append(oracles.bridge_crossing(w, case["r"]))
        acc["raw"].append(oracles.sign_changes(w))
        acc["kept"].append(vals[:, case["keep"]])

    def _check(self, case, acc, tr, ck):
        law, grid, xs, ys = case["law"], case["grid"], case["x"], case["y"]
        lo, hi = case["window"]
        pinned = law is self.pinned
        n = BATCHES * BATCH
        col = dict(zip(case["keep"], np.concatenate(acc["kept"]).T))
        bridge, raw = np.concatenate(acc["bridge"]), np.concatenate(acc["raw"])
        target = case["target"]
        tag = "pinned" if pinned else "exponential"
        ck.mean(f"{tag}.bridge-crossing", bridge, target, width=1.0)
        raw_band = oracles.bernstein_band(float(raw.var(ddof=1)), n, 1.0)
        ck.check(f"{tag}.raw-crossing-below", float(raw.mean()) <= target + raw_band,
                 f"sign-change frequency {raw.mean():.5f} above {target:.5f} + {raw_band:.5f}")
        with tr.span("gauss.zero_prob"):
            program = gauss.zero_prob(law, grid[lo], grid[hi])
        ck.ops()
        ck.close(f"{tag}.zero-prob", program, target, 1e-12)

        def var_check(t):
            i = _index(grid, t)
            var = xs[i] * ys[i]
            ck.mean(f"{tag}.var@{t}", col[i] ** 2, var, sd=var * math.sqrt(2.0))

        def cov_check(s, t):
            i, j = _index(grid, s), _index(grid, t)
            cov = xs[i] * ys[j]
            sd = math.sqrt(xs[i] * ys[i] * xs[j] * ys[j] + cov ** 2)
            ck.mean(f"{tag}.cov@{s},{t}", col[i] * col[j], cov, sd=sd)

        if pinned:
            var_check(0.5)
            cov_check(0.3, 0.6)
            self._verify_calls(col, grid, xs, ys, n, tr, ck)
        else:
            var_check(0.75)
            cov_check(0.25, 0.75)
            base = col[_index(grid, 0.0)]
            for u in LAGS:
                corr = float(np.corrcoef(base, col[_index(grid, u)])[0, 1])
                ck.close(f"exponential.lag-corr@{u}", math.atanh(corr), math.atanh(math.exp(-u)),
                         oracles.Z_BAND / math.sqrt(n - 3))

    def _verify_calls(self, col, grid, xs, ys, n, tr, ck):
        path = self.pinned.path
        i5 = _index(grid, 0.5)
        standard = col[i5] / math.sqrt(xs[i5] * ys[i5])
        with tr.span("verify.ks"):
            ks = verify.ks_1d(standard, oracles.std_normal_cdf, p_threshold=oracles.P_FALSE)
        ck.ops()
        ck.ks("pinned.ks@0.5", standard, oracles.std_normal_cdf, ks.extra["pvalue"])

        i3, i6 = _index(grid, 0.3), _index(grid, 0.6)
        pair = np.column_stack([col[i3], col[i6]])
        cov = np.array([[xs[i3] * ys[i3], xs[i3] * ys[i6]], [xs[i3] * ys[i6], xs[i6] * ys[i6]]])
        for probe in CF_PROBES:
            z = np.asarray(probe)
            with tr.span("verify.empirical_cf"):
                emp = verify.empirical_cf(pair, z)
            ck.ops()
            proj = pair @ z
            cos, sin = np.cos(proj), np.sin(proj)
            ck.close(f"pinned.ecf-mean@{probe}", complex(emp.re, emp.im),
                     complex(cos.mean(), sin.mean()), 1e-12)
            ck.mean(f"pinned.ecf-re@{probe}", cos, math.exp(-0.5 * float(z @ cov @ z)), width=2.0)
            ck.mean(f"pinned.ecf-im@{probe}", sin, 0.0, width=2.0)

        i2 = _index(grid, 0.2)
        with tr.span("verify.regression"):
            rep = verify.conditional_mean_regression(np.column_stack([col[i2], col[i5]]),
                                                     path, 0.2, 0.5, mean11=0.0, k=oracles.Z_BAND)
        ck.ops()
        slope, intercept, se_slope, se_icpt = oracles.ols_hc0(col[i2], col[i5])
        ck.close("pinned.regression-slope-ols", rep.extra["slope"], slope, 1e-9)
        ck.band("pinned.regression-slope", slope, ys[i5] / ys[i2], se_slope)
        ck.band("pinned.regression-intercept", intercept, 0.0, se_icpt)
