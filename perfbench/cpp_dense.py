"""cpp-dense-field: a few large jump fields restricted to every path form.

The same `jumpsim` layer as cpp-small-draws in the opposite shape: few large
calls instead of many small ones, so the per-jump `paths` inverses dominate.
A round is `BATCHES` batches; a batch builds, for d = 1 and d = 2 and for
each form (linear, exponential, corner, and a 64-knot tabulated path with a
flat segment in x and one in y), one field of `JUMPS` (tabulated:
`JUMPS_TABULATED`) dyadic-valued jumps over a rectangle covering the path's
sweep, restricts it to the path and reads the values at `PROBES` random
times.  It also calls the path's two sweep inverses directly at
`INVERSE_SAMPLE` of the jump locations.

Checked against: brute-force sums over the jumps with u <= x(t) and
v <= y(t), bit for bit (dyadic values make every partial sum exact, so the
order of summation cannot matter); an even count of non-persistent events;
and the benchmark's own sweep inverses.  Probe times are drawn at least
`DELTA` away from every event time (where the brute-force value changes
within +/- DELTA), because the library inverts tabulated paths by bisection
to 1e-12 in t.
"""

from __future__ import annotations

import numpy as np
from levysheet import jumpsim, paths

import oracles

ITEM = "sheet jumps restricted and probed"
RATE_NAME = "jumps_restricted_per_s"  # what items_per_s is called for this workload

FORMS = ("linear", "exponential", "corner", "tabulated")
JUMPS, JUMPS_TABULATED = 2000, 250
PROBES, INVERSE_SAMPLE = 32, 50
BATCHES = 6  # batches per round, each of the eight fields
KNOTS = 64
# Fixed sides, so that the share of jumps beyond the sweep (which skip the
# inverses) and hence the cost per jump do not vary from round to round.
REGION_MARGIN = 1.2
DELTA = 1e-9
INVERSE_TOL = 1e-9


def random_path(form: str, rng):
    """A random path of the form, with the benchmark's own coordinates for it."""
    t_hi = float(rng.uniform(0.5, 1.5))
    if form == "linear":
        a, b, d = rng.uniform(0.0, 0.5), rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
        c = d * t_hi + rng.uniform(0.05, 0.5)
        return (paths.LinearPath(a, b, c, d, 0.0, t_hi),
                oracles.Coords(form, 0.0, t_hi, a=a, b=b, c=c, d=d))
    if form == "exponential":
        a, b, c = rng.uniform(0.5, 1.5, size=3)
        return (paths.ExponentialPath(a, b, c, 0.0, t_hi),
                oracles.Coords(form, 0.0, t_hi, a=a, b=b, c=c))
    if form == "corner":
        a, b, c, d = rng.uniform(0.5, 1.5, size=4)
        s_star = float(rng.uniform(0.25, 0.75)) * t_hi
        return (paths.VThenHPath(s_star, a, b, c, d, 0.0, t_hi),
                oracles.Coords(form, 0.0, t_hi, s_star=s_star, a=a, b=b, c=c, d=d))
    ts = np.linspace(0.0, t_hi, KNOTS)
    dx = rng.uniform(0.5, 1.5, size=KNOTS - 1)
    dx[20:30] = 0.0  # x flat over knots 20..30: a vertical stretch
    dy = rng.uniform(0.5, 1.5, size=KNOTS - 1)
    dy[40:48] = 0.0  # y flat over knots 40..48: a horizontal stretch
    xs = 0.1 + np.concatenate([[0.0], np.cumsum(dx)]) / dx.sum()
    ys = 0.1 + np.concatenate([[0.0], np.cumsum(dy[::-1])])[::-1] / dy.sum()
    return (paths.TabulatedPath(ts, xs, ys),
            oracles.Coords(form, 0.0, t_hi, ts=ts, xs=xs, ys=ys))


def dyadic_jumps(rng, n: int, dim: int) -> np.ndarray:
    """Nonzero multiples of 1/4 in [-2, 2] per component."""
    vals = rng.integers(-8, 9, size=(n, dim)).astype(float) / 4.0
    vals[np.all(vals == 0.0, axis=1), 0] = 0.25
    return vals


def clear_probes(coords, locs, jumps, rng) -> np.ndarray:
    """`PROBES` sorted times at which the sheet value is constant on [t - DELTA, t + DELTA]."""
    found = []
    while len(found) < PROBES:
        t = rng.uniform(coords.t_lo + 1e-6, coords.t_hi - 1e-6, size=PROBES)
        trio = np.concatenate([t - DELTA, t, t + DELTA])
        vals = oracles.sheet_values(locs, jumps, coords.x(trio), coords.y(trio))
        vals = vals.reshape(3, PROBES, -1)
        steady = np.all(vals[0] == vals[1], axis=1) & np.all(vals[1] == vals[2], axis=1)
        found.extend(t[steady])
    return np.sort(np.array(found[:PROBES]))


class Workload:
    def __init__(self, ctx):
        pass

    def round(self, rng, tr, ck):
        per_batch = 2 * (JUMPS * (len(FORMS) - 1) + JUMPS_TABULATED)
        for _ in range(BATCHES):
            with tr.batch(items=per_batch):
                for dim in (1, 2):
                    for form in FORMS:
                        self._field(form, dim, rng, tr, ck)

    def _field(self, form, dim, rng, tr, ck):
        path, coords = random_path(form, rng)
        x_hi, y_hi = float(coords.x(coords.t_hi)), float(coords.y(coords.t_hi))
        region = jumpsim.RectRegion(REGION_MARGIN * x_hi, REGION_MARGIN * float(coords.y(coords.t_lo)))
        n = JUMPS_TABULATED if form == "tabulated" else JUMPS
        locs = np.column_stack([(1.0 - rng.random(n)) * region.x_max,
                                (1.0 - rng.random(n)) * region.y_max])
        jumps = dyadic_jumps(rng, n, dim)
        with tr.span("jumpsim.jumpfield", jumps=n):
            field = jumpsim.JumpField(region, locs, jumps)
        with tr.span("jumpsim.restrict_to_path", form=form, jumps=n):
            events = jumpsim.restrict_to_path(field, path)
        probes = clear_probes(coords, locs, jumps, rng)
        with tr.span("jumpsim.eventpath.values"):
            got = events.values(probes)
        ck.ops()
        tag = f"{form}.d{dim}"
        want = oracles.sheet_values(locs, jumps, coords.x(probes), coords.y(probes))
        ck.check(f"{tag}.exact-values", bool(np.array_equal(got, want)),
                 f"{int(np.sum(np.any(got != want, axis=1)))} of {PROBES} probes differ")
        persistent = int(np.sum((locs[:, 0] <= x_hi) & (locs[:, 1] <= y_hi)))
        ck.check(f"{tag}.even-cancelling", (events.times.size - persistent) % 2 == 0,
                 f"{events.times.size} events with {persistent} persistent")

        u, v = locs[:INVERSE_SAMPLE, 0].tolist(), locs[:INVERSE_SAMPLE, 1].tolist()
        with tr.span("paths.inverse", form=form, jumps=INVERSE_SAMPLE):
            entry = [path.first_time_x_at_least(a) for a in u]
            leave = [path.last_time_y_at_least(b) for b in v]
        ck.ops()
        for which, got_t, want_t in (("entry", entry, coords.first_x_at_least(u)),
                                     ("exit", leave, coords.last_y_at_least(v))):
            got_t = np.array([np.nan if t is None else t for t in got_t])
            same_none = np.array_equal(np.isnan(got_t), np.isnan(want_t))
            gap = np.nanmax(np.abs(got_t - want_t), initial=0.0) if same_none else np.inf
            ck.check(f"{tag}.{which}-inverse", gap <= INVERSE_TOL,
                     f"max gap {gap:.3g} (None where expected: {same_none})")
