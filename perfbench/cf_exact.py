"""cf-exact: closed-form characteristic functions and classification, no simulation.

`exponent` and `fdd` do the work here: `joint_cf` grows as n^3 in the
number of times n.  A round evaluates, on random paths of the five
stationary families:

- `fdd.joint_cf` for Brownian sheets (d = 1, 2) and a random atom
  compound-Poisson triplet, `SMALL_N` calls at n in 1..5 and one call each
  at n in `LARGE_N` (on linear or exponential paths), per triplet; plus
  shift- and rescaling-invariance pairs;
- `fdd.increment_cf` and direct `exponent.eval_psi` calls;
- `paths.classify` on closed forms and on 64-knot tabulations of each family
  and of perturbed, non-stationary curves;
- `stationary.distinguish_ou` for two jump laws and a Brownian law;
- one `python -m levysheet.cli cf` subprocess, the only cold start any
  workload pays.

Checked against: exp(-1/2 sum z_i.z_j x(t_min) y(t_max)) for Brownian laws,
the benchmark's own vectorised rectangle sum with
psi(z) = i drift z + sum m (e^{izx} - 1) for atom laws, invariance under
time shifts along the exponential path and under rescaling (1e-12), the
known family of each constructed path and its phi against the functional
equation, the OU witness (gap above 1e-3 for jump laws, recomputed by the
benchmark; max gap below 1e-10 for the Brownian law), and the CLI value
against exp(-z^2 x(t) y(t) / 2).
"""

from __future__ import annotations

import json
import math
import statistics
import subprocess
from time import perf_counter

import numpy as np
from levysheet import exponent, fdd, paths, stationary
from levysheet.paths import PathTag

import oracles

ITEM = "joint-CF evaluations"
RATE_NAME = "cf_evals_per_s"  # what items_per_s is called for this workload

SMALL_N, LARGE_N = 10, (10, 10, 50, 200)
INVARIANCE_PAIRS, INCREMENTS, PSI_CALLS, CLOSED_PER_FAMILY = 10, 20, 50, 4
FAMILIES = ("horizontal", "vertical", "corner", "linear", "exponential")
# joint_cf skips rectangles of zero area, which a horizontal, vertical or corner
# path has many of; the large-n calls use paths without any, so that every
# round costs the same.
FULL_FAMILIES = ("linear", "exponential")
TAGS = {"horizontal": PathTag.HORIZONTAL, "vertical": PathTag.VERTICAL,
        "corner": PathTag.V_THEN_H, "linear": PathTag.LINEAR,
        "exponential": PathTag.EXPONENTIAL}
DYADIC = (-2.0, -1.5, -1.0, -0.5, -0.25, 0.25, 0.5, 1.0, 1.5, 2.0)
EXACT_TOL = 1e-12
PHI_TOL = 1e-9
OU_THRESHOLD, GAUSS_OU_TOL = 1e-3, 1e-10
CLI_TOL = 1e-14
CLI_TIMEOUT = 60


# ---------------------------------------------------------------------------
# Random paths of the stationary families, with their own coordinates
# ---------------------------------------------------------------------------

def random_spec(family: str, rng) -> dict:
    t_hi = float(rng.uniform(0.5, 2.0))
    u = lambda lo, hi: float(rng.uniform(lo, hi))  # noqa: E731
    if family == "horizontal":
        p = {"intercept": u(0.0, 1.0), "slope": u(0.5, 2.0), "level": u(0.5, 2.0)}
    elif family == "vertical":
        slope = u(0.5, 2.0)
        p = {"intercept": slope * t_hi + u(0.1, 1.0), "slope": slope, "level": u(0.5, 2.0)}
    elif family == "corner":
        a, b, c = u(0.5, 2.0), u(0.5, 2.0), u(0.5, 2.0)
        p = {"s_star": u(0.25, 0.75) * t_hi, "a": a, "b": b, "c": c, "d": a * c / b}
    elif family == "linear":
        b, d = u(0.5, 2.0), u(0.5, 2.0)
        p = {"a": u(0.0, 1.0), "b": b, "c": d * t_hi + u(0.05, 1.0), "d": d}
    else:
        p = {"a": u(0.5, 2.0), "b": u(0.5, 2.0), "c": u(0.5, 2.0)}
    return {"family": family, "t_hi": t_hi, **p}


def rescaled(spec: dict, q: float) -> dict:
    """The law-equivalent path (q x, y / q), written out per family."""
    s, f = dict(spec), spec["family"]
    if f == "horizontal":
        s.update(intercept=q * s["intercept"], slope=q * s["slope"], level=s["level"] / q)
    elif f == "vertical":
        s.update(intercept=s["intercept"] / q, slope=s["slope"] / q, level=q * s["level"])
    elif f == "corner":
        s.update(a=q * s["a"], b=s["b"] / q, c=s["c"] / q, d=q * s["d"])
    elif f == "linear":
        s.update(a=q * s["a"], b=q * s["b"], c=s["c"] / q, d=s["d"] / q)
    else:
        s.update(a=q * s["a"], b=s["b"] / q)
    return s


def build(spec: dict):
    """The library path for a spec, and x(t), y(t) computed by the benchmark."""
    f, t_hi = spec["family"], spec["t_hi"]
    if f == "horizontal":
        path = paths.HorizontalPath.affine(spec["intercept"], spec["slope"], spec["level"], 0.0, t_hi)
        coords = (lambda t: spec["intercept"] + spec["slope"] * t,
                  lambda t: np.full_like(t, spec["level"]))
    elif f == "vertical":
        path = paths.VerticalPath.affine(spec["intercept"], spec["slope"], spec["level"], 0.0, t_hi)
        coords = (lambda t: np.full_like(t, spec["level"]),
                  lambda t: spec["intercept"] - spec["slope"] * t)
    else:
        params = {k: spec[k] for k in spec if k not in ("family", "t_hi")}
        c = oracles.Coords(f, 0.0, t_hi, **params)
        coords = (c.x, c.y)
        if f == "corner":
            path = paths.VThenHPath(spec["s_star"], spec["a"], spec["b"], spec["c"], spec["d"], 0.0, t_hi)
        elif f == "linear":
            path = paths.LinearPath(spec["a"], spec["b"], spec["c"], spec["d"], 0.0, t_hi)
        else:
            path = paths.ExponentialPath(spec["a"], spec["b"], spec["c"], 0.0, t_hi)
    return path, coords


def random_times(rng, t_hi: float, n: int, lo=0.05, hi=0.95) -> np.ndarray:
    while True:
        ts = t_hi * np.sort(rng.uniform(lo, hi, size=n))
        if np.all(np.diff(ts) > 0):
            return ts


def perturbed_tabulation(rng, kind: int):
    """64-knot curves no stationary family fits."""
    ts = np.linspace(0.1, 0.9, 64)
    if kind == 0:
        return paths.TabulatedPath(ts, ts ** rng.uniform(1.3, 2.5), 1.0 - ts / 2.0)
    if kind == 1:
        a, b, c = rng.uniform(0.8, 1.5), rng.uniform(0.8, 1.5), rng.uniform(0.6, 1.2)
        return paths.TabulatedPath(ts, a * np.exp(c * ts), b * np.exp(-rng.uniform(0.4, 0.7) * c * ts))
    return paths.TabulatedPath(ts, ts + np.cumsum(np.abs(rng.normal(0.0, 0.01, size=ts.size))), 1.05 - ts)


# ---------------------------------------------------------------------------
# The workload
# ---------------------------------------------------------------------------

class Workload:
    def __init__(self, ctx):
        self.ctx = ctx
        self.brownian = {1: exponent.brownian(1), 2: exponent.brownian(2)}
        ctx.workdir.mkdir(parents=True, exist_ok=True)
        self.cli_files = {"triplet": ctx.workdir / "brownian.json", "path": ctx.workdir / "bridge.json"}
        self.cli_files["triplet"].write_text(json.dumps({"gamma": [0.0], "gaussian": [[1.0]]}))
        self.cli_files["path"].write_text(json.dumps(
            {"form": "linear", "a": 0, "b": 1, "c": 1, "d": 1, "t_lo": 0, "t_hi": 1}))
        self.cli_seconds: list[float] = []

    def notes(self) -> dict:
        return {"cli_cold_s": (statistics.median(self.cli_seconds), "s")}

    def round(self, rng, tr, ck):
        """The in-process calls as one batch, then one CLI subprocess."""
        evals = 3 * (SMALL_N + len(LARGE_N)) + 4 * INVARIANCE_PAIRS
        with tr.batch(items=evals):
            self._in_process(rng, tr, ck)
        self._cli(rng, tr, ck)

    def _in_process(self, rng, tr, ck):
        atoms = self._atom_law(rng)
        with tr.span("exponent.cpp_from_atoms"):
            cpp = exponent.cpp_from_atoms([(x, m) for x, m in zip(*atoms[:2])], drift=atoms[2])
        cpp_psi = lambda z: oracles.atom_psi(z, *atoms)  # noqa: E731
        laws = [("brownian1", self.brownian[1], None), ("brownian2", self.brownian[2], None),
                ("cpp", cpp, cpp_psi)]
        for name, triplet, psi in laws:
            for n in [int(rng.integers(1, 6)) for _ in range(SMALL_N)]:
                self._joint(name, triplet, psi, n, FAMILIES, rng, tr, ck)
            for n in LARGE_N:
                self._joint(name, triplet, psi, n, FULL_FAMILIES, rng, tr, ck)
        self._invariance(laws, rng, tr, ck)
        self._increments(laws, rng, tr, ck)
        self._eval_psi(cpp, cpp_psi, rng, tr, ck)
        self._classify(rng, tr, ck)
        self._ou(cpp, cpp_psi, rng, tr, ck)

    @staticmethod
    def _atom_law(rng):
        k = int(rng.integers(1, 4))
        points = rng.choice(DYADIC, size=k, replace=False)
        return points, rng.uniform(0.5, 1.5, size=k), float(rng.uniform(-0.5, 0.5))

    def _cf(self, tr, triplet, path, times, zs):
        n = len(times)
        with tr.span("fdd.joint_cf", n=n, rectangles=n * (n + 1) // 2):
            value = fdd.joint_cf(triplet, path, times, zs)
        return value

    def _joint(self, name, triplet, psi, n, families, rng, tr, ck):
        spec = random_spec(families[int(rng.integers(len(families)))], rng)
        with tr.span("paths.construct"):
            path, (x, y) = build(spec)
        times = random_times(rng, spec["t_hi"], n)
        dim = triplet.dim
        zs = rng.normal(0.0, 1.0 / math.sqrt(n), size=(n, dim))
        got = self._cf(tr, triplet, path, times, zs)
        ck.ops()
        xs, ys = x(times), y(times)
        want = oracles.gaussian_joint_cf(xs, ys, zs) if psi is None else oracles.rectangle_cf(psi, xs, ys, zs)
        ck.close(f"joint_cf.{name}.n{n}", got, want, oracles.cf_rounding_tol(n))

    def _invariance(self, laws, rng, tr, ck):
        for i in range(INVARIANCE_PAIRS):
            name, triplet, _ = laws[2 * (i % 2)]  # alternate brownian1 and cpp
            n = int(rng.integers(1, 6))
            a, b, c = rng.uniform(0.5, 2.0, size=3)
            with tr.span("paths.construct"):
                path = paths.ExponentialPath(a, b, c, 0.0, 4.0)
            times = random_times(rng, 2.0, n, 0.0, 1.0)
            zs = rng.normal(0.0, 1.0, size=(n, 1))
            shift = float(rng.uniform(0.0, 2.0))
            gap = abs(self._cf(tr, triplet, path, times, zs) - self._cf(tr, triplet, path, times + shift, zs))
            ck.ops(2)
            ck.check(f"shift-invariance.{name}", gap <= EXACT_TOL, f"gap {gap:.3g}")

            spec = random_spec(FAMILIES[int(rng.integers(len(FAMILIES)))], rng)
            n = int(rng.integers(1, 4))
            with tr.span("paths.construct"):
                path, _ = build(spec)
                twin, _ = build(rescaled(spec, float(rng.uniform(0.25, 4.0))))
            times = random_times(rng, spec["t_hi"], n)
            zs = rng.normal(0.0, 1.0, size=(n, 1))
            gap = abs(self._cf(tr, triplet, path, times, zs) - self._cf(tr, triplet, twin, times, zs))
            ck.ops(2)
            ck.check(f"rescaling-invariance.{spec['family']}.{name}", gap <= EXACT_TOL, f"gap {gap:.3g}")

    def _increments(self, laws, rng, tr, ck):
        for i in range(INCREMENTS):
            name, triplet, psi = laws[2 * (i % 2)]
            spec = random_spec(FAMILIES[int(rng.integers(len(FAMILIES)))], rng)
            with tr.span("paths.construct"):
                path, (x, y) = build(spec)
            s, t = random_times(rng, spec["t_hi"], 2)
            z = float(rng.normal())
            with tr.span("fdd.increment_cf"):
                got = fdd.increment_cf(triplet, path, s, t, z)
            ck.ops()
            xs, ys, zs = x(np.array([s, t])), y(np.array([s, t])), np.array([[-z], [z]])
            want = oracles.gaussian_joint_cf(xs, ys, zs) if psi is None else oracles.rectangle_cf(psi, xs, ys, zs)
            ck.close(f"increment_cf.{name}", got, want, EXACT_TOL)

    def _eval_psi(self, cpp, cpp_psi, rng, tr, ck):
        for kind, triplet, psi in (("gauss", self.brownian[1], oracles.gaussian_psi),
                                   ("cpp", cpp, cpp_psi)):
            zs = rng.normal(0.0, 2.0, size=PSI_CALLS)
            with tr.span("exponent.eval_psi", kind=kind, calls=PSI_CALLS):
                got = [exponent.eval_psi(triplet, z) for z in zs]
            ck.ops(PSI_CALLS)
            want = psi(zs[:, None]) if kind == "gauss" else psi(zs)
            gap = np.abs(np.array(got) - want) / np.maximum(1.0, np.abs(want))
            ck.check(f"eval_psi.{kind}", bool(np.max(gap) <= EXACT_TOL), f"max relative gap {np.max(gap):.3g}")

    def _classify(self, rng, tr, ck):
        for family in FAMILIES:
            for _ in range(CLOSED_PER_FAMILY):
                spec = random_spec(family, rng)
                with tr.span("paths.construct"):
                    path, (x, y) = build(spec)
                with tr.span("paths.classify", kind="closed"):
                    cls = paths.classify(path)
                ck.ops()
                ck.check(f"classify.closed.{family}", cls.tag is TAGS[family], f"got {cls.tag}")
                s, t = np.sort(rng.uniform(0.0, spec["t_hi"], size=(2, 50)), axis=0)
                lhs = oracles.increment_area(x(s), y(s), x(t), y(t))
                resid = np.abs(lhs - cls.phi(t - s)) / np.maximum(1.0, np.abs(lhs))
                ck.check(f"classify.phi.{family}", bool(np.max(resid) <= PHI_TOL),
                         f"functional-equation residual {np.max(resid):.3g}")
        tabulated = []
        for family in FAMILIES:
            spec = random_spec(family, rng)
            path, (x, y) = build(spec)
            knots = np.linspace(0.0, spec["t_hi"], 64 if family != "corner" else 63)
            if family == "corner":  # the corner must be a knot
                knots = np.sort(np.append(knots, spec["s_star"]))
            tabulated.append((family, TAGS[family], knots, x(knots), y(knots)))
        for kind in range(3):
            tabulated.append((f"perturbed{kind}", PathTag.NON_STATIONARY, kind, None, None))
        for label, tag, knots, xs, ys in tabulated:
            with tr.span("paths.construct"):
                tab = (paths.TabulatedPath(knots, xs, ys) if xs is not None
                       else perturbed_tabulation(rng, knots))
            with tr.span("paths.classify", kind="tabulated"):
                cls = paths.classify(tab)
            ck.ops()
            ck.check(f"classify.tabulated.{label}", cls.tag is tag, f"got {cls.tag}")

    def _ou(self, cpp, cpp_psi, rng, tr, ck):
        other = self._atom_law(rng)
        with tr.span("exponent.cpp_from_atoms"):
            other_law = exponent.cpp_from_atoms([(x, m) for x, m in zip(*other[:2])], drift=other[2])
        jump_laws = [(cpp, cpp_psi), (other_law, lambda z: oracles.atom_psi(z, *other))]
        for i, (triplet, psi) in enumerate(jump_laws):
            c = float(rng.uniform(0.5, 2.0))
            with tr.span("stationary.distinguish_ou"):
                rep = stationary.distinguish_ou(triplet, c)
            ck.ops()
            w = rep.witness
            ck.check(f"ou.jump-law{i}.witness", w is not None and w.gap > OU_THRESHOLD,
                     f"no witness, max gap {rep.max_gap:.3g}")
            if w is not None:
                ck.close(f"ou.jump-law{i}.gap", w.gap, oracles.ou_gap(psi, c, w.t, w.z[0]), EXACT_TOL)
        with tr.span("stationary.distinguish_ou"):
            rep = stationary.distinguish_ou(self.brownian[2], float(rng.uniform(0.5, 2.0)))
        ck.ops()
        ck.check("ou.brownian.indistinguishable", rep.max_gap < GAUSS_OU_TOL, f"max gap {rep.max_gap:.3g}")

    def _cli(self, rng, tr, ck):
        t, z = float(rng.uniform(0.05, 0.95)), float(rng.uniform(-2.0, 2.0))
        argv = [self.ctx.python, "-m", "levysheet.cli", "cf",
                "--triplet", str(self.cli_files["triplet"]), "--path", str(self.cli_files["path"]),
                "--times", repr(t), "--z", repr(z)]
        start = perf_counter()
        with tr.span("cli.cf"):
            proc = subprocess.run(argv, env=self.ctx.env, capture_output=True, text=True,
                                  timeout=CLI_TIMEOUT)
        self.cli_seconds.append(perf_counter() - start)
        ck.ops()
        if proc.returncode != 0:
            ck.fail("cli.cf", f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}")
            return
        out = json.loads(proc.stdout)
        ck.close("cli.cf.re", out["re"], oracles.pinned_bridge_cf(t, z), CLI_TOL)
        ck.close("cli.cf.im", out["im"], 0.0, CLI_TOL)
