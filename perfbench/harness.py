"""Spans, checks and per-layer metrics shared by the four workloads.

The benchmark times every call it makes into levysheet with a `Tracer`
span named `<layer>.<call>`, where the layer is one of the package's
modules.  Untraced runs only add each span's duration to a per-name total
and to the time of the current batch; traced runs also keep every span, with
its parent, start, end and attributes, in memory until the run ends.

A batch is a fixed group of program calls that a workload repeats several
times per round; `Tracer.batch` records the seconds the batch spent in the
program (every span except the benchmark's own `bench.*` spans) and the
items it made.  A workload whose batch is not one stretch of calls appends
those two numbers to `Tracer.batches` itself.
"""

from __future__ import annotations

import json
import math
import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np
from scipy import stats

import oracles

LAYERS = ("exponent", "paths", "fdd", "gauss", "jumpsim", "stationary", "verify", "cli")


class _Span:
    __slots__ = ("tracer", "name", "attrs", "start", "index", "parent")

    def __init__(self, tracer, name, attrs):
        self.tracer, self.name, self.attrs = tracer, name, attrs

    def __enter__(self):
        tr = self.tracer
        if tr.record:
            self.index = len(tr.spans)
            self.parent = tr.stack[-1] if tr.stack else None
            tr.spans.append(None)
            tr.stack.append(self.index)
        self.start = perf_counter()
        return self

    def __exit__(self, *exc):
        end = perf_counter()
        tr = self.tracer
        tr.busy[self.name] += end - self.start
        if not self.name.startswith("bench."):
            tr.program_s += end - self.start
        if tr.record:
            tr.stack.pop()
            tr.spans[self.index] = (self.index, self.parent, self.name,
                                    self.start, end, self.attrs)
        return False


class Tracer:
    """Spans around calls into the program; `record` keeps them, otherwise only totals."""

    def __init__(self):
        self.record = False
        self.spans: list = []
        self.stack: list = []
        self.busy: defaultdict = defaultdict(float)
        self.program_s = 0.0
        self.batches: list = []  # (program seconds, items) of every batch

    def span(self, name: str, **attrs) -> _Span:
        return _Span(self, name, attrs)

    @contextmanager
    def batch(self, items: int):
        before = self.program_s
        yield
        self.batches.append((self.program_s - before, items))

    def dump(self, path, meta: dict):
        with open(path, "w") as fh:
            json.dump({**meta, "fields": ["id", "parent", "name", "start", "end", "attrs"],
                       "spans": [list(s) for s in self.spans]}, fh)


class Checker:
    """Counts operations and checks; a check that does not hold makes the run incorrect.

    `mean` and `ks` checks are made per round and again, at `finish`, on the
    samples of every round pooled, which narrows their bands by the square
    root of the number of rounds.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks = 0
        self.failures: list[str] = []
        self.mismatches: list[str] = []
        self.pooled: dict = {}
        self.pooled_ks: dict = {}

    def ops(self, k: int = 1):
        self.attempted += k

    def fail(self, name: str, detail: str):
        self.failed += 1
        self.failures.append(f"{name}: {detail}")

    def check(self, name: str, ok: bool, detail: str = ""):
        self.checks += 1
        if not ok:
            self.mismatches.append(f"{name}: {detail}")

    def close(self, name: str, got, want, tol: float):
        gap = abs(got - want)
        self.check(name, bool(gap <= tol), f"got {got!r}, want {want!r}, gap {gap:.3g} > {tol:.3g}")

    def band(self, name: str, est: float, target: float, se: float):
        """|est - target| within Z_BAND standard errors."""
        self.close(name, est, target, oracles.Z_BAND * se)

    def pvalue(self, name: str, p: float):
        self.check(name, p > oracles.P_FALSE, f"p-value {p:.3g} <= {oracles.P_FALSE:g}")

    def mean(self, name: str, values, target: float, sd: float | None = None,
             width: float | None = None):
        """mean(values) against target: within Z_BAND * sd / sqrt(n) for a known
        per-sample standard deviation, else within the empirical-Bernstein band
        for values in an interval of `width`."""
        values = np.asarray(values, dtype=float)
        acc = self.pooled.setdefault(name, [0.0, 0.0, 0, target, sd, width])
        acc[0] += float(values.sum())
        acc[1] += float(np.sum(values ** 2))
        acc[2] += values.size
        self._mean(name, float(values.mean()), float(values.var(ddof=1)), values.size, target, sd, width)

    def _mean(self, name, mean, var, n, target, sd, width):
        if sd is not None:
            self.band(name, mean, target, sd / math.sqrt(n))
        else:
            self.close(name, mean, target, oracles.bernstein_band(var, n, width))

    def ks(self, name: str, values, cdf, pvalue: float):
        """A KS p-value computed by the program, checked here and pooled for `finish`."""
        self.pvalue(name, pvalue)
        self.pooled_ks.setdefault(name, (cdf, []))[1].append(np.asarray(values, dtype=float))

    def finish(self):
        """The pooled checks, over every round of the run."""
        for name, (total, squares, n, target, sd, width) in self.pooled.items():
            mean = total / n
            self._mean(f"{name}[pooled]", mean, (squares - n * mean ** 2) / (n - 1), n, target, sd, width)
        for name, (cdf, parts) in self.pooled_ks.items():
            self.pvalue(f"{name}[pooled]", float(stats.kstest(np.concatenate(parts), cdf).pvalue))


# ---------------------------------------------------------------------------
# Per-layer metrics from the recorded spans
# ---------------------------------------------------------------------------

def _self_times(spans):
    """Span duration minus the part of it covered by its child spans."""
    children = defaultdict(list)
    for s in spans:
        if s[1] is not None:
            children[s[1]].append((s[3], s[4]))
    out = {}
    for s in spans:
        covered, reach = 0.0, -math.inf
        for lo, hi in sorted(children.get(s[0], ())):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s[0]] = (s[4] - s[3]) - covered
    return out


class _Select:
    """Durations and attribute sums of the spans with one name (and attribute values)."""

    def __init__(self, spans, name, **where):
        self.items = [s for s in spans if s[2] == name
                      and all(s[5].get(k) == v for k, v in where.items())]

    @property
    def busy(self) -> float:
        return sum(s[4] - s[3] for s in self.items)

    def total(self, attr: str) -> float:
        return sum(s[5].get(attr, 0) for s in self.items)

    def per(self, attr: str | None, scale: float) -> float:
        """Busy time per call (attr None) or per unit of an attribute, times scale; 0 without calls."""
        n = len(self.items) if attr is None else self.total(attr)
        return scale * self.busy / n if n else 0.0

    def median_call(self, scale: float) -> float:
        return scale * statistics.median(s[4] - s[3] for s in self.items) if self.items else 0.0


FORMS = ("linear", "exponential", "corner", "tabulated")


def per_layer_metrics(spans, n_rounds: int, extra: dict) -> dict:
    """Every per-layer metric, from the spans of `n_rounds` traced rounds.

    Times summed over spans are reported per round.  A metric of a call the
    workload never makes reads 0.  `extra` holds the measurements made
    outside spans (interpreter start, import, tracing overhead).
    """
    def sel(name, **where):
        return _Select(spans, name, **where)

    m = {}

    def put(name, value, unit):
        m[name] = {"value": float(value), "unit": unit}

    sim = sel("gauss.simulate_paths")
    put("gauss.simulate_paths.ns_per_normal", sim.per("normals", 1e9), "ns")
    put("gauss.simulate_paths.busy_s", sim.busy / n_rounds, "s")
    put("gauss.normals", sim.total("normals") / n_rounds, "count")
    for kind in ("gauss", "cpp"):
        put(f"exponent.eval_psi.us_per_call.{kind}",
            sel("exponent.eval_psi", kind=kind).per("calls", 1e6), "us")
    for n in (10, 50, 200):
        put(f"fdd.joint_cf.ms.n{n}", sel("fdd.joint_cf", n=n).median_call(1e3), "ms")
    jcf = sel("fdd.joint_cf")
    put("fdd.joint_cf.busy_s", jcf.busy / n_rounds, "s")
    put("fdd.rectangles", jcf.total("rectangles") / n_rounds, "count")
    put("fdd.increment_cf.us_per_call", sel("fdd.increment_cf").per(None, 1e6), "us")
    for form in FORMS:
        put(f"paths.inverse.us_per_jump.{form}",
            sel("paths.inverse", form=form).per("jumps", 1e6), "us")
    put("paths.classify.us_per_call.closed", sel("paths.classify", kind="closed").per(None, 1e6), "us")
    put("paths.classify.ms_per_call.tabulated",
        sel("paths.classify", kind="tabulated").per(None, 1e3), "ms")
    for form in FORMS:
        put(f"jumpsim.restrict_to_path.us_per_jump.{form}",
            sel("jumpsim.restrict_to_path", form=form).per("jumps", 1e6), "us")
    put("jumpsim.jumps", sel("jumpsim.restrict_to_path").total("jumps") / n_rounds, "count")
    put("jumpsim.restrict_to_path.us_per_call.small",
        sel("jumpsim.restrict_to_path", form="small").per(None, 1e6), "us")
    put("jumpsim.simulate_cpp_sheet.us_per_call", sel("jumpsim.simulate_cpp_sheet").per(None, 1e6), "us")
    for call in ("rearranged_difference", "bridge_experiment", "random_walk_bridge"):
        put(f"jumpsim.{call}.us_per_draw", sel(f"jumpsim.{call}").per(None, 1e6), "us")
    put("jumpsim.eventpath.values.us_per_call", sel("jumpsim.eventpath.values").per(None, 1e6), "us")
    put("stationary.simulate_stationary.us_per_draw",
        sel("stationary.simulate_stationary").per(None, 1e6), "us")
    put("stationary.distinguish_ou.ms_per_call", sel("stationary.distinguish_ou").per(None, 1e3), "ms")
    put("verify.empirical_cf.ms_per_probe", sel("verify.empirical_cf").per(None, 1e3), "ms")
    for call in ("chi2", "ks", "regression"):
        put(f"verify.{call}.ms_per_call", sel(f"verify.{call}").per(None, 1e3), "ms")
    put("cli.cold_s", sel("cli.cf").median_call(1.0), "s")
    put("cli.interpreter_s", extra["interpreter_s"], "s")
    put("cli.import_s", extra["import_s"], "s")

    self_times = _self_times(spans)
    for layer in LAYERS + ("bench",):
        mine = [s for s in spans if s[2].split(".", 1)[0] == layer]
        put(f"{layer}.busy_s", sum(s[4] - s[3] for s in mine) / n_rounds, "s")
        put(f"{layer}.self_s", sum(self_times[s[0]] for s in mine) / n_rounds, "s")
    put("trace.wall_s", extra["traced_wall_s"], "s")
    put("trace.overhead_pct", extra["overhead_pct"], "%")
    return m
