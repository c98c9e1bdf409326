#!/usr/bin/env python3
"""Benchmark for levysheet: four workloads, each checked against independent oracles.

    python3 perfbench/run.py --workload gauss-crossing --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

Run from the repository root (or any checkout of it); the package is imported
from its `src/` directory and nowhere else.  One run:

1. times `SETUP_REPEATS` fresh processes that import levysheet and build the
   workload's inputs (`setup_s` is their median);
2. builds the inputs in this process and repeats whole rounds of the
   workload, each from its own stream of the seed, until `--seconds` have
   passed and at least `MIN_ROUNDS` rounds are done; round 0 warms up and is
   not timed.  A round makes its program calls in batches of the same calls
   (see harness.Tracer.batch) and then checks them;
3. prints a summary and, as its last line, one JSON object with `correct`,
   `attempted`, `failed` and `metrics`.

`items_per_s` is the items of a batch over the median, across the timed
batches, of the seconds a batch spends in the program's calls.  Batches are
short (0.1-0.3 s of program time, except on cf-exact), so a run holds 40 to
180 of them, and their median does not move with the stretches of a few
seconds in which the machine the benchmark was built on runs Python code up
to twice as slowly; a mean over the run moves with them.

With `--trace 0` the metrics are the end-to-end ones.  With `--trace 1`,
odd rounds record spans and even rounds do not; the metrics are the
per-layer ones from the traced rounds, and the median traced and untraced
round times give the tracing overhead.  Spans and results are written under
`.perfbench_out/` in the checkout.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # one thread per workload process, set before numpy loads

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOADS = {
    "gauss-crossing": "gauss_crossing",
    "cpp-small-draws": "cpp_small",
    "cpp-dense-field": "cpp_dense",
    "cf-exact": "cf_exact",
}
DEFAULT_SECONDS = 20
SETUP_REPEATS = 3
MIN_ROUNDS = 4
MIN_ROUNDS_TRACED = 5
SUBPROCESS_TIMEOUT = 60


class Context:
    """What a workload may use besides its seed: this interpreter, an environment
    whose PYTHONPATH is the checkout's `src/`, and a private work directory."""

    def __init__(self, workload: str):
        self.python = sys.executable
        self.env = {**os.environ, "PYTHONPATH": str(SRC)}
        self.workdir = OUT / f"work-{workload}-{os.getpid()}"


def _load_program():
    if not (SRC / "levysheet" / "__init__.py").is_file():
        sys.exit(f"error: no levysheet sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import levysheet

    if Path(levysheet.__file__).resolve().parent != (SRC / "levysheet").resolve():
        sys.exit(f"error: levysheet was imported from {levysheet.__file__}, not from {SRC}")


def _timed_process(argv, env) -> float:
    start = perf_counter()
    subprocess.run(argv, env=env, check=True, timeout=SUBPROCESS_TIMEOUT,
                   stdout=subprocess.DEVNULL)
    return perf_counter() - start


def _median_process_time(argv, env, repeats=SETUP_REPEATS) -> float:
    return statistics.median(_timed_process(argv, env) for _ in range(repeats))


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def run_workload(args) -> dict:
    name = args.workload
    ctx = Context(name)
    setup_argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
                  "--workload", name, "--seed", str(args.seed)]
    setup_times = [_timed_process(setup_argv, ctx.env) for _ in range(SETUP_REPEATS)]

    import numpy as np

    import harness

    module = importlib.import_module(WORKLOADS[name])
    tag = list(WORKLOADS).index(name)
    tracer, ck = harness.Tracer(), harness.Checker()
    try:
        work = module.Workload(ctx)
        min_rounds = MIN_ROUNDS_TRACED if args.trace else MIN_ROUNDS
        rounds = []  # (seconds, traced, batches)
        start = perf_counter()
        while len(rounds) < min_rounds or perf_counter() - start < args.seconds:
            r = len(rounds)
            tracer.record = bool(args.trace) and r % 2 == 1
            rng = np.random.default_rng([args.seed, tag, r])
            first = len(tracer.batches)
            t0 = perf_counter()
            with tracer.span("bench.round", round=r):
                work.round(rng, tracer, ck)
            seconds = perf_counter() - t0
            rounds.append((seconds, tracer.record, tracer.batches[first:]))
        tracer.record = False
        ck.finish()
        notes = work.notes() if hasattr(work, "notes") else {}
    finally:
        shutil.rmtree(ctx.workdir, ignore_errors=True)

    timed = rounds[1:]
    batches = [b for r in timed for b in r[2]]
    per_item = [seconds / items for seconds, items in batches]
    notes = {"wall_s": (statistics.mean(r[0] for r in timed), "s"),
             "batches": (len(batches), "count"),
             "batch_p50_s": (statistics.median(b[0] for b in batches), "s"),
             "batch_p90_s": (statistics.quantiles([b[0] for b in batches], n=10,
                                                  method="inclusive")[-1], "s"),
             **notes}
    summary = {"workload": name, "seed": args.seed, "trace": args.trace,
               "rounds": len(rounds), "round_seconds": [r[0] for r in rounds],
               "batch_seconds": [b[0] for b in batches], "setup_seconds": setup_times,
               "checks": ck.checks, "mismatches": ck.mismatches,
               "failures": ck.failures, "notes": notes}
    if args.trace:
        traced = [r[0] for r in timed if r[1]]
        plain = [r[0] for r in timed if not r[1]]
        extra = {
            "traced_wall_s": statistics.median(traced),
            "overhead_pct": 100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0),
            "interpreter_s": _median_process_time([sys.executable, "-c", "pass"], ctx.env),
            "import_s": _median_process_time([sys.executable, "-c", "import levysheet"], ctx.env),
        }
        metrics = harness.per_layer_metrics(tracer.spans, len(traced), extra)
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"spans-{name}-seed{args.seed}.json", {"workload": name, "seed": args.seed})
    else:
        metrics = {
            "setup_s": _metric(statistics.median(setup_times), "s"),
            "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "items_per_s": _metric(1.0 / statistics.median(per_item), "1/s"),
        }
    result = {"correct": not ck.mismatches, "attempted": ck.attempted,
              "failed": ck.failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({**summary, **result}, fh, indent=1)
    return {**summary, **result, "item": module.ITEM, "rate_name": module.RATE_NAME}


def print_summary(res: dict):
    print(f"== {res['workload']} seed {res['seed']} trace {res['trace']}: {res['rounds']} rounds "
          f"(round 0 untimed), {res['attempted']} operations attempted, {res['failed']} failed, "
          f"{res['checks']} checks, {len(res['mismatches'])} mismatched")
    for line in res["mismatches"][:20] + res["failures"][:20]:
        print(f"   MISMATCH {line}", file=sys.stderr)
    for key, m in res["metrics"].items():
        print(f"   {key:<48} {m['value']:<14.6g} {m['unit']}")
    if "items_per_s" in res["metrics"]:
        print(f"   (items_per_s is {res['rate_name']}: {res['item']} per second)")
    for key, (value, unit) in res["notes"].items():
        print(f"   {key:<48} {value:<14.6g} {unit}")


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True)
        sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n" if proc.stdout else "")
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS) + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    _load_program()
    if args.setup_only:
        ctx = Context(args.workload)
        try:
            importlib.import_module(WORKLOADS[args.workload]).Workload(ctx)
        finally:
            shutil.rmtree(ctx.workdir, ignore_errors=True)
        return 0
    res = run_workload(args)
    print_summary(res)
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
