"""Command-line front end: classification, CF evaluation, simulation, experiments.

Inputs are JSON files (triplets and paths use the same schemas as
`exponent.triplet_from_dict` / `paths.path_from_dict`); outputs are JSON or
CSV.  Runs are reproducible: the same argv and seed produce byte-identical
output.  Exit codes: 0 success, 1 validation error, 2 verification failure
or usage error (such as a flag the command or experiment kind does not take).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import fdd, gauss, jumpsim, stationary, suites, verify
from .exponent import TwoPoint, triplet_from_dict
from .paths import classify, equivalent, path_from_dict

__all__ = ["main", "build_parser"]


def _load_json(path: str, what: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ValueError(f"{what} file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{what} file {path} is not valid JSON: {exc}") from None


def _load_triplet(path: str):
    return triplet_from_dict(_load_json(path, "triplet"))


def _load_path(path: str):
    return path_from_dict(_load_json(path, "path"))


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(obj, out: str | None):
    _emit(json.dumps(obj) + "\n", out)


def _grid(args) -> np.ndarray:
    lo, hi, n = args.grid
    n = int(n)
    if n < 2:
        raise ValueError("grid needs at least 2 points")
    if not hi > lo:
        raise ValueError("grid needs lo < hi")
    return np.linspace(lo, hi, n)


def _complex_json(value: complex) -> dict:
    return {"re": value.real, "im": value.imag}


def _sample_grid_json(sample) -> dict:
    return {"times": sample.times.tolist(), "values": sample.values.tolist()}


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_classify(args) -> int:
    path = _load_path(args.path)
    cls = classify(path, tol=args.tol)
    _emit_json(cls.to_dict(), args.out)
    return 0


def _cmd_equivalent(args) -> int:
    p1 = _load_path(args.path)
    p2 = _load_path(args.path2)
    p = equivalent(p1, p2, tol=args.tol if args.tol is not None else 1e-9)
    _emit_json({"equivalent": p is not None, "p": p}, args.out)
    return 0


def _reshape_probe(zvals, n_times: int, dim: int) -> np.ndarray:
    z = np.asarray(zvals, dtype=float)
    if z.size != n_times * dim:
        raise ValueError(
            f"--z needs {n_times * dim} numbers ({n_times} times x dim {dim}), got {z.size}")
    return z.reshape(n_times, dim)


def _cmd_cf(args) -> int:
    triplet = _load_triplet(args.triplet)
    path = _load_path(args.path)
    times = np.asarray(args.times, dtype=float)
    zs = _reshape_probe(args.z, times.size, triplet.dim)
    value = fdd.joint_cf(triplet, path, times, zs)
    _emit_json(_complex_json(value), args.out)
    return 0


def _cmd_increment_cf(args) -> int:
    triplet = _load_triplet(args.triplet)
    path = _load_path(args.path)
    z = _reshape_probe(args.z, 1, triplet.dim)[0]
    value = fdd.increment_cf(triplet, path, args.s, args.t, z)
    _emit_json(_complex_json(value), args.out)
    return 0


def _cmd_simulate(args) -> int:
    rng = np.random.default_rng(args.seed)
    if args.law == "gauss":
        if not args.path:
            raise ValueError("simulate --law gauss needs --path")
        law = gauss.GaussPathLaw(_load_path(args.path), dim=args.dim)
        sample = gauss.simulate(law, _grid(args), rng)
        _emit(sample.to_csv() if args.format == "csv"
              else json.dumps(_sample_grid_json(sample)) + "\n", args.out)
        return 0
    if args.law == "cpp":
        if not (args.path and args.triplet):
            raise ValueError("simulate --law cpp needs --path and --triplet")
        triplet = _load_triplet(args.triplet)
        if triplet.jumps is None:
            raise ValueError("triplet field 'jumps' is required for --law cpp")
        path = _load_path(args.path)
        _, x_end, y_start, _ = path.ends
        region = jumpsim.RectRegion(x_end, y_start)
        field = jumpsim.simulate_cpp_sheet(triplet.jumps.rate, triplet.jumps.dist, region, rng)
        events = jumpsim.restrict_to_path(field, path)
        if args.format == "csv":
            _emit(events.to_csv(), args.out)
        else:
            _emit_json({"t_lo": events.t_lo, "t_hi": events.t_hi,
                        "field": field.to_dict(),
                        "events": [{"tau": float(t), "dj": dj.tolist()}
                                   for t, dj in zip(events.times, events.increments)]},
                       args.out)
        return 0
    # stationary
    if not args.triplet:
        raise ValueError("simulate --law stationary needs --triplet")
    law = stationary.StationaryLaw(_load_triplet(args.triplet),
                                   a=args.a, b=args.b, c=args.c)
    sample = stationary.simulate_stationary(law, _grid(args), rng)
    _emit(sample.to_csv() if args.format == "csv"
          else json.dumps(_sample_grid_json(sample)) + "\n", args.out)
    return 0


def _cmd_experiment(args) -> int:
    if args.kind == "ou":
        triplet = _load_triplet(args.triplet)
        report = stationary.distinguish_ou(triplet, args.c)
        _emit_json(report.to_dict(), args.out)
        return 0
    rng = np.random.default_rng(args.seed)
    if args.kind == "zerocross":
        law = gauss.GaussPathLaw(_load_path(args.path))
        analytic = gauss.zero_prob(law, args.s, args.t)
        empirical = gauss.zero_crossing_frequency(law, args.s, args.t, args.n,
                                                  args.grid_points, rng)
        out = {"analytic": analytic, "empirical": empirical, "n": args.n,
               "grid_points": args.grid_points}
        if args.z is not None:
            out["conditional"] = gauss.zero_prob_conditional(law, args.s, args.t, args.z)
        _emit_json(out, args.out)
        return 0
    if args.kind == "bridge":
        grid = _grid(args)
        inner = grid[(grid > 0) & (grid < args.l)]
        draws = jumpsim.bridge_experiments(args.rate, TwoPoint(1.0), args.l, inner, args.n, rng).values
        _emit_json({"times": inner.tolist(),
                    "variance": draws.var(axis=0).tolist(),
                    "variance_target": (inner * (1.0 - inner / args.l)).tolist(),
                    "n": args.n, "rate": args.rate}, args.out)
        return 0
    # rwbridge
    pairs = jumpsim.random_walk_bridges(args.rate, args.l, TwoPoint(1.0), args.n, rng,
                                        grid=[args.s, args.t])
    cov, se = verify.pair_covariance(pairs)
    _emit_json({"covariance": cov,
                "covariance_target": jumpsim.rw_bridge_cov(args.rate, args.l, 0.0, 1.0,
                                                           args.s, args.t),
                "se": se,
                "n": args.n, "rate": args.rate}, args.out)
    return 0


def _cmd_verify(args) -> int:
    reports = suites.run_suite(args.suite, seed=args.seed)
    lines = [r.to_json() for r in reports]
    _emit("\n".join(lines) + "\n", args.out)
    if args.out:  # still summarize on stdout when writing to a file
        for r in reports:
            sys.stdout.write(f"{'PASS' if r.passed else 'FAIL'} {r.name}\n")
    failed = [r for r in reports if not r.passed]
    if failed:
        sys.stderr.write(f"{len(failed)} of {len(reports)} checks failed\n")
        return 2
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="levysheet",
        description="Two-parameter Levy processes along decreasing paths",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="output file (default stdout)")

    def seeded(p):
        p.add_argument("--seed", type=int, default=suites.DEFAULT_SEED,
                       help="RNG seed (default %(default)s)")
        common(p)

    p = sub.add_parser("classify", help="classify a path's stationarity family")
    p.add_argument("--path", required=True)
    p.add_argument("--tol", type=float, default=None)
    common(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("equivalent", help="test law-equivalence of two paths")
    p.add_argument("--path", required=True)
    p.add_argument("--path2", required=True)
    p.add_argument("--tol", type=float, default=None)
    common(p)
    p.set_defaults(func=_cmd_equivalent)

    p = sub.add_parser("cf", help="joint characteristic function at path times")
    p.add_argument("--triplet", required=True)
    p.add_argument("--path", required=True)
    p.add_argument("--times", type=float, nargs="+", required=True)
    p.add_argument("--z", type=float, nargs="+", required=True)
    common(p)
    p.set_defaults(func=_cmd_cf)

    p = sub.add_parser("increment-cf", help="characteristic function of one increment")
    p.add_argument("--triplet", required=True)
    p.add_argument("--path", required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--z", type=float, nargs="+", required=True)
    common(p)
    p.set_defaults(func=_cmd_increment_cf)

    p = sub.add_parser("simulate", help="draw one sample path")
    p.add_argument("--law", choices=("gauss", "cpp", "stationary"), required=True)
    p.add_argument("--path")
    p.add_argument("--triplet")
    p.add_argument("--grid", type=float, nargs=3, metavar=("LO", "HI", "N"),
                   default=(0.0, 1.0, 101))
    p.add_argument("--dim", type=int, default=1)
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--c", type=float, default=1.0)
    seeded(p)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("experiment", help="run a named verification experiment")
    p.set_defaults(func=_cmd_experiment)
    kinds = p.add_subparsers(dest="kind", required=True)  # each kind takes only its own flags
    ou = kinds.add_parser("ou", help="CF discrimination against OU-type processes")
    ou.add_argument("--triplet", required=True)
    ou.add_argument("--c", type=float, default=1.0)
    common(ou)
    zerocross = kinds.add_parser("zerocross", help="zero-crossing probability of a Brownian sheet")
    zerocross.add_argument("--path", required=True)
    zerocross.add_argument("--z", type=float, default=None)
    zerocross.add_argument("--grid-points", type=int, default=2000)
    bridge = kinds.add_parser("bridge", help="diffusion-scale bridge from jump rearrangement")
    bridge.add_argument("--grid", type=float, nargs=3, metavar=("LO", "HI", "N"),
                        default=(0.0, 1.0, 11))
    rwbridge = kinds.add_parser("rwbridge", help="permuted random-walk bridge covariance")
    for q in (bridge, rwbridge):
        q.add_argument("--rate", type=int, default=1000)
        q.add_argument("--l", type=float, default=1.0)
    for q in (zerocross, rwbridge):
        q.add_argument("--s", type=float, default=0.25)
        q.add_argument("--t", type=float, default=0.75)
    for q in (zerocross, bridge, rwbridge):
        q.add_argument("--n", type=int, default=10_000)
        seeded(q)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=suites.SUITE_NAMES, default="all")
    seeded(p)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, TypeError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
