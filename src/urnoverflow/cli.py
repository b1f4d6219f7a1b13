"""Command-line surface: simulate / exact / predict.

Standard output carries data only (JSON or CSV); progress and errors go to
standard error.  Exit codes: 0 success, 2 usage error, 3 budget exceeded or
a draw too large to allocate.
All randomness flows from an explicit --seed; there is no implicit time seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time

from . import __version__
from .asymptotics import _pmf_terms, regime_report
from .distributions import Geometric, parse_dist_spec
from .exact import (BudgetExceededError, exact_distribution,
                    exact_mean_overflow, exact_mean_via_counts)
from .montecarlo import ExperimentConfig, run_experiment
from .stats import _poisson_terms, chi_square_poisson, ks_normal, tv_distance_poisson

EXIT_USAGE = 2
EXIT_BUDGET = 3

# Figure presets.  The captions of the first two figures state n=10^6 but
# their m, p and mu are mutually consistent only at n=10^5; the presets use
# the internally consistent pair and flag it in the output metadata.
_CAPTION_NOTE = ("caption states n=1e6 but its m/p and mu are consistent at "
                 "n=1e5; preset uses n=1e5")
PRESETS = {
    "fig1": dict(kind="uniform", n=100_000, r=2, m=10_540_926, reps=10_000,
                 mu=1.5, note=_CAPTION_NOTE),
    "fig2": dict(kind="geometric", n=100_000, r=3, p=6.0 * 100_000 ** (-4.0 / 3.0),
                 reps=1_000, mu=2.25, note=_CAPTION_NOTE),
    "fig3": dict(kind="uniform", n=10_000, r=2, m=25_118, reps=10_000,
                 mu=None, note=None),
    "fig4": dict(kind="geometric", n=10_000, r=4, p=1e-4, reps=10_000,
                 mu=None, note=None),
}


def _scaled_preset(name: str, scale: float) -> dict:
    """Shrink a preset; figs 1-2 keep mu fixed by re-solving m or p."""
    p = dict(PRESETS[name])
    if scale == 1.0:
        return p
    if not 0.0 < scale <= 1.0:
        raise ValueError("--scale must lie in (0, 1]")
    r = p["r"]
    p["n"] = max(r + 2, round(p["n"] * scale))
    p["reps"] = max(1, round(p["reps"] * scale))
    n = p["n"]
    if name == "fig1":
        # mu = n^(r+1) / ((r+1)! m^r)  =>  m = (n^(r+1) / ((r+1)! mu))^(1/r)
        p["m"] = max(1, round((n ** (r + 1) / (math.factorial(r + 1) * p["mu"])) ** (1.0 / r)))
    elif name == "fig2":
        # mu rises with p: bisect log p until the ends are adjacent floats
        lo, hi = math.log(1e-300), math.log1p(-1e-12)
        while lo < (mid := (lo + hi) / 2) < hi:
            low = regime_report(Geometric(math.exp(mid)), n, r).mu < p["mu"]
            lo, hi = (mid, hi) if low else (lo, mid)
        p["p"] = math.exp(hi)
    elif name == "fig3":
        p["m"] = max(1, math.floor(n ** 1.1))
    elif name == "fig4":
        p["p"] = 1.0 / n
    return p


def _summary_dict(summary) -> dict:
    # the fields by name; asdict would deep-copy the histogram only to replace it
    return {**vars(summary), "histogram": {str(k): v for k, v in summary.histogram.items()}}


def _emit_json(record: dict) -> None:
    sys.stdout.write(json.dumps(record, indent=2, sort_keys=True) + "\n")


def cmd_simulate(args) -> int:
    given = {"--dist": args.dist, "--balls": args.balls,
             "--capacity": args.capacity, "--reps": args.reps}
    preset_note = None
    if args.preset:
        for flag, val in given.items():
            if val is not None:
                raise ValueError(f"{flag} cannot be combined with --preset")
        p = _scaled_preset(args.preset, 1.0 if args.scale is None else args.scale)
        given = {"--dist": (f"uniform:m={p['m']}" if p["kind"] == "uniform"
                            else f"geometric:p={p['p']!r}"),
                 "--balls": p["n"], "--capacity": p["r"], "--reps": p["reps"]}
        preset_note = p["note"]
    elif args.scale is not None:
        raise ValueError("--scale applies only to --preset")
    for flag, val in given.items():
        if val is None:
            raise ValueError(f"{flag} is required without --preset")
    dist_spec, n, r, reps = given.values()
    dist = parse_dist_spec(dist_spec)

    collect = tuple(c.upper() for c in args.collect.split(","))
    if not set(collect) <= {"V", "L", "M"} or len(set(collect)) < len(collect):
        raise ValueError(f"collect must be a non-empty subset of V,L,M without "
                         f"repeats, got {collect}")
    config = ExperimentConfig(dist=dist, n=n, r=r, reps=reps, seed=args.seed,
                              identity_checks=args.identity_checks,
                              threads=args.threads)
    report = regime_report(dist, n, r)
    stat = collect[0]
    mu = None
    if args.gof == "poisson":
        # in the Poisson regime L_r = V_{r-1} - V_r and M_r are both close to V_{r-1}
        if stat != "V" and r == 1:
            raise ValueError(f"--gof poisson has no limit law for {stat} at capacity 1")
        mu = report.mu if stat == "V" else regime_report(dist, n, r - 1).mu
        _poisson_terms(mu)    # an oversized table is refused before any trial runs
    t0 = time.perf_counter()
    summaries = run_experiment(config)
    elapsed = time.perf_counter() - t0

    fit = {}
    summary = summaries[stat]
    if args.gof == "poisson":
        fit["law"] = {"statistic": stat, "name": "poisson", "mu": mu}
        fit["tv_poisson"] = tv_distance_poisson(summary, mu)
        try:
            statistic, dof = chi_square_poisson(summary, mu)
            fit["chi_square"] = {"statistic": statistic, "dof": dof}
        except ValueError as exc:
            fit["chi_square"] = {"error": str(exc)}
    elif args.gof == "normal":
        sd = math.sqrt(summary.variance)
        fit["law"] = {"statistic": stat, "name": "normal",
                      "mean": summary.mean, "sd": sd}
        if sd == 0.0:
            fit["ks_normal"] = {"error": "zero empirical variance"}
        else:
            fit["ks_normal"] = ks_normal([(k - summary.mean) / sd for k in summary.histogram],
                                         list(summary.histogram.values()))

    record = {
        "config": {
            "dist": dist_spec, "balls": n, "capacity": r, "reps": reps,
            "seed": args.seed, "collect": list(collect),
            "preset": args.preset,
            "preset_note": preset_note, "version": __version__,
        },
        "summaries": {name: _summary_dict(summaries[name]) for name in collect},
        "theory": report.to_dict(),
        "fit": fit,
        "timing": None if args.no_timing else {"seconds": elapsed},
    }

    if args.format == "json":
        _emit_json(record)
    else:
        sys.stdout.write("value,count,empirical_prob,theory_prob\n")
        theory = ([""] * len(summary.histogram) if mu is None else
                  map(repr, _pmf_terms(list(summary.histogram), mu=mu).tolist()))
        for (k, c), prob in zip(summary.histogram.items(), theory):
            sys.stdout.write(f"{k},{c},{c / summary.reps!r},{prob}\n")
    return 0


def cmd_exact(args) -> int:
    dist = parse_dist_spec(args.dist)
    n, r = args.balls, args.capacity
    t0 = time.perf_counter()
    # the law first, so that its refusals (exit 2 or 3) come before any mean work
    law = exact_distribution(dist, n, r) if args.full_dist else None
    record = {
        "config": {"dist": args.dist, "balls": n, "capacity": r,
                   "version": __version__},
        "exact_mean_overflow": exact_mean_overflow(dist, n, r),
        "exact_mean_via_counts": exact_mean_via_counts(dist, n, r),
        "theory": regime_report(dist, n, r).to_dict(),
    }
    if law is not None:
        record["exact_distribution"] = {
            "pmf": {str(k): v for k, v in law.pmf.items()},
            "mean": law.mean,
            "variance": law.variance,
        }
    record["timing"] = None if args.no_timing else {
        "seconds": time.perf_counter() - t0}
    _emit_json(record)
    return 0


def cmd_predict(args) -> int:
    dist = parse_dist_spec(args.dist)
    _emit_json(regime_report(dist, args.balls, args.capacity).to_dict())
    return 0


@functools.cache
def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The parser and its subcommands' parsers by name, built once: parse_args keeps no state."""
    parser = argparse.ArgumentParser(
        prog="urnoverflow",
        description="Urn overflow laboratory: simulation, exact computation, "
                    "regime diagnostics.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_dist_args(p, required):
        p.add_argument("--dist", required=required,
                       help="uniform:m=<int> | geometric:p=<real> | custom:@<path>")
        p.add_argument("--balls", type=int, required=required, help="number of balls n")
        p.add_argument("--capacity", type=int, required=required, help="urn capacity r")

    sim = sub.add_parser("simulate", help="Monte Carlo experiment")
    add_dist_args(sim, required=False)    # --preset supplies them
    sim.add_argument("--reps", type=int, help="number of replications")
    sim.add_argument("--seed", type=int, required=True, help="64-bit unsigned seed")
    sim.add_argument("--collect", default="v,l,m", help="comma subset of v,l,m")
    sim.add_argument("--gof", choices=["poisson", "normal"], default=None)
    sim.add_argument("--format", choices=["json", "csv"], default="json")
    sim.add_argument("--preset", choices=sorted(PRESETS), default=None)
    sim.add_argument("--scale", type=float, default=None,
                     help="shrink a preset (fraction of reps and balls)")
    sim.add_argument("--threads", type=int, default=1)
    sim.add_argument("--identity-checks", action="store_true")
    sim.add_argument("--no-timing", action="store_true",
                     help="omit wall-clock timing for bit-identical output")
    sim.set_defaults(func=cmd_simulate)

    exa = sub.add_parser("exact", help="exact mean and small-instance distribution")
    add_dist_args(exa, required=True)
    exa.add_argument("--full-dist", action="store_true")
    exa.add_argument("--no-timing", action="store_true")
    exa.set_defaults(func=cmd_exact)

    pre = sub.add_parser("predict", help="regime report only")
    add_dist_args(pre, required=True)
    pre.set_defaults(func=cmd_predict)
    return parser, {"simulate": sim, "exact": exa, "predict": pre}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = build_parser()
    # a named subcommand parses its own arguments; the top-level parser takes
    # the rest: no argument, -h and an unknown command
    args = (commands[argv[0]].parse_args(argv[1:]) if argv and argv[0] in commands
            else parser.parse_args(argv))
    try:
        return args.func(args)
    except (BudgetExceededError, MemoryError) as exc:   # a draw too large to allocate
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
