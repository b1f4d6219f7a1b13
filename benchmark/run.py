"""Benchmark of the urnoverflow command line, end to end and per layer.

Run from the root of a checkout:

    python3 benchmark/run.py --workload mc_fig3 --seed 1 --seconds 25 --trace 0

Workloads: mc_fig3, mc_fig2, mc_fig4_checked (`simulate`) and exact_mix
(`exact`); see benchmark/README.md for why each exists.  With --trace 0 the
last line of stdout is a JSON object with the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of a separate traced run.  Full
records and the spans go to benchmark/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WEIGHTS = OUT / "weights"

# The package is always taken from this checkout's source tree, never from an
# installed copy, so a checkout without src/ cannot produce a result.
if not (SRC / "urnoverflow" / "__init__.py").is_file():
    sys.exit(f"error: {SRC / 'urnoverflow'} not found; run from a checkout of the repository")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import urnoverflow  # noqa: E402
from urnoverflow import montecarlo  # noqa: E402

from reference import HostClock  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import (EXACT_INSTANCES, FAILED, OK, PIN_SEED, REFUSED,  # noqa: E402
                       SIMULATE_WORKLOADS, call_cli, histogram_digest,
                       write_custom_weights)

WORKLOADS = (*SIMULATE_WORKLOADS, "exact_mix")
SETUP_REPEATS = 5


class Tally:
    """Outcome counts over every op of a run."""

    def __init__(self):
        self.counts = {OK: 0, REFUSED: 0, FAILED: 0}

    def record(self, outcome: str, reason: str, what: str) -> None:
        self.counts[outcome] += 1
        if outcome == FAILED:
            print(f"failed op {what}: {reason}", file=sys.stderr)

    @property
    def attempted(self) -> int:
        return sum(self.counts.values())


def _quantile(values, q: int) -> float:
    """The q-th percentile, interpolated as numpy's default does."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def build_inputs(workload: str, seed: int):
    """Everything a run needs before its first op; the same seed gives the
    same inputs.  Returns (op-seed stream, argv list or simulate spec)."""
    rng = random.Random(seed)
    if workload == "exact_mix":
        write_custom_weights(WEIGHTS)
        return rng, [inst.argv(WEIGHTS) for inst in EXACT_INSTANCES]
    return rng, SIMULATE_WORKLOADS[workload]


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time of a fresh interpreter that imports urnoverflow.cli
    and builds this workload's inputs."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "run.py"), "--setup-probe",
                        "--workload", workload, "--seed", str(seed)],
                       cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# end-to-end runs (tracing off)
# ---------------------------------------------------------------------------

def run_pin(spec, workload: str, tally: Tally) -> None:
    """Warm-up call on PIN_SEED; its histograms must match the pinned digest."""
    rc, out, err, _ = call_cli(spec.argv(PIN_SEED, 1))
    outcome, reason = spec.check(rc, out, err)
    if outcome == OK and histogram_digest(out) != spec.pin_digest:
        outcome, reason = FAILED, f"histogram digest {histogram_digest(out)} is not the pinned one"
    tally.record(outcome, reason, f"{workload} pin seed {PIN_SEED}")


def simulate_e2e(workload: str, rng, spec, seconds: float, nproc: int, tally: Tally) -> dict:
    """Pairs of calls on one seed, at 1 and at nproc workers, in alternating
    order; the two outputs must be byte-identical.  The reference work runs
    after every call."""
    run_pin(spec, workload, tally)
    clock = HostClock(workload)
    secs = {"1w": [], "nw": []}
    scaled = {"1w": [], "nw": []}
    deadline = time.perf_counter() + seconds
    k = 0
    while time.perf_counter() < deadline:
        op_seed = rng.getrandbits(64)
        legs = [("1w", 1), ("nw", nproc)]
        if k % 2:
            legs.reverse()
        runs, scales = {}, {}
        for leg, w in legs:
            runs[leg] = call_cli(spec.argv(op_seed, w))
            scales[leg] = clock.tick()
        for leg, w in legs:
            rc, out, err, dt = runs[leg]
            outcome, reason = spec.check(rc, out, err)
            if outcome == OK and out != runs["1w"][1]:
                outcome, reason = FAILED, f"--threads {w} output differs from --threads 1"
            tally.record(outcome, reason, f"{workload} seed {op_seed} threads {w}")
            if outcome == OK:
                secs[leg].append(dt)
                scaled[leg].append(dt * scales[leg])
        k += 1
    return {"reps": spec.reps, "reference_s": clock.reference_s,
            "secs": {leg: {"simulate": v} for leg, v in secs.items()},
            "scaled": {leg: {"simulate": v} for leg, v in scaled.items()}}


def exact_e2e(rng, argvs, seconds: float, tally: Tally) -> dict:
    """A closed loop with one caller: whole cycles over the instance list,
    each in a seeded order, so every instance weighs the same in every run.
    The reference work runs after every timed call."""
    secs = {" ".join(argv[1:]): [] for argv in argvs}
    scaled = {key: [] for key in secs}
    order = list(range(len(argvs)))

    def cycle(clock=None) -> None:
        rng.shuffle(order)
        for i in order:
            rc, out, err, dt = call_cli(argvs[i])
            scale = clock.tick() if clock else None
            outcome, reason = EXACT_INSTANCES[i].check(rc, out, err)
            key = " ".join(argvs[i][1:])
            tally.record(outcome, reason, f"exact_mix {key}")
            if clock and outcome == OK:
                secs[key].append(dt)
                scaled[key].append(dt * scale)

    cycle()                                          # warm-up
    clock = HostClock("exact_mix")
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        cycle(clock)
    return {"reps": 1, "reference_s": clock.reference_s,
            "secs": {"1w": secs}, "scaled": {"1w": scaled}}


def peak_rss_mb() -> float:
    """Largest peak resident set of this process and of its ended children."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def end_to_end(workload: str, seed: int, seconds: float, nproc: int, tally: Tally):
    setup_s = measure_setup(workload, seed)
    rng, inputs = build_inputs(workload, seed)
    if workload == "exact_mix":
        res = exact_e2e(rng, inputs, seconds, tally)
    else:
        res = simulate_e2e(workload, rng, inputs, seconds, nproc, tally)
    # Each key (the simulate call, or one exact instance) counts at the
    # median of its completed calls, each scaled by the reference work
    # around it: see "Scaled by reference work" in README.md.
    def per_key(series):
        return {leg: [statistics.median(v) for v in by_key.values() if v]
                for leg, by_key in series.items()}

    typical, raw = per_key(res["scaled"]), per_key(res["secs"])
    if not all(typical.values()):
        sys.exit("error: no op completed; no metric can be computed")
    throughput = {leg: res["reps"] * len(t) / sum(t) for leg, t in typical.items()}
    call_ms = sorted(1e3 * s for s in typical["1w"])
    raw_ms = sorted(1e3 * s for s in raw["1w"])
    metrics = {
        "setup_s": (setup_s, "s"),
        "throughput_1w": (throughput["1w"], "1/s"),
        "call_ms_p50": (_quantile(call_ms, 50), "ms"),
        "call_ms_p90": (_quantile(call_ms, 90), "ms"),
        "calls_ok_ratio": (tally.counts[OK] / tally.attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    # Reported but not gated: the unscaled times, which measure the host as
    # much as the program, and the nproc-worker throughput, which depends on
    # whether a second core is free (see README.md).
    ungated = {
        "call_ms_p50_unscaled": (_quantile(raw_ms, 50), "ms"),
        "reference_ms_median": (1e3 * statistics.median(res["reference_s"]), "ms"),
    }
    if "nw" in throughput:
        ungated["throughput_nw"] = (throughput["nw"], "1/s")
    return metrics, ungated, res


# ---------------------------------------------------------------------------
# traced run (one worker)
# ---------------------------------------------------------------------------

def traced_ops(workload: str, rng, inputs):
    """Endless (argv, checker) stream of one-worker ops."""
    if workload == "exact_mix":
        order = list(range(len(inputs)))
        while True:
            rng.shuffle(order)
            for i in order:
                yield inputs[i], EXACT_INSTANCES[i]
    while True:
        yield inputs.argv(rng.getrandbits(64), 1), inputs


def traced(workload: str, seed: int, seconds: float, tally: Tally):
    """Each op runs twice, untraced and traced, in alternating order; the two
    outputs must agree (tracing may not change results)."""
    rng, inputs = build_inputs(workload, seed)
    if workload == "exact_mix":                      # warm-up
        for inst, argv in zip(EXACT_INSTANCES, inputs):
            rc, out, err, _ = call_cli(argv)
            tally.record(*inst.check(rc, out, err), f"exact_mix warm-up {' '.join(argv[1:])}")
    else:
        run_pin(inputs, workload, tally)
    ops = traced_ops(workload, rng, inputs)
    tracer = Tracer()
    wall = {"untraced": 0.0, "traced": 0.0}
    refusals = 0
    deadline = time.perf_counter() + seconds
    k = 0
    while time.perf_counter() < deadline:
        argv, checker = next(ops)
        modes = ("untraced", "traced") if k % 2 == 0 else ("traced", "untraced")
        outs = []
        for mode in modes:
            if mode == "traced":
                tracer.op = k
                with tracer.installed():
                    rc, out, err, dt = call_cli(argv)
            else:
                rc, out, err, dt = call_cli(argv)
            outcome, reason = checker.check(rc, out, err)
            if outcome == OK and outs and out != outs[0]:
                outcome, reason = FAILED, "traced output differs from untraced"
            tally.record(outcome, reason, f"{workload} {mode} {' '.join(argv[1:])}")
            outs.append(out)
            wall[mode] += dt
            if mode == "traced" and outcome == REFUSED:
                refusals += 1
        k += 1
    tracer.write(OUT / f"trace-{workload}.json",
                 {"workload": workload, "seed": seed, "ops": k})
    samples = {"traced_ops": k, "spans": len(tracer.spans)}
    return layer_metrics(tracer.by_name(), refusals, wall), {}, samples


def layer_metrics(agg: dict, refusals: int, wall: dict) -> dict:
    def get(name):
        return agg.get(name, {"calls": 0, "total_ns": 0, "self_ns": 0, "count": 0})

    def per_call(name, ns_per_unit):
        a = get(name)
        return a["self_ns"] / a["calls"] / ns_per_unit if a["calls"] else 0.0

    trials = get("montecarlo.trial_rng")["calls"]
    rx = get("montecarlo.run_experiment")
    return {
        "montecarlo.trials": (trials, "count"),
        "montecarlo.trial_us": (rx["total_ns"] / trials / 1e3 if trials else 0.0, "us"),
        "montecarlo.trial_rng_us": (per_call("montecarlo.trial_rng", 1e3), "us"),
        "montecarlo.self_us_per_trial": (rx["self_ns"] / trials / 1e3 if trials else 0.0, "us"),
        "distributions.sample_us": (per_call("distributions.sample", 1e3), "us"),
        "distributions.balls_sampled": (get("distributions.sample")["count"], "count"),
        "allocation.streaming_overflow_us": (per_call("allocation.streaming_overflow", 1e3), "us"),
        "allocation.streaming_overflow_calls": (get("allocation.streaming_overflow")["calls"], "count"),
        "exact.mean_overflow_ms": (per_call("exact.mean_overflow", 1e6), "ms"),
        "exact.mean_counts_ms": (per_call("exact.mean_counts", 1e6), "ms"),
        "exact.full_dist_ms": (per_call("exact.full_dist", 1e6), "ms"),
        "exact.binomial_tail_us": (per_call("exact.binomial_tail", 1e3), "us"),
        "exact.binomial_tail_calls": (get("exact.binomial_tail")["calls"], "count"),
        "exact.budget_refusals": (refusals, "count"),
        "stats.from_histogram_ms": (per_call("stats.from_histogram", 1e6), "ms"),
        "stats.gof_ms": (per_call("stats.gof", 1e6), "ms"),
        "asymptotics.regime_report_us": (per_call("asymptotics.regime_report", 1e3), "us"),
        "cli.self_ms": (per_call("cli", 1e6), "ms"),
        "trace.overhead_ratio": (wall["traced"] / wall["untraced"], "ratio"),
        "trace.coverage": (sum(a["self_ns"] for a in agg.values()) / 1e9 / wall["traced"],
                           "ratio"),
    }


# ---------------------------------------------------------------------------
# provenance and output
# ---------------------------------------------------------------------------

def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def seed_scheme() -> str:
    """The trial-stream derivation, confirmed against trial_rng itself."""
    ours = np.random.default_rng(np.random.SeedSequence(entropy=7, spawn_key=(3,)))
    if montecarlo.trial_rng(7, 3).integers(2**63) != ours.integers(2**63):
        return "unknown (trial_rng is not SeedSequence(entropy=seed, spawn_key=(i,)))"
    return "SeedSequence(entropy=seed, spawn_key=(i,))"


def provenance(args, nproc: int) -> dict:
    if args.workload == "exact_mix":
        workers = {"1w": "one in-process caller"}
    elif args.trace:
        workers = {"1w": "--threads 1"}
    else:
        workers = {"1w": "--threads 1", "nw": f"--threads {nproc}"}
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": git_commit(),
        "urnoverflow": urnoverflow.__version__, "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "nproc": nproc, "cpu_model": cpu_model(),
        "bit_generator": type(montecarlo.trial_rng(0, 0).bit_generator).__name__,
        "seed_scheme": seed_scheme(), "workers": workers,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only import and build the inputs (timed by setup_s)")
    args = parser.parse_args(argv)
    if args.setup_probe:
        build_inputs(args.workload, args.seed)
        return 0
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    nproc = len(os.sched_getaffinity(0))
    tally = Tally()
    if args.trace:
        metrics, ungated, samples = traced(args.workload, args.seed, args.seconds, tally)
    else:
        metrics, ungated, samples = end_to_end(args.workload, args.seed, args.seconds,
                                               nproc, tally)
    failed = tally.counts[FAILED]
    record = {
        "provenance": provenance(args, nproc),
        "outcomes": {**tally.counts, "attempted": tally.attempted},
        # an op fails here if it exits non-zero (a budget refusal included)
        # or fails a check
        "ops_failed_ratio": (failed + tally.counts[REFUSED]) / tally.attempted,
        "samples": samples,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "ungated": {name: {"value": v, "unit": u} for name, (v, u) in ungated.items()},
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"# {args.workload} seed {args.seed} trace {args.trace}: "
          f"{json.dumps(record['provenance'])}")
    print(f"# ops {record['outcomes']} ops_failed_ratio {record['ops_failed_ratio']:.6g}")
    if not args.trace:
        timed = [len(v) for v in samples["secs"]["1w"].values() if v]
        print(f"# timed one-worker calls: {sum(timed)} over {len(timed)} completed keys "
              f"(fewest for one key: {min(timed)})")
    for name, (value, unit) in metrics.items():
        print(f"# {name:36s} {value:14.6g} {unit}")
    for name, (value, unit) in ungated.items():
        print(f"# {name:36s} {value:14.6g} {unit} (not gated)")
    print(json.dumps({"correct": failed == 0, "attempted": tally.attempted,
                      "failed": failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
