"""One point of the benchmark trajectory: BENCH_<n>.json at the repository root.

    python tools/bench.py                 # writes the next free BENCH_<n>.json
    python tools/bench.py --out PATH      # writes PATH instead

It runs ``benchmark/run.py`` unchanged, from the repository root, on every
workload that BENCHMARK.json declares, at ``--seed 1 --seconds 25``, once
with ``--trace 0`` and once with ``--trace 1``; the seed and the seconds are
fixed so that every BENCH_<n>.json can be compared with BENCH_0.json.  For each
run it keeps the last stdout line (the result JSON) and the provenance of the
record file ``benchmark/out/result-<workload>-seed1-trace<t>.json``.  It then
adds the one-shot timings the workloads lack:

- each ``simulate --preset figN --seed 7 --no-timing`` at ``--threads 1`` and
  at nproc threads, as a subprocess: wall time including the import, and the
  sha256 of stdout;
- ``exact`` on the fig4 instance, in this process through ``cli.main``:
  five calls and their median (the first also fills ``cli``'s caches);
- the Tier-1 run (``python -m pytest -q --continue-on-collection-errors``):
  wall time and its passed and failed counts.

The file also records the commit and whether the tree had uncommitted
changes.  The tool patches nothing and writes nothing under benchmark/ but
what run.py itself writes to benchmark/out/.  It exits 1 if any run reports
``"correct": false``, any preset's output differs between thread counts, or
the Tier-1 run fails or has errors.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SEED = 1
SECONDS = 25.0
PRESETS = ("fig1", "fig2", "fig3", "fig4")
FIG4_EXACT = ("exact", "--dist", "geometric:p=0.0001", "--balls", "10000",
              "--capacity", "4", "--no-timing")


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _git(*args) -> str:
    return subprocess.run(("git", *args), cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def benchmark_run(workload: str, trace: int) -> dict:
    """One benchmark/run.py run: its result line and its record's provenance."""
    argv = (sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(SEED),
            "--seconds", repr(SECONDS), "--trace", str(trace))
    t0 = time.perf_counter()
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"error: {' '.join(argv[1:])} exited {done.returncode}")
    record = ROOT / "benchmark" / "out" / f"result-{workload}-seed{SEED}-trace{trace}.json"
    return {
        "argv": list(argv[1:]),
        "wall_s": wall,
        "result": json.loads(done.stdout.strip().splitlines()[-1]),
        "provenance": json.loads(record.read_text(encoding="utf-8"))["provenance"],
    }


def preset_run(preset: str, threads: int) -> dict:
    argv = (sys.executable, "-m", "urnoverflow.cli", "simulate", "--preset", preset,
            "--seed", "7", "--no-timing", "--threads", str(threads))
    t0 = time.perf_counter()
    done = subprocess.run(argv, cwd=ROOT, env=_env(), capture_output=True, check=True)
    return {"threads": threads, "wall_s": time.perf_counter() - t0,
            "stdout_sha256": hashlib.sha256(done.stdout).hexdigest()}


def fig4_exact() -> dict:
    """Five in-process ``exact`` calls on fig4; the first also fills ``cli``'s caches."""
    sys.path.insert(0, str(SRC))
    from urnoverflow import cli

    secs, digests = [], set()
    for _ in range(5):
        out = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = cli.main(FIG4_EXACT)
        secs.append(time.perf_counter() - t0)
        if code != 0:
            raise SystemExit(f"error: {' '.join(FIG4_EXACT)} exited {code}")
        digests.add(hashlib.sha256(out.getvalue().encode()).hexdigest())
    return {"argv": list(FIG4_EXACT), "secs": secs, "median_s": statistics.median(secs),
            "stdout_sha256": sorted(digests)}


def tier1() -> dict:
    argv = (sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "--continue-on-collection-errors")
    t0 = time.perf_counter()
    done = subprocess.run(argv, cwd=ROOT, env=_env(), capture_output=True, text=True)
    wall = time.perf_counter() - t0
    summary = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else ""
    counts = {word: int(num) for num, word in re.findall(r"(\d+) (passed|failed|error)", summary)}
    return {"argv": list(argv[1:]), "wall_s": wall, "exit_code": done.returncode,
            "passed": counts.get("passed", 0), "failed": counts.get("failed", 0),
            "errors": counts.get("error", 0), "summary": summary}


def next_path() -> Path:
    n = 0
    while (ROOT / f"BENCH_{n}.json").exists():
        n += 1
    return ROOT / f"BENCH_{n}.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=None,
                        help="output file (default: the next free BENCH_<n>.json)")
    args = parser.parse_args(argv)
    out = args.out or next_path()
    workloads = [w["name"] for w in
                 json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]]
    nproc = len(os.sched_getaffinity(0))

    runs = []
    for workload in workloads:
        for trace in (0, 1):
            print(f"# {workload} --trace {trace}", file=sys.stderr, flush=True)
            runs.append(benchmark_run(workload, trace))
    presets = {}
    for preset in PRESETS:
        print(f"# simulate --preset {preset}", file=sys.stderr, flush=True)
        by_threads = [preset_run(preset, t) for t in sorted({1, nproc})]
        presets[preset] = {
            "runs": by_threads,
            "same_stdout": len({r["stdout_sha256"] for r in by_threads}) == 1,
        }
    print("# exact on fig4", file=sys.stderr, flush=True)
    exact = fig4_exact()
    print("# Tier-1", file=sys.stderr, flush=True)
    tests = tier1()

    report = {
        "commit": _git("rev-parse", "HEAD"),
        "uncommitted_changes": bool(_git("status", "--porcelain", "--untracked-files=no")),
        "seed": SEED, "seconds": SECONDS, "nproc": nproc,
        "runs": runs, "presets": presets, "exact_fig4": exact, "tier1": tests,
    }
    out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"# wrote {out}", file=sys.stderr)

    wrong = [f"{r['provenance']['workload']} trace {r['provenance']['trace']}"
             for r in runs if r["result"]["correct"] is not True]
    wrong += [f"preset {p} differs between thread counts"
              for p, v in presets.items() if not v["same_stdout"]]
    if tests["exit_code"] != 0 or tests["failed"] + tests["errors"] > 0:
        wrong.append(f"Tier-1 exited {tests['exit_code']}: {tests['summary']}")
    for what in wrong:
        print(f"error: {what}", file=sys.stderr)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
