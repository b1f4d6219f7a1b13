"""Golden CLI outputs: the exit code and the sha256 of stdout for a fixed argv list.

    python tools/golden.py            # compare every argv with tests/golden_cli.json
    python tools/golden.py --write    # rewrite tests/golden_cli.json

Each argv runs in-process through ``urnoverflow.cli.main``, with
``--no-timing`` wherever the subcommand takes it, in a temporary directory
holding the custom weight files.  The argvs name those files by relative
path, because ``exact`` echoes ``--dist`` in its record.  The digests depend
on numpy's SeedSequence, PCG64 and the platform's libm, as the pinned
histogram digests do, so the file records numpy's version, the machine and
the C library.  A change that moves an output on purpose rewrites the file in
the same commit and lists the argvs that moved.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import shlex
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden_cli.json"

# one weight per line, written to <name>.txt in the run directory
CUSTOM_WEIGHTS = {"w123": (1, 2, 3), "w1124": (1, 1, 2, 4), "w5311": (5, 3, 1, 1)}

FIG2 = "geometric:p=1.2926608140191314e-06"
FIG4 = "geometric:p=0.0001"
SEED = "20190516"
HUGE = 10**400          # past the float range


def _simulate(dist, n, r, reps, seed, *extra):
    return ("simulate", "--dist", dist, "--balls", str(n), "--capacity", str(r),
            "--reps", str(reps), "--seed", str(seed), *extra, "--no-timing")


def _exact(dist, n, r, *extra):
    return ("exact", "--dist", dist, "--balls", str(n), "--capacity", str(r),
            *extra, "--no-timing")


def _predict(dist, n, r):
    return ("predict", "--dist", dist, "--balls", str(n), "--capacity", str(r))


# the benchmark's Monte Carlo instances at its reps: dist, n, r, reps, flags
MONTE_CARLO = (
    ("uniform:m=25118", 10_000, 2, 1000, ("--gof", "normal")),
    (FIG2, 100_000, 3, 50, ("--gof", "poisson")),
    (FIG4, 10_000, 4, 200, ("--gof", "normal", "--identity-checks")),
)

ARGVS = (
    # each at the benchmark's pinned seed on 1 and 2 threads, and at seed 3 on 2
    *(_simulate(dist, n, r, reps, seed, *flags, "--threads", threads)
      for dist, n, r, reps, flags in MONTE_CARLO
      for seed, threads in ((SEED, "1"), (SEED, "2"), ("3", "2"))),
    # fits (a degenerate chi-square and a mean-1e6 Poisson table among them),
    # CSV output and scaled presets
    _simulate("uniform:m=5000", 100, 2, 2000, 1, "--collect", "l", "--gof", "poisson"),
    _simulate("geometric:p=0.01", 1000, 2, 50, 7, "--gof", "poisson"),
    _simulate("uniform:m=1000000", 2, 1, 60, 1, "--gof", "poisson"),
    _simulate("uniform:m=50", 10_000, 1, 50, 1, "--gof", "poisson"),
    _simulate("uniform:m=40", 200, 3, 400, 2, "--collect", "v,m", "--gof", "normal"),
    _simulate("geometric:p=0.01", 300, 2, 300, 3, "--collect", "l", "--gof", "poisson",
              "--format", "csv"),
    _simulate("uniform:m=7", 30, 1, 200, 4, "--format", "csv"),
    ("simulate", "--preset", "fig2", "--scale", "0.001", "--seed", "7", "--no-timing"),
    ("simulate", "--preset", "fig3", "--scale", "0.1", "--seed", "7", "--gof", "normal",
     "--identity-checks", "--no-timing"),
    # regime reports of the four figure presets, and huge capacities
    _predict("uniform:m=10540926", 100_000, 2),
    _predict(FIG2, 100_000, 3),
    _predict("uniform:m=25118", 10_000, 2),
    _predict(FIG4, 10_000, 4),
    _predict("uniform:m=1", 1, 1_000_000),
    _predict("uniform:m=1", 10, 400),
    # exact: small geometric means, uniform paper instances (two refused with
    # exit 3), the full law on small uniform and custom instances, then fig4
    # (whose law is refused), a law over the cell budget and a huge capacity
    _exact("geometric:p=0.05", 200, 2),
    _exact("geometric:p=0.25", 40, 3),
    _exact("geometric:p=0.1", 100, 2),
    _exact("geometric:p=0.2", 50, 2),
    _exact("geometric:p=0.05", 100, 3),
    _exact("geometric:p=0.1", 200, 3),
    _exact("uniform:m=25118", 10_000, 2),
    _exact("uniform:m=1000", 5_000, 3),
    _exact("uniform:m=333333", 10_000, 2),
    _exact("uniform:m=10540926", 100_000, 2),
    _exact("uniform:m=4", 8, 2, "--full-dist"),
    _exact("uniform:m=5", 10, 2, "--full-dist"),
    _exact("uniform:m=6", 12, 2, "--full-dist"),
    _exact("uniform:m=3", 20, 3, "--full-dist"),
    _exact("custom:@w123.txt", 12, 2, "--full-dist"),
    _exact("custom:@w1124.txt", 10, 3, "--full-dist"),
    _exact("custom:@w5311.txt", 8, 1, "--full-dist"),
    _exact(FIG4, 10_000, 4),
    _exact(FIG4, 10_000, 4, "--full-dist"),
    _exact("uniform:m=4", 3000, 760),        # n p = 750, r near it: saddle-point rows
    _exact("uniform:m=3", 5, 2, "--full-dist"),
    _exact("uniform:m=2", 100_000, 2, "--full-dist"),
    _exact("uniform:m=7", 1, 1_000_000),
    # refusals and edges: exit 2 on bad input, exit 3 over budget
    _simulate("uniform:m=10", 5, 1, 3, 1, "--threads", "0"),
    _simulate("geometric:p=1e-310", 10, 1, 3, 1),
    _exact("geometric:p=1e-310", 10, 1),
    _exact("geometric:p=1e-31", 10, 1),
    _simulate("geometric:p=1e-300", 10, 1, 3, 1, "--gof", "poisson"),
    _simulate("uniform:m=1", 5000, 1, 3, 1, "--gof", "poisson"),    # mu = 1.25e7: table refused
    _simulate("uniform:m=1", 1, 1_000_000, 3, 1),
    # a count below its floor, refused with exit 2 by the one size rule
    _simulate("uniform:m=10", 0, 1, 3, 1),
    _simulate("uniform:m=10", 5, 1, 3, -1),
    _exact("uniform:m=10", 0, 1),
    _predict("uniform:m=10", 5, 0),
    # counts past the float range, refused with exit 2 where a float must hold them
    _predict("uniform:m=10", HUGE, 1),
    _simulate("uniform:m=10", 5, HUGE, 2, 1),
    _exact("uniform:m=10", 5, HUGE),
    _predict(f"uniform:m={HUGE}", 5, 2),
    _simulate(f"uniform:m={HUGE}", 5, 2, 2, 1),
    _exact(f"uniform:m={HUGE}", 5, 2),
    # draws too large to allocate (10**18 balls need exbibytes, past any
    # host's virtual address space), refused with exit 3 on one thread and
    # through the pool
    _simulate("uniform:m=10", 10**18, 1, 1, 1),
    _simulate("geometric:p=0.5", 10**18, 1, 2, 1, "--threads", "2"),
    # argparse's usage errors: no --seed, no command, an unknown command, a
    # subcommand without its required flags and one with an unknown flag
    ("simulate", "--dist", "uniform:m=2", "--balls", "4", "--capacity", "1", "--reps", "3"),
    (),
    ("bogus",),
    ("exact",),
    ("exact", "--bogus"),
)


def write_weights(directory: Path) -> None:
    for name, weights in CUSTOM_WEIGHTS.items():
        (directory / f"{name}.txt").write_text("".join(f"{w}\n" for w in weights),
                                               encoding="utf-8")


def run(argv) -> dict:
    """Exit code and stdout sha256 of one in-process CLI call."""
    from urnoverflow import cli

    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:          # argparse usage errors
            code = exc.code
    return {"exit": code, "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


def key(argv) -> str:
    return shlex.join(argv)


def platform_record() -> dict:
    """What the digests depend on besides the code: numpy, the machine, libc."""
    return {"numpy": np.__version__, "machine": platform.machine(),
            "libc": " ".join(platform.libc_ver())}


def describe(record: dict) -> str:
    return f"numpy {record['numpy']} on {record['machine']}, {record['libc']}"


def outputs() -> dict:
    """Every argv's record, run in a fresh directory holding the weight files."""
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        write_weights(Path(tmp))
        os.chdir(tmp)
        try:
            return {key(argv): run(argv) for argv in ARGVS}
        finally:
            os.chdir(here)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help=f"rewrite {GOLDEN.name}")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    got = outputs()
    if args.write:
        GOLDEN.write_text(json.dumps({**platform_record(), "outputs": got},
                                     indent=1) + "\n", encoding="utf-8")
        print(f"wrote {len(got)} outputs to {GOLDEN}")
        return 0
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    moved = [k for k in got.keys() | golden["outputs"].keys()
             if got.get(k) != golden["outputs"].get(k)]
    for k in sorted(moved):
        print(f"moved: {k}")
    print(f"{len(moved)} of {len(got)} outputs moved (golden file written under "
          f"{describe(golden)}; running {describe(platform_record())})")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
