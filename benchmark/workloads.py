"""Workload definitions, the in-process CLI call, and per-op correctness checks.

Every op is one ``urnoverflow.cli.main([...])`` call made in-process, exactly
as a user would type the command.  An op ends in one of three outcomes:

* ``ok``: exit 0 and every check below passed;
* ``refused``: exit 3, the CLI's budget refusal;
* ``failed``: any other exit, an exception, or a failed check.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

from urnoverflow import cli

OK, REFUSED, FAILED = "ok", "refused", "failed"

# Trial streams are SeedSequence(entropy=seed, spawn_key=(i,)); this seed's
# histograms are pinned below, so a change to sampling or to the kernel that
# alters any trial's outcome shows as a failed warm-up op.
PIN_SEED = 20190516


def call_cli(argv: list[str]) -> tuple[int, str, str, float]:
    """Run the CLI in-process; return (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:          # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:                  # a crashing call is a failed op
        rc = -1
        err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue(), time.perf_counter() - t0


# ---------------------------------------------------------------------------
# Monte Carlo workloads: `simulate` on a figure preset's instance
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimulateWorkload:
    """`simulate` on the instance of one figure preset.

    The instance (distribution, n, r) is read from ``cli.PRESETS``; it is
    passed as explicit flags so that ``reps`` can be sized to a quarter of a
    second per one-worker call instead of the preset's full run.
    """

    preset: str
    gof: str
    identity_checks: bool
    reps: int
    exact_mean: float      # finite-n E V for the preset's instance
    pin_digest: str        # histograms of the PIN_SEED call

    def argv(self, seed: int, threads: int) -> list[str]:
        p = cli.PRESETS[self.preset]
        dist = (f"uniform:m={p['m']}" if p["kind"] == "uniform"
                else f"geometric:p={p['p']!r}")
        argv = ["simulate", "--dist", dist, "--balls", str(p["n"]),
                "--capacity", str(p["r"]), "--reps", str(self.reps),
                "--seed", str(seed), "--gof", self.gof,
                "--threads", str(threads), "--no-timing"]
        if self.identity_checks:
            argv.append("--identity-checks")
        return argv

    def check(self, rc: int, out: str, err: str) -> tuple[str, str]:
        """(outcome, reason) for one call's exit code and output."""
        if rc != 0:
            return FAILED, f"exit {rc}: {err.strip()[-300:]}"
        try:
            summaries = json.loads(out)["summaries"]
            for name, s in summaries.items():
                if sum(s["histogram"].values()) != self.reps or s["reps"] != self.reps:
                    return FAILED, f"{name} histogram does not sum to reps={self.reps}"
            v = summaries["V"]
        except (ValueError, KeyError, TypeError) as exc:
            return FAILED, f"malformed output: {exc!r}"
        se = math.sqrt(v["variance"] / self.reps)
        if abs(v["mean"] - self.exact_mean) > 5.0 * se:
            return FAILED, (f"V mean {v['mean']} is more than 5 SE ({se}) from "
                            f"the exact mean {self.exact_mean}")
        return OK, ""


def histogram_digest(out: str) -> str:
    """sha256 of the histograms alone (the fit floats may vary with scipy)."""
    summaries = json.loads(out)["summaries"]
    hists = {name: s["histogram"] for name, s in summaries.items()}
    return hashlib.sha256(json.dumps(hists, sort_keys=True).encode()).hexdigest()


# Exact means: fig3 from exact_mean_via_counts; fig2 and fig4 from an
# independent scipy.stats.binom sum over the geometric support
# (reference_means.py), since the package's own routes take minutes to hours
# on those instances.
SIMULATE_WORKLOADS = {
    "mc_fig3": SimulateWorkload(
        preset="fig3", gof="normal", identity_checks=False, reps=1000,
        exact_mean=217.29080590274341,
        pin_digest="210a11220530c21fcfb352c4895c617010dfe2b11d77a8cd4a3c4bf9e2dc2c7a"),
    "mc_fig2": SimulateWorkload(
        preset="fig2", gof="poisson", identity_checks=False, reps=50,
        exact_mean=2.115158313423943,
        pin_digest="8b9c921e90b9935db68b33720d93c2d8d694c2deebf21c2a32381f1886ac9a6e"),
    "mc_fig4_checked": SimulateWorkload(
        preset="fig4", gof="normal", identity_checks=True, reps=200,
        exact_mean=9.709662426289697,
        pin_digest="cb508e239a84d468d99475b2cc5480f5778648b487112534421d1eb835e24fe2"),
}


# ---------------------------------------------------------------------------
# exact_mix: `exact` over a fixed instance list
# ---------------------------------------------------------------------------

# Weights of the custom instances, written to files when the inputs are built.
CUSTOM_WEIGHTS = {"w123": (1, 2, 3), "w1124": (1, 1, 2, 4), "w5311": (5, 3, 1, 1)}


@dataclass(frozen=True)
class ExactInstance:
    dist: str            # spec; "custom:<key>" names an entry of CUSTOM_WEIGHTS
    n: int
    r: int
    full_dist: bool
    mean: float          # exact_mean_via_counts at this commit, budget lifted

    def argv(self, weights_dir: Path) -> list[str]:
        dist = self.dist
        if dist.startswith("custom:"):
            dist = f"custom:@{weights_dir / (dist.split(':', 1)[1] + '.txt')}"
        argv = ["exact", "--dist", dist, "--balls", str(self.n),
                "--capacity", str(self.r), "--no-timing"]
        return argv + ["--full-dist"] if self.full_dist else argv

    def check(self, rc: int, out: str, err: str) -> tuple[str, str]:
        if rc == 3:
            return REFUSED, err.strip()
        if rc != 0:
            return FAILED, f"exit {rc}: {err.strip()[-300:]}"
        try:
            rec = json.loads(out)
            a, b = rec["exact_mean_overflow"], rec["exact_mean_via_counts"]
            law_mean = rec["exact_distribution"]["mean"] if self.full_dist else b
        except (ValueError, KeyError, TypeError) as exc:
            return FAILED, f"malformed output: {exc!r}"
        if not _close(a, b, 1e-9):
            return FAILED, f"mean routes disagree: {a!r} vs {b!r}"
        if not _close(b, self.mean, 1e-9):
            return FAILED, f"mean {b!r} differs from the pinned {self.mean!r}"
        if not _close(law_mean, b, 1e-10):
            return FAILED, f"--full-dist mean {law_mean!r} differs from {b!r}"
        return OK, ""


def _close(x: float, y: float, rel: float) -> bool:
    return abs(x - y) <= rel * max(abs(x), abs(y))


# Fifteen instances that complete plus two that are refused.  The list holds
# no call much slower than 0.2 s, so a run cycles through it often enough for
# a steady median per instance.
EXACT_INSTANCES = (
    # small geometric means
    ExactInstance("geometric:p=0.05", 200, 2, False, 106.11011605922566),
    ExactInstance("geometric:p=0.25", 40, 3, False, 17.029241731967836),
    ExactInstance("geometric:p=0.1", 100, 2, False, 53.73066314686279),
    ExactInstance("geometric:p=0.2", 50, 2, False, 27.580885609245556),
    ExactInstance("geometric:p=0.05", 100, 3, False, 18.485869264806208),
    ExactInstance("geometric:p=0.1", 200, 3, False, 120.42200734348361),
    # uniform paper instances: fig3, then the README's and fig1's, which the
    # n*support budget refuses although uniform has one distinct probability
    ExactInstance("uniform:m=25118", 10_000, 2, False, 217.29080590274341),
    ExactInstance("uniform:m=1000", 5_000, 3, False, 2171.607077115806),
    ExactInstance("uniform:m=333333", 10_000, 2, False, 1.4772674206456882),
    ExactInstance("uniform:m=10540926", 100_000, 2, False, 1.492860147355154),
    # --full-dist enumeration on small uniform and custom instances
    ExactInstance("uniform:m=4", 8, 2, True, 1.8687744140625),
    ExactInstance("uniform:m=5", 10, 2, True, 2.4159191039999994),
    ExactInstance("uniform:m=6", 12, 2, True, 2.9609356863138396),
    ExactInstance("uniform:m=3", 20, 3, True, 11.06360411155229),
    ExactInstance("custom:w123", 12, 2, True, 6.558566022836379),
    ExactInstance("custom:w1124", 10, 3, True, 2.4572803005576125),
    ExactInstance("custom:w5311", 8, 1, True, 4.92248868),
)


def write_custom_weights(weights_dir: Path) -> None:
    weights_dir.mkdir(parents=True, exist_ok=True)
    for key, weights in CUSTOM_WEIGHTS.items():
        (weights_dir / f"{key}.txt").write_text(
            "".join(f"{w}\n" for w in weights), encoding="utf-8")
