import csv
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import urnoverflow
from urnoverflow import cli
from urnoverflow.asymptotics import regime_report
from urnoverflow.cli import PRESETS, main
from urnoverflow.distributions import Geometric, Uniform


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_simulate_trivial_json(capsys):
    code, out, _ = run_cli(["simulate", "--dist", "uniform:m=1", "--balls", "5",
                            "--capacity", "2", "--reps", "10", "--seed", "3"], capsys)
    assert code == 0
    record = json.loads(out)
    assert record["summaries"]["V"]["histogram"] == {"3": 10}
    assert record["config"]["seed"] == 3
    assert set(record) == {"config", "summaries", "theory", "fit", "timing"}
    # round-trip
    assert json.loads(json.dumps(record)) == record


def test_simulate_requires_seed(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--dist", "uniform:m=1", "--balls", "5",
              "--capacity", "2", "--reps", "10"])
    assert exc.value.code == 2


def test_simulate_refuses_more_than_2_32_reps(capsys):
    code, out, err = run_cli(["simulate", "--dist", "uniform:m=2", "--balls", "3",
                              "--capacity", "1", "--reps", str(2**32 + 1),
                              "--seed", "1"], capsys)
    assert code == 2
    assert out == ""
    assert "reps" in err


def test_simulate_bad_dist_is_usage_error(capsys):
    code, _, err = run_cli(["simulate", "--dist", "nope:x=1", "--balls", "5",
                            "--capacity", "2", "--reps", "10", "--seed", "1"], capsys)
    assert code == 2
    assert "error" in err


def test_simulate_repeated_collect_is_usage_error(capsys):
    # a repeated name would count every trial once per listing
    code, out, err = run_cli(["simulate", "--dist", "uniform:m=5", "--balls", "5",
                              "--capacity", "2", "--reps", "3", "--seed", "1",
                              "--collect", "v,v"], capsys)
    assert code == 2
    assert out == ""
    assert "repeats" in err


@pytest.mark.parametrize("collect, shown", [("x", "('X',)"), (",", "('', '')")])
def test_simulate_unknown_or_empty_collect_is_usage_error(collect, shown, capsys):
    code, out, err = run_cli(["simulate", "--dist", "uniform:m=5", "--balls", "5",
                              "--capacity", "2", "--reps", "3", "--seed", "1",
                              "--collect", collect], capsys)
    assert code == 2
    assert out == ""
    assert err == ("error: collect must be a non-empty subset of V,L,M without "
                   f"repeats, got {shown}\n")


@pytest.mark.parametrize("collect, stat, ks", [("v,l,m", "V", 0.0425099871836907),
                                               ("m,v", "M", 0.03260457846224485)])
def test_simulate_gof_normal_pins_the_ks_statistic(collect, stat, ks, capsys):
    code, out, _ = run_cli(["simulate", "--dist", "uniform:m=25118", "--balls", "10000",
                            "--capacity", "2", "--reps", "1000", "--seed", "20190516",
                            "--collect", collect, "--gof", "normal", "--no-timing"],
                           capsys)
    assert code == 0
    fit = json.loads(out)["fit"]
    assert fit["law"]["statistic"] == stat
    assert fit["ks_normal"] == ks


@pytest.mark.parametrize("balls", ["-5", "0"])
def test_predict_without_balls_is_usage_error(balls, capsys):
    code, out, err = run_cli(["predict", "--dist", "uniform:m=10", "--balls", balls,
                              "--capacity", "2"], capsys)
    assert code == 2
    assert out == ""
    assert "n must be >= 1" in err


_SIM = ["simulate", "--dist", "uniform:m=10", "--balls", "5", "--capacity", "1",
        "--reps", "3", "--seed", "1"]
_EXA = ["exact", "--dist", "uniform:m=10", "--balls", "5", "--capacity", "1"]


@pytest.mark.parametrize("argv, message", [
    ([*_SIM, "--balls", "0"], "n must be >= 1, got 0"),
    ([*_SIM, "--seed", "-1"], "seed must be >= 0, got -1"),
    ([*_EXA, "--balls", "0"], "n must be >= 1, got 0"),
    (["predict", "--dist", "uniform:m=10", "--balls", "5", "--capacity", "0"],
     "moment order r must be >= 1, got 0"),
], ids=["simulate balls 0", "simulate seed -1", "exact balls 0", "predict capacity 0"])
def test_a_size_below_its_floor_names_the_argument(argv, message, capsys):
    # the last of a repeated flag is the one argparse keeps
    assert run_cli(argv, capsys) == (2, "", f"error: {message}\n")


def test_simulate_gof_poisson_fit_block(capsys):
    code, out, _ = run_cli(["simulate", "--dist", "uniform:m=2000", "--balls", "100",
                            "--capacity", "1", "--reps", "2000", "--seed", "11",
                            "--gof", "poisson"], capsys)
    assert code == 0
    record = json.loads(out)
    assert 0.0 <= record["fit"]["tv_poisson"] <= 1.0
    assert record["theory"]["mu"] == pytest.approx(100**2 / (2 * 2000))


def test_simulate_fits_pois_0_when_mu_underflows(capsys):
    # mu underflows to 0 and no two of the 10 balls share an urn, so every
    # trial has V = 0: Pois(0), the point mass at 0, fits it exactly
    args = ["simulate", "--dist", "geometric:p=1e-300", "--balls", "10", "--capacity", "1",
            "--reps", "3", "--seed", "1", "--gof", "poisson"]
    code, out, err = run_cli(args, capsys)
    assert (code, err) == (0, "")
    record = json.loads(out)
    assert record["theory"]["mu"] == 0.0
    assert record["summaries"]["V"]["histogram"] == {"0": 3}
    assert record["fit"]["tv_poisson"] == 0.0
    assert record["fit"]["chi_square"] == {"error": "need at least 50 replications"}
    code, out, err = run_cli(args + ["--format", "csv"], capsys)
    assert (code, err) == (0, "")
    assert out == "value,count,empirical_prob,theory_prob\n0,3,1.0,1.0\n"


def test_csv_and_json_encode_identical_histograms(capsys):
    args = ["simulate", "--dist", "uniform:m=4", "--balls", "12", "--capacity", "2",
            "--reps", "500", "--seed", "21", "--gof", "poisson"]
    code, out_json, _ = run_cli(args, capsys)
    record = json.loads(out_json)
    code, out_csv, _ = run_cli(args + ["--format", "csv"], capsys)
    rows = list(csv.DictReader(io.StringIO(out_csv)))
    got = {row["value"]: int(row["count"]) for row in rows}
    assert got == record["summaries"]["V"]["histogram"]
    for row in rows:
        assert float(row["empirical_prob"]) == pytest.approx(
            int(row["count"]) / 500)
        assert float(row["theory_prob"]) > 0.0


def test_exact_command(capsys):
    code, out, _ = run_cli(["exact", "--dist", "uniform:m=2", "--balls", "4",
                            "--capacity", "1", "--full-dist"], capsys)
    assert code == 0
    record = json.loads(out)
    assert record["exact_mean_overflow"] == pytest.approx(2.125)
    assert record["exact_mean_via_counts"] == pytest.approx(2.125)
    assert record["exact_distribution"]["pmf"]["2"] == pytest.approx(0.875)
    assert record["exact_distribution"]["pmf"]["3"] == pytest.approx(0.125)


def test_exact_mean_zero_when_n_at_most_r(capsys):
    code, out, _ = run_cli(["exact", "--dist", "uniform:m=5", "--balls", "3",
                            "--capacity", "5"], capsys)
    assert code == 0
    record = json.loads(out)
    assert record["exact_mean_overflow"] == 0.0


def test_exact_budget_exit_code(capsys):
    code, _, err = run_cli(["exact", "--dist", "uniform:m=10000000", "--balls",
                            "100000", "--capacity", "2"], capsys)
    assert code == 3
    assert "budget" in err


def test_exact_fig2_refused_fast(capsys):
    # fig2's geometric support needs about 5.1e6 urns of 1e5 balls before the cutoff
    p = PRESETS["fig2"]["p"]
    t0 = time.perf_counter()
    code, _, err = run_cli(["exact", "--dist", f"geometric:p={p!r}", "--balls",
                            "100000", "--capacity", "3"], capsys)
    assert time.perf_counter() - t0 < 1.0
    assert code == 3
    assert "budget" in err


def test_exact_full_dist_budget_counts_cells(capsys):
    for m, n, r in [
        (100_000, 1, 1),          # 1e5 urns of 8 cells and a 1e3-cell step each
        (25_118, 10_000, 2),      # fig3: 25,118 urns of about 1e12 cells each
        (10_540_926, 100_000, 2),  # fig1
        (1_000, 5_000, 2),        # 1,000 urns of about 5e10 cells each
    ]:
        t0 = time.perf_counter()
        code, out, err = run_cli(["exact", "--dist", f"uniform:m={m}", "--balls", str(n),
                                  "--capacity", str(r), "--full-dist"], capsys)
        assert time.perf_counter() - t0 < 1.0
        assert code == 3
        assert out == ""
        assert "cells" in err and "budget" in err
        assert len(err) < 300


def test_exact_full_dist_mass_check_is_usage_error(monkeypatch, capsys):
    # 1e5 balls in 2 urns: 2 urns of about 5e10 cells each are refused at once
    t0 = time.perf_counter()
    code, out, err = run_cli(["exact", "--dist", "uniform:m=2", "--balls", "100000",
                              "--capacity", "2", "--full-dist"], capsys)
    assert time.perf_counter() - t0 < 1.0
    assert code == 3 and out == "" and "budget" in err
    # urn probabilities summing to 1.2 give row n a mass far from P(Pois(n) = n)
    monkeypatch.setattr(Uniform, "distinct_probs", lambda self: [(0.6, 2)])
    code, out, err = run_cli(["exact", "--dist", "uniform:m=2", "--balls", "10",
                              "--capacity", "2", "--full-dist"], capsys)
    assert code == 2
    assert out == ""
    assert "pmf mass" in err and "n=10" in err
    assert "Traceback" not in err


def test_exact_full_dist_with_an_underflowing_urn(tmp_path, capsys):
    # the masses normalise to 1 and 0: the empty urn gets no balls, an identity step
    weights = tmp_path / "w.txt"
    weights.write_text("1e300\n1e-300\n", encoding="utf-8")
    code, out, err = run_cli(["exact", "--dist", f"custom:@{weights}", "--balls", "5",
                              "--capacity", "1", "--full-dist", "--no-timing"], capsys)
    assert code == 0, err
    record = json.loads(out)
    assert record["exact_mean_overflow"] == 4.0
    assert record["exact_distribution"]["mean"] == record["exact_mean_overflow"]
    assert record["exact_distribution"]["pmf"] == {"3": 0.0, "4": 1.0}


def test_exact_fig4_means_fast(capsys):
    # fig4 keeps 61,027 geometric urns above the cutoff; neither route sums over the balls
    t0 = time.perf_counter()
    code, out, _ = run_cli(["exact", "--dist", "geometric:p=1e-4", "--balls", "10000",
                            "--capacity", "4", "--no-timing"], capsys)
    assert time.perf_counter() - t0 < 1.0
    assert code == 0
    record = json.loads(out)
    assert record["exact_mean_overflow"] == pytest.approx(record["exact_mean_via_counts"],
                                                          rel=1e-12)


def test_exact_full_dist_refuses_before_any_mean_work(monkeypatch, capsys):
    # the full law of a geometric instance is refused before either mean runs
    def mean_route(*args, **kwargs):
        raise AssertionError("a mean route ran before the full law was refused")

    monkeypatch.setattr(cli, "exact_mean_overflow", mean_route)
    monkeypatch.setattr(cli, "exact_mean_via_counts", mean_route)
    code, out, err = run_cli(["exact", "--dist", "geometric:p=1e-4", "--balls", "10000",
                              "--capacity", "4", "--full-dist"], capsys)
    assert code == 2
    assert out == ""
    assert "finite-support" in err


_SCIPY_PROBE = """
import contextlib, io, sys
sys.modules["scipy"] = None   # any scipy import now raises ImportError
from urnoverflow import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:]) if sys.argv[1:] else 0
print(code, *sorted({"numpy.random", "concurrent.futures"} & set(sys.modules)))
"""


def _run_without_scipy(argv):
    """Exit code of a fresh interpreter in which scipy cannot be imported,
    that imports urnoverflow.cli and, given argv, runs it; and which of
    numpy.random and concurrent.futures it has loaded by then."""
    src = str(Path(urnoverflow.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    code, *loaded = proc.stdout.split()
    return int(code), set(loaded)


def test_no_command_loads_scipy():
    # and only a run's trials load numpy.random, only a run of several spans the pool
    small = ["--dist", "uniform:m=400", "--balls", "40", "--capacity", "1"]
    law = ["--dist", "uniform:m=4", "--balls", "8", "--capacity", "2"]
    fig2 = ["simulate", "--preset", "fig2", "--seed", "1", "--no-timing", "--scale"]
    drawn, pooled = {"numpy.random"}, {"numpy.random", "concurrent.futures"}
    for argv, loaded in (
            ([], set()), (["predict", *small], set()),
            (["simulate", *small, "--reps", "200", "--seed", "1", "--gof", "normal"], drawn),
            (["simulate", *small, "--reps", "200", "--seed", "1", "--gof", "poisson"], drawn),
            (["simulate", *small, "--reps", "200", "--seed", "1", "--threads", "2"], pooled),
            ([*fig2, "0.001"], drawn), ([*fig2, "0.5"], drawn),
            (["exact", *small], set()), (["exact", *law, "--full-dist"], set()),
            (["exact", "--dist", "geometric:p=0.05", "--balls", "200", "--capacity", "2"],
             set())):
        assert _run_without_scipy(argv) == (0, loaded), argv


@pytest.mark.parametrize("dist,reps,threads", [("uniform:m=10", "1", "1"),
                                               ("geometric:p=0.5", "2", "2")])   # the pool
def test_a_draw_too_large_to_allocate_is_a_budget_refusal(dist, reps, threads, capsys):
    # 10**18 balls need exbibytes, past any host's virtual address space, so
    # numpy's allocation fails at once
    code, out, err = run_cli(["simulate", "--dist", dist, "--balls", str(10**18),
                              "--capacity", "1", "--reps", reps, "--seed", "1",
                              "--threads", threads], capsys)
    assert (code, out) == (3, "")
    assert err.startswith("error: Unable to allocate ")


@pytest.mark.parametrize("command", ["predict", "simulate"])
@pytest.mark.parametrize("dist,capacity,code", [
    ("uniform:m=1", 400, 2),           # n^(r+1) and the scaled moment overflow
    ("uniform:m=1000", 200, 0),        # (r+1)! overflows; the power moment underflows
    ("geometric:p=0.5", 300, 0),       # (r+1)! overflows
])
def test_regime_report_beyond_float_range(command, dist, capacity, code, capsys):
    argv = [command, "--dist", dist, "--balls", "10", "--capacity", str(capacity)]
    if command == "simulate":
        argv += ["--reps", "5", "--seed", "1"]
    got, out, err = run_cli(argv, capsys)
    assert got == code
    if code:
        assert out == ""
        assert "scaled moment" in err and "float range" in err
    else:
        record = json.loads(out)
        theory = record if command == "predict" else record["theory"]
        assert all(math.isfinite(v) for k, v in theory.items() if k != "classification")
        assert theory["mu"] == 0.0


_ONE_BALL_THEORY = {"classification": "Indeterminate", "mu": 0.0, "scaled_moment": 1.0,
                    "n_p_star": 1.0, "var_lower_asymptotic": 0.0, "var_upper": 0.0}


@pytest.mark.parametrize("argv, record", [
    (["predict", "--dist", "uniform:m=1", "--balls", "1", "--capacity", "1000000"],
     _ONE_BALL_THEORY),
    (["exact", "--dist", "uniform:m=7", "--balls", "1", "--capacity", "1000000",
      "--no-timing"],
     {"config": {"balls": 1, "capacity": 1000000, "dist": "uniform:m=7",
                 "version": urnoverflow.__version__},
      "exact_mean_overflow": 0.0, "exact_mean_via_counts": 0.0,
      "theory": {**_ONE_BALL_THEORY, "n_p_star": 1 / 7, "scaled_moment": 0.0},
      "timing": None}),
])
def test_regime_report_on_one_ball_at_a_large_capacity(argv, record, capsys):
    # one ball never overflows n^(r+1), so the capacity alone must send the
    # report to logs before (r+1)! is built: r = 1e6 took 11-12 s that way
    t0 = time.perf_counter()
    code, out, _ = run_cli(argv, capsys)
    assert time.perf_counter() - t0 < 2.0
    assert code == 0
    assert out == json.dumps(record, indent=2, sort_keys=True) + "\n"


def test_predict_fig3_normal_candidate(capsys):
    code, out, _ = run_cli(["predict", "--dist", "uniform:m=25118", "--balls",
                            "10000", "--capacity", "2"], capsys)
    assert code == 0
    record = json.loads(out)
    assert record["classification"] == "NormalCandidate"
    assert record["scaled_moment"] == pytest.approx(10**12 / 25118**2, rel=1e-9)


def test_predict_poisson_candidate(capsys):
    code, out, _ = run_cli(["predict", "--dist", "uniform:m=333333", "--balls",
                            "10000", "--capacity", "2"], capsys)
    record = json.loads(out)
    assert record["classification"] == "PoissonCandidate"
    assert record["mu"] == pytest.approx(1.5, abs=0.01)


def test_predict_indeterminate(capsys):
    code, out, _ = run_cli(["predict", "--dist", "uniform:m=100", "--balls",
                            "100", "--capacity", "1"], capsys)
    assert json.loads(out)["classification"] == "Indeterminate"


def test_preset_scaling_keeps_mu(capsys):
    code, out, _ = run_cli(["simulate", "--preset", "fig1", "--scale", "0.01",
                            "--seed", "4", "--gof", "poisson", "--no-timing"], capsys)
    assert code == 0
    record = json.loads(out)
    assert record["theory"]["mu"] == pytest.approx(1.5, rel=0.02)
    assert record["config"]["preset_note"]
    assert record["timing"] is None

    code, out, _ = run_cli(["simulate", "--preset", "fig2", "--scale", "0.02",
                            "--seed", "4", "--gof", "poisson", "--no-timing"], capsys)
    record = json.loads(out)
    assert record["theory"]["mu"] == pytest.approx(2.25, rel=1e-6)


@pytest.mark.parametrize("scale", [0.001, 0.01, 0.1, 0.5, 0.9])
def test_scaled_fig2_solves_mu_to_rounding(scale):
    p = cli._scaled_preset("fig2", scale)
    mu = regime_report(Geometric(p["p"]), p["n"], p["r"]).mu
    assert mu == pytest.approx(2.25, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("name", ["fig3", "fig4"])
def test_preset_runs_as_its_flags(name, capsys):
    # a preset only fills in --dist, --balls, --capacity and --reps
    tail = ["--seed", "5", "--gof", "normal", "--no-timing"]
    _, out, _ = run_cli(["simulate", "--preset", name, "--scale", "0.01", *tail], capsys)
    by_preset = json.loads(out)
    c = by_preset.pop("config")
    code, out, _ = run_cli(["simulate", "--dist", c["dist"], "--balls", str(c["balls"]),
                            "--capacity", str(c["capacity"]), "--reps", str(c["reps"]),
                            *tail], capsys)
    assert code == 0
    by_flags = json.loads(out)
    assert by_flags.pop("config") == {**c, "preset": None, "preset_note": None}
    assert by_flags == by_preset


@pytest.mark.parametrize("flag, value", [
    ("--dist", "uniform:m=10"), ("--balls", "7"), ("--capacity", "3"), ("--reps", "3"),
])
def test_preset_rejects_the_flags_it_would_ignore(flag, value, capsys):
    code, out, err = run_cli(["simulate", "--preset", "fig3", "--scale", "0.01",
                              flag, value, "--seed", "1", "--no-timing"], capsys)
    assert code == 2
    assert out == ""
    assert flag in err and "--preset" in err


def test_scale_without_preset_is_rejected(capsys):
    code, out, err = run_cli(["simulate", "--dist", "uniform:m=10", "--balls", "20",
                              "--capacity", "2", "--reps", "3", "--scale", "0.5",
                              "--seed", "1", "--no-timing"], capsys)
    assert code == 2
    assert out == ""
    assert "--scale" in err


_FLAGS = {"--dist": "uniform:m=1", "--balls": "5", "--capacity": "2", "--reps": "60"}


@pytest.mark.parametrize("argv, code, needle", [
    *((["simulate", *(x for f, v in _FLAGS.items() if f != missing for x in (f, v)),
        "--seed", "1"], 2, f"{missing} is required without --preset") for missing in _FLAGS),
    *((["simulate", "--preset", "fig3", "--scale", scale, "--seed", "1"], 2,
       "--scale must lie in (0, 1]") for scale in ("0", "1.5", "-0.5", "nan")),
    # V = 3 on every trial: no normal to fit
    (["simulate", *(x for kv in _FLAGS.items() for x in kv), "--seed", "1", "--gof", "normal"],
     0, '"error": "zero empirical variance"'),
], ids=["no --dist", "no --balls", "no --capacity", "no --reps", "scale 0", "scale 1.5",
        "scale -0.5", "scale nan", "constant V"])
def test_simulate_reports_inputs_it_cannot_run_or_fit(argv, code, needle, capsys):
    got, out, err = run_cli(argv, capsys)
    assert got == code
    assert needle in (out if code == 0 else err)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_scale_one_is_the_preset_itself(name):
    assert cli._scaled_preset(name, 1.0) == PRESETS[name]


@pytest.mark.parametrize("name", ["fig1", "fig3", "fig4"])
def test_scaling_rules_give_the_preset_at_its_own_n(name):
    # a scale whose n rounds back to the preset's; fig2's p = 6 n^(-4/3) is not
    # the root that keeps mu = 2.25, so it is left out
    assert cli._scaled_preset(name, 1.0 - 1e-6) == PRESETS[name]


def test_no_timing_output_is_reproducible(capsys):
    args = ["simulate", "--dist", "custom:@WEIGHTS", "--balls", "40",
            "--capacity", "2", "--reps", "300", "--seed", "77", "--no-timing"]
    import tempfile, os
    with tempfile.NamedTemporaryFile("w", suffix=".txt", delete=False) as fh:
        fh.write("1\n2\n3\n")
        path = fh.name
    try:
        args = [a.replace("WEIGHTS", path) for a in args]
        _, out1, _ = run_cli(args + ["--threads", "1"], capsys)
        _, out4, _ = run_cli(args + ["--threads", "4"], capsys)
        assert out1 == out4
    finally:
        os.unlink(path)


def test_simulate_gof_poisson_at_a_large_mu(capsys):
    # mu = 5,611: the summed pmf never reaches 1 - 1e-12, so its table stops at
    # the bound
    t0 = time.perf_counter()
    code, out, _ = run_cli(["simulate", "--dist", "geometric:p=0.01", "--balls", "1000",
                            "--capacity", "2", "--reps", "50", "--seed", "7",
                            "--gof", "poisson"], capsys)
    assert time.perf_counter() - t0 < 2.0
    assert code == 0
    fit = json.loads(out)["fit"]
    assert fit["law"]["mu"] == pytest.approx(5611.48, rel=1e-6)
    assert fit["chi_square"]["statistic"] > 0.0
    assert 0.0 <= fit["tv_poisson"] <= 1.0 + 1e-12


def test_simulate_gof_poisson_at_mu_1e6(capsys):
    # every trial gives V = 9,950, far left of the table's first cell at
    # k = 960,000: the TV is 1 less a term far below the float epsilon, and the
    # summed terms put it at 1 - 2.2e-16
    t0 = time.perf_counter()
    code, out, _ = run_cli(["simulate", "--dist", "uniform:m=50", "--balls", "10000",
                            "--capacity", "1", "--reps", "50", "--seed", "1",
                            "--gof", "poisson", "--no-timing"], capsys)
    assert time.perf_counter() - t0 < 0.6
    assert code == 0
    fit = json.loads(out)["fit"]
    assert fit["law"]["mu"] == 1e6
    assert 1.0 - 1e-15 <= fit["tv_poisson"] <= 1.0


def test_simulate_gof_poisson_reports_a_degenerate_chi_square(capsys):
    # mu = 2e-6: every trial gives V = 0 and the whole expected count pools
    # into one cell, so the chi-square has no degree of freedom
    code, out, err = run_cli(["simulate", "--dist", "uniform:m=1000000", "--balls", "2",
                              "--capacity", "1", "--reps", "60", "--seed", "1",
                              "--gof", "poisson", "--no-timing"], capsys)
    assert (code, err) == (0, "")
    fit = json.loads(out)["fit"]
    assert fit["chi_square"] == {"error": "degenerate fit: fewer than 2 cells after pooling"}
    assert fit["tv_poisson"] == pytest.approx(-math.expm1(-2e-6), rel=1e-9)


def test_simulate_gof_poisson_refuses_a_table_bound_of_1e7_or_more(capsys):
    # mu = n^2 / 2! = 5e9, whose table would run to k = 5,000,848,569
    t0 = time.perf_counter()
    code, out, err = run_cli(["simulate", "--dist", "uniform:m=1", "--balls", "100000",
                              "--capacity", "1", "--reps", "1", "--seed", "1",
                              "--gof", "poisson"], capsys)
    assert time.perf_counter() - t0 < 2.0
    assert code == 2
    assert out == ""
    assert "mu = 5000000000.0 would run to k = 5000848569" in err and "Traceback" not in err


def test_simulate_gof_poisson_refuses_the_table_before_any_trial(capsys, monkeypatch):
    def no_trials(config):
        raise AssertionError("trials ran before the Poisson table was refused")
    monkeypatch.setattr(cli, "run_experiment", no_trials)
    code, out, err = run_cli(["simulate", "--dist", "uniform:m=2", "--balls", "20000",
                              "--capacity", "1", "--reps", "20000", "--seed", "1",
                              "--gof", "poisson"], capsys)
    assert code == 2
    assert out == ""
    assert "the Poisson table for mu = " in err and "Traceback" not in err


@pytest.mark.parametrize("stat", ["l", "m"])
def test_simulate_gof_poisson_fits_full_urns_at_capacity_minus_one(stat, capsys):
    # L_2 and M_2 are close to V_1 ~ Pois(mu_1), mu_1 = 100^2 / (2 * 5000) = 1
    code, out, _ = run_cli(["simulate", "--dist", "uniform:m=5000", "--balls", "100",
                            "--capacity", "2", "--reps", "2000", "--seed", "1",
                            "--collect", stat, "--gof", "poisson", "--no-timing"], capsys)
    assert code == 0
    fit = json.loads(out)["fit"]
    assert fit["law"] == {"statistic": stat.upper(), "name": "poisson",
                          "mu": pytest.approx(1.0)}
    assert fit["tv_poisson"] <= 0.05


def test_simulate_gof_csv_theory_uses_the_fitted_law(capsys):
    code, out, _ = run_cli(["simulate", "--dist", "uniform:m=5000", "--balls", "100",
                            "--capacity", "2", "--reps", "200", "--seed", "1",
                            "--collect", "l", "--gof", "poisson", "--format", "csv"],
                           capsys)
    assert code == 0
    rows = {row["value"]: row for row in csv.DictReader(io.StringIO(out))}
    assert float(rows["0"]["theory_prob"]) == pytest.approx(math.exp(-1.0))


def test_simulate_gof_normal_names_law(capsys):
    code, out, _ = run_cli(["simulate", "--dist", "uniform:m=50", "--balls", "100",
                            "--capacity", "2", "--reps", "300", "--seed", "5",
                            "--collect", "m,v", "--gof", "normal", "--no-timing"], capsys)
    assert code == 0
    record = json.loads(out)
    m = record["summaries"]["M"]
    assert record["fit"]["law"] == {"statistic": "M", "name": "normal",
                                    "mean": m["mean"], "sd": math.sqrt(m["variance"])}


@pytest.mark.parametrize("stat", ["l", "m"])
def test_simulate_gof_poisson_full_urns_at_capacity_one_is_usage_error(stat, capsys):
    code, out, err = run_cli(["simulate", "--dist", "uniform:m=5000", "--balls", "100",
                              "--capacity", "1", "--reps", "20", "--seed", "1",
                              "--collect", stat, "--gof", "poisson"], capsys)
    assert code == 2
    assert out == ""
    assert "capacity 1" in err


def test_consecutive_calls_share_no_state(capsys):
    # main reuses one parser, so nothing one call parses may leak into the next
    exact = ["exact", "--dist", "uniform:m=2", "--balls", "4", "--capacity", "1"]
    code, out, _ = run_cli(exact + ["--full-dist"], capsys)
    assert code == 0 and "exact_distribution" in json.loads(out)
    code, out, _ = run_cli(exact, capsys)
    assert code == 0 and "exact_distribution" not in json.loads(out)

    simulate = ["simulate", "--dist", "uniform:m=50", "--balls", "100",
                "--capacity", "2", "--reps", "50", "--seed", "5", "--no-timing"]
    code, out, _ = run_cli(simulate + ["--gof", "normal"], capsys)
    assert code == 0 and json.loads(out)["fit"]
    code, out, _ = run_cli(simulate, capsys)
    assert code == 0 and json.loads(out)["fit"] == {}

    for command in ("exact", "predict"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--dist", "uniform:m=2", "--balls", "4"])
        assert exc.value.code == 2
    code, out, _ = run_cli(exact, capsys)
    assert code == 0 and json.loads(out)["exact_mean_overflow"] == pytest.approx(2.125)


@pytest.mark.parametrize("argv", [[], ["bogus"], ["exact"], ["exact", "--bogus"]],
                         ids=["no command", "unknown command", "no flags", "unknown flag"])
def test_usage_errors_exit_2_with_empty_stdout(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    # the parser that parsed argv names itself in the usage line
    prog = "urnoverflow exact" if argv[:1] == ["exact"] else "urnoverflow"
    assert out.err.startswith(f"usage: {prog} [-h]")


def test_an_unrecognized_flag_prints_the_subcommands_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["predict", "--dist", "uniform:m=2", "--balls", "4", "--capacity", "1",
              "--bogus", "1"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("usage: urnoverflow predict [-h] --dist DIST")
    assert out.err.endswith("urnoverflow predict: error: unrecognized arguments: --bogus 1\n")


@pytest.mark.parametrize("argv", [["-h"], ["simulate", "-h"], ["exact", "-h"],
                                  ["predict", "-h"]])
def test_help_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(
        f"usage: {' '.join(['urnoverflow', *argv[:-1]])} [-h]")


def test_main_reads_sys_argv_without_an_argument(monkeypatch, capsys):
    argv = ["predict", "--dist", "uniform:m=25118", "--balls", "10000", "--capacity", "2"]
    monkeypatch.setattr(sys, "argv", ["urnoverflow", *argv])
    assert main() == 0
    from_sys = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == from_sys != ""
