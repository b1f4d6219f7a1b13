"""Every argv of tools/golden.py gives the exit code and stdout recorded in
tests/golden_cli.json (regenerate with ``python tools/golden.py --write``)."""

import importlib.util
import json
from pathlib import Path

import pytest

from urnoverflow import cli

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("golden", ROOT / "tools" / "golden.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

RECORDED = json.loads(golden.GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def weights_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("weights")
    golden.write_weights(path)
    return path


def test_the_file_records_every_argv_once():
    keys = [golden.key(argv) for argv in golden.ARGVS]
    assert len(set(keys)) == len(keys)
    assert set(RECORDED["outputs"]) == set(keys)


def test_every_exit_code_is_covered():
    assert {rec["exit"] for rec in RECORDED["outputs"].values()} == {0, 2, 3}


@pytest.mark.parametrize("argv", golden.ARGVS, ids=golden.key)
def test_cli_output_matches_the_golden_file(argv, weights_dir, monkeypatch):
    monkeypatch.chdir(weights_dir)
    assert golden.run(argv) == RECORDED["outputs"][golden.key(argv)], (
        f"output moved; golden file written under {golden.describe(RECORDED)}, "
        f"running {golden.describe(golden.platform_record())}")


def _parsed(parser, argv):
    """The parsed Namespace of argv as a dict, or argparse's exit code."""
    try:
        return vars(parser.parse_args(argv))
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("argv", [a for a in golden.ARGVS
                                  if a and a[0] in ("simulate", "exact", "predict")],
                         ids=golden.key)
def test_a_subcommand_parses_its_argv_as_the_top_level_parser_does(argv, capsys):
    parser, commands = cli.build_parser()
    whole = _parsed(parser, list(argv))
    if isinstance(whole, dict):
        assert whole.pop("command") == argv[0]
    assert _parsed(commands[argv[0]], list(argv[1:])) == whole
