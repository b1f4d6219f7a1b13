"""Every argv of tools/golden.py gives the exit code and stdout recorded in
tests/golden_cli.json (regenerate with ``python tools/golden.py --write``)."""

import importlib.util
import json
from pathlib import Path

import pytest

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
