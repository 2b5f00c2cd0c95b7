"""`scripts/inprocess_ab.py`: one checkout against itself, at its smallest
run, for every layer it times."""
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "inprocess_ab.py"


def _run(*args):
    return subprocess.run(
        [sys.executable, str(SCRIPT), *args], capture_output=True, text=True, timeout=120
    )


@pytest.mark.parametrize("layer", ["mol_solve", "nonlinear_F", "invert_bigT", "direct_solve",
                                   "solve_linearized", "bathymetry_F"])
def test_checkout_against_itself(layer):
    done = _run("--against", str(ROOT), "--layer", layer, "--rounds", "2", "--steps", "1",
                "--calls", "1")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == f"layer {layer}, 2 rounds, against {ROOT}"
    for kind in ("wall", "cpu"):
        pattern = rf"  {kind} ratio this/against: [0-9.]+ \[[0-9.]+, [0-9.]+\], won [0-2] of 2"
        assert any(re.fullmatch(pattern, line) for line in lines), done.stdout


def test_missing_checkout_is_refused(tmp_path):
    done = _run("--against", str(tmp_path), "--layer", "mol_solve")
    assert done.returncode != 0
    assert "no package at" in done.stderr
