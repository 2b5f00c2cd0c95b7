"""`scripts/artifact_hashes.py --against`: the size of a difference in a CSV
artifact."""
import importlib.util
import math
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "artifact_hashes", Path(__file__).resolve().parent.parent / "scripts" / "artifact_hashes.py"
)
artifact_hashes = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(artifact_hashes)

HEADER = "# schema_version: 1\n# config_hash: {}\n# units: nondimensional\n"
BASE = [
    ["iota", "residual_x0", "error", "norm_v"],
    ["0.01", "2.5e-06", "1.0000000000000001e-05", "nan"],
    ["0.001", "2.5e-08", "0", "3"],
]


def _write(tmp_path, name, rows, config_hash="abc"):
    path = tmp_path / name
    path.write_text(HEADER.format(config_hash) + "".join(",".join(r) + "\n" for r in rows))
    return path


def _with(cell, value):
    rows = [list(r) for r in BASE]
    rows[cell[0]][cell[1]] = value
    return rows


def test_csv_difference_is_the_largest_relative_cell_difference(tmp_path):
    # the header lines (a config hash) and equal NaN cells do not count
    other = _write(tmp_path, "other.csv", BASE)
    same = _write(tmp_path, "same.csv", BASE, config_hash="def")
    assert artifact_hashes.max_csv_relative_difference(same, other) == 0.0
    rows = _with((1, 1), "2.500000000000001e-06")
    rows[2][3] = "3.0000000000006"
    this = _write(tmp_path, "this.csv", rows)
    # the larger of the two differences, relative to `other`'s cell
    for a, b in ((this, other), (other, this)):
        assert artifact_hashes.max_csv_relative_difference(a, b) == pytest.approx(
            2e-13, rel=1e-3, abs=0.0
        )


@pytest.mark.parametrize(
    "rows",
    [
        _with((2, 2), "1e-300"),  # other's cell is zero
        _with((1, 3), "1.0"),  # NaN against a number
        _with((0, 1), "residual"),  # a column name
        BASE[:2],  # a row fewer
        [r + ["1"] for r in BASE],  # a column more
    ],
    ids=["zero", "nan", "text", "rows", "columns"],
)
def test_csv_difference_is_infinite_where_no_ratio_holds(tmp_path, rows):
    other = _write(tmp_path, "other.csv", BASE)
    this = _write(tmp_path, "this.csv", rows)
    assert artifact_hashes.max_csv_relative_difference(this, other) == math.inf
