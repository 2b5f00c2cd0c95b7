"""sha256 table of the CLI artifacts on the shipped configs.

Runs `schedule` (defaults), `solve` and `convergence` on
`configs/benchmark.json`, `stability` on `configs/stability.json`,
`scaling` on both shipped scaling configs, `solve` on a 2D variant of
`configs/benchmark.json` (16^2 grid, random bathymetry, written into the
temporary directory; the only row through the 2D and b != 0 operator
branches), and `validate` (its own invariant suite, no config). Each run writes into its own directory under a temporary
directory, and the script prints one markdown row per artifact with the
first 16 hex digits of its sha256:

    | command and config | artifact | sha256 |

Two checkouts of the package that compute the same bits print the same
table, so a change meant to keep every output byte for byte is checked by
comparing the tables of both. The hashes depend on the numpy build (its FFT
and SIMD kernels), so they are compared between checkouts on one machine,
not stored as a test. `--against DIR` does the comparison: it builds the
table for this checkout and for the checkout DIR, prints only the rows that
differ (this checkout's row, then DIR's), and exits 1 if any row differs.
For each differing trajectory (`.nmtrj.bin`) it also prints the largest
per-snapshot relative difference between the two trajectories, in the l2
norm of the coefficients (the H^0 norm, by Parseval), and for each
differing CSV file (`trace.csv`, `stability.csv`, `scaling.csv`) the largest
relative difference over its numeric cells, so a change that moves bits at
rounding level shows by how much.

Run from anywhere; the package is imported from the `src/` next to this
script's directory, or from `--root DIR/src`:

    python3 scripts/artifact_hashes.py [--root DIR] [--against DIR]
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

#: configs/benchmark.json on a 16^2 grid with the flagship's retained band
#: (|k| <= 4 per axis) over random bathymetry, for T = 0.2.
BENCHMARK_2D = ("configs/benchmark.json", {
    "grid": {"dimension": 2, "nodes": 16, "dealias_fraction": 0.5},
    "physics": {"bathymetry": {"type": "random", "amplitude": 0.05, "decay": 5.0, "seed": 101}},
    "run": {"T": 0.2},
})

#: (label, command, config, artifacts the command writes). The config is a
#: path relative to the root, None for the defaults, or (path, sections to
#: update) for a config written into the temporary directory.
RUNS = [
    ("`schedule` (default)", "schedule", None, ["schedule.json"]),
    ("`solve`, `configs/benchmark.json`", "solve", "configs/benchmark.json", [
        "solution_mol.nmtrj.bin",
        "solution_mol.nmtrj.json",
        "solution_nash_moser.nmtrj.bin",
        "solution_nash_moser.nmtrj.json",
        "solve_report.json",
        "trace.csv",
    ]),
    ("`convergence`, `configs/benchmark.json`", "convergence", "configs/benchmark.json", [
        "trace.csv",
        "induction.json",
    ]),
    ("`stability`, `configs/stability.json`", "stability", "configs/stability.json", [
        "stability.csv",
        "stability.json",
    ]),
    ("`scaling`, `configs/scaling_eps_one.json`", "scaling", "configs/scaling_eps_one.json", [
        "scaling.csv",
        "scaling.json",
    ]),
    ("`scaling`, `configs/scaling_eps_sqrt_mu.json`", "scaling",
     "configs/scaling_eps_sqrt_mu.json", ["scaling.csv", "scaling.json"]),
    ("`solve`, `configs/benchmark.json` in 2D, random bathymetry", "solve", BENCHMARK_2D, [
        "solution_mol.nmtrj.bin",
        "solution_nash_moser.nmtrj.bin",
        "solve_report.json",
        "trace.csv",
    ]),
    ("`validate`", "validate", None, ["validate.json"]),
]


def _sha16(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def _config_path(root: Path, config, tmp: Path, i: int) -> Path | None:
    """The `--config` file of run `i` (see `RUNS`), or None for the defaults."""
    if config is None:
        return None
    if isinstance(config, str):
        return root / config
    base, sections = config
    cfg = json.loads((root / base).read_text())
    for name, values in sections.items():
        cfg.setdefault(name, {}).update(values)
    path = tmp / f"{i}-config.json"
    path.write_text(json.dumps(cfg))
    return path


def table(root: Path, tmp: Path) -> tuple[list[tuple[str, str, str]], list[Path], bool]:
    """The rows (label, artifact, digest) of the checkout `root`, the path of
    each row's artifact under the work directory `tmp`, and whether a
    command failed or left an artifact missing. The artifacts of a failed
    command read `exit N`, and the end of its stderr goes to stderr."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    rows, paths = [], []
    failed = False
    for i, (label, command, config, artifacts) in enumerate(RUNS):
        out = tmp / f"{i}-{command}"
        cmd = [sys.executable, "-m", "nmshallow", command, "--out", str(out)]
        path = _config_path(root, config, tmp, i)
        if path is not None:
            cmd += ["--config", str(path)]
        proc = subprocess.run(cmd, cwd=tmp, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"{root}: {command} exited {proc.returncode}: "
                  f"{proc.stderr.strip()[-200:]}", file=sys.stderr)
        for name in artifacts:
            path = out / name
            if proc.returncode != 0:
                digest = f"exit {proc.returncode}"
            else:
                digest = _sha16(path) if path.is_file() else "missing"
            failed |= proc.returncode != 0 or digest == "missing"
            rows.append((label, f"`{name}`", f"`{digest}`"))
            paths.append(path)
    return rows, paths, failed


def _snapshots(blob: Path) -> np.ndarray:
    """The coefficients of a trajectory payload, one row per snapshot."""
    header = json.loads(blob.with_name(blob.name.replace(".bin", ".json")).read_text())
    return np.fromfile(blob, dtype="<c16").reshape(int(header["n_times"]), -1)


def max_relative_difference(this: Path, other: Path) -> float:
    """Largest per-snapshot l2 difference of two trajectory payloads,
    relative to the snapshot of `other`."""
    a, b = _snapshots(this), _snapshots(other)
    if a.shape != b.shape:
        return math.inf
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.linalg.norm(a - b, axis=1) / np.linalg.norm(b, axis=1)
    return float(np.max(np.nan_to_num(rel, nan=0.0)))


def _csv_cells(path: Path) -> list[list[str]]:
    """The rows of a CSV artifact after its `#` header lines, column names
    included."""
    with path.open(newline="") as fh:
        return list(csv.reader(line for line in fh if not line.startswith("#")))


def max_csv_relative_difference(this: Path, other: Path) -> float:
    """Largest relative difference |a - b| / |b| over the numeric cells of two
    CSV artifacts, b from `other`: 0 where both cells are equal (two NaNs
    included); inf where the two tables differ in shape, or where differing
    cells are not both finite numbers or b is zero."""
    a_rows, b_rows = _csv_cells(this), _csv_cells(other)
    if [len(r) for r in a_rows] != [len(r) for r in b_rows]:
        return math.inf
    worst = 0.0
    for a_row, b_row in zip(a_rows, b_rows):
        for a_cell, b_cell in zip(a_row, b_row):
            if a_cell == b_cell:
                continue
            try:
                a, b = float(a_cell), float(b_cell)
            except ValueError:
                return math.inf
            if a == b or (math.isnan(a) and math.isnan(b)):
                continue
            if b == 0.0 or not (math.isfinite(a) and math.isfinite(b)):
                return math.inf
            worst = max(worst, abs(a - b) / abs(b))
    return worst


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=ROOT,
                        help="checkout whose src/ and configs/ are used")
    parser.add_argument("--against", type=Path, default=None,
                        help="second checkout; print only the rows that differ")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory(prefix="nmshallow-hashes-") as tmp:
        (Path(tmp) / "this").mkdir()
        rows, paths, failed = table(args.root.resolve(), Path(tmp) / "this")
        if args.against is None:
            print("| command and config | artifact | sha256 |")
            print("|---|---|---|")
            for row in rows:
                print("| " + " | ".join(row) + " |")
            return 1 if failed else 0
        (Path(tmp) / "against").mkdir()
        other, other_paths, other_failed = table(args.against.resolve(), Path(tmp) / "against")
        # both tables come from this script's RUNS, so their rows line up
        total = len(rows)
        differ = [n for n in range(total) if rows[n] != other[n]]
        print("| checkout | command and config | artifact | sha256 |")
        print("|---|---|---|---|")
        for n in differ:
            for name, row in (("this", rows[n]), ("against", other[n])):
                print(f"| {name} | " + " | ".join(row) + " |")
        for n in differ:
            this, that = paths[n], other_paths[n]
            if not (this.is_file() and that.is_file()):
                continue
            if this.name.endswith(".nmtrj.bin"):
                rel = max_relative_difference(this, that)
                print(f"{rows[n][0]}, {rows[n][1]}: largest per-snapshot relative "
                      f"difference {rel:.3e}")
            elif this.suffix == ".csv":
                rel = max_csv_relative_difference(this, that)
                print(f"{rows[n][0]}, {rows[n][1]}: largest relative difference "
                      f"over the numeric cells {rel:.3e}")
        print(f"{len(differ)} of {total} rows differ"
              + ("; a command failed" if failed or other_failed else ""))
        return 1 if differ or failed or other_failed else 0


if __name__ == "__main__":
    sys.exit(main())
