"""The four benchmark workloads: inputs from a seed, one execution, its gate.

Each workload is a closed loop with one client: `execute` runs one complete
operation, and the harness starts the next only after it returns. `gate`
then checks the operation's outputs against the acceptance bounds of
`tests/test_acceptance.py`; an execution whose gate reports a failure is
counted as failed and left out of the timings.

Seeding. The harness takes the workload seed as an argument and writes the
derived RNG seeds (data, perturbation, bathymetry) into the inputs it builds.
Seed 0 reproduces the shipped configs (data 202, perturbation 303,
bathymetry 101). The CLI's own ``--seed`` flag is deliberately not used: it
only sets the config's top-level ``seed`` key, which no code reads, so it
changes the config hash and nothing else. ``flagship`` and ``transit`` have
closed-form inputs, so the seed does not affect them.

Why these four (the layers carry very different loads on each):

* ``flagship`` -- the only workload that runs every Nash-Moser phase; its
  per-snapshot Python loops and small, call-overhead-bound FFTs are where a
  batch axis through the operators must show.
* ``transit`` -- strictly sequential RK4 stages at N=512 with no Nash-Moser
  code; per-call cost, CG warm starts and step count show here, and
  batching must leave it unchanged.
* ``sweep`` -- independent ensemble members plus manufactured residuals and
  CSV/JSON artifacts; the ensemble-batching lever and the CLI layer.
* ``bathy2d`` -- the only run of the b != 0 operator branches, with
  compute-bound 2D FFTs and ~50 CG iterations per elliptic solve.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from nmshallow import cli, reference
from nmshallow.errors import NmShallowError
from nmshallow.fourier_scale import (
    GridSpec,
    SpectralField,
    TrajectoryField,
    load_trajectory,
    random_field,
    sobolev_norm,
    zero_field,
)
from nmshallow.green_naghdi import GNState, PhysicalParams, depth_grid, x_norm_packed
from nmshallow.nash_moser import check_induction
from nmshallow.reference import serre_solitary_wave

# Shipped RNG seeds; workload seed n shifts each by SEED_STRIDE * n.
BASE_SEEDS = {"data": 202, "perturbation": 303, "bathymetry": 101}
SEED_STRIDE = 1000

# Acceptance bounds (tests/test_acceptance.py criteria 7-10).
NM_RESIDUAL_MAX = 1e-8
CROSS_SOLVER_GAP_MAX = 1e-6
TRANSIT_ERROR_MAX = 1e-4
MASS_DRIFT_MAX = 1e-11
SLOPE_TOLERANCE = 0.1


def derived_seeds(seed: int) -> dict[str, int]:
    return {key: base + SEED_STRIDE * seed for key, base in BASE_SEEDS.items()}


@dataclass
class Inputs:
    """Everything one execution needs, built once per run by `setup`."""

    workdir: Path
    params: PhysicalParams | None = None
    config_path: Path | None = None
    state: GNState | None = None
    T: float = 0.0
    dt: float = 0.0
    expected: GNState | None = None


@dataclass
class Workload:
    name: str
    setup: Callable[[Path, int, Path, str], Inputs]
    execute: Callable[[Inputs], Any]
    gate: Callable[[Inputs, Any], tuple[list[str], dict]]


def invoke_cli(args: list[str]) -> int:
    """Run one ``nmshallow`` command in-process, its report lines silenced."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main.main(args=args, prog_name="nmshallow", standalone_mode=False)
    except SystemExit as exc:
        return int(exc.code or 0)
    return 0


@contextlib.contextmanager
def capture_nash_moser(into: dict):
    """Keep the schedule and trace of the CLI's Nash-Moser solve for the gate."""
    inner = cli.nash_moser_solve

    def recording(problem, schedule, *args, **kwargs):
        u, trace = inner(problem, schedule, *args, **kwargs)
        into["schedule"], into["trace"] = schedule, trace
        return u, trace

    cli.nash_moser_solve = recording
    try:
        yield into
    finally:
        cli.nash_moser_solve = inner


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _merge(base: dict, extra: dict) -> dict:
    out = dict(base)
    for key, val in extra.items():
        out[key] = _merge(out.get(key, {}), val) if isinstance(val, dict) else val
    return out


def _write_config(root: Path, shipped: str, workdir: Path, overrides: dict) -> Path:
    cfg = _merge(json.loads((root / "configs" / shipped).read_text()), overrides)
    path = workdir / shipped
    path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
    return path


def _mass_drift(solution: TrajectoryField) -> float:
    d = solution.grid.dimension
    mean = solution.snapshots[:, d].reshape(solution.n_times, -1)[:, 0]
    return float(np.max(np.abs(mean - mean[0])))


# ------------------------------------------------------------------ flagship

FLAGSHIP_SIZES = {"full": {}, "toy": {"grid": {"nodes": 32}, "run": {"T": 0.1}}}


def flagship_setup(root: Path, seed: int, workdir: Path, size: str) -> Inputs:
    config = _write_config(root, "benchmark.json", workdir, FLAGSHIP_SIZES[size])
    cfg = json.loads(config.read_text())
    g = cfg["grid"]
    grid = GridSpec(g["dimension"], g["nodes"], g["length"], g["dealias_fraction"])
    mu = cfg["physics"]["mu"]
    params = PhysicalParams(mu=mu, eps=math.sqrt(mu), b=zero_field(grid), h0=cfg["physics"]["h0"])
    return Inputs(workdir=workdir, params=params, config_path=config)


def flagship_execute(inp: Inputs) -> dict:
    out = inp.workdir / "flagship_out"
    captured: dict = {}
    with capture_nash_moser(captured):
        code = invoke_cli(
            ["solve", "--config", str(inp.config_path), "--out", str(out), "--threads", "1"]
        )
    return {"exit_code": code, "out": out, **captured}


def flagship_gate(inp: Inputs, outcome: dict) -> tuple[list[str], dict]:
    if outcome["exit_code"] != 0:
        return [f"exit code {outcome['exit_code']}"], {}
    out, trace, sched = outcome["out"], outcome["trace"], outcome["schedule"]
    failures = []
    if trace.stop_reason != "converged":
        failures.append(f"stop reason {trace.stop_reason!r}")
    if not trace.residual_F[-1] <= NM_RESIDUAL_MAX:
        failures.append(f"residual {trace.residual_F[-1]:.3e} > {NM_RESIDUAL_MAX:g}")
    induction = check_induction(trace, sched)
    for prop, first in induction["first_failure"].items():
        if first is not None:
            failures.append(f"induction {prop} fails at k={first}")
    nm = load_trajectory(out / "solution_nash_moser.nmtrj")
    mol = load_trajectory(out / "solution_mol.nmtrj")
    gap = max(
        x_norm_packed(inp.params, SpectralField(nm.grid, a - b), 0.0)
        for a, b in zip(nm.snapshots, mol.snapshots)
    )
    if not gap <= CROSS_SOLVER_GAP_MAX:
        failures.append(f"cross-solver sup X^0 gap {gap:.3e} > {CROSS_SOLVER_GAP_MAX:g}")
    return failures, {"trace_csv_sha256": _sha256(out / "trace.csv")}


# ------------------------------------------------------------------- transit

# Criterion 9's solitary wave; internal step period/2048 as in the test, and a
# horizon of an eighth of the transit so one execution takes a few seconds.
TRANSIT_SIZES = {"full": {"nodes": 512, "steps": 256}, "toy": {"nodes": 256, "steps": 16}}
TRANSIT_LENGTH = 40.0
TRANSIT_AMPLITUDE = 0.2


def transit_setup(root: Path, seed: int, workdir: Path, size: str) -> Inputs:
    spec = TRANSIT_SIZES[size]
    grid = GridSpec(dimension=1, nodes_per_axis=spec["nodes"], domain_length=TRANSIT_LENGTH)
    params = PhysicalParams(mu=0.1, eps=math.sqrt(0.1), b=zero_field(grid))
    speed = math.sqrt(1.0 + params.eps * TRANSIT_AMPLITUDE) / params.eps
    dt = TRANSIT_LENGTH / speed / 2048
    T = spec["steps"] * dt
    return Inputs(
        workdir=workdir,
        params=params,
        state=serre_solitary_wave(params, TRANSIT_AMPLITUDE),
        T=T,
        dt=dt,
        expected=serre_solitary_wave(params, TRANSIT_AMPLITUDE, t=T),
    )


def mol_execute(inp: Inputs) -> dict:
    # Called through the module so that the traced run's span sees the call.
    return {"solution": reference.mol_solve(inp.params, inp.state, T=inp.T, dt=inp.dt)}


def transit_gate(inp: Inputs, outcome: dict) -> tuple[list[str], dict]:
    sol = outcome["solution"]
    failures = []
    err = sobolev_norm(
        SpectralField(sol.grid, sol.snapshots[-1] - inp.expected.packed().coefficients), 0.0
    )
    if not err <= TRANSIT_ERROR_MAX:
        failures.append(f"X^0 error against the closed form {err:.3e} > {TRANSIT_ERROR_MAX:g}")
    drift = _mass_drift(sol)
    if not drift <= MASS_DRIFT_MAX:
        failures.append(f"mass drift {drift:.3e} > {MASS_DRIFT_MAX:g}")
    return failures, {}


# --------------------------------------------------------------------- sweep

SWEEP_SIZES = {"full": {}, "toy": {"grid": {"nodes": 32}, "run": {"T": 0.1}}}


def sweep_setup(root: Path, seed: int, workdir: Path, size: str) -> Inputs:
    seeds = derived_seeds(seed)
    overrides = _merge(
        SWEEP_SIZES[size],
        {
            "data": {"seed": seeds["data"]},
            "stability": {"perturbation": {"seed": seeds["perturbation"]}},
        },
    )
    return Inputs(workdir=workdir, config_path=_write_config(root, "stability.json", workdir, overrides))


def sweep_execute(inp: Inputs) -> dict:
    out = inp.workdir / "sweep_out"
    code = invoke_cli(
        ["stability", "--config", str(inp.config_path), "--out", str(out), "--threads", "1"]
    )
    return {"exit_code": code, "out": out}


def sweep_gate(inp: Inputs, outcome: dict) -> tuple[list[str], dict]:
    if outcome["exit_code"] != 0:
        return [f"exit code {outcome['exit_code']}"], {}
    path = outcome["out"] / "stability.csv"
    with path.open() as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    fit = [(float(r["iota"]), float(r["error"])) for r in rows]
    fit = [(i, e) for i, e in fit if i > 0.0 and e > 0.0]
    if len(fit) < 2:
        return [f"only {len(fit)} positive points in {path.name}"], {}
    slope = float(np.polyfit(np.log10([i for i, _ in fit]), np.log10([e for _, e in fit]), 1)[0])
    failures = []
    if not abs(slope - 1.0) <= SLOPE_TOLERANCE:
        failures.append(f"stability slope {slope:.6f} not within {SLOPE_TOLERANCE:g} of 1")
    return failures, {"stability_csv_sha256": _sha256(path)}


# ------------------------------------------------------------------- bathy2d

BATHY2D_SIZES = {"full": {"nodes": 64, "steps": 10}, "toy": {"nodes": 16, "steps": 2}}
BATHY2D_DT = 0.005


def bathy2d_setup(root: Path, seed: int, workdir: Path, size: str) -> Inputs:
    spec = BATHY2D_SIZES[size]
    seeds = derived_seeds(seed)
    grid = GridSpec(dimension=2, nodes_per_axis=spec["nodes"], domain_length=2.0 * math.pi)
    bathy = random_field(
        grid, 1, np.random.default_rng(seeds["bathymetry"]), amplitude=0.05, decay=5.0
    )
    params = PhysicalParams(mu=0.1, eps=math.sqrt(0.1), b=bathy)
    rng = np.random.default_rng(seeds["data"])
    state = GNState(
        V=random_field(grid, 2, rng, amplitude=0.05, decay=4.0),
        zeta=random_field(grid, 1, rng, amplitude=0.05, decay=4.0),
    )
    return Inputs(
        workdir=workdir, params=params, state=state, T=spec["steps"] * BATHY2D_DT, dt=BATHY2D_DT
    )


def bathy2d_gate(inp: Inputs, outcome: dict) -> tuple[list[str], dict]:
    sol = outcome["solution"]
    d = sol.grid.dimension
    failures = []
    drift = _mass_drift(sol)
    if not drift <= MASS_DRIFT_MAX:
        failures.append(f"mass drift {drift:.3e} > {MASS_DRIFT_MAX:g}")
    try:
        SpectralField(sol.grid, sol.snapshots[-1]).validate()
    except ValueError as exc:
        failures.append(f"final snapshot: {exc}")
    hmin = min(float(np.min(depth_grid(inp.params, snap[d]))) for snap in sol.snapshots)
    if not hmin > inp.params.h0:
        failures.append(f"min depth {hmin:.6g} <= h0 = {inp.params.h0:g}")
    return failures, {}


WORKLOADS = {
    w.name: w
    for w in (
        Workload("flagship", flagship_setup, flagship_execute, flagship_gate),
        Workload("transit", transit_setup, mol_execute, transit_gate),
        Workload("sweep", sweep_setup, sweep_execute, sweep_gate),
        Workload("bathy2d", bathy2d_setup, mol_execute, bathy2d_gate),
    )
}


def run_once(
    workload: Workload, inp: Inputs, during=contextlib.nullcontext
) -> tuple[float, list[str], dict]:
    """One gated execution: (seconds, gate failures, information only).

    `during()` is entered around the execution only, never around the gate.
    """
    with during():
        t0 = time.perf_counter()
        try:
            outcome = workload.execute(inp)
        except NmShallowError as exc:
            return time.perf_counter() - t0, [f"{type(exc).__name__}: {exc}"], {}
        elapsed = time.perf_counter() - t0
    failures, info = workload.gate(inp, outcome)
    return elapsed, failures, info
