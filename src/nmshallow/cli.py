"""Experiment runner: schedules, solver runs, traces, stability/scaling studies.

Every subcommand is driven by a JSON config (versioned schema, one table
`SCHEMA` declaring each key's default and domain, the defaults mirrored in
``configs/defaults.json``) and emits CSV/JSON artifacts into
the output directory.  CSV files carry leading ``#`` comment lines naming
units and the config hash so outputs are traceable to their inputs;
identical config + seed reproduce byte-identical CSVs.  Plotting is out of
scope: downstream scripts consume the CSVs.

Exit codes: 0 success, 1 validation-suite failure, 2 infeasible schedule,
3 solver divergence / step-size / elliptic-convergence failure, 4 domain
violation (depth floor, invalid problem domain), 5 I/O or config errors.
Every key of the merged config is checked against `SCHEMA` at load, before
any work and whatever the command reads: a value outside a schedule key's
domain exits 2, any other bad value or an unknown key exits 5.
Code 2 is also click's usage error (an invalid option value such as
`--threads 0`, an unknown option): stderr then starts with "Usage:".

Every config-driven command (`schedule`, `solve`, `convergence`,
`stability`, `scaling`) is a body `fn(cfg, out)` registered by `_command`,
which loads the config, creates the output directory and translates library
errors to exit codes, so a command has one place where its run starts and
ends. `validate` ignores the config and keeps its own exit mapping (3 when
a check's solver fails); its checks take their measurements from
`invariants`, as the acceptance criteria do, each with its own inputs and
bounds. Every command runs in one thread; `--threads` is still accepted
(and must be at least 1) but changes nothing.
"""
from __future__ import annotations

import copy
import csv
import functools
import hashlib
import json
import math
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import click
import numpy as np

from . import invariants
from .errors import (
    ConvergenceError,
    DivergenceError,
    DomainError,
    InfeasibleScheduleError,
    StepSizeError,
)
from .fourier_scale import (
    GridSpec,
    SpectralField,
    TrajectoryField,
    field_to_grid,
    interpolate_bound_check,
    random_field,
    save_trajectory,
    smooth,
    sobolev_norm,
    trajectory_norm,
    zero_field,
)
from .gn_problem import GNProblem
from .green_naghdi import (
    GNState,
    PhysicalParams,
    depth_check,
    depth_grid,
    invert_bigT,
    x_norm_packed,
)
from .linear_ivp import conjugate_trajectory, evolve_packed
from .nash_moser import (
    ScheduleParams,
    check_induction,
    compute_schedule,
    nash_moser_solve,
    p_min_threshold,
)
from .reference import manufactured_residual, mol_solve, serre_solitary_wave

SCHEMA_VERSION = 1


class _Key(NamedTuple):
    """One config key: its default, the test a value must pass, the words for
    the test, and the error refusing a value (a schedule key's exits 2)."""

    default: object
    ok: Callable[[object], bool]
    what: str
    error: type = ValueError


def _is_int(v) -> bool:
    """A JSON integer: not a bool, and not a float such as 7.0 or 7.9."""
    return isinstance(v, int) and not isinstance(v, bool)


def _real(default, lo=-math.inf, hi=math.inf, closed=False, error=ValueError) -> _Key:
    """A number in (lo, hi), or in (lo, hi] if `closed`: never NaN, and
    infinite only as an included hi."""
    def ok(v) -> bool:
        number = isinstance(v, (int, float)) and not isinstance(v, bool)
        return number and lo < v and (v <= hi if closed else v < hi)

    what = "a number" if hi == math.inf and closed else "a finite number"
    if hi < math.inf or closed:
        what += f" in ({lo:g}, {hi:g}{']' if closed else ')'}"
    elif lo > -math.inf:
        what += f" > {lo:g}"
    return _Key(default, ok, what, error)


def _reals(default, lo=-math.inf, hi=math.inf) -> _Key:
    """A list, empty or not, of numbers that `_real(lo, hi)` accepts."""
    item = _real(None, lo, hi)
    return _Key(default, lambda v: isinstance(v, list) and all(map(item.ok, v)),
                f"a list whose items are each {item.what}")


def _int(default, lo: int) -> _Key:
    return _Key(default, lambda v: _is_int(v) and v >= lo, f"an integer >= {lo}")


def _choice(default, *options) -> _Key:
    return _Key(default, lambda v: any(v == o and type(v) is type(o) for o in options),
                "one of " + ", ".join(map(repr, options)))


_EPS = _real(None, 0.0, 1.0, closed=True)
# Every config key with its default and domain (configs/defaults.json mirrors
# the defaults). A check spanning keys stays where both are known: a custom
# regime's physics.eps, data.mode against the grid's band (_single_mode_zeta),
# a run.T / run.dt that overflows or is fractional (_uniform_steps), P > P_min.
SCHEMA: dict = {
    "schema_version": _choice(SCHEMA_VERSION, SCHEMA_VERSION),
    "seed": _int(0, 0),
    "grid": {
        "dimension": _choice(1, 1, 2),
        "nodes": _Key(64, lambda v: _is_int(v) and v >= 8 and v % 2 == 0, "an even integer >= 8"),
        "length": _real(2.0 * math.pi, 0.0),
        "dealias_fraction": _real(2.0 / 3.0, 0.0, 1.0, closed=True),
    },
    "physics": {
        "mu": _real(0.1, 0.0, 1.0),
        # serre -> eps = sqrt(mu); green_naghdi -> eps = 1; custom -> physics.eps
        "regime": _choice("serre", "serre", "green_naghdi", "custom"),
        "eps": _Key(None, lambda v: v is None or _EPS.ok(v), "null or " + _EPS.what),
        "h0": _real(0.5, 0.0),
        "bathymetry": {"type": _choice("zero", "zero", "random"), "amplitude": _real(0.05),
                       "decay": _real(5.0), "seed": _int(101, 0)},
    },
    "data": {
        "type": _choice("single_mode", "zero", "single_mode", "random", "solitary"),
        "amplitude": _real(1e-5),
        "mode": _Key(1, lambda v: _is_int(v) or (  # a pair in 2D only
            isinstance(v, list) and len(v) == 2 and all(map(_is_int, v))
        ), "an integer or a pair of integers"),
        "decay": _real(4.0), "seed": _int(202, 0), "v_amplitude": _real(0.0),
    },
    "schedule": {
        "m": _real(2.0, error=InfeasibleScheduleError),
        "d1": _real(2.0, error=InfeasibleScheduleError),
        "d1p": _real(0.0, error=InfeasibleScheduleError),
        "D": _real(4.0, error=InfeasibleScheduleError),
        "P": _real(38.5, error=InfeasibleScheduleError),
        "margin": _real(0.5, 0.0, 1.0, error=InfeasibleScheduleError),
        "s0": _real(1.0, error=InfeasibleScheduleError),
        # theta0 = Infinity is the unsmoothed iteration
        "theta0": _real(10.0, 1.0, math.inf, closed=True, error=InfeasibleScheduleError),
    },
    "run": {
        "T": _real(1.0, 0.0), "dt": _real(0.005, 0.0),
        "solver": _choice("nash_moser", "nash_moser", "mol", "both"),
        "k_max": _int(25, 0),
        "target_residual": _real(1e-8, 0.0),
        "max_retries": _int(3, 0),
        "cg_tol": _real(1e-12, 0.0, 1.0),  # relative tolerance of every elliptic solve
    },
    "stability": {
        "iotas": _reals([1e-2, 1e-3, 1e-4]),
        "norm_index": _real(7.0),
        "perturbation": {"type": _choice("random", "zero", "random"), "amplitude": _real(0.05),
                         "decay": _real(4.0), "seed": _int(303, 0)},
    },
    "scaling": {
        "mus": _reals([0.2, 0.1, 0.05], 0.0, 1.0),
        "eps_rule": _choice("one", "one", "sqrt_mu"),  # one -> eps = 1; sqrt_mu -> sqrt(mu)
        "norm_index": _real(0.0),
        "forcing": {"amplitude": _real(0.1), "decay": _real(4.0), "seed": _int(404, 0)},
    },
}


def _defaults(table: dict) -> dict:
    return {k: _defaults(v) if isinstance(v, dict) else v.default for k, v in table.items()}


DEFAULTS: dict = _defaults(SCHEMA)


def _check(cfg: dict, table: dict = SCHEMA, prefix: str = "") -> None:
    """Refuse an unknown key, a section that is not an object, or a value
    outside its key's domain, naming the dotted key and the value."""
    for key, value in cfg.items():
        name, spec = prefix + key, table.get(key)
        if spec is None:
            raise ValueError(f"unknown config key {name} (value {value!r})")
        if not isinstance(spec, dict):
            if not spec.ok(value):
                raise spec.error(f"{name} must be {spec.what}, got {value!r}")
        elif not isinstance(value, dict):
            raise ValueError(f"{name} must be an object, got {value!r}")
        else:
            _check(value, spec, name + ".")


# ------------------------------------------------------------ config plumbing

#: `--seed N` adds SEED_STRIDE * N to the RNG seed of each of these sections
#: (N = 0 leaves them as they are).
SEED_STRIDE = 1000
_SEEDED_SECTIONS = (
    ("data",),
    ("physics", "bathymetry"),
    ("stability", "perturbation"),
    ("scaling", "forcing"),
)


def _deep_merge(base: dict, extra: dict) -> dict:
    out = copy.deepcopy(base)
    for key, val in extra.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], val)
        else:
            out[key] = copy.deepcopy(val)
    return out


def _load_config(path: str | None, seed: int | None) -> dict:
    user: dict = {}
    if path is not None:
        text = Path(path).read_text()
        user = json.loads(text)
        if not isinstance(user, dict):
            raise ValueError("config root must be a JSON object")
    cfg = _deep_merge(DEFAULTS, user)
    _check(cfg)
    if seed is not None:
        cfg["seed"] = seed
        if seed:
            for path in _SEEDED_SECTIONS:
                section = cfg
                for key in path:
                    section = section[key]
                section["seed"] += SEED_STRIDE * seed
    return cfg


def _config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _csv_header(cfg_hash: str, units: str) -> list[str]:
    return [
        f"schema_version: {SCHEMA_VERSION}",
        f"config_hash: {cfg_hash}",
        f"units: {units}",
    ]


def _write_csv(
    path: Path, header_lines: list[str], columns: list[str], rows: list[tuple]
) -> None:
    with path.open("w", newline="") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow(
                [format(v, ".17g") if isinstance(v, float) else v for v in row]
            )


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _grid_from_cfg(cfg: dict) -> GridSpec:
    g = cfg["grid"]
    return GridSpec(
        dimension=g["dimension"],
        nodes_per_axis=g["nodes"],
        domain_length=float(g["length"]),
        dealias_fraction=float(g["dealias_fraction"]),
    )


def _resolve_eps(phys: dict, mu: float) -> float:
    regime = phys["regime"]
    if regime == "serre":
        return math.sqrt(mu)
    if regime == "green_naghdi":
        return 1.0
    if phys["eps"] is None:  # regime custom
        raise ValueError("regime 'custom' requires an explicit physics.eps")
    return float(phys["eps"])


def _bathymetry(grid: GridSpec, spec: dict) -> SpectralField:
    if spec["type"] == "zero":
        return zero_field(grid)
    rng = np.random.default_rng(spec["seed"])
    return random_field(
        grid, 1, rng, amplitude=float(spec["amplitude"]), decay=float(spec["decay"])
    )


def _params_from_cfg(cfg: dict, mu: float | None = None, eps: float | None = None) -> PhysicalParams:
    phys = cfg["physics"]
    grid = _grid_from_cfg(cfg)
    mu_val = float(phys["mu"]) if mu is None else float(mu)
    eps_val = _resolve_eps(phys, mu_val) if eps is None else float(eps)
    return PhysicalParams(
        mu=mu_val,
        eps=eps_val,
        b=_bathymetry(grid, phys["bathymetry"]),
        h0=float(phys["h0"]),
    )


def _schedule_from_cfg(cfg: dict) -> ScheduleParams:
    """The iteration schedule the config's ``schedule`` section describes."""
    sc = cfg["schedule"]
    return compute_schedule(
        m=float(sc["m"]), d1=float(sc["d1"]), d1p=float(sc["d1p"]), D=float(sc["D"]),
        P=float(sc["P"]), margin=float(sc["margin"]), s0=float(sc["s0"]),
        theta0=float(sc["theta0"]),
    )


def _single_mode_zeta(grid: GridSpec, mode, amplitude: float) -> SpectralField:
    """Cosine of wavenumber index `mode`, a JSON integer (in 2D also a pair of
    them; k means (k, 0)); any other value, or a mode outside the retained
    band, raises ValueError."""
    zc = np.zeros((1, *grid.shape), dtype=np.complex128)
    pair = grid.dimension == 2 and isinstance(mode, list) and len(mode) == 2
    k = tuple(mode) if pair else (mode,) + (0,) * (grid.dimension - 1)
    if not all(isinstance(ki, int) and not isinstance(ki, bool) for ki in k):
        kinds = "an integer" if grid.dimension == 1 else "an integer or a pair of integers"
        raise ValueError(f"data.mode must be {kinds}, got {mode!r}")
    cut = grid.dealias_cutoff_index
    if not any(k) or max(abs(ki) for ki in k) > cut:
        axes = "" if grid.dimension == 1 else " on each axis, not all zero"
        raise ValueError(
            f"data.mode {mode!r} is outside the grid's retained band "
            f"1 <= |k| <= {cut}{axes} (dealias_cutoff_index)"
        )
    neg = tuple(-ki for ki in k)
    zc[(0, *k)] = amplitude / 2.0
    zc[(0, *neg)] = amplitude / 2.0
    return SpectralField(grid, grid.project(zc))


def _initial_state(params: PhysicalParams, spec: dict) -> GNState:
    grid = params.grid
    kind = spec["type"]
    if kind == "zero":
        return GNState(V=zero_field(grid, grid.dimension), zeta=zero_field(grid))
    if kind == "single_mode":
        zeta = _single_mode_zeta(grid, spec["mode"], float(spec["amplitude"]))
        v_amp = float(spec["v_amplitude"])
        if v_amp == 0.0:
            V = zero_field(grid, grid.dimension)
        else:
            V = SpectralField(
                grid,
                np.concatenate(
                    [
                        _single_mode_zeta(grid, spec["mode"], v_amp).coefficients
                        for _ in range(grid.dimension)
                    ]
                ),
            )
        return GNState(V=V, zeta=zeta)
    if kind == "random":
        rng = np.random.default_rng(spec["seed"])
        amp, decay = float(spec["amplitude"]), float(spec["decay"])
        V = random_field(grid, grid.dimension, rng, amplitude=amp, decay=decay)
        zeta = random_field(grid, 1, rng, amplitude=amp, decay=decay)
        return GNState(V=V, zeta=zeta)
    return serre_solitary_wave(params, float(spec["amplitude"]))  # type solitary


def _sup_diff_norm(
    params: PhysicalParams, a: TrajectoryField, b: TrajectoryField, s: float
) -> float:
    """sup over the snapshots of |a(t) - b(t)|_{X^s}, a chunk of snapshots
    per `x_norm_packed` call."""
    return trajectory_norm(a - b, s, snapshot_norm=functools.partial(x_norm_packed, params))


def _fail(code: int, message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _common_options(fn):
    fn = click.option(
        "--config", "config_path", type=click.Path(), default=None,
        help="JSON config file (merged over built-in defaults).",
    )(fn)
    fn = click.option(
        "--out", "out_dir", type=click.Path(file_okay=False), default="out",
        show_default=True, help="Output directory for artifacts.",
    )(fn)
    fn = click.option(
        "--seed", type=click.IntRange(min=0), default=None,
        help=f"Shift every RNG seed of the config by {SEED_STRIDE} * SEED.",
    )(fn)
    fn = click.option(
        "--threads", type=click.IntRange(min=1), default=1, show_default=True,
        help="Accepted and ignored: every command runs in one thread.",
    )(fn)
    return fn


@click.group()
def main() -> None:
    """Pseudospectral shallow-water solvers with an iterative-scheme engine."""


def _command(name: str):
    """Register `fn(cfg, out)` as the config-driven command `name`: load the
    config, create the output directory, run `fn`, and translate library
    errors to exit codes."""

    def register(fn):
        def command(config_path, out_dir, seed, threads) -> None:
            del threads  # accepted for compatibility; every command is serial
            try:
                cfg = _load_config(config_path, seed)
                out = Path(out_dir)
                out.mkdir(parents=True, exist_ok=True)
                fn(cfg, out)
            except InfeasibleScheduleError as exc:
                _fail(2, str(exc))
            except (DivergenceError, StepSizeError, ConvergenceError) as exc:
                _fail(3, str(exc))
            except DomainError as exc:
                _fail(4, str(exc))
            except (OSError, json.JSONDecodeError, ValueError, KeyError) as exc:
                _fail(5, f"config/I-O: {exc}")

        command.__doc__ = fn.__doc__
        main.command(name)(_common_options(command))
        return fn

    return register


# ------------------------------------------------------------------ schedule


@_command("schedule")
def cmd_schedule(cfg: dict, out: Path) -> None:
    """Compute iteration constants and report feasibility."""
    sc = cfg["schedule"]
    delta, q, p_min = p_min_threshold(
        float(sc["m"]), float(sc["d1"]), float(sc["d1p"]), float(sc["D"])
    )
    report: dict = {
        "config_hash": _config_hash(cfg),
        "delta": delta,
        "q": q,
        "p_min": p_min,
        "P": float(sc["P"]),
    }
    try:
        sched = _schedule_from_cfg(cfg)
    except InfeasibleScheduleError as exc:
        report["feasible"] = False
        report["reason"] = str(exc)
        _write_json(out / "schedule.json", report)
        raise
    report["feasible"] = True
    report.update(sched.to_dict())
    _write_json(out / "schedule.json", report)
    click.echo(
        f"feasible: delta={delta:g} q={q:g} alpha={sched.alpha:.12g} "
        f"P_min={p_min:.12g} r={sched.r:.12g}"
        + (" (degenerate delta=0 fallback)" if sched.degenerate_alpha else "")
    )


# --------------------------------------------------------------------- solve


def _run_nash_moser(cfg: dict, params: PhysicalParams, u0: GNState, out: Path):
    """Run the iterative scheme on the config's problem.

    Writes `trace.csv` and `induction.json` for a diverged run or one whose
    iterate left the admissible set (before its DivergenceError or
    DomainError propagates) as for a finished one. Returns the filtered
    solution, the trace and the induction report.
    """
    rc = cfg["run"]
    sched = _schedule_from_cfg(cfg)
    problem = GNProblem(params, u0, tol=rc["cg_tol"])

    def record(trace) -> dict:
        header = "\n".join(
            _csv_header(_config_hash(cfg), "all columns nondimensional; props are 0/1 booleans")
        )
        trace.to_csv(out / "trace.csv", header_comment=header)
        report = check_induction(trace, sched)
        _write_json(out / "induction.json", {
            "config_hash": _config_hash(cfg),
            "stop_reason": trace.stop_reason,
            "converged": trace.stop_reason == "converged",
            "report": report,
        })
        return report

    try:
        # looked up at call time, so that a caller may wrap the module global
        u_tilde, trace = nash_moser_solve(
            problem, sched, float(rc["T"]), float(rc["dt"]),
            k_max=rc["k_max"],
            target_residual=float(rc["target_residual"]),
            max_retries=rc["max_retries"],
        )
    except (DivergenceError, DomainError) as exc:
        if exc.trace is not None:
            record(exc.trace)
        raise
    return u_tilde, trace, record(trace)


@_command("solve")
def cmd_solve(cfg: dict, out: Path) -> None:
    """Solve one Cauchy problem (iterative scheme, direct MoL, or both)."""
    params = _params_from_cfg(cfg)
    u0 = _initial_state(params, cfg["data"])
    ok, hmin = depth_check(params, u0)
    if not ok:
        raise DomainError(
            f"initial data violates the depth floor: min depth {hmin:.6g} "
            f"<= h0 = {params.h0:g}"
        )
    rc = cfg["run"]
    solver = rc["solver"]
    report: dict = {"config_hash": _config_hash(cfg), "solver": solver}
    traj_nm = traj_mol = None
    if solver in ("nash_moser", "both"):
        u_tilde, trace, induction = _run_nash_moser(cfg, params, u0, out)
        traj_nm = conjugate_trajectory(params, u_tilde, +1)
        save_trajectory(traj_nm, out / "solution_nash_moser.nmtrj")
        report["nash_moser"] = {
            "iterations": len(trace.theta),
            "stop_reason": trace.stop_reason,
            "final_residual": trace.residual_F[-1],
            "theta0_used": trace.theta[0],
        }
        # a stop at k_max exits 0 like a converged run; this line tells them apart
        click.echo(
            f"nash-moser stop: {trace.stop_reason} after {len(trace.theta)} iterations, "
            f"final residual {trace.residual_F[-1]:.6e}"
        )
        click.echo(f"induction first failures: {induction['first_failure']}")
    if solver in ("mol", "both"):
        traj_mol = mol_solve(
            params, u0, float(rc["T"]), float(rc["dt"]), tol=rc["cg_tol"]
        )
        save_trajectory(traj_mol, out / "solution_mol.nmtrj")
        report["mol"] = {"steps": traj_mol.n_times - 1}
    if solver == "both":
        report["agreement_sup_x0"] = _sup_diff_norm(params, traj_nm, traj_mol, 0.0)
        click.echo(f"cross-solver sup-t X^0 difference: {report['agreement_sup_x0']:.6e}")
    _write_json(out / "solve_report.json", report)
    click.echo(f"artifacts written to {out}")


# --------------------------------------------------------------- convergence


@_command("convergence")
def cmd_convergence(cfg: dict, out: Path) -> None:
    """Run the iterative scheme and report the induction-property check."""
    params = _params_from_cfg(cfg)
    u0 = _initial_state(params, cfg["data"])
    _, trace, report = _run_nash_moser(cfg, params, u0, out)
    click.echo(
        f"stop: {trace.stop_reason} after {len(trace.theta)} iterations; "
        f"first failures: {report['first_failure']}"
    )


# ----------------------------------------------------------------- stability


@_command("stability")
def cmd_stability(cfg: dict, out: Path) -> None:
    """Error of an O(iota)-consistent approximate solution vs iota."""
    params = _params_from_cfg(cfg)
    u0 = _initial_state(params, cfg["data"])
    st = cfg["stability"]
    rc = cfg["run"]
    T, dt, tol = float(rc["T"]), float(rc["dt"]), rc["cg_tol"]
    s_err = float(st["norm_index"])
    grid = params.grid
    d = grid.dimension

    pert = st["perturbation"]
    if pert["type"] == "zero":
        w0 = np.zeros((d + 1, *grid.shape), dtype=np.complex128)
    else:
        rng = np.random.default_rng(pert["seed"])
        w0 = random_field(
            grid, d + 1, rng,
            amplitude=float(pert["amplitude"]), decay=float(pert["decay"]),
        ).coefficients
    iotas = [float(i) for i in st["iotas"]]

    # The reference and every perturbed member run as one batch: member
    # i starts from the reference's projected data plus iota_i * w0.
    u0_ref = u0.packed().coefficients
    starts = [u0_ref] + [grid.project(u0_ref) + iota * w0 for iota in iotas]
    batch = GNState.from_packed(SpectralField(grid, np.stack(starts, axis=1)))
    u_ref, *u_nums = mol_solve(params, batch, T, dt, tol=tol)
    base_res = manufactured_residual(params, u_ref, tol=tol)

    # Free-wave transport keeps the perturbation an exact solution of the
    # singular linear part, so the trajectory u_ref + iota*w is consistent
    # with the full system to O(iota).
    w_rows = np.broadcast_to(w0[:, None], (d + 1, u_ref.n_times, *grid.shape))
    w_snaps = evolve_packed(grid, params.eps, u_ref.times, w_rows).swapaxes(0, 1)

    rows = []
    for iota, u_num in zip(iotas, u_nums):
        snaps = u_ref.snapshots + iota * w_snaps
        u_app = TrajectoryField(grid, u_ref.times, snaps)
        r1, r2 = manufactured_residual(params, u_app, tol=tol)
        res_diff = np.concatenate(
            [r1.snapshots - base_res[0].snapshots, r2.snapshots - base_res[1].snapshots],
            axis=1,
        )
        res = trajectory_norm(TrajectoryField(grid, u_ref.times, res_diff), 0.0)
        err = _sup_diff_norm(params, u_num, u_app, s_err)
        rows.append((iota, res, err))
    fit = [(i, e) for i, _, e in rows if i > 0.0 and e > 0.0]
    slope = None
    if len(fit) >= 2:
        slope = float(np.polyfit(
            np.log10([i for i, _ in fit]), np.log10([e for _, e in fit]), 1
        )[0])
    hdr = _csv_header(
        _config_hash(cfg),
        f"iota dimensionless; residual_x0 in X^0; error in X^{s_err:g} "
        "(all nondimensional)",
    )
    _write_csv(out / "stability.csv", hdr, ["iota", "residual_x0", "error"], rows)
    _write_json(out / "stability.json", {
        "config_hash": _config_hash(cfg),
        "slope": slope,
        "points": len(fit),
    })
    click.echo(f"slope: {slope}" if slope is not None else "slope: undefined (no positive errors)")


# ------------------------------------------------------------------- scaling


@_command("scaling")
def cmd_scaling(cfg: dict, out: Path) -> None:
    """Error against the shallowness parameter for forced residual mu^2*R."""
    sl = cfg["scaling"]
    rc = cfg["run"]
    T, dt, tol = float(rc["T"]), float(rc["dt"]), rc["cg_tol"]
    s_err = float(sl["norm_index"])
    rule = sl["eps_rule"]
    grid = _grid_from_cfg(cfg)
    d = grid.dimension

    fspec = sl["forcing"]
    if float(fspec["amplitude"]) == 0.0:
        R = np.zeros((d + 1, *grid.shape), dtype=np.complex128)
    else:
        rng = np.random.default_rng(fspec["seed"])
        R = random_field(
            grid, d + 1, rng,
            amplitude=float(fspec["amplitude"]), decay=float(fspec["decay"]),
        ).coefficients

    rows = []
    for mu in (float(m) for m in sl["mus"]):
        eps = 1.0 if rule == "one" else math.sqrt(mu)
        params = _params_from_cfg(cfg, mu=mu, eps=eps)
        u0 = _initial_state(params, cfg["data"])
        u_ref = mol_solve(params, u0, T, dt, tol=tol)
        if np.any(R):
            # Momentum-row forcing is prescribed at the conservation-form
            # level: invert the elliptic mass operator at the initial
            # depth so the slow-time residual is mu^2 * R up to O(eps)
            # state drift.
            TinvR1 = invert_bigT(
                params, depth_grid(params, u0.zeta), SpectralField(grid, R[:d]), tol=tol
            )
            f_packed = (mu**2 / eps) * np.concatenate([TinvR1.coefficients, R[d:]])
            u_app = mol_solve(params, u0, T, dt, forcing=lambda t: f_packed, tol=tol)
        else:
            u_app = u_ref  # unforced: the same run
        rows.append((mu, eps, _sup_diff_norm(params, u_app, u_ref, s_err)))
    fit = [(m, e) for m, _, e in rows if e > 0.0]
    exponent = None
    if len(fit) >= 2:
        exponent = float(np.polyfit(
            np.log10([m for m, _ in fit]), np.log10([e for _, e in fit]), 1
        )[0])
    hdr = _csv_header(
        _config_hash(cfg),
        f"mu, eps dimensionless; error in X^{s_err:g} (nondimensional)",
    )
    _write_csv(out / "scaling.csv", hdr, ["mu", "eps", "error"], rows)
    _write_json(out / "scaling.json", {
        "config_hash": _config_hash(cfg),
        "exponent": exponent,
        "eps_rule": rule,
        "points": len(fit),
    })
    click.echo(f"exponent: {exponent}" if exponent is not None else "exponent: undefined")


# ------------------------------------------------------------------ validate


def _validation_checks() -> list[tuple[str, bool, str]]:
    """Programmatic invariant suite; returns (name, passed, detail) rows."""
    results: list[tuple[str, bool, str]] = []

    def record(name: str, passed: bool, detail: str) -> None:
        results.append((name, bool(passed), detail))

    rng = np.random.default_rng(12345)

    # 1. schedule arithmetic (exact values + infeasibility).
    delta, q, p_min = p_min_threshold(2, 2, 0, 4)
    ok = delta == 2.0 and q == 2.0 and p_min == 38.0
    sched = compute_schedule(m=2, d1=2, d1p=0, D=4, P=38.5, margin=0.5)
    ok = ok and abs(sched.alpha - 6.0) < 1e-12 and 4.0 / 3.0 < sched.r < 1.3402061855670103
    try:
        compute_schedule(m=2, d1=2, d1p=0, D=4, P=30.0)
        ok = False
    except InfeasibleScheduleError:
        pass
    record("schedule_arithmetic", ok, f"delta={delta:g} q={q:g} P_min={p_min:g} r={sched.r:.12g}")

    # 2. smoothing laws with constant 1 + projection idempotence.
    g = GridSpec(dimension=1, nodes_per_axis=64, domain_length=2 * math.pi)
    worst = -math.inf
    ok = True
    for _ in range(200):
        f = random_field(g, 1, rng, amplitude=1.0, decay=1.5)
        s = float(rng.uniform(-2, 4))
        sp = s + float(rng.uniform(0.1, 4))
        theta = float(rng.uniform(1.0, 30.0))
        (lhs1, rhs1), (lhs2, rhs2) = invariants.smoothing_bound_check(f, s, sp, theta)
        viol = max(lhs1 - rhs1, lhs2 - rhs2)
        worst = max(worst, viol)
        low = smooth(f, theta)
        ok = (ok and viol <= 1e-12 * max(rhs1, rhs2, 1.0)
              and np.array_equal(smooth(low, theta).coefficients, low.coefficients))
    record("smoothing_laws", ok, f"200 trials, worst violation {worst:.2e}")

    # 3. interpolation inequality with constant 1.
    ok = True
    worst = -math.inf
    for _ in range(200):
        f = random_field(g, 1, rng, amplitude=1.0, decay=1.0)
        s1 = float(rng.uniform(-1, 2))
        s2 = s1 + float(rng.uniform(0, 3))
        lam = float(rng.uniform(0, 1))
        lhs, rhs = interpolate_bound_check(f, s1, s2, lam)
        worst = max(worst, lhs - rhs)
        ok = ok and lhs <= rhs * (1 + 1e-12)
    record("interpolation", ok, f"200 trials, worst lhs-rhs {worst:.2e}")

    # 4. Parseval: spectral H^0 equals grid quadrature L^2.
    ok = True
    for _ in range(50):
        f = random_field(g, 1, rng, amplitude=float(rng.uniform(0.1, 3)), decay=1.0)
        vals = field_to_grid(f)
        quad = math.sqrt(np.sum(vals**2) * g.cell_volume)
        ok = ok and abs(quad - sobolev_norm(f, 0.0)) <= 1e-12 * max(quad, 1e-30)
    record("parseval", ok, "50 trials at 1e-12 relative")

    # 5/6. elliptic operator: energy identity (coercivity) + inverse bound.
    _, worst_gap, worst_ratio = invariants.elliptic_bounds(g, rng, 50, 50)
    record("energy_identity", worst_gap >= -1e-10,
           f"50 trials, worst relative gap {worst_gap:.2e}")
    record("elliptic_inverse_bound", worst_ratio <= 1 + 1e-8,
           "|T^-1 V|_0 <= (1+1e-8)/h0 |V|_0")

    # 7. free evolution group: identity, group law, isometry.
    worst = 0.0
    for _ in range(50):
        u = random_field(g, 2, rng, amplitude=1.0, decay=2.0).coefficients
        t1 = float(rng.uniform(-3, 3))
        t2 = float(rng.uniform(-3, 3))
        s = float(rng.uniform(0, 3))
        worst = max(worst, invariants.group_deviation(g, 0.4, u, t1, t2, s))
    record("evolution_group", worst <= 1e-12, f"50 triples, worst deviation {worst:.2e}")

    # 8. mass conservation + MoL self-convergence order.
    g2 = GridSpec(dimension=1, nodes_per_axis=32, domain_length=2 * math.pi)
    p2 = PhysicalParams(
        mu=0.3, eps=0.5,
        b=random_field(g2, 1, np.random.default_rng(3), amplitude=0.05, decay=5.0),
    )
    u0 = GNState(
        V=random_field(g2, 1, np.random.default_rng(11), amplitude=0.1, decay=4.0),
        zeta=random_field(g2, 1, np.random.default_rng(12), amplitude=0.1, decay=4.0),
    )
    sol = mol_solve(p2, u0, T=0.4, dt=0.02)
    drift = invariants.mass_drift(sol)
    record("mass_conservation", drift <= 1e-11, f"mean-elevation drift {drift:.2e}")

    r1, r2 = invariants.halving_ratios(
        lambda dt: mol_solve(p2, u0, T=0.4, dt=dt), (0.02, 0.01, 0.005), 0.00125, (1.0,)
    )
    record("mol_order", 12.0 <= r1 <= 20.0 and 12.0 <= r2 <= 20.0,
           f"dt-halving ratios {r1:.1f}, {r2:.1f}")

    # 9. solitary-wave residual at N=512.
    g3 = GridSpec(dimension=1, nodes_per_axis=512, domain_length=40.0)
    p3 = PhysicalParams(mu=0.1, eps=math.sqrt(0.1), b=zero_field(g3))
    res = invariants.solitary_residual(p3, 0.2, np.linspace(0.0, 0.15, 4))
    record("solitary_residual", res <= 1e-8, f"X^0 residual {res:.2e} at N=512")

    # 10. benchmark iteration: induction properties + convergence + oracle match.
    run = invariants.flagship_run(128, 5e-3)
    trace = run.trace
    ff = check_induction(trace, run.schedule)["first_failure"]
    okc = (trace.stop_reason == "converged"
           and all(ff[k] is None for k in ("prop_i", "prop_ii", "prop_iii")))
    record("benchmark_iteration", okc,
           f"{len(trace.theta)} iterations, residual {trace.residual_F[-1]:.2e}, "
           f"first failures {ff}")

    gap = _sup_diff_norm(run.params, run.u_nm, run.direct, 0.0)
    record("cross_solver", gap <= 1e-6, f"sup-t X^0 gap {gap:.2e}")

    # 11. determinism: identical run -> bit-identical trajectory.
    rerun = mol_solve(p2, u0, T=0.4, dt=0.02)
    record("determinism", np.array_equal(rerun.snapshots, sol.snapshots),
           "repeated MoL run bit-identical")

    return results


@main.command("validate")
@_common_options
def cmd_validate(config_path, out_dir, seed, threads) -> None:
    """Run the programmatic invariant suite and print PASS/FAIL lines."""
    del config_path, seed, threads  # the suite is self-contained
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        results = _validation_checks()
    except (DomainError, StepSizeError, ConvergenceError, DivergenceError) as exc:
        _fail(3, f"validation aborted: {exc}")
        return
    failures = 0
    for name, passed, detail in results:
        click.echo(f"{'PASS' if passed else 'FAIL'} {name} ({detail})")
        failures += 0 if passed else 1
    _write_json(out / "validate.json", {
        "results": [
            {"name": n, "passed": p, "detail": d} for n, p, d in results
        ],
        "failures": failures,
    })
    if failures:
        _fail(1, f"{failures} validation check(s) failed")
    click.echo(f"all {len(results)} checks passed")


if __name__ == "__main__":
    main()
