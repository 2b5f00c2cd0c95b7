"""Command-line interface: artifacts, exit codes, determinism."""
import json
import math
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from nmshallow import cli, invariants, nash_moser
from nmshallow.cli import main
from nmshallow.errors import ConvergenceError, DivergenceError
from nmshallow.fourier_scale import load_trajectory
from nmshallow.gn_problem import GNProblem
from nmshallow.nash_moser import IterationTrace

TINY_MOL = {
    "grid": {"nodes": 32},
    "physics": {"mu": 0.3, "regime": "custom", "eps": 0.5},
    "data": {"type": "random", "amplitude": 0.05, "decay": 4.0, "seed": 7},
    "run": {"T": 0.2, "dt": 0.02, "solver": "mol"},
}


# a 32-node Nash-Moser run that converges in a few iterations
TINY_NM = {
    "grid": {"nodes": 32, "dealias_fraction": 0.125},
    "data": {"amplitude": 1e-5},
    "run": {"dt": 0.01, "k_max": 6},
}


@pytest.fixture
def runner():
    return CliRunner()


def _write_cfg(tmp_path, payload, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def test_defaults_file_mirrors_builtins():
    shipped = json.loads(Path("configs/defaults.json").read_text())
    assert shipped == cli.DEFAULTS


def test_schedule_default_config(runner, tmp_path):
    out = tmp_path / "o"
    res = runner.invoke(main, ["schedule", "--out", str(out)])
    assert res.exit_code == 0, res.output
    rep = json.loads((out / "schedule.json").read_text())
    assert rep["feasible"] is True
    assert rep["p_min"] == 38.0
    assert rep["delta"] == 2.0 and rep["q"] == 2.0 and rep["alpha"] == 6.0
    assert abs(rep["r"] - 389 / 291) < 1e-15


def test_schedule_infeasible_exits_2_with_report(runner, tmp_path):
    cfg = _write_cfg(tmp_path, {"schedule": {"P": 38.0}})
    out = tmp_path / "o"
    res = runner.invoke(main, ["schedule", "--config", cfg, "--out", str(out)])
    assert res.exit_code == 2
    rep = json.loads((out / "schedule.json").read_text())
    assert rep["feasible"] is False
    assert "reason" in rep


def test_bad_schema_version_exits_5(runner, tmp_path):
    cfg = _write_cfg(tmp_path, {"schema_version": 99})
    res = runner.invoke(main, ["schedule", "--config", cfg, "--out", str(tmp_path / "o")])
    assert res.exit_code == 5


def test_malformed_json_exits_5(runner, tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    res = runner.invoke(main, ["schedule", "--config", str(p), "--out", str(tmp_path / "o")])
    assert res.exit_code == 5


def test_unknown_solver_exits_5(runner, tmp_path):
    cfg = _write_cfg(tmp_path, {"run": {"solver": "spectral_magic"}})
    res = runner.invoke(main, ["solve", "--config", cfg, "--out", str(tmp_path / "o")])
    assert res.exit_code == 5


GRID_2D_16 = {"dimension": 2, "nodes": 16, "dealias_fraction": 0.5}


@pytest.mark.parametrize(
    "grid,mode",
    [
        ({}, 5),  # beyond the cutoff: was projected away, an all-zero run
        ({}, 200),  # off the grid: was an IndexError traceback
        ({}, 0),  # the mean: was set to amplitude/2
        (GRID_2D_16, [0, 0]),
        (GRID_2D_16, [1, 5]),
        (GRID_2D_16, -5),
    ],
    ids=["1d-5", "1d-200", "1d-0", "2d-0-0", "2d-1-5", "2d--5"],
)
def test_single_mode_outside_the_retained_band_exits_5(runner, tmp_path, grid, mode):
    # configs/benchmark.json retains 1 <= |k| <= 4 (per axis on the 2D grid)
    cfg = json.loads(Path("configs/benchmark.json").read_text())
    cfg["grid"].update(grid)
    cfg["data"]["mode"] = mode
    cfg["run"].update({"solver": "mol", "T": 0.01})
    path = _write_cfg(tmp_path, cfg)
    res = runner.invoke(main, ["solve", "--config", path, "--out", str(tmp_path / "o")])
    assert res.exit_code == 5, res.output
    assert "1 <= |k| <= 4" in res.output
    assert not (tmp_path / "o" / "solution_mol.nmtrj.bin").exists()


@pytest.mark.parametrize(
    "grid,mode",
    [
        ({}, [1]),
        ({}, 1.7),
        ({}, 1.0),
        ({}, True),
        ({}, "1"),
        (GRID_2D_16, [1.0, 2]),
        (GRID_2D_16, [True, 1]),
        (GRID_2D_16, [1, 2, 3]),
        (GRID_2D_16, 1.5),
        (GRID_2D_16, False),
    ],
    ids=["1d-list", "1d-1.7", "1d-1.0", "1d-true", "1d-str", "2d-float-pair", "2d-bool-pair",
         "2d-triple", "2d-1.5", "2d-false"],
)
def test_single_mode_that_is_not_an_integer_exits_5(runner, tmp_path, grid, mode):
    cfg = json.loads(Path("configs/benchmark.json").read_text())
    cfg["grid"].update(grid)
    cfg["data"]["mode"] = mode
    cfg["run"].update({"solver": "mol", "T": 0.01})
    path = _write_cfg(tmp_path, cfg)
    res = runner.invoke(main, ["solve", "--config", path, "--out", str(tmp_path / "o")])
    assert res.exit_code == 5, res.output
    assert "data.mode must be an integer" in res.output
    assert not (tmp_path / "o" / "solution_mol.nmtrj.bin").exists()


def test_single_mode_at_the_band_edge_runs(runner, tmp_path):
    cfg = json.loads(Path("configs/benchmark.json").read_text())
    cfg["data"]["mode"] = -4
    cfg["run"].update({"solver": "mol", "T": 0.01})
    path = _write_cfg(tmp_path, cfg)
    res = runner.invoke(main, ["solve", "--config", path, "--out", str(tmp_path / "o")])
    assert res.exit_code == 0, res.output
    traj = load_trajectory(tmp_path / "o" / "solution_mol.nmtrj.json")
    assert np.any(traj.snapshots[0, 1, [4, -4]]) and traj.snapshots[0, 1, 0] == 0


def test_depth_violation_exits_4(runner, tmp_path):
    cfg = _write_cfg(
        tmp_path,
        {"data": {"type": "random", "amplitude": 5.0, "decay": 2.0, "seed": 1}},
    )
    res = runner.invoke(main, ["solve", "--config", cfg, "--out", str(tmp_path / "o")])
    assert res.exit_code == 4
    assert "depth" in res.output


def test_solve_mol_artifacts_and_determinism(runner, tmp_path):
    cfg = _write_cfg(tmp_path, TINY_MOL)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        res = runner.invoke(main, ["solve", "--config", cfg, "--out", str(out)])
        assert res.exit_code == 0, res.output
    rep = json.loads((out1 / "solve_report.json").read_text())
    assert rep["solver"] == "mol" and rep["mol"]["steps"] == 10
    assert (out1 / "solution_mol.nmtrj.json").exists()
    for name in ("solve_report.json", "solution_mol.nmtrj.bin"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_seed_override_changes_config_hash(runner, tmp_path):
    cfg = _write_cfg(tmp_path, TINY_MOL)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    r1 = runner.invoke(main, ["solve", "--config", cfg, "--out", str(out1)])
    r2 = runner.invoke(main, ["solve", "--config", cfg, "--out", str(out2), "--seed", "9"])
    assert r1.exit_code == 0 and r2.exit_code == 0
    h1 = json.loads((out1 / "solve_report.json").read_text())["config_hash"]
    h2 = json.loads((out2 / "solve_report.json").read_text())["config_hash"]
    assert h1 != h2


def test_seed_shifts_every_rng_seed(runner, tmp_path):
    cfg = cli._load_config(None, 2)
    assert cfg["seed"] == 2
    assert cfg["data"]["seed"] == 202 + 2 * cli.SEED_STRIDE
    assert cfg["physics"]["bathymetry"]["seed"] == 101 + 2 * cli.SEED_STRIDE
    assert cfg["stability"]["perturbation"]["seed"] == 303 + 2 * cli.SEED_STRIDE
    assert cfg["scaling"]["forcing"]["seed"] == 404 + 2 * cli.SEED_STRIDE
    assert cli._load_config(None, 0) == cli._load_config(None, None)

    path = _write_cfg(
        tmp_path,
        {
            "grid": {"nodes": 32},
            "physics": {"mu": 0.3},
            "data": {"type": "random", "amplitude": 0.05, "decay": 4.0, "seed": 7},
            "run": {"T": 0.1, "dt": 0.02},
            "stability": {"iotas": [1e-2, 1e-3]},
        },
    )
    rows = {}
    for name, extra in (("none", []), ("zero", ["--seed", "0"]), ("one", ["--seed", "1"])):
        out = tmp_path / name
        res = runner.invoke(main, ["stability", "--config", path, "--out", str(out), *extra])
        assert res.exit_code == 0, res.output
        rows[name] = (out / "stability.csv").read_bytes()
    assert rows["zero"] == rows["none"]
    data = {k: [ln for ln in v.splitlines() if not ln.startswith(b"#")] for k, v in rows.items()}
    assert data["one"][0] == data["none"][0]  # same columns, other numbers
    assert data["one"][1:] != data["none"][1:]


def test_convergence_trace_and_induction(runner, tmp_path):
    cfg = _write_cfg(
        tmp_path,
        {
            "grid": {"nodes": 32, "dealias_fraction": 0.125},
            "data": {"amplitude": 1e-5},
            "run": {"dt": 0.01, "k_max": 6},
        },
    )
    out = tmp_path / "o"
    res = runner.invoke(main, ["convergence", "--config", cfg, "--out", str(out)])
    assert res.exit_code == 0, res.output
    lines = (out / "trace.csv").read_text().splitlines()
    comments = [ln for ln in lines if ln.startswith("# ")]
    assert any("config_hash" in ln for ln in comments)
    header = next(ln for ln in lines if not ln.startswith("#"))
    assert header.split(",")[0] == "k"
    ind = json.loads((out / "induction.json").read_text())
    assert ind["converged"] is True
    assert ind["report"]["first_failure"] == {
        "prop_i": None,
        "prop_ii": None,
        "prop_iii": None,
    }


def test_stability_artifacts(runner, tmp_path):
    cfg = _write_cfg(
        tmp_path,
        {
            "grid": {"nodes": 32},
            "physics": {"mu": 0.3},
            "data": {"type": "random", "amplitude": 0.05, "decay": 4.0, "seed": 7},
            "run": {"T": 0.2, "dt": 0.02},
            "stability": {"iotas": [1e-2, 1e-3]},
        },
    )
    out = tmp_path / "o"
    res = runner.invoke(main, ["stability", "--config", cfg, "--out", str(out)])
    assert res.exit_code == 0, res.output
    rep = json.loads((out / "stability.json").read_text())
    assert 0.8 < rep["slope"] < 1.2
    rows = [
        ln for ln in (out / "stability.csv").read_text().splitlines() if not ln.startswith("#")
    ]
    assert rows[0] == "iota,residual_x0,error"
    assert len(rows) == 3
    # the threaded sweep writes the same bytes as the serial one
    out2 = tmp_path / "threaded"
    res = runner.invoke(
        main, ["stability", "--config", cfg, "--out", str(out2), "--threads", "2"]
    )
    assert res.exit_code == 0, res.output
    for name in ("stability.csv", "stability.json"):
        assert (out2 / name).read_bytes() == (out / name).read_bytes()


def test_scaling_threads_write_same_bytes(runner, tmp_path):
    # every command runs serially and accepts --threads only for
    # compatibility: the thread count must not change a byte
    cfg = _write_cfg(
        tmp_path,
        {
            "grid": {"nodes": 32},
            "data": {"type": "random", "amplitude": 0.05, "decay": 4.0, "seed": 7},
            "run": {"T": 0.2, "dt": 0.02},
            "scaling": {"mus": [0.2, 0.1]},
        },
    )
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        res = runner.invoke(
            main, ["scaling", "--config", cfg, "--out", str(out), "--threads", threads]
        )
        assert res.exit_code == 0, res.output
        outs.append(out)
    rows = [
        ln for ln in (outs[0] / "scaling.csv").read_text().splitlines() if not ln.startswith("#")
    ]
    assert rows[0] == "mu,eps,error" and len(rows) == 3
    for name in ("scaling.csv", "scaling.json"):
        assert (outs[1] / name).read_bytes() == (outs[0] / name).read_bytes()


def test_unreachable_cg_tolerance_exits_3(runner, tmp_path):
    cfg = _write_cfg(tmp_path, {**TINY_MOL, "run": {**TINY_MOL["run"], "cg_tol": 1e-30}})
    res = runner.invoke(main, ["solve", "--config", cfg, "--out", str(tmp_path / "o")])
    assert res.exit_code == 3
    assert "bigT inversion did not reach" in res.output


@pytest.mark.parametrize(
    "cg_tol",
    [math.inf, 1.0, 0.0, -1e-12, math.nan],
    ids=["inf", "one", "zero", "negative", "nan"],
)
def test_cg_tol_outside_the_unit_interval_exits_5(runner, tmp_path, cg_tol):
    # inf and 1 returned a first guess as the solution and exited 0; 0, a
    # negative tolerance and NaN ran 500 CG iterations and exited 3
    cfg = _write_cfg(tmp_path, {**TINY_MOL, "run": {**TINY_MOL["run"], "cg_tol": cg_tol}})
    res = runner.invoke(main, ["solve", "--config", cfg, "--out", str(tmp_path / "o")])
    assert res.exit_code == 5, res.output
    assert "run.cg_tol must be a finite number in (0, 1)" in res.output
    assert not (tmp_path / "o" / "solution_mol.nmtrj.bin").exists()


def test_negative_k_max_exits_5(runner, tmp_path):
    # the iteration loop was empty and ended in an AssertionError (exit 1)
    cfg = _write_cfg(tmp_path, {**TINY_NM, "run": {**TINY_NM["run"], "k_max": -1}})
    res = runner.invoke(main, ["solve", "--config", cfg, "--out", str(tmp_path / "o")])
    assert res.exit_code == 5, res.output
    assert "k_max must be >= 0, got -1" in res.output
    assert not (tmp_path / "o" / "trace.csv").exists()


def test_negative_max_retries_exits_5(runner, tmp_path):
    # the retry loop was empty and ended in an AssertionError (exit 1)
    cfg = _write_cfg(tmp_path, {**TINY_NM, "run": {**TINY_NM["run"], "max_retries": -1}})
    res = runner.invoke(main, ["solve", "--config", cfg, "--out", str(tmp_path / "o")])
    assert res.exit_code == 5, res.output
    assert "max_retries must be >= 0, got -1" in res.output
    assert not (tmp_path / "o" / "trace.csv").exists()


@pytest.mark.parametrize("command", ["schedule", "solve"])
@pytest.mark.parametrize("key, value", [("theta0", math.nan), ("s0", math.nan), ("s0", math.inf)])
def test_non_finite_schedule_entry_exits_2(runner, tmp_path, command, key, value):
    # a NaN theta0 was feasible and its iterate never moved (exit 0); a NaN s0
    # ran every retry into a "divergence" (exit 3)
    cfg = _write_cfg(tmp_path, {**TINY_NM, "schedule": {key: value}})
    out = tmp_path / "o"
    res = runner.invoke(main, [command, "--config", cfg, "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert f"{key} must" in res.output
    assert not (out / "trace.csv").exists()


def test_validate_solver_failure_exits_3(runner, tmp_path, monkeypatch):
    def fail(*args):
        raise ConvergenceError("forced elliptic failure")

    monkeypatch.setattr(invariants, "elliptic_bounds", fail)
    out = tmp_path / "o"
    res = runner.invoke(main, ["validate", "--out", str(out)])
    assert res.exit_code == 3, res.output
    assert "validation aborted: forced elliptic failure" in res.output
    assert not (out / "validate.json").exists()


def test_validate_failure_exits_1(runner, tmp_path, monkeypatch):
    monkeypatch.setattr(
        cli, "_validation_checks", lambda: [("forced_failure", False, "injected")]
    )
    out = tmp_path / "o"
    res = runner.invoke(main, ["validate", "--out", str(out)])
    assert res.exit_code == 1
    rep = json.loads((out / "validate.json").read_text())
    assert rep["failures"] == 1
    assert rep["results"] == [
        {"name": "forced_failure", "passed": False, "detail": "injected"}
    ]


def test_every_command_accepts_threads_and_rejects_zero(runner, tmp_path):
    for name in sorted(main.commands):
        res = runner.invoke(main, [name, "--threads", "0", "--out", str(tmp_path / name)])
        assert res.exit_code == 2, name  # click's usage error, before any work
        assert "--threads" in res.output
    # any accepted value leaves the artifacts as they are
    for threads in ("1", "3"):
        res = runner.invoke(main, ["schedule", "--threads", threads, "--out", str(tmp_path / threads)])
        assert res.exit_code == 0, res.output
    assert (tmp_path / "3" / "schedule.json").read_bytes() == (
        tmp_path / "1" / "schedule.json"
    ).read_bytes()


def test_validate_runs_every_check(runner, tmp_path):
    out = tmp_path / "o"
    res = runner.invoke(main, ["validate", "--out", str(out)])
    assert res.exit_code == 0, res.output
    rep = json.loads((out / "validate.json").read_text())
    assert rep["failures"] == 0
    assert len(rep["results"]) == 13
    assert all(row["passed"] for row in rep["results"]), rep["results"]
    assert "all 13 checks passed" in res.output
    # the extremes start at -inf / inf, so a detail shows the measured one
    # (a start at 0.0 could only print 0.00e+00 for these three)
    details = {row["name"]: row["detail"] for row in rep["results"]}
    for name in ("smoothing_laws", "interpolation", "energy_identity"):
        assert "0.00e+00" not in details[name], details[name]


def test_solve_both_writes_the_convergence_trace(runner, tmp_path):
    cfg = _write_cfg(tmp_path, {**TINY_NM, "run": {**TINY_NM["run"], "solver": "both"}})
    out_solve, out_conv = tmp_path / "solve", tmp_path / "conv"
    res = runner.invoke(main, ["solve", "--config", cfg, "--out", str(out_solve)])
    assert res.exit_code == 0, res.output
    res = runner.invoke(main, ["convergence", "--config", cfg, "--out", str(out_conv)])
    assert res.exit_code == 0, res.output
    assert (out_solve / "trace.csv").read_bytes() == (out_conv / "trace.csv").read_bytes()
    rep = json.loads((out_solve / "solve_report.json").read_text())
    assert rep["nash_moser"]["stop_reason"] == "converged"
    assert rep["agreement_sup_x0"] <= 1e-6
    for name in ("solution_nash_moser.nmtrj.bin", "solution_mol.nmtrj.bin"):
        assert (out_solve / name).exists()


def _forced_divergence(monkeypatch):
    """Make every Nash-Moser attempt diverge at once with a one-row trace;
    returns the list of the theta0 each attempt was given."""
    attempts = []

    def diverge(problem, schedule, theta0, *args):
        attempts.append(theta0)
        trace = IterationTrace()
        trace.append_row(
            theta=theta0, norm_u_EsD=1.0, norm_u_EsP=1.0, residual_F=math.inf,
            prop_i=True, prop_ii=True,
        )
        trace.stop_reason = "diverged"
        raise DivergenceError(f"forced divergence at theta0={theta0:g}", trace=trace)

    monkeypatch.setattr(nash_moser, "_run_iteration", diverge)
    return attempts


def test_divergence_retries_with_doubled_theta0_then_reraises(monkeypatch):
    attempts = _forced_divergence(monkeypatch)
    cfg = cli._load_config(None, None)
    cfg["grid"]["nodes"] = 32
    params = cli._params_from_cfg(cfg)
    problem = GNProblem(params, cli._initial_state(params, cfg["data"]))
    sched = cli._schedule_from_cfg(cfg)
    with pytest.raises(DivergenceError) as exc:
        nash_moser.nash_moser_solve(problem, sched, 0.1, 0.01, max_retries=3)
    assert attempts == [sched.theta0 * 2.0**k for k in range(4)]
    assert exc.value.trace.theta == [sched.theta0 * 8.0]  # the last attempt's


def test_diverged_run_exits_3_and_keeps_its_trace(runner, tmp_path, monkeypatch):
    attempts = _forced_divergence(monkeypatch)
    cfg = _write_cfg(tmp_path, {**TINY_NM, "run": {**TINY_NM["run"], "max_retries": 1}})
    for name in ("solve", "convergence"):
        attempts.clear()
        out = tmp_path / name
        res = runner.invoke(main, [name, "--config", cfg, "--out", str(out)])
        assert res.exit_code == 3, res.output
        assert "forced divergence at theta0=20" in res.output
        assert attempts == [10.0, 20.0]
        rows = [
            ln for ln in (out / "trace.csv").read_text().splitlines() if not ln.startswith("#")
        ]
        assert rows[0].split(",")[0] == "k" and len(rows) == 2
        assert rows[1].split(",")[:2] == ["0", "20.0"]
    assert not (tmp_path / "solve" / "solve_report.json").exists()
    ind = json.loads((tmp_path / "convergence" / "induction.json").read_text())
    assert ind["converged"] is False and ind["stop_reason"] == "diverged"


def test_inadmissible_iterate_exits_4_and_keeps_its_trace(runner, tmp_path, monkeypatch):
    # the initial iterate passes the depth check and the first corrected
    # iterate fails it
    checks = []

    def fenced(self, u):
        checks.append(u.n_times)
        return (True, "") if len(checks) == 1 else (False, "forced depth failure")

    monkeypatch.setattr(GNProblem, "admissible", fenced)
    cfg = _write_cfg(tmp_path, TINY_NM)
    for name in ("solve", "convergence"):
        checks.clear()
        out = tmp_path / name
        res = runner.invoke(main, [name, "--config", cfg, "--out", str(out)])
        assert res.exit_code == 4, res.output
        assert "iterate k=1 left the admissible set: forced depth failure" in res.output
        assert len(checks) == 2
        rows = [
            ln for ln in (out / "trace.csv").read_text().splitlines() if not ln.startswith("#")
        ]
        assert rows[0].split(",")[0] == "k" and len(rows) == 2
        assert rows[1].split(",")[:2] == ["0", "10.0"]
    assert not (tmp_path / "solve" / "solve_report.json").exists()
    ind = json.loads((tmp_path / "convergence" / "induction.json").read_text())
    assert ind["converged"] is False and ind["stop_reason"] == "inadmissible"


# ------------------------------------------------------------- 2D end to end

ROOT = Path(__file__).resolve().parent.parent


def _benchmark_2d(tmp_path, bathymetry):
    """configs/benchmark.json on a 16^2 grid with the flagship's retained band
    (|k| <= 4 per axis, as on its 128 nodes), over T = 0.2."""
    cfg = json.loads((ROOT / "configs" / "benchmark.json").read_text())
    cfg["grid"].update(dimension=2, nodes=16, dealias_fraction=0.5)
    cfg["run"]["T"] = 0.2
    cfg["physics"]["bathymetry"] = bathymetry
    return _write_cfg(tmp_path, cfg, name=f"benchmark_2d_{bathymetry['type']}.json")


def test_solve_prints_a_k_max_stop(runner, tmp_path):
    # a run that stops at k_max exits 0, as a converged one does; its stdout
    # names the stop reason, the iteration count and the final residual
    cfg = json.loads((ROOT / "configs" / "benchmark.json").read_text())
    cfg["data"]["amplitude"] = 1e-3
    cfg["run"].update(T=0.1, k_max=2)
    out = tmp_path / "o"
    res = runner.invoke(main, ["solve", "--config", _write_cfg(tmp_path, cfg), "--out", str(out)])
    assert res.exit_code == 0, res.output
    rep = json.loads((out / "solve_report.json").read_text())["nash_moser"]
    assert rep["stop_reason"] == "k_max"
    line = (
        f"nash-moser stop: k_max after {rep['iterations']} iterations, "
        f"final residual {rep['final_residual']:.6e}"
    )
    assert line in res.output.splitlines()


def _mass_drift(traj):
    mean = traj.snapshots[:, traj.grid.dimension].reshape(traj.n_times, -1)[:, 0]
    return float(np.max(np.abs(mean - mean[0])))


def test_solve_2d_over_random_bathymetry(runner, tmp_path):
    cfg = _benchmark_2d(
        tmp_path, {"type": "random", "amplitude": 0.05, "decay": 5.0, "seed": 101}
    )
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        res = runner.invoke(main, ["solve", "--config", cfg, "--out", str(out)])
        assert res.exit_code == 0, res.output
        rep = json.loads((out / "solve_report.json").read_text())
        assert rep["nash_moser"]["stop_reason"] == "converged"
        assert rep["nash_moser"]["final_residual"] <= 1e-8
        assert rep["agreement_sup_x0"] <= 1e-6
        for name in ("solution_mol.nmtrj", "solution_nash_moser.nmtrj"):
            traj = load_trajectory(out / name)
            assert traj.grid.dimension == 2
            assert _mass_drift(traj) <= 1e-11, name
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_convergence_2d_flat_bottom_holds_every_induction_property(runner, tmp_path):
    cfg = _benchmark_2d(tmp_path, {"type": "zero"})
    out = tmp_path / "o"
    res = runner.invoke(main, ["convergence", "--config", cfg, "--out", str(out)])
    assert res.exit_code == 0, res.output
    ind = json.loads((out / "induction.json").read_text())
    assert ind["converged"] is True
    report = ind["report"]
    for prop in ("prop_i", "prop_ii", "prop_iii"):
        assert report[prop] and all(report[prop]), prop


# ------------------------------------------------------------ growth guard

def test_flagship_at_amplitude_1e_3_passes_its_first_linear_solve():
    # The first correction starts from zero data, forced by the residual of
    # the initial iterate, which changes sign between the first snapshots:
    # its norm grows about 41x over the second step. The growth guard must
    # read that as forcing, not as an unstable step (dt is far below the cap).
    cfg = cli._load_config(str(ROOT / "configs" / "benchmark.json"), None)
    cfg["data"]["amplitude"] = 1e-3
    params = cli._params_from_cfg(cfg)
    problem = GNProblem(params, cli._initial_state(params, cfg["data"]), tol=float(cfg["run"]["cg_tol"]))
    sched = cli._schedule_from_cfg(cfg)
    _, trace = nash_moser.nash_moser_solve(
        problem, sched, float(cfg["run"]["T"]), float(cfg["run"]["dt"]), k_max=1
    )
    assert trace.stop_reason == "k_max"
    assert trace.residual_F[1] < 0.01 * trace.residual_F[0]
