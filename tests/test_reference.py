"""Direct nonlinear solver and the exact solitary-wave reference."""
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from nmshallow import green_naghdi, linear_ivp
from nmshallow.errors import DomainError, StepSizeError
from nmshallow.fourier_scale import (
    GridSpec,
    SpectralField,
    TrajectoryField,
    field_to_grid,
    random_field,
    sobolev_norm,
    zero_field,
)
from nmshallow.green_naghdi import GNState, PhysicalParams, counting
from nmshallow.reference import manufactured_residual, mol_solve, serre_solitary_wave

MU = 0.1
EPS = math.sqrt(MU)
AMP = 0.2
# frozen closed-form constants of the amplitude-0.2 profile at mu = 0.1,
# eps = sqrt(mu)
C_WAVE = 1.0311379894094522
KAPPA = 0.66792675769115296
SPEED = 3.2607446284604497  # c / eps in the fast time variable


def _solitary_params(n=256, length=40.0, h0=0.5):
    grid = GridSpec(dimension=1, nodes_per_axis=n, domain_length=length)
    return PhysicalParams(mu=MU, eps=EPS, b=zero_field(grid), h0=h0)


# ------------------------------------------------------------ solitary wave


def test_solitary_closed_form_constants():
    assert math.sqrt(1.0 + EPS * AMP) == pytest.approx(C_WAVE, abs=1e-15)
    assert math.sqrt(3 * EPS * AMP / (4 * MU * (1 + EPS * AMP))) == pytest.approx(
        KAPPA, abs=1e-15
    )
    assert C_WAVE / EPS == pytest.approx(SPEED, abs=1e-14)


def _load_derivation():
    path = Path(__file__).resolve().parents[1] / "scripts" / "derive_solitary_wave.py"
    spec = importlib.util.spec_from_file_location("derive_solitary_wave", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_solitary_wave_certificate(capsys, monkeypatch):
    # scripts/derive_solitary_wave.py reduces both residuals of the traveling
    # ansatz to zero symbolically (sympy), and the speed c/eps it prints for
    # the frozen configuration is the one serre_solitary_wave moves at
    derivation = _load_derivation()
    residuals = derivation.traveling_residuals()
    assert residuals == (0, 0)
    # main() would repeat the reduction, the slow part: hand it this one
    monkeypatch.setattr(derivation, "traveling_residuals", lambda: residuals)
    derivation.main()
    line = next(row for row in capsys.readouterr().out.splitlines() if "c/eps =" in row)
    printed = float(line.split("=")[-1])
    assert printed == SPEED
    assert math.isclose(printed, math.sqrt(1.0 + EPS * AMP) / EPS, rel_tol=1e-15)


def test_solitary_profile_values():
    params = _solitary_params()
    state = serre_solitary_wave(params, AMP)
    grid = params.grid
    x = grid.axis_coordinates()
    zeta_want = AMP / np.cosh(KAPPA * (x - 20.0)) ** 2
    v_want = C_WAVE * zeta_want / (1.0 + EPS * zeta_want)
    assert np.max(np.abs(field_to_grid(state.zeta)[0] - zeta_want)) < 1e-13
    assert np.max(np.abs(field_to_grid(state.V)[0] - v_want)) < 1e-13


def test_solitary_rest_and_periodicity():
    params = _solitary_params()
    rest = serre_solitary_wave(params, 0.0)
    assert not np.any(rest.packed().coefficients)
    # advancing time by one transit period returns the crest to its start
    # through the periodic wrap, from the middle of the box (t = 0) and
    # from x = 7
    L = params.grid.domain_length
    period = L / SPEED
    for t in (0.0, (7.0 - L / 2.0) / SPEED):
        a = serre_solitary_wave(params, AMP, t=t)
        b = serre_solitary_wave(params, AMP, t=t + period)
        assert np.max(np.abs(a.packed().coefficients - b.packed().coefficients)) < 1e-13


def test_solitary_domain_errors():
    params = _solitary_params()
    with pytest.raises(DomainError):
        serre_solitary_wave(params, -0.1)
    grid2 = GridSpec(dimension=2, nodes_per_axis=16, domain_length=40.0)
    p2 = PhysicalParams(mu=MU, eps=EPS, b=zero_field(grid2))
    with pytest.raises(DomainError):
        serre_solitary_wave(p2, AMP)
    grid = params.grid
    bumpy = PhysicalParams(
        mu=MU, eps=EPS, b=random_field(grid, 1, np.random.default_rng(0), amplitude=0.01)
    )
    with pytest.raises(DomainError):
        serre_solitary_wave(bumpy, AMP)


def test_solitary_is_manufactured_solution():
    # the traveling profile with its exact time derivative must annihilate
    # the slow-time residual rows to spectral accuracy
    params = _solitary_params(n=256)
    grid = params.grid
    times = np.array([0.0, 0.05, 0.1, 0.15])
    snaps, dsnaps = [], []
    ik = 1j * np.broadcast_to(grid.wavenumbers()[0], grid.shape)
    for t in times:
        u = serre_solitary_wave(params, AMP, t=float(t)).packed().coefficients
        snaps.append(u)
        dsnaps.append(-SPEED * ik * u)
    traj = TrajectoryField(grid, times, np.stack(snaps))
    dtraj = TrajectoryField(grid, times, np.stack(dsnaps))
    r1, r2 = manufactured_residual(params, traj, dudt=dtraj)
    worst = 0.0
    for i in range(4):
        worst = max(
            worst,
            sobolev_norm(SpectralField(grid, r1.snapshots[i]), 0.0),
            sobolev_norm(SpectralField(grid, r2.snapshots[i]), 0.0),
        )
    assert worst <= 1e-8


def test_manufactured_residual_validation(grid1d, params1d, rng):
    short = TrajectoryField(
        grid1d, np.array([0.0, 0.1]), np.zeros((2, 2, 64), dtype=np.complex128)
    )
    with pytest.raises(ValueError, match="need at least 3 snapshots .*, got 2"):
        manufactured_residual(params1d, short)
    traj = TrajectoryField(
        grid1d, np.linspace(0.0, 0.3, 4), np.zeros((4, 2, 64), dtype=np.complex128)
    )
    bad_dudt = TrajectoryField(
        grid1d, np.linspace(0.0, 0.2, 3), np.zeros((3, 2, 64), dtype=np.complex128)
    )
    with pytest.raises(ValueError, match=r"dudt must match the trajectory in shape and length"):
        manufactured_residual(params1d, traj, dudt=bad_dudt)


# --------------------------------------------------------- direct solver


def test_mol_rest_state_stays_zero(grid1d, params1d):
    params = PhysicalParams(mu=params1d.mu, eps=params1d.eps, b=zero_field(grid1d))
    rest = GNState(V=zero_field(grid1d, 1), zeta=zero_field(grid1d))
    sol = mol_solve(params, rest, 0.3, 0.03)
    assert not np.any(sol.snapshots)


def test_mol_conserves_mean_elevation(grid1d, params1d, state1d):
    with counting() as counts:
        sol = mol_solve(params1d, state1d, 0.4, 0.02)
    d = grid1d.dimension
    mean0 = sol.snapshots[0][d].flat[0]
    for i in range(sol.n_times):
        assert abs(sol.snapshots[i][d].flat[0] - mean0) < 1e-14
    assert sol.n_times == 21
    cap = linear_ivp.dispersive_dt_cap(params1d, grid1d)
    assert counts["rk_substeps"] == 20 * math.ceil(0.02 / cap)
    assert counts["solves"] > 0


def test_mol_rejects_non_divisor_dt(grid1d, params1d, state1d):
    with pytest.raises(ValueError):
        mol_solve(params1d, state1d, 0.4, 0.03)


def test_mol_depth_failure_carries_time(grid1d, params1d, rng):
    big = GNState(
        V=random_field(grid1d, 1, rng, amplitude=3.0, decay=4.0),
        zeta=random_field(grid1d, 1, rng, amplitude=3.0, decay=4.0),
    )
    with pytest.raises(DomainError) as exc:
        mol_solve(params1d, big, 0.4, 0.02)
    assert "t=" in str(exc.value)


@pytest.mark.parametrize("batch", [None, 3], ids=["single", "batch"])
def test_mol_output_check_rejects_a_nan_elevation(grid1d, batch):
    # `nan <= h0` is false, so the output check counts a non-finite lowest
    # depth as a violation itself: the state is refused at t=0, before a
    # tendency is evaluated, and in a batch the message names the member
    params = PhysicalParams(mu=0.3, eps=0.5, b=zero_field(grid1d))
    rng = np.random.default_rng(5)
    members = 1 if batch is None else batch
    zg = 0.05 * rng.standard_normal((members, *grid1d.shape))
    zg[members // 2, 7] = np.nan  # one elevation sample, of member 1 in the batch
    zc = grid1d.from_grid(zg) if batch is None else grid1d.from_grid(zg)[None]
    state = GNState(V=SpectralField(grid1d, np.zeros_like(zc)), zeta=SpectralField(grid1d, zc))
    who = "" if batch is None else " in member 1"
    with pytest.raises(DomainError, match=f"^water depth reached nan at t=0{who}, at or below"):
        mol_solve(params, state, 0.1, 0.05)


def test_mol_fourth_order_self_convergence():
    grid = GridSpec(dimension=1, nodes_per_axis=32, domain_length=2 * math.pi)
    bathy = random_field(grid, 1, np.random.default_rng(5), amplitude=0.05, decay=5.0)
    params = PhysicalParams(mu=0.3, eps=0.5, b=bathy)
    data = GNState(
        V=random_field(grid, 1, np.random.default_rng(6), amplitude=0.08, decay=4.0),
        zeta=random_field(grid, 1, np.random.default_rng(7), amplitude=0.08, decay=4.0),
    )
    T = 0.4
    ref = mol_solve(params, data, T, 0.00125)
    errs = []
    for dtv in (0.02, 0.01):
        sol = mol_solve(params, data, T, dtv)
        errs.append(
            sobolev_norm(SpectralField(grid, sol.snapshots[-1] - ref.snapshots[-1]), 0.0)
        )
    assert 11.0 < errs[0] / errs[1] < 21.0


@pytest.mark.parametrize("debug_env", [False, True])
def test_mol_step_size_guard_raises(grid1d, params1d, rng, monkeypatch, debug_env):
    # mol_solve shares the IF-RK4 driver of linear_ivp: disabling its sub-step
    # cap makes dt = 0.5 unstable, and the growth guard must stop the run
    if debug_env:
        monkeypatch.setenv("NMSHALLOW_DEBUG_GROWTH", "1")
    monkeypatch.setattr(linear_ivp, "dispersive_dt_cap", lambda *args, **kwargs: math.inf)
    data = GNState(
        V=random_field(grid1d, 1, rng, amplitude=0.01, decay=0.5),
        zeta=random_field(grid1d, 1, rng, amplitude=0.01, decay=0.5),
    )
    with pytest.raises(StepSizeError, match="unstable"):
        mol_solve(params1d, data, 2.0, 0.5)


# ---------------------------------------------------------------- counting

ZERO_COUNTS = {"solves": 0, "cg_iterations": 0, "rk_substeps": 0}


def test_counting_fills_the_innermost_block_only(params1d, state1d):
    with counting() as outer:
        mol_solve(params1d, state1d, 0.1, 0.02)
        before = dict(outer)
        with counting() as inner:
            mol_solve(params1d, state1d, 0.1, 0.02)
        assert outer == before
    # the same call counts the same, whichever block holds it; over this
    # bathymetry every solve runs PCG
    assert inner == before
    assert inner["solves"] > 0 and inner["cg_iterations"] > 0


def test_counting_block_left_by_an_error_restores_the_outer_one(params1d, state1d):
    drain = np.zeros((2, *params1d.grid.shape), dtype=np.complex128)
    drain[1, 0] = -20.0  # lowers the mean elevation until the depth floor fails
    with counting() as outer:
        with pytest.raises(DomainError, match="below floor"):
            with counting() as failed:
                mol_solve(params1d, state1d, 0.4, 0.02, forcing=lambda t: drain)
        assert outer == ZERO_COUNTS
        mol_solve(params1d, state1d, 0.1, 0.02)
    with counting() as alone:
        mol_solve(params1d, state1d, 0.1, 0.02)
    assert failed["solves"] > 0
    assert outer == alone


def test_calls_outside_a_block_count_nothing(params1d, state1d):
    with counting() as closed:
        pass
    mol_solve(params1d, state1d, 0.1, 0.02)
    assert closed == ZERO_COUNTS
    assert green_naghdi._COUNTS.get() is None


def test_identical_runs_count_alike(params1d, state1d):
    runs = []
    for _ in range(2):
        with counting() as counts:
            mol_solve(params1d, state1d, 0.1, 0.02)
        runs.append(counts)
    assert runs[0] == runs[1]
    assert runs[0]["cg_iterations"] > 0
