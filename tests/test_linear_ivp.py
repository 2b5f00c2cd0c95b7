"""Free dispersive evolution and the linearized initial-value solver."""
import math

import numpy as np
import pytest

from nmshallow import linear_ivp
from nmshallow.errors import DomainError, StepSizeError
from nmshallow.fourier_scale import (
    GridSpec,
    SpectralField,
    TrajectoryField,
    _uniform_steps,
    random_field,
    sobolev_norm,
    zero_field,
)
from nmshallow.gn_problem import GNProblem
from nmshallow.green_naghdi import GNState, PhysicalParams, build_linearized_coeffs, counting
from nmshallow.linear_ivp import (
    IVPData,
    conjugate_trajectory,
    dispersive_dt_cap,
    evolve_packed,
    solve_linearized,
)
from nmshallow.nash_moser import initial_iterate
from nmshallow.reference import mol_solve


def _packed(grid, rng, amplitude=0.5, decay=2.0):
    d = grid.dimension
    return random_field(grid, d + 1, rng, amplitude=amplitude, decay=decay).coefficients


# ------------------------------------------------------------ free evolution

@pytest.mark.parametrize("dim", [1, 2])
def test_evolution_group_identity_isometry(dim, rng):
    grid = GridSpec(dimension=dim, nodes_per_axis=16, domain_length=2 * math.pi)
    eps = 0.5
    for _ in range(20):
        u = _packed(grid, rng)
        t1, t2 = float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3))
        assert np.max(np.abs(evolve_packed(grid, eps, 0.0, u) - u)) < 1e-14
        two = evolve_packed(grid, eps, t2, evolve_packed(grid, eps, t1, u))
        one = evolve_packed(grid, eps, t1 + t2, u)
        assert np.max(np.abs(two - one)) < 1e-12
        n0 = np.linalg.norm(u)
        n1 = np.linalg.norm(evolve_packed(grid, eps, t1, u))
        assert abs(n1 - n0) <= 1e-12 * n0


def test_evolution_inverse(grid1d, rng):
    u = _packed(grid1d, rng)
    back = evolve_packed(grid1d, 0.4, -1.3, evolve_packed(grid1d, 0.4, 1.3, u))
    assert np.max(np.abs(back - u)) < 1e-12


@pytest.mark.parametrize("dim", [1, 2])
def test_evolution_generator_is_wave_operator(dim, rng):
    # d/dt U(t)u|_{t=0} = -(1/eps) (grad zeta, div V)
    grid = GridSpec(dimension=dim, nodes_per_axis=16, domain_length=2 * math.pi)
    eps = 0.5
    u = _packed(grid, rng)
    dt = 1e-6
    dudt = (evolve_packed(grid, eps, dt, u) - evolve_packed(grid, eps, -dt, u)) / (2 * dt)
    wn = grid.wavenumbers()
    V, z = u[:dim], u[dim]
    Lz = np.stack([1j * np.broadcast_to(wn[i], grid.shape) * z for i in range(dim)])
    LV = sum(1j * np.broadcast_to(wn[i], grid.shape) * V[i] for i in range(dim))
    resid = dudt.copy()
    resid[:dim] += Lz / eps
    resid[dim] += LV / eps
    assert np.max(np.abs(resid)) < 1e-9 * np.max(np.abs(u))


def test_evolution_preserves_reality(grid2d, rng):
    u = _packed(grid2d, rng)
    out = SpectralField(grid2d, evolve_packed(grid2d, 0.7, 0.93, u))
    out.validate(1e-11)


def _ref_evolve_packed(grid, eps, t, coeffs):
    """`evolve_packed` as it was written before its in-place 1D body: an
    einsum over the velocity components, new temporaries throughout. The
    shape checks are left out; the inputs here are valid."""
    d = grid.dimension
    batched = coeffs.ndim == d + 2
    if np.ndim(t):
        times = np.asarray(t, dtype=np.float64)
        still = times == 0.0
        if still.all():
            return coeffs.copy()
        rate = (times / eps).reshape(-1, *(1,) * d)
    elif t == 0.0:
        return coeffs.copy()
    else:
        still = None
        rate = float(t) / eps
    unit = grid.xi_unit
    if batched:
        unit = unit[:, None]
    phase = rate * grid.xi_abs
    cos_v = np.cos(phase)
    sin_v = np.sin(phase)
    V = coeffs[:d]
    along = np.einsum("i...,i...->...", unit, V)
    zeta = coeffs[d]
    a_new = cos_v * along - 1j * (sin_v * zeta)
    z_new = cos_v * zeta - 1j * (sin_v * along)
    out = np.empty_like(coeffs)
    delta = (a_new - along)[None]
    out[:d] = V + delta * unit
    out[d] = z_new
    if still is not None and still.any():
        out[:, still] = coeffs[:, still]
    return out


def _signed_zero_packed(grid, rng, members=None):
    """Packed coefficients mixing random values with -0.0 and +0.0 in both
    parts of the velocity and the elevation, so that a sign the old einsum
    body would flip shows in the bytes."""
    shape = (grid.dimension + 1, *(() if members is None else (members,)), *grid.shape)
    parts = np.array([-1.5, -0.0, 0.0, 2.5])
    c = rng.choice(parts, shape) + 1j * rng.choice(parts, shape)
    dense = rng.random(shape) < 0.5
    c[dense] = rng.standard_normal(dense.sum()) + 1j * rng.standard_normal(dense.sum())
    c[(slice(None), *(() if members is None else (0,)), *(0,) * grid.dimension)] = complex(-0.0, -0.0)
    return c


@pytest.mark.parametrize("dim", [1, 2])
def test_evolve_packed_keeps_the_bits_of_the_einsum_body(dim):
    grid = GridSpec(dimension=dim, nodes_per_axis=32 if dim == 1 else 16, domain_length=3.0)
    rng = np.random.default_rng(17 + dim)
    eps = 0.4
    single = _signed_zero_packed(grid, rng)
    for t in (0.37, -0.37, 1e-3, 0.0, -0.0):
        got, want = evolve_packed(grid, eps, t, single), _ref_evolve_packed(grid, eps, t, single)
        assert got.tobytes() == want.tobytes(), f"single, t={t}"
    batch = _signed_zero_packed(grid, rng, members=5)
    for t in (0.37, -1.1, np.array([0.0, -0.4, 0.9, -0.0, 1.3]), np.array([-0.2, 0.2, 0.5, -2.0, 0.0])):
        got, want = evolve_packed(grid, eps, t, batch), _ref_evolve_packed(grid, eps, t, batch)
        assert got.tobytes() == want.tobytes(), f"batched, t={t}"


def test_conjugate_trajectory_inverse(grid1d, params1d, rng):
    times = np.linspace(0.0, 0.5, 6)
    snaps = np.stack([_packed(grid1d, rng) for _ in range(6)])
    traj = TrajectoryField(grid1d, times, snaps)
    there = conjugate_trajectory(params1d, traj, +1)
    back = conjugate_trajectory(params1d, there, -1)
    assert np.max(np.abs(back.snapshots - traj.snapshots)) < 1e-12


# ------------------------------------------------------------------- dt cap

def test_dispersive_dt_cap_closed_form():
    grid = GridSpec(dimension=1, nodes_per_axis=64, domain_length=2 * math.pi)
    params = PhysicalParams(mu=0.3, eps=0.5, b=zero_field(grid))
    xi_c = float(grid.dealias_cutoff_index)  # L = 2*pi
    tau = 0.3 * xi_c**2 / 3.0
    expect = 0.5 / ((xi_c / 0.5) * tau / (1.0 + tau))
    assert math.isclose(dispersive_dt_cap(params, grid), expect, rel_tol=1e-13)
    # vanishing dispersion: no cap
    p0 = PhysicalParams(mu=1e-300, eps=0.5, b=zero_field(grid))
    assert dispersive_dt_cap(p0, grid) > 1e200


# -------------------------------------------------------- linearized solver

def test_zero_coeffs_zero_forcing_reduces_to_free_flow(grid1d, rng):
    # with mu -> 0 the dispersive correction vanishes; the solver must then
    # reproduce the free evolution of the data to integrator accuracy
    params = PhysicalParams(mu=1e-13, eps=0.5, b=zero_field(grid1d))
    uref = TrajectoryField(
        grid1d, np.array([0.0, 0.5, 1.0]), np.zeros((3, 2, 64), dtype=np.complex128)
    )
    coeffs = build_linearized_coeffs(params, uref)
    v0 = GNState(
        V=random_field(grid1d, 1, rng, amplitude=0.3, decay=6.0),
        zeta=random_field(grid1d, 1, rng, amplitude=0.3, decay=6.0),
    )
    sol = solve_linearized(params, coeffs, IVPData(initial=v0, horizon=1.0, dt=0.01))
    err = 0.0
    for i in range(sol.n_times):
        free = evolve_packed(grid1d, 0.5, float(sol.times[i]), v0.packed().coefficients)
        err = max(err, float(np.max(np.abs(sol.snapshots[i] - free))))
    assert err < 1e-10


def test_zero_data_zero_forcing_stays_zero(grid1d, params1d, state1d):
    uref = mol_solve(params1d, state1d, 0.2, 0.02)
    coeffs = build_linearized_coeffs(params1d, uref)
    z0 = GNState(V=zero_field(grid1d, 1), zeta=zero_field(grid1d))
    sol = solve_linearized(params1d, coeffs, IVPData(initial=z0, horizon=0.2, dt=0.02))
    assert not np.any(sol.snapshots)


def test_forcing_trajectory_length_checked(grid1d, params1d, state1d, rng):
    uref = mol_solve(params1d, state1d, 0.2, 0.02)
    coeffs = build_linearized_coeffs(params1d, uref)
    bad = TrajectoryField(
        grid1d, np.linspace(0.0, 0.2, 5), np.zeros((5, 2, 64), dtype=np.complex128)
    )
    with pytest.raises(DomainError):
        solve_linearized(
            params1d,
            coeffs,
            IVPData(initial=state1d, horizon=0.2, dt=0.02, forcing=bad),
        )


def test_forcing_trajectory_horizon_checked(grid1d, params1d, state1d, rng):
    # the right number of snapshots over twice the horizon is not the output grid
    f0 = random_field(grid1d, 2, rng, amplitude=0.05, decay=4.0).coefficients
    long = TrajectoryField(grid1d, np.linspace(0.0, 0.4, 11), np.stack([f0] * 11))
    with pytest.raises(DomainError, match=r"spans \[0, 0\.4\] in 11 snapshots"):
        mol_solve(params1d, state1d, 0.2, 0.02, forcing=long)


def test_dt_divides_horizon_by_one_rule(grid1d, params1d, state1d):
    # the Nash-Moser grid and the integrator accept and reject the same dt
    T, dt = 0.2, 0.005 * (1.0 + 2e-8)
    with pytest.raises(DomainError) as nm:
        initial_iterate(GNProblem(params1d, state1d), T, dt)
    with pytest.raises(DomainError) as mol:
        mol_solve(params1d, state1d, T, dt)
    assert str(nm.value) == str(mol.value)
    assert f"dt={dt!r}" in str(mol.value) and f"dt={T / 40!r}" in str(mol.value)
    assert _uniform_steps(T, 0.005 * (1.0 + 2e-9)) == 40


def test_ivp_validation(grid1d, state1d):
    with pytest.raises(ValueError):
        IVPData(initial=state1d, horizon=-1.0, dt=0.1)
    with pytest.raises(ValueError):
        IVPData(initial=state1d, horizon=1.0, dt=2.0)


def test_solver_fourth_order_with_exact_forcing():
    # frozen instance: coefficients along a smooth nonlinear trajectory,
    # smooth forcing sampled exactly at the internal stage times; the grid
    # is small enough that the dispersive step-size cap never subdivides
    grid = GridSpec(dimension=1, nodes_per_axis=32, domain_length=2 * math.pi)
    bathy = random_field(grid, 1, np.random.default_rng(5), amplitude=0.05, decay=5.0)
    params = PhysicalParams(mu=0.3, eps=0.5, b=bathy)
    assert dispersive_dt_cap(params, grid) > 0.02
    data = GNState(
        V=random_field(grid, 1, np.random.default_rng(6), amplitude=0.08, decay=4.0),
        zeta=random_field(grid, 1, np.random.default_rng(7), amplitude=0.08, decay=4.0),
    )
    T = 0.4
    coeffs = build_linearized_coeffs(params, mol_solve(params, data, T, 0.02))
    v0 = GNState(
        V=random_field(grid, 1, np.random.default_rng(8), amplitude=0.05, decay=4.0),
        zeta=random_field(grid, 1, np.random.default_rng(9), amplitude=0.05, decay=4.0),
    )
    base = random_field(grid, 2, np.random.default_rng(10), amplitude=0.05, decay=4.0).coefficients

    def f_fn(t):
        return math.cos(1.7 * t) * base

    errs = []
    ref = solve_linearized(
        params, coeffs, IVPData(initial=v0, horizon=T, dt=0.00125, forcing_fn=f_fn)
    )
    for dtv in (0.02, 0.01):
        sol = solve_linearized(
            params, coeffs, IVPData(initial=v0, horizon=T, dt=dtv, forcing_fn=f_fn)
        )
        errs.append(
            sobolev_norm(SpectralField(grid, sol.snapshots[-1] - ref.snapshots[-1]), 0.0)
        )
    assert 11.0 < errs[0] / errs[1] < 21.0


def test_solver_stats(grid1d, params1d, state1d, rng):
    uref = mol_solve(params1d, state1d, 0.2, 0.02)
    coeffs = build_linearized_coeffs(params1d, uref)
    v0 = GNState(
        V=random_field(grid1d, 1, rng, amplitude=0.05, decay=4.0),
        zeta=random_field(grid1d, 1, rng, amplitude=0.05, decay=4.0),
    )
    with counting() as counts:
        sol = solve_linearized(params1d, coeffs, IVPData(initial=v0, horizon=0.2, dt=0.02))
    assert sol.n_times == 11
    cap = dispersive_dt_cap(params1d, grid1d)
    assert counts["rk_substeps"] == 10 * math.ceil(0.02 / cap)


@pytest.mark.parametrize("debug_env", [False, True])
def test_step_size_guard_raises(grid1d, params1d, rng, monkeypatch, debug_env):
    # with the sub-step cap disabled, dt = 0.5 is ~41x the stable RK4 step at
    # N=64; the growth guard must stop the run, whatever the environment says
    if debug_env:
        monkeypatch.setenv("NMSHALLOW_DEBUG_GROWTH", "1")
    monkeypatch.setattr(linear_ivp, "dispersive_dt_cap", lambda *args, **kwargs: math.inf)
    data = GNState(
        V=random_field(grid1d, 1, rng, amplitude=0.01, decay=0.5),
        zeta=random_field(grid1d, 1, rng, amplitude=0.01, decay=0.5),
    )
    rest = TrajectoryField(
        grid1d, np.linspace(0.0, 2.0, 5), np.zeros((5, 2, 64), dtype=np.complex128)
    )
    coeffs = build_linearized_coeffs(params1d, rest)
    with pytest.raises(StepSizeError, match="unstable"):
        solve_linearized(params1d, coeffs, IVPData(initial=data, horizon=2.0, dt=0.5))


def _rest_coeffs(params):
    grid = params.grid
    rest = TrajectoryField(
        grid, np.linspace(0.0, 2.0, 5), np.zeros((5, grid.dimension + 1, *grid.shape), dtype=np.complex128)
    )
    return build_linearized_coeffs(params, rest)


def test_forced_growth_from_small_data_is_not_unstable(grid1d):
    # A mean-flow forcing f(t) = (t - dt/2 + 1e-10) f0 adds only 1e-10 dt |f0|
    # over the first step (Simpson is exact on it) and dt^2 |f0| over the
    # second: a ratio of 1e8 that the forcing, not the step, explains. The
    # growth test allows 10 (|w| + dt max|f|), with max|f| read from the
    # stage samples of the forcing_fn.
    params = PhysicalParams(mu=0.3, eps=0.5, b=zero_field(grid1d))
    f0 = np.zeros((2, *grid1d.shape), dtype=np.complex128)
    f0[0, 0] = 1.0
    dt = 0.1
    data = GNState(V=zero_field(grid1d), zeta=zero_field(grid1d))
    ivp = IVPData(initial=data, horizon=0.5, dt=dt, forcing_fn=lambda t: (t - 0.5 * dt + 1e-10) * f0)
    sol = solve_linearized(params, _rest_coeffs(params), ivp)
    # the mean flow is the integral of the forcing: t^2/2 - (dt/2 - 1e-10) t
    t = sol.times
    assert np.allclose(sol.snapshots[:, 0, 0].real, 0.5 * t * t - (0.5 * dt - 1e-10) * t, atol=1e-14)


def test_forced_run_from_zero_data_still_trips_the_guard(grid1d, params1d, rng, monkeypatch):
    # the forcing's allowance does not hide an unstable step: with the
    # sub-step cap disabled, dt = 0.5 is ~41x the stable RK4 step at N=64
    monkeypatch.setattr(linear_ivp, "dispersive_dt_cap", lambda *args, **kwargs: math.inf)
    f0 = random_field(grid1d, 2, rng, amplitude=0.01, decay=0.5).coefficients
    data = GNState(V=zero_field(grid1d), zeta=zero_field(grid1d))
    ivp = IVPData(initial=data, horizon=2.0, dt=0.5, forcing_fn=lambda t: f0)
    with pytest.raises(StepSizeError, match="grew"):
        solve_linearized(params1d, _rest_coeffs(params1d), ivp)
