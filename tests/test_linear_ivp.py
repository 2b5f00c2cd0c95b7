"""Free dispersive evolution and the linearized initial-value solver."""
import math

import numpy as np
import pytest

from nmshallow import green_naghdi as gn
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
from nmshallow.green_naghdi import (
    GNState,
    PhysicalParams,
    apply_K,
    build_linearized_coeffs,
    counting,
    nonlinear_F,
)
from nmshallow.linear_ivp import (
    IVPData,
    conjugate_trajectory,
    dispersive_dt_cap,
    evolve_packed,
    solve_linearized,
)
from nmshallow.nash_moser import initial_iterate
from nmshallow.reference import mol_solve, serre_solitary_wave


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


# ------------------------------------------ Lawson stages against the w-form


def _w_form_integrate(params, ivp, tendency):
    """`linear_ivp._integrate_filtered` as it was before its stages moved to
    the physical variable: classical RK4 on the filtered unknown
    w = U(-t) v, each stage conjugated into physical variables and back (nine
    `evolve_packed` calls per sub-step), with the same sub-step split,
    forcing sampling and growth guard. `tendency(t, state)` solves cold.
    The slow path of the Lawson driver's differential test."""
    grid = ivp.initial.grid
    d = grid.dimension
    eps = params.eps
    n_steps = _uniform_steps(ivp.horizon, ivp.dt)
    dt_out = ivp.horizon / n_steps
    sample_f = linear_ivp._forcing_sampler(ivp, grid, n_steps)
    cap = linear_ivp.dispersive_dt_cap(params, grid)
    n_sub = max(1, int(math.ceil(dt_out / cap - 1e-12)))
    h = dt_out / n_sub
    single = ivp.initial.batch is None
    w = grid.project(ivp.initial.packed().coefficients)
    if single:
        w = w[:, None]
    members = w.shape[1]
    state_shape = (d + 1, *grid.shape) if single else w.shape
    out = np.empty((members, n_steps + 1, d + 1, *grid.shape), dtype=np.complex128)
    out[:, 0] = w.swapaxes(0, 1)
    forcing_scale = 0.0
    if ivp.forcing is not None:
        flat = ivp.forcing.snapshots.reshape(ivp.forcing.n_times, -1)
        forcing_scale = float(np.max(np.linalg.norm(flat, axis=1)))
    norm_prev = [float(np.linalg.norm(w[:, m])) for m in range(members)]
    norm_floor = [1e-13 * (1.0 + norm + forcing_scale) for norm in norm_prev]

    def rhs(t, w_arr):
        nonlocal forcing_scale
        v_arr = evolve_packed(grid, eps, t, w_arr).reshape(state_shape)
        state = GNState(
            V=SpectralField(grid, v_arr[:d]), zeta=SpectralField(grid, v_arr[d : d + 1]), t=t
        )
        G = tendency(t, state)
        phys = -np.concatenate([G.V.coefficients, G.zeta.coefficients]).reshape(w_arr.shape)
        f_val = sample_f(t)
        if f_val is not None:
            phys += f_val[:, None]
            if ivp.forcing_fn is not None:
                forcing_scale = max(forcing_scale, float(np.linalg.norm(f_val)))
        return evolve_packed(grid, eps, -t, phys)

    for n in range(n_steps):
        t_n = n * dt_out
        for j in range(n_sub):
            t0 = t_n + j * h
            k1 = rhs(t0, w)
            k2 = rhs(t0 + 0.5 * h, w + (0.5 * h) * k1)
            k3 = rhs(t0 + 0.5 * h, w + (0.5 * h) * k2)
            k4 = rhs(t0 + h, w + h * k3)
            w = w + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t_next = (n + 1) * dt_out
        for m in range(members):
            norm_now = float(np.linalg.norm(w[:, m]))
            who = "" if single else f" of member {m}"
            if not math.isfinite(norm_now):
                raise StepSizeError(
                    f"non-finite solution{who} after step {n + 1} (t={t_next:g}); "
                    f"reduce dt (current {dt_out:g}, {n_sub} internal sub-steps)"
                )
            bound = 10.0 * (norm_prev[m] + dt_out * forcing_scale)
            if norm_prev[m] > norm_floor[m] and norm_now > bound:
                raise StepSizeError(
                    f"solution norm{who} grew {norm_now / norm_prev[m]:.2f}x in one step "
                    f"at t={t_next:g}; the step size dt={dt_out:g} is unstable"
                )
            norm_prev[m] = norm_now
        out[:, n + 1] = evolve_packed(grid, eps, t_next, w).swapaxes(0, 1)
    times = np.linspace(0.0, ivp.horizon, n_steps + 1)
    trajectories = [TrajectoryField(grid, times.copy(), snaps) for snaps in out]
    return trajectories[0] if single else trajectories


def _lawson_case(name):
    """(params, ivp, tendency) of one differential case; the tendency takes
    the driver's start and ignores it, so that both drivers solve cold."""
    dim, n, flat, members, T, dt = {
        "flat-1d-64": (1, 64, True, None, 0.1, 0.01),
        "flat-1d-512": (1, 512, True, None, 0.01, 0.001),
        "bathymetry-1d-64": (1, 64, False, None, 0.1, 0.01),
        "bathymetry-2d-16": (2, 16, False, None, 0.1, 0.02),
        "batch-of-3": (1, 64, False, 3, 0.1, 0.01),
        "sub-steps": (1, 64, False, None, 0.2, 0.05),
        "forcing-trajectory": (1, 64, False, None, 0.1, 0.01),
        "forcing-fn": (1, 64, False, None, 0.1, 0.01),
        "linearized": (1, 64, False, None, 0.1, 0.01),
    }[name]
    grid = GridSpec(dimension=dim, nodes_per_axis=n, domain_length=2 * math.pi)
    rng = np.random.default_rng(31)
    b = zero_field(grid) if flat else random_field(grid, 1, rng, amplitude=0.05, decay=5.0)
    params = PhysicalParams(mu=0.3, eps=0.5, b=b)
    count = members or 1
    packed = np.stack([_packed(grid, rng, amplitude=0.1, decay=4.0) for _ in range(count)], axis=1)
    if members is None:
        packed = packed[:, 0]
    u0 = GNState.from_packed(SpectralField(grid, packed))
    forcing = forcing_fn = None
    base = _packed(grid, rng, amplitude=0.05, decay=4.0)
    if name == "forcing-trajectory":
        times = np.linspace(0.0, T, _uniform_steps(T, dt) + 1)
        forcing = TrajectoryField(grid, times, np.stack([math.sin(3.0 * t) * base for t in times]))
    elif name == "forcing-fn":
        forcing_fn = lambda t: math.cos(2.0 * t) * base  # noqa: E731
    ivp = IVPData(initial=u0, horizon=T, dt=dt, forcing=forcing, forcing_fn=forcing_fn)
    if name == "linearized":
        coeffs = build_linearized_coeffs(params, mol_solve(params, u0, T, dt))
        small = GNState.from_packed(SpectralField(grid, 0.1 * _packed(grid, rng, 0.1, 4.0)))
        ivp = IVPData(initial=small, horizon=T, dt=dt)
        return params, ivp, lambda t, v, x0=None: apply_K(coeffs, params, t, v)
    return params, ivp, lambda t, u, x0=None: nonlinear_F(params, u)


LAWSON_CASES = [
    "flat-1d-64", "flat-1d-512", "bathymetry-1d-64", "bathymetry-2d-16", "batch-of-3",
    "sub-steps", "forcing-trajectory", "forcing-fn", "linearized",
]


@pytest.mark.parametrize("name", LAWSON_CASES)
def test_lawson_stages_match_the_w_form(name):
    # the same RK4 scheme in both variables: every snapshot agrees to
    # rounding, and the driver conjugates two stacked pairs per sub-step
    params, ivp, tendency = _lawson_case(name)
    grid = ivp.initial.grid
    calls = []
    inner = linear_ivp.evolve_packed

    def counted(*args):
        calls.append(args[-1].shape[1])
        return inner(*args)

    with pytest.MonkeyPatch.context() as m, counting() as counts:
        m.setattr(linear_ivp, "evolve_packed", counted)
        got = linear_ivp._integrate_filtered(params, ivp, tendency)
    want = _w_form_integrate(params, ivp, lambda t, u: tendency(t, u, None))
    n_sub = counts["rk_substeps"] // _uniform_steps(ivp.horizon, ivp.dt)
    assert n_sub > 1 if name == "sub-steps" else n_sub == 1
    members = ivp.initial.batch or 1
    assert calls == [2 * members] * (2 * counts["rk_substeps"])
    pairs = zip(got, want) if ivp.initial.batch else [(got, want)]
    worst = 0.0
    for a, b in pairs:
        assert a.times.tobytes() == b.times.tobytes()
        for x, y in zip(a.snapshots, b.snapshots):
            scale = np.linalg.norm(y)
            assert scale > 0.0
            worst = max(worst, float(np.linalg.norm(x - y) / scale))
    assert worst <= 1e-13, f"{name}: {worst:.2e}"


def test_lawson_stages_fail_at_the_w_form_step(grid1d, params1d, rng, monkeypatch):
    # with the sub-step cap disabled, dt = 0.5 is unstable at N = 64: both
    # drivers stop at the same step with the same message
    monkeypatch.setattr(linear_ivp, "dispersive_dt_cap", lambda *args, **kwargs: math.inf)
    data = GNState(
        V=random_field(grid1d, 1, rng, amplitude=0.01, decay=0.5),
        zeta=random_field(grid1d, 1, rng, amplitude=0.01, decay=0.5),
    )
    coeffs = _rest_coeffs(params1d)
    ivp = IVPData(initial=data, horizon=2.0, dt=0.5)

    def tendency(t, v, x0=None):
        return apply_K(coeffs, params1d, t, v)

    with pytest.raises(StepSizeError, match="unstable") as got:
        linear_ivp._integrate_filtered(params1d, ivp, tendency)
    with pytest.raises(StepSizeError, match="unstable") as want:
        _w_form_integrate(params1d, ivp, tendency)
    assert str(got.value) == str(want.value)


def test_predicted_starts_cut_cg_iterations(monkeypatch):
    # the transit toy (criterion 9's solitary wave, N = 256, 16 steps of
    # period/2048), whose solves run PCG: the predicted starts make the same
    # solves and sub-steps as cold ones in fewer CG iterations, to the same
    # solution within the CG tolerance, in mol_solve and solve_linearized
    grid = GridSpec(dimension=1, nodes_per_axis=256, domain_length=40.0)
    params = PhysicalParams(mu=0.1, eps=math.sqrt(0.1), b=zero_field(grid))
    wave = serre_solitary_wave(params, 0.2)
    dt = 40.0 / (math.sqrt(1.0 + params.eps * 0.2) / params.eps) / 2048
    T = 16 * dt
    with counting() as warm_mol:
        warm = mol_solve(params, wave, T, dt)
    coeffs = build_linearized_coeffs(params, warm)
    ivp = IVPData(initial=GNState.from_packed(wave.packed() * 1e-3), horizon=T, dt=dt)
    with counting() as warm_lin:
        warm_v = solve_linearized(params, coeffs, ivp)

    inner = gn.invert_bigT

    def cold_start(*args, x0=None, **kwargs):
        return inner(*args, **kwargs)

    monkeypatch.setattr(gn, "invert_bigT", cold_start)
    with counting() as cold_mol:
        cold = mol_solve(params, wave, T, dt)
    with counting() as cold_lin:
        cold_v = solve_linearized(params, coeffs, ivp)
    runs = ((warm_mol, cold_mol, warm, cold), (warm_lin, cold_lin, warm_v, cold_v))
    for w_counts, c_counts, a, b in runs:
        assert w_counts["solves"] == c_counts["solves"] == 4 * 16
        assert w_counts["rk_substeps"] == c_counts["rk_substeps"] == 16
        assert w_counts["cg_iterations"] < 0.8 * c_counts["cg_iterations"]
        for x, y in zip(a.snapshots, b.snapshots):
            assert np.linalg.norm(x - y) <= 1e-11 * np.linalg.norm(y)
