"""Time integration for the linearized shallow-water system.

Two pieces live here. First, the exact evolution group of the singular
constant-coefficient wave part: the system d/dt u + (1/eps) L u = 0 with
L = [[0, grad], [div, 0]] diagonalizes per Fourier mode, so it is applied
as a closed-form rotation — no time stepping, no stability constraint,
and every Sobolev norm is preserved exactly.

Second, an integrating-factor solver for the full linearized Cauchy
problem d/dt v + (1/eps) L v + K(t) v = f: substituting w(t) = U(-t) v(t)
removes the stiff 1/eps wave operator exactly, and the remaining bounded,
time-dependent operator is advanced with the classical 4-stage explicit
Runge-Kutta scheme. Its stages are written in the physical variable v
(the Lawson form of the same scheme), so that a sub-step applies the wave
group twice, each time to a pair of arrays stacked along the batch axis,
and the output needs no conjugation. The only residual stiffness is the
dispersive correction frequency, which stays bounded by the band cutoff;
an internal sub-step cap keeps RK4 inside its stability interval without
changing the output time grid.

Both integrators of the package run on one private IF-RK4 driver,
`_integrate_filtered`: `solve_linearized` hands it the linearized operator
K(t) and `reference.mol_solve` the nonlinear tendency F. The driver owns the
output grid, the sub-step split, the four RK4 stages, the predicted starts
of the stages' elliptic solves and the growth guard, and returns
trajectories only (`green_naghdi.counting()` counts the work). The caller
owns the forcing: a callable t -> packed coefficients that the driver calls
at the stage times (a forcing held as a trajectory is passed as its
`TrajectoryField.sample`). The driver also carries the batch axis of
`GNState`: a batched initial state (an ensemble on one grid, horizon and
dt) advances all members through the same stages, with one batched
tendency call per stage, the growth guard and its floor applied per
member, and one trajectory returned per member; a single state is a batch
of one. `evolve_packed` takes a packed array with or without the batch
axis, and for a batch one time per member (a chunk of a trajectory's
snapshots conjugated in one call).

Per-mode rotation, derived once
-------------------------------
For wavevector xi != 0 write Vhat = a * (xi/|xi|) + (transverse part); the
transverse part is annihilated by both grad and div and does not move. The
longitudinal pair obeys

    d/dt a     = -(i |xi| / eps) zetahat,
    d/dt zetahat = -(i |xi| / eps) a,

whose solution with omega = |xi|/eps is

    a(t)       = a0 cos(omega t) - i zetahat0 sin(omega t),
    zetahat(t) = zetahat0 cos(omega t) - i a0 sin(omega t).

The xi = 0 mode is invariant. cos is even and sin is odd, so negative t
(the inverse group element) needs no special casing, and the map preserves
the Hermitian symmetry of real fields because the unit vector xi/|xi| is
odd under xi -> -xi.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import StepSizeError
from .fourier_scale import GridSpec, SpectralField, TrajectoryField, _chunks, _uniform_steps
from .green_naghdi import GNState, LinearizedCoeffs, PhysicalParams, _count, apply_K

__all__ = [
    "IVPData",
    "evolve_packed",
    "conjugate_trajectory",
    "dispersive_dt_cap",
    "solve_linearized",
]


# ----------------------------------------------------------- free evolution


def evolve_packed(
    grid: GridSpec, eps: float, t: float | np.ndarray, coeffs: np.ndarray
) -> np.ndarray:
    """Apply the free wave group to a packed coefficient array.

    `coeffs` has shape (d+1, *grid.shape), or (d+1, B, *grid.shape) for a
    batch: velocity components first, elevation last. `t` is one time for
    every member, or for a batch a (B,) array with one time per member.
    Returns a new array; the input is not modified. A member at t == 0 is
    returned as an exact copy (signed zeros included), and every member has
    the bits of its own single call.
    """
    d = grid.dimension
    batched = coeffs.ndim == d + 2
    if coeffs.shape[0] != d + 1 or coeffs.shape[1 + batched :] != grid.shape:
        raise ValueError(f"packed array shape {coeffs.shape} does not match grid")
    if getattr(t, "ndim", 0):  # one time per member
        times = np.asarray(t, dtype=np.float64)
        if not batched or times.shape != coeffs.shape[1:2]:
            raise ValueError(f"times of shape {times.shape} do not match array {coeffs.shape}")
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
    # (along, zeta) stacked, so that cos and sin each multiply both at once
    pair = np.empty((2, *coeffs.shape[1:]), dtype=np.complex128)
    along = pair[0]
    if d == 1:  # unit is sign(xi); += 0.0 turns -0.0 into +0.0 as the einsum's sum does
        np.multiply(unit[0], V[0], out=along)
        along += 0.0
    else:
        np.einsum("i...,i...->...", unit, V, out=along)
    pair[1] = coeffs[d]
    cos_pair = cos_v * pair
    sin_pair = sin_v * pair
    sin_pair *= 1j
    out = np.empty_like(coeffs)
    np.subtract(cos_pair[1], sin_pair[0], out=out[d])  # cos zeta - i sin along
    delta = np.subtract(cos_pair[0], sin_pair[1], out=cos_pair[0])  # a_new
    delta -= along
    np.multiply(delta[None], unit, out=out[:d])
    out[:d] += V
    if still is not None and still.any():
        out[:, still] = coeffs[:, still]
    return out


def conjugate_trajectory(
    params: PhysicalParams, traj: TrajectoryField, direction: int
) -> TrajectoryField:
    """Apply U(direction * t_i) to every snapshot, one batched call per chunk.

    direction=-1 maps a physical solution v(t) to the filtered unknown
    w(t) = U(-t) v(t); direction=+1 maps back. Chunks (`_chunks`) keep the
    temporaries of `evolve_packed` small next to the trajectory itself.
    """
    if direction not in (-1, 1):
        raise ValueError("direction must be +1 or -1")
    out = np.empty_like(traj.snapshots)
    for part in _chunks(traj.n_times):
        moved = evolve_packed(
            traj.grid, params.eps, direction * traj.times[part], traj.chunk(part).coefficients
        )
        out[part] = moved.swapaxes(0, 1)
    return TrajectoryField(traj.grid, traj.times.copy(), out)


# -------------------------------------------------------------- IVP problem


@dataclass
class IVPData:
    """Data for the linearized initial-value problem.

    initial: state at t = 0.
    horizon: final time T > 0.
    dt: output time step, a divisor of the horizon (the solver may sub-step
        internally but always reports on this grid).
    forcing: right-hand side, a callable t -> packed coefficients
        (F1 components, f2) called at every Runge-Kutta stage time; None
        means zero forcing. Its samples must be band-limited: the driver
        adds them as given. F1 is the mass-adjusted velocity forcing, i.e.
        the right side after the mass matrix has been divided out.

    A (horizon, dt) pair that `_uniform_steps` refuses raises its
    ValueError here.
    """

    initial: GNState
    horizon: float
    dt: float
    forcing: Callable[[float], np.ndarray] | None = None

    def __post_init__(self) -> None:
        _uniform_steps(self.horizon, self.dt)


#: Largest h * |K_max| that `dispersive_dt_cap` allows (see its docstring).
_DT_CAP_SAFETY = 0.5


def dispersive_dt_cap(params: PhysicalParams, grid: GridSpec) -> float:
    """Largest stable RK4 step for the filtered system.

    The integrating factor removes the non-dispersive wave operator exactly,
    but the remaining bounded operator still contains the dispersive
    correction, whose flat-state symbol at wavenumber xi has magnitude

        |K(xi)| = (|xi|/eps) * tau/(1 + tau),    tau = mu |xi|^2 / 3,

    and whose conjugation by the wave group makes the filtered coefficients
    oscillate at ~2|xi|/eps. Explicit RK4 on such an oscillatory linear
    system is parametrically unstable once h * |K| at the band cutoff
    approaches 1 (measured blow-up threshold h*|K| in [0.7, 1.1]); the
    cap keeps h * |K_max| <= 0.5. For mu -> 0 the correction vanishes
    and the cap is infinite.
    """
    k_c = grid.dealias_cutoff_index
    xi_c = 2.0 * math.pi * k_c / grid.domain_length
    if grid.dimension == 2:
        xi_c *= math.sqrt(2.0)
    tau = params.mu * xi_c**2 / 3.0
    k_mag = (xi_c / params.eps) * tau / (1.0 + tau)
    if k_mag <= 0.0:
        return math.inf
    return _DT_CAP_SAFETY / k_mag


def _integrate_filtered(
    params: PhysicalParams,
    ivp: IVPData,
    tendency: Callable[[float, GNState, np.ndarray | None], GNState],
    on_output: Callable[[float, np.ndarray], None] | None = None,
) -> TrajectoryField | list[TrajectoryField]:
    """IF-RK4 driver shared by `solve_linearized` and `reference.mol_solve`.

    Integrates d/dt v + (1/eps) L v + G(t, v) = f on [0, T], where G is
    `tendency(t, state, x0)`: classical RK4 applied to the filtered unknown
    w(t) = U(-t) v(t),

        d/dt w = U(-t) [ f(t) - G(t, U(t) w) ],   v(t) = U(t) w(t),

    with its stages written in the physical variable v (the Lawson form;
    Lawson, SIAM J. Numer. Anal. 4 (1967) 372-380). With E = U(h/2) and
    k = f - G, a sub-step from v is

        (Ev, Ek1) = E [v, k1],                      k1 = k(t, v),
        k2 = k(t + h/2, Ev + (h/2) Ek1),  k3 = k(t + h/2, Ev + (h/2) k2),
        (U4, P) = E [Ev + h k3, Ev + (h/6)(Ek1 + 2 k2 + 2 k3)],
        k4 = k(t + h, U4),   v+ = P + (h/6) k4,

    which is the w-form RK4 step conjugated back: the same scheme, the same
    stages, to rounding. Each sub-step makes two `evolve_packed` calls, on
    pairs stacked along the batch axis, and the output snapshots need no
    conjugation. If the requested dt exceeds the dispersive stability cap
    the step is split into equal sub-steps internally; the output grid is
    unchanged. `on_output(t, v)` sees every output snapshot (physical
    variables, shape (d+1, B, *shape)), the initial one included, and may
    raise.

    The tendency's velocity row is the solution X of its elliptic solve,
    and `x0` predicts it (None: a cold start): k1 starts from the previous
    sub-step's X4, k2 from 1.5 X1 - 0.5 X1 of the previous sub-step (X1 on
    the first), k3 from X2, and k4 from 2 X3 - X1, linear extrapolations
    in time. A direct solve ignores the start.

    A batched initial state (`GNState.batch`) advances all its members in
    the same stages: `tendency` receives and returns batched states and the
    forcing is shared by all members. A single initial state is a batch of
    one whose tendency sees single states, since `solve_linearized`'s
    tendency `apply_K` is single-field.

    Returns the physical trajectory only (a list of one trajectory per
    member, in member order, for a batch); `counting()` counts its sub-steps.
    Raises StepSizeError when a step produces non-finite values or takes a
    member's solution norm above 10 (norm_prev + dt * max|f|): ten times its
    previous norm plus what the forcing alone can add over one output step,
    with max|f| the largest forcing sample so far. A member below a floor
    set by its initial norm is exempt from the growth test.
    """
    grid = ivp.initial.grid
    d = grid.dimension
    eps = params.eps
    n_steps = _uniform_steps(ivp.horizon, ivp.dt)
    dt_out = ivp.horizon / n_steps

    cap = dispersive_dt_cap(params, grid)
    n_sub = max(1, int(math.ceil(dt_out / cap - 1e-12)))
    h = dt_out / n_sub

    single = ivp.initial.batch is None
    v = grid.project(ivp.initial.packed().coefficients)
    if single:
        v = v[:, None]
    members = v.shape[1]
    packed_shape = v.shape
    state_shape = (d + 1, *grid.shape) if single else packed_shape
    out = np.empty((members, n_steps + 1, d + 1, *grid.shape), dtype=np.complex128)
    out[:, 0] = v.swapaxes(0, 1)
    if on_output is not None:
        on_output(0.0, v)

    forcing_scale = 0.0  # max|f| of the growth test: the largest sample so far
    norm_prev = [float(np.linalg.norm(v[:, m])) for m in range(members)]
    norm_floor = [1e-13 * (1.0 + norm) for norm in norm_prev]

    def rhs(t: float, v_arr: np.ndarray, x0: np.ndarray | None):
        """k = f - G at (t, v_arr), and the tendency's elliptic solution."""
        nonlocal forcing_scale
        v_arr = v_arr.reshape(state_shape)
        state = GNState(
            V=SpectralField(grid, v_arr[:d]),
            zeta=SpectralField(grid, v_arr[d : d + 1]),
        )
        G = tendency(t, state, x0)
        k = -np.concatenate([G.V.coefficients, G.zeta.coefficients]).reshape(packed_shape)
        if ivp.forcing is not None:
            f_val = ivp.forcing(t)
            k += f_val[:, None]
            forcing_scale = max(forcing_scale, float(np.linalg.norm(f_val)))
        return k, G.V.coefficients

    # the pairs that E = U(h/2) moves in one call, stacked along the batch axis
    pair = np.empty((d + 1, 2 * members, *grid.shape), dtype=np.complex128)
    first, second = pair[:, :members], pair[:, members:]
    X4 = X1_prev = None
    for n in range(n_steps):
        t_n = n * dt_out
        for j in range(n_sub):
            t0 = t_n + j * h
            k1, X1 = rhs(t0, v, X4)
            first[...] = v
            second[...] = k1
            moved = evolve_packed(grid, eps, 0.5 * h, pair)
            Ev, Ek1 = moved[:, :members], moved[:, members:]
            start = X1 if X1_prev is None else 1.5 * X1 - 0.5 * X1_prev
            # a stage array is freed once no later stage reads it, so that a
            # sub-step holds about as much memory as the w-form's did
            del v, k1, X4, X1_prev
            k2, X2 = rhs(t0 + 0.5 * h, Ev + (0.5 * h) * Ek1, start)
            del start
            k3, X3 = rhs(t0 + 0.5 * h, Ev + (0.5 * h) * k2, X2)
            np.add(Ev, h * k3, out=first)
            np.add(Ev, (h / 6.0) * (Ek1 + 2.0 * k2 + 2.0 * k3), out=second)
            del moved, Ev, Ek1, k2, k3, X2
            moved = evolve_packed(grid, eps, 0.5 * h, pair)
            k4, X4 = rhs(t0 + h, moved[:, :members], 2.0 * X3 - X1)
            v = moved[:, members:] + (h / 6.0) * k4
            X1_prev = X1
        _count(rk_substeps=n_sub)
        t_next = (n + 1) * dt_out
        for m in range(members):
            norm_now = float(np.linalg.norm(v[:, m]))
            who = "" if single else f" of member {m}"
            if not math.isfinite(norm_now):
                raise StepSizeError(
                    f"non-finite solution{who} after step {n + 1} (t={t_next:g}); "
                    f"reduce dt (current {dt_out:g}, {n_sub} internal sub-steps)"
                )
            # the forcing may add dt*max|f| in a step (Duhamel): not instability
            bound = 10.0 * (norm_prev[m] + dt_out * forcing_scale)
            if norm_prev[m] > norm_floor[m] and norm_now > bound:
                raise StepSizeError(
                    f"solution norm{who} grew {norm_now / norm_prev[m]:.2f}x in one step "
                    f"at t={t_next:g}; the step size dt={dt_out:g} is unstable"
                )
            norm_prev[m] = norm_now
        out[:, n + 1] = v.swapaxes(0, 1)
        if on_output is not None:
            on_output(t_next, v)

    times = np.linspace(0.0, ivp.horizon, n_steps + 1)
    trajectories = [TrajectoryField(grid, times.copy(), snaps) for snaps in out]
    return trajectories[0] if single else trajectories


def solve_linearized(
    params: PhysicalParams,
    coeffs: LinearizedCoeffs,
    ivp: IVPData,
    tol: float = 1e-12,
) -> TrajectoryField:
    """Integrate the linearized system on [0, T] and return v on the grid.

    Runs the shared IF-RK4 driver `_integrate_filtered` with G = K(t):
    one elliptic solve per stage, started from the driver's prediction of
    its solution (see `_integrate_filtered`). Time-dependent coefficients
    are interpolated linearly between their snapshots; a stage at the same
    time as the one before it (RK4's k3 after k2) reuses that stage's
    interpolation.

    Returns the trajectory only. Raises StepSizeError when a step produces
    non-finite values or takes the solution norm above
    10 (norm_prev + dt * max|f|); see `_integrate_filtered`.
    """
    memo_t: float | None = None
    memo: dict[str, np.ndarray] = {}

    def tendency(t: float, v: GNState, x0: np.ndarray | None) -> GNState:
        nonlocal memo_t, memo
        if t != memo_t:
            memo_t, memo = t, coeffs.at_time(float(t))
        return apply_K(coeffs, params, t, v, tol=tol, x0=x0, coeffs_t=memo)

    return _integrate_filtered(params, ivp, tendency)
