"""Independent reference solvers for cross-validation.

Three routes that do not go through the iterative scheme:

* `mol_solve` -- a direct method-of-lines integrator for the full
  nonlinear system in fast-time form,

      d/dt u + (1/eps) L u + F[u] = f(t),

  on the IF-RK4 driver `linear_ivp._integrate_filtered` that the linear
  solver also runs (exact free-wave conjugation, dispersive sub-step cap),
  so that the iterative solution can be checked against an entirely
  different solution path sharing only the spatial discretization and the
  time stepper.

* `serre_solitary_wave` -- the closed-form solitary wave of the fully
  nonlinear dispersive system over a flat bottom.  The profile constants
  are frozen from the symbolic derivation in
  ``scripts/derive_solitary_wave.py``; this module only evaluates them.

* `manufactured_residual` -- plugs an arbitrary discrete trajectory into
  the slow-time conservation form of the equations and returns both
  residual rows, for manufactured-solution and perturbation studies.
"""
from __future__ import annotations

import math

import numpy as np

from . import green_naghdi as gn
from .errors import DomainError
from .fourier_scale import (
    SpectralField,
    TrajectoryField,
    field_from_grid,
    time_derivative,
)
from .green_naghdi import GNState, PhysicalParams, apply_bigT, depth_grid, nonlinear_F
from .linear_ivp import IVPData, _integrate_filtered

__all__ = [
    "mol_solve",
    "serre_solitary_wave",
    "manufactured_residual",
]


# ---------------------------------------------------------------- mol_solve


def mol_solve(
    params: PhysicalParams,
    u0: GNState,
    T: float,
    dt: float,
    forcing: TrajectoryField | None = None,
    forcing_fn=None,
    tol: float = 1e-12,
) -> TrajectoryField | list[TrajectoryField]:
    """Direct nonlinear solve of d/dt u + (1/eps) L u + F[u] = f on [0, T].

    Runs the shared IF-RK4 driver `linear_ivp._integrate_filtered` with
    the nonlinear tendency F, i.e. integrates the filtered unknown
    w(t) = U(-t) u(t), for which

        d/dt w = U(-t) [ f(t) - F[U(t) w] ],

    by classical RK4 with the dispersive sub-step cap of the linear
    solver, its stages written in physical variables; each stage's
    elliptic solve starts from the driver's prediction of its solution.
    ``forcing`` is a trajectory aligned with the output grid (linearly
    interpolated at stages); ``forcing_fn`` is a callable t -> packed
    coefficient array evaluated exactly at each stage and takes
    precedence.  Output snapshots are in physical variables.

    The water depth is checked at every output step (and inside every
    elliptic solve); dropping to the admissibility floor aborts with a
    DomainError carrying the failure time.

    A batched `u0` (an ensemble on one grid, horizon and dt, sharing the
    forcing) is integrated as one batch and returns one trajectory per
    member, in member order; each member's trajectory is the one its own
    call would return. It returns trajectories only; `counting()` sums
    their work over the members.
    """
    ivp = IVPData(initial=u0, horizon=T, dt=dt, forcing=forcing, forcing_fn=forcing_fn)
    d = u0.grid.dimension

    def check_depth(t: float, u: np.ndarray) -> None:
        hmins, below = params._min_depths(depth_grid(params, u[d]), strict=True)
        low = np.flatnonzero(below)
        if low.size:
            hmin = float(np.min(hmins))
            who = "" if u0.batch is None else f" in member {', '.join(map(str, low))}"
            raise DomainError(
                f"water depth reached {hmin:.6g} at t={t:g}{who}, at or below the "
                f"floor h0={params.h0:g}; the solution left the admissible set"
            )

    def tendency(t: float, u: GNState, x0: np.ndarray | None) -> GNState:
        try:
            return nonlinear_F(params, u, tol=tol, x0=x0)
        except DomainError as exc:
            raise DomainError(f"{exc} (while evaluating the tendency at t={t:g})") from exc

    return _integrate_filtered(params, ivp, tendency, on_output=check_depth)


# ------------------------------------------------------- solitary reference


def serre_solitary_wave(
    params: PhysicalParams,
    amplitude: float,
    t: float = 0.0,
    center: float | None = None,
) -> GNState:
    """Exact solitary wave of the flat-bottom system, sampled on the grid.

    The traveling profile (certified symbolically by
    ``scripts/derive_solitary_wave.py``) is

        zeta(x, t) = a sech^2( kappa * (x - x_c(t)) ),
        V          = c zeta / (1 + eps zeta),
        c          = sqrt(1 + eps a),
        kappa      = sqrt( 3 eps a / (4 mu (1 + eps a)) ),

    moving at speed c/eps in the fast time variable used by the solvers
    here.  ``center`` is the crest position at t = 0 (default: middle of
    the box); the evaluation distance is wrapped periodically, so
    translation by the box period is exact.  ``amplitude = 0`` returns
    the rest state.

    Raises DomainError for a non-flat bottom, a non-1D grid, a negative
    amplitude (the profile family requires a > 0), or an amplitude whose
    depth violates the admissibility floor.
    """
    grid = params.grid
    if grid.dimension != 1:
        raise DomainError("the solitary-wave reference is one-dimensional")
    if np.any(params.b_grid != 0.0):
        raise DomainError("the solitary-wave reference requires a flat bottom")
    a = float(amplitude)
    if a < 0.0:
        raise DomainError("the solitary-wave family requires amplitude >= 0")
    eps, mu = params.eps, params.mu

    x = grid.axis_coordinates()
    L = grid.domain_length
    if a == 0.0:
        zeta_vals = np.zeros_like(x)
        v_vals = np.zeros_like(x)
    else:
        c = math.sqrt(1.0 + eps * a)
        kappa = math.sqrt(3.0 * eps * a / (4.0 * mu * (1.0 + eps * a)))
        x_c = (L / 2.0 if center is None else float(center)) + (c / eps) * t
        s = np.remainder(x - x_c + L / 2.0, L) - L / 2.0
        zeta_vals = a / np.cosh(kappa * s) ** 2
        v_vals = c * zeta_vals / (1.0 + eps * zeta_vals)
        if 1.0 + eps * np.min(zeta_vals) <= params.h0:
            raise DomainError(
                f"solitary wave of amplitude {a:g} drives the depth to "
                f"{1.0 + eps * float(np.min(zeta_vals)):.6g}, at or below h0={params.h0:g}"
            )
    return GNState(
        V=field_from_grid(grid, v_vals[None]),
        zeta=field_from_grid(grid, zeta_vals[None]),
        t=t,
    )


# -------------------------------------------------- manufactured residuals


def manufactured_residual(
    params: PhysicalParams,
    u_app: TrajectoryField,
    dudt: TrajectoryField | None = None,
    tol: float = 1e-12,
) -> tuple[TrajectoryField, TrajectoryField]:
    """Residual of a trajectory in the slow-time conservation form.

    For an approximate trajectory u = (V, zeta) of the fast-time system
    the defect f := du/dt + (1/eps) L u + F[u] is converted to the
    slow-time rows in which the equations are usually stated:

        R1 = M[h] (eps f_V)      (momentum row, M[h] = h + mu * T[h]),
        r2 = eps f_zeta          (mass row),

    so a trajectory solves the slow-time system exactly iff both vanish.
    The normalization matters when comparing residual sizes: R1 carries
    the elliptic mass operator, it is *not* the velocity-equation defect.

    du/dt is formed by centered differences (second-order one-sided at
    the ends, at least four snapshots required) unless an exact ``dudt``
    trajectory is supplied. All snapshots are evaluated as one batch: one
    batched `nonlinear_F` and one batched mass-operator application. Peak
    memory therefore grows with n_times x grid points (a loop over the
    snapshots would hold one snapshot's temporaries); the batch has been
    measured only on 1D N = 64 trajectories, so a 2D workload should be
    timed before relying on it.
    """
    grid = u_app.grid
    d = grid.dimension
    if dudt is None:
        if u_app.n_times < 4:
            raise DomainError(
                "need at least 4 snapshots for a second-order discrete time "
                "derivative; pass dudt explicitly for shorter trajectories"
            )
        dudt = time_derivative(u_app)
    elif dudt.n_times != u_app.n_times or dudt.snapshots.shape != u_app.snapshots.shape:
        raise DomainError("dudt must match the trajectory in shape and length")

    # all snapshots as one batch, (components, n_times, *shape)
    snaps = u_app.snapshots.swapaxes(0, 1)
    rates = dudt.snapshots.swapaxes(0, 1)
    eps = params.eps
    state = GNState(V=SpectralField(grid, snaps[:d]), zeta=SpectralField(grid, snaps[d : d + 1]))
    F = nonlinear_F(params, state, tol=tol)
    f_V = rates[:d] + F.V.coefficients
    f_V += (1.0 / eps) * gn._grad_c(grid, snaps[d])
    f_z = rates[d : d + 1] + F.zeta.coefficients
    f_z += (1.0 / eps) * gn._div_c(grid, snaps[:d])[None]
    r1 = apply_bigT(params, depth_grid(params, snaps[d]), SpectralField(grid, eps * f_V))
    times = u_app.times
    return (
        TrajectoryField(grid, times, np.ascontiguousarray(r1.coefficients.swapaxes(0, 1))),
        TrajectoryField(grid, times, np.ascontiguousarray((eps * f_z).swapaxes(0, 1))),
    )
