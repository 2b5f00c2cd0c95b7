"""Adapter plugging the shallow-water system into the generic iteration.

The engine works in filtered variables: u_tilde(t) = U(-t) u(t), where U is
the free wave group. In these variables the evolution reads

    d/dt u_tilde + G[t, u_tilde] = h_tilde(t),
    G[t, w] = U(-t) F[U(t) w],      h_tilde(t) = U(-t) h(t),

with F the full nonlinear (plus dispersive-linear) tendency: the stiff
1/eps wave operator is absorbed into the conjugation, so stored filtered
trajectories vary on the slow time scale and their discrete time
derivatives are accurate. The adapter converts between the two pictures:
`linearize` rebuilds frozen physical coefficients from the filtered
iterate, `solve_linearized` conjugates the forcing into physical
variables, runs the integrating-factor solver on its linear interpolation
in time (`TrajectoryField.sample`), and filters the solution back, and
`admissible` checks the depth of the physical snapshots.

`evaluate_G` and `snapshot_norm` follow the engine's batch contract: a
chunk of snapshots is conjugated with one time per member, its tendency is
one batched `nonlinear_F`, and its norms one batched `x_norm_packed`.
"""
from __future__ import annotations

import numpy as np

from .fourier_scale import GridSpec, SpectralField, TrajectoryField, _chunks
from .green_naghdi import (
    GNState,
    LinearizedCoeffs,
    PhysicalParams,
    build_linearized_coeffs,
    depth_grid,
    nonlinear_F,
    x_norm_packed,
)
from .linear_ivp import IVPData, conjugate_trajectory, evolve_packed, solve_linearized
from .nash_moser import ProblemInterface

__all__ = ["GNProblem"]


class GNProblem(ProblemInterface):
    """Shallow-water Cauchy problem in filtered variables.

    initial: physical state at t = 0 (identical in filtered variables).

    The problem is unforced: it keeps the engine's default `forcing`.
    `linearize` builds the substituted coefficients, whose time derivatives
    were eliminated through the equations (see `build_linearized_coeffs`).
    """

    def __init__(
        self,
        params: PhysicalParams,
        initial: GNState,
        tol: float = 1e-12,
    ) -> None:
        self.params = params
        self.grid: GridSpec = initial.grid
        self._initial = initial.packed()
        self.tol = tol

    # -- engine capabilities ------------------------------------------------

    def evaluate_G(self, t: float | np.ndarray, u: SpectralField) -> SpectralField:
        grid, eps = self.grid, self.params.eps
        d = grid.dimension
        phys = evolve_packed(grid, eps, t, u.coefficients)
        state = GNState(V=SpectralField(grid, phys[:d]), zeta=SpectralField(grid, phys[d:]))
        F = nonlinear_F(self.params, state, tol=self.tol)
        packed = np.concatenate([F.V.coefficients, F.zeta.coefficients])
        return SpectralField(grid, evolve_packed(grid, eps, -t, packed))

    def linearize(self, uref: TrajectoryField) -> LinearizedCoeffs:
        phys = conjugate_trajectory(self.params, uref, direction=+1)
        return build_linearized_coeffs(self.params, phys, tol=self.tol)

    def solve_linearized(
        self,
        coeffs: LinearizedCoeffs,
        forcing: TrajectoryField | None,
        initial: SpectralField,
        T: float,
        dt: float,
    ) -> TrajectoryField:
        forcing_phys = (
            None if forcing is None else conjugate_trajectory(self.params, forcing, +1).sample
        )
        ivp = IVPData(
            initial=GNState.from_packed(initial),
            horizon=T,
            dt=dt,
            forcing=forcing_phys,
        )
        sol = solve_linearized(self.params, coeffs, ivp, tol=self.tol)
        # the physical forcing is not needed any more: free it before the
        # conjugation back allocates the filtered solution
        del ivp, forcing_phys
        return conjugate_trajectory(self.params, sol, direction=-1)

    def initial_data(self) -> SpectralField:
        return SpectralField(self.grid, self._initial.coefficients.copy())

    def admissible(self, u: TrajectoryField) -> tuple[bool, str]:
        """Depth check of the physical snapshots, one batched pass per chunk;
        the reported time is the first snapshot at the lowest depth. A
        snapshot whose lowest depth is not finite (NaN as soon as one sample
        is) is inadmissible, and the first such time is reported instead."""
        d = self.grid.dimension
        mins = np.empty(u.n_times)
        below = np.empty(u.n_times, dtype=bool)
        for part in _chunks(u.n_times):
            times = u.times[part]
            phys = evolve_packed(self.grid, self.params.eps, times, u.chunk(part).coefficients)
            mins[part], below[part] = self.params._min_depths(
                depth_grid(self.params, phys[d]), strict=True
            )
        if not below.any():
            return True, ""
        bad = np.flatnonzero(~np.isfinite(mins))
        if bad.size:
            return False, f"water depth not finite at t={float(u.times[bad[0]]):g}"
        i = int(np.argmin(mins))
        return False, (
            f"water depth {float(mins[i]):.6g} at t={float(u.times[i]):g} at or below "
            f"the floor h0={self.params.h0:g}"
        )

    def snapshot_norm(self, u: SpectralField, s: float) -> float | np.ndarray:
        return x_norm_packed(self.params, u, s)
