"""The measurements behind the invariant checks, one body each.

`nmshallow validate` and the acceptance criteria (`tests/test_acceptance.py`)
check the same hypotheses: the smoothing inequalities, coercivity and inverse
bound of h + mu*T, the isometric wave group, integrator order, the flagship
iteration, the solitary-wave residual and mass conservation. Each function
takes its inputs (fields, a generator, sizes, trial counts) and returns the
measured numbers; each caller draws its inputs and keeps its own bounds.
"""
from __future__ import annotations

import math
import time
from collections import namedtuple
from typing import Callable, Sequence

import numpy as np

from .fourier_scale import (
    GridSpec, SpectralField, TrajectoryField, random_field, smooth, sobolev_norm,
    trajectory_norm, zero_field,
)
from .gn_problem import GNProblem
from .green_naghdi import (
    GNState, PhysicalParams, bigT_pairing, depth_check, depth_grid, energy_E, invert_bigT,
)
from .linear_ivp import conjugate_trajectory, evolve_packed
from .nash_moser import compute_schedule, nash_moser_solve
from .reference import manufactured_residual, mol_solve, serre_solitary_wave


def smoothing_bound_check(f: SpectralField, s: float, sp: float, theta: float) -> tuple:
    """(lhs, rhs) of the low-pass boost |S f|_sp <= theta^(sp-s) |f|_s and of
    the high-pass decay |f - S f|_s <= theta^(s-sp) |f|_sp, S = smooth(., theta)."""
    low = smooth(f, theta)
    high = SpectralField(f.grid, f.coefficients - low.coefficients)
    return (
        (sobolev_norm(low, sp), theta ** (sp - s) * sobolev_norm(f, s)),
        (sobolev_norm(high, s), theta ** (s - sp) * sobolev_norm(f, sp)),
    )


def elliptic_bounds(
    grid: GridSpec, rng: np.random.Generator, accepted: int, attempts: int
) -> tuple[int, float, float]:
    """Energy identity and inverse bound of h + mu*T: draws a bathymetry, mu,
    eps and an elevation, and V if `depth_check` admits them, until `accepted`
    draws pass or `attempts` are made. Returns (admissible draws, the least
    (<TV, V> - E(V)^2) / <TV, V> (inf if none), the largest h0 |T^-1 V|_0 / |V|_0)."""
    n_ok = n = 0
    worst_gap, worst_ratio = math.inf, 0.0
    while n_ok < accepted and n < attempts:
        n += 1
        b = random_field(grid, 1, rng, amplitude=0.1, decay=3.0)
        params = PhysicalParams(
            mu=float(rng.uniform(0.05, 0.9)), eps=float(rng.uniform(0.1, 1.0)), b=b
        )
        zeta = random_field(grid, 1, rng, amplitude=0.3, decay=3.0)
        if not depth_check(params, GNState(V=zero_field(grid, 1), zeta=zeta))[0]:
            continue
        n_ok += 1
        h = depth_grid(params, zeta)
        V = random_field(grid, 1, rng, amplitude=1.0, decay=2.0)
        quad = bigT_pairing(params, h, V, V)
        worst_gap = min(worst_gap, (quad - energy_E(params, h, V) ** 2) / max(quad, 1e-300))
        W = invert_bigT(params, h, V, tol=1e-12)
        ratio = sobolev_norm(W, 0.0) / sobolev_norm(V, 0.0)
        worst_ratio = max(worst_ratio, ratio * params.h0)
    return n_ok, worst_gap, worst_ratio


def group_deviation(
    grid: GridSpec, eps: float, u: np.ndarray, t1: float, t2: float, s: float
) -> float:
    """Largest of the identity error |e^{0L} u - u|, the group-law error
    |e^{t2 L} e^{t1 L} u - e^{(t1+t2) L} u| (both sup over coefficients) and
    the relative change of the H^s norm under e^{t1 L}, for packed `u`."""
    u1 = evolve_packed(grid, eps, t1, u)
    ident = np.max(np.abs(evolve_packed(grid, eps, 0.0, u) - u))
    two, one = evolve_packed(grid, eps, t2, u1), evolve_packed(grid, eps, t1 + t2, u)
    group = np.max(np.abs(two - one))
    n0 = sobolev_norm(SpectralField(grid, u), s)
    n1 = sobolev_norm(SpectralField(grid, u1), s)
    return float(max(ident, group, abs(n1 - n0) / n0))


def halving_ratios(
    solve: Callable[[float], TrajectoryField], dts: Sequence[float], dt_ref: float,
    fractions: Sequence[float],
) -> list[float]:
    """Ratios of successive errors of `solve(dt)` for dt in `dts` against
    `solve(dt_ref)`; an error is the largest H^0 gap at the given fractions
    of the horizon."""
    ref = solve(dt_ref)
    errs = []
    for sol in map(solve, dts):
        gaps = [
            sol.snapshots[int(f * (sol.n_times - 1))] - ref.snapshots[int(f * (ref.n_times - 1))]
            for f in fractions
        ]
        errs.append(max(sobolev_norm(SpectralField(sol.grid, g), 0.0) for g in gaps))
    return [a / b for a, b in zip(errs, errs[1:])]


FlagshipRun = namedtuple("FlagshipRun", "params schedule trace u_nm direct elapsed")


def flagship_run(n_nodes: int, dt: float) -> FlagshipRun:
    """The flagship instance to T = 1 (1D, mu = 0.1, eps = sqrt(mu), one
    elevation mode of amplitude 5e-6, a retained band of 1/16 so the top-index
    norms are evaluable in float64) by Nash-Moser and by MoL, both at `dt`:
    params, schedule, trace, the iterate conjugated back to physical variables
    (`u_nm`), the MoL run (`direct`) and the seconds `nash_moser_solve` took."""
    grid = GridSpec(dimension=1, nodes_per_axis=n_nodes, domain_length=2 * math.pi,
                    dealias_fraction=0.0625)
    params = PhysicalParams(mu=0.1, eps=math.sqrt(0.1), b=zero_field(grid))
    zc = np.zeros((1, *grid.shape), dtype=np.complex128)
    zc[0, 1] = zc[0, -1] = 5e-6
    data = GNState(V=zero_field(grid, 1), zeta=SpectralField(grid, zc))
    sched = compute_schedule(m=2, d1=2, d1p=0, D=4, P=38.5, margin=0.5, theta0=10.0)
    problem = GNProblem(params, data)
    t0 = time.perf_counter()
    u_t, trace = nash_moser_solve(problem, sched, 1.0, dt, k_max=25, target_residual=1e-8)
    elapsed = time.perf_counter() - t0
    return FlagshipRun(
        params, sched, trace, conjugate_trajectory(params, u_t, +1),
        mol_solve(params, data, T=1.0, dt=dt), elapsed,
    )


def solitary_residual(params: PhysicalParams, a: float, times: np.ndarray) -> float:
    """sup over `times` of the X^0 manufactured residual of the 1D Serre
    solitary wave of amplitude `a`, with its exact time derivative."""
    grid = params.grid
    c = math.sqrt(1.0 + params.eps * a)
    snaps = np.stack([serre_solitary_wave(params, a, t=float(t)).packed().coefficients
                      for t in times])
    xi = grid.wavenumbers()[0]
    dudt = TrajectoryField(grid, times, -(c / params.eps) * (1j * xi) * snaps)
    R1, r2 = manufactured_residual(params, TrajectoryField(grid, times, snaps), dudt=dudt)
    res = np.concatenate([R1.snapshots, r2.snapshots], axis=1)
    return trajectory_norm(TrajectoryField(grid, times, res), 0.0)


def mass_drift(sol: TrajectoryField) -> float:
    """Largest change of the mean elevation (the last packed component's
    zero mode) from the first snapshot."""
    means = sol.snapshots[:, -1].reshape(sol.n_times, -1)[:, 0]
    return float(np.max(np.abs(means - means[0])))
