"""The shallow-water adapter that plugs the PDE into the generic engine."""
import math

import numpy as np
import pytest

from nmshallow.errors import DomainError
from nmshallow.fourier_scale import (
    GridSpec,
    SpectralField,
    TrajectoryField,
    random_field,
    zero_field,
)
from nmshallow.gn_problem import GNProblem
from nmshallow.green_naghdi import (
    GNState,
    PhysicalParams,
    depth_check,
    depth_grid,
    nonlinear_F,
    x_norm_packed,
)
from nmshallow.linear_ivp import evolve_packed
from nmshallow.nash_moser import check_induction, compute_schedule, nash_moser_solve
from nmshallow.reference import mol_solve


def _small_state(grid, rng, amplitude=0.05):
    return GNState(
        V=random_field(grid, grid.dimension, rng, amplitude=amplitude, decay=4.0),
        zeta=random_field(grid, 1, rng, amplitude=amplitude, decay=4.0),
    )


@pytest.fixture
def problem1d(grid1d, params1d, rng):
    return GNProblem(params1d, _small_state(grid1d, rng))


def test_tendency_matches_direct_evaluation_at_t0(grid1d, params1d, problem1d):
    u = problem1d.initial_data()
    got = problem1d.evaluate_G(0.0, u)
    F = nonlinear_F(params1d, GNState.from_packed(u))
    want = np.concatenate([F.V.coefficients, F.zeta.coefficients])
    assert np.max(np.abs(got.coefficients - want)) < 1e-12


def test_tendency_conjugation_identity(grid1d, params1d, rng):
    # filtered tendency at time t must equal U(-t) F[u_phys] when fed the
    # filtered snapshot U(-t) u_phys
    prob = GNProblem(params1d, _small_state(grid1d, rng))
    phys = _small_state(grid1d, rng).packed().coefficients
    t = 0.7
    filt = evolve_packed(grid1d, params1d.eps, -t, phys)
    got = prob.evaluate_G(t, SpectralField(grid1d, filt))
    F = nonlinear_F(params1d, GNState.from_packed(SpectralField(grid1d, phys)))
    want = evolve_packed(
        grid1d,
        params1d.eps,
        -t,
        np.concatenate([F.V.coefficients, F.zeta.coefficients]),
    )
    assert np.max(np.abs(got.coefficients - want)) < 1e-11


def test_problem_is_unforced(problem1d):
    assert problem1d.forcing(np.array([0.0, 0.3, 0.6])) is None


def test_initial_data_is_defensive_copy(problem1d):
    a = problem1d.initial_data()
    a.coefficients[:] = 0.0
    b = problem1d.initial_data()
    assert np.any(b.coefficients)


def test_admissible_reports_depth_and_floor(grid1d, params1d, rng):
    prob = GNProblem(params1d, _small_state(grid1d, rng))
    from nmshallow.fourier_scale import TrajectoryField

    ok_state = _small_state(grid1d, rng).packed().coefficients
    traj = TrajectoryField(
        grid1d, np.array([0.0, 0.1, 0.2]), np.stack([ok_state] * 3)
    )
    ok, why = prob.admissible(traj)
    assert ok and why == ""

    deep = _small_state(grid1d, rng, amplitude=5.0).packed().coefficients
    bad = TrajectoryField(grid1d, np.array([0.0, 0.1, 0.2]), np.stack([deep] * 3))
    ok, why = prob.admissible(bad)
    assert not ok
    assert "depth" in why and "h0" in why


def test_admissible_rejects_non_finite_depth(grid1d, params1d, rng):
    from nmshallow.fourier_scale import TrajectoryField

    prob = GNProblem(params1d, _small_state(grid1d, rng))
    times = np.array([0.0, 0.1, 0.2, 0.3])
    nan_state = np.full((2, grid1d.nodes_per_axis), np.nan, dtype=np.complex128)
    ok, why = prob.admissible(TrajectoryField(grid1d, times, np.stack([nan_state] * 4)))
    assert not ok
    assert why == "water depth not finite at t=0"

    # one NaN snapshot among admissible ones
    snaps = np.stack([_small_state(grid1d, rng).packed().coefficients for _ in range(4)])
    assert prob.admissible(TrajectoryField(grid1d, times, snaps)) == (True, "")
    snaps[2, 1, 5] = np.nan  # one elevation coefficient
    ok, why = prob.admissible(TrajectoryField(grid1d, times, snaps))
    assert not ok
    assert why == "water depth not finite at t=0.2"


def test_depth_floors_operators_accept_h0_and_trajectory_checks_reject_it():
    # zeta = -1 and eps = 0.5 on a flat bottom give h = h0 = 0.5 exactly. The
    # operators tolerate the floor itself (their depth has been through a
    # transform); the checks of a state or trajectory are strict.
    grid = GridSpec(dimension=1, nodes_per_axis=16, domain_length=2 * math.pi)
    params = PhysicalParams(mu=0.3, eps=0.5, b=zero_field(grid), h0=0.5)
    zeta = zero_field(grid)
    zeta.coefficients[0, 0] = -1.0
    state = GNState(V=zero_field(grid, 1), zeta=zeta)
    assert np.all(depth_grid(params, zeta) == params.h0)

    nonlinear_F(params, state)
    assert depth_check(params, state) == (False, 0.5)
    traj = TrajectoryField(grid, np.array([0.0, 0.1]), np.stack([state.packed().coefficients] * 2))
    ok, why = GNProblem(params, state).admissible(traj)
    assert not ok
    assert why == "water depth 0.5 at t=0 at or below the floor h0=0.5"
    with pytest.raises(DomainError, match="^water depth reached 0.5 at t=0, at or below"):
        mol_solve(params, state, 0.1, 0.05)


def test_snapshot_norm_is_scaled_velocity_elevation_norm(grid1d, params1d, problem1d, rng):
    u = random_field(grid1d, 2, rng, amplitude=0.2, decay=2.0)
    assert problem1d.snapshot_norm(u, 3.5) == x_norm_packed(params1d, u, 3.5)


def test_small_amplitude_instance_converges_with_clean_induction():
    # miniature of the flagship run: tiny single-mode datum, aggressive
    # low-pass band so the highest audited scale index stays in range
    grid = GridSpec(
        dimension=1, nodes_per_axis=32, domain_length=2 * math.pi, dealias_fraction=0.125
    )
    mu = 0.1
    params = PhysicalParams(mu=mu, eps=math.sqrt(mu), b=zero_field(grid))
    zc = np.zeros((1, 32), dtype=np.complex128)
    zc[0, 1] = zc[0, -1] = 5e-6
    state = GNState(V=zero_field(grid, 1), zeta=SpectralField(grid, zc))
    prob = GNProblem(params, state)
    sch = compute_schedule(2, 2, 0, 4, 38.5, margin=0.5, theta0=10.0)
    u, trace = nash_moser_solve(prob, sch, 1.0, 0.01, k_max=6, target_residual=1e-8)
    assert trace.stop_reason == "converged"
    assert trace.residual_F[-1] <= 1e-8
    rep = check_induction(trace, sch)
    assert rep["first_failure"] == {"prop_i": None, "prop_ii": None, "prop_iii": None}
    # the converged filtered trajectory still starts at the datum
    assert np.max(np.abs(u.snapshots[0] - state.packed().coefficients)) < 1e-10
