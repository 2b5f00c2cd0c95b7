"""Nash-Moser snapshot passes: batched chunks against per-snapshot loops.

The engine evaluates the tendency, the scale norms, the admissibility check
and the linearization of a whole trajectory in chunks of snapshots, one
batched call per chunk. The per-snapshot loops these passes replaced are kept
below as references; every comparison is byte for byte (`tobytes` or `==`
on floats and messages). The chunk size is shrunk so that the trajectories
span several chunks, with a short last one.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nmshallow import fourier_scale, gn_problem, nash_moser
from nmshallow import green_naghdi as gn
from nmshallow.errors import DomainError
from nmshallow.fourier_scale import (
    GridSpec,
    SpectralField,
    TrajectoryField,
    random_field,
    trajectory_norm,
    zero_field,
)
from nmshallow.gn_problem import GNProblem
from nmshallow.green_naghdi import (
    GNState,
    PhysicalParams,
    build_linearized_coeffs,
    depth_grid,
    nonlinear_F,
)
from nmshallow.linear_ivp import evolve_packed

CASES = [(1, 64, True), (2, 16, False)]
CASE_IDS = ["1d-flat", "2d-bathymetry"]
N_TIMES = 11
SMALL_CHUNK = 4


@pytest.fixture
def small_chunks(monkeypatch):
    monkeypatch.setattr(fourier_scale, "_CHUNK", SMALL_CHUNK)


def _case(dim, n, flat, seed=20240817):
    """Params and a filtered trajectory of N_TIMES random snapshots from t = 0."""
    grid = GridSpec(dimension=dim, nodes_per_axis=n, domain_length=2 * math.pi)
    rng = np.random.default_rng(seed)
    b = zero_field(grid) if flat else random_field(grid, 1, rng, amplitude=0.05, decay=5.0)
    params = PhysicalParams(mu=0.3, eps=0.5, b=b)
    snaps = np.stack(
        [
            random_field(grid, dim + 1, rng, amplitude=0.05, decay=4.0).coefficients
            for _ in range(N_TIMES)
        ]
    )
    return params, TrajectoryField(grid, 0.05 * np.arange(N_TIMES), snaps)


def _problem(params, traj):
    datum = GNState.from_packed(SpectralField(traj.grid, traj.snapshots[0]))
    return GNProblem(params, datum)


# ------------------------------------------------------ per-snapshot references


def _evaluate_G_loop(problem, t, snap):
    """GNProblem.evaluate_G on one snapshot, as it was written per snapshot."""
    grid, eps = problem.grid, problem.params.eps
    phys = evolve_packed(grid, eps, t, snap)
    state = GNState.from_packed(SpectralField(grid, phys))
    F = nonlinear_F(problem.params, state, tol=problem.tol)
    packed = np.concatenate([F.V.coefficients, F.zeta.coefficients])
    return evolve_packed(grid, eps, -t, packed)


def _sobolev_norm_loop(u, s):
    """sobolev_norm of one field, as it was written before the batch helper."""
    w = u.grid.sobolev_weights(s)
    abs2 = np.ascontiguousarray(
        (u.coefficients.real**2 + u.coefficients.imag**2).reshape(u.components, -1).sum(axis=0)
    )
    vol = u.grid.domain_length**u.grid.dimension
    return math.sqrt(vol * float(np.dot(abs2, w)))


def _x_norm_loop(params, snap, s):
    grid = params.grid
    d = grid.dimension
    divV = SpectralField(grid, gn._div_c(grid, snap[:d])[None])
    return (
        _sobolev_norm_loop(SpectralField(grid, snap[:d]), s)
        + math.sqrt(params.mu) * _sobolev_norm_loop(divV, s)
        + _sobolev_norm_loop(SpectralField(grid, snap[d:]), s)
    )


def _admissible_loop(problem, u):
    d = problem.grid.dimension
    h0 = problem.params.h0
    worst = np.inf
    worst_t = 0.0
    for i in range(u.n_times):
        t = float(u.times[i])
        phys = evolve_packed(problem.grid, problem.params.eps, t, u.snapshots[i])
        hmin = float(np.min(depth_grid(problem.params, phys[d])))
        if hmin < worst:
            worst, worst_t = hmin, t
    if worst <= h0:
        return False, f"water depth {worst:.6g} at t={worst_t:g} at or below the floor h0={h0:g}"
    return True, ""


def _linearized_coeffs_loop(params, uref, substituted, tol=1e-12):
    """build_linearized_coeffs with its per-snapshot loops; returns the
    coefficient arrays by name."""
    grid = uref.grid
    d = grid.dimension
    nt = uref.n_times
    eps = params.eps
    _dc, _gc, _dot = gn._div_c, gn._grad_c, gn._dot_g

    Vc = uref.snapshots[:, :d]
    zc = uref.snapshots[:, d]
    Vbar = grid.to_grid(Vc)
    zetabar = grid.to_grid(zc)
    hbar = 1.0 + eps * (zetabar - params.b_grid[None])
    for k in range(nt):
        gn._require_admissible(params, hbar[k], f"build_linearized_coeffs (snapshot {k})")
    dtVbar = gn._time_derivative_arrays(Vbar, uref.time_step)

    divVbar = np.empty((nt, *grid.shape))
    gradVbar = np.empty((nt, d, d, *grid.shape))
    graddivVbar = np.empty((nt, d, *grid.shape))
    grad_vbarbeta = np.empty((nt, d, *grid.shape))
    grad_zetabar = np.empty((nt, d, *grid.shape))
    gbeta = params.grad_beta_grid
    for k in range(nt):
        div_c = _dc(grid, Vc[k])
        divVbar[k] = grid.to_grid(div_c)
        graddivVbar[k] = grid.to_grid(_gc(grid, div_c))
        for i in range(d):
            gradVbar[k, i] = grid.to_grid(_gc(grid, Vc[k, i]))
        grad_vbarbeta[k] = grid.to_grid(_gc(grid, grid.from_grid(_dot(gbeta, Vbar[k]))))
        grad_zetabar[k] = grid.to_grid(_gc(grid, zc[k]))

    abar = np.empty((nt, *grid.shape))
    bbar = np.empty((nt, d, *grid.shape))
    for k in range(nt):
        vgrad2_beta = _dot(Vbar[k], grad_vbarbeta[k])
        d_vbar_div = -_dot(Vbar[k], graddivVbar[k]) + divVbar[k] ** 2
        advect = np.stack([_dot(Vbar[k], gradVbar[k, i]) for i in range(d)])
        if substituted:
            abar[k] = (
                eps * hbar[k] * d_vbar_div
                + vgrad2_beta
                + eps * _dot(gbeta, dtVbar[k])
                - eps * hbar[k] * grid.to_grid(_dc(grid, grid.from_grid(dtVbar[k])))
            )
            bbar[k] = (
                eps * advect
                + (eps * dtVbar[k] + grad_zetabar[k])
                + params.mu * abar[k][None] * gbeta
            )
        else:
            state = GNState(
                V=SpectralField(grid, Vc[k].copy()), zeta=SpectralField(grid, zc[k][None].copy())
            )
            F1g = grid.to_grid(nonlinear_F(params, state, tol=tol).V.coefficients)
            wg = grad_zetabar[k] + eps * F1g
            div_w = grid.to_grid(_dc(grid, grid.from_grid(wg)))
            abar[k] = eps * hbar[k] * d_vbar_div + vgrad2_beta - _dot(gbeta, wg) + hbar[k] * div_w
            bbar[k] = eps * advect - eps * F1g + params.mu * abar[k][None] * gbeta
    return {
        "Vbar": Vbar, "zetabar": zetabar, "hbar": hbar, "abar": abar, "bbar": bbar,
        "divVbar": divVbar, "gradVbar": gradVbar, "graddivVbar": graddivVbar,
        "grad_vbarbeta": grad_vbarbeta,
    }


# ---------------------------------------------------------- engine contract


@pytest.mark.usefixtures("small_chunks")
@pytest.mark.parametrize("dim,n,flat", CASES, ids=CASE_IDS)
def test_batched_evaluate_G_matches_snapshot_loop(dim, n, flat):
    params, traj = _case(dim, n, flat)
    problem = _problem(params, traj)
    got = nash_moser._tendency_trajectory(problem, traj.times, traj.snapshots)
    for i, (t, snap) in enumerate(zip(traj.times, traj.snapshots)):
        want = _evaluate_G_loop(problem, float(t), snap)
        assert got[i].tobytes() == want.tobytes(), f"snapshot {i}"
    # a single snapshot is the unbatched case of the same call
    single = problem.evaluate_G(float(traj.times[3]), SpectralField(traj.grid, traj.snapshots[3]))
    assert single.batch is None and single.coefficients.tobytes() == got[3].tobytes()


@pytest.mark.usefixtures("small_chunks")
@pytest.mark.parametrize("dim,n,flat", CASES, ids=CASE_IDS)
def test_batched_snapshot_norms_match_snapshot_loop(dim, n, flat):
    params, traj = _case(dim, n, flat)
    problem = _problem(params, traj)
    s = 3.5
    want_x = [_x_norm_loop(params, snap, s) for snap in traj.snapshots]
    want_h = [_sobolev_norm_loop(SpectralField(traj.grid, snap), s) for snap in traj.snapshots]
    batch = problem.snapshot_norm(traj.chunk(slice(None)), s)
    default = nash_moser.ProblemInterface.snapshot_norm(problem, traj.chunk(slice(None)), s)
    assert list(batch) == want_x
    assert list(default) == want_h
    for i, snap in enumerate(traj.snapshots):
        field = SpectralField(traj.grid, snap)
        assert problem.snapshot_norm(field, s) == want_x[i]
        assert nash_moser.ProblemInterface.snapshot_norm(problem, field, s) == want_h[i]
        assert fourier_scale.sobolev_norm(field, s) == want_h[i]
    # the chunked trajectory norms see the same per-snapshot values
    assert trajectory_norm(traj, s, snapshot_norm=problem.snapshot_norm) == max(want_x)
    assert trajectory_norm(traj, s) == max(want_h)


def _depth_trajectory(params, traj, levels):
    """`traj` with snapshot i replaced by a state of constant elevation
    levels[i] wherever levels[i] is not None: its depth minimum then has the
    same bits at every time, which makes exact ties."""
    grid = traj.grid
    snaps = traj.snapshots.copy()
    for i, level in enumerate(levels):
        if level is not None:
            snaps[i] = 0.0
            snaps[i][(grid.dimension,) + (0,) * grid.dimension] = level
    return TrajectoryField(grid, traj.times, snaps)


@pytest.mark.usefixtures("small_chunks")
@pytest.mark.parametrize("dim,n,flat", CASES, ids=CASE_IDS)
@pytest.mark.parametrize(
    "levels",
    [
        [None] * N_TIMES,
        # a tie of the lowest depth across two chunks: the first one is reported
        [None, None, -1.2, None, None, None, -1.2, None, -1.1, None, None],
        # the lowest depth at t = 0, tied by a later snapshot
        [-1.3, None, None, None, None, None, None, None, None, -1.3, None],
        # low, but above the floor
        [None, -0.9, None, None, None, None, None, None, None, None, -0.9],
    ],
    ids=["admissible", "tie", "t0", "above-floor"],
)
def test_batched_admissible_matches_snapshot_loop(dim, n, flat, levels):
    params, traj = _case(dim, n, flat)
    problem = _problem(params, traj)
    u = _depth_trajectory(params, traj, levels)
    assert problem.admissible(u) == _admissible_loop(problem, u)


@pytest.mark.usefixtures("small_chunks")
def test_admissible_names_the_first_lowest_snapshot():
    params, traj = _case(1, 64, True)
    problem = _problem(params, traj)
    u = _depth_trajectory(params, traj, [None, None, -1.2, None, None, None, -1.2] + [None] * 4)
    assert problem.admissible(u) == (
        False, "water depth 0.4 at t=0.1 at or below the floor h0=0.5"
    )


# ------------------------------------------------------------ linearization


@pytest.mark.usefixtures("small_chunks")
@pytest.mark.parametrize("substituted", [True, False], ids=["substituted", "exact"])
@pytest.mark.parametrize("dim,n,flat", CASES, ids=CASE_IDS)
def test_linearized_coeffs_match_snapshot_loop(dim, n, flat, substituted):
    params, traj = _case(dim, n, flat)
    got = build_linearized_coeffs(params, traj, substituted=substituted)
    want = _linearized_coeffs_loop(params, traj, substituted)
    if flat:
        # grad(grad(beta).Vbar) vanishes on a flat bottom and is not formed
        assert got.grad_vbarbeta is None
        del want["grad_vbarbeta"]
    for name, arr in want.items():
        assert getattr(got, name).tobytes() == arr.tobytes(), name


@pytest.mark.usefixtures("small_chunks")
def test_linearization_names_the_first_snapshot_below_the_floor():
    params, traj = _case(1, 64, True)
    u = _depth_trajectory(params, traj, [None, None, None, -1.2, None, -1.4] + [None] * 5)
    with pytest.raises(DomainError) as want:
        _linearized_coeffs_loop(params, u, True)
    with pytest.raises(DomainError) as got:
        build_linearized_coeffs(params, u)
    assert str(got.value) == str(want.value)
    assert "(snapshot 3)" in str(got.value)


# ------------------------------------------------------- wave group property


@settings(max_examples=40, deadline=None)
@given(
    dim=st.sampled_from([1, 2]),
    times=st.lists(
        st.one_of(
            st.sampled_from([0.0, -0.0]),
            st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
        ),
        min_size=1,
        max_size=6,
    ),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_evolve_packed_member_times_match_single_calls(dim, times, seed):
    grid = GridSpec(dimension=dim, nodes_per_axis=16 if dim == 1 else 8, domain_length=2 * math.pi)
    rng = np.random.default_rng(seed)
    members = [random_field(grid, dim + 1, rng).coefficients for _ in times]
    members[0][(0,) * (dim + 1)] = complex(-0.0, -0.0)  # signed zeros survive t == 0
    batch = np.stack(members, axis=1)
    out = evolve_packed(grid, 0.4, np.array(times), batch)
    for m, t in enumerate(times):
        want = evolve_packed(grid, 0.4, t, members[m])
        assert out[:, m].tobytes() == want.tobytes(), f"member {m}"
        if t == 0.0:
            assert out[:, m].tobytes() == members[m].tobytes()


# ----------------------------------------------------------- call counts


def test_snapshot_passes_call_nonlinear_F_once_per_chunk(monkeypatch):
    # guards the loops against coming back: with the shipped chunk size, a
    # residual or an initial iterate is one batched tendency per chunk
    grid = GridSpec(dimension=1, nodes_per_axis=32, domain_length=2 * math.pi)
    params = PhysicalParams(mu=0.1, eps=math.sqrt(0.1), b=zero_field(grid))
    rng = np.random.default_rng(5)
    state = GNState(
        V=random_field(grid, 1, rng, amplitude=1e-4, decay=4.0),
        zeta=random_field(grid, 1, rng, amplitude=1e-4, decay=4.0),
    )
    problem = GNProblem(params, state)
    calls = {"n": 0}

    def counted(*args, **kwargs):
        calls["n"] += 1
        return nonlinear_F(*args, **kwargs)

    monkeypatch.setattr(gn_problem, "nonlinear_F", counted)
    u0 = nash_moser.initial_iterate(problem, 1.0, 0.01)
    assert u0.n_times > fourier_scale._CHUNK
    chunks = math.ceil(u0.n_times / fourier_scale._CHUNK)
    assert calls["n"] == chunks
    calls["n"] = 0
    nash_moser.residual(problem, u0, 3.0, m=2.0)
    assert calls["n"] == chunks
