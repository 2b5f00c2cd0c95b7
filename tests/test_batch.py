"""Batch axis: batched operators, PCG and integrator against per-member calls.

Every comparison is byte for byte (`tobytes`): a member's result must not
depend on which other members share its batch. scipy's `cg` is the oracle of
the in-package PCG.
"""
import math

import numpy as np
import pytest

from nmshallow import green_naghdi as gn
from nmshallow import linear_ivp
from nmshallow.errors import ConvergenceError, DomainError, StepSizeError
from nmshallow.fourier_scale import (
    GridSpec,
    SpectralField,
    TrajectoryField,
    field_from_grid,
    random_field,
    sobolev_norm,
    zero_field,
)
from nmshallow.green_naghdi import (
    GNState,
    PhysicalParams,
    depth_check,
    depth_grid,
    invert_bigT,
    nonlinear_F,
)
from nmshallow.linear_ivp import evolve_packed
from nmshallow.reference import manufactured_residual, mol_solve

MEMBERS = 3
# PCG systems: enough members that a preconditioner formed from an array of
# mean depths, rather than from each mean as a float, changes some bits
PCG_MEMBERS = 12
CASES = [(1, 64, True), (2, 16, False)]
CASE_IDS = ["1d-flat", "2d-bathymetry"]


def _case(dim, n, flat, seed=20240817, members=MEMBERS):
    """Params, and a list of `members` independent states on one grid."""
    grid = GridSpec(dimension=dim, nodes_per_axis=n, domain_length=2 * math.pi)
    rng = np.random.default_rng(seed)
    b = zero_field(grid) if flat else random_field(grid, 1, rng, amplitude=0.05, decay=5.0)
    params = PhysicalParams(mu=0.3, eps=0.5, b=b)
    states = [
        GNState(
            V=random_field(grid, dim, rng, amplitude=0.05, decay=4.0),
            zeta=random_field(grid, 1, rng, amplitude=0.05, decay=4.0),
        )
        for _ in range(members)
    ]
    return params, states


def _stack(grid, fields):
    """Batch of the given single fields, (components, B, *shape)."""
    return SpectralField(grid, np.stack([f.coefficients for f in fields], axis=1))


def _stack_states(states):
    grid = states[0].grid
    return GNState(V=_stack(grid, [u.V for u in states]), zeta=_stack(grid, [u.zeta for u in states]))


def _depth(params, zeta):
    """Grid samples of h = 1 + eps (zeta - b), formed from its coefficients."""
    grid = zeta.grid
    hc = np.zeros(grid.shape, dtype=np.complex128)
    hc[(0,) * grid.dimension] = 1.0
    hc += params.eps * (zeta.coefficients[0] - params.b.coefficients[0])
    return grid.to_grid(hc)


# ---------------------------------------------------------- PCG against scipy


def _rows(c):
    """Coefficients (d, B, *shape) as full rows, one per member:
    (B, d * n_modes)."""
    return c.swapaxes(0, 1).reshape(c.shape[1], -1)


def _fields(grid, x):
    """Inverse of `_rows`: full rows (B, d * n_modes) -> (d, B, *shape)."""
    return x.reshape(-1, grid.dimension, *grid.shape).swapaxes(0, 1)


def _band(grid, c):
    """Coefficients (d, B, *shape) on the retained band, one row per member:
    the rows of `_pcg`."""
    return gn._band_rows(c, grid._band.index)


def _scipy_cg(params, hg, b, x0, tol, max_iter):
    """The oracle: scipy's cg on one member's band row, with the single-field
    bigT matvec restricted to the band (the row scattered into a zero array,
    `_apply_bigT_arrays`, the band gathered) and the inverse of the flat
    operator at the mean depth hbar. In 1D that is the product with
    inv_long = 1/(hbar + mu |xi|^2 hbar^3/3); in 2D the longitudinal part
    P_L r = xi_unit (xi_unit . r) takes inv_long and the transverse part
    r - P_L r takes 1/hbar, formed in the package's order as
    r/hbar + (mu hbar^2/3) inv_long (i xi) ((i xi) . r)."""
    sla = pytest.importorskip("scipy.sparse.linalg")
    grid = params.grid
    d = grid.dimension
    band = grid._band
    n = b.size
    hbar = float(np.mean(hg))
    inv_symbol = 1.0 / (hbar + params.mu * band.xi_sq * hbar**3 / 3.0)

    def matvec(x):
        full = np.zeros((d, grid.n_modes), dtype=np.complex128)
        full[:, band.index] = x.reshape(d, -1)
        V = full.reshape(d, *grid.shape)
        out = gn._apply_bigT_arrays(grid, params.mu, hg, params._slope, V)
        return out.reshape(d, -1)[:, band.index].reshape(-1)

    def precondition(x):
        z = x.reshape(d, -1)
        if d == 1:
            return (z * inv_symbol).reshape(-1)
        i_xi = band.i_xi
        dot = (i_xi[0] * z[0] + i_xi[1] * z[1]) * (inv_symbol * (params.mu * hbar**2 / 3.0))
        return (z * (1.0 / hbar) + i_xi * dot).reshape(-1)

    A = sla.LinearOperator((n, n), matvec=matvec, dtype=np.complex128)
    M = sla.LinearOperator((n, n), matvec=precondition, dtype=np.complex128)
    iters = [0]

    def count(_):
        iters[0] += 1

    x, info = sla.cg(A, b, x0=x0, rtol=tol, atol=0.0, maxiter=max_iter, M=M, callback=count)
    return x, info, iters[0]


def _pcg_systems(dim, n, flat, members):
    """Depth samples (B, *shape) and band rows of the right sides (B, d *
    n_band) of `members` systems; in a batch, the last member's right side
    is zero with signed zeros."""
    params, states = _case(dim, n, flat, members=members)
    grid = params.grid
    rng = np.random.default_rng(7)
    hg = np.stack([depth_grid(params, 4.0 * u.zeta) for u in states])
    fields = [random_field(grid, dim, rng, amplitude=1.0, decay=2.0).coefficients for _ in states]
    rhs = _band(grid, np.stack(fields, axis=1))
    if members > 1:
        rhs[-1] = complex(-0.0, -0.0)
    return params, hg, rhs


@pytest.mark.parametrize("n", [64, 512, 8192, 12288])
@pytest.mark.parametrize("members", [2, 4, 201])
def test_row_reductions_keep_the_bits_of_per_row_calls(n, members):
    # `_pcg` takes its inner products with np.vecdot and its norms with
    # `_row_norms`; both must give, on the installed numpy, the bits of
    # np.vdot and np.linalg.norm on each row, for rows of every magnitude
    rng = np.random.default_rng(n + members)
    scale = 10.0 ** rng.uniform(-12.0, 3.0, size=(members, 1))
    r = (rng.standard_normal((members, n)) + 1j * rng.standard_normal((members, n))) * scale
    z = (rng.standard_normal((members, n)) + 1j * rng.standard_normal((members, n))) * scale
    want_dot = np.array([np.vdot(a, c) for a, c in zip(r, z)])
    assert np.vecdot(r, z).tobytes() == want_dot.tobytes()
    want_norm = np.array([np.linalg.norm(a) for a in r])
    assert gn._row_norms(r).tobytes() == want_norm.tobytes()
    kept = r[rng.random(members) < 0.5]  # the rows left after members converge
    assert gn._row_norms(kept).tobytes() == np.array([np.linalg.norm(a) for a in kept]).tobytes()


# a batch of one runs the scalar loop `_cg`, a larger batch the batched one
SIZES = pytest.mark.parametrize("members", [1, PCG_MEMBERS], ids=["lone", "batch"])


@SIZES
@pytest.mark.parametrize("dim,n,flat", CASES, ids=CASE_IDS)
@pytest.mark.parametrize("start", ["cold", "x0"])
def test_pcg_matches_scipy_cg(dim, n, flat, start, members):
    params, hg, rhs = _pcg_systems(dim, n, flat, members)
    x0 = None
    if start == "x0":
        x0 = np.random.default_rng(11).standard_normal(rhs.shape) * (1.0 + 0.0j)
        x0[2:3] = 0.0  # a zero start takes scipy's b.copy() branch
    x, iters, failed = gn._pcg(gn._bigT_operators(params, hg), rhs, x0, 1e-12, 500)
    assert failed.size == 0
    for m in range(members):
        want, info, want_iters = _scipy_cg(
            params, hg[m], rhs[m], None if x0 is None else x0[m], 1e-12, 500
        )
        assert info == 0
        assert x[m].tobytes() == want.tobytes(), f"member {m}"
        assert iters[m] == want_iters
    if members > 1:
        assert iters[-1] == 0 and x[-1].tobytes() == rhs[-1].tobytes()  # zero side kept, signs too


def test_lone_zero_side_is_returned():
    params, hg, rhs = _pcg_systems(1, 64, True, 1)
    rhs[0] = complex(-0.0, -0.0)
    x, iters, failed = gn._pcg(gn._bigT_operators(params, hg), rhs, np.ones_like(rhs), 1e-12, 500)
    want, info, _ = _scipy_cg(params, hg[0], rhs[0], np.ones_like(rhs[0]), 1e-12, 500)
    assert failed.size == 0 and iters[0] == 0 and info == 0
    assert x[0].tobytes() == rhs[0].tobytes() == want.tobytes()


def _ref_cg(restrict, b, x0, tol, max_iter):
    """`_cg` as it was written with `np.linalg.norm` for its norms."""
    x = np.zeros_like(b) if x0 is None else np.array(x0, dtype=b.dtype)
    bnrm2 = np.linalg.norm(b)
    if bnrm2 == 0:
        return b.copy(), np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.intp)
    atol = max(0.0, float(tol) * float(bnrm2))
    matvec, psolve = restrict(np.zeros(1, dtype=np.intp))
    r = b - matvec(x) if x.any() else b.copy()
    for it in range(max_iter):
        if np.linalg.norm(r) < atol:
            return x, np.array([it]), np.zeros(0, dtype=np.intp)
        z = psolve(r)
        rho = np.vdot(r, z)
        if it > 0:
            p *= rho / rho_prev
            p += z
        else:
            p = z.copy()
        q = matvec(p)
        alpha = rho / np.vdot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
    return x, np.array([max_iter]), np.zeros(1, dtype=np.intp)


@pytest.mark.parametrize("dim,n,flat", CASES, ids=CASE_IDS)
@pytest.mark.parametrize("start", ["cold", "x0", "zero side"])
@pytest.mark.parametrize("max_iter", [1, 2, 500])
def test_lone_cg_matches_the_linalg_norm_loop(dim, n, flat, start, max_iter):
    params, hg, rhs = _pcg_systems(dim, n, flat, 1)
    x0 = None
    if start == "x0":
        x0 = np.random.default_rng(5).standard_normal(rhs.shape) * (1.0 + 0.0j)
    elif start == "zero side":
        rhs[0] = complex(-0.0, -0.0)
    restrict = gn._bigT_operators(params, hg)
    got = gn._cg(restrict, rhs, x0, 1e-12, max_iter)
    want = _ref_cg(restrict, rhs, x0, 1e-12, max_iter)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


@pytest.mark.parametrize("n", [3, 64, 256, 8192])
def test_norm_keeps_the_bits_of_linalg_norm(n):
    # `_cg` stops on `_norm(r) < tol * _norm(b)`: a last-bit difference from
    # np.linalg.norm could move a stop by one iteration
    rng = np.random.default_rng(n)
    for scale in 10.0 ** np.arange(-12.0, 4.0, 3.0):
        a = (rng.standard_normal((1, n)) + 1j * rng.standard_normal((1, n))) * scale
        assert np.float64(gn._norm(a)).tobytes() == np.linalg.norm(a).tobytes()
        assert np.float64(gn._norm(a[0])).tobytes() == np.linalg.norm(a[0]).tobytes()


@SIZES
@pytest.mark.parametrize("dim,n,flat", CASES, ids=CASE_IDS)
def test_pcg_failure_matches_scipy_cg(dim, n, flat, members, monkeypatch):
    # max_iter applies to PCG only: keep the small flat 1D band off the
    # direct solve
    monkeypatch.setattr(gn, "_DENSE_MODES", 0)
    params, hg, rhs = _pcg_systems(dim, n, flat, members)
    x, iters, failed = gn._pcg(gn._bigT_operators(params, hg), rhs, None, 1e-12, 1)
    assert list(failed) == list(range(max(1, members - 1)))  # a batch's last side is zero
    for m in failed:
        want, info, want_iters = _scipy_cg(params, hg[m], rhs[m], None, 1e-12, 1)
        assert info == 1
        assert x[m].tobytes() == want.tobytes()
        assert iters[m] == want_iters == 1
    if members == 1:
        return
    grid = params.grid
    V = SpectralField(grid, gn._band_fields(grid, rhs))
    with pytest.raises(ConvergenceError, match="member 0: .*; member 2: "):
        invert_bigT(params, hg, V, tol=1e-12, max_iter=1)


# ------------------------------------------- band layout against full arrays


def _full_bigT_operators(params, hg):
    """`green_naghdi._bigT_operators` as it was on full coefficient rows
    (B, d * n_modes): the matvec applies `_apply_bigT_arrays`, projection
    included, and psolve multiplies every mode. The slow path of the band
    layout's differential test."""
    grid = params.grid
    d = grid.dimension
    mu = params.mu
    inv_symbol = np.empty(hg.shape, dtype=np.complex128)
    inv_depth = None
    if d > 1:
        inv_depth = np.empty((hg.shape[0], *(1,) * (d + 1)), dtype=np.complex128)
    for m in range(hg.shape[0]):
        hbar = float(np.add.reduce(hg[m], axis=None) / grid.n_modes)
        inv_symbol[m] = 1.0 / (hbar + mu * grid.xi_sq * hbar**3 / 3.0)
        if d > 1:
            inv_depth[m] = 1.0 / hbar
            inv_symbol[m] *= mu * hbar**2 / 3.0
    slope = params._slope

    def restrict(which):
        lone = which.size == 1
        if lone:
            hg_w, inv_w, gbeta_g = hg[which[0]], inv_symbol[which[0]], slope
        else:
            hg_w, inv_w = hg[which], inv_symbol[which][:, None]
            gbeta_g = None if slope is None else slope[:, None]
        if inv_depth is not None:
            inv_w, trans_w = inv_symbol[which], inv_depth[which]

        def matvec(x):
            V = x.reshape(d, *grid.shape) if lone else _fields(grid, x)
            out = gn._apply_bigT_arrays(grid, mu, hg_w, gbeta_g, V)
            return out.reshape(1, -1) if lone else _rows(out)

        def psolve(r):
            z = r.reshape(-1, d, *grid.shape)
            if inv_depth is None:
                return (z * inv_w).reshape(r.shape)
            dot = gn._div_c(grid, z.swapaxes(0, 1))
            dot *= inv_w
            out = z * trans_w
            out += grid.i_xi * dot[:, None]
            return out.reshape(r.shape)

        return matvec, psolve

    return restrict


BAND_CASES = [(1, 64, True), (1, 64, False), (2, 16, True), (2, 16, False)]
BAND_IDS = ["1d-flat", "1d-bathymetry", "2d-flat", "2d-bathymetry"]


@SIZES
@pytest.mark.parametrize("dim,n,flat", BAND_CASES, ids=BAND_IDS)
@pytest.mark.parametrize("start", ["cold", "x0"])
def test_band_pcg_matches_the_full_array_pcg(dim, n, flat, start, members):
    # the same systems on band rows and on full rows: a band-limited right
    # side and start keep the full-array iterates zero off the band, so the
    # two loops run the same arithmetic up to the order of their sums
    params, hg, rhs = _pcg_systems(dim, n, flat, members)
    grid = params.grid
    x0 = None
    if start == "x0":
        x0 = 0.1 * np.random.default_rng(11).standard_normal(rhs.shape) * (1.0 + 0.0j)
    full = lambda rows: _rows(gn._band_fields(grid, rows))  # noqa: E731
    x, iters, failed = gn._pcg(gn._bigT_operators(params, hg), rhs, x0, 1e-12, 500)
    want, want_iters, want_failed = gn._pcg(
        _full_bigT_operators(params, hg), full(rhs), None if x0 is None else full(x0), 1e-12, 500
    )
    assert failed.size == want_failed.size == 0
    assert list(iters) == list(want_iters)
    assert iters.max() > 1
    wanted = _fields(grid, want)
    assert not np.any(wanted[..., ~grid.dealias_mask])  # nothing off the band
    want_band = _band(grid, wanted)
    for m in range(members):
        scale = np.linalg.norm(want_band[m]) or 1.0
        assert np.linalg.norm(x[m] - want_band[m]) <= 1e-14 * scale, f"member {m}"


@pytest.mark.parametrize("dim,n,flat", [(1, 512, True), (2, 16, True), (2, 16, False)],
                         ids=["1d-512-flat", "2d-16-flat", "2d-16-bathymetry"])
def test_start_off_the_band_leaves_no_trace(dim, n, flat):
    # the band layout holds no unknown off the band: a start's content
    # there is dropped, and the solution is zero off the band as a cold
    # solve's is
    params, states = _case(dim, n, flat, members=1)
    grid = params.grid
    u = states[0]
    hg = depth_grid(params, u.zeta)
    cold = invert_bigT(params, hg, u.V)
    x0 = cold.coefficients.copy()
    off_mode = (0, *(n // 2 - 1,) * dim)  # a mode above the 2/3 cutoff
    assert not grid.dealias_mask[off_mode[1:]]
    x0[off_mode] = 1e-3
    warm = invert_bigT(params, hg, u.V, x0=x0)
    assert not np.any(warm.coefficients[:, ~grid.dealias_mask])
    diff = np.linalg.norm(warm.coefficients - cold.coefficients)
    assert diff <= 2e-12 * np.linalg.norm(u.V.coefficients) / params.h0


# ---------------------------------------------------- batched against looped


@pytest.mark.parametrize("dim,n,flat", CASES, ids=CASE_IDS)
def test_batched_operators_match_looped(dim, n, flat):
    params, states = _case(dim, n, flat)
    grid = params.grid
    batch = _stack_states(states)
    F = nonlinear_F(params, batch)
    assert F.batch == MEMBERS
    h = np.stack([_depth(params, u.zeta) for u in states])
    W, info = invert_bigT(params, h, batch.V, return_info=True)
    T = gn.apply_bigT(params, h, batch.V)
    iterations = []
    for m, u in enumerate(states):
        Fm = nonlinear_F(params, u)
        assert F.V.coefficients[:, m].tobytes() == Fm.V.coefficients.tobytes()
        assert F.zeta.coefficients[:, m].tobytes() == Fm.zeta.coefficients.tobytes()
        Wm, info_m = invert_bigT(params, _depth(params, u.zeta), u.V, return_info=True)
        assert W.coefficients[:, m].tobytes() == Wm.coefficients.tobytes()
        iterations.append(info_m["iterations"])
        Tm = gn.apply_bigT(params, _depth(params, u.zeta), u.V)
        assert T.coefficients[:, m].tobytes() == Tm.coefficients.tobytes()
    assert info["iterations"] == max(iterations)


@pytest.mark.parametrize("dim,n,flat", CASES, ids=CASE_IDS)
def test_batched_mol_solve_matches_looped(dim, n, flat):
    params, states = _case(dim, n, flat)
    with gn.counting() as batched:
        sols = mol_solve(params, _stack_states(states), 0.04, 0.02)
    assert len(sols) == MEMBERS
    solves = iterations = 0
    for sol, u in zip(sols, states):
        with gn.counting() as looped:
            want = mol_solve(params, u, 0.04, 0.02)
        assert sol.snapshots.tobytes() == want.snapshots.tobytes()
        assert sol.times.tobytes() == want.times.tobytes()
        solves += looped["solves"]
        iterations += looped["cg_iterations"]
    assert batched["solves"] == solves
    assert batched["cg_iterations"] == iterations


@pytest.mark.parametrize("dim,n,flat", CASES, ids=CASE_IDS)
def test_manufactured_residual_matches_snapshot_loop(dim, n, flat):
    params, states = _case(dim, n, flat)
    grid = params.grid
    d = grid.dimension
    snaps = np.stack([u.packed().coefficients for u in states + states[::-1]])
    traj = TrajectoryField(grid, 0.01 * np.arange(snaps.shape[0]), snaps)
    rates = np.roll(snaps, 1, axis=0)  # any du/dt will do
    r1, r2 = manufactured_residual(params, traj, dudt=TrajectoryField(grid, traj.times, rates))
    eps = params.eps
    for i, arr in enumerate(snaps):
        # the single-snapshot evaluation it replaced
        state = GNState(V=SpectralField(grid, arr[:d]), zeta=SpectralField(grid, arr[d:]))
        F = nonlinear_F(params, state)
        f_V = rates[i][:d] + F.V.coefficients
        f_V += (1.0 / eps) * gn._grad_c(grid, arr[d])
        f_z = rates[i][d:] + F.zeta.coefficients
        f_z += (1.0 / eps) * gn._div_c(grid, arr[:d])[None]
        want1 = gn._apply_bigT_arrays(
            grid, params.mu, depth_grid(params, arr[d]), params._slope, eps * f_V
        )
        assert r1.snapshots[i].tobytes() == want1.tobytes(), f"snapshot {i}"
        assert r2.snapshots[i].tobytes() == (eps * f_z).tobytes(), f"snapshot {i}"


def test_batched_evolve_packed_matches_looped(grid2d, rng):
    packed = np.stack([random_field(grid2d, 3, rng).coefficients for _ in range(MEMBERS)], axis=1)
    out = evolve_packed(grid2d, 0.5, 0.37, packed)
    for m in range(MEMBERS):
        want = evolve_packed(grid2d, 0.5, 0.37, packed[:, m].copy())
        assert out[:, m].tobytes() == want.tobytes()


# ------------------------------------------------------------ failure paths


def test_member_under_depth_floor_raises_domain_error():
    params, states = _case(1, 64, True)
    grid = params.grid
    states[1] = GNState(V=zero_field(grid, 1), zeta=field_from_grid(grid, np.full((1, 64), -1.5)))
    with pytest.raises(DomainError, match="member 1"):
        mol_solve(params, _stack_states(states), 0.04, 0.02)
    with pytest.raises(DomainError, match=r"member 1\)"):
        nonlinear_F(params, _stack_states(states))


def test_nan_member_does_not_hide_a_member_under_the_floor():
    # member 0 has a NaN depth sample, member 1 is below the floor, member 2
    # is fine: the NaN minimum counts as a violation instead of masking
    # member 1, and both are named
    params, states = _case(1, 64, True)
    grid = params.grid
    states[1] = GNState(V=zero_field(grid, 1), zeta=field_from_grid(grid, np.full((1, 64), -1.5)))
    hg = np.stack([depth_grid(params, u.zeta) for u in states])
    hg[0, 5] = np.nan
    with pytest.raises(DomainError, match=r"below floor .* in check \(member 0, 1\)$"):
        gn._require_admissible(params, hg, "check")
    with pytest.raises(DomainError, match=r"\(snapshot 0\)$"):
        gn._require_admissible(params, hg, "check", first="snapshot")
    gn._require_admissible(params, hg[2:], "check")

    zeta0 = states[0].zeta.coefficients.copy()
    zeta0[0, 3] = np.nan
    states[0] = GNState(V=states[0].V, zeta=SpectralField(grid, zeta0))
    with pytest.raises(DomainError, match=r"in nonlinear_F \(member 0, 1\)$"):
        nonlinear_F(params, _stack_states(states))


def test_unstable_member_raises_step_size_error(grid1d, params1d, rng, monkeypatch):
    # without the sub-step cap dt = 0.5 is unstable for rough data (as in the
    # single-run guard test); member 0 is small and smooth, and its norm is
    # its own: the much larger member 1 must not trip its guard
    monkeypatch.setattr(linear_ivp, "dispersive_dt_cap", lambda *args, **kwargs: math.inf)
    rough = GNState(
        V=random_field(grid1d, 1, rng, amplitude=0.01, decay=0.5),
        zeta=random_field(grid1d, 1, rng, amplitude=0.01, decay=0.5),
    )
    smooth = GNState(
        V=random_field(grid1d, 1, rng, amplitude=1e-6, decay=4.0),
        zeta=random_field(grid1d, 1, rng, amplitude=1e-6, decay=4.0),
    )
    with pytest.raises(StepSizeError, match="of member 1 grew"):
        mol_solve(params1d, _stack_states([smooth, rough]), 2.0, 0.5)


def test_unreachable_tolerance_names_the_member():
    params, states = _case(1, 64, True)
    grid = params.grid
    V = _stack(grid, [zero_field(grid, 1), states[1].V])
    h = np.stack([_depth(params, u.zeta) for u in states[:2]])
    with pytest.raises(ConvergenceError, match="member 1: ") as exc:
        invert_bigT(params, h, V, tol=1e-30, max_iter=50)
    assert "member 0" not in str(exc.value)


def test_field_reductions_refuse_a_batch():
    params, states = _case(1, 64, True)
    batch = _stack_states(states)
    assert batch.batch == MEMBERS and states[0].batch is None
    with pytest.raises(ValueError, match="batch of 3"):
        sobolev_norm(batch.V, 0.0)
    with pytest.raises(ValueError, match="batch of 3"):
        batch.V.validate()
    with pytest.raises(ValueError, match="batch of 3"):
        depth_check(params, batch)
    with pytest.raises(ValueError, match="batch sizes"):
        GNState(V=batch.V, zeta=states[0].zeta)
