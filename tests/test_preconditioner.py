"""The preconditioner of the elliptic solve: the exact inverse of the flat
operator at each member's mean depth.

`green_naghdi._bigT_operators` splits it along the longitudinal projector
P_L r = xi_unit (xi_unit . r): inv_long on P_L r, 1/hbar on r - P_L r. The
mean-depth symbol it replaced multiplied every velocity component by
inv_long = 1/(hbar + mu |xi|^2 hbar^3/3), which mis-scales the transverse
modes in 2D. That symbol stays here as the slow path of the differential
tests: both preconditioners must give the same solutions, to within what
the CG stopping rule allows.
"""
import math

import numpy as np
import pytest
from test_batch import _rows

from nmshallow import green_naghdi as gn
from nmshallow.fourier_scale import GridSpec, SpectralField, random_field, zero_field
from nmshallow.green_naghdi import GNState, PhysicalParams, depth_grid, invert_bigT, x_norm_packed
from nmshallow.reference import mol_solve

_split_operators = gn._bigT_operators


def _mean_depth_operators(params, hg):
    """`_bigT_operators` with the preconditioner it replaced: every velocity
    component times inv_long at the member's mean depth, on the band rows."""
    grid = params.grid
    d = grid.dimension
    restrict_split = _split_operators(params, hg)
    xi_sq = grid._band.xi_sq
    inv_long = np.empty((hg.shape[0], xi_sq.size))
    for m in range(hg.shape[0]):
        hbar = float(np.mean(hg[m]))
        inv_long[m] = 1.0 / (hbar + params.mu * xi_sq * hbar**3 / 3.0)

    def restrict(which):
        matvec, _ = restrict_split(which)
        inv_w = inv_long[which][:, None]

        def psolve(r):
            return (r.reshape(-1, d, xi_sq.size) * inv_w).reshape(r.shape)

        return matvec, psolve

    return restrict


def _params(dim, n, flat, seed=5):
    grid = GridSpec(dimension=dim, nodes_per_axis=n, domain_length=2 * math.pi)
    rng = np.random.default_rng(seed)
    b = zero_field(grid) if flat else random_field(grid, 1, rng, amplitude=0.05, decay=5.0)
    return PhysicalParams(mu=0.1, eps=math.sqrt(0.1), b=b), rng


# --------------------------------------------------------------- exactness


def _member_rows(f):
    """One row of coefficients per member of a single or batched field."""
    return _rows(gn._batched(f))


def _random_batch(grid, components, rng, members, amplitude, decay):
    """Coefficients of `members` random fields, (components, B, *shape)."""
    fields = [random_field(grid, components, rng, amplitude=amplitude, decay=decay)
              for _ in range(members)]
    return np.stack([f.coefficients for f in fields], axis=1)


@pytest.mark.parametrize("members", [None, 3], ids=["single", "batch"])
@pytest.mark.parametrize("dim,n", [(1, 64), (2, 16), (2, 64)], ids=["1d-64", "2d-16", "2d-64"])
def test_constant_depth_flat_bottom_solves_in_one_iteration(dim, n, members, monkeypatch):
    # the preconditioner is the exact inverse there, so the first sweep
    # lands on the solution (the mean-depth symbol took 18 and 68 sweeps
    # on these 2D systems); the 1D band goes through PCG, not the direct
    # solve it would otherwise take
    monkeypatch.setattr(gn, "_DENSE_MODES", 0)
    params, rng = _params(dim, n, flat=True)
    grid = params.grid
    depths = [1.3] if members is None else [1.3, 0.8, 1.05]
    h = np.multiply.outer(depths, np.ones(grid.shape))
    Vc = _random_batch(grid, dim, rng, len(depths), amplitude=1.0, decay=2.0)
    if members is None:
        h, Vc = h[0], Vc[:, 0]
    V = SpectralField(grid, Vc)
    W, info = invert_bigT(params, h, V, return_info=True)
    assert info["iterations"] == 1
    # the one sweep met the stopping rule of every member
    residual = np.linalg.norm(_member_rows(gn.apply_bigT(params, h, W)) - _member_rows(V), axis=1)
    assert np.all(residual < 1e-12 * np.linalg.norm(_member_rows(V), axis=1))


# ------------------------------------------------ against the mean-depth symbol


@pytest.mark.parametrize("members", [None, 4], ids=["single", "batch"])
@pytest.mark.parametrize("n", [16, 64])
def test_invert_bigT_matches_mean_depth_symbol(n, members, monkeypatch):
    # both solves stop at |b - A x| < tol |b|, and bigT >= h0 on the band,
    # so each solution is within tol |b| / h0 of the exact one and the two
    # differ by at most 2 tol |b| / h0 per member
    tol = 1e-10
    params, rng = _params(2, n, flat=False)
    grid = params.grid
    count = 1 if members is None else members
    zetas = [random_field(grid, 1, rng, amplitude=0.2, decay=3.0) for _ in range(count)]
    h = np.stack([depth_grid(params, z) for z in zetas])
    Vc = _random_batch(grid, 2, rng, count, amplitude=1.0, decay=2.0)
    if members is None:
        h, Vc = h[0], Vc[:, 0]
    V = SpectralField(grid, Vc)

    split, info_split = invert_bigT(params, h, V, tol=tol, return_info=True)
    monkeypatch.setattr(gn, "_bigT_operators", _mean_depth_operators)
    mean, info_mean = invert_bigT(params, h, V, tol=tol, return_info=True)
    assert info_split["iterations"] < info_mean["iterations"]

    diff = _member_rows(split) - _member_rows(mean)
    bound = 2.0 * tol * np.linalg.norm(_member_rows(V), axis=1) / params.h0
    assert np.all(np.linalg.norm(diff, axis=1) <= bound)


def test_mol_solve_2d_matches_mean_depth_symbol(monkeypatch):
    # 5 steps of the 2D MoL run over random bathymetry: the two
    # preconditioners agree to 1e-12 relative X^0 in every snapshot
    params, rng = _params(2, 32, flat=False, seed=11)
    grid = params.grid
    u0 = GNState(
        V=random_field(grid, 2, rng, amplitude=0.05, decay=4.0),
        zeta=random_field(grid, 1, rng, amplitude=0.05, decay=4.0),
    )
    with gn.counting() as counts_split:
        split = mol_solve(params, u0, 0.025, 0.005)
    monkeypatch.setattr(gn, "_bigT_operators", _mean_depth_operators)
    with gn.counting() as counts_mean:
        mean = mol_solve(params, u0, 0.025, 0.005)
    assert split.n_times == mean.n_times == 6
    assert counts_split["solves"] == counts_mean["solves"]
    assert counts_split["cg_iterations"] < counts_mean["cg_iterations"]
    for i, (a, b) in enumerate(zip(split.snapshots, mean.snapshots)):
        gap = x_norm_packed(params, SpectralField(grid, a - b), 0.0)
        assert gap <= 1e-12 * x_norm_packed(params, SpectralField(grid, b), 0.0), f"snapshot {i}"
    hmin = min(float(np.min(depth_grid(params, s[2]))) for s in split.snapshots)
    assert hmin > params.h0
