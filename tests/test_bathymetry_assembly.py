"""The bathymetry (b != 0) operators against their term-by-term form.

Over bathymetry the CG matvec and the nonlinear tendency fold the slope
terms of T[h, beta] and Q[h, beta] into the rows that the flat-bottom
assembly already transforms: one transform pair for (V, div V) in the
matvec, and in `_tendency_rows` the slope terms added to the h (V.grad) V,
h^3 D_V div V and h^3 div grad zeta rows. The form they replaced applied
each term with its own transforms; it is kept below as the reference. The
two agree to rounding (not bit for bit): in 1D and 2D, for single and
batched fields, and through a short `mol_solve` with the same CG iteration
counts.
"""
import math

import numpy as np
import pytest

from nmshallow import green_naghdi as gn
from nmshallow.fourier_scale import GridSpec, SpectralField, random_field
from nmshallow.green_naghdi import GNState, PhysicalParams, nonlinear_F, x_norm_packed
from nmshallow.reference import mol_solve

_dc, _gc, _dot = gn._div_c, gn._grad_c, gn._dot_g

CASES = [(1, 64), (2, 16), (2, 64)]
IDS = ["1d-64", "2d-16", "2d-64"]
MEMBERS = 3


def _ref_T_terms(grid, hg, gbeta_g, Vg, Xg):
    Yg = _dot(gbeta_g, Vg)
    h2 = hg * hg
    h3 = h2 * hg
    out = -(1.0 / 3.0) * _gc(grid, grid.from_grid(h3 * Xg))
    out += 0.5 * _gc(grid, grid.from_grid(h2 * Yg))
    out += grid.from_grid((-0.5 * h2 * Xg + hg * Yg)[None] * gbeta_g)
    return out


def _ref_bigT(grid, mu, hg, gbeta_g, Vc):
    """(h + mu T[h, beta]) V, each term with its own transforms."""
    assert gbeta_g is not None
    Vg = grid.to_grid(Vc)
    Xg = grid.to_grid(_dc(grid, Vc))
    out = grid.from_grid(hg[None] * Vg)
    out += mu * _ref_T_terms(grid, hg, gbeta_g, Vg, Xg)
    return grid.project(out)


def _ref_bigT_products(grid, mu, hg, gbeta_g, rows, powers, h2=None):
    """The coefficients (c_V, c_X) of `_bigT_products`, whose combination
    c_V - (mu/3) grad c_X is bigT V, each slope term with its own
    transforms; the depth powers passed are not used."""
    assert gbeta_g is not None
    d = rows.shape[0] - 1
    Vg = grid.to_grid(rows[:d])
    Xg = grid.to_grid(rows[d])
    Yg = _dot(gbeta_g, Vg)
    h2 = hg * hg
    c_V = grid.from_grid(hg[None] * Vg)
    c_V += mu * grid.from_grid((-0.5 * h2 * Xg + hg * Yg)[None] * gbeta_g)
    c_X = grid.from_grid(h2 * hg * Xg) - 1.5 * grid.from_grid(h2 * Yg)
    return np.concatenate([c_V, c_X[None]])


def _ref_Q_bilinear(grid, hg, gbeta_g, Vc, Wc):
    """The symmetric bilinear form of Q[h, beta]."""
    Vg = grid.to_grid(Vc)
    Wg = grid.to_grid(Wc)
    Xv = grid.to_grid(_dc(grid, Vc))
    Xw = grid.to_grid(_dc(grid, Wc))
    wb = _dot(gbeta_g, Wg)
    vb = _dot(gbeta_g, Vg)
    grad_wb = grid.to_grid(_gc(grid, grid.from_grid(wb)))
    grad_vb = grid.to_grid(_gc(grid, grid.from_grid(vb)))
    sym2 = 0.5 * (_dot(Vg, grad_wb) + _dot(Wg, grad_vb))
    grad_Xw = grid.to_grid(_gc(grid, _dc(grid, Wc)))
    grad_Xv = grid.to_grid(_gc(grid, _dc(grid, Vc)))
    dsym = 0.5 * (-_dot(Vg, grad_Xw) - _dot(Wg, grad_Xv) + 2.0 * Xv * Xw)
    h2 = hg * hg
    out = 0.5 * _gc(grid, grid.from_grid(h2 * sym2))
    out += grid.from_grid((hg * (0.5 * hg * dsym + sym2))[None] * gbeta_g)
    return grid.project(out)


def _ref_tendency_rows(params, Vc, zc):
    """`_tendency_rows` over bathymetry with T and Q applied term by term."""
    grid = params.grid
    d = grid.dimension
    mu = params.mu
    gbeta_g = params._slope[:, None]
    Xc = _dc(grid, Vc)
    gz_c = _gc(grid, zc)
    zg, Vg, Xg, lap_z_g, grad_V_g, grad_X_g, gz_g = [
        grid.to_grid(part)
        for part in (
            zc,
            Vc,
            Xc,
            _dc(grid, gz_c),
            np.stack([_gc(grid, Vc[i]) for i in range(d)]),
            _gc(grid, Xc),
            gz_c,
        )
    ]
    hg = params._depth(zg)
    mu_Q = mu * _ref_Q_bilinear(grid, hg, gbeta_g, Vc, Vc)
    advect = np.stack([_dot(Vg, grad_V_g[i]) for i in range(d)])
    dv_x = -_dot(Vg, grad_X_g) + Xg * Xg
    flux_c = grid.from_grid((zg - params.b_grid)[None] * Vg)
    h_advect = grid.from_grid(hg[None] * advect)
    h3_dv_x = grid.from_grid(hg**3 * dv_x)
    T = _ref_T_terms(grid, hg, gbeta_g, gz_g, lap_z_g)
    rhs = (-mu / params.eps) * grid.project(T)
    rhs += grid.project(h_advect)
    rhs += mu * (1.0 / 3.0) * grid.project(_gc(grid, h3_dv_x))
    rhs += mu_Q
    return rhs, hg, flux_c


def _case(dim, n, members=None):
    grid = GridSpec(dimension=dim, nodes_per_axis=n, domain_length=2 * math.pi)
    rng = np.random.default_rng(31 * n + dim)
    bathy = random_field(grid, 1, rng, amplitude=0.1, decay=4.0)
    params = PhysicalParams(mu=0.2, eps=0.5, b=bathy)
    assert params._slope is not None
    if members is None:
        V = random_field(grid, dim, rng, amplitude=0.1, decay=4.0)
        zeta = random_field(grid, 1, rng, amplitude=0.1, decay=4.0)
    else:
        fields = [random_field(grid, dim + 1, rng, amplitude=0.1, decay=4.0) for _ in range(members)]
        packed = np.stack([f.coefficients for f in fields], axis=1)
        V, zeta = SpectralField(grid, packed[:dim]), SpectralField(grid, packed[dim:])
    return params, GNState(V=V, zeta=zeta)


def _use_reference(monkeypatch):
    monkeypatch.setattr(gn, "_apply_bigT_arrays", _ref_bigT)
    monkeypatch.setattr(gn, "_bigT_products", _ref_bigT_products)  # the CG matvec's
    monkeypatch.setattr(gn, "_tendency_rows", _ref_tendency_rows)


def _rel(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


@pytest.mark.parametrize("members", [None, MEMBERS], ids=["single", "batched"])
@pytest.mark.parametrize("dim,n", CASES, ids=IDS)
def test_matvec_matches_term_by_term(dim, n, members):
    params, u = _case(dim, n, members)
    grid = params.grid
    Vc = gn._batched(u.V)
    hg = params._depth(grid.to_grid(gn._batched(u.zeta)[0]))
    gbeta_g = params._slope[:, None]
    want = _ref_bigT(grid, params.mu, hg, gbeta_g, Vc)
    assert _rel(gn._apply_bigT_arrays(grid, params.mu, hg, gbeta_g, Vc), want) < 1e-13
    # the CG operators, with the depth powers formed once per solve, on the
    # band rows: every member alone (unbatched layout) and, for a batch,
    # all of them
    restrict = gn._bigT_operators(params, hg)
    band = grid._band.index
    for m in range(Vc.shape[1]):
        matvec = restrict(np.array([m]))[0]
        got = gn._band_fields(grid, matvec(gn._band_rows(Vc[:, m : m + 1], band)))
        assert _rel(got[:, 0], want[:, m]) < 1e-13
    if members is not None:
        matvec = restrict(np.arange(members))[0]
        got = gn._band_fields(grid, matvec(gn._band_rows(Vc, band)))
        assert _rel(got, want) < 1e-13


@pytest.mark.parametrize("members", [None, MEMBERS], ids=["single", "batched"])
@pytest.mark.parametrize("dim,n", CASES, ids=IDS)
def test_nonlinear_F_matches_term_by_term(monkeypatch, dim, n, members):
    params, u = _case(dim, n, members)
    got = nonlinear_F(params, u).packed().coefficients
    _use_reference(monkeypatch)
    want = nonlinear_F(params, u).packed().coefficients
    assert _rel(got[:-1], want[:-1]) < 1e-13
    assert _rel(got[-1], want[-1]) < 1e-13


@pytest.mark.parametrize("members", [None, MEMBERS], ids=["single", "batched"])
@pytest.mark.parametrize("dim,n", CASES, ids=IDS)
def test_mol_solve_matches_term_by_term(monkeypatch, dim, n, members):
    params, u = _case(dim, n, members)
    with gn.counting() as got_counts:
        got = mol_solve(params, u, 0.02, 0.005)
    _use_reference(monkeypatch)
    with gn.counting() as want_counts:
        want = mol_solve(params, u, 0.02, 0.005)
    assert got_counts["cg_iterations"] == want_counts["cg_iterations"]
    pairs = [(got, want)] if members is None else list(zip(got, want))
    for traj, ref in pairs:
        diff = SpectralField(params.grid, (traj.snapshots - ref.snapshots).swapaxes(0, 1))
        size = SpectralField(params.grid, ref.snapshots.swapaxes(0, 1))
        rel = x_norm_packed(params, diff, 0.0) / x_norm_packed(params, size, 0.0)
        assert np.all(rel < 1e-12), rel
