"""The linearized momentum row: `_K_rows` against its split assembly.

`_K_rows` assembles N1 V + bbar zeta + mu grad(hbar abar zeta)
- (mu/eps) Tbar grad zeta in one function. It replaced a form split over
three helpers (grid inputs, grid products, coefficient sums), which are
kept below as the reference. `apply_K` must return the same bytes through
either, for K v and for the warm-start vector: in 1D and 2D, on a flat
bottom and over bathymetry, with substituted and exact coefficients, at a
snapshot time and between snapshots.
"""
import math

import numpy as np
import pytest

from nmshallow import green_naghdi as gn
from nmshallow.fourier_scale import GridSpec, TrajectoryField, random_field, zero_field
from nmshallow.green_naghdi import GNState, PhysicalParams, apply_K, build_linearized_coeffs

_dc, _gc, _dot = gn._div_c, gn._grad_c, gn._dot_g


def _ref_N1_inputs(grid, v):
    d = grid.dimension
    Vc = v.V.coefficients
    Xc = _dc(grid, Vc)
    return [
        Vc,
        v.zeta.coefficients[0],
        Xc,
        _gc(grid, Xc),
        np.stack([_gc(grid, Vc[i]) for i in range(d)]),
    ]


def _ref_N1_products(coeffs_t, params, Vg, zg, Xg, grad_X_g, grad_V_g):
    grid = params.grid
    d = grid.dimension
    gbeta = params._slope
    hbar = coeffs_t["hbar"]
    Vbar = coeffs_t["Vbar"]
    divVbar = coeffs_t["divVbar"]
    gradVbar = coeffs_t["gradVbar"]
    graddivVbar = coeffs_t["graddivVbar"]

    adv = np.stack([_dot(Vbar, grad_V_g[i]) + _dot(Vg, gradVbar[i]) for i in range(d)])
    dsym2 = -_dot(Vbar, grad_X_g) + divVbar * Xg - _dot(Vg, graddivVbar) + Xg * divVbar
    parts = [
        hbar[None] * adv,
        hbar**3 * dsym2,
        zg[None] * coeffs_t["bbar"],
        hbar * coeffs_t["abar"] * zg,
    ]
    if gbeta is not None:
        vb = _dot(gbeta, Vg)
        grad_vb = grid.to_grid(_gc(grid, grid.from_grid(vb)))
        sym2 = 0.5 * (_dot(Vg, coeffs_t["grad_vbarbeta"]) + _dot(Vbar, grad_vb))
        parts += [
            hbar**2 * sym2,
            (hbar * (0.5 * hbar * dsym2 + 2.0 * sym2))[None] * gbeta,
        ]
    return parts


def _ref_N1_from_products(grid, mu, parts):
    row1 = parts[0]
    row1 += (mu / 3.0) * _gc(grid, parts[1])
    if len(parts) > 4:
        row1 += mu * (_gc(grid, parts[4]) + parts[5])
    row1 += parts[2]
    row1 += mu * _gc(grid, parts[3])
    return row1


def _ref_K_rows(coeffs_t, params, v):
    grid = v.grid
    mu, eps = params.mu, params.eps
    hbar = coeffs_t["hbar"]
    gbeta_g = params._slope
    flat = gbeta_g is None

    gz_c = _gc(grid, v.zeta.coefficients[0])
    grids = gn._transform(
        grid.to_grid,
        grid,
        [*_ref_N1_inputs(grid, v), _dc(grid, gz_c), *([] if flat else [gz_c])],
        flat,
    )
    Vg, zg, Xg, grad_X_g, grad_V_g, lap_z_g = grids[:6]
    gz_g = None if flat else grids[6]
    n1 = _ref_N1_products(coeffs_t, params, Vg, zg, Xg, grad_X_g, grad_V_g)
    h_c, flux_c, zV_c, *rest = gn._transform(
        grid.from_grid,
        grid,
        [
            hbar,
            (coeffs_t["zetabar"] - params.b_grid)[None] * Vg,
            zg[None] * coeffs_t["Vbar"],
            *n1,
            *([hbar * hbar * hbar * lap_z_g] if flat else []),
        ],
        flat,
    )
    if flat:
        T = -(1.0 / 3.0) * _gc(grid, rest[len(n1)])
    else:
        T = gn._T_terms(grid, hbar, gbeta_g, gz_g, lap_z_g)
    rhs = _ref_N1_from_products(grid, mu, rest[: len(n1)])
    rhs += -(mu / eps) * grid.project(T)
    return grid.project(rhs), h_c, flux_c, zV_c


def _case(dim, n, flat, substituted):
    """Params, frozen coefficients along three random snapshots at
    t = 0, 0.1, 0.2, and a direction v."""
    grid = GridSpec(dimension=dim, nodes_per_axis=n, domain_length=2 * math.pi)
    rng = np.random.default_rng(20240923)
    b = zero_field(grid) if flat else random_field(grid, 1, rng, amplitude=0.05, decay=5.0)
    params = PhysicalParams(mu=0.3, eps=0.5, b=b)
    snaps = np.stack(
        [
            random_field(grid, dim + 1, rng, amplitude=0.05, decay=4.0).coefficients
            for _ in range(3)
        ]
    )
    uref = TrajectoryField(grid, np.array([0.0, 0.1, 0.2]), snaps)
    coeffs = build_linearized_coeffs(params, uref, substituted=substituted)
    v = GNState(
        V=random_field(grid, dim, rng, amplitude=1.0, decay=3.0),
        zeta=random_field(grid, 1, rng, amplitude=1.0, decay=3.0),
    )
    return params, coeffs, v


@pytest.mark.parametrize("t", [0.1, 0.137], ids=["snapshot", "mid-interval"])
@pytest.mark.parametrize("substituted", [True, False], ids=["substituted", "exact"])
@pytest.mark.parametrize("flat", [True, False], ids=["flat", "bathymetry"])
@pytest.mark.parametrize("dim,n", [(1, 64), (2, 16)], ids=["1d-64", "2d-16"])
def test_K_rows_match_split_assembly(monkeypatch, dim, n, flat, substituted, t):
    params, coeffs, v = _case(dim, n, flat, substituted)
    assert (params._slope is None) == flat
    got, got_x = apply_K(coeffs, params, t, v)
    monkeypatch.setattr(gn, "_K_rows", _ref_K_rows)
    want, want_x = apply_K(coeffs, params, t, v)
    assert got.packed().coefficients.tobytes() == want.packed().coefficients.tobytes()
    assert got_x.tobytes() == want_x.tobytes()
