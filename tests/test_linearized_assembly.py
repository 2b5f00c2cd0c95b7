"""The linearized momentum row: `_K_rows` against its pre-fold form.

`_K_rows` assembles N1 V + bbar zeta + mu grad(hbar abar zeta)
- (mu/eps) Tbar grad zeta with one product list for both branches: over
bathymetry it adds the slope terms of Q_bil and Tbar to the rows that the
flat assembly already transforms. The form it replaced transformed the
slope terms as rows of their own and applied Tbar term by term
(`_T_terms`); both are kept as the reference, the second in
`test_bathymetry_assembly`. Through `apply_K`, K v
and the warm-start vector keep the bytes of the reference on a flat
bottom, and agree with it to rounding over bathymetry: in 1D and 2D, with
substituted and exact coefficients, at a snapshot time and between
snapshots, and through a 2D `solve_linearized` with the same CG iteration
counts. The fold also cuts the transforms of one `_K_rows` call over
bathymetry, and a flat-bottom linearization transforms no zero input.
"""
import math

import numpy as np
import pytest

from nmshallow import green_naghdi as gn
from nmshallow.fourier_scale import GridSpec, SpectralField, TrajectoryField, random_field, zero_field
from nmshallow.green_naghdi import (
    GNState,
    PhysicalParams,
    apply_K,
    build_linearized_coeffs,
    x_norm_packed,
)
from nmshallow.linear_ivp import IVPData, solve_linearized
from nmshallow.reference import mol_solve
from test_bathymetry_assembly import _ref_T_terms, _rel

_dc, _gc, _dot = gn._div_c, gn._grad_c, gn._dot_g


def _ref_K_rows(coeffs_t, params, v):
    """`_K_rows` before the fold: the Q_bil slope terms as two rows of their
    own and Tbar through `_ref_T_terms`."""
    grid = v.grid
    mu, eps = params.mu, params.eps
    hbar = coeffs_t["hbar"]
    Vbar = coeffs_t["Vbar"]
    divVbar = coeffs_t["divVbar"]
    gradVbar = coeffs_t["gradVbar"]
    graddivVbar = coeffs_t["graddivVbar"]
    gbeta_g = params._slope
    flat = gbeta_g is None

    Vc = v.V.coefficients
    Xc = _dc(grid, Vc)
    gz_c = _gc(grid, v.zeta.coefficients[0])
    grids = gn._transform(
        grid.to_grid,
        grid,
        [
            Vc,
            v.zeta.coefficients[0],
            Xc,
            _gc(grid, Xc),
            _gc(grid, Vc).swapaxes(0, 1),
            _dc(grid, gz_c),
            *([] if flat else [gz_c]),
        ],
        flat,
    )
    Vg, zg, Xg, grad_X_g, grad_V_g, lap_z_g = grids[:6]

    adv = _dot(Vbar, grad_V_g.swapaxes(0, 1)) + _dot(Vg, gradVbar.swapaxes(0, 1))
    dsym2 = -_dot(Vbar, grad_X_g) + divVbar * Xg - _dot(Vg, graddivVbar) + Xg * divVbar
    products = [
        (coeffs_t["zetabar"] - params.b_grid)[None] * Vg,
        zg[None] * Vbar,
        hbar[None] * adv,
        hbar**3 * dsym2,
        zg[None] * coeffs_t["bbar"],
        hbar * coeffs_t["abar"] * zg,
    ]
    if flat:
        products.append(hbar * hbar * hbar * lap_z_g)
    else:
        vb = _dot(gbeta_g, Vg)
        grad_vb = grid.to_grid(_gc(grid, grid.from_grid(vb)))
        sym2 = 0.5 * (_dot(Vg, coeffs_t["grad_vbarbeta"]) + _dot(Vbar, grad_vb))
        products += [
            hbar**2 * sym2,
            (hbar * (0.5 * hbar * dsym2 + 2.0 * sym2))[None] * gbeta_g,
        ]
    flux_c, zV_c, rhs, h3_dsym2, bbar_z, habar_z, *rest = gn._transform(
        grid.from_grid, grid, products, flat
    )

    rhs += (mu / 3.0) * _gc(grid, h3_dsym2)
    if flat:
        T = -(1.0 / 3.0) * _gc(grid, rest[0])
    else:
        rhs += mu * (_gc(grid, rest[0]) + rest[1])
        T = _ref_T_terms(grid, hbar, gbeta_g, grids[6], lap_z_g)
    rhs += bbar_z
    rhs += mu * _gc(grid, habar_z)
    rhs += -(mu / eps) * grid.project(T)
    return grid.project(rhs), flux_c, zV_c


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
    got = apply_K(coeffs, params, t, v)
    monkeypatch.setattr(gn, "_K_rows", _ref_K_rows)
    want = apply_K(coeffs, params, t, v)
    got, want = got.packed().coefficients, want.packed().coefficients
    if flat:
        assert got.tobytes() == want.tobytes()
    else:
        # the slope terms are summed in another order: rounding only
        assert _rel(got, want) < 1e-13


@pytest.mark.parametrize("n", [16, 64], ids=["2d-16", "2d-64"])
def test_solve_linearized_over_bathymetry_matches_pre_fold(monkeypatch, n):
    grid = GridSpec(dimension=2, nodes_per_axis=n, domain_length=2 * math.pi)
    rng = np.random.default_rng(7 * n)
    params = PhysicalParams(
        mu=0.2, eps=0.5, b=random_field(grid, 1, rng, amplitude=0.1, decay=4.0)
    )

    def draw(amplitude):
        return GNState(
            V=random_field(grid, 2, rng, amplitude=amplitude, decay=4.0),
            zeta=random_field(grid, 1, rng, amplitude=amplitude, decay=4.0),
        )

    coeffs = build_linearized_coeffs(params, mol_solve(params, draw(0.1), 0.02, 0.005))
    ivp = IVPData(initial=draw(1.0), horizon=0.02, dt=0.005)
    with gn.counting() as got_counts:
        got = solve_linearized(params, coeffs, ivp)
    monkeypatch.setattr(gn, "_K_rows", _ref_K_rows)
    with gn.counting() as want_counts:
        want = solve_linearized(params, coeffs, ivp)
    assert got_counts["cg_iterations"] == want_counts["cg_iterations"]
    diff = SpectralField(grid, (got.snapshots - want.snapshots).swapaxes(0, 1))
    size = SpectralField(grid, want.snapshots.swapaxes(0, 1))
    rel = x_norm_packed(params, diff, 0.0) / x_norm_packed(params, size, 0.0)
    assert np.all(rel <= 1e-12), rel


# ---------------------------------------------------------- transform counts


def _record_transforms(monkeypatch):
    """Wrap `GridSpec.to_grid`/`from_grid`; returns a list that gets one
    entry per call: whether its input had a nonzero entry."""
    nonzero = []
    for name in ("to_grid", "from_grid"):
        transform = getattr(GridSpec, name)

        def recorded(grid, values, _transform=transform):
            nonzero.append(bool(np.any(values)))
            return _transform(grid, values)

        monkeypatch.setattr(GridSpec, name, recorded)
    return nonzero


@pytest.mark.parametrize("flat", [True, False], ids=["flat", "bathymetry"])
@pytest.mark.parametrize("dim,n", [(1, 64), (2, 16)], ids=["1d-64", "2d-16"])
def test_K_rows_transform_calls(monkeypatch, dim, n, flat):
    params, coeffs, v = _case(dim, n, flat, True)
    coeffs_t = coeffs.at_time(0.137)
    calls = _record_transforms(monkeypatch)
    gn._K_rows(coeffs_t, params, v)
    # one stacked pair on a flat bottom; the pre-fold assembly made 21 calls
    # over bathymetry
    assert len(calls) <= (2 if flat else 17), len(calls)


@pytest.mark.parametrize("substituted", [True, False], ids=["substituted", "exact"])
@pytest.mark.parametrize("dim,n", [(1, 64), (2, 16)], ids=["1d-64", "2d-16"])
def test_flat_linearization_transforms_no_zero_input(monkeypatch, dim, n, substituted):
    grid = GridSpec(dimension=dim, nodes_per_axis=n, domain_length=2 * math.pi)
    rng = np.random.default_rng(11)
    params = PhysicalParams(mu=0.3, eps=0.5, b=zero_field(grid))
    snaps = np.stack(
        [
            random_field(grid, dim + 1, rng, amplitude=0.05, decay=4.0).coefficients
            for _ in range(3)
        ]
    )
    uref = TrajectoryField(grid, np.array([0.0, 0.1, 0.2]), snaps)
    # the one-time samples of b that PhysicalParams caches; a flat build
    # never forms those of grad(eps b)
    params.b_grid
    calls = _record_transforms(monkeypatch)
    coeffs = build_linearized_coeffs(params, uref, substituted=substituted)
    assert calls and all(calls), calls.count(False)
    assert coeffs.grad_vbarbeta is None
    assert "grad_beta_grid" not in vars(params)
