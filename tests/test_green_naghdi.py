"""Shallow-water operators: depth, elliptic mass operator, tendency, norms."""
import dataclasses
import math

import numpy as np
import pytest

from nmshallow import green_naghdi as gn
from nmshallow.errors import ConvergenceError, DomainError
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
    apply_bigT,
    apply_K,
    bigT_pairing,
    build_linearized_coeffs,
    depth_check,
    depth_grid,
    energy_E,
    frechet_F,
    invert_bigT,
    nonlinear_F,
    x_norm_packed,
)


def _depth_samples(params, zeta):
    """Grid samples of h = 1 + eps (zeta - b), formed from its coefficients."""
    grid = zeta.grid
    hc = np.zeros(grid.shape, dtype=np.complex128)
    hc[(0,) * grid.dimension] = 1.0
    hc += params.eps * (zeta.coefficients[0] - params.b.coefficients[0])
    return grid.to_grid(hc)


# ------------------------------------------------------------------ params

def test_params_validation(grid1d):
    b = zero_field(grid1d)
    with pytest.raises(ValueError):
        PhysicalParams(mu=0.0, eps=0.5, b=b)
    with pytest.raises(ValueError):
        PhysicalParams(mu=1.5, eps=0.5, b=b)
    with pytest.raises(ValueError):
        PhysicalParams(mu=0.3, eps=0.0, b=b)
    with pytest.raises(ValueError):
        PhysicalParams(mu=0.3, eps=1.2, b=b)


def test_grad_beta_scaling(grid1d, rng):
    b = random_field(grid1d, 1, rng, amplitude=0.1, decay=4.0)
    p_half = PhysicalParams(mu=0.3, eps=0.5, b=b)
    p_one = PhysicalParams(mu=0.3, eps=1.0, b=b)
    assert np.allclose(p_half.grad_beta_grid, 0.5 * p_one.grad_beta_grid)


def test_depth_grid_closed_form():
    grid = GridSpec(dimension=1, nodes_per_axis=64, domain_length=2 * math.pi)
    x = grid.axis_coordinates()
    zeta = field_from_grid(grid, 0.2 * np.cos(x)[None])
    b = field_from_grid(grid, 0.1 * np.sin(2 * x)[None])
    params = PhysicalParams(mu=0.3, eps=0.5, b=b)
    h = depth_grid(params, zeta)
    expect = 1.0 + 0.5 * (0.2 * np.cos(x) - 0.1 * np.sin(2 * x))
    assert np.max(np.abs(h - expect)) < 1e-13


def test_depth_check(params1d, grid1d):
    ok, hmin = depth_check(
        params1d, GNState(V=zero_field(grid1d, 1), zeta=zero_field(grid1d))
    )
    assert ok and hmin > params1d.h0
    deep = field_from_grid(
        grid1d, np.full((1, 64), -1.5)
    )  # zeta = -1.5 -> h well below the floor
    ok2, hmin2 = depth_check(params1d, GNState(V=zero_field(grid1d, 1), zeta=deep))
    assert not ok2 and hmin2 < params1d.h0


def test_depth_check_fails_at_the_floor(grid1d):
    # zeta = -1 with eps = 0.5 puts h exactly on h0 = 0.5: not above the floor
    params = PhysicalParams(mu=0.3, eps=0.5, b=zero_field(grid1d))
    zeta = field_from_grid(grid1d, np.full((1, 64), -1.0))
    ok, hmin = depth_check(params, GNState(V=zero_field(grid1d, 1), zeta=zeta))
    assert hmin == params.h0 == 0.5
    assert not ok


# ------------------------------------------------------------------- GNState

def test_state_packing(grid2d, rng):
    u = GNState(
        V=random_field(grid2d, 2, rng),
        zeta=random_field(grid2d, 1, rng),
        t=0.7,
    )
    packed = u.packed()
    assert packed.components == 3
    back = GNState.from_packed(packed, t=0.7)
    assert np.array_equal(back.V.coefficients, u.V.coefficients)
    assert np.array_equal(back.zeta.coefficients, u.zeta.coefficients)
    with pytest.raises(ValueError):
        GNState.from_packed(random_field(grid2d, 2, rng))


# ------------------------------------------------------------ mass operator

def test_bigT_symmetric_positive(params1d, grid1d, rng):
    zeta = random_field(grid1d, 1, rng, amplitude=0.2, decay=3.0)
    h = _depth_samples(params1d, zeta)
    V = random_field(grid1d, 1, rng, amplitude=1.0, decay=2.0)
    W = random_field(grid1d, 1, rng, amplitude=1.0, decay=2.0)
    vw = bigT_pairing(params1d, h, V, W)
    wv = bigT_pairing(params1d, h, W, V)
    assert math.isclose(vw, wv, rel_tol=1e-11, abs_tol=1e-13)
    vv = bigT_pairing(params1d, h, V, V)
    assert vv > 0.0


def test_energy_coercivity_and_inverse_bound(params1d, grid1d, rng):
    for _ in range(25):
        zeta = random_field(grid1d, 1, rng, amplitude=0.25, decay=3.0)
        state = GNState(V=zero_field(grid1d, 1), zeta=zeta)
        if not depth_check(params1d, state)[0]:
            continue
        h = _depth_samples(params1d, zeta)
        V = random_field(grid1d, 1, rng, amplitude=1.0, decay=2.0)
        quad = bigT_pairing(params1d, h, V, V)
        en = energy_E(params1d, h, V)
        assert quad - en * en >= -1e-10 * quad
        # coercivity gives the uniform resolvent bound in L2
        W = invert_bigT(params1d, h, V, tol=1e-12)
        assert sobolev_norm(W, 0.0) <= (1 + 1e-8) / params1d.h0 * sobolev_norm(V, 0.0)


@pytest.mark.parametrize("dim,n", [(1, 64), (2, 16)], ids=["1d", "2d"])
def test_flat_energy_gap_is_the_depth_excess(dim, n):
    # on a flat bottom <bigT V, V> - E(V)^2 is the grid sum of
    # (h - h0)(|V|^2 + (mu/3) h^2 (div V)^2): a small error in E (1% of E
    # moves it by about 1e-2 relative) shows, unlike in the coercivity bound
    grid = GridSpec(dimension=dim, nodes_per_axis=n, domain_length=2 * math.pi)
    rng = np.random.default_rng(20 + dim)
    checked = 0
    for _ in range(20):
        params = PhysicalParams(
            mu=float(rng.uniform(0.05, 0.9)), eps=float(rng.uniform(0.1, 1.0)),
            b=zero_field(grid),
        )
        zeta = random_field(grid, 1, rng, amplitude=0.3, decay=3.0)
        V = random_field(grid, dim, rng, amplitude=1.0, decay=2.0)
        if not depth_check(params, GNState(V=zero_field(grid, dim), zeta=zeta))[0]:
            continue
        checked += 1
        hg = _depth_samples(params, zeta)
        gap = bigT_pairing(params, hg, V, V) - energy_E(params, hg, V) ** 2
        Vg = grid.to_grid(V.coefficients)
        Xg = grid.to_grid(_ref_div_c(grid, V.coefficients))
        excess = (hg - params.h0) * ((Vg**2).sum(axis=0) + params.mu / 3.0 * hg**2 * Xg**2)
        want = grid.cell_volume * float(np.sum(excess))
        assert abs(gap - want) <= 1e-12 * want, (gap, want)
    assert checked >= 10


def test_elliptic_layer_takes_depth_samples_in_the_velocity_layout(params1d, grid1d, rng):
    # (*shape) for a single field, (B, *shape) for a batch of B; any other
    # layout, or the depth as a field of coefficients, is refused
    zeta = random_field(grid1d, 1, rng, amplitude=0.2, decay=3.0)
    hg = _depth_samples(params1d, zeta)
    V = random_field(grid1d, 1, rng, amplitude=1.0, decay=2.0)
    batch = SpectralField(grid1d, np.stack([V.coefficients] * 3, axis=1))
    h_field = SpectralField(grid1d, grid1d.from_grid(hg)[None])
    single_calls = [
        lambda h: apply_bigT(params1d, h, V),
        lambda h: invert_bigT(params1d, h, V),
        lambda h: energy_E(params1d, h, V),
        lambda h: bigT_pairing(params1d, h, V, V),
    ]
    for call in single_calls:
        call(hg)
        for wrong in (hg[None], hg[:-1], h_field):
            with pytest.raises(ValueError, match="depth samples"):
                call(wrong)
    stacked = np.stack([hg] * 3)
    for call in (lambda h: apply_bigT(params1d, h, batch), lambda h: invert_bigT(params1d, h, batch)):
        call(stacked)
        for wrong in (hg, stacked[:2]):
            with pytest.raises(ValueError, match="depth samples"):
                call(wrong)


def test_invert_bigT_roundtrip(params1d, grid1d, rng):
    zeta = random_field(grid1d, 1, rng, amplitude=0.2, decay=3.0)
    h = _depth_samples(params1d, zeta)
    V = random_field(grid1d, 1, rng, amplitude=1.0, decay=2.0)
    W = invert_bigT(params1d, h, V, tol=1e-13)
    back = apply_bigT(params1d, h, W)
    # the inverse is computed on the dealiased band; compare there
    proj = SpectralField(grid1d, grid1d.project(V.coefficients))
    err = sobolev_norm(SpectralField(grid1d, back.coefficients - proj.coefficients), 0.0)
    assert err <= 1e-11 * sobolev_norm(proj, 0.0)


def test_invert_bigT_warm_start_and_info(params1d, grid1d, rng):
    zeta = random_field(grid1d, 1, rng, amplitude=0.2, decay=3.0)
    h = _depth_samples(params1d, zeta)
    V = random_field(grid1d, 1, rng, amplitude=1.0, decay=2.0)
    W, info_cold = invert_bigT(params1d, h, V, tol=1e-12, return_info=True)
    W2, info_warm = invert_bigT(
        params1d, h, V, tol=1e-12, x0=W.coefficients.reshape(-1), return_info=True
    )
    assert info_warm["iterations"] <= info_cold["iterations"]
    assert info_warm["iterations"] <= 1
    assert np.max(np.abs(W2.coefficients - W.coefficients)) < 1e-10


def test_invert_bigT_failure_raises(params1d, grid1d, rng):
    zeta = random_field(grid1d, 1, rng, amplitude=0.2, decay=3.0)
    h = _depth_samples(params1d, zeta)
    V = random_field(grid1d, 1, rng, amplitude=1.0, decay=2.0)
    with pytest.raises(ConvergenceError):
        invert_bigT(params1d, h, V, tol=1e-14, max_iter=1)


# ----------------------------------------------------------------- tendency

def test_rest_state_is_steady(params1d, grid1d):
    rest = GNState(V=zero_field(grid1d, 1), zeta=zero_field(grid1d))
    F = nonlinear_F(params1d, rest)
    assert np.max(np.abs(F.V.coefficients)) < 1e-14
    assert np.max(np.abs(F.zeta.coefficients)) < 1e-14


def test_tendency_rejects_low_depth(params1d, grid1d):
    deep = field_from_grid(grid1d, np.full((1, 64), -1.5))
    flat = PhysicalParams(mu=params1d.mu, eps=params1d.eps, b=zero_field(grid1d))
    for params in (params1d, flat):
        with pytest.raises(DomainError):
            nonlinear_F(params, GNState(V=zero_field(grid1d, 1), zeta=deep))


def test_tendency_mean_elevation_is_conserved(params1d, state1d):
    # the elevation row is a pure divergence: its mean mode never moves
    F = nonlinear_F(params1d, state1d)
    assert abs(F.zeta.coefficients[0].reshape(-1)[0]) < 1e-15


# ------------------------------------------------------------- linearization

def test_frechet_F_refuses_substituted_coefficients(params1d, grid1d, rng):
    # the substituted coefficients agree with the derivative only on exact
    # solutions, so frechet_F takes only the exact ones
    u = random_field(grid1d, 2, rng, amplitude=0.1, decay=3.0).coefficients
    uref = TrajectoryField(grid1d, np.array([0.0, 1.0]), np.stack([u, u]))
    w = GNState(V=random_field(grid1d, 1, rng), zeta=random_field(grid1d, 1, rng))
    coeffs = build_linearized_coeffs(params1d, uref)
    assert coeffs.substituted
    with pytest.raises(ValueError, match="substituted=False"):
        frechet_F(coeffs, params1d, 0, w)


def test_frechet_consistency_fixed_direction(params1d, grid1d, rng):
    u = GNState(
        V=random_field(grid1d, 1, rng, amplitude=0.12, decay=3.0),
        zeta=random_field(grid1d, 1, rng, amplitude=0.12, decay=3.0),
    )
    w = GNState(
        V=random_field(grid1d, 1, rng, amplitude=1.0, decay=3.0),
        zeta=random_field(grid1d, 1, rng, amplitude=1.0, decay=3.0),
    )
    upk = u.packed().coefficients
    uref = TrajectoryField(grid1d, np.array([0.0, 1.0]), np.stack([upk, upk]))
    coeffs = build_linearized_coeffs(params1d, uref, substituted=False)
    Dw = frechet_F(coeffs, params1d, 0, w).packed().coefficients
    F0 = nonlinear_F(params1d, u).packed().coefficients

    def remainder(eta):
        up = GNState(
            V=SpectralField(grid1d, u.V.coefficients + eta * w.V.coefficients),
            zeta=SpectralField(grid1d, u.zeta.coefficients + eta * w.zeta.coefficients),
        )
        F1 = nonlinear_F(params1d, up).packed().coefficients
        return sobolev_norm(SpectralField(grid1d, F1 - F0 - eta * Dw), 0.0)

    r1, r2 = remainder(1e-3), remainder(1e-4)
    assert r1 / r2 == pytest.approx(100.0, rel=0.25)  # quadratic remainder


def test_linearized_coeffs_reject_low_depth(params1d, grid1d):
    deep = np.zeros((2, 2, 64), dtype=np.complex128)
    deep[:, 1] = field_from_grid(grid1d, np.full((1, 64), -1.5)).coefficients
    uref = TrajectoryField(grid1d, np.array([0.0, 1.0]), deep)
    with pytest.raises(DomainError):
        build_linearized_coeffs(params1d, uref)


# --------------------------------------------------------- flat-bottom branch

def _flat_case(dim, n):
    """Flat-bottom params, a state, a direction and frozen coefficients."""
    grid = GridSpec(dimension=dim, nodes_per_axis=n, domain_length=2 * math.pi)
    rng = np.random.default_rng(20240817)
    params = PhysicalParams(mu=0.3, eps=0.5, b=zero_field(grid))

    def draw():
        return GNState(
            V=random_field(grid, dim, rng, amplitude=0.05, decay=4.0),
            zeta=random_field(grid, 1, rng, amplitude=0.05, decay=4.0),
        )

    u, v, w = draw(), draw(), draw()
    snaps = np.stack([u.packed().coefficients, w.packed().coefficients])
    coeffs = build_linearized_coeffs(params, TrajectoryField(grid, np.array([0.0, 1.0]), snaps))
    return params, u, v, coeffs


@pytest.mark.parametrize("dim,n", [(1, 64), (2, 16)], ids=["1d", "2d"])
def test_flat_assembly_matches_general_branch(monkeypatch, dim, n):
    # both branches solve by PCG: the patched slope below would send only
    # the general one there, past the direct solve of a small flat 1D band
    monkeypatch.setattr(gn, "_DENSE_MODES", 0)
    params, u, v, coeffs = _flat_case(dim, n)
    grid = params.grid
    assert params._slope is None
    hg = depth_grid(params, u.zeta)
    flat_T = gn._apply_bigT_arrays(grid, params.mu, hg, None, v.V.coefficients)
    flat_F = nonlinear_F(params, u)
    flat_K = apply_K(coeffs, params, 0.3, v)

    # the general branch, run on b = 0 with the zero slope passed explicitly
    zero_slope = params.grad_beta_grid
    assert not np.any(zero_slope)
    monkeypatch.setattr(PhysicalParams, "_slope", property(lambda p: p.grad_beta_grid))
    gen_T = gn._apply_bigT_arrays(grid, params.mu, hg, zero_slope, v.V.coefficients)
    gen_F = nonlinear_F(params, u)
    # the flat build stores no grad(grad(beta).Vbar), which is zero here
    gen_coeffs = dataclasses.replace(coeffs, grad_vbarbeta=np.zeros_like(coeffs.bbar))
    gen_K = apply_K(gen_coeffs, params, 0.3, v)

    assert np.array_equal(flat_T, gen_T)
    assert np.array_equal(flat_F.packed().coefficients, gen_F.packed().coefficients)
    assert np.array_equal(flat_K.packed().coefficients, gen_K.packed().coefficients)


@pytest.mark.parametrize("dim,n", [(1, 64), (2, 16)], ids=["1d", "2d"])
def test_flat_energy_forms_no_slope(monkeypatch, dim, n):
    # on a flat bottom energy_E leaves out grad(beta).V and never samples
    # the all-zero slope; the general formula gives the same bits
    _, u, v, _ = _flat_case(dim, n)
    params = PhysicalParams(mu=0.3, eps=0.5, b=zero_field(u.V.grid))
    h = _depth_samples(params, u.zeta)
    flat = energy_E(params, h, v.V)
    assert "grad_beta_grid" not in vars(params)
    monkeypatch.setattr(PhysicalParams, "_slope", property(lambda p: p.grad_beta_grid))
    assert energy_E(params, h, v.V) == flat
    assert "grad_beta_grid" in vars(params)


# ------------------------------------------------- derivative kernel bits
# `_grad_c`/`_div_c` multiply by the cached 1j*xi and the flat matvec fills
# its stacked transform rows in place with the depth cube formed once per
# solve. The forms they replaced are kept here and must give the same bytes.


def _ref_grad_c(grid, c):
    xi = grid.wavenumbers()
    return np.stack([1j * xi[ax] * c for ax in range(grid.dimension)])


def _ref_div_c(grid, c):
    xi = grid.wavenumbers()
    out = 1j * xi[0] * c[0]
    for ax in range(1, grid.dimension):
        out = out + 1j * xi[ax] * c[ax]
    return out


def _ref_flat_bigT(grid, mu, hg, Vc):
    Vg, Xg = gn._transform(grid.to_grid, grid, [Vc, _ref_div_c(grid, Vc)], True)
    out, h3X = gn._transform(grid.from_grid, grid, [hg[None] * Vg, hg * hg * hg * Xg], True)
    out += mu * (-(1.0 / 3.0) * _ref_grad_c(grid, h3X))
    return grid.project(out)


@pytest.mark.parametrize("dim,n", [(1, 10), (1, 64), (2, 12), (2, 16)])
def test_derivatives_keep_the_bits_of_the_per_axis_formulas(dim, n):
    grid = GridSpec(dimension=dim, nodes_per_axis=n, domain_length=2.0)
    rng = np.random.default_rng(n)
    scalar = rng.standard_normal((3, *grid.shape)) + 1j * rng.standard_normal((3, *grid.shape))
    # snapshots-first, as a trajectory stores them; a chunk is a swapaxes view
    snaps = rng.standard_normal((3, dim, *grid.shape)) + 1j * rng.standard_normal(
        (3, dim, *grid.shape)
    )
    vector = np.ascontiguousarray(snaps.swapaxes(0, 1))
    for c in (scalar[0], scalar):
        assert gn._grad_c(grid, c).tobytes() == _ref_grad_c(grid, c).tobytes()
    for c in (vector[:, 0], vector, snaps.swapaxes(0, 1)):
        assert gn._div_c(grid, c).tobytes() == _ref_div_c(grid, c).tobytes()
        out = np.empty(c.shape[1:], dtype=np.complex128)
        gn._div_c(grid, c, out=out)
        assert out.tobytes() == _ref_div_c(grid, c).tobytes()


@pytest.mark.parametrize("dim,n", [(1, 64), (2, 16)])
def test_gradient_rows_keep_the_bits_of_the_stacked_lists(dim, n):
    # `_tendency_rows` and `_K_rows` form grad V and the rows (V.grad) V_i
    # with one `_grad_c` and one `_dot_g` over a swapaxes view instead of
    # per-component lists and np.stack; the unstacked (bathymetry) branch
    # transforms the view itself. Single and batched layouts.
    grid = GridSpec(dimension=dim, nodes_per_axis=n, domain_length=2.0)
    rng = np.random.default_rng(3 * n + dim)
    V = grid.from_grid(rng.standard_normal((dim, 3, *grid.shape)))
    for Vc in (V[:, 0], V):
        want = np.stack([gn._grad_c(grid, Vc[i]) for i in range(dim)])
        got = gn._grad_c(grid, Vc).swapaxes(0, 1)
        assert got.tobytes() == want.tobytes()
        G = grid.to_grid(want)
        assert grid.to_grid(got).tobytes() == G.tobytes()
        W = grid.to_grid(grid.from_grid(rng.standard_normal(Vc.shape)))
        Vg = grid.to_grid(Vc)
        for U in (grid.to_grid(got), G):
            rows = np.stack([gn._dot_g(Vg, U[i]) + gn._dot_g(W, U[i]) for i in range(dim)])
            swapped = U.swapaxes(0, 1)
            assert (gn._dot_g(Vg, swapped) + gn._dot_g(W, swapped)).tobytes() == rows.tobytes()


@pytest.mark.parametrize("dim,n", [(1, 64), (1, 96), (2, 16)])
def test_flat_matvec_keeps_the_bits_of_the_unhoisted_form(dim, n):
    grid = GridSpec(dimension=dim, nodes_per_axis=n, domain_length=2 * math.pi)
    rng = np.random.default_rng(7 * n + dim)
    params = PhysicalParams(mu=0.3, eps=0.5, b=zero_field(grid))
    hg = 1.0 + 0.2 * rng.standard_normal((3, *grid.shape))
    V = grid.project(grid.from_grid(rng.standard_normal((dim, 3, *grid.shape))))
    for h, Vc in ((hg[0], V[:, 0]), (hg, V)):
        want = _ref_flat_bigT(grid, params.mu, h, Vc).tobytes()
        assert gn._apply_bigT_arrays(grid, params.mu, h, None, Vc).tobytes() == want
    # the CG operators form the cube once per solve and act on the band
    # rows: a lone member on the unbatched layout, and a batch
    band = grid._band.index
    restrict = gn._bigT_operators(params, hg)
    matvec = restrict(np.array([1]))[0]
    want = gn._band_rows(_ref_flat_bigT(grid, params.mu, hg[1], V[:, 1])[:, None], band)
    assert matvec(gn._band_rows(V[:, 1:2], band)).tobytes() == want.tobytes()
    matvec = restrict(np.array([0, 2]))[0]
    rows = gn._band_rows(V[:, [0, 2]], band)
    want = gn._band_rows(_ref_flat_bigT(grid, params.mu, hg[[0, 2]], V[:, [0, 2]]), band)
    assert matvec(rows).tobytes() == want.tobytes()


def test_nonflat_bathymetry_takes_general_branch(params1d):
    assert params1d._slope is params1d.grad_beta_grid


def test_flat_transform_count(monkeypatch):
    # one stacked to_grid and one stacked from_grid per assembly, no
    # transform of h (the solve takes its grid samples), and one pair per
    # CG iteration (the PCG path; this band would otherwise be solved
    # directly)
    monkeypatch.setattr(gn, "_DENSE_MODES", 0)
    params, u, v, coeffs = _flat_case(1, 64)
    calls = {"n": 0}
    for name in ("to_grid", "from_grid"):
        def counted(self, values, _transform=getattr(GridSpec, name)):
            calls["n"] += 1
            return _transform(self, values)

        monkeypatch.setattr(GridSpec, name, counted)
    for evaluate in (lambda: nonlinear_F(params, u), lambda: apply_K(coeffs, params, 0.3, v)):
        calls["n"] = 0
        with gn.counting() as counts:
            evaluate()
        iters = counts["cg_iterations"]
        assert iters > 0
        assert calls["n"] <= 2 + 2 * iters


# --------------------------------------------------------------------- norms

def test_x_norm_definition(params1d, grid1d, rng):
    V = random_field(grid1d, 1, rng, amplitude=0.5, decay=2.0)
    zeta = random_field(grid1d, 1, rng, amplitude=0.5, decay=2.0)
    u = GNState(V=V, zeta=zeta)
    s = 1.5
    xi = grid1d.wavenumbers()[0]
    div = SpectralField(
        grid1d, 1j * np.broadcast_to(xi, grid1d.shape) * V.coefficients[0]
    )
    expect = (
        sobolev_norm(V, s)
        + math.sqrt(params1d.mu) * sobolev_norm(div, s)
        + sobolev_norm(zeta, s)
    )
    assert math.isclose(
        x_norm_packed(params1d, u.packed(), s), expect, rel_tol=1e-12
    )
