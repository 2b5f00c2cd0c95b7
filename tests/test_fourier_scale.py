"""Discrete Sobolev scale: grids, norms, smoothing, serialization."""
import math

import numpy as np
import pytest

from nmshallow.fourier_scale import (
    GridSpec,
    SpectralField,
    TrajectoryField,
    field_from_grid,
    field_to_grid,
    interpolate_bound_check,
    load_trajectory,
    random_field,
    save_trajectory,
    smooth,
    sobolev_norm,
    time_derivative,
    trajectory_norm,
    zero_field,
)


# ------------------------------------------------------------------- GridSpec

def test_grid_geometry(grid1d):
    x = grid1d.axis_coordinates()
    assert x.shape == (64,)
    assert x[0] == 0.0
    assert np.allclose(np.diff(x), 2 * math.pi / 64)
    assert math.isclose(grid1d.cell_volume, 2 * math.pi / 64)


def test_wavenumbers_cached_read_only(grid2d):
    xi = grid2d.wavenumbers()
    assert xi is grid2d.wavenumbers()
    assert isinstance(xi, tuple) and [x.shape for x in xi] == [(16, 1), (1, 16)]
    assert xi[0][1, 0] == 1.0 and xi[1][0, -1] == -1.0  # 2*pi*k/L with L = 2*pi
    with pytest.raises(ValueError):
        xi[0][1, 0] = 5.0


def test_dealias_cutoff_values():
    g = GridSpec(dimension=1, nodes_per_axis=64, domain_length=1.0)
    assert g.dealias_cutoff_index == 21  # int(2/3 * 32)
    g_narrow = GridSpec(
        dimension=1, nodes_per_axis=128, domain_length=1.0, dealias_fraction=0.0625
    )
    assert g_narrow.dealias_cutoff_index == 4
    g_full = GridSpec(dimension=1, nodes_per_axis=16, domain_length=1.0, dealias_fraction=1.0)
    assert g_full.dealias_cutoff_index == 7  # capped at n//2 - 1


def test_grid_roundtrip(grid2d, rng):
    u = random_field(grid2d, 3, rng, amplitude=1.0, decay=1.0)
    back = grid2d.from_grid(grid2d.to_grid(u.coefficients))
    assert np.max(np.abs(back - u.coefficients)) < 1e-13


def test_projection_idempotent(grid1d, rng):
    u = random_field(grid1d, 1, rng)
    once = grid1d.project(u.coefficients)
    assert np.array_equal(grid1d.project(once), once)


# ----------------------------------------------------------- transform kernel
# The transform pair runs real-data FFTs and the projector multiplies by a
# cached complex mask. The forms they replaced are kept here as references:
# the transforms agree with them at rounding level (the test names are those
# of the byte-equality checks they replace), the projector byte for byte.

TRANSFORM_REL_MAX = 1e-14


def _ref_to_grid(grid, c):
    return np.fft.ifftn(c, axes=tuple(range(-grid.dimension, 0))).real * grid.n_modes


def _ref_from_grid(grid, v):
    return np.fft.fftn(v, axes=tuple(range(-grid.dimension, 0))) / grid.n_modes


def _assert_close(got, want, what):
    assert got.dtype == want.dtype and got.shape == want.shape, what
    err = np.max(np.abs(got - want)) / np.max(np.abs(want))
    assert err <= TRANSFORM_REL_MAX, f"{what}: relative difference {err:.3e}"


def _assert_members_keep_their_bits(transform, a, what):
    """Each member of a batched input gets the bytes of its own call."""
    out = transform(a)
    for idx in np.ndindex(a.shape[:2]):
        assert out[idx].tobytes() == transform(a[idx]).tobytes(), f"{what}, member {idx}"


def _kernel_inputs(grid, real):
    """Grid samples and the coefficients of those real fields, with an
    unprojected axis-0 derivative (not Hermitian on a Nyquist plane), each
    as a batch, a swapaxes view of the batch (the layout
    `build_linearized_coeffs` passes) and a single field."""
    coeffs = _ref_from_grid(grid, real)

    def layouts(kind, a):
        return {f"batched {kind}": a, f"swapaxes {kind}": a.swapaxes(0, 1),
                f"single {kind}": a[0, 0]}

    spectra = {**layouts("coefficients", coeffs), **layouts("derivative", grid.i_xi[0] * coeffs)}
    return layouts("samples", real), spectra


@pytest.mark.parametrize("n", [8, 10, 12, 64, 96, 512])
@pytest.mark.parametrize("dim", [1, 2])
def test_transforms_keep_the_bits_of_fftn(dim, n):
    grid = GridSpec(dimension=dim, nodes_per_axis=n, domain_length=3.0)
    real = np.random.default_rng(n + dim).standard_normal((2, 2, *grid.shape))
    grids, spectra = _kernel_inputs(grid, real)
    for name, c in spectra.items():
        _assert_close(grid.to_grid(c), _ref_to_grid(grid, c), f"to_grid, {name}")
        if not name.startswith("single"):
            _assert_members_keep_their_bits(grid.to_grid, c, f"to_grid, {name}")
    for name, v in grids.items():
        _assert_close(grid.from_grid(v), _ref_from_grid(grid, v), f"from_grid, {name}")
        if not name.startswith("single"):
            _assert_members_keep_their_bits(grid.from_grid, v, f"from_grid, {name}")


def _per_axis_to_grid(grid, c):
    """`to_grid` as it was written on the `np.fft` wrappers, per axis."""
    out = np.fft.ifft(c, axis=-1)
    if grid.dimension == 2:
        np.fft.ifft(out, axis=-2, out=out)
    return out.real * grid.n_modes


def _per_axis_from_grid(grid, v):
    out = np.fft.fft(v, axis=-1)
    if grid.dimension == 2:
        np.fft.fft(out, axis=-2, out=out)
    out /= grid.n_modes
    return out


@pytest.mark.parametrize(
    "dim,shape",
    [(1, (2, 128)), (1, (2, 1, 128)), (1, (2, 5, 64)), (2, (3, 16, 16)), (2, (6, 64, 64))],
)
def test_transforms_keep_the_bits_of_the_per_axis_wrappers(dim, shape):
    # to_grid/from_grid call numpy's private pocketfft gufuncs directly; they
    # agree with the public per-axis complex wrappers at rounding level, for
    # a batch seen through swapaxes too
    grid = GridSpec(dimension=dim, nodes_per_axis=shape[-1], domain_length=2.0)
    real = np.random.default_rng(sum(shape)).standard_normal(shape)
    cplx = _per_axis_from_grid(grid, real)
    grids, spectra = {"real": real}, {"complex": cplx}
    if len(shape) == dim + 2:
        grids["swapaxes real"] = real.swapaxes(0, 1)
        spectra["swapaxes complex"] = cplx.swapaxes(0, 1)
    for name, v in grids.items():
        _assert_close(grid.from_grid(v), _per_axis_from_grid(grid, v), f"from_grid, {name}")
    for name, c in spectra.items():
        _assert_close(grid.to_grid(c), _per_axis_to_grid(grid, c), f"to_grid, {name}")


@pytest.mark.parametrize("dim", [1, 2])
def test_from_grid_refuses_complex_input(dim):
    grid = GridSpec(dimension=dim, nodes_per_axis=16, domain_length=1.0)
    values = np.ones(grid.shape, dtype=np.complex128)
    with pytest.raises(TypeError):
        grid.from_grid(values)


@pytest.mark.parametrize("dim,n", [(1, 10), (1, 64), (2, 12)])
def test_project_keeps_the_bits_of_the_bool_mask(dim, n):
    grid = GridSpec(dimension=dim, nodes_per_axis=n, domain_length=1.0)
    rng = np.random.default_rng(n)
    # signed zeros and signs in every combination, so that a real-valued
    # mask (or any other factor) shows in the sign bits of the product
    parts = np.array([-1.5, -0.0, 0.0, 2.5])
    c = rng.choice(parts, (3, *grid.shape)) + 1j * rng.choice(parts, (3, *grid.shape))
    c[0].real = -0.0
    assert grid.project(c).tobytes() == (c * grid.dealias_mask).tobytes()
    assert grid.project(c[:, None]).tobytes() == (c[:, None] * grid.dealias_mask).tobytes()


# -------------------------------------------------------------- SpectralField

def test_field_shape_validation(grid1d):
    with pytest.raises(ValueError):
        SpectralField(grid1d, np.zeros((1, 32), dtype=np.complex128))
    # a bare (shape,) array is promoted to one component
    f = SpectralField(grid1d, np.zeros(64, dtype=np.complex128))
    assert f.components == 1


def test_random_field_is_real(grid2d, rng):
    u = random_field(grid2d, 2, rng, amplitude=0.7, decay=2.0)
    u.validate()
    vals = field_to_grid(u)
    assert vals.dtype == np.float64
    back = field_from_grid(grid2d, vals)
    assert np.max(np.abs(back.coefficients - u.coefficients)) < 1e-13


def test_field_arithmetic(grid1d, rng):
    a = random_field(grid1d, 1, rng)
    b = random_field(grid1d, 1, rng)
    s = a + b
    d = a - b
    assert np.allclose(s.coefficients, a.coefficients + b.coefficients)
    assert np.allclose((2.0 * a).coefficients, 2.0 * a.coefficients)
    assert np.allclose((s + d).coefficients, 2.0 * a.coefficients)


# ---------------------------------------------------------------------- norms

def test_sobolev_norm_single_mode_closed_form(grid1d):
    # real cosine mode a*cos(kx): coefficients a/2 at +/-k, norm
    # sqrt(L * 2 (a/2)^2) * <k>^s with <k>^2 = 1 + k^2.
    a, k = 0.3, 5
    c = np.zeros((1, 64), dtype=np.complex128)
    c[0, k] = a / 2
    c[0, -k] = a / 2
    f = SpectralField(grid1d, c)
    for s in (-1.0, 0.0, 2.5):
        expect = math.sqrt(2 * math.pi * 2 * (a / 2) ** 2) * (1 + k * k) ** (s / 2)
        assert math.isclose(sobolev_norm(f, s), expect, rel_tol=1e-13)


def test_parseval(grid1d, rng):
    f = random_field(grid1d, 2, rng, amplitude=1.3, decay=1.0)
    vals = field_to_grid(f)
    quad = math.sqrt(np.sum(vals**2) * grid1d.cell_volume)
    assert math.isclose(quad, sobolev_norm(f, 0.0), rel_tol=1e-12)


def test_norm_monotone_in_index(grid1d, rng):
    f = random_field(grid1d, 1, rng)
    norms = [sobolev_norm(f, s) for s in (-2.0, 0.0, 1.0, 3.0)]
    assert all(a <= b * (1 + 1e-15) for a, b in zip(norms, norms[1:]))


# ------------------------------------------------------------------ smoothing

def test_smooth_cutoff_laws(grid1d, rng):
    for _ in range(100):
        f = random_field(grid1d, 1, rng, amplitude=1.0, decay=1.5)
        s = float(rng.uniform(-2, 4))
        sp = s + float(rng.uniform(0.1, 4))
        theta = float(rng.uniform(1.0, 25.0))
        low = smooth(f, theta)
        high = SpectralField(grid1d, f.coefficients - low.coefficients)
        # low-pass gains regularity at price theta^{sp-s}
        assert sobolev_norm(low, sp) <= theta ** (sp - s) * sobolev_norm(f, s) + 1e-12
        # the remainder loses size at rate theta^{s-sp}
        assert sobolev_norm(high, s) <= theta ** (s - sp) * sobolev_norm(f, sp) + 1e-12


def test_smooth_idempotent_and_mean_preserving(grid1d, rng):
    f = random_field(grid1d, 1, rng)
    low = smooth(f, 7.3)
    assert np.array_equal(smooth(low, 7.3).coefficients, low.coefficients)
    assert low.coefficients[0, 0] == f.coefficients[0, 0]
    for theta in (0.5, math.nan):  # a NaN level kept no mode at all
        with pytest.raises(ValueError, match="smoothing level"):
            smooth(f, theta)


def test_interpolation_convexity(grid1d, rng):
    for _ in range(100):
        f = random_field(grid1d, 1, rng, amplitude=1.0, decay=1.0)
        s1 = float(rng.uniform(-1, 2))
        s2 = s1 + float(rng.uniform(0, 3))
        lam = float(rng.uniform(0, 1))
        lhs, rhs = interpolate_bound_check(f, s1, s2, lam)
        assert lhs <= rhs * (1 + 1e-12)


# ------------------------------------------------------------------ time grid

def test_trajectory_validation(grid1d):
    snaps = np.zeros((3, 1, 64), dtype=np.complex128)
    with pytest.raises(ValueError):
        TrajectoryField(grid1d, np.array([0.0, 0.1, 0.25]), snaps)  # nonuniform
    with pytest.raises(ValueError):
        TrajectoryField(grid1d, np.array([0.1, 0.2, 0.3]), snaps)  # not from 0
    t = TrajectoryField(grid1d, np.array([0.0, 0.1, 0.2]), snaps)
    assert t.n_times == 3 and math.isclose(t.time_step, 0.1)


def _reference_sample(traj, t):
    """The trajectory branch of the IF-RK4 driver's former forcing sampler,
    kept as the reference of `TrajectoryField.sample`."""
    snaps = traj.snapshots
    dtf = traj.time_step
    pos = t / dtf
    i0 = min(max(int(math.floor(pos)), 0), traj.n_times - 2)
    lam = pos - i0
    if lam <= 0.0:
        return snaps[i0]
    if lam >= 1.0:
        return snaps[i0 + 1]
    return (1.0 - lam) * snaps[i0] + lam * snaps[i0 + 1]


def test_trajectory_sample_interpolates_its_snapshots(grid1d, rng):
    times = np.linspace(0.0, 0.2, 11)
    snaps = np.stack([random_field(grid1d, 2, rng).coefficients for _ in times])
    traj = TrajectoryField(grid1d, times, snaps)
    for t, snap in zip(times, traj.snapshots):
        got = traj.sample(float(t))
        assert np.max(np.abs(got - snap)) <= 1e-14 * np.max(np.abs(snap))
    assert traj.sample(0.0).tobytes() == traj.snapshots[0].tobytes()
    # the same bits as the former sampler, between and at the snapshots
    draws = np.concatenate([rng.uniform(0.0, traj.duration, 200), times])
    for t in draws:
        assert traj.sample(float(t)).tobytes() == _reference_sample(traj, float(t)).tobytes()
    # to 1e-8 relative slack at both ends
    traj.sample(-1e-9 * traj.duration)
    traj.sample(traj.duration * (1.0 + 1e-9))


@pytest.mark.parametrize("t", [-1e-3, 0.2 * (1.0 + 1e-6), 0.5, math.nan])
def test_trajectory_sample_refuses_times_outside_its_span(grid1d, t):
    snaps = np.zeros((11, 2, 64), dtype=np.complex128)
    traj = TrajectoryField(grid1d, np.linspace(0.0, 0.2, 11), snaps)
    with pytest.raises(ValueError, match=r"outside the trajectory's span \[0, 0\.2\] \(11 "):
        traj.sample(t)


def test_time_derivative_exact_on_quadratics(grid1d, rng):
    a = random_field(grid1d, 1, rng).coefficients
    b = random_field(grid1d, 1, rng).coefficients
    c = random_field(grid1d, 1, rng).coefficients
    times = np.linspace(0.0, 1.0, 11)
    traj = TrajectoryField(
        grid1d, times, np.stack([a + t * b + t * t * c for t in times])
    )
    dtraj = time_derivative(traj)
    expect = np.stack([b + 2 * t * c for t in times])
    assert np.max(np.abs(dtraj.snapshots - expect)) < 1e-12


def test_time_derivative_second_order(grid1d, rng):
    a = random_field(grid1d, 1, rng).coefficients

    def make(dt):
        times = np.arange(0.0, 1.0 + dt / 2, dt)
        traj = TrajectoryField(
            grid1d, times, np.stack([math.sin(3.0 * t) * a for t in times])
        )
        d = time_derivative(traj)
        expect = np.stack([3.0 * math.cos(3.0 * t) * a for t in times])
        return np.max(np.abs(d.snapshots - expect))

    e1, e2 = make(0.02), make(0.01)
    assert 3.4 < e1 / e2 < 4.6


def test_trajectory_norm_is_the_sup_over_snapshots(grid1d, rng):
    a = random_field(grid1d, 1, rng).coefficients
    times = np.linspace(0.0, 1.0, 9)
    traj = TrajectoryField(grid1d, times, np.stack([(1.0 + t) * a for t in times]))
    base = sobolev_norm(SpectralField(grid1d, a), 1.0)
    assert math.isclose(trajectory_norm(traj, 1.0), 2.0 * base, rel_tol=1e-12)


# -------------------------------------------------------------- serialization

def test_trajectory_roundtrip(tmp_path, grid1d, rng):
    times = np.linspace(0.0, 0.5, 6)
    snaps = np.stack(
        [random_field(grid1d, 2, rng).coefficients for _ in range(6)]
    )
    traj = TrajectoryField(grid1d, times, snaps)
    save_trajectory(traj, tmp_path / "traj")
    back = load_trajectory(tmp_path / "traj")
    assert back.grid == grid1d
    assert np.array_equal(back.snapshots, traj.snapshots)
    assert np.allclose(back.times, traj.times)


def test_trajectory_roundtrip_keeps_a_suffixed_stem(tmp_path, grid1d, rng):
    # a stem's own suffix stays: the files are run.v2.json and run.v2.bin,
    # and the stem or the header path loads them back
    snaps = np.stack([random_field(grid1d, 2, rng).coefficients for _ in range(4)])
    traj = TrajectoryField(grid1d, np.linspace(0.0, 0.3, 4), snaps)
    header = save_trajectory(traj, tmp_path / "run.v2")
    assert header == tmp_path / "run.v2.json"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.v2.bin", "run.v2.json"]
    for path in (tmp_path / "run.v2", header):
        back = load_trajectory(path)
        assert back.snapshots.tobytes() == traj.snapshots.tobytes()
        assert back.snapshots.flags.writeable


def test_zero_field_components(grid1d):
    z = zero_field(grid1d, 3)
    assert z.components == 3
    assert not np.any(z.coefficients)
