"""Discrete Sobolev scale on a periodic box: fields, norms, smoothing.

Scalar and vector quantities are stored as stacks of Fourier coefficient
arrays on a uniform grid of the d-torus (d = 1 or 2), side length ``domain_length``.
For a real field u the stored coefficients are the Fourier-series coefficients
c_k with u(x) = sum_k c_k exp(2*pi*i k.x / L), so the Sobolev norm of index s is

    |u|_s^2 = L^d * sum_k (1 + |xi_k|^2)^s |c_k|^2,   xi_k = 2*pi*k / L,

which at s = 0 coincides with the continuum L^2 norm of the trigonometric
interpolant (grid quadrature is exact for it). Smoothing is the sharp Fourier
cutoff ``keep modes with (1+|xi|^2)^{1/2} <= theta``; being an orthogonal
projection in every index simultaneously, it satisfies the two smoothing
inequalities and the interpolation (log-convexity) inequality with constant
exactly 1, which the tests assert.

Trajectories are uniformly sampled in time starting at t = 0; time derivatives
use centered differences in the interior and one-sided second-order stencils at
the endpoints.

Serialization: a trajectory is written as ``<stem>.json`` (header: format
version, grid metadata, component count, times) plus ``<stem>.bin``
holding the coefficients as little-endian float64 pairs (re, im) in C order.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import DomainError

__all__ = [
    "GridSpec",
    "SpectralField",
    "TrajectoryField",
    "sobolev_norm",
    "smooth",
    "interpolate_bound_check",
    "trajectory_norm",
    "time_derivative",
    "field_from_grid",
    "field_to_grid",
    "zero_field",
    "random_field",
    "save_trajectory",
    "load_trajectory",
]

FORMAT_VERSION = 1

#: Snapshots per batched call in the per-trajectory passes (`_chunks`). On
#: the flagship solve (N = 128, 201 snapshots; 2-core x86 host) 16 and 32
#: ran within each other's quartiles, while 32 raised the residual's peak
#: traced memory by 1 MB over the per-snapshot loop and 16 by 0.01 MB.
_CHUNK = 16


class _BandLayout(NamedTuple):
    """The retained band of a grid as a dense block, read-only.

    The band layout lists the retained modes in C order over the grid,
    which is per axis the modes 0..K, then -K..-1: a block of `shape`
    (2K+1,)*d. `index` and `off` are the flat positions (over the grid's
    `shape`) of the retained and of the dropped modes; `blocks` are the
    2^d rectangular pieces of the band, pairs of indices (Ellipsis, then a
    slice per axis) into the full coefficient array and into the block,
    whose copies are strided slices, cheaper than a gather by index; `i_xi`
    (d, n_band) and `xi_sq` (n_band,) are the grid's 1j*xi and |xi|^2 on
    the band.
    """

    index: np.ndarray
    off: np.ndarray
    shape: tuple[int, ...]
    blocks: tuple[tuple[tuple, tuple], ...]
    i_xi: np.ndarray
    xi_sq: np.ndarray


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid of the d-torus.

    dimension: 1 or 2.
    nodes_per_axis: even, >= 8 (same on each axis).
    domain_length: side length of the box (same on each axis).
    dealias_fraction: fraction of the Nyquist range kept after nonlinear
        products (defaults to the classical 2/3 rule).

    The transforms call numpy's private pocketfft gufuncs
    (`np.fft._pocketfft_umath`) directly and use the real-data transforms
    along the last axis; `test_transforms_keep_the_bits_of_fftn` and
    `test_transforms_keep_the_bits_of_the_per_axis_wrappers` compare them
    at rounding level with `np.fft.ifftn`/`fftn` and the per-axis
    `np.fft.ifft`/`fft`, and `tests/test_rounding_gate.py` with the
    complex-to-complex pair they replaced.
    """

    dimension: int
    nodes_per_axis: int
    domain_length: float
    dealias_fraction: float = 2.0 / 3.0

    def __post_init__(self) -> None:
        if self.dimension not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {self.dimension}")
        n = self.nodes_per_axis
        if n < 8 or n % 2 != 0:
            raise ValueError(f"nodes_per_axis must be even and >= 8, got {n}")
        if not (0.0 < self.domain_length < math.inf):
            raise ValueError("domain_length must be positive and finite")
        if not (0.0 < self.dealias_fraction <= 1.0):
            raise ValueError("dealias_fraction must lie in (0, 1]")

    # ------------------------------------------------------------- geometry
    # Every array derived from the grid alone is a `cached_property`, built
    # on first use and kept on the instance (`cached_property` writes the
    # instance dict, which the frozen dataclass leaves open): the transforms
    # and operators read them on every call.
    @cached_property
    def shape(self) -> tuple[int, ...]:
        return (self.nodes_per_axis,) * self.dimension

    @cached_property
    def n_modes(self) -> int:
        return self.nodes_per_axis**self.dimension

    @property
    def spacing(self) -> float:
        return self.domain_length / self.nodes_per_axis

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dimension

    def axis_coordinates(self) -> np.ndarray:
        return np.arange(self.nodes_per_axis) * self.spacing

    @cached_property
    def mode_indices(self) -> np.ndarray:
        """Integer mode numbers along one axis in FFT order."""
        n = self.nodes_per_axis
        return np.fft.fftfreq(n, d=1.0 / n).astype(np.int64)

    @cached_property
    def _wavenumbers(self) -> tuple[np.ndarray, ...]:
        k1 = self.mode_indices.astype(np.float64) * (2.0 * np.pi / self.domain_length)
        k1.flags.writeable = False
        out = []
        for ax in range(self.dimension):
            spec = [None] * self.dimension
            spec[ax] = slice(None)
            out.append(k1[tuple(spec)])
        return tuple(out)

    def wavenumbers(self) -> tuple[np.ndarray, ...]:
        """Physical wavenumbers 2*pi*k/L per axis, broadcastable to `shape`.

        Cached read-only views: callers share them and cannot mutate them.
        """
        return self._wavenumbers

    @cached_property
    def i_xi(self) -> np.ndarray:
        """1j * xi per axis on the full mode grid, (d, *shape), read-only:
        the spectral gradient is one broadcast product with it. Each entry
        has the bits of `1j * wavenumbers()[ax]`."""
        xi = self.wavenumbers()
        out = np.stack([np.broadcast_to(1j * xi[ax], self.shape) for ax in range(self.dimension)])
        out.flags.writeable = False
        return out

    @cached_property
    def xi_sq(self) -> np.ndarray:
        """|xi|^2 on the full mode grid."""
        total = np.zeros(self.shape)
        for xi in self.wavenumbers():
            total = total + xi**2
        return total

    @cached_property
    def xi_abs(self) -> np.ndarray:
        """|xi| on the full mode grid: the frequency of the free wave group."""
        return np.sqrt(self.xi_sq)

    @cached_property
    def xi_unit(self) -> np.ndarray:
        """Unit wavevectors xi/|xi|, zero at the origin mode, (d, *shape): the
        longitudinal direction the free wave group rotates."""
        xi_abs = self.xi_abs
        unit = np.zeros((self.dimension, *self.shape))
        mask = xi_abs > 0.0
        for i, xi_i in enumerate(self.wavenumbers()):
            full = np.broadcast_to(xi_i, self.shape)
            unit[i][mask] = full[mask] / xi_abs[mask]
        return unit

    @cached_property
    def bracket_sq(self) -> np.ndarray:
        """(1 + |xi|^2) on the full mode grid."""
        return 1.0 + self.xi_sq

    @cached_property
    def _sobolev_weights(self) -> dict[float, np.ndarray]:
        """Weights per Sobolev index, filled by `sobolev_weights`."""
        return {}

    def sobolev_weights(self, s: float) -> np.ndarray:
        """Flattened weights (1+|xi|^2)^s, cached per index s."""
        weights = self._sobolev_weights
        s = float(s)
        if s not in weights:
            weights[s] = np.ascontiguousarray(self.bracket_sq.reshape(-1) ** s)
        return weights[s]

    @property
    def dealias_cutoff_index(self) -> int:
        """Largest retained |k| per axis; the Nyquist mode is always dropped."""
        n = self.nodes_per_axis
        return min(int(self.dealias_fraction * (n // 2)), n // 2 - 1)

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        keep1 = np.abs(self.mode_indices) <= self.dealias_cutoff_index
        mask = np.ones(self.shape, dtype=bool)
        for ax in range(self.dimension):
            spec = [None] * self.dimension
            spec[ax] = slice(None)
            mask &= keep1[tuple(spec)]
        return mask

    @cached_property
    def dealias_factor(self) -> np.ndarray:
        """`dealias_mask` as complex128 (exactly 1+0j or 0j), read-only: the
        factor numpy would cast the bool mask to in `coeffs * mask`, formed
        once."""
        out = self.dealias_mask.astype(np.complex128)
        out.flags.writeable = False
        return out

    @cached_property
    def _band(self) -> "_BandLayout":
        """The band layout of the elliptic solver (see `_BandLayout`)."""
        flat = self.dealias_mask.reshape(-1)
        index, off = np.flatnonzero(flat), np.flatnonzero(~flat)
        cut = self.dealias_cutoff_index
        n = self.nodes_per_axis
        halves = ((slice(0, cut + 1), slice(0, cut + 1)), (slice(n - cut, n), slice(cut + 1, None)))
        blocks = [((...,), (...,))]
        for _ in range(self.dimension):
            blocks = [(f + (h[0],), b + (h[1],)) for f, b in blocks for h in halves]
        i_xi = self.i_xi.reshape(self.dimension, -1)[:, index]
        xi_sq = self.xi_sq.reshape(-1)[index]
        for table in (index, off, i_xi, xi_sq):
            table.flags.writeable = False
        return _BandLayout(index, off, (2 * cut + 1,) * self.dimension, tuple(blocks), i_xi, xi_sq)

    @cached_property
    def _band_galerkin(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Tables of the Fourier-Galerkin matrices on the retained band of a
        1D grid, whose 2K+1 modes k_j are taken in FFT order (0..K, then
        -K..-1), read-only: the position k_j mod N of each mode in the
        coefficient array; the index (k_j - k_l) mod N of the coefficient of
        a grid function g that the projected product P(g v) carries from
        mode k_l to mode k_j; and the factor xi_j xi_l."""
        cut = self.dealias_cutoff_index
        n = self.nodes_per_axis
        k = np.concatenate([self.mode_indices[: cut + 1], self.mode_indices[n - cut :]])
        modes = k % n
        gather = (k[:, None] - k[None, :]) % n
        xi = k * (2.0 * np.pi / self.domain_length)
        xixi = xi[:, None] * xi[None, :]
        for table in (modes, gather, xixi):
            table.flags.writeable = False
        return modes, gather, xixi

    # --------------------------------------------------------- fft helpers
    def to_grid(self, coeffs: np.ndarray) -> np.ndarray:
        """Coefficients (..., *shape) -> real grid samples, float64.

        The transform pair is the package's only FFT site, one gufunc call
        per axis without the per-call argument handling of `np.fft`, which
        dominates at the sizes the package runs. The input is the full
        coefficient array of a real field: Hermitian, c(-k) = conj(c(k)),
        except that on the Nyquist planes only the Hermitian part counts.
        An unprojected spectral derivative is such an input, since 1j * xi
        is not odd at the Nyquist index. The result is the real part of the
        inverse DFT, `ifftn(coeffs, axes).real * n_modes` to rounding.

        The real-data inverse reads only the modes with a non-negative
        last-axis index: in 2D the first axis is inverted on those columns,
        with the Nyquist row replaced by its Hermitian part
        (c[N, k] + conj(c[N, -k])) / 2, then `irfft` runs along the last
        axis (which takes the real part of its k = 0 and Nyquist modes).
        Both calls are unnormalized, so the samples are the plain sum
        sum_k c_k exp(2 pi i k.x / L).
        """
        fft = np.fft._pocketfft_umath
        nyq = self.nodes_per_axis // 2
        out = np.empty_like(coeffs, dtype=np.float64)
        if self.dimension == 1:
            fft.irfft(coeffs[..., : nyq + 1], 1.0, out=out)
            return out
        half = coeffs[..., : nyq + 1].astype(np.complex128)
        row = half[..., nyq, 1:nyq]
        row += np.conjugate(coeffs[..., nyq, :nyq:-1])
        row *= 0.5
        fft.ifft(half, 1.0, axes=[(-2,), (), (-2,)], out=half)
        fft.irfft(half, 1.0, out=out)
        return out

    def from_grid(self, values: np.ndarray) -> np.ndarray:
        """Real grid samples (..., *shape) -> coefficients, complex128, the
        full array of `fftn(values, axes) / n_modes` to rounding.

        `rfft` along the last axis, scaled by 1/n_modes, writes the modes
        with a non-negative last-axis index, in 2D followed by the
        first-axis transform in place; the other half is their mirror,
        c(-k) = conj(c(k)). Complex input raises TypeError (the real-data
        gufunc does not take it).
        """
        fft = np.fft._pocketfft_umath
        nyq = self.nodes_per_axis // 2
        out = np.empty_like(values, dtype=np.complex128)
        half = out[..., : nyq + 1]
        fft.rfft_n_even(values, 1.0 / self.n_modes, out=half)
        if self.dimension == 1:
            np.conjugate(half[..., nyq - 1 : 0 : -1], out=out[..., nyq + 1 :])
            return out
        fft.fft(half, 1.0, axes=[(-2,), (), (-2,)], out=half)
        np.conjugate(half[..., 0, nyq - 1 : 0 : -1], out=out[..., 0, nyq + 1 :])
        np.conjugate(half[..., :0:-1, nyq - 1 : 0 : -1], out=out[..., 1:, nyq + 1 :])
        return out

    def project(self, coeffs: np.ndarray) -> np.ndarray:
        """Apply the dealiasing projector (zero all modes above the cutoff)."""
        return coeffs * self.dealias_factor


@dataclass
class SpectralField:
    """A stack of real scalar fields stored by Fourier coefficients.

    `coefficients` has shape (components, *grid.shape) and satisfies the
    Hermitian symmetry c(-k) = conj(c(k)) so every component is real on the
    grid. Vector/scalar groups (e.g. velocity components plus elevation) share
    this one container so norms, smoothing and serialization have a single
    code path.

    A batch of independent fields (ensemble members, snapshots) has shape
    (components, batch, *grid.shape). Linear and pointwise operations act on
    every member; a reduction of one field (`sobolev_norm`, `validate`)
    refuses a batch instead of summing across members.
    """

    grid: GridSpec
    coefficients: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.coefficients, dtype=np.complex128)
        dim = self.grid.dimension
        if c.ndim == dim:
            c = c[None]
        if c.ndim > dim + 2 or c.shape[-dim:] != self.grid.shape:
            raise ValueError(
                f"coefficient shape {c.shape} does not match grid {self.grid.shape}"
            )
        self.coefficients = c

    @property
    def components(self) -> int:
        return self.coefficients.shape[0]

    @property
    def batch(self) -> int | None:
        """Number of members of a batched field, None for a single field."""
        c = self.coefficients
        return c.shape[1] if c.ndim == self.grid.dimension + 2 else None

    def require_single(self, what: str) -> None:
        """Raise ValueError when this field is a batch; `what` names the caller."""
        if self.batch is not None:
            raise ValueError(
                f"{what} reduces one field; got a batch of {self.batch}, "
                "apply it to each member"
            )

    def copy(self) -> "SpectralField":
        return SpectralField(self.grid, self.coefficients.copy())

    def validate(self, tol: float = 1e-12) -> None:
        """Check finiteness and Hermitian symmetry (relative tolerance)."""
        self.require_single("validate")
        c = self.coefficients
        if not np.all(np.isfinite(c.view(np.float64))):
            raise ValueError("non-finite coefficients")
        axes = tuple(range(1, c.ndim))
        mirrored = np.conj(_reverse_modes(c, axes))
        scale = np.max(np.abs(c)) or 1.0
        err = np.max(np.abs(c - mirrored))
        if err > tol * scale:
            raise ValueError(f"Hermitian symmetry violated: {err:.3e} > {tol:.1e}*{scale:.3e}")

    # Small linear algebra so iteration updates read naturally.
    def __add__(self, other: "SpectralField") -> "SpectralField":
        return SpectralField(self.grid, self.coefficients + other.coefficients)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        return SpectralField(self.grid, self.coefficients - other.coefficients)

    def __mul__(self, a: float) -> "SpectralField":
        return SpectralField(self.grid, self.coefficients * a)

    __rmul__ = __mul__

    def __neg__(self) -> "SpectralField":
        return SpectralField(self.grid, -self.coefficients)


def _reverse_modes(c: np.ndarray, axes: Sequence[int]) -> np.ndarray:
    """Index map k -> -k (mod N) along the given axes."""
    out = c
    for ax in axes:
        out = np.roll(np.flip(out, axis=ax), 1, axis=ax)
    return out


@dataclass
class TrajectoryField:
    """Uniform-in-time sequence of spectral fields on one grid.

    `snapshots` has shape (n_times, components, *grid.shape); `times` is the
    uniform sample vector starting at 0.
    """

    grid: GridSpec
    times: np.ndarray
    snapshots: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=np.float64)
        s = np.asarray(self.snapshots, dtype=np.complex128)
        if t.ndim != 1 or t.size < 2:
            raise ValueError("times must be a 1-d array with at least 2 entries")
        if abs(t[0]) > 1e-14 * max(1.0, abs(t[-1])):
            raise ValueError("times must start at 0")
        steps = np.diff(t)
        if np.any(steps <= 0) or np.max(np.abs(steps - steps[0])) > 1e-10 * steps[0]:
            raise ValueError("times must be strictly increasing and uniform")
        if s.shape[0] != t.size or s.shape[2:] != self.grid.shape:
            raise ValueError(f"snapshot array shape {s.shape} inconsistent with times/grid")
        self.times = t
        self.snapshots = s

    @property
    def n_times(self) -> int:
        return self.times.size

    @property
    def components(self) -> int:
        return self.snapshots.shape[1]

    @property
    def time_step(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def duration(self) -> float:
        return float(self.times[-1])

    def copy(self) -> "TrajectoryField":
        return TrajectoryField(self.grid, self.times.copy(), self.snapshots.copy())

    def chunk(self, part: slice) -> SpectralField:
        """The snapshots in `part` as one batched field, (components, B, *shape)."""
        return SpectralField(self.grid, self.snapshots[part].swapaxes(0, 1))

    def __add__(self, other: "TrajectoryField") -> "TrajectoryField":
        return TrajectoryField(self.grid, self.times.copy(), self.snapshots + other.snapshots)

    def __sub__(self, other: "TrajectoryField") -> "TrajectoryField":
        return TrajectoryField(self.grid, self.times.copy(), self.snapshots - other.snapshots)

    def __mul__(self, a: float) -> "TrajectoryField":
        return TrajectoryField(self.grid, self.times.copy(), self.snapshots * a)

    __rmul__ = __mul__


# ------------------------------------------------------------------ builders

def zero_field(grid: GridSpec, components: int = 1) -> SpectralField:
    return SpectralField(grid, np.zeros((components, *grid.shape), dtype=np.complex128))


def field_from_grid(grid: GridSpec, values: np.ndarray) -> SpectralField:
    """Sample-space values (components, *shape) -> band-limited SpectralField."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim == grid.dimension:
        v = v[None]
    return SpectralField(grid, grid.project(grid.from_grid(v)))


def field_to_grid(u: SpectralField) -> np.ndarray:
    return u.grid.to_grid(u.coefficients)


def random_field(
    grid: GridSpec,
    components: int,
    rng: np.random.Generator,
    amplitude: float = 1.0,
    decay: float = 2.0,
) -> SpectralField:
    """Random band-limited field with spectrum envelope (1+|xi|^2)^(-decay/2).

    Built from white noise on the grid so Hermitian symmetry is automatic;
    `decay` controls smoothness (larger = smoother).
    """
    noise = rng.standard_normal((components, *grid.shape))
    c = grid.from_grid(noise)
    c *= grid.bracket_sq ** (-decay / 2.0)
    c = grid.project(c)
    f = SpectralField(grid, c)
    scale = sobolev_norm(f, 0.0)
    if scale > 0:
        f = f * (amplitude / scale)
    return f


# ------------------------------------------------------------------ norms

def sobolev_norm(u: SpectralField, s: float) -> float:
    """Norm of index s: sqrt(L^d sum over components and modes of <xi>^{2s}|c|^2)."""
    u.require_single("sobolev_norm")
    return _member_norms(u, s)[0]


def _member_norms(u: SpectralField, s: float) -> list[float]:
    """`sobolev_norm` of each member of a batched field, in member order; a
    single field gives a list of one. Each member's weighted sum is its own
    `np.dot`, so its norm has the same bits whatever shares its batch."""
    grid = u.grid
    c = u.coefficients
    w = grid.sobolev_weights(s)
    abs2 = np.ascontiguousarray(
        (c.real**2 + c.imag**2).reshape(c.shape[0], -1, grid.n_modes).sum(axis=0)
    )
    vol = grid.domain_length**grid.dimension
    return [math.sqrt(vol * float(np.dot(row, w))) for row in abs2]


def _cutoff_mask(grid: GridSpec, theta: float) -> np.ndarray:
    """Modes with (1+|xi|^2)^{1/2} <= theta; a theta whose square overflows
    keeps every mode. theta must be >= 1, so the mean is always kept; NaN,
    which would keep no mode at all, raises ValueError like theta < 1."""
    if not theta >= 1.0:
        raise ValueError(f"smoothing level must be >= 1, got {theta}")
    with np.errstate(over="ignore"):
        return grid.bracket_sq <= theta * theta


def smooth(u: SpectralField, theta: float) -> SpectralField:
    """Sharp low-pass cutoff: keep modes with (1+|xi|^2)^{1/2} <= theta.

    Requires theta >= 1 so the mean is always retained. Idempotent bit-exactly
    and commutes bit-exactly with the diagonal weight multipliers.
    """
    return SpectralField(u.grid, u.coefficients * _cutoff_mask(u.grid, theta))


def interpolate_bound_check(
    u: SpectralField, s1: float, s2: float, lam: float
) -> tuple[float, float]:
    """Return (|u|_{s_lam}, |u|_{s1}^{1-lam} |u|_{s2}^{lam}), s_lam = (1-lam)s1 + lam*s2."""
    if not (0.0 <= lam <= 1.0):
        raise ValueError("lam must lie in [0, 1]")
    s_lam = (1.0 - lam) * s1 + lam * s2
    lhs = sobolev_norm(u, s_lam)
    rhs = sobolev_norm(u, s1) ** (1.0 - lam) * sobolev_norm(u, s2) ** lam
    return lhs, rhs


# ------------------------------------------------------- time differentiation

def time_derivative(u: TrajectoryField) -> TrajectoryField:
    """Second-order time derivative: centered inside, one-sided at the ends."""
    if u.n_times < 3:
        raise ValueError("need at least 3 snapshots to differentiate in time")
    out = _time_derivative_arrays(u.snapshots, u.time_step)
    return TrajectoryField(u.grid, u.times.copy(), out)


def _time_derivative_arrays(snaps: np.ndarray, dt: float) -> np.ndarray:
    """Derivative along axis 0 of snapshots `dt` apart: second-order,
    centered inside and one-sided at the ends; two snapshots give their
    difference quotient at both."""
    out = np.empty_like(snaps)
    if snaps.shape[0] == 2:
        out[0] = out[1] = (snaps[1] - snaps[0]) / dt
        return out
    # in place: no trajectory-sized temporary
    inner = np.subtract(snaps[2:], snaps[:-2], out=out[1:-1])
    inner /= 2.0 * dt
    out[0] = (-3.0 * snaps[0] + 4.0 * snaps[1] - snaps[2]) / (2.0 * dt)
    out[-1] = (3.0 * snaps[-1] - 4.0 * snaps[-2] + snaps[-3]) / (2.0 * dt)
    return out


def _uniform_steps(T: float, dt: float) -> int:
    """Number of steps of the uniform time grid of [0, T] with step dt.

    dt divides T when the grid's own step T/n, n = round(T/dt), equals dt to
    1e-8 relative; otherwise DomainError, with every digit of both steps.
    """
    n = max(1, int(round(T / dt)))
    if abs(T / n - dt) > 1e-8 * dt:
        raise DomainError(
            f"dt={dt!r} does not divide the horizon T={T!r} "
            f"(nearest uniform grid uses dt={T / n!r})"
        )
    return n


def _chunks(n: int) -> list[slice]:
    """Consecutive slices of at most `_CHUNK` of n snapshots: every batched
    per-trajectory pass (tendency, norms, admissibility, linearization)
    makes one call per slice."""
    return [slice(start, min(start + _CHUNK, n)) for start in range(0, n, _CHUNK)]


def _snapshot_norms(
    u: TrajectoryField,
    s: float,
    snapshot_norm: Callable[[SpectralField, float], Sequence[float]] | None,
) -> np.ndarray:
    norm = _member_norms if snapshot_norm is None else snapshot_norm
    out = np.empty(u.n_times)
    for part in _chunks(u.n_times):
        out[part] = norm(u.chunk(part), s)
    return out


def trajectory_norm(
    u: TrajectoryField,
    s: float,
    mode: str = "XsT",
    m: float = 0.0,
    snapshot_norm: Callable[[SpectralField, float], Sequence[float]] | None = None,
    dudt: TrajectoryField | None = None,
) -> float:
    """Trajectory norms over the uniform time grid.

    mode "XsT":  sup_t |u(t)|_s
    mode "Es":   sup_t |u(t)|_s + sup_t |du/dt(t)|_{s-m}

    `snapshot_norm(field, index)` overrides the plain Sobolev norm (used by
    the shallow-water norms, which carry a dispersive divergence term). It
    receives the snapshots as batched fields, (components, B, *shape), at
    most `_CHUNK` at a time, and returns their B norms. `dudt` is
    `time_derivative(u)` when the caller already holds it (mode "Es" only);
    it is formed here otherwise.
    """
    if mode == "XsT":
        return float(np.max(_snapshot_norms(u, s, snapshot_norm)))
    if mode == "Es":
        if dudt is None:
            dudt = time_derivative(u)
        base = float(np.max(_snapshot_norms(u, s, snapshot_norm)))
        slope = float(np.max(_snapshot_norms(dudt, s - m, snapshot_norm)))
        return base + slope
    raise ValueError(f"unknown trajectory norm mode {mode!r}")


# --------------------------------------------------------------- persistence

def _paths(path: str | Path) -> tuple[Path, Path]:
    p = Path(path)
    if p.suffix == ".json":
        return p, p.with_suffix(".bin")
    return Path(str(p) + ".json"), Path(str(p) + ".bin")


def _grid_header(grid: GridSpec) -> dict:
    return {
        "dimension": grid.dimension,
        "nodes_per_axis": grid.nodes_per_axis,
        "domain_length": grid.domain_length,
        "dealias_fraction": grid.dealias_fraction,
    }


def _grid_from_header(h: dict) -> GridSpec:
    return GridSpec(
        dimension=int(h["dimension"]),
        nodes_per_axis=int(h["nodes_per_axis"]),
        domain_length=float(h["domain_length"]),
        dealias_fraction=float(h["dealias_fraction"]),
    )


def _write_blob(path: Path, coeffs: np.ndarray) -> None:
    flat = np.ascontiguousarray(coeffs, dtype=np.complex128)
    interleaved = flat.view(np.float64).astype("<f8", copy=False)
    path.write_bytes(interleaved.tobytes(order="C"))


def _read_blob(path: Path, shape: tuple[int, ...]) -> np.ndarray:
    raw = np.frombuffer(path.read_bytes(), dtype="<f8")
    expected = 2 * int(np.prod(shape))
    if raw.size != expected:
        raise ValueError(f"binary payload has {raw.size} floats, expected {expected}")
    return raw.astype(np.float64).view(np.complex128).reshape(shape)


def save_trajectory(u: TrajectoryField, path: str | Path) -> Path:
    header_path, blob_path = _paths(path)
    header = {
        "format_version": FORMAT_VERSION,
        "kind": "trajectory",
        "dtype": "complex128 as little-endian float64 (re, im) pairs, C order",
        "grid": _grid_header(u.grid),
        "components": u.components,
        "n_times": u.n_times,
        "time_step": u.time_step,
        "duration": u.duration,
        "coefficient_shape": list(u.snapshots.shape),
        "payload": blob_path.name,
    }
    header_path.write_text(json.dumps(header, indent=2, sort_keys=True) + "\n")
    _write_blob(blob_path, u.snapshots)
    return header_path


def load_trajectory(path: str | Path) -> TrajectoryField:
    header_path, _ = _paths(path)
    header = json.loads(header_path.read_text())
    if header.get("kind") != "trajectory":
        raise ValueError(f"{header_path} does not hold a trajectory")
    if header.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"unsupported format version {header.get('format_version')}")
    grid = _grid_from_header(header["grid"])
    blob_path = header_path.with_name(header["payload"])
    snaps = _read_blob(blob_path, tuple(header["coefficient_shape"]))
    times = np.arange(int(header["n_times"])) * float(header["time_step"])
    return TrajectoryField(grid, times, snaps)
