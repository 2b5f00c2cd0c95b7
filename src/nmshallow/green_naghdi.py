"""Dispersive shallow-water operators on the periodic box.

Implements the spatial operators of the fully nonlinear dispersive
shallow-water family (Serre / Green-Naghdi): the bathymetric correction
operator T[h, beta], the quadratic bathymetry form Q[h, beta], the elliptic
momentum operator bigT = h + mu*T and its conjugate-gradient inversion, the
nonlinear tendency of the rescaled first-order system, and the
frozen-coefficient linearized operators N1..N4 used by the linearized solver.

Conventions
-----------
* State u = (V, zeta): velocity V (d components) and surface elevation zeta;
  depth h = 1 + eps*(zeta - b) with bathymetry b; admissibility means
  min h >= h0 on the grid.
* The elliptic layer takes h as the grid samples hg that `depth_grid`
  returns, (*shape) or (B, *shape) for a batch: the samples its floor check
  tests. No operator transforms h on its way to a solve.
* The evolution form integrated everywhere in this package is the rescaled
  system  d/dt u + (1/eps) L u + F[u] = 0  with L u = (grad zeta, div V).
  In unscaled time tau = t/eps this reads d/dtau u + L u + eps F[u] = 0, and
  multiplying the velocity row by bigT recovers the physical momentum form
      bigT d/dtau V + h grad zeta + eps h (V.grad)V
          + mu eps [ (1/3) grad(h^3 D_V div V) + Q[h, eps b](V) ] = 0,
      d/dtau zeta + div(h V) = 0.
  Consequently a forcing g = (g1, g2) added to the rescaled system corresponds
  to the residual (bigT eps g1, eps g2) of the physical form; `nonlinear_F`'s
  consistency test asserts exactly this round trip.
* Derivatives are exact in Fourier space. Nonlinear factors inside a single
  operator assembly are multiplied pointwise on the grid and each assembled
  term is projected back onto the dealiased band; this keeps every quadratic
  form symmetric and keeps the coercivity identity behind `energy_E` exact in
  grid quadrature (see tests).

Operators (beta denotes eps*b wherever the model equations use it):
    T[h, beta] V = -(1/3) grad(h^3 div V)
                   + (1/2)[ grad(h^2 grad(beta).V) - h^2 grad(beta) div V ]
                   + h grad(beta) (grad(beta).V)
    D_V f        = -(V.grad) f + (div V) f
    Q[h, beta](V)= (1/2) grad(h^2 (V.grad)^2 beta)
                   + h ( (h/2) D_V div V + (V.grad)^2 beta ) grad(beta)

Assembly
--------
`nonlinear_F`, `apply_K` and bigT (`apply_bigT` and the CG matvec) are
each assembled once (`_tendency_rows`, `_K_rows`, `_bigT_products`): list the grid samples
needed, transform them, list the grid products, transform them back,
combine the coefficients. The two momentum rows share their samples
(`_samples`), slope terms (`_add_slope_terms`: Q(V) and 2 Q_bil(V, Vbar)
differ only in the D-term and sym2 passed) and grad(grad(beta).V)
(`_grad_slope_dot`, also read by `build_linearized_coeffs`); bigT's matvec,
the hot loop of every PCG solve, keeps its own (T on V, no Q). The terms
carrying grad(beta) (Q, its bilinear
form in N1, the slope terms of T) are formed only when b has a nonzero
coefficient, which `PhysicalParams._slope` decides once; no other module
reads it. On a flat bottom they vanish identically, T[h, 0] V =
-(1/3) grad(h^3 div V) keeps one term, and each list goes through one
stacked `GridSpec.to_grid` or `GridSpec.from_grid` call. With bathymetry
all three fold each slope term into a product that the flat assembly
already transforms (a multiple of grad(beta) in a vector row, or a term of
a scalar row whose gradient is taken): one product list and one
combination for both branches. The tendency and `_K_rows` add one
transform pair, for the sym2 of Q, and keep one call per entry: stacking
the tendency's lists took 1.85 ms per 64^2 call either way on the real
transforms, and raised bathy2d's peak RSS by 0.7 MB (2-core x86 host,
numpy 2.4; ROADMAP, Parked). With a zero slope the folded
products equal the flat ones, and a stacked transform equals the per-row
ones, so both branches give the same output on b = 0 (tests compare them).
The matvec fills its stacked rows in place, and `_bigT_operators` forms the
depth powers h*h and h*h*h once per solve instead of once per CG iteration.
Gradients and divergences multiply by the grid's cached 1j*xi
(`GridSpec.i_xi`) and the projector by its cached complex mask: each keeps
the bits of the per-axis formulas it replaced (tests keep those formulas
and compare byte for byte).

Batch axis
----------
`SpectralField` and `GNState` may carry one batch axis after the component
axis, (components, B, *shape): independent members (ensemble runs, the
snapshots of a trajectory) on one grid. `nonlinear_F`, `invert_bigT` and
`apply_bigT` take single or batched states through one code path: a single
state enters as a batch of one (`_batched`) and leaves in its own layout,
so `_tendency_rows` and `_apply_bigT_arrays` always see (d, B, *shape),
with the slope given a batch axis (`PhysicalParams._slope[:, None]`). Every
operation either acts pointwise or transforms row by row, so a member's
result has the same bits as its own single call, whatever shares its batch
(tests compare them byte for byte). Reductions of one field (`sobolev_norm`,
`validate`, `depth_check`, `energy_E`) refuse a batch; `x_norm_packed` gives
one norm per member. `build_linearized_coeffs` assembles a trajectory in
chunks of snapshots, each chunk a batch. The linearized operator
`apply_K` stays single-field.

Elliptic solves take one of two paths, on one layout: a member is a row
of its coefficients on the retained band only, the band's d * (2K+1)^d
modes in C order over the grid (per axis 0..K, then -K..-1), gathered and
scattered through the grid's cached band layout (`GridSpec._band`). On a
flat bottom in 1D with a band of at most `_DENSE_MODES` modes,
`_band_solve` solves each member directly: there bigT is the
Fourier-Galerkin matrix A[j, l] = h^(k_j - k_l) + (mu/3) xi_j xi_l
(h^3)^(k_j - k_l) (indices mod N) on the band, a few dozen modes at most,
which one batched LU solves in less time than the per-call overhead of a
few PCG sweeps. `invert_bigT` holds the one stopping contract of both,
|b - A x| < tol |b| per member, refuses a V with modes off the band
(ValueError: no solution on the band meets them), and raises one
ConvergenceError; the solutions differ by rounding (at most 3.6e-15
relative per snapshot on the flagship's trajectories).
Every other batch of elliptic solves runs in one `_pcg` call, a numpy PCG that
repeats, member by member, the arithmetic of `scipy.sparse.linalg.cg`
(tests compare them byte for byte) on the band rows, and whose matvec
shares bigT's grid products with `apply_bigT` (`_bigT_products`). On the band
it runs the arithmetic of the full-array PCG it replaced, whose iterates
stayed zero off the band, to the order of its sums: at most 1e-14
relative and the same iteration counts (a test keeps the full-array
operators). Per-member norms and inner products, the stopping rule
norm(r) < tol * norm(b), a zero right side returned as it is, and a
preconditioner from each member's own mean depth hbar. Members that have
converged leave the batch. The preconditioner is the exact inverse of
the flat operator at depth hbar: the longitudinal part of V (along xi)
takes the dispersive symbol 1/(hbar + mu |xi|^2 hbar^3/3) and, in 2D, the
transverse (divergence-free) part takes 1/hbar, since at constant depth
bigT multiplies it by h alone. With the dispersive symbol on every
component, the 2D solve took 49 CG iterations on a flat bottom as over
random bathymetry (64^2): the transverse modes, not the bathymetry, were
mis-scaled. The split takes 6. Its per-member reductions are row operations over
the batch (`np.vecdot`, `_row_norms`) with the bits of the per-row calls
(a test checks this on the installed numpy).
The one exception to the batched layout is inside the solver: a batch of
one runs `_cg`, the same arithmetic with scalars on the unbatched layout,
because its matvecs are the hottest loop of a single trajectory. On the
band layout, one N = 512 solve through the vectorised loop took 1.23x as
long, and 32 transit steps of `mol_solve` 1.20x (`_cg`'s docstring has
the quartiles).
"""
from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConvergenceError, DomainError
from .fourier_scale import GridSpec, SpectralField, TrajectoryField, _chunks, _member_norms
from .fourier_scale import _time_derivative_arrays

__all__ = [
    "PhysicalParams",
    "GNState",
    "LinearizedCoeffs",
    "apply_bigT",
    "energy_E",
    "invert_bigT",
    "counting",
    "nonlinear_F",
    "build_linearized_coeffs",
    "apply_K",
    "frechet_F",
    "x_norm_packed",
    "depth_check",
    "depth_grid",
]

#: The dict of the innermost open `counting()` block; None outside one.
_COUNTS: ContextVar[dict | None] = ContextVar("nmshallow_counts", default=None)


@contextmanager
def counting():
    """Count this block's work into the dict it yields: `solves` (one per
    batch member), summed `cg_iterations` and IF-RK4 `rk_substeps`. Only
    the innermost open block counts; nothing is counted outside one."""
    token = _COUNTS.set({"solves": 0, "cg_iterations": 0, "rk_substeps": 0})
    try:
        yield _COUNTS.get()
    finally:
        _COUNTS.reset(token)


def _count(**increments: int) -> None:
    if (counts := _COUNTS.get()) is not None:
        for key, n in increments.items():
            counts[key] += n

#: Largest retained band, in modes, of a flat 1D grid whose elliptic systems
#: `invert_bigT` solves directly (`_band_solve`) rather than by PCG. Per
#: call on random depths, PCG against direct: lone solves took 238 against
#: 77 us at 21 modes and 253 against 154 us at 65, but 230 against 249 us
#: at 85; batches of 4 took 498 against 405 us at 65 modes and 450 against
#: 759 us at 85, and batches of 16 (one `_CHUNK`) 689 against 671 us at 43
#: (best of 7 rounds; 2-core x86 host, numpy 2.4, OpenBLAS on one thread).
_DENSE_MODES = 64


@dataclass
class PhysicalParams:
    """Model parameters: shallowness mu, nonlinearity eps, bathymetry, depth floor.

    eps = sqrt(mu) and eps = 1 are the two named scaling regimes; any
    eps in (0, 1] is accepted for experiments. The bathymetry enters the
    dispersive operators through beta = eps*b. Derived arrays are
    `cached_property`s; the water depth h = 1 + eps*(zeta - b) has one grid
    formula (`_depth`) and one floor test (`_min_depths`), and the elliptic
    operators take it as those grid samples.

    Two floors: the checks of a state or trajectory (`depth_check`,
    `GNProblem.admissible`, `mol_solve`'s output check) are strict, h <= h0
    is inadmissible, so a run stops before its operators reach the floor.
    The operators (`nonlinear_F`, `invert_bigT`, `build_linearized_coeffs`)
    reject only h < h0*(1 - 1e-12): bigT stays coercive at h0, and the
    samples they test are formed from transformed (and, in `apply_K`,
    interpolated) fields, which can move a depth at the floor by rounding.
    """

    mu: float
    eps: float
    b: SpectralField
    h0: float = 0.5

    def __post_init__(self) -> None:
        if not (0.0 < self.mu < 1.0):
            raise ValueError(f"mu must lie in (0,1), got {self.mu}")
        if not (0.0 < self.eps <= 1.0):
            raise ValueError(f"eps must lie in (0,1], got {self.eps}")
        if not self.h0 > 0.0:  # NaN fails too
            raise ValueError(f"h0 must be positive, got {self.h0}")
        if self.b.components != 1:
            raise ValueError("bathymetry must be a scalar field")

    @property
    def grid(self) -> GridSpec:
        return self.b.grid

    @property
    def dimension(self) -> int:
        return self.grid.dimension

    @cached_property
    def b_grid(self) -> np.ndarray:
        return self.grid.to_grid(self.b.coefficients[0])

    @cached_property
    def grad_beta_grid(self) -> np.ndarray:
        """Samples of grad(eps*b), shape (d, *grid.shape)."""
        return self.eps * self.grid.to_grid(_grad_c(self.grid, self.b.coefficients[0]))

    @cached_property
    def _slope(self) -> np.ndarray | None:
        """Slope argument of the private assemblies: grad(eps*b), or None on a
        flat bottom (b identically zero), which selects the flat assembly. A
        batched assembly takes `_slope[:, None]`, (d, 1, *shape)."""
        return self.grad_beta_grid if np.any(self.b.coefficients) else None

    def _depth(self, zg: np.ndarray) -> np.ndarray:
        """Grid samples of h = 1 + eps*(zeta - b) from those of zeta, one
        field (*shape) or a stack (B, *shape)."""
        return 1.0 + self.eps * (zg - self.b_grid)

    def _min_depths(self, hg: np.ndarray, strict: bool) -> tuple[np.ndarray, np.ndarray]:
        """Lowest depth of each member of `hg` (B, *shape), or of one field,
        and a mask of the members that violate the floor: at or below h0 if
        `strict`, below h0*(1 - 1e-12) otherwise (see the class docstring).
        A member whose lowest depth is not finite (NaN as soon as one sample
        is) violates either floor."""
        # np.min's reduction, without its Python wrapper
        mins = np.minimum.reduce(hg.reshape(-1, self.grid.n_modes), axis=1)
        above = mins > self.h0 if strict else mins >= self.h0 * (1.0 - 1e-12)
        return mins, ~(above & np.isfinite(mins))


@dataclass
class GNState:
    """Velocity/elevation pair on one grid."""

    V: SpectralField
    zeta: SpectralField

    def __post_init__(self) -> None:
        d = self.V.grid.dimension
        if self.V.components != d:
            raise ValueError(f"velocity must have {d} components, got {self.V.components}")
        if self.zeta.components != 1:
            raise ValueError("elevation must be scalar")
        if self.zeta.grid != self.V.grid:
            raise ValueError("velocity and elevation live on different grids")
        if self.zeta.batch != self.V.batch:
            raise ValueError("velocity and elevation have different batch sizes")

    @property
    def grid(self) -> GridSpec:
        return self.V.grid

    @property
    def batch(self) -> int | None:
        """Number of members of a batched state, None for a single state."""
        return self.V.batch

    def packed(self) -> SpectralField:
        """Single stacked field (V components first, elevation last)."""
        return SpectralField(
            self.grid, np.concatenate([self.V.coefficients, self.zeta.coefficients])
        )

    @classmethod
    def from_packed(cls, u: SpectralField) -> "GNState":
        d = u.grid.dimension
        if u.components != d + 1:
            raise ValueError(f"packed state needs {d + 1} components, got {u.components}")
        return cls(
            V=SpectralField(u.grid, u.coefficients[:d].copy()),
            zeta=SpectralField(u.grid, u.coefficients[d:].copy()),
        )


# ------------------------------------------------------------- array helpers

def _grad_c(grid: GridSpec, c: np.ndarray) -> np.ndarray:
    """Spectral gradient of a scalar coefficient array (..., *shape) ->
    (d, ..., *shape): one broadcast product with the cached 1j * xi."""
    i_xi = grid.i_xi
    lead = c.ndim - grid.dimension
    if lead:
        i_xi = i_xi.reshape(grid.dimension, *(1,) * lead, *grid.shape)
    return i_xi * c


def _div_c(grid: GridSpec, c: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Spectral divergence of a vector coefficient array (d, ..., *shape) ->
    (..., *shape), summed over the axes in order; written into `out` if
    given."""
    i_xi = grid.i_xi
    out = np.multiply(i_xi[0], c[0], out=out)
    for ax in range(1, grid.dimension):
        out += i_xi[ax] * c[ax]
    return out


def _dot_g(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pointwise dot product of two (d, *shape) grid stacks."""
    return np.einsum("i...,i...->...", a, b)


def _batched(f: SpectralField) -> np.ndarray:
    """Coefficients of `f` as a batch, (components, B, *shape): a single
    field is a batch of one (a view, no copy)."""
    c = f.coefficients
    return c[:, None] if f.batch is None else c


def _transform(
    transform, grid: GridSpec, parts: list[np.ndarray], stacked: bool
) -> list[np.ndarray]:
    """`transform` (grid.to_grid or grid.from_grid) of each part.

    Each part has shape (*grid.shape) or (k, *grid.shape). With `stacked`
    all rows go through one call, else each part through its own. The
    transforms act row by row, so both give the same bits.
    """
    if not stacked:
        return [transform(p) for p in parts]
    out = transform(np.concatenate([p.reshape(-1, *grid.shape) for p in parts]))
    pieces = []
    start = 0
    for p in parts:
        n = p.size // grid.n_modes
        pieces.append(out[start : start + n].reshape(p.shape))
        start += n
    return pieces


def depth_grid(params: PhysicalParams, zeta: SpectralField | np.ndarray) -> np.ndarray:
    """Grid samples of h = 1 + eps*(zeta - b)."""
    zc = zeta.coefficients[0] if isinstance(zeta, SpectralField) else zeta
    return params._depth(params.grid.to_grid(zc))


def depth_check(params: PhysicalParams, u: GNState) -> tuple[bool, float]:
    """(ok, min depth): ok iff the grid minimum of h stays above the floor h0."""
    u.zeta.require_single("depth_check")
    mins, below = params._min_depths(depth_grid(params, u.zeta), strict=True)
    return not below[0], float(mins[0])


def _require_admissible(
    params: PhysicalParams, hg: np.ndarray, where: str, first: str | None = None
) -> None:
    """Raise DomainError if h falls below the operators' floor; `hg` holds the
    depth samples of one field, or of each member of a batch (B, *shape).

    A member whose lowest depth is not finite (NaN as soon as one sample is)
    counts as below the floor, so that it cannot hide another member that is.
    The message names the members below the floor and the lowest depth; with
    `first` (a label such as "snapshot") it names only the first such member
    and its own lowest depth.
    """
    mins, below = params._min_depths(hg, strict=False)
    if not below.any():
        return
    low = np.flatnonzero(below)
    mn = float(np.min(mins))
    if first is not None:
        k = int(low[0])
        raise DomainError(
            f"depth {float(mins[k]):.6g} below floor {params.h0:.6g} in {where} ({first} {k})"
        )
    members = "" if mins.size == 1 else f" (member {', '.join(map(str, low))})"
    raise DomainError(f"depth {mn:.6g} below floor {params.h0:.6g} in {where}{members}")


# --------------------------------------------------------------- T and bigT

def _apply_bigT_arrays(
    grid: GridSpec,
    mu: float,
    hg: np.ndarray,
    gbeta_g: np.ndarray | None,
    Vc: np.ndarray,
) -> np.ndarray:
    """(h + mu T[h, beta]) V on coefficient arrays; gbeta_g None means flat.

    `Vc` is (d, *shape) with `hg` (*shape), or a batch (d, B, *shape) with
    `hg` (B, *shape) and, with bathymetry, the slope (d, 1, *shape).

    V and div V go through one stacked transform pair, (d+1, ..., *shape),
    whose rows are filled and multiplied in place. With Y = grad(beta).V
    and X = div V,
        bigT V = P[ c_V - (mu/3) grad c_X ],
        c_V = hV + mu (-(1/2) h^2 X + h Y) grad(beta),
        c_X = h^3 X - (3/2) h^2 Y,
    the coefficients of the two rows; on a flat bottom Y = 0 and the slope
    terms are not formed.
    """
    d = Vc.shape[0]
    rows = np.empty((d + 1, *Vc.shape[1:]), dtype=np.complex128)
    rows[:d] = Vc
    _div_c(grid, Vc, out=rows[d])
    c = _bigT_products(grid, mu, hg, gbeta_g, rows, np.stack([*(hg,) * d, hg * hg * hg]))
    out = c[:d]
    grad_X = _grad_c(grid, c[d])
    grad_X *= -(1.0 / 3.0)
    grad_X *= mu
    out += grad_X
    out *= grid.dealias_factor  # grid.project, in place
    return out


def _bigT_products(
    grid: GridSpec,
    mu: float,
    hg: np.ndarray,
    gbeta_g: np.ndarray | None,
    rows: np.ndarray,
    powers: np.ndarray,
    h2: np.ndarray | None = None,
) -> np.ndarray:
    """The coefficients (c_V, c_X) of bigT's grid products (see
    `_apply_bigT_arrays`) from the coefficients of V and div V stacked in
    `rows` (d+1, ..., *shape), which are left as they are: the one
    transform pair of `apply_bigT` and of the CG matvec. `powers` stacks
    the depth factors of the rows alike, d times h then h^3, so that one
    product scales them all; `h2`, if given, is `hg * hg`, formed once by
    the CG matvec and read only with bathymetry."""
    d = rows.shape[0] - 1
    g = grid.to_grid(rows)
    if gbeta_g is not None:
        if h2 is None:
            h2 = hg * hg
        Yg = _dot_g(gbeta_g, g[:d])
        slope_V = (mu * (-0.5 * h2 * g[d] + hg * Yg))[None] * gbeta_g
        slope_X = 1.5 * h2 * Yg
    np.multiply(g, powers, out=g)
    if gbeta_g is not None:
        g[:d] += slope_V
        g[d] -= slope_X
    return grid.from_grid(g)


def _depth_batch(hg: np.ndarray, V: SpectralField) -> np.ndarray:
    """Depth samples `hg` as a batch (B, *shape); ValueError unless laid out
    as `depth_grid` gives them for V: (*shape), or (B, *shape) for a batch."""
    shape = V.grid.shape if V.batch is None else (V.batch, *V.grid.shape)
    if np.shape(hg) != shape:
        raise ValueError(f"depth samples {np.shape(hg)} do not match {shape}")
    return hg if V.batch is not None else hg[None]


def apply_bigT(params: PhysicalParams, hg: np.ndarray, V: SpectralField) -> SpectralField:
    """Elliptic momentum operator bigT V = h V + mu T[h, eps*b] V at the
    depth samples `hg` (see `_depth_batch`)."""
    grid = V.grid
    gbeta_g = None if params._slope is None else params._slope[:, None]
    out = _apply_bigT_arrays(grid, params.mu, _depth_batch(hg, V), gbeta_g, _batched(V))
    return SpectralField(grid, out if V.batch is not None else out[:, 0])


def energy_E(params: PhysicalParams, hg: np.ndarray, V: SpectralField) -> float:
    """Coercivity energy: the bigT quadratic form dominates E^2 pointwise.

    E^2 = h0 |V|^2_{L2} + mu h0 | h div V / sqrt(3) - (sqrt(3)/2) grad(beta).V |^2_{L2}
          + (mu h0 / 4) | grad(beta).V |^2_{L2},   beta = eps*b, h sampled by `hg`.

    On a flat bottom Y = grad(beta).V vanishes and is not formed.
    """
    V.require_single("energy_E")
    _depth_batch(hg, V)
    grid = V.grid
    Vg = grid.to_grid(V.coefficients)
    Xg = grid.to_grid(_div_c(grid, V.coefficients))
    sq = (Vg**2).sum(axis=0)
    if params._slope is None:
        sq = sq + params.mu * (hg * Xg / math.sqrt(3.0)) ** 2
    else:
        Yg = _dot_g(params._slope, Vg)
        sq = sq + params.mu * (hg * Xg / math.sqrt(3.0) - (math.sqrt(3.0) / 2.0) * Yg) ** 2
        sq = sq + 0.25 * params.mu * Yg**2
    return math.sqrt(params.h0 * grid.cell_volume * float(np.sum(sq)))


def bigT_pairing(params: PhysicalParams, hg: np.ndarray, V: SpectralField, W: SpectralField) -> float:
    """L2 pairing (bigT V, W) at the depth samples `hg`, by grid quadrature."""
    V.require_single("bigT_pairing")
    grid = V.grid
    out = apply_bigT(params, hg, V)
    og = grid.to_grid(out.coefficients)
    Wg = grid.to_grid(W.coefficients)
    return grid.cell_volume * float(np.sum(og * Wg))


def invert_bigT(
    params: PhysicalParams,
    hg: np.ndarray,
    V: SpectralField,
    tol: float = 1e-12,
    max_iter: int = 500,
    x0: np.ndarray | None = None,
    return_info: bool = False,
):
    """Solve bigT W = V on the dealiased band, directly or by preconditioned
    conjugate gradients, at the depth samples `hg` (see `_depth_batch`),
    the ones its floor check tests.

    The discrete operator is symmetric positive definite on the dealiased band
    (quadratic form bounded below by h0 |.|^2). Both paths take and return
    rows in one layout, a member's coefficients on the retained band only
    (`GridSpec._band`, gathered by `_band_rows`), and the solution is zero
    off the band. On a flat bottom in 1D with a band of at most
    `_DENSE_MODES` modes, each member is one dense solve of its
    Fourier-Galerkin matrix (`_band_solve`); `x0` and `max_iter` do not
    apply there, and the solve counts 0 iterations. Every other system (2D,
    bathymetry, wider bands) runs PCG (`_pcg`, `_bigT_operators`). Its
    preconditioner is the exact inverse of the flat operator at the mean
    depth hbar, whose symbol is hbar I + (mu hbar^3/3) xi xi^T: the
    longitudinal part of the residual takes (hbar + mu |xi|^2 hbar^3/3)^{-1}
    and, in 2D, the transverse part 1/hbar (see `_bigT_operators`). At a
    constant depth on a flat bottom one iteration solves the system.

    V must lie on the retained band, as every caller's projected right side
    does: no solution on the band meets modes of V off it, so a member with
    finite, nonzero modes there raises ValueError, naming each such member
    and the norm of those modes, before any solve is made or counted. A
    non-finite V (a NaN sample spread by `from_grid`) is not refused and
    fails its solve (PCG's before any sweep). Both paths keep one contract,
    checked here once: a member whose L2 residual is not below
    tol * |V|_{L2} (and |V| > 0) raises ConvergenceError, which names it
    with its residual, |V| and its cause: "by a direct solve" or "after {n}
    PCG iterations", n its own count. `tol` must lie in (0, 1), else
    ValueError.

    A batched V (with hg batched alike) solves every member in one call, each
    with its own matrix or preconditioner, stopping rule and result. `x0`
    has the shape of V's coefficients or is their flattening; PCG starts
    from its part on the band and drops the rest, which no unknown holds.
    With `return_info`, also returns {"iterations": batched sweeps, the
    maximum over members}, read by `perfbench/spans.py`; `counting()` sums
    them.
    """
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must be a finite number in (0, 1), got {tol!r}")
    hg = _depth_batch(hg, V)
    grid = V.grid
    band = grid._band
    Vc = _batched(V)
    _require_admissible(params, hg, "invert_bigT")
    outside = _band_rows(Vc, band.off)
    if outside.any():
        # no solution on the band meets modes of V off it; a non-finite V is
        # let through, and fails its solve below
        off = _row_norms(outside)
        refused = np.flatnonzero(np.isfinite(off) & (off != 0))
        if refused.size:
            detail = "; ".join(
                ("" if V.batch is None else f"member {m}: ") + f"off the band {float(off[m]):.3e}"
                for m in refused
            )
            raise ValueError(f"invert_bigT takes a right side on the retained band only ({detail})")
    b = _band_rows(Vc, band.index)
    dense = 2 * grid.dealias_cutoff_index + 1 <= _DENSE_MODES  # the 1D band's size
    direct = grid.dimension == 1 and params._slope is None and dense
    if direct:
        x, residuals = _band_solve(params, hg, b)
        bnorms = _row_norms(b)
        failed = np.flatnonzero(~(residuals < tol * bnorms) & (bnorms != 0))
        iters = np.zeros(b.shape[0], dtype=np.int64)
    else:
        restrict = _bigT_operators(params, hg)
        start = None if x0 is None else _band_rows(np.reshape(x0, Vc.shape), band.index)
        x, iters, failed = _pcg(restrict, b, start, tol, max_iter)
        residuals = None
    _count(solves=b.shape[0], cg_iterations=int(iters.sum()))
    if failed.size:
        if residuals is None:
            residuals = np.zeros(b.shape[0])
            residuals[failed] = _row_norms(b[failed] - restrict(failed)[0](x[failed]))
        rhs_norms = _row_norms(b)
        detail = "; ".join(
            ("" if V.batch is None else f"member {m}: ")
            + f"residual {float(residuals[m]):.3e}, |rhs| {float(rhs_norms[m]):.3e}, "
            + ("by a direct solve" if direct else f"after {iters[m]} PCG iterations")
            for m in failed
        )
        raise ConvergenceError(f"bigT inversion did not reach tol={tol:g} ({detail})")
    Wc = _band_fields(grid, x)
    W = SpectralField(grid, Wc if V.batch is not None else Wc[:, 0])
    if return_info:
        return W, {"iterations": int(iters.max())}
    return W


def _band_solve(params: PhysicalParams, hg: np.ndarray, b: np.ndarray):
    """Solve bigT x = b on the retained band of a flat 1D grid by LU, one
    dense system per member.

    On a flat bottom bigT V = P[ h V - (mu/3) d/dx (h^3 dV/dx) ], and the
    grid product of h with a band field, projected, is the circular
    convolution of their coefficients (Boyd, *Chebyshev and Fourier Spectral
    Methods*, 2nd ed., 2001, ch. 7). So on the band modes k_j, with
    wavenumbers xi_j, the matrix of member m is
        A[j, l] = h^((k_j - k_l) mod N) + (mu/3) xi_j xi_l (h^3)^((k_j - k_l) mod N),
    the coefficients of one stacked `from_grid` of the samples hg[m] and
    their cube (the products the PCG matvec forms), gathered through the
    grid's cached tables (`GridSpec._band_galerkin`). The members are
    solved `_CHUNK` at a time by one batched `np.linalg.solve`, so that the
    matrices of a long batch are never all held at once.

    Rows of `b` (B, 2K+1) are the right sides in the band layout of
    `GridSpec._band` (the modes 0..K, then -K..-1), as `_pcg` takes them.
    Returns (x, residuals): the solution rows in the same layout, with the
    negative modes written as the conjugate mirror of the positive ones and
    a real zero mode (as `GridSpec.from_grid` writes them), and each
    member's L2 residual |b - bigT x| on the band.
    """
    grid = params.grid
    gather, xixi = grid._band_galerkin
    cut = grid.dealias_cutoff_index
    powers = np.empty((2, *hg.shape))
    powers[0] = hg
    np.multiply(hg * hg, hg, out=powers[1])
    c = grid.from_grid(powers)
    coupling = (params.mu / 3.0) * xixi
    x = np.empty_like(b)
    residuals = np.empty(b.shape[0])
    for part in _chunks(b.shape[0]):
        terms = c[:, part].take(gather, axis=-1)  # C-ordered, unlike c[..., gather]
        terms[1] *= coupling
        A = terms[0]
        A += terms[1]
        xb = np.linalg.solve(A, b[part, :, None])
        xb[:, cut + 1 :] = np.conjugate(xb[:, cut:0:-1])
        xb[:, 0].imag = 0.0
        r = np.matmul(A, xb)[..., 0]
        r -= b[part]
        residuals[part] = _row_norms(r)
        x[part] = xb[..., 0]
    return x, residuals


def _band_rows(c: np.ndarray, index: np.ndarray) -> np.ndarray:
    """A batch of coefficients (d, B, *shape) at the flat mode positions
    `index` (of `GridSpec._band`), one row per member:
    (B, d * index.size)."""
    d, members = c.shape[:2]
    return c.reshape(d, members, -1).take(index, axis=-1).swapaxes(0, 1).reshape(members, -1)


def _band_fields(grid: GridSpec, x: np.ndarray) -> np.ndarray:
    """Inverse of `_band_rows` on the retained band: rows (B, d * n_band)
    -> a batch (d, B, *shape), zero off the band."""
    d = grid.dimension
    band = grid._band
    on_band = x.reshape(x.shape[0], d, *band.shape).swapaxes(0, 1)
    out = np.zeros((d, x.shape[0], *grid.shape), dtype=np.complex128)
    for full, part in band.blocks:
        out[full] = on_band[part]
    return out


def _bigT_operators(params: PhysicalParams, hg: np.ndarray):
    """The operators of `_pcg` for bigT at the depth samples hg (B, *shape),
    on the band layout: a row holds a member's coefficients on the retained
    band only (`_band_rows`), d * n_band entries.

    Returns `restrict(which)`, which gives (matvec, psolve) on the rows of
    the members in the index array `which`. The matvec scatters the band,
    both halves of it, and its divergence into a zero array that it reuses
    (the modes off the band stay zero), forms bigT's grid products through
    `_bigT_products`, as `apply_bigT` does, and gathers the band from
    `from_grid`'s output: the projection is the gather. A lone member runs
    on the unbatched layout (d+1, *shape), cheaper per matvec than a batch
    axis of size one (see `_cg`).

    The preconditioner of member m is the exact inverse of the flat
    operator at its own mean depth hbar (formed from that mean as a Python
    float). That operator's symbol is hbar I + (mu hbar^3/3) xi xi^T, so
    its inverse splits along the longitudinal projector
    P_L r = xi_unit (xi_unit . r):
        inv_long P_L + (1/hbar) (I - P_L),
        inv_long = 1/(hbar + mu |xi|^2 hbar^3/3).
    In 1D, P_L is the identity (the zero mode, where xi_unit vanishes, has
    inv_long = 1/hbar too), so psolve is the product with inv_long alone and
    the transverse factor is not formed. In 2D the divergence-free part of V
    only sees h: scaling it by inv_long too mis-scales its modes by up to
    about 30x at the 64^2 cutoff, which cost 49 CG iterations per solve on
    a flat bottom as on random bathymetry; the split symbol takes 6. Since
    inv_long - 1/hbar = -(mu hbar^2/3) |xi|^2 inv_long, psolve forms the
    split as
        r/hbar + (mu hbar^2/3) inv_long (i xi) ((i xi) . r)
    with the grid's cached 1j*xi: no unit vectors, nothing to guard at
    xi = 0, and no grid-sized factor beyond the one the 1D product keeps.
    """
    grid = params.grid
    d = grid.dimension
    mu = params.mu
    band = grid._band
    n_band = band.index.size
    i_xi = band.i_xi
    # psolve's factors, stored complex (zero imaginary part) so that its
    # products skip the cast of a real factor: the same bits. In 2D
    # `inv_symbol` holds (mu hbar^2/3) inv_long (see the docstring).
    inv_symbol = np.empty((hg.shape[0], n_band), dtype=np.complex128)
    inv_depth = None
    if d > 1:
        inv_depth = np.empty((hg.shape[0], 1, 1), dtype=np.complex128)
    for m in range(hg.shape[0]):
        hbar = float(np.add.reduce(hg[m], axis=None) / grid.n_modes)  # np.mean's sum
        inv_symbol[m] = 1.0 / (hbar + mu * band.xi_sq * hbar**3 / 3.0)
        if d > 1:
            inv_depth[m] = 1.0 / hbar
            inv_symbol[m] *= mu * hbar**2 / 3.0

    slope = params._slope

    def restrict(which: np.ndarray):
        lone = which.size == 1
        if lone:
            hg_w, inv_w, gbeta_g = hg[which[0]], inv_symbol[which[0]], slope
        else:
            hg_w, inv_w = hg[which], inv_symbol[which][:, None]
            gbeta_g = None if slope is None else slope[:, None]
        if inv_depth is not None:
            inv_w, trans_w = inv_symbol[which], inv_depth[which]
        # the depth powers of the matvec, formed once per solve
        h2 = hg_w * hg_w
        powers = np.empty((d + 1, *hg_w.shape))
        powers[:d] = hg_w
        np.multiply(h2, hg_w, out=powers[d])
        rows = np.zeros((d + 1, *hg_w.shape), dtype=np.complex128)
        V_rows = rows[:d]
        shape = (d, *band.shape) if lone else (-1, d, *band.shape)

        def matvec(x: np.ndarray) -> np.ndarray:
            xb = x.reshape(shape)
            if not lone:
                xb = xb.swapaxes(0, 1)
            for full, part in band.blocks:
                V_rows[full] = xb[part]
            _div_c(grid, V_rows, out=rows[d])
            c = _bigT_products(grid, mu, hg_w, gbeta_g, rows, powers, h2)
            cb = c.reshape(d + 1, -1, grid.n_modes).take(band.index, axis=-1)
            out = cb[:d]
            grad_X = i_xi[:, None] * cb[d]
            grad_X *= -(1.0 / 3.0)
            grad_X *= mu
            out += grad_X
            return out.swapaxes(0, 1).reshape(x.shape)

        def psolve(r: np.ndarray) -> np.ndarray:
            z = r.reshape(-1, d, n_band)
            if inv_depth is None:
                return (z * inv_w).reshape(r.shape)
            dot = i_xi[0] * z[:, 0]  # (i xi) . r
            for ax in range(1, d):
                dot += i_xi[ax] * z[:, ax]
            dot *= inv_w
            out = z * trans_w
            out += i_xi * dot[:, None]
            return out.reshape(r.shape)

        return matvec, psolve

    return restrict


def _cg(restrict, b: np.ndarray, x0: np.ndarray | None, tol: float, max_iter: int):
    """`_pcg` for a batch of one member: the same arithmetic with scalar
    norms (`_norm`, the bits of `np.linalg.norm`) and inner products and
    the unbatched layout. On the band layout, a batch of one through the
    vectorised `_pcg` loop took 1.23x as long per lone N = 512 solve of the
    transit wave's velocity (median of 30 interleaved in-process rounds of
    20 solves, quartiles 1.02-1.33x, 23 won by this loop) and 1.20x on 32 transit steps of
    `mol_solve` (20 rounds, quartiles 1.17-1.25x, all 20 won by this
    loop), by `scripts/inprocess_ab.py` against a copy whose `_pcg` does
    not hand a lone member here (2-core x86 host, numpy 2.4)."""
    x = np.zeros_like(b) if x0 is None else np.array(x0, dtype=b.dtype)
    bnrm2 = _norm(b)
    if bnrm2 == 0:
        return b.copy(), np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.intp)
    if not math.isfinite(bnrm2):
        return x, np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.intp)
    atol = max(0.0, tol * bnrm2)
    matvec, psolve = restrict(np.zeros(1, dtype=np.intp))
    r = b - matvec(x) if x.any() else b.copy()
    for it in range(max_iter):
        if _norm(r) < atol:
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


def _norm(a: np.ndarray) -> float:
    """`np.linalg.norm` of a complex array, with its arithmetic (the dot
    products of the real and of the imaginary parts of the flattened array,
    summed, then the square root) and without its dispatch."""
    flat = a.ravel(order="K")
    re, im = flat.real, flat.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def _row_norms(a: np.ndarray) -> np.ndarray:
    """`np.linalg.norm` of each row of a complex (B, n) array, with its bits
    (the same real and imaginary dot products), in one call per reduction."""
    return np.sqrt(np.vecdot(a.real, a.real) + np.vecdot(a.imag, a.imag))


def _pcg(restrict, b: np.ndarray, x0: np.ndarray | None, tol: float, max_iter: int):
    """Preconditioned conjugate gradients on a batch of independent systems.

    Row m of `b`, shape (B, n), is the right side of member m, and one
    float `tol` holds for every member. `restrict(which)` returns (matvec,
    psolve): the operator and the preconditioner of the members in the
    index array `which`, acting on their rows. Every member repeats the
    arithmetic of `scipy.sparse.linalg.cg(A, b[m], x0[m], rtol=tol, atol=0,
    maxiter=max_iter, M=M)`: norms and inner products are taken on its own
    row, a zero right side is returned as it is, a nonzero start is turned
    into the residual b - A x0, and the member stops at the top of the first
    sweep in which norm(r) < tol * norm(b). Stopped members leave the
    batch, so a member's result does not depend on the others.

    Returns (x, iterations, failed): the solution rows, the iterations of
    each member, and the members that did not converge in max_iter; one
    whose right side's norm is not finite fails after 0 iterations. A batch
    of one runs `_cg`.
    """
    if b.shape[0] == 1:
        return _cg(restrict, b, x0, tol, max_iter)
    x = np.zeros_like(b) if x0 is None else np.array(x0, dtype=b.dtype)
    iterations = np.zeros(b.shape[0], dtype=np.int64)
    bnrm2 = _row_norms(b)
    zero = bnrm2 == 0
    x[zero] = b[zero]
    unsolvable = np.flatnonzero(~np.isfinite(bnrm2))
    act = np.flatnonzero(~zero & np.isfinite(bnrm2))
    atol = np.maximum(0.0, tol * bnrm2)[act]
    r = b[act]
    xa = x[act]
    if x0 is not None:
        warm = xa.any(axis=1)
        if warm.any():
            r[warm] -= restrict(act[warm])[0](xa[warm])
    matvec, psolve = restrict(act)
    p = rho_prev = None
    for it in range(max_iter):
        done = _row_norms(r) < atol
        if done.any():
            keep = ~done
            x[act[done]] = xa[done]
            iterations[act[done]] = it
            act, xa, r, atol = act[keep], xa[keep], r[keep], atol[keep]
            if p is not None:
                p, rho_prev = p[keep], rho_prev[keep]
            matvec, psolve = restrict(act)
        if not act.size:
            break
        z = psolve(r)
        rho = np.vecdot(r, z)
        if p is None:
            p = z.copy()
        else:
            p *= (rho / rho_prev)[:, None]
            p += z
        q = matvec(p)
        alpha = (rho / np.vecdot(p, q))[:, None]
        xa += alpha * p
        r -= alpha * q
        rho_prev = rho
    else:
        x[act] = xa
        iterations[act] = max_iter
    return x, iterations, np.union1d(act, unsolvable) if unsolvable.size else act


# --------------------------------------------------------- nonlinear tendency

def nonlinear_F(
    params: PhysicalParams, u: GNState, tol: float = 1e-12, x0: np.ndarray | None = None
) -> GNState:
    """Nonstiff tendency F[u] of the rescaled system d/dt u + (1/eps)Lu + F[u] = 0.

    Velocity row (single elliptic solve, cancellation-free):
        F1 = bigT^{-1}[ -(mu/eps) T grad zeta + h (V.grad)V
                        + mu ( (1/3) grad(h^3 D_V div V) + Q[h, eps b](V) ) ]
    Elevation row:
        F2 = div( (zeta - b) V )

    A batched `u` gives the batched tendency, one member per member of `u`,
    assembled and inverted (one batched elliptic solve) together. F1 is the
    elliptic solution itself; `x0`, shaped like u.V's coefficients, starts
    its solve (see `invert_bigT`), e.g. from a nearby stage's F1.
    """
    grid = u.grid
    rhs, hg, flux_c = _tendency_rows(params, _batched(u.V), _batched(u.zeta)[0])
    F1c = invert_bigT(params, hg, SpectralField(grid, rhs), tol=tol, x0=x0).coefficients
    F2c = grid.project(_div_c(grid, flux_c))[None]
    if u.batch is None:
        F1c, F2c = F1c[:, 0], F2c[:, 0]
    return GNState(V=SpectralField(grid, F1c), zeta=SpectralField(grid, F2c))


def _tendency_rows(
    params: PhysicalParams, Vc: np.ndarray, zc: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Projected bigT F1, the depth samples h (B, *shape) that its floor
    check tested, and the coefficients of (zeta - b) V, for a batch of
    velocities Vc (d, B, *shape) and elevations zc (B, *shape), from
    `_samples` and `_add_slope_terms`. A function of its own so that its
    temporaries are freed before the CG solve.
    """
    grid = params.grid
    mu, eps = params.mu, params.eps
    Vg, zg, Xg, grad_X_g, grad_V_g, lap_z_g, gz_g = _samples(params, Vc, zc)
    hg = params._depth(zg)
    _require_admissible(params, hg, "nonlinear_F")

    # h (V.grad) V, h^3 D_V div V and h^3 div grad zeta
    advect = _dot_g(Vg, grad_V_g.swapaxes(0, 1))  # row i: V.grad V_i
    dv_x = -_dot_g(Vg, grad_X_g) + Xg * Xg
    h_advect = hg[None] * advect
    h3_dv_x = hg**3 * dv_x
    h3_lap_z = hg * hg * hg * lap_z_g
    if gz_g is not None:
        sym2 = _dot_g(Vg, _grad_slope_dot(params, Vg))
        _add_slope_terms(params, hg, gz_g, lap_z_g, dv_x, sym2, h_advect, h3_dv_x, h3_lap_z)
    flux_c, h_advect, h3_dv_x, h3_lap_z = _transform(
        grid.from_grid,
        grid,
        [(zg - params.b_grid)[None] * Vg, h_advect, h3_dv_x, h3_lap_z],
        gz_g is None,
    )

    # -(mu/eps) T[h, eps b] grad zeta + h (V.grad) V
    # + mu [ (1/3) grad(h^3 D_V div V) + Q(V) ]
    T = -(1.0 / 3.0) * _grad_c(grid, h3_lap_z)
    rhs = (-mu / eps) * grid.project(T)
    rhs += grid.project(h_advect)
    rhs += mu * (1.0 / 3.0) * grid.project(_grad_c(grid, h3_dv_x))
    return rhs, hg, flux_c


# ------------------------------------------------- shared momentum-row terms

def _samples(params: PhysicalParams, Vc: np.ndarray, zc: np.ndarray) -> tuple:
    """Grid samples (V, zeta, div V, grad div V, grad V with row i grad V_i,
    div grad zeta, grad zeta) of velocities Vc (d, ..., *shape) and
    elevations zc (..., *shape). On a flat bottom grad zeta, which only
    grad(beta).grad zeta in T reads, is None and the rest go through one
    stacked `to_grid`; over bathymetry each has its own call."""
    grid = params.grid
    flat = params._slope is None
    Xc = _div_c(grid, Vc)
    gz_c = _grad_c(grid, zc)
    parts = [Vc, zc, Xc, _grad_c(grid, Xc), _grad_c(grid, Vc).swapaxes(0, 1), _div_c(grid, gz_c)]
    grids = _transform(grid.to_grid, grid, parts + ([] if flat else [gz_c]), flat)
    return (*grids, None) if flat else tuple(grids)


def _slope_like(params: PhysicalParams, a: np.ndarray) -> np.ndarray:
    """grad(beta) laid out for `a`: (d, *shape), or (d, 1, *shape) for a batch."""
    slope = params._slope
    return slope if a.ndim == slope.ndim else slope[:, None]


def _grad_slope_dot(params: PhysicalParams, Vg: np.ndarray) -> np.ndarray:
    """Samples of grad(grad(beta).V) from the samples Vg of V, one field or
    a batch, through one transform pair."""
    grid = params.grid
    return grid.to_grid(_grad_c(grid, grid.from_grid(_dot_g(_slope_like(params, Vg), Vg))))


def _add_slope_terms(params: PhysicalParams, hg, gz_g, lap_z_g, dq, sq, h_adv, h3_dq, h3_lap_z):
    """Fold, in place, the slope terms of -(mu/eps) T grad zeta and of
    mu [ (1/2) grad(h^2 sq) + h ((h/2) dq + sq) grad(beta) ] onto the grid
    rows h_adv, h3_dq (combined as (mu/3) grad) and h3_lap_z (as
    (mu/eps)(1/3) grad). With Y = grad(beta).grad zeta, T grad zeta adds
    -(1/3) grad(-(3/2) h^2 Y) and (-(1/2) h^2 div grad zeta + h Y) grad(beta);
    the Q term adds (mu/3) grad((3/2) h^2 sq) and mu h ((h/2) dq + sq)
    grad(beta). The tendency's mu Q(V) has dq = D_V div V and
    sq = V.grad(grad(beta).V), `_K_rows`'s 2 mu Q_bil has 2 dsym and 2 sym2.
    """
    mu, eps = params.mu, params.eps
    gbeta_g = _slope_like(params, h_adv)
    Yg = _dot_g(gbeta_g, gz_g)
    h2 = hg * hg
    slope_terms = mu * hg * (0.5 * hg * dq + sq)
    slope_terms -= (mu / eps) * (-0.5 * h2 * lap_z_g + hg * Yg)
    h_adv += slope_terms[None] * gbeta_g
    h3_dq += 1.5 * h2 * sq
    h3_lap_z -= 1.5 * h2 * Yg


# ------------------------------------------------------ linearized operators

@dataclass
class LinearizedCoeffs:
    """Frozen-coefficient data for the linearized system around a reference.

    All entries are grid-sample trajectories (leading axis = time). The scaled
    bathymetry beta = eps*b enters every coefficient (same convention as the
    operators T[., eps b] and Q[., eps b] of the model; the finite-difference
    derivative tests pin this down). `abar` and `bbar` are built by default
    with the on-solution substitution grad(zetabar) + eps*F1[ubar] ->
    -eps*dtVbar (flag `substituted`, see `build_linearized_coeffs`); the
    exact assembly re-evaluates the nonlinear velocity tendency and is the
    true Frechet derivative, used by the derivative-consistency tests.
    `grad_vbarbeta` = grad(grad(beta).Vbar) (`_grad_slope_dot`), read only
    by the slope terms of `_K_rows`, is None on a flat bottom, where it
    vanishes. `at_time` refuses a time outside the snapshots' span.
    """

    grid: GridSpec
    times: np.ndarray
    Vbar: np.ndarray        # (nt, d, *shape)
    zetabar: np.ndarray     # (nt, *shape)
    hbar: np.ndarray        # (nt, *shape)
    abar: np.ndarray        # (nt, *shape)
    bbar: np.ndarray        # (nt, d, *shape)
    divVbar: np.ndarray     # (nt, *shape)
    gradVbar: np.ndarray    # (nt, d, d, *shape) : gradVbar[t, i] = grad of component i
    graddivVbar: np.ndarray # (nt, d, *shape)
    grad_vbarbeta: np.ndarray | None  # (nt, d, *shape) : grad( grad(beta).Vbar ), None if flat
    substituted: bool = True

    @property
    def n_times(self) -> int:
        return self.times.size

    def bracket(self, t: float) -> tuple[int, int, float]:
        """Bracketing snapshot indices and interpolation weight for time t."""
        times = self.times
        if t <= times[0]:
            return 0, 0, 0.0
        if t >= times[-1]:
            return self.n_times - 1, self.n_times - 1, 0.0
        dt = times[1] - times[0]
        i = min(int(t / dt), self.n_times - 2)
        w = (t - times[i]) / dt
        if w < 1e-12:
            return i, i, 0.0
        if w > 1.0 - 1e-12:
            return i + 1, i + 1, 0.0
        return i, i + 1, float(w)

    def at_time(self, t: float) -> dict[str, np.ndarray]:
        """Linear interpolation of the coefficient arrays at time t, by name;
        an array that is None (`grad_vbarbeta` on a flat bottom) is left
        out. A t outside [0, times[-1]] (to 1e-8 relative) or NaN raises
        ValueError, as in `TrajectoryField.sample`."""
        span = float(self.times[-1])
        if not (-1e-8 * span <= t <= span * (1.0 + 1e-8)):
            raise ValueError(f"time {t!r} lies outside the coefficients' span [0, {span!r}] "
                             f"({self.n_times} snapshots)")
        i, j, w = self.bracket(t)
        names = [
            "Vbar", "zetabar", "hbar", "abar", "bbar",
            "divVbar", "gradVbar", "graddivVbar", "grad_vbarbeta",
        ]
        out = {}
        for name in names:
            arr = getattr(self, name)
            if arr is not None:
                out[name] = arr[i] if j == i else (1.0 - w) * arr[i] + w * arr[j]
        return out


def build_linearized_coeffs(
    params: PhysicalParams,
    uref: TrajectoryField,
    substituted: bool = True,
    tol: float = 1e-12,
) -> LinearizedCoeffs:
    """Assemble the frozen coefficients of the linearized system along `uref`.

    `uref` is a packed (d+1)-component trajectory. With `substituted` (the
    default) the scalar/vector coefficient pair (abar, bbar) uses
        abar = eps hbar D_Vbar(div Vbar) + (Vbar.grad)^2 beta
               + eps grad(beta).dtVbar - eps hbar div(dtVbar),
        bbar = eps (Vbar.grad)Vbar + (eps dtVbar + grad zetabar)
               + mu abar grad(beta),
    with beta = eps*b; this agrees with the exact linearization on exact
    solutions. With `substituted=False` the generic assembly replaces
    -eps*dtVbar by grad(zetabar) + eps*F1[ubar], re-evaluating the nonlinear
    velocity tendency (exact Frechet derivative, used by the consistency
    tests).

    The snapshots are processed in chunks (`fourier_scale._chunks`), each as
    one batch: one transform per coefficient and chunk, and on the exact path
    one batched `nonlinear_F`. Every snapshot gets the bits of its own
    evaluation.
    """
    grid = uref.grid
    d = grid.dimension
    nt = uref.n_times
    eps = params.eps

    Vc = uref.snapshots[:, :d]
    zc = uref.snapshots[:, d]
    Vbar = grid.to_grid(Vc)
    zetabar = grid.to_grid(zc)
    hbar = params._depth(zetabar)
    _require_admissible(params, hbar, "build_linearized_coeffs", first="snapshot")

    dtVbar = _time_derivative_arrays(Vbar, uref.time_step)

    divVbar = np.empty((nt, *grid.shape))
    gradVbar = np.empty((nt, d, d, *grid.shape))
    graddivVbar = np.empty((nt, d, *grid.shape))
    flat = params._slope is None
    grad_vbarbeta = None if flat else np.empty((nt, d, *grid.shape))
    abar = np.empty((nt, *grid.shape))
    bbar = np.empty((nt, d, *grid.shape))
    gbeta = None if flat else params._slope[:, None]
    for part in _chunks(nt):
        # one chunk of snapshots as a batch: (d, B, *shape) vectors and
        # (B, *shape) scalars; each transform covers the whole chunk
        V_c = Vc[part].swapaxes(0, 1)
        V_g = Vbar[part].swapaxes(0, 1)
        h_g = hbar[part]
        div_c = _div_c(grid, V_c)
        div_g = divVbar[part] = grid.to_grid(div_c)
        graddiv_g = grid.to_grid(_grad_c(grid, div_c))
        graddivVbar[part] = graddiv_g.swapaxes(0, 1)
        # (component, axis, B, *shape): row i holds grad of component i
        gradV_g = grid.to_grid(_grad_c(grid, V_c)).swapaxes(0, 1)
        gradVbar[part] = np.moveaxis(gradV_g, 2, 0)
        grad_zeta_g = grid.to_grid(_grad_c(grid, zc[part]))

        # D_Vbar(div Vbar) = -(Vbar.grad)(div Vbar) + (div Vbar)^2
        d_vbar_div = -_dot_g(V_g, graddiv_g) + div_g**2
        advect = _dot_g(V_g, gradV_g.swapaxes(0, 1))  # row i: Vbar.grad Vbar_i
        a_flow = eps * h_g * d_vbar_div
        if not flat:
            gvb_g = _grad_slope_dot(params, V_g)
            grad_vbarbeta[part] = gvb_g.swapaxes(0, 1)
            # (Vbar.grad)^2 beta = (Vbar.grad)(Vbar.grad beta), assembled spectrally inside.
            a_flow += _dot_g(V_g, gvb_g)

        # the grad(beta) terms vanish on a flat bottom and are left out there
        if substituted:
            dtV_g = dtVbar[part].swapaxes(0, 1)
            if not flat:
                a_flow += eps * _dot_g(gbeta, dtV_g)
            a_part = abar[part] = a_flow - eps * h_g * grid.to_grid(
                _div_c(grid, grid.from_grid(dtV_g))
            )
            b_part = eps * advect + (eps * dtV_g + grad_zeta_g)
        else:
            state = GNState(V=SpectralField(grid, V_c), zeta=SpectralField(grid, zc[part][None]))
            F1g = grid.to_grid(nonlinear_F(params, state, tol=tol).V.coefficients)
            # w := grad(zetabar) + eps F1[ubar]; abar = eps hbar D(divVbar)
            #      + (Vbar.grad)^2 beta - grad(beta).w + hbar div(w)
            wg = grad_zeta_g + eps * F1g
            div_w = grid.to_grid(_div_c(grid, grid.from_grid(wg)))
            if not flat:
                a_flow -= _dot_g(gbeta, wg)
            a_part = abar[part] = a_flow + h_g * div_w
            b_part = eps * advect - eps * F1g
        if not flat:
            b_part += params.mu * a_part[None] * gbeta
        bbar[part] = b_part.swapaxes(0, 1)

    return LinearizedCoeffs(
        grid=grid,
        times=uref.times.copy(),
        Vbar=Vbar,
        zetabar=zetabar,
        hbar=hbar,
        abar=abar,
        bbar=bbar,
        divVbar=divVbar,
        gradVbar=gradVbar,
        graddivVbar=graddivVbar,
        grad_vbarbeta=grad_vbarbeta,
        substituted=substituted,
    )


def apply_K(
    coeffs: LinearizedCoeffs,
    params: PhysicalParams,
    t: float,
    v: GNState,
    tol: float = 1e-12,
    x0: np.ndarray | None = None,
    coeffs_t: dict[str, np.ndarray] | None = None,
) -> GNState:
    """Nonstiff part K(t) v of the linearized system, cancellation-free.

    The linearized system is equivalent to d/dt v + (1/eps) L v + K(t) v = f
    with
        K1 v = bigTbar^{-1}[ N1 V + bbar zeta + mu grad(hbar abar zeta)
                             - (mu/eps) Tbar grad zeta ]
        K2 v = div((zetabar - b) V) + div(zeta Vbar)
        N1 V = hbar [(Vbar.grad)V + (V.grad)Vbar]
               + (mu/3) grad(hbar^3 [D_Vbar(div V) + D_V(div Vbar)])
               + 2 mu Q_bil[hbar, eps b](V, Vbar)
    (the 1/eps parts of N2/N3 reduce against L exactly, using
    (hbar-1)/eps = zetabar - b pointwise; Q_bil is the symmetric bilinear
    form of Q). The coefficients are interpolated linearly in time between
    snapshots and the momentum row is assembled by `_K_rows`. One elliptic
    solve per call, at the interpolated depth samples hbar, started from
    `x0` if given (see `invert_bigT`); K1 v is its solution. A caller that
    already holds `coeffs.at_time(t)` may pass it as `coeffs_t`.
    """
    grid = v.grid
    if coeffs_t is None:
        coeffs_t = coeffs.at_time(float(t))
    rhs, flux_c, zV_c = _K_rows(coeffs_t, params, v)
    K1 = invert_bigT(params, coeffs_t["hbar"], SpectralField(grid, rhs), tol=tol, x0=x0)

    row2 = _div_c(grid, flux_c)
    row2 += _div_c(grid, zV_c)
    row2 = grid.project(row2)
    return GNState(V=K1, zeta=SpectralField(grid, row2[None]))


def _K_rows(
    coeffs_t: dict[str, np.ndarray], params: PhysicalParams, v: GNState
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Projected bigTbar K1 v, and the coefficients of (zetabar - b) V and
    zeta Vbar, at one time; a function of its own so that its temporaries
    are freed before the CG solve.

    The one assembly of the linearized momentum row
        N1 V + bbar zeta + mu grad(hbar abar zeta) - (mu/eps) Tbar grad zeta,
        N1 V = hbar [(Vbar.grad)V + (V.grad)Vbar]
               + (mu/3) grad(hbar^3 [D_Vbar(div V) + D_V(div Vbar)])
               + 2 mu Q_bil[hbar, eps b](V, Vbar),
    with Q_bil the symmetric bilinear form of Q,
        Q_bil[h, beta](V, W) = (1/2) grad(h^2 sym2)
                               + h ((h/2) dsym + sym2) grad(beta),
        sym2 = (1/2) [(V.grad)(W.grad beta) + (W.grad)(V.grad beta)],
        dsym = (1/2) [D_V(div W) + D_W(div V)]:
    the derivative of the quadratic form mu Q is twice its diagonal-normalized
    bilinear form. As in `_tendency_rows`, the samples come from `_samples`
    and, over bathymetry, the slope terms of Tbar and 2 mu Q_bil from
    `_add_slope_terms`. The coefficients are summed in the order written above.
    """
    grid = v.grid
    mu, eps = params.mu, params.eps
    hbar = coeffs_t["hbar"]
    Vbar = coeffs_t["Vbar"]
    divVbar = coeffs_t["divVbar"]
    Vg, zg, Xg, grad_X_g, grad_V_g, lap_z_g, gz_g = _samples(
        params, v.V.coefficients, v.zeta.coefficients[0]
    )

    adv = _dot_g(Vbar, grad_V_g.swapaxes(0, 1)) + _dot_g(Vg, coeffs_t["gradVbar"].swapaxes(0, 1))
    # D_Vbar(div V) + D_V(div Vbar)
    dsym2 = -_dot_g(Vbar, grad_X_g) + divVbar * Xg - _dot_g(Vg, coeffs_t["graddivVbar"])
    dsym2 += Xg * divVbar
    h_adv = hbar[None] * adv
    h3_dsym2 = hbar**3 * dsym2
    h3_lap_z = hbar * hbar * hbar * lap_z_g
    if gz_g is not None:
        # 2 sym2 = V.grad(grad(beta).Vbar) + Vbar.grad(grad(beta).V)
        sym2x2 = _dot_g(Vg, coeffs_t["grad_vbarbeta"]) + _dot_g(Vbar, _grad_slope_dot(params, Vg))
        _add_slope_terms(params, hbar, gz_g, lap_z_g, dsym2, sym2x2, h_adv, h3_dsym2, h3_lap_z)
    flux_c, zV_c, rhs, h3_dsym2, bbar_z, habar_z, h3_lap_z = _transform(
        grid.from_grid,
        grid,
        [
            (coeffs_t["zetabar"] - params.b_grid)[None] * Vg,
            zg[None] * Vbar,
            h_adv,
            h3_dsym2,
            zg[None] * coeffs_t["bbar"],
            hbar * coeffs_t["abar"] * zg,
            h3_lap_z,
        ],
        gz_g is None,
    )

    rhs += (mu / 3.0) * _grad_c(grid, h3_dsym2)
    # Tbar grad zeta, its slope terms already in the rows
    T = -(1.0 / 3.0) * _grad_c(grid, h3_lap_z)
    rhs += bbar_z
    rhs += mu * _grad_c(grid, habar_z)
    rhs += -(mu / eps) * grid.project(T)
    return grid.project(rhs), flux_c, zV_c


def frechet_F(
    coeffs: LinearizedCoeffs,
    params: PhysicalParams,
    t: int,
    v: GNState,
) -> GNState:
    """Directional derivative of the nonstiff tendency F at the reference.

    DF[ubar] v = ( bigTbar^{-1}(N1 V + N2 zeta) - (1/eps) grad zeta,
                   N3 V + N4 zeta - (1/eps) div V ).
    It is the exact derivative only on coefficients built with
    `substituted=False`; substituted ones raise ValueError. Its elliptic
    solve runs at `apply_K`'s default tolerance.
    """
    if coeffs.substituted:
        raise ValueError(
            "frechet_F needs the exact coefficients: build_linearized_coeffs(substituted=False)"
        )
    return apply_K(coeffs, params, float(coeffs.times[t]), v)


# ------------------------------------------------------------------- norms

def x_norm_packed(params: PhysicalParams, u: SpectralField, s: float) -> float | np.ndarray:
    """Scale norm of a packed (d+1)-component state: ||V||_s + |zeta|_{H^s},
    with ||V||_s = |V|_{H^s} + sqrt(mu) |div V|_{H^s}.

    A batched `u` gives the (B,) array of its members' norms, each with the
    bits of its own single call.
    """
    grid = u.grid
    d = grid.dimension
    c = u.coefficients
    V, zeta = SpectralField(grid, c[:d]), SpectralField(grid, c[d:])
    divV = SpectralField(grid, _div_c(grid, c[:d])[None])
    k = math.sqrt(params.mu)
    norms = [
        nV + k * nD + nZ
        for nV, nD, nZ in zip(_member_norms(V, s), _member_norms(divV, s), _member_norms(zeta, s))
    ]
    return np.array(norms) if u.batch is not None else norms[0]
