"""The direct elliptic solve of a small flat 1D band against PCG.

On a flat bottom in 1D, `invert_bigT` solves a band of at most
`green_naghdi._DENSE_MODES` modes by one dense LU per member
(`_band_solve`). The PCG loop (`_pcg`) it replaces there is the slow path
of these differential tests: both stop at |b - A x| < tol |b|, so their
solutions agree to within what that rule allows, and the direct one is
written exactly Hermitian.
"""
import math

import numpy as np
import pytest
from test_batch import _rows
from test_rounding_gate import _assert_runs_agree, _run

from nmshallow import green_naghdi as gn
from nmshallow.errors import ConvergenceError
from nmshallow.fourier_scale import GridSpec, SpectralField, random_field, zero_field
from nmshallow.green_naghdi import PhysicalParams, depth_grid, invert_bigT

TOL = 1e-12

def _system(n, fraction, members, depth_amplitude, zero_side=None, seed=3):
    """Flat-bottom params, the depth samples (members, n) and `members`
    right sides on an n-point 1D grid: depths 1 + eps zeta with random zeta
    of the given amplitude."""
    grid = GridSpec(dimension=1, nodes_per_axis=n, domain_length=2 * math.pi,
                    dealias_fraction=fraction)
    params = PhysicalParams(mu=0.1, eps=math.sqrt(0.1), b=zero_field(grid))
    rng = np.random.default_rng(seed)
    zeta = np.stack([random_field(grid, 1, rng, amplitude=depth_amplitude, decay=2.0).coefficients
                     for _ in range(members)], axis=1)
    V = np.stack([random_field(grid, 1, rng, amplitude=1.0, decay=1.0).coefficients
                  for _ in range(members)], axis=1)
    if zero_side is not None:
        V[:, zero_side] = 0.0
    return params, depth_grid(params, zeta[0]), SpectralField(grid, V)


CASES = {
    # a lone member: the flagship's mol stages (128 points, 9 modes)
    "lone": (128, 0.0625, 1, 0.1, None),
    # the flagship's near-constant depth (a 1e-5 elevation)
    "flagship": (128, 0.0625, 4, 1e-5, None),
    # the sweep's band (64 points, 43 modes) over a random depth
    "sweep": (64, 2.0 / 3.0, 4, 0.3, None),
    # a zero right side in a batch
    "zero side": (64, 2.0 / 3.0, 3, 0.3, 1),
    # more members than one chunk of `_CHUNK`
    "chunks": (32, 2.0 / 3.0, 37, 0.3, 5),
}


@pytest.mark.parametrize("case", list(CASES))
def test_direct_solve_matches_pcg(case):
    n, fraction, members, amplitude, zero_side = CASES[case]
    params, h, V = _system(n, fraction, members, amplitude, zero_side)
    grid = params.grid
    assert 2 * grid.dealias_cutoff_index + 1 <= gn._DENSE_MODES
    lone = members == 1
    if lone:
        V = SpectralField(grid, V.coefficients[:, 0])
    W, info = invert_bigT(params, h[0] if lone else h, V, tol=TOL, return_info=True)
    assert info == {"iterations": 0}

    b = gn._band_rows(gn._batched(V), grid._band.index)
    x, iters, failed = gn._pcg(gn._bigT_operators(params, h), b, None, TOL, 500)
    assert failed.size == 0 and iters.max() > 0
    x = _rows(gn._band_fields(grid, x))
    got = _rows(gn._batched(W))
    for m in range(members):
        if m == zero_side:
            assert not np.any(got[m])
            continue
        assert np.linalg.norm(got[m] - x[m]) <= 10 * TOL * np.linalg.norm(x[m])

    # exactly Hermitian: real zero mode, negative modes the mirror, zero off the band
    cut = grid.dealias_cutoff_index
    assert not np.any(got[:, 0].imag)
    assert np.array_equal(got[:, n - cut:], np.conjugate(got[:, cut:0:-1]))
    assert not np.any(got[:, cut + 1:n - cut])


def test_direct_solve_counts_solves_without_iterations():
    params, h, V = _system(64, 2.0 / 3.0, 3, 0.3)
    with gn.counting() as counts:
        cold = invert_bigT(params, h, V, tol=TOL)
        # x0 and max_iter do not apply to the direct solve
        warm, info = invert_bigT(params, h, V, tol=TOL, max_iter=1,
                                 x0=np.ones(V.coefficients.size), return_info=True)
    assert warm.coefficients.tobytes() == cold.coefficients.tobytes()
    assert info == {"iterations": 0}
    assert counts["solves"] == 6
    assert counts["cg_iterations"] == 0


def test_direct_solve_matrix_is_the_operator_on_the_band():
    # the dense solve inverts the operator that apply_bigT applies
    params, h, V = _system(64, 2.0 / 3.0, 2, 0.3)
    W = invert_bigT(params, h, V, tol=TOL)
    back = gn.apply_bigT(params, h, W).coefficients
    err = np.linalg.norm(_rows(back - V.coefficients), axis=1)
    assert np.all(err < TOL * np.linalg.norm(_rows(V.coefficients), axis=1))


def test_unreachable_tolerance_fails_the_direct_solve():
    params, h, V = _system(64, 2.0 / 3.0, 3, 0.3, zero_side=0)
    with pytest.raises(ConvergenceError, match="by a direct solve") as exc:
        invert_bigT(params, h, V, tol=1e-30)
    assert "member 1: residual" in str(exc.value) and "member 2: residual" in str(exc.value)
    assert "member 0" not in str(exc.value)


@pytest.mark.parametrize("members", [1, 2], ids=["lone", "batched"])
@pytest.mark.parametrize("dense", [64, 0], ids=["direct", "pcg"])
def test_right_side_off_the_band_is_refused(monkeypatch, dense, members):
    # no solution on the band meets modes of V off it: finite ones are
    # refused before any solve, while a NaN grid sample, which the transform
    # spreads over every mode and the projection keeps off the band, still
    # fails the solve
    monkeypatch.setattr(gn, "_DENSE_MODES", dense)
    params, h, V = _system(64, 2.0 / 3.0, members, 0.3)
    grid = params.grid
    lone = members == 1
    last = members - 1
    who = "" if lone else f"member {last}: "

    def solve(c, **kwargs):
        return invert_bigT(params, h[0] if lone else h,
                           SpectralField(grid, c[:, 0] if lone else c), tol=TOL, **kwargs)

    off = V.coefficients.copy()
    off[0, last, 30] = off[0, last, 34] = 1e-6
    with gn.counting() as counts, pytest.raises(
        ValueError, match=rf"on the retained band only \({who}off the band 1\.414e-06\)$"
    ):
        solve(off)
    assert counts == {"solves": 0, "cg_iterations": 0, "rk_substeps": 0}

    samples = grid.to_grid(V.coefficients)
    samples[0, last, 7] = np.nan
    spread = grid.project(grid.from_grid(samples))
    assert np.isnan(spread[:, last][..., ~grid.dealias_mask]).all()
    # (in 5 PCG iterations member 0 fails too, and is named first)
    how = "by a direct solve" if dense else "after 5 PCG iterations"
    with np.errstate(invalid="ignore"), pytest.raises(
        ConvergenceError, match=rf"(\(|; ){who}residual nan, \|rhs\| nan, {how}\)$"
    ):
        solve(spread, max_iter=5)


@pytest.mark.parametrize("flat", [True, False], ids=["direct", "pcg"])
@pytest.mark.parametrize("tol", [math.nan, math.inf, 1.0, 0.0, -1e-12])
def test_tolerance_outside_the_unit_interval_is_refused(flat, tol):
    params, h, V = _system(64, 2.0 / 3.0, 1, 0.3)
    if not flat:
        grid = params.grid
        bathymetry = random_field(grid, 1, np.random.default_rng(1), amplitude=0.05, decay=5.0)
        params = PhysicalParams(mu=params.mu, eps=params.eps, b=bathymetry)
    with pytest.raises(ValueError, match=r"tol must be a finite number in \(0, 1\)"):
        invert_bigT(params, h, V, tol=tol)


@pytest.mark.parametrize("name", ["flagship", "sweep"])
def test_workloads_agree_with_pcg(name, tmp_path, monkeypatch):
    with gn.counting() as direct:
        new = _run(name, tmp_path / "direct", monkeypatch)
    assert direct["cg_iterations"] == 0  # every solve was direct
    with monkeypatch.context() as m, gn.counting() as pcg:
        m.setattr(gn, "_DENSE_MODES", 0)
        old = _run(name, tmp_path / "pcg", monkeypatch)
    assert pcg["cg_iterations"] > 0
    _assert_runs_agree(name, new, old)
