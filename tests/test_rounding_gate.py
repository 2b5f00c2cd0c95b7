"""Rounding-level gate for changes to the transform pair.

A change to `GridSpec.to_grid`/`from_grid` that reorders floating-point
operations cannot keep the sha256 of the artifacts; this gate bounds what it
may move instead. The complex-to-complex pair the package ran before real
transforms is kept below as the old path (`_c2c_to_grid`, `_c2c_from_grid`),
and each check runs the same inputs through the package's pair and, with the
old pair patched into `GridSpec`, through the old one:

- the inputs of the four perfbench workloads (`perfbench/workloads.py`) at
  their `toy` sizes: every output trajectory agrees per snapshot to 1e-12
  relative in the X^0 norm, and the flagship's Nash-Moser iteration count,
  stop reason and induction booleans are identical;
- rough data, a flat spectrum up to the Nyquist modes, and its unprojected
  spectral gradient and divergence: the grid values agree to 1e-13 relative
  to their maximum. In 2D the axis-0 derivative of such a field is not
  Hermitian on the Nyquist row, because the wavenumber there is not odd;
  the old path dropped that part with `.real`, and the new path must too.
"""
from __future__ import annotations

import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from nmshallow import cli, reference
from nmshallow.fourier_scale import GridSpec, SpectralField, load_trajectory
from nmshallow.green_naghdi import _div_c, _grad_c, x_norm_packed
from nmshallow.nash_moser import check_induction

ROOT = Path(__file__).resolve().parent.parent
X0_REL_MAX = 1e-12
ROUGH_REL_MAX = 1e-13


def _c2c_to_grid(self, coeffs):
    """The old `GridSpec.to_grid`: complex transforms per axis, `.real`."""
    fft = np.fft._pocketfft_umath
    out = np.empty_like(coeffs, dtype=np.complex128)
    fct = 1.0 / self.nodes_per_axis
    fft.ifft(coeffs, fct, out=out)
    if self.dimension == 2:
        fft.ifft(out, fct, axes=[(-2,), (), (-2,)], out=out)
    return out.real * self.n_modes


def _c2c_from_grid(self, values):
    """The old `GridSpec.from_grid`: complex transforms per axis."""
    fft = np.fft._pocketfft_umath
    out = np.empty_like(values, dtype=np.complex128)
    fft.fft(values, 1, out=out)
    if self.dimension == 2:
        fft.fft(out, 1, axes=[(-2,), (), (-2,)], out=out)
    out /= self.n_modes
    return out


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


def _run(name: str, workdir: Path, monkeypatch) -> dict:
    """One toy execution of workload `name`: its inputs, its outcome and the
    (params, trajectories) of every `mol_solve` it made."""
    workdir.mkdir()
    solves = []
    inner = reference.mol_solve

    def recording(params, *args, **kwargs):
        out = inner(params, *args, **kwargs)
        solves.append((params, out if isinstance(out, list) else [out]))
        return out

    with monkeypatch.context() as m:
        m.setattr(reference, "mol_solve", recording)
        m.setattr(cli, "mol_solve", recording)
        w = workloads.WORKLOADS[name]
        inp = w.setup(ROOT, 0, workdir, "toy")
        outcome = w.execute(inp)
    return {"inputs": inp, "outcome": outcome, "solves": solves}


def _x0_rel(params, got, want) -> float:
    """Largest per-snapshot relative X^0 difference of two trajectories."""
    grid = want.grid
    diff = SpectralField(grid, (got.snapshots - want.snapshots).swapaxes(0, 1))
    ref = SpectralField(grid, want.snapshots.swapaxes(0, 1))
    return float(np.max(x_norm_packed(params, diff, 0.0) / x_norm_packed(params, ref, 0.0)))


def _assert_runs_agree(name: str, new: dict, old: dict) -> None:
    """Two `_run`s of workload `name` agree to X0_REL_MAX in every trajectory;
    two flagship runs also in iteration count, stop reason and induction."""
    pairs = []
    for (params, got), (_, want) in zip(new["solves"], old["solves"], strict=True):
        pairs += [(params, g, w) for g, w in zip(got, want, strict=True)]
    if name == "flagship":
        params = new["inputs"].params
        for stem in ("solution_nash_moser", "solution_mol"):
            pairs.append((
                params,
                load_trajectory(new["outcome"]["out"] / f"{stem}.nmtrj"),
                load_trajectory(old["outcome"]["out"] / f"{stem}.nmtrj"),
            ))
    assert pairs
    worst = max(_x0_rel(params, got, want) for params, got, want in pairs)
    assert worst <= X0_REL_MAX, f"{name}: relative X^0 difference {worst:.3e}"

    if name == "flagship":
        (tn, sn), (to, so) = (
            (r["outcome"]["trace"], r["outcome"]["schedule"]) for r in (new, old)
        )
        assert len(tn.theta) == len(to.theta)
        assert tn.stop_reason == to.stop_reason
        props = ("prop_i", "prop_ii", "prop_iii")
        got, want = check_induction(tn, sn), check_induction(to, so)
        assert [got[p] for p in props] == [want[p] for p in props]


@pytest.mark.parametrize("name", ["flagship", "transit", "sweep", "bathy2d"])
def test_workloads_agree_with_the_c2c_pair(name, tmp_path, monkeypatch):
    new = _run(name, tmp_path / "new", monkeypatch)
    with monkeypatch.context() as m:
        m.setattr(GridSpec, "to_grid", _c2c_to_grid)
        m.setattr(GridSpec, "from_grid", _c2c_from_grid)
        old = _run(name, tmp_path / "old", monkeypatch)
    _assert_runs_agree(name, new, old)


@pytest.mark.parametrize("dim,n", [(2, 16), (2, 64), (1, 64)])
def test_rough_fields_agree_with_the_c2c_pair(dim, n):
    grid = GridSpec(dimension=dim, nodes_per_axis=n, domain_length=2.0 * math.pi)
    rng = np.random.default_rng(n + dim)
    # unit modulus at every mode, the Nyquist modes included
    values = rng.standard_normal((3, *grid.shape))
    c = _c2c_from_grid(grid, values)
    c /= np.maximum(np.abs(c), 1e-300)
    c = _c2c_from_grid(grid, _c2c_to_grid(grid, c))
    cases = {
        "field": c,
        "gradient": _grad_c(grid, c[0]),
        "divergence": _div_c(grid, c[:dim]),
        "gradient of divergence": _grad_c(grid, _div_c(grid, c[:dim])),
    }
    for name, coeffs in cases.items():
        got, want = grid.to_grid(coeffs), _c2c_to_grid(grid, coeffs)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        err = np.max(np.abs(got - want)) / np.max(np.abs(want))
        assert err <= ROUGH_REL_MAX, f"to_grid, {name}: {err:.3e}"
    got, want = grid.from_grid(values), _c2c_from_grid(grid, values)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.max(np.abs(got - want)) / np.max(np.abs(want)) <= ROUGH_REL_MAX
