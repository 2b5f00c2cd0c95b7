"""Hypothesis properties of the free wave group and the operators, in 1D and 2D.

* The free wave group is a group: U(t) U(s) = U(t + s).
* Every operator maps real fields to real fields: the coefficients of its
  output keep the Hermitian symmetry c(-k) = conj(c(k)) of its input
  (`SpectralField.validate`, relative tolerance).
"""
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from nmshallow.fourier_scale import GridSpec, SpectralField, random_field, zero_field
from nmshallow.green_naghdi import GNState, PhysicalParams, apply_bigT, invert_bigT, nonlinear_F
from nmshallow.linear_ivp import evolve_packed

GRIDS = {
    1: GridSpec(dimension=1, nodes_per_axis=32, domain_length=2 * math.pi),
    2: GridSpec(dimension=2, nodes_per_axis=16, domain_length=2 * math.pi),
}
TIMES = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


@settings(max_examples=60, deadline=None)
@given(
    dim=st.sampled_from([1, 2]),
    eps=st.floats(min_value=0.25, max_value=1.0),
    t=TIMES,
    s=TIMES,
    seed=SEEDS,
)
def test_wave_group_composes(dim, eps, t, s, seed):
    grid = GRIDS[dim]
    rng = np.random.default_rng(seed)
    u = random_field(grid, dim + 1, rng, amplitude=1.0, decay=1.0).coefficients
    two = evolve_packed(grid, eps, t, evolve_packed(grid, eps, s, u))
    one = evolve_packed(grid, eps, t + s, u)
    assert np.linalg.norm(two - one) <= 1e-13 * np.linalg.norm(u)


@settings(max_examples=30, deadline=None)
@given(dim=st.sampled_from([1, 2]), flat=st.booleans(), t=TIMES, seed=SEEDS)
def test_operators_keep_hermitian_symmetry(dim, flat, t, seed):
    grid = GRIDS[dim]
    rng = np.random.default_rng(seed)
    b = zero_field(grid) if flat else random_field(grid, 1, rng, amplitude=0.05, decay=4.0)
    params = PhysicalParams(mu=0.3, eps=0.5, b=b)
    u = GNState(
        V=random_field(grid, dim, rng, amplitude=0.1, decay=3.0),
        zeta=random_field(grid, 1, rng, amplitude=0.1, decay=3.0),
    )
    h = params._depth_field(u.zeta)
    W = random_field(grid, dim, rng, amplitude=1.0, decay=2.0)
    outputs = {
        "evolve_packed": evolve_packed(grid, params.eps, t, u.packed().coefficients),
        "nonlinear_F": nonlinear_F(params, u).packed().coefficients,
        "apply_bigT": apply_bigT(params, h, W).coefficients,
        "invert_bigT": invert_bigT(params, h, W).coefficients,
    }
    for name, c in outputs.items():
        try:
            SpectralField(grid, c).validate()
        except ValueError as exc:
            raise AssertionError(f"{name}: {exc}") from exc
