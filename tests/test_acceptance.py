"""End-to-end acceptance gate: eleven numbered criteria, one line printed each.

Run with ``python3 -m pytest tests/test_acceptance.py`` — each criterion
prints its own PASS/FAIL line (written straight to the terminal, bypassing
capture) with the measured numbers, and fails its test on violation.
"""
import json
import math

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from nmshallow import invariants
from nmshallow.cli import _sup_diff_norm, main
from nmshallow.errors import InfeasibleScheduleError
from nmshallow.fourier_scale import (
    GridSpec,
    SpectralField,
    TrajectoryField,
    interpolate_bound_check,
    random_field,
    smooth,
    sobolev_norm,
    zero_field,
)
from nmshallow.green_naghdi import (
    GNState,
    PhysicalParams,
    build_linearized_coeffs,
    frechet_F,
    nonlinear_F,
)
from nmshallow.linear_ivp import IVPData, solve_linearized
from nmshallow.nash_moser import check_induction, compute_schedule, p_min_threshold
from nmshallow.reference import mol_solve, serre_solitary_wave


# one line per criterion; echoed in the terminal summary by the conftest hook
CRITERION_LINES: list[str] = []


def _report(n: int, ok: bool, detail: str) -> None:
    line = f"[criterion {n:2d}] {'PASS' if ok else 'FAIL'} - {detail}"
    CRITERION_LINES.append(line)
    print(line, flush=True)
    assert ok, line


# ---------------------------------------------------------------- criterion 1


def test_criterion_01_schedule_constants():
    delta, q, p_min = p_min_threshold(2, 2, 0, 4)
    sched = compute_schedule(m=2, d1=2, d1p=0, D=4, P=38.5, margin=0.5)
    ok = (
        abs(delta - 2.0) <= 1e-12
        and abs(q - 2.0) <= 1e-12
        and abs(sched.alpha - 6.0) <= 1e-12
        and abs(p_min - 38.0) <= 1e-12
    )
    _report(1, ok, f"delta={delta:g} q={q:g} alpha={sched.alpha:.15g} P_min={p_min:.15g}")


# ---------------------------------------------------------------- criterion 2


def test_criterion_02_smoothing_and_convexity_inequalities():
    rng = np.random.default_rng(20260819)
    grid = GridSpec(dimension=1, nodes_per_axis=64, domain_length=2 * math.pi)
    violations = 0
    worst = -np.inf
    for _ in range(1000):
        f = random_field(grid, 1, rng, amplitude=1.0, decay=1.5)
        s = float(rng.uniform(-2, 4))
        sp = s + float(rng.uniform(0.1, 4))
        theta = float(rng.uniform(1.0, 30.0))
        # low-pass boost and high-pass decay, then log-convexity, constant 1
        lam = float(rng.uniform(0.0, 1.0))
        for lhs, rhs in (
            *invariants.smoothing_bound_check(f, s, sp, theta),
            interpolate_bound_check(f, s, sp, lam),
        ):
            rel = (lhs - rhs) / max(rhs, 1e-300)
            worst = max(worst, rel)
            if lhs > rhs * (1.0 + 1e-12):
                violations += 1
    _report(
        2,
        violations == 0,
        f"1000 trials x 3 inequalities, {violations} violations, "
        f"worst relative excess {worst:.2e}",
    )


# ---------------------------------------------------------------- criterion 3


def test_criterion_03_elliptic_energy_and_inverse_bound():
    grid = GridSpec(dimension=1, nodes_per_axis=64, domain_length=2 * math.pi)
    accepted, worst_gap, worst_ratio = invariants.elliptic_bounds(
        grid, np.random.default_rng(31337), 200, 2000
    )
    _report(
        3,
        worst_gap >= -1e-10 and worst_ratio <= 1 + 1e-8 and accepted == 200,
        f"{accepted} admissible draws: worst relative energy gap {worst_gap:.2e}, "
        f"worst h0-scaled inverse ratio {worst_ratio:.6f}",
    )


# ---------------------------------------------------------------- criterion 4


def _frechet_slope(grid, params, rng):
    d = grid.dimension
    u = GNState(
        V=random_field(grid, d, rng, amplitude=0.15 if d == 1 else 0.1, decay=3.0),
        zeta=random_field(grid, 1, rng, amplitude=0.15 if d == 1 else 0.1, decay=3.0),
    )
    w = GNState(
        V=random_field(grid, d, rng, amplitude=1.0, decay=3.0),
        zeta=random_field(grid, 1, rng, amplitude=1.0, decay=3.0),
    )
    upk = u.packed().coefficients
    uref = TrajectoryField(grid, np.array([0.0, 1.0]), np.stack([upk, upk]))
    coeffs = build_linearized_coeffs(params, uref, substituted=False)
    Dw = frechet_F(coeffs, params, 0, w).packed().coefficients
    F0 = nonlinear_F(params, u).packed().coefficients
    rems = []
    for eta in (1e-3, 1e-4):
        upert = GNState(
            V=SpectralField(grid, u.V.coefficients + eta * w.V.coefficients),
            zeta=SpectralField(grid, u.zeta.coefficients + eta * w.zeta.coefficients),
        )
        F1 = nonlinear_F(params, upert).packed().coefficients
        rems.append(sobolev_norm(SpectralField(grid, F1 - F0 - eta * Dw), 0.0) / eta)
    return (math.log(rems[0]) - math.log(rems[1])) / (math.log(1e-3) - math.log(1e-4))


def test_criterion_04_frechet_derivative_remainder_slope():
    rng = np.random.default_rng(42)
    g1 = GridSpec(dimension=1, nodes_per_axis=64, domain_length=2 * math.pi)
    p1 = PhysicalParams(mu=0.2, eps=0.4, b=random_field(g1, 1, rng, amplitude=0.05, decay=5.0))
    slope1 = _frechet_slope(g1, p1, rng)
    g2 = GridSpec(dimension=2, nodes_per_axis=16, domain_length=2 * math.pi)
    p2 = PhysicalParams(mu=0.3, eps=0.5, b=random_field(g2, 1, rng, amplitude=0.04, decay=4.0))
    slope2 = _frechet_slope(g2, p2, rng)
    ok = abs(slope1 - 1.0) <= 0.1 and abs(slope2 - 1.0) <= 0.1
    _report(4, ok, f"first-order remainder slope {slope1:.4f} (1D), {slope2:.4f} (2D)")


# ---------------------------------------------------------------- criterion 5


def test_criterion_05_free_evolution_group():
    rng = np.random.default_rng(515)
    worst = 0.0
    for dim in (1, 2):
        grid = GridSpec(dimension=dim, nodes_per_axis=16 if dim == 2 else 64,
                        domain_length=2 * math.pi)
        eps = 0.4
        for _ in range(50):
            u = random_field(grid, dim + 1, rng, amplitude=1.0, decay=2.0).coefficients
            t1, t2 = float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3))
            worst = max(worst, invariants.group_deviation(grid, eps, u, t1, t2, 0.0))
    _report(5, worst <= 1e-12, f"100 random triples, worst deviation {worst:.2e}")


# ---------------------------------------------------------------- criterion 6


def test_criterion_06_linearized_solver_self_convergence():
    rng = np.random.default_rng(42)
    grid = GridSpec(dimension=1, nodes_per_axis=32, domain_length=2 * math.pi)
    params = PhysicalParams(
        mu=0.3, eps=0.5, b=random_field(grid, 1, rng, amplitude=0.05, decay=5.0)
    )
    data = GNState(
        V=random_field(grid, 1, rng, amplitude=0.08, decay=4.0),
        zeta=random_field(grid, 1, rng, amplitude=0.08, decay=4.0),
    )
    T = 0.4
    coeffs = build_linearized_coeffs(params, mol_solve(params, data, T, 0.02))
    v0 = GNState(
        V=random_field(grid, 1, rng, amplitude=0.05, decay=4.0),
        zeta=random_field(grid, 1, rng, amplitude=0.05, decay=4.0),
    )
    base = random_field(grid, 2, rng, amplitude=0.05, decay=4.0).coefficients
    mod = random_field(grid, 2, rng, amplitude=0.05, decay=4.0).coefficients

    def f_fn(t):
        return base * math.cos(1.7 * t) + mod * math.sin(0.9 * t)

    def solve(dt):
        ivp = IVPData(initial=v0, horizon=T, dt=dt, forcing=f_fn)
        return solve_linearized(params, coeffs, ivp)

    r1, r2 = invariants.halving_ratios(solve, (0.02, 0.01, 0.005), 0.00125, (0.5, 1.0))
    ok = 12.0 <= r1 <= 20.0 and 12.0 <= r2 <= 20.0
    _report(6, ok, f"dt-halving error ratios {r1:.3f}, {r2:.3f} (want within [12, 20])")


# ----------------------------------------------------- criteria 7 and 8 share
# the flagship small-amplitude instance (`invariants.flagship_run`) at N=128.


@pytest.fixture(scope="module")
def flagship():
    return invariants.flagship_run(128, 5e-3)


def test_criterion_07_flagship_induction_and_convergence(flagship):
    trace = flagship.trace
    rep = check_induction(trace, flagship.schedule)
    iters = len(trace.theta) - 1
    ok = (
        trace.stop_reason == "converged"
        and trace.residual_F[-1] <= 1e-8
        and iters <= 25
        and all(rep["prop_i"])
        and all(rep["prop_ii"])
        and all(rep["prop_iii"])
        and flagship.elapsed <= 120.0
    )
    _report(
        7,
        ok,
        f"converged in {iters} corrections, residual {trace.residual_F[-1]:.2e}, "
        f"all induction properties hold at every iteration, "
        f"{flagship.elapsed:.1f}s (limit 120s)",
    )


def test_criterion_08_cross_solver_agreement_and_refinement(flagship):
    gap_base = _sup_diff_norm(flagship.params, flagship.u_nm, flagship.direct, 0.0)
    fine = invariants.flagship_run(256, 2.5e-3)
    gap_fine = _sup_diff_norm(fine.params, fine.u_nm, fine.direct, 0.0)

    ok = gap_base <= 1e-6 and gap_fine < gap_base
    _report(
        8,
        ok,
        f"sup-t X^0 gap {gap_base:.2e} (limit 1e-6), after one joint space-time "
        f"refinement {gap_fine:.2e} (must shrink)",
    )


# ---------------------------------------------------------------- criterion 9


def test_criterion_09_solitary_wave_reference():
    grid = GridSpec(dimension=1, nodes_per_axis=512, domain_length=40.0)
    params = PhysicalParams(mu=0.1, eps=math.sqrt(0.1), b=zero_field(grid))
    a = 0.2
    c = math.sqrt(1.0 + params.eps * a)

    # (a) the frozen ansatz annihilates the residual rows at N=512
    res = invariants.solitary_residual(params, a, np.linspace(0.0, 0.15, 4))

    # (b) one full transit around the box returns the crest to its start
    wave = serre_solitary_wave(params, a)
    period = 40.0 / (c / params.eps)
    prop = mol_solve(params, wave, T=period, dt=period / 2048)
    shape_err = sobolev_norm(
        SpectralField(grid, prop.snapshots[-1] - wave.packed().coefficients), 0.0
    )

    # (c) the mean elevation (total mass) is exactly conserved
    drift = invariants.mass_drift(prop)

    ok = res <= 1e-8 and shape_err <= 1e-4 and drift <= 1e-11
    _report(
        9,
        ok,
        f"ansatz residual {res:.2e} (limit 1e-8), one-transit shape error "
        f"{shape_err:.2e} (limit 1e-4), mass drift {drift:.2e} (limit 1e-11)",
    )


# --------------------------------------------------------------- criterion 10


def test_criterion_10_stability_slope(tmp_path):
    runner = CliRunner()
    out = tmp_path / "stab"
    res = runner.invoke(
        main, ["stability", "--config", "configs/stability.json", "--out", str(out)]
    )
    assert res.exit_code == 0, res.output
    rep = json.loads((out / "stability.json").read_text())
    slope = rep["slope"]
    _report(
        10,
        abs(slope - 1.0) <= 0.1,
        f"perturbation-response slope {slope:.6f} over iota in {{1e-2, 1e-3, 1e-4}} "
        f"(want 1.0 +/- 0.1)",
    )


# --------------------------------------------------------------- criterion 11


def test_criterion_11_dispersive_error_scaling(tmp_path):
    runner = CliRunner()
    exps = {}
    for name, target, tol in (
        ("scaling_eps_one", 2.0, 0.15),
        ("scaling_eps_sqrt_mu", 1.5, 0.15),
    ):
        out = tmp_path / name
        res = runner.invoke(
            main, ["scaling", "--config", f"configs/{name}.json", "--out", str(out)]
        )
        assert res.exit_code == 0, res.output
        exps[name] = (json.loads((out / "scaling.json").read_text())["exponent"], target, tol)
    ok = all(abs(e - t) <= tl for e, t, tl in exps.values())
    e1 = exps["scaling_eps_one"][0]
    e2 = exps["scaling_eps_sqrt_mu"][0]
    _report(
        11,
        ok,
        f"error-vs-mu exponent {e1:.4f} at eps=1 (want 2.0 +/- 0.15) and "
        f"{e2:.4f} at eps=sqrt(mu) (want 1.5 +/- 0.15)",
    )


# ------------------------------------------------------- property invariants


@settings(max_examples=40, deadline=None)
@given(
    m=st.sampled_from([0.0, 0.5, 1.0, 2.0]),
    d1=st.sampled_from([0.0, 1.0, 2.0, 3.0]),
    d1p=st.sampled_from([0.0, 0.5, 1.0]),
    extra=st.floats(min_value=0.5, max_value=3.0),
    headroom=st.floats(min_value=0.25, max_value=12.0),
)
def test_schedule_algebra_invariants(m, d1, d1p, extra, headroom):
    D = m + d1p + extra  # guarantees q = D - m - d1p = extra > 0
    if D <= max(d1, d1p + m):
        with pytest.raises(InfeasibleScheduleError):
            p_min_threshold(m, d1, d1p, D)
        return
    delta, q, p_min = p_min_threshold(m, d1, d1p, D)
    assert delta == max(d1, d1p + m)
    assert abs(q - extra) < 1e-12
    sched = compute_schedule(m, d1, d1p, D, P=p_min + headroom, margin=0.5)
    # alpha solves (alpha - delta)^2 = 2 delta (delta + q)
    assert abs((sched.alpha - sched.delta) ** 2 - 2 * delta * (delta + q)) <= 1e-9 * (
        1 + delta * (delta + q)
    )
    assert sched.r > 1.0
    # larger safety margin pushes the growth exponent toward its upper bound
    lo = compute_schedule(m, d1, d1p, D, P=p_min + headroom, margin=0.25)
    hi = compute_schedule(m, d1, d1p, D, P=p_min + headroom, margin=0.75)
    assert lo.r <= sched.r <= hi.r
    # at P = P_min the schedule would contract nothing: must refuse
    with pytest.raises(InfeasibleScheduleError):
        compute_schedule(m, d1, d1p, D, P=p_min)


@settings(max_examples=25, deadline=None)
@given(
    theta=st.floats(min_value=1.0, max_value=50.0),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_smoothing_projector_invariants(theta, seed):
    grid = GridSpec(dimension=1, nodes_per_axis=32, domain_length=2 * math.pi)
    f = random_field(grid, 1, np.random.default_rng(seed), amplitude=1.0, decay=1.0)
    low = smooth(f, theta)
    # idempotent, mean-preserving, and never norm-increasing at any index
    assert np.array_equal(smooth(low, theta).coefficients, low.coefficients)
    assert low.coefficients[0].flat[0] == f.coefficients[0].flat[0]
    for s in (-1.0, 0.0, 2.5):
        assert sobolev_norm(low, s) <= sobolev_norm(f, s) * (1 + 1e-12)
