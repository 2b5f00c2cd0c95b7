"""Schedule arithmetic and the smoothed-Newton engine on closed-form toys."""
import importlib.util
import math
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from nmshallow.errors import DivergenceError, DomainError, InfeasibleScheduleError
from nmshallow.fourier_scale import (
    GridSpec,
    SpectralField,
    TrajectoryField,
    random_field,
    sobolev_norm,
    time_derivative,
    trajectory_norm,
    zero_field,
)
from nmshallow.gn_problem import GNProblem
from nmshallow.green_naghdi import GNState, PhysicalParams
from nmshallow.nash_moser import (
    IterationTrace,
    ProblemInterface,
    _norm_Es,
    check_induction,
    compute_schedule,
    initial_iterate,
    nash_moser_solve,
    p_min_threshold,
    residual,
    smooth_trajectory,
)

# ----------------------------------------------------------------- schedule


def test_schedule_gn_exact_constants():
    sch = compute_schedule(m=2, d1=2, d1p=0, D=4, P=38.5, margin=0.5)
    assert sch.delta == 2.0
    assert sch.q == 2.0
    assert sch.alpha == 6.0
    assert sch.p_min == 38.0
    # r = (1/2) r_lo + (1/2) rbar with r_lo = 4/3 and rbar = 130/97
    assert abs(sch.r - 389 / 291) < 1e-15
    assert sch.s0 == 1.0 and sch.s == 3.0


def _load_oracle():
    path = Path(__file__).resolve().parents[1] / "scripts" / "oracle_schedule.py"
    spec = importlib.util.spec_from_file_location("oracle_schedule", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the oracle script's three sets: loss orders (m, d1, d1p, D) and P
ORACLE_SETS = [((2, 2, 0, 4), Fraction(77, 2)), ((0, 1, 0, 2), None), ((0, 0, 0, 2), 6)]


@pytest.mark.parametrize("orders, P", ORACLE_SETS, ids=["shallow-water", "second-order", "degenerate"])
def test_schedule_matches_the_exact_arithmetic_oracle(orders, P):
    # the frozen constants of this file came from scripts/oracle_schedule.py;
    # this keeps the script and the float implementation in step
    ref = _load_oracle().schedule(*orders, P=P)
    delta, q, p_min = p_min_threshold(*map(float, orders))
    # alpha does not depend on P; a set without P takes any feasible one
    sched = compute_schedule(*map(float, orders), P=float(P) if P is not None else p_min + 1.0)
    got = {"delta": delta, "q": q, "alpha": sched.alpha, "p_min": p_min}
    if "r" in ref:
        got["r"] = sched.r
    assert sched.p_min == p_min
    for key, value in got.items():
        want = ref[key]
        if isinstance(want, Fraction) and Fraction(float(want)) == want:
            assert Fraction(value) == want, key  # a float holds it exactly
        else:
            # an irrational value, or a rational no float holds (r = 389/291
            # comes out one ulp above its rounding)
            assert value == pytest.approx(float(want), rel=1e-15, abs=0.0), key


def test_schedule_threshold_with_irrational_root():
    d, q, p_min = p_min_threshold(0, 1, 0, 2)
    assert (d, q) == (1.0, 2.0)
    assert abs(p_min - (8 + 2 * math.sqrt(6))) < 1e-12


def test_schedule_degenerate_no_derivative_loss():
    sch = compute_schedule(m=0, d1=0, d1p=0, D=2, P=6.0)
    assert sch.degenerate_alpha
    assert sch.alpha == 0.0 and sch.delta == 0.0
    assert abs(sch.r - 7 / 6) < 1e-15  # r_lo = 1, rbar = 4/3, margin 1/2


def test_schedule_infeasible():
    with pytest.raises(InfeasibleScheduleError) as exc:
        compute_schedule(2, 2, 0, 4, 38.0)  # P must exceed the threshold
    assert "38" in str(exc.value)
    with pytest.raises(InfeasibleScheduleError):
        compute_schedule(2, 2, 0, 2, 50.0)  # q = D - m - d1p = 0


def test_schedule_parameter_validation():
    for margin in (0.0, 1.0, -0.2):
        with pytest.raises(InfeasibleScheduleError):
            compute_schedule(2, 2, 0, 4, 38.5, margin=margin)
    with pytest.raises(InfeasibleScheduleError):
        compute_schedule(2, 2, 0, 4, 38.5, theta0=1.0)


# -------------------------------------------------------------- toy problem
#
# du/dt + c du/dx = h on the circle: the tendency loses one derivative
# (m = 1) and the per-mode linearized flow is available in closed form, so
# the engine's bookkeeping can be audited against hand numbers.


class AdvectionProblem(ProblemInterface):
    def __init__(self, grid, c, g_coeffs):
        self.grid = grid
        self.c = c
        self._g = np.asarray(g_coeffs, dtype=np.complex128)
        self.ikx = 1j * np.broadcast_to(grid.wavenumbers()[0], grid.shape)

    def evaluate_G(self, t, u):
        return SpectralField(self.grid, self.c * self.ikx * u.coefficients)

    def linearize(self, uref):
        return None

    def solve_linearized(self, coeffs, forcing, initial, T, dt):
        # exact exponential-trapezoid rule per Fourier mode: integrates
        # piecewise-linear-in-time forcing with no quadrature error
        n = max(1, int(round(T / dt)))
        h = T / n
        z = -h * self.c * self.ikx[None]
        ez = np.exp(z)
        zs = np.where(z == 0, 1.0, z)
        small = np.abs(z) < 1e-4
        p1 = np.where(small, 1.0 + z / 2.0 + z * z / 6.0, (ez - 1.0) / zs)
        p2 = np.where(small, 0.5 + z / 6.0 + z * z / 24.0, (ez - 1.0 - z) / (zs * zs))
        out = np.empty((n + 1, *initial.coefficients.shape), dtype=np.complex128)
        out[0] = initial.coefficients
        f = forcing.snapshots if forcing is not None else np.zeros_like(out)
        for i in range(n):
            out[i + 1] = ez * out[i] + h * (p1 * f[i] + p2 * (f[i + 1] - f[i]))
        return TrajectoryField(self.grid, np.linspace(0.0, T, n + 1), out)

    def forcing(self, times):
        return None

    def initial_data(self):
        return SpectralField(self.grid, self._g)


class AdvectionForced(AdvectionProblem):
    """Forcing chosen so that u*(t) = g + t a + t^2 b solves the problem
    exactly, even through the second-order discrete time derivative."""

    def __init__(self, grid, c, g_coeffs, a, b):
        super().__init__(grid, c, g_coeffs)
        self.a = np.asarray(a, dtype=np.complex128)
        self.b = np.asarray(b, dtype=np.complex128)

    def forcing(self, times):
        snaps = np.stack(
            [
                self.a
                + 2.0 * t * self.b
                + self.c * self.ikx * (self._g + t * self.a + t * t * self.b)
                for t in times
            ]
        )
        return TrajectoryField(self.grid, np.asarray(times, float), snaps)


def _mode(grid, k, amp):
    c = np.zeros((1, grid.nodes_per_axis), dtype=np.complex128)
    c[0, k] = amp / 2
    c[0, -k] = amp / 2
    return c


@pytest.fixture(scope="module")
def toy_grid():
    return GridSpec(dimension=1, nodes_per_axis=64, domain_length=2 * math.pi)


@pytest.fixture(scope="module")
def toy_schedule():
    return compute_schedule(m=1, d1=1, d1p=0, D=3, P=20, margin=0.5, theta0=4.0)


def test_initial_iterate_starts_at_datum(toy_grid):
    gc = _mode(toy_grid, 12, 0.1)
    prob = AdvectionProblem(toy_grid, c=0.7, g_coeffs=gc)
    u0 = initial_iterate(prob, 1.0, 0.01)
    assert u0.n_times == 101
    assert np.array_equal(u0.snapshots[0], gc)
    # seed = g + integral of (h - G[g]); the integrand is constant here so
    # the trapezoid accumulation is exact: u0(t) = (1 - t c ik) g per mode
    assert u0.snapshots[-1][0, 12] == pytest.approx(0.05 * (1 - 8.4j), rel=1e-12)
    assert u0.snapshots[-1][0, -12] == pytest.approx(0.05 * (1 + 8.4j), rel=1e-12)


def test_residual_of_constant_iterate_frozen(toy_grid, toy_schedule):
    gc = _mode(toy_grid, 12, 0.1)
    prob = AdvectionProblem(toy_grid, c=0.7, g_coeffs=gc)
    u0 = initial_iterate(prob, 1.0, 0.01)
    _, phi2, norm = residual(prob, u0, toy_schedule.s, m=toy_schedule.m)
    # single mode k=12, amplitude 0.1: |phi1|_{X^3 T} = 0.7 * 12 * <12>^3 * |g|_{L^2-ish}
    assert norm == pytest.approx(1813.4329839384495, rel=1e-13)
    assert not np.any(phi2.coefficients)


def test_norm_Es_adds_the_time_derivative_norm(grid1d, rng):
    # |u|_{E^s} = sup_t |u(t)|_s + sup_t |du/dt(t)|_{s-m}, here in the
    # default (plain Sobolev) snapshot norm
    a = random_field(grid1d, 1, rng).coefficients
    times = np.linspace(0.0, 1.0, 9)
    traj = TrajectoryField(grid1d, times, np.stack([(1.0 + t) * a for t in times]))
    prob = AdvectionProblem(grid1d, c=0.7, g_coeffs=a)
    base = sobolev_norm(SpectralField(grid1d, a), 1.0)
    # d/dt of the trajectory is the constant field a
    es = _norm_Es(prob, traj, 1.0, 1.0)
    assert math.isclose(es, 2.0 * base + sobolev_norm(SpectralField(grid1d, a), 0.0),
                        rel_tol=1e-10)
    assert _norm_Es(prob, traj, 1.0, 1.0, time_derivative(traj)) == es


def test_engine_trace_and_first_step_bound(toy_grid, toy_schedule):
    sch = toy_schedule
    gc = _mode(toy_grid, 12, 0.1)
    prob = AdvectionProblem(toy_grid, c=0.7, g_coeffs=gc)
    u0 = initial_iterate(prob, 1.0, 0.01)
    phi1, _, norm0 = residual(prob, u0, sch.s, m=sch.m)

    _, trace = nash_moser_solve(prob, sch, 1.0, 0.01, k_max=8, target_residual=1e-10)
    assert trace.stop_reason == "k_max"
    assert len(trace) == 9
    assert trace.residual_F[0] == pytest.approx(norm0, rel=1e-13)

    # one corrective step must beat the tame first-step estimate
    bound = sch.theta0 ** (sch.m + sch.d1p - sch.D) * trajectory_norm(
        phi1, sch.s + sch.D - sch.m
    )
    assert bound == pytest.approx(1.643424e4, rel=1e-5)
    assert trace.residual_F[1] <= bound

    # theta schedule invariant: theta_k = theta0 ** (r ** k)
    for k in range(len(trace)):
        expect = sch.theta0 ** (sch.r**k)
        assert abs(trace.theta[k] - expect) <= 1e-12 * expect

    # this deliberately over-sized datum violates (i) and (iii) from the
    # start; the audit must say so rather than paper over it
    rep = check_induction(trace, sch)
    assert rep["first_failure"] == {"prop_i": 0, "prop_ii": None, "prop_iii": 0}


def test_engine_zero_residual_short_circuit(toy_grid, toy_schedule):
    gc = _mode(toy_grid, 12, 0.1)
    prob = AdvectionProblem(toy_grid, c=0.0, g_coeffs=gc)
    _, trace = nash_moser_solve(prob, toy_schedule, 1.0, 0.01, k_max=8, target_residual=1e-10)
    assert trace.stop_reason == "converged"
    assert len(trace) == 1
    assert math.isnan(trace.norm_v_EsD[0])
    rep = check_induction(trace, toy_schedule)
    assert rep["prop_iii"] == [True]


def _forced_toy(grid, cls=AdvectionForced):
    g = _mode(grid, 2, 0.3) + _mode(grid, 3, 0.2)
    a = _mode(grid, 1, 0.1) + _mode(grid, 4, 0.05)
    b = _mode(grid, 2, 0.07)
    return cls(grid, c=0.7, g_coeffs=g, a=a, b=b)


class ForcingDropsLastTime(AdvectionForced):
    """`AdvectionForced` whose forcing leaves out the last time asked for."""

    def forcing(self, times):
        return super().forcing(times[:-1])


def test_residual_refuses_a_forcing_on_another_time_grid(toy_grid, toy_schedule):
    # a forcing sampled on other times is the caller's fault, not a
    # water-depth violation (DomainError): ValueError naming both counts
    prob = _forced_toy(toy_grid, ForcingDropsLastTime)
    times = np.linspace(0.0, 1.0, 11)
    u = TrajectoryField(toy_grid, times, np.stack([prob._g] * times.size))
    with pytest.raises(ValueError, match=r"forcing has 10 snapshots and the trajectory 11"):
        residual(prob, u, toy_schedule.s, m=toy_schedule.m)


def _unsmoothed(schedule):
    """The same schedule at theta0 = inf, where S_theta keeps every mode."""
    return compute_schedule(
        schedule.m, schedule.d1, schedule.d1p, schedule.D, schedule.P,
        margin=schedule.margin, s0=schedule.s0, theta0=math.inf,
    )


def test_engine_matches_unsmoothed_baseline_and_exact_solution(toy_grid, toy_schedule):
    prob = _forced_toy(toy_grid)
    T, dt = 1.0, 0.01

    u_nm, trace = nash_moser_solve(prob, toy_schedule, T, dt, k_max=20, target_residual=1e-11)
    assert trace.residual_F[0] == pytest.approx(7.325, rel=1e-3)
    assert min(trace.residual_F) <= 3e-6

    u_p, _ = nash_moser_solve(
        prob, _unsmoothed(toy_schedule), T, dt, k_max=20, target_residual=1e-11, max_retries=0
    )
    assert float(np.max(np.abs(u_p.snapshots - u_nm.snapshots))) <= 1e-12

    times = np.linspace(0.0, T, int(T / dt) + 1)
    exact = np.stack([prob._g + t * prob.a + t * t * prob.b for t in times])
    assert float(np.max(np.abs(u_nm.snapshots - exact))) <= 1e-8


def _picard_reference(problem, T, dt, k_max, target_residual, s_index, m):
    """The unsmoothed fixed-point loop u_{k+1} = u_k + v_k as a separate
    function, kept as the differential reference of the engine at
    theta0 = inf; returns the last iterate and the residual history."""
    sigma = s_index
    u = initial_iterate(problem, T, dt)
    g = problem.initial_data()
    history = []
    for k in range(k_max + 1):
        phi1, phi2, res = residual(problem, u, sigma, m)
        history.append(res)
        if not math.isfinite(res) or (
            len(history) >= 4
            and all(
                history[-j] > 10.0 * history[-j - 1] and math.isfinite(history[-j - 1])
                for j in (1, 2, 3)
            )
        ):
            raise DivergenceError(
                f"unsmoothed iteration diverged at k={k} (residual {res:.3e})",
                trace=history,
            )
        if res <= target_residual or k == k_max:
            return u, history
        coeffs = problem.linearize(u)
        v = problem.solve_linearized(
            coeffs,
            -1.0 * phi1,
            SpectralField(u.grid, g.coefficients - u.snapshots[0]),
            T,
            dt,
        )
        u = TrajectoryField(u.grid, u.times.copy(), u.snapshots + v.snapshots)
        ok, why = problem.admissible(u)
        if not ok:
            raise DomainError(f"unsmoothed iterate k={k + 1} left the admissible set: {why}")
    raise AssertionError("unreachable")


def _gn_wide_band():
    # N = 64 with the 2/3 rule keeps |k| <= 21, so the default theta0 = 10
    # would cut modes 10-21 of every correction
    grid = GridSpec(dimension=1, nodes_per_axis=64, domain_length=2 * math.pi)
    assert grid.dealias_cutoff_index == 21
    rng = np.random.default_rng(3)
    data = GNState(
        V=random_field(grid, 1, rng, amplitude=1e-3, decay=1.0),
        zeta=random_field(grid, 1, rng, amplitude=1e-3, decay=1.0),
    )
    params = PhysicalParams(mu=0.1, eps=math.sqrt(0.1), b=zero_field(grid))
    return GNProblem(params, data)


@pytest.mark.parametrize("case", ["toy", "gn-wide-band"])
def test_engine_at_infinite_theta0_is_the_unsmoothed_loop(case, toy_grid, toy_schedule):
    if case == "toy":
        prob, schedule, T, dt, k_max = _forced_toy(toy_grid), toy_schedule, 1.0, 0.01, 20
    else:
        schedule = compute_schedule(m=2, d1=2, d1p=0, D=4, P=38.5)
        prob, T, dt, k_max = _gn_wide_band(), 0.1, 0.005, 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u_nm, trace = nash_moser_solve(
            prob, _unsmoothed(schedule), T, dt, k_max=k_max, target_residual=1e-12,
            max_retries=0,
        )
        u_p, history = _picard_reference(
            prob, T, dt, k_max, 1e-12, s_index=schedule.s + schedule.d1p, m=schedule.m
        )
    assert np.array_equal(u_nm.snapshots, u_p.snapshots)
    assert trace.residual_F == history
    assert trace.stop_reason == "k_max" and len(trace) == k_max + 1
    assert trace.theta == [math.inf] * len(trace)


def test_time_derivative_once_per_iterate(toy_grid, toy_schedule, monkeypatch):
    # the residual and both Es norms of an iterate share one du/dt; the only
    # other derivative is the correction's, for its Es norm
    from nmshallow import fourier_scale, nash_moser

    calls = []

    def counted(u, _derivative=fourier_scale.time_derivative):
        calls.append(u.n_times)
        return _derivative(u)

    monkeypatch.setattr(fourier_scale, "time_derivative", counted)
    monkeypatch.setattr(nash_moser, "time_derivative", counted)
    prob = AdvectionProblem(toy_grid, c=0.7, g_coeffs=_mode(toy_grid, 12, 0.1))
    _, trace = nash_moser_solve(prob, toy_schedule, 0.2, 0.01, k_max=3, target_residual=0.0)
    assert trace.stop_reason == "k_max" and len(trace) == 4
    assert len(calls) == len(trace) + (len(trace) - 1)


def test_inadmissible_iterate_raises_with_its_trace(toy_grid, toy_schedule):
    from nmshallow.errors import DomainError

    class Fenced(AdvectionProblem):
        """Admits the initial iterate and nothing after it."""

        checks = 0

        def admissible(self, u):
            self.checks += 1
            return (True, "") if self.checks == 1 else (False, "forced")

    prob = Fenced(toy_grid, c=0.7, g_coeffs=_mode(toy_grid, 12, 0.1))
    with pytest.raises(DomainError, match="iterate k=1 left the admissible set: forced") as exc:
        nash_moser_solve(prob, toy_schedule, 0.2, 0.01, k_max=3, target_residual=0.0)
    trace = exc.value.trace
    assert trace.stop_reason == "inadmissible"
    assert len(trace) == 1 and not math.isnan(trace.norm_v_EsD[0])


@pytest.mark.parametrize("target", [math.nan, -1e-8])
def test_nan_or_negative_target_residual_is_refused_before_any_work(toy_schedule, target):
    # a NaN target never stopped the iteration: the run went on to k_max
    # (a target of 0 runs to k_max on purpose)
    class Untouchable:
        def __getattr__(self, name):
            raise AssertionError(f"problem.{name} read before the target was checked")

    with pytest.raises(ValueError, match="target_residual must be >= 0"):
        nash_moser_solve(Untouchable(), toy_schedule, 1.0, 0.01, target_residual=target)


def test_smooth_trajectory_is_snapshotwise_cutoff(toy_grid, rng):
    from nmshallow.fourier_scale import random_field, smooth

    snaps = np.stack(
        [random_field(toy_grid, 1, rng, amplitude=0.4, decay=1.5).coefficients for _ in range(3)]
    )
    traj = TrajectoryField(toy_grid, np.array([0.0, 0.5, 1.0]), snaps)
    out = smooth_trajectory(traj, 5.0)
    for i in range(3):
        ref = smooth(SpectralField(toy_grid, snaps[i]), 5.0)
        assert np.array_equal(out.snapshots[i], ref.coefficients)
    for theta in (0.5, math.nan):
        with pytest.raises(ValueError):
            smooth_trajectory(traj, theta)


def test_smooth_trajectory_at_a_saturated_theta_keeps_every_mode(toy_grid, rng):
    # theta_k = theta0^(r^k) overflows theta^2 long before theta itself; the
    # mask is then all modes, without an overflow warning
    snaps = np.stack(
        [random_field(toy_grid, 1, rng, amplitude=0.4, decay=1.5).coefficients for _ in range(2)]
    )
    traj = TrajectoryField(toy_grid, np.array([0.0, 1.0]), snaps)
    for theta in (np.float64(1e200), math.inf):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = smooth_trajectory(traj, theta)
        assert np.array_equal(out.snapshots, snaps)


# ------------------------------------------------------------ trace objects


def test_trace_csv_round_trip(tmp_path):
    tr = IterationTrace()
    tr.append_row(10.0, 1.5, 200.0, 0.25, True, True)
    tr.set_correction(0.01, True)
    tr.append_row(21.7, 1.6, 380.0, 0.03, True, True)
    tr.M_used = 2.0
    tr.stop_reason = "k_max"
    p = tr.to_csv(tmp_path / "trace.csv", header_comment="demo run")
    lines = p.read_text().splitlines()
    assert lines[0] == "# demo run"
    assert lines[1].startswith("k,theta_k,")
    assert len(lines) == 4
    row0 = lines[2].split(",")
    assert float(row0[1]) == 10.0 and float(row0[5]) == 0.25


def test_check_induction_planted_violation():
    sch = compute_schedule(2, 2, 0, 4, 38.5, theta0=10.0)
    tr = IterationTrace()
    tr.M_used = 2.0
    # k=0: all fine (theta=10, alpha=6 -> bound 1e6)
    tr.append_row(10.0, 1.0, 5.0e5, 1.0, True, True)
    tr.set_correction(1e-3, True)  # bound theta^-q = 1e-2
    # k=1: plant norm_u_EsD above M and a correction above theta^-q
    th1 = 10.0 ** sch.r
    tr.append_row(th1, 3.0, 1.0e6, 0.5, True, False)
    tr.set_correction(1.0, False)
    rep = check_induction(tr, sch)
    assert rep["prop_i"] == [True, True]
    assert rep["first_failure"]["prop_ii"] == 1
    assert rep["first_failure"]["prop_iii"] == 1
