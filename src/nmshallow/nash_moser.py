"""Generic smoothed-Newton (Nash-Moser) iteration over the Fourier scale.

The engine is problem-agnostic: a `ProblemInterface` supplies the filtered
tendency G[t, u], a linearized solver, forcing and initial data, an
admissibility predicate, and the snapshot norm of the underlying scale.
The engine owns the schedule algebra (exponent selection), the initial
iterate, residual evaluation, the smoothed update loop

    u_{k+1} = u_k + S_{theta_k} v_k,      theta_{k+1} = theta_k^r,

where v_k solves the linearized problem with forcing -Phi_1(u_k) and
initial value u0 - u_k(0), and the per-iteration bookkeeping: the three
induction properties

    (i)_k   |u_k|_{E^{s+P}} <= theta_k^alpha,
    (ii)_k  |u_k|_{E^{s+D}} <= M,
    (iii)_k |v_k|_{E^{s+D}} <= theta_k^{-q},

and the residual trace.

The unsmoothed fixed-point (Picard) iteration u_{k+1} = u_k + v_k is the
same loop at theta0 = inf, where S_theta keeps every mode: run it as
`nash_moser_solve(problem, compute_schedule(..., theta0=math.inf), T, dt,
max_retries=0)`, since a retry doubles theta0 and 2 * inf = inf repeats
the same run.
"""
from __future__ import annotations

import csv
import math
from abc import ABC, abstractmethod
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import DivergenceError, DomainError, InfeasibleScheduleError
from .fourier_scale import (
    GridSpec,
    SpectralField,
    TrajectoryField,
    _chunks,
    _cutoff_mask,
    _member_norms,
    _uniform_steps,
    time_derivative,
    trajectory_norm,
)

__all__ = [
    "ScheduleParams",
    "IterationTrace",
    "ProblemInterface",
    "compute_schedule",
    "initial_iterate",
    "residual",
    "nash_moser_solve",
    "check_induction",
    "smooth_trajectory",
]


# ------------------------------------------------------------------ schedule


@dataclass
class ScheduleParams:
    """Exponent schedule driving the smoothed iteration.

    delta/q/alpha/r are derived from the loss orders (m, d1, d1p) and the
    two working regularity offsets D < P by `compute_schedule`; p_min is the
    feasibility threshold for P. M (the uniform bound checked by property
    (ii)) is measured from the initial iterate at run time when left None.
    degenerate_alpha marks the boundary case delta = 0, where alpha = 0 and
    the r-interval lower endpoint collapses to 1.
    """

    m: float
    d1: float
    d1p: float
    D: float
    P: float
    s0: float
    s: float
    delta: float
    q: float
    alpha: float
    r: float
    theta0: float = 10.0
    M: float | None = None
    p_min: float = float("nan")
    margin: float = 0.5
    degenerate_alpha: bool = False

    def to_dict(self) -> dict:
        return asdict(self)


def p_min_threshold(m: float, d1: float, d1p: float, D: float) -> tuple[float, float, float]:
    """Return (delta, q, P_min) for the given loss orders.

    P_min = delta + (D/q) * (3*delta + 2*q + 2*sqrt(2*delta*(delta+q))),
    the expanded square of delta + (D/q)*(sqrt(delta) + sqrt(2(delta+q)))^2;
    the expanded form keeps perfect-square radicands exact in floating
    point (the reference shallow-water set gives exactly 38). A loss order
    that is not finite raises InfeasibleScheduleError naming it.
    """
    for name, value in (("m", m), ("d1", d1), ("d1p", d1p), ("D", D)):
        if not math.isfinite(value):
            raise InfeasibleScheduleError(f"{name} must be finite, got {value:g}")
    delta = max(d1, d1p + m)
    q = D - m - d1p
    if q <= 0.0:
        raise InfeasibleScheduleError(
            f"need D > m + d1p for a positive gain exponent; got q = {q:g}"
        )
    if D <= delta:
        raise InfeasibleScheduleError(f"need D > delta = {delta:g}; got D = {D:g}")
    p_min = delta + (D / q) * (3.0 * delta + 2.0 * q + 2.0 * math.sqrt(2.0 * delta * (delta + q)))
    return delta, q, p_min


def compute_schedule(
    m: float,
    d1: float,
    d1p: float,
    D: float,
    P: float,
    margin: float = 0.5,
    s0: float = 1.0,
    theta0: float = 10.0,
) -> ScheduleParams:
    """Derive the full exponent schedule from the loss orders.

    delta = max{d1, d1p + m}; q = D - m - d1p; alpha = delta +
    sqrt(2 delta (delta+q)). Feasibility requires P > P_min strictly;
    P = P_min is rejected (the contraction-rate interval for r is empty at
    the threshold). r is placed inside its open interval

        1 + delta/alpha  <  r  <  rbar = 2 mu q / (q + alpha (1 - mu)),

    mu = 1 - D/(P - delta), by convex combination with weight `margin`
    (0 = at the lower endpoint, 1 = at rbar; both endpoints excluded, so
    margin must lie strictly inside (0, 1)). The working index is
    s = s0 + m; M is left None, to be measured at run time.
    """
    if not (0.0 < margin < 1.0):
        raise InfeasibleScheduleError(f"margin must lie in (0, 1), got {margin:g}")
    if not theta0 > 1.0:  # NaN fails too; inf is the unsmoothed iteration
        raise InfeasibleScheduleError(f"theta0 must exceed 1, got {theta0:g}")
    if not math.isfinite(s0):
        raise InfeasibleScheduleError(f"s0 must be finite, got {s0:g}")
    delta, q, p_min = p_min_threshold(m, d1, d1p, D)
    if not (P > p_min):
        raise InfeasibleScheduleError(
            f"P = {P:g} is infeasible: the schedule requires P > P_min = {p_min:.12g} "
            f"(delta = {delta:g}, q = {q:g})"
        )
    alpha = delta + math.sqrt(2.0 * delta * (delta + q))
    mu_hat = 1.0 - D / (P - delta)
    rbar = 2.0 * mu_hat * q / (q + alpha * (1.0 - mu_hat))
    degenerate = delta == 0.0
    r_lo = 1.0 if degenerate else 1.0 + delta / alpha
    assert r_lo < rbar, (
        f"empty contraction-rate interval ({r_lo}, {rbar}) despite P > P_min; "
        "schedule algebra violated"
    )
    r = (1.0 - margin) * r_lo + margin * rbar
    return ScheduleParams(
        m=m,
        d1=d1,
        d1p=d1p,
        D=D,
        P=P,
        s0=s0,
        s=s0 + m,
        delta=delta,
        q=q,
        alpha=alpha,
        r=r,
        theta0=theta0,
        p_min=p_min,
        margin=margin,
        degenerate_alpha=degenerate,
    )


# --------------------------------------------------------------------- trace


_CSV_COLUMNS = (
    "k",
    "theta_k",
    "norm_u_EsD",
    "norm_u_EsP",
    "norm_v_EsD",
    "residual_F",
    "prop_i",
    "prop_ii",
    "prop_iii",
)


@dataclass
class IterationTrace:
    """Per-iteration record of the smoothed Newton loop.

    The CSV export carries exactly the nine audit columns; the bound M that
    `check_induction` reads and the stop reason are kept beside them.
    norm_v_EsD is NaN on a row where no correction was computed (converged
    or aborted before the linear solve); property (iii) is vacuously true
    there.
    """

    theta: list[float] = field(default_factory=list)
    norm_u_EsD: list[float] = field(default_factory=list)
    norm_u_EsP: list[float] = field(default_factory=list)
    norm_v_EsD: list[float] = field(default_factory=list)
    residual_F: list[float] = field(default_factory=list)
    prop_i: list[bool] = field(default_factory=list)
    prop_ii: list[bool] = field(default_factory=list)
    prop_iii: list[bool] = field(default_factory=list)
    M_used: float | None = None
    stop_reason: str | None = None

    def __len__(self) -> int:
        return len(self.theta)

    def append_row(
        self,
        theta: float,
        norm_u_EsD: float,
        norm_u_EsP: float,
        residual_F: float,
        prop_i: bool,
        prop_ii: bool,
    ) -> None:
        self.theta.append(theta)
        self.norm_u_EsD.append(norm_u_EsD)
        self.norm_u_EsP.append(norm_u_EsP)
        self.residual_F.append(residual_F)
        self.prop_i.append(prop_i)
        self.prop_ii.append(prop_ii)
        self.norm_v_EsD.append(float("nan"))
        self.prop_iii.append(True)

    def set_correction(self, norm_v_EsD: float, prop_iii: bool) -> None:
        self.norm_v_EsD[-1] = norm_v_EsD
        self.prop_iii[-1] = prop_iii

    def rows(self) -> list[tuple]:
        return [
            (
                k,
                self.theta[k],
                self.norm_u_EsD[k],
                self.norm_u_EsP[k],
                self.norm_v_EsD[k],
                self.residual_F[k],
                int(self.prop_i[k]),
                int(self.prop_ii[k]),
                int(self.prop_iii[k]),
            )
            for k in range(len(self))
        ]

    def to_csv(self, path: str | Path, header_comment: str | None = None) -> Path:
        p = Path(path)
        with p.open("w", newline="") as fh:
            if header_comment:
                for line in header_comment.splitlines():
                    fh.write(f"# {line}\n")
            writer = csv.writer(fh)
            writer.writerow(_CSV_COLUMNS)
            writer.writerows(self.rows())
        return p


# ----------------------------------------------------------------- interface


class ProblemInterface(ABC):
    """Capabilities the engine needs from a concrete evolution problem.

    States are packed spectral fields, trajectories are uniform-in-time
    stacks of them; both live in the problem's own working variables (for
    the shallow-water adapter these are the filtered variables, conjugated
    by the free wave group).

    Batch contract: `evaluate_G` and `snapshot_norm` take one snapshot or a
    batch of them. A batch is a (B,) array of times with a batched field
    (components, B, *shape), and gives a batched field, or the (B,) array
    of norms. The engine hands them the snapshots of a trajectory in chunks
    of at most `fourier_scale._CHUNK` (one call per chunk), and a member's
    result must be that of its own single call.

    `forcing`, `admissible` and `snapshot_norm` have defaults: no forcing,
    everything admissible, and the plain Sobolev norm.
    """

    grid: GridSpec

    @abstractmethod
    def evaluate_G(self, t: float | np.ndarray, u: SpectralField) -> SpectralField:
        """Filtered tendency G[t, u] so the equation reads du/dt + G = h;
        batched as described in the class docstring."""

    @abstractmethod
    def linearize(self, uref: TrajectoryField) -> object:
        """Frozen coefficients of (an approximation of) the derivative of G
        along the reference trajectory; passed back to solve_linearized."""

    @abstractmethod
    def solve_linearized(
        self,
        coeffs: object,
        forcing: TrajectoryField | None,
        initial: SpectralField,
        T: float,
        dt: float,
    ) -> TrajectoryField:
        """Solve dv/dt + G_u[t] v = forcing, v(0) = initial, on [0, T]."""

    def forcing(self, times: np.ndarray) -> TrajectoryField | None:
        """The filtered right-hand side sampled on `times`; None means 0.
        Default: no forcing."""
        return None

    @abstractmethod
    def initial_data(self) -> SpectralField:
        """The Cauchy datum the solution must attain at t = 0."""

    def admissible(self, u: TrajectoryField) -> tuple[bool, str]:
        """Domain restriction; default: everything admissible."""
        return True, ""

    def snapshot_norm(self, u: SpectralField, s: float) -> float | np.ndarray:
        """Scale norm of one snapshot, or the (B,) norms of a batch; defaults
        to the plain Sobolev norm, with the bits of `sobolev_norm` per member."""
        norms = _member_norms(u, s)
        return np.array(norms) if u.batch is not None else norms[0]


# ----------------------------------------------------- iterate and residual


def _tendency_trajectory(
    problem: ProblemInterface, times: np.ndarray, snaps: np.ndarray
) -> np.ndarray:
    """G[t_i, u_i] for every snapshot u_i = snaps[i], one call per chunk."""
    out = np.empty(snaps.shape, dtype=np.complex128)
    for part in _chunks(times.size):
        batch = SpectralField(problem.grid, snaps[part].swapaxes(0, 1))
        G = problem.evaluate_G(times[part], batch)
        out[part] = G.coefficients.swapaxes(0, 1)
    return out


def initial_iterate(problem: ProblemInterface, T: float, dt: float) -> TrajectoryField:
    """First iterate: the datum plus the time integral of the initial defect.

    u0(t) = g + int_0^t [h(t') - G(t', g)] dt', computed by the composite
    trapezoid rule on the storage grid, so u0(0) = g bit-for-bit and the
    residual's time derivative cancels the tendency at t = 0 up to
    quadrature error. Raises ValueError for a horizon of fewer than 2 steps
    (3 snapshots), which the residual's time derivative needs.
    """
    n_steps = _uniform_steps(T, dt)
    if n_steps < 2:
        raise ValueError(
            f"need at least 2 time steps (3 snapshots) on the horizon, got {n_steps + 1} "
            f"snapshots for T={T!r}, dt={dt!r}"
        )
    times = np.linspace(0.0, T, n_steps + 1)
    g = problem.initial_data()
    h = problem.forcing(times)

    datum = np.broadcast_to(g.coefficients, (times.size, *g.coefficients.shape))
    integrand = _tendency_trajectory(problem, times, datum)
    np.negative(integrand, out=integrand)
    if h is not None:
        integrand += h.snapshots

    snaps = np.empty_like(integrand)
    snaps[0] = g.coefficients
    dt_out = T / n_steps
    acc = np.zeros_like(g.coefficients)
    for i in range(n_steps):
        acc = acc + 0.5 * dt_out * (integrand[i] + integrand[i + 1])
        snaps[i + 1] = g.coefficients + acc
    u0 = TrajectoryField(problem.grid, times, snaps)
    ok, why = problem.admissible(u0)
    if not ok:
        raise DomainError(f"initial iterate is inadmissible: {why}")
    return u0


def residual(
    problem: ProblemInterface,
    u: TrajectoryField,
    sigma: float,
    m: float = 0.0,
    dudt: TrajectoryField | None = None,
) -> tuple[TrajectoryField, SpectralField, float]:
    """Defect of a trajectory: (phi1, phi2, norm).

    phi1(t) = du/dt + G[t, u] - h with the second-order discrete time
    derivative, phi2 = u(0) - g. The norm is the pair norm at index sigma,
    sup_t |phi1(t)|_{sigma} + |phi2|_{sigma + m}, where m is the problem's
    loss order (the datum part sits m higher on the scale). `dudt` is
    `time_derivative(u)` when the caller already holds it. A problem whose
    forcing comes back on another number of snapshots raises ValueError.
    """
    h = problem.forcing(u.times)
    if h is not None and h.n_times != u.n_times:
        raise ValueError(
            f"the problem's forcing has {h.n_times} snapshots and the trajectory "
            f"{u.n_times}: the forcing must be sampled on the trajectory's times"
        )
    # the tendency first, so that its chunk temporaries do not coexist with
    # a du/dt formed here; the sum is accumulated in place
    phi1_snaps = _tendency_trajectory(problem, u.times, u.snapshots)
    phi1_snaps += (time_derivative(u) if dudt is None else dudt).snapshots
    if h is not None:
        phi1_snaps -= h.snapshots
    phi1 = TrajectoryField(u.grid, u.times.copy(), phi1_snaps)
    g = problem.initial_data()
    phi2 = SpectralField(u.grid, u.snapshots[0] - g.coefficients)
    norm = trajectory_norm(phi1, sigma, snapshot_norm=problem.snapshot_norm)
    return phi1, phi2, norm + problem.snapshot_norm(phi2, sigma + m)


def smooth_trajectory(u: TrajectoryField, theta: float) -> TrajectoryField:
    """Sharp low-pass at scale theta applied to every snapshot in space."""
    return TrajectoryField(u.grid, u.times.copy(), u.snapshots * _cutoff_mask(u.grid, theta))


# ------------------------------------------------------------------- engine


def _norm_Es(
    problem: ProblemInterface,
    u: TrajectoryField,
    s: float,
    m: float,
    dudt: TrajectoryField | None = None,
) -> float:
    """|u|_{E^s} = sup_t |u(t)|_s + sup_t |du/dt(t)|_{s-m} in the problem's
    snapshot norm; `dudt` is `time_derivative(u)` when the caller already
    holds it."""
    if dudt is None:
        dudt = time_derivative(u)
    base = trajectory_norm(u, s, snapshot_norm=problem.snapshot_norm)
    return base + trajectory_norm(dudt, s - m, snapshot_norm=problem.snapshot_norm)


def _run_iteration(
    problem: ProblemInterface,
    schedule: ScheduleParams,
    theta0: float,
    u0: TrajectoryField,
    T: float,
    dt: float,
    k_max: int,
    target_residual: float,
) -> tuple[TrajectoryField, IterationTrace]:
    s, m = schedule.s, schedule.m
    sD = s + schedule.D
    sP = s + schedule.P
    res_index = s + schedule.d1p

    g = problem.initial_data()
    # without a configured bound, M = 2 |u0|_{E^sD} + 1 is set at k = 0 from
    # that iteration's norm of u0
    M = schedule.M

    trace = IterationTrace()
    trace.M_used = M

    u = u0
    # theta grows doubly exponentially (theta_k = theta0^(r^k)); numpy
    # float64 semantics let late-k powers saturate to inf instead of raising,
    # and the induction comparisons stay meaningful (x <= inf, x <= 0.0).
    theta = np.float64(theta0)
    grow_count = 0
    prev_res = math.inf

    for k in range(k_max + 1):
        # one du/dt per iterate, for the residual and both Es norms
        dudt = time_derivative(u)
        phi1, _, res = residual(problem, u, res_index, m, dudt)
        nu_D = _norm_Es(problem, u, sD, m, dudt)
        nu_P = _norm_Es(problem, u, sP, m, dudt)
        del dudt  # not held through the linear solve
        if M is None:
            M = trace.M_used = 2.0 * nu_D + 1.0
        with np.errstate(over="ignore"):
            theta_alpha = float(theta**np.float64(schedule.alpha))
        trace.append_row(
            theta=float(theta),
            norm_u_EsD=nu_D,
            norm_u_EsP=nu_P,
            residual_F=res,
            prop_i=nu_P <= theta_alpha,
            prop_ii=nu_D <= M,
        )

        if not math.isfinite(res) or (res > 10.0 * prev_res and math.isfinite(prev_res)):
            grow_count += 1
            if not math.isfinite(res) or grow_count >= 3:
                trace.stop_reason = "diverged"
                raise DivergenceError(
                    f"residual grew from {prev_res:.3e} to {res:.3e} at iteration {k} "
                    f"({grow_count} consecutive growth events)",
                    trace=trace,
                )
        else:
            grow_count = 0
        prev_res = res

        if res <= target_residual:
            trace.stop_reason = "converged"
            return u, trace
        if k == k_max:
            trace.stop_reason = "k_max"
            return u, trace

        coeffs = problem.linearize(u)
        v = problem.solve_linearized(
            coeffs,
            -1.0 * phi1,
            SpectralField(u.grid, g.coefficients - u.snapshots[0]),
            T,
            dt,
        )
        nv_D = _norm_Es(problem, v, sD, m)
        with np.errstate(over="ignore"):
            theta_mq = float(theta ** np.float64(-schedule.q))
        trace.set_correction(nv_D, prop_iii=nv_D <= theta_mq)

        u_next = TrajectoryField(
            u.grid, u.times.copy(), u.snapshots + smooth_trajectory(v, theta).snapshots
        )
        ok, why = problem.admissible(u_next)
        if not ok:
            trace.stop_reason = "inadmissible"
            raise DomainError(
                f"iterate k={k + 1} left the admissible set: {why} "
                "(domain restriction violated)",
                trace=trace,
            )

        # free the linearization, the correction and the defect before the
        # next residual, which holds the next iterate's du/dt
        del coeffs, v, phi1

        u = u_next
        with np.errstate(over="ignore"):
            theta = theta ** np.float64(schedule.r)

    raise AssertionError("unreachable")


def nash_moser_solve(
    problem: ProblemInterface,
    schedule: ScheduleParams,
    T: float,
    dt: float,
    k_max: int = 25,
    target_residual: float = 1e-8,
    max_retries: int = 3,
) -> tuple[TrajectoryField, IterationTrace]:
    """Run the smoothed iteration until the defect falls below the target.

    Starts from the trapezoid initial iterate; each pass solves the
    linearized problem with forcing -phi1(u_k) and initial defect
    g - u_k(0), applies the sharp low-pass at scale theta_k to the
    correction, and raises theta doubly exponentially (theta_{k+1} =
    theta_k^r, so theta_k = theta0^(r^k)).
    On divergence (3 consecutive residual growths by more than 10x, or a
    non-finite residual) the run restarts with theta0 doubled, up to
    `max_retries` times, before the divergence error (trace attached)
    propagates. An iterate that leaves the admissible set raises DomainError
    at once, also with the trace attached. A negative `k_max` or
    `max_retries`, or a `target_residual` that is NaN or negative, raises
    ValueError before any work (0 runs to `k_max`).
    """
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    if max_retries < 0:
        raise ValueError(f"max_retries must be >= 0, got {max_retries}")
    if not target_residual >= 0.0:
        raise ValueError(f"target_residual must be >= 0, got {target_residual}")
    u0 = initial_iterate(problem, T, dt)
    last_err: DivergenceError | None = None
    for attempt in range(max_retries + 1):
        theta0 = schedule.theta0 * 2.0**attempt
        try:
            return _run_iteration(
                problem, schedule, theta0, u0, T, dt, k_max, target_residual
            )
        except DivergenceError as err:
            last_err = err
    assert last_err is not None
    raise last_err


def check_induction(trace: IterationTrace, schedule: ScheduleParams) -> dict:
    """Re-evaluate the three induction inequalities from the logged numbers.

    Returns per-k boolean lists plus the first failing iteration for each
    property (None when it never fails). Rows without a correction are
    vacuously true for property (iii).
    """
    n = len(trace)
    with np.errstate(over="ignore"):
        prop_i = [
            trace.norm_u_EsP[k] <= float(np.float64(trace.theta[k]) ** schedule.alpha)
            for k in range(n)
        ]
        M = trace.M_used if trace.M_used is not None else math.inf
        prop_ii = [trace.norm_u_EsD[k] <= M for k in range(n)]
        prop_iii = [
            math.isnan(trace.norm_v_EsD[k])
            or trace.norm_v_EsD[k] <= float(np.float64(trace.theta[k]) ** (-schedule.q))
            for k in range(n)
        ]

    def first_failure(flags: list[bool]) -> int | None:
        for k, ok in enumerate(flags):
            if not ok:
                return k
        return None

    return {
        "prop_i": prop_i,
        "prop_ii": prop_ii,
        "prop_iii": prop_iii,
        "first_failure": {
            "prop_i": first_failure(prop_i),
            "prop_ii": first_failure(prop_ii),
            "prop_iii": first_failure(prop_iii),
        },
    }
