"""nmshallow: pseudospectral Nash-Moser iteration for shallow-water systems.

Layers (bottom up):

* ``fourier_scale``  — discrete Sobolev scale on the periodic box: spectral
  fields, trajectory containers, norms, sharp-cutoff smoothing, serialization.
* ``green_naghdi``   — the dispersive shallow-water operators: elliptic
  momentum operator, nonlinear tendency, linearization coefficients.
* ``linear_ivp``     — free dispersive evolution (integrating factor) and the
  linearized initial-value solver built on it.
* ``nash_moser``     — schedule constants, induction checks and the iteration
  engine over the Sobolev scale, generic in the problem.
* ``gn_problem``     — adapter plugging the shallow-water operators into the
  iteration engine's problem interface.
* ``reference``      — method-of-lines reference solver, solitary-wave
  solutions, manufactured residuals.
* ``invariants``     — the measurements that ``validate`` and the acceptance
  criteria share, one body per invariant check (not re-exported here).
* ``cli``            — the ``nmshallow`` command-line interface.
"""
from .errors import (
    ConvergenceError,
    DivergenceError,
    DomainError,
    InfeasibleScheduleError,
    NmShallowError,
    StepSizeError,
)
from .fourier_scale import (
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
from .green_naghdi import (
    GNState,
    LinearizedCoeffs,
    PhysicalParams,
    apply_bigT,
    bigT_pairing,
    build_linearized_coeffs,
    depth_check,
    depth_grid,
    energy_E,
    invert_bigT,
    nonlinear_F,
    x_norm_packed,
)
from .linear_ivp import (
    IVPData,
    conjugate_trajectory,
    dispersive_dt_cap,
    evolve_packed,
    solve_linearized,
)
from .nash_moser import (
    IterationTrace,
    ProblemInterface,
    ScheduleParams,
    check_induction,
    compute_schedule,
    nash_moser_solve,
    p_min_threshold,
)
from .gn_problem import GNProblem
from .reference import manufactured_residual, mol_solve, serre_solitary_wave

__version__ = "0.1.0"

__all__ = [
    "GridSpec",
    "SpectralField",
    "TrajectoryField",
    "field_from_grid",
    "field_to_grid",
    "interpolate_bound_check",
    "load_trajectory",
    "random_field",
    "save_trajectory",
    "smooth",
    "sobolev_norm",
    "time_derivative",
    "trajectory_norm",
    "zero_field",
    "GNState",
    "LinearizedCoeffs",
    "PhysicalParams",
    "apply_bigT",
    "bigT_pairing",
    "build_linearized_coeffs",
    "depth_check",
    "depth_grid",
    "energy_E",
    "invert_bigT",
    "nonlinear_F",
    "x_norm_packed",
    "IVPData",
    "conjugate_trajectory",
    "dispersive_dt_cap",
    "evolve_packed",
    "solve_linearized",
    "IterationTrace",
    "ProblemInterface",
    "ScheduleParams",
    "check_induction",
    "compute_schedule",
    "nash_moser_solve",
    "p_min_threshold",
    "GNProblem",
    "manufactured_residual",
    "mol_solve",
    "serre_solitary_wave",
    "NmShallowError",
    "InfeasibleScheduleError",
    "DivergenceError",
    "DomainError",
    "StepSizeError",
    "ConvergenceError",
    "__version__",
]
