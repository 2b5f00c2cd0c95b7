"""Exception hierarchy shared across the library and mapped to CLI exit codes."""
from __future__ import annotations

__all__ = [
    "NmShallowError",
    "InfeasibleScheduleError",
    "DivergenceError",
    "DomainError",
    "StepSizeError",
    "ConvergenceError",
]


class NmShallowError(Exception):
    """Base class for library errors."""


class InfeasibleScheduleError(NmShallowError):
    """Iteration schedule constraints cannot be met (CLI exit code 2)."""


class DivergenceError(NmShallowError):
    """The outer iteration diverged (CLI exit code 3). Carries the trace."""

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = trace


class DomainError(NmShallowError):
    """A state left the admissible set, e.g. depth under the floor (exit code 4).

    Carries the trace when an iterate of the outer iteration left the set.
    """

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = trace


class StepSizeError(NmShallowError):
    """A time integration blew up, indicating a step-size violation (exit code 3)."""


class ConvergenceError(NmShallowError):
    """An inner linear solver failed to reach tolerance (exit code 3)."""
