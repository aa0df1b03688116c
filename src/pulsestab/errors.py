"""Exception hierarchy for the workbench.

Two families: DomainError for invalid inputs or parameter regimes, and
SolverError for numerical computations that did not meet their verified
tolerances.  The CLI maps DomainError to exit code 2 and SolverError to 3.
"""


class WorkbenchError(Exception):
    """Base class for all workbench errors."""


class DomainError(WorkbenchError):
    """Inputs outside the admissible parameter domain."""


class InvalidGrid(DomainError):
    """Grid construction arguments are unusable (odd or tiny N, L <= 0 or too extreme)."""


class GridTooSmall(DomainError):
    """Grid half-length violates the wave decay margin."""


class PoleError(DomainError):
    """Closed-form expression evaluated at a pole of its coefficients."""


class NotSubsonic(DomainError):
    """Wave speed outside the subsonic regime |w| < min(1, sqrt(ac)/b)."""


class NoSignChange(DomainError):
    """Bisection bracket endpoints have the same index sign."""


class SolverError(WorkbenchError):
    """Base class for numerical solver failures."""


class EigensolveFailure(SolverError):
    """Dense eigenvalue computation did not converge."""


class SolveFailure(SolverError):
    """Linear solve failed (e.g. operator not numerically positive definite)."""


class IllConditioned(SolverError):
    """Even-block solve residual exceeded its tolerance."""


class KernelDefect(SolverError):
    """Right-hand side has an odd part, so it overlaps the odd kernel direction."""


class ReflectionDefect(SolverError):
    """Operator does not commute with the grid reflection x -> -x."""
