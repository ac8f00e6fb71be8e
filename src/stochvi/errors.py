"""Exception types shared across the toolkit.

Errors subclass the closest builtin so callers that don't care about the
fine-grained type can still catch ValueError / ArithmeticError and friends.
"""


class StochviError(Exception):
    """Base class for all toolkit errors."""


class NonSquareError(StochviError, ValueError):
    """Matrix operation requires a square matrix."""


class AsymmetryError(StochviError, ValueError):
    """Matrix is not symmetric within the allowed relative asymmetry."""


class NoConvergenceError(StochviError, ArithmeticError):
    """Iterative eigenvalue computation exhausted its budget."""


class SingularMatrixError(StochviError, ArithmeticError):
    """Linear system is singular or too ill-conditioned to solve."""


class DimensionMismatchError(StochviError, ValueError):
    """Vector/matrix dimensions do not agree."""


class IndexOutOfRangeError(StochviError, IndexError):
    """Component index outside [0, n)."""


class UnsupportedError(StochviError, ValueError):
    """Requested capability is not available for this operator."""


class SupportTooLargeError(StochviError, ValueError):
    """Sampling-scheme support exceeds the enumeration cap."""


class NotCocoerciveError(StochviError, ArithmeticError):
    """Matrix fails the co-coercivity characterization."""


class NotStronglyMonotoneError(StochviError, ArithmeticError):
    """Symmetric part of the mean Jacobian is not positive definite."""


class UnsupportedSchemeError(StochviError, ValueError):
    """Constant formulas are not available for this sampling scheme."""


class StepSizeOutOfRangeError(StochviError, ValueError):
    """Step size violates the validity range of the requested bound."""


class SwitchNotReachedError(StochviError, ValueError):
    """Switching-rule bound evaluated before the switch point."""


class TooFewSeedsError(StochviError, ValueError):
    """Envelope check needs more traces than were supplied."""


class NoEquilibriumError(StochviError, ValueError):
    """Check requires an operator with a computable equilibrium."""


class InvalidRangeError(StochviError, ValueError):
    """Game-generator eigenvalue/singular-value ranges are invalid."""


class ConfigError(StochviError, ValueError):
    """Invalid run or experiment configuration."""
