"""Exception hierarchy shared by all modules.

Exit-code mapping used by the CLI: validation errors -> 2,
convergence errors -> 3, stability/domain errors -> 4, any other package
error (such as ResultOverflow) -> 2.
"""


class SpdeMomentsError(Exception):
    """Base class for all package errors."""


class ValidationError(SpdeMomentsError, ValueError):
    """Invalid parameters or inputs (CLI exit code 2)."""


class InvalidParams(ValidationError):
    pass


class DalangViolated(ValidationError):
    """The parameter tuple admits no square-integrable random-field solution."""


class GammaPole(ValidationError):
    """Gamma evaluated at a nonpositive integer."""


class TooLarge(ValidationError):
    """Combinatorial enumeration request beyond the desk-scale cap."""


class NotBalanced(ValidationError):
    pass


class ConvergenceFailure(SpdeMomentsError):
    """A quadrature or series did not reach the requested accuracy (exit code 3)."""


class StepTooCoarse(ConvergenceFailure):
    """Volterra step size fails the a-posteriori Richardson test."""


class ResultOverflow(SpdeMomentsError, OverflowError):
    """A result lies outside the double range; the input itself is valid."""


class StabilityViolated(SpdeMomentsError):
    """Simulation scheme constraint violated (exit code 4)."""


class DomainTooSmall(StabilityViolated):
    """Truncated spatial domain influences the probe beyond one standard error."""


class MittagLefflerAccuracyWarning(UserWarning):
    """Reduced-accuracy region: a > 2 far on the negative real axis."""
