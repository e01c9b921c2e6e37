"""Exception hierarchy shared by all modules.

Each package error carries the CLI exit code it maps to in its `exit_code`
class attribute; subclasses inherit it.
"""

import math


class SpdeMomentsError(Exception):
    """Base class for all package errors."""

    exit_code = 2


class ValidationError(SpdeMomentsError, ValueError):
    """Invalid parameters or inputs."""


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
    """A quadrature or series did not reach the requested accuracy."""

    exit_code = 3


class StepTooCoarse(ConvergenceFailure):
    """Volterra step size fails the a-posteriori Richardson test."""


class ResultOverflow(SpdeMomentsError, OverflowError):
    """A result lies outside the double range; the input itself is valid."""


def finite_or_overflow(compute, message: str, in_logs=None) -> float:
    """The one overflow rule: compute() when it is finite, else in_logs(),
    the same product with its factors met in logs; ResultOverflow(message)
    only when that is not finite either: the result leaves the double range."""
    for form in (compute,) if in_logs is None else (compute, in_logs):
        try:
            value = form()
        except OverflowError:
            continue
        if math.isfinite(value):
            return value
    raise ResultOverflow(message)


class StabilityViolated(SpdeMomentsError):
    """Simulation scheme constraint violated."""

    exit_code = 4


class MittagLefflerAccuracyWarning(UserWarning):
    """Reduced-accuracy region: a > 2 far on the negative real axis."""
