"""Exception types shared across the package, and the one overflow refusal."""

import math


class PdemError(Exception):
    """Base class for all errors raised by this package."""


class NonPositiveAlphaError(PdemError):
    """Oscillator strength alpha must be positive."""


class InvalidLambdaError(PdemError):
    """Deformation parameter is outside the family's admissible set, or
    what it sets leaves the range of a double: the deformation q, a
    sampled level, an energy or a grid box (families, grid), or a
    discretized operator that overflows or underflows (refuse_overflow,
    and the underflow refusals of discrete and susy)."""


class OutOfDomainError(PdemError):
    """Evaluation point lies outside the mass profile's domain."""


class NotABoundStateError(PdemError):
    """Requested level index is at or beyond the bound-state cutoff."""


class InvalidCountError(PdemError):
    """A count the request cannot use: grid points below the supported
    minimum, on the grid or inside a compact domain's ground-state box
    (grid); an eigenvalue count k outside [1, N] (discrete._prepared); or
    a level that is zero at every node (families.require_resolved)."""


class ConstraintViolatedError(PdemError):
    """A structural constraint fails: ordering exponents off a + b + c = -1,
    or a polynomial of the wrong parity."""


class ConvergenceFailureError(PdemError):
    """The eigenvalue search or inverse iteration did not converge; the
    message names the index of the offending eigenpair."""


class LengthMismatchError(PdemError):
    """Sampled vectors differ in length, or an operator's bands mismatch."""


class DegreeMismatchError(PdemError):
    """Recurrence inputs do not have consecutive degrees."""


class NotProportionalError(PdemError):
    """The two polynomial constructions are not scalar multiples.

    Raised by proportionality_ratio when cross-multiplied coefficients
    disagree; reported by callers rather than treated as fatal.
    """


def refuse_overflow(top: float):
    """The refusal of an operator with a NaN or an entry squaring past a
    double, `top` its largest number: nan if `top` squares to a double."""
    if math.isfinite(top * top):
        top = math.nan
    raise InvalidLambdaError(
        f"the discretized Hamiltonian overflows: its largest entry is "
        f"{top:.3g}, whose square leaves the range of a double; lower "
        f"alpha, weaken the deformation or coarsen the grid")
