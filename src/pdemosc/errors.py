"""Exception types shared across the package."""


class PdemError(Exception):
    """Base class for all errors raised by this package."""


class NonPositiveAlphaError(PdemError):
    """Oscillator strength alpha must be positive."""


class InvalidLambdaError(PdemError):
    """Deformation parameter is outside the family's admissible set."""


class OutOfDomainError(PdemError):
    """Evaluation point lies outside the mass profile's domain."""


class NotABoundStateError(PdemError):
    """Requested level index is at or beyond the bound-state cutoff."""


class InvalidCountError(PdemError):
    """Grid point count below the supported minimum."""


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
