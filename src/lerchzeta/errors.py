"""Exception hierarchy for the lerchzeta package.

A number outside binary64 ends in NonConvergence: LerchValue refuses a
non-finite value or estimate, and each function that does the arithmetic
turns Python's OverflowError into it.  The primitives keep OverflowError.
"""


class LerchError(Exception):
    """Base class for all errors raised by this package."""


class CutViolation(LerchError):
    """An argument sits on the branch cut (closed negative imaginary axis)."""


class PoleAtNonpositiveInteger(LerchError):
    """Gamma evaluated at 0, -1, -2, ..."""


class InvalidPoint(LerchError):
    """(s, a, c) is outside the punctured domain (a integral, or c a nonpositive integer)."""


class InvalidRegion(LerchError):
    """The requested evaluation strategy does not apply at this point."""


class DivergentSeries(LerchError):
    """The series does not converge at this point."""


class NonConvergence(LerchError):
    """The error target could not be met within the work budget, or a number overflowed binary64."""


class ContourHitsPole(LerchError):
    """An integrand pole lies on or too close to the integration contour."""


class DerivativeCircleLeavesDomain(LerchError):
    """A Cauchy differentiation circle would leave the valid region."""


class SZero(LerchError):
    """The raising relation degenerates at s = 0."""


class WordParseError(LerchError):
    """A loop word string does not match the grammar."""
