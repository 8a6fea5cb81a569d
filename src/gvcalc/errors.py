"""Exception hierarchy shared by every module in the package."""

from __future__ import annotations


class GvError(Exception):
    """Base class for all errors raised by this package."""


class ChartMismatch(GvError):
    """Operands live on different charts."""


class ZeroDenominator(GvError):
    """A rational function was built or evaluated with a zero denominator."""


class VanishingLeadCoefficient(GvError):
    """A formal substitution z = f1*t + ... has f1 identically zero."""


class NotIntegrable(GvError):
    """A 1-form expected to satisfy w ^ dw = 0 does not."""


class NotNormalized(GvError):
    """A vector field expected to satisfy w(X) = 1 does not."""


class ZeroFunction(GvError):
    """A gauge or rescale parameter, or a proposed integrating factor, is the zero function."""


class GaugeBreaksRelations(GvError):
    """A gauge move produced a triple that fails its structure relations."""


class DecompositionFails(GvError):
    """A form is not in the span required by a flag decomposition."""


class NotExpressible(GvError):
    """A first integral is not a polynomial of the bounded degree in the witness."""


class GcdDegenerate(GvError):
    """No nonzero tangent multiplier is available for the exponent gcd."""


class DegenerateFrame(GvError):
    """The requested dual frame does not exist: the form is zero, or the
    coframe's coefficient matrix has a zero determinant."""


class PClosedCase(GvError):
    """All frame contractions w(X_i^p) vanish; the form is p-closed."""
