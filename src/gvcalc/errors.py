"""Exception hierarchy shared by every module in the package, and the one
argument policy of its public boundary.

An int argument (a length, an order, an index, a degree bound, a
characteristic or a seed) may be any int except a bool, and an int subclass
is stored as a plain int; `_require_int` is the one place that decides it.
`_require` is the one guard for an argument that must be of a given class
(or of one of several), and `_require_same_chart` the one that raises a
boundary `ChartMismatch`.
"""

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


def _require_int(value, what: str, least: int | None = 0) -> int:
    """`value` as a plain int of at least `least` (no bound for None).

    A bool or a value that is not an int raises GvError, as does an int
    below the bound.
    """
    if type(value) is not int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise GvError(f"{what} must be an int, not {value!r}")
        value = int(value)
    if least is not None and value < least:
        raise GvError(f"{what} must be at least {least}, not {value}")
    return value


def _require(cls: type | tuple[type, ...], what: str, *values) -> None:
    """Raise GvError on the first of `values` that is not a `cls` (a class or a tuple)."""
    for value in values:
        if not isinstance(value, cls):
            names = " or ".join(c.__name__ for c in cls) if isinstance(cls, tuple) else cls.__name__
            raise GvError(f"{what}: expected {names}, not {value!r}")


def _require_same_chart(chart, what: str, *values) -> None:
    """Raise ChartMismatch on the first of `values` whose chart is not `chart`."""
    for value in values:
        other = value.chart
        # charts are shared objects, so the identity test settles almost every call
        if other is not chart and other != chart:
            raise ChartMismatch(f"{what}: operands on different charts")
