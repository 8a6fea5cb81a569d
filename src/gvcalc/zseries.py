"""Formal 1-form series in a transverse parameter, with factorial weights.

A sequence (w_0, ..., w_N) of rational 1-forms on a base chart stands for the
extended 1-form

    dz + sum_k z^k / k! * w_k

on the chart with one extra variable z.  Integrability of the extended form
is equivalent to the vanishing of a sequence of 2-form defects on the base
chart, one per power of z.  Reparametrizations z = f_0 + f_1 t + f_2 t^2 + ...
with invertible linear part act on such sequences; the action is computed by
exact truncated power series division.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Sequence

from .errors import ChartMismatch, GvError, VanishingLeadCoefficient, ZeroDenominator
from .field import Chart, MultiPoly, RatFn, as_ratfn
from .exterior import DiffForm, ext_d, wedge


class FormalOmega:
    """A finite sequence of 1-forms representing dz + sum z^k/k! w_k."""

    __slots__ = ("chart", "coeffs")

    def __init__(self, chart: Chart, coeffs: Sequence[DiffForm]) -> None:
        if not coeffs:
            raise GvError("a series needs at least the constant coefficient")
        for w in coeffs:
            if not isinstance(w, DiffForm) or w.degree != 1:
                raise GvError("series coefficients must be 1-forms")
            if w.chart != chart:
                raise ChartMismatch("series coefficient on a different chart")
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, *a) -> None:  # pragma: no cover - guard only
        raise AttributeError("FormalOmega is immutable")

    @property
    def length(self) -> int:
        return len(self.coeffs)

    @property
    def last_index(self) -> int:
        return len(self.coeffs) - 1

    def omega(self, k: int) -> DiffForm:
        """The k-th coefficient; zero beyond the stored range."""
        if k < 0:
            raise GvError("negative series index")
        if k < len(self.coeffs):
            return self.coeffs[k]
        return DiffForm.zero(self.chart, 1)

    def trimmed(self) -> "FormalOmega":
        """Drop trailing zero coefficients, keeping at least one entry."""
        n = len(self.coeffs)
        while n > 1 and self.coeffs[n - 1].is_zero():
            n -= 1
        return FormalOmega(self.chart, self.coeffs[:n])

    def __eq__(self, other) -> bool:
        if not isinstance(other, FormalOmega):
            return NotImplemented
        if self.chart != other.chart:
            return False
        n = max(len(self.coeffs), len(other.coeffs))
        return all(self.omega(k) == other.omega(k) for k in range(n))

    def __str__(self) -> str:
        return "gv [" + ", ".join(str(w) for w in self.coeffs) + "]"

    def __repr__(self) -> str:
        return f"FormalOmega({self})"


def _inv_factorial(chart: Chart, k: int) -> Fraction:
    p = chart.characteristic
    if p and k >= p:
        raise GvError(
            f"index {k} needs 1/{k}! which does not exist in characteristic {p}"
        )
    return Fraction(1, factorial(k))


def structure_defect(om: FormalOmega, k: int) -> DiffForm:
    """The k-th integrability defect of the extended form.

    The defect is  d w_k - sum_{j+l=k+1, l>=1} k!/(j! (l-1)!) w_j ^ w_l,
    a 2-form on the base chart; the extended form is integrable exactly when
    every defect vanishes.
    """
    if k < 0:
        raise GvError("negative defect index")
    chart = om.chart
    out = ext_d(om.omega(k))
    for l in range(1, k + 2):
        j = k + 1 - l
        wj, wl = om.omega(j), om.omega(l)
        if wj.is_zero() or wl.is_zero():
            continue
        coeff = Fraction(factorial(k), factorial(j) * factorial(l - 1))
        out = out - wedge(wj, wl) * chart.const(coeff)
    return out


def structure_defects(om: FormalOmega) -> list[DiffForm]:
    """All possibly nonzero defects, indices 0 .. max(2N-1, 0)."""
    n = om.trimmed().last_index
    return [structure_defect(om, k) for k in range(max(2 * n - 1, 0) + 1)]


def is_formal_integrable(om: FormalOmega) -> bool:
    """Whether every integrability defect of the sequence vanishes."""
    n = om.trimmed().last_index
    return all(structure_defect(om, k).is_zero() for k in range(max(2 * n - 1, 0) + 1))


def extended_chart(chart: Chart, zname: str = "z") -> Chart:
    if zname in chart.variables:
        raise GvError(f"variable {zname!r} already on the chart")
    return chart.extend(zname)


def to_extended_form(om: FormalOmega, zname: str = "z") -> DiffForm:
    """The 1-form dz + sum z^k/k! w_k on the chart extended by z."""
    ext = extended_chart(om.chart, zname)
    z = ext.var(zname)
    lift = [ext.var(v) for v in om.chart.variables]
    out = DiffForm.coordinate(ext, zname)
    zpow = ext.one()
    for k, w in enumerate(om.coeffs):
        if not w.is_zero():
            scale = zpow * ext.const(_inv_factorial(om.chart, k))
            lifted = DiffForm(
                ext, 1, {idx: c.substitute(lift) for idx, c in w.terms.items()}
            )
            out = out + lifted * scale
        zpow = zpow * z
    return out


def from_extended_form(form: DiffForm, zname: str = "z") -> FormalOmega:
    """Recover the coefficient sequence from a form dz + sum z^k/k! w_k.

    The dz coefficient must be 1, no other coefficient may involve dz, and
    each remaining coefficient must be polynomial in z (denominator free of
    z).  Raises otherwise.
    """
    ext = form.chart
    if form.degree != 1:
        raise GvError("expected a 1-form")
    zi = ext.index(zname)
    base = Chart(
        tuple(v for v in ext.variables if v != zname), ext.characteristic
    )
    if form.coeff((zi,)) != ext.one():
        raise GvError("the dz coefficient must be exactly 1")

    def drop_z(f: MultiPoly, zdeg: int) -> MultiPoly:
        out = {}
        for e, c in f.terms.items():
            if e[zi] != zdeg:
                continue
            e2 = tuple(x for i, x in enumerate(e) if i != zi)
            out[e2] = c
        return MultiPoly._raw(base, out)

    degree = 0
    columns: dict[int, dict[int, RatFn]] = {}
    for i in range(ext.dim):
        if i == zi:
            continue
        c = form.coeff((i,))
        if c.is_zero():
            continue
        if c.den.degree_in(zi) > 0:
            raise GvError("coefficient denominators must not involve z")
        den = drop_z(c.den, 0)
        for k in range(c.num.degree_in(zi) + 1):
            numk = drop_z(c.num, k)
            if numk.is_zero():
                continue
            bi = i - (1 if i > zi else 0)
            columns.setdefault(k, {})[bi] = RatFn(numk, den)
            degree = max(degree, k)
    coeffs = []
    for k in range(degree + 1):
        col = columns.get(k, {})
        w = DiffForm(base, 1, {(i,): f for i, f in col.items()})
        _inv_factorial(base, k)  # reject indices at or above the characteristic
        coeffs.append(w * base.const(factorial(k)))
    return FormalOmega(base, coeffs)


class Substitution:
    """A reparametrization z = f_0 + f_1 t + ... + f_m t^m, with f_1 invertible."""

    __slots__ = ("chart", "coeffs")

    def __init__(self, chart: Chart, coeffs: Sequence) -> None:
        fs = [as_ratfn(chart, c) for c in coeffs]
        if len(fs) < 2:
            raise GvError("a substitution needs at least a linear coefficient")
        if fs[1].is_zero():
            raise VanishingLeadCoefficient("the linear coefficient must be nonzero")
        while len(fs) > 2 and fs[-1].is_zero():
            fs.pop()
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "coeffs", tuple(fs))

    def __setattr__(self, *a) -> None:  # pragma: no cover - guard only
        raise AttributeError("Substitution is immutable")

    @property
    def preserves_basepoint(self) -> bool:
        """Whether z = 0 is fixed, so the distinguished leaf is preserved."""
        return self.coeffs[0].is_zero()

    @classmethod
    def normalized(cls, chart: Chart, tail: Sequence) -> "Substitution":
        """Build from (f_1, f_2, ...) with f_0 = 0."""
        return cls(chart, [chart.zero(), *tail])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Substitution):
            return NotImplemented
        return self.chart == other.chart and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        inner = ", ".join(str(c) for c in self.coeffs)
        return f"Substitution([{inner}])"


def compose_substitutions(s: Substitution, r: Substitution) -> Substitution:
    """The substitution z = s(r(u)), computed exactly."""
    if s.chart != r.chart:
        raise ChartMismatch("substitutions on different charts")
    chart = s.chart
    # exact polynomial composition in the formal variable
    result = [chart.zero()]
    power = [chart.one()]
    for k, fk in enumerate(s.coeffs):
        if k > 0:
            power = _poly_mul(power, list(r.coeffs))
        if fk.is_zero():
            continue
        for i, c in enumerate(power):
            while len(result) <= i:
                result.append(chart.zero())
            result[i] = result[i] + fk * c
    while len(result) < 2:
        result.append(chart.zero())
    return Substitution(chart, result)


def _poly_mul(a: list[RatFn], b: list[RatFn]) -> list[RatFn]:
    chart = a[0].chart
    out = [chart.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x.is_zero():
            continue
        for j, y in enumerate(b):
            if y.is_zero():
                continue
            out[i + j] = out[i + j] + x * y
    return out


def _series_mul_rr(a: list[RatFn], b: list[RatFn], upto: int) -> list[RatFn]:
    chart = a[0].chart
    out = [chart.zero()] * (upto + 1)
    for i, x in enumerate(a):
        if i > upto or x.is_zero():
            continue
        for j, y in enumerate(b):
            if i + j > upto:
                break
            if not y.is_zero():
                out[i + j] = out[i + j] + x * y
    return out


def _series_inv(a: list[RatFn], upto: int) -> list[RatFn]:
    chart = a[0].chart
    if a[0].is_zero():
        raise ZeroDenominator("series with zero constant term has no inverse")
    inv0 = a[0].inv()
    out = [inv0] + [chart.zero()] * upto
    for j in range(1, upto + 1):
        acc = chart.zero()
        for i in range(1, j + 1):
            if i < len(a) and not a[i].is_zero():
                acc = acc + a[i] * out[j - i]
        out[j] = -acc * inv0
    return out


def _series_mul_fr(a: list[DiffForm], b: list[RatFn], upto: int) -> list[DiffForm]:
    chart = b[0].chart
    out = [DiffForm.zero(chart, 1) for _ in range(upto + 1)]
    for i, x in enumerate(a):
        if i > upto or x.is_zero():
            continue
        for j, y in enumerate(b):
            if i + j > upto:
                break
            if not y.is_zero():
                out[i + j] = out[i + j] + x * y
    return out


def substitute_series(
    om: FormalOmega, sub: Substitution, upto: int | None = None
) -> FormalOmega:
    """Apply the reparametrization z = sum f_k t^k to the sequence.

    Writing the extended form in the new parameter and dividing by the dt
    coefficient gives dt + sum t^j/j! w~_j; the result collects w~_0 .. w~_upto.
    The default keeps two indices beyond the input length.
    """
    if om.chart != sub.chart:
        raise ChartMismatch("series and substitution on different charts")
    chart = om.chart
    if upto is None:
        upto = om.last_index + 2
    if upto < 0:
        raise GvError("truncation order must be nonnegative")
    p = chart.characteristic
    if p and (upto >= p or om.last_index >= p):
        raise GvError(
            f"factorial weights need all indices below the characteristic {p}"
        )
    fs = list(sub.coeffs)
    # dt coefficient A(t) = sum (k+1) f_{k+1} t^k
    A = [fs[k + 1] * (k + 1) for k in range(len(fs) - 1)]
    if len(A) <= upto:
        A = A + [chart.zero()] * (upto + 1 - len(A))
    # base differential part and pulled-back coefficients
    B: list[DiffForm] = [DiffForm.zero(chart, 1) for _ in range(upto + 1)]
    for k, fk in enumerate(fs):
        if k <= upto and not fk.is_zero():
            dfk = ext_d(fk)
            if not dfk.is_zero():
                B[k] = B[k] + dfk
    zpow: list[RatFn] = [chart.one()] + [chart.zero()] * upto
    for k, wk in enumerate(om.coeffs):
        if k > 0:
            zpow = _series_mul_rr(zpow, fs, upto)
        if wk.is_zero():
            continue
        scale = chart.const(_inv_factorial(chart, k))
        for j in range(upto + 1):
            c = zpow[j] * scale
            if not c.is_zero():
                B[j] = B[j] + wk * c
    C = _series_mul_fr(B, _series_inv(A, upto), upto)
    out = [C[j] * chart.const(factorial(j)) for j in range(upto + 1)]
    return FormalOmega(chart, out)
