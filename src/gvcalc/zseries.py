"""Formal 1-form series in a transverse parameter, with factorial weights.

A sequence (w_0, ..., w_N) of rational 1-forms on a base chart stands for the
extended 1-form

    dz + sum_k z^k / k! * w_k

on the chart with one extra variable z.  Integrability of the extended form
is equivalent to the vanishing of a sequence of 2-form defects on the base
chart, one per power of z.  Reparametrizations z = f_0 + f_1 t + f_2 t^2 + ...
with invertible linear part act on such sequences.  The action divides
truncated scalar power series first, q_k = z^k / (dz/dt) for each k, and
touches forms only at the end: each output coefficient is one sum of the
w_k and the d f_i, weighted by those scalars.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import Sequence

from .errors import GvError, VanishingLeadCoefficient, ZeroDenominator
from .errors import _require, _require_int, _require_same_chart
from .field import Chart, MultiPoly, RatFn, _as_tuple, _drop_variable, as_ratfn
from .exterior import DiffForm, _FormSum, _require_one_forms, ext_d


class FormalOmega:
    """A finite sequence of 1-forms representing dz + sum z^k/k! w_k."""

    __slots__ = ("chart", "coeffs")

    def __init__(self, chart: Chart, coeffs: Sequence[DiffForm]) -> None:
        coeffs = _as_tuple(coeffs, "FormalOmega coefficients")
        if not coeffs:
            raise GvError("a series needs at least the constant coefficient")
        _require_one_forms("FormalOmega", *coeffs)
        _require_same_chart(chart, "FormalOmega", coeffs[0])
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, *a) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def length(self) -> int:
        return len(self.coeffs)

    @property
    def last_index(self) -> int:
        return len(self.coeffs) - 1

    def omega(self, k: int) -> DiffForm:
        """The k-th coefficient; zero beyond the stored range."""
        k = _require_int(k, "a series index")
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
        if type(other) is not type(self):
            return NotImplemented
        if self.chart != other.chart:
            return False
        n = max(len(self.coeffs), len(other.coeffs))
        return all(self.omega(k) == other.omega(k) for k in range(n))

    def __str__(self) -> str:
        return "gv [" + ", ".join(str(w) for w in self.coeffs) + "]"

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


def _inv_factorial(chart: Chart, k: int) -> Fraction:
    p = chart.characteristic
    if p and k >= p:
        raise GvError(
            f"index {k} needs 1/{k}! which does not exist in characteristic {p}"
        )
    return Fraction(1, factorial(k))


def structure_defect(om: FormalOmega, k: int) -> DiffForm:
    """The k-th integrability defect of the extended form.

    The relation d w_k = sum_{j+l=k+1, l>=1} k!/(j! (l-1)!) w_j ^ w_l pairs
    w_j ^ w_l with w_l ^ w_j, which leaves the integer form

        d w_k - sum_{0<=j<l, j+l=k+1} (C(k, j) - C(k, j-1)) w_j ^ w_l,

    with C(k, -1) = 0: a 2-form on the base chart.  The extended form is
    integrable exactly when every defect vanishes.  The defect is one
    accumulation: d w_k and each weighted wedge are summed into one
    `exterior._FormSum`, with no form built in between.
    """
    _require(FormalOmega, "structure_defect", om)
    k = _require_int(k, "the defect index")
    acc = _FormSum(om.chart)
    acc.add_d(om.omega(k), 1)
    for j in range((k + 2) // 2):
        wj, wl = om.omega(j), om.omega(k + 1 - j)
        acc.add_wedge(wj, wl, (comb(k, j - 1) if j else 0) - comb(k, j))
    return acc.form(2)


def _defect_orders(om: FormalOmega) -> range:
    """Orders 0 .. max(2N-1, 0) of every possibly nonzero defect."""
    n = om.trimmed().last_index
    return range(max(2 * n - 1, 0) + 1)


def structure_defects(om: FormalOmega) -> list[DiffForm]:
    """All possibly nonzero defects, indices 0 .. max(2N-1, 0)."""
    _require(FormalOmega, "structure_defects", om)
    return [structure_defect(om, k) for k in _defect_orders(om)]


def is_formal_integrable(om: FormalOmega) -> bool:
    """Whether every integrability defect of the sequence vanishes."""
    _require(FormalOmega, "is_formal_integrable", om)
    return all(structure_defect(om, k).is_zero() for k in _defect_orders(om))


def to_extended_form(om: FormalOmega, zname: str = "z") -> DiffForm:
    """The 1-form dz + sum z^k/k! w_k on the chart extended by z."""
    _require(FormalOmega, "to_extended_form", om)
    ext = om.chart.extend(zname)  # which refuses a name already on the chart
    z = ext.var(zname)
    lift = [ext.var(v) for v in om.chart.variables]
    out = DiffForm.coordinate(ext, zname)
    zpow = ext.one()
    for k, w in enumerate(om.coeffs):
        if not w.is_zero():
            scale = zpow * _inv_factorial(om.chart, k)
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
    ext = _require_one_forms("from_extended_form", form)
    zi = ext.index(zname)
    base = Chart(
        tuple(v for v in ext.variables if v != zname), ext.characteristic
    )
    if form.coeff((zi,)) != ext.one():
        raise GvError("the dz coefficient must be exactly 1")

    def drop_z(f: MultiPoly, zdeg: int) -> MultiPoly:
        return _drop_variable(f.coeff_of_power(zi, zdeg), zi, base)

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
        coeffs.append(w * factorial(k))
    return FormalOmega(base, coeffs)


class Substitution:
    """A reparametrization z = f_0 + f_1 t + ... + f_m t^m, with f_1 invertible."""

    __slots__ = ("chart", "coeffs")

    def __init__(self, chart: Chart, coeffs: Sequence) -> None:
        _require(Chart, "Substitution chart", chart)
        fs = [as_ratfn(chart, c) for c in _as_tuple(coeffs, "Substitution coefficients")]
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
        return cls(chart, [0, *_as_tuple(tail, "Substitution coefficients")])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Substitution):
            return NotImplemented
        return self.chart == other.chart and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        inner = ", ".join(str(c) for c in self.coeffs)
        return f"Substitution([{inner}])"


def compose_substitutions(s: Substitution, r: Substitution) -> Substitution:
    """The substitution z = s(r(u)), computed exactly."""
    _require(Substitution, "compose_substitutions", s, r)
    _require_same_chart(s.chart, "compose_substitutions", r)
    chart = s.chart
    # exact polynomial composition in the formal variable
    result = [chart.zero()]
    power = [chart.one()]
    for k, fk in enumerate(s.coeffs):
        if k > 0:
            upto = len(power) + len(r.coeffs) - 2  # the untruncated product
            power = _convolve(power, r.coeffs, upto)
        if fk.is_zero():
            continue
        for i, c in enumerate(power):
            while len(result) <= i:
                result.append(chart.zero())
            result[i] = result[i] + fk * c
    while len(result) < 2:
        result.append(chart.zero())
    return Substitution(chart, result)


def _convolve(a: Sequence[RatFn], b: Sequence[RatFn], upto: int) -> list[RatFn]:
    """The product of two series in t, truncated after t^upto."""
    out = [a[0].chart.zero()] * (upto + 1)
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
    """The inverse of a series in t with a nonzero constant term, truncated after t^upto.

    Entry j solves sum_{i<=j} a_i out_{j-i} = 0 for out_j, given out_0 = 1/a_0.
    """
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


def substitute_series(
    om: FormalOmega, sub: Substitution, upto: int | None = None
) -> FormalOmega:
    """Apply the reparametrization z = sum f_k t^k to the sequence.

    In the new parameter the extended form is A dt + sum_j t^j (d f_j +
    sum_k z^k[j]/k! w_k), with A = dz/dt; dividing by A gives
    dt + sum t^j/j! w~_j, and the result collects w~_0 .. w~_upto.  The
    scalar series are divided first: q_0 = 1/A and q_k = z q_{k-1} = z^k/A,
    truncated after t^upto.  Then each column is one sum,

        w~_j = sum_k (j!/k!) q_k[j] w_k + sum_{i<=j} j! (1/A)[j-i] d f_i,

    summed in one `exterior._FormSum`, each scalar as a degree-0 form.
    The default keeps two indices beyond the input length.
    """
    _require(FormalOmega, "substitute_series", om)
    _require(Substitution, "substitute_series", sub)
    _require_same_chart(om.chart, "substitute_series", sub)
    chart = om.chart
    if upto is None:
        upto = om.last_index + 2
    upto = _require_int(upto, "the truncation order")
    p = chart.characteristic
    if p and (upto >= p or om.last_index >= p):
        raise GvError(
            f"factorial weights need all indices below the characteristic {p}"
        )
    fs = sub.coeffs
    A = [fs[k + 1] * (k + 1) for k in range(len(fs) - 1)]
    inv = _series_inv(A, upto)
    qs, q, power = [], inv, 0  # (k, w_k, q_k) for every nonzero w_k
    for k, w in enumerate(om.coeffs):
        if not w.is_zero():
            for _ in range(k - power):
                q = _convolve(q, fs, upto)
            qs.append((k, w, q))
            power = k
    dfs = []
    for i, f in enumerate(fs[: upto + 1]):
        if not f.is_zero():
            d = ext_d(f)
            if not d.is_zero():
                dfs.append((i, d))
    out = []
    for j in range(upto + 1):
        fj = factorial(j)
        # j!/k! for k > j is a unit below the characteristic
        terms = [
            (q[j], w, fj // factorial(k)) if k <= j else (q[j] * Fraction(fj, factorial(k)), w, 1)
            for k, w, q in qs
            if not q[j].is_zero()
        ]
        terms += [(inv[j - i], d, fj) for i, d in dfs if i <= j and not inv[j - i].is_zero()]
        acc = _FormSum(chart)
        for s, w, weight in terms:
            acc.add_wedge(DiffForm._raw(chart, 0, {(): s}), w, weight)
        out.append(acc.form(1))
    return FormalOmega(chart, out)
