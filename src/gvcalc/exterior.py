"""Differential forms, vector fields, and the exterior calculus over a chart.

A degree-k form is a sparse dictionary from strictly increasing k-tuples of
variable indices to nonzero rational functions.  Degree-0 forms use the empty
tuple as their single key, so functions, 1-forms, and higher forms share one
arithmetic.  All operations are exact.

Sums of forms and `interior` add `RatFn` pairs in `_collect`.  `wedge`,
`ext_d`, `zseries` and the finite-sequence relations and columns of `gv.py`
sum products k*c1*c2 and derivatives k*d_v(c) in one `_FormSum`, which
decides per term: when the coefficients are polynomials,
the term is added in place into one packed-int term dict per output index
(`intpoly._mul_terms`, `intpoly._diff_terms`), over one integer denominator
per index that is raised to the lcm when a term with another one arrives;
any other term is kept as a `RatFn` pair.  The in-place sums become one
`RatFn` per index at the end, and the pairs, if any, are added to them in
`_collect`.

`_require_one_forms` is the one guard for 1-form arguments in the package.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from itertools import chain
from collections.abc import Iterable, Mapping, Sequence

from .errors import ChartMismatch, GvError, ZeroFunction, _require, _require_int
from .errors import _require_same_chart
from .field import Chart, MultiPoly, RatFn, _UNIT, _as_tuple, _coerce, _one, _over_one, _reduced
from .field import as_ratfn
from .intpoly import _diff_terms, _mul_terms, _times, _var


class DiffForm:
    """An exact differential form of fixed degree on a chart."""

    __slots__ = ("chart", "degree", "terms")

    def __init__(self, chart: Chart, degree: int, terms: dict) -> None:
        _require(Chart, "DiffForm chart", chart)
        degree = _require_int(degree, "the form degree")
        _require(Mapping, "DiffForm terms", terms)
        if degree > chart.dim:
            # a degree above the dimension is identically zero
            terms = {}
        clean: dict[tuple[int, ...], RatFn] = {}
        for idx, c in terms.items():
            idx = _as_tuple(idx, "a form index")
            idx = tuple(_require_int(i, "a form index entry") for i in idx)
            if len(idx) != degree:
                raise GvError(f"index {idx} does not match degree {degree}")
            if any(i >= chart.dim for i in idx):
                raise GvError(f"index {idx} must hold variable positions of the chart")
            if any(a >= b for a, b in zip(idx, idx[1:])):
                raise GvError(f"index {idx} must be strictly increasing")
            c = as_ratfn(chart, c)
            if not c.is_zero():
                clean[idx] = c
        _set_chart(self, chart)
        _set_degree(self, degree)
        _set_terms(self, clean)

    @classmethod
    def _raw(cls, chart: Chart, degree: int, terms: dict) -> "DiffForm":
        """Trusted constructor: indices well formed, coefficients nonzero on the chart."""
        out = object.__new__(cls)
        _set_chart(out, chart)
        _set_degree(out, degree)
        _set_terms(out, terms)
        return out

    def __setattr__(self, *a) -> None:  # pragma: no cover - guard only
        raise AttributeError("DiffForm is immutable")

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, chart: Chart, degree: int) -> "DiffForm":
        _require(Chart, "DiffForm chart", chart)
        return cls._raw(chart, _require_int(degree, "the form degree"), {})

    @classmethod
    def from_function(cls, f: RatFn) -> "DiffForm":
        _require((RatFn, MultiPoly), "a 0-form", f)
        f = as_ratfn(f.chart, f)
        return cls._raw(f.chart, 0, {} if f.is_zero() else {(): f})

    @classmethod
    def coordinate(cls, chart: Chart, name: str) -> "DiffForm":
        """The 1-form d(x) for a chart variable x."""
        _require(Chart, "DiffForm chart", chart)
        return cls(chart, 1, {(chart.index(name),): chart.one()})

    @classmethod
    def one_form(cls, chart: Chart, coeffs: Sequence) -> "DiffForm":
        _require(Chart, "DiffForm chart", chart)
        _require(Sequence, "1-form coefficients", coeffs)
        if len(coeffs) != chart.dim:
            raise GvError("one coefficient per chart variable required")
        return cls(chart, 1, {(i,): c for i, c in enumerate(coeffs)})

    # -- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, idx: Sequence[int]) -> RatFn:
        return self.terms.get(_as_tuple(idx, "a form index"), self.chart.zero())

    def coeffs(self) -> tuple[RatFn, ...]:
        """Coefficient vector of a 1-form in chart order."""
        if self.degree != 1:
            raise GvError("coefficient vector only defined for 1-forms")
        return tuple(self.coeff((i,)) for i in range(self.chart.dim))

    def scalar(self) -> RatFn:
        """The rational function carried by a degree-0 form."""
        if self.degree != 0:
            raise GvError("scalar value only defined in degree 0")
        return self.terms.get((), self.chart.zero())

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiffForm):
            return NotImplemented
        return (
            self.chart == other.chart
            and self.degree == other.degree
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.chart, self.degree, frozenset(self.terms)))

    # -- linear structure ---------------------------------------------

    def _check(self, other: "DiffForm") -> None:
        if self.chart != other.chart:
            raise ChartMismatch("forms on different charts")
        if self.degree != other.degree:
            raise GvError(f"cannot combine degrees {self.degree} and {other.degree}")

    def __add__(self, other) -> "DiffForm":
        if not isinstance(other, DiffForm):
            return NotImplemented
        self._check(other)
        return _collect(self.chart, self.degree, chain(self.terms.items(), other.terms.items()))

    def __neg__(self) -> "DiffForm":
        return DiffForm._raw(self.chart, self.degree, {i: -c for i, c in self.terms.items()})

    def __sub__(self, other) -> "DiffForm":
        if not isinstance(other, DiffForm):
            return NotImplemented
        self._check(other)
        negated = ((i, -c) for i, c in other.terms.items())
        return _collect(self.chart, self.degree, chain(self.terms.items(), negated))

    def __mul__(self, other) -> "DiffForm":
        """Multiplication by a function or constant."""
        if isinstance(other, RatFn) and other.is_constant():
            # a constant function scales like its value (as_ratfn checks the chart)
            other = as_ratfn(self.chart, other).constant_value()
        if type(other) is not RatFn and isinstance(other, (int, Fraction)):
            # a scalar scales each coefficient directly
            f = _coerce(self.chart, other)
            if not f:
                return DiffForm.zero(self.chart, self.degree)
        else:
            f = as_ratfn(self.chart, other)
            if f.is_zero():
                return DiffForm.zero(self.chart, self.degree)
        # a product of nonzero coefficients is nonzero
        return DiffForm._raw(self.chart, self.degree, {i: c * f for i, c in self.terms.items()})

    __rmul__ = __mul__

    def __truediv__(self, other) -> "DiffForm":
        f = as_ratfn(self.chart, other)
        return self * f.inv()

    def __str__(self) -> str:
        return form_str(self)

    def __repr__(self) -> str:
        return f"DiffForm({form_str(self)})"


_set_chart, _set_degree, _set_terms = (DiffForm.__dict__[n].__set__ for n in DiffForm.__slots__)


def _require_one_forms(what: str, *forms) -> Chart:
    """The one chart of `forms`: GvError unless each is a 1-form,
    ChartMismatch unless they share a chart."""
    for w in forms:
        if not isinstance(w, DiffForm) or w.degree != 1:
            raise GvError(f"{what}: expected a 1-form, not {w!r}")
    chart = forms[0].chart
    _require_same_chart(chart, what, *forms[1:])
    return chart


def _collect(chart: Chart, degree: int, pairs: Iterable) -> DiffForm:
    """The form summing (index, nonzero coefficient) pairs; a sum that vanishes is dropped."""
    out: dict[tuple[int, ...], RatFn] = {}
    for idx, c in pairs:
        s = out.get(idx)
        if s is None:
            out[idx] = c
        else:
            s = s + c
            if s.is_zero():
                del out[idx]
            else:
                out[idx] = s
    return DiffForm._raw(chart, degree, out)


class _FormSum:
    """A form summed from products and derivatives of coefficients.

    A term whose coefficients are polynomials is added in place: each output
    index keeps [term dict, integer denominator], the numerators of the
    terms added so far over their lcm.  Over F_p every denominator is 1.
    Any other term is kept as an (index, `RatFn`) pair, and `form` adds the
    pairs to the in-place sums in `_collect`.
    """

    __slots__ = ("chart", "p", "sums", "pairs")

    def __init__(self, chart: Chart) -> None:
        self.chart = chart
        self.p = chart.characteristic
        self.sums: dict[tuple[int, ...], list] = {}
        self.pairs: list[tuple[tuple[int, ...], RatFn]] = []

    def _target(self, idx: tuple[int, ...], den: int, k: int) -> tuple[dict, int]:
        """The term dict of idx and the weight that puts k/den over its denominator."""
        entry = self.sums.get(idx)
        if entry is None:
            self.sums[idx] = entry = [{}, den]
            return entry[0], k
        have = entry[1]
        if have != den:
            lcm = math.lcm(have, den)
            if lcm != have:
                entry[0] = _times(entry[0], lcm // have)
                entry[1] = lcm
            k *= lcm // den
        return entry[0], k

    def add_wedge(self, a: "DiffForm", b: "DiffForm", k: int) -> None:
        """Add k*(a ^ b) for an int k."""
        p = self.p
        if not (k % p if p else k):
            return
        for ia, ca in a.terms.items():
            for ib, cb in b.terms.items():
                merged = _merge_indices(ia, ib)
                if merged is None:
                    continue
                sign, idx = merged
                if ca.den._ints != _UNIT or cb.den._ints != _UNIT:
                    c, w = ca * cb, sign * k
                    self.pairs.append((idx, c if w == 1 else c * w))
                    continue
                x, y = ca.num, cb.num
                out, w = self._target(idx, x._den * y._den, sign * k)
                tx, ty = x._ints, y._ints
                if w != 1:
                    # scale the shorter operand
                    if len(tx) <= len(ty):
                        tx = _times(tx, w)
                    else:
                        ty = _times(ty, w)
                _mul_terms(tx, ty, p, out)

    def add_d(self, a: "DiffForm", k: int) -> None:
        """Add k*(d a) for an int k."""
        p, n = self.p, self.chart.dim
        if not (k % p if p else k):
            return
        for idx, c in a.terms.items():
            x = c.num
            polynomial = c.den._ints == _UNIT
            for v in range(n):
                merged = _merge_indices((v,), idx)
                if merged is None:
                    continue
                sign, nidx = merged
                if polynomial:
                    out, w = self._target(nidx, x._den, sign * k)
                    s, u = _var(n, v)
                    _diff_terms(x._ints, s, u, p, w, out)
                    continue
                dc, w = c.diff(v), sign * k
                if not dc.is_zero():
                    self.pairs.append((nidx, dc if w == 1 else dc * w))

    def form(self, degree: int) -> "DiffForm":
        """The summed form; an index whose sum vanished is dropped."""
        chart = self.chart
        one = _one(chart)
        terms = {
            idx: _over_one(_reduced(chart, ints, den), one)
            for idx, (ints, den) in self.sums.items()
            if ints
        }
        if not self.pairs:
            return DiffForm._raw(chart, degree, terms)
        return _collect(chart, degree, chain(terms.items(), self.pairs))


def _merge_indices(a: tuple[int, ...], b: tuple[int, ...]):
    """Merge two increasing index tuples: (sign of the shuffle, merged), or None if they meet."""
    inversions = 0
    for i in a:
        for j in b:
            if i == j:
                return None
            inversions += i > j
    return -1 if inversions % 2 else 1, tuple(sorted(a + b))


def wedge(a: DiffForm, b: DiffForm) -> DiffForm:
    """Exterior product."""
    _require(DiffForm, "wedge", a, b)
    _require_same_chart(a.chart, "wedge", b)
    chart = a.chart
    deg = a.degree + b.degree
    if deg > chart.dim:
        return DiffForm.zero(chart, deg)
    acc = _FormSum(chart)
    acc.add_wedge(a, b, 1)
    return acc.form(deg)


def wedge_all(forms: Sequence[DiffForm]) -> DiffForm:
    """Left-to-right exterior product of a nonempty sequence."""
    _require(Sequence, "wedge_all", forms)
    if not forms:
        raise GvError("empty wedge")
    _require(DiffForm, "wedge_all", *forms)
    return reduce(wedge, forms)


def ext_d(a) -> DiffForm:
    """Exterior derivative; accepts a form or a rational function."""
    _require((DiffForm, RatFn), "ext_d", a)
    if isinstance(a, RatFn):
        a = DiffForm.from_function(a)
    chart = a.chart
    if a.degree >= chart.dim:
        return DiffForm.zero(chart, a.degree + 1)
    acc = _FormSum(chart)
    acc.add_d(a, 1)
    return acc.form(a.degree + 1)


def d_of(f: RatFn) -> DiffForm:
    """The differential of a function as a 1-form."""
    _require(RatFn, "d_of", f)
    return ext_d(f)


class VectorField:
    """A rational vector field: one component per chart variable."""

    __slots__ = ("chart", "components")

    def __init__(self, chart: Chart, components: Sequence) -> None:
        _require(Chart, "VectorField chart", chart)
        _require(Sequence, "VectorField components", components)
        if len(components) != chart.dim:
            raise GvError("one component per chart variable required")
        comps = tuple(as_ratfn(chart, c) for c in components)
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "components", comps)

    def __setattr__(self, *a) -> None:  # pragma: no cover - guard only
        raise AttributeError("VectorField is immutable")

    @classmethod
    def coordinate(cls, chart: Chart, name: str) -> "VectorField":
        _require(Chart, "VectorField chart", chart)
        comps = [chart.zero()] * chart.dim
        comps[chart.index(name)] = chart.one()
        return cls(chart, comps)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def __eq__(self, other) -> bool:
        if not isinstance(other, VectorField):
            return NotImplemented
        return self.chart == other.chart and self.components == other.components

    def __add__(self, other: "VectorField") -> "VectorField":
        if not isinstance(other, VectorField):
            return NotImplemented
        _require_same_chart(self.chart, "VectorField +", other)
        return VectorField(
            self.chart, [a + b for a, b in zip(self.components, other.components)]
        )

    def __neg__(self) -> "VectorField":
        return VectorField(self.chart, [-c for c in self.components])

    def __sub__(self, other: "VectorField") -> "VectorField":
        if not isinstance(other, VectorField):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "VectorField":
        f = as_ratfn(self.chart, other)
        return VectorField(self.chart, [c * f for c in self.components])

    __rmul__ = __mul__

    def apply(self, f: RatFn) -> RatFn:
        """Directional derivative X(f)."""
        _require(RatFn, "VectorField.apply", f)
        _require_same_chart(self.chart, "VectorField.apply", f)
        out = self.chart.zero()
        for i, c in enumerate(self.components):
            if not c.is_zero():
                out = out + c * f.diff(i)
        return out

    def bracket(self, other: "VectorField") -> "VectorField":
        """Lie bracket [X, Y]."""
        _require(VectorField, "VectorField.bracket", other)
        _require_same_chart(self.chart, "VectorField.bracket", other)
        comps = [
            self.apply(oc) - other.apply(sc)
            for sc, oc in zip(self.components, other.components)
        ]
        return VectorField(self.chart, comps)

    def __str__(self) -> str:
        names = self.chart.variables
        parts = [f"({c})*@{n}" for n, c in zip(names, self.components) if not c.is_zero()]
        return " + ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"VectorField({self})"


def interior(x: VectorField, a: DiffForm) -> DiffForm:
    """Interior product i_X in the first slot."""
    _require(VectorField, "interior", x)
    _require(DiffForm, "interior", a)
    _require_same_chart(x.chart, "interior", a)
    if a.degree == 0:
        raise GvError("interior product needs degree at least 1")

    def pairs():
        for idx, c in a.terms.items():
            for j, i in enumerate(idx):
                comp = x.components[i]
                if not comp.is_zero():
                    t = comp * c
                    yield idx[:j] + idx[j + 1:], (-t if j % 2 else t)

    return _collect(a.chart, a.degree - 1, pairs())


def form_apply(a: DiffForm, x: VectorField) -> RatFn:
    """Evaluate a 1-form on a vector field."""
    _require_one_forms("form_apply", a)
    return interior(x, a).scalar()


def lie_derivative(x: VectorField, a) -> "DiffForm | RatFn":
    """Lie derivative along X via the homotopy formula."""
    _require(VectorField, "lie_derivative", x)
    _require((RatFn, DiffForm), "lie_derivative", a)
    if isinstance(a, RatFn):
        return x.apply(a)
    if a.degree == 0:
        return DiffForm.from_function(x.apply(a.scalar()))
    return interior(x, ext_d(a)) + ext_d(interior(x, a))


def is_integrable(omega: DiffForm) -> bool:
    """Whether a 1-form satisfies omega ^ d(omega) = 0.

    On a chart of dimension at most 2 the 3-form omega ^ d(omega) vanishes
    identically, so d(omega) is not computed there.
    """
    if _require_one_forms("is_integrable", omega).dim <= 2:
        return True
    return wedge(omega, ext_d(omega)).is_zero()


def same_foliation(a: DiffForm, b: DiffForm) -> bool:
    """Whether two nonzero integrable 1-forms have proportional kernels."""
    _require_one_forms("same_foliation", a, b)
    if a.is_zero() or b.is_zero():
        raise ZeroFunction("foliation comparison needs nonzero forms")
    return wedge(a, b).is_zero()


def pullback(phi: Sequence[RatFn], a: DiffForm) -> DiffForm:
    """Pull a form back along the map whose target coordinates are phi.

    phi has one entry per variable of the form's chart; the entries live on
    the source chart.  Functions substitute; d commutes with the pullback.
    """
    _require(DiffForm, "pullback", a)
    _require(Sequence, "pullback map", phi)
    _require(RatFn, "pullback map entries", *phi)
    if a.degree == 0:
        return DiffForm.from_function(a.scalar().substitute(phi))
    if len(phi) != a.chart.dim:
        raise GvError("pullback map needs one entry per target variable")
    src = phi[0].chart
    diffs = [ext_d(f) for f in phi]
    out = DiffForm.zero(src, a.degree)
    for idx, c in a.terms.items():
        term = DiffForm.from_function(c.substitute(phi))
        block = wedge_all([diffs[i] for i in idx])
        out = out + wedge(term, block)
    return out


def form_str(a: DiffForm) -> str:
    """Canonical printing: index tuples in lexicographic order."""
    _require(DiffForm, "form_str", a)
    if a.is_zero():
        return "0"
    names = a.chart.variables
    pieces = []
    for idx in sorted(a.terms):
        c = a.terms[idx]
        base = "/\\".join(f"d{names[i]}" for i in idx)
        if idx == ():
            pieces.append(f"({c})")
        else:
            pieces.append(f"({c})*{base}")
    return " + ".join(pieces)
