"""Exact sparse multivariate polynomial and rational function arithmetic.

A polynomial is a dictionary mapping monomial keys to nonzero integers,
over one positive integer denominator.  Over a prime field F_p the integers
are canonical residues in [0, p) and the denominator is 1.  Over Q the pair
is canonical too: the denominator is coprime to the content (the gcd of the
numerators), so equal polynomials have equal integers and equality and
hashing compare ints.  A sum or product of polynomials with denominator 1
never calls gcd; one with a denominator takes one gcd over integers.  The
zero polynomial is the empty dictionary over 1.

A monomial key is one int that packs the total degree and the exponents in
the chart's variable order (`intpoly` has the layout), so int order is
graded-lex order and every canonical choice below (leading terms, gcd
normalization, printing) is a `max` or a sort of keys.  Exponent tuples exist
only at the boundary: the constructor packs them, `leading()` and printing
unpack, and `MultiPoly.terms` is a read-only view that unpacks each key, with
`fractions.Fraction` values over Q and residues over F_p.  A polynomial moves
onto its chart extended by one last variable by shifting every key up one
field (`_append_variable`), which keeps the order, so canonical parts stay
canonical; `_drop_variable` takes a variable of degree zero off again.

Rational functions are stored normalized: numerator and denominator coprime,
denominator monic.  Two equal rational functions therefore have identical
parts, and equality is literal comparison of those parts.

Input is validated at the boundary: `MultiPoly(chart, terms)` checks every
exponent and coerces every coefficient, and the public functions check the
types of their arguments with `errors._require` (the class) and
`errors._require_int` (an int argument: no bool, stored as a plain int),
while internal results, canonical by construction, go through the trusted
`MultiPoly._raw`, which checks nothing.  `as_ratfn` is the one coercion of a
scalar or a polynomial into a `RatFn`, and the `RatFn` operators share its core.

Products, sums, greatest common divisors and exact division run on the
integer dictionaries themselves (`intpoly`, one core for Q and F_p); a
denominator is a scalar and changes neither gcd nor divisibility.
`_cofactors(a, b)` returns the monic gcd g with a/g and b/g, and every
reduction of a fraction is one call to it.  Over Q the heuristic gcd
(GCDHEU) runs on the numerators of both operands first: its trial divisions
confirm the gcd and are the cofactors.  When it gives up, images mod a
large prime may prove the numerators coprime; otherwise a primitive PRS
runs.  Over F_p `_gcd_terms` works on the residues: a univariate Euclid,
then images that may prove coprimality, then the same PRS.  The
dictionaries are divided by the gcd.  The monic gcd is unique, so it does
not depend on the route.

All values are immutable after construction and every operation returns a new
object, so instances can be shared freely between threads.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import ChartMismatch, GvError, ZeroDenominator, _require, _require_int
from .errors import _require_same_chart
from .intpoly import HALF, MASK, W, _add_terms, _diff_terms, _div_terms, _gcd_terms, _heu_gcd
from .intpoly import _min_exp, _mul_terms, _pack, _times, _unpack, _var, _z_coprime

Scalar = Union[Fraction, int]


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class Chart:
    """An ordered tuple of variable names over Q (characteristic 0) or F_p."""

    variables: tuple[str, ...]
    characteristic: int = 0

    def __post_init__(self) -> None:
        _require(tuple, "Chart variables", self.variables)
        p = _require_int(self.characteristic, "the characteristic")
        object.__setattr__(self, "characteristic", p)
        if not self.variables:
            raise GvError("chart needs at least one variable")
        for v in self.variables:
            if not (isinstance(v, str) and v.isidentifier()):
                raise GvError(f"bad variable name {v!r}")
        if len(set(self.variables)) != len(self.variables):
            raise GvError("chart variables must be distinct")
        if p != 0:
            if not _is_prime(p):
                raise GvError(f"characteristic {p} is not prime")
            if p >= 2**31:
                raise GvError("characteristic too large")

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not Chart:
            return NotImplemented
        return (self.variables, self.characteristic) == (other.variables, other.characteristic)

    @property
    def dim(self) -> int:
        return len(self.variables)

    def index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise GvError(f"no variable {name!r} on chart {self.variables}") from None

    def extend(self, *names: str) -> "Chart":
        """A new chart with extra variables appended."""
        return Chart(self.variables + tuple(names), self.characteristic)

    def var(self, name: str) -> "RatFn":
        return RatFn._raw(MultiPoly.var(self, name), _one(self))

    def const(self, value: Scalar) -> "RatFn":
        c = _coerce(self, value)
        num = MultiPoly._raw(self, {0: c.numerator} if c else {}, c.denominator)
        return RatFn._raw(num, _one(self))

    def zero(self) -> "RatFn":
        return RatFn._raw(MultiPoly._raw(self, {}), _one(self))

    def one(self) -> "RatFn":
        one = _one(self)
        return RatFn._raw(one, one)


def _coerce(chart: Chart, c) -> Scalar:
    """Normalize a coefficient into the chart's scalar domain.

    Over Q an int or a Fraction comes back as it is; over F_p the residue.
    An int is taken by `errors._require_int`: a bool is refused, and another
    int subclass comes back as a plain int.
    """
    p = chart.characteristic
    if isinstance(c, int):
        c = _require_int(c, "a coefficient", None)
        return c % p if p else c
    if isinstance(c, Fraction):
        if not p:
            return c
        den = c.denominator % p
        if den == 0:
            raise ZeroDenominator(f"coefficient {c} has no residue mod {p}")
        return (c.numerator % p) * pow(den, p - 2, p) % p
    raise GvError(f"bad coefficient {c!r} for characteristic {p}")


def _as_tuple(value, what: str) -> tuple:
    """`value` as a tuple; anything that is not iterable raises GvError."""
    try:
        return tuple(value)
    except TypeError:
        raise GvError(f"{what} must be a sequence, not {value!r}") from None


def _key(n: int, exp) -> int:
    """The key of an exponent tuple on n variables; GvError if it is not one."""
    exp = _as_tuple(exp, "an exponent")
    if len(exp) != n or any(_require_int(e, "an exponent", None) < 0 for e in exp):
        raise GvError(f"bad exponent {exp} for chart of dimension {n}")
    if sum(exp) >= HALF:
        raise GvError(f"total degree of {exp} reaches 2^{W - 1}: exponents overflow")
    return _pack(exp)


class _Terms(Mapping):
    """Read-only view of a polynomial: exponent tuple -> coefficient, unpacked on
    access; the coefficient is a Fraction over Q and a residue over F_p."""

    __slots__ = ("_f",)

    def __init__(self, f: "MultiPoly") -> None:
        self._f = f

    def __getitem__(self, exp) -> Scalar:
        f = self._f
        try:
            c = f._ints[_key(f.chart.dim, exp)]
        except (GvError, KeyError):
            raise KeyError(exp) from None
        return c if f.chart.characteristic else Fraction(c, f._den)

    def __iter__(self):
        n = self._f.chart.dim
        return (_unpack(k, n) for k in self._f._ints)

    def __len__(self) -> int:
        return len(self._f._ints)

    def __repr__(self) -> str:
        return repr(dict(self.items()))


class MultiPoly:
    """A sparse multivariate polynomial attached to a chart.

    The constructor rejects malformed exponents and non-int, non-Fraction
    coefficients, reduces mod p and drops zeros; `_raw` trusts its input.
    """

    __slots__ = ("chart", "_ints", "_den")

    def __init__(self, chart: Chart, terms: dict) -> None:
        _require(Chart, "MultiPoly chart", chart)
        _require(Mapping, "MultiPoly terms", terms)
        clean: dict[int, Scalar] = {}
        n = chart.dim
        for exp, c in terms.items():
            key = _key(n, exp)
            c = _coerce(chart, c)
            if c:
                clean[key] = c
        den = 1
        if not chart.characteristic and clean:
            # the lcm of reduced denominators is coprime to the scaled numerators
            den = math.lcm(*(c.denominator for c in clean.values()))
            clean = {e: c.numerator * (den // c.denominator) for e, c in clean.items()}
        _set_chart(self, chart)
        _set_ints(self, clean)
        _set_den(self, den)

    @classmethod
    def _raw(cls, chart: Chart, ints: dict, den: int = 1) -> "MultiPoly":
        """Trusted constructor: keys well formed, (ints, den) canonical."""
        out = _new(cls)
        _set_chart(out, chart)
        _set_ints(out, ints)
        _set_den(out, den)
        return out

    def __setattr__(self, *a) -> None:  # pragma: no cover - guard only
        raise AttributeError("MultiPoly is immutable")

    @property
    def terms(self) -> Mapping:
        """Exponent tuple -> coefficient: a `Fraction` over Q, a residue over F_p."""
        return _Terms(self)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, chart: Chart) -> "MultiPoly":
        return cls(chart, {})

    @classmethod
    def const(cls, chart: Chart, value: Scalar) -> "MultiPoly":
        _require(Chart, "MultiPoly chart", chart)
        return cls(chart, {(0,) * chart.dim: value})

    @classmethod
    def var(cls, chart: Chart, name: str) -> "MultiPoly":
        _require(Chart, "MultiPoly chart", chart)
        exp = [0] * chart.dim
        exp[chart.index(name)] = 1
        return cls(chart, {tuple(exp): 1})

    @classmethod
    def monomial(cls, chart: Chart, exp: Sequence[int], coeff: Scalar = 1) -> "MultiPoly":
        return cls(chart, {_as_tuple(exp, "an exponent"): coeff})

    # -- basic queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self._ints

    def is_constant(self) -> bool:
        return not any(self._ints)

    def constant_value(self) -> Scalar:
        q = self.chart.characteristic == 0
        if not self._ints:
            return Fraction(0) if q else 0
        if not self.is_constant():
            raise GvError("not a constant polynomial")
        (c,) = self._ints.values()
        return Fraction(c, self._den) if q else c

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._ints:
            return -1
        return max(self._ints) >> W * self.chart.dim

    def degree_in(self, v: int | str) -> int:
        v = _variable_index(self.chart, v)
        if not self._ints:
            return -1
        s = _var(self.chart.dim, v)[0]
        return max(e >> s & MASK for e in self._ints)

    def leading(self) -> tuple[tuple[int, ...], Scalar]:
        """Leading (exponent, coefficient) in graded-lex order."""
        if not self._ints:
            raise GvError("zero polynomial has no leading term")
        exp = _unpack(max(self._ints), self.chart.dim)
        return exp, self.terms[exp]

    def coeff_of_power(self, v: int | str, k: int) -> "MultiPoly":
        """The coefficient of x_v^k, as a polynomial with x_v-exponent zero."""
        v, k = _variable_index(self.chart, v), _require_int(k, "a power")
        s, u = _var(self.chart.dim, v)
        part = {e - k * u: c for e, c in self._ints.items() if e >> s & MASK == k}
        return _reduced(self.chart, part, self._den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return (
            self._den == other._den
            and self._ints == other._ints
            and self.chart == other.chart
        )

    def __hash__(self) -> int:
        return hash((self.chart, self._den, frozenset(self._ints.items())))

    # -- arithmetic ----------------------------------------------------

    def _check(self, other: "MultiPoly") -> None:
        if self.chart is not other.chart and self.chart != other.chart:
            raise ChartMismatch("polynomials on different charts")

    def __add__(self, other) -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = MultiPoly.const(self.chart, other)
        self._check(other)
        a, b = self._ints, other._ints
        if not b:
            return self
        if not a:
            return other
        den, db = self._den, other._den
        if den != db:
            den = math.lcm(den, db)
            a, b = _times(a, den // self._den), _times(b, den // db)
        return _reduced(self.chart, _add_terms(a, b, self.chart.characteristic), den)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        p = self.chart.characteristic
        ints = {e: p - c for e, c in self._ints.items()} if p else _times(self._ints, -1)
        return MultiPoly._raw(self.chart, ints, self._den)

    def __sub__(self, other) -> "MultiPoly":
        if not isinstance(other, (MultiPoly, int, Fraction)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "MultiPoly":
        return (-self) + other

    def __mul__(self, other) -> "MultiPoly":
        chart = self.chart
        if not isinstance(other, MultiPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            c = _coerce(chart, other)
            if not c:
                return MultiPoly._raw(chart, {})
            return _scaled(self, c.numerator, c.denominator)
        self._check(other)
        if _is_one(other):
            return self
        if _is_one(self):
            return other
        a, b = self._ints, other._ints
        if not (a and b):
            return MultiPoly._raw(chart, {})
        ints = _mul_terms(a, b, chart.characteristic)
        da, db = self._den, other._den
        den = da * db
        if den != 1:
            # content(a*b) = content(a)*content(b), each coprime to its own denominator
            g = (math.gcd(da, *b.values()) if da != 1 else 1) * (
                math.gcd(db, *a.values()) if db != 1 else 1
            )
            if g != 1:
                ints = {e: c // g for e, c in ints.items()}
                den //= g
        return MultiPoly._raw(chart, ints, den)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "MultiPoly":
        """Square and multiply; over F_p each factor p of k is a Frobenius step.

        (sum c_i m_i)^p = sum c_i m_i^p, since c^p = c in F_p, and a packed
        key times p is the key of the p-th power of its monomial.  A power
        whose degree would reach 2^15 is left to the products, which raise.
        """
        k = _require_int(k, "the exponent of a polynomial")
        chart = self.chart
        p = chart.characteristic
        result = _one(chart)
        base = self
        n = chart.dim
        while p and k and not k % p and base._ints and (max(base._ints) >> W * n) * p < HALF:
            base = MultiPoly._raw(chart, {e * p: c for e, c in base._ints.items()})
            k //= p
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def scale(self, c: Scalar) -> "MultiPoly":
        return self * c

    def monic(self) -> "MultiPoly":
        """Divide by the graded-lex leading coefficient."""
        ints = self._ints
        if not ints:
            return self
        # the leading coefficient is lc/den
        lc = ints[max(ints)]
        return self if lc == self._den else _scaled(self, self._den, lc)

    # -- calculus ------------------------------------------------------

    def diff(self, v: int | str) -> "MultiPoly":
        """Partial derivative; in characteristic p the term c*x^p differentiates to 0."""
        return _poly_diff(self, _variable_index(self.chart, v))

    def substitute(self, values: Sequence["RatFn"]) -> "RatFn":
        """Evaluate at rational functions, one per chart variable, on their chart."""
        _require(Sequence, "substitute", values)
        if len(values) != self.chart.dim:
            raise GvError("substitute needs one value per variable")
        _require(RatFn, "substitute", *values)
        target = values[0].chart
        _require_same_chart(target, "substitute", *values)
        powers: list[dict[int, RatFn]] = [dict() for _ in values]

        def var_power(i: int, k: int) -> RatFn:
            cache = powers[i]
            if k not in cache:
                cache[k] = values[i] ** k
            return cache[k]

        total = target.zero()
        for e, c in self._ints.items():
            term = None
            for i, k in enumerate(_unpack(e, self.chart.dim)):
                if k:
                    term = var_power(i, k) if term is None else term * var_power(i, k)
            total = total + (c if term is None else term * c)
        if self._den != 1:
            total = total * Fraction(1, self._den)
        return total

    # -- printing --------------------------------------------------------

    def __str__(self) -> str:
        return poly_str(self)

    def __repr__(self) -> str:
        return f"MultiPoly({poly_str(self)})"


# the slot setters, which bypass the immutability guard of __setattr__
_new = object.__new__
_set_chart, _set_ints, _set_den = (MultiPoly.__dict__[n].__set__ for n in MultiPoly.__slots__)


_UNIT = {0: 1}  # the terms of the polynomial 1, which a monic constant denominator has


def _one(chart: Chart) -> MultiPoly:
    return MultiPoly._raw(chart, {0: 1})


def _variable_index(chart: Chart, v) -> int:
    """The index of a variable given by name or by index; GvError if there is none."""
    if isinstance(v, str):
        return chart.index(v)
    v = _require_int(v, "a variable index", None)
    if not 0 <= v < chart.dim:
        raise GvError(f"no variable {v!r} on chart {chart.variables}")
    return v


def _poly_diff(f: MultiPoly, v: int) -> MultiPoly:
    """The partial derivative of f in the variable of index v."""
    chart = f.chart
    s, u = _var(chart.dim, v)
    return _reduced(chart, _diff_terms(f._ints, s, u, chart.characteristic), f._den)


def _is_one(f: MultiPoly) -> bool:
    return f._den == 1 and f._ints == _UNIT


def _reduced(chart: Chart, ints: dict, den: int) -> MultiPoly:
    """The canonical polynomial ints/den, for nonzero int values and a nonzero den."""
    if den != 1:
        if not ints:
            den = 1
        else:
            g = math.gcd(den, *ints.values())
            if den < 0:
                g = -g
            if g != 1:
                ints = {e: c // g for e, c in ints.items()}
                den //= g
    return MultiPoly._raw(chart, ints, den)


def _scaled(f: MultiPoly, n: int, m: int) -> MultiPoly:
    """f times the nonzero scalar n/m; over F_p, m is a unit."""
    p = f.chart.characteristic
    if p:
        k = n * pow(m, p - 2, p) % p
        return MultiPoly._raw(f.chart, {e: c * k % p for e, c in f._ints.items()})
    return _reduced(f.chart, _times(f._ints, n), f._den * m)


def _drop_variable(f: MultiPoly, v: int, target: Chart) -> MultiPoly:
    """Transfer a polynomial with x_v-degree zero onto the chart without x_v."""
    low = (1 << _var(f.chart.dim, v)[0]) - 1
    # the fields above x_v move down one field
    return MultiPoly._raw(target, {e >> W & ~low | e & low: c for e, c in f._ints.items()}, f._den)


def _append_variable(f: MultiPoly, target: Chart) -> MultiPoly:
    """Transfer a polynomial onto its chart extended by one last variable."""
    # every field moves up one, and the new lowest field, x_n, is 0
    return MultiPoly._raw(target, {e << W: c for e, c in f._ints.items()}, f._den)


def _power_products(a: MultiPoly, b: MultiPoly, m: int) -> list[MultiPoly]:
    """[a^i b^(m-i) for i = 0 .. m], from one table of powers of each."""
    apow, bpow = [_one(a.chart)], [_one(a.chart)]
    for _ in range(m):
        apow.append(apow[-1] * a)
        bpow.append(bpow[-1] * b)
    return [apow[i] * bpow[m - i] for i in range(m + 1)]


def _cleared_terms(polys: Sequence[MultiPoly]) -> list[dict]:
    """The integer term dicts of the polynomials times their common denominator."""
    scale = math.lcm(*(f._den for f in polys))
    return [_times(f._ints, scale // f._den) for f in polys]


def _term_str(chart: Chart, exp: tuple[int, ...], coeff: Scalar) -> str:
    parts = []
    for name, e in zip(chart.variables, exp):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    if not parts:
        return str(coeff)
    if coeff == 1:
        return "*".join(parts)
    if coeff == -1:
        return "-" + "*".join(parts)
    return str(coeff) + "*" + "*".join(parts)


def poly_str(f: MultiPoly) -> str:
    """Canonical printing: terms in descending graded-lex order."""
    _require(MultiPoly, "poly_str", f)
    ints, den, n = f._ints, f._den, f.chart.dim
    s = " + ".join(
        _term_str(f.chart, _unpack(k, n), Fraction(ints[k], den) if den != 1 else ints[k])
        for k in sorted(ints, reverse=True)
    )
    # a term string has no space, so " + -" only joins a negative term
    return s.replace(" + -", " - ") if s else "0"


def _cofactors(a: MultiPoly, b: MultiPoly) -> tuple[MultiPoly, MultiPoly, MultiPoly]:
    """(g, a/g, b/g) for nonzero a and b on one chart, g their monic gcd.

    A constant g comes back with a and b themselves.  The gcd and both
    divisions run on the numerators; over Q the primitive gcd h with leading
    coefficient lc gives g = h/lc, so a/g is (numerators of a)/h times lc
    over the denominator of a.  Over Q `_heu_gcd` is tried first; when it
    gives up, `_z_coprime` tries to prove the numerators coprime mod a prime,
    and the PRS of `_gcd_terms` is the last resort.  Over F_p `_gcd_terms`
    is the only route.
    """
    chart = a.chart
    ta, tb = a._ints, b._ints
    if len(ta) == 1 or len(tb) == 1:
        # every divisor of a monomial is a monomial
        m = _min_exp([*ta, *tb])
        g = MultiPoly._raw(chart, {m: 1})
        if not m:
            return g, a, b
        return g, *(
            MultiPoly._raw(chart, {e - m: c for e, c in f._ints.items()}, f._den) for f in (a, b)
        )
    p = chart.characteristic
    found = None if p else _heu_gcd(ta, tb, chart.dim)
    if not (p or found) and _z_coprime(ta, tb):
        # the PRS over Z can swell where the images mod a prime answer at once
        return _one(chart), a, b
    # the heuristic gives the quotients by c*h; times c they are those by h
    c, h, qa, qb = found or (1, _gcd_terms(ta, tb, p), None, None)
    lc = h[max(h)]  # 1 over F_p, positive over Z
    g = MultiPoly._raw(chart, h, lc)
    if g.is_constant():
        return g, a, b
    if qa is None:
        qa, qb = _div_terms(ta, h, p), _div_terms(tb, h, p)
    k = c * lc
    return g, _reduced(chart, _times(qa, k), a._den), _reduced(chart, _times(qb, k), b._den)


def poly_gcd(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """The greatest common divisor, monic under graded-lex; divides both inputs."""
    _require(MultiPoly, "poly_gcd", a, b)
    _require_same_chart(a.chart, "poly_gcd", b)
    if a.is_zero():
        return b.monic()
    if b.is_zero():
        return a.monic()
    return _cofactors(a, b)[0]


def exact_div(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """Exact quotient a / b; raises if b does not divide a."""
    _require(MultiPoly, "exact_div", a, b)
    _require_same_chart(a.chart, "exact_div", b)
    if b.is_zero():
        raise ZeroDenominator("division by the zero polynomial")
    if a.is_zero():
        return a
    ta, tb = a._ints, b._ints
    if b.is_constant():
        # b is c/db, so a/b is a times db/c
        return _scaled(a, b._den, next(iter(tb.values())))
    chart = a.chart
    p = chart.characteristic
    if p:
        return MultiPoly._raw(chart, _div_terms(ta, tb, p))
    # b = content * (primitive tb); by Gauss's lemma ta / (primitive tb) is integral
    content = math.gcd(*tb.values())
    if content != 1:
        tb = {e: c // content for e, c in tb.items()}
    q = _div_terms(ta, tb, 0)
    return _reduced(chart, _times(q, b._den), a._den * content)


def squarefree_decomposition(f: MultiPoly) -> list[tuple[MultiPoly, int]]:
    """Decompose f as a scalar times prod g_i^m_i with the g_i squarefree,
    monic, pairwise coprime, and the m_i distinct... up to the characteristic.

    In characteristic 0 this is the classical derivative-gcd sieve.  In
    characteristic p an irreducible factor whose multiplicity is divisible by
    p hides from every partial derivative; such factors survive the sieve as
    a p-th power, whose root is recovered by dividing every exponent by p
    (coefficients in the prime field are fixed by Frobenius) and recursing.
    """
    _require(MultiPoly, "squarefree_decomposition", f)
    chart = f.chart
    if f.is_zero() or f.is_constant():
        return []
    p = chart.characteristic
    if p and all(_poly_diff(f, v).is_zero() for v in range(chart.dim)):
        # every exponent, so every field of every key, is divisible by p
        root = MultiPoly._raw(chart, {e // p: c for e, c in f._ints.items()})
        return [(g, m * p) for g, m in squarefree_decomposition(root)]
    f = f.monic()
    sieve = f
    for v in range(chart.dim):
        dv = _poly_diff(f, v)
        if not dv.is_zero():
            sieve = poly_gcd(sieve, dv)
        if sieve.is_constant():
            break
    # sieve carries each factor with multiplicity m-1, except multiples of p
    # which it carries in full; w is the product of the other factors, once
    # each.  f and sieve are monic, so w and every cofactor below are too.
    w = exact_div(f, sieve)
    out: list[tuple[MultiPoly, int]] = []
    m = 1
    while not w.is_constant():
        w, part, sieve = _cofactors(w, sieve)
        if not part.is_constant():
            out.append((part, m))
        m += 1
    if not sieve.is_constant():
        # exactly the factors with multiplicity divisible by p remain
        out.extend(squarefree_decomposition(sieve))
    return out


class RatFn:
    """A normalized rational function: coprime parts, monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: MultiPoly) -> None:
        num, den = rf_normalize(num, den)
        _set_num(self, num)
        _set_rf_den(self, den)

    def __setattr__(self, *a) -> None:  # pragma: no cover - guard only
        raise AttributeError("RatFn is immutable")

    @classmethod
    def _raw(cls, num: MultiPoly, den: MultiPoly) -> "RatFn":
        """Trusted constructor: parts already coprime, den only needs scaling."""
        out = _new(cls)
        dd = den._ints
        if not dd:
            raise ZeroDenominator("zero denominator")
        if not num._ints:
            den = _one(num.chart)
        else:
            lc = dd[max(dd)]
            if lc != den._den:
                # scale both parts by den._den/lc, which makes den monic
                num, den = _scaled(num, den._den, lc), _scaled(den, den._den, lc)
        _set_num(out, num)
        _set_rf_den(out, den)
        return out

    @classmethod
    def from_poly(cls, num: MultiPoly) -> "RatFn":
        _require(MultiPoly, "RatFn.from_poly", num)
        return cls._raw(num, _one(num.chart))

    @property
    def chart(self) -> Chart:
        return self.num.chart

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def constant_value(self) -> Scalar:
        if not self.is_constant():
            raise GvError("not a constant")
        # a constant monic denominator is 1
        return self.num.constant_value()

    def __eq__(self, other) -> bool:
        if type(other) is not RatFn and isinstance(other, (int, Fraction)):
            if not other:
                return self.is_zero()  # no constant to build for the common test
            other = self.chart.const(other)
        if not isinstance(other, RatFn):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __add__(self, other) -> "RatFn":
        if type(other) is RatFn:
            if self.den._ints == _UNIT and other.den._ints == _UNIT:
                # polynomials add as polynomials (MultiPoly checks the charts)
                return _over_one(self.num + other.num, self.den)
        elif isinstance(other, (int, Fraction)):
            # gcd(num + c*den, den) = gcd(num, den) = 1: already reduced
            return RatFn._raw(self.num + self.den * other, self.den)
        o = _as_ratfn(self.chart, other)
        if o is None:
            return NotImplemented
        if self.is_zero():
            return o
        if o.is_zero():
            return self
        d1, d2 = self.den, o.den
        if d1 == d2:
            num = self.num + o.num
            if not (num.is_zero() or d1.is_constant()):
                _, num, d1 = _cofactors(num, d1)
            return RatFn._raw(num, d1)
        if d1.is_constant() or d2.is_constant():
            return RatFn._raw(self.num * d2 + o.num * d1, d1 * d2)
        g, u1, u2 = _cofactors(d1, d2)
        num = self.num * u2 + o.num * u1
        if g.is_constant():
            # coprime denominators: the result is already reduced
            return RatFn._raw(num, d1 * d2)
        # num is nonzero: fractions with different reduced denominators never cancel
        _, num, g = _cofactors(num, g)
        return RatFn._raw(num, g * u1 * u2)

    __radd__ = __add__

    def __neg__(self) -> "RatFn":
        return RatFn._raw(-self.num, self.den)

    def __sub__(self, other) -> "RatFn":
        if type(other) is not RatFn and isinstance(other, (int, Fraction)):
            return self + (-other)
        o = _as_ratfn(self.chart, other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "RatFn":
        return (-self) + other

    def __mul__(self, other) -> "RatFn":
        if type(other) is RatFn:
            if self.den._ints == _UNIT and other.den._ints == _UNIT:
                return _over_one(self.num * other.num, self.den)
        elif isinstance(other, (int, Fraction)):
            # a zero scalar, or one that vanishes mod p, gives the zero function
            return RatFn._raw(self.num * other, self.den)
        o = _as_ratfn(self.chart, other)
        if o is None:
            return NotImplemented
        if self.is_zero() or o.is_zero():
            return self.chart.zero()
        # cross-reduce; the cross-reduced product is then already coprime
        n1, d1, n2, d2 = self.num, self.den, o.num, o.den
        if not d2.is_constant():
            _, n1, d2 = _cofactors(n1, d2)
        if not d1.is_constant():
            _, n2, d1 = _cofactors(n2, d1)
        return RatFn._raw(n1 * n2, d1 * d2)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RatFn":
        o = _as_ratfn(self.chart, other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other) -> "RatFn":
        if isinstance(other, (int, Fraction)):
            # a scalar over a reduced fraction needs no gcd
            inv = self.inv()
            return RatFn._raw(inv.num * other, inv.den)
        o = _as_ratfn(self.chart, other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, k: int) -> "RatFn":
        k = _require_int(k, "the exponent", None)
        if k < 0:
            return self.inv() ** (-k)
        if k == 0:
            return self.chart.one()
        return RatFn._raw(self.num**k, self.den**k)

    def inv(self) -> "RatFn":
        if self.is_zero():
            raise ZeroDenominator("inverse of the zero function")
        return RatFn._raw(self.den, self.num)

    def diff(self, v: int | str) -> "RatFn":
        """Partial derivative by the quotient rule, reduced against Q and Q_v.

        With P/Q reduced and g, h, k = gcd, Q/g, Q_v/g, the derivative is
        (P_v h - P k) / (g h^2).  A prime factor of h divides Q but neither P
        nor k, so the numerator is coprime to h and only g is left to cancel.
        """
        v = _variable_index(self.chart, v)
        n, d = self.num, self.den
        if d._ints == _UNIT:
            return _over_one(_poly_diff(n, v), d)
        dv = _poly_diff(d, v)
        if dv.is_zero():
            return RatFn(_poly_diff(n, v), d)
        g, h, k = _cofactors(d, dv)
        num = _poly_diff(n, v) * h - n * k
        if not (num.is_zero() or g.is_constant()):
            _, num, g = _cofactors(num, g)
        return RatFn._raw(num, g * h * h)

    def substitute(self, values: Sequence["RatFn"]) -> "RatFn":
        den = self.den.substitute(values)
        if den.is_zero():
            raise ZeroDenominator("substitution sends denominator to zero")
        return self.num.substitute(values) / den

    def __str__(self) -> str:
        if self.den.is_constant():
            return poly_str(self.num)
        return f"({poly_str(self.num)})/({poly_str(self.den)})"

    def __repr__(self) -> str:
        return f"RatFn({self})"


_set_num, _set_rf_den = (RatFn.__dict__[n].__set__ for n in RatFn.__slots__)


def _over_one(num: MultiPoly, one: MultiPoly) -> RatFn:
    """The rational function num/1, with `one` the polynomial 1 on num's chart."""
    out = _new(RatFn)
    _set_num(out, num)
    _set_rf_den(out, one)
    return out


def rf_normalize(num: MultiPoly, den: MultiPoly) -> tuple[MultiPoly, MultiPoly]:
    """Reduce to coprime parts with monic denominator. Raises on zero denominator."""
    _require(MultiPoly, "a rational function", num, den)
    _require_same_chart(num.chart, "a rational function", den)
    if not (num.is_zero() or den.is_constant()):
        _, num, den = _cofactors(num, den)
    # _raw raises on a zero denominator and makes the denominator monic
    f = RatFn._raw(num, den)
    return f.num, f.den


def as_ratfn(chart: Chart, value) -> RatFn:
    """Coerce an int, Fraction, MultiPoly, or RatFn onto the chart."""
    _require(Chart, "as_ratfn chart", chart)
    f = _as_ratfn(chart, value)
    if f is None:
        raise GvError(f"cannot coerce {value!r} to a rational function")
    return f


def _as_ratfn(chart: Chart, value) -> "RatFn | None":
    """`value` as a RatFn on `chart`; None for a value of no scalar or function
    type, for which the `RatFn` operators return NotImplemented."""
    if isinstance(value, (RatFn, MultiPoly)):
        _require_same_chart(chart, "a rational function", value)
        return value if isinstance(value, RatFn) else RatFn._raw(value, _one(chart))
    if isinstance(value, (int, Fraction)):
        return chart.const(value)
    return None


def _gauss_jordan(rows: list[list], width: int) -> list[int]:
    """Row-reduce `rows` in place over their first `width` columns.

    Entries are Fractions or RatFns; pivots are tested with `!= 0`, which
    works on both.  Afterwards the rows are in reduced row echelon form in
    those columns: the returned pivot columns lead the first rows in order,
    and each pivot is 1 with zeros above and below it.
    """
    pivots: list[int] = []
    for col in range(width):
        r = len(pivots)
        if r == len(rows):
            break
        pivot = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][col]
        rows[r] = [x * inv for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[col] != 0:
                factor = row[col]
                rows[i] = [x - factor * y for x, y in zip(row, rows[r])]
        pivots.append(col)
    return pivots
