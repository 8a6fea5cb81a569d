"""Exact sparse multivariate polynomial and rational function arithmetic.

A polynomial is a dictionary mapping exponent tuples to nonzero scalars.  Over
characteristic zero the scalars are `fractions.Fraction`; over a prime field
F_p they are canonical residues in [0, p).  The zero polynomial is the empty
dictionary.  Monomials are ordered graded-lexicographically with respect to
the chart's variable order; every canonical choice below (leading terms, gcd
normalization, printing) refers to that order.

Rational functions are stored normalized: numerator and denominator coprime,
denominator monic.  Two equal rational functions therefore have identical
term dictionaries, and equality is literal dictionary comparison.

Input is validated at the boundary: `MultiPoly(chart, terms)` checks every
exponent and coerces every coefficient, while internal results, canonical by
construction, go through the trusted `MultiPoly._raw`, which checks nothing.

All values are immutable after construction and every operation returns a new
object, so instances can be shared freely between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add, sub
from typing import Iterable, Sequence, Union

from .errors import ChartMismatch, GvError, ZeroDenominator

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
        if not self.variables:
            raise GvError("chart needs at least one variable")
        if len(set(self.variables)) != len(self.variables):
            raise GvError("chart variables must be distinct")
        for v in self.variables:
            if not v.isidentifier():
                raise GvError(f"bad variable name {v!r}")
        p = self.characteristic
        if p != 0:
            if not _is_prime(p):
                raise GvError(f"characteristic {p} is not prime")
            if p >= 2**31:
                raise GvError("characteristic too large")

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
        return RatFn.from_poly(MultiPoly.var(self, name))

    def const(self, value: Scalar) -> "RatFn":
        return RatFn.from_poly(MultiPoly.const(self, value))

    def zero(self) -> "RatFn":
        return RatFn.from_poly(MultiPoly.zero(self))

    def one(self) -> "RatFn":
        return self.const(1)


def _coerce(chart: Chart, c) -> Scalar:
    """Normalize a coefficient into the chart's scalar domain."""
    p = chart.characteristic
    if p == 0:
        if isinstance(c, Fraction):
            return c
        if isinstance(c, int):
            return Fraction(c)
        raise GvError(f"bad coefficient {c!r} for characteristic 0")
    if isinstance(c, Fraction):
        den = c.denominator % p
        if den == 0:
            raise ZeroDenominator(f"coefficient {c} has no residue mod {p}")
        return (c.numerator % p) * pow(den, p - 2, p) % p
    if isinstance(c, int):
        return c % p
    raise GvError(f"bad coefficient {c!r} for characteristic {p}")


def _inv_scalar(chart: Chart, c: Scalar) -> Scalar:
    p = chart.characteristic
    if p == 0:
        return Fraction(1) / c
    return pow(int(c), p - 2, p)


def _grlex(exp: tuple[int, ...]) -> tuple:
    return (sum(exp), exp)


class MultiPoly:
    """A sparse multivariate polynomial attached to a chart.

    The constructor rejects malformed exponents and non-int, non-Fraction
    coefficients, reduces mod p and drops zeros; `_raw` trusts its input.
    """

    __slots__ = ("chart", "terms")

    def __init__(self, chart: Chart, terms: dict) -> None:
        clean: dict[tuple[int, ...], Scalar] = {}
        n = chart.dim
        for exp, c in terms.items():
            exp = tuple(exp)
            if len(exp) != n or any(e < 0 for e in exp):
                raise GvError(f"bad exponent {exp} for chart of dimension {n}")
            c = _coerce(chart, c)
            if c:
                clean[exp] = c
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _raw(cls, chart: Chart, terms: dict) -> "MultiPoly":
        """Trusted constructor: exponents well formed, coefficients canonical and nonzero."""
        out = object.__new__(cls)
        object.__setattr__(out, "chart", chart)
        object.__setattr__(out, "terms", terms)
        return out

    def __setattr__(self, *a) -> None:  # pragma: no cover - guard only
        raise AttributeError("MultiPoly is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, chart: Chart) -> "MultiPoly":
        return cls(chart, {})

    @classmethod
    def const(cls, chart: Chart, value: Scalar) -> "MultiPoly":
        return cls(chart, {(0,) * chart.dim: value})

    @classmethod
    def var(cls, chart: Chart, name: str) -> "MultiPoly":
        exp = [0] * chart.dim
        exp[chart.index(name)] = 1
        return cls(chart, {tuple(exp): 1})

    @classmethod
    def monomial(cls, chart: Chart, exp: Sequence[int], coeff: Scalar = 1) -> "MultiPoly":
        return cls(chart, {tuple(exp): coeff})

    # -- basic queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self) -> Scalar:
        if self.is_zero():
            return Fraction(0) if self.chart.characteristic == 0 else 0
        if not self.is_constant():
            raise GvError("not a constant polynomial")
        return next(iter(self.terms.values()))

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, v: int) -> int:
        if not self.terms:
            return -1
        return max(e[v] for e in self.terms)

    def leading(self) -> tuple[tuple[int, ...], Scalar]:
        """Leading (exponent, coefficient) in graded-lex order."""
        if not self.terms:
            raise GvError("zero polynomial has no leading term")
        exp = max(self.terms, key=_grlex)
        return exp, self.terms[exp]

    def coeff_of_power(self, v: int, k: int) -> "MultiPoly":
        """The coefficient of x_v^k, as a polynomial with x_v-exponent zero."""
        out = {}
        for e, c in self.terms.items():
            if e[v] == k:
                e2 = list(e)
                e2[v] = 0
                out[tuple(e2)] = c
        return MultiPoly._raw(self.chart, out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.chart == other.chart and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.chart, frozenset(self.terms.items())))

    # -- arithmetic ----------------------------------------------------

    def _check(self, other: "MultiPoly") -> None:
        if self.chart != other.chart:
            raise ChartMismatch("polynomials on different charts")

    def __add__(self, other) -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.chart, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check(other)
        p = self.chart.characteristic
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if p:
                s %= p
            if s:
                out[e] = s
            elif e in out:
                del out[e]
        return MultiPoly._raw(self.chart, out)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        p = self.chart.characteristic
        return MultiPoly._raw(self.chart, {e: (-c) % p if p else -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.chart, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "MultiPoly":
        return (-self) + other

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            c = _coerce(self.chart, other)
            if not c:
                return MultiPoly.zero(self.chart)
            p = self.chart.characteristic
            return MultiPoly._raw(
                self.chart,
                {e: (a * c) % p if p else a * c for e, a in self.terms.items()},
            )
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check(other)
        p = self.chart.characteristic
        out: dict[tuple[int, ...], Scalar] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, 0) + c1 * c2
                if p:
                    s %= p
                if s:
                    out[e] = s
                elif e in out:
                    del out[e]
        return MultiPoly._raw(self.chart, out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "MultiPoly":
        if k < 0:
            raise GvError("negative power of a polynomial")
        result = MultiPoly.const(self.chart, 1)
        base = self
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
        if self.is_zero():
            return self
        _, lc = self.leading()
        return self * _inv_scalar(self.chart, lc)

    # -- calculus ------------------------------------------------------

    def diff(self, v: int | str) -> "MultiPoly":
        """Partial derivative; in characteristic p the term c*x^p differentiates to 0."""
        if isinstance(v, str):
            v = self.chart.index(v)
        p = self.chart.characteristic
        out: dict[tuple[int, ...], Scalar] = {}
        for e, c in self.terms.items():
            k = e[v]
            if k == 0:
                continue
            s = c * k
            if p:
                s %= p
            if not s:
                continue
            e2 = list(e)
            e2[v] = k - 1
            out[tuple(e2)] = s
        return MultiPoly._raw(self.chart, out)

    def substitute(self, values: Sequence["RatFn"]) -> "RatFn":
        """Evaluate at rational functions, one per chart variable, on their chart."""
        if len(values) != self.chart.dim:
            raise GvError("substitute needs one value per variable")
        if not values:
            raise GvError("empty substitution")
        target = values[0].chart
        for v in values:
            if v.chart != target:
                raise ChartMismatch("substitution values on different charts")
        powers: list[dict[int, RatFn]] = [dict() for _ in values]

        def var_power(i: int, k: int) -> RatFn:
            cache = powers[i]
            if k not in cache:
                cache[k] = values[i] ** k
            return cache[k]

        total = target.zero()
        for e, c in self.terms.items():
            term = target.const(c if self.chart.characteristic == 0 else int(c))
            for i, k in enumerate(e):
                if k:
                    term = term * var_power(i, k)
            total = total + term
        return total

    # -- printing --------------------------------------------------------

    def __str__(self) -> str:
        return poly_str(self)

    def __repr__(self) -> str:
        return f"MultiPoly({poly_str(self)})"


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
    if f.is_zero():
        return "0"
    pieces = []
    for exp in sorted(f.terms, key=_grlex, reverse=True):
        s = _term_str(f.chart, exp, f.terms[exp])
        if not pieces:
            pieces.append(s)
        elif s.startswith("-"):
            pieces.append("- " + s[1:])
        else:
            pieces.append("+ " + s)
    return " ".join(pieces)


# -- gcd machinery -----------------------------------------------------


def _mono_content(f: MultiPoly) -> tuple[int, ...]:
    """Componentwise minimum exponent over all terms."""
    it = iter(f.terms)
    first = next(it)
    mins = list(first)
    for e in it:
        for i, k in enumerate(e):
            if k < mins[i]:
                mins[i] = k
    return tuple(mins)


def _mono_shift(f: MultiPoly, shift: tuple[int, ...]) -> MultiPoly:
    if not any(shift):
        return f
    return MultiPoly._raw(
        f.chart, {tuple(a - b for a, b in zip(e, shift)): c for e, c in f.terms.items()}
    )


def _prem(a: MultiPoly, b: MultiPoly, v: int) -> MultiPoly:
    """Pseudo-remainder of a by b with respect to variable v."""
    da, db = a.degree_in(v), b.degree_in(v)
    if da < db:
        return a
    chart = a.chart
    lb = b.coeff_of_power(v, db)
    xv = MultiPoly.var(chart, chart.variables[v])
    n = da - db + 1
    r = a
    while not r.is_zero():
        dr = r.degree_in(v)
        if dr < db:
            break
        lr = r.coeff_of_power(v, dr)
        r = lb * r - lr * xv ** (dr - db) * b
        n -= 1
    if n > 0:
        r = r * lb**n
    return r


def _content_in(f: MultiPoly, v: int) -> MultiPoly:
    """Gcd of the coefficients of f viewed as a polynomial in x_v."""
    content = MultiPoly.zero(f.chart)
    for k in range(f.degree_in(v) + 1):
        c = f.coeff_of_power(v, k)
        if not c.is_zero():
            content = _gcd_rec(content, c)
            if content.is_constant():
                break
    return content


def _gcd_rec(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """Primitive-PRS gcd; result is monic."""
    if a.is_zero():
        return b.monic()
    if b.is_zero():
        return a.monic()
    if a.terms == b.terms:
        return a.monic()
    sa = _mono_content(a)
    sb = _mono_content(b)
    shared = tuple(min(x, y) for x, y in zip(sa, sb))
    a = _mono_shift(a, sa)
    b = _mono_shift(b, sb)
    chart = a.chart
    out = MultiPoly.monomial(chart, shared)
    if a.is_constant() or b.is_constant():
        return out
    # main variable: the last chart variable occurring in either operand
    v = max(
        i
        for i in range(chart.dim)
        if a.degree_in(i) > 0 or b.degree_in(i) > 0
    )
    ca, cb = _content_in(a, v), _content_in(b, v)
    a = exact_div(a, ca)
    b = exact_div(b, cb)
    if a.degree_in(v) < b.degree_in(v):
        a, b = b, a
    while not b.is_zero():
        r = _prem(a, b, v)
        if not r.is_zero():
            r = exact_div(r, _content_in(r, v))
        a, b = b, r
    if a.degree_in(v) > 0:
        prim = a.monic()
    else:
        prim = MultiPoly.const(chart, 1)
    return (out * _gcd_rec(ca, cb) * prim).monic()


def poly_gcd(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """A greatest common divisor, monic under graded-lex; divides both inputs."""
    if a.chart != b.chart:
        raise ChartMismatch("gcd of polynomials on different charts")
    return _gcd_rec(a, b)


def exact_div(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """Exact quotient a / b; raises if b does not divide a."""
    if b.is_zero():
        raise ZeroDenominator("division by the zero polynomial")
    if a.is_zero():
        return a
    if b.is_constant():
        return a * _inv_scalar(a.chart, b.constant_value())
    chart = a.chart
    eb, cb = b.leading()
    inv = _inv_scalar(chart, cb)
    tail = [(sum(e), e, c) for e, c in b.terms.items() if e != eb]
    db = sum(eb)
    q: dict[tuple[int, ...], Scalar] = {}
    # remainder keyed by grlex key; each step cancels its leading term in place
    r = {(sum(e), e): c for e, c in a.terms.items()}
    p = chart.characteristic
    while r:
        key = max(r)
        cr = r.pop(key)
        diff = tuple(map(sub, key[1], eb))
        if min(diff) < 0:
            raise GvError("polynomial division is not exact")
        c = cr * inv
        if p:
            c %= p
        q[diff] = c
        dd = key[0] - db
        for d, e, ct in tail:
            k = (dd + d, tuple(map(add, diff, e)))
            s = r.get(k, 0) - c * ct
            if p:
                s %= p
            if s:
                r[k] = s
            else:
                r.pop(k, None)
    return MultiPoly._raw(chart, q)


def squarefree_decomposition(f: MultiPoly) -> list[tuple[MultiPoly, int]]:
    """Decompose f as a scalar times prod g_i^m_i with the g_i squarefree,
    monic, pairwise coprime, and the m_i distinct... up to the characteristic.

    In characteristic 0 this is the classical derivative-gcd sieve.  In
    characteristic p an irreducible factor whose multiplicity is divisible by
    p hides from every partial derivative; such factors survive the sieve as
    a p-th power, whose root is recovered by dividing every exponent by p
    (coefficients in the prime field are fixed by Frobenius) and recursing.
    """
    chart = f.chart
    if f.is_zero() or f.is_constant():
        return []
    p = chart.characteristic
    if p and all(f.diff(v).is_zero() for v in range(chart.dim)):
        # every exponent of every term is divisible by p
        root = MultiPoly._raw(
            chart, {tuple(e // p for e in exp): c for exp, c in f.terms.items()}
        )
        return [(g, m * p) for g, m in squarefree_decomposition(root)]
    f = f.monic()
    sieve = f
    for v in range(chart.dim):
        dv = f.diff(v)
        if not dv.is_zero():
            sieve = poly_gcd(sieve, dv)
        if sieve.is_constant():
            break
    # sieve carries each factor with multiplicity m-1, except multiples of p
    # which it carries in full; w is the product of the other factors, once each
    w = exact_div(f, sieve).monic()
    rest = sieve.monic()
    out: list[tuple[MultiPoly, int]] = []
    m = 1
    while not w.is_constant():
        y = poly_gcd(w, rest)
        part = exact_div(w, y)
        if not part.is_constant():
            out.append((part.monic(), m))
        w = y.monic()
        rest = exact_div(rest, y).monic()
        m += 1
    if not rest.is_constant():
        # exactly the factors with multiplicity divisible by p remain
        out.extend(squarefree_decomposition(rest))
    return out


class RatFn:
    """A normalized rational function: coprime parts, monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: MultiPoly) -> None:
        num, den = rf_normalize(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a) -> None:  # pragma: no cover - guard only
        raise AttributeError("RatFn is immutable")

    @classmethod
    def _raw(cls, num: MultiPoly, den: MultiPoly) -> "RatFn":
        """Trusted constructor: parts already coprime, den only needs scaling."""
        out = object.__new__(cls)
        if den.is_zero():
            raise ZeroDenominator("zero denominator")
        if num.is_zero():
            den = MultiPoly.const(num.chart, 1)
        else:
            _, lc = den.leading()
            if lc != 1:
                inv = _inv_scalar(num.chart, lc)
                num = num * inv
                den = den * inv
        object.__setattr__(out, "num", num)
        object.__setattr__(out, "den", den)
        return out

    @classmethod
    def from_poly(cls, num: MultiPoly) -> "RatFn":
        return cls._raw(num, MultiPoly.const(num.chart, 1))

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
        p = self.chart.characteristic
        c = self.num.constant_value()
        d = self.den.constant_value()
        return c / d if p == 0 else c * pow(int(d), p - 2, p) % p

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.chart.const(other)
        if not isinstance(other, RatFn):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def _coerce_other(self, other) -> "RatFn | None":
        if isinstance(other, RatFn):
            if other.chart != self.chart:
                raise ChartMismatch("rational functions on different charts")
            return other
        if isinstance(other, MultiPoly):
            return RatFn.from_poly(other)
        if isinstance(other, (int, Fraction)):
            return self.chart.const(other)
        return None

    def __add__(self, other) -> "RatFn":
        o = self._coerce_other(other)
        if o is None:
            return NotImplemented
        if self.is_zero():
            return o
        if o.is_zero():
            return self
        d1, d2 = self.den, o.den
        if d1 == d2:
            num = self.num + o.num
            g = poly_gcd(num, d1) if not d1.is_constant() else None
            if g is not None and not g.is_constant():
                return RatFn._raw(exact_div(num, g), exact_div(d1, g))
            return RatFn._raw(num, d1)
        if d1.is_constant() or d2.is_constant():
            return RatFn._raw(self.num * d2 + o.num * d1, d1 * d2)
        g = poly_gcd(d1, d2)
        if g.is_constant():
            # coprime denominators: the result is already reduced
            return RatFn._raw(self.num * d2 + o.num * d1, d1 * d2)
        u1 = exact_div(d1, g)
        u2 = exact_div(d2, g)
        num = self.num * u2 + o.num * u1
        g2 = poly_gcd(num, g)
        if not g2.is_constant():
            num = exact_div(num, g2)
            g = exact_div(g, g2)
        return RatFn._raw(num, g * u1 * u2)

    __radd__ = __add__

    def __neg__(self) -> "RatFn":
        return RatFn._raw(-self.num, self.den)

    def __sub__(self, other) -> "RatFn":
        o = self._coerce_other(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "RatFn":
        return (-self) + other

    def __mul__(self, other) -> "RatFn":
        o = self._coerce_other(other)
        if o is None:
            return NotImplemented
        if self.is_zero() or o.is_zero():
            return self.chart.zero()
        # cross-reduce; the cross-reduced product is then already coprime
        n1, d1, n2, d2 = self.num, self.den, o.num, o.den
        if not d2.is_constant():
            g1 = poly_gcd(n1, d2)
            if not g1.is_constant():
                n1 = exact_div(n1, g1)
                d2 = exact_div(d2, g1)
        if not d1.is_constant():
            g2 = poly_gcd(n2, d1)
            if not g2.is_constant():
                n2 = exact_div(n2, g2)
                d1 = exact_div(d1, g2)
        return RatFn._raw(n1 * n2, d1 * d2)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RatFn":
        o = self._coerce_other(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other) -> "RatFn":
        o = self._coerce_other(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, k: int) -> "RatFn":
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
        """Partial derivative by the quotient rule."""
        if isinstance(v, str):
            v = self.chart.index(v)
        n, d = self.num, self.den
        return RatFn(n.diff(v) * d - n * d.diff(v), d * d)

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


def rf_normalize(num: MultiPoly, den: MultiPoly) -> tuple[MultiPoly, MultiPoly]:
    """Reduce to coprime parts with monic denominator. Raises on zero denominator."""
    if num.chart != den.chart:
        raise ChartMismatch("numerator and denominator on different charts")
    if den.is_zero():
        raise ZeroDenominator("zero denominator")
    chart = num.chart
    if num.is_zero():
        return num, MultiPoly.const(chart, 1)
    if not den.is_constant():
        g = poly_gcd(num, den)
        if not g.is_constant():
            num = exact_div(num, g)
            den = exact_div(den, g)
    _, lc = den.leading()
    if lc != 1:
        inv = _inv_scalar(chart, lc)
        num = num * inv
        den = den * inv
    return num, den


def as_ratfn(chart: Chart, value) -> RatFn:
    """Coerce an int, Fraction, MultiPoly, or RatFn onto the chart."""
    if isinstance(value, RatFn):
        if value.chart != chart:
            raise ChartMismatch("value on a different chart")
        return value
    if isinstance(value, MultiPoly):
        if value.chart != chart:
            raise ChartMismatch("value on a different chart")
        return RatFn.from_poly(value)
    if isinstance(value, (int, Fraction)):
        return chart.const(value)
    raise GvError(f"cannot coerce {value!r} to a rational function")
