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

Greatest common divisors and exact division run on plain term dictionaries.
`_cofactors(a, b)` returns the monic gcd g with a/g and b/g, and every
reduction of a fraction is one call to it.  Over Q it scales both operands
once to primitive integer polynomials, runs a primitive PRS over Z and
divides those same integer polynomials by the gcd; over F_p the same PRS
runs on residues.  The monic gcd is unique, so it does not depend on the route.

All values are immutable after construction and every operation returns a new
object, so instances can be shared freely between threads.
"""

from __future__ import annotations

import math
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
        if not isinstance(self.variables, tuple):
            raise GvError(f"chart variables must be a tuple, not {self.variables!r}")
        if type(self.characteristic) is not int:
            raise GvError(f"bad characteristic {self.characteristic!r}")
        if not self.variables:
            raise GvError("chart needs at least one variable")
        for v in self.variables:
            if not (isinstance(v, str) and v.isidentifier()):
                raise GvError(f"bad variable name {v!r}")
        if len(set(self.variables)) != len(self.variables):
            raise GvError("chart variables must be distinct")
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
        if not isinstance(chart, Chart):
            raise GvError(f"a polynomial needs a Chart, not {chart!r}")
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
        return MultiPoly._raw(self.chart, _coeffs(self.terms, v).get(k, {}))

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
        return MultiPoly._raw(
            self.chart, _mul_terms(self.terms, other.terms, self.chart.characteristic)
        )

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


# -- term-dict core --------------------------------------------------------
#
# Plain {exponent: coefficient} dicts, reduced mod p when p > 0.  Product and
# split also serve MultiPoly over Q; division and gcd need int coefficients
# when p = 0, so there they work over Z.


def _mul_terms(a: dict, b: dict, p: int, out: dict | None = None) -> dict:
    """Add the product of term dicts a and b into out (a new dict by default)."""
    out = {} if out is None else out
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            s = out.get(e, 0) + c1 * c2
            if p:
                s %= p
            if s:
                out[e] = s
            elif e in out:
                del out[e]
    return out


def _coeffs(terms: dict, v: int) -> dict[int, dict]:
    """Split by the exponent of x_v: k -> coefficient of x_v^k, its x_v-exponent zero."""
    out: dict[int, dict] = {}
    for e, c in terms.items():
        k = e[v]
        out.setdefault(k, {})[e[:v] + (0,) + e[v + 1 :] if k else e] = c
    return out


def _div_terms(a: dict, b: dict, p: int) -> dict:
    """Exact quotient of nonzero term dicts over Z or F_p; raises unless b divides a."""
    eb = max(b, key=_grlex)
    lc = b[eb]
    inv = pow(lc, p - 2, p) if p else None
    tail = [(sum(e), e, c) for e, c in b.items() if e != eb]
    db = sum(eb)
    q = {}
    # remainder keyed by grlex key; each step cancels its leading term in place
    r = {(sum(e), e): c for e, c in a.items()}
    while r:
        key = max(r)
        cr = r.pop(key)
        diff = tuple(map(sub, key[1], eb))
        c = cr * inv % p if p else cr // lc
        if min(diff) < 0 or (not p and c * lc != cr):
            raise GvError("polynomial division is not exact")
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
    return q


def _min_exp(exps) -> tuple[int, ...]:
    """Componentwise minimum of exponent tuples: the monomial content."""
    return tuple(map(min, zip(*exps)))


def _normal(terms: dict, p: int) -> dict:
    """Over Z: no integer content and a positive leading coefficient; over F_p: monic."""
    lc = terms[max(terms, key=_grlex)]
    if p:
        inv = pow(lc, p - 2, p)
        return {e: c * inv % p for e, c in terms.items()} if inv != 1 else terms
    g = math.gcd(*terms.values())
    g = -g if lc < 0 else g
    return {e: c // g for e, c in terms.items()} if g != 1 else terms


def _primitive(f: dict, v: int, p: int) -> tuple[dict, dict]:
    """(primitive part, content) of f as a polynomial in x_v."""
    parts = sorted(_coeffs(f, v).values(), key=len)
    content = parts[0]
    one = {(0,) * len(next(iter(f))): 1}
    for c in parts[1:]:
        content = _gcd_terms(content, c, p)
        if content == one:
            break
    return _normal(_div_terms(f, content, p), p), content


def _gcd_terms(a: dict, b: dict, p: int) -> dict:
    """A gcd of nonzero term dicts over Z (p = 0) or F_p, normalized by `_normal`.

    Primitive PRS (W. S. Brown, J. ACM 18, 1971) in the last variable that
    occurs, with the contents in that variable taken recursively.
    """
    if len(a) == 1 or len(b) == 1:
        # every divisor of a monomial is a monomial
        return {_min_exp([*a, *b]): 1}
    if a == b:
        return _normal(a, p)
    sa, sb = _min_exp(a), _min_exp(b)
    shared = {tuple(map(min, sa, sb)): 1}
    if any(sa):
        a = {tuple(map(sub, e, sa)): c for e, c in a.items()}
    if any(sb):
        b = {tuple(map(sub, e, sb)): c for e, c in b.items()}
    v = max(i for i, d in enumerate(map(max, zip(*a, *b))) if d)
    a, ca = _primitive(a, v, p)
    b, cb = _primitive(b, v, p)
    if max(e[v] for e in a) < max(e[v] for e in b):
        a, b = b, a
    while b:
        # pseudo-remainder of a by b in x_v, then its primitive part
        parts = _coeffs(b, v)
        db = max(parts)
        lb = parts[db]
        r = a
        while r:
            parts = _coeffs(r, v)
            dr = max(parts)
            if dr < db:
                break
            lr = {e[:v] + (dr - db,) + e[v + 1 :]: -c for e, c in parts[dr].items()}
            r = _mul_terms(lr, b, p, _mul_terms(lb, r, p))
        a, b = b, _primitive(r, v, p)[0] if r else r
    g = _mul_terms(shared, _gcd_terms(ca, cb, p), p)
    # products of normalized factors are normalized (Gauss's lemma over Z)
    return _mul_terms(g, a, p) if max(e[v] for e in a) else g


def _integral(terms: dict) -> tuple[Fraction, dict]:
    """(s, s*f) for a nonzero f over Q, s > 0 and s*f a primitive integer term dict."""
    den = math.lcm(*(c.denominator for c in terms.values()))
    num = math.gcd(*(c.numerator for c in terms.values()))
    return Fraction(den, num), {
        e: c.numerator // num * (den // c.denominator) for e, c in terms.items()
    }


def _cofactors(a: MultiPoly, b: MultiPoly) -> tuple[MultiPoly, MultiPoly, MultiPoly]:
    """(g, a/g, b/g) for nonzero a and b on one chart, g their monic gcd.

    A constant g comes back with a and b themselves.  Over Q each operand is
    scaled to a primitive integer polynomial once, and the same integer
    polynomials are divided by the integer gcd before scaling back.
    """
    chart = a.chart
    ta, tb = a.terms, b.terms
    if len(ta) == 1 or len(tb) == 1:
        # every divisor of a monomial is a monomial
        m = _min_exp([*ta, *tb])
        g = MultiPoly.monomial(chart, m)
        if not any(m):
            return g, a, b
        return g, *(
            MultiPoly._raw(chart, {tuple(map(sub, e, m)): c for e, c in t.items()})
            for t in (ta, tb)
        )
    p = chart.characteristic
    if not p:
        sa, ta = _integral(ta)
        sb, tb = _integral(tb)
    h = _gcd_terms(ta, tb, p)
    lc = 1 if p else h[max(h, key=_grlex)]
    g = MultiPoly._raw(chart, h if p else {e: Fraction(c, lc) for e, c in h.items()})
    if g.is_constant():
        return g, a, b
    qa, qb = (MultiPoly._raw(chart, _div_terms(t, h, p)) for t in (ta, tb))
    if not p:
        # a = ta/sa and g = h/lc, so a/g = (lc/sa) * ta/h
        qa, qb = qa * (lc / sa), qb * (lc / sb)
    return g, qa, qb


def poly_gcd(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """The greatest common divisor, monic under graded-lex; divides both inputs."""
    if a.chart != b.chart:
        raise ChartMismatch("gcd of polynomials on different charts")
    if a.is_zero():
        return b.monic()
    if b.is_zero():
        return a.monic()
    return _cofactors(a, b)[0]


def exact_div(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """Exact quotient a / b; raises if b does not divide a."""
    if b.is_zero():
        raise ZeroDenominator("division by the zero polynomial")
    if a.is_zero():
        return a
    if b.is_constant():
        return a * _inv_scalar(a.chart, b.constant_value())
    p = a.chart.characteristic
    if p:
        return MultiPoly._raw(a.chart, _div_terms(a.terms, b.terms, p))
    # by Gauss's lemma the quotient by a primitive integer divisor is integral
    sa, ia = _integral(a.terms)
    sb, ib = _integral(b.terms)
    return MultiPoly._raw(a.chart, _div_terms(ia, ib, 0)) * (sb / sa)


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
            if not other:
                return self.is_zero()  # no constant to build for the common test
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
            _, n1, d2 = _cofactors(n1, d2)
        if not d1.is_constant():
            _, n2, d1 = _cofactors(n2, d1)
        return RatFn._raw(n1 * n2, d1 * d2)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RatFn":
        o = self._coerce_other(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other) -> "RatFn":
        if isinstance(other, (int, Fraction)):
            # a scalar over a reduced fraction needs no gcd
            inv = self.inv()
            return RatFn._raw(inv.num * other, inv.den)
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
    if not (num.is_zero() or den.is_constant()):
        _, num, den = _cofactors(num, den)
    # _raw raises on a zero denominator and makes the denominator monic
    f = RatFn._raw(num, den)
    return f.num, f.den


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
