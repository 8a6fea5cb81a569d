"""Property and oracle tests for polynomial arithmetic over Q and F_p.

Every result computed inside `field` skips validation, so each one is
checked to be canonical: it survives a round trip through the validating
constructor, has no zero coefficient, and keeps its coefficients in the
scalar domain (`Fraction` over Q, ints in [0, p) over F_p).  Division and
gcd are compared against sympy over QQ and GF(p).
"""

from __future__ import annotations

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from gvcalc import (
    Chart,
    GvError,
    MultiPoly,
    exact_div,
    poly_gcd,
    squarefree_decomposition,
)

PRIMES = (0, 2, 3, 5, 7)
X, Y = sympy.symbols("x y")
SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def plane(p: int) -> Chart:
    return Chart(("x", "y"), p)


def polys(p: int, max_terms: int = 5, max_exp: int = 3):
    if p == 0:
        coeff = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    else:
        coeff = st.integers(min_value=0, max_value=p - 1)
    exps = st.tuples(st.integers(0, max_exp), st.integers(0, max_exp))
    return st.dictionaries(exps, coeff, max_size=max_terms).map(
        lambda terms: MultiPoly(plane(p), terms)
    )


def nonconstant(p: int, **sizes):
    return polys(p, **sizes).filter(lambda f: not f.is_constant())


def assert_canonical(f: MultiPoly) -> None:
    p = f.chart.characteristic
    again = MultiPoly(f.chart, f.terms)
    assert again == f and again.terms == f.terms
    for e, c in f.terms.items():
        assert type(e) is tuple and len(e) == f.chart.dim
        assert all(type(k) is int and k >= 0 for k in e)
        assert c != 0
        if p == 0:
            assert type(c) is Fraction
        else:
            assert type(c) is int and 0 < c < p


def to_sympy(f: MultiPoly) -> sympy.Poly:
    p = f.chart.characteristic
    if p == 0:
        terms = {e: sympy.Rational(c.numerator, c.denominator) for e, c in f.terms.items()}
        return sympy.Poly.from_dict(terms or {(0, 0): 0}, X, Y, domain=sympy.QQ)
    # a copy: sympy converts the values of the dict it is given in place
    return sympy.Poly.from_dict(dict(f.terms) or {(0, 0): 0}, X, Y, modulus=p)


def from_sympy(g: sympy.Poly, chart: Chart) -> MultiPoly:
    p = chart.characteristic
    terms = {}
    for e, c in g.as_dict().items():
        if p == 0:
            c = sympy.Rational(c)
            terms[e] = Fraction(int(c.p), int(c.q))
        else:
            terms[e] = int(c) % p
    return MultiPoly(chart, terms)


@pytest.mark.parametrize("p", PRIMES)
def test_arithmetic_results_are_canonical(p):
    @SETTINGS
    @given(polys(p), polys(p))
    def check(a, b):
        for f in (a + b, a - b, b - a, -a, a * b, a * 3, a ** 2, a.monic()):
            assert_canonical(f)
        for v in range(2):
            assert_canonical(a.diff(v))
            for k in range(3):
                assert_canonical(a.coeff_of_power(v, k))
        assert (a - a).is_zero()
        assert a + b == b + a and a * b == b * a

    check()


@pytest.mark.parametrize("p", PRIMES)
def test_exact_div_inverts_mul(p):
    @SETTINGS
    @given(polys(p), polys(p).filter(lambda f: not f.is_zero()))
    def check(a, b):
        q = exact_div(a * b, b)
        assert_canonical(q)
        assert q == a

    check()


@pytest.mark.parametrize("p", PRIMES)
def test_exact_div_rejects_a_remainder(p):
    @SETTINGS
    @given(polys(p), nonconstant(p))
    def check(a, b):
        # a nonconstant b never divides a*b + 1
        with pytest.raises(GvError, match="not exact"):
            exact_div(a * b + 1, b)

    check()


@pytest.mark.parametrize("p", PRIMES)
def test_exact_div_agrees_with_sympy_div(p):
    @SETTINGS
    @given(polys(p), polys(p).filter(lambda f: not f.is_zero()), st.booleans())
    def check(a, b, product):
        if product:
            a = a * b
        q, r = sympy.div(to_sympy(a), to_sympy(b))
        if r.is_zero:
            assert exact_div(a, b) == from_sympy(q, a.chart)
        else:
            with pytest.raises(GvError):
                exact_div(a, b)

    check()


@pytest.mark.parametrize("p", PRIMES)
def test_gcd_agrees_with_sympy(p):
    @SETTINGS
    @given(
        polys(p, max_terms=4, max_exp=2),
        polys(p, max_terms=4, max_exp=2),
        polys(p, max_terms=3, max_exp=2),
    )
    def check(a, b, c):
        a, b = a * c, b * c
        g = poly_gcd(a, b)
        assert_canonical(g)
        expected = from_sympy(sympy.gcd(to_sympy(a), to_sympy(b)), a.chart)
        assert g == expected.monic()
        if not g.is_zero():
            assert_canonical(exact_div(a, g))
            assert_canonical(exact_div(b, g))

    check()


@pytest.mark.parametrize("p", PRIMES)
def test_squarefree_parts_are_canonical(p):
    @SETTINGS
    # small factors: the PRS gcd over Q swells past seconds on a*a*b with
    # five-term factors of degree 3 in each variable
    @given(
        nonconstant(p, max_terms=3, max_exp=2),
        polys(p, max_terms=3, max_exp=1),
    )
    def check(a, b):
        f = a * a * b
        prod = MultiPoly.const(f.chart, 1)
        for g, m in squarefree_decomposition(f):
            assert_canonical(g)
            prod = prod * g**m
        # the parts recover f up to its leading coefficient
        assert exact_div(f, prod).is_constant()

    check()
