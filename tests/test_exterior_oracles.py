"""Oracle tests for the exterior calculus.

`ext_d`, `wedge`, `interior` and sums are compared with the coordinate
formulas

    (d a)_J    = sum_k (-1)^k d/dx_{j_k} a_{J - j_k},
    (a ^ b)_J  = sum_{I + K = J} sign(I, K) a_I b_K,
    (i_X a)_K  = sum_{j not in K} (-1)^{pos(j, K + j)} X_j a_{K + j},
    (a +- b)_J = a_J +- b_J,

evaluated with sympy's polynomial derivatives and products on unreduced
fractions (sign(I, K) is the signature of the shuffle that sorts I + K, and
pos(j, K + j) the position of j in the sorted K + j), over Q and F_5 on
charts of 2 and 3 variables.  Every stored coefficient must be nonzero.
d o d = 0, the Leibniz rule and the naturality of `pullback` are checked on
the same forms.  Over Q and F_2 .. F_7, `wedge` and `ext_d` of polynomial
forms, which sum in place on term dicts, are compared with the same
operations on the forms times a fraction, which sum `RatFn` pairs; a wedge
and a derivative whose terms are of both kinds at one index are checked by
hand and against sympy.  On four variables with rational coefficients,
Omega ^ d Omega of a triple extended to a 1-form is compared with sympy's
rational function field.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.combinatorics import Permutation
from sympy.polys.fields import field as sympy_field

from gvcalc import (
    Chart,
    DiffForm,
    MultiPoly,
    RatFn,
    Triple,
    VectorField,
    ext_d,
    interior,
    pullback,
    wedge,
)
from gvcalc.zseries import FormalOmega, to_extended_form

SETTINGS = settings(max_examples=25, deadline=None, derandomize=True, database=None)

CHARTS = [Chart(names, p) for p in (0, 5) for names in (("x", "y"), ("x", "y", "w"))]
SPACE = Chart(("x", "y", "z"))


def chart_id(chart: Chart) -> str:
    return f"{''.join(chart.variables)}-p{chart.characteristic}"


def polys(chart: Chart, max_terms: int = 3, max_exp: int = 2):
    p = chart.characteristic
    if p:
        coeff = st.integers(min_value=0, max_value=p - 1)
    else:
        coeff = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    exps = st.tuples(*[st.integers(0, max_exp)] * chart.dim)
    return st.dictionaries(exps, coeff, max_size=max_terms).map(
        lambda terms: MultiPoly(chart, terms)
    )


def ratfns(chart: Chart):
    """Mostly polynomials, sometimes over a nonzero denominator of up to 3 terms."""
    dens = st.one_of(
        st.just(MultiPoly.const(chart, 1)),
        polys(chart, max_terms=3, max_exp=2).filter(lambda d: not d.is_zero()),
    )
    return st.builds(RatFn, polys(chart), dens)


def forms(chart: Chart, degree: int, coeffs=None):
    """Forms of one degree, with `ratfns` coefficients unless told otherwise."""
    coeffs = ratfns(chart) if coeffs is None else coeffs
    indices = list(combinations(range(chart.dim), degree))
    return st.lists(coeffs, min_size=len(indices), max_size=len(indices)).map(
        lambda cs: DiffForm(chart, degree, dict(zip(indices, cs)))
    )


def any_form(chart: Chart, coeffs=None):
    return st.integers(0, chart.dim).flatmap(lambda deg: forms(chart, deg, coeffs))


def same_degree_pairs(chart: Chart):
    return st.integers(0, chart.dim).flatmap(
        lambda deg: st.tuples(forms(chart, deg), forms(chart, deg))
    )


def vector_fields(chart: Chart):
    return st.lists(ratfns(chart), min_size=chart.dim, max_size=chart.dim).map(
        lambda cs: VectorField(chart, cs)
    )


def form_pairs(chart: Chart, coeffs=None):
    """Pairs (a, b) with deg a + deg b <= dim, so that a ^ b can be nonzero."""
    return st.integers(0, chart.dim).flatmap(
        lambda da: st.tuples(
            forms(chart, da, coeffs),
            st.integers(0, chart.dim - da).flatmap(lambda db: forms(chart, db, coeffs)),
        )
    )


# -- the sympy side: a coefficient is an unreduced fraction (num, den) -----


def to_sympy(f: MultiPoly) -> sympy.Poly:
    chart = f.chart
    gens = sympy.symbols(chart.variables)
    terms = {
        e: sympy.Rational(c.numerator, c.denominator) if isinstance(c, Fraction) else c
        for e, c in f.terms.items()
    }
    terms = terms or {(0,) * chart.dim: 0}
    if chart.characteristic:
        return sympy.Poly.from_dict(terms, *gens, modulus=chart.characteristic)
    return sympy.Poly.from_dict(terms, *gens, domain=sympy.QQ)


def fraction_of(f: RatFn):
    return to_sympy(f.num), to_sympy(f.den)


def frac_add(a, b):
    return a[0] * b[1] + b[0] * a[1], a[1] * b[1]


def frac_mul(a, b, sign: int = 1):
    return a[0] * b[0] * sign, a[1] * b[1]


def frac_diff(a, gen):
    num, den = a
    return num.diff(gen) * den - num * den.diff(gen), den * den


def oracle_d(a: DiffForm) -> dict:
    gens = sympy.symbols(a.chart.variables)
    out = {}
    for J in combinations(range(a.chart.dim), a.degree + 1):
        acc = None
        for k, j in enumerate(J):
            rest = J[:k] + J[k + 1 :]
            if rest in a.terms:
                term = frac_diff(fraction_of(a.terms[rest]), gens[j])
                term = (term[0] * (-1) ** k, term[1])
                acc = term if acc is None else frac_add(acc, term)
        if acc is not None:
            out[J] = acc
    return out


def oracle_wedge(a: DiffForm, b: DiffForm) -> dict:
    out = {}
    for J in combinations(range(a.chart.dim), a.degree + b.degree):
        acc = None
        for I in combinations(J, a.degree):
            K = tuple(j for j in J if j not in I)
            if I in a.terms and K in b.terms:
                sign = Permutation([J.index(j) for j in I + K]).signature()
                term = frac_mul(fraction_of(a.terms[I]), fraction_of(b.terms[K]), sign)
                acc = term if acc is None else frac_add(acc, term)
        if acc is not None:
            out[J] = acc
    return out


def oracle_interior(x: VectorField, a: DiffForm) -> dict:
    out = {}
    for K in combinations(range(a.chart.dim), a.degree - 1):
        acc = None
        for j in range(a.chart.dim):
            J = tuple(sorted(K + (j,)))
            if j not in K and J in a.terms:
                sign = (-1) ** J.index(j)
                term = frac_mul(fraction_of(x.components[j]), fraction_of(a.terms[J]), sign)
                acc = term if acc is None else frac_add(acc, term)
        if acc is not None:
            out[K] = acc
    return out


def oracle_sum(a: DiffForm, b: DiffForm, sign: int) -> dict:
    out = {J: fraction_of(c) for J, c in a.terms.items()}
    for J, c in b.terms.items():
        num, den = fraction_of(c)
        term = (num * sign, den)
        out[J] = frac_add(out[J], term) if J in out else term
    return out


def assert_matches(ours: DiffForm, oracle: dict) -> None:
    assert all(not c.is_zero() for c in ours.terms.values())
    for J in set(ours.terms) | set(oracle):
        num, den = fraction_of(ours.coeff(J))
        onum, oden = oracle.get(J, (num * 0, den))
        assert (num * oden - onum * den).is_zero, J


# -- tests ----------------------------------------------------------------------


@pytest.mark.parametrize("chart", CHARTS, ids=chart_id)
def test_ext_d_matches_sympy_derivatives(chart):
    @SETTINGS
    @given(any_form(chart))
    def check(a):
        assert_matches(ext_d(a), oracle_d(a))

    check()


@pytest.mark.parametrize("chart", CHARTS, ids=chart_id)
def test_wedge_matches_sympy_products(chart):
    @settings(SETTINGS, max_examples=50)
    @given(form_pairs(chart))
    def check(pair):
        a, b = pair
        assert_matches(wedge(a, b), oracle_wedge(a, b))

    check()


@pytest.mark.parametrize("chart", CHARTS, ids=chart_id)
def test_interior_matches_sympy_products(chart):
    @SETTINGS
    @given(vector_fields(chart), st.integers(1, chart.dim).flatmap(lambda deg: forms(chart, deg)))
    def check(x, a):
        assert_matches(interior(x, a), oracle_interior(x, a))

    check()


@pytest.mark.parametrize("chart", CHARTS, ids=chart_id)
def test_sums_match_sympy_sums(chart):
    @SETTINGS
    @given(same_degree_pairs(chart))
    def check(pair):
        a, b = pair
        assert_matches(a + b, oracle_sum(a, b, 1))
        assert_matches(a - b, oracle_sum(a, b, -1))
        assert_matches(a - a, oracle_sum(a, a, -1))

    check()


@pytest.mark.parametrize("chart", CHARTS, ids=chart_id)
def test_d_squared_vanishes(chart):
    @SETTINGS
    @given(any_form(chart))
    def check(a):
        assert ext_d(ext_d(a)).is_zero()

    check()


@pytest.mark.parametrize("chart", CHARTS, ids=chart_id)
def test_leibniz_rule(chart):
    @SETTINGS
    @given(form_pairs(chart))
    def check(pair):
        a, b = pair
        lhs = ext_d(wedge(a, b))
        rhs = wedge(ext_d(a), b) + wedge(a, ext_d(b)) * (-1) ** a.degree
        assert lhs == rhs

    check()


@pytest.mark.parametrize("chart", CHARTS, ids=chart_id)
def test_pullback_commutes_with_d(chart):
    """pullback(phi, d a) == d pullback(phi, a) for polynomial phi and a.

    Polynomial coefficients keep the substitution defined: a rational one
    could send its denominator to zero.
    """
    source = Chart(("s", "t"), chart.characteristic)
    maps = st.lists(polys(source, max_terms=2), min_size=chart.dim, max_size=chart.dim)
    coeffs = polys(chart).map(RatFn.from_poly)

    @SETTINGS
    @given(maps.map(lambda ps: [RatFn.from_poly(q) for q in ps]), any_form(chart, coeffs))
    def check(phi, a):
        assert pullback(phi, ext_d(a)) == ext_d(pullback(phi, a))

    check()


PRIME_CHARTS = [Chart(names, p) for p in (0, 2, 3, 5, 7) for names in (("x", "y"), ("x", "y", "w"))]


@pytest.mark.parametrize("chart", PRIME_CHARTS, ids=chart_id)
def test_polynomial_sums_agree_with_the_rational_path(chart):
    """`wedge` and `ext_d` of polynomial forms add every term in place; scaled
    by the fraction f = 1/(x + 2), the same products and derivatives are
    kept as `RatFn` pairs (all of them, unless a coefficient of a is
    divisible by x + 2), which `exterior._FormSum` adds in `_collect`:

        (a ^ b) f = (a f) ^ b,    (b ^ a) f = b ^ (a f),    d a = (d(a f) - df ^ a) / f.

    Over Q the coefficients carry integer denominators up to 6, so a sum
    meets terms over different denominators.
    """
    f = 1 / (chart.var("x") + 2)
    df = ext_d(f)
    pairs = form_pairs(chart, polys(chart).map(RatFn.from_poly))

    @settings(SETTINGS, max_examples=40)
    @given(pairs)
    def check(pair):
        a, b = pair
        af = a * f
        assert wedge(a, b) * f == wedge(af, b)
        assert wedge(b, a) * f == wedge(b, af)
        assert ext_d(a) == (ext_d(af) - wedge(df, a)) / f

    check()


TWO_VARIABLES = [Chart(("x", "y"), p) for p in (0, 5)]


@pytest.mark.parametrize("chart", TWO_VARIABLES, ids=chart_id)
def test_terms_of_both_kinds_cancel_at_one_index(chart):
    """a ^ b = 0 for a = dx/(x + 1) + dy and b = dx + (x + 1) dy: at (0, 1)
    the fractional pair (1/(x + 1))(x + 1) meets the in-place product -1."""
    x1 = chart.var("x") + 1
    a = DiffForm.one_form(chart, [1 / x1, 1])
    b = DiffForm.one_form(chart, [1, x1])
    ab = wedge(a, b)
    assert (ab.degree, ab.terms) == (2, {})
    assert wedge(b, a).terms == {}


@pytest.mark.parametrize("chart", TWO_VARIABLES, ids=chart_id)
def test_ext_d_of_a_polynomial_and_a_fractional_coefficient_matches_sympy(chart):
    """d(P dx + R dy), P a polynomial added in place and R a fraction kept as
    a pair, both landing on (0, 1)."""
    x, y = chart.var("x"), chart.var("y")
    a = DiffForm.one_form(chart, [x * y**2 + 3, (x + 2) / (y**2 + x + 1)])
    da = ext_d(a)
    assert set(da.terms) == {(0, 1)}
    assert_matches(da, oracle_d(a))


def random_triple(rng: random.Random) -> Triple:
    """Three 1-forms on (x, y, z) whose coefficients have numerators of at
    most 3 terms over nonzero denominators of at most 2 terms."""

    def poly(terms: int) -> MultiPoly:
        out = {}
        for _ in range(terms):
            e = tuple(rng.randint(0, 2) for _ in range(3))
            out[e] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        return MultiPoly(SPACE, out)

    def coeff() -> RatFn:
        den = poly(rng.randint(1, 2))
        while den.is_zero():
            den = poly(rng.randint(1, 2))
        return RatFn(poly(rng.randint(0, 3)), den)

    def form() -> DiffForm:
        return DiffForm(SPACE, 1, {(i,): coeff() for i in range(3)})

    w0 = form()
    while w0.is_zero():
        w0 = form()
    return Triple(w0, form(), form())


def test_wedge_of_an_extended_triple_matches_sympy():
    """Omega ^ d Omega for Omega = dt + w0 + t w1 + t^2 w2 on four variables.

    The tree before the heuristic gcd ran for more than 20 s on this draw
    (its `RatFn` sums reduce through the PRS).  The oracle builds Omega from
    the triple in sympy's field QQ(x, y, z, t), which cancels every result,
    and applies the coordinate formulas.
    """
    triple = random_triple(random.Random(1))
    omega = to_extended_form(FormalOmega(SPACE, triple.converted("half").forms), "t")
    ours = wedge(omega, ext_d(omega))

    K, *gens = sympy_field("x,y,z,t", sympy.QQ)

    def lift_poly(f: MultiPoly):
        monomials = (
            K(sympy.Rational(c.numerator, c.denominator)) * math.prod(g**k for g, k in zip(gens, e))
            for e, c in f.terms.items()
        )
        return sum(monomials, K(0))

    def lift(f: RatFn):
        return lift_poly(f.num) / lift_poly(f.den)

    t = gens[3]
    om = [
        sum((t**k * lift(w.coeff((i,))) for k, w in enumerate(triple.forms)), K(0))
        for i in range(3)
    ]
    om.append(K(1))
    d = {(i, j): om[j].diff(gens[i]) - om[i].diff(gens[j]) for i, j in combinations(range(4), 2)}
    assert set(ours.terms) <= set(combinations(range(4), 3))
    for i, j, k in combinations(range(4), 3):
        expected = om[i] * d[j, k] - om[j] * d[i, k] + om[k] * d[i, j]
        assert lift(ours.coeff((i, j, k))) == expected, (i, j, k)
