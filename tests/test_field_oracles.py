"""Property and oracle tests for polynomial arithmetic over Q and F_p.

Every result computed inside `field` skips validation, so each one is
checked to be canonical: it survives a round trip through the validating
constructor, has no zero coefficient, keeps its coefficients in the scalar
domain (`Fraction` over Q, ints in [0, p) over F_p), and its stored integers
are in canonical form (a positive denominator coprime to the content of the
numerators; denominator 1 over F_p).  Division, gcd, gcd with cofactors and
squarefree decomposition are compared against sympy over QQ and GF(p).  The
integer core is compared, operation by operation, with plain loops over
`Fraction` coefficients on large numerators and denominators, and the
scalar shortcuts of `RatFn` with its general path.  The kernels on packed
monomial keys are compared with the same loops on exponent tuples, and every
stored key is checked to be a well-formed packing of its exponents.  Over Q
the heuristic gcd is compared with the PRS it falls back to, and with sympy.
Over F_p the routes that answer before the PRS, a univariate Euclid and a
coprimality proof from univariate images, are compared with sympy too.
"""

from __future__ import annotations

from fractions import Fraction

import math
import signal
from functools import reduce
from operator import add, mul

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gvcalc import (
    Chart,
    GvError,
    MultiPoly,
    RatFn,
    ZeroDenominator,
    exact_div,
    poly_gcd,
    squarefree_decomposition,
)
from gvcalc import field, intpoly
from gvcalc.field import _cofactors, _drop_variable
from gvcalc.intpoly import HALF, MASK, W, _coeffs, _div_terms, _gcd_terms, _heu_gcd, _mul_terms
from gvcalc.intpoly import _min_exp, _normal, _pack, _times, _unpack, _var

PRIMES = (0, 2, 3, 5, 7)
VARIABLES = ("x", "y", "z")
SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def polys(
    p: int, max_terms: int = 5, max_exp: int = 3, dim: int = 2, coeff=None, min_terms: int = 0
):
    if coeff is None and p == 0:
        coeff = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    elif coeff is None:
        coeff = st.integers(min_value=0, max_value=p - 1)
    chart = Chart(VARIABLES[:dim], p)
    exps = st.tuples(*[st.integers(0, max_exp)] * dim)
    return st.dictionaries(exps, coeff, min_size=min_terms, max_size=max_terms).map(
        lambda terms: MultiPoly(chart, terms)
    )


def nonconstant(p: int, **sizes):
    return polys(p, **sizes).filter(lambda f: not f.is_constant())


def guard_bits(n: int) -> int:
    """The guard bit of each of the n + 1 fields of a key on n variables."""
    return sum(HALF << W * i for i in range(n + 1))


def assert_int_form(f: MultiPoly) -> None:
    """The stored integers: nonzero numerators over a positive denominator
    coprime to their content; residues over denominator 1 mod p.  Each key
    packs its own exponents, keeps every guard bit clear, and carries the sum
    of its exponent fields in its top (degree) field."""
    p = f.chart.characteristic
    ints, den = f._ints, f._den
    assert type(den) is int and den > 0
    assert all(type(c) is int and c != 0 for c in ints.values())
    assert math.gcd(den, *ints.values()) == 1
    if p:
        assert den == 1 and all(0 < c < p for c in ints.values())
    elif not ints:
        assert den == 1
    n = f.chart.dim
    guards = guard_bits(n)
    for k in ints:
        exp = _unpack(k, n)
        assert type(k) is int and _pack(exp) == k
        assert k & guards == 0
        assert k >> W * n == sum(exp)


def assert_canonical(f: MultiPoly) -> None:
    p = f.chart.characteristic
    assert_int_form(f)
    again = MultiPoly(f.chart, f.terms)
    assert again == f and again.terms == f.terms and hash(again) == hash(f)
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
    gens = sympy.symbols(f.chart.variables)
    zero = {(0,) * f.chart.dim: 0}
    if p == 0:
        terms = {e: sympy.Rational(c.numerator, c.denominator) for e, c in f.terms.items()}
        return sympy.Poly.from_dict(terms or zero, *gens, domain=sympy.QQ)
    # a copy: sympy converts the values of the dict it is given in place
    return sympy.Poly.from_dict(dict(f.terms) or zero, *gens, modulus=p)


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


def check_gcd(a: MultiPoly, b: MultiPoly) -> None:
    """poly_gcd in both orders is canonical, divides, and is sympy's gcd made monic."""
    expected = from_sympy(sympy.gcd(to_sympy(a), to_sympy(b)), a.chart).monic()
    for g in (poly_gcd(a, b), poly_gcd(b, a)):
        assert_canonical(g)
        assert g == expected
        if not g.is_zero():
            assert_canonical(exact_div(a, g))
            assert_canonical(exact_div(b, g))


@pytest.mark.parametrize("p", PRIMES)
def test_gcd_agrees_with_sympy(p):
    @SETTINGS
    @given(
        polys(p, max_terms=4, max_exp=2),
        polys(p, max_terms=4, max_exp=2),
        polys(p, max_terms=3, max_exp=2),
    )
    def check(a, b, c):
        check_gcd(a * c, b * c)

    check()


@pytest.mark.parametrize("p", PRIMES)
def test_gcd_agrees_with_sympy_in_three_variables(p):
    @SETTINGS
    @given(
        polys(p, max_terms=4, max_exp=2, dim=3),
        polys(p, max_terms=4, max_exp=2, dim=3),
        polys(p, max_terms=3, max_exp=2, dim=3),
    )
    def check(a, b, c):
        check_gcd(a * c, b * c)

    check()


# one-term operands take the monomial path; zero and constants are the edges
SPECIAL = {
    "monomial": dict(max_terms=1, max_exp=3),
    "constant": dict(max_terms=1, max_exp=0),
    "zero": dict(max_terms=0),
}


@pytest.mark.parametrize("kind", SPECIAL)
@pytest.mark.parametrize("p", PRIMES)
def test_gcd_of_special_operands_agrees_with_sympy(p, kind):
    @SETTINGS
    @given(
        polys(p, max_terms=4, max_exp=2, dim=3),
        polys(p, max_terms=3, max_exp=2, dim=3),
        polys(p, dim=3, **SPECIAL[kind]),
    )
    def check(a, c, special):
        check_gcd(a * c, special)
        check_gcd(special, special)

    check()


def test_gcd_agrees_with_sympy_on_large_denominators():
    # numerators and denominators far from each other clear to large integer
    # operands whose integer contents differ
    coeff = st.builds(
        Fraction, st.integers(-(10**12), 10**12), st.integers(1, 10**9)
    )

    @SETTINGS
    @given(
        polys(0, max_terms=4, max_exp=2, coeff=coeff),
        polys(0, max_terms=4, max_exp=2, coeff=coeff),
        polys(0, max_terms=3, max_exp=2, coeff=coeff),
        st.integers(1, 10**6),
    )
    def check(a, b, c, k):
        check_gcd(a * c, b * c * k)

    check()


def check_cofactors(a: MultiPoly, b: MultiPoly) -> None:
    """_cofactors in both orders is canonical, multiplies back exactly, and
    its gcd is sympy's made monic; a constant gcd returns the operands."""
    h, _, _ = sympy.cofactors(to_sympy(a), to_sympy(b))
    expected = from_sympy(h, a.chart).monic()
    for x, y in ((a, b), (b, a)):
        g, cx, cy = _cofactors(x, y)
        for f in (g, cx, cy):
            assert_canonical(f)
        assert g == expected
        assert g * cx == x and g * cy == y
        if g.is_constant():
            assert cx is x and cy is y


def nonzero(p: int, **sizes):
    return polys(p, **sizes).filter(lambda f: not f.is_zero())


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("p", PRIMES)
def test_cofactors_agree_with_sympy(p, dim):
    @SETTINGS
    @given(
        nonzero(p, max_terms=4, max_exp=2, dim=dim),
        nonzero(p, max_terms=4, max_exp=2, dim=dim),
        nonzero(p, max_terms=3, max_exp=2, dim=dim),
    )
    def check(a, b, c):
        check_cofactors(a * c, b * c)
        check_cofactors(a * c, a * c)
        check_cofactors(a, b)
        # x*a + 1 and a are coprime
        check_cofactors(a, a * MultiPoly.var(a.chart, "x") + 1)

    check()


@pytest.mark.parametrize("kind", ["monomial", "constant"])
@pytest.mark.parametrize("p", PRIMES)
def test_cofactors_of_special_operands_agree_with_sympy(p, kind):
    @SETTINGS
    @given(
        nonzero(p, max_terms=4, max_exp=2, dim=3),
        nonzero(p, max_terms=3, max_exp=2, dim=3),
        nonzero(p, dim=3, **SPECIAL[kind]),
    )
    def check(a, c, special):
        check_cofactors(a * c, special)
        check_cofactors(special, special)

    check()


def test_cofactors_agree_with_sympy_on_large_denominators():
    coeff = st.builds(
        Fraction, st.integers(-(10**12), 10**12), st.integers(1, 10**9)
    )

    @SETTINGS
    @given(
        nonzero(0, max_terms=4, max_exp=2, coeff=coeff),
        nonzero(0, max_terms=4, max_exp=2, coeff=coeff),
        nonzero(0, max_terms=3, max_exp=2, coeff=coeff),
        st.integers(1, 10**6),
    )
    def check(a, b, c, k):
        check_cofactors(a * c, b * c * k)

    check()


@pytest.mark.parametrize("p", PRIMES)
def test_squarefree_parts_are_canonical(p):
    @SETTINGS
    @given(nonconstant(p, min_terms=5), polys(p, min_terms=3, max_terms=3))
    def check(a, b):
        f = a * a * b
        parts = squarefree_decomposition(f)
        prod = MultiPoly.const(f.chart, 1)
        for g, m in parts:
            assert_canonical(g)
            assert g == g.monic() and not g.is_constant()
            prod = prod * g**m
        # the parts recover f up to its leading coefficient
        assert exact_div(f, prod).is_constant()
        by_multiplicity = {m: g for g, m in parts}
        assert len(by_multiplicity) == len(parts)
        if p == 0:
            _, expected = to_sympy(f).sqf_list()
            assert by_multiplicity == {
                m: from_sympy(g, f.chart).monic() for g, m in expected
            }
            return
        # sympy has no multivariate sqf_list over GF(p); parts that are
        # squarefree, pairwise coprime and of distinct multiplicities are the
        # unique decomposition, and in characteristic p a polynomial is
        # squarefree exactly when it is coprime to all its partial derivatives
        for i, (g, _) in enumerate(parts):
            common = to_sympy(g)
            for v in range(f.chart.dim):
                common = sympy.gcd(common, to_sympy(g.diff(v)))
            assert common.is_ground
            for h, _ in parts[i + 1 :]:
                assert sympy.gcd(to_sympy(g), to_sympy(h)).is_ground

    check()


# -- the integer core against Fraction loops ----------------------------------
#
# Each reference works on the `.terms` of its operands (Fraction values) with
# the plain loops the polynomial arithmetic used before it stored integers.

BIG = st.builds(Fraction, st.integers(-(10**12), 10**12), st.integers(1, 10**9))
QXY = Chart(("x", "y"))


def big_polys(**sizes):
    return polys(0, max_terms=sizes.pop("max_terms", 4), max_exp=2, coeff=BIG, **sizes)


def grlex(e):
    return (sum(e), e)


def ref_add(a: dict, b: dict, p: int = 0) -> dict:
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        s = s % p if p else s
        if s:
            out[e] = s
        elif e in out:
            del out[e]
    return out


def ref_scale(a: dict, c) -> dict:
    return {e: x * c for e, x in a.items()} if c else {}


def ref_mul(a: dict, b: dict, p: int = 0) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            s = out.get(e, 0) + c1 * c2
            s = s % p if p else s
            if s:
                out[e] = s
            elif e in out:
                del out[e]
    return out


def ref_pow(a: dict, k: int, dim: int) -> dict:
    out = {(0,) * dim: Fraction(1)}
    for _ in range(k):
        out = ref_mul(out, a)
    return out


def ref_diff(a: dict, v: int) -> dict:
    out = {}
    for e, c in a.items():
        if e[v]:
            out[e[:v] + (e[v] - 1,) + e[v + 1 :]] = c * e[v]
    return out


def ref_monic(a: dict) -> dict:
    return ref_scale(a, 1 / a[max(a, key=grlex)]) if a else {}


def ref_coeff_of_power(a: dict, v: int, k: int) -> dict:
    return {e[:v] + (0,) + e[v + 1 :]: c for e, c in a.items() if e[v] == k}


def ref_div(a: dict, b: dict) -> dict:
    """Exact quotient by leading terms; raises AssertionError on a remainder."""
    eb = max(b, key=grlex)
    q: dict = {}
    r = dict(a)
    while r:
        er = max(r, key=grlex)
        shift = tuple(x - y for x, y in zip(er, eb))
        assert min(shift) >= 0, "not exact"
        c = r[er] / b[eb]
        q[shift] = c
        r = ref_add(r, ref_scale(ref_mul({shift: c}, b), -1))
    return q


def assert_terms(f: MultiPoly, expected: dict) -> None:
    assert_canonical(f)
    assert dict(f.terms) == expected


def test_int_core_ring_operations_match_fraction_loops():
    @SETTINGS
    @given(big_polys(), big_polys(), BIG, st.integers(0, 3))
    def check(a, b, c, k):
        ta, tb = dict(a.terms), dict(b.terms)
        assert_terms(a + b, ref_add(ta, tb))
        assert_terms(a - b, ref_add(ta, ref_scale(tb, -1)))
        assert_terms(-a, ref_scale(ta, -1))
        assert_terms(a * b, ref_mul(ta, tb))
        assert_terms(a * c, ref_scale(ta, c))
        assert_terms(c * a, ref_scale(ta, c))
        assert_terms(a * int(c), ref_scale(ta, int(c)))
        assert_terms(a**k, ref_pow(ta, k, 2))
        assert_terms(a.monic(), ref_monic(ta))
        for v in range(2):
            assert_terms(a.diff(v), ref_diff(ta, v))
            for j in range(3):
                assert_terms(a.coeff_of_power(v, j), ref_coeff_of_power(ta, v, j))

    check()


def test_int_core_equality_and_hash_follow_terms():
    @SETTINGS
    @given(big_polys(max_terms=2), big_polys(max_terms=2), st.integers(1, 10**6))
    def check(a, b, k):
        # a * k / k is a with its numerators scaled and reduced again
        for x, y in ((a, b), (a, a * k * Fraction(1, k)), (a * k, a + a * (k - 1))):
            assert (x == y) == (dict(x.terms) == dict(y.terms))
            if x == y:
                assert hash(x) == hash(y)

    check()


def test_int_core_division_and_cofactors_match_fraction_loops():
    @SETTINGS
    @given(
        big_polys().filter(lambda f: not f.is_zero()),
        big_polys().filter(lambda f: not f.is_zero()),
        big_polys(max_terms=3).filter(lambda f: not f.is_zero()),
    )
    def check(a, b, c):
        ta, tc = dict(a.terms), dict(c.terms)
        assert_terms(exact_div(a * c, c), ref_div(ref_mul(ta, tc), tc))
        assert_terms(exact_div(a * c, a * c), {(0, 0): Fraction(1)})
        x, y = a * c, b * c
        g, cx, cy = _cofactors(x, y)
        tg = dict(g.terms)
        assert tg == ref_monic(tg)
        assert_terms(cx, ref_div(dict(x.terms), tg))
        assert_terms(cy, ref_div(dict(y.terms), tg))

    check()


def test_int_core_substitute_matches_fraction_loops():
    @SETTINGS
    @given(big_polys(max_terms=3), big_polys(max_terms=2), big_polys(max_terms=2))
    def check(f, u, v):
        result = f.substitute([RatFn.from_poly(u), RatFn.from_poly(v)])
        expected: dict = {}
        values = (dict(u.terms), dict(v.terms))
        for e, c in f.terms.items():
            term = {(0, 0): c}
            for value, k in zip(values, e):
                term = ref_mul(term, ref_pow(value, k, 2))
            expected = ref_add(expected, term)
        assert result.den == MultiPoly.const(QXY, 1)
        assert_terms(result.num, expected)

    check()


# -- RatFn scalar shortcuts against the general path ---------------------------

SCALAR_PRIMES = (0, 2, 5)


def ratfns(p: int):
    nums = polys(p, max_terms=3, max_exp=2)
    dens = polys(p, max_terms=3, max_exp=2).filter(lambda f: not f.is_zero())
    return st.builds(RatFn, nums, dens)


def scalars(p: int):
    special = [0, 1, -1, p, 2 * p, Fraction(p, 3), Fraction(-7, 2)] if p else [0, 1, -1]
    return st.one_of(
        st.sampled_from(special),
        st.integers(-(10**6), 10**6),
        st.fractions(max_denominator=10**4),
    )


def assert_ratfn_canonical(f: RatFn) -> None:
    assert_canonical(f.num)
    assert_canonical(f.den)
    assert f.den == f.den.monic()
    assert poly_gcd(f.num, f.den).is_constant()


@pytest.mark.parametrize("p", SCALAR_PRIMES)
def test_ratfn_scalar_operators_agree_with_the_general_path(p):
    @SETTINGS
    @given(ratfns(p), scalars(p))
    def check(f, c):
        try:
            k = f.chart.const(c)
        except ZeroDenominator:
            # no residue mod p: every shortcut raises as the general path does
            for op in (lambda: f * c, lambda: c * f, lambda: f + c, lambda: c - f):
                with pytest.raises(ZeroDenominator):
                    op()
            return
        pairs = [
            (f * c, f * k),
            (c * f, k * f),
            (f + c, f + k),
            (c + f, k + f),
            (f - c, f - k),
            (c - f, k - f),
        ]
        for fast, general in pairs:
            assert_ratfn_canonical(fast)
            assert fast == general and str(fast) == str(general)
        if k.is_zero():
            assert (f * c).is_zero() and f + c == f

    check()


# -- the partial derivative of a fraction ----------------------------------------
#
# `RatFn.diff` reduces (P_v h - P k) / (g h^2) against g = gcd(Q, Q_v) only.
# The references are the quotient rule reduced against Q^2 by the general
# constructor, and sympy's cancel of the same quotient.

DIFF_KINDS = ("general", "num free of v", "den free of v", "den a p-th power in v")


def stretched(f: MultiPoly, v: int, k: int) -> MultiPoly:
    """f with every exponent of x_v multiplied by k (k = 0 drops x_v)."""
    chart = f.chart
    out = MultiPoly.zero(chart)
    for e, c in f.terms.items():
        out = out + MultiPoly.monomial(chart, e[:v] + (e[v] * k,) + e[v + 1 :], c)
    return out


@pytest.mark.parametrize("p", PRIMES)
def test_ratfn_diff_agrees_with_the_quotient_rule_and_sympy(p):
    kinds = DIFF_KINDS if p else DIFF_KINDS[:-1]

    @SETTINGS
    @given(polys(p, max_terms=4, max_exp=2), nonzero(p, max_terms=4, max_exp=2),
           st.integers(0, 1), st.sampled_from(kinds))
    def check(a, b, v, kind):
        if kind == "num free of v":
            a = stretched(a, v, 0)
        elif kind == "den free of v":
            b = stretched(b, v, 0)
        elif kind == "den a p-th power in v":
            b = stretched(b, v, p)
        assume(not b.is_zero())
        f = RatFn(a, b)
        P, Q = f.num, f.den
        d = f.diff(v)
        assert_ratfn_canonical(d)
        quotient_rule = RatFn(P.diff(v) * Q - P * Q.diff(v), Q * Q)
        assert d == quotient_rule and str(d) == str(quotient_rule)
        x = sympy.symbols(VARIABLES[:2])[v]
        sp, sq = to_sympy(P), to_sympy(Q)
        num, den = (sp.diff(x) * sq - sp * sq.diff(x)).cancel(sq**2, include=True)
        assert to_sympy(d.num) * den == num * to_sympy(d.den)
        assert den.total_degree() == d.den.total_degree()

    check()


def test_ratfn_diff_of_a_three_variable_fraction_over_f5_stays_fast():
    """Reduced against Q^2, the quotient-rule numerators of these three
    partials sent the F_p PRS into seconds per gcd; reduced against
    gcd(Q, Q_v) they take milliseconds.  The expected quotients were computed
    by the reduction against Q^2."""
    chart = Chart(VARIABLES, 5)
    x, y, z = (MultiPoly.var(chart, name) for name in VARIABLES)
    r = 4 * x**2 * y * z + 3 * x * z**2
    s = 4 * x**2 * y**2 * z**2 + 4 * y * z**2 + 2 * y**2
    a = x**2 * y**2 * z**2 + 4 * y**2 * z
    b = 2 * x * y**2 * z**2
    f = RatFn(r * b, s * a)

    def stalled(signum, frame):
        raise TimeoutError("the partials of a 3-variable F_5 fraction took over 1 s")

    previous = signal.signal(signal.SIGALRM, stalled)
    signal.alarm(1)
    try:
        partials = [str(f.diff(v)) for v in range(3)]
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert partials == [F5_PARTIAL_X, F5_PARTIAL_Y, F5_PARTIAL_Z]


F5_DEN_XZ = (
    "x^8*y^3*z^6 + 3*x^6*y^3*z^5 + 2*x^6*y^2*z^6 + x^6*y^3*z^4 + x^4*y^3*z^4"
    " + x^4*y^2*z^5 + x^4*y*z^6 + 3*x^4*y^3*z^3 + x^4*y^2*z^4 + 4*x^4*y^3*z^2"
    " + 2*x^2*y^2*z^4 + 3*x^2*y*z^5 + x^2*y^3*z^2 + 3*x^2*y^2*z^3 + 2*x^2*y^3*z"
    " + y*z^4 + y^2*z^2 + 4*y^3"
)
F5_PARTIAL_X = (
    "(3*x^6*y^2*z^5 + 2*x^5*y*z^6 + 3*x^4*y^2*z^4 + 2*x^4*y*z^5 + x^4*y^2*z^3"
    f" + 4*x^2*y*z^4 + 2*x^2*y^2*z^2 + 2*x*z^5 + x*y*z^3)/({F5_DEN_XZ})"
)
F5_PARTIAL_Y = (
    "(3*x^5*y^2*z^4 + 2*x^4*y*z^5 + 4*x^3*y^2*z^2 + x^2*z^5 + x^2*y*z^3)/(x^6*y^4*z^5"
    " + 4*x^4*y^4*z^4 + 2*x^4*y^3*z^5 + x^4*y^4*z^3 + 3*x^2*y^3*z^4 + x^2*y^2*z^5"
    " + 4*x^2*y^4*z^2 + x^2*y^3*z^3 + 4*x^2*y^4*z + 4*y^2*z^4 + 4*y^3*z^2 + y^4)"
)
F5_PARTIAL_Z = (
    "(3*x^7*y^2*z^4 + 3*x^5*y*z^4 + x^5*y^2*z^2 + x^4*y*z^4 + 4*x^4*y*z^3"
    f" + 3*x^3*y^2*z + x^2*z^4 + 4*x^2*y*z^2)/({F5_DEN_XZ})"
)


# -- the packed core against tuple-keyed loops ---------------------------------
#
# The references are the kernels as they were on exponent tuples: tuple sums
# for products (`ref_add` and `ref_mul` with a modulus), graded-lex order
# through `grlex`, per-field tests for divisibility.  Over Q the kernels run
# on integer coefficients (p = 0).

DIMS = (1, 2, 3)


def int_terms(p: int, dim: int, max_terms: int = 4, max_exp: int = 2):
    coeff = st.integers(-30, 30).filter(bool) if p == 0 else st.integers(1, p - 1)
    exps = st.tuples(*[st.integers(0, max_exp)] * dim)
    return st.dictionaries(exps, coeff, min_size=1, max_size=max_terms)


def packed(terms: dict) -> dict:
    return {_pack(e): c for e, c in terms.items()}


def unpacked(ints: dict, dim: int) -> dict:
    for k in ints:
        assert _pack(_unpack(k, dim)) == k and k & guard_bits(dim) == 0
    return {_unpack(k, dim): c for k, c in ints.items()}


def tref_div(a: dict, b: dict, p: int) -> dict:
    """Exact quotient by leading terms; raises GvError on a remainder."""
    eb = max(b, key=grlex)
    q: dict = {}
    r = dict(a)
    while r:
        er = max(r, key=grlex)
        shift = tuple(x - y for x, y in zip(er, eb))
        c = r[er] * pow(b[eb], p - 2, p) % p if p else r[er] // b[eb]
        if min(shift) < 0 or (not p and c * b[eb] != r[er]):
            raise GvError("not exact")
        q[shift] = c
        r = ref_add(r, ref_mul({shift: -c}, b, p), p)
    return q


def tref_coeffs(a: dict, v: int) -> dict:
    out: dict = {}
    for e, c in a.items():
        out.setdefault(e[v], {})[e[:v] + (0,) + e[v + 1 :]] = c
    return out


def tref_normal(a: dict, p: int) -> dict:
    lc = a[max(a, key=grlex)]
    if p:
        return {e: c * pow(lc, p - 2, p) % p for e, c in a.items()}
    g = math.gcd(*a.values()) * (-1 if lc < 0 else 1)
    return {e: c // g for e, c in a.items()}


def tref_gcd(a: dict, b: dict, p: int) -> dict:
    """The primitive PRS gcd on exponent tuples, normalized like `_gcd_terms`."""
    if len(a) == 1 or len(b) == 1:
        return {tuple(map(min, zip(*a, *b))): 1}
    sa, sb = tuple(map(min, zip(*a))), tuple(map(min, zip(*b)))
    shared = {tuple(map(min, sa, sb)): 1}
    a = {tuple(x - y for x, y in zip(e, sa)): c for e, c in a.items()}
    b = {tuple(x - y for x, y in zip(e, sb)): c for e, c in b.items()}
    v = max(i for i, d in enumerate(map(max, zip(*a, *b))) if d)

    def primitive(f):
        parts = list(tref_coeffs(f, v).values())
        content = parts[0]
        for c in parts[1:]:
            content = tref_gcd(content, c, p)
        return tref_normal(tref_div(f, content, p), p), content

    a, ca = primitive(a)
    b, cb = primitive(b)
    if max(e[v] for e in a) < max(e[v] for e in b):
        a, b = b, a
    while b:
        # pseudo-remainder of a by b in x_v, then its primitive part
        db = max(e[v] for e in b)
        lb = tref_coeffs(b, v)[db]
        r = a
        while r and max(e[v] for e in r) >= db:
            dr = max(e[v] for e in r)
            lr = {e[:v] + (dr - db,) + e[v + 1 :]: -c for e, c in tref_coeffs(r, v)[dr].items()}
            r = ref_add(ref_mul(lr, b, p), ref_mul(lb, r, p), p)
        a, b = b, primitive(r)[0] if r else r
    g = ref_mul(shared, tref_gcd(ca, cb, p), p)
    return ref_mul(g, a, p) if max(e[v] for e in a) else g


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("p", PRIMES)
def test_packed_products_and_divisions_match_tuple_loops(p, dim):
    @SETTINGS
    @given(int_terms(p, dim), int_terms(p, dim), st.booleans())
    def check(a, b, product):
        ab = ref_mul(a, b, p)
        assert unpacked(_mul_terms(packed(a), packed(b), p), dim) == ab
        if ab:
            assert unpacked(_div_terms(packed(ab), packed(b), p), dim) == a
        # a division that is not exact raises in both, or in neither
        num = ab if product and ab else a
        try:
            expected = tref_div(num, b, p)
        except GvError:
            with pytest.raises(GvError, match="not exact"):
                _div_terms(packed(num), packed(b), p)
        else:
            assert unpacked(_div_terms(packed(num), packed(b), p), dim) == expected

    check()


@pytest.mark.parametrize("p", PRIMES)
def test_packed_division_rejects_a_single_borrowing_field(p):
    # every other field, the degree included, divides; one exponent field borrows
    cases = [
        ({(2,): 1}, {(3,): 1}),
        ({(2, 0): 1}, {(0, 1): 1}),
        ({(2, 1): 1, (0, 1): 1}, {(1, 2): 1, (0, 0): 1}),
        ({(3, 0, 2): 1}, {(1, 1, 1): 1}),
        ({(0, 4, 1): 1, (0, 0, 1): 1}, {(0, 1, 2): 1, (0, 0, 0): 1}),
    ]
    for a, b in cases:
        with pytest.raises(GvError, match="not exact"):
            tref_div(a, b, p)
        with pytest.raises(GvError, match="not exact"):
            _div_terms(packed(a), packed(b), p)


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("p", PRIMES)
def test_packed_coeffs_and_gcd_match_tuple_loops(p, dim):
    @SETTINGS
    @given(int_terms(p, dim), int_terms(p, dim), int_terms(p, dim, max_terms=3))
    def check(a, b, c):
        for v in range(dim):
            s, u = _var(dim, v)
            parts = _coeffs(packed(a), s, u)
            assert {k: unpacked(t, dim) for k, t in parts.items()} == tref_coeffs(a, v)
        x, y = ref_mul(a, c, p), ref_mul(b, c, p)
        if x and y:
            assert unpacked(_gcd_terms(packed(x), packed(y), p), dim) == tref_gcd(x, y, p)

    check()


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("p", PRIMES)
def test_packed_calculus_matches_tuple_loops(p, dim):
    @SETTINGS
    @given(polys(p, dim=dim, max_exp=4, max_terms=6))
    def check(f):
        t = dict(f.terms)
        for v in range(dim):
            expected = {
                e[:v] + (e[v] - 1,) + e[v + 1 :]: c * e[v] % p if p else c * e[v]
                for e, c in t.items()
                if e[v]
            }
            d = f.diff(v)
            assert_int_form(d)
            assert dict(d.terms) == {e: c for e, c in expected.items() if c}
            for k in range(5):
                part = f.coeff_of_power(v, k)
                assert_int_form(part)
                assert dict(part.terms) == ref_coeff_of_power(t, v, k)
                if dim > 1:
                    target = Chart(tuple(x for i, x in enumerate(f.chart.variables) if i != v), p)
                    dropped = _drop_variable(part, v, target)
                    assert_int_form(dropped)
                    assert dict(dropped.terms) == {
                        e[:v] + e[v + 1 :]: c for e, c in part.terms.items()
                    }
        if t:
            exp = max(t, key=grlex)
            assert f.leading() == (exp, t[exp])
            assert f.total_degree() == sum(exp)
            assert [f.degree_in(v) for v in range(dim)] == list(map(max, zip(*t)))

    check()


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("p", PRIMES[1:])
def test_packed_pth_root_matches_tuple_loops(p, dim):
    @SETTINGS
    @given(polys(p, dim=dim, max_exp=2, max_terms=4, min_terms=1).filter(lambda g: not g.is_constant()))
    def check(g):
        # the root of a key whose every field is a multiple of p is key // p
        for e in g.terms:
            assert _pack(tuple(x * p for x in e)) // p == _pack(e)
        f = g**p
        assert all(f.diff(v).is_zero() for v in range(dim))
        parts = squarefree_decomposition(f)
        for h, _ in parts:
            assert_canonical(h)
        assert sorted(map(str, parts)) == sorted(
            str((h, m * p)) for h, m in squarefree_decomposition(g)
        )

    check()


def test_exponent_overflow_raises():
    chart = Chart(("x", "y"))
    x, y = (MultiPoly.var(chart, name) for name in chart.variables)
    top = x ** (HALF - 1)
    assert_canonical(top)
    assert top.total_degree() == HALF - 1
    with pytest.raises(GvError, match="overflow"):
        x ** HALF
    with pytest.raises(GvError, match="overflow"):
        top * y
    with pytest.raises(GvError, match="overflow"):
        # the leading terms alone reach the bound
        (x ** (HALF // 2) + y) * (y ** (HALF // 2) + x + 1)
    for exp in ((HALF, 0), (0, HALF), (HALF - 1, 1), (MASK, 0)):
        with pytest.raises(GvError, match="overflow"):
            MultiPoly(chart, {exp: 1})
    assert (HALF - 1, 0) in top.terms and (HALF, 0) not in top.terms


# -- GCDHEU against the PRS ----------------------------------------------------
#
# Over Q `_cofactors` runs the heuristic gcd `_heu_gcd` first and falls back
# to the primitive PRS `_gcd_terms` only when it gives up.  Its results are
# compared with the PRS followed by `_div_terms`, and with sympy.

BIG = st.one_of(st.integers(-9, 9), st.integers(-(10**12), 10**12)).filter(bool)


def check_heuristic(a: MultiPoly, b: MultiPoly) -> None:
    """GCDHEU in both orders succeeds with the PRS gcd, the integer content
    of the pair and the PRS cofactors, and `_cofactors` agrees with sympy."""
    n = a.chart.dim
    for x, y in ((a._ints, b._ints), (b._ints, a._ints)):
        found = _heu_gcd(x, y, n)
        assert found is not None
        c, h, qx, qy = found
        assert h == _gcd_terms(x, y, 0) and h[max(h)] > 0
        assert c == math.gcd(*x.values(), *y.values())
        for f, q in ((x, qx), (y, qy)):
            q = _times(q, c)
            assert q == (f if h == {0: 1} else _div_terms(f, h, 0))
    check_cofactors(a, b)


@pytest.mark.parametrize("dim", DIMS)
def test_heuristic_cofactors_match_the_prs_and_sympy(dim):
    chart = Chart(VARIABLES[:dim])
    x = MultiPoly.var(chart, "x")

    @SETTINGS
    @given(
        nonzero(0, max_terms=4, max_exp=2, dim=dim, coeff=BIG),
        nonzero(0, max_terms=4, max_exp=2, dim=dim, coeff=BIG),
        nonzero(0, max_terms=3, max_exp=2, dim=dim, coeff=BIG),
        polys(0, max_terms=1, min_terms=1, max_exp=2, dim=dim, coeff=st.just(1)),
        st.sampled_from((1, -1)),
    )
    def check(a, b, c, m, sign):
        # a planted factor, a monomial content, a negative leading coefficient
        check_heuristic(a * c * m, b * c * sign)
        check_heuristic(a * m, b * m * sign)
        # coprime pairs
        check_heuristic(a, b * sign)
        check_heuristic(a, a * x + 1)

    check()


def test_cofactors_without_the_heuristic_are_the_same(monkeypatch):
    pairs = []

    @SETTINGS
    @given(
        nonzero(0, max_terms=4, max_exp=2, dim=3),
        nonzero(0, max_terms=4, max_exp=2, dim=3),
        nonzero(0, max_terms=3, max_exp=2, dim=3),
    )
    def draw(a, b, c):
        pairs.extend(((a * c, b * c), (b * c, a * c), (a, b)))

    draw()
    heuristic = [_cofactors(x, y) for x, y in pairs]
    calls = []
    with monkeypatch.context() as m:
        # the heuristic gives up at once
        m.setattr(field, "_heu_gcd", lambda *args: calls.append(args))
        fallback = [_cofactors(x, y) for x, y in pairs]
    assert len(calls) == sum(len(x.terms) > 1 and len(y.terms) > 1 for x, y in pairs) > 0
    assert heuristic == fallback


def test_heuristic_rejects_a_candidate_and_skips_a_root(monkeypatch):
    chart = Chart(("x", "y"))
    x, y = (MultiPoly.var(chart, v) for v in chart.variables)
    quotients, images = [], []

    def quo(a, b):
        quotients.append(intpoly_quo(a, b))
        return quotients[-1]

    def evaluate(f, xi, n):
        images.append(intpoly_evaluate(f, xi, n))
        return images[-1]

    intpoly_quo, intpoly_evaluate = intpoly._quo, intpoly._evaluate
    monkeypatch.setattr(intpoly, "_quo", quo)
    monkeypatch.setattr(intpoly, "_evaluate", evaluate)
    # the images at the first point share a factor that the operands do not
    check_heuristic(14 * x**3 + 56 * x**2, -14 * x**3 - 63)
    assert None in quotients
    # the first point, 2 * 1 + 29 = 31, is a root of the operand of larger norm
    for a, b in (((x - 31) ** 2, x + 1), ((y - 31) ** 2 * (x + 1), x + y)):
        images.clear()
        check_heuristic(a, b)
        check_heuristic(a * (x + 2), b * (x + 2))
        assert {} in images


# Planted-factor pairs on (x, y, z) on which the PRS ran past a 2 s alarm
# (3 of 150 seeded draws with 8-12 terms per operand and factor coefficients
# up to 1e6); the heuristic takes under 1 ms on each.
PRS_SWELLS = [
    (
        {(3, 3, 3): 630859, (3, 0, 3): 587764, (0, 2, 2): 773916, (0, 3, 0): 709104},
        {(2, 3, 2): -374984, (0, 2, 3): 499970, (0, 3, 1): 190415, (1, 2, 0): -612939},
        {(3, 2, 3): 858796, (0, 2, 3): 948048, (0, 1, 3): 452313},
    ),
    (
        {(3, 2, 3): -898548, (3, 3, 0): -218122, (0, 1, 2): 101955},
        {(3, 2, 2): -561601, (1, 3, 2): 819874, (3, 0, 1): -549428, (0, 3, 0): -601307},
        {(2, 3, 2): 652679, (2, 1, 1): -395398, (1, 2, 1): 854651},
    ),
    (
        {(1, 1, 3): -769774, (0, 0, 3): -15003, (2, 0, 0): -582128, (0, 0, 1): 72819},
        {(1, 3, 3): -253284, (3, 3, 0): 797152, (2, 0, 2): 29478, (1, 0, 0): -698887},
        {(3, 3, 3): -236132, (3, 2, 3): -574363, (0, 2, 2): -761108},
    ),
]


@pytest.mark.parametrize("factors", PRS_SWELLS, ids=["draw38", "draw329", "draw452"])
def test_heuristic_cofactors_where_the_prs_swells(factors, monkeypatch):
    def no_prs(*args):
        raise AssertionError("the PRS fallback ran")

    monkeypatch.setattr(field, "_gcd_terms", no_prs)
    chart = Chart(("x", "y", "z"))
    a, b, c = (MultiPoly(chart, f) for f in factors)
    assert len((a * c).terms) in range(8, 13) and len((b * c).terms) in range(8, 13)
    check_cofactors(a * c, b * c)


# The first gcd that ran past 10 s on probe form 22 of `test_charp.py` (F_5):
# a 272-term numerator of its integrating factor, of degrees (6, 8, 17) in
# (x, y, z), against the 17-term denominator of its kernel field, of degrees
# (2, 3, 5).  The two are coprime.  The PRS in z, the last variable, ran past
# 30 s; in x, the variable of least degree, it takes about 0.1 s.  Each term
# is (exponent of x, of y, of z, coefficient).
PROBE22_NUMERATOR = [
    (6, 2, 0, 4), (6, 1, 1, 3), (6, 0, 2, 4), (5, 7, 0, 1), (5, 6, 1, 2), (5, 6, 0, 4),
    (5, 5, 2, 1), (5, 5, 1, 4), (5, 5, 0, 3), (5, 4, 0, 4), (5, 3, 1, 1), (5, 2, 5, 1),
    (5, 2, 2, 3), (5, 1, 6, 2), (5, 1, 5, 4), (5, 1, 3, 4), (5, 0, 7, 1), (5, 0, 6, 4),
    (5, 0, 5, 3), (5, 0, 4, 3), (4, 8, 0, 4), (4, 7, 1, 2), (4, 7, 0, 2), (4, 6, 2, 2),
    (4, 6, 1, 4), (4, 6, 0, 3), (4, 5, 3, 4), (4, 5, 2, 2), (4, 5, 1, 3), (4, 5, 0, 1),
    (4, 4, 0, 4), (4, 3, 5, 4), (4, 3, 1, 1), (4, 2, 6, 2), (4, 2, 5, 2), (4, 2, 2, 4),
    (4, 1, 7, 2), (4, 1, 6, 4), (4, 1, 5, 3), (4, 1, 3, 1), (4, 0, 8, 4), (4, 0, 7, 2),
    (4, 0, 6, 3), (4, 0, 5, 1), (4, 0, 4, 4), (3, 8, 2, 1), (3, 8, 0, 4), (3, 7, 3, 3),
    (3, 7, 2, 3), (3, 7, 1, 2), (3, 7, 0, 3), (3, 6, 4, 3), (3, 6, 3, 1), (3, 6, 2, 4),
    (3, 6, 1, 1), (3, 6, 0, 4), (3, 5, 5, 1), (3, 5, 4, 3), (3, 5, 3, 1), (3, 5, 2, 2),
    (3, 5, 1, 4), (3, 5, 0, 2), (3, 4, 2, 1), (3, 4, 0, 2), (3, 3, 7, 1), (3, 3, 5, 4),
    (3, 3, 3, 4), (3, 3, 1, 3), (3, 2, 8, 3), (3, 2, 7, 3), (3, 2, 6, 2), (3, 2, 5, 3),
    (3, 2, 4, 1), (3, 2, 2, 2), (3, 1, 9, 3), (3, 1, 8, 1), (3, 1, 7, 4), (3, 1, 6, 1),
    (3, 1, 5, 3), (3, 1, 3, 3), (3, 0, 10, 1), (3, 0, 9, 3), (3, 0, 8, 1), (3, 0, 7, 2),
    (3, 0, 5, 2), (3, 0, 4, 2), (2, 8, 4, 4), (2, 8, 2, 2), (2, 8, 0, 3), (2, 7, 5, 2),
    (2, 7, 4, 2), (2, 7, 3, 1), (2, 7, 2, 4), (2, 7, 1, 4), (2, 7, 0, 3), (2, 6, 6, 2),
    (2, 6, 5, 4), (2, 6, 4, 4), (2, 6, 3, 3), (2, 6, 2, 1), (2, 6, 1, 1), (2, 6, 0, 3),
    (2, 5, 7, 4), (2, 5, 6, 2), (2, 5, 2, 4), (2, 5, 1, 3), (2, 5, 0, 3), (2, 4, 4, 4),
    (2, 4, 2, 1), (2, 4, 0, 3), (2, 3, 9, 4), (2, 3, 7, 2), (2, 3, 5, 4), (2, 3, 3, 4),
    (2, 3, 1, 2), (2, 2, 10, 2), (2, 2, 9, 2), (2, 2, 8, 1), (2, 2, 7, 4), (2, 2, 6, 3),
    (2, 2, 5, 3), (2, 2, 4, 1), (2, 2, 2, 3), (2, 1, 11, 2), (2, 1, 10, 4), (2, 1, 9, 4),
    (2, 1, 8, 3), (2, 1, 7, 2), (2, 1, 6, 1), (2, 1, 5, 2), (2, 1, 3, 2), (2, 0, 12, 4),
    (2, 0, 11, 2), (2, 0, 8, 4), (2, 0, 7, 4), (2, 0, 6, 4), (2, 0, 5, 3), (2, 0, 4, 3),
    (1, 8, 6, 1), (1, 8, 4, 2), (1, 8, 2, 1), (1, 8, 0, 4), (1, 7, 7, 3), (1, 7, 6, 3),
    (1, 7, 5, 1), (1, 7, 4, 4), (1, 7, 3, 3), (1, 7, 2, 1), (1, 7, 1, 2), (1, 7, 0, 1),
    (1, 6, 8, 3), (1, 6, 7, 1), (1, 6, 6, 3), (1, 6, 5, 3), (1, 6, 3, 2), (1, 6, 2, 3),
    (1, 6, 1, 2), (1, 5, 9, 1), (1, 5, 8, 3), (1, 5, 7, 4), (1, 5, 6, 3), (1, 5, 5, 3),
    (1, 5, 4, 2), (1, 5, 2, 2), (1, 4, 6, 1), (1, 4, 4, 1), (1, 4, 2, 1), (1, 3, 11, 1),
    (1, 3, 9, 2), (1, 3, 5, 3), (1, 3, 3, 4), (1, 3, 0, 1), (1, 2, 12, 3), (1, 2, 11, 3),
    (1, 2, 9, 4), (1, 2, 8, 4), (1, 2, 7, 1), (1, 2, 6, 3), (1, 2, 5, 1), (1, 2, 4, 1),
    (1, 2, 1, 3), (1, 2, 0, 4), (1, 1, 13, 3), (1, 1, 12, 1), (1, 1, 11, 1), (1, 1, 10, 3),
    (1, 1, 9, 4), (1, 1, 8, 2), (1, 1, 7, 2), (1, 1, 6, 2), (1, 1, 5, 4), (1, 1, 2, 3),
    (1, 1, 1, 3), (1, 0, 14, 1), (1, 0, 13, 3), (1, 0, 12, 3), (1, 0, 11, 3), (1, 0, 10, 4),
    (1, 0, 9, 2), (1, 0, 8, 1), (1, 0, 7, 2), (1, 0, 6, 1), (1, 0, 3, 1), (1, 0, 2, 4),
    (0, 8, 8, 4), (0, 8, 6, 4), (0, 8, 4, 3), (0, 8, 2, 4), (0, 7, 10, 1), (0, 7, 9, 2),
    (0, 7, 8, 2), (0, 7, 7, 2), (0, 7, 6, 3), (0, 7, 5, 4), (0, 7, 4, 3), (0, 7, 3, 2),
    (0, 7, 2, 1), (0, 6, 11, 2), (0, 6, 10, 1), (0, 6, 9, 4), (0, 6, 7, 1), (0, 6, 6, 3),
    (0, 6, 5, 1), (0, 6, 3, 2), (0, 5, 12, 1), (0, 5, 11, 3), (0, 5, 9, 2), (0, 5, 8, 4),
    (0, 5, 7, 2), (0, 5, 5, 2), (0, 5, 4, 4), (0, 4, 10, 4), (0, 4, 8, 4), (0, 4, 6, 2),
    (0, 4, 4, 3), (0, 3, 13, 4), (0, 3, 9, 4), (0, 3, 7, 2), (0, 3, 5, 2), (0, 3, 2, 1),
    (0, 2, 15, 1), (0, 2, 14, 2), (0, 2, 13, 2), (0, 2, 11, 3), (0, 2, 10, 3), (0, 2, 9, 3),
    (0, 2, 8, 4), (0, 2, 7, 1), (0, 2, 6, 3), (0, 2, 3, 3), (0, 2, 2, 4), (0, 1, 16, 2),
    (0, 1, 15, 1), (0, 1, 14, 4), (0, 1, 13, 4), (0, 1, 12, 1), (0, 1, 11, 4), (0, 1, 10, 1),
    (0, 1, 9, 3), (0, 1, 8, 2), (0, 1, 7, 2), (0, 1, 4, 3), (0, 1, 3, 3), (0, 0, 17, 1),
    (0, 0, 16, 3), (0, 0, 13, 4), (0, 0, 12, 1), (0, 0, 10, 4), (0, 0, 9, 4), (0, 0, 8, 3),
    (0, 0, 5, 1), (0, 0, 4, 4),
]

PROBE22_DENOMINATOR = [
    (2, 0, 0, 2), (1, 2, 1, 1), (1, 1, 2, 2), (1, 0, 3, 1), (1, 0, 2, 4), (1, 0, 0, 1),
    (0, 3, 1, 4), (0, 2, 3, 1), (0, 2, 2, 2), (0, 2, 1, 1), (0, 1, 4, 2), (0, 1, 3, 2),
    (0, 1, 2, 2), (0, 0, 5, 1), (0, 0, 4, 1), (0, 0, 3, 1), (0, 0, 2, 1),
]


def probe22_gcd(p: int) -> MultiPoly:
    """poly_gcd of the probe form 22 pair over F_p (or Q for p = 0), under a 2 s alarm."""

    def stalled(signum, frame):
        raise TimeoutError("the probe form 22 gcd took over 2 s")

    chart = Chart(VARIABLES, p)
    a, b = (
        MultiPoly(chart, {t[:3]: t[3] for t in terms})
        for terms in (PROBE22_NUMERATOR, PROBE22_DENOMINATOR)
    )
    assert (len(a.terms), len(b.terms)) == (272, 17)
    previous = signal.signal(signal.SIGALRM, stalled)
    signal.alarm(2)
    try:
        return poly_gcd(a, b)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_f5_gcd_runs_in_the_variable_of_least_degree(monkeypatch):
    # over F_5 images prove the pair coprime before the PRS, so they are
    # turned off to time the PRS itself; over Q the heuristic gcd answers
    monkeypatch.setattr(intpoly, "_coprime", lambda *args: False)
    for p in (5, 0):
        assert probe22_gcd(p) == MultiPoly.const(Chart(VARIABLES, p), 1)


def test_z_prs_fallback_is_preceded_by_a_coprimality_proof(monkeypatch):
    # with GCDHEU giving up, the Z PRS ran past 20 s on the Q probe-22 pair;
    # its images mod a large prime prove it coprime at once
    monkeypatch.setattr(field, "_heu_gcd", lambda *args: None)
    assert probe22_gcd(0) == MultiPoly.const(Chart(VARIABLES), 1)


def test_z_coprimality_skips_primes_that_divide_a_lead():
    chart = Chart(VARIABLES[:2])
    x, y = (MultiPoly.var(chart, v) for v in VARIABLES[:2])
    q0, q1, q2 = intpoly.Z_PRIMES
    # the lead q0 x^2 rules q0 out, and q0 q1 x^2 rules out q1 too
    for lead in (q0, q0 * q1):
        a, b = lead * x**2 + y, x + y
        assert intpoly._z_coprime(a._ints, b._ints)
    # every prime divides one of the leads: the test leaves the question open
    a, b = q0 * q1 * x**2 + y, q2 * x + y
    assert not intpoly._z_coprime(a._ints, b._ints)
    # a shared factor is never proved coprime, not even q0 x + 1, which is 1
    # mod q0: there the images x + y and x - y are coprime
    for c in (x * y + 3, q0 * x + 1):
        assert not intpoly._z_coprime(((x + y) * c)._ints, ((x - y) * c)._ints)


# -- the F_p gcd routes before the PRS against sympy ---------------------------
#
# Over F_p, `_gcd_terms` answers operands in one variable by a dense Euclid
# and proves most coprime pairs from univariate images before any PRS.  Both
# routes are compared with sympy's gcd over GF(p) on coprime pairs, pairs
# with a planted common factor and univariate pairs, and each route is seen
# to answer some of them.


def spied(monkeypatch, name: str) -> list:
    """The results of every call of `intpoly.<name>` from now on."""
    results = []
    real = getattr(intpoly, name)

    def spy(*args):
        results.append(real(*args))
        return results[-1]

    monkeypatch.setattr(intpoly, name, spy)
    return results


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("p", PRIMES[1:])
def test_fp_gcd_routes_agree_with_sympy(p, dim, monkeypatch):
    proofs, euclids = spied(monkeypatch, "_coprime"), spied(monkeypatch, "_euclid")

    @SETTINGS
    @given(
        nonconstant(p, max_terms=5, max_exp=3, dim=dim),
        nonconstant(p, max_terms=5, max_exp=3, dim=dim),
        nonconstant(p, max_terms=3, max_exp=2, dim=dim),
    )
    def check(a, b, c):
        check_gcd(a, b)
        check_gcd(a * c, b * c)

    check()
    assert euclids
    if dim > 1:
        assert True in proofs and False in proofs


def test_unlucky_points_fall_back_to_the_prs(monkeypatch):
    # over F_2 the lead x(x + 1) of a in y vanishes at both points of F_2, so
    # no image proves deg_y gcd = 0 and the PRS answers; the later calls
    # come from the PRS itself
    proofs = spied(monkeypatch, "_coprime")
    chart = Chart(VARIABLES[:2], 2)
    x, y = (MultiPoly.var(chart, v) for v in VARIABLES[:2])
    a, b = x * (x + 1) * y + 1, y + x
    for c in (MultiPoly.const(chart, 1), x * y + 1, y**2 + x + 1):
        proofs.clear()
        assert poly_gcd(a * c, b * c) == c
        assert proofs[0] is False
        check_gcd(a * c, b * c)


def test_occurrence_is_tested_field_by_field():
    # y occurs in 2 + 2y and in 1 + 2y^2 = (1 + y)(1 - y) over F_3, but the
    # bitwise or of their keys shares no bit in the y field; with x in both,
    # x alone would have been tested and the pair declared coprime
    for names in (VARIABLES[1:2], VARIABLES[:2]):
        chart = Chart(names, 3)
        y = MultiPoly.var(chart, "y")
        a, b = 2 + 2 * y, 1 + 2 * y**2
        if len(names) == 2:
            x = MultiPoly.var(chart, "x")
            a, b = a * (x + 1), b * (x + 2)
        check_gcd(a, b)
        assert poly_gcd(a, b) == y + 1


# -- the PRS against the one that made both operands primitive ----------------
#
# `_gcd_terms` makes only the operand of lower degree in its main variable
# primitive, folds the coefficients of the other into that content, and
# divides a unit lead out of each pseudo-remainder step.  The reference is
# the PRS as it was before those changes: both operands primitive, their
# contents' gcd taken separately, every step scaled by the lead; sympy's gcd
# is a second oracle.  Operands are planted products: a shared factor, a
# large cofactor on one side and a small one on the other, univariate
# contents (shared and not) and monomial factors.


def both_primitive(f: dict, s: int, u: int, p: int) -> tuple[dict, dict]:
    parts = sorted(_coeffs(f, s, u).values(), key=len)
    content = parts[0]
    for c in parts[1:]:
        content = both_primitive_gcd(content, c, p)
        if content == {0: 1}:
            break
    return _normal(_div_terms(f, content, p), p), content


def both_primitive_gcd(a: dict, b: dict, p: int) -> dict:
    if len(a) == 1 or len(b) == 1:
        return {_min_exp([*a, *b]): 1}
    if a == b:
        return _normal(a, p)
    sa, sb = _min_exp(a), _min_exp(b)
    shared = {_min_exp((sa, sb)): 1}
    a = {e - sa: c for e, c in a.items()}
    b = {e - sb: c for e, c in b.items()}
    d = (max(max(a), max(b)).bit_length() - 1) // W * W
    best = None
    for t in range(0, d, W):
        if any(e >> t & MASK for e in [*a, *b]):
            k = max(e >> t & MASK for e in [*a, *b])
            if best is None or k < best:
                best, s = k, t
    u = 1 << d | 1 << s
    a, ca = both_primitive(a, s, u, p)
    b, cb = both_primitive(b, s, u, p)
    if max(e >> s & MASK for e in a) < max(e >> s & MASK for e in b):
        a, b = b, a
    while b:
        parts = _coeffs(b, s, u)
        db = max(parts)
        lb = parts[db]
        r = a
        while r:
            parts = _coeffs(r, s, u)
            dr = max(parts)
            if dr < db:
                break
            lr = {e + (dr - db) * u: -c for e, c in parts[dr].items()}
            r = _mul_terms(lr, b, p, _mul_terms(lb, r, p))
        a, b = b, both_primitive(r, s, u, p)[0] if r else r
    g = _mul_terms(shared, both_primitive_gcd(ca, cb, p), p)
    return _mul_terms(g, a, p) if any(e >> s & MASK for e in a) else g


def sympy_gcd(a: dict, b: dict, p: int, dim: int) -> dict:
    gens = sympy.symbols(VARIABLES[:dim])
    extra = {"domain": sympy.ZZ} if p == 0 else {"modulus": p}
    sa, sb = (sympy.Poly.from_dict(unpacked(f, dim), *gens, **extra) for f in (a, b))
    terms = {e: int(c) % p if p else int(c) for e, c in sympy.gcd(sa, sb).as_dict().items()}
    return _normal(packed(terms), p)


def gcd_operands(p: int, dim: int):
    """Pairs (a, b) of packed term dicts with planted common factors."""
    # over Z, leading coefficients +-1 (units) come up as often as others
    coeff = (
        st.one_of(st.sampled_from([1, -1]), st.integers(-9, 9).filter(bool))
        if p == 0
        else st.integers(1, p - 1)
    )

    def terms(max_terms, max_exp):
        exps = st.tuples(*[st.integers(0, max_exp)] * dim)
        return st.dictionaries(exps, coeff, min_size=1, max_size=max_terms).map(packed)

    def univariate(max_terms):
        # a content in every main variable but one
        def lift(v, terms):
            return packed({(0,) * v + (k,) + (0,) * (dim - 1 - v): c for k, c in terms.items()})

        one = st.dictionaries(st.integers(0, 2), coeff, min_size=1, max_size=max_terms)
        return st.tuples(st.integers(0, dim - 1), one).map(lambda vt: lift(*vt))

    def product(*factors):
        return reduce(lambda f, g: _mul_terms(f, g, p), factors)

    def pair(shared, large, small, content, ca, cb, ma, mb, swap):
        a = product(shared, large, content, ca, ma)
        b = product(shared, small, content, cb, mb)
        return (b, a) if swap else (a, b)

    return st.tuples(
        terms(2, 2),  # shared
        terms(5, 2),  # the large cofactor
        terms(2, 1),  # the small cofactor
        univariate(2), univariate(2), univariate(2),  # contents: shared, a's, b's
        terms(1, 2), terms(1, 2),  # monomials
        st.booleans(),
    ).map(lambda t: pair(*t))


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("p", PRIMES)
def test_prs_matches_the_both_primitive_prs_and_sympy(p, dim):
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(gcd_operands(p, dim))
    def check(pair):
        a, b = pair
        before = dict(a), dict(b)
        g = _gcd_terms(a, b, p)
        # the operands are not modified in place
        assert (a, b) == before
        assert g == both_primitive_gcd(a, b, p) == sympy_gcd(a, b, p, dim)

    check()


@pytest.mark.parametrize("p", PRIMES)
def test_prs_folds_contents_and_divides_unit_leads(p):
    # main variable x (degree 1 in both, y and z of degree 2 or more): b has
    # the content (y + 1)(y^2 + 2) and a the content (y + 1)(z^2 + 1), so the
    # fold stops at y + 1; b's lead in x is a unit in the first pair and not
    # in the second
    chart = Chart(VARIABLES, p)
    x, y, z = (MultiPoly.var(chart, v) for v in VARIABLES)
    shared = x + y * z + 1
    for lead in (MultiPoly.const(chart, 1), y + 1):
        a = (y + 1) * (z**2 + 1) * shared * (x * z**2 + y**2)
        b = (y + 1) * (y**2 + 2) * shared * (lead * x + z)
        g = _gcd_terms(a._ints, b._ints, p)
        assert g == both_primitive_gcd(a._ints, b._ints, p) == sympy_gcd(a._ints, b._ints, p, 3)
        assert poly_gcd(a, b) == ((y + 1) * shared).monic()


# -- powers against repeated products -------------------------------------------


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_power_matches_repeated_products(p):
    chart = Chart(VARIABLES[:2], p)
    x, y = (MultiPoly.var(chart, v) for v in VARIABLES[:2])
    one = MultiPoly.const(chart, 1)
    fixed = [one, MultiPoly.const(chart, p - 1), MultiPoly.zero(chart), x, x * y**2 * 2]

    @settings(max_examples=8, deadline=None, derandomize=True, database=None)
    @given(polys(p, max_terms=3, max_exp=2))
    def check(f):
        for g in [*fixed, f]:
            for k in (0, 1, p, 2 * p, p * p, 3 * p + 1):
                power = g**k
                assert_canonical(power)
                assert power == reduce(mul, [g] * k, one)

    check()


@pytest.mark.parametrize("p", [0, 2, 3, 7])
def test_power_past_the_degree_bound_raises(p):
    chart = Chart(VARIABLES[:2], p)
    x, y = (MultiPoly.var(chart, v) for v in VARIABLES[:2])
    q = p or 2
    k = q
    while k < HALF:
        k *= q
    # x^(k/q) is in range; its q-th power and x^k reach 2^15
    assert x ** (k // q) == MultiPoly.monomial(chart, (k // q, 0))
    for call in (lambda: x**k, lambda: (x ** (k // q)) ** q, lambda: (x * y) ** (k // q)):
        with pytest.raises(GvError, match="overflow"):
            call()
