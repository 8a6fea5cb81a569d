"""Unit tests for exact polynomial and rational function arithmetic."""

from __future__ import annotations

from fractions import Fraction

import pytest

from gvcalc import (
    Chart,
    ChartMismatch,
    GvError,
    MultiPoly,
    RatFn,
    ZeroDenominator,
    exact_div,
    poly_gcd,
    poly_str,
    squarefree_decomposition,
)

QXY = Chart(("x", "y"))
QXYZ = Chart(("x", "y", "z"))


def P(chart: Chart, terms: dict) -> MultiPoly:
    return MultiPoly(chart, terms)


class TestChart:
    def test_rejects_duplicate_names(self):
        with pytest.raises(GvError):
            Chart(("x", "x"))

    def test_rejects_composite_characteristic(self):
        with pytest.raises(GvError):
            Chart(("x",), 6)

    def test_rejects_bad_identifier(self):
        with pytest.raises(GvError):
            Chart(("x y",))

    def test_index(self):
        assert QXYZ.index("z") == 2
        with pytest.raises(GvError):
            QXYZ.index("w")

    def test_extend(self):
        c = QXY.extend("z")
        assert c.variables == ("x", "y", "z")
        assert c.characteristic == 0


class TestMultiPoly:
    def test_zero_normalization(self):
        f = P(QXY, {(1, 0): 0, (0, 1): 2})
        assert f.terms == {(0, 1): Fraction(2)}

    def test_mod_p_coefficients(self):
        c = Chart(("x",), 5)
        f = P(c, {(1,): 7, (0,): -1})
        assert f.terms == {(1,): 2, (0,): 4}

    def test_fraction_coefficient_mod_p(self):
        c = Chart(("x",), 7)
        f = P(c, {(0,): Fraction(1, 2)})
        # 1/2 = 4 mod 7
        assert f.terms == {(0,): 4}

    def test_add_cancels(self):
        f = P(QXY, {(1, 0): 1})
        g = P(QXY, {(1, 0): -1, (0, 0): 3})
        assert (f + g).terms == {(0, 0): Fraction(3)}

    def test_mul(self):
        x = MultiPoly.var(QXY, "x")
        y = MultiPoly.var(QXY, "y")
        f = (x + y) * (x - y)
        assert f == x * x - y * y

    def test_pow(self):
        x = MultiPoly.var(QXY, "x")
        y = MultiPoly.var(QXY, "y")
        assert (x + y) ** 3 == x**3 + 3 * x**2 * y + 3 * x * y**2 + y**3
        assert (x + y) ** 0 == MultiPoly.const(QXY, 1)

    def test_leading_graded_lex(self):
        # graded: x*y (degree 2) beats y (degree 1); lex breaks degree ties
        f = P(QXY, {(1, 1): 2, (0, 1): 5})
        assert f.leading() == ((1, 1), Fraction(2))
        g = P(QXY, {(1, 1): 2, (2, 0): 1})
        assert g.leading() == ((2, 0), Fraction(1))

    def test_diff(self):
        x = MultiPoly.var(QXY, "x")
        y = MultiPoly.var(QXY, "y")
        f = x**3 * y + 2 * y
        assert f.diff("x") == 3 * x**2 * y
        assert f.diff("y") == x**3 + MultiPoly.const(QXY, 2)

    def test_diff_char_p_kills_pth_powers(self):
        c = Chart(("x",), 3)
        x = MultiPoly.var(c, "x")
        assert (x**3).diff("x").is_zero()
        assert (x**4).diff("x") == x**3

    def test_chart_mismatch(self):
        with pytest.raises(ChartMismatch):
            MultiPoly.var(QXY, "x") + MultiPoly.var(QXYZ, "x")

    def test_str_descending_graded_lex(self):
        x = MultiPoly.var(QXY, "x")
        y = MultiPoly.var(QXY, "y")
        f = y + x**2 - 3 * x * y
        assert str(f) == "x^2 - 3*x*y + y"
        assert str(MultiPoly.zero(QXY)) == "0"

    def test_substitute(self):
        x = MultiPoly.var(QXY, "x")
        y = MultiPoly.var(QXY, "y")
        f = x**2 + y
        u = QXYZ.var("z")
        v = QXYZ.var("x") + 1
        out = f.substitute([u, v])
        z = QXYZ.var("z")
        xx = QXYZ.var("x")
        assert out == z**2 + xx + 1


class TestConstructorValidation:
    """The public constructor is the boundary: every bad term is rejected."""

    @pytest.mark.parametrize("p", [0, 5])
    @pytest.mark.parametrize("exp", [(1,), (1, 0, 0), (1, -1), (-2, 0)])
    def test_bad_exponent(self, p, exp):
        with pytest.raises(GvError, match="bad exponent"):
            MultiPoly(Chart(("x", "y"), p), {exp: 1})

    @pytest.mark.parametrize("p", [0, 5])
    @pytest.mark.parametrize("coeff", [1.5, 2.0, "1", None])
    def test_bad_coefficient(self, p, coeff):
        with pytest.raises(GvError, match="bad coefficient"):
            MultiPoly(Chart(("x", "y"), p), {(1, 0): coeff})

    def test_fraction_without_residue(self):
        with pytest.raises(ZeroDenominator):
            MultiPoly(Chart(("x", "y"), 5), {(0, 1): Fraction(2, 15)})

    def test_rejection_is_not_masked_by_a_valid_term(self):
        with pytest.raises(GvError):
            MultiPoly(QXY, {(0, 0): 1, (2, 1): 0.5})

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Chart("xy", 0),
            lambda: Chart(("x",), 2.0),
            lambda: Chart(("x", 1)),
            lambda: Chart(("x",), "2"),
            lambda: MultiPoly(None, {}),
        ],
        ids=["str-variables", "float-characteristic", "int-variable", "str-characteristic", "no-chart"],
    )
    def test_bad_chart(self, build):
        with pytest.raises(GvError):
            build()


class TestExactDiv:
    def test_exact(self):
        x = MultiPoly.var(QXY, "x")
        y = MultiPoly.var(QXY, "y")
        f = (x + y) * (x**2 - y)
        assert exact_div(f, x + y) == x**2 - y

    def test_not_exact(self):
        x = MultiPoly.var(QXY, "x")
        y = MultiPoly.var(QXY, "y")
        with pytest.raises(GvError):
            exact_div(x * x + y, x + y)

    def test_not_exact_by_coefficients_alone(self):
        # every leading exponent divides; only the coefficient 3/2 is not integral
        x = MultiPoly.var(QXY, "x")
        with pytest.raises(GvError, match="not exact"):
            exact_div(3 * x**2 + 3 * x, 2 * x + 3)

    def test_by_constant(self):
        x = MultiPoly.var(QXY, "x")
        assert exact_div(3 * x, MultiPoly.const(QXY, 3)) == x

    def test_by_zero(self):
        with pytest.raises(ZeroDenominator):
            exact_div(MultiPoly.var(QXY, "x"), MultiPoly.zero(QXY))


class TestGcd:
    def test_difference_of_squares(self):
        x = MultiPoly.var(QXY, "x")
        y = MultiPoly.var(QXY, "y")
        assert poly_gcd(x**2 - y**2, x - y) == x - y

    def test_monic_normalization(self):
        x = MultiPoly.var(QXY, "x")
        y = MultiPoly.var(QXY, "y")
        g = poly_gcd(2 * x - 2 * y, 4 * x - 4 * y)
        assert g == x - y

    def test_coprime(self):
        x = MultiPoly.var(QXY, "x")
        y = MultiPoly.var(QXY, "y")
        assert poly_gcd(x + 1, y + 1) == MultiPoly.const(QXY, 1)

    def test_monomial_content(self):
        x = MultiPoly.var(QXY, "x")
        y = MultiPoly.var(QXY, "y")
        f = x**2 * y * (x + y)
        g = x * y**2 * (x + y)
        assert poly_gcd(f, g) == x * y * (x + y)

    def test_zero_cases(self):
        x = MultiPoly.var(QXY, "x")
        z = MultiPoly.zero(QXY)
        assert poly_gcd(z, 2 * x) == x
        assert poly_gcd(2 * x, z) == x
        assert poly_gcd(z, z).is_zero()

    def test_three_variables(self):
        x = MultiPoly.var(QXYZ, "x")
        y = MultiPoly.var(QXYZ, "y")
        z = MultiPoly.var(QXYZ, "z")
        common = x * y - z**2 + 1
        f = common * (x + y + z)
        g = common * (x - y)
        assert poly_gcd(f, g) == common.monic()

    def test_char_p(self):
        c = Chart(("x", "y"), 5)
        x = MultiPoly.var(c, "x")
        y = MultiPoly.var(c, "y")
        f = (x + y) ** 2 * (x - y)
        g = (x + y) * (x + 2 * y)
        assert poly_gcd(f, g) == x + y

    def test_divides_both(self):
        x = MultiPoly.var(QXY, "x")
        y = MultiPoly.var(QXY, "y")
        f = (x**2 + y) * (x * y - 1) ** 2
        g = (x**2 + y) * (y**3 + x)
        d = poly_gcd(f, g)
        exact_div(f, d)
        exact_div(g, d)
        assert d == (x**2 + y).monic()


class TestSquarefree:
    def test_char_zero(self):
        x = MultiPoly.var(QXY, "x")
        y = MultiPoly.var(QXY, "y")
        f = (x + y) ** 2 * (x - y) ** 3 * (x + 1)
        parts = dict()
        for g, m in squarefree_decomposition(f):
            parts[m] = g
        assert parts[1] == x + 1
        assert parts[2] == x + y
        assert parts[3] == x - y
        assert len(parts) == 3

    def test_char_p_multiplicity_p(self):
        c = Chart(("x", "y"), 3)
        x = MultiPoly.var(c, "x")
        y = MultiPoly.var(c, "y")
        f = (x + y) ** 3 * (x - y) ** 2
        parts = {m: g for g, m in squarefree_decomposition(f)}
        assert parts[3] == x + y
        assert parts[2] == x + (3 - 1) * y
        assert len(parts) == 2

    def test_reassembles(self):
        x = MultiPoly.var(QXY, "x")
        y = MultiPoly.var(QXY, "y")
        f = (x * y + 1) ** 2 * (x + y**2)
        prod = MultiPoly.const(QXY, 1)
        for g, m in squarefree_decomposition(f):
            prod = prod * g**m
        assert prod == f.monic()


class TestRatFn:
    def test_normalized_on_build(self):
        x = MultiPoly.var(QXY, "x")
        y = MultiPoly.var(QXY, "y")
        r = RatFn((x**2 - y**2) * 2, (x - y) * 4)
        assert r == RatFn.from_poly(x + y) * Fraction(1, 2)
        assert r.den == MultiPoly.const(QXY, 1)

    def test_monic_denominator(self):
        x = MultiPoly.var(QXY, "x")
        r = RatFn(MultiPoly.const(QXY, 1), 3 * x)
        assert r.den == x
        assert r.num == MultiPoly.const(QXY, Fraction(1, 3))

    def test_zero_denominator(self):
        with pytest.raises(ZeroDenominator):
            RatFn(MultiPoly.var(QXY, "x"), MultiPoly.zero(QXY))

    def test_add_reduces(self):
        x = QXY.var("x")
        y = QXY.var("y")
        one = QXY.one()
        r = one / (x - y) + one / (x + y)
        assert r == (2 * x) / (x * x - y * y)

    def test_add_same_denominator(self):
        x = QXY.var("x")
        y = QXY.var("y")
        r = x / y + (y - x) / y
        assert r == QXY.one()

    def test_field_inverse(self):
        x = QXY.var("x")
        y = QXY.var("y")
        f = (x + y) / (x * y - 1)
        assert f * f.inv() == QXY.one()
        assert f / f == QXY.one()

    @pytest.mark.parametrize("p", [0, 2, 5])
    def test_scalar_over_function(self, p):
        chart = Chart(("x", "y"), p)
        x = chart.var("x")
        y = chart.var("y")
        f = (3 * x * y + 1) / (x * x + y)
        for c in (1, 3, -4, Fraction(2, 3), 0):
            assert c / f == f.inv() * c
        with pytest.raises(ZeroDenominator):
            1 / chart.zero()

    def test_pow_negative(self):
        x = QXY.var("x")
        assert x**-2 == QXY.one() / (x * x)

    def test_zero_pow_zero_is_one(self):
        assert QXY.zero() ** 0 == QXY.one()

    def test_diff_quotient_rule(self):
        x = QXY.var("x")
        y = QXY.var("y")
        f = x / y
        assert f.diff("x") == 1 / y
        assert f.diff("y") == -x / (y * y)

    def test_substitute_zero_denominator(self):
        x = QXY.var("x")
        y = QXY.var("y")
        f = 1 / x
        with pytest.raises(ZeroDenominator):
            f.substitute([QXYZ.zero(), QXYZ.var("y")])

    def test_equality_is_canonical(self):
        x = QXY.var("x")
        y = QXY.var("y")
        a = (x * x - y * y) / (x - y)
        b = x + y
        assert a == b
        assert hash(a) == hash(b)

    def test_constant_value_char_p(self):
        c = Chart(("x",), 7)
        half = c.const(1) / c.const(2)
        assert half.constant_value() == 4

    def test_str_roundtrip_shape(self):
        x = QXY.var("x")
        y = QXY.var("y")
        assert str(x / y) == "(x)/(y)"
        assert str(x + y) == "x + y"


class TestCharPArithmetic:
    def test_frobenius(self):
        c = Chart(("x", "y"), 5)
        x = MultiPoly.var(c, "x")
        y = MultiPoly.var(c, "y")
        assert (x + y) ** 5 == x**5 + y**5

    def test_fermat_inverse(self):
        c = Chart(("x",), 11)
        f = c.const(3)
        assert (f * f.inv()).constant_value() == 1
