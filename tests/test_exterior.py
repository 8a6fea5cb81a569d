"""Unit tests for forms, vector fields, and the exterior operations."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_field_oracles import SETTINGS, polys

from gvcalc import Chart, GvError, RatFn, ZeroDenominator, ZeroFunction
from gvcalc.exterior import (
    DiffForm,
    VectorField,
    d_of,
    ext_d,
    form_apply,
    interior,
    is_integrable,
    lie_derivative,
    pullback,
    same_foliation,
    wedge,
    wedge_all,
)

C2 = Chart(("x", "y"))
C3 = Chart(("x", "y", "z"))


def dx(chart, name):
    return DiffForm.coordinate(chart, name)


class TestFormBasics:
    def test_construction_drops_zero(self):
        f = DiffForm(C2, 1, {(0,): C2.zero(), (1,): C2.one()})
        assert list(f.terms) == [(1,)]

    def test_rejects_decreasing_index(self):
        with pytest.raises(GvError):
            DiffForm(C3, 2, {(1, 0): C3.one()})

    def test_degree_above_dimension_is_zero(self):
        f = DiffForm(C2, 3, {})
        assert f.is_zero()

    def test_linear(self):
        a = dx(C2, "x")
        b = dx(C2, "y")
        x = C2.var("x")
        f = a * x + b
        assert f.coeff((0,)) == x
        assert f.coeff((1,)) == C2.one()
        assert (f - f).is_zero()

    @pytest.mark.parametrize("p", [0, 2, 5])
    @pytest.mark.parametrize("c", [0, 3, -1, 5, 10, Fraction(7, 3), Fraction(5, 2)])
    def test_scalar_product_agrees_with_constant_function(self, p, c):
        chart = Chart(("x", "y"), p)
        x, y = chart.var("x"), chart.var("y")
        f = DiffForm.one_form(chart, [x * y + 1, 1 / (y + 3)])
        try:
            k = chart.const(c)
        except ZeroDenominator:
            with pytest.raises(ZeroDenominator):
                f * c
            return
        for fast, general in ((f * c, f * k), (c * f, k * f)):
            assert fast == general and str(fast) == str(general)

    def test_one_form_coeffs_roundtrip(self):
        x, y = C2.var("x"), C2.var("y")
        f = DiffForm.one_form(C2, [x * y, y + 1])
        assert f.coeffs() == (x * y, y + 1)


class TestWedge:
    def test_anticommutes(self):
        a = dx(C3, "x")
        b = dx(C3, "y")
        assert wedge(a, b) == -wedge(b, a)
        assert wedge(a, a).is_zero()

    def test_sign_three_factors(self):
        a, b, c = dx(C3, "x"), dx(C3, "y"), dx(C3, "z")
        top = wedge_all([c, a, b])
        # dz^dx^dy = + dx^dy^dz (cyclic, even permutation)
        assert top == wedge_all([a, b, c])
        assert wedge_all([b, a, c]) == -wedge_all([a, b, c])

    def test_degree_zero_acts_as_scalar(self):
        x = C2.var("x")
        f = DiffForm.from_function(x)
        a = dx(C2, "y")
        assert wedge(f, a) == a * x
        assert wedge(a, f) == a * x

    def test_truncates_above_dimension(self):
        a = wedge(dx(C2, "x"), dx(C2, "y"))
        assert wedge(a, a).is_zero()


class TestExteriorDerivative:
    def test_on_function(self):
        x, y = C2.var("x"), C2.var("y")
        f = x * x * y
        df = ext_d(f)
        assert df.coeff((0,)) == 2 * x * y
        assert df.coeff((1,)) == x * x

    def test_d_squared_zero(self):
        x, y, z = C3.var("x"), C3.var("y"), C3.var("z")
        f = (x * y + z**3) / (x + 1)
        assert ext_d(ext_d(f)).is_zero()
        a = DiffForm.one_form(C3, [y * z, x * z, x * y / (y + 2)])
        assert ext_d(ext_d(a)).is_zero()

    def test_leibniz(self):
        x, y = C2.var("x"), C2.var("y")
        f = x + y * y
        a = DiffForm.one_form(C2, [y, x * x])
        lhs = ext_d(a * f)
        rhs = wedge(d_of(f), a) + ext_d(a) * f
        assert lhs == rhs

    def test_classic_area_form(self):
        x, y = C2.var("x"), C2.var("y")
        a = DiffForm.one_form(C2, [-y, x])
        da = ext_d(a)
        assert da.coeff((0, 1)) == C2.const(2)


class TestInterior:
    def test_first_slot_convention(self):
        X = VectorField(C3, [C3.var("x"), C3.const(2), C3.zero()])
        a = wedge(dx(C3, "x"), dx(C3, "y"))
        out = interior(X, a)
        # i_X(dx^dy) = X^x dy - X^y dx
        assert out.coeff((1,)) == C3.var("x")
        assert out.coeff((0,)) == C3.const(-2)

    def test_antiderivation(self):
        x, y, z = C3.var("x"), C3.var("y"), C3.var("z")
        X = VectorField(C3, [y, z * z, x + 1])
        a = DiffForm.one_form(C3, [z, x, y * y])
        b = DiffForm.one_form(C3, [x * x, 1 / (z + 2), y])
        lhs = interior(X, wedge(a, b))
        rhs = wedge(DiffForm.from_function(form_apply(a, X)), b) - wedge(
            a, DiffForm.from_function(form_apply(b, X))
        )
        assert lhs == rhs

    def test_degree_zero_raises(self):
        X = VectorField.coordinate(C2, "x")
        with pytest.raises(GvError):
            interior(X, DiffForm.from_function(C2.one()))


class TestVectorField:
    def test_apply(self):
        X = VectorField(C2, [C2.var("y"), C2.one()])
        f = C2.var("x") * C2.var("x")
        assert X.apply(f) == 2 * C2.var("x") * C2.var("y")

    def test_bracket_coordinates(self):
        X = VectorField.coordinate(C2, "x")
        Y = VectorField(C2, [C2.zero(), C2.var("x")])
        assert X.bracket(Y) == VectorField.coordinate(C2, "y")

    def test_bracket_antisymmetric(self):
        X = VectorField(C2, [C2.var("y"), C2.var("x") * C2.var("x")])
        Y = VectorField(C2, [C2.one(), C2.var("x") * C2.var("y")])
        assert X.bracket(Y) == -(Y.bracket(X))


class TestLieDerivative:
    def test_on_function(self):
        X = VectorField.coordinate(C2, "x")
        f = C2.var("x") * C2.var("y")
        assert lie_derivative(X, f) == C2.var("y")

    def test_commutes_with_d(self):
        x, y = C2.var("x"), C2.var("y")
        X = VectorField(C2, [y, x * x + 1])
        f = x * y + y**3
        assert lie_derivative(X, ext_d(f)) == ext_d(lie_derivative(X, f))

    def test_product_rule(self):
        x, y = C2.var("x"), C2.var("y")
        X = VectorField(C2, [x, y * y])
        f = x + y
        a = DiffForm.one_form(C2, [y, x])
        lhs = lie_derivative(X, a * f)
        rhs = a * X.apply(f) + lie_derivative(X, a) * f
        assert lhs == rhs

    def test_coordinate_translation(self):
        X = VectorField.coordinate(C2, "x")
        a = DiffForm.one_form(C2, [C2.var("x"), C2.zero()])
        assert lie_derivative(X, a) == dx(C2, "x")


class TestIntegrability:
    def test_two_variables_always(self):
        a = DiffForm.one_form(C2, [C2.var("y") ** 2, 1 / (C2.var("x") + 3)])
        assert is_integrable(a)

    def test_contact_form_fails(self):
        # dz + x dy has nowhere-integrable kernel
        a = DiffForm.one_form(C3, [C3.zero(), C3.var("x"), C3.one()])
        assert not is_integrable(a)

    def test_exact_form_holds(self):
        f = C3.var("x") * C3.var("y") + C3.var("z") ** 2
        assert is_integrable(ext_d(f))

    def test_rescaled_exact_holds(self):
        f = C3.var("x") + C3.var("y") * C3.var("z")
        g = C3.var("z") + 1
        assert is_integrable(ext_d(f) * g)

    @pytest.mark.parametrize("p", [0, 2, 3, 5, 7])
    def test_low_dimensions_skip_the_derivative(self, p):
        # on one or two variables w ^ dw is a 3-form and vanishes identically;
        # the argument is still checked, and three variables still compute
        @SETTINGS
        @given(st.integers(1, 2), st.data())
        def check(dim, data):
            chart = Chart(("x", "y")[:dim], p)
            nums = polys(p, max_terms=3, max_exp=2, dim=dim)
            dens = polys(p, max_terms=2, max_exp=1, dim=dim).filter(lambda f: not f.is_zero())
            coeffs = [RatFn(data.draw(nums), data.draw(dens)) for _ in range(dim)]
            w = DiffForm.one_form(chart, coeffs)
            assert is_integrable(w) is True
            assert wedge(w, ext_d(w)).is_zero()
            with pytest.raises(GvError):
                is_integrable(DiffForm.from_function(coeffs[0]))
            if dim == 2:
                with pytest.raises(GvError):
                    is_integrable(ext_d(w))

        check()
        chart = Chart(("x", "y", "z"), p)
        contact = DiffForm.one_form(chart, [chart.zero(), chart.var("x"), chart.one()])
        assert is_integrable(contact) is False


class TestInternalConstructors:
    def test_zero_keeps_its_checks(self):
        assert DiffForm.zero(C2, 1) == DiffForm(C2, 1, {})
        assert DiffForm.zero(C2, 5) == DiffForm(C2, 5, {})
        for degree in (-1, True, 1.0, "1", None):
            with pytest.raises(GvError):
                DiffForm.zero(C2, degree)
        with pytest.raises(GvError):
            DiffForm.zero(("x", "y"), 1)

    def test_from_function_matches_the_validating_constructor(self):
        x = C2.var("x")
        for f in (x / (C2.var("y") + 1), x.num, C2.zero(), C2.zero().num):
            built = DiffForm.from_function(f)
            assert built == DiffForm(C2, 0, {(): f})
            assert all(isinstance(c, RatFn) for c in built.terms.values())
        for f in (None, 1, Fraction(1, 2), "x", dx(C2, "x")):
            with pytest.raises(GvError):
                DiffForm.from_function(f)


class TestSameFoliation:
    def test_rescaling(self):
        a = DiffForm.one_form(C2, [C2.var("y"), C2.var("x")])
        assert same_foliation(a, a * (C2.var("x") + 5))

    def test_distinct(self):
        a = dx(C2, "x")
        b = dx(C2, "y")
        assert not same_foliation(a, b)

    def test_zero_rejected(self):
        with pytest.raises(ZeroFunction):
            same_foliation(dx(C2, "x"), DiffForm.zero(C2, 1))


class TestPullback:
    def test_coordinate_map(self):
        # phi(u, v) = (u*v, u + v) pulling back dx and dy
        S = Chart(("u", "v"))
        u, v = S.var("u"), S.var("v")
        phi = [u * v, u + v]
        a = pullback(phi, dx(C2, "x"))
        assert a.coeff((0,)) == v
        assert a.coeff((1,)) == u

    def test_commutes_with_d(self):
        S = Chart(("u", "v"))
        u, v = S.var("u"), S.var("v")
        phi = [u * u + v, u / (v + 1)]
        f = C2.var("x") * C2.var("y") + C2.var("y")
        assert pullback(phi, ext_d(f)) == ext_d(f.substitute(phi))

    def test_respects_wedge(self):
        S = Chart(("u", "v"))
        u, v = S.var("u"), S.var("v")
        phi = [u + v * v, u * v]
        a = DiffForm.one_form(C2, [C2.var("y"), C2.var("x") + 1])
        b = DiffForm.one_form(C2, [C2.one(), C2.var("x") * C2.var("y")])
        assert pullback(phi, wedge(a, b)) == wedge(pullback(phi, a), pullback(phi, b))

    def test_function_pullback(self):
        S = Chart(("u", "v"))
        u, v = S.var("u"), S.var("v")
        f = DiffForm.from_function(C2.var("x") + C2.var("y"))
        assert pullback([u * v, u], f).scalar() == u * v + u
