"""Unit tests for formal series, integrability defects, and reparametrization."""

from __future__ import annotations

from fractions import Fraction

import pytest

from gvcalc import Chart, GvError, VanishingLeadCoefficient
from gvcalc.exterior import DiffForm, ext_d, is_integrable, wedge
from gvcalc.zseries import (
    FormalOmega,
    Substitution,
    compose_substitutions,
    from_extended_form,
    is_formal_integrable,
    structure_defect,
    substitute_series,
    to_extended_form,
)

C2 = Chart(("x", "y"))
C5 = Chart(("x1", "x2", "x3", "x4", "x5"))


def some_forms(chart, count):
    """Deterministic mildly generic 1-forms for expansion tests."""
    out = []
    vs = [chart.var(v) for v in chart.variables]
    n = chart.dim
    for k in range(count):
        coeffs = []
        for i in range(n):
            f = vs[(k + i) % n] * vs[(k + 2 * i + 1) % n] + (k + 1) * vs[i]
            coeffs.append(f + (1 if (i + k) % 3 == 0 else 0))
        out.append(DiffForm.one_form(chart, coeffs))
    return out


def affine_pair(chart=C2):
    """w_0 = y dx, w_1 = -(1/y) dy: an integrable length-2 sequence."""
    y = chart.var("y")
    w0 = DiffForm.one_form(chart, [y, chart.zero()])
    w1 = DiffForm.one_form(chart, [chart.zero(), -1 / y])
    return w0, w1


class TestDefects:
    def test_low_indices(self):
        ws = some_forms(C5, 5)
        om = FormalOmega(C5, ws)
        d0 = structure_defect(om, 0)
        assert d0 == ext_d(ws[0]) - wedge(ws[0], ws[1])
        d1 = structure_defect(om, 1)
        assert d1 == ext_d(ws[1]) - wedge(ws[0], ws[2])
        d2 = structure_defect(om, 2)
        assert d2 == ext_d(ws[2]) - wedge(ws[0], ws[3]) - wedge(ws[1], ws[2])

    def test_index_three_weights(self):
        ws = some_forms(C5, 5)
        om = FormalOmega(C5, ws)
        d3 = structure_defect(om, 3)
        expected = ext_d(ws[3]) - wedge(ws[0], ws[4]) - wedge(ws[1], ws[3]) * 2
        assert d3 == expected
        wrong = ext_d(ws[3]) - wedge(ws[0], ws[4]) - wedge(ws[1], ws[3]) * 3
        assert d3 != wrong

    def test_beyond_length_tail(self):
        # k above the stored range only keeps the quadratic tail terms
        ws = some_forms(C5, 3)
        om = FormalOmega(C5, ws)
        d3 = structure_defect(om, 3)
        # pairs (j,l) with j+l=4 and both <= 2: only (2,2), which cancels
        assert d3.is_zero()


class TestExtendedForm:
    def test_integrable_iff_defects_vanish(self):
        w0, w1 = affine_pair()
        om = FormalOmega(C2, [w0, w1])
        assert is_formal_integrable(om)
        assert is_integrable(to_extended_form(om))

    def test_non_integrable_detected(self):
        y = C2.var("y")
        w0 = DiffForm.one_form(C2, [y, C2.zero()])  # d(w0) != 0
        om = FormalOmega(C2, [w0])
        assert not is_formal_integrable(om)
        assert not is_integrable(to_extended_form(om))

    def test_roundtrip(self):
        ws = some_forms(C2, 3)
        om = FormalOmega(C2, ws)
        back = from_extended_form(to_extended_form(om))
        assert back == om

    def test_factorial_weights_in_extension(self):
        w0, w1 = affine_pair()
        om = FormalOmega(C2, [DiffForm.zero(C2, 1), DiffForm.zero(C2, 1), w0])
        ext = to_extended_form(om)
        # coefficient of dx must be z^2/2 * y
        zc = ext.coeff((0,))
        zvar = ext.chart.var("z")
        yvar = ext.chart.var("y")
        assert zc == zvar * zvar * yvar * Fraction(1, 2)

    def test_rejects_a_variable_already_on_the_chart(self):
        om = FormalOmega(C2, list(affine_pair()))
        with pytest.raises(GvError):
            to_extended_form(om, zname="y")


class TestSubstitution:
    def test_linear_coefficient_required(self):
        with pytest.raises(VanishingLeadCoefficient):
            Substitution(C2, [C2.one(), C2.zero()])

    def test_identity(self):
        ws = some_forms(C2, 3)
        om = FormalOmega(C2, ws)
        s = Substitution.normalized(C2, [C2.one()])
        out = substitute_series(om, s)
        assert out == om

    def test_rescale_action(self):
        ws = some_forms(C2, 4)
        om = FormalOmega(C2, ws)
        f = C2.var("x") + 2
        s = Substitution.normalized(C2, [f])
        out = substitute_series(om, s, upto=5)
        df_over_f = DiffForm.one_form(
            C2, [c / f for c in ext_d(f).coeffs()]
        )
        assert out.omega(0) == ws[0] / f
        assert out.omega(1) == ws[1] + df_over_f
        assert out.omega(2) == ws[2] * f
        assert out.omega(3) == ws[3] * f**2
        assert out.omega(4).is_zero()
        assert out.omega(5).is_zero()

    def test_plain_quadratic_shift_lowers_by_doubled_product(self):
        ws = some_forms(C2, 3)
        om = FormalOmega(C2, ws)
        f = C2.var("y")
        s = Substitution.normalized(C2, [C2.one(), f])
        out = substitute_series(om, s)
        assert out.omega(0) == ws[0]
        assert out.omega(1) == ws[1] - ws[0] * (2 * f)

    def test_normalized_cubic_triple_matches_column_identities(self):
        ws = some_forms(C2, 3)
        om = FormalOmega(C2, ws)
        f = C2.var("x")
        s = Substitution.normalized(
            C2, [C2.one(), -f / 2, f * f * Fraction(1, 3)]
        )
        out = substitute_series(om, s)
        assert out.omega(0) == ws[0]
        assert out.omega(1) == ws[1] + ws[0] * f
        assert out.omega(2) == ws[2] + ws[1] * f - ext_d(f)

    def test_composition_law(self):
        ws = some_forms(C2, 3)
        om = FormalOmega(C2, ws)
        x, y = C2.var("x"), C2.var("y")
        s = Substitution.normalized(C2, [C2.one() + x * 0 + 1, y])
        r = Substitution.normalized(C2, [C2.one(), x, C2.const(3)])
        lhs = substitute_series(substitute_series(om, s, upto=5), r, upto=5)
        rhs = substitute_series(om, compose_substitutions(s, r), upto=5)
        assert lhs == rhs

    def test_compose_exact_coefficients(self):
        a, b = C2.var("x"), C2.var("y")
        s = Substitution.normalized(C2, [C2.one(), a])
        r = Substitution.normalized(C2, [C2.one(), b])
        c = compose_substitutions(s, r)
        # u + (a+b)u^2 + 2ab u^3 + a b^2 u^4
        assert c.coeffs[1] == C2.one()
        assert c.coeffs[2] == a + b
        assert c.coeffs[3] == 2 * a * b
        assert c.coeffs[4] == a * b * b

    def test_affine_part_flagged(self):
        s = Substitution(C2, [C2.const(-1), C2.one()])
        assert not s.preserves_basepoint
        assert Substitution.normalized(C2, [C2.one()]).preserves_basepoint

    def test_rescale_preserves_integrability(self):
        w0, w1 = affine_pair()
        om = FormalOmega(C2, [w0, w1])
        s = Substitution.normalized(C2, [C2.var("x") ** 2 + 1])
        out = substitute_series(om, s, upto=4)
        assert is_formal_integrable(out)

    def test_char_p_guard(self):
        c = Chart(("x", "y"), 3)
        w = DiffForm.one_form(c, [c.var("y"), c.zero()])
        om = FormalOmega(c, [w, w, w, w])
        s = Substitution.normalized(c, [c.one()])
        with pytest.raises(GvError):
            substitute_series(om, s)
