"""Unit tests for formal series, integrability defects, and reparametrization."""

from __future__ import annotations

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_exterior_oracles import chart_id, forms, polys, ratfns

from gvcalc import Chart, GvError, RatFn, VanishingLeadCoefficient
from gvcalc.exterior import DiffForm, ext_d, is_integrable, pullback, wedge
from gvcalc.field import _append_variable, _drop_variable
from gvcalc.transverse import Triple, riccati_triple, triple_verify
from gvcalc.zseries import (
    FormalOmega,
    Substitution,
    compose_substitutions,
    from_extended_form,
    is_formal_integrable,
    structure_defect,
    _lifted,
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


# -- the route before scalar division came first, kept as an oracle -----------


def convolve_reference(a, b, upto, zero):
    """The product of a series of forms or functions with a series of functions."""
    out = [zero] * (upto + 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j <= upto:
                out[i + j] = out[i + j] + x * y
    return out


def substitute_series_reference(om, sub, upto):
    """B_j = d f_j + sum_k z^k[j]/k! w_k for each power of t, then B times 1/A.

    A = dz/dt; its inverse is solved term by term, and out_j = j! (B / A)_j.
    """
    chart = om.chart
    fs = list(sub.coeffs)
    A = [fs[k + 1] * (k + 1) for k in range(len(fs) - 1)]
    A += [chart.zero()] * (upto + 1 - len(A))
    inv = [A[0].inv()]
    for j in range(1, upto + 1):
        acc = sum((A[i] * inv[j - i] for i in range(1, j + 1)), chart.zero())
        inv.append(-acc * inv[0])
    zero = DiffForm.zero(chart, 1)
    B = [ext_d(fs[j]) if j < len(fs) else zero for j in range(upto + 1)]
    zpow = [chart.one()] + [chart.zero()] * upto
    for k, wk in enumerate(om.coeffs):
        if k > 0:
            zpow = convolve_reference(zpow, fs, upto, chart.zero())
        for j in range(upto + 1):
            B[j] = B[j] + wk * (zpow[j] * Fraction(1, factorial(k)))
    C = convolve_reference(B, inv, upto, zero)
    return [C[j] * factorial(j) for j in range(upto + 1)]


ORACLE_CHARTS = [Chart(("x", "y")), Chart(("x", "y"), 7)]


def series_inputs(chart, polynomial, basepoint_moves):
    """(forms, substitution, upto) with upto < 7, below the characteristic.

    f_1 is a constant or a linear polynomial.  Polynomial inputs have
    polynomial forms and f_k: with a constant f_1 every scalar is a
    polynomial and each column is summed in place, with a linear one 1/A is
    a fraction and the columns collect `RatFn` products.  In fractional
    inputs w_0 has a fractional coefficient, so every column collects
    `RatFn` products; the other forms and f_k may be fractions too.
    """
    x, y = chart.var("x"), chart.var("y")
    coeffs = first = polys(chart, max_terms=2).map(RatFn.from_poly)
    if not polynomial:
        dens = st.sampled_from([chart.one(), x + 1, y - 2, x * y + 3])
        coeffs = st.builds(lambda n, d: n / d, coeffs, dens)
        first = coeffs.filter(lambda f: not f.den.is_constant())
    units = st.sampled_from([1, -1, 2, 3, Fraction(1, 2), Fraction(-5, 3)])
    lead = st.one_of(
        units.map(chart.const),
        st.builds(lambda a, b, c: x * a + y * b + c, units, st.integers(-2, 2), units),
    )
    if basepoint_moves:
        base = coeffs.filter(lambda f: not f.is_zero())
    else:
        base = st.just(chart.zero())
    subs = st.builds(
        lambda f0, f1, tail: Substitution(chart, [f0, f1, *tail]),
        base,
        lead,
        st.lists(coeffs, max_size=2),
    )
    ws = st.builds(
        lambda w0, rest: [w0, *rest],
        forms(chart, 1, first),
        st.lists(forms(chart, 1, coeffs), max_size=3),
    )
    return st.tuples(ws, subs, st.integers(0, 5))


@pytest.mark.parametrize("basepoint_moves", [False, True], ids=["f0-zero", "f0-nonzero"])
@pytest.mark.parametrize("polynomial", [True, False], ids=["polynomial", "fractional"])
@pytest.mark.parametrize("chart", ORACLE_CHARTS, ids=chart_id)
def test_substitute_series_matches_the_form_convolution(chart, polynomial, basepoint_moves):
    """Dividing the scalar series first gives every coefficient of the old route.

    With f_0 != 0, z^k has terms below t^k, so column j takes w_k for k > j
    with the fractional weight j!/k!.
    """

    @settings(max_examples=12, deadline=None, derandomize=True, database=None)
    @given(series_inputs(chart, polynomial, basepoint_moves))
    def check(case):
        ws, sub, upto = case
        om = FormalOmega(chart, ws)
        ours = substitute_series(om, sub, upto)
        expected = substitute_series_reference(om, sub, upto)
        assert [str(w) for w in ours.coeffs] == [str(w) for w in expected]

    check()


# -- the lift onto the fiber chart, against the rational routes it replaced ----


def fresh_fiber(chart: Chart) -> str:
    """z, or z0, z1, ... when the base chart already holds the name."""
    fiber, k = "z", 0
    while fiber in chart.variables:
        fiber, k = f"z{k}", k + 1
    return fiber


def moved_reference(w: DiffForm, ext: Chart) -> DiffForm:
    """w on the extended chart, by `substitute` on the base coordinates."""
    coords = [ext.var(v) for v in w.chart.variables]
    return DiffForm(ext, w.degree, {idx: c.substitute(coords) for idx, c in w.terms.items()})


def extended_form_reference(om: FormalOmega, zname: str) -> DiffForm:
    """dz + sum z^k/k! w_k, each w_k moved by `moved_reference`."""
    ext = om.chart.extend(zname)
    z = ext.var(zname)
    out = DiffForm.coordinate(ext, zname)
    for k, w in enumerate(om.coeffs):
        out = out + moved_reference(w, ext) * (z**k * Fraction(1, factorial(k)))
    return out


def riccati_reference(alpha: DiffForm, beta: DiffForm, gamma: DiffForm) -> Triple:
    """The FULL triple of dz + a + b z + c z^2, with a, b, c the pullbacks of
    alpha, beta, gamma along the projection of the product chart."""
    chart = alpha.chart
    product = chart.extend(fresh_fiber(chart))
    fiber = product.variables[-1]
    proj = [product.var(v) for v in chart.variables]
    a, b, c = (pullback(proj, w) for w in (alpha, beta, gamma))
    z, dz = product.var(fiber), DiffForm.coordinate(product, fiber)
    return Triple(dz + a + b * z + c * (z * z), b + c * (2 * z), c)


LIFT_CHARTS = [
    Chart(names, p)
    for p in (0, 5)
    for names in (("x",), ("z",), ("x", "y"), ("z", "z0"), ("x", "z", "y"), ("z0", "x", "z"))
]


def lift_inputs(chart: Chart):
    """Three 1-forms with `ratfns` coefficients, or three multiples
    (c + c' f) df of one differential, which satisfy the Riccati relations."""
    f = ratfns(chart).filter(lambda f: not ext_d(f).is_zero())
    units = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    if chart.characteristic:
        units = st.integers(0, chart.characteristic - 1)
    parallel = st.builds(
        lambda f, cs: [ext_d(f) * (cs[i] + cs[i + 1] * f) for i in (0, 2, 4)],
        f,
        st.lists(units, min_size=6, max_size=6),
    )
    return st.one_of(st.lists(forms(chart, 1), min_size=3, max_size=3), parallel)


def test_fresh_fiber_skips_the_names_on_the_chart():
    assert [fresh_fiber(c) for c in LIFT_CHARTS[:4]] == ["z", "z0", "z", "z1"]
    x = Chart(("z", "z0")).var("z")
    dz = DiffForm.coordinate(x.chart, "z")
    assert riccati_triple(dz * x, dz, dz).chart.variables == ("z", "z0", "z1")


@pytest.mark.parametrize("chart", LIFT_CHARTS, ids=chart_id)
def test_lift_agrees_with_substitute_and_pullback(chart):
    """The packed-key lift gives the extended form of `substitute`, the
    Riccati triple of `pullback`, and `_drop_variable` takes it back."""

    @settings(max_examples=15, deadline=None, derandomize=True, database=None)
    @given(lift_inputs(chart))
    def check(ws):
        fiber = fresh_fiber(chart)
        ext = chart.extend(fiber)
        for w in ws:
            assert _lifted(w, ext) == moved_reference(w, ext)
            for c in w.terms.values():
                for part in (c.num, c.den):
                    lifted = _append_variable(part, ext)
                    assert lifted.chart == ext and lifted.degree_in(fiber) == 0
                    assert _drop_variable(lifted, chart.dim, chart) == part
        om = FormalOmega(chart, ws)
        ours = to_extended_form(om, fiber)
        assert ours == extended_form_reference(om, fiber)
        assert str(ours) == str(extended_form_reference(om, fiber))
        if chart.characteristic:
            with pytest.raises(GvError):  # projective triples need characteristic 0
                riccati_triple(*ws)
            return
        expected = riccati_reference(*ws)
        if triple_verify(expected).ok:
            assert str(riccati_triple(*ws)) == str(expected)
            assert riccati_triple(*ws) == expected
        else:
            with pytest.raises(GvError):
                riccati_triple(*ws)

    check()


# -- Horner composition, against the sum of powers -----------------------------


def composition_reference(s: Substitution, r: Substitution) -> list[RatFn]:
    """sum_k s_k r^k in the formal variable, from plain `RatFn` products."""
    zero = s.chart.zero()
    total, power = [zero], [s.chart.one()]
    for k, sk in enumerate(s.coeffs):
        if k:
            product = [zero] * (len(power) + len(r.coeffs) - 1)
            for i, a in enumerate(power):
                for j, b in enumerate(r.coeffs):
                    product[i + j] = product[i + j] + a * b
            power = product
        total += [zero] * (len(power) - len(total))
        total = [t + sk * c for t, c in zip(total, power)]
    return total


def substitutions(chart: Chart):
    """f_0 != 0, a nonzero f_1 and up to two more entries, with fractional
    coefficients from `ratfns`."""
    nonzero = ratfns(chart).filter(lambda f: not f.is_zero())
    return st.builds(
        lambda f0, f1, tail: Substitution(chart, [f0, f1, *tail]),
        nonzero,
        nonzero,
        st.lists(ratfns(chart), max_size=2),
    )


@pytest.mark.parametrize("chart", [C2, Chart(("x", "y"), 7)], ids=chart_id)
def test_compose_agrees_with_the_sum_of_powers(chart):
    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(substitutions(chart), substitutions(chart))
    def check(s, r):
        expected = composition_reference(s, r)
        if expected[1].is_zero():
            with pytest.raises(VanishingLeadCoefficient):
                compose_substitutions(s, r)
            return
        ours = compose_substitutions(s, r)
        assert ours == Substitution(chart, expected)
        assert repr(ours) == repr(Substitution(chart, expected))

    check()
