"""Oracle tests for the structure relation and the shared elimination.

`structure_defect` pairs w_j ^ w_l with w_l ^ w_j and keeps integer weights;
here it is compared with the unpaired sum of the relation as written,

    d w_k - sum_{l=1..k+1} C(k, k+1-l) w_{k+1-l} ^ w_l,

on random, mostly non-integrable sequences over Q, F_5 and F_7.  Triples are
checked against their three relations written out by hand and against the
integrability of the suspension Omega = dz + w0 + z w1 + z^2/2 w2 (HALF).
The Gauss-Jordan reduction shared by the pullback and the dual frame is
compared with sympy's `rref` over QQ and, over F_p, by multiplying back.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import comb

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from gvcalc import (
    Chart,
    DegenerateFrame,
    DiffForm,
    GvError,
    MultiPoly,
    RatFn,
    ext_d,
    is_integrable,
    poly_gcd,
    wedge,
)
from gvcalc.charp import _inverse_columns
from gvcalc.field import _gauss_jordan
from gvcalc.gv import _express_in_powers
from gvcalc.transverse import (
    Triple,
    riccati_triple,
    suspension_form,
    triple_gauge,
    triple_gauge_regular,
    triple_verify,
)
from gvcalc.zseries import FormalOmega, structure_defect, to_extended_form

SETTINGS = settings(max_examples=30, deadline=None, derandomize=True, database=None)


def polys(chart: Chart, max_terms: int = 3, max_exp: int = 2, min_terms: int = 0):
    p = chart.characteristic
    if p:
        coeff = st.integers(min_value=0, max_value=p - 1)
    else:
        coeff = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    exps = st.tuples(*[st.integers(0, max_exp)] * chart.dim)
    return st.dictionaries(exps, coeff, min_size=min_terms, max_size=max_terms).map(
        lambda terms: MultiPoly(chart, terms)
    )


def ratfns(chart: Chart, max_terms: int = 3):
    """Mostly polynomials, sometimes over a small nonzero denominator."""
    dens = st.one_of(
        st.just(MultiPoly.const(chart, 1)),
        polys(chart, max_terms=2, max_exp=1).filter(lambda d: not d.is_zero()),
    )
    return st.builds(RatFn, polys(chart, max_terms), dens)


def one_forms(chart: Chart, coeffs=None):
    if coeffs is None:
        coeffs = ratfns(chart)
    return st.lists(coeffs, min_size=chart.dim, max_size=chart.dim).map(
        lambda cs: DiffForm.one_form(chart, cs)
    )


def unpaired_defect(om: FormalOmega, k: int) -> DiffForm:
    out = ext_d(om.omega(k))
    for l in range(1, k + 2):
        out = out - wedge(om.omega(k + 1 - l), om.omega(l)) * comb(k, k + 1 - l)
    return out


# -- the paired defect -----------------------------------------------------


@st.composite
def sequences(draw):
    chart = Chart(("x", "y", "z"), draw(st.sampled_from((0, 5, 7))))
    length = draw(st.integers(1, 5))
    forms = draw(st.lists(one_forms(chart), min_size=length, max_size=length))
    return FormalOmega(chart, forms)


@settings(SETTINGS, max_examples=60)
@given(sequences())
def test_paired_defect_matches_the_unpaired_sum(om):
    n = om.last_index
    for k in range(2 * n + 1):
        assert structure_defect(om, k) == unpaired_defect(om, k)


def test_paired_defect_sees_a_non_integrable_sequence():
    chart = Chart(("x", "y", "z"))
    x, y = chart.var("x"), chart.var("y")
    dx, dy, dz = (DiffForm.coordinate(chart, v) for v in chart.variables)
    om = FormalOmega(chart, [dz + dx * y, dy * x, dx])
    defects = [structure_defect(om, k) for k in range(4)]
    assert defects == [unpaired_defect(om, k) for k in range(4)]
    assert not all(d.is_zero() for d in defects)


# -- triples -----------------------------------------------------------------


def hand_defects(t: Triple) -> tuple[DiffForm, DiffForm, DiffForm]:
    c = 2 if t.convention == "full" else 1
    return (
        ext_d(t.w0) - wedge(t.w0, t.w1),
        ext_d(t.w1) - wedge(t.w0, t.w2) * c,
        ext_d(t.w2) - wedge(t.w1, t.w2),
    )


def check_triple(t: Triple) -> bool:
    report = triple_verify(t)
    assert report.convention == t.convention
    assert report.defects == hand_defects(t)
    om = FormalOmega(t.chart, t.converted("half").forms)
    assert report.ok == is_integrable(to_extended_form(om, zname="s"))
    if report.ok:
        assert suspension_form(t) == om
    else:
        with pytest.raises(GvError):
            suspension_form(t)
    return report.ok


LINE = Chart(("x",))
PLANE = Chart(("x", "z"))
SPACE = Chart(("x", "y", "z"))


@settings(SETTINGS, max_examples=15)
@given(
    st.lists(one_forms(LINE), min_size=3, max_size=3),
    ratfns(PLANE, max_terms=2).filter(lambda f: not f.is_zero()),
    polys(PLANE, max_terms=2).map(RatFn.from_poly),
    one_forms(PLANE, polys(PLANE, max_terms=2)),
)
def test_triples_against_hand_relations_and_suspension(abc, f, g, noise):
    t = riccati_triple(*abc)
    gauged = [
        triple_gauge(t, "F", f),
        triple_gauge(t, "G", g),
        triple_gauge_regular(t, f, g),
    ]
    for good in [t, *gauged]:
        for u in (good, good.converted("half")):
            assert check_triple(u)
    if not noise.is_zero():
        for broken in (
            Triple(t.w0, t.w1 + noise, t.w2),
            Triple(t.w0, t.w1, t.w2 + noise),
            Triple(t.w0 + noise, t.w1, t.w2),
        ):
            check_triple(broken)
            check_triple(broken.converted("half"))


@settings(SETTINGS, max_examples=15)
@given(
    st.lists(one_forms(SPACE, polys(SPACE, max_terms=2)), min_size=3, max_size=3),
    st.sampled_from(("full", "half")),
)
def test_random_triples_in_three_variables(forms, convention):
    if forms[0].is_zero():
        return
    check_triple(Triple(*forms, convention))


def test_mistagged_triple_fails_both_checks():
    x = LINE.var("x")
    dx = DiffForm.coordinate(LINE, "x")
    t = riccati_triple(dx * x, dx, dx * (x + 1))
    assert check_triple(t)
    assert not check_triple(Triple(t.w0, t.w1, t.w2, "half"))


# -- the shared elimination ------------------------------------------------


def to_sympy(rows) -> sympy.Matrix:
    return sympy.Matrix(
        [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows]
    )


def check_rref(rows: list[list[Fraction]]) -> list[int]:
    expected, expected_pivots = to_sympy(rows).rref()
    pivots = _gauss_jordan(rows, len(rows[0]))
    assert pivots == list(expected_pivots)
    assert to_sympy(rows) == expected
    return pivots


fractions = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@st.composite
def matrices(draw):
    n_rows, n_cols = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    return [draw(st.lists(fractions, min_size=n_cols, max_size=n_cols)) for _ in range(n_rows)]


@SETTINGS
@given(matrices())
def test_rectangular_matches_sympy_rref(rows):
    check_rref(rows)


@SETTINGS
@given(matrices(), st.data())
def test_rank_deficient_and_inconsistent_match_sympy_rref(base, data):
    width = len(base[0])
    sizes = dict(min_size=len(base), max_size=len(base))
    # rows appended as combinations of the base rows keep the rank down
    rows = [list(r) for r in base]
    for _ in range(data.draw(st.integers(1, 3))):
        weights = data.draw(st.lists(fractions, **sizes))
        rows.append([sum(w * r[c] for w, r in zip(weights, base)) for c in range(width)])
    assert len(check_rref([list(r) for r in rows])) <= len(base)
    # A x = b for a drawn x is consistent; moving the last (dependent) entry of
    # b by one makes it inconsistent
    x = data.draw(st.lists(fractions, min_size=width, max_size=width))
    consistent = [r + [sum(a * xi for a, xi in zip(r, x))] for r in rows]
    broken = [list(r) for r in consistent]
    broken[-1][-1] += 1
    assert width not in check_rref([list(r) for r in consistent])
    assert width in check_rref([list(r) for r in broken])
    # reduced over the coefficient columns only, as the pullback solves it
    for system, solvable in ((consistent, True), (broken, False)):
        reduced = [list(r) for r in system]
        pivots = _gauss_jordan(reduced, width)
        assert solvable == all(r[width] == 0 for r in reduced[len(pivots):])
        if solvable:
            sol = [Fraction(0)] * width
            for r, col in zip(reduced, pivots):
                sol[col] = r[width]
            for r in system:
                assert sum(a * si for a, si in zip(r, sol)) == r[width]


def determinant(rows: list[list[RatFn]], chart: Chart) -> RatFn:
    m = len(rows)
    total = chart.zero()
    for perm in permutations(range(m)):
        sign = (-1) ** sum(perm[i] > perm[j] for i in range(m) for j in range(i + 1, m))
        term = chart.const(sign)
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        total = total + term
    return total


@st.composite
def square_matrices(draw):
    chart = Chart(("x", "y"), draw(st.sampled_from((2, 3, 5))))
    m = draw(st.integers(1, 3))
    entries = ratfns(chart)
    return chart, [draw(st.lists(entries, min_size=m, max_size=m)) for _ in range(m)]


@SETTINGS
@given(square_matrices())
def test_invert_matrix_over_fp(data):
    # the cleared adjugate of the dual frame: column j of the inverse is
    # Y_j / den_j, with no nonconstant common factor of den_j and Y_j
    chart, rows = data
    m = len(rows)
    if determinant(rows, chart).is_zero():
        with pytest.raises(DegenerateFrame, match="singular"):
            _inverse_columns(rows)
        return
    columns = list(_inverse_columns(rows))
    for ys, den in columns:
        common = den
        for y in ys:
            common = poly_gcd(common, y)
        assert common.is_constant()
    inverse = [[RatFn(ys[i], den) for ys, den in columns] for i in range(m)]
    for left, right in ((inverse, rows), (rows, inverse)):
        for i in range(m):
            for j in range(m):
                entry = chart.zero()
                for k in range(m):
                    entry = entry + left[i][k] * right[k][j]
                assert entry == (chart.one() if i == j else chart.zero())


def test_express_in_powers_round_trip_and_inconsistent_system():
    chart = Chart(("x", "y"))
    x, y = chart.var("x"), chart.var("y")
    base = x * x + y
    q = base * base * 3 - base + Fraction(1, 2)
    expected = [Fraction(1, 2), Fraction(-1), Fraction(3), Fraction(0)]
    assert _express_in_powers(q, base, 3) == expected
    # odd powers of x never occur in powers of x^2 + y: the system is inconsistent
    assert _express_in_powers(q + x, base, 3) is None
    assert _express_in_powers(base**4, base, 3) is None
