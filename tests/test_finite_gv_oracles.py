"""Oracle tests for the finite-sequence analysis of `gv.py`.

`finite_gv_verify` sums each reduced relation in one accumulation, and
`form_ratio` compares cleared cross products.  Both are compared here with
the routes they replaced, kept below as test-local copies built from
`ext_d`, `wedge`, `+`, `*` and `!=`:

    d w_0 = w_0 ^ w_1,
    d w_k = w_0 ^ w_{k+1} + (k-1) w_1 ^ w_k   (1 <= k <= N, w_{N+1} = 0),

and q = a_0/b_0 with a == b*q.  The sequences are genuine curve and
unshifted sequences (as built in `test_gv.py`), and the same sequences with
one entry perturbed so that relations fail at k = 0, at 1 <= k < N and at
k = N.  The normalized columns of `_normalized_columns` are checked against
the identities its docstring promises.

The analysis of `finite_gv_classify` and `finite_gv_pullback` rescales with
`gv._rescaled`, takes omega_0/scale as the sum of the normalized columns,
and builds P(u, z) as one polynomial.  Its columns, scale, omega_0 and
pullback form are compared with the routes they replaced: the whole rescaled
`GVSequence` of `gv_rescale`, the column sum, and P(u, z) summed level by
level with `_poly_in_vars`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gvcalc import (
    Chart,
    ClosedKernelWitness,
    DiffForm,
    FiniteGVReport,
    GVSequence,
    GcdDegenerate,
    GvError,
    MultiPoly,
    NotExpressible,
    RatFn,
    ext_d,
    finite_gv_classify,
    finite_gv_pullback,
    finite_gv_verify,
    form_ratio,
    gv_rescale,
    pullback,
    wedge,
)
from gvcalc.gv import (
    _dlog,
    _express_in_powers,
    _gcd_combination,
    _lower_indices,
    _normalized_columns,
    _rescaled,
)
from test_gv import curve_chart, curve_sequence, unshift

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


# -- the routes replaced, kept as oracles ----------------------------------------


def old_finite_gv_verify(s: GVSequence) -> FiniteGVReport:
    """The relation loop built from whole forms, one `!=` per relation."""
    t = s.trimmed()
    n = t.last_index
    w = t.forms
    zero1 = DiffForm.zero(s.chart, 1)
    wedge_bad = []
    for k in range(2, n + 1):
        for l in range(k + 1, n + 1):
            if not wedge(w[k], w[l]).is_zero():
                wedge_bad.append((k, l))
    rel_bad = []
    if ext_d(w[0]) != wedge(w[0], w[1]):
        rel_bad.append(0)
    for k in range(1, n + 1):
        nxt = w[k + 1] if k + 1 <= n else zero1
        rhs = wedge(w[0], nxt) + wedge(w[1], w[k]) * (k - 1)
        if ext_d(w[k]) != rhs:
            rel_bad.append(k)
    return FiniteGVReport(n, tuple(wedge_bad), tuple(rel_bad))


def old_form_ratio(a: DiffForm, b: DiffForm):
    """q = a_0/b_0 at the first index of b, kept when a == b*q."""
    if a.is_zero():
        return a.chart.zero()
    idx = next(iter(b.terms))
    q = a.terms.get(idx)
    if q is None:
        return None
    q = q / b.terms[idx]
    return q if a == b * q else None


def old_normalized_columns(t: GVSequence, n: int) -> tuple[list[DiffForm], RatFn]:
    """Rescale the whole sequence with `gv_rescale`, then translate by one unit."""
    g = form_ratio(t.forms[n - 1], t.forms[n])
    r = gv_rescale(t, g).forms
    wt = []
    for j in range(n + 1):
        acc = DiffForm.zero(t.chart, 1)
        for k in range(j, n + 1):
            acc = acc + r[k] * Fraction((-1) ** (k - j), math.factorial(j) * math.factorial(k - j))
        wt.append(acc)
    return wt, g


def old_omega0(wt: list[DiffForm]) -> DiffForm:
    """omega_0 / scale as the sum of the normalized columns."""
    total = DiffForm.zero(wt[0].chart, 1)
    for c in wt:
        total = total + c
    return total


def old_poly_in_vars(chart: Chart, coeffs_u, zexp: int) -> RatFn:
    """The polynomial (sum coeffs_u[i] u^i) * z^zexp on a (u, z) chart."""
    u, z = chart.var("u"), chart.var("z")
    acc = chart.zero()
    upow = chart.one()
    for c in coeffs_u:
        if c != 0:
            acc = acc + upow * c
        upow = upow * u
    return acc * z**zexp


def old_pullback_form(s: GVSequence, witness: RatFn, degree: int) -> DiffForm:
    """The form dz + P(u, z) du of `finite_gv_pullback`, through the old
    normalization and with P summed level by level; raises the same error types."""
    t = s.trimmed()
    n = t.last_index
    wt, _ = old_normalized_columns(t, n)
    omega = ext_d(witness)
    if not wedge(omega, wt[n]).is_zero():
        raise GvError("witness differential is not tangent to the top column")
    hk = {n: form_ratio(wt[n], omega)}
    for k in _lower_indices(n):
        q = form_ratio(wt[k], omega)
        if q is None:
            raise GcdDegenerate(f"column {k}")
        if not q.is_zero():
            hk[k] = q
    ks = sorted(hk)
    r, bezout = _gcd_combination([k - 1 for k in ks])
    hfun = s.chart.one()
    dlog_h = DiffForm.zero(s.chart, 1)
    for k, nk in zip(ks, bezout):
        if nk:
            hfun = hfun * hk[k] ** nk
            dlog_h = dlog_h + _dlog(hk[k]) * nk
    ffun = form_ratio(wt[1] - dlog_h * Fraction(1, r), omega)
    if ffun is None:
        raise GvError("slope form")
    fcoeffs = _express_in_powers(ffun, witness, degree)
    if fcoeffs is None:
        raise NotExpressible("slope")
    curve = Chart(("u", "z"), 0)
    pz = old_poly_in_vars(curve, fcoeffs, 1)
    for k in ks:
        step = (k - 1) // r
        if step * r != k - 1:
            raise GcdDegenerate(f"exponent {k - 1}")
        sol = _express_in_powers(hk[k] / hfun**step, witness, degree)
        if sol is None:
            raise NotExpressible(f"level {k}")
        pz = pz + old_poly_in_vars(curve, sol, step + 1)
    return DiffForm.one_form(curve, [pz * r, curve.one()])


# -- sequences -------------------------------------------------------------------------

small = st.integers(-2, 2)


def _linear(chart: Chart, name: str, a: int, b: int) -> RatFn:
    return chart.const(a) + chart.var(name) * chart.const(b)


@st.composite
def curve_sequences(draw, orders=(3, 4, 5)):
    """curve_sequence of dz + sum h_k(u) z^k du, h_k linear, h_N a nonzero constant."""
    chart = curve_chart()
    n = draw(st.sampled_from(orders))
    hs = [_linear(chart, "u", draw(small), draw(small)) for _ in range(n)]
    hs.append(chart.const(draw(st.sampled_from([-2, -1, 1, 2]))))
    return curve_sequence(hs)


@st.composite
def unshifted_sequences(draw):
    """The sequence whose normalized columns are wt_1 = slope dx + dy/(r y) and
    wt_k = c x^i y^((k-1)/r) dx for r | k - 1, k != N - 1 (the benchmark's family)."""
    xy = Chart(("x", "y"), 0)
    x, y = xy.var("x"), xy.var("y")
    dx, dy = DiffForm.coordinate(xy, "x"), DiffForm.coordinate(xy, "y")
    zero = DiffForm.zero(xy, 1)
    r, n = draw(st.sampled_from([(1, 4), (1, 5), (2, 5), (1, 6)]))
    slope = _linear(xy, "x", draw(st.integers(-1, 1)), draw(st.integers(-1, 1)))
    columns = [zero, dx * slope + dy / (r * y)]
    for k in range(2, n + 1):
        if k == n - 1 or (k - 1) % r:
            columns.append(zero)
            continue
        c = draw(st.integers(1, 2)) if k == n else draw(small)
        columns.append(dx * (xy.const(c) * x ** draw(st.integers(0, 2)) * y ** ((k - 1) // r)))
    return unshift(columns)


genuine = st.one_of(curve_sequences(), unshifted_sequences())


def field_polys(chart: Chart, max_terms: int = 3):
    p = chart.characteristic
    coeff = st.integers(0, p - 1) if p else st.fractions(-3, 3, max_denominator=4)
    exps = st.tuples(*[st.integers(0, 2)] * chart.dim)
    return st.dictionaries(exps, coeff, max_size=max_terms).map(
        lambda terms: MultiPoly(chart, terms)
    )


def field_ratfns(chart: Chart):
    """Polynomials, or polynomials over a nonzero denominator of up to 2 terms."""
    dens = st.one_of(
        st.just(MultiPoly.const(chart, 1)),
        field_polys(chart, 2).filter(lambda d: not d.is_zero()),
    )
    return st.builds(RatFn, field_polys(chart), dens)


def _perturb(s: GVSequence, k: int, delta: DiffForm) -> GVSequence:
    forms = list(s.forms)
    forms[k] = forms[k] + delta
    return GVSequence(forms, len(forms))


@st.composite
def perturbed(draw):
    """A genuine sequence with one entry w_k, 0 <= k <= N, plus a random 1-form."""
    t = draw(genuine).trimmed()
    k = draw(st.integers(0, t.last_index))
    delta = DiffForm.one_form(t.chart, [draw(field_ratfns(t.chart)) for _ in range(t.chart.dim)])
    assume(k or not (t.forms[0] + delta).is_zero())
    return _perturb(t, k, delta)


def _same_report(s: GVSequence) -> FiniteGVReport:
    """The report of `finite_gv_verify`, equal to the old loop's in every field."""
    new = finite_gv_verify(s)
    assert new == old_finite_gv_verify(s)
    return new


# -- finite_gv_verify -------------------------------------------------------------------


@SETTINGS
@given(genuine)
def test_relation_sums_pass_genuine_sequences_as_the_old_loop(s):
    report = _same_report(s)
    assert report.ok


@SETTINGS
@given(perturbed())
def test_relation_sums_agree_with_the_old_loop_on_perturbed_sequences(s):
    if s.trimmed().last_index >= 2:
        _same_report(s)


def test_relation_failures_at_every_kind_of_order():
    """Failures at k = 0, at 1 <= k < N and at k = N, each as the old loop reports them."""
    chart = curve_chart()
    u, z = chart.var("u"), chart.var("z")
    du, dz = DiffForm.coordinate(chart, "u"), DiffForm.coordinate(chart, "z")
    s = curve_sequence([u, chart.one(), u + chart.one(), chart.one(), chart.const(2)])
    n = 4
    assert _same_report(s).ok
    # d(w_0) changes: relation 0 fails
    assert 0 in _same_report(_perturb(s, 0, du * z)).relation_failures
    # w_2 enters relations 1 (as w_{k+1}) and 2 (both sides)
    fails = _same_report(_perturb(s, 2, du / (u + chart.one()) + dz)).relation_failures
    assert {1, 2} <= set(fails)
    # the top entry: relation N - 1 (as w_{k+1}) and relation N, which has no w_{N+1}
    fails = _same_report(_perturb(s, n, du * z)).relation_failures
    assert n in fails and n - 1 in fails
    # w_1 enters every relation through (k - 1) w_1 ^ w_k
    xy = Chart(("x", "y"), 0)
    x, y = xy.var("x"), xy.var("y")
    dx, dy = DiffForm.coordinate(xy, "x"), DiffForm.coordinate(xy, "y")
    zero = DiffForm.zero(xy, 1)
    v = unshift([zero, dx * x + dy / (2 * y), zero, dx * y, zero, dx * y**2])
    assert _same_report(v).ok
    report = _same_report(_perturb(v, 1, dy * x))
    assert {0, 3, 5} <= set(report.relation_failures)


# -- form_ratio -------------------------------------------------------------------------

RATIO_CHARTS = [Chart(("x", "y"), p) for p in (0, 2, 3, 5, 7)] + [
    Chart(("x", "y", "w"), p) for p in (0, 5)
]


def ratio_chart_id(chart: Chart) -> str:
    return f"{''.join(chart.variables)}-p{chart.characteristic}"


def field_forms(chart: Chart, degree: int):
    indices = list(combinations(range(chart.dim), degree))
    return st.lists(field_ratfns(chart), min_size=len(indices), max_size=len(indices)).map(
        lambda cs: DiffForm(chart, degree, dict(zip(indices, cs)))
    )


def nonzero_ratfns(chart: Chart):
    return field_ratfns(chart).filter(lambda f: not f.is_zero())


@st.composite
def ratio_pairs(draw, chart: Chart):
    """(a, b) with b nonzero: a = q b (q fractional or constant), a with b's
    support but other multipliers per index, a with one index fewer, or any a and b."""
    degree = draw(st.integers(1, 2))
    indices = combinations(range(chart.dim), degree)
    b = DiffForm(chart, degree, {i: draw(nonzero_ratfns(chart)) for i in indices})
    kind = draw(st.sampled_from(["multiple", "constant", "same-support", "fewer", "any"]))
    if kind == "multiple":
        return b * draw(nonzero_ratfns(chart)), b
    if kind == "constant":
        return b * draw(st.integers(-3, 3)), b
    if kind == "same-support":
        terms = {i: c * draw(nonzero_ratfns(chart)) for i, c in b.terms.items()}
        return DiffForm(chart, degree, terms), b
    if kind == "fewer":
        terms = dict((b * draw(nonzero_ratfns(chart))).terms)
        del terms[draw(st.sampled_from(sorted(terms)))]
        return DiffForm(chart, degree, terms), b
    b = draw(field_forms(chart, degree).filter(lambda f: not f.is_zero()))
    return draw(field_forms(chart, degree)), b


@pytest.mark.parametrize("chart", RATIO_CHARTS, ids=ratio_chart_id)
def test_form_ratio_agrees_with_the_quotient_route(chart):
    @settings(SETTINGS, max_examples=60)
    @given(ratio_pairs(chart))
    def check(pair):
        a, b = pair
        new, old = form_ratio(a, b), old_form_ratio(a, b)
        assert (new is None) == (old is None)
        if new is not None:
            assert str(new) == str(old)
            assert b * new == a

    check()


def test_form_ratio_of_fixed_pairs():
    """A fractional multiple, a same-support non-multiple and a support mismatch."""
    chart = Chart(("x", "y", "w"), 0)
    x, y, w = chart.var("x"), chart.var("y"), chart.var("w")
    b = DiffForm(chart, 2, {(0, 1): x + y, (0, 2): w / (x + chart.one()), (1, 2): chart.one()})
    q = (x * w + chart.const(3)) / (y - chart.const(2))
    assert form_ratio(b * q, b) == q == old_form_ratio(b * q, b)
    skew = DiffForm(chart, 2, {**(b * q).terms, (1, 2): q * chart.const(2)})
    assert form_ratio(skew, b) is None and old_form_ratio(skew, b) is None
    short = DiffForm(chart, 2, {(0, 1): x + y})
    assert form_ratio(short, b) is None and old_form_ratio(short, b) is None


# -- _normalized_columns ---------------------------------------------------------------


@SETTINGS
@given(curve_sequences(orders=(3, 4, 5)))
def test_normalization_kills_the_subleading_column(s):
    t = s.trimmed()
    n = t.last_index
    wt, scale = _normalized_columns(t, n)
    assert len(wt) == n + 1
    assert wt[n - 1].is_zero()
    assert not wt[n].is_zero()
    total = DiffForm.zero(t.chart, 1)
    for c in wt:
        total = total + c
    assert total == t.forms[0] / scale
    # plain columns: the top one is r_n / n! for the rescaled entry r_n = g^(n-1) w_n
    assert wt[n] == t.forms[n] * (scale ** (n - 1) / math.factorial(n))


# -- the normalized view against the replaced routes ---------------------------------------


def _pullback_outcome(route, s: GVSequence, witness: RatFn, degree: int):
    """The form a pullback route presents, or the type of the error it raises."""
    try:
        return route(s, witness, degree)
    except GvError as err:
        return type(err)


def _check_normalized_view(s: GVSequence, witness: RatFn) -> None:
    t = s.trimmed()
    n = t.last_index
    assume(not t.forms[n - 1].is_zero())
    wt, scale = _normalized_columns(t, n)
    old_wt, old_scale = old_normalized_columns(t, n)
    assert wt == old_wt
    assert scale == old_scale
    assert t.forms[0] / scale == old_omega0(old_wt)
    new = _pullback_outcome(lambda *a: finite_gv_pullback(*a).form, s, witness, 2)
    assert new == _pullback_outcome(old_pullback_form, s, witness, 2)


@settings(SETTINGS, max_examples=20)
@given(curve_sequences(orders=(3, 4, 5)))
def test_normalized_view_matches_the_old_routes_on_curve_sequences(s):
    outcome = finite_gv_classify(s)
    u = s.chart.var("u")
    witness = outcome.function if isinstance(outcome, ClosedKernelWitness) else u
    _check_normalized_view(s, witness)


@SETTINGS
@given(unshifted_sequences())
def test_normalized_view_matches_the_old_routes_on_unshifted_sequences(s):
    _check_normalized_view(s, s.chart.var("x"))


def test_pullback_form_of_a_ramified_unshifted_sequence():
    """r = 2: P(u, z) has the slope at z and levels 3, 5 at z^2, z^3."""
    xy = Chart(("x", "y"), 0)
    x, y = xy.var("x"), xy.var("y")
    dx, dy = DiffForm.coordinate(xy, "x"), DiffForm.coordinate(xy, "y")
    zero = DiffForm.zero(xy, 1)
    s = unshift([zero, dx * x + dy / (2 * y), zero, dx * y, zero, dx * y**2])
    report = finite_gv_pullback(s, x, 2)
    assert report.ramification == 2
    assert str(report.form) == "(2*z^3 + 2*u*z + 2*z^2)*du + (1)*dz"
    assert report.form == old_pullback_form(s, x, 2)
    assert pullback(list(report.mapping), report.form) == s.forms[0] * report.cofactor


# -- _rescaled --------------------------------------------------------------------------

XY = Chart(("x", "y"), 0)


@st.composite
def rescale_inputs(draw):
    """(sequence, f): 1 to 4 random 1-forms on (x, y), declared finite or not, f nonzero."""
    forms = draw(st.lists(field_forms(XY, 1), min_size=1, max_size=4))
    assume(not forms[0].is_zero())
    declared = draw(st.booleans())
    s = GVSequence(forms, len(forms)) if declared else GVSequence(forms)
    return s, draw(nonzero_ratfns(XY))


@SETTINGS
@given(rescale_inputs())
def test_rescaled_gives_the_entries_of_gv_rescale(case):
    s, f = case
    out = gv_rescale(s, f)
    if not s.is_finite:
        assert out.forms == tuple(_rescaled(s.forms, f))
        return
    # a declared sequence is zero past its entries, so w_1 may be a stored zero
    padded = list(s.forms) + [DiffForm.zero(XY, 1)]
    expected = _rescaled(padded, f)
    assert [out.omega(k) for k in range(len(expected))] == expected


@pytest.mark.parametrize("length", [1, 2])
@pytest.mark.parametrize("declared", [False, True])
def test_rescaled_on_short_sequences(length, declared):
    """Length 1 has no w_1: df/f appears only when the sequence is declared."""
    x, y = XY.var("x"), XY.var("y")
    dx, dy = DiffForm.coordinate(XY, "x"), DiffForm.coordinate(XY, "y")
    forms = [dx * y + dy, dy * x][:length]
    f = (x + XY.one()) / y
    s = GVSequence(forms, length) if declared else GVSequence(forms)
    out = gv_rescale(s, f).forms
    assert out[0] == forms[0] / f == _rescaled(forms, f)[0]
    if length == 1 and not declared:
        assert len(out) == 1 and len(_rescaled(forms, f)) == 1
    else:
        w1 = forms[1] if length == 2 else DiffForm.zero(XY, 1)
        assert out[1] == w1 + ext_d(f) / f
