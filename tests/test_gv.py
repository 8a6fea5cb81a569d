import math
import random
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gvcalc
from gvcalc import (
    AffineCertificate,
    Chart,
    ChartMismatch,
    ClosedKernelWitness,
    DecompositionFails,
    DiffForm,
    FormalOmega,
    GVSequence,
    GvError,
    NotExpressible,
    NotIntegrable,
    NotNormalized,
    RatFn,
    Substitution,
    VectorField,
    ZeroFunction,
    ext_d,
    finite_gv_classify,
    finite_gv_pullback,
    finite_gv_verify,
    flag_decompose,
    flag_forms,
    form_apply,
    form_ratio,
    gv_from_field,
    gv_invariant,
    gv_rescale,
    gv_shift,
    gv_verify,
    is_integrable,
    same_foliation,
    structure_defect,
    structure_defects,
    substitute_series,
    wedge,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402


def curve_chart() -> Chart:
    return Chart(("u", "z"), 0)


# the perfbench generators, which build the same sequences for the benchmark
curve_sequence = partial(workloads.curve_sequence, gvcalc)
unshift = partial(workloads.unshift, gvcalc)


@pytest.fixture
def xy():
    return Chart(("x", "y"), 0)


# -- sequence container -------------------------------------------------


class TestGVSequence:
    def test_rejects_zero_defining_form(self, xy):
        z1 = DiffForm.zero(xy, 1)
        with pytest.raises(GvError):
            GVSequence([z1])

    def test_rejects_empty(self):
        with pytest.raises(GvError):
            GVSequence([])

    def test_rejects_nonzero_past_declared_length(self, xy):
        dx = DiffForm.coordinate(xy, "x")
        with pytest.raises(GvError):
            GVSequence([dx, dx], declared_length=1)

    def test_rejects_declared_length_past_storage(self, xy):
        dx = DiffForm.coordinate(xy, "x")
        with pytest.raises(GvError):
            GVSequence([dx], declared_length=3)

    def test_rejects_prime_characteristic(self):
        chart = Chart(("x", "y"), 5)
        dx = DiffForm.coordinate(chart, "x")
        with pytest.raises(GvError):
            GVSequence([dx])

    def test_rejects_mixed_charts(self, xy):
        other = Chart(("x", "y", "z"))
        with pytest.raises(ChartMismatch):
            GVSequence([DiffForm.coordinate(xy, "x"), DiffForm.coordinate(other, "x")])

    def test_entry_access_and_padding(self, xy):
        dx = DiffForm.coordinate(xy, "x")
        dy = DiffForm.coordinate(xy, "y")
        s = GVSequence([dx, dy], declared_length=2)
        assert s.omega(1) == dy
        assert s.omega(7).is_zero()
        undeclared = GVSequence([dx, dy])
        with pytest.raises(GvError):
            undeclared.omega(2)

    def test_order_and_trim(self, xy):
        dx = DiffForm.coordinate(xy, "x")
        z1 = DiffForm.zero(xy, 1)
        s = GVSequence([dx, z1, z1], declared_length=3)
        assert s.order() == 0
        assert s.trimmed().stored == 1

    def test_immutable(self, xy):
        dx = DiffForm.coordinate(xy, "x")
        s = GVSequence([dx])
        with pytest.raises(AttributeError, match="GVSequence is immutable"):
            s.forms = ()
        with pytest.raises(AttributeError, match="GVSequence is immutable"):
            s.declared_length = 1

    def test_is_a_formal_omega(self, xy):
        dx = DiffForm.coordinate(xy, "x")
        dy = DiffForm.coordinate(xy, "y")
        s = GVSequence([dx, dy], declared_length=2)
        assert isinstance(s, FormalOmega)
        assert s.forms == s.coeffs == (dx, dy)
        assert s.stored == s.length == 2
        assert repr(s) == f"GVSequence({s})"
        assert str(s) == f"gv [{dx}, {dy}, 0 ...]"
        assert str(GVSequence([dx, dy])) == str(FormalOmega(xy, [dx, dy]))

    def test_never_equals_a_formal_omega(self, xy):
        forms = [DiffForm.coordinate(xy, "x"), DiffForm.coordinate(xy, "y")]
        om = FormalOmega(xy, forms)
        for s in (GVSequence(forms), GVSequence(forms, 2)):
            assert om != s and s != om
            assert not (om == s) and not (s == om)
        assert om == GVSequence(forms).as_formal()

    def test_equal_sequences_hash_equally(self, xy):
        dx = DiffForm.coordinate(xy, "x")
        a = GVSequence([dx, dx * xy.var("y")], 2)
        b = GVSequence((dx, dx * xy.var("y")), 2)
        assert a == b and a is not b
        assert hash(a) == hash(b)
        assert a != GVSequence(a.forms)
        assert len({a, b, GVSequence(a.forms)}) == 2

    def test_declared_sequence_feeds_series_functions(self):
        chart = curve_chart()
        u = chart.var("u")
        s = curve_sequence([u, chart.one(), u + chart.one()])
        om = s.as_formal()
        assert type(om) is FormalOmega
        assert structure_defects(s) == structure_defects(om)
        sub = Substitution.normalized(chart, [chart.one(), u])
        assert substitute_series(s, sub) == substitute_series(om, sub)

    def test_undeclared_sequence_has_no_defect_range(self, xy):
        dx = DiffForm.coordinate(xy, "x")
        with pytest.raises(GvError):
            structure_defects(GVSequence([dx, dx]))


def _bad_inputs():
    xy = Chart(("x", "y"), 0)
    dx = DiffForm.coordinate(xy, "x")
    s = GVSequence([dx, dx * xy.var("y")])
    curve = curve_sequence([curve_chart().one()] * 4)
    X = VectorField.coordinate(xy, "x")
    sub = Substitution.normalized(xy, [xy.one()])
    witness = curve_chart().var("u")
    return {
        "sequence entry not a form": lambda: GVSequence([1]),
        "declared length not an int": lambda: GVSequence([dx, dx], "1"),
        "defect index not an int": lambda: structure_defect(s, 1.0),
        "shift order not an int": lambda: gv_shift(s, xy.var("x"), "2"),
        "field order not an int": lambda: gv_from_field(dx, X, 2.5),
        "series order not an int": lambda: substitute_series(s, sub, "3"),
        "entry index not an int": lambda: s.omega("0"),
        "degree bound not an int": lambda: finite_gv_pullback(curve, witness, 1.5),
    }


@pytest.mark.parametrize("case", sorted(_bad_inputs()))
def test_bad_input_raises_gv_error(case):
    with pytest.raises(GvError):
        _bad_inputs()[case]()


# -- construction from a field ------------------------------------------


class TestFromField:
    def test_affine_model(self):
        chart = Chart(("x", "z"), 0)
        dx = DiffForm.coordinate(chart, "x")
        dz = DiffForm.coordinate(chart, "z")
        w = dz + dx * chart.var("z")
        X = VectorField.coordinate(chart, "z")
        s = gv_from_field(w, X, 3)
        assert s.forms[0] == w
        assert s.forms[1] == dx
        assert s.forms[2].is_zero()
        assert s.declared_length == 2
        assert gv_verify(s).ok

    def test_requires_normalization(self):
        chart = Chart(("x", "z"), 0)
        dz = DiffForm.coordinate(chart, "z")
        X = VectorField.coordinate(chart, "z")
        with pytest.raises(NotNormalized):
            gv_from_field(dz * 2, X, 1)

    def test_requires_integrability(self):
        chart = Chart(("x", "y", "z"), 0)
        dz = DiffForm.coordinate(chart, "z")
        dy = DiffForm.coordinate(chart, "y")
        contact = dz + dy * chart.var("x")
        X = VectorField.coordinate(chart, "z")
        assert not is_integrable(contact)
        with pytest.raises(NotIntegrable):
            gv_from_field(contact, X, 1)

    def test_matches_explicit_curve_sequence(self):
        chart = curve_chart()
        u = chart.var("u")
        s = curve_sequence([u, chart.zero(), chart.one(), u + chart.one()])
        X = VectorField.coordinate(chart, "z")
        built = gv_from_field(s.forms[0], X, 3)
        assert built.forms == s.forms

    def test_vanishing_pairing_with_derivatives(self):
        chart = curve_chart()
        u = chart.var("u")
        s = curve_sequence([chart.one(), u, u * u])
        X = VectorField.coordinate(chart, "z")
        built = gv_from_field(s.forms[0], X, 2)
        for k in range(1, built.stored):
            assert form_apply(built.forms[k], X).is_zero()


# -- verification --------------------------------------------------------


class TestVerify:
    def test_detects_broken_prefix(self, xy):
        dx = DiffForm.coordinate(xy, "x")
        dy = DiffForm.coordinate(xy, "y")
        s = GVSequence([dx, DiffForm.zero(xy, 1), dy])
        report = gv_verify(s)
        assert not report.ok
        assert report.orders == (0, 1)
        (order, defect), = report.nonzero
        assert order == 1
        assert defect == -wedge(dx, dy)

    def test_prefix_orders_only(self, xy):
        dx = DiffForm.coordinate(xy, "x")
        s = GVSequence([dx])
        report = gv_verify(s)
        assert report.orders == ()
        assert report.ok

    def test_declared_checks_all_orders(self):
        chart = curve_chart()
        u = chart.var("u")
        s = curve_sequence([u, chart.one(), u, chart.one()])
        report = gv_verify(s)
        assert report.ok
        assert report.orders == tuple(range(6))

    def test_closedness_for_length_one(self, xy):
        dx = DiffForm.coordinate(xy, "x")
        assert gv_verify(GVSequence([dx], declared_length=1)).ok
        bad = GVSequence([dx * xy.var("y")], declared_length=1)
        assert not gv_verify(bad).ok


# -- moves ---------------------------------------------------------------


class TestMoves:
    def test_rescale_columns(self):
        chart = curve_chart()
        u = chart.var("u")
        s = curve_sequence([chart.zero(), chart.one(), u, chart.one()])
        f = u * u + chart.one()
        r = gv_rescale(s, f)
        assert r.forms[0] == s.forms[0] / f
        assert r.forms[1] == s.forms[1] + ext_d(f) / f
        assert r.forms[2] == s.forms[2] * f
        assert r.forms[3] == s.forms[3] * f**2
        assert gv_verify(r).ok
        assert same_foliation(r.forms[0], s.forms[0])

    def test_rescale_rejects_zero(self):
        chart = curve_chart()
        s = curve_sequence([chart.one(), chart.one(), chart.one()])
        with pytest.raises(ZeroFunction):
            gv_rescale(s, 0)

    def test_rescale_constant_keeps_length(self):
        chart = curve_chart()
        s = curve_sequence([chart.one(), chart.zero(), chart.one()])
        r = gv_rescale(s, 7)
        assert r.declared_length == 3
        assert r.forms[1] == s.forms[1]

    def test_shift_first_order_columns(self):
        chart = curve_chart()
        u = chart.var("u")
        s = curve_sequence([u, chart.one(), u + chart.one()])
        f = u
        r = gv_shift(s, f, 1)
        assert r.forms[0] == s.forms[0]
        assert r.forms[1] == s.forms[1] + s.forms[0] * f
        assert r.forms[2] == s.forms[2] + s.forms[1] * f - ext_d(f)
        assert gv_verify(GVSequence(r.forms[:3])).ok

    def test_shift_second_order_columns(self):
        chart = curve_chart()
        u = chart.var("u")
        s = curve_sequence([u, chart.one(), u, chart.one()])
        f = u * u
        r = gv_shift(s, f, 2)
        assert r.forms[0] == s.forms[0]
        assert r.forms[1] == s.forms[1]
        assert r.forms[2] == s.forms[2] + s.forms[0] * f

    def test_shift_zero_is_identity(self):
        chart = curve_chart()
        s = curve_sequence([chart.one(), chart.one(), chart.one()])
        assert gv_shift(s, 0, 1) is s

    def test_shift_rejects_bad_order(self):
        chart = curve_chart()
        s = curve_sequence([chart.one(), chart.one(), chart.one()])
        with pytest.raises(GvError):
            gv_shift(s, chart.var("u"), 0)

    def test_moves_preserve_verification(self):
        chart = curve_chart()
        u = chart.var("u")
        rng = random.Random(11)
        for _ in range(5):
            hs = [chart.const(rng.randint(-2, 2)) for _ in range(4)]
            hs[3] = chart.one()
            s = curve_sequence(hs)
            f = u + chart.const(rng.randint(1, 3))
            r = gv_rescale(s, f)
            assert gv_verify(r).ok
            t = gv_shift(s, f, rng.choice([1, 2]))
            assert gv_verify(t).ok
            assert t.forms[0] == s.forms[0]


def _linear_in_u(a, b):
    chart = curve_chart()
    return chart.const(a) + chart.var("u") * chart.const(b)


small = st.integers(-2, 2)
linear_in_u = st.builds(_linear_in_u, small, small)
nonzero_linear_in_u = linear_in_u.filter(lambda f: not f.is_zero())


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    st.integers(2, 4).flatmap(lambda n: st.lists(linear_in_u, min_size=n, max_size=n)),
    nonzero_linear_in_u,
    nonzero_linear_in_u,
)
def test_moves_keep_the_relations(lower, top, f):
    """Shifts at orders 1-3 and rescales by f = a + b*u stay GV sequences."""
    s = curve_sequence([*lower, top])
    assert gv_verify(s).ok
    for k in (1, 2, 3):
        shifted = gv_shift(s, f, k)
        assert gv_verify(shifted).ok
        assert shifted.forms[0] == s.forms[0]
    rescaled = gv_rescale(s, f)
    assert gv_verify(rescaled).ok
    assert rescaled.forms[0] == s.forms[0] / f


# -- flags ----------------------------------------------------------------


class TestFlags:
    def test_two_step_flag_on_curve(self):
        chart = curve_chart()
        z = chart.var("z")
        s = curve_sequence([chart.zero(), chart.zero(), chart.one()])
        flag = flag_forms(s)
        assert flag.n == 2
        assert flag.theta == wedge(s.forms[0], s.forms[1])
        assert flag.theta_hats == (s.forms[0],)
        assert flag.ok
        coeffs = flag_decompose(s, flag)
        assert coeffs == (z.inv(),)
        assert s.forms[2] == s.forms[1] * coeffs[0]

    def test_three_step_flag(self):
        chart = Chart(("x", "y", "z", "t"), 0)
        dx = DiffForm.coordinate(chart, "x")
        dy = DiffForm.coordinate(chart, "y")
        dz = DiffForm.coordinate(chart, "z")
        x, y = chart.var("x"), chart.var("y")
        last = dy * x**2 + dz * y
        s = GVSequence([dx, dy, dz, last])
        flag = flag_forms(s)
        assert flag.n == 3
        assert flag.theta == wedge(wedge(dx, dy), dz)
        assert flag.theta_hats == (wedge(dx, dz), wedge(dx, dy))
        coeffs = flag_decompose(s, flag)
        assert coeffs == (x**2, y)

    def test_decompose_rejects_outside_span(self):
        chart = Chart(("x", "y", "z", "t"), 0)
        dx = DiffForm.coordinate(chart, "x")
        dy = DiffForm.coordinate(chart, "y")
        dz = DiffForm.coordinate(chart, "z")
        s = GVSequence([dx, dy, dz, dx])
        with pytest.raises(DecompositionFails):
            flag_decompose(s)

    def test_decompose_rejects_non_first_integral(self):
        chart = Chart(("x", "y", "z", "t"), 0)
        dx = DiffForm.coordinate(chart, "x")
        dy = DiffForm.coordinate(chart, "y")
        dz = DiffForm.coordinate(chart, "z")
        t = chart.var("t")
        s = GVSequence([dx, dy, dz, dy * t])
        with pytest.raises(DecompositionFails):
            flag_decompose(s)

    def test_flag_needs_enough_entries(self, xy):
        dx = DiffForm.coordinate(xy, "x")
        dy = DiffForm.coordinate(xy, "y")
        s = GVSequence([dx, dy])
        with pytest.raises(GvError):
            flag_forms(s)

    def test_invariant_nonzero(self):
        chart = Chart(("x", "y", "z"), 0)
        dx = DiffForm.coordinate(chart, "x")
        dy = DiffForm.coordinate(chart, "y")
        dz = DiffForm.coordinate(chart, "z")
        x = chart.var("x")
        s = GVSequence([dx, dy * x + dz, dy])
        inv = gv_invariant(s)
        assert inv == -wedge(wedge(dx, dy), dz)
        assert ext_d(inv).is_zero()

    def test_invariant_vanishes_on_curve(self):
        chart = curve_chart()
        s = curve_sequence([chart.zero(), chart.one(), chart.one()])
        assert gv_invariant(s).is_zero()

    def test_invariant_rejects_broken_relation(self):
        chart = Chart(("x", "y", "z"), 0)
        dx = DiffForm.coordinate(chart, "x")
        dy = DiffForm.coordinate(chart, "y")
        dz = DiffForm.coordinate(chart, "z")
        x = chart.var("x")
        s = GVSequence([dx, dy * x + dz, dz])
        with pytest.raises(GvError):
            gv_invariant(s)


# -- finite verification ---------------------------------------------------


class TestFiniteVerify:
    def test_curve_sequences_pass(self):
        chart = curve_chart()
        u = chart.var("u")
        s = curve_sequence([u, u * u, chart.one(), u])
        report = finite_gv_verify(s)
        assert report.ok
        assert report.order == 3

    def test_requires_declaration(self, xy):
        dx = DiffForm.coordinate(xy, "x")
        s = GVSequence([dx, dx, dx])
        with pytest.raises(GvError):
            finite_gv_verify(s)

    def test_detects_wedge_violation(self, xy):
        dx = DiffForm.coordinate(xy, "x")
        dy = DiffForm.coordinate(xy, "y")
        s = GVSequence([dx, DiffForm.zero(xy, 1), dx, dy], declared_length=4)
        report = finite_gv_verify(s)
        assert (2, 3) in report.wedge_failures

    def test_detects_relation_violation(self):
        chart = curve_chart()
        u = chart.var("u")
        s = curve_sequence([u, chart.one(), chart.one(), chart.one()])
        du = DiffForm.coordinate(chart, "u")
        dz = DiffForm.coordinate(chart, "z")
        broken = list(s.forms)
        broken[2] = broken[2] + dz
        bad = GVSequence(broken, declared_length=4)
        report = finite_gv_verify(bad)
        assert not report.ok
        assert 2 in report.relation_failures

    def test_uniqueness_of_finite_completion(self):
        # with a non-closed omega_1 the relations pin every later entry:
        # omega_k is tangent to omega_2, and the relation at order k - 1
        # recovers its multiplier exactly
        chart = curve_chart()
        u = chart.var("u")
        rng = random.Random(23)
        for _ in range(5):
            hs = [chart.const(rng.randint(-2, 2)) for _ in range(5)]
            hs[4] = chart.const(rng.randint(1, 3))
            hs[2] = hs[2] + u
            s = curve_sequence(hs)
            w = s.forms
            dw1 = ext_d(w[1])
            assert not dw1.is_zero()
            for k in range(3, 5):
                rhs = ext_d(w[k - 1]) - wedge(w[1], w[k - 1]) * (k - 2)
                lam = form_ratio(rhs, dw1)
                assert lam is not None
                assert w[2] * lam == w[k]


# -- classification ---------------------------------------------------------


class TestClassify:
    def test_monomial_curve_is_affine(self):
        chart = curve_chart()
        zero = chart.zero()
        s = curve_sequence([zero, zero, zero, zero, chart.one()])
        out = finite_gv_classify(s)
        assert isinstance(out, AffineCertificate)
        assert out.branch == "no-kernel-multipliers"
        assert ext_d(out.omega) == wedge(out.omega, out.eta)
        assert ext_d(out.eta).is_zero()
        assert same_foliation(out.omega, s.forms[0])

    def test_subleading_vanishes_branch(self, xy):
        x, y = xy.var("x"), xy.var("y")
        dxy = ext_d(x * y)
        zero = DiffForm.zero(xy, 1)
        w = [dxy, zero, dxy * (x * y) ** 2, zero, dxy * (x * y)]
        forms = [w[k] * xy.const(math.factorial(k)) for k in range(5)]
        s = GVSequence(forms, declared_length=5)
        assert finite_gv_verify(s).ok
        out = finite_gv_classify(s)
        assert isinstance(out, AffineCertificate)
        assert out.branch == "subleading-vanishes"
        assert out.omega == s.forms[0]

    def test_kernel_slope_mismatch_witness(self, xy):
        x, y = xy.var("x"), xy.var("y")
        dx = DiffForm.coordinate(xy, "x")
        dy = DiffForm.coordinate(xy, "y")
        zero = DiffForm.zero(xy, 1)
        wt1 = dx * x + dy / (2 * y)
        wt = [zero, wt1, zero, dx * y, zero, dx * y**2]
        s = unshift(wt)
        assert finite_gv_verify(s).ok
        out = finite_gv_classify(s)
        assert isinstance(out, ClosedKernelWitness)
        assert out.branch == "kernel-slope-mismatch"
        assert out.function == (x**2).inv()
        assert wedge(ext_d(out.function), s.forms[5]).is_zero()

    def test_independent_multipliers_witness(self, xy):
        x, y = xy.var("x"), xy.var("y")
        dx = DiffForm.coordinate(xy, "x")
        dy = DiffForm.coordinate(xy, "y")
        zero = DiffForm.zero(xy, 1)
        wt1 = dy / y
        wt = [zero, wt1, dx * y, dx * (x * y**2), zero, dx * y**4]
        s = unshift(wt)
        assert finite_gv_verify(s).ok
        out = finite_gv_classify(s)
        assert isinstance(out, ClosedKernelWitness)
        assert out.branch == "independent-kernel-multipliers"
        assert out.function == x**3

    def test_multiplier_sum_rescale_branch(self, xy):
        y = xy.var("y")
        dx = DiffForm.coordinate(xy, "x")
        dy = DiffForm.coordinate(xy, "y")
        zero = DiffForm.zero(xy, 1)
        wt1 = dy / (2 * y)
        wt = [zero, wt1, zero, dx * y, zero, dx * y**2]
        s = unshift(wt)
        assert finite_gv_verify(s).ok
        out = finite_gv_classify(s)
        assert isinstance(out, AffineCertificate)
        assert out.branch == "multiplier-sum-rescale"
        assert ext_d(out.omega) == wedge(out.omega, out.eta)
        assert same_foliation(out.omega, s.forms[0])

    def test_kernel_aligned_rescale_branch(self, xy):
        y = xy.var("y")
        dy = DiffForm.coordinate(xy, "y")
        zero = DiffForm.zero(xy, 1)
        wt1 = dy / (2 * y)
        wt = [zero, wt1, zero, dy / y**2, zero, dy / y**3]
        s = unshift(wt)
        assert finite_gv_verify(s).ok
        out = finite_gv_classify(s)
        assert isinstance(out, AffineCertificate)
        assert out.branch == "kernel-aligned-rescale"
        assert ext_d(out.omega).is_zero()
        assert out.eta.is_zero()

    def test_requires_verified_input(self, xy):
        dx = DiffForm.coordinate(xy, "x")
        dy = DiffForm.coordinate(xy, "y")
        zero = DiffForm.zero(xy, 1)
        bad = GVSequence([dx, zero, dx, dy], declared_length=4)
        with pytest.raises(GvError):
            finite_gv_classify(bad)

    def test_requires_order_three(self):
        chart = curve_chart()
        s = curve_sequence([chart.one(), chart.zero(), chart.one()])
        with pytest.raises(GvError):
            finite_gv_classify(s)

    def test_random_curve_sequences_conclude(self):
        chart = curve_chart()
        u = chart.var("u")
        rng = random.Random(37)
        for _ in range(12):
            n = rng.choice([3, 4, 5])
            hs = [
                chart.const(rng.randint(-2, 2)) + u * chart.const(rng.randint(-1, 1))
                for _ in range(n)
            ]
            hs.append(chart.const(rng.randint(1, 2)))
            s = curve_sequence(hs)
            out = finite_gv_classify(s)
            assert isinstance(out, (AffineCertificate, ClosedKernelWitness))
            if isinstance(out, AffineCertificate):
                assert ext_d(out.omega) == wedge(out.omega, out.eta)
                assert ext_d(out.eta).is_zero()
                assert same_foliation(out.omega, s.forms[0])
            else:
                # check d(a/b) /\ top = 0 with denominators cleared:
                # (b da - a db) /\ top = 0
                top = s.trimmed().forms[-1]
                a = RatFn.from_poly(out.function.num)
                b = RatFn.from_poly(out.function.den)
                cleared = ext_d(a) * b - ext_d(b) * a
                assert wedge(cleared, top).is_zero()


# -- pullback ----------------------------------------------------------------


class TestPullback:
    def fixture(self, xy):
        x, y = xy.var("x"), xy.var("y")
        dx = DiffForm.coordinate(xy, "x")
        dy = DiffForm.coordinate(xy, "y")
        zero = DiffForm.zero(xy, 1)
        wt1 = dx * x + dy / (2 * y)
        wt = [zero, wt1, zero, dx * y, zero, dx * y**2]
        return unshift(wt)

    def test_explicit_curve_model(self, xy):
        x, y = xy.var("x"), xy.var("y")
        s = self.fixture(xy)
        report = finite_gv_pullback(s, x, 1)
        assert report.ramification == 2
        assert report.mapping == (x, y)
        assert report.cofactor == 2 * y
        u, z = report.chart.var("u"), report.chart.var("z")
        expected_p = (u * z + z**2 + z**3) * report.chart.const(2)
        assert report.form.coeff((0,)) == expected_p
        assert report.form.coeff((1,)) == report.chart.one()
        from gvcalc import pullback

        pulled = pullback(list(report.mapping), report.form)
        assert pulled == s.forms[0] * report.cofactor

    def test_composite_witness_is_not_expressible(self, xy):
        x = xy.var("x")
        s = self.fixture(xy)
        witness = (x**2).inv()
        with pytest.raises(NotExpressible):
            finite_gv_pullback(s, witness, 4)

    def test_degree_bound_too_small(self, xy):
        x = xy.var("x")
        s = self.fixture(xy)
        with pytest.raises(NotExpressible):
            finite_gv_pullback(s, x, 0)

    def test_rejects_constant_witness(self, xy):
        s = self.fixture(xy)
        with pytest.raises(GvError):
            finite_gv_pullback(s, 3, 1)

    def test_rejects_witness_off_kernel(self, xy):
        y = xy.var("y")
        s = self.fixture(xy)
        with pytest.raises(GvError):
            finite_gv_pullback(s, y, 1)

    def test_affine_case_needs_no_pullback(self, xy):
        x, y = xy.var("x"), xy.var("y")
        dxy = ext_d(x * y)
        zero = DiffForm.zero(xy, 1)
        w = [dxy, zero, dxy * (x * y) ** 2, zero, dxy * (x * y)]
        forms = [w[k] * xy.const(math.factorial(k)) for k in range(5)]
        s = GVSequence(forms, declared_length=5)
        dx = DiffForm.coordinate(xy, "x")
        order_three = GVSequence([dx, zero, zero, dx * x], 4)
        assert finite_gv_verify(order_three).order == 3
        assert finite_gv_classify(order_three).branch == "subleading-vanishes"
        message = "^the subleading coefficient vanishes, .* no curve pullback is needed$"
        for seq, witness in ((s, x * y), (order_three, x)):
            with pytest.raises(GvError, match=message):
                finite_gv_pullback(seq, witness, 2)

    def test_classify_witness_feeds_pullback(self, xy):
        x, y = xy.var("x"), xy.var("y")
        dx = DiffForm.coordinate(xy, "x")
        dy = DiffForm.coordinate(xy, "y")
        zero = DiffForm.zero(xy, 1)
        wt1 = dy / y
        wt = [zero, wt1, dx * y, dx * (x * y**2), zero, dx * (x**2 * y**4)]
        s = unshift(wt)
        out = finite_gv_classify(s)
        assert isinstance(out, ClosedKernelWitness)
        assert out.function == x
        report = finite_gv_pullback(s, out.function, 2)
        assert report.ramification == 1
        from gvcalc import pullback

        pulled = pullback(list(report.mapping), report.form)
        assert pulled == s.forms[0] * report.cofactor

    def test_order_five_curve_witness_feeds_pullback(self):
        # a seeded order-5 curve sequence with nonzero slopes: its witness has
        # degree 15 in u, and the gcds over Q on the way once swelled past 30 s
        chart = curve_chart()
        u = chart.var("u")
        rng = random.Random(1)
        hs = [
            chart.const(rng.randint(-2, 2)) + u * chart.const(rng.choice([-1, 1]))
            for _ in range(5)
        ]
        hs.append(chart.const(rng.randint(1, 2)))
        s = curve_sequence(hs)
        out = finite_gv_classify(s)
        assert isinstance(out, ClosedKernelWitness)
        top = s.trimmed().forms[-1]
        a = RatFn.from_poly(out.function.num)
        b = RatFn.from_poly(out.function.den)
        assert wedge(ext_d(a) * b - ext_d(b) * a, top).is_zero()
        with pytest.raises(NotExpressible):
            finite_gv_pullback(s, out.function, 2)

    def test_slope_pole_is_not_expressible(self, xy):
        # the witness exists but the slope coefficient has a pole in it, so
        # the polynomial curve model is out of reach for this generator
        x, y = xy.var("x"), xy.var("y")
        dx = DiffForm.coordinate(xy, "x")
        dy = DiffForm.coordinate(xy, "y")
        zero = DiffForm.zero(xy, 1)
        wt1 = dy / y
        wt = [zero, wt1, dx * y, dx * (x * y**2), zero, dx * y**4]
        s = unshift(wt)
        out = finite_gv_classify(s)
        assert isinstance(out, ClosedKernelWitness)
        assert out.function == x**3
        with pytest.raises(NotExpressible):
            finite_gv_pullback(s, out.function, 3)
