import random
from fractions import Fraction

import pytest

from gvcalc import (
    Chart,
    ChartMismatch,
    DiffForm,
    GVSequence,
    GaugeBreaksRelations,
    GvError,
    ZeroFunction,
    ext_d,
    finite_gv_verify,
    pullback,
    wedge,
)
from gvcalc.transverse import (
    Triple,
    classify_structure,
    riccati_triple,
    suspension_form,
    triple_gauge,
    triple_gauge_regular,
    triple_verify,
)


def base_chart() -> Chart:
    return Chart(("x",), 0)


def generic_riccati():
    chart = base_chart()
    x = chart.var("x")
    dx = DiffForm.coordinate(chart, "x")
    return riccati_triple(dx * x, dx, dx * (x + 1))


@pytest.fixture
def xz():
    return Chart(("x", "z"), 0)


class TestTriple:
    def test_rejects_zero_defining_form(self, xz):
        z1 = DiffForm.zero(xz, 1)
        dx = DiffForm.coordinate(xz, "x")
        with pytest.raises(GvError):
            Triple(z1, dx, dx)

    def test_rejects_bad_convention(self, xz):
        dx = DiffForm.coordinate(xz, "x")
        with pytest.raises(GvError):
            Triple(dx, dx, dx, "both")

    def test_rejects_prime_characteristic(self):
        chart = Chart(("x", "z"), 3)
        dx = DiffForm.coordinate(chart, "x")
        with pytest.raises(GvError):
            Triple(dx, dx, dx)

    def test_rejects_mixed_charts(self, xz):
        dx = DiffForm.coordinate(xz, "x")
        other = DiffForm.coordinate(Chart(("x", "y", "z"), 0), "x")
        with pytest.raises(ChartMismatch):
            Triple(dx, dx, other)

    def test_conversion_involution(self, xz):
        dx = DiffForm.coordinate(xz, "x")
        dz = DiffForm.coordinate(xz, "z")
        t = Triple(dx, dz, dx + dz, "full")
        back = t.converted("half").converted("full")
        assert back == t
        assert t.converted("half").w2 == (dx + dz) * 2

    def test_conversion_preserves_verification(self):
        t = generic_riccati()
        assert triple_verify(t).ok
        half = t.converted("half")
        assert triple_verify(half).ok
        assert half.convention == "half"


class TestVerify:
    def test_euclidean_degenerate(self, xz):
        x, z = xz.var("x"), xz.var("z")
        zero = DiffForm.zero(xz, 1)
        t = Triple(ext_d(x * z), zero, zero)
        assert triple_verify(t).ok

    def test_riccati_triple_full(self):
        t = generic_riccati()
        report = triple_verify(t)
        assert report.ok
        assert report.convention == "full"

    def test_flat_failure(self, xz):
        dx = DiffForm.coordinate(xz, "x")
        dz = DiffForm.coordinate(xz, "z")
        t = Triple(dx, dz, DiffForm.zero(xz, 1))
        report = triple_verify(t)
        assert not report.ok
        assert report.defects[0] == -wedge(dx, dz)
        assert report.defects[1].is_zero()

    def test_convention_constant(self):
        # the fiber-linear Riccati data distinguishes the conventions:
        # d w1 = 2 c dz /\ dx needs the factor 2
        t = generic_riccati()
        mistagged = Triple(t.w0, t.w1, t.w2, "half")
        assert not triple_verify(mistagged).ok


class TestClassify:
    def test_euclidean(self, xz):
        x, z = xz.var("x"), xz.var("z")
        assert classify_structure(ext_d(x * z)) == "euclidean"

    def test_affine(self, xz):
        dx = DiffForm.coordinate(xz, "x")
        dz = DiffForm.coordinate(xz, "z")
        w0 = dz + dx * xz.var("z")
        assert classify_structure(w0, dx) == "affine"

    def test_projective(self):
        t = generic_riccati()
        assert classify_structure(t.w0, t.w1, t.w2) == "projective"

    def test_projective_in_half_tagging(self):
        t = generic_riccati().converted("half")
        assert classify_structure(t.w0, t.w1, t.w2) == "projective"

    def test_none(self, xz):
        dz = DiffForm.coordinate(xz, "z")
        w0 = dz + DiffForm.coordinate(xz, "x") * xz.var("z")
        assert classify_structure(w0) == "none"
        assert classify_structure(w0, dz) == "none"

    def test_rejects_zero(self, xz):
        with pytest.raises(ZeroFunction):
            classify_structure(DiffForm.zero(xz, 1))


class TestGauge:
    def test_identity_moves(self):
        t = generic_riccati()
        assert triple_gauge(t, "F", 1) == t
        assert triple_gauge(t, "G", 0) == t
        assert triple_gauge_regular(t, 1, 0) == t

    def test_f_move_columns(self):
        t = generic_riccati()
        chart = t.chart
        f = chart.var("x") + chart.const(2)
        out = triple_gauge(t, "F", f)
        assert out.w0 == t.w0 / f
        assert out.w1 == t.w1 + ext_d(f) / f
        assert out.w2 == t.w2 * f
        assert triple_verify(out).ok

    def test_f_move_inverse(self):
        t = generic_riccati()
        f = t.chart.var("x") + t.chart.const(1)
        assert triple_gauge(triple_gauge(t, "F", f), "F", f.inv()) == t

    def test_g_move_full_columns(self):
        t = generic_riccati()
        g = t.chart.var("z")
        out = triple_gauge(t, "G", g)
        assert out.w0 == t.w0
        assert out.w1 == t.w1 + t.w0 * (2 * g)
        assert out.w2 == t.w2 + t.w1 * g + t.w0 * (g * g) - ext_d(g)
        assert triple_verify(out).ok

    def test_g_move_inverse(self):
        t = generic_riccati()
        g = t.chart.var("x")
        assert triple_gauge(triple_gauge(t, "G", g), "G", -g) == t

    def test_rejects_zero_scaling(self):
        t = generic_riccati()
        with pytest.raises(ZeroFunction):
            triple_gauge(t, "F", 0)
        with pytest.raises(ZeroFunction):
            triple_gauge_regular(t, 0, 1)

    def test_rejects_unknown_move(self):
        t = generic_riccati()
        with pytest.raises(GvError):
            triple_gauge(t, "H", 1)

    def test_composition_law(self):
        t = generic_riccati()
        chart = t.chart
        x = chart.var("x")
        f0, f1 = x + chart.const(1), x
        h0, h1 = chart.const(3), x * x
        lhs = triple_gauge_regular(triple_gauge_regular(t, f0, f1), h0, h1)
        rhs = triple_gauge_regular(t, f0 * h0, f1 + h1 * f0)
        assert lhs == rhs

    def test_half_convention_round_trip(self):
        t = generic_riccati().converted("half")
        g = t.chart.var("x")
        out = triple_gauge(t, "G", g)
        assert out.convention == "half"
        assert triple_verify(out).ok
        assert out == triple_gauge(t.converted("full"), "G", g).converted("half")

    def test_mistagged_input_raises(self):
        t = generic_riccati()
        mistagged = Triple(t.w0, t.w1, t.w2, "half")
        with pytest.raises(GaugeBreaksRelations):
            triple_gauge(mistagged, "G", t.chart.var("x"))

    def test_random_gauges_preserve_verification(self):
        t = generic_riccati()
        chart = t.chart
        x = chart.var("x")
        rng = random.Random(5)
        for _ in range(8):
            f0 = x * chart.const(rng.randint(1, 3)) + chart.const(rng.randint(1, 4))
            f1 = x * chart.const(rng.randint(-2, 2)) + chart.const(rng.randint(-2, 2))
            out = triple_gauge_regular(t, f0, f1)
            assert triple_verify(out).ok
            assert wedge(out.w0, t.w0).is_zero()

    def test_riccati_infinity_chart(self):
        # move the line at infinity of a Riccati equation into view: pull
        # the triple back through z = 1/w, rescale by F(1/w^2), then apply
        # G(-1/w); the result is a polynomial triple in w whose last slot
        # is +alpha
        chart = base_chart()
        x = chart.var("x")
        dx = DiffForm.coordinate(chart, "x")
        alpha, beta, gamma = dx * x, dx * (x * x), dx * (x + 3)
        t = riccati_triple(alpha, beta, gamma)

        wchart = Chart(("x", "w"), 0)
        w = wchart.var("w")
        phi = [wchart.var("x"), w.inv()]
        pulled = Triple(
            pullback(phi, t.w0), pullback(phi, t.w1), pullback(phi, t.w2)
        )
        assert triple_verify(pulled).ok

        out = triple_gauge(triple_gauge(pulled, "F", (w * w).inv()), "G", -w.inv())
        assert triple_verify(out).ok
        dw = DiffForm.coordinate(wchart, "w")
        lift = [wchart.var("x")]
        a = pullback(lift, alpha)
        b = pullback(lift, beta)
        c = pullback(lift, gamma)
        assert out.w0 == -dw + a * (w * w) + b * w + c
        assert out.w1 == -b - a * (2 * w)
        assert out.w2 == a


class TestRiccati:
    def test_euclidean_compatible(self):
        chart = base_chart()
        x = chart.var("x")
        dx = DiffForm.coordinate(chart, "x")
        zero = DiffForm.zero(chart, 1)
        t = riccati_triple(dx * x, zero, zero)
        dz = DiffForm.coordinate(t.chart, "z")
        assert t.w0 == dz + DiffForm.coordinate(t.chart, "x") * t.chart.var("x")
        assert t.w1.is_zero()
        assert t.w2.is_zero()

    def test_gamma_zero_is_affine(self):
        chart = base_chart()
        x = chart.var("x")
        dx = DiffForm.coordinate(chart, "x")
        t = riccati_triple(dx * x, dx * (x + 1), DiffForm.zero(chart, 1))
        assert classify_structure(t.w0, t.w1) == "affine"

    def test_rejects_mixed_charts(self):
        dx = DiffForm.coordinate(base_chart(), "x")
        other = DiffForm.coordinate(Chart(("x", "y"), 0), "x")
        with pytest.raises(ChartMismatch):
            riccati_triple(dx, other, dx)

    def test_fresh_fiber_name(self):
        chart = Chart(("z",), 0)
        dz = DiffForm.coordinate(chart, "z")
        t = riccati_triple(dz, dz, dz)
        assert t.chart.variables == ("z", "z0")

    def test_extends_to_finite_sequence(self):
        t = generic_riccati()
        s = GVSequence([t.w0, t.w1, t.w2 * 2], declared_length=3)
        assert finite_gv_verify(s).ok


class TestSuspension:
    def test_curve_triple_gives_riccati_form(self):
        chart = base_chart()
        x = chart.var("x")
        dx = DiffForm.coordinate(chart, "x")
        t = Triple(dx * x, dx * 2, dx * (x * x))
        assert triple_verify(t).ok
        om = suspension_form(t)
        assert om.coeffs == (dx * x, dx * 2, dx * (2 * x * x))

    def test_euclidean_triple(self, xz):
        x, z = xz.var("x"), xz.var("z")
        zero = DiffForm.zero(xz, 1)
        om = suspension_form(Triple(ext_d(x * z), zero, zero))
        assert om.coeffs[0] == ext_d(x * z)
        assert om.coeffs[1].is_zero()
        assert om.coeffs[2].is_zero()

    def test_half_input_converted(self):
        t = generic_riccati()
        assert suspension_form(t.converted("half")) == suspension_form(t)

    def test_broken_triple_raises(self, xz):
        dx = DiffForm.coordinate(xz, "x")
        dz = DiffForm.coordinate(xz, "z")
        with pytest.raises(GvError):
            suspension_form(Triple(dx, dz, DiffForm.zero(xz, 1)))
