"""Positive-characteristic integrating factors: frames, p-th powers, sieving."""

import hashlib
import json
import random
import re
import signal
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_field_oracles import polys, to_sympy

import gvcalc
from gvcalc import (
    Chart,
    DegenerateFrame,
    DiffForm,
    GvError,
    MultiPoly,
    NotIntegrable,
    PClosedCase,
    RatFn,
    VectorField,
    ZeroDenominator,
    ZeroFunction,
    batch_integrating_factors,
    d_of,
    dual_frame,
    exact_div,
    ext_d,
    form_apply,
    integrating_factor,
    invariant_hypersurface_candidates,
    poly_gcd,
    pullback,
    squarefree_decomposition,
    vf_pth_power,
    wedge,
    wedge_all,
)
from gvcalc.charp import (
    _cleared,
    _closed_identity,
    _common_denominator,
    _default_frame_functions,
    _restriction_vanishes,
)
from gvcalc.exterior import _FormSum
from gvcalc.field import _gauss_jordan

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def plane(p: int) -> Chart:
    return Chart(("x", "y"), p)


def worked_form(chart: Chart) -> DiffForm:
    """dx + xy dy, the running two-variable example."""
    x = chart.var("x")
    y = chart.var("y")
    return DiffForm.one_form(chart, [chart.one(), x * y])


class TestDualFrame:
    def test_worked_frame_char_two(self) -> None:
        chart = plane(2)
        x = chart.var("x")
        w = worked_form(chart)
        frame = dual_frame(w, fs=[chart.var("y")])
        assert frame.fields[0] == VectorField(chart, [x * chart.var("y"), 1])
        assert frame.fields[1] == VectorField(chart, [1, 0])
        assert frame.basis_forms == (DiffForm.coordinate(chart, "y"), w)
        assert frame.kernel_fields == (frame.fields[0],)

    def test_contraction_matrix_is_identity(self) -> None:
        chart = plane(5)
        w = worked_form(chart)
        frame = dual_frame(w, fs=[chart.var("y")])
        for i, a in enumerate(frame.basis_forms):
            for j, v in enumerate(frame.fields):
                expected = chart.one() if i == j else chart.zero()
                assert form_apply(a, v) == expected

    def test_default_scan_annihilates_the_form(self) -> None:
        chart = plane(2)
        w = worked_form(chart)
        frame = dual_frame(w)
        assert form_apply(w, frame.fields[0]).is_zero()
        assert form_apply(w, frame.fields[1]) == chart.one()

    def test_coordinate_frame_in_three_variables(self) -> None:
        chart = Chart(("x", "y", "z"), 3)
        w = DiffForm.coordinate(chart, "z")
        frame = dual_frame(w, fs=[chart.var("x"), chart.var("y")])
        assert frame.fields[0] == VectorField.coordinate(chart, "x")
        assert frame.fields[1] == VectorField.coordinate(chart, "y")
        assert frame.fields[2] == VectorField.coordinate(chart, "z")

    def test_kernel_fields_commute_for_integrable_forms(self) -> None:
        chart = Chart(("x", "y", "z"), 5)
        z = chart.var("z")
        w = DiffForm.one_form(chart, [z, 0, 1])
        frame = dual_frame(w)
        x1, x2 = frame.kernel_fields
        assert x1.bracket(x2).is_zero()
        assert form_apply(w, x1).is_zero()
        assert form_apply(w, x2).is_zero()
        # dual_frame does not bracket its fields; the seeded small draws of
        # the p-th power oracle check that commuting follows from its checks
        for p in (3, 5, 7):
            chart = Chart(("x", "y", "z"), p)
            rng = random.Random(10 * p + 3)
            for _ in range(10):
                x1, x2 = dual_frame(random_integrable_form(chart, rng)).kernel_fields
                assert x1.bracket(x2).is_zero()

    def test_degenerate_choice_raises(self) -> None:
        chart = plane(2)
        w = DiffForm.coordinate(chart, "x")
        with pytest.raises(DegenerateFrame):
            dual_frame(w, fs=[chart.var("x")])

    def test_dependent_differentials_make_a_singular_matrix(self) -> None:
        # d((xy)^2 + 1) = 2xy d(xy): no wedge is taken before the inversion,
        # which finds the singular coefficient matrix itself
        chart = Chart(("x", "y", "z"), 3)
        xy = chart.var("x") * chart.var("y")
        w = DiffForm.coordinate(chart, "z") / (chart.var("x") + 1)
        with pytest.raises(DegenerateFrame, match="singular"):
            dual_frame(w, fs=[xy, xy**2 + 1])
        with pytest.raises(DegenerateFrame, match="singular"):
            integrating_factor(w, fs=[xy, xy**2 + 1])

    def test_zero_form_has_no_frame(self) -> None:
        chart = plane(3)
        with pytest.raises(DegenerateFrame):
            dual_frame(DiffForm.zero(chart, 1))

    def test_characteristic_zero_rejected(self) -> None:
        chart = Chart(("x", "y"), 0)
        with pytest.raises(GvError):
            dual_frame(DiffForm.coordinate(chart, "x"))

    def test_wrong_function_count_rejected(self) -> None:
        chart = plane(2)
        with pytest.raises(GvError):
            dual_frame(worked_form(chart), fs=[chart.var("x"), chart.var("y")])


F7_POWER_SHA256 = "ca9551421cfee5a261021e73efd111586dc397dd88a9f7c874c2bb093dbcec70"


def greedy_frame_functions(w: DiffForm) -> list[RatFn]:
    """The wedge scan the default frame once ran, with `dual_frame`'s wedge check.

    Coordinates are taken in index order while the wedge with w and the
    coordinates already taken stays nonzero.
    """
    chart = w.chart
    chosen: list[RatFn] = []
    acc = [w]
    for name in chart.variables:
        if len(chosen) == chart.dim - 1:
            break
        cand = DiffForm.coordinate(chart, name)
        if not wedge_all(acc + [cand]).is_zero():
            chosen.append(chart.var(name))
            acc.append(cand)
    if len(chosen) != chart.dim - 1 or wedge_all([d_of(f) for f in chosen] + [w]).is_zero():
        raise DegenerateFrame("no choice of coordinates completes the form to a coframe")
    return chosen


@pytest.mark.parametrize("p", [0, 2, 3])
@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_default_frame_matches_the_greedy_wedge_scan(p, dim):
    # every zero/nonzero pattern of fractional coefficients
    chart = Chart(("x", "y", "z", "t")[:dim], p)
    rng = random.Random(100 * p + dim)

    def const():
        return rng.randrange(1, p) if p else Fraction(rng.randint(1, 9), rng.randint(1, 9))

    def fraction():
        num = chart.var(rng.choice(chart.variables)) * const() + rng.randrange(3)
        return num / (chart.var(rng.choice(chart.variables)) + const())

    for pattern in product((False, True), repeat=dim):
        w = DiffForm.one_form(chart, [fraction() if on else 0 for on in pattern])
        try:
            expected = greedy_frame_functions(w)
        except DegenerateFrame:
            assert w.is_zero()
            with pytest.raises(DegenerateFrame):
                _default_frame_functions(w)
            continue
        assert _default_frame_functions(w) == expected


class TestPthPower:
    def test_coordinate_field_power_vanishes(self) -> None:
        chart = plane(3)
        x = VectorField.coordinate(chart, "x")
        assert vf_pth_power(x, 3).is_zero()

    def test_scaling_field_is_fixed(self) -> None:
        for p in (2, 3, 5, 7):
            chart = plane(p)
            e = VectorField(chart, [chart.var("x"), 0])
            assert vf_pth_power(e, p) == e

    def test_worked_square_char_two(self) -> None:
        chart = plane(2)
        x = chart.var("x")
        y = chart.var("y")
        v = VectorField(chart, [x * y, 1])
        assert vf_pth_power(v, 2) == VectorField(chart, [x * y * y + x, 0])

    def test_exponent_must_match_characteristic(self) -> None:
        chart = plane(2)
        v = VectorField.coordinate(chart, "x")
        with pytest.raises(GvError):
            vf_pth_power(v, 3)
        with pytest.raises(GvError):
            vf_pth_power(VectorField.coordinate(Chart(("x",), 0), "x"), 2)

    def test_power_is_a_derivation(self) -> None:
        rng = random.Random(20)
        chart = plane(3)
        x = chart.var("x")
        y = chart.var("y")
        pool = [x, y, x + y, x * y + 1, x * x + y, y * y + x + 2]
        for _ in range(6):
            v = VectorField(chart, [rng.choice(pool), rng.choice(pool)])
            vp = vf_pth_power(v, 3)
            f = rng.choice(pool)
            g = rng.choice(pool)
            assert vp.apply(f * g) == f * vp.apply(g) + g * vp.apply(f)

    def test_power_str_is_pinned_on_an_f7_field(self) -> None:
        # the kernel field of this frame has an 8-term denominator; the
        # digest pins the power whichever common denominator its components
        # are cleared over
        chart = plane(7)
        x = chart.var("x")
        y = chart.var("y")
        w = DiffForm.one_form(
            chart, [(5 * x**2 + 4 * x * y + 2) / (y + 5), (2 * x**2 + 6 * y**2 + 3 * x) / y]
        )
        (kernel,) = dual_frame(w, fs=[2 * x + y]).kernel_fields
        text = str(vf_pth_power(kernel, 7))
        assert len(text) == 4069
        assert hashlib.sha256(text.encode()).hexdigest() == F7_POWER_SHA256

    def test_power_matches_iterated_application(self) -> None:
        chart = plane(5)
        x = chart.var("x")
        y = chart.var("y")
        v = VectorField(chart, [y, x * x])
        vp = vf_pth_power(v, 5)
        probe = x * x * y + y + 3
        iterated = probe
        for _ in range(5):
            iterated = v.apply(iterated)
        assert vp.apply(probe) == iterated


class TestIntegratingFactor:
    def test_worked_instance_char_two(self) -> None:
        chart = plane(2)
        x = chart.var("x")
        y = chart.var("y")
        w = worked_form(chart)
        f = integrating_factor(w, fs=[y])
        assert f == (x * (y + 1) ** 2).inv()
        assert (f * x * (y + 1) ** 2).is_constant()
        assert ext_d(w * f).is_zero()

    def test_default_scan_also_closes(self) -> None:
        chart = plane(2)
        w = worked_form(chart)
        f = integrating_factor(w)
        assert not f.is_zero()
        assert ext_d(w * f).is_zero()

    def test_closed_form_is_p_closed(self) -> None:
        for p in (2, 3, 5, 7):
            chart = plane(p)
            with pytest.raises(PClosedCase):
                integrating_factor(DiffForm.coordinate(chart, "x"))

    def test_quadratic_example_is_p_closed_char_three(self) -> None:
        chart = plane(3)
        x = chart.var("x")
        w = DiffForm.one_form(chart, [chart.one(), x * x])
        with pytest.raises(PClosedCase):
            integrating_factor(w, fs=[chart.var("y")])

    def test_worked_form_char_three(self) -> None:
        chart = plane(3)
        x = chart.var("x")
        y = chart.var("y")
        w = worked_form(chart)
        f = integrating_factor(w, fs=[y])
        assert (f * x * y ** 3).is_constant()
        assert ext_d(w * f).is_zero()

    def test_three_variables_char_five(self) -> None:
        chart = Chart(("x", "y", "z"), 5)
        z = chart.var("z")
        w = DiffForm.one_form(chart, [z, 0, 1])
        f = integrating_factor(w)
        assert (f * z).is_constant()
        assert ext_d(w * f).is_zero()

    def test_contact_form_rejected(self) -> None:
        chart = Chart(("x", "y", "z"), 5)
        y = chart.var("y")
        w = DiffForm.one_form(chart, [-y, 0, 1])
        with pytest.raises(NotIntegrable):
            integrating_factor(w)

    def test_fractional_contact_form_rejected(self) -> None:
        # integrability is tested on the cleared form x dy + dz
        chart = Chart(("x", "y", "z"), 5)
        x, y = chart.var("x"), chart.var("y")
        w = DiffForm.one_form(chart, [0, x, 1]) / (y + 1)
        with pytest.raises(NotIntegrable):
            integrating_factor(w)

    def test_characteristic_zero_rejected(self) -> None:
        chart = Chart(("x", "y"), 0)
        with pytest.raises(GvError):
            integrating_factor(worked_form(chart))

    def test_probe_form_zero_finishes(self) -> None:
        # cleared over the product of the kernel denominators rather than
        # their lcm, this form takes seconds
        w = _probe_form(0)
        f = _within(2, lambda: integrating_factor(w))
        assert ext_d(w * f).is_zero()

    @pytest.mark.parametrize("i", [1, 25])
    def test_probe_form_finishes_within_a_second(self, i) -> None:
        # with integrability tested on RatFn coefficients these took 1.7 s
        # and 0.6 s; form 25 is p-closed
        w = _probe_form(i)

        def factor_digest():
            try:
                return _digest(integrating_factor(w))
            except PClosedCase:
                return None

        assert _within(1, factor_digest) == PROBE_FACTOR_SHA256.get(i)

    @pytest.mark.parametrize("i", [0, 2, 4, 7, 8, 9, 10, 16, 18, 27])
    def test_probe_form_factor_is_pinned(self, i) -> None:
        assert _digest(integrating_factor(_probe_form(i))) == PROBE_FACTOR_SHA256[i]

    @pytest.mark.parametrize("i", [11, 20, 23])
    def test_stalled_probe_form_finishes(self, i) -> None:
        # these ran past 10 s in the PRS of the F_7 gcd, which proved large
        # contraction numerators coprime to small kernel denominators; the
        # digest was first taken when they finished, so d(f w) = 0 checks it
        w = _probe_form(i)
        f = _within(10, lambda: integrating_factor(w))
        assert _digest(f) == PROBE_FACTOR_SHA256[i]
        assert _closed_as_polynomials(w, f)

    @pytest.mark.parametrize("i", [0, 2, 4, 8])
    def test_polynomial_closedness_rejects_a_non_factor(self, i) -> None:
        # the check behind the stalled forms can fail: a p-th power multiple
        # of a factor is a factor, another multiple is not; forms 0 and 4
        # take its Leibniz identity, forms 2 and 8 its p-th power branch
        w = _probe_form(i)
        f = integrating_factor(w)
        x = w.chart.var("x")
        p = w.chart.characteristic
        assert _closed_as_polynomials(w, f)
        assert _closed_as_polynomials(w, f * (x + 1) ** p)
        assert not _closed_as_polynomials(w, f * (x + 1))

    def test_probe_form_17_is_certified(self) -> None:
        # its factor comes in about 1.5 s; the unsplit certificate, which
        # multiplied the factor's numerator into every term, ran past 30 s
        w = _probe_form(17)
        assert _within(30, lambda: _digest(integrating_factor(w))) == PROBE_FACTOR_SHA256[17]

    def test_closed_identity_rejects_a_non_factor(self) -> None:
        # the closedness certificate is a real identity: it holds for the
        # factor and fails once the factor is perturbed
        for p in (2, 3):
            chart = plane(p)
            x = chart.var("x")
            w = worked_form(chart)
            f = integrating_factor(w, fs=[chart.var("y")])
            assert _closed_identity(f, _cleared(w))
            assert not _closed_identity(f * x, _cleared(w))
            assert not _closed_identity(chart.one(), _cleared(w))


# sha256 of str(integrating_factor(_probe_form(i))), captured before the
# form was cleared once for the integrability test and the frame; forms 11,
# 20 and 23 were captured once the F_p gcd answered from univariate images,
# before which they did not finish
PROBE_FACTOR_SHA256 = {
    0: "909561a36425ba2e3bac710aea5af65756d322213effda81b49d92a87b052387",
    1: "a31210b7aff48d4950afe08d484fa40b9900aa355214a1303c55d25a6b4e755a",
    2: "89019366ce18208e5aa29bf1f822c7fed5fd8eb8d271b357d26dafc08cf5eec0",
    4: "8456158fefef4c39a6f9bdfb8150867b492224903c40b7f7b875704ad398b466",
    7: "d601d3d1a3d3686edd64e42bcf98660650ded37b67239d5d99a74820257079d2",
    8: "2759859d5f5409af5cfbcaedaae893dc03287179f190bafd3a992de352ded188",
    9: "2a96772e33cfb1cb01558dd0852f0c58f17bcc2c5d81c1252a32bbe16ca40233",
    10: "f102784e207c80511cc77d986a527eac68288baae84e6bce727f13616adcf4c1",
    11: "7716e3f7dd95bb7fb2eb286243131fe01257766d1cfa5b9a47d0be71cdfb4442",
    16: "77d171dc4ca0b9215e369b186aef593cb68ea74b5e61f6ec71895f63f82a39c8",
    17: "2ee510ca49dd5a70d68be6ae68930c42794fe81f0a7e9afc3ac2413d3ae1280c",
    18: "b1942e672bc81b58f090a74d8c2929d2421612b0b6403c1f411e26846e6d7a09",
    20: "da546f5f56724a2f774eab9af26420ff7e4493fd4b5aad912b4816d2fc1df795",
    23: "f7ded9616c4592959cbacd3e9518c46e3f2215327c484aa196e800891431d01d",
    27: "63939db38c4ddde1dd933a686129cebd773983dd08f942d30c4ddaf6fd3f7518",
}


def _digest(f: RatFn) -> str:
    return hashlib.sha256(str(f).encode()).hexdigest()


def _closed_as_polynomials(w: DiffForm, f: RatFn) -> bool:
    """d(f w) = 0, tested on polynomial forms through the public API alone.

    `ext_d(w * f)` normalizes rational coefficients of thousands of terms:
    it takes 23 s on the factor of probe form 20, and on those of forms 11
    and 23 it stalls in gcds that are not constant.  Here w = W/B, with B
    the lcm of its denominators, and f = P/N.  When P B^k is a p-th power
    R^p for some k < p, f w = R^p W/M with M = N B^(k+1), and d(R^p) = 0
    leaves M dW - dM ^ W = 0.  Otherwise the test is Leibniz's
    D dP ^ W + P (D dW - dD ^ W) = 0 with D = N B.
    """
    chart = w.chart

    def d(g: MultiPoly) -> DiffForm:
        return ext_d(DiffForm.from_function(RatFn.from_poly(g)))

    B = MultiPoly.const(chart, 1)
    for c in w.coeffs():
        B = exact_div(B * c.den, poly_gcd(B, c.den))
    W = w * RatFn.from_poly(B)
    P, N = f.num, f.den
    pth = P
    for k in range(chart.characteristic):
        if all(pth.diff(v).is_zero() for v in range(chart.dim)):
            M = N * B ** (k + 1)
            return (ext_d(W) * RatFn.from_poly(M) - wedge(d(M), W)).is_zero()
        pth = pth * B
    D = RatFn.from_poly(N * B)
    e = ext_d(W) * D - wedge(d(D.num), W)
    return (wedge(d(P), W) * D + e * RatFn.from_poly(P)).is_zero()


def _within(seconds: int, call):
    """call(), raising TimeoutError once it has run for `seconds`."""

    def stalled(signum, frame):
        raise TimeoutError(f"the call took over {seconds} s")

    previous = signal.signal(signal.SIGALRM, stalled)
    signal.alarm(seconds)
    try:
        return call()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _probe_form(i: int) -> DiffForm:
    """Probe form i: a plane form over F_3, F_5 or F_7 pulled back to (x, y, z).

    The 3-variable draws whose factors stress the F_p gcd; the draw order
    fixes the index of each form.
    """
    p = (3, 5, 7)[i % 3]
    rng = random.Random(i)
    ch2 = Chart(("x", "y"), p)
    X, Y = ch2.var("x"), ch2.var("y")

    def coef():
        num = ch2.zero()
        for _ in range(rng.randint(1, 3)):
            m = ch2.const(rng.randint(1, p - 1))
            for v in (X, Y):
                m = m * v ** rng.randint(0, 2)
            num = num + m
        den = ch2.one()
        for _ in range(rng.randint(0, 2)):
            den = den * (X * rng.randint(0, p - 1) + Y * rng.randint(0, p - 1)
                         + rng.randint(1, p - 1))
        return num / den

    A, B = coef(), coef()
    ch3 = Chart(("x", "y", "z"), p)
    x, y, z = (ch3.var(v) for v in "xyz")
    a, b = rng.randint(1, p - 1), rng.randint(1, p - 1)
    return pullback(
        [x + z ** rng.randint(1, 2) * a, y + z ** rng.randint(0, 2) * b],
        DiffForm.one_form(ch2, [A, B]),
    )


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_common_denominator_is_the_lcm(p):
    # denominators share a planted factor, so the lcm is a proper divisor of
    # their product
    chart = plane(p)
    rng = random.Random(p)
    shared_any = False
    for _ in range(12):
        shared = MultiPoly.zero(chart)
        while shared.is_constant():
            shared = random_poly(chart, rng, 2, 2)
        fracs = []
        for _ in range(rng.randint(2, 4)):
            den = MultiPoly.zero(chart)
            while den.is_zero():
                den = random_poly(chart, rng, rng.randint(1, 2), 1)
            fracs.append(RatFn(random_poly(chart, rng, rng.randint(1, 3), 2), shared * den))
        nums, den = _common_denominator(fracs)
        lcm = to_sympy(fracs[0].den)
        for f in fracs[1:]:
            lcm = sympy.lcm(lcm, to_sympy(f.den))
        assert to_sympy(den) == lcm.monic()
        for n, f in zip(nums, fracs):
            assert n * f.den == f.num * den
        product = MultiPoly.const(chart, 1)
        for f in fracs:
            product = product * f.den
        shared_any |= den != product
    assert shared_any


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_closed_identity_agrees_with_ext_d(p, dim):
    # ext_d(w * F).is_zero() is the reference; w = (a/b) dg has the factors
    # b/a and (b/a) q^p, and r/s is usually not one.  Denominators have up to
    # 3 terms: `RatFn.diff` reduces against gcd(Q, Q_v), not against Q^2.
    small = polys(p, max_terms=3, max_exp=2, dim=dim)
    dens = polys(p, max_terms=3, max_exp=2, dim=dim).filter(lambda f: not f.is_zero())
    linear = polys(p, max_terms=2, max_exp=1, dim=dim)

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(small, dens, dens, small, linear.filter(lambda f: not f.is_zero()), linear)
    def check(g, a, b, r, s, q):
        chart = g.chart
        w = d_of(RatFn.from_poly(g)) * RatFn(a, b)
        factor = RatFn(b, a)
        others = [factor * RatFn.from_poly(q) ** p, RatFn(r, s), factor * RatFn(r, s)]
        assert _closed_identity(factor, _cleared(w)) and _closed_identity(others[0], _cleared(w))
        for f in [factor, *others]:
            assert _closed_identity(f, _cleared(w)) == ext_d(w * f).is_zero() == unsplit_identity(f, w)
        # w = (a / s^p) dg has the factor s^p / a, whose numerator is a p-th power
        u = d_of(RatFn.from_poly(g)) * RatFn(a, s**p)
        for f in (RatFn(s**p, a), RatFn(s**p * r, a)):
            assert _closed_identity(f, _cleared(u)) == ext_d(u * f).is_zero() == unsplit_identity(f, u)
        assert _closed_identity(RatFn(s**p, a), _cleared(u))
        # a form that need not be integrable
        v = DiffForm.one_form(chart, [RatFn(r, s), RatFn.from_poly(g)] + [RatFn(b, s)] * (dim - 2))
        for f in (RatFn(r, s), chart.one()):
            assert _closed_identity(f, _cleared(v)) == ext_d(v * f).is_zero() == unsplit_identity(f, v)

    check()


def unsplit_identity(factor: RatFn, w: DiffForm) -> bool:
    """The certificate as one sum: D dU - dD ^ U = 0 for factor*w = U/D."""
    wnums, wden = _common_denominator(list(w.coeffs()))
    u = DiffForm.one_form(w.chart, [factor.num * wn for wn in wnums])
    d = DiffForm.from_function(RatFn.from_poly(factor.den * wden))
    acc = _FormSum(w.chart)
    acc.add_wedge(d, ext_d(u), 1)
    acc.add_wedge(ext_d(d), u, -1)
    return acc.form(2).is_zero()


@pytest.mark.parametrize("name", ["charp_factors", "charp_sieve"])
def test_closed_identity_on_the_workload_factors(name):
    # most of these factors have a p-th power numerator (dP = 0); times x or
    # x + 1 they do not, and they stay factors only when w is a multiple of dx
    pool = run.make_pool(WORKLOADS[name], gvcalc, 1, 100)
    pth_powers = 0
    for w in pool:
        try:
            factor = integrating_factor(w)
        except PClosedCase:
            continue
        chart = w.chart
        x = chart.var("x")
        pth_powers += all(factor.num.diff(v).is_zero() for v in range(chart.dim))
        assert _closed_identity(factor, _cleared(w)) and unsplit_identity(factor, w)
        along_dx = wedge_all([w, d_of(x)]).is_zero()
        for f in (factor * x, factor * (x + 1)):
            assert _closed_identity(f, _cleared(w)) == unsplit_identity(f, w) == along_dx
    assert pth_powers >= 50


def random_poly(chart: Chart, rng: random.Random, terms: int, degree: int) -> MultiPoly:
    """At most `terms` monomials of total degree at most `degree`."""
    out = {}
    for _ in range(terms):
        e = [0] * chart.dim
        for _ in range(rng.randint(0, degree)):
            e[rng.randrange(chart.dim)] += 1
        out[tuple(e)] = rng.randrange(1, chart.characteristic)
    return MultiPoly(chart, out)


def random_fraction(chart: Chart, rng: random.Random) -> RatFn:
    den = MultiPoly.zero(chart)
    while den.is_zero():
        den = random_poly(chart, rng, rng.randint(1, 2), 1)
    return RatFn(random_poly(chart, rng, rng.randint(0, 2), 2), den)


def random_integrable_form(chart: Chart, rng: random.Random) -> DiffForm:
    """A rational 1-form on (x, y), or an integrable one on (x, y, z).

    On three variables it is mostly a plane form pulled back along
    (x + a z, y + b z), which keeps its denominators nonzero, and
    otherwise h dg, whose kernel is p-closed.  The draws stay small: larger
    3-variable fractions can stall in the F_p gcd.
    """
    p = chart.characteristic
    while True:
        if chart.dim == 2:
            w = DiffForm.one_form(chart, [random_fraction(chart, rng) for _ in range(2)])
        elif rng.random() < 0.25:
            g = RatFn.from_poly(random_poly(chart, rng, rng.randint(1, 3), 2))
            w = d_of(g) * random_fraction(chart, rng)
        else:
            z = chart.var("z")
            phi = [chart.var(n) + z * rng.randrange(p) for n in ("x", "y")]
            w = pullback(phi, random_integrable_form(Chart(("u", "v"), p), rng))
        if not w.is_zero():
            return w


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_factor_inverts_the_first_nonzero_pth_power_contraction(p, dim):
    # the reference contracts w with vf_pth_power, which iterates X itself on
    # cleared numerators; integrating_factor iterates the polynomial field
    # Y = den * X and divides by den^p
    chart = Chart(("x", "y", "z")[:dim], p)
    rng = random.Random(10 * p + dim)
    outcomes = set()
    for k in range(10):
        w = random_integrable_form(chart, rng)
        fs = None
        if k % 2:
            fs = [chart.var("y") + chart.var("x") * (k % 3)] + [chart.var(n) for n in "z"[: dim - 2]]
        try:
            frame = dual_frame(w, fs)
        except DegenerateFrame:
            with pytest.raises(DegenerateFrame):
                integrating_factor(w, fs)
            continue
        values = [form_apply(w, vf_pth_power(x, p)) for x in frame.kernel_fields]
        first = next((c for c in values if not c.is_zero()), None)
        if first is None:
            with pytest.raises(PClosedCase):
                integrating_factor(w, fs)
            outcomes.add("p-closed")
        else:
            f = integrating_factor(w, fs)
            assert f == 1 / first and str(f) == str(1 / first)
            outcomes.add("factor")
    assert outcomes == {"factor", "p-closed"}


def gauss_jordan_inverse(rows: list[list[RatFn]]) -> list[list[RatFn]] | None:
    """The inverse of a square RatFn matrix by Gauss-Jordan, None when singular."""
    chart = rows[0][0].chart
    m = len(rows)
    aug = [
        list(row) + [chart.one() if i == j else chart.zero() for j in range(m)]
        for i, row in enumerate(rows)
    ]
    if len(_gauss_jordan(aug, m)) < m:
        return None
    return [row[m:] for row in aug]


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_dual_frame_matches_a_gauss_jordan_inverse(p, dim):
    # the fields come from the cleared adjugate; the reference inverts the
    # coframe matrix over RatFn, and reduced fractions are canonical, so
    # the components agree exactly and print alike
    chart = Chart(("x", "y", "z")[:dim], p)
    x, y = chart.var("x"), chart.var("y")
    custom = [2 * x + y, x * y, 1 / (x + 1), x * y + y * y / (x + 1)]
    rng = random.Random(100 * p + dim)
    singular = 0
    for k in range(12):
        w = random_integrable_form(chart, rng)
        if k % 3 == 0:
            fs = None
        elif dim == 2:
            fs = [custom[k % 4]]
        else:
            fs = [custom[k % 4], custom[(k + 1) % 4] + chart.var("z") * (k % 2)]
        try:
            frame = dual_frame(w, fs)
        except DegenerateFrame:
            rows = [list(d_of(f).coeffs()) for f in fs] + [list(w.coeffs())]
            assert gauss_jordan_inverse(rows) is None
            singular += 1
            continue
        inverse = gauss_jordan_inverse([list(a.coeffs()) for a in frame.basis_forms])
        for j, field in enumerate(frame.fields):
            for i, c in enumerate(field.components):
                assert c == inverse[i][j] and str(c) == str(inverse[i][j])
    assert singular < 12


PTH_POWER_MESSAGE = (
    "the integrating factor is a p-th power; its logarithmic "
    "differential vanishes and the polar sieve is empty"
)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_pth_power_test_agrees_with_partials(p):
    # F is an integrating factor of dx / F; the sieve must refuse F exactly
    # when every partial derivative of F vanishes.  A planted F is a p-th
    # power; otherwise it is one times a fraction that usually is not.
    nonzero = polys(p, max_terms=2, max_exp=2).filter(lambda f: not f.is_zero())

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(nonzero, nonzero, nonzero, nonzero, st.booleans())
    def check(q, s, a, b, planted):
        factor = RatFn(q, s) ** p
        if not planted:
            factor = factor * RatFn(a, b)
        chart = factor.chart
        w = DiffForm.coordinate(chart, "x") * factor.inv()
        if all(factor.diff(v).is_zero() for v in range(chart.dim)):
            with pytest.raises(GvError, match=f"^{re.escape(PTH_POWER_MESSAGE)}$"):
                invariant_hypersurface_candidates(factor, w)
        else:
            invariant_hypersurface_candidates(factor, w)

    check()


def rational_restriction(g: MultiPoly, w: DiffForm) -> tuple[bool, bool]:
    """(verdict, polar) of the rational route that `_restriction_vanishes`
    replaced: for the first variable x_j in which g is linear and whose graph
    x_j = -b/a the public `pullback` can take, whether w pulls back to zero;
    ZeroDenominator (the graph lies in the polar locus) moves on to the next
    such variable and, with none left, means False.  polar tells whether
    some graph raised ZeroDenominator."""
    chart = g.chart
    polar = False
    for j, name in enumerate(chart.variables):
        if g.degree_in(j) != 1:
            continue
        if chart.dim == 1:
            return True, polar
        source = Chart(tuple(n for n in chart.variables if n != name), chart.characteristic)
        drop = [source.zero() if n == name else source.var(n) for n in chart.variables]
        a, b = (g.coeff_of_power(j, k).substitute(drop) for k in (1, 0))
        phi = [-(b / a) if n == name else source.var(n) for n in chart.variables]
        try:
            return pullback(phi, w).is_zero(), polar
        except ZeroDenominator:
            polar = True
    return False, polar


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_restriction_test_agrees_with_the_rational_pullback(p, dim):
    # g = a x_j + b, with a and b free of x_j.  w = (h dg + g eta)/s is
    # planted invariant on g = 0 when s is coprime to g, (eta + r dg)/(g s)
    # has g in its denominator, and a generic form usually does not restrict
    # to zero
    small = polys(p, max_terms=3, max_exp=2, dim=dim)
    nonzero = small.filter(lambda f: not f.is_zero())
    seen = {"invariant": 0, "polar": 0, "generic": 0, True: 0, False: 0}

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, dim - 1), nonzero, small, st.data())
    def check(j, a, b, data):
        chart = a.chart
        a, b = a.coeff_of_power(j, 0), b.coeff_of_power(j, 0)
        assume(not a.is_zero())
        g = a * MultiPoly.var(chart, chart.variables[j]) + b
        dg = d_of(RatFn.from_poly(g))
        eta = DiffForm.one_form(chart, [data.draw(small) for _ in range(dim)])
        h, r, s = data.draw(small), data.draw(small), data.draw(nonzero)
        generic = DiffForm.one_form(chart, [RatFn(data.draw(small), s) for _ in range(dim)])
        cases = {
            "invariant": (dg * RatFn.from_poly(h) + eta * RatFn.from_poly(g)) / RatFn.from_poly(s),
            "polar": (eta + dg * RatFn.from_poly(r)) / RatFn.from_poly(g * s),
            "generic": generic,
        }
        for kind, w in cases.items():
            expected, polar = rational_restriction(g, w)
            assert _restriction_vanishes(g, _cleared(w)) is expected
            seen[kind] += kind != "polar" or polar
            seen[expected] += 1
            if kind == "invariant" and poly_gcd(g, s).is_constant():
                # w is regular along the graph, and h dg + g eta restricts to 0
                assert expected

    check()
    assert seen["invariant"] and seen["polar"] and seen["generic"]
    assert seen[True] and seen[False]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_sieve_skips_pth_power_parts(p):
    # F = q^p / a or a / q^p is an integrating factor of dg / F; the sieve
    # of a p-th power part returns only multiplicities divisible by p, so
    # skipping it must leave the filtered full sieve unchanged
    small = polys(p, max_terms=3, max_exp=2)
    nonzero = small.filter(lambda f: not f.is_constant())
    pth_parts = 0

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(nonzero, nonzero, small.filter(lambda f: not f.is_zero()), st.booleans())
    def check(q, a, g, flip):
        nonlocal pth_parts
        factor = RatFn(q**p, a)
        if flip:
            factor = factor.inv()
        chart = factor.chart
        parts = (factor.num, factor.den)
        flat = [all(f.diff(v).is_zero() for v in range(chart.dim)) for f in parts]
        assume(not all(flat))
        w = d_of(RatFn.from_poly(g) + chart.var("x")) * factor.inv()
        expected = [h for f in parts for h, m in squarefree_decomposition(f) if m % p]
        assert [h for h, _ in invariant_hypersurface_candidates(factor, w)] == expected
        pth_parts += any(flat[i] and not parts[i].is_constant() for i in range(2))

    check()
    assert pth_parts


class TestCandidates:
    def test_worked_candidates_char_two(self) -> None:
        chart = plane(2)
        w = worked_form(chart)
        f = integrating_factor(w, fs=[chart.var("y")])
        candidates = invariant_hypersurface_candidates(f, w)
        assert candidates == [(MultiPoly.var(chart, "x"), True)]

    def test_multiplicity_divisible_by_p_excluded(self) -> None:
        chart = plane(3)
        x = chart.var("x")
        y = chart.var("y")
        w = DiffForm.coordinate(chart, "x") * (x ** 3 * y)
        f = (x ** 3 * y).inv()
        candidates = invariant_hypersurface_candidates(f, w)
        assert candidates == [(MultiPoly.var(chart, "y"), True)]

    def test_numerator_factors_are_sieved(self) -> None:
        chart = plane(3)
        x = chart.var("x")
        y = chart.var("y")
        f = x ** 3 * y
        w = DiffForm.coordinate(chart, "x") * f.inv()
        candidates = invariant_hypersurface_candidates(f, w)
        assert len(candidates) == 1
        factor, verified = candidates[0]
        assert factor == MultiPoly.var(chart, "y")
        assert verified is False

    def test_nonlinear_factor_reported_unverified(self) -> None:
        chart = plane(5)
        x = chart.var("x")
        y = chart.var("y")
        g = x * x + y * y + 1
        w = DiffForm.coordinate(chart, "x") * g
        candidates = invariant_hypersurface_candidates(g.inv(), w)
        assert len(candidates) == 1
        factor, verified = candidates[0]
        assert RatFn.from_poly(factor) == g
        assert verified is False

    def test_graph_substitution_with_rational_solve(self) -> None:
        chart = plane(2)
        x = chart.var("x")
        y = chart.var("y")
        w = DiffForm.one_form(chart, [y, x])
        f = x * y + 1
        assert ext_d(w * f).is_zero()
        candidates = invariant_hypersurface_candidates(f, w)
        assert len(candidates) == 1
        factor, verified = candidates[0]
        assert RatFn.from_poly(factor) == f
        assert verified is True

    def test_pth_power_factor_rejected(self) -> None:
        chart = plane(2)
        y = chart.var("y")
        f = (y + 1) ** 2
        w = DiffForm.coordinate(chart, "x") * f.inv()
        with pytest.raises(GvError, match="p-th power"):
            invariant_hypersurface_candidates(f, w)

    def test_non_factor_rejected(self) -> None:
        chart = plane(2)
        y = chart.var("y")
        with pytest.raises(GvError, match="not an integrating factor"):
            invariant_hypersurface_candidates(y, worked_form(chart))

    def test_characteristic_zero_rejected(self) -> None:
        chart = Chart(("x", "y"), 0)
        with pytest.raises(GvError):
            invariant_hypersurface_candidates(chart.var("x"), worked_form(chart))

    def test_zero_function_rejected(self) -> None:
        # d(0*w) = 0 for every w, so the closedness certificate would pass
        for p in (2, 3):
            chart = plane(p)
            with pytest.raises(ZeroFunction):
                invariant_hypersurface_candidates(chart.zero(), worked_form(chart))


class TestBatch:
    def test_identical_seeds_reproduce_records(self) -> None:
        a = batch_integrating_factors(2, 12, seed=9)
        b = batch_integrating_factors(2, 12, seed=9)
        assert a == b
        assert json.dumps(a) == json.dumps(b)

    def test_outcome_contract_all_primes(self) -> None:
        for p in (2, 3, 5, 7):
            records = batch_integrating_factors(p, 8, seed=p)
            assert [r["instance"] for r in records] == list(range(8))
            for rec in records:
                assert rec["outcome"] in {"factor-found", "p-closed"}
                assert "form" in rec["certificate"]
                if rec["outcome"] == "factor-found":
                    assert rec["certificate"]["closed"] is True
                    assert rec["certificate"]["factor"]
                else:
                    assert "reason" in rec["certificate"]
                json.dumps(rec)

    def test_both_outcomes_occur(self) -> None:
        records = batch_integrating_factors(2, 40, seed=3)
        outcomes = {r["outcome"] for r in records}
        assert outcomes == {"factor-found", "p-closed"}
