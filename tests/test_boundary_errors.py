"""Bad arguments at the public entry points raise typed errors.

Each call below once escaped as a TypeError, AttributeError or ValueError
from deep inside the library, or (`diff(-1)`, a bool taken as an order,
index or seed, and a seed of None, which seeds from the OS) returned a
wrong answer; every one must now raise a `GvError` subclass.

The second half drives the whole boundary from the `SIGNATURES` table of
tests/test_public_api.py: every public callable gets one valid call, and then
each of its parameters in turn gets None, a str, a float, a `RatFn` on
another chart and a 2-form, which must raise a `GvError` subclass too.
"""

from __future__ import annotations

import inspect
from enum import IntEnum

import pytest

import gvcalc

from gvcalc import (
    Chart,
    DiffForm,
    GVSequence,
    GvError,
    MultiPoly,
    RatFn,
    VectorField,
    as_ratfn,
    batch_integrating_factors,
    classify_structure,
    d_of,
    dual_frame,
    exact_div,
    ext_d,
    finite_gv_classify,
    finite_gv_pullback,
    flag_decompose,
    flag_forms,
    form_ratio,
    FormalOmega,
    Substitution,
    Triple,
    form_apply,
    form_str,
    gv_from_field,
    gv_invariant,
    gv_rescale,
    gv_shift,
    gv_verify,
    integrating_factor,
    invariant_hypersurface_candidates,
    is_integrable,
    lie_derivative,
    poly_gcd,
    poly_str,
    pullback,
    rf_normalize,
    riccati_triple,
    same_foliation,
    squarefree_decomposition,
    structure_defect,
    structure_defects,
    substitute_series,
    suspension_form,
    triple_gauge,
    triple_gauge_regular,
    triple_verify,
    vf_pth_power,
    wedge,
    wedge_all,
)
from gvcalc.zseries import compose_substitutions, from_extended_form, is_formal_integrable
from gvcalc.zseries import to_extended_form
from test_public_api import SIGNATURES  # every public name, None for an error class

Q = Chart(("x", "y"))
F3 = Chart(("x", "y"), 3)
X = MultiPoly.var(Q, "x")
XF = Q.var("x")
DX = DiffForm.coordinate(Q, "x")
FIELD3 = VectorField(F3, [F3.var("x"), F3.one()])
DX3 = DiffForm.coordinate(F3, "x")
OM = FormalOmega(Q, [DX])
SUB = Substitution.normalized(Q, [1])
SEQ = GVSequence([DX])
U = Q.var("y")
TRIPLE = Triple(DX, DiffForm.zero(Q, 1), DiffForm.zero(Q, 1))
CURVE = Chart(("u", "z"))
DU, DZ, Z = DiffForm.coordinate(CURVE, "u"), DiffForm.coordinate(CURVE, "z"), CURVE.var("z")
# the curve ODE dz + z^3 du, declared finite of length 4
CUBIC = GVSequence([DZ + DU * Z**3, DU * (3 * Z**2), DU * (6 * Z), DU * 6], 4)

BAD_CALLS = {
    "RatFn(1, 2)": lambda: RatFn(1, 2),
    "RatFn(x, None)": lambda: RatFn(X, None),
    "rf_normalize(x, 3)": lambda: rf_normalize(X, 3),
    "poly_gcd(1, x)": lambda: poly_gcd(1, X),
    "exact_div(x, 2)": lambda: exact_div(X, 2),
    "squarefree_decomposition(None)": lambda: squarefree_decomposition(None),
    "MultiPoly.var(None, 'x')": lambda: MultiPoly.var(None, "x"),
    "MultiPoly.const(None, 1)": lambda: MultiPoly.const(None, 1),
    "MultiPoly.zero(None)": lambda: MultiPoly.zero(None),
    "MultiPoly.monomial(None, (1, 0))": lambda: MultiPoly.monomial(None, (1, 0)),
    # a bool exponent once built x
    "MultiPoly(chart, {(True, 0): 1})": lambda: MultiPoly(Q, {(True, 0): 1}),
    "RatFn.from_poly(None)": lambda: RatFn.from_poly(None),
    "poly_str(None)": lambda: poly_str(None),
    "GVSequence(dx)": lambda: GVSequence(DX),
    "GVSequence(None)": lambda: GVSequence(None),
    "DiffForm(chart, '1', {})": lambda: DiffForm(Q, "1", {}),
    "vf_pth_power(X, '2')": lambda: vf_pth_power(FIELD3, "2"),
    "batch_integrating_factors(2, '3', 1)": lambda: batch_integrating_factors(2, "3", 1),
    "finite_gv_classify(None)": lambda: finite_gv_classify(None),
    "gv_invariant(None)": lambda: gv_invariant(None),
    "wedge(dx, 1)": lambda: wedge(DX, 1),
    "ext_d(1)": lambda: ext_d(1),
    "ext_d(None)": lambda: ext_d(None),
    "form_apply(dx, None)": lambda: form_apply(DX, None),
    "pullback([x, 1], dx)": lambda: pullback([XF, 1], DX),
    "x ** 1.5": lambda: XF**1.5,
    "MultiPoly x ** 1.5": lambda: X**1.5,
    "DiffForm.coeff(None)": lambda: DX.coeff(None),
    "VectorField.apply(5)": lambda: FIELD3.apply(5),
    "MultiPoly x.diff(-1)": lambda: X.diff(-1),
    "MultiPoly x.diff(5)": lambda: X.diff(5),
    "x.diff(-1)": lambda: XF.diff(-1),
    "x.diff(5)": lambda: XF.diff(5),
    "substitute_series(None, sub)": lambda: substitute_series(None, SUB),
    "substitute_series(om, None)": lambda: substitute_series(OM, None),
    "substitute_series(om, sub, True)": lambda: substitute_series(OM, SUB, True),
    "Substitution(None, [0, 1])": lambda: Substitution(None, [0, 1]),
    "Substitution(chart, None)": lambda: Substitution(Q, None),
    "Substitution.normalized(chart, 5)": lambda: Substitution.normalized(Q, 5),
    "structure_defects(None)": lambda: structure_defects(None),
    "structure_defect(None, 0)": lambda: structure_defect(None, 0),
    "structure_defect(om, True)": lambda: structure_defect(OM, True),
    "is_formal_integrable(None)": lambda: is_formal_integrable(None),
    "to_extended_form(None)": lambda: to_extended_form(None),
    "compose_substitutions(None, r)": lambda: compose_substitutions(None, SUB),
    "gv_verify(None)": lambda: gv_verify(None),
    "gv_shift(None, u)": lambda: gv_shift(None, U),
    "gv_shift(s, u, True)": lambda: gv_shift(SEQ, U, True),
    "gv_rescale(None, u)": lambda: gv_rescale(None, U),
    "riccati_triple(None, None, None)": lambda: riccati_triple(None, None, None),
    "suspension_form(None)": lambda: suspension_form(None),
    "triple_gauge(None, 'G', 1)": lambda: triple_gauge(None, "G", 1),
    "triple_gauge(t, None, 1)": lambda: triple_gauge(TRIPLE, None, 1),
    "triple_gauge_regular(None, 1, 0)": lambda: triple_gauge_regular(None, 1, 0),
    "triple_verify(None)": lambda: triple_verify(None),
    "gv_from_field(dx, X, True)": lambda: gv_from_field(DX, VectorField.coordinate(Q, "x"), True),
    "FormalOmega.omega(True)": lambda: OM.omega(True),
    "GVSequence.omega(True)": lambda: CUBIC.omega(True),
    "GVSequence(forms, True)": lambda: GVSequence([DX], True),
    "finite_gv_pullback(s, u, True)": lambda: finite_gv_pullback(CUBIC, CURVE.var("u"), True),
    "finite_gv_pullback(None, 1, 2)": lambda: finite_gv_pullback(None, 1, 2),
    "form_ratio(None, dx)": lambda: form_ratio(None, DX),
    "form_ratio(dx, None)": lambda: form_ratio(DX, None),
    "form_ratio(dx, 5)": lambda: form_ratio(DX, 5),
    "same_foliation(None, dx)": lambda: same_foliation(None, DX),
    "same_foliation(dx, None)": lambda: same_foliation(DX, None),
    "is_integrable(None)": lambda: is_integrable(None),
    "flag_forms(None)": lambda: flag_forms(None),
    "flag_decompose(None)": lambda: flag_decompose(None),
    "dual_frame(None)": lambda: dual_frame(None),
    "dual_frame(w, 5)": lambda: dual_frame(DX3, 5),
    "integrating_factor(None)": lambda: integrating_factor(None),
    "integrating_factor(w, 5)": lambda: integrating_factor(DX3, 5),
    "invariant_hypersurface_candidates(None, w)": lambda: invariant_hypersurface_candidates(None, DX3),
    "invariant_hypersurface_candidates(f, None)": lambda: invariant_hypersurface_candidates(F3.one(), None),
    "batch_integrating_factors(3, 1, 1, None)": lambda: batch_integrating_factors(3, 1, 1, None),
    "batch_integrating_factors(3, 1, None)": lambda: batch_integrating_factors(3, 1, None),
    "batch_integrating_factors(3, 1, True)": lambda: batch_integrating_factors(3, 1, True),
    "batch_integrating_factors(0, 1, 1)": lambda: batch_integrating_factors(0, 1, 1),
    "gv_from_field(None, X, 2)": lambda: gv_from_field(None, FIELD3, 2),
    "lie_derivative(X, None)": lambda: lie_derivative(FIELD3, None),
    "VectorField(None, [1, 2])": lambda: VectorField(None, [1, 2]),
    "VectorField(chart, None)": lambda: VectorField(Q, None),
    "DiffForm(None, 1, {})": lambda: DiffForm(None, 1, {}),
    "DiffForm(chart, 1, None)": lambda: DiffForm(Q, 1, None),
    "DiffForm(chart, 1, {0: 1})": lambda: DiffForm(Q, 1, {0: 1}),
    "DiffForm(chart, 1, {('x',): 1})": lambda: DiffForm(Q, 1, {("x",): 1}),
    "DiffForm.one_form(chart, None)": lambda: DiffForm.one_form(Q, None),
    "DiffForm.one_form(None, [1, 2])": lambda: DiffForm.one_form(None, [1, 2]),
    "DiffForm.zero(None, 1)": lambda: DiffForm.zero(None, 1),
    "DiffForm.from_function(None)": lambda: DiffForm.from_function(None),
    "DiffForm.coordinate(None, 'x')": lambda: DiffForm.coordinate(None, "x"),
    "form_str(None)": lambda: form_str(None),
    "VectorField.bracket(None)": lambda: FIELD3.bracket(None),
    "VectorField.coordinate(None, 'x')": lambda: VectorField.coordinate(None, "x"),
    "flag_decompose(s, 'x')": lambda: flag_decompose(CUBIC, "x"),
    # a 2-form and a str as w1/w2 once classified as "none" and "euclidean"
    "classify_structure(dz + z du, du^dz)": lambda: classify_structure(DZ + DU * Z, wedge(DU, DZ)),
    "classify_structure(dz, 'x')": lambda: classify_structure(DZ, "x"),
    # a w2 without a w1 was ignored, which classified as "none"
    "classify_structure(dz + z du, None, du)": lambda: classify_structure(DZ + DU * Z, None, DU),
    # bool is refused wherever an int is taken
    "x ** True": lambda: XF**True,
    "MultiPoly x ** True": lambda: X**True,
    "x.diff(True)": lambda: XF.diff(True),
    "DiffForm(chart, True, {})": lambda: DiffForm(Q, True, {}),
    "DiffForm(chart, 1, {(True,): 1})": lambda: DiffForm(Q, 1, {(True,): 1}),
    "vf_pth_power(X, True)": lambda: vf_pth_power(FIELD3, True),
    "Chart(('x',), True)": lambda: Chart(("x",), True),
    "batch_integrating_factors(3, True, 1)": lambda: batch_integrating_factors(3, True, 1),
    # a bool coefficient was the scalar 1: the constant 1, and the polynomial x
    "as_ratfn(chart, True)": lambda: as_ratfn(Q, True),
    "MultiPoly(chart, {(1, 0): True})": lambda: MultiPoly(Q, {(1, 0): True}),
    # a one-entry product returned the entry itself, and a float escaped
    "wedge_all([5])": lambda: wedge_all([5]),
    "wedge_all(1.5)": lambda: wedge_all(1.5),
    "d_of(dx^dy)": lambda: d_of(wedge(DX, DiffForm.coordinate(Q, "y"))),
    "FormalOmega(chart, 1.5)": lambda: FormalOmega(Q, 1.5),
    "from_extended_form(None)": lambda: from_extended_form(None),
    "as_ratfn(None, 1)": lambda: as_ratfn(None, 1),
    "MultiPoly x.substitute(None)": lambda: X.substitute(None),
    "MultiPoly x.substitute([1, 2])": lambda: X.substitute([1, 2]),
    "x.substitute(None)": lambda: XF.substitute(None),
    "x.substitute([1, 2])": lambda: XF.substitute([1, 2]),
    "MultiPoly(chart, {5: 1})": lambda: MultiPoly(Q, {5: 1}),
    "MultiPoly.monomial(chart, None)": lambda: MultiPoly.monomial(Q, None),
    "x.degree_in(5)": lambda: X.degree_in(5),
    "x.degree_in(1.5)": lambda: X.degree_in(1.5),
    "x.coeff_of_power(5, 0)": lambda: X.coeff_of_power(5, 0),
    "x.coeff_of_power(0, -1)": lambda: X.coeff_of_power(0, -1),
    "x.coeff_of_power(0, True)": lambda: X.coeff_of_power(0, True),
}


@pytest.mark.parametrize("call", BAD_CALLS.values(), ids=list(BAD_CALLS))
def test_bad_argument_raises_a_typed_error(call):
    with pytest.raises(GvError):
        call()


@pytest.mark.parametrize(
    "name, call",
    [
        ("suspension_form", "suspension_form(None)"),
        ("finite_gv_classify", "finite_gv_classify(None)"),
        ("finite_gv_pullback", "finite_gv_pullback(None, 1, 2)"),
    ],
)
def test_a_wrong_type_is_reported_by_the_function_called(name, call):
    # these once reported the check they delegate to (`triple_verify`,
    # `finite_gv_verify`) instead of their own name
    with pytest.raises(GvError, match=name):
        BAD_CALLS[call]()


class Order(IntEnum):
    ONE = 1
    TWO = 2


class P(IntEnum):
    THREE = 3


def test_an_int_subclass_other_than_bool_is_an_order():
    """Only bool is refused among the int subclasses; the others act as the
    plain int, and a stored one is a plain int."""
    assert substitute_series(OM, SUB, Order.TWO).length == 3
    assert structure_defect(OM, Order.TWO).is_zero()
    assert gv_shift(SEQ, U, Order.TWO) == gv_shift(SEQ, U, 2)
    assert OM.omega(Order.TWO).is_zero()
    assert CUBIC.omega(Order.TWO) == DU * (6 * Z)
    declared = GVSequence([DX], Order.ONE).declared_length
    assert declared == 1 and type(declared) is int
    assert finite_gv_pullback(CUBIC, CURVE.var("u"), Order.ONE).ramification == 2
    # each of these refused every int subclass
    assert XF ** Order.TWO == XF**2 and X ** Order.TWO == X**2
    assert XF.diff(Order.ONE) == XF.diff(1) and X.diff(Order.ONE) == X.diff(1)
    form = DiffForm(Q, Order.ONE, {})
    assert form == DiffForm(Q, 1, {}) and type(form.degree) is int
    form = DiffForm(Q, 1, {(Order.ONE,): 1})
    assert form == DiffForm.coordinate(Q, "y") and type(next(iter(form.terms))[0]) is int
    assert vf_pth_power(FIELD3, P.THREE) == vf_pth_power(FIELD3, 3)
    chart = Chart(("x",), P.THREE)
    assert chart == Chart(("x",), 3) and type(chart.characteristic) is int
    assert batch_integrating_factors(P.THREE, Order.TWO, Order.ONE, degree=Order.ONE) == (
        batch_integrating_factors(3, 2, 1, degree=1)
    )


def test_a_negative_variable_index_is_not_a_variable():
    """x.diff(-1) once read the packed degree field and returned x itself;
    x.degree_in(-1) read it as degree 1, and x.coeff_of_power(-1, 0) as 0."""
    for f in (X, XF, F3.var("x")):
        with pytest.raises(GvError, match="no variable -1"):
            f.diff(-1)
    for f in (X, MultiPoly.var(F3, "x")):
        with pytest.raises(GvError, match="no variable -1"):
            f.degree_in(-1)
        with pytest.raises(GvError, match="no variable -1"):
            f.coeff_of_power(-1, 0)
        # a variable may be named, as in diff
        assert f.degree_in("x") == f.degree_in(0) == 1
        assert f.coeff_of_power("x", 1) == f.coeff_of_power(0, 1) == MultiPoly.const(f.chart, 1)


# -- the whole boundary, driven by the public API table ---------------------

# frozen records built by the library, which validate nothing
REPORTS = {
    "TripleReport",
    "DefectReport",
    "FlagReport",
    "FiniteGVReport",
    "AffineCertificate",
    "ClosedKernelWitness",
    "Inconclusive",
    "PullbackReport",
    "DualFrame",
}

ONE = MultiPoly.const(Q, 1)
DY = DiffForm.coordinate(Q, "y")
ZERO1 = DiffForm.zero(Q, 1)
VX = VectorField.coordinate(Q, "x")
W3 = DiffForm.one_form(F3, [1, F3.var("x")])  # dx + x dy, with factor 2/x over F_3
FS3 = [F3.var("y")]

# one valid call per public callable, every parameter given
VALID_ARGS = {
    "Chart": (("x", "y"), 0),
    "MultiPoly": (Q, {(1, 0): 1}),
    "RatFn": (X, ONE),
    "as_ratfn": (Q, 1),
    "exact_div": (X, X),
    "poly_gcd": (X, X),
    "poly_str": (X,),
    "rf_normalize": (X, ONE),
    "squarefree_decomposition": (X,),
    "DiffForm": (Q, 1, {(0,): 1}),
    "VectorField": (Q, [1, 0]),
    "wedge": (DX, DY),
    "wedge_all": ([DX, DY],),
    "ext_d": (XF,),
    "d_of": (XF,),
    "interior": (VX, DX),
    "form_apply": (DX, VX),
    "lie_derivative": (VX, DX),
    "is_integrable": (DX,),
    "same_foliation": (DX, DX),
    "pullback": ([XF, U], DX),
    "form_str": (DX,),
    "FormalOmega": (Q, [DX]),
    "Substitution": (Q, [0, 1]),
    "structure_defect": (OM, 0),
    "structure_defects": (OM,),
    "substitute_series": (OM, SUB, 2),
    "Triple": (DX, ZERO1, ZERO1, "full"),
    "triple_verify": (TRIPLE,),
    "classify_structure": (DX, ZERO1, ZERO1),
    "triple_gauge": (TRIPLE, "G", 1),
    "triple_gauge_regular": (TRIPLE, 1, 0),
    "riccati_triple": (DX, ZERO1, ZERO1, "z"),
    "suspension_form": (TRIPLE,),
    "GVSequence": ([DX], 1),
    "gv_from_field": (DX, VX, 2),
    "gv_verify": (SEQ,),
    "gv_rescale": (SEQ, 2),
    "gv_shift": (SEQ, U, 1),
    "flag_forms": (CUBIC,),
    "flag_decompose": (CUBIC, flag_forms(CUBIC)),
    "gv_invariant": (CUBIC,),
    "finite_gv_verify": (CUBIC,),
    "finite_gv_classify": (CUBIC,),
    "finite_gv_pullback": (CUBIC, CURVE.var("u"), 1),
    "form_ratio": (DX, DX),
    "dual_frame": (W3, FS3),
    "vf_pth_power": (FIELD3, 3),
    "integrating_factor": (W3, FS3),
    "invariant_hypersurface_candidates": (F3.const(2) / F3.var("x"), W3),
    "batch_integrating_factors": (3, 1, 1, ("x", "y"), 1),
}

WRONG = {
    "None": None,
    "str": "?",
    "float": 1.5,
    "other chart": Chart(("u", "v", "w")).var("u"),
    "2-form": wedge(DX, DY),
}

# (callable, parameter): the wrong kinds that parameter accepts, since any
# function is differentiated and a form of any degree is wedged, contracted,
# pulled back, differentiated and printed
ACCEPTED = {
    ("ext_d", "a"): {"other chart", "2-form"},
    ("d_of", "f"): {"other chart"},
    ("wedge", "a"): {"2-form"},
    ("wedge", "b"): {"2-form"},
    ("interior", "a"): {"2-form"},
    ("lie_derivative", "a"): {"2-form"},
    ("pullback", "a"): {"2-form"},
    ("form_str", "a"): {"2-form"},
}

CALLABLES = [name for name, sig in SIGNATURES.items() if sig is not None and name not in REPORTS]


def test_every_public_callable_has_one_valid_call():
    assert sorted(VALID_ARGS) == sorted(CALLABLES)
    for name, args in VALID_ARGS.items():
        getattr(gvcalc, name)(*args)


def _wrong_calls():
    for name in CALLABLES:
        params = list(inspect.signature(getattr(gvcalc, name)).parameters.values())
        assert len(params) == len(VALID_ARGS[name]), name
        for i, param in enumerate(params):
            for kind, value in WRONG.items():
                if kind in ACCEPTED.get((name, param.name), ()):
                    continue
                if value is None and param.default is None:
                    continue  # the parameter's own default
                yield pytest.param(name, i, value, id=f"{name}:{param.name}={kind}")


@pytest.mark.parametrize("name, position, value", _wrong_calls())
def test_a_wrong_value_for_any_parameter_raises_a_typed_error(name, position, value):
    args = list(VALID_ARGS[name])
    args[position] = value
    with pytest.raises(GvError):
        getattr(gvcalc, name)(*args)
