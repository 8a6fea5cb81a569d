"""Bad arguments at the public entry points raise typed errors.

Each call below once escaped as a TypeError, AttributeError or ValueError
from deep inside the library, or (`diff(-1)`) returned a wrong answer;
every one must now raise a `GvError` subclass.
"""

from __future__ import annotations

import pytest

from gvcalc import (
    Chart,
    DiffForm,
    GVSequence,
    GvError,
    MultiPoly,
    RatFn,
    VectorField,
    batch_integrating_factors,
    exact_div,
    ext_d,
    finite_gv_classify,
    form_apply,
    gv_invariant,
    poly_gcd,
    poly_str,
    pullback,
    rf_normalize,
    squarefree_decomposition,
    vf_pth_power,
    wedge,
)

Q = Chart(("x", "y"))
F3 = Chart(("x", "y"), 3)
X = MultiPoly.var(Q, "x")
XF = Q.var("x")
DX = DiffForm.coordinate(Q, "x")
FIELD3 = VectorField(F3, [F3.var("x"), F3.one()])

BAD_CALLS = {
    "RatFn(1, 2)": lambda: RatFn(1, 2),
    "RatFn(x, None)": lambda: RatFn(X, None),
    "rf_normalize(x, 3)": lambda: rf_normalize(X, 3),
    "poly_gcd(1, x)": lambda: poly_gcd(1, X),
    "exact_div(x, 2)": lambda: exact_div(X, 2),
    "squarefree_decomposition(None)": lambda: squarefree_decomposition(None),
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
}


@pytest.mark.parametrize("call", BAD_CALLS.values(), ids=list(BAD_CALLS))
def test_bad_argument_raises_a_typed_error(call):
    with pytest.raises(GvError):
        call()


def test_a_negative_variable_index_is_not_a_variable():
    """x.diff(-1) once read the packed degree field and returned x itself."""
    for f in (X, XF, F3.var("x")):
        with pytest.raises(GvError, match="no variable -1"):
            f.diff(-1)
