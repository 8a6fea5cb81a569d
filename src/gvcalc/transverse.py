r"""Transverse structures of codimension one: projective triples and their moves.

A projective structure transverse to a foliation is carried by a triple of
1-forms (w0, w1, w2) with w0 defining the foliation.  Packing them into
Omega = dz + w0 + z*w1 + z^2*w2 on the product with a line, integrability
Omega /\ dOmega = 0 is equivalent to

    d w0 = w0 /\ w1,    d w1 = 2 w0 /\ w2,    d w2 = w1 /\ w2.

This is the FULL convention.  The HALF convention packs the last slot as
z^2/2 * w2 instead, which turns the middle relation into d w1 = w0 /\ w2
and leaves the outer two unchanged; the two conventions exchange under
w2 -> w2/2 (half to full) and w2 -> 2*w2 (full to half).  Every triple
carries its convention tag explicitly and all operations respect it.

A HALF triple is the factorial-weighted sequence [w0, w1, w2] of
`zseries.FormalOmega` cut off at length 3, and its three relations are that
sequence's structure defects of orders 0, 1 and 2; `triple_verify` checks
them there.

Degenerate tails recover the shorter structures: w2 = 0 leaves a
transversely affine pair (d w0 = w0 /\ w1, d w1 = 0 whenever the triple
relations hold), and w1 = w2 = 0 leaves a closed defining form, the
transversely euclidean case.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import GaugeBreaksRelations, GvError, ZeroFunction, _require
from .exterior import DiffForm, _require_one_forms, ext_d, pullback, wedge
from .field import Chart, RatFn, as_ratfn
from .zseries import FormalOmega, structure_defect

__all__ = [
    "Triple",
    "TripleReport",
    "triple_verify",
    "classify_structure",
    "triple_gauge",
    "triple_gauge_regular",
    "riccati_triple",
    "suspension_form",
]

HALF = "half"
FULL = "full"


@dataclass(frozen=True)
class Triple:
    """A projective triple with an explicit convention tag."""

    w0: DiffForm
    w1: DiffForm
    w2: DiffForm
    convention: str = FULL

    def __post_init__(self) -> None:
        if self.convention not in (HALF, FULL):
            raise GvError(f"unknown convention {self.convention!r}")
        chart = _require_one_forms("Triple", *self.forms)
        if chart.characteristic != 0:
            raise GvError("projective triples require characteristic zero")
        if self.w0.is_zero():
            raise GvError("the defining form w0 must be nonzero")

    @property
    def chart(self) -> Chart:
        return self.w0.chart

    @property
    def forms(self) -> tuple[DiffForm, DiffForm, DiffForm]:
        return (self.w0, self.w1, self.w2)

    def converted(self, convention: str) -> "Triple":
        """The same structure expressed in the other convention (`Triple` checks its name)."""
        if convention == self.convention:
            return self
        if convention == FULL:
            w2 = self.w2 * Fraction(1, 2)
        else:
            w2 = self.w2 * 2
        return Triple(self.w0, self.w1, w2, convention)

    def __str__(self) -> str:
        return f"triple {self.convention} ({self.w0}, {self.w1}, {self.w2})"


@dataclass(frozen=True)
class TripleReport:
    """Per-relation defects of a triple; all zero means the triple verifies."""

    convention: str
    defects: tuple[DiffForm, DiffForm, DiffForm]

    @property
    def ok(self) -> bool:
        return all(d.is_zero() for d in self.defects)


def triple_verify(t: Triple) -> TripleReport:
    """Check the three structure relations under the triple's convention.

    The middle relation carries the convention constant: d w1 = c w0 /\\ w2
    with c = 2 for FULL and c = 1 for HALF.  The relations are the defects
    of orders 0, 1, 2 of the HALF sequence [w0, w1, w2]; a FULL triple is
    checked as [w0, w1, 2 w2], whose order-2 defect is twice its own, so
    that one is halved.  The report lists one defect 2-form per relation.
    """
    _require(Triple, "triple_verify", t)
    om = FormalOmega(t.chart, t.converted(HALF).forms)
    d0, d1, d2 = (structure_defect(om, k) for k in range(3))
    if t.convention == FULL:
        d2 = d2 * Fraction(1, 2)
    return TripleReport(t.convention, (d0, d1, d2))


def classify_structure(
    w0: DiffForm,
    w1: Optional[DiffForm] = None,
    w2: Optional[DiffForm] = None,
) -> str:
    """Name the transverse structure certified by the supplied forms.

    Returns "euclidean" when w0 is closed, "affine" when (w0, w1) satisfies
    the affine pair relations, "projective" when the triple verifies under
    either convention, and "none" otherwise.  This classifies the given
    certificate only; it is not a decision procedure for the foliation.
    A w2 without a w1 raises GvError.
    """
    if w1 is None and w2 is not None:
        raise GvError("classify_structure: w2 is given without w1")
    _require_one_forms("classify_structure", w0, *(w for w in (w1, w2) if w is not None))
    if w0.is_zero():
        raise ZeroFunction("w0 must be nonzero")
    if ext_d(w0).is_zero():
        return "euclidean"
    if w1 is not None:
        if ext_d(w0) == wedge(w0, w1) and ext_d(w1).is_zero():
            return "affine"
        if w2 is not None:
            for convention in (FULL, HALF):
                if triple_verify(Triple(w0, w1, w2, convention)).ok:
                    return "projective"
    return "none"


def _gauge_check(t: Triple, stage: str) -> None:
    if not triple_verify(t).ok:
        raise GaugeBreaksRelations(
            f"the {stage} triple does not satisfy the structure relations "
            f"of its tagged convention {t.convention!r}"
        )


def triple_gauge_regular(t: Triple, f0, f1) -> Triple:
    """Gauge by the trivializing change z -> f0*z / (1 + f1*z).

    In the FULL convention the new triple is

        (f0 w0,  w1 - 2 f1 w0 - df0/f0,  (w2 - f1 w1 + f1^2 w0 + df1)/f0);

    a HALF triple is converted, gauged, and converted back, which is the
    same formula with the f1-dependent terms of the last slot doubled.
    The input must verify under its tagged convention (a gauge applied to
    a mis-tagged triple would silently rescale the wrong structure), and
    the output is re-verified; both failures raise GaugeBreaksRelations.
    """
    _require(Triple, "triple_gauge_regular", t)
    chart = t.chart
    f0 = as_ratfn(chart, f0)
    f1 = as_ratfn(chart, f1)
    if f0.is_zero():
        raise ZeroFunction("the scaling part f0 of a gauge must be nonzero")
    _gauge_check(t, "input")
    base = t.converted(FULL)
    w0 = base.w0 * f0
    w1 = base.w1 - base.w0 * (2 * f1) - ext_d(f0) / f0
    w2 = (base.w2 - base.w1 * f1 + base.w0 * (f1 * f1) + ext_d(f1)) / f0
    out = Triple(w0, w1, w2, FULL).converted(t.convention)
    _gauge_check(out, "output")
    return out


def triple_gauge(t: Triple, kind: str, fn) -> Triple:
    """Apply one of the two elementary gauge moves.

    kind "F" rescales the defining form: (w0/f, w1 + df/f, f w2), the same
    in both conventions.  kind "G" moves the section at infinity; it is the
    regular gauge with data (1, -g), which in the FULL convention reads

        (w0,  w1 + 2 g w0,  w2 + g w1 + g^2 w0 - dg).
    """
    _require(Triple, "triple_gauge", t)
    _require(str, "triple_gauge", kind)
    kind = kind.upper()
    if kind == "F":
        f = as_ratfn(t.chart, fn)
        if f.is_zero():
            raise ZeroFunction("the F-move needs a nonzero function")
        return triple_gauge_regular(t, f.inv(), 0)
    if kind == "G":
        g = as_ratfn(t.chart, fn)
        return triple_gauge_regular(t, 1, -g)
    raise GvError(f"unknown gauge move {kind!r}; expected 'F' or 'G'")


def _with_fiber(chart: Chart, name: str) -> tuple[Chart, list[RatFn]]:
    """Extend a chart by a fresh fiber variable.

    Returns the product chart and the projection map (as target-coordinate
    functions on it) used to lift forms from the base.
    """
    fiber = name
    k = 0
    while fiber in chart.variables:
        fiber = f"{name}{k}"
        k += 1
    product = chart.extend(fiber)
    proj = [product.var(v) for v in chart.variables]
    return product, proj


def riccati_triple(
    alpha: DiffForm, beta: DiffForm, gamma: DiffForm, fiber: str = "z"
) -> Triple:
    """The projective triple of dz + alpha + beta z + gamma z^2 = 0.

    The input forms live on a base chart; the output lives on the product
    chart with one extra fiber variable and satisfies the FULL relations.
    When gamma = 0 the pair (w0, w1) is already a transversely affine
    certificate.
    """
    chart = _require_one_forms("riccati_triple", alpha, beta, gamma)
    product, proj = _with_fiber(chart, fiber)
    a = pullback(proj, alpha)
    b = pullback(proj, beta)
    c = pullback(proj, gamma)
    z = product.var(product.variables[-1])
    dz = DiffForm.coordinate(product, product.variables[-1])
    w0 = dz + a + b * z + c * (z * z)
    w1 = b + c * (2 * z)
    w2 = c
    out = Triple(w0, w1, w2, FULL)
    report = triple_verify(out)
    if not report.ok:
        raise GvError("riccati triple failed its own structure relations")
    return out


def suspension_form(t: Triple) -> FormalOmega:
    """The suspension Omega = dz + w0 + z w1 + z^2 w2 of a triple.

    Works in the FULL convention and returns the formal series with
    factorial weights, so the stored coefficients are [w0, w1, 2 w2], the
    HALF triple.  Omega /\\ dOmega = 0 exactly when the triple relations
    hold, so a triple that fails `triple_verify` raises GvError.
    """
    if not triple_verify(t).ok:
        raise GvError(
            "the suspension is not integrable; the triple relations fail"
        )
    return FormalOmega(t.chart, t.converted(HALF).forms)
