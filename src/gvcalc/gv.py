r"""Godbillon-Vey sequences attached to an integrable rational 1-form.

A sequence (omega_0, omega_1, omega_2, ...) of rational 1-forms is stored
with factorial weights: it encodes the extended form

    Omega = dz + omega_0 + z*omega_1 + z^2/2*omega_2 + ... + z^k/k!*omega_k + ...

on the chart enlarged by a formal transverse coordinate z.  The sequence is
a Godbillon-Vey sequence for the foliation of omega_0 exactly when Omega is
integrable, which unfolds into one structure relation per order:

    d omega_k = sum_{j+l=k+1, l>=1} k!/(j!(l-1)!) omega_j /\ omega_l
              = sum_{0<=j<l, j+l=k+1} (C(k, j) - C(k, j-1)) omega_j /\ omega_l,

with C(k, -1) = 0: pairing omega_j /\ omega_l with omega_l /\ omega_j leaves
integer binomial weights (`zseries.structure_defect`).

This module constructs such sequences from a normalized vector field,
verifies the relations, applies the standard moves (rescaling the transverse
coordinate and the higher-order shifts), extracts the flag of closed wedge
products, and analyses sequences with finitely many nonzero entries: those
are either transversely affine, or pulled back from a first-order polynomial
ODE over a rational curve, and `finite_gv_classify` / `finite_gv_pullback`
produce the corresponding certificates with all claims re-checked exactly.

Everything here requires characteristic zero; the binomial and factorial
weights in the structure relations do not survive reduction mod p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .errors import (
    DecompositionFails,
    GcdDegenerate,
    GvError,
    NotExpressible,
    NotIntegrable,
    NotNormalized,
    ZeroFunction,
    _require,
    _require_int,
    _require_same_chart,
)
from .exterior import (
    DiffForm,
    VectorField,
    _FormSum,
    _require_one_forms,
    ext_d,
    form_apply,
    is_integrable,
    lie_derivative,
    pullback,
    same_foliation,
    wedge,
    wedge_all,
)
from .field import Chart, MultiPoly, RatFn, _as_tuple, _cleared_terms, _gauss_jordan
from .field import _power_products, as_ratfn
from .zseries import (
    FormalOmega,
    Substitution,
    _defect_orders,
    structure_defect,
    substitute_series,
)

__all__ = [
    "GVSequence",
    "DefectReport",
    "FlagReport",
    "FiniteGVReport",
    "AffineCertificate",
    "ClosedKernelWitness",
    "Inconclusive",
    "PullbackReport",
    "gv_from_field",
    "gv_verify",
    "gv_rescale",
    "gv_shift",
    "flag_forms",
    "flag_decompose",
    "gv_invariant",
    "finite_gv_verify",
    "finite_gv_classify",
    "finite_gv_pullback",
    "form_ratio",
]


# ---------------------------------------------------------------------------
# sequence container


class GVSequence(FormalOmega):
    """A `FormalOmega` whose entries define a Godbillon-Vey sequence.

    `forms` (an alias of `coeffs`) holds omega_0, omega_1, ... as 1-forms on
    a common chart of characteristic zero; the leading form must be nonzero
    since it defines the foliation.  When `declared_length` is an integer L
    the sequence is asserted to be finite: omega_k = 0 for every k >= L.  All
    potentially nonzero entries must then be stored (L <= len(forms)) and any
    stored tail past L must vanish.  Without a declaration, entries beyond the
    stored prefix are unknown rather than zero.
    """

    __slots__ = ("declared_length",)

    forms = FormalOmega.coeffs
    stored = FormalOmega.length

    def __init__(
        self,
        forms: Sequence[DiffForm],
        declared_length: Optional[int] = None,
    ) -> None:
        forms = _as_tuple(forms, "GVSequence forms")
        chart = forms[0].chart if forms and isinstance(forms[0], DiffForm) else None
        super().__init__(chart, forms)
        if chart.characteristic != 0:
            raise GvError("Godbillon-Vey sequences require characteristic zero")
        if forms[0].is_zero():
            raise GvError("the defining form omega_0 must be nonzero")
        if declared_length is not None:
            declared_length = _require_int(declared_length, "the declared length", 1)
            if declared_length > len(forms):
                raise GvError("declared length exceeds the stored entries")
            for k in range(declared_length, len(forms)):
                if not forms[k].is_zero():
                    raise GvError(
                        f"entry {k} is nonzero past the declared length"
                    )
        object.__setattr__(self, "declared_length", declared_length)

    @property
    def is_finite(self) -> bool:
        return self.declared_length is not None

    def omega(self, k: int) -> DiffForm:
        """The k-th entry; zero past a declared finite length."""
        w = super().omega(k)  # which checks k
        if k >= len(self.coeffs) and not self.is_finite:
            raise GvError(
                f"entry {k} lies beyond the stored order {len(self.coeffs) - 1}"
            )
        return w

    def order(self) -> int:
        """Index of the last nonzero entry of a declared finite sequence."""
        return self.trimmed().last_index

    def trimmed(self) -> "GVSequence":
        """Drop the zero tail of a declared finite sequence."""
        if not self.is_finite:
            raise GvError("order is only defined for declared finite sequences")
        t = super().trimmed()
        return GVSequence(t.coeffs, t.length)

    def as_formal(self) -> FormalOmega:
        return FormalOmega(self.chart, self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GVSequence):
            return NotImplemented
        return (
            self.coeffs == other.coeffs
            and self.declared_length == other.declared_length
        )

    def __hash__(self) -> int:
        return hash((self.coeffs, self.declared_length))

    def __str__(self) -> str:
        body = super().__str__()
        return body if self.declared_length is None else body[:-1] + ", 0 ...]"


# ---------------------------------------------------------------------------
# report and certificate types


@dataclass(frozen=True)
class DefectReport:
    """Structure-relation residuals of a sequence.

    `orders` lists every order that was checked and `nonzero` the pairs
    (order, residual 2-form) that failed.  For declared finite sequences the
    check covers every order that can be nonzero; otherwise only the orders
    determined by the stored prefix.
    """

    orders: tuple[int, ...]
    nonzero: tuple[tuple[int, DiffForm], ...]

    @property
    def ok(self) -> bool:
        return not self.nonzero


@dataclass(frozen=True)
class FlagReport:
    r"""The flag of wedge products of a sequence.

    `n` is the first index with omega_0 /\ ... /\ omega_n = 0, `theta` the
    last nonzero product omega_0 /\ ... /\ omega_{n-1}, and `theta_hats`
    the products omitting one factor omega_k for k = 1 .. n-1.  Every
    partial product of length >= 2 is closed for genuine sequences;
    `closed_failures` lists the lengths where that check failed.
    """

    n: int
    theta: DiffForm
    theta_hats: tuple[DiffForm, ...]
    closed_failures: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return not self.closed_failures


@dataclass(frozen=True)
class FiniteGVReport:
    r"""Verification report for a declared finite sequence of order N.

    A finite sequence is a Godbillon-Vey sequence exactly when (a) all
    wedges omega_k /\ omega_l with k, l >= 2 vanish and (b) the reduced
    relations d omega_k = omega_0 /\ omega_{k+1} + (k-1) omega_1 /\ omega_k
    hold for k = 1 .. N together with d omega_0 = omega_0 /\ omega_1.
    """

    order: int
    wedge_failures: tuple[tuple[int, int], ...]
    relation_failures: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return not self.wedge_failures and not self.relation_failures


@dataclass(frozen=True)
class AffineCertificate:
    r"""Witness that the foliation is transversely affine.

    `omega` defines the same foliation as the input and satisfies
    d omega = omega /\ eta with `eta` closed.  A vanishing `eta` means the
    defining form itself is closed (translation structure).  `branch` names
    the classification branch that produced the certificate.
    """

    omega: DiffForm
    eta: DiffForm
    branch: str


@dataclass(frozen=True)
class ClosedKernelWitness:
    r"""A nonconstant function whose differential annihilates the top form.

    `function` satisfies d(function) /\ omega_N = 0 for the last nonzero
    entry omega_N, so the foliation fibers over the rational line through
    it; `finite_gv_pullback` turns the witness into an explicit pullback.
    """

    function: RatFn
    branch: str


@dataclass(frozen=True)
class Inconclusive:
    """Defensive outcome naming the exact branch that could not conclude."""

    branch: str
    detail: str = ""


@dataclass(frozen=True)
class PullbackReport:
    """An explicit presentation as a pullback from a rational curve.

    `form` is a 1-form dz + P(u, z) du on the fresh two-variable `chart`,
    with P polynomial in both variables, and `mapping` = (phi_u, phi_z) are
    the components of a rational map into that chart.  The exact identity

        pullback(mapping, form) == cofactor * omega_0

    holds on the source chart, where omega_0 is the defining form of the
    input sequence and `cofactor` is a nonzero rational function; the
    foliation is therefore the pullback of the ODE foliation of `form`.
    `ramification` is the positive integer r entering the exponents of P.
    """

    chart: Chart
    form: DiffForm
    mapping: tuple[RatFn, RatFn]
    cofactor: RatFn
    ramification: int


# ---------------------------------------------------------------------------
# helpers


def form_ratio(a: DiffForm, b: DiffForm) -> Optional[RatFn]:
    """The rational function q with a = q*b, or None when none exists.

    `b` must be nonzero and of the same degree as `a`.  A nonzero q keeps
    every coefficient of b nonzero, so a and b share their indices; then
    q = a_0/b_0 for one index 0, and a = q*b exactly when a_I*b_0 = a_0*b_I
    at every other index I, compared as cleared polynomial products.
    """
    _require(DiffForm, "form_ratio", a, b)
    _require_same_chart(a.chart, "form_ratio", b)
    if b.degree != a.degree:
        raise GvError("ratio needs two forms of one degree")
    if b.is_zero():
        raise ZeroFunction("ratio by the zero form")
    if a.is_zero():
        return a.chart.zero()
    at, bt = a.terms, b.terms
    if at.keys() != bt.keys():
        return None
    idx = next(iter(bt))
    a0, b0 = at[idx], bt[idx]
    left, right = a0.den * b0.num, a0.num * b0.den
    for i, ai in at.items():
        bi = bt[i]
        if i != idx and ai.num * bi.den * left != bi.num * ai.den * right:
            return None
    return a0 / b0


def _dlog(f: RatFn) -> DiffForm:
    """d(f)/f for f = P/Q, as sum_v (P_v/P - Q_v/Q) dx_v.

    Each quotient is reduced against P or Q on its own.  `RatFn.diff` would
    reduce d(P/Q) against gcd(Q, Q_v), and dividing that by f takes further
    gcds against P and the new denominator.
    """
    coeffs = []
    for v in range(f.chart.dim):
        c = RatFn(f.num.diff(v), f.num)
        if not f.den.is_constant():
            c = c - RatFn(f.den.diff(v), f.den)
        coeffs.append(c)
    return DiffForm.one_form(f.chart, coeffs)


def _gcd_combination(values: Sequence[int]) -> tuple[int, list[int]]:
    """Positive gcd g of nonempty `values`, not all zero, and integers n_i
    with sum n_i*v_i = g."""
    g = values[0]
    coeffs = [1]
    for v in values[1:]:
        g, s, t = _xgcd(g, v)
        coeffs = [c * s for c in coeffs]
        coeffs.append(t)
    if g < 0:
        g = -g
        coeffs = [-c for c in coeffs]
    return g, coeffs


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s*a + t*b = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


# ---------------------------------------------------------------------------
# construction and verification


def gv_from_field(
    w: DiffForm, X: VectorField, upto: int
) -> GVSequence:
    """Sequence of iterated Lie derivatives omega_k = L_X^k w, k = 0 .. upto.

    `w` must be integrable and normalized against the field: w(X) = 1
    identically.  The result satisfies every structure relation and
    omega_k(X) = 0 for k > 0.  When some derivative vanishes the whole tail
    does, and the sequence is returned with the finite length declared.
    """
    _require_one_forms("gv_from_field", w)
    upto = _require_int(upto, "the number of derivatives")
    if not is_integrable(w):
        raise NotIntegrable("w /\\ dw is nonzero")
    pairing = form_apply(w, X)
    if pairing != w.chart.one():
        raise NotNormalized(f"w(X) = {pairing} differs from 1")
    forms = [w]
    declared: Optional[int] = None
    for k in range(1, upto + 1):
        nxt = lie_derivative(X, forms[-1])
        forms.append(nxt)
        if declared is None and nxt.is_zero():
            declared = k
    # a vanishing derivative kills the entire tail; None leaves the length open
    return GVSequence(forms, declared)


def gv_verify(s: GVSequence) -> DefectReport:
    """Check the structure relations of a sequence.

    Declared finite sequences are checked at every order that can fail;
    an undeclared prefix only determines the relations up to one below the
    stored order, so exactly those are checked.
    """
    _require(GVSequence, "gv_verify", s)
    if s.is_finite:
        orders = tuple(_defect_orders(s))
    else:
        orders = tuple(range(max(s.stored - 1, 0)))
    bad = []
    for k in orders:
        defect = structure_defect(s, k)
        if not defect.is_zero():
            bad.append((k, defect))
    return DefectReport(orders, tuple(bad))


# ---------------------------------------------------------------------------
# moves


def gv_rescale(s: GVSequence, f) -> GVSequence:
    """Rescale the transverse coordinate by a nonzero function f.

    Substituting z = f*t and dividing by f sends the sequence to

        (omega_0 / f,  omega_1 + df/f,  f*omega_2,  ...,  f^k*omega_{k+1}, ...)

    which defines the same foliation.  Finite declarations are preserved
    (the tail is re-trimmed, since df/f may create or destroy an entry).
    """
    _require(GVSequence, "gv_rescale", s)
    f = as_ratfn(s.chart, f)
    if f.is_zero():
        raise ZeroFunction("cannot rescale by the zero function")
    if not s.is_finite:
        return GVSequence(_rescaled(s.forms, f))
    out = _rescaled([s.omega(k) for k in range(max(s.stored, 2))], f)
    return GVSequence(out, len(out)).trimmed()


def _rescaled(forms: Sequence[DiffForm], f: RatFn) -> list[DiffForm]:
    """The entries (w_0/f, w_1 + df/f, f*w_2, ..., f^(k-1)*w_k) for a nonzero f."""
    finv = f.inv()
    out = [forms[0] * finv]
    if len(forms) > 1:
        out.append(forms[1] + ext_d(f) * finv)
    out.extend(w * f ** (k - 1) for k, w in enumerate(forms[2:], start=2))
    return out


def gv_shift(s: GVSequence, f, order: int = 1) -> GVSequence:
    """Shift the sequence at the given order by a function f.

    The move replaces the transverse coordinate by a polynomial tuned so
    that exactly one new term enters at the requested order:

        order 1:  (omega_0, omega_1 + f*omega_0, omega_2 + f*omega_1 - df, ...)
        order k:  omega_j unchanged for j < k, omega_k + f*omega_0 at k.

    The defining form omega_0 is untouched, so the foliation is preserved,
    and the structure relations survive.  A finite declaration is dropped
    for nonzero f: the substituted sequence is generally infinite, and only
    the stored prefix is returned.
    """
    _require(GVSequence, "gv_shift", s)
    chart = s.chart
    f = as_ratfn(chart, f)
    order = _require_int(order, "the shift order", 1)
    if f.is_zero():
        return s
    one = chart.one()
    if order == 1:
        tail = [one, -f * Fraction(1, 2), f * f * Fraction(1, 3)]
    else:
        tail = [one] + [chart.zero()] * (order - 1)
        tail.append(-f * Fraction(1, math.factorial(order + 1)))
    sub = Substitution.normalized(chart, tail)
    width = s.stored
    if s.is_finite:
        # every input column is known, so expose one column past the shift
        width = max(width, order + 2)
        s = s.trimmed()
    return GVSequence(substitute_series(s, sub, upto=width - 1).coeffs)


# ---------------------------------------------------------------------------
# flags


def flag_forms(s: GVSequence) -> FlagReport:
    r"""Compute the wedge flag of a sequence.

    Walks omega_0, omega_0 /\ omega_1, ... until the product vanishes; the
    first vanishing index is n.  Needs the entries up to omega_{n-1} for the
    products and omega_n for the drop, so an undeclared sequence whose
    stored prefix never degenerates raises.
    """
    _require(GVSequence, "flag_forms", s)
    prefixes = [s.forms[0]]
    j = 1
    while True:
        wj = s.omega(j)  # raises past an undeclared stored order
        nxt = wedge(prefixes[-1], wj)
        if nxt.is_zero():
            n = j
            break
        prefixes.append(nxt)
        j += 1
    theta = prefixes[-1]
    hats = []
    for k in range(1, n):
        factors = [s.forms[i] for i in range(n) if i != k]
        hats.append(wedge_all(factors))
    failures = []
    for length in range(2, n + 1):
        if not ext_d(prefixes[length - 1]).is_zero():
            failures.append(length)
    return FlagReport(n, theta, tuple(hats), tuple(failures))


def flag_decompose(
    s: GVSequence, flag: Optional[FlagReport] = None
) -> tuple[RatFn, ...]:
    r"""Coefficients a_1 .. a_{n-1} with omega_n = sum a_k omega_k.

    The first degenerate entry omega_n lies in the span of its predecessors;
    for a genuine sequence the omega_0 component vanishes and each a_k is a
    first integral of the flag (theta /\ d a_k = 0).  The coefficients come
    from ratios of top wedge products against the omit-one products and the
    decomposition is re-checked exactly; any failure raises
    DecompositionFails.
    """
    _require(GVSequence, "flag_decompose", s)
    if flag is None:
        flag = flag_forms(s)
    _require(FlagReport, "flag_decompose", flag)
    n = flag.n
    target = s.omega(n)
    coeffs: list[RatFn] = []
    for k in range(1, n):
        hat = flag.theta_hats[k - 1]
        den = wedge(s.forms[k], hat)
        num = wedge(target, hat)
        if den.is_zero():
            raise DecompositionFails(f"degenerate omit-{k} product")
        a = form_ratio(num, den)
        if a is None:
            raise DecompositionFails(
                f"top products at index {k} are not proportional"
            )
        coeffs.append(a)
    recombined = DiffForm.zero(s.chart, 1)
    for k, a in enumerate(coeffs, start=1):
        recombined = recombined + s.forms[k] * a
    if recombined != target:
        raise DecompositionFails(
            "remainder outside the span of omega_1 .. omega_{n-1}"
        )
    for k, a in enumerate(coeffs, start=1):
        if not wedge(flag.theta, ext_d(a)).is_zero():
            raise DecompositionFails(
                f"coefficient a_{k} is not a first integral of the flag"
            )
    return tuple(coeffs)


def gv_invariant(s: GVSequence) -> DiffForm:
    r"""The closed 3-form omega_0 /\ omega_1 /\ omega_2.

    For a sequence satisfying the relation at order 1 this equals
    -omega_1 /\ d omega_1 and is closed; both identities are re-checked.
    Its vanishing is the entry point for transversely projective behaviour.
    """
    _require(GVSequence, "gv_invariant", s)
    if s.stored < 3 and not s.is_finite:
        raise GvError("the invariant needs the first three entries")
    w0, w1, w2 = s.omega(0), s.omega(1), s.omega(2)
    inv = wedge(wedge(w0, w1), w2)
    alt = -wedge(w1, ext_d(w1))
    if inv != alt:
        raise GvError("structure relation at order 1 fails; verify first")
    if not ext_d(inv).is_zero():
        raise GvError("invariant is not closed; verify the sequence first")
    return inv


# ---------------------------------------------------------------------------
# finite sequences: verification


def finite_gv_verify(s: GVSequence) -> FiniteGVReport:
    r"""Check the finite-sequence conditions of a declared sequence.

    Conditions, with N the index of the last nonzero entry (N >= 2):
      (a) omega_k /\ omega_l = 0 for all 2 <= k < l <= N;
      (b) d omega_0 = omega_0 /\ omega_1 and, for 1 <= k <= N,
          d omega_k = omega_0 /\ omega_{k+1} + (k-1) omega_1 /\ omega_k
          (with omega_{N+1} = 0).
    Together they are equivalent to integrability of the extended form.
    Each relation is one accumulation: d omega_k and its weighted wedges
    are summed into one `exterior._FormSum`, with no form built in between.
    """
    _require(GVSequence, "finite_gv_verify", s)
    if not s.is_finite:
        raise GvError("finite verification needs a declared finite sequence")
    t = s.trimmed()
    n = t.last_index
    if n < 2:
        raise GvError("finite analysis needs order at least 2")
    w = t.forms
    wedge_bad = []
    for k in range(2, n + 1):
        for l in range(k + 1, n + 1):
            if not wedge(w[k], w[l]).is_zero():
                wedge_bad.append((k, l))
    rel_bad = []
    for k in range(n + 1):
        acc = _FormSum(s.chart)
        acc.add_d(w[k], 1)
        if k == 0:
            # the general relation would count w_0 ^ w_1 twice here
            acc.add_wedge(w[0], w[1], -1)
        else:
            if k < n:
                acc.add_wedge(w[0], w[k + 1], -1)
            acc.add_wedge(w[1], w[k], 1 - k)
        if not acc.form(2).is_zero():
            rel_bad.append(k)
    return FiniteGVReport(n, tuple(wedge_bad), tuple(rel_bad))


def _verified_order(s: GVSequence, analysis: str) -> tuple[int, GVSequence]:
    """The order N >= 3 of a sequence passing `finite_gv_verify`, and the
    sequence trimmed to its last nonzero entry."""
    report = finite_gv_verify(s)
    if not report.ok:
        raise GvError(
            "finite structure relations fail: "
            f"wedges {list(report.wedge_failures)}, "
            f"relations {list(report.relation_failures)}"
        )
    if report.order < 3:
        raise GvError(f"{analysis} needs order at least 3")
    return report.order, s.trimmed()


# ---------------------------------------------------------------------------
# finite sequences: normalization shared by classify and pullback


def _normalized_columns(t: GVSequence, n: int) -> tuple[list[DiffForm], RatFn]:
    """Kill the subleading coefficient of a verified, trimmed finite sequence.

    The subleading entry t_{n-1} must not vanish.  Returns plain
    (non-factorial) columns wt_0 .. wt_n of the extended form after the
    transverse coordinate is rescaled and then translated, and the scale
    function applied to it: wt_{n-1} = 0, wt_n != 0 and
    sum_j wt_j = omega_0 / scale.
    """
    chart = t.chart
    g = form_ratio(t.forms[n - 1], t.forms[n])
    if g is None:
        raise GvError("subleading and top coefficients are not proportional")
    # rescale the transverse coordinate by g, then translate it by one unit:
    # wt_j = sum_{k>=j} (-1)^(k-j) r_k / (j! (k-j)!), summed with the integer
    # weights (-1)^(k-j) n!/(j! (k-j)!) and scaled by 1/n! once
    r = _rescaled(t.forms, g)
    unit = DiffForm._raw(chart, 0, {(): chart.one()})
    nf = math.factorial(n)
    wt: list[DiffForm] = []
    for j in range(n + 1):
        acc = _FormSum(chart)
        for k in range(j, n + 1):
            c = nf // (math.factorial(j) * math.factorial(k - j))
            acc.add_wedge(unit, r[k], -c if (k - j) % 2 else c)
        wt.append(acc.form(1) * Fraction(1, nf))
    if not wt[n - 1].is_zero():
        raise GvError("normalization failed to kill the subleading column")
    return wt, g


def _lower_indices(n: int) -> list[int]:
    return [0] + list(range(2, n - 1))


def _certify_affine(
    s: GVSequence, omega: DiffForm, eta: DiffForm, branch: str
) -> Union[AffineCertificate, Inconclusive]:
    acc = _FormSum(omega.chart)
    acc.add_d(omega, 1)
    acc.add_wedge(omega, eta, -1)
    if not acc.form(2).is_zero():
        return Inconclusive(branch, "certificate relation d w = w /\\ h failed")
    if not ext_d(eta).is_zero():
        return Inconclusive(branch, "certificate form h is not closed")
    if not same_foliation(omega, s.forms[0]):
        return Inconclusive(branch, "certificate does not match the foliation")
    return AffineCertificate(omega, eta, branch)


def _power_quotient(f: RatFn, a: int, g: RatFn, b: int) -> RatFn:
    """f**a / g**b built by small steps.

    Multiplying in one base factor at a time keeps every cancellation gcd
    between a small polynomial and the accumulated one, which stays cheap
    even when the final function has large degree.
    """
    out = f.chart.one()
    for _ in range(a):
        out = out * f
    for _ in range(b):
        out = out / g
    return out


def _certify_witness(
    s: GVSequence, fn: RatFn, dlog_fn: DiffForm, top: DiffForm, branch: str
) -> Union[ClosedKernelWitness, Inconclusive]:
    # d(fn) = fn * dlog_fn exactly, and fn is nonzero, so checking the
    # logarithmic derivative against the kernel avoids differentiating the
    # possibly huge witness itself.
    if fn.is_constant():
        return Inconclusive(branch, "witness degenerated to a constant")
    if not wedge(dlog_fn, top).is_zero():
        return Inconclusive(branch, "witness differential misses the kernel")
    return ClosedKernelWitness(fn, branch)


# ---------------------------------------------------------------------------
# finite sequences: classification


def finite_gv_classify(
    s: GVSequence,
) -> Union[AffineCertificate, ClosedKernelWitness, Inconclusive]:
    r"""Decide the transverse structure of a verified finite sequence.

    Requires a declared finite sequence of order N >= 3 passing
    `finite_gv_verify`.  The outcome is one of:

      * AffineCertificate: a defining form of the foliation together with a
        closed 1-form satisfying the transversely affine relation;
      * ClosedKernelWitness: a nonconstant rational function g with
        dg /\ omega_N = 0, certifying that the foliation is a pullback
        through g (feed it to `finite_gv_pullback`);
      * Inconclusive: a defensive exit naming the branch whose re-checked
        claim failed; it does not occur for genuine finite sequences.

    The analysis normalizes the sequence so the subleading column dies,
    expresses the remaining lower columns as multiples g_k of the top one,
    and branches on the kernel multipliers g_k.
    """
    _require(GVSequence, "finite_gv_classify", s)
    n, t = _verified_order(s, "classification")
    chart = s.chart
    top = t.forms[n]

    # When the subleading entry already vanishes, omega_1 itself is closed
    # and the stored pair is a certificate.
    if t.forms[n - 1].is_zero():
        return _certify_affine(
            s, t.forms[0], t.forms[1], "subleading-vanishes"
        )

    wt, scale = _normalized_columns(t, n)
    omega0 = t.forms[0] / scale

    lower = _lower_indices(n)
    gk: dict[int, RatFn] = {}
    for k in lower:
        q = form_ratio(wt[k], wt[n])
        if q is None:
            return Inconclusive(
                "kernel-multiplier", f"column {k} is not a multiple of the top"
            )
        gk[k] = q
    nonzero = [k for k in lower if not gk[k].is_zero()]

    # Mixed multipliers: two kernel directions with independent logarithmic
    # derivatives produce a first integral direction for the top form.
    if len(nonzero) >= 2:
        k0 = nonzero[0]
        dl0 = _dlog(gk[k0])
        for l in nonzero[1:]:
            theta = _dlog(gk[l]) * (n - k0) - dl0 * (n - l)
            if not theta.is_zero():
                fn = _power_quotient(gk[l], n - k0, gk[k0], n - l)
                return _certify_witness(
                    s, fn, theta, top, "independent-kernel-multipliers"
                )

    if not nonzero:
        eta = wt[1] * (1 - n)
        return _certify_affine(s, omega0, eta, "no-kernel-multipliers")

    k0 = nonzero[0]
    beta = wt[1] + _dlog(gk[k0]) * Fraction(1, n - k0)

    gsum = chart.one()
    for k in lower:
        gsum = gsum + gk[k]

    if beta.is_zero():
        if gsum.is_zero():
            # omega_0 / scale collapses to the closed column wt_1
            return _certify_affine(
                s, omega0, DiffForm.zero(chart, 1), "closed-defining-form"
            )
        eta = wt[1] * (1 - n)
        return _certify_affine(s, omega0 / gsum, eta, "multiplier-sum-rescale")

    h = form_ratio(wt[n], beta)
    if h is None:
        return Inconclusive("kernel-slope", "top column is not a multiple of beta")
    dlh = _dlog(h)
    for k in nonzero:
        residue = dlh * (n - k) + _dlog(gk[k]) * (n - 1)
        if not residue.is_zero():
            fn = _power_quotient(h, n - k, gk[k].inv(), n - 1)
            return _certify_witness(s, fn, residue, top, "kernel-slope-mismatch")

    den = chart.one() + gsum * h
    if den.is_zero():
        return _certify_affine(
            s, omega0, DiffForm.zero(chart, 1), "closed-defining-form"
        )
    return _certify_affine(
        s, omega0 / den, DiffForm.zero(chart, 1), "kernel-aligned-rescale"
    )


# ---------------------------------------------------------------------------
# finite sequences: explicit pullback from a rational curve


def _express_in_powers(
    q: RatFn, base: RatFn, degree: int
) -> Optional[list[Fraction]]:
    """Coefficients c_i with q = sum c_i base^i, deg <= degree, or None.

    Clearing denominators turns the condition into a linear system over the
    rationals, one equation per monomial, solved exactly.
    """
    u, v = q.num, q.den
    weights = _power_products(base.num, base.den, degree)
    polys = [w * v for w in weights]
    polys.append(u * weights[0])
    # every equation times the common denominator: integer coefficients
    cols = _cleared_terms(polys)
    rows = [[Fraction(c.get(m, 0)) for c in cols] for m in sorted(set().union(*cols))]
    width = degree + 1
    pivots = _gauss_jordan(rows, width)
    if any(row[width] != 0 for row in rows[len(pivots):]):
        return None
    coeffs = [Fraction(0)] * width
    for row, col in zip(rows, pivots):
        coeffs[col] = row[width]
    return coeffs


def finite_gv_pullback(
    s: GVSequence, witness, degree: int
) -> PullbackReport:
    """Present a finite sequence as the pullback of a polynomial curve ODE.

    `witness` is a nonconstant rational function with d(witness) tangent to
    the last nonzero entry (as produced by `finite_gv_classify`), and
    `degree` bounds the polynomial degree, in the witness, of the
    coefficients that the construction must express.  The result is a 1-form
    dz + P(u, z) du on a fresh chart, together with a rational map whose
    pullback of that form is an exact multiple of omega_0.

    Raises NotExpressible when a coefficient is not polynomial of the given
    degree in the witness (try a larger bound), and GcdDegenerate when the
    exponent bookkeeping collapses.
    """
    _require(GVSequence, "finite_gv_pullback", s)
    n, t = _verified_order(s, "pullback analysis")
    degree = _require_int(degree, "the degree bound")
    chart = s.chart
    gfun = as_ratfn(chart, witness)
    omega = ext_d(gfun)
    if omega.is_zero():
        raise GvError("the witness must be nonconstant")

    if t.forms[n - 1].is_zero():
        raise GvError(
            "the subleading coefficient vanishes, so the defining form is "
            "already a multiple of a closed form; the affine certificate "
            "applies and no curve pullback is needed"
        )
    wt, scale = _normalized_columns(t, n)
    if not wedge(omega, wt[n]).is_zero():
        raise GvError("witness differential is not tangent to the top column")

    hk: dict[int, RatFn] = {}
    hn = form_ratio(wt[n], omega)
    if hn is None or hn.is_zero():
        raise GcdDegenerate("top column is not a multiple of the witness differential")
    hk[n] = hn
    for k in _lower_indices(n):
        q = form_ratio(wt[k], omega)
        if q is None:
            raise GcdDegenerate(
                f"column {k} is not a multiple of the witness differential"
            )
        if not q.is_zero():
            hk[k] = q

    ks = sorted(hk)
    r, bezout = _gcd_combination([k - 1 for k in ks])
    hfun = chart.one()
    dlog_h = DiffForm.zero(chart, 1)
    for k, nk in zip(ks, bezout):
        if nk:
            hfun = hfun * hk[k] ** nk
            dlog_h = dlog_h + _dlog(hk[k]) * nk

    f_form = wt[1] - dlog_h * Fraction(1, r)
    ffun = form_ratio(f_form, omega)
    if ffun is None:
        raise GvError("slope form is not a multiple of the witness differential")

    # the u-coefficients of P(u, z) by power of z: the slope at z^1 and
    # level k at z^((k-1)/r + 1), so no power is written twice
    zpowers = {1: _express_in_powers(ffun, gfun, degree)}
    if zpowers[1] is None:
        raise NotExpressible(
            "slope coefficient is not polynomial of the given degree in the witness"
        )
    for k in ks:
        step = (k - 1) // r
        q = hk[k] / hfun**step
        sol = _express_in_powers(q, gfun, degree)
        if sol is None:
            raise NotExpressible(
                f"coefficient at level {k} is not polynomial of the given "
                "degree in the witness"
            )
        zpowers[step + 1] = sol

    curve = Chart(("u", "z"), 0)
    pz = MultiPoly(
        curve,
        {(i, e): r * c for e, cs in zpowers.items() for i, c in enumerate(cs)},
    )
    target = DiffForm.one_form(curve, [pz, curve.one()])

    pulled = pullback([gfun, hfun], target)
    cofactor = r * hfun / scale
    if pulled != s.forms[0] * cofactor:
        raise GvError("pullback identity failed the exact re-check")
    return PullbackReport(curve, target, (gfun, hfun), cofactor, r)
