"""Integrating factors for integrable 1-forms in positive characteristic.

Over a field of characteristic p > 0 every integrable rational 1-form w
admits a rational integrating factor: a function F with d(F*w) = 0.  The
construction is a frame computation.  Complete w to a coframe
(df_1, ..., df_{m-1}, w) by rational functions f_i, clear each row of the
coefficient matrix to polynomials, and read the dual vector fields
X_1, ..., X_m off its adjugate: X_j = Y_j/den_j with Y_j and den_j
polynomial.  Contract w against the p-th powers of the kernel fields
X_1, ..., X_{m-1}.  The first nonzero contraction c = w(X_i^p) inverts to
the factor F = 1/c.  When every contraction vanishes the kernel
distribution is closed under p-th powers and no factor is produced here;
that outcome is reported as an explicit error value rather than recovered
by other means.

The contraction never forms X^p itself.  Hochschild's formula
(fY)^p = f^p Y^p + (fY)^(p-1)(f) Y (Trans. AMS 79, 1955), with f = 1/den
and w(Y) = den w(X) = 0, gives w(X^p) = w(Y^p) / den^p for the polynomial
derivation Y of the adjugate, and Y^p of each coordinate is iterated on
polynomials.  `vf_pth_power` keeps the direct iteration of X on cleared
numerators, over den^(2p-1).

The form is cleared once to w = W/B with W polynomial: W ^ dW = B^2 (w ^ dw)
and W has the kernel fields of w, so integrability, frame and contractions
run on W.  Every factor is re-checked: d(F*w) = 0 holds as a cleared
polynomial identity (`_closed_identity`), and the frame's m*m duality
pairings are re-checked as polynomial identities on the cleared rows and
adjugate columns, so the output is a per-instance certificate.
"""

import random
from dataclasses import dataclass
from functools import reduce
from itertools import islice, product
from operator import add
from typing import Iterator, Optional, Sequence

from .errors import (
    DegenerateFrame,
    GvError,
    NotIntegrable,
    PClosedCase,
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
    d_of,
    ext_d,
    is_integrable,
)
from .field import (
    _UNIT,
    Chart,
    MultiPoly,
    RatFn,
    _cofactors,
    _one,
    _over_one,
    _power_products,
    as_ratfn,
    exact_div,
    squarefree_decomposition,
)

__all__ = [
    "DualFrame",
    "dual_frame",
    "vf_pth_power",
    "integrating_factor",
    "invariant_hypersurface_candidates",
    "batch_integrating_factors",
]


@dataclass(frozen=True)
class DualFrame:
    """Vector fields dual to the coframe (df_1, ..., df_{m-1}, w).

    The pairing is basis_forms[i](fields[j]) = delta_ij, so the first m-1
    fields span the kernel of w and the last one is normalized against w.
    """

    fields: tuple[VectorField, ...]
    basis_forms: tuple[DiffForm, ...]

    @property
    def chart(self) -> Chart:
        return self.basis_forms[-1].chart

    @property
    def kernel_fields(self) -> tuple[VectorField, ...]:
        """The fields annihilated by the defining form."""
        return self.fields[:-1]


def _default_frame_functions(w: DiffForm) -> list[RatFn]:
    """Every coordinate but x_k, for k the last index in w's support.

    The coframe wedge is +-w_k dx_1 ^ ... ^ dx_m, which is nonzero.
    """
    if w.is_zero():
        raise DegenerateFrame("no choice of coordinates completes the form to a coframe")
    chart = w.chart
    (k,) = max(w.terms)
    return [chart.var(name) for i, name in enumerate(chart.variables) if i != k]


def _coframe(w: DiffForm, fs: Optional[Sequence]) -> list[DiffForm]:
    """The coframe (df_1, ..., df_{m-1}, w), fs defaulting as in `dual_frame`."""
    chart = w.chart
    m = chart.dim
    if fs is None:
        fns = _default_frame_functions(w)
    else:
        if not isinstance(fs, Sequence) or len(fs) != m - 1:
            raise GvError(f"expected a sequence of {m - 1} frame functions, not {fs!r}")
        fns = [as_ratfn(chart, f) for f in fs]
    return [d_of(f) for f in fns] + [w]


def _common_denominator(
    fracs: Sequence[RatFn],
) -> tuple[list[MultiPoly], MultiPoly]:
    """Numerators over the monic lcm of the denominators.

    Each non-constant denominator is folded in by its cofactor against the
    running lcm, so a factor shared by several fractions is counted once.
    """
    den = _one(fracs[0].chart)
    for f in fracs:
        if not f.den.is_constant():
            den = den * _cofactors(den, f.den)[2]
    return [f.num * (den if f.den.is_constant() else exact_div(den, f.den)) for f in fracs], den


def _cleared(w: DiffForm) -> tuple[DiffForm, MultiPoly]:
    """(W, B) with w = W/B, W a polynomial 1-form and B the monic lcm of w's
    denominators; a polynomial w is its own W, over B = 1."""
    chart = w.chart
    one = _one(chart)
    if all(c.den._ints == _UNIT for c in w.terms.values()):
        return w, one
    wnums, wden = _common_denominator(list(w.coeffs()))
    terms = {(i,): _over_one(n, one) for i, n in enumerate(wnums) if not n.is_zero()}
    return DiffForm._raw(chart, 1, terms), wden


def _det(rows: list[list[MultiPoly]], chart: Chart) -> MultiPoly:
    """The determinant, by cofactor expansion along the first row."""
    if not rows:
        return _one(chart)
    total = MultiPoly.zero(chart)
    for c, a in enumerate(rows[0]):
        if not a.is_zero():
            term = a * _det([r[:c] + r[c + 1:] for r in rows[1:]], chart)
            total = total - term if c % 2 else total + term
    return total


def _inverse_columns(
    rows: Sequence[Sequence[RatFn]],
) -> Iterator[tuple[list[MultiPoly], MultiPoly]]:
    """The columns Y_j / den_j of the inverse of a square matrix, Y_j polynomial.

    Row i is cleared once to R_i / l_i, so the inverse is adj(R) diag(l) / det R:
    Y_j = l_j adj(R)[:, j] and den_j = det R, divided by the gcd of den_j
    and the entries of Y_j.  Each column is re-checked as the polynomial
    identities R_i . Y_j = delta_ij l_j den_j.  A zero determinant raises
    DegenerateFrame at once; the columns are then built one at a time, so a
    caller may stop early.
    """
    cleared = [_common_denominator(row) for row in rows]
    polys = [nums for nums, _ in cleared]
    chart = polys[0][0].chart
    det = _det(polys, chart)
    if det.is_zero():
        raise DegenerateFrame("the coframe coefficient matrix is singular")

    def column(j: int) -> tuple[list[MultiPoly], MultiPoly]:
        lam = cleared[j][1]
        others = polys[:j] + polys[j + 1:]
        ys = [lam * _det([r[:k] + r[k + 1:] for r in others], chart) for k in range(len(polys))]
        ys = [-y if (j + k) % 2 else y for k, y in enumerate(ys)]
        g = den = det
        for y in ys:
            # an entry equal to +-den leaves the gcd as it is
            if not (g.is_constant() or y.is_zero() or y == den or y == -den):
                g = _cofactors(g, y)[0]
        if not g.is_constant():
            ys, den = [exact_div(y, g) for y in ys], exact_div(den, g)
        for i, nums in enumerate(polys):
            pairing = reduce(add, (n * y for n, y in zip(nums, ys)))
            if not (pairing - lam * den if i == j else pairing).is_zero():
                raise GvError("dual frame contraction failed to reproduce the identity")
        return ys, den

    return (column(j) for j in range(len(polys)))


def dual_frame(w: DiffForm, fs: Optional[Sequence] = None) -> DualFrame:
    """Build the vector fields dual to (df_1, ..., df_{m-1}, w).

    fs defaults to every coordinate but the last one in w's support, which
    makes the output deterministic.  A coframe with a vanishing wedge has a
    singular matrix, whose zero determinant raises DegenerateFrame.  The
    fields come from the cleared adjugate of `_inverse_columns`, which
    re-checks the m*m duality contractions on polynomials; each component
    is then one reduced fraction.  When w is integrable the kernel fields
    commute, which the duality implies: for a 1-form a with a(X_i) and
    a(X_j) constant, a([X_i, X_j]) = -da(X_i, X_j); each theta_k = df_k is
    closed, and dw = w ^ eta with w(X_i) = w(X_j) = 0, so the nonzero
    coframe annihilates [X_i, X_j].
    """
    chart = _require_one_forms("dual_frame", w)
    if chart.characteristic == 0:
        raise GvError("dual frames are a positive-characteristic construction")
    forms = _coframe(w, fs)
    fields = tuple(
        VectorField(chart, [RatFn(y, den) for y in ys])
        for ys, den in _inverse_columns([a.coeffs() for a in forms])
    )
    return DualFrame(fields=fields, basis_forms=tuple(forms))


def _reduce_fraction(
    num: MultiPoly, factors: Sequence[tuple[MultiPoly, int]]
) -> RatFn:
    """Exact num / prod q^e, cancelling against the known small factors q.

    Every gcd taken here pairs the large numerator with one small factor of
    the denominator, which stays cheap; the generic big-by-big reduction a
    plain constructor would attempt is never run.  Factors sharing only a
    proper divisor with the numerator are split and re-examined, so the
    output parts are genuinely coprime.
    """
    chart = num.chart
    if num.is_zero():
        return chart.zero()
    work = [[q, e] for q, e in factors]
    i = 0
    while i < len(work):
        q, e = work[i]
        if e <= 0 or q.is_constant():
            i += 1
            continue
        while e > 0:
            try:
                num = exact_div(num, q)
            except GvError:
                break
            e -= 1
        work[i][1] = e
        if e == 0:
            i += 1
            continue
        h, num, u = _cofactors(num, q)
        if h.is_constant():
            i += 1
            continue
        # q^e = h^e u^e; one copy of h cancels into the numerator
        work[i] = [h, e - 1]
        work.append([u, e])
    den = _one(chart)
    for q, e in work:
        if e > 0:
            den = den * q ** e
    return RatFn._raw(num, den)


def _polynomial_pth_power(nums: Sequence[MultiPoly], p: int) -> list[MultiPoly]:
    """Values Y^p(x_j) = Y^(p-1)(n_j) of the derivation Y = sum_k n_k d_k.

    Y has polynomial coefficients, so every step is a polynomial product and
    no denominator ever appears.
    """
    gs = []
    for g in nums:
        for _ in range(p - 1):
            g = reduce(add, (n * g.diff(k) for k, n in enumerate(nums)))
        gs.append(g)
    return gs


def _pth_power_numerators(
    x: VectorField, p: int
) -> tuple[list[MultiPoly], int, MultiPoly]:
    """Values X^p(x_j) as g_j / d^s with one shared denominator power.

    Writing the running value as g/d^s, one application of X sends g to
    sum_k n_k (d_k(g) d - s g d_k(d)) and s to s+2, so the whole iteration
    is polynomial arithmetic; nothing is normalized until the end.  Only
    `vf_pth_power` uses it: `integrating_factor` needs the contraction
    alone, which Hochschild's formula reduces to polynomial iteration.
    """
    chart = x.chart
    nums, den = _common_denominator(list(x.components))
    dden = [den.diff(k) for k in range(chart.dim)]
    gs = []
    for g in nums:
        # X(x_j) = n_j / d; each further step raises the power of d by two
        for s in range(1, 2 * p - 1, 2):
            g = reduce(
                add,
                (n * (g.diff(k) * den - g.scale(s) * dden[k]) for k, n in enumerate(nums)),
            )
        gs.append(g)
    return gs, 2 * p - 1, den


def vf_pth_power(x: VectorField, p: int) -> VectorField:
    """The p-th power of a vector field as a derivation.

    In characteristic p the p-fold composite of a derivation is again a
    derivation, so it is determined by its values on the coordinates.
    """
    _require(VectorField, "vf_pth_power", x)
    chart = x.chart
    p = _require_int(p, "the exponent", 1)
    if chart.characteristic != p:
        raise GvError("the exponent must equal the chart characteristic")
    gs, s, den = _pth_power_numerators(x, p)
    return VectorField(chart, [_reduce_fraction(g, [(den, s)]) for g in gs])


def _closed_identity(factor: RatFn, cleared: tuple[DiffForm, MultiPoly]) -> bool:
    """Whether d(factor * w) = 0, verified as a cleared polynomial identity.

    `cleared` is (W, B) from `_cleared(w)`, so w = W/B.  With factor = P/N,
    and any factor of B in P cancelled, factor*w = P W/D for D = N B, and by
    Leibniz D^2 d(P W/D) = D dP ^ W + P E with E = D dW - dD ^ W.  When P is
    a p-th power, dP = 0, the first sum is empty and P multiplies only the
    small 2-form E, which vanishes for a true factor.  Every sum is a
    polynomial `_FormSum`, so the check is a polynomial zero test with no
    rational normalization at all.
    """
    W, B = cleared
    chart = W.chart
    num = factor.num
    if not (B.is_constant() or num.is_zero()):
        _, num, B = _cofactors(num, B)
    pf = DiffForm.from_function(RatFn.from_poly(num))
    df = DiffForm.from_function(RatFn.from_poly(factor.den * B))
    e = _FormSum(chart)
    e.add_wedge(df, ext_d(W), 1)
    e.add_wedge(ext_d(df), W, -1)
    d_dp = _FormSum(chart)  # D dP, empty when dP = 0
    d_dp.add_wedge(df, ext_d(pf), 1)
    acc = _FormSum(chart)
    acc.add_wedge(d_dp.form(1), W, 1)
    acc.add_wedge(pf, e.form(2), 1)
    return acc.form(2).is_zero()


def integrating_factor(w: DiffForm, fs: Optional[Sequence] = None) -> RatFn:
    """A rational F with d(F*w) = 0, for integrable w in characteristic p.

    w is cleared once to W/B with W polynomial: W ^ dW = B^2 (w ^ dw) tests
    integrability, and the dual frame of W has the kernel fields of w.
    Scans them in order and inverts the first nonzero contraction w(X_i^p).
    The smallest index wins, which makes the output deterministic; no
    uniqueness is claimed.  Each contraction is w(Y^p) / den^p for the
    adjugate column X = Y/den of `_inverse_columns`, by Hochschild's
    formula (fY)^p = f^p Y^p + (fY)^(p-1)(f) Y and w(Y) = 0.  Raises
    PClosedCase when every contraction vanishes: the kernel distribution is
    then closed under p-th powers and the form is proportional to an exact
    differential, a case this routine reports rather than resolves.
    """
    chart = _require_one_forms("integrating_factor", w)
    p = chart.characteristic
    if p == 0:
        raise GvError("integrating factors are a positive-characteristic construction")
    W, wden = cleared = _cleared(w)
    if not is_integrable(W):
        raise NotIntegrable("the form does not satisfy w ^ dw = 0")
    columns = _inverse_columns([a.coeffs() for a in _coframe(W, fs)])
    wnums = [c.num for c in W.coeffs()]
    # the kernel fields X = Y/den, with Y polynomial and w(Y) = den*w(X) = 0
    for ys, den in islice(columns, chart.dim - 1):
        gs = _polynomial_pth_power(ys, p)
        num = reduce(add, (wn * g for wn, g in zip(wnums, gs)))
        if num.is_zero():
            continue
        factor = _reduce_fraction(num, [(wden, 1), (den, p)]).inv()
        if not _closed_identity(factor, cleared):
            raise GvError("the integrating factor failed its closedness certificate")
        return factor
    raise PClosedCase("every kernel p-th power contracts to zero; the kernel is p-closed")


def _graph_values(
    polys: Sequence[MultiPoly], j: int, a: MultiPoly, nb: MultiPoly
) -> list[MultiPoly]:
    """Each c in polys on the graph x_j = nb/a, times a^m: sum_i c_i nb^i a^(m-i)
    for c = sum_i c_i x_j^i, with m the largest degree in x_j among polys.

    The values share the denominator a^m, so their polynomial relations are
    those of the restrictions; none of them involves x_j.
    """
    m = max(0, *(c.degree_in(j) for c in polys))
    weights = _power_products(nb, a, m)
    zero = MultiPoly._raw(a.chart, {})
    return [
        reduce(add, (c.coeff_of_power(j, i) * weights[i] for i in range(c.degree_in(j) + 1)), zero)
        for c in polys
    ]


def _restriction_vanishes(g: MultiPoly, cleared: tuple[DiffForm, MultiPoly]) -> bool:
    """Whether w = W/B pulls back to zero on the hypersurface g = 0.

    `cleared` is (W, B) from `_cleared(w)`.  Only factors linear in some
    variable x_j are attempted: g = a x_j + b is then the graph x_j = phi
    with phi = nb/a, nb = -b, and a polynomial c restricts to c~/a^m (see
    `_graph_values`).  The pullback of w is sum_{k != j} (W_k(phi) +
    W_j(phi) d_k phi)/B(phi) dx_k, and d_k phi = (a d_k nb - nb d_k a)/a^2,
    so it vanishes exactly when a^2 W~_k + W~_j (a d_k nb - nb d_k a) = 0
    for every k != j: a polynomial test on the chart of g, with no new
    chart and no rational function.  A graph with B~ = 0 runs inside the
    polar locus of w and is skipped for the next linear variable.  Factors
    with no such variable are reported as unverified.
    """
    W, B = cleared
    n = g.chart.dim
    for j in range(n):
        if g.degree_in(j) != 1:
            continue
        if n == 1:
            # the zero locus is a point and carries no 1-forms
            return True
        a, nb = g.coeff_of_power(j, 1), -g.coeff_of_power(j, 0)
        if not B.is_constant() and _graph_values([B], j, a, nb)[0].is_zero():
            continue
        ws = _graph_values([c.num for c in W.coeffs()], j, a, nb)
        a2, wj = a * a, ws[j]
        return all(
            (a2 * wk + wj * (a * nb.diff(k) - nb * a.diff(k))).is_zero()
            for k, wk in enumerate(ws)
            if k != j
        )
    return False


def invariant_hypersurface_candidates(
    factor: RatFn, w: DiffForm
) -> list[tuple[MultiPoly, bool]]:
    """Hypersurface equations along which w may restrict to zero.

    The logarithmic differential dF/F of an integrating factor F has poles
    exactly along the irreducible factors of F whose multiplicity is not
    divisible by p, and each polar component is invariant wherever w is
    regular.  The returned factors come from an exact squarefree sieve of
    the numerator and denominator of F, so each entry is squarefree and
    primitive but not certified irreducible.  A part whose partials all
    vanish is a p-th power, every multiplicity in it is divisible by p, and
    it is not sieved.  w is cleared once to W/B: the closedness certificate
    and every restriction test run on the same polynomials.  Factors linear
    in some variable get the restriction checked by the polynomial graph
    test of `_restriction_vanishes` and carry True or False; the rest carry
    False rather than a guess.  The zero function raises ZeroFunction:
    d(0*w) = 0 would pass the certificate vacuously.
    """
    _require(RatFn, "invariant_hypersurface_candidates", factor)
    chart = _require_one_forms("invariant_hypersurface_candidates", w)
    p = chart.characteristic
    if p == 0:
        raise GvError("hypersurface sieving is a positive-characteristic routine")
    _require_same_chart(chart, "invariant_hypersurface_candidates", factor)
    if factor.is_zero():
        raise ZeroFunction("the zero function is not an integrating factor")
    cleared = _cleared(w)
    if not _closed_identity(factor, cleared):
        raise GvError("the function is not an integrating factor of the form")
    parts = [
        f for f in (factor.num, factor.den)
        if any(not f.diff(v).is_zero() for v in range(chart.dim))
    ]
    # for coprime P/Q, d(P/Q) = 0 exactly when dP = dQ = 0
    if not parts:
        raise GvError(
            "the integrating factor is a p-th power; its logarithmic "
            "differential vanishes and the polar sieve is empty"
        )
    out: list[tuple[MultiPoly, bool]] = []
    for poly in parts:
        for g, mult in squarefree_decomposition(poly):
            if mult % p == 0:
                continue
            out.append((g, _restriction_vanishes(g, cleared)))
    return out


def _exponent_cloud(dim: int, degree: int) -> list[tuple[int, ...]]:
    return sorted(
        e for e in product(range(degree + 1), repeat=dim) if sum(e) <= degree
    )


def _random_poly(chart: Chart, rng: random.Random, degree: int) -> RatFn:
    p = chart.characteristic
    terms = {}
    for exp in _exponent_cloud(chart.dim, degree):
        c = rng.randrange(p)
        if c:
            terms[exp] = c
    return RatFn.from_poly(MultiPoly(chart, terms))


def _random_one_form(chart: Chart, rng: random.Random, degree: int) -> DiffForm:
    while True:
        coeffs = [_random_poly(chart, rng, degree) for _ in chart.variables]
        if any(not c.is_zero() for c in coeffs):
            return DiffForm.one_form(chart, coeffs)


def batch_integrating_factors(
    p: int,
    count: int,
    seed: int,
    names: Sequence[str] = ("x", "y"),
    degree: int = 2,
) -> list[dict]:
    """Run the integrating-factor search over seeded random polynomial forms.

    Emits one JSON-ready record per instance with fields instance, outcome
    ("factor-found" or "p-closed") and certificate (the input form plus the
    factor or the reason).  The seed must be an int (None would seed from
    the OS), and identical seeds reproduce identical records.
    Forms on two-variable charts are automatically integrable, so every run
    terminates in one of the two declared outcomes.
    """
    count, degree = _require_int(count, "count"), _require_int(degree, "degree")
    seed = _require_int(seed, "the seed", None)
    _require(Sequence, "variable names", names)
    chart = Chart(tuple(names), p)
    if chart.characteristic == 0:
        # the coefficients are drawn from F_p, and every form needs p > 0
        raise GvError("integrating factors are a positive-characteristic construction")
    rng = random.Random(seed)
    records = []
    for k in range(count):
        w = _random_one_form(chart, rng, degree)
        certificate = {"form": str(w)}
        try:
            f = integrating_factor(w)
        except PClosedCase as err:
            outcome = "p-closed"
            certificate["reason"] = str(err)
        else:
            outcome = "factor-found"
            certificate["factor"] = str(f)
            certificate["closed"] = True
        records.append({"instance": k, "outcome": outcome, "certificate": certificate})
    return records
