"""Integrating factors for integrable 1-forms in positive characteristic.

Over a field of characteristic p > 0 every integrable rational 1-form w
admits a rational integrating factor: a function F with d(F*w) = 0.  The
construction is a frame computation.  Complete w to a coframe
(df_1, ..., df_{m-1}, w) by rational functions f_i, invert the coefficient
matrix to obtain the dual vector fields X_1, ..., X_m, and contract w
against the p-th powers of the kernel fields X_1, ..., X_{m-1}.  The first
nonzero contraction c = w(X_i^p) inverts to the factor F = 1/c.  When every
contraction vanishes the kernel distribution is closed under p-th powers
and no factor is produced here; that outcome is reported as an explicit
error value rather than recovered by other means.

Every successful run re-checks d(F*w) = 0 and the contraction identities
behind it, so the output is a per-instance certificate rather than an
appeal to the general statement.
"""

import random
from dataclasses import dataclass
from itertools import product
from typing import Optional, Sequence

from .errors import (
    ChartMismatch,
    DegenerateFrame,
    GvError,
    NotIntegrable,
    PClosedCase,
    ZeroDenominator,
)
from .exterior import (
    DiffForm,
    VectorField,
    d_of,
    ext_d,
    form_apply,
    is_integrable,
    pullback,
    wedge_all,
)
from .field import (
    Chart,
    MultiPoly,
    RatFn,
    as_ratfn,
    exact_div,
    poly_gcd,
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
    """Greedy scan of coordinate functions keeping the coframe wedge nonzero."""
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
    if len(chosen) != chart.dim - 1:
        raise DegenerateFrame("no choice of coordinates completes the form to a coframe")
    return chosen


def _invert_matrix(chart: Chart, rows: list[list[RatFn]]) -> list[list[RatFn]]:
    """Gauss-Jordan inverse of a square matrix of rational functions."""
    m = len(rows)
    aug = [
        list(row) + [chart.one() if i == j else chart.zero() for j in range(m)]
        for i, row in enumerate(rows)
    ]
    for col in range(m):
        pivot = next((r for r in range(col, m) if not aug[r][col].is_zero()), None)
        if pivot is None:
            raise DegenerateFrame("the coframe coefficient matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        scale = aug[col][col].inv()
        aug[col] = [entry * scale for entry in aug[col]]
        for r in range(m):
            if r != col and not aug[r][col].is_zero():
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [row[m:] for row in aug]


def dual_frame(w: DiffForm, fs: Optional[Sequence] = None) -> DualFrame:
    """Build the vector fields dual to (df_1, ..., df_{m-1}, w).

    When fs is omitted the frame functions default to coordinate functions
    picked by a greedy scan; the smallest set of indices keeping the wedge
    with w nonzero wins, which makes the output deterministic.  All m*m
    duality contractions are re-checked on the result, and when w is
    integrable the kernel fields are verified to commute pairwise.
    """
    chart = w.chart
    if w.degree != 1:
        raise GvError("dual frames are built from a 1-form")
    if chart.characteristic == 0:
        raise GvError("dual frames are a positive-characteristic construction")
    m = chart.dim
    if fs is None:
        fns = _default_frame_functions(w)
    else:
        fns = [as_ratfn(chart, f) for f in fs]
        if len(fns) != m - 1:
            raise GvError(f"expected {m - 1} frame functions, got {len(fns)}")
    forms = [d_of(f) for f in fns] + [w]
    if wedge_all(forms).is_zero():
        raise DegenerateFrame("the differentials do not complete the form to a coframe")
    rows = [list(a.coeffs()) for a in forms]
    inverse = _invert_matrix(chart, rows)
    fields = tuple(
        VectorField(chart, [inverse[i][j] for i in range(m)]) for j in range(m)
    )
    for i, a in enumerate(forms):
        for j, x in enumerate(fields):
            expected = chart.one() if i == j else chart.zero()
            if form_apply(a, x) != expected:
                raise GvError("dual frame contraction failed to reproduce the identity")
    if is_integrable(w):
        kernel = fields[:-1]
        for i, x in enumerate(kernel):
            for y in kernel[i + 1 :]:
                if not x.bracket(y).is_zero():
                    raise GvError("kernel fields of an integrable form must commute")
    return DualFrame(fields=fields, basis_forms=tuple(forms))


def _poly_sum(parts) -> MultiPoly:
    acc = None
    for t in parts:
        acc = t if acc is None else acc + t
    if acc is None:
        raise GvError("empty polynomial sum")
    return acc


def _common_denominator(
    fracs: Sequence[RatFn],
) -> tuple[list[MultiPoly], MultiPoly]:
    """Numerators over one shared polynomial denominator (the plain product)."""
    chart = fracs[0].chart
    den = MultiPoly.const(chart, 1)
    for f in fracs:
        den = den * f.den
    nums = []
    for k, f in enumerate(fracs):
        others = MultiPoly.const(chart, 1)
        for l, g in enumerate(fracs):
            if l != k:
                others = others * g.den
        nums.append(f.num * others)
    return nums, den


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
        h = poly_gcd(num, q)
        if h.is_constant():
            i += 1
            continue
        # q^e = h^e u^e; one copy of h cancels into the numerator
        num = exact_div(num, h)
        work[i] = [h, e - 1]
        work.append([exact_div(q, h), e])
    den = MultiPoly.const(chart, 1)
    for q, e in work:
        if e > 0:
            den = den * q ** e
    return RatFn._raw(num, den)


def _pth_power_numerators(
    x: VectorField, p: int
) -> tuple[list[MultiPoly], int, MultiPoly]:
    """Values X^p(x_j) as g_j / d^s with one shared denominator power.

    Writing the running value as g/d^s, one application of X sends g to
    sum_k n_k (d_k(g) d - s g d_k(d)) and s to s+2, so the whole iteration
    is polynomial arithmetic; nothing is normalized until the end.
    """
    chart = x.chart
    nums, den = _common_denominator(list(x.components))
    dden = [den.diff(k) for k in range(chart.dim)]
    gs = []
    s = 0
    for name in chart.variables:
        g = MultiPoly.var(chart, name)
        s = 0
        for _ in range(p):
            if s == 0:
                g = _poly_sum(n * g.diff(k) for k, n in enumerate(nums))
                s = 1
            else:
                g = _poly_sum(
                    n * (g.diff(k) * den - g.scale(s) * dden[k])
                    for k, n in enumerate(nums)
                )
                s += 2
        gs.append(g)
    return gs, s, den


def vf_pth_power(x: VectorField, p: int) -> VectorField:
    """The p-th power of a vector field as a derivation.

    In characteristic p the p-fold composite of a derivation is again a
    derivation, so it is determined by its values on the coordinates.
    """
    chart = x.chart
    if p <= 0 or chart.characteristic != p:
        raise GvError("the exponent must equal the chart characteristic")
    gs, s, den = _pth_power_numerators(x, p)
    return VectorField(chart, [_reduce_fraction(g, [(den, s)]) for g in gs])


def _closed_identity(factor: RatFn, w: DiffForm) -> bool:
    """Whether d(factor * w) = 0, verified as a cleared polynomial identity.

    With factor = P/N and w_j = W_j/B the coefficient of dx_i ^ dx_j in
    d(factor*w) clears to d_i(U_j) D - U_j d_i(D) - d_j(U_i) D + U_i d_j(D)
    over D^2, where U_j = P W_j and D = N B; the check is a polynomial zero
    test with no rational normalization at all.
    """
    chart = w.chart
    wnums, wden = _common_denominator(list(w.coeffs()))
    u = [factor.num * wn for wn in wnums]
    d = factor.den * wden
    dd = [d.diff(k) for k in range(chart.dim)]
    du = [[uj.diff(k) for k in range(chart.dim)] for uj in u]
    for i in range(chart.dim):
        for j in range(i + 1, chart.dim):
            lhs = du[j][i] * d - u[j] * dd[i] - du[i][j] * d + u[i] * dd[j]
            if not lhs.is_zero():
                return False
    return True


def _contraction_certificate(
    w: DiffForm,
    factor: RatFn,
    contraction: RatFn,
    kernel: Sequence[VectorField],
) -> None:
    """Re-check the frame identities behind the factor F = 1/c.

    The rescaled form u = F*w contracts to one on the p-th power (F*c = 1)
    and every kernel field X satisfies u(X) = 0.  Closedness, d(F*w) = 0,
    is certified separately by `_closed_identity` as a cleared polynomial
    identity.
    """
    chart = w.chart
    if factor * contraction != chart.one():
        raise GvError("the rescaled form does not contract to one on the p-th power")
    for x in kernel:
        if not form_apply(w, x).is_zero():
            raise GvError("a kernel field escapes the kernel of the form")


def integrating_factor(w: DiffForm, fs: Optional[Sequence] = None) -> RatFn:
    """A rational F with d(F*w) = 0, for integrable w in characteristic p.

    Scans the kernel fields of a dual frame in order and inverts the first
    nonzero contraction w(X_i^p).  The smallest index wins, which makes the
    output deterministic; no uniqueness is claimed.  Raises PClosedCase when
    every contraction vanishes: the kernel distribution is then closed under
    p-th powers and the form is proportional to an exact differential, a
    case this routine reports rather than resolves.
    """
    chart = w.chart
    p = chart.characteristic
    if p == 0:
        raise GvError("integrating factors are a positive-characteristic construction")
    if not is_integrable(w):
        raise NotIntegrable("the form does not satisfy w ^ dw = 0")
    frame = dual_frame(w, fs)
    kernel = frame.kernel_fields
    wnums, wden = _common_denominator(list(w.coeffs()))
    for x in kernel:
        gs, s, den = _pth_power_numerators(x, p)
        num = _poly_sum(wn * g for wn, g in zip(wnums, gs))
        if num.is_zero():
            continue
        contraction = _reduce_fraction(num, [(wden, 1), (den, s)])
        factor = contraction.inv()
        if not _closed_identity(factor, w):
            raise GvError("the integrating factor failed its closedness certificate")
        _contraction_certificate(w, factor, contraction, kernel)
        return factor
    raise PClosedCase("every kernel p-th power contracts to zero; the kernel is p-closed")


def _drop_variable(f: MultiPoly, j: int, target: Chart) -> MultiPoly:
    """Transfer a polynomial with x_j-degree zero onto the chart without x_j."""
    return MultiPoly._raw(target, {e[:j] + e[j + 1 :]: c for e, c in f.terms.items()})


def _restriction_vanishes(g: MultiPoly, w: DiffForm) -> bool:
    """Whether w pulls back to zero on the hypersurface g = 0.

    Only factors linear in some variable are attempted: the hypersurface
    is then the graph x_j = -b/a and the restriction is an exact pullback.
    Factors with no linear variable, and graphs running inside the polar
    locus of w, are reported as unverified.
    """
    chart = g.chart
    for j, name in enumerate(chart.variables):
        if g.degree_in(j) != 1:
            continue
        if chart.dim == 1:
            # the zero locus is a point and carries no 1-forms
            return True
        rest = tuple(n for n in chart.variables if n != name)
        source = Chart(rest, chart.characteristic)
        a = RatFn.from_poly(_drop_variable(g.coeff_of_power(j, 1), j, source))
        b = RatFn.from_poly(_drop_variable(g.coeff_of_power(j, 0), j, source))
        graph = -(b / a)
        phi = [graph if n == name else source.var(n) for n in chart.variables]
        try:
            return pullback(phi, w).is_zero()
        except ZeroDenominator:
            continue
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
    primitive but not certified irreducible.  Factors linear in some
    variable get the restriction checked by exact substitution and carry
    True; the rest carry False rather than a guess.
    """
    chart = factor.chart
    p = chart.characteristic
    if p == 0:
        raise GvError("hypersurface sieving is a positive-characteristic routine")
    if w.degree != 1:
        raise GvError("invariant hypersurfaces are sought for a 1-form")
    if w.chart != chart:
        raise ChartMismatch("the factor and the form live on different charts")
    if not ext_d(w * factor).is_zero():
        raise GvError("the function is not an integrating factor of the form")
    if all(factor.diff(v).is_zero() for v in range(chart.dim)):
        raise GvError(
            "the integrating factor is a p-th power; its logarithmic "
            "differential vanishes and the polar sieve is empty"
        )
    out: list[tuple[MultiPoly, bool]] = []
    for poly in (factor.num, factor.den):
        for g, mult in squarefree_decomposition(poly):
            if mult % p == 0:
                continue
            out.append((g, _restriction_vanishes(g, w)))
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
    factor or the reason).  Identical seeds reproduce identical records.
    Forms on two-variable charts are automatically integrable, so every run
    terminates in one of the two declared outcomes.
    """
    chart = Chart(tuple(names), p)
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
