"""Seeded workloads of the gvcalc benchmark.

Each workload has three parts:

* `generate(gv, rng, i)` builds the i-th input of a seed's pool.  The pool is
  stratified by `i`, so every prefix of it holds the same mix of input
  classes, whatever the number of instances a run reaches.
* `run(gv, inp)` is the timed instance.  It calls only the public API of the
  `gvcalc` package `gv` and returns `(outputs, labels)`: the results and
  certificates in order (their `str()` is digested) and the outcome labels
  that are counted exactly.
* `check(gv, inp, outputs)` re-checks the outputs outside the timed section
  with identities that can fail, and raises `CheckFailed` when one does.

Documented typed outcomes (`PClosedCase`, `NotExpressible`, the sieve's
`GvError` for a p-th-power factor) are successes with their own label.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product
from typing import Callable


class CheckFailed(Exception):
    """An output failed its certificate re-check."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


@dataclass(frozen=True)
class Workload:
    """One workload.  `pool_size` inputs are generated per seed, a little more
    than a run reaches at baseline (a faster program cycles through them);
    the traced run covers the first `trace_instances`; `labels` are the outcome
    counts every traced run reports, zero or not."""

    name: str
    pool_size: int
    trace_instances: int
    generate: Callable
    run: Callable
    check: Callable
    labels: tuple = field(default=())


# ---------------------------------------------------------------------------
# input generators shared by several workloads


def curve_sequence(gv, hs):
    """The finite sequence of the curve ODE dz + sum_k h_k(u) z^k du.

    Entry k is the k-th z-derivative of the polynomial part times du, which
    satisfies every structure relation on the (u, z) chart.
    """
    chart = hs[0].chart
    z = chart.var("z")
    poly = chart.zero()
    for k, h in enumerate(hs):
        poly = poly + h * z**k
    du = gv.DiffForm.coordinate(chart, "u")
    dz = gv.DiffForm.coordinate(chart, "z")
    forms = [dz + du * poly]
    n = len(hs) - 1
    for k in range(1, n + 1):
        acc = chart.zero()
        for j in range(k, n + 1):
            c = math.factorial(j) // math.factorial(j - k)
            acc = acc + hs[j] * z ** (j - k) * chart.const(c)
        forms.append(du * acc)
    return gv.GVSequence(forms, n + 1)


def unshift(gv, columns):
    """The sequence whose normalized plain columns are `columns`.

    Undoes the unit translation of the transverse coordinate:
    omega_j = j! * sum_{k >= j} C(k, j) wt_k.
    """
    n = len(columns) - 1
    chart = columns[0].chart
    out = []
    for j in range(n + 1):
        acc = gv.DiffForm.zero(chart, 1)
        for k in range(j, n + 1):
            acc = acc + columns[k] * chart.const(math.comb(k, j))
        out.append(acc * chart.const(math.factorial(j)))
    return gv.GVSequence(out, n + 1)


def linear_in(chart, rng, name, lo=-2, hi=2, slopes=(-1, 0, 1)):
    """c0 + c1*name with c0 in [lo, hi] and c1 drawn from `slopes`."""
    v = chart.var(name)
    return chart.const(rng.randint(lo, hi)) + v * chart.const(rng.choice(slopes))


def random_form(gv, chart, rng, degree):
    """A nonzero polynomial 1-form with uniform F_p coefficients up to `degree`."""
    p = chart.characteristic
    cloud = sorted(
        e for e in product(range(degree + 1), repeat=chart.dim) if sum(e) <= degree
    )
    while True:
        coeffs = []
        for _ in chart.variables:
            terms = {e: c for e in cloud if (c := rng.randrange(p))}
            coeffs.append(gv.RatFn.from_poly(gv.MultiPoly(chart, terms)))
        if any(not c.is_zero() for c in coeffs):
            return gv.DiffForm.one_form(chart, coeffs)


def closed_identity(gv, form, factor) -> bool:
    """d(factor * form) = 0 for a polynomial 1-form on a plane, denominators cleared.

    With factor = P/N and form = A dx + B dy the dx^dy coefficient of
    d(factor*form), times N^2, is ((PB)_x - (PA)_y) N - P (B N_x - A N_y).
    """
    a, b = (c.num for c in form.coeffs())
    p, n = factor.num, factor.den
    lhs = ((p * b).diff(0) - (p * a).diff(1)) * n - p * (b * n.diff(0) - a * n.diff(1))
    return lhs.is_zero()


def divides(gv, g, f) -> bool:
    """Whether g divides f, confirmed by multiplying the quotient back."""
    try:
        q = gv.exact_div(f, g)
    except gv.GvError:
        return False
    return q * g == f


# ---------------------------------------------------------------------------
# finite_gv: the finite-sequence theorem in characteristic 0

# Order-5 curve sequences cost 0.11-0.54 s each and set most of the run-to-run
# spread; orders 5-7 are exercised by the unshifted family instead.
FINITE_CURVE_ORDERS = (3, 4)
FINITE_UNSHIFTED_SHAPES = ((1, 4), (1, 5), (1, 6), (1, 7), (2, 5), (2, 7))
FINITE_PULLBACK_DEGREE = 2
GV_BRANCHES = (
    "subleading-vanishes",
    "no-kernel-multipliers",
    "closed-defining-form",
    "multiplier-sum-rescale",
    "kernel-aligned-rescale",
    "independent-kernel-multipliers",
    "kernel-slope-mismatch",
)


def finite_gv_generate(gv, rng, i):
    # One curve sequence per two unshifted ones: the families' costs barely
    # overlap, so equal shares would put the median latency between them.
    if i % 3 == 0:
        n = FINITE_CURVE_ORDERS[(i // 3) % len(FINITE_CURVE_ORDERS)]
        chart = gv.Chart(("u", "z"), 0)
        # a nonzero slope in every h_k: constant h_k make the cost spread 3x wider
        hs = [linear_in(chart, rng, "u", slopes=(-1, 1)) for _ in range(n)]
        hs.append(chart.const(rng.randint(1, 2)))
        return ("curve", curve_sequence(gv, hs))
    j = 2 * (i // 3) + i % 3 - 1
    r, n = FINITE_UNSHIFTED_SHAPES[j % len(FINITE_UNSHIFTED_SHAPES)]
    xy = gv.Chart(("x", "y"), 0)
    x, y = xy.var("x"), xy.var("y")
    dx = gv.DiffForm.coordinate(xy, "x")
    dy = gv.DiffForm.coordinate(xy, "y")
    zero = gv.DiffForm.zero(xy, 1)
    slope = linear_in(xy, rng, "x", -1, 1)
    columns = [zero, dx * slope + dy / (r * y)]
    for k in range(2, n + 1):
        if k == n - 1 or (k - 1) % r:
            columns.append(zero)
            continue
        c = rng.randint(1, 2) if k == n else rng.randint(-2, 2)
        columns.append(dx * (xy.const(c) * x ** rng.randint(0, 2) * y ** ((k - 1) // r)))
    return ("unshifted", unshift(gv, columns))


def finite_gv_run(gv, inp):
    family, s = inp
    report = gv.finite_gv_verify(s)
    outcome = gv.finite_gv_classify(s)
    outputs = [report, outcome]
    labels = [f"gv.branch.{outcome.branch}"]
    if isinstance(outcome, gv.Inconclusive):
        labels = ["gv.outcome.Inconclusive"]
    if family == "unshifted":
        try:
            outputs.append(
                gv.finite_gv_pullback(s, s.chart.var("x"), FINITE_PULLBACK_DEGREE)
            )
            labels.append("gv.outcome.pullback")
        except gv.NotExpressible as err:
            outputs.append(f"NotExpressible: {err}")
            labels.append("gv.outcome.NotExpressible")
    return outputs, labels


def finite_gv_check(gv, inp, outputs):
    family, s = inp
    report, outcome = outputs[0], outputs[1]
    require(report.ok, "finite_gv_verify rejected a genuine finite sequence")
    w0 = s.forms[0]
    top = s.trimmed().forms[-1]
    if isinstance(outcome, gv.AffineCertificate):
        require(
            gv.ext_d(outcome.omega) == gv.wedge(outcome.omega, outcome.eta),
            "affine certificate: d w != w ^ eta",
        )
        require(gv.ext_d(outcome.eta).is_zero(), "affine certificate: eta not closed")
        require(gv.wedge(outcome.omega, w0).is_zero(), "affine certificate: other foliation")
    elif isinstance(outcome, gv.ClosedKernelWitness):
        fn = outcome.function
        require(not fn.is_constant(), "witness is constant")
        a = gv.RatFn.from_poly(fn.num)
        b = gv.RatFn.from_poly(fn.den)
        cleared = gv.ext_d(a) * b - gv.ext_d(b) * a
        require(gv.wedge(cleared, top).is_zero(), "witness: (b da - a db) ^ top != 0")
    else:
        raise CheckFailed(f"classification did not conclude: {outcome}")
    if family == "unshifted" and not isinstance(outputs[2], str):
        pb = outputs[2]
        pulled = gv.pullback(list(pb.mapping), pb.form)
        require(pulled == w0 * pb.cofactor, "pullback(mapping, form) != w0 * cofactor")


# ---------------------------------------------------------------------------
# charp_factors and charp_sieve: integrating factors in characteristic p

CHARP_FACTOR_PRIMES = (2, 3, 5, 5, 5, 5, 7, 7)
CHARP_SIEVE_PRIMES = (2,)
CHARP_DEGREE = 2


def charp_generate(primes):
    def generate(gv, rng, i):
        chart = gv.Chart(("x", "y"), primes[i % len(primes)])
        return random_form(gv, chart, rng, CHARP_DEGREE)

    return generate


def charp_factors_run(gv, w):
    try:
        return [gv.integrating_factor(w)], ["charp.outcome.factor"]
    except gv.PClosedCase as err:
        return [f"PClosedCase: {err}"], ["charp.outcome.p_closed"]


def check_factor_or_p_closed(gv, w, out):
    if isinstance(out, str):
        p = w.chart.characteristic
        frame = gv.dual_frame(w)
        for x in frame.kernel_fields:
            xp = gv.vf_pth_power(x, p)
            require(gv.form_apply(w, xp).is_zero(), "p-closed: w(X^p) != 0")
        return
    require(closed_identity(gv, w, out), "d(F w) != 0")


def charp_factors_check(gv, w, outputs):
    check_factor_or_p_closed(gv, w, outputs[0])


def is_pth_power_error(err) -> bool:
    return type(err).__name__ == "GvError" and "p-th power" in str(err)


def charp_sieve_run(gv, w):
    outputs, labels = charp_factors_run(gv, w)
    if labels == ["charp.outcome.p_closed"]:
        return outputs, labels
    try:
        outputs.append(gv.invariant_hypersurface_candidates(outputs[0], w))
        labels.append("charp.outcome.candidates")
    except gv.GvError as err:
        if not is_pth_power_error(err):
            raise
        outputs.append(f"GvError: {err}")
        labels.append("charp.outcome.pth_power_factor")
    return outputs, labels


def charp_sieve_check(gv, w, outputs):
    factor = outputs[0]
    check_factor_or_p_closed(gv, w, factor)
    if len(outputs) == 1:
        return
    chart = w.chart
    if isinstance(outputs[1], str):
        require(
            all(factor.diff(v).is_zero() for v in range(chart.dim)),
            "p-th power outcome for a factor with a nonzero derivative",
        )
        return
    a, b = (c.num for c in w.coeffs())
    for g, verified in outputs[1]:
        require(not g.is_constant(), "constant candidate")
        require(
            divides(gv, g, factor.num) or divides(gv, g, factor.den),
            "candidate divides neither part of the factor",
        )
        if verified:
            # g = 0 invariant: g divides the contraction dg(w^perp) = A g_y - B g_x
            require(divides(gv, g, a * g.diff(1) - b * g.diff(0)), "candidate not invariant")


# ---------------------------------------------------------------------------
# series_moves: z-series moves and projective triples, characteristic 0

SERIES_CURVE_ORDERS = (2, 3, 4)
SERIES_SHIFT_ORDERS = (1, 2, 3)
SERIES_UPTO = 8
NONZERO_SMALL = (-2, -1, 1, 2)


def nonzero_linear(chart, rng, name):
    while True:
        f = linear_in(chart, rng, name)
        if not f.is_zero():
            return f


def series_generate(gv, rng, i):
    chart = gv.Chart(("u", "z"), 0)
    n = SERIES_CURVE_ORDERS[i % len(SERIES_CURVE_ORDERS)]
    hs = [linear_in(chart, rng, "u") for _ in range(n)]
    hs.append(chart.const(rng.randint(1, 2)))
    base = gv.Chart(("x",), 0)
    dx = gv.DiffForm.coordinate(base, "x")
    x = base.var("x")
    alpha = dx * (linear_in(base, rng, "x") + x * x * base.const(rng.randint(-1, 1)))
    beta = dx * linear_in(base, rng, "x")
    gamma = dx * nonzero_linear(base, rng, "x")
    return {
        "seq": curve_sequence(gv, hs),
        "shift": (nonzero_linear(chart, rng, "u"), SERIES_SHIFT_ORDERS[(i // 3) % 3]),
        "rescale": chart.const(rng.choice(NONZERO_SMALL) * rng.randint(1, 3)),
        "sub": [chart.const(rng.choice(NONZERO_SMALL))]
        + [linear_in(chart, rng, "u") for _ in range(2)],
        "riccati": (alpha, beta, gamma),
        "gauge_g": rng.randint(-2, 2),
        "gauge_g_slope": rng.randint(-1, 1),
        "gauge_f": rng.choice(NONZERO_SMALL) * rng.randint(1, 3),
    }


def series_run(gv, inp):
    s = inp["seq"]
    chart = s.chart
    f, order = inp["shift"]
    shifted = gv.gv_shift(s, f, order)
    rescaled = gv.gv_rescale(s, inp["rescale"])
    sub = gv.Substitution.normalized(chart, inp["sub"])
    moved = gv.substitute_series(s.as_formal(), sub, SERIES_UPTO)
    moved_seq = gv.GVSequence(moved.coeffs)
    t = gv.riccati_triple(*inp["riccati"])
    x = t.chart.var("x")
    g = t.chart.const(inp["gauge_g"]) + x * t.chart.const(inp["gauge_g_slope"])
    t_g = gv.triple_gauge(t, "G", g)
    t_f = gv.triple_gauge(t_g, "F", inp["gauge_f"])
    suspension = gv.suspension_form(t_f)
    defects = gv.structure_defects(suspension)
    outputs = [
        shifted,
        gv.gv_verify(shifted),
        rescaled,
        gv.gv_verify(rescaled),
        moved_seq,
        gv.gv_verify(moved_seq),
        t,
        t_g,
        t_f,
        suspension,
        defects,
    ]
    return outputs, []


def series_check(gv, inp, outputs):
    s = inp["seq"]
    w0 = s.forms[0]
    shifted, shifted_ok, rescaled, rescaled_ok, moved, moved_ok = outputs[:6]
    t, t_g, t_f, suspension, defects = outputs[6:]
    require(shifted_ok.ok and rescaled_ok.ok and moved_ok.ok, "a move broke gv_verify")
    require(shifted.forms[0] == w0, "gv_shift moved omega_0")
    require(rescaled.forms[0] * inp["rescale"] == w0, "gv_rescale: omega_0 != w0 / c")
    require(moved.forms[0] * inp["sub"][0] == w0, "substitute_series: omega_0 != w0 / f_1")
    for triple in (t, t_g, t_f):
        require(gv.triple_verify(triple).ok, "a triple fails its relations")
    require(gv.wedge(t_f.w0, t.w0).is_zero(), "gauges changed the foliation")
    require(suspension.coeffs[0] == t_f.w0, "suspension omega_0 is not w0")
    require(all(d.is_zero() for d in defects), "suspension has a nonzero defect")


WORKLOADS = {
    wl.name: wl
    for wl in (
        # The paper's finite-sequence theorem over Q; poly_gcd takes most of the
        # time, so a gcd change over Q should show here.
        Workload(
            name="finite_gv",
            pool_size=200,
            trace_instances=80,
            generate=finite_gv_generate,
            run=finite_gv_run,
            check=finite_gv_check,
            labels=tuple(f"gv.branch.{b}" for b in GV_BRANCHES)
            + ("gv.outcome.pullback", "gv.outcome.NotExpressible", "gv.outcome.Inconclusive"),
        ),
        # Time goes to MultiPoly arithmetic and the trial exact_div of the
        # fraction reduction, little to poly_gcd: the MultiPoly constructor's
        # workload, and one a gcd change should barely move.  The costs of
        # the four primes barely overlap; with p = 5 half of the cycle and
        # p = 7 a quarter, the median latency falls in the middle of the
        # p = 5 costs and the 90th percentile inside the p = 7 ones.
        Workload(
            name="charp_factors",
            pool_size=200,
            trace_instances=60,
            generate=charp_generate(CHARP_FACTOR_PRIMES),
            run=charp_factors_run,
            check=charp_factors_check,
            labels=("charp.outcome.factor", "charp.outcome.p_closed"),
        ),
        # The sieve normalizes large RatFns through the gcd mod p: a gcd
        # change that helps Q but slows F_p shows here.  At p = 3 one instance
        # takes 0.004-4.6 s, too few per run to be steady; p >= 5 hangs.
        Workload(
            name="charp_sieve",
            pool_size=1000,
            trace_instances=300,
            generate=charp_generate(CHARP_SIEVE_PRIMES),
            run=charp_sieve_run,
            check=charp_sieve_check,
            labels=(
                "charp.outcome.factor",
                "charp.outcome.p_closed",
                "charp.outcome.candidates",
                "charp.outcome.pth_power_factor",
            ),
        ),
        # The only load on zseries and transverse.  A non-constant f_1 or
        # F-move brings in denominators and takes 3-176 s per instance.
        Workload(
            name="series_moves",
            pool_size=200,
            trace_instances=80,
            generate=series_generate,
            run=series_run,
            check=series_check,
        ),
    )
}
