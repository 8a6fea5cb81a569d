"""The integer core of polynomial arithmetic: plain term dictionaries.

A term dictionary maps exponent tuples to nonzero ints: integers over Z when
p = 0, residues in [0, p) over F_p.  `field.MultiPoly` keeps its
denominator outside the dictionary; a denominator is a scalar, so products,
sums, exact division and the gcd below run unchanged for both fields.
Monomials are ordered graded-lexicographically (`_grlex`).
"""

from __future__ import annotations

import math
from operator import add, sub

from .errors import GvError


def _grlex(exp: tuple[int, ...]) -> tuple:
    return (sum(exp), exp)


def _times(a: dict, k: int) -> dict:
    """The term dict a times the integer k (no reduction mod p)."""
    return {e: c * k for e, c in a.items()} if k != 1 else a


def _add_terms(a: dict, b: dict, p: int) -> dict:
    """The sum of term dicts a and b."""
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if p:
            s %= p
        if s:
            out[e] = s
        elif e in out:
            del out[e]
    return out


def _mul_terms(a: dict, b: dict, p: int, out: dict | None = None) -> dict:
    """Add the product of term dicts a and b into out (a new dict by default)."""
    out = {} if out is None else out
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            s = out.get(e, 0) + c1 * c2
            if p:
                s %= p
            if s:
                out[e] = s
            elif e in out:
                del out[e]
    return out


def _coeffs(terms: dict, v: int) -> dict[int, dict]:
    """Split by the exponent of x_v: k -> coefficient of x_v^k, its x_v-exponent zero."""
    out: dict[int, dict] = {}
    for e, c in terms.items():
        k = e[v]
        out.setdefault(k, {})[e[:v] + (0,) + e[v + 1 :] if k else e] = c
    return out


def _div_terms(a: dict, b: dict, p: int) -> dict:
    """Exact quotient of nonzero term dicts over Z or F_p; raises unless b divides a."""
    eb = max(b, key=_grlex)
    lc = b[eb]
    inv = pow(lc, p - 2, p) if p else None
    tail = [(sum(e), e, c) for e, c in b.items() if e != eb]
    db = sum(eb)
    q = {}
    # remainder keyed by grlex key; each step cancels its leading term in place
    r = {(sum(e), e): c for e, c in a.items()}
    while r:
        key = max(r)
        cr = r.pop(key)
        diff = tuple(map(sub, key[1], eb))
        c = cr * inv % p if p else cr // lc
        if min(diff) < 0 or (not p and c * lc != cr):
            raise GvError("polynomial division is not exact")
        q[diff] = c
        dd = key[0] - db
        for d, e, ct in tail:
            k = (dd + d, tuple(map(add, diff, e)))
            s = r.get(k, 0) - c * ct
            if p:
                s %= p
            if s:
                r[k] = s
            else:
                r.pop(k, None)
    return q


def _min_exp(exps) -> tuple[int, ...]:
    """Componentwise minimum of exponent tuples: the monomial content."""
    return tuple(map(min, zip(*exps)))


def _normal(terms: dict, p: int) -> dict:
    """Over Z: no integer content and a positive leading coefficient; over F_p: monic."""
    lc = terms[max(terms, key=_grlex)]
    if p:
        inv = pow(lc, p - 2, p)
        return {e: c * inv % p for e, c in terms.items()} if inv != 1 else terms
    g = math.gcd(*terms.values())
    g = -g if lc < 0 else g
    return {e: c // g for e, c in terms.items()} if g != 1 else terms


def _primitive(f: dict, v: int, p: int) -> tuple[dict, dict]:
    """(primitive part, content) of f as a polynomial in x_v."""
    parts = sorted(_coeffs(f, v).values(), key=len)
    content = parts[0]
    one = {(0,) * len(next(iter(f))): 1}
    for c in parts[1:]:
        content = _gcd_terms(content, c, p)
        if content == one:
            break
    return _normal(_div_terms(f, content, p), p), content


def _gcd_terms(a: dict, b: dict, p: int) -> dict:
    """A gcd of nonzero term dicts over Z (p = 0) or F_p, normalized by `_normal`.

    Primitive PRS (W. S. Brown, J. ACM 18, 1971) in the last variable that
    occurs, with the contents in that variable taken recursively.  Over Z the
    integer contents of a and b are ignored: the result is primitive.
    """
    if len(a) == 1 or len(b) == 1:
        # every divisor of a monomial is a monomial
        return {_min_exp([*a, *b]): 1}
    if a == b:
        return _normal(a, p)
    sa, sb = _min_exp(a), _min_exp(b)
    shared = {tuple(map(min, sa, sb)): 1}
    if any(sa):
        a = {tuple(map(sub, e, sa)): c for e, c in a.items()}
    if any(sb):
        b = {tuple(map(sub, e, sb)): c for e, c in b.items()}
    v = max(i for i, d in enumerate(map(max, zip(*a, *b))) if d)
    a, ca = _primitive(a, v, p)
    b, cb = _primitive(b, v, p)
    if max(e[v] for e in a) < max(e[v] for e in b):
        a, b = b, a
    while b:
        # pseudo-remainder of a by b in x_v, then its primitive part
        parts = _coeffs(b, v)
        db = max(parts)
        lb = parts[db]
        r = a
        while r:
            parts = _coeffs(r, v)
            dr = max(parts)
            if dr < db:
                break
            lr = {e[:v] + (dr - db,) + e[v + 1 :]: -c for e, c in parts[dr].items()}
            r = _mul_terms(lr, b, p, _mul_terms(lb, r, p))
        a, b = b, _primitive(r, v, p)[0] if r else r
    g = _mul_terms(shared, _gcd_terms(ca, cb, p), p)
    # products of normalized factors are normalized (Gauss's lemma over Z)
    return _mul_terms(g, a, p) if max(e[v] for e in a) else g
