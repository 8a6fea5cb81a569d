"""The integer core of polynomial arithmetic: term dictionaries on packed keys.

A term dictionary maps monomial keys to nonzero ints: integers over Z when
p = 0, residues in [0, p) over F_p.  `field.MultiPoly` keeps its
denominator outside the dictionary; a denominator is a scalar, so products,
sums, exact division and the gcd below run unchanged for both fields.

A key packs the exponents of x_0, ..., x_{n-1} into one int of n + 1 fields
of W bits each: the total degree in the top field, then x_0, ..., x_{n-1}
down to the lowest field (the packed exponent vectors of Monagan and Pearce,
CASC 2007).  Int order compares the degree first and then the exponents
lexicographically, so it is graded-lex order, and the key of a product of
monomials is the sum of their keys.  The top bit of every field is a guard
bit that stays 0: no degree, hence no exponent, reaches 2^(W-1), so a sum of
two keys never carries from one field into the next.  `field.MultiPoly`
checks that bound on input and `_mul_terms` once per product, and both raise
`GvError` when it is reached.  With every guard bit of a key set, subtracting
another key clears exactly the guards of the fields that would go negative,
which tests divisibility of monomials in one step.

The gcd has three routes.  Over Z, `_heu_gcd` (GCDHEU) tries first: it sets
the variable of the lowest field to a large integer, recurses down to
`math.gcd`, reads a candidate back from balanced digits and keeps it only
when trial division by it is exact; those quotients are the cofactors.  Over
F_p, `_gcd_terms` answers from univariate images before any PRS: operands in
one variable go to a dense Euclid (`_euclid`), whose monic gcd is the gcd
itself, and `_coprime` proves most other gcds constant from the gcds of
images at a few points.  When neither settles it, and over Z when GCDHEU
gives up and the same test mod a large prime fails (`_z_coprime`), the
primitive PRS of `_gcd_terms` runs.  It makes only the divisor primitive,
folds the other operand's coefficients into the divisor's content until that
reaches 1, and cancels a unit leading coefficient in place instead of
scaling each pseudo-remainder.
"""

from __future__ import annotations

import math
from functools import lru_cache, reduce
from operator import or_

from .errors import GvError

W = 16  # bits per field
HALF = 1 << W - 1  # the guard bit of the lowest field; every field stays below it
MASK = (1 << W) - 1
HEU_GCD_MAX = 6  # evaluation points GCDHEU tries before it gives up
# primes below 2^31 for the coprimality test over Z, which takes the first
# one that divides neither leading coefficient
Z_PRIMES = (2147483647, 2147483629, 2147483587)


def _pack(exp) -> int:
    """The key of an exponent tuple whose total degree is below HALF."""
    key = sum(exp)
    for e in exp:
        key = key << W | e
    return key


def _unpack(key: int, n: int) -> tuple[int, ...]:
    """The exponent tuple of a key on n variables."""
    return tuple(key >> W * i & MASK for i in range(n - 1, -1, -1))


def _var(n: int, v: int) -> tuple[int, int]:
    """(bit offset of the x_v field, key of x_v) on n variables."""
    s = W * (n - 1 - v)
    return s, 1 << W * n | 1 << s


def _guards(key: int) -> int:
    """The guard bits of every field up to the top field of key."""
    return HALF * ((1 << W * ((key.bit_length() + W - 1) // W)) - 1) // MASK


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
    """Add the product of nonzero term dicts a and b into out (a new dict by default)."""
    # the largest key of the product is the sum of the largest keys; its top
    # field is the degree, which reached HALF when that bit is its guard bit
    top = max(a) + max(b)
    if top and top.bit_length() % W == 0:
        raise GvError(f"total degree reaches 2^{W - 1}: exponents overflow")
    out = {} if out is None else out
    get = out.get
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            s = get(e, 0) + c1 * c2
            if p:
                s %= p
            if s:
                out[e] = s
            elif e in out:
                del out[e]
    return out


def _diff_terms(a: dict, s: int, u: int, p: int, k: int = 1, out: dict | None = None) -> dict:
    """Add k times the partial derivative of the term dict a in the variable
    with key u and field offset s into out (a new dict by default)."""
    out = {} if out is None else out
    get = out.get
    for e, c in a.items():
        m = e >> s & MASK
        if m:
            # one degree less in the variable and in total
            e -= u
            t = get(e, 0) + c * m * k
            if p:
                t %= p
            if t:
                out[e] = t
            elif e in out:
                del out[e]
    return out


def _coeffs(terms: dict, s: int, u: int) -> dict[int, dict]:
    """Split by the exponent of the variable with key u and field offset s:
    k -> coefficient of its k-th power, with that exponent zero."""
    out: dict[int, dict] = {}
    for e, c in terms.items():
        k = e >> s & MASK
        out.setdefault(k, {})[e - k * u] = c
    return out


def _div_terms(a: dict, b: dict, p: int) -> dict:
    """Exact quotient of nonzero term dicts over Z or F_p; raises unless b divides a."""
    lead = max(b)
    lc = b[lead]
    inv = pow(lc, p - 2, p) if p else None
    tail = [(e, c) for e, c in b.items() if e != lead]
    g = _guards(lead)
    q = {}
    # the remainder; each step cancels its leading term in place
    r = dict(a)
    while r:
        key = max(r)
        cr = r.pop(key)
        c = cr * inv % p if p else cr // lc
        # a field of key below the one of lead borrows and clears its guard bit
        if ((key | g) - lead) & g != g or (not p and c * lc != cr):
            raise GvError("polynomial division is not exact")
        shift = key - lead
        q[shift] = c
        for e, ct in tail:
            k = shift + e
            s = r.get(k, 0) - c * ct
            if p:
                s %= p
            if s:
                r[k] = s
            else:
                r.pop(k, None)
    return q


def _min_exp(keys) -> int:
    """The key of the fieldwise minimum of the exponents: the monomial content."""
    top = max(keys)
    if not top:
        return 0
    g = _guards(top)
    m = top
    for k in keys:
        # all ones in the fields where m is at least k
        ge = ((((m | g) - k) & g) >> W - 1) * MASK
        m = m & ~ge | k & ge
    # the degree field became a minimum too; put the sum of the exponents back
    d = (top.bit_length() - 1) // W * W
    low = m & (1 << d) - 1
    return low % MASK << d | low


def _normal(terms: dict, p: int) -> dict:
    """Over Z: no integer content and a positive leading coefficient; over F_p: monic."""
    lc = terms[max(terms)]
    if p:
        inv = pow(lc, p - 2, p)
        return {e: c * inv % p for e, c in terms.items()} if inv != 1 else terms
    g = math.gcd(*terms.values())
    g = -g if lc < 0 else g
    return {e: c // g for e, c in terms.items()} if g != 1 else terms


def _primitive(f: dict, s: int, u: int, p: int) -> tuple[dict, dict]:
    """(primitive part, content) of f as a polynomial in the variable (s, u)."""
    parts = sorted(_coeffs(f, s, u).values(), key=len)
    content = parts[0]
    for c in parts[1:]:
        content = _gcd_terms(content, c, p)
        if content == {0: 1}:
            break
    return _normal(_div_terms(f, content, p), p), content


def _degrees(a: dict, b: dict) -> tuple[int, list[tuple[int, int, int]]]:
    """(offset of the degree field, [(offset, degree in a, degree in b)] for
    each variable field that occurs in a or b, lowest first) for nonzero term
    dicts, one of them not constant."""
    d = (max(max(a), max(b)).bit_length() - 1) // W * W
    low = (reduce(or_, a) | reduce(or_, b)) & (1 << d) - 1
    return d, [
        (t, max(e >> t & MASK for e in a), max(e >> t & MASK for e in b))
        for t in range(0, d, W)
        if low >> t & MASK
    ]


def _euclid(a: list[int], b: list[int], p: int) -> list[int]:
    """The monic gcd over F_p of dense coefficient lists, highest power first;
    the leading entry of a is nonzero, b may start with zeros or be zero."""
    while True:
        k = 0
        while k < len(b) and not b[k]:
            k += 1
        if k == len(b):
            inv = pow(a[0], p - 2, p)
            return [c * inv % p for c in a] if inv != 1 else a
        if k == len(b) - 1:
            return [1]  # b is a nonzero constant
        b = b[k:]
        if len(a) < len(b):
            a, b = b, a
        inv = pow(b[0], p - 2, p)
        if inv != 1:
            b = [c * inv % p for c in b]
        # the remainder of a by the monic b, its leading entries cancelled in turn
        n = len(b)
        r = a[:]
        top = len(r) - n + 1
        for i in range(top):
            c = r[i]
            if c:
                for j in range(1, n):
                    r[i + j] = (r[i + j] - c * b[j]) % p
        a, b = b, r[top:]


@lru_cache(maxsize=64)  # keyed by (characteristic, number of other variables)
def _points(p: int, m: int) -> tuple[tuple[int, ...], ...]:
    """Up to 8 distinct points of F_p^m.

    Point i is the base-p digits of i q mod p^m, q = 1 + p + ... + p^(m-1);
    q is a unit, so i = 1, 2, ... give distinct points, and the first p - 1
    of them are the diagonal ones (i, ..., i).  The origin comes last, and
    only when p^m <= 8.
    """
    n = p**m
    q = (n - 1) // (p - 1)
    return tuple(
        tuple(i * q % n // p**k % p for k in range(m)) for i in range(1, min(8, n) + 1)
    )


def _image(f: dict, s: int, deg: int, point: list[tuple[int, int]], p: int) -> list[int]:
    """The dense coefficients over F_p, highest power first, of f (of degree
    deg in the variable at field offset s) with each other variable set by
    `point`, a list of (field offset, value); an empty `point` when no other
    variable occurs in f."""
    out = [0] * (deg + 1)
    for e, c in f.items():
        for t, x in point:
            k = e >> t & MASK
            if k:
                c *= x**k
        out[deg - (e >> s & MASK)] += c
    return [c % p for c in out]


def _coprime(a: dict, b: dict, degs: list[tuple[int, int, int]], p: int) -> bool:
    """True when images prove that nonzero term dicts a and b over F_p have a
    constant gcd; False leaves the question open.  `degs` is the list of
    `_degrees(a, b)`.

    The gcd g has degree 0 in a variable that occurs in only one operand.
    For each variable v that occurs in both, the other variables are set to
    up to 8 distinct points (`_points`), skipping each point where the leads
    of a and b in v both vanish.  At any other point the lead of g, a factor
    of both leads, does not vanish either, so the image of g keeps its
    degree in v and divides the gcd of the images.  A constant image gcd at
    such a point gives deg_v g = 0, and once that holds for every v, g is
    constant.  Occurrence is tested field by field: the bitwise or of all
    keys cannot tell y from y^2.
    """
    points = _points(p, len(degs) - 1)
    for s, da, db in degs:
        if not (da and db):
            continue
        others = [t for t, _, _ in degs if t != s]
        for values in points:
            point = list(zip(others, values))
            image_a, image_b = _image(a, s, da, point, p), _image(b, s, db, point, p)
            # the image whose lead survives goes first; the other may be zero
            if image_a[0]:
                g = _euclid(image_a, image_b, p)
            elif image_b[0]:
                g = _euclid(image_b, image_a, p)
            else:
                continue
            if len(g) == 1:
                break
        else:
            return False
    return True


def _z_coprime(a: dict, b: dict) -> bool:
    """True when `_coprime` proves term dicts a and b over Z, neither of them
    a monomial, coprime mod a prime that divides neither leading
    coefficient; False leaves the question open.

    Such a prime keeps the leading monomial of every factor of a: a common
    factor g of a and b reduces to a common factor of the images with the
    same leading monomial, so a constant gcd of the images makes g constant.
    """
    la, lb = a[max(a)], b[max(b)]
    p = next((q for q in Z_PRIMES if la % q and lb % q), 0)
    if not p:
        return False
    a = {e: c % p for e, c in a.items() if c % p}
    b = {e: c % p for e, c in b.items() if c % p}
    return _coprime(a, b, _degrees(a, b)[1], p)


def _gcd_terms(a: dict, b: dict, p: int) -> dict:
    """A gcd of nonzero term dicts over Z (p = 0) or F_p, normalized by `_normal`.

    Over F_p, once the shared monomial is taken out, operands in one
    variable go to the dense Euclid of `_euclid`, and any other pair that
    `_coprime` proves coprime gives the shared monomial; neither needs the
    PRS.  Otherwise, and always over Z, the primitive PRS (W. S. Brown,
    J. ACM 18, 1971) runs in the occurring variable of least degree in a
    and b (the last such variable on a tie).  Only the operand b of lower
    degree in that variable is made primitive: a common factor of a
    primitive b and prem(a, b) has no factor free of the variable, so it
    divides a, and every later remainder is made primitive.  The content gcd
    starts from the content of b and folds in the coefficients of a,
    smallest first, until it reaches 1; the content of a is never formed.  A
    unit leading coefficient of b divides out of each pseudo-remainder step
    instead of scaling the remainder.  Over Z the integer contents of a and
    b are ignored: the result is primitive.  Over Z it is the fallback of
    `_heu_gcd` and the reference its results are tested against.
    """
    if len(a) == 1 or len(b) == 1:
        # every divisor of a monomial is a monomial
        return {_min_exp([*a, *b]): 1}
    if a == b:
        return _normal(a, p)
    sa, sb = _min_exp(a), _min_exp(b)
    m = _min_exp((sa, sb))
    shared = {m: 1}
    if sa:
        a = {e - sa: c for e, c in a.items()}
    if sb:
        b = {e - sb: c for e, c in b.items()}
    d, degs = _degrees(a, b)
    if p:
        if len(degs) == 1:
            # one variable: the monic gcd of Euclid is the gcd itself
            ((s, ka, kb),) = degs
            u = 1 << d | 1 << s
            g = _euclid(_image(a, s, ka, [], p), _image(b, s, kb, [], p), p)
            top = len(g) - 1
            return {(top - k) * u + m: c for k, c in enumerate(g) if c}
        if _coprime(a, b, degs, p):
            return shared
    # the main variable is the occurring one of least max(deg_a, deg_b); a
    # high degree in the main variable swells the pseudo-remainders
    best = None
    for t, ka, kb in degs:
        # fields run from the last variable up, so ties keep the last one
        if best is None or max(ka, kb) < best:
            best, s, swap = max(ka, kb), t, ka < kb
    if swap:
        a, b = b, a
    u = 1 << d | 1 << s
    b, cb = _primitive(b, s, u, p)
    g = shared
    if any(cb):
        for c in sorted(_coeffs(a, s, u).values(), key=len):
            cb = _gcd_terms(cb, c, p)
            if not any(cb):
                break
        g = _mul_terms(g, cb, p)
    while b:
        # pseudo-remainder of a by b in the variable, then its primitive part
        parts = _coeffs(b, s, u)
        db = max(parts)
        lb = parts[db]
        off = db * u
        lc = lb.get(0, 0) if len(lb) == 1 else 0  # the lead if it is a constant
        unit = -pow(lc, p - 2, p) if p and lc else -lc if lc in (1, -1) else 0
        # with a unit lead, r - (lr/lb) x^k b cancels the lead of r in place;
        # otherwise lb r - lr x^k b does
        neg = unit or -1
        r = dict(a) if unit else a
        while r:
            # the leading part of r in the variable, in one pass
            dr = -1
            for e, c in r.items():
                k = e >> s & MASK
                if k >= dr:
                    if k > dr:
                        dr, lead = k, {}
                    lead[e] = c
            if dr < db:
                break
            lr = {e - off: c * neg for e, c in lead.items()}
            r = _mul_terms(lr, b, p, r if unit else _mul_terms(lb, r, p))
        a, b = b, _primitive(r, s, u, p)[0] if r else r
    # products of normalized factors are normalized (Gauss's lemma over Z)
    return _mul_terms(g, a, p) if any(e >> s & MASK for e in a) else g


def _evaluate(f: dict, xi: int, n: int) -> dict:
    """f on n variables with x_{n-1}, the lowest field, set to xi: a dict on n - 1."""
    top = W * (n - 1)
    out: dict = {}
    get = out.get
    for e, c in f.items():
        v = e & MASK
        # drop the lowest field and take its exponent off the degree field
        k = (e >> W) - (v << top)
        out[k] = get(k, 0) + c * xi**v
    return {k: c for k, c in out.items() if c}


def _interpolate(g: dict, xi: int, n: int) -> dict:
    """The dict on n variables whose coefficients are the balanced xi-adic
    digits of those of g on n - 1 variables, digit i going to x_{n-1}^i."""
    u = 1 << W * n | 1
    half = xi >> 1
    out = {}
    for k, c in g.items():
        k <<= W
        while c:
            d = c % xi
            if d > half:
                d -= xi
            if d:
                out[k] = d
            c = (c - d) // xi
            k += u
    return out


def _quo(a: dict, b: dict) -> dict | None:
    """a / b over Z, or None unless b divides a."""
    # a divisor's leading monomial is at most a's; this also rejects a key
    # whose fields overflowed, since its degree field is then the largest
    if max(b) > max(a):
        return None
    try:
        return _div_terms(a, b, 0)
    except GvError:
        return None


def _heu_gcd(a: dict, b: dict, n: int) -> tuple[int, dict, dict, dict] | None:
    """(c, h, a/(c h), b/(c h)) for nonzero term dicts over Z on n variables,
    c the gcd of all their coefficients and h their `_normal` gcd; None when
    HEU_GCD_MAX evaluation points fail.

    The heuristic gcd of Char, Geddes and Gonnet (J. Symb. Comp. 7, 1989).
    With the content removed, x_{n-1} is set to an integer xi above
    2 min(|a|, |b|) + 2 (max norms) and the gcd of the images is found
    recursively, down to `math.gcd`.  The primitive part h of the polynomial
    whose coefficients are the balanced xi-adic digits of that gcd is kept
    only when trial division of both operands by it is exact.  At such a xi
    every root of a coefficient (in x_{n-1}) of the operand of smaller norm
    lies below xi / 2, so a common divisor read back this way is the gcd.
    """
    c = math.gcd(*a.values(), *b.values())
    if c != 1:
        a = {e: v // c for e, v in a.items()}
        b = {e: v // c for e, v in b.items()}
    if not n:
        return c, {0: 1}, a, b
    xi = 2 * min(max(map(abs, a.values())), max(map(abs, b.values()))) + 29
    for attempt in range(HEU_GCD_MAX):
        if attempt:
            xi = 73794 * xi * math.isqrt(math.isqrt(xi)) // 27011
        ea, eb = _evaluate(a, xi, n), _evaluate(b, xi, n)
        if not (ea and eb):
            # xi is a root of the operand of larger norm
            continue
        found = _heu_gcd(ea, eb, n - 1)
        if found is None:
            return None
        ci, hi = found[:2]
        h = _normal(_interpolate(_times(hi, ci), xi, n), 0)
        if h == {0: 1}:
            # a constant divides both, so the gcd is 1
            return c, h, a, b
        qa = _quo(a, h)
        qb = qa and _quo(b, h)
        if qb:
            return c, h, qa, qb
    return None
