"""The reference Laurent arithmetic the fused kernel in ``ivhecke.laurent`` replaced.

Each function is the body ``LaurentPoly`` used before its trusted
constructor, monomial fast path and ``addmul`` existed: every result goes
through the public constructor, which trims it again.  Tests compare the
kernel with these on random polynomials.
"""

from ivhecke.laurent import ZERO, LaurentPoly, NotAntisymmetric


def coerce(p):
    if isinstance(p, LaurentPoly):
        return p
    return LaurentPoly(0, (p,))


def neg(p):
    p = coerce(p)
    return LaurentPoly(p.val, tuple(-c for c in p.coeffs))


def add(p, q):
    p, q = coerce(p), coerce(q)
    if not p.coeffs:
        return q
    if not q.coeffs:
        return p
    lo = min(p.val, q.val)
    hi = max(p.val + len(p.coeffs), q.val + len(q.coeffs))
    out = [0] * (hi - lo)
    for i, c in enumerate(p.coeffs):
        out[p.val - lo + i] = c
    for i, c in enumerate(q.coeffs):
        out[q.val - lo + i] += c
    return LaurentPoly(lo, out)


def sub(p, q):
    return add(p, neg(q))


def mul(p, q):
    p, q = coerce(p), coerce(q)
    if not p.coeffs or not q.coeffs:
        return ZERO
    a, b = p.coeffs, q.coeffs
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] += ca * cb
    return LaurentPoly(p.val + q.val, out)


def addmul(p, a, b):
    return add(p, mul(a, b))


def bar(p):
    if not p.coeffs:
        return p
    return LaurentPoly(-(p.val + len(p.coeffs) - 1), tuple(reversed(p.coeffs)))


def split_antisymmetric(d):
    if bar(d) != neg(d):
        raise NotAntisymmetric(f"bar(d) != -d for d = {d}")
    return LaurentPoly.from_terms({e: c for e, c in d.terms() if e < 0})
