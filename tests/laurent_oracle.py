"""The reference Laurent arithmetic the fused kernel in ``ivhecke.laurent`` replaced.

Each function is the body ``LaurentPoly`` used before its trusted
constructor, monomial fast path and ``addmul`` existed: every result goes
through the public constructor, which trims it again.  Tests compare the
kernel with these on random polynomials.

The JSON reader and three membership predicates live here too: no command
reads a polynomial back or asks these questions, but the tests do.
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


def negate_v(p):
    if not p.coeffs:
        return p
    return LaurentPoly(
        p.val,
        tuple(c if (p.val + i) % 2 == 0 else -c for i, c in enumerate(p.coeffs)),
    )


def split_antisymmetric(d):
    if bar(d) != neg(d):
        raise NotAntisymmetric(f"bar(d) != -d for d = {d}")
    return LaurentPoly.from_terms({e: c for e, c in d.terms() if e < 0})


def from_json(data):
    """The inverse of ``LaurentPoly.to_json``."""
    return LaurentPoly.from_terms({int(e): int(c) for e, c in data.items()})


# membership predicates the tests phrase degree bounds and positivity in

def only_negative_exponents(p):
    """p in v^-1 Z[v^-1]."""
    return not p.coeffs or p.degree <= -1


def bar_invariant(p):
    """p == bar(p), i.e. p in Z[v + v^-1]."""
    return p.bar() == p


def nonnegative_coeffs(p):
    return all(c >= 0 for _, c in p.terms())
