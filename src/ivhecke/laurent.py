"""Exact arithmetic in A = Z[v, v^-1], the ring of integer Laurent polynomials.

A Laurent polynomial is stored densely as a valuation ``val`` (the lowest
exponent) together with a coefficient tuple ``coeffs``, so that

    p = sum(coeffs[i] * v**(val + i) for i in range(len(coeffs)))

with ``coeffs`` trimmed of leading/trailing zeros.  The zero polynomial is
the unique value with ``coeffs == ()``.  This makes equality and hashing
structural, which the table-building code relies on heavily.

Every value obeys this normalization invariant: either ``(val, coeffs) ==
(0, ())`` or ``coeffs[0]`` and ``coeffs[-1]`` are both nonzero.  The public
constructor trims to establish it.  Results that keep it by construction
skip the trim and go through the private ``_make``: a product of two
normalized polynomials (Z has no zero divisors, so the end coefficients
multiply to nonzero ends), ``bar`` and negation (which reverse or negate
the tuple), ``negate_v`` (which negates some coefficients), and the
strictly negative part of an antisymmetric element (trimmed at its one
open end).  Sums are trimmed once, in the buffer they were accumulated in;
``p.addmul(a, b)`` computes p + a*b that way without the temporary
product:

>>> V.addmul(U, 2)   # v + 2*(v - v^-1)
LaurentPoly('-2*v^-1 + 3*v')

Besides ring arithmetic the module provides the three ring endomorphisms
used throughout:

* ``bar``      -- v |-> v^-1   (the bar involution),
* ``negate_v`` -- v |-> -v,
* ``square_v`` -- v |-> v^2    (embeds A into itself; doubles exponents),

exact division, and the "split" operation that extracts the strictly
negative part mu of a bar-antisymmetric element d, i.e. the unique
mu in v^-1 Z[v^-1] with mu - bar(mu) = d.  That split drives the
canonical-basis solve from a bar involution's rows; its companion
``split_bar_invariant`` drives the descent recurrence, peeling the
bar-invariant part off a coefficient.

A packed-integer kernel serves checks that only multiply, add and
compare: ``pack`` evaluates p * v^shift at v^-1 = 2^K (Kronecker
substitution), ``unpack`` reads the polynomial back from balanced base-2^K
digits, and ``digit_width`` picks the least K that holds a coefficient
bound, so packed sums stay exact.

>>> p = LaurentPoly.from_terms({1: 1, -1: -1})   # v - v^-1
>>> p.bar()
LaurentPoly('v^-1 - v')
>>> p * p
LaurentPoly('v^-2 - 2 + v^2')
>>> split_antisymmetric(LaurentPoly.from_terms({-2: 3, 2: -3}))
LaurentPoly('3*v^-2')
"""

from __future__ import annotations

from operator import add as _add, sub as _sub
from typing import Iterable, Iterator, Mapping, Union

IntLike = Union[int, "LaurentPoly"]


class NotDivisible(ArithmeticError):
    """Raised by exact_div when the quotient does not lie in Z[v, v^-1]."""


class NotAntisymmetric(ValueError):
    """Raised by split_antisymmetric when bar(d) != -d."""


class LaurentPoly:
    """Immutable integer Laurent polynomial.

    >>> LaurentPoly(-2, (-1, 0, 1, 0, 0, 2))
    LaurentPoly('-v^-2 + 1 + 2*v^3')
    >>> LaurentPoly(5, ())
    LaurentPoly('0')
    """

    __slots__ = ("val", "coeffs")

    def __init__(self, val: int = 0, coeffs: Iterable[int] = ()) -> None:
        val, cs = _normalize(val, tuple(coeffs))
        _set_val(self, val)
        _set_coeffs(self, cs)

    def __setattr__(self, name, value):  # pragma: no cover - guard rail
        raise AttributeError("LaurentPoly is immutable")

    # ------------------------------------------------------------------
    # construction / destructuring

    @classmethod
    def from_terms(cls, terms: Union[Mapping[int, int], Iterable[tuple[int, int]]]) -> "LaurentPoly":
        """Build from {exponent: coefficient} or an iterable of pairs."""
        if isinstance(terms, Mapping):
            items = list(terms.items())
        else:
            items = list(terms)
        if not items:
            return ZERO
        acc: dict[int, int] = {}
        for e, c in items:
            acc[e] = acc.get(e, 0) + c
        acc = {e: c for e, c in acc.items() if c}
        if not acc:
            return ZERO
        lo = min(acc)
        hi = max(acc)
        return cls(lo, tuple(acc.get(e, 0) for e in range(lo, hi + 1)))

    @classmethod
    def from_int(cls, n: int) -> "LaurentPoly":
        return cls(0, (n,))

    def terms(self) -> Iterator[tuple[int, int]]:
        """Yield (exponent, coefficient) pairs, ascending, zeros skipped."""
        for i, c in enumerate(self.coeffs):
            if c:
                yield self.val + i, c

    def coeff(self, exponent: int) -> int:
        """Coefficient of v**exponent (0 if absent)."""
        i = exponent - self.val
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    @property
    def degree(self) -> int:
        """Highest exponent; raises on the zero polynomial."""
        if not self.coeffs:
            raise ValueError("zero polynomial has no degree")
        return self.val + len(self.coeffs) - 1

    @property
    def valuation(self) -> int:
        """Lowest exponent; raises on the zero polynomial."""
        if not self.coeffs:
            raise ValueError("zero polynomial has no valuation")
        return self.val

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    # ------------------------------------------------------------------
    # ring structure

    @staticmethod
    def _coerce(other: IntLike) -> "LaurentPoly":
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, int):
            return LaurentPoly(0, (other,))
        return NotImplemented  # type: ignore[return-value]

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not LaurentPoly:
            other = self._coerce(other)  # type: ignore[arg-type]
            if other is NotImplemented:
                return NotImplemented
        return self.val == other.val and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        # a constant hashes as the int it equals (zero as 0), as == requires
        cs = self.coeffs
        if self.val or len(cs) > 1:
            return hash((self.val, cs))
        return hash(cs[0]) if cs else 0

    def __neg__(self) -> "LaurentPoly":
        return _make(self.val, tuple([-c for c in self.coeffs]))

    def __add__(self, other: IntLike) -> "LaurentPoly":
        if other.__class__ is not LaurentPoly:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a = self.coeffs
        b = other.coeffs
        if not a:
            return other
        if not b:
            return self
        lo = self.val
        off = other.val - lo
        if off < 0:
            lo, off, a, b = other.val, -off, b, a
        out = list(a)
        end = off + len(b)
        if end > len(out):
            out += [0] * (end - len(out))
        for i, c in enumerate(b, off):
            out[i] += c
        return _trimmed(lo, out)

    __radd__ = __add__

    def addmul(self, a: IntLike, b: IntLike) -> "LaurentPoly":
        """self + a * b, accumulated in one buffer and trimmed once."""
        if a.__class__ is not LaurentPoly:
            a = self._coerce(a)
        if b.__class__ is not LaurentPoly:
            b = self._coerce(b)
        if a is NotImplemented or b is NotImplemented:
            raise TypeError("addmul takes int or LaurentPoly factors")
        ac = a.coeffs
        bc = b.coeffs
        if not ac or not bc:
            return self
        pc = self.coeffs
        if not pc:
            return a * b
        pv = a.val + b.val
        sv = self.val
        lo = sv if sv < pv else pv
        hi = max(sv + len(pc), pv + len(ac) + len(bc) - 1)
        out = [0] * (hi - lo)
        out[sv - lo:sv - lo + len(pc)] = pc
        _mac(out, pv - lo, ac, bc)
        return _trimmed(lo, out)

    def __sub__(self, other: IntLike) -> "LaurentPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: IntLike) -> "LaurentPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other: IntLike) -> "LaurentPoly":
        if other.__class__ is not LaurentPoly:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a = self.coeffs
        b = other.coeffs
        if not a or not b:
            return ZERO
        val = self.val + other.val
        if len(a) == 1:
            a, b = b, a
        if len(b) == 1:
            c = b[0]
            return _make(val, a if c == 1 else tuple([x * c for x in a]))
        out = [0] * (len(a) + len(b) - 1)
        _mac(out, 0, a, b)
        return _make(val, tuple(out))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            inv = self.unit_inverse()
            return inv ** (-n)
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def unit_inverse(self) -> "LaurentPoly":
        """Inverse of a unit monomial +-v^n; raises on non-units."""
        if len(self.coeffs) == 1 and self.coeffs[0] in (1, -1):
            return LaurentPoly(-self.val, (self.coeffs[0],))
        raise NotDivisible(f"not a unit of Z[v, v^-1]: {self}")

    # ------------------------------------------------------------------
    # endomorphisms

    def bar(self) -> "LaurentPoly":
        """The involution v |-> v^-1."""
        cs = self.coeffs
        if not cs:
            return self
        return _make(-(self.val + len(cs) - 1), cs[::-1])

    def negate_v(self) -> "LaurentPoly":
        """The involution v |-> -v (negates odd-exponent coefficients)."""
        if not self.coeffs:
            return self
        val = self.val
        return _make(val, tuple([c if (val + i) % 2 == 0 else -c for i, c in enumerate(self.coeffs)]))

    def square_v(self) -> "LaurentPoly":
        """The injective endomorphism v |-> v^2 (doubles every exponent)."""
        if not self.coeffs:
            return self
        out = [0] * (2 * len(self.coeffs) - 1)
        for i, c in enumerate(self.coeffs):
            out[2 * i] = c
        return LaurentPoly(2 * self.val, out)

    # ------------------------------------------------------------------
    # division and splitting

    def exact_div(self, divisor: IntLike) -> "LaurentPoly":
        """Exact quotient self / divisor in Z[v, v^-1].

        Raises NotDivisible if the quotient has non-integer coefficients or
        a remainder.  Division by zero is always NotDivisible.

        >>> (U * U).exact_div(U)
        LaurentPoly('-v^-1 + v')
        """
        divisor = self._coerce(divisor)
        if divisor is NotImplemented:
            raise TypeError("divisor must be int or LaurentPoly")
        if not divisor.coeffs:
            raise NotDivisible("division by zero")
        if not self.coeffs:
            return ZERO
        a = list(self.coeffs)
        b = divisor.coeffs
        nq = len(a) - len(b) + 1
        if nq <= 0:
            raise NotDivisible(f"{self} is not divisible by {divisor}")
        b0 = b[0]
        q = [0] * nq
        for i in range(nq):
            r = a[i]
            if r == 0:
                continue
            if r % b0 != 0:
                raise NotDivisible(f"{self} is not divisible by {divisor}")
            qi = r // b0
            q[i] = qi
            for j, cb in enumerate(b):
                a[i + j] -= qi * cb
        if any(a):
            raise NotDivisible(f"{self} is not divisible by {divisor}")
        return LaurentPoly(self.val - divisor.val, q)

    # ------------------------------------------------------------------
    # rendering

    def to_text(self) -> str:
        """Canonical text form: increasing exponents, e.g. '-v^-2 + 1 + 2*v^3'."""
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for e, c in self.terms():
            mag = abs(c)
            if e == 0:
                body = str(mag)
            elif mag == 1:
                body = "v" if e == 1 else f"v^{e}"
            else:
                body = f"{mag}*v" if e == 1 else f"{mag}*v^{e}"
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append((" + " if c > 0 else " - ") + body)
        return "".join(parts)

    def to_json(self) -> dict[str, int]:
        """JSON object form: exponent (as string) -> coefficient."""
        return {str(e): c for e, c in self.terms()}

    def __repr__(self) -> str:
        return f"LaurentPoly({self.to_text()!r})"

    def __str__(self) -> str:
        return self.to_text()


# ----------------------------------------------------------------------
# the kernel: every result below is built already trimmed

_set_val = LaurentPoly.val.__set__
_set_coeffs = LaurentPoly.coeffs.__set__


def _make(val: int, coeffs: tuple[int, ...]) -> LaurentPoly:
    """Trusted constructor: ``coeffs`` must already satisfy the invariant."""
    p = object.__new__(LaurentPoly)
    _set_val(p, val)
    _set_coeffs(p, coeffs)
    return p


def _normalize(val: int, cs) -> tuple[int, tuple[int, ...]]:
    """(val, coeffs) with the zeros at both ends of ``cs`` trimmed off."""
    hi = len(cs)
    while hi and not cs[hi - 1]:
        hi -= 1
    if not hi:
        return 0, ()
    lo = 0
    while not cs[lo]:
        lo += 1
    return val + lo, tuple(cs[lo:hi])


def _trimmed(val: int, out: list[int]) -> LaurentPoly:
    if out[0] and out[-1]:
        return _make(val, tuple(out))
    return _make(*_normalize(val, out))


def _mac(out: list[int], base: int, a: tuple[int, ...], b: tuple[int, ...]) -> None:
    """out[base + i + j] += a[i] * b[j] for all i, j."""
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1:
        ca = a[0]
        for j, cb in enumerate(b, base):
            if cb:
                out[j] += ca * cb
        return
    for i, ca in enumerate(a, base):
        if ca:
            for j, cb in enumerate(b, i):
                if cb:
                    out[j] += ca * cb


# ----------------------------------------------------------------------
# sparse vectors: dicts from any key to a nonzero LaurentPoly

def monomial_times(c: int, e: int, p: LaurentPoly) -> LaurentPoly:
    """c * v^e * p for a nonzero int c: p's tuple, shifted and scaled unless c = 1."""
    cs = p.coeffs
    if not cs:
        return p
    if c == 1:
        return p if not e else _make(p.val + e, cs)
    return _make(p.val + e, tuple([-x for x in cs]) if c == -1 else tuple([c * x for x in cs]))


def accumulate(out: dict, key, a: LaurentPoly, b: LaurentPoly) -> None:
    """out[key] += a * b in place; a new key goes last, a sum of zero is deleted.

    A factor with one term c * v^e, on either side, shifts the other
    factor's tuple and scales it unless c = +-1: no product is formed, and
    a product equal to b (c = 1, e = 0) is b itself.
    """
    ac = a.coeffs
    if len(ac) != 1:
        if len(b.coeffs) != 1:
            acc = out.get(key)
            val = a * b if acc is None else acc.addmul(a, b)
            if val:
                out[key] = val
            elif acc is not None:
                del out[key]
            return
        a, b, ac = b, a, b.coeffs
    bc = b.coeffs
    if not bc:
        return
    c = ac[0]
    acc = out.get(key)
    if acc is None:
        out[key] = monomial_times(c, a.val, b)
        return
    # acc + c * v^bv * bc, summed in one buffer
    bv = a.val + b.val
    n = len(bc)
    lo = acc.val
    buf = list(acc.coeffs)
    if bv < lo:
        buf[:0] = [0] * (lo - bv)
        lo = bv
    o = bv - lo
    if o + n > len(buf):
        buf += [0] * (o + n - len(buf))
    seg = buf[o:o + n]
    if c == 1:
        buf[o:o + n] = map(_add, seg, bc)
    elif c == -1:
        buf[o:o + n] = map(_sub, seg, bc)
    else:
        buf[o:o + n] = [x + c * y for x, y in zip(seg, bc)]
    val = _trimmed(lo, buf)
    if val:
        out[key] = val
    else:
        del out[key]


def vec_axpy(out: dict, coeff: IntLike, b: dict) -> None:
    """out += coeff * b in place, one ``accumulate`` per key of b, in b's order."""
    if coeff.__class__ is not LaurentPoly:
        coeff = LaurentPoly._coerce(coeff)
        if coeff is NotImplemented:
            raise TypeError("vec_axpy takes an int or LaurentPoly coefficient")
    if not coeff.coeffs:
        return
    for i, p in b.items():
        accumulate(out, i, coeff, p)


# ----------------------------------------------------------------------
# packed integers: a polynomial evaluated at v^-1 = 2^K (Kronecker substitution)

def digit_width(bound: int) -> int:
    """The least K >= 2 with 2^(K-1) > bound.

    Balanced base-2^K digits, in [-2^(K-1), 2^(K-1)), then hold every
    coefficient c with |c| <= bound, so ``unpack`` recovers any polynomial
    whose coefficients obey the bound from its packed value.

    >>> digit_width(0), digit_width(1), digit_width(2), digit_width(2**70)
    (2, 2, 3, 72)
    """
    return max(bound.bit_length() + 1, 2)


def pack(p: IntLike, shift: int, K: int) -> int:
    """The value of p * v^shift at v^-1 = 2^K.

    The window is the exponents e <= -shift of p, where v^(e + shift) is
    the integer 2^(-K (e + shift)); an exponent above it raises ValueError,
    so no term ever wraps into a fraction.  The map is additive and
    multiplicative: pack(p, s, K) * pack(q, t, K) == pack(p * q, s + t, K).

    >>> pack(LaurentPoly.from_terms({-1: 3, -2: -1}), 0, 8)   # 3 * 2^8 - 2^16
    -64768
    >>> pack(V + VI, -1, 8)                                    # 1 + v^-2
    65537
    >>> pack(V, 0, 8)
    Traceback (most recent call last):
    ...
    ValueError: v has an exponent above the window e <= 0
    """
    if p.__class__ is int:
        cs, top = (p,) if p else (), shift
    else:
        cs = p.coeffs
        top = p.val + len(cs) - 1 + shift
    if not cs:
        return 0
    if top > 0:
        raise ValueError(f"{p} has an exponent above the window e <= {-shift}")
    n = 0
    for c in cs:  # Horner, from the lowest exponent: the highest power of 2^K
        n = (n << K) + c
    return n << (-top * K)


def unpack(n: int, shift: int, K: int) -> LaurentPoly:
    """The p with pack(p, shift, K) == n whose coefficients are balanced base-2^K digits.

    Digit i of n, in [-2^(K-1), 2^(K-1)), is the coefficient of v^(-i - shift).
    Each integer has exactly one such expansion, so this inverts ``pack``
    on every p whose coefficients lie in (-2^(K-1), 2^(K-1)) (``digit_width``).
    K must be at least 2.

    >>> unpack(-64768, 0, 8)
    LaurentPoly('-v^-2 + 3*v^-1')
    >>> unpack(65537, -1, 8)
    LaurentPoly('v^-1 + v')
    """
    if K < 2:
        raise ValueError(f"balanced base-2^K digits need K >= 2, not {K}")
    half, mask = 1 << (K - 1), (1 << K) - 1
    digits = []
    while n:
        d = n & mask
        if d >= half:
            d -= mask + 1
        digits.append(d)
        n = (n - d) >> K
    return LaurentPoly(1 - shift - len(digits), reversed(digits))


# ----------------------------------------------------------------------
# constants

ZERO = LaurentPoly(0, ())
ONE = LaurentPoly(0, (1,))
V = LaurentPoly(1, (1,))
VI = LaurentPoly(-1, (1,))          # v^-1
U = LaurentPoly(-1, (-1, 0, 1))     # v - v^-1
U2 = LaurentPoly(-2, (-1, 0, 0, 0, 1))  # v^2 - v^-2


def monomial(exponent: int, coefficient: int = 1) -> LaurentPoly:
    """The single term coefficient * v**exponent."""
    if coefficient == 0:
        return ZERO
    return LaurentPoly(exponent, (coefficient,))


# ----------------------------------------------------------------------
# the antisymmetric split

def split_antisymmetric(d: LaurentPoly) -> LaurentPoly:
    """Return the unique mu in v^-1 Z[v^-1] with mu - bar(mu) = d.

    Requires bar(d) == -d (in particular the constant term of d vanishes);
    raises NotAntisymmetric otherwise.  mu is just the strictly-negative-
    exponent part of d.

    >>> split_antisymmetric(ZERO)
    LaurentPoly('0')
    >>> split_antisymmetric(LaurentPoly.from_terms({-1: 2, 1: -2}))
    LaurentPoly('2*v^-1')
    """
    cs = d.coeffs
    if not cs:
        return d
    # bar(d) == -d: exponents symmetric about 0, coefficients mirrored with sign
    if d.val + d.val + len(cs) - 1 or cs != tuple([-c for c in reversed(cs)]):
        raise NotAntisymmetric(f"bar(d) != -d for d = {d}")
    hi = -d.val  # cs[:hi] holds the negative exponents, and cs[0] != 0
    while not cs[hi - 1]:
        hi -= 1
    return _make(d.val, cs[:hi])


def split_bar_invariant(f: LaurentPoly, a1: LaurentPoly) -> LaurentPoly:
    """Return the unique bar-invariant p with f - p in a1 * v^-1 Z[v^-1].

    a1 must be +-1 or +-(v + v^-1), the ascent coefficients of every
    pre-canonical structure in the package; any other a1 raises ValueError.
    For a1 = +-1, p copies the coefficients of f at the exponents e >= 0
    to e and -e.  For a1 = +-(v + v^-1) the target is (1 + v^-2) Z[v^-1]:
    p copies the exponents e >= 1 the same way, and its constant term is
    the real part of f - p at v^-1 = i, whose imaginary part must vanish
    (NotDivisible otherwise).

    >>> split_bar_invariant(LaurentPoly.from_terms({-1: 5, 0: 3, 1: 2}), ONE)
    LaurentPoly('2*v^-1 + 3 + 2*v')
    >>> split_bar_invariant(LaurentPoly.from_terms({-1: 5}), -ONE)
    LaurentPoly('0')
    >>> split_bar_invariant(LaurentPoly.from_terms({-2: 1}), V + VI)  # (v + v^-1) v^-1 - 1
    LaurentPoly('-1')
    >>> split_bar_invariant(VI, V + VI)
    Traceback (most recent call last):
    ...
    ivhecke.laurent.NotDivisible: v^-1 - p is outside (v^-1 + v) * v^-1 Z[v^-1] for every bar-invariant p
    """
    cs = a1.coeffs
    if not a1.val and (cs == (1,) or cs == (-1,)):
        lowest = 0
    elif a1.val == -1 and (cs == (1, 0, 1) or cs == (-1, 0, -1)):
        lowest = 1
    else:
        raise ValueError(f"no bar-invariant split for the ascent coefficient {a1}")
    coeff = f.coeff
    top = f.val + len(f.coeffs) - 1  # the degree; -1 for zero
    mirrored = [coeff(abs(e)) for e in range(-top, top + 1)]
    if not lowest:
        return _make(-top, tuple(mirrored)) if top >= 0 else ZERO
    # f - p = g - r with g = f - (the mirrored part, e != 0); r = g(i) must be real
    real = imag = 0
    for n in range(max(-f.val, top) + 1):
        g = coeff(-n) - (coeff(n) if n else 0)
        if n % 2:
            imag += g if n % 4 == 1 else -g
        else:
            real += g if n % 4 == 0 else -g
    if imag:
        raise NotDivisible(
            f"{f} - p is outside ({a1}) * v^-1 Z[v^-1] for every bar-invariant p"
        )
    if top < 1:
        return monomial(0, real)
    mirrored[top] = real
    return _make(-top, tuple(mirrored))


# ----------------------------------------------------------------------
# membership predicates for the lattice of sub-objects that show up in
# degree bounds and positivity statements

def only_nonpositive_exponents(p: LaurentPoly) -> bool:
    """p in Z[v^-1]."""
    return not p.coeffs or p.degree <= 0


def one_plus_even_positive(p: LaurentPoly) -> bool:
    """p in 1 + v^2 Z[v^2]: constant term 1, all other exponents even and >= 2."""
    if p.coeff(0) != 1:
        return False
    return all(e == 0 or (e >= 2 and e % 2 == 0) for e, _ in p.terms())


def one_plus_positive(p: LaurentPoly) -> bool:
    """p in 1 + v Z[v]: constant term 1, all other exponents >= 1."""
    if p.coeff(0) != 1:
        return False
    return all(e >= 0 for e, _ in p.terms())


def mod2_equal(p: LaurentPoly, q: LaurentPoly) -> bool:
    """p == q coefficientwise modulo 2."""
    d = p - q
    return all(c % 2 == 0 for _, c in d.terms())


if __name__ == "__main__":  # pragma: no cover
    import doctest

    doctest.testmod()
