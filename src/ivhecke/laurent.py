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
the tuple), and the strictly negative part of an antisymmetric element
(trimmed at its one open end).  Sums are trimmed once, in the buffer they
were accumulated in; ``p.addmul(a, b)`` computes p + a*b that way without
the temporary product:

>>> V.addmul(U, 2)   # v + 2*(v - v^-1)
LaurentPoly('-2*v^-1 + 3*v')

Besides ring arithmetic the module provides the three ring endomorphisms
used throughout:

* ``bar``      -- v |-> v^-1   (the bar involution),
* ``negate_v`` -- v |-> -v,
* ``square_v`` -- v |-> v^2    (embeds A into itself; doubles exponents),

exact division, and the "split" operation that extracts the strictly
negative part mu of a bar-antisymmetric element d, i.e. the unique
mu in v^-1 Z[v^-1] with mu - bar(mu) = d.  That split is the engine of
every canonical-basis computation downstream.

>>> p = LaurentPoly.from_terms({1: 1, -1: -1})   # v - v^-1
>>> p.bar()
LaurentPoly('v^-1 - v')
>>> p * p
LaurentPoly('v^-2 - 2 + v^2')
>>> split_antisymmetric(LaurentPoly.from_terms({-2: 3, 2: -3}))
LaurentPoly('3*v^-2')
"""

from __future__ import annotations

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

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def is_constant(self) -> bool:
        return not self.coeffs or (self.val == 0 and len(self.coeffs) == 1)

    def constant_value(self) -> int:
        """The integer value, if constant; raises otherwise."""
        if not self.coeffs:
            return 0
        if self.val == 0 and len(self.coeffs) == 1:
            return self.coeffs[0]
        raise ValueError(f"not a constant: {self}")

    def is_monomial(self) -> bool:
        return len(self.coeffs) == 1

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
        if isinstance(other, int):
            other = LaurentPoly(0, (other,))
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.val == other.val and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.val, self.coeffs))

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
        return LaurentPoly(
            self.val,
            tuple(c if (self.val + i) % 2 == 0 else -c for i, c in enumerate(self.coeffs)),
        )

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

    def negative_part(self) -> "LaurentPoly":
        """The terms with strictly negative exponent."""
        return LaurentPoly.from_terms({e: c for e, c in self.terms() if e < 0})

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

    @classmethod
    def from_json(cls, data: Mapping[str, int]) -> "LaurentPoly":
        return cls.from_terms({int(e): int(c) for e, c in data.items()})

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


# ----------------------------------------------------------------------
# membership predicates for the lattice of sub-objects that show up in
# degree bounds and positivity statements

def only_nonpositive_exponents(p: LaurentPoly) -> bool:
    """p in Z[v^-1]."""
    return not p.coeffs or p.degree <= 0


def only_negative_exponents(p: LaurentPoly) -> bool:
    """p in v^-1 Z[v^-1]."""
    return not p.coeffs or p.degree <= -1


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


def bar_invariant(p: LaurentPoly) -> bool:
    """p == bar(p), i.e. p in Z[v + v^-1]."""
    return p.bar() == p


def nonnegative_coeffs(p: LaurentPoly) -> bool:
    return all(c >= 0 for _, c in p.terms())


def mod2_equal(p: LaurentPoly, q: LaurentPoly) -> bool:
    """p == q coefficientwise modulo 2."""
    d = p - q
    return all(c % 2 == 0 for _, c in d.terms())


if __name__ == "__main__":  # pragma: no cover
    import doctest

    doctest.testmod()
