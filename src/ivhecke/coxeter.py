"""Coxeter systems with exact word arithmetic.

A system is given by its Coxeter matrix (symmetric, 1 on the diagonal,
off-diagonal entries >= 2, with 0 standing for infinity).  Group elements
are represented as plain tuples of generator indices in ShortLex-minimal
reduced form: among all reduced words for an element, the lexicographically
smallest.  The empty tuple is the identity.

Words are multiplied in the geometric representation (Bjorner-Brenti,
*Combinatorics of Coxeter Groups*, ch. 4; Casselman, "Computation in
Coxeter groups I: multiplication").  W acts on the span of the simple roots
by s(v) = v - 2B(alpha_s, v) alpha_s, where 2B(alpha_s, alpha_t) =
-2cos(pi/m(s, t)).  These coefficients lie in Z[zeta_N], with N the lcm of
2m over the bonds m other than 2, 3 and infinity, so every root is stored
exactly, reduced modulo the cyclotomic polynomial Phi_N (plain integers
when all bonds are 2, 3 or infinity).  A system closes the simple roots
under the simple reflections when it is built, giving each positive root an
id and a row of the ids of s(root) for each generator s.  Since |Phi+| =
l(w0), a system with more positive roots than the word cap, an infinite W
among them, is refused there.

Walking alpha_s through a reduced word a_1 ... a_k, a_1 first, computes
w^-1(alpha_s).  The root stays positive unless, at some step j, it equals
alpha_c for the letter c = a_j being applied; then s is a left descent and
s*w is the word with letter j deleted (the exchange condition).  Walking
from the right end finds right descents the same way, so only equality of
roots is ever tested.  A word is reduced by appending its letters one at a
time with this exchange, and a reduced word is brought to ShortLex form by
stripping its smallest left descent, repeatedly.

Bruhat order uses the lifting property: for s a left descent of w,
x <= w iff (sx <= sw if sx < x else x <= sw).

>>> W = parse_system("A2")
>>> W.reduce((0, 1, 0, 1))
(1, 0)
>>> W.bruhat_leq((0,), (1, 0))
True
>>> [len(w) for w in W.elements()]
[0, 1, 1, 2, 2, 3]
>>> [parse_system(name).positive_root_count() for name in ("B3", "H3", "F4")]
[9, 15, 24]
"""

from __future__ import annotations

import itertools
import json
import math
import re
from typing import Iterable, Optional, Sequence, Union

Word = tuple[int, ...]
Matrix = tuple[tuple[int, ...], ...]

DEFAULT_WORD_CAP = 64
DEFAULT_MAX_ELEMENTS = 200_000


class InfiniteOrTooLarge(RuntimeError):
    """A size cap refused the system: its positive roots, elements or intervals."""


class WordLengthExceeded(ValueError):
    """An input word is longer than the configured cap."""


class InvalidCoxeterMatrix(ValueError):
    pass


def _validate_matrix(matrix: Sequence[Sequence[int]]) -> Matrix:
    n = len(matrix)
    m = tuple(tuple(int(x) for x in row) for row in matrix)
    if any(len(row) != n for row in m):
        raise InvalidCoxeterMatrix("matrix is not square")
    for i in range(n):
        if m[i][i] != 1:
            raise InvalidCoxeterMatrix(f"diagonal entry m[{i}][{i}] = {m[i][i]} != 1")
        for j in range(n):
            if m[i][j] != m[j][i]:
                raise InvalidCoxeterMatrix(f"matrix not symmetric at ({i},{j})")
            if i != j and m[i][j] != 0 and m[i][j] < 2:
                raise InvalidCoxeterMatrix(
                    f"off-diagonal entry m[{i}][{j}] = {m[i][j]} must be >= 2 or 0 (= infinity)"
                )
    return m


# ----------------------------------------------------------------------
# named systems

def _chain(n: int, bonds: dict[tuple[int, int], int]) -> list[list[int]]:
    mat = [[2] * n for _ in range(n)]
    for i in range(n):
        mat[i][i] = 1
    for (a, b), m in bonds.items():
        mat[a][b] = m
        mat[b][a] = m
    return mat


def coxeter_matrix_from_name(name: str) -> Matrix:
    """Coxeter matrix for a named finite-type system: A3, B2, D4, E6, F4, H3, I2(7)...

    For I2(m), m = 0 means the infinite dihedral group.
    """
    name = name.strip()
    m2 = re.fullmatch(r"I2\((\d+)\)", name)
    if m2:
        m = int(m2.group(1))
        if m == 1:
            raise InvalidCoxeterMatrix("I2(1) is not a Coxeter system; use I2(0) for infinity")
        return _validate_matrix(_chain(2, {(0, 1): m}))
    m1 = re.fullmatch(r"([ABDEFH])(\d+)", name)
    if not m1:
        raise InvalidCoxeterMatrix(f"unrecognized system name: {name!r}")
    letter, n = m1.group(1), int(m1.group(2))
    bonds = {(i, i + 1): 3 for i in range(n - 1)}
    if letter == "A":
        if n < 1:
            raise InvalidCoxeterMatrix("A_n needs n >= 1")
    elif letter == "B":
        if n < 2:
            raise InvalidCoxeterMatrix("B_n needs n >= 2")
        bonds[(n - 2, n - 1)] = 4
    elif letter == "D":
        if n < 3:
            raise InvalidCoxeterMatrix("D_n needs n >= 3")
        bonds = {(i, i + 1): 3 for i in range(n - 2)}
        bonds[(n - 3, n - 1)] = 3
    elif letter == "E":
        if n not in (6, 7, 8):
            raise InvalidCoxeterMatrix("E_n needs n in {6, 7, 8}")
        # chain 0-1-...-(n-2) with node n-1 attached to node 2
        bonds = {(i, i + 1): 3 for i in range(n - 2)}
        bonds[(2, n - 1)] = 3
    elif letter == "F":
        if n != 4:
            raise InvalidCoxeterMatrix("only F4 exists")
        bonds[(1, 2)] = 4
    elif letter == "H":
        if n not in (3, 4):
            raise InvalidCoxeterMatrix("H_n needs n in {3, 4}")
        bonds[(0, 1)] = 5
    return _validate_matrix(_chain(n, bonds))


def parse_system(spec: Union[str, dict], **kwargs) -> "CoxeterSystem":
    """Build a CoxeterSystem from a name ("B3", "I2(7)"), a JSON string, or a dict.

    The JSON/dict form is {"rank": n, "matrix": [[...]]} with 0 = infinity.
    """
    if isinstance(spec, str):
        s = spec.strip()
        if s.startswith("{"):
            try:
                data = json.loads(s)
            except json.JSONDecodeError as exc:
                raise InvalidCoxeterMatrix(f"bad JSON system: {exc}") from exc
            return parse_system(data, **kwargs)
        return CoxeterSystem(coxeter_matrix_from_name(s), name=s, **kwargs)
    if isinstance(spec, dict):
        if "matrix" not in spec:
            raise InvalidCoxeterMatrix("JSON system needs a 'matrix' field")
        mat = spec["matrix"]
        if "rank" in spec and int(spec["rank"]) != len(mat):
            raise InvalidCoxeterMatrix("declared rank does not match matrix size")
        return CoxeterSystem(mat, name=spec.get("name"), **kwargs)
    raise InvalidCoxeterMatrix(f"cannot parse system from {type(spec).__name__}")


# ----------------------------------------------------------------------
# exact root coordinates: Z[zeta_n] modulo the cyclotomic polynomial

Cyclo = tuple[int, ...]  # integer coefficients, lowest degree first


def _divide_monic(num: Sequence[int], den: Sequence[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of num by the monic polynomial den."""
    rem = list(num)
    d = len(den) - 1
    quot = [0] * max(len(rem) - d, 0)
    for k in range(len(rem) - 1, d - 1, -1):
        c = rem[k]
        if c:
            quot[k - d] = c
            for i, f in enumerate(den):
                rem[k - d + i] -= c * f
    return quot, rem[:d]


def cyclotomic_polynomial(n: int) -> Cyclo:
    """Phi_n, lowest degree first: x^d - 1 divided by Phi_e for each e | d, e < d.

    >>> cyclotomic_polynomial(10)
    (1, -1, 1, -1, 1)
    """
    phi: dict[int, list[int]] = {}
    for d in range(1, n + 1):
        if n % d == 0:
            poly = [-1] + [0] * (d - 1) + [1]
            for e, f in phi.items():
                if d % e == 0:
                    poly, _ = _divide_monic(poly, f)
            phi[d] = poly
    return tuple(phi[n])


class CyclotomicIntegers:
    """Z[zeta_n], each element an integer tuple of length phi(n) reduced mod Phi_n.

    Phi_n is monic, so the reduction is exact integer division and every
    element has exactly one tuple: elements are equal iff their tuples are.

    >>> ring = CyclotomicIntegers(10)
    >>> tau = ring.two_cos_pi_over(5)  # the golden ratio
    >>> ring.mul(tau, tau) == ring.add(tau, ring.one)
    True
    """

    def __init__(self, n: int) -> None:
        self.n = n
        self.modulus = cyclotomic_polynomial(n)
        self.degree = len(self.modulus) - 1
        self.zero: Cyclo = (0,) * self.degree
        self.one = self.reduce([1])

    def reduce(self, poly: Sequence[int]) -> Cyclo:
        _, rem = _divide_monic(poly, self.modulus)
        return tuple(rem) + (0,) * (self.degree - len(rem))

    def add(self, a: Cyclo, b: Cyclo) -> Cyclo:
        return tuple(x + y for x, y in zip(a, b))

    def neg(self, a: Cyclo) -> Cyclo:
        return tuple(-x for x in a)

    def mul(self, a: Cyclo, b: Cyclo) -> Cyclo:
        prod = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        return self.reduce(prod)

    def two_cos_pi_over(self, m: int) -> Cyclo:
        """2cos(pi/m) = zeta_2m + zeta_2m^-1 for a bond m, with 0 meaning infinity (value 2).

        Bonds other than 2, 3 and infinity need 2m to divide n.
        """
        if m == 0:
            return self.reduce([2])
        if m == 2:
            return self.zero
        if m == 3:
            return self.one
        if self.n % (2 * m):
            raise ValueError(f"2cos(pi/{m}) is not in Z[zeta_{self.n}]")
        k = self.n // (2 * m)
        poly = [0] * (self.n - k + 1)
        poly[k] += 1
        poly[self.n - k] += 1
        return self.reduce(poly)


# ----------------------------------------------------------------------

class CoxeterSystem:
    """A Coxeter system (W, S) with S = range(rank).

    W must be finite with at most ``max_word_length`` positive roots, so
    that w0 fits the word cap; otherwise construction raises
    InfiniteOrTooLarge.  The instance keeps its root table, the normal
    forms ``reduce`` has computed, the Bruhat cache and, once
    ``elements()`` has run, the multiplication tables, so it should be
    shared and reused.  All words returned by its methods are ShortLex
    normal forms.
    """

    def __init__(
        self,
        matrix: Sequence[Sequence[int]],
        name: Optional[str] = None,
        max_word_length: int = DEFAULT_WORD_CAP,
        max_elements: int = DEFAULT_MAX_ELEMENTS,
    ) -> None:
        self.matrix = _validate_matrix(matrix)
        self.rank = len(self.matrix)
        self.name = name
        self.max_word_length = max_word_length
        self.max_elements = max_elements
        too_many = (
            f"{self!r}: more than {max_word_length} positive roots: the group is infinite, "
            f"or its longest element is longer than the word cap {max_word_length}"
        )
        # a bond m alone gives m positive roots (its dihedral subgroup's): refuse before the ring
        if any(m > max_word_length for row in self.matrix for m in row):
            raise InfiniteOrTooLarge(too_many)
        # roots: ids 0..rank-1 are the simple roots; _act[p][c] is the id of
        # s_c(root p), or ~c (the root -alpha_c) when p == c
        rank = self.rank
        ring = CyclotomicIntegers(
            math.lcm(1, *(2 * m for row in self.matrix for m in row if m not in (0, 1, 2, 3)))
        )
        self._ring = ring
        # s(v) changes only coordinate s: v_s -> -v_s + sum of 2cos(pi/m(s,t)) v_t
        self._bonds = [
            [
                (t, ring.two_cos_pi_over(self.matrix[s][t]))
                for t in range(rank)
                if t != s and self.matrix[s][t] != 2
            ]
            for s in range(rank)
        ]
        self._root_vecs: list[tuple[Cyclo, ...]] = [
            tuple(ring.one if t == s else ring.zero for t in range(rank)) for s in range(rank)
        ]
        self._root_ids: dict[tuple[Cyclo, ...], int] = {v: i for i, v in enumerate(self._root_vecs)}
        self._act: list[list[int]] = []
        while len(self._act) < len(self._root_vecs):
            if len(self._root_vecs) > max_word_length:
                raise InfiniteOrTooLarge(too_many)
            self._act.append(self._root_row(len(self._act)))
        self._nf: dict[Word, Word] = {}  # normal forms of the words reduce() was given
        self._elements: Optional[list[Word]] = None
        self._index: dict[Word, int] = {}
        self._right: list[list[int]] = []
        self._left: list[list[int]] = []
        self._inv: list[int] = []
        self._bruhat: dict[tuple[Word, Word], bool] = {}

    def __repr__(self) -> str:
        label = self.name or f"rank-{self.rank}"
        return f"CoxeterSystem({label})"

    def bond(self, s: int, t: int) -> int:
        """m(s, t); 0 means infinity."""
        return self.matrix[s][t]

    def system_json(self) -> Union[str, dict]:
        """The form used in serialized tables: the name if there is one."""
        if self.name:
            return self.name
        return {"rank": self.rank, "matrix": [list(r) for r in self.matrix]}

    # ------------------------------------------------------------------
    # roots

    def _root_row(self, p: int) -> list[int]:
        """Row p of the root table: the id of s_c(root p) for each generator c.

        s_c permutes the positive roots other than alpha_c, so every image
        but the one at c is a positive root: no sign is ever decided.  Roots
        met for the first time get the next ids.
        """
        ring, vec = self._ring, self._root_vecs[p]
        row = []
        for c in range(self.rank):
            if c == p:
                row.append(~c)
                continue
            coord = ring.neg(vec[c])
            for t, coef in self._bonds[c]:
                coord = ring.add(coord, ring.mul(coef, vec[t]))
            image = vec[:c] + (coord,) + vec[c + 1 :]
            q = self._root_ids.get(image)
            if q is None:
                q = len(self._root_vecs)
                self._root_vecs.append(image)
                self._root_ids[image] = q
            row.append(q)
        return row

    def positive_root_count(self) -> int:
        """|Phi+|, which is the length of the longest element w0."""
        return len(self._root_vecs)

    def _left_flip(self, s: int, word: Sequence[int]) -> int:
        """For a reduced word w: the j with s*w = w minus letter j, or -1 if s*w > w.

        Walks alpha_s through the letters, first letter first, which computes
        w^-1(alpha_s); it turns negative exactly where it meets alpha_c as c
        is applied.
        """
        act = self._act
        r = s
        for j, c in enumerate(word):
            if r == c:
                return j
            r = act[r][c]
        return -1

    def _right_flip(self, word: Sequence[int], s: int) -> int:
        """For a reduced word w: the j with w*s = w minus letter j, or -1 if w*s > w."""
        act = self._act
        r = s
        for j in range(len(word) - 1, -1, -1):
            c = word[j]
            if r == c:
                return j
            r = act[r][c]
        return -1

    # ------------------------------------------------------------------
    # the word problem

    def check_word(self, word: Iterable[int]) -> Word:
        w = tuple(word)
        if len(w) > self.max_word_length:
            raise WordLengthExceeded(
                f"word of length {len(w)} exceeds the cap {self.max_word_length}"
            )
        for c in w:
            if not (0 <= c < self.rank):
                raise ValueError(f"letter {c} out of range for rank {self.rank}")
        return w

    def reduce(self, word: Iterable[int]) -> Word:
        """ShortLex normal form of the element represented by ``word``."""
        return self._reduce(self.check_word(word))

    def _reduce(self, word: Word) -> Word:
        nf = self._nf.get(word)
        if nf is not None:
            return nf
        if self._elements is not None:
            right = self._right
            i = 0
            for c in word:
                i = right[i][c]
            nf = self._elements[i]
        else:
            nf = self._shortlex(self._exchange((), word))
        self._nf[word] = nf
        return nf

    def _exchange(self, prefix: Sequence[int], letters: Iterable[int]) -> list[int]:
        """A reduced word for prefix * letters, for a reduced ``prefix``.

        Each letter cancels the letter its walk stops at, or is appended.
        """
        u = list(prefix)
        for c in letters:
            j = self._right_flip(u, c)
            if j < 0:
                u.append(c)
            else:
                del u[j]
        return u

    def _shortlex(self, word: Sequence[int]) -> Word:
        """ShortLex normal form of a reduced word: strip the smallest left descent, repeatedly."""
        u = list(word)
        out = []
        while u:
            first, j = u[0], 0  # the first letter is always a left descent
            for s in range(first):
                k = self._left_flip(s, u)
                if k >= 0:
                    first, j = s, k
                    break
            out.append(first)
            del u[j]
        return tuple(out)

    def multiply(self, a: Iterable[int], b: Iterable[int]) -> Word:
        """Normal form of the product a * b."""
        a = self.reduce(a)
        b = self.reduce(b)
        if self._elements is not None:
            i = self._index[a]
            right = self._right
            for s in b:
                i = right[i][s]
            return self._elements[i]
        return self._shortlex(self._exchange(a, b))

    def inverse(self, a: Iterable[int]) -> Word:
        a = self.reduce(a)
        if self._elements is not None:
            return self._elements[self._inv[self._index[a]]]
        return self._shortlex(a[::-1])

    def left_mult(self, s: int, a: Word) -> Word:
        """Normal form of s * a, for a already in normal form."""
        if self._elements is not None:
            return self._elements[self._left[self._index[a]][s]]
        j = self._left_flip(s, a)
        if j < 0:
            return self._shortlex((s,) + a)
        if j == 0:
            return a[1:]  # a suffix of a normal form is one
        return self._shortlex(a[:j] + a[j + 1 :])

    def right_mult(self, a: Word, s: int) -> Word:
        """Normal form of a * s, for a already in normal form."""
        if self._elements is not None:
            return self._elements[self._right[self._index[a]][s]]
        j = self._right_flip(a, s)
        if j < 0:
            return self._shortlex(a + (s,))
        if j == len(a) - 1:
            return a[:-1]  # so is a prefix
        return self._shortlex(a[:j] + a[j + 1 :])

    # ------------------------------------------------------------------
    # Bruhat order

    def bruhat_leq(self, x: Iterable[int], w: Iterable[int]) -> bool:
        """x <= w in Bruhat order (via the lifting property)."""
        return self._bruhat_leq(self.reduce(x), self.reduce(w))

    def _bruhat_leq(self, x: Word, w: Word) -> bool:
        if not x:
            return True
        if len(x) > len(w):
            return False
        if x == w:
            return True
        key = (x, w)
        cached = self._bruhat.get(key)
        if cached is not None:
            return cached
        s = w[0]  # a left descent of w; s*w = w[1:] is in normal form
        sw = w[1:]
        sx = self.left_mult(s, x)
        if len(sx) < len(x):
            res = self._bruhat_leq(sx, sw)
        else:
            res = self._bruhat_leq(x, sw)
        self._bruhat[key] = res
        return res

    # ------------------------------------------------------------------
    # enumeration

    def _breadth_first(self) -> tuple[list[Word], list[list[int]]]:
        """All elements, sorted by (length, ShortLex word), and right[i][s] =
        index of elements[i] * s.

        An element w is keyed by the signed root ids of w^-1(alpha_t) for all
        t (~p stands for minus root p), and w*s maps each to its image under
        s.  The normal form of v is the least NF(v*s) + (s,) over its right
        descents s; words of one length are visited in ShortLex order with s
        ascending, so the first word to reach a key is its normal form.
        """
        rank, act, cap = self.rank, self._act, self.max_elements
        key = tuple(range(rank))
        keys = {key: 0}
        elements: list[Word] = [()]
        element_keys = [key]
        right: list[list[int]] = []
        start = 0
        while start < len(elements):
            stop = len(elements)
            for i in range(start, stop):
                w, key = elements[i], element_keys[i]
                row = []
                for s in range(rank):
                    image = tuple(act[r][s] if r >= 0 else ~act[~r][s] for r in key)
                    j = keys.get(image)
                    if j is None:
                        j = len(elements)
                        if j >= cap:
                            raise InfiniteOrTooLarge(
                                f"more than {cap} elements; raise max_elements if intended"
                            )
                        keys[image] = j
                        elements.append(w + (s,))
                        element_keys.append(image)
                    row.append(j)
                right.append(row)
            start = stop
        return elements, right

    def _ensure_tables(self) -> None:
        if self._elements is not None:
            return
        elements, right = self._breadth_first()
        inv = []
        for w in elements:
            i = 0
            for c in reversed(w):
                i = right[i][c]
            inv.append(i)
        self._index = {w: i for i, w in enumerate(elements)}
        self._right = right
        self._left = [[inv[j] for j in right[inv[i]]] for i in range(len(elements))]
        self._inv = inv
        self._elements = elements

    def elements(self) -> list[Word]:
        """All elements, sorted by (length, ShortLex word), at most ``max_elements``."""
        self._ensure_tables()
        assert self._elements is not None
        return self._elements

    def element_index(self, word: Iterable[int]) -> int:
        self._ensure_tables()
        return self._index[self.reduce(word)]

    def order(self) -> int:
        return len(self.elements())

    def longest_element(self) -> Word:
        """The longest element w0, of length ``positive_root_count()``."""
        els = self.elements()
        w0 = els[-1]
        if len(els) > 1 and len(els[-2]) == len(w0):
            raise RuntimeError("no unique longest element; enumeration is inconsistent")
        return w0

    # ------------------------------------------------------------------
    # diagram automorphisms

    def automorphisms(self) -> list[tuple[int, ...]]:
        """All permutations of S preserving the Coxeter matrix, sorted."""
        out = []
        for perm in itertools.permutations(range(self.rank)):
            if all(
                self.matrix[perm[a]][perm[b]] == self.matrix[a][b]
                for a in range(self.rank)
                for b in range(a + 1, self.rank)
            ):
                out.append(perm)
        return sorted(out)

    def apply_automorphism(self, perm: Sequence[int], word: Iterable[int]) -> Word:
        """Image of the element under the diagram automorphism s_i -> s_perm[i]."""
        w = self.reduce(word)
        return self._reduce(tuple(perm[c] for c in w))

    def identity_perm(self) -> tuple[int, ...]:
        return tuple(range(self.rank))


if __name__ == "__main__":  # pragma: no cover
    import doctest

    doctest.testmod()
