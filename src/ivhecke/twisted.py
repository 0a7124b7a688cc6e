"""Twisted involutions of a Coxeter system.

Work happens in the extended group: pairs (x, alpha) with x in W and alpha a
diagram automorphism, multiplied by (x, alpha)(y, beta) = (x * alpha(y),
alpha o beta).  For an involutive automorphism theta, the twisted
involutions are the elements w = (x, theta) with w^2 = (e, id), i.e.
theta(x) = x^{-1}.  They carry:

* an action of the generators,  s |*| w  (written ``kappa`` here): with
  w = (x, theta), if s*x != x*theta(s) then s |*| w = (s*x*theta(s), theta),
  otherwise s |*| w = (s*x, theta);
* a rank function rho with rho(s |*| w) = rho(w) + 1 exactly when
  l(s*x) = l(x) + 1 (each step changes l(x) by 1 if s*x = x*theta(s),
  else by 2);
* Bruhat order inherited from W on the x-component.

A ``TwistedBlock`` enumerates one theta's worth of twisted involutions by
breadth-first search from the identity and records, for every generator s
and element index i, the triple (target index, commutes flag, rank-up
flag) that all module arithmetic downstream consumes, and from which every
Bruhat interval of the block is read.  A ``GroupBlock`` presents W itself
through the same ``Block`` interface.

>>> W = parse_system("A2")
>>> blk = TwistedBlock(W, (0, 1))
>>> [len(x) for x in blk.elements]
[0, 1, 1, 3]
>>> blk.rho
[0, 1, 1, 2]
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Sequence

from .coxeter import CoxeterSystem, InfiniteOrTooLarge, Word, parse_system

#: cap on the pairs x <= w a block's intervals may hold; F4's group block has 396,809
MAX_INTERVAL_PAIRS = 4_000_000

Perm = tuple[int, ...]
GroupElt = tuple[Word, Perm]  # element (x, alpha) of the extended group


class NotAnInvolution(ValueError):
    """theta is not an involutive diagram automorphism, or w is not twisted-involutive."""


# ----------------------------------------------------------------------
# the extended group W x| Aut(W, S)

def check_automorphism(system: CoxeterSystem, perm: Sequence[int]) -> Perm:
    p = tuple(perm)
    if sorted(p) != list(range(system.rank)):
        raise ValueError(f"not a permutation of range({system.rank}): {p}")
    for a in range(system.rank):
        for b in range(a + 1, system.rank):
            if system.matrix[p[a]][p[b]] != system.matrix[a][b]:
                raise ValueError(f"permutation {p} does not preserve the Coxeter matrix")
    return p


def compose_perms(alpha: Perm, beta: Perm) -> Perm:
    """alpha o beta (apply beta first)."""
    return tuple(alpha[b] for b in beta)


def invert_perm(alpha: Perm) -> Perm:
    out = [0] * len(alpha)
    for i, a in enumerate(alpha):
        out[a] = i
    return tuple(out)


def mult_plus(system: CoxeterSystem, a: GroupElt, b: GroupElt) -> GroupElt:
    """(x, alpha)(y, beta) = (x * alpha(y), alpha o beta)."""
    (x, alpha), (y, beta) = a, b
    word = system.multiply(x, system.apply_automorphism(alpha, y))
    return (word, compose_perms(alpha, beta))


def inverse_plus(system: CoxeterSystem, a: GroupElt) -> GroupElt:
    (x, alpha) = a
    ai = invert_perm(alpha)
    return (system.apply_automorphism(ai, system.inverse(x)), ai)


def is_twisted_involution(system: CoxeterSystem, theta: Sequence[int], word: Iterable[int]) -> bool:
    """True iff theta^2 = id and theta(x) = x^{-1}."""
    t = check_automorphism(system, theta)
    if compose_perms(t, t) != system.identity_perm():
        return False
    x = system.reduce(word)
    return system.apply_automorphism(t, x) == system.inverse(x)


def involutive_automorphisms(system: CoxeterSystem) -> list[Perm]:
    """All involutive diagram automorphisms, identity first."""
    ident = system.identity_perm()
    out = [p for p in system.automorphisms() if compose_perms(p, p) == ident]
    out.sort(key=lambda p: (p != ident, p))
    return out


def parse_theta(system: CoxeterSystem, text: str) -> Perm:
    """Parse a theta argument: 'id' or a comma-separated permutation like '1,0'."""
    text = text.strip()
    if text == "id":
        return system.identity_perm()
    try:
        perm = tuple(int(p.strip()) for p in text.split(","))
    except ValueError as exc:
        raise ValueError(f"cannot parse theta {text!r}: expected 'id' or e.g. '1,0'") from exc
    return check_automorphism(system, perm)


# ----------------------------------------------------------------------
# the |*| action and the rank function

def kappa(system: CoxeterSystem, theta: Sequence[int], s: int, word: Iterable[int]) -> Word:
    """x-component of s |*| (x, theta)."""
    return _star(system, theta, s, system.reduce(word))[0]


def _star(system: CoxeterSystem, theta: Sequence[int], s: int, x: Word) -> tuple[Word, bool]:
    """(x-component of s |*| (x, theta), whether s*x = x*theta(s)), for x in normal form."""
    sx = system.left_mult(s, x)
    if sx == system.right_mult(x, theta[s]):
        return sx, True
    return system.right_mult(sx, theta[s]), False


def rho_recursive(system: CoxeterSystem, theta: Sequence[int], word: Iterable[int]) -> int:
    """Rank of a twisted involution, computed by descending one step at a time.

    Independent of any enumeration: uses only that the first letter of the
    normal form is a length-lowering generator.
    """
    x = system.reduce(word)
    if not x:
        return 0
    s = x[0]
    return 1 + rho_recursive(system, theta, kappa(system, theta, s, x))


# ----------------------------------------------------------------------

class Block:
    """Elements of a Coxeter system with a generator action, in Bruhat order.

    Each subclass's ``__init__`` sets ``system``, ``theta``, ``elements``
    (sorted by (length, ShortLex word) -- a linear extension of Bruhat
    order), ``index``, ``rho`` and ``cross`` (``cross[s][i] = (j, commutes,
    up)``: s acts on elements[i] with target elements[j]).  The Bruhat
    intervals are read off ``cross`` (``lower_indices``).
    """

    def __len__(self) -> int:
        return len(self.elements)

    def lower_indices(self, j: int) -> tuple[int, ...]:
        """Indices of all elements <= elements[j], ascending (j last).

        Read off the cross table: at a descent j = s |*| i of j (i below j),

            lower(j) = lower(i) u { s |*| x : x in lower(i) }.

        For W this is Deodhar's property Z (Invent. Math. 1977): if s is a
        descent of w, then u <= w exactly when u or s*u is <= s*w.  For the
        twisted involutions of one theta, with Bruhat order on the
        x-components, it is the lifting property of that order (Hultman,
        "The combinatorics of twisted involutions in Coxeter groups",
        Trans. AMS 2007).  All intervals are built at the first call, in
        index order, each at the first descent of its element; the one
        element with none is the identity.  More than
        ``MAX_INTERVAL_PAIRS`` pairs in all raises InfiniteOrTooLarge.
        """
        return self._intervals[j]

    @cached_property
    def _intervals(self) -> list[tuple[int, ...]]:
        targets = [[t for t, _, _ in row] for row in self.cross]
        intervals: list[tuple[int, ...]] = []
        pairs = 0
        for j in range(len(self.elements)):
            for s, row in enumerate(self.cross):
                i, _, up = row[j]
                if not up:
                    lower = intervals[i]
                    interval = tuple(sorted(set(lower).union(map(targets[s].__getitem__, lower))))
                    break
            else:
                interval = (j,)
            pairs += len(interval)
            if pairs > MAX_INTERVAL_PAIRS:
                raise InfiniteOrTooLarge(
                    f"Bruhat intervals of {self!r}: more than {MAX_INTERVAL_PAIRS} "
                    f"pairs x <= w (reached {pairs} at element {j + 1} of {len(self)})"
                )
            intervals.append(interval)
        return intervals

    def length(self, i: int) -> int:
        return len(self.elements[i])

    @cached_property
    def pairs(self) -> tuple[bool, ...]:
        """For each generator s, whether s pairs the block.

        s pairs the block when ``cross[s][k] = (t, commutes, up)`` always has
        t != k and ``cross[s][t] = (k, commutes, not up)``: s then splits the
        elements into pairs {i, j} with j = s |*| i above i, and a module's
        op_s acts on each pair by one 2x2 matrix per commutes case.  Every
        ``TwistedBlock`` and ``GroupBlock`` pairs for every s.
        """
        return tuple(
            all(t != k and row[t] == (k, commutes, not up) for k, (t, commutes, up) in enumerate(row))
            for row in self.cross
        )


class TwistedBlock(Block):
    """All twisted involutions for one involutive theta, with action tables.

    ``cross[s][i] = (j, commutes, up)`` describes s |*| elements[i] =
    elements[j]; ``commutes`` is the s*x = x*theta(s) flag and ``up`` says
    rho goes up.  The search raises InfiniteOrTooLarge once the block has
    more than ``system.max_elements`` elements or an element longer than
    ``system.max_word_length``.
    """

    def __init__(self, system: CoxeterSystem, theta: Sequence[int]) -> None:
        self.system = system
        self.theta = check_automorphism(system, theta)
        if compose_perms(self.theta, self.theta) != system.identity_perm():
            raise NotAnInvolution(f"theta = {self.theta} is not involutive")
        rank = system.rank

        rho_of: dict[Word, int] = {(): 0}
        moves: dict[Word, list[tuple[Word, bool]]] = {}  # x -> (s |*| x, commutes) for each s
        frontier: list[Word] = [()]
        while frontier:
            nxt: list[Word] = []
            for x in frontier:
                r = rho_of[x]
                moves[x] = row = [_star(system, self.theta, s, x) for s in range(rank)]
                for y, _ in row:
                    up = len(y) > len(x)
                    if y in rho_of:
                        expected = r + 1 if up else r - 1
                        if rho_of[y] != expected:
                            raise RuntimeError(
                                f"inconsistent rank at {y}: {rho_of[y]} vs {expected}"
                            )
                    elif up:
                        if len(rho_of) >= system.max_elements:
                            raise InfiniteOrTooLarge(
                                f"twisted block for theta={self.theta}: more than "
                                f"{system.max_elements} elements (reached {len(rho_of) + 1}); "
                                "raise max_elements if intended"
                            )
                        if len(y) > system.max_word_length:
                            raise InfiniteOrTooLarge(
                                f"twisted block for theta={self.theta}: an element of length "
                                f"{len(y)} (reached {len(rho_of) + 1} elements): the group is "
                                f"infinite, or its longest element is longer than the word cap "
                                f"{system.max_word_length}"
                            )
                        rho_of[y] = r + 1
                        nxt.append(y)
            frontier = nxt

        self.elements: list[Word] = sorted(rho_of, key=lambda w: (len(w), w))
        self.index: dict[Word, int] = {w: i for i, w in enumerate(self.elements)}
        self.rho: list[int] = [rho_of[w] for w in self.elements]
        self.cross: list[list[tuple[int, bool, bool]]] = []
        for s in range(rank):
            row = []
            for x in self.elements:
                y, commutes = moves[x][s]
                row.append((self.index[y], commutes, len(y) > len(x)))
            self.cross.append(row)

    def __repr__(self) -> str:
        return f"TwistedBlock({self.system!r}, theta={self.theta}, size={len(self)})"


class GroupBlock(Block):
    """W itself as a block: cross[s][i] targets s * w.

    rho is the length, theta the identity, and the commutes flag, which
    two-row structures ignore, is False.
    """

    def __init__(self, system: CoxeterSystem) -> None:
        self.system = system
        self.theta = system.identity_perm()
        self.elements: list[Word] = system.elements()
        self.index = {w: i for i, w in enumerate(self.elements)}
        self.rho = [len(w) for w in self.elements]
        self.cross = []
        for s in range(system.rank):
            row = []
            for w in self.elements:
                sw = system.left_mult(s, w)
                row.append((self.index[sw], False, len(sw) > len(w)))
            self.cross.append(row)

    def __repr__(self) -> str:
        return f"GroupBlock({self.system!r}, size={len(self)})"


def twisted_involutions(system: CoxeterSystem, theta: Sequence[int]) -> list[Word]:
    """The twisted involutions for theta, sorted by (length, ShortLex)."""
    return TwistedBlock(system, theta).elements


if __name__ == "__main__":  # pragma: no cover
    import doctest

    doctest.testmod()
