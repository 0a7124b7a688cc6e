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


class NotAnInvolution(ValueError):
    """theta is not an involutive diagram automorphism, or w is not twisted-involutive."""


# ----------------------------------------------------------------------
# diagram automorphisms

def check_automorphism(system: CoxeterSystem, perm: Sequence[int]) -> Perm:
    p = tuple(perm)
    if sorted(p) != list(range(system.rank)):
        raise ValueError(f"not a permutation of range({system.rank}): {p}")
    for a in range(system.rank):
        for b in range(a + 1, system.rank):
            if system.matrix[p[a]][p[b]] != system.matrix[a][b]:
                raise ValueError(f"permutation {p} does not preserve the Coxeter matrix")
    return p


def check_involution(system: CoxeterSystem, perm: Sequence[int]) -> Perm:
    """``check_automorphism``, then NotAnInvolution unless perm is its own inverse."""
    p = check_automorphism(system, perm)
    if compose_perms(p, p) != system.identity_perm():
        raise NotAnInvolution(f"theta = {p} is not involutive")
    return p


def compose_perms(alpha: Perm, beta: Perm) -> Perm:
    """alpha o beta (apply beta first)."""
    return tuple(alpha[b] for b in beta)


def involutive_automorphisms(system: CoxeterSystem) -> list[Perm]:
    """All involutive diagram automorphisms, identity first."""
    ident = system.identity_perm()
    out = [p for p in system.automorphisms() if compose_perms(p, p) == ident]
    out.sort(key=lambda p: (p != ident, p))
    return out


def parse_theta(system: CoxeterSystem, text: str) -> Perm:
    """Parse a theta argument: 'id' or a comma-separated permutation like '1,0', which must be involutive."""
    text = text.strip()
    if text == "id":
        return system.identity_perm()
    try:
        perm = tuple(int(p.strip()) for p in text.split(","))
    except ValueError as exc:
        raise ValueError(f"cannot parse theta {text!r}: expected 'id' or e.g. '1,0'") from exc
    return check_involution(system, perm)


# ----------------------------------------------------------------------
# the |*| action

def kappa(system: CoxeterSystem, theta: Sequence[int], s: int, word: Iterable[int]) -> Word:
    """x-component of s |*| (x, theta)."""
    return _star(system, theta, s, system.reduce(word))[0]


def _star(system: CoxeterSystem, theta: Sequence[int], s: int, x: Word) -> tuple[Word, bool]:
    """(x-component of s |*| (x, theta), whether s*x = x*theta(s)), for x in normal form."""
    sx = system.left_mult(s, x)
    if sx == system.right_mult(x, theta[s]):
        return sx, True
    return system.right_mult(sx, theta[s]), False


# ----------------------------------------------------------------------

class Block:
    """Elements of a Coxeter system with a generator action, in Bruhat order.

    Each subclass's ``__init__`` sets ``system``, ``theta``, ``elements``
    (sorted by (length, ShortLex word) -- a linear extension of Bruhat
    order), ``index``, ``rho`` and ``cross`` (``cross[s][i] = (j, commutes,
    up)``: s acts on elements[i] with target elements[j]).  The Bruhat
    intervals are read off ``cross`` (``lower_indices``).

    Every block, a test block included, must satisfy property Z: at every
    descent j = s |*| i, lower(j) = lower(i) u { s |*| x : x in lower(i) }.
    The modules rely on it and do not check it: a row of psi, or a seed of
    the canonical solve, built by op_s from one in lower(i) lies in
    lower(j).

    Every generator s pairs every block: ``cross[s][k] = (t, commutes, up)``
    has t != k and ``cross[s][t] = (k, commutes, not up)``, so s splits the
    elements into pairs {i, j}, j = s |*| i above i, and a module's op_s
    acts on each pair by one 2x2 matrix per commutes case.  On W, s * w
    is an involution with l(s * w) = l(w) +- 1.  On the twisted involutions
    of one theta, s |*| is an involution (Hultman, "The combinatorics of
    twisted involutions in Coxeter groups", Trans. AMS 2007) that keeps
    the commutes case, since s * x = x * theta(s) gives s * (s * x) =
    (s * x) * theta(s); and it never fixes an element, because it moves
    rho by +-1 and ``TwistedBlock``'s search refuses an inconsistent rank.
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
    def first_case_indices(self) -> list[dict[tuple[bool, bool], int]]:
        """For each generator s, {(commutes, up): the first k with cross[s][k] in that case}.

        A case s never meets has no key.
        """
        out = []
        for row in self.cross:
            first: dict[tuple[bool, bool], int] = {}
            for k, (_, commutes, up) in enumerate(row):
                first.setdefault((commutes, up), k)
                if len(first) == 4:
                    break
            out.append(first)
        return out

    @cached_property
    def rank2_positions(self) -> dict[tuple[int, int], list[tuple[int, tuple, int]]]:
        """For each pair s < t: (i, shape, p) for the first basis vector i
        of each distinct (shape, p), in index order.

        s and t pair the block, so each <s, t>-orbit is a cycle x_0, ...,
        x_{n-1} with x_0 its lowest index and x_{k+1} (k + 1 mod n) equal to
        s |*| x_k for even k and t |*| x_k for odd k.  Its shape is its own
        cross table in positions: ``shape[0][k] = (k', commutes, up)`` when
        s |*| x_k = x_{k'}, and ``shape[1]`` likewise for t.  op_s and op_t
        keep the orbit's span and act on it, in the basis x_0, ..., x_{n-1},
        as generators 0 and 1 act on a block with cross table ``shape``.  So
        a relation in s and t holds at x_p exactly when it holds at position
        p of that shape, and every basis vector has the (shape, p) of a
        listed i at or below it.
        """
        n = len(self.elements)
        out = {}
        for s in range(len(self.cross)):
            for t in range(s + 1, len(self.cross)):
                rows = (self.cross[s], self.cross[t])
                where: list = [None] * n  # (shape, p) of each basis vector
                first: dict = {}  # (shape, p) -> its lowest basis vector, in index order
                for x0 in range(n):
                    if where[x0] is None:
                        orbit, flags = [x0], []
                        while True:
                            y, commutes, up = rows[len(flags) & 1][orbit[-1]]
                            flags.append((commutes, up))
                            if y == x0:
                                break
                            orbit.append(y)
                        shape = _cycle_cross(flags)
                        for p, x in enumerate(orbit):
                            where[x] = (shape, p)
                    first.setdefault(where[x0], x0)
                out[(s, t)] = [(i, shape, p) for (shape, p), i in first.items()]
        return out


def _cycle_cross(flags: list[tuple[bool, bool]]) -> tuple:
    """The cross table of generators 0 and 1 on a cycle whose step k, from
    position k to k + 1 by generator k mod 2, has the (commutes, up) flags[k]."""
    n = len(flags)
    rows: tuple[list, list] = ([None] * n, [None] * n)
    for k, (commutes, up) in enumerate(flags):
        j = (k + 1) % n
        rows[k & 1][k] = (j, commutes, up)
        rows[k & 1][j] = (k, commutes, not up)
    return tuple(rows[0]), tuple(rows[1])


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
        self.theta = check_involution(system, theta)
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

    rho is the length, theta the identity, and the commutes flag is False,
    so a structure's commuting rows are never read here.
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

    @cached_property
    def inverse(self) -> tuple[int, ...]:
        """inverse[i] is the index of elements[i]^-1.

        For a reduced word s1 ... sk, left multiplication of e by s1, then
        s2, ..., then sk gives sk ... s1, the inverse: one cross-table step
        per letter.
        """
        cross = [[t for t, _, _ in row] for row in self.cross]
        out = []
        for w in self.elements:
            k = 0
            for s in w:
                k = cross[s][k]
            out.append(k)
        return tuple(out)

    @cached_property
    def left_descents(self) -> tuple[int, ...]:
        """Bit s of left_descents[i] is set when s * elements[i] is shorter: L(w) as a mask."""
        out = [0] * len(self.elements)
        for s, row in enumerate(self.cross):
            for i, (_, _, up) in enumerate(row):
                if not up:
                    out[i] |= 1 << s
        return tuple(out)

    @cached_property
    def right_descents(self) -> tuple[int, ...]:
        """R(w) as a mask: R(w) = L(w^-1)."""
        left = self.left_descents
        return tuple(left[k] for k in self.inverse)

    @cached_property
    def right_cross(self) -> list[tuple[int, ...]]:
        """right_cross[t][i] is the index of elements[i] * t, which is (t * w^-1)^-1."""
        inverse = self.inverse
        return [tuple(inverse[row[k][0]] for k in inverse) for row in self.cross]


if __name__ == "__main__":  # pragma: no cover
    import doctest

    doctest.testmod()
