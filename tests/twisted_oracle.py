"""The extended group W x| Aut(W, S) at the word level, and rho by descent.

``TwistedBlock`` finds the twisted involutions by a breadth-first search
and reads ranks off it.  These are the definitions it is checked against:
the product (x, alpha)(y, beta) = (x * alpha(y), alpha o beta), in which a
twisted involution w = (x, theta) squares to the identity; the predicate
theta(x) = x^-1; and the rank rho computed by descending one step at a
time, with no enumeration.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ivhecke.coxeter import CoxeterSystem, Word
from ivhecke.twisted import Perm, check_automorphism, compose_perms, kappa

GroupElt = tuple[Word, Perm]  # element (x, alpha) of the extended group


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
