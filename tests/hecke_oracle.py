"""The word-level Hecke algebra: elements, their product, bar, phi and Theta.

Kept as the first-principles reference for the module code.  An element is
a finite A-linear combination of standard basis elements H_w, multiplied
letter by letter through ``HeckeAlgebra.mult_gen``; its bar involution is
read off ``HeckeAlgebra.bar_basis_terms``.  Tests check canonical columns
for bar-invariance with it, and check it against the algebra maps phi
(v^n H_w |-> v^{2n} K_w, into the v^2-algebra) and Theta (the A-linear
involution H_s |-> -H_s + (v^k - v^-k)).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from ivhecke.hecke import CanonicalTable, HeckeAlgebra, Terms
from ivhecke.laurent import ONE, ZERO, LaurentPoly, vec_axpy


@dataclass
class HeckeElt:
    """A finitely supported A-linear combination of standard basis elements."""

    algebra: "ElementAlgebra"
    terms: Terms = field(default_factory=dict)

    def _check_same(self, other: "HeckeElt") -> None:
        if self.algebra is not other.algebra:
            raise ValueError("cannot mix elements of different algebras/parameters")

    def __add__(self, other: "HeckeElt") -> "HeckeElt":
        self._check_same(other)
        out = dict(self.terms)
        vec_axpy(out, ONE, other.terms)
        return HeckeElt(self.algebra, out)

    def __sub__(self, other: "HeckeElt") -> "HeckeElt":
        return self + (-other)

    def __neg__(self) -> "HeckeElt":
        return HeckeElt(self.algebra, {w: -c for w, c in self.terms.items()})

    def scale(self, c: LaurentPoly | int) -> "HeckeElt":
        if isinstance(c, int):
            c = LaurentPoly.from_int(c)
        if not c:
            return HeckeElt(self.algebra, {})
        return HeckeElt(self.algebra, {w: c * p for w, p in self.terms.items()})

    def __mul__(self, other: "HeckeElt") -> "HeckeElt":
        """Algebra product."""
        self._check_same(other)
        alg = self.algebra
        out = HeckeElt(alg, {})
        for w, c in self.terms.items():
            piece = other.terms
            for s in reversed(w):
                piece = alg.mult_gen(s, piece)
            out = out + HeckeElt(alg, piece).scale(c)
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HeckeElt):
            return NotImplemented
        return self.algebra is other.algebra and self.terms == other.terms

    def is_zero(self) -> bool:
        return not self.terms

    def __repr__(self) -> str:
        if not self.terms:
            return "HeckeElt(0)"
        bits = []
        for w in sorted(self.terms, key=lambda w: (len(w), w)):
            word = "".join(map(str, w)) if w else "e"
            bits.append(f"({self.terms[w]})*H[{word}]")
        return "HeckeElt(" + " + ".join(bits) + ")"


class ElementAlgebra(HeckeAlgebra):
    """``HeckeAlgebra`` with its elements and the maps on them."""

    _partner: Optional["ElementAlgebra"] = None

    def squared_partner(self) -> "ElementAlgebra":
        """The same system with parameter v^2 (image of phi)."""
        if self.squared:
            raise ValueError("already the squared-parameter algebra")
        if self._partner is None:
            self._partner = ElementAlgebra(self.system, squared=True)
        return self._partner

    def zero(self) -> HeckeElt:
        return HeckeElt(self, {})

    def unit(self) -> HeckeElt:
        return HeckeElt(self, {(): ONE})

    def basis(self, w: Iterable[int]) -> HeckeElt:
        return HeckeElt(self, {self.system.reduce(w): ONE})

    def from_terms(self, terms: dict) -> HeckeElt:
        out: Terms = {}
        for w, c in terms.items():
            if isinstance(c, int):
                c = LaurentPoly.from_int(c)
            if c:
                out[self.system.reduce(w)] = c
        return HeckeElt(self, out)

    def _own(self, h: HeckeElt) -> None:
        if h.algebra is not self:
            raise ValueError("element belongs to a different algebra")

    def bar(self, h: HeckeElt) -> HeckeElt:
        """The bar involution: antilinear, bar(H_w) = (H_{w^-1})^{-1}."""
        self._own(h)
        out = self.zero()
        for w, c in h.terms.items():
            out = out + HeckeElt(self, dict(self.bar_basis_terms(w))).scale(c.bar())
        return out

    def phi(self, h: HeckeElt) -> HeckeElt:
        """The parameter-doubling map v^n H_w |-> v^{2n} K_w."""
        if self.squared:
            raise ValueError("phi goes from the v-algebra to the v^2-algebra")
        self._own(h)
        return HeckeElt(self.squared_partner(), {w: c.square_v() for w, c in h.terms.items()})

    def theta_auto(self, h: HeckeElt) -> HeckeElt:
        """The A-linear algebra involution with H_s |-> -H_s + (v^k - v^-k)."""
        self._own(h)
        out = self.zero()
        for w, c in h.terms.items():
            piece = self.unit()
            for s in reversed(w):
                piece = -HeckeElt(self, self.mult_gen(s, piece.terms)) + piece.scale(self.u)
            out = out + piece.scale(c)
        return out

    def underline(self, w: Iterable[int], table: Optional[CanonicalTable] = None) -> HeckeElt:
        """The canonical basis element attached to w."""
        if table is None:
            table = self.kl_table()
        j = table.elements.index(self.system.reduce(w))
        return HeckeElt(self, {table.elements[i]: c for i, c in table.columns[j].items()})


def entry_by_words(table: CanonicalTable, x: Iterable[int], w: Iterable[int]) -> LaurentPoly:
    """The table entry at (x, w), given as words."""
    ix = table.elements.index(table.system.reduce(x))
    iw = table.elements.index(table.system.reduce(w))
    return entry(table, ix, iw)


def entry(table: CanonicalTable, i: int, j: int) -> LaurentPoly:
    """The table entry at (i, j); absent means zero."""
    return table.columns[j].get(i, ZERO)
