"""Hecke algebras over A = Z[v, v^-1] and the canonical-basis solver.

Two flavours of the same algebra appear: ``HeckeAlgebra(W)`` has standard
basis {H_w} and quadratic parameter v, so

    H_s H_w = H_{sw}                       if l(sw) > l(w),
    H_s H_w = H_{sw} + (v - v^-1) H_w      if l(sw) < l(w);

``HeckeAlgebra(W, squared=True)`` is the same algebra with parameter v^2
(basis written K_w in the docs below), i.e. (v^2 - v^-2) in the rule.  The
ring map phi: v^n H_w |-> v^{2n} K_w intertwines the two.

The bar involution is the antilinear map fixing each H_s^{-1}-story:
bar(H_w) = (H_{s1} + c) ... (H_{sk} + c) for any reduced word s1...sk of w,
with c = v^-1 - v.  It is computed incrementally and cached.

``solve_canonical`` is the generic engine used by every basis in the
package: given a finite poset interval structure and a bar involution that
is antilinear, involutive and unitriangular with diagonal 1, it produces
the unique basis {b_w} with bar(b_w) = b_w and
b_w in a_w + sum_{x < w} v^-1 Z[v^-1] a_x.  Columns are solved top-down:
writing psi(a_y) = sum_x r_{x,y} a_x, the coefficients of b_w satisfy

    pi_{x,w} - bar(pi_{x,w}) = sum_{x < y <= w} r_{x,y} bar(pi_{y,w}),

and the right-hand side determines pi_{x,w} by the antisymmetric split.
Elements of equal rank are independent, which the solver exploits (and
which the reverse_ties flag lets tests confirm).
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

from .coxeter import CoxeterSystem, Word
from .laurent import (
    ONE,
    U,
    U2,
    ZERO,
    LaurentPoly,
    NotAntisymmetric,
    monomial,
    split_antisymmetric,
)

Terms = dict[Word, LaurentPoly]


class NotPreCanonical(ValueError):
    """The supplied involution fails a pre-canonicity requirement.

    Carries a ``witness`` dict locating the failure.
    """

    def __init__(self, message: str, witness: Optional[dict] = None) -> None:
        super().__init__(message)
        self.witness = witness or {}


# ----------------------------------------------------------------------
# elements

@dataclass
class HeckeElt:
    """A finitely supported A-linear combination of standard basis elements."""

    algebra: "HeckeAlgebra"
    terms: Terms = field(default_factory=dict)

    def _check_same(self, other: "HeckeElt") -> None:
        if self.algebra is not other.algebra:
            raise ValueError("cannot mix elements of different algebras/parameters")

    def coeff(self, w: Iterable[int]) -> LaurentPoly:
        return self.terms.get(self.algebra.system.reduce(w), ZERO)

    def __add__(self, other: "HeckeElt") -> "HeckeElt":
        self._check_same(other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            acc = out.get(w)
            s = c if acc is None else acc + c
            if s:
                out[w] = s
            elif acc is not None:
                del out[w]
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
            piece = other
            for s in reversed(w):
                piece = alg.mult_gen(s, piece)
            out = out + piece.scale(c)
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


# ----------------------------------------------------------------------

class HeckeAlgebra:
    """The Hecke algebra of a Coxeter system, parameter v or v^2."""

    def __init__(self, system: CoxeterSystem, squared: bool = False) -> None:
        self.system = system
        self.squared = squared
        self.shift = 2 if squared else 1
        self.u = U2 if squared else U            # v^k - v^-k
        self.c_bar = -self.u                      # bar(H_s) = H_s + c_bar
        self.vk_inv = monomial(-self.shift)       # v^-k
        self._bar_cache: dict[Word, Terms] = {(): {(): ONE}}
        self._partner: Optional["HeckeAlgebra"] = None

    def __repr__(self) -> str:
        return f"HeckeAlgebra({self.system!r}, squared={self.squared})"

    def squared_partner(self) -> "HeckeAlgebra":
        """The same system with parameter v^2 (image of phi)."""
        if self.squared:
            raise ValueError("already the squared-parameter algebra")
        if self._partner is None:
            self._partner = HeckeAlgebra(self.system, squared=True)
        return self._partner

    # ------------------------------------------------------------------

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

    def mult_gen(self, s: int, h: HeckeElt) -> HeckeElt:
        """Left multiplication H_s * h."""
        if h.algebra is not self:
            raise ValueError("element belongs to a different algebra")
        W = self.system
        u = self.u
        out: Terms = {}
        for w, c in h.terms.items():
            sw = W.left_mult(s, w)
            acc = out.get(sw)
            val = c if acc is None else acc + c
            if val:
                out[sw] = val
            elif acc is not None:
                del out[sw]
            if len(sw) < len(w):
                acc = out.get(w)
                val = u * c if acc is None else acc.addmul(u, c)
                if val:
                    out[w] = val
                elif acc is not None:
                    del out[w]
        return HeckeElt(self, out)

    # ------------------------------------------------------------------
    # bar involution

    def bar_basis_terms(self, w: Iterable[int]) -> Terms:
        """Expansion of bar(H_w) in the standard basis (cached)."""
        w = self.system.reduce(w)
        cached = self._bar_cache.get(w)
        if cached is not None:
            return cached
        s = w[0]
        rest = self.bar_basis_terms(w[1:])
        # bar(H_w) = (H_s + c_bar) * bar(H_{w'})
        elt = self.mult_gen(s, HeckeElt(self, dict(rest)))
        cb = self.c_bar
        out = dict(elt.terms)
        for x, c in rest.items():
            acc = out.get(x)
            val = cb * c if acc is None else acc.addmul(cb, c)
            if val:
                out[x] = val
            elif acc is not None:
                del out[x]
        self._bar_cache[w] = out
        return out

    def bar(self, h: HeckeElt) -> HeckeElt:
        """The bar involution: antilinear, bar(H_w) = (H_{w^-1})^{-1}."""
        if h.algebra is not self:
            raise ValueError("element belongs to a different algebra")
        out = self.zero()
        for w, c in h.terms.items():
            out = out + HeckeElt(self, dict(self.bar_basis_terms(w))).scale(c.bar())
        return out

    # ------------------------------------------------------------------
    # the two algebra maps

    def phi(self, h: HeckeElt) -> HeckeElt:
        """The parameter-doubling map v^n H_w |-> v^{2n} K_w."""
        if self.squared:
            raise ValueError("phi goes from the v-algebra to the v^2-algebra")
        if h.algebra is not self:
            raise ValueError("element belongs to a different algebra")
        target = self.squared_partner()
        return HeckeElt(target, {w: c.square_v() for w, c in h.terms.items()})

    def theta_auto(self, h: HeckeElt) -> HeckeElt:
        """The A-linear algebra involution with H_s |-> -H_s + (v^k - v^-k)."""
        if h.algebra is not self:
            raise ValueError("element belongs to a different algebra")
        out = self.zero()
        for w, c in h.terms.items():
            piece = self.unit()
            for s in reversed(w):
                piece = (-self.mult_gen(s, piece)) + piece.scale(self.u)
            out = out + piece.scale(c)
        return out

    # ------------------------------------------------------------------
    # canonical basis of the algebra itself

    def kl_table(self) -> "CanonicalTable":
        """The canonical (Kazhdan-Lusztig) basis table of the regular module."""
        W = self.system
        elements = W.elements()
        index = {w: i for i, w in enumerate(elements)}
        ranks = [len(w) for w in elements]

        def bar_row(j: int) -> dict[int, LaurentPoly]:
            return {index[x]: c for x, c in self.bar_basis_terms(elements[j]).items()}

        entries = solve_canonical(
            ranks,
            lambda i, j: W.bruhat_leq(elements[i], elements[j]),
            bar_row,
        )
        return CanonicalTable(
            label="h",
            system=W,
            theta=W.identity_perm(),
            elements=elements,
            ranks=ranks,
            entries=entries,
        )

    def underline(self, w: Iterable[int], table: Optional["CanonicalTable"] = None) -> HeckeElt:
        """The canonical basis element attached to w."""
        if table is None:
            table = self.kl_table()
        W = self.system
        j = table.elements.index(W.reduce(w))
        return HeckeElt(
            self,
            {
                table.elements[i]: c
                for (i, jj), c in table.entries.items()
                if jj == j and c
            },
        )


# ----------------------------------------------------------------------
# the generic solver

def solve_canonical(
    ranks: Sequence[int],
    leq: Callable[[int, int], bool],
    bar_row: Callable[[int], dict[int, LaurentPoly]],
    reverse_ties: bool = False,
    labels: Optional[Sequence] = None,
) -> dict[tuple[int, int], LaurentPoly]:
    """Solve for the canonical basis of a pre-canonical involution.

    ``ranks`` lists a grading, indexed in a linear extension of the order
    ``leq`` (strictly comparable elements have distinct ranks).
    ``bar_row(j)`` gives the expansion of psi(a_j) as {i: coefficient}.
    Returns all nonzero entries pi_{x,w} keyed by (x_index, w_index),
    including the unit diagonal.

    Raises NotPreCanonical if psi is not unitriangular with diagonal 1, or
    if a column's defect fails the antisymmetric split (which is exactly
    the failure mode of psi^2 != 1 or a non-bar-involutive setup).
    """
    n = len(ranks)
    entries: dict[tuple[int, int], LaurentPoly] = {}
    rows: dict[int, dict[int, LaurentPoly]] = {}

    def name(i: int):
        return labels[i] if labels is not None else i

    for j in range(n):
        row = bar_row(j)
        rows[j] = row
        diag = row.get(j, ZERO)
        if diag != ONE:
            raise NotPreCanonical(
                f"bar matrix diagonal at {name(j)} is {diag}, expected 1",
                {"element": name(j), "diagonal": diag.to_json()},
            )
        for i in row:
            if row[i] and not leq(i, j):
                raise NotPreCanonical(
                    f"bar matrix not unitriangular: psi(a_{name(j)}) hits {name(i)}",
                    {"element": name(j), "offender": name(i)},
                )

        interval = [i for i in range(j) if leq(i, j)]
        entries[(j, j)] = ONE
        # bar(pi_{y,w}) for each y solved so far in this column
        column_bar: dict[int, LaurentPoly] = {j: ONE}
        order = sorted(interval, key=(lambda i: (-ranks[i], -i)) if reverse_ties else (lambda i: (-ranks[i], i)))
        for x in order:
            d = ZERO
            for y, pi_y_bar in column_bar.items():
                r = rows[y].get(x)
                if r:
                    d = d.addmul(r, pi_y_bar)
            if not d:
                continue
            try:
                mu = split_antisymmetric(d)
            except NotAntisymmetric:
                raise NotPreCanonical(
                    f"column {name(j)}: defect at {name(x)} is not antisymmetric: {d}",
                    {
                        "column": name(j),
                        "element": name(x),
                        "defect": d.to_json(),
                    },
                ) from None
            if mu:
                column_bar[x] = mu.bar()
                entries[(x, j)] = mu
    return entries


# ----------------------------------------------------------------------
# tables

@dataclass
class CanonicalTable:
    """A computed canonical basis: unitriangular coefficient table.

    ``entries[(i, j)]`` is the coefficient of a_{elements[i]} in the
    canonical element attached to elements[j]; absent means zero.
    ``ranks`` is the grading used (length for the regular module, the
    twisted-involution rank for the block modules).
    """

    label: str
    system: CoxeterSystem
    theta: tuple[int, ...]
    elements: list[Word]
    ranks: list[int]
    entries: dict[tuple[int, int], LaurentPoly]
    # column index built by the first column() call
    _columns: Optional[dict[int, dict[int, LaurentPoly]]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def entry(self, i: int, j: int) -> LaurentPoly:
        return self.entries.get((i, j), ZERO)

    def entry_by_words(self, x: Iterable[int], w: Iterable[int]) -> LaurentPoly:
        ix = self.elements.index(self.system.reduce(x))
        iw = self.elements.index(self.system.reduce(w))
        return self.entry(ix, iw)

    def column(self, j: int) -> dict[int, LaurentPoly]:
        """{i: entry (i, j)}, in the order of ``entries``; a fresh dict."""
        if self._columns is None:
            columns: dict[int, dict[int, LaurentPoly]] = {}
            for (i, jj), c in self.entries.items():
                columns.setdefault(jj, {})[i] = c
            self._columns = columns
        return dict(self._columns.get(j, {}))

    def sorted_keys(self) -> list[tuple[int, int]]:
        return sorted(self.entries, key=lambda ij: (ij[1], ij[0]))

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "system": self.system.system_json(),
            "theta": list(self.theta),
            "entries": [
                {
                    "x": list(self.elements[i]),
                    "w": list(self.elements[j]),
                    "poly": self.entries[(i, j)].to_json(),
                }
                for (i, j) in self.sorted_keys()
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["x", "w", "poly"])
        for i, j in self.sorted_keys():
            writer.writerow(
                [
                    " ".join(map(str, self.elements[i])) or "e",
                    " ".join(map(str, self.elements[j])) or "e",
                    self.entries[(i, j)].to_text(),
                ]
            )
        return buf.getvalue()

    def to_text(self) -> str:
        lines = [f"# canonical table: label={self.label} theta={','.join(map(str, self.theta))}"]
        for i, j in self.sorted_keys():
            x = " ".join(map(str, self.elements[i])) or "e"
            w = " ".join(map(str, self.elements[j])) or "e"
            lines.append(f"{x} | {w} | {self.entries[(i, j)].to_text()}")
        return "\n".join(lines) + "\n"
