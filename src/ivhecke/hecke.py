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
with c = v^-1 - v.  It is computed incrementally and cached.  This
word-level algebra (elements, bar, phi, theta) is the independent
reference for the module code: ``kl_table`` itself is the canonical table
of the group block with its two-row structure (``ivmodules``).

``solve_canonical`` is the generic engine used by every basis in the
package: given a finite poset interval structure and a bar involution that
is antilinear, involutive and unitriangular with diagonal 1, it produces
the unique basis {b_w} with bar(b_w) = b_w and
b_w in a_w + sum_{x < w} v^-1 Z[v^-1] a_x.  Each column comes from one of
two sources.

* psi's rows.  Writing psi(a_y) = sum_x r_{x,y} a_x, the coefficients of
  b_w satisfy

      pi_{x,w} - bar(pi_{x,w}) = sum_{x < y <= w} r_{x,y} bar(pi_{y,w}),

  and the right-hand side determines pi_{x,w} by the antisymmetric split,
  top-down, at O(|interval|) Laurent operations per entry.  Elements of
  equal rank are independent, which the reverse_ties flag lets callers
  confirm.  A P-kernel on a poset with no module behind it
  (``pkernel.kls_function``) has nothing else to offer, and module tables
  are cross-checked this way, with ties reversed
  (``ivmodules.invariant_suite``); the ``pkernel`` command reads a
  module's KLS function off its recurrence table instead.
* A psi-invariant seed: a vector X = a1 b_w + (lower terms), such as
  (H_s + v^-k) b_y at a descent w = s y of a module (du Cloux's approach
  for Kazhdan-Lusztig polynomials, Lusztig-Vogan's for twisted
  involutions).  Walking x < w downward, the solver subtracts the
  bar-invariant multiple of b_x that ``split_bar_invariant`` reads off
  X's coefficient at x, and divides by a1.  Every module table
  (``ivmodules.TwistedModule.canonical_table``), ``kl_table`` included,
  is built this way.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Optional, Sequence

from .coxeter import CoxeterSystem, Word
from .laurent import (
    ONE,
    U,
    U2,
    ZERO,
    LaurentPoly,
    NotAntisymmetric,
    NotDivisible,
    accumulate,
    monomial,
    split_antisymmetric,
    split_bar_invariant,
    vec_axpy,
)
from .twisted import GroupBlock

Terms = dict[Word, LaurentPoly]
Column = dict[int, LaurentPoly]  # {index: coefficient}: a psi row, or a canonical column


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
            accumulate(out, sw, ONE, c)
            if len(sw) < len(w):
                accumulate(out, w, u, c)
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
        out = self.mult_gen(s, HeckeElt(self, dict(rest))).terms
        vec_axpy(out, self.c_bar, rest)
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
        """The canonical (Kazhdan-Lusztig) basis table of the regular module.

        The regular module is the group block with the two-row structure
        H_s H_w = H_{sw} (up), H_{sw} + (v^k - v^-k) H_w (down); its bar
        involution is derived from that structure like every block module's.
        """
        from .ivmodules import REGULAR_STRUCTURES, TwistedModule  # ivmodules imports hecke

        gamma = REGULAR_STRUCTURES[self.squared]
        return TwistedModule(GroupBlock(self.system), "h", gamma).canonical_table()

    def underline(self, w: Iterable[int], table: Optional["CanonicalTable"] = None) -> HeckeElt:
        """The canonical basis element attached to w."""
        if table is None:
            table = self.kl_table()
        j = table.elements.index(self.system.reduce(w))
        return HeckeElt(self, {table.elements[i]: c for i, c in table.column(j).items()})


# ----------------------------------------------------------------------
# the generic solver

def solve_canonical(
    ranks: Sequence[int],
    lower: Callable[[int], Sequence[int]],
    bar_row: Optional[Callable[[int], Column]] = None,
    reverse_ties: bool = False,
    labels: Optional[Sequence] = None,
    seed: Optional[Callable[[int, dict[int, Column]], tuple[Column, LaurentPoly]]] = None,
) -> dict[tuple[int, int], LaurentPoly]:
    """Solve for the canonical basis of a pre-canonical involution.

    ``ranks`` lists a grading, indexed in a linear extension of the order
    (strictly comparable elements have distinct ranks); ``lower(j)`` lists
    the indices i <= j, j included.  Each column comes from exactly one of
    two sources:

    * ``bar_row(j)``, the expansion of psi(a_j) as {i: coefficient}: the
      column is solved top-down from the defect equation.  This serves
      P-kernels with no module behind them (``pkernel.kls_function``) and,
      with ``reverse_ties``, the cross-check of every module table in
      ``ivmodules.invariant_suite``;
      a module's KLS function is read off its seeded table
      (``pkernel.module_kls_function``).
    * ``seed(j, columns)``, a psi-invariant vector X with top coefficient
      a1 at j, returned as (X, a1); ``columns`` holds every solved column
      b_i = {x: pi_{x,i}} with i < j.  Walking x < j downward, the solver
      subtracts p_x b_x, p_x the bar-invariant part of X_x
      (``split_bar_invariant``), and divides by a1.  This serves every
      module table (``TwistedModule.canonical_table``), whose seed is
      (H_s + v^-k) b_i at a descent j = s |*| i.

    Returns all nonzero entries pi_{x,w} keyed by (x_index, w_index),
    including the unit diagonal, each column in the walk order.

    Raises NotPreCanonical if psi is not unitriangular with diagonal 1, or
    if a column's defect fails the antisymmetric split (which is exactly
    the failure mode of psi^2 != 1 or a non-bar-involutive setup); with a
    seed, if its top coefficient is not a1, it reaches outside lower(j),
    or a coefficient has no bar-invariant split.
    """
    if (bar_row is None) == (seed is None):
        raise TypeError("solve_canonical takes exactly one of bar_row and seed")
    n = len(ranks)
    entries: dict[tuple[int, int], LaurentPoly] = {}
    solved: dict[int, Column] = {}  # psi rows, or the solved columns

    def name(i: int):
        return labels[i] if labels is not None else i

    key = (lambda i: (-ranks[i], -i)) if reverse_ties else (lambda i: (-ranks[i], i))
    for j in range(n):
        interval = lower(j)
        members = set(interval)
        order = sorted((i for i in interval if i != j), key=key)
        entries[(j, j)] = ONE
        if seed is not None:
            solved[j] = _column_from_seed(j, members, order, seed, solved, entries, name)
            continue
        row = bar_row(j)
        solved[j] = row
        diag = row.get(j, ZERO)
        if diag != ONE:
            raise NotPreCanonical(
                f"bar matrix diagonal at {name(j)} is {diag}, expected 1",
                {"element": name(j), "diagonal": diag.to_json()},
            )
        for i in row:
            if row[i] and i not in members:
                raise NotPreCanonical(
                    f"bar matrix not unitriangular: psi(a_{name(j)}) hits {name(i)}",
                    {"element": name(j), "offender": name(i)},
                )

        # bar(pi_{y,w}) for each y solved so far in this column
        column_bar: dict[int, LaurentPoly] = {j: ONE}
        for x in order:
            d = ZERO
            for y, pi_y_bar in column_bar.items():
                r = solved[y].get(x)
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


def _column_from_seed(
    j: int,
    members: set[int],
    order: list[int],
    seed: Callable[[int, dict[int, Column]], tuple[Column, LaurentPoly]],
    columns: dict[int, Column],
    entries: dict[tuple[int, int], LaurentPoly],
    name: Callable[[int], object],
) -> Column:
    """Column j of ``solve_canonical``, reduced from its psi-invariant seed.

    X = a1 b_j + sum_{x < j} p_x b_x with every p_x bar-invariant, as X and
    the b_x are psi-invariant.  At x, every b_y holding a_x with y above x
    is already peeled off, so X_x = a1 pi_{x,j} + p_x, which
    ``split_bar_invariant`` separates.
    """
    vec, a1 = seed(j, columns)
    if vec.get(j) != a1:
        top = vec.get(j, ZERO)
        raise NotPreCanonical(
            f"column {name(j)}: seed has top coefficient {top}, expected {a1}",
            {"column": name(j), "top": top.to_json(), "expected": a1.to_json()},
        )
    for i in vec:
        if i not in members:
            raise NotPreCanonical(
                f"column {name(j)}: seed hits {name(i)}, which is not below it",
                {"column": name(j), "offender": name(i)},
            )
    column = {j: ONE}
    for x in order:
        f = vec.get(x)
        if not f:
            continue
        try:
            p = split_bar_invariant(f, a1)
        except NotDivisible:
            raise NotPreCanonical(
                f"column {name(j)}: seed coefficient at {name(x)} has no bar-invariant split: {f}",
                {"column": name(j), "element": name(x), "coefficient": f.to_json()},
            ) from None
        if p:
            vec_axpy(vec, -p, columns[x])
            f = vec.get(x)
            if not f:
                continue
        pi = f if a1 == ONE else -f if a1 == -ONE else f.exact_div(a1)
        column[x] = pi
        entries[(x, j)] = pi
    return column


# ----------------------------------------------------------------------
# tables

def column_index(entries: dict[tuple[int, int], LaurentPoly]) -> dict[int, dict[int, LaurentPoly]]:
    """{j: {i: entries[(i, j)]}}, each column in the order of ``entries``."""
    columns: dict[int, dict[int, LaurentPoly]] = {}
    for (i, j), p in entries.items():
        columns.setdefault(j, {})[i] = p
    return columns


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

    def entry(self, i: int, j: int) -> LaurentPoly:
        return self.entries.get((i, j), ZERO)

    def entry_by_words(self, x: Iterable[int], w: Iterable[int]) -> LaurentPoly:
        ix = self.elements.index(self.system.reduce(x))
        iw = self.elements.index(self.system.reduce(w))
        return self.entry(ix, iw)

    @cached_property
    def _columns(self) -> dict[int, dict[int, LaurentPoly]]:
        return column_index(self.entries)

    def column(self, j: int) -> dict[int, LaurentPoly]:
        """{i: entry (i, j)}, in the order of ``entries``; a fresh dict."""
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
