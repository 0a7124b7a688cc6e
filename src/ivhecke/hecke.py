"""Hecke algebras over A = Z[v, v^-1] and the canonical-basis solver.

``HeckeAlgebra(W)`` is the Hecke algebra of W with standard basis {H_w}
and quadratic parameter v, so

    H_s H_w = H_{sw}                       if l(sw) > l(w),
    H_s H_w = H_{sw} + (v - v^-1) H_w      if l(sw) < l(w);

``HeckeAlgebra(W, squared=True)`` is the same algebra with parameter v^2,
i.e. (v^2 - v^-2) in the rule.  Its ``kl_table`` is the canonical table
of the group block with the matching structure (``ivmodules``):
the ``h`` table of the commands.  Its word-level arithmetic is two maps on
{word: coefficient} dicts: ``mult_gen`` (left multiplication by H_s) and
``bar_basis_terms``, the expansion of bar(H_w) = H_{s1}^-1 ... H_{sk}^-1
for a reduced word s1...sk of w, computed incrementally and cached.  Tests
compare the modules' derived bar rows with it; the elements built on these
two maps (products, bar, phi, Theta) live in ``tests/hecke_oracle.py``.

``solve_canonical`` is the generic engine used by every basis in the
package: given a finite poset interval structure and a bar involution that
is antilinear, involutive and unitriangular with diagonal 1, it produces
the unique basis {b_w} with bar(b_w) = b_w and
b_w in a_w + sum_{x < w} v^-1 Z[v^-1] a_x.  Each column comes from one of
two sources.  (A P-kernel with no module behind it has only psi's rows
to offer, and ``pkernel.kls_function`` solves it from them.)

* A psi-invariant seed: a vector X = a1 b_w + (lower terms), such as
  (H_s + v^-k) b_y at a descent w = s y of a module (du Cloux's approach
  for Kazhdan-Lusztig polynomials, Lusztig-Vogan's for twisted
  involutions).  Walking x < w downward, the solver subtracts the
  bar-invariant multiple of b_x that ``split_bar_invariant`` reads off
  X's coefficient at x, and divides by a1.  Every module table
  (``ivmodules.TwistedModule.canonical_table``), ``kl_table`` included,
  is built this way.  For ``pi`` the seed comes with links that fill
  half of each column from the eigenvalue relation, and only the other
  half is peeled.  For ``h`` the links use every left and right descent
  of w, and the seed is read only at two-sided extremal pairs and where a
  peel coefficient can be nonzero (the mirror, below).
* A mirror: a permutation with pi_{x,w} = pi_{mirror[x],mirror[w]}, so a
  column w with mirror[w] < w is copied, not solved.  The regular module
  has one, w |-> w^-1 (Kazhdan-Lusztig 1979): iota(H_w) = H_{w^-1} is an
  A-linear anti-automorphism of the Hecke algebra, since the relations
  of H_s are symmetric, and it commutes with bar, as iota o bar and
  bar o iota are antilinear anti-automorphisms that agree on v and on
  every H_s.  So iota(C_w) is bar-invariant and lies in H_{w^-1} +
  sum_{x < w} v^-1 Z[v^-1] H_{x^-1}; x < w exactly when x^-1 < w^-1, so
  iota(C_w) = C_{w^-1} by uniqueness.  The same holds with parameter
  v^2, and for the rows of psi = bar (R_{x,w} = R_{x^-1,w^-1}).  Only the
  regular module's structure on the group block, in v or v^2, is a Hecke
  algebra acting on itself, so ``TwistedModule`` mirrors only there
  (``ivmodules.is_regular``).

  iota also turns the left fill into a right one: C_w[x] = v^-k C_w[x t]
  at a right descent t of w with x t > x.  The two fills also make most
  mu(x, y) vanish, so the regular module's seed is read only at two-sided
  extremal pairs and where a peel coefficient can be nonzero;
  ``TwistedModule._seed`` gives both proofs.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

from .coxeter import CoxeterSystem, Word
from .laurent import (
    ONE,
    U,
    U2,
    LaurentPoly,
    NotDivisible,
    accumulate,
    monomial_times,
    split_bar_invariant,
    vec_axpy,
)
from .twisted import GroupBlock

Terms = dict[Word, LaurentPoly]
Column = dict[int, LaurentPoly]  # {index: coefficient}: a canonical column
#: per element, None or (t, c, e): the entry at it is c v^e times the entry at t
Links = Sequence[Optional[tuple[int, int, int]]]
Seed = tuple[Column, LaurentPoly, Optional[Links]]  # (X, a1, links), see solve_canonical


class NotPreCanonical(ValueError):
    """The supplied involution fails a pre-canonicity requirement.

    Carries a ``witness`` dict locating the failure.
    """

    def __init__(self, message: str, witness: Optional[dict] = None) -> None:
        super().__init__(message)
        self.witness = witness or {}


class HeckeAlgebra:
    """The Hecke algebra of a Coxeter system, parameter v or v^2.

    An element is a dict {word in normal form: coefficient}.
    """

    def __init__(self, system: CoxeterSystem, squared: bool = False) -> None:
        self.system = system
        self.squared = squared
        self.u = U2 if squared else U            # v^k - v^-k
        self._bar_cache: dict[Word, Terms] = {(): {(): ONE}}

    def __repr__(self) -> str:
        return f"HeckeAlgebra({self.system!r}, squared={self.squared})"

    def mult_gen(self, s: int, terms: Terms) -> Terms:
        """Left multiplication H_s * h, h given by its terms."""
        W = self.system
        u = self.u
        out: Terms = {}
        for w, c in terms.items():
            sw = W.left_mult(s, w)
            accumulate(out, sw, ONE, c)
            if len(sw) < len(w):
                accumulate(out, w, u, c)
        return out

    def bar_basis_terms(self, w: Iterable[int]) -> Terms:
        """Expansion of bar(H_w) in the standard basis (cached; do not mutate)."""
        w = self.system.reduce(w)
        cached = self._bar_cache.get(w)
        if cached is not None:
            return cached
        rest = self.bar_basis_terms(w[1:])
        # bar(H_w) = (H_s + v^-k - v^k) * bar(H_{w'}) for w = s w'
        out = self.mult_gen(w[0], rest)
        vec_axpy(out, -self.u, rest)
        self._bar_cache[w] = out
        return out

    def kl_table(self) -> "CanonicalTable":
        """The canonical (Kazhdan-Lusztig) basis table of the regular module.

        The regular module is the group block with the structure
        H_s H_w = H_{sw} (up), H_{sw} + (v^k - v^-k) H_w (down), whose
        commuting rows repeat these; its bar involution is derived from
        that structure like every block module's.
        """
        from .ivmodules import REGULAR_STRUCTURES, TwistedModule  # ivmodules imports hecke

        gamma = REGULAR_STRUCTURES[self.squared]
        return TwistedModule(GroupBlock(self.system), "h", gamma).canonical_table()


# ----------------------------------------------------------------------
# the generic solver

def solve_canonical(
    ranks: Sequence[int],
    lower: Callable[[int], Sequence[int]],
    seed: Callable[[int, dict[int, Column]], Seed],
    *,
    labels: Sequence,
    mirror: Optional[Sequence[int]] = None,
) -> dict[int, Column]:
    """Solve for the canonical basis of a pre-canonical involution from its seeds.

    ``ranks`` lists a grading, indexed in a linear extension of the order
    (strictly comparable elements have distinct ranks); ``lower(j)`` lists
    the indices i <= j, j included; ``labels[i]`` names element i in the
    errors.  Each column comes from exactly one of two sources:

    * ``seed(j, columns)``, a psi-invariant vector X with top coefficient
      a1 at j, returned as (X, a1, links); ``columns`` holds every solved
      column b_i = {x: pi_{x,i}} with i < j.  Walking x < j downward, the
      solver subtracts p_x b_x, p_x the bar-invariant part of X_x
      (``split_bar_invariant``), and divides by a1.  This serves every
      module table (``TwistedModule.canonical_table``), whose seed is
      (H_s + v^-k) b_i at a descent j = s |*| i.  That seed lies in
      lower(j) = lower(i) u s |*| lower(i) (property Z, ``Block``) and
      its coefficient at j is a1 (s |*| x = j only for x = i), so neither
      is checked.  ``links`` is None, or fills part of the column from
      entries above (``_column_from_seed``).
    * ``mirror``: an order- and rank-preserving permutation of the
      elements, with pi_{x,j} = pi_{mirror[x],mirror[j]} proven by the
      caller.  A column j with mirror[j] < j is copied from column
      mirror[j], with no seed and no peel (``_mirrored_column``).  The
      regular module's w |-> w^-1 is one (module docstring).

    Returns the columns {j: {x: pi_{x,j}}} for j = 0 .. n-1, each holding
    its nonzero entries: the unit diagonal first, then the walk order, rank
    descending, then index ascending.

    Raises NotPreCanonical if a seed coefficient has no bar-invariant split.
    """
    n = len(ranks)
    solved: dict[int, Column] = {}

    key = [i - n * r for i, r in enumerate(ranks)].__getitem__
    for j in range(n):
        order = sorted((i for i in lower(j) if i != j), key=key)
        if mirror is not None and mirror[j] < j:
            solved[j] = _mirrored_column(j, order, mirror, solved[mirror[j]])
        else:
            solved[j] = _column_from_seed(j, order, seed, solved, labels)
    return solved


def _mirrored_column(
    j: int,
    order: list[int],
    mirror: Sequence[int],
    source: Column,
) -> Column:
    """Column j of ``solve_canonical`` copied from column mirror[j]: pi_{x,j} = pi_{mirror[x],mirror[j]}.

    The column is walked in j's own ``order``, so its keys come in the
    order the seeded solve would give them.
    """
    column = {j: ONE}
    for x in order:
        p = source.get(mirror[x])
        if p is not None:
            column[x] = p
    return column


def _column_from_seed(
    j: int,
    order: list[int],
    seed: Callable[[int, dict[int, Column]], Seed],
    columns: dict[int, Column],
    labels: Sequence,
) -> Column:
    """Column j of ``solve_canonical``, reduced from its psi-invariant seed.

    X = a1 b_j + sum_{x < j} p_x b_x with every p_x bar-invariant, as X and
    the b_x are psi-invariant.  At x, every b_y holding a_x with y above x
    is already peeled off, so X_x = a1 pi_{x,j} + p_x, which
    ``split_bar_invariant`` separates.  X lies in lower(j) with X_j = a1
    (``solve_canonical``), so ``order`` covers it.

    With ``links`` (``TwistedModule._seed``), p_x = 0 wherever links[x] =
    (t, c, e), and pi_{x,j} = c v^e pi_{t,j} for a t that is j or comes
    before x in ``order``: such x are filled, not peeled, and X is read
    only at the others, and peeled only there.  The entries and their order
    are those of the full peel, as the column is unique.
    """
    vec, a1, links = seed(j, columns)
    sign = 1 if a1 == ONE else -1 if a1 == -ONE else 0
    column = {j: ONE}
    for x in order:
        if links is not None:
            link = links[x]
            if link is not None:
                t, c, e = link
                above = column.get(t)
                if above:
                    column[x] = monomial_times(c, e, above)
                continue
        f = vec.get(x)
        if not f:
            continue
        try:
            p = split_bar_invariant(f, a1)
        except NotDivisible:
            raise NotPreCanonical(
                f"column {labels[j]}: seed coefficient at {labels[x]} has no bar-invariant split: {f}",
                {"column": labels[j], "element": labels[x], "coefficient": f.to_json()},
            ) from None
        if p:
            if links is None:
                vec_axpy(vec, -p, columns[x])
            else:
                p = -p
                for y, b in columns[x].items():
                    if links[y] is None:
                        accumulate(vec, y, p, b)
            f = vec.get(x)
            if not f:
                continue
        column[x] = f if sign == 1 else -f if sign else f.exact_div(a1)
    return column


# ----------------------------------------------------------------------
# tables

@dataclass
class CanonicalTable:
    """A computed canonical basis: unitriangular coefficient table.

    ``columns[j][i]`` is the coefficient of a_{elements[i]} in the
    canonical element attached to elements[j]; absent means zero.  The
    columns are keyed j = 0 .. n-1 in order, each as ``solve_canonical``
    returns it.  ``ranks`` is the grading used (length for the regular
    module, the twisted-involution rank for the block modules).
    """

    label: str
    system: CoxeterSystem
    theta: tuple[int, ...]
    elements: list[Word]
    ranks: list[int]
    columns: dict[int, Column]

    @property
    def entries(self) -> dict[tuple[int, int], LaurentPoly]:
        """{(i, j): entry}, the columns flattened in j order, built on each read.

        Only the benchmark and the tests read it; the package reads ``columns``.
        """
        return {(i, j): p for j, column in self.columns.items() for i, p in column.items()}

    def _labels(self) -> list[str]:
        """Each element's word as the CSV and text forms print it ("e" for the identity)."""
        return [" ".join(map(str, x)) or "e" for x in self.elements]

    def _rows(self, labels: Sequence, poly_form: Callable[[LaurentPoly], Any]) -> Iterator[tuple]:
        """(labels[i], labels[j], poly_form(entry)) by j, then i, one at a time.

        poly_form runs once per distinct polynomial: tables repeat a few
        values many times.  The cache is keyed by (val, coeffs), so a
        lookup hashes and compares tuples, not ``LaurentPoly`` objects.
        """
        forms: dict[tuple, Any] = {}
        for j, column in self.columns.items():
            w = labels[j]
            for i in sorted(column):
                p = column[i]
                key = p.val, p.coeffs
                form = forms.get(key)
                if form is None:
                    form = forms[key] = poly_form(p)
                yield labels[i], w, form

    def to_json(self) -> str:
        """``json.dumps(doc, indent=2)`` of {"label", "system", "theta", "entries"}.

        Each entry is {"x": word, "w": word, "poly": poly.to_json()}.  Each
        word and each distinct polynomial is dumped once, indented to its
        depth in an entry, and the entries are joined around them.
        """
        doc = json.dumps(
            {"label": self.label, "system": self.system.system_json(), "theta": list(self.theta), "entries": []},
            indent=2,
        )
        if not any(self.columns.values()):
            return doc

        def piece(value) -> str:
            return json.dumps(value, indent=2).replace("\n", "\n      ")

        words = [piece(list(x)) for x in self.elements]
        entries = ",\n    ".join(
            [
                f'{{\n      "x": {x},\n      "w": {w},\n      "poly": {poly}\n    }}'
                for x, w, poly in self._rows(words, lambda p: piece(p.to_json()))
            ]
        )
        head = doc[: -len("[]\n}")]  # ends in '"entries": '
        return f"{head}[\n    {entries}\n  ]\n}}"

    def to_csv(self) -> str:
        """A header, then one "x,w,poly" line per entry.

        No field needs CSV quoting: a label holds only digits, spaces and
        "e", and ``LaurentPoly.to_text`` only digits, "v", "^", "*", "+",
        "-" and spaces, so the lines are written as they are.
        """
        buf = io.StringIO()
        buf.write("x,w,poly\n")
        for x, w, poly in self._rows(self._labels(), LaurentPoly.to_text):
            buf.write(f"{x},{w},{poly}\n")
        return buf.getvalue()

    def to_text(self) -> str:
        buf = io.StringIO()
        buf.write(f"# canonical table: label={self.label} theta={','.join(map(str, self.theta))}\n")
        for x, w, poly in self._rows(self._labels(), LaurentPoly.to_text):
            buf.write(f"{x} | {w} | {poly}\n")
        return buf.getvalue()
