"""P-kernels over finite posets and their Kazhdan-Lusztig-Stanley functions.

A finite graded poset P with a strictly increasing integer grading r gives
an incidence algebra over Z[q].  A kernel K in that algebra (diagonal 1)
induces an antilinear operator on the free Z[v, v^-1]-module with basis
indexed by P, via q = v^2:

    psi_K(a_y)  =  sum_x  v^{r(x,y)} * bar(K(x,y)) * a_x,
    r(x, y)     =  r(y) - r(x).

K is a *P-kernel* exactly when psi_K is an involution, and the machinery
of the canonical-basis solver then produces the unique family gamma with
gamma(x,x) = 1 and deg_q gamma(x,y) < r(x,y)/2 whose rescaled columns are
psi_K-fixed -- the KLS function of the kernel.

The map K |-> psi_K is a bijection onto the antilinear maps whose matrix
entries lie in Z[v^-2] * v^{r(x,y)}; ``kernel_from_bar`` inverts it and
raises NotParityCompatible on anything outside the image.  Running it on
the bar involutions of the Hecke algebra or of the block modules tells
which canonical bases are KLS-theoretic: the regular module and both
squared-parameter block structures are in the image (yielding the
classical R-polynomial kernel and its block analogue), while the
mixed-parameter structure is not, already for I2(4) with either natural
grading.

Polynomials in q are represented by LaurentPoly values whose exponent is
read as the power of q; the bridge to the v-world is exponent doubling
(q = v^2) and halving.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .coxeter import CoxeterSystem, Word
from .hecke import HeckeAlgebra, solve_canonical
from .ivmodules import TwistedModule
from .laurent import ONE, ZERO, LaurentPoly, monomial
from .twisted import TwistedBlock


class NotParityCompatible(ValueError):
    """The antilinear map is outside the image of K |-> psi_K.

    Carries a ``witness`` dict locating the offending matrix entry.
    """

    def __init__(self, message: str, witness: Optional[dict] = None) -> None:
        super().__init__(message)
        self.witness = witness or {}


# ----------------------------------------------------------------------
# posets

@dataclass(frozen=True)
class Poset:
    """A finite poset, materialized as an order matrix.

    Elements must be listed in a linear extension: leq(i, j) with i != j
    forces i < j.  This is what the solver downstream assumes, and makes
    antisymmetry automatic.
    """

    elements: tuple
    leq_matrix: tuple[tuple[bool, ...], ...]

    def __post_init__(self):
        n = len(self.elements)
        if len(self.leq_matrix) != n or any(len(row) != n for row in self.leq_matrix):
            raise ValueError("order matrix shape does not match the element list")
        for i in range(n):
            if not self.leq_matrix[i][i]:
                raise ValueError("order must be reflexive")
            for j in range(i):
                if self.leq_matrix[i][j]:
                    raise ValueError(
                        "elements must be listed in a linear extension of the order"
                    )
        for i in range(n):
            for j in range(i, n):
                if not self.leq_matrix[i][j]:
                    continue
                for k in range(j, n):
                    if self.leq_matrix[j][k] and not self.leq_matrix[i][k]:
                        raise ValueError("order must be transitive")

    def __len__(self) -> int:
        return len(self.elements)

    def leq(self, i: int, j: int) -> bool:
        return self.leq_matrix[i][j]

    def pairs(self) -> list[tuple[int, int]]:
        """All order-related index pairs (i, j), i <= j, sorted."""
        n = len(self.elements)
        return [(i, j) for j in range(n) for i in range(j + 1) if self.leq_matrix[i][j]]

    @classmethod
    def from_json(cls, data: dict) -> "Poset":
        elements = tuple(
            tuple(e) if isinstance(e, list) else e for e in data["elements"]
        )
        matrix = tuple(tuple(bool(x) for x in row) for row in data["leq"])
        return cls(elements, matrix)

    def to_json_dict(self) -> dict:
        return {
            "elements": [list(e) if isinstance(e, tuple) else e for e in self.elements],
            "leq": [[bool(x) for x in row] for row in self.leq_matrix],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


def check_grading(poset: Poset, r: Sequence[int]) -> tuple[int, ...]:
    """Validate that r is strictly increasing along the strict order."""
    r = tuple(r)
    if len(r) != len(poset):
        raise ValueError("grading length does not match the poset")
    for i, j in poset.pairs():
        if i != j and r[i] >= r[j]:
            raise ValueError(
                f"grading must strictly increase: r({poset.elements[i]}) = {r[i]} "
                f">= r({poset.elements[j]}) = {r[j]}"
            )
    return r


# ----------------------------------------------------------------------
# incidence functions over Z[q]

@dataclass
class IncidenceFunction:
    """A member of the incidence algebra I(P; Z[q]).

    ``values[(i, j)]`` is the q-polynomial at the order-related pair
    (elements[i], elements[j]); missing keys mean zero, and off-order
    values are zero by convention.
    """

    poset: Poset
    values: dict[tuple[int, int], LaurentPoly] = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for (i, j), p in self.values.items():
            if not p:
                continue
            if not self.poset.leq(i, j):
                raise ValueError(f"value on a non-comparable pair ({i}, {j})")
            if p.valuation < 0:
                raise ValueError(
                    f"values must be polynomials in q; got {p.to_text()} at ({i}, {j})"
                )
            clean[(i, j)] = p
        self.values = clean

    def value(self, i: int, j: int) -> LaurentPoly:
        return self.values.get((i, j), ZERO)

    def convolve(self, other: "IncidenceFunction") -> "IncidenceFunction":
        """(fg)(x, y) = sum over x <= t <= y of f(x, t) g(t, y)."""
        if self.poset is not other.poset and self.poset != other.poset:
            raise ValueError("convolution requires a common poset")
        out: dict[tuple[int, int], LaurentPoly] = {}
        for i, j in self.poset.pairs():
            acc = ZERO
            for t in range(i, j + 1):
                if self.poset.leq(i, t) and self.poset.leq(t, j):
                    acc = acc.addmul(self.value(i, t), other.value(t, j))
            if acc:
                out[(i, j)] = acc
        return IncidenceFunction(self.poset, out)

    def __mul__(self, other: "IncidenceFunction") -> "IncidenceFunction":
        return self.convolve(other)

    def to_json_dict(self) -> dict:
        return {
            "poset": self.poset.to_json_dict(),
            "values": [
                [i, j, p.to_json()] for (i, j), p in sorted(self.values.items())
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json(cls, data: dict) -> "IncidenceFunction":
        poset = Poset.from_json(data["poset"])
        values = {
            (i, j): LaurentPoly.from_json(p) for i, j, p in data["values"]
        }
        return cls(poset, values)


def delta(poset: Poset) -> IncidenceFunction:
    """The convolution unit: 1 on the diagonal."""
    return IncidenceFunction(poset, {(i, i): ONE for i in range(len(poset))})


# ----------------------------------------------------------------------
# the kernel <-> bar bijection

@dataclass
class BarMatrix:
    """Matrix of an antilinear operator in the a-basis, column by column.

    ``entries[(i, j)]`` is the coefficient of a_i in psi(a_j), a Laurent
    polynomial in v; support is within the order.  ``grading`` is the r
    used to build it (carried for convenience; the inverse map accepts an
    override).
    """

    poset: Poset
    grading: tuple[int, ...]
    entries: dict[tuple[int, int], LaurentPoly]

    def entry(self, i: int, j: int) -> LaurentPoly:
        return self.entries.get((i, j), ZERO)

    def column(self, j: int) -> dict[int, LaurentPoly]:
        return {i: p for (i, jj), p in self.entries.items() if jj == j}

    def is_involution(self) -> bool:
        """Whether the antilinear operator squares to the identity."""
        n = len(self.poset)
        for j in range(n):
            for i in range(j + 1):
                if not self.poset.leq(i, j):
                    continue
                acc = ZERO
                for t in range(i, j + 1):
                    a = self.entries.get((i, t))
                    if a:
                        b = self.entries.get((t, j))
                        if b:
                            acc = acc.addmul(a, b.bar())
                if acc != (ONE if i == j else ZERO):
                    return False
        return True


def _halve_exponents(p: LaurentPoly) -> LaurentPoly:
    terms = {}
    for e, c in p.terms():
        if e % 2:
            raise ValueError(f"odd exponent {e} cannot be halved")
        terms[e // 2] = c
    return LaurentPoly.from_terms(terms)


def bar_from_kernel(K: IncidenceFunction, r: Sequence[int]) -> BarMatrix:
    """psi_K(a_y) = sum_x v^{r(x,y)} bar(K(x,y)) a_x, with q = v^2."""
    r = check_grading(K.poset, r)
    entries = {}
    for (i, j), p in K.values.items():
        entries[(i, j)] = monomial(r[j] - r[i]) * p.square_v().bar()
    return BarMatrix(K.poset, r, entries)


def kernel_from_bar(bar: BarMatrix, r: Optional[Sequence[int]] = None) -> IncidenceFunction:
    """Invert K |-> psi_K, or raise NotParityCompatible.

    Requires every matrix entry to lie in Z[v^-2] * v^{r(x,y)}; the
    recovered K(x, y) is bar(v^{-r(x,y)} * entry) read as a polynomial
    in q = v^2.
    """
    r = check_grading(bar.poset, bar.grading if r is None else r)
    values = {}
    for (i, j), p in bar.entries.items():
        g = p * monomial(-(r[j] - r[i]))
        if g.degree > 0 or any(e % 2 for e, _c in g.terms()):
            raise NotParityCompatible(
                "bar-matrix entry outside Z[v^-2] * v^r",
                {
                    "pair": [
                        _label_json(bar.poset.elements[i]),
                        _label_json(bar.poset.elements[j]),
                    ],
                    "entry": p.to_json(),
                    "shift": r[j] - r[i],
                },
            )
        values[(i, j)] = _halve_exponents(g.bar())
    return IncidenceFunction(bar.poset, values)


def _label_json(x):
    return list(x) if isinstance(x, tuple) else x


def is_p_kernel(K: IncidenceFunction, r: Sequence[int]) -> bool:
    """Whether psi_K is an involution."""
    return bar_from_kernel(K, r).is_involution()


def kls_function(K: IncidenceFunction, r: Sequence[int]) -> IncidenceFunction:
    """The KLS function gamma of a P-kernel.

    gamma(x, x) = 1 and deg_q gamma(x, y) < r(x, y)/2; its columns,
    rescaled by v^{-r(x,y)} under q = v^2, are the psi_K-fixed canonical
    basis.  Violations of the degree bound or of evenness cannot occur
    for a genuine kernel and raise RuntimeError (a solver bug).
    """
    bar = bar_from_kernel(K, r)
    r = bar.grading
    poset = K.poset
    entries = solve_canonical(
        list(r), poset.leq, bar.column, labels=poset.elements
    )
    values = {}
    for (i, j), p in entries.items():
        shift = r[j] - r[i]
        g = p * monomial(shift)
        if g.valuation < 0 or any(e % 2 for e, _c in g.terms()):
            raise RuntimeError(
                f"internal error: canonical entry {p.to_text()} at "
                f"({poset.elements[i]}, {poset.elements[j]}) is not a q-polynomial"
            )
        gamma = _halve_exponents(g)
        if i != j and 2 * gamma.degree >= shift:
            raise RuntimeError(
                f"internal error: deg_q {gamma.degree} breaks the bound at "
                f"({poset.elements[i]}, {poset.elements[j]})"
            )
        if i == j and gamma != ONE:
            raise RuntimeError("internal error: KLS diagonal must be 1")
        values[(i, j)] = gamma
    return IncidenceFunction(poset, values)


# ----------------------------------------------------------------------
# bridges from the Hecke world

def poset_of_block(block) -> Poset:
    """The Bruhat order on a (twisted or group) block as a Poset."""
    n = len(block.elements)
    matrix = tuple(
        tuple(block.leq(i, j) for j in range(n)) for i in range(n)
    )
    return Poset(tuple(block.elements), matrix)


def hecke_bar_matrix(system: CoxeterSystem) -> BarMatrix:
    """The bar involution of the regular module, graded by length."""
    H = HeckeAlgebra(system)
    elements = system.elements()
    index = {w: i for i, w in enumerate(elements)}
    n = len(elements)
    matrix = tuple(
        tuple(system.bruhat_leq(elements[i], elements[j]) for j in range(n))
        for i in range(n)
    )
    poset = Poset(tuple(elements), matrix)
    entries = {}
    for j, w in enumerate(elements):
        for x, c in H.bar_basis_terms(w).items():
            entries[(index[x], j)] = c
    return BarMatrix(poset, tuple(len(w) for w in elements), entries)


def module_bar_matrix(
    system: CoxeterSystem,
    theta: Sequence[int],
    label: str,
    grading: str = "length",
) -> BarMatrix:
    """The bar involution of a block module, graded by "length" or "rho"."""
    block = TwistedBlock(system, tuple(theta))
    module = TwistedModule(block, label)
    n = len(block.elements)
    entries = {}
    for j in range(n):
        for i, c in module.bar_row(j).items():
            entries[(i, j)] = c
    if grading == "length":
        r = tuple(block.length(i) for i in range(n))
    elif grading == "rho":
        r = tuple(block.rho)
    else:
        raise ValueError(f"unknown grading {grading!r}; pick 'length' or 'rho'")
    return BarMatrix(poset_of_block(block), r, entries)
