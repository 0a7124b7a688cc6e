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

A kernel on an abstract poset has only psi_K's rows to offer, so
``kls_function`` solves gamma from them.  A bar matrix read off a module
keeps the module (``BarMatrix.module``), and then the module answers
both questions itself: its ``check_precanonical`` proves psi_K^2 = id
(``bar_involution``), and as the canonical basis of a unitriangular
involution is unique, gamma is its descent-recurrence table rescaled
(``module_kls_function``).

A poset is its principal ideals (``Poset.lower``), the form in which
every block already keeps its Bruhat intervals: ``poset_of_block`` passes
them on as they are, and ``kls_function`` walks them.

Polynomials in q are represented by LaurentPoly values whose exponent is
read as the power of q; the bridge to the v-world is exponent doubling
(q = v^2, ``LaurentPoly.square_v``) and halving.  Halving is read off the
coefficient tuple together with the shift by v^{+-r(x,y)}: the parity of
the end exponent and of every second coefficient is checked, and the
q-polynomial is every second coefficient (``kernel_from_bar``,
``_kls_values``).  No Laurent product is formed.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import InitVar, dataclass, field
from typing import Optional, Sequence

from .coxeter import CoxeterSystem
from .hecke import Column, NotPreCanonical
from .ivmodules import GROUP_PLAIN_MATRIX, TwistedModule, apply_psi
from .laurent import ONE, ZERO, LaurentPoly, NotAntisymmetric, _make, monomial_times, split_antisymmetric
from .twisted import Block, GroupBlock, TwistedBlock


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
    """A finite poset, given by its principal ideals.

    ``lower[j]`` is the tuple of every index i with elements[i] <=
    elements[j], ascending and ending in j.  Elements must be listed in a
    linear extension: leq(i, j) with i != j forces i < j.  This is what
    the solver downstream assumes, and makes antisymmetry automatic.
    Construction checks all of this unless ``proven``: a block's order is
    (``poset_of_block``).
    """

    elements: tuple
    lower: tuple[tuple[int, ...], ...]
    proven: InitVar[bool] = False

    def __post_init__(self, proven):
        if proven:
            return
        if len(self.lower) != len(self.elements):
            raise ValueError("the poset needs one principal ideal per element")
        ideals = [frozenset(ideal) for ideal in self.lower]
        for j, ideal in enumerate(self.lower):
            if any(not 0 <= a < b for a, b in zip(ideal, ideal[1:])) or (ideal and ideal[-1] > j):
                raise ValueError("elements must be listed in a linear extension of the order")
            if not ideal or ideal[-1] != j:
                raise ValueError("order must be reflexive")
            if not all(ideals[i] <= ideals[j] for i in ideal):
                raise ValueError("order must be transitive")

    def __len__(self) -> int:
        return len(self.elements)

    def leq(self, i: int, j: int) -> bool:
        ideal = self.lower[j]
        k = bisect_left(ideal, i)
        return k < len(ideal) and ideal[k] == i

    def pairs(self) -> list[tuple[int, int]]:
        """All order-related index pairs (i, j), i <= j, sorted by j, then i."""
        return [(i, j) for j, ideal in enumerate(self.lower) for i in ideal]


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
    values are zero by convention.  Construction drops zero values and
    checks the rest unless ``proven``: values read off a module are
    (``kernel_from_bar``, ``module_kls_function``).
    """

    poset: Poset
    values: dict[tuple[int, int], LaurentPoly] = field(default_factory=dict)
    proven: InitVar[bool] = False

    def __post_init__(self, proven):
        if proven:
            return
        n = len(self.poset)
        clean = {}
        for (i, j), p in self.values.items():
            if not p:
                continue
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"pair ({i}, {j}) is outside the poset")
            if not self.poset.leq(i, j):
                raise ValueError(f"value on a non-comparable pair ({i}, {j})")
            if p.valuation < 0:
                raise ValueError(
                    f"values must be polynomials in q; got {p.to_text()} at ({i}, {j})"
                )
            clean[(i, j)] = p
        self.values = clean


# ----------------------------------------------------------------------
# the kernel <-> bar bijection

@dataclass
class BarMatrix:
    """Matrix of an antilinear operator in the a-basis, column by column.

    ``columns[j]`` is psi(a_j) as {i: coefficient of a_i}, each a Laurent
    polynomial in v; support is within the order, and a missing column is
    zero.  ``grading`` is the r used to build it, which the inverse map
    ``kernel_from_bar`` reads.  ``module`` is the module whose bar
    involution this is, for a matrix read off one (``hecke_bar_matrix``,
    ``module_bar_matrix``); its columns are then the module's own rows
    (``TwistedModule.bar_row``), not copies, and must not be changed.
    """

    poset: Poset
    grading: tuple[int, ...]
    columns: dict[int, dict[int, LaurentPoly]]
    module: Optional[TwistedModule] = field(default=None, compare=False, repr=False)

    def is_involution(self) -> bool:
        """Whether the antilinear operator squares to the identity."""
        columns = self.columns
        return all(
            apply_psi(columns, columns.get(j, {})) == {j: ONE} for j in range(len(self.poset))
        )


def bar_from_kernel(K: IncidenceFunction, r: Sequence[int]) -> BarMatrix:
    """psi_K(a_y) = sum_x v^{r(x,y)} bar(K(x,y)) a_x, with q = v^2."""
    r = check_grading(K.poset, r)
    columns: dict[int, dict[int, LaurentPoly]] = {}
    for (i, j), p in K.values.items():
        columns.setdefault(j, {})[i] = monomial_times(1, r[j] - r[i], p.square_v().bar())
    return BarMatrix(K.poset, r, columns)


def kernel_from_bar(bar: BarMatrix) -> IncidenceFunction:
    """Invert K |-> psi_K, or raise NotParityCompatible.

    Requires every matrix entry to lie in Z[v^-2] * v^{r(x,y)}; the
    recovered K(x, y) is bar(v^{-r(x,y)} * entry) read as a polynomial
    in q = v^2 (``_read_kernel``).

    A matrix read off a module (``BarMatrix.module``) has its support in
    the order (property Z, ``Block``), so K is not validated again
    (``IncidenceFunction``); any other matrix's is.
    """
    values: dict[tuple[int, int], LaurentPoly] = {}
    _read_kernel(bar, check_grading(bar.poset, bar.grading), values)
    return IncidenceFunction(bar.poset, values, proven=bar.module is not None)


def _read_kernel(bar: BarMatrix, r: tuple[int, ...], values: Optional[dict]) -> None:
    """Check that every entry of bar lies in Z[v^-2] * v^{r(x,y)}, and read K into values unless it is None.

    Entries are checked column by column, each from the diagonal outwards
    (then by index), so the witness of NotParityCompatible does not depend
    on the order of the columns or of their keys.

    The values are read off the entry's coefficient tuple cs: g =
    v^{-r(x,y)} * entry has degree top = deg(entry) - r(x,y), which must be
    even and at most 0, and bar(g) = v^-top * reversed(cs) must have even
    exponents, so cs[1::2] must be 0 (both ends of cs are nonzero, so
    this reads the same from either end).  Then K(x, y) = q^{-top/2} *
    cs[::-2].  A zero entry raises ValueError (it has no degree).
    """
    n = len(r)
    key = [i - r[i] * n for i in range(n)]  # orders (r(x, y), x) within a column
    for j in sorted(bar.columns):
        column = bar.columns[j]
        for i in sorted(column, key=key.__getitem__):
            p = column[i]
            top = p.degree - (r[j] - r[i])
            cs = p.coeffs
            if top > 0 or top % 2 or any(cs[1::2]):
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
            if values is not None:
                values[(i, j)] = _make(-top // 2, cs[::-2])


def _label_json(x):
    return list(x) if isinstance(x, tuple) else x


def kls_function(K: IncidenceFunction, r: Sequence[int]) -> IncidenceFunction:
    """The KLS function gamma of a P-kernel, solved from psi_K's rows.

    gamma(x, x) = 1 and deg_q gamma(x, y) < r(x, y)/2; its columns,
    rescaled by v^{-r(x,y)} under q = v^2, are the psi_K-fixed canonical
    basis C (``_kls_values``).  Writing psi_K(a_y) = sum_x r_{x,y} a_x,
    the entries of column w satisfy

        C_{x,w} - bar(C_{x,w}) = sum_{x < y <= w} r_{x,y} bar(C_{y,w}),

    and the right-hand side, the defect, determines C_{x,w} by the
    antisymmetric split, walking lower(w) by rank descending, then index
    ascending.  psi_K is unitriangular: ``bar_from_kernel`` writes only
    K's keys, which lie in the order (``IncidenceFunction``).

    Raises NotPreCanonical if a diagonal entry of psi_K is not 1 (K(x, x)
    != 1), or if a defect is not antisymmetric (psi_K^2 != id).
    """
    bar = bar_from_kernel(K, r)
    r = bar.grading
    poset = K.poset
    labels = poset.elements
    n = len(r)
    rows = [bar.columns.get(j, {}) for j in range(n)]
    key = [i - n * ri for i, ri in enumerate(r)].__getitem__
    columns: dict[int, Column] = {}
    for j in range(n):
        columns[j] = column = {j: ONE}
        diag = rows[j].get(j, ZERO)
        if diag != ONE:
            raise NotPreCanonical(
                f"bar matrix diagonal at {labels[j]} is {diag}, expected 1",
                {"element": labels[j], "diagonal": diag.to_json()},
            )
        column_bar: dict[int, LaurentPoly] = {j: ONE}  # bar(C_{y,j}) for each y solved so far
        for x in sorted(poset.lower[j][:-1], key=key):
            d = ZERO
            for y, c_bar in column_bar.items():
                rxy = rows[y].get(x)
                if rxy:
                    d = d.addmul(rxy, c_bar)
            if not d:
                continue
            try:
                c = split_antisymmetric(d)
            except NotAntisymmetric:
                raise NotPreCanonical(
                    f"column {labels[j]}: defect at {labels[x]} is not antisymmetric: {d}",
                    {"column": labels[j], "element": labels[x], "defect": d.to_json()},
                ) from None
            if c:
                column_bar[x] = c.bar()
                column[x] = c
    return IncidenceFunction(poset, _kls_values(columns, r, labels))


def module_kls_function(module: TwistedModule, poset: Poset, r: Sequence[int]) -> IncidenceFunction:
    """The KLS function of a module's bar involution graded by r, read off
    its canonical table (the descent recurrence).

    The module must be pre-canonical with psi in the image of K |-> psi_K
    for this r; ``poset`` is its block's Bruhat order.  The canonical basis
    of a unitriangular involution is unique, so this is ``kls_function`` of
    the kernel, without psi's rows.
    """
    values = _kls_values(module.canonical_table().columns, r, poset.elements)
    return IncidenceFunction(poset, values, proven=True)


def _kls_values(
    columns: dict[int, Column], r: Sequence[int], labels: Sequence
) -> dict[tuple[int, int], LaurentPoly]:
    """gamma(x, y) = v^{r(x,y)} C(x, y) read in q = v^2, for the canonical columns C, keyed (x, y).

    Each value must be a polynomial in q, of degree below r(x, y)/2 off the
    diagonal and 1 on it.  For a genuine kernel none of this can fail, so a
    violation raises RuntimeError (a solver bug).  The value is read off C's
    coefficient tuple cs: v^{r(x,y)} C has valuation low = val(C) + r(x,y),
    which must be even and at least 0, and cs[1::2] must be 0; then gamma =
    q^{low/2} * cs[::2].
    """
    values = {}
    for j, column in columns.items():
        for i, p in column.items():
            shift = r[j] - r[i]
            low = p.valuation + shift
            cs = p.coeffs
            if low < 0 or low % 2 or any(cs[1::2]):
                raise RuntimeError(
                    f"internal error: canonical entry {p.to_text()} at "
                    f"({labels[i]}, {labels[j]}) is not a q-polynomial"
                )
            gamma = _make(low // 2, cs[::2])
            if i != j and 2 * gamma.degree >= shift:
                raise RuntimeError(
                    f"internal error: deg_q {gamma.degree} breaks the bound at "
                    f"({labels[i]}, {labels[j]})"
                )
            if i == j and gamma != ONE:
                raise RuntimeError("internal error: KLS diagonal must be 1")
            values[(i, j)] = gamma
    return values


def bar_involution(bar: BarMatrix) -> tuple[bool, Optional[TwistedModule]]:
    """Whether psi^2 = id, and the module that proves it, if any.

    For a matrix read off a module whose ``check_precanonical`` passes,
    that check proves psi^2 = id (its docstring), so the answer is True
    with the module, whose table then gives the KLS function
    (``module_kls_function``).  Otherwise the answer is the full pass
    ``BarMatrix.is_involution``, with no module.
    """
    module = bar.module
    if module is not None:
        try:
            module.check_precanonical()
        except NotPreCanonical:
            pass
        else:
            return True, module
    return bar.is_involution(), None


def kernel_report(bar: BarMatrix) -> tuple[bool, Optional[IncidenceFunction]]:
    """(psi^2 = id, KLS function) for a bar matrix in the image of K |-> psi_K.

    Raises NotParityCompatible when bar is outside the image.  Otherwise
    K = ``kernel_from_bar(bar)`` maps back to bar, so the roundtrip
    identity the ``pkernel`` command reports holds unchecked: K(x, y) =
    halve(bar(g)), g = v^{-r(x,y)} p for the entry p at (x, y), and every
    bar(g) has even exponents, so doubling them back gives bar(g) exactly,
    and ``bar_from_kernel``'s v^{r(x,y)} bar(bar(g)) is p.  K has exactly
    bar's keys, and no zero value: a zero entry already makes ``p.degree``
    raise.

    psi must be an involution (``bar_involution``); when it is, the KLS
    function of K comes from the module that proved psi^2 = id, or else
    from psi's rows, and otherwise it is None.  A matrix read off a
    module is only scanned for parity: its grading is the block's, and the
    module's table, not K, gives the KLS function.
    """
    if bar.module is None:
        kernel = kernel_from_bar(bar)
    else:
        _read_kernel(bar, bar.grading, None)
    involution, module = bar_involution(bar)
    if not involution:
        return False, None
    if module is not None:
        return True, module_kls_function(module, bar.poset, bar.grading)
    if bar.module is not None:  # psi^2 = id, though the module's own check failed
        kernel = kernel_from_bar(bar)
    return True, kls_function(kernel, bar.grading)


# ----------------------------------------------------------------------
# bridges from the Hecke world

def poset_of_block(block: Block) -> Poset:
    """The Bruhat order on a (twisted or group) block: its intervals, as they are.

    They are not validated again (``Poset.proven``).  By property Z (``Block``) lower(j)
    is the principal ideal of elements[j] in Bruhat order, a partial order,
    so the ideals are transitive; each is sorted and ends in j, as every
    other member has lower rank, so a lower index.
    """
    lower = tuple(map(block.lower_indices, range(len(block))))
    return Poset(tuple(block.elements), lower, proven=True)


def _bar_matrix(module: TwistedModule, r: tuple[int, ...]) -> BarMatrix:
    """The matrix of a module's bar involution, graded by r: its columns are the module's rows."""
    block = module.block
    columns = {j: module.bar_row(j) for j in range(len(block))}
    return BarMatrix(poset_of_block(block), r, columns, module)


def hecke_bar_matrix(system: CoxeterSystem) -> BarMatrix:
    """The bar involution of the regular module, graded by length."""
    block = GroupBlock(system)
    return _bar_matrix(TwistedModule(block, "h", GROUP_PLAIN_MATRIX), tuple(block.rho))


def module_bar_matrix(
    system: CoxeterSystem,
    theta: Sequence[int],
    label: str,
    grading: str = "length",
) -> BarMatrix:
    """The bar involution of a block module, graded by "length" or "rho"."""
    block = TwistedBlock(system, tuple(theta))
    module = TwistedModule(block, label)
    if grading == "length":
        r = tuple(block.length(i) for i in range(len(block)))
    elif grading == "rho":
        r = tuple(block.rho)
    else:
        raise ValueError(f"unknown grading {grading!r}; pick 'length' or 'rho'")
    return _bar_matrix(module, r)
