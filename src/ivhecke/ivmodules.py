"""Hecke modules on twisted involutions and their canonical bases.

A block of twisted involutions carries several module structures over the
Hecke algebra (parameter v) or its squared-parameter sibling (v^2).  Each
structure is a ``StructureMatrix``: four rows of coefficient pairs telling
how a generator acts on a basis vector m_w depending on the case of
s |*| w relative to w:

    row 0:  s*x != x*theta(s), rank up      op_s(m_w) = r00 m_{s|*|w} + r01 m_w
    row 1:  s*x != x*theta(s), rank down
    row 2:  s*x == x*theta(s), rank up
    row 3:  s*x == x*theta(s), rank down

On the group itself every generator is a noncommuting move, so only rows
0 and 1 are read; ``GROUP_PLAIN_MATRIX``, the regular module, whose
canonical basis is the Kazhdan-Lusztig table ``h``, repeats them as its
commuting rows.  The three named block structures are:

* ``pi``        -- parameter v^2, the module whose canonical basis has the
                   classical Lusztig-Vogan coefficients;
* ``pi_prime``  -- parameter v^2, same underlying action in the
                   noncommuting rows but a sign flip in the commuting ones;
* ``iota``      -- parameter v, a structure with coefficients in the
                   smaller ring whose canonical basis interpolates between
                   the regular module's and the block modules'.

A module (``TwistedModule``) is any block -- a ``TwistedBlock`` or the
``GroupBlock`` -- plus a structure matrix.  Its bar involution psi is the
unique compatible involution: antilinear, fixing the lowest basis vector,
and with psi(op_s m) = (op_s + c) psi(m) for c = v^-k - v^k.  It is built
by the descent recursion (``bar_row_vector``), one basis vector at a time
in index order, so no structure carries a hand-written bar; whether the
result is pre-canonical is checked in one place
(``TwistedModule.check_precanonical``), and psi is applied to vectors by
``apply_psi``.

Canonical tables come from the generic solver in ``hecke``, fed by the
descent recurrence (``TwistedModule.canonical_table``): at a descent
j = s |*| i, C_j is reduced from the psi-invariant (H_s + v^-k) C_i.  Where
the eigenvalue theorem holds (``h`` and ``pi``), only the half of C_j at
the descents of s is reduced, and the other half is filled from it
(``TwistedModule._seed``).  On the regular module, the column and the row
of psi at w with w^-1 < w are copied from w^-1 (``TwistedModule._mirror``);
every other column is filled at every left and right descent, so its seed
is read only at two-sided extremal pairs and where a peel can be nonzero,
and every other row of psi is derived from one descent.
A structure the paper does not prove pre-canonical
(``proven_precanonical``) is checked before its table is built, and
``invariant_suite`` checks every column of a table against the definition:
psi(C_j) = C_j, with C_j in m_j + sum v^-1 Z[v^-1] m_x.

The paper's generator recurrences (``recurrence_check``) need only a
module's table: each reads (H_s + v^-k) C_w = sum_y c_y C_y, so one loop
over (w, s) builds the coefficient dict c of ``pi``'s eigenvalue
relation or of the mu-corrected recurrences of ``pi_prime`` and ``iota``
by scattering over the mu-graph (the v^-1 coefficients of the table,
read once per column), and expands it over the table's columns.  That
expansion, and the sums of the signed-inverse identity
(``inversion_check``), run on the table's entries packed into integers at
v^-1 = 2^K (``laurent.pack``), with K taken from a proven coefficient
bound, so each sum is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .coxeter import CoxeterSystem, Word
from .hecke import CanonicalTable, HeckeAlgebra, NotPreCanonical, Seed, solve_canonical
from .laurent import (
    ONE,
    U,
    U2,
    V,
    VI,
    ZERO,
    LaurentPoly,
    NotDivisible,
    accumulate,
    digit_width,
    mod2_equal,
    monomial,
    one_plus_even_positive,
    one_plus_positive,
    only_nonpositive_exponents,
    pack,
    unpack,
    vec_axpy,
)
from .twisted import Block, GroupBlock, Perm, TwistedBlock, compose_perms, involutive_automorphisms

Vector = dict[int, LaurentPoly]  # sparse combination of block basis vectors


# ----------------------------------------------------------------------
# vectors

def vec_add(a: Vector, b: Vector) -> Vector:
    out = dict(a)
    vec_axpy(out, ONE, b)
    return out


def vec_scale(a: Vector, c: LaurentPoly | int) -> Vector:
    if isinstance(c, int):
        c = LaurentPoly.from_int(c)
    if not c:
        return {}
    return {i: c * p for i, p in a.items()}


def vec_sub(a: Vector, b: Vector) -> Vector:
    return vec_add(a, vec_scale(b, -1))


def vec_bar_coeffs(a: Vector) -> Vector:
    return {i: c.bar() for i, c in a.items()}


# ----------------------------------------------------------------------
# structure matrices

@dataclass(frozen=True)
class StructureMatrix:
    """Coefficients of a generator action; see the module docstring.

    ``squared`` records the Hecke parameter (v^2 when True).  ``rows`` has
    four entries.
    """

    squared: bool
    rows: tuple[tuple[LaurentPoly, LaurentPoly], ...]

    def __post_init__(self):
        if len(self.rows) != 4:
            raise ValueError("a structure matrix has 4 rows")

    @property
    def parameter_diff(self) -> LaurentPoly:
        """v^k - v^-k for the parameter v^k."""
        return U2 if self.squared else U

    @property
    def bar_shift(self) -> LaurentPoly:
        """c = v^-k - v^k, the constant in bar(H_s) = H_s + c."""
        return -self.parameter_diff

    @property
    def underline_shift(self) -> LaurentPoly:
        """v^-k, the constant in the canonical generator H_s + v^-k."""
        return monomial(-2 if self.squared else -1)

    @cached_property
    def underline_rows(self) -> list[list[tuple[LaurentPoly, LaurentPoly]]]:
        """rows[commutes][up] of the canonical generator op_s + v^-k (``_shifted_rows``)."""
        return _shifted_rows(self, self.underline_shift)

    @cached_property
    def action_rows(self) -> list[list[tuple[LaurentPoly, LaurentPoly]]]:
        """rows[commutes][up]: the row of the case (commutes, up), as a table."""
        r = self.rows
        return [[r[1], r[0]], [r[3], r[2]]]

    @cached_property
    def quadratic_failing_cases(self) -> frozenset[tuple[bool, bool]]:
        """The cases (commutes, up) failing the quadratic relation (``quadratic_failures``)."""
        u, bad = self.parameter_diff, set()
        for commutes in (False, True):
            (b1, b2), (a1, a2) = self.action_rows[commutes]
            t, d = a2 + b2 - u, a1 * b1 - 1  # M^2 - u M - I = [[a2(a2-u)+d, b1 t], [a1 t, b2(b2-u)+d]]
            if a2 * (a2 - u) + d or a1 * t:
                bad.add((commutes, True))
            if b1 * t or b2 * (b2 - u) + d:
                bad.add((commutes, False))
        return frozenset(bad)

    def scaled(self, alpha: LaurentPoly, beta: LaurentPoly) -> "StructureMatrix":
        """The diagonally equivalent structure gamma[alpha, beta].

        First-column entries of the noncommuting rows pick up alpha^{-1}
        (row 0) and alpha (row 1); of the commuting rows beta^{-1} (row 2)
        and beta (row 3).  Second columns are unchanged.  alpha and beta
        must be units of A (monomials +-v^n).

        On a real block gamma[alpha, beta] is gamma conjugated by the
        diagonal change of basis D m_x = d_x m_x: its operators are
        D op_s D^-1, with

            d_x = alpha^{rho(x) - l(x)} beta^{l(x) - 2 rho(x)}   (twisted block)
            d_x = alpha^{-l(x)}                                  (group block)

        D op_s D^-1 m_x = (d_y / d_x) a m_y + b m_x for y = s |*| x.  An
        ascent raises rho by 1 and l by 2 (noncommuting) or 1 (commuting),
        so d_y / d_x is alpha^-1 or beta^-1 there, and the inverse at a
        descent: the factor each row's first entry picks up.
        """
        ai, bi = alpha.unit_inverse(), beta.unit_inverse()
        (a0, b0), (a1, b1), (a2, b2), (a3, b3) = self.rows
        return StructureMatrix(
            self.squared,
            ((a0 * ai, b0), (a1 * alpha, b1), (a2 * bi, b2), (a3 * beta, b3)),
        )

    def diagonal_normal_form(self) -> "StructureMatrix":
        """The representative of gamma's diagonal class {gamma[alpha, beta]}.

        alpha makes the lowest term c v^n of row 0's first entry |c| v^0
        (+1 on a monomial), or, if that entry is 0, row 1's; with both 0,
        alpha = 1.  beta does the same from rows 2 and 3.  Every unit
        rescaling of gamma has the same normal form: scaling by alpha then
        alpha' is scaling by alpha alpha', and exactly one unit makes the
        chosen term |c| v^0.

        On a real block the representation check of gamma and of its normal
        form agree, witness included.  Their operators are op_s and
        op'_s = D op_s D^-1 (``scaled``), and D e_i is a unit times e_i.
        So op'^2 - u op' - 1 and the braid difference op'_s op'_t ... -
        op'_t op'_s ... are D X D^-1 for the X of gamma, and D X D^-1 e_i =
        d_i^-1 D (X e_i) is zero exactly when X e_i is: each relation fails
        at the same s, t and basis vector.  A block whose cross table admits
        no such D (a chain, say) gets no such guarantee.
        """
        return self.scaled(*self._normalizing_units())

    def _normalizing_units(self) -> tuple[LaurentPoly, LaurentPoly]:
        """(alpha, beta) with ``scaled(alpha, beta)`` the diagonal normal form."""

        def unit(first: LaurentPoly, second: LaurentPoly) -> LaurentPoly:
            if first:  # first picks up unit^-1
                return monomial(first.valuation, 1 if first.coeffs[0] > 0 else -1)
            if second:  # second picks up unit
                return monomial(-second.valuation, 1 if second.coeffs[0] > 0 else -1)
            return ONE

        (a0, _), (a1, _), (a2, _), (a3, _) = self.rows
        return unit(a0, a1), unit(a2, a3)

    def sign_normal_form(self) -> tuple["StructureMatrix", LaurentPoly, LaurentPoly]:
        """(rep, alpha, beta) with alpha, beta in {1, -1} and gamma = rep[alpha, beta].

        alpha and beta are the signs of the units ``diagonal_normal_form``
        picks, so rep's chosen terms get a positive coefficient and keep
        their exponents, and every +-1 rescaling of gamma has the same rep.

        On a real block the pre-canonicity check of gamma and of rep agree,
        witness included, and their canonical tables differ by a sign.  gamma's
        operators are D op_s D^-1 for rep's op_s, with D m_x = d_x m_x
        (``scaled``), and here d_x = +-1, so D is bar-invariant and D^-1 = D.
        Then D psi D is antilinear, fixes m_0 and intertwines gamma's op_s
        with op_s + c, so it is gamma's bar involution psi'.  Every row the
        descent recursion derives is psi'(m_j) = d_j D psi(m_j): the same
        support, a descent row and the division by bar(a1) changed only by
        d_i d_j, so "no usable descent", "inexact division" and
        "descent-dependent bar" arise at the same j and s, and the diagonal
        entry d_j^2 psi_jj = psi_jj is unchanged.
        The intertwining difference of gamma at (j, s) is d_j D applied to
        rep's, zero exactly when rep's is.  So the first failure and its
        witness dict are rep's.  If rep passes, d_j D C_j is psi'-invariant
        with top coefficient 1 and lower ones in v^-1 Z[v^-1], so gamma's
        canonical table is g_ij = d_i d_j f_ij for rep's f.  Key order is
        kept too: every term summed into key i of a row or column j carries
        the same factor d_i d_j, so keys appear and cancel at the same steps.

        A +-v rescaling has a D with bar(D) != D, which changes pre-canonicity
        (the diagonal of psi' is d_j bar(d_j)^-1 psi_jj), so it keeps its own
        rep: this is not the diagonal normal form.
        """
        alpha, beta = (monomial(0, unit.coeffs[0]) for unit in self._normalizing_units())
        return self.scaled(alpha, beta), alpha, beta

    def theta_twisted(self) -> "StructureMatrix":
        """Conjugate by the algebra involution H_s |-> -H_s + (v^k - v^-k).

        First columns negate; second columns map to (v^k - v^-k) - entry.
        The result is again a module structure whenever the input is.
        """
        u = self.parameter_diff
        return StructureMatrix(
            self.squared,
            tuple((-a, u - b) for a, b in self.rows),
        )


def _rows(*pairs) -> tuple[tuple[LaurentPoly, LaurentPoly], ...]:
    def lift(x):
        return LaurentPoly.from_int(x) if isinstance(x, int) else x

    return tuple((lift(a), lift(b)) for a, b in pairs)


#: parameter v^2; canonical coefficients written pi in the tables
PI_MATRIX = StructureMatrix(
    True,
    _rows(
        (1, 0),
        (1, U2),
        (V + VI, 1),
        (V - VI, LaurentPoly.from_terms({2: 1, 0: -1, -2: -1})),
    ),
)

#: parameter v^2; canonical coefficients written pi_prime
PI_PRIME_MATRIX = StructureMatrix(
    True,
    _rows(
        (1, 0),
        (1, U2),
        (V + VI, -1),
        (VI - V, LaurentPoly.from_terms({2: 1, 0: 1, -2: -1})),
    ),
)

#: parameter v; canonical coefficients written iota
IOTA_MATRIX = StructureMatrix(
    False,
    _rows(
        (1, 0),
        (1, U),
        (1, 1),
        (U, U - 1),
    ),
)

#: parameter v, on the group block: the regular module, canonical basis h
GROUP_PLAIN_MATRIX = StructureMatrix(False, _rows((1, 0), (1, U), (1, 0), (1, U)))


# ----------------------------------------------------------------------
# the generator action

def _shifted_rows(gamma: StructureMatrix, shift: LaurentPoly) -> list[list[tuple[LaurentPoly, LaurentPoly]]]:
    """rows[commutes][up] = (a, b + shift): gamma's rows for op_s + shift."""
    rows = gamma.action_rows
    return [[(a, b + shift) for a, b in row] for row in rows] if shift else rows


def act_gen(gamma: StructureMatrix, block: Block, s: int, vec: Vector, shift: LaurentPoly = ZERO) -> Vector:
    """Apply op_s + shift, op_s the generator's action in the structure gamma, to a vector.

    One pass: the rows (a, b + shift) are formed once per call.
    """
    cross = block.cross[s]
    rows = _shifted_rows(gamma, shift)
    out: Vector = {}
    for i, c in vec.items():
        j, commutes, up = cross[i]
        a, b = rows[commutes][up]
        if a:
            accumulate(out, j, a, c)
        if b:
            accumulate(out, i, b, c)
    return out


def act_word(gamma: StructureMatrix, block: Block, word: Word, vec: Vector) -> Vector:
    """Apply H_{s_1} ... H_{s_r} (letters act right-to-left)."""
    for s in reversed(word):
        vec = act_gen(gamma, block, s, vec)
    return vec


def quadratic_failures(gamma: StructureMatrix, block: Block) -> list[Optional[int]]:
    """For each generator s: the first index k with
    op_s^2 m_k != u op_s m_k + m_k, or None.

    s pairs the block (``Block``), and on a pair {m_i, m_j} of commutes
    case c, j = s |*| i above i, op_s acts by M_c = [[a2, b1], [a1, b2]]:
    the ascent row (a1, a2) and the descent row (b1, b2) of gamma.  The
    relation fails at m_i (m_j) exactly when the first (second) column of
    M_c^2 - u M_c - I is nonzero, so the Laurent work is two 2x2 matrices
    per structure, done once (``StructureMatrix.quadratic_failing_cases``),
    and where some case fails, the first index of each case is read off the
    block, scanned once per block (``Block.first_case_indices``).
    """
    bad = gamma.quadratic_failing_cases
    if not bad:
        return [None] * len(block.cross)
    return [
        min((k for case, k in first.items() if case in bad), default=None) for first in block.first_case_indices
    ]


# ----------------------------------------------------------------------
# the bar involution, derived from the structure

def precanonical_failure(block: Block, j: int, reason: str, **extra) -> NotPreCanonical:
    """The NotPreCanonical error for ``reason`` at element j, with its witness."""
    witness = {"reason": reason, "theta": list(block.theta), "element": list(block.elements[j])}
    witness.update(extra)
    return NotPreCanonical(f"pre-canonicity failure: {reason}", witness)


def bar_row_vector(
    gamma: StructureMatrix, block: Block, j: int, psi: dict[int, Vector], all_descents: bool = True
) -> Vector:
    """psi(m_j), derived from the rows of psi at the descents of j.

    Along a rank ascent i -> j = s |*| i with ascent coefficients
    op_s(m_i) = a1 m_j + a2 m_i, compatibility forces

        psi(m_j) = [ (op_s + c) psi(m_i) - bar(a2) psi(m_i) ] / bar(a1),

    an exact division in A.  Every descent with a1 != 0 is used, and all
    must give the same row; with ``all_descents`` False, only the first
    is, for a module whose psi is known to exist (the regular module,
    ``TwistedModule.bar_row``).  psi holds the row of every index below j,
    as ``TwistedModule.bar_row`` derives them in index order.  Raises
    NotPreCanonical if there is no such descent, a division is inexact, or
    two descents disagree.
    """
    c = gamma.bar_shift
    result: Optional[Vector] = None
    for s in range(block.system.rank):
        i, commutes, up = block.cross[s][j]
        if up:
            continue  # need a descent of j
        a1, a2 = gamma.action_rows[commutes][True]  # the ascent row at i
        if not a1:
            continue  # this descent cannot reach j
        row = act_gen(gamma, block, s, psi[i], c - a2.bar())
        divisor = a1.bar()
        if divisor != ONE:
            try:
                row = {k: p.exact_div(divisor) for k, p in row.items()}
            except NotDivisible:
                raise precanonical_failure(block, j, "inexact division", s=s) from None
        if result is None:
            result = row
            if not all_descents:
                break
        elif result != row:
            raise precanonical_failure(block, j, "descent-dependent bar", s=s)
    if result is None:
        raise precanonical_failure(block, j, "no usable descent")
    return result


#: label -> structure
NAMED_STRUCTURES: dict[str, StructureMatrix] = {
    "pi": PI_MATRIX,
    "pi_prime": PI_PRIME_MATRIX,
    "iota": IOTA_MATRIX,
}

#: the regular module's structure, keyed by ``squared``
REGULAR_STRUCTURES = {
    False: GROUP_PLAIN_MATRIX,
    True: StructureMatrix(True, _rows((1, 0), (1, U2), (1, 0), (1, U2))),
}


def is_regular(block: Block, gamma: StructureMatrix) -> bool:
    """Whether (block, gamma) is the regular module, in v or v^2: the group
    block with the Hecke algebra's own structure."""
    return isinstance(block, GroupBlock) and gamma == REGULAR_STRUCTURES[gamma.squared]


def proven_precanonical(block: Block, gamma: StructureMatrix) -> bool:
    """Whether the paper proves gamma pre-canonical on block.

    True for the named structures on a twisted-involution block and for
    the regular module (``is_regular``).
    """
    if isinstance(block, TwistedBlock):
        return gamma in NAMED_STRUCTURES.values()
    return is_regular(block, gamma)


def has_eigenvalue_property(block: Block, gamma: StructureMatrix) -> bool:
    """Whether (H_s + v^-k) C_w = (v^k + v^-k) C_w is proven at every descent s of w.

    True for the regular module, in v or v^2, on the group block
    (Kazhdan-Lusztig 1979) and for ``pi`` on a twisted-involution block
    (Lusztig-Vogan 2012).  It fails for ``pi_prime`` and, at commuting
    descents, for ``iota``.
    """
    if isinstance(block, TwistedBlock):
        return gamma == PI_MATRIX
    return is_regular(block, gamma)


def apply_psi(rows: dict[int, Vector], vec: Vector) -> Vector:
    """psi(vec) for the antilinear map with psi(m_i) = rows[i]; a missing row is zero."""
    out: Vector = {}
    for i, c in vec.items():
        row = rows.get(i)
        if row:
            vec_axpy(out, c.bar(), row)
    return out


class TwistedModule:
    """A block (twisted or the group itself) with a module structure gamma.

    ``gamma`` defaults to the named block structure ``label``; with an
    explicit gamma, ``label`` only names the canonical table.
    """

    def __init__(self, block: Block, label: str, gamma: Optional[StructureMatrix] = None) -> None:
        if gamma is None:
            if label not in NAMED_STRUCTURES:
                raise ValueError(f"unknown structure label {label!r}; pick from {sorted(NAMED_STRUCTURES)}")
            gamma = NAMED_STRUCTURES[label]
        self.block = block
        self.label = label
        self.gamma = gamma
        self._bar_rows: dict[int, Vector] = {0: {0: ONE}}
        self._table: Optional[CanonicalTable] = None
        self._checked = False  # check_precanonical has passed

    def act(self, s: int, vec: Vector) -> Vector:
        return act_gen(self.gamma, self.block, s, vec)

    def act_underline_gen(self, s: int, vec: Vector) -> Vector:
        """Action of the canonical generator H_s + v^-k."""
        return act_gen(self.gamma, self.block, s, vec, self.gamma.underline_shift)

    @cached_property
    def _mirror(self) -> Optional[tuple[int, ...]]:
        """w |-> w^-1 on the regular module (``is_regular``), else None.

        There psi(m_{w^-1}) = iota(psi(m_w)) and C_{w^-1} = iota(C_w) for
        the anti-automorphism iota(H_w) = H_{w^-1} (``hecke``'s docstring),
        so a row or column at w with w^-1 < w is copied from w^-1.  No other
        structure is an algebra acting on itself, and none is mirrored.
        """
        return self.block.inverse if is_regular(self.block, self.gamma) else None

    def bar_row(self, i: int) -> Vector:
        """psi(m_i); rows are derived once each, in index order.

        On the regular module, row j with mirror[j] < j is row mirror[j]
        relabelled (``_mirror``): the row ``bar_row_vector`` would derive;
        every other row is derived from the first descent of j only, as
        the bar involution of the Hecke algebra exists (Kazhdan-Lusztig
        1979) and every descent gives its row.
        """
        rows = self._bar_rows
        mirror = self._mirror
        for j in range(len(rows), i + 1):
            m = j if mirror is None else mirror[j]
            if m < j:
                rows[j] = {mirror[x]: p for x, p in rows[m].items()}
            else:
                rows[j] = bar_row_vector(self.gamma, self.block, j, rows, all_descents=mirror is None)
        return rows[i]

    def bar(self, vec: Vector) -> Vector:
        """The antilinear involution psi, applied to any vector."""
        if vec:
            self.bar_row(max(vec))
        return apply_psi(self._bar_rows, vec)

    def check_precanonical(self) -> None:
        """Raise NotPreCanonical unless psi is a pre-canonical involution.

        Every row must come out of the descent recursion with diagonal 1
        (checked row by row, in index order); then psi(op_s m_j) = (op_s +
        c) psi(m_j) must hold for every j, in index order, and every
        generator, except where the recursion has already proved it.

        That is the case at both ends of a pair {m_i, m_j}, j = s |*| i
        above i (every generator pairs the block, ``Block``), with ascent
        op_s m_i = a1 m_j + a2 m_i, a1 != 0, when op_s^2 = u op_s + 1 holds
        on the whole module (``quadratic_failures``).  Write T = op_s + c.
        Every usable descent gives row j: ``bar_row_vector`` compares them
        all, except on the regular module, where psi, the bar involution of
        the Hecke algebra, exists and is compatible (Kazhdan-Lusztig 1979),
        so the recursion from any descent gives psi(m_j), by that theorem
        and not by a run-time comparison.  So bar(a1) psi(m_j) = (T -
        bar(a2)) psi(m_i), which is intertwining at (i, s).  Apply
        op_s to a1 m_j = op_s m_i - a2 m_i, then psi: with intertwining at
        (i, s) and the quadratic relation, which gives T^2 = bar(u) T + 1
        as c = -u, both bar(a1) psi(op_s m_j) and bar(a1) T psi(m_j) equal
        (bar(u) - bar(a2)) T psi(m_i) + psi(m_i); cancel bar(a1), as the
        module is free over a domain.  T^2 acts on psi(m_i), whose support
        meets other pairs, so the relation must hold on the whole module.
        A skipped test cannot fail, so the first failure and its witness
        are those of the full check.  Pairs with a1 = 0 and generators
        whose quadratic relation fails somewhere are tested explicitly.

        Unitriangularity is not checked: row j is op_s and scalars applied
        to row i at a descent j = s |*| i, so by induction it lies in
        lower(i) u s |*| lower(i) = lower(j) (property Z, ``Block``).  A
        mirrored row of the regular module (``bar_row``) is the row the
        recursion would derive, so all of this applies to it.

        psi^2 = id then follows and is not checked.  psi^2 is A-linear, as
        a composite of two antilinear maps, and fixes m_0.  If intertwining
        holds at every index up to i, then psi^2(op_s m_i) = op_s psi^2(m_i),
        since psi(m_i) lies below i and c + bar(c) = 0.  Row j > 0 came from
        a descent with a1 m_j = op_s m_i - a2 m_i, a1 != 0 and i < j; so once
        intertwining holds below j, induction gives a1 psi^2(m_j) = a1 m_j,
        and psi^2(m_j) = m_j as the module is free over a domain.  A psi^2
        test at j made after intertwining below j can never fail first.

        A pass is remembered, so the check runs at most once per module.
        """
        if self._checked:
            return
        block = self.block
        for j in range(1, len(block)):
            row = self.bar_row(j)
            if row.get(j) != ONE:
                raise precanonical_failure(
                    block, j, "diagonal not 1", diagonal=(row.get(j) or ZERO).to_json()
                )
        c = self.gamma.bar_shift
        proved = [k is None for k in quadratic_failures(self.gamma, block)]
        ascends = [bool(rows[True][0]) for rows in self.gamma.action_rows]
        for j in range(len(block)):
            row = self.bar_row(j)
            for s in range(block.system.rank):
                if proved[s] and ascends[block.cross[s][j][1]]:
                    continue
                lhs = self.bar(self.act(s, {j: ONE}))
                if lhs != act_gen(self.gamma, block, s, row, c):
                    raise precanonical_failure(block, j, "intertwining failure", s=s)
        self._checked = True

    @cached_property
    def _fill_units(self) -> Optional[dict[bool, tuple[int, int]]]:
        """{commutes: (c, e)}, or None where the eigenvalue theorem is not proven.

        Let T = op_s + v^-k and lambda = v^k + v^-k.  The quadratic
        relation (op_s - v^k)(op_s + v^-k) = 0 reads T^2 = lambda T.  The
        eigenvalue theorem says T C_z = lambda C_z at every descent s |*| z
        < z; ``has_eigenvalue_property`` names where it is proven.  On a pair
        {x, y}, y = s |*| x above x, with ascent row (a1, a2) and descent row
        (b1, b2), the coefficient of m_x in (T - lambda) V is (a2 - v^k) V_x
        + b1 V_y, so every V with T V = lambda V has V_y = q V_x for q =
        (v^k - a2) / b1, and V_x = c v^e V_y for the unit c v^e = 1 / q:

        * ``h`` with parameter v^k, rows (1, 0), (1, v^k - v^-k): q = v^k;
        * ``pi``, noncommuting rows (1, 0), (1, v^2 - v^-2): q = v^2;
        * ``pi``, commuting rows (v + v^-1, 1), (v - v^-1, v^2 - 1 - v^-2):
          q = (v^2 - 1) / (v - v^-1) = v.
        """
        gamma = self.gamma
        if not has_eigenvalue_property(self.block, gamma):
            return None
        vk = gamma.underline_shift.bar()
        units = {}
        for commutes in (False, True):
            (b1, _), (_, a2) = gamma.action_rows[commutes]
            unit = (vk - a2).exact_div(b1).unit_inverse()
            units[commutes] = (unit.coeffs[0], unit.val)
        return units

    @cached_property
    def _links(self) -> list[list[Optional[tuple[int, int, int]]]]:
        """links[s][x]: None at a descent x of s, else (s |*| x, c, e) from ``_fill_units``."""
        units = self._fill_units
        return [[(t,) + units[commutes] if up else None for t, commutes, up in row] for row in self.block.cross]

    @cached_property
    def _right_links(self) -> list[list[Optional[tuple[int, int, int]]]]:
        """On the regular module, right_links[t][x]: None if x t < x, else (x t, c, e).

        ``_links`` under iota (``_seed``); the group block has one commutes
        case, False.
        """
        right = self.block.right_descents
        unit = self._fill_units[False]
        return [
            [None if right[x] >> t & 1 else (y,) + unit for x, y in enumerate(row)]
            for t, row in enumerate(self.block.right_cross)
        ]

    def _two_sided_links(self, j: int, s: int, i: int) -> list[Optional[tuple[int, int, int]]]:
        """The links of column j = s * i of the regular module (``_seed``).

        links[x] is a link of ``_links`` (s' in L(j), s' x > x) or of
        ``_right_links`` (t in R(j), x t > x) for every x of lower(j) that
        has one, except the x that can carry a nonzero p_x: s x < x, R(x)
        >= R(i), and every s' in L(i) with s' x > x has s' x = i (two
        distinct s' cannot).  So the unlinked x are those and the two-sided
        extremal ones, with L(x) >= L(j) and R(x) >= R(j).
        """
        block = self.block
        left, right = block.left_descents, block.right_descents
        left_links, right_links = self._links, self._right_links
        lj, rj, li, ri = left[j], right[j], left[i], right[i]
        sbit = 1 << s
        links: list[Optional[tuple[int, int, int]]] = [None] * len(block)
        for x in block.lower_indices(j):
            lx, rx = left[x], right[x]
            up_left, up_right = lj & ~lx, rj & ~rx
            if not (up_left or up_right):
                continue  # two-sided extremal
            if lx & sbit and not ri & ~rx:
                m = li & ~lx  # the s' in L(i) with s' x > x: none, or one with s' x = i
                if not m or (not m & (m - 1) and left_links[m.bit_length() - 1][x][0] == i):
                    continue  # x can carry p_x
            if up_left:
                links[x] = left_links[(up_left & -up_left).bit_length() - 1][x]
            else:
                links[x] = right_links[(up_right & -up_right).bit_length() - 1][x]
        return links

    def _seed(self, j: int, columns: dict[int, Vector]) -> Seed:
        """(X, a1, links): X = (H_s + v^-k) C_i at a descent j = s |*| i, a1 its coefficient at j.

        The descent's ascent coefficient a1 must be nonzero; +-1 is preferred
        over any other.  The lowest element, with no descent, seeds m_j.

        Without the eigenvalue theorem (``_fill_units``), links is None and
        X is whole.  With it, X is computed only where links[x] is None,
        which lies in the descent half {x : s |*| x < x} of lower(j), and
        the links fill the rest.  For ``pi``, links = ``_links[s]`` covers
        the whole ascent half:

        * T X = T^2 C_i = lambda X, so X is a lambda-eigenvector of T.
        * X = a1 C_j + sum_{x < j} p_x C_x (``hecke._column_from_seed``), and
          every C_x at a descent x of s is an eigenvector, as is C_j.  So
          Y = sum p_x C_x over the ascent half is one too.  Were some p_x
          nonzero there, take such an x of greatest rank: Y_x = p_x, but
          Y_{s |*| x} = 0, as no C_z in Y reaches rank rho(x) + 1.  That
          breaks Y_{s |*| x} = q Y_x, so the peel subtracts only on the
          descent half and reads X only there.
        * C_j is an eigenvector, so C_j[x] = c v^e C_j[s |*| x] on the ascent
          half, where s |*| x is j or of higher rank than x.

        On the regular module (``_two_sided_links``) the links use every
        left and right descent of j, and X is read only at the two-sided
        extremal x and at the x that can carry a nonzero p_x, each on the
        descent half of s (du Cloux, "Computing Kazhdan-Lusztig polynomials
        for arbitrary Coxeter groups", Exp. Math. 2002, computes at the
        two-sided extremal pairs only):

        * The left fill holds at every s' in L(j), as above.
        * The right fill.  iota(H_w) = H_{w^-1} gives C_j[x] =
          C_{j^-1}[x^-1] (``hecke``), t in R(j) is a left descent of j^-1,
          and (x t)^-1 = t x^-1.  So the left fill of column j^-1 at x^-1,
          C_{j^-1}[x^-1] = v^-k C_{j^-1}[t x^-1] when t x^-1 > x^-1, is
          C_j[x] = v^-k C_j[x t] when x t > x.
        * mu-vanishing.  X = C_s C_i = C_j + sum_{z < i, s z < z} mu(z, i)
          C_z, mu(z, i) the v^-k coefficient of C_i[z] (Kazhdan-Lusztig,
          "Representations of Coxeter groups and Hecke algebras", Invent.
          Math. 1979), so p_x = mu(x, i) needs x < i and s x < x.  If s'
          is in L(i) with s' x > x and x != s' i, then s' x < i (property
          Z), so C_i[s' x] is a multiple of v^-k, and the left fill of
          column i makes C_i[x] = v^-k C_i[s' x] a multiple of v^-2k: mu(x,
          i) = 0.  The same holds with t in R(i), x t > x and x != i t, by
          the right fill; and x t = i cannot occur with s x < x, as then s
          x t < x t (else l(s x t) = l(x) + 2 > l(s x) + 1), while s is
          not in L(i).  Every linked x thus has p_x = 0, so the peel
          subtracts nothing there, and X is needed only at the unlinked x.
        """
        block = self.block
        best = None
        for s in range(block.system.rank):
            i, commutes, up = block.cross[s][j]
            if up:
                continue
            a1 = self.gamma.action_rows[commutes][True][0]
            if a1 == ONE or a1 == -ONE:
                best = (s, i, a1)
                break
            if a1 and best is None:
                best = (s, i, a1)
        if best is None:
            return {j: ONE}, ONE, None
        s, i, a1 = best
        if self._fill_units is None:
            return self.act_underline_gen(s, columns[i]), a1, None
        links = self._links[s] if self._mirror is None else self._two_sided_links(j, s, i)
        cross = block.cross[s]
        rows = self.gamma.underline_rows
        seed: Vector = {}
        for x, c in columns[i].items():
            t, commutes, up = cross[x]
            if up:  # of m_x's image a m_t + (b + v^-k) m_x, only t is on the descent half
                if links[t] is None:
                    accumulate(seed, t, rows[commutes][True][0], c)
            elif links[x] is None:  # only x is
                accumulate(seed, x, rows[commutes][False][1], c)
        return seed, a1, links

    def canonical_table(self) -> CanonicalTable:
        """The canonical basis {C_j}: psi(C_j) = C_j, C_j in m_j + sum v^-1 Z[v^-1] m_i.

        Built column by column by the descent recurrence: H_s + v^-k
        commutes with psi, so (H_s + v^-k) C_i is psi-invariant, and
        ``solve_canonical`` reduces that seed (``_seed``) to C_j.  The seed
        is psi-invariant only if psi exists, so a structure the paper does
        not prove pre-canonical (``proven_precanonical``) is checked first,
        and NotPreCanonical carries that check's witness.
        """
        if self._table is not None:
            return self._table
        blk = self.block
        if not proven_precanonical(blk, self.gamma):
            self.check_precanonical()
        self._table = CanonicalTable(
            label=self.label,
            system=blk.system,
            theta=blk.theta,
            elements=list(blk.elements),
            ranks=list(blk.rho),
            columns=solve_canonical(
                blk.rho, blk.lower_indices, seed=self._seed, mirror=self._mirror, labels=blk.elements
            ),
        )
        return self._table


def canonical_table(system: CoxeterSystem, theta: Sequence[int], label: str) -> CanonicalTable:
    """Convenience: the canonical table for one structure on one block.

    label "h" gives the regular module's table (theta must be a valid
    involutive automorphism but does not influence it).
    """
    if label == "h":
        return HeckeAlgebra(system).kl_table()
    return TwistedModule(TwistedBlock(system, theta), label).canonical_table()


# ----------------------------------------------------------------------
# recurrence checks (direct expansion)

def _entry_range(columns: Iterable[Vector]) -> tuple[int, int]:
    """(the largest |coefficient|, the largest exponent or 0) over the entries of ``columns``."""
    big = top = 0
    for column in columns:
        for p in column.values():
            cs = p.coeffs
            if cs:
                big = max(big, max(cs), -min(cs))
                top = max(top, p.val + len(cs) - 1)
    return big, top


def recurrence_check(which: str, system: CoxeterSystem, theta: Sequence[int]) -> list[dict]:
    """Check the canonical-generator recurrences of ``which`` by direct expansion.

    Each recurrence reads (H_s + v^-k) C_w = sum_y c_y C_y for a coefficient
    dict c, so one loop serves all three: at each covered (w, s) it builds
    c, expands the right-hand side over the table's columns and compares it
    with the generator action on C_w.  With w' = s |*| w and mu(y, z) the
    v^-1 coefficient of entry (y, z), c is scattered over the mu-graph:

    * ``pi``, at each descent s of w: c = {w: v^2 + v^-2}, Lusztig-Vogan's
      eigenvalue relation.  The fill makes it hold at the descent that
      seeds each column, so only the other descents test it;
    * ``pi_prime``, at each ascent: c starts from {w': 1}, or for a
      commuting s from {w': v + v^-1, w: -1} less mu(y, w') at each y.  At
      each y of column w with s |*| y < y, add [v^-2] pi'_{y,w} + (v +
      v^-1) mu(y, w).  For each z with mu(z, w) != 0: if s commutes at z,
      add mu(z, w) at s |*| z when s |*| z > z and -mu(z, w) otherwise; if
      s |*| z < z, subtract mu(y, z) mu(z, w) at each y with mu(y, z) != 0;
    * ``iota``, at each ascent: c starts from {w': 1}, plus {w: 1} when s
      commutes at w.  For each z with mu(z, w) != 0 and s |*| z < z, add
      mu(z, w) at z, and at s |*| z too when s commutes at z.

    Every such y lies in lower(w') (the lifting property), so no interval
    is scanned.

    The two sides are compared as packed integers (``laurent.pack``):

    * the map: each coefficient of a vector is evaluated at v^-1 = 2^K,
      so a vector becomes a dict of ints, with zero values dropped;
    * the window: entries are packed times v^-e and multipliers (the
      shifted rows of the action, and each c_y) times v^-top, where e and
      top are the largest exponents found among them (at least 0; e is 0
      on a canonical table, whose entries lie in v^-1 Z[v^-1] u {1}), so
      every product lies in Z[v^-1] and packs to an integer;
    * exactness: a coefficient of either side is a sum of products of a
      multiplier by an entry, so it is at most sum ||multiplier||_1 *
      max |entry| in size, the sum taken over that side's multipliers.  K
      is the least width whose balanced digits, in [-2^(K-1), 2^(K-1)),
      hold the largest such bound at any (w, s) (``digit_width``).  An
      integer has one balanced expansion, so two packed vectors are equal
      exactly when the Laurent vectors are, and ``unpack`` reads a
      failure's sides back.

    Returns a list of failure records, one per (w, s) whose two sides
    differ, each side as Laurent JSON; empty means everything matched.
    """
    block = TwistedBlock(system, theta)
    mod = TwistedModule(block, which)
    table = mod.canonical_table()
    columns = table.columns
    mu = {w: {y: m for y, p in column.items() if (m := p.coeff(-1))} for w, column in columns.items()}
    eigenvalue = monomial(2) + monomial(-2)
    cases: list[tuple[int, int, dict]] = []  # (w, s, c)

    def add(c: dict, y: int, a: LaurentPoly | int) -> None:
        c[y] = c.get(y, 0) + a

    for w in range(len(block)):
        column, mu_w = columns[w], mu[w]
        for s in range(system.rank):
            cross = block.cross[s]
            sw, commutes, up = cross[w]
            if which == "pi":
                if up:
                    continue
                c = {w: eigenvalue}
            elif not up:
                continue
            elif which == "iota":
                c = {sw: 1, w: 1} if commutes else {sw: 1}
                for z, m in mu_w.items():
                    sz, commutes_z, up_z = cross[z]
                    if not up_z:
                        add(c, z, m)
                        if commutes_z:
                            add(c, sz, m)
            else:
                if commutes:
                    c = {sw: V + VI, w: -1}
                    for y, m in mu[sw].items():
                        add(c, y, -m)
                else:
                    c = {sw: 1}
                for y, p in column.items():
                    if not cross[y][2]:
                        m, m2 = p.coeff(-1), p.coeff(-2)
                        if m or m2:
                            add(c, y, LaurentPoly(-1, (m, m2, m)))
                for z, m in mu_w.items():
                    sz, commutes_z, up_z = cross[z]
                    if commutes_z:
                        add(c, sz, m if up_z else -m)
                    if not up_z:
                        for y, n in mu[z].items():
                            add(c, y, -n * m)
            cases.append((w, s, c))

    # the window and the bound over the multipliers: the action's rows (all
    # eight, one side's), then each c (the other side's)
    rows = mod.gamma.underline_rows
    row_multipliers = [a for row in rows for pair in row for a in pair if a]
    top = max([0] + [a.degree for a in row_multipliers])
    norm = sum(sum(map(abs, a.coeffs)) for a in row_multipliers)
    for _, _, c in cases:
        rhs_norm = 0
        for a in c.values():
            if a.__class__ is int:
                rhs_norm += abs(a)
            elif a:
                top = max(top, a.degree)
                rhs_norm += sum(map(abs, a.coeffs))
        norm = max(norm, rhs_norm)
    big, e = _entry_range(columns.values())
    K = digit_width(norm * big)
    packed = {w: {i: pack(p, -e, K) for i, p in column.items()} for w, column in columns.items()}
    prows = [[(pack(a, -top, K), pack(b, -top, K)) for a, b in row] for row in rows]
    failures: list[dict] = []

    def record(vec: dict[int, int]) -> dict:
        return {str(i): unpack(n, -top - e, K).to_json() for i, n in sorted(vec.items())}

    for w, s, c in cases:
        cross = block.cross[s]
        lhs: dict[int, int] = {}
        for i, n in packed[w].items():
            j, commutes, up = cross[i]
            a, b = prows[commutes][up]
            if a:
                lhs[j] = lhs.get(j, 0) + a * n
            if b:
                lhs[i] = lhs.get(i, 0) + b * n
        rhs: dict[int, int] = {}
        for y, a in c.items():
            a = pack(a, -top, K)
            if a:
                for x, n in packed[y].items():
                    rhs[x] = rhs.get(x, 0) + a * n
        if lhs == rhs:  # equal as they stand, else compare without the zero sums
            continue
        lhs = {i: n for i, n in lhs.items() if n}
        rhs = {i: n for i, n in rhs.items() if n}
        if lhs != rhs:
            failures.append({"s": s, "w": list(block.elements[w]), "lhs": record(lhs), "rhs": record(rhs)})
    return failures


# ----------------------------------------------------------------------
# the block invariant suite

def _halves_report(a: LaurentPoly, b: LaurentPoly) -> tuple[bool, bool, Optional[int]]:
    """(integrality+support ok, nonnegative, min coefficient) for (a + b)/2."""
    tot = a + b
    if any(c % 2 for _, c in tot.terms()):
        return False, False, None
    half = LaurentPoly.from_terms({e: c // 2 for e, c in tot.terms()})
    ok = only_nonpositive_exponents(half)
    coeffs = [c for _, c in half.terms()]
    nonneg = all(c >= 0 for c in coeffs)
    return ok, nonneg, min(coeffs, default=0)


def invariant_suite(system: CoxeterSystem, theta: Sequence[int]) -> dict:
    """Run every per-block structural invariant; return a report dict.

    The report has "checks": {name: list of failure records} (empty list =
    pass) and "observations" for the report-only positivity statements and
    rank-2 value sets.
    """
    block = TwistedBlock(system, theta)
    h_table = HeckeAlgebra(system).kl_table()
    mods = {label: TwistedModule(block, label) for label in ("pi", "pi_prime", "iota")}
    tables = {label: mod.canonical_table() for label, mod in mods.items()}

    checks: dict[str, list] = {}
    obs: dict = {}

    # --- psi unitriangular and compatible, hence psi^2 = id (one witness on failure)
    for label, mod in mods.items():
        try:
            mod.check_precanonical()
            checks[f"bar_structure_{label}"] = []
        except NotPreCanonical as exc:
            checks[f"bar_structure_{label}"] = [exc.witness]

    # --- each column against the definition: C_j[j] = 1, every other entry in
    # v^-1 Z[v^-1], psi(C_j) = C_j.  psi is unitriangular with diagonal 1, so
    # at a maximal x in the support of the difference D of two such columns,
    # psi(D) = D reads bar(D_x) = D_x; D_x lies in v^-1 Z[v^-1], so it is 0.
    # A table that passes is thus the canonical basis, whatever order solved it.
    fails = []
    for label, mod in mods.items():
        columns = tables[label].columns
        for j in range(len(block)):
            column = columns.get(j, {})
            if (
                column.get(j) != ONE
                or any(p and p.degree >= 0 for i, p in column.items() if i != j)
                or mod.bar(column) != column
            ):
                fails.append({"check": "order_independence", "label": label})
                break
    checks["order_independence"] = fails

    # --- one pass over the comparable pairs: degree bounds, mod-2 congruence
    # pi' == pi == h, half-sum memberships and the rank-2 value sets
    bounds = (  # (label, True to normalize by length and False by rank, membership)
        ("pi", True, one_plus_even_positive),
        ("pi_prime", True, one_plus_even_positive),
        ("iota", False, one_plus_positive),
    )
    degree_fails = {label: checks.setdefault(f"degree_bound_{label}", []) for label, _, _ in bounds}
    checks["congruence_mod2"] = congruence_fails = []
    checks["half_membership"] = half_fails = []
    half_nonneg = {"h+pi": True, "h-pi": True}
    min_seen = 0
    dihedral = system.rank == 2
    norm_values: dict[str, set] = {"h": set(), "pi": set(), "iota": set()}
    words, rho = block.elements, block.rho
    to_h = [system.element_index(w) for w in words]  # h_table is on GroupBlock: W's order
    for j in range(len(block)):
        columns = {label: t.columns[j] for label, t in tables.items()}
        h_column = h_table.columns[to_h[j]]
        for i in block.lower_indices(j):
            values = {label: column.get(i, ZERO) for label, column in columns.items()}
            length_gap = len(words[j]) - len(words[i])
            rank_gap = rho[j] - rho[i]
            for label, by_length, member in bounds:
                val = values[label] * monomial(length_gap if by_length else rank_gap)
                if not member(val):
                    degree_fails[label].append(
                        {
                            "x": list(words[i]),
                            "w": list(words[j]),
                            "normalized": val.to_json(),
                        }
                    )
                if dihedral and label in norm_values:
                    norm_values[label].add(val)
            pi, pip = values["pi"], values["pi_prime"]
            h = h_column.get(to_h[i], ZERO)
            if not (mod2_equal(pip, pi) and mod2_equal(pi, h)):
                congruence_fails.append({"x": list(words[i]), "w": list(words[j])})
            for a, b, tag in (
                (h, pi, "h+pi"),
                (h, -pi, "h-pi"),
                (h, pip, "h+pi'"),
                (h, -pip, "h-pi'"),
                (pi, pip, "pi+pi'"),
                (pi, -pip, "pi-pi'"),
            ):
                ok, nonneg, mn = _halves_report(a, b)
                if not ok:
                    half_fails.append({"pair": tag, "x": list(words[i]), "w": list(words[j])})
                if tag in half_nonneg:
                    half_nonneg[tag] = half_nonneg[tag] and nonneg
                    if mn is not None:
                        min_seen = min(min_seen, mn)
    obs["h_pi_half_nonneg"] = {
        "h_plus_pi": half_nonneg["h+pi"],
        "h_minus_pi": half_nonneg["h-pi"],
        "min_coefficient": min_seen,
    }
    if dihedral:
        # a solved table's keys are its nonzero entries, the diagonal among them
        h_words = h_table.elements
        for j, column in h_table.columns.items():
            for i, p in column.items():
                norm_values["h"].add(p * monomial(len(h_words[j]) - len(h_words[i])))
        obs["dihedral_values"] = {
            k: sorted(p.to_text() for p in vals) for k, vals in norm_values.items()
        }

    return {
        "system": system.system_json(),
        "theta": list(block.theta),
        "checks": checks,
        "observations": obs,
        "ok": all(not v for v in checks.values()),
    }


# ----------------------------------------------------------------------
# inversion across blocks

def longest_twist(system: CoxeterSystem) -> Perm:
    """The diagram automorphism s |-> w0 s w0 induced by the longest element."""
    w0 = system.longest_element()
    perm = []
    for s in range(system.rank):
        img = system.multiply(system.multiply(w0, (s,)), w0)
        if len(img) != 1:
            raise RuntimeError("conjugation by w0 did not permute the generators")
        perm.append(img[0])
    return tuple(perm)


def inversion_check(system: CoxeterSystem) -> dict[str, list[dict]]:
    """Verify the signed-inverse identity of the table families ``pi``,
    ``pi_prime`` and ``iota``.

    Writing F for a family's full table over all involutive twists theta and
    w |-> w * (w0, theta0) for right translation by the longest twisted
    element, the claim is

        sum_w (-1)^{rho(x) + rho(w)} F_{x,w} F_{y w0+, w w0+} = delta_{x,y}

    with x, w, y ranging over one theta's block (the translation lands in
    the theta * theta0 block).  Returns {label: failure records} for the
    three families in that order; an empty list is a pass.  The blocks, w0,
    theta0 and the translation maps are built once and serve every family;
    each family's tables are built in turn.

    theta * theta0 is again an involutive twist: every diagram automorphism
    fixes w0, the unique longest element, so theta commutes with theta0 =
    conjugation by w0, and the product of two commuting involutions is one.

    For each x the left side, as a vector in y, is a sparse product: the
    signed row x of F combines the target table's columns shift(w), and
    the total's support, read back through shift, holds every y it can
    fail at besides x.  Right translation by w0 reverses Bruhat order
    (shift(y) <= shift(w) exactly when w <= y), so F_{x,w} F_{shift(y),
    shift(w)} is nonzero only for w in [x, y].

    The sums run on packed integers (``laurent.pack``):

    * the map: each entry is evaluated at v^-1 = 2^K;
    * the window: entries lie in Z[v^-1], but the window is computed, not
      assumed: with top the largest exponent of any entry (at least 0),
      entries are packed times v^-top, so each product, and the expected
      delta_{x,y} packed times v^-2top, lies in Z[v^-1];
    * exactness: a coefficient of the total at y is at most
      (sum_w ||F_{x,w}||_1) * max |F| in size, and K is the least width
      whose balanced digits, in [-2^(K-1), 2^(K-1)), hold the largest such
      bound over the family's rows (``digit_width``; K >= 2 also holds
      delta's 1).  An integer has one balanced expansion, so a packed
      value equals the packed delta exactly when the Laurent sum does, and
      ``unpack`` reads a failing value back for its witness.
    """
    theta0 = longest_twist(system)
    w0 = system.longest_element()
    thetas = involutive_automorphisms(system)
    blocks = {theta: TwistedBlock(system, theta) for theta in thetas}
    # translation w = (x, theta) |-> (x * w0, theta * theta0): (target theta, shift, unshift)
    translations = {}
    for theta, blk in blocks.items():
        target_theta = compose_perms(theta, theta0)
        shift = [blocks[target_theta].index[system.multiply(x, w0)] for x in blk.elements]
        translations[theta] = target_theta, shift, {k: y for y, k in enumerate(shift)}
    report: dict[str, list[dict]] = {}
    for label in ("pi", "pi_prime", "iota"):
        tables = {theta: TwistedModule(blk, label).canonical_table() for theta, blk in blocks.items()}
        big, top = _entry_range(column for table in tables.values() for column in table.columns.values())
        row_norm = 0
        for table in tables.values():
            norms = [0] * len(table.elements)
            for column in table.columns.values():
                for x, p in column.items():
                    norms[x] += sum(map(abs, p.coeffs))
            row_norm = max(row_norm, *norms)
        K = digit_width(row_norm * big)
        packed = {
            theta: {w: {x: pack(p, -top, K) for x, p in column.items()} for w, column in table.columns.items()}
            for theta, table in tables.items()
        }
        one = pack(ONE, -2 * top, K)
        report[label] = failures = []
        for theta in thetas:
            blk = blocks[theta]
            rho = blk.rho
            target_theta, shift, unshift = translations[theta]
            target = packed[target_theta]
            rows: list[list] = [[] for _ in blk.elements]  # (w, (-1)^{rho(x) + rho(w)} F_{x,w}) per x, packed
            for w, column in packed[theta].items():
                for x, a in column.items():
                    rows[x].append((w, -a if (rho[x] + rho[w]) % 2 else a))
            for x, row in enumerate(rows):
                total: dict[int, int] = {}
                for w, a in row:
                    for k, n in target[shift[w]].items():
                        total[k] = total.get(k, 0) + a * n
                for y in sorted({unshift[k] for k in total} | {x}):
                    value = total.get(shift[y], 0)
                    if value != (one if y == x else 0):
                        failures.append(
                            {
                                "theta": list(theta),
                                "x": list(blk.elements[x]),
                                "y": list(blk.elements[y]),
                                "value": unpack(value, -2 * top, K).to_json(),
                            }
                        )
    return report
