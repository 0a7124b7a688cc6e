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

(a two-row matrix is the analogous structure on the group itself, rows
up/down).  The three named structures are:

* ``pi``        -- parameter v^2, the module whose canonical basis has the
                   classical Lusztig-Vogan coefficients;
* ``pi_prime``  -- parameter v^2, same underlying action in the
                   noncommuting rows but a sign flip in the commuting ones,
                   with an unsigned bar involution;
* ``iota``      -- parameter v, a structure with coefficients in the
                   smaller ring whose canonical basis interpolates between
                   the regular module's and the block modules'.

Each comes with a bar involution given on basis vectors by a "recipe":
letting x be the group part of w and c = v^-k - v^k,

    bar(m_w) = sign * (op_{s_1} + c) ... (op_{s_r} + c) m_{(x^{-1}, theta)}

for a reduced word s_1 ... s_r of x, where pi and iota take
sign = (-1)^{l(x)} and pi_prime takes sign = +1 (recipes without the +c
convolution also occur among the classified structures; see classify).

The canonical tables are produced by the generic solver in ``hecke``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from .coxeter import CoxeterSystem, Word
from .hecke import CanonicalTable, HeckeAlgebra, solve_canonical
from .laurent import (
    ONE,
    U,
    U2,
    V,
    VI,
    ZERO,
    LaurentPoly,
    bar_invariant,
    mod2_equal,
    monomial,
    nonnegative_coeffs,
    one_plus_even_positive,
    one_plus_positive,
    only_nonpositive_exponents,
)
from .twisted import Perm, TwistedBlock, involutive_automorphisms

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


def vec_axpy(out: Vector, coeff: LaurentPoly | int, b: Vector) -> None:
    """out += coeff * b in place; keys are placed as by vec_add(out, vec_scale(b, coeff))."""
    if not coeff:
        return
    for i, p in b.items():
        acc = out.get(i)
        val = coeff * p if acc is None else acc.addmul(coeff, p)
        if val:
            out[i] = val
        elif acc is not None:
            del out[i]


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
    four entries for block structures, two for group structures.
    """

    squared: bool
    rows: tuple[tuple[LaurentPoly, LaurentPoly], ...]

    def __post_init__(self):
        if len(self.rows) not in (2, 4):
            raise ValueError("a structure matrix has 2 or 4 rows")

    @property
    def parameter_diff(self) -> LaurentPoly:
        """v^k - v^-k for the parameter v^k."""
        return U2 if self.squared else U

    @property
    def bar_shift(self) -> LaurentPoly:
        """c = v^-k - v^k, the constant in bar(H_s) = H_s + c."""
        return -self.parameter_diff

    def row_for(self, commutes: bool, up: bool) -> tuple[LaurentPoly, LaurentPoly]:
        if len(self.rows) == 2:
            return self.rows[0 if up else 1]
        return self.rows[(0 if up else 1) + (2 if commutes else 0)]

    def scaled(self, alpha: LaurentPoly, beta: LaurentPoly) -> "StructureMatrix":
        """The diagonally equivalent structure gamma[alpha, beta].

        First-column entries of the noncommuting rows pick up alpha^{-1}
        (row 0) and alpha (row 1); of the commuting rows beta^{-1} (row 2)
        and beta (row 3).  Second columns are unchanged.  alpha and beta
        must be units of A (monomials +-v^n).
        """
        ai = alpha.unit_inverse()
        if len(self.rows) == 2:
            (a0, b0), (a1, b1) = self.rows
            return StructureMatrix(self.squared, ((a0 * ai, b0), (a1 * alpha, b1)))
        bi = beta.unit_inverse()
        (a0, b0), (a1, b1), (a2, b2), (a3, b3) = self.rows
        return StructureMatrix(
            self.squared,
            ((a0 * ai, b0), (a1 * alpha, b1), (a2 * bi, b2), (a3 * beta, b3)),
        )

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

    def to_json(self) -> dict:
        return {
            "squared": self.squared,
            "rows": [[a.to_json(), b.to_json()] for a, b in self.rows],
        }

    def pretty(self) -> str:
        return "; ".join(f"[{a.to_text()}, {b.to_text()}]" for a, b in self.rows)


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


# ----------------------------------------------------------------------
# the generator action

def act_gen(gamma: StructureMatrix, block: TwistedBlock, s: int, vec: Vector) -> Vector:
    """Apply the generator's action in the structure gamma to a vector."""
    cross = block.cross[s]
    out: Vector = {}
    for i, c in vec.items():
        j, commutes, up = cross[i]
        a, b = gamma.row_for(commutes, up)
        if a:
            acc = out.get(j)
            val = a * c if acc is None else acc.addmul(a, c)
            if val:
                out[j] = val
            elif acc is not None:
                del out[j]
        if b:
            acc = out.get(i)
            val = b * c if acc is None else acc.addmul(b, c)
            if val:
                out[i] = val
            elif acc is not None:
                del out[i]
    return out


def act_word(gamma: StructureMatrix, block: TwistedBlock, word: Word, vec: Vector) -> Vector:
    """Apply H_{s_1} ... H_{s_r} (letters act right-to-left)."""
    for s in reversed(word):
        vec = act_gen(gamma, block, s, vec)
    return vec


# ----------------------------------------------------------------------
# bar involutions on block modules

#: recipe name -> (use bar(H_x) rather than H_x, sign (-1)^{l(x)})
BAR_RECIPES: dict[str, tuple[bool, bool]] = {
    "bar_signed": (True, True),
    "bar": (True, False),
    "signed": (False, True),
    "plain": (False, False),
}


def bar_row_vector(
    gamma: StructureMatrix, block: TwistedBlock, i: int, recipe: str
) -> Vector:
    """Expansion of bar(m_w) for w = block.elements[i] under the recipe."""
    use_bar, use_sign = BAR_RECIPES[recipe]
    x = block.elements[i]
    x_inv = block.system.inverse(x)
    vec: Vector = {block.index[x_inv]: ONE}
    c = gamma.bar_shift if use_bar else None
    for s in reversed(x):
        acted = act_gen(gamma, block, s, vec)
        if c is not None:
            vec_axpy(acted, c, vec)
        vec = acted
    if use_sign and len(x) % 2 == 1:
        vec = vec_scale(vec, -1)
    return vec


#: label -> (structure, bar recipe)
NAMED_STRUCTURES: dict[str, tuple[StructureMatrix, str]] = {
    "pi": (PI_MATRIX, "bar_signed"),
    "pi_prime": (PI_PRIME_MATRIX, "bar"),
    "iota": (IOTA_MATRIX, "bar_signed"),
}

TABLE_LABELS = ("h", "pi", "pi_prime", "iota")


class TwistedModule:
    """One of the named module structures on a twisted-involution block."""

    def __init__(self, block: TwistedBlock, label: str) -> None:
        if label not in NAMED_STRUCTURES:
            raise ValueError(f"unknown structure label {label!r}; pick from {sorted(NAMED_STRUCTURES)}")
        self.block = block
        self.label = label
        self.gamma, self.recipe = NAMED_STRUCTURES[label]
        self._bar_rows: dict[int, Vector] = {}
        self._table: Optional[CanonicalTable] = None

    def act(self, s: int, vec: Vector) -> Vector:
        return act_gen(self.gamma, self.block, s, vec)

    def act_underline_gen(self, s: int, vec: Vector) -> Vector:
        """Action of the canonical generator H_s + v^-k."""
        out = self.act(s, vec)
        vec_axpy(out, monomial(-2 if self.gamma.squared else -1), vec)
        return out

    def bar_row(self, i: int) -> Vector:
        row = self._bar_rows.get(i)
        if row is None:
            row = bar_row_vector(self.gamma, self.block, i, self.recipe)
            self._bar_rows[i] = row
        return row

    def bar(self, vec: Vector) -> Vector:
        """The antilinear involution extending the basis recipe."""
        out: Vector = {}
        for i, c in vec.items():
            vec_axpy(out, c.bar(), self.bar_row(i))
        return out

    def canonical_table(self, reverse_ties: bool = False) -> CanonicalTable:
        if self._table is not None and not reverse_ties:
            return self._table
        blk = self.block
        entries = solve_canonical(
            blk.rho,
            blk.leq,
            self.bar_row,
            reverse_ties=reverse_ties,
            labels=blk.elements,
        )
        table = CanonicalTable(
            label=self.label,
            system=blk.system,
            theta=blk.theta,
            elements=list(blk.elements),
            ranks=list(blk.rho),
            entries=entries,
        )
        if not reverse_ties:
            self._table = table
        return table

    def underline(self, j: int) -> Vector:
        """The canonical basis vector attached to block element j."""
        return self.canonical_table().column(j)


def canonical_table(
    system: CoxeterSystem, theta: Sequence[int], label: str, block: Optional[TwistedBlock] = None
) -> CanonicalTable:
    """Convenience: the canonical table for one structure on one block.

    label "h" gives the regular module's table (theta must be a valid
    involutive automorphism but does not influence it).
    """
    if label == "h":
        return HeckeAlgebra(system).kl_table()
    if block is None:
        block = TwistedBlock(system, theta)
    return TwistedModule(block, label).canonical_table()


# ----------------------------------------------------------------------
# mu-data

@dataclass
class MuData:
    """First-order coefficients extracted from a canonical table.

    ``mu[(i, j)]`` is the v^-1 coefficient of entry (i, j); for pi_prime
    tables ``mu2[(i, j)]`` is the combination
    [v^-2-coefficient] + (v + v^-1) * mu(i, j), a Laurent polynomial.
    """

    label: str
    mu: dict[tuple[int, int], int]
    mu2: Optional[dict[tuple[int, int], LaurentPoly]] = None

    def mu_of(self, i: int, j: int) -> int:
        return self.mu.get((i, j), 0)

    def mu2_of(self, i: int, j: int) -> LaurentPoly:
        assert self.mu2 is not None
        return self.mu2.get((i, j), ZERO)


def mu_data(table: CanonicalTable) -> MuData:
    mu = {}
    for key, poly in table.entries.items():
        c = poly.coeff(-1)
        if c:
            mu[key] = c
    mu2 = None
    if table.label == "pi_prime":
        mu2 = {}
        vvi = V + VI
        for key, poly in table.entries.items():
            val = LaurentPoly.from_int(poly.coeff(-2)) + vvi * poly.coeff(-1)
            if val:
                mu2[key] = val
    return MuData(table.label, mu, mu2)


# ----------------------------------------------------------------------
# recurrence checks (direct expansion)

def _mu_prime_s(
    s: int,
    y: int,
    w: int,
    block: TwistedBlock,
    md: MuData,
) -> LaurentPoly:
    """The coefficient mu'(s; y, w) entering the pi_prime recurrence."""
    sy, commutes, up = block.cross[s][y]
    out = ZERO
    if not up:
        out = out + md.mu2_of(y, w)
    if commutes:
        # l(y) - l(s |*| y) = +-1 in the commuting case
        sign = 1 if not up else -1
        c = md.mu_of(sy, w)
        if c:
            out = out + sign * LaurentPoly.from_int(c)
    # subtract sum over y < z < w with s |*| z < z
    for z in block.lower_indices(w):
        if z == w or z == y or block.cross[s][z][2]:
            continue  # need z != y, w and rank-down at z
        c = md.mu_of(y, z) * md.mu_of(z, w)
        # mu(y, z) != 0 already gives y <= z: entries lie on Bruhat intervals
        if c and block.leq(y, z):
            out = out - c
    return out


def _nu(s: int, y: int, w: int, block: TwistedBlock, md: MuData) -> int:
    """The coefficient nu(s; y, w) entering the iota recurrence."""
    sy, commutes, up = block.cross[s][y]
    if not up:
        return md.mu_of(y, w)
    if commutes:
        return md.mu_of(sy, w)
    return 0


def recurrence_check(which: str, system: CoxeterSystem, theta: Sequence[int]) -> list[dict]:
    """Check the canonical-generator recurrences by direct expansion.

    which = "pi":        eigenvalue property at rank-down pairs,
                         (H_s + v^-2) b_w = (v^2 + v^-2) b_w;
    which = "pi_prime":  the two-case multiplication recurrence at rank-up
                         pairs, with mu'(s; y, w) corrections;
    which = "iota":      the one-line recurrence at rank-up pairs, with
                         nu(s; y, w) corrections.

    Returns a list of failure records; empty means everything matched.
    """
    block = TwistedBlock(system, theta)
    mod = TwistedModule(block, which)
    table = mod.canonical_table()
    md = mu_data(table)
    failures: list[dict] = []

    def fail(s, w, lhs, rhs):
        failures.append(
            {
                "s": s,
                "w": list(block.elements[w]),
                "lhs": {str(i): c.to_json() for i, c in sorted(lhs.items())},
                "rhs": {str(i): c.to_json() for i, c in sorted(rhs.items())},
            }
        )

    for w in range(len(block)):
        b_w = mod.underline(w)
        for s in range(system.rank):
            sw, commutes, up = block.cross[s][w]
            if which == "pi":
                if up:
                    continue
                lhs = mod.act_underline_gen(s, b_w)
                rhs = vec_scale(b_w, monomial(2) + monomial(-2))
                if lhs != rhs:
                    fail(s, w, lhs, rhs)
            elif which == "pi_prime":
                if not up:
                    continue
                lhs = mod.act_underline_gen(s, b_w)
                if not commutes:
                    rhs = mod.underline(sw)
                    for y in block.lower_indices(sw):
                        if y == sw:
                            continue
                        c = _mu_prime_s(s, y, w, block, md)
                        if c:
                            vec_axpy(rhs, c, mod.underline(y))
                else:
                    rhs = vec_scale(mod.underline(sw), V + VI)
                    rhs = vec_sub(rhs, b_w)
                    for y in block.lower_indices(sw):
                        if y == sw:
                            continue
                        c = _mu_prime_s(s, y, w, block, md) - md.mu_of(y, sw)
                        if c:
                            vec_axpy(rhs, c, mod.underline(y))
                if lhs != rhs:
                    fail(s, w, lhs, rhs)
            elif which == "iota":
                if not up:
                    continue
                lhs = mod.act_underline_gen(s, b_w)
                rhs = mod.underline(sw)
                if commutes:
                    rhs = vec_add(rhs, b_w)
                for y in block.lower_indices(w):
                    if y == w:
                        continue
                    c = _nu(s, y, w, block, md)
                    if c:
                        vec_axpy(rhs, c, mod.underline(y))
                if lhs != rhs:
                    fail(s, w, lhs, rhs)
            else:
                raise ValueError(f"unknown recurrence target {which!r}")
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


def invariant_suite(
    system: CoxeterSystem,
    theta: Sequence[int],
    h_table: Optional[CanonicalTable] = None,
    block: Optional[TwistedBlock] = None,
) -> dict:
    """Run every per-block structural invariant; return a report dict.

    The report has "checks": {name: list of failure records} (empty list =
    pass) and "observations" for the report-only positivity statements and
    rank-2 value sets.
    """
    if block is None:
        block = TwistedBlock(system, theta)
    if h_table is None:
        h_table = HeckeAlgebra(system).kl_table()
    mods = {label: TwistedModule(block, label) for label in ("pi", "pi_prime", "iota")}
    tables = {label: mod.canonical_table() for label, mod in mods.items()}
    h_index = {w: i for i, w in enumerate(h_table.elements)}

    checks: dict[str, list] = {}
    obs: dict = {}

    # --- bar involution squared, compatibility, unitriangularity
    for label, mod in mods.items():
        fails = []
        c = mod.gamma.bar_shift
        for i in range(len(block)):
            unit = {i: ONE}
            if mod.bar(mod.bar_row(i)) != unit:
                fails.append({"check": "psi_squared", "element": list(block.elements[i])})
            row = mod.bar_row(i)
            if row.get(i) != ONE or any(not block.leq(k, i) for k in row):
                fails.append({"check": "unitriangular", "element": list(block.elements[i])})
            for s in range(system.rank):
                lhs = mod.bar(mod.act(s, unit))
                rhs = vec_add(mod.act(s, row), vec_scale(row, c))
                if lhs != rhs:
                    fails.append(
                        {"check": "compatibility", "s": s, "element": list(block.elements[i])}
                    )
        checks[f"bar_structure_{label}"] = fails

    # --- solver order independence
    fails = []
    for label, mod in mods.items():
        if mod.canonical_table().entries != mod.canonical_table(reverse_ties=True).entries:
            fails.append({"check": "order_independence", "label": label})
    checks["order_independence"] = fails

    # --- degree bounds over all comparable pairs
    for label, normalizer, member in (
        ("pi", "length", one_plus_even_positive),
        ("pi_prime", "length", one_plus_even_positive),
        ("iota", "rank", one_plus_positive),
    ):
        fails = []
        t = tables[label]
        for j in range(len(block)):
            for i in block.lower_indices(j):
                if normalizer == "length":
                    gap = len(block.elements[j]) - len(block.elements[i])
                else:
                    gap = block.rho[j] - block.rho[i]
                val = t.entry(i, j) * monomial(gap)
                if not member(val):
                    fails.append(
                        {
                            "x": list(block.elements[i]),
                            "w": list(block.elements[j]),
                            "normalized": val.to_json(),
                        }
                    )
        checks[f"degree_bound_{label}"] = fails

    # --- mod-2 congruence pi' == pi == h, and the half-sum memberships
    fails = []
    half_fails = []
    h_plus_nonneg = True
    h_minus_nonneg = True
    min_seen = 0
    for j in range(len(block)):
        for i in block.lower_indices(j):
            pi = tables["pi"].entry(i, j)
            pip = tables["pi_prime"].entry(i, j)
            h = h_table.entry(
                h_index[block.elements[i]], h_index[block.elements[j]]
            )
            if not (mod2_equal(pip, pi) and mod2_equal(pi, h)):
                fails.append({"x": list(block.elements[i]), "w": list(block.elements[j])})
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
                    half_fails.append(
                        {"pair": tag, "x": list(block.elements[i]), "w": list(block.elements[j])}
                    )
                if tag == "h+pi" and not nonneg:
                    h_plus_nonneg = False
                if tag == "h-pi" and not nonneg:
                    h_minus_nonneg = False
                if tag in ("h+pi", "h-pi") and mn is not None:
                    min_seen = min(min_seen, mn)
    checks["congruence_mod2"] = fails
    checks["half_membership"] = half_fails
    obs["h_pi_half_nonneg"] = {
        "h_plus_pi": h_plus_nonneg,
        "h_minus_pi": h_minus_nonneg,
        "min_coefficient": min_seen,
    }

    # --- dihedral value sets
    if system.rank == 2:
        norm_values = {"h": set(), "pi": set(), "iota": set()}
        for j in range(len(block)):
            for i in block.lower_indices(j):
                gap = len(block.elements[j]) - len(block.elements[i])
                norm_values["pi"].add(tables["pi"].entry(i, j) * monomial(gap))
                rgap = block.rho[j] - block.rho[i]
                norm_values["iota"].add(tables["iota"].entry(i, j) * monomial(rgap))
        n = len(h_table.elements)
        for j in range(n):
            for i in range(n):
                if h_table.entry(i, j) or i == j:
                    gap = len(h_table.elements[j]) - len(h_table.elements[i])
                    norm_values["h"].add(h_table.entry(i, j) * monomial(gap))
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


def inversion_check(label: str, system: CoxeterSystem) -> list[dict]:
    """Verify the signed-inverse identity of the table family ``label``.

    Writing F for the full table over all involutive twists theta and
    w |-> w * (w0, theta0) for right translation by the longest twisted
    element, the claim is

        sum_w (-1)^{rho(x) + rho(w)} F_{x,w} F_{y w0+, w w0+} = delta_{x,y}

    with x, w, y ranging over one theta's block (the translation lands in
    the theta * theta0 block).  Returns failure records; empty = pass.
    """
    theta0 = longest_twist(system)
    w0 = system.longest_element()
    thetas = involutive_automorphisms(system)
    blocks = {theta: TwistedBlock(system, theta) for theta in thetas}
    tables = {
        theta: canonical_table(system, theta, label, block=blocks[theta]) for theta in thetas
    }
    failures: list[dict] = []
    from .twisted import compose_perms  # local import to avoid cycle noise

    for theta in thetas:
        blk = blocks[theta]
        t = tables[theta]
        target_theta = compose_perms(theta, theta0)
        if target_theta not in blocks:
            failures.append({"theta": list(theta), "error": "translated twist not involutive"})
            continue
        blk2 = blocks[target_theta]
        t2 = tables[target_theta]
        # translation w = (x, theta) |-> (x * w0, theta * theta0)
        shift = [blk2.index[system.multiply(x, w0)] for x in blk.elements]
        n = len(blk)
        for xi in range(n):
            for yi in range(n):
                total = ZERO
                for w in range(n):
                    a = t.entry(xi, w)
                    if not a:
                        continue
                    b = t2.entry(shift[yi], shift[w])
                    if not b:
                        continue
                    sign = -1 if (blk.rho[xi] + blk.rho[w]) % 2 else 1
                    total = total.addmul(sign * a, b)
                expected = ONE if xi == yi else ZERO
                if total != expected:
                    failures.append(
                        {
                            "theta": list(theta),
                            "x": list(blk.elements[xi]),
                            "y": list(blk.elements[yi]),
                            "value": total.to_json(),
                        }
                    )
    return failures


# ----------------------------------------------------------------------
# the product-swap embedding

def product_with_swap(factor: CoxeterSystem) -> tuple[CoxeterSystem, Perm]:
    """The system W x W with the factor-swapping twist."""
    n = factor.rank
    size = 2 * n
    mat = [[2] * size for _ in range(size)]
    for i in range(size):
        mat[i][i] = 1
    for a in range(n):
        for b in range(n):
            if a != b:
                mat[a][b] = factor.matrix[a][b]
                mat[n + a][n + b] = factor.matrix[a][b]
    name = f"{factor.name}x{factor.name}" if factor.name else None
    system = CoxeterSystem(mat, name=name)
    swap = tuple(list(range(n, size)) + list(range(n)))
    return system, swap


def embedding_check(factor: CoxeterSystem) -> list[dict]:
    """Check iota on the swap block of W x W against the h-table of W.

    The block is exactly {(y, y^{-1})}; under that identification the
    iota-coefficients must equal the factor's h-coefficients.
    """
    system, swap = product_with_swap(factor)
    block = TwistedBlock(system, swap)
    n = factor.rank

    def embed(y: Word) -> Word:
        return system.reduce(y + tuple(c + n for c in factor.inverse(y)))

    failures: list[dict] = []
    expected = {embed(y): y for y in factor.elements()}
    if set(expected) != set(block.elements):
        return [{"error": "block is not the graph of inversion"}]
    h = HeckeAlgebra(factor).kl_table()
    h_index = {w: i for i, w in enumerate(h.elements)}
    t = TwistedModule(block, "iota").canonical_table()
    for j, w in enumerate(block.elements):
        for i in block.lower_indices(j):
            x = block.elements[i]
            val = t.entry(i, j)
            hval = h.entry(h_index[expected[x]], h_index[expected[w]])
            if val != hval:
                failures.append(
                    {
                        "x": list(expected[x]),
                        "w": list(expected[w]),
                        "iota": val.to_json(),
                        "h": hval.to_json(),
                    }
                )
    return failures
