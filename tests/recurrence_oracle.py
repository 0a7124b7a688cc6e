"""The generator recurrences checked by three expansion loops over mu-data.

This is the check ``ivmodules.recurrence_check`` replaced: for each label
its own loop, which expands the right-hand side over every y of the
Bruhat interval below s |*| w (or w) and asks a per-(s, y, w) coefficient
function (``_mu_prime_s``, ``_nu``) for its coefficient, reading mu from a
``MuData`` built from the whole table.  Tests compare the failure records
of both checks on clean and corrupted tables.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

from ivhecke.coxeter import CoxeterSystem
from ivhecke.hecke import CanonicalTable
from ivhecke.ivmodules import TwistedModule, vec_add, vec_scale, vec_sub
from ivhecke.laurent import V, VI, ZERO, LaurentPoly, monomial, vec_axpy
from ivhecke.twisted import TwistedBlock

from peel_oracle import column_index


@dataclass
class MuData:
    """First-order coefficients extracted from a canonical table.

    ``mu[(i, j)]`` is the v^-1 coefficient of entry (i, j); for pi_prime
    tables ``mu2[(i, j)]`` is the combination
    [v^-2-coefficient] + (v + v^-1) * mu(i, j), a Laurent polynomial.
    """

    mu: dict[tuple[int, int], int]
    mu2: Optional[dict[tuple[int, int], LaurentPoly]] = None

    def mu_of(self, i: int, j: int) -> int:
        return self.mu.get((i, j), 0)

    @cached_property
    def mu_columns(self) -> dict[int, dict[int, int]]:
        """{j: {i: mu(i, j)}} over the nonzero mu only."""
        return column_index(self.mu)

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
    return MuData(mu, mu2)


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
    # subtract sum over y < z < w with s |*| z < z; mu(y, z) != 0 already
    # gives y <= z, as entries lie on Bruhat intervals
    for z, mu_zw in md.mu_columns.get(w, {}).items():
        if z == y or block.cross[s][z][2]:
            continue  # need z != y and rank-down at z (mu(w, w) = 0)
        c = md.mu_of(y, z) * mu_zw
        if c:
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

    def underline(j):
        return dict(table.columns[j])  # callers add to it

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
        b_w = underline(w)
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
                    rhs = underline(sw)
                    for y in block.lower_indices(sw):
                        if y == sw:
                            continue
                        c = _mu_prime_s(s, y, w, block, md)
                        if c:
                            vec_axpy(rhs, c, underline(y))
                else:
                    rhs = vec_scale(underline(sw), V + VI)
                    rhs = vec_sub(rhs, b_w)
                    for y in block.lower_indices(sw):
                        if y == sw:
                            continue
                        c = _mu_prime_s(s, y, w, block, md) - md.mu_of(y, sw)
                        if c:
                            vec_axpy(rhs, c, underline(y))
                if lhs != rhs:
                    fail(s, w, lhs, rhs)
            elif which == "iota":
                if not up:
                    continue
                lhs = mod.act_underline_gen(s, b_w)
                rhs = underline(sw)
                if commutes:
                    rhs = vec_add(rhs, b_w)
                for y in block.lower_indices(w):
                    if y == w:
                        continue
                    c = _nu(s, y, w, block, md)
                    if c:
                        vec_axpy(rhs, c, underline(y))
                if lhs != rhs:
                    fail(s, w, lhs, rhs)
            else:
                raise ValueError(f"unknown recurrence target {which!r}")
    return failures
