"""Classification of generator-action structures on twisted involutions.

A candidate structure is a ``StructureMatrix``.  Three questions are asked
of each candidate, against a battery of Coxeter systems and all their
involutive twists:

1. *Representation*: do the generator operators satisfy the Hecke
   presentation -- the quadratic relation (op - v^k)(op + v^-k) = 0 and
   the braid relations -- on every block basis vector?
2. *Pre-canonicity*: does the unique antilinear map psi fixing the lowest
   basis vector and intertwining op_s with op_s + (v^-k - v^k) id exist,
   square to the identity, and come out unitriangular with unit diagonal?
3. *Isomorphism grouping*: which surviving structures produce canonical
   tables related by a legal transport (entrywise sign pattern
   (-1)^{a l + b rho} together with an optional v |-> -v twist)?

Candidate grids:

* ``both_zero`` -- the 144-case grid with (A,C) and (E,G) ranging over
  {(0,0),(0,1),(1,0)} and B,D,F,H over {-v^-1, v}; exactly the two
  "trivial" candidates (zero first column, constant second column) pass
  the representation check.
* ``left_nonzero`` -- the 8-case grid forced by the quadratic constraints
  once A = 1 and (E,G) != (0,0); none pass.
* ``classified_families`` -- the named structures, their twists by the
  algebra involution H_s |-> -H_s + (v^k - v^-k), and unit rescalings.
  Representation always passes; pre-canonicity survives exactly on the
  +-1 rescalings.

The mode names used throughout: "hw" (parameter v, module on the group
itself), "hi" (parameter v, module on a twisted-involution block), "h2i"
(parameter v^2 on a block).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .coxeter import CoxeterSystem, Word, parse_system
from .hecke import CanonicalTable, NotPreCanonical, solve_canonical
from .ivmodules import (
    IOTA_MATRIX,
    PI_MATRIX,
    PI_PRIME_MATRIX,
    StructureMatrix,
    Vector,
    act_gen,
    act_word,
    vec_axpy,
)
from .laurent import (
    ONE,
    U,
    V,
    VI,
    ZERO,
    LaurentPoly,
    NotDivisible,
    monomial,
)
from .twisted import TwistedBlock, involutive_automorphisms

# ----------------------------------------------------------------------
# further seed structures

#: parameter v; the sibling of the iota structure with the opposite signs
#: in the commuting rows (bar recipe without the (-1)^l sign)
IOTA_ALT_MATRIX = StructureMatrix(
    False,
    ((ONE, ZERO), (ONE, U), (ONE, -ONE), (-U, U + 1)),
)

#: parameter v, two-row structures on the group itself
GROUP_PLAIN_MATRIX = StructureMatrix(False, ((ONE, ZERO), (ONE, U)))
GROUP_FLIP_MATRIX = StructureMatrix(False, ((ONE, U), (ONE, ZERO)))


def squared_image(gamma: StructureMatrix) -> StructureMatrix:
    """Entrywise v |-> v^2, landing in the squared-parameter world."""
    if gamma.squared:
        raise ValueError("already a squared-parameter structure")
    return StructureMatrix(
        True, tuple((a.square_v(), b.square_v()) for a, b in gamma.rows)
    )


def _minus_twist(gamma: StructureMatrix) -> StructureMatrix:
    """theta-twist followed by the [-1, -1] rescaling (stays in the family)."""
    return gamma.theta_twisted().scaled(-ONE, -ONE)


def base_structures(mode: str) -> dict[str, StructureMatrix]:
    """The classified family seeds for a mode, keyed by stable names."""
    if mode == "hw":
        return {"grp_plain": GROUP_PLAIN_MATRIX, "grp_flip": GROUP_FLIP_MATRIX}
    if mode == "hi":
        return {
            "iota": IOTA_MATRIX,
            "iota_t": _minus_twist(IOTA_MATRIX),
            "iota_alt": IOTA_ALT_MATRIX,
            "iota_alt_t": _minus_twist(IOTA_ALT_MATRIX),
        }
    if mode == "h2i":
        return {
            "sq_iota": squared_image(IOTA_MATRIX),
            "sq_iota_t": squared_image(_minus_twist(IOTA_MATRIX)),
            "sq_iota_alt": squared_image(IOTA_ALT_MATRIX),
            "sq_iota_alt_t": squared_image(_minus_twist(IOTA_ALT_MATRIX)),
            "pi": PI_MATRIX,
            "pi_t": _minus_twist(PI_MATRIX),
            "pi_prime": PI_PRIME_MATRIX,
            "pi_prime_t": _minus_twist(PI_PRIME_MATRIX),
        }
    raise ValueError(f"unknown mode {mode!r}; expected hw, hi or h2i")


# ----------------------------------------------------------------------
# candidates

@dataclass(frozen=True)
class Candidate:
    provenance: str
    gamma: StructureMatrix
    trivial: bool = False
    base: str = ""


_SIGNS = (ONE, -ONE)
_UNITS = (ONE, -ONE, V, -V)
_BDFH = (-VI, V)  # the two roots of (T - v)(T + v^-1)


def enumerate_candidates(case: str, mode: str = "hi") -> list[Candidate]:
    """Candidate grids; see the module docstring."""
    if case == "both_zero":
        out = []
        for ac in ((ZERO, ZERO), (ZERO, ONE), (ONE, ZERO)):
            for eg in ((ZERO, ZERO), (ZERO, ONE), (ONE, ZERO)):
                for b in _BDFH:
                    for d in _BDFH:
                        for f in _BDFH:
                            for h in _BDFH:
                                gamma = StructureMatrix(
                                    False,
                                    ((ac[0], b), (ac[1], d), (eg[0], f), (eg[1], h)),
                                )
                                trivial = (
                                    ac == (ZERO, ZERO)
                                    and eg == (ZERO, ZERO)
                                    and b == d == f == h
                                )
                                tag = (
                                    f"bz[A={ac[0]},C={ac[1]},E={eg[0]},G={eg[1]},"
                                    f"B={b},D={d},F={f},H={h}]"
                                )
                                out.append(Candidate(tag, gamma, trivial=trivial))
        return out

    if case == "left_nonzero":
        out = []
        for eg in ((ZERO, ONE), (ONE, ZERO)):
            for fh in ((V, -VI), (-VI, V)):
                f, h = fh
                for d in (h - 1, h + 1):
                    b = U - d
                    c = -((d - V) * (d + VI))
                    assert c, "grid construction must keep C nonzero"
                    gamma = StructureMatrix(False, ((ONE, b), (c, d), (eg[0], f), (eg[1], h)))
                    tag = f"ln[E={eg[0]},G={eg[1]},F={f},H={h},D={d}]"
                    out.append(Candidate(tag, gamma))
        return out

    if case == "classified_families":
        out = []
        for name, base in base_structures(mode).items():
            for alpha in _UNITS:
                if len(base.rows) == 2:
                    gamma = base.scaled(alpha, ONE)
                    tag = f"{name}[{alpha}]"
                    out.append(Candidate(tag, gamma, base=name))
                    continue
                for beta in _UNITS:
                    gamma = base.scaled(alpha, beta)
                    tag = f"{name}[{alpha},{beta}]"
                    out.append(Candidate(tag, gamma, base=name))
        # for the two-row mode also include the v^-1 rescalings
        if mode == "hw":
            for name, base in base_structures(mode).items():
                for alpha in (VI, -VI):
                    out.append(
                        Candidate(f"{name}[{alpha}]", base.scaled(alpha, ONE), base=name)
                    )
        return out

    raise ValueError(f"unknown candidate case {case!r}")


# ----------------------------------------------------------------------
# blocks, including the group itself as a two-row block

class GroupBlock:
    """Adapter presenting W itself with the TwistedBlock interface.

    cross[s][i] targets s * w; the commutes flag is meaningless for
    two-row structures and is set to False.
    """

    def __init__(self, system: CoxeterSystem) -> None:
        self.system = system
        self.theta = system.identity_perm()
        self.elements: list[Word] = system.elements()
        self.index = {w: i for i, w in enumerate(self.elements)}
        self.rho = [len(w) for w in self.elements]
        self.cross = []
        for s in range(system.rank):
            row = []
            for w in self.elements:
                sw = system.left_mult(s, w)
                row.append((self.index[sw], False, len(sw) > len(w)))
            self.cross.append(row)
        self._lower: dict[int, tuple[int, ...]] = {}

    def __len__(self) -> int:
        return len(self.elements)

    def leq(self, i: int, j: int) -> bool:
        return self.system.bruhat_leq(self.elements[i], self.elements[j])

    def lower_indices(self, j: int) -> tuple[int, ...]:
        cached = self._lower.get(j)
        if cached is None:
            cached = tuple(i for i in range(j + 1) if self.leq(i, j))
            self._lower[j] = cached
        return cached

    def length(self, i: int) -> int:
        return len(self.elements[i])


def blocks_for_mode(system: CoxeterSystem, mode: str) -> list:
    if mode == "hw":
        return [GroupBlock(system)]
    return [TwistedBlock(system, theta) for theta in involutive_automorphisms(system)]


# ----------------------------------------------------------------------
# stage 1: the representation check

def check_representation(gamma: StructureMatrix, block) -> Optional[dict]:
    """First witness of a failed quadratic or braid relation, or None."""
    system = block.system
    u = gamma.parameter_diff
    n = len(block.elements)
    for s in range(system.rank):
        for i in range(n):
            e = {i: ONE}
            once = act_gen(gamma, block, s, e)
            twice = act_gen(gamma, block, s, once)
            vec_axpy(e, u, once)
            if twice != e:
                return {
                    "relation": "quadratic",
                    "s": s,
                    "element": list(block.elements[i]),
                    "theta": list(block.theta),
                }
    for s in range(system.rank):
        for t in range(s + 1, system.rank):
            m = system.bond(s, t)
            if m == 0:
                continue  # no braid relation at an infinite bond
            st_word = tuple(s if k % 2 == 0 else t for k in range(m))
            ts_word = tuple(t if k % 2 == 0 else s for k in range(m))
            for i in range(n):
                e = {i: ONE}
                if act_word(gamma, block, st_word, e) != act_word(gamma, block, ts_word, e):
                    return {
                        "relation": "braid",
                        "s": s,
                        "t": t,
                        "element": list(block.elements[i]),
                        "theta": list(block.theta),
                    }
    return None


# ----------------------------------------------------------------------
# stage 2: the pre-canonicity test

def precanonical_test(gamma: StructureMatrix, block) -> dict[int, Vector]:
    """Build the candidate bar involution psi; return its rows or raise.

    psi fixes the lowest basis vector and must satisfy
    psi(op_s m) = (op_s + c) psi(m) with c = v^-k - v^k.  Along a rank
    ascent w' -> w = s |*| w' with ascent coefficients op_s(e_{w'}) =
    a1 e_w + a2 e_{w'} this forces

        psi(e_w) = [ (op_s + c) psi(e_{w'}) - bar(a2) psi(e_{w'}) ] / bar(a1),

    an exact division in A.  The construction fails (NotPreCanonical) if a
    division is inexact, different descents disagree, the result is not
    unitriangular with diagonal 1, psi^2 != id, or the intertwining
    property fails for some generator.
    """
    c = gamma.bar_shift
    n = len(block.elements)
    rank = block.system.rank
    psi: dict[int, Vector] = {0: {0: ONE}}

    def fail(reason: str, **extra) -> NotPreCanonical:
        witness = {"reason": reason, "theta": list(block.theta)}
        witness.update(extra)
        return NotPreCanonical(f"pre-canonicity failure: {reason}", witness)

    for j in range(1, n):
        result: Optional[Vector] = None
        used_any = False
        for s in range(rank):
            i, commutes, up = block.cross[s][j]
            if up:
                continue  # need a descent of j
            a1, a2 = gamma.row_for(commutes, True)  # the ascent row at i
            if not a1:
                continue  # this descent cannot reach j
            used_any = True
            base = psi[i] if i in psi else None
            if base is None:
                raise fail("descent target missing", element=list(block.elements[j]))
            num = act_gen(gamma, block, s, base)
            vec_axpy(num, c, base)
            vec_axpy(num, -a2.bar(), base)
            divisor = a1.bar()
            try:
                cand = {k: p.exact_div(divisor) for k, p in num.items()}
            except NotDivisible:
                raise fail(
                    "inexact division",
                    element=list(block.elements[j]),
                    s=s,
                ) from None
            cand = {k: p for k, p in cand.items() if p}
            if result is None:
                result = cand
            elif result != cand:
                raise fail("descent-dependent bar", element=list(block.elements[j]), s=s)
        if not used_any or result is None:
            raise fail("no usable descent", element=list(block.elements[j]))
        for k in result:
            if k > j or not block.leq(k, j):
                raise fail(
                    "not unitriangular",
                    element=list(block.elements[j]),
                    offender=list(block.elements[k]),
                )
        if result.get(j) != ONE:
            raise fail(
                "diagonal not 1",
                element=list(block.elements[j]),
                diagonal=(result.get(j) or ZERO).to_json(),
            )
        psi[j] = result

    def apply_psi(vec: Vector) -> Vector:
        out: Vector = {}
        for i, coeff in vec.items():
            vec_axpy(out, coeff.bar(), psi[i])
        return out

    for j in range(n):
        if apply_psi(psi[j]) != {j: ONE}:
            raise fail("psi squared is not the identity", element=list(block.elements[j]))
        for s in range(rank):
            lhs = apply_psi(act_gen(gamma, block, s, {j: ONE}))
            rhs = act_gen(gamma, block, s, psi[j])
            vec_axpy(rhs, c, psi[j])
            if lhs != rhs:
                raise fail(
                    "intertwining failure", element=list(block.elements[j]), s=s
                )
    return psi


# ----------------------------------------------------------------------
# transports and isomorphism grouping

def transport_basis(
    table: CanonicalTable, a: int, b: int, negate: bool
) -> dict[tuple[int, int], LaurentPoly]:
    """Entries of the transported table g_{x,y} = d_x d_y eps(f_{x,y}).

    d_w = (-1)^{a l(w) + b rho(w)}; eps is v |-> -v when ``negate``.
    """
    out = {}
    for (i, j), p in table.entries.items():
        li, lj = len(table.elements[i]), len(table.elements[j])
        ri, rj = table.ranks[i], table.ranks[j]
        sign = (-1) ** (a * (li + lj) + b * (ri + rj))
        q = p.negate_v() if negate else p
        out[(i, j)] = q if sign == 1 else -q
    return out


TRANSPORTS = [(a, b, neg) for a in (0, 1) for b in (0, 1) for neg in (False, True)]


def _tables_transport_related(
    fs: list[CanonicalTable], gs: list[CanonicalTable]
) -> Optional[tuple[int, int, bool]]:
    """A single transport making every listed f-table equal the g-table."""
    for a, b, neg in TRANSPORTS:
        if all(transport_basis(f, a, b, neg) == g.entries for f, g in zip(fs, gs)):
            return (a, b, neg)
    return None


# ----------------------------------------------------------------------
# the full pipeline

DEFAULT_SYSTEMS = ("I2(2)", "I2(3)", "I2(4)", "I2(5)", "I2(6)", "A3", "B3", "H3")


@dataclass
class ClassReport:
    mode: str
    case: str
    systems: list[str]
    candidates: list[dict]
    survivors: list[str]
    classes: list[list[str]]
    transports: list[dict] = field(default_factory=list)

    @property
    def survivor_count(self) -> int:
        return len(self.survivors)

    def to_json_dict(self) -> dict:
        return {
            "mode": self.mode,
            "case": self.case,
            "systems": self.systems,
            "candidate_count": len(self.candidates),
            "survivor_count": self.survivor_count,
            "survivors": self.survivors,
            "classes": self.classes,
            "transports": self.transports,
            "candidates": self.candidates,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


def representation_scan(
    candidates: Sequence[Candidate], systems: Sequence[str], mode: str = "hi"
) -> ClassReport:
    """Run only the representation check; candidates fail fast."""
    names = list(systems)
    parsed = [parse_system(name) for name in names]
    all_blocks = [(name, blk) for name, sysm in zip(names, parsed) for blk in blocks_for_mode(sysm, mode)]
    records = []
    survivors = []
    for cand in candidates:
        witness = None
        where = None
        for name, blk in all_blocks:
            witness = check_representation(cand.gamma, blk)
            if witness is not None:
                where = name
                break
        rec = {
            "provenance": cand.provenance,
            "trivial": cand.trivial,
            "status": "pass" if witness is None else "fail",
        }
        if witness is not None:
            rec["failed_on"] = where
            rec["witness"] = witness
        else:
            survivors.append(cand.provenance)
        records.append(rec)
    return ClassReport(
        mode=mode,
        case="representation_scan",
        systems=names,
        candidates=records,
        survivors=survivors,
        classes=[],
    )


def classification_run(
    mode: str, systems: Sequence[str] = DEFAULT_SYSTEMS
) -> ClassReport:
    """The full classification: representation, pre-canonicity, grouping."""
    names = list(systems)
    parsed = [parse_system(name) for name in names]
    all_blocks = [
        (name, blk) for name, sysm in zip(names, parsed) for blk in blocks_for_mode(sysm, mode)
    ]
    candidates = enumerate_candidates("classified_families", mode)
    records = []
    survivors: list[Candidate] = []
    psis: dict[str, list[dict[int, Vector]]] = {}
    for cand in candidates:
        rec: dict = {"provenance": cand.provenance, "base": cand.base}
        status = "survivor"
        found = []
        for name, blk in all_blocks:
            witness = check_representation(cand.gamma, blk)
            if witness is not None:
                status = "rejected_representation"
                rec["failed_on"] = name
                rec["witness"] = witness
                break
            try:
                found.append(precanonical_test(cand.gamma, blk))
            except NotPreCanonical as exc:
                status = "rejected_precanonical"
                rec["failed_on"] = name
                rec["witness"] = exc.witness
                break
        rec["status"] = status
        records.append(rec)
        if status == "survivor":
            survivors.append(cand)
            psis[cand.provenance] = found

    # canonical tables for every survivor over every block, for grouping
    tables: dict[str, list[CanonicalTable]] = {}
    for cand in survivors:
        ts = []
        for (name, blk), psi in zip(all_blocks, psis[cand.provenance]):
            entries = solve_canonical(
                blk.rho,
                blk.leq,
                lambda j, _psi=psi: _psi[j],
                labels=blk.elements,
            )
            ts.append(
                CanonicalTable(
                    label=cand.provenance,
                    system=blk.system,
                    theta=blk.theta,
                    elements=list(blk.elements),
                    ranks=list(blk.rho),
                    entries=entries,
                )
            )
        tables[cand.provenance] = ts

    # union-find under transport-relatedness
    parent = {c.provenance: c.provenance for c in survivors}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    transports = []
    provs = [c.provenance for c in survivors]
    for i in range(len(provs)):
        for j in range(i + 1, len(provs)):
            if find(provs[i]) == find(provs[j]):
                continue
            combo = _tables_transport_related(tables[provs[i]], tables[provs[j]])
            if combo is not None:
                parent[find(provs[j])] = find(provs[i])
                transports.append(
                    {
                        "from": provs[i],
                        "to": provs[j],
                        "sign_l": combo[0],
                        "sign_rho": combo[1],
                        "negate_v": combo[2],
                    }
                )
    groups: dict[str, list[str]] = {}
    for p in provs:
        groups.setdefault(find(p), []).append(p)
    classes = sorted(sorted(g) for g in groups.values())

    return ClassReport(
        mode=mode,
        case="classified_families",
        systems=names,
        candidates=records,
        survivors=provs,
        classes=classes,
        transports=transports,
    )


# ----------------------------------------------------------------------
# structural identities of passing matrices

def quadratic_constraints_hold(gamma: StructureMatrix) -> bool:
    """The constraint system satisfied by every representation-passing
    four-row structure: with rows ((A,B),(C,D),(E,F),(G,H)) and parameter
    v^k,

        (B - v^k)(B + v^-k) = (D - v^k)(D + v^-k) = -AC,
        (F - v^k)(F + v^-k) = (H - v^k)(H + v^-k) = -EG,
        A or C nonzero  =>  B + D = v^k - v^-k,
        E or G nonzero  =>  F + H = v^k - v^-k,
        both columns active => D - H in {1, -1} and B - F in {1, -1}.
    """
    if len(gamma.rows) != 4:
        raise ValueError("expects a four-row structure")
    (a, b), (c, d), (e, f), (g, h) = gamma.rows
    vk = monomial(2 if gamma.squared else 1)
    vki = monomial(-2 if gamma.squared else -1)
    u = gamma.parameter_diff

    def quad(t):
        return (t - vk) * (t + vki)

    if quad(b) != -(a * c) or quad(d) != -(a * c):
        return False
    if quad(f) != -(e * g) or quad(h) != -(e * g):
        return False
    if (a or c) and b + d != u:
        return False
    if (e or g) and f + h != u:
        return False
    if (a or c) and (e or g):
        if d - h not in (ONE, -ONE):
            return False
        if b - f not in (ONE, -ONE):
            return False
    return True
