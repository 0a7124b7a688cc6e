"""Classification of generator-action structures on twisted involutions.

A candidate structure is a ``StructureMatrix``.  Three questions are asked
of each candidate, against a battery of Coxeter systems and all their
involutive twists:

1. *Representation*: do the generator operators satisfy the Hecke
   presentation, that is the quadratic relation (op - v^k)(op + v^-k) = 0
   and the braid relations?  Every generator pairs every block
   (``twisted.Block``), so the quadratic relation is read off the
   structure's 2x2 matrices (``ivmodules.quadratic_failures``).  Each
   <s, t>-orbit is then an alternating cycle whose span op_s and op_t
   keep, so the braid relation of s and t is tested once per orbit shape
   and position in it (``Block.rank2_positions``), not once per basis
   vector.  A unit rescaling gamma[alpha, beta] is gamma conjugated by a
   diagonal change of basis (``StructureMatrix.scaled``), so its
   relations fail at the same basis vectors, with the same witness.  The
   candidate grids and the classified families therefore go through one
   screening loop (``_first_failure``), which checks each battery block
   once per diagonal class, on the class's
   ``StructureMatrix.diagonal_normal_form``, gives every candidate of the
   class that result, and shares the class's braid verdicts across the
   battery.
2. *Pre-canonicity*: does the unique antilinear map psi fixing the lowest
   basis vector and intertwining op_s with op_s + (v^-k - v^k) id exist
   and come out unitriangular with unit diagonal?  Such a psi squares to
   the identity, and the descent recursion that builds psi already proves
   intertwining at every pair with a nonzero ascent coefficient once the
   quadratic relation holds, so only the rest is tested (see
   ``TwistedModule.check_precanonical``).  A +-1 rescaling
   gamma[alpha, beta] is gamma conjugated by a bar-invariant diagonal
   D = diag(+-1), so its psi is D psi D: it fails at the same element with
   the same witness, and its canonical table is gamma's with entry (i, j)
   multiplied by d_i d_j.  The pipeline therefore checks each battery
   block, and solves its canonical table, once per sign class, on the
   class's ``StructureMatrix.sign_normal_form``, and gives each candidate
   of the class that witness or the sign transport of that table.  A +-v
   rescaling changes pre-canonicity, so it is a class of its own.
3. *Isomorphism grouping*: which surviving structures produce canonical
   tables related by a legal transport (entrywise sign pattern
   (-1)^{a l + b rho} together with an optional v |-> -v twist)?  The
   transports (a, b, negate_v) compose by XOR, so they form (Z/2)^3, and a
   survivor's tables are its sign class's carried by the transport
   (a, b, False) of its +-1 rescaling: a diagonal of signs has no v in it,
   so it never twists v |-> -v.  So t carries survivor p's tables onto
   q's exactly when t xor sigma_p xor sigma_q carries class P's onto
   Q's.  The pipeline decides that once per (P, Q, t xor sigma_p xor
   sigma_q), comparing tables entry by entry up to the first difference,
   and gives each survivor pair the first such t in ``TRANSPORTS`` order.
   No survivor's own table is built.

Candidate grids:

* ``both_zero`` -- the 144-case grid with (A,C) and (E,G) ranging over
  {(0,0),(0,1),(1,0)} and B,D,F,H over {-v^-1, v}; exactly the two
  "trivial" candidates (zero first column, constant second column) pass
  the representation check.
* ``left_nonzero`` -- the 8-case grid forced by the quadratic constraints
  once A = 1 and (E,G) != (0,0); none pass.
* ``classified_families`` -- the named structures, their twists by the
  algebra involution H_s |-> -H_s + (v^k - v^-k), and unit rescalings.
  Representation always passes, and is checked once per diagonal class:
  the 204 candidates of the three modes are 2 (hw), 4 (hi) and 8 (h2i)
  structures up to rescaling.  Pre-canonicity, which a rescaling by +-v
  does change, survives exactly on the +-1 rescalings: 52 survivors, 14
  structures up to sign.

The mode names used throughout: "hw" (parameter v, module on the group
itself), "hi" (parameter v, module on a twisted-involution block), "h2i"
(parameter v^2 on a block).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

from .coxeter import CoxeterSystem, parse_system
from .hecke import CanonicalTable, Column, NotPreCanonical
from .ivmodules import (
    GROUP_PLAIN_MATRIX,
    IOTA_MATRIX,
    PI_MATRIX,
    PI_PRIME_MATRIX,
    StructureMatrix,
    TwistedModule,
    act_word,
    quadratic_failures,
)
from .laurent import (
    ONE,
    U,
    V,
    VI,
    ZERO,
    LaurentPoly,
)
from .twisted import Block, GroupBlock, TwistedBlock, involutive_automorphisms

# ----------------------------------------------------------------------
# further seed structures

#: parameter v; the sibling of the iota structure with the opposite signs
#: in the commuting rows, whose derived psi lacks iota's (-1)^l sign
IOTA_ALT_MATRIX = StructureMatrix(
    False,
    ((ONE, ZERO), (ONE, U), (ONE, -ONE), (-U, U + 1)),
)

#: parameter v, the sibling of GROUP_PLAIN_MATRIX on the group itself, with the
#: second columns swapped; like it, it repeats its noncommuting rows
GROUP_FLIP_MATRIX = StructureMatrix(False, ((ONE, U), (ONE, ZERO)) * 2)


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
                if mode == "hw":  # beta = alpha keeps the repeated rows repeated
                    out.append(Candidate(f"{name}[{alpha}]", base.scaled(alpha, alpha), base=name))
                    continue
                for beta in _UNITS:
                    gamma = base.scaled(alpha, beta)
                    tag = f"{name}[{alpha},{beta}]"
                    out.append(Candidate(tag, gamma, base=name))
        # on the group block also include the v^-1 rescalings
        if mode == "hw":
            for name, base in base_structures(mode).items():
                for alpha in (VI, -VI):
                    out.append(
                        Candidate(f"{name}[{alpha}]", base.scaled(alpha, alpha), base=name)
                    )
        return out

    raise ValueError(f"unknown candidate case {case!r}")


# ----------------------------------------------------------------------
# blocks, including the group itself

def blocks_for_mode(system: CoxeterSystem, mode: str) -> list:
    if mode == "hw":
        return [GroupBlock(system)]
    return [TwistedBlock(system, theta) for theta in involutive_automorphisms(system)]


def battery(systems: Sequence[str], mode: str) -> list[tuple[str, Block]]:
    """(name, block) for every block of every system; all names parse first."""
    parsed = [(name, parse_system(name)) for name in systems]
    return [(name, blk) for name, system in parsed for blk in blocks_for_mode(system, mode)]


# ----------------------------------------------------------------------
# stage 1: the representation check

def check_representation(
    gamma: StructureMatrix, block, verdicts: Optional[dict] = None
) -> Optional[dict]:
    """First witness of a failed quadratic or braid relation, or None.

    Quadratic relations come first, generator by generator, then braid
    relations, pair (s, t) by pair, each at the first failing basis vector
    in index order.  Every generator pairs the block (``Block``), so the
    quadratic relation is read off gamma's 2x2 matrices by
    ``quadratic_failures``.  It also makes each <s, t>-orbit an
    alternating cycle whose span op_s and op_t keep, and on which they act
    as on the cycle's shape (``Block.rank2_positions``).  So the braid
    relation of bond m holds at a basis vector exactly when it holds at
    the vector's position p in its orbit's shape: one verdict per
    (m, shape, p), computed when the scan first reaches it and kept in
    verdicts, which may be shared by every block checked with gamma.  An
    infinite bond (m = 0) has no braid relation.
    """
    system = block.system
    for s, i in enumerate(quadratic_failures(gamma, block)):
        if i is not None:
            return {
                "relation": "quadratic",
                "s": s,
                "element": list(block.elements[i]),
                "theta": list(block.theta),
            }
    if verdicts is None:
        verdicts = {}
    positions = block.rank2_positions
    for s in range(system.rank):
        for t in range(s + 1, system.rank):
            m = system.bond(s, t)
            if m == 0:
                continue
            for i, shape, p in positions[(s, t)]:
                key = (m, shape, p)
                holds = verdicts.get(key)
                if holds is None:
                    holds = verdicts[key] = _braid_holds(gamma, m, shape, p)
                if not holds:
                    return {
                        "relation": "braid",
                        "s": s,
                        "t": t,
                        "element": list(block.elements[i]),
                        "theta": list(block.theta),
                    }
    return None


class _Orbit(NamedTuple):
    """An orbit shape as a block of generators 0 (s) and 1 (t); ``act_gen`` reads only ``cross``."""

    cross: tuple


def _braid_holds(gamma: StructureMatrix, m: int, shape: tuple, p: int) -> bool:
    """Whether (op_s op_t ...)_m = (op_t op_s ...)_m at position p of an orbit of this shape."""
    orbit, e = _Orbit(shape), {p: ONE}
    st_word = tuple(k & 1 for k in range(m))
    ts_word = tuple(1 - (k & 1) for k in range(m))
    return act_word(gamma, orbit, st_word, e) == act_word(gamma, orbit, ts_word, e)


# ----------------------------------------------------------------------
# stage 2: the pre-canonicity test

def precanonical_test(gamma: StructureMatrix, block) -> TwistedModule:
    """The module gamma on block, once its bar involution psi is checked.

    psi fixes the lowest basis vector and must satisfy
    psi(op_s m) = (op_s + c) psi(m) with c = v^-k - v^k, which determines
    it row by row along rank ascents.  Raises NotPreCanonical if that
    descent recursion fails, a row's diagonal is not 1 (rows are
    unitriangular by property Z, ``Block``), or the intertwining property
    fails for some generator
    (``TwistedModule.check_precanonical``, which tests it only where the
    recursion and the quadratic relation do not prove it); psi^2 = id
    then follows.  ``_first_failure`` calls it once per sign class and
    block (``StructureMatrix.sign_normal_form``).
    """
    module = TwistedModule(block, "candidate", gamma)
    module.check_precanonical()
    return module


# ----------------------------------------------------------------------
# the screening loop of the grids and the families

def _first_failure(
    gamma: StructureMatrix, all_blocks: Sequence[tuple[str, Block]], memo: dict, modules: Optional[list] = None
) -> Optional[tuple[str, str, dict]]:
    """(status, block name, witness) of gamma's first failure on a battery, or None.

    Block by block: the representation check, once per diagonal class
    (``StructureMatrix.diagonal_normal_form``) and block, with the class's
    braid verdicts shared by the blocks; then, only if modules is given,
    pre-canonicity on the same block, once per sign class
    (``StructureMatrix.sign_normal_form``) and block, appending each
    checked module to modules.  On a ``battery``
    a class's witness is each member's (see the module docstring).  memo
    keeps every result for all the structures screened on the battery.
    """
    rep = gamma.diagonal_normal_form()
    verdicts = memo.setdefault(("braid", rep), {})
    sign_rep = None if modules is None else gamma.sign_normal_form()[0]
    for k, (name, blk) in enumerate(all_blocks):
        key = ("representation", rep, k)
        if key not in memo:
            memo[key] = check_representation(rep, blk, verdicts)
        if memo[key] is not None:
            return "rejected_representation", name, memo[key]
        if sign_rep is None:
            continue
        key = ("precanonical", sign_rep, k)
        if key not in memo:
            try:
                memo[key] = precanonical_test(sign_rep, blk)
            except NotPreCanonical as exc:
                memo[key] = exc.with_traceback(None)  # the frames would keep sign_rep's module alive
        if isinstance(memo[key], NotPreCanonical):
            return "rejected_precanonical", name, memo[key].witness
        modules.append(memo[key])
    return None


# ----------------------------------------------------------------------
# transports and isomorphism grouping

#: A transport (a, b, negate_v).  Transports compose by XOR, so they form
#: the group (Z/2)^3 (``_compose``).
Transport = tuple[int, int, bool]

TRANSPORTS: list[Transport] = [(a, b, neg) for a in (0, 1) for b in (0, 1) for neg in (False, True)]


def _entry_rule(table: CanonicalTable, a: int, b: int, negate: bool):
    """The map (i, j, f_ij) |-> d_i d_j eps(f_ij) of transport (a, b, negate) on table.

    d_w = (-1)^{a l(w) + b rho(w)}; eps is v |-> -v when ``negate``.
    """
    parity = [(a * len(x) + b * r) & 1 for x, r in zip(table.elements, table.ranks)]
    eps: dict[LaurentPoly, LaurentPoly] = {}  # each distinct value once: tables repeat few values many times

    def rule(i: int, j: int, p: LaurentPoly) -> LaurentPoly:
        if negate:
            q = eps.get(p)
            if q is None:
                q = eps[p] = p.negate_v()
            p = q
        return -p if parity[i] ^ parity[j] else p

    return rule


def transport_basis(table: CanonicalTable, a: int, b: int, negate: bool) -> dict[int, Column]:
    """Columns of the transported table g_{x,y} = d_x d_y eps(f_{x,y}), in table's key order.

    d_w = (-1)^{a l(w) + b rho(w)}; eps is v |-> -v when ``negate``.  The
    signs multiply and eps is an involution that commutes with them, so
    transporting by t1 and then by t2 is transporting by ``_compose(t1, t2)``.
    """
    rule = _entry_rule(table, a, b, negate)
    return {j: {i: rule(i, j, p) for i, p in column.items()} for j, column in table.columns.items()}


def _compose(s: Transport, t: Transport) -> Transport:
    return (s[0] ^ t[0], s[1] ^ t[1], s[2] != t[2])


def _carries(f: CanonicalTable, g: CanonicalTable, t: Transport) -> bool:
    """``transport_basis(f, *t) == g.columns``, decided at the first unequal entry."""
    if t == TRANSPORTS[0]:
        return f.columns == g.columns
    rule, target = _entry_rule(f, *t), g.columns
    return len(f.columns) == len(target) and all(
        len(column) == len(target[j]) and all(rule(i, j, p) == target[j].get(i) for i, p in column.items())
        for j, column in f.columns.items()
    )


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
    all_blocks = battery(names, mode)
    memo: dict = {}
    records = []
    survivors = []
    for cand in candidates:
        failure = _first_failure(cand.gamma, all_blocks, memo)
        rec = {
            "provenance": cand.provenance,
            "trivial": cand.trivial,
            "status": "pass" if failure is None else "fail",
        }
        if failure is None:
            survivors.append(cand.provenance)
        else:
            _, rec["failed_on"], rec["witness"] = failure
        records.append(rec)
    return ClassReport(
        mode=mode,
        case="representation_scan",
        systems=names,
        candidates=records,
        survivors=survivors,
        classes=[],
    )


def _sign_transport(group: bool, alpha: LaurentPoly, beta: LaurentPoly) -> Transport:
    """The transport carrying rep's canonical table to rep[alpha, beta]'s, alpha, beta in {1, -1}.

    Its entries are d_i d_j f_ij (``StructureMatrix.sign_normal_form``)
    with d_x = alpha^{rho(x) - l(x)} beta^{l(x) - 2 rho(x)} on a twisted
    block and alpha^{-l(x)} on the group block (``StructureMatrix.scaled``).
    Modulo 2 the exponent of -1 is [alpha = -1] rho + ([alpha = -1] +
    [beta = -1]) l, or [alpha = -1] l: ``transport_basis`` with that (a, b).
    D = diag(d_x) has no v in it, so it commutes with bar and never twists
    v |-> -v: negate_v is False.
    """
    flip_alpha, flip_beta = int(alpha == -ONE), int(beta == -ONE)
    if group:
        return (flip_alpha, 0, False)
    return (flip_alpha ^ flip_beta, flip_alpha, False)


class Survivor(NamedTuple):
    """A surviving candidate's canonical tables on a battery, by its sign class.

    ``tables`` are the tables of ``sign_class``, the candidate's
    ``StructureMatrix.sign_normal_form``, block by block; the candidate's
    own are ``transport_basis`` of them by ``transport``.
    """

    sign_class: StructureMatrix
    tables: list[CanonicalTable]
    transport: Transport


def screen_candidates(
    candidates: Sequence[Candidate], all_blocks: Sequence[tuple[str, Block]]
) -> tuple[list[dict], dict[str, Survivor]]:
    """The representation and pre-canonicity stages of ``classification_run``.

    Returns each candidate's record, and every survivor's sign class and
    sign transport, in order.  ``_first_failure`` screens each candidate,
    and the tables are solved once per sign class and block; each candidate
    gets its class's witness, and no survivor's own table is built.  The
    blocks must be all group blocks or all twisted blocks (``battery``
    makes either), so that one transport serves each.
    """
    kinds = {isinstance(blk, GroupBlock) for _, blk in all_blocks}
    if len(kinds) > 1:
        raise ValueError("a battery mixes group and twisted blocks")
    group = kinds == {True}
    memo: dict = {}
    records = []
    survivors: dict[str, Survivor] = {}
    for cand in candidates:
        rec: dict = {"provenance": cand.provenance, "base": cand.base}
        status = "survivor"
        modules: list[TwistedModule] = []
        failure = _first_failure(cand.gamma, all_blocks, memo, modules)
        if failure is not None:
            status, rec["failed_on"], rec["witness"] = failure
        rec["status"] = status
        records.append(rec)
        if failure is None:
            sign_rep, alpha, beta = cand.gamma.sign_normal_form()
            survivors[cand.provenance] = Survivor(
                sign_rep,
                [module.canonical_table() for module in modules],
                _sign_transport(group, alpha, beta),
            )
    return records, survivors


def _first_transport(p: Survivor, q: Survivor, carried: dict) -> Optional[Transport]:
    """The first transport in ``TRANSPORTS`` order carrying p's tables onto q's.

    p's tables are those of its sign class P transported by sigma_p, q's
    those of Q by sigma_q, and transports compose by XOR
    (``transport_basis``), each its own inverse.  So t carries p's tables
    onto q's exactly when x = t xor sigma_p xor sigma_q carries P's onto
    Q's.  That verdict is worked out once per (P, Q, x), comparing tables
    entry by entry up to the first difference, and kept in carried.
    """
    P, Q = p.sign_class, q.sign_class
    shift = _compose(p.transport, q.transport)
    for t in TRANSPORTS:
        x = _compose(t, shift)
        if (P, Q, x) not in carried:
            carried[P, Q, x] = all(_carries(f, g, x) for f, g in zip(p.tables, q.tables))
        if carried[P, Q, x]:
            return t
    return None


def classification_run(
    mode: str, systems: Sequence[str] = DEFAULT_SYSTEMS
) -> ClassReport:
    """The full classification: representation, pre-canonicity, grouping."""
    names = list(systems)
    records, survivors = screen_candidates(
        enumerate_candidates("classified_families", mode), battery(names, mode)
    )

    # transports form a group acting on the tables, so relatedness is an
    # equivalence: each survivor joins the first class whose first member
    # carries onto it, or starts a class of its own
    carried: dict = {}
    classes_by_first: dict[str, list[tuple[str, Transport]]] = {}
    for q in survivors:
        for first, joined in classes_by_first.items():
            combo = _first_transport(survivors[first], survivors[q], carried)
            if combo is not None:
                joined.append((q, combo))
                break
        else:
            classes_by_first[q] = []
    transports = [
        {"from": first, "to": q, "sign_l": a, "sign_rho": b, "negate_v": negate_v}
        for first, joined in classes_by_first.items()
        for q, (a, b, negate_v) in joined
    ]
    classes = sorted(
        sorted([first] + [q for q, _ in joined]) for first, joined in classes_by_first.items()
    )

    return ClassReport(
        mode=mode,
        case="classified_families",
        systems=names,
        candidates=records,
        survivors=list(survivors),
        classes=classes,
        transports=transports,
    )
