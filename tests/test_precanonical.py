"""Both pre-canonicity stages against their oracles.

``check_precanonical`` skips the psi^2 pass and every intertwining test the
descent recursion proves; ``check_representation`` reads the quadratic
relation off the structure's 2x2 matrices.  Each must give the witness of
the check that tests everything (``precanonical_oracle``,
``representation_oracle``).  Random structure matrices rarely pass, so the
classified families, which mostly do, run through both checks as well.
"""

from functools import lru_cache
from itertools import combinations
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from ivhecke.classify import (
    blocks_for_mode,
    check_representation,
    classification_run,
    enumerate_candidates,
    squared_image,
    transport_basis,
)
from ivhecke.coxeter import parse_system
from ivhecke.hecke import NotPreCanonical
from ivhecke.ivmodules import (
    GROUP_PLAIN_MATRIX,
    IOTA_MATRIX,
    StructureMatrix,
    TwistedModule,
    act_gen,
    quadratic_failures,
    vec_axpy,
)
from ivhecke.laurent import ONE, U, U2, V, VI, ZERO, monomial
from ivhecke.twisted import Block, GroupBlock, TwistedBlock, involutive_automorphisms

from precanonical_oracle import check_precanonical_with_psi_squared
from test_interval_support import assert_property_z
from representation_oracle import check_representation_per_element, quadratic_failures_by_scan

SYSTEMS = ("A2", "B2", "I2(5)", "A3")

#: entries for parameter v, and for parameter v^2
POOLS = {
    False: (ZERO, ONE, -ONE, V, -V, VI, -VI, U, -U, V + VI, U - 1, U + 1),
    True: (
        ZERO, ONE, -ONE, V, -V, VI, V + VI, V - VI, VI - V,
        U2, -U2, monomial(2), -monomial(-2), U2 - 1, U2 + 1,
    ),
}


@lru_cache(maxsize=None)
def blocks(mode: str) -> tuple:
    return tuple(blk for name in SYSTEMS for blk in blocks_for_mode(parse_system(name), mode))


def witness(check, gamma: StructureMatrix, block):
    """(module, None) if ``check`` passes on a fresh module, else (module, witness)."""
    module = TwistedModule(block, "candidate", gamma)
    try:
        check(module)
    except NotPreCanonical as exc:
        return module, exc.witness
    return module, None


def assert_agrees_with_oracle(gamma: StructureMatrix, block) -> bool:
    """Both checks give the same witness; a passing module has psi^2 = id."""
    module, got = witness(TwistedModule.check_precanonical, gamma, block)
    _, expected = witness(check_precanonical_with_psi_squared, gamma, block)
    assert got == expected, (gamma, block.system.name, block.theta)
    if got is None:
        for j in range(len(block)):
            assert module.bar(module.bar_row(j)) == {j: ONE}, (gamma, block.theta, j)
    return got is None


class ZeroAscentBlock(Block):
    """Four elements of A2; every generator pairs them.

    s = 0 pairs (0, 1) without commuting and (2, 3) commuting; s = 1 pairs
    (0, 2) and (1, 3) without commuting.  Under ``ZERO_ASCENT`` the
    commuting pair has ascent coefficient a1 = 0 and satisfies the
    quadratic relation, and intertwining first fails at its lower end: a
    pair the descent recursion proves nothing about.  Its intervals are
    ``Block``'s, read off the cross table by property Z.
    """

    def __init__(self) -> None:
        self.system = parse_system("A2")
        self.theta = (0, 1)
        self.elements = [(), (0,), (1,), (0, 1)]
        self.index = {w: i for i, w in enumerate(self.elements)}
        self.rho = [0, 1, 1, 2]
        self.cross = [
            [(1, False, True), (0, False, False), (3, True, True), (2, True, False)],
            [(2, False, True), (3, False, True), (0, False, False), (1, False, False)],
        ]


class SwappedZeroAscentBlock(ZeroAscentBlock):
    """``ZeroAscentBlock`` with its two generators swapped.

    The commuting pair now belongs to the last generator, s = 1, so a
    failure confined to the commuting case comes first at s = 1: no real
    block has been seen to fail first at its last generator, and this one
    keeps that generator in both checks.
    """

    def __init__(self) -> None:
        super().__init__()
        self.cross.reverse()


ZERO_ASCENT = StructureMatrix(False, ((ONE, ZERO), (ONE, U), (ZERO, V), (ZERO, -VI)))


@st.composite
def structures(draw):
    squared = draw(st.booleans())
    mode = draw(st.sampled_from(("hw", "h2i" if squared else "hi")))
    pair = st.tuples(st.sampled_from(POOLS[squared]), st.sampled_from(POOLS[squared]))
    rows = draw(st.tuples(*[pair] * 4))  # the group block reads only the first two
    block = draw(st.sampled_from(blocks(mode)))
    return StructureMatrix(squared, rows), block


@settings(max_examples=300, deadline=None)
@given(structures())
# fail intertwining first at s = 0 on the B2 group block, at s = 1 on the A3 flip block,
@example((StructureMatrix(False, ((-ONE, V), (-U, V)) * 2), GroupBlock(parse_system("B2"))))
@example(
    (
        StructureMatrix(False, ((-ONE, V), (U, -VI), (ONE, -VI), (-VI, -VI))),
        TwistedBlock(parse_system("A3"), (2, 1, 0)),
    )
)
# at an ascent pair with a1 != 0, where the quadratic relation fails (B2 flip block),
# and at a pair with a1 = 0 whose quadratic relation holds (synthetic A2 blocks, the
# second failing at the last generator)
@example(
    (
        StructureMatrix(False, ((ONE, ZERO), (ZERO, -VI), (ZERO, -VI), (ZERO, -VI))),
        TwistedBlock(parse_system("B2"), (1, 0)),
    )
)
@example((ZERO_ASCENT, ZeroAscentBlock()))
@example((ZERO_ASCENT, SwappedZeroAscentBlock()))
def test_random_structures_agree_with_the_psi_squared_oracle(case):
    assert_agrees_with_oracle(*case)


@pytest.mark.parametrize("junk", [((ZERO, ZERO),) * 2, ((ONE, V), (ONE, V))], ids=["zero", "not_quadratic"])
@pytest.mark.parametrize("name", ["A3", "B3"])
def test_the_group_block_reads_no_commuting_row(name, junk):
    """Junk commuting rows leave the regular module's bar rows, canonical
    table and representation and pre-canonicity verdicts as they are."""
    block = GroupBlock(parse_system(name))
    gamma = StructureMatrix(False, GROUP_PLAIN_MATRIX.rows[:2] + junk)
    assert gamma != GROUP_PLAIN_MATRIX
    assert check_representation(gamma, block) is check_representation(GROUP_PLAIN_MATRIX, block) is None
    module, got = witness(TwistedModule.check_precanonical, gamma, block)
    plain, expected = witness(TwistedModule.check_precanonical, GROUP_PLAIN_MATRIX, block)
    assert got is expected is None
    assert [module.bar_row(j) for j in range(len(block))] == [plain.bar_row(j) for j in range(len(block))]
    assert list(module.canonical_table().entries.items()) == list(plain.canonical_table().entries.items())


def test_a_zero_ascent_pair_keeps_its_intertwining_test():
    block = ZeroAscentBlock()
    assert quadratic_failures(ZERO_ASCENT, block) == [None, None]
    _, got = witness(TwistedModule.check_precanonical, ZERO_ASCENT, block)
    assert got == {"reason": "intertwining failure", "theta": [0, 1], "element": [1], "s": 0}


@pytest.mark.parametrize("block", [ZeroAscentBlock(), SwappedZeroAscentBlock()], ids=["zero", "swapped"])
def test_synthetic_blocks_satisfy_property_z(block):
    assert [block.lower_indices(j) for j in range(4)] == [(0,), (0, 1), (0, 2), (0, 1, 2, 3)]
    assert_property_z(block)


@pytest.mark.parametrize("mode", ["hw", "hi", "h2i"])
def test_classified_families_agree_with_the_psi_squared_oracle(mode):
    passed = 0
    for cand in enumerate_candidates("classified_families", mode):
        for block in blocks(mode):
            passed += assert_agrees_with_oracle(cand.gamma, block)
    assert passed > 0, mode


# ----------------------------------------------------------------------
# the representation check

SYNTHETIC = (ZeroAscentBlock(), SwappedZeroAscentBlock())


@lru_cache(maxsize=None)
def seed_structures(group: bool) -> tuple:
    """The candidates of the group's families (``group``) or of every block
    grid and family, and the v^2 images of those in v."""
    if group:
        grids = (("classified_families", "hw"),)
    else:
        grids = (("both_zero", "hi"), ("left_nonzero", "hi")) + tuple(
            ("classified_families", m) for m in ("hi", "h2i")
        )
    out = [c.gamma for case, m in grids for c in enumerate_candidates(case, m)]
    return tuple(out + [squared_image(g) for g in out if not g.squared])


@st.composite
def representation_cases(draw, extra_blocks=SYNTHETIC):
    """A structure and a block.  The structure is random, a grid or family
    candidate, or such a candidate with one entry replaced, so that the
    quadratic relation often holds, or fails only in some cases, or only a
    braid relation fails.  The block is a real one or one of ``extra_blocks``."""
    squared = draw(st.booleans())
    mode = draw(st.sampled_from(("hw", "h2i" if squared else "hi")))
    pool = st.sampled_from(POOLS[squared])
    seeds = [g.rows for g in seed_structures(mode == "hw") if g.squared == squared]
    source = draw(st.sampled_from(("random", "seed", "mutant", "mutant")))
    if source == "random":
        rows = [[draw(pool), draw(pool)] for _ in range(4)]
    else:
        rows = [list(row) for row in draw(st.sampled_from(seeds))]
    if source == "mutant":  # the group block reads only the noncommuting rows
        rows[draw(st.integers(0, 1 if mode == "hw" else 3))][draw(st.integers(0, 1))] = draw(pool)
    block = draw(st.sampled_from(blocks(mode) + extra_blocks))
    return StructureMatrix(squared, tuple(map(tuple, rows))), block


def first_quadratic_failure(gamma: StructureMatrix, block, s: int):
    """The first k with op_s^2 m_k != u op_s m_k + m_k, tested on each basis vector."""
    for k in range(len(block)):
        e = {k: ONE}
        once = act_gen(gamma, block, s, e)
        vec_axpy(e, gamma.parameter_diff, once)
        if act_gen(gamma, block, s, once) != e:
            return k
    return None


@settings(max_examples=300, deadline=None)
@given(representation_cases())
# the quadratic relation fails only in the commuting case, which only the last generator has
@example(
    (StructureMatrix(False, ((ONE, ZERO), (ONE, U), (ZERO, ZERO), (ZERO, ZERO))), SwappedZeroAscentBlock())
)
def test_random_structures_agree_with_the_representation_oracle(case):
    gamma, block = case
    got = check_representation(gamma, block)
    assert got == check_representation_per_element(gamma, block), (gamma, block.theta)
    # the witness names only the first failing generator: check every one
    expected = [first_quadratic_failure(gamma, block, s) for s in range(block.system.rank)]
    assert quadratic_failures(gamma, block) == expected, (gamma, block.theta)


CASES = [(commutes, up) for commutes in (False, True) for up in (False, True)]


@pytest.mark.parametrize(
    "name", ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "D4", "H3", "F4"] + [f"I2({m})" for m in range(2, 9)]
)
def test_quadratic_failures_match_the_scan(name):
    """Every set of failing cases gives the index the cross-row scan gives, on every block."""
    system = parse_system(name)
    for block in [GroupBlock(system)] + [TwistedBlock(system, theta) for theta in involutive_automorphisms(system)]:
        assert_quadratic_failures_match_the_scan(block)


@pytest.mark.parametrize("block", SYNTHETIC, ids=["zero", "swapped"])
def test_quadratic_failures_match_the_scan_on_synthetic_blocks(block):
    assert_quadratic_failures_match_the_scan(block)


def assert_quadratic_failures_match_the_scan(block) -> None:
    for size in range(1, len(CASES) + 1):
        for bad in map(frozenset, combinations(CASES, size)):
            # quadratic_failures reads only the failing cases of the structure
            gamma = SimpleNamespace(quadratic_failing_cases=bad)
            assert quadratic_failures(gamma, block) == quadratic_failures_by_scan(bad, block), (block, bad)


UNITS = st.builds(monomial, st.integers(-2, 2), st.sampled_from((1, -1)))


@settings(max_examples=300, deadline=None)
@given(representation_cases(extra_blocks=()), UNITS, UNITS)
# row 2's first entry is 0, so beta comes from row 3
@example(
    (
        StructureMatrix(False, ((ONE, ZERO), (ONE, U), (ZERO, ONE), (U, U - 1))),
        TwistedBlock(parse_system("A3"), (2, 1, 0)),
    ),
    ONE,
    -V,
)
def test_unit_rescalings_keep_the_representation_witness(case, alpha, beta):
    """On a real block gamma[alpha, beta] is gamma conjugated by a diagonal
    change of basis, so the check's witness is gamma's, and the class has
    one normal form: the classification checks it once per class."""
    gamma, block = case
    scaled = gamma.scaled(alpha, beta)
    assert check_representation(scaled, block) == check_representation(gamma, block), (gamma, alpha, beta)
    assert scaled.diagonal_normal_form() == gamma.diagonal_normal_form(), (gamma, alpha, beta)


# ----------------------------------------------------------------------
# sign classes

SIGNS = st.sampled_from((ONE, -ONE))


@settings(max_examples=300, deadline=None)
@given(representation_cases(extra_blocks=()), SIGNS, SIGNS)
# pre-canonical on a twisted block with alpha = -1, and on a group block
@example((IOTA_MATRIX, TwistedBlock(parse_system("A3"), (2, 1, 0))), -ONE, ONE)
@example((GROUP_PLAIN_MATRIX, GroupBlock(parse_system("B2"))), -ONE, ONE)
def test_sign_rescalings_keep_the_witness_and_transport_the_table(case, alpha, beta):
    """On a real block gamma[alpha, beta], alpha, beta = +-1, is gamma
    conjugated by D = diag(d_x), d_x = +-1: the same pre-canonicity witness,
    and the canonical table with entry (i, j) times d_i d_j, in the same key
    order.  The classification checks and solves once per sign class."""
    gamma, block = case
    scaled = gamma.scaled(alpha, beta)
    module, got = witness(TwistedModule.check_precanonical, scaled, block)
    base, expected = witness(TwistedModule.check_precanonical, gamma, block)
    assert got == expected, (gamma, alpha, beta, block.theta)
    assert scaled.sign_normal_form()[0] == gamma.sign_normal_form()[0], (gamma, alpha, beta)
    if got is None:
        # d_x = alpha^{rho - l} beta^{l - 2 rho} on a twisted block, alpha^{-l} on the group
        flip_alpha, flip_beta = int(alpha == -ONE), int(beta == -ONE)
        a, b = (flip_alpha, 0) if isinstance(block, GroupBlock) else (flip_alpha ^ flip_beta, flip_alpha)
        transported = transport_basis(base.canonical_table(), a, b, False)
        expected = [((i, j), p) for j, column in transported.items() for i, p in column.items()]
        assert list(module.canonical_table().entries.items()) == expected, (gamma, alpha, beta)


def test_a_v_rescaling_is_its_own_sign_class():
    # iota[v, 1] is in iota's diagonal class, but its psi has diagonal
    # v^-2 where iota's has 1: a memo keyed by the diagonal normal form
    # would give it iota's pass
    scaled = IOTA_MATRIX.scaled(V, ONE)
    assert scaled.diagonal_normal_form() == IOTA_MATRIX.diagonal_normal_form()
    assert scaled.sign_normal_form()[0] != IOTA_MATRIX.sign_normal_form()[0]
    records = {r["provenance"]: r for r in classification_run("hi", ("A2",)).candidates}
    assert records["iota[1,1]"]["status"] == "survivor"
    assert records["iota[v,1]"]["status"] == "rejected_precanonical"
    assert records["iota[v,1]"]["witness"] == {
        "reason": "diagonal not 1", "theta": [0, 1], "element": [0, 1, 0], "diagonal": {"-2": 1}
    }
