"""Both pre-canonicity stages against their oracles.

``check_precanonical`` skips the psi^2 pass and every intertwining test the
descent recursion proves; ``check_representation`` reads the quadratic
relation off the structure's 2x2 matrices.  Each must give the witness of
the check that tests everything (``precanonical_oracle``,
``representation_oracle``).  Random structure matrices rarely pass, so the
classified families, which mostly do, run through both checks as well.
"""

from functools import lru_cache

import pytest
from hypothesis import example, given, settings, strategies as st

from ivhecke.classify import blocks_for_mode, check_representation, enumerate_candidates, squared_image
from ivhecke.coxeter import parse_system
from ivhecke.hecke import NotPreCanonical
from ivhecke.ivmodules import GROUP_PLAIN_MATRIX, StructureMatrix, TwistedModule, quadratic_failures
from ivhecke.laurent import ONE, U, U2, V, VI, ZERO, monomial
from ivhecke.twisted import Block, GroupBlock, TwistedBlock

from precanonical_oracle import check_precanonical_with_psi_squared
from representation_oracle import check_representation_per_element

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


class LastGeneratorBlock(Block):
    """Two elements of A2 on which only the last generator breaks intertwining.

    s = 0 swaps the elements as a group block would; s = 1 fixes
    element 0 but marks the move "up", which no real block does.  No
    real block has been found whose first intertwining failure is at the
    last generator, so this one keeps that generator in the check.  As s = 1
    does not pair the block, both checks test it on every element.
    """

    def __init__(self) -> None:
        self.system = parse_system("A2")
        self.theta = (0, 1)
        self.elements = [(), (0,)]
        self.index = {w: i for i, w in enumerate(self.elements)}
        self.rho = [0, 1]
        self.cross = [
            [(1, False, True), (0, False, False)],
            [(0, False, True), (1, False, True)],
        ]

    def lower_indices(self, j: int) -> tuple[int, ...]:
        return tuple(range(j + 1))  # a chain: no Coxeter block has this cross table, so no property Z


class ZeroAscentBlock(Block):
    """Four elements of A2; every generator pairs them.

    s = 0 pairs (0, 1) without commuting and (2, 3) commuting; s = 1 pairs
    (0, 2) and (1, 3) without commuting.  Under ``ZERO_ASCENT`` the
    commuting pair has ascent coefficient a1 = 0 and satisfies the
    quadratic relation, and intertwining first fails at its lower end: a
    pair the descent recursion proves nothing about.
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

    def lower_indices(self, j: int) -> tuple[int, ...]:
        return tuple(range(j + 1))  # a chain: no Coxeter block has this cross table, so no property Z


ZERO_ASCENT = StructureMatrix(False, ((ONE, ZERO), (ONE, U), (ZERO, V), (ZERO, -VI)))


@st.composite
def structures(draw):
    squared = draw(st.booleans())
    mode = draw(st.sampled_from(("hw", "h2i" if squared else "hi")))
    pair = st.tuples(st.sampled_from(POOLS[squared]), st.sampled_from(POOLS[squared]))
    rows = draw(st.tuples(*[pair] * (2 if mode == "hw" else 4)))
    block = draw(st.sampled_from(blocks(mode)))
    return StructureMatrix(squared, rows), block


@settings(max_examples=300, deadline=None)
@given(structures())
# fail intertwining first at s = 0 on the B2 group block, at s = 1 on the A3 flip block,
# at the last generator s = 1 on the synthetic A2 block that s = 1 does not pair,
@example((StructureMatrix(False, ((-ONE, V), (-U, V))), GroupBlock(parse_system("B2"))))
@example(
    (
        StructureMatrix(False, ((-ONE, V), (U, -VI), (ONE, -VI), (-VI, -VI))),
        TwistedBlock(parse_system("A3"), (2, 1, 0)),
    )
)
@example((GROUP_PLAIN_MATRIX, LastGeneratorBlock()))
# at an ascent pair with a1 != 0, where the quadratic relation fails (B2 flip block),
# and at a pair with a1 = 0 whose quadratic relation holds (synthetic A2 block)
@example(
    (
        StructureMatrix(False, ((ONE, ZERO), (ZERO, -VI), (ZERO, -VI), (ZERO, -VI))),
        TwistedBlock(parse_system("B2"), (1, 0)),
    )
)
@example((ZERO_ASCENT, ZeroAscentBlock()))
def test_random_structures_agree_with_the_psi_squared_oracle(case):
    assert_agrees_with_oracle(*case)


def test_a_zero_ascent_pair_keeps_its_intertwining_test():
    block = ZeroAscentBlock()
    assert block.pairs == (True, True)
    assert quadratic_failures(ZERO_ASCENT, block) == {0: None, 1: None}
    _, got = witness(TwistedModule.check_precanonical, ZERO_ASCENT, block)
    assert got == {"reason": "intertwining failure", "theta": [0, 1], "element": [1], "s": 0}


@pytest.mark.parametrize("mode", ["hw", "hi", "h2i"])
def test_classified_families_agree_with_the_psi_squared_oracle(mode):
    passed = 0
    for cand in enumerate_candidates("classified_families", mode):
        for block in blocks(mode):
            passed += assert_agrees_with_oracle(cand.gamma, block)
    assert passed > 0, mode


# ----------------------------------------------------------------------
# the representation check

SYNTHETIC = (LastGeneratorBlock(), ZeroAscentBlock())


@lru_cache(maxsize=None)
def seed_structures() -> tuple:
    """The candidates of every grid and mode, and the v^2 images of those in v."""
    grids = (("both_zero", "hi"), ("left_nonzero", "hi")) + tuple(
        ("classified_families", mode) for mode in ("hw", "hi", "h2i")
    )
    out = [c.gamma for case, mode in grids for c in enumerate_candidates(case, mode)]
    return tuple(out + [squared_image(g) for g in out if not g.squared])


@st.composite
def representation_cases(draw):
    """A structure and a block.  The structure is random, a grid or family
    candidate, or such a candidate with one entry replaced, so that the
    quadratic relation often holds, or fails only in some cases, or only a
    braid relation fails."""
    squared = draw(st.booleans())
    mode = draw(st.sampled_from(("hw", "h2i" if squared else "hi")))
    pool = st.sampled_from(POOLS[squared])
    size = 2 if mode == "hw" else 4
    seeds = [g.rows for g in seed_structures() if g.squared == squared and len(g.rows) == size]
    source = draw(st.sampled_from(("random", "seed", "mutant", "mutant")))
    if source == "random":
        rows = [[draw(pool), draw(pool)] for _ in range(size)]
    else:
        rows = [list(row) for row in draw(st.sampled_from(seeds))]
    if source == "mutant":
        rows[draw(st.integers(0, size - 1))][draw(st.integers(0, 1))] = draw(pool)
    block = draw(st.sampled_from(blocks(mode) + SYNTHETIC))
    return StructureMatrix(squared, tuple(map(tuple, rows))), block


@settings(max_examples=300, deadline=None)
@given(representation_cases())
# the quadratic relation fails only at the generator that does not pair the block
@example((GROUP_PLAIN_MATRIX, LastGeneratorBlock()))
def test_random_structures_agree_with_the_representation_oracle(case):
    gamma, block = case
    got = check_representation(gamma, block)
    assert got == check_representation_per_element(gamma, block), (gamma, block.theta)


def test_the_non_pairing_block_fails_at_its_last_generator():
    block = LastGeneratorBlock()
    assert block.pairs == (True, False)
    assert check_representation(GROUP_PLAIN_MATRIX, block) == {
        "relation": "quadratic", "s": 1, "element": [], "theta": [0, 1]
    }
