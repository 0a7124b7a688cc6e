"""check_precanonical, which skips the psi^2 pass, against the full oracle.

Random structure matrices rarely pass, so the classified families, which
mostly do, run through both checks as well.
"""

from functools import lru_cache

import pytest
from hypothesis import example, given, settings, strategies as st

from ivhecke.classify import blocks_for_mode, enumerate_candidates
from ivhecke.coxeter import parse_system
from ivhecke.hecke import NotPreCanonical
from ivhecke.ivmodules import GROUP_PLAIN_MATRIX, StructureMatrix, TwistedModule
from ivhecke.laurent import ONE, U, U2, V, VI, ZERO, monomial
from ivhecke.twisted import Block, GroupBlock, TwistedBlock

from precanonical_oracle import check_precanonical_with_psi_squared

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
    last generator, so this one keeps that generator in the check.
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
        self._lower = {}

    def leq(self, i: int, j: int) -> bool:
        return i <= j


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
# and at the last generator s = 1 on the synthetic A2 block
@example((StructureMatrix(False, ((-ONE, V), (-U, V))), GroupBlock(parse_system("B2"))))
@example(
    (
        StructureMatrix(False, ((-ONE, V), (U, -VI), (ONE, -VI), (-VI, -VI))),
        TwistedBlock(parse_system("A3"), (2, 1, 0)),
    )
)
@example((GROUP_PLAIN_MATRIX, LastGeneratorBlock()))
def test_random_structures_agree_with_the_psi_squared_oracle(case):
    assert_agrees_with_oracle(*case)


@pytest.mark.parametrize("mode", ["hw", "hi", "h2i"])
def test_classified_families_agree_with_the_psi_squared_oracle(mode):
    passed = 0
    for cand in enumerate_candidates("classified_families", mode):
        for block in blocks(mode):
            passed += assert_agrees_with_oracle(cand.gamma, block)
    assert passed > 0, mode
