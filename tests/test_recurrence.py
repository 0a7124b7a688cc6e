"""The descent recurrence that builds every module table, against the psi-row solve.

``TwistedModule.canonical_table()`` reduces the psi-invariant seed
(H_s + v^-k) C_i at a descent of each element; the oracle is
``solve_canonical`` fed psi's rows, which shares no step with it but the
final table.  Both tie orders of the oracle must give the same table.
"""

import hashlib

import pytest

from ivhecke import hecke
from ivhecke.classify import DEFAULT_SYSTEMS, battery, enumerate_candidates, precanonical_test
from ivhecke.coxeter import parse_system
from ivhecke.hecke import HeckeAlgebra, NotPreCanonical, solve_canonical
from ivhecke.ivmodules import NAMED_STRUCTURES, REGULAR_STRUCTURES, TwistedModule
from ivhecke.laurent import ONE, V, VI
from ivhecke.twisted import GroupBlock, TwistedBlock, involutive_automorphisms


def assert_matches_psi_rows(module: TwistedModule) -> None:
    """The table equals the psi-row solve in both tie orders, entry order included."""
    table = module.canonical_table()
    blk = module.block
    where = (blk.system.name, blk.theta, module.label)
    for reverse in (False, True):
        expected = solve_canonical(
            blk.rho, blk.lower_indices, module.bar_row, reverse_ties=reverse, labels=blk.elements
        )
        assert table.entries == expected, where + (reverse,)
        if not reverse:
            assert list(table.entries) == list(expected), where


@pytest.mark.parametrize("name", ["A3", "B3", "H3", "D4", "I2(5)", "I2(8)"])
def test_named_structures_match_the_psi_row_solve(name):
    system = parse_system(name)
    for theta in involutive_automorphisms(system):
        block = TwistedBlock(system, theta)
        for label in NAMED_STRUCTURES:
            assert_matches_psi_rows(TwistedModule(block, label))


@pytest.mark.parametrize("name", ["A2", "B2", "A3", "B3", "H3", "D4"])
@pytest.mark.parametrize("squared", [False, True])
def test_regular_module_matches_the_psi_row_solve(name, squared):
    assert_matches_psi_rows(TwistedModule(GroupBlock(parse_system(name)), "h", REGULAR_STRUCTURES[squared]))


@pytest.mark.parametrize("mode,count", [("hw", 4), ("hi", 16), ("h2i", 32)])
def test_classified_survivors_match_the_psi_row_solve(mode, count, monkeypatch):
    seen = set()
    split = hecke.split_bar_invariant

    def recording_split(f, a1):
        seen.add(a1)
        return split(f, a1)

    monkeypatch.setattr(hecke, "split_bar_invariant", recording_split)
    blocks = [blk for _name, blk in battery(DEFAULT_SYSTEMS, mode)]
    survivors = 0
    for cand in enumerate_candidates("classified_families", mode):
        # every candidate of the families passes the representation check
        try:
            modules = [precanonical_test(cand.gamma, blk) for blk in blocks]
        except NotPreCanonical:
            continue
        survivors += 1
        for module in modules:
            assert_matches_psi_rows(module)
    assert survivors == count
    # every ascent coefficient the recurrence supports is reduced somewhere
    assert seen == ({ONE, -ONE} if mode != "h2i" else {ONE, -ONE, V + VI, -(V + VI)})


def test_b4_regular_table_is_pinned():
    csv = HeckeAlgebra(parse_system("B4")).kl_table().to_csv()
    assert hashlib.sha256(csv.encode()).hexdigest() == (
        "cd22a58ea733e02eb357eed437ca5b6c1894f231f32019e5e4f2d3541bd4d040"
    )
