"""The eigenvalue fill against the full seed-and-peel solve (tests/peel_oracle.py).

For ``h`` (parameter v or v^2) on the group block and ``pi`` on every
twisted block, ``TwistedModule._seed`` builds each seed on the descent half
of its interval only, and ``hecke._column_from_seed`` fills the other half
of the column from the eigenvalue relation.  The tables must equal the
oracle's, values and key order.  Every column's seed descent now satisfies
the eigenvalue property by construction, so ``recurrence_check("pi")`` no
longer checks that descent on its own: this comparison does.
``pi_prime`` and ``iota`` keep the full peel.

On the regular module, the columns and psi rows at w with w^-1 < w are
copied from w^-1 (``TwistedModule._mirror``); the ``h`` comparisons cover
those columns, and the tests below the rows, the permutation and the
structures that get no mirror.
"""

import pytest

from peel_oracle import full_peel_entries

from ivhecke.classify import GROUP_FLIP_MATRIX
from ivhecke.coxeter import parse_system
from ivhecke.ivmodules import GROUP_PLAIN_MATRIX, REGULAR_STRUCTURES, TwistedModule, bar_row_vector
from ivhecke.laurent import ONE
from ivhecke.twisted import GroupBlock, TwistedBlock, involutive_automorphisms

slow = pytest.mark.slow  # deselected by default; `pytest -m slow` runs them

SYSTEMS = ["A3", "B3", "H3", "D4", "A4", "I2(5)"]


def assert_matches_full_peel(module) -> None:
    assert module._fill_units is not None, (module.block, module.label)
    got = module.canonical_table().entries
    assert list(got.items()) == list(full_peel_entries(module).items()), (module.block, module.label)


def regular_module(name: str, squared: bool) -> TwistedModule:
    return TwistedModule(GroupBlock(parse_system(name)), "h", REGULAR_STRUCTURES[squared])


@pytest.mark.parametrize("squared", [False, True])
@pytest.mark.parametrize("name", SYSTEMS)
def test_h_fill_matches_full_peel(name, squared):
    assert_matches_full_peel(regular_module(name, squared))


@pytest.mark.parametrize("squared", [False, True])
@pytest.mark.parametrize("name", SYSTEMS)
def test_mirrored_bar_rows_are_the_derived_rows(name, squared):
    module = regular_module(name, squared)
    mirror = module._mirror
    derived = {0: module.bar_row(0)}
    mirrored = 0
    for j in range(1, len(module.block)):
        derived[j] = bar_row_vector(module.gamma, module.block, j, derived)
        assert module.bar_row(j) == derived[j], (name, j)
        mirrored += mirror[j] < j
    assert mirrored > 0


@pytest.mark.parametrize("name", SYSTEMS + ["F4"])
def test_group_inverse_is_the_word_inverse(name):
    system = parse_system(name)
    block = GroupBlock(system)
    inverse = block.inverse
    assert all(inverse[inverse[i]] == i for i in range(len(block)))
    assert [block.elements[k] for k in inverse] == [system.inverse(w) for w in block.elements]


@pytest.mark.parametrize("name", ["A3", "H3", "I2(5)"])
def test_other_group_structures_get_no_mirror(name):
    block = GroupBlock(parse_system(name))
    for gamma in (GROUP_FLIP_MATRIX, GROUP_PLAIN_MATRIX.scaled(-ONE, -ONE), REGULAR_STRUCTURES[True].scaled(-ONE, -ONE)):
        module = TwistedModule(block, "candidate", gamma)
        assert module._mirror is None
        assert list(module.canonical_table().entries.items()) == list(full_peel_entries(module).items())


@pytest.mark.parametrize("name", SYSTEMS)
def test_pi_fill_matches_full_peel(name):
    system = parse_system(name)
    for theta in involutive_automorphisms(system):
        assert_matches_full_peel(TwistedModule(TwistedBlock(system, theta), "pi"))


def test_fill_units_read_off_the_structures():
    block = TwistedBlock(parse_system("B3"), (0, 1, 2))
    # C[x] = c v^e C[s |*| x] on the ascent half, per commutes case
    assert regular_module("A3", False)._fill_units == {False: (1, -1), True: (1, -1)}
    assert regular_module("A3", True)._fill_units == {False: (1, -2), True: (1, -2)}
    assert TwistedModule(block, "pi")._fill_units == {False: (1, -2), True: (1, -1)}
    for label in ("pi_prime", "iota"):
        module = TwistedModule(block, label)
        assert module._fill_units is None
        assert list(module.canonical_table().entries.items()) == list(full_peel_entries(module).items())


@slow
def test_h4_pi_fill_matches_full_peel():
    system = parse_system("H4")
    assert_matches_full_peel(TwistedModule(TwistedBlock(system, system.identity_perm()), "pi"))


@slow
def test_f4_h_fill_matches_full_peel():
    assert_matches_full_peel(regular_module("F4", False))


@slow
def test_e6_pi_fill_matches_full_peel():
    system = parse_system("E6")
    assert_matches_full_peel(TwistedModule(TwistedBlock(system, system.identity_perm()), "pi"))
