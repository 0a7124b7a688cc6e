"""The eigenvalue fill against the full seed-and-peel solve (tests/peel_oracle.py).

For ``h`` (parameter v or v^2) on the group block and ``pi`` on every
twisted block, ``TwistedModule._seed`` builds each seed on the descent half
of its interval only, and ``hecke._column_from_seed`` fills the other half
of the column from the eigenvalue relation.  The tables must equal the
oracle's, values and key order.  Every column's seed descent now satisfies
the eigenvalue property by construction, so ``recurrence_check("pi")`` no
longer checks that descent on its own: this comparison does.
``pi_prime`` and ``iota`` keep the full peel.
"""

import pytest

from peel_oracle import full_peel_entries

from ivhecke.coxeter import parse_system
from ivhecke.ivmodules import REGULAR_STRUCTURES, TwistedModule
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
