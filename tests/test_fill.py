"""The eigenvalue fill against the full seed-and-peel solve (tests/peel_oracle.py).

For ``h`` (parameter v or v^2) on the group block and ``pi`` on every
twisted block, ``TwistedModule._seed`` builds each seed on the descent half
of its interval only, and ``hecke._column_from_seed`` fills the other half
of the column from the eigenvalue relation.  The tables must equal the
oracle's, values and key order.  Every column's seed descent now satisfies
the eigenvalue property by construction, so ``recurrence_check("pi")`` no
longer checks that descent on its own: this comparison does.
``pi_prime`` and ``iota`` keep the full peel, which the oracle pins too.

On the regular module, the columns and psi rows at w with w^-1 < w are
copied from w^-1 (``TwistedModule._mirror``); the ``h`` comparisons cover
those columns, and the tests below the rows, the permutation and the
structures that get no mirror.  Its other columns are filled on both
sides (``TwistedModule._two_sided_links``): the seed is read only at
two-sided extremal x and at the x that can carry a nonzero peel
coefficient p_x, and the lemma test checks that every nonzero p_x of the
full peel lies there.  Its other psi rows come from one descent each.
"""

import pytest

from peel_oracle import column_index, full_peel_entries

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
@pytest.mark.parametrize("name", SYSTEMS + [pytest.param(name, marks=slow) for name in ("B4", "F4")])
def test_h_fill_matches_full_peel(name, squared):
    assert_matches_full_peel(regular_module(name, squared))


@pytest.mark.parametrize("squared", [False, True])
@pytest.mark.parametrize("name", SYSTEMS)
def test_nonzero_peels_lie_where_the_seed_is_read(name, squared):
    module = regular_module(name, squared)
    block = module.block
    peels = {}
    entries = full_peel_entries(module, peels)
    columns = column_index(entries)
    nonzero = 0
    for j in range(1, len(block)):
        _vec, _a1, links = module._seed(j, columns)
        read = {x for x in block.lower_indices(j) if links[x] is None}
        assert set(peels.get(j, ())) <= read, (name, j)
        nonzero += len(peels.get(j, ()))
    assert nonzero > 0


@pytest.mark.parametrize("squared", [False, True])
@pytest.mark.parametrize("name", SYSTEMS + [pytest.param("F4", marks=slow)])
def test_mirrored_bar_rows_are_the_derived_rows(name, squared):
    """Each row of the regular module, copied or derived from one descent,
    equals the row derived from every descent, which checks they agree."""
    module = regular_module(name, squared)
    mirror = module._mirror
    derived = {0: module.bar_row(0)}
    mirrored = several = 0
    for j in range(1, len(module.block)):
        derived[j] = bar_row_vector(module.gamma, module.block, j, derived)
        assert module.bar_row(j) == derived[j], (name, j)
        mirrored += mirror[j] < j
        several += mirror[j] >= j and bin(module.block.left_descents[j]).count("1") > 1
    assert mirrored > 0 and several > 0


@pytest.mark.parametrize("name", SYSTEMS + ["F4"])
def test_group_inverse_is_the_word_inverse(name):
    system = parse_system(name)
    block = GroupBlock(system)
    inverse = block.inverse
    assert all(inverse[inverse[i]] == i for i in range(len(block)))
    assert [block.elements[k] for k in inverse] == [system.inverse(w) for w in block.elements]


@pytest.mark.parametrize("name", SYSTEMS + ["B4"])
def test_group_descents_and_right_cross_are_the_word_ones(name):
    system = parse_system(name)
    block = GroupBlock(system)
    rank = range(system.rank)
    for i, w in enumerate(block.elements):
        left = sum(1 << s for s in rank if len(system.left_mult(s, w)) < len(w))
        right = sum(1 << t for t in rank if len(system.right_mult(w, t)) < len(w))
        assert (block.left_descents[i], block.right_descents[i]) == (left, right), (name, w)
        assert [block.elements[row[i]] for row in block.right_cross] == [system.right_mult(w, t) for t in rank]


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


@pytest.mark.parametrize("label", ["pi_prime", "iota"])
@pytest.mark.parametrize("name", SYSTEMS)
def test_peeled_tables_match_full_peel(name, label):
    system = parse_system(name)
    for theta in involutive_automorphisms(system):
        module = TwistedModule(TwistedBlock(system, theta), label)
        assert module._fill_units is None
        assert list(module.canonical_table().entries.items()) == list(full_peel_entries(module).items()), theta


def test_fill_units_read_off_the_structures():
    block = TwistedBlock(parse_system("B3"), (0, 1, 2))
    # C[x] = c v^e C[s |*| x] on the ascent half, per commutes case
    assert regular_module("A3", False)._fill_units == {False: (1, -1), True: (1, -1)}
    assert regular_module("A3", True)._fill_units == {False: (1, -2), True: (1, -2)}
    assert TwistedModule(block, "pi")._fill_units == {False: (1, -2), True: (1, -1)}


@slow
def test_h4_pi_fill_matches_full_peel():
    system = parse_system("H4")
    assert_matches_full_peel(TwistedModule(TwistedBlock(system, system.identity_perm()), "pi"))


@slow
def test_e6_pi_fill_matches_full_peel():
    system = parse_system("E6")
    assert_matches_full_peel(TwistedModule(TwistedBlock(system, system.identity_perm()), "pi"))
