"""Every derived bar row and every seed stays in its Bruhat interval.

``TwistedModule.check_precanonical`` does not test that psi is
unitriangular, and ``hecke._column_from_seed`` does not test where its seed
lies: row j of psi and the seed (H_s + v^-k) C_i at a descent j = s |*| i
are built by op_s from a vector in lower(i), so they lie in
lower(i) u s |*| lower(i), which is lower(j) by property Z (``Block``).
These tests pin that guarantee on real blocks: property Z at every descent,
every row psi(m_j) and every seed inside lower(j), and each seed's
coefficient at j equal to the a1 it is returned with.  A seed returned with
links (``h`` and ``pi``) has entries only where links[x] is None.  For
``pi`` it must lie in the descent half {x : s |*| x < x} of lower(j), for
the descent s of j whose ascent half the links describe.  On the regular
module the links are per column (``TwistedModule._two_sided_links``):
each lies in lower(j), and its source is s' x for a left descent s' of j
or x t for a right descent t of j, both read off the words, and lies in
lower(j) above x.  A column j with mirror[j] < j is copied, not seeded
(``TwistedModule._mirror``); it must lie in lower(j) too.
"""

import pytest

from ivhecke.classify import DEFAULT_SYSTEMS, battery, enumerate_candidates, screen_candidates
from ivhecke.coxeter import parse_system
from ivhecke.ivmodules import NAMED_STRUCTURES, REGULAR_STRUCTURES, TwistedModule
from ivhecke.twisted import GroupBlock, TwistedBlock, involutive_automorphisms

slow = pytest.mark.slow  # deselected by default; `pytest -m slow` runs them


def assert_property_z(block) -> None:
    """lower(j) = lower(i) u s |*| lower(i) at every descent j = s |*| i, not only the first."""
    for j in range(len(block)):
        want = set(block.lower_indices(j))
        for s, row in enumerate(block.cross):
            i, _, up = row[j]
            if not up:
                lower = block.lower_indices(i)
                assert want == set(lower) | {row[x][0] for x in lower}, (block, j, s)


def assert_two_sided_links(module: TwistedModule, j: int, links) -> None:
    """Each link of column j of the regular module comes from a left or right descent of j."""
    block, system = module.block, module.block.system
    elements, index = block.elements, block.index
    w = elements[j]
    rank = range(system.rank)
    left = [s for s in rank if len(system.left_mult(s, w)) < len(w)]
    right = [t for t in rank if len(system.right_mult(w, t)) < len(w)]
    lower = set(block.lower_indices(j))
    for x, link in enumerate(links):
        if link is None:
            continue
        source, c, e = link
        u = elements[x]
        sources = {index[system.left_mult(s, u)] for s in left} | {index[system.right_mult(u, t)] for t in right}
        assert x in lower and source in sources, (block, j, x, "link source")
        assert source in lower and len(elements[source]) > len(u), (block, j, x, "link above")
        assert (c, e) == module._fill_units[False], (block, j, x, "link unit")


def assert_rows_and_seeds_in_intervals(module: TwistedModule) -> None:
    """Every psi(m_j), and every seed the canonical solve reduces, lies in lower(j)."""
    block = module.block
    where = (block, module.label)
    seeds = []

    def recording_seed(j, columns):
        vec, a1, links = TwistedModule._seed(module, j, columns)
        seeds.append(j)
        support = set(block.lower_indices(j))
        if links is not None:
            assert all(links[x] is None for x in vec), where + (j, "seed at a link")
            if module._mirror is not None:
                assert_two_sided_links(module, j, links)
            else:
                # a half seed: links is a descent s of j's ascent half, and vec lies on the other half
                targets = [link and link[0] for link in links]
                descents = [
                    s for s, row in enumerate(block.cross)
                    if not row[j][2] and [t if up else None for t, _, up in row] == targets
                ]
                assert descents, where + (j, "links")
                support = {x for x in support if not block.cross[descents[0]][x][2]}
        assert set(vec) <= support, where + (j, "seed")
        assert vec[j] == a1, where + (j, "seed top")
        return vec, a1, links

    module._seed = recording_seed
    table = module.canonical_table()
    mirror = module._mirror
    assert seeds == [j for j in range(len(block)) if mirror is None or mirror[j] >= j], where
    for j in range(len(block)):
        assert set(module.bar_row(j)) <= set(block.lower_indices(j)), where + (j, "row")
        assert set(table.columns[j]) <= set(block.lower_indices(j)), where + (j, "column")


def check_twisted_blocks(name: str) -> None:
    system = parse_system(name)
    for theta in involutive_automorphisms(system):
        block = TwistedBlock(system, theta)
        assert_property_z(block)
        for label in NAMED_STRUCTURES:
            assert_rows_and_seeds_in_intervals(TwistedModule(block, label))


@pytest.mark.parametrize("name", ["A3", "B3", "H3", "D4", "I2(5)"])
def test_named_structures_stay_in_their_intervals(name):
    check_twisted_blocks(name)


@pytest.mark.parametrize("name", [pytest.param(name, marks=slow) for name in ("D5", "E6", "H4")])
def test_top_of_the_ladder_stays_in_its_intervals(name):
    check_twisted_blocks(name)


@pytest.mark.parametrize("name", ["A3", "B3", "H3"])
def test_regular_module_stays_in_its_intervals(name):
    block = GroupBlock(parse_system(name))
    assert_property_z(block)
    for squared in (False, True):
        assert_rows_and_seeds_in_intervals(TwistedModule(block, "h", REGULAR_STRUCTURES[squared]))


@pytest.mark.parametrize("mode,count", [("hw", 2), ("hi", 4), ("h2i", 8)])
def test_surviving_sign_classes_stay_in_their_intervals(mode, count):
    all_blocks = battery(DEFAULT_SYSTEMS, mode)
    _records, survivors = screen_candidates(enumerate_candidates("classified_families", mode), all_blocks)
    classes = list(dict.fromkeys(survivor.sign_class for survivor in survivors.values()))
    assert len(classes) == count
    for _name, block in all_blocks:
        for gamma in classes:
            assert_rows_and_seeds_in_intervals(TwistedModule(block, "survivor", gamma))
