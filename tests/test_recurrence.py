"""The recurrences of the canonical bases: the one that builds them, and the paper's.

``TwistedModule.canonical_table()`` reduces the psi-invariant seed
(H_s + v^-k) C_i at a descent of each element; the oracle is
the psi-row solve (``tests/row_solve_oracle.py``), which shares no step
with it but the final table.  Both tie orders of the oracle must give the same table.

``recurrence_check`` tests the paper's generator recurrences on a table
with one expansion loop over the mu-graph, in packed integers;
tests/recurrence_oracle.py keeps the three per-label loops over Bruhat
intervals it replaced, in Laurent arithmetic.  Both must return the same
failure records on clean tables and on tables corrupted at two entries,
one corruption with a coefficient too wide for 64-bit digits among them,
and every corrupted table must fail.
"""

import dataclasses
import hashlib

import pytest

import recurrence_oracle
from row_solve_oracle import solve_canonical

from ivhecke import hecke
from ivhecke.classify import DEFAULT_SYSTEMS, battery, enumerate_candidates, precanonical_test
from ivhecke.coxeter import parse_system
from ivhecke.hecke import HeckeAlgebra, NotPreCanonical
from ivhecke.ivmodules import NAMED_STRUCTURES, REGULAR_STRUCTURES, TwistedModule, recurrence_check
from ivhecke.laurent import ONE, V, VI, monomial
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


LABELS = ("pi", "pi_prime", "iota")


def corrupt_tables(monkeypatch, exponent: int, coefficient: int = 1) -> None:
    """Make every module table gain coefficient * v^exponent at its first two off-diagonal keys, by column, then row.

    The corrupted table is a function of the module's own table, built once
    per module, so both checks read the same one.  A coefficient of 2^70
    needs packed digits wider than 64 bits.
    """
    original = TwistedModule.canonical_table
    corrupted = {}

    def canonical_table(module):
        if module not in corrupted:
            table = original(module)
            columns = {j: dict(column) for j, column in table.columns.items()}
            for i, j in [(i, j) for j, column in columns.items() for i in sorted(column) if i != j][:2]:
                columns[j][i] += monomial(exponent, coefficient)
            corrupted[module] = dataclasses.replace(table, columns=columns)
        return corrupted[module]

    monkeypatch.setattr(TwistedModule, "canonical_table", canonical_table)


@pytest.mark.parametrize(
    "exponent,coefficient",
    [(None, 1), (-1, 1), (-2, 1), (-3, 1), (-1, 2**70)],
    ids=["None", "-1", "-2", "-3", "-1*2^70"],
)
@pytest.mark.parametrize("name", ["A2", "B2", "I2(5)", "I2(6)", "A3", "B3", "H3", "D4"])
def test_recurrence_check_matches_the_interval_oracle(name, exponent, coefficient, monkeypatch):
    if exponent is not None:
        corrupt_tables(monkeypatch, exponent, coefficient)
    system = parse_system(name)
    for theta in involutive_automorphisms(system):
        for label in LABELS:
            failures = recurrence_check(label, system, theta)
            where = (name, theta, label)
            assert failures == recurrence_oracle.recurrence_check(label, system, theta), where
            assert bool(failures) == (exponent is not None), where


@pytest.mark.parametrize("name,theta", [("B4", (0, 1, 2, 3)), ("A5", (0, 1, 2, 3, 4)), ("A5", (4, 3, 2, 1, 0))])
def test_recurrences_hold_on_the_benchmark_blocks(name, theta):
    system = parse_system(name)
    for label in LABELS:
        assert recurrence_check(label, system, theta) == [], (name, theta, label)
        assert recurrence_oracle.recurrence_check(label, system, theta) == [], (name, theta, label)
