"""Block-module tests.

Frozen single-generator values come first (independently hand-checkable),
then structural oracles: the module's bar involution, derived from the
structure by the descent recursion, must equal the letterwise recipe
(tests/bar_recipe_oracle.py); every canonical column must be fixed by it
(a code path disjoint from the solver), unitriangular with diagonal 1, and
have off-diagonal entries in v^-1 Z[v^-1].  Those properties characterize
the table uniquely, so they are a complete correctness oracle.
"""

import dataclasses
import json
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from ivhecke import cli
from ivhecke.classify import enumerate_candidates
from ivhecke.coxeter import parse_system
from ivhecke.ivmodules import (
    IOTA_MATRIX,
    PI_MATRIX,
    PI_PRIME_MATRIX,
    REGULAR_STRUCTURES,
    StructureMatrix,
    TwistedModule,
    act_gen,
    act_word,
    canonical_table,
    invariant_suite,
    inversion_check,
    longest_twist,
    recurrence_check,
    vec_add,
    vec_axpy,
    vec_scale,
)
from ivhecke.laurent import (
    ONE,
    U,
    V,
    VI,
    ZERO,
    LaurentPoly,
    monomial,
)
from ivhecke.twisted import GroupBlock, TwistedBlock, compose_perms, involutive_automorphisms

import invariant_oracle
from bar_recipe_oracle import recipe_bar_row
from embedding_oracle import embedding_check
from hecke_oracle import entry_by_words
from laurent_oracle import only_negative_exponents
from output_oracle import report_output
from recurrence_oracle import mu_data


@pytest.fixture(scope="module")
def a1_block():
    return TwistedBlock(parse_system("A1"), (0,))


@pytest.fixture(scope="module")
def a2_block():
    return TwistedBlock(parse_system("A2"), (0, 1))


def lp(terms):
    return LaurentPoly.from_terms(terms)


# ----------------------------------------------------------------------

class TestActGen:
    def test_pi_action_on_a1(self, a1_block):
        # K_s . L_1 = (v + v^-1) L_s + L_1
        out = act_gen(PI_MATRIX, a1_block, 0, {0: ONE})
        assert out == {1: V + VI, 0: ONE}
        # K_s . L_s = (v - v^-1) L_1 + (v^2 - 1 - v^-2) L_s
        out = act_gen(PI_MATRIX, a1_block, 0, {1: ONE})
        assert out == {0: V - VI, 1: lp({2: 1, 0: -1, -2: -1})}

    def test_iota_action_on_a1(self, a1_block):
        # H_s . I_s = (v - v^-1) I_1 + (v - 1 - v^-1) I_s
        out = act_gen(IOTA_MATRIX, a1_block, 0, {1: ONE})
        assert out == {0: U, 1: lp({1: 1, 0: -1, -1: -1})}
        # H_s . I_1 = I_s + I_1   (commuting rank-up row of the iota structure)
        out = act_gen(IOTA_MATRIX, a1_block, 0, {0: ONE})
        assert out == {1: ONE, 0: ONE}

    def test_noncommuting_rows(self, a2_block):
        # 0 |*| t is the noncommuting ascent t -> sts
        i_t = a2_block.index[(1,)]
        i_sts = a2_block.index[(0, 1, 0)]
        assert act_gen(IOTA_MATRIX, a2_block, 0, {i_t: ONE}) == {i_sts: ONE}
        assert act_gen(IOTA_MATRIX, a2_block, 0, {i_sts: ONE}) == {i_t: ONE, i_sts: U}

    def test_linearity(self, a2_block):
        v1 = {0: V, 1: ONE}
        v2 = {1: VI, 2: U}
        s = 0
        lhs = act_gen(PI_MATRIX, a2_block, s, vec_add(v1, v2))
        rhs = vec_add(
            act_gen(PI_MATRIX, a2_block, s, v1), act_gen(PI_MATRIX, a2_block, s, v2)
        )
        assert lhs == rhs


# act_gen(..., shift) in one pass against act_gen then vec_axpy, for every named
# structure and every sign class the classification checks, each on real blocks
SIGN_CLASSES = list(dict.fromkeys(
    candidate.gamma.sign_normal_form()[0]
    for mode in ("hw", "hi", "h2i")
    for candidate in enumerate_candidates("classified_families", mode)
))
SHIFT_STRUCTURES = [PI_MATRIX, PI_PRIME_MATRIX, IOTA_MATRIX, *REGULAR_STRUCTURES.values(), *SIGN_CLASSES]
SHIFT_BLOCKS = [GroupBlock(parse_system(name)) for name in ("A3", "I2(5)")] + [
    TwistedBlock(parse_system(name), theta) for name, theta in (("B3", (0, 1, 2)), ("A3", (2, 1, 0)))
]
small_polys = st.builds(
    LaurentPoly, st.integers(-4, 4), st.lists(st.integers(-3, 3), max_size=4)
)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(SHIFT_STRUCTURES),
    st.integers(0, 3),
    st.integers(0, 2),
    st.dictionaries(st.integers(0, 5), small_polys.filter(bool), max_size=6),
    st.one_of(st.sampled_from([ZERO, VI, monomial(-2), -(V - VI)]), small_polys),
)
def test_act_gen_shift_is_act_then_axpy(gamma, which, s, vec, shift):
    block = SHIFT_BLOCKS[which]
    s %= block.system.rank
    vec = {i * len(block) // 6: p for i, p in vec.items()}
    want = act_gen(gamma, block, s, vec)
    vec_axpy(want, shift, vec)
    got = act_gen(gamma, block, s, vec, shift)
    assert got == want
    assert all(got.values())


class TestMatrixAlgebra:
    def test_quadratic_relation_on_blocks(self, a2_block):
        # op_s^2 = 1 + (v^k - v^-k) op_s  for every named structure
        for gamma in (PI_MATRIX, PI_PRIME_MATRIX, IOTA_MATRIX):
            u = gamma.parameter_diff
            for s in range(2):
                for i in range(len(a2_block)):
                    e = {i: ONE}
                    once = act_gen(gamma, a2_block, s, e)
                    twice = act_gen(gamma, a2_block, s, once)
                    assert twice == vec_add(e, vec_scale(once, u)), (gamma, s, i)

    def test_braid_relation_on_blocks(self):
        for name in ("A2", "B2"):
            W = parse_system(name)
            blk = TwistedBlock(W, W.identity_perm())
            m = W.bond(0, 1)
            for gamma in (PI_MATRIX, PI_PRIME_MATRIX, IOTA_MATRIX):
                for i in range(len(blk)):
                    e = {i: ONE}
                    left = act_word(gamma, blk, tuple([0, 1] * m)[:m], e)
                    right = act_word(gamma, blk, tuple([1, 0] * m)[:m], e)
                    assert left == right, (name, gamma, i)

    def test_theta_twist_involutive(self):
        for gamma in (PI_MATRIX, PI_PRIME_MATRIX, IOTA_MATRIX):
            assert gamma.theta_twisted().theta_twisted() == gamma

    def test_scaled_composition(self):
        g = IOTA_MATRIX.scaled(V, -ONE)
        assert g.scaled(VI, -ONE) == IOTA_MATRIX
        assert IOTA_MATRIX.scaled(ONE, ONE) == IOTA_MATRIX

    def test_scaled_changes_first_column_only(self):
        g = PI_MATRIX.scaled(-ONE, V)
        for row_old, row_new in zip(PI_MATRIX.rows, g.rows):
            assert row_old[1] == row_new[1]

    def test_row_count_validation(self):
        for rows in (((ONE, ZERO),), ((ONE, ZERO), (ONE, U)), ((ONE, ZERO), (ONE, U)) * 3):
            with pytest.raises(ValueError):
                StructureMatrix(False, rows)


class TestBarRecipes:
    def test_bar_of_iota_generator(self, a1_block):
        # bar(I_s) = I_s - (v - v^-1) I_1
        assert TwistedModule(a1_block, "iota").bar_row(1) == {1: ONE, 0: -U}
        assert recipe_bar_row("iota", a1_block, 1) == {1: ONE, 0: -U}

    def test_bar_of_pi_generator(self, a1_block):
        assert TwistedModule(a1_block, "pi").bar_row(1) == {1: ONE, 0: VI - V}
        assert recipe_bar_row("pi", a1_block, 1) == {1: ONE, 0: VI - V}

    def test_bar_of_pi_prime_generator(self, a1_block):
        assert TwistedModule(a1_block, "pi_prime").bar_row(1) == {1: ONE, 0: VI - V}
        assert recipe_bar_row("pi_prime", a1_block, 1) == {1: ONE, 0: VI - V}

    @pytest.mark.parametrize("name", ["A3", "B3", "H3", "D4", "I2(5)", "I2(8)"])
    def test_derived_bar_matches_recipe(self, name):
        W = parse_system(name)
        for theta in involutive_automorphisms(W):
            blk = TwistedBlock(W, theta)
            for label in ("pi", "pi_prime", "iota"):
                mod = TwistedModule(blk, label)
                for i in range(len(blk)):
                    assert mod.bar_row(i) == recipe_bar_row(label, blk, i), (theta, label, i)

    def test_bar_is_involution(self, a2_block):
        for label in ("pi", "pi_prime", "iota"):
            mod = TwistedModule(a2_block, label)
            for i in range(len(a2_block)):
                assert mod.bar(mod.bar_row(i)) == {i: ONE}, (label, i)

    def test_bar_antilinear(self, a2_block):
        mod = TwistedModule(a2_block, "iota")
        vec = {0: V + 1, 2: monomial(-2, 3)}
        lhs = mod.bar(vec_scale(vec, V))
        rhs = vec_scale(mod.bar(vec), VI)
        assert lhs == rhs


class TestCanonicalTables:
    def test_a1_frozen_values(self, a1_block):
        for label in ("pi", "pi_prime", "iota"):
            t = TwistedModule(a1_block, label).canonical_table()
            assert entry_by_words(t, (), (0,)) == VI, label
            assert entry_by_words(t, (), ()) == ONE
            assert entry_by_words(t, (0,), (0,)) == ONE

    @pytest.mark.parametrize("name,theta", [("A2", "id"), ("A2", "flip"), ("B2", "id")])
    @pytest.mark.parametrize("label", ["pi", "pi_prime", "iota"])
    def test_columns_bar_invariant(self, name, theta, label):
        W = parse_system(name)
        t = (1, 0) if theta == "flip" else W.identity_perm()
        blk = TwistedBlock(W, t)
        mod = TwistedModule(blk, label)
        table = mod.canonical_table()
        for j in range(len(blk)):
            col = table.columns[j]
            assert mod.bar(col) == col, (label, blk.elements[j])
            assert col[j] == ONE
            for i, c in col.items():
                if i != j:
                    assert only_negative_exponents(c)
                    assert W.bruhat_leq(blk.elements[i], blk.elements[j])

    def test_convenience_function_matches(self, a2_block):
        W = a2_block.system
        t1 = canonical_table(W, (0, 1), "iota")
        t2 = TwistedModule(a2_block, "iota").canonical_table()
        assert t1.entries == t2.entries
        th = canonical_table(W, (0, 1), "h")
        assert th.label == "h"

    def test_deterministic(self):
        W = parse_system("B2")
        a = canonical_table(W, (0, 1), "pi").to_json()
        b = canonical_table(parse_system("B2"), (0, 1), "pi").to_json()
        assert a == b


class TestMuData:
    def test_a1(self, a1_block):
        t = TwistedModule(a1_block, "pi").canonical_table()
        md = mu_data(t)
        assert md.mu_of(0, 1) == 1
        assert md.mu_of(0, 0) == 0
        assert md.mu2 is None

    def test_pi_prime_mu2(self, a1_block):
        t = TwistedModule(a1_block, "pi_prime").canonical_table()
        md = mu_data(t)
        # entry v^-1: mu = 1, mu2 = 0 + (v + v^-1) * 1
        assert md.mu_of(0, 1) == 1
        assert md.mu2_of(0, 1) == V + VI


class TestRecurrences:
    @pytest.mark.parametrize("name,theta", [("A2", (0, 1)), ("A2", (1, 0)), ("B2", (0, 1))])
    @pytest.mark.parametrize("which", ["pi", "pi_prime", "iota"])
    def test_small_systems(self, name, theta, which):
        W = parse_system(name)
        assert recurrence_check(which, W, theta) == []

    def test_a3_iota(self):
        W = parse_system("A3")
        assert recurrence_check("iota", W, (0, 1, 2)) == []
        assert recurrence_check("iota", W, (2, 1, 0)) == []


class TestInvariantSuite:
    @pytest.mark.parametrize(
        "name,theta", [("A1", (0,)), ("A2", (0, 1)), ("A2", (1, 0)), ("B2", (0, 1)), ("I2(5)", (0, 1))]
    )
    def test_small_blocks_pass(self, name, theta):
        W = parse_system(name)
        report = invariant_suite(W, theta)
        bad = {k: v for k, v in report["checks"].items() if v}
        assert report["ok"], bad

    def test_dihedral_observations_present(self):
        report = invariant_suite(parse_system("I2(4)"), (0, 1))
        vals = report["observations"]["dihedral_values"]
        assert set(vals["h"]) <= {"0", "1"}
        assert set(vals["pi"]) <= {"0", "1"}
        assert set(vals["iota"]) <= {"0", "1", "1 + v", "1 - v", "1 - v^2"}


class TestInversion:
    def test_longest_twist(self):
        assert longest_twist(parse_system("A2")) == (1, 0)
        assert longest_twist(parse_system("B2")) == (0, 1)
        assert longest_twist(parse_system("A3")) == (2, 1, 0)

    @pytest.mark.parametrize(
        "name",
        ["A1", "A3", "A5", "B3", "D4", "D5", "H3", "F4", "I2(5)", "I2(6)"]
        + [pytest.param("E6", marks=pytest.mark.slow)],  # longest_twist enumerates W(E6): about 1 s
    )
    def test_translated_twist_is_involutive(self, name):
        # inversion_check reads the theta * theta0 block without looking for it
        system = parse_system(name)
        theta0 = longest_twist(system)
        thetas = involutive_automorphisms(system)
        for theta in thetas:
            assert compose_perms(theta, theta0) in thetas, (name, theta)

    @pytest.mark.parametrize("name", ["A1", "A2", "B2", "I2(5)"])
    @pytest.mark.parametrize("label", ["pi", "pi_prime", "iota"])
    def test_small_systems(self, name, label):
        assert small_inversion_failures(name)[label] == []


@cache
def small_inversion_failures(name: str) -> dict[str, list[dict]]:
    """inversion_check checks every family at once: one call serves three cases."""
    return inversion_check(parse_system(name))


# ----------------------------------------------------------------------
# the one-pass suite and the sparse inversion check against the loops they
# replaced (tests/invariant_oracle.py), on clean and on corrupted tables

CORRUPTION = (monomial(-1), V, monomial(-3))  # added at the 2nd-4th off-diagonal keys
ORACLE_SYSTEMS = ["A2", "B2", "I2(5)", "A3", "B3", "H3", "D4"]


def assert_same_json(actual, expected, where="") -> None:
    """json.dumps(actual) == json.dumps(expected), asserted one record at a time.

    Dicts must dump the same keys in the same order and lists must have the
    same length; then the first value, or list element, whose dump differs
    fails.  That is as strict as comparing the whole dumps, but a failure on
    a corrupted table with thousands of records reports one small record
    instead of making pytest diff two multi-megabyte strings.
    """
    if isinstance(actual, dict) and isinstance(expected, dict):
        assert json.dumps(dict.fromkeys(actual)) == json.dumps(dict.fromkeys(expected)), where
        for key in expected:
            assert_same_json(actual[key], expected[key], f"{where}/{key}")
    elif isinstance(actual, list) and isinstance(expected, list):
        assert len(actual) == len(expected), where
        for n, (a, b) in enumerate(zip(actual, expected)):
            assert json.dumps(a) == json.dumps(b), f"{where}[{n}]"
    else:
        assert json.dumps(actual) == json.dumps(expected), where


def corrupt_tables(monkeypatch, how: str) -> None:
    """Corrupt every module table, ``h`` included.

    "entries" adds CORRUPTION at the 2nd-4th off-diagonal keys, by
    column, then row; "diagonal" sets the lowest element's diagonal
    entry to zero; "wide" sets every diagonal entry to 2^70, so the
    inversion sum at (x, x) is 2^140, too wide for 64-bit packed digits
    and within a factor 2 of its coefficient bound.  The corrupted table
    is a fresh copy, built once per module.
    """
    original = TwistedModule.canonical_table
    corrupted = {}

    def canonical_table(module):
        if module not in corrupted:
            table = original(module)
            columns = {j: dict(column) for j, column in table.columns.items()}
            if how == "diagonal":
                columns[0][0] = ZERO
            elif how == "wide":
                for j, column in columns.items():
                    column[j] = monomial(0, 2**70)
            else:
                keys = [(i, j) for j, column in columns.items() for i in sorted(column) if i != j][1:4]
                for (i, j), p in zip(keys, CORRUPTION):
                    columns[j][i] += p
            corrupted[module] = dataclasses.replace(table, columns=columns)
        return corrupted[module]

    monkeypatch.setattr(TwistedModule, "canonical_table", canonical_table)


@pytest.mark.parametrize("corrupt", [False, True])
@pytest.mark.parametrize("name", ORACLE_SYSTEMS)
def test_invariant_suite_matches_the_oracle(name, corrupt, monkeypatch):
    if corrupt:
        corrupt_tables(monkeypatch, "entries")
    system = parse_system(name)
    for theta in involutive_automorphisms(system):
        report = invariant_suite(system, theta)
        expected = invariant_oracle.invariant_suite(system, theta)
        # unsorted JSON: the text format prints the keys in insertion order
        assert_same_json(report, expected, str(theta))
        assert report["ok"] != corrupt, theta


#: one column of each module table corrupted so that exactly one part of the
#: definition fails: (how, the part that fails)
COLUMN_CORRUPTIONS = (
    ("in_lattice", "psi"),  # + v^-1 at (lowest, top): psi(v^-1 m_0) = v m_0
    ("constant", "lattice"),  # + 1 at (lowest, top): psi(m_0) = m_0, so psi(C_top) is unchanged
    ("diagonal", "diagonal"),  # C_0 = 2 m_0, psi-invariant with nothing off the diagonal
)


def corrupt_one_column(monkeypatch, how: str) -> None:
    """Corrupt one column of each of the ``pi``, ``pi_prime`` and ``iota`` tables (``COLUMN_CORRUPTIONS``)."""
    original = TwistedModule.canonical_table
    corrupted = {}

    def canonical_table(module):
        table = original(module)
        if module.label == "h":
            return table
        if module not in corrupted:
            columns = {j: dict(column) for j, column in table.columns.items()}
            top = columns[len(table.elements) - 1]
            if how == "diagonal":
                columns[0][0] = 2 * ONE
            else:
                top[0] = top.get(0, ZERO) + (VI if how == "in_lattice" else ONE)
            corrupted[module] = dataclasses.replace(table, columns=columns)
        return corrupted[module]

    monkeypatch.setattr(TwistedModule, "canonical_table", canonical_table)


def failing_parts(module: TwistedModule, column: dict, j: int) -> set[str]:
    """The parts of the definition column j breaks: C_j[j] = 1, the rest in v^-1 Z[v^-1], psi(C_j) = C_j."""
    parts = set()
    if column.get(j) != ONE:
        parts.add("diagonal")
    if not all(only_negative_exponents(p) for i, p in column.items() if i != j):
        parts.add("lattice")
    if module.bar(column) != column:
        parts.add("psi")
    return parts


@pytest.mark.parametrize("how,part", COLUMN_CORRUPTIONS)
@pytest.mark.parametrize("name,theta", [("A3", (2, 1, 0)), ("B3", None), ("H3", None)])
def test_each_part_of_the_column_check_fails_on_its_own(name, theta, how, part, monkeypatch):
    system = parse_system(name)
    theta = system.identity_perm() if theta is None else theta
    corrupt_one_column(monkeypatch, how)
    block = TwistedBlock(system, theta)
    labels = ("pi", "pi_prime", "iota")
    for label in labels:
        module = TwistedModule(block, label)
        columns = module.canonical_table().columns
        broken = {j: parts for j in range(len(block)) if (parts := failing_parts(module, columns[j], j))}
        assert broken == {0 if how == "diagonal" else len(block) - 1: {part}}, label
    report = invariant_suite(system, theta)
    assert report["checks"]["order_independence"] == [{"check": "order_independence", "label": label} for label in labels]
    assert_same_json(report, invariant_oracle.invariant_suite(system, theta))


@pytest.mark.slow
def test_verify_f4_is_the_oracle_report(capsys):
    # the direct column check where it does the most work: about 10 s, most of it the oracle
    assert cli.main(["verify", "--system", "F4", "--format", "json"]) == 0
    system = parse_system("F4")
    expected = report_output(invariant_oracle.invariant_suite(system, system.identity_perm()), "json")
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize(
    "name,corrupt",
    [(name, corrupt) for corrupt in (None, "entries", "diagonal", "wide") for name in ORACLE_SYSTEMS]
    + [pytest.param("F4", None, marks=pytest.mark.slow)],  # the oracle alone: 6-8 s on F4
)
def test_inversion_check_matches_the_oracle(name, corrupt, monkeypatch):
    if corrupt:
        corrupt_tables(monkeypatch, corrupt)
    system = parse_system(name)
    report = inversion_check(system)
    assert list(report) == ["pi", "pi_prime", "iota"]
    for label, failures in report.items():
        expected = invariant_oracle.inversion_check(label, system)
        assert_same_json(failures, expected, label)
        assert bool(failures) == bool(corrupt), label


class TestEmbedding:
    def test_a1_factor(self):
        assert embedding_check(parse_system("A1")) == []

    def test_a2_factor(self):
        assert embedding_check(parse_system("A2")) == []
