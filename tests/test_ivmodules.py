"""Block-module tests.

Frozen single-generator values come first (independently hand-checkable),
then structural oracles: the module's bar involution, derived from the
structure by the descent recursion, must equal the letterwise recipe
(tests/bar_recipe_oracle.py); every canonical column must be fixed by it
(a code path disjoint from the solver), unitriangular with diagonal 1, and
have off-diagonal entries in v^-1 Z[v^-1].  Those properties characterize
the table uniquely, so they are a complete correctness oracle.
"""

import pytest

from ivhecke.coxeter import parse_system
from ivhecke.hecke import HeckeAlgebra
from ivhecke.ivmodules import (
    IOTA_MATRIX,
    PI_MATRIX,
    PI_PRIME_MATRIX,
    MuData,
    StructureMatrix,
    TwistedModule,
    act_gen,
    act_word,
    canonical_table,
    embedding_check,
    invariant_suite,
    inversion_check,
    longest_twist,
    mu_data,
    recurrence_check,
    vec_add,
    vec_scale,
)
from ivhecke.laurent import (
    ONE,
    U,
    U2,
    V,
    VI,
    ZERO,
    LaurentPoly,
    monomial,
    only_negative_exponents,
)
from ivhecke.twisted import TwistedBlock, involutive_automorphisms

from bar_recipe_oracle import recipe_bar_row


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
        with pytest.raises(ValueError):
            StructureMatrix(False, ((ONE, ZERO),))


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
            assert t.entry_by_words((), (0,)) == VI, label
            assert t.entry_by_words((), ()) == ONE
            assert t.entry_by_words((0,), (0,)) == ONE

    @pytest.mark.parametrize("name,theta", [("A2", "id"), ("A2", "flip"), ("B2", "id")])
    @pytest.mark.parametrize("label", ["pi", "pi_prime", "iota"])
    def test_columns_bar_invariant(self, name, theta, label):
        W = parse_system(name)
        t = (1, 0) if theta == "flip" else W.identity_perm()
        blk = TwistedBlock(W, t)
        mod = TwistedModule(blk, label)
        table = mod.canonical_table()
        for j in range(len(blk)):
            col = table.column(j)
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

    @pytest.mark.parametrize("name", ["A1", "A2", "B2", "I2(5)"])
    @pytest.mark.parametrize("label", ["pi", "pi_prime", "iota"])
    def test_small_systems(self, name, label):
        assert inversion_check(label, parse_system(name)) == []


class TestEmbedding:
    def test_a1_factor(self):
        assert embedding_check(parse_system("A1")) == []

    def test_a2_factor(self):
        assert embedding_check(parse_system("A2")) == []
