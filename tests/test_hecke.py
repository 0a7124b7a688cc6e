"""Hecke algebra and solver tests.

The canonical-table oracle is brute-force bar-invariance: for each computed
column b_w = sum h_{x,w} H_x we recompute bar(b_w) directly from the
incremental bar expansion and demand bar(b_w) = b_w, unitriangularity, and
off-diagonal coefficients in v^-1 Z[v^-1].  Those three properties pin the
table uniquely, so frozen expected values (A1, A2) are genuinely checked
against an independent computation.
"""

import pytest
from hypothesis import given, settings, strategies as st

from ivhecke.coxeter import parse_system
from ivhecke.hecke import (
    CanonicalTable,
    HeckeAlgebra,
    NotPreCanonical,
    solve_canonical,
)
from ivhecke.ivmodules import canonical_table
from ivhecke.laurent import (
    ONE,
    U,
    U2,
    V,
    VI,
    ZERO,
    LaurentPoly,
    monomial,
    one_plus_even_positive,
    only_negative_exponents,
    nonnegative_coeffs,
)


@pytest.fixture(scope="module")
def HA2():
    return HeckeAlgebra(parse_system("A2"))


@pytest.fixture(scope="module")
def HA3():
    return HeckeAlgebra(parse_system("A3"))


def is_bar_invariant_elt(alg, h):
    return alg.bar(h) == h


# ----------------------------------------------------------------------

class TestAlgebraRelations:
    def test_quadratic(self, HA2):
        Hs = HA2.basis((0,))
        sq = Hs * Hs
        assert sq == HA2.unit() + Hs.scale(U)
        # equivalently (H_s - v)(H_s + v^-1) = 0
        assert (sq + Hs.scale(VI - V) - HA2.unit()).is_zero()

    def test_quadratic_squared_parameter(self):
        K = HeckeAlgebra(parse_system("A2"), squared=True)
        Ks = K.basis((0,))
        assert Ks * Ks == K.unit() + Ks.scale(U2)

    def test_braid(self, HA2):
        a = HA2.basis((0,)) * (HA2.basis((1,)) * HA2.basis((0,)))
        b = HA2.basis((1,)) * (HA2.basis((0,)) * HA2.basis((1,)))
        assert a == b == HA2.basis((0, 1, 0))

    def test_braid_b2(self):
        H = HeckeAlgebra(parse_system("B2"))
        s, t = H.basis((0,)), H.basis((1,))
        assert s * t * s * t == t * s * t * s == H.basis((0, 1, 0, 1))

    def test_length_additive_products(self, HA3):
        W = HA3.system
        for x in W.elements():
            for y in W.elements():
                if len(W.multiply(x, y)) == len(x) + len(y):
                    assert HA3.basis(x) * HA3.basis(y) == HA3.basis(W.multiply(x, y))

    def test_unit(self, HA2):
        h = HA2.basis((0, 1)).scale(U) + HA2.basis(())
        assert HA2.unit() * h == h
        assert h * HA2.unit() == h

    def test_mixed_mode_rejected(self, HA2):
        other = HeckeAlgebra(parse_system("A2"))
        with pytest.raises(ValueError):
            HA2.unit() + other.unit()
        k = HA2.squared_partner()
        with pytest.raises(ValueError):
            HA2.basis((0,)) * k.basis((0,))


class TestBar:
    def test_bar_of_generator(self, HA2):
        assert HA2.bar(HA2.basis((0,))) == HA2.basis((0,)) + HA2.unit().scale(VI - V)

    def test_bar_is_inverse_of_inverse(self, HA2):
        # bar(H_w) * H_{w^-1} = 1 for all w
        W = HA2.system
        for w in W.elements():
            prod = HA2.bar(HA2.basis(w)) * HA2.basis(W.inverse(w))
            assert prod == HA2.unit(), w

    def test_bar_involutive(self, HA3):
        for w in HA3.system.elements():
            h = HA3.basis(w)
            assert HA3.bar(HA3.bar(h)) == h

    def test_bar_antilinear_and_multiplicative(self, HA2):
        a = HA2.basis((0,)).scale(V) + HA2.basis((0, 1)).scale(monomial(-2, 3))
        b = HA2.basis((1,)) + HA2.unit().scale(U)
        assert HA2.bar(a.scale(V)) == HA2.bar(a).scale(VI)
        assert HA2.bar(a + b) == HA2.bar(a) + HA2.bar(b)
        assert HA2.bar(a * b) == HA2.bar(a) * HA2.bar(b)


class TestPhiTheta:
    def test_phi_on_underline_generator(self, HA2):
        K = HA2.squared_partner()
        us = HA2.basis((0,)) + HA2.unit().scale(VI)
        assert HA2.phi(us) == K.basis((0,)) + K.unit().scale(monomial(-2))

    def test_phi_is_ring_map(self, HA2):
        a = HA2.basis((0, 1)).scale(V) + HA2.unit()
        b = HA2.basis((1,)).scale(monomial(-1, 2))
        assert HA2.phi(a * b) == HA2.phi(a) * HA2.phi(b)
        assert HA2.phi(a + b) == HA2.phi(a) + HA2.phi(b)

    def test_phi_intertwines_bar(self, HA2):
        K = HA2.squared_partner()
        for w in HA2.system.elements():
            h = HA2.basis(w)
            assert HA2.phi(HA2.bar(h)) == K.bar(HA2.phi(h))

    def test_theta_on_generator(self, HA2):
        Hs = HA2.basis((0,))
        assert HA2.theta_auto(Hs) == -Hs + HA2.unit().scale(U)

    def test_theta_involutive_and_linear(self, HA2):
        a = HA2.basis((0, 1, 0)).scale(V) + HA2.basis((1,)).scale(monomial(0, 2))
        assert HA2.theta_auto(HA2.theta_auto(a)) == a
        assert HA2.theta_auto(a.scale(V)) == HA2.theta_auto(a).scale(V)

    def test_theta_equals_signed_bar_on_basis(self, HA2):
        # Theta(H_w) = (-1)^{l(w)} * (expansion of bar(H_w)) as A-linear data
        for w in HA2.system.elements():
            lhs = HA2.theta_auto(HA2.basis(w))
            rhs = HA2.bar(HA2.basis(w)).scale((-1) ** len(w))
            assert lhs == rhs

    def test_theta_ring_map(self, HA2):
        a = HA2.basis((0,))
        b = HA2.basis((1, 0))
        assert HA2.theta_auto(a * b) == HA2.theta_auto(a) * HA2.theta_auto(b)


# ----------------------------------------------------------------------

def bar_invariance_oracle(alg, table):
    """Independent check that every column is bar-invariant, unitriangular
    with diagonal 1, and off-diagonal in v^-1 Z[v^-1]."""
    for j in range(len(table.elements)):
        col = table.column(j)
        b = alg.zero()
        for i, c in col.items():
            b = b + alg.basis(table.elements[i]).scale(c)
        assert alg.bar(b) == b, f"column {table.elements[j]} not bar-invariant"
        assert col[j] == ONE
        for i, c in col.items():
            if i != j:
                assert only_negative_exponents(c)
                assert alg.system.bruhat_leq(table.elements[i], table.elements[j])


class TestCanonicalBasis:
    def test_a1_values(self):
        alg = HeckeAlgebra(parse_system("A1"))
        table = alg.kl_table()
        bar_invariance_oracle(alg, table)
        assert table.entry_by_words((), (0,)) == VI
        assert table.entry_by_words((), ()) == ONE
        assert len(table.entries) == 3

    def test_a2_frozen_values(self, HA2):
        table = HA2.kl_table()
        bar_invariance_oracle(HA2, table)
        sts = (0, 1, 0)
        assert table.entry_by_words((), sts) == monomial(-3)
        assert table.entry_by_words((0,), sts) == monomial(-2)
        assert table.entry_by_words((1,), sts) == monomial(-2)
        assert table.entry_by_words((0, 1), sts) == VI
        assert table.entry_by_words((1, 0), sts) == VI

    def test_underline_generator_everywhere(self):
        for name in ("A2", "B2", "A3", "I2(5)"):
            alg = HeckeAlgebra(parse_system(name))
            table = alg.kl_table()
            for s in range(alg.system.rank):
                b = alg.underline((s,), table)
                assert b == alg.basis((s,)) + alg.unit().scale(VI)

    def test_a3_oracle_and_invariants(self, HA3):
        table = HA3.kl_table()
        bar_invariance_oracle(HA3, table)
        for (i, j), c in table.entries.items():
            # classical positivity and parity of KL coefficients
            assert nonnegative_coeffs(c)
            gap = len(table.elements[j]) - len(table.elements[i])
            assert one_plus_even_positive(c * monomial(gap))

    def test_b2_table_matches_squared_algebra(self):
        # phi maps the v-table to the v^2-table entry by entry
        alg = HeckeAlgebra(parse_system("B2"))
        t1 = alg.kl_table()
        t2 = HeckeAlgebra(parse_system("B2"), squared=True).kl_table()
        assert set(t1.entries) == set(t2.entries)
        for key, c in t1.entries.items():
            assert t2.entries[key] == c.square_v()

    def test_solver_order_independent(self, HA2):
        W = HA2.system
        elements = W.elements()
        index = {w: i for i, w in enumerate(elements)}
        ranks = [len(w) for w in elements]

        def bar_row(j):
            return {index[x]: c for x, c in HA2.bar_basis_terms(elements[j]).items()}

        leq = lambda i, j: W.bruhat_leq(elements[i], elements[j])
        a = solve_canonical(ranks, leq, bar_row)
        b = solve_canonical(ranks, leq, bar_row, reverse_ties=True)
        assert a == b


    def test_column_index_matches_scan(self):
        B3 = parse_system("B3")
        for label in ("h", "iota"):
            table = canonical_table(B3, B3.identity_perm(), label)
            for j in range(len(table.elements)):
                scan = {i: c for (i, jj), c in table.entries.items() if jj == j}
                col = table.column(j)
                assert list(col.items()) == list(scan.items())
                col.clear()  # callers own the returned dict
                assert table.column(j) == scan


class TestSolverFailures:
    def test_bad_diagonal(self):
        with pytest.raises(NotPreCanonical) as exc:
            solve_canonical([0], lambda i, j: i <= j, lambda j: {0: V})
        assert exc.value.witness["element"] == 0

    def test_not_unitriangular(self):
        # psi(a_0) reaches a_1 which is not <= a_0
        def bar_row(j):
            return {0: ONE, 1: U} if j == 0 else {1: ONE}

        with pytest.raises(NotPreCanonical):
            solve_canonical([0, 1], lambda i, j: i == j, bar_row)

    def test_non_involutive_defect(self):
        # psi(a_1) = a_1 + v a_0 has psi^2 != 1; the defect v is not antisymmetric
        def bar_row(j):
            return {1: ONE, 0: V} if j == 1 else {0: ONE}

        with pytest.raises(NotPreCanonical) as exc:
            solve_canonical([0, 1], lambda i, j: i <= j, bar_row)
        assert "defect" in exc.value.witness


class TestTableSerialization:
    def test_json_shape(self):
        alg = HeckeAlgebra(parse_system("A1"))
        data = alg.kl_table().to_json_dict()
        assert data["label"] == "h"
        assert data["system"] == "A1"
        assert data["theta"] == [0]
        assert data["entries"] == [
            {"x": [], "w": [], "poly": {"0": 1}},
            {"x": [], "w": [0], "poly": {"-1": 1}},
            {"x": [0], "w": [0], "poly": {"0": 1}},
        ]

    def test_csv_shape(self):
        alg = HeckeAlgebra(parse_system("A1"))
        csv_text = alg.kl_table().to_csv()
        assert csv_text.splitlines() == [
            "x,w,poly",
            "e,e,1",
            "e,0,v^-1",
            "0,0,1",
        ]

    def test_deterministic_output(self, HA2):
        t1 = HA2.kl_table().to_json()
        t2 = HeckeAlgebra(parse_system("A2")).kl_table().to_json()
        assert t1 == t2


# ----------------------------------------------------------------------

coeffs = st.builds(
    lambda val, cs: LaurentPoly(val, cs),
    st.integers(-3, 3),
    st.lists(st.integers(-4, 4), max_size=4),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.lists(st.integers(0, 1), max_size=5), coeffs), max_size=3))
def test_bar_involutive_on_random_elements(data):
    alg = HeckeAlgebra(parse_system("A2"))
    h = alg.zero()
    for word, c in data:
        h = h + alg.basis(word).scale(c)
    assert alg.bar(alg.bar(h)) == h
