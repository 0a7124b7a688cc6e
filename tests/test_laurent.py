import pytest
from hypothesis import given, settings, strategies as st

import laurent_oracle as oracle

from ivhecke.laurent import (
    ONE,
    U,
    U2,
    V,
    VI,
    ZERO,
    LaurentPoly,
    NotAntisymmetric,
    NotDivisible,
    bar_invariant,
    mod2_equal,
    monomial,
    nonnegative_coeffs,
    one_plus_even_positive,
    one_plus_positive,
    only_negative_exponents,
    only_nonpositive_exponents,
    split_antisymmetric,
)


def lp(terms):
    return LaurentPoly.from_terms(terms)


# strategy: smallish exponent window, smallish coefficients
polys = st.builds(
    lambda val, cs: LaurentPoly(val, cs),
    st.integers(-6, 6),
    st.lists(st.integers(-9, 9), max_size=8),
)
nonzero_polys = polys.filter(bool)


class TestBasics:
    def test_trim_and_zero(self):
        assert LaurentPoly(3, (0, 0)) == ZERO
        assert LaurentPoly(2, (0, 1, 0)) == V ** 3
        assert not ZERO
        assert ZERO.to_text() == "0"

    def test_from_terms_merges(self):
        assert lp([(1, 1), (1, -1)]) == ZERO
        assert lp({0: 2, -1: 1}) == LaurentPoly(-1, (1, 2))

    def test_arith(self):
        assert V + VI == lp({1: 1, -1: 1})
        assert V * VI == ONE
        assert (V - VI) == U
        assert U * U == lp({-2: 1, 0: -2, 2: 1})
        assert 2 * V - V == V
        assert 1 - V == lp({0: 1, 1: -1})
        assert (V + 1) ** 2 == lp({0: 1, 1: 2, 2: 1})

    def test_pow_negative_unit(self):
        assert V ** -3 == monomial(-3)
        with pytest.raises(NotDivisible):
            (V + 1) ** -1

    def test_coeff_degree_valuation(self):
        p = lp({-2: -1, 0: 1, 3: 2})
        assert p.coeff(-2) == -1
        assert p.coeff(1) == 0
        assert p.degree == 3
        assert p.valuation == -2
        with pytest.raises(ValueError):
            ZERO.degree

    def test_text_form(self):
        assert lp({-2: -1, 0: 1, 3: 2}).to_text() == "-v^-2 + 1 + 2*v^3"
        assert lp({0: 1, 1: -1}).to_text() == "1 - v"
        assert U.to_text() == "-v^-1 + v"
        assert monomial(1, 2).to_text() == "2*v"

    def test_json_roundtrip(self):
        p = lp({-1: 1, 0: 2})
        assert p.to_json() == {"-1": 1, "0": 2}
        assert LaurentPoly.from_json(p.to_json()) == p
        assert LaurentPoly.from_json({}) == ZERO


class TestEndomorphisms:
    def test_bar(self):
        assert V.bar() == VI
        assert U.bar() == -U
        assert lp({-1: 1, 0: 2}).bar() == lp({1: 1, 0: 2})

    def test_negate_v(self):
        assert V.negate_v() == -V
        assert U.negate_v() == -U
        assert lp({0: 1, 2: 3}).negate_v() == lp({0: 1, 2: 3})

    def test_square_v(self):
        assert V.square_v() == V ** 2
        assert U.square_v() == U2
        assert lp({-1: 1, 0: 1, 1: 1}).square_v() == lp({-2: 1, 0: 1, 2: 1})


class TestExactDiv:
    def test_simple(self):
        assert (U * U).exact_div(U) == U
        assert lp({0: 2, 1: 2}).exact_div(2) == lp({0: 1, 1: 1})
        assert ZERO.exact_div(U) == ZERO

    def test_unit_shift(self):
        p = lp({-3: 1, 2: -4})
        assert p.exact_div(VI ** 2) == p * V ** 2

    def test_failures(self):
        with pytest.raises(NotDivisible):
            ONE.exact_div(ZERO)
        with pytest.raises(NotDivisible):
            V.exact_div(lp({0: 2}))
        with pytest.raises(NotDivisible):
            (U + 1).exact_div(U)
        with pytest.raises(NotDivisible):
            ONE.exact_div(V + VI)


class TestSplit:
    def test_examples(self):
        assert split_antisymmetric(ZERO) == ZERO
        d = lp({-1: 2, 1: -2})
        mu = split_antisymmetric(d)
        assert mu == lp({-1: 2})
        assert mu - mu.bar() == d

    def test_rejects_symmetric(self):
        with pytest.raises(NotAntisymmetric):
            split_antisymmetric(ONE)
        with pytest.raises(NotAntisymmetric):
            split_antisymmetric(V + VI)
        with pytest.raises(NotAntisymmetric):
            split_antisymmetric(V)


class TestPredicates:
    def test_membership(self):
        assert only_nonpositive_exponents(lp({0: 1, -3: 5}))
        assert not only_nonpositive_exponents(V)
        assert only_negative_exponents(VI)
        assert not only_negative_exponents(ONE)
        assert only_negative_exponents(ZERO)
        assert one_plus_even_positive(lp({0: 1, 2: 7, 4: -1}))
        assert not one_plus_even_positive(lp({0: 1, 1: 1}))
        assert not one_plus_even_positive(lp({0: 2}))
        assert not one_plus_even_positive(lp({0: 1, -2: 1}))
        assert one_plus_positive(lp({0: 1, 1: 3, 5: 1}))
        assert not one_plus_positive(lp({0: 1, -1: 1}))
        assert bar_invariant(V + VI)
        assert bar_invariant(ONE)
        assert not bar_invariant(V)
        assert nonnegative_coeffs(lp({0: 1, 2: 3}))
        assert not nonnegative_coeffs(U)
        assert mod2_equal(lp({0: 3, 1: 1}), lp({0: 1, 1: -1}))
        assert not mod2_equal(ONE, V)


# ----------------------------------------------------------------------
# property-based invariants

@settings(max_examples=1000)
@given(polys)
def test_bar_is_involutive(p):
    assert p.bar().bar() == p


@given(polys, polys)
def test_bar_is_ring_map(p, q):
    assert (p + q).bar() == p.bar() + q.bar()
    assert (p * q).bar() == p.bar() * q.bar()


@given(polys, nonzero_polys)
def test_exact_div_recovers_factor(a, b):
    assert (a * b).exact_div(b) == a


@given(polys, polys)
def test_square_v_multiplicative(p, q):
    assert (p * q).square_v() == p.square_v() * q.square_v()
    assert (p + q).square_v() == p.square_v() + q.square_v()


@given(polys)
def test_negate_v_involutive_and_multiplicative(p):
    assert p.negate_v().negate_v() == p


@given(polys)
def test_split_roundtrip(p):
    # build an antisymmetric element from arbitrary p
    d = p - p.bar()
    mu = split_antisymmetric(d)
    assert mu - mu.bar() == d
    assert only_negative_exponents(mu)


@given(polys)
def test_bar_invariant_iff_symmetric_support(p):
    sym = p + p.bar()
    assert bar_invariant(sym)


@given(polys)
def test_json_text_roundtrip(p):
    assert LaurentPoly.from_json(p.to_json()) == p
    # text form is injective on our representation: re-parse by eval-free check
    assert (p.to_text() == "0") == (not p)


# ----------------------------------------------------------------------
# the fused kernel against the arithmetic it replaced (tests/laurent_oracle.py)

operands = st.one_of(polys, st.integers(-5, 5))


def assert_normalized(p):
    assert type(p) is LaurentPoly
    assert type(p.coeffs) is tuple
    if p.coeffs:
        assert p.coeffs[0] and p.coeffs[-1]
    else:
        assert (p.val, p.coeffs) == (0, ())


@settings(max_examples=500)
@given(polys, operands, operands)
def test_kernel_matches_oracle(p, a, b):
    results = [
        (p + a, oracle.add(p, a)),
        (a + p, oracle.add(a, p)),
        (p - a, oracle.sub(p, a)),
        (a - p, oracle.sub(a, p)),
        (p * a, oracle.mul(p, a)),
        (a * p, oracle.mul(a, p)),
        (p.addmul(a, b), oracle.addmul(p, a, b)),
        (p.bar(), oracle.bar(p)),
        (-p, oracle.neg(p)),
    ]
    for got, want in results:
        assert got == want
        assert_normalized(got)


@given(polys, polys)
def test_kernel_cancelling_ends(p, r):
    # q = r - p makes p + q and p.addmul(1, q) cancel p's ends
    q = oracle.sub(r, p)
    assert p + q == r
    assert p.addmul(ONE, q) == r
    assert p.addmul(q, -1) == oracle.sub(p, q)
    for got in (p + q, p.addmul(ONE, q), p.addmul(q, -1)):
        assert_normalized(got)


@given(polys, st.booleans())
def test_split_matches_oracle(p, antisymmetric):
    d = p - p.bar() if antisymmetric else p
    try:
        want = oracle.split_antisymmetric(d)
    except NotAntisymmetric:
        with pytest.raises(NotAntisymmetric):
            split_antisymmetric(d)
        return
    got = split_antisymmetric(d)
    assert got == want
    assert_normalized(got)


def test_int_operands_and_immutability():
    assert 2 * V == lp({1: 2})
    assert 1 - V == lp({0: 1, 1: -1})
    assert ONE.addmul(2, V) == lp({0: 1, 1: 2})
    with pytest.raises(TypeError):
        ONE.addmul(1.5, V)
    for p in (V * U, U.bar(), -U, U + V, ONE.addmul(V, U), split_antisymmetric(U)):
        with pytest.raises(AttributeError):
            p.val = 3
        with pytest.raises(AttributeError):
            p.coeffs = ()
