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
    accumulate,
    digit_width,
    mod2_equal,
    monomial,
    one_plus_even_positive,
    one_plus_positive,
    only_nonpositive_exponents,
    pack,
    split_antisymmetric,
    split_bar_invariant,
    unpack,
    vec_axpy,
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
        assert oracle.from_json(p.to_json()) == p
        assert oracle.from_json({}) == ZERO


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
        assert oracle.only_negative_exponents(VI)
        assert not oracle.only_negative_exponents(ONE)
        assert oracle.only_negative_exponents(ZERO)
        assert one_plus_even_positive(lp({0: 1, 2: 7, 4: -1}))
        assert not one_plus_even_positive(lp({0: 1, 1: 1}))
        assert not one_plus_even_positive(lp({0: 2}))
        assert not one_plus_even_positive(lp({0: 1, -2: 1}))
        assert one_plus_positive(lp({0: 1, 1: 3, 5: 1}))
        assert not one_plus_positive(lp({0: 1, -1: 1}))
        assert oracle.bar_invariant(V + VI)
        assert oracle.bar_invariant(ONE)
        assert not oracle.bar_invariant(V)
        assert oracle.nonnegative_coeffs(lp({0: 1, 2: 3}))
        assert not oracle.nonnegative_coeffs(U)
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
    assert oracle.only_negative_exponents(mu)


@given(polys)
def test_bar_invariant_iff_symmetric_support(p):
    sym = p + p.bar()
    assert oracle.bar_invariant(sym)


@given(st.integers(-10**20, 10**20))
def test_constants_hash_and_compare_as_their_int(n):
    # == with int holds both ways, so hash must agree for sets and dicts
    p = LaurentPoly.from_int(n)
    assert p == n and n == p
    assert hash(p) == hash(n)
    assert p in {n} and n in {p}
    assert {n: "x"}.get(p) == "x" and {p: "x"}.get(n) == "x"


def test_equality_takes_the_polynomial_path_first_and_keeps_the_others():
    three = LaurentPoly.from_int(3)
    assert three == 3 and 3 == three and not (three != 3)
    assert V != 3 and 3 != V and ZERO == 0 and 0 == ZERO and ONE == True  # noqa: E712
    assert three != "x" and not (three == "x") and "x" != three
    assert three.__eq__("x") is NotImplemented and three.__eq__(3.0) is NotImplemented
    assert three == lp({0: 3}) and three != lp({1: 3})
    assert hash(three) == hash(3) and hash(ZERO) == hash(0) == 0 and hash(-ONE) == hash(-1)
    assert {3: "x"}.get(three) == "x" and {three: "x"}.get(3) == "x"


@given(polys)
def test_json_text_roundtrip(p):
    assert oracle.from_json(p.to_json()) == p
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
        (p.negate_v(), oracle.negate_v(p)),
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


ASCENT_COEFFICIENTS = (ONE, -ONE, V + VI, -(V + VI))


@given(polys, polys, st.sampled_from(ASCENT_COEFFICIENTS))
def test_split_bar_invariant_roundtrip(c, q, a1):
    # c in v^-1 Z[v^-1] and p bar-invariant, both built from arbitrary polys
    c = LaurentPoly.from_terms((-abs(e) - 1, k) for e, k in c.terms())
    p = q + q.bar() - q.coeff(0)
    got = split_bar_invariant(a1 * c + p, a1)
    assert got == p
    assert_normalized(got)


@given(polys, polys.filter(lambda a: a not in ASCENT_COEFFICIENTS))
def test_split_bar_invariant_refuses_other_coefficients(f, a1):
    with pytest.raises(ValueError):
        split_bar_invariant(f, a1)


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


# ----------------------------------------------------------------------
# the sparse-vector kernel against the oracle's addmul

# every kind of factor the kernel has a path for: zero, +-1, +-v^e, c v^e, general
factors = st.one_of(
    st.just(ZERO),
    st.builds(monomial, st.integers(-4, 4), st.sampled_from([1, -1])),
    st.builds(monomial, st.integers(-4, 4), st.integers(-9, 9).filter(bool)),
    polys,
)
keys = st.integers(0, 3)
vectors = st.dictionaries(keys, nonzero_polys, max_size=4)


def oracle_accumulate(want, key, a, b):
    """want[key] += a * b by the oracle: a new key goes last, a zero sum is deleted."""
    total = oracle.addmul(want.get(key, ZERO), a, b)
    if total:
        want[key] = total
    else:
        want.pop(key, None)


def assert_same_vector(got, want):
    assert list(got.items()) == list(want.items())
    for p in got.values():
        assert p
        assert_normalized(p)


@settings(max_examples=500)
@given(vectors, st.lists(st.tuples(keys, factors, factors), max_size=6))
def test_accumulate_matches_oracle(start, steps):
    got, want = dict(start), dict(start)
    for key, a, b in steps:
        accumulate(got, key, a, b)
        oracle_accumulate(want, key, a, b)
        assert_same_vector(got, want)


@given(vectors, factors, st.integers(-4, 4), st.integers(-9, 9).filter(bool), nonzero_polys)
def test_accumulate_cancels_and_appends(start, a, e, c, b):
    got = dict(start)
    m = monomial(e, c)
    for key, x, y in ((9, a, b), (8, m, b)):
        accumulate(got, key, x, y)
        if x:  # a new key goes last
            assert list(got)[-1] == key
        accumulate(got, key, -x, y)  # and its sum of zero is deleted
        assert key not in got
    assert_same_vector(got, start)
    accumulate(got, 7, ONE, b)  # a product equal to b is b itself
    assert got[7] is b


@settings(max_examples=300)
@given(vectors, st.one_of(factors, st.integers(-5, 5)), vectors)
def test_vec_axpy_matches_oracle(start, coeff, b):
    got, want = dict(start), dict(start)
    vec_axpy(got, coeff, b)
    for key, p in b.items():
        oracle_accumulate(want, key, coeff, p)
    assert_same_vector(got, want)
    cancelled = dict(got)
    vec_axpy(cancelled, coeff, {key: -p for key, p in b.items()})
    assert cancelled == {key: p for key, p in start.items()}
    with pytest.raises(TypeError):
        vec_axpy(got, 1.5, b)


# ----------------------------------------------------------------------
# the packed-integer kernel: evaluation at v^-1 = 2^K


@st.composite
def packable(draw):
    """(p, shift, K) with p's exponents in the window e <= -shift and |coefficients| <= 2^(K-1) - 1."""
    K = draw(st.integers(2, 80))
    bound = 2 ** (K - 1) - 1
    coefficient = st.one_of(st.sampled_from((bound, -bound)), st.integers(-bound, bound))
    shift = draw(st.integers(-6, 6))
    cs = draw(st.lists(coefficient, min_size=1, max_size=10))
    gap = draw(st.sampled_from((0, 0, 1, 5)))  # gap 0: the top exponent at the window's end
    return LaurentPoly(1 - shift - gap - len(cs), cs), shift, K


@given(packable())
def test_pack_round_trip(case):
    p, shift, K = case
    assert digit_width(2 ** (K - 1) - 1) == K  # the least width that holds these coefficients
    assert unpack(pack(p, shift, K), shift, K) == p


def test_pack_round_trip_at_both_ends_of_the_window():
    for K in (2, 3, 8, 64, 65):
        bound = 2 ** (K - 1) - 1
        for shift in (-3, 0, 2):
            # the top exponent -shift and one 11 places below it, at the largest coefficients
            p = LaurentPoly(-shift - 11, (-bound,) + (0,) * 10 + (bound,))
            assert unpack(pack(p, shift, K), shift, K) == p
            assert unpack(pack(-p, shift, K), shift, K) == -p


@given(polys, polys)
def test_pack_adds_and_multiplies(p, q):
    shift = -max([r.degree for r in (p, q) if r] + [0])  # both in the window e <= -shift
    K = digit_width(max(abs(c) for r in (p, q, p + q, p * q) for c in r.coeffs + (0,)))
    assert pack(p, shift, K) + pack(q, shift, K) == pack(p + q, shift, K)
    assert pack(p, shift, K) * pack(q, shift, K) == pack(p * q, 2 * shift, K)


@given(nonzero_polys, st.integers(2, 40))
def test_pack_refuses_an_exponent_above_the_window(p, K):
    pack(p, -p.degree, K)  # the top exponent at the window's end packs
    with pytest.raises(ValueError):
        pack(p, 1 - p.degree, K)


def test_pack_takes_ints_and_unpack_refuses_one_bit_digits():
    assert pack(3, -2, 8) == 3 << 16
    assert pack(0, 5, 8) == pack(ZERO, 5, 8) == 0
    with pytest.raises(ValueError):
        pack(-1, 1, 8)
    with pytest.raises(ValueError):  # no balanced digit set for K = 1 holds +1
        unpack(1, 0, 1)
