"""Word-level tests for CoxeterSystem.

The independent oracle for A3 is the symmetric group S4: generator i maps to
the adjacent transposition (i, i+1), products compose permutations, and
length equals inversion count.  Bruhat order is checked against the subword
characterization: fixing one reduced word of w, the lower interval [e, w] is
exactly the set of elements realized by subsequences of that word.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from ivhecke.coxeter import (
    CoxeterSystem,
    InfiniteOrTooLarge,
    InvalidCoxeterMatrix,
    WordLengthExceeded,
    coxeter_matrix_from_name,
    parse_system,
)


# ----------------------------------------------------------------------
# oracle helpers

def perm_of_word(word, n=4):
    """Image of a word in the symmetric group S_n (tuple form, acting on 0..n-1)."""
    p = list(range(n))
    for s in word:
        p[s], p[s + 1] = p[s + 1], p[s]
    return tuple(p)


def inversions(p):
    return sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j])


def bruhat_lower_set_by_subwords(system, w):
    """All elements x <= w, via subsequences of one fixed reduced word of w."""
    out = set()
    for r in range(len(w) + 1):
        for idxs in itertools.combinations(range(len(w)), r):
            out.add(system.reduce(tuple(w[i] for i in idxs)))
    return out


@pytest.fixture(scope="module")
def a3():
    return parse_system("A3")


@pytest.fixture(scope="module")
def b2():
    return parse_system("B2")


# ----------------------------------------------------------------------

class TestMatrixConstruction:
    def test_named_matrices(self):
        assert coxeter_matrix_from_name("A2") == ((1, 3), (3, 2))[:1] + ((3, 1),) or True
        assert coxeter_matrix_from_name("A2") == ((1, 3), (3, 1))
        assert coxeter_matrix_from_name("B2") == ((1, 4), (4, 1))
        assert coxeter_matrix_from_name("I2(7)") == ((1, 7), (7, 1))
        assert coxeter_matrix_from_name("I2(0)") == ((1, 0), (0, 1))
        m = coxeter_matrix_from_name("B3")
        assert m[1][2] == 4 and m[0][1] == 3 and m[0][2] == 2
        m = coxeter_matrix_from_name("D4")
        assert m[0][1] == 3 and m[1][2] == 3 and m[1][3] == 3 and m[0][2] == 2 and m[2][3] == 2
        m = coxeter_matrix_from_name("H3")
        assert m[0][1] == 5 and m[1][2] == 3

    def test_bad_names(self):
        for bad in ("Z3", "A0", "F5", "H9", "I2(1)", "whatever"):
            with pytest.raises(InvalidCoxeterMatrix):
                coxeter_matrix_from_name(bad)

    def test_matrix_validation(self):
        with pytest.raises(InvalidCoxeterMatrix):
            CoxeterSystem([[1, 2], [3, 1]])  # not symmetric
        with pytest.raises(InvalidCoxeterMatrix):
            CoxeterSystem([[2, 3], [3, 1]])  # bad diagonal
        with pytest.raises(InvalidCoxeterMatrix):
            CoxeterSystem([[1, 1], [1, 1]])  # off-diagonal 1
        with pytest.raises(InvalidCoxeterMatrix):
            CoxeterSystem([[1, 3, 3], [3, 1, 3]])  # not square

    def test_parse_system_forms(self):
        w1 = parse_system("B2")
        w2 = parse_system('{"rank": 2, "matrix": [[1, 4], [4, 1]]}')
        w3 = parse_system({"rank": 2, "matrix": [[1, 4], [4, 1]]})
        assert w1.matrix == w2.matrix == w3.matrix
        assert w1.name == "B2" and w2.name is None
        with pytest.raises(InvalidCoxeterMatrix):
            parse_system('{"rank": 3, "matrix": [[1, 4], [4, 1]]}')
        with pytest.raises(InvalidCoxeterMatrix):
            parse_system("{not json")


class TestReduce:
    def test_basic_relations(self, a3):
        assert a3.reduce(()) == ()
        assert a3.reduce((0, 0)) == ()
        assert a3.reduce((0, 1, 0)) == a3.reduce((1, 0, 1))
        assert a3.reduce((0, 1, 0)) == (0, 1, 0)  # ShortLex min of {010, 101}
        assert a3.reduce((0, 2)) == (0, 2)
        assert a3.reduce((2, 0)) == (0, 2)  # commuting letters sort
        assert a3.reduce((1, 0, 1, 0)) == (0, 1)

    def test_b2_relations(self, b2):
        assert b2.reduce((0, 1, 0, 1)) == (0, 1, 0, 1)
        assert b2.reduce((1, 0, 1, 0)) == (0, 1, 0, 1)  # the two w0 words coincide
        assert b2.reduce((0, 1, 0, 1, 0)) == (1, 0, 1)

    def test_word_validation(self, a3):
        with pytest.raises(ValueError):
            a3.reduce((0, 7))
        small = CoxeterSystem([[1, 3], [3, 1]], max_word_length=4)
        with pytest.raises(WordLengthExceeded):
            small.reduce((0, 1) * 3)

    def test_length(self, a3):
        assert len(a3.reduce((0, 1, 0, 1))) == 2


class TestAgainstS4:
    """A3 is S4: the full multiplication structure must match."""

    def test_element_count_and_lengths(self, a3):
        els = a3.elements()
        assert len(els) == 24
        perms = {perm_of_word(w) for w in els}
        assert len(perms) == 24
        for w in els:
            assert len(w) == inversions(perm_of_word(w))

    def test_multiplication_table(self, a3):
        els = a3.elements()
        for x in els:
            for y in els:
                assert perm_of_word(a3.multiply(x, y)) == perm_of_word(x + y)

    def test_inverse(self, a3):
        for x in a3.elements():
            assert a3.multiply(x, a3.inverse(x)) == ()

    def test_normal_form_is_shortlex_min(self, a3):
        # for each element, the NF is the lex-least among all reduced words,
        # verified by brute force over all words of the same length
        for w in a3.elements():
            if len(w) > 4:
                continue
            target = perm_of_word(w)
            candidates = [
                u
                for u in itertools.product(range(3), repeat=len(w))
                if perm_of_word(u) == target
            ]
            assert w == min(candidates)


class TestEnumeration:
    @pytest.mark.parametrize(
        "name,order,w0len",
        [
            ("A1", 2, 1),
            ("A2", 6, 3),
            ("A3", 24, 6),
            ("B2", 8, 4),
            ("B3", 48, 9),
            ("H3", 120, 15),
            ("D4", 192, 12),
            ("I2(5)", 10, 5),
            ("I2(6)", 12, 6),
            ("I2(2)", 4, 2),
        ],
    )
    def test_orders_and_longest(self, name, order, w0len):
        W = parse_system(name)
        assert W.order() == order
        assert len(W.longest_element()) == w0len

    def test_elements_sorted_shortlex(self, a3):
        els = a3.elements()
        assert els == sorted(els, key=lambda w: (len(w), w))
        assert els[0] == ()

    def test_infinite_raises(self):
        with pytest.raises(InfiniteOrTooLarge, match=r"CoxeterSystem\(I2\(0\)\): .* the group is infinite"):
            parse_system("I2(0)")

    def test_element_cap(self):
        W = CoxeterSystem(coxeter_matrix_from_name("A3"), max_elements=10)
        with pytest.raises(InfiniteOrTooLarge):
            W.elements()

    def test_longest_element_properties(self):
        for name in ("A3", "B3"):
            W = parse_system(name)
            w0 = W.longest_element()
            assert W.multiply(w0, w0) == ()  # w0 is an involution in these types
            for x in W.elements():
                assert W.bruhat_leq(x, w0)


class TestBruhat:
    def test_subword_oracle_a3(self, a3):
        for w in a3.elements():
            lower = bruhat_lower_set_by_subwords(a3, w)
            for x in a3.elements():
                assert a3.bruhat_leq(x, w) == (x in lower), (x, w)

    def test_subword_oracle_b2(self, b2):
        for w in b2.elements():
            lower = bruhat_lower_set_by_subwords(b2, w)
            for x in b2.elements():
                assert b2.bruhat_leq(x, w) == (x in lower)

    def test_basic_properties(self, a3):
        els = a3.elements()
        for x in els:
            assert a3.bruhat_leq((), x)
            assert a3.bruhat_leq(x, x)
        # antisymmetry on distinct elements
        for x in els:
            for w in els:
                if x != w and a3.bruhat_leq(x, w):
                    assert not a3.bruhat_leq(w, x)


class TestAutomorphisms:
    def test_counts(self):
        assert len(parse_system("A1").automorphisms()) == 1
        assert len(parse_system("A3").automorphisms()) == 2
        assert len(parse_system("B3").automorphisms()) == 1
        assert len(parse_system("I2(5)").automorphisms()) == 2
        assert len(parse_system("D4").automorphisms()) == 6  # S3 on the outer nodes

    def test_apply(self, a3):
        flip = (2, 1, 0)
        assert flip in a3.automorphisms()
        assert a3.apply_automorphism(flip, (0,)) == (2,)
        assert a3.apply_automorphism(flip, (0, 1, 0)) == (1, 2, 1)
        # automorphisms preserve length and products
        for x in a3.elements():
            assert len(a3.apply_automorphism(flip, x)) == len(x)

    def test_identity(self, a3):
        ident = a3.identity_perm()
        for x in a3.elements():
            assert a3.apply_automorphism(ident, x) == x


# ----------------------------------------------------------------------
# property-based checks against the S4 oracle

words_a3 = st.lists(st.integers(0, 2), max_size=12).map(tuple)


@settings(max_examples=300)
@given(words_a3)
def test_reduce_preserves_element_and_minimizes(word):
    W = parse_system("A3")
    nf = W.reduce(word)
    assert perm_of_word(nf) == perm_of_word(word)
    assert len(nf) == inversions(perm_of_word(word))
    assert W.reduce(nf) == nf  # idempotent


@settings(max_examples=200)
@given(words_a3, words_a3)
def test_multiply_matches_oracle(u, w):
    W = parse_system("A3")
    assert perm_of_word(W.multiply(u, w)) == perm_of_word(u + w)
