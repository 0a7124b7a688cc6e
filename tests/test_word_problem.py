"""The root-arithmetic word problem against the braid-closure oracle.

``braid_oracle.BraidOracle`` is Tits' braid-closure solution, the word
problem ``CoxeterSystem`` used before it moved to root arithmetic.  Every
word operation is compared on random words of up to 12 letters, both on a
fresh system (root walks) and, for finite systems, on an enumerated one
(multiplication tables).  I2(0) is infinite, so only the walks run there.
"""

import pytest
from hypothesis import given, settings, strategies as st

from braid_oracle import BraidOracle
from ivhecke.coxeter import CoxeterSystem, InfiniteOrTooLarge, coxeter_matrix_from_name, parse_system

SYSTEMS = ("B3", "H3", "D4", "I2(5)", "I2(7)", "I2(0)")
_INSTANCES: dict = {}


def instances(name):
    """(oracle, systems under test), shared across examples so caches build up."""
    if name not in _INSTANCES:
        systems = [parse_system(name)]
        if name != "I2(0)":
            tabled = parse_system(name)
            tabled.elements()
            systems.append(tabled)
        _INSTANCES[name] = (BraidOracle(systems[0].matrix), systems)
    return _INSTANCES[name]


@pytest.mark.parametrize("name", SYSTEMS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_word_ops_match_oracle(name, data):
    oracle, systems = instances(name)
    words = st.lists(st.integers(0, oracle.rank - 1), max_size=12).map(tuple)
    u, w = data.draw(words), data.draw(words)
    r = oracle.reduce(u)
    keep = data.draw(st.lists(st.booleans(), min_size=len(r), max_size=len(r)))
    sub = tuple(c for c, k in zip(r, keep) if k)
    for W in systems:
        assert W.reduce(u) == r
        assert W.multiply(u, w) == oracle.multiply(u, w)
        assert W.inverse(u) == oracle.inverse(u)
        for s in range(W.rank):
            assert W.left_mult(s, r) == oracle.left_mult(s, r)
            assert W.right_mult(r, s) == oracle.right_mult(r, s)
        for perm in W.automorphisms():
            assert W.apply_automorphism(perm, u) == oracle.apply_automorphism(perm, u)
        assert W.bruhat_leq(w, u) == oracle.bruhat_leq(w, u)
        assert W.bruhat_leq(sub, r) and oracle.bruhat_leq(sub, r)  # the subword property


@pytest.mark.parametrize(
    "name,count", [("A5", 15), ("B4", 16), ("D4", 12), ("H3", 15), ("F4", 24), ("E6", 36)]
)
def test_positive_root_count(name, count):
    assert parse_system(name).positive_root_count() == count


def test_f4_order_and_longest_element():
    W = parse_system("F4")
    assert W.order() == 1152
    assert len(W.longest_element()) == W.positive_root_count()


@pytest.mark.parametrize("name", ["I2(5)", "I2(7)", "H3", "B3", "D4"])
def test_enumeration_matches_oracle(name):
    W = parse_system(name)
    oracle = BraidOracle(W.matrix)
    els = W.elements()
    assert all(oracle.reduce(w) == w for w in els)
    for i, w in enumerate(els):
        for s in range(W.rank):
            assert els[W._right[i][s]] == oracle.right_mult(w, s)
            assert els[W._left[i][s]] == oracle.left_mult(s, w)
        assert els[W._inv[i]] == oracle.inverse(w)


def test_longest_element_beyond_word_cap():
    # finite, but w0 (length 24) is longer than the cap: refused honestly
    W = CoxeterSystem(coxeter_matrix_from_name("F4"), max_word_length=20)
    with pytest.raises(InfiniteOrTooLarge, match="word cap 20"):
        W.elements()
    assert len(W.enumerate(max_length=2)) == 1 + 4 + 9
