"""Twisted-involution tests.

Oracle: brute force over the enumerated group -- the twisted involutions
for theta are exactly {x in W : theta(x) = x^{-1}}, found by direct filter.
The rank function is cross-checked by the independent one-step-descent
recursion, and against the extended-group multiplication ((x, theta)^2
must be the identity), both kept in tests/twisted_oracle.py.
"""

import pytest

from ivhecke.coxeter import CoxeterSystem, InfiniteOrTooLarge, coxeter_matrix_from_name, parse_system
from ivhecke.twisted import (
    GroupBlock,
    NotAnInvolution,
    TwistedBlock,
    check_automorphism,
    compose_perms,
    involutive_automorphisms,
    kappa,
    parse_theta,
)

from twisted_oracle import inverse_plus, invert_perm, is_twisted_involution, mult_plus, rho_recursive


def brute_force_twisted(system, theta):
    return {
        x
        for x in system.elements()
        if system.apply_automorphism(theta, x) == system.inverse(x)
    }


CASES = [
    ("A1", "id"),
    ("A2", "id"),
    ("A2", "1,0"),
    ("A3", "id"),
    ("A3", "2,1,0"),
    ("B2", "id"),
    ("B3", "id"),
    ("H3", "id"),
    ("I2(5)", "id"),
    ("I2(5)", "1,0"),
    ("I2(6)", "id"),
    ("I2(6)", "1,0"),
    ("D4", "id"),
]


@pytest.mark.parametrize("name,theta_text", CASES)
def test_block_matches_brute_force(name, theta_text):
    W = parse_system(name)
    theta = parse_theta(W, theta_text)
    blk = TwistedBlock(W, theta)
    assert set(blk.elements) == brute_force_twisted(W, theta)
    # deterministic ordering
    assert blk.elements == sorted(blk.elements, key=lambda w: (len(w), w))


@pytest.mark.parametrize("name,theta_text", CASES)
def test_rho_matches_recursion_and_length_bounds(name, theta_text):
    W = parse_system(name)
    theta = parse_theta(W, theta_text)
    blk = TwistedBlock(W, theta)
    for i, x in enumerate(blk.elements):
        r = blk.rho[i]
        assert r == rho_recursive(W, theta, x)
        assert r <= len(x) <= 2 * r


@pytest.mark.parametrize("name,theta_text", CASES[:8])
def test_squares_to_identity_in_extended_group(name, theta_text):
    W = parse_system(name)
    theta = parse_theta(W, theta_text)
    ident = ((), W.identity_perm())
    for x in TwistedBlock(W, theta).elements:
        w = (x, theta)
        assert mult_plus(W, w, w) == ident
        assert inverse_plus(W, w) == w


def test_counts():
    # ordinary involutions of S4 (theta = id): 1 identity + 6 transpositions
    # + 3 double transpositions
    assert len(TwistedBlock(parse_system("A3"), (0, 1, 2))) == 10
    # B2: identity, 4 reflections, the rotation by pi
    assert len(TwistedBlock(parse_system("B2"), (0, 1))) == 6
    assert len(TwistedBlock(parse_system("A2"), (0, 1))) == 4
    assert len(TwistedBlock(parse_system("A2"), (1, 0))) == 4
    assert len(TwistedBlock(parse_system("H3"), (0, 1, 2))) == 32
    assert len(TwistedBlock(parse_system("F4"), (0, 1, 2, 3))) == 140
    assert len(TwistedBlock(parse_system("F4"), (3, 2, 1, 0))) == 72


@pytest.mark.parametrize("name,cap", [("B3", 10), ("E6", 500)])
def test_block_honours_max_elements(name, cap):
    W = CoxeterSystem(coxeter_matrix_from_name(name), max_elements=cap)
    with pytest.raises(InfiniteOrTooLarge, match=f"twisted block .* more than {cap} elements"):
        TwistedBlock(W, W.identity_perm())


def test_infinite_block_refused():
    W = parse_system("I2(0)")
    for theta in involutive_automorphisms(W):
        with pytest.raises(InfiniteOrTooLarge, match="twisted block .* the group is infinite"):
            TwistedBlock(W, theta)


def test_kappa_action_cases():
    W = parse_system("A2")
    ident = (0, 1)
    # s acts on the identity: s*1 = 1*s, the commuting case, length +1
    assert kappa(W, ident, 0, ()) == (0,)
    # noncommuting case: 0 |*| (1,) = (0,1,0)
    assert kappa(W, ident, 0, (1,)) == (0, 1, 0)
    # descent: 0 |*| (0,1,0) = (1,)
    assert kappa(W, ident, 0, (0, 1, 0)) == (1,)
    # twisted case, theta the flip: 0 |*| () = 0*1*theta(0) = (0,1)... noncommuting
    flip = (1, 0)
    assert kappa(W, flip, 0, ()) == W.reduce((0, 1))


def test_kappa_is_involutive_on_blocks():
    for name, theta_text in CASES[:10]:
        W = parse_system(name)
        theta = parse_theta(W, theta_text)
        blk = TwistedBlock(W, theta)
        for s in range(W.rank):
            for i in range(len(blk)):
                j = blk.cross[s][i][0]
                assert blk.cross[s][j][0] == i  # s |*| (s |*| w) = w


def test_cross_flags_consistent():
    W = parse_system("B2")
    blk = TwistedBlock(W, (0, 1))
    for s in range(W.rank):
        for i in range(len(blk)):
            j, commutes, up = blk.cross[s][i]
            li, lj = len(blk.elements[i]), len(blk.elements[j])
            assert up == (lj > li)
            assert abs(lj - li) == (1 if commutes else 2)
            assert blk.rho[j] - blk.rho[i] == (1 if up else -1)


def test_extended_group_multiplication():
    W = parse_system("A3")
    flip = (2, 1, 0)
    ident = W.identity_perm()
    a = ((0, 1), flip)
    b = ((2,), flip)
    # (x, alpha)(y, beta) = (x * alpha(y), alpha beta): alpha(2) = 0
    word = W.multiply((0, 1), (0,))
    assert mult_plus(W, a, b) == (word, ident)
    # associativity spot check
    c = ((1,), ident)
    assert mult_plus(W, mult_plus(W, a, b), c) == mult_plus(W, a, mult_plus(W, b, c))


def test_perm_helpers():
    assert compose_perms((1, 0, 2), (0, 2, 1)) == (1, 2, 0)
    assert invert_perm((1, 2, 0)) == (2, 0, 1)
    W = parse_system("A3")
    assert check_automorphism(W, (2, 1, 0)) == (2, 1, 0)
    with pytest.raises(ValueError):
        check_automorphism(W, (1, 0, 2))  # not a diagram automorphism
    with pytest.raises(ValueError):
        check_automorphism(W, (0, 0, 1))


def test_parse_theta_refuses_a_non_involutive_automorphism():
    D4 = parse_system("D4")
    assert check_automorphism(D4, (2, 1, 3, 0)) == (2, 1, 3, 0)  # triality
    with pytest.raises(NotAnInvolution, match="not involutive"):
        parse_theta(D4, "2,1,3,0")
    assert parse_theta(D4, "3,1,2,0") == (3, 1, 2, 0)


def test_theta_validation():
    W = parse_system("A3")
    # the 3-cycle on the outer nodes of D4 is an automorphism but not involutive
    with pytest.raises(NotAnInvolution):
        TwistedBlock(parse_system("D4"), (2, 1, 3, 0))
    assert parse_theta(W, "id") == (0, 1, 2)
    assert parse_theta(W, "2,1,0") == (2, 1, 0)
    with pytest.raises(ValueError):
        parse_theta(W, "1,0")
    assert not is_twisted_involution(W, (0, 1, 2), (0, 1))
    assert is_twisted_involution(W, (0, 1, 2), (0,))
    assert is_twisted_involution(W, (2, 1, 0), ())


def test_involutive_automorphisms_list():
    assert involutive_automorphisms(parse_system("A3")) == [(0, 1, 2), (2, 1, 0)]
    assert involutive_automorphisms(parse_system("B3")) == [(0, 1, 2)]
    d4 = involutive_automorphisms(parse_system("D4"))
    assert d4[0] == (0, 1, 2, 3)
    assert len(d4) == 4  # id + three transpositions of the outer nodes


PAIRING_SYSTEMS = ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "D4", "H3", "F4"] + [
    f"I2({m})" for m in range(2, 9)
] + [pytest.param(name, marks=pytest.mark.slow) for name in ("D5", "E6", "H4")]


@pytest.mark.parametrize("name", PAIRING_SYSTEMS)
def test_every_generator_pairs_every_block(name):
    # the classification checks read the quadratic relation off each pair, and
    # the pre-canonicity check skips the intertwining tests the pairs prove
    system = parse_system(name)
    blocks = [GroupBlock(system)] + [TwistedBlock(system, t) for t in involutive_automorphisms(system)]
    for block in blocks:
        for s, row in enumerate(block.cross):
            for k, (t, commutes, up) in enumerate(row):
                assert t != k and row[t] == (k, commutes, not up), (name, block.theta, s, k)


def rank2_orbits(block, s, t):
    """Each <s, t>-orbit as the list of its indices, walked s, t, s, ... from its lowest."""
    seen, out = set(), []
    for x0 in range(len(block)):
        if x0 not in seen:
            orbit = [x0]
            while True:
                y = block.cross[(s, t)[(len(orbit) - 1) % 2]][orbit[-1]][0]
                if y == x0:
                    break
                orbit.append(y)
            seen.update(orbit)
            out.append(orbit)
    return out


@pytest.mark.parametrize("name", ["A3", "B3", "H3", "D4", "I2(5)", "I2(6)"])
def test_rank2_positions_are_the_orbits_own_cross_tables(name):
    # the braid check reads each basis vector's relation off its orbit's shape
    system = parse_system(name)
    blocks = [GroupBlock(system)] + [TwistedBlock(system, t) for t in involutive_automorphisms(system)]
    pairs = [(s, t) for s in range(system.rank) for t in range(s + 1, system.rank)]
    for block in blocks:
        assert list(block.rank2_positions) == pairs
        for (s, t), firsts in block.rank2_positions.items():
            where = {}
            for orbit in rank2_orbits(block, s, t):
                assert len(orbit) % 2 == 0, (name, s, t, orbit)
                position = {x: p for p, x in enumerate(orbit)}
                shape = tuple(
                    tuple((position[y], commutes, up) for y, commutes, up in map(block.cross[g].__getitem__, orbit))
                    for g in (s, t)
                )
                where.update({x: (shape, p) for p, x in enumerate(orbit)})
            expected = {}
            for x in range(len(block)):
                expected.setdefault(where[x], x)
            assert firsts == [(x,) + key for key, x in expected.items()], (name, block.theta, s, t)
