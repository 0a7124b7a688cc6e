"""Tests for the classification pipeline.

The candidate grids are exhaustive by construction, so most tests here are
exact-count checks plus cross-validation of the structurally derived bar
involution against the letterwise recipes (tests/bar_recipe_oracle.py) and
the Hecke algebra bar, and exact witnesses of its failures.
"""

import json
from collections import Counter

import pytest

from ivhecke import classify
from ivhecke.classify import (
    DEFAULT_SYSTEMS,
    GROUP_FLIP_MATRIX,
    IOTA_ALT_MATRIX,
    base_structures,
    check_representation,
    classification_run,
    enumerate_candidates,
    precanonical_test,
    representation_scan,
    squared_image,
    transport_basis,
)
from ivhecke.coxeter import parse_system
from ivhecke.hecke import HeckeAlgebra, NotPreCanonical, solve_canonical
from ivhecke.ivmodules import (
    GROUP_PLAIN_MATRIX,
    IOTA_MATRIX,
    NAMED_STRUCTURES,
    PI_MATRIX,
    PI_PRIME_MATRIX,
    StructureMatrix,
    TwistedModule,
)
from ivhecke.laurent import ONE, U, U2, V, VI, ZERO, LaurentPoly, monomial
from ivhecke.pkernel import hecke_bar_matrix
from ivhecke.twisted import GroupBlock, TwistedBlock, involutive_automorphisms

from bar_recipe_oracle import recipe_bar_row
from precanonical_oracle import check_precanonical_with_psi_squared
from representation_oracle import check_representation_per_element


def block(name, theta=None):
    sysm = parse_system(name)
    if theta is None:
        theta = sysm.identity_perm()
    return TwistedBlock(sysm, theta)


# ----------------------------------------------------------------------
# candidate grids

def test_candidate_counts():
    bz = enumerate_candidates("both_zero")
    assert len(bz) == 144
    assert sum(c.trivial for c in bz) == 2
    assert len(enumerate_candidates("left_nonzero")) == 8
    assert len(enumerate_candidates("classified_families", "hw")) == 12
    assert len(enumerate_candidates("classified_families", "hi")) == 64
    assert len(enumerate_candidates("classified_families", "h2i")) == 128


def test_unknown_case_and_mode():
    with pytest.raises(ValueError):
        enumerate_candidates("nope")
    with pytest.raises(ValueError):
        base_structures("hq")


def test_trivial_candidates_shape():
    for cand in enumerate_candidates("both_zero"):
        if cand.trivial:
            firsts = {row[0] for row in cand.gamma.rows}
            seconds = {row[1] for row in cand.gamma.rows}
            assert firsts == {ZERO}
            assert len(seconds) == 1
            assert seconds <= {V, -VI}


def test_base_structures_hi_rows():
    # the twisted partners, computed from the twist-and-rescale rule
    bases = base_structures("hi")
    assert bases["iota"] is IOTA_MATRIX
    assert bases["iota_alt"] is IOTA_ALT_MATRIX
    assert bases["iota_t"].rows == (
        (ONE, U), (ONE, ZERO), (ONE, U - 1), (U, ONE)
    )
    assert bases["iota_alt_t"].rows == (
        (ONE, U), (ONE, ZERO), (ONE, U + 1), (-U, -ONE)
    )


def test_base_structures_h2i():
    bases = base_structures("h2i")
    assert bases["pi"] is PI_MATRIX
    assert bases["pi_prime"] is PI_PRIME_MATRIX
    sq = bases["sq_iota"]
    assert sq.squared
    assert sq.rows == tuple(
        (a.square_v(), b.square_v()) for a, b in IOTA_MATRIX.rows
    )
    # the twisted pi partners differ from pi_prime
    assert bases["pi_t"].rows != PI_PRIME_MATRIX.rows
    assert bases["pi_prime_t"].rows != PI_MATRIX.rows


def test_squared_image_rejects_squared():
    with pytest.raises(ValueError):
        squared_image(PI_MATRIX)


def test_left_nonzero_satisfies_row_constraints():
    for cand in enumerate_candidates("left_nonzero"):
        assert quadratic_constraints_hold(cand.gamma), cand.provenance
        # C is forced nonzero, so these are genuinely nontrivial
        assert cand.gamma.rows[1][0]


# ----------------------------------------------------------------------
# representation check

def test_named_structures_pass_representation():
    for name in ("A2", "B2"):
        sysm = parse_system(name)
        for theta in involutive_automorphisms(sysm):
            blk = TwistedBlock(sysm, theta)
            for gamma in NAMED_STRUCTURES.values():
                assert check_representation(gamma, blk) is None


def test_representation_witness_example():
    # constant-v second column with a nonzero first column in the up rows:
    # fails the quadratic relation immediately
    bad = StructureMatrix(False, ((ONE, V), (ZERO, V), (ONE, V), (ZERO, V)))
    witness = check_representation(bad, block("A2"))
    assert witness is not None
    assert witness["relation"] == "quadratic"
    assert "element" in witness and "s" in witness


def test_representation_scan_both_zero():
    scan = representation_scan(enumerate_candidates("both_zero"), DEFAULT_SYSTEMS)
    assert len(scan.survivors) == 2
    trivial = {r["provenance"] for r in scan.candidates if r["trivial"]}
    assert set(scan.survivors) == trivial
    # every rejected candidate carries a located witness
    for rec in scan.candidates:
        if rec["status"] == "fail":
            assert rec["witness"]["relation"] in ("quadratic", "braid")
            assert rec["failed_on"] in DEFAULT_SYSTEMS


def test_representation_scan_left_nonzero():
    scan = representation_scan(enumerate_candidates("left_nonzero"), DEFAULT_SYSTEMS)
    assert scan.survivors == []
    assert all(r["status"] == "fail" for r in scan.candidates)


# ----------------------------------------------------------------------
# pre-canonicity

def test_precanonical_matches_bar_recipes():
    for name in ("A2", "B2"):
        sysm = parse_system(name)
        for theta in involutive_automorphisms(sysm):
            blk = TwistedBlock(sysm, theta)
            for label, gamma in NAMED_STRUCTURES.items():
                module = precanonical_test(gamma, blk)
                for j in range(len(blk.elements)):
                    assert module.bar_row(j) == recipe_bar_row(label, blk, j), (name, label, j)


def test_precanonical_group_mode_matches_hecke_bar():
    # the group block module against the word-level algebra: bar rows, the
    # h table solved on the same intervals, and the pkernel bar matrix.
    # The full pre-canonicity check runs on the small groups; B4's table is
    # left out (a solve there takes several seconds), since the solver is
    # fed exactly the rows compared here.
    for name in ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "H3", "D4", "I2(5)", "I2(8)"):
        sysm = parse_system(name)
        gb = GroupBlock(sysm)
        for squared in (False, True):
            H = HeckeAlgebra(sysm, squared=squared)
            gamma = squared_image(GROUP_PLAIN_MATRIX) if squared else GROUP_PLAIN_MATRIX
            if len(gb) <= 48:
                module = precanonical_test(gamma, gb)
            else:
                module = TwistedModule(gb, "h", gamma)
            rows = [
                {gb.index[x]: c for x, c in H.bar_basis_terms(w).items()} for w in gb.elements
            ]
            for j in range(len(gb)):
                assert module.bar_row(j) == rows[j], (name, squared, j)
            if name != "B4":
                expected = solve_canonical(gb.rho, gb.lower_indices, rows.__getitem__)
                assert H.kl_table().entries == expected, (name, squared)
            if not squared:
                bars = {(i, j): c for j, row in enumerate(rows) for i, c in row.items()}
                assert hecke_bar_matrix(sysm).entries == bars, name


def test_precanonical_rejects_v_scalings():
    blk = block("A2")
    for alpha, beta in ((V, ONE), (ONE, V), (-V, -V), (ONE, -V)):
        with pytest.raises(NotPreCanonical) as exc:
            precanonical_test(IOTA_MATRIX.scaled(alpha, beta), blk)
        assert exc.value.witness["reason"] == "diagonal not 1"


def test_precanonical_witness_no_usable_descent():
    # the all-zero-first-column both_zero candidate: nothing reaches past e
    gamma = StructureMatrix(False, ((ZERO, -VI),) * 4)
    with pytest.raises(NotPreCanonical) as exc:
        precanonical_test(gamma, block("A2"))
    assert exc.value.witness == {"reason": "no usable descent", "theta": [0, 1], "element": [0]}


def test_precanonical_witness_inexact_division():
    # doubling the noncommuting ascent coefficient of iota: psi(m_sts)
    # would need a division by 2
    gamma = StructureMatrix(False, ((2 * ONE, ZERO),) + IOTA_MATRIX.rows[1:])
    with pytest.raises(NotPreCanonical) as exc:
        precanonical_test(gamma, block("A2"))
    assert exc.value.witness == {
        "reason": "inexact division",
        "theta": [0, 1],
        "element": [0, 1, 0],
        "s": 0,
    }


@pytest.mark.parametrize(
    "gamma",
    [
        IOTA_MATRIX.scaled(V, ONE),
        StructureMatrix(False, ((ZERO, -VI),) * 4),
        StructureMatrix(False, ((2 * ONE, ZERO),) + IOTA_MATRIX.rows[1:]),
    ],
    ids=["v_scaling", "no_usable_descent", "inexact_division"],
)
def test_canonical_table_refuses_with_the_precanonical_witness(gamma):
    # the descent recurrence would return a table for the first: its seeds
    # are psi-invariant only when psi exists
    blk = block("A2")
    with pytest.raises(NotPreCanonical) as expected:
        precanonical_test(gamma, blk)
    with pytest.raises(NotPreCanonical) as exc:
        TwistedModule(blk, "x", gamma).canonical_table()
    assert exc.value.witness == expected.value.witness


def test_precanonical_accepts_sign_scalings():
    blk = block("A2")
    for gamma in NAMED_STRUCTURES.values():
        for alpha in (ONE, -ONE):
            for beta in (ONE, -ONE):
                module = precanonical_test(gamma.scaled(alpha, beta), blk)
                assert module.bar_row(0) == {0: ONE}


def test_twisted_structure_is_precanonical_without_rescaling():
    # the algebra involution produces an isomorphic structure, so the
    # twist itself (before any sign rescaling) already passes
    blk = block("A2")
    twisted = IOTA_MATRIX.theta_twisted()
    assert check_representation(twisted, blk) is None
    precanonical_test(twisted, blk)


def test_wrong_twist_second_columns_fail():
    # the twist's second column must be (v^k - v^-k) - entry; the sign
    # variants (v^k + v^-k) - entry break the quadratic relation
    blk = block("A2")
    wrong_h = StructureMatrix(
        False, tuple((-a, (V + VI) - b) for a, b in IOTA_MATRIX.rows)
    )
    assert check_representation(wrong_h, blk) is not None
    wrong_h2 = StructureMatrix(
        True,
        tuple((-a, (monomial(2) + monomial(-2)) - b) for a, b in PI_MATRIX.rows),
    )
    assert check_representation(wrong_h2, blk) is not None
    # while the implemented twists pass
    assert check_representation(IOTA_MATRIX.theta_twisted(), blk) is None
    assert check_representation(PI_MATRIX.theta_twisted(), blk) is None


# ----------------------------------------------------------------------
# transports

def test_transport_identity_and_involution():
    sysm = parse_system("A2")
    table = HeckeAlgebra(sysm).kl_table()
    assert transport_basis(table, 0, 0, False) == table.entries
    # transporting twice with the same pattern returns the original
    from dataclasses import replace

    once = transport_basis(table, 1, 1, True)
    table2 = replace(table, entries=once)
    assert transport_basis(table2, 1, 1, True) == table.entries


# ----------------------------------------------------------------------
# full runs (small batteries; the default battery runs in acceptance)

def test_classification_run_hw():
    rep = classification_run("hw", ["I2(3)", "A2"])
    assert rep.survivor_count == 4
    assert set(rep.survivors) == {
        "grp_plain[1]", "grp_plain[-1]", "grp_flip[1]", "grp_flip[-1]",
    }
    assert len(rep.classes) == 1


def test_classification_run_hi():
    rep = classification_run("hi", ["I2(3)", "A2"])
    assert rep.survivor_count == 16
    expected = {
        f"{base}[{a},{b}]"
        for base in ("iota", "iota_t", "iota_alt", "iota_alt_t")
        for a in ("1", "-1")
        for b in ("1", "-1")
    }
    assert set(rep.survivors) == expected
    assert len(rep.classes) == 1


def test_classification_run_h2i():
    rep = classification_run("h2i", ["I2(3)", "I2(4)"])
    assert rep.survivor_count == 32
    assert len(rep.classes) == 4
    partition = {
        frozenset(p.split("[")[0] for p in cl) for cl in rep.classes
    }
    assert partition == {
        frozenset({"pi", "pi_t"}),
        frozenset({"pi_prime", "pi_prime_t"}),
        frozenset({"sq_iota", "sq_iota_t"}),
        frozenset({"sq_iota_alt", "sq_iota_alt_t"}),
    }
    assert all(len(cl) == 8 for cl in rep.classes)


def test_classification_rejections_are_precanonical():
    # unit rescalings by +-v pass the representation stage and are caught
    # by the pre-canonicity stage
    rep = classification_run("hi", ["I2(3)"])
    rejected = [r for r in rep.candidates if r["status"] != "survivor"]
    assert len(rejected) == 48
    assert all(r["status"] == "rejected_precanonical" for r in rejected)
    assert all(r["witness"]["reason"] == "diagonal not 1" for r in rejected)


def test_class_report_json():
    rep = classification_run("hw", ["I2(3)"])
    data = json.loads(rep.to_json())
    assert data["mode"] == "hw"
    assert data["survivor_count"] == len(data["survivors"]) == 4
    assert data["candidate_count"] == 12
    assert [sorted(c) for c in data["classes"]] == [sorted(rep.classes[0])]
    for tr in data["transports"]:
        assert set(tr) == {"from", "to", "sign_l", "sign_rho", "negate_v"}


ORACLE_SYSTEMS = ("I2(3)", "I2(4)", "A3")


def classification_reports() -> list[str]:
    runs = [classification_run(mode, ORACLE_SYSTEMS) for mode in ("hw", "hi", "h2i")]
    scans = [
        representation_scan(enumerate_candidates(grid), ORACLE_SYSTEMS)
        for grid in ("both_zero", "left_nonzero")
    ]
    return [report.to_json() for report in runs + scans]


def test_reports_are_those_of_the_oracle_checks(monkeypatch):
    fast = classification_reports()
    calls = Counter()

    def counted(name, check):
        def run(*args):
            calls[name] += 1
            return check(*args)

        return run

    monkeypatch.setattr(
        classify, "check_representation", counted("representation", check_representation_per_element)
    )
    monkeypatch.setattr(
        TwistedModule, "check_precanonical", counted("precanonical", check_precanonical_with_psi_squared)
    )
    assert classification_reports() == fast
    assert calls["representation"] > 0 and calls["precanonical"] > 0


# ----------------------------------------------------------------------
# structural identities

def quadratic_constraints_hold(gamma: StructureMatrix) -> bool:
    """The constraint system satisfied by every representation-passing
    four-row structure: with rows ((A,B),(C,D),(E,F),(G,H)) and parameter
    v^k,

        (B - v^k)(B + v^-k) = (D - v^k)(D + v^-k) = -AC,
        (F - v^k)(F + v^-k) = (H - v^k)(H + v^-k) = -EG,
        A or C nonzero  =>  B + D = v^k - v^-k,
        E or G nonzero  =>  F + H = v^k - v^-k,
        both columns active => D - H in {1, -1} and B - F in {1, -1}.
    """
    if len(gamma.rows) != 4:
        raise ValueError("expects a four-row structure")
    (a, b), (c, d), (e, f), (g, h) = gamma.rows
    vk = monomial(2 if gamma.squared else 1)
    vki = monomial(-2 if gamma.squared else -1)
    u = gamma.parameter_diff

    def quad(t):
        return (t - vk) * (t + vki)

    if quad(b) != -(a * c) or quad(d) != -(a * c):
        return False
    if quad(f) != -(e * g) or quad(h) != -(e * g):
        return False
    if (a or c) and b + d != u:
        return False
    if (e or g) and f + h != u:
        return False
    if (a or c) and (e or g):
        if d - h not in (ONE, -ONE):
            return False
        if b - f not in (ONE, -ONE):
            return False
    return True


def test_quadratic_constraints_on_named():
    for gamma in NAMED_STRUCTURES.values():
        assert quadratic_constraints_hold(gamma)
    for gamma in base_structures("hi").values():
        assert quadratic_constraints_hold(gamma)
    for gamma in base_structures("h2i").values():
        assert quadratic_constraints_hold(gamma)


def test_quadratic_constraints_violations():
    # B + D != u with a nonzero first column
    bad = StructureMatrix(False, ((ONE, V), (ONE, V), (ZERO, V), (ZERO, -VI)))
    assert not quadratic_constraints_hold(bad)
    with pytest.raises(ValueError):
        quadratic_constraints_hold(GROUP_PLAIN_MATRIX)


def test_group_block_interface():
    sysm = parse_system("A2")
    gb = GroupBlock(sysm)
    assert gb.elements == sysm.elements()
    assert len(gb) == 6
    for s in range(2):
        for i, w in enumerate(gb.elements):
            j, commutes, up = gb.cross[s][i]
            sw = sysm.left_mult(s, w)
            assert gb.elements[j] == sw
            assert up == (len(sw) > len(w))
            assert commutes is False
    assert sysm.bruhat_leq(gb.elements[0], gb.elements[-1])
    assert gb.lower_indices(0) == (0,)
