"""Tests for the classification pipeline.

The candidate grids are exhaustive by construction, so most tests here are
exact-count checks plus cross-validation of the structurally derived bar
involution against the letterwise recipes (tests/bar_recipe_oracle.py) and
the Hecke algebra bar, and exact witnesses of its failures.
"""

import hashlib
import json
from collections import Counter
from dataclasses import replace
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ivhecke import classify
from ivhecke.classify import (
    DEFAULT_SYSTEMS,
    IOTA_ALT_MATRIX,
    TRANSPORTS,
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
from ivhecke.hecke import HeckeAlgebra, NotPreCanonical
from ivhecke.ivmodules import (
    GROUP_PLAIN_MATRIX,
    IOTA_MATRIX,
    NAMED_STRUCTURES,
    PI_MATRIX,
    PI_PRIME_MATRIX,
    StructureMatrix,
    TwistedModule,
    act_word,
)
from ivhecke.laurent import ONE, U, V, VI, ZERO, monomial
from ivhecke.pkernel import hecke_bar_matrix
from ivhecke.twisted import GroupBlock, TwistedBlock, involutive_automorphisms

from bar_recipe_oracle import recipe_bar_row
from classify_oracle import classification_per_pair, screen_per_candidate
from precanonical_oracle import check_precanonical_with_psi_squared
from representation_oracle import check_representation_per_element
from row_solve_oracle import solve_canonical


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
                expected = solve_canonical(gb.rho, gb.lower_indices, rows.__getitem__, labels=gb.elements)
                assert H.kl_table().entries == expected, (name, squared)
            if not squared:
                assert hecke_bar_matrix(sysm).columns == dict(enumerate(rows)), name


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
    assert transport_basis(table, 0, 0, False) == table.columns
    # transporting twice with the same pattern returns the original
    once = transport_basis(table, 1, 1, True)
    table2 = replace(table, columns=once)
    assert transport_basis(table2, 1, 1, True) == table.columns


def flat(columns):
    """[((i, j), entry)] of columns, by column, each column in its key order."""
    return [((i, j), p) for j, column in columns.items() for i, p in column.items()]


@lru_cache(maxsize=None)
def real_tables():
    """Tables on both kinds of block, in v and in v^2."""
    return (
        HeckeAlgebra(parse_system("H3")).kl_table(),
        TwistedModule(block("A3", (2, 1, 0)), "iota").canonical_table(),
        TwistedModule(block("B3"), "pi_prime").canonical_table(),
    )


def test_transport_basis_is_the_entrywise_sign_and_twist():
    for table in real_tables():
        lengths = [len(x) for x in table.elements]
        for a, b, negate in TRANSPORTS:
            expected = {}
            for (i, j), p in table.entries.items():
                sign = (-1) ** (a * (lengths[i] + lengths[j]) + b * (table.ranks[i] + table.ranks[j]))
                q = p.negate_v() if negate else p
                expected[(i, j)] = q if sign == 1 else -q
            got = transport_basis(table, a, b, negate)
            assert flat(got) == list(expected.items()), (table.label, a, b, negate)


@settings(max_examples=60, deadline=None)
@given(k=st.integers(0, 2), t1=st.sampled_from(TRANSPORTS), t2=st.sampled_from(TRANSPORTS))
def test_transports_compose_by_xor(k, t1, t2):
    # grouping by sign class rests on this: the transports are the group (Z/2)^3
    table = real_tables()[k]
    once = replace(table, columns=transport_basis(table, *t1))
    twice = transport_basis(once, *t2)
    composed = transport_basis(table, t1[0] ^ t2[0], t1[1] ^ t2[1], t1[2] != t2[2])
    assert flat(twice) == flat(composed)


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


@pytest.mark.parametrize("systems", [ORACLE_SYSTEMS, DEFAULT_SYSTEMS], ids=["oracle", "default"])
@pytest.mark.parametrize("mode", ["hw", "hi", "h2i"])
def test_memoized_grouping_is_the_pairwise_grouping(mode, systems):
    assert classification_run(mode, systems).to_json() == classification_per_pair(mode, systems).to_json()


def hw_survivors():
    all_blocks = classify.battery(ORACLE_SYSTEMS, "hw")
    return classify.screen_candidates(enumerate_candidates("classified_families", "hw"), all_blocks)[1]


def test_a_group_block_class_has_a_nontrivial_stabilizer():
    # l = rho on the group block, so (1, 1, False) fixes every table
    for survivor in hw_survivors().values():
        assert all(classify._carries(f, f, (1, 1, False)) for f in survivor.tables)


def test_the_report_takes_the_first_carrying_transport():
    # grp_plain[1] and grp_plain[-1] share a sign class, and
    # sigma_p xor sigma_q = (1, 0, False) carries the one's tables onto
    # the other's; so does (0, 0, True), which comes first in TRANSPORTS
    survivors = hw_survivors()
    p, q = survivors["grp_plain[1]"], survivors["grp_plain[-1]"]
    assert p.sign_class == q.sign_class
    assert (p.transport, q.transport) == ((0, 0, False), (1, 0, False))

    def own(survivor):
        return [replace(table, columns=transport_basis(table, *survivor.transport)) for table in survivor.tables]

    for t in ((1, 0, False), (0, 0, True)):
        assert all(transport_basis(f, *t) == g.columns for f, g in zip(own(p), own(q)))
    report = classification_run("hw", ORACLE_SYSTEMS)
    assert report.transports[0] == {
        "from": "grp_plain[1]", "to": "grp_plain[-1]", "sign_l": 0, "sign_rho": 0, "negate_v": True
    }


def test_the_scan_and_the_screen_reject_a_grid_alike():
    # both walk the battery through one screening loop, and the screen also
    # tests pre-canonicity on each block before it moves to the next: a
    # candidate the scan fails is rejected by the screen on the same block
    # with the same witness, unless pre-canonicity fails on a block no later
    candidates = enumerate_candidates("both_zero")
    scan = representation_scan(candidates, ORACLE_SYSTEMS, "hi")
    all_blocks = classify.battery(ORACLE_SYSTEMS, "hi")
    records, _ = classify.screen_candidates(candidates, all_blocks)
    position = {(name, tuple(blk.theta)): k for k, (name, blk) in enumerate(all_blocks)}

    def stop(rec):
        return position[rec["failed_on"], tuple(rec["witness"]["theta"])]

    statuses = Counter()
    for scanned, screened in zip(scan.candidates, records):
        statuses[scanned["status"], screened["status"]] += 1
        if screened["status"] == "rejected_representation":
            assert (screened["failed_on"], screened["witness"]) == (scanned["failed_on"], scanned["witness"])
        elif scanned["status"] == "fail":
            assert screened["status"] == "rejected_precanonical"
            assert stop(screened) <= stop(scanned)
    assert statuses == {
        ("fail", "rejected_representation"): 136,
        ("fail", "rejected_precanonical"): 6,
        ("pass", "rejected_precanonical"): 2,
    }


def test_one_transport_per_survivor_needs_one_kind_of_block():
    mixed = classify.battery(["A2"], "hw") + classify.battery(["A2"], "hi")
    with pytest.raises(ValueError):
        classify.screen_candidates(enumerate_candidates("classified_families", "hw"), mixed)


#: SHA-256 of ``classification_run("hi", ["H4"]).to_json()``, recorded from
#: the pairwise grouping that ``classify_oracle.classification_per_pair`` keeps
H4_HI_REPORT_SHA256 = "237a4b60b865e21ee356a5b6ca54eba92de02fae3d004a2f3a60a847cfdbb4a3"


@pytest.mark.slow
def test_h4_hi_classification_is_pinned():
    report = classification_run("hi", ["H4"])
    assert report.survivor_count == 16
    assert len(report.classes) == 1
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == H4_HI_REPORT_SHA256


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


#: passes representation and pre-canonicity on both I2(3) blocks for some
#: rescalings, and fails a braid relation on I2(4): a class that stops at
#: different blocks for different candidates
LATE_FAILURE = enumerate_candidates("left_nonzero")[4].gamma


def assert_records_are_the_oracles(candidates, report, mode):
    """Each record's representation outcome is the per-element check's on
    the candidate's own gamma, block by block in battery order, up to the
    block where the record stops."""
    assert [r["provenance"] for r in report.candidates] == [c.provenance for c in candidates]
    for cand, rec in zip(candidates, report.candidates):
        stop = (rec.get("failed_on"), rec.get("witness", {}).get("theta"))
        for name, blk in classify.battery(ORACLE_SYSTEMS, mode):
            expected = check_representation_per_element(cand.gamma, blk)
            if expected is not None:
                assert rec["status"] in ("fail", "rejected_representation"), rec
                assert (rec["failed_on"], rec["witness"]) == (name, expected)
                break
            if stop == (name, list(blk.theta)):
                assert rec["status"] == "rejected_precanonical", rec
                break
        else:
            assert rec["status"] in ("pass", "survivor"), rec


@pytest.mark.parametrize("mode", ["hw", "hi", "h2i"])
def test_every_classified_candidate_has_its_own_oracle_witness(mode, monkeypatch):
    # the pipeline checks representation once per diagonal class, and
    # pre-canonicity and tables once per sign class; every record and every
    # survivor table must be the candidate's own, tables in key order too
    seeds = dict(base_structures(mode), **({"late": LATE_FAILURE} if mode == "hi" else {}))
    monkeypatch.setattr(classify, "base_structures", lambda _mode: seeds)
    candidates = enumerate_candidates("classified_families", mode)
    report = classification_run(mode, ORACLE_SYSTEMS)
    assert_records_are_the_oracles(candidates, report, mode)
    statuses = Counter(r["status"] for r in report.candidates)
    assert statuses["survivor"] == {"hw": 4, "hi": 16, "h2i": 32}[mode]
    assert statuses["rejected_representation"] == (4 if mode == "hi" else 0)
    assert statuses["rejected_precanonical"] > 0

    all_blocks = classify.battery(ORACLE_SYSTEMS, mode)
    records, survivors = classify.screen_candidates(candidates, all_blocks)
    expected_records, expected_tables = screen_per_candidate(candidates, all_blocks)
    assert report.candidates == records == expected_records
    assert report.survivors == list(survivors) == list(expected_tables)
    for prov, expected in expected_tables.items():
        # the survivor's own tables, rebuilt from its sign class's and its transport
        class_tables, sigma = survivors[prov].tables, survivors[prov].transport
        tables = [replace(table, columns=transport_basis(table, *sigma)) for table in class_tables]
        assert len(tables) == len(expected) == len(all_blocks), prov
        for got, want in zip(tables, expected):
            assert (got.label, got.theta, got.elements, got.ranks) == (want.label, want.theta, want.elements, want.ranks)
            assert list(got.entries.items()) == list(want.entries.items()), (prov, got.theta)


@pytest.mark.parametrize("grid", ["both_zero", "left_nonzero"])
def test_every_scanned_candidate_has_its_own_oracle_witness(grid):
    candidates = enumerate_candidates(grid)
    assert_records_are_the_oracles(candidates, representation_scan(candidates, ORACLE_SYSTEMS), "hi")


# ----------------------------------------------------------------------
# braid relations once per orbit shape and position

def diagonal_classes(mode):
    candidates = enumerate_candidates("classified_families", mode)
    return list(dict.fromkeys(c.gamma.diagonal_normal_form() for c in candidates))


def assert_orbit_check_is_the_oracles(structures, all_blocks):
    # the verdicts are shared across the battery, as the pipelines share them
    for gamma in structures:
        verdicts = {}
        for name, blk in all_blocks:
            got = check_representation(gamma, blk, verdicts)
            assert got == check_representation_per_element(gamma, blk), (gamma, name, blk.theta)


@pytest.mark.parametrize("mode", ["hw", "hi", "h2i"])
def test_orbit_check_is_the_per_element_check_on_the_battery(mode):
    assert_orbit_check_is_the_oracles(diagonal_classes(mode), classify.battery(DEFAULT_SYSTEMS, mode))


@pytest.mark.parametrize("grid", ["both_zero", "left_nonzero"])
def test_orbit_check_is_the_per_element_check_on_the_grids(grid):
    structures = [c.gamma for c in enumerate_candidates(grid)]
    assert_orbit_check_is_the_oracles(structures, classify.battery(DEFAULT_SYSTEMS, "hi"))


@pytest.mark.slow
@pytest.mark.parametrize("system", ["H4", "E6"])
def test_orbit_check_is_the_per_element_check_at_the_top(system):
    assert_orbit_check_is_the_oracles(diagonal_classes("hi"), classify.battery([system], "hi"))


def braid_fails(gamma, blk, s, t, i):
    m = blk.system.bond(s, t)
    st_word = tuple(s if k % 2 == 0 else t for k in range(m))
    ts_word = tuple(t if k % 2 == 0 else s for k in range(m))
    return act_word(gamma, blk, st_word, {i: ONE}) != act_word(gamma, blk, ts_word, {i: ONE})


def test_braid_witness_is_the_lowest_failing_index_not_the_first_in_orbit_order():
    # I2(5)'s untwisted block is one <s, t>-orbit, walked s, t, s, ... from
    # the identity; this structure fails the braid relation first at index
    # 3 = (0, 1, 0), but the walk reaches index 4 = (1, 0, 1), which also
    # fails, before it
    gamma = enumerate_candidates("both_zero")[6].gamma
    blk = block("I2(5)")
    walk = [0]
    while len(walk) < len(blk):
        walk.append(blk.cross[(len(walk) - 1) % 2][walk[-1]][0])
    assert walk == [0, 1, 4, 5, 3, 2]
    failing = [i for i in range(len(blk)) if braid_fails(gamma, blk, 0, 1, i)]
    assert min(failing) == 3 and next(i for i in walk if i in failing) == 4
    assert check_representation_per_element(gamma, blk) == {
        "relation": "braid",
        "s": 0,
        "t": 1,
        "element": [0, 1, 0],
        "theta": [0, 1],
    }
    assert check_representation(gamma, blk) == check_representation_per_element(gamma, blk)


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
    # the group structure repeats its rows, so D - H = 0 with both columns active
    assert not quadratic_constraints_hold(GROUP_PLAIN_MATRIX)


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
