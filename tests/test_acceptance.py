"""Release gate: the twelve headline checks, one test function each.

``pytest -v tests/test_acceptance.py`` prints one pass/fail line per
criterion.  Every comparison is exact Laurent/integer arithmetic; there
are no numerical tolerances anywhere in this file.  Expensive artifacts
(Coxeter systems, h-tables, per-block invariant reports) are memoized at
module level and shared across criteria, so the whole gate runs in about
a minute.

Batteries:

    CLASS_BATTERY      I2(2)..I2(6), A3, B3, H3     classification counts
    DEGREE_BATTERY     A3, B3, H3, D4, I2(2)..I2(8) degree bounds, suite
    INVERSION_BATTERY  A1, A2, A3, B2, B3, I2(2)..I2(6)
"""

from __future__ import annotations

import time

import pytest

from ivhecke.classify import (
    DEFAULT_SYSTEMS,
    base_structures,
    check_representation,
    classification_run,
    enumerate_candidates,
    representation_scan,
)
from ivhecke.coxeter import CoxeterSystem, parse_system
from ivhecke.hecke import CanonicalTable, HeckeAlgebra
from ivhecke.ivmodules import (
    TwistedModule,
    invariant_suite,
    inversion_check,
    recurrence_check,
)
from ivhecke.laurent import ONE, VI, monomial, one_plus_even_positive
from ivhecke.pkernel import (
    NotParityCompatible,
    bar_from_kernel,
    hecke_bar_matrix,
    kernel_from_bar,
    kls_function,
    module_bar_matrix,
)
from ivhecke.twisted import TwistedBlock, involutive_automorphisms

from embedding_oracle import embedding_check
from hecke_oracle import ElementAlgebra
from laurent_oracle import only_negative_exponents
from pkernel_oracle import is_p_kernel
from row_solve_oracle import solve_canonical

CLASS_BATTERY = DEFAULT_SYSTEMS
DEGREE_BATTERY = ("A3", "B3", "H3", "D4") + tuple(f"I2({m})" for m in range(2, 9))
INVERSION_BATTERY = ("A1", "A2", "A3", "B2", "B3") + tuple(f"I2({m})" for m in range(2, 7))

# ----------------------------------------------------------------------
# shared, lazily filled caches (filled once, reused by later criteria)

_SYSTEMS: dict[str, CoxeterSystem] = {}
_H_TABLES: dict[str, CanonicalTable] = {}
_SUITES: dict[str, list[tuple[tuple[int, ...], dict]]] = {}


def system(name: str) -> CoxeterSystem:
    if name not in _SYSTEMS:
        _SYSTEMS[name] = parse_system(name)
    return _SYSTEMS[name]


def h_table(name: str) -> CanonicalTable:
    if name not in _H_TABLES:
        _H_TABLES[name] = HeckeAlgebra(system(name)).kl_table()
    return _H_TABLES[name]


def suite_reports(name: str) -> list[tuple[tuple[int, ...], dict]]:
    """(theta, invariant_suite report) for every involutive twist."""
    if name not in _SUITES:
        sys_ = system(name)
        out = []
        for theta in involutive_automorphisms(sys_):
            out.append((theta, invariant_suite(sys_, theta)))
        _SUITES[name] = out
    return _SUITES[name]


# ----------------------------------------------------------------------
# criterion 1: canonical generators and the A2 bar-invariance oracle


def test_criterion_01_generator_columns_and_bar_oracle():
    # (a) in every battery system the canonical element of a generator s
    # is the standard generator plus v^-1 times the identity.  Checked two
    # independent ways: the solved table column, and directly -- the
    # candidate is bar-invariant, unitriangular with strictly negative
    # off-diagonal exponents and unit diagonal, which pins it uniquely.
    for name in CLASS_BATTERY:
        W = system(name)
        H = ElementAlgebra(W)
        for s in range(W.rank):
            cand = H.basis((s,)) + H.unit().scale(VI)
            assert H.bar(cand) == cand, (name, s)
        t = h_table(name)
        for s in range(W.rank):
            j = t.elements.index((s,))
            assert t.columns[j] == {0: VI, j: ONE}, (name, s)

    # (b) the full A2 table against the from-first-principles oracle
    t0 = time.perf_counter()
    W = system("A2")
    H = ElementAlgebra(W)
    t = h_table("A2")
    for j, w in enumerate(t.elements):
        col = t.columns[j]
        elt = H.from_terms({t.elements[i]: c for i, c in col.items()})
        assert H.bar(elt) == elt, f"column {w} not bar-invariant"
        assert col[j] == ONE
        for i, c in col.items():
            if i != j:
                assert only_negative_exponents(c), (w, t.elements[i])
            assert W.bruhat_leq(t.elements[i], w)
        assert H.underline(w, table=t) == elt
    dt = time.perf_counter() - t0
    assert dt < 1.0
    print(
        f"\n[criterion 01] generator columns in {len(CLASS_BATTERY)} systems"
        f" + A2 bar oracle: PASS ({dt * 1000:.0f} ms)"
    )


# ----------------------------------------------------------------------
# criterion 2: the representation scans (144 -> 2 trivial, 8 -> 0)


def test_criterion_02_representation_counts():
    t0 = time.perf_counter()
    cands = enumerate_candidates("both_zero")
    assert len(cands) == 144
    scan = representation_scan(cands, CLASS_BATTERY)
    trivial = sorted(c.provenance for c in cands if c.trivial)
    assert len(scan.survivors) == 2
    assert sorted(scan.survivors) == trivial

    cands8 = enumerate_candidates("left_nonzero")
    assert len(cands8) == 8
    scan8 = representation_scan(cands8, CLASS_BATTERY)
    assert scan8.survivors == []

    # the four named one-parameter structures satisfy both defining
    # relations on every block of the battery
    named = base_structures("hi")
    assert set(named) == {"iota", "iota_t", "iota_alt", "iota_alt_t"}
    for name in CLASS_BATTERY:
        W = system(name)
        for theta in involutive_automorphisms(W):
            block = TwistedBlock(W, theta)
            for base, gamma in named.items():
                assert check_representation(gamma, block) is None, (name, theta, base)
    dt = time.perf_counter() - t0
    assert dt < 300.0
    print(
        "\n[criterion 02] 144-grid -> 2 trivial survivors, 8-grid -> 0,"
        f" named structures pass everywhere: PASS ({dt:.1f}s)"
    )


# ----------------------------------------------------------------------
# criterion 3: pre-canonical classification counts (4 / 16 / 32)


def test_criterion_03_precanonical_counts():
    t0 = time.perf_counter()

    hw = classification_run("hw", CLASS_BATTERY)
    assert hw.survivor_count == 4
    assert len(hw.classes) == 1
    assert set(hw.survivors) == {
        f"{b}[{a}]" for b in ("grp_plain", "grp_flip") for a in ("1", "-1")
    }

    hi = classification_run("hi", CLASS_BATTERY)
    assert hi.survivor_count == 16
    assert len(hi.classes) == 1
    assert set(hi.survivors) == {
        f"{b}[{a},{c}]"
        for b in ("iota", "iota_t", "iota_alt", "iota_alt_t")
        for a in ("1", "-1")
        for c in ("1", "-1")
    }

    h2i = classification_run("h2i", CLASS_BATTERY)
    assert h2i.survivor_count == 32
    assert len(h2i.classes) == 4
    assert all(len(cls) == 8 for cls in h2i.classes)
    partition = sorted(sorted({p.split("[")[0] for p in cls}) for cls in h2i.classes)
    assert partition == [
        ["pi", "pi_t"],
        ["pi_prime", "pi_prime_t"],
        ["sq_iota", "sq_iota_t"],
        ["sq_iota_alt", "sq_iota_alt_t"],
    ]
    # the four named squared-parameter structures represent four distinct
    # equivalence classes
    reps = ("pi[1,1]", "pi_prime[1,1]", "sq_iota[1,1]", "sq_iota_alt[1,1]")
    owners = {r: next(k for k, cls in enumerate(h2i.classes) if r in cls) for r in reps}
    assert len(set(owners.values())) == 4

    dt = time.perf_counter() - t0
    assert dt < 300.0
    print(f"\n[criterion 03] survivors 4/16/32 in 1/1/4 classes: PASS ({dt:.1f}s)")


# ----------------------------------------------------------------------
# criterion 4: degree bounds, exact form, on the degree battery


def test_criterion_04_degree_bounds():
    h_pairs = 0
    for name in DEGREE_BATTERY:
        t = h_table(name)
        for (i, j), p in t.entries.items():
            gap = t.ranks[j] - t.ranks[i]
            assert one_plus_even_positive(p * monomial(gap)), (
                name,
                t.elements[i],
                t.elements[j],
            )
            h_pairs += 1
        for theta, report in suite_reports(name):
            for label in ("pi", "pi_prime", "iota"):
                assert report["checks"][f"degree_bound_{label}"] == [], (name, theta, label)
    print(
        f"\n[criterion 04] normalized h/pi/pi' in 1 + v^2 Z[v^2], iota in 1 + v Z[v],"
        f" on {len(DEGREE_BATTERY)} systems ({h_pairs} h-pairs): PASS"
    )


# ----------------------------------------------------------------------
# criterion 5: mod-2 congruence of the three tables on A3, B3


def test_criterion_05_mod2_congruence():
    blocks = 0
    for name in ("A3", "B3"):
        for theta, report in suite_reports(name):
            assert report["checks"]["congruence_mod2"] == [], (name, theta)
            blocks += 1
    print(f"\n[criterion 05] pi' == pi == h mod 2 on every pair ({blocks} blocks): PASS")


# ----------------------------------------------------------------------
# criterion 6: half-combinations lie in Z[v^-1]; positivity reported only


def test_criterion_06_half_combinations():
    flags = []
    for name in DEGREE_BATTERY:
        for theta, report in suite_reports(name):
            assert report["checks"]["half_membership"] == [], (name, theta)
            o = report["observations"]["h_pi_half_nonneg"]
            flags.append((o["h_plus_pi"], o["h_minus_pi"], o["min_coefficient"]))
    all_nonneg = all(a and b for a, b, _ in flags)
    floors = [c for _, _, c in flags if c is not None]
    print(
        f"\n[criterion 06] six half-combinations in Z[v^-1] on {len(flags)} blocks: PASS"
        f" (observed, not asserted: (h+-pi)/2 nonnegative on all blocks: {all_nonneg},"
        f" coefficient floor {min(floors)})"
    )


# ----------------------------------------------------------------------
# criterion 7: dihedral value sets after degree normalization


def test_criterion_07_dihedral_value_sets():
    seen_iota: set[str] = set()
    for m in range(2, 9):
        for theta, report in suite_reports(f"I2({m})"):
            vals = report["observations"]["dihedral_values"]
            assert set(vals["h"]) <= {"0", "1"}, (m, theta, vals["h"])
            assert set(vals["pi"]) <= {"0", "1"}, (m, theta, vals["pi"])
            assert set(vals["iota"]) <= {"0", "1", "1 + v", "1 - v", "1 - v^2"}, (
                m,
                theta,
                vals["iota"],
            )
            seen_iota |= set(vals["iota"])
    print(
        "\n[criterion 07] dihedral normalized values: h, pi in {0, 1}; iota values"
        f" {sorted(seen_iota)}: PASS"
    )


# ----------------------------------------------------------------------
# criterion 8: generator recurrences by direct expansion on A3, B3


def test_criterion_08_recurrences():
    combos = 0
    for name in ("A3", "B3"):
        W = system(name)
        for theta in involutive_automorphisms(W):
            for label in ("pi", "pi_prime", "iota"):
                assert recurrence_check(label, W, theta) == [], (name, theta, label)
                combos += 1
    print(
        "\n[criterion 08] recurrences (incl. the v^2 + v^-2 eigenvalue at rank-down"
        f" pairs) hold at every (s, w), {combos} table/twist combinations: PASS"
    )


# ----------------------------------------------------------------------
# criterion 9: the signed-inverse identity across translated blocks


def test_criterion_09_signed_inversion():
    for name in INVERSION_BATTERY:
        W = system(name)
        for label, failures in inversion_check(W).items():
            assert failures == [], (name, label)
    print(
        f"\n[criterion 09] signed inversion for pi/pi'/iota on"
        f" {len(INVERSION_BATTERY)} systems, all twists: PASS"
    )


# ----------------------------------------------------------------------
# criterion 10: the swap embedding W x W carries h to iota


def test_criterion_10_product_embedding():
    for name in ("A1", "A2"):
        assert embedding_check(system(name)) == [], name
    print(
        "\n[criterion 10] canonical h-elements map to iota-canonical elements"
        " under the swap embedding (factors A1, A2): PASS"
    )


# ----------------------------------------------------------------------
# criterion 11: P-kernel roundtrips and the KLS/KL comparison


def test_criterion_11_pkernel_roundtrip():
    for name in ("A2", "B2"):
        W = system(name)
        bm = hecke_bar_matrix(W)
        K = kernel_from_bar(bm)
        assert bar_from_kernel(K, bm.grading).columns == bm.columns, name
        assert is_p_kernel(K, bm.grading), name

        # the KLS function of the regular bar structure is the KL table
        # read through q = v^2
        gam = kls_function(K, bm.grading)
        t = h_table(name)
        assert set(gam.values) == set(t.entries)
        for (i, j), p in t.entries.items():
            gap = t.ranks[j] - t.ranks[i]
            assert gam.values[(i, j)].square_v() == p * monomial(gap), (
                name,
                t.elements[i],
                t.elements[j],
            )

        # block-module bar structures with the length grading also roundtrip
        id_theta = tuple(range(W.rank))
        for label in ("pi", "pi_prime"):
            bmod = module_bar_matrix(W, id_theta, label, grading="length")
            Km = kernel_from_bar(bmod)
            assert bar_from_kernel(Km, bmod.grading).columns == bmod.columns, (name, label)
            assert is_p_kernel(Km, bmod.grading), (name, label)

    # the iota structure on I2(4) is outside the P-kernel picture for both
    # gradings; the witness locates a parity-incompatible entry
    for grading in ("length", "rho"):
        bio = module_bar_matrix(system("I2(4)"), (0, 1), "iota", grading=grading)
        with pytest.raises(NotParityCompatible) as exc:
            kernel_from_bar(bio)
        assert set(exc.value.witness) >= {"pair", "entry", "shift"}, grading
    print(
        "\n[criterion 11] P-kernel roundtrips on h/pi/pi', KLS == KL under q = v^2,"
        " iota parity obstruction on I2(4): PASS"
    )


# ----------------------------------------------------------------------
# criterion 12: structural suite (psi^2, compatibility, triangularity,
# solver order-independence) on every computed structure


def test_criterion_12_structural_suite():
    blocks = 0
    for name in DEGREE_BATTERY:
        for theta, report in suite_reports(name):
            block = TwistedBlock(system(name), theta)
            for label in ("pi", "pi_prime", "iota"):
                assert report["checks"][f"bar_structure_{label}"] == [], (name, theta, label)
                # check_precanonical proves psi^2 = id rather than testing it
                mod = TwistedModule(block, label)
                for j in range(len(block)):
                    assert mod.bar(mod.bar_row(j)) == {j: ONE}, (name, theta, label, j)
            assert report["checks"]["order_independence"] == [], (name, theta)
            assert report["ok"] is True, (name, theta)
            blocks += 1

    # the algebra-level solve is independent of the tie-breaking order too
    for name in ("A2", "B2", "A3"):
        W = system(name)
        H = HeckeAlgebra(W)
        t = h_table(name)
        index = {w: i for i, w in enumerate(t.elements)}

        def bar_row(j: int, _H=H, _t=t, _index=index) -> dict:
            return {_index[x]: c for x, c in _H.bar_basis_terms(_t.elements[j]).items()}

        def lower(j: int, _W=W, _t=t) -> tuple[int, ...]:
            return tuple(i for i in range(j + 1) if _W.bruhat_leq(_t.elements[i], _t.elements[j]))

        for reverse in (False, True):
            entries = solve_canonical(t.ranks, lower, bar_row, reverse_ties=reverse, labels=t.elements)
            assert entries == t.entries, (name, reverse)
    print(
        f"\n[criterion 12] bar structure checks, psi^2 = id + solver order-independence on"
        f" {blocks} blocks and 3 regular tables: PASS"
    )
