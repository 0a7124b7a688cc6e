"""The invariant suite and the inversion check as they were before their one-pass rewrites.

``invariant_suite`` here walks a block's comparable pairs once per check
(degree bounds per label, then the mod-2 congruence and half sums, then
the rank-2 value sets, reading h's by an n^2 ``entry`` scan), and
``inversion_check`` sums over every (x, y, w) of a block, probing
``entry`` at each triple.  ``entry`` (``hecke_oracle``) is the
``CanonicalTable.entry`` these loops called.  ``ivmodules`` now reads
each table once per pair and builds the inversion sums as sparse
products over the target table's columns.  Tests compare the JSON of
both, key and record order included, on clean tables and on corrupted
ones.
"""

from typing import Sequence

from ivhecke.coxeter import CoxeterSystem
from ivhecke.hecke import HeckeAlgebra, NotPreCanonical
from ivhecke.ivmodules import TwistedModule, _halves_report, longest_twist
from ivhecke.laurent import (
    ONE,
    ZERO,
    mod2_equal,
    monomial,
    one_plus_even_positive,
    one_plus_positive,
)
from ivhecke.twisted import TwistedBlock, compose_perms, involutive_automorphisms

from hecke_oracle import entry
from row_solve_oracle import solve_canonical


def invariant_suite(system: CoxeterSystem, theta: Sequence[int]) -> dict:
    """Run every per-block structural invariant; return a report dict.

    The report has "checks": {name: list of failure records} (empty list =
    pass) and "observations" for the report-only positivity statements and
    rank-2 value sets.
    """
    block = TwistedBlock(system, theta)
    h_table = HeckeAlgebra(system).kl_table()
    mods = {label: TwistedModule(block, label) for label in ("pi", "pi_prime", "iota")}
    tables = {label: mod.canonical_table() for label, mod in mods.items()}
    h_index = {w: i for i, w in enumerate(h_table.elements)}

    checks: dict[str, list] = {}
    obs: dict = {}

    # --- psi unitriangular and compatible, hence psi^2 = id (one witness on failure)
    for label, mod in mods.items():
        try:
            mod.check_precanonical()
            checks[f"bar_structure_{label}"] = []
        except NotPreCanonical as exc:
            checks[f"bar_structure_{label}"] = [exc.witness]

    # --- the recurrence's table against the psi-row solve with ties reversed
    fails = []
    for label, mod in mods.items():
        rows = solve_canonical(
            block.rho, block.lower_indices, mod.bar_row, reverse_ties=True, labels=block.elements
        )
        if tables[label].entries != rows:
            fails.append({"check": "order_independence", "label": label})
    checks["order_independence"] = fails

    # --- degree bounds over all comparable pairs
    for label, normalizer, member in (
        ("pi", "length", one_plus_even_positive),
        ("pi_prime", "length", one_plus_even_positive),
        ("iota", "rank", one_plus_positive),
    ):
        fails = []
        t = tables[label]
        for j in range(len(block)):
            for i in block.lower_indices(j):
                if normalizer == "length":
                    gap = len(block.elements[j]) - len(block.elements[i])
                else:
                    gap = block.rho[j] - block.rho[i]
                val = entry(t, i, j) * monomial(gap)
                if not member(val):
                    fails.append(
                        {
                            "x": list(block.elements[i]),
                            "w": list(block.elements[j]),
                            "normalized": val.to_json(),
                        }
                    )
        checks[f"degree_bound_{label}"] = fails

    # --- mod-2 congruence pi' == pi == h, and the half-sum memberships
    fails = []
    half_fails = []
    h_plus_nonneg = True
    h_minus_nonneg = True
    min_seen = 0
    for j in range(len(block)):
        for i in block.lower_indices(j):
            pi = entry(tables["pi"], i, j)
            pip = entry(tables["pi_prime"], i, j)
            h = entry(
                h_table, h_index[block.elements[i]], h_index[block.elements[j]]
            )
            if not (mod2_equal(pip, pi) and mod2_equal(pi, h)):
                fails.append({"x": list(block.elements[i]), "w": list(block.elements[j])})
            for a, b, tag in (
                (h, pi, "h+pi"),
                (h, -pi, "h-pi"),
                (h, pip, "h+pi'"),
                (h, -pip, "h-pi'"),
                (pi, pip, "pi+pi'"),
                (pi, -pip, "pi-pi'"),
            ):
                ok, nonneg, mn = _halves_report(a, b)
                if not ok:
                    half_fails.append(
                        {"pair": tag, "x": list(block.elements[i]), "w": list(block.elements[j])}
                    )
                if tag == "h+pi" and not nonneg:
                    h_plus_nonneg = False
                if tag == "h-pi" and not nonneg:
                    h_minus_nonneg = False
                if tag in ("h+pi", "h-pi") and mn is not None:
                    min_seen = min(min_seen, mn)
    checks["congruence_mod2"] = fails
    checks["half_membership"] = half_fails
    obs["h_pi_half_nonneg"] = {
        "h_plus_pi": h_plus_nonneg,
        "h_minus_pi": h_minus_nonneg,
        "min_coefficient": min_seen,
    }

    # --- dihedral value sets
    if system.rank == 2:
        norm_values = {"h": set(), "pi": set(), "iota": set()}
        for j in range(len(block)):
            for i in block.lower_indices(j):
                gap = len(block.elements[j]) - len(block.elements[i])
                norm_values["pi"].add(entry(tables["pi"], i, j) * monomial(gap))
                rgap = block.rho[j] - block.rho[i]
                norm_values["iota"].add(entry(tables["iota"], i, j) * monomial(rgap))
        n = len(h_table.elements)
        for j in range(n):
            for i in range(n):
                if entry(h_table, i, j) or i == j:
                    gap = len(h_table.elements[j]) - len(h_table.elements[i])
                    norm_values["h"].add(entry(h_table, i, j) * monomial(gap))
        obs["dihedral_values"] = {
            k: sorted(p.to_text() for p in vals) for k, vals in norm_values.items()
        }

    return {
        "system": system.system_json(),
        "theta": list(block.theta),
        "checks": checks,
        "observations": obs,
        "ok": all(not v for v in checks.values()),
    }


def inversion_check(label: str, system: CoxeterSystem) -> list[dict]:
    """Verify the signed-inverse identity of the table family ``label``.

    Writing F for the full table over all involutive twists theta and
    w |-> w * (w0, theta0) for right translation by the longest twisted
    element, the claim is

        sum_w (-1)^{rho(x) + rho(w)} F_{x,w} F_{y w0+, w w0+} = delta_{x,y}

    with x, w, y ranging over one theta's block (the translation lands in
    the theta * theta0 block).  Returns failure records; empty = pass.

    theta * theta0 is again an involutive twist: every diagram automorphism
    fixes w0, the unique longest element, so theta commutes with theta0 =
    conjugation by w0, and the product of two commuting involutions is one.
    """
    theta0 = longest_twist(system)
    w0 = system.longest_element()
    thetas = involutive_automorphisms(system)
    blocks = {theta: TwistedBlock(system, theta) for theta in thetas}
    tables = {theta: TwistedModule(blocks[theta], label).canonical_table() for theta in thetas}
    failures: list[dict] = []
    for theta in thetas:
        blk = blocks[theta]
        t = tables[theta]
        target_theta = compose_perms(theta, theta0)
        blk2 = blocks[target_theta]
        t2 = tables[target_theta]
        # translation w = (x, theta) |-> (x * w0, theta * theta0)
        shift = [blk2.index[system.multiply(x, w0)] for x in blk.elements]
        n = len(blk)
        for xi in range(n):
            for yi in range(n):
                total = ZERO
                for w in range(n):
                    a = entry(t, xi, w)
                    if not a:
                        continue
                    b = entry(t2, shift[yi], shift[w])
                    if not b:
                        continue
                    sign = -1 if (blk.rho[xi] + blk.rho[w]) % 2 else 1
                    total = total.addmul(sign * a, b)
                expected = ONE if xi == yi else ZERO
                if total != expected:
                    failures.append(
                        {
                            "theta": list(theta),
                            "x": list(blk.elements[xi]),
                            "y": list(blk.elements[yi]),
                            "value": total.to_json(),
                        }
                    )
    return failures
