"""The classification's stages as they ran before, kept as the oracles.

``classify.screen_candidates`` checks pre-canonicity and solves canonical
tables once per sign class and block, and gives each candidate its class's
witness, or its class's tables and the sign transport that carries them to
its own.  ``screen_per_candidate`` is the loop as it ran before: every
candidate checked on its own module, block by block, and every survivor's
tables solved from its own structure.  Both must give the same records and
the same tables, entry for entry and in key order.

``classify.classification_run`` compares each survivor with the first
member of each class found so far, deciding each transport once per pair
of sign classes.  ``classification_per_pair`` builds every survivor's
own tables and tries every transport on every pair of survivors that the
union-find reaches; both must give the same report, byte for byte.
"""

from dataclasses import replace

from ivhecke.classify import (
    TRANSPORTS,
    ClassReport,
    battery,
    check_representation,
    enumerate_candidates,
    precanonical_test,
    screen_candidates,
    transport_basis,
)
from ivhecke.hecke import NotPreCanonical
from ivhecke.laurent import ONE
from ivhecke.twisted import GroupBlock


def screen_per_candidate(candidates, all_blocks):
    """(records, {survivor provenance: its canonical tables}) as ``screen_candidates`` returns them."""
    records = []
    tables = {}
    for cand in candidates:
        rec = {"provenance": cand.provenance, "base": cand.base}
        status = "survivor"
        found = []
        for name, blk in all_blocks:
            witness = check_representation(cand.gamma, blk)
            if witness is not None:
                status = "rejected_representation"
                rec["failed_on"] = name
                rec["witness"] = witness
                break
            try:
                found.append(precanonical_test(cand.gamma, blk))
            except NotPreCanonical as exc:
                status = "rejected_precanonical"
                rec["failed_on"] = name
                rec["witness"] = exc.witness
                break
        rec["status"] = status
        records.append(rec)
        if status == "survivor":
            tables[cand.provenance] = [module.canonical_table() for module in found]
    return records, tables


def sign_rescaled_table(table, block, alpha, beta):
    """The canonical table of rep[alpha, beta], alpha, beta in {1, -1}, from rep's on block.

    Its entries are d_i d_j f_ij with d_x = alpha^{rho(x) - l(x)}
    beta^{l(x) - 2 rho(x)} on a twisted block and alpha^{-l(x)} on the group
    block: ``transport_basis`` with (a, b) the exponents of -1 modulo 2.
    """
    flip_alpha, flip_beta = int(alpha == -ONE), int(beta == -ONE)
    if isinstance(block, GroupBlock):
        a, b = flip_alpha, 0
    else:
        a, b = flip_alpha ^ flip_beta, flip_alpha
    return replace(table, columns=transport_basis(table, a, b, False))


def tables_transport_related(fs, gs):
    """The first transport making every listed f-table equal its g-table."""
    for a, b, neg in TRANSPORTS:
        if all(transport_basis(f, a, b, neg) == g.columns for f, g in zip(fs, gs)):
            return (a, b, neg)
    return None


def classification_per_pair(mode, systems):
    """``classification_run(mode, systems)``, grouping pair by pair on each survivor's own tables."""
    names = list(systems)
    candidates = enumerate_candidates("classified_families", mode)
    all_blocks = battery(names, mode)
    records, survivors = screen_candidates(candidates, all_blocks)
    tables = {}
    for cand in candidates:
        if cand.provenance in survivors:
            _rep, alpha, beta = cand.gamma.sign_normal_form()
            class_tables = survivors[cand.provenance].tables
            tables[cand.provenance] = [
                sign_rescaled_table(table, blk, alpha, beta)
                for table, (_name, blk) in zip(class_tables, all_blocks)
            ]

    provs = list(tables)
    parent = {p: p for p in provs}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    transports = []
    for i in range(len(provs)):
        for j in range(i + 1, len(provs)):
            if find(provs[i]) == find(provs[j]):
                continue
            combo = tables_transport_related(tables[provs[i]], tables[provs[j]])
            if combo is not None:
                parent[find(provs[j])] = find(provs[i])
                transports.append(
                    {
                        "from": provs[i],
                        "to": provs[j],
                        "sign_l": combo[0],
                        "sign_rho": combo[1],
                        "negate_v": combo[2],
                    }
                )
    groups = {}
    for p in provs:
        groups.setdefault(find(p), []).append(p)
    return ClassReport(
        mode=mode,
        case="classified_families",
        systems=names,
        candidates=records,
        survivors=provs,
        classes=sorted(sorted(g) for g in groups.values()),
        transports=transports,
    )
