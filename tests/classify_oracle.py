"""The classification's candidate stages run candidate by candidate, kept as the oracle.

``classify.screen_candidates`` checks pre-canonicity and solves canonical
tables once per sign class and block, and gives each candidate its class's
witness or the sign transport of its class's table.  This is the loop as it
ran before: every candidate checked on its own module, block by block, and
every survivor's tables solved from its own structure.  Both must give the
same records and the same tables, entry for entry and in key order.
"""

from ivhecke.classify import check_representation, precanonical_test
from ivhecke.hecke import NotPreCanonical


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
