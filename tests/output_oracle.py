"""The output writers the commands replaced, kept as their byte-for-byte oracles.

``CanonicalTable.to_csv``, ``to_json`` and ``to_text`` write their lines
straight from the table's rows, and the ``pkernel`` report writes its kls
entries in chunks as they are formed.  Before, a table's CSV went through
``csv.writer``, and its JSON and the ``pkernel`` report were each one
``json.dumps(..., indent=2)`` of the whole document, which ``cli._emit``
wrote with a newline appended when it lacked one.  These functions build
the documents that way, one ``to_text``/``to_json`` call per entry, with
no cache.
"""

import csv
import io
import json

from ivhecke import cli
from ivhecke.coxeter import parse_system
from ivhecke.ivmodules import canonical_table
from ivhecke.pkernel import NotParityCompatible, kernel_report
from ivhecke.twisted import parse_theta


def table_rows(table, labels, poly_form):
    """(labels[i], labels[j], poly_form(entry)) ordered by j, then i."""
    entries = table.entries
    return [(labels[i], labels[j], poly_form(entries[(i, j)])) for j, i in sorted((j, i) for i, j in entries)]


def text_labels(table):
    return [" ".join(map(str, x)) or "e" for x in table.elements]


def table_csv(table):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["x", "w", "poly"])
    writer.writerows(table_rows(table, text_labels(table), lambda p: p.to_text()))
    return buf.getvalue()


def table_json_doc(table):
    """The document ``to_json`` renders; entries share their "x" and "w" lists."""
    words = [list(x) for x in table.elements]
    return {
        "label": table.label,
        "system": table.system.system_json(),
        "theta": list(table.theta),
        "entries": [
            {"x": x, "w": w, "poly": poly} for x, w, poly in table_rows(table, words, lambda p: p.to_json())
        ],
    }


def table_json(table):
    return json.dumps(table_json_doc(table), indent=2)


def table_text(table):
    lines = [f"# canonical table: label={table.label} theta={','.join(map(str, table.theta))}\n"]
    lines += [f"{x} | {w} | {poly}\n" for x, w, poly in table_rows(table, text_labels(table), lambda p: p.to_text())]
    return "".join(lines)


TABLE_WRITERS = {"csv": table_csv, "json": table_json, "text": table_text}


def emitted(text):
    """What ``cli._emit`` wrote for a finished text."""
    return text if text.endswith("\n") else text + "\n"


def report_output(report, fmt):
    """``cli._emit_report`` of a whole report, as one document."""
    if fmt == "json":
        return emitted(json.dumps(report, indent=2, sort_keys=True))
    return emitted(cli._report_text(report))


def table_output(system, theta, basis, fmt):
    """The output of ``ivhecke table``."""
    system = parse_system(system)
    return emitted(TABLE_WRITERS[fmt](canonical_table(system, parse_theta(system, theta), basis)))


def pkernel_output(argv):
    """(exit code, output) of ``ivhecke pkernel``, the report built as one dict."""
    args = cli.build_parser().parse_args(argv)
    try:
        involution, gamma = kernel_report(cli._pkernel_bar(args))
    except NotParityCompatible as exc:
        witness = dict(exc.witness, check="kernel_from_bar", basis=args.basis, grading=args.grading)
        if args.fmt == "json":
            return 1, emitted(json.dumps({"ok": False, "witness": witness}, indent=2, sort_keys=True))
        return 1, emitted("FAIL\n" + cli._report_text(witness))
    report = {
        "system": args.system,
        "basis": args.basis,
        "grading": args.grading,
        "in_image": True,
        "roundtrip_identity": True,
        "is_involution": involution,
    }
    if gamma is not None:
        labels = [str(list(x)) for x in gamma.poset.elements]
        report["kls"] = {f"{labels[i]}<={labels[j]}": gamma.values[(i, j)].to_text() for i, j in sorted(gamma.values)}
    return (0 if gamma is not None else 1), report_output(report, args.fmt)
