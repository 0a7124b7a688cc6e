"""Command-line surface.

Subcommands:

* ``table``    -- compute one canonical table (h, pi, pi_prime or iota)
* ``verify``   -- run the invariant suite for one (system, theta)
* ``classify`` -- run a classification mode over a battery of systems
* ``invert``   -- check the signed-inverse identity for all three bases
* ``pkernel``  -- P-kernel roundtrip and KLS report for one structure

Exit codes: 0 all requested checks pass, 1 a check failed (a
machine-readable witness is printed), 2 bad arguments or an output path
that cannot be written.  Output is
deterministic for a fixed invocation; elements are always ordered by
(length, ShortLex word).
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from json.encoder import encode_basestring_ascii as encode
from operator import itemgetter
from typing import Iterable, Iterator, Optional, Sequence, Union

from .classify import DEFAULT_SYSTEMS, classification_run
from .coxeter import CoxeterSystem, InfiniteOrTooLarge, parse_system
from .ivmodules import canonical_table, inversion_check, invariant_suite
from .pkernel import (
    BarMatrix,
    IncidenceFunction,
    NotParityCompatible,
    hecke_bar_matrix,
    kernel_report,
    module_bar_matrix,
)
from .twisted import parse_theta


def build_system(args: argparse.Namespace) -> CoxeterSystem:
    """The system named by --system; with --max-elements, refuse a larger W."""
    if args.max_elements is None:
        return parse_system(args.system)
    system = parse_system(args.system, max_elements=args.max_elements)
    system.order()  # refuses a W with more than max_elements elements
    return system


def _emit(chunks: Union[str, Iterable[str]], path: Optional[str]) -> None:
    """Write a text, or its chunks as they are formed, then a newline if it does not end in one."""
    if isinstance(chunks, str):
        chunks = (chunks,)
    with nullcontext(sys.stdout) if path is None else open(path, "w") as fh:
        last = ""
        for chunk in chunks:
            if chunk:
                fh.write(chunk)
                last = chunk
        if not last.endswith("\n"):
            fh.write("\n")


def _report_text(data: dict, indent: int = 0) -> str:
    """A stable plain-text rendering of a nested report dict."""
    lines = []
    pad = "  " * indent
    for key in data:
        val = data[key]
        if isinstance(val, dict):
            lines.append(f"{pad}{key}:")
            lines.append(_report_text(val, indent + 1))
        elif isinstance(val, list):
            lines.append(f"{pad}{key}: {json.dumps(val)}")
        else:
            lines.append(f"{pad}{key}: {val}")
    return "\n".join(lines)


def _emit_report(report: dict, fmt: str, out: Optional[str]) -> None:
    """``report`` as sorted JSON for --format json, as text otherwise."""
    if fmt == "json":
        _emit(json.dumps(report, indent=2, sort_keys=True), out)
    else:
        _emit(_report_text(report), out)


def _fail(witness: dict, fmt: str, out: Optional[str]) -> int:
    """A failure's witness by the rule of ``_emit_report``; returns exit code 1."""
    if fmt == "json":
        _emit(json.dumps({"ok": False, "witness": witness}, indent=2, sort_keys=True), out)
    else:
        _emit("FAIL\n" + _report_text(witness), out)
    return 1


# ----------------------------------------------------------------------
# subcommands

def _cmd_table(args: argparse.Namespace) -> int:
    system = build_system(args)
    theta = parse_theta(system, args.theta)
    # every basis offered here is proven pre-canonical: the solve cannot fail
    table = canonical_table(system, theta, args.basis)
    if args.fmt == "json":
        _emit(table.to_json(), args.out)
    elif args.fmt == "csv":
        _emit(table.to_csv(), args.out)
    else:
        _emit(table.to_text(), args.out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    system = build_system(args)
    theta = parse_theta(system, args.theta)
    report = invariant_suite(system, theta)
    _emit_report(report, args.fmt, args.out)
    return 0 if report["ok"] else 1


def _cmd_classify(args: argparse.Namespace) -> int:
    systems = [s.strip() for s in (args.systems or "").split(",") if s.strip()]
    report = classification_run(args.mode, systems or list(DEFAULT_SYSTEMS))
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(report.to_json() + "\n")
    if args.fmt == "json":
        _emit(report.to_json(), args.out)
    else:
        lines = [
            f"mode: {report.mode}",
            f"systems: {', '.join(report.systems)}",
            f"candidates: {len(report.candidates)}",
            f"survivors: {report.survivor_count}",
            f"classes: {len(report.classes)}",
        ]
        for cl in report.classes:
            lines.append(f"  class ({len(cl)}): {', '.join(cl)}")
        _emit("\n".join(lines), args.out)
    for check, expected, actual in (
        ("survivor count", args.expect_survivors, report.survivor_count),
        ("class count", args.expect_classes, len(report.classes)),
    ):
        if expected is not None and actual != expected:
            return _fail({"check": check, "expected": expected, "actual": actual}, args.fmt, None)
    return 0


def _cmd_invert(args: argparse.Namespace) -> int:
    failures = inversion_check(build_system(args))
    ok = not any(failures.values())
    bases = {label: {"ok": not f, "failures": f} for label, f in failures.items()}
    _emit_report({"system": args.system, "bases": bases, "ok": ok}, args.fmt, args.out)
    return 0 if ok else 1


def _pkernel_bar(args: argparse.Namespace) -> BarMatrix:
    system = build_system(args)
    theta = parse_theta(system, args.theta)
    if args.basis == "h":
        return hecke_bar_matrix(system)
    return module_bar_matrix(system, theta, args.basis, args.grading)


def _cmd_pkernel(args: argparse.Namespace) -> int:
    # the bar matrix, its module and its kernel are released before the report is written
    try:
        involution, gamma = kernel_report(_pkernel_bar(args))
    except NotParityCompatible as exc:
        witness = dict(exc.witness)
        witness["check"] = "kernel_from_bar"
        witness["basis"] = args.basis
        witness["grading"] = args.grading
        return _fail(witness, args.fmt, args.out)
    report = {
        "system": args.system,
        "basis": args.basis,
        "grading": args.grading,
        "in_image": True,
        "roundtrip_identity": True,  # kernel_report's docstring
        "is_involution": involution,
    }
    if gamma is None:
        _emit_report(report, args.fmt, args.out)
        return 1
    kls = _kls_pairs(gamma)
    if args.fmt == "json":
        _emit(_kls_json(report, kls), args.out)
    else:
        _emit(_kls_text(report, kls), args.out)
    return 0


#: entries per chunk of a streamed kls report
_CHUNK = 4096


def _kls_pairs(gamma: IncidenceFunction) -> list[tuple[str, str]]:
    """("[x]<=[w]", text of gamma at (x, w)) in (i, j) order: row by row, each row sorted.

    One label per element, and one text per distinct value, cached by
    (val, coeffs) as ``CanonicalTable._rows`` does.
    """
    labels = [str(list(x)) for x in gamma.poset.elements]
    values = gamma.values
    rows: dict[int, list[int]] = {}
    for i, j in values:
        rows.setdefault(i, []).append(j)
    texts: dict[tuple, str] = {}
    pairs: list[tuple[str, str]] = []
    for i in sorted(rows):
        row = rows[i]
        row.sort()
        x = labels[i] + "<="
        for j in row:
            p = values[(i, j)]
            key = p.val, p.coeffs
            text = texts.get(key)
            if text is None:
                text = texts[key] = p.to_text()
            pairs.append((x + labels[j], text))
    return pairs


def _kls_text(report: dict, kls: list[tuple[str, str]]) -> Iterator[str]:
    """``_report_text`` of the report with "kls" as its last key, the kls entries in chunks."""
    yield _report_text(report) + "\nkls:\n"
    for start in range(0, len(kls), _CHUNK):
        yield "".join([f"  {key}: {text}\n" for key, text in kls[start : start + _CHUNK]])


def _kls_json(report: dict, kls: list[tuple[str, str]]) -> Iterator[str]:
    """``json.dumps(report with "kls", indent=2, sort_keys=True)``, the kls entries in chunks.

    The rest of the report is dumped with an empty "kls"; only a
    top-level key starts a line with two spaces and a quote, so the split
    finds it.  The entries are sorted by key, as sort_keys sorts them.
    """
    doc = json.dumps(dict(report, kls={}), indent=2, sort_keys=True)
    head, tail = doc.split('\n  "kls": {}', 1)
    kls = sorted(kls, key=itemgetter(0))
    sep = head + '\n  "kls": {\n    '
    for start in range(0, len(kls), _CHUNK):
        yield sep + ",\n    ".join(
            [f"{encode(key)}: {encode(text)}" for key, text in kls[start : start + _CHUNK]]
        )
        sep = ",\n    "
    yield "\n  }" + tail


# ----------------------------------------------------------------------
# argument parsing

def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ivhecke",
        description="Canonical bases on Coxeter groups and their twisted involutions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, theta=True, basis=None, formats=("json", "text")):
        p.add_argument("--system", required=True, help="system name like A3, B2, I2(7)")
        if theta:
            p.add_argument(
                "--theta",
                default="id",
                help="diagram involution: 'id' or a permutation like '2,1,0'",
            )
        if basis:
            p.add_argument("--basis", default=basis[0], choices=basis)
        p.add_argument("--format", dest="fmt", default="text", choices=formats)
        p.add_argument("--out", default=None, help="write output to this path")
        p.add_argument("--max-elements", type=_positive_int, default=None,
                       help="refuse systems larger than this")

    p = sub.add_parser("table", help="emit one canonical table")
    add_common(p, basis=("h", "pi", "pi_prime", "iota"), formats=("json", "csv", "text"))

    p = sub.add_parser("verify", help="run the invariant suite")
    add_common(p)

    p = sub.add_parser("classify", help="run a classification mode")
    p.add_argument("--mode", default="hi", choices=("hw", "hi", "h2i"))
    p.add_argument("--systems", default=None,
                   help="comma-separated battery (default: the standard eight)")
    p.add_argument("--report", default=None, help="also write the JSON report here")
    p.add_argument("--expect-survivors", type=int, default=None)
    p.add_argument("--expect-classes", type=int, default=None)
    p.add_argument("--format", dest="fmt", default="text", choices=("json", "text"))
    p.add_argument("--out", default=None)

    p = sub.add_parser("invert", help="check the signed-inverse identity")
    add_common(p, theta=False)

    p = sub.add_parser("pkernel", help="P-kernel roundtrip and KLS report")
    add_common(p, basis=("h", "pi", "pi_prime", "iota"))
    p.add_argument("--grading", default="length", choices=("length", "rho"))

    return parser


COMMANDS = {
    "table": _cmd_table,
    "verify": _cmd_verify,
    "classify": _cmd_classify,
    "invert": _cmd_invert,
    "pkernel": _cmd_pkernel,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (ValueError, InfiniteOrTooLarge, OSError) as exc:
        # covers bad system/theta specs, size-cap refusals and paths that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
