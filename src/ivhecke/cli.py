"""Command-line surface.

Subcommands:

* ``table``    -- compute one canonical table (h, pi, pi_prime or iota)
* ``verify``   -- run the invariant suite for one (system, theta)
* ``classify`` -- run a classification mode over a battery of systems
* ``invert``   -- check the signed-inverse identity for all three bases
* ``pkernel``  -- P-kernel roundtrip and KLS report for one structure

Exit codes: 0 all requested checks pass, 1 a check failed (a
machine-readable witness is printed), 2 bad arguments.  Output is
deterministic for a fixed invocation; elements are always ordered by
(length, ShortLex word).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

from .classify import DEFAULT_SYSTEMS, classification_run
from .coxeter import CoxeterSystem, InfiniteOrTooLarge, parse_system
from .hecke import NotPreCanonical
from .ivmodules import canonical_table, inversion_check, invariant_suite
from .pkernel import (
    NotParityCompatible,
    bar_from_kernel,
    hecke_bar_matrix,
    kernel_from_bar,
    kls_function,
    module_bar_matrix,
)
from .twisted import parse_theta


@dataclass
class RunConfig:
    """Parsed invocation; all commands funnel through this."""

    command: str
    system: str = ""
    theta: str = "id"
    basis: str = "h"
    mode: str = "hi"
    systems: tuple[str, ...] = ()
    grading: str = "length"
    fmt: str = "text"
    out: Optional[str] = None
    report: Optional[str] = None
    expect_survivors: Optional[int] = None
    expect_classes: Optional[int] = None
    max_elements: Optional[int] = None

    def __post_init__(self):
        if self.max_elements is not None and self.max_elements <= 0:
            raise ValueError("--max-elements must be positive")

    def build_system(self, name: Optional[str] = None) -> CoxeterSystem:
        kwargs = {}
        if self.max_elements is not None:
            kwargs["max_elements"] = self.max_elements
        system = parse_system(name or self.system, **kwargs)
        if self.max_elements is not None:
            system.order()  # refuses a W with more than max_elements elements
        return system


def _emit(text: str, path: Optional[str]) -> None:
    if path is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(path, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


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


def _fail(witness: dict, fmt: str, out: Optional[str]) -> int:
    payload = {"ok": False, "witness": witness}
    if fmt == "text":
        _emit("FAIL\n" + _report_text(witness), out)
    else:
        _emit(json.dumps(payload, indent=2, sort_keys=True), out)
    return 1


# ----------------------------------------------------------------------
# subcommands

def _cmd_table(cfg: RunConfig) -> int:
    system = cfg.build_system()
    theta = parse_theta(system, cfg.theta)
    try:
        table = canonical_table(system, theta, cfg.basis)
    except NotPreCanonical as exc:
        return _fail(exc.witness, cfg.fmt, cfg.out)
    if cfg.fmt == "json":
        _emit(table.to_json(), cfg.out)
    elif cfg.fmt == "csv":
        _emit(table.to_csv(), cfg.out)
    else:
        _emit(table.to_text(), cfg.out)
    return 0


def _cmd_verify(cfg: RunConfig) -> int:
    system = cfg.build_system()
    theta = parse_theta(system, cfg.theta)
    report = invariant_suite(system, theta)
    if cfg.fmt == "json":
        _emit(json.dumps(report, indent=2, sort_keys=True), cfg.out)
    else:
        _emit(_report_text(report), cfg.out)
    return 0 if report["ok"] else 1


def _cmd_classify(cfg: RunConfig) -> int:
    systems = cfg.systems or DEFAULT_SYSTEMS
    report = classification_run(cfg.mode, list(systems))
    data = report.to_json_dict()
    if cfg.report:
        with open(cfg.report, "w") as fh:
            fh.write(report.to_json() + "\n")
    if cfg.fmt == "json":
        _emit(report.to_json(), cfg.out)
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
        _emit("\n".join(lines), cfg.out)
    if cfg.expect_survivors is not None and report.survivor_count != cfg.expect_survivors:
        return _fail(
            {
                "check": "survivor count",
                "expected": cfg.expect_survivors,
                "actual": report.survivor_count,
            },
            cfg.fmt,
            None,
        )
    if cfg.expect_classes is not None and len(report.classes) != cfg.expect_classes:
        return _fail(
            {
                "check": "class count",
                "expected": cfg.expect_classes,
                "actual": len(report.classes),
            },
            cfg.fmt,
            None,
        )
    return 0


def _cmd_invert(cfg: RunConfig) -> int:
    system = cfg.build_system()
    report: dict = {"system": cfg.system, "bases": {}}
    ok = True
    for label in ("pi", "pi_prime", "iota"):
        failures = inversion_check(label, system)
        report["bases"][label] = {"ok": not failures, "failures": failures}
        ok = ok and not failures
    report["ok"] = ok
    if cfg.fmt == "json":
        _emit(json.dumps(report, indent=2, sort_keys=True), cfg.out)
    else:
        _emit(_report_text(report), cfg.out)
    return 0 if ok else 1


def _cmd_pkernel(cfg: RunConfig) -> int:
    system = cfg.build_system()
    theta = parse_theta(system, cfg.theta)
    if cfg.basis == "h":
        bar = hecke_bar_matrix(system)
    else:
        bar = module_bar_matrix(system, theta, cfg.basis, cfg.grading)
    try:
        kernel = kernel_from_bar(bar)
    except NotParityCompatible as exc:
        witness = dict(exc.witness)
        witness["check"] = "kernel_from_bar"
        witness["basis"] = cfg.basis
        witness["grading"] = cfg.grading
        return _fail(witness, cfg.fmt, cfg.out)
    roundtrip = bar_from_kernel(kernel, bar.grading).entries == bar.entries
    involution = bar.is_involution()
    report = {
        "system": cfg.system,
        "basis": cfg.basis,
        "grading": cfg.grading,
        "in_image": True,
        "roundtrip_identity": roundtrip,
        "is_involution": involution,
    }
    if roundtrip and involution:
        gamma = kls_function(kernel, bar.grading)
        report["kls"] = {
            f"{list(bar.poset.elements[i])}<={list(bar.poset.elements[j])}": p.to_text()
            for (i, j), p in sorted(gamma.values.items())
        }
    if cfg.fmt == "json":
        _emit(json.dumps(report, indent=2, sort_keys=True), cfg.out)
    else:
        _emit(_report_text(report), cfg.out)
    return 0 if roundtrip and involution else 1


# ----------------------------------------------------------------------
# argument parsing

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ivhecke",
        description="Canonical bases on Coxeter groups and their twisted involutions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, theta=True, basis=None):
        p.add_argument("--system", required=True, help="system name like A3, B2, I2(7)")
        if theta:
            p.add_argument(
                "--theta",
                default="id",
                help="diagram involution: 'id' or a permutation like '2,1,0'",
            )
        if basis:
            p.add_argument("--basis", default=basis[0], choices=basis)
        p.add_argument("--format", dest="fmt", default="text",
                       choices=("json", "csv", "text"))
        p.add_argument("--out", default=None, help="write output to this path")
        p.add_argument("--max-elements", type=int, default=None,
                       help="refuse systems larger than this")

    p = sub.add_parser("table", help="emit one canonical table")
    add_common(p, basis=("h", "pi", "pi_prime", "iota"))

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


def config_from_args(args: argparse.Namespace) -> RunConfig:
    systems = ()
    if getattr(args, "systems", None):
        systems = tuple(s.strip() for s in args.systems.split(",") if s.strip())
    return RunConfig(
        command=args.command,
        system=getattr(args, "system", ""),
        theta=getattr(args, "theta", "id"),
        basis=getattr(args, "basis", "h"),
        mode=getattr(args, "mode", "hi"),
        systems=systems,
        grading=getattr(args, "grading", "length"),
        fmt=getattr(args, "fmt", "text"),
        out=getattr(args, "out", None),
        report=getattr(args, "report", None),
        expect_survivors=getattr(args, "expect_survivors", None),
        expect_classes=getattr(args, "expect_classes", None),
        max_elements=getattr(args, "max_elements", None),
    )


COMMANDS = {
    "table": _cmd_table,
    "verify": _cmd_verify,
    "classify": _cmd_classify,
    "invert": _cmd_invert,
    "pkernel": _cmd_pkernel,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_from_args(args)
    except ValueError as exc:
        parser.error(str(exc))  # exits 2
    try:
        return COMMANDS[cfg.command](cfg)
    except (ValueError, InfiniteOrTooLarge) as exc:
        # covers bad system/theta specs and size-cap refusals
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
