"""The three benchmark workloads and the checks on their outputs.

Each workload is a closed loop with one client: ``run_*`` makes one call,
checks its output, and only then makes the next.  Every run builds fresh
``CoxeterSystem`` objects, as every CLI invocation does, so the cost of
enumeration and of the normal-form and Bruhat caches is paid inside the run.

An *operation* is one (command or call, system, theta, label) item.  It
fails if it raises or if its output differs from the frozen reference in
``references.json`` (or, for the seeded words, from an exact identity).
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import traceback
from pathlib import Path

# Calls go through module attributes, so that the tracer's wrappers see them.
from ivhecke import classify, cli, coxeter, ivmodules, twisted

REFERENCES = Path(__file__).with_name("references.json")

# regular: the regular module through the CLI entry point
REGULAR_TABLES = ("H3", "A4", "D4")
REGULAR_PKERNELS = ("H3", "A4")

# blocks: twisted-involution modules; W itself is never enumerated
BLOCK_SYSTEMS = (("B4", ((0, 1, 2, 3),)), ("A5", ((0, 1, 2, 3, 4), (4, 3, 2, 1, 0))))
BLOCK_LABELS = ("pi", "pi_prime", "iota")
WORDS_PER_SYSTEM = 300
MAX_WORD_LENGTH = 20

# classify: the classification pipeline on the standard battery
CLASSIFY_MODES = ("hw", "hi", "h2i")
SCAN_GRIDS = ("both_zero", "left_nonzero")
SCAN_MODE = "hi"

WORKLOADS = ("regular", "blocks", "classify")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_references(path: Path = REFERENCES) -> dict:
    with open(path) as fh:
        return json.load(fh)


class Ledger:
    """Counts attempted and failed operations against the references.

    With ``references=None`` nothing is compared and every observed value
    is kept in ``observed``; that is how ``freeze.py`` records them.
    """

    def __init__(self, references: dict | None) -> None:
        self.references = references
        self.observed: dict = {}
        self.attempted = 0
        self.failures: list[dict] = []

    def check(self, key: str, observed) -> None:
        self.attempted += 1
        self.observed[key] = observed
        if self.references is None:
            return
        expected = self.references.get(key)
        if observed != expected:
            self.failures.append({"op": key, "expected": expected, "observed": observed})

    def identity(self, key: str, holds: bool) -> None:
        self.attempted += 1
        if not holds:
            self.failures.append({"op": key, "identity": "violated"})

    def error(self, key: str) -> None:
        self.attempted += 1
        self.failures.append({"op": key, "error": traceback.format_exc(limit=3)})

    @property
    def failed(self) -> int:
        return len(self.failures)


# ----------------------------------------------------------------------
# inputs

def random_words(seed: int) -> dict[str, list[tuple[int, ...]]]:
    """The seeded word batch of ``blocks``: words of length 1..20 per system."""
    rng = random.Random(seed)
    out = {}
    for name, _thetas in BLOCK_SYSTEMS:
        rank = int(name[1:])
        out[name] = [
            tuple(rng.randrange(rank) for _ in range(rng.randint(1, MAX_WORD_LENGTH)))
            for _ in range(WORDS_PER_SYSTEM)
        ]
    return out


def regular_argvs(out_dir: str) -> list[tuple[str, list[str]]]:
    """(operation key, argv) for every CLI call of ``regular``."""
    calls = []
    for name in REGULAR_TABLES:
        path = os.path.join(out_dir, f"table-{name}-h.csv")
        calls.append((f"regular/table/{name}/h", ["table", "--system", name, "--basis", "h", "--format", "csv", "--out", path]))
    for name in REGULAR_PKERNELS:
        path = os.path.join(out_dir, f"pkernel-{name}-h.json")
        calls.append((f"regular/pkernel/{name}/h", ["pkernel", "--system", name, "--basis", "h", "--format", "json", "--out", path]))
    return calls


def make_inputs(workload: str, seed: int, out_dir: str):
    """Everything a workload consumes, made before the first timed call."""
    if workload == "regular":
        return regular_argvs(out_dir)
    if workload == "blocks":
        return random_words(seed)
    if workload == "classify":
        return None
    raise ValueError(f"unknown workload {workload!r}; pick from {WORKLOADS}")


# ----------------------------------------------------------------------
# workloads

def run_regular(calls, ledger: Ledger) -> int:
    """Returns the bytes the CLI wrote."""
    written = 0
    for key, argv in calls:
        try:
            code = cli.main(argv)
            with open(argv[argv.index("--out") + 1], "rb") as fh:
                data = fh.read()
        except Exception:
            ledger.error(key)
            continue
        written += len(data)
        ledger.check(key, {"exit": code, "sha256": sha256(data)})
    return written


def theta_key(theta) -> str:
    return ",".join(map(str, theta))


def run_blocks(words: dict, ledger: Ledger) -> None:
    for name, thetas in BLOCK_SYSTEMS:
        system = coxeter.parse_system(name)
        for theta in thetas:
            where = f"{name}/{theta_key(theta)}"
            try:
                block = twisted.TwistedBlock(system, theta)
            except Exception:
                ledger.error(f"blocks/block/{where}")
                continue
            ledger.check(f"blocks/block/{where}", {"elements": len(block)})
            for label in BLOCK_LABELS:
                key = f"blocks/table/{where}/{label}"
                try:
                    table = ivmodules.TwistedModule(block, label).canonical_table()
                    observed = {"entries": len(table.entries), "csv_sha256": sha256(table.to_csv().encode())}
                except Exception:
                    ledger.error(key)
                    continue
                ledger.check(key, observed)
            for label in BLOCK_LABELS:
                key = f"blocks/recurrence/{where}/{label}"
                try:
                    failures = ivmodules.recurrence_check(label, system, theta)
                except Exception:
                    ledger.error(key)
                    continue
                ledger.identity(key, failures == [])
        for n, word in enumerate(words[name]):
            key = f"blocks/word/{name}/{n}"
            try:
                holds = word_identities_hold(system, word)
            except Exception:
                ledger.error(key)
                continue
            ledger.identity(key, holds)


def word_identities_hold(system, word) -> bool:
    """Exact identities for any word w of a Coxeter group:

    * w * w^-1 is the identity;
    * a word and its reduced form have lengths of the same parity;
    * deleting one letter of a reduced word gives an element below it in
      Bruhat order (the subword property).
    """
    r = system.reduce(word)
    if system.multiply(word, system.inverse(word)) != ():
        return False
    if (len(r) - len(word)) % 2:
        return False
    cut = len(word) % len(r) if r else 0
    return system.bruhat_leq(r[:cut] + r[cut + 1 :], r)


def run_classify(_inputs, ledger: Ledger) -> None:
    for mode in CLASSIFY_MODES:
        key = f"classify/run/{mode}"
        try:
            report = classify.classification_run(mode, classify.DEFAULT_SYSTEMS)
        except Exception:
            ledger.error(key)
            continue
        ledger.check(key, report_summary(report))
    for grid in SCAN_GRIDS:
        key = f"classify/scan/{grid}/{SCAN_MODE}"
        try:
            candidates = classify.enumerate_candidates(grid)
            report = classify.representation_scan(candidates, classify.DEFAULT_SYSTEMS, SCAN_MODE)
        except Exception:
            ledger.error(key)
            continue
        ledger.check(key, report_summary(report))


def report_summary(report) -> dict:
    return {
        "candidates": len(report.candidates),
        "survivors": report.survivor_count,
        "classes": len(report.classes),
        "json_sha256": sha256(report.to_json().encode()),
    }


RUNNERS = {"regular": run_regular, "blocks": run_blocks, "classify": run_classify}
