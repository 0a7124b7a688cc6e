"""Source hygiene of the package: no unused imports, no unreferenced code.

Each module of ``src/ivhecke`` is parsed with ``ast``.  A module-level
import must be used in the module (in code, an annotation, or a doctest
example), and so must one of a file in ``tests/``; a def or class of
the package must be referenced somewhere in ``src/`` or
``perfbench/`` besides its own definition.  A reference from ``tests/``
does not count: code that only tests reach belongs in ``tests/``, as an
oracle, or nowhere.

A name that only ``perfbench/`` reaches, most of them bound by its
tracer, is pinned by name until the benchmark stops binding it.
"""

import ast
import doctest
import re
import tokenize
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ivhecke"
MODULES = sorted(PACKAGE.glob("*.py"))
SEARCHED = ("src", "perfbench")


def used_names(tree: ast.Module) -> set[str]:
    """Every name the module loads, in code, annotations and doctests."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            for example in doctest.DocTestParser().get_examples(ast.get_docstring(node) or ""):
                names |= used_names(ast.parse(example.source))
    return names


def imported_names(tree: ast.Module) -> list[str]:
    out = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            out += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out += [a.asname or a.name for a in node.names]
    return out


def defined_names(tree: ast.Module) -> list[str]:
    """Every def and class name in the module, nested ones included, dunders excepted."""
    return [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]


def _corpus() -> str:
    return "\n".join(
        path.read_text() for top in SEARCHED for path in sorted((ROOT / top).rglob("*.py"))
    )


@pytest.mark.parametrize("path", MODULES + sorted((ROOT / "tests").glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    tree = ast.parse(path.read_text())
    used = used_names(tree)
    assert [name for name in imported_names(tree) if name not in used] == []


def test_every_def_and_class_is_referenced():
    corpus = _corpus()
    mentions = Counter(re.findall(r"\w+", corpus))
    definitions = Counter(re.findall(r"\b(?:def|class)\s+(\w+)", corpus))
    unreferenced = [
        f"{path.name}: {name}"
        for path in MODULES
        for name in sorted(set(defined_names(ast.parse(path.read_text()))))
        if mentions[name] <= definitions[name]
    ]
    assert unreferenced == []


def code_names(path: Path) -> Counter:
    """How often each name occurs in the file's code: docstrings, comments and strings left out."""
    with path.open("rb") as f:
        return Counter(tok.string for tok in tokenize.tokenize(f.readline) if tok.type == tokenize.NAME)


#: defs in src/ whose code references all lie in perfbench/ (a docstring
#: mention is no reference).  ROADMAP item 4 moves them out of src/ once the
#: tracer stops binding them: remove a name here when it goes, add none.
PERFBENCH_ONLY = {
    "apply_automorphism",
    "bruhat_leq",
    "kappa",
    "recurrence_check",
    "representation_scan",
    "transport_basis",
    "vec_bar_coeffs",
    "vec_sub",
}


def test_defs_only_perfbench_reaches_are_pinned():
    in_src = sum((code_names(path) for path in sorted((ROOT / "src").rglob("*.py"))), Counter())
    definitions = Counter(name for path in MODULES for name in defined_names(ast.parse(path.read_text())))
    in_perfbench = Counter(
        re.findall(r"\w+", "\n".join(path.read_text() for path in sorted((ROOT / "perfbench").rglob("*.py"))))
    )
    only_perfbench = {name for name in definitions if in_src[name] <= definitions[name] and in_perfbench[name]}
    assert only_perfbench == PERFBENCH_ONLY


def test_the_checks_see_dead_code():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import json\n"
        "from typing import Optional\n"
        "def f(x: Optional[int]) -> None:\n"
        "    '''\n"
        "    >>> json.dumps(1)\n"
        "    '1'\n"
        "    '''\n"
    )
    assert [n for n in imported_names(tree) if n not in used_names(tree)] == []
    tree = ast.parse("import os\nimport sys\nprint(sys.argv)\n")
    assert [n for n in imported_names(tree) if n not in used_names(tree)] == ["os"]
    assert defined_names(ast.parse("class A:\n    def __init__(self): pass\n    def g(self): pass\n")) == ["A", "g"]
