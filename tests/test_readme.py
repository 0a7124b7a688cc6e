"""README's CLI examples run as written, and the files it names exist.

Each line of the fenced block under "## CLI" that starts with ``ivhecke``
is split like a shell would split it and passed to ``cli.main``.  The
expected exit code is 0 unless the line's comment says ``exits N``.  Every
repo path README names in backticks (``tests/...``, ``src/...``) must
exist.
"""

import re
import shlex
from pathlib import Path

import pytest

from ivhecke.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def cli_examples():
    text = README.read_text()
    block = re.search(r"^## CLI\n+```\n(.*?)^```", text, re.S | re.M).group(1)
    out = []
    for line in block.splitlines():
        if not line.startswith("ivhecke "):
            continue
        command, _, comment = line.partition("#")
        code = re.search(r"exits (\d)", comment)
        out.append((shlex.split(command)[1:], int(code.group(1)) if code else 0))
    return out


def test_readme_has_examples():
    examples = cli_examples()
    assert len(examples) >= 7
    assert {argv[0] for argv, _ in examples} == {"table", "verify", "classify", "invert", "pkernel"}


@pytest.mark.parametrize("argv,code", cli_examples(), ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
def test_readme_example(argv, code, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # examples with --out write there
    try:
        result = main(argv)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        result = exc.code
    assert result == code


def readme_paths():
    spans = re.findall(r"`([^`]*)`", README.read_text())
    return sorted({p for span in spans for p in re.findall(r"\b(?:scripts|tests|src)/[\w./-]*\w", span)})


def test_readme_paths_exist():
    paths = readme_paths()
    assert "tests/test_acceptance.py" in paths  # the scan finds paths inside commands too
    assert [p for p in paths if not (ROOT / p).exists()] == []
