"""README's CLI examples run as written.

Each line of the fenced block under "## CLI" that starts with ``ivhecke``
is split like a shell would split it and passed to ``cli.main``.  The
expected exit code is 0 unless the line's comment says ``exits N``.
"""

import re
import shlex
from pathlib import Path

import pytest

from ivhecke.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


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
