"""The scripts under scripts/ run on a small battery and exit 0."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        capture_output=True, text=True, env=env, timeout=300,
    )


def test_run_classification_h2i():
    proc = run_script("run_classification.py", "--modes", "h2i", "--systems", "I2(3),I2(4)")
    assert proc.returncode == 0, proc.stderr
    assert "32 survivors in 4 equivalence classes" in proc.stdout


@pytest.mark.parametrize(
    "argv",
    [
        ("run_classification.py", "--scans", "--modes", "hw", "--systems", "I2(3)"),
        ("positivity_scan.py", "I2(5)", "A3"),
    ],
)
def test_script_exits_zero(argv):
    proc = run_script(*argv)
    assert proc.returncode == 0, proc.stderr
