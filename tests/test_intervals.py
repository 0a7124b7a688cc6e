"""Block intervals and cross tables against the word-level builders.

``Block.lower_indices`` reads every Bruhat interval off the block's cross
table by property Z, and ``TwistedBlock`` fills its cross table from the
moves its search recorded.  The oracle (tests/interval_oracle.py) is the
word-level path they replace: Bruhat order of W on the elements' words,
and ``kappa`` on every element.
"""

import os
import subprocess
import sys
import time
from functools import cache
from pathlib import Path

import pytest

from interval_oracle import cross_by_kappa, lower_by_words
from ivhecke import twisted
from ivhecke.coxeter import InfiniteOrTooLarge, parse_system
from ivhecke.twisted import GroupBlock, TwistedBlock, involutive_automorphisms

BATTERY = ("I2(5)", "I2(8)", "A3", "B3", "H3", "D4", "A4", "B4", "A5", "F4")
TOP = ("H4", "E6")  # word-level intervals take half a minute per block here
slow = pytest.mark.slow  # deselected by default; `pytest -m slow` runs them

SRC = Path(__file__).resolve().parent.parent / "src"


def twisted_cases(names, marks=()):
    return [
        pytest.param(name, theta, marks=marks)
        for name in names
        for theta in involutive_automorphisms(parse_system(name))
    ]


@cache
def twisted_block(name, theta):
    """One block per case, shared by the interval and cross tests."""
    return TwistedBlock(parse_system(name), theta)


@pytest.mark.parametrize("name,theta", twisted_cases(BATTERY))
def test_twisted_intervals_are_the_word_level_ones(name, theta):
    block = twisted_block(name, theta)
    for j in range(len(block)):
        assert block.lower_indices(j) == lower_by_words(block, j), (name, theta, block.elements[j])


@pytest.mark.parametrize("name", [*BATTERY[:-1], pytest.param("F4", marks=slow)])  # W(F4): 1,152 elements
def test_group_intervals_are_the_word_level_ones(name):
    block = GroupBlock(parse_system(name))
    for j in range(len(block)):
        assert block.lower_indices(j) == lower_by_words(block, j), (name, block.elements[j])


@pytest.mark.parametrize("name,theta", twisted_cases(TOP, slow))
def test_top_of_the_ladder_intervals(name, theta):
    block = twisted_block(name, theta)
    n = len(block)
    for j in (n - 1, n - 2, n // 2):
        assert block.lower_indices(j) == lower_by_words(block, j), (name, theta, block.elements[j])


@pytest.mark.parametrize("name,theta", twisted_cases(BATTERY) + twisted_cases(TOP, slow))
def test_one_pass_cross_is_the_kappa_one(name, theta):
    block = twisted_block(name, theta)
    assert block.cross == cross_by_kappa(block)


def test_intervals_are_built_once_per_block():
    block = TwistedBlock(parse_system("B3"), (0, 1, 2))
    assert block.lower_indices(5) is block.lower_indices(5)
    assert block.lower_indices(0) == (0,)
    assert block.lower_indices(len(block) - 1) == tuple(range(len(block)))


def test_interval_pairs_are_capped(monkeypatch):
    block = GroupBlock(parse_system("B3"))  # 847 pairs x <= w
    monkeypatch.setattr(twisted, "MAX_INTERVAL_PAIRS", 846)
    with pytest.raises(InfiniteOrTooLarge, match="more than 846 pairs"):
        block.lower_indices(0)
    monkeypatch.setattr(twisted, "MAX_INTERVAL_PAIRS", 847)
    assert block.lower_indices(len(block) - 1) == tuple(range(len(block)))


def test_f4_group_is_well_under_the_cap():
    block = GroupBlock(parse_system("F4"))
    assert sum(len(block.lower_indices(j)) for j in range(len(block))) == 396_809
    assert 396_809 * 5 < twisted.MAX_INTERVAL_PAIRS


def test_verify_e6_is_refused():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "ivhecke.cli", "verify", "--system", "E6"],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert time.perf_counter() - start < 30
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert "Bruhat intervals of GroupBlock(CoxeterSystem(E6), size=51840)" in proc.stderr
    assert f"more than {twisted.MAX_INTERVAL_PAIRS} pairs" in proc.stderr
