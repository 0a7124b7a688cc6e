"""Tests of the benchmark harness itself (not of ivhecke).

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_self_times_of_a_synthetic_span_tree():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and a second b [5, 9];
    # d [11, 12] is a second root
    names = ["a", "b", "c", "b", "d"]
    starts = [0.0, 1.0, 2.0, 5.0, 11.0]
    ends = [10.0, 4.0, 3.0, 9.0, 12.0]
    parents = [-1, 0, 1, 0, -1]
    own, covered = tracer.self_times(names, starts, ends, parents)
    assert own == {"a": 3.0, "b": 2.0 + 4.0, "c": 1.0, "d": 1.0}
    assert covered == 11.0
    assert sum(own.values()) == covered


def timeline(stretches, probe_s, edge=speed.EDGE_PROBES):
    """(start, end, probes) of a span made of ``stretches`` with one probe
    between each two, and ``edge`` probes before and after the span."""
    t, probes = 0.0, []
    for _ in range(edge):
        probes.append((t, probe_s))
        t += probe_s
    start = t
    for n, stretch in enumerate(stretches):
        t += stretch
        if n < len(stretches) - 1:
            probes.append((t, probe_s))
            t += probe_s
    end = t
    for _ in range(edge):
        probes.append((t, probe_s))
        t += probe_s
    return start, end, probes


def test_scaled_seconds_discount_a_slower_machine():
    ref = speed.REFERENCE_PROBE_S
    start, end, probes = timeline([1.0, 2.0, 0.5], ref)
    assert speed.scaled_seconds(start, end, probes) == pytest.approx(3.5)
    # the same work on a machine twice as slow: every stretch and probe doubles
    start, end, probes = timeline([2.0, 4.0, 1.0], 2 * ref)
    assert end - start == pytest.approx(7.0 + 2 * 2 * ref)
    assert speed.scaled_seconds(start, end, probes) == pytest.approx(3.5)


def test_scaled_seconds_rate_each_stretch_by_the_probes_around_it():
    ref = speed.REFERENCE_PROBE_S
    # probes of ref, ref before the span, one of ref at t=4, then 3 ref after
    probes = [(-2.0, ref), (-1.0, ref), (4.0, ref), (10.0, 3 * ref), (11.0, 3 * ref)]
    # [0, 4] is rated by ref, ref, ref, 3 ref (median ref);
    # [4 + ref, 10] by ref, ref, 3 ref, 3 ref (median 2 ref)
    expected = 4.0 + (6.0 - ref) / 2
    assert speed.scaled_seconds(0.0, 10.0, probes) == pytest.approx(expected)
    with pytest.raises(ValueError):
        speed.scaled_seconds(0.0, 10.0, probes[1:])


def test_speed_clock_leaves_the_probes_out_of_the_wall_time():
    clock = speed.SpeedClock(period_s=0.001)
    clock.start()
    deadline = time.perf_counter() + 0.05
    while time.perf_counter() < deadline:
        pass
    clock.stop()
    inside = [p for p in clock.probes if clock.start_t <= p[0] < clock.end_t]
    assert len(clock.probes) >= len(inside) + 2 * speed.EDGE_PROBES and inside
    assert clock.wall_s == pytest.approx(clock.end_t - clock.start_t - sum(d for _, d in inside))
    assert clock.scaled_s > 0


def test_layer_self_times_and_uncovered_add_up_to_the_traced_wall():
    t = tracer.Tracer()
    t.install()
    start = time.perf_counter()
    try:
        ledger = workloads.Ledger(None)
        system = workloads.coxeter.parse_system("A3")
        workloads.ivmodules.TwistedModule(workloads.twisted.TwistedBlock(system, (2, 1, 0)), "iota").canonical_table()
        ledger.identity("word", workloads.word_identities_hold(system, (0, 1, 0, 2, 1)))
    finally:
        wall_s = time.perf_counter() - start
        t.uninstall()
    m = t.metrics(wall_s=wall_s, output_bytes=0)
    timed = sum(v for k, v in m.items() if k.endswith("_s") and not k.startswith("trace."))
    assert timed + m["trace.uncovered_s"] == pytest.approx(wall_s, abs=1e-9)
    assert 0 <= m["trace.uncovered_s"] < wall_s
    assert m["twisted.block_builds"] == 1 and m["hecke.solve_calls"] == 1
    assert ledger.failed == 0


def test_uninstall_restores_every_original():
    before = {id(m): dict(vars(m)) for m in tracer.MODULES}
    classes = [tracer.CS, tracer.LP, workloads.twisted.TwistedBlock]
    before_cls = {c: dict(vars(c)) for c in classes}
    t = tracer.Tracer()
    t.install()
    t.uninstall()
    assert all(dict(vars(m)) == before[id(m)] for m in tracer.MODULES)
    assert all(dict(vars(c)) == before_cls[c] for c in classes)


def test_metric_names_are_valid_and_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert end_to_end == run.END_TO_END_UNITS
    assert per_layer == {name: run.unit_of(name) for name in [*tracer.METRICS, "trace.overhead_s"]}
    for name in [*end_to_end, *per_layer, *(w["name"] for w in spec["workloads"])]:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS) == list(run.WORKLOADS)


def test_a_corrupted_reference_digest_counts_as_a_failure(monkeypatch):
    monkeypatch.setattr(workloads, "CLASSIFY_MODES", ())
    monkeypatch.setattr(workloads, "SCAN_GRIDS", ("left_nonzero",))
    references = workloads.load_references()
    key = "classify/scan/left_nonzero/hi"

    ledger = workloads.Ledger(references)
    workloads.run_classify(None, ledger)
    assert (ledger.attempted, ledger.failed) == (1, 0)

    corrupted = dict(references)
    corrupted[key] = dict(references[key], json_sha256="0" * 64)
    ledger = workloads.Ledger(corrupted)
    workloads.run_classify(None, ledger)
    assert (ledger.attempted, ledger.failed) == (1, 1)
    assert ledger.failures[0]["op"] == key

    del corrupted[key]
    ledger = workloads.Ledger(corrupted)
    workloads.run_classify(None, ledger)
    assert (ledger.attempted, ledger.failed) == (1, 1)


def test_an_exception_counts_as_a_failure(monkeypatch):
    def boom(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(workloads, "CLASSIFY_MODES", ("hw",))
    monkeypatch.setattr(workloads, "SCAN_GRIDS", ())
    monkeypatch.setattr(workloads.classify, "classification_run", boom)
    ledger = workloads.Ledger(workloads.load_references())
    workloads.run_classify(None, ledger)
    assert (ledger.attempted, ledger.failed) == (1, 1)
    assert "boom" in ledger.failures[0]["error"]


def test_seeded_words_repeat_for_a_seed_and_differ_between_seeds():
    one = workloads.random_words(1)
    assert one == workloads.random_words(1)
    assert one != workloads.random_words(2)
    for name, words in one.items():
        assert len(words) == workloads.WORDS_PER_SYSTEM
        assert all(1 <= len(w) <= workloads.MAX_WORD_LENGTH for w in words)


COUNTS_SCRIPT = """
import json, sys, tempfile
sys.path[:0] = [{src!r}, {here!r}]
import tracer, workloads
workloads.REGULAR_TABLES = ("A3",)
workloads.REGULAR_PKERNELS = ("B2",)
workloads.BLOCK_SYSTEMS = (("A3", ((0, 1, 2), (2, 1, 0))),)
out = {{}}
with tempfile.TemporaryDirectory(dir={here!r}) as tmp:
    for name in ("regular", "blocks"):
        inputs = workloads.make_inputs(name, 7, tmp)
        t = tracer.Tracer()
        t.install()
        workloads.RUNNERS[name](inputs, workloads.Ledger(None))
        t.uninstall()
        m = t.metrics(wall_s=1.0, output_bytes=0)
        out[name] = {{k: v for k, v in m.items() if k.split(".")[0] in ("laurent", "coxeter") and not k.endswith("_s")}}
print(json.dumps(out))
"""


def traced_counts(hash_seed: str) -> dict:
    code = COUNTS_SCRIPT.format(src=str(ROOT / "src"), here=str(HERE))
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_laurent_and_coxeter_counts_repeat_between_traced_runs():
    first = traced_counts("1")
    assert first == traced_counts("2")
    for counts in first.values():
        assert counts["laurent.new_polys"] > 0 and counts["coxeter.word_ops"] > 0


def test_run_refuses_a_directory_without_the_sources():
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        bare = Path(tmp)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("tmp*", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "regular", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
