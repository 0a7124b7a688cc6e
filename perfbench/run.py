"""Benchmark entry point for ivhecke; see perfbench/README.md.

    python3 perfbench/run.py --workload regular|blocks|classify --seed 1 --seconds 30 --trace 0|1

Run from the root of a source checkout.  Each iteration of the workload
runs in a fresh worker process (``worker.py``).  Iterations repeat until
another one would end after ``--seconds``; at least one always runs.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics: the medians of ``norm_wall_s``, ``peak_rss_mb`` and ``setup_s``.
``norm_wall_s`` and ``setup_s`` are in scaled seconds, which discount the
machine's changing speed (see ``speed.py``); the plain wall times are in
the record.  ``setup_s`` also gets ``SETUP_SAMPLES`` extra processes that
only set up, half before the iterations and half after.
With ``--trace 1`` each iteration is a pair, one untraced worker and one
traced, and the last line holds the per-layer metrics of the traced one.
A full record, with the seed, commit, Python version and ``nproc``, goes to
``.perfbench-out/``.  Exits non-zero, printing no result, if the checkout
has no ``src/ivhecke`` or a worker fails.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "ivhecke"
OUT = ROOT / ".perfbench-out"
WORKLOADS = ("regular", "blocks", "classify")
SETUP_SAMPLES = 20
TIME_LIMIT_S = 170.0

END_TO_END_UNITS = {"norm_wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() or "unknown"


class Runner:
    def __init__(self, workload: str, seed: int, out_dir: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.out_dir = out_dir
        self.deadline = time.monotonic() + TIME_LIMIT_S

    def worker(self, *extra: str) -> dict:
        """Run one worker process to completion and return its JSON line."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"out of time ({TIME_LIMIT_S:.0f} s) before a worker could start")
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", self.workload, "--seed", str(self.seed), "--out-dir", str(self.out_dir), *extra,
        ]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=remaining, cwd=ROOT)
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker {extra} did not finish within {TIME_LIMIT_S:.0f} s") from None
        if proc.returncode != 0:
            raise BenchError(f"worker {extra} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def repeat(self, seconds: float, iteration) -> list:
        """Run ``iteration`` at least once, and again while it would end within ``seconds``."""
        start = time.monotonic()
        samples = [iteration()]
        while (time.monotonic() - start) * (len(samples) + 1) / len(samples) <= seconds:
            samples.append(iteration())
        return samples


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith("_bytes"):
        return "bytes"
    return "count"


def summary(values: list[float]) -> dict:
    out = {"median": statistics.median(values), "n": len(values), "min": min(values), "max": max(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    return out


def measure(runner: Runner, seconds: float, trace: bool) -> tuple[dict, dict]:
    """(metrics, record) for one benchmark run."""
    def setup_samples(n: int) -> list[float]:
        return [runner.worker("--setup-only") for _ in range(n)]

    # half before and half after the iterations, so that a slow spell of the
    # machine at either end does not decide the median alone
    setups = setup_samples(SETUP_SAMPLES // 2)
    if trace:
        pairs = runner.repeat(seconds, lambda: (runner.worker("--trace", "0"), runner.worker("--trace", "1")))
        plain = [p[0] for p in pairs]
        traced = [p[1] for p in pairs]
    else:
        plain = runner.repeat(seconds, lambda: runner.worker("--trace", "0"))
        traced = []
    setups += setup_samples(SETUP_SAMPLES - SETUP_SAMPLES // 2)
    samples = plain + traced
    setups += samples
    record = {
        "attempted": sum(s["attempted"] for s in samples),
        "failed": sum(s["failed"] for s in samples),
        "failures": [f for s in samples for f in s["failures"]][:10],
        "stats": {
            "norm_wall_s": summary([s["norm_wall_s"] for s in plain]),
            "wall_s": summary([s["wall_s"] for s in plain]),
            "probe_median_s": summary([s["probe_median_s"] for s in plain]),
            "cpu_s": summary([s["cpu_s"] for s in plain]),
            "peak_rss_mb": summary([s["peak_rss_mb"] for s in plain]),
            "setup_s": summary([s["setup_s"] for s in setups]),
            "setup_wall_s": summary([s["setup_wall_s"] for s in setups]),
        },
        "samples": samples,
    }
    record["failed_share"] = record["failed"] / record["attempted"]
    if not trace:
        metrics = {name: record["stats"][name]["median"] for name in END_TO_END_UNITS}
        return {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in metrics.items()}, record

    metrics = {name: statistics.median(s["metrics"][name] for s in traced) for name in traced[0]["metrics"]}
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - record["stats"]["wall_s"]["median"]
    return {name: {"value": v, "unit": unit_of(name)} for name, v in metrics.items()}, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ivhecke benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int,
                        help="seed of the generated inputs; the baseline uses 1")
    parser.add_argument("--seconds", type=float, default=30.0, help="how long to measure (default 30)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no ivhecke sources at {PACKAGE}", file=sys.stderr)
        return 2
    if not compileall.compile_dir(str(PACKAGE), quiet=1):
        print("error: ivhecke does not compile", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        metrics, record = measure(Runner(args.workload, args.seed, work), args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "result": result,
        **record,
    }
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    stats = record["stats"]
    print(f"# {args.workload} seed={args.seed} commit={record['commit']} python={record['python']} nproc={record['nproc']}")
    for name, st in stats.items():
        print(f"# {name}: median {st['median']:.6g} over {st['n']} (min {st['min']:.6g}, max {st['max']:.6g})")
    print(f"# attempted {record['attempted']}, failed {record['failed']} (share {record['failed_share']:.6g})")
    for failure in record["failures"]:
        print(f"# FAILED {json.dumps(failure)[:300]}")
    print(f"# record: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
