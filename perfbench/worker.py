"""One iteration of a workload in a fresh process; prints one JSON line.

Run by ``run.py``, one process per iteration, so that set-up time and peak
memory are those of a fresh process, as for every CLI invocation:

    python3 perfbench/worker.py --workload blocks --seed 1 --trace 0 --out-dir DIR [--setup-only]

``setup_s`` covers importing ivhecke, reading the arguments and making
the workload's inputs.
``wall_s`` covers the workload with every output checked.  Both are also
given in scaled seconds (``speed.SpeedClock``), which discount the
machine's changing speed.  With ``--trace 1`` the layers are wrapped by
``tracer.Tracer``, the per-layer metrics are added, and no probe runs
inside the workload.
"""

import os
import sys
import time

# Only what the interpreter has already loaded, and ``speed`` (which needs
# only signal and time), is imported before SETUP starts, so that setup_s
# counts every module ivhecke pulls in.
HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path[:0] = [SRC, HERE]

import speed  # noqa: E402

SETUP = speed.SpeedClock(period_s=speed.SHORT_PERIOD_S, reference_s=speed.SHORT_REFERENCE_PROBE_S)
SETUP.start()
import ivhecke.cli  # noqa: E402  (imports every layer)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

if os.path.dirname(os.path.abspath(ivhecke.__file__)) != os.path.join(SRC, "ivhecke"):
    sys.exit(f"ivhecke was imported from {ivhecke.__file__}, not from {SRC}")

import workloads  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    inputs = workloads.make_inputs(args.workload, args.seed, args.out_dir)
    SETUP.stop()
    result = {"setup_s": SETUP.scaled_s, "setup_wall_s": SETUP.wall_s}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    ledger = workloads.Ledger(workloads.load_references())
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    clock = speed.SpeedClock(timer=tracer is None)
    clock.start()
    cpu_start = time.process_time()
    written = workloads.RUNNERS[args.workload](inputs, ledger)
    cpu_s = time.process_time() - cpu_start
    clock.stop()
    if tracer is not None:
        tracer.uninstall()
        result["metrics"] = tracer.metrics(clock.wall_s, written or 0)
    result.update(
        wall_s=clock.wall_s,
        norm_wall_s=clock.scaled_s,
        probe_median_s=clock.probe_median_s,
        cpu_s=cpu_s - clock.probe_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024 - speed.PROBE_MB,
        attempted=ledger.attempted,
        failed=ledger.failed,
        failures=ledger.failures[:5],
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
