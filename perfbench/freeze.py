"""Record the reference outputs that every benchmark run checks.

    python3 perfbench/freeze.py

Runs each workload once on the current sources and writes what it
observed (output digests, table sizes, classification counts) to
``references.json``.  Run it only when a change is meant to alter those
outputs, and say so in the change.
"""

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import workloads  # noqa: E402


def main() -> int:
    observed = {}
    with tempfile.TemporaryDirectory(dir=HERE) as out_dir:
        for name in workloads.WORKLOADS:
            ledger = workloads.Ledger(None)
            workloads.RUNNERS[name](workloads.make_inputs(name, 1, out_dir), ledger)
            observed.update(ledger.observed)
    with open(workloads.REFERENCES, "w") as fh:
        json.dump(observed, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(observed)} references to {workloads.REFERENCES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
