"""A fresh interpreter getting ready to run a workload.

    python3 benchmarks/probe.py --workload NAME --seed N

It imports fractalspin and fractalspin.cli, builds the workload's inputs
and prints ``ready <import seconds>``, then samples the host's speed
with the yardstick and prints ``slowness <host slowness>``.  run.py
times it from start to the ready line for setup_s and divides that by
the slowness; the import time it prints is setup.import_s.
"""

import time

_t0 = time.perf_counter()
import fractalspin  # noqa: E402,F401
import fractalspin.cli  # noqa: E402,F401
_import_s = time.perf_counter() - _t0

import argparse  # noqa: E402

import workloads  # noqa: E402
import yardstick  # noqa: E402

ap = argparse.ArgumentParser()
ap.add_argument("--workload", required=True,
                choices=workloads.WORKLOADS)
ap.add_argument("--seed", type=int, required=True)
args = ap.parse_args()
workloads.WORKLOADS[args.workload](args.seed, workloads.OUTDIR)
print(f"ready {_import_s!r}", flush=True)
print(f"slowness {yardstick.probe_slowness()!r}", flush=True)
