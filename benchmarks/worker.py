"""One workload in a process of its own.

    python3 benchmarks/worker.py --workload NAME --seed N --seconds S [--trace]

Untraced, the worker validates the program once against the references,
then makes whole passes until S seconds have gone, checking each, while
a yardstick.Speedometer samples the host's speed inside each pass.  It
prints one JSON line with the wall and CPU time of each pass, the mean
slowness sampled in each, the median pass time at the reference host
speed (see yardstick.py), the operation counts and the process's peak
resident set.  Traced, it makes
the workload's traced pass and prints its per-layer metrics.  run.py
starts it with PYTHONPATH pointing at the checkout's src and BLAS pinned
to one thread.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

import fractalspin  # noqa: E402

if not Path(fractalspin.__file__).resolve().is_relative_to(ROOT / "src"):
    raise SystemExit(f"fractalspin was imported from {fractalspin.__file__}, "
                     f"not from {ROOT / 'src'}")

import tracing  # noqa: E402
import workloads  # noqa: E402
import yardstick  # noqa: E402


def measure(wl, seconds: float) -> dict:
    problems, errors, times, cpu, scaled = wl.validate(), [], [], [], []
    slowness = []
    attempted = 0
    start = time.perf_counter()
    while not attempted or time.perf_counter() - start < seconds:
        attempted += 1
        gc.collect()
        meter = yardstick.Speedometer(wl.yardstick)
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            with meter:
                wl.run()
        except Exception as exc:  # a failed operation is counted, not fatal
            errors.append(f"{type(exc).__name__}: {exc}")
            continue
        times.append(time.perf_counter() - t0)
        cpu.append(time.process_time() - c0)
        scaled.append(meter.scaled(times[-1]))
        slowness.append(statistics.mean(meter.slowness))
        problems += wl.check()
    return {
        "attempted": attempted,
        "failed": len(errors),
        "correct": not problems,
        "problems": (problems + errors)[:10],
        "pass_s": times,
        "pass_cpu_s": cpu,
        "slowness": slowness,
        "wall_s": statistics.median(scaled) if scaled else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


def traced(wl) -> dict:
    problems = wl.validate()
    tr = tracing.Tracer()
    wall, metrics = tracing.TRACERS[wl.name](wl, tr)
    problems += wl.check()
    tr.write(workloads.OUTDIR / f"trace_{wl.name}.json")
    return {"attempted": 1, "failed": 0, "correct": not problems,
            "problems": problems[:10], "traced_pass_s": wall,
            "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    workloads.OUTDIR.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, workloads.OUTDIR)
    result = traced(wl) if args.trace else measure(wl, args.seconds)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
