"""Benchmark for fractalspin: four workloads, each in its own process.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is a workload of BENCHMARK.json (ensemble, helix, fieldmap,
longpath) or all (each in turn).  Run it from a checkout; it imports
fractalspin from the checkout's src.

Untraced (--trace 0) it reports for the workload:
  wall_s       median wall time of one pass of the fixed work, over the
               passes made in S seconds by a process that has finished
               set-up, at the reference host speed that the yardstick
               samples inside each pass (yardstick.py);
  setup_s      median time from a fresh interpreter to ready (fractalspin
               and fractalspin.cli imported, inputs built) over fresh
               starts made before and after the passes, each at the
               reference host speed that it samples once it is ready;
  peak_rss_mb  peak resident set of the workload's own process.
Traced (--trace 1) it runs the traced pass of every workload, each in a
process of its own, whatever NAME is, and reports the per-layer metrics
instead.

Every operation is one checked pass.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_STARTS = 5  # fresh starts before the timed passes, and again after
TIMEOUT_S = 150  # leaves the set-up starts room within 180 s


def child_env() -> dict:
    """The program from this checkout, numerical libraries on one thread."""
    env = dict(os.environ)
    env.pop("FRACTALSPIN_OUTDIR", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def _fail(msg: str):
    print(msg, file=sys.stderr)
    sys.exit(2)


def setup_times(name: str, seed: int, env: dict, starts: int) -> tuple:
    """Start-to-ready seconds, import seconds and host slowness of fresh
    probes."""
    ready, imports, slowness = [], [], []
    for _ in range(starts):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, str(HERE / "probe.py"),
                               "--workload", name, "--seed", str(seed)],
                              stdout=subprocess.PIPE, text=True,
                              env=env) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            rest = proc.stdout.read().split()
        if (proc.returncode != 0 or not line.startswith("ready ")
                or rest[:1] != ["slowness"]):
            _fail(f"setup probe for {name} exited {proc.returncode}")
        ready.append(elapsed)
        imports.append(float(line.split()[1]))
        slowness.append(float(rest[1]))
    return ready, imports, slowness


def run_worker(name: str, seed: int, seconds: float, env: dict,
               traced: bool) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds)]
    if traced:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        _fail(f"{name} did not finish within {TIMEOUT_S} s")
    if proc.returncode != 0:
        _fail(f"{name} worker exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def untraced(name: str, seed: int, seconds: float, env: dict) -> dict:
    # The first start warms the file caches.  Starts on both sides of the
    # timed passes sample the host at two times instead of one.
    before, _, slow_before = setup_times(name, seed, env, SETUP_STARTS + 1)
    res = run_worker(name, seed, seconds, env, traced=False)
    after, _, slow_after = setup_times(name, seed, env, SETUP_STARTS)
    ready, slowness = before[1:] + after, slow_before[1:] + slow_after
    setup_s = statistics.median(t / s for t, s in zip(ready, slowness))
    for p in res["problems"]:
        print(f"{name}: {p}")
    cpu_share = sum(res["pass_cpu_s"]) / max(sum(res["pass_s"]), 1e-9)
    print(f"{name}: {res['attempted']} passes, {res['failed']} failed, "
          f"pass times {_fmt(res['pass_s'])} s "
          f"(CPU {cpu_share:.1%} of wall), slowness {_fmt(res['slowness'])}; "
          f"set-up {_fmt(ready)} s, slowness {_fmt(slowness)}")
    return {"correct": res["correct"], "attempted": res["attempted"],
            "failed": res["failed"], "metrics": {
                "wall_s": {"value": res["wall_s"], "unit": "s"},
                "setup_s": {"value": setup_s, "unit": "s"},
                "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"}}}


def _fmt(times) -> str:
    return " ".join(f"{t:.3f}" for t in times)


def traced(spec: dict, seed: int, env: dict) -> dict:
    """The traced pass of every workload; the per-layer metrics of all."""
    names = [w["name"] for w in spec["workloads"]]
    _, imports, _ = setup_times(names[0], seed, env, SETUP_STARTS + 1)
    metrics = {"setup.import_s": statistics.median(imports[1:])}
    correct = True
    for name in names:
        res = run_worker(name, seed, 0, env, traced=True)
        for p in res["problems"]:
            print(f"{name}: {p}")
        print(f"{name}: traced pass {res['traced_pass_s']:.3f} s")
        correct = correct and res["correct"]
        metrics.update(res["metrics"])
    return {"correct": correct, "attempted": len(names), "failed": 0,
            "metrics": {m["name"]: {"value": metrics[m["name"]],
                                    "unit": m["unit"]}
                        for m in spec["per_layer"]}}


def main():
    if not (ROOT / "src" / "fractalspin" / "__init__.py").is_file():
        _fail(f"no fractalspin source under {ROOT / 'src'}; run from a "
              "checkout of the repository")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    env = child_env()
    if args.trace:
        result = traced(spec, args.seed, env)
    elif args.workload == "all":
        each = {name: untraced(name, args.seed, args.seconds, env)
                for name in names}
        result = {
            "correct": all(r["correct"] for r in each.values()),
            "attempted": sum(r["attempted"] for r in each.values()),
            "failed": sum(r["failed"] for r in each.values()),
            "metrics": {f"{name}.{k}": v for name, r in each.items()
                        for k, v in r["metrics"].items()}}
        for key, m in result["metrics"].items():
            print(f"{key:24s} {m['value']:12.6g} {m['unit']}")
    else:
        result = untraced(args.workload, args.seed, args.seconds, env)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
