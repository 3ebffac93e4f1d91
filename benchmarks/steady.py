"""Steadiness check: two sets of runs of the same code, alternating.

    python3 benchmarks/steady.py

It makes RUNS runs of every workload of BENCHMARK.json, for its
run_seconds, in each set.  Run i of each workload uses seed i + 1 in both
sets; the set that goes first alternates from one run to the next.  For
every workload and end-to-end metric it prints each set's median and
quartiles, the spread (quartile distance over median) and the shift of
the second set's median from the first's, and whether both stay within
the metric's bound from BENCHMARK.json.  All runs are kept in
.bench_out/steady.json.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out" / "steady.json"
RUNS = 10


def one_run(name: str, seed: int, seconds: int) -> dict:
    """run.py's result, with the lines it printed before it as "log" and
    the run's own duration as "run_s"."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, check=True, cwd=ROOT)
    *log, last = proc.stdout.strip().splitlines()
    return dict(json.loads(last), log=log, run_s=time.perf_counter() - t0)


def summary(values: list) -> tuple:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    runs = {name: {"A": [], "B": []} for name in names}
    for i in range(RUNS):
        for name in names:
            for side in ("AB" if i % 2 == 0 else "BA"):
                res = one_run(name, i + 1, seconds)
                runs[name][side].append(res)
                print(f"run {i} {name} {side}: " + " ".join(
                    f"{k}={m['value']:.5g}" for k, m in res["metrics"].items())
                    + f" failed {res['failed']}/{res['attempted']}"
                    + f" in {res['run_s']:.1f} s"
                    + ("" if res["correct"] else " INCORRECT"), flush=True)
    OUT.parent.mkdir(exist_ok=True)
    OUT.write_text(json.dumps(runs, indent=1))

    ok = True
    print(f"\n{'workload':9s} {'metric':12s} {'set':3s} {'median':>10s} "
          f"{'q1':>10s} {'q3':>10s} {'spread':>7s} {'shift':>7s} "
          f"{'bound':>6s}  agree")
    for name in names:
        sets = runs[name]
        for m in spec["end_to_end"]:
            key, bound = m["name"], m["bound"]
            a, b = (summary([r["metrics"][key]["value"] for r in sets[s]])
                    for s in "AB")
            shift = (b[0] - a[0]) / a[0]
            agree = max(a[3], b[3]) <= bound and abs(shift) <= bound
            ok = ok and agree
            for s, row in (("A", a), ("B", b)):
                tail = (f"{shift:+7.3f} {bound:6.2f}  {'yes' if agree else 'NO'}"
                        if s == "B" else "")
                print(f"{name:9s} {key:12s} {s:3s} {row[0]:10.5g} "
                      f"{row[1]:10.5g} {row[2]:10.5g} {row[3]:7.3f} {tail}")
        shares = {s: {r["failed"] / r["attempted"] for r in sets[s]}
                  for s in "AB"}
        same = len(shares["A"] | shares["B"]) == 1
        correct = all(r["correct"] for s in "AB" for r in sets[s])
        ok = ok and same and correct
        print(f"{name:9s} failed share {sorted(shares['A'] | shares['B'])}"
              f"{'' if same else ' DIFFERS'}"
              f"{'' if correct else '; INCORRECT output'}")
    longest = max(r["run_s"] for sets in runs.values()
                  for side in sets.values() for r in side)
    print(f"longest run {longest:.1f} s")
    print(json.dumps({"agree": ok, "runs": RUNS, "seconds": seconds}))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
