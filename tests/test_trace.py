"""The per-layer benchmark trace of the velocity workload runs to the end.

The trace divides the time of SpinorField.value and SpinorField.partial
by their call counts, so a route that stops making either call ends
``--trace 1`` in ZeroDivisionError.  It also times Biquaternion.__mul__
and Biquaternion.inverse over the operands it counted, and a loop over no
operands divides by zero as well.  The velocity routes multiply through
algebra._hamilton on coefficient tuples and call neither operator, so the
products counted on this pass are the curl witness's; bq_velocity still
calls inverse once per point.  This runs the traced pass the way the
benchmark's runner does, in a process of its own (about 1.5 s).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_fieldmap_pass_counts_value_and_partial_calls():
    env = {**os.environ, "PYTHONPATH": "src"}
    env.pop("FRACTALSPIN_OUTDIR", None)
    proc = subprocess.run(
        [sys.executable, "benchmarks/worker.py", "--workload", "fieldmap",
         "--seed", "0", "--seconds", "0", "--trace"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"], result["problems"]
    metrics = result["metrics"]
    assert metrics["fields.value_calls"] > 0
    assert metrics["fields.partial_calls"] > 0
    assert metrics["algebra.mul_calls"] > 0
    assert metrics["algebra.inverse_calls"] > 0
