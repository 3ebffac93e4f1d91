"""Committed golden outputs: the CLI runs whose bytes every change must keep.

golden.json holds, for each run, its arguments, exit code, byte count,
SHA-256 digest and the numbers it printed.  The digest is what the test
holds; the numbers are there so that a mismatch can be told apart: a
libm difference on another host moves the last digits (the report names
the largest relative difference and where it is), a change of behaviour
moves more.

A change that alters these outputs on purpose rewrites the file in the
same change, from the root of a checkout:

    PYTHONPATH=src python tests/test_golden.py

which prints each run whose digest changed, with the report of
_difference, so the change can name what moved.
"""

import hashlib
import json
import math
import re
from pathlib import Path

import pytest
from click.testing import CliRunner

from fractalspin.cli import main

GOLDEN = Path(__file__).with_name("golden.json")

RUNS = {
    "extract": ["extract"],
    "extract_mix": ["extract", "--mix", "1e6", "--point", "0.3,0.7,-0.4,0.2",
                    "--c", "3"],
    "check_seed0": ["check", "--seed", "0"],
    "check_seed3": ["check", "--seed", "3"],
    # a 2000 x 500 ensemble stands in for the 10^4-path one
    "simulate_seed1": ["simulate", "--preset", "spiral_demo", "--n-traj",
                       "2000", "--n-steps", "500", "--seed", "1"],
    "simulate_seed2": ["simulate", "--preset", "spiral_demo", "--n-traj",
                       "2000", "--n-steps", "500", "--seed", "2"],
    "simulate_path_csv": ["simulate", "--preset", "spiral_demo",
                          "--n-steps", "100", "--seed", "7"],
    "spiral_csv": ["spiral", "--preset", "spiral_demo", "--n-steps", "100"],
    "hyperhelix_helix": ["hyperhelix", "--generator", "helix", "--level",
                         "5"],
    "hyperhelix_koch": ["hyperhelix", "--generator", "koch", "--level", "5"],
    "hyperhelix_line": ["hyperhelix", "--generator", "line", "--level", "5"],
}


def _run(args):
    result = CliRunner().invoke(main, args)
    return result.exit_code, result.stdout_bytes


#: a number standing alone in the text: not the 1 of "e1" nor of "x1.5"
_NUMBER = re.compile(r"(?<![\w.])-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _numbers(text: str) -> list:
    """The numbers in a text in order, those inside strings included (a
    check's detail line carries its residual as text)."""
    return [float(s) for s in _NUMBER.findall(text)]


def _record(args) -> dict:
    code, out = _run(args)
    return {"args": args, "exit_code": code, "size": len(out),
            "sha256": hashlib.sha256(out).hexdigest(),
            "numbers": _numbers(out.decode())}


def _difference(want: list, got: list) -> str:
    """Where and by how much the numbers of two outputs differ."""
    if len(want) != len(got):
        return f"{len(got)} numbers where golden has {len(want)}"
    worst, where = 0.0, None
    for i, (a, b) in enumerate(zip(want, got)):
        if a == b:
            continue
        scale = max(abs(a), abs(b))
        rel = math.inf if scale == 0 else abs(a - b) / scale
        if where is None or rel > worst:
            worst, where = rel, i
    if where is None:
        return "the numbers are equal; the text around them differs"
    return (f"largest relative difference {worst:.3e} at number {where}: "
            f"golden {want[where]!r}, now {got[where]!r}")


@pytest.mark.parametrize("name", sorted(RUNS))
def test_cli_output_matches_its_golden_digest(name):
    golden = json.loads(GOLDEN.read_text())[name]
    assert golden["args"] == RUNS[name]
    now = _record(RUNS[name])
    assert now["exit_code"] == golden["exit_code"]
    if (now["size"], now["sha256"]) != (golden["size"], golden["sha256"]):
        pytest.fail(f"{name}: {now['size']} bytes, sha256 {now['sha256']}, "
                    f"where golden has {golden['size']} bytes, sha256 "
                    f"{golden['sha256']}; "
                    + _difference(golden["numbers"], now["numbers"]))


def test_difference_report_names_the_largest_relative_change():
    assert _difference([1.0, 2.0, -0.0], [1.0, 2.0, 0.0]) == \
        "the numbers are equal; the text around them differs"
    assert _difference([1.0, 2.0], [1.0]) == \
        "1 numbers where golden has 2"
    assert _difference([1.0, 100.0, 0.0], [1.0 + 1e-15, 101.0, 0.0]) == \
        ("largest relative difference 9.901e-03 at number 1: golden 100.0, "
         "now 101.0")
    assert _numbers('{"v_pm": [1, 2.5e-3, true], "e1": "off by 0.69%, '
                    '-0.0 of 1e+02"}') == [1.0, 2.5e-3, 0.69, -0.0, 100.0]


def _changes(old: dict, new: dict) -> list:
    """One line per run of new whose output differs from old's record."""
    lines = []
    for name, now in new.items():
        was = old.get(name)
        if was is None:
            lines.append(f"{name}: new run")
        elif (now["exit_code"], now["size"], now["sha256"]) != \
                (was["exit_code"], was["size"], was["sha256"]):
            lines.append(f"{name}: "
                         + _difference(was["numbers"], now["numbers"]))
    return lines


def test_changes_name_each_run_that_moved():
    record = _record(RUNS["extract"])
    old = {"a": record, "b": record}
    new = {"a": record, "b": {**record, "sha256": "0" * 64}, "c": record}
    assert _changes(old, new) == [
        "b: the numbers are equal; the text around them differs",
        "c: new run"]
    assert _changes(old, old) == []


if __name__ == "__main__":
    before = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    after = {name: _record(args) for name, args in RUNS.items()}
    for line in _changes(before, after):
        print(line)
    GOLDEN.write_text(json.dumps(after, indent=1) + "\n")
