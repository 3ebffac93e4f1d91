"""Spans and counters around the library's public functions, and the
traced pass of each workload that turns them into per-layer metrics.

A span is [name, start, end, parent]: parent is the index of the span
open when it began.  Spans live in memory and are written out once, at
the end.  A layer's self time is its spans' durations minus the time
covered by their child spans.

Wrapping an algebra or field call costs about as much as the call, so
those layers are wrapped only to count calls and keep a sample of their
operands; their cost per call comes from an unwrapped timing loop over
that sample.  tracemalloc runs only around the calls whose allocation
peak is reported, in a pass of its own, because it slows every Python
allocation it sees.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
import time
import tracemalloc

import fractalspin.cli as cli
from fractalspin import algebra, dynamics, fields, hyperhelix, velocity

_OPERAND_SAMPLE = 4000
_LOOP_REPEATS = 5


class Tracer:
    """Records spans and counts by replacing attributes with wrappers;
    ``restore`` puts the originals back."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.samples = {}
        self._open = []
        self._undo = []

    def _replace(self, owner, attr, make):
        original = getattr(owner, attr)
        setattr(owner, attr, functools.wraps(original)(make(original)))
        self._undo.append((owner, attr, original))

    def span(self, owner, attr, name, on_return=None):
        """Wrap owner.attr in a span.  name may be a callable of the call's
        positional arguments; on_return(args, result) sees each result."""
        spans, stack = self.spans, self._open

        def make(fn):
            def wrapper(*args, **kwargs):
                label = name(args) if callable(name) else name
                i = len(spans)
                spans.append([label, time.perf_counter(), None,
                              stack[-1] if stack else None])
                stack.append(i)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    stack.pop()
                    spans[i][2] = time.perf_counter()
                if on_return is not None:
                    on_return(args, result)
                return result
            return wrapper
        self._replace(owner, attr, make)

    def count(self, owner, attr, name):
        """Wrap owner.attr to count calls and keep the first operands."""
        self.counts[name] = 0
        sample = self.samples.setdefault(name, [])
        counts = self.counts

        def make(fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                if len(sample) < _OPERAND_SAMPLE:
                    sample.append(args)
                return fn(*args, **kwargs)
            return wrapper
        self._replace(owner, attr, make)

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def layers(self) -> dict:
        """name -> {"calls", "total_s", "self_s"} over all spans."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out = {}
        for (name, start, end, _), kids in zip(self.spans, covered):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                        "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - kids
        return out

    def write(self, path):
        path.write_text(json.dumps(self.spans))


def _alloc_peak(owner, attr, run) -> float:
    """Peak MB that tracemalloc sees inside owner.attr while run() runs."""
    peaks = []
    fn = getattr(owner, attr)

    def measured(*args, **kwargs):
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1] / 2 ** 20)
            tracemalloc.stop()
    setattr(owner, attr, measured)
    try:
        run()
    finally:
        setattr(owner, attr, fn)
    return max(peaks)


def _us_per_call(call, operands) -> float:
    """Median over repeats of an unwrapped loop's time per call, in us."""
    times = []
    for _ in range(_LOOP_REPEATS):
        t0 = time.perf_counter()
        for args in operands:
            call(*args)
        times.append((time.perf_counter() - t0) / len(operands))
    return statistics.median(times) * 1e6


def _cli_label(args):
    return "cli." + args[0][0]


def _timed_pass(tr, wl) -> float:
    t0 = time.perf_counter()
    try:
        wl.run()
    finally:
        tr.restore()
    return time.perf_counter() - t0


def trace_ensemble(wl, tr) -> tuple:
    cfgs = []
    tr.span(cli, "main", _cli_label)
    tr.span(cli, "ensemble_run", "simulate.ensemble_run",
            lambda args, _: cfgs.append(args[0]))
    wall = _timed_pass(tr, wl)
    run_s = tr.layers()["simulate.ensemble_run"]["total_s"]
    steps = sum(c.n_traj * c.n_steps for c in cfgs)
    return wall, {
        "simulate.ensemble_run_s": run_s,
        "simulate.path_steps": steps,
        "simulate.ns_per_path_step": run_s / steps * 1e9,
        "simulate.ensemble_alloc_peak_mb": _alloc_peak(cli, "ensemble_run",
                                                       wl.run),
    }


def trace_helix(wl, tr) -> tuple:
    vertices, chords = [], []
    tr.span(cli, "main", _cli_label)
    tr.span(cli, "iterate", "hyperhelix.iterate",
            lambda args, verts: vertices.append(len(verts)))
    tr.span(cli, "measured_dimension", "hyperhelix.measured_dimension")
    # a walk's leftover chord is shorter than the ruler, so the number of
    # whole chords is floor(length / ruler); the slack absorbs rounding
    # when the walk ends exactly on the last vertex
    tr.span(hyperhelix, "divider_walk", "hyperhelix.divider_walk",
            lambda args, length: chords.append(
                math.floor(length / args[1] + 1e-9)))
    tr.span(cli, "curve_spin", "hyperhelix.curve_spin")
    wall = _timed_pass(tr, wl)
    layers = tr.layers()
    walk_s = layers["hyperhelix.divider_walk"]["total_s"]
    return wall, {
        "hyperhelix.iterate_s": layers["hyperhelix.iterate"]["total_s"],
        "hyperhelix.iterate_alloc_peak_mb": _alloc_peak(hyperhelix, "iterate",
                                                        wl.curve),
        "hyperhelix.vertices": sum(vertices),
        "hyperhelix.divider_walk_s": walk_s,
        "hyperhelix.chords": sum(chords),
        "hyperhelix.us_per_chord": walk_s / sum(chords) * 1e6,
        "hyperhelix.curve_spin_s": layers["hyperhelix.curve_spin"]["total_s"],
    }


_ROUTES = ("bq_velocity", "conjugate_velocity", "component_velocities")


def trace_fieldmap(wl, tr) -> tuple:
    witness_pts = []
    for route in _ROUTES:
        tr.span(velocity, route, "velocity." + route)
    tr.span(fields.SpinorField, "value", "fields.value")
    tr.span(fields.SpinorField, "partial", "fields.partial")
    tr.span(dynamics, "gradient_witness", "dynamics.gradient_witness",
            lambda args, _: witness_pts.append(len(args[2])))
    wall = _timed_pass(tr, wl)
    layers = tr.layers()
    points = len(wl.pts)
    n_witness = sum(witness_pts)

    counter = Tracer()
    counter.count(fields.SpinorField, "value", "fields.value")
    counter.count(fields.SpinorField, "partial", "fields.partial")
    counter.count(algebra.Biquaternion, "__mul__", "algebra.mul")
    counter.count(algebra.Biquaternion, "inverse", "algebra.inverse")
    counter.count(dynamics, "acceleration_field", "dynamics.acceleration_field")
    try:
        wl.run()
    finally:
        counter.restore()
    n, ops = counter.counts, counter.samples
    metrics = {"velocity.points": points}
    for route in _ROUTES:
        metrics[f"velocity.{route}_us"] = \
            layers["velocity." + route]["self_s"] / points * 1e6
    metrics.update({
        "fields.value_calls": n["fields.value"],
        "fields.partial_calls": n["fields.partial"],
        "fields.value_us": _us_per_call(
            lambda f, pt: f.value(pt), ops["fields.value"]),
        "fields.partial_us": _us_per_call(
            lambda f, pt, mu: f.partial(pt, mu), ops["fields.partial"]),
        "algebra.mul_calls": n["algebra.mul"],
        "algebra.inverse_calls": n["algebra.inverse"],
        "algebra.mul_us": _us_per_call(lambda a, b: a * b,
                                       ops["algebra.mul"]),
        "algebra.inverse_us": _us_per_call(lambda a: a.inverse(),
                                           ops["algebra.inverse"]),
        "dynamics.witness_points": n_witness,
        "dynamics.acceleration_field_calls":
            n["dynamics.acceleration_field"],
        "dynamics.gradient_witness_ms_per_point":
            layers["dynamics.gradient_witness"]["total_s"] / n_witness * 1e3,
    })
    return wall, metrics


def trace_longpath(wl, tr) -> tuple:
    steps = {}

    def note(kind):
        return lambda args, _: steps.__setitem__(kind, args[0].n_steps)
    tr.span(cli, "main", _cli_label)
    tr.span(cli, "integrate_deterministic",
            "simulate.integrate_deterministic", note("deterministic"))
    tr.span(cli, "integrate_stochastic", "simulate.integrate_stochastic",
            note("stochastic"))
    wall = _timed_pass(tr, wl)
    layers = tr.layers()
    return wall, {
        "cli.self_s": layers["cli.spiral"]["self_s"]
        + layers["cli.simulate"]["self_s"],
        "cli.out_bytes": wl.spiral_out.stat().st_size
        + wl.path_out.stat().st_size,
        "simulate.integrate_deterministic_us_per_step":
            layers["simulate.integrate_deterministic"]["total_s"]
            / steps["deterministic"] * 1e6,
        "simulate.integrate_stochastic_us_per_step":
            layers["simulate.integrate_stochastic"]["total_s"]
            / steps["stochastic"] * 1e6,
    }


TRACERS = {"ensemble": trace_ensemble, "helix": trace_helix,
           "fieldmap": trace_fieldmap, "longpath": trace_longpath}
