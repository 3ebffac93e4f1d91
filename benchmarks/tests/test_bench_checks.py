"""Each workload's checker accepts the program's real output, at a reduced
size, and rejects the same output with one value perturbed.

    python3 -m pytest benchmarks/tests
"""

import copy
import math
import shutil
import signal
import subprocess
import sys
import time
import types

import numpy as np
import pytest

import checks
import run
import tracing
import workloads
import yardstick

PHYS = workloads.PHYSICS


# -- ensemble ----------------------------------------------------------------

@pytest.fixture(scope="module")
def ensemble(tmp_path_factory):
    mp = pytest.MonkeyPatch()
    mp.setattr(workloads, "ENSEMBLE_TRAJ", 1000)
    wl = workloads.Ensemble(11, tmp_path_factory.mktemp("ensemble"))
    wl.run()
    stats = checks.strict_json(wl.out.read_text())
    yield wl, stats
    mp.undo()


def _ens_problems(stats, wl):
    return checks.check_ensemble(stats, PHYS, wl.sim_seed, 1000,
                                 workloads.ENSEMBLE_STEPS)


def test_ensemble_output_passes(ensemble):
    wl, stats = ensemble
    assert _ens_problems(stats, wl) == []


@pytest.mark.parametrize("key, index, change", [
    ("mean_final", 2, lambda v: v + 10 * math.sqrt(2 * 0.05 * 5.0 / 1000)),
    ("increment_var", 2,
     lambda v: v * (1 + 10 * math.sqrt(2 / (1000 * 500)))),
    ("H", None, lambda v: 0.45),
    ("D_F", None, lambda v: v * (1 + 1e-12)),
    ("Lz_mean", None, lambda v: 0.5 * 0.94),
    ("seed", None, lambda v: v + 1),
])
def test_ensemble_perturbed_output_fails(ensemble, key, index, change):
    wl, stats = ensemble
    bad = copy.deepcopy(stats)
    if index is None:
        bad[key] = change(bad[key])
    else:
        bad[key][index] = change(bad[key][index])
    assert _ens_problems(bad, wl)


def test_ensemble_lz_above_sigma0_fails(ensemble):
    # inside 5% of sigma0 but more than 4 standard errors above it
    wl, stats = ensemble
    bad = dict(stats, Lz_mean=0.5 + 4.5 * stats["Lz_std"] / math.sqrt(1000))
    assert bad["Lz_mean"] < 0.5 * 1.05
    assert _ens_problems(bad, wl)


def test_ensemble_nan_json_is_refused():
    with pytest.raises(ValueError):
        checks.strict_json('{"H": NaN}')


def test_ensemble_reference_agrees_and_catches_a_drift():
    from fractalspin import simulate
    lags = np.array([1, 3, 10, 30])
    cfg = simulate.spiral_preset(n_traj=16, n_steps=60, seed=5)
    res = simulate.ensemble_run(cfg, lags=lags)
    got = {"mean_final": res.mean_final, "Lz_mean": res.lz_mean,
           "Lz_std": res.lz_std, "increment_var": res.increment_var,
           "lag_rms": res.lag_rms}
    ref = checks.reference_ensemble(PHYS, 5, 16, 60, lags)
    assert checks.check_ensemble_reference(got, ref) == []
    for key in got:
        bad = dict(got)
        bad[key] = np.asarray(got[key]) * (1 + 1e-11)
        assert checks.check_ensemble_reference(bad, ref), key


# -- helix -------------------------------------------------------------------

@pytest.fixture(scope="module")
def helix(tmp_path_factory):
    wl = workloads.Helix(3, tmp_path_factory.mktemp("helix"))
    wl.run()
    wl.validate()
    return wl, checks.strict_json(wl.out.read_text())


def _helix_problems(out, wl):
    return checks.check_helix(out, workloads.HELIX_LEVEL, wl.spin_ref,
                              wl.spins_other)


def test_helix_output_passes(helix):
    wl, out = helix
    assert _helix_problems(out, wl) == []


@pytest.mark.parametrize("key, index, change", [
    ("lengths", -1, lambda v: v * (1 + 1e-6)),
    ("lengths", -2, lambda v: v * (1 - 1e-6)),
    ("n_vertices", None, lambda v: v + 1),
    ("similarity_dimension", None, lambda v: math.nextafter(v, 3.0)),
    ("measured_dimension", None, lambda v: 1.94),
    ("sigma_over_hbar", None, lambda v: v * (1 + 1e-11)),
])
def test_helix_perturbed_output_fails(helix, key, index, change):
    wl, out = helix
    bad = copy.deepcopy(out)
    if index is None:
        bad[key] = change(bad[key])
    else:
        bad[key][index] = change(bad[key][index])
    assert _helix_problems(bad, wl)


def test_helix_spin_that_depends_on_mass_fails(helix):
    wl, out = helix
    assert checks.check_helix(out, workloads.HELIX_LEVEL, wl.spin_ref,
                              [wl.spins_other[0] * (1 + 1e-10)])


def test_reference_spin_matches_a_circle():
    # one turn of radius r about the x axis, then along it: integral
    # r^2 dphi = 2 pi r^2 (trapezoid on a fine polygon), span 1
    n, r = 20000, 0.1
    phi = np.linspace(0.0, 2 * np.pi, n + 1)
    ring = np.stack([np.linspace(0.0, 1.0, n + 1), r * np.cos(phi) - r,
                     r * np.sin(phi)], axis=1)
    want = 2 * np.pi * (2 * np.pi * r ** 2)
    assert abs(abs(checks.reference_spin(ring)) - want) < 1e-3 * want


# -- fieldmap ----------------------------------------------------------------

@pytest.fixture(scope="module")
def fieldmap(tmp_path_factory):
    mp = pytest.MonkeyPatch()
    mp.setattr(workloads, "FIELD_GRID", 6)
    wl = workloads.Fieldmap(7, tmp_path_factory.mktemp("fieldmap"))
    wl.run()
    yield wl
    mp.undo()


def _field_result(wl):
    bq, conj, rec, w_rot, w_ctrl = wl.result

    def coeffs(rows):
        return np.array([[v.a for v in row] for row in rows])
    return {"bq": coeffs(bq), "conj": coeffs(conj),
            "rec": coeffs(r for r, _ in rec), "tilde": np.zeros(len(bq)),
            "witness_rotor": w_rot, "witness_control": w_ctrl}


def test_fieldmap_output_passes(fieldmap):
    assert fieldmap.check() == []


@pytest.mark.parametrize("key, change", [
    ("bq", lambda a: a.__setitem__((3, 1, 0), a[3, 1, 0] + 1e-9)),
    ("bq", lambda a: a.__setitem__((0, 2, 1), 1e-9)),
    ("rec", lambda a: a.__setitem__((5, 0, 1), a[5, 0, 1] + 1e-9)),
    ("conj", lambda a: a.__setitem__((2, 3, 0), a[2, 3, 0] * (1 + 1e-11))),
    ("tilde", lambda a: a.__setitem__(4, 1e-9)),
])
def test_fieldmap_perturbed_velocity_fails(fieldmap, key, change):
    res = _field_result(fieldmap)
    assert checks.check_fieldmap(res, fieldmap.points, fieldmap.params) == []
    change(res[key])
    assert checks.check_fieldmap(res, fieldmap.points, fieldmap.params)


@pytest.mark.parametrize("key, value", [("witness_control", 2e-6),
                                        ("witness_rotor", 0.05)])
def test_fieldmap_wrong_witness_fails(fieldmap, key, value):
    res = _field_result(fieldmap)
    res[key] = value
    assert checks.check_fieldmap(res, fieldmap.points, fieldmap.params)


def test_field_points_avoid_the_axis_and_follow_the_seed():
    a, b = workloads.field_points(1), workloads.field_points(2)
    assert a.shape == b.shape == (workloads.FIELD_GRID ** 2, 4)
    assert not np.array_equal(a, b)
    assert np.array_equal(a, workloads.field_points(1))
    cell = 2 * workloads.FIELD_HALF_WIDTH / workloads.FIELD_GRID
    assert np.min(np.hypot(a[:, 1], a[:, 2])) >= cell / (2 * math.sqrt(2))


# -- longpath ----------------------------------------------------------------

@pytest.fixture(scope="module")
def longpath(tmp_path_factory):
    mp = pytest.MonkeyPatch()
    mp.setattr(workloads, "LONG_STEPS", 3000)
    wl = workloads.Longpath(5, tmp_path_factory.mktemp("longpath"))
    wl.run()
    wl.validate()
    yield wl
    mp.undo()


def test_longpath_output_passes(longpath):
    assert longpath.check() == []


def test_spiral_perturbed_row_fails(longpath):
    rows = checks.parse_path_csv(longpath.spiral_out)
    assert checks.check_spiral(rows, PHYS, 3000) == []
    bad = rows.copy()
    bad[1234, 2] += 1e-7
    assert checks.check_spiral(bad, PHYS, 3000)
    assert checks.check_spiral(rows[:-1], PHYS, 3000)


def test_stochastic_perturbed_row_fails(longpath):
    rows = checks.parse_path_csv(longpath.path_out)
    assert checks.check_stochastic(rows, longpath.ref, PHYS.dt) == []
    bad = rows.copy()
    bad[2000, 1] += 1e-8
    assert checks.check_stochastic(bad, longpath.ref, PHYS.dt)
    assert checks.check_stochastic(rows[:-1], longpath.ref, PHYS.dt)


# -- harness -----------------------------------------------------------------

def test_self_time_subtracts_child_spans():
    box = types.SimpleNamespace()
    box.inner = lambda: sum(range(20000))
    box.outer = lambda: (box.inner(), box.inner())
    originals = (box.inner, box.outer)
    tr = tracing.Tracer()
    tr.span(box, "outer", "outer")
    tr.span(box, "inner", "inner")
    box.outer()
    tr.restore()
    assert (box.inner, box.outer) == originals
    layers = tr.layers()
    assert layers["inner"]["calls"] == 2
    outer = layers["outer"]
    assert outer["self_s"] == pytest.approx(
        outer["total_s"] - layers["inner"]["total_s"], abs=1e-12)


def test_speedometer_samples_inside_the_block_and_scales():
    before = signal.getsignal(signal.SIGALRM)
    with yardstick.Speedometer(("objects",)) as meter:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.5:
            sum(range(1000))
    elapsed = time.perf_counter() - t0
    assert signal.getsignal(signal.SIGALRM) is before
    assert 5 <= len(meter.slowness) <= 0.5 / yardstick.INTERVAL_S + 1
    assert 0 < meter.busy_s < elapsed
    # the samples' own time is taken out, the rest divided by the mean
    meter.slowness, meter.busy_s = [1.0, 2.0, 3.0], 0.5
    assert meter.scaled(4.5) == pytest.approx(2.0)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "benchmarks" / "run.py"),
         "--workload", "ensemble", "--seed", "1", "--seconds", "1",
         "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
        timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
