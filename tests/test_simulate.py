import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from fractalspin import simulate
from fractalspin.errors import AxisSingularity, ConfigError, InsufficientData
from fractalspin.simulate import (
    EnsembleResult,
    SimConfig,
    Trajectory,
    _child_generators,
    _integrate_noise_block,
    crossover_lag,
    default_lags,
    ensemble_run,
    increment_scaling,
    integrate_deterministic,
    integrate_stochastic,
    lz_series,
    rms_increments,
    spiral_drift,
    spiral_preset,
    two_sided_velocity,
)


def test_drift_values():
    v = spiral_drift((1.0, 0.0, 0.0), m=1.0, p0=1.0, sigma0=0.5)
    assert np.allclose(v, [0.0, 0.5, 1.0])
    v = spiral_drift((0.0, 2.0, 5.0), m=1.0, p0=1.0, sigma0=0.5)
    assert np.allclose(v, [-0.25, 0.0, 1.0])
    # tangential speed falls off as 1/rho, z-drift is position independent
    v1 = spiral_drift((3.0, 0.0, 0.0), m=2.0, p0=0.4, sigma0=0.5)
    assert math.isclose(np.hypot(v1[0], v1[1]), 0.5 / (2.0 * 3.0))
    assert math.isclose(v1[2], 0.2)


def test_drift_axis_singularity():
    with pytest.raises(AxisSingularity):
        spiral_drift((0.0, 0.0, 3.0), m=1.0, p0=1.0, sigma0=0.5)
    with pytest.raises(AxisSingularity):
        spiral_drift((0.05, 0.0, 0.0), m=1.0, p0=1.0, sigma0=0.5, r_min=0.1)
    # outside the core radius it evaluates fine
    spiral_drift((0.2, 0.0, 0.0), m=1.0, p0=1.0, sigma0=0.5, r_min=0.1)


def test_preset_and_core_radius():
    cfg = spiral_preset()
    assert cfg.diffusion == 0.05 and cfg.dt == 0.01
    assert cfg.sigma0 == 0.5 and cfg.p0 == 1.0 and cfg.m == 1.0
    assert math.isclose(cfg.core_radius(), 10.0 * math.sqrt(2 * 0.05 * 0.01))
    cfg2 = spiral_preset(n_steps=7, r_min=0.25)
    assert cfg2.n_steps == 7 and cfg2.core_radius() == 0.25
    assert cfg.n_steps != 7  # replace, not mutation


def test_rk4_conserves_radius_and_lz():
    cfg = SimConfig(dt=1e-3, n_steps=10_000, m=1.0, p0=1.0, sigma0=0.5,
                    x0=(1.0, 0.0, 0.0))
    traj = integrate_deterministic(cfg)
    rho = np.hypot(traj.positions[:, 0], traj.positions[:, 1])
    assert np.max(np.abs(rho - 1.0)) < 1e-8
    lz = lz_series(traj, mode="central")
    assert np.max(np.abs(lz - lz[0])) < 1e-8
    # the finite-difference estimate itself sits on sigma0
    assert abs(lz[0] - 0.5) < 1e-6
    # z advances uniformly at p0/m
    assert np.allclose(traj.positions[:, 2], traj.times, atol=1e-12)


def test_rk4_round_off_accuracy_needs_a_small_turn_per_step():
    # the README quick-start orbit turns dt sigma0/(m rho^2) = 5e-4 rad a
    # step: over 10^4 steps rho and L_z move at round-off level only
    traj = integrate_deterministic(spiral_preset(dt=1e-3, n_steps=10_000))
    rho = np.hypot(traj.positions[:, 0], traj.positions[:, 1])
    assert np.max(np.abs(rho - 1.0)) < 1e-13  # about 3e-15
    lz = lz_series(traj, mode="central")
    assert np.max(np.abs(lz - lz[0])) < 1e-12 * 0.5  # about 7e-14
    # at rho = 0.05 and dt = 0.01 one step turns 2 rad and the orbit drifts
    coarse = integrate_deterministic(
        spiral_preset(dt=0.01, n_steps=200, x0=(0.05, 0.0, 0.0)))
    rho = np.hypot(coarse.positions[:, 0], coarse.positions[:, 1])
    assert rho[1] > 1.2 * 0.05 and rho[-1] > 1.7 * 0.05


def test_rk4_hits_singularity_when_started_on_axis():
    cfg = SimConfig(dt=1e-3, n_steps=10, x0=(0.0, 0.0, 0.0))
    with pytest.raises(AxisSingularity):
        integrate_deterministic(cfg)


def test_stochastic_reproducible_by_seed():
    cfg = spiral_preset(n_steps=300, seed=42)
    a = integrate_stochastic(cfg)
    b = integrate_stochastic(cfg)
    assert np.array_equal(a.positions, b.positions)
    c = integrate_stochastic(spiral_preset(n_steps=300, seed=43))
    assert not np.array_equal(a.positions, c.positions)


def test_ensemble_path_matches_standalone_child_seed():
    cfg = spiral_preset(n_steps=80, n_traj=5, seed=11)
    # reconstruct path 3 of the ensemble from its child seed alone
    children = np.random.SeedSequence(11).spawn(5)
    standalone = integrate_stochastic(cfg, seed=children[3])

    from fractalspin.simulate import _child_generators, _integrate_noise_block
    gens = _child_generators(11, 5)
    noise = np.stack([g.standard_normal((80, 3)) for g in gens])
    paths = _integrate_noise_block(cfg, noise)
    assert np.array_equal(paths[3], standalone.positions)


def test_regularized_drift_survives_axis_crossing():
    # huge diffusion relative to the start radius forces core traffic
    cfg = SimConfig(diffusion=1.0, dt=0.01, n_steps=500, seed=5,
                    m=1.0, p0=0.0, sigma0=0.5, x0=(0.05, 0.0, 0.0))
    traj = integrate_stochastic(cfg)
    assert np.all(np.isfinite(traj.positions))


def test_injected_noise_variance():
    # drift off: increments are pure noise, variance per component 2D dt
    cfg = spiral_preset(p0=0.0, sigma0=0.0, n_steps=10_000, n_traj=100,
                        seed=7, x0=(0.0, 0.0, 0.0))
    res = ensemble_run(cfg)
    target = 2.0 * cfg.diffusion
    assert np.all(np.abs(res.increment_var / target - 1.0) < 0.02)
    assert np.all(np.abs(res.eta_mean) < 5.0 / math.sqrt(100 * 10_000))


def test_brownian_rms_and_hurst():
    rng = np.random.default_rng(8)
    d, dt = 0.05, 0.01
    steps = rng.standard_normal((200, 500, 3)) * math.sqrt(2 * d * dt)
    paths = np.concatenate([np.zeros((200, 1, 3)), np.cumsum(steps, axis=1)],
                           axis=1)
    result = increment_scaling(paths, dt)
    assert abs(result.hurst - 0.5) < 0.02
    assert abs(result.fractal_dimension - 2.0) < 0.1
    # vector RMS at lag tau is sqrt(6 D tau) for an isotropic random walk
    expect = np.sqrt(6 * d * result.lag_times)
    assert np.all(np.abs(result.rms / expect - 1.0) < 0.05)


def test_increment_scaling_guards():
    rng = np.random.default_rng(9)
    walk = np.cumsum(rng.standard_normal((2000, 3)), axis=0)
    with pytest.raises(InsufficientData):
        increment_scaling(walk, 0.01, lags=np.arange(1, 51))  # 1.7 decades
    short = walk[:151]
    with pytest.raises(InsufficientData):
        # span is fine but only 51 increments exist at the largest lag
        increment_scaling(short, 0.01, lags=np.array([1, 10, 100]))
    # both guards are overridable
    increment_scaling(short, 0.01, lags=np.array([1, 10, 100]),
                      min_increments=10)
    increment_scaling(walk, 0.01, lags=np.arange(1, 51), min_decades=1.5)


def test_increment_scaling_nan_min_decades_fails_the_gate():
    walk = np.cumsum(np.random.default_rng(9).standard_normal((2000, 3)),
                     axis=0)
    with pytest.raises(InsufficientData):
        increment_scaling(walk, 0.01, lags=np.array([1, 10, 100]),
                          min_decades=math.nan)


def test_crossover_lag_matches_drift_diffusion_balance():
    # 1-d increments z(t) = v t + Brownian(2D): RMS^2 = 2 D tau + v^2 tau^2
    rng = np.random.default_rng(10)
    d, dt, v = 0.05, 0.01, 1.0
    n_paths, n_steps = 2000, 400
    steps = rng.standard_normal((n_paths, n_steps, 1)) * math.sqrt(2 * d * dt)
    steps += v * dt
    z = np.concatenate([np.zeros((n_paths, 1, 1)),
                        np.cumsum(steps, axis=1)], axis=1)
    lags = np.unique(np.geomspace(1, 200, 24).astype(int))
    _, rms = rms_increments(z, lags)
    tau = crossover_lag(lags * dt, rms)
    expected = 2 * d / v ** 2
    assert expected / 3 < tau < expected * 3


def test_crossover_lag_requires_bracketing():
    # pure diffusion never leaves slope 1/2
    rng = np.random.default_rng(11)
    z = np.cumsum(rng.standard_normal((500, 300, 1)), axis=1) * 0.1
    lags = np.unique(np.geomspace(1, 100, 12).astype(int))
    _, rms = rms_increments(z, lags)
    with pytest.raises(InsufficientData):
        crossover_lag(lags * 0.01, rms)


def test_two_sided_velocity_spread():
    cfg = spiral_preset(p0=0.0, sigma0=0.0, n_steps=20_000, seed=12,
                        x0=(0.0, 0.0, 0.0))
    traj = integrate_stochastic(cfg)
    x = traj.positions
    # v+ - v- at every interior step, via the second difference
    diff = (x[2:] - 2 * x[1:-1] + x[:-2]) / cfg.dt
    rms = np.sqrt(np.mean(diff ** 2, axis=0))
    target = 2.0 * math.sqrt(cfg.diffusion / cfg.dt)
    assert np.all(np.abs(rms / target - 1.0) < 0.1)
    # and the accessor agrees with the direct differences at a spot check
    vp, vm = two_sided_velocity(traj, 100)
    assert np.allclose(vp - vm, diff[99])
    with pytest.raises(IndexError):
        two_sided_velocity(traj, 0)


def test_ensemble_lz_statistics():
    cfg = spiral_preset(n_steps=50, n_traj=3000, seed=13)
    res = ensemble_run(cfg)
    assert abs(res.lz_mean - cfg.sigma0) < 0.05
    assert res.lz_std > 0.0
    # mean final z rides the axial drift
    assert abs(res.mean_final[2] - cfg.p0 / cfg.m * cfg.n_steps * cfg.dt) < 0.02
    assert res.hurst is None  # only 1 decade of lags at n_steps = 50


def test_ensemble_hurst_drift_free():
    cfg = spiral_preset(p0=0.0, sigma0=0.0, n_steps=600, n_traj=400,
                        seed=14, x0=(0.0, 0.0, 0.0))
    res = ensemble_run(cfg)
    assert res.hurst is not None
    assert abs(res.hurst - 0.5) < 0.05
    assert abs(res.fractal_dimension - 2.0) < 0.2


def test_ensemble_reproducible_and_dict_fields():
    cfg = spiral_preset(n_steps=60, n_traj=40, seed=15)
    r1 = ensemble_run(cfg)
    r2 = ensemble_run(cfg)
    assert np.array_equal(r1.increment_var, r2.increment_var)
    assert np.array_equal(r1.mean_path, r2.mean_path)
    assert r1.to_dict() == r2.to_dict()
    keys = set(r1.to_dict())
    assert keys == {"n_traj", "seed", "H", "D_F", "Lz_mean", "Lz_std",
                    "increment_var", "mean_final"}


def test_ensemble_block_size_moves_pooled_sums_only_by_rounding(monkeypatch):
    # each path is bitwise the same whatever the block; pooled sums are
    # added block by block, so they may move in the last bits
    cfg = spiral_preset(n_traj=1300, n_steps=50, seed=2)
    runs = {}
    for block in (1, 64, 512):
        monkeypatch.setattr(simulate, "_BLOCK", block)
        runs[block] = ensemble_run(cfg)
    ref = runs[512]
    for res in runs.values():
        assert res.lz_mean == ref.lz_mean and res.lz_std == ref.lz_std
        assert res.hurst == ref.hurst
        for name in ("increment_var", "eta_mean", "mean_path", "mean_final",
                     "lag_rms"):
            np.testing.assert_allclose(getattr(res, name), getattr(ref, name),
                                       rtol=1e-12, atol=0.0, err_msg=name)


def test_ensemble_statistics_match_single_path_tools():
    # one block (n_traj <= 512): the pooled statistics are those of the
    # single-path tools applied to the same paths
    cfg = spiral_preset(n_traj=40, n_steps=600, seed=5)
    res = ensemble_run(cfg)
    noise = np.stack([g.standard_normal((cfg.n_steps, 3))
                      for g in _child_generators(cfg.seed, cfg.n_traj)])
    paths = _integrate_noise_block(cfg, noise)
    _, rms = rms_increments(paths, default_lags(cfg.n_steps))
    assert np.array_equal(res.lag_rms, rms)
    assert res.hurst is not None
    assert res.hurst == increment_scaling(paths, cfg.dt).hurst
    times = np.arange(cfg.n_steps + 1) * cfg.dt
    lz_means = [lz_series(Trajectory(times, p, cfg)).mean() for p in paths]
    assert res.lz_mean == np.mean(lz_means)


def test_lz_series_modes_and_validation():
    cfg = SimConfig(dt=1e-3, n_steps=100, x0=(1.0, 0.0, 0.0))
    traj = integrate_deterministic(cfg)
    for mode, n in (("forward", 100), ("central", 99)):
        lz = lz_series(traj, mode)
        # a series of its own, not a view of the velocity temporary
        assert lz.shape == (n,) and lz.flags.c_contiguous and lz.flags.owndata
    with pytest.raises(ValueError):
        lz_series(traj, "sideways")


@pytest.mark.parametrize("key, bad", [
    ("n_traj", 0), ("n_steps", 0), ("n_steps", -3),
    ("diffusion", 0.0), ("diffusion", math.inf), ("dt", -0.01),
    ("dt", math.inf), ("dt", math.nan), ("m", 0.0),
    ("x0", (math.nan, 0.0, 0.0)), ("x0", (1.0, math.inf, 0.0)),
    ("r_min", math.nan), ("r_min", math.inf),
    ("seed", -1), ("r_min", 0.0), ("r_min", -0.5),
    ("p0", math.inf), ("p0", math.nan), ("sigma0", math.nan),
    ("sigma0", -math.inf),
])
def test_sim_config_rejects_unusable_values(key, bad):
    name = {"diffusion": "D"}.get(key, key)
    with pytest.raises(ConfigError, match=f"key {name}:"):
        spiral_preset(**{key: bad})
    # replace() re-runs the check on every derived config
    with pytest.raises(ConfigError):
        SimConfig(**{key: bad})


def test_lags_outside_path_rejected_alike():
    cfg = spiral_preset(n_traj=20, n_steps=50)
    walk = integrate_stochastic(cfg).positions
    for bad in ([0, 1], [1, 10, 200], [-2, 5], []):
        with pytest.raises(ValueError, match=r"lags must lie in \[1, 50\]"):
            ensemble_run(cfg, lags=bad)
        with pytest.raises(ValueError, match=r"lags must lie in \[1, 50\]"):
            increment_scaling(walk, cfg.dt, lags=bad)
    # the longest lag a path of n_steps steps has is n_steps itself
    assert np.isfinite(ensemble_run(cfg, lags=[1, 50]).lag_rms).all()


def _recorded_blocks(monkeypatch, noises=None):
    """Record copies of the path blocks ensemble_run integrates, in order,
    and of their noise into noises when given; ensemble_run reuses its
    block arrays, so a block kept by reference would be overwritten."""
    blocks = []
    integrate = simulate._integrate_noise_block

    def recording(cfg, noise, out=None):
        if noises is not None:
            noises.append(noise.copy())
        paths = integrate(cfg, noise, out=out)
        blocks.append(paths.copy())
        return paths

    monkeypatch.setattr(simulate, "_integrate_noise_block", recording)
    return blocks


def test_ensemble_spawns_per_block_as_one_sequence(monkeypatch):
    # blocks of 512 + 512 + 276 paths, each block spawning its own
    # generators: path i still runs on child i of SeedSequence(seed)
    cfg = spiral_preset(n_traj=1300, n_steps=20, seed=21)
    blocks = _recorded_blocks(monkeypatch)
    ensemble_run(cfg)
    assert [len(b) for b in blocks] == [512, 512, 276]
    noise = np.stack([
        np.random.Generator(np.random.Philox(child)).standard_normal((20, 3))
        for child in np.random.SeedSequence(21).spawn(1300)])
    rebuilt = _integrate_noise_block(cfg, noise)
    assert np.array_equal(np.concatenate(blocks), rebuilt)


def _old_lag_sq_sums(x, lags):
    # the stencil before the einsum reductions: a squared temporary
    # summed over the length-3 axis, then over the rest
    counts, sums = [], []
    for lag in lags:
        d = x[..., lag:, :] - x[..., :-lag, :]
        sq = np.sum(d * d, axis=-1)
        counts.append(sq.size)
        sums.append(float(sq.sum()))
    return np.array(counts), np.array(sums)


def test_einsum_reductions_match_old_stencils(monkeypatch):
    cfg = spiral_preset(n_traj=1300, n_steps=300, seed=4)
    lags = np.unique(np.geomspace(1, 300, 16).astype(int))  # 2.5 decades
    blocks = _recorded_blocks(monkeypatch)
    res = ensemble_run(cfg, lags=lags)
    assert len(blocks) == 3

    # one path, a block of them, and a block of 1-d walks (its x components)
    for x in (blocks[0][7], blocks[2], blocks[1][..., :1]):
        counts, sums = simulate._lag_sq_sums(x, lags)
        old_counts, old_sums = _old_lag_sq_sums(x, lags)
        assert np.array_equal(counts, old_counts)
        np.testing.assert_allclose(sums, old_sums, rtol=1e-12, atol=0.0)

    # the old block loop, pooled over the same blocks in the same order
    sq_sums = np.zeros(len(lags))
    sq_counts = np.zeros(len(lags), dtype=np.int64)
    inc_sum, inc_sq, inc_n = np.zeros(3), np.zeros(3), 0
    path_sum = np.zeros((cfg.n_steps + 1, 3))
    lz_means = []
    for paths in blocks:
        path_sum += paths.sum(axis=0)
        inc = paths[:, 1:] - paths[:, :-1]
        inc_sum += inc.sum(axis=(0, 1))
        inc_sq += (inc ** 2).sum(axis=(0, 1))
        inc_n += inc.shape[0] * inc.shape[1]
        counts, sums = _old_lag_sq_sums(paths, lags)
        sq_sums += sums
        sq_counts += counts
        v = (paths[:, 1:] - paths[:, :-1]) / cfg.dt
        base = paths[:, :-1]
        lz = cfg.m * (base[..., 0] * v[..., 1] - base[..., 1] * v[..., 0])
        lz_means.extend(np.mean(lz, axis=1))
    mean_inc = inc_sum / inc_n
    inc_var = (inc_sq / inc_n - mean_inc ** 2) / cfg.dt
    rms = np.sqrt(sq_sums / sq_counts)
    hurst, _ = np.polyfit(np.log(lags * cfg.dt), np.log(rms), 1)

    np.testing.assert_allclose(res.increment_var, inc_var, rtol=1e-12, atol=0)
    np.testing.assert_allclose(res.lag_rms, rms, rtol=1e-12, atol=0.0)
    assert res.hurst is not None
    assert math.isclose(res.hurst, hurst, rel_tol=1e-12, abs_tol=0.0)
    assert res.lz_mean == np.mean(lz_means)
    assert res.lz_std == np.std(lz_means)
    assert np.array_equal(res.mean_path, path_sum / cfg.n_traj)
    assert np.array_equal(res.mean_final, path_sum[-1] / cfg.n_traj)


def _old_drift(pos, m, p0, sigma0, r_min=0.0):
    # spiral_drift before the shared (vx, vy) kernel
    x, y = float(pos[0]), float(pos[1])
    rho2 = x * x + y * y
    if rho2 <= r_min * r_min:
        raise AxisSingularity(
            f"drift evaluated at rho = {math.sqrt(rho2):.3e} "
            f"inside core radius {r_min:.3e}")
    return np.array([-(sigma0 / m) * y / rho2, (sigma0 / m) * x / rho2,
                     p0 / m])


def test_drift_kernel_equals_the_old_formulas():
    rng = np.random.default_rng(31)
    pts = rng.standard_normal((200, 3)) * 10.0 ** rng.integers(-3, 3, (200, 1))
    m, p0, sigma0, r_min = 1.7, -0.4, 0.9, 0.05
    for pos in pts:
        if pos[0] ** 2 + pos[1] ** 2 > r_min ** 2:
            assert np.array_equal(spiral_drift(pos, m, p0, sigma0, r_min),
                                  _old_drift(pos, m, p0, sigma0, r_min))
    # the block drift as written before the shared kernel
    rho2 = pts[:, 0] ** 2 + pts[:, 1] ** 2
    denom = np.maximum(rho2, r_min * r_min)
    old = np.empty_like(pts)
    old[:, 0] = -(sigma0 / m) * pts[:, 1] / denom
    old[:, 1] = (sigma0 / m) * pts[:, 0] / denom
    old[:, 2] = p0 / m
    assert np.count_nonzero(rho2 <= r_min * r_min) > 5
    assert np.array_equal(simulate._drift_block(pts, m, p0, sigma0, r_min),
                          old)


def _old_rk4(cfg, calls=None):
    # the numpy RK4 loop before the Python-float rewrite; calls, when
    # given, counts the drift evaluations
    def drift(pos):
        if calls is not None:
            calls.append(pos)
        return _old_drift(pos, cfg.m, cfg.p0, cfg.sigma0, r_min)

    r_min = 0.0 if cfg.r_min is None else cfg.r_min
    dt = cfg.dt
    x = np.asarray(cfg.x0, dtype=float).copy()
    out = np.empty((cfg.n_steps + 1, 3))
    out[0] = x
    for n in range(cfg.n_steps):
        k1 = drift(x)
        k2 = drift(x + 0.5 * dt * k1)
        k3 = drift(x + 0.5 * dt * k2)
        k4 = drift(x + dt * k3)
        x = x + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        out[n + 1] = x
    return out


def _old_stochastic(cfg, seed):
    # the single path as it ran before: a block of one path
    gen = np.random.Generator(np.random.Philox(seed))
    return _integrate_noise_block(
        cfg, gen.standard_normal((1, cfg.n_steps, 3)))[0]


@pytest.mark.parametrize("overrides", [
    dict(n_steps=3000, dt=1e-3),
    dict(n_steps=500, r_min=0.05, x0=(0.3, -0.2, 1.5)),
    dict(n_steps=200, dt=0.02, m=2.0, p0=-0.7, sigma0=-1.3,
         x0=(-0.4, 0.9, 0.0)),
    dict(n_steps=1, x0=(2, 1, 0)),
    # z rounds differently if summed as dt * vz instead of the RK4 sum
    dict(n_steps=300, dt=0.007, p0=0.3, x0=(0.5, 0.5, 0.0)),
])
def test_rk4_float_loop_equals_numpy_oracle(overrides):
    cfg = spiral_preset(**overrides)
    traj = integrate_deterministic(cfg)
    assert traj.positions.shape == (cfg.n_steps + 1, 3)
    assert np.array_equal(traj.positions, _old_rk4(cfg))
    assert np.array_equal(traj.times, np.arange(cfg.n_steps + 1) * cfg.dt)


@pytest.mark.parametrize("x0, r_min", [
    ((0.0, 0.0, 0.0), None), ((0.03, 0.0, 0.0), 0.04),
    ((0.05, 0.0, 0.0), 0.04), ((0.03, 0.0, 2.0), 0.02),
])
def test_rk4_near_axis_raises_where_the_oracle_does(monkeypatch, x0, r_min):
    cfg = spiral_preset(dt=0.01, n_steps=50, x0=x0, r_min=r_min)
    old_calls = []
    with pytest.raises(AxisSingularity) as old:
        _old_rk4(cfg, old_calls)
    calls = []
    raw_swirl = simulate._raw_swirl

    def counting(*args):
        calls.append(args)
        return raw_swirl(*args)

    monkeypatch.setattr(simulate, "_raw_swirl", counting)
    with pytest.raises(AxisSingularity) as new:
        integrate_deterministic(cfg)
    # the same stage of the same step, at the same radius
    assert len(calls) == len(old_calls)
    assert str(new.value) == str(old.value)


@pytest.mark.parametrize("overrides", [
    dict(seed=0), dict(seed=1), dict(seed=2 ** 40 + 3),
    dict(seed=9, r_min=0.4, n_steps=1500),
    dict(seed=4, diffusion=0.3, sigma0=-0.8, m=0.5, x0=(0.2, 0.1, -1.0)),
    # the noise is read in chunks of 4096 steps
    dict(seed=10, n_steps=1), dict(seed=11, n_steps=4095),
    dict(seed=12, n_steps=4096), dict(seed=13, n_steps=4097),
    dict(seed=14, n_steps=8193),
])
def test_stochastic_float_loop_equals_block_oracle(overrides):
    cfg = spiral_preset(**{"n_steps": 2000, **overrides})
    traj = integrate_stochastic(cfg)
    assert np.array_equal(traj.positions, _old_stochastic(cfg, cfg.seed))
    assert np.array_equal(traj.times, np.arange(cfg.n_steps + 1) * cfg.dt)


def test_stochastic_on_axis_start_spends_steps_in_the_core():
    cfg = spiral_preset(x0=(0.0, 0.0, 0.0), n_steps=3000, seed=6)
    old = _old_stochastic(cfg, cfg.seed)
    rho2 = old[:-1, 0] ** 2 + old[:-1, 1] ** 2
    assert np.count_nonzero(rho2 <= cfg.core_radius() ** 2) > 100
    assert np.array_equal(integrate_stochastic(cfg).positions, old)


def test_stochastic_seed_kinds_agree_with_the_oracle():
    cfg = spiral_preset(n_steps=300)
    child = np.random.SeedSequence(17).spawn(3)[2]
    old = _old_stochastic(cfg, child)
    assert np.array_equal(integrate_stochastic(cfg, seed=child).positions,
                          old)
    gen = np.random.Generator(np.random.Philox(child))
    assert np.array_equal(integrate_stochastic(cfg, seed=gen).positions, old)


@pytest.mark.parametrize("seed", [0, 5, 23])
@pytest.mark.parametrize("block, n_traj", [(512, 1300), (1, 3)])
def test_einsum_sums_equal_strided_sums_bitwise(monkeypatch, seed, block,
                                                n_traj):
    # blocks of 512, 512 and 276 paths, or of one path each
    monkeypatch.setattr(simulate, "_BLOCK", block)
    cfg = spiral_preset(n_traj=n_traj, n_steps=120, seed=seed)
    lags = default_lags(cfg.n_steps)
    noises = []
    blocks = _recorded_blocks(monkeypatch, noises)
    res = ensemble_run(cfg)
    eta_sum, inc_sum, inc_sq, inc_n = np.zeros(3), np.zeros(3), np.zeros(3), 0
    for noise, paths in zip(noises, blocks):
        inc = paths[:, 1:] - paths[:, :-1]
        for a in (noise, inc):
            assert np.array_equal(np.einsum("pnk->k", a), a.sum(axis=(0, 1)))
        eta_sum += noise.sum(axis=(0, 1))
        inc_sum += inc.sum(axis=(0, 1))
        inc_sq += np.einsum("pnk,pnk->k", inc, inc)
        inc_n += inc.shape[0] * inc.shape[1]
        # the lag-1 sum from the caller's increments is the one formed anew
        for got, want in zip(simulate._lag_sq_sums(paths, lags, inc),
                             simulate._lag_sq_sums(paths, lags)):
            assert np.array_equal(got, want)
    if block == 512:
        assert [len(p) for p in blocks] == [512, 512, 276]
    mean_inc = inc_sum / inc_n
    assert np.array_equal(res.eta_mean, eta_sum / (n_traj * cfg.n_steps))
    assert np.array_equal(res.increment_var,
                          (inc_sq / inc_n - mean_inc ** 2) / cfg.dt)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


def _fresh_lag_sq_sums(x, lags, inc=None):
    # _lag_sq_sums with a freshly allocated difference per lag
    counts = np.empty(len(lags), dtype=int)
    sums = np.empty(len(lags))
    for i, lag in enumerate(lags):
        d = inc if lag == 1 and inc is not None \
            else x[..., lag:, :] - x[..., :-lag, :]
        d = d.reshape(-1)
        counts[i] = d.size // x.shape[-1]
        sums[i] = float(np.einsum("i,i->", d, d))
    return counts, sums


def _ensemble_allocating_per_block(cfg, lags):
    # ensemble_run with fresh noise, path, increment and difference arrays
    # in every block: the loop before its block arrays were reused
    master = np.random.SeedSequence(cfg.seed)
    sq_sums = np.zeros(len(lags))
    sq_counts = np.zeros(len(lags), dtype=np.int64)
    lz_means = []
    inc_sum, inc_sq, inc_n = np.zeros(3), np.zeros(3), 0
    eta_sum = np.zeros(3)
    path_sum = np.zeros((cfg.n_steps + 1, 3))
    for start in range(0, cfg.n_traj, simulate._BLOCK):
        gens = _child_generators(master,
                                 min(simulate._BLOCK, cfg.n_traj - start))
        noise = np.stack([g.standard_normal((cfg.n_steps, 3)) for g in gens])
        paths = _integrate_noise_block(cfg, noise)
        eta_sum += np.einsum("pnk->k", noise)
        path_sum += paths.sum(axis=0)
        inc = paths[:, 1:] - paths[:, :-1]
        inc_sum += np.einsum("pnk->k", inc)
        inc_sq += np.einsum("pnk,pnk->k", inc, inc)
        inc_n += inc.shape[0] * inc.shape[1]
        counts, sums = _fresh_lag_sq_sums(paths, lags, inc)
        sq_sums += sums
        sq_counts += counts
        lz_means.extend(np.mean(simulate._lz(paths[:, :-1], inc / cfg.dt,
                                             cfg.m), axis=1))
    mean_inc = inc_sum / inc_n
    rms = np.sqrt(sq_sums / sq_counts)
    lag_times = lags * cfg.dt
    try:
        hurst = simulate._hurst_fit(lags, lag_times, sq_counts, rms)
    except InsufficientData:
        hurst = None
    return dict(
        hurst=hurst,
        lz_mean=float(np.mean(lz_means)),
        lz_std=float(np.std(lz_means)),
        increment_var=(inc_sq / inc_n - mean_inc ** 2) / cfg.dt,
        mean_path=path_sum / cfg.n_traj,
        mean_final=path_sum[-1] / cfg.n_traj,
        lag_times=lag_times,
        lag_rms=rms,
        eta_mean=eta_sum / (cfg.n_traj * cfg.n_steps))


@pytest.mark.parametrize("n_traj", [1, 2, 511, 512, 513, 1300])
def test_reused_block_arrays_equal_fresh_ones_bitwise(n_traj):
    # lag 1 comes from the increments; lag 2 and the L_z velocities fill
    # the scratch furthest, the top lag n_steps least; a short last block
    # (513, 1300) reads only the leading rows of every array
    cfg = spiral_preset(n_traj=n_traj, n_steps=120, seed=31)
    lags = np.array([1, 2, 7, 30, 120])
    res = ensemble_run(cfg, lags=lags)
    want = _ensemble_allocating_per_block(cfg, lags)
    assert (res.hurst is None) == (n_traj < 1000)
    for key, value in want.items():
        got = getattr(res, key)
        if value is None:
            assert got is None, key
        else:
            assert _same_bits(got, value), key


def test_lag_sums_with_scratch_equal_fresh_differences_bitwise():
    cfg = spiral_preset(n_traj=40, n_steps=90, seed=8)
    noise = np.random.Generator(np.random.Philox(8)).standard_normal(
        (40, 90, 3))
    block = _integrate_noise_block(cfg, noise)
    lags = np.array([1, 2, 3, 10, 45, 90])
    # one path, a block of them, and a block of 1-d walks (its y components)
    for x in (block[5], block, block[..., 1:2]):
        inc = x[..., 1:, :] - x[..., :-1, :]
        counts, sums = _fresh_lag_sq_sums(x, lags)
        # a scratch longer than needed and full of NaN: only the front of
        # it is read, and only after each difference is written
        scratch = np.full(inc.size + 7, np.nan)
        for got_counts, got_sums in (
                simulate._lag_sq_sums(x, lags),
                simulate._lag_sq_sums(x, lags, scratch=scratch),
                simulate._lag_sq_sums(x, lags, inc, scratch)):
            assert _same_bits(got_counts, counts)
            assert _same_bits(got_sums, sums)
        rms_counts, rms = rms_increments(x, lags)
        assert _same_bits(rms_counts, counts)
        assert _same_bits(rms, np.sqrt(sums / counts))


def test_ensemble_allocation_peak_stays_within_five_block_arrays():
    # one block of positions: 512 paths x 201 positions x 3 floats; the
    # run keeps two path arrays and one increment array of about that
    # size
    one_block = 512 * 201 * 3 * 8
    cfg = spiral_preset(n_traj=1300, n_steps=200, seed=3)
    tracemalloc.start()
    try:
        ensemble_run(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 5 * one_block, peak / one_block


def test_warm_ensemble_run_allocates_little_beyond_its_block_arrays():
    # two path arrays and an increment array are about 3 blocks; L_z and
    # the lag sums form everything in them, so the rest (generators,
    # per-step drift arrays) stays under half a block once the first
    # call's one-off allocations are made
    one_block = 512 * 201 * 3 * 8
    cfg = spiral_preset(n_traj=1300, n_steps=200, seed=3)
    ensemble_run(cfg)
    tracemalloc.start()
    try:
        ensemble_run(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * one_block, peak / one_block


def _assert_result_bits(res, want):
    for key, value in want.items():
        got = getattr(res, key)
        if value is None:
            assert got is None, key
        else:
            assert _same_bits(got, value), key


@pytest.mark.parametrize("n_traj", [513, 1300])
@pytest.mark.parametrize("lags", [[5, 1, 30, 2], [2, 3, 10], [1, 1, 4]])
def test_pooled_lags_in_any_order_equal_fresh_arrays_bitwise(n_traj, lags):
    # the pooling takes lag 1 from the increments before the L_z
    # velocities overwrite them, then every other lag; lags out of order,
    # repeated, or without lag 1 must still land in their own slots
    cfg = spiral_preset(n_traj=n_traj, n_steps=60, seed=n_traj)
    lags = np.array(lags)
    _assert_result_bits(ensemble_run(cfg, lags=lags),
                        _ensemble_allocating_per_block(cfg, lags))


def test_many_small_blocks_under_a_short_switch_interval_bitwise(
        monkeypatch):
    # 82 blocks of 16 paths, the interpreter switching threads as often
    # as it can: a block pooled twice, skipped, out of order or over a
    # path array still being filled would move the bits
    monkeypatch.setattr(simulate, "_BLOCK", 16)
    cfg = spiral_preset(n_traj=1300, n_steps=30, seed=6)
    lags = default_lags(cfg.n_steps)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        res = ensemble_run(cfg, lags=lags)
    finally:
        sys.setswitchinterval(interval)
    _assert_result_bits(res, _ensemble_allocating_per_block(cfg, lags))


def test_lz_in_place_equals_the_expression_bitwise():
    # formed in the velocity array's own memory, with the operations of
    # m * (x vy - y vx); signed zeros and exact cancellations included
    rng = np.random.default_rng(9)
    for shape in ((2000, 3), (7, 500, 3)):
        base = rng.standard_normal(shape)
        v = rng.standard_normal(shape)
        base.reshape(-1, 3)[:5] = [[0.0, -0.0, 1], [-0.0, 0.0, 1],
                                   [2.0, 2.0, 1], [1e-300, 3.0, 1],
                                   [-1.5, 0.0, 1]]
        v.reshape(-1, 3)[:5] = [[1.0, 0.0, 1], [1.0, 0.0, 1],
                                [3.0, 3.0, 1], [1e-10, -1e-300, 1],
                                [0.0, -0.0, 1]]
        for m in (1.0, 0.3, -2.5):
            want = m * (base[..., 0] * v[..., 1] - base[..., 1] * v[..., 0])
            scratch = v.copy()
            tracemalloc.start()
            try:
                got = simulate._lz(base, scratch, m)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert np.shares_memory(got, scratch)
            assert peak < want.nbytes // 4, peak
            assert _same_bits(np.ascontiguousarray(got), want)


def test_noise_block_steps_in_place_bitwise():
    # noise drawn into rows 1..n of the path array and stepped there: step
    # n reads noise row n before it writes position n+1 over it
    cfg = spiral_preset(n_steps=400, x0=(0.01, 0.0, 0.0))
    noise = np.random.Generator(np.random.Philox(12)).standard_normal(
        (64, cfg.n_steps, 3))
    want = _integrate_noise_block(cfg, noise)
    rho2 = want[:, :-1, 0] ** 2 + want[:, :-1, 1] ** 2
    assert np.count_nonzero(rho2 <= cfg.core_radius() ** 2) > 1000
    buf = np.empty((64, cfg.n_steps + 1, 3))
    buf[:, 1:] = noise
    got = _integrate_noise_block(cfg, buf[:, 1:], out=buf)
    assert got is buf
    assert _same_bits(got, want)


def test_pooling_runs_in_the_callers_numpy_errstate(monkeypatch):
    # the helper thread runs in a copy of the caller's context, where
    # numpy keeps its errstate; a plain thread would see the defaults
    seen = []
    lz = simulate._lz

    def recording(*args):
        seen.append((np.geterr(), threading.current_thread()))
        return lz(*args)

    monkeypatch.setattr(simulate, "_lz", recording)
    with np.errstate(all="raise"):
        caller = np.geterr()
        ensemble_run(spiral_preset(n_traj=1300, n_steps=20, seed=1))
    assert caller == dict(divide="raise", over="raise", under="raise",
                          invalid="raise")
    assert len(seen) == 3
    for errs, thread in seen:
        assert errs == caller
        assert thread is not threading.main_thread()


@pytest.mark.parametrize("failing", [2, 3])
def test_pooling_failure_is_raised_and_no_helper_outlives_the_run(
        monkeypatch, failing):
    # 3 blocks: block 2's failure surfaces before block 3 is handed over,
    # the last block's only after the loop
    boom = RuntimeError("pooling failed")
    calls = []
    lz = simulate._lz

    def failing_block(*args):
        calls.append(threading.current_thread())
        if len(calls) == failing:
            raise boom
        return lz(*args)

    monkeypatch.setattr(simulate, "_lz", failing_block)
    cfg = spiral_preset(n_traj=1300, n_steps=30, seed=2)
    lags = default_lags(cfg.n_steps)
    threads = threading.active_count()
    with pytest.raises(RuntimeError) as raised:
        ensemble_run(cfg)
    assert raised.value is boom
    assert threading.active_count() == threads
    assert all(t is not threading.main_thread() for t in calls)
    # the next run on the same (patched, now passing) module is right
    _assert_result_bits(ensemble_run(cfg, lags=lags),
                        _ensemble_allocating_per_block(cfg, lags))
    assert threading.active_count() == threads


@pytest.mark.parametrize("helper_fails", [False, True])
def test_main_thread_failure_waits_for_the_helper(monkeypatch, helper_fails):
    # the main thread fails on block 2 while block 1 is still pooling; its
    # error is the one raised, even when the helper then fails too
    integrate = simulate._integrate_noise_block
    pooled = []
    lz = simulate._lz
    blocks = []

    def slow_lz(*args):
        time.sleep(0.2)
        pooled.append(len(args[0]))
        if helper_fails:
            raise RuntimeError("pooling failed")
        return lz(*args)

    def failing_second(cfg, noise, out=None):
        blocks.append(len(noise))
        if len(blocks) == 2:
            raise ValueError("stepping failed")
        return integrate(cfg, noise, out=out)

    monkeypatch.setattr(simulate, "_lz", slow_lz)
    monkeypatch.setattr(simulate, "_integrate_noise_block", failing_second)
    threads = threading.active_count()
    with pytest.raises(ValueError, match="stepping failed"):
        ensemble_run(spiral_preset(n_traj=1300, n_steps=30, seed=3))
    assert pooled == [512]
    assert threading.active_count() == threads
