"""Deterministic and stochastic integration of the spiral drift field.

The drift is the velocity extracted from a spiraling two-term spinor
superposition:

    vx = -(sigma0/m) y / (x^2 + y^2)
    vy = +(sigma0/m) x / (x^2 + y^2)
    vz = p0 / m

a rigid rotation about the z axis at angular speed sigma0/(m rho^2)
superposed on uniform axial motion.  The deterministic integrator is
that flow in closed form: rho is its invariant, so step n turns the
start by n dt sigma0/(m rho^2) and moves it n dt p0/m along z, and rho
and the angular momentum m(x vy - y vx) hold to rounding at any step
size.  The stochastic integrator is Euler-Maruyama with increments

    dX = v(X) dt + eta sqrt(2 D dt),   eta ~ N(0, 1) per component,

with the drift denominator regularized as max(rho^2, r_core^2) so a path
that diffuses through the axis does not blow up; r_core is ten noise step
lengths, 10 sqrt(2 D dt) (SimConfig.core_radius).

A single stochastic path steps in Python floats (the deterministic rows
are the closed-form flow's, not stepped): on three numbers a step costs
less that way than the numpy calls on 3-element arrays would.  Ensembles
step a block of paths at once, each of the x, y, z columns a numpy array.
The single stochastic path and the ensemble block both evaluate the drift
through the one kernel _swirl and step each coordinate as x + v dt + eta
sqrt(2 D dt), with the same operations in the same order, so a single
path equals the matching ensemble path bit for bit.

An ensemble runs in blocks of paths.  The main thread draws a block's
noise into rows 1..n of a path array and steps it there in place, while
a helper thread pools the previous block's statistics (increments, lag
sums, L_z means, end points) from the other path array; those are large
numpy passes that release the GIL, so a second CPU takes them.  Blocks
are pooled one at a time in block order, so every sum is added in the
same order as a serial run and the results are the same bits.  With one CPU
the helper shares it with the main thread.

Seeding: one master integer seed; trajectory i draws from the Philox
stream of child i of SeedSequence(master), so every trajectory is
independent and bit-reproducible regardless of how the ensemble is
blocked.  An ensemble builds no children: it hashes a block's Philox keys
in one numpy pass (_philox_keys, numpy's SeedSequence hash) and re-keys
one Philox to each path's key before drawing its noise.
"""

from __future__ import annotations

import math
from array import array
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import (AxisSingularity, ConfigError, InsufficientData,
                     NumericalError, finite, whole)

# paths per vectorized ensemble block: each path, and so Lz, is bitwise
# independent of it; pooled sums are added per block and agree to rounding
_BLOCK = 512

# most paths an ensemble runs: _philox_keys hashes a path's spawn index as
# one 32-bit word, as numpy does for indices below 2^32
_MAX_PATHS = 2 ** 32

# noise rows a single stochastic path reads as Python floats at a time
_CHUNK = 4096

# every Hurst fit's gates: pooled increments at the largest lag, lag decades
_MIN_INCREMENTS, _MIN_DECADES = 1000, 2.0
_MAX_DEFAULT_LAG = 100  # largest lag default_lags picks
_MID_SLOPE = 0.75  # between diffusive 1/2 and ballistic 1: crossover_lag

# numpy SeedSequence's hash constants and pool size (_philox_keys)
_INIT_A, _MULT_A = 0x43b0d7e5, 0x931e8875
_INIT_B, _MULT_B = 0x8b51f9dd, 0x58f38ded
_MIX_MULT_L, _MIX_MULT_R = 0xca01f9dd, 0x4973f715
_XSHIFT, _MASK32, _POOL = 16, 0xFFFFFFFF, 4


@dataclass
class SimConfig:
    diffusion: float = 0.05
    dt: float = 0.01
    n_steps: int = 2000
    seed: int = 0
    m: float = 1.0
    p0: float = 1.0
    sigma0: float = 0.5
    x0: tuple = (1.0, 0.0, 0.0)
    n_traj: int = 1

    def __post_init__(self):
        """Reject a config no run can use, naming the key as config files
        and CLI flags spell it (errors.finite and errors.whole)."""
        for key, value, least in (("n_traj", self.n_traj, 1),
                                  ("n_steps", self.n_steps, 1),
                                  ("seed", self.seed, 0)):
            whole(f"key {key}", value, least)
        if self.n_traj > _MAX_PATHS:
            raise ConfigError(f"key n_traj: need at most {_MAX_PATHS}, "
                              f"got {self.n_traj!r}")
        for key, value, positive in (
                ("D", self.diffusion, True), ("dt", self.dt, True),
                ("m", self.m, True), ("p0", self.p0, False),
                ("sigma0", self.sigma0, False)):
            finite(f"key {key}", value, positive=positive)
        finite("key x0", self.x0, 3)

    def core_radius(self) -> float:
        """Radius inside which a stochastic step holds the drift
        denominator at its square: ten noise step lengths."""
        return 10.0 * math.sqrt(2.0 * self.diffusion * self.dt)


def spiral_preset(**overrides) -> SimConfig:
    """Demo parameters: D = 0.05, dt = 0.01, sigma0 = 1/2, p0 = 1, m = 1
    (so hbar = 2 m D = 0.1 and sigma0 = 5 hbar), started at (1, 0, 0)."""
    return replace(SimConfig(), **overrides)


@dataclass
class Trajectory:
    times: np.ndarray
    positions: np.ndarray
    config: SimConfig


def _swirl(x, y, k: float, denom):
    """Transverse drift (vx, vy) = k (-y, x) / denom with k = sigma0/m,
    on floats or arrays alike; the caller picks denom, rho^2 or rho^2
    held at the core radius squared inside the core."""
    return -k * y / denom, k * x / denom


def _off_axis_rho2(x: float, y: float) -> float:
    """rho^2 = x^2 + y^2; raises AxisSingularity where it is 0."""
    rho2 = x * x + y * y
    if rho2 == 0.0:
        raise AxisSingularity(
            f"drift evaluated on the axis: rho^2 = 0 at x = {x!r}, y = {y!r}")
    return rho2


def spiral_drift(pos, m: float, p0: float, sigma0: float) -> np.ndarray:
    """Raw drift velocity; raises AxisSingularity on the axis (rho^2 = 0),
    and ConfigError, naming the key, unless m is a finite number > 0, pos
    three finite numbers and p0 and sigma0 finite."""
    m = finite("key m", m, positive=True)
    p0, sigma0 = finite("key p0", p0), finite("key sigma0", sigma0)
    pos = finite("key pos", pos, 3).tolist()
    vx, vy = _swirl(pos[0], pos[1], sigma0 / m, _off_axis_rho2(*pos[:2]))
    return np.array([vx, vy, p0 / m])


def _trajectory(cfg: SimConfig, buf: array) -> Trajectory:
    """The path of cfg whose n+1 positions buf holds as flat floats."""
    return Trajectory(np.arange(cfg.n_steps + 1) * cfg.dt,
                      np.frombuffer(buf, dtype=float).reshape(-1, 3), cfg)


def integrate_deterministic(cfg: SimConfig) -> Trajectory:
    """The drift's exact flow from cfg.x0: row n is the start turned about
    the z axis by n theta, theta = k dt / rho^2 with k = sigma0/m, and
    moved n dt p0/m along z.  rho^2 is the flow's invariant, so theta is
    formed once; each row takes its own cosine and sine of n theta, so
    rounding does not build up from row to row and rho holds to a few
    ulp at any step size and length.  Raises AxisSingularity when the
    start lies on the axis (rho^2 = 0), and NumericalError when the turn
    over the run is not finite (a rho^2 that underflows to a subnormal,
    or k dt overflowing)."""
    x0, y0, z0 = (float(v) for v in cfg.x0)
    k = cfg.sigma0 / cfg.m
    theta = k * cfg.dt / _off_axis_rho2(x0, y0)
    if not math.isfinite(theta * cfg.n_steps):
        raise NumericalError(
            f"spiral turn over the run, {cfg.n_steps} x {theta!r} rad at "
            f"rho = {math.hypot(x0, y0):.3e}, is not finite")
    dz = cfg.p0 / cfg.m * cfg.dt
    cos, sin = math.cos, math.sin
    buf = array("d", (x0, y0, z0))
    put = buf.extend
    for n in range(1, cfg.n_steps + 1):
        turn = n * theta
        c, s = cos(turn), sin(turn)
        put((c * x0 - s * y0, s * x0 + c * y0, z0 + n * dz))
    return _trajectory(cfg, buf)


def _hashmix(word, const: int, mult: int):
    """numpy SeedSequence's hash of a 32-bit word, a Python int or a
    uint32 array alike, under the constant const; returns the hashed word
    and the next constant, const * mult."""
    nxt = const * mult & _MASK32
    word = (word ^ const) * nxt & _MASK32
    return word ^ (word >> _XSHIFT), nxt


def _mix(x, y):
    """numpy SeedSequence's mix of two 32-bit words (ints or arrays)."""
    word = ((_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32)) \
        & _MASK32
    return word ^ (word >> _XSHIFT)


def _philox_keys(seed: int, start: int, size: int) -> np.ndarray:
    """Philox keys of children start .. start+size-1 of SeedSequence(seed),
    as a (size, 2) uint64 array: row i is
    SeedSequence(seed).spawn(start + size)[start + i].generate_state(2,
    np.uint64), the key Philox takes from that child.

    This is numpy's SeedSequence hash with pool size 4, run on all the
    children at once.  A child's entropy is the seed's 32-bit words,
    padded with zeros to the pool size, then its spawn index as one word
    (so start + size may be at most 2^32).  Everything before the index
    word is the same for every child and is hashed once per call, in
    Python ints; the index word and the output hash run on uint32 arrays,
    whose arithmetic wraps as the hash's does."""
    seed = int(seed)
    run = [seed >> 32 * i & _MASK32
           for i in range(max(_POOL, (seed.bit_length() + 31) // 32))]
    const = _INIT_A
    pool = []
    for word in run[:_POOL]:
        word, const = _hashmix(word, const, _MULT_A)
        pool.append(word)
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                word, const = _hashmix(pool[src], const, _MULT_A)
                pool[dst] = _mix(pool[dst], word)
    index = np.arange(start, start + size, dtype=np.uint32)
    for entropy in run[_POOL:] + [index]:
        for dst in range(_POOL):
            word, const = _hashmix(entropy, const, _MULT_A)
            pool[dst] = _mix(pool[dst], word)
    const = _INIT_B
    state = []
    for word in pool:
        word, const = _hashmix(word, const, _MULT_B)
        state.append(word.astype(np.uint64))
    keys = np.empty((size, 2), dtype=np.uint64)
    keys[:, 0] = state[0] | state[1] << 32
    keys[:, 1] = state[2] | state[3] << 32
    return keys


def _integrate_noise_block(cfg: SimConfig, noise: np.ndarray,
                           out: np.ndarray | None = None) -> np.ndarray:
    """Euler-Maruyama for a block of paths sharing a config: the x, y, z
    columns step with the operations of integrate_stochastic, on arrays.

    noise has shape (n_paths, n_steps, 3) and is the raw eta draw; the
    sqrt(2 D dt) scale is applied here.  Returns (n_paths, n_steps+1, 3),
    written into out when given.  noise may be out[:, 1:] itself: step n
    reads noise row n before it writes position n+1 into the same memory.
    """
    n_paths, n_steps, _ = noise.shape
    core = cfg.core_radius()
    r2 = core * core
    dt, k, vz = cfg.dt, cfg.sigma0 / cfg.m, cfg.p0 / cfg.m
    scale = math.sqrt(2.0 * cfg.diffusion * cfg.dt)
    x, y, z = (np.full(n_paths, float(v)) for v in cfg.x0)
    if out is None:
        out = np.empty((n_paths, n_steps + 1, 3))
    out[:, 0] = cfg.x0
    for n in range(n_steps):
        e = noise[:, n]
        vx, vy = _swirl(x, y, k, np.maximum(x * x + y * y, r2))
        x = x + vx * dt + e[:, 0] * scale
        y = y + vy * dt + e[:, 1] * scale
        z = z + vz * dt + e[:, 2] * scale
        out[:, n + 1, 0], out[:, n + 1, 1], out[:, n + 1, 2] = x, y, z
    return out


def integrate_stochastic(cfg: SimConfig, seed=None) -> Trajectory:
    """One Euler-Maruyama path.

    seed defaults to cfg.seed and may be a whole number of at least 0, a
    SeedSequence, or a Generator; anything else raises ConfigError,
    "key seed: ...".  Ensemble path i draws from child i of
    SeedSequence(master), so running this function with the child
    SeedSequence(master).spawn(n)[i] reproduces it bit for bit: the path draws the same
    noise and steps it with the operations of _integrate_noise_block, in
    Python floats (rho2 if rho2 > r2 else r2 is np.maximum for any
    non-NaN rho2).
    """
    if seed is None:
        seed = cfg.seed
    if not isinstance(seed, (np.random.Generator, np.random.SeedSequence)):
        seed = whole("key seed", seed, 0)
    gen = seed if isinstance(seed, np.random.Generator) \
        else np.random.Generator(np.random.Philox(seed))
    noise = gen.standard_normal((cfg.n_steps, 3))
    core = cfg.core_radius()
    r2 = core * core
    dt, k, vz = cfg.dt, cfg.sigma0 / cfg.m, cfg.p0 / cfg.m
    scale = math.sqrt(2.0 * cfg.diffusion * cfg.dt)
    x, y, z = (float(v) for v in cfg.x0)
    buf = array("d", (x, y, z))
    put = buf.extend
    for start in range(0, cfg.n_steps, _CHUNK):
        for e0, e1, e2 in noise[start:start + _CHUNK].tolist():
            rho2 = x * x + y * y
            vx, vy = _swirl(x, y, k, rho2 if rho2 > r2 else r2)
            x = x + vx * dt + e0 * scale
            y = y + vy * dt + e1 * scale
            z = z + vz * dt + e2 * scale
            put((x, y, z))
    return _trajectory(cfg, buf)


def lz_series(traj: Trajectory, mode: str = "forward") -> np.ndarray:
    """Angular momentum about z along the path, m (x vy - y vx), with
    finite-difference velocities.

    forward: v_n = (x_{n+1} - x_n)/dt at the left point (natural for
    stochastic paths); central: interior second-order differences (use
    for smooth deterministic paths).
    """
    x, dt, m = traj.positions, traj.config.dt, traj.config.m
    if mode == "forward":
        lz = _lz(x[..., :-1, :], (x[..., 1:, :] - x[..., :-1, :]) / dt, m)
    elif mode == "central":
        v = (x[..., 2:, :] - x[..., :-2, :]) / (2 * dt)
        lz = _lz(x[..., 1:-1, :], v, m)
    else:
        raise ConfigError(
            f"key mode: need 'forward' or 'central', got {mode!r}")
    # a series of its own, not a view that keeps the velocities alive
    return np.ascontiguousarray(lz)


def _lz(base: np.ndarray, v: np.ndarray, m: float) -> np.ndarray:
    """m (x vy - y vx) for positions and velocities of shape (..., 3),
    formed in v's own memory: v is overwritten and the result is the
    view v[..., 1].  It allocates no temporaries, so the ensemble's
    helper thread makes no large allocations: the C allocator keeps a
    thread's freed blocks in an arena of its own, and the four L_z
    temporaries per block raised the ensemble's peak RSS by up to
    12 MB that way."""
    lz, vx = v[..., 1], v[..., 0]
    np.multiply(base[..., 0], lz, out=lz)
    np.multiply(base[..., 1], vx, out=vx)
    np.subtract(lz, vx, out=lz)
    return np.multiply(m, lz, out=lz)


def default_lags(n_steps: int) -> np.ndarray:
    top = min(_MAX_DEFAULT_LAG, max(n_steps // 5, 1))
    return np.unique(np.geomspace(1, top, 16).astype(int))


def _checked_lags(lags, n_steps: int) -> np.ndarray:
    """lags as an int array, default_lags when None; a path of n_steps
    steps has increments only at the whole lags 1 .. n_steps."""
    given = default_lags(n_steps) if lags is None else lags
    lags = np.asarray(given, dtype=float)
    # a NaN fails both comparisons; % runs on finite lags only
    if not (lags.size and 1 <= lags.min() and lags.max() <= n_steps) \
            or np.any(lags % 1):
        raise ConfigError(f"lags must lie in [1, {n_steps}] as whole numbers "
                          f"for a path of {n_steps} steps, got "
                          f"{np.asarray(given).tolist()}")
    return lags.astype(int)


def _path_lags(x: np.ndarray, lags) -> np.ndarray:
    """_checked_lags for positions x of shape (..., n+1, k); raises
    ConfigError when x has fewer than two axes or an entry that is NaN or
    inf, naming the first such entry's index."""
    if x.ndim < 2:
        raise ConfigError(f"key positions: need shape (n+1, k) or "
                          f"(paths, n+1, k), got {x.shape}")
    if not np.isfinite(x).all():
        index = tuple(int(i) for i in np.argwhere(~np.isfinite(x))[0])
        raise ConfigError(f"key positions: need finite numbers, got "
                          f"{float(x[index])} at index {index}")
    return _checked_lags(lags, x.shape[-2] - 1)


def rms_increments(positions: np.ndarray, lags) -> tuple[np.ndarray, np.ndarray]:
    """RMS vector increment per lag, pooled over paths.

    positions: (n+1, 3) single path or (paths, n+1, 3); any number of
    components k in place of 3 (a 1-d walk is (paths, n+1, 1)).
    Returns (counts, rms) arrays aligned with lags.  Raises ConfigError
    when positions has fewer than two axes or a NaN or inf entry, or a lag
    is not a whole number in [1, n].
    """
    x = np.asarray(positions, dtype=float)
    counts, sums = _lag_sq_sums(x, _path_lags(x, lags))
    return counts, np.sqrt(sums / counts)


def _lag_sq_sums(x: np.ndarray, lags, inc: np.ndarray | None = None,
                 scratch: np.ndarray | None = None
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Count and sum of the squared vector increments per lag, pooled over
    positions of shape (..., n+1, k); each sum is one pass of numpy's own
    einsum kernel (not BLAS, whose threads and dispatch could move bits).
    inc, when given, is the lag-1 difference x[..., 1:, :] - x[..., :-1, :]
    already formed by the caller and stands in for it.  Each difference is
    written to the front of scratch, a flat float array of at least
    x[..., 1:, :].size elements (one is allocated when none is given), so
    every lag sums a contiguous array as a fresh difference would be."""
    if scratch is None:
        scratch = np.empty(x[..., 1:, :].size)
    counts = np.empty(len(lags), dtype=int)
    sums = np.empty(len(lags))
    for i, lag in enumerate(lags):
        if lag == 1 and inc is not None:
            d = inc
        else:
            ahead, behind = x[..., lag:, :], x[..., :-lag, :]
            d = np.subtract(ahead, behind,
                            out=scratch[:ahead.size].reshape(ahead.shape))
        d = d.reshape(-1)
        counts[i] = d.size // x.shape[-1]
        sums[i] = float(np.einsum("i,i->", d, d))
    return counts, sums


def _hurst_fit(lags: np.ndarray, lag_times: np.ndarray, counts: np.ndarray,
               rms: np.ndarray) -> float:
    """Log-log slope of rms against lag_times, behind the gates of
    increment_scaling, in any lag order; raises InsufficientData when a
    gate fails."""
    span = math.log10(lags.max() / lags.min())
    if not span >= _MIN_DECADES:
        raise InsufficientData(
            f"lag span {span:.2f} decades < {_MIN_DECADES:.2f}")
    if counts.min() < _MIN_INCREMENTS:  # the count at the largest lag
        raise InsufficientData(
            f"only {counts.min()} increments at the largest lag "
            f"(need {_MIN_INCREMENTS})")
    if not rms.all():
        raise InsufficientData(f"RMS increment 0 at lag {lags[rms == 0][0]}")
    slope, _ = np.polyfit(np.log(lag_times), np.log(rms), 1)
    return float(slope)


@dataclass
class ScalingResult:
    hurst: float
    fractal_dimension: float
    lag_times: np.ndarray
    rms: np.ndarray


def increment_scaling(positions: np.ndarray, dt: float,
                      lags=None) -> ScalingResult:
    """Hurst exponent from the log-log slope of RMS increment vs lag,
    and the fractal dimension D_F = 1/H.

    Raises InsufficientData when the largest lag has fewer than
    _MIN_INCREMENTS = 1000 increments (pooled over paths), the lags span
    fewer than _MIN_DECADES = 2 decades or a lag's RMS increment is 0, and
    ConfigError when dt is not a finite number > 0, the positions are not
    a path of finite numbers or a lag lies outside the path.
    """
    dt = finite("key dt", dt, positive=True)
    x = np.asarray(positions, dtype=float)
    lags = _path_lags(x, lags)
    counts, sums = _lag_sq_sums(x, lags)
    rms = np.sqrt(sums / counts)
    lag_times = lags * dt
    slope = _hurst_fit(lags, lag_times, counts, rms)
    return ScalingResult(slope, 1.0 / slope, lag_times, rms)


def crossover_lag(lag_times: np.ndarray, rms: np.ndarray) -> float:
    """Lag time where the local log-log slope first crosses 3/4 (1/2 on
    the diffusive side, 1 on the ballistic side), interpolated in log
    space.  Raises InsufficientData if no crossing is bracketed, and
    ConfigError unless lag_times and rms are finite numbers > 0 of one
    length."""
    lt = np.log(finite("key lag_times", lag_times, -1, positive=True))
    lr = np.log(finite("key rms", rms, len(lt), positive=True))
    slopes = np.diff(lr) / np.diff(lt)
    mids = 0.5 * (lt[1:] + lt[:-1])
    for i in range(len(slopes) - 1):
        s0, s1 = slopes[i], slopes[i + 1]
        if (s0 - _MID_SLOPE) * (s1 - _MID_SLOPE) <= 0 and s0 != s1:
            f = (_MID_SLOPE - s0) / (s1 - s0)
            return float(np.exp(mids[i] + f * (mids[i + 1] - mids[i])))
    raise InsufficientData("no slope crossover bracketed by the lag range")


@dataclass
class EnsembleResult:
    n_traj: int
    seed: int
    hurst: float | None
    fractal_dimension: float | None
    lz_mean: float
    lz_std: float
    increment_var: np.ndarray
    mean_final: np.ndarray
    lag_times: np.ndarray
    lag_rms: np.ndarray

    def to_dict(self) -> dict:
        return {
            "n_traj": self.n_traj,
            "seed": self.seed,
            "H": self.hurst,
            "D_F": self.fractal_dimension,
            "Lz_mean": self.lz_mean,
            "Lz_std": self.lz_std,
            "increment_var": [float(v) for v in self.increment_var],
            "mean_final": [float(v) for v in self.mean_final],
        }


@np.errstate(all="ignore")
def ensemble_run(cfg: SimConfig, lags=None) -> EnsembleResult:
    """Integrate cfg.n_traj stochastic paths and pool their statistics.

    Per-path angular momenta are time averages of the forward-difference
    L_z; increment_var is the per-component variance of one-step
    displacement increments divided by dt (so pure diffusion gives 2D per
    component); the Hurst exponent is fitted on pooled RMS increments
    (None when the lag window would be too narrow to be meaningful);
    mean_final is the mean end point.

    Path i draws from child i of SeedSequence(cfg.seed).  Each block's
    Philox keys are hashed in one numpy pass, and one Philox is re-keyed
    to each path's key before its noise is drawn.

    Paths run in blocks through two path arrays.  Each block's noise is
    drawn into rows 1..n of its path array, which is then stepped in
    place.  While the main thread draws and steps the next block into the
    other array, a helper thread pools this one, with the one increment
    array as its only scratch.  The main thread waits for a block's
    pooling before it hands over the next, so blocks are pooled in order
    and the result is the same bits as a serial run.  An exception on the
    helper is raised here, unless the main thread is already raising its
    own, and no helper is left running on return.

    A run whose paths overflow raises NumericalError, whatever numpy's
    errstate at the call: both threads compute under
    np.errstate(all="ignore"), and the check that every pooled sum is
    finite decides.  The caller's errstate is the same on return.
    """
    lags = _checked_lags(lags, cfg.n_steps)
    # every path draws through this one generator, re-keyed before each
    # path to its own stream with counter, buffer and cached words reset;
    # the seed it is built with is never drawn from
    bitgen = np.random.Philox(cfg.seed)
    gen = np.random.Generator(bitgen)
    stream = {"counter": np.zeros(4, dtype=np.uint64), "key": None}
    state = {"bit_generator": "Philox", "state": stream,
             "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}

    sq_sums = np.zeros(len(lags))
    sq_counts = np.zeros(len(lags), dtype=np.int64)
    lz_means = []
    inc_sum = np.zeros(3)
    inc_sq = np.zeros(3)
    final_sum = np.zeros(3)

    # two path arrays, so the main thread fills one while the helper
    # pools the other, and one increment array for the whole run; each
    # block uses their leading rows, which are contiguous
    block = min(_BLOCK, cfg.n_traj)
    path_bufs = [np.empty((block, cfg.n_steps + 1, 3)) for _ in range(2)]
    inc_buf = np.empty((block, cfg.n_steps, 3))
    one = lags == 1

    @np.errstate(all="ignore")
    def pool(paths):
        nonlocal inc_sum, inc_sq, final_sum, sq_sums, sq_counts
        final_sum += paths[:, -1].sum(axis=0)
        inc = np.subtract(paths[:, 1:], paths[:, :-1],
                          out=inc_buf[:len(paths)])
        inc_sum += np.einsum("pnk->k", inc)
        inc_sq += np.einsum("pnk,pnk->k", inc, inc)
        counts = np.empty(len(lags), dtype=int)
        sums = np.empty(len(lags))
        # lag 1 is the increments themselves (and writes no scratch); then
        # the increment array holds the L_z velocities, then each other
        # lag's difference
        scratch = inc_buf.reshape(-1)
        counts[one], sums[one] = _lag_sq_sums(paths, lags[one], inc, scratch)
        velocity = np.divide(inc, cfg.dt, out=inc)
        lz_means.extend(np.mean(_lz(paths[:, :-1], velocity, cfg.m), axis=1))
        counts[~one], sums[~one] = _lag_sq_sums(paths, lags[~one],
                                                scratch=scratch)
        sq_sums += sums
        sq_counts += counts

    # one helper thread; leaving the with waits for it, and a failure
    # already on its way out is not replaced by the helper's
    with ThreadPoolExecutor(max_workers=1) as helper:
        pooled = None  # the block being pooled
        for i, start in enumerate(range(0, cfg.n_traj, _BLOCK)):
            size = min(_BLOCK, cfg.n_traj - start)
            buf = path_bufs[i % 2][:size]
            noise = buf[:, 1:]
            for key, row in zip(_philox_keys(cfg.seed, start, size), noise):
                stream["key"] = key
                bitgen.state = state
                gen.standard_normal(out=row)
            paths = _integrate_noise_block(cfg, noise, out=buf)
            if pooled is not None:
                pooled.result()
            pooled = helper.submit(pool, paths)
        pooled.result()
    if not all(np.isfinite(s).all()
               for s in (final_sum, inc_sq, sq_sums, lz_means)):
        raise NumericalError("ensemble paths overflow: a pooled sum is "
                             "non-finite (inf or nan)")

    inc_n = cfg.n_traj * cfg.n_steps
    mean_inc = inc_sum / inc_n
    inc_var = (inc_sq / inc_n - mean_inc ** 2) / cfg.dt
    rms = np.sqrt(sq_sums / sq_counts)
    lag_times = lags * cfg.dt

    try:
        hurst = _hurst_fit(lags, lag_times, sq_counts, rms)
    except InsufficientData:
        hurst = None

    lz_means = np.asarray(lz_means)
    return EnsembleResult(
        n_traj=cfg.n_traj,
        seed=cfg.seed,
        hurst=hurst,
        fractal_dimension=None if hurst is None else 1.0 / hurst,
        lz_mean=float(np.mean(lz_means)),
        lz_std=float(np.std(lz_means)),
        increment_var=inc_var,
        mean_final=final_sum / cfg.n_traj,
        lag_times=lag_times,
        lag_rms=rms,
    )
