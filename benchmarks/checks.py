"""Output checks and the independent references they compare against.

Nothing here imports fractalspin.  Each ``check_*`` function takes a
workload's output (parsed, as plain dicts and arrays) and returns a list of
problems; an empty list means the output is correct.  Expected values come
either from properties the method must have or from a computation written
here apart from the program, never from a stored copy of earlier output.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np


def _rel(a, b) -> float:
    """Largest relative difference of two arrays, scaled by max |b|."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    scale = max(float(np.max(np.abs(b))), 1e-300)
    return float(np.max(np.abs(a - b))) / scale


def strict_json(text: str) -> dict:
    """json.loads that refuses the NaN/Infinity tokens strict JSON lacks."""
    def refuse(token):
        raise ValueError(f"non-JSON constant {token}")
    return json.loads(text, parse_constant=refuse)


# -- ensemble ----------------------------------------------------------------


@dataclass(frozen=True)
class Physics:
    """The spiral_demo physics: D, dt, sigma0, p0, m and the start point."""

    diffusion: float = 0.05
    dt: float = 0.01
    sigma0: float = 0.5
    p0: float = 1.0
    m: float = 1.0
    x0: tuple = (1.0, 0.0, 0.0)

    @property
    def r_min(self) -> float:
        """Documented default drift core: ten noise step lengths."""
        return 10.0 * math.sqrt(2.0 * self.diffusion * self.dt)


def euler_maruyama(phys: Physics, noise: np.ndarray) -> np.ndarray:
    """Paths (n_paths, n_steps+1, 3) from raw N(0, 1) noise (n_paths,
    n_steps, 3), with the drift denominator regularized as
    max(rho^2, r_min^2)."""
    n_paths, n_steps, _ = noise.shape
    scale = math.sqrt(2.0 * phys.diffusion * phys.dt)
    w = phys.sigma0 / phys.m
    r2 = phys.r_min ** 2
    out = np.empty((n_paths, n_steps + 1, 3))
    out[:, 0] = phys.x0
    x, y, z = (np.full(n_paths, c) for c in phys.x0)
    for n in range(n_steps):
        denom = np.maximum(x * x + y * y, r2)
        vx = -w * y / denom
        vy = w * x / denom
        x = x + vx * phys.dt + noise[:, n, 0] * scale
        y = y + vy * phys.dt + noise[:, n, 1] * scale
        z = z + (phys.p0 / phys.m) * phys.dt + noise[:, n, 2] * scale
        out[:, n + 1, 0] = x
        out[:, n + 1, 1] = y
        out[:, n + 1, 2] = z
    return out


def reference_ensemble(phys: Physics, seed: int, n_traj: int, n_steps: int,
                       lags) -> dict:
    """Ensemble statistics from per-path Philox streams, path i drawing
    from Philox(SeedSequence(seed).spawn(n_traj)[i])."""
    children = np.random.SeedSequence(seed).spawn(n_traj)
    noise = np.stack([
        np.random.Generator(np.random.Philox(c)).standard_normal((n_steps, 3))
        for c in children])
    paths = euler_maruyama(phys, noise)
    inc = np.diff(paths, axis=1).reshape(-1, 3)
    vel = np.diff(paths, axis=1) / phys.dt
    base = paths[:, :-1]
    lz = phys.m * (base[..., 0] * vel[..., 1] - base[..., 1] * vel[..., 0])
    lz_path = lz.mean(axis=1)
    lag_rms = [math.sqrt(float(np.mean(np.sum(
        (paths[:, lag:] - paths[:, :-lag]) ** 2, axis=-1)))) for lag in lags]
    return {
        "mean_final": paths[:, -1].mean(axis=0),
        "Lz_mean": float(lz_path.mean()),
        "Lz_std": float(lz_path.std()),
        "increment_var": inc.var(axis=0) / phys.dt,
        "lag_rms": np.array(lag_rms),
    }


def check_ensemble_reference(got: dict, ref: dict, tol: float = 1e-12) -> list:
    """Program statistics against the reference, each to tol relative."""
    problems = []
    for key in ("mean_final", "Lz_mean", "Lz_std", "increment_var",
                "lag_rms"):
        err = _rel(got[key], ref[key])
        if not err <= tol:
            problems.append(f"ensemble {key}: relative difference {err:.2e} "
                            f"from the reference exceeds {tol:.0e}")
    return problems


def check_ensemble(stats: dict, phys: Physics, seed: int, n_traj: int,
                   n_steps: int) -> list:
    """Properties the ensemble statistics of the spiral drift must have."""
    problems = []
    if stats.get("n_traj") != n_traj or stats.get("seed") != seed:
        problems.append(f"ensemble header n_traj={stats.get('n_traj')} "
                        f"seed={stats.get('seed')}, expected {n_traj} {seed}")
    t_end = n_steps * phys.dt
    se_z = math.sqrt(2.0 * phys.diffusion * t_end / n_traj)
    z_end = stats["mean_final"][2]
    if not abs(z_end - phys.p0 * t_end / phys.m) <= 4.0 * se_z:
        problems.append(f"mean_final[2] = {z_end!r} is more than 4 SE "
                        f"({se_z:.3g}) from p0 T/m = {phys.p0 * t_end / phys.m}")
    var_z = stats["increment_var"][2]
    tol = 4.0 * math.sqrt(2.0 / (n_traj * n_steps))
    if not abs(var_z / (2.0 * phys.diffusion) - 1.0) <= tol:
        problems.append(f"increment_var[2] = {var_z!r} is not within "
                        f"{tol:.3g} relative of 2D = {2 * phys.diffusion}")
    h, d_f = stats["H"], stats["D_F"]
    if h is None or not 0.5 < h < 1.0:
        problems.append(f"Hurst exponent H = {h!r} outside (0.5, 1)")
    elif d_f is None or not abs(d_f * h - 1.0) <= 1e-15:
        problems.append(f"D_F = {d_f!r} is not 1/H for H = {h!r}")
    lz, lz_std = stats["Lz_mean"], stats["Lz_std"]
    se_lz = lz_std / math.sqrt(n_traj)
    if not lz <= phys.sigma0 + 4.0 * se_lz:
        problems.append(f"Lz_mean = {lz!r} exceeds sigma0 + 4 SE = "
                        f"{phys.sigma0 + 4 * se_lz!r}")
    if not abs(lz / phys.sigma0 - 1.0) <= 0.05:
        problems.append(f"Lz_mean = {lz!r} not within 5% of sigma0 = "
                        f"{phys.sigma0}")
    return problems


# -- helix -------------------------------------------------------------------


def reference_spin(vertices: np.ndarray) -> float:
    """sigma / hbar = (m/T) * integral r^2 dphi with the span scaled to
    one de Broglie wavelength lambda = 2 pi hbar/(m v) and T = lambda/v.

    m and v cancel, so this is 2 pi * (integral r^2 dphi) / span^2.  The
    integral is the trapezoid rule over vertices in the frame of the span
    axis; a vertex on the axis takes the azimuth of the nearest earlier
    off-axis vertex (the first off-axis one for a leading run).
    """
    v = np.asarray(vertices, dtype=float)
    rel = v - v[0]
    span_vec = rel[-1]
    span = math.sqrt(float(span_vec @ span_vec))
    u = span_vec / span
    # any transverse basis with n2 = u x n1 gives the same integral
    trial = np.eye(3)[int(np.argmin(np.abs(u)))]
    n1 = trial - (trial @ u) * u
    n1 /= math.sqrt(float(n1 @ n1))
    n2 = np.cross(u, n1)
    a, b = rel @ n1, rel @ n2
    r2 = a * a + b * b
    on_axis = r2 <= (1e-12 * span) ** 2
    phi = np.arctan2(b, a)
    off = np.flatnonzero(~on_axis)
    if off.size == 0:
        return 0.0
    last = np.maximum.accumulate(np.where(on_axis, -1, np.arange(len(phi))))
    phi = np.unwrap(phi[np.where(last < 0, off[0], last)])
    integral = float(np.sum(0.5 * (r2[:-1] + r2[1:]) * np.diff(phi)))
    return 2.0 * math.pi * integral / span ** 2


def check_helix(out: dict, level: int, spin_ref: float,
                spins_other_mv: list) -> list:
    """Properties of the level-L winding-4 helix curve: 9^L segments,
    similarity dimension 2, walked lengths 3^j at the two finest
    construction rulers, measured dimension near 2, spin as computed
    here and independent of m and v."""
    problems = []
    if out["n_vertices"] != 9 ** level + 1:
        problems.append(f"n_vertices = {out['n_vertices']}, expected "
                        f"{9 ** level + 1}")
    if out["similarity_dimension"] != 2.0:
        problems.append(f"similarity dimension {out['similarity_dimension']!r}"
                        " is not 2")
    rulers = np.asarray(out["rulers"])
    lengths = np.asarray(out["lengths"])
    for j in (level - 1, level):
        k = int(np.argmin(np.abs(np.log(rulers) + j * math.log(3.0))))
        if not abs(rulers[k] * 3.0 ** j - 1.0) <= 1e-12:
            problems.append(f"no ruler 3^-{j} in {rulers.tolist()}")
        elif not abs(lengths[k] / 3.0 ** j - 1.0) <= 1e-9:
            problems.append(f"walked length at ruler 3^-{j} is "
                            f"{lengths[k]!r}, expected {3 ** j}")
    dim = out["measured_dimension"]
    if dim is None or not abs(dim - 2.0) <= 0.05:
        problems.append(f"measured dimension {dim!r} not within 0.05 of 2")
    sigma = out["sigma_over_hbar"]
    if not abs(sigma / spin_ref - 1.0) <= 1e-12:
        problems.append(f"sigma_over_hbar = {sigma!r} differs from the spin "
                        f"integral {spin_ref!r} by more than 1e-12 relative")
    for s in spins_other_mv:
        if not abs(s / sigma - 1.0) <= 1e-12:
            problems.append(f"spin {s!r} at other m, v differs from {sigma!r}")
    return problems


# -- fieldmap ----------------------------------------------------------------


@dataclass(frozen=True)
class PairField:
    """Spiral-pair spinor: two plane-wave terms sharing p = (0, 0, pz) and
    the azimuthal quantum sigma0, amplitudes 1 and mix (1 + 0.5 i e1)."""

    sigma0: float = 0.5
    pz: float = 1.0
    e0: float = 1.1
    e1: float = 2.3
    mix: float = 0.5
    m: float = 1.0
    hbar: float = 1.0
    c: float = 1.0

    def amplitudes(self) -> np.ndarray:
        return np.array([[1.0, 0.0, 0.0, 0.0],
                         [self.mix, 0.5j * self.mix, 0.0, 0.0]],
                        dtype=complex)

    def psi(self, points: np.ndarray) -> np.ndarray:
        """Field coefficients (N, 4) at points (N, 4) = (t, x, y, z):
        sum_j A_j exp(-i (pz z - E_j t + sigma0 atan2(y, x)) / hbar)."""
        t, x, y, z = points.T
        az = np.arctan2(y, x)
        out = np.zeros((len(points), 4), dtype=complex)
        for amp, e in zip(self.amplitudes(), (self.e0, self.e1)):
            theta = (self.pz * z - e * t + self.sigma0 * az) / self.hbar
            out += np.exp(-1j * theta)[:, None] * amp
        return out

    def spatial_velocity(self, points: np.ndarray) -> np.ndarray:
        """Closed form (-sigma0 y/rho^2, sigma0 x/rho^2, pz)/m, (N, 3)."""
        _, x, y, _ = points.T
        rho2 = x * x + y * y
        return np.stack([-self.sigma0 * y / rho2, self.sigma0 * x / rho2,
                         np.full_like(x, self.pz)], axis=1) / self.m


def check_fieldmap(res: dict, points: np.ndarray, fld: PairField) -> list:
    """Velocity routes on the grid against the closed form and each other.

    res holds complex arrays bq, conj, rec of shape (N, 4, 4) indexed
    (point, mu, coefficient), tilde (N,) the largest |vt| component at
    each point, and the two witness maxima.
    """
    problems = []
    bq, conj, rec = res["bq"], res["conj"], res["rec"]
    want = np.zeros((len(points), 3, 4), dtype=complex)
    want[:, :, 0] = fld.spatial_velocity(points)
    err = np.max(np.abs(bq[:, 1:] - want), axis=(1, 2)) \
        / np.maximum(1.0, np.max(np.abs(want), axis=(1, 2)))
    if not np.max(err) <= 1e-12:
        i = int(np.argmax(err))
        problems.append(f"bq_velocity spatial part at {points[i].tolist()} "
                        f"misses the closed form by {err[i]:.2e}")
    err = np.max(np.abs(rec - conj), axis=(1, 2))
    if not np.max(err) <= 1e-10:
        i = int(np.argmax(err))
        problems.append(f"recomposed components differ from "
                        f"conjugate_velocity by {err[i]:.2e} at "
                        f"{points[i].tolist()}")
    norm = np.sum(fld.psi(points) ** 2, axis=1)
    scaled = norm[:, None, None] * bq
    err = np.max(np.abs(conj - scaled), axis=(1, 2)) \
        / np.maximum(np.max(np.abs(scaled), axis=(1, 2)), 1e-300)
    if not np.max(err) <= 1e-12:
        i = int(np.argmax(err))
        problems.append(f"conjugate_velocity differs from N(psi) bq_velocity "
                        f"by {err[i]:.2e} relative at {points[i].tolist()}")
    scale = np.maximum(1.0, np.max(np.abs(conj), axis=(1, 2)))
    if not np.max(res["tilde"] / scale) <= 1e-12:
        problems.append(f"tilde sector does not vanish: "
                        f"{float(np.max(res['tilde'])):.2e}")
    if not res["witness_control"] < 1e-6:
        problems.append(f"witness {res['witness_control']:.2e} of the "
                        f"commuting control field is not below 1e-6")
    if not res["witness_rotor"] > 0.1:
        problems.append(f"witness {res['witness_rotor']:.3g} of the rotor "
                        f"product does not exceed 0.1")
    return problems


# -- longpath ----------------------------------------------------------------


def parse_path_csv(path) -> np.ndarray:
    """Rows (t, x, y, z) of a t,x,y,z CSV file as an (n, 4) array.

    np.loadtxt reads in chunks, so parsing adds little to the peak
    resident set that the workload reports."""
    with open(path) as f:
        head = f.readline().rstrip("\n")
    if head != "t,x,y,z":
        raise ValueError(f"unexpected CSV header {head!r}")
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def check_spiral(rows: np.ndarray, phys: Physics, n_steps: int) -> list:
    """RK4 rows against the exact orbit (cos wt, sin wt, p0 t/m) with
    w = sigma0/(m rho0^2), within the RK4 global error scale
    w T (w dt)^4 (the phase error is O((w dt)^5) per step); the radius
    must hold to 1e-8."""
    problems = []
    if len(rows) != n_steps + 1:
        return [f"spiral CSV has {len(rows)} rows, expected {n_steps + 1}"]
    t = rows[:, 0]
    if not np.max(np.abs(t - np.arange(n_steps + 1) * phys.dt)) \
            <= 1e-12 * max(1.0, n_steps * phys.dt):
        problems.append("spiral CSV times are not n dt")
    x0, y0, _ = phys.x0
    rho0 = math.hypot(x0, y0)
    omega = phys.sigma0 / (phys.m * rho0 ** 2)
    phase0 = math.atan2(y0, x0)
    tol = omega * n_steps * phys.dt * (omega * phys.dt) ** 4
    exact = np.stack([rho0 * np.cos(omega * t + phase0),
                      rho0 * np.sin(omega * t + phase0),
                      phys.x0[2] + phys.p0 * t / phys.m], axis=1)
    err = np.max(np.abs(rows[:, 1:] - exact), axis=1)
    if not np.max(err) <= tol:
        i = int(np.argmax(err))
        problems.append(f"spiral row {i} is {err[i]:.2e} from the exact "
                        f"orbit (tolerance {tol:.0e})")
    drift = np.max(np.abs(np.hypot(rows[:, 1], rows[:, 2]) - rho0))
    if not drift <= 1e-8:
        problems.append(f"spiral radius drifts by {drift:.2e}")
    return problems


def reference_path(phys: Physics, seed: int, n_steps: int) -> np.ndarray:
    """One Euler-Maruyama path (n_steps+1, 3) driven by Philox(seed)."""
    gen = np.random.Generator(np.random.Philox(seed))
    return euler_maruyama(phys, gen.standard_normal((1, n_steps, 3)))[0]


def check_stochastic(rows: np.ndarray, ref: np.ndarray, dt: float,
                     tol: float = 1e-9) -> list:
    """Single-path CSV rows against the reference path, to tol."""
    if len(rows) != len(ref):
        return [f"stochastic CSV has {len(rows)} rows, expected {len(ref)}"]
    problems = []
    if not np.max(np.abs(rows[:, 0] - np.arange(len(ref)) * dt)) \
            <= 1e-12 * max(1.0, len(ref) * dt):
        problems.append("stochastic CSV times are not n dt")
    err = np.max(np.abs(rows[:, 1:] - ref), axis=1)
    if not np.max(err) <= tol:
        i = int(np.argmax(err))
        problems.append(f"stochastic row {i} is {err[i]:.2e} from the "
                        f"reference path (tolerance {tol:.0e})")
    return problems
