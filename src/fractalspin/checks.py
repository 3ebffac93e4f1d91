"""Curated quick invariant suites behind the `check` CLI command.

Each suite re-verifies a handful of load-bearing identities in a couple
of seconds: not a replacement for the test suite, but enough to confirm
an installation computes what it claims on this machine.
"""

from __future__ import annotations

import math

import numpy as np

from . import dynamics, simulate
from .algebra import Biquaternion, ONE, pauli_identity_residual
from .errors import ZeroDivisor
from .fields import PlaneWaveTerm, plane_wave, spiral_pair_field
from .hyperhelix import (construction_rulers, divider_walk, helical_generator,
                         iterate, koch_generator, curve_spin,
                         similarity_dimension)
from .velocity import bq_velocity, closure


def _rand_bq(rng) -> Biquaternion:
    return Biquaternion(*(rng.standard_normal(4) + 1j * rng.standard_normal(4)))


def _check(name: str, passed: bool, detail: str) -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


def run_algebra(seed: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    worst_assoc = worst_norm = worst_inv = worst_pauli = 0.0
    draws, skipped = 50, 0
    for _ in range(draws):
        a, b, c = (_rand_bq(rng) for _ in range(3))
        worst_assoc = max(worst_assoc, ((a * b) * c - a * (b * c)).max_abs())
        worst_norm = max(worst_norm, abs((a * b).complex_norm()
                                         - a.complex_norm() * b.complex_norm()))
        try:
            worst_inv = max(worst_inv, (a * a.inverse() - ONE).max_abs())
        except ZeroDivisor:
            skipped += 1
        u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        worst_pauli = max(worst_pauli, pauli_identity_residual(u, v))
    return [
        _check("product associativity", worst_assoc < 1e-12,
               f"max residual {worst_assoc:.2e}"),
        _check("complex norm multiplicative", worst_norm < 1e-11,
               f"max residual {worst_norm:.2e}"),
        # a check that inverted nothing has shown nothing
        _check("inverse round trip", skipped < draws and worst_inv < 1e-11,
               f"max residual {worst_inv:.2e}, "
               f"{skipped} zero-divisor draws skipped"),
        _check("pauli product identity", worst_pauli < 1e-12,
               f"max residual {worst_pauli:.2e}"),
    ]


def run_velocity(seed: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    m, c = 1.3, 2.0
    worst_p = 0.0
    for _ in range(10):
        p = rng.standard_normal(3)
        e = math.sqrt((p @ p) * c ** 2 + (m * c ** 2) ** 2)
        field = plane_wave(ONE, p, e, m=m, c=c)
        vel = bq_velocity(field, (0.3, 0.4, -0.2, 0.7))
        for k in range(3):
            worst_p = max(worst_p, (vel[k + 1]
                                    - ONE * (p[k] / m)).max_abs())
    term0 = PlaneWaveTerm(Biquaternion(0.8, 0.6j), (0.0, 0.0, 1.0), 1.1, 0.5)
    term1 = PlaneWaveTerm(Biquaternion(0.3, 0.2), (0.0, 0.0, 1.0), 2.3, 0.5)
    field = spiral_pair_field(term0, term1, m=m, c=c)
    comp, error, closed = closure(field, (0.2, 1.0, 0.4, -0.3))

    # the spatial velocity of a spiral pair is real and scalar, and is the
    # drift the trajectory integrators follow
    pair_m, sigma, pz = 1.0, 0.5, 1.0
    t0 = PlaneWaveTerm(Biquaternion(1.0, 0.0), (0.0, 0.0, pz), 1.1, sigma)
    t1 = PlaneWaveTerm(Biquaternion(0.5, 0.25j), (0.0, 0.0, pz), 2.3, sigma)
    pair = spiral_pair_field(t0, t1, hbar=0.1, m=pair_m)
    worst_drift = 0.0
    for pt in rng.uniform(-2.0, 2.0, (20, 4)):
        drift = simulate.spiral_drift(pt[1:], m=pair_m, p0=pz,
                                      sigma0=sigma)
        coeffs = np.array([v.a for v in bq_velocity(pair, pt)[1:]])
        coeffs[:, 0] -= drift
        worst_drift = max(worst_drift, float(np.max(np.abs(coeffs))
                                             / np.max(np.abs(drift))))
    return [
        _check("plane wave velocity p/m", worst_p < 1e-10,
               f"max residual {worst_p:.2e}"),
        _check("decompose/recompose closure", closed,
               f"max residual {error:.2e}"),
        _check("tilde sector vanishes", comp.tilde_max_abs() < 1e-10,
               f"max tilde {comp.tilde_max_abs():.2e}"),
        _check("spiral pair velocity is the drift", worst_drift <= 1e-13,
               f"max residual {worst_drift:.2e} of the drift's size"),
    ]


def run_dynamics(seed: int) -> list[dict]:
    field = dynamics.ExponentialField(
        [(ONE, (0.0, 0.0, 0.0, 0.0)),
         (ONE * 0.4, (0.5j * 0.9 ** 2, -0.9j, 0.0, 0.0))])
    res = dynamics.geodesic_residual(field, 0.5, (0.2, 0.4, 0.1, -0.3))
    onshell = max(r.max_abs() for r in res)

    b0 = 0.9
    em = dynamics.uniform_b_field(b0)
    phi = dynamics.ExponentialField([(np.array([1.0, 0.0]),
                                      np.array([1j * b0 / 2.0, 0, 0, 0]))])
    anchor = float(np.max(np.abs(dynamics.pauli_residual(
        phi, em, (0.3, 0.0, 0.0, 0.7)))))

    pts = dynamics.sample_box(((-0.4, 0.4),) * 4, 6, seed=seed)
    ctrl = dynamics.ExponentialField([(ONE, (0.3j, 0.2j, 0, 0)),
                                      (ONE * 0.5, (-0.2j, 0, 0.4j, 0))])
    rot = dynamics.product_field(dynamics.rotor_field(1, 0.9, (0.8, 0, 0)),
                                 dynamics.rotor_field(2, -0.6, (0, 0.7, 0)))
    w_ctrl = dynamics.gradient_witness(ctrl, 0.5, pts)
    w_rot = dynamics.gradient_witness(rot, 0.5, pts)
    return [
        _check("geodesic residual on shell", onshell < 1e-10,
               f"max residual {onshell:.2e}"),
        _check("magnetic moment anchor g=2", anchor < 1e-12,
               f"on-axis residual {anchor:.2e}"),
        _check("witness separates rotors from complex fields",
               (w_ctrl < 1e-6) and (w_rot > 0.1),
               f"control {w_ctrl:.2e}, rotor product {w_rot:.2e}"),
    ]


def run_simulate(seed: int) -> list[dict]:
    cfg = simulate.SimConfig(dt=1e-3, n_steps=2000, x0=(1.0, 0.0, 0.0))
    traj = simulate.integrate_deterministic(cfg)
    rho = np.hypot(traj.positions[:, 0], traj.positions[:, 1])
    drift = float(np.max(np.abs(rho - 1.0)))

    noise_cfg = simulate.spiral_preset(p0=0.0, sigma0=0.0, n_steps=2000,
                                       n_traj=50, seed=seed,
                                       x0=(0.0, 0.0, 0.0))
    res = simulate.ensemble_run(noise_cfg)
    var_err = float(np.max(np.abs(res.increment_var
                                  / (2 * noise_cfg.diffusion) - 1.0)))

    one = simulate.integrate_stochastic(simulate.spiral_preset(
        n_steps=200, seed=seed))
    two = simulate.integrate_stochastic(simulate.spiral_preset(
        n_steps=200, seed=seed))
    identical = bool(np.array_equal(one.positions, two.positions))
    return [
        _check("deterministic radius conserved", drift < 1e-8,
               f"max drift {drift:.2e}"),
        _check("injected noise variance 2D", var_err < 0.05,
               f"worst component off by {var_err:.2%}"),
        _check("stochastic path reproducible by seed", identical,
               "bitwise equal" if identical else "paths differ"),
    ]


def run_hyperhelix(seed: int) -> list[dict]:
    verts = iterate(koch_generator(), 4)
    lengths = np.array([divider_walk(verts, e)
                        for e in construction_rulers(3, 4)])
    koch_err = float(np.max(np.abs(lengths / (4.0 / 3.0) ** np.arange(5)
                                   - 1.0)))
    exact = similarity_dimension(9, 3) == 2.0
    helix = iterate(helical_generator(), 3)
    s1 = curve_spin(helix, m=1.0, v=1.0)
    s2 = curve_spin(helix, m=6.0, v=0.05)
    indep = abs(s2 - s1) <= 1e-12 * abs(s1)
    return [
        _check("koch divider lengths exact", koch_err < 1e-9,
               f"max relative error {koch_err:.2e}"),
        _check("similarity dimension exactly two", exact,
               f"log 9 / log 3 = {similarity_dimension(9, 3)!r}"),
        _check("spin independent of mass and speed", indep,
               f"sigma = {s1:.6f} hbar"),
    ]


SUITES = {
    "algebra": run_algebra,
    "velocity": run_velocity,
    "dynamics": run_dynamics,
    "simulate": run_simulate,
    "hyperhelix": run_hyperhelix,
}


def run_suites(names=None, seed: int = 0) -> dict:
    chosen = list(SUITES) if not names else list(names)
    suites = []
    for name in chosen:
        checks = SUITES[name](seed)
        suites.append({"name": name,
                       "passed": all(c["passed"] for c in checks),
                       "checks": checks})
    return {
        "suites": suites,
        "passed": all(s["passed"] for s in suites),
        "config": {"seed": seed, "suites_run": chosen},
    }
