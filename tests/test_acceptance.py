"""Acceptance checks, one verdict line per criterion.

Each test exercises one numbered criterion end to end at its stated
tolerance and prints a single ``AC<n> PASS/FAIL`` line (visible with
``pytest tests/test_acceptance.py -v -s``).  Tolerances and budgets are
asserted, not just reported; a FAIL line is always followed by a failing
assert carrying the same detail.
"""

import time

import numpy as np

from fractalspin.algebra import (
    Biquaternion,
    ONE,
    pauli_identity_residual,
)
from fractalspin.dynamics import (
    EMField,
    ExponentialField,
    dirac_plane_wave,
    gradient_witness,
    pauli_residual,
    product_field,
    rotor_field,
    sample_box,
    strip_rest_phase,
    uniform_b_field,
    upper_components,
)
from fractalspin.errors import ZeroDivisor
from fractalspin.fields import PlaneWaveTerm, plane_wave, spiral_pair_field
from fractalspin.hyperhelix import (
    construction_rulers,
    curve_spin,
    flag_unreproduced_reference,
    helical_generator,
    iterate,
    measured_dimension,
    scaling_factor,
    shrink_transverse,
    similarity_dimension,
)
from fractalspin.simulate import (
    SimConfig,
    ensemble_run,
    integrate_deterministic,
    integrate_stochastic,
    lz_series,
    spiral_preset,
)
from fractalspin.velocity import (
    bq_velocity,
    component_velocities,
    conjugate_velocity,
    nonrel_reduce,
    recompose_velocity,
)

from fd_reference import fd_field

FREE = EMField()


def _verdict(tag, ok, detail):
    line = f"{tag} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def _rand_bq(rng):
    return Biquaternion.from_array(rng.uniform(-1, 1, 4) + 1j * rng.uniform(-1, 1, 4))


def _complex_wave(amp, p, energy, hbar=1.0):
    k4 = (1j / hbar) * np.array([energy, -p[0], -p[1], -p[2]], dtype=complex)
    return (amp * ONE, k4)


def test_ac01_algebra_suite():
    # associativity, norm multiplicativity, inverse, matrix-bridge
    # homomorphism: 1000 random cases each, residual < 1e-12,
    # whole suite under 5 s
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = {"assoc": 0.0, "norm": 0.0, "inv": 0.0, "bridge": 0.0}
    inverted = 0
    for _ in range(1000):
        x, y, z = _rand_bq(rng), _rand_bq(rng), _rand_bq(rng)
        worst["assoc"] = max(worst["assoc"], ((x * y) * z - x * (y * z)).max_abs())
        worst["norm"] = max(
            worst["norm"],
            abs((x * y).complex_norm() - x.complex_norm() * y.complex_norm()),
        )
        if abs(x.complex_norm()) > 1e-3:
            try:
                worst["inv"] = max(worst["inv"], (x * x.inverse() - ONE).max_abs())
                inverted += 1
            except ZeroDivisor:
                pass
        mprod = x.to_matrix() @ y.to_matrix()
        worst["bridge"] = max(
            worst["bridge"],
            float(np.max(np.abs((x * y).to_matrix() - mprod))),
            (Biquaternion.from_matrix(x.to_matrix()) - x).max_abs(),
        )
    elapsed = time.perf_counter() - t0
    residual = max(worst.values())
    ok = residual < 1e-12 and inverted >= 900 and elapsed < 5.0
    _verdict(
        "AC1",
        ok,
        f"algebra suite worst residual {residual:.2e} over 1000 cases "
        f"({inverted} invertible), {elapsed:.2f} s",
    )


def test_ac02_pauli_product_identity():
    # (sigma.a)(sigma.b) = a.b + i sigma.(a x b) for 1000 complex vector pairs
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(1000):
        a = rng.uniform(-2, 2, 3) + 1j * rng.uniform(-2, 2, 3)
        b = rng.uniform(-2, 2, 3) + 1j * rng.uniform(-2, 2, 3)
        worst = max(worst, pauli_identity_residual(a, b))
    _verdict("AC2", worst < 1e-12, f"identity residual {worst:.2e} over 1000 pairs")


def test_ac03_plane_wave_velocity():
    # V^k = p_k / m on unit plane waves: 1e-10 analytic, 1e-6 finite-difference
    rng = np.random.default_rng(103)
    m, c, hbar = 1.7, 3.0, 1.0
    worst_an, worst_fd = 0.0, 0.0
    for _ in range(100):
        p = rng.uniform(-2, 2, 3)
        e = rng.uniform(0.1, 3.0)
        f = plane_wave(ONE, p, e, hbar=hbar, m=m, c=c)
        pt = rng.uniform(-1, 1, 4)
        pt[1] += 2.0
        va = bq_velocity(f, pt)
        vf = bq_velocity(fd_field(f), pt)
        for k in range(3):
            worst_an = max(worst_an, abs(va[k + 1].a[0] - p[k] / m),
                           float(np.max(np.abs(va[k + 1].a[1:]))))
            worst_fd = max(worst_fd, abs(vf[k + 1].a[0] - p[k] / m))
    ok = worst_an < 1e-10 and worst_fd < 1e-6
    _verdict(
        "AC3",
        ok,
        f"V^k vs p_k/m: analytic {worst_an:.2e} (<1e-10), fd {worst_fd:.2e} "
        f"(<1e-6), 100 momenta",
    )


def test_ac04_rest_spinor_time_velocity():
    # unit-norm real-component rest spinors reduce with V^0 = c to 1e-10
    rng = np.random.default_rng(104)
    worst = 0.0
    for c in (1.0, 3.0):
        m = 1.0
        for _ in range(10):
            g = rng.uniform(0, 2 * np.pi)
            amp = Biquaternion(np.cos(g), np.sin(g))
            f = plane_wave(amp, (0, 0, 0), m * c**2, hbar=1.0, m=m, c=c)
            red = nonrel_reduce(f, tuple(rng.uniform(-1, 1, 4)))
            worst = max(worst, abs(red.v0 - c) / c)
    _verdict("AC4", worst < 1e-10, f"|V0/c - 1| = {worst:.2e} over 20 rest spinors")


def test_ac05_decompose_recompose_closure():
    # component split recomposes to the conjugate-route velocity to 1e-10 on
    # 100 spiral-pair points, and the tilde slots stay below 1e-10
    t0 = PlaneWaveTerm(Biquaternion(0.8, 0.6j), (0.0, 0.0, 1.0), 0.5, 0.5)
    t1 = PlaneWaveTerm(Biquaternion(0.3, 0.2), (0.0, 0.0, 1.0), 0.9, 0.5)
    f = spiral_pair_field(t0, t1, hbar=1.0, m=1.0)
    rng = np.random.default_rng(105)
    worst_close, worst_tilde = 0.0, 0.0
    for _ in range(100):
        pt = rng.uniform(-1, 1, 4)
        pt[1] += 2.0
        comp = component_velocities(f, pt)
        worst_tilde = max(worst_tilde, comp.tilde_max_abs())
        rec = recompose_velocity(comp)
        vc = conjugate_velocity(f, pt)
        worst_close = max(worst_close,
                          max((rec[mu] - vc[mu]).max_abs() for mu in range(4)))
    ok = worst_close < 1e-10 and worst_tilde < 1e-10
    _verdict(
        "AC5",
        ok,
        f"closure {worst_close:.2e}, tilde {worst_tilde:.2e} over 100 points",
    )


def test_ac06_rejected_assignment_nonzero():
    # the rejected pairing leaves an O(p/m) tilde component (> 1e-3) on the
    # same large-component-only field whose honest tilde vanishes
    f = plane_wave(ONE, (0.0, 0.0, 1.0), 0.5, hbar=1.0, m=1.0)
    rng = np.random.default_rng(106)
    rejected, honest = 0.0, 0.0
    for _ in range(10):
        pt = rng.uniform(-1, 1, 4)
        pt[1] += 2.0
        comp = component_velocities(f, pt)
        # the rejected pairing puts the v_mm row in a tilde slot
        rejected = max(rejected, float(np.max(np.abs(comp.v_mm))))
        honest = max(honest, comp.tilde_max_abs())
    ok = rejected > 1e-3 and honest < 1e-10
    _verdict(
        "AC6",
        ok,
        f"rejected tilde {rejected:.3f} (>1e-3) vs honest {honest:.2e}",
    )


def test_ac07_nonintegrability_witness():
    # curl witness sits below the finite-difference noise floor for complex
    # superpositions and single rotors, and exceeds 10x the floor for the
    # product of two non-commuting rotors; whole check under 30 s
    noise_floor = 1e-6  # O(h^2) truncation of the witness stencil on O(1) fields
    d = 0.5
    t0 = time.perf_counter()
    control = ExponentialField([
        (ONE, np.zeros(4)),
        _complex_wave(0.5, np.array([0.6, -0.1, 0.3]), 0.23),
        _complex_wave(0.2j, np.array([-0.2, 0.4, 0.1]), -0.4),
    ])
    second = ExponentialField([
        (ONE, np.zeros(4)),
        _complex_wave(0.3, np.array([0.2, 0.5, -0.4]), 0.7),
        _complex_wave(0.1j, np.array([0.5, -0.3, 0.2]), 1.1),
    ])
    rotors = product_field(rotor_field(1, 0.9, [0.8, 0.0, 0.0]),
                           rotor_field(2, -0.6, [0.0, 0.7, 0.0]))
    pts = sample_box(((0, 1),) * 4, 8, seed=3)
    w_ctrl = gradient_witness(control, d, pts)
    w_second = gradient_witness(second, d, pts)
    w_single = gradient_witness(rotor_field(1, 0.9, [0.8, 0.2, -0.5]), d, pts)
    w_rot = gradient_witness(rotors, d, sample_box(((0, 1),) * 4, 8, seed=4))
    elapsed = time.perf_counter() - t0
    ok = (w_ctrl < noise_floor and w_second < noise_floor
          and w_single < noise_floor and w_rot > 10 * noise_floor
          and elapsed < 30.0)
    _verdict(
        "AC7",
        ok,
        f"complex fields {w_ctrl:.1e}/{w_second:.1e}, single rotor "
        f"{w_single:.1e} (< {noise_floor:.0e}); rotor product {w_rot:.2f} "
        f"(> {10 * noise_floor:.0e}); {elapsed:.2f} s",
    )


def _scaled_pauli_residual(v, m=1.0, c=1.0, hbar=1.0):
    p = [0.0, 0.0, m * v]
    wave = dirac_plane_wave([1.0, 0.0], p, m=m, c=c, hbar=hbar)
    phi = upper_components(strip_rest_phase(wave, m=m, c=c, hbar=hbar))
    energy = np.sqrt((m * v * c) ** 2 + (m * c**2) ** 2)
    r = pauli_residual(phi, FREE, (0.1, 0.2, 0.3, 0.4), m=m, c=c, hbar=hbar)
    return np.max(np.abs(r)) / (energy - m * c**2)


def test_ac08_pauli_residual_quadratic_in_v():
    # the on-shell Dirac wave fails the Pauli equation at relative order
    # (v/c)^2: each halving of v shrinks the scaled residual by 4 +- 0.5
    residuals = [_scaled_pauli_residual(v) for v in (0.1, 0.05, 0.025)]
    ratios = [residuals[i] / residuals[i + 1] for i in range(2)]
    ok = all(abs(r - 4.0) < 0.5 for r in ratios)
    _verdict(
        "AC8",
        ok,
        f"residual ratios per halving {ratios[0]:.3f}, {ratios[1]:.3f} (4 +- 0.5)",
    )


def test_ac09_magnetic_moment_anchor():
    # uniform B, spin-up, E = +e hbar B0 / 2mc: exact for g = 2 on the axis,
    # and setting g = 1 revives the residual by more than 10^3
    m, c, hbar, e, b0 = 1.0, 1.0, 1.0, 1.0, 0.9
    em = uniform_b_field(b0)
    energy = e * hbar * b0 / (2 * m * c)
    phi = ExponentialField([(np.array([1.0, 0.0]),
                             np.array([1j * energy / hbar, 0, 0, 0]))])
    pt = (0.7, 0.0, 0.0, 1.3)
    r2 = float(np.max(np.abs(
        pauli_residual(phi, em, pt, m=m, c=c, hbar=hbar, charge=e, g=2.0))))
    r1 = float(np.max(np.abs(
        pauli_residual(phi, em, pt, m=m, c=c, hbar=hbar, charge=e, g=1.0))))
    factor = r1 / max(r2, 1e-15)
    ok = r2 < 1e-6 and factor > 1e3
    _verdict(
        "AC9",
        ok,
        f"g=2 residual {r2:.2e} (<1e-6), g=1 residual {r1:.3f}, "
        f"ratio {factor:.1e} (>1e3)",
    )


def test_ac10_spiral_conservation():
    # the spiral drift's exact flow holds radius and angular momentum to
    # 1e-8 over 10^4 steps
    cfg = spiral_preset(dt=1e-3, n_steps=10_000)
    traj = integrate_deterministic(cfg)
    rho = np.hypot(traj.positions[:, 0], traj.positions[:, 1])
    r_drift = float(np.max(np.abs(rho - rho[0])))
    lz = lz_series(traj, mode="central")
    lz_drift = float(np.max(np.abs(lz - lz[0])))
    ok = r_drift < 1e-8 and lz_drift < 1e-8
    _verdict(
        "AC10",
        ok,
        f"radius drift {r_drift:.2e}, L_z drift {lz_drift:.2e} over 10^4 steps",
    )


def test_ac11_stochastic_scaling():
    # noise variance within 2% of 2D per component over 10^6 sampled steps;
    # drift-free Hurst 0.5 +- 0.05 (D_F = 2 +- 0.2); byte reproducibility by
    # seed; 10^4-path ensemble inside 60 s
    base = dict(diffusion=0.05, dt=0.01, sigma0=0.0, p0=0.0)
    res_var = ensemble_run(SimConfig(n_steps=10_000, n_traj=100, seed=7, **base))
    var_dev = float(np.max(np.abs(
        res_var.increment_var / (2 * base["diffusion"]) - 1.0)))

    res_h = ensemble_run(SimConfig(n_steps=600, n_traj=400, seed=12, **base))
    h_dev = abs(res_h.hurst - 0.5)
    df_dev = abs(res_h.fractal_dimension - 2.0)

    t_a = integrate_stochastic(spiral_preset(n_steps=300, seed=42))
    t_b = integrate_stochastic(spiral_preset(n_steps=300, seed=42))
    rep_cfg = spiral_preset(n_steps=100, n_traj=50, seed=5)
    reproducible = (np.array_equal(t_a.positions, t_b.positions)
                    and np.array_equal(ensemble_run(rep_cfg).mean_final,
                                       ensemble_run(rep_cfg).mean_final))

    t0 = time.perf_counter()
    ensemble_run(spiral_preset(n_steps=500, n_traj=10_000, seed=3))
    elapsed = time.perf_counter() - t0

    ok = (var_dev < 0.02 and h_dev < 0.05 and df_dev < 0.2
          and reproducible and elapsed < 60.0)
    _verdict(
        "AC11",
        ok,
        f"var dev {var_dev:.4f} (<0.02), H = {res_h.hurst:.3f} "
        f"(0.5 +- 0.05), D_F = {res_h.fractal_dimension:.3f} (2 +- 0.2), "
        f"seed-reproducible = {reproducible}, 10^4 paths in {elapsed:.1f} s",
    )


def test_ac12_hyperhelix_dimensions_and_spin():
    # similarity dimension log 9 / log 3 == 2 exactly; walked dimension
    # 2.0 +- 0.1 at level 5; spin rescaling follows q^(D_F - 2) within 2%
    # for q in {2, 3, 9}; level-4 vs level-5 spin within 5%; the 0.42 hbar
    # reference value is flagged as not reproduced rather than matched
    d_sim = similarity_dimension(9, 3)
    gen = helical_generator()
    v5 = iterate(gen, 5)
    est = measured_dimension(v5, rulers=construction_rulers(3, 5))
    d_meas = est.dimension

    m, vel = 1.0, 1.0
    s5 = curve_spin(v5, m, vel)
    s4 = curve_spin(iterate(gen, 4), m, vel)
    converge = abs(s5 - s4) / abs(s5)
    scale_dev = 0.0
    for q in (2.0, 3.0, 9.0):
        sq = curve_spin(shrink_transverse(v5, q), m, vel, period_factor=q**-2.0)
        scale_dev = max(scale_dev, abs(sq / s5 - scaling_factor(q, 2.0)))

    note = flag_unreproduced_reference()
    unreproduced = abs(s5 - 0.42) > 0.05 and "0.42" in note and "not reproduced" in note

    ok = (d_sim == 2.0 and abs(d_meas - 2.0) < 0.1 and scale_dev < 0.02
          and converge < 0.05 and unreproduced)
    _verdict(
        "AC12",
        ok,
        f"similarity {d_sim} (== 2.0), walked {d_meas:.4f} (2.0 +- 0.1), "
        f"rescale dev {scale_dev:.2e} (<0.02), level-4/5 spin gap "
        f"{converge:.4f} (<0.05), sigma = {s5:.4f} hbar with 0.42 flagged "
        f"not reproduced",
    )
