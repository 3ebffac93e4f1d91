"""The workloads: seeded inputs, one pass, its checks.

Each workload is built from the benchmark seed alone and hands the
program only the generated inputs.  ``run()`` is one pass of the fixed
work; ``check()`` reads what that pass produced and returns the problems
found; ``validate()`` runs once per process and compares the program
against references computed in ``checks``.

The library is reached through module attributes at call time (for
example ``cli.main`` and ``velocity.bq_velocity``), so the traced run can
wrap those attributes without a second copy of the pass.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

import fractalspin.cli as cli
from fractalspin import algebra, dynamics, fields, hyperhelix, simulate, velocity

import checks

# Workload sizes.  Changing one changes what every figure means.
ENSEMBLE_TRAJ, ENSEMBLE_STEPS = 10_000, 500
ENSEMBLE_SUB_TRAJ, ENSEMBLE_SUB_LAGS = 64, (1, 2, 5, 10, 20, 50, 100, 200)
HELIX_WINDING, HELIX_LEVEL = 4, 5
FIELD_GRID, FIELD_HALF_WIDTH, WITNESS_POINTS = 40, 2.0, 8
LONG_STEPS = 100_000

PHYSICS = checks.Physics()  # the spiral_demo preset

#: Where the workloads write their output files.
OUTDIR = Path(__file__).resolve().parent.parent / ".bench_out"


def _cli(args):
    """One CLI call as a user makes it; a non-zero exit raises."""
    try:
        cli.main(args, standalone_mode=False)
    except SystemExit as exc:
        if exc.code:
            raise RuntimeError(f"fractalspin {args[0]} exited {exc.code}") \
                from None


class Ensemble:
    """`simulate` ensemble statistics, 10^4 paths x 500 steps, to JSON."""

    name = "ensemble"
    yardstick = ("arrays",)  # vectorised numpy only

    def __init__(self, seed: int, outdir: Path):
        rng = np.random.default_rng([seed, 1])
        self.sim_seed = int(rng.integers(2 ** 31))
        self.out = outdir / "ensemble.json"
        self.args = ["simulate", "--preset", "spiral_demo",
                     "--n-traj", str(ENSEMBLE_TRAJ),
                     "--n-steps", str(ENSEMBLE_STEPS),
                     "--seed", str(self.sim_seed), "-o", str(self.out)]

    def run(self):
        _cli(self.args)

    def check(self) -> list:
        stats = checks.strict_json(self.out.read_text())
        return checks.check_ensemble(stats, PHYSICS, self.sim_seed,
                                     ENSEMBLE_TRAJ, ENSEMBLE_STEPS)

    def validate(self) -> list:
        lags = np.array(ENSEMBLE_SUB_LAGS)
        cfg = simulate.spiral_preset(n_traj=ENSEMBLE_SUB_TRAJ,
                                     n_steps=ENSEMBLE_STEPS,
                                     seed=self.sim_seed)
        res = simulate.ensemble_run(cfg, lags=lags)
        got = {"mean_final": res.mean_final, "Lz_mean": res.lz_mean,
               "Lz_std": res.lz_std, "increment_var": res.increment_var,
               "lag_rms": res.lag_rms}
        ref = checks.reference_ensemble(PHYSICS, self.sim_seed,
                                        ENSEMBLE_SUB_TRAJ, ENSEMBLE_STEPS,
                                        lags)
        return checks.check_ensemble_reference(got, ref)


class Helix:
    """`hyperhelix` winding-4 level-5 curve with the measured dimension.

    The curve has no random input; the seed picks the mass and speed at
    which the check confirms that the spin does not depend on them.
    """

    name = "helix"
    yardstick = ("objects",)

    def __init__(self, seed: int, outdir: Path):
        rng = np.random.default_rng([seed, 2])
        self.mv = [tuple(rng.uniform(0.1, 10.0, 2)) for _ in range(2)]
        self.out = outdir / "helix.json"
        self.args = ["hyperhelix", "--generator", "helix",
                     "--winding", str(HELIX_WINDING),
                     "--level", str(HELIX_LEVEL), "-o", str(self.out)]
        self.spin_ref = None
        self.spins_other = []

    def run(self):
        _cli(self.args)

    def curve(self):
        return hyperhelix.iterate(
            hyperhelix.helical_generator(HELIX_WINDING), HELIX_LEVEL)

    def validate(self) -> list:
        verts = self.curve()
        self.spin_ref = checks.reference_spin(verts)
        self.spins_other = [hyperhelix.curve_spin(verts, m=m, v=v)
                            for m, v in self.mv]
        return []

    def check(self) -> list:
        out = checks.strict_json(self.out.read_text())
        return checks.check_helix(out, HELIX_LEVEL, self.spin_ref,
                                  self.spins_other)


def field_points(seed: int) -> np.ndarray:
    """(t, x, y, z) on a G x G grid of cell centres over the (x, y) square
    [-w, w]^2, shifted by a seeded offset of at most a quarter cell, at a
    seeded t and z.  No point is closer to the axis than cell/(2 sqrt 2)."""
    rng = np.random.default_rng([seed, 3])
    cell = 2.0 * FIELD_HALF_WIDTH / FIELD_GRID
    centres = -FIELD_HALF_WIDTH + cell * (np.arange(FIELD_GRID) + 0.5)
    dx, dy = rng.uniform(-0.25 * cell, 0.25 * cell, 2)
    x, y = np.meshgrid(centres + dx, centres + dy, indexing="ij")
    t, z = rng.uniform(0.0, 1.0), rng.uniform(-1.0, 1.0)
    n = x.size
    return np.stack([np.full(n, t), x.ravel(), y.ravel(), np.full(n, z)],
                    axis=1)


def _complex_wave(amp, p, energy):
    k4 = 1j * np.array([-energy, p[0], p[1], p[2]], dtype=complex)
    return (amp * algebra.ONE, k4)


class Fieldmap:
    """Velocity fields of the spiral-pair spinor on an (x, y) grid slice,
    by the three routes, plus the curl witness at seeded points."""

    name = "fieldmap"
    yardstick = ("objects",)
    diffusion = 0.5

    def __init__(self, seed: int, outdir: Path):
        self.params = checks.PairField()
        p = self.params
        term0 = fields.PlaneWaveTerm(algebra.Biquaternion(1.0, 0.0),
                                     (0.0, 0.0, p.pz), p.e0, p.sigma0)
        term1 = fields.PlaneWaveTerm(algebra.Biquaternion(p.mix, 0.5j * p.mix),
                                     (0.0, 0.0, p.pz), p.e1, p.sigma0)
        self.field = fields.spiral_pair_field(term0, term1, m=p.m,
                                              hbar=p.hbar, c=p.c)
        self.points = field_points(seed)
        self.pts = [fields.SpacetimePoint(*map(float, q)) for q in self.points]
        self.rotor = dynamics.product_field(
            dynamics.rotor_field(1, 0.9, [0.8, 0.0, 0.0]),
            dynamics.rotor_field(2, -0.6, [0.0, 0.7, 0.0]))
        self.control = dynamics.ExponentialField([
            (algebra.ONE, np.zeros(4)),
            _complex_wave(0.5, (0.6, -0.1, 0.3), 0.23),
            _complex_wave(0.2j, (-0.2, 0.4, 0.1), -0.4)])
        rng = np.random.default_rng([seed, 4])
        box = ((0.0, 1.0),) * 4
        self.witness_sets = [dynamics.sample_box(box, WITNESS_POINTS,
                                                 seed=int(s))
                             for s in rng.integers(2 ** 31, size=2)]
        self.result = None

    def run(self):
        f = self.field
        bq, conj, rec = [], [], []
        for pt in self.pts:
            bq.append(velocity.bq_velocity(f, pt))
            conj.append(velocity.conjugate_velocity(f, pt))
            comp = velocity.component_velocities(f, pt)
            rec.append((velocity.recompose_velocity(comp), comp))
        w_rot = dynamics.gradient_witness(self.rotor, self.diffusion,
                                          self.witness_sets[0])
        w_ctrl = dynamics.gradient_witness(self.control, self.diffusion,
                                           self.witness_sets[1])
        self.result = (bq, conj, rec, w_rot, w_ctrl)

    def validate(self) -> list:
        return []

    def check(self) -> list:
        bq, conj, rec, w_rot, w_ctrl = self.result

        def coeffs(rows):
            return np.array([[v.a for v in row] for row in rows])

        res = {"bq": coeffs(bq), "conj": coeffs(conj),
               "rec": coeffs(r for r, _ in rec),
               "tilde": np.array([max(np.max(np.abs(a)) for a in
                                      (c.vt_pp, c.vt_pm, c.vt_mp, c.vt_mm))
                                  for _, c in rec]),
               "witness_rotor": w_rot, "witness_control": w_ctrl}
        return checks.check_fieldmap(res, self.points, self.params)


class Longpath:
    """`spiral` and single-path `simulate`, 10^5 steps each, to CSV."""

    name = "longpath"
    yardstick = ("objects",)

    def __init__(self, seed: int, outdir: Path):
        rng = np.random.default_rng([seed, 5])
        self.sim_seed = int(rng.integers(2 ** 31))
        self.spiral_out = outdir / "spiral.csv"
        self.path_out = outdir / "path.csv"
        self.spiral_args = ["spiral", "--preset", "spiral_demo",
                            "--n-steps", str(LONG_STEPS),
                            "-o", str(self.spiral_out)]
        self.path_args = ["simulate", "--preset", "spiral_demo",
                          "--n-steps", str(LONG_STEPS),
                          "--seed", str(self.sim_seed),
                          "-o", str(self.path_out)]
        self.ref = None

    def run(self):
        _cli(self.spiral_args)
        _cli(self.path_args)

    def validate(self) -> list:
        self.ref = checks.reference_path(PHYSICS, self.sim_seed, LONG_STEPS)
        return []

    def check(self) -> list:
        spiral = checks.parse_path_csv(self.spiral_out)
        path = checks.parse_path_csv(self.path_out)
        return (checks.check_spiral(spiral, PHYSICS, LONG_STEPS)
                + checks.check_stochastic(path, self.ref, PHYSICS.dt))


#: The workloads by name; each runs in a process of its own.
WORKLOADS = {w.name: w for w in (Ensemble, Helix, Fieldmap, Longpath)}
