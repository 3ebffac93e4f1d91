"""Command line interface.

Config files are flat key = value lines with # comments.  Command line
flags override file values; unknown keys are rejected by name.  The
diffusion constant can be given directly as D or through a Compton pair
lambda_c and c with 2 D = lambda_c * c.

Exit codes: 0 success, 1 check failure, 2 config error, 3 numerical or
geometric failure.  Relative --out paths resolve inside the directory
named by FRACTALSPIN_OUTDIR when that variable is set.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from dataclasses import replace
from importlib import resources
from pathlib import Path

import click
import numpy as np

from . import __version__, checks
from .algebra import Biquaternion
from .errors import ConfigError, FractalSpinError
from .fields import PlaneWaveTerm, SpacetimePoint, spiral_pair_field
from .hyperhelix import (construction_rulers, curve_spin,
                         flag_unreproduced_reference, helical_generator,
                         iterate, koch_generator, line_generator,
                         measured_dimension)
from .simulate import (SimConfig, ensemble_run, integrate_deterministic,
                       integrate_stochastic)
from .velocity import (component_velocities, conjugate_velocity,
                       recompose_velocity)

_CONFIG_KEYS = ("D", "lambda_c", "c", "dt", "n_steps", "seed", "m", "p0",
                "sigma0", "x0", "n_traj", "r_min")


def parse_config_text(text: str) -> dict:
    """Flat key = value parser; rejects unknown and duplicate keys."""
    raw = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(
                f"line {lineno}: expected key = value, got {stripped!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"unknown config key: {key}")
        if key in raw:
            raise ConfigError(f"duplicate config key: {key}")
        raw[key] = value
    return raw


def _as_float(raw: dict, key: str):
    try:
        return float(raw[key])
    except ValueError:
        raise ConfigError(f"key {key}: {raw[key]!r} is not a number") from None


def _as_int(raw: dict, key: str):
    try:
        return int(raw[key])
    except ValueError:
        raise ConfigError(f"key {key}: {raw[key]!r} is not an integer") \
            from None


def resolve_sim_config(raw: dict) -> SimConfig:
    """Typed SimConfig from merged string key/value pairs."""
    for key in raw:
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"unknown config key: {key}")
    cfg = SimConfig()
    if "D" in raw and ("lambda_c" in raw or "c" in raw):
        raise ConfigError("give either D or the pair lambda_c + c, not both")
    if ("lambda_c" in raw) != ("c" in raw):
        raise ConfigError("lambda_c and c must be given together")
    if "D" in raw:
        cfg = replace(cfg, diffusion=_as_float(raw, "D"))
    elif "lambda_c" in raw:
        cfg = replace(cfg, diffusion=0.5 * _as_float(raw, "lambda_c")
                      * _as_float(raw, "c"))
    for key, attr in (("dt", "dt"), ("m", "m"), ("p0", "p0"),
                      ("sigma0", "sigma0"), ("r_min", "r_min")):
        if key in raw:
            cfg = replace(cfg, **{attr: _as_float(raw, key)})
    for key in ("n_steps", "seed", "n_traj"):
        if key in raw:
            cfg = replace(cfg, **{key: _as_int(raw, key)})
    if "x0" in raw:
        parts = raw["x0"].split(",")
        if len(parts) != 3:
            raise ConfigError(f"key x0: need three comma-separated values, "
                              f"got {raw['x0']!r}")
        try:
            cfg = replace(cfg, x0=tuple(float(p) for p in parts))
        except ValueError:
            raise ConfigError(
                f"key x0: {raw['x0']!r} is not a number triple") from None
    return cfg


def config_dict(cfg: SimConfig) -> dict:
    return {
        "D": cfg.diffusion, "dt": cfg.dt, "n_steps": cfg.n_steps,
        "seed": cfg.seed, "m": cfg.m, "p0": cfg.p0, "sigma0": cfg.sigma0,
        "x0": list(cfg.x0), "n_traj": cfg.n_traj, "r_min": cfg.r_min,
    }


def _load_raw_config(config_path, preset, overrides: dict) -> dict:
    if config_path and preset:
        raise ConfigError("give --config or --preset, not both")
    raw = {}
    if preset:
        ref = resources.files("fractalspin") / "presets" / f"{preset}.cfg"
        if not ref.is_file():
            raise ConfigError(f"unknown preset: {preset}")
        raw = parse_config_text(ref.read_text())
    elif config_path:
        raw = parse_config_text(Path(config_path).read_text())
    raw.update({k: v for k, v in overrides.items() if v is not None})
    return raw


def _resolve_out(out):
    if out is None:
        return None
    path = Path(out)
    outdir = os.environ.get("FRACTALSPIN_OUTDIR")
    if outdir and not path.is_absolute():
        path = Path(outdir) / path
    return path


def _emit(text: str, out):
    path = _resolve_out(out)
    if path is None:
        click.echo(text, nl=False)
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def _trajectory_csv(traj) -> str:
    lines = ["t,x,y,z"]
    for t, pos in zip(traj.times, traj.positions):
        lines.append(f"{float(t)!r},{float(pos[0])!r},"
                     f"{float(pos[1])!r},{float(pos[2])!r}")
    return "\n".join(lines) + "\n"


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _exit_codes(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ConfigError as exc:
            click.echo(f"config error: {exc}", err=True)
            sys.exit(2)
        except FractalSpinError as exc:
            click.echo(f"numerical error: {exc}", err=True)
            sys.exit(3)
    return wrapper


def _sim_options(fn):
    options = [
        click.option("--config", "config_path",
                     type=click.Path(exists=True, dir_okay=False),
                     help="Flat key = value config file."),
        click.option("--preset", help="Name of a packaged preset config."),
        click.option("--d", "d_", help="Diffusion constant D."),
        click.option("--lambda-c", "lambda_c",
                     help="Compton length; needs --c, 2D = lambda_c * c."),
        click.option("--c", "c_", help="Signal speed for --lambda-c."),
        click.option("--dt", help="Time step."),
        click.option("--n-steps", help="Number of steps."),
        click.option("--seed", help="Master seed."),
        click.option("--m", help="Mass."),
        click.option("--p0", help="Axial momentum."),
        click.option("--sigma0", help="Spiral angular momentum."),
        click.option("--x0", help="Start point, three comma-separated values."),
        click.option("--n-traj", help="Number of trajectories."),
        click.option("--r-min", help="Drift core radius override."),
        click.option("--out", "-o", help="Output path (default stdout)."),
    ]
    for option in reversed(options):
        fn = option(fn)
    return fn


def _merged_config(config_path, preset, **kw) -> SimConfig:
    overrides = {
        "D": kw.get("d_"), "lambda_c": kw.get("lambda_c"), "c": kw.get("c_"),
        "dt": kw.get("dt"), "n_steps": kw.get("n_steps"),
        "seed": kw.get("seed"), "m": kw.get("m"), "p0": kw.get("p0"),
        "sigma0": kw.get("sigma0"), "x0": kw.get("x0"),
        "n_traj": kw.get("n_traj"), "r_min": kw.get("r_min"),
    }
    return resolve_sim_config(_load_raw_config(config_path, preset, overrides))


@click.group()
@click.version_option(__version__)
def main():
    """Spiral drift simulation and spinor velocity-field toolkit."""


@main.command()
@_sim_options
@_exit_codes
def simulate(config_path, preset, out, **kw):
    """Integrate stochastic paths: CSV for one, JSON stats for many."""
    cfg = _merged_config(config_path, preset, **kw)
    if cfg.n_traj <= 1:
        traj = integrate_stochastic(cfg)
        _emit(_trajectory_csv(traj), out)
    else:
        result = ensemble_run(cfg)
        payload = result.to_dict()
        payload["config"] = config_dict(cfg)
        _emit(_json_text(payload), out)


@main.command()
@_sim_options
@_exit_codes
def spiral(config_path, preset, out, **kw):
    """Integrate the deterministic spiral drift (RK4) to CSV."""
    cfg = _merged_config(config_path, preset, **kw)
    _emit(_trajectory_csv(integrate_deterministic(cfg)), out)


@main.command()
@click.option("--sigma0", type=float, default=0.5, show_default=True,
              help="Azimuthal quantum of the pair.")
@click.option("--pz", type=float, default=1.0, show_default=True,
              help="Shared axial momentum.")
@click.option("--e0", type=float, default=1.1, show_default=True)
@click.option("--e1", type=float, default=2.3, show_default=True,
              help="Term energies; any detuning is allowed here.")
@click.option("--mix", type=float, default=0.5, show_default=True,
              help="Relative weight of the second term.")
@click.option("--m", type=float, default=1.0, show_default=True)
@click.option("--hbar", type=float, default=1.0, show_default=True)
@click.option("--c", type=float, default=1.0, show_default=True)
@click.option("--point", default="0.0,1.0,0.0,0.0", show_default=True,
              help="Evaluation point t,x,y,z.")
@click.option("--out", "-o", help="Output path (default stdout).")
@_exit_codes
def extract(sigma0, pz, e0, e1, mix, m, hbar, c, point, out):
    """Decompose the spiral-pair velocity field at a point and verify
    that the eight components recompose to the conjugate velocity."""
    parts = point.split(",")
    if len(parts) != 4:
        raise ConfigError(f"key point: need t,x,y,z, got {point!r}")
    try:
        pt = SpacetimePoint(*(float(p) for p in parts))
    except ValueError:
        raise ConfigError(f"key point: {point!r} is not numeric") from None
    term0 = PlaneWaveTerm(Biquaternion(1.0, 0.0), (0.0, 0.0, pz), e0, sigma0)
    term1 = PlaneWaveTerm(Biquaternion(mix, 0.5j * mix), (0.0, 0.0, pz),
                          e1, sigma0)
    field = spiral_pair_field(term0, term1, m=m, hbar=hbar, c=c)
    comp = component_velocities(field, pt)
    rec = recompose_velocity(comp)
    conj = conjugate_velocity(field, pt)
    closure = max((rec[mu] - conj[mu]).max_abs() for mu in range(4))
    payload = {
        "config": {"sigma0": sigma0, "pz": pz, "e0": e0, "e1": e1,
                   "mix": mix, "m": m, "hbar": hbar, "c": c,
                   "point": [float(p) for p in parts]},
        "components": {name: [float(v) for v in vec]
                       for name, vec in comp.as_dict().items()},
        "tilde_max_abs": float(comp.tilde_max_abs()),
        "max_closure_error": float(closure),
        "closure_ok": bool(closure < 1e-10),
    }
    _emit(_json_text(payload), out)


@main.command()
@click.option("--generator", type=click.Choice(["helix", "koch", "line"]),
              default="helix", show_default=True)
@click.option("--winding", type=int, default=4, show_default=True,
              help="Helical winding number (helix generator only).")
@click.option("--level", type=click.IntRange(min=0), default=5,
              show_default=True)
@click.option("--measure/--no-measure", default=True, show_default=True,
              help="Run the divider-walk dimension estimate.")
@click.option("--min-decades", type=float, default=2.0, show_default=True)
@click.option("--out", "-o", help="Output path (default stdout).")
@_exit_codes
def hyperhelix(generator, winding, level, measure, min_decades, out):
    """Build an iterated fractal curve and report its dimensions and
    geometric spin."""
    gen = {"helix": lambda: helical_generator(winding),
           "koch": koch_generator,
           "line": line_generator}[generator]()
    verts = iterate(gen, level)
    payload = {
        "config": {"generator": generator, "winding": winding,
                   "level": level, "measure": measure,
                   "min_decades": min_decades},
        "n_vertices": len(verts),
        "similarity_dimension": gen.dimension(),
        "sigma_over_hbar": curve_spin(verts, m=1.0, v=1.0),
        "reference_note": flag_unreproduced_reference(),
    }
    if measure:
        est = measured_dimension(verts,
                                 rulers=construction_rulers(gen.divisions,
                                                            level),
                                 min_decades=min_decades)
        payload["measured_dimension"] = float(est.dimension)
        payload["rulers"] = [float(r) for r in est.rulers]
        payload["lengths"] = [float(v) for v in est.lengths]
    else:
        payload["measured_dimension"] = None
    _emit(_json_text(payload), out)


@main.command()
@click.option("--suite", "suites", multiple=True,
              type=click.Choice(sorted(checks.SUITES)),
              help="Run only the named suites (repeatable).")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", "-o", help="Output path (default stdout).")
@_exit_codes
def check(suites, seed, out):
    """Run quick invariant suites; exit 1 if any check fails."""
    report = checks.run_suites(suites or None, seed=seed)
    _emit(_json_text(report), out)
    if not report["passed"]:
        sys.exit(1)


if __name__ == "__main__":
    main()
