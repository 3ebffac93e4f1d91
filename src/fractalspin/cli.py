"""Command line interface.

Config files are flat key = value lines with # comments.  Command line
flags override file values; unknown keys are rejected by name.  The
diffusion constant can be given directly as D or through a Compton pair
lambda_c and c with 2 D = lambda_c * c.

Exit codes: 0 success, 1 check failure, 2 config error, 3 numerical or
geometric failure, including output that would hold an inf or a nan.
Relative --out paths resolve inside the directory named by
FRACTALSPIN_OUTDIR when that variable is set.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
from importlib import resources
from pathlib import Path

import click
import numpy as np

from . import __version__, checks
from .algebra import Biquaternion
from .errors import ConfigError, FractalSpinError, NumericalError
from .fields import PlaneWaveTerm, SpacetimePoint, spiral_pair_field
from .hyperhelix import (construction_rulers, curve_spin,
                         flag_unreproduced_reference, helical_generator,
                         iterate, koch_generator, line_generator,
                         measured_dimension)
from .simulate import (SimConfig, ensemble_run, integrate_deterministic,
                       integrate_stochastic)
from .velocity import (component_velocities, conjugate_velocity,
                       recompose_velocity)


def _triple(text: str) -> tuple:
    x, y, z = (float(part) for part in text.split(","))
    return x, y, z


# config key -> (SimConfig field, parser, flag help), in flag order; each
# key's flag is --key in lower case with dashes.  lambda_c and c have no
# field of their own: together they set the diffusion, 2 D = lambda_c * c.
_SIM_KEYS = {
    "D": ("diffusion", float, "Diffusion constant D."),
    "lambda_c": (None, float, "Compton length; needs --c, 2D = lambda_c * c."),
    "c": (None, float, "Signal speed for --lambda-c."),
    "dt": ("dt", float, "Time step."),
    "n_steps": ("n_steps", int, "Number of steps."),
    "seed": ("seed", int, "Master seed."),
    "m": ("m", float, "Mass."),
    "p0": ("p0", float, "Axial momentum."),
    "sigma0": ("sigma0", float, "Spiral angular momentum."),
    "x0": ("x0", _triple, "Start point, three comma-separated values."),
    "n_traj": ("n_traj", int, "Number of trajectories."),
    "r_min": ("r_min", float, "Drift core radius override."),
}
_READS = {float: "a number", int: "an integer", _triple: "a number triple"}


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
        if key not in _SIM_KEYS:
            raise ConfigError(f"unknown config key: {key}")
        if key in raw:
            raise ConfigError(f"duplicate config key: {key}")
        raw[key] = value
    return raw


def _parse(key: str, text: str):
    parse = _SIM_KEYS[key][1]
    try:
        return parse(text)
    except ValueError:
        raise ConfigError(
            f"key {key}: {text!r} is not {_READS[parse]}") from None


def resolve_sim_config(raw: dict) -> SimConfig:
    """Typed SimConfig from merged string key/value pairs."""
    for key in raw:
        if key not in _SIM_KEYS:
            raise ConfigError(f"unknown config key: {key}")
    if "D" in raw and ("lambda_c" in raw or "c" in raw):
        raise ConfigError("give either D or the pair lambda_c + c, not both")
    if ("lambda_c" in raw) != ("c" in raw):
        raise ConfigError("lambda_c and c must be given together")
    values = {key: _parse(key, text) for key, text in raw.items()}
    fields = {_SIM_KEYS[key][0]: value for key, value in values.items()
              if _SIM_KEYS[key][0]}
    if "lambda_c" in values:
        fields["diffusion"] = 0.5 * values["lambda_c"] * values["c"]
    return SimConfig(**fields)


def config_dict(cfg: SimConfig) -> dict:
    """The resolved config under its keys, for a JSON payload."""
    return {key: getattr(cfg, field)
            for key, (field, _, _) in _SIM_KEYS.items() if field}


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


_CSV_ROWS = 4096  # trajectory rows formatted per str.format call
_NON_FINITE = "output holds a non-finite number (inf or nan); nothing written"


def _trajectory_csv(traj) -> str:
    """t,x,y,z rows, each number as its float repr (shortest round trip)."""
    table = np.column_stack((traj.times, traj.positions))
    if not np.isfinite(table).all():
        raise NumericalError(_NON_FINITE)
    parts = ["t,x,y,z\n"]
    for start in range(0, len(table), _CSV_ROWS):
        chunk = table[start:start + _CSV_ROWS]
        parts.append(("{!r},{!r},{!r},{!r}\n" * len(chunk))
                     .format(*chunk.ravel().tolist()))
    return "".join(parts)


def _json_text(payload: dict) -> str:
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:  # JSON has no inf or nan
        raise NumericalError(_NON_FINITE) from None
    return text + "\n"


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
    """--config, --preset, one string flag per simulation key (passed on
    under the key's own name) and --out."""
    options = [
        click.option("--config", "config_path",
                     type=click.Path(exists=True, dir_okay=False),
                     help="Flat key = value config file."),
        click.option("--preset", help="Name of a packaged preset config."),
        *(click.option("--" + key.lower().replace("_", "-"), key, help=text)
          for key, (_, _, text) in _SIM_KEYS.items()),
        click.option("--out", "-o", help="Output path (default stdout)."),
    ]
    for option in reversed(options):
        fn = option(fn)
    return fn


@click.group()
@click.version_option(__version__)
def main():
    """Spiral drift simulation and spinor velocity-field toolkit."""


@main.command()
@_sim_options
@_exit_codes
def simulate(config_path, preset, out, **kw):
    """Integrate stochastic paths: CSV for one, JSON stats for many."""
    cfg = resolve_sim_config(_load_raw_config(config_path, preset, kw))
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
    cfg = resolve_sim_config(_load_raw_config(config_path, preset, kw))
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
    for key, value in (("m", m), ("hbar", hbar), ("c", c)):
        if not (math.isfinite(value) and value > 0):
            raise ConfigError(
                f"key {key}: need a finite number > 0, got {value!r}")
    for key, value in (("sigma0", sigma0), ("pz", pz), ("e0", e0),
                       ("e1", e1), ("mix", mix)):
        if not math.isfinite(value):
            raise ConfigError(f"key {key}: need a finite number, got {value!r}")
    if not all(map(math.isfinite, pt)):
        raise ConfigError(f"key point: need finite numbers, got {point!r}")
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
@click.option("--winding", type=click.IntRange(1, 4), default=4,
              show_default=True,
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
    if not math.isfinite(min_decades):
        raise ConfigError(f"key min_decades: {min_decades!r} is not finite")
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
@click.option("--seed", type=click.IntRange(min=0), default=0,
              show_default=True)
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
