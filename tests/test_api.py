"""The public names of the fractalspin package, pinned.

Adding or removing a name shows up here as a test diff; record it in
CHANGES.md with the reason.  Every name is used somewhere in the package
or the benchmark, or waits in AWAITING for the ROADMAP item that is to
use it.
"""

import ast
import builtins
import inspect
from pathlib import Path

import numpy as np
import pytest

import fractalspin

PUBLIC = [
    "AxisSingularity", "Biquaternion", "ConfigError", "DimensionEstimate",
    "E1", "E2", "E3", "EMField", "EnsembleResult", "ExponentialField",
    "FractalSpinError", "GeneratorSpec", "GeometryInvalid", "InsufficientData",
    "NotNormalized", "NumericalError", "ONE", "PlaneWaveTerm",
    "ReducedVelocity", "ScalingResult", "SimConfig", "SmallComponentsNotSmall",
    "SpacetimePoint", "SpinorField", "Trajectory", "VelocityComponents",
    "ZeroDivisor", "acceleration_field", "amplitude_from_spinor",
    "bloch_spinor", "bq_velocity", "component_velocities",
    "conjugate_velocity", "construction_rulers", "crossover_lag", "curve_spin",
    "dirac_plane_wave", "dirac_residual", "divider_walk", "ensemble_run",
    "flag_unreproduced_reference", "geodesic_residual", "gradient_witness",
    "helical_generator", "increment_scaling", "integrate_deterministic",
    "integrate_stochastic", "iterate", "koch_generator", "line_generator",
    "lz_series", "measured_dimension", "nonrel_reduce",
    "pauli_identity_residual", "pauli_recompose", "pauli_residual",
    "plane_wave", "product_field", "recompose_velocity", "rms_increments",
    "rotor_field", "s0_from_diffusion", "sample_box", "scaling_factor",
    "shrink_transverse", "sigma_dot", "similarity_dimension",
    "small_component", "spin_kernel", "spiral_drift", "spiral_pair_field",
    "spiral_preset", "uniform_b_field",
]


def test_public_names_are_pinned():
    # submodules become attributes of the package once imported, so they
    # are left out; only the names __init__ imports count
    exported = sorted(name for name, value in vars(fractalspin).items()
                      if not name.startswith("_")
                      and not inspect.ismodule(value))
    assert exported == PUBLIC


# public names with no consumer in the package yet, each with the open
# ROADMAP item that is to give it one
AWAITING = {
    **dict.fromkeys(
        ["amplitude_from_spinor", "bloch_spinor", "dirac_plane_wave",
         "dirac_residual", "small_component", "nonrel_reduce",
         "pauli_recompose"],
        "item 8: the Pauli 3-velocity as the c -> oo limit of the Dirac one"),
    "s0_from_diffusion": "item 11: Born-rule transport",
    **dict.fromkeys(["crossover_lag", "increment_scaling", "rms_increments"],
                    "item 5: the fractal-to-scale transition"),
    "lz_series": "item 9: spin read back from the paths",
    **dict.fromkeys(["shrink_transverse", "scaling_factor"],
                    "item 12: the hyperhelix spin converged in level"),
    "acceleration_field": "benchmarks/tracing.py counts it by its string "
                          "name, and the finite-difference oracle calls it",
}


def _consumed_names():
    """Every name loaded, as a bare name or an attribute, or imported in
    src/fractalspin/*.py other than __init__.py, or in benchmarks/*.py."""
    root = Path(fractalspin.__file__).parent
    paths = [p for p in root.glob("*.py") if p.name != "__init__.py"]
    paths += root.parents[1].joinpath("benchmarks").glob("*.py")
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def test_every_public_name_has_a_consumer_or_awaits_one():
    consumed = _consumed_names()
    assert sorted(n for n in PUBLIC if n not in consumed) == sorted(AWAITING)


def _raised_builtins(tree):
    """(line, name) of each raise in tree that names a built-in exception
    class; a bare re-raise names none."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        if isinstance(exc, ast.Name):
            cls = getattr(builtins, exc.id, None)
            if isinstance(cls, type) and issubclass(cls, BaseException):
                yield node.lineno, exc.id


def test_package_raises_only_its_own_errors():
    # every refusal is a FractalSpinError subclass, so callers catch one
    # family and the message names the key
    root = Path(fractalspin.__file__).parent
    found = [f"{path.name}:{line} raises {name}"
             for path in sorted(root.rglob("*.py"))
             for line, name in _raised_builtins(ast.parse(path.read_text()))]
    assert found == []


def test_raised_builtins_sees_each_spelling():
    tree = ast.parse("raise ValueError('x')\nraise TypeError\n"
                     "raise KeyError() from None\nraise\n"
                     "raise ConfigError('y')\nraise errors.ConfigError\n")
    assert list(_raised_builtins(tree)) == [(1, "ValueError"),
                                            (2, "TypeError"), (3, "KeyError")]


# the raises outside errors.py whose message may say "finite", each with
# the reason it does not call errors.finite
OWN_FINITE_CHECKS = {
    ("fields.py", "_sum"): "the hot path: value and partial check each "
                           "point inline, 9,600 times per fieldmap pass",
    ("hyperhelix.py", "_vertex_array"): "vertex arrays of any length",
    ("simulate.py", "_path_lags"): "names the first bad index of an "
                                   "(n+1, k) or (paths, n+1, k) array",
}


def _finite_wordings(tree):
    """{line: innermost enclosing function} of each raise of ConfigError
    or GeometryInvalid in tree whose message text says "finite"."""
    found = {}
    # ast.walk reaches an outer scope before the scopes inside it, so an
    # inner function's name overwrites its outer one's
    for scope in ast.walk(tree):
        if not isinstance(scope, (ast.Module, ast.FunctionDef)):
            continue
        for node in ast.walk(scope):
            if not (isinstance(node, ast.Raise)
                    and isinstance(node.exc, ast.Call)):
                continue
            func = node.exc.func
            name = getattr(func, "id", getattr(func, "attr", None))
            if name in ("ConfigError", "GeometryInvalid") and any(
                    isinstance(c, ast.Constant) and isinstance(c.value, str)
                    and "finite" in c.value for c in ast.walk(node.exc)):
                found[node.lineno] = getattr(scope, "name", "<module>")
    return found


def test_finite_refusals_share_one_wording():
    # every other check that a number is finite goes through
    # errors.finite, so the package refuses with one wording
    root = Path(fractalspin.__file__).parent
    found = {(path.name, fn)
             for path in sorted(root.glob("*.py")) if path.name != "errors.py"
             for fn in _finite_wordings(ast.parse(path.read_text())).values()}
    assert found == set(OWN_FINITE_CHECKS)


def test_finite_wordings_sees_each_spelling():
    tree = ast.parse(
        "def f():\n"
        "    raise ConfigError(f'key {k}: need finite numbers')\n"
        "    def g():\n"
        "        raise errors.GeometryInvalid('not finite', 1)\n"
        "    raise ConfigError('need a number')\n"
        "    raise NumericalError('not finite')\n"
        "raise ConfigError('finite')\n")
    assert _finite_wordings(tree) == {2: "f", 4: "g", 7: "<module>"}


_WAVE = fractalspin.ExponentialField([(fractalspin.ONE,
                                       [0.1j, -0.2, 0.3j, 0.0])])
_PT = (0.0, 0.4, 0.2, 0.1)
_SCALAR_WAVE = fractalspin.ExponentialField([(0.5 + 0.1j,
                                              [0.1j, -0.2, 0.3j, 0.0])])
_PW = fractalspin.plane_wave(fractalspin.ONE, (0.0, 0.0, 1.0), 0.5)
_PW_PT = (0.0, 1.0, 0.0, 0.0)


_PHI = fractalspin.ExponentialField([(np.array([1.0, 0.0]),
                                      [0.1j, 0.2j, 0.0, 0.3j])])
_FREE = fractalspin.EMField()
_PSI = fractalspin.dirac_plane_wave((1, 0), (0, 0, 1))


_EM = fractalspin.EMField(a0=lambda pt: np.inf,
                          a=lambda pt: (0.0, np.nan, 0.0),
                          b=lambda pt: (0.0, 1.0), div_a=lambda pt: np.nan)


_SIM = fractalspin.spiral_preset(n_steps=5)


_NAN_WALK = np.cumsum(np.random.default_rng(0).standard_normal((3001, 3)),
                      axis=0)
_NAN_WALK[1700, 2] = np.nan
_INF_WALKS = np.zeros((2, 5, 1))
_INF_WALKS[1, 3, 0] = -np.inf


def _components(size=4, **rows):
    """VelocityComponents of zero rows of size entries, with the named
    rows replaced."""
    names = ("v_pp", "v_pm", "v_mp", "v_mm", "vt_pp", "vt_pm", "vt_mp",
             "vt_mm")
    return fractalspin.VelocityComponents(
        **{name: rows.get(name, np.zeros(size)) for name in names})


def _drift(**kw):
    return fractalspin.spiral_drift((1.0, 0.0, 0.0),
                                    **{"m": 1.0, "p0": 1.0, "sigma0": 0.5,
                                       **kw})


@pytest.mark.parametrize("call, message", [
    (lambda: fractalspin.SpinorField([]), "key terms: need at least one"),
    (lambda: fractalspin.plane_wave(fractalspin.ONE, (0.0, 0.0, 1.0), 0.5)
     .partial((0.0, 1.0, 0.0, 0.0), 4), "key mu: need 0, 1, 2 or 3, got 4"),
    # a float mu ended in a bare TypeError, "tuple indices must be
    # integers"; only the tuple (0, 1, 2, 3) asks for all four derivatives
    (lambda: _PW.partial(_PW_PT, 1.0), "key mu: need 0, 1, 2 or 3, got 1.0"),
    (lambda: _PW.partial(_PW_PT, np.float64(3.0)),
     r"key mu: need 0, 1, 2 or 3, got np.float64\(3.0\)"),
    (lambda: _PW.partial(_PW_PT, (0, 1)),
     r"key mu: need 0, 1, 2 or 3, got \(0, 1\); the tuple \(0, 1, 2, 3\) "
     "asks for all four"),
    (lambda: _PW.partial(_PW_PT, [0, 1, 2, 3]),
     r"key mu: need 0, 1, 2 or 3, got \[0, 1, 2, 3\]"),
    # a bool mu passed as a whole number: True returned d_x
    (lambda: _PW.partial(_PW_PT, True), "key mu: need 0, 1, 2 or 3, got True"),
    # SpinorField: a three- or five-coordinate point ended in a bare
    # ValueError, and numeric strings were taken as numbers
    (lambda: _PW.value((0.0, 1.0, 0.0)),
     r"key point: need four finite numbers, got \(0.0, 1.0, 0.0\)"),
    (lambda: _PW.value(("0", "1", "0", "0")),
     r"key point: need four finite numbers, got \('0', '1', '0', '0'\)"),
    (lambda: _PW.partial((0, 1, 0, 0, 0), (0, 1, 2, 3)),
     r"key point: need four finite numbers, got \(0, 1, 0, 0, 0\)"),
    (lambda: _PW.partial(("0", "1", "0", "0"), 1),
     r"key point: need four finite numbers, got \('0', '1', '0', '0'\)"),
    (lambda: fractalspin.ExponentialField([]), "key terms: need at least one"),
    (lambda: fractalspin.rotor_field(0, 1.0, (0.0, 0.0, 1.0)),
     "key axis: need 1, 2 or 3, got 0"),
    (lambda: fractalspin.rotor_field(4, 1.0, (0.0, 0.0, 1.0)),
     "key axis: need 1, 2 or 3, got 4"),
    # a float axis ended in a bare TypeError, "tuple indices must be
    # integers or slices", and True was taken as axis 1
    (lambda: fractalspin.rotor_field(1.0, 1.0, (0.0, 0.0, 1.0)),
     "key axis: need 1, 2 or 3, got 1.0"),
    (lambda: fractalspin.rotor_field(True, 1.0, (0.0, 0.0, 1.0)),
     "key axis: need 1, 2 or 3, got True"),
    (lambda: fractalspin.Biquaternion.from_matrix(np.eye(3)),
     r"key m: need a 2x2 matrix, got shape \(3, 3\)"),
    # ExponentialField: orders (0, -1, 0, 0) returned the second
    # derivative, 1.0 ended in a bare TypeError and three orders were
    # taken; an inf point gave NaNs, three coordinates a bare ValueError
    (lambda: _WAVE.derivative(_PT, (0, -1, 0, 0)),
     r"key orders: need four non-negative ints, got \(0, -1, 0, 0\)"),
    (lambda: _WAVE.derivative(_PT, (0, 1.0, 0, 0)),
     r"key orders: need four non-negative ints, got \(0, 1.0, 0, 0\)"),
    (lambda: _WAVE.derivative(_PT, (0, 1, 0)),
     r"key orders: need four non-negative ints, got \(0, 1, 0\)"),
    # a bool order passed as a count: True took d_x
    (lambda: _WAVE.derivative(_PT, (0, True, 0, 0)),
     r"key orders: need four non-negative ints, got \(0, True, 0, 0\)"),
    (lambda: _WAVE.value((0.0, np.inf, 0.0, 0.0)),
     r"key point: need four finite numbers, got \(0.0, inf"),
    (lambda: _WAVE.derivative((np.nan, 0.0, 0.0, 0.0), (0, 1, 0, 0)),
     r"key point: need four finite numbers, got \(nan, 0.0"),
    (lambda: _WAVE.value((0.0, 1.0, 2.0)),
     r"key point: need four finite numbers, got \(0.0, 1.0, 2.0\)"),
    # spiral_drift: m = 0 ended in ZeroDivisionError, m = nan gave NaNs
    (lambda: _drift(m=0.0), "key m: need a finite number > 0, got 0.0"),
    (lambda: _drift(m=-1.0), "key m: need a finite number > 0, got -1.0"),
    (lambda: _drift(m=np.nan), "key m: need a finite number > 0, got nan"),
    (lambda: _drift(p0=np.inf), "key p0: need a finite number, got inf"),
    (lambda: _drift(sigma0=np.nan),
     "key sigma0: need a finite number, got nan"),
    # a NaN position gave [nan nan 1.], a string coordinate a bare
    # numpy ValueError
    (lambda: fractalspin.spiral_drift((np.nan, 0.0, 0.0), 1.0, 1.0, 0.5),
     r"key pos: need three finite numbers, got \(nan, 0.0, 0.0\)"),
    (lambda: _WAVE.derivative(("a", 0, 0, 0), (0, 0, 0, 0)),
     r"key point: need four finite numbers, got \('a', 0, 0, 0\)"),
    # a NaN or zero dt ended in a LinAlgError after a LAPACK message on
    # stderr, a flat array of positions in a bare IndexError
    (lambda: fractalspin.increment_scaling(np.zeros((11, 3)), np.nan),
     "key dt: need a finite number > 0, got nan"),
    (lambda: fractalspin.increment_scaling(np.zeros((11, 3)), 0.0),
     "key dt: need a finite number > 0, got 0.0"),
    (lambda: fractalspin.rms_increments(np.arange(10.0), [1]),
     r"key positions: need shape \(n\+1, k\) or \(paths, n\+1, k\), "
     r"got \(10,\)"),
    # a NaN or inf position gave hurst=nan, fractal_dimension=nan and NaN
    # RMS increments without a warning
    (lambda: fractalspin.increment_scaling(_NAN_WALK, 0.01),
     r"key positions: need finite numbers, got nan at index \(1700, 2\)"),
    (lambda: fractalspin.rms_increments(_NAN_WALK, [1, 10]),
     r"key positions: need finite numbers, got nan at index \(1700, 2\)"),
    (lambda: fractalspin.rms_increments(_INF_WALKS, [1]),
     r"key positions: need finite numbers, got -inf at index \(1, 3, 0\)"),
    # recompose_velocity paired rows of any equal length, two entries gave
    # two biquaternions, and rows that were lists ended in a bare
    # AttributeError
    (lambda: fractalspin.recompose_velocity(_components(v_mp=np.zeros(2))),
     r"key v_mp: need an array of four numbers, got array\(\[0., 0.\]\)"),
    (lambda: fractalspin.recompose_velocity(_components(size=3)),
     r"key v_pp: need an array of four numbers, got array\(\[0., 0., 0.\]\)"),
    (lambda: fractalspin.recompose_velocity(_components(vt_mm=[0.0] * 4)),
     r"key vt_mm: need an array of four numbers, got \[0.0, 0.0, 0.0, 0.0\]"),
    (lambda: fractalspin.recompose_velocity(
        _components(vt_pm=np.zeros((4, 1)))),
     r"key vt_pm: need an array of four numbers, got array\(\[\[0.\],"),
    (lambda: fractalspin.recompose_velocity(
        _components(v_pm=np.array(["1", "2", "3", "4"]))),
     r"key v_pm: need an array of four numbers, got array\(\['1', "),
    # a two-component p ended in a bare IndexError, a three-component k
    # in a bare ValueError from the reshape, and a NaN k gave NaN values
    (lambda: fractalspin.plane_wave(fractalspin.ONE, (1.0, 2.0), 0.5),
     r"term 0 p: need three finite numbers, got \(1.0, 2.0\)"),
    (lambda: fractalspin.ExponentialField([(fractalspin.ONE, (1, 2, 3))]),
     r"term 0 k: need four finite numbers, got \(1, 2, 3\)"),
    # a NaN omega or m was refused as the internal wave vector "term 0 k",
    # the NaN m only after a RuntimeWarning
    (lambda: fractalspin.rotor_field(1, np.nan, (0.0, 0.0, 0.0)),
     "key omega: need a finite number, got nan"),
    (lambda: fractalspin.dirac_plane_wave((1, 0), (0, 0, 1), m=np.nan),
     "key m: need a finite number > 0, got nan"),
    # a core radius whose square underflows to 0: a single path on the
    # axis ended in a bare ZeroDivisionError, 0/0 in Python floats, and
    # an ensemble was reported as "ensemble paths overflow"
    (lambda: fractalspin.integrate_stochastic(
        fractalspin.SimConfig(x0=(0, 0, 0), dt=1e-323, n_steps=3)),
     r"keys D and dt: need the core radius 10 sqrt\(2 D dt\) to square "
     r"to a number > 0, got D = 0.05, dt = 1e-323"),
    (lambda: fractalspin.ensemble_run(
        fractalspin.SimConfig(x0=(0, 0, 0), dt=1e-323, n_steps=3,
                              n_traj=2)),
     r"keys D and dt: .*, got D = 0.05, dt = 1e-323"),
    (lambda: fractalspin.spiral_preset(diffusion=5e-324),
     r"keys D and dt: .*, got D = 5e-324, dt = 0.01"),
    # fractional counts and seeds ended in a TypeError from range or
    # SeedSequence, a two-component x0 in "not enough values to unpack"
    (lambda: fractalspin.SimConfig(n_steps=2.5),
     "key n_steps: need a whole number of at least 1, got 2.5"),
    (lambda: fractalspin.SimConfig(n_traj=2.5),
     "key n_traj: need a whole number of at least 1, got 2.5"),
    (lambda: fractalspin.SimConfig(seed=1.5),
     "key seed: need a whole number of at least 0, got 1.5"),
    # bools passed as whole numbers, and n_steps = True ended in numpy's
    # "an integer is required" once the path was integrated
    (lambda: fractalspin.SimConfig(n_steps=True),
     "key n_steps: need a whole number of at least 1, got True"),
    (lambda: fractalspin.SimConfig(seed=False),
     "key seed: need a whole number of at least 0, got False"),
    # integrate_stochastic's own seed ended in numpy's bare ValueError
    # (-1) or TypeError (1.5, "3")
    (lambda: fractalspin.integrate_stochastic(_SIM, seed=-1),
     "key seed: need a whole number of at least 0, got -1"),
    (lambda: fractalspin.integrate_stochastic(_SIM, seed=1.5),
     "key seed: need a whole number of at least 0, got 1.5"),
    (lambda: fractalspin.integrate_stochastic(_SIM, seed="3"),
     "key seed: need a whole number of at least 0, got '3'"),
    (lambda: fractalspin.integrate_stochastic(_SIM, seed=True),
     "key seed: need a whole number of at least 0, got True"),
    (lambda: fractalspin.SimConfig(x0=(1.0, 0.0)),
     r"key x0: need three finite numbers, got \(1.0, 0.0\)"),
    # nested input of the right count was taken as the flat point: a
    # 2 x 2 list as (t, x, y, z), a column or a row as a position
    (lambda: _PW.value([[0, 1], [0, 0]]),
     r"key point: need four finite numbers, got \[\[0, 1\], \[0, 0\]\]"),
    (lambda: _WAVE.value([[0, 1], [0, 0]]),
     r"key point: need four finite numbers, got \[\[0, 1\], \[0, 0\]\]"),
    (lambda: fractalspin.spiral_drift([[1.0], [0.0], [0.0]], 1, 1, 0.5),
     r"key pos: need three finite numbers, got \[\[1.0\], \[0.0\], "
     r"\[0.0\]\]"),
    (lambda: fractalspin.SimConfig(x0=[[1.0, 0.0, 0.0]]),
     r"key x0: need three finite numbers, got \[\[1.0, 0.0, 0.0\]\]"),
    # each row below ended in a bare numpy error or a NaN result, or was
    # taken silently; numeric strings were taken as numbers or ended in a
    # bare TypeError
    (lambda: fractalspin.SimConfig(diffusion="1"),
     "key D: need a finite number > 0, got '1'"),
    (lambda: fractalspin.SimConfig(x0=("1", "0", "0")),
     r"key x0: need three finite numbers, got \('1', '0', '0'\)"),
    (lambda: fractalspin.spiral_drift((1.0, 0.0), 1.0, 1.0, 0.5),
     r"key pos: need three finite numbers, got \(1.0, 0.0\)"),
    (lambda: fractalspin.sigma_dot((1, 2)),
     r"key v: need three finite numbers, got \(1, 2\)"),
    (lambda: fractalspin.sigma_dot((np.nan, 0, 0)),
     r"key v: need three finite numbers, got \(nan, 0, 0\)"),
    (lambda: fractalspin.pauli_identity_residual((1, 2), (1, 2, 3)),
     r"key a: need three finite numbers, got \(1, 2\)"),
    (lambda: fractalspin.pauli_identity_residual((1, 2, 3), (1, np.nan, 3)),
     r"key b: need three finite numbers, got \(1, nan, 3\)"),
    (lambda: fractalspin.Biquaternion.from_array([1, 2, 3]),
     "key a: need four numbers, got 3"),
    (lambda: fractalspin.rotor_field(1, 1.0, (0.0, 1.0)),
     r"key kvec: need three finite numbers, got \(0.0, 1.0\)"),
    (lambda: fractalspin.rotor_field(1, 1.0, (0.0, np.nan, 0.0)),
     r"key kvec: need three finite numbers, got \(0.0, nan, 0.0\)"),
    (lambda: fractalspin.dirac_plane_wave((1, 0), (0.0, 1.0)),
     r"key p: need three finite numbers, got \(0.0, 1.0\)"),
    (lambda: fractalspin.dirac_plane_wave((1, 0), (0.0, np.inf, 1.0)),
     r"key p: need three finite numbers, got \(0.0, inf, 1.0\)"),
    (lambda: fractalspin.dirac_plane_wave((1, 0, 0), (0.0, 0.0, 1.0)),
     r"key xi: need two finite numbers, got \(1, 0, 0\)"),
    (lambda: fractalspin.dirac_plane_wave((1, np.nan), (0.0, 0.0, 1.0)),
     r"key xi: need two finite numbers, got \(1, nan\)"),
    (lambda: fractalspin.amplitude_from_spinor((1, 0, 0)),
     r"key spinor: need two finite numbers, got \(1, 0, 0\)"),
    (lambda: fractalspin.amplitude_from_spinor((1, complex(0, np.nan))),
     r"key spinor: need two finite numbers, got \(1, nanj\)"),
    (lambda: fractalspin.bloch_spinor(np.nan, 0.0),
     "key theta: need a finite number, got nan"),
    (lambda: _EM.a(_PT), r"key a: need three finite numbers, got \(0.0, nan"),
    (lambda: _EM.b(_PT),
     r"key b: need three finite numbers, got \(0.0, 1.0\)"),
    (lambda: _EM.a0(_PT), "key a0: need a finite number, got inf"),
    (lambda: _EM.div_a(_PT), "key div_a: need a finite number, got nan"),
    (lambda: fractalspin.uniform_b_field(np.nan),
     "key b0: need a finite number, got nan"),
    (lambda: fractalspin.sample_box(((0, 1),) * 3, 2),
     r"key bounds: need four \(lo, hi\) pairs, got \(\(0, 1\), \(0, 1\), "
     r"\(0, 1\)\)"),
    (lambda: fractalspin.sample_box(((0, 1),) * 3 + ((0, np.nan),), 2),
     r"key bounds: need two finite numbers, got \(0, nan\)"),
    # eight flat numbers were taken as four pairs
    (lambda: fractalspin.sample_box((0, 1) * 4, 2),
     r"key bounds: need four \(lo, hi\) pairs, got \(0, 1, 0, 1, "),
    (lambda: fractalspin.sample_box(((0, 1), (0,), (0, 1), (0, 1)), 2),
     r"key bounds: need four \(lo, hi\) pairs, got \(\(0, 1\), \(0,\), "),
    (lambda: fractalspin.sample_box(((0, 1),) * 4, -1),
     "key n: need a whole number of at least 1, got -1"),
    (lambda: fractalspin.crossover_lag([1, 2, 3], [1, 2]),
     r"key rms: need three finite numbers > 0, got \[1, 2\]"),
    (lambda: fractalspin.crossover_lag([1, 2, 3], [1, np.nan, 3]),
     r"key rms: need three finite numbers > 0, got \[1, nan, 3\]"),
    # the keyword constants of the Pauli/Dirac layer were not checked: a
    # zero m, c or hbar ended in a bare ZeroDivisionError, a NaN gave NaN
    (lambda: fractalspin.small_component(_PHI, _FREE, _PT, m=0.0),
     "key m: need a finite number > 0, got 0.0"),
    (lambda: fractalspin.small_component(_PHI, _FREE, _PT, c=np.nan),
     "key c: need a finite number > 0, got nan"),
    (lambda: fractalspin.small_component(_PHI, _FREE, _PT, charge=np.inf),
     "key charge: need a finite number, got inf"),
    (lambda: fractalspin.pauli_residual(_PHI, _FREE, _PT, g=np.nan),
     "key g: need a finite number, got nan"),
    (lambda: fractalspin.pauli_residual(_PHI, _FREE, _PT, hbar=0.0),
     "key hbar: need a finite number > 0, got 0.0"),
    (lambda: fractalspin.pauli_residual(_PHI, _FREE, _PT, charge="1"),
     "key charge: need a finite number, got '1'"),
    (lambda: fractalspin.dirac_residual(_PSI, _FREE, _PT, m=-1.0),
     "key m: need a finite number > 0, got -1.0"),
    (lambda: fractalspin.dirac_residual(_PSI, _FREE, _PT, charge=np.nan),
     "key charge: need a finite number, got nan"),
    (lambda: fractalspin.dirac_plane_wave((1, 0), (0, 0, 1), c=0.0),
     "key c: need a finite number > 0, got 0.0"),
    (lambda: fractalspin.dynamics.strip_rest_phase(_WAVE, hbar=np.inf),
     "key hbar: need a finite number > 0, got inf"),
    # a NaN diffusion gave all-NaN residuals and accelerations, and the
    # witness ignored it
    (lambda: fractalspin.geodesic_residual(_WAVE, np.nan, _PT),
     "key diffusion: need a finite number, got nan"),
    (lambda: fractalspin.acceleration_field(_WAVE, np.inf, _PT),
     "key diffusion: need a finite number, got inf"),
    (lambda: fractalspin.gradient_witness(_WAVE, np.nan, [_PT]),
     "key diffusion: need a finite number, got nan"),
    # a field of complex-scalar values ended in a bare AttributeError,
    # "'complex' object has no attribute 'inverse'"
    (lambda: fractalspin.geodesic_residual(_SCALAR_WAVE, 0.5, _PT),
     r"key field: need biquaternion values, got \(0\.455"),
    (lambda: fractalspin.acceleration_field(_SCALAR_WAVE, 0.5, _PT),
     r"key field: need biquaternion values, got \(0\.455"),
    (lambda: fractalspin.gradient_witness(_SCALAR_WAVE, 0.5, [_PT]),
     r"key field: need biquaternion values, got \(0\.455"),
    # no points returned 0.0, which reads as "the field commutes"
    (lambda: fractalspin.gradient_witness(_WAVE, 0.5, []),
     "key points: need at least one point, got none"),
    (lambda: fractalspin.gradient_witness(_WAVE, 0.5, iter([])),
     "key points: need at least one point, got none"),
    # sample_box's seed ended in numpy's bare ValueError (-1) or TypeError
    # (1.5, "3"), True was taken as 1, and None drew fresh OS entropy
    (lambda: fractalspin.sample_box(((0, 1),) * 4, 2, seed=-1),
     "key seed: need a whole number of at least 0, got -1"),
    (lambda: fractalspin.sample_box(((0, 1),) * 4, 2, seed=1.5),
     "key seed: need a whole number of at least 0, got 1.5"),
    (lambda: fractalspin.sample_box(((0, 1),) * 4, 2, seed="3"),
     "key seed: need a whole number of at least 0, got '3'"),
    (lambda: fractalspin.sample_box(((0, 1),) * 4, 2, seed=True),
     "key seed: need a whole number of at least 0, got True"),
    (lambda: fractalspin.sample_box(((0, 1),) * 4, 2, seed=None),
     "key seed: need a whole number of at least 0, got None"),
    # orders that are no sequence ended in a bare TypeError from len
    (lambda: _WAVE.derivative(_PT, 5),
     "key orders: need four non-negative ints, got 5"),
    (lambda: _WAVE.derivative(_PT, None),
     "key orders: need four non-negative ints, got None"),
    # a NaN amplitude evaluated to NaN, a string one failed later in a
    # bare TypeError
    (lambda: fractalspin.ExponentialField([(fractalspin.ONE, [0, 0, 0, 0]),
                                           (np.nan, [0, 0, 0, 0])]),
     "term 1 amplitude: need a finite number, got nan"),
    (lambda: fractalspin.ExponentialField([("a", [0, 0, 0, 0])]),
     "term 0 amplitude: need a finite number, got 'a'"),
    (lambda: fractalspin.ExponentialField([(np.array([1.0, np.inf]),
                                            [0, 0, 0, 0])]),
     r"term 0 amplitude: need finite numbers, got array\(\[ 1., inf\]\)"),
    (lambda: fractalspin.ExponentialField([(fractalspin.Biquaternion(
        0, np.nan), [0, 0, 0, 0])]),
     r"term 0 amplitude: need finite numbers, got array\(\[ 0\.\+0\.j, nan"),
    # upper_components on biquaternion amplitudes ended in a bare
    # IndexError
    (lambda: fractalspin.dynamics.upper_components(_WAVE),
     "term 0 amplitude: need four finite numbers, got Biquaternion"),
    # a bool was taken as the number 1 or 0, alone or among numbers
    (lambda: fractalspin.SimConfig(dt=True),
     "key dt: need a finite number > 0, got True"),
    (lambda: fractalspin.geodesic_residual(_WAVE, True, _PT),
     "key diffusion: need a finite number, got True"),
    (lambda: fractalspin.pauli_residual(_PHI, _FREE, _PT, g=True),
     "key g: need a finite number, got True"),
    (lambda: fractalspin.plane_wave(fractalspin.ONE, (0, 0, True), 0.5),
     r"term 0 p: need three finite numbers, got \(0, 0, True\)"),
    (lambda: fractalspin.EMField(a0=lambda pt: True).a0(_PT),
     "key a0: need a finite number, got True"),
    (lambda: _PW.value((True, 1.0, 0.0, 0.0)),
     r"key point: need four finite numbers, got \(True, 1.0, 0.0, 0.0\)"),
    (lambda: _WAVE.value((True, 1.0, 0.0, 0.0)),
     r"key point: need four finite numbers, got \(True, 1.0, 0.0, 0.0\)"),
    (lambda: fractalspin.rms_increments(np.zeros((11, 3)), [True, 5]),
     r"lags must lie in \[1, 10\] as whole numbers for a path of 10 "
     r"steps, got \[True, 5\]"),
    (lambda: fractalspin.sample_box(((0, True),) + ((0, 1),) * 3, 2),
     r"key bounds: need four \(lo, hi\) pairs, got \(\(0, True\), "),
    # ragged lags ended in numpy's bare ValueError, numeric strings were
    # taken as lags
    (lambda: fractalspin.rms_increments(np.zeros((11, 3)), [[1, 2], [3]]),
     r"lags must lie in \[1, 10\] as whole numbers for a path of 10 "
     r"steps, got \[\[1, 2\], \[3\]\]"),
    (lambda: fractalspin.rms_increments(np.zeros((11, 3)), ["1", "5"]),
     r"lags must lie in \[1, 10\] as whole numbers for a path of 10 "
     r"steps, got \['1', '5'\]"),
    # ragged lag times ended in numpy's bare ValueError
    (lambda: fractalspin.crossover_lag([[1, 2], [3]], [1, 2]),
     r"key lag_times: need finite numbers > 0, got \[\[1, 2\], \[3\]\]"),
])
def test_argument_refusals_are_config_errors(call, message):
    with pytest.raises(fractalspin.ConfigError, match=message):
        call()


_CURVE = fractalspin.iterate(fractalspin.helical_generator(), 2)


@pytest.mark.parametrize("call, message", [
    # each bool below was taken as the number 1 or 0
    (lambda: fractalspin.curve_spin(_CURVE, m=True, v=1.0),
     "key m: need a finite number > 0, got True"),
    (lambda: fractalspin.measured_dimension(_CURVE, min_decades=True),
     "key min_decades: need a number, got True"),
    (lambda: fractalspin.divider_walk([[0.0, 0.0, 0.0], [True, 0.0, 0.0]],
                                      0.5),
     r"need an \(n, 3\) vertex array with n >= 2"),
])
def test_curve_refusals_take_no_bool_for_a_number(call, message):
    with pytest.raises(fractalspin.GeometryInvalid, match=message):
        call()
