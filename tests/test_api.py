"""The public names of the fractalspin package, pinned.

Adding or removing a name shows up here as a test diff; record it in
CHANGES.md with the reason.
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
    "FractalSpinError", "GeneratorSpec", "GeometryInvalid",
    "InsufficientData", "NotNormalized", "NumericalError", "ONE",
    "PlaneWaveTerm", "ReducedVelocity", "ScalingResult",
    "SimConfig", "SmallComponentsNotSmall", "SpacetimePoint", "SpinorField",
    "Trajectory", "VelocityComponents", "ZeroDivisor", "acceleration_field",
    "amplitude_from_spinor", "bloch_spinor", "bq_velocity",
    "component_velocities", "conjugate_velocity", "construction_rulers",
    "covariant_derivative", "crossover_lag", "curve_length", "curve_spin",
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


_WAVE = fractalspin.ExponentialField([(fractalspin.ONE,
                                       [0.1j, -0.2, 0.3j, 0.0])])
_PT = (0.0, 0.4, 0.2, 0.1)


def _drift(**kw):
    return fractalspin.spiral_drift((1.0, 0.0, 0.0),
                                    **{"m": 1.0, "p0": 1.0, "sigma0": 0.5,
                                       **kw})


@pytest.mark.parametrize("call, message", [
    (lambda: fractalspin.SpinorField([]), "key terms: need at least one"),
    (lambda: fractalspin.plane_wave(fractalspin.ONE, (0.0, 0.0, 1.0), 0.5)
     .partial((0.0, 1.0, 0.0, 0.0), 4), "key mu: need 0, 1, 2 or 3, got 4"),
    (lambda: fractalspin.ExponentialField([]), "key terms: need at least one"),
    (lambda: fractalspin.rotor_field(0, 1.0, (0.0, 0.0, 1.0)),
     "key axis: need 1, 2 or 3, got 0"),
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
    (lambda: _WAVE.value((0.0, np.inf, 0.0, 0.0)),
     r"key point: need finite numbers t, x, y, z, got \[0.0, inf"),
    (lambda: _WAVE.derivative((np.nan, 0.0, 0.0, 0.0), (0, 1, 0, 0)),
     r"key point: need finite numbers t, x, y, z, got \[nan, 0.0"),
    (lambda: _WAVE.value((0.0, 1.0, 2.0)),
     r"key point: need finite numbers t, x, y, z, got \[0.0, 1.0, 2.0\]"),
    # spiral_drift: m = 0 ended in ZeroDivisionError, m = nan gave NaNs
    # and r_min = inf an AxisSingularity at every point
    (lambda: _drift(m=0.0), "key m: need a finite number > 0, got 0.0"),
    (lambda: _drift(m=-1.0), "key m: need a finite number > 0, got -1.0"),
    (lambda: _drift(m=np.nan), "key m: need a finite number > 0, got nan"),
    (lambda: _drift(p0=np.inf), "key p0: need a finite number, got inf"),
    (lambda: _drift(sigma0=np.nan),
     "key sigma0: need a finite number, got nan"),
    (lambda: _drift(r_min=np.inf), "key r_min: need a finite number, got inf"),
    # a NaN position gave [nan nan 1.], a string coordinate a bare
    # numpy ValueError
    (lambda: fractalspin.spiral_drift((np.nan, 0.0, 0.0), 1.0, 1.0, 0.5),
     r"key pos: need finite numbers, got \(nan, 0.0, 0.0\)"),
    (lambda: _WAVE.derivative(("a", 0, 0, 0), (0, 0, 0, 0)),
     r"key point: need finite numbers t, x, y, z, got \('a', 0, 0, 0\)"),
])
def test_argument_refusals_are_config_errors(call, message):
    with pytest.raises(fractalspin.ConfigError, match=message):
        call()
