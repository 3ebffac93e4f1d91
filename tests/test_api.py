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


@pytest.mark.parametrize("call, message", [
    (lambda: fractalspin.SpinorField([]), "key terms: need at least one"),
    (lambda: fractalspin.plane_wave(fractalspin.ONE, (0.0, 0.0, 1.0), 0.5)
     .partial((0.0, 1.0, 0.0, 0.0), 4), "key mu: need 0, 1, 2 or 3, got 4"),
    (lambda: fractalspin.ExponentialField([]), "key terms: need at least one"),
    (lambda: fractalspin.rotor_field(0, 1.0, (0.0, 0.0, 1.0)),
     "key axis: need 1, 2 or 3, got 0"),
    (lambda: fractalspin.Biquaternion.from_matrix(np.eye(3)),
     r"key m: need a 2x2 matrix, got shape \(3, 3\)"),
])
def test_argument_refusals_are_config_errors(call, message):
    with pytest.raises(fractalspin.ConfigError, match=message):
        call()
