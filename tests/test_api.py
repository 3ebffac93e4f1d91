"""The public names of the fractalspin package, pinned.

Adding or removing a name shows up here as a test diff; record it in
CHANGES.md with the reason.
"""

import inspect

import fractalspin

PUBLIC = [
    "AxisSingularity", "Biquaternion", "ConfigError", "DimensionEstimate",
    "E1", "E2", "E3", "EMField", "EnsembleResult", "ExponentialField",
    "FractalSpinError", "GeneratorSpec", "GeometryInvalid",
    "InsufficientData", "NotNormalized", "NumericalError", "ONE",
    "PlaneWaveTerm", "Quaternion", "ReducedVelocity", "ScalingResult",
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
