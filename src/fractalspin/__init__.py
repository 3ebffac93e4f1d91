"""Biquaternion spinor fields, velocity extraction, stochastic spiral
trajectories, and fractal helix spin estimates."""

from .algebra import (
    Biquaternion,
    E1,
    E2,
    E3,
    ONE,
    pauli_identity_residual,
    sigma_dot,
)
from .errors import (
    AxisSingularity,
    ConfigError,
    FractalSpinError,
    GeometryInvalid,
    InsufficientData,
    NotNormalized,
    NumericalError,
    SmallComponentsNotSmall,
    ZeroDivisor,
)
from .fields import (
    PlaneWaveTerm,
    SpacetimePoint,
    SpinorField,
    amplitude_from_spinor,
    bloch_spinor,
    plane_wave,
    s0_from_diffusion,
    spiral_pair_field,
)
from .velocity import (
    ReducedVelocity,
    VelocityComponents,
    bq_velocity,
    component_velocities,
    conjugate_velocity,
    nonrel_reduce,
    pauli_recompose,
    recompose_velocity,
)
from .dynamics import (
    EMField,
    ExponentialField,
    acceleration_field,
    dirac_plane_wave,
    dirac_residual,
    geodesic_residual,
    gradient_witness,
    pauli_residual,
    product_field,
    rotor_field,
    sample_box,
    small_component,
    uniform_b_field,
)
from .simulate import (
    EnsembleResult,
    ScalingResult,
    SimConfig,
    Trajectory,
    crossover_lag,
    ensemble_run,
    increment_scaling,
    integrate_deterministic,
    integrate_stochastic,
    lz_series,
    rms_increments,
    spiral_drift,
    spiral_preset,
)
from .hyperhelix import (
    DimensionEstimate,
    GeneratorSpec,
    construction_rulers,
    curve_spin,
    divider_walk,
    flag_unreproduced_reference,
    helical_generator,
    iterate,
    koch_generator,
    line_generator,
    measured_dimension,
    scaling_factor,
    shrink_transverse,
    similarity_dimension,
    spin_kernel,
)

__version__ = "0.1.0"
