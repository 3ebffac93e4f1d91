"""Exception types shared across the package."""


class FractalSpinError(Exception):
    """Base class for all package-specific errors."""


class NumericalError(FractalSpinError):
    """Base class for errors raised by numerical routines at run time."""


class ZeroDivisor(NumericalError):
    """Inversion was attempted on an element whose complex norm is zero, or
    nearly zero relative to the size of the element.

    Biquaternions form a ring with zero divisors, e.g. 1 + i*e1, so a
    vanishing complex norm is a genuine algebraic obstruction and not a
    conditioning problem.
    """


class AxisSingularity(NumericalError):
    """A field or drift was evaluated on (or too close to) its singular axis."""


class SmallComponentsNotSmall(NumericalError):
    """Non-relativistic reduction was requested for a spinor whose lower
    components are not negligible against the upper ones."""


class NotNormalized(NumericalError):
    """An operation required a unit-norm spinor and got something else."""


class GeometryInvalid(FractalSpinError):
    """A curve generator does not chain head-to-tail or is otherwise degenerate."""


class InsufficientData(FractalSpinError):
    """A statistical estimate was requested from too little data to be meaningful."""


class ConfigError(FractalSpinError):
    """A configuration file or option set is malformed.

    The message always names the offending key.
    """
