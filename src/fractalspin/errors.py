"""Exception types shared across the package, and finite and whole: the
one rule, in one wording, by which every entry point refuses a number."""

import numbers

import numpy as np


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
    """A configuration file, option set or argument is malformed.

    The message always names the offending key; finite and whole below
    word every refusal of a number.
    """


_WORDS = "zero one two three four five six seven eight nine".split()


def _numbers(value, kinds: str = "iuf"):
    """np.asarray(value) if every entry is a number of the numpy kinds, else
    None: never a string, None, ragged nesting or a bool (which numpy takes
    as 1 or 0 among numbers)."""
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged nesting
        return None
    if isinstance(value, (list, tuple)) and any(
            isinstance(v, (bool, np.bool_))
            for v in np.asarray(value, dtype=object).flat):
        return None
    return arr if arr.dtype.kind in kinds else None


def finite(label: str, value, size: int | None = None, *, dtype=float,
           positive: bool = False, error: type = ConfigError):
    """value as a Python float (complex where dtype is complex) when size
    is None, else as a flat array of size entries of dtype, of any number
    of entries when size is -1.  Raises error, "{label}: need a finite
    number, got {value!r}" ("need three finite numbers > 0", "need finite
    numbers" and so on), unless every entry is a number by _numbers (a
    complex only where dtype is), none is inf or nan, and each is above 0
    where positive is set; a value with a size is a flat sequence, never
    a scalar nor nested."""
    arr = _numbers(value, "iufc" if np.dtype(dtype).kind == "c" else "iuf")
    ok = arr is not None
    if ok:
        arr = arr.astype(dtype, copy=False)
        ok = (arr.ndim == 0 if size is None
              else arr.ndim == 1 and size in (-1, arr.size)) \
            and np.isfinite(arr).all() and (not positive or (arr > 0).all())
    if not ok:
        count = ("a finite number" if size is None
                 else "finite numbers" if size == -1
                 else f"{_WORDS[size] if size < 10 else size} finite numbers")
        raise error(f"{label}: need {count}{' > 0' * positive}, "
                    f"got {value!r}")
    return arr.item() if size is None else arr


def whole(label: str, value, least: int, *,
          error: type = ConfigError) -> int:
    """value as an int; raises error, "{label}: need a whole number of at
    least {least}, got {value!r}", unless it is an integral number (2.0
    is not, nor is True or False) of at least least."""
    if not (isinstance(value, numbers.Integral)
            and not isinstance(value, bool) and value >= least):
        raise error(f"{label}: need a whole number of at least {least}, "
                    f"got {value!r}")
    return int(value)
