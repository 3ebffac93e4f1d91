"""Biquaternion arithmetic.

A biquaternion is a quaternion whose four coefficients are complex numbers:

    psi = a0 + a1*e1 + a2*e2 + a3*e3,    a_k = phi_k + i*chi_k

with the usual Hamilton table e1*e2 = e3 (cyclic), e_k**2 = -1, and a scalar
imaginary unit i that commutes with all three e_k.  The ring has zero
divisors (e.g. 1 + i*e1), so inversion can legitimately fail; see
:class:`~fractalspin.errors.ZeroDivisor`.

The 2x2 matrix bridge maps e_k to -i*sigma_k, where sigma_k are the Pauli
matrices; it is a ring isomorphism onto the full complex 2x2 matrix algebra.
"""

from __future__ import annotations

import cmath
import math
import numbers
import operator

import numpy as np

from .errors import ConfigError, NumericalError, ZeroDivisor, finite

#: Inversion refuses an element whose |N| is at most this fraction of
#: sum_k |a_k|^2, the bound on |N|.
ZERO_DIVISOR_EPS = 1e-12

# Pauli matrices, indexed 1..3 in the usual way.
SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULI = (SIGMA1, SIGMA2, SIGMA3)

_IDENT2 = np.eye(2, dtype=complex)

# Built-in scalar types a biquaternion is scaled by without the ABC test.
_SCALARS = (complex, float, int)


def _hamilton(a, b):
    """Hamilton product of two coefficient 4-sequences (works for real or
    complex coefficients; the scalar i of a biquaternion commutes, so the
    same table applies)."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (
        a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
        a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
        a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
        a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
    )


class Biquaternion:
    """Complexified quaternion a0 + a1*e1 + a2*e2 + a3*e3 with read-only
    Python complex coefficients; scalars are any numbers.Complex."""

    __slots__ = ("_c",)

    def __init__(self, a0=0.0, a1=0.0, a2=0.0, a3=0.0):
        self._c = (complex(a0), complex(a1), complex(a2), complex(a3))

    @classmethod
    def _new(cls, coeffs) -> "Biquaternion":
        out = object.__new__(cls)
        out._c = tuple(coeffs)
        return out

    @classmethod
    def from_array(cls, a) -> "Biquaternion":
        """From four coefficients, NaN and inf taken as Biquaternion(...)
        takes them; raises ConfigError for any other count."""
        a = np.asarray(a, dtype=complex).reshape(-1)
        if a.size != 4:
            raise ConfigError(f"key a: need four numbers, got {a.size}")
        return cls._new(a.tolist())

    @property
    def a(self) -> np.ndarray:
        """Complex coefficient vector (a0, a1, a2, a3), a fresh array."""
        return np.array(self._c, dtype=complex)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(map(repr, self._c))})"

    def __eq__(self, other):
        # element-wise IEEE: a NaN element is never equal, -0.0 == 0.0
        if not isinstance(other, Biquaternion):
            return NotImplemented
        return all(map(operator.eq, self._c, other._c))

    def __hash__(self):
        # hash(-0.0) == hash(0.0), as __eq__ requires
        return hash(self._c)

    # -- ring operations ------------------------------------------------

    def _combine(self, other, op):
        """self op other coefficient-wise; a scalar acts on a0 alone."""
        if isinstance(other, Biquaternion):
            return self._new(map(op, self._c, other._c))
        if isinstance(other, numbers.Complex):
            a0, *rest = self._c
            return self._new((op(a0, complex(other)), *rest))
        return NotImplemented

    def _scale(self, other, op):
        """Each coefficient op a scalar other."""
        if type(other) not in _SCALARS and not isinstance(other,
                                                          numbers.Complex):
            return NotImplemented
        s = complex(other)
        a0, a1, a2, a3 = self._c
        out = object.__new__(type(self))
        out._c = (op(a0, s), op(a1, s), op(a2, s), op(a3, s))
        return out

    def __add__(self, other):
        cls = type(self)
        if type(other) is cls:  # fast path: two biquaternions
            a0, a1, a2, a3 = self._c
            b0, b1, b2, b3 = other._c
            out = object.__new__(cls)
            out._c = (a0 + b0, a1 + b1, a2 + b2, a3 + b3)
            return out
        return self._combine(other, operator.add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, operator.sub)

    def __rsub__(self, other):
        return (-self)._combine(other, operator.add)

    def __neg__(self):
        return self._new([-a for a in self._c])

    def __mul__(self, other):
        cls = type(self)
        kind = type(other)
        if kind is cls:  # fast path: two biquaternions
            out = object.__new__(cls)
            out._c = _hamilton(self._c, other._c)
            return out
        if kind in _SCALARS:  # fast path: _scale by a built-in scalar
            s = complex(other)
            a0, a1, a2, a3 = self._c
            out = object.__new__(cls)
            out._c = (a0 * s, a1 * s, a2 * s, a3 * s)
            return out
        return self._scale(other, operator.mul)

    def __rmul__(self, other):
        # biquaternions are multiplied by their own __mul__; scalars commute
        return self._scale(other, operator.mul)

    def __truediv__(self, other):
        return self._scale(other, operator.truediv)

    def conjugate(self) -> "Biquaternion":
        """Conjugate: negates the e1, e2, e3 parts and leaves the scalar i
        alone."""
        a0, a1, a2, a3 = self._c
        return self._new((a0, -a1, -a2, -a3))

    def complex_norm(self) -> complex:
        """N = self * conj(self) = a0^2 + a1^2 + a2^2 + a3^2, a complex
        scalar, not a positive real; it vanishes exactly on the zero
        divisors of the ring.  Summed left to right from 0."""
        a0, a1, a2, a3 = self._c
        return 0 + a0 * a0 + a1 * a1 + a2 * a2 + a3 * a3

    def eight_square_norm(self) -> float:
        """sum_k |a_k|^2: the sum of squares of all eight real components,
        the four real parts and then the four imaginary parts, each sum
        left to right from 0."""
        a0, a1, a2, a3 = self._c
        real = (0 + a0.real * a0.real + a1.real * a1.real
                + a2.real * a2.real + a3.real * a3.real)
        imag = (0 + a0.imag * a0.imag + a1.imag * a1.imag
                + a2.imag * a2.imag + a3.imag * a3.imag)
        return real + imag

    def inverse(self) -> "Biquaternion":
        """conj / N.  Raises ZeroDivisor where N vanishes relative to the
        size of the element (see ZERO_DIVISOR_EPS), NumericalError where a
        coefficient or the inverse is not finite.  An element whose N, |N|
        or size overflows or underflows is inverted as (self / s)^-1 / s,
        s its largest real component."""
        n = self.complex_norm()
        size = self.eight_square_norm()
        try:
            modulus = abs(n)
        except OverflowError:  # |N| overflows though the parts of N do not
            modulus = math.inf
        if not modulus > ZERO_DIVISOR_EPS * size:
            if not all(map(cmath.isfinite, self._c)):
                raise NumericalError("Biquaternion is not finite: "
                                     f"sum |a_k|^2 = {size}")
            s = max(max(abs(a.real), abs(a.imag)) for a in self._c)
            if s not in (0.0, 1.0):  # 1.0: already rescaled
                out = (self / s).inverse() / s
                if not all(map(cmath.isfinite, out._c)):
                    raise NumericalError(f"the inverse of {self!r} overflows")
                return out
            raise ZeroDivisor(
                "Biquaternion is a (near-)zero divisor: "
                f"|N| = {modulus:.3e}, sum |a_k|^2 = {size:.3e}")
        a0, a1, a2, a3 = self._c
        return self._new((a0 / n, -a1 / n, -a2 / n, -a3 / n))

    def allclose(self, other: "Biquaternion", atol: float = 1e-12,
                 rtol: float = 0.0) -> bool:
        return bool(np.allclose(self._c, other._c, atol=atol, rtol=rtol))

    def max_abs(self) -> float:
        return float(np.max(np.abs(self._c)))

    # -- matrix bridge ----------------------------------------------------

    def to_matrix(self) -> np.ndarray:
        """2x2 complex matrix under e_k -> -i*sigma_k."""
        a0, a1, a2, a3 = self._c
        return np.array([[a0 - 1j * a3, -1j * a1 - a2],
                         [-1j * a1 + a2, a0 + 1j * a3]])

    @classmethod
    def from_matrix(cls, m) -> "Biquaternion":
        m = np.asarray(m, dtype=complex)
        if m.shape != (2, 2):
            raise ConfigError(
                f"key m: need a 2x2 matrix, got shape {m.shape}")
        a0 = (m[0, 0] + m[1, 1]) / 2
        a1 = 1j * (m[0, 1] + m[1, 0]) / 2
        a2 = (m[1, 0] - m[0, 1]) / 2
        a3 = 1j * (m[0, 0] - m[1, 1]) / 2
        return cls(a0, a1, a2, a3)


# Handy basis constants.
ONE = Biquaternion(1.0)
E1 = Biquaternion(0.0, 1.0)
E2 = Biquaternion(0.0, 0.0, 1.0)
E3 = Biquaternion(0.0, 0.0, 0.0, 1.0)


def sigma_dot(v) -> np.ndarray:
    """sigma . v for a 3-vector with real or complex entries."""
    v = finite("key v", v, 3, dtype=complex)
    return v[0] * SIGMA1 + v[1] * SIGMA2 + v[2] * SIGMA3


def pauli_identity_residual(a, b) -> float:
    """Max-abs residual of (sigma.a)(sigma.b) - (a.b) I - i sigma.(a x b).

    Exact (to rounding) for arbitrary complex 3-vectors a, b; the dot and
    cross products are bilinear, without conjugation.
    """
    a, b = finite("key a", a, 3, dtype=complex), \
        finite("key b", b, 3, dtype=complex)
    lhs = sigma_dot(a) @ sigma_dot(b)
    rhs = np.dot(a, b) * _IDENT2 + 1j * sigma_dot(np.cross(a, b))
    return float(np.max(np.abs(lhs - rhs)))
