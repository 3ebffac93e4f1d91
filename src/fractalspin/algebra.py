"""Quaternion and biquaternion arithmetic.

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

import math
import numbers
import operator
from typing import NamedTuple

import numpy as np

from .errors import NumericalError, ZeroDivisor

#: Inversion refuses an element whose |N| is at most this fraction of
#: sum_k |a_k|^2, the bound on |N|; a real quaternion only when it is zero.
ZERO_DIVISOR_EPS = 1e-12

# Pauli matrices, indexed 1..3 in the usual way.
SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULI = (SIGMA1, SIGMA2, SIGMA3)

_IDENT2 = np.eye(2, dtype=complex)


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


class _Ring:
    """The ring shared by real quaternions and biquaternions: four
    coefficients a0..a3, a tuple of Python floats or complex numbers, and
    the ring operations on them.  Subclasses name the scalars they may be
    scaled by (``_scalar``, whose exact built-in types ``_exact`` skip the
    ABC test) and how a scalar is stored (``_cast``); an operation mixing
    a Quaternion with a Biquaternion gives a Biquaternion."""

    __slots__ = ("_c",)

    @classmethod
    def _new(cls, coeffs) -> "_Ring":
        out = object.__new__(cls)
        out._c = tuple(coeffs)
        return out

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(map(repr, self._c))})"

    def _promote(self, other: "_Ring"):
        """The class of self op other, and both coefficient tuples in it."""
        if type(other) is type(self):
            return type(self), self._c, other._c
        return (Biquaternion, tuple(map(complex, self._c)),
                tuple(map(complex, other._c)))

    def _combine(self, other, op):
        """self op other coefficient-wise; a scalar acts on a0 alone."""
        if isinstance(other, _Ring):
            cls, a, b = self._promote(other)
            return cls._new(map(op, a, b))
        if isinstance(other, self._scalar):
            a0, *rest = self._c
            return self._new((op(a0, self._cast(other)), *rest))
        return NotImplemented

    def _scale(self, other, op):
        """Each coefficient op a scalar other."""
        if type(other) not in self._exact and not isinstance(other,
                                                             self._scalar):
            return NotImplemented
        s = self._cast(other)
        a0, a1, a2, a3 = self._c
        out = object.__new__(type(self))
        out._c = (op(a0, s), op(a1, s), op(a2, s), op(a3, s))
        return out

    def __add__(self, other):
        cls = type(self)
        if type(other) is cls:  # fast path: same class, no promotion
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
        if kind is cls:  # fast path: same class, no promotion
            out = object.__new__(cls)
            out._c = _hamilton(self._c, other._c)
            return out
        if kind in self._exact:  # fast path: _scale by a built-in scalar
            s = self._cast(other)
            a0, a1, a2, a3 = self._c
            out = object.__new__(cls)
            out._c = (a0 * s, a1 * s, a2 * s, a3 * s)
            return out
        if isinstance(other, _Ring):
            cls, a, b = self._promote(other)
            return cls._new(_hamilton(a, b))
        return self._scale(other, operator.mul)

    def __rmul__(self, other):
        # ring elements are multiplied by their own __mul__; scalars commute
        return self._scale(other, operator.mul)

    def __truediv__(self, other):
        return self._scale(other, operator.truediv)

    def conjugate(self):
        """Quaternion conjugate: negates the e1, e2, e3 parts.  The scalar
        i of a biquaternion is left alone."""
        a0, a1, a2, a3 = self._c
        return self._new((a0, -a1, -a2, -a3))

    def _norm2(self):
        """N = self * conj(self) = a0^2 + a1^2 + a2^2 + a3^2.  For a
        biquaternion a complex scalar, not a positive real; it vanishes
        exactly on the zero divisors of the ring."""
        return sum(a * a for a in self._c)

    def _abs2(self) -> float:
        """sum_k |a_k|^2: the sum of squares of all real components."""
        c = self._c
        return sum(a.real * a.real for a in c) + sum(a.imag * a.imag for a in c)

    def inverse(self):
        """conj / N.  Raises ZeroDivisor where N vanishes relative to the
        size of the element (see ZERO_DIVISOR_EPS), NumericalError where
        that size is not finite."""
        n = self._norm2()
        size = self._abs2()
        if not abs(n) > ZERO_DIVISOR_EPS * size:
            if not math.isfinite(size):
                raise NumericalError(f"{type(self).__name__} is not finite: "
                                     f"sum |a_k|^2 = {size}")
            raise ZeroDivisor(
                f"{type(self).__name__} is a (near-)zero divisor: "
                f"|N| = {abs(n):.3e}, sum |a_k|^2 = {size:.3e}")
        return self.conjugate() / n


class Quaternion(_Ring):
    """Real quaternion w + x*e1 + y*e2 + z*e3 with read-only coefficients."""

    __slots__ = ()
    _scalar, _exact, _cast = numbers.Real, (float, int), float

    def __init__(self, w: float, x: float = 0.0, y: float = 0.0, z: float = 0.0):
        self._c = (float(w), float(x), float(y), float(z))

    w = property(lambda self: self._c[0])
    x = property(lambda self: self._c[1])
    y = property(lambda self: self._c[2])
    z = property(lambda self: self._c[3])
    coeffs = property(lambda self: self._c)

    def norm(self) -> float:
        """Euclidean norm; multiplicative, norm(p*q) = norm(p)*norm(q)."""
        return math.sqrt(self._norm2())

    def to_biquaternion(self) -> "Biquaternion":
        return Biquaternion(*self._c)


class Biquaternion(_Ring):
    """Complexified quaternion; coefficients a0..a3 are Python complex.

    The eight real components are ordered (phi0, chi0, phi1, chi1, phi2,
    chi2, phi3, chi3) with a_k = phi_k + i*chi_k whenever a flat real view
    is exchanged (see :meth:`components` / :meth:`from_components`).
    """

    __slots__ = ()
    _scalar, _exact, _cast = numbers.Complex, (complex, float, int), complex

    def __init__(self, a0=0.0, a1=0.0, a2=0.0, a3=0.0):
        self._c = (complex(a0), complex(a1), complex(a2), complex(a3))

    @classmethod
    def from_array(cls, a) -> "Biquaternion":
        return cls._new(np.asarray(a, dtype=complex).reshape(4).tolist())

    @classmethod
    def from_components(cls, comps) -> "Biquaternion":
        """Build from the eight interleaved real components
        (phi0, chi0, phi1, chi1, phi2, chi2, phi3, chi3)."""
        c = np.asarray(comps, dtype=float).reshape(8)
        return cls.from_array(c[0::2] + 1j * c[1::2])

    # -- views, each a fresh array -------------------------------------

    @property
    def a(self) -> np.ndarray:
        """Complex coefficient vector (a0, a1, a2, a3)."""
        return np.array(self._c, dtype=complex)

    @property
    def components(self) -> np.ndarray:
        """Interleaved real components (phi0, chi0, ..., phi3, chi3)."""
        return np.array([p for a in self._c for p in (a.real, a.imag)])

    phi = property(lambda self: np.array([a.real for a in self._c]))
    chi = property(lambda self: np.array([a.imag for a in self._c]))

    def __eq__(self, other):
        # element-wise IEEE: a NaN element is never equal, -0.0 == 0.0
        if not isinstance(other, Biquaternion):
            return NotImplemented
        return all(map(operator.eq, self._c, other._c))

    def __hash__(self):
        # hash(-0.0) == hash(0.0), as __eq__ requires
        return hash(self._c)

    complex_norm = _Ring._norm2
    eight_square_norm = _Ring._abs2

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
            raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
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


def q_mul(p, q):
    """Hamilton product; accepts Quaternion or Biquaternion arguments."""
    return p * q


def q_conj(q):
    return q.conjugate()


def q_inverse(q):
    return q.inverse()


class SymplecticPair(NamedTuple):
    alpha: complex
    beta: complex


def symplectic_split(q) -> SymplecticPair:
    """Split a quaternion into its symplectic complex pair

        alpha = c0 + i*c1,   beta = c2 - i*c3

    where (c0..c3) are the coefficients of q, so that q = alpha + e2*beta
    holds for real quaternions (with i realized as e1 acting from the
    right).  For a real quaternion this is a bijection onto C^2 and
    :func:`symplectic_join` inverts it exactly.  For a biquaternion
    (complex coefficients) it is the projection onto the upper/lower
    2-spinor scalars and discards half the real dimensions.
    """
    if not isinstance(q, _Ring):
        raise TypeError(f"expected Quaternion or Biquaternion, got {type(q)!r}")
    c0, c1, c2, c3 = q._c
    return SymplecticPair(complex(c0 + 1j * c1), complex(c2 - 1j * c3))


def symplectic_join(pair) -> Quaternion:
    """Inverse of :func:`symplectic_split` on real quaternions."""
    alpha, beta = pair
    return Quaternion(alpha.real, alpha.imag, beta.real, -beta.imag)


def sigma_dot(v) -> np.ndarray:
    """sigma . v for a 3-vector with real or complex entries."""
    v = np.asarray(v, dtype=complex).reshape(3)
    return v[0] * SIGMA1 + v[1] * SIGMA2 + v[2] * SIGMA3


def pauli_identity_residual(a, b) -> float:
    """Max-abs residual of (sigma.a)(sigma.b) - (a.b) I - i sigma.(a x b).

    Exact (to rounding) for arbitrary complex 3-vectors a, b; the dot and
    cross products are bilinear, without conjugation.
    """
    a = np.asarray(a, dtype=complex).reshape(3)
    b = np.asarray(b, dtype=complex).reshape(3)
    lhs = sigma_dot(a) @ sigma_dot(b)
    rhs = np.dot(a, b) * _IDENT2 + 1j * sigma_dot(np.cross(a, b))
    return float(np.max(np.abs(lhs - rhs)))
