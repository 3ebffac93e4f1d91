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

import numbers
from typing import NamedTuple

import numpy as np

from .errors import ZeroDivisor

#: Inversion refuses elements whose complex norm is smaller than this.
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


class Quaternion:
    """Real quaternion w + x*e1 + y*e2 + z*e3."""

    __slots__ = ("w", "x", "y", "z")

    def __init__(self, w: float, x: float = 0.0, y: float = 0.0, z: float = 0.0):
        self.w = float(w)
        self.x = float(x)
        self.y = float(y)
        self.z = float(z)

    def __repr__(self) -> str:
        return f"Quaternion({self.w!r}, {self.x!r}, {self.y!r}, {self.z!r})"

    @property
    def coeffs(self) -> tuple[float, float, float, float]:
        return (self.w, self.x, self.y, self.z)

    def __add__(self, other: "Quaternion") -> "Quaternion":
        if not isinstance(other, Quaternion):
            return NotImplemented
        return Quaternion(self.w + other.w, self.x + other.x,
                          self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        if not isinstance(other, Quaternion):
            return NotImplemented
        return Quaternion(self.w - other.w, self.x - other.x,
                          self.y - other.y, self.z - other.z)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other):
        if isinstance(other, Quaternion):
            return Quaternion(*_hamilton(self.coeffs, other.coeffs))
        if isinstance(other, Biquaternion):
            return self.to_biquaternion() * other
        if isinstance(other, numbers.Real):
            s = float(other)
            return Quaternion(self.w * s, self.x * s, self.y * s, self.z * s)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, numbers.Real):
            return self * other
        return NotImplemented

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def norm(self) -> float:
        """Euclidean norm; multiplicative, norm(p*q) = norm(p)*norm(q)."""
        return float(np.sqrt(self.w**2 + self.x**2 + self.y**2 + self.z**2))

    def inverse(self) -> "Quaternion":
        n2 = self.w**2 + self.x**2 + self.y**2 + self.z**2
        if n2 < ZERO_DIVISOR_EPS:
            raise ZeroDivisor(f"cannot invert quaternion with norm^2 = {n2:.3e}")
        c = self.conjugate()
        return Quaternion(c.w / n2, c.x / n2, c.y / n2, c.z / n2)

    def to_biquaternion(self) -> "Biquaternion":
        return Biquaternion(self.w, self.x, self.y, self.z)


class Biquaternion:
    """Complexified quaternion; coefficients a0..a3 are python/NumPy complex.

    The eight real components are ordered (phi0, chi0, phi1, chi1, phi2,
    chi2, phi3, chi3) with a_k = phi_k + i*chi_k whenever a flat real view
    is exchanged (see :meth:`components` / :meth:`from_components`).
    """

    __slots__ = ("_a",)

    def __init__(self, a0=0.0, a1=0.0, a2=0.0, a3=0.0):
        self._a = np.array([a0, a1, a2, a3], dtype=complex)

    # -- constructors -------------------------------------------------

    @classmethod
    def from_array(cls, a) -> "Biquaternion":
        out = object.__new__(cls)
        out._a = np.asarray(a, dtype=complex).reshape(4).copy()
        return out

    @classmethod
    def from_components(cls, comps) -> "Biquaternion":
        """Build from the eight interleaved real components
        (phi0, chi0, phi1, chi1, phi2, chi2, phi3, chi3)."""
        c = np.asarray(comps, dtype=float).reshape(8)
        return cls.from_array(c[0::2] + 1j * c[1::2])

    # -- views ---------------------------------------------------------

    @property
    def a(self) -> np.ndarray:
        """Complex coefficient vector (a0, a1, a2, a3), copied."""
        return self._a.copy()

    @property
    def components(self) -> np.ndarray:
        """Interleaved real components (phi0, chi0, ..., phi3, chi3)."""
        out = np.empty(8)
        out[0::2] = self._a.real
        out[1::2] = self._a.imag
        return out

    @property
    def phi(self) -> np.ndarray:
        return self._a.real.copy()

    @property
    def chi(self) -> np.ndarray:
        return self._a.imag.copy()

    def __repr__(self) -> str:
        a = self._a
        return (f"Biquaternion({a[0]!r}, {a[1]!r}, {a[2]!r}, {a[3]!r})")

    # -- ring operations ------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Biquaternion):
            return Biquaternion.from_array(self._a + other._a)
        if isinstance(other, Quaternion):
            return self + other.to_biquaternion()
        if isinstance(other, numbers.Complex):
            b = self._a.copy()
            b[0] += complex(other)
            return Biquaternion.from_array(b)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Biquaternion):
            return Biquaternion.from_array(self._a - other._a)
        if isinstance(other, Quaternion):
            return self - other.to_biquaternion()
        if isinstance(other, numbers.Complex):
            b = self._a.copy()
            b[0] -= complex(other)
            return Biquaternion.from_array(b)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, numbers.Complex):
            return (-self) + complex(other)
        return NotImplemented

    def __neg__(self):
        return Biquaternion.from_array(-self._a)

    def __mul__(self, other):
        if isinstance(other, Biquaternion):
            return Biquaternion.from_array(_hamilton(self._a, other._a))
        if isinstance(other, Quaternion):
            return self * other.to_biquaternion()
        if isinstance(other, numbers.Complex):
            return Biquaternion.from_array(self._a * complex(other))
        return NotImplemented

    def __rmul__(self, other):
        # scalars commute, so only the scalar case lands here
        if isinstance(other, numbers.Complex):
            return Biquaternion.from_array(self._a * complex(other))
        if isinstance(other, Quaternion):
            return other.to_biquaternion() * self
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, numbers.Complex):
            return Biquaternion.from_array(self._a / complex(other))
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, Biquaternion):
            return NotImplemented
        return bool(np.array_equal(self._a, other._a))

    def __hash__(self):
        # + 0.0 turns -0.0 into +0.0, which __eq__ does not tell apart
        return hash((self._a + 0.0).tobytes())

    # -- conjugation, norms, inversion -----------------------------------

    def conjugate(self) -> "Biquaternion":
        """Quaternion conjugate: negates the e1, e2, e3 parts.  The scalar
        i is left alone."""
        a = self._a
        return Biquaternion(a[0], -a[1], -a[2], -a[3])

    def complex_norm(self) -> complex:
        """N(psi) = psi * conj(psi) = a0^2 + a1^2 + a2^2 + a3^2.

        A complex scalar, not a positive real; it vanishes exactly on the
        zero divisors of the ring.
        """
        return complex(np.sum(self._a * self._a))

    def eight_square_norm(self) -> float:
        """Sum of squares of all eight real components."""
        return float(np.sum(self._a.real**2) + np.sum(self._a.imag**2))

    def inverse(self) -> "Biquaternion":
        n = self.complex_norm()
        if abs(n) < ZERO_DIVISOR_EPS:
            raise ZeroDivisor(
                f"biquaternion is a (near-)zero divisor: |N(psi)| = {abs(n):.3e}")
        return Biquaternion.from_array(self.conjugate()._a / n)

    def allclose(self, other: "Biquaternion", atol: float = 1e-12,
                 rtol: float = 0.0) -> bool:
        return bool(np.allclose(self._a, other._a, atol=atol, rtol=rtol))

    def max_abs(self) -> float:
        return float(np.max(np.abs(self._a)))

    # -- matrix bridge ----------------------------------------------------

    def to_matrix(self) -> np.ndarray:
        """2x2 complex matrix under e_k -> -i*sigma_k."""
        a0, a1, a2, a3 = self._a
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


# -- functional aliases used throughout the package ------------------------

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
    if isinstance(q, Quaternion):
        c0, c1, c2, c3 = q.coeffs
    elif isinstance(q, Biquaternion):
        c0, c1, c2, c3 = q.a
    else:
        raise TypeError(f"expected Quaternion or Biquaternion, got {type(q)!r}")
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
