"""Velocity-field extraction from biquaternion spinor fields.

Two parallel routes are provided on purpose and kept independent:

* :func:`bq_velocity` uses the true ring inverse,
  V^mu = i (s0/(m c)) psi^-1 D^mu psi, and on unit plane waves returns the
  physical 4-velocity (E/(m c), p/m); :func:`nonrel_reduce` takes the
  Pauli 3-velocity from it.
* :func:`component_velocities` evaluates the eight real component
  velocities as explicit bilinear sums over the interleaved real
  components (phi_k, chi_k), exactly as printed in the source derivation,
  and :func:`recompose_velocity` reassembles them into four biquaternions.
  The reassembly agrees identically with :func:`conjugate_velocity`
  (i (s0/(m c)) conj(psi) D^mu psi); the two routes differ by the complex
  norm factor N(psi), so they coincide whenever N(psi) = 1.

The derivative feed is D^mu = (-d_t, c d_x, c d_y, c d_z): the mostly-plus
raising of ((1/c) d_t, grad) scaled by c so that every returned component
carries velocity units.  With the field convention of
:mod:`fractalspin.fields` (energy operator -i hbar d_t) this is the unique
feed for which plane waves give +p/m spatially and +c for the time
component of a rest field.  Every route reads D^mu from one
field.partial(pt, (0, 1, 2, 3)) call and psi from one field.value call.

The routes work on coefficient 4-tuples rather than on Biquaternion
objects: the raised feed scales the derivative coefficients, the two
biquaternion routes multiply through the ring's one product kernel,
algebra._hamilton, and only the results are built as Biquaternions.  Every
operation is the one the Biquaternion operators perform, in their order,
so the results keep their bits, signed zeros included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .algebra import Biquaternion, _hamilton
from .errors import NotNormalized, SmallComponentsNotSmall
from .fields import SpinorField

_SMALL_TOL = 1e-8  # largest lower/upper amplitude ratio nonrel_reduce takes
_NORM_TOL = 1e-8  # largest |N8 - 1| of the primed value nonrel_reduce takes
_CLOSURE_RTOL = 1e-10  # closure error allowed per unit of conjugate velocity
_MINUS_ONE = complex(-1.0)  # the factor of the time derivative in D^0


def _raised_coeffs(field: SpinorField, pt) -> tuple[tuple, ...]:
    """Coefficient 4-tuples of the raised-index derivatives D^mu psi =
    (-d_t, c d_x, c d_y, c d_z) psi, mu = 0..3.

    The four derivatives come from one SpinorField.partial(pt, (0, 1, 2,
    3)) call, which evaluates each term's phase once.  Each coefficient is
    multiplied by complex(-1.0) or complex(c), as a Biquaternion times a
    float multiplies them.  The factors stay complex: from Python 3.14 a
    complex times a float is no longer the complex product, and the signs
    of zeros could differ.
    psi itself stays a separate SpinorField.value call in each route: the
    per-layer benchmark trace (``--trace 1``) counts and times value and
    partial calls, and divides by both counts, so folding psi into the
    derivative call waits until that trace counts a joint evaluation."""
    d0, d1, d2, d3 = field.partial(pt, (0, 1, 2, 3))
    c = complex(field.c)
    a0, a1, a2, a3 = d0._c
    t = (a0 * _MINUS_ONE, a1 * _MINUS_ONE, a2 * _MINUS_ONE, a3 * _MINUS_ONE)
    a0, a1, a2, a3 = d1._c
    x = (a0 * c, a1 * c, a2 * c, a3 * c)
    a0, a1, a2, a3 = d2._c
    y = (a0 * c, a1 * c, a2 * c, a3 * c)
    a0, a1, a2, a3 = d3._c
    return t, x, y, (a0 * c, a1 * c, a2 * c, a3 * c)


def _route(left: Biquaternion, field: SpinorField,
           pt) -> tuple[Biquaternion, ...]:
    """i (s0/(m c)) left D^mu psi for mu = 0..3: the one product behind
    both biquaternion routes, formed on coefficient tuples by the ring's
    product kernel and scaled coefficient by coefficient."""
    scale = 1j * field.s0 / (field.m * field.c)
    a, new = left._c, Biquaternion._new
    out = []
    for d in _raised_coeffs(field, pt):
        p0, p1, p2, p3 = _hamilton(a, d)
        out.append(new((p0 * scale, p1 * scale, p2 * scale, p3 * scale)))
    return tuple(out)


def bq_velocity(field: SpinorField, pt) -> tuple[Biquaternion, ...]:
    """Four velocity biquaternions V^mu = i (s0/(m c)) psi^-1 D^mu psi.

    Raises ZeroDivisor where the field value is not invertible.
    """
    return _route(field.value(pt).inverse(), field, pt)


def conjugate_velocity(field: SpinorField, pt) -> tuple[Biquaternion, ...]:
    """Conjugate-route velocity V^mu = i (s0/(m c)) conj(psi) D^mu psi.

    Equal to N(psi) * bq_velocity(...); needs no inversion, so it is
    defined even at zero divisors.
    """
    return _route(field.value(pt).conjugate(), field, pt)


def _pq_sums(f, x, df, dx):
    """The eight bilinear sector sums over interleaved real components.

    f, x are (phi_0..phi_3), (chi_0..chi_3) of the field value and df, dx
    the same for one raised derivative, as Python floats; returns the tuples
    (P_0..P_3), (Q_0..Q_3).  Spelled out term by term rather than through
    complex products: the literal component route that tests cross-check.
    """
    p0 = (f[0]*dx[0] + x[0]*df[0] + f[1]*dx[1] + x[1]*df[1]
          + f[2]*dx[2] + x[2]*df[2] + f[3]*dx[3] + x[3]*df[3])
    q0 = (f[0]*df[0] - x[0]*dx[0] + f[1]*df[1] - x[1]*dx[1]
          + f[2]*df[2] - x[2]*dx[2] + f[3]*df[3] - x[3]*dx[3])
    p1 = (f[0]*dx[1] + x[0]*df[1] - f[1]*dx[0] - x[1]*df[0]
          - f[2]*dx[3] - x[2]*df[3] + f[3]*dx[2] + x[3]*df[2])
    q1 = (f[0]*df[1] - x[0]*dx[1] - f[1]*df[0] + x[1]*dx[0]
          - f[2]*df[3] + x[2]*dx[3] + f[3]*df[2] - x[3]*dx[2])
    p2 = (f[0]*dx[2] + x[0]*df[2] + f[1]*dx[3] + x[1]*df[3]
          - f[2]*dx[0] - x[2]*df[0] - f[3]*dx[1] - x[3]*df[1])
    q2 = (f[0]*df[2] - x[0]*dx[2] + f[1]*df[3] - x[1]*dx[3]
          - f[2]*df[0] + x[2]*dx[0] - f[3]*df[1] + x[3]*dx[1])
    p3 = (f[0]*dx[3] + x[0]*df[3] - f[1]*dx[2] - x[1]*df[2]
          + f[2]*dx[1] + x[2]*df[1] - f[3]*dx[0] - x[3]*df[0])
    q3 = (f[0]*df[3] - x[0]*dx[3] - f[1]*df[2] + x[1]*dx[2]
          + f[2]*df[1] - x[2]*dx[1] - f[3]*df[0] + x[3]*dx[0])
    return (p0, p1, p2, p3), (q0, q1, q2, q3)


@dataclass
class VelocityComponents:
    """The eight real component velocities, each indexed by mu = 0..3.

    The plain v's sit in the (1, e1) block, the vt's in the (e2, e3)
    block; for a field with no e2/e3 content all four vt arrays vanish.
    """

    v_pp: np.ndarray
    v_pm: np.ndarray
    v_mp: np.ndarray
    v_mm: np.ndarray
    vt_pp: np.ndarray
    vt_pm: np.ndarray
    vt_mp: np.ndarray
    vt_mm: np.ndarray

    def tilde_max_abs(self) -> float:
        return float(max(np.max(np.abs(a)) for a in
                         (self.vt_pp, self.vt_pm, self.vt_mp, self.vt_mm)))

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def component_velocities(field: SpinorField, pt) -> VelocityComponents:
    """Evaluate the eight component velocities at pt.

    Prefactor -s0/(m c) on every (P +- Q) sum, with the same raised
    derivative feed as the biquaternion routes.
    """
    c = field.value(pt)._c
    f, x = [a.real for a in c], [a.imag for a in c]
    scale = -field.s0 / (field.m * field.c)
    sums = [_pq_sums(f, x, [a.real for a in d], [a.imag for a in d])
            for d in _raised_coeffs(field, pt)]
    # sector k by raised index mu
    plus = [[scale * (p[k] + q[k]) for p, q in sums] for k in range(4)]
    minus = [[scale * (p[k] - q[k]) for p, q in sums] for k in range(4)]
    return VelocityComponents(*map(np.array, (
        plus[0], plus[1], minus[1], minus[0],
        plus[2], plus[3], minus[3], minus[2])))


def _pair(a: float, b: float) -> complex:
    """(a + b)/2 - i (a - b)/2 for real a, b, each part spelled out as the
    complex evaluation of 0.5 (a + b) - 0.5j (a - b) forms it, signed zeros
    included: the product 0.5j * d is (0 d - 0.5 * 0) + (0 * 0 + 0.5 d) i."""
    d = a - b
    return complex(0.5 * (a + b) - (0.0 * d - 0.0), 0.0 - (0.0 + 0.5 * d))


def recompose_velocity(comp: VelocityComponents) -> tuple[Biquaternion, ...]:
    """Reassemble four velocity biquaternions from the eight components.

    Sector by sector the combination is
        (a_pp, a_mm) -> (a_pp + a_mm)/2 - i (a_pp - a_mm)/2,
    applied to (v_pp, v_mm) for the scalar part, (v_pm, v_mp) for e1,
    (vt_pp, vt_mm) for e2 and (vt_pm, vt_mp) for e3.
    """
    sectors = [map(_pair, a.tolist(), b.tolist()) for a, b in (
        (comp.v_pp, comp.v_mm), (comp.v_pm, comp.v_mp),
        (comp.vt_pp, comp.vt_mm), (comp.vt_pm, comp.vt_mp))]
    return tuple(map(Biquaternion._new, zip(*sectors)))


def closure(field: SpinorField, pt) -> tuple[VelocityComponents, float, bool]:
    """The component velocities at pt, the largest |recomposed - conjugate|
    coefficient, and whether it is at most 1e-10 x the largest coefficient
    of :func:`conjugate_velocity`."""
    comp = component_velocities(field, pt)
    conj = conjugate_velocity(field, pt)
    error = max((r - v).max_abs()
                for r, v in zip(recompose_velocity(comp), conj))
    return comp, error, error <= _CLOSURE_RTOL * max(v.max_abs() for v in conj)


class ReducedVelocity(NamedTuple):
    """Result of the non-relativistic reduction at a point."""

    v0: complex
    v: tuple[Biquaternion, Biquaternion, Biquaternion]


def nonrel_reduce(field: SpinorField, pt) -> ReducedVelocity:
    """Velocity extraction in the non-relativistic (two-component) regime.

    Checks that the e2/e3 (lower 2-spinor) content at pt is negligible,
    strips the rest-mass phase analytically, checks the remaining field is
    unit-normalized at pt, and returns

        v0 = c * (a0'^2 + a1'^2)        (complex; = c when the primed
                                         components are real and unit)
        v_k = bq_velocity(psi')[k]      (= i (s0/m) psi'^-1 d_k psi', in
                                         the commutative (1, e1) subalgebra)

    Raises:
        SmallComponentsNotSmall: lower/upper amplitude ratio exceeds
            1e-8 at pt, at any amplitude scale (inf where the upper
            amplitude is 0 and the lower is not).
        NotNormalized: the primed value's eight-component square norm is
            not 1 within 1e-8.
    """
    a = field.value(pt).a
    upper = float(np.hypot(abs(a[0]), abs(a[1])))
    lower = float(np.hypot(abs(a[2]), abs(a[3])))
    if lower > _SMALL_TOL * upper:
        ratio = lower / upper if upper else math.inf
        raise SmallComponentsNotSmall(
            f"lower/upper amplitude ratio {ratio:.3e} "
            f"exceeds {_SMALL_TOL:.1e}")

    primed = field.remove_rest_phase().project_large()
    pval = primed.value(pt)
    n8 = pval.eight_square_norm()
    if abs(n8 - 1.0) > _NORM_TOL:
        raise NotNormalized(
            f"eight-component square norm is {n8:.12g}, not 1 "
            f"(tolerance {_NORM_TOL:.1e})")

    pa = pval.a
    v0 = complex(field.c * (pa[0] ** 2 + pa[1] ** 2))
    return ReducedVelocity(v0, _route(pval.inverse(), primed, pt)[1:])


def pauli_recompose(field: SpinorField, pt) -> tuple[Biquaternion, ...]:
    """Spatial velocity from the (1, e1) block of the component route.

    Intended for fields that already live in the (1, e1) subalgebra (for
    example the primed large field inside the non-relativistic reduction);
    it keeps the 1 and e1 coefficients of the spatial biquaternions of
    :func:`recompose_velocity`, so the e2/e3 component velocities are
    ignored.  Agrees identically with the spatial part of
    :func:`conjugate_velocity`, i.e. with N(psi) * bq_velocity spatially.
    """
    rec = recompose_velocity(component_velocities(field, pt))
    return tuple(Biquaternion(*v.a[:2]) for v in rec[1:])
