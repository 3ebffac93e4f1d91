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
carries velocity units.  With the sign convention of
:mod:`fractalspin.fields` this is the unique feed for which plane waves
give +p/m spatially and +c for the time component of a rest field.
Every route reads D^mu from one field.partial(pt, (0, 1, 2, 3)) call and
psi from one field.value call.

The routes work on coefficient 4-tuples rather than on Biquaternion
objects: the raised feed scales the derivative coefficients, the two
biquaternion routes multiply through the ring's one product kernel,
algebra._hamilton, and only the results are built as Biquaternions.  The
component route hands psi's tuple and each raised derivative's tuple to
its one bilinear kernel, _pq_sums, which reads their real and imaginary
parts into floats once; its eight sums per raised index fill the rows of
one (8, 4) array, and recompose_velocity pairs those rows in one loop
that builds the four Biquaternions directly.  Every operation is the one
the Biquaternion operators, or the component sums on float lists, perform,
in their order, so the results keep their bits, signed zeros included.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .algebra import Biquaternion, _hamilton
from .errors import ConfigError, NotNormalized, SmallComponentsNotSmall
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


def _pq_sums(psi, d):
    """The eight bilinear sector sums over interleaved real components.

    psi and d are the coefficient 4-tuples of the field value and of one
    raised derivative; their real and imaginary parts are the components
    (phi_0..phi_3), (chi_0..chi_3) and (dphi_0..dphi_3), (dchi_0..dchi_3),
    read once into floats.  Returns the tuples (P_0..P_3), (Q_0..Q_3).
    Spelled out term by term rather than through complex products: the
    literal component route that tests cross-check.
    """
    a0, a1, a2, a3 = psi
    f0, x0, f1, x1 = a0.real, a0.imag, a1.real, a1.imag
    f2, x2, f3, x3 = a2.real, a2.imag, a3.real, a3.imag
    b0, b1, b2, b3 = d
    df0, dx0, df1, dx1 = b0.real, b0.imag, b1.real, b1.imag
    df2, dx2, df3, dx3 = b2.real, b2.imag, b3.real, b3.imag
    p0 = (f0*dx0 + x0*df0 + f1*dx1 + x1*df1
          + f2*dx2 + x2*df2 + f3*dx3 + x3*df3)
    q0 = (f0*df0 - x0*dx0 + f1*df1 - x1*dx1
          + f2*df2 - x2*dx2 + f3*df3 - x3*dx3)
    p1 = (f0*dx1 + x0*df1 - f1*dx0 - x1*df0
          - f2*dx3 - x2*df3 + f3*dx2 + x3*df2)
    q1 = (f0*df1 - x0*dx1 - f1*df0 + x1*dx0
          - f2*df3 + x2*dx3 + f3*df2 - x3*dx2)
    p2 = (f0*dx2 + x0*df2 + f1*dx3 + x1*df3
          - f2*dx0 - x2*df0 - f3*dx1 - x3*df1)
    q2 = (f0*df2 - x0*dx2 + f1*df3 - x1*dx3
          - f2*df0 + x2*dx0 - f3*df1 + x3*dx1)
    p3 = (f0*dx3 + x0*df3 - f1*dx2 - x1*df2
          + f2*dx1 + x2*df1 - f3*dx0 - x3*df0)
    q3 = (f0*df3 - x0*dx3 - f1*df2 + x1*dx2
          + f2*df1 - x2*dx1 - f3*df0 + x3*dx0)
    return (p0, p1, p2, p3), (q0, q1, q2, q3)


@dataclass
class VelocityComponents:
    """The eight real component velocities, each indexed by mu = 0..3.

    The plain v's sit in the (1, e1) block, the vt's in the (e2, e3)
    block; for a field with no e2/e3 content all four vt arrays vanish.
    From component_velocities the eight arrays are the rows of one (8, 4)
    float array, in field order.
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
    psi = field.value(pt)._c
    scale = -field.s0 / (field.m * field.c)
    rows = v_pp, v_pm, v_mp, v_mm, vt_pp, vt_pm, vt_mp, vt_mm = \
        [], [], [], [], [], [], [], []
    for d in _raised_coeffs(field, pt):  # one entry per row for each mu
        (p0, p1, p2, p3), (q0, q1, q2, q3) = _pq_sums(psi, d)
        v_pp.append(scale * (p0 + q0))
        v_pm.append(scale * (p1 + q1))
        v_mp.append(scale * (p1 - q1))
        v_mm.append(scale * (p0 - q0))
        vt_pp.append(scale * (p2 + q2))
        vt_pm.append(scale * (p3 + q3))
        vt_mp.append(scale * (p3 - q3))
        vt_mm.append(scale * (p2 - q2))
    return VelocityComponents(*np.array(rows))


def _pair(a: float, b: float) -> complex:
    """(a + b)/2 - i (a - b)/2 for real a, b, each part spelled out as the
    complex evaluation of 0.5 (a + b) - 0.5j (a - b) forms it, signed zeros
    included: the product 0.5j * d is (0 d - 0.5 * 0) + (0 * 0 + 0.5 d) i."""
    d = a - b
    return complex(0.5 * (a + b) - (0.0 * d - 0.0), 0.0 - (0.0 + 0.5 * d))


def _refuse_rows(comp: VelocityComponents) -> None:
    """Raise ConfigError naming the first field of comp that is not an
    array of four numbers; return if there is none."""
    for f in fields(comp):
        a = getattr(comp, f.name)
        if not (isinstance(a, np.ndarray) and a.shape == (4,) and all(
                isinstance(v, numbers.Number) for v in a.tolist())):
            raise ConfigError(
                f"key {f.name}: need an array of four numbers, got {a!r}")


def recompose_velocity(comp: VelocityComponents) -> tuple[Biquaternion, ...]:
    """Reassemble four velocity biquaternions from the eight components.

    Sector by sector the combination is
        (a_pp, a_mm) -> (a_pp + a_mm)/2 - i (a_pp - a_mm)/2,
    applied to (v_pp, v_mm) for the scalar part, (v_pm, v_mp) for e1,
    (vt_pp, vt_mm) for e2 and (vt_pm, vt_mp) for e3.  Raises ConfigError,
    naming the field, unless every component is an array of four numbers.
    """
    new = Biquaternion._new
    try:
        rec = tuple([
            new((_pair(s, sm), _pair(e1, e1m), _pair(e2, e2m), _pair(e3, e3m)))
            for s, sm, e1, e1m, e2, e2m, e3, e3m in zip(
                comp.v_pp.tolist(), comp.v_mm.tolist(),
                comp.v_pm.tolist(), comp.v_mp.tolist(),
                comp.vt_pp.tolist(), comp.vt_mm.tolist(),
                comp.vt_pm.tolist(), comp.vt_mp.tolist(), strict=True)])
    except (AttributeError, TypeError, ValueError):
        _refuse_rows(comp)
        raise
    if len(rec) != 4:  # eight rows of one other length
        _refuse_rows(comp)
    return rec


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
