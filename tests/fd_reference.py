"""Finite-difference reference fields for the cross-checks.

The velocity routes take their derivatives from one
``field.partial(pt, (0, 1, 2, 3))`` call; handing them an FDPartialField
makes them differentiate by central difference instead, at the fixed step
FD_H, one axis at a time.  Derived fields (``remove_rest_phase``,
``project_large``) keep the class, so the primed field inside
``nonrel_reduce`` is differentiated the same way.

The dynamics operators take theirs from ``field.derivative(pt, orders)``;
NumericField supplies them by nested central differences of any callable,
the reference that ExponentialField's exact derivatives are checked
against.

fd_gradient_witness is the curl of the acceleration field by one central
difference of the whole E vector per axis, at the step FD_H: the oracle
that the exact commutator witness is checked against.

covariant_derivative assembles the geodesic operator a second way, the
independent route that geodesic_residual is checked against.

central_difference is the one stencil all of these share; the package
itself differentiates only analytically.
"""

import numpy as np

from fractalspin.dynamics import _d, _left_sum, acceleration_field
from fractalspin.fields import SpinorField

FD_H = 1e-4


def central_difference(fn, pt, mu: int, h: float):
    """(fn(pt + h e_mu) - fn(pt - h e_mu)) / 2h at a float (4,) point; O(h^2).

    fn gets a fresh point for each side and may return anything that
    subtracts and scales: a biquaternion, a complex scalar, an array."""
    up = np.array(pt, dtype=float).reshape(4)
    dn = up.copy()
    up[mu] += h
    dn[mu] -= h
    return (fn(up) - fn(dn)) * (0.5 / h)


class FDPartialField(SpinorField):
    """A SpinorField whose partial is the central difference of its value.

    The tuple call partial(pt, (0, 1, 2, 3)), which the velocity routes
    make, gives the four per-mu central differences; without it that call
    would reach SpinorField's analytic derivatives."""

    def partial(self, pt, mu):
        if isinstance(mu, tuple):
            return tuple(self.partial(pt, k) for k in mu)
        return central_difference(self.value, pt, mu, FD_H)


def fd_field(field: SpinorField) -> FDPartialField:
    """The same terms and constants as field, differentiated by FD."""
    return FDPartialField(field.terms, hbar=field.hbar, m=field.m, c=field.c,
                          s0=field.s0)


class NumericField:
    """Wrap a plain callable pt -> value; derivatives by nested central
    differences (exact for low-order polynomials, O(h^2) otherwise)."""

    def __init__(self, fn, h: float = 1e-3):
        self.fn = fn
        self.h = float(h)

    def value(self, pt):
        return self.fn(np.asarray(pt, dtype=float).reshape(4))

    def derivative(self, pt, orders):
        total = int(sum(orders))
        if total == 0:
            return self.value(pt)
        mu = next(i for i, n in enumerate(orders) if n)
        rest = list(orders)
        rest[mu] -= 1
        rest = tuple(rest)
        return central_difference(lambda q: self.derivative(q, rest), pt,
                                  mu, self.h)


def fd_gradient_witness(field, diffusion, points, h=FD_H):
    """Max over the points and the pairs j < k of |d_j E_k - d_k E_j|,
    each derivative a central difference of acceleration_field at step h;
    O(h^2) off the exact curl."""
    def e_vec(q):
        return np.array(acceleration_field(field, diffusion, q), dtype=object)

    worst = 0.0
    for pt in points:
        grad = [central_difference(e_vec, pt, j, h) for j in (1, 2, 3)]
        for j, k in ((1, 2), (1, 3), (2, 3)):
            worst = max(worst, (grad[j - 1][k - 1]
                                - grad[k - 1][j - 1]).max_abs())
    return worst


def covariant_derivative(velocity, diffusion, f, pt):
    """(d_t + V . grad + i D laplacian) f at pt, the covariant derivative
    in the sign convention of fractalspin.fields.

    velocity is a callable pt -> 3 components (scalars or biquaternions);
    each component left-multiplies the corresponding spatial derivative
    of f.
    """
    v = velocity(pt)
    out = _left_sum([_d(f, pt, 0)]
                    + [v[k - 1] * _d(f, pt, k) for k in (1, 2, 3)])
    lap = _left_sum(_d(f, pt, k, k) for k in (1, 2, 3))
    return out + lap * (1j * diffusion)
