"""Finite-difference reference fields for the cross-checks.

The velocity routes take their derivatives from ``field.partial``; handing
them an FDPartialField makes them differentiate by central difference
instead, at the fixed step FD_H.  Derived fields (``remove_rest_phase``,
``project_large``) keep the class, so the primed field inside
``nonrel_reduce`` is differentiated the same way.

The dynamics operators take theirs from ``field.derivative(pt, orders)``;
NumericField supplies them by nested central differences of any callable,
the reference that ExponentialField's exact derivatives are checked
against.

fd_gradient_witness is the curl of the acceleration field by one central
difference of the whole E vector per axis, at the step FD_H: the oracle
that the exact commutator witness is checked against.
"""

import numpy as np

from fractalspin.dynamics import acceleration_field
from fractalspin.fields import SpinorField, central_difference

FD_H = 1e-4


class FDPartialField(SpinorField):
    """A SpinorField whose partial is the central difference of its value."""

    def partial(self, pt, mu):
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
