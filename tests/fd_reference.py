"""The finite-difference reference feed for the velocity routes.

The routes take their derivatives from ``field.partial``; handing them an
FDPartialField makes them differentiate by central difference instead, at
the fixed step FD_H.  Derived fields (``remove_rest_phase``,
``project_large``) keep the class, so the primed field inside
``nonrel_reduce`` is differentiated the same way.
"""

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
