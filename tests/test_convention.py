"""The package's one sign convention, held across its layers.

The convention is stated once, in the fractalspin.fields module
docstring: waves exp(-i (p.r - E t) / hbar), p_hat = +i hbar grad,
E_hat = -i hbar d_t, coupling p_hat - (e/c) A, D = hbar/2m > 0 and the
g = 2 of the Dirac rows.  One two-term plane-wave sum, built once in that
phase, is read by the geodesic residual, the Pauli residual and the
velocity route; and the upper rows of the Dirac residual reduce exactly
to the Pauli residual at g = 2, not at g = -2.
"""

import numpy as np

from fractalspin import (Biquaternion, EMField, ExponentialField,
                         PlaneWaveTerm, SpinorField, bq_velocity,
                         dirac_residual, geodesic_residual, pauli_residual,
                         sample_box, small_component, uniform_b_field)
from fractalspin.algebra import PAULI

HBAR, M, CHARGE, B0 = 0.7, 1.3, 0.9, 0.8
#: every bound below is a multiple of EPS times the size of what cancels;
#: measured at most 0.3 (twins), 11 (geodesic), 0.8 (Pauli), 4.3
#: (velocity) and 1.4 (Dirac rows) times EPS
EPS = np.finfo(float).eps


def _on_shell(amplitude, p):
    p = np.array(p)
    return PlaneWaveTerm(amplitude, tuple(p), float(p @ p) / (2 * M))


#: two free waves, E = p^2/2m, of different |p|: a single wave, or two of
#: one energy, would leave (d_t + iD lap) psi = C psi at either sign of D
TERMS = [_on_shell(Biquaternion(0.8, 0.3j, -0.2, 0.1j), (0.4, -0.3, 0.9)),
         _on_shell(Biquaternion(-0.1j, 0.5, 0.2j, 0.6), (-0.7, 0.2, 0.1))]


def _k4(term):
    """The term's phase as an ExponentialField wave vector (i/hbar)(E, -p)."""
    return (1j / HBAR) * np.array([term.energy, *(-np.array(term.p))])


class _Lifted:
    """psi = exp(i m c^2 t / hbar) (phi, chi), chi = small_component(phi),
    in uniform_b_field(B0), with the first derivatives dirac_residual reads.
    d_mu chi is small_component of the field d_mu phi plus the term of the
    constant d_mu A of the symmetric gauge A = (-B0 y/2, B0 x/2, 0)."""

    D_A = {1: (0.0, B0 / 2, 0.0), 2: (-B0 / 2, 0.0, 0.0)}

    def __init__(self, phi, c):
        self.phi, self.c = phi, c
        self.em = uniform_b_field(B0)

    def rest(self, pt):
        return np.exp(1j * M * self.c**2 * pt[0] / HBAR)

    def _pair(self, field, pt):
        return np.concatenate([field.value(pt), small_component(
            field, self.em, pt, m=M, c=self.c, hbar=HBAR, charge=CHARGE)])

    def value(self, pt):
        return self.rest(pt) * self._pair(self.phi, pt)

    def derivative(self, pt, orders):
        mu = orders.index(1)  # dirac_residual reads first orders only
        d_phi = ExponentialField([(a * k[mu], k) for a, k in self.phi.terms])
        out = self._pair(d_phi, pt)
        phi = self.phi.value(pt)
        out[2:] -= sum(da * (PAULI[k] @ phi) for k, da in
                       enumerate(self.D_A.get(mu, (0.0,) * 3))) \
            * (CHARGE / self.c) / (2 * M * self.c)
        if mu == 0:
            out += (1j * M * self.c**2 / HBAR) * self._pair(self.phi, pt)
        return self.rest(pt) * out


def _alone(term):
    return SpinorField([term], hbar=HBAR, m=M)


def _parts(field, pt):
    """The value of each of field's terms alone at pt."""
    return [_alone(t).value(pt) for t in field.terms]


def test_one_convention_across_the_layers():
    spinor = SpinorField(TERMS, hbar=HBAR, m=M)
    bq = ExponentialField([(t.amplitude, _k4(t)) for t in TERMS])
    upper = ExponentialField([(t.amplitude.a[:2], _k4(t)) for t in TERMS])
    d = HBAR / (2 * M)
    for pt in sample_box(((-1, 1),) * 4, 4, seed=11):
        # the twins are one field
        psi = spinor.value(pt)
        assert (psi - bq.value(pt)).max_abs() <= 8 * EPS * psi.max_abs()

        # geodesic: at D = +hbar/2m the diffusion term cancels d_t G_k to
        # rounding; at -hbar/2m it doubles it
        dt_g = max(r.max_abs() for r in geodesic_residual(bq, 0.0, pt))
        plus = max(r.max_abs() for r in geodesic_residual(bq, d, pt))
        minus = max(r.max_abs() for r in geodesic_residual(bq, -d, pt))
        assert plus <= 64 * EPS * dt_g
        assert minus > dt_g

        # Pauli: the free equation holds at E = p^2/2m
        e_phi = HBAR * np.max(np.abs(upper.derivative(pt, (1, 0, 0, 0))))
        r = pauli_residual(upper, EMField(), pt, m=M, hbar=HBAR)
        assert np.max(np.abs(r)) <= 16 * EPS * e_phi

        # velocity: psi V^k = sum_i psi_i p_ik/m, which is p/m for one term
        scale = max(q.max_abs() * np.abs(t.p).max() / M
                    for q, t in zip(_parts(spinor, pt), TERMS))
        for field in [spinor, *map(_alone, TERMS)]:
            value, v = field.value(pt), bq_velocity(field, pt)
            for k in range(3):
                expect = sum(q.a * (t.p[k] / M)
                             for q, t in zip(_parts(field, pt), field.terms))
                assert np.max(np.abs((value * v[k + 1]).a - expect)) \
                    <= 16 * EPS * scale

    # the Dirac rows: c times the upper rows of the lifted field are the
    # Pauli residual at g = 2, times the rest phase, for any phi
    rng = np.random.default_rng(23)
    phi = ExponentialField([
        (rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2),
         rng.uniform(-1, 1, 4) + 1j * rng.uniform(-1, 1, 4))
        for _ in range(2)])
    for c in (5.0, 50.0):
        lifted = _Lifted(phi, c)
        for pt in sample_box(((-1, 1),) * 4, 4, seed=13):
            rows = c * dirac_residual(lifted, lifted.em, pt, m=M, c=c,
                                      hbar=HBAR, charge=CHARGE)[:2]
            # (E_hat psi_u)/c - m c psi_u cancels the rest energy, so the
            # rounding scales with m c^2 |phi|
            bound = 16 * EPS * M * c**2 * np.max(np.abs(phi.value(pt)))
            gap = {g: np.max(np.abs(rows - lifted.rest(pt) * pauli_residual(
                phi, lifted.em, pt, m=M, c=c, hbar=HBAR, charge=CHARGE, g=g)))
                for g in (2.0, -2.0)}
            assert gap[2.0] <= bound
            assert gap[-2.0] > 1e6 * bound
