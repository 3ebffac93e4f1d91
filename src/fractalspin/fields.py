"""Biquaternion-valued spinor fields built from plane-wave terms.

Every term carries a constant biquaternion amplitude and the phase

    theta = (p . r  -  E t  +  sigma * phi_az) / hbar,
    value = amplitude * exp(-i theta),

with phi_az = atan2(y, x).  Derivatives of the phase are branch-free
(d phi/dx = -y/rho^2, d phi/dy = x/rho^2), but the value itself uses the
principal branch of atan2, so for non-integer sigma/hbar the field has a
cut along the negative-x half plane; finite differences that straddle it
see the jump.  On the z-axis the azimuth is undefined and any term with
sigma != 0 raises AxisSingularity.

Sign conventions implied by the phase above: the momentum operator is
p_hat = +i hbar grad and the energy operator is E_hat = -i hbar d/dt, i.e.
a single term satisfies d_t psi = +(i/hbar) E psi and
d_k psi = -(i/hbar) p_k psi (for sigma = 0).
"""

from __future__ import annotations

import functools
import math
import operator
from typing import Iterable, NamedTuple

import numpy as np

from .algebra import Biquaternion
from .errors import AxisSingularity, ConfigError

#: squared cylinder radius below which the azimuth is treated as singular
_AXIS_EPS2 = 1e-24


class SpacetimePoint(NamedTuple):
    t: float
    x: float
    y: float
    z: float


class PlaneWaveTerm(NamedTuple):
    """One plane-wave (optionally spiraling) term of a spinor field."""

    amplitude: Biquaternion
    p: tuple[float, float, float]
    energy: float
    sigma: float = 0.0


def s0_from_diffusion(m: float, diffusion: float) -> float:
    """Spin action scale from the diffusion coefficient, S0 = 2 m D."""
    return 2.0 * m * diffusion


def _left_sum(pieces):
    """pieces[0] + pieces[1] + ... added left to right.  The sum starts
    from the first piece, not from 0, so it works for any type with + and
    keeps a -0.0 that 0 + x would turn into +0.0."""
    return functools.reduce(operator.add, pieces)


def central_difference(fn, pt, mu: int, h: float):
    """(fn(pt + h e_mu) - fn(pt - h e_mu)) / 2h at a float (4,) point; O(h^2).

    fn gets a fresh point for each side and may return anything that
    subtracts and scales: a biquaternion, a complex scalar, an array."""
    up = np.array(pt, dtype=float).reshape(4)
    dn = up.copy()
    up[mu] += h
    dn[mu] -= h
    return (fn(up) - fn(dn)) * (0.5 / h)


class SpinorField:
    """Finite sum of plane-wave terms with shared physical constants.

    Args:
        terms: iterable of PlaneWaveTerm.
        hbar, m, c: physical constants used by phase and velocity scales.
        s0: spin action scale; defaults to hbar (equivalently 2 m D with
            D = hbar / 2m).

    Raises ConfigError, naming the key, when hbar, m, c or the resolved
    s0 is not a finite number > 0.
    """

    def __init__(self, terms: Iterable[PlaneWaveTerm], *, hbar: float = 1.0,
                 m: float = 1.0, c: float = 1.0, s0: float | None = None):
        self.terms = tuple(
            PlaneWaveTerm(t.amplitude,
                          (float(t.p[0]), float(t.p[1]), float(t.p[2])),
                          float(t.energy), float(t.sigma))
            for t in terms)
        if not self.terms:
            raise ValueError("a spinor field needs at least one term")
        self.hbar = float(hbar)
        self.m = float(m)
        self.c = float(c)
        self.s0 = float(s0 if s0 is not None else hbar)
        for key, value in (("hbar", self.hbar), ("m", self.m),
                           ("c", self.c), ("s0", self.s0)):
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(
                    f"key {key}: need a finite number > 0, got {value!r}")

    # -- evaluation -----------------------------------------------------

    def _phase_and_grad(self, term: PlaneWaveTerm, pt):
        """theta and (d_t, d_x, d_y, d_z) theta at pt."""
        t, x, y, z = (float(v) for v in pt)
        px, py, pz = term.p
        theta = (px * x + py * y + pz * z - term.energy * t) / self.hbar
        grad = [-term.energy / self.hbar, px / self.hbar, py / self.hbar,
                pz / self.hbar]
        if term.sigma != 0.0:
            rho2 = x * x + y * y
            if rho2 <= _AXIS_EPS2:
                raise AxisSingularity(
                    "azimuthal phase is undefined on the z-axis "
                    f"(rho^2 = {rho2:.3e}, sigma = {term.sigma})")
            theta += term.sigma * math.atan2(y, x) / self.hbar
            grad[1] += term.sigma * (-y / rho2) / self.hbar
            grad[2] += term.sigma * (x / rho2) / self.hbar
        return theta, grad

    def value(self, pt) -> Biquaternion:
        def piece(term):
            theta, _ = self._phase_and_grad(term, pt)
            return term.amplitude * complex(np.exp(-1j * theta))
        return _left_sum(map(piece, self.terms))

    def partial(self, pt, mu: int) -> Biquaternion:
        """Analytic coordinate derivative d_mu psi, mu in 0..3 = (t,x,y,z)."""
        if mu not in (0, 1, 2, 3):
            raise ValueError(f"mu must be 0..3, got {mu}")

        def piece(term):
            theta, grad = self._phase_and_grad(term, pt)
            return term.amplitude * complex(-1j * grad[mu] * np.exp(-1j * theta))
        return _left_sum(map(piece, self.terms))

    # -- derived fields ---------------------------------------------------

    def remove_rest_phase(self) -> "SpinorField":
        """Multiply by exp(-i m c^2 t / hbar): shifts every term's energy by
        -m c^2 exactly (the factor is a commuting scalar, so this is an
        analytic transformation of the term list, not a numerical one)."""
        shift = self.m * self.c**2
        terms = [t._replace(energy=t.energy - shift) for t in self.terms]
        return SpinorField(terms, hbar=self.hbar, m=self.m, c=self.c,
                           s0=self.s0)

    def project_large(self) -> "SpinorField":
        """Keep only the 1 and e1 parts of every amplitude (the subalgebra
        carrying the upper 2-spinor)."""
        terms = [t._replace(amplitude=Biquaternion(*t.amplitude.a[:2]))
                 for t in self.terms]
        return SpinorField(terms, hbar=self.hbar, m=self.m, c=self.c,
                           s0=self.s0)


def plane_wave(amplitude: Biquaternion, p, energy: float, sigma: float = 0.0,
               **consts) -> SpinorField:
    """Single-term field; see module docstring for the phase convention."""
    return SpinorField([PlaneWaveTerm(amplitude, tuple(p), energy, sigma)],
                       **consts)


def spiral_pair_field(term0: PlaneWaveTerm, term1: PlaneWaveTerm,
                      **consts) -> SpinorField:
    """Two-term superposition with a common linear momentum and a common
    azimuthal quantum sigma.

    The shared p and sigma are what make the velocity field of the
    superposition a rigid spiral (the common phase factors out of
    psi^-1 d psi); mismatched terms raise ValueError.
    """
    if tuple(term0.p) != tuple(term1.p):
        raise ValueError(
            f"spiral pair needs matching momenta, got {term0.p} and {term1.p}")
    if term0.sigma != term1.sigma:
        raise ValueError(
            f"spiral pair needs matching sigma, got {term0.sigma} and {term1.sigma}")
    return SpinorField([term0, term1], **consts)


def bloch_spinor(theta: float, phi: float) -> np.ndarray:
    """Unit 2-spinor pointing along (theta, phi) on the Bloch sphere:
    (cos(theta/2) e^{-i phi/2}, sin(theta/2) e^{+i phi/2})."""
    return np.array([
        math.cos(theta / 2) * np.exp(-0.5j * phi),
        math.sin(theta / 2) * np.exp(+0.5j * phi),
    ])


def amplitude_from_spinor(spinor) -> Biquaternion:
    """Biquaternion amplitude whose upper 2-spinor is the given pair: the
    column components map to coefficients (a0, a1) = (s0, s1)."""
    s = np.asarray(spinor, dtype=complex).reshape(2)
    return Biquaternion(s[0], s[1])
