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

Each term's constant wave vector (-E, p_x, p_y, p_z) / hbar is fixed when
the field is built; only the azimuthal part of the phase gradient is
evaluated per point, and the phase factor comes from cmath.exp.

Sign conventions implied by the phase above: the momentum operator is
p_hat = +i hbar grad and the energy operator is E_hat = -i hbar d/dt, i.e.
a single term satisfies d_t psi = +(i/hbar) E psi and
d_k psi = -(i/hbar) p_k psi (for sigma = 0).
"""

from __future__ import annotations

import cmath
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
    s0 is not a finite number > 0, and, naming the term and key, when a
    term's amplitude is not a Biquaternion or its p, energy, sigma or an
    amplitude coefficient is not finite.  value and partial raise
    ConfigError, naming the point, where a coordinate is not finite.
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
        hbar = self.hbar
        flat = []
        for i, t in enumerate(self.terms):
            if not isinstance(t.amplitude, Biquaternion):
                raise ConfigError(f"term {i} amplitude: need a Biquaternion, "
                                  f"got {t.amplitude!r}")
            for key, value, parts in (
                    ("p", t.p, t.p), ("energy", t.energy, (t.energy,)),
                    ("sigma", t.sigma, (t.sigma,)),
                    ("amplitude", t.amplitude, t.amplitude.a)):
                if not all(map(cmath.isfinite, parts)):
                    raise ConfigError(f"term {i} {key}: need finite numbers, "
                                      f"got {value!r}")
            px, py, pz = t.p
            wave = (-t.energy / hbar, px / hbar, py / hbar, pz / hbar)
            flat.append((t.amplitude, px, py, pz, t.energy, t.sigma, wave))
        # (amplitude, px, py, pz, energy, sigma, wave vector) per term
        self._flat = tuple(flat)

    # -- evaluation -----------------------------------------------------

    def _phases(self, pt):
        """(amplitude, theta, (d_t, d_x, d_y, d_z) theta) of each term at
        pt; the gradient is the term's wave vector plus, for sigma != 0,
        the azimuthal part.  The azimuth and its gradient (-y, x)/rho^2
        are computed once, at the first spiraling term.  Raises ConfigError
        where a coordinate of pt is not finite."""
        t, x, y, z = map(float, pt)
        if not (math.isfinite(t) and math.isfinite(x) and math.isfinite(y)
                and math.isfinite(z)):
            raise ConfigError(
                f"key point: need finite numbers, got {(t, x, y, z)}")
        hbar = self.hbar
        out = []
        azimuth = None
        for amplitude, px, py, pz, energy, sigma, wave in self._flat:
            theta = (px * x + py * y + pz * z - energy * t) / hbar
            if sigma != 0.0:
                if azimuth is None:
                    rho2 = x * x + y * y
                    if rho2 <= _AXIS_EPS2:
                        raise AxisSingularity(
                            "azimuthal phase is undefined on the z-axis "
                            f"(rho^2 = {rho2:.3e}, sigma = {sigma})")
                    azimuth = math.atan2(y, x), -y / rho2, x / rho2
                phi, gx, gy = azimuth
                theta += sigma * phi / hbar
                w0, w1, w2, w3 = wave
                wave = (w0, w1 + sigma * gx / hbar, w2 + sigma * gy / hbar, w3)
            out.append((amplitude, theta, wave))
        return out

    def value(self, pt) -> Biquaternion:
        return _left_sum([amp * cmath.exp(-1j * theta)
                          for amp, theta, _ in self._phases(pt)])

    def partial(self, pt, mu: int) -> Biquaternion:
        """Analytic coordinate derivative d_mu psi, mu in 0..3 = (t,x,y,z)."""
        if mu not in (0, 1, 2, 3):
            raise ValueError(f"mu must be 0..3, got {mu}")
        return _left_sum([amp * (-1j * grad[mu] * cmath.exp(-1j * theta))
                          for amp, theta, grad in self._phases(pt)])

    # -- derived fields, of the same class as self -----------------------

    def remove_rest_phase(self) -> "SpinorField":
        """Multiply by exp(-i m c^2 t / hbar): shifts every term's energy by
        -m c^2 exactly (the factor is a commuting scalar, so this is an
        analytic transformation of the term list, not a numerical one)."""
        shift = self.m * self.c**2
        terms = [t._replace(energy=t.energy - shift) for t in self.terms]
        return type(self)(terms, hbar=self.hbar, m=self.m, c=self.c,
                          s0=self.s0)

    def project_large(self) -> "SpinorField":
        """Keep only the 1 and e1 parts of every amplitude (the subalgebra
        carrying the upper 2-spinor)."""
        terms = [t._replace(amplitude=Biquaternion(*t.amplitude.a[:2]))
                 for t in self.terms]
        return type(self)(terms, hbar=self.hbar, m=self.m, c=self.c,
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
