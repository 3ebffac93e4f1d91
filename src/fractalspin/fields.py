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
evaluated per point, and the phase factor comes from cmath.exp.  value and
partial run one loop over the terms that adds amplitude * factor into the
four complex coefficients of the result, term by term, with the same
operations in the same order as the biquaternion products and sums.
partial(pt, (0, 1, 2, 3)) returns all four derivatives from that one loop:
each term's phase is evaluated once and feeds sixteen coefficient sums.  A
one-index call partial(pt, mu) is the mu-th entry of the same tuple.

The phase above is the one sign convention of every layer of the package:
p_hat = +i hbar grad, E_hat = -i hbar d_t, coupling p_hat - (e/c) A, D =
hbar/2m > 0 (the geodesic residual vanishes there on waves of E = p^2/2m)
and the Zeeman term +(g/2)(e hbar/2mc) sigma.B, the Dirac rows giving g = 2.
"""

from __future__ import annotations

import cmath
import math
import numbers
from typing import Iterable, NamedTuple

import numpy as np

from .algebra import Biquaternion
from .errors import (AxisSingularity, ConfigError, NumericalError, _numbers,
                     finite)

#: squared cylinder radius below which the azimuth is treated as singular
_AXIS_EPS2 = 1e-24
#: the start of every coefficient sum: -0.0 + x is x bit for bit, where
#: 0.0 + -0.0 would turn a -0.0 into +0.0
_NEG_ZERO = complex(-0.0, -0.0)
#: the mu that asks partial for all four derivatives at once
_ALL_MU = (0, 1, 2, 3)


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


def _coordinates(pt) -> list:
    """The four coordinates of pt as Python floats, inf and nan included
    (_sum refuses those, naming the point).  errors.finite refuses all but
    four numbers, "key point: need four finite numbers, got ...": three or
    five coordinates, numeric strings, bools and nested lists of four."""
    arr = _numbers(pt)
    if arr is not None and arr.shape == (4,):
        return arr.astype(float).tolist()
    return finite("key point", pt, 4).tolist()


class SpinorField:
    """Finite sum of plane-wave terms with shared physical constants.

    Args:
        terms: iterable of PlaneWaveTerm.
        hbar, m, c: physical constants used by phase and velocity scales.
        s0: spin action scale; defaults to hbar (equivalently 2 m D with
            D = hbar / 2m).

    Raises ConfigError, naming the key, when hbar, m, c or the resolved
    s0 is not a finite number > 0, and, naming the term and key, when a
    term's amplitude is not a Biquaternion, its p is not three finite
    numbers, its energy, sigma or an amplitude coefficient is not finite,
    or its wave vector (-energy, p) / hbar is not.  value and partial
    raise ConfigError, "key point: ...", unless the point is four numbers
    (three or five coordinates or numeric strings are refused with
    errors.finite's wording) and where a coordinate is not finite, and
    NumericalError, naming the term and the point, where a phase theta or
    its gradient is not finite.
    """

    def __init__(self, terms: Iterable[PlaneWaveTerm], *, hbar: float = 1.0,
                 m: float = 1.0, c: float = 1.0, s0: float | None = None):
        self.hbar, self.m, self.c, self.s0 = (
            finite(f"key {key}", value, positive=True) for key, value in
            (("hbar", hbar), ("m", m), ("c", c),
             ("s0", hbar if s0 is None else s0)))
        hbar = self.hbar
        self.terms, flat = [], []
        for i, t in enumerate(terms):
            if not isinstance(t.amplitude, Biquaternion):
                raise ConfigError(f"term {i} amplitude: need a Biquaternion, "
                                  f"got {t.amplitude!r}")
            finite(f"term {i} amplitude", t.amplitude._c, 4, dtype=complex)
            px, py, pz = p = tuple(finite(f"term {i} p", t.p, 3).tolist())
            energy, sigma = (finite(f"term {i} {key}", value) for key, value
                             in (("energy", t.energy), ("sigma", t.sigma)))
            wave = tuple(finite(f"term {i} wave vector (-energy, p) / hbar",
                                (-energy / hbar, px / hbar, py / hbar,
                                 pz / hbar), 4).tolist())
            self.terms.append(PlaneWaveTerm(t.amplitude, p, energy, sigma))
            flat.append((t.amplitude, px, py, pz, energy, sigma, wave))
        if not flat:
            raise ConfigError("key terms: need at least one term, got none")
        self.terms = tuple(self.terms)
        # (amplitude, px, py, pz, energy, sigma, wave vector) per term
        self._flat = tuple(flat)

    # -- evaluation -----------------------------------------------------

    def _sum(self, pt, derivatives):
        """Sum over the terms of amplitude * exp(-i theta) at pt (the value
        psi) when derivatives is false; when it is true, the four sums of
        amplitude * -i (d_mu theta) exp(-i theta), mu = 0..3 (the
        derivatives d_t, d_x, d_y, d_z psi), from one phase per term.  The
        phase gradient is the term's wave vector plus, for sigma != 0, the
        azimuthal part; the azimuth and its gradient (-y, x)/rho^2 are
        computed once, at the first spiraling term.  Each sum runs
        coefficient by coefficient, term by term, from the exact additive
        identity -0.0.  A point of four Python floats is taken as it is,
        any other through _coordinates.  Raises ConfigError where pt is not
        four numbers or a coordinate is not finite, NumericalError where a
        term's theta or phase gradient is not finite."""
        try:
            t, x, y, z = pt
        except (TypeError, ValueError):  # not four items
            floats = False
        else:
            floats = (t.__class__ is float and x.__class__ is float
                      and y.__class__ is float and z.__class__ is float)
        if not floats:
            t, x, y, z = _coordinates(pt)
        if not (math.isfinite(t) and math.isfinite(x) and math.isfinite(y)
                and math.isfinite(z)):
            raise ConfigError(
                f"key point: need finite numbers, got {(t, x, y, z)}")
        hbar = self.hbar
        if derivatives:
            # d<mu><k> sums coefficient k of d_mu psi
            d00 = d01 = d02 = d03 = d10 = d11 = d12 = d13 = _NEG_ZERO
            d20 = d21 = d22 = d23 = d30 = d31 = d32 = d33 = _NEG_ZERO
        else:
            c0 = c1 = c2 = c3 = _NEG_ZERO
        azimuth = None
        for i, (amplitude, px, py, pz, energy, sigma, wave) in \
                enumerate(self._flat):
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
                w1 += sigma * gx / hbar
                w2 += sigma * gy / hbar
                if not (math.isfinite(w1) and math.isfinite(w2)):
                    raise NumericalError(
                        f"term {i} phase gradient: not finite at "
                        f"{(t, x, y, z)}, got {(w0, w1, w2, w3)}")
                wave = (w0, w1, w2, w3)
            if not math.isfinite(theta):
                raise NumericalError(
                    f"term {i} phase: not finite at {(t, x, y, z)}, "
                    f"got {theta}")
            w = cmath.exp(-1j * theta)
            a0, a1, a2, a3 = amplitude._c
            if derivatives:
                w0, w1, w2, w3 = wave
                d = -1j * w0 * w
                d00 += a0 * d
                d01 += a1 * d
                d02 += a2 * d
                d03 += a3 * d
                d = -1j * w1 * w
                d10 += a0 * d
                d11 += a1 * d
                d12 += a2 * d
                d13 += a3 * d
                d = -1j * w2 * w
                d20 += a0 * d
                d21 += a1 * d
                d22 += a2 * d
                d23 += a3 * d
                d = -1j * w3 * w
                d30 += a0 * d
                d31 += a1 * d
                d32 += a2 * d
                d33 += a3 * d
            else:
                c0 += a0 * w
                c1 += a1 * w
                c2 += a2 * w
                c3 += a3 * w
        new = Biquaternion._new
        if derivatives:
            return (new((d00, d01, d02, d03)), new((d10, d11, d12, d13)),
                    new((d20, d21, d22, d23)), new((d30, d31, d32, d33)))
        return new((c0, c1, c2, c3))

    def value(self, pt) -> Biquaternion:
        return self._sum(pt, False)

    def partial(self, pt, mu):
        """Analytic coordinate derivative d_mu psi, mu in 0..3 = (t,x,y,z).

        mu may also be the tuple (0, 1, 2, 3), which returns the four
        derivatives (d_t, d_x, d_y, d_z) psi as a tuple from one phase
        evaluation per term; a one-index call is the mu-th entry of that
        tuple.  Raises ConfigError, "key mu: ...", for any other mu: a
        float, a bool, a list or another tuple among them."""
        if mu.__class__ is tuple:
            if mu == _ALL_MU:
                return self._sum(pt, True)
        elif isinstance(mu, numbers.Integral) and not isinstance(mu, bool) \
                and 0 <= mu <= 3:
            return self._sum(pt, True)[int(mu)]
        raise ConfigError(f"key mu: need 0, 1, 2 or 3, got {mu!r}; "
                          "the tuple (0, 1, 2, 3) asks for all four")

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
    psi^-1 d psi); mismatched terms raise ConfigError naming the key.
    """
    if tuple(term0.p) != tuple(term1.p):
        raise ConfigError("key p: a spiral pair needs matching momenta, "
                          f"got {term0.p} and {term1.p}")
    if term0.sigma != term1.sigma:
        raise ConfigError("key sigma: a spiral pair needs matching sigma, "
                          f"got {term0.sigma} and {term1.sigma}")
    return SpinorField([term0, term1], **consts)


def bloch_spinor(theta: float, phi: float) -> np.ndarray:
    """Unit 2-spinor pointing along (theta, phi) on the Bloch sphere:
    (cos(theta/2) e^{-i phi/2}, sin(theta/2) e^{+i phi/2}).  Raises
    ConfigError unless theta and phi are finite numbers."""
    theta, phi = finite("key theta", theta), finite("key phi", phi)
    return np.array([
        math.cos(theta / 2) * np.exp(-0.5j * phi),
        math.sin(theta / 2) * np.exp(+0.5j * phi),
    ])


def amplitude_from_spinor(spinor) -> Biquaternion:
    """Biquaternion amplitude whose upper 2-spinor is the given pair: the
    column components map to coefficients (a0, a1) = (s0, s1)."""
    s = finite("key spinor", spinor, 2, dtype=complex)
    return Biquaternion(s[0], s[1])
