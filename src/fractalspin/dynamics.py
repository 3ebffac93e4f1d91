"""Differential operators, wave-equation residuals, and the
non-integrability witness.

Field objects here are deliberately generic: anything with ``value(pt)``
and ``derivative(pt, orders)`` works, where ``orders`` is a 4-tuple of
non-negative derivative counts for (t, x, y, z).  The package provides
:class:`ExponentialField`: sums A * exp(k . (t,x,y,z)) with exact
derivatives of every order.  Amplitudes may be biquaternions, complex
scalars, or NumPy vectors; operators that need a ring inverse (geodesic
residual, acceleration field, witness) require biquaternion values, and
refuse others with ConfigError.  The three share one jet of psi; the
residual is integrated, and the witness is the curl of E, not of R.

Nothing here differentiates numerically: every derivative comes from the
field's own exact derivative method, and an EMField carries the analytic
curl and divergence of its vector potential.

Sign conventions match :mod:`fractalspin.fields`: momentum operator
+i hbar grad, energy operator -i hbar d/dt, minimal coupling through
(p_hat - (e/c) A).
"""

from __future__ import annotations

import functools
import math
import operator
from typing import Callable, Sequence

import numpy as np

from .algebra import _IDENT2, E1, E2, E3, ONE, PAULI, Biquaternion, sigma_dot
from .errors import ConfigError, finite, whole


def _left_sum(pieces):
    """pieces[0] + pieces[1] + ... added left to right.  The sum starts
    from the first piece, not from 0, so it works for any type with + and
    keeps a -0.0 that 0 + x would turn into +0.0."""
    return functools.reduce(operator.add, pieces)


def _d(field, pt, *axes):
    """field's derivative at pt along each of the axes in turn (0..3 for
    t, x, y, z; a repeated axis is a higher order)."""
    return field.derivative(pt, tuple(map(axes.count, range(4))))


class ExponentialField:
    """Finite sum of terms A_i * exp(k_i . (t, x, y, z)).

    k_i is a complex 4-vector, so oscillatory, growing and decaying
    behaviour are all representable; derivatives of any order are exact
    (each derivative multiplies a term by components of its k).
    """

    def __init__(self, terms: Sequence[tuple]):
        """Raises ConfigError, naming the term, unless each amplitude is
        finite and each k four finite numbers, and when there are none."""
        self.terms = []
        for i, (amp, k) in enumerate(terms):
            finite(f"term {i} amplitude",
                   amp.a if isinstance(amp, Biquaternion) else amp,
                   None if np.isscalar(amp) else -1, dtype=complex)
            self.terms.append((amp, finite(f"term {i} k", k, 4,
                                           dtype=complex)))
        if not self.terms:
            raise ConfigError("key terms: need at least one term, got none")

    def value(self, pt):
        return self.derivative(pt, (0, 0, 0, 0))

    def derivative(self, pt, orders):
        """d^orders of the sum at pt, orders a 4-tuple of non-negative
        derivative counts for (t, x, y, z).  Raises ConfigError unless
        orders are four non-negative ints and pt four finite numbers."""
        if not (isinstance(orders, (tuple, list)) and len(orders) == 4
                and all(n.__class__ is int for n in orders)
                and min(orders) >= 0):
            raise ConfigError(f"key orders: need four non-negative ints, "
                              f"got {orders!r}")
        pt = finite("key point", pt, 4)
        pieces = []
        for amp, k in self.terms:
            factor = complex(np.exp(k @ pt))
            for mu, n in enumerate(orders):
                if n:
                    factor *= k[mu] ** n
            pieces.append(amp * factor)
        return _left_sum(pieces)


def product_field(f1: ExponentialField, f2: ExponentialField) -> ExponentialField:
    """Exact pointwise product of two exponential sums.

    The scalar exponentials commute with everything, so the product is
    again an exponential sum with pairwise amplitude products (order of
    the factors is preserved: amplitudes need not commute).
    """
    return ExponentialField([(a1 * a2, k1 + k2)
                             for a1, k1 in f1.terms
                             for a2, k2 in f2.terms])


def rotor_field(axis: int, omega: float, kvec) -> ExponentialField:
    """exp(e_axis * (omega t + k . r)) as an exact two-term exponential sum,
    using exp(e f) = cos f + e sin f for a unit imaginary e.  Raises
    ConfigError unless axis is 1, 2 or 3, omega a finite number and kvec
    three finite numbers."""
    if axis not in (1, 2, 3):
        raise ConfigError(f"key axis: need 1, 2 or 3, got {axis!r}")
    e = (E1, E2, E3)[axis - 1]
    k4 = 1j * np.array([finite("key omega", omega),
                        *finite("key kvec", kvec, 3)], dtype=complex)
    return ExponentialField([
        ((ONE - 1j * e) * 0.5, k4),
        ((ONE + 1j * e) * 0.5, -k4),
    ])


# -- electromagnetic potentials ------------------------------------------


class EMField:
    """Scalar and vector potentials with their analytic curl and divergence.

    a0, a, b (the curl of a) and div_a are callables of the spacetime
    point.  A vector potential a needs b and div_a with it, and raises
    ConfigError, naming the missing key, without them; EMField() with no
    potential is the free field, every term zero.
    """

    def __init__(self, a0: Callable | None = None, a: Callable | None = None,
                 b: Callable | None = None, div_a: Callable | None = None):
        for key, fn in (("b", b), ("div_a", div_a)):
            if a is not None and fn is None:
                raise ConfigError(f"key {key}: a vector potential a needs "
                                  f"its analytic {key}, got none")
        self._a0 = a0
        self._a = a
        self._b = b
        self._div = div_a

    def a0(self, pt) -> float:
        return 0.0 if self._a0 is None else finite("key a0", self._a0(pt))

    def a(self, pt) -> np.ndarray:
        return np.zeros(3) if self._a is None else \
            finite("key a", self._a(pt), 3)

    def b(self, pt) -> np.ndarray:
        return np.zeros(3) if self._b is None else \
            finite("key b", self._b(pt), 3)

    def div_a(self, pt) -> float:
        return 0.0 if self._div is None else finite("key div_a", self._div(pt))


def uniform_b_field(b0: float) -> EMField:
    """Uniform magnetic field (0, 0, b0) in the symmetric gauge
    A = (B x r)/2 = (-b0 y/2, b0 x/2, 0); A0 = 0, div A = 0.  Raises
    ConfigError unless b0 is a finite number."""
    b0 = finite("key b0", b0)

    def a(pt):
        return np.array([-0.5 * b0 * pt[2], 0.5 * b0 * pt[1], 0.0])

    return EMField(a0=None, a=a,
                   b=lambda pt: np.array([0.0, 0.0, b0]),
                   div_a=lambda pt: 0.0)


# -- geodesic residual and the non-integrability witness --------------------


def _jet(field, pt):
    """psi, psi^-1, the four d_mu psi, G_k = psi^-1 d_k psi and d_t G_k =
    -G_t G_k + psi^-1 d_t d_k psi (k = 1..3) at pt, from 8 derivative
    calls.  Raises ConfigError unless the values are biquaternions."""
    psi = field.value(pt)
    if not isinstance(psi, Biquaternion):
        raise ConfigError(f"key field: need biquaternion values, got {psi!r}")
    inv = psi.inverse()
    d1 = [_d(field, pt, mu) for mu in range(4)]
    g_t, *g = [inv * d for d in d1]
    dt_g = [-(g_t * gk) + inv * _d(field, pt, 0, k)
            for k, gk in zip((1, 2, 3), g)]
    return psi, inv, d1, g, dt_g


def _lap_gradient(field, pt, inv, d1) -> list:
    """L_k = d_k(lap(psi) psi^-1) = (d_k lap psi) psi^-1
    - lap psi (psi^-1 (d_k psi) psi^-1), k = 1..3, in 12 derivative calls."""
    lap = _left_sum(_d(field, pt, j, j) for j in (1, 2, 3))
    return [_left_sum(_d(field, pt, j, j, k) for j in (1, 2, 3)) * inv
            - lap * (inv * (d1[k] * inv)) for k in (1, 2, 3)]


def geodesic_residual(field, diffusion: float, pt) -> list:
    """Residual of the free quaternionic geodesic equation,

        R_k = d_t G_k - 2iD [ sum_j G_j d_j G_k + (1/2) laplacian G_k ],

    G_k = psi^-1 d_k psi, in the integrated form its product-rule expansion
    cancels to: R_k = psi^-1 d_k[(d_t psi - iD lap psi) psi^-1] psi =
    d_t G_k - iD psi^-1 L_k psi, zero where (d_t - iD lap) psi = C(t) psi.
    20 derivative calls.  Raises ConfigError unless diffusion is a finite
    number and the field's values are biquaternions.
    """
    diffusion = finite("key diffusion", diffusion)
    psi, inv, d1, _, dt_g = _jet(field, pt)
    return [dt_gk + ((inv * lk) * psi) * (-1j * diffusion)
            for dt_gk, lk in zip(dt_g, _lap_gradient(field, pt, inv, d1))]


def acceleration_field(field, diffusion: float, pt) -> list:
    """E_k = d_t(psi^-1 d_k psi) - 2iD d_k(laplacian(psi) psi^-1), k=1..3.

    For commuting (complex) fields this is a spatial gradient; for
    genuinely quaternionic fields its curl reduces to -d_t[G_j, G_k] and
    need not vanish.  The geodesic residual conjugates the gradient term
    by psi.  Raises ConfigError as geodesic_residual does.
    """
    diffusion = finite("key diffusion", diffusion)
    _, inv, d1, _, dt_g = _jet(field, pt)
    return [dt_gk + lk * (-2j * diffusion)
            for dt_gk, lk in zip(dt_g, _lap_gradient(field, pt, inv, d1))]


def gradient_witness(field, diffusion: float, points) -> float:
    """Max over the points of the curl components of the acceleration
    field E, not of the geodesic residual.  E's second term is a gradient
    and d_j G_k - d_k G_j = -[G_j, G_k] for G = psi^-1 d psi, so

        curl_jk E = -d_t [G_j, G_k],  d_t G_k = -G_t G_k + psi^-1 d_t d_k psi,

    from the jet's 8 exact derivative calls per point: commuting values
    give 0 up to the commutator's rounding.  D does not enter the curl,
    but ConfigError is raised for what acceleration_field refuses, and
    for no points.
    """
    finite("key diffusion", diffusion)
    worst = 0.0
    visited = False
    for pt in points:
        _, _, _, g, dt_g = _jet(field, pt)
        for j, k in ((0, 1), (0, 2), (1, 2)):
            curl = ((dt_g[j] * g[k] - g[k] * dt_g[j])
                    + (g[j] * dt_g[k] - dt_g[k] * g[j]))
            worst = max(worst, curl.max_abs())
        visited = True
    if not visited:
        raise ConfigError("key points: need at least one point, got none")
    return worst


def sample_box(bounds, n: int, seed: int = 0):
    """n uniform random spacetime points in the box bounds = ((lo, hi),) * 4.
    Raises ConfigError unless bounds are four pairs of finite numbers,
    n >= 1 and seed a whole number >= 0."""
    try:
        pairs = np.shape(bounds) == (4, 2)
    except ValueError:  # ragged nesting
        pairs = False
    if not pairs:
        raise ConfigError(f"key bounds: need four (lo, hi) pairs, got "
                          f"{bounds!r}")
    bounds = [finite("key bounds", pair, 2).tolist() for pair in bounds]
    rng = np.random.default_rng(whole("key seed", seed, 0))
    return [np.array([rng.uniform(lo, hi) for lo, hi in bounds])
            for _ in range(whole("key n", n, 1))]


# -- two-component (Pauli) and four-component (Dirac) residuals -------------


def _units(m, c, hbar) -> list:
    """m, c and hbar as floats; ConfigError, naming the key, unless each
    is a finite number above 0."""
    return [finite(f"key {key}", value, positive=True)
            for key, value in (("m", m), ("c", c), ("hbar", hbar))]


def small_component(phi_field, em: EMField, pt, *, m: float = 1.0,
                    c: float = 1.0, hbar: float = 1.0,
                    charge: float = 1.0) -> np.ndarray:
    """Lower 2-spinor reconstructed from the upper one:
    chi = sigma . (i hbar grad - (e/c) A) phi / (2 m c).
    Raises ConfigError unless m, c and hbar are finite numbers above 0
    and charge is a finite number."""
    m, c, hbar = _units(m, c, hbar)
    charge = finite("key charge", charge)
    a = em.a(pt)
    phi = phi_field.value(pt)
    out = np.zeros(2, dtype=complex)
    for k in range(3):
        pi_k = 1j * hbar * _d(phi_field, pt, k + 1) - (charge / c) * a[k] * phi
        out = out + PAULI[k] @ pi_k
    return out / (2 * m * c)


def pauli_residual(phi_field, em: EMField, pt, *, m: float = 1.0,
                   c: float = 1.0, hbar: float = 1.0, charge: float = 1.0,
                   g: float = 2.0) -> np.ndarray:
    """Residual of the two-component wave equation

        -i hbar d_t phi = (1/2m)(i hbar grad - (e/c) A)^2 phi
                          - (g/2)(e hbar / 2 m c) sigma . B phi
                          + e A0 phi,

    returned as LHS - RHS.  g = 2 is what the four-component reduction
    produces; other values break the magnetic anchor on purpose.
    Raises ConfigError unless m, c and hbar are finite numbers above 0
    and charge and g are finite numbers.
    """
    m, c, hbar = _units(m, c, hbar)
    charge = finite("key charge", charge)
    g = finite("key g", g)
    phi = phi_field.value(pt)
    a = em.a(pt)
    b = em.b(pt)
    diva = em.div_a(pt)
    lhs = -1j * hbar * _d(phi_field, pt, 0)
    lap = sum((_d(phi_field, pt, k, k) for k in (1, 2, 3)), np.zeros_like(phi))
    a_dot_grad = sum(a[k - 1] * _d(phi_field, pt, k) for k in (1, 2, 3))
    kinetic = (-hbar**2 * lap
               - 1j * hbar * (charge / c) * (diva * phi + 2.0 * a_dot_grad)
               + (charge / c)**2 * float(a @ a) * phi)
    rhs = kinetic / (2 * m) \
        - (g / 2) * (charge * hbar / (2 * m * c)) * (sigma_dot(b) @ phi) \
        + charge * em.a0(pt) * phi
    return lhs - rhs


def gamma_matrices() -> tuple[np.ndarray, ...]:
    """Dirac-representation gamma matrices, built from the Pauli set that
    the biquaternion bridge e_k -> -i sigma_k singles out."""
    zero = np.zeros((2, 2), dtype=complex)
    g0 = np.block([[_IDENT2, zero], [zero, -_IDENT2]])
    gk = tuple(np.block([[zero, PAULI[k]], [-PAULI[k], zero]])
               for k in range(3))
    return (g0, *gk)


def dirac_residual(psi_field, em: EMField, pt, *, m: float = 1.0,
                   c: float = 1.0, hbar: float = 1.0,
                   charge: float = 1.0) -> np.ndarray:
    """Residual of the four-component equation

        [ gamma^0 (E_hat - e A0)/c - sum_k gamma^k (p_hat_k - (e/c) A_k)
          - m c ] psi = 0,

    with E_hat = -i hbar d_t and p_hat = +i hbar grad.  Raises ConfigError
    unless m, c and hbar are finite numbers above 0 and charge is a
    finite number."""
    m, c, hbar = _units(m, c, hbar)
    charge = finite("key charge", charge)
    g0, *gk = gamma_matrices()
    psi = psi_field.value(pt)
    a = em.a(pt)
    e_psi = -1j * hbar * _d(psi_field, pt, 0)
    out = g0 @ ((e_psi - charge * em.a0(pt) * psi) / c)
    for k in range(3):
        p_psi = 1j * hbar * _d(psi_field, pt, k + 1)
        out = out - gk[k] @ (p_psi - (charge / c) * a[k] * psi)
    return out - m * c * psi


def dirac_plane_wave(xi, p, *, m: float = 1.0, c: float = 1.0,
                     hbar: float = 1.0) -> ExponentialField:
    """Positive-energy on-shell plane wave exp(-(i/hbar)(p.r - E t)) with
    upper 2-spinor xi and lower block c sigma.p xi / (E + m c^2).
    Raises ConfigError unless p is three finite numbers, xi two, and m, c
    and hbar are finite numbers above 0."""
    p = finite("key p", p, 3)
    xi = finite("key xi", xi, 2, dtype=complex)
    m, c, hbar = _units(m, c, hbar)
    energy = math.sqrt(float(p @ p) * c**2 + (m * c**2) ** 2)
    lower = c * (sigma_dot(p) @ xi) / (energy + m * c**2)
    amp = np.concatenate([xi, lower])
    k4 = (1j / hbar) * np.array([energy, -p[0], -p[1], -p[2]], dtype=complex)
    return ExponentialField([(amp, k4)])


def strip_rest_phase(field: ExponentialField, *, m: float = 1.0,
                     c: float = 1.0, hbar: float = 1.0) -> ExponentialField:
    """Multiply an exponential-sum field by exp(-i m c^2 t / hbar).
    Raises ConfigError unless m, c and hbar are finite numbers above 0."""
    m, c, hbar = _units(m, c, hbar)
    shift = np.array([-1j * m * c**2 / hbar, 0, 0, 0], dtype=complex)
    return ExponentialField([(amp, k + shift) for amp, k in field.terms])


def upper_components(field: ExponentialField) -> ExponentialField:
    """Project a 4-component exponential field onto its upper 2-spinor;
    ConfigError, naming the term, unless each amplitude is four numbers."""
    return ExponentialField([
        (finite(f"term {i} amplitude", amp, 4, dtype=complex)[:2], k)
        for i, (amp, k) in enumerate(field.terms)])
