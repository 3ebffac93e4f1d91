"""Differential operators, wave-equation residuals, and the
non-integrability witness.

Field objects here are deliberately generic: anything with ``value(pt)``
and ``derivative(pt, orders)`` works, where ``orders`` is a 4-tuple of
non-negative derivative counts for (t, x, y, z).  The package provides
:class:`ExponentialField`: sums A * exp(k . (t,x,y,z)) with exact
derivatives of every order.  Amplitudes may be biquaternions, complex
scalars, or NumPy vectors; operators that need a ring inverse (geodesic
residual, witness) require biquaternion values.

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

from .algebra import _IDENT2, PAULI, Biquaternion, sigma_dot
from .errors import ConfigError
from .fields import central_difference

#: central-difference step of EMField's curl and divergence
_EM_H = 1e-5
#: highest derivative order per axis whose k powers ExponentialField
#: stores; the package asks for at most third derivatives
_POWERS = 3


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
        self.terms = [(amp, np.asarray(k, dtype=complex).reshape(4))
                      for amp, k in terms]
        if not self.terms:
            raise ConfigError("key terms: need at least one term, got none")
        # k_mu ** n for n = 1.._POWERS of each term, as Python complex
        self._powers = [[[complex(k[mu] ** n) for n in range(1, _POWERS + 1)]
                         for mu in range(4)] for _, k in self.terms]

    def value(self, pt):
        return self.derivative(pt, (0, 0, 0, 0))

    def derivative(self, pt, orders):
        """d^orders of the sum at pt, orders a 4-tuple of non-negative
        derivative counts for (t, x, y, z).  Raises ConfigError unless
        orders are four non-negative ints and pt four finite numbers."""
        if not (len(orders) == 4 and all(map(isinstance, orders, (int,) * 4))
                and min(orders) >= 0):
            raise ConfigError(f"key orders: need four non-negative ints, "
                              f"got {orders!r}")
        need = "key point: need finite numbers t, x, y, z, got "
        try:
            pt = np.asarray(pt, dtype=float).reshape(-1)
        except (TypeError, ValueError):
            raise ConfigError(f"{need}{pt!r}") from None
        if len(pt) != 4 or not all(map(math.isfinite, pt.tolist())):
            raise ConfigError(f"{need}{pt.tolist()}")
        pieces = []
        for (amp, k), powers in zip(self.terms, self._powers):
            factor = complex(np.exp(k @ pt))
            for mu, n in enumerate(orders):
                if n:
                    factor *= powers[mu][n - 1] if n <= _POWERS else k[mu] ** n
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
    using exp(e f) = cos f + e sin f for a unit imaginary e."""
    if axis not in (1, 2, 3):
        raise ConfigError(f"key axis: need 1, 2 or 3, got {axis!r}")
    e = Biquaternion(*(1.0 if i == axis else 0.0 for i in range(4)))
    one = Biquaternion(1.0)
    k4 = 1j * np.array([omega, *np.asarray(kvec, dtype=float).reshape(3)],
                       dtype=complex)
    return ExponentialField([
        ((one - 1j * e) * 0.5, k4),
        ((one + 1j * e) * 0.5, -k4),
    ])


# -- electromagnetic potentials ------------------------------------------


class EMField:
    """Scalar and vector potentials with optional analytic curl/divergence.

    a0 and a are callables of the spacetime point; b (the curl of a) and
    div_a fall back to central differences of step 1e-5 when not given.
    """

    def __init__(self, a0: Callable | None = None, a: Callable | None = None,
                 b: Callable | None = None, div_a: Callable | None = None):
        self._a0 = a0
        self._a = a
        self._b = b
        self._div = div_a

    def a0(self, pt) -> float:
        return float(self._a0(pt)) if self._a0 is not None else 0.0

    def a(self, pt) -> np.ndarray:
        if self._a is None:
            return np.zeros(3)
        return np.asarray(self._a(pt), dtype=float).reshape(3)

    def b(self, pt) -> np.ndarray:
        if self._b is not None:
            return np.asarray(self._b(pt), dtype=float).reshape(3)
        da = [central_difference(self.a, pt, j + 1, _EM_H) for j in range(3)]
        return np.array([da[1][2] - da[2][1],
                         da[2][0] - da[0][2],
                         da[0][1] - da[1][0]])

    def div_a(self, pt) -> float:
        if self._div is not None:
            return float(self._div(pt))
        return float(sum(central_difference(self.a, pt, j + 1, _EM_H)[j]
                         for j in range(3)))


def uniform_b_field(b0: float) -> EMField:
    """Uniform magnetic field (0, 0, b0) in the symmetric gauge
    A = (B x r)/2 = (-b0 y/2, b0 x/2, 0); A0 = 0, div A = 0."""
    def a(pt):
        return np.array([-0.5 * b0 * pt[2], 0.5 * b0 * pt[1], 0.0])

    return EMField(a0=None, a=a,
                   b=lambda pt: np.array([0.0, 0.0, b0]),
                   div_a=lambda pt: 0.0)


# -- covariant derivative and geodesic residual ----------------------------


def covariant_derivative(velocity: Callable, diffusion: float, f, pt):
    """(d_t + V . grad - i D laplacian) f at pt.

    velocity is a callable pt -> 3 components (scalars or biquaternions);
    each component left-multiplies the corresponding spatial derivative
    of f.
    """
    v = velocity(pt)
    out = _left_sum([_d(f, pt, 0)]
                    + [v[k - 1] * _d(f, pt, k) for k in (1, 2, 3)])
    lap = _left_sum(_d(f, pt, k, k) for k in (1, 2, 3))
    return out + lap * (-1j * diffusion)


def geodesic_residual(field, diffusion: float, pt) -> list:
    """Residual of the free quaternionic geodesic equation,

        R_k = d_t G_k - 2iD [ sum_j G_j d_j G_k + (1/2) laplacian G_k ],

    with G_k = psi^-1 d_k psi.  All derivatives of G are expanded by the
    product rule into derivatives of psi (exact for exponential-sum
    fields); needs field values up to third derivatives.
    """
    inv = field.value(pt).inverse()
    g = [inv * _d(field, pt, mu) for mu in range(4)]  # g[0] is G_t

    # second-derivative contractions inv * d_mu_nu psi
    h = {}
    for mu in range(4):
        for nu in range(mu, 4):
            h[mu, nu] = h[nu, mu] = inv * _d(field, pt, mu, nu)

    out = []
    for k in (1, 2, 3):
        gk = g[k]
        dt_gk = -(g[0] * gk) + h[0, k]
        conv = _left_sum(g[j] * (-(g[j] * gk) + h[j, k]) for j in (1, 2, 3))
        lap = _left_sum((g[j] * (g[j] * gk)) * 2.0 - h[j, j] * gk
                        - (g[j] * h[j, k]) * 2.0 + inv * _d(field, pt, j, j, k)
                        for j in (1, 2, 3))
        out.append(dt_gk + (conv + lap * 0.5) * (-2j * diffusion))
    return out


# -- non-integrability witness ---------------------------------------------


def acceleration_field(field, diffusion: float, pt) -> list:
    """E_k = d_t(psi^-1 d_k psi) - 2iD d_k(laplacian(psi) psi^-1), k=1..3.

    For commuting (complex) fields this is a spatial gradient; for
    genuinely quaternionic fields its curl reduces to -d_t[G_j, G_k] and
    need not vanish.  gradient_witness evaluates that curl directly.
    """
    inv = field.value(pt).inverse()
    d1 = [_d(field, pt, mu) for mu in range(4)]
    g_t = inv * d1[0]
    lap = _left_sum(_d(field, pt, j, j) for j in (1, 2, 3))
    out = []
    for k in (1, 2, 3):
        gk = inv * d1[k]
        dt_gk = -(g_t * gk) + inv * _d(field, pt, 0, k)
        # d_k (lap(psi) inv) = (d_k lap psi) inv - lap psi * inv d_k psi inv
        lap_k = _left_sum(_d(field, pt, j, j, k) for j in (1, 2, 3))
        grad_term = lap_k * inv - lap * (inv * (d1[k] * inv))
        out.append(dt_gk + grad_term * (-2j * diffusion))
    return out


def gradient_witness(field, diffusion: float, points) -> float:
    """Max curl component of the acceleration field over the sample points.

    The second term of E_k is a gradient, and d_j G_k - d_k G_j =
    -[G_j, G_k] for G = psi^-1 d psi, so

        curl_jk E = -d_t [G_j, G_k],  d_t G_k = -G_t G_k + psi^-1 d_t d_k psi.

    Each point takes the value, the four first derivatives and the three
    d_t d_k derivatives from the field's own derivative method, 8 calls
    in all.  There is no finite-difference step: a field whose values
    commute gives 0 up to the rounding of the commutator's products, and
    exactly 0 where its values are complex scalars.
    """
    worst = 0.0
    for pt in points:
        inv = field.value(pt).inverse()
        g_t, *g = [inv * _d(field, pt, mu) for mu in range(4)]
        dt_g = [-(g_t * gk) + inv * _d(field, pt, 0, k)
                for k, gk in zip((1, 2, 3), g)]
        for j, k in ((0, 1), (0, 2), (1, 2)):
            curl = ((dt_g[j] * g[k] - g[k] * dt_g[j])
                    + (g[j] * dt_g[k] - dt_g[k] * g[j]))
            worst = max(worst, curl.max_abs())
    return worst


def sample_box(bounds, n: int, seed: int = 0):
    """n uniform random spacetime points in the box bounds = ((lo, hi),) * 4."""
    rng = np.random.default_rng(seed)
    return [np.array([rng.uniform(lo, hi) for lo, hi in bounds])
            for _ in range(n)]


# -- two-component (Pauli) and four-component (Dirac) residuals -------------


def small_component(phi_field, em: EMField, pt, *, m: float = 1.0,
                    c: float = 1.0, hbar: float = 1.0,
                    charge: float = 1.0) -> np.ndarray:
    """Lower 2-spinor reconstructed from the upper one:
    chi = sigma . (i hbar grad - (e/c) A) phi / (2 m c)."""
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
    """
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

    with E_hat = -i hbar d_t and p_hat = +i hbar grad."""
    g0, g1, g2, g3 = gamma_matrices()
    gk = (g1, g2, g3)
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
    upper 2-spinor xi and lower block c sigma.p xi / (E + m c^2)."""
    p = np.asarray(p, dtype=float).reshape(3)
    xi = np.asarray(xi, dtype=complex).reshape(2)
    energy = math.sqrt(float(p @ p) * c**2 + (m * c**2) ** 2)
    lower = c * (sigma_dot(p) @ xi) / (energy + m * c**2)
    amp = np.concatenate([xi, lower])
    k4 = (1j / hbar) * np.array([energy, -p[0], -p[1], -p[2]], dtype=complex)
    return ExponentialField([(amp, k4)])


def strip_rest_phase(field: ExponentialField, *, m: float = 1.0,
                     c: float = 1.0, hbar: float = 1.0) -> ExponentialField:
    """Multiply an exponential-sum field by exp(-i m c^2 t / hbar)."""
    shift = np.array([-1j * m * c**2 / hbar, 0, 0, 0], dtype=complex)
    return ExponentialField([(amp, k + shift) for amp, k in field.terms])


def upper_components(field: ExponentialField) -> ExponentialField:
    """Project a 4-component exponential field onto its upper 2-spinor."""
    return ExponentialField([(np.asarray(amp)[:2], k)
                             for amp, k in field.terms])
