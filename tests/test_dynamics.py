"""Tests for operators, residuals, and the non-integrability witness."""

import numpy as np
import pytest

from fractalspin import dynamics
from fractalspin.algebra import Biquaternion, ONE, PAULI, sigma_dot
from fractalspin.dynamics import (
    _d,
    EMField,
    ExponentialField,
    acceleration_field,
    dirac_plane_wave,
    dirac_residual,
    gamma_matrices,
    geodesic_residual,
    gradient_witness,
    pauli_residual,
    product_field,
    rotor_field,
    sample_box,
    small_component,
    strip_rest_phase,
    uniform_b_field,
    upper_components,
)
from fractalspin.errors import ConfigError, finite

from fd_reference import NumericField, covariant_derivative

FREE = EMField()


def _complex_wave(amp, p, energy, hbar=1.0):
    """Scalar wave a * exp(-i (p.r - E t)/hbar), the phase of
    fractalspin.fields, carried on the biquaternion scalar slot."""
    k4 = (1j / hbar) * np.array([energy, -p[0], -p[1], -p[2]], dtype=complex)
    return (amp * ONE, k4)


def test_exponential_field_derivatives_exact():
    amp = Biquaternion(0.5, 0.2j, -0.1, 0.3)
    k = np.array([0.2 - 0.4j, 0.1j, -0.3, 0.05 + 0.2j])
    f = ExponentialField([(amp, k)])
    pt = (0.3, -0.2, 0.6, 0.1)
    val = f.value(pt)
    d = f.derivative(pt, (1, 0, 2, 1))
    expect = val * complex(k[0] * k[2] ** 2 * k[3])
    assert (d - expect).max_abs() < 1e-12


def test_exponential_vs_numeric_field():
    f = ExponentialField([(np.array([1.0, 0.5j]), [0.1j, -0.2, 0.3j, 0.0])])
    g = NumericField(f.value, h=1e-4)
    pt = (0.2, 0.4, -0.1, 0.7)
    for orders in [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 2, 0)]:
        diff = f.derivative(pt, orders) - g.derivative(pt, orders)
        assert np.max(np.abs(diff)) < 1e-5


def test_numeric_field_exact_on_polynomials():
    f = NumericField(lambda pt: pt[1] ** 2, h=1e-3)
    assert f.derivative((0, 2.0, 0, 0), (0, 1, 0, 0)) == pytest.approx(4.0, abs=1e-9)
    assert f.derivative((0, 2.0, 0, 0), (0, 2, 0, 0)) == pytest.approx(2.0, abs=1e-6)


def test_rotor_field_is_cos_plus_sin():
    k = np.array([0.3, -0.7, 0.2])
    f = rotor_field(1, 0.9, k)
    pt = np.array([0.4, 0.1, 0.8, -0.3])
    phase = 0.9 * pt[0] + float(k @ pt[1:])
    expect = Biquaternion(np.cos(phase), np.sin(phase))
    assert (f.value(pt) - expect).max_abs() < 1e-12


def test_product_field_multiplies_pointwise():
    f1 = rotor_field(1, 0.5, [0.2, 0.0, -0.1])
    f2 = rotor_field(2, -0.3, [0.0, 0.4, 0.1])
    f12 = product_field(f1, f2)
    pt = (0.2, 0.5, -0.4, 0.9)
    assert (f12.value(pt) - f1.value(pt) * f2.value(pt)).max_abs() < 1e-12
    d1 = f12.derivative(pt, (0, 1, 0, 0))
    fd = NumericField(f12.value, h=1e-5).derivative(pt, (0, 1, 0, 0))
    assert (d1 - fd).max_abs() < 1e-8


def test_uniform_b_field():
    em = uniform_b_field(2.5)
    pt = (0.0, 0.7, -0.3, 1.2)
    assert np.allclose(em.b(pt), [0, 0, 2.5])
    assert em.div_a(pt) == 0.0
    assert np.allclose(em.a(pt), [-0.5 * 2.5 * (-0.3), 0.5 * 2.5 * 0.7, 0.0])


def test_free_em_field_is_zero():
    pt = (0.3, -0.2, 0.6, 0.1)
    assert FREE.a0(pt) == 0.0 and FREE.div_a(pt) == 0.0
    for vec in (FREE.a(pt), FREE.b(pt)):
        assert _bits([vec]) == _bits([np.zeros(3)])


@pytest.mark.parametrize("missing", ["b", "div_a"])
def test_vector_potential_needs_its_analytic_curl_and_divergence(missing):
    # there is no finite-difference fallback: a potential without its
    # curl or divergence is refused when the field is built
    given = {"b": lambda pt: np.zeros(3), "div_a": lambda pt: 0.0}
    del given[missing]
    with pytest.raises(ConfigError, match=f"key {missing}: a vector "
                                          f"potential a needs"):
        EMField(a=lambda pt: np.zeros(3), **given)


def test_covariant_derivative_on_x_squared():
    d = 0.35
    f = NumericField(lambda pt: pt[1] ** 2 + 0j, h=1e-3)
    out = covariant_derivative(lambda pt: [0.0, 0.0, 0.0], d, f, (0, 5.0, 1.0, -2.0))
    assert abs(out - 2j * d) < 1e-6


def test_covariant_derivative_picks_out_velocity():
    d = 0.2
    v = [Biquaternion(0.3, 0.1), Biquaternion(-0.2), Biquaternion(0.0, 0.0, 0.5)]
    for k in range(3):
        f = NumericField(lambda pt, k=k: pt[k + 1] + 0j, h=1e-3)
        out = covariant_derivative(lambda pt: v, d, f, (0.1, 0.2, 0.3, 0.4))
        assert (out - v[k]).max_abs() < 1e-9


def _onshell_superposition(a, p, detune=0.0, hbar=1.0, m=1.0):
    energy = float(np.dot(p, p)) / (2 * m) + detune
    return ExponentialField([(ONE, np.zeros(4)),
                             _complex_wave(a, p, energy, hbar)])


def test_geodesic_residual_vanishes_on_shell():
    hbar, m = 1.0, 1.0
    d = hbar / (2 * m)
    f = _onshell_superposition(0.4, np.array([0.7, -0.2, 0.5]), hbar=hbar, m=m)
    for pt in [(0.0, 0.3, 0.2, -0.5), (1.2, -0.4, 0.8, 0.1)]:
        for r in geodesic_residual(f, d, pt):
            assert r.max_abs() < 1e-12


def test_geodesic_residual_grows_with_detuning():
    hbar, m = 1.0, 1.0
    d = hbar / (2 * m)
    p = np.array([0.7, -0.2, 0.5])
    pt = (0.0, 0.3, 0.2, -0.5)

    def size(detune):
        f = _onshell_superposition(0.4, p, detune=detune, hbar=hbar, m=m)
        return max(r.max_abs() for r in geodesic_residual(f, d, pt))

    s1, s2 = size(0.1), size(0.2)
    assert s1 > 1e-3
    assert s2 / s1 == pytest.approx(2.0, rel=0.15)
    # analytic form: R_k = (i/hbar) * detune * d_k[(psi-1)/psi]
    f = _onshell_superposition(0.4, p, detune=0.1)
    val = f.value(pt).a[0]
    dx = f.derivative(pt, (0, 1, 0, 0)).a[0]
    expect = (1j / hbar) * 0.1 * dx / val**2
    got = geodesic_residual(f, d, pt)[0].a[0]
    assert abs(got - expect) < 1e-10


def test_geodesic_residual_against_covariant_derivative_route():
    # same operator assembled independently: (d_t + V.grad + iD lap) G_k
    # with V_j = +2iD G_j, G wrapped as a numerically differentiated field
    d = 0.5
    f = product_field(rotor_field(1, 0.4, [0.3, 0.0, -0.2]),
                      rotor_field(2, -0.7, [0.0, 0.5, 0.1]))
    pt = (0.3, 0.6, -0.2, 0.4)

    def g_comp(k):
        def fn(q):
            return f.value(q).inverse() * f.derivative(
                q, tuple(1 if i == k else 0 for i in range(4)))
        return NumericField(fn, h=1e-4)

    def velocity(q):
        inv = f.value(q).inverse()
        return [(inv * f.derivative(q, tuple(1 if i == k else 0 for i in range(4))))
                * (2j * d) for k in (1, 2, 3)]

    direct = geodesic_residual(f, d, pt)
    for k in (1, 2, 3):
        via_cov = covariant_derivative(velocity, d, g_comp(k), pt)
        assert (direct[k - 1] - via_cov).max_abs() < 1e-5


def test_witness_complex_control_is_at_noise_floor():
    d = 0.5
    control = ExponentialField([
        (ONE, np.zeros(4)),
        _complex_wave(0.5, np.array([0.6, -0.1, 0.3]), 0.23),
        _complex_wave(0.2j, np.array([-0.2, 0.4, 0.1]), -0.4),
    ])
    pts = sample_box(((0, 1),) * 4, 8, seed=3)
    w = gradient_witness(control, d, pts)
    assert w < 1e-6  # O(h^2) of an O(1) field


def test_witness_flags_noncommuting_rotor_product():
    d = 0.5
    # two rotors about different axes, both time dependent, k not parallel l
    f = product_field(rotor_field(1, 0.9, [0.8, 0.0, 0.0]),
                      rotor_field(2, -0.6, [0.0, 0.7, 0.0]))
    pts = sample_box(((0, 1),) * 4, 8, seed=4)
    w = gradient_witness(f, d, pts)
    # analytic curl is -d_t[G_j, G_k], an O(1) quantity here
    assert w > 0.1
    # a single rotor stays gradient-type
    w_single = gradient_witness(rotor_field(1, 0.9, [0.8, 0.2, -0.5]), d, pts)
    assert w_single < 1e-6


@pytest.mark.parametrize("name, per_point", [
    # the value, four first derivatives and three d_t d_k; no E is built
    ("gradient_witness", 8),
    # those 8, the three d_j d_j and the nine d_j d_j d_k: no d_t d_t and
    # no d_j d_k with j != k, which the product-rule expansion read
    ("geodesic_residual", 20),
    ("acceleration_field", 20),
])
def test_operators_make_their_derivative_calls_per_point(monkeypatch, name,
                                                          per_point):
    calls = {"derivative": 0, "acceleration_field": 0}
    derivative = ExponentialField.derivative
    accel = dynamics.acceleration_field
    operator = getattr(dynamics, name)

    def counted_derivative(self, pt, orders):
        calls["derivative"] += 1
        return derivative(self, pt, orders)

    def counted_accel(*args):
        calls["acceleration_field"] += 1
        return accel(*args)

    monkeypatch.setattr(ExponentialField, "derivative", counted_derivative)
    monkeypatch.setattr(dynamics, "acceleration_field", counted_accel)
    f = product_field(rotor_field(1, 0.9, [0.8, 0.0, 0.0]),
                      rotor_field(2, -0.6, [0.0, 0.7, 0.0]))
    pts = sample_box(((0, 1),) * 4, 5, seed=4)
    if name == "gradient_witness":
        operator(f, 0.5, pts)
    else:
        for pt in pts:
            operator(f, 0.5, pt)
    assert calls == {"derivative": per_point * len(pts),
                     "acceleration_field": 0}


def test_small_component_free_wave():
    m, c, hbar, p0 = 1.0, 7.0, 1.0, 0.8
    phi = ExponentialField([(np.array([1.0, 0.0]),
                             (1j / hbar) * np.array([0.0, 0.0, 0.0, -p0]))])
    chi = small_component(phi, FREE, (0.1, 0.2, 0.3, 0.4), m=m, c=c, hbar=hbar)
    # sigma.p phi / (2 m c) = (p0 / 2 m c) sigma3 phi
    val = phi.value((0.1, 0.2, 0.3, 0.4))
    expect = (p0 / (2 * m * c)) * (PAULI[2] @ val)
    assert np.max(np.abs(chi - expect)) < 1e-12
    ratio = np.linalg.norm(chi) / np.linalg.norm(val)
    assert ratio == pytest.approx(p0 / m / (2 * c), rel=1e-12)


def test_small_component_matches_dirac_lower_block():
    m, c, hbar = 1.0, 1.0, 1.0
    v = 0.05 * c
    p = np.array([0.0, 0.0, m * v])
    wave = dirac_plane_wave([1.0, 0.0], p, m=m, c=c, hbar=hbar)
    phi = upper_components(wave)
    pt = (0.3, 0.1, -0.2, 0.5)
    chi = small_component(phi, FREE, pt, m=m, c=c, hbar=hbar)
    full = wave.value(pt)
    # agreement up to O((v/c)^2) relative
    rel = np.max(np.abs(chi - full[2:])) / np.max(np.abs(full[2:]))
    assert rel < (v / c) ** 2


def test_pauli_residual_free_wave():
    m, hbar = 1.0, 1.0
    p = np.array([0.4, -0.3, 0.9])
    e_kin = float(p @ p) / (2 * m)
    k4 = (1j / hbar) * np.array([e_kin, -p[0], -p[1], -p[2]], dtype=complex)
    phi = ExponentialField([(np.array([0.6, 0.8j]), k4)])
    r = pauli_residual(phi, FREE, (0.2, 0.1, 0.5, -0.3), m=m, hbar=hbar)
    assert np.max(np.abs(r)) < 1e-12


def test_pauli_residual_magnetic_anchor():
    # uniform B, spin-up, p = 0, E = +e hbar B0 / (2 m c): on the z-axis
    # the g = 2 residual vanishes identically, g = 1 leaves e hbar B0/(4mc)
    m, c, hbar, e, b0 = 1.0, 1.0, 1.0, 1.0, 0.9
    em = uniform_b_field(b0)
    energy = e * hbar * b0 / (2 * m * c)
    phi = ExponentialField([(np.array([1.0, 0.0]),
                             np.array([1j * energy / hbar, 0, 0, 0]))])
    pt = (0.7, 0.0, 0.0, 1.3)
    r2 = pauli_residual(phi, em, pt, m=m, c=c, hbar=hbar, charge=e, g=2.0)
    r1 = pauli_residual(phi, em, pt, m=m, c=c, hbar=hbar, charge=e, g=1.0)
    assert np.max(np.abs(r2)) < 1e-14
    assert np.max(np.abs(r1)) == pytest.approx(e * hbar * b0 / (4 * m * c), rel=1e-10)
    # off the axis the same spinor is no longer exact: the diamagnetic
    # A^2 term contributes (e^2 B0^2 rho^2 / 8 m c^2) |phi|
    rho = 0.5
    r_off = pauli_residual(phi, em, (0.7, rho, 0.0, 1.3), m=m, c=c,
                           hbar=hbar, charge=e, g=2.0)
    assert np.max(np.abs(r_off)) == pytest.approx(
        e**2 * b0**2 * rho**2 / (8 * m * c**2), rel=1e-10)


def test_gamma_algebra():
    g = gamma_matrices()
    eta = np.diag([1.0, -1.0, -1.0, -1.0])
    for mu in range(4):
        for nu in range(4):
            anti = g[mu] @ g[nu] + g[nu] @ g[mu]
            assert np.allclose(anti, 2 * eta[mu, nu] * np.eye(4), atol=1e-14)


def test_dirac_residual_on_shell():
    m, c, hbar = 1.0, 2.0, 0.7
    for p in ([0.0, 0.0, 0.5], [0.3, -0.4, 0.1], [0.0, 0.0, 0.0]):
        wave = dirac_plane_wave([0.6, 0.8j], p, m=m, c=c, hbar=hbar)
        r = dirac_residual(wave, FREE, (0.4, 0.1, -0.2, 0.3), m=m, c=c, hbar=hbar)
        assert np.max(np.abs(r)) < 1e-12


def test_dirac_amplitude_is_matrix_kernel():
    # independent check: the on-shell symbol gamma^0 E/c - gamma.p - mc
    # is singular and annihilates the constructed amplitude
    m, c, hbar = 1.3, 2.0, 1.0
    p = np.array([0.4, -0.2, 0.7])
    energy = np.sqrt(float(p @ p) * c**2 + (m * c**2) ** 2)
    g = gamma_matrices()
    sym = g[0] * energy / c - sum(g[k + 1] * p[k] for k in range(3)) \
        - m * c * np.eye(4)
    assert abs(np.linalg.det(sym)) < 1e-10
    amp = dirac_plane_wave([0.6, 0.8j], p, m=m, c=c, hbar=hbar).terms[0][0]
    assert np.max(np.abs(sym @ amp)) < 1e-12


def test_dirac_residual_grows_off_shell():
    m, c, hbar = 1.0, 1.0, 1.0
    p = np.array([0.0, 0.0, 0.3])
    wave = dirac_plane_wave([1.0, 0.0], p, m=m, c=c, hbar=hbar)
    amp, k4 = wave.terms[0]
    pt = (0.2, 0.5, -0.1, 0.4)

    def detuned(delta):
        k = k4 + np.array([1j * delta / hbar, 0, 0, 0])
        f = ExponentialField([(amp, k)])
        return np.max(np.abs(dirac_residual(f, FREE, pt, m=m, c=c, hbar=hbar)))

    r1, r2 = detuned(0.05), detuned(0.1)
    assert r1 > 1e-3
    assert r2 / r1 == pytest.approx(2.0, rel=0.05)


def test_dirac_to_pauli_chain_residual_scales():
    m, c, hbar = 1.0, 1.0, 1.0

    def scaled_residual(v):
        p = [0.0, 0.0, m * v]
        wave = dirac_plane_wave([1.0, 0.0], p, m=m, c=c, hbar=hbar)
        phi = upper_components(strip_rest_phase(wave, m=m, c=c, hbar=hbar))
        energy = np.sqrt((m * v * c) ** 2 + (m * c**2) ** 2)
        r = pauli_residual(phi, FREE, (0.1, 0.2, 0.3, 0.4), m=m, c=c, hbar=hbar)
        return np.max(np.abs(r)) / (energy - m * c**2)

    r1 = scaled_residual(0.1 * 1.0)
    r2 = scaled_residual(0.05 * 1.0)
    assert r1 / r2 == pytest.approx(4.0, abs=0.5)


# -- oracles: the operators as written with explicit order tuples and
# accumulators, before they shared one derivative and one sum helper ------


def _old_unit(mu):
    o = [0, 0, 0, 0]
    o[mu] = 1
    return tuple(o)


def _old_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _old_second(mu, nu):
    return _old_add(_old_unit(mu), _old_unit(nu))


def _old_covariant_derivative(velocity, diffusion, f, pt):
    v = velocity(pt)
    out = f.derivative(pt, (1, 0, 0, 0))
    for k in range(3):
        out = out + v[k] * f.derivative(pt, _old_unit(k + 1))
    lap = None
    for k in range(3):
        o = [0, 0, 0, 0]
        o[k + 1] = 2
        piece = f.derivative(pt, tuple(o))
        lap = piece if lap is None else lap + piece
    return out + lap * (1j * diffusion)


def _old_geodesic_residual(field, diffusion, pt):
    inv = field.value(pt).inverse()
    d1 = [field.derivative(pt, _old_unit(mu)) for mu in range(4)]
    g_t = inv * d1[0]
    g = [inv * d1[k] for k in (1, 2, 3)]
    h = {}
    for mu in range(4):
        for nu in range(mu, 4):
            h[(mu, nu)] = inv * field.derivative(pt, _old_second(mu, nu))
            h[(nu, mu)] = h[(mu, nu)]
    out = []
    for k in (1, 2, 3):
        gk = g[k - 1]
        dt_gk = -(g_t * gk) + h[(0, k)]
        conv = None
        lap = None
        for j in (1, 2, 3):
            gj = g[j - 1]
            dj_gk = -(gj * gk) + h[(j, k)]
            piece = gj * dj_gk
            conv = piece if conv is None else conv + piece
            o3 = _old_add(_old_second(j, j), _old_unit(k))
            d3 = inv * field.derivative(pt, o3)
            lap_piece = (gj * (gj * gk)) * 2.0 - h[(j, j)] * gk \
                - (gj * h[(j, k)]) * 2.0 + d3
            lap = lap_piece if lap is None else lap + lap_piece
        out.append(dt_gk + (conv + lap * 0.5) * (2j * diffusion))
    return out


def _old_gradient_witness(field, diffusion, points):
    # verbatim, as it was before the three operators shared one jet
    finite("key diffusion", diffusion)
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


def _term_scale(field, diffusion, pt):
    """The largest coefficient at pt among the terms that the integrated
    residual adds: G_mu, d_t G_k and D psi^-1 L_k psi."""
    psi = field.value(pt)
    inv = psi.inverse()
    d1 = [field.derivative(pt, _old_unit(mu)) for mu in range(4)]
    g = [inv * d for d in d1]
    terms = list(g)
    lap = (field.derivative(pt, (0, 2, 0, 0))
           + field.derivative(pt, (0, 0, 2, 0))
           + field.derivative(pt, (0, 0, 0, 2)))
    for k in (1, 2, 3):
        terms.append(-(g[0] * g[k])
                     + inv * field.derivative(pt, _old_second(0, k)))
        lap_k = None
        for j in (1, 2, 3):
            piece = field.derivative(
                pt, _old_add(_old_second(j, j), _old_unit(k)))
            lap_k = piece if lap_k is None else lap_k + piece
        l_k = lap_k * inv - lap * (inv * (d1[k] * inv))
        terms.append((inv * l_k) * psi * diffusion)
    return max(t.max_abs() for t in terms)


def _old_acceleration_field(field, diffusion, pt):
    val = field.value(pt)
    inv = val.inverse()
    d1 = [field.derivative(pt, _old_unit(mu)) for mu in range(4)]
    g_t = inv * d1[0]
    lap = None
    for j in (1, 2, 3):
        piece = field.derivative(pt, _old_second(j, j))
        lap = piece if lap is None else lap + piece
    out = []
    for k in (1, 2, 3):
        gk = inv * d1[k]
        dt_gk = -(g_t * gk) + inv * field.derivative(pt, _old_second(0, k))
        lap_k = None
        for j in (1, 2, 3):
            o3 = _old_add(_old_second(j, j), _old_unit(k))
            piece = field.derivative(pt, o3)
            lap_k = piece if lap_k is None else lap_k + piece
        grad_term = lap_k * inv - lap * (inv * (d1[k] * inv))
        out.append(dt_gk + grad_term * (2j * diffusion))
    return out


def _bits(values):
    """Raw bytes of a list of biquaternions or arrays: equal bytes means
    bitwise-equal values, signs of zeros included."""
    return [np.asarray(getattr(v, "a", v), dtype=complex).tobytes()
            for v in values]


def _oracle_fields():
    rotor = product_field(rotor_field(1, 0.9, [0.8, 0.1, 0.0]),
                          rotor_field(2, -0.6, [0.0, 0.7, -0.3]))
    control = ExponentialField([
        (ONE, np.zeros(4)),
        _complex_wave(0.5, np.array([0.6, -0.1, 0.3]), 0.23),
        _complex_wave(0.2j, np.array([-0.2, 0.4, 0.1]), -0.4),
    ])
    return {"rotor": rotor, "control": control,
            "numeric": NumericField(rotor.value, h=1e-2)}


#: the integrated residual against its product-rule expansion, over the
#: largest term at the point; measured at most 38 eps on the oracle fields
#: and on twenty random three-term fields, D in {0.37, -0.5, 2}
RESIDUAL_EPS = 200 * np.finfo(float).eps


def _residual_gap(field, d, pt):
    """Largest coefficient of the integrated residual minus its expansion,
    over the point's largest term coefficient.  Per component the bound
    would not hold: a component may cancel to 1e-16 from O(1) terms."""
    new = geodesic_residual(field, d, pt)
    old = _old_geodesic_residual(field, d, pt)
    return max((a - b).max_abs() for a, b in zip(new, old)) \
        / _term_scale(field, d, pt)


@pytest.mark.parametrize("name", ["rotor", "control", "numeric"])
def test_operators_match_explicit_order_oracles_bitwise(name):
    # bitwise, except the geodesic residual: its integrated form rounds
    # differently from the expansion it replaced
    field = _oracle_fields()[name]
    d = 0.37
    v = [Biquaternion(0.3, 0.1), Biquaternion(-0.2), Biquaternion(0, 0, 0.5)]
    pts = sample_box(((0, 1),) * 4, 3, seed=5)
    for pt in pts:
        assert _residual_gap(field, d, pt) <= RESIDUAL_EPS
        assert _bits(acceleration_field(field, d, pt)) == \
            _bits(_old_acceleration_field(field, d, pt))
        assert _bits([covariant_derivative(lambda q: v, d, field, pt)]) == \
            _bits([_old_covariant_derivative(lambda q: v, d, field, pt)])
    assert _bits([gradient_witness(field, d, pts)]) == \
        _bits([_old_gradient_witness(field, d, pts)])


@pytest.mark.parametrize("d", [0.37, -0.5, 2.0])
def test_integrated_residual_equals_the_expansion_on_random_fields(d):
    rng = np.random.default_rng(19)
    for _ in range(5):
        field = ExponentialField([
            (Biquaternion.from_array(rng.uniform(-1, 1, 4)
                                     + 1j * rng.uniform(-1, 1, 4)),
             rng.uniform(-1, 1, 4) + 1j * rng.uniform(-1, 1, 4))
            for _ in range(3)])
        for pt in sample_box(((0, 1),) * 4, 2, seed=7):
            assert _residual_gap(field, d, pt) <= RESIDUAL_EPS


# -- oracle: ExponentialField.derivative as it was while the field stored
# each term's powers k_mu ** n up to third order as Python complex -------

def _old_exponential_derivative(field, pt, orders):
    pt = np.asarray(pt, dtype=float).reshape(4)
    pieces = []
    for amp, k in field.terms:
        powers = [[complex(k[mu] ** n) for n in (1, 2, 3)] for mu in range(4)]
        factor = complex(np.exp(k @ pt))
        for mu, n in enumerate(orders):
            if n:
                factor *= powers[mu][n - 1] if n <= 3 else k[mu] ** n
        pieces.append(amp * factor)
    out = pieces[0]
    for piece in pieces[1:]:
        out = out + piece
    return out


def _exponential_oracle_fields():
    rng = np.random.default_rng(43)
    k = rng.uniform(-1.5, 1.5, (3, 4)) + 1j * rng.uniform(-1.5, 1.5, (3, 4))
    vectors = ExponentialField([
        (rng.uniform(-1, 1, 4) + 1j * rng.uniform(-1, 1, 4), k[0]),
        (np.array([0.3, -0.0, 1.0j, -2.0]), k[1])])
    base = _oracle_fields()
    return {"rotor": base["rotor"], "control": base["control"],
            "bq": ExponentialField([(Biquaternion.from_array(
                rng.uniform(-1, 1, 4) + 1j * rng.uniform(-1, 1, 4)), k[2])]),
            "vectors": vectors,
            "dirac": dirac_plane_wave([0.6, 0.8j], [0.3, -0.4, 1.2], m=1.3)}


@pytest.mark.parametrize("name", ["rotor", "control", "bq", "vectors",
                                  "dirac"])
def test_exponential_derivative_equals_the_inline_power_oracle(name):
    field = _exponential_oracle_fields()[name]
    orders = list(np.ndindex(4, 4, 4, 4))  # each axis up to third order
    orders += [(4, 0, 0, 0), (0, 5, 1, 0), (1, 2, 3, 4), (0, 0, 0, 7)]
    for pt in sample_box(((-1, 1),) * 4, 3, seed=6):
        for o in orders:
            assert _bits([field.derivative(pt, o)]) == \
                _bits([_old_exponential_derivative(field, pt, o)]), o
