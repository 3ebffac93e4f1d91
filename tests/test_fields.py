"""Tests for plane-wave spinor fields and their derivatives."""

import cmath
import functools
import math
import operator
import re

import numpy as np
import pytest

from fractalspin.algebra import Biquaternion, E1, E2, ONE
from fractalspin.errors import AxisSingularity, ConfigError, NumericalError
from fractalspin.fields import (
    _AXIS_EPS2,
    PlaneWaveTerm,
    SpacetimePoint,
    SpinorField,
    amplitude_from_spinor,
    bloch_spinor,
    plane_wave,
    s0_from_diffusion,
    spiral_pair_field,
)
from fractalspin.velocity import bq_velocity

from fd_reference import (FD_H, NumericField, central_difference, fd_field,
                          fd_gradient_witness)

HBAR = 1.0


def _wave(p=(0.0, 0.0, 1.0), energy=0.5, sigma=0.0, amp=None, **consts):
    return plane_wave(amp or ONE, p, energy, sigma, hbar=HBAR, **consts)


def test_operator_signs_on_single_term():
    # d_t psi = +(i/hbar) E psi and d_k psi = -(i/hbar) p_k psi
    f = _wave(p=(0.3, -0.2, 1.1), energy=0.7)
    pt = SpacetimePoint(0.4, 0.1, -0.2, 0.3)
    v = f.value(pt)
    assert f.partial(pt, 0).allclose(v * (1j * 0.7 / HBAR), atol=1e-12)
    assert f.partial(pt, 1).allclose(v * (-1j * 0.3 / HBAR), atol=1e-12)
    assert f.partial(pt, 3).allclose(v * (-1j * 1.1 / HBAR), atol=1e-12)


def test_fd_matches_analytic():
    amp = Biquaternion(0.8, 0.1 + 0.2j, -0.3, 0.05j)
    f = SpinorField(
        [PlaneWaveTerm(amp, (0.4, 0.2, -0.6), 0.9),
         PlaneWaveTerm(ONE + E2, (-0.1, 0.0, 0.3), 0.2)],
        hbar=0.7)
    pt = (0.3, 0.9, 0.4, -0.2)
    for mu in range(4):
        d_true = f.partial(pt, mu)
        d_fd = central_difference(f.value, pt, mu, 1e-4)
        assert (d_true - d_fd).max_abs() < 1e-6


def test_spiral_phase_gradient():
    # at (x, y) = (1, 0) the azimuthal gradient points along +y with
    # magnitude sigma
    f = _wave(p=(0.0, 0.0, 1.0), energy=0.5, sigma=0.25)
    pt = (0.0, 1.0, 0.0, 0.0)
    v = f.value(pt)
    assert f.partial(pt, 1).allclose(v * 0.0, atol=1e-12)        # p_x + 0
    assert f.partial(pt, 2).allclose(v * (-1j * 0.25), atol=1e-12)
    d_fd = central_difference(f.value, pt, 2, 1e-5)
    assert (f.partial(pt, 2) - d_fd).max_abs() < 1e-6


def test_axis_singularity():
    f = _wave(sigma=0.5)
    with pytest.raises(AxisSingularity):
        f.value((0.0, 0.0, 0.0, 1.0))
    with pytest.raises(AxisSingularity):
        f.partial((0.0, 0.0, 0.0, 1.0), 1)
    # sigma = 0 is fine on the axis
    assert _wave(sigma=0.0).value((0.0, 0.0, 0.0, 1.0)) is not None


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_value_and_partial_refuse_a_non_finite_point(bad):
    f = _wave(sigma=0.5)
    for k in range(4):
        pt = [0.0, 1.0, 0.0, 0.0]
        pt[k] = bad
        message = f"key point: need finite numbers, got {tuple(pt)}"
        with pytest.raises(ConfigError, match=re.escape(message)):
            f.value(pt)
        for mu in range(4):
            with pytest.raises(ConfigError, match=re.escape(message)):
                f.partial(np.array(pt), mu)


def test_value_and_partial_refuse_an_overflowing_phase():
    # a finite point whose phase p.r/hbar overflows: exp(-i inf) is NaN
    pt = (0.0, 1e308, 0.0, 0.0)
    message = re.escape(f"term 0 phase: not finite at {pt}")
    f = plane_wave(ONE, (2.0, 0.0, 0.0), 1.0)
    with pytest.raises(NumericalError, match=message):
        f.value(pt)
    for mu in range(4):
        with pytest.raises(NumericalError, match=message):
            f.partial(pt, mu)
    # the term is named: here the second one overflows through its azimuth
    pair = SpinorField([PlaneWaveTerm(ONE, (0.0, 0.0, 1.0), 1.0),
                        PlaneWaveTerm(ONE, (0.0, 0.0, 1.0), 1.0, 1e308)],
                       hbar=1e-10)
    with pytest.raises(NumericalError, match=re.escape("term 1 phase")):
        pair.value((0.0, -1.0, -1e-3, 0.0))


def test_partial_refuses_an_overflowing_azimuthal_gradient():
    # theta is finite at the azimuth 0, but sigma * (x / rho^2) / hbar
    # overflows: partial(pt, 2) was all-NaN and bq_velocity gave a NaN V^2
    f = plane_wave(ONE, (0.0, 0.0, 1.0), 0.5, sigma=1e300, hbar=1e-10)
    pt = (0.0, 1.0, 0.0, 0.0)
    message = re.escape(f"term 0 phase gradient: not finite at {pt}")
    with pytest.raises(NumericalError, match=message):
        f.partial(pt, 2)
    with pytest.raises(NumericalError, match=message):
        bq_velocity(f, pt)


def test_remove_rest_phase_is_exact_scalar_factor():
    amp = Biquaternion(0.6, 0.2j, 0.1, -0.4)
    f = plane_wave(amp, (0.2, 0.0, 0.5), 1.3, hbar=0.5, m=2.0, c=3.0)
    g = f.remove_rest_phase()
    assert g.terms[0].energy == pytest.approx(1.3 - 2.0 * 9.0)
    pt = (0.7, 0.3, -0.1, 0.2)
    # psi' = psi * exp(-i m c^2 t / hbar)
    factor = complex(np.exp(-1j * 2.0 * 9.0 * 0.7 / 0.5))
    assert g.value(pt).allclose(f.value(pt) * factor, atol=1e-12)


def test_project_large_zeroes_lower_sector():
    amp = Biquaternion(0.6, 0.2j, 0.1, -0.4)
    f = plane_wave(amp, (0.0, 0.0, 0.1), 0.3)
    g = f.project_large()
    a = g.terms[0].amplitude.a
    assert a[2] == 0 and a[3] == 0
    assert a[0] == 0.6 and a[1] == 0.2j


def test_spiral_pair_validation():
    t0 = PlaneWaveTerm(ONE, (0.0, 0.0, 1.0), 0.5, 0.5)
    t_bad_p = PlaneWaveTerm(E1, (0.0, 0.1, 1.0), 0.6, 0.5)
    t_bad_s = PlaneWaveTerm(E1, (0.0, 0.0, 1.0), 0.6, 0.25)
    t_ok = PlaneWaveTerm(E1, (0.0, 0.0, 1.0), 0.6, 0.5)
    with pytest.raises(ConfigError, match="key p: .* momenta"):
        spiral_pair_field(t0, t_bad_p)
    with pytest.raises(ConfigError, match="key sigma: .* sigma"):
        spiral_pair_field(t0, t_bad_s)
    f = spiral_pair_field(t0, t_ok)
    assert len(f.terms) == 2


def test_bloch_spinor():
    rng = np.random.default_rng(7)
    for _ in range(100):
        th, ph = rng.uniform(0, np.pi), rng.uniform(-np.pi, np.pi)
        s = bloch_spinor(th, ph)
        assert np.vdot(s, s).real == pytest.approx(1.0, abs=1e-14)
    up = bloch_spinor(0.0, 0.0)
    assert np.allclose(up, [1.0, 0.0])
    # equal-weight superposition along +x
    sx = bloch_spinor(np.pi / 2, 0.0)
    assert abs(sx[0]) == pytest.approx(abs(sx[1]))


def test_amplitude_from_spinor_round_trip():
    s = bloch_spinor(1.1, -0.4)
    amp = amplitude_from_spinor(s)
    a = amp.a
    assert a[0] == s[0] and a[1] == s[1] and a[2] == 0 and a[3] == 0


def test_s0_default_and_diffusion_relation():
    # with power-of-two values 2*m*D is exact: s0(hbar) == s0(2mD) bitwise
    m, hbar = 1.0, 1.0
    d = hbar / (2.0 * m)
    assert s0_from_diffusion(m, d) == hbar
    f1 = plane_wave(ONE, (0, 0, 1), 0.5, m=m, hbar=hbar)
    f2 = plane_wave(ONE, (0, 0, 1), 0.5, m=m, hbar=hbar,
                    s0=s0_from_diffusion(m, d))
    assert f1.s0 == f2.s0


def test_constants_stored():
    f = plane_wave(ONE, (0, 0, 1), 0.5, hbar=0.1, m=2.0, c=5.0, s0=0.25)
    assert (f.hbar, f.m, f.c, f.s0) == (0.1, 2.0, 5.0, 0.25)
    assert plane_wave(ONE, (0, 0, 1), 0.5, hbar=0.3).s0 == 0.3


@pytest.mark.parametrize("key", ["hbar", "m", "c", "s0"])
@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
def test_spinor_field_refuses_constants_not_finite_and_positive(key, bad):
    message = f"key {key}: need a finite number > 0, got {bad!r}"
    with pytest.raises(ConfigError, match=re.escape(message)):
        plane_wave(ONE, (0, 0, 1.0), 0.5, **{key: bad})


def test_spinor_field_checks_the_s0_it_resolves():
    # an integer 0 is named as given, and s0 left to default follows
    # hbar, which is named first
    with pytest.raises(ConfigError, match=re.escape("key m: need a finite "
                                                    "number > 0, got 0")):
        plane_wave(ONE, (0, 0, 1.0), 0.5, m=0)
    with pytest.raises(ConfigError, match="key hbar:"):
        plane_wave(ONE, (0, 0, 1.0), 0.5, hbar=math.inf, s0=1.0)
    with pytest.raises(ConfigError, match="key hbar:"):
        plane_wave(ONE, (0, 0, 1.0), 0.5, hbar=-2.0)
    assert plane_wave(ONE, (0, 0, 1.0), 0.5, hbar=0.4).s0 == 0.4


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_spinor_field_refuses_a_non_finite_momentum(bad):
    message = f"term 1 p: need three finite numbers, got (0, {bad!r}, 1)"
    good = PlaneWaveTerm(ONE, (0.0, 0.0, 1.0), 0.5)
    with pytest.raises(ConfigError, match=re.escape(message)):
        SpinorField([good, PlaneWaveTerm(E1, (0, bad, 1), 0.5)])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_spinor_field_refuses_a_non_finite_energy(bad):
    message = f"term 0 energy: need a finite number, got {bad!r}"
    with pytest.raises(ConfigError, match=re.escape(message)):
        plane_wave(ONE, (0.0, 0.0, 1.0), bad)


@pytest.mark.parametrize("p, energy, message", [
    ((0, 0, 1), 1e300, "term 0 wave vector (-energy, p) / hbar: need four "
                       "finite numbers, got (-inf, 0.0, 0.0, 10000000000.0)"),
    ((0, -1e300, 1), 0.5, "term 0 wave vector (-energy, p) / hbar: need four "
                          "finite numbers, got (-5000000000.0, 0.0, -inf, "
                          "10000000000.0)"),
])
def test_spinor_field_refuses_an_overflowing_wave_vector(p, energy, message):
    # finite energy and momentum whose wave vector (-E, p) / hbar is not:
    # the field built, and bq_velocity gave a NaN V^0 without an error
    with pytest.raises(ConfigError, match=re.escape(message)):
        plane_wave(ONE, p, energy, hbar=1e-10)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_spinor_field_refuses_a_non_finite_sigma(bad):
    message = f"term 0 sigma: need a finite number, got {bad!r}"
    with pytest.raises(ConfigError, match=re.escape(message)):
        plane_wave(ONE, (0.0, 0.0, 1.0), 0.5, sigma=bad)


@pytest.mark.parametrize("coeff", [complex(math.nan, 0.0),
                                   complex(0.0, math.inf),
                                   complex(-math.inf, 1.0)])
def test_spinor_field_refuses_a_non_finite_amplitude(coeff):
    amp = Biquaternion(1.0, 0.0, 0.0, coeff)
    message = ("term 0 amplitude: need four finite numbers, "
               f"got ((1+0j), 0j, 0j, {coeff!r})")
    with pytest.raises(ConfigError, match=re.escape(message)):
        plane_wave(amp, (0.0, 0.0, 1.0), 0.5)


def test_spinor_field_refuses_an_amplitude_outside_the_biquaternions():
    # a bare scalar is not an amplitude, though it would multiply the phase
    message = "term 0 amplitude: need a Biquaternion, got 1.0"
    with pytest.raises(ConfigError, match=re.escape(message)):
        plane_wave(1.0, (0.0, 0.0, 1.0), 0.5)


def test_spinor_field_checks_its_constants_before_its_terms():
    # a bad hbar is named, not a division by it
    with pytest.raises(ConfigError, match="key hbar:"):
        plane_wave(ONE, (math.nan, 0.0, 1.0), 0.5, hbar=0.0)


def test_central_difference_reproduces_the_old_stencils_bitwise():
    # the stencils central_difference replaced, copied as they were;
    # every route that still goes through it must give the same bits
    from fractalspin import velocity
    from fractalspin.dynamics import (ExponentialField, acceleration_field,
                                      gradient_witness, product_field,
                                      rotor_field, sample_box)

    class OldStencilField(SpinorField):
        """partial() is the old SpinorField.partial_fd at h = 1e-4."""

        def partial(self, pt, mu):
            up, dn = list(pt), list(pt)
            up[mu] += 1e-4
            dn[mu] -= 1e-4
            return (self.value(up) - self.value(dn)) * (0.5 / 1e-4)

    terms = [PlaneWaveTerm(Biquaternion(0.8, 0.6j, 0.1, -0.2j),
                           (0.1, 0.2, 1.0), 1.1, 0.5),
             PlaneWaveTerm(Biquaternion(0.3, 0.2), (0.1, 0.2, 1.0), 2.3, 0.5)]
    new, old = SpinorField(terms, m=1.3, c=2.0), \
        OldStencilField(terms, m=1.3, c=2.0)
    pt = (0.2, 1.0, 0.4, -0.3)
    for mu in range(4):
        assert central_difference(new.value, pt, mu, 1e-4) == old.partial(pt, mu)
    fd = fd_field(new)
    for route in (velocity.bq_velocity, velocity.conjugate_velocity,
                  velocity.pauli_recompose):
        assert route(fd, pt) == route(old, pt)
    for name, got in velocity.component_velocities(fd, pt).as_dict().items():
        assert np.array_equal(got, getattr(
            velocity.component_velocities(old, pt), name))

    def old_nested(fn, q, orders, h):
        if sum(orders) == 0:
            return fn(np.asarray(q, dtype=float).reshape(4))
        q = np.asarray(q, dtype=float).reshape(4)
        mu = next(i for i, n in enumerate(orders) if n)
        rest = tuple(n - (i == mu) for i, n in enumerate(orders))
        up, dn = q.copy(), q.copy()
        up[mu] += h
        dn[mu] -= h
        return (old_nested(fn, up, rest, h) - old_nested(fn, dn, rest, h)) \
            * (0.5 / h)

    rot = product_field(rotor_field(1, 0.9, (0.8, 0, 0)),
                        rotor_field(2, -0.6, (0, 0.7, 0)))
    numeric = NumericField(rot.value, h=1e-3)
    q = (0.1, -0.3, 0.25, 0.4)
    for orders in ((1, 0, 0, 0), (0, 2, 0, 0), (1, 1, 0, 1), (0, 2, 1, 0)):
        assert numeric.derivative(q, orders) == \
            old_nested(rot.value, q, orders, 1e-3)

    # the exact witness against the FD curl oracle.  A central difference
    # is off by (h^2 / 6) d^3 E per derivative, so a curl component by at
    # most 2 (h^2 / 6) max |d_j^3 E_k|; the third derivatives come from a
    # coarse third difference of E, and the bound takes a factor 2 for
    # the higher orders
    def third_derivative_scale(field, diffusion, points, s=1e-2):
        worst = 0.0
        for p in points:
            for j in (1, 2, 3):
                e = []
                for off in (2, 1, -1, -2):
                    q = np.array(p, dtype=float)
                    q[j] += off * s
                    e.append(acceleration_field(field, diffusion, q))
                for a, b, c, d in zip(*e):
                    worst = max(worst, ((a - b * 2.0 + c * 2.0 - d)
                                        * (0.5 / s**3)).max_abs())
        return worst

    control = ExponentialField([
        (ONE, np.zeros(4)),
        (ONE * 0.5, 1j * np.array([-0.23, 0.6, -0.1, 0.3])),
        (ONE * 0.2j, 1j * np.array([0.4, -0.2, 0.4, 0.1]))])
    pts = sample_box(((-0.4, 0.4),) * 4, 3, seed=3)
    for field in (rot, control):
        bound = 2.0 * (2.0 * FD_H**2 / 6.0) \
            * third_derivative_scale(field, 0.5, pts)
        assert abs(gradient_witness(field, 0.5, pts)
                   - fd_gradient_witness(field, 0.5, pts)) <= bound


# -- the evaluation that the wave vectors and cmath.exp replaced, copied
# as it was: numpy exp, the whole gradient rebuilt per term and call ----

def _old_phase_and_grad(field, term, pt):
    t, x, y, z = (float(v) for v in pt)
    px, py, pz = term.p
    theta = (px * x + py * y + pz * z - term.energy * t) / field.hbar
    grad = [-term.energy / field.hbar, px / field.hbar, py / field.hbar,
            pz / field.hbar]
    if term.sigma != 0.0:
        rho2 = x * x + y * y
        if rho2 <= 1e-24:
            raise AxisSingularity("azimuthal phase is undefined on the z-axis")
        theta += term.sigma * math.atan2(y, x) / field.hbar
        grad[1] += term.sigma * (-y / rho2) / field.hbar
        grad[2] += term.sigma * (x / rho2) / field.hbar
    return theta, grad


def _old_value(field, pt):
    def piece(term):
        theta, _ = _old_phase_and_grad(field, term, pt)
        return term.amplitude * complex(np.exp(-1j * theta))
    return functools.reduce(operator.add, map(piece, field.terms))


def _old_partial(field, pt, mu):
    def piece(term):
        theta, grad = _old_phase_and_grad(field, term, pt)
        return term.amplitude * complex(-1j * grad[mu] * np.exp(-1j * theta))
    return functools.reduce(operator.add, map(piece, field.terms))


def _oracle_field(rng, n_terms, spiral, hbar):
    terms = [PlaneWaveTerm(
        Biquaternion.from_array(rng.uniform(-1, 1, 4)
                                + 1j * rng.uniform(-1, 1, 4)),
        tuple(rng.uniform(-2, 2, 3)), rng.uniform(-2, 2),
        rng.uniform(-1.5, 1.5) if spiral else 0.0)
        for _ in range(n_terms)]
    return SpinorField(terms, hbar=hbar)


def _oracle_points(rng):
    """Random points, points beside the atan2 cut and points just off
    the axis."""
    pts = [tuple(rng.uniform(-3, 3, 4)) for _ in range(6)]
    for y in (0.0, -0.0, 1e-300, -1e-300):
        pts.append((rng.uniform(-1, 1), -rng.uniform(0.1, 3), y,
                    rng.uniform(-1, 1)))
    for _ in range(3):
        r = math.sqrt(_AXIS_EPS2) * (1 + rng.uniform(1e-6, 1e-3))
        a = rng.uniform(-math.pi, math.pi)
        pts.append((rng.uniform(-1, 1), r * math.cos(a), r * math.sin(a),
                    rng.uniform(-1, 1)))
    return pts


def _coeff_bytes(q):
    return q.a.tobytes()


@pytest.mark.parametrize("hbar", [1.0, 0.1, 3.7])
@pytest.mark.parametrize("n_terms", [1, 2, 3])
@pytest.mark.parametrize("spiral", [False, True])
def test_field_evaluation_equals_the_old_evaluation_bitwise(hbar, n_terms,
                                                             spiral):
    # hbar = 1 makes every division by it exact; 0.1 and 3.7 catch a
    # reordered sigma * (-y / rho^2) / hbar
    rng = np.random.default_rng([47, n_terms, int(spiral), int(hbar * 10)])
    for _ in range(12):
        field = _oracle_field(rng, n_terms, spiral, hbar)
        for pt in _oracle_points(rng):
            assert _coeff_bytes(field.value(pt)) == \
                _coeff_bytes(_old_value(field, pt))
            for mu in range(4):
                assert _coeff_bytes(field.partial(pt, mu)) == \
                    _coeff_bytes(_old_partial(field, pt, mu))


def test_axis_singularity_at_and_below_the_threshold():
    rng = np.random.default_rng(48)
    field = _oracle_field(rng, 2, True, 0.1)
    flat = _oracle_field(rng, 2, False, 0.1)
    side = math.sqrt(0.5e-24)
    for x, y in ((0.0, 0.0), (-0.0, 0.0), (1e-12, 0.0), (0.0, -1e-12),
                 (side, -side), (3e-13, 4e-13)):
        assert x * x + y * y <= _AXIS_EPS2
        pt = (0.3, x, y, -0.2)
        with pytest.raises(AxisSingularity):
            field.value(pt)
        for mu in range(4):
            with pytest.raises(AxisSingularity):
                field.partial(pt, mu)
        # sigma = 0 terms carry no azimuth and stay defined on the axis
        assert _coeff_bytes(flat.value(pt)) == \
            _coeff_bytes(_old_value(flat, pt))


# -- oracle: _phases as it was before it shared one azimuth between the
# spiraling terms of a point --------------------------------------------

def _old_phases(field, pt):
    t, x, y, z = map(float, pt)
    hbar = field.hbar
    out = []
    for term in field.terms:
        px, py, pz = term.p
        wave = (-term.energy / hbar, px / hbar, py / hbar, pz / hbar)
        theta = (px * x + py * y + pz * z - term.energy * t) / hbar
        sigma = term.sigma
        if sigma != 0.0:
            rho2 = x * x + y * y
            if rho2 <= _AXIS_EPS2:
                raise AxisSingularity(
                    "azimuthal phase is undefined on the z-axis "
                    f"(rho^2 = {rho2:.3e}, sigma = {sigma})")
            theta += sigma * math.atan2(y, x) / hbar
            w0, w1, w2, w3 = wave
            wave = (w0, w1 + sigma * (-y / rho2) / hbar,
                    w2 + sigma * (x / rho2) / hbar, w3)
        out.append((term.amplitude, theta, wave))
    return out


def _old_sum(field, pt, mu):
    """value (mu None) or partial(pt, mu) from _old_phases with the
    Biquaternion products and the left-to-right sum they were built from."""
    pieces = []
    for amp, theta, grad in _old_phases(field, pt):
        w = cmath.exp(-1j * theta)
        pieces.append(amp * w if mu is None
                      else amp * (-1j * grad[mu] * w))
    return functools.reduce(operator.add, pieces)


@pytest.mark.parametrize("hbar", [1.0, 0.1, 3.7])
@pytest.mark.parametrize("sigmas", [(0.7, 0.0, -1.3), (0.0, 0.5, 0.0, 0.5),
                                    (1.1, 0.0, 0.0, 2.0), (0.0, -0.4)])
def test_phases_equal_the_per_term_azimuth_oracle_bitwise(hbar, sigmas):
    # a sigma = 0 term between spiraling terms carries the bare wave
    # vector; the spiraling terms share one azimuth, and the coefficient
    # sums give the bytes of the per-term products added left to right.
    # No term has an e3 part, so the e3 sums add signed zeros, and a -0.0
    # there shows the sum starts from the first piece, not from 0
    rng = np.random.default_rng([49, len(sigmas), int(hbar * 10)])
    for _ in range(8):
        field = _oracle_field(rng, len(sigmas), False, hbar)
        field = SpinorField([t._replace(sigma=s, amplitude=Biquaternion(
            *t.amplitude.a[:3])) for t, s in zip(field.terms, sigmas)],
            hbar=hbar)
        for pt in _oracle_points(rng):
            assert _coeff_bytes(field.value(pt)) == \
                _coeff_bytes(_old_sum(field, pt, None))
            for mu in range(4):
                assert _coeff_bytes(field.partial(pt, mu)) == \
                    _coeff_bytes(_old_sum(field, pt, mu))


def test_axis_refusal_names_the_first_spiraling_term():
    rng = np.random.default_rng(50)
    field = _oracle_field(rng, 3, False, 1.0)
    field = SpinorField([t._replace(sigma=s) for t, s in
                         zip(field.terms, (0.0, 0.7, -1.3))], hbar=1.0)
    pt = (0.3, 1e-13, -2e-13, 0.1)
    with pytest.raises(AxisSingularity) as want:
        _old_phases(field, pt)
    for mu in (None, 0, 1, 2, 3):
        with pytest.raises(AxisSingularity) as got:
            field.value(pt) if mu is None else field.partial(pt, mu)
        assert str(got.value) == str(want.value)
    assert "sigma = 0.7)" in str(want.value)
