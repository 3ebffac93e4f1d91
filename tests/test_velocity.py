"""Tests for velocity extraction.

Dual-route checks: the component route (explicit real bilinear sums) is
compared against complex-coefficient products computed directly here, and
against the biquaternion conjugate/inverse routes.
"""

import math

import numpy as np
import pytest

from fractalspin.algebra import Biquaternion, E1, E2, ONE
from fractalspin.errors import (ConfigError, NotNormalized, NumericalError,
                               SmallComponentsNotSmall)
from fractalspin.fields import (PlaneWaveTerm, SpinorField, plane_wave,
                                spiral_pair_field)
from fractalspin.simulate import spiral_drift
from fractalspin.velocity import (
    _pq_sums,
    VelocityComponents,
    bq_velocity,
    component_velocities,
    conjugate_velocity,
    nonrel_reduce,
    pauli_recompose,
    recompose_velocity,
)

from fd_reference import central_difference, fd_field


def _rand_field(rng, n_terms=2, large_only=False, sigma=0.0, c=2.0):
    terms = []
    for _ in range(n_terms):
        a = rng.uniform(-1, 1, 4) + 1j * rng.uniform(-1, 1, 4)
        if large_only:
            a[2] = a[3] = 0.0
        terms.append(PlaneWaveTerm(Biquaternion.from_array(a),
                                   tuple(rng.uniform(-1, 1, 3)),
                                   rng.uniform(-1, 1), sigma))
    return SpinorField(terms, hbar=0.8, m=1.3, c=c, s0=0.5)


def _rand_point(rng):
    pt = rng.uniform(-1, 1, 4)
    pt[1] += 2.0  # keep x positive: away from axis and azimuth cut
    return pt


def _unit_at(field, pt):
    """field scaled so that its primed value has unit eight-square norm at
    pt, as nonrel_reduce requires."""
    primed = field.remove_rest_phase().project_large()
    scale = 1.0 / math.sqrt(primed.value(pt).eight_square_norm())
    terms = [t._replace(amplitude=t.amplitude * scale) for t in field.terms]
    return SpinorField(terms, hbar=field.hbar, m=field.m, c=field.c,
                       s0=field.s0)


def _sectors_of_conj_product(field, pt, mu):
    """Oracle: coefficients of conj(psi) * D^mu psi via complex algebra."""
    a = field.value(pt).a
    raw = field.partial(pt, mu)
    b = (raw * (-1.0 if mu == 0 else field.c)).a
    s0 = a[0]*b[0] + a[1]*b[1] + a[2]*b[2] + a[3]*b[3]
    s1 = a[0]*b[1] - a[1]*b[0] - a[2]*b[3] + a[3]*b[2]
    s2 = a[0]*b[2] + a[1]*b[3] - a[2]*b[0] - a[3]*b[1]
    s3 = a[0]*b[3] - a[1]*b[2] + a[2]*b[1] - a[3]*b[0]
    return np.array([s0, s1, s2, s3])


def test_plane_wave_four_velocity():
    # V^k = p_k / m and V^0 = (s0/hbar) E / (m c) on a unit plane wave
    rng = np.random.default_rng(21)
    for _ in range(100):
        p = rng.uniform(-2, 2, 3)
        e = rng.uniform(0.1, 3.0)
        m, c, hbar = 1.7, 3.0, 1.0
        f = plane_wave(ONE, p, e, hbar=hbar, m=m, c=c)  # s0 defaults to hbar
        v = bq_velocity(f, _rand_point(rng))
        for k in range(3):
            a = v[k + 1].a
            assert abs(a[0] - p[k] / m) < 1e-10
            assert np.max(np.abs(a[1:])) < 1e-10
        a0 = v[0].a
        assert abs(a0[0] - e / (m * c)) < 1e-10


def test_fd_route_matches_analytic():
    rng = np.random.default_rng(22)
    f = _rand_field(rng)
    pt = _rand_point(rng)
    va = bq_velocity(f, pt)
    vf = bq_velocity(fd_field(f), pt)
    for mu in range(4):
        assert (va[mu] - vf[mu]).max_abs() < 1e-6


@pytest.mark.parametrize("route", [bq_velocity, conjugate_velocity,
                                   component_velocities])
def test_routes_refuse_a_non_finite_point(route):
    f = _rand_field(np.random.default_rng(38), sigma=0.5)
    for bad in (math.nan, math.inf, -math.inf):
        for k in range(4):
            pt = [0.0, 1.0, 0.0, 0.0]
            pt[k] = bad
            with pytest.raises(ConfigError, match="key point: need finite"):
                route(f, pt)
    # a finite point whose phase overflows: NaN velocities before
    with pytest.raises(NumericalError, match="term 0 phase: not finite"):
        route(plane_wave(ONE, (2.0, 0.0, 0.0), 1.0), (0.0, 1e308, 0.0, 0.0))


def test_conjugate_equals_norm_times_inverse_route():
    rng = np.random.default_rng(23)
    for _ in range(50):
        f = _rand_field(rng)
        pt = _rand_point(rng)
        n = f.value(pt).complex_norm()
        vc = conjugate_velocity(f, pt)
        vb = bq_velocity(f, pt)
        for mu in range(4):
            assert (vc[mu] - vb[mu] * n).max_abs() < 1e-9


def test_components_against_complex_product_oracle():
    rng = np.random.default_rng(24)
    for _ in range(50):
        f = _rand_field(rng)
        pt = _rand_point(rng)
        comp = component_velocities(f, pt)
        scale = -f.s0 / (f.m * f.c)
        for mu in range(4):
            s = _sectors_of_conj_product(f, pt, mu)
            pq = [(s[k].imag, s[k].real) for k in range(4)]  # (P_k, Q_k)
            assert comp.v_pp[mu] == pytest.approx(scale * (pq[0][0] + pq[0][1]), abs=1e-12)
            assert comp.v_mm[mu] == pytest.approx(scale * (pq[0][0] - pq[0][1]), abs=1e-12)
            assert comp.v_pm[mu] == pytest.approx(scale * (pq[1][0] + pq[1][1]), abs=1e-12)
            assert comp.v_mp[mu] == pytest.approx(scale * (pq[1][0] - pq[1][1]), abs=1e-12)
            assert comp.vt_pp[mu] == pytest.approx(scale * (pq[2][0] + pq[2][1]), abs=1e-12)
            assert comp.vt_mm[mu] == pytest.approx(scale * (pq[2][0] - pq[2][1]), abs=1e-12)
            assert comp.vt_pm[mu] == pytest.approx(scale * (pq[3][0] + pq[3][1]), abs=1e-12)
            assert comp.vt_mp[mu] == pytest.approx(scale * (pq[3][0] - pq[3][1]), abs=1e-12)


def test_recompose_closes_on_conjugate_route():
    rng = np.random.default_rng(25)
    for _ in range(50):
        f = _rand_field(rng, n_terms=3)
        pt = _rand_point(rng)
        rec = recompose_velocity(component_velocities(f, pt))
        vc = conjugate_velocity(f, pt)
        for mu in range(4):
            assert (rec[mu] - vc[mu]).max_abs() < 1e-12


def test_component_velocities_are_real_by_construction():
    rng = np.random.default_rng(26)
    f = _rand_field(rng)
    comp = component_velocities(f, _rand_point(rng))
    for arr in comp.as_dict().values():
        assert arr.dtype == np.float64


def test_spiral_field_closure_and_tilde_vanish():
    # two-term spiral superposition with amplitudes in the (1, e1) block
    t0 = PlaneWaveTerm(Biquaternion(0.8, 0.6j), (0.0, 0.0, 1.0), 0.5, 0.5)
    t1 = PlaneWaveTerm(Biquaternion(0.3, 0.2), (0.0, 0.0, 1.0), 0.9, 0.5)
    f = spiral_pair_field(t0, t1, hbar=1.0, m=1.0)
    rng = np.random.default_rng(27)
    for _ in range(30):
        pt = _rand_point(rng)
        comp = component_velocities(f, pt)
        assert comp.tilde_max_abs() < 1e-12
        rec = recompose_velocity(comp)
        vc = conjugate_velocity(f, pt)
        for mu in range(4):
            assert (rec[mu] - vc[mu]).max_abs() < 1e-12


def test_spiral_azimuthal_velocity():
    # single spiral term, unit amplitude: V = (p + sigma * grad phi_az)/m;
    # at (1, 0, 0) the azimuthal gradient is sigma * y_hat
    sigma, p0, m = 0.5, 1.0, 1.0
    f = plane_wave(ONE, (0.0, 0.0, p0), 0.7, sigma, hbar=1.0, m=m)
    v = bq_velocity(f, (0.3, 1.0, 0.0, 0.0))
    assert v[1].a[0] == pytest.approx(0.0, abs=1e-12)          # x
    assert v[2].a[0] == pytest.approx(sigma / m, abs=1e-12)    # y
    assert v[3].a[0] == pytest.approx(p0 / m, abs=1e-12)       # z
    # tangential speed falls off as sigma/(m r)
    v2 = bq_velocity(f, (0.3, 2.0, 0.0, 0.0))
    assert v2[2].a[0] == pytest.approx(sigma / (m * 2.0), abs=1e-12)


def test_rejected_tilde_component_does_not_vanish():
    # an alternative pairing of the eight components assigns the v_mm row,
    # -s0/(m c) (P - Q), to a tilde slot; on a large-only unit plane wave
    # it oscillates with amplitude |p|/m instead of vanishing, which is why
    # component_velocities pairs them as it does
    f = plane_wave(ONE, (0.0, 0.0, 1.0), 0.5, hbar=1.0, m=1.0)
    comp = component_velocities(f, (0.0, 0.0, 0.0, 0.0))  # phase = 0 here
    assert abs(comp.v_mm[3] - 1.0) < 1e-12  # (p/m)(cos 0 - sin 0) = p/m
    # while the honest tilde components of the same field vanish
    assert comp.tilde_max_abs() < 1e-14


def test_nonrel_reduce_rest_field():
    rng = np.random.default_rng(28)
    m, c = 1.0, 1.0
    for _ in range(20):
        g = rng.uniform(0, 2 * np.pi)
        amp = Biquaternion(np.cos(g), np.sin(g))
        f = plane_wave(amp, (0, 0, 0), m * c**2, hbar=1.0, m=m, c=c)
        red = nonrel_reduce(f, (0.4, 0.1, 0.2, 0.3))
        assert abs(red.v0 - c) < 1e-12
        for k in range(3):
            assert red.v[k].max_abs() < 1e-12


def test_nonrel_reduce_moving_field():
    m, c, hbar = 1.0, 10.0, 1.0
    p = np.array([0.0, 0.0, 0.5])
    e = m * c**2 + float(p @ p) / (2 * m)
    g = 0.3
    amp = Biquaternion(np.cos(g), np.sin(g))
    f = plane_wave(amp, p, e, hbar=hbar, m=m, c=c)
    red = nonrel_reduce(f, (0.2, 0.3, -0.1, 0.4))
    # spatial velocity is real p/m in the scalar slot, no e2/e3 leakage
    assert red.v[2].a[0].real == pytest.approx(p[2] / m, abs=1e-12)
    assert abs(red.v[2].a[0].imag) < 1e-12
    for k in range(3):
        assert np.max(np.abs(red.v[k].a[2:])) < 1e-14


def test_nonrel_reduce_error_paths():
    bad_small = plane_wave(Biquaternion(1.0, 0.0, 1e-3), (0, 0, 0), 1.0)
    with pytest.raises(SmallComponentsNotSmall):
        nonrel_reduce(bad_small, (0, 0.5, 0, 0))
    bad_norm = plane_wave(2.0 * ONE, (0, 0, 0), 1.0)
    with pytest.raises(NotNormalized):
        nonrel_reduce(bad_norm, (0, 0.5, 0, 0))


def test_pauli_recompose_matches_conjugate_spatial():
    rng = np.random.default_rng(29)
    for _ in range(20):
        f = _rand_field(rng, large_only=True)
        primed = f.remove_rest_phase()
        pt = _rand_point(rng)
        rec = pauli_recompose(primed, pt)
        vc = conjugate_velocity(primed, pt)
        for k in range(3):
            assert (rec[k] - vc[k + 1]).max_abs() < 1e-12
        # and the N(psi) relation against the true-inverse route
        n = primed.value(pt).complex_norm()
        vb = bq_velocity(primed, pt)
        for k in range(3):
            assert (rec[k] - vb[k + 1] * n).max_abs() < 1e-9


def test_spiral_pair_velocity_is_the_simulated_drift():
    # the contract between the velocity and trajectory layers: the spatial
    # bq_velocity of a spiral pair (common p_z and sigma, unequal energies)
    # is real and scalar, and equals the drift the integrators follow
    hbar, m, sigma, pz = 0.1, 1.0, 0.5, 1.0
    t0 = PlaneWaveTerm(Biquaternion(1.0, 0.0), (0.0, 0.0, pz), 1.1, sigma)
    t1 = PlaneWaveTerm(Biquaternion(0.5, 0.25j), (0.0, 0.0, pz), 2.3, sigma)
    field = spiral_pair_field(t0, t1, hbar=hbar, m=m)
    rng = np.random.default_rng(11)
    for pt in rng.uniform(-2.0, 2.0, (200, 4)):
        drift = spiral_drift(pt[1:], m=m, p0=pz, sigma0=sigma)
        coeffs = np.array([v.a for v in bq_velocity(field, pt)[1:]])
        scale = np.max(np.abs(drift))
        assert np.max(np.abs(coeffs[:, 0].real - drift)) <= 1e-13 * scale
        assert np.max(np.abs(coeffs[:, 0].imag)) <= 1e-13 * scale
        assert np.max(np.abs(coeffs[:, 1:])) <= 1e-13 * scale


# -- oracles: the per-route products as written before they shared _route --

def _old_raw_partials(field, pt, method, h=1e-4):
    if method == "analytic":
        return [field.partial(pt, mu) for mu in range(4)]
    return [central_difference(field.value, pt, mu, h) for mu in range(4)]


def _old_component_velocities(field, pt, method):
    # numpy-scalar sums, filled into the eight arrays one raised index at a
    # time
    v = field.value(pt)
    scale = -field.s0 / (field.m * field.c)
    d = _old_raw_partials(field, pt, method)
    fed = (d[0] * (-1.0), d[1] * field.c, d[2] * field.c, d[3] * field.c)
    out = {k: np.empty(4) for k in ("v_pp", "v_pm", "v_mp", "v_mm",
                                    "vt_pp", "vt_pm", "vt_mp", "vt_mm")}
    for mu, dmu in enumerate(fed):
        p, q = (np.array(s) for s in _pq_sums(v.a.real, v.a.imag,
                                              dmu.a.real, dmu.a.imag))
        out["v_pp"][mu] = scale * (p[0] + q[0])
        out["v_mm"][mu] = scale * (p[0] - q[0])
        out["v_pm"][mu] = scale * (p[1] + q[1])
        out["v_mp"][mu] = scale * (p[1] - q[1])
        out["vt_pp"][mu] = scale * (p[2] + q[2])
        out["vt_mm"][mu] = scale * (p[2] - q[2])
        out["vt_pm"][mu] = scale * (p[3] + q[3])
        out["vt_mp"][mu] = scale * (p[3] - q[3])
    return out


def _old_primed(field):
    # rest phase removed and e2/e3 dropped, term by term
    shift = field.m * field.c ** 2
    terms = [PlaneWaveTerm(Biquaternion(t.amplitude.a[0], t.amplitude.a[1]),
                           t.p, t.energy - shift, t.sigma)
             for t in field.terms]
    return SpinorField(terms, hbar=field.hbar, m=field.m, c=field.c,
                       s0=field.s0)


def _old_nonrel_v(field, pt, method):
    # i (s0/m) psi'^-1 d_k psi' on the raw spatial derivatives
    primed = _old_primed(field)
    psi_inv = primed.value(pt).inverse()
    scale = 1j * field.s0 / field.m
    d = _old_raw_partials(primed, pt, method)
    return tuple((psi_inv * d[k]) * scale for k in (1, 2, 3))


def _bytes(bqs):
    return b"".join(v.a.tobytes() for v in bqs)


@pytest.mark.parametrize("method", ["analytic", "fd"])
def test_component_velocities_equal_the_per_mu_oracle_bytewise(method):
    rng = np.random.default_rng(31)
    for i in range(60):
        f = _rand_field(rng, n_terms=2 + i % 2, sigma=0.5 * (i % 3 == 0),
                        c=[1.0, 1.7, 3.7][i % 3])
        pt = _rand_point(rng)
        fed = fd_field(f) if method == "fd" else f
        comp = component_velocities(fed, pt).as_dict()
        oracle = _old_component_velocities(f, pt, method)
        assert list(comp) == list(oracle)
        for name, arr in oracle.items():
            assert comp[name].dtype == arr.dtype
            assert comp[name].tobytes() == arr.tobytes(), name


@pytest.mark.parametrize("method", ["analytic", "fd"])
@pytest.mark.parametrize("c, rel", [(1.0, 0.0), (3.7, 2e-15), (10.0, 2e-15)])
def test_nonrel_reduce_equals_the_old_product(method, c, rel):
    # bitwise at c = 1; elsewhere c (d psi)/(m c) rounds unlike d psi/m
    rng = np.random.default_rng(32)
    for i in range(100):
        f = _rand_field(rng, large_only=True, sigma=0.5 * (i % 2), c=c)
        pt = _rand_point(rng)
        f = _unit_at(f, pt)
        assert f.remove_rest_phase().project_large().terms == \
            _old_primed(f).terms
        got = nonrel_reduce(fd_field(f) if method == "fd" else f, pt).v
        want = _old_nonrel_v(f, pt, method)
        if rel == 0.0:
            assert _bytes(got) == _bytes(want)
        else:
            size = max(v.max_abs() for v in want)
            assert max((g - w).max_abs() for g, w in zip(got, want)) \
                <= rel * size


def test_nonrel_reduce_evaluates_each_field_once(monkeypatch):
    # once the field, to test the lower components; once the primed field
    pt = _rand_point(np.random.default_rng(35))
    f = _unit_at(_rand_field(np.random.default_rng(34), large_only=True), pt)
    calls = []
    value = SpinorField.value
    monkeypatch.setattr(SpinorField, "value",
                        lambda self, pt: calls.append(pt) or value(self, pt))
    nonrel_reduce(f, pt)
    assert len(calls) == 2


@pytest.mark.parametrize("c", [1.0, 1.7, 10.0])
def test_nonrel_reduce_is_the_spatial_bq_velocity_of_the_primed_field(c):
    # the Pauli 3-velocity is the non-relativistic degeneracy of the
    # biquaternion 4-velocity
    rng = np.random.default_rng(33)
    for _ in range(50):
        f = _rand_field(rng, large_only=True, c=c)
        pt = _rand_point(rng)
        f = _unit_at(f, pt)
        primed = f.remove_rest_phase().project_large()
        assert nonrel_reduce(f, pt).v == bq_velocity(primed, pt)[1:]


@pytest.mark.parametrize("route", [bq_velocity, conjugate_velocity,
                                   component_velocities])
def test_each_route_makes_one_value_and_one_four_derivative_partial_call(
        monkeypatch, route):
    # the per-layer trace counts and times these calls; the four
    # derivatives come from one phase evaluation per term
    calls = {"value": 0, "partial": []}
    value, partial = SpinorField.value, SpinorField.partial

    def counted_value(self, pt):
        calls["value"] += 1
        return value(self, pt)

    def counted_partial(self, pt, mu):
        calls["partial"].append(mu)
        return partial(self, pt, mu)

    monkeypatch.setattr(SpinorField, "value", counted_value)
    monkeypatch.setattr(SpinorField, "partial", counted_partial)
    rng = np.random.default_rng(36)
    route(_rand_field(rng, sigma=0.5), _rand_point(rng))
    assert calls == {"value": 1, "partial": [(0, 1, 2, 3)]}


# -- oracle: the recomposition as numpy arrays, before it paired Python
# floats ------------------------------------------------------------------

def _old_recompose_velocity(comp):
    def pair(a, b):
        return 0.5 * (a + b) - 0.5j * (a - b)
    s = pair(comp.v_pp, comp.v_mm)
    e1 = pair(comp.v_pm, comp.v_mp)
    e2 = pair(comp.vt_pp, comp.vt_mm)
    e3 = pair(comp.vt_pm, comp.vt_mp)
    return tuple(Biquaternion(s[mu], e1[mu], e2[mu], e3[mu])
                 for mu in range(4))


def _seeded_components(rng):
    """Eight rows of four floats mixing signs, magnitudes, signed zeros,
    equal and opposite pairs and subnormals."""
    rows = rng.standard_normal((8, 4)) * 10.0 ** rng.integers(-5, 5, (8, 4))
    special = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1.0, 1.0, 2.5]
    for i, j in zip(*np.nonzero(rng.random((8, 4)) < 0.35)):
        rows[i, j] = special[rng.integers(len(special))]
    for i, j in ((0, 3), (1, 2), (4, 7), (5, 6)):  # the paired rows
        mu = rng.integers(4)
        rows[j, mu] = rows[i, mu] if rng.random() < 0.5 else -rows[i, mu]
    return VelocityComponents(*rows)


def test_recompose_velocity_equals_the_numpy_oracle_bytewise():
    rng = np.random.default_rng(37)
    for _ in range(300):
        comp = _seeded_components(rng)
        got = recompose_velocity(comp)
        assert all(type(v) is Biquaternion for v in got)
        assert _bytes(got) == _bytes(_old_recompose_velocity(comp))


@pytest.mark.parametrize("a, b, want", [
    # (a + b)/2 - i (a - b)/2 with each part as the complex product forms
    # it: real 0.5 (a + b) - (0 (a - b) - 0), imag 0 - (0 + 0.5 (a - b))
    (0.0, 0.0, (0.0, 0.0)),
    (-0.0, -0.0, (-0.0, 0.0)),
    (-0.0, 0.0, (0.0, 0.0)),
    (0.0, -0.0, (0.0, 0.0)),
    (1.0, 1.0, (1.0, 0.0)),
    (-1.0, -1.0, (-1.0, 0.0)),
    (0.0, 1.0, (0.5, 0.5)),
    (3.0, -1.0, (1.0, -2.0)),
])
def test_recompose_pairs_signed_zeros_as_the_complex_product(a, b, want):
    comp = VelocityComponents(*(np.full(4, v) for v in
                                (a, 0.0, 0.0, b, 0.0, 0.0, 0.0, 0.0)))
    s = recompose_velocity(comp)[0]._c[0]
    assert (math.copysign(1.0, s.real), math.copysign(1.0, s.imag)) == \
        (math.copysign(1.0, want[0]), math.copysign(1.0, want[1]))
    assert (s.real, s.imag) == want
    assert _bytes([recompose_velocity(comp)[0]]) == \
        _bytes([_old_recompose_velocity(comp)[0]])


def test_nonrel_reduce_tests_small_components_at_any_amplitude_scale():
    # a lower/upper ratio of 1e-5 is not small, whatever the size of psi
    for scale in (1.0, 1e-300, 1e-305):
        f = plane_wave(Biquaternion(scale, 0.0, 1e-5 * scale), (0, 0, 0),
                       1.0)
        with pytest.raises(SmallComponentsNotSmall, match="1.000e-05"):
            nonrel_reduce(f, (0, 0.5, 0, 0))
    # and a field with no upper components at all has an infinite ratio
    f = plane_wave(Biquaternion(0.0, 0.0, 1e-305), (0, 0, 0), 1.0)
    with pytest.raises(SmallComponentsNotSmall, match="ratio inf exceeds"):
        nonrel_reduce(f, (0, 0.5, 0, 0))
    # a lower part below the ratio passes on to the norm test
    f = plane_wave(Biquaternion(1e-305, 0.0, 1e-315), (0, 0, 0), 1.0)
    with pytest.raises(NotNormalized):
        nonrel_reduce(f, (0, 0.5, 0, 0))
