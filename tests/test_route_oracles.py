"""Bit-for-bit oracles for the velocity routes and the ring inverse.

The routes scale their derivative feed and form their products on
coefficient tuples through algebra._hamilton, the inverse builds conj / N
coefficient by coefficient, and the component route reads the tuple feed
and recomposes through Biquaternion._new.  The oracles below are the
operator-level formulations those replaced: the feed d * c and the product
(left * (d * c)) * scale through Biquaternion.__mul__, conjugate() /
complex_norm() through __truediv__, the component sums over the
Biquaternion feed through a verbatim copy of the list-form kernel
(pq_reference.list_pq_sums), and Biquaternion(*coeffs).  Every result must
equal its oracle in repr, coefficient by coefficient, so a signed zero
that moves fails the test.
"""

import cmath
import functools
import math
import operator

import numpy as np
import pytest

from fractalspin.algebra import ZERO_DIVISOR_EPS, Biquaternion
from fractalspin.errors import FractalSpinError, NumericalError, ZeroDivisor
from fractalspin.fields import PlaneWaveTerm, SpinorField, spiral_pair_field
from fractalspin.velocity import (
    VelocityComponents,
    _pair,
    bq_velocity,
    component_velocities,
    conjugate_velocity,
    nonrel_reduce,
    pauli_recompose,
    recompose_velocity,
)

from pq_reference import list_pq_sums

# -- the oracles ------------------------------------------------------------


def _feed(field, pt):
    d0, d1, d2, d3 = field.partial(pt, (0, 1, 2, 3))
    return (d0 * (-1.0), d1 * field.c, d2 * field.c, d3 * field.c)


def _route(left, field, pt):
    scale = 1j * field.s0 / (field.m * field.c)
    return tuple((left * d) * scale for d in _feed(field, pt))


def _left_to_right(terms):
    return functools.reduce(operator.add, terms, 0)


def _complex_norm(q):
    return _left_to_right(a * a for a in q._c)


def _eight_square_norm(q):
    return (_left_to_right(a.real * a.real for a in q._c)
            + _left_to_right(a.imag * a.imag for a in q._c))


def _modulus(n):
    try:
        return abs(n)
    except OverflowError:
        return math.inf


def _inverse(q):
    n, size = _complex_norm(q), _eight_square_norm(q)
    if not _modulus(n) > ZERO_DIVISOR_EPS * size:
        if not all(map(cmath.isfinite, q._c)):
            raise NumericalError("Biquaternion is not finite: "
                                 f"sum |a_k|^2 = {size}")
        s = max(max(abs(a.real), abs(a.imag)) for a in q._c)
        if s not in (0.0, 1.0):
            out = _inverse(q / s) / s
            if not all(map(cmath.isfinite, out._c)):
                raise NumericalError(f"the inverse of {q!r} overflows")
            return out
        raise ZeroDivisor(
            "Biquaternion is a (near-)zero divisor: "
            f"|N| = {_modulus(n):.3e}, sum |a_k|^2 = {size:.3e}")
    return q.conjugate() / n


def _components(field, pt):
    c = field.value(pt)._c
    f, x = [a.real for a in c], [a.imag for a in c]
    scale = -field.s0 / (field.m * field.c)
    sums = [list_pq_sums(f, x, [a.real for a in d._c],
                         [a.imag for a in d._c])
            for d in _feed(field, pt)]
    plus = [[scale * (p[k] + q[k]) for p, q in sums] for k in range(4)]
    minus = [[scale * (p[k] - q[k]) for p, q in sums] for k in range(4)]
    return VelocityComponents(*map(np.array, (
        plus[0], plus[1], minus[1], minus[0],
        plus[2], plus[3], minus[3], minus[2])))


def _recompose(comp):
    sectors = [map(_pair, a.tolist(), b.tolist()) for a, b in (
        (comp.v_pp, comp.v_mm), (comp.v_pm, comp.v_mp),
        (comp.vt_pp, comp.vt_mm), (comp.vt_pm, comp.vt_mp))]
    return tuple(Biquaternion(*coeffs) for coeffs in zip(*sectors))


# -- seeded fields and points -------------------------------------------


def _field(rng, i):
    """A 2- or 3-term field: sigma 0 or not, c 1 or not, s0 = hbar or not.
    Every other field has no e2/e3 part: of those, half have real
    amplitudes and half no e1 part either, so that the products meet
    signed zeros."""
    terms = []
    for _ in range(2 + i % 2):
        a = rng.uniform(-1, 1, 4) + 1j * rng.uniform(-1, 1, 4)
        if i % 2:
            a[2:] = 0.0
        if i % 4 == 1:
            a.imag[:] = 0.0
        if i % 4 == 3:
            a[1] = 0.0
        terms.append(PlaneWaveTerm(Biquaternion.from_array(a),
                                   tuple(rng.uniform(-1, 1, 3)),
                                   rng.uniform(-1, 1), [0.0, 0.5, 1.3][i % 3]))
    return SpinorField(terms, hbar=[1.0, 0.8][i % 2], m=1.3,
                       c=[1.0, 1.7, 3.7][i // 3 % 3],
                       s0=[None, 0.5][i // 2 % 2])


def _point(rng, i):
    """A point off the axis; every other one has t = z = 0, some a -0.0."""
    t, x, y, z = rng.uniform(-1, 1, 4).tolist()
    if i % 2 == 0:
        t = z = 0.0
    if i % 5 == 0:
        y = -0.0
    return (t, x + 2.0, y, z)


def _coeffs(bqs):
    return repr([v._c for v in bqs])


def _negative_zeros(bqs):
    return sum(math.copysign(1.0, part) < 0 and part == 0
               for v in bqs for a in v._c for part in (a.real, a.imag))


def _cases(seed, n=80):
    rng = np.random.default_rng(seed)
    for i in range(n):
        yield _field(rng, i), _point(rng, i)


# -- the routes ------------------------------------------------------------


def test_biquaternion_routes_equal_the_operator_products_in_repr():
    negative_zeros = 0
    for field, pt in _cases(41):
        psi = field.value(pt)
        for got, want in (
                (bq_velocity(field, pt), _route(psi.inverse(), field, pt)),
                (conjugate_velocity(field, pt),
                 _route(psi.conjugate(), field, pt))):
            assert all(type(v) is Biquaternion for v in got)
            assert _coeffs(got) == _coeffs(want)
            negative_zeros += _negative_zeros(got)
    assert negative_zeros > 0  # the cases reach the signs of zeros


def _spiral_pair_grid():
    """The spiral-pair spinor with the extract defaults, at the 1,600 cell
    centres of a 40 x 40 (x, y) grid over [-2, 2]^2, as the fieldmap
    benchmark evaluates it: no e2/e3 content and c = 1."""
    term0 = PlaneWaveTerm(Biquaternion(1.0, 0.0), (0.0, 0.0, 1.0), 1.1, 0.5)
    term1 = PlaneWaveTerm(Biquaternion(0.5, 0.25j), (0.0, 0.0, 1.0), 2.3, 0.5)
    field = spiral_pair_field(term0, term1)
    centres = -2.0 + 0.1 * (np.arange(40) + 0.5)
    return [(field, (0.3, x, y, -0.2)) for x in centres for y in centres]


def _component_bytes(comp):
    return [(name, a.dtype, a.shape, a.tobytes())
            for name, a in comp.as_dict().items()]


def test_component_route_equals_the_operator_oracle_in_repr():
    # rows bytewise, biquaternions in repr; the spiral pair alone has no
    # e2/e3 content and c = 1, so a sign slip in an e2/e3 term of one sum
    # passes it: the seeded fields run beside it, and each kind of case
    # must occur
    seen = {"e2/e3 amplitudes": 0, "three terms": 0, "c != 1": 0,
            "negative zeros": 0}
    for field, pt in _spiral_pair_grid() + list(_cases(42)):
        got, want = component_velocities(field, pt), _components(field, pt)
        assert _component_bytes(got) == _component_bytes(want)
        rec = recompose_velocity(got)
        assert all(type(v) is Biquaternion for v in rec)
        assert _coeffs(rec) == _coeffs(_recompose(want))
        assert _coeffs(pauli_recompose(field, pt)) == _coeffs(
            Biquaternion(*v.a[:2]) for v in _recompose(want)[1:])
        seen["e2/e3 amplitudes"] += any(t.amplitude.a[2:].any()
                                        for t in field.terms)
        seen["three terms"] += len(field.terms) == 3
        seen["c != 1"] += field.c != 1.0
        seen["negative zeros"] += _negative_zeros(rec) > 0
    assert min(seen.values()) > 0, seen


def test_nonrel_reduce_equals_the_operator_product_of_the_primed_field():
    rng = np.random.default_rng(43)
    for i in range(60):
        a = rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2)
        field = SpinorField([PlaneWaveTerm(Biquaternion(*a), tuple(
            rng.uniform(-1, 1, 3)), rng.uniform(-1, 1), 0.5 * (i % 2))],
            m=1.3, c=[1.0, 1.7][i % 2], s0=0.5)
        pt = _point(rng, i)
        primed = field.remove_rest_phase().project_large()
        scale = 1.0 / math.sqrt(primed.value(pt).eight_square_norm())
        field = SpinorField([t._replace(amplitude=t.amplitude * scale)
                             for t in field.terms],
                            m=field.m, c=field.c, s0=field.s0)
        primed = field.remove_rest_phase().project_large()
        want = _route(primed.value(pt).inverse(), primed, pt)[1:]
        assert _coeffs(nonrel_reduce(field, pt).v) == _coeffs(want)


# -- the inverse and the norms --------------------------------------------


def _outcome(call, q):
    try:
        return repr(call(q)._c)
    except FractalSpinError as exc:
        return type(exc).__name__, str(exc)


def _elements(rng):
    """Elements from 1e-200 to 1e200: generic ones, ones with a signed
    zero coefficient, real ones, and zero divisors (1 + i e1)."""
    for i, e in enumerate(np.linspace(-200.0, 200.0, 1500)):
        a = (rng.standard_normal(4) + 1j * rng.standard_normal(4)) * 10.0 ** e
        if i % 5 == 0:
            a[rng.integers(4)] = complex(0.0, -0.0)
        if i % 7 == 0:
            a = a.real.astype(complex)
        if i % 11 == 0:
            a = np.array([1.0, 1.0j, 0.0, 0.0]) * 10.0 ** e
        yield Biquaternion.from_array(a)


def _rescaled(q):
    """Whether inverse takes the rescale path for q."""
    return not _modulus(_complex_norm(q)) > \
        ZERO_DIVISOR_EPS * _eight_square_norm(q)


def test_inverse_equals_conj_over_n_in_repr_from_1e_minus_200_to_1e200():
    rescaled = refused = 0
    for q in _elements(np.random.default_rng(44)):
        got = _outcome(Biquaternion.inverse, q)
        assert got == _outcome(_inverse, q)
        assert repr(q.complex_norm()) == repr(_complex_norm(q))
        assert repr(q.eight_square_norm()) == repr(_eight_square_norm(q))
        refused += isinstance(got, tuple)
        rescaled += _rescaled(q) and isinstance(got, str)
    # both the rescale path and the zero-divisor refusal were reached
    assert rescaled > 100 and refused > 100


def test_inverse_rescales_where_the_modulus_of_n_overflows():
    # the parts of N are finite, |N| is not: abs(N) raised a bare
    # OverflowError
    q = Biquaternion(4.9e153 + 1.0e154j, -5.2e153 - 2.5e153j,
                     1.8e153 - 1.05e154j, -9.3e152 + 3.6e153j)
    n = q.complex_norm()
    assert math.isfinite(n.real) and math.isfinite(n.imag)
    assert _rescaled(q)
    inv = q.inverse()
    assert _coeffs([inv]) == _coeffs([(q / 1.05e154).inverse() / 1.05e154])
    assert (q * inv).allclose(Biquaternion(1.0), atol=1e-15)


@pytest.mark.parametrize("q, error", [
    (Biquaternion(1.0, 1.0j), ZeroDivisor),
    (Biquaternion(1e200, 1e200j), ZeroDivisor),
    (Biquaternion(1e-200, 0.0, 1e-200j), ZeroDivisor),
    (Biquaternion(0.0, -0.0), ZeroDivisor),
    (Biquaternion(math.nan, 1.0), NumericalError),
    (Biquaternion(1.0, math.inf), NumericalError),
    (Biquaternion(1e-310), NumericalError),  # the inverse overflows
])
def test_inverse_refuses_as_the_oracle_does(q, error):
    with pytest.raises(error) as got:
        q.inverse()
    with pytest.raises(error) as want:
        _inverse(q)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)
