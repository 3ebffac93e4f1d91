"""Property tests for biquaternion arithmetic.

The 2x2 matrix representation e_k -> -i*sigma_k is used as an independent
oracle for the Hamilton product: it is implemented here directly from the
Pauli matrices, not via the bridge methods under test.
"""

import math
import operator
from fractions import Fraction

import numpy as np
import pytest

from fractalspin.algebra import (
    _hamilton,
    E1,
    E2,
    E3,
    ONE,
    PAULI,
    Biquaternion,
    ZERO_DIVISOR_EPS,
    pauli_identity_residual,
    sigma_dot,
)
from fractalspin.errors import NumericalError, ZeroDivisor

N_CASES = 1000


def _rand_bq(rng, scale=1.0):
    re = rng.uniform(-scale, scale, 4)
    im = rng.uniform(-scale, scale, 4)
    return Biquaternion.from_array(re + 1j * im)


def _array_product(a, b):
    """The product as the array-backed Biquaternion computed it: the
    Hamilton table on the numpy complex128 scalars of two arrays."""
    a0, a1, a2, a3 = np.asarray(a, dtype=complex)
    b0, b1, b2, b3 = np.asarray(b, dtype=complex)
    return np.array([a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
                     a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
                     a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
                     a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0], dtype=complex)


def _oracle_matrix(bq):
    """Matrix image built directly from the Pauli matrices."""
    a = bq.a
    m = a[0] * np.eye(2, dtype=complex)
    for k in range(3):
        m = m + a[k + 1] * (-1j * PAULI[k])
    return m


def test_basis_table():
    assert (E1 * E2).allclose(E3)
    assert (E2 * E3).allclose(E1)
    assert (E3 * E1).allclose(E2)
    assert (E2 * E1).allclose(-E3)
    for e in (E1, E2, E3):
        assert (e * e).allclose(-ONE)


def test_scalar_i_commutes_with_basis():
    # (i*e1)*e2 == e1*(i*e2) == i*e3
    left = (1j * E1) * E2
    right = E1 * (1j * E2)
    assert left.allclose(right)
    assert left.allclose(1j * E3)


def test_product_against_matrix_oracle():
    rng = np.random.default_rng(101)
    for _ in range(N_CASES):
        p, q = _rand_bq(rng), _rand_bq(rng)
        direct = _oracle_matrix(p * q)
        via_matrices = _oracle_matrix(p) @ _oracle_matrix(q)
        assert np.max(np.abs(direct - via_matrices)) < 1e-12


def test_products_bitwise_equal_the_array_products():
    rng = np.random.default_rng(111)
    for _ in range(2000):
        p, q = _rand_bq(rng, 10.0), _rand_bq(rng, 0.1)
        s = float(rng.standard_normal())
        cases = [(p * q, _array_product(p.a, q.a)),
                 (p * s, p.a * complex(s)), (s * p, p.a * complex(s)),
                 (p * (1j * s), p.a * complex(1j * s)),
                 ((1j * s) * p, p.a * complex(1j * s))]
        for got, want in cases:
            assert got.a.tobytes() == want.tobytes()


def test_associativity():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(N_CASES):
        a, b, c = _rand_bq(rng), _rand_bq(rng), _rand_bq(rng)
        worst = max(worst, ((a * b) * c - a * (b * c)).max_abs())
    assert worst < 1e-12


def test_complex_norm_multiplicative():
    rng = np.random.default_rng(103)
    for _ in range(N_CASES):
        p, q = _rand_bq(rng), _rand_bq(rng)
        lhs = (p * q).complex_norm()
        rhs = p.complex_norm() * q.complex_norm()
        assert abs(lhs - rhs) < 1e-12


def test_conjugation_reverses_products():
    rng = np.random.default_rng(105)
    for _ in range(200):
        p, q = _rand_bq(rng), _rand_bq(rng)
        assert (p * q).conjugate().allclose(q.conjugate() * p.conjugate())


def test_inverse_round_trip():
    rng = np.random.default_rng(106)
    count = 0
    for _ in range(N_CASES):
        q = _rand_bq(rng)
        try:
            qi = q.inverse()
        except ZeroDivisor:
            continue
        count += 1
        assert (q * qi).allclose(ONE, atol=1e-10)
        assert (qi * q).allclose(ONE, atol=1e-10)
    assert count > N_CASES * 0.9  # random biquaternions are rarely singular
    for _ in range(N_CASES):
        # N = sum a_k^2 > 0 for nonzero real coefficients: always inverts
        q = Biquaternion(*rng.uniform(-1.0, 1.0, 4))
        for prod in (q * q.inverse(), q.inverse() * q):
            assert prod.allclose(ONE, atol=1e-10)


def test_zero_divisor_raises():
    zd = Biquaternion(1.0, 1.0j)  # N = 1 + (i)^2 = 0
    assert abs(zd.complex_norm()) < ZERO_DIVISOR_EPS
    with pytest.raises(ZeroDivisor):
        zd.inverse()
    # and the companion product really does annihilate:
    partner = Biquaternion(1.0, -1.0j)
    assert (zd * partner).max_abs() < 1e-15


def test_inverse_threshold_is_scale_relative():
    for tiny in (1e-7, 1e-150):
        assert Biquaternion(tiny).inverse().allclose(
            Biquaternion(1.0 / tiny), atol=0.0, rtol=1e-15)
        assert Biquaternion(0, tiny).inverse().allclose(
            Biquaternion(0.0, -1.0 / tiny), atol=0.0, rtol=1e-15)
        # a zero divisor stays one at any scale
        with pytest.raises(ZeroDivisor):
            Biquaternion(tiny, 1j * tiny).inverse()
    near = Biquaternion(1.0, 1j * (1.0 + 1e-14))  # |N| = 2e-14 of 2
    with pytest.raises(ZeroDivisor):
        near.inverse()
    for zero in (Biquaternion(), Biquaternion(-0.0, -0.0, -0.0, -0.0),
                 Biquaternion(-0.0)):
        with pytest.raises(ZeroDivisor):  # not ZeroDivisionError
            zero.inverse()


@pytest.mark.parametrize("element", [
    Biquaternion(math.nan), Biquaternion(1.0, 0.0, math.inf),
    Biquaternion(0.5, complex(0.0, math.nan)), Biquaternion(0.0, 0.0, math.nan),
    Biquaternion(1.0, 0.0, 0.0, -math.inf)])
def test_inverse_refuses_a_non_finite_element(element):
    # a NaN norm compares False against the zero-divisor threshold
    with pytest.raises(NumericalError, match="is not finite") as info:
        element.inverse()
    assert type(info.value) is NumericalError


def test_inverse_of_an_element_whose_size_overflows_or_underflows():
    # N and sum |a_k|^2 overflow to inf or underflow to 0 unscaled, though
    # the inverses are representable
    assert Biquaternion(1e200).inverse() == Biquaternion(1e-200)
    assert Biquaternion(1e-200).inverse() == Biquaternion(1e200)
    assert Biquaternion(0.0, -1e-200).inverse() == Biquaternion(0.0, 1e200)
    rng = np.random.default_rng(109)
    for scale in (1e200, 1e-200):
        q = _rand_bq(rng)
        got = (q * scale).inverse() * scale
        assert got.allclose(q.inverse(), atol=0.0, rtol=1e-14)
        # a zero divisor stays one at any scale
        with pytest.raises(ZeroDivisor):
            ((ONE + 1j * E1) * scale).inverse()
    # an inverse beyond the largest float is refused, not returned as inf
    with pytest.raises(NumericalError, match="overflows"):
        Biquaternion(1e-310).inverse()


def test_one_plus_e1_is_invertible():
    # contrast with the zero divisor: (1 + e1)(1 - e1) = 2
    p = ONE + E1
    q = ONE - E1
    assert (p * q).allclose(2.0 * ONE)
    assert (p * p.inverse()).allclose(ONE)


def test_complex_norm_is_complex_scalar():
    q = Biquaternion(1.0 + 1.0j)
    assert q.complex_norm() == (1 + 1j) ** 2
    assert Biquaternion(0, 2j, 0, 0).complex_norm() == pytest.approx(-4.0)


def test_eight_square_norm_and_component_order():
    q = Biquaternion(0.1 + 0.2j, 0.3 + 0.4j, 0.5 + 0.6j, 0.7 + 0.8j)
    assert q.a[0] == 0.1 + 0.2j and q.a[3] == 0.7 + 0.8j
    comps = np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8])
    assert q.eight_square_norm() == pytest.approx(float(np.sum(comps**2)))


def test_matrix_bridge_round_trip_and_homomorphism():
    rng = np.random.default_rng(108)
    for _ in range(N_CASES):
        p, q = _rand_bq(rng), _rand_bq(rng)
        assert np.allclose(p.to_matrix(), _oracle_matrix(p), atol=1e-15)
        assert Biquaternion.from_matrix(p.to_matrix()).allclose(p, atol=1e-14)
        hom = (p * q).to_matrix() - p.to_matrix() @ q.to_matrix()
        assert np.max(np.abs(hom)) < 1e-12


def test_matrix_bridge_covers_all_matrices():
    # from_matrix is a two-sided inverse, so the bridge is onto M2(C)
    rng = np.random.default_rng(109)
    for _ in range(200):
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        q = Biquaternion.from_matrix(m)
        assert np.allclose(q.to_matrix(), m, atol=1e-14)


def test_sigma_from_bridge():
    # sigma_k = i * matrix(e_k)
    for k, e in enumerate((E1, E2, E3)):
        assert np.allclose(1j * e.to_matrix(), PAULI[k])


def test_pauli_identity_complex_vectors():
    rng = np.random.default_rng(110)
    worst = 0.0
    for _ in range(N_CASES):
        a = rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3)
        b = rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3)
        worst = max(worst, pauli_identity_residual(a, b))
    assert worst < 1e-12


def test_sigma_dot_linearity():
    v = np.array([0.3, -1.2, 0.7])
    m = sigma_dot(v)
    oracle = v[0] * PAULI[0] + v[1] * PAULI[1] + v[2] * PAULI[2]
    assert np.allclose(m, oracle)


def test_inverse_derivative_identity():
    # d(psi * psi^-1) = 0, so psi * d(psi^-1) = -(d psi) * psi^-1.
    # Finite-difference check on a biquaternion-valued curve.
    def psi(s):
        return Biquaternion(1.0 + 0.3j * s, 0.2 * s, -0.1 * s * s, 0.05 + 0.4j * s)

    h = 1e-6
    for s in (0.0, 0.7, -1.3):
        dpsi = (psi(s + h) - psi(s - h)) * (0.5 / h)
        dinv = (psi(s + h).inverse() - psi(s - h).inverse()) * (0.5 / h)
        resid = psi(s) * dinv + dpsi * psi(s).inverse()
        assert resid.max_abs() < 1e-8


def test_scalar_arithmetic():
    q = Biquaternion(1.0, 2.0)
    assert (2 * q).allclose(q * 2)
    assert (q / 2).allclose(Biquaternion(0.5, 1.0))
    assert (1 + q).allclose(Biquaternion(2.0, 2.0))
    assert (q - 1).allclose(Biquaternion(0.0, 2.0))
    assert (1 - q).allclose(Biquaternion(0.0, -2.0))


def test_eq_is_elementwise_ieee():
    nan = float("nan")
    q = Biquaternion(1.0, complex(0.0, nan))
    assert not q == q  # a NaN element is unequal even to itself
    assert q != Biquaternion.from_array(q.a)
    same = Biquaternion(1.0, 2.0j)
    assert same == Biquaternion(1.0, 2.0j) and not same != same
    assert Biquaternion(1.0) != 1.0  # only biquaternions compare equal


def test_hash_agrees_with_eq_on_signed_zeros():
    pos = Biquaternion(0.0, 1.0, 0.0j, 2.0)
    neg = Biquaternion(-0.0, 1.0, complex(-0.0, -0.0), 2.0)
    assert pos == neg
    assert hash(pos) == hash(neg)
    assert len({Biquaternion(0.0), Biquaternion(-0.0)}) == 1
    assert len({pos, neg, Biquaternion(0.0, 1.0, 0.0, 2.5)}) == 2


def _coeff_bytes(q):
    return np.array(q._c).tobytes()


def test_scale_refuses_scalars_outside_the_ring():
    with pytest.raises(TypeError):
        Biquaternion(1.0) * "a"
    with pytest.raises(TypeError):
        Biquaternion(1.0) / "a"
    with pytest.raises(ZeroDivisionError):
        Biquaternion(1.0) / 0j
    with pytest.raises(ZeroDivisionError):
        Biquaternion(1.0) / 0


def test_scale_by_a_builtin_scalar_equals_the_cast_product_bitwise():
    # each coefficient op the cast scalar: int, float and complex
    rng = np.random.default_rng(41)
    for _ in range(50):
        q = Biquaternion.from_array(rng.uniform(-2, 2, 4)
                                    + 1j * rng.uniform(-2, 2, 4))
        for s in (0.7, -3, 2 ** 80, -0.0, 1.5 - 0.25j, complex(-0.0, 2.0)):
            products = [(operator.mul, q * s), (operator.mul, s * q)]
            if s:
                products.append((operator.truediv, q / s))
            for op, got in products:
                want = [op(a, complex(s)) for a in q._c]
                assert type(got) is Biquaternion
                assert _coeff_bytes(got) == np.array(want).tobytes()


@pytest.mark.parametrize("scalar, plain", [
    (np.float64(1.7), 1.7),
    (True, 1.0),
    (Fraction(1, 3), 1 / 3),
    (np.complex128(1.7 - 0.2j), 1.7 - 0.2j),
])
def test_scale_by_any_complex_equals_the_python_scalar_product(scalar,
                                                               plain):
    q = Biquaternion(1 + 2j, -0.3j, 0.7, 2.0)
    assert _coeff_bytes(q * scalar) == _coeff_bytes(q * plain)
    assert _coeff_bytes(scalar * q) == _coeff_bytes(plain * q)
    assert _coeff_bytes(q / scalar) == _coeff_bytes(q / plain)


@pytest.mark.parametrize("op", [operator.mul, operator.add])
def test_ring_operations_equal_the_coefficient_route_bitwise(op):
    # B*B and B+B must give the bytes of the Hamilton product or the
    # coefficient sum of the two tuples
    rng = np.random.default_rng([42, op is operator.mul])
    special = [0.0, -0.0, 5e-324, -1.0, 1e300]

    def make():
        c = rng.uniform(-2, 2, (2, 4))
        for i, j in zip(*np.nonzero(rng.random((2, 4)) < 0.3)):
            c[i, j] = special[rng.integers(len(special))]
        return Biquaternion.from_array(c[0] + 1j * c[1])

    for _ in range(200):
        p, q = make(), make()
        got = op(p, q)
        want = (_hamilton(p._c, q._c) if op is operator.mul
                else tuple(map(op, p._c, q._c)))
        assert type(got) is Biquaternion
        assert type(got._c) is tuple
        assert _coeff_bytes(got) == np.array(want).tobytes()
