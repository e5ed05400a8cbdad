import math

import pytest
from hypothesis import given, strategies as st

from qskew import Quaternion, I, J, K, ONE, ZERO

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
quats = st.builds(Quaternion, finite, finite, finite, finite)


def is_close(p, q, tol=1e-9):
    return abs(p - q) <= tol


def test_hamilton_table():
    assert I * I == Quaternion(-1, 0, 0, 0)
    assert J * J == Quaternion(-1, 0, 0, 0)
    assert K * K == Quaternion(-1, 0, 0, 0)
    assert I * J == K
    assert J * K == I
    assert K * I == J
    assert J * I == -K
    assert K * J == -I
    assert I * K == -J
    assert I * J * K == Quaternion(-1, 0, 0, 0)


def test_product_frozen():
    # (1+i)(1+j) expands to 1 + i + j + ij = 1 + i + j + k
    p = ONE + I
    q = ONE + J
    assert p * q == Quaternion(1, 1, 1, 1)
    # reversed order flips the sign of the k part
    assert q * p == Quaternion(1, 1, 1, -1)


def test_coerce_and_scalar_ops():
    assert Quaternion.coerce(2.5) == Quaternion(2.5, 0, 0, 0)
    assert Quaternion.coerce([1, 2, 3, 4]) == Quaternion(1, 2, 3, 4)
    assert 2 * I == Quaternion(0, 2, 0, 0)
    assert I * 2 == Quaternion(0, 2, 0, 0)
    assert 1 + I * 0 == ONE
    assert (1 - K) + K == ONE
    with pytest.raises(TypeError):
        Quaternion.coerce("nope")
    with pytest.raises(ValueError):
        Quaternion.coerce([1, 2, 3])


def test_immutable():
    q = Quaternion(1, 2, 3, 4)
    with pytest.raises(AttributeError):
        q.w = 5


def test_conjugate_and_inverse():
    q = Quaternion(1, 2, 3, 4)
    assert q.conjugate() == Quaternion(1, -2, -3, -4)
    assert q.norm_sq() == 30
    assert is_close(q * q.inverse(), ONE, 1e-12)
    assert is_close(q.inverse() * q, ONE, 1e-12)
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_division():
    q = Quaternion(1, 2, 3, 4)
    assert is_close(q / q, ONE, 1e-12)
    assert is_close(1 / q, q.inverse(), 1e-15)
    assert is_close((q / 2) * 2, q, 1e-15)


@given(quats, quats)
def test_norm_multiplicative(p, q):
    assert math.isclose(abs(p * q), abs(p) * abs(q), rel_tol=1e-9, abs_tol=1e-9)


@given(quats, quats)
def test_conjugate_antihomomorphism(p, q):
    lhs = (p * q).conjugate()
    rhs = q.conjugate() * p.conjugate()
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


@given(quats, quats, quats)
def test_associative(p, q, r):
    lhs = (p * q) * r
    rhs = p * (q * r)
    assert abs(lhs - rhs) <= 1e-6 * max(1.0, abs(lhs))


@given(quats)
def test_conjugation_by_unit_preserves_real_and_norm(q):
    u = Quaternion(0.5, 0.5, 0.5, 0.5)  # unit
    s = u * q * u.inverse()
    assert math.isclose(s.real(), q.real(), rel_tol=1e-9, abs_tol=1e-9)
    assert math.isclose(abs(s), abs(q), rel_tol=1e-9, abs_tol=1e-9)


def test_repr_round_trip():
    q = Quaternion(1.5, -2.0, 0.0, 3.25)
    assert eval(repr(q), {"Quaternion": Quaternion}) == q
