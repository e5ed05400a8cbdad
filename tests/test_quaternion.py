import math

import numpy as np
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


def test_equality_with_other_types_and_hash():
    assert Quaternion(1).__eq__("1") is NotImplemented
    assert (Quaternion(1) == "1") is False
    assert len({Quaternion(1, 2), Quaternion(1.0, 2.0)}) == 1


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


def test_norm_and_inverse_across_the_float_range():
    # squares of these components leave the float range
    assert Quaternion(1e200).norm_sq() == math.inf
    for c in (1e200, -1e200, 1e-200, 1e300, 1e-300):
        q = Quaternion(0, 0, c, 0)
        assert abs(q) == abs(c)
        inv = q.inverse().components()
        assert inv[:2] + inv[3:] == (0, 0, 0)
        assert math.isclose(inv[2], -1 / c, rel_tol=1e-15)
    assert abs(Quaternion(1e200)) == 1e200
    assert Quaternion(1e200).inverse() == Quaternion(1e-200)
    q = Quaternion(3e200, 0, -4e200, 0)
    assert math.isclose(abs(q), 5e200, rel_tol=1e-15)
    assert is_close(q * q.inverse(), ONE, 1e-15)
    assert abs(Quaternion(1.5e308, 1.5e308)) == math.inf
    with pytest.raises(ZeroDivisionError):
        Quaternion(0.0, -0.0, 0.0, -0.0).inverse()


def test_in_range_norm_and_inverse_unchanged():
    # where |q|^2 is a normal float the results are bitwise those of the
    # plain formulas
    rng = np.random.default_rng(7)
    comps = rng.uniform(-1, 1, (20000, 4)) * 10.0 ** rng.uniform(-140, 140, (20000, 1))
    comps[rng.uniform(size=comps.shape) < 0.2] = 0.0
    for w, x, y, z in comps.tolist():
        n2 = w * w + x * x + y * y + z * z
        if n2 == 0.0:
            continue
        q = Quaternion(w, x, y, z)
        assert q.norm_sq() == n2
        assert abs(q) == math.sqrt(n2)
        assert q.inverse().components() == (w / n2, -x / n2, -y / n2, -z / n2)
