import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qskew import (
    EPS,
    DualQuatMatrix,
    DualQuaternion,
    I,
    J,
    K,
    Quaternion,
    QuatMatrix,
    dq_hermitian_direct,
    dq_hermitian_split,
    is_dq_hermitian,
    random_skew_symmetric,
)

finite = st.floats(min_value=-100, max_value=100, allow_nan=False)
quats = st.builds(Quaternion, finite, finite, finite, finite)
dquats = st.builds(DualQuaternion, quats, quats)


def random_dqm(rng, n):
    std = QuatMatrix(rng.uniform(-1, 1, size=(n, n, 4)))
    inf = QuatMatrix(rng.uniform(-1, 1, size=(n, n, 4)))
    return DualQuatMatrix(std, inf)


def hermitian_dqm(rng, n):
    h = QuatMatrix(rng.uniform(-1, 1, size=(n, n, 4)))
    std = h + h.conj_transpose()
    s = QuatMatrix(rng.uniform(-1, 1, size=(n, n, 4)))
    inf = s - s.transpose()
    return DualQuatMatrix(std, inf)


def test_eps_squares_to_zero():
    assert EPS * EPS == DualQuaternion(0, 0)
    p = DualQuaternion(I, J)
    q = DualQuaternion(K, 1)
    prod = p * q
    assert prod.std == I * K
    assert prod.inf == I * Quaternion(1, 0, 0, 0) + J * K


def test_dual_arithmetic():
    p = DualQuaternion(1, I)
    q = DualQuaternion(J, 2)
    assert p + q == DualQuaternion(1 + J, I + 2)
    assert p - q == DualQuaternion(1 - J, I - 2)
    # scalar-quaternion coercion on either side
    assert p * 2 == DualQuaternion(2, 2 * I)
    assert 2 * p == DualQuaternion(2, 2 * I)


def test_dual_conjugate_convention():
    # the infinitesimal part is negated whole, not quaternion-conjugated;
    # this is the sign convention that makes A* = A equivalent to
    # (std Hermitian, inf skew-symmetric) at the matrix level
    q = DualQuaternion(Quaternion(1, 2, 3, 4), Quaternion(5, 6, 7, 8))
    c = q.conjugate()
    assert c.std == Quaternion(1, -2, -3, -4)
    assert c.inf == Quaternion(-5, -6, -7, -8)
    # conjugate is an involution under this sign convention
    assert c.conjugate() == q


@given(dquats, dquats)
@settings(max_examples=50)
def test_dual_conjugate_additive_involution(p, q):
    s = (p + q).conjugate()
    assert s == p.conjugate() + q.conjugate()
    assert p.conjugate().conjugate() == p


def test_matrix_entry_and_shape():
    rng = np.random.default_rng(70)
    a = random_dqm(rng, 3)
    assert a.shape == (3, 3)
    e = a.entry(1, 2)
    assert isinstance(e, DualQuaternion)
    assert e.std == a.std.entry(1, 2)
    assert e.inf == a.inf.entry(1, 2)


def test_matrix_conj_transpose_is_entrywise():
    rng = np.random.default_rng(71)
    square = random_dqm(rng, 4)
    # a rectangular input catches swapped axes that a square one hides
    rect = DualQuatMatrix(rng.uniform(-1, 1, size=(2, 3, 4)),
                          rng.uniform(-1, 1, size=(2, 3, 4)))
    for a in (square, rect):
        m, n = a.shape
        at = a.conj_transpose()
        assert at.shape == (n, m)
        for i in range(n):
            for j in range(m):
                assert at.entry(i, j) == a.entry(j, i).conjugate()


def test_matrix_dict_round_trip():
    rng = np.random.default_rng(72)
    a = random_dqm(rng, 2)
    b = DualQuatMatrix.from_dict(a.to_dict())
    assert b.std.allclose(a.std, tol=0.0)
    assert b.inf.allclose(a.inf, tol=0.0)


def test_hermitian_crafted_cases():
    rng = np.random.default_rng(73)
    a = hermitian_dqm(rng, 3)
    assert dq_hermitian_direct(a)
    assert dq_hermitian_split(a)
    assert is_dq_hermitian(a)

    # break the standard part
    bad_std = DualQuatMatrix(a.std + QuatMatrix.from_entries(
        [[0, I, 0], [0, 0, 0], [0, 0, 0]]), a.inf)
    assert not dq_hermitian_direct(bad_std)
    assert not dq_hermitian_split(bad_std)

    # break the infinitesimal part: nonzero diagonal kills skew-symmetry
    bump = QuatMatrix.from_entries([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    bad_inf = DualQuatMatrix(a.std, a.inf + bump)
    assert not dq_hermitian_direct(bad_inf)
    assert not dq_hermitian_split(bad_inf)


def test_hermitian_routes_agree_near_threshold():
    # perturbations straddling the tolerance must flip both routes together
    rng = np.random.default_rng(74)
    base = hermitian_dqm(rng, 2)
    for mag in (1e-14, 1e-11, 1e-9, 1e-7, 1e-3):
        bump = QuatMatrix.from_entries([[0, Quaternion(0, mag, 0, 0)], [0, 0]])
        probe = DualQuatMatrix(base.std + bump, base.inf)
        assert dq_hermitian_direct(probe) == dq_hermitian_split(probe)
        assert is_dq_hermitian(probe) == dq_hermitian_direct(probe)


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=10**6),
       st.booleans())
@settings(max_examples=60, deadline=None)
def test_hermitian_routes_exact_agreement(n, seed, make_hermitian):
    rng = np.random.default_rng(seed)
    a = hermitian_dqm(rng, n) if make_hermitian else random_dqm(rng, n)
    assert dq_hermitian_direct(a) == dq_hermitian_split(a)


def test_non_square_rejected():
    std = QuatMatrix.zeros(2, 3)
    inf = QuatMatrix.zeros(2, 3)
    a = DualQuatMatrix(std, inf)
    with pytest.raises(ValueError):
        dq_hermitian_direct(a)
    with pytest.raises(ValueError):
        dq_hermitian_split(a)
