import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qskew import (I, J, K, ONE, Quaternion, QuatMatrix, gram_product,
                   random_skew_symmetric)


def rand_qm(rng, m, n):
    return QuatMatrix(rng.uniform(-1, 1, size=(m, n, 4)))


def test_construction_and_entry():
    a = QuatMatrix.from_entries([[1, I], [J, K]])
    assert a.shape == (2, 2)
    assert a.entry(0, 1) == I
    assert a[1, 0] == J
    b = QuatMatrix(np.eye(2))  # real 2-d input promoted to quaternion entries
    assert b.entry(0, 0) == ONE
    assert b.entry(0, 1) == Quaternion(0, 0, 0, 0)


def test_blocks_immutable():
    a = QuatMatrix.eye(2)
    with pytest.raises(ValueError):
        a.data[0, 0, 0] = 5.0


def test_construction_copies_the_input():
    # the caller's array stays writable and later writes do not reach m
    a = np.zeros((2, 2, 4))
    m = QuatMatrix(a)
    a[0, 0, 0] = 1.0
    assert m.max_abs() == 0.0
    assert QuatMatrix(a).entry(0, 0) == ONE


def test_complex_matrix_is_embedded():
    # a complex Z becomes Z + 0 j, bitwise what from_complex_pair(Z, 0) builds
    rng = np.random.default_rng(12)
    z = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    z[0, 0] = complex(-0.0, -0.0)
    expect = QuatMatrix.from_complex_pair(z, np.zeros_like(z)).data
    for value in (z, z.tolist()):
        got = QuatMatrix(value).data
        assert got.tobytes() == expect.tobytes()
    assert QuatMatrix.coerce(z).data.tobytes() == expect.tobytes()
    assert QuatMatrix([[1, 1j], [-1j, 1]]).entry(0, 1) == I


def test_complex_quaternion_array_rejected():
    # no other complex shape has an embedding; it must not lose its
    # imaginary parts quietly
    for bad in (np.zeros((2, 2, 4), dtype=complex), np.ones(3, dtype=complex)):
        with pytest.raises(ValueError, match="complex"):
            QuatMatrix(bad)


def test_coerce_returns_a_matrix_unchanged():
    a = QuatMatrix.eye(2)
    assert QuatMatrix.coerce(a) is a
    assert QuatMatrix.coerce(np.eye(2)).allclose(a, tol=0.0)


def test_from_parts_round_trip():
    rng = np.random.default_rng(0)
    parts = [rng.normal(size=(3, 2)) for _ in range(4)]
    a = QuatMatrix.from_parts(*parts)
    for got, want in zip(a.parts(), parts):
        np.testing.assert_array_equal(got, want)


def test_complex_pair_round_trip():
    rng = np.random.default_rng(1)
    ac = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    ad = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    a = QuatMatrix.from_complex_pair(ac, ad)
    bc, bd = a.complex_pair()
    np.testing.assert_allclose(bc, ac)
    np.testing.assert_allclose(bd, ad)


def test_matmul_frozen_2x2():
    a = QuatMatrix.from_entries([[1, I], [0, J]])
    b = QuatMatrix.from_entries([[J, 0], [K, 1]])
    c = a @ b
    # (1)(j) + (i)(k) = j - j... careful: ik = -j, so top-left is j - j = 0
    assert c.entry(0, 0) == Quaternion(0, 0, 0, 0)
    assert c.entry(0, 1) == I
    assert c.entry(1, 0) == J * K  # = i
    assert c.entry(1, 1) == J


def test_matmul_against_complex_pair_route():
    # the Hamilton product path must agree with symplectic-component algebra
    rng = np.random.default_rng(2)
    for _ in range(10):
        a = rand_qm(rng, 3, 4)
        b = rand_qm(rng, 4, 2)
        ac, ad = a.complex_pair()
        bc, bd = b.complex_pair()
        cc, cd = (a @ b).complex_pair()
        np.testing.assert_allclose(cc, ac @ bc - ad @ bd.conj(), atol=1e-12)
        np.testing.assert_allclose(cd, ac @ bd + ad @ bc.conj(), atol=1e-12)


def test_conj_transpose_antihomomorphism():
    rng = np.random.default_rng(3)
    a = rand_qm(rng, 3, 3)
    b = rand_qm(rng, 3, 3)
    lhs = (a @ b).conj_transpose()
    rhs = b.conj_transpose() @ a.conj_transpose()
    assert lhs.allclose(rhs, tol=1e-12)


def test_plain_transpose_not_antihomomorphic():
    # over quaternions (AB)^T generally differs from B^T A^T; witness below
    a = QuatMatrix.from_entries([[I, 0], [0, 1]])
    b = QuatMatrix.from_entries([[J, 0], [0, 1]])
    lhs = (a @ b).transpose()
    rhs = b.transpose() @ a.transpose()
    assert not lhs.allclose(rhs, tol=1e-6)
    assert lhs.entry(0, 0) == K
    assert rhs.entry(0, 0) == -K


def test_scalar_sides_differ():
    a = QuatMatrix.from_entries([[J]])
    left = a.left_mul(I)
    right = a.right_mul(I)
    assert left.entry(0, 0) == K
    assert right.entry(0, 0) == -K
    assert a.scale(2.0).entry(0, 0) == 2 * J
    assert (2.0 * a).entry(0, 0) == 2 * J


def test_add_sub_neg():
    rng = np.random.default_rng(4)
    a = rand_qm(rng, 2, 3)
    b = rand_qm(rng, 2, 3)
    assert (a + b - b).allclose(a, tol=1e-15)
    assert (-a + a).norm() == 0.0


def test_chi_homomorphism_square():
    rng = np.random.default_rng(5)
    for _ in range(10):
        a = rand_qm(rng, 4, 4)
        b = rand_qm(rng, 4, 4)
        np.testing.assert_allclose((a @ b).chi(), a.chi() @ b.chi(), atol=1e-12)
        np.testing.assert_allclose(
            a.conj_transpose().chi(), a.chi().conj().T, atol=1e-15
        )


def test_chi_round_trip_and_rejection():
    rng = np.random.default_rng(6)
    a = rand_qm(rng, 3, 3)
    back = QuatMatrix.from_chi(a.chi())
    assert back.allclose(a, tol=1e-15)
    bad = a.chi().copy()
    bad[0, 0] += 1e-3
    with pytest.raises(ValueError):
        QuatMatrix.from_chi(bad)
    with pytest.raises(ValueError):
        QuatMatrix.from_chi(np.zeros((3, 3), dtype=complex))


def test_gram_is_hermitian_psd_shape():
    z = random_skew_symmetric(4, seed=11)
    w = z.gram()
    assert w.is_hermitian()
    assert not z.is_hermitian() or z.norm() == 0.0


def test_random_skew_symmetric_structure():
    z = random_skew_symmetric(5, seed=42)
    assert z.is_skew_symmetric()
    assert z.transpose().allclose(-z, tol=0.0)
    for i in range(5):
        assert z.entry(i, i) == Quaternion(0, 0, 0, 0)
    # seeded generator is reproducible
    z2 = random_skew_symmetric(5, seed=42)
    assert z.allclose(z2, tol=0.0)
    z3 = random_skew_symmetric(5, seed=43)
    assert not z.allclose(z3, tol=1e-3)


def test_random_skew_symmetric_draw_order():
    # the strictly upper triangle is filled row-major from one Philox stream
    n, seed, scale = 5, 42, 2.0
    rng = np.random.Generator(np.random.Philox(key=seed))
    draws = iter(rng.uniform(-scale, scale, size=(n * (n - 1) // 2, 4)))
    want = np.zeros((n, n, 4))
    for i in range(n):
        for j in range(i + 1, n):
            want[i, j] = next(draws)
            want[j, i] = -want[i, j]
    assert random_skew_symmetric(n, seed, scale).data.tobytes() == want.tobytes()


def test_predicates():
    h = QuatMatrix.from_entries([[0, J], [-J, 0]])
    # conj(-j) = j lands on the (0,1) slot under conjugate transpose,
    # so this matrix is Hermitian and skew-symmetric at the same time
    assert h.is_hermitian()
    assert h.is_skew_symmetric()
    assert h.gram().allclose(QuatMatrix.eye(2), tol=1e-15)

    u = QuatMatrix.from_entries([[I, 0], [0, J]])
    assert u.is_unitary()
    assert not QuatMatrix.from_entries([[2, 0], [0, 1]]).is_unitary()

    with pytest.raises(ValueError):
        QuatMatrix.zeros(2, 3).is_hermitian()


def test_non_finite_entries_rejected():
    # NaN and Inf fail at construction with a message that names them,
    # not later as a misleading structure error
    for bad in (np.nan, np.inf, -np.inf):
        arr = np.zeros((2, 2, 4))
        arr[0, 1, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            QuatMatrix(arr)
        with pytest.raises(ValueError, match="non-finite"):
            QuatMatrix(arr[:, :, 2])
    with pytest.raises(ValueError, match="non-finite"):
        gram_product(np.full((2, 2, 4), np.nan))


def test_predicates_of_huge_entries():
    # max_abs goes through hypot, so entries above 1e154 neither overflow
    # it nor make the predicates accept anything
    a = QuatMatrix(np.random.default_rng(8).uniform(-1, 1, size=(3, 3, 4)))
    h = a + a.conj_transpose()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for c in (1.0, 1e170):
            assert not a.scale(c).is_hermitian()
            assert not a.scale(c).is_skew_symmetric()
            assert h.scale(c).is_hermitian()
        assert a.scale(1e170).max_abs() == pytest.approx(1e170 * a.max_abs(), rel=1e-15)
        assert a.scale(1e300).max_abs() < np.inf


def test_eye_and_zeros():
    e = QuatMatrix.eye(3)
    z = QuatMatrix.zeros(2, 3)
    assert e.shape == (3, 3)
    assert z.shape == (2, 3)
    assert z.norm() == 0.0
    a = QuatMatrix(np.random.default_rng(7).uniform(size=(3, 3, 4)))
    assert (e @ a).allclose(a, tol=0.0)
    assert (a @ e).allclose(a, tol=0.0)


@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_skew_gram_hermitian_property(n, seed):
    z = random_skew_symmetric(n, seed=seed)
    w = z.gram()
    assert w.is_hermitian(tol=1e-12)
    wc = w.chi()
    np.testing.assert_allclose(wc, wc.conj().T, atol=1e-12)
