import numpy as np
import pytest

from qskew import (
    I,
    J,
    K,
    QuatMatrix,
    Quaternion,
    RightSpectrum,
    SkewTriple,
    gram_product,
    is_positive_definite,
    is_positive_semidefinite,
    quat_inverse,
    random_skew_symmetric,
    right_eigenpairs_hermitian,
    right_eigenvalues_hermitian,
)

# Spectrum of W = Z Z* for the 3x3 skew matrix built from a = 1, b = i + j,
# c = i + 2j.  Frozen from an independent run of numpy.linalg.eigvalsh on the
# complex embedding; the values sum to 16 = tr(W) and their squares sum to
# 128 = ||W||_F^2, which pins all digits.
REF3_SPECTRUM = (0.063504194127, 7.257608074322, 8.678887731551)


def ref3_matrix():
    return SkewTriple(1, I + J, I + 2 * J).matrix()


def test_reference_3x3_spectrum():
    w = gram_product(ref3_matrix())
    spec = right_eigenvalues_hermitian(w)
    np.testing.assert_allclose(spec.values, REF3_SPECTRUM, atol=1e-9)
    assert abs(sum(spec.values) - 16.0) <= 1e-9
    assert abs(np.sum(np.square(spec.values)) - 128.0) <= 1e-7


def clustered_inputs():
    """Hermitian matrices with a repeated right eigenvalue, so their
    eigenvectors come out of a multi-pair cluster: W of a degenerate 3x3
    triple (spectrum (0, s, s), s = 19) and diag(1, 1, 1, 3)."""
    return (SkewTriple(2, 1 + I, 3 - 2 * I).matrix().gram(),
            QuatMatrix(np.diag([1.0, 1.0, 1.0, 3.0])))


def test_right_eigenpairs_solve_problem():
    # A x = x lambda with lambda acting on the right
    z = random_skew_symmetric(4, seed=3)
    for w in (z.gram(),) + clustered_inputs():
        spec = right_eigenpairs_hermitian(w)
        assert len(spec.values) == w.nrows
        for t, lam in enumerate(spec.values):
            x = spec.vectors.column(t)
            lhs = w @ x
            rhs = x.right_mul(Quaternion(lam, 0, 0, 0))
            assert (lhs - rhs).norm() <= 1e-9 * max(1.0, w.norm())


def test_eigenvector_quaternion_orthonormality():
    z = random_skew_symmetric(5, seed=8)
    for w in (z.gram(),) + clustered_inputs():
        spec = right_eigenpairs_hermitian(w)
        n = len(spec.values)
        for s in range(n):
            for t in range(n):
                xs, xt = spec.vectors.column(s), spec.vectors.column(t)
                ip = xs.conj_transpose() @ xt
                want = 1.0 if s == t else 0.0
                assert abs(ip.entry(0, 0) - Quaternion(want, 0, 0, 0)) <= 1e-9


def test_pairing_gaps_small():
    z = random_skew_symmetric(6, seed=17)
    spec = right_eigenvalues_hermitian(z.gram())
    assert max(spec.pairing_gaps) <= 1e-9 * max(1.0, z.gram().norm())


def test_rejects_non_hermitian():
    z = random_skew_symmetric(3, seed=1)
    with pytest.raises(ValueError):
        right_eigenvalues_hermitian(z)


def test_gram_product_routes_agree():
    z = random_skew_symmetric(5, seed=5)
    w = gram_product(z)
    assert w.allclose(z.gram(), tol=0.0)
    direct = z @ z.conj_transpose()
    assert w.allclose(direct, tol=1e-12)
    minus = (z @ z.conj()).scale(-1.0)
    assert w.allclose(minus, tol=1e-12)


def test_gram_product_rejects_non_skew():
    a = QuatMatrix.from_entries([[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        gram_product(a)


def test_quat_inverse():
    rng = np.random.default_rng(30)
    a = QuatMatrix(rng.uniform(-1, 1, size=(4, 4, 4)))
    inv = quat_inverse(a)
    assert (a @ inv - QuatMatrix.eye(4)).norm() <= 1e-10
    assert (inv @ a - QuatMatrix.eye(4)).norm() <= 1e-10


def test_quat_inverse_singular():
    from qskew import SingularMatrixError

    with pytest.raises(SingularMatrixError):
        quat_inverse(QuatMatrix.zeros(3, 3))


def test_definiteness_checks():
    z = random_skew_symmetric(3, seed=9)
    w = gram_product(z)
    assert is_positive_semidefinite(w)
    assert is_positive_definite(w) == (min(right_eigenvalues_hermitian(w).values) > 1e-10)
    neg = w.scale(-1.0)
    assert not is_positive_semidefinite(neg)
    sing = QuatMatrix.zeros(2, 2)
    assert is_positive_semidefinite(sing)
    assert not is_positive_definite(sing)


def test_right_spectrum_of_tiny_and_huge_matrices():
    # the pairing and definiteness floors are relative to ||A||_F, so that
    # norm must neither underflow (1e-170 and below) nor overflow
    w = gram_product(random_skew_symmetric(4, seed=3))
    base = right_eigenvalues_hermitian(w).values
    for c in (1e-170, 1e-200, 1e150):
        a = w.scale(c)
        np.testing.assert_allclose(a.norm(), c * w.norm(), rtol=1e-15)
        np.testing.assert_allclose(right_eigenvalues_hermitian(a).values, c * base,
                                   rtol=1e-12)
        assert is_positive_definite(a)


def test_complex_hermitian_input_keeps_its_imaginary_parts():
    # [[1, i], [-i, 1]] has eigenvalues 0 and 2; its real part, I, has 1, 1
    a = np.array([[1, 1j], [-1j, 1]])
    np.testing.assert_allclose(right_eigenvalues_hermitian(a).values, [0.0, 2.0],
                               atol=1e-14)
    assert not is_positive_definite(a)


def test_two_by_two_double_eigenvalue():
    # skew with a single quaternion above the diagonal: spectrum (|a|^2, |a|^2)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        a = Quaternion(*rng.uniform(-2, 2, size=4))
        z = QuatMatrix.from_entries([[0, a], [-a, 0]])
        spec = right_eigenvalues_hermitian(gram_product(z))
        expect = a.norm_sq()
        np.testing.assert_allclose(spec.values, [expect, expect], rtol=1e-12)


def test_spectrum_to_dict():
    z = random_skew_symmetric(2, seed=2)
    spec = right_eigenpairs_hermitian(z.gram())
    d = spec.to_dict()
    assert set(d) == {"values", "pairing_gaps"}
    d2 = spec.to_dict(include_vectors=True)
    assert "vectors" in d2
    assert len(d2["vectors"]) == 2


def test_spectrum_without_vectors_names_the_eigenpairs_route():
    w = random_skew_symmetric(3, seed=4).gram()
    single = right_eigenvalues_hermitian(w)
    listed, = right_eigenvalues_hermitian([w])
    for spec in (single, listed):
        assert spec.vectors is None
        assert set(spec.to_dict()) == {"values", "pairing_gaps"}
        with pytest.raises(ValueError, match="right_eigenpairs_hermitian"):
            spec.to_dict(include_vectors=True)
