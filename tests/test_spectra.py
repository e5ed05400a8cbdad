import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qskew.qmatrix
from qskew import (
    I,
    J,
    QuatMatrix,
    Quaternion,
    RightSpectrum,
    SkewTriple,
    gram_product,
    gram_spectrum,
    herm_eig,
    is_positive_definite,
    is_positive_semidefinite,
    quat_inverse,
    random_skew_symmetric,
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


def test_pairing_gaps_small():
    # the complex adjoint doubles every right eigenvalue; the solve at size
    # n gives each once, summing to the trace
    z = random_skew_symmetric(6, seed=17)
    mu = herm_eig(z.gram().chi())
    assert (mu[1::2] - mu[0::2]).max() <= 1e-9 * max(1.0, z.gram().norm())
    spec = right_eigenvalues_hermitian(z.gram())
    assert spec.trace_residual <= 1e-9 * max(1.0, z.gram().norm())


def test_rejects_non_hermitian():
    z = random_skew_symmetric(3, seed=1)
    with pytest.raises(ValueError):
        right_eigenvalues_hermitian(z)


def test_gram_product_routes_agree():
    z = random_skew_symmetric(5, seed=5)
    w = gram_product(z)
    assert w.data.tobytes() == z.gram().data.tobytes()
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
    # the trace and definiteness floors are relative to ||A||_F, so that
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
    spec = right_eigenvalues_hermitian(z.gram())
    d = spec.to_dict()
    assert set(d) == {"values", "trace_residual"}
    assert d == {"values": [float(v) for v in spec.values],
                 "trace_residual": float(spec.trace_residual)}
    assert all(type(v) is float for v in d["values"] + [d["trace_residual"]])


def test_stacked_spectrum_to_dict():
    stacked = right_eigenvalues_hermitian(gram_product(random_skew_symmetric(4, [1, 2, 3])))
    d = stacked.to_dict()
    assert len(d["values"]) == len(d["trace_residual"]) == 3
    for i, seed in enumerate([1, 2, 3]):
        alone = right_eigenvalues_hermitian(gram_product(random_skew_symmetric(4, seed)))
        assert d["values"][i] == alone.to_dict()["values"]
        assert d["trace_residual"][i] == alone.to_dict()["trace_residual"]


def test_nested_list_matrix_is_one_matrix():
    # a list is one matrix in nested lists; a stack is one QuatMatrix
    for rows, want in (([[1, 1j], [-1j, 1]], [0.0, 2.0]), ([[2, 0], [0, 3]], [2.0, 3.0])):
        spec = right_eigenvalues_hermitian(rows)
        assert isinstance(spec, RightSpectrum)
        np.testing.assert_allclose(spec.values, want, atol=1e-14)
    ws = [random_skew_symmetric(3, seed).gram() for seed in (1, 2)]
    with pytest.raises(ValueError):
        right_eigenvalues_hermitian(ws)


def skew_stack(rng, count, n):
    """count random n x n skew slices, each scaled by its own 10^[-6, 6],
    so no slice's tolerance may leak into another's."""
    a = rng.uniform(-1, 1, size=(count, n, n, 4))
    a *= 10.0 ** rng.uniform(-6, 6, size=(count, 1, 1, 1))
    return QuatMatrix(a - a.swapaxes(1, 2))


@given(st.integers(min_value=0, max_value=5), st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_stacked_gram_and_spectra_match_each_slice(count, n, seed):
    z = skew_stack(np.random.default_rng(seed), count, n)
    w = gram_product(z)
    spec = right_eigenvalues_hermitian(w)
    assert w.data.shape == (count, n, n, 4)
    assert spec.values.shape == (count, n)
    assert spec.trace_residual.shape == (count,)
    for i in range(count):
        alone = gram_product(QuatMatrix(z.data[i]))
        assert w.data[i].tobytes() == alone.data.tobytes()
        one = right_eigenvalues_hermitian(alone)
        assert spec.values[i].tobytes() == one.values.tobytes()
        assert spec.trace_residual[i].tobytes() == one.trace_residual.tobytes()


def nearly_skew_4x4(eps):
    """Skew-symmetric up to eps on the trailing 3x3 block, where the two
    Gram routes differ by 6 eps against max|W| of about 5."""
    z = np.zeros((4, 4, 4))
    z[0, 1:, 0], z[1:, 0, 0] = 1.0, -1.0
    z[1, 2, 0], z[2, 1, 0] = 2.0, -2.0
    z[1:, 1:, 0] += eps
    return z


def test_stack_errors_name_the_failing_slice():
    z = skew_stack(np.random.default_rng(3), 4, 4).data
    bad = z.copy()
    bad[2, 0, 1, 0] += 1.0
    with pytest.raises(ValueError, match=r"skew-symmetric matrix \(slice 2\)$"):
        gram_product(bad)
    # within tol = 1e-3 of skew (2 eps against max|z| = 2), yet its routes
    # disagree by more than tol * max|W|
    tol = 1e-3
    near = nearly_skew_4x4(0.98 * tol)
    assert QuatMatrix(near).is_skew_symmetric(tol)
    with pytest.raises(ValueError, match=r"disagree beyond tolerance; .*skew-symmetric$"):
        gram_product(near, tol)
    mixed = z.copy()
    mixed[1] = near
    with pytest.raises(ValueError, match=r"disagree .*\(slice 1\)$"):
        gram_product(mixed, tol)
    w = gram_product(z).data.copy()
    w[3, 0, 1, 1] += 1.0
    with pytest.raises(ValueError, match=r"not Hermitian \(slice 3\)$"):
        right_eigenvalues_hermitian(w)


def test_gram_product_rejects_unrepresentable_w():
    # a row norm of Z at or beyond 2^511 ~ 6.7e153 is refused before any
    # product is formed, so numpy never warns about an overflow
    z = ref3_matrix()  # row norms sqrt(3), sqrt(3) and sqrt(7)
    big = z.scale(1e160)
    with pytest.raises(ValueError, match=r"^W = Z Z\* is not representable"):
        gram_product(big)
    with pytest.raises(ValueError, match=r"\(slice 1\)$"):
        gram_product(QuatMatrix(np.stack([z.data, big.data])))
    for c in (1.0, 1e-300, 2.0 ** 511 / np.sqrt(7) / 2):
        zc = z.scale(c)
        assert gram_product(zc).data.tobytes() == zc.gram().data.tobytes()


def test_gram_spectrum_scales_each_slice_up_and_never_down():
    z = random_skew_symmetric(4, [1, 2, 3])
    base_w, base, base_e = gram_spectrum(z)
    assert base_e.tolist() == [0, 0, 0]
    k = np.array([-700, 0, 40])
    w, spec, e = gram_spectrum(QuatMatrix(np.ldexp(z.data, k[:, None, None, None])))
    # the tiny slice is solved at unit size, the large one as it is
    assert e.tolist() == [-700, 0, 0]
    np.testing.assert_array_equal(spec.values, np.ldexp(base.values, [[0], [0], [80]]))
    np.testing.assert_array_equal(w.data[:2], base_w.data[:2])
    with pytest.raises(ValueError, match="not representable"):
        gram_spectrum(z.scale(1e160))


def test_right_spectrum_judges_hermitian_at_the_callers_tol():
    # one Hermitian rule, at the caller's tol: W with one component moved
    # by 1e-8 of its largest entry is Hermitian within tol = 1e-6, so its
    # spectrum is that of the nearby Hermitian matrix; 1e-5 off is refused
    w = gram_product(random_skew_symmetric(4, 3))
    step = 1e-8 * w.max_abs()
    near = w.data.copy()
    near[0, 2, 1] += step
    assert QuatMatrix(near).is_hermitian(1e-6)
    spec = right_eigenvalues_hermitian(near, tol=1e-6)
    np.testing.assert_allclose(spec.values, right_eigenvalues_hermitian(w).values,
                               rtol=0, atol=10 * step)
    far = w.data.copy()
    far[1, 3, 3] += 1e3 * step
    assert not QuatMatrix(far).is_hermitian(1e-6)
    with pytest.raises(ValueError, match=r"^matrix is not Hermitian$"):
        right_eigenvalues_hermitian(far, tol=1e-6)
    with pytest.raises(ValueError, match=r"^matrix is not Hermitian \(slice 2\)$"):
        right_eigenvalues_hermitian(np.stack([w.data, near, far]), tol=1e-6)


def test_right_spectrum_checks_w_once(monkeypatch):
    # herm_eig judges Hermitian symmetry; no caller on the way checks W again
    checks = []
    check = QuatMatrix.is_hermitian

    def spy(self, *args):
        checks.append(self.data.shape)
        return check(self, *args)
    monkeypatch.setattr(QuatMatrix, "is_hermitian", spy)
    z = random_skew_symmetric(4, [1, 2, 3])
    w = gram_product(z)
    assert right_eigenvalues_hermitian(w).values.shape == (3, 4)
    right_eigenvalues_hermitian(QuatMatrix(w.data[0]))
    gram_spectrum(z)
    assert checks == []


@given(st.integers(min_value=2, max_value=9), st.floats(min_value=-12, max_value=12),
       st.floats(min_value=-15, max_value=-3), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_agreement_residual_is_the_difference_of_the_two_products(n, log_c, log_eps, seed):
    # W - (-Z conj(Z)) = Z conj(S) with S = Z^T + Z: on a near-skew c Z the
    # one product matches the difference of the two rounded ones to rounding
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1, 1, size=(n, n, 4))
    z = QuatMatrix((a - a.swapaxes(0, 1) + 10.0 ** log_eps * rng.uniform(-1, 1, size=a.shape))
                   * 10.0 ** log_c)
    direct, minus = z @ z.conj_transpose(), -(z @ z.conj())
    residual = z @ (z.transpose() + z).conj()
    gap = abs(residual.max_abs() - (direct - minus).max_abs())
    assert gap <= n * np.finfo(float).eps * direct.max_abs()


def test_exactly_skew_z_makes_one_product(monkeypatch):
    products = []

    def spy(p, q, mul):
        products.append(mul)
        return hamilton(p, q, mul)

    hamilton = qskew.qmatrix._hamilton
    monkeypatch.setattr(qskew.qmatrix, "_hamilton", spy)
    z = random_skew_symmetric(5, [1, 2, 3])
    w = gram_product(z)
    assert len(products) == 1
    near = z.data.copy()
    near[1, 0, 2, 3] += 1e-14
    assert gram_product(near).data[[0, 2]].tobytes() == w.data[[0, 2]].tobytes()
    assert len(products) == 3  # the near-skew stack checks the second route


def test_near_skew_z_at_the_edge_of_the_range_makes_no_warning():
    # row norms just below 2^511: W, Z conj(S) and W - Z conj(S) all stay in
    # range, and so does the agreement check's residual
    rng = np.random.default_rng(4)
    a = rng.uniform(-1, 1, size=(6, 6, 4))
    z = a - a.swapaxes(0, 1)
    z[2, 4, 1] += 1e-9
    rows = np.sqrt((z ** 2).sum(axis=(1, 2)))
    z = QuatMatrix(z * (2.0 ** 511 * (1 - 1e-12) / rows.max()))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = gram_product(z, tol=1e-6)
    assert np.isfinite(w.data).all() and w.max_abs() < 2.0 ** 1023
