"""Checks for the hand-rolled complex dense kernels.

numpy.linalg is used here only as an independent reference; the library
code itself never calls it.
"""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import qskew.clinalg
from qskew import (
    J,
    K,
    ConvergenceError,
    QuatMatrix,
    SingularMatrixError,
    SkewTriple,
    gram_product,
    herm_eig,
    hua_decompose,
    is_solid,
    lu_inverse,
    mgs_orthonormalize,
    random_skew_symmetric,
    right_eigenvalues_hermitian,
    sample_degenerate_triple,
)
from qskew.clinalg import (_skew_tridiagonal, _tridiagonal, _tridiagonal_eig,
                           frobenius_norm, unit_scaled)


def random_hermitian(rng, n, scale=1.0):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * (m + m.conj().T) / 2


def unit_tridiagonal(h):
    """(d, e2), each a stack of one, of the real tridiagonal form of a
    Hermitian h scaled by the power of two that herm_eig takes out."""
    scale = 2.0 ** -np.frexp(np.abs(h).max(initial=0.0))[1]
    return _tridiagonal((scale * np.asarray(h, dtype=complex))[None])


def test_herm_eig_diagonal():
    h = np.diag([3.0, -1.0, 2.0]).astype(complex)
    np.testing.assert_allclose(herm_eig(h), [-1.0, 2.0, 3.0], atol=1e-14)


def test_herm_eig_2x2_frozen():
    h = np.array([[2.0, 1.0j], [-1.0j, 2.0]])
    np.testing.assert_allclose(herm_eig(h), [1.0, 3.0], atol=1e-14)


def test_herm_eig_matches_reference():
    rng = np.random.default_rng(10)
    for n in (2, 3, 5, 8, 12):
        h = random_hermitian(rng, n)
        ref = np.linalg.eigvalsh(h)
        np.testing.assert_allclose(herm_eig(h), ref, atol=1e-10 * max(1, np.abs(h).max()))


def test_herm_eig_repeated_eigenvalues():
    # block with a triple eigenvalue
    q, _ = np.linalg.qr(np.random.default_rng(11).normal(size=(4, 4))
                        + 1j * np.random.default_rng(12).normal(size=(4, 4)))
    h = q @ np.diag([2.0, 2.0, 2.0, 5.0]) @ q.conj().T
    np.testing.assert_allclose(herm_eig(h), [2.0, 2.0, 2.0, 5.0], atol=1e-12)


def test_herm_eig_scale_invariance():
    rng = np.random.default_rng(13)
    h = random_hermitian(rng, 5)
    vals_small = herm_eig(h * 1e-8)
    vals_big = herm_eig(h * 1e8)
    base = herm_eig(h)
    np.testing.assert_allclose(vals_small, base * 1e-8, rtol=1e-10)
    np.testing.assert_allclose(vals_big, base * 1e8, rtol=1e-10)


def test_herm_eig_rejects_non_hermitian():
    with pytest.raises(ValueError):
        herm_eig(np.array([[0.0, 1.0], [2.0, 0.0]], dtype=complex))
    with pytest.raises(ValueError):
        herm_eig(np.zeros((2, 3), dtype=complex))
    # the check is relative to the slice's largest entry, so a clearly
    # non-Hermitian matrix is rejected at any scale
    lopsided = np.array([[0.0, 1.0], [3.0, 0.0]], dtype=complex)
    for c in (1e-12, 1e-170):
        with pytest.raises(ValueError, match="not Hermitian"):
            herm_eig(c * lopsided)
        with pytest.raises(ValueError, match="not Hermitian \\(slice 1\\)"):
            herm_eig(np.stack([np.eye(2), c * lopsided]))
    wide = random_hermitian(np.random.default_rng(17), 32)
    wide[0, 5] += 1.0
    with pytest.raises(ValueError, match="not Hermitian"):
        herm_eig(wide)


def test_herm_eig_zero_matrix():
    np.testing.assert_array_equal(herm_eig(np.zeros((3, 3), dtype=complex)), np.zeros(3))
    # its tridiagonal has unit vectors as eigenvectors, exactly
    w, y = _tridiagonal_eig(*unit_tridiagonal(np.zeros((3, 3))), vectors=True)
    np.testing.assert_array_equal(w, np.zeros((1, 3)))
    np.testing.assert_array_equal(y, np.eye(3)[None])


@given(st.integers(min_value=1, max_value=9), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=30, deadline=None)
def test_herm_eig_property(n, seed):
    rng = np.random.default_rng(seed)
    h = random_hermitian(rng, n, scale=rng.choice([1e-3, 1.0, 1e3]))
    vals = herm_eig(h)
    scale = max(1.0, float(np.abs(h).max()))
    assert np.all(np.diff(vals) >= -1e-12 * scale)
    np.testing.assert_allclose(np.sum(vals), np.trace(h).real, atol=1e-9 * scale)


def random_hermitian_stack(rng, count, n):
    m = rng.normal(size=(count, n, n)) + 1j * rng.normal(size=(count, n, n))
    return (m + np.conj(np.swapaxes(m, 1, 2))) / 2


def test_herm_eig_stack_matches_slices_bitwise():
    rng = np.random.default_rng(14)
    for n in (1, 2, 5, 8, 16):
        stack = random_hermitian_stack(rng, 6, n)
        # one slice converged from the start: it must not disturb the rest
        stack[2] = np.diag(np.arange(n, dtype=float))
        w = herm_eig(stack)
        assert w.shape == (6, n)
        for b in range(6):
            np.testing.assert_array_equal(w[b], herm_eig(stack[b]))


def test_herm_eig_tiny_and_huge_entries():
    # the Frobenius norm of c * swap underflows to 0 (c = 1e-170, 1e-200) or
    # overflows (c = 1e200) unless each slice is first scaled by a power of two
    swap = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    normal = np.array([[2.0, 1 - 1j], [1 + 1j, 3.0]])
    w0 = herm_eig(normal)
    for c in (1e-170, 1e-200, 1e200):
        np.testing.assert_allclose(herm_eig(swap * c), [-c, c], rtol=1e-14)
    # entries above half the float maximum, whose sums a_ij + conj(a_ji)
    # overflow: each slice is scaled before the Hermitian check and the
    # average, and its eigenvalues +-sqrt(2) 1e308 are in range
    big = np.array([[1.0, 1.0], [1.0, -1.0]]) * 1e308
    np.testing.assert_allclose(herm_eig(big), [-np.sqrt(2) * 1e308, np.sqrt(2) * 1e308],
                               rtol=1e-15)
    np.testing.assert_array_equal(right_eigenvalues_hermitian(QuatMatrix(big)).values,
                                  herm_eig(big))
    with pytest.raises(ValueError, match="not Hermitian"):
        herm_eig(big * [[1.0, 0.5], [1.0, 1.0]])
        w = herm_eig(np.stack([normal, swap * c]))
        np.testing.assert_allclose(w[1], [-c, c], rtol=1e-14)
        # the normal slice is bitwise its own single call
        np.testing.assert_array_equal(w[0], w0)


@given(st.integers(min_value=0, max_value=5), st.integers(min_value=1, max_value=9),
       st.integers(min_value=0, max_value=10**6))
@settings(max_examples=30, deadline=None)
def test_herm_eig_stack_property(count, n, seed):
    rng = np.random.default_rng(seed)
    stack = random_hermitian_stack(rng, count, n) * rng.choice([1e-3, 1.0, 1e3])
    w = herm_eig(stack)
    assert w.shape == (count, n)
    for b in range(count):
        scale = max(1.0, float(np.abs(stack[b]).max()))
        np.testing.assert_allclose(w[b], np.linalg.eigvalsh(stack[b]),
                                   atol=1e-10 * scale)


def test_herm_eig_stack_rejects_any_bad_slice():
    rng = np.random.default_rng(15)
    for where in (0, 2, 3):
        stack = random_hermitian_stack(rng, 4, 3)
        stack[where, 0, 1] += 1.0
        with pytest.raises(ValueError, match="not Hermitian"):
            herm_eig(stack)
        for bad in (np.inf, np.nan):
            stack = random_hermitian_stack(rng, 4, 3)
            stack[where, 1, 1] = bad
            with pytest.raises(ValueError, match="finite"):
                herm_eig(stack)
    with pytest.raises(ValueError):
        herm_eig(np.zeros((2, 3, 4), dtype=complex))
    with pytest.raises(ValueError):
        herm_eig(np.zeros((1, 2, 2, 3), dtype=complex))
    with pytest.raises(ValueError):
        herm_eig(np.zeros(2, dtype=complex))
    # any leading axes make a stack
    assert herm_eig(np.zeros((1, 2, 2, 2), dtype=complex)).shape == (1, 2, 2)


def test_herm_eig_inverse_iteration_limit(monkeypatch):
    # clusters take inverse iteration, where a first pass alone never
    # accepts an eigenvector; an eigenvalue alone takes one twisted solve
    # and no pass, and values and diagonal slices need none at all
    monkeypatch.setattr(qskew.clinalg, "MAX_PASSES", 1)
    rng = np.random.default_rng(16)
    q = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))[0]
    d, e2 = unit_tridiagonal(q @ np.diag([1.0, 2.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]) @ q.conj().T)
    with pytest.raises(ConvergenceError, match="inverse iteration limit 1"):
        _tridiagonal_eig(d, e2, vectors=True)
    with pytest.raises(ConvergenceError, match="inverse iteration limit 1"):
        _tridiagonal_eig(np.stack([[1.0, 2.0] * 4, d[0]]),
                         np.stack([np.zeros(7), e2[0]]), vectors=True)
    # the two 2s are the only cluster, and from index 3 up all are alone
    _tridiagonal_eig(d, e2, vectors=True, first=3)
    _tridiagonal_eig(d, e2)
    np.testing.assert_array_equal(
        _tridiagonal_eig(np.array([[3.0, 1.0]]), np.zeros((1, 1)), vectors=True)[1],
        [[[0, 1], [1, 0]]])
    # the canonical pair form of a repeated sigma iterates
    z = np.zeros((4, 4))
    z[0, 1] = z[2, 3] = 3.0
    q = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
    with pytest.raises(ConvergenceError, match="inverse iteration limit 1"):
        hua_decompose(q @ (z - z.T) @ q.T)
    # a random matrix and a random complex skew Z have no cluster, so no
    # slice of their stacks iterates: at this limit an iterated column
    # would raise, so returning shows that none did
    h = random_hermitian(rng, 8)
    herm_eig(h)
    y = rng.normal(size=(6, 6)) * (1 + 1j)
    hua_decompose(np.stack([y - y.T, y.T - y]))
    _tridiagonal_eig(*(np.concatenate(part) for part in zip(
        unit_tridiagonal(h), unit_tridiagonal(random_hermitian(rng, 8)))), vectors=True)


def test_lu_inverse_matches_reference():
    rng = np.random.default_rng(20)
    for n in (1, 2, 5, 9):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        inv = lu_inverse(a)
        np.testing.assert_allclose(a @ inv, np.eye(n), atol=1e-10)
        np.testing.assert_allclose(inv, np.linalg.inv(a), atol=1e-9)


def test_lu_inverse():
    rng = np.random.default_rng(22)
    a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    inv = lu_inverse(a)
    np.testing.assert_allclose(a @ inv, np.eye(5), atol=1e-10)
    np.testing.assert_allclose(inv @ a, np.eye(5), atol=1e-10)


def test_herm_eig_rejects_non_finite():
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            herm_eig(np.array([[bad, 1.0], [1.0, 2.0]], dtype=complex))


def test_lu_rejects_non_finite():
    # a plain ValueError: NaN input says nothing about invertibility, so it
    # must not surface as SingularMatrixError
    a = np.array([[np.nan, 1.0], [1.0, 2.0]], dtype=complex)
    with pytest.raises(ValueError, match="finite") as exc:
        lu_inverse(a)
    assert not isinstance(exc.value, SingularMatrixError)


def test_lu_singular_raises():
    a = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex)
    with pytest.raises(SingularMatrixError):
        lu_inverse(a)
    with pytest.raises(SingularMatrixError):
        lu_inverse(np.zeros((3, 3), dtype=complex))


def lu_slice(kind, n, rng):
    """An n x n complex matrix: random, scaled far from 1, exactly zero, or
    singular by a dependent last column."""
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    if kind == "scaled":
        a *= 10.0 ** rng.uniform(-200, 200)
    elif kind == "zero":
        a[:] = 0.0
    elif kind == "dependent":
        a[:, -1] = a[:, :-1] @ rng.normal(size=n - 1) if n > 1 else 0.0
    return a


@given(st.lists(st.sampled_from(["random", "scaled", "zero", "dependent"]),
                min_size=1, max_size=6),
       st.integers(min_value=1, max_value=9), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=60, deadline=None)
def test_lu_inverse_stack_matches_single_calls(kinds, n, seed):
    # each slice of a stack is bitwise its own call; a singular slice, which
    # raises on its own, gets a zero inverse and a False flag, and leaves
    # the slices around it alone
    rng = np.random.default_rng(seed)
    slices = [lu_slice(kind, n, rng) for kind in kinds]
    inverses, invertible = lu_inverse(np.array(slices))
    assert inverses.shape == (len(kinds), n, n) and invertible.dtype == bool
    for a, inv, ok in zip(slices, inverses, invertible):
        try:
            alone = lu_inverse(a)
        except SingularMatrixError:
            assert not ok and not inv.any()
        else:
            assert ok and inv.tobytes() == alone.tobytes()
    one, flag = lu_inverse(slices[0][None])
    assert flag.tolist() == [invertible[0]]
    assert one[0].tobytes() == inverses[0].tobytes()


def test_lu_inverse_stack_flags_a_singular_slice_between_invertible_ones():
    rng = np.random.default_rng(23)
    slices = [lu_slice(kind, 4, rng) for kind in ("random", "dependent", "random", "zero")]
    inverses, invertible = lu_inverse(np.array(slices))
    assert invertible.tolist() == [True, False, True, False]
    for b in (0, 2):
        np.testing.assert_allclose(slices[b] @ inverses[b], np.eye(4), atol=1e-12)
    with pytest.raises(ValueError, match="square matrix or a stack"):
        lu_inverse(np.zeros((2, 2, 3, 3)))
    with pytest.raises(ValueError, match=r"finite entries \(slice 1\)$"):
        lu_inverse(np.array([np.eye(2), [[np.nan, 0], [0, 1]]]))


def test_frobenius_norm_matches_the_plain_sum():
    # bitwise the unscaled sum wherever that neither under- nor overflows,
    # though the sum is always taken scaled by a power of two
    rng = np.random.default_rng(5)
    for _ in range(400):
        shape = tuple(rng.integers(1, 7, size=2))
        x = rng.normal(size=shape) * 10.0 ** rng.uniform(-150, 150)
        z = x + 1j * rng.normal(size=shape) * 10.0 ** rng.uniform(-150, 150)
        for a in (x, z):
            assert frobenius_norm(a) == float(np.sqrt((np.abs(a) ** 2).sum()))
    assert frobenius_norm(np.zeros((0, 3))) == 0.0
    assert frobenius_norm(np.zeros((2, 2), dtype=complex)) == 0.0


def test_unit_scaled_brings_each_slice_to_unit_size():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 3, 6)) + 1j * rng.normal(size=(4, 3, 6))
    a *= 10.0 ** rng.uniform(-300, 300, (4, 1, 1))
    a[2] = 0.0
    a = a[:, :, ::2]  # complex, not contiguous in its last axis
    unit, e = unit_scaled(a, axis=(1, 2))
    assert e.shape == (4,) and e[2] == 0
    top = np.abs(unit).max(axis=(1, 2))
    assert ((0.5 <= top[[0, 1, 3]]) & (top[[0, 1, 3]] < 1.0)).all() and top[2] == 0.0
    np.testing.assert_array_equal(unit * np.ldexp(1.0, e)[:, None, None], a)
    unit, e = unit_scaled([0.75, -3.0])
    assert unit.tolist() == [0.1875, -0.75] and e == 2


def test_frobenius_norm_neither_under_nor_overflows():
    a = np.array([[3.0, 4j], [0.0, 0.0]])
    for c in (1e-200, 1e200, 1e300):
        assert frobenius_norm(c * a) == pytest.approx(5.0 * c, rel=1e-15)


def test_frobenius_norm_beyond_the_float_range_is_inf_without_a_warning():
    # the test configuration makes any RuntimeWarning an error
    assert frobenius_norm(np.full((2, 2), 1.5e308)) == np.inf
    stack = np.full((3, 2, 2), 1.5e308, dtype=complex)
    stack[1] = 1.0
    np.testing.assert_array_equal(frobenius_norm(stack, axis=(1, 2)), [np.inf, 2.0, np.inf])


def test_lu_threshold_does_not_overflow():
    # the pivot threshold is tol * ||A||_F, which must stay finite
    for c in (1e-200, 1e200):
        np.testing.assert_allclose(lu_inverse(c * np.eye(3)), np.eye(3) / c, rtol=1e-15)


def test_lu_singular_message_names_unscaled_values():
    # LU runs on the matrix scaled to unit size; the message gives the pivot
    # U[1, 1] = 2^-40 and the threshold 1e-10 ||A||_F at the input's scale,
    # also where both are subnormal
    a = np.array([[2.0, 1.0], [1.0, 0.5 + 2.0 ** -40]], dtype=complex)
    for k in (0, -1030, 900):
        with pytest.raises(SingularMatrixError) as exc:
            lu_inverse(np.ldexp(a.real, k).astype(complex))
        assert str(exc.value) == "pivot 1 is %.3e, at or below threshold %.3e" % (
            np.ldexp(1.0, k - 40), np.ldexp(1e-10 * frobenius_norm(a), k))


def test_lu_inverse_beyond_the_float_range_is_an_error():
    # 2^-1040 I is invertible, but its inverse 2^1040 I is not a float
    tiny = np.ldexp(1.0, -1040) * np.eye(3)
    np.testing.assert_array_equal(lu_inverse(np.ldexp(1.0, 40) * tiny),
                                  np.ldexp(1.0, 1000) * np.eye(3))
    with pytest.raises(ValueError, match=r"^lu_inverse: the inverse lies beyond the float range$"):
        lu_inverse(tiny)
    with pytest.raises(ValueError, match=r"beyond the float range \(slice 1\)$"):
        lu_inverse(np.array([np.eye(3), tiny]))


def test_unit_scaled_reads_the_largest_component():
    # an entry whose modulus lies beyond the float range has a finite
    # largest component, which gives the exponent: the unit form is exact
    a = np.array([[1.5e308 + 1.5e308j, 1.0]])
    unit, e = unit_scaled(a)
    assert e == 1024 and np.ldexp(unit.view(float), e).tobytes() == a.view(float).tobytes()
    # |0.75 + 0.75i| = 1.06, but its largest component is 0.75, exponent 0
    assert unit_scaled(np.array([0.75 + 0.75j]))[1] == 0


def test_lu_inverse_where_an_entry_modulus_lies_beyond_the_float_range():
    # the first slice's exponent comes from its largest component, not from
    # a modulus of inf, so it is scaled to unit size and factored
    x = lu_inverse(np.diag([1.5e308 + 1.5e308j, 1e308]))
    np.testing.assert_allclose(x, np.diag([(0.5 - 0.5j) / 1.5e308, 1e-308]), rtol=1e-13, atol=0)


def test_herm_eig_beyond_the_float_range_is_an_error():
    # the eigenvalues of 1.7e308 [[1, 1], [1, 1]] are 0 and 3.4e308
    big = np.full((2, 2), 1.7e308)
    with pytest.raises(ValueError, match=r"^herm_eig: an eigenvalue lies beyond the float range$"):
        herm_eig(big)
    with pytest.raises(ValueError, match=r"beyond the float range \(slice 1\)$"):
        herm_eig(np.array([np.eye(2), big]))
    np.testing.assert_allclose(herm_eig(big / 2), [0.0, 1.7e308], rtol=1e-15, atol=1e293)


def test_householder_column_with_a_subnormal_head():
    # a column of W = Z Z* below its diagonal has a subnormal head, whose
    # phase takes a complex division: that divides by |head| as 1 / |head|,
    # which overflows unless the head is lifted first; W's spectrum is
    # (0, 2, 2) and Z is not solid
    z = SkewTriple(K, 1, 1e-309 * J).matrix()
    w = gram_product(z)
    np.testing.assert_allclose(herm_eig(w.chi()[:3]), [0.0, 2.0, 2.0], rtol=0, atol=1e-15)
    assert not is_solid(z)


def test_mgs_of_vectors_whose_norm_lies_beyond_the_float_range():
    # each vector is projected unit_scaled, and tol with it: vectors near
    # the float maximum give bitwise what they give scaled down, and a
    # tiny vector still falls under an absolute tol
    vecs = [np.array([1.5e308, 1.5e308j, 0.0]), np.array([1.5e308, 0.0, 1e308])]
    alone = np.array(mgs_orthonormalize([v * 2.0 ** -1000 for v in vecs]))
    assert np.array(mgs_orthonormalize(vecs)).tobytes() == alone.tobytes()
    assert mgs_orthonormalize([np.array([1e-11, 0j])]) == []
    assert len(mgs_orthonormalize([np.array([1e-11, 0j])], tol=1e-12)) == 1


def test_lu_pivoting_stability():
    # tiny leading entry forces a row swap; without pivoting this loses digits
    a = np.array([[1e-18, 1.0], [1.0, 1.0]], dtype=complex)
    np.testing.assert_allclose(a @ lu_inverse(a), np.eye(2), atol=1e-12)


def test_mgs_basic():
    vecs = [np.array([1.0, 0.0, 0.0], dtype=complex),
            np.array([1.0, 1.0, 0.0], dtype=complex),
            np.array([1.0, 1.0, 1.0], dtype=complex)]
    out = mgs_orthonormalize(vecs)
    assert len(out) == 3
    g = np.array([[np.vdot(u, v) for v in out] for u in out])
    np.testing.assert_allclose(g, np.eye(3), atol=1e-14)


def test_mgs_drops_dependent():
    vecs = [np.array([1.0, 0.0], dtype=complex),
            np.array([2.0, 0.0], dtype=complex),
            np.array([0.0, 3.0], dtype=complex)]
    out = mgs_orthonormalize(vecs)
    assert len(out) == 2
    # nearly dependent input is dropped too, not renormalized into noise
    vecs = [np.array([1.0, 0.0], dtype=complex),
            np.array([1.0, 1e-14], dtype=complex)]
    assert len(mgs_orthonormalize(vecs)) == 1
    assert mgs_orthonormalize([]) == []
    assert len(mgs_orthonormalize([np.zeros(3, dtype=complex)])) == 0


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=10**6))
@settings(max_examples=30, deadline=None)
def test_mgs_stops_at_a_full_basis(dim, extra, seed):
    # a basis of C^d followed by more vectors gives the d vectors of the
    # basis alone, bitwise, also at tol = 0, where the rounding residual of
    # any vector projected against a full basis would be kept
    rng = np.random.default_rng(seed)
    basis = [rng.normal(size=dim) + 1j * rng.normal(size=dim) for _ in range(dim)]
    more = [rng.normal(size=dim) + 1j * rng.normal(size=dim) for _ in range(extra)]
    for tol in (0.0, 1e-10):
        alone = mgs_orthonormalize(basis, tol)
        assert len(alone) == dim
        out = mgs_orthonormalize(basis + more, tol)
        assert np.array(out).tobytes() == np.array(alone).tobytes()
    assert mgs_orthonormalize([]) == []
    assert mgs_orthonormalize([np.zeros(dim, dtype=complex)]) == []
    assert mgs_orthonormalize([np.zeros(0, dtype=complex)] * extra) == []


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=12),
       st.integers(min_value=0, max_value=5), st.sampled_from([0.0, 1e-10, 1e-6]),
       st.integers(min_value=0, max_value=10**6))
@settings(max_examples=40, deadline=None)
def test_mgs_stack_is_each_slice_list_call(n, k, count, tol, seed):
    # each slice of a stack bitwise its own list call, then zero rows:
    # slices that drop zero rows and combinations of earlier rows, an
    # all-zero slice, and random slices that reach a full basis first
    rng = np.random.default_rng(seed)
    stack = rng.normal(size=(count, k, n)) + 1j * rng.normal(size=(count, k, n))
    for b in range(count):
        kind = rng.integers(3)
        if kind == 0:
            stack[b] = 0.0
        for j in range(1, k if kind == 1 else 0):
            if rng.uniform() < 0.3:
                stack[b, j] = 0.0
            elif rng.uniform() < 0.5:
                stack[b, j] = (rng.normal(size=j) + 1j * rng.normal(size=j)) @ stack[b, :j]
    out = mgs_orthonormalize(stack, tol)
    assert out.shape == (count, min(k, n), n)
    for b in range(count):
        alone = np.array(mgs_orthonormalize(list(stack[b]), tol)).reshape(-1, n)
        assert out[b, :len(alone)].tobytes() == alone.tobytes()
        assert not out[b, len(alone):].any()


def test_mgs_rejects_mixed_lengths():
    with pytest.raises(ValueError):
        mgs_orthonormalize([np.zeros(2, dtype=complex), np.zeros(3, dtype=complex)])


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=8),
       st.integers(min_value=0, max_value=10**6))
@settings(max_examples=30, deadline=None)
def test_mgs_property(dim, count, seed):
    rng = np.random.default_rng(seed)
    vecs = [rng.normal(size=dim) + 1j * rng.normal(size=dim) for _ in range(count)]
    out = mgs_orthonormalize(vecs)
    assert len(out) <= min(dim, count)
    for a in out:
        assert abs(np.linalg.norm(a) - 1.0) <= 1e-12
    for i, a in enumerate(out):
        for b in out[i + 1:]:
            assert abs(np.vdot(a, b)) <= 1e-10
    # every input lies in the span of what survived
    if out:
        basis = np.array(out).T
        for v in vecs:
            coeff = basis.conj().T @ v
            resid = v - basis @ coeff
            assert np.linalg.norm(resid) <= 1e-7 * max(1.0, np.linalg.norm(v))


@given(st.integers(min_value=0, max_value=3),
       st.integers(min_value=1, max_value=80),
       st.integers(min_value=0, max_value=10**6))
@settings(max_examples=20, deadline=None)
def test_herm_eig_tridiagonal_property(count, n, seed):
    rng = np.random.default_rng(seed)
    stack = random_hermitian_stack(rng, count, n) * rng.choice([1e-3, 1.0, 1e3])
    w = herm_eig(stack)
    assert w.shape == (count, n)
    for b in range(count):
        ref = np.linalg.eigvalsh(stack[b])
        assert np.all(np.diff(w[b]) >= 0)
        np.testing.assert_allclose(w[b], ref, rtol=0, atol=1e-13 * np.abs(ref).max())


def test_herm_eig_tridiagonal_stack_matches_slices_bitwise():
    rng = np.random.default_rng(18)
    for n in (32, 128):
        stack = random_hermitian_stack(rng, 3, n)
        # a diagonal slice, which keeps its diagonal, beside slices that bisect
        stack[1] = np.diag(np.arange(n, dtype=float))
        w = herm_eig(stack)
        for b in range(3):
            np.testing.assert_array_equal(w[b], herm_eig(stack[b]))


def test_herm_eig_tridiagonal_structured_inputs():
    n = 40

    def check(h, values):
        w = herm_eig(h)
        np.testing.assert_allclose(w, np.sort(values), rtol=0,
                                   atol=1e-14 * max(np.abs(values).max(), 1e-300))

    # e = 0 exactly, and the first midpoints land on eigenvalues
    ints = np.repeat([-2.0, 0.0, 1.0, 3.0], n // 4)
    check(np.diag(ints[::-1]).astype(complex), ints)
    check(np.zeros((n, n), dtype=complex), np.zeros(n))
    for c in (1.0, -3.0, 2.5e-7):
        check(c * np.eye(n, dtype=complex), np.full(n, c))
    # a complex skew Z of odd order: chi(Z Z*) has an exact zero pair
    rng = np.random.default_rng(19)
    y = rng.normal(size=(33, 33)) + 1j * rng.normal(size=(33, 33))
    z = QuatMatrix.from_complex_pair(y - y.T, np.zeros((33, 33)))
    h = gram_product(z).chi()
    w = herm_eig(h)
    ref = np.linalg.eigvalsh(h)
    np.testing.assert_allclose(w, ref, rtol=0, atol=1e-13 * ref.max())
    assert np.abs(w[:2]).max() <= 1e-13 * ref.max()
    # tiny and huge entries: solved scaled by a power of two
    h = random_hermitian(rng, n)
    ref = np.linalg.eigvalsh(h)
    for c in (1e-170, 1e200):
        np.testing.assert_allclose(herm_eig(c * h), c * ref, rtol=0,
                                   atol=1e-13 * c * np.abs(ref).max())


def test_herm_eig_bisection_limit():
    h = random_hermitian(np.random.default_rng(20), 32)
    # an interval around a zero eigenvalue closes as fast as any other: 53
    # halvings from the power of two above the Gershgorin bound
    y = np.random.default_rng(21).normal(size=(33, 33))
    for zero_inside in (h, (y - y.T) @ (y - y.T).T, np.diag([0.0, 1.0] * 20)):
        herm_eig(zero_inside)


def structured_hermitian(kind, m, rng):
    """A Hermitian matrix of about m rows whose spectrum clusters the way
    the package's inputs do."""
    if kind == "chi":  # chi(W): every eigenvalue exactly doubled
        n = max(2, m // 2)
        return gram_product(random_skew_symmetric(n, int(rng.integers(2 ** 32)))).chi()
    if kind == "zz":  # Z Z* of a complex skew Z: positive eigenvalues even
        y = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        return (y - y.T) @ (y - y.T).conj().T
    if kind == "degenerate":  # chi(W) of the (0, s, s) class
        return gram_product(sample_degenerate_triple(rng).matrix()).chi()
    q = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
    if kind == "diag2225":
        return q @ np.diag([2.0, 2.0, 2.0, 5.0]) @ q.conj().T
    return random_hermitian(rng, m)


def golub_kahan(m, rng):
    """(d, e2) of the zero-diagonal tridiagonal of a complex skew Z, which
    hua_decompose solves, as stacks of one: a random Z, or one of rank
    2 p < m whose zero and small sigmas cluster."""
    y = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    if rng.uniform() < 0.5:
        p = int(rng.integers(m // 2 + 1))
        y = y[:, :p] @ y[:p] * 10.0 ** rng.uniform(-12, 0, size=(1, m))
    z = y - y.T
    scale = 2.0 ** -np.frexp(np.abs(z).max(initial=0.0))[1]
    return np.zeros((1, m)), _skew_tridiagonal(scale * z[None])[0]


def wilkinson(kind, m):
    """(d, e2), a stack of one, scaled to unit size by a power of two: the
    Wilkinson matrix W+ of odd order 7 to 63 (diagonal |k - i|, unit
    off-diagonal), whose top eigenvalues pair up closer the larger it is,
    or three copies of W+_21 glued by off-diagonals 1e-4, 1e-8, 1e-12,
    1e-15 or 0, whose eigenvalues come in threes."""
    half = 3 + m % 29 if kind == "wilkinson" else 10
    d = np.abs(np.arange(2 * half + 1) - half).astype(float)
    off = np.ones(2 * half)
    if kind == "glued":
        glue = [1e-4, 1e-8, 1e-12, 1e-15, 0.0][m % 5]
        d, off = np.tile(d, 3), np.concatenate([off, [glue], off, [glue], off])
    scale = 2.0 ** -np.frexp(half + 2.0)[1]
    return scale * d[None], (scale * off[None]) ** 2


@given(st.sampled_from(["chi", "zz", "degenerate", "diag2225", "random", "golub_kahan",
                        "wilkinson", "glued"]),
       st.integers(min_value=1, max_value=80), st.integers(min_value=1, max_value=64),
       st.integers(min_value=0, max_value=10**6))
@settings(max_examples=40, deadline=None)
# doubles on which inverse iteration with the members' shifts 10 eps apart
# left orthogonality 1.4e-11 and a residual 1.6e-13 of the scale
@example(kind="zz", m=80, count=4, seed=943265)
@example(kind="chi", m=71, count=1, seed=730368)
# a double whose members' twisted factorisations at shifts 10 eps apart
# turned the second member's solves toward the first's vector
@example(kind="zz", m=57, count=7, seed=936093)
def test_tridiagonal_eig_vectors_of_clustered_spectra(kind, m, count, seed):
    # eigenpairs of the tridiagonal solve that herm_eig and hua_decompose
    # share, against numpy's eigh, and each slice of a stack bitwise its
    # single call, whatever the rest of the stack holds
    rng = np.random.default_rng(seed)
    if kind == "golub_kahan":
        d, e2 = golub_kahan(m, rng)
    elif kind in ("wilkinson", "glued"):
        d, e2 = wilkinson(kind, m)
        m = d.shape[1]
    else:
        h = structured_hermitian(kind, m, rng)
        m = h.shape[0]
        d, e2 = unit_tridiagonal(h)
    others = [unit_tridiagonal(random_hermitian(rng, m, 10.0 ** rng.uniform(-6, 6))),
              unit_tridiagonal(np.zeros((m, m))),
              unit_tridiagonal(np.diag(rng.normal(size=m))), golub_kahan(m, rng)]
    picks = [(d, e2)] + [others[i] for i in rng.integers(0, 4, count - 1)]
    d, e2 = (np.concatenate(part) for part in zip(*picks))
    w, y = _tridiagonal_eig(d, e2, vectors=True)
    np.testing.assert_array_equal(_tridiagonal_eig(d, e2), w)
    for b in {0, count - 1, int(rng.integers(count))}:
        wb, yb = _tridiagonal_eig(d[b:b + 1], e2[b:b + 1], vectors=True)
        np.testing.assert_array_equal(w[b], wb[0])
        np.testing.assert_array_equal(y[b], yb[0])
    off = np.sqrt(e2[0])
    t = np.diag(d[0]) + np.diag(off, 1) + np.diag(off, -1)
    ref = np.linalg.eigvalsh(t)
    scale = np.abs(ref).max()
    np.testing.assert_allclose(w[0], ref, rtol=0, atol=1e-13 * scale)
    assert np.abs(t @ y[0] - y[0] * w[0]).max() <= 1e-13 * scale
    assert np.abs(y[0].T @ y[0] - np.eye(m)).max() <= 1e-11


def cluster_start(d, e2, w, k):
    """The highest j <= k at which, in every slice with an off-diagonal
    entry, a cluster of the full spectrum w starts: j = 0, or w_j lies more
    than CLUSTER_GAP times the slice's Gershgorin power of two above w_{j-1}."""
    rows = (e2 > 0).any(axis=1)
    top = gershgorin_top(d[rows], np.maximum(e2[rows], 2.0 ** -512))
    gaps = np.diff(w[rows], axis=1) > qskew.clinalg.CLUSTER_GAP * top[:, None]
    return max(j for j in range(k + 1) if j == 0 or gaps[:, j - 1].all())


@given(st.integers(min_value=1, max_value=24), st.integers(min_value=1, max_value=6),
       st.sampled_from(["golub_kahan", "floor", "zero", "random"]),
       st.integers(min_value=0, max_value=10**6))
@settings(max_examples=60, deadline=None)
def test_tridiagonal_eig_from_a_first_index_is_the_top_of_the_full_solve(m, count, kind,
                                                                        seed):
    # values from index k are bitwise the top m - k of the full solve, with
    # or without vectors; so are a slice's vectors when k starts one of its
    # clusters, which keeps every vector's start column and cluster
    # predecessors, and else they are orthonormal: zero-diagonal Golub-Kahan
    # forms of odd and even size, with +-sigma clusters across the middle
    # when Z loses rank, off-diagonals at the 2^-512 floor, zero slices
    rng = np.random.default_rng(seed)
    picks = []
    for _ in range(count):
        d, e2 = golub_kahan(m, rng)
        if kind == "floor":  # split into blocks, some off-diagonals floored
            e2 = e2 * rng.choice([0.0, 2.0 ** -1000, 1.0], size=e2.shape, p=[0.3, 0.2, 0.5])
        elif kind == "zero" and rng.uniform() < 0.5:
            e2 = np.zeros_like(e2)
        elif kind == "random":
            d, e2 = unit_tridiagonal(random_hermitian(rng, m))
        picks.append((d, e2))
    d, e2 = (np.concatenate(part) for part in zip(*picks))
    w, y = _tridiagonal_eig(d, e2, vectors=True)
    for k in sorted({0, m // 2, m - 1, int(rng.integers(m))}):
        assert _tridiagonal_eig(d, e2, first=k).tobytes() == w[:, k:].tobytes()
        wk, yk = _tridiagonal_eig(d, e2, vectors=True, first=k)
        assert wk.tobytes() == w[:, k:].tobytes()
        assert yk.shape == (count, m, m - k)
        for b in range(count):
            one = slice(b, b + 1)
            if not (e2[b] > 0).any() or cluster_start(d[one], e2[one], w[one], k) == k:
                assert yk[b].tobytes() == y[b, :, k:].tobytes()
            else:
                assert np.abs(yk[b].T @ yk[b] - np.eye(m - k)).max() <= 1e-12


def vector_input(kind, m, rng):
    """(d, e2), a stack of one, of a tridiagonal of size m: the Golub-Kahan
    form of a random complex skew Z, of one of rank 2 p < m, or of one
    whose sigmas repeat, or a random symmetric tridiagonal."""
    if kind == "tridiagonal":
        return rng.uniform(-1.0, 1.0, (1, m)), rng.uniform(0.0, 1.0, (1, m - 1)) ** 2
    y = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    if kind == "rank":
        p = int(rng.integers(m // 2))
        y = y[:, :p] @ y[:p]
    elif kind == "repeated":
        sigmas = rng.choice([0.5, 1.0, 2.0], size=m // 2)
        y = np.zeros((m, m))
        y[np.arange(0, 2 * sigmas.size, 2), np.arange(1, 2 * sigmas.size, 2)] = sigmas
        q = np.linalg.qr(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))[0]
        y = q @ y @ q.T
    z = y - y.T
    scale = 2.0 ** -np.frexp(np.abs(z).max(initial=0.0))[1]
    return np.zeros((1, m)), _skew_tridiagonal(scale * z[None])[0]


@given(st.lists(st.sampled_from(["random", "rank", "repeated", "tridiagonal"]), min_size=1,
                max_size=4),
       st.integers(min_value=2, max_value=32), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=40, deadline=None)
def test_tridiagonal_eig_vectors_alone_and_in_clusters(kinds, m, seed):
    # every column within the residual inverse iteration accepts and
    # orthonormal, against numpy's eigh; each slice bitwise its single call;
    # and the vector of an eigenvalue alone in the full spectrum, which one
    # twisted solve gives, bitwise the same from any first index, whichever
    # other columns cluster
    rng = np.random.default_rng(seed)
    d, e2 = (np.concatenate(part) for part in zip(*(vector_input(k, m, rng) for k in kinds)))
    top = gershgorin_top(d, np.maximum(e2, 2.0 ** -512))
    w, y = _tridiagonal_eig(d, e2, vectors=True)
    gap = qskew.clinalg.CLUSTER_GAP * top[:, None]
    apart = np.ones((len(d), m + 1), dtype=bool)
    apart[:, 1:-1] = np.diff(w, axis=1) > gap
    alone = apart[:, :-1] & apart[:, 1:]
    for k in sorted({0, m // 2, int(rng.integers(m))}):
        wk, yk = _tridiagonal_eig(d, e2, vectors=True, first=k)
        assert wk.tobytes() == w[:, k:].tobytes()
        for b in range(len(d)):
            off = np.sqrt(e2[b])
            t = np.diag(d[b]) + np.diag(off, 1) + np.diag(off, -1)
            ref, vec = np.linalg.eigh(t)
            np.testing.assert_allclose(wk[b], ref[k:], rtol=0, atol=1e-13 * top[b])
            res = np.sqrt(((t @ yk[b] - yk[b] * wk[b]) ** 2).sum(axis=0))
            assert res.max() <= 4 * m ** 1.5 * qskew.clinalg.EPS * top[b]
            assert np.abs(yk[b].T @ yk[b] - np.eye(m - k)).max() <= 1e-12
            one = _tridiagonal_eig(d[b:b + 1], e2[b:b + 1], vectors=True, first=k)[1][0]
            assert one.tobytes() == yk[b].tobytes()
            cols = np.flatnonzero(alone[b, k:])
            assert yk[b][:, cols].tobytes() == y[b][:, k + cols].tobytes()
            np.testing.assert_allclose(np.abs((vec[:, k + cols] * yk[b][:, cols]).sum(axis=0)),
                                       1.0, rtol=0, atol=1e-10)


def test_tridiagonal_eig_keeps_the_clusters_of_neighbouring_slices_apart():
    # slice 0 clusters at eigenvalues 1 and 2 and slice 1, lower, at 3 and
    # 4, so among the clustered columns of the stack the two clusters
    # follow each other; each slice still solves as in its own call
    rng = np.random.default_rng(17)
    picks = []
    for spectrum in ([0.0, 1.0, 1.0, 2.0, 3.0], [-3.0, -2.0, -1.0, 0.5, 0.5]):
        q = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))[0]
        picks.append(unit_tridiagonal(q @ np.diag(spectrum) @ q.conj().T))
    d, e2 = (np.concatenate(part) for part in zip(*picks))
    w, y = _tridiagonal_eig(d, e2, vectors=True)
    assert w[1, 3] < w[0, 2]
    for b in range(2):
        yb = _tridiagonal_eig(d[b:b + 1], e2[b:b + 1], vectors=True)[1][0]
        assert yb.tobytes() == y[b].tobytes()
        assert np.abs(yb.T @ yb - np.eye(5)).max() <= 1e-12


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_herm_eig_quaternion_matches_the_doubled_adjoint(n, count, seed):
    # [A_c | A_d] solved at size n gives every second value of the doubled
    # spectrum of chi(A), each slice at its own scale and bitwise its single
    # call; a complex H gives the spectrum of H
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1, 1, (count, n, n, 4)) * 10.0 ** rng.uniform(-6, 6, (count, 1, 1, 1))
    a = QuatMatrix(a) + QuatMatrix(a).conj_transpose()
    chi = a.chi()
    w = herm_eig(chi[:, :n])
    for b in range(count):
        np.testing.assert_allclose(w[b], np.linalg.eigvalsh(chi[b])[::2], rtol=0,
                                   atol=1e-12 * a.norm()[b])
        assert herm_eig(chi[b, :n]).tobytes() == w[b].tobytes()
        h = chi[b, :n, :n]
        np.testing.assert_allclose(herm_eig(h), np.linalg.eigvalsh(h), rtol=0,
                                   atol=1e-12 * frobenius_norm(h))


@given(st.sampled_from([(), (3,), (2, 3)]), st.integers(min_value=1, max_value=6),
       st.floats(min_value=-14, max_value=-4), st.integers(min_value=-900, max_value=900),
       st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_herm_eig_refuses_what_is_hermitian_refuses(stack, n, log_tol, k, seed):
    # one Hermitian rule: herm_eig of [A_c | A_d], and of a complex H,
    # refuses at tol exactly the slices that QuatMatrix.is_hermitian
    # refuses, at any scale, and names the first of them; each slice gets
    # one bump of about tol times its largest entry, so both verdicts occur
    rng = np.random.default_rng(seed)
    tol = 10.0 ** log_tol
    a = QuatMatrix(rng.uniform(-1, 1, stack + (n, n, 4)))
    data = (a + a.conj_transpose()).data.copy()
    for b in np.ndindex(stack):
        size = QuatMatrix(data[b]).max_abs() * tol * 2.0 ** rng.uniform(-3, 3)
        data[b + (rng.integers(n), rng.integers(n), rng.integers(4))] += size
    q = QuatMatrix(np.ldexp(data, k))
    c = q.chi()[..., :n, :]
    h = c[..., :n]
    for x, ok in ((c, q.is_hermitian(tol)),
                  (h, QuatMatrix.from_parts(h.real, h.imag).is_hermitian(tol))):
        ok = np.asarray(ok)
        if ok.all():
            assert herm_eig(x, tol).shape == stack + (n,)
            continue
        name = ""
        if stack:
            first = np.unravel_index(np.flatnonzero(~ok)[0], stack)
            name = " (slice %s)" % ", ".join(map(str, first))
        with pytest.raises(ValueError, match="^matrix is not Hermitian%s$" % re.escape(name)):
            herm_eig(x, tol)


def test_herm_eig_checks_the_quaternion_half():
    # A = A_c + A_d j is Hermitian when A_c is and A_d is antisymmetric
    ac = np.array([[2.0, 1j], [-1j, 3.0]])
    ad = np.array([[0.0, 1 + 1j], [-1 - 1j, 0.0]])
    herm_eig(np.hstack([ac, ad]))
    with pytest.raises(ValueError, match="not Hermitian"):
        herm_eig(np.hstack([ac, ad + np.eye(2)]))
    with pytest.raises(ValueError, match=r"\(m, m\) or \(m, 2m\)"):
        herm_eig(np.hstack([ac, ad, ad]))


def test_herm_eig_one_by_one_and_empty_stacks():
    for h in ([[5.0]], np.full((3, 1, 1), -2.0)):
        np.testing.assert_array_equal(herm_eig(h), np.real(h)[..., 0])
    for shape in ((0, 3, 3), (2, 0, 0), (0, 0)):
        assert herm_eig(np.zeros(shape)).shape == shape[:-1]
    # and their tridiagonals, with vectors
    w, y = _tridiagonal_eig(np.full((3, 1), -2.0), np.zeros((3, 0)), vectors=True)
    np.testing.assert_array_equal(w, np.full((3, 1), -2.0))
    np.testing.assert_array_equal(y, np.ones((3, 1, 1)))
    for count, m in ((0, 3), (2, 0)):
        w, y = _tridiagonal_eig(np.zeros((count, m)), np.zeros((count, max(m - 1, 0))),
                                vectors=True)
        assert w.shape == (count, m) and y.shape == (count, m, m)


def plain_bisection(d, e2, top):
    """_bisect by its definition: 53 rounds of one cut per interval on the
    dyadic grid over [-top, top], with the Sturm counts written out."""
    count, m = d.shape
    lo = np.repeat(-top[:, None], m, axis=1)
    with np.errstate(divide="ignore", over="ignore"):
        for level in range(1, 54):
            x = lo + np.ldexp(2.0 * top, -level)[:, None]
            q = d[:, :1] - x
            below = np.signbit(q).astype(np.intp)
            for i in range(1, m):
                q = (d[:, i:i + 1] - x) - e2[:, i - 1:i] / q
                below += np.signbit(q)
            lo = np.where(below <= np.arange(m), x, lo)
    return np.sort(lo + np.ldexp(2.0 * top, -54)[:, None], axis=1)


def gershgorin_top(d, e2):
    """The power of two above each slice's Gershgorin bound, as
    _tridiagonal_eig hands it to _bisect."""
    off = np.sqrt(e2)
    radius = np.abs(d)
    radius[:, 1:] += off
    radius[:, :-1] += off
    return np.ldexp(1.0, np.frexp(radius.max(axis=1))[1])


def quaternion_tridiagonal(w):
    """(d, e2), a stack of one, of the real tridiagonal form of a Hermitian
    quaternion W, laid out and scaled as herm_eig does."""
    n = w.nrows
    c = w.chi()[:n]
    ac, ad = (c[:, :n] + c[:, :n].conj().T) / 2, (c[:, n:] - c[:, n:].T) / 2
    a = np.stack([ac, ad], axis=2).reshape(1, n, 2 * n)
    return _tridiagonal(unit_scaled(a)[0])


def bisection_input(kind, m, rng):
    """(d, e2) of one tridiagonal of about m rows, entries of size about 1,
    whose spectrum is of the given kind."""
    if kind == "golub_kahan":  # +-sigma, and 0 when m is odd
        return golub_kahan(m, rng)
    if kind == "wilkinson":  # W21+, whose top pairs agree to about 1e-14
        return np.abs(np.arange(21.0) - 10)[None] / 16, np.full((1, 20), 2.0 ** -8)
    if kind == "floor":  # repeated diagonal entries, off-diagonals at the floor
        return rng.integers(-2, 3, (1, m)) / 4.0, np.zeros((1, m - 1))
    if kind == "search":  # W = Z Z* of a search trial: simple, positive
        return quaternion_tridiagonal(gram_product(random_skew_symmetric(
            max(m, 4), int(rng.integers(2 ** 32)))))
    if kind == "degenerate3":  # the quaternion (0, s, s) class: near-doubles
        return quaternion_tridiagonal(gram_product(sample_degenerate_triple(rng).matrix()))
    return unit_tridiagonal(structured_hermitian(kind, m, rng))


@given(st.sampled_from(["search", "random", "chi", "zz", "degenerate", "degenerate3",
                        "golub_kahan", "wilkinson", "floor"]),
       st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=8),
       st.booleans(), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=80, deadline=None)
def test_bisect_on_a_newton_stack_is_plain_grid_bisection(kind, m, extra, mixed, seed):
    # stacks of 74 intervals and more take Newton steps on every isolated
    # eigenvalue, when at least half are, and bisect the rest; the cells
    # must be those of the plain bisection, bitwise: simple spectra, exact
    # doubles (chi, complex Z Z*), near-doubles, zero eigenvalues, the
    # +-sigma form, off-diagonals at the 2^-512 floor and W21+, each alone
    # or, mixed, among slices with simple spectra
    rng = np.random.default_rng(seed)
    first = bisection_input(kind, m, rng)
    m = first[0].shape[1]
    picks = [first] + [bisection_input("random" if mixed and rng.uniform() < 0.7 else kind,
                                       m, rng)
                       for _ in range(-(-74 // m) - 1 + extra)]
    d, e2 = (np.concatenate(part) for part in zip(*picks))
    assert d.size >= 74
    e2 = np.maximum(e2, 2.0 ** -512)
    top = gershgorin_top(d, e2)
    w = qskew.clinalg._bisect(d, e2, top)
    assert w.tobytes() == plain_bisection(d, e2, top).tobytes()


@given(st.sampled_from(["search", "random", "chi", "zz", "degenerate", "degenerate3",
                        "golub_kahan", "wilkinson", "floor"]),
       st.integers(min_value=2, max_value=36), st.integers(min_value=0, max_value=72),
       st.booleans(), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=60, deadline=None)
def test_bisect_below_the_newton_size_is_plain_grid_bisection(kind, m, extra, mixed, seed):
    # stacks of 1 to 73 intervals bisect with several cuts per round, each
    # interval on its own column; the cells must be those of the plain
    # bisection, bitwise, from eigenvalue 0 and from m // 2 up
    rng = np.random.default_rng(seed)
    first = bisection_input(kind, m, rng)
    m = first[0].shape[1]
    picks = [first] + [bisection_input("random" if mixed and rng.uniform() < 0.7 else kind,
                                       m, rng)
                       for _ in range(extra % (73 // m))]
    d, e2 = (np.concatenate(part) for part in zip(*picks))
    assert d.size <= 73
    e2 = np.maximum(e2, 2.0 ** -512)
    top = gershgorin_top(d, e2)
    full = plain_bisection(d, e2, top)
    assert qskew.clinalg._bisect(d, e2, top).tobytes() == full.tobytes()
    assert qskew.clinalg._bisect(d, e2, top, m // 2).tobytes() == full[:, m // 2:].tobytes()


def test_newton_confirms_every_cell_of_a_search_stack():
    # a search block's spectra are simple: every interval is closed by
    # Newton steps and confirmed by Sturm counts, none is bisected further
    d, e2 = (np.concatenate(part) for part in zip(*[
        bisection_input("search", 4, np.random.default_rng(seed)) for seed in range(100)]))
    top = gershgorin_top(d, e2)
    index, span = np.tile(np.arange(4), 100), np.repeat(2.0 * top, 4)
    # one column per interval, as _bisect lays them out
    diag, e2s = np.repeat(d, 4, axis=0).T, np.repeat(e2, 4, axis=0).T
    with np.errstate(divide="ignore", over="ignore"):
        lo = qskew.clinalg._grid(diag, e2s, index, -span / 2, span, 0, 9)
        rest = qskew.clinalg._newton_cells(diag, e2s, index, lo, span, 9)
    assert rest.size == 0
    w = np.sort((lo + np.ldexp(span, -54)).reshape(100, 4), axis=1)
    assert w.tobytes() == plain_bisection(d, e2, top).tobytes()


@given(st.sampled_from(["search", "random", "chi", "zz"]),
       st.integers(min_value=2, max_value=24), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=20, deadline=None)
def test_herm_eig_newton_stack_slices_match_single_calls(kind, m, seed):
    # a stack of 74 intervals or more against each slice on its own, which
    # bisects on the grid alone
    rng = np.random.default_rng(seed)
    if kind == "search":
        z = random_skew_symmetric(m, [int(s) for s in rng.integers(2 ** 32, size=-(-74 // m))])
        w = gram_product(z)
        stack = w.chi()[:, :m]
    else:
        first = structured_hermitian(kind, m, rng)
        m = first.shape[0]
        stack = np.array([first] + [structured_hermitian(kind, m, rng)
                                    for _ in range(-(-74 // m) - 1)])
    assert stack.shape[0] * m >= 74
    values = herm_eig(stack)
    for b in range(stack.shape[0]):
        assert herm_eig(stack[b]).tobytes() == values[b].tobytes()
