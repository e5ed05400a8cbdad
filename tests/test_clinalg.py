"""Checks for the hand-rolled complex dense kernels.

numpy.linalg is used here only as an independent reference; the library
code itself never calls it.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qskew.clinalg
from qskew import (
    ConvergenceError,
    SingularMatrixError,
    herm_eig,
    lu_factor,
    lu_inverse,
    lu_solve,
    mgs_orthonormalize,
)


def random_hermitian(rng, n, scale=1.0):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * (m + m.conj().T) / 2


def test_herm_eig_diagonal():
    h = np.diag([3.0, -1.0, 2.0]).astype(complex)
    vals, vecs = herm_eig(h)
    np.testing.assert_allclose(vals, [-1.0, 2.0, 3.0], atol=1e-14)
    np.testing.assert_allclose(h @ vecs, vecs @ np.diag(vals), atol=1e-13)


def test_herm_eig_2x2_frozen():
    h = np.array([[2.0, 1.0j], [-1.0j, 2.0]])
    vals, vecs = herm_eig(h)
    np.testing.assert_allclose(vals, [1.0, 3.0], atol=1e-14)
    np.testing.assert_allclose(vecs.conj().T @ vecs, np.eye(2), atol=1e-14)


def test_herm_eig_matches_reference():
    rng = np.random.default_rng(10)
    for n in (2, 3, 5, 8, 12):
        h = random_hermitian(rng, n)
        vals, vecs = herm_eig(h)
        ref = np.linalg.eigvalsh(h)
        np.testing.assert_allclose(vals, ref, atol=1e-10 * max(1, np.abs(h).max()))
        # eigenpairs actually solve the problem
        np.testing.assert_allclose(h @ vecs, vecs @ np.diag(vals), atol=1e-11)
        np.testing.assert_allclose(vecs.conj().T @ vecs, np.eye(n), atol=1e-12)


def test_herm_eig_repeated_eigenvalues():
    # block with a double eigenvalue; rotations must still settle
    q, _ = np.linalg.qr(np.random.default_rng(11).normal(size=(4, 4))
                        + 1j * np.random.default_rng(12).normal(size=(4, 4)))
    h = q @ np.diag([2.0, 2.0, 2.0, 5.0]) @ q.conj().T
    vals, vecs = herm_eig(h)
    np.testing.assert_allclose(vals, [2.0, 2.0, 2.0, 5.0], atol=1e-12)
    np.testing.assert_allclose(h @ vecs, vecs @ np.diag(vals), atol=1e-12)


def test_herm_eig_scale_invariance():
    rng = np.random.default_rng(13)
    h = random_hermitian(rng, 5)
    vals_small, _ = herm_eig(h * 1e-8)
    vals_big, _ = herm_eig(h * 1e8)
    base, _ = herm_eig(h)
    np.testing.assert_allclose(vals_small, base * 1e-8, rtol=1e-10)
    np.testing.assert_allclose(vals_big, base * 1e8, rtol=1e-10)


def test_herm_eig_rejects_non_hermitian():
    with pytest.raises(ValueError):
        herm_eig(np.array([[0.0, 1.0], [2.0, 0.0]], dtype=complex))
    with pytest.raises(ValueError):
        herm_eig(np.zeros((2, 3), dtype=complex))


def test_herm_eig_zero_matrix():
    vals, vecs = herm_eig(np.zeros((3, 3), dtype=complex))
    np.testing.assert_array_equal(vals, np.zeros(3))
    np.testing.assert_allclose(vecs.conj().T @ vecs, np.eye(3), atol=0)


@given(st.integers(min_value=1, max_value=9), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=30, deadline=None)
def test_herm_eig_property(n, seed):
    rng = np.random.default_rng(seed)
    h = random_hermitian(rng, n, scale=rng.choice([1e-3, 1.0, 1e3]))
    vals, vecs = herm_eig(h)
    scale = max(1.0, float(np.abs(h).max()))
    assert np.all(np.diff(vals) >= -1e-12 * scale)
    np.testing.assert_allclose(h @ vecs, vecs @ np.diag(vals), atol=1e-9 * scale)
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
        w, v = herm_eig(stack)
        assert w.shape == (6, n) and v.shape == (6, n, n)
        for b in range(6):
            wb, vb = herm_eig(stack[b])
            np.testing.assert_array_equal(w[b], wb)
            np.testing.assert_array_equal(v[b], vb)
        np.testing.assert_array_equal(herm_eig(stack, vectors=False), w)
        np.testing.assert_array_equal(herm_eig(stack[0], vectors=False), w[0])


def test_herm_eig_tiny_and_huge_entries():
    # the Frobenius norm of c * swap underflows to 0 (c = 1e-170, 1e-200) or
    # overflows (c = 1e200) unless each slice is first scaled by a power of two
    swap = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    normal = np.array([[2.0, 1 - 1j], [1 + 1j, 3.0]])
    w0, v0 = herm_eig(normal)
    for c in (1e-170, 1e-200, 1e200):
        np.testing.assert_allclose(herm_eig(swap * c, vectors=False), [-c, c], rtol=1e-14)
        w, v = herm_eig(np.stack([normal, swap * c]))
        np.testing.assert_allclose(w[1], [-c, c], rtol=1e-14)
        resid = (swap * c) @ v[1] - v[1] * w[1]
        assert np.abs(resid).max() <= 1e-14 * c
        np.testing.assert_allclose(v[1].conj().T @ v[1], np.eye(2), atol=1e-14)
        # the normal slice is bitwise its own single call
        np.testing.assert_array_equal(w[0], w0)
        np.testing.assert_array_equal(v[0], v0)
        np.testing.assert_array_equal(herm_eig(np.stack([normal, swap * c]),
                                               vectors=False)[0], w0)


@given(st.integers(min_value=0, max_value=5), st.integers(min_value=1, max_value=9),
       st.integers(min_value=0, max_value=10**6))
@settings(max_examples=30, deadline=None)
def test_herm_eig_stack_property(count, n, seed):
    rng = np.random.default_rng(seed)
    stack = random_hermitian_stack(rng, count, n) * rng.choice([1e-3, 1.0, 1e3])
    w, v = herm_eig(stack)
    assert w.shape == (count, n) and v.shape == (count, n, n)
    for b in range(count):
        scale = max(1.0, float(np.abs(stack[b]).max()))
        np.testing.assert_allclose(w[b], np.linalg.eigvalsh(stack[b]),
                                   atol=1e-10 * scale)
        np.testing.assert_allclose(stack[b] @ v[b], v[b] * w[b], atol=1e-9 * scale)
        np.testing.assert_allclose(v[b].conj().T @ v[b], np.eye(n), atol=1e-12)


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
                herm_eig(stack, vectors=False)
    with pytest.raises(ValueError):
        herm_eig(np.zeros((2, 3, 4), dtype=complex))
    with pytest.raises(ValueError):
        herm_eig(np.zeros((1, 2, 2, 2), dtype=complex))


def test_herm_eig_sweep_limit(monkeypatch):
    h = random_hermitian(np.random.default_rng(16), 8)
    monkeypatch.setattr(qskew.clinalg, "MAX_SWEEPS", 1)
    with pytest.raises(ConvergenceError, match="sweep limit 1"):
        herm_eig(h)
    with pytest.raises(ConvergenceError):
        herm_eig(np.stack([np.diag([1.0, 2.0] * 4), h]), vectors=False)


def test_lu_solve_matches_reference():
    rng = np.random.default_rng(20)
    for n in (1, 2, 5, 9):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        b = rng.normal(size=n) + 1j * rng.normal(size=n)
        lu, piv = lu_factor(a)
        x = lu_solve(lu, piv, b)
        np.testing.assert_allclose(a @ x, b, atol=1e-10)
        np.testing.assert_allclose(x, np.linalg.solve(a, b), atol=1e-9)


def test_lu_solve_multiple_rhs():
    rng = np.random.default_rng(21)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    b = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
    lu, piv = lu_factor(a)
    x = lu_solve(lu, piv, b)
    np.testing.assert_allclose(a @ x, b, atol=1e-10)


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
    for solve in (lu_factor, lu_inverse):
        with pytest.raises(ValueError, match="finite") as exc:
            solve(a)
        assert not isinstance(exc.value, SingularMatrixError)


def test_lu_singular_raises():
    a = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex)
    with pytest.raises(SingularMatrixError):
        lu_factor(a)
    with pytest.raises(SingularMatrixError):
        lu_inverse(np.zeros((3, 3), dtype=complex))


def test_lu_pivoting_stability():
    # tiny leading entry forces a row swap; without pivoting this loses digits
    a = np.array([[1e-18, 1.0], [1.0, 1.0]], dtype=complex)
    lu, piv = lu_factor(a)
    x = lu_solve(lu, piv, np.array([1.0, 2.0], dtype=complex))
    np.testing.assert_allclose(a @ x, [1.0, 2.0], atol=1e-12)


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
