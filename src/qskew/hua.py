"""Unitary congruence canonical form for complex skew-symmetric matrices.

For any complex Z with Z^T = -Z there is a unitary U such that U Z U^T is
block diagonal: 2x2 blocks [[0, sigma], [-sigma, 0]] with sigma > 0, then
a zero block covering the kernel (Hua).  hua_decompose works on Z itself:
skew Householder congruence reduces it to a real skew tridiagonal matrix,
and the eigenpairs of its Golub-Kahan form give the sigmas and the block
pairs: one twisted factorisation per sigma, whose vector is closed form
for an isolated sigma and iterates through the same factors in a
cluster, and one Gram-Schmidt pass per stack.
even_multiplicity_check tests the same fact independently through
H = Z Z*, each of whose positive eigenvalues appears an even number of
times.  Both take one matrix or a (B, n, n) stack, which goes through one
reduction and one tridiagonal solve, and give each slice bitwise the
result of its own call.
"""

from dataclasses import dataclass

import numpy as np

from .clinalg import (ConvergenceError, _require, _skew_tridiagonal,
                      _tridiagonal_eig, even_clusters, frobenius_norm, herm_eig,
                      mgs_orthonormalize, unit_scaled)
from .qmatrix import QuatMatrix


@dataclass
class HuaForm:
    """Result of hua_decompose: U Z U^T = Sigma(sigmas, zero_dim)."""
    u: np.ndarray
    sigmas: list
    zero_dim: int
    residual: float
    unitarity_residual: float

    def canonical(self):
        """The block matrix Sigma this form certifies."""
        n = 2 * len(self.sigmas) + self.zero_dim
        return _canonical(np.array(self.sigmas, dtype=float)[None], n)[0]

    def to_dict(self):
        return {"sigmas": [float(s) for s in self.sigmas],
                "zero_dim": int(self.zero_dim),
                "residual": float(self.residual),
                "unitarity_residual": float(self.unitarity_residual),
                "u": np.stack([self.u.real, self.u.imag], axis=-1).tolist()}


def _canonical(blocks, n):
    """Block matrices Sigma (B, n, n) from sigmas blocks (B, p), p <= n // 2:
    each slice's sigmas in 2x2 blocks [[0, sigma], [-sigma, 0]] down the
    diagonal, then zeros."""
    s = np.zeros((len(blocks), n, n), dtype=complex)
    even = np.arange(0, 2 * blocks.shape[1], 2)
    s[:, even, even + 1] = blocks
    s[:, even + 1, even] = -blocks
    return s


def even_multiplicity_check(z):
    """Whether every positive eigenvalue of Z Z* appears an even number of times.

    True for every complex skew-symmetric Z; its quaternion analogue fails.
    A bool for one complex (n, n) matrix, one per slice of a (B, n, n)
    stack, each unit_scaled so that Z Z* stays in range, in one herm_eig call.
    """
    z = unit_scaled(np.asarray(z, dtype=complex), axis=(-2, -1))[0]
    return even_clusters(herm_eig(z @ z.conj().swapaxes(-2, -1)))


def hua_decompose(z, tol=1e-8):
    """Canonical pair form of a complex skew-symmetric matrix, or of each
    slice of a (B, n, n) stack.

    Returns a HuaForm, or for a stack a list of them, each bitwise that of
    its own call, with U unitary, sigmas descending and positive, and the
    kernel gathered in a trailing zero block.  Raises ValueError for
    non-skew input or a sigma beyond the float range, and ConvergenceError
    when the eigensolver reaches its iteration limit or the final residuals
    exceed their contracts; for a stack, a failed check names the first
    slice that fails it.  The
    residual limit is tol * ||Z||_F; the smallest pairs go to the kernel
    while sqrt(2) times the norm of their sigmas, which is what dropping
    them adds to the residual, stays within half that limit.  Each Z is
    decomposed unit_scaled, as Z 2^-e, and its sigmas and residual are
    scaled back by 2^e.

    Skew Householder congruence reduces every Z at once to a real skew
    tridiagonal T, with superdiagonal e >= 0 (_skew_tridiagonal).  With
    S = diag((-i)^k), S^* (i T) S is the symmetric tridiagonal with zero
    diagonal and off-diagonal e (Golub & Kahan, SIAM J. Numer. Anal. B 2,
    1965), whose eigenvalues are +-sigma, and 0 once more when n is odd.
    Its eigenvector s at sigma gives T phi = -i sigma phi for phi = S s, so
    u1 = Im phi and u2 = Re phi, which hold the odd and the even entries
    of s, satisfy T u2 = sigma u1 and T u1 = -sigma u2: normalised, they
    are the rows of one block pair.  Only the eigenpairs from n // 2 up,
    the +sigma half and the 0 of odd n, are solved, in one solve for the
    whole stack, and the sigmas come from them.  The parts of the
    eigenvectors whose pairs go to the kernel lie in it; where they do not
    span it, as when +-sigma near 0 share a cluster, Gram-Schmidt completes
    them from the unit rows, whose parts orthogonal to the block pairs lie
    in the kernel block too.  One Gram-Schmidt call orthonormalises the
    rows of every slice, and the canonical blocks, the kernel cut and the
    sigmas scaled back are arrays over the stack.
    """
    z = np.asarray(z, dtype=complex)
    if z.ndim not in (2, 3):
        raise ValueError("hua_decompose needs a matrix or a (B, n, n) stack")
    _require(QuatMatrix.from_parts(z.real, z.imag).is_skew_symmetric(tol),
             "matrix is not skew-symmetric within tolerance")
    single = z.ndim == 2
    if single:
        z = z[None]
    count, n = z.shape[:2]
    z, e = unit_scaled(z, axis=(1, 2))
    # unit_scaled already, so the plain sum of squares is frobenius_norm's
    scale = np.sqrt((np.abs(z) ** 2).sum(axis=(1, 2)))

    e2, q = _skew_tridiagonal((z - z.swapaxes(1, 2)) / 2.0)
    w, y = _tridiagonal_eig(np.zeros((count, n)), e2, vectors=True, first=n // 2)
    sigmas = w[:, ::-1][:, :n // 2]
    # what sending pairs t, t + 1, ... to the kernel adds to the residual
    dropped = np.sqrt(2.0 * np.cumsum(sigmas[:, ::-1] ** 2, axis=1))[:, ::-1]
    pairs = (dropped > tol * scale[:, None] / 2.0).sum(axis=1)
    # Im phi and Re phi of each eigenvector, highest eigenvalue first: the
    # block pairs, then the kernel candidates, then the unit rows, which
    # span C^n, so every slice keeps n rows
    phi = y[:, :, ::-1].swapaxes(1, 2) * np.array([1, -1j, -1, 1j])[np.arange(n) % 4]
    parts = np.stack([phi.imag, phi.real], axis=2).reshape(count, 2 * y.shape[2], n)
    rows = np.concatenate([parts, np.broadcast_to(np.eye(n), (count, n, n))], axis=1)
    u = mgs_orthonormalize(rows, tol=1e-6)[:, :n] @ q

    # the block sigmas of each slice, 0 past its pairs
    blocks = np.where(np.arange(n // 2) < pairs[:, None], sigmas, 0.0)
    residual = frobenius_norm(u @ z @ u.swapaxes(1, 2) - _canonical(blocks, n), axis=(1, 2))
    unitarity = frobenius_norm(u.conj().swapaxes(1, 2) @ u - np.eye(n), axis=(1, 2))
    ok = (residual <= tol * scale) & (unitarity <= tol)
    # scaled back, a sigma, or the limit of a large tol, may lie beyond the
    # float range
    with np.errstate(over="ignore"):
        _require(ok[0] if single else ok, "canonical form residuals out of contract: "
                 "reconstruction %.3e (limit %.3e), unitarity %.3e (limit %.3e)",
                 np.ldexp(residual, e), np.ldexp(tol * scale, e), unitarity, tol,
                 error=ConvergenceError)
        sigmas = np.ldexp(blocks, e[:, None])
    finite = np.isfinite(sigmas).all(axis=1)
    _require(finite[0] if single else finite, "hua_decompose: a sigma lies beyond the float range")
    sigmas, residual = sigmas.tolist(), np.ldexp(residual, e).tolist()
    forms = [HuaForm(u[b], sigmas[b][:pairs[b]], n - 2 * int(pairs[b]), residual[b],
                     float(unitarity[b])) for b in range(count)]
    return forms[0] if single else forms
