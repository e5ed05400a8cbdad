"""Unitary congruence canonical form for complex skew-symmetric matrices.

For any complex Z with Z^T = -Z there is a unitary U such that U Z U^T is
block diagonal: 2x2 blocks [[0, sigma], [-sigma, 0]] with sigma > 0, then
a zero block covering the kernel.  The construction goes through the
Hermitian product H = Z Z*: each positive eigenvalue of H carries an even
number of eigenvectors, and the antiunitary map u -> Z conj(u) / sigma
turns one eigenvector into its block partner.
"""

from dataclasses import dataclass

import numpy as np

from .clinalg import (ConvergenceError, cluster_runs, companion_basis,
                      frobenius_norm, herm_eig, mgs_orthonormalize)
from .qmatrix import QuatMatrix

CLUSTER_TOL = 1e-8


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
        s = np.zeros((n, n), dtype=complex)
        for t, sig in enumerate(self.sigmas):
            s[2 * t, 2 * t + 1] = sig
            s[2 * t + 1, 2 * t] = -sig
        return s

    def to_dict(self, include_u=True):
        out = {"sigmas": [float(s) for s in self.sigmas],
               "zero_dim": int(self.zero_dim),
               "residual": float(self.residual),
               "unitarity_residual": float(self.unitarity_residual)}
        if include_u:
            out["u"] = np.stack([self.u.real, self.u.imag], axis=-1).tolist()
        return out


def _cluster_cut(values):
    return CLUSTER_TOL * float(values.max(initial=0.0))


def positive_clusters(values):
    """Group the positive entries of an ascending eigenvalue array.

    Entries at or below CLUSTER_TOL times the largest value count as zero.
    Two neighbours share a cluster when their gap is at most that same
    threshold.  Returns a list of index lists, one per cluster.
    """
    values = np.asarray(values, dtype=float)
    cut = _cluster_cut(values)
    order = np.argsort(values, kind="stable")
    idx = order[values[order] > cut]
    return [idx[lo:hi].tolist() for lo, hi in cluster_runs(values[idx], cut)]


def even_multiplicity_check(z):
    """Whether every positive eigenvalue of Z Z* appears an even number of times.

    True for every complex skew-symmetric Z; the quaternion analogue of
    this statement fails, which is the whole point of keeping it testable.
    """
    z = np.asarray(z, dtype=complex)
    h = z @ z.conj().T
    return all(len(c) % 2 == 0
               for c in positive_clusters(herm_eig(h, vectors=False)))


def hua_decompose(z, tol=1e-8):
    """Canonical pair form of a complex skew-symmetric matrix.

    Returns a HuaForm with U unitary, sigmas descending and positive, and
    the kernel gathered in a trailing zero block.  Raises ValueError for
    non-skew input or when a positive eigenvalue cluster has odd size
    (a clustering-tolerance failure), and ConvergenceError when the final
    residuals exceed their contracts.  The kernel cut and the residual
    limit are tol * ||Z||_F, the cluster gap CLUSTER_TOL * sigma_max^2.
    """
    z = np.asarray(z, dtype=complex)
    if not QuatMatrix(z).is_skew_symmetric(tol):
        raise ValueError("matrix is not skew-symmetric within tolerance")
    n = z.shape[0]
    scale = frobenius_norm(z)
    if n == 0:
        return HuaForm(np.zeros((0, 0), dtype=complex), [], 0, 0.0, 0.0)

    h = z @ z.conj().T
    _, v = herm_eig(h)

    # measure each mode directly on Z; far sharper near the kernel than
    # sqrt of the H eigenvalue
    sig_hat = np.array([frobenius_norm(z @ v[:, j].conj()) for j in range(n)])
    zero_idx = [j for j in range(n) if sig_hat[j] <= tol * scale]
    order = np.argsort(sig_hat, kind="stable")
    pos = order[sig_hat[order] > tol * scale]

    def partner(u):
        zu = z @ u.conj()
        return zu / frobenius_norm(zu)

    # group positive modes whose squared values sit within the gap rule,
    # then take one (w, u) block pair per two modes, highest cluster first
    lam = sig_hat ** 2
    pairs = []  # (sigma, w_vec, u_vec)
    for lo, hi in reversed(cluster_runs(lam[pos], _cluster_cut(lam))):
        if (hi - lo) % 2:
            raise ValueError(
                "positive eigenvalue cluster of odd size %d at sigma ~ %.6g; "
                "clustering tolerance is off" % (hi - lo, sig_hat[pos[lo]]))
        for u, w in companion_basis(v[:, pos[lo:hi]], (hi - lo) // 2, partner):
            pairs.append((frobenius_norm(z @ u.conj()), w, u))

    pairs.sort(key=lambda p: -p[0])

    kernel = mgs_orthonormalize([v[:, j] for j in zero_idx], tol=1e-6)
    if len(kernel) != len(zero_idx):
        raise ValueError("kernel basis collapsed during orthonormalization")

    rows = []
    for _, w, u in pairs:
        rows.extend([w, u])
    rows.extend(kernel)
    rows = mgs_orthonormalize(rows, tol=1e-6)
    if len(rows) != n:
        raise ValueError("basis lost a vector during final orthonormalization")

    u_mat = np.array([r.conj() for r in rows])
    form = HuaForm(u_mat, [p[0] for p in pairs], len(kernel), 0.0, 0.0)
    sig_target = form.canonical()
    form.residual = frobenius_norm(u_mat @ z @ u_mat.T - sig_target)
    form.unitarity_residual = frobenius_norm(u_mat.conj().T @ u_mat - np.eye(n))

    if form.residual > tol * scale or form.unitarity_residual > tol:
        raise ConvergenceError(
            "canonical form residuals out of contract: "
            "reconstruction %.3e (limit %.3e), unitarity %.3e (limit %.3e)"
            % (form.residual, tol * scale, form.unitarity_residual, tol))
    return form
