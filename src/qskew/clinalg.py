"""Self-contained complex linear algebra kernels.

Everything here is written against plain numpy arrays, no calls into
numpy.linalg.  The package's eigenvalue and inversion paths run through
these kernels so that library routines can serve as independent oracles
in the test suite.

Provided:

* herm_eig: cyclic complex Jacobi eigensolver for Hermitian matrices
* lu_factor / lu_solve / lu_inverse: LU with partial pivoting
* mgs_orthonormalize: modified Gram-Schmidt with a second pass
* cluster_runs / companion_basis: grouping of a sorted spectrum, and an
  orthonormal basis of (u, partner(u)) pairs inside one cluster
"""

import numpy as np


class SingularMatrixError(ValueError):
    """Pivot collapsed during factorization; the matrix is not invertible."""


class ConvergenceError(RuntimeError):
    """Iteration budget exhausted before reaching the requested tolerance."""


JACOBI_TOL = 1e-12
MAX_SWEEPS = 100


def _offdiag_norm(h):
    mask = ~np.eye(h.shape[0], dtype=bool)
    return float(np.sqrt((np.abs(h[mask]) ** 2).sum()))


def herm_eig(h):
    """Eigendecomposition of a Hermitian matrix by cyclic Jacobi rotations.

    Returns (w, v) with eigenvalues w ascending (stable order on ties) and
    unitary v whose columns are the matching eigenvectors.  Convergence is
    declared when the off-diagonal Frobenius mass drops below
    JACOBI_TOL * ||h||_F.  Raises ConvergenceError after MAX_SWEEPS full
    sweeps, and ValueError when the input is not square, not finite or not
    Hermitian.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("herm_eig needs a square matrix")
    if not np.isfinite(h).all():
        raise ValueError("herm_eig needs finite entries")
    n = h.shape[0]
    if n == 0:
        return np.zeros(0), np.zeros((0, 0), dtype=complex)
    scale = max(1.0, float(np.abs(h).max()))
    if np.abs(h - h.conj().T).max() > 1e-10 * scale:
        raise ValueError("matrix is not Hermitian")
    a = (h + h.conj().T) / 2.0
    v = np.eye(n, dtype=complex)
    if n == 1:
        return a.real.diagonal().copy(), v

    fro = float(np.sqrt((np.abs(a) ** 2).sum()))
    if fro == 0.0:
        return np.zeros(n), v
    # entries below this can be skipped inside a sweep without ever
    # stranding the off-diagonal mass above the convergence target
    skip = JACOBI_TOL * fro / (10.0 * n * n)

    for _ in range(MAX_SWEEPS):
        if _offdiag_norm(a) <= JACOBI_TOL * fro:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                beta = a[p, q]
                b = abs(beta)
                if b <= skip:
                    continue
                alpha = a[p, p].real
                gamma = a[q, q].real
                tau = (gamma - alpha) / (2.0 * b)
                if tau >= 0.0:
                    t = 1.0 / (tau + np.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = (t * c) * (beta / b)

                # rows p, q of J^* A
                row_p = c * a[p, :] - s * a[q, :]
                row_q = np.conj(s) * a[p, :] + c * a[q, :]
                a[p, :] = row_p
                a[q, :] = row_q
                # columns p, q of (J^* A) J
                col_p = c * a[:, p] - np.conj(s) * a[:, q]
                col_q = s * a[:, p] + c * a[:, q]
                a[:, p] = col_p
                a[:, q] = col_q
                a[p, q] = 0.0
                a[q, p] = 0.0
                a[p, p] = a[p, p].real
                a[q, q] = a[q, q].real

                vcol_p = c * v[:, p] - np.conj(s) * v[:, q]
                vcol_q = s * v[:, p] + c * v[:, q]
                v[:, p] = vcol_p
                v[:, q] = vcol_q
    else:
        raise ConvergenceError(
            "Jacobi sweep limit %d reached (off-diagonal %.3e, target %.3e)"
            % (MAX_SWEEPS, _offdiag_norm(a), JACOBI_TOL * fro))

    w = a.diagonal().real.copy()
    order = np.argsort(w, kind="stable")
    return w[order], v[:, order]


def lu_factor(a, tol=1e-10):
    """LU factorization with partial pivoting, Doolittle style.

    Returns (lu, piv) where lu packs the unit-lower and upper factors and
    piv records the row swap applied at each elimination step.  Raises
    SingularMatrixError when the best available pivot magnitude falls to
    tol times the Frobenius norm of the input or below, and ValueError
    when the input is not square or not finite.
    """
    a = np.array(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("lu_factor needs a square matrix")
    if not np.isfinite(a).all():
        raise ValueError("lu_factor needs finite entries")
    n = a.shape[0]
    pivot_tol = tol * float(np.sqrt((np.abs(a) ** 2).sum()))
    piv = np.arange(n)
    for k in range(n):
        r = k + int(np.argmax(np.abs(a[k:, k])))
        if abs(a[r, k]) <= pivot_tol:
            raise SingularMatrixError(
                "pivot %d is %.3e, at or below threshold %.3e"
                % (k, abs(a[r, k]), pivot_tol))
        if r != k:
            a[[k, r], :] = a[[r, k], :]
            piv[k] = r
        a[k + 1:, k] /= a[k, k]
        a[k + 1:, k + 1:] -= np.outer(a[k + 1:, k], a[k, k + 1:])
    return a, piv


def lu_solve(lu, piv, b):
    """Solve A x = b given lu_factor output.  b may hold multiple columns."""
    lu = np.asarray(lu, dtype=complex)
    n = lu.shape[0]
    x = np.array(b, dtype=complex)
    one_d = x.ndim == 1
    if one_d:
        x = x[:, None]
    if x.shape[0] != n:
        raise ValueError("right-hand side has %d rows, expected %d" % (x.shape[0], n))
    for k in range(n):
        r = piv[k]
        if r != k:
            x[[k, r], :] = x[[r, k], :]
    # forward: L y = P b
    for k in range(1, n):
        x[k, :] -= lu[k, :k] @ x[:k, :]
    # back: U x = y
    for k in range(n - 1, -1, -1):
        x[k, :] -= lu[k, k + 1:] @ x[k + 1:, :]
        x[k, :] /= lu[k, k]
    return x[:, 0] if one_d else x


def lu_inverse(a, tol=1e-10):
    """Matrix inverse through the pivoted LU factorization."""
    a = np.asarray(a, dtype=complex)
    lu, piv = lu_factor(a, tol=tol)
    return lu_solve(lu, piv, np.eye(a.shape[0], dtype=complex))


def mgs_orthonormalize(vectors, tol=1e-10):
    """Orthonormalize a list of complex vectors by modified Gram-Schmidt.

    A second projection pass cleans up the rounding left by the first.
    Vectors whose residual after projection has norm at or below tol are
    dropped, so the returned list can be shorter than the input.
    """
    kept = []
    length = None
    for v in vectors:
        v = np.array(v, dtype=complex).ravel()
        if length is None:
            length = v.size
        elif v.size != length:
            raise ValueError("vectors have mixed lengths")
        for _ in range(2):
            for u in kept:
                v -= (u.conj() @ v) * u
        nrm = float(np.sqrt((np.abs(v) ** 2).sum()))
        if nrm <= tol:
            continue
        kept.append(v / nrm)
    return kept


def cluster_runs(sorted_values, cut):
    """Group an ascending array into runs whose neighbour gaps are <= cut.

    Returns half-open (lo, hi) index pairs covering the array in order;
    an empty array has no runs.
    """
    values = np.asarray(sorted_values, dtype=float)
    if values.size == 0:
        return []
    edges = [0] + (np.flatnonzero(np.diff(values) > cut) + 1).tolist() + [values.size]
    return list(zip(edges[:-1], edges[1:]))


def companion_basis(pool, count, partner):
    """Orthonormal (u, partner(u)) pairs drawn from the column span of pool.

    Each of count steps projects the vectors chosen so far out of pool
    (two passes), keeps the largest-residual column as u, then scrubs
    w = partner(u) against the earlier choices and normalises it.  partner
    must map u to a vector of the same span orthogonal to u.  Returns the
    list of (u, w).  Raises ValueError when the pool runs out of rank.
    """
    chosen = []
    pairs = []
    for _ in range(count):
        work = pool.copy()
        for _ in range(2):
            for c in chosen:
                work -= np.outer(c, c.conj() @ work)
        norms = np.sqrt((np.abs(work) ** 2).sum(axis=0))
        best = int(np.argmax(norms))
        if norms[best] <= 1e-6:
            raise ValueError("companion extraction degenerated; "
                             "residual pool norm %.3e" % norms[best])
        u = work[:, best] / norms[best]
        w = partner(u)
        for c in chosen:
            w -= (c.conj() @ w) * c
        w /= float(np.sqrt((np.abs(w) ** 2).sum()))
        chosen.extend([w, u])
        pairs.append((u, w))
    return pairs
