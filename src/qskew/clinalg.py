"""Self-contained complex linear algebra kernels.

Everything here is written against plain numpy arrays, no calls into
numpy.linalg.  The package's eigenvalue and inversion paths run through
these kernels so that library routines can serve as independent oracles
in the test suite.

Provided:

* herm_eig: eigensolver for one Hermitian matrix or a stack of them.
  Eigenvectors, and eigenvalues of matrices smaller than TRIDIAG_MIN,
  come from complex Jacobi in the Brent-Luk round-robin ("parallel")
  ordering, each round's disjoint rotations applied as array operations
  over the stack.  Larger values-only solves reduce each slice to real
  tridiagonal form by Householder reflections and bisect all eigenvalues
  at once on Sturm counts.  Either way every slice is checked and
  converges on its own
* frobenius_norm: Frobenius norm, of an array or per slice, that neither
  under- nor overflows
* lu_inverse: the inverse by one LU factorization with partial pivoting
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
# values-only solves of this size and up go through a tridiagonal reduction
# and Sturm bisection instead of Jacobi
TRIDIAG_MIN = 32
# the stopping rule closes every interval within 53 halvings
MAX_BISECTIONS = 100


def frobenius_norm(a, axis=None):
    """Frobenius norm of a real or complex array, as a float, or with axis
    the array of norms of its slices over those axes; neither under- nor
    overflows.  Each is the plain sum when the largest magnitude lies in
    [2^-480, 2^479), and otherwise a sum scaled exactly by a power of two."""
    mag = np.abs(a)
    top = mag.max(axis=axis, keepdims=True, initial=0.0)
    tops = top.ravel().tolist()
    # every slice's largest square is normal and its sum finite
    if 2.0 ** -480 <= min(tops, default=1.0) and max(tops, default=1.0) < 2.0 ** 479:
        norm = np.sqrt((mag ** 2).sum(axis=axis))
    else:
        e = np.frexp(top)[1]
        e[np.abs(e) < 480] = 0  # 2^0 leaves the slices above as they are
        norm = np.ldexp(np.sqrt((np.ldexp(mag, -e) ** 2).sum(axis=axis)),
                        np.squeeze(e, axis))
    return float(norm) if axis is None else norm


def _offdiag_norm(a, mask):
    """Per-slice Frobenius norm of the entries of a stack under mask."""
    off = a[:, mask]
    return np.sqrt((off.real ** 2 + off.imag ** 2).sum(axis=1))


def _ring_move(m, height):
    """Flat gather that carries a (height, m) slice [A; V] one round along
    the Brent-Luk ring: index 0 keeps its seat and the others move one seat
    along 1, 2, ..., m - 1, 1.  Rows of A and columns of both move, rows of
    V stay; m - 1 moves restore the natural order."""
    step = np.r_[0, m - 1, 1:m - 1]
    rows = np.r_[step, m:height]
    return (rows[:, None] * m + step).ravel()


def _sweep(av, m, skip, move):
    """One round-robin sweep over a stack av of (B, height, m), m even.

    Rows [0, m) of each slice hold A; the rotations act on them from both
    sides and on any rows below (V) from the right only.  Each of the
    m - 1 rounds rotates the disjoint position pairs (i, m - 1 - i) and
    then moves every index one seat along the ring, so a sweep meets each
    pair of indices once and ends in the natural order.  Off-diagonal
    entries of slice b at or below skip[b] are zeroed without a rotation.
    move is _ring_move(m, height).  Returns the new stack; av itself is
    used as scratch.
    """
    count = av.shape[0]
    half = m // 2
    skip = skip[:, None]
    spare = np.empty_like(av)
    for _ in range(m - 1):
        flat = av.reshape(count, -1)
        alpha = flat[:, :half * (m + 1):m + 1].real             # (i, i)
        gamma = flat[:, m * m - 1:half * (m - 1) - 1:-m - 1].real  # (q, q)
        beta = flat[:, m - 1:half * (m - 1) + m - 1:m - 1]       # (i, q)
        b = np.abs(beta)
        d = gamma - alpha
        # tan of the angle is t = k b, the small root of t^2 + (d / b) t = 1,
        # in a form that never divides by b
        k = np.divide(np.copysign(2.0, d), np.abs(d) + np.hypot(d, 2.0 * b),
                      out=np.zeros(d.shape), where=b > skip)
        c = 1.0 / np.hypot(1.0, k * b)
        s = (c * k) * beta
        # row j pairs with row m - 1 - j, so the coefficients run mirrored
        cc = np.concatenate([c, c[:, ::-1]], axis=1)
        ss = np.concatenate([-s, s[:, ::-1].conj()], axis=1)
        # rows p, q of J^* A: c a_p - s a_q and conj(s) a_p + c a_q
        a, swapped = av[:, :m], spare[:, :m]
        np.multiply(a[:, ::-1], ss[:, :, None], out=swapped)
        np.multiply(a, cc[:, :, None], out=a)
        a += swapped
        # then columns p, q of (J^* A) J and of V J
        np.multiply(av[:, :, ::-1], ss.conj()[:, None, :], out=spare)
        np.multiply(av, cc[:, None, :], out=av)
        av += spare
        flat[:, m - 1:m * (m - 1) + 1:m - 1] = 0.0             # (i, q), (q, i)
        flat.imag[:, :m * m:m + 1] = 0.0
        flat.take(move, axis=1, out=spare.reshape(count, -1))
        av, spare = spare, av
    return av


def herm_eig(h, vectors=True):
    """Eigendecomposition of Hermitian matrices.

    h is one (m, m) matrix or a (B, m, m) stack; a single matrix is solved
    as a stack of one.  Returns (w, v) with eigenvalues w ascending (stable
    order on ties) and unitary v whose columns are the matching
    eigenvectors, shaped (m,) and (m, m), or (B, m) and (B, m, m) for a
    stack.  With vectors=False only w is returned.

    Every slice is checked first: ValueError when the input is not square
    or not finite, or names the first slice whose largest |h - h^*| entry
    exceeds 1e-10 times its largest |h| entry.  Each slice is then solved
    scaled by a power of two, on its own, so a slice of a stack gives
    bitwise the result of a single call.

    With vectors, or for m < TRIDIAG_MIN, the solver is round-robin Jacobi:
    each sweep follows the Brent-Luk ("parallel") ordering, m - 1 rounds
    of m/2 disjoint rotations applied as array operations over the stack
    (odd m gets a decoupled zero row and column).  A slice converges when
    its off-diagonal Frobenius mass drops below JACOBI_TOL * ||h_b||_F and
    then stops rotating; ConvergenceError when a slice is still above its
    target after MAX_SWEEPS sweeps.  Here the values-only w is bitwise the
    w computed with vectors.

    Values-only solves with m >= TRIDIAG_MIN reduce each slice to a real
    tridiagonal matrix by Householder reflections and bisect its
    eigenvalues on Sturm counts (_bisect, which raises ConvergenceError
    after MAX_BISECTIONS halvings).  This w agrees with the w computed
    with vectors to roundoff, not bitwise.
    """
    h = np.asarray(h, dtype=complex)
    single = h.ndim == 2
    if single:
        h = h[None]
    if h.ndim != 3 or h.shape[1] != h.shape[2]:
        raise ValueError("herm_eig needs a square matrix or a stack of them")
    if not np.isfinite(h).all():
        raise ValueError("herm_eig needs finite entries")
    count, m = h.shape[:2]
    hh = h.conj().swapaxes(1, 2)
    peak = np.abs(h).max(axis=(1, 2), initial=0.0)
    bad = np.flatnonzero(np.abs(h - hh).max(axis=(1, 2), initial=0.0) > 1e-10 * peak)
    if bad.size:
        raise ValueError("matrix is not Hermitian"
                         + ("" if single else " (slice %d)" % bad[0]))
    if count and m:
        # solved scaled by 2^-e, exactly, so no norm in a solver under- or overflows
        e = np.frexp(peak)[1]
        a = np.ldexp(((h + hh) / 2.0).view(float), -e[:, None, None]).view(complex)
        if vectors or m < TRIDIAG_MIN:
            w, v = _jacobi(a, vectors)
        else:
            w = _bisect(*_tridiagonal(a))
        w = np.ldexp(w, e[:, None])
    else:
        w, v = np.zeros((count, m)), np.zeros((count, m, m), dtype=complex)
    if single:
        w, v = w[0], (v[0] if vectors else None)
    return (w, v) if vectors else w


def _jacobi(a, vectors):
    """Ascending eigenvalues (B, m) and, if vectors, eigenvectors (B, m, m)
    of a nonempty stack of exactly Hermitian matrices."""
    count, m = a.shape[:2]
    n = m + m % 2
    height = 2 * n if vectors else n
    av = np.zeros((count, height, n), dtype=complex)
    av[:, :m, :m] = a
    if vectors:
        av[:, n:] = np.eye(n)
    fro = np.sqrt((np.abs(a) ** 2).reshape(count, -1).sum(axis=1))
    target = JACOBI_TOL * fro
    # pair entries at or below this are zeroed without a rotation; a whole
    # sweep of that moves the matrix by far less than the target
    skip = target / (10.0 * m * m)
    mask = ~np.eye(n, dtype=bool)
    move = _ring_move(n, height)
    for _ in range(MAX_SWEEPS):
        live = np.flatnonzero(_offdiag_norm(av[:, :n], mask) > target)
        if live.size == 0:
            break
        if live.size == count:
            av = _sweep(av, n, skip, move)
        else:
            av[live] = _sweep(av[live], n, skip[live], move)
    else:
        off = _offdiag_norm(av[:, :n], mask)
        worst = int(np.argmax(off - target))
        raise ConvergenceError(
            "Jacobi sweep limit %d reached (off-diagonal %.3e, target %.3e)"
            % (MAX_SWEEPS, off[worst], target[worst]))
    # a padding index sits last and stays decoupled
    w = av[:, :m, :m].diagonal(axis1=1, axis2=2).real
    order = np.argsort(w, axis=1, kind="stable")
    w = np.take_along_axis(w, order, axis=1)
    if not vectors:
        return w, None
    return w, np.take_along_axis(av[:, n:n + m, :m], order[:, None, :], axis=2)


def _tridiagonal(a):
    """Diagonal d (B, m) and squared off-diagonal magnitudes e2 (B, m - 1)
    of a real symmetric tridiagonal matrix T = Q* A Q, Q unitary, for each
    slice A of a stack of exactly Hermitian matrices with entries of size
    about 1.

    Step k reflects column k below the diagonal onto its first entry by
    the Householder reflection I - tau v v^*, applied to the trailing block
    from both sides as one rank-2 update.  Only |e_k|^2 = ||column||^2 is
    kept, so the phases of the off-diagonal never need to be formed.  A
    column whose squared norm underflows is left as it is: its entries are
    below 1e-154 and change no eigenvalue at double precision.
    """
    a = a.copy()
    count, m = a.shape[:2]
    e2 = np.empty((count, m - 1))
    for k in range(m - 1):
        x = a[:, k + 1:, k]
        e2[:, k] = (x.real ** 2 + x.imag ** 2).sum(axis=1)
        if k == m - 2:
            break
        live = e2[:, k] >= np.finfo(float).tiny
        v = np.divide(x, np.sqrt(e2[:, k])[:, None], out=np.zeros_like(x),
                      where=live[:, None])
        # v = x / ||x|| + e^{i arg x_0} e_1, the sum with no cancellation
        lead = np.abs(v[:, 0])
        v[:, 0] += np.divide(v[:, 0], lead, out=live.astype(complex), where=lead > 0)
        tau = np.divide(2.0, (v.real ** 2 + v.imag ** 2).sum(axis=1),
                        out=np.zeros(count), where=live)
        # H A H = A - v w^* - w v^* with p = tau A v, w = p - (tau/2)(v^* p) v
        trail = a[:, k + 1:, k + 1:]
        p = tau[:, None] * (trail @ v[:, :, None])[:, :, 0]
        w = p - (0.5 * tau * (v.conj() * p).sum(axis=1).real)[:, None] * v
        trail -= v[:, :, None] * w.conj()[:, None, :]
        trail -= w[:, :, None] * v.conj()[:, None, :]
    return a.diagonal(axis1=1, axis2=2).real.copy(), e2


def _sturm_below(shift_gap, e2):
    """Per column, how many eigenvalues of a symmetric tridiagonal lie
    below its shift x: the negative pivots q_i = (d_i - x) - e2_{i-1} / q_{i-1}
    of T - x I, given shift_gap (m, L) = d_i - x and e2 (m - 1, L) >= the
    smallest normal float.  A zero pivot makes the next one infinite with
    the sign that keeps the count right, so no 0/0 can arise."""
    q = shift_gap.copy()
    rows = list(q)
    with np.errstate(divide="ignore", over="ignore"):
        for prev, row, e in zip(rows, rows[1:], e2):
            row -= e / prev
    return np.signbit(q).sum(axis=0)


def _bisect(d, e2):
    """Ascending eigenvalues (B, m) of symmetric tridiagonals by bisection.

    Eigenvalue j of slice b is bracketed by its Gershgorin bound g_b, then
    halved on Sturm counts of all live (slice, index) intervals at once
    until its width is at most 2 eps max(|lo|, |hi|) + eps g_b; a finished
    interval stops moving, so no slice's result depends on the others.
    Raises ConvergenceError if an interval is still open after
    MAX_BISECTIONS halvings.
    """
    count, m = d.shape
    eps = np.finfo(float).eps
    e = np.sqrt(e2)
    radius = np.zeros((count, m))
    radius[:, 1:] += e
    radius[:, :-1] += e
    bound = np.repeat((np.abs(d) + radius).max(axis=1), m)
    e2 = np.maximum(e2, np.finfo(float).tiny)
    slices = np.repeat(np.arange(count), m)
    index = np.tile(np.arange(m), count)
    lo, hi = -bound, bound.copy()
    for _ in range(MAX_BISECTIONS):
        live = np.flatnonzero(hi - lo > 2.0 * eps * np.maximum(np.abs(lo), np.abs(hi))
                              + eps * bound)
        if live.size == 0:
            break
        mid = 0.5 * (lo[live] + hi[live])
        rows = slices[live]
        below = _sturm_below(d.T[:, rows] - mid, e2.T[:, rows]) > index[live]
        hi[live] = np.where(below, mid, hi[live])
        lo[live] = np.where(below, lo[live], mid)
    else:
        raise ConvergenceError("bisection limit %d reached" % MAX_BISECTIONS)
    return np.sort((0.5 * (lo + hi)).reshape(count, m), axis=1)


def lu_inverse(a, tol=1e-10):
    """Inverse of a square matrix by LU factorization with partial pivoting.

    Elimination factors A in place and swaps the rows of an identity as it
    swaps those of A; substitution then turns that identity into A^-1.
    Raises SingularMatrixError when the best available pivot magnitude falls
    to tol times the Frobenius norm of the input or below, and ValueError
    when the input is not square or not finite.
    """
    a = np.array(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("lu_inverse needs a square matrix")
    if not np.isfinite(a).all():
        raise ValueError("lu_inverse needs finite entries")
    n = a.shape[0]
    pivot_tol = tol * frobenius_norm(a)
    x = np.eye(n, dtype=complex)
    for k in range(n):
        r = k + int(np.argmax(np.abs(a[k:, k])))
        if abs(a[r, k]) <= pivot_tol:
            raise SingularMatrixError(
                "pivot %d is %.3e, at or below threshold %.3e"
                % (k, abs(a[r, k]), pivot_tol))
        if r != k:
            a[[k, r], :] = a[[r, k], :]
            x[[k, r], :] = x[[r, k], :]
        a[k + 1:, k] /= a[k, k]
        a[k + 1:, k + 1:] -= np.outer(a[k + 1:, k], a[k, k + 1:])
    for k in range(1, n):
        x[k, :] -= a[k, :k] @ x[:k, :]
    for k in range(n - 1, -1, -1):
        x[k, :] -= a[k, k + 1:] @ x[k + 1:, :]
        x[k, :] /= a[k, k]
    return x


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
