"""Self-contained complex linear algebra kernels.

Everything here is written against plain numpy arrays, no calls into
numpy.linalg.  The package's eigenvalue and inversion paths run through
these kernels so that library routines can serve as independent oracles
in the test suite.

Provided:

* herm_eig: eigenvalues of one Hermitian matrix, complex or quaternion,
  or a stack of them.  Householder reflections reduce each slice to real
  tridiagonal form of its size, whose eigenvalues are cut out on a dyadic
  grid by Sturm counts: by bisection, and on a stack of 74 eigenvalues or
  more, for each eigenvalue alone in its coarse cell, by Newton steps
  whose level-53 cell Sturm counts confirm, so both give the same bits.
  Every step works on all slices at once, and every slice is checked and
  converges on its own
* _tridiagonal_eig: that tridiagonal solve, from a first index up, with
  eigenvectors when asked for: by one twisted factorisation for each
  isolated eigenvalue, by inverse iteration for the clusters;
  hua_decompose solves with it, once per stack, the +sigma half of the
  tridiagonals that _skew_tridiagonal, a skew Householder congruence run
  on a stack of Z at once, makes of them
* unit_scaled: the one scaling rule; every entry point that squares or
  inverts its input works on it scaled to unit size by a power of two,
  exactly
* frobenius_norm: Frobenius norm, of an array or per slice, that does not
  underflow, and is inf only when the norm lies beyond the float range
* lu_inverse: the inverse by one LU factorization with partial pivoting,
  of one matrix or of each slice of a stack, each unit_scaled, with an
  invertible flag each
* mgs_orthonormalize: Gram-Schmidt, run twice, up to a full basis, of a
  list of vectors or of every slice of a stack in one pass
* positive_clusters: a spectrum's positive clusters; even_clusters: are all
  even, decided for every row at once by the same cluster rule
* _require: the check that names the first slice of a stack that fails it

Every routine that takes a stack solves each slice as a single call would,
so a slice gives bitwise the result of its own call.
"""

import math

import numpy as np


class SingularMatrixError(ValueError):
    """Pivot collapsed during factorization; the matrix is not invertible."""


class ConvergenceError(RuntimeError):
    """Iteration budget exhausted before reaching the requested tolerance."""


# eigenvalues with neighbour gaps of at most this times the scale of T share
# a cluster, whose eigenvectors are orthogonalised together (LAPACK zstein)
CLUSTER_GAP = 1e-3
# inverse iteration gives up after this many solves per eigenvector
MAX_PASSES = 5
# relative zero and neighbour gap of positive_clusters
CLUSTER_TOL = 1e-8
# Newton steps _newton_cells takes on an isolated eigenvalue before its cell
# is confirmed or handed back to bisection
NEWTON_STEPS = 6
# the float limits, looked up once
EPS = np.finfo(float).eps
TINY = np.finfo(float).tiny


def _require(ok, message, *values, error=ValueError):
    """Raise error(message % values) unless the verdict ok holds for every
    slice; each of values, one per slice or one for all, is taken at the
    first failing slice, and for a stack the message names that slice."""
    ok = np.asarray(ok)
    if np.count_nonzero(ok) == ok.size:
        return
    first = int(np.flatnonzero(~ok)[0])
    text = message % tuple(np.broadcast_to(np.ravel(v), ok.size)[first] for v in values)
    if ok.ndim:
        text += " (slice %s)" % ", ".join(map(str, np.unravel_index(first, ok.shape)))
    raise error(text)


def unit_scaled(a, axis=None):
    """(a 2^-e, e), exact short of underflow, where e is the binary
    exponent of the largest |a_ij| over axis: one per slice, shaped as a
    reduced over axis, and 0 for a zero slice.  The largest magnitude of
    each slice of a 2^-e lies in [1/2, 1).  A complex array is scaled as
    one float view of its real and imaginary parts."""
    a = np.asarray(a)
    e = np.frexp(np.abs(a).max(axis=axis, keepdims=True, initial=0.0))[1]
    if np.iscomplexobj(a):
        unit = np.ldexp(a[..., None].view(float), -e[..., None]).view(complex)[..., 0]
    else:
        unit = np.ldexp(a, -e)
    return unit, np.squeeze(e, axis)


def frobenius_norm(a, axis=None):
    """Frobenius norm of a real or complex array, as a float, or with axis
    the array of norms of its slices over those axes: the sum of squares
    of a unit_scaled slice, scaled back, so no square under- or overflows.
    A norm beyond the float range is inf, without a warning."""
    mag, e = unit_scaled(np.abs(a), axis)
    with np.errstate(over="ignore"):
        norm = np.ldexp(np.sqrt((mag ** 2).sum(axis=axis)), e)
    return float(norm) if axis is None else norm


def herm_eig(h, tol=1e-10):
    """Eigenvalues, ascending, of a Hermitian matrix, (m,), or of each slice
    of a stack with any leading axes, (..., m): complex H (m, m), or
    quaternion A = A_c + A_d j as [A_c | A_d] (m, 2m), the first m rows of
    chi(A), each right eigenvalue once (H is the quaternion H + 0 j).

    ValueError when the input is neither (m, m) nor (m, 2m) or not finite,
    or names the first slice not Hermitian within tol (_is_hermitian).
    Each slice is solved unit_scaled, on its own, so a slice of a stack
    gives bitwise the result of a single call: Householder reflections
    reduce it to a real tridiagonal T of size m (_tridiagonal), whose
    eigenvalues _tridiagonal_eig cuts out.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim < 2 or h.shape[-1] not in (h.shape[-2], 2 * h.shape[-2]):
        raise ValueError("herm_eig needs (m, m) or (m, 2m) matrices")
    if not np.isfinite(h).all():
        raise ValueError("herm_eig needs finite entries")
    stack, m = h.shape[:-2], h.shape[-2]
    h = h.reshape((math.prod(stack),) + h.shape[-2:])
    c = h[:, :, :m]
    d = [h[:, :, m:]] if h.shape[2] > m else []  # A_d of a quaternion [A_c | A_d]
    parts = [p for x in [c] + d for p in (x.real, x.imag)]
    _require(_is_hermitian(parts, tol).reshape(stack), "matrix is not Hermitian")
    # A^* = A: A_c Hermitian and A_d antisymmetric, averaged in; a quaternion
    # slice is interleaved as columns (c_0, d_0, c_1, d_1, ...)
    halves = [c + c.conj().swapaxes(1, 2)] + [x - x.swapaxes(1, 2) for x in d]
    a = np.stack(halves, axis=3).reshape(h.shape) * 0.5
    a, e = unit_scaled(a, axis=(1, 2))
    w = np.ldexp(_tridiagonal_eig(*_tridiagonal(a)), e[:, None])
    return w.reshape(stack + (m,))


def _max_abs(parts):
    """The one entry measure, the largest |a_ij| of each matrix by hypot (no
    overflow), from its components (w, x) or (w, x, y, z), each (..., m, n)."""
    mag = np.hypot(parts[0], parts[1])
    if len(parts) > 2:
        mag = np.hypot(mag, np.hypot(parts[2], parts[3]))
    return mag.max(axis=(-2, -1), initial=0.0)


def _within(off, tol, scale):
    """The one structure rule, per matrix: the largest |off_ij| of the
    residual off, an array of component matrices as _max_abs takes them,
    within tol times scale(), the largest entry measured.  A residual
    exactly zero holds at any tol >= 0, inf included, and when every
    matrix's is, nothing is measured; a negative or NaN tol is measured.  A
    nonzero residual has a nonzero scale, so tol = inf never meets 0."""
    if tol >= 0 and not off.any():
        return np.ones(off.shape[1:-2], dtype=bool)
    zero = ~off.any(axis=(0, -2, -1)) & (tol >= 0)
    return zero | (_max_abs(off) <= tol * np.where(zero, 1.0, scale()))


def _is_hermitian(parts, tol):
    """The one Hermitian rule, per matrix given as _max_abs takes it: the
    largest |a_ij - conj(a_ji)| within tol times the largest |a_ij|."""
    parts = np.asarray(parts)  # herm_eig passes a list of views
    off = parts + parts.swapaxes(-2, -1)
    off[0] = parts[0] - parts[0].swapaxes(-2, -1)
    return _within(off, tol, lambda: _max_abs(parts))


def _tridiagonal_eig(d, e2, vectors=False, first=0):
    """Eigenvalues w (B, m - first), ascending, from eigenvalue first up, of
    the real symmetric tridiagonal matrices T with diagonal d (B, m) and
    squared off-diagonal e2 (B, m - 1), entries of size about 1; with
    vectors, (w, y) where the columns of y (B, m, m - first) are the
    matching orthonormal eigenvectors.

    A slice with no nonzero off-diagonal entry takes its sorted diagonal as
    eigenvalues and unit vectors as eigenvectors, so the zero matrix gives
    w = 0 and y = I exactly.  The others bisect their eigenvalues on Sturm
    counts (_bisect).  With vectors, each eigenvalue that no neighbour
    solved in its slice lies within CLUSTER_GAP t_b of (t_b the power of
    two above the slice's Gershgorin bound) gets its eigenvector from one
    twisted factorisation (_twisted), and the clusters go to inverse
    iteration (_inverse_iteration), which raises ConvergenceError at its
    iteration limit.  Each value is bitwise that of a full solve
    (first = 0), with or without vectors; so is the vector of an
    eigenvalue alone in the full spectrum, and so are a slice's vectors
    when first starts one of its clusters, which keeps every vector's
    cluster predecessors.
    """
    m = d.shape[1]
    order = np.argsort(d, axis=1, kind="stable")
    w = np.take_along_axis(d, order, axis=1)
    y = (np.arange(m)[:, None] == order[:, None, :]).astype(float) if vectors else None
    rows = np.flatnonzero((e2 > 0).any(axis=1))
    if rows.size:
        # an off-diagonal entry below 2^-256 moves no eigenvalue of a matrix
        # of unit size; above it no pivot is 0 and no Sturm quotient subnormal
        d, e2 = d[rows], np.maximum(e2[rows], 2.0 ** -512)
        off = np.sqrt(e2)
        radius = np.abs(d)
        radius[:, 1:] += off
        radius[:, :-1] += off
        # the power of two above each Gershgorin bound
        top = np.ldexp(1.0, np.frexp(radius.max(axis=1))[1])
        part = _bisect(d, e2, top, first)
        w[rows, first:] = part
        if vectors:
            # column b per + j is eigenvalue first + j of slice b; it is
            # alone when it starts a cluster and the next column does too
            per = m - first
            new = np.ones((rows.size, per + 1), dtype=bool)
            new[:, 1:-1] = np.diff(part, axis=1) > CLUSTER_GAP * top[:, None]
            start = new[:, :-1].ravel()
            alone = start & new[:, 1:].ravel()
            b, j = np.divmod(np.arange(alone.size), per)
            vec = np.empty((alone.size, m))
            i = np.flatnonzero(alone)
            if i.size:
                vec[i] = _twisted(d[b[i]], e2[b[i]], part.ravel()[i], top[b[i]])
            i = np.flatnonzero(~alone)
            if i.size:
                vec[i] = _inverse_iteration(d[b[i]], e2[b[i]], part.ravel()[i], top[b[i]],
                                            j[i] + first, start[i])
            y[rows, :, first:] = vec.reshape(rows.size, per, m).transpose(0, 2, 1)
    return (w[:, first:], y[:, :, first:]) if vectors else w[:, first:]


def _reflector(x, norm2, v):
    """The reflections I - tau v v^* that map each column x of a (B, k, w)
    stack, complex (w = 1) or of pairs (c, d) of c + d j (w = 2), onto
    -(x_0 / |x_0|) ||x|| e_1, given norm2 = ||x||^2, so v^* x is real:
    writes each v into v, shaped as x, and returns tau.  A column whose
    squared norm underflows gets tau = 0, the identity: its entries are
    below 1e-154."""
    live = norm2 >= TINY
    v[...] = 0
    np.divide(x, np.sqrt(norm2)[:, None, None], out=v, where=live[:, None, None])
    head = x[:, 0]
    # v = x / ||x|| + (x_0 / |x_0|) e_1, the sum with no cancellation
    if x.shape[2] == 1:
        v[:, 0] += np.exp(1j * np.angle(head))
    else:
        size = np.hypot.reduce(np.abs(head), axis=1)[:, None]
        unit = np.zeros((len(x), 2), dtype=complex)
        unit[:, 0] = 1
        v[:, 0] += np.divide(head, size, out=unit, where=size > 0)
    return np.divide(2.0, (v.real ** 2 + v.imag ** 2).sum(axis=(1, 2)),
                     out=np.zeros(len(x)), where=live)


# the signs of row 2i + 1 of chi(u), (-conj d_i, conj c_i)
_ADJOINT_SIGNS = np.array([-1, 1])


def _adjoint(u, out):
    """The rows of chi(u) for the columns u (B, k, w), written into out
    (B, w k, w): u itself when complex (w = 1), and for the pairs
    (c_i, d_i) of c_i + d_i j (w = 2) rows 2i, 2i + 1, (c_i, d_i) and
    (-conj d_i, conj c_i); returns out."""
    if u.shape[2] == 1:
        out[...] = u
        return out
    out[:, 0::2] = u
    odd = np.conjugate(u[..., ::-1], out=out[:, 1::2])
    np.multiply(_ADJOINT_SIGNS, odd, out=odd)
    return out


def _tridiagonal(a):
    """Diagonal d (B, m) and squared off-diagonal magnitudes e2 (B, m - 1) of
    the real tridiagonal T = D* Q* A Q D, Q a product of reflections and D a
    unitary diagonal (Bunse-Gerstner, Byers & Mehrmann, Numer. Math. 55,
    1989), of each exactly Hermitian slice A, entries of size about 1:
    complex (B, m, m), or quaternion (B, m, 2m) whose row i holds the pairs
    (c_ij, d_ij) of A_ij = c_ij + d_ij j.  Step k reflects column k below
    the diagonal (_reflector); with V the columns of chi(v), H A H is the
    rank-2 update A - v W^* - w V^*, p = tau A V, w = p - (tau/2) Re(v^* p) v.
    Each step writes v, V, [v | w] and conj [W | V] into buffers made once
    per call.  A column too small to square is left as it is and changes
    no eigenvalue at double precision.  a is overwritten."""
    count, m = a.shape[:2]
    width = a.shape[2] // m if m else 1
    v = np.empty((count, m, width), dtype=complex)
    big_v = np.empty((count, width * m, width), dtype=complex)
    left = np.empty((count, m, 2 * width), dtype=complex)
    right = np.empty((count, width * m, 2 * width), dtype=complex)
    e2 = np.zeros((count, m))[:, 1:]
    for k in range(m - 1):
        x = a[:, k + 1:, width * k:width * (k + 1)]
        e2[:, k] = (x.real ** 2 + x.imag ** 2).sum(axis=(1, 2))
        if k == m - 2:
            break
        rows = m - k - 1
        vk = v[:, :rows]
        tau = _reflector(x, e2[:, k], vk)
        vv = _adjoint(vk, big_v[:, :width * rows])
        trail = a[:, k + 1:, width * (k + 1):]
        p = tau[:, None, None] * (trail @ vv)
        vw, wv = left[:, :rows], right[:, :width * rows]
        vw[:, :, :width] = vk
        w = np.subtract(p, (0.5 * tau * (vk.conj() * p).sum(axis=(1, 2)).real)[:, None, None]
                        * vk, out=vw[:, :, width:])
        _adjoint(w, wv[:, :, :width])
        wv[:, :, width:] = vv
        np.conjugate(wv, out=wv)
        trail -= vw @ wv.swapaxes(1, 2)
    return a[:, np.arange(m), width * np.arange(m)].real, e2


def _skew_tridiagonal(a):
    """Real skew tridiagonal forms T = U A U^T of each exactly
    skew-symmetric complex slice A of a (B, m, m) stack, entries of size
    about 1, U unitary (Ward & Gray, ACM TOMS 4, 1978; Wimmer, ACM TOMS 38,
    2012).

    Returns the squared superdiagonals e2 (B, m - 1) of T, whose
    superdiagonal is sqrt(e2), and U = D Q (B, m, m).  Step k of Q reflects
    column k below the subdiagonal (_reflector) and applies H A H^T, which
    keeps A skew, as the rank-2 update A += v w^T - w v^T with
    w = tau A conj(v) (the term in v^* A conj(v) = 0 drops out); v and
    conj(v) are written into buffers made once per call.  The unitary
    diagonal D makes the superdiagonal real and nonnegative.  A column too
    small to square is left as it is.  a is overwritten, except for the
    columns below the subdiagonal, which no step writes.
    """
    count, m = a.shape[:2]
    e2 = np.zeros((count, m))[:, 1:]
    taus = np.zeros((count, m))[:, 1:]
    q = np.zeros((count, m, m), dtype=complex)
    q[:] = np.eye(m)
    v = np.empty((count, m, 1), dtype=complex)
    v_conj = np.empty_like(v)
    for k in range(m - 1):
        x = a[:, k + 1:, k]
        e2[:, k] = (x.real ** 2 + x.imag ** 2).sum(axis=1)
        if k == m - 2:
            break
        vk = v[:, :m - k - 1]
        tau = _reflector(x[:, :, None], e2[:, k], vk)
        taus[:, k] = tau
        tau, vc = tau[:, None, None], np.conjugate(vk, out=v_conj[:, :m - k - 1])
        trail = a[:, k + 1:, k + 1:]
        w = tau * (trail @ vc)
        trail += vk * w.swapaxes(1, 2) - w * vk.swapaxes(1, 2)
        q[:, k + 1:] -= (tau * vk) * (vc.swapaxes(1, 2) @ q[:, k + 1:])
    # T_{k, k + 1} is e^{i arg x_0} ||x|| once column k is reflected, else
    # -x_0; D_{k + 1} = conj(D_k phase_k) as Python complex products, which
    # round alike on every machine (numpy's array product may fuse them)
    unit = np.exp(1j * np.angle(a[:, np.arange(1, m), np.arange(m - 1)]))
    phases = np.where(taus > 0, unit, -unit).tolist()
    diag = np.ones((count, m), dtype=complex)
    for b in range(count):
        d = 1.0
        for k, phase in enumerate(phases[b]):
            d = (d * phase).conjugate()
            diag[b, k + 1] = d
    return e2, diag[:, :, None] * q


def _bisect(d, e2, top, first=0):
    """Ascending eigenvalues first, ..., m - 1 (B, m - first) of symmetric
    tridiagonals, each the midpoint of its cell of a dyadic grid.

    Eigenvalue j of slice b starts in [-t_b, t_b], with t_b = top[b] a
    power of two at or above its Gershgorin bound, and ends as the midpoint
    of its part of width eps t_b, 53 halvings down: the cell whose lower
    end is the highest grid point where the Sturm count is at most j.  The
    negative pivots q_i = (d_i - x) - e2_{i-1} / q_{i-1} of T - x I number
    the eigenvalues below x, and each pivot rounds monotonically in x, so
    the counts never fall as x rises (a zero pivot makes the next one
    infinite with the sign that keeps the count right) and that cell is
    one and the same however it is found, and whichever other eigenvalues
    are solved with it.

    Each interval, one (slice, eigenvalue) pair, reads its own column of
    the tridiagonals, and _grid bisects it on the fixed grid.  A stack
    where a round makes at most 3 cuts per interval (about 74 intervals or
    more) is bisected only to level bit_length(m) + 6, 64 to 128 grid
    cells per eigenvalue, and _newton_cells closes the intervals whose cell
    there holds one eigenvalue alone; the others bisect on from that level.
    """
    count, m = d.shape
    per = m - first
    index = np.tile(np.arange(first, m), count)
    diag, e2s = np.repeat(d, per, axis=0).T, np.repeat(e2, per, axis=0).T
    lo = -np.repeat(top, per)
    span = -2.0 * lo
    level = 53 if _levels_per_round(index.size) > 2 else m.bit_length() + 6
    with np.errstate(divide="ignore", over="ignore"):
        lo = _grid(diag, e2s, index, lo, span, 0, level)
        if level < 53:
            rest = _newton_cells(diag, e2s, index, lo, span, level)
            if rest.size:
                lo[rest] = _grid(diag[:, rest], e2s[:, rest], index[rest], lo[rest],
                                 span[rest], level)
    return np.sort((lo + np.ldexp(span, -54)).reshape(count, per), axis=1)


def _levels_per_round(intervals):
    """The most grid levels s whose 2^s - 1 cuts per interval keep a round
    within 512 cuts, where a Sturm count stops costing about its overhead."""
    return (512 // intervals + 1).bit_length() - 1 or 1


def _sturm_counts(diag, e2s, x):
    """The Sturm count at x (k,) of each column of diag (m, k), e2s
    (m - 1, k): the number of negative pivots of T - x I."""
    q = diag - x
    rows = list(q)
    for prev, row, e in zip(rows, rows[1:], e2s):
        row -= e / prev
    return np.add.reduce(np.signbit(q), axis=0, dtype=np.intp)


def _grid(diag, e2s, index, lo, span, level, stop=53):
    """The lower ends lo of the grid cells of width span 2^-stop that hold
    eigenvalue index of each interval, bisected from the cells of width
    span 2^-level at lo.  Interval i reads the tridiagonal in column i of
    diag and e2s.  Each round cuts every cell into 2^s equal parts at exact
    points and keeps the one that the Sturm counts at the cuts pick.  The
    grid is fixed, so an interval takes the same path for any s: many cuts
    per interval when there are few intervals, one when there are many."""
    most = _levels_per_round(index.size)
    parts = 0
    while level < stop:
        s = min(most, stop - level)
        if parts != (1 << s) - 1:
            parts = (1 << s) - 1
            diag_cuts = np.repeat(diag, parts, axis=1)
            e2s_cuts = np.repeat(e2s, parts, axis=1)
            ks = np.arange(1, parts + 1)
        level += s
        step = np.ldexp(span, -level)
        cuts = (lo[:, None] + step[:, None] * ks).ravel()
        # the cuts at or below eigenvalue j
        counts = _sturm_counts(diag_cuts, e2s_cuts, cuts)
        lo = lo + (counts.reshape(-1, parts) <= index[:, None]).sum(axis=1) * step
    return lo


def _newton_cells(diag, e2s, index, lo, span, level):
    """Close, in lo, the level-53 cells of the intervals whose cell of
    width span 2^-level at lo holds one eigenvalue alone, and return the
    other intervals.  Interval i reads the tridiagonal in column i of diag
    and e2s.

    A cell holds one eigenvalue alone when it differs from the cells of
    both neighbours solved in its slice; the counts below confirm a cell
    whatever the neighbours.  Unless at least half the intervals are
    alone, none is taken: the rest would bisect as many rounds anyway.
    Newton's method on det(T - x I), whose log-derivative is the sum of
    r_i = q_i' / q_i, q_i' = -1 + (e2_{i-1} / q_{i-1}) r_{i-1}, starts at
    the middle of the cell and is kept inside it, for at most NEWTON_STEPS
    steps or until no step exceeds eps t_b.  Its point is snapped down to
    the level-53 grid, the multiples of eps t_b, exactly, and Sturm counts
    from one grid point below to two above confirm the cell where the
    count first exceeds j, inside the starting cell.  An interval with a
    non-finite point or no such crossing is not confirmed.
    """
    m = diag.shape[0]
    # a slice's last interval is apart from the next slice's first
    apart = (np.diff(lo) > 0) | (np.diff(index) != 1)
    alone = np.ones(lo.size, dtype=bool)
    alone[1:] = apart
    alone[:-1] &= apart
    sel = np.flatnonzero(alone)
    if 2 * sel.size < lo.size:
        return np.arange(lo.size)
    d, e2, j = diag[:, sel], e2s[:, sel], index[sel]
    low = lo[sel]
    width = np.ldexp(span[sel], -level)
    cell = np.ldexp(span[sel], -53)
    x = low + 0.5 * width
    # a vanishing pivot makes inf - inf, and a NaN point is never confirmed
    with np.errstate(invalid="ignore"):
        for _ in range(NEWTON_STEPS):
            q = d - x
            # r = q_i' / q_i, summed into f
            r = -1.0 / q[0]
            f = r.copy()
            for i in range(1, m):
                u = e2[i - 1] / q[i - 1]
                q[i] -= u
                r = (u * r - 1.0) / q[i]
                f += r
            step = -1.0 / f
            x = np.minimum(np.maximum(x + step, low), low + width)
            if not (np.abs(step) > cell).any():
                break
        x = np.floor(x / cell) * cell
        below = [_sturm_counts(d, e2, x + k * cell) <= j for k in (-1, 0, 1, 2)]
        x += (np.add.reduce(below, axis=0, dtype=np.intp) - 2) * cell
        ok = np.isfinite(x) & below[0] & ~below[-1] & (x >= low) & (x < low + width)
    lo[sel[ok]] = x[ok]
    rest = np.ones(lo.size, dtype=bool)
    rest[sel[ok]] = False
    return np.flatnonzero(rest)


def _twisted(diag, e2s, w, top):
    """Eigenvectors (k, m), one per row, of symmetric tridiagonals with
    diagonals diag (k, m) and squared off-diagonals e2s (k, m - 1) > 0, at
    eigenvalues w (k,) that no other eigenvalue lies within CLUSTER_GAP
    t_b of (t_b = top), from one twisted factorisation of T - w I each
    (Fernando, SIAM J. Matrix Anal. Appl. 18, 1997; Parlett & Dhillon,
    Linear Algebra Appl. 267, 1997).

    The pivots D+ of T - w I = L D+ L^T from the top, which are the Sturm
    pivots, and D- of U D- U^T from the bottom run side by side, a pivot
    below eps t_b counting as eps t_b.  The twist r is where
    gamma_r = D+_r + D-_r - (d_r - w) is least in magnitude, and z with
    z_r = 1 solves the twisted system: z_i = -(e_i / D+_i) z_{i+1} above r
    and z_i = -(e_{i-1} / D-_i) z_{i-1} below it, as products that start
    at r.  Its residual is |gamma_r| / ||z||, at most about m times the
    distance of w to the eigenvalue.  Every step works on all columns at
    once, and each column on its own entries, so a vector is bitwise the
    same whatever else is solved with it.
    """
    m = diag.shape[1]
    shift = (diag - w[:, None]).T
    # the recurrence from the top in the first k columns, from the bottom
    # in the last k
    pivot = np.concatenate([shift, shift[::-1]], axis=1)
    e2 = np.concatenate([e2s.T, e2s.T[::-1]], axis=1)
    tiny = np.tile(EPS * top, 2)
    for i in range(m):
        row = pivot[i]
        if i:
            row -= e2[i - 1] / pivot[i - 1]
        np.copysign(np.maximum(np.abs(row), tiny), row, out=row)
    k = w.size
    down, up = pivot[:, :k], pivot[::-1, k:]
    r = np.abs(down + up - shift).argmin(axis=0)
    off = -np.sqrt(e2s.T)
    at = np.arange(m)[:, None]
    z = np.ones((m, k))
    z[:-1] = np.cumprod(np.where(at[:-1] < r, off / down[:-1], 1.0)[::-1], axis=0)[::-1]
    z[1:] *= np.cumprod(np.where(at[1:] > r, off / up[1:], 1.0), axis=0)
    # one vector per row, so the sum runs along a contiguous row
    y = np.ascontiguousarray(z.T)
    return y / np.sqrt((y ** 2).sum(axis=1))[:, None]


def _inverse_iteration(diag, e2s, w, top, index, start):
    """Eigenvectors (k, m), one per row, of symmetric tridiagonals with
    diagonals diag (k, m) and squared off-diagonals e2s (k, m - 1) > 0 at
    their eigenvalues w (k,), eigenvalue number index (k,) of their own
    slice, by inverse iteration on every column at once.  start (k,) marks
    the columns that start a cluster; each is followed by the rest of its
    cluster in ascending order.  _tridiagonal_eig decides the clusters by
    its CLUSTER_GAP rule and hands over only them, as an eigenvalue alone
    takes _twisted.  Column j starts from column index_j of one fixed
    random (m, m) draw, so a vector is bitwise that of the full solve when
    its cluster is solved whole.

    Column j factors T - s_j I once by elimination with partial pivoting
    (LAPACK dlagtf), where s_j is w_j moved up to 10 eps t_b (t_b = top_j)
    above s_{j-1} when closer to it inside a cluster, and a pivot below
    eps t_b counts as eps t_b.  The first pass solves U x = b for a fixed
    b, later passes the whole system, and after each pass the columns are
    normalised and orthogonalised against the earlier members of their
    cluster by classical Gram-Schmidt, twice (LAPACK zstein; Dhillon,
    BIT 38, 1998).  From the second pass on, a column stops once
    ||T y - w_j y|| is at most 4 m^1.5 eps t_b, about what zstein accepts,
    and the earlier members of its cluster have stopped.  Raises
    ConvergenceError if a column still moves after MAX_PASSES.
    """
    n, m = diag.shape
    # the rank of each column in its cluster, and for each rank its
    # columns with those of their earlier members
    rank = np.arange(n) - np.maximum.accumulate(np.where(start, np.arange(n), 0))
    groups = [(cols, cols[:, None] - np.arange(r, 0, -1))
              for r in range(1, rank.max() + 1) for cols in [np.flatnonzero(rank == r)]]
    tiny = EPS * top
    s = w.copy()
    for cols, _ in groups:
        s[cols] = np.maximum(s[cols], s[cols - 1] + 10.0 * tiny[cols])
    off = np.sqrt(e2s).T
    shift = (diag - s[:, None]).T
    # row k of what is left to eliminate is (head, over, 0) in columns k,
    # k + 1, k + 2; the factors are lists of rows
    head, over = shift[0], off[0]
    piv, sup, sup2, mult, swap = [], [], [], [], []
    for k in range(m - 1):
        swap.append(off[k] > np.abs(head))
        piv.append(np.where(swap[k], off[k], head))
        mult.append(np.where(swap[k], head, off[k]) / piv[k])
        sup.append(np.where(swap[k], shift[k + 1], over))
        head = np.where(swap[k], over, shift[k + 1]) - mult[k] * sup[k]
        if k < m - 2:
            sup2.append(off[k + 1] * swap[k])
            over = np.where(swap[k], -mult[k] * off[k + 1], off[k + 1])
    piv = np.array(piv + [head])
    inv = 1.0 / np.where(np.abs(piv) < tiny, np.copysign(tiny, piv), piv)

    bound = 4 * m * np.sqrt(m) * tiny
    done, y = np.zeros(n, dtype=bool), np.zeros((n, m))
    rows = list(np.random.default_rng(0).uniform(-1.0, 1.0, (m, m))[:, index])
    for sweep in range(MAX_PASSES):
        for k in range(m - 1 if sweep else 0):
            top_row = np.where(swap[k], rows[k + 1], rows[k])
            rows[k + 1] = np.where(swap[k], rows[k], rows[k + 1]) - mult[k] * top_row
            rows[k] = top_row
        rows[-1] = rows[-1] * inv[-1]
        rows[-2] = (rows[-2] - sup[-1] * rows[-1]) * inv[-2]
        for k in range(m - 3, -1, -1):
            rows[k] = (rows[k] - sup[k] * rows[k + 1] - sup2[k] * rows[k + 2]) * inv[k]
        # one vector per row, so every sum below runs along a contiguous row
        x = np.stack(rows, axis=1)
        y = np.where(done[:, None], y, x / np.sqrt((x ** 2).sum(axis=1))[:, None])
        for cols, earlier in groups:
            cols, earlier = cols[~done[cols]], y[earlier[~done[cols]]]
            u = y[cols]
            for _ in range(2):
                u -= ((earlier * u[:, None, :]).sum(axis=2)[:, :, None]
                      * earlier).sum(axis=1)
            y[cols] = u / np.sqrt((u ** 2).sum(axis=1))[:, None]
        if sweep:
            res = (diag - w.reshape(n, 1)) * y
            res[:, 1:] += off.T * y[:, :-1]
            res[:, :-1] += off.T * y[:, 1:]
            done = np.sqrt((res ** 2).sum(axis=1)) <= bound
            for cols, _ in groups:
                done[cols] &= done[cols - 1]
            if done.all():
                return y
        rows = list(y.T)
    raise ConvergenceError("inverse iteration limit %d reached" % MAX_PASSES)


def lu_inverse(a, tol=1e-10):
    """Inverse of a square matrix, or of each slice of a (B, n, n) stack,
    by LU factorization with partial pivoting.

    Each slice is factored unit_scaled, A 2^-e, and its inverse scaled back
    by 2^-e; pivoting commutes exactly with that scaling, so the result
    does not depend on it short of under- or overflow.  Elimination
    factors A in place and swaps the rows of an identity as it swaps those
    of A; substitution then turns that identity into A^-1.  A pivot whose
    magnitude falls to tol times the Frobenius norm of its slice or below
    makes the slice singular: for one matrix that raises
    SingularMatrixError, naming the first such pivot, and a stack gives
    (inverses, invertible), with a zero inverse for each singular slice.
    The pivots are judged after elimination, which runs on through a
    singular slice (which may fill with NaN, in that slice only).
    Raises ValueError when the input is not square or not finite, or when
    an inverse lies beyond the float range, naming the first such slice.
    """
    a = np.asarray(a, dtype=complex)
    single = a.ndim == 2
    if single:
        a = a[None]
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError("lu_inverse needs a square matrix or a stack of them")
    finite = np.isfinite(a).all(axis=(1, 2))
    _require(finite[0] if single else finite, "lu_inverse needs finite entries")
    count, n = a.shape[:2]
    a, e = unit_scaled(a, axis=(1, 2))
    # unit_scaled already, so the plain sum of squares is frobenius_norm's
    pivot_tol = tol * np.sqrt((np.abs(a) ** 2).sum(axis=(1, 2)))
    # [A | I], so that one swap moves a row of both
    ax = np.zeros((count, n, 2 * n), dtype=complex)
    ax[:, :, :n] = a
    ax[:, :, n:] = np.eye(n)
    lu, x = ax[:, :, :n], ax[:, :, n:]
    slices = np.arange(count)[:, None]
    pair = np.zeros((count, 2), dtype=np.intp)
    # past a failed pivot, which may be 0 or subnormal, a slice may fill
    # with inf and NaN; it is judged singular below
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n):
            col = lu[:, k:, k]
            r = np.abs(col).argmax(axis=1)
            if r.any():
                # rows k and k + r of each slice trade places
                pair[:, 1] = r
                rows = pair + k
                ax[slices, rows] = ax[slices, rows[:, ::-1]]
            below = col[:, 1:]
            below /= col[:, :1]
            lu[:, k + 1:, k + 1:] -= below[:, :, None] * lu[:, k, None, k + 1:]
    pivots = np.abs(lu.diagonal(axis1=1, axis2=2))
    fail = pivots <= pivot_tol[:, None]
    singular = fail.any(axis=1)
    if singular.any():
        if single:
            k = int(fail[0].argmax())
            raise SingularMatrixError(
                "pivot %d is %.3e, at or below threshold %.3e"
                % (k, np.ldexp(pivots[0, k], e[0]), np.ldexp(pivot_tol[0], e[0])))
        # U = I and X = 0 make the substitution give a singular slice 0
        ax[singular] = np.eye(n, 2 * n)
    for k in range(1, n):
        x[:, k:k + 1] -= lu[:, k:k + 1, :k] @ x[:, :k]
    for k in range(n - 1, -1, -1):
        row = x[:, k:k + 1]
        row -= lu[:, k:k + 1, k + 1:] @ x[:, k + 1:]
        row /= lu[:, k:k + 1, k:k + 1]
    # (A 2^-e)^-1 = A^-1 2^e, so A^-1 may lie beyond the float range
    with np.errstate(over="ignore"):
        x = np.ldexp(x.view(float), -e[:, None, None]).view(complex)
    finite = np.isfinite(x).all(axis=(1, 2))
    _require(finite[0] if single else finite,
             "lu_inverse: the inverse lies beyond the float range")
    return x[0] if single else (x, ~singular)


def mgs_orthonormalize(vectors, tol=1e-10):
    """Orthonormalize a list of complex vectors in order by Gram-Schmidt,
    or each slice of a (B, k, n) stack of k vectors at once.

    Each vector is projected against all the vectors kept so far in one
    product, and a second such pass cleans up the rounding left by the
    first (classical Gram-Schmidt run twice).  Vectors whose residual after
    projection has norm at or below tol are dropped, so the returned list
    can be shorter than the input.  Once the kept vectors are a full basis,
    as many as each vector is long, the rest are skipped.  Raises
    ValueError when the vectors have mixed lengths.

    A stack gives an array (B, min(k, n), n) whose slice b holds the
    vectors of slice b's own list call, bitwise, followed by zero rows; a
    list is a stack of one.  Runs of neighbouring slices that have kept
    the same number of vectors are projected together, one product per run
    and pass, and a run splits where one of its slices drops a vector.
    """
    stacked = isinstance(vectors, np.ndarray) and vectors.ndim == 3
    if stacked:
        batch = vectors.astype(complex, copy=False)
    else:
        vectors = [np.asarray(v, dtype=complex).ravel() for v in vectors]
        if len({v.size for v in vectors}) > 1:
            raise ValueError("vectors have mixed lengths")
        size = vectors[0].size if vectors else 0
        batch = np.array(vectors, dtype=complex).reshape(1, len(vectors), size)
    count, k, size = batch.shape
    kept = np.zeros((count, min(k, size), size), dtype=complex)
    kept_conj = np.zeros_like(kept)
    # (lo, hi, c): slices lo to hi - 1, which have kept c vectors each, are
    # projected together; a run splits where its slices part ways
    runs = [(0, count, 0)] if count and size else []
    for j in range(k):
        later = []
        for lo, hi, c in runs:
            v = batch[lo:hi, j, :, None]
            basis, conj = kept[lo:hi, :c].swapaxes(1, 2), kept_conj[lo:hi, :c]
            for _ in range(2 if c else 0):
                v = v - basis @ (conj @ v)
            nrm = np.sqrt((np.abs(v) ** 2).sum(axis=1))
            keep = nrm > tol
            u = np.divide(v[:, :, 0], nrm, out=kept[lo:hi, c], where=keep)
            np.conjugate(u, out=kept_conj[lo:hi, c])
            if np.count_nonzero(keep) == hi - lo:
                later.append((lo, hi, c + 1))
            else:
                # the slices that kept the vector go on at c + 1, the others
                # at c
                cut = [lo, *(np.flatnonzero(np.diff(keep[:, 0])) + lo + 1).tolist(), hi]
                later += [(a, b, c + int(keep[a - lo, 0])) for a, b in zip(cut, cut[1:])]
        runs = [run for run in later if run[2] < size]
        if not runs:
            break
    return kept if stacked else list(kept[0, :np.count_nonzero(kept[0].any(axis=1))])


def _cluster_starts(ascending):
    """Which entries of each ascending row (..., n) start a positive
    cluster.  Entries at or below CLUSTER_TOL times the row's largest count
    as zero; the first positive entry starts a cluster, and so does every
    later one whose gap to the entry before exceeds that same threshold."""
    cut = CLUSTER_TOL * ascending.max(axis=-1, initial=0.0)[..., None]
    positive = ascending > cut
    start = positive.copy()
    start[..., 1:] &= ~positive[..., :-1] | (np.diff(ascending, axis=-1) > cut)
    return start


def positive_clusters(values):
    """Group the positive entries of an eigenvalue array.

    Entries at or below CLUSTER_TOL times the largest value count as zero.
    Two neighbours share a cluster when their gap is at most that same
    threshold (_cluster_starts).  Returns a list of index lists, one per
    cluster, in ascending order of value.
    """
    values = np.asarray(values, dtype=float)
    order = np.argsort(values, kind="stable")
    starts = np.flatnonzero(_cluster_starts(values[order]))
    return [cluster.tolist() for cluster in np.split(order, starts)[1:]]


def even_clusters(values):
    """Whether every positive cluster of a spectrum, (n,) or each row of
    (..., n), has an even size: a bool, or one per row.  The positives are
    a suffix of the sorted row, so its clusters are all even exactly when
    every cluster start has the parity of n."""
    rows = np.sort(np.asarray(values, dtype=float), axis=-1)
    n = rows.shape[-1]
    even = ~(_cluster_starts(rows) & (np.arange(n) % 2 != n % 2)).any(axis=-1)
    return bool(even) if rows.ndim == 1 else even
