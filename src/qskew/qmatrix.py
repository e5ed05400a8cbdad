"""Quaternion matrices over numpy.

A QuatMatrix holds an (m, n, 4) float64 array; the last axis carries the
(w, x, y, z) components of each entry.  It may also hold a stack of
same-size matrices, a (..., m, n, 4) array; a single matrix is the stack
with no leading axes, so one code path serves both.  Two representations
are kept in play deliberately:

* component form A0 + A1 i + A2 j + A3 k, used for the Hamilton-product
  matrix multiply (16 real matmuls), and
* the complex adjoint chi(A), a 2m x 2n complex matrix built from the
  pair (A_c, A_d) with A = A_c + A_d j.

Keeping the multiply independent from the adjoint lets tests cross-check
one against the other.

The constructor alone embeds a 2-D real or complex A as A + 0 j, copies
(in C order, so the caller's array is never frozen) and checks for NaN/Inf;
operations and predicates then work on the whole read-only array.  On a
stack they act slice by slice, broadcasting as numpy does, and give
bitwise the per-slice results: metrics and predicates return one value per
slice (an array), and a Python float or bool for a single matrix.
"""

import functools

import numpy as np

from .clinalg import _is_hermitian, _max_abs, _require, _within, frobenius_norm
from .quaternion import Quaternion, _hamilton

# component signs of the quaternion conjugate w - x i - y j - z k
_CONJ_SIGNS = np.array([1.0, -1.0, -1.0, -1.0])


class QuatMatrix:
    __slots__ = ("data",)

    def __init__(self, data):
        arr = np.asarray(data)
        if arr.ndim == 2:  # real or complex A embedded as A + 0 j
            zero = np.zeros(arr.shape)
            arr = np.stack([arr.real, arr.imag, zero, zero], axis=-1)
        elif arr.dtype.kind == "c":
            raise ValueError("a complex array must be an (m, n) matrix, got "
                             "shape %r" % (arr.shape,))
        arr = np.array(arr, dtype=float, order="C")
        if arr.ndim < 3 or arr.shape[-1] != 4:
            raise ValueError("expected an (m, n, 4) array or a stack of them, "
                             "got shape %r" % (arr.shape,))
        if not np.isfinite(arr).all():
            raise ValueError("matrix has non-finite (NaN or Inf) entries")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    def __setattr__(self, name, value):
        raise AttributeError("QuatMatrix is immutable")

    # -- constructors ----------------------------------------------------------

    @classmethod
    def coerce(cls, value):
        """Return a QuatMatrix unchanged; build anything else by the constructor."""
        return value if isinstance(value, cls) else cls(value)

    @classmethod
    def from_entries(cls, rows):
        """Build from nested lists of Quaternion / scalar / 4-sequences."""
        return cls([[Quaternion.coerce(v).components() for v in row] for row in rows])

    @classmethod
    def from_parts(cls, a0, a1=None, a2=None, a3=None):
        a0 = np.asarray(a0, dtype=float)
        parts = [a0]
        for p in (a1, a2, a3):
            parts.append(np.zeros_like(a0) if p is None else np.asarray(p, dtype=float))
        return cls(np.stack(parts, axis=-1))

    @classmethod
    def from_complex_pair(cls, ac, ad):
        """Inverse of complex_pair: A = A_c + A_d j."""
        ac = np.asarray(ac, dtype=complex)
        ad = np.asarray(ad, dtype=complex)
        return cls.from_parts(ac.real, ac.imag, ad.real, ad.imag)

    @classmethod
    def zeros(cls, m, n=None):
        n = m if n is None else n
        return cls(np.zeros((m, n, 4)))

    @classmethod
    def eye(cls, n):
        arr = np.zeros((n, n, 4))
        arr[np.arange(n), np.arange(n), 0] = 1.0
        return cls(arr)

    # -- shape and access --------------------------------------------------------

    @property
    def shape(self):
        """(m, n), the shape of each matrix of a stack."""
        return self.data.shape[-3:-1]

    @property
    def nrows(self):
        return self.data.shape[-3]

    @property
    def ncols(self):
        return self.data.shape[-2]

    def entry(self, i, j):
        """Entry (i, j) of a single matrix."""
        return Quaternion(*self.data[i, j])

    def __getitem__(self, key):
        i, j = key
        return self.entry(i, j)

    def parts(self):
        """The four real component matrices (C-contiguous copies)."""
        return tuple(np.array(self.data[..., c]) for c in range(4))

    def complex_pair(self):
        """(A_c, A_d) with A = A_c + A_d j, both complex (..., m, n)."""
        a0, a1, a2, a3 = self.parts()
        return a0 + 1j * a1, a2 + 1j * a3

    def __repr__(self):
        return "QuatMatrix(shape=%s)" % "x".join(map(str, self.data.shape[:-1]))

    # -- linear structure ---------------------------------------------------------

    def __add__(self, other):
        other = _coerce_matrix(other, self.shape)
        return QuatMatrix(self.data + other.data)

    def __sub__(self, other):
        other = _coerce_matrix(other, self.shape)
        return QuatMatrix(self.data - other.data)

    def __neg__(self):
        return QuatMatrix(-self.data)

    def scale(self, s):
        """Multiply every entry by the real scalar s."""
        return QuatMatrix(self.data * float(s))

    def left_mul(self, q):
        """q * A with a quaternion scalar q applied entrywise on the left."""
        return _scalar_matrix(q, self.nrows) @ self

    def right_mul(self, q):
        """A * q with a quaternion scalar q applied entrywise on the right."""
        return self @ _scalar_matrix(q, self.ncols)

    def __mul__(self, s):
        return self.scale(s)

    __rmul__ = __mul__

    # -- transposes ------------------------------------------------------------------

    def transpose(self):
        """Plain transpose, no conjugation.  Note (AB)^T != B^T A^T in general."""
        return QuatMatrix(self.data.swapaxes(-3, -2))

    def conj(self):
        """Entrywise quaternion conjugate."""
        return QuatMatrix(self.data * _CONJ_SIGNS)

    def conj_transpose(self):
        """The * operation: conjugate transpose.  (AB)* = B* A* always holds."""
        return QuatMatrix(self.data.swapaxes(-3, -2) * _CONJ_SIGNS)

    # -- products --------------------------------------------------------------------

    def __matmul__(self, other):
        other = _coerce_matrix(other, None)
        if self.ncols != other.nrows:
            raise ValueError("matmul shape mismatch: %r @ %r"
                             % (self.shape, other.shape))
        # C-contiguous parts: each slice of a stack takes one matrix's route
        product = _hamilton(self.parts(), other.parts(), np.matmul)
        return QuatMatrix(np.stack(product, axis=-1))

    def gram(self):
        """Z Z*, Hermitian and positive semidefinite for any Z, and bitwise
        Hermitian: the Hamilton product's upper triangle, its conjugate
        mirrored below the diagonal, and the diagonal's imaginary parts
        +0.0.  The raw product is Hermitian only to rounding (from n = 65 on
        BLAS sums the two triangles in different orders).  Each slice of a
        stack is bitwise its own call, and 2^k Z gives exactly 4^k W while
        nothing leaves the normal range."""
        w = np.stack(_hamilton(self.parts(), self.conj_transpose().parts(), np.matmul),
                     axis=-1)
        lower, upper = _strict_lower(self.nrows)
        w[..., lower, upper, :] = w[..., upper, lower, :] * _CONJ_SIGNS
        diagonal = np.arange(self.nrows)
        w[..., diagonal, diagonal, 1:] = 0.0
        return QuatMatrix(w)

    # -- adjoint ----------------------------------------------------------------------

    def chi(self):
        """Complex adjoint [[A_c, A_d], [-conj(A_d), conj(A_c)]], built
        by slice assignment, (..., 2m, 2n)."""
        ac, ad = self.complex_pair()
        m, n = self.shape
        out = np.empty(ac.shape[:-2] + (2 * m, 2 * n), dtype=complex)
        out[..., :m, :n] = ac
        out[..., :m, n:] = ad
        out[..., m:, :n] = -ad.conj()
        out[..., m:, n:] = ac.conj()
        return out

    @classmethod
    def from_chi(cls, c, tol=1e-10):
        """Invert chi, of one matrix or of each slice of a stack (..., 2m, 2n);
        ValueError, naming the first failing slice, unless the top half's
        [A_c | A_d] is within tol (_within) of the bottom half's [conj c_22 | -conj c_21]."""
        c = np.ascontiguousarray(c, dtype=complex)
        if c.ndim < 2 or c.shape[-2] % 2 or c.shape[-1] % 2:
            raise ValueError("adjoint matrix must have even dimensions")
        m, n = c.shape[-2] // 2, c.shape[-1] // 2
        off = np.empty(c.shape[:-2] + (m, 2 * n), dtype=complex)
        with np.errstate(over="ignore"):
            np.subtract(c[..., :m, :n], c[..., m:, n:].conj(), out=off[..., :n])
            np.add(c[..., :m, n:], c[..., m:, :n].conj(), out=off[..., n:])
            ok = _within(off.view(float)[None], tol, lambda: _max_abs(c.view(float)[None]))
        _require(ok, "matrix does not have the adjoint block symmetry")
        return cls.from_complex_pair(c[..., :m, :n], c[..., :m, n:])

    # -- metrics and predicates ----------------------------------------------------------

    def norm(self):
        """Frobenius norm over all quaternion components, by frobenius_norm,
        so it neither under- nor overflows."""
        return _per_slice(frobenius_norm(self.data, axis=(-3, -2, -1)))

    def max_abs(self):
        """The one magnitude, the largest |component| (_max_abs), finite."""
        return _per_slice(_max_abs(np.rollaxis(self.data, -1)))

    def is_hermitian(self, tol=1e-10):
        """A* = A within tol times max_abs, herm_eig's rule; zero passes."""
        self._require_square("is_hermitian")
        return _per_slice(_is_hermitian(np.rollaxis(self.data, -1), tol))

    def is_skew_symmetric(self, tol=1e-10):
        """Z^T = -Z under the plain transpose: the residual Z^T + Z within
        tol times max_abs (_within, so an exactly skew Z is not measured)."""
        self._require_square("is_skew_symmetric")
        p = np.rollaxis(self.data, -1)  # the four component matrices
        with np.errstate(over="ignore"):
            return _per_slice(_within(p.swapaxes(-2, -1) + p, tol, lambda: _max_abs(p)))

    def _require_square(self, who):
        if self.nrows != self.ncols:
            raise ValueError("%s needs a square matrix, got %dx%d"
                             % ((who,) + self.shape))

    def allclose(self, other, tol=1e-12):
        """A - B within tol times the larger of the two max_abs (_within,
        so equal matrices are not measured)."""
        other = _coerce_matrix(other, self.shape)
        a, b = np.rollaxis(self.data, -1), np.rollaxis(other.data, -1)
        with np.errstate(over="ignore"):
            return _per_slice(_within(a - b, tol, lambda: np.maximum(_max_abs(a), _max_abs(b))))


def random_skew_symmetric(n, seed, scale=1.0):
    """Random n x n quaternion skew-symmetric matrix, reproducible by seed.

    The strictly upper triangle is drawn row-major, four independent
    components per entry, uniform on [-scale, scale] for a normal scale
    of at most half the largest float (else ValueError); the lower
    triangle is the negated transpose and the diagonal is zero.  The
    stream comes from numpy's counter-based Philox generator keyed by the
    seed, so the same (n, seed, scale) always yields the same matrix, on
    any platform.  A sequence of B seeds gives a (B, n, n, 4) stack whose
    slice b is bitwise the matrix of seed[b].  Each stream fills its slice
    with Generator.random, and the stack is mapped to [-scale, scale] as
    Generator.uniform maps each draw, -scale + (2 scale) u.
    """
    if n < 2:
        raise ValueError("need n >= 2, got %d" % n)
    if not scale >= np.finfo(float).tiny:  # a subnormal scale quantizes the draws
        raise ValueError("scale must be positive and normal (>= 2^-1022), got %r" % scale)
    if scale > np.finfo(float).max / 2:  # the draws' range, 2 scale, would overflow
        raise ValueError("scale must be at most half the largest float (%r), got %r"
                         % (float(np.finfo(float).max / 2), scale))
    stacked = np.ndim(seed) > 0
    keys = [int(s) & (2 ** 64 - 1) for s in (seed if stacked else [seed])]
    k = n * (n - 1) // 2
    draws = np.empty((len(keys), k, 4))
    # one generator and one state dict per call, rekeyed per seed: each
    # Philox construction also draws an unused SeedSequence from the OS
    # entropy pool, and the state setter copies what it is given
    bits = np.random.Philox(key=0)
    rng = np.random.Generator(bits)
    state = bits.state
    key = state["state"]["key"]
    for b, s in enumerate(keys):
        key[0] = s
        bits.state = state
        rng.random(out=draws[b])
    # Generator.uniform's map, low + (high - low) u, once for the block
    draws *= 2.0 * scale
    draws += -scale
    arr = np.zeros((len(keys), n, n, 4))
    upper, lower = np.triu_indices(n, 1)  # row-major, matching the draw order
    arr[:, upper, lower] = draws
    arr[:, lower, upper] = -draws
    return QuatMatrix(arr if stacked else arr[0])


def _coerce_matrix(value, shape):
    value = QuatMatrix.coerce(value)
    if shape is not None and value.shape != shape:
        raise ValueError("shape mismatch: %r vs %r" % (value.shape, shape))
    return value


@functools.cache
def _strict_lower(n):
    """(rows, cols) of the strict lower triangle of an n x n matrix,
    row-major and read-only, built once per n: np.tril_indices takes longer
    than mirroring a 3x3 W."""
    rows, cols = np.tril_indices(n, -1)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


def _per_slice(x):
    """A per-slice result as given for a stack, as a Python scalar for a
    single matrix."""
    return x if x.ndim else x.item()


def _scalar_matrix(q, n):
    """q I: the quaternion scalar q on the diagonal of an n x n matrix."""
    return QuatMatrix(np.eye(n)[:, :, None] * Quaternion.coerce(q).components())
