"""Quaternion matrices over numpy.

A QuatMatrix holds an (m, n, 4) float64 array; the last axis carries the
(w, x, y, z) components of each entry.  Two representations are kept in
play deliberately:

* component form A0 + A1 i + A2 j + A3 k, used for the Hamilton-product
  matrix multiply (16 real matmuls), and
* the complex adjoint chi(A), a 2m x 2n complex matrix built from the
  pair (A_c, A_d) with A = A_c + A_d j.

Keeping the multiply independent from the adjoint lets tests cross-check
one against the other.

The constructor alone embeds a 2-D real or complex A as A + 0 j, copies
(in C order, so the caller's array is never frozen) and checks for NaN/Inf;
operations and predicates then work on the whole read-only (m, n, 4) array.
"""

import numpy as np

from .clinalg import frobenius_norm
from .quaternion import Quaternion

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
        if arr.ndim != 3 or arr.shape[2] != 4:
            raise ValueError("expected an (m, n, 4) array, got shape %r"
                             % (arr.shape,))
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
        return self.data.shape[:2]

    @property
    def nrows(self):
        return self.data.shape[0]

    @property
    def ncols(self):
        return self.data.shape[1]

    def entry(self, i, j):
        return Quaternion(*self.data[i, j])

    def __getitem__(self, key):
        i, j = key
        return self.entry(i, j)

    def column(self, j):
        """Column j as an (m, 1) QuatMatrix."""
        return QuatMatrix(self.data[:, j:j + 1, :])

    def parts(self):
        """The four real component matrices (copies)."""
        return tuple(np.array(self.data[:, :, c]) for c in range(4))

    def complex_pair(self):
        """(A_c, A_d) with A = A_c + A_d j, both complex (m, n)."""
        a0, a1, a2, a3 = self.parts()
        return a0 + 1j * a1, a2 + 1j * a3

    def __repr__(self):
        return "QuatMatrix(shape=%dx%d)" % self.shape

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
        return QuatMatrix(self.data.swapaxes(0, 1))

    def conj(self):
        """Entrywise quaternion conjugate."""
        return QuatMatrix(self.data * _CONJ_SIGNS)

    def conj_transpose(self):
        """The * operation: conjugate transpose.  (AB)* = B* A* always holds."""
        return QuatMatrix(self.data.swapaxes(0, 1) * _CONJ_SIGNS)

    # -- products --------------------------------------------------------------------

    def __matmul__(self, other):
        other = _coerce_matrix(other, None)
        if self.ncols != other.nrows:
            raise ValueError("matmul shape mismatch: %r @ %r"
                             % (self.shape, other.shape))
        return _hamilton_matmul(self.parts(), other.parts())

    def gram(self):
        """Z Z*, Hermitian and positive semidefinite for any Z."""
        return self @ self.conj_transpose()

    # -- adjoint ----------------------------------------------------------------------

    def chi(self):
        """Complex adjoint: [[A_c, A_d], [-conj(A_d), conj(A_c)]]."""
        ac, ad = self.complex_pair()
        return np.block([[ac, ad], [-ad.conj(), ac.conj()]])

    @classmethod
    def from_chi(cls, c, tol=1e-10):
        """Invert chi; ValueError when c is off the symmetry by > tol*max|c|."""
        c = np.asarray(c, dtype=complex)
        if c.ndim != 2 or c.shape[0] % 2 or c.shape[1] % 2:
            raise ValueError("adjoint matrix must have even dimensions")
        m, n = c.shape[0] // 2, c.shape[1] // 2
        ac, ad = c[:m, :n], c[:m, n:]
        scale = float(np.abs(c).max(initial=0.0))
        if (np.abs(c[m:, :n] + ad.conj()).max(initial=0.0) > tol * scale
                or np.abs(c[m:, n:] - ac.conj()).max(initial=0.0) > tol * scale):
            raise ValueError("matrix does not have the adjoint block symmetry")
        return cls.from_complex_pair(ac, ad)

    # -- metrics and predicates ----------------------------------------------------------

    def norm(self):
        """Frobenius norm over all quaternion components, by frobenius_norm,
        so it neither under- nor overflows."""
        return frobenius_norm(self.data)

    def max_abs(self):
        """Largest entry magnitude |a_ij|, by hypot, so it does not overflow."""
        return _max_abs(self.data)

    def is_hermitian(self, tol=1e-10):
        """A* = A within tol * max|a_ij|; the zero matrix passes."""
        self._require_square("is_hermitian")
        d = self.data
        gap = _max_abs(d - d.swapaxes(0, 1) * _CONJ_SIGNS)
        return gap <= tol * self.max_abs()

    def is_skew_symmetric(self, tol=1e-10):
        """Z^T = -Z under the plain transpose, within tol * max|z_ij|."""
        self._require_square("is_skew_symmetric")
        d = self.data
        return _max_abs(d.swapaxes(0, 1) + d) <= tol * self.max_abs()

    def is_unitary(self):
        """A* A = I within Frobenius residual 1e-10."""
        self._require_square("is_unitary")
        res = self.conj_transpose() @ self - QuatMatrix.eye(self.nrows)
        return res.norm() <= 1e-10

    def _require_square(self, who):
        if self.nrows != self.ncols:
            raise ValueError("%s needs a square matrix, got %dx%d"
                             % ((who,) + self.shape))

    def allclose(self, other, tol=1e-12):
        """max|a_ij - b_ij| within tol times the larger of the two max_abs."""
        other = _coerce_matrix(other, self.shape)
        scale = max(self.max_abs(), other.max_abs())
        return _max_abs(self.data - other.data) <= tol * scale


def random_skew_symmetric(n, seed, scale=1.0):
    """Random n x n quaternion skew-symmetric matrix, reproducible by seed.

    The strictly upper triangle is drawn row-major, four independent
    components per entry, uniform on [-scale, scale]; the lower triangle is
    the negated transpose and the diagonal is zero.  The stream comes from
    numpy's counter-based Philox generator keyed by the seed, so the same
    (n, seed, scale) always yields the same matrix, on any platform.
    """
    if n < 2:
        raise ValueError("need n >= 2, got %d" % n)
    if scale <= 0:
        raise ValueError("scale must be positive")
    rng = np.random.Generator(np.random.Philox(key=int(seed) & (2 ** 64 - 1)))
    k = n * (n - 1) // 2
    draws = rng.uniform(-scale, scale, size=(k, 4))
    arr = np.zeros((n, n, 4))
    upper = np.triu_indices(n, 1)  # row-major, matching the draw order
    arr[upper] = draws
    arr[upper[::-1]] = -draws
    return QuatMatrix(arr)


def _coerce_matrix(value, shape):
    value = QuatMatrix.coerce(value)
    if shape is not None and value.shape != shape:
        raise ValueError("shape mismatch: %r vs %r" % (value.shape, shape))
    return value


def _max_abs(d):
    """Largest entry magnitude of an (m, n, 4) array, by hypot."""
    return float(np.hypot(np.hypot(d[..., 0], d[..., 1]),
                          np.hypot(d[..., 2], d[..., 3])).max(initial=0.0))


def _scalar_matrix(q, n):
    """q I: the quaternion scalar q on the diagonal of an n x n matrix."""
    return QuatMatrix(np.eye(n)[:, :, None] * Quaternion.coerce(q).components())


def _hamilton_matmul(parts_a, parts_b):
    """Multiply via the sixteen real products of the component matrices."""
    w1, x1, y1, z1 = parts_a
    w2, x2, y2, z2 = parts_b
    w = w1 @ w2 - x1 @ x2 - y1 @ y2 - z1 @ z2
    x = w1 @ x2 + x1 @ w2 + y1 @ z2 - z1 @ y2
    y = w1 @ y2 - x1 @ z2 + y1 @ w2 + z1 @ x2
    z = w1 @ z2 + x1 @ y2 - y1 @ x2 + z1 @ w2
    return QuatMatrix(np.stack([w, x, y, z], axis=-1))
