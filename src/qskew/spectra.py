"""Right eigenvalues of Hermitian quaternion matrices via the complex adjoint.

The embedding chi sends an n x n quaternion matrix to a 2n x 2n complex
matrix multiplicatively, so Hermitian quaternion eigenproblems reduce to
complex ones.  Each real right eigenvalue of the quaternion matrix shows
up twice in the complex spectrum; the pairing is checked and every second
value is kept.

gram_product and right_eigenvalues_hermitian take a QuatMatrix stack
(..., n, n, 4) as well as one matrix and give bitwise the per-slice
results; each check still judges every slice on its own, and an error
names the first slice that fails it.
"""

from dataclasses import dataclass

import numpy as np

from .clinalg import frobenius_norm, herm_eig, lu_inverse
from .qmatrix import QuatMatrix


@dataclass
class RightSpectrum:
    """Ascending real right eigenvalues and the gaps inside their pairs.

    values and pairing_gaps are (n,), or (..., n) for a stack.
    pairing_gaps holds the spread inside each doubled pair of the complex
    spectrum; values near machine precision confirm the doubling.
    """
    values: np.ndarray
    pairing_gaps: np.ndarray

    def to_dict(self):
        """values and pairing_gaps as (nested) lists of floats."""
        return {"values": self.values.tolist(),
                "pairing_gaps": self.pairing_gaps.tolist()}


def _require(ok, message, *values):
    """Raise ValueError(message % values) unless the verdict ok holds for
    every slice; each of values is taken at the first failing slice, and
    for a stack the message names that slice."""
    ok = np.asarray(ok)
    if ok.all():
        return
    where = tuple(int(i) for i in np.argwhere(~ok)[0])
    text = message % tuple(np.asarray(v)[where] for v in values)
    if where:
        text += " (slice %s)" % ", ".join(map(str, where))
    raise ValueError(text)


def right_eigenvalues_hermitian(a, tol=1e-10):
    """Values-only right spectrum of Hermitian quaternion matrices.

    Returns a RightSpectrum for one matrix or a QuatMatrix stack, whose
    slices all go to one herm_eig call: every second value of the
    ascending spectrum of chi(A), and the gaps inside its pairs.  Raises
    ValueError on input not Hermitian within tol or a complex spectrum not
    paired within 1e-9 * ||A||_F.
    """
    a = QuatMatrix.coerce(a)
    _require(a.is_hermitian(tol), "right spectrum needs a Hermitian matrix")
    c = a.chi()  # herm_eig takes one matrix or a stack with one leading axis
    mu = herm_eig(c.reshape((-1,) + c.shape[-2:]) if c.ndim > 3 else c)
    mu = mu.reshape(c.shape[:-1])
    pair_tol = 1e-9 * a.norm()
    gaps = mu[..., 1::2] - mu[..., 0::2]
    worst = gaps.max(axis=-1, initial=0.0)
    _require(worst <= pair_tol,
             "complex spectrum does not pair: worst gap %.3e exceeds %.3e",
             worst, pair_tol)
    return RightSpectrum(mu[..., ::2].copy(), gaps)


def gram_product(z, tol=1e-10):
    """W = Z Z* for a skew-symmetric quaternion Z, or for each slice of a
    QuatMatrix stack.

    Also forms -Z conj(Z) independently and insists the two agree
    entrywise; for a skew-symmetric Z they are the same matrix.  The
    result is Hermitian positive semidefinite.  Raises ValueError, before
    any product, when a row norm of Z reaches 2^511: the diagonal of W
    holds the squared row norms, and by Cauchy-Schwarz no partial sum of
    an entry of either product exceeds the largest of them, so below that
    nothing overflows.
    """
    z = QuatMatrix.coerce(z)
    _require(z.is_skew_symmetric(tol),
             "gram_product needs a skew-symmetric matrix")
    rows = frobenius_norm(z.data, axis=(-2, -1)).max(axis=-1, initial=0.0)
    _require(rows < 2.0 ** 511, "W = Z Z* is not representable: Z has a row "
             "of norm %.3e, and W holds its square (row norms must stay below "
             "2^511 = 6.7e153)", rows)
    w = z @ z.conj_transpose()
    w_alt = -(z @ z.conj())
    _require(w.allclose(w_alt, tol), "Z Z* and -Z conj(Z) disagree beyond "
             "tolerance; input is too far from skew-symmetric")
    return w


def quat_inverse(a, tol=1e-10):
    """Inverse of a quaternion matrix through the complex adjoint.

    Raises SingularMatrixError (from the LU pivot test) when the matrix is
    not invertible, and ValueError if the inverse loses the adjoint block
    structure beyond tolerance.
    """
    a = QuatMatrix.coerce(a)
    a._require_single("quat_inverse")
    a._require_square("quat_inverse")
    return QuatMatrix.from_chi(lu_inverse(a.chi(), tol=tol), tol=1e-8)


def _lowest_and_floor(a):
    """Min right eigenvalue of A and the floor 1e-10 * ||A||_F.  The floor
    of the zero matrix is 0, so it is semidefinite and not definite."""
    a = QuatMatrix.coerce(a)
    a._require_single("a definiteness test")
    return (float(right_eigenvalues_hermitian(a).values.min()),
            1e-10 * a.norm())


def is_positive_semidefinite(a):
    """Min right eigenvalue >= -1e-10 * ||A||_F."""
    lowest, floor = _lowest_and_floor(a)
    return lowest >= -floor


def is_positive_definite(a):
    """Min right eigenvalue strictly above +1e-10 * ||A||_F."""
    lowest, floor = _lowest_and_floor(a)
    return lowest > floor
