"""Right eigenvalues of Hermitian quaternion matrices.

A Hermitian quaternion A = A_c + A_d j goes to the eigensolver as
[A_c | A_d], the first n rows of chi(A), which solves at size n and gives
each right eigenvalue once; their sum is checked against the trace of A.
W = Z Z* of a skew Z comes from gram_product bitwise Hermitian (one
product, its upper triangle mirrored), so the eigensolver's Hermitian check
and the skew check of a bitwise skew Z see exactly zero and measure nothing.

Every routine takes a QuatMatrix stack (..., n, n, 4) as well as one
matrix, quat_inverse a (B, n, n, 4) stack, with bitwise the per-slice
results; each check judges every slice on its own, and an error names the
first slice that fails it.  Definiteness has one rule, RightSpectrum.definite,
which is_positive_definite, is_solid and the CLI's "solid" verdict read.
"""

from dataclasses import dataclass

import numpy as np

from .clinalg import _require, frobenius_norm, herm_eig, lu_inverse, unit_scaled
from .qmatrix import QuatMatrix, _per_slice


@dataclass
class RightSpectrum:
    """The ascending real right eigenvalues, values (n,) or (..., n) for a
    stack, and per slice trace_residual = |sum of values - Re tr A|,
    which the solve keeps near machine precision times ||A||, and the
    definiteness floor tol * ||A||_F (0 for the zero matrix)."""
    values: np.ndarray
    trace_residual: np.ndarray
    floor: np.ndarray

    def definite(self):
        """Lowest value above the floor: a bool, or one per slice."""
        return _per_slice(self.values.min(axis=-1) > self.floor)

    def to_dict(self):
        """values and trace_residual as (nested) lists of floats."""
        return {"values": self.values.tolist(),
                "trace_residual": self.trace_residual.tolist()}


def right_eigenvalues_hermitian(a, tol=1e-10):
    """Values-only right spectrum of Hermitian quaternion matrices.

    Returns a RightSpectrum for one matrix or a QuatMatrix stack, whose
    slices all go to one herm_eig call as [A_c | A_d]: the n ascending
    right eigenvalues and their trace residual.  Raises ValueError on
    input not Hermitian within tol (herm_eig's check) or a trace residual
    above 1e-9 * sqrt(n) * ||A||_F, judged unit_scaled; tol * ||A||_F is
    the definiteness floor (inf beyond the float range).
    """
    a = QuatMatrix.coerce(a)
    a._require_square("right_eigenvalues_hermitian")
    n = a.nrows
    mu = herm_eig(a.chi()[..., :n, :], tol)  # [A_c | A_d]
    # judged unit_scaled, so that neither the sum nor the trace overflows,
    # and scaled back
    unit, e = unit_scaled(a.data, axis=(-3, -2, -1))
    residual = np.abs(np.ldexp(mu, -e[..., None]).sum(axis=-1)
                      - np.trace(unit[..., 0], axis1=-2, axis2=-1))
    norm = frobenius_norm(unit, axis=(-3, -2, -1))
    bound = 1e-9 * np.sqrt(n) * norm
    with np.errstate(over="ignore"):
        ok, residual, bound, floor = (residual <= bound, np.ldexp(residual, e),
                                      np.ldexp(bound, e), np.ldexp(tol * norm, e))
    _require(ok, "right eigenvalues do not sum to the trace: residual %.3e exceeds %.3e",
             residual, bound)
    return RightSpectrum(mu, residual, floor)


def gram_product(z, tol=1e-10):
    """W = Z Z* for a skew-symmetric quaternion Z, or for each slice of a
    QuatMatrix stack, by Z.gram(): bitwise Hermitian, positive semidefinite.

    For a skew Z, W is also -Z conj(Z).  The two products differ by exactly
    Z conj(S), where S = Z^T + Z is the residual of the skew check, so they
    agree when S is zero; otherwise W must agree entrywise with
    W - Z conj(S), the second route, within tol (QuatMatrix.allclose), or
    ValueError names the first slice where they disagree.  Raises
    ValueError, before any product, when a row norm of Z reaches 2^511: the
    diagonal of W holds the squared row norms, and by Cauchy-Schwarz no
    partial sum of an entry of W exceeds the largest of them, so below that
    W does not overflow.
    """
    z = QuatMatrix.coerce(z)
    _require(z.is_skew_symmetric(tol),
             "gram_product needs a skew-symmetric matrix")
    rows = frobenius_norm(z.data, axis=(-2, -1)).max(axis=-1, initial=0.0)
    _require(rows < 2.0 ** 511, "W = Z Z* is not representable: Z has a row "
             "of norm %.3e, and W holds its square (row norms must stay below "
             "2^511 = 6.7e153)", rows)
    w = z.gram()
    s = z.data.swapaxes(-3, -2) + z.data  # S = Z^T + Z, as the skew check forms it
    if s.any():
        _require(w.allclose(w - z @ QuatMatrix(s).conj(), tol), "Z Z* and -Z conj(Z) "
                 "disagree beyond tolerance; input is too far from skew-symmetric")
    return w


def gram_spectrum(z, tol=1e-10):
    """(W, its RightSpectrum, e) for W = Z Z* of a skew Z, or of each slice
    of a stack, formed from Z 2^-e: each slice is scaled up to unit size,
    never down (e <= 0), so gram_product still refuses a W beyond the float
    range.  Judge verdicts on W and its values; scale by 4^e what is shown."""
    z = QuatMatrix.coerce(z)
    e = np.minimum(unit_scaled(z.data, axis=(-3, -2, -1))[1], 0)
    if e.any():  # a copy only when some slice is scaled
        z = QuatMatrix(np.ldexp(z.data, -e[..., None, None, None]))
    w = gram_product(z, tol)
    return w, right_eigenvalues_hermitian(w, tol), e


def quat_inverse(a, tol=1e-10):
    """Inverse of a quaternion matrix through the complex adjoint, by one
    lu_inverse call.

    For one matrix, raises SingularMatrixError (from the LU pivot test)
    when it is not invertible; a (B, n, n, 4) stack gives (inverses,
    invertible) as lu_inverse does, with a zero inverse for each singular
    slice.  Raises ValueError if an inverse loses the adjoint block
    structure beyond tolerance.
    """
    a = QuatMatrix.coerce(a)
    a._require_square("quat_inverse")
    inverse = lu_inverse(a.chi(), tol=tol)
    if a.data.ndim == 3:
        return QuatMatrix.from_chi(inverse, tol=1e-8)
    return QuatMatrix.from_chi(inverse[0], tol=1e-8), inverse[1]


def is_positive_semidefinite(a):
    """Min right eigenvalue >= -1e-10 * ||A||_F, one bool per slice."""
    spectrum = right_eigenvalues_hermitian(a)
    return _per_slice(spectrum.values.min(axis=-1) >= -spectrum.floor)


def is_positive_definite(a):
    """Min right eigenvalue strictly above +1e-10 * ||A||_F, one bool per slice."""
    return right_eigenvalues_hermitian(a).definite()
