"""Right eigenvalues of Hermitian quaternion matrices via the complex adjoint.

The embedding chi sends an n x n quaternion matrix to a 2n x 2n complex
matrix multiplicatively, so Hermitian quaternion eigenproblems reduce to
complex ones.  Each real right eigenvalue of the quaternion matrix shows
up twice in the complex spectrum; the pairing is checked, every second
value is kept, and only right_eigenpairs_hermitian also maps eigenvectors
back to quaternion columns.
"""

from dataclasses import dataclass, field

import numpy as np

from .clinalg import cluster_runs, companion_basis, herm_eig, lu_inverse
from .qmatrix import QuatMatrix


@dataclass
class RightSpectrum:
    """Ascending real right eigenvalues, with a quaternion eigenbasis or None.

    pairing_gaps holds the spread inside each doubled pair of the complex
    spectrum; values near machine precision confirm the doubling.  vectors
    is a unitary QuatMatrix of right eigenvectors from
    right_eigenpairs_hermitian, and None from right_eigenvalues_hermitian.
    """
    values: np.ndarray
    vectors: QuatMatrix | None
    pairing_gaps: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def to_dict(self, include_vectors=False):
        out = {"values": [float(v) for v in self.values],
               "pairing_gaps": [float(g) for g in self.pairing_gaps]}
        if include_vectors:
            if self.vectors is None:
                raise ValueError("no eigenvectors: use right_eigenpairs_hermitian")
            out["vectors"] = self.vectors.data.tolist()
        return out


def _antidual(v):
    """The antiunitary companion of a complex 2n-vector in adjoint coordinates.

    Commutes with every chi image and squares to -1; the companion of an
    eigenvector is an eigenvector for the same value, always orthogonal to
    the original.
    """
    n = v.size // 2
    return np.concatenate([-v[n:].conj(), v[:n].conj()])


def _hermitian(a, tol):
    if not isinstance(a, QuatMatrix):
        a = QuatMatrix(a)
    if not a.is_hermitian(tol):
        raise ValueError("right spectrum needs a Hermitian matrix")
    return a


def _paired(mu, a):
    """Every second value of the ascending complex spectrum mu of chi(a),
    the gaps inside its pairs, and the pairing tolerance they must meet."""
    pair_tol = 1e-9 * max(1.0, a.norm())
    gaps = mu[1::2] - mu[0::2]
    if gaps.size and float(gaps.max()) > pair_tol:
        raise ValueError(
            "complex spectrum does not pair: worst gap %.3e exceeds %.3e"
            % (float(gaps.max()), pair_tol))
    return mu[::2].copy(), gaps, pair_tol


def right_eigenvalues_hermitian(a, tol=1e-10):
    """Values-only right spectrum of Hermitian quaternion matrices.

    Returns a RightSpectrum (n ascending eigenvalues, pairing gaps, vectors
    None), or for a list of same-size matrices a list of them, in order,
    from one herm_eig call.  Raises ValueError on input not Hermitian within
    tol or a complex spectrum not paired within 1e-9 * max(1, ||A||_F).
    """
    mats = [_hermitian(x, tol) for x in (a if isinstance(a, list) else [a])]
    if not mats:
        return []
    mus = herm_eig(np.stack([x.chi() for x in mats]), vectors=False)
    spectra = [RightSpectrum(values, None, gaps)
               for values, gaps, _ in map(_paired, mus, mats)]
    return spectra if isinstance(a, list) else spectra[0]


def right_eigenpairs_hermitian(a):
    """right_eigenvalues_hermitian(a) plus a unitary QuatMatrix of right
    eigenvectors (A x = x lambda per column); same values, bitwise."""
    a = _hermitian(a, 1e-10)
    n = a.nrows
    mu, v = herm_eig(a.chi())
    values, gaps, pair_tol = _paired(mu, a)

    # one eigenvector per pair, pulled out of each group of pairs whose
    # values collide; column u of the adjoint lifts to x = u[:n] - conj(u[n:]) j
    chosen = []
    for lo, hi in cluster_runs(values, pair_tol):
        chosen.extend(u for u, _ in companion_basis(v[:, 2 * lo:2 * hi], hi - lo,
                                                    _antidual))
    basis = np.array(chosen, dtype=complex).reshape(n, 2 * n).T
    vectors = QuatMatrix.from_complex_pair(basis[:n], -basis[n:].conj())
    return RightSpectrum(values, vectors, gaps)


def gram_product(z, tol=1e-10):
    """W = Z Z* for a skew-symmetric quaternion Z.

    Also forms -Z conj(Z) independently and insists the two agree
    entrywise; for a skew-symmetric Z they are the same matrix.  The
    result is Hermitian positive semidefinite.
    """
    if not isinstance(z, QuatMatrix):
        z = QuatMatrix(z)
    if not z.is_skew_symmetric(tol):
        raise ValueError("gram_product needs a skew-symmetric matrix")
    w = z @ z.conj_transpose()
    w_alt = -(z @ z.conj())
    if not w.allclose(w_alt, tol):
        raise ValueError("Z Z* and -Z conj(Z) disagree beyond tolerance; "
                         "input is too far from skew-symmetric")
    return w


def quat_inverse(a, tol=1e-10):
    """Inverse of a quaternion matrix through the complex adjoint.

    Raises SingularMatrixError (from the LU pivot test) when the matrix is
    not invertible, and ValueError if the inverse loses the adjoint block
    structure beyond tolerance.
    """
    if not isinstance(a, QuatMatrix):
        a = QuatMatrix(a)
    a._require_square("quat_inverse")
    return QuatMatrix.from_chi(lu_inverse(a.chi(), tol=tol), tol=1e-8)


def _lowest_and_floor(a):
    """Min right eigenvalue of A and the floor 1e-10 * max(1, ||A||_F)."""
    a = a if isinstance(a, QuatMatrix) else QuatMatrix(a)
    return (float(right_eigenvalues_hermitian(a).values.min()),
            1e-10 * max(1.0, a.norm()))


def is_positive_semidefinite(a):
    """Min right eigenvalue >= -1e-10 * max(1, ||A||_F)."""
    lowest, floor = _lowest_and_floor(a)
    return lowest >= -floor


def is_positive_definite(a):
    """Min right eigenvalue strictly above +1e-10 * max(1, ||A||_F)."""
    lowest, floor = _lowest_and_floor(a)
    return lowest > floor
