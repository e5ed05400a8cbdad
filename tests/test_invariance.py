"""Invariance under the maps that keep a quaternion matrix skew-symmetric.

Q Z Q^T with Q real orthogonal (permutations included), qZ and Zq with q a
unit quaternion, and q Z q-bar taken entry by entry all map a skew Z to a
skew matrix whose W = Z Z* is Q W Q^T, q W q-bar or W itself, so the right
spectrum does not change, and neither do the verdicts read off it or off
the inverse: is_solid, the inverse-check verdict and the search hit test.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from qskew import (Quaternion, QuatMatrix, gram_product, inverse_skew_report,
                   is_solid, random_skew_symmetric, right_eigenvalues_hermitian,
                   sample_degenerate_triple, sample_generic_triple)
from qskew.cli import GENERAL_TOL
from qskew.skew import _candidate

GAP_TOL = 1e-3  # search-basic's default --gap-tol


def skew_matrix(kind, rng):
    """A solid or degenerate 3x3, or a random skew matrix of size 2 to 6."""
    if kind == "solid":
        return sample_generic_triple(rng).matrix()
    if kind == "degenerate":
        return sample_degenerate_triple(rng).matrix()
    return random_skew_symmetric(int(rng.integers(2, 7)), int(rng.integers(2 ** 32)))


def moved(z, how, rng):
    """z under one of the maps, with a random orthogonal Q or unit q."""
    n = z.nrows
    if how in ("orthogonal", "permutation"):
        q = (np.linalg.qr(rng.normal(size=(n, n)))[0] if how == "orthogonal"
             else np.eye(n)[rng.permutation(n)])
        return QuatMatrix(q) @ z @ QuatMatrix(q.T)
    v = rng.normal(size=4)
    q = Quaternion(*(v / np.sqrt((v ** 2).sum())))
    if how == "left":
        return z.left_mul(q)
    if how == "right":
        return z.right_mul(q)
    return z.left_mul(q).right_mul(q.conjugate())


def inverse_verdict(z):
    """What inverse-check prints: invertible, and whether the inverse stays
    skew-symmetric within the default tolerance."""
    report = inverse_skew_report(z, GENERAL_TOL)
    if not report.invertible:
        return False, None
    return True, bool(report.skew_deviation / report.inverse.norm() <= GENERAL_TOL)


@given(st.sampled_from(["solid", "degenerate", "random"]),
       st.sampled_from(["orthogonal", "permutation", "left", "right", "conjugation"]),
       st.integers(min_value=0, max_value=10**6))
@settings(max_examples=80, deadline=None)
def test_spectra_and_verdicts_are_invariant(kind, how, seed):
    rng = np.random.default_rng(seed)
    z = skew_matrix(kind, rng)
    z2 = moved(z, how, rng)
    assert z2.is_skew_symmetric()
    values = right_eigenvalues_hermitian(gram_product(z)).values
    values2 = right_eigenvalues_hermitian(gram_product(z2)).values
    np.testing.assert_allclose(values2, values, rtol=0, atol=1e-12 * values.max())
    assert is_solid(z2) == is_solid(z)
    assert inverse_verdict(z2) == inverse_verdict(z)
    hit, _, _ = _candidate(values[None], GAP_TOL)
    hit2, _, _ = _candidate(values2[None], GAP_TOL)
    assert hit2.tolist() == hit.tolist()
