"""Dual quaternion matrices and their Hermitian characterization.

A dual quaternion is q_st + q_I * eps with quaternion parts and eps^2 = 0.
The conjugate used here keeps the printed convention of the source
material: the standard part is quaternion-conjugated, the infinitesimal
part is only negated.  Under that convention a dual quaternion matrix
equals its own conjugate transpose exactly when its standard part is
Hermitian and its infinitesimal part is skew-symmetric, and the module
keeps both sides of that equivalence independently computable.  Like a
QuatMatrix, a DualQuatMatrix may hold a stack of same-size matrices, and
both tests then give one verdict per slice, each that of its own call.
"""

import numpy as np

from .qmatrix import QuatMatrix


# component signs of the dual conjugate, (std, inf) x (w, x, y, z):
# conjugate the standard part, negate the infinitesimal part
_DUAL_CONJ_SIGNS = np.array([[1.0, -1.0, -1.0, -1.0],
                             [-1.0, -1.0, -1.0, -1.0]])


class DualQuatMatrix:
    """Square or rectangular matrix of dual quaternions, or a stack of
    them, stored as two parts of the same shape."""

    __slots__ = ("std", "inf")

    def __init__(self, std, inf=None):
        std = QuatMatrix.coerce(std)
        inf = QuatMatrix(np.zeros_like(std.data)) if inf is None else QuatMatrix.coerce(inf)
        if std.data.shape != inf.data.shape:
            raise ValueError("part shapes disagree: %r vs %r"
                             % (std.data.shape[:-1], inf.data.shape[:-1]))
        object.__setattr__(self, "std", std)
        object.__setattr__(self, "inf", inf)

    def __setattr__(self, name, value):
        raise AttributeError("DualQuatMatrix is immutable")

    @property
    def shape(self):
        """(m, n), the shape of each matrix of a stack."""
        return self.std.shape

    def conj_transpose(self):
        """Entrywise dual conjugate, then transpose.

        Works on the stacked (std, inf) component array directly, without
        the QuatMatrix transposes, so the direct Hermitian route compares
        A* with A itself, independently of the split route's predicates.
        """
        parts = np.stack([self.std.data, self.inf.data], axis=-2) * _DUAL_CONJ_SIGNS
        parts = parts.swapaxes(-4, -3)
        return DualQuatMatrix(parts[..., 0, :], parts[..., 1, :])


def dq_hermitian_direct(a):
    """A* = A tested on the dual-quaternion entries themselves: each part of
    A* allclose to that part of A at 1e-10 (_within).  A residual beyond the
    float range is inf, so its part is not within."""
    m, n = a.shape
    if m != n:
        raise ValueError("hermitian test needs a square matrix")
    star = a.conj_transpose()
    return star.std.allclose(a.std, 1e-10) & star.inf.allclose(a.inf, 1e-10)


def dq_hermitian_split(a):
    """The part-structure test: standard part Hermitian, infinitesimal skew."""
    return a.std.is_hermitian() & a.inf.is_skew_symmetric()


def is_dq_hermitian(a):
    """Hermitian predicate with the two routes cross-checked against each other."""
    direct = dq_hermitian_direct(a)
    split = dq_hermitian_split(a)
    if np.any(direct != split):
        raise RuntimeError("hermitian characterization routes disagree; "
                           "direct=%r split=%r" % (direct, split))
    return direct
