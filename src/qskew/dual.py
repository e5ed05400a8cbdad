"""Dual quaternions and the Hermitian characterization of their matrices.

A dual quaternion is q_st + q_I * eps with quaternion parts and eps^2 = 0.
The conjugate used here keeps the printed convention of the source
material: the standard part is quaternion-conjugated, the infinitesimal
part is only negated.  Under that convention a dual quaternion matrix
equals its own conjugate transpose exactly when its standard part is
Hermitian and its infinitesimal part is skew-symmetric, and the module
keeps both sides of that equivalence independently computable.
"""

from dataclasses import dataclass

import numpy as np

from .qmatrix import QuatMatrix
from .quaternion import Quaternion


@dataclass(frozen=True)
class DualQuaternion:
    std: Quaternion = Quaternion()
    inf: Quaternion = Quaternion()

    def __post_init__(self):
        object.__setattr__(self, "std", Quaternion.coerce(self.std))
        object.__setattr__(self, "inf", Quaternion.coerce(self.inf))

    def __add__(self, other):
        other = _coerce_dq(other)
        return DualQuaternion(self.std + other.std, self.inf + other.inf)

    __radd__ = __add__

    def __neg__(self):
        return DualQuaternion(-self.std, -self.inf)

    def __sub__(self, other):
        return self + (-_coerce_dq(other))

    def __mul__(self, other):
        other = _coerce_dq(other)
        return DualQuaternion(self.std * other.std,
                              self.std * other.inf + self.inf * other.std)

    def __rmul__(self, other):
        return _coerce_dq(other) * self

    def conjugate(self):
        """Conjugate per the printed convention: (conj q_st) - q_I eps."""
        return DualQuaternion(self.std.conjugate(), -self.inf)


def _coerce_dq(value):
    if isinstance(value, DualQuaternion):
        return value
    return DualQuaternion(Quaternion.coerce(value))


EPS = DualQuaternion(Quaternion(), Quaternion(1))

# component signs of the dual conjugate, (std, inf) x (w, x, y, z):
# conjugate the standard part, negate the infinitesimal part
_DUAL_CONJ_SIGNS = np.array([[1.0, -1.0, -1.0, -1.0],
                             [-1.0, -1.0, -1.0, -1.0]])[:, None, None, :]


class DualQuatMatrix:
    """Square or rectangular matrix of dual quaternions, stored as two parts."""

    __slots__ = ("std", "inf")

    def __init__(self, std, inf=None):
        if not isinstance(std, QuatMatrix):
            std = QuatMatrix(std)
        if inf is None:
            inf = QuatMatrix.zeros(*std.shape)
        elif not isinstance(inf, QuatMatrix):
            inf = QuatMatrix(inf)
        if std.shape != inf.shape:
            raise ValueError("part shapes disagree: %r vs %r"
                             % (std.shape, inf.shape))
        object.__setattr__(self, "std", std)
        object.__setattr__(self, "inf", inf)

    def __setattr__(self, name, value):
        raise AttributeError("DualQuatMatrix is immutable")

    @property
    def shape(self):
        return self.std.shape

    def entry(self, i, j):
        return DualQuaternion(self.std.entry(i, j), self.inf.entry(i, j))

    def conj_transpose(self):
        """Entrywise dual conjugate, then transpose.

        Works on the stacked (std, inf) component array directly, without
        the QuatMatrix transposes and predicates, so the direct Hermitian
        route stays independent of the split one.
        """
        parts = np.stack([self.std.data, self.inf.data]) * _DUAL_CONJ_SIGNS
        std, inf = np.transpose(parts, (0, 2, 1, 3))
        return DualQuatMatrix(std, inf)

    def __sub__(self, other):
        return DualQuatMatrix(self.std - other.std, self.inf - other.inf)

    def to_dict(self):
        """Row-major entries, each [std (w, x, y, z), inf (w, x, y, z)]."""
        m, n = self.shape
        parts = np.stack([self.std.data, self.inf.data], axis=2)
        return {"rows": m, "cols": n,
                "entries_dq": parts.reshape(m * n, 2, 4).tolist()}

    @classmethod
    def from_dict(cls, data):
        m, n = int(data["rows"]), int(data["cols"])
        entries = data["entries_dq"]
        if len(entries) != m * n:
            raise ValueError("expected %d dual entries, got %d"
                             % (m * n, len(entries)))
        parts = np.array(entries, dtype=float).reshape(m, n, 2, 4)
        return cls(parts[:, :, 0], parts[:, :, 1])


def dq_hermitian_direct(a):
    """A* = A tested on the dual-quaternion entries themselves: each part of
    A* - A within 1e-10 times the largest entry of that part of A."""
    m, n = a.shape
    if m != n:
        raise ValueError("hermitian test needs a square matrix")
    diff = a.conj_transpose() - a
    return (diff.std.max_abs() <= 1e-10 * a.std.max_abs()
            and diff.inf.max_abs() <= 1e-10 * a.inf.max_abs())


def dq_hermitian_split(a):
    """The part-structure test: standard part Hermitian, infinitesimal skew."""
    return a.std.is_hermitian() and a.inf.is_skew_symmetric()


def is_dq_hermitian(a):
    """Hermitian predicate with the two routes cross-checked against each other."""
    direct = dq_hermitian_direct(a)
    split = dq_hermitian_split(a)
    if direct != split:
        raise RuntimeError("hermitian characterization routes disagree; "
                           "direct=%r split=%r" % (direct, split))
    return direct
