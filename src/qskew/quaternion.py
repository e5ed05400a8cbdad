"""Scalar quaternion arithmetic.

A quaternion is stored as four floats (w, x, y, z) meaning w + x i + y j + z k
with the usual multiplication rules i^2 = j^2 = k^2 = ijk = -1, ij = k,
jk = i, ki = j.
"""

import math
import numbers
import operator


class Quaternion:
    """Immutable quaternion with Hamilton-product arithmetic.

    Supports +, -, *, /, scalar mixing, conjugation and inversion.
    """

    __slots__ = ("w", "x", "y", "z")

    def __init__(self, w=0.0, x=0.0, y=0.0, z=0.0):
        object.__setattr__(self, "w", float(w))
        object.__setattr__(self, "x", float(x))
        object.__setattr__(self, "y", float(y))
        object.__setattr__(self, "z", float(z))

    def __setattr__(self, name, value):
        raise AttributeError("Quaternion is immutable")

    # -- construction helpers -------------------------------------------------

    @classmethod
    def coerce(cls, value):
        """Accept a Quaternion, a real number, or a length-4 iterable."""
        if isinstance(value, cls):
            return value
        if isinstance(value, numbers.Real):
            return cls(float(value))
        if isinstance(value, (str, bytes)):
            raise TypeError("cannot coerce %r to Quaternion" % (value,))
        seq = tuple(value)
        if len(seq) != 4:
            raise ValueError("expected 4 components, got %d" % len(seq))
        return cls(*seq)

    # -- representation --------------------------------------------------------

    def components(self):
        return (self.w, self.x, self.y, self.z)

    def __repr__(self):
        return "Quaternion(%g, %g, %g, %g)" % self.components()

    def __eq__(self, other):
        try:
            other = Quaternion.coerce(other)
        except (TypeError, ValueError):
            return NotImplemented
        return self.components() == other.components()

    def __hash__(self):
        return hash(self.components())

    # -- algebra ---------------------------------------------------------------

    def __add__(self, other):
        other = Quaternion.coerce(other)
        return Quaternion(self.w + other.w, self.x + other.x,
                          self.y + other.y, self.z + other.z)

    __radd__ = __add__

    def __neg__(self):
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __sub__(self, other):
        return self + (-Quaternion.coerce(other))

    def __rsub__(self, other):
        return Quaternion.coerce(other) + (-self)

    def __mul__(self, other):
        other = Quaternion.coerce(other)
        return Quaternion(*_hamilton(self.components(), other.components(),
                                     operator.mul))

    def __rmul__(self, other):
        return Quaternion.coerce(other) * self

    def __truediv__(self, other):
        return self * Quaternion.coerce(other).inverse()

    def __rtruediv__(self, other):
        return Quaternion.coerce(other) * self.inverse()

    def conjugate(self):
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def norm_sq(self):
        """w^2 + x^2 + y^2 + z^2, each square a product (inf once one
        overflows)."""
        return _sum_of_squares(self.components())

    def _unit_scaled(self):
        """(the components of q 2^-e, e), exact, with e the binary exponent
        of the largest component (0 for the zero quaternion)."""
        comps = self.components()
        e = math.frexp(max(map(abs, comps)))[1]
        return [math.ldexp(c, -e) for c in comps], e

    def __abs__(self):
        """|q| from q scaled exactly by a power of two (_unit_scaled), so it
        is exact across the float range (inf only where |q| overflows)."""
        unit, e = self._unit_scaled()
        return _times_pow2(math.sqrt(_sum_of_squares(unit)), e)

    def inverse(self):
        """conj(q) / |q|^2, from q scaled exactly by a power of two
        (_unit_scaled); ZeroDivisionError for the zero quaternion."""
        unit, e = self._unit_scaled()
        n2 = _sum_of_squares(unit)
        if n2 == 0.0:
            raise ZeroDivisionError("zero quaternion has no inverse")
        return Quaternion(*[_times_pow2(c / n2, -e) for c in unit]).conjugate()

    # -- structure -------------------------------------------------------------

    def real(self):
        return self.w


def _hamilton(p, q, mul):
    """The Hamilton product of p = (w, x, y, z) and q from the sixteen
    products mul of their components: of floats, or of component matrices."""
    w1, x1, y1, z1 = p
    w2, x2, y2, z2 = q
    return (mul(w1, w2) - mul(x1, x2) - mul(y1, y2) - mul(z1, z2),
            mul(w1, x2) + mul(x1, w2) + mul(y1, z2) - mul(z1, y2),
            mul(w1, y2) - mul(x1, z2) + mul(y1, w2) + mul(z1, x2),
            mul(w1, z2) + mul(x1, y2) - mul(y1, x2) + mul(z1, w2))


def _sum_of_squares(comps):
    w, x, y, z = comps
    return w * w + x * x + y * y + z * z


def _times_pow2(x, e):
    """x 2^e, exact unless it leaves the float range; inf where
    math.ldexp would raise OverflowError, as a float product gives."""
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.copysign(math.inf, x)


ZERO = Quaternion(0, 0, 0, 0)
ONE = Quaternion(1, 0, 0, 0)
I = Quaternion(0, 1, 0, 0)
J = Quaternion(0, 0, 1, 0)
K = Quaternion(0, 0, 0, 1)
