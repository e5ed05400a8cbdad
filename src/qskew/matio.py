"""Reading and writing the JSON matrix file formats.

Two schemas share one loader:

* quaternion: {"rows": m, "cols": n, "entries": [[w,x,y,z], ...]}
* complex:    {"rows": m, "cols": n, "entries_c": [[re,im], ...]}

Entries are row-major.  All parse problems raise MatrixFormatError with
the offending entry index in the message.  A bitwise skew Z or Hermitian
W is written from its upper triangle (_mirror_json), as json.dumps would.
"""

import functools
import json
import numbers
import sys

import numpy as np

from .qmatrix import QuatMatrix


class MatrixFormatError(ValueError):
    """Input file or dictionary does not match the matrix schemas."""


def load_matrix(path):
    """Load a matrix file; returns QuatMatrix or a complex ndarray by schema."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise MatrixFormatError("cannot read %s: %s" % (path, exc)) from exc
    except json.JSONDecodeError as exc:
        raise MatrixFormatError("%s is not valid JSON: %s" % (path, exc)) from exc
    return matrix_from_dict(data)


def matrix_from_dict(data):
    if not isinstance(data, dict):
        raise MatrixFormatError("top level must be a JSON object")
    has_q = "entries" in data
    has_c = "entries_c" in data
    if has_q == has_c:
        raise MatrixFormatError(
            'need exactly one of "entries" (quaternion) or "entries_c" (complex)')
    dims = data.get("rows"), data.get("cols")
    # integers only, and not bool: a float (1e400 parses to inf), a string
    # or true is refused, not converted
    if not all(isinstance(v, numbers.Integral) and not isinstance(v, bool) for v in dims):
        raise MatrixFormatError('"rows" and "cols" must be integers')
    m, n = map(int, dims)
    if m <= 0 or n <= 0:
        raise MatrixFormatError("rows and cols must be positive")

    key = "entries" if has_q else "entries_c"
    width = 4 if has_q else 2
    entries = data[key]
    if not isinstance(entries, list) or len(entries) != m * n:
        raise MatrixFormatError(
            "expected %d %s, got %d" % (m * n, key, len(entries)
                                        if isinstance(entries, list) else -1))
    # one pass over types and lengths; the walk only names the first bad entry
    if not (set(map(type, entries)) == {list} and set(map(len, entries)) == {width}
            and {type(v) for entry in entries for v in entry} <= {int, float}):
        for idx, entry in enumerate(entries):
            if not isinstance(entry, list) or len(entry) != width:
                raise MatrixFormatError("entry %d: expected %d numbers" % (idx, width))
            for pos, value in enumerate(entry):
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise MatrixFormatError(
                        "entry %d: component %d is not a number" % (idx, pos))
    try:
        flat = np.array(entries, dtype=float)
    except OverflowError:  # an integer beyond the float range
        big = next((idx, pos) for idx, entry in enumerate(entries)
                   for pos, value in enumerate(entry) if abs(value) > sys.float_info.max)
        raise MatrixFormatError(
            "entry %d: component %d is beyond the float range" % big) from None
    bad = np.argwhere(~np.isfinite(flat))
    if bad.size:
        raise MatrixFormatError(
            "entry %d: component %d is not finite" % tuple(bad[0]))
    if has_q:
        return QuatMatrix(flat.reshape(m, n, 4))
    return (flat[:, 0] + 1j * flat[:, 1]).reshape(m, n)


def quat_matrix_to_dict(a):
    m, n = a.shape
    return {"rows": m, "cols": n, "entries": a.data.reshape(m * n, 4).tolist()}


# the components whose sign a mirrored entry flips: all four in a skew Z
# (Z^T = -Z), the imaginary three in a Hermitian W (W* = W)
SKEW, HERMITIAN = (0, 1, 2, 3), (1, 2, 3)


@functools.cache
def _mirror_layout(n, flips, nested):
    """The pieces of an n x n text (the separators before a float, unsigned
    then ending in "-", the closing brackets and the diagonal's flipped
    "0.0"), and two read-only index arrays over a flat (n, n, 4) slice: the
    floats formatted (the upper triangle's and the diagonal's unflipped
    components), and the text as indices into the pool [*pieces, texts of
    the formatted floats' magnitudes], each float's separator unsigned."""
    depth = 2 + nested  # the brackets that open and close the text
    pieces = (", ", "], [", "]], [[", "[" * depth)  # 0-3, before a float
    pieces += tuple(p + "-" for p in pieces)  # 4-7, before a negative one
    pieces += ("]" * depth, "0.0")  # 8 and 9
    index = np.int16 if 4 * n * n + len(pieces) < 2 ** 15 else np.int32
    i, j, c = np.indices((n, n, 4), dtype=index).reshape(3, -1)
    zero = (i == j) & np.isin(c, flips)
    formatted = (i <= j) & ~zero
    at = np.cumsum(formatted, dtype=index) + (len(pieces) - 1)  # index in the pool
    order = np.full(8 * n * n + 1, 8, dtype=index)  # the closing piece last
    order[1::2] = np.where(zero, 9, np.where(i > j, at[(j * n + i) * 4 + c], at))
    # the piece before each float: ", " in an entry, else "]], [[" before a
    # nested row and "], [" before an entry; the opening one first
    order[0:-1:2] = np.where(c > 0, 0, np.where(nested & (j == 0), 2, 1))
    order[0] = 3
    take = np.flatnonzero(formatted).astype(index)
    take.setflags(write=False)
    order.setflags(write=False)
    return pieces, take, order


def _mirror_json(data, flips, nested):
    """The texts of a (B, n, n, 4) stack, json.dumps of each slice's
    tolist(), nested, or of its list of entries, byte for byte.  Raises
    ValueError, with no text, unless every lower entry is bitwise its mirror
    with the signs of the components in flips toggled, the diagonal's are
    +0.0 and every float is finite.  The magnitude of each upper float is
    formatted once, and every float, upper or lower, takes that text after
    a separator that ends in "-" where its own sign bit is set, as
    repr(x) == "-" + repr(-x) for every finite x with that bit (-0.0
    included)."""
    b, n = data.shape[:2]
    pieces, take, order = _mirror_layout(n, flips, nested)
    # each component's bits xor its mirror's: the sign bit where flipped,
    # else 0; on the diagonal, flipped components are +0.0, all bits clear
    sign = np.array([-2 ** 63 if c in flips else 0 for c in range(4)], dtype=np.int64)
    bits = data.view(np.int64)
    mirrored = ((bits ^ bits.swapaxes(1, 2)) == sign).reshape(b, n * n, 4)
    mirrored[:, ::n + 1] = (bits.reshape(b, n * n, 4)[:, ::n + 1] & (sign >> 63)) == 0
    if not (mirrored.all() and np.isfinite(data).all()):
        raise ValueError("a matrix to write is not finite and bitwise %s"
                         % ("skew-symmetric" if flips == SKEW else "Hermitian"))
    at = np.tile(order, (b, 1))
    at[:, :-1:2] += (bits.reshape(b, -1) < 0) * 4  # a negative float's separator
    # a slice at a time, so that only one slice's texts are held at once
    texts = (np.array([*pieces, *map(float.__repr__, m.tolist())], dtype=object)[a]
             for m, a in zip(np.abs(data.reshape(b, -1)[:, take]), at))
    return ["".join(t.tolist()) for t in texts]


def _hermitian_json(w):
    """The text of json.dumps(quat_matrix_to_dict(w), sort_keys=True) for a
    bitwise Hermitian W (gram_product's), as three pieces: the text before
    "entries"' value, that value by _mirror_json, and the text after it."""
    n = w.nrows
    [entries] = _mirror_json(w.data[None], HERMITIAN, False)
    return '{"cols": %d, "entries": ' % n, entries, ', "rows": %d}' % n


def complex_matrix_to_dict(z):
    z = np.asarray(z, dtype=complex)
    m, n = z.shape
    return {"rows": m, "cols": n,
            "entries_c": np.stack([z.real, z.imag], axis=-1)
                           .reshape(m * n, 2).tolist()}


def save_matrix(path, value):
    """Write a QuatMatrix or complex ndarray in its schema."""
    if isinstance(value, QuatMatrix):
        data = quat_matrix_to_dict(value)
    else:
        data = complex_matrix_to_dict(value)
    with open(path, "w") as fh:
        json.dump(data, fh)
        fh.write("\n")
