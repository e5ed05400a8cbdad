"""Reading and writing the JSON matrix file formats.

Two schemas share one loader:

* quaternion: {"rows": m, "cols": n, "entries": [[w,x,y,z], ...]}
* complex:    {"rows": m, "cols": n, "entries_c": [[re,im], ...]}

Entries are row-major.  All parse problems raise MatrixFormatError with
the offending entry index in the message.  A bitwise Hermitian W is
written from its upper triangle (_hermitian_json), as json.dumps would.
"""

import json
import numbers
import sys

import numpy as np

from .qmatrix import QuatMatrix, _strict_lower

# the sign bits that conjugate a quaternion (w, x, y, z) seen as int64
_CONJ_BITS = np.array([0, -2 ** 63, -2 ** 63, -2 ** 63], dtype=np.int64)


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


def _hermitian_json(w):
    """The text of json.dumps(quat_matrix_to_dict(w), sort_keys=True) for a
    bitwise Hermitian W (gram_product's), byte for byte, as an iterator of
    pieces, one per row.  Each float of the upper triangle, diagonal
    included, is formatted once, in its own row; a lower entry
    (w0, -w1, -w2, -w3) takes the text of its mirror's w0 and of the other
    three with the leading "-" flipped, as cli._hit_lines does for a skew Z.
    Raises ValueError, before any piece, unless every lower entry is
    bitwise the conjugate of its mirror."""
    n = w.nrows
    lower, upper = _strict_lower(n)
    bits = w.data.view(np.int64)
    if not np.array_equal(bits[lower, upper], bits[upper, lower] ^ _CONJ_BITS):
        raise ValueError("W is not a bitwise Hermitian matrix")
    row_template = ", ".join(["[{}, {}, {}, {}]"] * n)

    def pieces():
        yield '{"cols": %d, "entries": [' % n
        rows = []  # the texts of the upper part of each row so far
        for i in range(n):
            # entries (j, i), j < i, above the diagonal: row j's entry i - j
            mirror = [t for j, texts in enumerate(rows)
                      for t in texts[4 * (i - j):4 * (i - j + 1)]]
            left = [t[1:] if t[0] == "-" else "-" + t for t in mirror]
            left[0::4] = mirror[0::4]
            rows.append(list(map(float.__repr__, w.data[i, i:].ravel().tolist())))
            yield (", " if i else "") + row_template.format(*left, *rows[i])
        yield '], "rows": %d}' % n
    return pieces()


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
