"""Reading and writing the JSON matrix file formats.

Two schemas share one loader:

* quaternion: {"rows": m, "cols": n, "entries": [[w,x,y,z], ...]}
* complex:    {"rows": m, "cols": n, "entries_c": [[re,im], ...]}

Entries are row-major.  All parse problems raise MatrixFormatError with
the offending entry index in the message.
"""

import json
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
    try:
        m = int(data["rows"])
        n = int(data["cols"])
    except (KeyError, TypeError, ValueError) as exc:
        raise MatrixFormatError('"rows" and "cols" must be integers') from exc
    if m <= 0 or n <= 0:
        raise MatrixFormatError("rows and cols must be positive")

    key = "entries" if has_q else "entries_c"
    width = 4 if has_q else 2
    entries = data[key]
    if not isinstance(entries, list) or len(entries) != m * n:
        raise MatrixFormatError(
            "expected %d %s, got %d" % (m * n, key, len(entries)
                                        if isinstance(entries, list) else -1))
    for idx, entry in enumerate(entries):
        if not isinstance(entry, list) or len(entry) != width:
            raise MatrixFormatError(
                "entry %d: expected %d numbers" % (idx, width))
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
