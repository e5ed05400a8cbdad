"""Finite input never warns.

Every public function of qskew and every CLI command is called on
matrices whose finite entries come from the whole float range: the largest
float, 2^1023, the smallest subnormal 2^-1074, the smallest normal, and
mixed scales within one matrix, raw and made skew or Hermitian.  Under
warnings as errors (pyproject.toml) each call returns, or raises
ValueError (a subclass included) or ConvergenceError, and each command
exits 0, 2 or 3 without a traceback.  verify-paper reads no input; the
CLI tests run it under the same filters.
"""

import contextlib
import inspect
import io
import pathlib
import tempfile

import numpy as np
from hypothesis import given, settings, strategies as st

import qskew
from qskew import ConvergenceError, DualQuatMatrix, QuatMatrix, Quaternion, SkewTriple
from qskew.cli import main

MAX = np.finfo(float).max
EXTREMES = [0.0, 1.0, MAX, 2.0 ** 1023, 1.5e308, 1e300, 1e-300, 2.0 ** -1022, 2.0 ** -1074]
ENTRIES = st.one_of(st.sampled_from(EXTREMES + [-x for x in EXTREMES]),
                    st.floats(allow_nan=False, allow_infinity=False))
CONJ_SIGNS = np.array([1.0, -1.0, -1.0, -1.0])


def skew(raw):
    """The upper triangle of raw, its negative mirrored below, a zero
    diagonal."""
    z = np.zeros_like(raw)
    upper = np.triu_indices(len(raw), 1)
    z[upper] = raw[upper]
    z[upper[::-1]] = -raw[upper]
    return z


def hermitian(raw):
    """The upper triangle of raw, its conjugate mirrored below, the real
    parts of raw's diagonal."""
    w = np.zeros_like(raw)
    upper = np.triu_indices(len(raw), 1)
    w[upper] = raw[upper]
    w[upper[::-1]] = raw[upper] * CONJ_SIGNS
    diagonal = np.arange(len(raw))
    w[diagonal, diagonal, 0] = raw[diagonal, diagonal, 0]
    return w


def complex_of(q):
    return q[..., 0] + 1j * q[..., 1]


def library_calls(raw, value):
    """A call of every public function of qskew, and of the checks and
    measures of a matrix and a scalar, on the (n, n, 4) entries raw and the
    number value.  Products (QuatMatrix.gram, @) are left out: like numpy's,
    they overflow where their result lies beyond the float range."""
    z, w = skew(raw), hermitian(raw)
    zc, wc = complex_of(z), complex_of(w)
    triple = np.resize(raw.ravel(), 12).reshape(3, 4)
    z3 = SkewTriple(*map(tuple, triple)).matrix()
    values = np.sort(raw.ravel())
    rng = np.random.default_rng(0)
    return {
        "herm_eig": lambda: (qskew.herm_eig(wc), qskew.herm_eig(QuatMatrix(w).chi()[:len(w)])),
        "lu_inverse": lambda: qskew.lu_inverse(complex_of(raw)),
        "mgs_orthonormalize": lambda: qskew.mgs_orthonormalize(list(complex_of(raw))),
        "even_clusters": lambda: qskew.even_clusters(values),
        "positive_clusters": lambda: qskew.positive_clusters(values),
        "dq_hermitian_direct": lambda: qskew.dq_hermitian_direct(DualQuatMatrix(w, z)),
        "dq_hermitian_split": lambda: qskew.dq_hermitian_split(DualQuatMatrix(w, z)),
        "is_dq_hermitian": lambda: (qskew.is_dq_hermitian(DualQuatMatrix(w, z)),
                                    qskew.is_dq_hermitian(DualQuatMatrix(raw, raw))),
        "even_multiplicity_check": lambda: qskew.even_multiplicity_check(zc),
        "hua_decompose": lambda: qskew.hua_decompose(zc),
        "complex_matrix_to_dict": lambda: qskew.complex_matrix_to_dict(complex_of(raw)),
        "quat_matrix_to_dict": lambda: qskew.quat_matrix_to_dict(QuatMatrix(raw)),
        "matrix_from_dict": lambda: qskew.matrix_from_dict(
            qskew.quat_matrix_to_dict(QuatMatrix(raw))),
        "save_matrix": lambda: round_trip(QuatMatrix(raw)),
        "load_matrix": lambda: round_trip(complex_of(raw)),
        "random_skew_symmetric": lambda: qskew.random_skew_symmetric(3, 1, scale=value),
        "basic_candidate_search": lambda: (
            qskew.basic_candidate_search(4, 3, 1, scale=value),
            qskew.basic_candidate_search(4, 3, 1, gap_tol=value)),
        "classify_3x3": lambda: qskew.classify_3x3(SkewTriple(*map(tuple, triple))),
        "is_solid": lambda: (qskew.is_solid(z), qskew.is_solid(z3)),
        "inverse_skew_report": lambda: qskew.inverse_skew_report(z),
        "quaternion_even_multiplicity_check": lambda: qskew.quaternion_even_multiplicity_check(z),
        "verify_classification": lambda: qskew.verify_classification([triple, triple]),
        "sample_degenerate_triple": lambda: qskew.sample_degenerate_triple(rng),
        "sample_generic_triple": lambda: qskew.sample_generic_triple(rng),
        "trial_seed": lambda: qskew.trial_seed(int(value) if abs(value) < 2 ** 63 else 0, 1),
        "reference_4x4": qskew.reference_4x4,
        "reference_4x4_variant": qskew.reference_4x4_variant,
        "gram_product": lambda: qskew.gram_product(z),
        "gram_spectrum": lambda: qskew.gram_spectrum(z),
        "is_positive_definite": lambda: qskew.is_positive_definite(w),
        "is_positive_semidefinite": lambda: qskew.is_positive_semidefinite(w),
        "right_eigenvalues_hermitian": lambda: qskew.right_eigenvalues_hermitian(w),
        "quat_inverse": lambda: qskew.quat_inverse(raw),
        "QuatMatrix": lambda: [
            (m.is_hermitian(), m.is_skew_symmetric(), m.allclose(z), m.max_abs(), m.norm(),
             QuatMatrix.from_chi(m.chi())) for m in map(QuatMatrix, (raw, z, w))],
        "Quaternion": lambda: [(abs(q), q.norm_sq(), any(c) and q.inverse())
                               for q, c in ((Quaternion(*c), c) for c in triple)],
    }


def round_trip(value):
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "m.json"
        qskew.save_matrix(path, value)
        return qskew.load_matrix(path)


def run_cli(argv):
    """main(argv) in this process: its exit code and stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, err.getvalue()


def test_every_public_function_is_called():
    public = {name for name, obj in vars(qskew).items()
              if inspect.isfunction(obj) and not name.startswith("_")}
    assert public <= set(library_calls(np.zeros((2, 2, 4)), 1.0))


@given(st.integers(min_value=1, max_value=4).flatmap(
           lambda n: st.lists(ENTRIES, min_size=4 * n * n, max_size=4 * n * n)),
       ENTRIES)
@settings(max_examples=60, deadline=None)
def test_finite_input_returns_or_raises_a_value_error(flat, value):
    n = round((len(flat) / 4) ** 0.5)
    raw = np.array(flat).reshape(n, n, 4)
    for name, call in library_calls(raw, value).items():
        try:
            call()
        except (ValueError, ConvergenceError):
            pass
        except Exception as exc:
            raise AssertionError(name) from exc
    with tempfile.TemporaryDirectory() as tmp:
        quat, cplx = pathlib.Path(tmp) / "q.json", pathlib.Path(tmp) / "c.json"
        qskew.save_matrix(quat, QuatMatrix(skew(raw)))
        qskew.save_matrix(cplx, complex_of(skew(raw)))
        for argv in (["spectrum", str(quat)], ["spectrum", str(quat), "--json"],
                     ["inverse-check", str(quat)], ["inverse-check", str(quat), "--json"],
                     ["hua", str(cplx)], ["hua", str(cplx), "--json"],
                     ["search-basic", "--trials", "3", "--scale", repr(value)],
                     ["search-basic", "--trials", "3", "--gap-tol", repr(value)]):
            code, err = run_cli(argv)
            assert code in (0, 2, 3) and "Traceback" not in err, (argv, code, err)
