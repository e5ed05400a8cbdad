"""Command line front end.

Subcommands:

* spectrum      skew check, Gram product, right eigenvalues, classification
* verify-paper  re-run the published reference values and report per row
* hua           canonical pair form of a complex skew-symmetric matrix
* search-basic  seeded random search for fully distinct positive spectra
* inverse-check invertibility and skew deviation of the inverse

Exit codes: 0 success, 2 input error, 3 mathematical contract violation.
spectrum, hua and inverse-check take a positive finite tolerance from --tol,
else QSKEW_TOL, else 1e-10 (1e-8 for hua), and apply it relative to the
input's magnitude; verify-paper uses fixed per-row relative bounds, and
search-basic its --gap-tol.
"""

import argparse
import json
import math
import os
import sys

import numpy as np

from .clinalg import ConvergenceError, SingularMatrixError
from .dual import DualQuatMatrix, dq_hermitian_direct, dq_hermitian_split
from .hua import even_multiplicity_check, hua_decompose
from .matio import MatrixFormatError, load_matrix, quat_matrix_to_dict
from .qmatrix import QuatMatrix, random_skew_symmetric
from .quaternion import Quaternion, I, J
from .skew import (SkewTriple, basic_candidate_search, inverse_skew_report,
                   reference_4x4, sample_degenerate_triple,
                   sample_generic_triple, trial_seed, verify_classification)
from .spectra import gram_product, right_eigenvalues_hermitian

GENERAL_TOL = 1e-10
HUA_TOL = 1e-8


def _resolve_tol(args, fallback):
    if args.tol is not None:
        if not 0 < args.tol < math.inf:
            raise MatrixFormatError("--tol must be positive and finite")
        return args.tol
    env = os.environ.get("QSKEW_TOL")
    if env:
        try:
            value = float(env)
        except ValueError:
            raise MatrixFormatError("QSKEW_TOL is not a number: %r" % env)
        if not 0 < value < math.inf:
            raise MatrixFormatError("QSKEW_TOL must be positive and finite")
        return value
    return fallback


def _fmt_quat(q):
    parts = []
    comps = zip(q.components(), ("", "i", "j", "k"))
    for value, mark in comps:
        r = round(value, 4)
        if r == 0:
            continue
        parts.append("%+g%s" % (r, mark))
    if not parts:
        return "0"
    text = "".join(parts)
    return text[1:] if text.startswith("+") else text


def _fmt_values(values):
    return ", ".join("%g" % round(float(v), 4) for v in values)


def _rng(seed):
    return np.random.Generator(np.random.Philox(key=seed))


def cmd_spectrum(args):
    mat = QuatMatrix.coerce(load_matrix(args.path))
    tol = _resolve_tol(args, GENERAL_TOL)
    if mat.nrows != mat.ncols:
        raise MatrixFormatError("spectrum needs a square matrix, got %dx%d"
                                % mat.shape)
    w = gram_product(mat, tol)
    spec = right_eigenvalues_hermitian(w, tol)
    solid = float(spec.values.min()) > tol * w.norm()

    classification = None
    if mat.nrows == 3:
        triple = SkewTriple(mat.entry(0, 1), mat.entry(1, 2), mat.entry(0, 2))
        if any(abs(q) > 0 for q in (triple.a, triple.b, triple.c)):
            report = verify_classification(triple)
            agrees = (report.case_label == "solid") == solid
            classification = (report, agrees)

    if args.json:
        out = {"skew_symmetric": True,
               "gram": quat_matrix_to_dict(w),
               "spectrum": spec.to_dict(),
               "solid": solid}
        if classification:
            out["classification"] = classification[0].to_dict()
            out["classification_agrees"] = classification[1]
        elif mat.nrows == 3:
            out["classification"] = None
        print(json.dumps(out, sort_keys=True))
        return 0

    print("skew-symmetric: yes")
    print("W = Z Z*:")
    for i in range(w.nrows):
        print("  " + "  ".join(_fmt_quat(w.entry(i, j))
                               for j in range(w.ncols)))
    print("right eigenvalues of W: %s" % _fmt_values(spec.values))
    print("largest pairing gap: %g" % float(spec.pairing_gaps.max(initial=0.0)))
    print("solid (W positive definite): %s" % ("yes" if solid else "no"))
    if mat.nrows == 3:
        if classification is None:
            print("3x3 classification: skipped (nonzero triple required)")
        else:
            report, agrees = classification
            line = "3x3 classification: %s" % report.case_label
            if report.case_label == "degenerate":
                line += ", predicted (%s), max deviation %.3g" % (
                    _fmt_values(report.predicted_values), report.max_deviation)
            print(line)
            print("classification agrees with spectrum: %s"
                  % ("yes" if agrees else "no"))
    return 0


def cmd_hua(args):
    mat = load_matrix(args.path)
    if isinstance(mat, QuatMatrix):
        raise MatrixFormatError(
            'hua needs a complex matrix file ("entries_c" schema)')
    tol = _resolve_tol(args, HUA_TOL)
    form = hua_decompose(mat, tol=tol)
    if args.json:
        print(json.dumps(form.to_dict(include_u=True), sort_keys=True))
        return 0
    print("sigmas: %s" % (_fmt_values(form.sigmas) if form.sigmas else "(none)"))
    print("zero block dimension: %d" % form.zero_dim)
    print("reconstruction residual: %.3e" % form.residual)
    print("unitarity residual: %.3e" % form.unitarity_residual)
    return 0


def cmd_inverse_check(args):
    mat = QuatMatrix.coerce(load_matrix(args.path))
    tol = _resolve_tol(args, GENERAL_TOL)
    report = inverse_skew_report(mat, tol)
    if args.json:
        print(json.dumps(report.to_dict(), sort_keys=True))
        return 0
    if not report.invertible:
        print("invertible: no")
        return 0
    rel = report.skew_deviation / report.inverse.norm()
    print("invertible: yes")
    print("skew deviation of inverse: %.6e (relative %.6e)"
          % (report.skew_deviation, rel))
    print("inverse stays skew-symmetric: %s"
          % ("yes" if rel <= tol else "no"))
    return 0


def cmd_search_basic(args):
    if args.n < 4:
        print("search needs --n >= 4; smaller sizes are settled",
              file=sys.stderr)
        return 2
    if args.trials < 0:
        print("--trials must be nonnegative", file=sys.stderr)
        return 2
    for flag, value in (("--scale", args.scale), ("--gap-tol", args.gap_tol),
                        ("--workers", args.workers)):
        if not 0 < value < math.inf:
            print("%s must be positive and finite" % flag, file=sys.stderr)
            return 2
    candidates = basic_candidate_search(args.n, args.trials, args.seed,
                                        scale=args.scale, gap_tol=args.gap_tol)
    for cand in candidates:
        print(json.dumps(cand.to_dict(), sort_keys=True))
    summary = {"trials": args.trials, "hits": len(candidates),
               "min_gap": min((c.min_relative_gap for c in candidates),
                              default=None),
               "max_gap": max((c.min_relative_gap for c in candidates),
                              default=None)}
    print(json.dumps(summary, sort_keys=True))
    return 0


def _row_two_by_two():
    worst = 0.0
    for t in range(25):
        z = random_skew_symmetric(2, trial_seed(11, t))
        a = z.entry(0, 1)
        values = right_eigenvalues_hermitian(gram_product(z)).values
        expect = a.norm_sq()
        worst = max(worst, float(np.abs(values - expect).max()) / expect)
    return worst <= 1e-10, "double value |a|^2, worst relative error %.2e" % worst


def _row_three_by_three():
    triple = SkewTriple(Quaternion(1), I + J, I + 2 * J)
    values = verify_classification(triple).computed_values
    published = (0.0635, 7.5726, 8.6789)
    corrected = (0.0635, 7.2576, 8.6789)
    ok = all(abs(v - e) <= 5e-4 for v, e in zip(values, corrected))
    trace_ok = abs(sum(values) - 16.0) <= 1e-9 * 16.0
    detail = ("computed (%s); published (%s) has its middle value misprinted: "
              "the values must sum to 16, the trace of W, which matches 7.2576"
              % (_fmt_values(values), _fmt_values(published)))
    return ok and trace_ok, detail


def _row_degenerate():
    rng = _rng(23)
    worst = 0.0
    for _ in range(50):
        report = verify_classification(sample_degenerate_triple(rng))
        s = max(report.predicted_values)
        worst = max(worst, report.max_deviation / s)
    return worst <= 1e-7, "50 degenerate triples, worst relative deviation %.2e" % worst


def _row_four_by_four():
    values = right_eigenvalues_hermitian(gram_product(reference_4x4())).values
    published = (131.4, 235.5, 1238.3, 1482.9)
    corrected = (141.3, 235.5, 1238.3, 1482.9)
    ok = all(abs(v - e) <= 0.05 for v, e in zip(values, corrected))
    trace_ok = abs(float(values.sum()) - 3098.0) <= 1e-9 * 3098.0
    detail = ("computed (%s); published (%s) has its first value misprinted: "
              "the values must sum to 3098, the squared Frobenius norm of Z, "
              "which matches 141.3" % (_fmt_values(values), _fmt_values(published)))
    return ok and trace_ok, detail


def _row_complex_even():
    rng = _rng(31)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        if not even_multiplicity_check(m - m.T):
            return False, "failed on a random complex skew matrix"
    return True, "100 random complex skew matrices, all multiplicities even"


def _row_hua():
    rng = _rng(37)
    worst_res = worst_uni = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 10))
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        z = m - m.T
        form = hua_decompose(z)
        worst_res = max(worst_res, form.residual / np.sqrt(np.vdot(z, z).real))
        worst_uni = max(worst_uni, form.unitarity_residual)
    ok = worst_res <= 1e-8 and worst_uni <= 1e-10
    return ok, ("20 random matrices, worst relative residual %.2e, "
                "worst unitarity %.2e" % (worst_res, worst_uni))


def _row_inverse():
    rng = _rng(41)
    worst2 = 0.0
    for t in range(20):
        z = random_skew_symmetric(2, trial_seed(43, t))
        rep = inverse_skew_report(z)
        worst2 = max(worst2, rep.skew_deviation / rep.inverse.norm())
    if worst2 > 1e-12:
        return False, "2x2 inverse skew deviation %.2e too large" % worst2
    floor3 = np.inf
    for _ in range(20):
        rep = inverse_skew_report(sample_generic_triple(rng).matrix())
        floor3 = min(floor3, rep.skew_deviation / rep.inverse.norm())
    if floor3 < 1e-6:
        return False, "3x3 solid inverse skew deviation %.2e too small" % floor3
    for _ in range(5):
        rep = inverse_skew_report(sample_degenerate_triple(rng).matrix())
        if rep.invertible:
            return False, "degenerate 3x3 came back invertible"
    return True, ("2x2 worst relative deviation %.2e; 3x3 solid floor %.2e; "
                  "degenerate all singular" % (worst2, floor3))


def _row_dual():
    rng = _rng(47)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        if rng.uniform() < 0.5:
            std = QuatMatrix(rng.uniform(-1, 1, (n, n, 4)))
            inf = QuatMatrix(rng.uniform(-1, 1, (n, n, 4)))
        else:
            s = QuatMatrix(rng.uniform(-1, 1, (n, n, 4)))
            k = QuatMatrix(rng.uniform(-1, 1, (n, n, 4)))
            std = s + s.conj_transpose()
            inf = k - k.transpose()
        a = DualQuatMatrix(std, inf)
        if dq_hermitian_direct(a) != dq_hermitian_split(a):
            return False, "the two hermitian tests disagreed"
    return True, "100 random dual matrices, both hermitian tests always agree"


def cmd_verify_paper(args):
    rows = [
        ("2x2 double eigenvalue", _row_two_by_two),
        ("3x3 noncommuting reference spectrum", _row_three_by_three),
        ("3x3 degenerate spectrum formula", _row_degenerate),
        ("4x4 integer reference spectrum", _row_four_by_four),
        ("complex even multiplicity", _row_complex_even),
        ("canonical pair form", _row_hua),
        ("inverse skew contrast", _row_inverse),
        ("dual hermitian characterization", _row_dual),
    ]
    results = []
    for name, fn in rows:
        ok, detail = fn()
        results.append({"name": name, "pass": bool(ok), "detail": detail})
    if args.json:
        print(json.dumps({"rows": results,
                          "all_pass": all(r["pass"] for r in results)},
                         sort_keys=True))
    else:
        for r in results:
            print("[%s] %s: %s" % ("PASS" if r["pass"] else "FAIL",
                                   r["name"], r["detail"]))
    return 0 if all(r["pass"] for r in results) else 3


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qskew",
        description="quaternion skew-symmetric matrix toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, fallback):
        p.add_argument("--tol", type=float, default=None,
                       help="tolerance (default %g, or QSKEW_TOL)" % fallback)
        p.add_argument("--json", action="store_true",
                       help="machine-readable output, full precision")

    p = sub.add_parser("spectrum", help="right eigenvalues of W = Z Z*")
    p.add_argument("path", help="quaternion matrix JSON file")
    common(p, GENERAL_TOL)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("verify-paper",
                       help="re-run the published reference values")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_verify_paper)

    p = sub.add_parser("hua", help="canonical pair form of a complex skew matrix")
    p.add_argument("path", help="complex matrix JSON file")
    common(p, HUA_TOL)
    p.set_defaults(func=cmd_hua)

    p = sub.add_parser("inverse-check",
                       help="inverse and its skew deviation")
    p.add_argument("path", help="quaternion matrix JSON file")
    common(p, GENERAL_TOL)
    p.set_defaults(func=cmd_inverse_check)

    p = sub.add_parser("search-basic",
                       help="search for fully distinct positive spectra")
    p.add_argument("--n", type=int, default=4, help="matrix size (>= 4)")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--gap-tol", type=float, default=1e-3, dest="gap_tol")
    p.add_argument("--workers", type=int, default=1,
                   help="accepted for compatibility; trials run in trial "
                        "order in one thread, so it changes neither output "
                        "nor execution")
    p.set_defaults(func=cmd_search_basic)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MatrixFormatError as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 2
    except (SingularMatrixError, ConvergenceError, ValueError) as exc:
        print("math contract violation: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
