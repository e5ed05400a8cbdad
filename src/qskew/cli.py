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

main(argv) may be called any number of times in one process: the parser
holds only module constants, so it is built on the first call and reused.
Each call resolves its tolerance, lays out help text (COLUMNS) and reports
usage errors afresh.
"""

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from .clinalg import ConvergenceError, SingularMatrixError, frobenius_norm
from .dual import DualQuatMatrix, dq_hermitian_direct, dq_hermitian_split
from .hua import even_multiplicity_check, hua_decompose
from .matio import SKEW, MatrixFormatError, _hermitian_json, _mirror_json, load_matrix
from .qmatrix import QuatMatrix, random_skew_symmetric
from .quaternion import Quaternion, I, J
from .skew import (SkewTriple, _search_block, _trial_keys, _triple_matrices,
                   basic_candidate_search, classify_3x3, inverse_skew_report,
                   reference_4x4, sample_degenerate_triple, sample_generic_triple,
                   verify_classification)
from .spectra import gram_spectrum

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
    # + 0.0 turns a -0.0, a tiny negative value rounded, into 0.0
    return ", ".join("%g" % (round(float(v), 4) + 0.0) for v in values)


def _rng(seed):
    return np.random.Generator(np.random.Philox(key=seed))


def _require_square(mat, command):
    """A non-square matrix file, quaternion or complex, is an input error,
    not a contract violation."""
    m, n = mat.shape
    if m != n:
        raise MatrixFormatError("%s needs a square matrix, got %dx%d" % (command, m, n))


def cmd_spectrum(args):
    mat = QuatMatrix.coerce(load_matrix(args.path))
    tol = _resolve_tol(args, GENERAL_TOL)
    _require_square(mat, "spectrum")
    w, spec, e = gram_spectrum(mat, tol)
    solid = spec.definite()
    w = QuatMatrix(np.ldexp(w.data, 2 * e))
    spec.values, spec.trace_residual = (np.ldexp(spec.values, 2 * e),
                                        np.ldexp(spec.trace_residual, 2 * e))

    classification = None
    if mat.nrows == 3:
        triple = SkewTriple(mat.entry(0, 1), mat.entry(1, 2), mat.entry(0, 2))
        if any(q != 0 for q in (triple.a, triple.b, triple.c)):
            report = classify_3x3(triple).compare(spec.values)
            agrees = (report.case_label == "solid") == solid
            classification = (report, agrees)

    if args.json:
        out = {"skew_symmetric": True,
               "spectrum": spec.to_dict(),
               "solid": solid}
        if classification:
            out["classification"] = classification[0].to_dict()
            out["classification_agrees"] = classification[1]
        elif mat.nrows == 3:
            out["classification"] = None
        # json.dumps of out with W's dict as "gram": the text around its
        # null, and in its place W's text, whose entries are written alone
        out["gram"] = None
        head, _, tail = json.dumps(out, sort_keys=True).partition('"gram": null')
        before, entries, after = _hermitian_json(w)  # checks W before anything is written
        sys.stdout.write(head + '"gram": ' + before)
        sys.stdout.write(entries)
        sys.stdout.write(after + tail + "\n")
        return 0

    print("skew-symmetric: yes")
    print("W = Z Z*:")
    for i in range(w.nrows):
        print("  " + "  ".join(_fmt_quat(w.entry(i, j))
                               for j in range(w.ncols)))
    print("right eigenvalues of W: %s" % _fmt_values(spec.values))
    print("trace residual: %g" % spec.trace_residual)
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
    _require_square(mat, "hua")
    form = hua_decompose(mat, tol=tol)
    if args.json:
        print(json.dumps(form.to_dict(), sort_keys=True))
        return 0
    print("sigmas: %s" % (_fmt_values(form.sigmas) if form.sigmas else "(none)"))
    print("zero block dimension: %d" % form.zero_dim)
    print("reconstruction residual: %.3e" % form.residual)
    print("unitarity residual: %.3e" % form.unitarity_residual)
    return 0


def cmd_inverse_check(args):
    mat = QuatMatrix.coerce(load_matrix(args.path))
    tol = _resolve_tol(args, GENERAL_TOL)
    _require_square(mat, "inverse-check")
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
    if args.scale < np.finfo(float).tiny:  # subnormal draws keep few bits
        print("--scale must be normal, at least 2^-1022", file=sys.stderr)
        return 2
    # an entry has norm at most 2 scale, so ||Z||_F is at most 2^511 and W = Z Z*,
    # whose trace is ||Z||_F^2, keeps every entry and eigenvalue in range
    limit = math.ldexp(1.0, 510) / math.sqrt(args.n * (args.n - 1))
    if args.scale > limit:
        print("--scale must be at most 2^510 / sqrt(n (n - 1)) = %r at --n %d, "
              "so that W = Z Z* stays in the float range" % (limit, args.n),
              file=sys.stderr)
        return 2
    candidates = basic_candidate_search(args.n, args.trials, args.seed,
                                        scale=args.scale, gap_tol=args.gap_tol)
    summary = {"trials": args.trials, "hits": len(candidates),
               "min_gap": min((c.min_relative_gap for c in candidates),
                              default=None),
               "max_gap": max((c.min_relative_gap for c in candidates),
                              default=None)}
    # one write per _search_block(n) lines, so the text of the whole
    # request is never held at once; the summary is the last line
    block = _search_block(args.n)
    for start in range(0, len(candidates) + 1, block):
        lines = _hit_lines(candidates[start:start + block])
        if start + block > len(candidates):
            lines.append(json.dumps(summary, sort_keys=True))
        sys.stdout.write("".join(line + "\n" for line in lines))
    return 0


def _hit_lines(chunk):
    """The JSON lines of a list of search hits, each byte for byte
    json.dumps(hit.to_dict(), sort_keys=True), with Z's text from
    matio._mirror_json.  Raises ValueError, returning no line, unless every
    Z is finite and bitwise skew and every eigenvalue and gap finite, which
    json.dumps would write as Infinity or NaN."""
    if not chunk:
        return []
    values = np.stack([c.eigenvalues for c in chunk])
    if not (np.isfinite(values).all() and np.isfinite([c.min_relative_gap for c in chunk]).all()):
        raise ValueError("a search hit has a non-finite eigenvalue or gap")
    matrices = _mirror_json(np.stack([c.data for c in chunk]), SKEW, True)
    return ['{"eigenvalues": [%s], "matrix": %s, "min_relative_gap": %s, "trial": %d}' % (
        ", ".join(map(float.__repr__, lam)), text, float.__repr__(c.min_relative_gap), c.trial)
        for c, lam, text in zip(chunk, values.tolist(), matrices)]


def _row_two_by_two():
    z = random_skew_symmetric(2, _trial_keys(11, 0, 25))
    _, spec, e = gram_spectrum(z)
    expect = np.ldexp([Quaternion(*a).norm_sq() for a in z.data[:, 0, 1]], -2 * e)
    worst = float((np.abs(spec.values - expect[:, None]).max(axis=1) / expect).max())
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
    reports = verify_classification(sample_degenerate_triple(_rng(23), 50))
    worst = max(r.max_deviation / max(r.predicted_values) for r in reports)
    return worst <= 1e-7, "50 degenerate triples, worst relative deviation %.2e" % worst


def _row_four_by_four():
    values = gram_spectrum(reference_4x4())[1].values  # entries up to 25: e = 0
    published = (131.4, 235.5, 1238.3, 1482.9)
    corrected = (141.3, 235.5, 1238.3, 1482.9)
    ok = all(abs(v - e) <= 0.05 for v, e in zip(values, corrected))
    trace_ok = abs(float(values.sum()) - 3098.0) <= 1e-9 * 3098.0
    detail = ("computed (%s); published (%s) has its first value misprinted: "
              "the values must sum to 3098, the squared Frobenius norm of Z, "
              "which matches 141.3" % (_fmt_values(values), _fmt_values(published)))
    return ok and trace_ok, detail


def _by_size(rng, count, sizes, draw):
    """count seeded draws draw(rng, n), each after its size
    n = rng.integers(*sizes), in one list per size, sizes in first-seen order."""
    by_size = {}
    for _ in range(count):
        n = int(rng.integers(*sizes))
        by_size.setdefault(n, []).append(draw(rng, n))
    return by_size.values()


def _complex_skew(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return m - m.T


def _row_complex_even():
    if not all(even_multiplicity_check(np.array(zs)).all()
               for zs in _by_size(_rng(31), 100, (2, 9), _complex_skew)):
        return False, "failed on a random complex skew matrix"
    return True, "100 random complex skew matrices, all multiplicities even"


def _row_hua():
    worst_res = worst_uni = 0.0
    for zs in _by_size(_rng(37), 20, (2, 10), _complex_skew):
        for z, form in zip(zs, hua_decompose(np.array(zs))):
            worst_res = max(worst_res, form.residual / np.sqrt(np.vdot(z, z).real))
            worst_uni = max(worst_uni, form.unitarity_residual)
    ok = worst_res <= 1e-8 and worst_uni <= 1e-10
    return ok, ("20 random matrices, worst relative residual %.2e, "
                "worst unitarity %.2e" % (worst_res, worst_uni))


def _row_inverse():
    rng = _rng(41)
    pairs = inverse_skew_report(random_skew_symmetric(2, _trial_keys(43, 0, 20)))
    worst2 = _relative_deviations(pairs).max()
    if worst2 > 1e-12:
        return False, "2x2 inverse skew deviation %.2e too large" % worst2
    triples = np.concatenate([sample_generic_triple(rng, 20), sample_degenerate_triple(rng, 5)])
    reports = inverse_skew_report(_triple_matrices(triples))
    floor3 = _relative_deviations(reports[:20]).min()
    if floor3 < 1e-6:
        return False, "3x3 solid inverse skew deviation %.2e too small" % floor3
    if any(rep.invertible for rep in reports[20:]):
        return False, "degenerate 3x3 came back invertible"
    return True, ("2x2 worst relative deviation %.2e; 3x3 solid floor %.2e; "
                  "degenerate all singular" % (worst2, floor3))


def _relative_deviations(reports):
    """skew_deviation / ||Z^-1||_F of each report, the norms in one pass."""
    norms = frobenius_norm(np.stack([r.inverse.data for r in reports]), axis=(1, 2, 3))
    return np.array([r.skew_deviation for r in reports]) / norms


def _row_dual():
    # each draw: whether to keep it plain, then its standard and infinitesimal parts
    for draws in _by_size(_rng(47), 100, (1, 5), lambda rng, n: (
            rng.uniform() < 0.5, *(rng.uniform(-1, 1, (n, n, 4)) for _ in range(2)))):
        plain, std, inf = (np.array(part) for part in zip(*draws))
        # the other half: std made Hermitian, inf skew-symmetric
        s, k = QuatMatrix(std), QuatMatrix(inf)
        keep = plain[:, None, None, None]
        a = DualQuatMatrix(np.where(keep, std, (s + s.conj_transpose()).data),
                           np.where(keep, inf, (k - k.transpose()).data))
        if (dq_hermitian_direct(a) != dq_hermitian_split(a)).any():
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


@functools.cache
def build_parser():
    """The command line parser, built once per process and shared by every
    main call; parsing keeps no state in it."""
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
