"""End-to-end acceptance checks, one test per criterion.

Each test prints a single [PASS]/[FAIL] line (visible with pytest -s) and
enforces the stated tolerances.  Two reference-value checks (the 3x3 and the
integer 4x4 published spectra) assert the published digits verbatim; both
fail against values that are provably inconsistent with their own matrices
(the eigenvalue sums must equal the traces, 16 and 3098, which the published
tuples miss).  The failure messages carry that analysis; the corrected
full-precision spectra are asserted green in the module tests.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

from qskew import (
    DualQuatMatrix,
    I,
    J,
    Quaternion,
    QuatMatrix,
    SkewTriple,
    basic_candidate_search,
    classify_3x3,
    dq_hermitian_direct,
    dq_hermitian_split,
    even_multiplicity_check,
    gram_product,
    herm_eig,
    hua_decompose,
    inverse_skew_report,
    quaternion_even_multiplicity_check,
    random_skew_symmetric,
    right_eigenvalues_hermitian,
    sample_degenerate_triple,
    sample_generic_triple,
    verify_classification,
)
from qskew.skew import reference_4x4, reference_4x4_variant


def report(ok, label, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = " " + detail if detail else ""
    print("[%s] %s%s" % (tag, label, suffix))
    return ok


def ref3_matrix():
    return SkewTriple(1, I + J, I + 2 * J).matrix()


def random_complex_skew(rng, n, scale=1.0):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * (m - m.T)


def test_a1_reference_3x3_published_values():
    """Published 4-decimal spectrum of the 3x3 reference instance."""
    published = (0.0635, 7.5726, 8.6789)
    w = gram_product(ref3_matrix())
    computed = right_eigenvalues_hermitian(w).values
    dev = [abs(c - p) for c, p in zip(computed, published)]
    ok = all(d <= 5e-4 for d in dev)
    trace = sum(float(w.entry(t, t).real()) for t in range(3))
    detail = ("computed (%.4f, %.4f, %.4f) vs published %s, deviations %s"
              % (*computed, published, ["%.4g" % d for d in dev]))
    if not report(ok, "A1 3x3 reference spectrum", detail):
        pytest.fail(
            "published middle value cannot be right: the three eigenvalues "
            "must sum to tr(W) = %.1f, but the published tuple sums to %.4f; "
            "the computed spectrum (%.6f, %.6f, %.6f) sums to %.10f and its "
            "squares sum to %.6f = ||W||_F^2. Published 7.5726 against "
            "computed 7.2576 is a digit transposition; every other value "
            "matches to all published digits. Deviations: %s"
            % (trace, sum(published), *computed, sum(computed),
               float(np.sum(np.square(computed))), ["%.4g" % d for d in dev])
        )


def test_a2_two_by_two_double_eigenvalue():
    """50 random nonzero 2x2 instances give the doubled |a|^2 spectrum."""
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        a = Quaternion(*rng.uniform(-2, 2, size=4))
        if abs(a) < 1e-3:
            a = a + Quaternion(1, 0, 0, 0)
        z = QuatMatrix.from_entries([[0, a], [-a, 0]])
        vals = right_eigenvalues_hermitian(gram_product(z)).values
        expect = a.norm_sq()
        rel = max(abs(v - expect) / expect for v in vals)
        worst = max(worst, rel)
    assert report(worst <= 1e-10, "A2 2x2 doubled spectrum",
                  "50 instances, worst relative deviation %.3g" % worst)


def test_a3_three_by_three_classification():
    """Degenerate triples give (0, s, s); generic triples are fully positive."""
    rng = np.random.default_rng(2025)
    worst = 0.0
    for _ in range(200):
        t = sample_degenerate_triple(rng)
        rep = verify_classification(t)
        s = max(rep.predicted_values)
        worst = max(worst, rep.max_deviation / max(1.0, s))
    ok_deg = worst <= 1e-7

    min_eig = np.inf
    for _ in range(200):
        t = sample_generic_triple(rng)
        vals = right_eigenvalues_hermitian(gram_product(t.matrix())).values
        min_eig = min(min_eig, min(vals))
    ok_gen = min_eig > 1e-8

    assert report(ok_deg and ok_gen, "A3 3x3 classification",
                  "degenerate worst rel dev %.3g, generic min eigenvalue %.3g"
                  % (worst, min_eig))


def test_a4_reference_4x4_published_values():
    """Published 1-decimal spectrum of the integer 4x4 instance.

    The stated fallback applies: if the primary reading misses, the variant
    reading (third block repeated) is tried and the matching reading is
    documented.
    """
    published = (131.4, 235.5, 1238.3, 1482.9)
    primary = right_eigenvalues_hermitian(gram_product(reference_4x4())).values
    variant = right_eigenvalues_hermitian(
        gram_product(reference_4x4_variant())).values
    dev_primary = [abs(c - p) for c, p in zip(primary, published)]
    dev_variant = [abs(c - p) for c, p in zip(variant, published)]
    ok = all(d <= 0.05 for d in dev_primary)
    detail = ("primary reading (%.1f, %.1f, %.1f, %.1f) vs published %s"
              % (*primary, published))
    if not report(ok, "A4 4x4 reference spectrum", detail):
        pytest.fail(
            "the published tuple matches the primary reading on three of "
            "four values (deviations %s) and the variant reading on none "
            "(deviations %s), so the published values correspond to the "
            "primary reading with a bad first entry. That entry cannot be "
            "131.4: the spectrum must sum to tr(W) = 3098 exactly (integer "
            "matrix), and 3098 - 235.45724 - 1238.33700 - 1482.86558 = "
            "141.34018. The published 131.4 against computed 141.3 is a "
            "digit transposition. Computed primary spectrum: (%.5f, %.5f, "
            "%.5f, %.5f), sum %.6f; variant spectrum sums to %.6f = its own "
            "trace, confirming both solver runs are self-consistent."
            % (["%.4g" % d for d in dev_primary],
               ["%.4g" % d for d in dev_variant],
               *primary, sum(primary), sum(variant))
        )


def test_a5_hua_decomposition():
    """100 complex skew matrices, odd sizes and rank-deficient ones included."""
    rng = np.random.default_rng(2026)
    worst_resid = worst_unit = worst_sig = 0.0
    for trial in range(100):
        n = int(rng.integers(2, 13))
        z = random_complex_skew(rng, n)
        if trial % 5 == 0:
            # project onto a lower even rank to exercise the kernel path
            pairs = max(1, (n // 2) - 1)
            zz = np.zeros_like(z)
            for _ in range(pairs):
                v = rng.normal(size=n) + 1j * rng.normal(size=n)
                w = rng.normal(size=n) + 1j * rng.normal(size=n)
                zz += np.outer(v, w) - np.outer(w, v)
            z = zz
        form = hua_decompose(z)
        scale = max(1.0, float(np.linalg.norm(z)))
        worst_resid = max(worst_resid, form.residual / scale)
        worst_unit = max(worst_unit, form.unitarity_residual)
        lam = np.sort(np.linalg.eigvalsh(z @ z.conj().T))[::-1]
        sig2 = np.square(np.repeat(form.sigmas, 2))
        if len(sig2):
            rel = np.abs(sig2 - lam[: len(sig2)]) / lam[: len(sig2)]
            worst_sig = max(worst_sig, float(rel.max()))
    ok = worst_resid <= 1e-8 and worst_unit <= 1e-10 and worst_sig <= 1e-8
    assert report(ok, "A5 canonical form",
                  "worst scaled residual %.3g, unitarity %.3g, sigma^2 match %.3g"
                  % (worst_resid, worst_unit, worst_sig))


def test_a6_even_multiplicity_contrast():
    """Complex skew always pairs; quaternion skew does not."""
    rng = np.random.default_rng(2027)
    complex_ok = True
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        if not even_multiplicity_check(random_complex_skew(rng, n)):
            complex_ok = False
            break

    ref_ok = not quaternion_even_multiplicity_check(ref3_matrix())

    hits = basic_candidate_search(4, trials=200, seed=12345)
    search_ok = len(hits) >= 1 and any(
        not quaternion_even_multiplicity_check(h.matrix) for h in hits)

    ok = complex_ok and ref_ok and search_ok
    assert report(ok, "A6 even-multiplicity contrast",
                  "complex holds on 1000, quaternion fails on the 3x3 "
                  "reference and on %d of 200 searched trials" % len(hits))


def test_a7_inverse_contrast():
    """2x2 inverses stay skew; solid 3x3 inverses never do."""
    rng = np.random.default_rng(2028)
    worst2 = 0.0
    for _ in range(100):
        a = Quaternion(*rng.uniform(-2, 2, size=4))
        if abs(a) < 1e-3:
            a = a + Quaternion(1, 0, 0, 0)
        z = QuatMatrix.from_entries([[0, a], [-a, 0]])
        rep = inverse_skew_report(z)
        assert rep.invertible
        worst2 = max(worst2, rep.skew_deviation / rep.inverse.norm())
    ok2 = worst2 <= 1e-12

    min3 = np.inf
    for _ in range(100):
        t = sample_generic_triple(rng)
        rep = inverse_skew_report(t.matrix())
        assert rep.invertible
        min3 = min(min3, rep.skew_deviation / rep.inverse.norm())
    ok3 = min3 >= 1e-6

    singular_ok = True
    for _ in range(20):
        t = sample_degenerate_triple(rng)
        if inverse_skew_report(t.matrix()).invertible:
            singular_ok = False
    ok = ok2 and ok3 and singular_ok
    assert report(ok, "A7 inverse contrast",
                  "2x2 worst relative deviation %.3g, solid 3x3 min %.3g, "
                  "degenerate all singular: %s" % (worst2, min3, singular_ok))


def test_a8_adjoint_map_properties():
    """Homomorphism, eigenvalue pairing, and round trip of the embedding."""
    rng = np.random.default_rng(2029)
    worst_hom = worst_gap = worst_rt = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 7))
        a = QuatMatrix(rng.uniform(-1, 1, size=(n, n, 4)))
        b = QuatMatrix(rng.uniform(-1, 1, size=(n, n, 4)))
        hom = np.abs((a @ b).chi() - a.chi() @ b.chi()).max()
        worst_hom = max(worst_hom, hom / max(1.0, a.norm() * b.norm()))

        back = QuatMatrix.from_chi(a.chi())
        worst_rt = max(worst_rt, float((back - a).norm()))

        if n >= 2:
            z = random_skew_symmetric(n, seed=int(rng.integers(0, 2**63)))
            # the complex adjoint doubles every right eigenvalue
            mu = herm_eig(gram_product(z).chi())
            worst_gap = max(worst_gap, float((mu[1::2] - mu[0::2]).max()))
    ok = worst_hom <= 1e-9 and worst_gap <= 1e-9 and worst_rt <= 1e-9
    assert report(ok, "A8 adjoint map",
                  "homomorphism %.3g, pairing gap %.3g, round trip %.3g"
                  % (worst_hom, worst_gap, worst_rt))


def test_a9_dual_hermitian_routes():
    """Both Hermitian tests return identical booleans on 500 instances."""
    rng = np.random.default_rng(2030)
    agree = 0
    for trial in range(500):
        n = int(rng.integers(1, 6))
        std = QuatMatrix(rng.uniform(-1, 1, size=(n, n, 4)))
        inf = QuatMatrix(rng.uniform(-1, 1, size=(n, n, 4)))
        kind = trial % 3
        if kind == 0:
            std = std + std.conj_transpose()
            inf = inf - inf.transpose()
        elif kind == 1:
            std = std + std.conj_transpose()
            inf = inf - inf.transpose()
            bump = np.zeros((n, n, 4))
            bump[0, n - 1, 1] = 10.0 ** rng.integers(-14, -2)
            std = std + QuatMatrix(bump)
        a = DualQuatMatrix(std, inf)
        if dq_hermitian_direct(a) == dq_hermitian_split(a):
            agree += 1
    assert report(agree == 500, "A9 dual Hermitian routes",
                  "%d of 500 agree exactly" % agree)


def test_a10_search_determinism():
    """Byte-identical search output across runs and thread counts."""
    code = (
        "from qskew.cli import main; import sys;"
        "sys.exit(main(['search-basic', '--n', '4', '--trials', '60',"
        " '--seed', '11', '--workers', '%d']))"
    )
    outs = []
    for workers in (1, 1, 3, 8):
        r = subprocess.run([sys.executable, "-c", code % workers],
                           capture_output=True, check=True)
        outs.append(r.stdout)
    ok = outs[0] == outs[1] == outs[2] == outs[3] and len(outs[0]) > 0
    assert report(ok, "A10 search determinism",
                  "4 runs, %d bytes each, workers 1/1/3/8" % len(outs[0]))
