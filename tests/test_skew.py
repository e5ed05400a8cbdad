import json
import math

import numpy as np
import pytest

import qskew.skew
import qskew.spectra
from qskew import (
    I,
    J,
    K,
    Quaternion,
    QuatMatrix,
    SkewTriple,
    basic_candidate_search,
    classify_3x3,
    gram_product,
    inverse_skew_report,
    is_solid,
    quaternion_even_multiplicity_check,
    random_skew_symmetric,
    right_eigenpairs_hermitian,
    right_eigenvalues_hermitian,
    sample_degenerate_triple,
    sample_generic_triple,
    trial_seed,
    verify_classification,
)
from qskew.skew import reference_4x4, reference_4x4_variant

# Spectrum of W for the integer 4x4 reference matrix, frozen from an
# independent eigvalsh run on the complex embedding.  The sum is exactly
# 3098 = tr(W) = 2 * (27 + 11 + 764 + 315 + 145 + 287), computable by hand
# from the integer entries, which anchors the leading digits of every value.
REF4_SPECTRUM = (141.34018225, 235.45724322, 1238.33699636, 1482.86557818)


def test_triple_matrix_layout():
    t = SkewTriple(1, I, J)
    z = t.matrix()
    assert z.is_skew_symmetric()
    assert z.entry(0, 1) == Quaternion(1, 0, 0, 0)
    assert z.entry(1, 2) == I
    assert z.entry(0, 2) == J
    assert z.entry(1, 0) == Quaternion(-1, 0, 0, 0)


def test_classify_solid_reference():
    t = SkewTriple(1, I + J, I + 2 * J)
    assert classify_3x3(t).case_label == "solid"
    rep = verify_classification(t)
    assert rep.case_label == "solid"
    assert all(v > 1e-8 for v in rep.computed_values)
    assert rep.condition_lhs_rhs_gap > 0


def test_classify_degenerate_a_zero():
    t = SkewTriple(0, I + J, 3 - K)
    assert classify_3x3(t).case_label == "degenerate"
    rep = verify_classification(t)
    s = t.b.norm_sq() + t.c.norm_sq()
    np.testing.assert_allclose(sorted(rep.predicted_values), sorted([0.0, s, s]))
    assert rep.max_deviation <= 1e-7 * max(1.0, s)


def test_classify_degenerate_commuting():
    # real a with b, c drawn from a common complex slice commutes everything
    mu = Quaternion(0, 1, 2, -1)
    b = 2 + 3 * mu
    c = -1 + 0.5 * mu
    t = SkewTriple(1.5, b, c)
    assert classify_3x3(t).case_label == "degenerate"
    rep = verify_classification(t)
    s = t.a.norm_sq() + t.b.norm_sq() + t.c.norm_sq()
    np.testing.assert_allclose(sorted(rep.predicted_values), sorted([0.0, s, s]))
    assert rep.max_deviation <= 1e-7 * max(1.0, s)


def test_commuting_parts_alone_do_not_force_degeneracy():
    # b and c commute here, yet a = j makes the matrix solid; the degeneracy
    # criterion genuinely involves a
    t = SkewTriple(J, I, 1 + I)
    assert t.b.commutes_with(t.c, tol=1e-12)
    assert classify_3x3(t).case_label == "solid"
    w = gram_product(t.matrix())
    vals = right_eigenvalues_hermitian(w).values
    assert min(vals) > 1e-8


def test_classify_rejects_zero_triple():
    with pytest.raises(ValueError):
        classify_3x3(SkewTriple(0, 0, 0))


def test_is_solid():
    assert is_solid(SkewTriple(1, I + J, I + 2 * J).matrix())
    assert not is_solid(SkewTriple(0, I, I).matrix())


def test_is_solid_does_not_depend_on_scale():
    z = random_skew_symmetric(3, 5)
    degenerate = SkewTriple(0, I, I).matrix()
    for c in (1e-8, 1e-4, 1.0, 1e8):
        assert is_solid(c * z)
        assert not is_solid(c * degenerate)


def test_inverse_2x2_stays_skew():
    rng = np.random.default_rng(50)
    a = Quaternion(*rng.uniform(-1, 1, size=4))
    z = QuatMatrix.from_entries([[0, a], [-a, 0]])
    rep = inverse_skew_report(z)
    assert rep.invertible
    assert rep.skew_deviation <= 1e-12 * rep.inverse.norm()
    assert (z @ rep.inverse - QuatMatrix.eye(2)).norm() <= 1e-10


def test_inverse_3x3_solid_leaves_class():
    z = SkewTriple(1, I + J, I + 2 * J).matrix()
    rep = inverse_skew_report(z)
    assert rep.invertible
    assert rep.skew_deviation >= 1e-6 * rep.inverse.norm()


def test_inverse_singular_case():
    z = SkewTriple(0, I, I).matrix()
    rep = inverse_skew_report(z)
    assert not rep.invertible
    assert rep.inverse is None
    d = rep.to_dict()
    assert d["invertible"] is False


def test_inverse_rejects_non_skew():
    with pytest.raises(ValueError):
        inverse_skew_report(QuatMatrix.eye(2))


def test_complex_skew_input_matches_its_promotion():
    # a complex Z is the quaternion matrix Z + 0 j, so every entry point
    # gives the same answer for both
    rng = np.random.default_rng(21)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    for z in (np.array([[0, 2j], [-2j, 0]]), m - m.T):
        q = QuatMatrix.from_complex_pair(z, np.zeros_like(z))
        assert gram_product(z).data.tobytes() == gram_product(q).data.tobytes()
        assert inverse_skew_report(z).to_dict() == inverse_skew_report(q).to_dict()
        assert is_solid(z) and is_solid(q)
        assert quaternion_even_multiplicity_check(z)
        assert quaternion_even_multiplicity_check(q)
    assert inverse_skew_report(np.array([[0, 2j], [-2j, 0]])).invertible


def test_reference_4x4_spectrum():
    z = reference_4x4()
    assert z.is_skew_symmetric()
    vals = right_eigenvalues_hermitian(gram_product(z)).values
    np.testing.assert_allclose(vals, REF4_SPECTRUM, atol=1e-6)
    assert abs(sum(vals) - 3098.0) <= 1e-8


def test_reference_4x4_variant_differs():
    # alternate reading of the same published table produces a different
    # spectrum (trace 2682, not 3098), so the two readings are distinguishable
    zv = reference_4x4_variant()
    vals = right_eigenvalues_hermitian(gram_product(zv)).values
    assert abs(sum(vals) - 2682.0) <= 1e-8


def test_even_multiplicity_contrast():
    # the 3x3 solid reference has three distinct eigenvalues: no pairing
    z = SkewTriple(1, I + J, I + 2 * J).matrix()
    assert not quaternion_even_multiplicity_check(z)
    # 2x2 single-quaternion skew does pair up
    z2 = QuatMatrix.from_entries([[0, I + K], [-(I + K), 0]])
    assert quaternion_even_multiplicity_check(z2)


def test_trial_seed_frozen():
    # splitmix64 reference outputs (first values of the standard stream)
    assert trial_seed(0, 0) == 16294208416658607535
    assert trial_seed(0, 1) == 7960286522194355700
    assert trial_seed(0, 2) == 487617019471545679
    assert trial_seed(12345, 0) == 2454886589211414944
    # wraps modulo 2^64 without error
    assert 0 <= trial_seed(2**64 - 1, 5) < 2**64


def test_trial_seed_decorrelates():
    seeds = {trial_seed(7, t) for t in range(100)}
    assert len(seeds) == 100


def test_sample_degenerate_triple():
    rng = np.random.default_rng(60)
    for _ in range(50):
        t = sample_degenerate_triple(rng)
        assert classify_3x3(t).case_label == "degenerate"


def test_sample_generic_triple():
    rng = np.random.default_rng(61)
    for _ in range(50):
        t = sample_generic_triple(rng)
        assert classify_3x3(t).case_label == "solid"


def test_search_determinism_and_workers():
    # byte identity across --workers values is checked in test_cli and test_a10
    a = basic_candidate_search(4, trials=40, seed=9)
    b = basic_candidate_search(4, trials=40, seed=9)
    sa = [json.dumps(x.to_dict(), sort_keys=True) for x in a]
    sb = [json.dumps(x.to_dict(), sort_keys=True) for x in b]
    assert sa == sb
    d = basic_candidate_search(4, trials=40, seed=10)
    assert sa != [json.dumps(x.to_dict(), sort_keys=True) for x in d]


def test_search_candidates_are_genuine():
    hits = basic_candidate_search(4, trials=30, seed=2)
    assert hits  # random quaternion skew matrices essentially never pair up
    for cand in hits[:3]:
        z = cand.matrix
        assert z.is_skew_symmetric()
        assert not quaternion_even_multiplicity_check(z)
        vals = right_eigenvalues_hermitian(gram_product(z)).values
        np.testing.assert_allclose(vals, cand.eigenvalues, atol=1e-9)
        assert cand.min_relative_gap > 1e-3


def test_search_rejects_small_n():
    with pytest.raises(ValueError):
        basic_candidate_search(3, trials=5, seed=0)


def test_search_hits_do_not_depend_on_block_size(monkeypatch):
    default = [json.dumps(x.to_dict(), sort_keys=True)
               for x in basic_candidate_search(4, 60, 11)]
    # 60 trials in blocks of 7 cross eight block boundaries
    monkeypatch.setattr(qskew.skew, "SEARCH_BLOCK", 7)
    small = [json.dumps(x.to_dict(), sort_keys=True)
             for x in basic_candidate_search(4, 60, 11)]
    assert default and small == default


def test_search_solves_a_block_per_eigensolver_call(monkeypatch):
    calls = []
    solve = qskew.spectra.herm_eig

    def counting(h, vectors=True):
        calls.append(len(h))
        return solve(h, vectors)

    monkeypatch.setattr(qskew.spectra, "herm_eig", counting)
    block = qskew.skew.SEARCH_BLOCK
    for trials in (0, 1, block, 2 * block + 1):
        calls.clear()
        basic_candidate_search(4, trials, 3)
        assert len(calls) == math.ceil(trials / block)
        assert sum(calls) == trials
    monkeypatch.setattr(qskew.skew, "SEARCH_BLOCK", 7)
    calls.clear()
    basic_candidate_search(4, 60, 11)
    assert calls == [7] * 8 + [4]


def test_search_builds_few_matrices_per_trial(monkeypatch):
    # sampling, gram_product and the Hermitian check of W build at most 7
    # QuatMatrix objects per trial; predicates work on the arrays
    calls = []
    init = QuatMatrix.__init__

    def counting(self, data):
        calls.append(1)
        init(self, data)

    monkeypatch.setattr(QuatMatrix, "__init__", counting)
    basic_candidate_search(4, 64, 5)
    assert 0 < len(calls) <= 7 * 64


def test_right_spectra_of_a_list_match_one_by_one():
    ws = [gram_product(random_skew_symmetric(4, trial_seed(5, t)))
          for t in range(6)]
    listed = right_eigenvalues_hermitian(ws)
    assert len(listed) == 6
    for w, spec in zip(ws, listed):
        alone = right_eigenvalues_hermitian(w)
        assert spec.vectors is None
        np.testing.assert_array_equal(spec.values, alone.values)
        np.testing.assert_array_equal(spec.pairing_gaps, alone.pairing_gaps)
        # list and single input share one path; the eigenpairs route solves
        # with vectors on its own, and its values must agree bitwise
        pairs = right_eigenpairs_hermitian(w)
        np.testing.assert_array_equal(spec.values, pairs.values)
        np.testing.assert_array_equal(spec.pairing_gaps, pairs.pairing_gaps)
    assert right_eigenvalues_hermitian([]) == []
    # the pairing and Hermitian checks still apply to each matrix
    with pytest.raises(ValueError, match="Hermitian"):
        right_eigenvalues_hermitian(ws[:2] + [random_skew_symmetric(4, 1)])
