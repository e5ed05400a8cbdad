import collections
import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    assert abs(t.b * t.c - t.c * t.b) <= 1e-12
    assert classify_3x3(t).case_label == "solid"
    w = gram_product(t.matrix())
    vals = right_eigenvalues_hermitian(w).values
    assert min(vals) > 1e-8


def test_classify_rejects_zero_triple():
    with pytest.raises(ValueError):
        classify_3x3(SkewTriple(0, 0, 0))


def test_classify_overflowing_s_is_inf_quietly():
    # s = |a|^2 + |b|^2 + |c|^2 is 1e401 here: it scales back to inf with
    # no warning, since every scaling is exact and the last one saturates
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = classify_3x3(SkewTriple(0, Quaternion(1e200, 1), Quaternion(3e200)))
    assert report.case_label == "degenerate"
    assert report.predicted_values == [0.0, math.inf, math.inf]
    assert report.condition_lhs_rhs_gap == 0.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_classification_rejects_non_finite_entries(bad):
    with pytest.raises(ValueError, match="classification needs finite entries$"):
        classify_3x3((bad, 1, 1))
    with pytest.raises(ValueError, match="classification needs finite entries$"):
        classify_3x3((1, I, Quaternion(0, 1, bad)))
    # the stack pass names the triple, before any eigensolver call
    solid = (1, I + J, I + 2 * J)
    with pytest.raises(ValueError, match=r"classification needs finite entries \(slice 1\)$"):
        verify_classification([solid, (1, I, Quaternion(0, 1, bad)), solid])


def test_stacked_classification_names_the_zero_triple():
    solid = (1, I + J, I + 2 * J)
    with pytest.raises(ValueError, match=r"nonzero triple \(slice 0\)$"):
        verify_classification([(0, 0, 0), solid])
    with pytest.raises(ValueError, match=r"nonzero triple \(slice 2\)$"):
        verify_classification([solid, solid, (0, 0, 0)])
    with pytest.raises(ValueError, match="nonzero triple$"):
        verify_classification((0, 0, 0))


def _stack_reports(entries):
    """The reports that verify_classification builds from one
    _classify_stack pass, before it adds the computed spectra."""
    solid, gap, s = qskew.skew._classify_stack(entries)
    return [qskew.skew.SpectrumReport("solid", [], [], 0.0, g) if ok else
            qskew.skew.SpectrumReport("degenerate", [0.0, v, v], [], 0.0, g)
            for ok, g, v in zip(solid.tolist(), gap.tolist(), s.tolist())]


def _triple_of_kind(kind, seed, delta):
    """Entries (3, 4) of a generic triple, one whose components are each
    scaled by their own 2^-j (j up to 1100, so that squares and products
    underflow, but up to 30 for a's first), one with a = 0, one with real
    a and commuting b and c, or (1, i, i + delta j)."""
    rng = np.random.default_rng(seed)
    t = rng.uniform(-1, 1, (3, 4))
    if kind == "spread":
        j = rng.integers(0, 1100, (3, 4))
        j[0, 0] %= 31
        t = np.ldexp(t, -j)
    elif kind == "a = 0":
        t[0] = 0.0
    elif kind == "commuting":
        mu = rng.normal(size=3)
        t[0, 1:] = 0.0
        t[1:, 1:] = np.outer(t[1:, 1], mu)
    elif kind == "delta":
        t = np.array([[1.0, 0, 0, 0], [0, 1, 0, 0], [0, 1, delta, 0]])
    return t


@given(st.lists(st.tuples(st.sampled_from(["generic", "spread", "a = 0", "commuting",
                                           "delta"]),
                          st.integers(0, 2 ** 32 - 1), st.floats(-12, -2),
                          st.integers(-900, 900)), min_size=1, max_size=8))
@settings(max_examples=200, deadline=None)
def test_stack_pass_is_bitwise_classify_3x3(spec):
    # every SpectrumReport field of the array pass is that of one scalar
    # call per triple, on every kind of triple, across the 1e-10 boundary
    # of the delta family and at 2^k scalings whose s may overflow
    entries = np.array([np.ldexp(_triple_of_kind(kind, seed, 10.0 ** d), k)
                        for kind, seed, d, k in spec])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stacked = _stack_reports(entries)
        singles = [classify_3x3(t) for t in entries]
    assert [repr(dataclasses.astuple(r)) for r in stacked] == \
        [repr(dataclasses.astuple(r)) for r in singles]


def test_stack_pass_overflowing_s_is_inf_quietly():
    # s = 1e401 for the degenerate triple; the solid one's gap is about
    # |a|^-1 |b| |c| = 2^1053
    entries = np.array([[[0.0, 0, 0, 0], [1e200, 1, 0, 0], [3e200, 0, 0, 0]],
                        np.ldexp([[2.0 ** -30, 0, 0, 0], [0, 1, 1, 0], [0, 1, 2, 0]], 1022)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        degenerate, solid = _stack_reports(entries)
        assert (degenerate, solid) == tuple(classify_3x3(t) for t in entries)
    assert degenerate.predicted_values == [0.0, math.inf, math.inf]
    assert solid.case_label == "solid" and math.isinf(solid.condition_lhs_rhs_gap)


def test_delta_family_crosses_the_gap_threshold_in_both_evaluations():
    deltas = 10.0 ** np.arange(-12.0, -1.0)
    entries = np.array([_triple_of_kind("delta", 0, d) for d in deltas])
    labels = [r.case_label for r in _stack_reports(entries)]
    assert labels == [classify_3x3(t).case_label for t in entries]
    assert labels[0] == "degenerate" and labels[-1] == "solid"


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


class _RejectingTries:
    """A generator that draws from default_rng(seed), except that the
    tries (twelve components each) numbered in rejected have a = 0, which
    the classification rejects."""

    def __init__(self, seed, rejected):
        self.rng, self.rejected, self.quats = np.random.default_rng(seed), rejected, 0

    def uniform(self, low, high, size):
        x = self.rng.uniform(low, high, size)
        for i, q in enumerate(x.reshape(-1, 4), start=self.quats):
            if i % 3 == 0 and i // 3 in self.rejected:
                q[:] = 0.0
        self.quats += x.size // 4
        return x


def _generic_one_try_at_a_time(rng, count):
    """count generic triples as single calls drew them, three quaternions
    of four components per try, each try classified by classify_3x3."""
    found = []
    while len(found) < count:
        t = [rng.uniform(-1, 1, 4) for _ in range(3)]
        if classify_3x3(t).case_label == "solid":
            found.append(t)
    return np.array(found).reshape(-1, 3, 4)


@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 25),
       st.sets(st.integers(0, 30), max_size=4))
@settings(max_examples=40, deadline=None)
def test_block_sampler_draws_the_triples_of_successive_calls(seed, count, rejected):
    one, block = _RejectingTries(seed, rejected), _RejectingTries(seed, rejected)
    expected = _generic_one_try_at_a_time(one, count)
    got = sample_generic_triple(block, count)
    assert got.shape == (count, 3, 4) and np.array_equal(got, expected)
    assert block.rng.bit_generator.state == one.rng.bit_generator.state
    # the single call is the block of one
    one, single = _RejectingTries(seed, rejected), _RejectingTries(seed, rejected)
    t = sample_generic_triple(single)
    assert isinstance(t, SkewTriple)
    assert np.array_equal([t.a.components(), t.b.components(), t.c.components()],
                          _generic_one_try_at_a_time(one, 1)[0])
    assert single.rng.bit_generator.state == one.rng.bit_generator.state
    # degenerate draws: count single calls against one call with count
    one, block = np.random.default_rng(seed), np.random.default_rng(seed)
    singles = [sample_degenerate_triple(one) for _ in range(count)]
    got = sample_degenerate_triple(block, count)
    assert got.shape == (count, 3, 4)
    assert np.array_equal(got, np.reshape([[q.components() for q in (t.a, t.b, t.c)]
                                           for t in singles], (-1, 3, 4)))
    assert block.bit_generator.state == one.bit_generator.state


def test_block_sampler_redraws_only_the_rejected_tries():
    stub = _RejectingTries(7, {0, 3})
    calls = []
    draw = stub.uniform
    stub.uniform = lambda *args: calls.append(args[2]) or draw(*args)
    got = sample_generic_triple(stub, 4)
    # tries 0 and 3 of the first block are rejected; the second block
    # draws two tries, both kept
    assert calls == [(4, 3, 4), (2, 3, 4)]
    assert np.array_equal(got, _generic_one_try_at_a_time(_RejectingTries(7, {0, 3}), 4))


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


def test_search_gap_tol_beyond_the_float_range_finds_no_hit():
    # the floor gap_tol * lam_max overflows to inf, without a warning (which
    # pytest turns into an error), and no spectrum clears it; below that the
    # hits stay those of a finite floor
    assert basic_candidate_search(4, 3, 0, gap_tol=1e308) == []
    assert basic_candidate_search(4, 64, 0, gap_tol=1e-300)


def test_search_hits_do_not_depend_on_block_size(monkeypatch):
    # 260 trials at n = 8 cross the boundary of its blocks of 256; in
    # blocks of 7, each below the size at which the eigensolver takes
    # Newton steps, 60 trials cross eight boundaries and 260 many more
    sizes = [(4, 60), (8, 260)]
    default = [[json.dumps(x.to_dict(), sort_keys=True)
                for x in basic_candidate_search(n, trials, 11)] for n, trials in sizes]
    monkeypatch.setattr(qskew.skew, "_search_block", lambda n: 7)
    small = [[json.dumps(x.to_dict(), sort_keys=True)
              for x in basic_candidate_search(n, trials, 11)] for n, trials in sizes]
    assert all(default) and small == default


def test_search_block_rule():
    # as many trials as fit in 2^14 quaternion entries, and at least 64
    rule = qskew.skew._search_block
    assert [rule(n) for n in (4, 5, 8, 16, 64)] == [1024, 655, 256, 64, 64]


def test_search_solves_a_block_per_eigensolver_call(monkeypatch):
    calls = []
    solve = qskew.spectra.herm_eig

    def counting(h, *tol):
        calls.append(len(h))
        return solve(h, *tol)

    monkeypatch.setattr(qskew.spectra, "herm_eig", counting)
    block = qskew.skew._search_block(4)
    for trials in (0, 1, block, 2 * block + 1):
        calls.clear()
        basic_candidate_search(4, trials, 3)
        assert len(calls) == math.ceil(trials / block)
        assert sum(calls) == trials
    monkeypatch.setattr(qskew.skew, "_search_block", lambda n: 7)
    calls.clear()
    basic_candidate_search(4, 60, 11)
    assert calls == [7] * 8 + [4]


def test_search_builds_few_matrices_per_trial(monkeypatch):
    # per block: one stack from sampling and five in gram_product
    # (Z*, Z Z*, conj(Z), Z conj(Z) and its negation); the Hermitian check
    # and chi work on the stack of W.  A hit and its to_dict read arrays,
    # so no hit builds a matrix of its own until its matrix is read
    calls = []
    init = QuatMatrix.__init__

    def counting(self, data):
        calls.append(1)
        init(self, data)

    monkeypatch.setattr(QuatMatrix, "__init__", counting)
    block = qskew.skew._search_block(4)
    hits = basic_candidate_search(4, 2 * block + 2, 5)
    assert hits
    for hit in hits:
        hit.to_dict()
    assert len(calls) <= 6 * 3
    calls.clear()
    z = hits[0].matrix
    assert len(calls) == 1 and z.data.tobytes() == hits[0].data.tobytes()


def splitmix64(seed, trial):
    """The per-trial key in Python integers, the reference for trial_seed."""
    mask = (1 << 64) - 1
    z = (int(seed) + (trial + 1) * 0x9E3779B97F4A7C15) & mask
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & mask
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


@pytest.mark.parametrize("seed", [0, 5, -1, -(2**64) - 3, 2**63, 2**64 - 1, 2**64 + 3, 3 * 2**70 + 11])
def test_trial_keys_are_trial_seed(seed):
    for first, stop in ((0, 0), (0, 1), (0, 100), (1023, 1025), (2**40, 2**40 + 5),
                        (-3, 2), (2**64 - 2, 2**64 + 1), (-(2**70), -(2**70) + 2)):
        keys = qskew.skew._trial_keys(seed, first, stop)
        assert keys.dtype == np.uint64
        expect = [splitmix64(seed, t) for t in range(first, stop)]
        assert keys.tolist() == [trial_seed(seed, t) for t in range(first, stop)] == expect


def test_search_hits_copy_only_their_slices(monkeypatch):
    blocks = []
    sample = qskew.skew.random_skew_symmetric

    def keeping(*args):
        blocks.append(sample(*args))
        return blocks[-1]

    monkeypatch.setattr(qskew.skew, "random_skew_symmetric", keeping)
    monkeypatch.setattr(qskew.skew, "_search_block", lambda n: 64)
    hits = basic_candidate_search(4, 3 * 64, 2, gap_tol=0.05)  # some trials miss
    assert len(blocks) == 3
    for b, block in enumerate(blocks):
        inside = [h for h in hits if h.trial // 64 == b]
        assert 0 < len(inside) < 64
        for hit in inside:
            assert hit.data.tobytes() == block.data[hit.trial % 64].tobytes()
            assert not np.shares_memory(hit.data, block.data)
            # the copy holds this block's hits, not the block
            owner = hit.data if hit.data.base is None else hit.data.base
            assert owner.nbytes == len(inside) * hit.data.nbytes
            assert type(hit.eigenvalues) is np.ndarray and type(hit.min_relative_gap) is float


def test_search_samples_and_solves_a_block_per_call(monkeypatch):
    counts = collections.Counter()

    def spy(owner, name):
        real = getattr(owner, name)

        def counting(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)

    names = ("random_skew_symmetric", "gram_product", "chi")
    spy(qskew.skew, names[0])
    spy(qskew.spectra, names[1])
    spy(QuatMatrix, names[2])
    block = qskew.skew._search_block(4)
    for trials in (0, 1, block, 2 * block + 1):
        counts.clear()
        basic_candidate_search(4, trials, 3)
        assert [counts[name] for name in names] == [math.ceil(trials / block)] * 3


def test_search_hits_match_a_numpy_oracle():
    # each trial redrawn from its own Philox stream, W = Z Z* formed in the
    # pair form Z = Z_c + Z_d j, where (Z*)_c = Z_c^H and (Z*)_d = -Z_d^T,
    # and its right spectrum taken from eigvalsh of the adjoint chi(W)
    n, trials, seed, gap_tol = 4, 200, 0, 1e-3
    found = {hit.trial: hit for hit in basic_candidate_search(n, trials, seed)}
    upper = np.triu_indices(n, 1)
    expect, near = {}, set()
    for t in range(trials):
        rng = np.random.Generator(np.random.Philox(key=trial_seed(seed, t)))
        z = np.zeros((n, n, 4))
        z[upper] = rng.uniform(-1.0, 1.0, (len(upper[0]), 4))
        z[upper[::-1]] = -z[upper]
        zc, zd = z[..., 0] + 1j * z[..., 1], z[..., 2] + 1j * z[..., 3]
        wc = zc @ zc.conj().T + zd @ zd.conj().T
        wd = zd @ zc.T - zc @ zd.T
        values = np.linalg.eigvalsh(np.block([[wc, wd], [-wd.conj(), wc.conj()]]))[::2]
        margins = np.array([values[0], np.diff(values).min()]) / values[-1] - gap_tol
        if np.abs(margins).min() <= 1e-9:
            near.add(t)
        elif (margins > 0).all():
            expect[t] = values
    assert len(expect) > trials // 2
    assert set(found) - near == set(expect)
    for t, values in expect.items():
        np.testing.assert_allclose(found[t].eigenvalues, values, rtol=0.0,
                                   atol=1e-12 * values[-1])


def test_right_spectra_of_a_list_match_one_by_one():
    ws = [gram_product(random_skew_symmetric(4, trial_seed(5, t)))
          for t in range(6)]
    stacked = right_eigenvalues_hermitian(QuatMatrix(np.stack([w.data for w in ws])))
    assert stacked.values.shape == (6, 4)
    assert stacked.trace_residual.shape == (6,)
    for w, values, residual in zip(ws, stacked.values, stacked.trace_residual):
        alone = right_eigenvalues_hermitian(w)
        np.testing.assert_array_equal(values, alone.values)
        np.testing.assert_array_equal(residual, alone.trace_residual)
    # the trace and Hermitian checks still apply to each slice
    bad = np.stack([w.data for w in ws[:2]] + [random_skew_symmetric(4, 1).data])
    with pytest.raises(ValueError, match=r"not Hermitian \(slice 2\)$"):
        right_eigenvalues_hermitian(bad)


@given(st.sampled_from([3, 4]),
       st.lists(st.tuples(st.sampled_from(["solid", "degenerate", "random", "zero"]),
                          st.integers(min_value=-900, max_value=500), st.booleans()),
                min_size=1, max_size=6),
       st.integers(min_value=0, max_value=10**6))
@settings(max_examples=40, deadline=None)
def test_verdicts_on_a_stack_match_single_calls(n, slices, seed):
    # is_solid and quaternion_even_multiplicity_check of a stack of Z, and
    # the definiteness tests of a stack of W = Z Z* or -W, give the list of
    # their single-call verdicts; each slice is a solid or degenerate 3x3
    # (at n = 4 a random 4x4), a random or the zero matrix, at its own 2^k
    rng = np.random.default_rng(seed)
    zs, ws = [], []
    for kind, k, negate in slices:
        if kind == "zero":
            z = QuatMatrix.zeros(n)
        elif kind == "random" or n == 4:
            z = random_skew_symmetric(n, int(rng.integers(2 ** 32)))
        else:
            z = (sample_generic_triple(rng) if kind == "solid"
                 else sample_degenerate_triple(rng)).matrix()
        zs.append(np.ldexp(z.data, k))
        # W at unit size, then at 2^k, so that it stays in range
        ws.append(np.ldexp(gram_product(z).data, k) * (-1.0 if negate else 1.0))
    verdicts = ((is_solid, zs), (quaternion_even_multiplicity_check, zs),
                (qskew.spectra.is_positive_definite, ws),
                (qskew.spectra.is_positive_semidefinite, ws))
    for verdict, inputs in verdicts:
        alone = [verdict(QuatMatrix(x)) for x in inputs]
        assert all(type(v) is bool for v in alone), verdict.__name__
        stacked = verdict(QuatMatrix(np.array(inputs)))
        assert stacked.dtype == bool and stacked.shape == (len(inputs),)
        assert stacked.tolist() == alone, verdict.__name__
    # the zero matrix is semidefinite, not definite, and has no positive value
    zero = QuatMatrix.zeros(n)
    assert [verdict(zero) for verdict, _ in verdicts] == [False, True, False, True]


@given(st.lists(st.sampled_from(["random", "generic", "degenerate"]), min_size=1,
                max_size=6),
       st.sampled_from([2, 3, 4]), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=40, deadline=None)
def test_stacked_inverses_match_single_calls(kinds, n, seed):
    # quat_inverse and inverse_skew_report of a (B, n, n, 4) stack, one LU
    # call, give each slice bitwise its own call; degenerate 3x3 slices are
    # singular between invertible ones
    rng = np.random.default_rng(seed)
    if n != 3:
        kinds = ["random"] * len(kinds)
    slices = [random_skew_symmetric(n, int(rng.integers(2 ** 32))) if kind == "random"
              else (sample_generic_triple(rng) if kind == "generic"
                    else sample_degenerate_triple(rng)).matrix() for kind in kinds]
    stack = QuatMatrix(np.array([z.data for z in slices]))
    reports = inverse_skew_report(stack)
    inverses, invertible = qskew.spectra.quat_inverse(stack)
    assert isinstance(reports, list) and len(reports) == len(slices)
    assert invertible.tolist() == [r.invertible for r in reports]
    assert invertible.tolist() == [kind != "degenerate" for kind in kinds]
    for b, (z, report) in enumerate(zip(slices, reports)):
        assert report.to_dict() == inverse_skew_report(z).to_dict()
        if report.invertible:
            alone = qskew.spectra.quat_inverse(z).data
            assert inverses.data[b].tobytes() == alone.tobytes()
            assert report.inverse.data.tobytes() == alone.tobytes()
        else:
            assert not inverses.data[b].any()
    one = inverse_skew_report(QuatMatrix(stack.data[:1]))
    assert [r.to_dict() for r in one] == [reports[0].to_dict()]


def test_degenerate_inverses_at_tiny_scale_are_singular_quietly():
    # at 1e-300 a failed pivot can be subnormal; the elimination runs on past
    # it, through an overflowing division, and must neither warn (an error
    # under pytest) nor flag the slice invertible
    rng = np.random.default_rng(61)
    zs = QuatMatrix(np.array([sample_degenerate_triple(rng).matrix().scale(1e-300).data
                              for _ in range(20)]))
    assert not any(report.invertible for report in inverse_skew_report(zs))
    assert not any(inverse_skew_report(QuatMatrix(z)).invertible for z in zs.data)


def test_stacked_inverse_names_a_slice_that_is_not_skew():
    z = random_skew_symmetric(3, [1, 2, 3]).data.copy()
    z[1, 0, 0, 0] = 1.0
    with pytest.raises(ValueError, match=r"skew-symmetric matrix \(slice 1\)$"):
        inverse_skew_report(z)


@given(st.lists(st.booleans(), max_size=8), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=40, deadline=None)
def test_verify_classification_list_matches_single_calls(solid, seed):
    rng = np.random.default_rng(seed)
    triples = [sample_generic_triple(rng) if s else sample_degenerate_triple(rng)
               for s in solid]
    # a triple may also be given as its entries (a, b, c)
    given_as = [t if k % 2 else (t.a, t.b, t.c) for k, t in enumerate(triples)]
    reports = verify_classification(given_as)
    assert isinstance(reports, list) and len(reports) == len(triples)
    for report, entries, triple in zip(reports, given_as, triples):
        for single in (verify_classification(triple), verify_classification(entries)):
            for f in dataclasses.fields(single):
                assert getattr(report, f.name) == getattr(single, f.name), f.name


def test_search_rejects_negative_trials():
    with pytest.raises(ValueError, match="trials must be nonnegative"):
        basic_candidate_search(4, -1, 0)


def test_classify_3x3_takes_raw_entries():
    entries = (Quaternion(1), I + J, I + 2 * J)
    assert classify_3x3(entries) == classify_3x3(SkewTriple(*entries))
