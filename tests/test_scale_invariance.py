"""Verdicts do not change when the input is scaled.

The paper's contrasts (odd multiplicities of W = Z Z*, an inverse that
leaves the skew class) are the same for c Z as for Z, and every tolerance
in the package is relative to the magnitude of the input it judges.  The
properties below scale by c = 10^e with e in [-12, 12], and the sigmas of
the canonical pair form with e in [-300, 300]; the pinned cases are small
and large inputs whose verdict an absolute max(1, ...) floor would flip,
or whose squared entries leave the float range.  A power of two c = 2^k
scales the input exactly, and every entry point works on the input
scaled to unit size, so there each result is bitwise c (or c^2) times its
value at c = 1, with k in [-900, 900] wherever that result stays below
the overflow threshold; lu_inverse's is bitwise 1/c times its value, with
k in [-1000, 1000] wherever the input and the inverse stay normal.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from qskew import (DualQuatMatrix, QuatMatrix, Quaternion, SkewTriple,
                   basic_candidate_search, classify_3x3,
                   even_multiplicity_check, gram_product, hua_decompose, I, J,
                   herm_eig, is_dq_hermitian, is_solid,
                   quaternion_even_multiplicity_check,
                   random_skew_symmetric, right_eigenvalues_hermitian,
                   sample_degenerate_triple, sample_generic_triple, save_matrix,
                   verify_classification)
from qskew.cli import main
from qskew.clinalg import frobenius_norm, lu_inverse

SCALES = st.floats(min_value=-12, max_value=12).map(lambda e: 10.0 ** e)
WIDE_SCALES = st.floats(min_value=-300, max_value=300).map(lambda e: 10.0 ** e)
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
POWERS = st.integers(min_value=-900, max_value=900)
LU_POWERS = st.integers(min_value=-1000, max_value=1000)
# c^2 = 2^(2k) times a squared result of size up to about 20 stays finite
# while k <= 500
SQUARED_POWERS = st.integers(min_value=-900, max_value=500)
# a search draws entries up to 2^k, so W = Z Z* stays finite while k <= 250
SEARCH_POWERS = st.integers(min_value=-900, max_value=250)
# herm_eig scales a Hermitian H before it sums a_ij and conj(a_ji), so 2^k H
# with eigenvalues in [1, 2) stays in range up to the largest power, 2^1023
HERM_POWERS = st.integers(min_value=-1000, max_value=1023)


def scaled_triple(t, c):
    return SkewTriple(t.a * c, t.b * c, t.c * c)


def complex_skew(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return m - m.T


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


def inverse_verdict(z):
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "z.json")
        save_matrix(path, z)
        lines = run_cli(["inverse-check", path]).splitlines()
    return next(ln for ln in lines if ln.startswith("inverse stays skew"))


def spectrum_json(z):
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "z.json")
        save_matrix(path, z)
        return json.loads(run_cli(["spectrum", path, "--json"]))


@given(SCALES, SEEDS)
@settings(max_examples=40, deadline=None)
def test_structure_predicates(c, seed):
    z = random_skew_symmetric(4, seed)
    w = gram_product(z)
    # relative bumps that break skewness and Hermitian symmetry
    bump = np.zeros((4, 4, 4))
    bump[0, 1, 2] = 1e-6
    not_skew = z + QuatMatrix(bump * z.max_abs())
    not_hermitian = w + QuatMatrix(bump * w.max_abs())
    assert z.scale(c).is_skew_symmetric()
    assert w.scale(c).is_hermitian()
    assert not not_skew.scale(c).is_skew_symmetric()
    assert not not_hermitian.scale(c).is_hermitian()


@given(SCALES, SEEDS)
@settings(max_examples=40, deadline=None)
def test_solidity_and_classification(c, seed):
    rng = np.random.default_rng(seed)
    for triple, label in ((sample_generic_triple(rng), "solid"),
                          (sample_degenerate_triple(rng), "degenerate")):
        small = scaled_triple(triple, c)
        assert classify_3x3(triple).case_label == label
        assert classify_3x3(small).case_label == label
        assert is_solid(small.matrix()) == (label == "solid")


@given(SCALES, SEEDS)
@settings(max_examples=30, deadline=None)
def test_even_multiplicity_checks(c, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    assert even_multiplicity_check(c * complex_skew(rng, n))
    z = random_skew_symmetric(4, seed)
    assert (quaternion_even_multiplicity_check(z.scale(c))
            == quaternion_even_multiplicity_check(z))


@given(POWERS, SEEDS)
@settings(max_examples=40, deadline=None)
# at 2^-560 W of a solid 3x3 underflows to 0, and at 2^520 W overflows,
# unless Z is unit_scaled before it is squared
@example(k=-560, seed=0)
@example(k=520, seed=0)
def test_quaternion_verdicts_scale_by_powers_of_two(k, seed):
    rng = np.random.default_rng(seed)
    for z in (sample_generic_triple(rng).matrix(),
              sample_degenerate_triple(rng).matrix(), random_skew_symmetric(4, seed)):
        scaled = z.scale(math.ldexp(1.0, k))
        assert is_solid(scaled) == is_solid(z)
        assert (quaternion_even_multiplicity_check(scaled)
                == quaternion_even_multiplicity_check(z))


@given(SCALES, SEEDS)
@settings(max_examples=30, deadline=None)
def test_spectra_and_sigmas_scale(c, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    z = random_skew_symmetric(n, seed)
    base = right_eigenvalues_hermitian(gram_product(z)).values
    scaled = right_eigenvalues_hermitian(gram_product(z.scale(c))).values
    np.testing.assert_allclose(scaled / c**2, base, rtol=0, atol=1e-12 * base.max())

    zc = complex_skew(rng, n)
    base = np.array(hua_decompose(zc).sigmas)
    scaled = np.array(hua_decompose(c * zc).sigmas)
    assert scaled.shape == base.shape
    np.testing.assert_allclose(scaled / c, base, rtol=0, atol=1e-12 * base.max())


@given(WIDE_SCALES, SEEDS)
@settings(max_examples=30, deadline=None)
def test_sigmas_scale_across_the_float_range(c, seed):
    # Z Z* under- or overflows beyond about 1e+-154 unless Z is scaled first
    rng = np.random.default_rng(seed)
    z = complex_skew(rng, int(rng.integers(2, 7)))
    base = np.array(hua_decompose(z).sigmas)
    form = hua_decompose(c * z)
    scaled = np.array(form.sigmas)
    assert scaled.shape == base.shape
    np.testing.assert_allclose(scaled / c, base, rtol=0, atol=1e-12 * base.max())
    assert form.residual <= 1e-8 * c * np.sqrt(np.vdot(z, z).real)
    assert even_multiplicity_check(c * z)


@given(POWERS, SEEDS)
@settings(max_examples=40, deadline=None)
def test_norms_scale_exactly_by_powers_of_two(k, seed):
    rng = np.random.default_rng(seed)
    c = math.ldexp(1.0, k)
    a = rng.normal(size=(3, 4, 5)) + 1j * rng.normal(size=(3, 4, 5))
    assert frobenius_norm(c * a) == math.ldexp(frobenius_norm(a), k)
    np.testing.assert_array_equal(frobenius_norm(c * a.real, axis=(1, 2)),
                                  np.ldexp(frobenius_norm(a.real, axis=(1, 2)), k))
    comps = rng.normal(size=4)
    q, qc = Quaternion(*comps), Quaternion(*(c * comps))
    assert abs(qc) == math.ldexp(abs(q), k)
    assert qc.inverse().components() == tuple(math.ldexp(x, -k)
                                             for x in q.inverse().components())


@given(POWERS, SQUARED_POWERS, SEEDS)
@settings(max_examples=40, deadline=None)
# seed 1 draws a degenerate triple with a = 0: a zero entry must not pin
# the unit scaling, or the tiny b and c are squared into subnormals
@example(k=0, k2=-511, seed=1)
def test_classification_scales_exactly_by_powers_of_two(k, k2, seed):
    rng = np.random.default_rng(seed)
    solid = sample_generic_triple(rng)
    base = classify_3x3(solid).condition_lhs_rhs_gap
    report = classify_3x3(scaled_triple(solid, math.ldexp(1.0, k)))
    assert report.condition_lhs_rhs_gap == math.ldexp(base, k)
    degenerate = sample_degenerate_triple(rng)
    base = classify_3x3(degenerate)
    report = classify_3x3(scaled_triple(degenerate, math.ldexp(1.0, k2)))
    assert report.case_label == "degenerate"
    assert report.condition_lhs_rhs_gap == math.ldexp(base.condition_lhs_rhs_gap, k2)
    assert report.predicted_values == [math.ldexp(v, 2 * k2)
                                       for v in base.predicted_values]


def normal(a):
    """Whether every real and imaginary part of a is finite and, unless
    zero, not subnormal, so that scaling it by 2^k is exact both ways."""
    parts = np.abs(np.asarray(a, dtype=complex).view(float))
    return bool(np.isfinite(parts).all()
                and (parts[parts != 0] >= np.finfo(float).tiny).all())


@given(LU_POWERS, st.integers(min_value=1, max_value=6),
       st.lists(st.sampled_from(["random", "zero", "singular"]), min_size=1, max_size=4),
       SEEDS)
@settings(max_examples=60, deadline=None)
@example(k=-1000, n=3, kinds=["random", "singular"], seed=0)
@example(k=1000, n=3, kinds=["singular", "random"], seed=0)
def test_lu_inverse_scales_exactly_by_powers_of_two(k, n, kinds, seed):
    # each slice is factored unit_scaled, so 2^k A gives bitwise 2^-k A^-1,
    # one matrix or a stack, and a singular slice stays singular
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(len(kinds), n, n)) + 1j * rng.normal(size=(len(kinds), n, n))
    for b, kind in enumerate(kinds):
        if kind == "zero":
            a[b] = 0.0
        elif kind == "singular":
            a[b, :, -1] = a[b, :, :-1] @ rng.normal(size=n - 1) if n > 1 else 0.0
    scaled = np.ldexp(a.view(float), k).view(complex)
    inverses, invertible = lu_inverse(a)
    with np.errstate(over="ignore"):
        expect = np.ldexp(inverses.view(float), -k).view(complex)
    assume(normal(scaled) and normal(inverses) and normal(expect))
    got, flags = lu_inverse(scaled)
    assert flags.tolist() == invertible.tolist()
    assert got.tobytes() == expect.tobytes()
    if invertible[0]:
        assert lu_inverse(scaled[0]).tobytes() == expect[0].tobytes()


@given(HERM_POWERS, st.integers(min_value=1, max_value=6), st.booleans(), SEEDS)
@settings(max_examples=40, deadline=None)
@example(k=1023, n=1, quaternion=False, seed=0)
@example(k=1023, n=3, quaternion=True, seed=0)
def test_herm_eig_scales_exactly_by_powers_of_two(k, n, quaternion, seed):
    # a complex H, or a quaternion one as [A_c | A_d], with eigenvalues of
    # magnitude up to [1, 2): 2^k H gives bitwise 2^k times its eigenvalues
    # wherever they stay normal, up to k = 1023, where entries above half
    # the float maximum overflow any sum of two of them
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = h + h.conj().T
    if quaternion:
        d = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        h = np.concatenate([h, d - d.T], axis=1)
    top = np.frexp(np.abs(herm_eig(h)).max())[1]
    h = np.ldexp(h.view(float), 1 - top).view(complex)
    scaled = np.ldexp(h.view(float), k).view(complex)
    assume(normal(scaled))
    expect = np.ldexp(herm_eig(h), k)
    keep = np.abs(expect) >= np.finfo(float).tiny
    assert herm_eig(scaled)[keep].tobytes() == expect[keep].tobytes()


def test_degenerate_s_scales_exactly():
    # with s summed from ** (libm pow), s(2 Z) was 3.1278456104179715
    # against 4 s(Z) = 3.127845610417971
    triple = SkewTriple(Quaternion(0), Quaternion(0.6851725349169309, 0.25),
                        Quaternion(0.5))
    s = classify_3x3(triple).predicted_values[1]
    for k in (1, -300, 300):
        scaled = classify_3x3(scaled_triple(triple, math.ldexp(1.0, k)))
        assert scaled.predicted_values[1] == math.ldexp(s, 2 * k)


@given(POWERS, SEEDS)
@settings(max_examples=30, deadline=None)
def test_hua_scales_exactly_by_powers_of_two(k, seed):
    rng = np.random.default_rng(seed)
    z = complex_skew(rng, int(rng.integers(2, 7)))
    base, form = hua_decompose(z), hua_decompose(math.ldexp(1.0, k) * z)
    np.testing.assert_array_equal(form.u, base.u)
    assert form.sigmas == [math.ldexp(s, k) for s in base.sigmas]
    assert form.zero_dim == base.zero_dim
    assert form.residual == math.ldexp(base.residual, k)


@given(SQUARED_POWERS, SEEDS)
@settings(max_examples=15, deadline=None)
def test_spectrum_cli_scales_exactly_by_powers_of_two(k, seed):
    z = random_skew_symmetric(3 + seed % 4, seed)
    base = spectrum_json(z)
    out = spectrum_json(z.scale(math.ldexp(1.0, k)))
    for key in ("values", "trace_residual"):
        assert out["spectrum"][key] == np.ldexp(base["spectrum"][key], 2 * k).tolist()
    assert out["gram"]["entries"] == np.ldexp(base["gram"]["entries"], 2 * k).tolist()
    assert out["solid"] == base["solid"]


def assert_squared_where_normal(got, base, k):
    """got equals base times 4^k bitwise wherever that is a normal float."""
    expect = np.ldexp(base, 2 * k)
    normal = np.abs(expect) >= np.finfo(float).tiny
    assert np.array(got)[normal].tolist() == expect[normal].tolist()


@given(SEARCH_POWERS, SEEDS)
@settings(max_examples=15, deadline=None)
# at 2^-600 W of the drawn Z underflows to 0, unless Z is scaled up first
@example(k=-600, seed=3)
def test_search_scales_exactly_by_powers_of_two(k, seed):
    n = 4 + seed % 3
    base = basic_candidate_search(n, 70, seed)
    hits = basic_candidate_search(n, 70, seed, scale=math.ldexp(1.0, k))
    assert [h.trial for h in hits] == [h.trial for h in base]
    assert [h.min_relative_gap for h in hits] == [h.min_relative_gap for h in base]
    for hit, ref in zip(hits, base):
        assert_squared_where_normal(hit.eigenvalues, ref.eigenvalues, k)


@given(SQUARED_POWERS, SEEDS)
@settings(max_examples=30, deadline=None)
@example(k=-600, seed=0)
def test_verify_classification_scales_exactly_by_powers_of_two(k, seed):
    rng = np.random.default_rng(seed)
    triples = [sample_generic_triple(rng), sample_degenerate_triple(rng)]
    base = verify_classification(triples)
    scaled = [scaled_triple(t, math.ldexp(1.0, k)) for t in triples]
    reports = verify_classification(scaled)
    for report, ref in zip(reports, base):
        assert report.case_label == ref.case_label
        assert_squared_where_normal(report.computed_values, ref.computed_values, k)
    assert verify_classification(scaled[0]).computed_values == reports[0].computed_values


@given(SCALES, SEEDS)
@settings(max_examples=15, deadline=None)
def test_inverse_check_verdict(c, seed):
    rng = np.random.default_rng(seed)
    two = random_skew_symmetric(2, seed)
    assert inverse_verdict(two.scale(c)).endswith("yes")
    solid = sample_generic_triple(rng).matrix()
    assert inverse_verdict(solid.scale(c)).endswith("no")


def test_inverse_check_verdict_at_extreme_scales():
    # the LU pivot threshold is tol * ||Z||_F, summed without under- or
    # overflow, so neither 1e-160 nor 1e160 (entries squared out of the
    # float range) changes the verdict
    rng = np.random.Generator(np.random.Philox(key=3))
    two = random_skew_symmetric(2, 3)
    solid = sample_generic_triple(rng).matrix()
    for c in (1e-160, 1e160):
        assert inverse_verdict(two.scale(c)) == "inverse stays skew-symmetric: yes"
        assert inverse_verdict(solid.scale(c)) == "inverse stays skew-symmetric: no"


# -- inputs far from unit scale that an absolute floor misjudges ---------------

@pytest.mark.parametrize("c", [1.0, 1e-300, 1e-310])
def test_inverse_check_of_subnormal_degenerate_3x3(tmp_path, capsys, c):
    # at 1e-310 every entry is subnormal; LU factors the matrix scaled to
    # unit size, so no pivot is subnormal and no RuntimeWarning is raised
    path = str(tmp_path / "z.json")
    save_matrix(path, sample_degenerate_triple(np.random.default_rng(0)).matrix().scale(c))
    assert main(["inverse-check", path]) == 0
    assert capsys.readouterr() == ("invertible: no\n", "")
    assert main(["inverse-check", "--json", path]) == 0
    assert json.loads(capsys.readouterr().out)["invertible"] is False


def test_inverse_check_of_subnormal_solid_3x3(tmp_path, capsys):
    # its inverse, about 1e310, lies beyond the float range: a contract
    # violation on stderr, with no RuntimeWarning
    path = str(tmp_path / "z.json")
    save_matrix(path, sample_generic_triple(np.random.default_rng(0)).matrix().scale(1e-310))
    for flags in ([], ["--json"]):
        assert main(["inverse-check", path] + flags) == 3
        assert capsys.readouterr() == (
            "", "math contract violation: lu_inverse: the inverse lies beyond "
                "the float range\n")


def test_spectrum_of_small_solid_matrix(tmp_path):
    # at 1e-160 the entries' squares are subnormal and 1 / |a|^2 overflows
    path = str(tmp_path / "z.json")
    for c in (1e-8, 1e-160):
        save_matrix(path, random_skew_symmetric(3, 5).scale(c))
        out = json.loads(run_cli(["spectrum", path, "--json"]))
        assert out["solid"] is True
        assert out["classification"]["case_label"] == "solid"
        assert out["classification_agrees"] is True


def test_small_quaternion_matrix_breaks_even_multiplicity():
    assert not quaternion_even_multiplicity_check(
        random_skew_symmetric(4, 3).scale(1e-8))


def test_inverse_of_large_solid_3x3_leaves_the_skew_class():
    rng = np.random.Generator(np.random.Philox(key=1))
    z = sample_generic_triple(rng).matrix().scale(1e12)
    assert inverse_verdict(z) == "inverse stays skew-symmetric: no"


def test_small_reference_triple_is_solid():
    triple = SkewTriple(Quaternion(1), I + J, I + 2 * J)
    assert classify_3x3(scaled_triple(triple, 1e-12)).case_label == "solid"


def test_classification_beyond_the_float_square_range():
    # squares of the components, or of those of a^-1, under- or overflow
    rng = np.random.Generator(np.random.Philox(key=7))
    for triple, label in ((sample_generic_triple(rng), "solid"),
                          (sample_degenerate_triple(rng), "degenerate")):
        base = classify_3x3(triple)
        assert base.case_label == label
        for c in (1e-300, 1e-160, 1e150):
            report = classify_3x3(scaled_triple(triple, c))
            assert report.case_label == label
            if label == "solid":
                assert report.condition_lhs_rhs_gap == pytest.approx(
                    c * base.condition_lhs_rhs_gap, rel=1e-12)
            elif c > 1:  # below 1, c^2 s is subnormal or zero
                assert report.predicted_values[1] == pytest.approx(
                    c * c * base.predicted_values[1], rel=1e-12)


def test_hua_cli_beyond_the_float_square_range(tmp_path):
    z = complex_skew(np.random.default_rng(4), 5)
    base = np.array(hua_decompose(z).sigmas)
    path = str(tmp_path / "z.json")
    save_matrix(path, 1e170 * z)
    out = json.loads(run_cli(["hua", path, "--json"]))
    np.testing.assert_allclose(np.array(out["sigmas"]) / 1e170, base, rtol=1e-12)


def test_hua_of_small_matrix_keeps_its_sigma():
    z = 1e-12 * np.array([[0, 1 + 2j, 3j], [-(1 + 2j), 0, 1], [-3j, -1, 0]])
    form = hua_decompose(z)
    assert form.zero_dim == 1
    np.testing.assert_allclose(form.sigmas, [1e-12 * np.sqrt(15.0)], rtol=1e-12)


def test_zero_matrix():
    # every floor is 0: <= tests accept zero, > tests reject it
    zero = QuatMatrix.zeros(3)
    assert zero.is_hermitian() and zero.is_skew_symmetric()
    assert zero.allclose(zero, tol=0.0)
    assert QuatMatrix.from_chi(zero.chi()).allclose(zero, tol=0.0)
    assert is_dq_hermitian(DualQuatMatrix(zero, zero))
    assert not is_solid(zero)
    assert quaternion_even_multiplicity_check(zero)
