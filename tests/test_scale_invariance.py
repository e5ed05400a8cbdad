"""Verdicts do not change when the input is scaled.

The paper's contrasts (odd multiplicities of W = Z Z*, an inverse that
leaves the skew class) are the same for c Z as for Z, and every tolerance
in the package is relative to the magnitude of the input it judges.  The
properties below scale by c = 10^e with e in [-12, 12]; the pinned cases
are small and large inputs whose verdict an absolute max(1, ...) floor
would flip.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from qskew import (DualQuatMatrix, QuatMatrix, Quaternion, SkewTriple,
                   classify_3x3, even_multiplicity_check, gram_product,
                   hua_decompose, I, J, is_dq_hermitian, is_solid,
                   quaternion_even_multiplicity_check,
                   random_skew_symmetric, right_eigenvalues_hermitian,
                   sample_degenerate_triple, sample_generic_triple, save_matrix)
from qskew.cli import main

SCALES = st.floats(min_value=-12, max_value=12).map(lambda e: 10.0 ** e)
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


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

def test_spectrum_of_small_solid_matrix(tmp_path):
    path = str(tmp_path / "z.json")
    save_matrix(path, random_skew_symmetric(3, 5).scale(1e-8))
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
