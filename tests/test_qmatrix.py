import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qskew.clinalg
import qskew.qmatrix
from qskew import (I, J, K, ONE, Quaternion, QuatMatrix, basic_candidate_search,
                   gram_product, random_skew_symmetric)
from qskew.clinalg import _max_abs


def rand_qm(rng, m, n):
    return QuatMatrix(rng.uniform(-1, 1, size=(m, n, 4)))


def test_construction_and_entry():
    a = QuatMatrix.from_entries([[1, I], [J, K]])
    assert a.shape == (2, 2)
    assert a.entry(0, 1) == I
    assert a[1, 0] == J
    b = QuatMatrix(np.eye(2))  # real 2-d input promoted to quaternion entries
    assert b.entry(0, 0) == ONE
    assert b.entry(0, 1) == Quaternion(0, 0, 0, 0)


def test_blocks_immutable():
    a = QuatMatrix.eye(2)
    with pytest.raises(ValueError):
        a.data[0, 0, 0] = 5.0


def test_construction_copies_the_input():
    # the caller's array stays writable and later writes do not reach m
    a = np.zeros((2, 2, 4))
    m = QuatMatrix(a)
    a[0, 0, 0] = 1.0
    assert m.max_abs() == 0.0
    assert QuatMatrix(a).entry(0, 0) == ONE


def test_complex_matrix_is_embedded():
    # a complex Z becomes Z + 0 j, bitwise what from_complex_pair(Z, 0) builds
    rng = np.random.default_rng(12)
    z = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    z[0, 0] = complex(-0.0, -0.0)
    expect = QuatMatrix.from_complex_pair(z, np.zeros_like(z)).data
    for value in (z, z.tolist()):
        got = QuatMatrix(value).data
        assert got.tobytes() == expect.tobytes()
    assert QuatMatrix.coerce(z).data.tobytes() == expect.tobytes()
    assert QuatMatrix([[1, 1j], [-1j, 1]]).entry(0, 1) == I


def test_complex_quaternion_array_rejected():
    # no other complex shape has an embedding; it must not lose its
    # imaginary parts quietly
    for bad in (np.zeros((2, 2, 4), dtype=complex), np.ones(3, dtype=complex)):
        with pytest.raises(ValueError, match="complex"):
            QuatMatrix(bad)


def test_coerce_returns_a_matrix_unchanged():
    a = QuatMatrix.eye(2)
    assert QuatMatrix.coerce(a) is a
    assert QuatMatrix.coerce(np.eye(2)).allclose(a, tol=0.0)


def test_from_parts_round_trip():
    rng = np.random.default_rng(0)
    parts = [rng.normal(size=(3, 2)) for _ in range(4)]
    a = QuatMatrix.from_parts(*parts)
    for got, want in zip(a.parts(), parts):
        np.testing.assert_array_equal(got, want)


def test_complex_pair_round_trip():
    rng = np.random.default_rng(1)
    ac = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    ad = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    a = QuatMatrix.from_complex_pair(ac, ad)
    bc, bd = a.complex_pair()
    np.testing.assert_allclose(bc, ac)
    np.testing.assert_allclose(bd, ad)


def test_matmul_frozen_2x2():
    a = QuatMatrix.from_entries([[1, I], [0, J]])
    b = QuatMatrix.from_entries([[J, 0], [K, 1]])
    c = a @ b
    # (1)(j) + (i)(k) = j - j... careful: ik = -j, so top-left is j - j = 0
    assert c.entry(0, 0) == Quaternion(0, 0, 0, 0)
    assert c.entry(0, 1) == I
    assert c.entry(1, 0) == J * K  # = i
    assert c.entry(1, 1) == J


def test_scalar_and_matrix_products_agree_bitwise():
    # one Hamilton formula serves both, in one order of operations; mixed
    # magnitudes make that order show in the rounding of the sums
    rng = np.random.default_rng(8)
    for _ in range(2000):
        a, b = rng.normal(size=(2, 4)) * np.ldexp(1.0, rng.integers(-300, 300, size=(2, 4)))
        matrix = QuatMatrix(a.reshape(1, 1, 4)) @ QuatMatrix(b.reshape(1, 1, 4))
        assert matrix.entry(0, 0).components() == (Quaternion(*a) * Quaternion(*b)).components()


def test_matmul_against_complex_pair_route():
    # the Hamilton product path must agree with symplectic-component algebra
    rng = np.random.default_rng(2)
    for _ in range(10):
        a = rand_qm(rng, 3, 4)
        b = rand_qm(rng, 4, 2)
        ac, ad = a.complex_pair()
        bc, bd = b.complex_pair()
        cc, cd = (a @ b).complex_pair()
        np.testing.assert_allclose(cc, ac @ bc - ad @ bd.conj(), atol=1e-12)
        np.testing.assert_allclose(cd, ac @ bd + ad @ bc.conj(), atol=1e-12)


def test_conj_transpose_antihomomorphism():
    rng = np.random.default_rng(3)
    a = rand_qm(rng, 3, 3)
    b = rand_qm(rng, 3, 3)
    lhs = (a @ b).conj_transpose()
    rhs = b.conj_transpose() @ a.conj_transpose()
    assert lhs.allclose(rhs, tol=1e-12)


def test_plain_transpose_not_antihomomorphic():
    # over quaternions (AB)^T generally differs from B^T A^T; witness below
    a = QuatMatrix.from_entries([[I, 0], [0, 1]])
    b = QuatMatrix.from_entries([[J, 0], [0, 1]])
    lhs = (a @ b).transpose()
    rhs = b.transpose() @ a.transpose()
    assert not lhs.allclose(rhs, tol=1e-6)
    assert lhs.entry(0, 0) == K
    assert rhs.entry(0, 0) == -K


def test_scalar_sides_differ():
    a = QuatMatrix.from_entries([[J]])
    left = a.left_mul(I)
    right = a.right_mul(I)
    assert left.entry(0, 0) == K
    assert right.entry(0, 0) == -K
    assert a.scale(2.0).entry(0, 0) == 2 * J
    assert (2.0 * a).entry(0, 0) == 2 * J


def test_add_sub_neg():
    rng = np.random.default_rng(4)
    a = rand_qm(rng, 2, 3)
    b = rand_qm(rng, 2, 3)
    assert (a + b - b).allclose(a, tol=1e-15)
    assert (-a + a).norm() == 0.0


def test_chi_homomorphism_square():
    rng = np.random.default_rng(5)
    for _ in range(10):
        a = rand_qm(rng, 4, 4)
        b = rand_qm(rng, 4, 4)
        np.testing.assert_allclose((a @ b).chi(), a.chi() @ b.chi(), atol=1e-12)
        np.testing.assert_allclose(
            a.conj_transpose().chi(), a.chi().conj().T, atol=1e-15
        )


def test_chi_round_trip_and_rejection():
    rng = np.random.default_rng(6)
    a = rand_qm(rng, 3, 3)
    back = QuatMatrix.from_chi(a.chi())
    assert back.allclose(a, tol=1e-15)
    bad = a.chi().copy()
    bad[0, 0] += 1e-3
    with pytest.raises(ValueError):
        QuatMatrix.from_chi(bad)
    with pytest.raises(ValueError):
        QuatMatrix.from_chi(np.zeros((3, 3), dtype=complex))


def test_gram_is_hermitian_psd_shape():
    z = random_skew_symmetric(4, seed=11)
    w = z.gram()
    assert w.is_hermitian()
    assert not z.is_hermitian() or z.norm() == 0.0


def test_random_skew_symmetric_structure():
    z = random_skew_symmetric(5, seed=42)
    assert z.is_skew_symmetric()
    assert z.transpose().allclose(-z, tol=0.0)
    for i in range(5):
        assert z.entry(i, i) == Quaternion(0, 0, 0, 0)
    # seeded generator is reproducible
    z2 = random_skew_symmetric(5, seed=42)
    assert z.allclose(z2, tol=0.0)
    z3 = random_skew_symmetric(5, seed=43)
    assert not z.allclose(z3, tol=1e-3)


def test_random_skew_symmetric_draw_order():
    # the strictly upper triangle is filled row-major from one Philox stream
    n, seed, scale = 5, 42, 2.0
    rng = np.random.Generator(np.random.Philox(key=seed))
    draws = iter(rng.uniform(-scale, scale, size=(n * (n - 1) // 2, 4)))
    want = np.zeros((n, n, 4))
    for i in range(n):
        for j in range(i + 1, n):
            want[i, j] = next(draws)
            want[j, i] = -want[i, j]
    assert random_skew_symmetric(n, seed, scale).data.tobytes() == want.tobytes()


def test_predicates():
    h = QuatMatrix.from_entries([[0, J], [-J, 0]])
    # conj(-j) = j lands on the (0,1) slot under conjugate transpose,
    # so this matrix is Hermitian and skew-symmetric at the same time
    assert h.is_hermitian()
    assert h.is_skew_symmetric()
    assert h.gram().allclose(QuatMatrix.eye(2), tol=1e-15)

    with pytest.raises(ValueError):
        QuatMatrix.zeros(2, 3).is_hermitian()


def test_non_finite_entries_rejected():
    # NaN and Inf fail at construction with a message that names them,
    # not later as a misleading structure error
    for bad in (np.nan, np.inf, -np.inf):
        arr = np.zeros((2, 2, 4))
        arr[0, 1, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            QuatMatrix(arr)
        with pytest.raises(ValueError, match="non-finite"):
            QuatMatrix(arr[:, :, 2])
    with pytest.raises(ValueError, match="non-finite"):
        gram_product(np.full((2, 2, 4), np.nan))


def test_predicates_of_huge_entries():
    # max_abs goes through hypot, so entries above 1e154 neither overflow
    # it nor make the predicates accept anything
    a = QuatMatrix(np.random.default_rng(8).uniform(-1, 1, size=(3, 3, 4)))
    h = a + a.conj_transpose()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for c in (1.0, 1e170):
            assert not a.scale(c).is_hermitian()
            assert not a.scale(c).is_skew_symmetric()
            assert h.scale(c).is_hermitian()
        assert a.scale(1e170).max_abs() == pytest.approx(1e170 * a.max_abs(), rel=1e-15)
        assert a.scale(1e300).max_abs() < np.inf


def test_eye_and_zeros():
    e = QuatMatrix.eye(3)
    z = QuatMatrix.zeros(2, 3)
    assert e.shape == (3, 3)
    assert z.shape == (2, 3)
    assert z.norm() == 0.0
    a = QuatMatrix(np.random.default_rng(7).uniform(size=(3, 3, 4)))
    assert (e @ a).allclose(a, tol=0.0)
    assert (a @ e).allclose(a, tol=0.0)


@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_skew_gram_hermitian_property(n, seed):
    z = random_skew_symmetric(n, seed=seed)
    w = z.gram()
    assert w.is_hermitian(tol=1e-12)
    wc = w.chi()
    np.testing.assert_allclose(wc, wc.conj().T, atol=1e-12)


CONJ_SIGNS = np.array([1.0, -1.0, -1.0, -1.0])


def mixed_stack(rng, count, n):
    """count random n x n slices, each generic, Hermitian or skew-symmetric
    and scaled by its own 10^[-6, 6]."""
    a = rng.uniform(-1, 1, size=(count, n, n, 4))
    a *= 10.0 ** rng.uniform(-6, 6, size=(count, 1, 1, 1))
    flip = a.swapaxes(1, 2)
    kind = rng.integers(0, 3, size=count)[:, None, None, None]
    return np.where(kind == 1, a + flip * CONJ_SIGNS, np.where(kind == 2, a - flip, a))


@given(st.integers(min_value=0, max_value=5), st.integers(min_value=1, max_value=6),
       st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_stacked_operations_match_each_slice(count, n, k, seed):
    # a (B, ...) stack gives bitwise, slice by slice, what each of its
    # matrices gives alone; metrics and verdicts come one per slice
    rng = np.random.default_rng(seed)
    a = QuatMatrix(mixed_stack(rng, count, n))
    b = QuatMatrix(rng.uniform(-1, 1, size=(count, n, k, 4)))
    arrays = {"product": lambda x, y: (x @ y).data,
              "conj_transpose": lambda x, y: x.conj_transpose().data,
              "transpose": lambda x, y: x.transpose().data,
              "conj": lambda x, y: x.conj().data,
              "gram": lambda x, y: x.gram().data,
              "chi": lambda x, y: y.chi()}
    scalars = {"is_hermitian": lambda x, y: x.is_hermitian(),
               "is_skew_symmetric": lambda x, y: x.is_skew_symmetric(),
               "allclose": lambda x, y: x.allclose(x.conj_transpose()),
               "norm": lambda x, y: x.norm(),
               "max_abs": lambda x, y: x.max_abs()}
    stacked = {name: f(a, b) for name, f in {**arrays, **scalars}.items()}
    assert stacked["chi"].shape == (count, 2 * n, 2 * k)
    for name in scalars:
        assert stacked[name].shape == (count,)
    for i in range(count):
        x, y = QuatMatrix(a.data[i]), QuatMatrix(b.data[i])
        for name, f in arrays.items():
            assert stacked[name][i].tobytes() == f(x, y).tobytes(), name
        for name, f in scalars.items():
            alone = f(x, y)
            assert type(alone) is (float if name in ("norm", "max_abs") else bool), name
            assert stacked[name][i] == alone, name


def test_random_skew_symmetric_stacks_its_seeds():
    seeds = [3, 2**64 - 1, 7]
    stack = random_skew_symmetric(4, seeds, scale=0.5)
    assert stack.data.shape == (3, 4, 4, 4)
    for slice_, seed in zip(stack.data, seeds):
        assert slice_.tobytes() == random_skew_symmetric(4, seed, 0.5).data.tobytes()
    assert random_skew_symmetric(4, []).data.shape == (0, 4, 4, 4)


@pytest.mark.parametrize("scale", [2.0 ** -1022, 1e-300, 1.0, 3.7, 1e152,
                                   float(np.finfo(float).max / 2)])
def test_random_skew_symmetric_draws_as_generator_uniform(scale):
    # each stream filled by Generator.random and the stack mapped once give
    # bitwise what Generator.uniform draws per seed, seeds given as Python
    # ints (masked to 64 bits) or as a uint64 array, as the search gives them
    n, k = 5, 10
    seeds = [0, 7, -1, 2**63, 2**64 - 1, 2**64 + 3, 12345678901234567]
    upper = np.triu_indices(n, 1)
    want = [np.random.Generator(np.random.Philox(key=s % 2**64)).uniform(-scale, scale, (k, 4))
            for s in seeds]
    keys = np.array([s % 2**64 for s in seeds], np.uint64)
    for stack in (random_skew_symmetric(n, seeds, scale), random_skew_symmetric(n, keys, scale)):
        got = stack.data[:, upper[0], upper[1]]
        assert got.tobytes() == np.array(want).tobytes()
        assert stack.data[:, upper[1], upper[0]].tobytes() == (-got).tobytes()
    assert random_skew_symmetric(n, seeds[2], scale).data[upper].tobytes() == want[2].tobytes()


def test_random_skew_symmetric_builds_one_philox_per_call(monkeypatch):
    # each Philox construction also draws an unused SeedSequence from the
    # OS entropy pool, so a block rekeys one generator per seed
    real = np.random.Philox
    built = []

    def spy(*args, **kwargs):
        built.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", spy)
    seeds = list(range(2**64 - 64, 2**64))
    stack = random_skew_symmetric(3, seeds, scale=2.0)
    assert len(built) == 1
    monkeypatch.undo()
    upper, lower = np.triu_indices(3, 1)
    for slice_, seed in zip(stack.data, seeds):
        rng = np.random.Generator(np.random.Philox(key=seed))
        assert slice_[upper, lower].tobytes() == rng.uniform(-2.0, 2.0, (3, 4)).tobytes()


def test_constructor_and_sampler_reject_bad_shapes_and_sizes():
    with pytest.raises(ValueError, match=r"expected an \(m, n, 4\) array"):
        QuatMatrix(np.zeros((2, 2, 3)))
    with pytest.raises(ValueError, match="matmul shape mismatch"):
        QuatMatrix(np.zeros((2, 3, 4))) @ QuatMatrix(np.zeros((2, 2, 4)))
    with pytest.raises(ValueError, match="shape mismatch"):
        QuatMatrix.eye(2) + QuatMatrix.eye(3)
    with pytest.raises(ValueError, match="need n >= 2"):
        random_skew_symmetric(1, 0)
    with pytest.raises(ValueError, match="scale must be positive"):
        random_skew_symmetric(3, 0, scale=0.0)


@pytest.mark.parametrize("scale", [5e-324, 1e-310])
def test_sampler_rejects_a_subnormal_scale(scale):
    # draws on [-scale, scale] below 2^-1022 keep few bits, at 5e-324 none
    with pytest.raises(ValueError, match="scale must be positive and normal"):
        random_skew_symmetric(4, 0, scale=scale)
    with pytest.raises(ValueError, match="scale must be positive and normal"):
        random_skew_symmetric(4, [0, 1], scale=scale)


def test_sampler_takes_the_smallest_normal_scale():
    z = random_skew_symmetric(4, 0, scale=2.0 ** -1022)
    assert z.is_skew_symmetric() and 0 < np.abs(z.data).max() <= 2.0 ** -1022


def test_sampler_scale_stops_at_half_the_largest_float():
    # the draws' range [-scale, scale] has width 2 scale, which must not overflow
    half = np.finfo(float).max / 2
    z = random_skew_symmetric(4, [0, 1], scale=half)
    assert z.is_skew_symmetric().all() and np.abs(z.data).max() <= half
    for scale in (np.nextafter(half, np.inf), 1e308):
        with pytest.raises(ValueError, match=r"at most half the largest float \(8\.98"):
            random_skew_symmetric(4, 0, scale=scale)


def test_repr_names_the_stack_shape():
    assert repr(QuatMatrix(np.zeros((2, 3, 3, 4)))) == "QuatMatrix(shape=2x3x3)"


SIGN_BIT = np.int64(-2 ** 63)


@given(st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 9, 65, 66]),
       st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=-250, max_value=250))
@settings(max_examples=40, deadline=None)
def test_gram_is_bitwise_hermitian(n, count, seed, k):
    # any Z, skew or not; from n = 65 on BLAS sums the two triangles of the
    # raw product in different orders, so only the mirror makes W Hermitian
    z = QuatMatrix(np.random.default_rng(seed).uniform(-1, 1, size=(count, n, n, 4)))
    w = z.gram().data
    raw = (z @ z.conj_transpose()).data
    bits = w.view(np.int64)
    iu, ju = np.triu_indices(n, 1)
    d = np.arange(n)
    assert w[:, iu, ju].tobytes() == raw[:, iu, ju].tobytes()
    assert w[:, d, d, 0].tobytes() == raw[:, d, d, 0].tobytes()
    assert not bits[:, d, d, 1:].any()  # +0.0, not -0.0
    assert np.array_equal(bits[:, ju, iu, 0], bits[:, iu, ju, 0])
    assert np.array_equal(bits[:, ju, iu, 1:], bits[:, iu, ju, 1:] ^ SIGN_BIT)
    for b in range(count):
        assert w[b].tobytes() == QuatMatrix(z.data[b]).gram().data.tobytes()
    # 2^k Z: every product and sum scales exactly, so W by exactly 4^k
    scaled = QuatMatrix(np.ldexp(z.data, k)).gram().data
    assert scaled.tobytes() == np.ldexp(w, 2 * k).tobytes()


def measured_rules(p, other, tol):
    """The structure rules of a (count, n, n, 4) stack p as measured by
    _max_abs alone, for comparison with the rules that skip an exact zero."""
    parts = np.rollaxis(p, -1)
    flip = parts.swapaxes(-2, -1)
    herm = _max_abs([parts[0] - flip[0], *(parts[1:] + flip[1:])]) <= tol * _max_abs(parts)
    skew = _max_abs(flip + parts) <= tol * _max_abs(parts)
    q = np.rollaxis(other, -1)
    close = _max_abs(parts - q) <= tol * np.maximum(_max_abs(parts), _max_abs(q))
    return herm, skew, close


@given(st.integers(min_value=1, max_value=6),
       st.lists(st.sampled_from(["exact", "near", "far"]), min_size=1, max_size=5),
       st.sampled_from([0.0, 1e-12, 1e-3]), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_structure_rules_skip_only_an_exact_zero(n, kinds, tol, seed):
    # exactly Hermitian, skew and equal slices beside perturbed ones, each
    # judged by the rule that skips an exact zero, must get the measured
    # verdict slice by slice
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1, 1, size=(len(kinds), n, n, 4))
    size = {"exact": 0.0, "near": 1e-13, "far": 1e-2}
    bump = np.array([size[kind] for kind in kinds])[:, None, None, None]
    noise = bump * rng.uniform(-1, 1, size=a.shape)
    flip = a.swapaxes(1, 2)
    for base, kind in ((a + flip * CONJ_SIGNS, 0), (a - flip, 1), (a, 2)):
        p = base + noise if kind < 2 else base
        other = base + noise if kind == 2 else base
        expect = measured_rules(p, other, tol)[kind]
        m = QuatMatrix(p)
        got = (m.is_hermitian(tol), m.is_skew_symmetric(tol), m.allclose(other, tol))[kind]
        assert got.tolist() == expect.tolist()
        for b in range(len(kinds)):
            alone = QuatMatrix(p[b])
            assert (alone.is_hermitian(tol), alone.is_skew_symmetric(tol),
                    alone.allclose(other[b], tol))[kind] == expect[b]


@pytest.fixture
def max_abs_calls(monkeypatch):
    """Counts the calls of the one entry measure, under both names it has."""
    calls = []

    def spy(parts):
        calls.append(len(parts))
        return _max_abs(parts)

    monkeypatch.setattr(qskew.clinalg, "_max_abs", spy)
    monkeypatch.setattr(qskew.qmatrix, "_max_abs", spy)
    return calls


def test_a_search_block_measures_nothing(max_abs_calls):
    # the sampler's Z is bitwise skew and gram_product's W bitwise
    # Hermitian, so the skew check, the agreement check and herm_eig's
    # Hermitian check all see an exactly zero residual
    hits = basic_candidate_search(4, 200, 3)
    assert hits and max_abs_calls == []
    z = random_skew_symmetric(4, 3).data.copy()
    z[0, 1, 0] += 1e-13  # one bit off skew: measured
    gram_product(z)
    assert max_abs_calls


def test_negative_or_nan_tol_is_measured(max_abs_calls):
    z = random_skew_symmetric(3, 1)
    w = z.gram()
    for tol in (-1.0, math.nan):
        for rule in (lambda: z.is_skew_symmetric(tol), lambda: w.is_hermitian(tol),
                     lambda: w.allclose(w, tol)):
            max_abs_calls.clear()
            assert rule() is False and max_abs_calls
    # as measured, the zero matrix is skew at a negative tol (0 <= -0.0)
    # but not at NaN
    zero = QuatMatrix.zeros(2)
    assert zero.is_skew_symmetric(-1.0) and not zero.is_skew_symmetric(math.nan)
