import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qskew.clinalg
import qskew.hua
from qskew import (
    even_clusters,
    even_multiplicity_check,
    herm_eig,
    hua_decompose,
    positive_clusters,
)


def random_complex_skew(rng, n, scale=1.0):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * (m - m.T)


def rank_deficient_skew(rng, n, rank_pairs):
    """Skew matrix whose rank is exactly 2*rank_pairs."""
    z = np.zeros((n, n), dtype=complex)
    for _ in range(rank_pairs):
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        w = rng.normal(size=n) + 1j * rng.normal(size=n)
        z += np.outer(v, w) - np.outer(w, v)
    return z


def skew_with_sigmas(rng, n, sigmas):
    """Q Sigma Q^T for a random unitary Q: a complex skew matrix with these
    sigmas and a kernel of dimension n - 2 len(sigmas)."""
    s = np.zeros((n, n), dtype=complex)
    for t, sig in enumerate(sigmas):
        s[2 * t, 2 * t + 1], s[2 * t + 1, 2 * t] = sig, -sig
    q = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
    return q @ s @ q.T


def check_form(z, form, tol=1e-10):
    n = z.shape[0]
    u = form.u
    sig = form.canonical()
    np.testing.assert_allclose(u @ z @ u.T, sig, atol=tol * max(1.0, np.linalg.norm(z)))
    np.testing.assert_allclose(u @ u.conj().T, np.eye(n), atol=1e-10)
    assert len(form.sigmas) * 2 + form.zero_dim == n
    assert all(s > 0 for s in form.sigmas)
    assert list(form.sigmas) == sorted(form.sigmas, reverse=True)


def test_small_frozen_case():
    z = np.array([[0.0, 2.0], [-2.0, 0.0]], dtype=complex)
    form = hua_decompose(z)
    assert form.zero_dim == 0
    np.testing.assert_allclose(form.sigmas, [2.0], atol=1e-12)
    check_form(z, form)


def test_odd_dimension_has_kernel():
    rng = np.random.default_rng(40)
    z = random_complex_skew(rng, 5)
    form = hua_decompose(z)
    assert form.zero_dim >= 1  # odd-sized skew matrices are singular
    check_form(z, form)


def test_rank_deficient():
    rng = np.random.default_rng(41)
    z = rank_deficient_skew(rng, 6, rank_pairs=2)
    form = hua_decompose(z)
    assert form.zero_dim == 2
    assert len(form.sigmas) == 2
    check_form(z, form)


def test_zero_matrix():
    form = hua_decompose(np.zeros((3, 3), dtype=complex))
    assert form.zero_dim == 3
    assert len(form.sigmas) == 0
    np.testing.assert_allclose(form.u @ form.u.conj().T, np.eye(3), atol=0)


def test_repeated_sigma():
    # two pairs with the same sigma: clustering must not split or merge wrongly
    base = np.array([[0, 3], [-3, 0]], dtype=complex)
    z = np.zeros((4, 4), dtype=complex)
    z[:2, :2] = base
    z[2:, 2:] = base
    rng = np.random.default_rng(42)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    z = q @ z @ q.T  # unitary congruence keeps the canonical sigmas
    form = hua_decompose(z)
    np.testing.assert_allclose(form.sigmas, [3.0, 3.0], atol=1e-10)
    check_form(z, form)


def test_residual_fields_populated():
    rng = np.random.default_rng(43)
    z = random_complex_skew(rng, 8)
    form = hua_decompose(z)
    assert form.residual <= 1e-8 * max(1.0, np.linalg.norm(z))
    assert form.unitarity_residual <= 1e-10
    d = form.to_dict()
    assert set(d) == {"sigmas", "zero_dim", "residual", "unitarity_residual", "u"}


def test_sigma_squared_matches_gram_spectrum():
    rng = np.random.default_rng(44)
    z = random_complex_skew(rng, 7)
    form = hua_decompose(z)
    h = z @ z.conj().T
    lam = np.sort(np.linalg.eigvalsh(h))[::-1]
    sig2 = np.square(np.repeat(form.sigmas, 2))
    np.testing.assert_allclose(sig2, lam[: 2 * len(form.sigmas)], rtol=1e-8)


def test_rejects_non_skew():
    with pytest.raises(ValueError):
        hua_decompose(np.eye(3, dtype=complex))
    with pytest.raises(ValueError):
        hua_decompose(np.zeros((2, 3), dtype=complex))


def test_a_sigma_beyond_the_float_range_is_an_error():
    # each entry is finite, but sigma = |1.5e308 (1 + i)| = 2.1e308 is not;
    # the skew check of a Z whose residual overflows fails, without a warning
    big = 1.5e308 + 1.5e308j
    with pytest.raises(ValueError, match=r"^hua_decompose: a sigma lies beyond the float range$"):
        hua_decompose(np.array([[0, big], [-big, 0]]))
    with pytest.raises(ValueError, match=r"beyond the float range \(slice 1\)$"):
        hua_decompose(np.array([[[0, 1], [-1, 0]], [[0, big], [-big, 0]]]))
    assert hua_decompose(np.array([[0, big], [-big, 0]]) / 2).sigmas == [abs(big / 2)]
    with pytest.raises(ValueError, match="not skew-symmetric"):
        hua_decompose(np.array([[0, 1e308], [1.5e308, 0]], dtype=complex))


def test_positive_clusters():
    vals = np.array([0.0, 1e-12, 2.0, 2.0 + 1e-12, 5.0])
    clusters = positive_clusters(vals)
    assert [len(c) for c in clusters] == [2, 1]
    assert sorted(vals[clusters[0]]) == sorted([2.0, 2.0 + 1e-12])
    assert positive_clusters(np.zeros(4)) == []


def test_even_clusters():
    # the one evenness rule of both even-multiplicity checks, per row
    rows = np.array([[0.0, 2.0, 2.0 + 1e-12], [0.0, 1.0, 2.0], [0.0, 0.0, 0.0]])
    assert even_clusters(rows[0]) is True and even_clusters(rows[1]) is False
    assert even_clusters(rows).tolist() == [True, False, True]
    assert even_clusters(np.stack([rows, rows])).shape == (2, 3)


def test_clusters_of_values_spanning_the_float_range():
    # the gap from -max to max is beyond the float range: inf, which splits
    big = np.finfo(float).max
    assert positive_clusters([-big, big]) == [[1]]
    assert even_clusters([-big, big]) is False
    assert even_clusters([-big, big, big]) is True


def clusters_by_edges(values):
    """The positive clusters by their definition: the entries above
    CLUSTER_TOL times the largest, sorted, cut where a gap exceeds that."""
    cut = qskew.clinalg.CLUSTER_TOL * float(values.max(initial=0.0))
    order = np.argsort(values, kind="stable")
    idx = order[values[order] > cut]
    edges = [0, *(np.flatnonzero(np.diff(values[idx]) > cut) + 1).tolist(), idx.size]
    return [idx[lo:hi].tolist() for lo, hi in zip(edges, edges[1:]) if hi > lo]


@given(st.integers(min_value=1, max_value=7),
       st.lists(st.sampled_from([-1.0, 0.0, 1e-8, 1.5e-8, 1.0, 1.0 + 1e-8, 1.0 + 2e-8,
                                 2.0, 3.0]), min_size=42, max_size=42),
       st.sampled_from([1.0, 1e-300, 2.0 ** 600]))
@settings(max_examples=200, deadline=None)
def test_even_clusters_is_the_per_row_rule_of_positive_clusters(n, pool, scale):
    # one array pass against the cluster lists, row by row, and both against
    # the definition: ties, zeros, negatives, entries at CLUSTER_TOL times the
    # largest (zero), a first positive within that of a zero, gaps of that
    # size (one cluster), one entry, and a (2, 3, n) stack
    rows = np.array(pool[:6 * n]).reshape(2, 3, n) * scale
    for row in rows.reshape(6, n):
        assert positive_clusters(row) == clusters_by_edges(row)
    rule = [[all(len(c) % 2 == 0 for c in clusters_by_edges(row)) for row in block]
            for block in rows]
    assert even_clusters(rows).tolist() == rule
    assert even_clusters(np.sort(rows[1, 2])) is rule[1][2]


def test_hua_solves_only_the_positive_half_of_a_full_rank_stack(monkeypatch):
    # one tridiagonal solve per call, of the Golub-Kahan eigenvalues from
    # n // 2 up, n - n // 2 per slice that is not zero, gives the sigmas and
    # the vectors that every slice reads, whether its rank is full, lower
    # or 0, alone or stacked with others; and one Gram-Schmidt call makes
    # the rows of every slice
    asked, solves, passes = [], [], []
    bisect, solve = qskew.clinalg._bisect, qskew.hua._tridiagonal_eig
    mgs = qskew.hua.mgs_orthonormalize

    def spy(d, e2, top, first=0):
        asked.append((len(d), d.shape[1] - first))
        return bisect(d, e2, top, first)

    def spy_solve(*args, **kwargs):
        solves.append(1)
        return solve(*args, **kwargs)
    def spy_mgs(vectors, tol):
        passes.append(vectors.shape)
        return mgs(vectors, tol)
    monkeypatch.setattr(qskew.clinalg, "_bisect", spy)
    monkeypatch.setattr(qskew.hua, "_tridiagonal_eig", spy_solve)
    monkeypatch.setattr(qskew.hua, "mgs_orthonormalize", spy_mgs)
    rng = np.random.default_rng(48)
    for n in (2, 3, 4, 7, 8, 16, 33):
        full = [random_complex_skew(rng, n) for _ in range(3)]
        rank = [rank_deficient_skew(rng, n, p) for p in (0, n // 4, n // 2 - 1)]
        near = [skew_with_sigmas(rng, n, [1.0] * (n // 2 - 1) + [1e-12])]
        zero = [np.zeros((n, n), dtype=complex)] * 2
        for stack in (full, rank, near, zero, full[:1] + rank + zero[:1] + near):
            forms = hua_decompose(np.array(stack))
            live = sum(bool(np.any(z)) for z in stack)
            assert solves == [1]
            assert asked == ([(live, n - n // 2)] if live else [])
            assert passes == [(len(stack), 2 * (n - n // 2) + n, n)]
            for z, form in zip(stack, forms):
                check_form(z, form)
            del asked[:], solves[:], passes[:]
            if stack is full:
                assert [f.zero_dim for f in forms] == [n % 2] * 3


@pytest.mark.parametrize("n", range(2, 12))
def test_zj_spectrum_is_plus_minus_the_sigmas(n):
    # Z j = [0 | Z] is a Hermitian quaternion matrix whose right eigenvalues
    # are +-sigma, and 0 once more when n is odd: herm_eig's quaternion
    # Householder reduction checked against hua_decompose's skew one
    z = random_complex_skew(np.random.default_rng(n), n)
    sigmas = np.array(hua_decompose(z).sigmas)
    assert sigmas.size == n // 2
    expect = np.sort(np.concatenate([-sigmas, np.zeros(n % 2), sigmas]))
    np.testing.assert_allclose(herm_eig(np.concatenate([0 * z, z], axis=1)), expect,
                               rtol=0, atol=1e-14 * sigmas.max())


def test_even_multiplicity_check():
    rng = np.random.default_rng(45)
    for n in (2, 3, 4, 7):
        z = random_complex_skew(rng, n)
        assert even_multiplicity_check(z)
    assert even_multiplicity_check(np.zeros((3, 3), dtype=complex))


@given(st.integers(min_value=2, max_value=10), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=30, deadline=None)
def test_hua_property(n, seed):
    rng = np.random.default_rng(seed)
    z = random_complex_skew(rng, n, scale=float(rng.choice([0.01, 1.0, 100.0])))
    form = hua_decompose(z)
    check_form(z, form, tol=1e-8)


@given(st.integers(min_value=2, max_value=32), st.floats(min_value=-16, max_value=-4),
       st.integers(min_value=0, max_value=10**6))
@settings(max_examples=30, deadline=None)
def test_hua_of_sigma_pairs_a_relative_gap_apart(n, gap, seed):
    # sigmas in pairs s and s (1 + 10^gap), which share a cluster of the
    # Golub-Kahan tridiagonal and iterate: the form keeps its contract, and
    # the sigmas are those of Z
    rng = np.random.default_rng(seed)
    half = rng.uniform(0.5, 2.0, size=(n // 2 + 1) // 2)
    sigmas = np.sort(np.stack([half, half * (1 + 10.0 ** gap)], axis=1).ravel()[:n // 2])
    z = skew_with_sigmas(rng, n, sigmas[::-1])
    form = hua_decompose(z)
    check_form(z, form)
    np.testing.assert_allclose(form.sigmas, sigmas[::-1], rtol=0, atol=1e-13 * sigmas.max())


@given(st.integers(min_value=0, max_value=5), st.integers(min_value=1, max_value=8),
       st.lists(st.floats(min_value=-300, max_value=300), min_size=5, max_size=5),
       st.integers(min_value=0, max_value=10**6))
@settings(max_examples=60, deadline=None)
def test_stacked_even_multiplicity_matches_single_calls(count, n, exponents, seed):
    # each slice at its own scale in [1e-300, 1e300]; a general (not skew)
    # slice usually has odd clusters, so both verdicts occur
    rng = np.random.default_rng(seed)
    slices = []
    for b in range(count):
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        slices.append(10.0 ** exponents[b] * (m - m.T if rng.uniform() < 0.6 else m))
    verdicts = even_multiplicity_check(np.array(slices).reshape(count, n, n))
    assert verdicts.dtype == bool and verdicts.shape == (count,)
    assert verdicts.tolist() == [even_multiplicity_check(z) for z in slices]


def test_pairs_near_the_kernel_cut():
    # dropping a pair adds sqrt(2) sigma to the residual, whose limit is
    # tol ||Z||_F: a sigma within 10% of that limit stays a pair, and small
    # pairs go to the kernel only while their sum stays within the contract
    rng = np.random.default_rng(46)
    for _ in range(200):
        n = int(rng.integers(4, 9))
        sig = rng.uniform(0.5, 2.0, size=n // 2)
        sig[-1] = 1e-8 * np.sqrt(2 * (sig[:-1] ** 2).sum()) * rng.uniform(0.9, 1.1)
        z = skew_with_sigmas(rng, n, sig)
        form = hua_decompose(z)
        assert form.zero_dim == n % 2
        np.testing.assert_allclose(form.sigmas, np.sort(sig)[::-1], rtol=0,
                                   atol=1e-14 * np.linalg.norm(z))
        check_form(z, form)
    for _ in range(100):
        n = int(rng.integers(2, 13))
        k = int(rng.integers(1, n // 2 + 1))
        big = rng.uniform(0.5, 2.0, size=n // 2 - k)
        small = 1e-8 * rng.uniform(0.2, 1.5, size=k) * (np.sqrt(2 * (big ** 2).sum()) or 1.0)
        z = skew_with_sigmas(rng, n, np.concatenate([big, small]))
        form = hua_decompose(z)
        assert form.residual <= 1e-8 * np.linalg.norm(z)
        assert len(form.sigmas) >= big.size


@given(st.integers(min_value=1, max_value=10), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=30, deadline=None)
def test_hua_invariant_under_unitary_congruence_and_permutation(n, seed):
    # U Z U^T for complex unitary U, and P Z P^T for a permutation P, have
    # the sigmas and the kernel of Z
    rng = np.random.default_rng(seed)
    sig = rng.uniform(0.5, 2.0, size=int(rng.integers(n // 2 + 1)))
    z = skew_with_sigmas(rng, n, sig)
    base = hua_decompose(z)
    assert base.zero_dim == n - 2 * sig.size
    u = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
    p = np.eye(n)[rng.permutation(n)]
    for moved in (u @ z @ u.T, p @ z @ p.T):
        form = hua_decompose(moved)
        assert form.zero_dim == base.zero_dim
        np.testing.assert_allclose(form.sigmas, base.sigmas, rtol=1e-12, atol=0)
        check_form(moved, form)


def same_form(a, b):
    return (a.u.tobytes() == b.u.tobytes() and a.sigmas == b.sigmas
            and a.zero_dim == b.zero_dim and a.residual == b.residual
            and a.unitarity_residual == b.unitarity_residual)


@given(st.lists(st.sampled_from(["random", "rank", "scaled", "zero"]), min_size=1,
                max_size=5),
       st.integers(min_value=1, max_value=9), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=40, deadline=None)
def test_stacked_hua_matches_single_calls(kinds, n, seed):
    # one reduction and one tridiagonal solve for the whole stack; every
    # slice, at its own scale and rank, is bitwise its own call
    rng = np.random.default_rng(seed)
    slices = []
    for kind in kinds:
        if kind == "rank":
            z = rank_deficient_skew(rng, n, int(rng.integers(n // 2 + 1)))
        else:
            z = random_complex_skew(rng, n, 0.0 if kind == "zero" else
                                    10.0 ** rng.uniform(-100, 100) if kind == "scaled" else 1.0)
        slices.append(z)
    forms = hua_decompose(np.array(slices))
    assert isinstance(forms, list) and len(forms) == len(slices)
    for z, form in zip(slices, forms):
        assert same_form(form, hua_decompose(z))
    one = hua_decompose(np.array(slices[:1]))
    assert len(one) == 1 and same_form(one[0], forms[0])


def test_stacked_hua_keeps_the_repeated_sigmas_of_neighbouring_slices_apart():
    # slice 0's repeated sigma takes the first two columns of its top half
    # and slice 1's, at unit scale no higher, the last two, so among the
    # clustered columns of the stack the two clusters follow each other;
    # each slice is still bitwise its own call
    rng = np.random.default_rng(44)
    zs = np.array([skew_with_sigmas(rng, 8, [2.0, 1.5, 1.0, 1.0]),
                   skew_with_sigmas(rng, 8, [0.5, 0.5, 0.2, 0.1])])
    scale = 2.0 ** -np.frexp(np.abs(zs).max(axis=(1, 2)))[1]
    assert 0.5 * scale[1] <= 1.0 * scale[0]
    forms = hua_decompose(zs)
    for z, form in zip(zs, forms):
        assert same_form(form, hua_decompose(z))
        check_form(z, form)


def test_stacked_hua_names_a_slice_that_is_not_skew():
    rng = np.random.default_rng(47)
    zs = np.array([random_complex_skew(rng, 4) for _ in range(3)])
    zs[2, 0, 0] = 1.0
    with pytest.raises(ValueError, match=r"within tolerance \(slice 2\)$"):
        hua_decompose(zs)
    with pytest.raises(ValueError, match=r"within tolerance$"):
        hua_decompose(zs[2])
    empty = hua_decompose(np.zeros((0, 0)))
    assert empty.u.shape == (0, 0) and empty.sigmas == [] and empty.residual == 0.0
    assert all(same_form(form, empty) for form in hua_decompose(np.zeros((2, 0, 0))))


def test_hua_decompose_rejects_a_stack_of_stacks():
    with pytest.raises(ValueError, match=r"a matrix or a \(B, n, n\) stack"):
        hua_decompose(np.zeros((2, 2, 3, 3)))
