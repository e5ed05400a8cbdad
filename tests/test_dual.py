import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qskew.dual

from qskew import (
    DualQuatMatrix,
    I,
    Quaternion,
    QuatMatrix,
    dq_hermitian_direct,
    dq_hermitian_split,
    is_dq_hermitian,
)


def random_dqm(rng, n):
    std = QuatMatrix(rng.uniform(-1, 1, size=(n, n, 4)))
    inf = QuatMatrix(rng.uniform(-1, 1, size=(n, n, 4)))
    return DualQuatMatrix(std, inf)


def hermitian_dqm(rng, n):
    h = QuatMatrix(rng.uniform(-1, 1, size=(n, n, 4)))
    std = h + h.conj_transpose()
    s = QuatMatrix(rng.uniform(-1, 1, size=(n, n, 4)))
    inf = s - s.transpose()
    return DualQuatMatrix(std, inf)


def test_matrix_entry_and_shape():
    rng = np.random.default_rng(70)
    a = random_dqm(rng, 3)
    assert a.shape == (3, 3)


def test_matrix_conj_transpose_is_entrywise():
    rng = np.random.default_rng(71)
    square = random_dqm(rng, 4)
    # a rectangular input catches swapped axes that a square one hides
    rect = DualQuatMatrix(rng.uniform(-1, 1, size=(2, 3, 4)),
                          rng.uniform(-1, 1, size=(2, 3, 4)))
    for a in (square, rect):
        m, n = a.shape
        at = a.conj_transpose()
        assert at.shape == (n, m)
        for i in range(n):
            for j in range(m):
                # the standard part is conjugated, the infinitesimal part
                # negated whole: the printed convention that makes A* = A
                # mean std Hermitian and inf skew-symmetric
                assert at.std.entry(i, j) == a.std.entry(j, i).conjugate()
                assert at.inf.entry(i, j) == -a.inf.entry(j, i)


def test_hermitian_crafted_cases():
    rng = np.random.default_rng(73)
    a = hermitian_dqm(rng, 3)
    assert dq_hermitian_direct(a)
    assert dq_hermitian_split(a)
    assert is_dq_hermitian(a)

    # break the standard part
    bad_std = DualQuatMatrix(a.std + QuatMatrix.from_entries(
        [[0, I, 0], [0, 0, 0], [0, 0, 0]]), a.inf)
    assert not dq_hermitian_direct(bad_std)
    assert not dq_hermitian_split(bad_std)

    # break the infinitesimal part: nonzero diagonal kills skew-symmetry
    bump = QuatMatrix.from_entries([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    bad_inf = DualQuatMatrix(a.std, a.inf + bump)
    assert not dq_hermitian_direct(bad_inf)
    assert not dq_hermitian_split(bad_inf)


def test_overflowing_residual_is_not_hermitian():
    # A* - A of a standard part 1e308 i is -2e308 i, beyond the float range:
    # both routes judge it not Hermitian, slice by slice, and raise nothing
    a = DualQuatMatrix(QuatMatrix(np.array([[1e308j]])))
    assert not dq_hermitian_direct(a)
    assert not is_dq_hermitian(a)
    stack = DualQuatMatrix(np.array([[[[0.0, 1e308, 0.0, 0.0]]], [[[1e308, 0.0, 0.0, 0.0]]]]))
    assert dq_hermitian_direct(stack).tolist() == [False, True]
    assert is_dq_hermitian(stack).tolist() == [False, True]


def test_an_entry_modulus_beyond_the_float_range_is_judged_by_its_components():
    # the entries 1.5e308 (+-1 + i) are finite, their moduli are not; the
    # direct route judges by the largest component, as allclose does, and
    # both routes find this standard part not Hermitian, without a warning
    std = np.array([[[1e308, 0, 0, 0], [1.5e308, 1.5e308, 0, 0]],
                    [[-1.5e308, 1.5e308, 0, 0], [1e308, 0, 0, 0]]])
    a = DualQuatMatrix(std)
    assert not dq_hermitian_direct(a)
    assert not is_dq_hermitian(a)
    # with the (1, 0) entry the conjugate of the (0, 1) entry, both agree on yes
    std[1, 0] = std[0, 1] * [1, -1, -1, -1]
    assert is_dq_hermitian(DualQuatMatrix(std))


def test_hermitian_routes_agree_near_threshold():
    # perturbations straddling the tolerance must flip both routes together
    rng = np.random.default_rng(74)
    base = hermitian_dqm(rng, 2)
    for mag in (1e-14, 1e-11, 1e-9, 1e-7, 1e-3):
        bump = QuatMatrix.from_entries([[0, Quaternion(0, mag, 0, 0)], [0, 0]])
        probe = DualQuatMatrix(base.std + bump, base.inf)
        assert dq_hermitian_direct(probe) == dq_hermitian_split(probe)
        assert is_dq_hermitian(probe) == dq_hermitian_direct(probe)


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=10**6),
       st.booleans())
@settings(max_examples=60, deadline=None)
def test_hermitian_routes_exact_agreement(n, seed, make_hermitian):
    rng = np.random.default_rng(seed)
    a = hermitian_dqm(rng, n) if make_hermitian else random_dqm(rng, n)
    assert dq_hermitian_direct(a) == dq_hermitian_split(a)


def test_non_square_rejected():
    std = QuatMatrix.zeros(2, 3)
    inf = QuatMatrix.zeros(2, 3)
    a = DualQuatMatrix(std, inf)
    with pytest.raises(ValueError):
        dq_hermitian_direct(a)
    with pytest.raises(ValueError):
        dq_hermitian_split(a)


@given(st.lists(st.booleans(), min_size=1, max_size=6), st.integers(min_value=1, max_value=5),
       st.integers(min_value=0, max_value=10**6))
@settings(max_examples=40, deadline=None)
def test_stacked_hermitian_tests_match_single_calls(hermitian, n, seed):
    # a DualQuatMatrix holding a stack gives one verdict per slice, each
    # that of its own call, by either route
    rng = np.random.default_rng(seed)
    mats = [hermitian_dqm(rng, n) if h else random_dqm(rng, n) for h in hermitian]
    stack = DualQuatMatrix(np.array([a.std.data for a in mats]),
                           np.array([a.inf.data for a in mats]))
    for route in (dq_hermitian_direct, dq_hermitian_split):
        verdicts = route(stack)
        assert verdicts.dtype == bool and verdicts.shape == (len(mats),)
        assert verdicts.tolist() == [route(a) for a in mats]
        assert route(DualQuatMatrix(stack.std.data[:1], stack.inf.data[:1])).tolist() == [
            route(mats[0])]
    assert (is_dq_hermitian(stack) == dq_hermitian_direct(stack)).all()
    conj = stack.conj_transpose()
    for b, a in enumerate(mats):
        single = a.conj_transpose()
        assert conj.std.data[b].tobytes() == single.std.data.tobytes()
        assert conj.inf.data[b].tobytes() == single.inf.data.tobytes()


def test_parts_must_share_a_shape():
    with pytest.raises(ValueError, match="part shapes disagree"):
        DualQuatMatrix(np.zeros((2, 2, 4)), np.zeros((3, 3, 4)))


def test_disagreeing_routes_raise(monkeypatch):
    a = DualQuatMatrix(QuatMatrix.eye(2))
    monkeypatch.setattr(qskew.dual, "dq_hermitian_split", lambda a: ~dq_hermitian_direct(a))
    with pytest.raises(RuntimeError, match="routes disagree"):
        is_dq_hermitian(a)
