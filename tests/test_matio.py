import json

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from qskew import (
    BasicCandidate,
    MatrixFormatError,
    QuatMatrix,
    complex_matrix_to_dict,
    load_matrix,
    matrix_from_dict,
    quat_matrix_to_dict,
    random_skew_symmetric,
    save_matrix,
)
from qskew.cli import _hit_lines
from qskew.matio import HERMITIAN, SKEW, _hermitian_json, _mirror_json


def test_quaternion_round_trip(tmp_path):
    z = random_skew_symmetric(3, seed=4)
    path = tmp_path / "z.json"
    save_matrix(path, z)
    back = load_matrix(path)
    assert isinstance(back, QuatMatrix)
    assert back.allclose(z, tol=0.0)


def test_complex_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    m = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
    path = tmp_path / "c.json"
    save_matrix(path, m)
    back = load_matrix(path)
    assert isinstance(back, np.ndarray)
    np.testing.assert_array_equal(back, m)


def test_dict_shapes():
    z = random_skew_symmetric(2, seed=1)
    d = quat_matrix_to_dict(z)
    assert d["rows"] == 2 and d["cols"] == 2
    assert len(d["entries"]) == 4 and len(d["entries"][0]) == 4
    c = complex_matrix_to_dict(np.eye(2, dtype=complex))
    assert len(c["entries_c"]) == 4 and c["entries_c"][0] == [1.0, 0.0]
    # json serializable as-is
    json.dumps(d)
    json.dumps(c)


@pytest.mark.parametrize("data,msg", [
    ({}, "exactly one"),
    ({"rows": 2, "cols": 2}, "exactly one"),
    ({"rows": 2, "cols": 2, "entries": [[0] * 4] * 4, "entries_c": [[0, 0]] * 4},
     "exactly one"),
    ({"rows": 0, "cols": 2, "entries": []}, "positive"),
    ({"rows": 2, "cols": 2, "entries": [[0] * 4] * 3}, "4 entries"),
    ({"rows": 1, "cols": 1, "entries": [[0, 0, 0]]}, "entry 0"),
    ({"rows": 1, "cols": 1, "entries": [[0, 0, 0, True]]}, "number"),
    ({"rows": 1, "cols": 1, "entries": [[0, 0, 0, float("nan")]]}, "finite"),
    ({"rows": 1, "cols": 1, "entries_c": [[1, 2, 3]]}, "entry 0"),
    ({"rows": 2, "cols": 2,
      "entries": [[0] * 4] * 3 + [[0, 0, float("inf"), 0]]},
     "entry 3: component 2 is not finite"),
    ({"rows": 2, "cols": 2, "entries": [[0] * 4] * 2 + [[0, "1", 0, 0], [0] * 4]},
     "entry 2: component 1 is not a number"),
    ({"rows": 1, "cols": 2, "entries": [[0] * 4, [0, 0, -10 ** 400, 0]]},
     "entry 1: component 2 is beyond the float range"),
    # rows and cols are integers: not a float, however integral, nor a
    # string or a bool, and inf (what JSON's 1e400 parses to) raises no
    # OverflowError
    ({"rows": float("inf"), "cols": 1, "entries": [[0] * 4]}, '"rows" and "cols" must be integers'),
    ({"rows": 1, "cols": float("-inf"), "entries": [[0] * 4]}, '"rows" and "cols" must be integers'),
    ({"rows": "2", "cols": 1, "entries": [[0] * 4] * 2}, '"rows" and "cols" must be integers'),
    ({"rows": 1, "cols": 2.9, "entries": [[0] * 4] * 2}, '"rows" and "cols" must be integers'),
    ({"rows": 2.0, "cols": 1, "entries": [[0] * 4] * 2}, '"rows" and "cols" must be integers'),
    ({"rows": True, "cols": 1, "entries": [[0] * 4]}, '"rows" and "cols" must be integers'),
    ({"rows": 1, "cols": None, "entries_c": [[0, 0]]}, '"rows" and "cols" must be integers'),
    ({"cols": 1, "entries_c": [[0, 0]]}, '"rows" and "cols" must be integers'),
])
def test_rejects_malformed(data, msg):
    with pytest.raises(MatrixFormatError, match=msg):
        matrix_from_dict(data)


@pytest.mark.parametrize("index", [0, 5, 8])
@pytest.mark.parametrize("bad,msg", [
    ([0, 0, True, 0], "entry %d: component 2 is not a number"),
    (["0", 0, 0, 0], "entry %d: component 0 is not a number"),
    ([0, 0, 0, None], "entry %d: component 3 is not a number"),
    ([0, [1.0], 0, 0], "entry %d: component 1 is not a number"),
    ([[0, 0, 0, 0]] * 4, "entry %d: component 0 is not a number"),
    ([0, 0, 0], "entry %d: expected 4 numbers"),
    ([0, 0, 0, 0, 0], "entry %d: expected 4 numbers"),
    ((0, 0, 0, 0), "entry %d: expected 4 numbers"),
    (0.5, "entry %d: expected 4 numbers"),
])
def test_first_bad_entry_is_named(bad, msg, index):
    # the one-pass check defers to the entry walk for every message
    entries = [[0.5, -1, 2.0, 3]] * 9
    entries[index] = bad
    with pytest.raises(MatrixFormatError) as exc:
        matrix_from_dict({"rows": 3, "cols": 3, "entries": entries})
    assert str(exc.value) == msg % index
    # a later bad entry does not change which one is named
    entries[8 if index < 8 else 0] = [0, 0, 0]
    with pytest.raises(MatrixFormatError) as exc:
        matrix_from_dict({"rows": 3, "cols": 3, "entries": entries})
    assert str(exc.value) == (msg % index if index < 8 else "entry 0: expected 4 numbers")


def test_number_subclasses_pass_the_entry_walk():
    # numpy floats are floats: the one-pass check misses them and the walk
    # accepts them, as it always did; numpy integers are sizes
    entries = [[np.float64(0.5), 1, 2.0, 3]] * 4
    z = matrix_from_dict({"rows": np.int64(2), "cols": np.int32(2), "entries": entries})
    np.testing.assert_array_equal(z.data, np.tile([0.5, 1, 2, 3], (2, 2, 1)))


def test_load_missing_file(tmp_path):
    with pytest.raises(MatrixFormatError):
        load_matrix(tmp_path / "absent.json")


def test_load_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(MatrixFormatError):
        load_matrix(path)


def test_dict_that_is_not_a_matrix_object():
    with pytest.raises(MatrixFormatError, match="top level must be a JSON object"):
        matrix_from_dict([[0, 0, 0, 0]])
    with pytest.raises(MatrixFormatError, match='"rows" and "cols" must be integers'):
        matrix_from_dict({"rows": "x", "cols": 1, "entries": [[0, 0, 0, 0]]})


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.0 ** -1022, -1e-310, 1.0, -3.5]


def mirrored_stack(rng, count, n, flips, k):
    """count n x n matrices, 2^k times uniform draws in [-1, 1] with edge
    floats sprinkled in, whose lower triangle is the upper one's mirror with
    the components in flips negated, and whose diagonal's flipped
    components are +0.0."""
    a = rng.uniform(-1, 1, size=(count, n, n, 4))
    edge = rng.random(a.shape) < 0.2
    a[edge] = rng.choice(EDGE_FLOATS, size=edge.sum())
    a = np.ldexp(a, k)  # rounds a value and its negation alike
    lower, upper = np.tril_indices(n, -1)
    sign = np.where(np.isin(np.arange(4), flips), -1.0, 1.0)
    a[:, lower, upper] = a[:, upper, lower] * sign
    d = np.arange(n)[:, None]
    a[:, d, d, list(flips)] = 0.0
    return a


@given(st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 64]),
       st.sampled_from([0, 900, -900, -1070]), st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
# no shrink phase: shrinking a failure through n = 64 stacks, a json.dumps
# per slice each, takes minutes, and the first failing example is as telling
@settings(max_examples=40, deadline=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target])
def test_mirror_json_is_json_dumps_of_each_slice(n, k, count, seed):
    # both symmetries in both shapes; W's wrapper against quat_matrix_to_dict
    # and the search hit line against BasicCandidate.to_dict
    rng = np.random.default_rng(seed)
    for flips in (SKEW, HERMITIAN):
        data = mirrored_stack(rng, count, n, flips, k)
        for nested in (True, False):
            texts = _mirror_json(data, flips, nested)
            assert len(texts) == count
            for b, text in enumerate(texts):
                plain = data[b] if nested else data[b].reshape(-1, 4)
                assert text == json.dumps(plain.tolist())
                assert _mirror_json(data[b:b + 1], flips, nested) == [text]
    w = QuatMatrix(mirrored_stack(rng, 1, n, HERMITIAN, k)[0])
    assert "".join(_hermitian_json(w)) == json.dumps(quat_matrix_to_dict(w), sort_keys=True)
    if n >= 4:
        z = mirrored_stack(rng, count, n, SKEW, k)
        hits = [BasicCandidate(int(t), z[t], np.sort(rng.uniform(0, 2, n)), float(rng.random()))
                for t in range(count)]
        assert _hit_lines(hits) == [json.dumps(c.to_dict(), sort_keys=True) for c in hits]


@pytest.mark.parametrize("flips", [SKEW, HERMITIAN])
def test_mirror_json_refuses_a_stack_with_one_slice_not_mirrored(flips):
    good = mirrored_stack(np.random.default_rng(5), 3, 5, flips, 0)
    off = good.copy()
    off[1, 3, 1, 2] = np.nextafter(off[1, 3, 1, 2], np.inf)  # one ulp off its mirror
    signed = good.copy()
    signed[1, 2, 2, flips[0]] = -0.0  # a flipped diagonal component
    tiny = good.copy()
    tiny[1, 4, 4, flips[-1]] = 5e-324  # likewise, the smallest subnormal
    infinite = good.copy()
    infinite[1, 0, 4, 1] = np.inf  # bitwise mirrored, not finite
    infinite[1, 4, 0, 1] = -np.inf if 1 in flips else np.inf
    for bad in (off, signed, tiny, infinite):
        for nested in (True, False):
            with pytest.raises(ValueError, match="bitwise"):
                _mirror_json(bad, flips, nested)
            assert len(_mirror_json(np.delete(bad, 1, axis=0), flips, nested)) == 2
