import json

import numpy as np
import pytest

from qskew import (
    MatrixFormatError,
    QuatMatrix,
    complex_matrix_to_dict,
    load_matrix,
    matrix_from_dict,
    quat_matrix_to_dict,
    random_skew_symmetric,
    save_matrix,
)


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
