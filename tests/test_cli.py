import argparse
import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qskew.cli
import qskew.clinalg
import qskew.hua
import qskew.quaternion
import qskew.skew
import qskew.spectra
from qskew import (BasicCandidate, DualQuatMatrix, QuatMatrix, SkewTriple, I, J,
                   basic_candidate_search, dq_hermitian_direct, dq_hermitian_split,
                   even_multiplicity_check, gram_product, gram_spectrum, hua_decompose,
                   inverse_skew_report, is_solid, random_skew_symmetric,
                   right_eigenvalues_hermitian, sample_degenerate_triple,
                   sample_generic_triple, save_matrix, trial_seed,
                   verify_classification)
from qskew.cli import build_parser, main
from qskew.matio import _hermitian_json, quat_matrix_to_dict


def write_ref3(tmp_path):
    z = SkewTriple(1, I + J, I + 2 * J).matrix()
    path = tmp_path / "ref3.json"
    save_matrix(path, z)
    return str(path)


def write_complex_skew(tmp_path, n=4, seed=0):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    z = m - m.T
    path = tmp_path / "cskew.json"
    save_matrix(path, z)
    return str(path)


def test_spectrum_human(tmp_path, capsys):
    rc = main(["spectrum", write_ref3(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "0.0635" in out and "7.2576" in out and "8.6789" in out
    assert "solid" in out


def test_spectrum_json(tmp_path, capsys):
    rc = main(["spectrum", write_ref3(tmp_path), "--json"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["solid"] is True
    np.testing.assert_allclose(
        data["spectrum"]["values"],
        (0.063504194127, 7.257608074322, 8.678887731551),
        atol=1e-9,
    )
    assert data["classification"]["case_label"] == "solid"
    assert data["classification"]["computed_values"] == data["spectrum"]["values"]
    assert data["classification_agrees"] is True


def spectrum_cases():
    """(name, Z) of every size the W writer must get right: random skew Z of
    n = 2-9, 16 and 64, the 1x1 zero, Z 2^-900 (whose printed W, 4^-900 of
    the one solved, underflows to signed zeros), and 3x3 files with a
    classification (solid and degenerate) and without one (the zero
    triple)."""
    cases = [("n1", QuatMatrix.zeros(1))]
    cases += [("n%d" % n, random_skew_symmetric(n, n)) for n in (2, 3, 4, 5, 6, 7, 8, 9, 16, 64)]
    cases += [("tiny", QuatMatrix(np.ldexp(random_skew_symmetric(5, 1).data, -900))),
              ("solid", SkewTriple(1, I + J, I + 2 * J).matrix()),
              ("degenerate", SkewTriple(0, I + J, 2 * J).matrix()),
              ("zero3", QuatMatrix.zeros(3))]
    return cases


@pytest.mark.parametrize("name, z", spectrum_cases(), ids=[c[0] for c in spectrum_cases()])
def test_spectrum_json_writes_w_as_json_dumps_would(tmp_path, capsys, name, z):
    path = tmp_path / (name + ".json")
    save_matrix(path, z)
    assert main(["spectrum", "--json", str(path)]) == 0
    out = capsys.readouterr().out
    data = json.loads(out)
    assert out == json.dumps(data, sort_keys=True) + "\n"
    w, _, e = gram_spectrum(z)
    entries = np.array(data["gram"]["entries"])
    assert entries.tobytes() == np.ldexp(w.data, 2 * e).reshape(-1, 4).tobytes()
    assert (data["gram"]["rows"], data["gram"]["cols"]) == w.shape
    assert ("classification_agrees" in data) == (name in ("n3", "solid", "degenerate"))
    if name in ("solid", "degenerate"):
        assert data["classification"]["case_label"] == name


def hermitian_from_upper(w):
    """w with its lower triangle the conjugate mirror of its upper one and
    a real diagonal, as QuatMatrix.gram builds it."""
    w = w.copy()
    lower, upper = np.tril_indices(w.shape[0], -1)
    w[lower, upper] = w[upper, lower] * [1, -1, -1, -1]
    w[np.arange(len(w)), np.arange(len(w)), 1:] = 0.0
    return w


def test_hermitian_json_is_json_dumps_for_signed_zeros_and_extreme_scales():
    w = random_skew_symmetric(6, 8).gram().data.copy()
    w[0, 1, 1:] = -0.0  # signed zeros above the diagonal, so +0.0 below
    w[2, 4, 2] = 0.0
    w[1, 5, 0] = -0.0
    w = hermitian_from_upper(w)
    for k in (0, 900, -900, -1070):
        m = QuatMatrix(np.ldexp(w, k))
        assert "".join(_hermitian_json(m)) == json.dumps(quat_matrix_to_dict(m), sort_keys=True), k
    skewed = w.copy()
    skewed[3, 0, 2] = -skewed[3, 0, 2]
    with pytest.raises(ValueError, match="bitwise Hermitian"):
        _hermitian_json(QuatMatrix(skewed))


def test_spectrum_skips_the_classification_of_a_zero_3x3(tmp_path, capsys):
    path = tmp_path / "zero3.json"
    save_matrix(path, QuatMatrix.zeros(3, 3))
    assert main(["spectrum", str(path), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["classification"] is None and data["solid"] is False
    assert main(["spectrum", str(path)]) == 0
    assert "3x3 classification: skipped (nonzero triple required)" in capsys.readouterr().out


def test_spectrum_accepts_complex_input(tmp_path, capsys):
    rc = main(["spectrum", write_complex_skew(tmp_path), "--json"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    vals = data["spectrum"]["values"]
    # complex skew matrices pair their positive gram eigenvalues
    assert len(vals) == 4
    assert abs(vals[0] - vals[1]) <= 1e-8 * max(1.0, vals[-1])
    assert abs(vals[2] - vals[3]) <= 1e-8 * max(1.0, vals[-1])


def test_spectrum_rejects_non_skew(tmp_path, capsys):
    path = tmp_path / "eye.json"
    save_matrix(path, QuatMatrix.eye(2))
    rc = main(["spectrum", str(path)])
    assert rc == 3
    assert "skew" in capsys.readouterr().err


def test_spectrum_missing_file(tmp_path, capsys):
    rc = main(["spectrum", str(tmp_path / "nope.json")])
    assert rc == 2


def test_hua_command(tmp_path, capsys):
    rc = main(["hua", write_complex_skew(tmp_path), "--json"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["zero_dim"] == 0
    assert len(data["sigmas"]) == 2
    assert data["residual"] <= 1e-8
    assert data["unitarity_residual"] <= 1e-10
    u = np.array([[complex(re, im) for re, im in row] for row in data["u"]])
    np.testing.assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-10)


def test_hua_rejects_quaternion_input(tmp_path, capsys):
    rc = main(["hua", write_ref3(tmp_path)])
    assert rc == 2
    assert "complex" in capsys.readouterr().err


def test_inverse_check(tmp_path, capsys):
    rc = main(["inverse-check", write_ref3(tmp_path), "--json"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["invertible"] is True
    assert data["skew_deviation"] > 0


def test_non_square_file_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "wide.json"
    save_matrix(path, QuatMatrix(np.ones((1, 2, 4))))
    complex_path = tmp_path / "wide_c.json"
    save_matrix(complex_path, np.array([[1.0 + 2.0j, -1.0j]]))
    for command, file in (("spectrum", path), ("inverse-check", path),
                          ("hua", complex_path)):
        for extra in ([], ["--json"]):
            assert main([command, str(file)] + extra) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err == ("input error: %s needs a square matrix, got 1x2\n"
                           % command)


def test_matrix_size_that_is_not_an_integer_is_an_input_error(tmp_path, capsys):
    # 1e400 parses to inf, which int() refused with an OverflowError traceback
    path = tmp_path / "huge.json"
    for rows in ("1e400", "2.9", '"2"', "true"):
        path.write_text('{"rows": %s, "cols": 2, "entries": [[0, 0, 0, 0], [0, 0, 0, 0]]}'
                        % rows)
        for command in ("spectrum", "inverse-check"):
            assert main([command, str(path)]) == 2
            out, err = capsys.readouterr()
            assert out == "" and err == 'input error: "rows" and "cols" must be integers\n'


def test_search_basic_deterministic(tmp_path, capsys):
    args = ["search-basic", "--n", "4", "--trials", "15", "--seed", "3"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    assert main(args + ["--workers", "3"]) == 0
    third = capsys.readouterr().out
    assert first == third
    lines = first.strip().splitlines()
    summary = json.loads(lines[-1])
    assert summary["trials"] == 15
    assert summary["hits"] == len(lines) - 1


class WriteLog:
    """A stdout that records each write."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)


def test_search_basic_writes_its_lines_a_block_at_a_time(monkeypatch):
    # a request of many chunks prints the text of one join, in writes of at
    # most a chunk of lines; the perfbench requests (n = 4 and 8) make one
    candidates = basic_candidate_search(4, 60, 3)
    summary = {"trials": 60, "hits": len(candidates),
               "min_gap": min(c.min_relative_gap for c in candidates),
               "max_gap": max(c.min_relative_gap for c in candidates)}
    lines = [json.dumps(c.to_dict(), sort_keys=True) for c in candidates]
    text = "\n".join(lines + [json.dumps(summary, sort_keys=True)]) + "\n"
    assert len(candidates) > 20
    for chunk in (1, 4, 7, len(candidates), len(candidates) + 1):
        log = WriteLog()
        monkeypatch.setattr(sys, "stdout", log)
        monkeypatch.setattr(qskew.cli, "_search_block", lambda n: chunk)
        assert main(["search-basic", "--n", "4", "--trials", "60", "--seed", "3"]) == 0
        assert "".join(log.writes) == text
        assert [w.count("\n") for w in log.writes[:-1]] == [chunk] * (len(log.writes) - 1)
        assert 0 < log.writes[-1].count("\n") <= chunk
    monkeypatch.undo()
    for n, trials in ((4, 100), (8, 20)):
        log = WriteLog()
        monkeypatch.setattr(sys, "stdout", log)
        assert main(["search-basic", "--n", str(n), "--trials", str(trials)]) == 0
        assert len(log.writes) == 1
        monkeypatch.undo()


def json_lines(hits):
    return [json.dumps(c.to_dict(), sort_keys=True) for c in hits]


@given(st.integers(min_value=4, max_value=17),
       st.one_of(st.integers(min_value=-2 ** 70, max_value=-1),
                 st.integers(min_value=2 ** 64, max_value=2 ** 70)),
       st.sampled_from([2.0 ** -1022, 1e-300, 1.0, 3.7, 1e152]),
       st.integers(min_value=1, max_value=40))
@settings(max_examples=40, deadline=None)
def test_hit_lines_are_json_dumps_of_search_hits(n, seed, scale, trials):
    # subnormal and exponent-form reprs of Z's components, and eigenvalues
    # that scale back to 0.0 at the smallest scales
    hits = basic_candidate_search(n, trials, seed, scale=scale)
    assert qskew.cli._hit_lines(hits) == json_lines(hits)


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300]


@st.composite
def hand_built_hits(draw):
    n = draw(st.integers(min_value=4, max_value=9))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    hits = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        upper = np.array(draw(st.lists(st.one_of(st.sampled_from(EDGE_FLOATS), finite),
                                       min_size=2 * n * (n - 1), max_size=2 * n * (n - 1))))
        data = np.zeros((n, n, 4))
        iu, ju = np.triu_indices(n, 1)
        data[iu, ju] = upper.reshape(-1, 4)
        data[ju, iu] = -data[iu, ju]
        values = np.array(draw(st.lists(finite, min_size=n, max_size=n)))
        hits.append(BasicCandidate(draw(st.integers(min_value=0, max_value=2 ** 70)), data,
                                   values, draw(finite)))
    return hits


@given(hand_built_hits())
@settings(max_examples=60, deadline=None)
def test_hit_lines_are_json_dumps_of_hand_built_hits(hits):
    assert qskew.cli._hit_lines(hits) == json_lines(hits)


def test_hit_lines_refuse_what_is_not_bitwise_skew_or_finite():
    # json.dumps would print such a hit, but not as the template does
    hits = basic_candidate_search(4, 30, 7)
    assert qskew.cli._hit_lines(hits) == json_lines(hits)
    hit = hits[3]
    lower = hit.data.copy()
    lower[2, 0, 1] = np.nextafter(lower[2, 0, 1], np.inf)  # one ulp off -Z[0, 2]
    diagonal = hit.data.copy()
    diagonal[1, 1, 2] = -0.0
    infinite = hit.data.copy()
    infinite[0, 3, 0], infinite[3, 0, 0] = np.inf, -np.inf  # bitwise skew, not finite
    bad = [BasicCandidate(hit.trial, data, hit.eigenvalues, hit.min_relative_gap)
           for data in (lower, diagonal, infinite)]
    bad.append(BasicCandidate(hit.trial, hit.data, np.append(hit.eigenvalues[:3], np.inf),
                              hit.min_relative_gap))
    bad.append(BasicCandidate(hit.trial, hit.data, hit.eigenvalues, math.nan))
    for c in bad:
        with pytest.raises(ValueError):
            qskew.cli._hit_lines(hits[:3] + [c])


def test_search_basic_calls_json_dumps_once_per_request(monkeypatch, capsys):
    # only the summary line goes through json.dumps; every hit line is
    # formatted from Z's upper triangle
    calls = []
    dumps = json.dumps
    monkeypatch.setattr(qskew.cli.json, "dumps",
                        lambda *args, **kwargs: calls.append(args) or dumps(*args, **kwargs))
    for n, trials in ((4, 100), (8, 20)):
        calls.clear()
        assert main(["search-basic", "--n", str(n), "--trials", str(trials)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) > 10
        assert calls == [(json.loads(lines[-1]),)]


def test_search_basic_rejects_small_n(capsys):
    assert main(["search-basic", "--n", "3", "--trials", "5"]) == 2
    # non-positive or non-finite scale and gap threshold are input errors
    for flag in ("--scale", "--gap-tol"):
        for value in ("0", "-1", "nan", "inf"):
            assert main(["search-basic", "--trials", "5", flag, value]) == 2
    for value in ("0", "-1"):
        assert main(["search-basic", "--trials", "5", "--workers", value]) == 2


def test_unread_flags_are_rejected(capsys):
    # verify-paper judges each row by a fixed bound and search-basic always
    # prints JSON lines, so neither accepts --tol, and search-basic no --json
    for argv in (["verify-paper", "--tol", "1"],
                 ["search-basic", "--tol", "1"],
                 ["search-basic", "--json"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_tol_flag_and_env(tmp_path, capsys, monkeypatch):
    ref3 = write_ref3(tmp_path)
    # an absurdly loose tolerance flips the solidity verdict
    rc = main(["spectrum", ref3, "--tol", "100", "--json"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["solid"] is False

    monkeypatch.setenv("QSKEW_TOL", "100")
    rc = main(["spectrum", ref3, "--json"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["solid"] is False

    # explicit flag wins over the environment
    rc = main(["spectrum", ref3, "--tol", "1e-10", "--json"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["solid"] is True

    monkeypatch.setenv("QSKEW_TOL", "not-a-number")
    assert main(["spectrum", ref3, "--json"]) == 2
    # verify-paper takes no tolerance, so the variable does not concern it
    assert main(["verify-paper"]) == 0
    monkeypatch.setenv("QSKEW_TOL", "-1")
    assert main(["spectrum", ref3, "--json"]) == 2
    for value in ("nan", "inf"):
        monkeypatch.setenv("QSKEW_TOL", value)
        assert main(["spectrum", ref3, "--json"]) == 2
    monkeypatch.delenv("QSKEW_TOL")
    for value in ("nan", "inf"):
        assert main(["spectrum", ref3, "--tol", value, "--json"]) == 2


def test_verify_paper_all_rows_pass(capsys):
    rc = main(["verify-paper"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = [ln for ln in out.splitlines() if ln.startswith("[")]
    assert len(lines) == 8
    assert all(ln.startswith("[PASS]") for ln in lines)
    assert "misprinted" in out


def test_parser_help_lists_subcommands():
    parser = build_parser()
    text = parser.format_help()
    for name in ("spectrum", "verify-paper", "hua", "search-basic", "inverse-check"):
        assert name in text


def run_calls(calls, monkeypatch, capsys):
    """(exit code, stdout, stderr) of each (argv, QSKEW_TOL) call in turn,
    the variable unset where it is None."""
    results = []
    for argv, tol in calls:
        if tol is None:
            monkeypatch.delenv("QSKEW_TOL", raising=False)
        else:
            monkeypatch.setenv("QSKEW_TOL", tol)
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        captured = capsys.readouterr()
        results.append((rc, captured.out, captured.err))
    return results


def test_main_builds_its_parser_once(tmp_path, monkeypatch, capsys):
    # one mixed sequence in one process prints what the same calls print,
    # each with a parser of its own, and builds one parser (with its five
    # subparsers) at most
    ref3, cskew = write_ref3(tmp_path), write_complex_skew(tmp_path)
    calls = [(argv + flags, None)
             for argv in (["spectrum", ref3], ["hua", cskew],
                          ["inverse-check", ref3], ["verify-paper"])
             for flags in ([], ["--json"])]
    calls += [(["search-basic", "--n", "4", "--trials", "3"], None),
              (["hua", "--help"], None),
              (["spectrum", ref3, "--bogus"], None),
              (["spectrum", str(tmp_path / "nope.json")], None),
              (["spectrum", ref3, "--json"], "100"),
              (["spectrum", ref3, "--json"], None)]
    with monkeypatch.context() as patch:
        patch.setattr(qskew.cli, "build_parser",
                      getattr(build_parser, "__wrapped__", build_parser))
        fresh = run_calls(calls, monkeypatch, capsys)

    built = []
    init = argparse.ArgumentParser.__init__

    def spy(parser, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(parser, *args, **kwargs)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    reused = run_calls(calls, monkeypatch, capsys)
    assert len(built) <= 6, built
    assert reused == fresh
    assert [rc for rc, _, _ in fresh[-6:]] == [0, 0, 2, 2, 0, 0]
    # QSKEW_TOL is read per call: set, it flips the solid verdict; unset, not
    assert [json.loads(out)["solid"] for _, out, _ in fresh[-2:]] == [False, True]


@pytest.mark.parametrize("argv", [["--help"], ["spectrum", "--bogus"]])
def test_one_shot_process_prints_what_main_prints(argv, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    proc = subprocess.run([sys.executable, "-m", "qskew.cli"] + argv,
                          capture_output=True, text=True, timeout=120)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        exc.value.code, captured.out, captured.err)


def test_tol_help_names_each_default(capsys):
    # hua defaults to HUA_TOL, the other file commands to GENERAL_TOL
    for command, default in (("hua", "1e-08"), ("spectrum", "1e-10"),
                             ("inverse-check", "1e-10")):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "tolerance (default %s, or QSKEW_TOL)" % default in text


def test_search_basic_zero_trials_prints_only_summary(capsys):
    assert main(["search-basic", "--trials", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["trials"] == 0
    assert json.loads(lines[0])["hits"] == 0


def spy_on_herm_eig(monkeypatch, calls):
    """Record, for every herm_eig call from spectra and hua, the function
    that made it and the shape of its input as a stack."""
    for module in (qskew.spectra, qskew.hua):
        def spy(h, *tol, solve=module.herm_eig):
            calls.append((sys._getframe(1).f_code.co_name,
                          (1,) * (3 - np.ndim(h)) + np.shape(h)))
            return solve(h, *tol)
        monkeypatch.setattr(module, "herm_eig", spy)


def test_hua_decompose_makes_no_herm_eig_call(tmp_path, monkeypatch, capsys):
    # hua works on Z itself; only even_multiplicity_check forms Z Z*
    calls = []
    spy_on_herm_eig(monkeypatch, calls)
    for n in (3, 16):
        assert main(["hua", "--json", write_complex_skew(tmp_path, n, n)]) == 0
    assert calls == []
    assert main(["verify-paper", "--json"]) == 0
    assert calls and "hua_decompose" not in {caller for caller, _ in calls}
    capsys.readouterr()


def test_every_eigen_solve_goes_through_tridiagonal(tmp_path, monkeypatch, capsys):
    # one eigen path: every herm_eig call reduces its whole stack to
    # tridiagonal form, at every size; a quaternion request solves a
    # tridiagonal of size n, not the 2n of its complex adjoint
    reduced, sizes = [], []
    reduce, solve = qskew.clinalg._tridiagonal, qskew.clinalg._tridiagonal_eig

    def spy_reduce(a):
        reduced.append(a.shape)
        return reduce(a)

    def spy_solve(d, e2, vectors=False):
        sizes.append(d.shape[1])
        return solve(d, e2, vectors)
    monkeypatch.setattr(qskew.clinalg, "_tridiagonal", spy_reduce)
    monkeypatch.setattr(qskew.clinalg, "_tridiagonal_eig", spy_solve)
    solves = []
    spy_on_herm_eig(monkeypatch, solves)
    for n in (3, 4, 8, 16, 64):
        path = tmp_path / ("z%d.json" % n)
        save_matrix(path, random_skew_symmetric(n, n))
        assert main(["spectrum", "--json", str(path)]) == 0
    for n in (4, 8):
        assert main(["search-basic", "--n", str(n), "--trials", "3"]) == 0
    capsys.readouterr()
    assert [shape for _, shape in solves] == reduced
    assert {shape[-1] for _, shape in solves} == {6, 8, 16, 32, 128}
    assert sizes == [3, 4, 8, 16, 64, 4, 8]
    # verify-paper: its quaternion rows at n = 2, 3 and 4, its complex row
    # at the size of each complex matrix
    del solves[:], sizes[:]
    assert main(["verify-paper", "--json"]) == 0
    capsys.readouterr()
    by_caller = {}
    for (caller, _), size in zip(solves, sizes):
        by_caller.setdefault(caller, set()).add(size)
    assert len(solves) == len(sizes)
    assert by_caller == {"right_eigenvalues_hermitian": {2, 3, 4},
                         "even_multiplicity_check": set(range(2, 9))}


def test_verify_paper_solves_rows_in_stacks(monkeypatch, capsys):
    # one values-only call per row and matrix size (2x2, 3x3 reference,
    # 3x3 degenerate, 4x4, and seven sizes of complex skew matrices); the
    # canonical pair form row makes none
    calls = []
    spy_on_herm_eig(monkeypatch, calls)
    # the canonical pair form, the LU inverse and the dual tests: at most
    # one call per row and matrix size too, each on a stack
    stacks = {}
    for module, name in ((qskew.cli, "hua_decompose"), (qskew.spectra, "lu_inverse"),
                         (qskew.cli, "dq_hermitian_direct"), (qskew.cli, "dq_hermitian_split")):
        def spy(a, *args, solve=getattr(module, name), name=name, **kwargs):
            shape = np.shape(a.std.data)[:-1] if name.startswith("dq_") else np.shape(a)
            stacks.setdefault(name, []).append(shape)
            return solve(a, *args, **kwargs)
        monkeypatch.setattr(module, name, spy)
    assert main(["verify-paper", "--json"]) == 0
    assert 0 < len(calls) <= 11
    assert "hua_decompose" not in {caller for caller, _ in calls}
    capsys.readouterr()
    for name, shapes in stacks.items():
        assert all(len(shape) == 3 for shape in shapes), name
        assert len({shape[1:] for shape in shapes}) == len(shapes), name
    assert sorted(shape[1] for shape in stacks["hua_decompose"]) == list(range(2, 10))
    assert sum(shape[0] for shape in stacks["hua_decompose"]) == 20
    # chi of twenty 2x2 and of twenty-five 3x3 matrices
    assert stacks["lu_inverse"] == [(20, 4, 4), (25, 6, 6)]
    assert len(stacks["dq_hermitian_direct"]) <= 4
    assert stacks["dq_hermitian_split"] == stacks["dq_hermitian_direct"]
    assert sum(shape[0] for shape in stacks["dq_hermitian_direct"]) == 100


def test_verify_paper_classifies_each_triple_row_in_one_pass(monkeypatch):
    # the degenerate and inverse rows: one _classify_stack pass each, no
    # scalar classify_3x3 call, and no Quaternion, SkewTriple or 3x3
    # QuatMatrix built per triple; the only 3x3 matrices built are the
    # twenty solid triples' inverses that inverse_skew_report returns
    passes, scalar, built = [], [], []
    stack_pass, classify = qskew.skew._classify_stack, qskew.skew.classify_3x3
    monkeypatch.setattr(qskew.skew, "_classify_stack",
                        lambda e: passes.append(len(e)) or stack_pass(e))
    monkeypatch.setattr(qskew.skew, "classify_3x3",
                        lambda t: scalar.append(t) or classify(t))
    init = QuatMatrix.__init__
    monkeypatch.setattr(QuatMatrix, "__init__",
                        lambda self, data: built.append(np.shape(data)) or init(self, data))
    monkeypatch.setattr(qskew.quaternion.Quaternion, "__init__",
                        lambda *args: pytest.fail("a Quaternion was built"))
    monkeypatch.setattr(SkewTriple, "__post_init__",
                        lambda self: pytest.fail("a SkewTriple was built"))
    for row, sizes, inverses in ((qskew.cli._row_degenerate, [50], 0),
                                 (qskew.cli._row_inverse, [20], 20)):
        del passes[:], built[:]
        assert row()[0]
        assert passes == sizes and not scalar
        assert built.count((3, 3, 4)) == inverses


def test_inverse_row_takes_its_norms_in_one_pass_per_stack(monkeypatch):
    # bitwise each report's own skew_deviation / inverse.norm(), at any
    # scale; the only norms the row takes are inverse_skew_report's, one
    # per stack
    for n in (2, 3):
        z = random_skew_symmetric(n, list(range(6)))
        z = QuatMatrix(np.ldexp(z.data, np.array([0, -600, 500, 3, -40, 0])[:, None, None, None]))
        reports = inverse_skew_report(z)
        assert qskew.cli._relative_deviations(reports).tolist() == [
            r.skew_deviation / r.inverse.norm() for r in reports]
    norms = []
    norm = QuatMatrix.norm

    def spy(self):
        norms.append(self.data.shape)
        return norm(self)
    monkeypatch.setattr(QuatMatrix, "norm", spy)
    assert qskew.cli._row_inverse()[0]
    assert norms == [(20, 2, 2, 4), (25, 3, 3, 4)]


def test_verify_paper_stacked_rows_match_single_calls(capsys):
    # the six stacked rows recomputed one matrix per call, as they were
    # before stacking, give the same detail strings
    worst = 0.0
    for t in range(25):
        z = random_skew_symmetric(2, trial_seed(11, t))
        values = right_eigenvalues_hermitian(gram_product(z)).values
        expect = z.entry(0, 1).norm_sq()
        worst = max(worst, float(np.abs(values - expect).max()) / expect)
    two_by_two = "double value |a|^2, worst relative error %.2e" % worst

    rng = np.random.Generator(np.random.Philox(key=23))
    worst = 0.0
    for _ in range(50):
        report = verify_classification(sample_degenerate_triple(rng))
        worst = max(worst, report.max_deviation / max(report.predicted_values))
    degenerate = "50 degenerate triples, worst relative deviation %.2e" % worst

    rng = np.random.Generator(np.random.Philox(key=31))
    even = []
    for _ in range(100):
        n = int(rng.integers(2, 9))
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        even.append(even_multiplicity_check(m - m.T))
    assert all(even)

    rng = np.random.Generator(np.random.Philox(key=37))
    worst_res = worst_uni = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 10))
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        z = m - m.T
        form = hua_decompose(z)
        worst_res = max(worst_res, form.residual / np.sqrt(np.vdot(z, z).real))
        worst_uni = max(worst_uni, form.unitarity_residual)
    hua = ("20 random matrices, worst relative residual %.2e, worst unitarity %.2e"
           % (worst_res, worst_uni))

    rng = np.random.Generator(np.random.Philox(key=41))
    worst2 = 0.0
    for t in range(20):
        report = inverse_skew_report(random_skew_symmetric(2, trial_seed(43, t)))
        worst2 = max(worst2, report.skew_deviation / report.inverse.norm())
    floor3 = np.inf
    for _ in range(20):
        report = inverse_skew_report(sample_generic_triple(rng).matrix())
        floor3 = min(floor3, report.skew_deviation / report.inverse.norm())
    assert not any(inverse_skew_report(sample_degenerate_triple(rng).matrix()).invertible
                   for _ in range(5))
    inverse = ("2x2 worst relative deviation %.2e; 3x3 solid floor %.2e; "
               "degenerate all singular" % (worst2, floor3))

    rng = np.random.Generator(np.random.Philox(key=47))
    for _ in range(100):
        n = int(rng.integers(1, 5))
        if rng.uniform() < 0.5:
            a = DualQuatMatrix(rng.uniform(-1, 1, (n, n, 4)), rng.uniform(-1, 1, (n, n, 4)))
        else:
            s, k = (QuatMatrix(rng.uniform(-1, 1, (n, n, 4))) for _ in range(2))
            a = DualQuatMatrix(s + s.conj_transpose(), k - k.transpose())
        assert dq_hermitian_direct(a) == dq_hermitian_split(a)

    assert main(["verify-paper", "--json"]) == 0
    rows = {r["name"]: r["detail"]
            for r in json.loads(capsys.readouterr().out)["rows"]}
    assert rows["2x2 double eigenvalue"] == two_by_two
    assert rows["3x3 degenerate spectrum formula"] == degenerate
    assert rows["complex even multiplicity"] == (
        "100 random complex skew matrices, all multiplicities even")
    assert rows["canonical pair form"] == hua
    assert rows["inverse skew contrast"] == inverse
    assert rows["dual hermitian characterization"] == (
        "100 random dual matrices, both hermitian tests always agree")


@pytest.mark.parametrize("c", [1e-200, 1e-300])
def test_spectrum_classifies_tiny_triples(tmp_path, capsys, c):
    # the triple's squared norms underflow, its components do not
    path = tmp_path / "tiny.json"
    save_matrix(path, SkewTriple(1, I + J, I + 2 * J).matrix().scale(c))
    assert main(["spectrum", str(path)]) == 0
    out = capsys.readouterr().out
    assert "3x3 classification: solid\n" in out
    assert "skipped" not in out
    assert main(["spectrum", "--json", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)["classification"]
    assert report["case_label"] == "solid"
    # |c a^-1 b - b a^-1 c| = 2 for the unit triple, and scales with c
    assert report["condition_lhs_rhs_gap"] == pytest.approx(2 * c, rel=1e-14)


@pytest.mark.parametrize("c", [1e-160, 1e-200, 1e-300])
def test_spectrum_of_tiny_triples_agrees_with_classification(tmp_path, capsys, c):
    # W = Z Z* underflows: the spectrum and the solid verdict come from Z
    # scaled by a power of two, and W and the values are scaled back
    path = tmp_path / "tiny.json"
    z = SkewTriple(1, I + J, I + 2 * J).matrix()
    save_matrix(path, z.scale(c))
    assert main(["spectrum", "--json", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["solid"] is True and out["classification_agrees"] is True
    unit = right_eigenvalues_hermitian(gram_product(z)).values
    np.testing.assert_allclose(out["spectrum"]["values"], unit * c * c,
                               rtol=1e-12, atol=np.ldexp(1.0, -1072))
    assert main(["spectrum", str(path)]) == 0
    out = capsys.readouterr().out
    assert "solid (W positive definite): yes\n" in out
    assert "classification agrees with spectrum: yes\n" in out


def test_spectrum_refuses_unrepresentable_gram(tmp_path, capsys):
    # Z Z* overflows; a RuntimeWarning from numpy would fail this test
    path = tmp_path / "huge.json"
    save_matrix(path, SkewTriple(1, I + J, I + 2 * J).matrix().scale(1e160))
    for flags in ([], ["--json"]):
        assert main(["spectrum", str(path)] + flags) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(
            "math contract violation: W = Z Z* is not representable")


def test_spectrum_prints_a_zero_eigenvalue_without_sign(tmp_path, capsys):
    # the zero eigenvalue of this degenerate triple comes out just below 0;
    # rounded for text it is 0, not -0, while --json keeps the value
    triple = sample_degenerate_triple(np.random.default_rng(0))
    path = tmp_path / "degenerate.json"
    save_matrix(path, triple.matrix())
    assert main(["spectrum", "--json", str(path)]) == 0
    values = json.loads(capsys.readouterr().out)["spectrum"]["values"]
    assert values[0] < 0
    assert main(["spectrum", str(path)]) == 0
    out = capsys.readouterr().out
    assert "right eigenvalues of W: 0, %g, %g\n" % (round(values[1], 4),
                                                      round(values[2], 4)) in out
    assert "predicted (0, " in out


@pytest.mark.parametrize("c", [1.0, 1e-160, 2.0 ** -600, 1e150])
def test_spectrum_solid_is_is_solid(tmp_path, capsys, c):
    # one definiteness rule: the "solid" of spectrum --json, at the default
    # tol, is is_solid of the same file, for both verdicts and every size
    rng = np.random.default_rng(7)
    zs = [SkewTriple(1, I + J, I + 2 * J).matrix(),
          sample_degenerate_triple(rng).matrix(), QuatMatrix.zeros(4)]
    zs += [random_skew_symmetric(n, n) for n in range(3, 9)]
    seen = set()
    for k, z in enumerate(zs):
        path = tmp_path / ("z%d.json" % k)
        save_matrix(path, z.scale(c))
        assert main(["spectrum", "--json", str(path)]) == 0
        solid = json.loads(capsys.readouterr().out)["solid"]
        assert solid is is_solid(z.scale(c)) is is_solid(z)
        seen.add(solid)
    assert seen == {True, False}


@pytest.mark.parametrize("scale", ["5e-324", "1e-310"])
def test_search_basic_rejects_a_subnormal_scale(capsys, scale):
    assert main(["search-basic", "--trials", "5", "--scale", scale]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "--scale must be normal, at least 2^-1022\n"


@pytest.mark.parametrize("scale", ["1e308", repr(float(np.nextafter(np.finfo(float).max / 2, np.inf)))])
def test_search_basic_rejects_a_scale_beyond_half_the_largest_float(capsys, scale):
    assert main(["search-basic", "--trials", "5", "--scale", scale]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("--scale must be at most 2^510 / sqrt(n (n - 1)) = "
                            "9.676251896993948e+152 at --n 4, so that W = Z Z* stays "
                            "in the float range\n")


@pytest.mark.parametrize("n", [4, 8])
def test_search_basic_takes_every_scale_whose_w_is_representable(capsys, n):
    # ||Z||_F <= 2 scale sqrt(n (n - 1)) stays at 2^511, so W = Z Z* and its
    # eigenvalues stay finite: the limit itself runs without a warning, and
    # the next float up is refused at the flag check, not by gram_product
    limit = math.ldexp(1.0, 510) / math.sqrt(n * (n - 1))
    argv = ["search-basic", "--n", str(n), "--trials", "30", "--seed", "5", "--scale"]
    assert main(argv + [repr(limit)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert main(argv + ["1"]) == 0
    assert (json.loads(capsys.readouterr().out.splitlines()[-1])["hits"]
            == json.loads(captured.out.splitlines()[-1])["hits"])
    assert main(argv + [repr(math.nextafter(limit, math.inf))]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("--scale must be at most 2^510 / sqrt(n (n - 1)) = %r at --n %d, "
                            "so that W = Z Z* stays in the float range\n" % (limit, n))


def test_search_basic_gap_tol_beyond_the_float_range_finds_no_hit(capsys):
    # gap_tol * the largest value overflows: an infinite floor, cleared by no
    # spectrum, and no warning
    assert main(["search-basic", "--trials", "5", "--gap-tol", "1e308"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == '{"hits": 0, "max_gap": null, "min_gap": null, "trials": 5}\n'


def test_search_basic_takes_the_smallest_normal_scale(capsys):
    assert main(["search-basic", "--trials", "5", "--scale", repr(2.0 ** -1022)]) == 0
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["trials"] == 5


def test_search_basic_rejects_negative_trials(capsys):
    assert main(["search-basic", "--trials", "-1"]) == 2
    assert "--trials must be nonnegative" in capsys.readouterr().err


def test_search_basic_hits_do_not_depend_on_scale(capsys):
    # at 1e-170, W = Z Z* of the drawn Z underflows unless Z is scaled up
    # first; the hits are judged at unit size, as at scale 1
    for scale in ("1", "1e-170"):
        assert main(["search-basic", "--n", "4", "--trials", "70", "--seed", "3",
                     "--scale", scale]) == 0
        assert json.loads(capsys.readouterr().out.splitlines()[-1])["hits"] == 70
