import json
import sys

import numpy as np
import pytest

import qskew.clinalg
import qskew.hua
import qskew.spectra
from qskew import QuatMatrix, SkewTriple, I, J, random_skew_symmetric, save_matrix
from qskew.cli import build_parser, main


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
    assert data["classification_agrees"] is True


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


def test_search_basic_rejects_small_n(capsys):
    assert main(["search-basic", "--n", "3", "--trials", "5"]) == 2
    # non-positive or non-finite scale and gap threshold are input errors
    for flag in ("--scale", "--gap-tol"):
        for value in ("0", "-1", "nan", "inf"):
            assert main(["search-basic", "--trials", "5", flag, value]) == 2


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


def test_only_hua_decompose_asks_for_eigenvectors(tmp_path, monkeypatch, capsys):
    # every herm_eig call that accumulates eigenvectors, by calling function
    calls = []

    def spy_on(module):
        solve = module.herm_eig

        def spy(h, vectors=True):
            if vectors:
                calls.append(sys._getframe(1).f_code.co_name)
            return solve(h, vectors)
        monkeypatch.setattr(module, "herm_eig", spy)

    spy_on(qskew.spectra)
    spy_on(qskew.hua)
    for n in (3, 16):
        path = tmp_path / ("z%d.json" % n)
        save_matrix(path, random_skew_symmetric(n, n))
        assert main(["spectrum", "--json", str(path)]) == 0
    assert calls == []
    assert main(["verify-paper", "--json"]) == 0
    assert calls == ["hua_decompose"] * 20
    capsys.readouterr()


def test_large_spectra_skip_jacobi(tmp_path, monkeypatch, capsys):
    # values-only solves from 2n = TRIDIAG_MIN up go through the tridiagonal
    # route; the small stacks of search-basic stay on Jacobi
    sizes = []
    solve = qskew.clinalg._jacobi

    def spy(a, vectors):
        sizes.append(a.shape[-1])
        return solve(a, vectors)
    monkeypatch.setattr(qskew.clinalg, "_jacobi", spy)
    for n in (16, 64):
        path = tmp_path / ("z%d.json" % n)
        save_matrix(path, random_skew_symmetric(n, n))
        assert main(["spectrum", "--json", str(path)]) == 0
    assert sizes == []
    for n in (4, 8):
        assert main(["search-basic", "--n", str(n), "--trials", "3"]) == 0
    assert sizes == [8, 16]
    capsys.readouterr()
