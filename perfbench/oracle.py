"""Independent checks of qskew's JSON outputs with numpy.linalg.

The program's kernels are written without numpy.linalg on purpose, so the
library routines here are an independent reference.  Every check returns
None when the output is right and a one-line reason when it is not.
"""

import json

import numpy as np


def chi(q):
    """Complex adjoint of an (m, n, 4) quaternion array."""
    q = np.asarray(q, dtype=float)
    ac = q[..., 0] + 1j * q[..., 1]
    ad = q[..., 2] + 1j * q[..., 3]
    return np.block([[ac, ad], [-ad.conj(), ac.conj()]])


def right_spectrum(z):
    """Ascending right eigenvalues of W = Z Z* for a quaternion Z."""
    c = chi(z)
    return np.linalg.eigvalsh(c @ c.conj().T)[::2]


def quat_entries(entries, n):
    return np.asarray(entries, dtype=float).reshape(n, n, 4)


def load(path):
    with open(path) as fh:
        data = json.load(fh)
    n = data["rows"]
    if "entries" in data:
        return quat_entries(data["entries"], n)
    flat = np.asarray(data["entries_c"], dtype=float)
    return (flat[:, 0] + 1j * flat[:, 1]).reshape(n, n)


def _close(got, want, scale, rtol=1e-8):
    got = np.asarray(got, dtype=float)
    return got.shape == np.shape(want) and bool(
        np.all(np.abs(got - want) <= rtol * max(scale, 1e-300)))


def check_search(out, n, trials, gap_tol):
    """Every hit is a skew matrix whose right spectrum the oracle confirms;
    the summary line agrees with the hit lines."""
    lines = [json.loads(line) for line in out.splitlines()]
    if not lines:
        return "no output"
    *hits, summary = lines
    seen = -1
    for hit in hits:
        if not seen < hit["trial"] < trials:
            return "hit trials out of order or range"
        seen = hit["trial"]
        z = np.asarray(hit["matrix"], dtype=float)
        if z.shape != (n, n, 4) or np.abs(z + z.transpose(1, 0, 2)).max() > 0:
            return "trial %d: matrix is not %dx%d skew" % (seen, n, n)
        want = right_spectrum(z)
        lam = float(want.max())
        if not _close(hit["eigenvalues"], want, lam):
            return "trial %d: eigenvalues differ from eigvalsh" % seen
        if abs(sum(hit["eigenvalues"]) - float((z ** 2).sum())) > 1e-8 * lam * n:
            return "trial %d: eigenvalues do not sum to |Z|_F^2" % seen
        gap = min(float(want[0]), float(np.diff(want).min())) / lam
        if gap <= gap_tol * (1 - 1e-6):
            return "trial %d: reported as a hit but gap %.3g" % (seen, gap)
    gaps = [h["min_relative_gap"] for h in hits]
    if (summary.get("trials") != trials or summary.get("hits") != len(hits)
            or summary.get("min_gap") != (min(gaps) if gaps else None)
            or summary.get("max_gap") != (max(gaps) if gaps else None)):
        return "summary line disagrees with the hits"
    return None


def check_spectrum(out, z, kind=None):
    """Gram product, right eigenvalues and solidity against the oracle; for
    a 3x3 input of known kind, the classification must agree."""
    doc = json.loads(out)
    n = z.shape[0]
    c = chi(z)
    w_want = c @ c.conj().T
    w_got = chi(quat_entries(doc["gram"]["entries"], n))
    scale = float(np.abs(w_want).max())
    if not _close(np.abs(w_got - w_want).max(), 0.0, scale, 1e-12):
        return "gram product differs from Z Z*"
    want = np.linalg.eigvalsh(w_want)[::2]
    lam = float(want.max())
    if not _close(doc["spectrum"]["values"], want, lam):
        return "right eigenvalues differ from eigvalsh"
    if kind is not None:
        if doc.get("classification_agrees") is not True:
            return "classification does not agree with the spectrum"
        if doc["classification"]["case_label"] != kind:
            return "classified %s, generated %s" % (
                doc["classification"]["case_label"], kind)
        if doc["solid"] != (kind == "solid"):
            return "solid flag contradicts the generated kind"
    else:
        # the program's threshold lies between these two; skip in between
        low = float(want.min()) / lam
        if (low > 1e-8 and not doc["solid"]) or (low < 1e-12 and doc["solid"]):
            return "solid flag contradicts the oracle spectrum"
    return None


def check_hua(out, z):
    """Sigmas are the paired singular values of Z, and the returned U is
    unitary with U Z U^T in canonical block form."""
    doc = json.loads(out)
    n = z.shape[0]
    sv = np.linalg.svd(z, compute_uv=False)
    top = float(sv[0])
    sigmas = np.asarray(doc["sigmas"], dtype=float)
    k = sigmas.size
    if k == 0 or not _close(sigmas, sv[0:2 * k:2], top) or \
            not _close(sigmas, sv[1:2 * k:2], top):
        return "sigmas differ from the paired singular values"
    if doc["zero_dim"] != n - 2 * k:
        return "zero block has the wrong size"
    u = np.asarray(doc["u"], dtype=float)
    u = u[..., 0] + 1j * u[..., 1]
    if np.linalg.norm(u.conj().T @ u - np.eye(n)) > 1e-8:
        return "U is not unitary"
    canon = np.zeros((n, n), dtype=complex)
    for t, s in enumerate(sigmas):
        canon[2 * t, 2 * t + 1], canon[2 * t + 1, 2 * t] = s, -s
    if np.linalg.norm(u @ z @ u.T - canon) > 1e-8 * max(1.0, np.linalg.norm(z)):
        return "U Z U^T is not the canonical form"
    return None


def check_inverse(out, z, kind=None):
    """An invertible Z comes back with Z Z^-1 = I and the reported skew
    deviation; a degenerate 3x3 must come back singular, a solid one must
    have an inverse that is not skew."""
    doc = json.loads(out)
    n = z.shape[0]
    if kind == "degenerate":
        return None if doc["invertible"] is False else \
            "degenerate 3x3 reported invertible"
    if doc["invertible"] is not True:
        return "invertible matrix reported singular"
    inv = np.asarray(doc["inverse"], dtype=float)
    c, ci = chi(z), chi(inv)
    bound = 1e-10 * np.linalg.norm(c) * np.linalg.norm(ci)
    if np.linalg.norm(c @ ci - np.eye(2 * n)) > bound:
        return "Z Z^-1 is not the identity"
    deviation = float(np.sqrt(((inv + inv.transpose(1, 0, 2)) ** 2).sum()))
    if abs(deviation - doc["skew_deviation"]) > 1e-8 * max(1.0, deviation):
        return "skew deviation differs from |inv^T + inv|_F"
    if kind == "solid" and deviation <= 1e-6 * np.linalg.norm(ci):
        return "solid 3x3 inverse stayed skew"
    return None


def check_verify_paper(out):
    doc = json.loads(out)
    rows = doc.get("rows", [])
    if doc.get("all_pass") is not True or len(rows) != 8 or \
            not all(r.get("pass") for r in rows):
        return "verify-paper did not pass all 8 rows"
    return None
