"""Seeded inputs and the request list of each workload.

Every input comes from the benchmark seed through ``qskew.skew.trial_seed``
and numpy's Philox generator and is written as a JSON matrix file, so the
program sees only files and argv.  A workload is a list of legs; one round
runs every leg once, in order.  Rounds cycle through a few input sets, so
each output is checked against the oracle the first time and compared byte
for byte on every repeat.
"""

import functools
import json
from dataclasses import dataclass

import numpy as np

import oracle
from qskew.skew import trial_seed

GAP_TOL = 1e-3          # search-basic's default --gap-tol
N4_TRIALS = 100
N8_TRIALS = 20
SMALL_FILES = 24        # 3x3 files per paper input set, half degenerate


@dataclass
class Request:
    argv: list
    key: tuple          # requests with equal keys must print equal bytes
    check: object       # stdout -> None, or the reason it is wrong


@dataclass
class Leg:
    """One request type at one size.  style names how the leg is reported:
    'rate' as trials per second, 's' as a median in seconds, 'ms' as
    median and p90 in milliseconds."""
    name: str
    size: str           # 'small' or 'large' input for the summary metrics, else 'pool'
    style: str
    rounds: list        # rounds[i % len(rounds)] is the request list of round i
    trials: int = 0

    def requests(self, index):
        return self.rounds[index % len(self.rounds)]


@dataclass
class Workload:
    name: str
    legs: list
    reference_z: np.ndarray         # n = 64 quaternion, for reference.eigh128_ms


def _rng(seed, stream):
    return np.random.Generator(np.random.Philox(key=trial_seed(seed, stream)))


def quat_skew(rng, n):
    """Uniform [-1, 1] components above the diagonal, negated below."""
    z = np.zeros((n, n, 4))
    iu = np.triu_indices(n, 1)
    z[iu] = rng.uniform(-1.0, 1.0, (len(iu[0]), 4))
    z[iu[1], iu[0]] = -z[iu]
    return z


def complex_skew(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return m - m.T


def triple_matrix(a, b, c):
    z = np.zeros((3, 3, 4))
    z[0, 1], z[1, 2], z[0, 2] = a, b, c
    z[1, 0], z[2, 1], z[2, 0] = -a, -b, -c
    return z


def degenerate_3x3(rng):
    """a = 0, or a real with b and c in one plane through 1 (so they commute)."""
    if rng.uniform() < 0.5:
        a = np.zeros(4)
        b, c = rng.uniform(-1, 1, 4), rng.uniform(-1, 1, 4)
    else:
        a = np.array([rng.uniform(0.1, 1.0) * rng.choice((-1.0, 1.0)), 0, 0, 0])
        mu = rng.normal(size=3)
        mu /= np.linalg.norm(mu)
        al, be, ga, de = rng.uniform(-1, 1, 4)
        b = np.concatenate([[al], be * mu])
        c = np.concatenate([[ga], de * mu])
    return triple_matrix(a, b, c)


def solid_3x3(rng):
    """Random triple whose W is clearly positive definite, far from the
    classification's tolerance."""
    while True:
        a, b, c = rng.uniform(-1, 1, (3, 4))
        z = triple_matrix(a, b, c)
        values = oracle.right_spectrum(z)
        if np.linalg.norm(a) > 0.1 and values[0] > 1e-3 * values[-1]:
            return z


def write_quat(path, z):
    n = z.shape[0]
    with open(path, "w") as fh:
        json.dump({"rows": n, "cols": n, "entries": z.reshape(-1, 4).tolist()}, fh)
    return str(path)


def write_complex(path, z):
    n = z.shape[0]
    flat = np.stack([z.real.ravel(), z.imag.ravel()], axis=1)
    with open(path, "w") as fh:
        json.dump({"rows": n, "cols": n, "entries_c": flat.tolist()}, fh)
    return str(path)


def _file_request(command, path, check, **kwargs):
    return Request([command, "--json", path], (command, path),
                   functools.partial(check, **kwargs))


def search(seed, workdir):
    """search-basic at n = 4 (one and two workers) and n = 8.  The two n = 4
    legs share seeds and keys, so their outputs must be identical."""
    seeds = [trial_seed(seed, 100 + k) for k in range(4)]

    def leg(name, size, n, trials, extra=()):
        check = functools.partial(oracle.check_search, n=n, trials=trials,
                                  gap_tol=GAP_TOL)
        rounds = [[Request(["search-basic", "--n", str(n), "--trials",
                            str(trials), "--seed", str(s), *extra],
                           ("search", n, trials, s), check)] for s in seeds]
        return Leg(name, size, "rate", rounds, trials)

    return Workload("search", [
        leg("search.n4", "small", 4, N4_TRIALS),
        # reported but kept out of small_cost: with two threads contending
        # for the interpreter lock its 30-second medians spread 26-40% on a
        # shared 2-core virtual machine
        leg("search.n4.workers2", "pool", 4, N4_TRIALS, ("--workers", "2")),
        leg("search.n8", "large", 8, N8_TRIALS),
    ], quat_skew(_rng(seed, 1), 64))


def dense(seed, workdir):
    """One n = 64 and four n = 16 matrices of each kind per input set, two
    sets: quaternion files through spectrum and inverse-check, complex
    files through hua."""
    sets = []
    for k in range(2):
        q64 = quat_skew(_rng(seed, 200 + k), 64)
        c64 = complex_skew(_rng(seed, 300 + k), 64)
        q16 = [quat_skew(_rng(seed, 400 + 4 * k + i), 16) for i in range(4)]
        c16 = [complex_skew(_rng(seed, 500 + 4 * k + i), 16) for i in range(4)]
        qfiles = [(write_quat(workdir / ("q64_%d.json" % k), q64), q64)] + [
            (write_quat(workdir / ("q16_%d_%d.json" % (k, i)), z), z)
            for i, z in enumerate(q16)]
        cfiles = [(write_complex(workdir / ("c64_%d.json" % k), c64), c64)] + [
            (write_complex(workdir / ("c16_%d_%d.json" % (k, i)), z), z)
            for i, z in enumerate(c16)]
        sets.append((qfiles, cfiles))

    def leg(name, size, command, check, which):
        rounds = []
        for qfiles, cfiles in sets:
            files = qfiles if command != "hua" else cfiles
            chosen = files[:1] if which == "large" else files[1:]
            rounds.append([_file_request(command, p, check, z=z) for p, z in chosen])
        return Leg(name, size, "s", rounds)

    return Workload("dense", [
        leg("spectrum.n64", "large", "spectrum", oracle.check_spectrum, "large"),
        leg("spectrum.n16", "small", "spectrum", oracle.check_spectrum, "small"),
        leg("hua.n64", "large", "hua", oracle.check_hua, "large"),
        leg("hua.n16", "small", "hua", oracle.check_hua, "small"),
        leg("inverse.n64", "large", "inverse-check", oracle.check_inverse, "large"),
        leg("inverse.n16", "small", "inverse-check", oracle.check_inverse, "small"),
    ], sets[0][0][0][1])


def paper(seed, workdir):
    """verify-paper (it takes no seed, see BENCHMARK.json) plus a seeded
    stream of 3x3 files, half degenerate and half solid, through spectrum
    and inverse-check."""
    sets = []
    for k in range(2):
        files = []
        for i in range(SMALL_FILES):
            rng = _rng(seed, 600 + SMALL_FILES * k + i)
            kind = "degenerate" if i % 2 == 0 else "solid"
            z = degenerate_3x3(rng) if kind == "degenerate" else solid_3x3(rng)
            files.append((write_quat(workdir / ("t3_%d_%d.json" % (k, i)), z), z, kind))
        sets.append(files)

    def leg(name, command, check):
        rounds = [[_file_request(command, p, check, z=z, kind=kind)
                   for p, z, kind in files] for files in sets]
        return Leg(name, "small", "ms", rounds)

    verify = Request(["verify-paper", "--json"], ("verify-paper",),
                     oracle.check_verify_paper)
    return Workload("paper", [
        Leg("verify_paper", "large", "s", [[verify]]),
        leg("small.spectrum", "spectrum", oracle.check_spectrum),
        leg("small.inverse", "inverse-check", oracle.check_inverse),
    ], quat_skew(_rng(seed, 1), 64))


WORKLOADS = {"search": search, "dense": dense, "paper": paper}
