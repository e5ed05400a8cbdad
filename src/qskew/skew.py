"""Structure of quaternion skew-symmetric matrices.

The 3x3 case classifies completely: writing the matrix through its three
independent entries (a, b, c), the Gram product W = Z Z* either has the
degenerate spectrum (0, s, s) with s = |a|^2 + |b|^2 + |c|^2, or three
distinct positive eigenvalues ("solid") exactly when a is nonzero and
c a^-1 b differs from b a^-1 c.  For larger sizes the module provides a
seeded random search for matrices whose W has fully distinct positive
spectrum, plus the quaternion side of the even-multiplicity contrast.
"""

from dataclasses import dataclass, field

import numpy as np

from .clinalg import SingularMatrixError
from .hua import positive_clusters
from .qmatrix import QuatMatrix, random_skew_symmetric
from .quaternion import Quaternion
from .spectra import (gram_product, is_positive_definite, quat_inverse,
                      right_eigenvalues_hermitian)

# trials whose spectra basic_candidate_search solves in one eigensolver call
SEARCH_BLOCK = 64


@dataclass
class SkewTriple:
    """The independent entries (a, b, c) of a 3x3 skew-symmetric matrix."""
    a: Quaternion
    b: Quaternion
    c: Quaternion

    def __post_init__(self):
        self.a = Quaternion.coerce(self.a)
        self.b = Quaternion.coerce(self.b)
        self.c = Quaternion.coerce(self.c)

    def matrix(self):
        a, b, c = self.a, self.b, self.c
        return QuatMatrix.from_entries([[0, a, c], [-a, 0, b], [-c, -b, 0]])


@dataclass
class SpectrumReport:
    case_label: str
    predicted_values: list = field(default_factory=list)
    computed_values: list = field(default_factory=list)
    max_deviation: float = 0.0
    condition_lhs_rhs_gap: float = 0.0

    def to_dict(self):
        return {"case_label": self.case_label,
                "predicted_values": [float(v) for v in self.predicted_values],
                "computed_values": [float(v) for v in self.computed_values],
                "max_deviation": float(self.max_deviation),
                "condition_lhs_rhs_gap": float(self.condition_lhs_rhs_gap)}


@dataclass
class InverseSkewReport:
    invertible: bool
    inverse: object = None
    skew_deviation: float = None

    def to_dict(self):
        out = {"invertible": self.invertible}
        if self.invertible:
            out["skew_deviation"] = float(self.skew_deviation)
            out["inverse"] = self.inverse.data.tolist()
        return out


@dataclass
class BasicCandidate:
    trial: int
    matrix: QuatMatrix
    eigenvalues: list
    min_relative_gap: float

    def to_dict(self):
        return {"trial": self.trial,
                "matrix": self.matrix.data.tolist(),
                "eigenvalues": [float(v) for v in self.eigenvalues],
                "min_relative_gap": float(self.min_relative_gap)}


def classify_3x3(triple):
    """Predict the W spectrum shape from the entries alone.

    Solid (three distinct positive eigenvalues) exactly when |a| clears
    1e-10 * max(|a|, |b|, |c|) and |c a^-1 b - b a^-1 c| clears
    1e-10 * |a^-1||b||c|, both scale-free; otherwise degenerate with
    predicted spectrum (0, s, s).  Raises ValueError on the all-zero triple.
    """
    if not isinstance(triple, SkewTriple):
        triple = SkewTriple(*triple)
    a, b, c = triple.a, triple.b, triple.c
    largest = max(abs(a), abs(b), abs(c))
    if largest == 0.0:
        raise ValueError("classification needs a nonzero triple")
    gap = 0.0
    solid = False
    if abs(a) > 1e-10 * largest:
        ainv = a.inverse()
        gap = abs(c * ainv * b - b * ainv * c)
        solid = gap > 1e-10 * abs(ainv) * abs(b) * abs(c)
    if solid:
        return SpectrumReport("solid", [], [], 0.0, gap)
    s = a.norm_sq() + b.norm_sq() + c.norm_sq()
    return SpectrumReport("degenerate", [0.0, s, s], [], 0.0, gap)


def verify_classification(triple):
    """Run the eigensolver against the classification prediction.

    Fills computed_values with the actual W spectrum.  For a degenerate
    prediction, max_deviation is the largest |predicted - computed|; the
    caller judges it against its own bound, a mismatch is never raised.
    """
    if not isinstance(triple, SkewTriple):
        triple = SkewTriple(*triple)
    report = classify_3x3(triple)
    w = gram_product(triple.matrix())
    computed = right_eigenvalues_hermitian(w).values
    report.computed_values = [float(v) for v in computed]
    if report.case_label == "degenerate":
        report.max_deviation = float(
            np.abs(np.sort(report.predicted_values) - np.sort(computed)).max())
    return report


def is_solid(z):
    """Whether W = Z Z* is positive definite."""
    return is_positive_definite(gram_product(z))


def inverse_skew_report(z, tol=1e-10):
    """Invert a skew-symmetric Z and measure how far the inverse is from skew.

    skew_deviation is ||(Z^-1)^T + Z^-1||_F.  It vanishes for every
    invertible 2x2 but is materially positive for every invertible 3x3;
    singular input is reported through invertible = False, not raised.
    """
    z = QuatMatrix.coerce(z)
    if not z.is_skew_symmetric(tol):
        raise ValueError("inverse_skew_report needs a skew-symmetric matrix")
    try:
        inv = quat_inverse(z, tol)
    except SingularMatrixError:
        return InverseSkewReport(False)
    deviation = (inv.transpose() + inv).norm()
    return InverseSkewReport(True, inv, deviation)


def quaternion_even_multiplicity_check(z):
    """Whether every positive right eigenvalue of W = Z Z* has even multiplicity.

    Always true in the complex world; over quaternions a 3x3 solid matrix
    already breaks it.
    """
    values = right_eigenvalues_hermitian(gram_product(z)).values
    return all(len(c) % 2 == 0 for c in positive_clusters(values))


def trial_seed(seed, trial):
    """Per-trial 64-bit stream key: splitmix64 step applied to the base seed.

    mask = 2^64 - 1; z starts at (seed + (trial+1) * 0x9E3779B97F4A7C15),
    then z ^= z >> 30; z *= 0xBF58476D1CE4E5B9; z ^= z >> 27;
    z *= 0x94D049BB133111EB; z ^= z >> 31, all modulo 2^64.
    """
    mask = (1 << 64) - 1
    z = (int(seed) + (trial + 1) * 0x9E3779B97F4A7C15) & mask
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & mask
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & mask
    z ^= z >> 31
    return z


def _candidate(trial, z, values, gap_tol):
    lam_max = float(values.max())
    if lam_max <= 0.0:
        return None
    floor = gap_tol * lam_max
    if float(values.min()) <= floor:
        return None
    gaps = np.diff(values)
    if float(gaps.min()) <= floor:
        return None
    return BasicCandidate(trial, z, [float(v) for v in values],
                          float(gaps.min() / lam_max))


def basic_candidate_search(n, trials, seed, scale=1.0, gap_tol=1e-3):
    """Scan seeded random skew matrices for fully distinct positive W spectra.

    A hit means all n right eigenvalues of W are positive and every
    consecutive relative gap exceeds gap_tol; such spectra cannot be
    produced by any complex skew-symmetric matrix of the same size, so
    hits are evidence (not proof) of genuinely quaternionic behaviour.
    Deterministic for fixed (n, trials, seed, scale, gap_tol): per-trial
    streams come from trial_seed, and the W of SEARCH_BLOCK consecutive
    trials are solved in one eigensolver call whose slices do not affect
    each other, so the hits do not depend on the block size.  Everything
    runs in the calling thread.
    """
    if n < 4:
        raise ValueError("search needs n >= 4; smaller sizes are settled")
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    hits = []
    for first in range(0, trials, SEARCH_BLOCK):
        block = range(first, min(first + SEARCH_BLOCK, trials))
        zs = [random_skew_symmetric(n, trial_seed(seed, t), scale) for t in block]
        spectra = right_eigenvalues_hermitian([gram_product(z) for z in zs])
        for trial, z, spec in zip(block, zs, spectra):
            hit = _candidate(trial, z, spec.values, gap_tol)
            if hit is not None:
                hits.append(hit)
    return hits


# integer components (1, i, j, k) of reference_4x4, each skew-symmetric, so
# any combination of them is exactly skew-symmetric in floating point
_REFERENCE_4X4_PARTS = np.array([
    [[0, 1, 3, -25], [-1, 0, -13, -10], [-3, 13, 0, 10], [25, 10, -10, 0]],
    [[0, 3, 1, 7], [-3, 0, 1, -6], [-1, -1, 0, 13], [-7, 6, -13, 0]],
    [[0, 4, -1, -3], [-4, 0, 1, 0], [1, -1, 0, 3], [3, 0, -3, 0]],
    [[0, -1, 0, 9], [1, 0, -12, -3], [0, 12, 0, 3], [-9, 3, -3, 0]]], dtype=float)


def reference_4x4():
    """Hard-coded 4x4 integer skew-symmetric matrix with fully distinct spectrum."""
    return QuatMatrix.from_parts(*_REFERENCE_4X4_PARTS)


def reference_4x4_variant():
    """The same integer matrices with the j component reused for k.

    Kept only so the two possible readings of the published combination can
    be compared numerically; the spectrum of reference_4x4 is the one that
    reproduces the published values.
    """
    z1, z2, z3, _ = _REFERENCE_4X4_PARTS
    return QuatMatrix.from_parts(z1, z2, z3, z3)


def sample_degenerate_triple(rng):
    """Random triple that the classification provably marks degenerate.

    Either a = 0 with b, c arbitrary, or a real and nonzero with b and c
    drawn from one common plane spanned by 1 and a shared unit imaginary
    direction (so b and c commute).
    """
    if rng.uniform() < 0.5:
        b = Quaternion(*rng.uniform(-1, 1, 4))
        c = Quaternion(*rng.uniform(-1, 1, 4))
        return SkewTriple(Quaternion(), b, c)
    a = Quaternion(_nonzero_uniform(rng))
    mu = rng.normal(size=3)
    mu /= np.sqrt((mu ** 2).sum())
    al, be, ga, de = rng.uniform(-1, 1, 4)
    b = Quaternion(al, *(be * mu))
    c = Quaternion(ga, *(de * mu))
    return SkewTriple(a, b, c)


def sample_generic_triple(rng):
    """Random triple resampled until the solidity condition holds."""
    while True:
        t = SkewTriple(Quaternion(*rng.uniform(-1, 1, 4)),
                       Quaternion(*rng.uniform(-1, 1, 4)),
                       Quaternion(*rng.uniform(-1, 1, 4)))
        if classify_3x3(t).case_label == "solid":
            return t


def _nonzero_uniform(rng):
    """Uniform magnitude in [0.1, 1] with random sign, bounded away from zero."""
    return float(rng.uniform(0.1, 1.0) * (1 if rng.uniform() < 0.5 else -1))
