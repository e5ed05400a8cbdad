"""Structure of quaternion skew-symmetric matrices.

The 3x3 case classifies completely: writing the matrix through its three
independent entries (a, b, c), the Gram product W = Z Z* either has the
degenerate spectrum (0, s, s) with s = |a|^2 + |b|^2 + |c|^2, or three
distinct positive eigenvalues ("solid") exactly when a is nonzero and
c a^-1 b differs from b a^-1 c.  For larger sizes the module provides a
seeded random search for matrices whose W has fully distinct positive
spectrum, plus the quaternion side of the even-multiplicity contrast.
"""

import operator
from dataclasses import dataclass, field

import numpy as np

from .clinalg import SingularMatrixError, _require, even_clusters, unit_scaled
from .qmatrix import QuatMatrix, random_skew_symmetric
from .quaternion import Quaternion, _hamilton, _sum_of_squares, _times_pow2
from .spectra import gram_spectrum, quat_inverse


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
        return QuatMatrix(_triple_matrices(
            np.array([q.components() for q in (self.a, self.b, self.c)])))


def _triple_matrices(entries):
    """The matrices [[0, a, c], [-a, 0, b], [-c, -b, 0]] of a (..., 3, 4)
    array of triples (a, b, c), as a (..., 3, 3, 4) array."""
    z = np.zeros(entries.shape[:-2] + (3, 3, 4))
    for k, (i, j) in enumerate(((0, 1), (1, 2), (0, 2))):
        z[..., i, j, :] = entries[..., k, :]
        z[..., j, i, :] = -entries[..., k, :]
    return z


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

    def compare(self, computed):
        """Fill computed_values with the W spectrum computed and, for a
        degenerate prediction, max_deviation with the largest
        |predicted - computed|, never raising on a mismatch; returns self."""
        self.computed_values = [float(v) for v in computed]
        if self.case_label == "degenerate":
            self.max_deviation = float(
                np.abs(np.sort(self.predicted_values) - np.sort(computed)).max())
        return self


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


@dataclass(eq=False)  # array fields have no single truth value: compare by identity
class BasicCandidate:
    """A search hit: its trial, its Z as an (n, n, 4) array, the ascending
    right eigenvalues of W = Z Z* and the smallest relative gap."""
    trial: int
    data: np.ndarray
    eigenvalues: np.ndarray
    min_relative_gap: float

    @property
    def matrix(self):
        """Z as a QuatMatrix, built by the constructor on each read."""
        return QuatMatrix(self.data)

    def to_dict(self):
        """The reference form of a hit line: the search-basic CLI writer
        reproduces json.dumps(..., sort_keys=True) of it byte for byte."""
        return {"trial": self.trial,
                "matrix": self.data.tolist(),
                "eigenvalues": self.eigenvalues.tolist(),
                "min_relative_gap": self.min_relative_gap}


def classify_3x3(triple):
    """Predict the W spectrum shape from the entries alone.

    Solid (three distinct positive eigenvalues) exactly when |a| clears
    1e-10 * max(|a|, |b|, |c|) and |c a^-1 b - b a^-1 c| clears
    1e-10 * |a^-1||b||c|, both scale-free; otherwise degenerate with
    predicted spectrum (0, s, s).  The triple is classified unit_scaled, as
    (a, b, c) 2^-e over its twelve components, so that no norm under- or
    overflows; the gap and s are scaled back by 2^e and 2^2e (inf beyond
    the float range).  Raises ValueError on a non-finite or all-zero
    triple.  This is the scalar arithmetic for one triple; _classify_stack
    evaluates the same rule over a stack, bitwise per triple.
    """
    if not isinstance(triple, SkewTriple):
        triple = SkewTriple(*triple)
    comps = np.array([q.components() for q in (triple.a, triple.b, triple.c)])
    if not np.isfinite(comps).all():
        raise ValueError("classification needs finite entries")
    unit, e = unit_scaled(comps)
    a, b, c = (Quaternion(*q) for q in unit)
    largest = max(abs(a), abs(b), abs(c))
    if largest == 0.0:
        raise ValueError("classification needs a nonzero triple")
    gap = 0.0
    solid = False
    if abs(a) > 1e-10 * largest:
        ainv = a.inverse()
        gap = abs(c * ainv * b - b * ainv * c)
        solid = gap > 1e-10 * abs(ainv) * abs(b) * abs(c)
    gap = _times_pow2(gap, int(e))
    if solid:
        return SpectrumReport("solid", [], [], 0.0, gap)
    s = _times_pow2(a.norm_sq() + b.norm_sq() + c.norm_sq(), 2 * int(e))
    return SpectrumReport("degenerate", [0.0, s, s], [], 0.0, gap)


def _abs(q):
    """|q| for each quaternion of a (4, ...) array of components, bitwise
    abs(Quaternion(*q)): each unit_scaled on its own, as Quaternion's
    _unit_scaled does, then the same squares and sum."""
    unit, e = unit_scaled(q, axis=0)
    return np.ldexp(np.sqrt(_sum_of_squares(unit)), e)


def _classify_stack(entries):
    """The rule of classify_3x3 over a (B, 3, 4) array of triples, in one
    array pass: the solid flags, the gaps and s = |a|^2 + |b|^2 + |c|^2,
    each (B,), bitwise those of one classify_3x3 call per triple (which
    reports s for a degenerate triple only).  Every step is the scalar
    one in its order, on component arrays: the triple unit_scaled, |q| and
    a^-1 from each quaternion scaled by its own power of two, and the
    Hamilton products by quaternion._hamilton.  The first non-finite or
    all-zero triple is named in the error."""
    _require(np.isfinite(entries).all(axis=(1, 2)), "classification needs finite entries")
    unit, e = unit_scaled(entries, axis=(1, 2))
    mag = _abs(np.moveaxis(unit, -1, 0))  # (B, 3): |a|, |b|, |c|
    largest = mag.max(axis=1)
    _require(largest > 0.0, "classification needs a nonzero triple")
    gap = np.zeros(len(unit))
    solid = np.zeros(len(unit), dtype=bool)
    sel = np.flatnonzero(mag[:, 0] > 1e-10 * largest)
    a, b, c = unit[sel].transpose(1, 2, 0)  # each (4, len(sel))
    ainv, ea = unit_scaled(a, axis=0)
    ainv = np.ldexp(ainv / _sum_of_squares(ainv), -ea)
    ainv[1:] = -ainv[1:]
    cab = _hamilton(_hamilton(c, ainv, operator.mul), b, operator.mul)
    bac = _hamilton(_hamilton(b, ainv, operator.mul), c, operator.mul)
    gap[sel] = _abs(np.subtract(cab, bac))
    solid[sel] = gap[sel] > 1e-10 * _abs(ainv) * mag[sel, 1] * mag[sel, 2]
    norm_sq = _sum_of_squares(np.moveaxis(unit, -1, 0))
    with np.errstate(over="ignore"):
        return (solid, np.ldexp(gap, e),
                np.ldexp(norm_sq[:, 0] + norm_sq[:, 1] + norm_sq[:, 2], 2 * e))


def _is_one_triple(value):
    """Whether value is one triple rather than a sequence of them: a
    SkewTriple, or three entries none of which is itself a triple (an
    entry is a number, a Quaternion or four components)."""
    return isinstance(value, SkewTriple) or len(value) == 3 and not any(
        isinstance(t, SkewTriple) or hasattr(t, "__len__") and len(t) == 3
        for t in value)


def verify_classification(triples):
    """classify_3x3 of each triple, compared with the W spectrum the
    eigensolver gives for its matrix.

    triples is one triple (a SkewTriple or its entries a, b, c), giving one
    SpectrumReport, or a sequence of them or a (B, 3, 4) array of their
    entries, giving a list.  One triple is classified by classify_3x3, two
    or more in one _classify_stack pass, and their max_deviation comes
    from one sort, subtraction and max over the stack.  The matrices are
    laid out as one (B, 3, 3, 4) stack that goes once through
    gram_spectrum, bitwise per slice, so each report is that of its own
    call; the computed values are scaled back by 4^e.
    """
    one = _is_one_triple(triples)
    if isinstance(triples, np.ndarray):
        entries = np.asarray(triples, dtype=float).reshape(-1, 3, 4)
    else:
        entries = np.array([[Quaternion.coerce(q).components() for q in
                             ((t.a, t.b, t.c) if isinstance(t, SkewTriple) else t)]
                            for t in ([triples] if one else triples)]).reshape(-1, 3, 4)
    stack = len(entries) != 1
    classes = _classify_stack(entries) if stack else classify_3x3(entries[0])
    z = _triple_matrices(entries)
    _, spectrum, e = gram_spectrum(QuatMatrix(z[0] if one else z))
    values = np.ldexp(spectrum.values.reshape(-1, 3), 2 * np.reshape(e, (-1, 1)))
    if not stack:
        report = classes.compare(values[0])
        return report if one else [report]
    solid, gap, s = classes
    deviation = np.zeros(len(entries))
    predicted = np.zeros((np.count_nonzero(~solid), 3))
    predicted[:, 1:] = s[~solid, None]
    deviation[~solid] = np.abs(predicted - np.sort(values[~solid])).max(axis=1)
    return [SpectrumReport("solid", [], v, 0.0, g) if ok else
            SpectrumReport("degenerate", [0.0, p, p], v, d, g)
            for ok, g, p, v, d in zip(solid.tolist(), gap.tolist(), s.tolist(),
                                      values.tolist(), deviation.tolist())]


def _unit_gram_spectrum(z):
    """The RightSpectrum of W = Z Z* formed from each slice of Z
    unit_scaled, up or down, so that W stays in range at any scale: the
    one route of is_solid and quaternion_even_multiplicity_check."""
    z = QuatMatrix.coerce(z)
    return gram_spectrum(QuatMatrix(unit_scaled(z.data, axis=(-3, -2, -1))[0]))[1]


def is_solid(z):
    """Whether W = Z Z* is positive definite: a bool, or one per slice."""
    return _unit_gram_spectrum(z).definite()


def inverse_skew_report(z, tol=1e-10):
    """Invert a skew-symmetric Z and measure how far the inverse is from skew.

    skew_deviation is ||(Z^-1)^T + Z^-1||_F.  It vanishes for every
    invertible 2x2 but is materially positive for every invertible 3x3;
    singular input is reported through invertible = False, not raised.
    One matrix gives one report, a (B, n, n, 4) stack a list of them, each
    that of its own call, from one quat_inverse call; a slice that is not
    skew is named in the error.
    """
    z = QuatMatrix.coerce(z)
    _require(z.is_skew_symmetric(tol), "inverse_skew_report needs a skew-symmetric matrix")
    try:
        inv = quat_inverse(z, tol)
    except SingularMatrixError:  # only one matrix raises; a stack flags its slices
        return InverseSkewReport(False)
    if z.data.ndim == 3:
        return InverseSkewReport(True, inv, (inv.transpose() + inv).norm())
    inv, invertible = inv
    deviation = (inv.transpose() + inv).norm()
    return [InverseSkewReport(True, QuatMatrix(inv.data[b]), float(deviation[b])) if ok
            else InverseSkewReport(False) for b, ok in enumerate(invertible)]


def quaternion_even_multiplicity_check(z):
    """Whether every positive right eigenvalue of W = Z Z* has even multiplicity.

    Always true in the complex world; over quaternions a 3x3 solid matrix
    already breaks it.  A bool, or one per slice of a stack.
    """
    return even_clusters(_unit_gram_spectrum(z).values)


def trial_seed(seed, trial):
    """Per-trial 64-bit stream key, a Python int: the splitmix64 step that
    _trial_keys(seed, trial, trial + 1) applies to the base seed."""
    return int(_trial_keys(seed, trial, trial + 1)[0])


def _trial_keys(seed, first, stop):
    """trial_seed(seed, t) for t in range(first, stop), as one uint64 array:
    one splitmix64 step of seed + (t + 1) * 0x9E3779B97F4A7C15, for any int
    seed and t.  Array arithmetic wraps modulo 2^64 without the overflow
    warning that numpy scalars give."""
    z = np.arange(stop - first, dtype=np.uint64)
    z += np.uint64((first + 1) % 2 ** 64)
    z *= np.uint64(0x9E3779B97F4A7C15)
    z += np.uint64(int(seed) % 2 ** 64)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def _search_block(n):
    """Trials that an n x n search samples, checks and solves as one stack:
    as many as fit in 2^14 quaternion entries, and at least 64, so 1024 at
    n = 4, 256 at n = 8 and 64 from n = 16 up."""
    return max(64, 2 ** 14 // n ** 2)


def _candidate(values, gap_tol):
    """For each row of ascending spectra (B, n): whether it is a hit, every
    value positive and every consecutive gap above gap_tol * its largest
    value, and its largest value and smallest gap.  A floor beyond the
    float range is infinite, which no spectrum clears."""
    lam_max = values.max(axis=-1)
    with np.errstate(over="ignore"):
        floor = gap_tol * lam_max
    gap = np.diff(values, axis=-1).min(axis=-1)
    hit = (lam_max > 0.0) & (values.min(axis=-1) > floor) & (gap > floor)
    return hit, lam_max, gap


def basic_candidate_search(n, trials, seed, scale=1.0, gap_tol=1e-3):
    """Scan seeded random skew matrices for fully distinct positive W spectra.

    A hit means all n right eigenvalues of W are positive and every
    consecutive relative gap exceeds gap_tol; such spectra cannot be
    produced by any complex skew-symmetric matrix of the same size, so
    hits are evidence (not proof) of genuinely quaternionic behaviour.
    Deterministic for fixed (n, trials, seed, scale, gap_tol): per-trial
    streams come from trial_seed.  _search_block(n) consecutive trials,
    as many as fit in 2^14 quaternion entries and at least 64, are drawn
    into one (B, n, n, 4) stack, which goes once through gram_spectrum and
    the hit test at unit size, slice by slice, so the hits depend neither
    on scale nor on the block size.  Each block takes its keys from one
    _trial_keys pass, and its hits' slices, eigenvalues scaled back by 4^e
    (0 below the float range) and relative gaps are copied out in one
    array pass each, so that no hit keeps its block alive; a hit's
    QuatMatrix is built only when its matrix is read.
    Everything runs in the calling thread.
    """
    if n < 4:
        raise ValueError("search needs n >= 4; smaller sizes are settled")
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    hits = []
    size = _search_block(n)
    for first in range(0, trials, size):
        zs = random_skew_symmetric(n, _trial_keys(seed, first, min(first + size, trials)),
                                   scale)
        _, spectrum, e = gram_spectrum(zs)
        hit, lam_max, gap = _candidate(spectrum.values, gap_tol)
        b = np.flatnonzero(hit)
        hits += map(BasicCandidate, (first + b).tolist(), zs.data[b],
                    np.ldexp(spectrum.values[b], 2 * e[b, None]),
                    (gap[b] / lam_max[b]).tolist())
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


def sample_degenerate_triple(rng, count=None):
    """Random triple that the classification provably marks degenerate.

    Either a = 0 with b, c arbitrary, or a real and nonzero with b and c
    drawn from one common plane spanned by 1 and a shared unit imaginary
    direction (so b and c commute).  With count, the entries of count
    successive draws as a (count, 3, 4) array.
    """
    if count is None:
        return SkewTriple(*_degenerate_entries(rng))
    return np.array([_degenerate_entries(rng) for _ in range(count)]).reshape(-1, 3, 4)


def _degenerate_entries(rng):
    """One sample_degenerate_triple draw as a (3, 4) array of entries."""
    t = np.zeros((3, 4))
    if rng.uniform() < 0.5:
        t[1:] = rng.uniform(-1, 1, (2, 4))
        return t
    t[0, 0] = _nonzero_uniform(rng)
    mu = rng.normal(size=3)
    mu /= np.sqrt((mu ** 2).sum())
    al, be, ga, de = rng.uniform(-1, 1, 4)
    t[1:, 0] = al, ga
    t[1, 1:], t[2, 1:] = be * mu, de * mu
    return t


def sample_generic_triple(rng, count=None):
    """Random triple resampled until the solidity condition holds; with
    count, the entries of count such triples as a (count, 3, 4) array.

    The tries still needed are drawn as one rng.uniform(-1, 1, (k, 3, 4))
    block, the stream of k successive tries, and classified as one
    _classify_stack pass; only as many tries as were rejected are drawn
    again.  So the triples, and the generator's state afterwards, are
    those of count successive single calls.
    """
    found = [np.empty((0, 3, 4))]
    need = 1 if count is None else count
    while need:
        tries = rng.uniform(-1, 1, (need, 3, 4))
        found.append(tries[_classify_stack(tries)[0]])
        need -= len(found[-1])
    found = np.concatenate(found)
    return SkewTriple(*found[0]) if count is None else found


def _nonzero_uniform(rng):
    """Uniform magnitude in [0.1, 1] with random sign, bounded away from zero."""
    return float(rng.uniform(0.1, 1.0) * (1 if rng.uniform() < 0.5 else -1))
