"""Empirical covariance operators, their eigendecomposition, and the two
rules for choosing how many principal directions to keep.

Operators are stored as dense symmetric matrices in weighted coordinates
(see :mod:`curveprob.curves`), so a plain ``eigh`` already returns vectors
that are orthonormal in the right inner product.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInputError, StructureError, UsageError

SYMMETRY_RTOL = 1e-12
CLAMP_BUDGET = 1e-8  # total negative eigenvalue mass allowed, relative to the top eigenvalue
RELATIVE_RANK_FLOOR = 1e-12  # the sampler keeps eigenvalues above this fraction of the top one


@dataclass(frozen=True)
class CovarianceOperator:
    """Symmetric PSD second-moment matrix in weighted coordinates."""

    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise StructureError(f"covariance matrix must be square, got {m.shape}")
        # data whose products overflow reach here as inf, and inf - inf = nan
        # would pass the symmetry test below
        if not np.all(np.isfinite(m)):
            raise DegenerateInputError("covariance matrix has non-finite cells; "
                                       "the data overflow double precision")
        scale = float(np.max(np.abs(m))) if m.size else 0.0
        if scale > 0 and float(np.max(np.abs(m - m.T))) > SYMMETRY_RTOL * scale:
            raise StructureError("covariance matrix is not symmetric within tolerance")
        if m.size and float(np.min(np.diag(m))) < -1e-12 * max(scale, 1.0):
            raise StructureError("covariance matrix has a negative diagonal entry")
        object.__setattr__(self, "matrix", 0.5 * (m + m.T))


@dataclass(frozen=True)
class SpectralPair:
    """Nonincreasing eigenvalues with orthonormal eigenvectors (as columns).

    Negative round-off eigenvalues arrive clamped to zero; their original
    total magnitude is kept in ``clamped_mass``. Each vector is sign-fixed
    so its first largest-magnitude coordinate is positive.
    """

    eigenvalues: np.ndarray = field(repr=False)
    eigenvectors: np.ndarray = field(repr=False)
    clamped_mass: float = 0.0

    @property
    def rank(self) -> int:
        """Number of strictly positive eigenvalues."""
        return int(np.count_nonzero(self.eigenvalues > 0.0))

    def leading(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        return self.eigenvalues[:k], self.eigenvectors[:, :k]

    def sampler_rank(self) -> int:
        """Number of eigenvalues above ``RELATIVE_RANK_FLOOR`` times the top
        one, the leading pairs a Karhunen-Loeve sampler draws from; zero for
        an empty or all-zero spectrum."""
        lam = self.eigenvalues
        top = float(lam[0]) if lam.size else 0.0
        return int(np.count_nonzero(lam > RELATIVE_RANK_FLOOR * top)) if top > 0 else 0


def empirical_covariance(coords: np.ndarray) -> CovarianceOperator:
    """(1/n) sum of x outer x over the rows x of an (n, p) weighted-coordinate
    matrix: the raw second moment, the covariance once the caller has
    centered the rows."""
    x = np.asarray(coords, dtype=float)
    if len(x) == 0:
        raise UsageError("empirical_covariance needs a nonempty sample")
    with np.errstate(over="ignore", invalid="ignore"):  # CovarianceOperator rejects overflow
        second_moment = x.T @ x / len(x)
    return CovarianceOperator(second_moment)


def eigendecompose(op: CovarianceOperator) -> SpectralPair:
    """Full symmetric eigendecomposition, sorted, sign-fixed, negatives clamped.

    Rejects the operator as non-PSD when the clamped negative mass exceeds
    ``CLAMP_BUDGET`` times the top eigenvalue.
    """
    vals, vecs = np.linalg.eigh(op.matrix)
    order = np.argsort(vals)[::-1]
    vals = vals[order]
    vecs = vecs[:, order]

    top = float(vals[0]) if vals.size else 0.0
    negative = vals[vals < 0.0]
    clamped_mass = float(-np.sum(negative)) if negative.size else 0.0
    if clamped_mass > CLAMP_BUDGET * max(top, 0.0):
        raise StructureError(
            f"operator is not PSD: clamped eigenvalue mass {clamped_mass:.3e} "
            f"exceeds {CLAMP_BUDGET:.0e} of the top eigenvalue {top:.3e}"
        )
    vals = np.maximum(vals, 0.0)

    if vecs.size:
        lead = np.argmax(np.abs(vecs), axis=0)  # first largest magnitude per column
        flip = vecs[lead, np.arange(vecs.shape[1])] < 0
        vecs[:, flip] = -vecs[:, flip]
    return SpectralPair(vals, vecs, clamped_mass)


def truncation_threshold(
    spec: SpectralPair, m_n: float, relative: bool = True
) -> int:
    """Largest j with eigenvalue_j >= threshold, threshold = top/m_n (scale-free)
    or 1/m_n (absolute). Ties at the threshold are kept."""
    lam = spec.eigenvalues
    if lam.size == 0 or lam[0] <= 0.0:
        raise DegenerateInputError("cannot truncate an all-zero spectrum")
    if m_n < 1:
        raise UsageError(f"m_n must be >= 1, got {m_n}")
    cutoff = lam[0] / m_n if relative else 1.0 / m_n
    passing = np.nonzero(lam >= cutoff)[0]
    count = int(passing[-1]) + 1 if passing.size else 1
    return max(1, min(count, spec.rank))


def truncation_pve(spec: SpectralPair, v: float) -> int:
    """Smallest number of components whose eigenvalue share reaches v."""
    if not 0.0 < v < 1.0:
        raise UsageError(f"variance fraction must lie in (0, 1), got {v}")
    lam = spec.eigenvalues
    total = float(np.sum(lam))
    if total <= 0.0:
        raise DegenerateInputError("cannot apply the variance-share rule to a zero spectrum")
    ratios = np.cumsum(lam) / total
    passing = np.nonzero(ratios >= v)[0]
    return int(passing[0]) + 1 if passing.size else int(lam.size)
