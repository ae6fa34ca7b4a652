"""Reference implementations that tests compare the package against.

Each one spells out a definition directly, with none of the package's
layout tricks, so a test that agrees with it checks the package's faster
or flattened form of the same quantity.
"""

import numpy as np


def l2_inner(grid, a, b) -> float:
    """Trapezoid approximation of the L2 inner product of two sampled curves."""
    return float(np.sum(grid.quad_weights() * a * b))


def covariate_inner(a, b) -> float:
    """Direct-sum inner product of two covariates of one structure: the curve
    parts' L2 inner products plus the dot product of the scalars."""
    assert a.structure() == b.structure()
    total = sum(l2_inner(p.grid, p.values, q.values)
                for p, q in zip(a.curve_parts, b.curve_parts))
    return float(total + np.dot(a.scalar_parts, b.scalar_parts))


def reconstruct(spectrum) -> np.ndarray:
    """Sum of the eigenvalue-weighted outer products of a spectral pair."""
    return (spectrum.eigenvectors * spectrum.eigenvalues) @ spectrum.eigenvectors.T


def in_point_band(center, lower, upper, s, y) -> bool:
    """Whether ``y`` at the grid point nearest ``s`` lies in the band
    ``[center - lower, center + upper]`` there."""
    i = min(max(int(round(s * y.grid.resolution)), 0), y.grid.resolution)
    return bool(center.values[i] - lower.values[i] <= y.values[i]
                <= center.values[i] + upper.values[i])
