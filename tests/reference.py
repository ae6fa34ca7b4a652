"""Reference implementations that tests compare the package against.

Each one spells out a definition directly, with none of the package's
layout tricks, so a test that agrees with it checks the package's faster
or flattened form of the same quantity.
"""

import numpy as np

from curveprob.events import complement, contains_batch, extremal_set, level_set

# the events of each built-in family, by its parse_family kind: given the
# parameter the family holds fixed, the event at each swept parameter xi
FAMILY_EVENTS = {
    "level-alpha": lambda z: lambda alpha: level_set(alpha, z),
    "level-z": lambda alpha: lambda z: level_set(alpha, z),
    "max-below": lambda: lambda d: complement(extremal_set(d)),
}


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


def scan_quantile(values, grid, family, event, p, tol=None):
    """The first of the points ``lo + i * (hi - lo) / n_steps``, i = 0 ..
    n_steps (the last one ``hi``) of the family's range, ``n_steps = ceil((hi
    - lo) / tol)``, at which the fraction of the rows of ``values`` inside
    ``event`` of that point reaches p; ``("exhausted", fraction at hi)``
    when none does."""
    lo, hi = family.lo, family.hi
    n_steps = int(np.ceil((hi - lo) / (tol if tol is not None else 1e-4 * (hi - lo))))
    for i in range(n_steps + 1):
        xi = hi if i == n_steps else lo + i * (hi - lo) / n_steps
        fraction = np.count_nonzero(contains_batch(event(xi), values, grid)) / len(values)
        if fraction >= p:
            return float(xi)
    return ("exhausted", float(fraction))
