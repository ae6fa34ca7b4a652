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

# the same events as (rows, points) masks: given the fixed parameter, which
# rows of a (rows, D+1) sample matrix lie inside the event at each of a block
# of swept parameters xi, written from the event's own inequality
FAMILY_MEMBERSHIP = {
    # level_set(alpha, z): the share of grid points above alpha is at most z
    "level-alpha": lambda z: lambda values, grid, xis: (
        np.count_nonzero(values[:, :, np.newaxis] > xis, axis=1) / grid.size <= z),
    "level-z": lambda alpha: lambda values, grid, xis: (
        (np.count_nonzero(values > alpha, axis=1) / grid.size)[:, np.newaxis] <= xis),
    # complement(extremal_set(d)): the maximum does not exceed d
    "max-below": lambda: lambda values, grid, xis: ~(
        np.max(values, axis=1)[:, np.newaxis] > xis),
}


def contains(event, y) -> bool:
    """Whether the one curve ``y`` lies in ``event``."""
    return bool(contains_batch(event, y.values[np.newaxis, :], y.grid)[0])


def longest_run(flags) -> int:
    """Length of the longest unbroken run of true entries, by a plain loop."""
    longest = run = 0
    for flag in flags:
        run = run + 1 if flag else 0
        longest = max(longest, run)
    return longest


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


def scan_quantile(values, grid, family, membership, p, tol=None, block=256):
    """The first of the points ``lo + i * (hi - lo) / n_steps``, i = 0 ..
    n_steps (the last one ``hi``) of the family's range, ``n_steps = ceil((hi
    - lo) / tol)``, at which the fraction of the rows of ``values`` inside
    the event of that point reaches p; ``("exhausted", fraction at hi)``
    when none does. ``membership(values, grid, xis)`` gives the rows inside
    at each point, which are scanned ``block`` at a time."""
    lo, hi = family.lo, family.hi
    n_steps = int(np.ceil((hi - lo) / (tol if tol is not None else 1e-4 * (hi - lo))))
    for start in range(0, n_steps + 1, block):
        i = np.arange(start, min(start + block, n_steps + 1))
        xis = np.where(i == n_steps, hi, lo + i * (hi - lo) / n_steps)
        fractions = np.count_nonzero(membership(values, grid, xis), axis=0) / len(values)
        reached = np.flatnonzero(fractions >= p)
        if reached.size:
            return float(xis[reached[0]])
    return ("exhausted", float(fractions[-1]))
