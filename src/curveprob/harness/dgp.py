"""Simulation data-generating processes for the experiment drivers.

Three process kinds are provided:

* ``far_paparoditis`` -- the curve autoregression with kernel
  0.34*exp((t^2+s^2)/2), optional second-lag weight ``b``, and standard
  Brownian-motion noise. With b=0 a first-order fit is correctly
  specified; b=0.4 misspecifies it.
* ``far_synthetic`` -- a frozen first-order autoregression around a
  nonzero daily mean with a deliberately asymmetric kernel and smooth
  finite-rank Gaussian noise, sized so that level events near the
  ``sqrt(50)`` mark have informative probabilities. A stand-in for
  pollution-style series at desk scale.
* ``gaussian_iid`` -- independent draws of mean plus the same smooth
  noise, for estimator sanity checks.

Every simulation is a pure function of (spec, n, generator state).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..curves import Curve, Grid
from ..errors import UsageError
from ..rng import check_draws, substream

PAPARODITIS_SCALE = 0.34
SYNTHETIC_BURN_IN = 30
_BURN_IN = {"far_paparoditis": 50, "far_synthetic": SYNTHETIC_BURN_IN, "gaussian_iid": 0}

# frozen synthetic process: mean level, daily shape, kernel and noise scales
_SYN_MEAN_BASE = 6.6
_SYN_MEAN_SHAPE = (1.0, 0.45)          # amplitudes of sin(2*pi*t), cos(4*pi*t)
_SYN_KERNEL_SCALE = 1.9
_SYN_KERNEL_CENTERS = (0.75, 0.2)      # response-time and lag-time centers
_SYN_KERNEL_WIDTHS = (0.55, 2.2)       # inverse-width factors
_SYN_NOISE_WEIGHTS = (0.50, 0.28, 0.18, 0.10, 0.05, 0.025)


@dataclass(frozen=True)
class DGPSpec:
    """Parameters that pin down one simulated process; the caller picks the draw.

    ``burn_in=None`` takes the kind's own burn-in. Only ``far_paparoditis``
    has a second lag, so any other kind rejects ``b != 0``.
    """

    kind: str
    grid: Grid
    b: float = 0.0
    burn_in: int | None = None

    def __post_init__(self):
        if self.kind not in _BURN_IN:
            raise UsageError(f"unknown DGP kind {self.kind!r}")
        if self.b != 0.0 and self.kind != "far_paparoditis":
            raise UsageError(f"second-lag weight b applies to far_paparoditis only, "
                             f"not {self.kind}")
        if self.burn_in is None:
            object.__setattr__(self, "burn_in", _BURN_IN[self.kind])
        if self.burn_in < 0:
            raise UsageError(f"burn_in must be >= 0, got {self.burn_in}")


def synthetic_dgp(grid: Grid) -> DGPSpec:
    return DGPSpec("far_synthetic", grid)


def brownian_matrix(grid: Grid, count: int, rng: np.random.Generator) -> np.ndarray:
    """(count, D+1) standard Brownian paths: B(0)=0, increments N(0, 1/D)."""
    d = grid.resolution
    increments = rng.standard_normal((count, d)) * np.sqrt(1.0 / d)
    paths = np.zeros((count, d + 1))
    np.cumsum(increments, axis=1, out=paths[:, 1:])
    return paths


def mean_values(spec: DGPSpec) -> np.ndarray:
    """Process mean on the grid (zero for the Brownian-driven recursion)."""
    if spec.kind == "far_paparoditis":
        return np.zeros(spec.grid.size)
    t = spec.grid.points
    a1, a2 = _SYN_MEAN_SHAPE
    return _SYN_MEAN_BASE + a1 * np.sin(2 * np.pi * t) + a2 * np.cos(4 * np.pi * t)


def kernel_matrix(spec: DGPSpec) -> np.ndarray | None:
    """Integral-operator kernel sampled on the grid, or None when absent."""
    t = spec.grid.points
    tt, ss = np.meshgrid(t, t, indexing="ij")
    if spec.kind == "far_paparoditis":
        return PAPARODITIS_SCALE * np.exp((tt**2 + ss**2) / 2.0)
    if spec.kind == "far_synthetic":
        ct, cs = _SYN_KERNEL_CENTERS
        wt, ws = _SYN_KERNEL_WIDTHS
        return _SYN_KERNEL_SCALE * np.exp(-((tt - ct) ** 2) / wt - ((ss - cs) ** 2) / ws) * ss
    return None


def synthetic_noise_basis(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues, basis matrix) of the frozen smooth noise covariance.

    The basis rows are L2-orthonormal trigonometric functions, so a draw is
    a finite Karhunen-Loeve sum."""
    t = grid.points
    r2 = np.sqrt(2.0)
    basis = np.asarray([
        np.ones_like(t),
        r2 * np.sin(2 * np.pi * t),
        r2 * np.cos(2 * np.pi * t),
        r2 * np.sin(4 * np.pi * t),
        r2 * np.cos(4 * np.pi * t),
        r2 * np.sin(6 * np.pi * t),
    ])
    return np.asarray(_SYN_NOISE_WEIGHTS), basis


def noise_matrix(spec: DGPSpec, count: int, rng: np.random.Generator) -> np.ndarray:
    """(count, D+1) draws of the model error process."""
    # the widest matrix either kind builds on the way
    check_draws(count, max(spec.grid.size, len(_SYN_NOISE_WEIGHTS)))
    if spec.kind == "far_paparoditis":
        return brownian_matrix(spec.grid, count, rng)
    weights, basis = synthetic_noise_basis(spec.grid)
    z = rng.standard_normal((count, len(weights)))
    return (z * np.sqrt(weights)) @ basis


def _step_matrix(spec: DGPSpec) -> np.ndarray:
    """Discretized integral operator: next = STEP @ previous (centered scale)."""
    kernel = kernel_matrix(spec)
    if kernel is None:
        return np.zeros((spec.grid.size, spec.grid.size))
    return kernel * spec.grid.quad_weights()


def simulate_far_values(spec: DGPSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """(n, D+1) curves from the recursion, zero-initialized with burn-in dropped."""
    if n < 1:
        raise UsageError(f"series length must be >= 1, got {n}")
    step = _step_matrix(spec)
    total = spec.burn_in + n
    noise = noise_matrix(spec, total, rng)

    out = np.empty((total, spec.grid.size))
    prev1 = np.zeros(spec.grid.size)
    prev2 = np.zeros(spec.grid.size)
    # an overflowing path ends as non-finite curve values, which the design
    # and the CLI reject with their own message, so numpy's warnings are muted
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(total):
            current = step @ prev1 + spec.b * prev2 + noise[k]
            out[k] = current
            prev2 = prev1
            prev1 = current
        return mean_values(spec) + out[spec.burn_in:]


def simulate_far(spec: DGPSpec, n: int, seed: int = 0) -> list:
    """:func:`simulate_far_values` as curves, drawn from ``substream(seed)``."""
    return [Curve(spec.grid, row) for row in simulate_far_values(spec, n, substream(seed))]


def conditional_mean(spec: DGPSpec, previous: np.ndarray) -> np.ndarray:
    """True one-step conditional mean given the previous curve's values.

    Only defined for first-order recursions; the two-lag process would need
    both preceding curves."""
    if spec.b != 0.0:
        raise UsageError("conditional mean given one lag is undefined when b != 0")
    mu = mean_values(spec)
    return mu + _step_matrix(spec) @ (previous - mu)


def conditional_draws(
    spec: DGPSpec, previous: np.ndarray, count: int, seed: int
) -> np.ndarray:
    """Independent draws of the next curve given the previous curve's values."""
    return conditional_mean(spec, previous) + noise_matrix(spec, count, substream(seed))


def stationary_predictors(spec: DGPSpec, count: int, seed: int) -> np.ndarray:
    """(count, D+1) independent draws from (approximately) the stationary
    distribution, one short burned-in chain per draw."""
    return np.concatenate([simulate_far_values(spec, 1, substream(seed, i))
                           for i in range(count)])
