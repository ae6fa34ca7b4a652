"""Conditional-distribution estimators for curve responses.

Both estimators turn a fitted regression and a covariate into an ensemble
of plausible response curves: the bootstrap variant shifts the fitted mean
by each in-sample residual, the Gaussian variant adds simulated noise with
the residuals' covariance. Every probability is the fraction of the
ensemble falling in the event set, so the estimates behave like a
probability measure (bounded, complement-additive, monotone in the event)
by construction.

On top of the ensembles sit quantile estimation over monotone families and
the calibration of uniform prediction bands.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .curves import Curve, Covariate, Grid
from .errors import DegenerateInputError, RangeExhaustedError, UsageError
from .events import EventSet, MonotoneFamily, contains_batch, uniform_band
from .flm import FittedFLM, predict
from .rng import substream
from .spectral import SpectralPair

DEFAULT_MC_SIZE = 2000
RELATIVE_RANK_FLOOR = 1e-12  # keep noise eigenvalues above this fraction of the top one
SIGMA_FLOOR = 1e-8           # flood pointwise noise sd at this fraction of its maximum


@dataclass(frozen=True)
class CondProbEstimate:
    """A conditional probability estimate, always an ensemble fraction."""

    value: float
    method: str              # "boot" | "gauss"
    n_used: int
    count: int
    seed: int = None         # gauss only
    status: str = "ok"       # "ok" | "degenerate"


@dataclass(frozen=True)
class GaussSampler:
    """Karhunen-Loeve sampler for mean-zero Gaussian noise curves.

    Draws combine the retained eigenpairs of the noise covariance with
    independent standard normals; conditional on the spectrum the draws
    have mean zero and exactly that covariance.
    """

    grid: Grid
    spectrum: SpectralPair
    rank: int
    rng_seed: int

    @staticmethod
    def from_spectrum(grid: Grid, spectrum: SpectralPair, rng_seed: int) -> "GaussSampler":
        lam = spectrum.eigenvalues
        top = float(lam[0]) if lam.size else 0.0
        rank = int(np.count_nonzero(lam > RELATIVE_RANK_FLOOR * top)) if top > 0 else 0
        return GaussSampler(grid=grid, spectrum=spectrum, rank=rank, rng_seed=int(rng_seed))

    def draw_matrix(self, count: int) -> np.ndarray:
        """(count, D+1) matrix of noise curves as raw samples."""
        if count < 1:
            raise UsageError(f"count must be >= 1, got {count}")
        rng = substream(self.rng_seed)  # validates the seed even when rank zero leaves it unused
        if self.rank == 0:
            return np.zeros((count, self.grid.size))
        lam, vecs = self.spectrum.leading(self.rank)
        z = rng.standard_normal((count, self.rank))
        weighted = (z * np.sqrt(lam)) @ vecs.T
        return weighted / self.grid.quad_weights_sqrt()


def noise_sampler(model: FittedFLM, seed: int) -> GaussSampler:
    return GaussSampler.from_spectrum(model.grid, model.noise_spectrum, seed)


def ensemble_noise(model: FittedFLM, method: str, mc_size: int, seed: int) -> tuple:
    """(noise rows, degenerate flag) that a method adds to the fitted mean.

    'boot' gives the in-sample residual curves (``mc_size`` and ``seed`` are
    unused); 'gauss' gives ``mc_size`` Karhunen-Loeve draws from ``seed``,
    read-only. A rank-zero noise covariance draws zero rows, so every
    estimate is the indicator of the fitted mean; that case warns and is
    flagged.

    The model's ``noise_memo`` holds one ``(mc_size, seed)`` key: the first
    request for a key records it, and a second request in a row keeps the
    rows it draws, so later requests reuse them. A model drawn from once
    holds no rows.
    """
    if method == "boot":
        return model.residual_matrix, False
    if method != "gauss":
        raise UsageError(f"method must be 'boot' or 'gauss', got {method!r}")
    if mc_size < 1:
        raise UsageError(f"mc_size must be >= 1, got {mc_size}")
    sampler = noise_sampler(model, seed)
    degenerate = sampler.rank == 0
    if degenerate:
        warnings.warn(
            "noise covariance has rank zero; the Gaussian estimate degenerates "
            "to an indicator of the fitted mean",
            stacklevel=3,
        )
    key = (mc_size, int(seed))
    memo = model.noise_memo
    rows = memo.get(key)
    if rows is None:
        rows = sampler.draw_matrix(mc_size)
        rows.flags.writeable = False
        repeated = key in memo
        memo.clear()
        memo[key] = rows if repeated else None
    return rows, degenerate


def _count_inside(model: FittedFLM, x: Covariate, event: EventSet, rows: np.ndarray) -> int:
    """Number of ensemble curves ``fitted mean + noise row`` in the event."""
    center = predict(model, x).values
    return int(np.count_nonzero(contains_batch(event, center + rows, model.grid)))


def boot_prob(model: FittedFLM, x: Covariate, event: EventSet) -> CondProbEstimate:
    """Fraction of residual-shifted fitted means that fall in the event."""
    rows, _ = ensemble_noise(model, "boot", DEFAULT_MC_SIZE, 0)
    count = _count_inside(model, x, event, rows)
    return CondProbEstimate(value=count / len(rows), method="boot", n_used=len(rows), count=count)


def gauss_prob(
    model: FittedFLM,
    x: Covariate,
    event: EventSet,
    mc_size: int = DEFAULT_MC_SIZE,
    seed: int = 0,
) -> CondProbEstimate:
    """Monte-Carlo fraction of Gaussian-noise-shifted fitted means in the event."""
    rows, degenerate = ensemble_noise(model, "gauss", mc_size, seed)
    count = _count_inside(model, x, event, rows)
    return CondProbEstimate(
        value=count / len(rows),
        method="gauss",
        n_used=len(rows),
        count=count,
        seed=int(seed),
        status="degenerate" if degenerate else "ok",
    )


def order_statistic_quantile(critical: np.ndarray, p: float) -> float:
    """Smallest t with ``count(critical <= t) / m >= p``.

    This is the ``need``-th smallest critical value, where ``need`` is the
    smallest count k with ``k / m >= p`` (the same float test an ensemble
    fraction passes), so "the fraction entered at t reaches p" holds
    exactly when t is at least the returned value.
    """
    m = critical.shape[0]
    need = int(np.argmax(np.arange(m + 1) / m >= p))
    return float(np.partition(critical, need - 1)[need - 1])


def quantile_over_family(
    model: FittedFLM,
    x: Covariate,
    family: MonotoneFamily,
    p: float,
    method: str = "boot",
    mc_size: int = DEFAULT_MC_SIZE,
    seed: int = 0,
    tol: float = None,
) -> float:
    """Smallest family parameter whose estimated probability reaches p.

    The family range is discretized at resolution ``tol`` (default 1e-4 of
    the range), and the left-most grid point with estimate >= p is found
    by index bisection over one fixed ensemble, so the profile is exactly
    monotone.

    For a family with critical values (the built-in ones) the estimate
    reaches p exactly at and above one order statistic of the ensemble's
    critical values, so each bisection step is a comparison with it and the
    ensemble is scanned once. Other families test the ensemble against the
    family's event at every step.
    """
    if not 0.0 < p < 1.0:
        raise UsageError(f"p must lie in (0, 1), got {p}")
    lo, hi = family.lo, family.hi
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise UsageError("quantile search needs a bounded family range")
    tol = tol if tol is not None else 1e-4 * (hi - lo)
    if tol <= 0:
        raise UsageError(f"tolerance must be positive, got {tol}")

    rows, _ = ensemble_noise(model, method, mc_size, seed)
    ensemble = predict(model, x).values + rows
    m = ensemble.shape[0]
    n_steps = int(np.ceil((hi - lo) / tol))

    def point(i: int) -> float:
        return hi if i == n_steps else lo + i * (hi - lo) / n_steps

    if family.critical is not None:
        crit = family.critical(ensemble, model.grid)
        threshold = order_statistic_quantile(crit, p)

        def estimate(xi: float) -> float:
            return np.count_nonzero(crit <= xi) / m

        def reaches(xi: float) -> bool:
            return xi >= threshold
    else:
        def estimate(xi: float) -> float:
            inside = contains_batch(family.at(xi), ensemble, model.grid)
            return np.count_nonzero(inside) / m

        def reaches(xi: float) -> bool:
            return estimate(xi) >= p

    # the upper end must reach p; the search keeps reaches(point(yes)) and
    # not reaches(point(no))
    if not reaches(hi):
        raise RangeExhaustedError(
            f"estimate never reaches p={p} on [{lo}, {hi}]",
            boundary_estimate=estimate(hi),
        )
    if reaches(lo):
        return float(lo)
    yes, no = n_steps, 0
    while yes - no > 1:
        mid = (yes + no) // 2
        if reaches(point(mid)):
            yes = mid
        else:
            no = mid
    return float(point(yes))


@dataclass(frozen=True)
class BandCalibration:
    """Studentized-sup quantiles defining a uniform prediction band."""

    sigma: Curve = field(repr=False)
    lower_quantile: float  # L, from the signed minimum statistic
    upper_quantile: float  # U, from the signed maximum statistic
    nominal: float
    method: str


def calibrate_uniform_band(
    model: FittedFLM,
    x: Covariate,
    nominal: float,
    method: str = "boot",
    mc_size: int = DEFAULT_MC_SIZE,
    seed: int = 0,
    literal_abs: bool = False,
) -> tuple[BandCalibration, EventSet]:
    """Calibrate {fitted mean + L*sigma <= y <= fitted mean + U*sigma}.

    sigma is the pointwise residual standard deviation. Per noise draw
    (residual for 'boot', simulated for 'gauss') the signed studentized
    extremes min_t eps/sigma and max_t eps/sigma are collected; L and U are
    their alpha/2 and 1-alpha/2 quantiles, which brackets the band below
    and above the mean for symmetric noise. ``literal_abs`` instead takes
    both quantiles from the one-sided statistic max_t |eps|/sigma.
    """
    if not 0.0 < nominal < 1.0:
        raise UsageError(f"nominal coverage must lie in (0, 1), got {nominal}")
    alpha = 1.0 - nominal
    draws, _ = ensemble_noise(model, method, mc_size, seed)
    center = predict(model, x)

    sigma = model.noise_std()
    if not np.all(np.isfinite(sigma)):
        raise DegenerateInputError("residual standard deviation is not finite")
    peak = float(np.max(sigma))
    if peak == 0.0:
        zero = Curve.constant(model.grid, 0.0)
        cal = BandCalibration(sigma=zero, lower_quantile=0.0, upper_quantile=0.0,
                              nominal=nominal, method=method)
        return cal, uniform_band(center, zero, zero)
    sigma = np.maximum(sigma, SIGMA_FLOOR * peak)

    ratios = draws / sigma
    if literal_abs:
        stat = np.max(np.abs(ratios), axis=1)
        lo_q = float(np.quantile(stat, alpha / 2))
        hi_q = float(np.quantile(stat, 1 - alpha / 2))
    else:
        lo_q = float(np.quantile(np.min(ratios, axis=1), alpha / 2))
        hi_q = float(np.quantile(np.max(ratios, axis=1), 1 - alpha / 2))

    sigma_curve = Curve(model.grid, sigma)
    cal = BandCalibration(sigma=sigma_curve, lower_quantile=lo_q, upper_quantile=hi_q,
                          nominal=nominal, method=method)
    band = uniform_band(
        center,
        Curve(model.grid, -lo_q * sigma),  # band floor = center + L * sigma
        Curve(model.grid, hi_q * sigma),
    )
    return cal, band
