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
from .flm import FittedFLM, predict, predict_coords
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


def _keep_on_repeat(memo: dict, slot: str, key, build):
    """``build()``, kept in ``memo[slot]`` only when ``key`` is asked for twice
    in a row.

    A slot holds one ``(key, value)`` pair. A new key is recorded with no
    value, a second request in a row keeps the value it builds, and later
    requests reuse it; so a slot holds at most one value, and a key asked
    for once holds none.
    """
    held, value = memo.get(slot, (None, None))
    if held != key or value is None:
        value = build()
        memo[slot] = (key, value if held == key else None)
    return value


def _read_only(values: np.ndarray) -> np.ndarray:
    values.flags.writeable = False
    return values


def _check_noise(model: FittedFLM, method: str, mc_size: int) -> bool:
    """Validate a noise request and say whether it is degenerate: a rank-zero
    noise covariance draws zero rows, so every Gaussian estimate is the
    indicator of the fitted mean; that case warns."""
    if method == "boot":
        return False
    if method != "gauss":
        raise UsageError(f"method must be 'boot' or 'gauss', got {method!r}")
    if mc_size < 1:
        raise UsageError(f"mc_size must be >= 1, got {mc_size}")
    lam = model.noise_spectrum.eigenvalues
    degenerate = not (lam.size and lam[0] > 0)  # where GaussSampler.from_spectrum gives rank 0
    if degenerate:
        warnings.warn(
            "noise covariance has rank zero; the Gaussian estimate degenerates "
            "to an indicator of the fitted mean",
            stacklevel=3,
        )
    return degenerate


def _noise_rows(model: FittedFLM, method: str, mc_size: int, seed: int) -> np.ndarray:
    if method == "boot":
        return model.residual_matrix
    return _keep_on_repeat(model.memo, "noise", (mc_size, int(seed)),
                           lambda: _read_only(noise_sampler(model, seed).draw_matrix(mc_size)))


def ensemble_noise(model: FittedFLM, method: str, mc_size: int, seed: int) -> tuple:
    """(noise rows, degenerate flag) that a method adds to the fitted mean.

    'boot' gives the in-sample residual curves (``mc_size`` and ``seed`` are
    unused); 'gauss' gives ``mc_size`` Karhunen-Loeve draws from ``seed``,
    read-only and kept in the model's ``noise`` memo slot. A rank-zero noise
    covariance draws zero rows; that case warns and is flagged.
    """
    degenerate = _check_noise(model, method, mc_size)
    return _noise_rows(model, method, mc_size, seed), degenerate


def ensemble(model: FittedFLM, x_coords: np.ndarray, method: str, mc_size: int,
             seed: int) -> tuple:
    """(ensemble, degenerate flag): the read-only (rows, D+1) matrix
    ``predict_coords(model, x_coords) + rows`` of response curves at the
    weighted covariate coordinates ``x_coords``, for the noise rows of
    :func:`ensemble_noise`.

    Every probability, quantile and RMSE-experiment estimate counts curves
    of this matrix. The cross-entropy pipeline does not: it reads
    :func:`ensemble_noise` and ``predict_coords`` once per fit and counts
    through :func:`~curveprob.events.level_shares`, so it keeps no value in
    the memo. The matrix is kept in the model's ``ensemble/<method>`` memo
    slot, keyed on the covariate's value (and on ``mc_size`` and ``seed``
    for 'gauss').
    """
    degenerate = _check_noise(model, method, mc_size)
    key = (np.asarray(x_coords, dtype=float).tobytes(),)
    if method == "gauss":
        key += (mc_size, int(seed))
    values = _keep_on_repeat(
        model.memo, f"ensemble/{method}", key,
        lambda: _read_only(predict_coords(model, x_coords)
                           + _noise_rows(model, method, mc_size, seed)),
    )
    return values, degenerate


def _coords(model: FittedFLM, x: Covariate) -> np.ndarray:
    model.check_structure(x)
    return x.coords()


def boot_prob(model: FittedFLM, x: Covariate, event: EventSet) -> CondProbEstimate:
    """Fraction of residual-shifted fitted means that fall in the event."""
    values, _ = ensemble(model, _coords(model, x), "boot", DEFAULT_MC_SIZE, 0)
    count = int(np.count_nonzero(contains_batch(event, values, model.grid)))
    return CondProbEstimate(value=count / len(values), method="boot", n_used=len(values),
                            count=count)


def gauss_prob(
    model: FittedFLM,
    x: Covariate,
    event: EventSet,
    mc_size: int = DEFAULT_MC_SIZE,
    seed: int = 0,
) -> CondProbEstimate:
    """Monte-Carlo fraction of Gaussian-noise-shifted fitted means in the event."""
    values, degenerate = ensemble(model, _coords(model, x), "gauss", mc_size, seed)
    count = int(np.count_nonzero(contains_batch(event, values, model.grid)))
    return CondProbEstimate(
        value=count / len(values),
        method="gauss",
        n_used=len(values),
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

    values, _ = ensemble(model, _coords(model, x), method, mc_size, seed)
    m = values.shape[0]
    n_steps = int(np.ceil((hi - lo) / tol))

    def point(i: int) -> float:
        return hi if i == n_steps else lo + i * (hi - lo) / n_steps

    if family.critical is not None:
        crit = family.critical(values, model.grid)
        threshold = order_statistic_quantile(crit, p)

        def estimate(xi: float) -> float:
            return np.count_nonzero(crit <= xi) / m

        def reaches(xi: float) -> bool:
            return xi >= threshold
    else:
        def estimate(xi: float) -> float:
            inside = contains_batch(family.at(xi), values, model.grid)
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
    _check_noise(model, method, mc_size)
    cal, lower, upper = _keep_on_repeat(
        model.memo, "band", (method, mc_size, int(seed), nominal, literal_abs),
        lambda: _band_scale(model, nominal, method, mc_size, seed, literal_abs),
    )
    return cal, uniform_band(predict(model, x), lower, upper)


def _band_scale(model: FittedFLM, nominal: float, method: str, mc_size: int, seed: int,
                literal_abs: bool) -> tuple:
    """The covariate-free part of a band: its calibration and the offsets
    ``-L * sigma`` and ``U * sigma`` below and above the center, read-only."""
    alpha = 1.0 - nominal
    draws = _noise_rows(model, method, mc_size, seed)

    sigma = model.noise_std()
    if not np.all(np.isfinite(sigma)):
        raise DegenerateInputError("residual standard deviation is not finite")
    peak = float(np.max(sigma))
    if peak == 0.0:
        zero = Curve.constant(model.grid, 0.0)
        _read_only(zero.values)
        cal = BandCalibration(sigma=zero, lower_quantile=0.0, upper_quantile=0.0,
                              nominal=nominal, method=method)
        return cal, zero, zero
    sigma = np.maximum(sigma, SIGMA_FLOOR * peak)

    ratios = draws / sigma
    if literal_abs:
        stat = np.max(np.abs(ratios), axis=1)
        lo_q = float(np.quantile(stat, alpha / 2))
        hi_q = float(np.quantile(stat, 1 - alpha / 2))
    else:
        lo_q = float(np.quantile(np.min(ratios, axis=1), alpha / 2))
        hi_q = float(np.quantile(np.max(ratios, axis=1), 1 - alpha / 2))

    cal = BandCalibration(sigma=Curve(model.grid, _read_only(sigma)), lower_quantile=lo_q,
                          upper_quantile=hi_q, nominal=nominal, method=method)
    lower = Curve(model.grid, _read_only(-lo_q * sigma))  # band floor = center + L * sigma
    upper = Curve(model.grid, _read_only(hi_q * sigma))
    return cal, lower, upper
