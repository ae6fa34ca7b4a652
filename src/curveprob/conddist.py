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

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .curves import Curve, Covariate, Grid
from .errors import DegenerateInputError, RangeExhaustedError, UsageError
from .events import EventSet, MonotoneFamily, contains_batch, uniform_band
from .flm import FittedFLM, predict, predict_coords
from .rng import check_draws, substream
from .spectral import SpectralPair

DEFAULT_MC_SIZE = 2000
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
    rng_seed: int

    @property
    def rank(self) -> int:
        """Number of leading eigenpairs the draws read."""
        return self.spectrum.sampler_rank()

    def draw_matrix(self, count: int) -> np.ndarray:
        """(count, D+1) matrix of noise curves as raw samples."""
        if count < 1:
            raise UsageError(f"count must be >= 1, got {count}")
        check_draws(count, self.grid.size)
        rng = substream(self.rng_seed)  # validates the seed even when rank zero leaves it unused
        rank = self.rank
        if rank == 0:
            return np.zeros((count, self.grid.size))
        lam, vecs = self.spectrum.leading(rank)
        z = rng.standard_normal((count, rank))
        z *= np.sqrt(lam)
        weighted = z @ vecs.T
        weighted /= self.grid.quad_weights_sqrt()
        return weighted


def _read_only(values: np.ndarray) -> np.ndarray:
    values.flags.writeable = False
    return values


def noise_sampler(model: FittedFLM, seed: int) -> GaussSampler:
    return GaussSampler(model.grid, model.noise_spectrum, seed)


def _memo_slot(memo: dict, slot: str, key, build):
    """``build()``, kept in ``memo[slot]`` as one ``(key, value)`` pair.

    The memo's one rule: a slot keeps the value built for the first request
    of its key, and a new key replaces it. The ``ensemble/<method>`` slots
    serve one covariate's estimates from one build, ``noise`` keeps the
    Gaussian rows those builds share across covariates, and ``band`` keeps a
    band's covariate-free part; each value is read-only.
    """
    held = memo.get(slot)
    if held is None or held[0] != key:
        held = memo[slot] = (key, build())
    return held[1]


def _check_noise(model: FittedFLM, method: str, mc_size: int, stacklevel: int = 3) -> bool:
    """Validate a noise request and say whether it is degenerate: a rank-zero
    noise covariance draws zero rows, so every Gaussian estimate is the
    indicator of the fitted mean; that case warns, naming the frame
    ``stacklevel`` levels up from here (as :func:`warnings.warn` counts), by
    default the caller of this function's caller."""
    if method == "boot":
        return False
    if method != "gauss":
        raise UsageError(f"method must be 'boot' or 'gauss', got {method!r}")
    if mc_size < 1:
        raise UsageError(f"mc_size must be >= 1, got {mc_size}")
    degenerate = model.noise_spectrum.sampler_rank() == 0
    if degenerate:
        warnings.warn(
            "noise covariance has rank zero; the Gaussian estimate degenerates "
            "to an indicator of the fitted mean",
            stacklevel=stacklevel,
        )
    return degenerate


def _noise_rows(model: FittedFLM, method: str, mc_size: int, seed: int) -> np.ndarray:
    if method == "boot":
        return model.residual_matrix
    return _read_only(noise_sampler(model, seed).draw_matrix(mc_size))


def ensemble_noise(model: FittedFLM, method: str, mc_size: int, seed: int) -> np.ndarray:
    """The noise rows that a method adds to the fitted mean, read-only.

    'boot' gives the in-sample residual curves (``mc_size`` and ``seed`` are
    unused); 'gauss' gives ``mc_size`` fresh Karhunen-Loeve draws from
    ``seed``. A rank-zero noise covariance draws zero rows, and that case
    warns. Nothing is kept in the model's memo: the experiment drivers read
    these rows once per fit and add each covariate's ``predict_coords``
    themselves.
    """
    _check_noise(model, method, mc_size)
    return _noise_rows(model, method, mc_size, seed)


def _ensemble(model: FittedFLM, x: Covariate, method: str, mc_size: int, seed: int) -> tuple:
    """(values, degenerate flag) of the estimate that calls this: the
    read-only (rows, D+1) matrix of response curves that every probability
    and quantile estimate counts, ``predict_coords`` at ``x`` plus the rows of
    :func:`ensemble_noise`, kept in the model's ``ensemble/<method>`` memo
    slot under the covariate's coordinates (and ``mc_size`` and ``seed`` for
    'gauss'). The Gaussian rows are kept in the ``noise`` slot under
    ``(mc_size, seed)``, so the ensemble of the next covariate reuses them. A
    rank-zero warning names the estimate's caller.
    """
    model.check_structure(x)
    coords = x.coords()
    degenerate = _check_noise(model, method, mc_size, stacklevel=4)
    key = (coords.tobytes(),)
    if method == "gauss":
        key += (mc_size, int(seed))

    def build():
        if method == "boot":
            rows = model.residual_matrix
        else:
            rows = _memo_slot(model.memo, "noise", key[1:],
                              lambda: _noise_rows(model, method, mc_size, seed))
        return _read_only(predict_coords(model, coords) + rows)

    return _memo_slot(model.memo, f"ensemble/{method}", key, build), degenerate


def _prob(model: FittedFLM, event: EventSet, method: str, seed: int,
          ensemble: tuple) -> CondProbEstimate:
    """Fraction of the :func:`_ensemble` ``(values, degenerate)`` in the event."""
    values, degenerate = ensemble
    count = int(np.count_nonzero(contains_batch(event, values, model.grid)))
    return CondProbEstimate(value=count / len(values), method=method, n_used=len(values),
                            count=count, seed=int(seed) if method == "gauss" else None,
                            status="degenerate" if degenerate else "ok")


def boot_prob(model: FittedFLM, x: Covariate, event: EventSet) -> CondProbEstimate:
    """Fraction of residual-shifted fitted means that fall in the event."""
    return _prob(model, event, "boot", 0, _ensemble(model, x, "boot", DEFAULT_MC_SIZE, 0))


def gauss_prob(
    model: FittedFLM,
    x: Covariate,
    event: EventSet,
    mc_size: int = DEFAULT_MC_SIZE,
    seed: int = 0,
) -> CondProbEstimate:
    """Monte-Carlo fraction of Gaussian-noise-shifted fitted means in the event."""
    return _prob(model, event, "gauss", seed, _ensemble(model, x, "gauss", mc_size, seed))


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


def linear_quantiles(values: np.ndarray, levels) -> list:
    """``np.quantile(values, q)`` for each level q of ``levels``, bit for bit,
    from one ``np.partition`` of the 1-D sample ``values``.

    numpy's default 'linear' rule reads the order statistics a and b at
    ``floor((m - 1) * q)`` and the next index (both the largest when
    ``(m - 1) * q`` reaches ``m - 1``) and returns ``b - (b - a) * (1 - t)``
    when its weight t is at least 0.5, else ``a + (b - a) * t``; the same
    float operations run here.
    """
    m = values.shape[0]
    picks = []  # (index of a, index of b, t) per level
    for q in levels:
        virtual = (m - 1) * q
        if virtual >= m - 1:  # numpy's index -1, so t = virtual + 1
            picks.append((m - 1, m - 1, virtual + 1))
        else:
            below = math.floor(virtual)
            picks.append((below, below + 1, virtual - below))
    ordered = np.partition(values, sorted({i for a, b, _ in picks for i in (a, b)}))
    out = []
    for a, b, t in picks:
        lo, hi = float(ordered[a]), float(ordered[b])
        d = hi - lo
        out.append(hi - d * (1 - t) if t >= 0.5 else lo + d * t)
    return out


def quantile_over_family(
    model: FittedFLM,
    x: Covariate,
    family: MonotoneFamily,
    p: float,
    method: str = "boot",
    mc_size: int = DEFAULT_MC_SIZE,
    seed: int = 0,
) -> float:
    """Smallest family parameter whose estimated probability reaches p:
    :func:`ensemble_quantile` of the method's ensemble at ``x``, the one
    the probability estimates count."""
    values, _ = _ensemble(model, x, method, mc_size, seed)
    return ensemble_quantile(values, model.grid, family, p)


def ensemble_quantile(
    values: np.ndarray,
    grid: Grid,
    family: MonotoneFamily,
    p: float,
    tol: float = None,
) -> float:
    """Smallest family parameter at which the fraction of the ensemble
    ``values`` (rows of curves on ``grid``) inside the event reaches p.

    The family range is discretized at resolution ``tol`` (default 1e-4 of
    the range). A curve is inside the event at xi exactly when its critical
    value is at most xi, so the fraction reaches p exactly at and above one
    order statistic of the ensemble's critical values; the left-most grid
    point at or above it is found by index bisection.
    """
    if not 0.0 < p < 1.0:
        raise UsageError(f"p must lie in (0, 1), got {p}")
    lo, hi = family.lo, family.hi
    tol = tol if tol is not None else 1e-4 * (hi - lo)
    if tol <= 0:
        raise UsageError(f"tolerance must be positive, got {tol}")

    n_steps = int(np.ceil((hi - lo) / tol))

    def point(i: int) -> float:
        return hi if i == n_steps else lo + i * (hi - lo) / n_steps

    crit = family.critical(values, grid)
    threshold = order_statistic_quantile(crit, p)
    if not hi >= threshold:  # a NaN threshold is out of reach too
        raise RangeExhaustedError(
            f"estimate never reaches p={p} on [{lo}, {hi}]",
            boundary_estimate=np.count_nonzero(crit <= hi) / values.shape[0],
        )
    if lo >= threshold:
        return float(lo)
    # the search keeps point(yes) >= threshold > point(no)
    yes, no = n_steps, 0
    while yes - no > 1:
        mid = (yes + no) // 2
        if point(mid) >= threshold:
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
    cal, lower, upper = _memo_slot(
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
        lo_q, hi_q = linear_quantiles(stat, (alpha / 2, 1 - alpha / 2))
    else:
        (lo_q,) = linear_quantiles(np.min(ratios, axis=1), (alpha / 2,))
        (hi_q,) = linear_quantiles(np.max(ratios, axis=1), (1 - alpha / 2,))

    cal = BandCalibration(sigma=Curve(model.grid, _read_only(sigma)), lower_quantile=lo_q,
                          upper_quantile=hi_q, nominal=nominal, method=method)
    lower = Curve(model.grid, _read_only(-lo_q * sigma))  # band floor = center + L * sigma
    upper = Curve(model.grid, _read_only(hi_q * sigma))
    return cal, lower, upper
