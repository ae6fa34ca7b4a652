"""Competing estimators used for benchmarking.

Both baselines regress event indicators on the covariate directly, so a
new event set means a full refit, and nothing forces their estimates to be
monotone across nested events; the benchmark harness records such
violations instead of forbidding them.

Covariates arrive as weighted coordinates (see
:meth:`curveprob.curves.Covariate.coords`): an (n, p) matrix for training,
one length-p row per query.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInputError, UsageError
from .flm import FittedFLM

BANDWIDTH_GRID_SIZE = 20
BANDWIDTH_SPAN = (0.05, 5.0)      # times the median pairwise distance
COEF_NORM_CAP = 1e3               # separation guard for the binomial fit
IRLS_TOL = 1e-10
IRLS_MAX_ITER = 100


# ---------------------------------------------------------------------------
# kernel regression on event indicators

@dataclass(frozen=True)
class NWEstimator:
    """Gaussian-kernel weighted average of training indicators."""

    bandwidth: float
    train_coords: np.ndarray = field(repr=False)
    labels: np.ndarray = field(repr=False)

    def __post_init__(self):
        if not np.isfinite(self.bandwidth) or self.bandwidth <= 0:
            raise UsageError(f"bandwidth must be positive and finite, got {self.bandwidth}")


def pairwise_distances(coords: np.ndarray) -> np.ndarray:
    """(n, n) Euclidean distances between the rows of a coordinate matrix."""
    sq = np.sum(coords**2, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * coords @ coords.T
    return np.sqrt(np.maximum(d2, 0.0))


def default_bandwidth_grid(dist: np.ndarray) -> np.ndarray:
    """Log-spaced grid spanning BANDWIDTH_SPAN times the median off-diagonal
    entry of a pairwise distance matrix."""
    med = float(np.median(dist[np.triu_indices(len(dist), k=1)]))
    if med <= 0:
        raise DegenerateInputError("all pairwise covariate distances are zero")
    return med * np.logspace(
        np.log10(BANDWIDTH_SPAN[0]), np.log10(BANDWIDTH_SPAN[1]), BANDWIDTH_GRID_SIZE
    )


def nw_select_bandwidth(coords, labels, grid: np.ndarray = None) -> float:
    """Bandwidth minimizing leave-one-out squared error of the indicator
    regression; ties go to the smaller bandwidth. A point whose kernel
    weights all underflow is predicted by the mean of the other labels.
    Labels of one class fit exactly at every bandwidth, so they get the
    smallest one (comparing their errors would compare round-off)."""
    coords = np.asarray(coords, dtype=float)
    labels = np.asarray(labels, dtype=float)
    n = len(coords)
    if n < 3:
        raise UsageError("bandwidth selection needs at least 3 training points")
    dist = pairwise_distances(coords)
    if grid is None:
        grid = default_bandwidth_grid(dist)
    if labels.min() == labels.max():
        return float(np.min(grid))
    leave_one_out_means = (labels.sum() - labels) / (n - 1)

    best_h, best_err = None, np.inf
    for h in np.sort(np.asarray(grid, dtype=float)):
        k = np.exp(-0.5 * (dist / h) ** 2)
        np.fill_diagonal(k, 0.0)
        denom = k.sum(axis=1)
        with np.errstate(invalid="ignore", divide="ignore"):
            preds = np.where(denom > 0, (k @ labels) / denom, leave_one_out_means)
        err = float(np.mean((labels - preds) ** 2))
        if err < best_err:
            best_h, best_err = float(h), err
    return best_h


def nw_fit(coords, labels, bandwidth: float = None, grid: np.ndarray = None) -> NWEstimator:
    coords = np.asarray(coords, dtype=float)
    labels = np.asarray(labels, dtype=float)
    if len(coords) == 0:
        raise UsageError("kernel regression needs at least one training point")
    if bandwidth is None:
        bandwidth = nw_select_bandwidth(coords, labels, grid)
    return NWEstimator(bandwidth=bandwidth, train_coords=coords, labels=labels)


def nw_prob(est: NWEstimator, x_coords) -> float:
    """Kernel-weighted mean of training indicators at the query point,
    clipped to [0, 1] against round-off."""
    diffs = est.train_coords - x_coords
    dist = np.sqrt(np.sum(diffs**2, axis=1))
    with np.errstate(over="ignore"):  # ratio overflow just underflows the weight
        weights = np.exp(-0.5 * (dist / est.bandwidth) ** 2)
    total = weights.sum()
    if total <= 0.0:
        warnings.warn(
            "all kernel weights underflowed; falling back to the unweighted mean",
            stacklevel=2,
        )
        return float(est.labels.mean())
    return min(max(float(weights @ est.labels / total), 0.0), 1.0)


# ---------------------------------------------------------------------------
# binomial regression on principal-component scores

@dataclass(frozen=True)
class FGLMModel:
    """Binomial regression of event indicators on leading covariate scores."""

    link: str
    intercept: float
    coefficients: np.ndarray = field(repr=False)
    basis: np.ndarray = field(repr=False)        # (p, k) score directions
    x_mean_coords: np.ndarray = field(repr=False)
    converged: bool = True
    separation: bool = False


def _link_mean(link: str, eta: np.ndarray) -> np.ndarray:
    if link == "logit":
        return 1.0 / (1.0 + np.exp(-np.clip(eta, -500, 500)))
    if link == "probit":
        from scipy.stats import norm  # deferred: slow to import, and only probit needs it
        return norm.cdf(eta)
    raise UsageError(f"link must be 'logit' or 'probit', got {link!r}")


def _log_likelihood(y: np.ndarray, mu: np.ndarray) -> float:
    mu = np.clip(mu, 1e-12, 1 - 1e-12)
    return float(np.sum(y * np.log(mu) + (1 - y) * np.log(1 - mu)))


def fglm_fit(coords, labels, regression: FittedFLM, link: str = "logit") -> FGLMModel:
    """Maximum likelihood by iteratively reweighted least squares.

    ``regression`` is the :class:`~curveprob.flm.FittedFLM` fitted on these
    same ``coords``; the scores are the centered covariates projected on its
    retained principal directions, ``(coords - x_mean_coords) @
    covariate_spectrum.eigenvectors``. Detected separation (the coefficient
    norm running past COEF_NORM_CAP) is flagged and the coefficients are
    clipped to that norm.
    """
    y = np.asarray(labels, dtype=float)
    if y.min() == y.max():
        raise DegenerateInputError("binomial regression needs both label classes present")

    x_mean = regression.x_mean_coords
    basis = regression.covariate_spectrum.eigenvectors
    scores = (np.asarray(coords, dtype=float) - x_mean) @ basis

    design = np.column_stack([np.ones(len(y)), scores])
    beta = np.zeros(design.shape[1])
    loglik = _log_likelihood(y, _link_mean(link, design @ beta))
    converged = False
    separation = False

    for _ in range(IRLS_MAX_ITER):
        eta = design @ beta
        mu = _link_mean(link, eta)
        mu = np.clip(mu, 1e-10, 1 - 1e-10)
        if link == "logit":
            weight = mu * (1 - mu)
            working = eta + (y - mu) / weight
        else:
            from scipy.stats import norm
            dens = np.maximum(norm.pdf(eta), 1e-10)
            weight = dens**2 / (mu * (1 - mu))
            working = eta + (y - mu) / dens
        wd = design * weight[:, None]
        try:
            beta_new = np.linalg.solve(design.T @ wd, wd.T @ working)
        except np.linalg.LinAlgError:
            separation = True
            break
        beta = beta_new

        slope_norm = float(np.linalg.norm(beta[1:]))
        if slope_norm > COEF_NORM_CAP:
            separation = True
            beta = beta * (COEF_NORM_CAP / slope_norm)
            break

        new_loglik = _log_likelihood(y, _link_mean(link, design @ beta))
        if abs(new_loglik - loglik) < IRLS_TOL:
            loglik = new_loglik
            converged = True
            break
        loglik = new_loglik

    # certificate check: a hyperplane putting every label strictly on its
    # own side proves the data are separated, however small the coefficients
    margin = np.min((2.0 * y - 1.0) * (design @ beta))
    if margin > 0.0:
        separation = True

    if separation:
        warnings.warn("separation detected in binomial regression; coefficients clipped",
                      stacklevel=2)
    if not converged and not separation:
        warnings.warn("binomial regression did not converge", stacklevel=2)

    return FGLMModel(
        link=link,
        intercept=float(beta[0]),
        coefficients=beta[1:],
        basis=basis,
        x_mean_coords=x_mean,
        converged=converged,
        separation=separation,
    )


def fglm_prob(model: FGLMModel, x_coords) -> float:
    """Fitted probability at a new covariate, kept inside the open unit interval."""
    score = (x_coords - model.x_mean_coords) @ model.basis
    eta = model.intercept + float(score @ model.coefficients)
    return float(np.clip(_link_mean(model.link, np.asarray(eta)), 1e-12, 1 - 1e-12))
