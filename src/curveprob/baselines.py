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

import math
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


def _distances(row_sq: np.ndarray, col_sq: np.ndarray, twice_products: np.ndarray) -> np.ndarray:
    """Euclidean distances from squared norms and doubled inner products, by
    ``|a - b|^2 = |a|^2 + |b|^2 - 2 a.b`` clamped at zero against round-off.
    Coordinates whose squares overflow give no distances."""
    dist = np.sqrt(np.maximum(row_sq[:, None] + col_sq[None, :] - twice_products, 0.0))
    if not np.all(np.isfinite(dist)):
        raise DegenerateInputError("covariate distances overflow: the distance matrix "
                                   "has non-finite cells")
    return dist


def pairwise_distances(coords: np.ndarray) -> np.ndarray:
    """(n, n) Euclidean distances between the rows of a coordinate matrix."""
    with np.errstate(over="ignore", invalid="ignore"):  # _distances rejects overflow
        sq = np.sum(coords**2, axis=1)
        return _distances(sq, sq, 2.0 * coords @ coords.T)


def _gaussian_kernel(dist: np.ndarray, bandwidth: float, out: np.ndarray) -> np.ndarray:
    """``exp(-0.5 * (dist / bandwidth) ** 2)``, built in ``out``."""
    np.divide(dist, bandwidth, out=out)
    np.square(out, out=out)
    np.multiply(out, -0.5, out=out)
    return np.exp(out, out=out)


def default_bandwidth_grid(dist: np.ndarray) -> np.ndarray:
    """Log-spaced grid spanning BANDWIDTH_SPAN times the median off-diagonal
    entry of a pairwise distance matrix."""
    med = float(np.median(dist[np.triu_indices(len(dist), k=1)]))
    if med <= 0:
        raise DegenerateInputError("all pairwise covariate distances are zero")
    return med * np.logspace(
        np.log10(BANDWIDTH_SPAN[0]), np.log10(BANDWIDTH_SPAN[1]), BANDWIDTH_GRID_SIZE
    )


def nw_select_bandwidth(dist: np.ndarray, label_sets, grid: np.ndarray = None) -> list:
    """Per label set, the bandwidth minimizing leave-one-out squared error of
    the indicator regression on an (n, n) distance matrix; ties go to the
    smaller bandwidth. Each bandwidth's kernel is built once for all sets. A
    point whose kernel weights all underflow is predicted by the mean of the
    other labels. Labels of one class fit exactly at every bandwidth, so they
    get the smallest one (comparing their errors would compare round-off)."""
    dist = np.asarray(dist, dtype=float)
    n = len(dist)
    if n < 3:
        raise UsageError("bandwidth selection needs at least 3 training points")
    if grid is None:
        grid = default_bandwidth_grid(dist)
    label_sets = [np.asarray(labels, dtype=float) for labels in label_sets]
    best_h = [float(np.min(grid))] * len(label_sets)
    scored = [j for j, labels in enumerate(label_sets) if labels.min() < labels.max()]
    if not scored:
        return best_h
    loo_means = {j: (label_sets[j].sum() - label_sets[j]) / (n - 1) for j in scored}
    best_err = dict.fromkeys(scored, np.inf)
    k = np.empty_like(dist)
    for h in np.sort(np.asarray(grid, dtype=float)):
        _gaussian_kernel(dist, h, k)
        np.fill_diagonal(k, 0.0)
        denom = k.sum(axis=1)
        for j in scored:
            with np.errstate(invalid="ignore", divide="ignore"):
                preds = np.where(denom > 0, (k @ label_sets[j]) / denom, loo_means[j])
            err = float(np.mean((label_sets[j] - preds) ** 2))
            if err < best_err[j]:
                best_h[j], best_err[j] = float(h), err
    return best_h


def nw_fit(coords, labels, bandwidth: float = None) -> NWEstimator:
    coords = np.asarray(coords, dtype=float)
    labels = np.asarray(labels, dtype=float)
    if len(coords) == 0:
        raise UsageError("kernel regression needs at least one training point")
    if bandwidth is None:
        bandwidth = nw_select_bandwidth(pairwise_distances(coords), [labels])[0]
    return NWEstimator(bandwidth=bandwidth, train_coords=coords, labels=labels)


def cross_distances(train_coords: np.ndarray, queries) -> np.ndarray:
    """(T, n) Euclidean distances from each of T query rows to every training
    row, by the identity of :func:`pairwise_distances`. Each query's inner
    products are one matrix-vector product of its own (a matrix product over
    the stacked queries rounds differently), so a query's row does not depend
    on the other queries."""
    queries = np.asarray(queries, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # _distances rejects overflow
        products = np.stack([train_coords @ x for x in queries])
        return _distances(np.sum(queries**2, axis=1), np.sum(train_coords**2, axis=1),
                          2.0 * products)


def nw_prob(est: NWEstimator, x_coords) -> float:
    """Kernel-weighted mean of training indicators at the query point."""
    dist = cross_distances(est.train_coords, [x_coords])
    return float(nw_probs_from_distances(est, dist)[0])


def nw_probs_from_distances(est: NWEstimator, dist) -> np.ndarray:
    """:func:`nw_prob` at each query given by its row of a
    :func:`cross_distances` matrix, clipped to [0, 1] against round-off. Each
    query's weighted label sum is a dot product of its own, so its
    probability does not depend on the other queries. A query whose kernel
    weights all underflow gets the unweighted label mean, with a warning."""
    dist = np.asarray(dist, dtype=float)
    with np.errstate(over="ignore"):  # ratio overflow just underflows the weight
        weights = _gaussian_kernel(dist, est.bandwidth, np.empty_like(dist))
    totals = weights.sum(axis=1)
    probs = np.full(len(dist), float(est.labels.mean()))
    underflowed = totals <= 0.0
    if underflowed.any():
        warnings.warn(
            "all kernel weights underflowed; falling back to the unweighted mean",
            stacklevel=2,
        )
    for t in np.flatnonzero(~underflowed):
        probs[t] = weights[t] @ est.labels / totals[t]
    return np.clip(probs, 0.0, 1.0)


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
    if link == "probit":  # the standard normal cdf
        return np.array([0.5 * math.erfc(-x / math.sqrt(2)) for x in eta], dtype=float)
    raise UsageError(f"link must be 'logit' or 'probit', got {link!r}")


def _normal_density(eta: np.ndarray) -> np.ndarray:
    """The standard normal density, ``exp(-eta**2 / 2) / sqrt(2 pi)``."""
    return np.exp(-eta**2 / 2.0) / np.sqrt(2 * np.pi)


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
            dens = np.maximum(_normal_density(eta), 1e-10)
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


def fglm_score(model: FGLMModel, x_coords) -> np.ndarray:
    """A query's scores on the model's principal directions."""
    return (x_coords - model.x_mean_coords) @ model.basis


def fglm_prob(model: FGLMModel, x_coords) -> float:
    """Fitted probability at a new covariate."""
    return float(fglm_probs_from_scores(model, [fglm_score(model, x_coords)])[0])


def fglm_probs_from_scores(model: FGLMModel, scores) -> np.ndarray:
    """:func:`fglm_prob` at each query given by its :func:`fglm_score`, kept
    inside the open unit interval. Each query's linear predictor is a dot
    product of its own (a matrix product over the stacked scores rounds
    differently), so its probability does not depend on the other queries."""
    eta = np.asarray([model.intercept + float(s @ model.coefficients) for s in scores])
    return np.clip(_link_mean(model.link, eta), 1e-12, 1 - 1e-12)
