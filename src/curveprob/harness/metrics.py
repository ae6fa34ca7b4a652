"""Evaluation metrics for probability estimates and quantile forecasts."""

from __future__ import annotations

import numpy as np

from ..errors import UsageError

PROB_CLIP = 1e-12


def cross_entropy(labels, probs) -> float:
    """Mean negative log-likelihood of binary outcomes under predicted
    probabilities, with the probabilities clipped away from 0 and 1."""
    y = np.asarray(labels, dtype=float)
    p = np.asarray(probs, dtype=float)
    if y.shape != p.shape:
        raise UsageError(f"labels and probabilities differ in length: {y.shape} vs {p.shape}")
    p = np.clip(p, PROB_CLIP, 1.0 - PROB_CLIP)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


def rmse(estimates, truth) -> float:
    """Root mean squared error of a vector of estimates against one truth
    (or a matching vector of truths)."""
    est = np.asarray(estimates, dtype=float)
    return float(np.sqrt(np.mean((est - truth) ** 2)))


def binomial_se(p_hat: float, n: int) -> float:
    """Standard error of an empirical proportion."""
    return float(np.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / n))
