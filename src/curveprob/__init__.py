"""curveprob: conditional distributions of curve-valued responses.

Estimate P(Y in A | X) for a functional response Y under a linear
regression on covariates X, by residual bootstrap or Gaussian-process
simulation on top of a truncated principal-component operator estimate.
Includes event-set predicates, quantiles over monotone event families,
calibrated uniform prediction bands, kernel and binomial-regression
baselines, and a simulation harness.
"""

from .curves import Covariate, Curve, Grid  # noqa: F401
from .conddist import (  # noqa: F401
    BandCalibration,
    CondProbEstimate,
    GaussSampler,
    boot_prob,
    calibrate_uniform_band,
    gauss_prob,
    quantile_over_family,
)
from .events import EventSet, MonotoneFamily  # noqa: F401
from .flm import FittedFLM, RegressionSample, TruncationRule, build_far_design, fit, predict  # noqa: F401

__version__ = "0.1.0"
