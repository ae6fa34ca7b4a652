"""curveprob: conditional distributions of curve-valued responses.

Estimate P(Y in A | X) for a functional response Y under a linear
regression on covariates X, by residual bootstrap or Gaussian-process
simulation on top of a truncated principal-component operator estimate.
Includes event-set predicates, quantiles over monotone event families,
calibrated uniform prediction bands, kernel and binomial-regression
baselines, and a simulation harness.
"""

import os

# Results are bit-identical only at one BLAS thread count: a GEMM can round
# differently when its work is split, and a model file rebuilds coef_w with
# one. The BLAS libraries read these once, when numpy loads, so they are set
# before the first import of numpy; a value the user set wins.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
del _name

from .curves import Covariate, Curve, Grid  # noqa: E402,F401
from .conddist import (  # noqa: E402,F401
    BandCalibration,
    CondProbEstimate,
    GaussSampler,
    boot_prob,
    calibrate_uniform_band,
    gauss_prob,
    quantile_over_family,
)
from .events import EventSet, MonotoneFamily  # noqa: E402,F401
from .flm import FittedFLM, RegressionSample, TruncationRule, build_far_design, fit, predict  # noqa: E402,F401

__version__ = "0.1.0"
