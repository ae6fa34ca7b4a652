"""Experiment drivers: band coverage, probability RMSE, extreme-quantile
RMSE, and the train/test cross-entropy pipeline.

Every driver is a pure function of its parameters and a master seed. All
randomness flows through counter-based substreams keyed on (seed, purpose,
replicate, ...), so replicates are independent, methods sharing a
replicate see the same simulated data (paired comparisons), and reruns are
bit-identical. Ground-truth Monte-Carlo oracles live in functions of their
own and touch the data-generating process directly, never the estimators.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from ..baselines import (
    fglm_fit,
    fglm_probs_from_scores,
    fglm_score,
    nw_fit,
    nw_prob,
    nw_prob_from_distances,
    nw_select_bandwidth,
    pairwise_distances,
    query_distances,
)
from ..conddist import (
    calibrate_uniform_band,
    ensemble,
    ensemble_noise,
    order_statistic_quantile,
    quantile_over_family,
)
from ..curves import Covariate, Curve, Grid
from ..errors import RangeExhaustedError, UsageError
from ..events import (
    EventSet,
    contains,
    contains_batch,
    family_level_in_alpha,
    family_level_in_z,
    format_event,
    level_alpha_critical,
    level_set,
    level_shares,
    sorted_columns,
)
from ..flm import TruncationRule, build_far_design, fit, predict_coords
from ..rng import seed_sequence, substream
from .dgp import (
    DGPSpec,
    conditional_draws,
    gaussian_iid_dgp,
    paparoditis_dgp,
    simulate_far,
    stationary_predictors,
    synthetic_dgp,
)
from .metrics import binomial_se, cross_entropy, rmse
from .seasonal import deseasonalize

DEFAULT_GRID_D = 100
METHODS = ("boot", "gauss", "glm", "nw")
ENSEMBLE_METHODS = ("boot", "gauss")

# substream purposes
_SIM, _MC, _PREDICTORS, _ORACLE, _SPLIT = 0, 1, 2, 3, 4


@dataclass(frozen=True)
class ExperimentReport:
    """Tabular experiment output plus its defining parameters.

    The CSV rendering contains the parameters and the table only; runtime
    is reported in the JSON rendering because it is not reproducible.
    """

    kind: str
    spec: dict
    columns: tuple
    rows: tuple
    summary: dict = field(default_factory=dict)
    n_replications: int = 0
    runtime_seconds: float = 0.0

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "spec": self.spec,
            "summary": self.summary,
            "columns": list(self.columns),
            "rows": [list(r) for r in self.rows],
            "n_replications": self.n_replications,
            "runtime_seconds": self.runtime_seconds,
        }

    def to_csv_rows(self) -> list:
        out = [[f"# kind={self.kind}"]]
        for key in sorted(self.spec):
            out.append([f"# {key}={self.spec[key]}"])
        for key in sorted(self.summary):
            out.append([f"# summary.{key}={_fmt(self.summary[key])}"])
        out.append(list(self.columns))
        out.extend(list(r) for r in self.rows)
        return out


def _fmt(value):
    return repr(float(value)) if isinstance(value, (float, np.floating)) else value


def _dgp_by_kind(kind: str, grid: Grid, b: float = 0.0) -> DGPSpec:
    if kind == "far_paparoditis":
        return paparoditis_dgp(grid, b=b)
    if kind == "far_synthetic":
        return synthetic_dgp(grid)
    if kind == "gaussian_iid":
        return gaussian_iid_dgp(grid)
    raise UsageError(f"unknown DGP kind {kind!r}")


def _parse_methods(methods) -> tuple:
    if isinstance(methods, str):
        methods = tuple(m.strip() for m in methods.split(",") if m.strip())
    methods = tuple(methods)
    for k, m in enumerate(methods):
        if m not in METHODS:
            raise UsageError(f"unknown method {m!r}; choose from {METHODS}")
        if m in methods[:k]:
            raise UsageError(f"method {m!r} is given twice")
    if not methods:
        raise UsageError("need at least one method")
    return methods


def _check_counts(**counts) -> None:
    for name, value in counts.items():
        if value < 1:
            raise UsageError(f"{name} must be >= 1, got {value}")


def _ensemble_methods(methods) -> tuple:
    """The requested ensemble methods, always in the order boot, gauss."""
    return tuple(m for m in ENSEMBLE_METHODS if m in methods)


def _glm_probs(coords, labels, regression, queries, scores: list) -> np.ndarray:
    """Binomial-baseline probabilities at the query rows. No binomial
    regression fits labels of one class; every query then gets the
    training-label mean. ``scores`` caches the queries' scores: every fit on
    one regression shares its principal directions, so the first fit fills it."""
    if labels.min() == labels.max():
        return np.full(len(queries), float(labels.mean()))
    glm = fglm_fit(coords, labels, regression, link="logit")
    if not scores:
        scores.extend(fglm_score(glm, q) for q in queries)
    return fglm_probs_from_scores(glm, scores)


# ---------------------------------------------------------------------------
# band coverage (first-order autoregression, possibly misspecified)

def run_coverage_experiment(
    n: int,
    b: float,
    nominal: float,
    method: str = "both",
    reps: int = 500,
    seed: int = 0,
    grid_d: int = DEFAULT_GRID_D,
    pve: float = 0.85,
    mc_size: int = 2000,
) -> ExperimentReport:
    """Empirical coverage of calibrated uniform prediction bands.

    Each replicate simulates a fresh series of length n+1, fits a
    first-order model to the first n curves with the variance-share rule,
    calibrates the band at the last observed curve, and checks whether the
    held-out true next curve lies inside. Both estimation methods see the
    same simulated series within a replicate.
    """
    _check_counts(reps=reps)
    methods = ("boot", "gauss") if method == "both" else _parse_methods(method)
    started = time.perf_counter()
    grid = Grid(grid_d)
    spec = _dgp_by_kind("far_paparoditis", grid, b=b)

    hits = {m: 0 for m in methods}
    for rep in range(reps):
        series = simulate_far(spec, n + 1, rng=substream(seed, _SIM, rep))
        sample, _ = build_far_design(series[:n], order=1)
        model = fit(sample, TruncationRule.pve(pve), center=True)
        x_query = Covariate((series[n - 1],))
        truth = series[n]
        for m in methods:
            _, band = calibrate_uniform_band(
                model, x_query, nominal, method=m, mc_size=mc_size,
                seed=_int_seed(seed, _MC, rep),
            )
            hits[m] += int(contains(band, truth))

    columns = ("method", "coverage", "se", "reps")
    rows = []
    summary = {}
    for m in methods:
        cov = hits[m] / reps
        rows.append((m, cov, binomial_se(cov, reps), reps))
        summary[f"coverage_{m}"] = cov
    return ExperimentReport(
        kind="coverage",
        spec={"n": n, "b": b, "nominal": nominal, "reps": reps, "seed": seed,
              "grid_d": grid_d, "pve": pve, "mc_size": mc_size,
              "methods": ",".join(methods)},
        columns=columns,
        rows=tuple(rows),
        summary=summary,
        n_replications=reps,
        runtime_seconds=time.perf_counter() - started,
    )


def _int_seed(seed: int, *indices: int) -> int:
    """Fold an index path into a fresh 63-bit integer seed."""
    return int(seed_sequence(seed, *indices).generate_state(1, dtype=np.uint64)[0] >> 1)


# ---------------------------------------------------------------------------
# probability RMSE against a Monte-Carlo oracle

def oracle_event_probability(
    spec: DGPSpec, previous: Curve, event: EventSet, n_mc: int, seed: int
) -> float:
    """Ground truth by simulating the next curve from the true process."""
    draws = conditional_draws(spec, previous, n_mc, seed)
    return float(np.count_nonzero(contains_batch(event, draws, spec.grid))) / n_mc


def run_rmse_experiment(
    dgp: str = "far_synthetic",
    n: int = 100,
    n_predictors: int = 50,
    event: EventSet = None,
    methods="boot,gauss",
    reps: int = 100,
    seed: int = 0,
    grid_d: int = DEFAULT_GRID_D,
    oracle_size: int = 10_000,
    mc_size: int = 2000,
    truncation: TruncationRule = None,
) -> ExperimentReport:
    """Per-predictor RMSE of conditional event-probability estimates.

    Fixed predictors are drawn once from the stationary law; their true
    conditional probabilities come from a Monte-Carlo oracle on the data
    generating process. Each replicate simulates a fresh training series,
    fits once, and estimates the probability at every predictor with every
    requested method. The event is fixed across methods.
    """
    methods = _parse_methods(methods)
    _check_counts(n=n, reps=reps, n_predictors=n_predictors, oracle_size=oracle_size)
    event = event if event is not None else level_set(np.sqrt(50.0), 0.5)
    truncation = truncation or TruncationRule.threshold()
    started = time.perf_counter()
    grid = Grid(grid_d)
    spec = _dgp_by_kind(dgp, grid)

    predictors = stationary_predictors(spec, n_predictors, _int_seed(seed, _PREDICTORS))
    truths = np.asarray([
        oracle_event_probability(spec, y0, event, oracle_size, _int_seed(seed, _ORACLE, j))
        for j, y0 in enumerate(predictors)
    ])
    # weighted coordinates of the one-curve covariates (y0,)
    queries = np.asarray([y0.values for y0 in predictors]) * grid.quad_weights_sqrt()

    estimates = {m: np.empty((reps, n_predictors)) for m in methods}
    for rep in range(reps):
        series = simulate_far(spec, n, rng=substream(seed, _SIM, rep))
        sample, _ = build_far_design(series, order=1)
        model = fit(sample, truncation, center=True)
        mc_seed = _int_seed(seed, _MC, rep)

        for m in _ensemble_methods(methods):
            for j, q in enumerate(queries):
                values, _ = ensemble(model, q, m, mc_size, mc_seed)
                inside = contains_batch(event, values, grid)
                estimates[m][rep, j] = np.count_nonzero(inside) / len(values)
        if "glm" in methods or "nw" in methods:
            labels = contains_batch(event, sample.y, grid).astype(float)
            if "glm" in methods:
                estimates["glm"][rep] = _glm_probs(sample.x, labels, model, queries, [])
            if "nw" in methods:
                est = nw_fit(sample.x, labels)
                estimates["nw"][rep] = [nw_prob(est, q) for q in queries]

    columns = ("method", "predictor", "truth", "rmse")
    rows = []
    summary = {}
    for m in methods:
        per_pred = [rmse(estimates[m][:, j], truths[j]) for j in range(n_predictors)]
        rows.extend((m, j + 1, truths[j], per_pred[j]) for j in range(n_predictors))
        summary[f"median_rmse_{m}"] = float(np.median(per_pred))
    return ExperimentReport(
        kind="rmse",
        spec={"dgp": dgp, "n": n, "n_predictors": n_predictors,
              "event": format_event(event), "methods": ",".join(methods),
              "reps": reps, "seed": seed, "grid_d": grid_d,
              "oracle_size": oracle_size, "mc_size": mc_size},
        columns=columns,
        rows=tuple(rows),
        summary=summary,
        n_replications=reps,
        runtime_seconds=time.perf_counter() - started,
    )


# ---------------------------------------------------------------------------
# extreme-quantile RMSE

def oracle_level_quantile(
    spec: DGPSpec, previous: Curve, p: float, z: float, n_mc: int, seed: int
) -> float:
    """Ground-truth p-quantile of the level-family parameter, computed on
    oracle draws with the estimator's own kernels: each draw's critical
    threshold (:func:`~curveprob.events.level_alpha_critical`), then the
    order statistic at which their fraction reaches p, with no search grid.
    """
    if not 0.0 < z < 1.0:
        raise UsageError(f"time budget z must lie in (0, 1), got {z}")
    draws = conditional_draws(spec, previous, n_mc, seed)
    return order_statistic_quantile(level_alpha_critical(draws, spec.grid, z), p)


def run_var_experiment(
    dgp: str = "far_synthetic",
    n: int = 250,
    n_predictors: int = 50,
    reps: int = 50,
    seed: int = 0,
    z: float = 0.5,
    search_lo: float = 0.0,
    search_hi: float = 30.0,
    grid_d: int = DEFAULT_GRID_D,
    oracle_size: int = 10_000,
    mc_size: int = 2000,
    truncation: TruncationRule = None,
    p: float = None,
) -> ExperimentReport:
    """RMSE of extreme-quantile estimates (level-family parameter at
    p = 1 - 1/n unless given) for the bootstrap and Gaussian methods."""
    truncation = truncation or TruncationRule.threshold()
    _check_counts(n=n, reps=reps, n_predictors=n_predictors, oracle_size=oracle_size)
    p = p if p is not None else 1.0 - 1.0 / n
    started = time.perf_counter()
    grid = Grid(grid_d)
    spec = _dgp_by_kind(dgp, grid)
    methods = ("boot", "gauss")

    predictors = stationary_predictors(spec, n_predictors, _int_seed(seed, _PREDICTORS))
    truths = np.asarray([
        oracle_level_quantile(spec, y0, p, z, oracle_size, _int_seed(seed, _ORACLE, j))
        for j, y0 in enumerate(predictors)
    ])

    family = family_level_in_alpha(z, search_lo, search_hi)
    queries = [Covariate((y0,)) for y0 in predictors]
    estimates = {m: np.empty((reps, n_predictors)) for m in methods}
    for rep in range(reps):
        series = simulate_far(spec, n, rng=substream(seed, _SIM, rep))
        sample, _ = build_far_design(series, order=1)
        model = fit(sample, truncation, center=True)
        for j, x in enumerate(queries):
            for m in methods:
                try:
                    xi = quantile_over_family(
                        model, x, family, p, method=m,
                        mc_size=mc_size, seed=_int_seed(seed, _MC, rep),
                    )
                except RangeExhaustedError:
                    xi = search_hi
                estimates[m][rep, j] = xi

    columns = ("method", "predictor", "truth", "rmse")
    rows = []
    summary = {}
    per_pred = {}
    for m in methods:
        per_pred[m] = np.asarray([rmse(estimates[m][:, j], truths[j])
                                  for j in range(n_predictors)])
        rows.extend((m, j + 1, truths[j], per_pred[m][j]) for j in range(n_predictors))
        summary[f"median_rmse_{m}"] = float(np.median(per_pred[m]))
    summary["gauss_better_fraction"] = float(
        np.mean(per_pred["gauss"] < per_pred["boot"])
    )
    return ExperimentReport(
        kind="quantile_rmse",
        spec={"dgp": dgp, "n": n, "n_predictors": n_predictors, "p": p, "z": z,
              "reps": reps, "seed": seed, "grid_d": grid_d,
              "search_lo": search_lo, "search_hi": search_hi,
              "oracle_size": oracle_size, "mc_size": mc_size},
        columns=columns,
        rows=tuple(rows),
        summary=summary,
        n_replications=reps,
        runtime_seconds=time.perf_counter() - started,
    )


# ---------------------------------------------------------------------------
# cross-entropy pipeline on user-supplied daily series

def run_entropy_eval(
    response: list,
    exog: list = (),
    day_of_year=None,
    day_of_week=None,
    ar_order: int = 7,
    pve: float = 0.98,
    alphas=(30.0, 40.0, 50.0, 60.0, 70.0),
    zs=(0.0, 1.0 / 6, 2.0 / 6, 3.0 / 6),
    test_fraction: float = 1.0 / 3,
    methods="boot,glm,nw",
    seed: int = 0,
    mc_size: int = 2000,
) -> ExperimentReport:
    """Deseasonalize, fit a lagged model with exogenous curves, and score
    conditional level-set probabilities on a held-out test split by
    cross-entropy.

    ``response`` and each entry of ``exog`` are day-aligned curve series;
    exog entries are (series, remove_weekly) pairs. Events are evaluated on
    the original scale: the estimators work on the adjusted series and each
    day's seasonal component is added back to the predictive ensembles.
    """
    methods = _parse_methods(methods)
    if day_of_year is None:
        raise UsageError("the cross-entropy pipeline needs a day-of-year index")
    if not 0.0 < test_fraction < 1.0:
        raise UsageError(f"test fraction must lie in (0, 1), got {test_fraction}")
    # nested events (z grows at fixed alpha) should give nondecreasing
    # probabilities; refit-per-event baselines may violate this, which is
    # recorded rather than forbidden
    zs = sorted(zs)
    for z in zs:
        if not 0.0 <= z <= 1.0:
            raise UsageError(f"time budget z must lie in [0, 1], got {z}")
    started = time.perf_counter()
    n_days = len(response)
    grid = response[0].grid

    adj_response = deseasonalize(response, day_of_year, day_of_week, weekly=True)
    adj_exog = [
        deseasonalize(series, day_of_year, day_of_week, weekly=remove_weekly)
        for series, remove_weekly in exog
    ]

    sample, day_of_pair = build_far_design(adj_response.adjusted, ar_order,
                                           [dec.adjusted for dec in adj_exog])

    n_pairs = len(sample)
    n_test = int(round(n_pairs * test_fraction))
    if not 0 < n_test < n_pairs:
        raise UsageError("test fraction leaves an empty train or test set")
    test_ids = np.sort(substream(seed, _SPLIT).choice(n_pairs, size=n_test, replace=False))
    train_ids = np.setdiff1d(np.arange(n_pairs), test_ids)
    train_x = sample.x[train_ids]
    model = fit(replace(sample, y=sample.y[train_ids], x=train_x),
                TruncationRule.pve(pve), center=True)

    # real-scale curves keyed by pair index
    day_of_pair = np.asarray(day_of_pair)
    real_values = np.asarray([c.values for c in response])[day_of_pair]

    # each test day's geometry depends only on the split: its distances to
    # the training days and its scores on the regression's directions
    test_x = [sample.x[i] for i in test_ids]
    glm_scores = []
    if "nw" in methods:
        train_dist = pairwise_distances(train_x)
        test_dist = [query_distances(train_x, x) for x in test_x]

    # each test day's ensemble is center + noise row + seasonal component;
    # one noise draw and one column sort per method serve every alpha
    mc_seed = _int_seed(seed, _MC)
    noise_columns = {m: sorted_columns(ensemble_noise(model, m, mc_size, mc_seed)[0])
                     for m in _ensemble_methods(methods)}
    if noise_columns:
        test_centers = np.asarray([predict_coords(model, x) for x in test_x])
        test_seasonal = adj_response.seasonal_values(day_of_pair[test_ids])

    columns = ("alpha", "z", "method", "cross_entropy", "n_test")
    rows = []
    summary = {}
    best_counts = {m: 0 for m in methods}
    previous_probs = {}
    monotonicity_violations = {m: 0 for m in methods}
    for alpha in alphas:
        previous_probs.clear()
        # each curve's share of time above alpha: level_set(alpha, z) holds
        # exactly where the share is <= z (the level kernel's own test)
        level_share = family_level_in_z(alpha).critical
        test_share = level_share(real_values[test_ids], grid)
        train_share = level_share(real_values[train_ids], grid)
        shares = {m: level_shares(table, test_centers, test_seasonal, alpha)
                  for m, table in noise_columns.items()}
        train_labels = [(train_share <= z).astype(float) for z in zs]
        if "nw" in methods:
            bandwidths = nw_select_bandwidth(train_dist, train_labels)
        for iz, z in enumerate(zs):
            labels = (test_share <= z).astype(float)
            probs = {m: np.count_nonzero(share <= z, axis=1) / share.shape[1]
                     for m, share in shares.items()}
            if "glm" in methods:
                probs["glm"] = _glm_probs(train_x, train_labels[iz], model, test_x, glm_scores)
            if "nw" in methods:
                nw_model = nw_fit(train_x, train_labels[iz], bandwidth=bandwidths[iz])
                probs["nw"] = np.asarray([nw_prob_from_distances(nw_model, dist)
                                          for dist in test_dist])

            cell = {m: cross_entropy(labels, probs[m]) for m in methods}
            best = min(cell, key=cell.get)
            best_counts[best] += 1
            rows.extend((alpha, z, m, cell[m], len(test_ids)) for m in methods)
            for m in methods:
                if m in previous_probs:
                    monotonicity_violations[m] += int(
                        np.count_nonzero(probs[m] < previous_probs[m] - 1e-12)
                    )
                previous_probs[m] = probs[m].copy()

    for m in methods:
        summary[f"best_cells_{m}"] = best_counts[m]
        summary[f"monotonicity_violations_{m}"] = monotonicity_violations[m]
    return ExperimentReport(
        kind="entropy_eval",
        spec={"n_days": n_days, "ar_order": ar_order, "pve": pve,
              "test_fraction": test_fraction, "methods": ",".join(methods),
              "seed": seed, "mc_size": mc_size,
              "alphas": ",".join(str(a) for a in alphas),
              "zs": ",".join(str(z) for z in zs)},
        columns=columns,
        rows=tuple(rows),
        summary=summary,
        n_replications=1,
        runtime_seconds=time.perf_counter() - started,
    )
