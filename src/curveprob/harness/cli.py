"""Command-line interface.

Subcommands cover the full workflow: simulate series, fit a model, query
conditional probabilities / quantiles / bands, run the experiment drivers,
deseasonalize daily curves, and evaluate the baseline estimators. Exit
codes: 0 success; 2 usage error, mismatched structure or unreadable file;
3 numerical degeneracy or a quantile range the estimate never reaches.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from ..baselines import fglm_fit, fglm_prob, nw_fit, nw_prob
from ..conddist import (
    boot_prob,
    calibrate_uniform_band,
    gauss_prob,
    quantile_over_family,
)
from ..curves import Covariate, Curve, Grid
from ..errors import DegenerateInputError, RangeExhaustedError, StructureError, UsageError
from ..events import contains_batch, parse_event, parse_family
from ..flm import TruncationRule, build_far_design, fit, from_json, to_json
from ..rng import substream
from . import io
from .dgp import DGPSpec, brownian_matrix, simulate_far_values
from .experiments import (
    check_entropy_options,
    run_coverage_experiment,
    run_entropy_eval,
    run_rmse_experiment,
    run_var_experiment,
)
from .seasonal import deseasonalize


def _parse_floats(text: str, option: str) -> tuple:
    """Comma-separated numbers of a command-line option."""
    try:
        values = tuple(float(s) for s in text.split(","))
    except ValueError as exc:
        raise UsageError(f"{option}: {exc}") from None
    if any(map(math.isnan, values)):
        raise UsageError(f"{option}: NaN is not a number")
    return values


def _load_covariate(path: str, scalars_text: str | None = None) -> Covariate:
    """The curves of the file ``path`` and the scalars of ``--x-scalars``."""
    values = io.load_curves(path)
    parts = tuple(Curve(Grid(values.shape[1] - 1), row) for row in values)
    scalars = _parse_floats(scalars_text, "--x-scalars") if scalars_text else ()
    if not parts and not scalars:
        raise UsageError(f"covariate file {path} holds no curves and no scalars given")
    return Covariate(parts, scalars)


def _load_query(args):
    """The model and covariate that estimate, quantile and band query."""
    model = from_json(io.read_text(args.model))
    return model, _load_covariate(args.x, args.x_scalars)


def _write_json(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _save_report(report, out, what: str) -> None:
    io.save_report(report, out)
    sys.stderr.write(f"{what} finished in {report.runtime_seconds:.1f}s\n")


def _cmd_simulate(args) -> None:
    grid = Grid(args.grid_d)
    if args.dgp != "far_paparoditis" and args.b != 0.0:
        raise UsageError(f"--b (second-lag weight) applies to far_paparoditis only, not {args.dgp}")
    if args.dgp == "brownian":
        if args.burn_in is not None:
            raise UsageError("--burn-in does not apply to independent brownian paths")
        if args.n < 1:
            raise UsageError(f"series length must be >= 1, got {args.n}")
        series = np.concatenate([brownian_matrix(grid, 1, substream(args.seed + i))
                                 for i in range(args.n)])
    else:
        spec = DGPSpec(args.dgp, grid, b=args.b, burn_in=args.burn_in)
        series = simulate_far_values(spec, args.n, substream(args.seed))
    io.save_curves(series, args.out or "series.csv")


def _cmd_fit(args) -> None:
    truncation = TruncationRule.parse(args.truncation)
    series = io.load_curves(args.series)
    exog = [io.load_curves(p) for p in args.exog or ()]
    sample, _ = build_far_design(series, args.ar_order, exog)
    model = fit(sample, truncation, center=not args.no_center,
                dof_correction=args.dof_correction)
    Path(args.out or "model.json").write_text(to_json(model), encoding="utf-8")


def _cmd_estimate(args) -> None:
    event = parse_event(args.event, load_curve=io.load_single_curve)
    model, x = _load_query(args)
    if args.method == "boot":
        est = boot_prob(model, x, event)
    else:
        est = gauss_prob(model, x, event, mc_size=args.mc, seed=args.seed)
    _write_json({"value": est.value, "method": est.method, "n_used": est.n_used,
                 "count": est.count, "seed": est.seed, "status": est.status}, args.out)


def _cmd_quantile(args) -> None:
    family = parse_family(args.family)
    model, x = _load_query(args)
    xi = quantile_over_family(model, x, family, args.p, method=args.method,
                              mc_size=args.mc, seed=args.seed)
    _write_json({"quantile": xi, "p": args.p, "method": args.method,
                 "seed": args.seed}, args.out)


def _cmd_band(args) -> None:
    model, x = _load_query(args)
    cal, band = calibrate_uniform_band(model, x, args.nominal, method=args.method,
                                       mc_size=args.mc, seed=args.seed)
    out = args.out or "band.csv"
    center = band.center.values
    io.save_curves(np.stack([center, center - band.lower.values,
                             center + band.upper.values]), out)
    _write_json({"lower_quantile": cal.lower_quantile,
                 "upper_quantile": cal.upper_quantile,
                 "nominal": cal.nominal, "method": cal.method,
                 "band_csv": out}, None)


def _cmd_coverage(args) -> None:
    out = io.report_path(args.out or "coverage.csv")
    report = run_coverage_experiment(
        n=args.n, b=args.b, nominal=args.nominal, method=args.method,
        reps=args.reps, seed=args.seed, grid_d=args.grid_d, pve=args.pve,
        mc_size=args.mc)
    _save_report(report, out, "coverage experiment")


def _cmd_rmse(args) -> None:
    out = io.report_path(args.out or "rmse.csv")
    report = run_rmse_experiment(
        dgp=args.dgp, n=args.n, n_predictors=args.predictors,
        event=parse_event(args.event, load_curve=io.load_single_curve),
        methods=args.methods, reps=args.reps, seed=args.seed,
        grid_d=args.grid_d, oracle_size=args.oracle_size, mc_size=args.mc)
    _save_report(report, out, "rmse experiment")


def _cmd_quantile_exp(args) -> None:
    out = io.report_path(args.out or "quantile.csv")
    report = run_var_experiment(
        dgp=args.dgp, n=args.n, n_predictors=args.predictors,
        reps=args.reps, seed=args.seed, z=args.z,
        search_lo=args.search_lo, search_hi=args.search_hi,
        grid_d=args.grid_d, oracle_size=args.oracle_size, mc_size=args.mc)
    _save_report(report, out, "quantile experiment")


def _cmd_entropy(args) -> None:
    out = io.report_path(args.out or "entropy.csv")
    alphas = _parse_floats(args.alphas, "--alphas")
    zs = _parse_floats(args.zs, "--zs")
    check_entropy_options(args.methods, args.mc, args.test_fraction, zs, args.pve)
    exog_specs = []
    for spec_text in args.exog or []:
        path, _, flag = spec_text.partition(":")
        if flag not in ("", "no-weekly"):
            raise UsageError(f"--exog {spec_text!r}: the only flag is 'no-weekly'")
        exog_specs.append((path, flag != "no-weekly"))
    response = io.load_curves(args.response)
    doy = io.load_index(args.doy)
    dow = io.load_index(args.dow) if args.dow else None
    exog = [(io.load_curves(path), weekly) for path, weekly in exog_specs]
    report = run_entropy_eval(
        response, exog, day_of_year=doy, day_of_week=dow,
        ar_order=args.ar_order, pve=args.pve, alphas=alphas, zs=zs,
        test_fraction=args.test_fraction, methods=args.methods,
        seed=args.seed, mc_size=args.mc)
    _save_report(report, out, "entropy evaluation")


def _cmd_deseasonalize(args) -> None:
    series = io.load_curves(args.series)
    doy = io.load_index(args.doy)
    dow = io.load_index(args.dow) if args.dow else None
    result = deseasonalize(series, doy, dow, window=args.window,
                           weekly=not args.no_weekly)
    io.save_curves(result.adjusted, args.out or "adjusted.csv")


def _baseline_inputs(args) -> tuple:
    """(training sample, its event labels, covariate coordinates) of a baseline."""
    event = parse_event(args.event, load_curve=io.load_single_curve)
    sample, _ = build_far_design(io.load_curves(args.train_series), args.ar_order)
    labels = contains_batch(event, sample.y, sample.grid).astype(float)
    x = _load_covariate(args.x)
    if x.structure() != sample.structure:
        raise StructureError(f"covariate structure {x.structure()} does not match "
                             f"the training design {sample.structure}")
    return sample, labels, x.coords()


def _cmd_baseline_nw(args) -> None:
    sample, labels, coords = _baseline_inputs(args)
    est = nw_fit(sample.x, labels, bandwidth=args.bandwidth)
    _write_json({"value": nw_prob(est, coords), "estimator": "nw",
                 "bandwidth": est.bandwidth}, args.out)


def _cmd_baseline_glm(args) -> None:
    truncation = TruncationRule.fixed(args.components)
    sample, labels, coords = _baseline_inputs(args)
    model = fglm_fit(sample.x, labels, fit(sample, truncation), link=args.link)
    _write_json({"value": fglm_prob(model, coords), "estimator": "glm", "link": args.link,
                 "converged": model.converged, "separation": model.separation}, args.out)


def build_parser() -> argparse.ArgumentParser:
    """Each subcommand declares only the options its handler reads; shared
    declarations live in parent parsers."""
    parser = argparse.ArgumentParser(
        prog="curveprob",
        description="Conditional event probabilities for curve-valued responses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def options(*parents):
        return argparse.ArgumentParser(add_help=False, parents=list(parents))

    def command(name, fn, parents, help, under=sub):
        p = under.add_parser(name, parents=parents, help=help)
        p.set_defaults(fn=fn)
        return p

    out = options()
    out.add_argument("--out", default=None)
    drawn = options(out)  # the commands that draw Monte-Carlo ensembles
    drawn.add_argument("--seed", type=int, default=0)
    drawn.add_argument("--mc", type=int, default=2000)
    covariate = options()  # the covariate curves file
    covariate.add_argument("--x", required=True)
    query = options(drawn, covariate)
    query.add_argument("--model", required=True)
    query.add_argument("--x-scalars", default=None, dest="x_scalars")
    query.add_argument("--method", default="boot", choices=["boot", "gauss"])
    experiment = options(drawn)  # the drivers that simulate their own series
    experiment.add_argument("--n", type=int, required=True)
    experiment.add_argument("--grid-d", type=int, default=100, dest="grid_d")
    oracle = options(experiment)
    oracle.add_argument("--dgp", default="far_synthetic")
    oracle.add_argument("--predictors", type=int, default=50)
    oracle.add_argument("--reps", type=int, default=100)
    oracle.add_argument("--oracle-size", type=int, default=10000, dest="oracle_size")

    p = command("simulate", _cmd_simulate, [out], "simulate a curve series")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--grid-d", type=int, default=100, dest="grid_d")
    p.add_argument("--dgp", default="far_paparoditis",
                   choices=["far_paparoditis", "far_synthetic", "brownian"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--b", type=float, default=0.0)
    p.add_argument("--burn-in", type=int, default=None, dest="burn_in",
                   help="curves dropped before the series (default: the process's own)")

    p = command("fit", _cmd_fit, [out], "fit the lagged regression to a series")
    p.add_argument("--series", required=True)
    p.add_argument("--ar-order", type=int, default=1, dest="ar_order")
    p.add_argument("--exog", nargs="*", default=None)
    p.add_argument("--truncation", default="threshold:auto")
    p.add_argument("--no-center", action="store_true", dest="no_center")
    p.add_argument("--dof-correction", action="store_true", dest="dof_correction")

    p = command("estimate", _cmd_estimate, [query], "conditional probability of an event")
    p.add_argument("--event", required=True)

    p = command("quantile", _cmd_quantile, [query], "quantile over a monotone event family")
    p.add_argument("--family", required=True)
    p.add_argument("--p", type=float, required=True)

    p = command("band", _cmd_band, [query], "calibrated uniform prediction band")
    p.add_argument("--nominal", type=float, default=0.95)

    p = command("coverage-exp", _cmd_coverage, [experiment], "band coverage experiment")
    p.add_argument("--b", type=float, default=0.0)
    p.add_argument("--nominal", type=float, default=0.95)
    p.add_argument("--method", default="both", choices=["boot", "gauss", "both"])
    p.add_argument("--reps", type=int, default=500)
    p.add_argument("--pve", type=float, default=0.85)

    p = command("rmse-exp", _cmd_rmse, [oracle], "probability RMSE experiment")
    p.add_argument("--event", default="level:alpha=7.0710678118654755,z=0.5")
    p.add_argument("--methods", default="boot,gauss")

    p = command("quantile-exp", _cmd_quantile_exp, [oracle], "extreme-quantile RMSE experiment")
    p.add_argument("--z", type=float, default=0.5)
    p.add_argument("--search-lo", type=float, default=0.0, dest="search_lo")
    p.add_argument("--search-hi", type=float, default=30.0, dest="search_hi")

    p = command("entropy-eval", _cmd_entropy, [drawn], "cross-entropy pipeline on daily curves")
    p.add_argument("--response", required=True)
    p.add_argument("--exog", nargs="*", default=None,
                   help="exogenous series as path[:no-weekly]")
    p.add_argument("--doy", required=True)
    p.add_argument("--dow", default=None)
    p.add_argument("--ar-order", type=int, default=7, dest="ar_order")
    p.add_argument("--pve", type=float, default=0.98)
    p.add_argument("--alphas", default="30,40,50,60,70")
    p.add_argument("--zs", default="0.0,0.16666666666666666,0.3333333333333333,0.5")
    p.add_argument("--test-fraction", type=float, default=1.0 / 3, dest="test_fraction")
    p.add_argument("--methods", default="boot,glm,nw")

    p = command("deseasonalize", _cmd_deseasonalize, [out], "remove yearly/weekly components")
    p.add_argument("--series", required=True)
    p.add_argument("--doy", required=True)
    p.add_argument("--dow", default=None)
    p.add_argument("--window", type=int, default=21)
    p.add_argument("--no-weekly", action="store_true", dest="no_weekly")

    baseline = options(out, covariate)
    baseline.add_argument("--train-series", required=True, dest="train_series")
    baseline.add_argument("--ar-order", type=int, default=1, dest="ar_order")
    baseline.add_argument("--event", required=True)
    estimators = sub.add_parser("baseline", help="kernel / binomial-regression baselines"
                                ).add_subparsers(dest="estimator", required=True)
    p = command("nw", _cmd_baseline_nw, [baseline], "kernel baseline", estimators)
    p.add_argument("--bandwidth", type=float, default=None)
    p = command("glm", _cmd_baseline_glm, [baseline], "binomial-regression baseline",
                estimators)
    p.add_argument("--components", type=int, default=3)
    p.add_argument("--link", default="logit", choices=["logit", "probit"])

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.fn(args)
    except (UsageError, StructureError, OSError, MemoryError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except RangeExhaustedError as exc:
        sys.stderr.write(f"range exhausted: {exc}; "
                         f"boundary_estimate={exc.boundary_estimate}\n")
        return 3
    except DegenerateInputError as exc:
        sys.stderr.write(f"degenerate input: {exc}\n")
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
