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
import sys
from dataclasses import replace
from pathlib import Path

from ..baselines import fglm_fit, fglm_prob, nw_fit, nw_prob
from ..conddist import (
    boot_prob,
    calibrate_uniform_band,
    gauss_prob,
    quantile_over_family,
)
from ..curves import Covariate, Grid
from ..errors import DegenerateInputError, RangeExhaustedError, StructureError, UsageError
from ..events import contains_batch, family_level_in_alpha, family_level_in_z, family_max_below, parse_event
from ..flm import TruncationRule, build_far_design, fit, from_json, to_json
from . import io
from .dgp import paparoditis_dgp, simulate_brownian, simulate_far, synthetic_dgp
from .experiments import (
    run_coverage_experiment,
    run_entropy_eval,
    run_rmse_experiment,
    run_var_experiment,
)
from .seasonal import deseasonalize


def _parse_floats(text: str, option: str) -> tuple:
    """Comma-separated numbers of a command-line option."""
    try:
        return tuple(float(s) for s in text.split(","))
    except ValueError as exc:
        raise UsageError(f"{option}: {exc}") from None


def _load_covariate(args) -> Covariate:
    parts = tuple(io.load_curves(args.x))
    scalars = _parse_floats(args.x_scalars, "--x-scalars") if args.x_scalars else ()
    if not parts and not scalars:
        raise UsageError(f"covariate file {args.x} holds no curves and no scalars given")
    return Covariate(parts, scalars)


def _parse_family(text: str):
    """Family specs: 'level-alpha:z=0.5,lo=0,hi=25', 'level-z:alpha=50',
    'max-below:lo=-5,hi=5'."""
    kind, _, rest = text.partition(":")
    params = {}
    for piece in filter(None, (p.strip() for p in rest.split(","))):
        key, eq, value = piece.partition("=")
        if not eq:
            raise UsageError(f"bad family parameter {piece!r}")
        try:
            params[key.strip()] = float(value)
        except ValueError as exc:
            raise UsageError(f"family parameter {key.strip()!r}: {exc}") from None
    kind = kind.strip().lower()
    try:
        if kind == "level-alpha":
            return family_level_in_alpha(params["z"], params["lo"], params["hi"])
        if kind == "level-z":
            return family_level_in_z(params["alpha"],
                                     params.get("lo", 0.0), params.get("hi", 1.0))
        if kind == "max-below":
            return family_max_below(params["lo"], params["hi"])
    except KeyError as exc:
        raise UsageError(f"family {kind!r} needs parameter {exc}") from None
    raise UsageError(f"unknown family kind {kind!r}")


def _write_json(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cmd_simulate(args) -> None:
    grid = Grid(args.grid_d)
    if args.dgp != "far_paparoditis" and args.b != 0.0:
        raise UsageError(f"--b (second-lag weight) applies to far_paparoditis only, not {args.dgp}")
    if args.dgp == "brownian":
        if args.burn_in is not None:
            raise UsageError("--burn-in does not apply to independent brownian paths")
        curves = [simulate_brownian(grid, seed=args.seed + i) for i in range(args.n)]
    else:
        if args.dgp == "far_paparoditis":
            spec = paparoditis_dgp(grid, b=args.b, seed=args.seed)
        elif args.dgp == "far_synthetic":
            spec = synthetic_dgp(grid, seed=args.seed)
        else:
            raise UsageError(f"unknown DGP {args.dgp!r}")
        if args.burn_in is not None:
            spec = replace(spec, burn_in=args.burn_in)
        curves = simulate_far(spec, args.n)
    io.save_curves(curves, args.out or "series.csv")


def _cmd_fit(args) -> None:
    series = io.load_curves(args.series)
    exog = [io.load_curves(p) for p in args.exog or ()]
    sample, _ = build_far_design(series, args.ar_order, exog)
    model = fit(sample, TruncationRule.parse(args.truncation),
                center=not args.no_center, dof_correction=args.dof_correction)
    Path(args.out or "model.json").write_text(to_json(model), encoding="utf-8")


def _cmd_estimate(args) -> None:
    model = from_json(Path(args.model).read_text(encoding="utf-8"))
    x = _load_covariate(args)
    event = parse_event(args.event, load_curve=io.load_single_curve)
    if args.method == "boot":
        est = boot_prob(model, x, event)
    else:
        est = gauss_prob(model, x, event, mc_size=args.mc, seed=args.seed)
    _write_json({"value": est.value, "method": est.method, "n_used": est.n_used,
                 "count": est.count, "seed": est.seed, "status": est.status}, args.out)


def _cmd_quantile(args) -> None:
    model = from_json(Path(args.model).read_text(encoding="utf-8"))
    x = _load_covariate(args)
    family = _parse_family(args.family)
    xi = quantile_over_family(model, x, family, args.p, method=args.method,
                              mc_size=args.mc, seed=args.seed)
    _write_json({"quantile": xi, "p": args.p, "method": args.method,
                 "seed": args.seed}, args.out)


def _cmd_band(args) -> None:
    model = from_json(Path(args.model).read_text(encoding="utf-8"))
    x = _load_covariate(args)
    cal, band = calibrate_uniform_band(model, x, args.nominal, method=args.method,
                                       mc_size=args.mc, seed=args.seed,
                                       literal_abs=args.literal_abs)
    out = args.out or "band.csv"
    floor = band.center - band.lower
    ceil = band.center + band.upper
    io.save_curves([band.center, floor, ceil], out)
    _write_json({"lower_quantile": cal.lower_quantile,
                 "upper_quantile": cal.upper_quantile,
                 "nominal": cal.nominal, "method": cal.method,
                 "band_csv": out}, None)


def _cmd_coverage(args) -> None:
    report = run_coverage_experiment(
        n=args.n, b=args.b, nominal=args.nominal, method=args.method,
        reps=args.reps, seed=args.seed, grid_d=args.grid_d, pve=args.pve,
        mc_size=args.mc)
    io.save_report(report, args.out or "coverage.csv")
    sys.stderr.write(f"coverage experiment finished in {report.runtime_seconds:.1f}s\n")


def _cmd_rmse(args) -> None:
    event = parse_event(args.event, load_curve=io.load_single_curve)
    if args.target == "prob":
        report = run_rmse_experiment(
            dgp=args.dgp, n=args.n, n_predictors=args.predictors, event=event,
            methods=args.methods, reps=args.reps, seed=args.seed,
            grid_d=args.grid_d, oracle_size=args.oracle_size, mc_size=args.mc)
    else:
        report = run_var_experiment(
            dgp=args.dgp, n=args.n, n_predictors=args.predictors,
            reps=args.reps, seed=args.seed, z=args.z,
            search_lo=args.search_lo, search_hi=args.search_hi,
            grid_d=args.grid_d, oracle_size=args.oracle_size, mc_size=args.mc)
    io.save_report(report, args.out or "rmse.csv")
    sys.stderr.write(f"rmse experiment finished in {report.runtime_seconds:.1f}s\n")


def _cmd_entropy(args) -> None:
    response = io.load_curves(args.response)
    doy = io.load_index(args.doy)
    dow = io.load_index(args.dow) if args.dow else None
    exog = []
    for spec_text in args.exog or []:
        path, _, flag = spec_text.partition(":")
        if flag not in ("", "no-weekly"):
            raise UsageError(f"--exog {spec_text!r}: the only flag is 'no-weekly'")
        exog.append((io.load_curves(path), flag != "no-weekly"))
    report = run_entropy_eval(
        response, exog, day_of_year=doy, day_of_week=dow,
        ar_order=args.ar_order, pve=args.pve,
        alphas=_parse_floats(args.alphas, "--alphas"),
        zs=_parse_floats(args.zs, "--zs"),
        test_fraction=args.test_fraction, methods=args.methods,
        seed=args.seed, mc_size=args.mc)
    io.save_report(report, args.out or "entropy.csv")
    sys.stderr.write(f"entropy evaluation finished in {report.runtime_seconds:.1f}s\n")


def _cmd_deseasonalize(args) -> None:
    series = io.load_curves(args.series)
    doy = io.load_index(args.doy)
    dow = io.load_index(args.dow) if args.dow else None
    result = deseasonalize(series, doy, dow, window=args.window,
                           weekly=not args.no_weekly)
    io.save_curves(result.adjusted, args.out or "adjusted.csv")


def _cmd_baseline(args) -> None:
    series = io.load_curves(args.train_series)
    sample, _ = build_far_design(series, args.ar_order)
    event = parse_event(args.event, load_curve=io.load_single_curve)
    labels = contains_batch(event, sample.y, sample.grid).astype(float)
    x = _load_covariate(args)
    if x.structure() != sample.structure:
        raise StructureError(f"covariate structure {x.structure()} does not match "
                             f"the training design {sample.structure}")
    if args.estimator == "nw":
        est = nw_fit(sample.x, labels, bandwidth=args.bandwidth)
        value = nw_prob(est, x.coords())
        payload = {"value": value, "estimator": "nw", "bandwidth": est.bandwidth}
    else:
        regression = fit(sample, TruncationRule.fixed(args.components))
        model = fglm_fit(sample.x, labels, regression, link=args.link)
        value = fglm_prob(model, x.coords())
        payload = {"value": value, "estimator": "glm", "link": args.link,
                   "converged": model.converged, "separation": model.separation}
    _write_json(payload, args.out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curveprob",
        description="Conditional event probabilities for curve-valued responses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--grid-d", type=int, default=100, dest="grid_d")
        p.add_argument("--out", default=None)

    p = sub.add_parser("simulate", help="simulate a curve series")
    common(p)
    p.add_argument("--dgp", default="far_paparoditis",
                   choices=["far_paparoditis", "far_synthetic", "brownian"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--b", type=float, default=0.0)
    p.add_argument("--burn-in", type=int, default=None, dest="burn_in",
                   help="curves dropped before the series (default: the process's own)")
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("fit", help="fit the lagged regression to a series")
    common(p)
    p.add_argument("--series", required=True)
    p.add_argument("--ar-order", type=int, default=1, dest="ar_order")
    p.add_argument("--exog", nargs="*", default=None)
    p.add_argument("--truncation", default="threshold:auto")
    p.add_argument("--no-center", action="store_true", dest="no_center")
    p.add_argument("--dof-correction", action="store_true", dest="dof_correction")
    p.set_defaults(fn=_cmd_fit)

    p = sub.add_parser("estimate", help="conditional probability of an event")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--x-scalars", default=None, dest="x_scalars")
    p.add_argument("--event", required=True)
    p.add_argument("--method", default="boot", choices=["boot", "gauss"])
    p.add_argument("--mc", type=int, default=2000)
    p.set_defaults(fn=_cmd_estimate)

    p = sub.add_parser("quantile", help="quantile over a monotone event family")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--x-scalars", default=None, dest="x_scalars")
    p.add_argument("--family", required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--method", default="boot", choices=["boot", "gauss"])
    p.add_argument("--mc", type=int, default=2000)
    p.set_defaults(fn=_cmd_quantile)

    p = sub.add_parser("band", help="calibrated uniform prediction band")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--x-scalars", default=None, dest="x_scalars")
    p.add_argument("--nominal", type=float, default=0.95)
    p.add_argument("--method", default="boot", choices=["boot", "gauss"])
    p.add_argument("--mc", type=int, default=2000)
    p.add_argument("--literal-abs", action="store_true", dest="literal_abs")
    p.set_defaults(fn=_cmd_band)

    p = sub.add_parser("coverage-exp", help="band coverage experiment")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--b", type=float, default=0.0)
    p.add_argument("--nominal", type=float, default=0.95)
    p.add_argument("--method", default="both", choices=["boot", "gauss", "both"])
    p.add_argument("--reps", type=int, default=500)
    p.add_argument("--pve", type=float, default=0.85)
    p.add_argument("--mc", type=int, default=2000)
    p.set_defaults(fn=_cmd_coverage)

    p = sub.add_parser("rmse-exp", help="probability / quantile RMSE experiment")
    common(p)
    p.add_argument("--dgp", default="far_synthetic")
    p.add_argument("--target", default="prob", choices=["prob", "quantile"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--predictors", type=int, default=50)
    p.add_argument("--event", default="level:alpha=7.0710678118654755,z=0.5")
    p.add_argument("--methods", default="boot,gauss")
    p.add_argument("--reps", type=int, default=100)
    p.add_argument("--z", type=float, default=0.5)
    p.add_argument("--search-lo", type=float, default=0.0, dest="search_lo")
    p.add_argument("--search-hi", type=float, default=30.0, dest="search_hi")
    p.add_argument("--oracle-size", type=int, default=10000, dest="oracle_size")
    p.add_argument("--mc", type=int, default=2000)
    p.set_defaults(fn=_cmd_rmse)

    p = sub.add_parser("entropy-eval", help="cross-entropy pipeline on daily curves")
    common(p)
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
    p.add_argument("--mc", type=int, default=2000)
    p.set_defaults(fn=_cmd_entropy)

    p = sub.add_parser("deseasonalize", help="remove yearly/weekly components")
    common(p)
    p.add_argument("--series", required=True)
    p.add_argument("--doy", required=True)
    p.add_argument("--dow", default=None)
    p.add_argument("--window", type=int, default=21)
    p.add_argument("--no-weekly", action="store_true", dest="no_weekly")
    p.set_defaults(fn=_cmd_deseasonalize)

    p = sub.add_parser("baseline", help="kernel / binomial-regression baselines")
    common(p)
    p.add_argument("estimator", choices=["nw", "glm"])
    p.add_argument("--train-series", required=True, dest="train_series")
    p.add_argument("--ar-order", type=int, default=1, dest="ar_order")
    p.add_argument("--x", required=True)
    p.add_argument("--x-scalars", default=None, dest="x_scalars")
    p.add_argument("--event", required=True)
    p.add_argument("--bandwidth", type=float, default=None)
    p.add_argument("--components", type=int, default=3)
    p.add_argument("--link", default="logit", choices=["logit", "probit"])
    p.set_defaults(fn=_cmd_baseline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.fn(args)
    except (UsageError, StructureError, json.JSONDecodeError, OSError) as exc:
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
