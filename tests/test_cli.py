import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import curveprob
from curveprob.curves import Covariate, Curve, Grid
from curveprob.flm import RegressionSample, TruncationRule, fit, to_json
from curveprob.harness.cli import main
from curveprob.harness.dgp import simulate_far, synthetic_dgp
from curveprob.harness.experiments import run_var_experiment
from curveprob.harness.io import load_curves, save_curves, save_report

from model_doc import set_cell


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def series_csv(tmp_path):
    path = tmp_path / "series.csv"
    assert run("simulate", "--dgp", "far_paparoditis", "--n", 40, "--grid-d", 20,
               "--seed", 3, "--out", path) == 0
    return path


@pytest.fixture
def model_json(tmp_path, series_csv):
    path = tmp_path / "model.json"
    assert run("fit", "--series", series_csv, "--ar-order", 1,
               "--truncation", "pve:0.85", "--out", path) == 0
    return path


@pytest.fixture
def x_csv(tmp_path, series_csv):
    path = tmp_path / "x.csv"
    save_curves(load_curves(series_csv)[-1:], path)
    return path


class TestWorkflow:
    def test_fit_writes_versioned_model(self, model_json):
        doc = json.loads(model_json.read_text())
        assert doc["format"] == "curveprob-flm"
        assert doc["version"] == 5

    def test_estimate_boot_and_gauss(self, tmp_path, model_json, x_csv):
        out = tmp_path / "est.json"
        assert run("estimate", "--model", model_json, "--x", x_csv,
                   "--event", "level:alpha=0.5,z=0.5", "--method", "boot",
                   "--out", out) == 0
        boot = json.loads(out.read_text())
        assert 0.0 <= boot["value"] <= 1.0 and boot["method"] == "boot"

        assert run("estimate", "--model", model_json, "--x", x_csv,
                   "--event", "level:alpha=0.5,z=0.5", "--method", "gauss",
                   "--mc", 500, "--seed", 11, "--out", out) == 0
        gauss = json.loads(out.read_text())
        assert gauss["n_used"] == 500 and gauss["status"] == "ok"

    def test_quantile(self, tmp_path, model_json, x_csv):
        out = tmp_path / "q.json"
        assert run("quantile", "--model", model_json, "--x", x_csv,
                   "--family", "max-below:lo=-5,hi=5", "--p", 0.5,
                   "--method", "boot", "--out", out) == 0
        doc = json.loads(out.read_text())
        assert -5.0 <= doc["quantile"] <= 5.0

    @pytest.mark.parametrize("method", ["boot", "gauss"])
    def test_band(self, tmp_path, model_json, x_csv, capsys, method):
        out = tmp_path / "band.csv"
        assert run("band", "--model", model_json, "--x", x_csv,
                   "--nominal", 0.9, "--method", method, "--out", out) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["lower_quantile"] <= payload["upper_quantile"]
        center, floor, ceil = load_curves(out)
        assert np.all(floor <= center) and np.all(center <= ceil)

    def test_baseline_commands(self, tmp_path, series_csv, x_csv):
        out = tmp_path / "b.json"
        assert run("baseline", "nw", "--train-series", series_csv, "--x", x_csv,
                   "--event", "extremal:d=0.0", "--bandwidth", 1.0, "--out", out) == 0
        assert 0.0 <= json.loads(out.read_text())["value"] <= 1.0
        assert run("baseline", "glm", "--train-series", series_csv, "--x", x_csv,
                   "--event", "extremal:d=0.0", "--components", 2, "--out", out) == 0
        assert 0.0 < json.loads(out.read_text())["value"] < 1.0

    def test_covariate_with_a_scalar_part(self, tmp_path, series_csv, x_csv):
        values = load_curves(series_csv)
        series = [Curve(Grid(values.shape[1] - 1), row) for row in values]
        scalars = np.random.default_rng(4).normal(size=len(series) - 1)
        sample = RegressionSample.from_pairs(
            series[1:], [Covariate((c,), (s,)) for c, s in zip(series[:-1], scalars)])
        model = tmp_path / "scalar_model.json"
        model.write_text(to_json(fit(sample, TruncationRule.pve(0.85))))
        given = ("--model", model, "--x", x_csv, "--x-scalars", 0.5)
        assert run("estimate", *given, "--event", "extremal:d=0") == 0
        assert run("quantile", *given, "--family", "max-below:lo=-5,hi=5", "--p", 0.5) == 0
        assert run("band", *given, "--out", tmp_path / "band.csv") == 0
        assert run("estimate", "--model", model, "--x", x_csv, "--event", "extremal:d=0") == 2

    def test_deseasonalize_runs(self, tmp_path):
        g = Grid(8)
        n = 42
        series = [Curve.constant(g, 5.0 + (k % 7)) for k in range(n)]
        series_path = tmp_path / "daily.csv"
        save_curves(series, series_path)
        (tmp_path / "doy.csv").write_text("\n".join(str(k) for k in range(n)))
        (tmp_path / "dow.csv").write_text("\n".join(str(k % 7) for k in range(n)))
        out = tmp_path / "adj.csv"
        assert run("deseasonalize", "--series", series_path,
                   "--doy", tmp_path / "doy.csv", "--dow", tmp_path / "dow.csv",
                   "--out", out) == 0
        for row in load_curves(out):
            assert np.max(np.abs(row)) <= 1e-8


class TestExperimentCommands:
    def test_coverage_exp_writes_csv(self, tmp_path):
        out = tmp_path / "cov.csv"
        assert run("coverage-exp", "--n", 30, "--reps", 5, "--grid-d", 20,
                   "--mc", 200, "--seed", 5, "--out", out) == 0
        text = out.read_text()
        assert "# kind=coverage" in text
        assert "boot" in text and "gauss" in text

    def test_rmse_exp_json(self, tmp_path):
        out = tmp_path / "rmse.json"
        assert run("rmse-exp", "--n", 30, "--predictors", 3, "--reps", 3,
                   "--grid-d", 20, "--oracle-size", 300, "--mc", 200,
                   "--methods", "boot", "--seed", 2, "--out", out) == 0
        doc = json.loads(out.read_text())
        assert doc["kind"] == "rmse"
        assert "median_rmse_boot" in doc["summary"]

    def test_entropy_eval_runs(self, tmp_path, entropy_inputs):
        out = tmp_path / "entropy.csv"
        assert run("entropy-eval", *entropy_inputs, "--methods", "boot,glm,nw",
                   "--out", out) == 0
        lines = [ln for ln in out.read_text().splitlines() if ln and not ln.startswith("#")]
        assert len(lines) == 1 + 2 * 2 * 3  # header + alphas x zs x methods

    def test_quantile_exp_writes_the_driver_report(self, tmp_path):
        out, want = tmp_path / "quantile.csv", tmp_path / "want.csv"
        assert run("quantile-exp", "--n", 30, "--predictors", 2, "--reps", 2, "--grid-d", 16,
                   "--oracle-size", 100, "--mc", 100, "--seed", 4, "--search-hi", 8,
                   "--out", out) == 0
        save_report(run_var_experiment(n=30, n_predictors=2, reps=2, seed=4, grid_d=16,
                                       oracle_size=100, mc_size=100, search_hi=8.0), want)
        assert out.read_bytes() == want.read_bytes()

    def test_rmse_exp_glm_with_a_single_class_replicate(self, tmp_path):
        # no curve of any replicate exceeds 50, so no binomial regression fits;
        # the baseline then predicts the training-label mean
        assert run("rmse-exp", "--n", 30, "--grid-d", 16, "--predictors", 2, "--reps", 3,
                   "--methods", "boot,glm", "--event", "extremal:d=50",
                   "--out", tmp_path / "rmse.csv") == 0


@pytest.fixture
def entropy_inputs(tmp_path):
    """Arguments of a small entropy-eval run: 90 days of a seasonal response
    on 8 points with one exogenous series, two alphas and two z values."""
    grid = Grid(8)
    rng = np.random.default_rng(4)
    n = 90
    base = 50.0 + 8.0 * np.sin(2 * np.pi * np.arange(n) / 30)
    series = [Curve(grid, b + 4.0 * rng.normal(size=grid.size)) for b in base]
    wind = [Curve(grid, rng.normal(size=grid.size)) for _ in range(n)]
    series_path = tmp_path / "price.csv"
    wind_path = tmp_path / "wind.csv"
    save_curves(series, series_path)
    save_curves(wind, wind_path)
    (tmp_path / "doy.csv").write_text("\n".join(str(k) for k in range(n)))
    (tmp_path / "dow.csv").write_text("\n".join(str(k % 7) for k in range(n)))
    return ["--response", series_path, "--exog", f"{wind_path}:no-weekly",
            "--doy", tmp_path / "doy.csv", "--dow", tmp_path / "dow.csv",
            "--ar-order", 2, "--alphas", "45,55", "--zs", "0.25,0.5",
            "--mc", 200, "--seed", 9]


class TestDeterminism:
    def test_coverage_exp_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run("coverage-exp", "--n", 25, "--reps", 4, "--grid-d", 16,
                       "--mc", 100, "--seed", 77, "--out", out) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_entropy_eval_rerun_is_byte_identical(self, tmp_path, entropy_inputs):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run("entropy-eval", *entropy_inputs, "--methods", "boot,gauss,glm,nw",
                       "--out", out) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_simulate_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run("simulate", "--dgp", "far_synthetic", "--n", 12,
                       "--grid-d", 16, "--seed", 123, "--out", out) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_fit_rerun_is_byte_identical(self, tmp_path, series_csv):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert run("fit", "--series", series_csv, "--ar-order", 2, "--out", out) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_far_synthetic_burn_in(self, tmp_path):
        grid_d, n, seed = 16, 12, 5
        outputs = {}
        for burn_in in (None, 0, 200):
            out = tmp_path / f"burn_in_{burn_in}.csv"
            option = () if burn_in is None else ("--burn-in", burn_in)
            assert run("simulate", "--dgp", "far_synthetic", "--n", n, "--grid-d", grid_d,
                       "--seed", seed, "--out", out, *option) == 0
            outputs[burn_in] = out.read_bytes()
        reference = tmp_path / "reference.csv"
        save_curves(simulate_far(synthetic_dgp(Grid(grid_d)), n, seed=seed), reference)
        assert outputs[None] == reference.read_bytes()
        assert outputs[0] != outputs[None] and outputs[200] != outputs[None]


class TestSeriesStayMatrices:
    """The commands read, write and pass curve series as value matrices: a
    Curve is built only for a covariate's parts and a band's members."""

    @staticmethod
    def count_curves(monkeypatch) -> list:
        calls = []
        original = Curve.__post_init__
        monkeypatch.setattr(Curve, "__post_init__",
                            lambda self: calls.append(1) or original(self))
        return calls

    @pytest.mark.parametrize("dgp", ["far_paparoditis", "far_synthetic", "brownian"])
    def test_simulate(self, monkeypatch, tmp_path, dgp):
        calls = self.count_curves(monkeypatch)
        assert run("simulate", "--dgp", dgp, "--n", 30, "--grid-d", 8,
                   "--out", tmp_path / "sim.csv") == 0
        assert calls == []

    def test_fit_with_an_exogenous_series(self, monkeypatch, tmp_path, series_csv):
        exog = tmp_path / "exog.csv"
        assert run("simulate", "--n", 40, "--grid-d", 20, "--seed", 4, "--out", exog) == 0
        calls = self.count_curves(monkeypatch)
        assert run("fit", "--series", series_csv, "--exog", exog,
                   "--out", tmp_path / "model.json") == 0
        assert calls == []

    def test_deseasonalize_and_entropy_eval(self, monkeypatch, tmp_path, entropy_inputs):
        given = dict(zip(entropy_inputs[::2], entropy_inputs[1::2]))
        calls = self.count_curves(monkeypatch)
        assert run("deseasonalize", "--series", given["--response"], "--doy", given["--doy"],
                   "--dow", given["--dow"], "--out", tmp_path / "adjusted.csv") == 0
        assert run("entropy-eval", *entropy_inputs, "--methods", "boot,gauss,glm,nw",
                   "--out", tmp_path / "entropy.csv") == 0
        assert calls == []

    def test_band_builds_the_covariate_parts_and_its_members(self, monkeypatch, tmp_path,
                                                             model_json, x_csv):
        calls = self.count_curves(monkeypatch)
        assert run("band", "--model", model_json, "--x", x_csv, "--mc", 50,
                   "--out", tmp_path / "band.csv") == 0
        # the center, sigma and the two offsets
        assert len(calls) == len(load_curves(x_csv)) + 4


class TestExitCodes:
    def test_usage_error_is_2(self, tmp_path, model_json, x_csv):
        assert run("estimate", "--model", model_json, "--x", x_csv,
                   "--event", "bogus:alpha=1", "--method", "boot") == 2

    def test_degenerate_input_is_3(self, tmp_path):
        g = Grid(8)
        flat = [Curve.constant(g, 1.0) for _ in range(10)]
        path = tmp_path / "flat.csv"
        save_curves(flat, path)
        assert run("fit", "--series", path, "--truncation", "pve:0.85",
                   "--out", tmp_path / "m.json") == 3

    def test_missing_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run()
        assert exc.value.code == 2


@pytest.fixture
def broken_inputs(tmp_path, model_json, x_csv):
    wrong_grid = tmp_path / "wrong_grid.csv"
    save_curves([Curve.constant(Grid(10), 0.0)], wrong_grid)
    header, row = x_csv.read_text().splitlines()
    nan_cell = tmp_path / "nan_cell.csv"
    nan_cell.write_text(f"{header}\nnan,{row.split(',', 1)[1]}\n")
    truncated = tmp_path / "truncated.json"
    truncated.write_text(model_json.read_text()[:1000])
    series = tmp_path / "series.csv"
    points, body = series.read_text().split("\n", 1)
    size = len(points.split(","))
    letters = tmp_path / "letters.csv"
    letters.write_text(",".join("abcdefghijklmnopqrstuvwxyz"[:size]) + "\n" + body)
    squared = tmp_path / "squared.csv"
    squared.write_text(",".join(repr(float(t) ** 2) for t in Grid(size - 1).points)
                       + "\n" + body)
    n_days = len(body.splitlines())
    doy = tmp_path / "doy.csv"
    doy.write_text("\n".join(str(k) for k in range(n_days)))
    dow = tmp_path / "dow.csv"
    dow.write_text("\n".join(str(k % 7) for k in range(n_days)))
    nan_model = tmp_path / "nan_model.json"
    nan_model.write_text(set_cell(model_json.read_text(), "factor", 0, np.nan))
    negative_model = tmp_path / "negative_model.json"
    negative_model.write_text(set_cell(model_json.read_text(), "covariate_eigenvalues", 0, -1.0))
    mistyped_rule = tmp_path / "mistyped_rule.json"
    doc = json.loads(model_json.read_text())
    doc["truncation"]["relative"] = "false"
    mistyped_rule.write_text(json.dumps(doc))
    overflowing_model = tmp_path / "overflowing_model.json"
    overflowing_model.write_text(set_cell(model_json.read_text(), "residual_matrix", 0, 1e308))
    huge_models = {}
    for field in ("grid_d", "n_curve_parts", "n_components"):
        doc = json.loads(model_json.read_text())
        doc[field] = "HUGE"  # json.dumps cannot write 1e400 itself
        huge_models[f"huge_{field}"] = tmp_path / f"huge_{field}.json"
        huge_models[f"huge_{field}"].write_text(json.dumps(doc).replace('"HUGE"', "1e400"))
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    # products of these values overflow: x.T @ x holds inf
    huge = tmp_path / "huge.csv"
    save_curves(1e200 * load_curves(series), huge)
    # finite values whose seasonal means overflow
    overflow = tmp_path / "overflow.csv"
    save_curves([Curve.constant(Grid(size - 1), 1e308)] * n_days, overflow)
    labels = {}
    for name, label in (("late_doy", "1000"), ("long_doy", "9" * 20)):
        labels[name] = tmp_path / f"{name}.csv"
        labels[name].write_text("\n".join([label] + [str(k) for k in range(1, n_days)]))
    # a file whose first byte is not UTF-8, and model files that are not JSON
    # Python can parse: a version past its integer digit limit, and arrays
    # nested deeper than its recursion limit
    latin1 = tmp_path / "latin1.csv"
    latin1.write_bytes(b"\xff" + series.read_bytes())
    long_version = tmp_path / "long_version.json"
    doc = json.loads(model_json.read_text())
    doc["version"] = "LONG"
    long_version.write_text(json.dumps(doc).replace('"LONG"', "9" * 5000))
    deep_model = tmp_path / "deep_model.json"
    deep_model.write_text("[" * 200_000 + "]" * 200_000)
    return {"model": model_json, "x": x_csv, "wrong_grid": wrong_grid,
            "latin1": latin1, "long_version": long_version, "deep_model": deep_model,
            "nan_cell": nan_cell, "truncated": truncated, "series": series,
            "letters": letters, "squared": squared, "doy": doy, "dow": dow,
            "nan_model": nan_model, "negative_model": negative_model,
            "mistyped_rule": mistyped_rule,
            "overflowing_model": overflowing_model,
            "missing": tmp_path / "missing.csv", "empty": empty, "huge": huge,
            "overflow": overflow, **huge_models, **labels}


# a small rmse-exp run, so that a missing check fails fast
RMSE_SMALL = ["--n", "30", "--grid-d", "16", "--predictors", "2", "--reps", "2",
              "--oracle-size", "100", "--mc", "100", "--out", "{missing}"]

# (case, argv with {file} placeholders, exit code, text stderr must hold)
EXIT_CASES = [
    ("covariate on the wrong grid",
     ["estimate", "--model", "{model}", "--x", "{wrong_grid}", "--event", "extremal:d=0"],
     2, "does not match model"),
    ("nan cell",
     ["estimate", "--model", "{model}", "--x", "{nan_cell}", "--event", "extremal:d=0"],
     2, "finite"),
    ("quantile range never reached",
     ["quantile", "--model", "{model}", "--x", "{x}", "--family", "max-below:lo=-50,hi=-49",
      "--p", "0.5"],
     3, "boundary_estimate=0.0"),
    ("family missing a parameter",
     ["quantile", "--model", "{model}", "--x", "{x}", "--family", "level-alpha:lo=0,hi=25",
      "--p", "0.5"],
     2, "needs parameter 'z'"),
    ("truncation rule that is not a number",
     ["fit", "--series", "{series}", "--truncation", "pve:abc", "--out", "{missing}"],
     2, "pve:abc"),
    ("truncated model file",
     ["estimate", "--model", "{truncated}", "--x", "{x}", "--event", "extremal:d=0"],
     2, "error:"),
    ("missing file",
     ["fit", "--series", "{missing}"],
     2, "missing.csv"),
    ("header that is not numeric",
     ["fit", "--series", "{letters}", "--out", "{missing}"],
     2, "non-numeric cell 'a' (row 1, column 1)"),
    ("header off the uniform grid",
     ["fit", "--series", "{squared}", "--out", "{missing}"],
     2, "(row 1, column 2)"),
    ("time budget that is not a number",
     ["entropy-eval", "--response", "{series}", "--doy", "{doy}", "--dow", "{dow}",
      "--zs", "a", "--out", "{missing}"],
     2, "--zs:"),
    ("second-lag weight for a first-order process",
     ["simulate", "--dgp", "far_synthetic", "--n", "5", "--b", "0.4", "--out", "{missing}"],
     2, "--b"),
    ("burn-in for independent paths",
     ["simulate", "--dgp", "brownian", "--n", "3", "--burn-in", "10", "--out", "{missing}"],
     2, "--burn-in"),
    ("no independent paths",
     ["simulate", "--dgp", "brownian", "--n", "0", "--out", "{missing}"],
     2, "series length must be >= 1, got 0"),
    ("a negative number of independent paths",
     ["simulate", "--dgp", "brownian", "--n", "-1", "--out", "{missing}"],
     2, "series length must be >= 1, got -1"),
    ("level threshold that is not a number",
     ["entropy-eval", "--response", "{series}", "--doy", "{doy}", "--dow", "{dow}",
      "--alphas", "x", "--out", "{missing}"],
     2, "--alphas:"),
    ("time budget below zero",
     ["entropy-eval", "--response", "{series}", "--doy", "{doy}", "--dow", "{dow}",
      "--zs", "-1", "--out", "{missing}"],
     2, "time budget z must lie in [0, 1], got -1.0"),
    ("time budget above one",
     ["entropy-eval", "--response", "{series}", "--doy", "{doy}", "--dow", "{dow}",
      "--zs", "0,2", "--out", "{missing}"],
     2, "time budget z must lie in [0, 1], got 2.0"),
    ("time budget that is infinite",
     ["entropy-eval", "--response", "{series}", "--doy", "{doy}", "--dow", "{dow}",
      "--zs", "inf", "--out", "{missing}"],
     2, "time budget z must lie in [0, 1], got inf"),
    ("exogenous flag other than no-weekly",
     ["entropy-eval", "--response", "{series}", "--doy", "{doy}", "--dow", "{dow}",
      "--exog", "{series}:noweekly", "--out", "{missing}"],
     2, "no-weekly"),
    ("no predictors",
     ["rmse-exp", *RMSE_SMALL, "--predictors", "0"],
     2, "n_predictors must be >= 1"),
    ("empty oracle",
     ["rmse-exp", *RMSE_SMALL, "--oracle-size", "0"],
     2, "oracle_size must be >= 1"),
    ("empty oracle for the quantile experiment",
     ["quantile-exp", *RMSE_SMALL, "--oracle-size", "0"],
     2, "oracle_size must be >= 1"),
    ("empty series for the quantile experiment",
     ["quantile-exp", *RMSE_SMALL, "--n", "0"],
     2, "n must be >= 1"),
    ("series too short for one lagged pair, quantile experiment",
     ["quantile-exp", *RMSE_SMALL, "--n", "1"],
     2, "n must be >= 3, got 1: the order-1 fit needs 2 lagged pairs"),
    ("series too short for two lagged pairs, rmse experiment",
     ["rmse-exp", *RMSE_SMALL, "--n", "2"],
     2, "n must be >= 3, got 2: the order-1 fit needs 2 lagged pairs"),
    ("series too short for the kernel baseline, rmse experiment",
     ["rmse-exp", *RMSE_SMALL, "--n", "3", "--methods", "boot,gauss,glm,nw"],
     2, "n must be >= 4, got 3: the kernel baseline's bandwidth selection needs 3 lagged pairs"),
    ("no replicates",
     ["rmse-exp", *RMSE_SMALL, "--reps", "0"],
     2, "reps must be >= 1"),
    ("Monte-Carlo size below one without an ensemble method",
     ["rmse-exp", *RMSE_SMALL, "--methods", "glm", "--mc", "-5"],
     2, "mc_size must be >= 1, got -5"),
    ("repeated ensemble method",
     ["rmse-exp", *RMSE_SMALL, "--methods", "boot,boot"],
     2, "method 'boot' is given twice"),
    ("repeated baseline",
     ["entropy-eval", "--response", "{series}", "--doy", "{doy}", "--dow", "{dow}",
      "--methods", "nw,nw", "--out", "{missing}"],
     2, "method 'nw' is given twice"),
    ("level threshold that is NaN",
     ["entropy-eval", "--response", "{series}", "--doy", "{doy}", "--dow", "{dow}",
      "--alphas", "nan", "--out", "{missing}"],
     2, "--alphas: NaN"),
    ("test fraction that is NaN",
     ["entropy-eval", "--response", "{series}", "--doy", "{doy}", "--dow", "{dow}",
      "--test-fraction", "nan", "--out", "{missing}"],
     2, "test fraction must lie in (0, 1), got nan"),
    ("event parameter that is NaN",
     ["rmse-exp", *RMSE_SMALL, "--event", "level:alpha=nan,z=0.5"],
     2, "parameter 'alpha' is NaN"),
    ("family parameter that is NaN, level-z",
     ["quantile", "--model", "{model}", "--x", "{x}", "--family", "level-z:alpha=nan",
      "--p", "0.9"],
     2, "family parameter 'alpha' is NaN"),
    ("family parameter that is NaN, level-alpha",
     ["quantile", "--model", "{model}", "--x", "{x}", "--family",
      "level-alpha:z=nan,lo=0,hi=25", "--p", "0.5"],
     2, "family parameter 'z' is NaN"),
    ("negative seed, simulate",
     ["simulate", "--n", "5", "--seed", "-1", "--out", "{missing}"],
     2, "must be non-negative"),
    ("negative seed, gauss estimate",
     ["estimate", "--model", "{model}", "--x", "{x}", "--event", "extremal:d=0",
      "--method", "gauss", "--seed", "-1"],
     2, "must be non-negative"),
    ("negative seed, gauss quantile",
     ["quantile", "--model", "{model}", "--x", "{x}", "--family", "max-below:lo=-5,hi=5",
      "--p", "0.5", "--method", "gauss", "--seed", "-1"],
     2, "must be non-negative"),
    ("negative seed, gauss band",
     ["band", "--model", "{model}", "--x", "{x}", "--method", "gauss", "--seed", "-1",
      "--out", "{missing}"],
     2, "must be non-negative"),
    ("negative seed, coverage-exp",
     ["coverage-exp", "--n", "20", "--reps", "1", "--grid-d", "16", "--mc", "50",
      "--seed", "-1", "--out", "{missing}"],
     2, "must be non-negative"),
    ("negative seed, rmse-exp",
     ["rmse-exp", *RMSE_SMALL, "--seed", "-1"],
     2, "must be non-negative"),
    ("threshold m_n that is NaN",
     ["fit", "--series", "{series}", "--truncation", "threshold:mn=nan", "--out", "{missing}"],
     2, "m_n must be finite, got nan"),
    ("threshold m_n that is infinite",
     ["fit", "--series", "{series}", "--truncation", "threshold:mn=inf", "--out", "{missing}"],
     2, "m_n must be finite, got inf"),
    ("threshold m_n given twice",
     ["fit", "--series", "{series}", "--truncation", "threshold:mn=12,mn=13", "--out", "{missing}"],
     2, "threshold option mn/auto is given twice"),
    ("threshold both relative and absolute",
     ["fit", "--series", "{series}", "--truncation", "threshold:relative,absolute",
      "--out", "{missing}"],
     2, "threshold option relative/absolute is given twice"),
    ("threshold m_n both automatic and given",
     ["fit", "--series", "{series}", "--truncation", "threshold:auto,mn=12", "--out", "{missing}"],
     2, "threshold option mn/auto is given twice"),
    ("model with a NaN factor cell",
     ["estimate", "--model", "{nan_model}", "--x", "{x}", "--event", "extremal:d=0",
      "--method", "gauss"],
     2, "['factor'] hold non-finite cells"),
    ("model with a negative covariate eigenvalue, estimate",
     ["estimate", "--model", "{negative_model}", "--x", "{x}", "--event", "extremal:d=0"],
     2, "covariate_eigenvalues holds negative eigenvalues"),
    ("model with a negative covariate eigenvalue, band",
     ["band", "--model", "{negative_model}", "--x", "{x}", "--out", "{missing}"],
     2, "covariate_eigenvalues holds negative eigenvalues"),
    ("model with a truncation flag that is a string",
     ["estimate", "--model", "{mistyped_rule}", "--x", "{x}", "--event", "extremal:d=0"],
     2, "malformed model document"),
    ("model whose residual covariance overflows",
     ["estimate", "--model", "{overflowing_model}", "--x", "{x}", "--event", "extremal:d=0"],
     2, "its residuals give no noise spectrum"),
    ("family parameter no family kind reads",
     ["quantile", "--model", "{model}", "--x", "{x}", "--family", "max-below:lo=0,hi=25,typo=1",
      "--p", "0.5"],
     2, "unused family parameters: ['typo']"),
    ("level-z family given a time budget",
     ["quantile", "--model", "{model}", "--x", "{x}", "--family", "level-z:alpha=6,z=0.3",
      "--p", "0.5"],
     2, "unused family parameters: ['z']"),
    ("family parameter given twice",
     ["quantile", "--model", "{model}", "--x", "{x}", "--family", "max-below:lo=0,lo=1,hi=25",
      "--p", "0.5"],
     2, "family parameter 'lo' is given twice"),
    ("event parameter given twice",
     ["estimate", "--model", "{model}", "--x", "{x}", "--event", "extremal:d=0,d=99"],
     2, "event parameter 'd' is given twice"),
    ("family range whose width overflows, max-below",
     ["quantile", "--model", "{model}", "--x", "{x}", "--family", "max-below:lo=-1e308,hi=1e308",
      "--p", "0.5"],
     2, "with a finite width, got [-1e+308, 1e+308]"),
    ("family range whose width overflows, level-alpha",
     ["quantile", "--model", "{model}", "--x", "{x}", "--family",
      "level-alpha:z=0.5,lo=-1e308,hi=1e308", "--p", "0.5"],
     2, "with a finite width, got [-1e+308, 1e+308]"),
    ("model with an overflowing grid_d",
     ["estimate", "--model", "{huge_grid_d}", "--x", "{x}", "--event", "extremal:d=0"],
     2, "malformed model document"),
    ("model with an overflowing n_curve_parts",
     ["estimate", "--model", "{huge_n_curve_parts}", "--x", "{x}", "--event", "extremal:d=0"],
     2, "malformed model document"),
    ("model with an overflowing n_components",
     ["estimate", "--model", "{huge_n_components}", "--x", "{x}", "--event", "extremal:d=0"],
     2, "malformed model document"),
    ("day-of-year label past the year",
     ["deseasonalize", "--series", "{series}", "--doy", "{late_doy}", "--dow", "{dow}",
      "--out", "{missing}"],
     2, "day-of-year labels must lie in 0..365"),
    ("day-of-year label past 64 bits",
     ["deseasonalize", "--series", "{series}", "--doy", "{long_doy}", "--dow", "{dow}",
      "--out", "{missing}"],
     2, f"index '{'9' * 20}' is not a 64-bit integer (row 1)"),
    ("empty series, deseasonalize",
     ["deseasonalize", "--series", "{empty}", "--doy", "{empty}", "--out", "{missing}"],
     2, "no curves to deseasonalize"),
    ("empty series, entropy-eval",
     ["entropy-eval", "--response", "{empty}", "--doy", "{empty}", "--out", "{missing}"],
     2, "no curves to deseasonalize"),
    ("series whose covariance overflows, fit",
     ["fit", "--series", "{huge}", "--out", "{missing}"],
     3, "covariance matrix has non-finite cells"),
    ("series whose covariance overflows, binomial baseline",
     ["baseline", "glm", "--train-series", "{huge}", "--x", "{x}", "--event", "extremal:d=0.0"],
     3, "covariance matrix has non-finite cells"),
    ("series whose seasonal means overflow, deseasonalize",
     ["deseasonalize", "--series", "{overflow}", "--doy", "{doy}", "--dow", "{dow}",
      "--out", "{missing}"],
     2, "curve values must be finite"),
    ("series whose seasonal means overflow, entropy-eval",
     ["entropy-eval", "--response", "{overflow}", "--doy", "{doy}", "--dow", "{dow}",
      "--out", "{missing}"],
     2, "curve values must be finite"),
    ("second-lag weight whose recursion overflows",
     ["coverage-exp", "--n", "20", "--reps", "1", "--grid-d", "16", "--mc", "50",
      "--b", "1e308", "--out", "{missing}"],
     2, "curve values must be finite"),
    ("series whose distances overflow, kernel baseline",
     ["baseline", "nw", "--train-series", "{huge}", "--x", "{x}", "--event", "extremal:d=0.0"],
     3, "distance matrix has non-finite cells"),
    ("series whose distances overflow, kernel baseline with a bandwidth",
     ["baseline", "nw", "--train-series", "{huge}", "--x", "{x}", "--event", "extremal:d=0.0",
      "--bandwidth", "1"],
     3, "distance matrix has non-finite cells"),
    ("binomial baseline without components",
     ["baseline", "glm", "--train-series", "{series}", "--x", "{x}",
      "--event", "extremal:d=0.0", "--components", "0"],
     2, ">= 1"),
]


@pytest.mark.parametrize("case, argv, code, message", EXIT_CASES, ids=[c[0] for c in EXIT_CASES])
def test_exit_code_contract(broken_inputs, capsys, case, argv, code, message):
    assert run(*[a.format(**broken_inputs) for a in argv]) == code
    err = capsys.readouterr().err
    assert message in err and err.count("\n") == 1, err


# each experiment command and the driver it runs; the valid arguments are
# small, so a check that only came after the run would still be quick
EXPERIMENT_COMMANDS = [
    ("coverage-exp", "run_coverage_experiment", ["--n", "20", "--reps", "1", "--grid-d", "16"]),
    ("rmse-exp", "run_rmse_experiment", RMSE_SMALL[:-2]),  # less its --out
    ("quantile-exp", "run_var_experiment", RMSE_SMALL[:-2]),
    ("entropy-eval", "run_entropy_eval", None),
]


@pytest.mark.parametrize("out, message", [
    ("x.txt", "report path must end in .csv or .json, got 'x.txt'"),
    ("missing/x.csv", "is not a directory"),
], ids=["suffix", "directory"])
@pytest.mark.parametrize("command, driver, argv", EXPERIMENT_COMMANDS,
                         ids=[c[0] for c in EXPERIMENT_COMMANDS])
def test_an_experiment_command_checks_its_out_path_before_it_runs(
        tmp_path, monkeypatch, capsys, entropy_inputs, command, driver, argv, out, message):
    def not_called(*args, **kwargs):
        raise AssertionError(f"{driver} ran before --out was checked")

    monkeypatch.setattr(f"curveprob.harness.cli.{driver}", not_called)
    assert run(command, *(entropy_inputs if argv is None else argv),
               "--out", tmp_path / out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1, err


# Monte-Carlo sizes whose draws cannot be held: malloc refuses 10**15 rows
# (petabytes) at once, and numpy refuses the shape of 2**62 rows before it
# allocates, so neither case takes memory
DRAWN_COMMANDS = [
    ["estimate", "--model", "{model}", "--x", "{x}", "--event", "extremal:d=0",
     "--method", "gauss", "--mc"],
    ["quantile", "--model", "{model}", "--x", "{x}", "--family", "max-below:lo=-5,hi=5",
     "--p", "0.5", "--method", "gauss", "--mc"],
    ["band", "--model", "{model}", "--x", "{x}", "--method", "gauss", "--out", "{missing}",
     "--mc"],
    ["coverage-exp", "--n", "20", "--reps", "1", "--grid-d", "16", "--out", "{missing}", "--mc"],
    ["rmse-exp", *RMSE_SMALL, "--mc"],
    ["quantile-exp", *RMSE_SMALL, "--mc"],
    ["entropy-eval", "--response", "{series}", "--doy", "{doy}", "--dow", "{dow}",
     "--ar-order", "1", "--methods", "gauss", "--out", "{missing}", "--mc"],
    ["rmse-exp", *RMSE_SMALL, "--oracle-size"],
    ["quantile-exp", *RMSE_SMALL, "--oracle-size"],
]


@pytest.mark.parametrize("count", [10**15, 2**62], ids=["malloc", "shape"])
@pytest.mark.parametrize("argv", DRAWN_COMMANDS,
                         ids=[f"{a[0]} {a[-1]}" for a in DRAWN_COMMANDS])
def test_a_monte_carlo_size_that_cannot_be_allocated_exits_2(broken_inputs, capsys, argv, count):
    assert run(*[a.format(**broken_inputs) for a in argv], count) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("key, mistype", [
    ("n_components", lambda k: k + 0.9), ("grid_d", str), ("n_curve_parts", lambda n: True),
    ("n_scalars", lambda n: False), ("noise_rank", float), ("dof_correction", lambda b: "no"),
    ("centered", lambda b: "false"),
], ids=["n_components", "grid_d", "n_curve_parts", "n_scalars", "noise_rank",
        "dof_correction", "centered"])
def test_a_mistyped_model_header_exits_2(tmp_path, model_json, x_csv, capsys, key, mistype):
    # each value reads as the fitted one under int() or bool()
    doc = json.loads(model_json.read_text())
    doc[key] = mistype(doc[key])
    bad = tmp_path / "mistyped.json"
    bad.write_text(json.dumps(doc))
    assert run("estimate", "--model", bad, "--x", x_csv, "--event", "extremal:d=0") == 2
    err = capsys.readouterr().err
    assert "malformed model document" in err and "Traceback" not in err


# every scipy import fails in the probe, as it would where scipy is not installed
BLOCK_SCIPY = """
import sys
class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
sys.meta_path.insert(0, BlockScipy())
"""


def test_cli_runs_with_every_scipy_import_blocked(tmp_path, model_json, x_csv, series_csv):
    src = str(Path(curveprob.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    query = ["--model", str(model_json), "--x", str(x_csv)]
    commands = [
        ["baseline", "glm", "--link", "probit", "--train-series", str(series_csv),
         "--x", str(x_csv), "--event", "extremal:d=0"],
        ["estimate", *query, "--event", "level:alpha=0.5,z=0.5", "--method", "gauss"],
        *(["quantile", *query, "--family", family, "--p", "0.5", "--method", method]
          for family in ("level-alpha:z=0.5,lo=-50,hi=50", "level-z:alpha=0",
                         "max-below:lo=-50,hi=50")
          for method in ("boot", "gauss")),
    ]
    probe = (BLOCK_SCIPY + "from curveprob.harness.cli import main\n"
             f"for argv in {commands!r}:\n"
             "    assert main(argv) == 0, argv\n")
    done = subprocess.run([sys.executable, "-c", probe], env=env, cwd=tmp_path,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_band_leaves_numpy_ma_unloaded(tmp_path, model_json, x_csv):
    # np.quantile imports numpy.ma on its first call; the band's order
    # statistics come from np.partition, which imports nothing
    src = str(Path(curveprob.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    probe = ("import sys; from curveprob.harness.cli import main\n"
             "for extra in ([], ['--nominal', '0.8'], ['--method', 'gauss', '--mc', '50']):\n"
             f"    assert main(['band', '--model', {str(model_json)!r}, '--x', {str(x_csv)!r},\n"
             f"                 '--out', {str(tmp_path / 'band.csv')!r}, *extra]) == 0\n"
             "sys.exit('numpy.ma' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", probe], env=env).returncode == 0


BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_fresh(cwd, *argv, **env):
    """``curveprob`` in a fresh interpreter run in ``cwd``, with no BLAS
    thread variable set but those in ``env``."""
    src = str(Path(curveprob.__file__).resolve().parents[1])
    env = {**{k: v for k, v in os.environ.items() if k not in BLAS_THREADS}, **env,
           "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, "-m", "curveprob.harness.cli", *map(str, argv)],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=300)


OVERFLOW_CASES = [c for c in EXIT_CASES if {"{huge}", "{overflow}"} & set(c[1])]


@pytest.mark.parametrize("case, argv, code, message", OVERFLOW_CASES,
                         ids=[c[0] for c in OVERFLOW_CASES])
def test_overflowing_sums_and_products_write_one_stderr_line_in_a_fresh_process(
        broken_inputs, tmp_path, case, argv, code, message):
    # pytest captures the warnings of test_exit_code_contract; a fresh
    # interpreter would print any that reach it
    done = run_fresh(tmp_path, *[a.format(**broken_inputs) for a in argv])
    assert done.returncode == code
    assert message in done.stderr and done.stderr.count("\n") == 1, done.stderr


def test_an_unset_blas_thread_count_runs_as_one_thread(tmp_path):
    # on a multi-core host an unpinned BLAS splits each product over its cores
    # and can round it differently
    one = dict.fromkeys(BLAS_THREADS, "1")
    assert run_fresh(tmp_path, "simulate", "--dgp", "far_synthetic", "--n", 120, "--seed", 3,
                     "--out", "series.csv").returncode == 0
    for out, env in (("unset.json", {}), ("one.json", one)):
        assert run_fresh(tmp_path, "fit", "--series", "series.csv", "--out", out,
                         **env).returncode == 0
    assert (tmp_path / "unset.json").read_bytes() == (tmp_path / "one.json").read_bytes()
    save_curves(load_curves(tmp_path / "series.csv")[-1:], tmp_path / "x.csv")
    estimates = [run_fresh(tmp_path, "estimate", "--model", "one.json", "--x", "x.csv",
                           "--event", "level:alpha=7,z=0.5", "--method", "boot", **env)
                 for env in ({}, one)]
    assert all(e.returncode == 0 for e in estimates)
    assert estimates[0].stdout == estimates[1].stdout


def test_an_unset_blas_thread_count_writes_the_one_thread_glm_rows(tmp_path):
    # the binomial baseline's rows are the experiment rows that move with the
    # BLAS thread count
    one = dict.fromkeys(BLAS_THREADS, "1")
    for out, env in (("unset.csv", {}), ("one.csv", one)):
        assert run_fresh(tmp_path, "rmse-exp", "--methods", "glm", "--n", 100, "--predictors", 6,
                         "--reps", 6, "--oracle-size", 500, "--seed", 1, "--out", out,
                         **env).returncode == 0
    assert (tmp_path / "unset.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()


@pytest.mark.parametrize("argv", [
    ["coverage-exp", "--n", "20", "--reps", "1", "--grid-d", "16", "--mc", "50",
     "--b", "1e308", "--out", "bad.csv"],
    ["simulate", "--dgp", "far_paparoditis", "--n", "20", "--b", "1e308", "--out", "bad.csv"],
])
def test_an_overflowing_recursion_prints_only_its_error(tmp_path, argv):
    result = run_fresh(tmp_path, *argv)
    assert result.returncode == 2
    assert result.stderr == "error: curve values must be finite\n"


def test_a_quantile_error_beyond_double_range_reads_inf_with_one_stderr_line(tmp_path):
    # the search range reaches 1e308, so every estimate's squared error
    # overflows and the RMSE reads inf without a warning
    result = run_fresh(tmp_path, "quantile-exp", "--n", 30, "--grid-d", 16, "--mc", 60,
                       "--predictors", 2, "--reps", 2, "--oracle-size", 100, "--seed", 1,
                       "--search-hi", 1e308, "--out", "q.csv")
    assert result.returncode == 0
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("quantile experiment finished in"), lines
    header, *rows = [ln.split(",") for ln in (tmp_path / "q.csv").read_text().splitlines()
                     if not ln.startswith("#")]
    column = header.index("rmse")
    assert len(rows) == 4 and all(row[column] == "inf" for row in rows)


_NOT_UTF8 = "latin1.csv: not UTF-8 text"
_NOT_JSON = "malformed model document: not JSON"
# (case, argv, text the one stderr line must hold) for files Python cannot decode
UNDECODABLE_CASES = [
    ("fit --series", ["fit", "--series", "{latin1}", "--out", "{missing}"], _NOT_UTF8),
    ("fit --exog", ["fit", "--series", "{series}", "--exog", "{latin1}", "--out", "{missing}"],
     _NOT_UTF8),
    ("estimate --model", ["estimate", "--model", "{latin1}", "--x", "{x}",
                          "--event", "extremal:d=0"], _NOT_UTF8),
    ("estimate --x", ["estimate", "--model", "{model}", "--x", "{latin1}",
                      "--event", "extremal:d=0"], _NOT_UTF8),
    ("estimate gamma=@file", ["estimate", "--model", "{model}", "--x", "{x}",
                              "--event", "contrast:gamma=@{latin1},a=0"], _NOT_UTF8),
    ("entropy-eval --response", ["entropy-eval", "--response", "{latin1}", "--doy", "{doy}",
                                 "--dow", "{dow}", "--out", "{missing}"], _NOT_UTF8),
    ("deseasonalize --doy", ["deseasonalize", "--series", "{series}", "--doy", "{latin1}",
                             "--dow", "{dow}", "--out", "{missing}"], _NOT_UTF8),
    ("deseasonalize --dow", ["deseasonalize", "--series", "{series}", "--doy", "{doy}",
                             "--dow", "{latin1}", "--out", "{missing}"], _NOT_UTF8),
    ("baseline --train-series", ["baseline", "nw", "--train-series", "{latin1}", "--x", "{x}",
                                 "--event", "extremal:d=0"], _NOT_UTF8),
    ("model version past the integer digit limit", ["estimate", "--model", "{long_version}",
                                                    "--x", "{x}", "--event", "extremal:d=0"],
     _NOT_JSON),
    ("model nested past the recursion limit", ["estimate", "--model", "{deep_model}",
                                               "--x", "{x}", "--event", "extremal:d=0"],
     _NOT_JSON),
]


@pytest.mark.parametrize("case, argv, message", UNDECODABLE_CASES,
                         ids=[c[0] for c in UNDECODABLE_CASES])
def test_an_undecodable_file_exits_2_with_one_line(broken_inputs, tmp_path, case, argv, message):
    done = run_fresh(tmp_path, *[a.format(**broken_inputs) for a in argv])
    assert done.returncode == 2, done.stderr
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0], lines


def test_a_model_of_an_older_format_version_exits_2_with_one_line(tmp_path, model_json, x_csv):
    doc = json.loads(model_json.read_text())
    doc["version"] = 4
    old = tmp_path / "old_model.json"
    old.write_text(json.dumps(doc))
    proc = run_fresh(tmp_path, "estimate", "--model", old, "--x", x_csv,
                     "--event", "extremal:d=0")
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and "version 4" in lines[0] and "curveprob fit" in lines[0], lines


def test_a_model_whose_residual_covariance_overflows_exits_2_with_one_line(tmp_path, model_json,
                                                                           x_csv):
    # the version 5 reader rebuilds the noise spectrum from the residuals;
    # one finite residual cell of 1e308 overflows it
    bad = tmp_path / "bad_model.json"
    bad.write_text(set_cell(model_json.read_text(), "residual_matrix", 0, 1e308))
    proc = run_fresh(tmp_path, "estimate", "--model", bad, "--x", x_csv,
                     "--event", "extremal:d=0", "--method", "gauss")
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: malformed model document"), lines
