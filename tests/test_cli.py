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
from curveprob.harness.io import load_curves, save_curves


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
    save_curves([load_curves(series_csv)[-1]], path)
    return path


class TestWorkflow:
    def test_fit_writes_versioned_model(self, model_json):
        doc = json.loads(model_json.read_text())
        assert doc["format"] == "curveprob-flm"
        assert doc["version"] == 2

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

    def test_band(self, tmp_path, model_json, x_csv, capsys):
        out = tmp_path / "band.csv"
        assert run("band", "--model", model_json, "--x", x_csv,
                   "--nominal", 0.9, "--method", "boot", "--out", out) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["lower_quantile"] <= payload["upper_quantile"]
        center, floor, ceil = load_curves(out)
        assert np.all(floor.values <= ceil.values)

    def test_baseline_commands(self, tmp_path, series_csv, x_csv):
        out = tmp_path / "b.json"
        assert run("baseline", "nw", "--train-series", series_csv, "--x", x_csv,
                   "--event", "extremal:d=0.0", "--bandwidth", 1.0, "--out", out) == 0
        assert 0.0 <= json.loads(out.read_text())["value"] <= 1.0
        assert run("baseline", "glm", "--train-series", series_csv, "--x", x_csv,
                   "--event", "extremal:d=0.0", "--components", 2, "--out", out) == 0
        assert 0.0 < json.loads(out.read_text())["value"] < 1.0

    def test_covariate_with_a_scalar_part(self, tmp_path, series_csv, x_csv):
        series = load_curves(series_csv)
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
        for c in load_curves(out):
            assert np.max(np.abs(c.values)) <= 1e-8


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
        save_curves(simulate_far(synthetic_dgp(Grid(grid_d), seed=seed), n), reference)
        assert outputs[None] == reference.read_bytes()
        assert outputs[0] != outputs[None] and outputs[200] != outputs[None]


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
    doc = json.loads(model_json.read_text())
    doc["noise_eigenvectors"][0][0] = float("nan")
    nan_model = tmp_path / "nan_model.json"
    nan_model.write_text(json.dumps(doc))
    doc = json.loads(model_json.read_text())
    doc["noise_eigenvalues"][0] = -1.0
    negative_model = tmp_path / "negative_model.json"
    negative_model.write_text(json.dumps(doc))
    return {"model": model_json, "x": x_csv, "wrong_grid": wrong_grid,
            "nan_cell": nan_cell, "truncated": truncated, "series": series,
            "letters": letters, "squared": squared, "doy": doy, "dow": dow,
            "nan_model": nan_model, "negative_model": negative_model,
            "missing": tmp_path / "missing.csv"}


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
    ("empty oracle for the quantile target",
     ["rmse-exp", *RMSE_SMALL, "--oracle-size", "0", "--target", "quantile"],
     2, "oracle_size must be >= 1"),
    ("empty series for the quantile target",
     ["rmse-exp", *RMSE_SMALL, "--n", "0", "--target", "quantile"],
     2, "n must be >= 1"),
    ("no replicates",
     ["rmse-exp", *RMSE_SMALL, "--reps", "0"],
     2, "reps must be >= 1"),
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
     2, "family parameter 'alpha': NaN"),
    ("family parameter that is NaN, level-alpha",
     ["quantile", "--model", "{model}", "--x", "{x}", "--family",
      "level-alpha:z=nan,lo=0,hi=25", "--p", "0.5"],
     2, "family parameter 'z': NaN"),
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
    ("model with a NaN noise eigenvector cell",
     ["estimate", "--model", "{nan_model}", "--x", "{x}", "--event", "extremal:d=0",
      "--method", "gauss"],
     2, "['noise_eigenvectors'] hold non-finite cells"),
    ("model with a negative noise eigenvalue, estimate",
     ["estimate", "--model", "{negative_model}", "--x", "{x}", "--event", "extremal:d=0"],
     2, "['noise_eigenvalues'] hold negative eigenvalues"),
    ("model with a negative noise eigenvalue, band",
     ["band", "--model", "{negative_model}", "--x", "{x}", "--out", "{missing}"],
     2, "['noise_eigenvalues'] hold negative eigenvalues"),
    ("binomial baseline without components",
     ["baseline", "glm", "--train-series", "{series}", "--x", "{x}",
      "--event", "extremal:d=0.0", "--components", "0"],
     2, ">= 1"),
]


@pytest.mark.parametrize("case, argv, code, message", EXIT_CASES, ids=[c[0] for c in EXIT_CASES])
def test_exit_code_contract(broken_inputs, capsys, case, argv, code, message):
    assert run(*[a.format(**broken_inputs) for a in argv]) == code
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


def test_cli_import_leaves_scipy_stats_unloaded():
    src = str(Path(curveprob.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    probe = "import sys, curveprob.harness.cli; sys.exit('scipy.stats' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", probe], env=env).returncode == 0
