"""Acceptance gate: every criterion at its stated tolerance.

Each test writes one PASS/FAIL line to the terminal as it completes. The
heavy simulation studies share module-scoped fixtures; the whole module runs
in a few minutes at the default grid resolution.
"""

import numpy as np
import pytest

from curveprob.baselines import FGLMModel, fglm_prob, nw_fit, nw_prob
from curveprob.conddist import GaussSampler, boot_prob, gauss_prob, quantile_over_family
from curveprob.curves import Covariate, Curve, Grid
from curveprob.events import complement, family_max_below
from curveprob.flm import RegressionSample, TruncationRule, build_far_design, fit
from curveprob.harness.cli import main as cli_main
from curveprob.harness.dgp import brownian_matrix, simulate_far, synthetic_dgp
from curveprob.harness.experiments import (
    run_coverage_experiment,
    run_rmse_experiment,
    run_var_experiment,
)
from curveprob.rng import substream
from curveprob.spectral import empirical_covariance

from reference import FAMILY_EVENTS, reconstruct

MASTER_SEED = 7

pytestmark = pytest.mark.acceptance


@pytest.fixture
def report(pytestconfig):
    """Writes one PASS/FAIL line to the terminal as the test completes, with
    or without ``-s``: pytest's capture holds the test's own output."""
    capture = pytestconfig.pluginmanager.getplugin("capturemanager")
    terminal = pytestconfig.pluginmanager.getplugin("terminalreporter")

    def write(number, label, ok, detail):
        line = (f"[acceptance] criterion {number} ({label}): "
                f"{'PASS' if ok else 'FAIL'} -- {detail}")
        with capture.global_and_fixture_disabled():
            terminal.write("\n")
            terminal.write_line(line)
        return ok

    return write


# ---------------------------------------------------------------------------
# shared heavy runs

@pytest.fixture(scope="module")
def coverage_boot_200():
    return run_coverage_experiment(n=200, b=0.0, nominal=0.95, method="boot",
                                   reps=500, seed=MASTER_SEED)


@pytest.fixture(scope="module")
def coverage_gauss_400():
    return run_coverage_experiment(n=400, b=0.0, nominal=0.95, method="gauss",
                                   reps=500, seed=MASTER_SEED)


@pytest.fixture(scope="module")
def meta_runs_100():
    runs = []
    for meta in range(20):
        r = run_coverage_experiment(n=100, b=0.0, nominal=0.95, method="both",
                                    reps=500, seed=1000 + meta)
        runs.append(r.summary)
    return runs


@pytest.fixture(scope="module")
def rmse_by_n():
    out = {}
    for n, methods in ((50, "boot"), (100, "boot"), (250, "boot,glm")):
        out[n] = run_rmse_experiment(dgp="far_synthetic", n=n, n_predictors=50,
                                     methods=methods, reps=60, seed=3)
    return out


@pytest.fixture(scope="module")
def var_250():
    return run_var_experiment(dgp="far_synthetic", n=250, n_predictors=50,
                              reps=50, seed=3)


# ---------------------------------------------------------------------------
# criteria

def test_criterion_1_table_coverage(coverage_boot_200, coverage_gauss_400, report):
    boot = coverage_boot_200.summary["coverage_boot"]
    gauss = coverage_gauss_400.summary["coverage_gauss"]
    ok_boot = abs(boot - 0.913) <= 0.03
    ok_gauss = abs(gauss - 0.940) <= 0.03
    ok = report(1, "coverage reproduction", ok_boot and ok_gauss,
                f"boot n=200: {boot:.3f} (target 0.913 +- 0.03), "
                f"gauss n=400: {gauss:.3f} (target 0.940 +- 0.03)")
    assert ok


def test_criterion_2_method_ordering(meta_runs_100, report):
    wins = sum(r["coverage_gauss"] > r["coverage_boot"] for r in meta_runs_100)
    ok = report(2, "gauss beats boot at n=100", wins >= 16,
                f"gauss coverage higher in {wins}/20 meta-runs (need >= 16)")
    assert ok


def test_criterion_3_rmse_decreases_in_n(rmse_by_n, report):
    medians = [rmse_by_n[n].summary["median_rmse_boot"] for n in (50, 100, 250)]
    ok = report(3, "level-set RMSE consistency", medians[0] > medians[1] > medians[2],
                "median boot RMSE at n=50/100/250: "
                + "/".join(f"{m:.4f}" for m in medians))
    assert ok


def test_criterion_4_extreme_quantile_advantage(var_250, report):
    frac = var_250.summary["gauss_better_fraction"]
    boot_med = var_250.summary["median_rmse_boot"]
    gauss_med = var_250.summary["median_rmse_gauss"]
    ok = report(4, "extreme-quantile advantage", frac >= 0.6,
                f"gauss RMSE below boot for {frac:.0%} of 50 predictors "
                f"(need >= 60%); medians boot {boot_med:.3f} vs gauss {gauss_med:.3f}")
    assert ok


def test_criterion_5_estimator_axioms(report):
    grid = Grid(16)
    t = grid.points
    source = np.sin(2 * np.pi * t)
    violations = 0
    checked = 0
    triple = 0
    for model_idx in range(100):
        rng = substream(50_000, model_idx)
        xs, ys = [], []
        for _ in range(14):
            a = rng.normal()
            xs.append(Covariate((Curve(grid, a * source + 0.2 * rng.normal(size=grid.size)),)))
            ys.append(Curve(grid, a * t + 0.7 * rng.normal(size=grid.size)))
        model = fit(RegressionSample.from_pairs(ys, xs), TruncationRule.fixed(1))
        for query_idx in range(10):
            triple += 1
            qrng = substream(60_000, model_idx, query_idx)
            x = Covariate((Curve(grid, qrng.normal() * source),))
            seed = int(qrng.integers(2**31))
            thresholds = np.sort(qrng.uniform(-2.0, 2.0, size=3))
            family, event = family_max_below(-50.0, 50.0), FAMILY_EVENTS["max-below"]()
            for method in ("boot", "gauss"):
                kwargs = {} if method == "boot" else {"mc_size": 120, "seed": seed}
                prob = boot_prob if method == "boot" else gauss_prob
                values = []
                for d in thresholds:
                    ev = event(d)
                    est = prob(model, x, ev, **kwargs)
                    est_c = prob(model, x, complement(ev), **kwargs)
                    checked += 1
                    if not 0.0 <= est.value <= 1.0:
                        violations += 1
                    if est.value + est_c.value != 1.0 or est.count + est_c.count != est.n_used:
                        violations += 1
                    values.append(est.value)
                if not all(u <= v for u, v in zip(values, values[1:])):
                    violations += 1
                quantiles = [
                    quantile_over_family(model, x, family, p, method=method,
                                         mc_size=120, seed=seed)
                    for p in (0.25, 0.5, 0.75)
                ]
                if not all(u <= v for u, v in zip(quantiles, quantiles[1:])):
                    violations += 1
    ok = report(5, "estimator axioms", violations == 0 and triple == 1000,
                f"{triple} (model, x, seed) triples, {checked} estimates, "
                f"{violations} violations (zero allowed)")
    assert ok


def test_criterion_6_sampler_fidelity(report):
    # noise spectrum from a realistic fit
    grid = Grid(40)
    series = simulate_far(synthetic_dgp(grid), 150, seed=5)
    sample, _ = build_far_design(series, order=1)
    model = fit(sample, TruncationRule.threshold())
    sampler = GaussSampler(grid, model.noise_spectrum, rng_seed=40)
    m = 5000
    draws = sampler.draw_matrix(m)
    emp = empirical_covariance(draws * grid.quad_weights_sqrt())
    target = reconstruct(model.noise_spectrum)
    top = model.noise_spectrum.eigenvalues[0]
    cov_err = float(np.max(np.abs(emp.matrix - target)))
    cov_ok = cov_err <= 5 * top / np.sqrt(m)

    paths = brownian_matrix(Grid(100), m, substream(123))
    var_end = float(np.var(paths[:, -1]))
    bm_ok = abs(var_end - 1.0) <= 0.06
    ok = report(6, "gauss sampler fidelity", cov_ok and bm_ok,
                f"covariance max-entry err {cov_err:.2e} "
                f"(bound {5 * top / np.sqrt(m):.2e}); Var(B(1)) = {var_end:.3f} "
                f"(target 1 +- 0.06)")
    assert ok


def test_criterion_7_exact_recovery(report):
    grid = Grid(100)
    rng = substream(70)
    t = grid.points
    left = [np.sin(2 * np.pi * t), t.copy(), np.cos(4 * np.pi * t)]
    right = [np.cos(2 * np.pi * t), np.ones_like(t), np.sin(6 * np.pi * t)]
    xs, ys = [], []
    for _ in range(25):
        coefs = rng.normal(size=3)
        xs.append(Covariate((Curve(grid, sum(c * r for c, r in zip(coefs, right))),)))
        ys.append(Curve(grid, sum(c * e for c, e in zip(coefs, left))))
    model = fit(RegressionSample.from_pairs(ys, xs), TruncationRule.fixed(3))
    worst = float(np.max(np.abs(model.residual_matrix)))
    ok = report(7, "noiseless exact recovery", worst <= 1e-8,
                f"worst in-sample residual sup norm {worst:.2e} (bound 1e-8)")
    assert ok


def test_criterion_8_cli_reproducibility(tmp_path, report):
    outputs = []
    for tag in ("first", "second"):
        cov = tmp_path / f"cov_{tag}.csv"
        rm = tmp_path / f"rmse_{tag}.csv"
        sim = tmp_path / f"sim_{tag}.csv"
        assert cli_main(["coverage-exp", "--n", "30", "--reps", "6", "--grid-d", "20",
                         "--mc", "150", "--seed", "99", "--out", str(cov)]) == 0
        assert cli_main(["rmse-exp", "--n", "30", "--predictors", "4", "--reps", "4",
                         "--grid-d", "20", "--oracle-size", "400", "--mc", "150",
                         "--methods", "boot,gauss", "--seed", "55",
                         "--out", str(rm)]) == 0
        assert cli_main(["simulate", "--dgp", "far_synthetic", "--n", "15",
                         "--grid-d", "20", "--seed", "13", "--out", str(sim)]) == 0
        outputs.append((cov.read_bytes(), rm.read_bytes(), sim.read_bytes()))
    identical = outputs[0] == outputs[1]
    ok = report(8, "byte-identical reruns", identical,
                "coverage-exp, rmse-exp and simulate outputs "
                + ("match exactly" if identical else "DIFFER"))
    assert ok


def test_criterion_9_baseline_sanity(rmse_by_n, report):
    checks = []
    # kernel-estimator basics
    xs = [[float(k)] for k in range(5)]
    est = nw_fit(xs, np.ones(5), bandwidth=0.5)
    checks.append(nw_prob(est, [2.2]) == 1.0)
    single = nw_fit([[1.0]], [0.0], bandwidth=1.0)
    checks.append(nw_prob(single, [4.0]) == 0.0)
    pair = nw_fit([[-1.0], [1.0]], [0.0, 1.0],
                  bandwidth=0.7)
    checks.append(abs(nw_prob(pair, [0.0]) - 0.5) < 1e-12)
    # binomial-regression basics
    flat = FGLMModel(link="logit", intercept=0.3, coefficients=np.zeros(1),
                     basis=np.ones((1, 1)), x_mean_coords=np.zeros(1))
    checks.append(abs(fglm_prob(flat, [9.0])
                      - 1 / (1 + np.exp(-0.3))) < 1e-12)
    zero = FGLMModel(link="logit", intercept=0.0, coefficients=np.zeros(1),
                     basis=np.ones((1, 1)), x_mean_coords=np.zeros(1))
    checks.append(fglm_prob(zero, [0.0]) == 0.5)
    probit = FGLMModel(link="probit", intercept=0.0, coefficients=np.ones(1),
                       basis=np.ones((1, 1)), x_mean_coords=np.zeros(1))
    checks.append(abs(fglm_prob(probit, [1.6449]) - 0.95) < 1e-3)
    trivial_ok = all(checks)

    boot_med = rmse_by_n[250].summary["median_rmse_boot"]
    glm_med = rmse_by_n[250].summary["median_rmse_glm"]
    comparison_ok = boot_med < glm_med
    ok = report(9, "baseline sanity", trivial_ok and comparison_ok,
                f"trivial checks {sum(checks)}/{len(checks)}; "
                f"n=250 median RMSE boot {boot_med:.4f} < glm {glm_med:.4f}: "
                f"{comparison_ok}")
    assert ok
