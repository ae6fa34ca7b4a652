from dataclasses import replace

import numpy as np
import pytest

from curveprob import baselines
from curveprob.baselines import fglm_fit, fglm_prob, nw_fit, nw_prob
from curveprob.conddist import (
    GaussSampler,
    boot_prob,
    calibrate_uniform_band,
    gauss_prob,
    noise_sampler,
    quantile_over_family,
)
from curveprob.curves import Covariate, Curve, Grid
from curveprob.errors import ParseError, RangeExhaustedError, StructureError, UsageError
from curveprob.harness.dgp import (
    SYNTHETIC_BURN_IN,
    DGPSpec,
    brownian_matrix,
    conditional_draws,
    conditional_mean,
    kernel_matrix,
    mean_values,
    noise_matrix,
    simulate_far,
    simulate_far_values,
    synthetic_dgp,
    stationary_predictors,
    synthetic_noise_basis,
)
from curveprob.events import contains_batch, extremal_set, family_level_in_alpha, level_set
from curveprob.flm import TruncationRule, build_far_design, fit, predict_coords
from curveprob.harness import experiments
from curveprob.harness.experiments import (
    _MC,
    _PREDICTORS,
    _SIM,
    _SPLIT,
    _int_seed,
    oracle_level_quantile,
    run_coverage_experiment,
    run_entropy_eval,
    run_rmse_experiment,
    run_var_experiment,
)
from curveprob.harness.io import load_curves, load_index, save_curves
from curveprob.harness.metrics import binomial_se, cross_entropy, rmse
from curveprob.harness.seasonal import deseasonalize
from curveprob.rng import substream
from curveprob.spectral import SpectralPair


class TestBrownian:
    def test_starts_at_zero(self):
        for seed in range(5):
            assert brownian_matrix(Grid(50), 1, substream(seed))[0, 0] == 0.0

    def test_terminal_variance(self):
        grid = Grid(100)
        draws = brownian_matrix(grid, 5000, substream(123))
        assert np.var(draws[:, -1]) == pytest.approx(1.0, abs=0.06)

    def test_covariance_is_min(self):
        grid = Grid(100)
        draws = brownian_matrix(grid, 5000, substream(7))
        i, j = 25, 75  # t = 0.25, 0.75
        cov = np.mean(draws[:, i] * draws[:, j])
        assert cov == pytest.approx(0.25, abs=0.05)


class TestSimulateFar:
    def test_zero_kernel_collapses_to_noise(self):
        # gaussian_iid has no kernel, so each curve is the mean plus one draw
        spec = DGPSpec("gaussian_iid", Grid(40))
        values = simulate_far_values(spec, 5, substream(3))
        want = mean_values(spec) + noise_matrix(spec, 5, substream(3))
        assert values.tobytes() == want.tobytes()

    def test_lag_one_dependence_is_positive(self):
        grid = Grid(60)
        spec = DGPSpec("far_paparoditis", grid, burn_in=50)
        series = simulate_far(spec, 200, seed=5)
        vals = np.asarray([c.values for c in series])
        w = grid.quad_weights()
        inner = (vals[:-1] * w) @ vals[1:].T
        lag1 = np.mean(np.diag(inner))
        # permutation null: inner products of mismatched pairs
        rng = np.random.default_rng(0)
        perm = rng.permutation(len(series) - 1)
        null = np.mean(np.diag(inner[:, perm]))
        assert lag1 > null

    def test_deterministic_per_seed(self):
        spec = DGPSpec("far_paparoditis", Grid(30), b=0.4)
        a = simulate_far(spec, 10, seed=9)
        b = simulate_far(spec, 10, seed=9)
        for ca, cb in zip(a, b):
            np.testing.assert_array_equal(ca.values, cb.values)

    def test_second_lag_changes_the_path(self):
        grid = Grid(30)
        a = simulate_far(DGPSpec("far_paparoditis", grid), 10, seed=2)
        b = simulate_far(DGPSpec("far_paparoditis", grid, b=0.4), 10, seed=2)
        assert any(np.max(np.abs(x.values - y.values)) > 1e-8 for x, y in zip(a, b))

    def test_synthetic_mean_level(self):
        spec = synthetic_dgp(Grid(50))
        series = simulate_far(spec, 400, seed=21)
        grand_mean = np.mean([c.values for c in series], axis=0)
        np.testing.assert_allclose(grand_mean, mean_values(spec), atol=0.5)

    @pytest.mark.parametrize("make, seed", [
        (lambda g: DGPSpec("far_paparoditis", g, b=0.4), 4),
        (synthetic_dgp, 5),
        (lambda g: DGPSpec("gaussian_iid", g), 6),
    ], ids=["far_paparoditis", "far_synthetic", "gaussian_iid"])
    def test_curves_are_the_rows_of_simulate_far_values(self, make, seed):
        spec = make(Grid(20))
        values = simulate_far_values(spec, 12, substream(seed))
        assert values.shape == (12, 21)
        np.testing.assert_array_equal([c.values for c in simulate_far(spec, 12, seed=seed)],
                                      values)

    def test_kernel_is_asymmetric_for_synthetic(self):
        k = kernel_matrix(synthetic_dgp(Grid(20)))
        assert np.max(np.abs(k - k.T)) > 0.1

    def test_bad_kind_rejected(self):
        with pytest.raises(UsageError):
            DGPSpec(kind="nope", grid=Grid(10))

    @pytest.mark.parametrize("kind", ["far_synthetic", "gaussian_iid"])
    def test_a_second_lag_weight_is_rejected_for_a_first_order_kind(self, kind):
        with pytest.raises(UsageError, match="applies to far_paparoditis only, not " + kind):
            DGPSpec(kind, Grid(20), b=0.4)
        assert DGPSpec("far_paparoditis", Grid(20), b=0.4).b == 0.4

    @pytest.mark.parametrize("kind, burn_in", [
        ("far_paparoditis", 50),
        ("far_synthetic", SYNTHETIC_BURN_IN),
        ("gaussian_iid", 0),
    ])
    def test_a_spec_without_burn_in_takes_its_kind_default(self, kind, burn_in):
        assert DGPSpec(kind, Grid(20)).burn_in == burn_in
        assert DGPSpec(kind, Grid(20), burn_in=7).burn_in == 7
        assert synthetic_dgp(Grid(20)).burn_in == SYNTHETIC_BURN_IN


class TestConditionalOracle:
    def test_conditional_mean_matches_recursion_without_noise(self):
        grid = Grid(30)
        spec = synthetic_dgp(grid)
        prev = simulate_far(spec, 1, seed=11)[0]
        # one recursion step from prev with no noise equals the conditional mean
        mu = mean_values(spec)
        step_input = prev.values - mu
        manual = mu + (kernel_matrix(spec) * grid.quad_weights()) @ step_input
        np.testing.assert_allclose(conditional_mean(spec, prev.values), manual, atol=1e-12)

    def test_two_lag_conditional_mean_is_refused(self):
        spec = DGPSpec("far_paparoditis", Grid(20), b=0.4)
        with pytest.raises(UsageError):
            conditional_mean(spec, Curve.constant(Grid(20), 0.0).values)

    def test_conditional_draws_center_on_conditional_mean(self):
        spec = synthetic_dgp(Grid(30))
        prev = simulate_far(spec, 1, seed=13)[0]
        draws = conditional_draws(spec, prev.values, 4000, seed=17)
        np.testing.assert_allclose(
            draws.mean(axis=0), conditional_mean(spec, prev.values), atol=0.1
        )


    @pytest.mark.parametrize("grid_d, z, p", [(99, 0.57, 0.9), (99, 0.57, 0.5), (100, 0.5, 0.99)])
    def test_oracle_level_quantile_is_where_the_fraction_reaches_p(self, grid_d, z, p):
        # brute force on the same draws: the fraction of draws in the level
        # event reaches p at the oracle quantile and not one double below it
        # (at 100 points and z=0.57 the event admits 57 exceedances, while
        # floor(0.57 * 100) is 56)
        spec = synthetic_dgp(Grid(grid_d))
        prev = simulate_far(spec, 1, seed=5)[0]
        draws = conditional_draws(spec, prev.values, 1000, seed=9)
        xi = oracle_level_quantile(spec, prev.values, p, z, 1000, seed=9)

        def fraction(alpha):
            return np.mean(contains_batch(level_set(alpha, z), draws, spec.grid))

        assert fraction(xi) >= p
        assert fraction(np.nextafter(xi, -np.inf)) < p

    @pytest.mark.parametrize("bad, message", [
        ({"p": 0.0}, "p must lie in"), ({"p": 1.0}, "p must lie in"),
        ({"p": 1.5}, "p must lie in"), ({"p": float("nan")}, "p must lie in"),
        ({"search_lo": 40.0}, "lo < hi"),
        ({"search_lo": -1e308, "search_hi": 1e308}, "finite width"),
    ])
    def test_a_bad_level_or_search_range_is_rejected_before_any_draw(
            self, monkeypatch, bad, message):
        spec = synthetic_dgp(Grid(16))
        prev = simulate_far(spec, 1, seed=5)[0]

        def no_draws(*args, **kwargs):
            raise AssertionError("drew before checking the arguments")

        monkeypatch.setattr(experiments, "conditional_draws", no_draws)
        monkeypatch.setattr(experiments, "stationary_predictors", no_draws)
        if "p" in bad:
            with pytest.raises(UsageError, match=message):
                oracle_level_quantile(spec, prev.values, bad["p"], 0.5, 100, seed=9)
        else:
            with pytest.raises(UsageError, match=message):
                run_var_experiment(n=30, n_predictors=2, reps=1, grid_d=16, oracle_size=100,
                                   mc_size=100, **bad)

    @pytest.mark.parametrize("driver, bad, message", [
        ("coverage", {"mc_size": 0}, "mc_size must be >= 1, got 0"),
        ("coverage", {"method": "boot", "mc_size": 0}, "mc_size must be >= 1, got 0"),
        ("coverage", {"method": "glm"}, "unknown method 'glm'"),
        ("coverage", {"n": 0}, "n must be >= 1, got 0"),
        ("coverage", {"n": 1}, "n must be >= 3, got 1: the order-1 fit needs 2 lagged pairs"),
        ("coverage", {"n": 2}, "n must be >= 3, got 2: the order-1 fit needs 2 lagged pairs"),
        ("rmse", {"n": 1}, "n must be >= 3, got 1: the order-1 fit needs 2 lagged pairs"),
        ("rmse", {"n": 2}, "n must be >= 3, got 2: the order-1 fit needs 2 lagged pairs"),
        ("rmse", {"n": 3, "methods": "boot,gauss,glm,nw"},
         "n must be >= 4, got 3: the kernel baseline's bandwidth selection needs 3 lagged pairs"),
        ("quantile", {"n": 1}, "n must be >= 3, got 1: the order-1 fit needs 2 lagged pairs"),
        ("quantile", {"n": 2}, "n must be >= 3, got 2: the order-1 fit needs 2 lagged pairs"),
        ("rmse", {"mc_size": 0}, "mc_size must be >= 1, got 0"),
        ("rmse", {"methods": "glm", "mc_size": -5}, "mc_size must be >= 1, got -5"),
        ("quantile", {"mc_size": 0}, "mc_size must be >= 1, got 0"),
        ("entropy", {"mc_size": 0}, "mc_size must be >= 1, got 0"),
    ])
    def test_a_bad_mc_size_or_coverage_method_is_rejected_before_any_draw(
            self, monkeypatch, driver, bad, message):
        response, wind, doy, dow = entropy_series()

        def no_draws(*args, **kwargs):
            raise AssertionError("drew before checking the arguments")

        for name in ("stationary_predictors", "conditional_draws", "simulate_far_values",
                     "deseasonalize"):
            monkeypatch.setattr(experiments, name, no_draws)
        oracle = dict(n=30, n_predictors=2, reps=1, grid_d=16, oracle_size=100)
        run, args = {
            "coverage": (run_coverage_experiment,
                         dict(n=30, b=0.0, nominal=0.9, reps=1, grid_d=16)),
            "rmse": (run_rmse_experiment, oracle),
            "quantile": (run_var_experiment, oracle),
            "entropy": (run_entropy_eval, dict(response=response, exog=[(wind, False)],
                                               day_of_year=doy, day_of_week=dow)),
        }[driver]
        with pytest.raises(UsageError, match=message):
            run(**{**args, **bad})


class TestDriversShareTheEstimator:
    """The drivers' ensemble and binomial-baseline probabilities are the
    public estimators'."""

    def test_rmse_estimates_equal_the_public_estimators(self, monkeypatch):
        seen = []
        monkeypatch.setattr(experiments, "rmse", lambda est, truth: seen.append(np.array(est)) or 0.0)
        seed, n, n_pred, reps, mc = 6, 40, 3, 2, 150
        event = level_set(5.5, 0.5)
        run_rmse_experiment(n=n, n_predictors=n_pred, event=event, methods="gauss,boot,glm,nw",
                            reps=reps, seed=seed, grid_d=16, oracle_size=50, mc_size=mc)

        spec = synthetic_dgp(Grid(16))
        predictors = stationary_predictors(spec, n_pred, _int_seed(seed, _PREDICTORS))
        want = np.empty((4, n_pred, reps))  # methods in the order given: gauss, boot, glm, nw
        for rep in range(reps):
            series = simulate_far_values(spec, n, substream(seed, _SIM, rep))
            sample = build_far_design(series, order=1)[0]
            model = fit(sample, TruncationRule.threshold(), center=True)
            labels = contains_batch(event, sample.y, spec.grid).astype(float)
            glm = fglm_fit(sample.x, labels, model)
            nw = nw_fit(sample.x, labels)
            for j, y0 in enumerate(predictors):
                x = Covariate((Curve(spec.grid, y0),))
                want[0, j, rep] = gauss_prob(model, x, event, mc_size=mc,
                                             seed=_int_seed(seed, _MC, rep)).value
                want[1, j, rep] = boot_prob(model, x, event).value
                want[2, j, rep] = fglm_prob(glm, x.coords())
                want[3, j, rep] = nw_prob(nw, x.coords())
        assert np.mean((0.0 < want) & (want < 1.0)) >= 0.5  # not all indicators
        np.testing.assert_array_equal(np.reshape(seen, want.shape), want)

    def test_var_estimates_equal_quantile_over_family(self, monkeypatch):
        seen = []
        monkeypatch.setattr(experiments, "rmse", lambda est, truth: seen.append(np.array(est)) or 0.0)
        seed, n, n_pred, reps, mc = 4, 40, 3, 2, 150
        run_var_experiment(n=n, n_predictors=n_pred, reps=reps, seed=seed, grid_d=16,
                           oracle_size=50, mc_size=mc, search_hi=8.0)

        spec = synthetic_dgp(Grid(16))
        predictors = stationary_predictors(spec, n_pred, _int_seed(seed, _PREDICTORS))
        family = family_level_in_alpha(0.5, 0.0, 8.0)
        want = np.empty((2, n_pred, reps))  # boot, gauss
        for rep in range(reps):
            series = simulate_far_values(spec, n, substream(seed, _SIM, rep))
            model = fit(build_far_design(series, order=1)[0], TruncationRule.threshold(),
                        center=True)
            for j, y0 in enumerate(predictors):
                for k, m in enumerate(("boot", "gauss")):
                    try:
                        want[k, j, rep] = quantile_over_family(
                            model, Covariate((Curve(spec.grid, y0),)), family, 1.0 - 1.0 / n,
                            method=m,
                            mc_size=mc, seed=_int_seed(seed, _MC, rep))
                    except RangeExhaustedError:
                        want[k, j, rep] = 8.0
        assert 0.0 < np.mean(want < 8.0) < 1.0  # both the search and its fallback ran
        np.testing.assert_array_equal(np.reshape(seen, want.shape), want)

    @pytest.mark.parametrize("driver", [
        lambda **kw: run_rmse_experiment(methods="gauss,boot", **kw),
        run_var_experiment,
    ])
    def test_drivers_draw_gaussian_rows_once_per_replicate(self, monkeypatch, driver):
        calls = []
        draw = GaussSampler.draw_matrix
        monkeypatch.setattr(GaussSampler, "draw_matrix",
                            lambda sampler, count: calls.append(count) or draw(sampler, count))
        driver(n=40, n_predictors=3, reps=2, seed=2, grid_d=16, oracle_size=50, mc_size=60)
        assert calls == [60, 60]

    def test_coverage_hits_equal_bands_on_the_public_path(self, monkeypatch):
        seen = []
        monkeypatch.setattr(experiments, "contains_batch",
                            lambda *args: seen.append(contains_batch(*args)) or seen[-1])
        seed, n, b, nominal, reps, mc = 2, 40, 0.3, 0.8, 12, 150
        report = run_coverage_experiment(n=n, b=b, nominal=nominal, reps=reps, seed=seed,
                                         grid_d=16, mc_size=mc)

        spec = DGPSpec("far_paparoditis", Grid(16), b=b)
        want = []  # per replicate, boot then gauss
        for rep in range(reps):
            series = simulate_far_values(spec, n + 1, substream(seed, _SIM, rep))
            model = fit(build_far_design(series[:n], order=1)[0], TruncationRule.pve(0.85),
                        center=True)
            for m in ("boot", "gauss"):
                x = Covariate((Curve(spec.grid, series[n - 1]),))
                _, band = calibrate_uniform_band(model, x, nominal,
                                                 method=m, mc_size=mc,
                                                 seed=_int_seed(seed, _MC, rep))
                want.append(bool(contains_batch(band, series[n:], spec.grid)[0]))
        assert 0 < sum(want) < len(want)  # some replicates miss
        assert [bool(hit[0]) for hit in seen] == want
        assert report.summary == {"coverage_boot": sum(want[0::2]) / reps,
                                  "coverage_gauss": sum(want[1::2]) / reps}

    def test_rmse_glm_on_a_single_class_replicate_is_the_label_mean(self, monkeypatch):
        # every response curve of replicates 1 and 3 peaks above 6, so no
        # binomial regression fits them; replicates 0 and 2 hold both classes
        seen = []
        monkeypatch.setattr(experiments, "rmse", lambda est, truth: seen.append(np.array(est)) or 0.0)
        seed, n, n_pred, reps = 1, 30, 2, 4
        event = extremal_set(6.0)
        run_rmse_experiment(n=n, n_predictors=n_pred, event=event, methods="glm",
                            reps=reps, seed=seed, grid_d=16, oracle_size=50)

        spec = synthetic_dgp(Grid(16))
        predictors = stationary_predictors(spec, n_pred, _int_seed(seed, _PREDICTORS))
        want = np.empty((n_pred, reps))
        single_class = []
        for rep in range(reps):
            sample = build_far_design(simulate_far_values(spec, n, substream(seed, _SIM, rep)),
                                      order=1)[0]
            labels = contains_batch(event, sample.y, spec.grid).astype(float)
            single_class.append(labels.min() == labels.max())
            if single_class[-1]:
                want[:, rep] = labels.mean()
            else:
                glm = fglm_fit(sample.x, labels, fit(sample, TruncationRule.threshold(),
                                                     center=True))
                want[:, rep] = [fglm_prob(glm, Covariate((Curve(spec.grid, y0),)).coords())
                                for y0 in predictors]
        assert single_class == [False, True, False, True]
        np.testing.assert_array_equal(np.reshape(seen, want.shape), want)

    def test_entropy_probabilities_equal_per_z_event_tests(self, monkeypatch):
        check_entropy_probabilities(monkeypatch, alphas=(45.0, 55.0))

    def test_entropy_probabilities_equal_per_z_event_tests_over_many_alphas(self, monkeypatch):
        # one column table per method serves every alpha
        check_entropy_probabilities(monkeypatch, alphas=(42.0, 48.0, 52.0, 58.0))

    def test_entropy_eval_builds_test_distances_once_per_split(self, monkeypatch):
        calls = []
        build = baselines.cross_distances

        def counted(train, queries):
            calls.append(len(queries))
            return build(train, queries)

        # the baselines' own name covers per-query nw_prob calls
        monkeypatch.setattr(baselines, "cross_distances", counted)
        monkeypatch.setattr(experiments, "cross_distances", counted)
        response, wind, doy, dow = entropy_series()
        report = run_entropy_eval(response, [(wind, False)], day_of_year=doy, day_of_week=dow,
                                  ar_order=2, alphas=(45.0, 55.0), methods="nw")
        assert calls == [report.rows[0][4]]  # one call holding every test day

    def test_entropy_eval_draws_gaussian_rows_once(self, monkeypatch):
        calls = []
        draw = GaussSampler.draw_matrix
        monkeypatch.setattr(GaussSampler, "draw_matrix",
                            lambda sampler, count: calls.append(count) or draw(sampler, count))
        response, wind, doy, dow = entropy_series()
        run_entropy_eval(response, [(wind, False)], day_of_year=doy, day_of_week=dow,
                         ar_order=2, alphas=(45.0, 55.0), methods="gauss", mc_size=50)
        assert calls == [50]

    @pytest.mark.parametrize("z", [-0.1, 1.5, np.inf, -np.inf, np.nan])
    def test_entropy_rejects_a_time_budget_outside_the_unit_interval(self, z):
        response, wind, doy, dow = entropy_series()
        with pytest.raises(UsageError, match="time budget z must lie in"):
            run_entropy_eval(response, [(wind, False)], day_of_year=doy, day_of_week=dow,
                             zs=(0.0, z))

    def test_entropy_reads_a_one_shot_iterable_of_time_budgets(self):
        response, wind, doy, dow = entropy_series()
        kwargs = dict(day_of_year=doy, day_of_week=dow, alphas=(50.0,), methods="glm",
                      mc_size=50)
        once = run_entropy_eval(response, [(wind, False)], zs=(z for z in (0.5, 0.0)), **kwargs)
        listed = run_entropy_eval(response, [(wind, False)], zs=[0.0, 0.5], **kwargs)
        assert once.rows and once.rows == listed.rows


def entropy_series(n=90):
    """n days of a seasonal response on an 8-interval grid, one exogenous
    series and the day indices."""
    grid = Grid(8)
    rng = np.random.default_rng(4)
    base = 50.0 + 8.0 * np.sin(2 * np.pi * np.arange(n) / 30)
    response = [Curve(grid, b + 4.0 * rng.normal(size=grid.size)) for b in base]
    wind = [Curve(grid, rng.normal(size=grid.size)) for _ in range(n)]
    return response, wind, np.arange(n), np.arange(n) % 7


def check_entropy_probabilities(monkeypatch, alphas):
    """Every cross-entropy cell of run_entropy_eval sees the labels and
    probabilities of a direct per-day, per-z evaluation."""
    response, wind, doy, dow = entropy_series()
    grid = response[0].grid
    seen = []
    real_cross_entropy = experiments.cross_entropy
    monkeypatch.setattr(experiments, "cross_entropy", lambda labels, probs: (
        seen.append((np.array(labels), np.array(probs))) or real_cross_entropy(labels, probs)))
    seed, mc, order = 9, 200, 2
    zs = (0.0, 0.25, 1.0 / 3, 0.5, 1.0)
    run_entropy_eval(response, [(wind, False)], day_of_year=doy, day_of_week=dow,
                     ar_order=order, alphas=alphas, zs=zs, methods="gauss,boot,glm,nw",
                     seed=seed, mc_size=mc)

    # reference: each day's ensemble tested against level_set(alpha, z) per z
    adjusted = deseasonalize(response, doy, dow, weekly=True)
    sample, positions = build_far_design(
        adjusted.adjusted, order, [deseasonalize(wind, doy, dow, weekly=False).adjusted])
    n_test = int(round(len(sample) * (1.0 / 3)))
    test_ids = np.sort(substream(seed, _SPLIT).choice(len(sample), size=n_test, replace=False))
    train_ids = np.setdiff1d(np.arange(len(sample)), test_ids)
    model = fit(replace(sample, y=sample.y[train_ids], x=sample.x[train_ids]),
                TruncationRule.pve(0.98), center=True)
    noise = {"gauss": noise_sampler(model, _int_seed(seed, _MC)).draw_matrix(mc),
             "boot": model.residual_matrix}
    days = [positions[i] for i in test_ids]
    train_days = [positions[i] for i in train_ids]
    cells = iter(seen)
    fitted = 0
    for alpha in alphas:
        for z in zs:
            event = level_set(alpha, z)
            labels = contains_batch(event, [response[k].values for k in days], grid)
            train_labels = contains_batch(
                event, [response[k].values for k in train_days], grid).astype(float)
            for m in ("gauss", "boot"):
                probs = [np.count_nonzero(contains_batch(
                    event, predict_coords(model, sample.x[i]) + noise[m]
                    + adjusted.seasonal_values(k), grid)) / len(noise[m])
                    for i, k in zip(test_ids, days)]
                got_labels, got_probs = next(cells)
                np.testing.assert_array_equal(got_labels, labels)
                np.testing.assert_array_equal(got_probs, probs)
            if train_labels.min() == train_labels.max():  # one class: the label mean
                glm_probs = np.full(len(test_ids), train_labels.mean())
            else:
                glm = fglm_fit(sample.x[train_ids], train_labels, model)
                glm_probs = [fglm_prob(glm, sample.x[i]) for i in test_ids]
                fitted += 1
            np.testing.assert_array_equal(next(cells)[1], glm_probs)
            nw = nw_fit(sample.x[train_ids], train_labels)
            np.testing.assert_array_equal(next(cells)[1],
                                          [nw_prob(nw, sample.x[i]) for i in test_ids])
    assert next(cells, None) is None
    assert 0 < fitted < len(alphas) * len(zs)  # both glm paths ran


class TestSeriesStayMatrices:
    """Curve objects are built at the edges of a run only, so a longer
    series builds no more of them."""

    @staticmethod
    def count_curves(monkeypatch) -> list:
        calls = []
        original = Curve.__post_init__
        monkeypatch.setattr(Curve, "__post_init__",
                            lambda self: calls.append(1) or original(self))
        return calls

    def test_entropy_eval(self, monkeypatch):
        calls = self.count_curves(monkeypatch)
        built = []
        for n in (120, 240):
            response, wind, doy, dow = entropy_series(n)
            before = len(calls)
            run_entropy_eval(response, [(wind, False)], day_of_year=doy, day_of_week=dow,
                             ar_order=2, alphas=(50.0,), methods="boot,gauss,glm,nw",
                             mc_size=50)
            built.append(len(calls) - before)
        assert built[0] == built[1]

    def test_coverage_replicate(self, monkeypatch):
        calls = self.count_curves(monkeypatch)
        built = []
        for n in (50, 100):
            before = len(calls)
            run_coverage_experiment(n=n, b=0.0, nominal=0.9, reps=1, grid_d=16, mc_size=50)
            built.append(len(calls) - before)
        assert built[0] == built[1]


class TestSyntheticNoiseBasis:
    def test_from_spectrum_matches_sampler_contract(self):
        # the basis rows are L2-orthonormal, so in weighted coordinates they
        # are the eigenvectors a Karhunen-Loeve sampler of that kernel uses
        grid = Grid(25)
        lam, basis = synthetic_noise_basis(grid)
        spectrum = SpectralPair(lam, (basis * grid.quad_weights_sqrt()).T)
        draws = GaussSampler(grid, spectrum, 0).draw_matrix(3000)
        target = (basis.T * lam) @ basis
        emp = draws.T @ draws / len(draws)
        peak_var = float(np.max(np.diag(target)))
        assert np.max(np.abs(emp - target)) <= 5 * peak_var / np.sqrt(len(draws))


class TestMetrics:
    def test_cross_entropy_examples(self):
        assert cross_entropy([1.0], [0.5]) == pytest.approx(np.log(2))
        assert cross_entropy([1.0, 0.0], [1.0, 0.0]) == pytest.approx(0.0, abs=1e-10)
        assert cross_entropy([1.0], [0.25]) == pytest.approx(np.log(4))

    def test_cross_entropy_length_mismatch(self):
        with pytest.raises(UsageError):
            cross_entropy([1.0, 0.0], [0.5])

    def test_rmse_and_se(self):
        assert rmse([1.0, 3.0], 2.0) == pytest.approx(1.0)
        assert binomial_se(0.5, 100) == pytest.approx(0.05)


class TestDeseasonalize:
    def grid(self):
        return Grid(8)

    def test_constant_series_vanishes(self):
        g = self.grid()
        n = 42
        series = [Curve.constant(g, 5.0)] * n
        doy = np.arange(n)
        dow = np.arange(n) % 7
        result = deseasonalize(series, doy, dow, weekly=True)
        for row in result.adjusted:
            np.testing.assert_allclose(row, 0.0, atol=1e-12)

    def test_pure_weekday_pattern_removed(self):
        # two full 21-day windows of a weekly pattern, flat yearly component
        g = self.grid()
        n = 42
        pattern = {k: float(k) - 3.0 for k in range(7)}
        doy = np.arange(n)
        dow = np.arange(n) % 7
        series = [Curve.constant(g, 10.0 + pattern[d]) for d in dow]
        result = deseasonalize(series, doy, dow, weekly=True)
        # oracle: subtracting the known pattern and grand level directly
        for row in result.adjusted:
            assert np.max(np.abs(row)) <= 1e-8

    def test_weekly_flag_off_subtracts_yearly_only(self):
        g = self.grid()
        n = 28
        doy = np.arange(n)
        dow = np.arange(n) % 7
        rng = np.random.default_rng(8)
        series = [Curve(g, rng.normal(size=g.size)) for _ in range(n)]
        result = deseasonalize(series, doy, dow, weekly=False)
        for i, row in enumerate(result.adjusted):
            np.testing.assert_allclose(
                row, series[i].values - result.yearly[doy[i]], atol=1e-12
            )
        assert result.weekly is None

    def test_missing_days_are_interpolated(self):
        g = self.grid()
        doy = np.array([0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26])
        dow = np.arange(len(doy)) % 7
        series = [Curve.constant(g, float(d)) for d in doy]
        result = deseasonalize(series, doy, dow, weekly=False, window=3)
        assert np.all(np.isfinite(result.yearly))

    def test_misaligned_indices(self):
        g = self.grid()
        series = [Curve.constant(g, 1.0)] * 5
        with pytest.raises(UsageError):
            deseasonalize(series, np.arange(4), np.arange(5) % 7)

    def test_matrix_input_gives_the_curve_list_result(self):
        g = self.grid()
        n = 35
        rng = np.random.default_rng(10)
        series = [Curve(g, rng.normal(size=g.size)) for _ in range(n)]
        doy, dow = np.arange(n), np.arange(n) % 7
        from_list = deseasonalize(series, doy, dow, weekly=True)
        from_matrix = deseasonalize(np.asarray([c.values for c in series]), doy, dow, weekly=True)
        np.testing.assert_array_equal(from_matrix.adjusted, from_list.adjusted)
        assert from_list.adjusted.shape == (n, g.size)
        assert not from_list.adjusted.flags.writeable

    def test_overflowing_seasonal_means_are_rejected(self):
        n = 40
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(StructureError, match="curve values must be finite"):
            deseasonalize(np.full((n, 9), 1e308), np.arange(n), np.arange(n) % 7)

    def test_seasonal_values_reconstruct_input(self):
        g = self.grid()
        n = 35
        rng = np.random.default_rng(9)
        series = [Curve(g, rng.normal(size=g.size)) for _ in range(n)]
        doy = np.arange(n)
        dow = np.arange(n) % 7
        result = deseasonalize(series, doy, dow, weekly=True)
        for i in range(n):
            rebuilt = result.adjusted[i] + result.seasonal_values(i)
            np.testing.assert_allclose(rebuilt, series[i].values, atol=1e-12)


class TestCurveIO:
    def test_round_trip_is_bitwise(self, tmp_path):
        g = Grid(17)
        rng = np.random.default_rng(3)
        curves = [Curve(g, rng.normal(size=g.size) * 10.0 ** rng.integers(-8, 8))
                  for _ in range(10)]
        path = tmp_path / "curves.csv"
        save_curves(curves, path)
        loaded = load_curves(path)
        assert len(loaded) == 10
        for a, b in zip(curves, loaded):
            np.testing.assert_array_equal(a.values, b)

    def test_ragged_row_names_location(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.0,0.5,1.0\n1.0,2.0,3.0\n1.0,2.0\n", encoding="utf-8")
        with pytest.raises(ParseError, match="row 3"):
            load_curves(path)

    def test_non_numeric_cell_names_location(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.0,0.5,1.0\n1.0,oops,3.0\n", encoding="utf-8")
        with pytest.raises(ParseError, match="row 2"):
            load_curves(path)

    def test_hand_written_header_loads(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1\n" + ",".join(["2.5"] * 11)
                        + "\n", encoding="utf-8")
        (curve,) = load_curves(path)
        assert curve.shape == (Grid(10).size,)

    @pytest.mark.parametrize("header, column", [
        ("0.0,t,1.0", 2),
        ("0.0,0.25,1.0", 2),
        ("0.0,0.5,1.000001", 3),
        ("0.0,nan,1.0", 2),
    ])
    def test_header_off_the_uniform_grid_names_location(self, tmp_path, header, column):
        path = tmp_path / "bad.csv"
        path.write_text(header + "\n1.0,2.0,3.0\n", encoding="utf-8")
        with pytest.raises(ParseError, match=rf"row 1, column {column}\)"):
            load_curves(path)

    def test_empty_file_is_an_empty_matrix(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        assert load_curves(path).shape == (0, 0)

    def test_header_only_file_is_a_matrix_without_rows(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("0.0,0.25,0.5,0.75,1.0\n", encoding="utf-8")
        assert load_curves(path).shape == (0, 5)

    def test_a_nan_cell_is_not_a_finite_curve(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("0.0,0.5,1.0\n1.0,2.0,3.0\n1.0,nan,3.0\n", encoding="utf-8")
        with pytest.raises(StructureError, match="curve values must be finite"):
            load_curves(path)

    def test_a_curve_list_and_its_matrix_save_the_same_bytes(self, tmp_path):
        g = Grid(6)
        rng = np.random.default_rng(12)
        curves = [Curve(g, rng.normal(size=g.size) * 1e-5) for _ in range(4)]
        listed, stacked = tmp_path / "listed.csv", tmp_path / "stacked.csv"
        save_curves(curves, listed)
        save_curves(np.asarray([c.values for c in curves]), stacked)
        assert listed.read_bytes() == stacked.read_bytes()
        np.testing.assert_array_equal(load_curves(stacked), [c.values for c in curves])

    def test_index_loading(self, tmp_path):
        path = tmp_path / "idx.csv"
        path.write_text("0\n1\n2\n", encoding="utf-8")
        np.testing.assert_array_equal(load_index(path), [0, 1, 2])
        path.write_text("0\nx\n", encoding="utf-8")
        with pytest.raises(ParseError):
            load_index(path)
