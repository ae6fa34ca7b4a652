from dataclasses import replace

import numpy as np
import pytest

from curveprob.baselines import fglm_fit, fglm_prob, nw_fit, nw_prob
from curveprob.conddist import GaussSampler, boot_prob, gauss_prob, noise_sampler
from curveprob.curves import Covariate, Curve, Grid
from curveprob.errors import ParseError, UsageError
from curveprob.harness.dgp import (
    DGPSpec,
    brownian_matrix,
    conditional_draws,
    conditional_mean,
    gaussian_iid_dgp,
    kernel_matrix,
    mean_values,
    paparoditis_dgp,
    simulate_brownian,
    simulate_far,
    synthetic_dgp,
    stationary_predictors,
    synthetic_noise_basis,
)
from curveprob.events import contains_batch, extremal_set, level_set
from curveprob.flm import TruncationRule, build_far_design, fit, predict_coords
from curveprob.harness import experiments
from curveprob.harness.experiments import (
    _MC,
    _PREDICTORS,
    _SIM,
    _SPLIT,
    _int_seed,
    oracle_level_quantile,
    run_entropy_eval,
    run_rmse_experiment,
)
from curveprob.harness.io import load_curves, load_index, save_curves
from curveprob.harness.metrics import binomial_se, cross_entropy, rmse
from curveprob.harness.seasonal import deseasonalize
from curveprob.rng import substream
from curveprob.spectral import SpectralPair


class TestBrownian:
    def test_starts_at_zero(self):
        for seed in range(5):
            assert simulate_brownian(Grid(50), seed=seed).values[0] == 0.0

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
        grid = Grid(40)
        spec = DGPSpec(kind="far_paparoditis", grid=grid, burn_in=0, kernel_scale=0.0)
        series = simulate_far(spec, 5, seed=3)
        reference = brownian_matrix(grid, 5, substream(3))
        for curve, row in zip(series, reference):
            np.testing.assert_array_equal(curve.values, row)

    def test_zero_kernel_zero_noise_is_flat(self):
        grid = Grid(40)
        spec = DGPSpec(kind="far_paparoditis", grid=grid, burn_in=2,
                       kernel_scale=0.0, noise_scale=0.0)
        for curve in simulate_far(spec, 4, seed=1):
            np.testing.assert_array_equal(curve.values, 0.0)

    def test_lag_one_dependence_is_positive(self):
        grid = Grid(60)
        spec = paparoditis_dgp(grid, b=0.0, burn_in=50, seed=5)
        series = simulate_far(spec, 200)
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
        spec = paparoditis_dgp(Grid(30), b=0.4, seed=9)
        a = simulate_far(spec, 10)
        b = simulate_far(spec, 10)
        for ca, cb in zip(a, b):
            np.testing.assert_array_equal(ca.values, cb.values)

    def test_second_lag_changes_the_path(self):
        grid = Grid(30)
        a = simulate_far(paparoditis_dgp(grid, b=0.0, seed=2), 10)
        b = simulate_far(paparoditis_dgp(grid, b=0.4, seed=2), 10)
        assert any(np.max(np.abs(x.values - y.values)) > 1e-8 for x, y in zip(a, b))

    def test_synthetic_mean_level(self):
        spec = synthetic_dgp(Grid(50), seed=21)
        series = simulate_far(spec, 400)
        grand_mean = np.mean([c.values for c in series], axis=0)
        np.testing.assert_allclose(grand_mean, mean_values(spec), atol=0.5)

    def test_kernel_is_asymmetric_for_synthetic(self):
        k = kernel_matrix(synthetic_dgp(Grid(20)))
        assert np.max(np.abs(k - k.T)) > 0.1

    def test_bad_kind_rejected(self):
        with pytest.raises(UsageError):
            DGPSpec(kind="nope", grid=Grid(10))


class TestConditionalOracle:
    def test_conditional_mean_matches_recursion_without_noise(self):
        grid = Grid(30)
        spec = synthetic_dgp(grid, seed=4)
        prev = simulate_far(spec, 1, seed=11)[0]
        silent = DGPSpec(kind="far_synthetic", grid=grid, burn_in=0, noise_scale=0.0)
        # one recursion step from prev with no noise equals the conditional mean
        mu = mean_values(spec)
        step_input = prev.values - mu
        manual = mu + (kernel_matrix(silent) * grid.quad_weights()) @ step_input
        np.testing.assert_allclose(conditional_mean(spec, prev).values, manual, atol=1e-12)

    def test_two_lag_conditional_mean_is_refused(self):
        spec = paparoditis_dgp(Grid(20), b=0.4)
        with pytest.raises(UsageError):
            conditional_mean(spec, Curve.constant(Grid(20), 0.0))

    def test_conditional_draws_center_on_conditional_mean(self):
        spec = synthetic_dgp(Grid(30), seed=6)
        prev = simulate_far(spec, 1, seed=13)[0]
        draws = conditional_draws(spec, prev, 4000, seed=17)
        np.testing.assert_allclose(
            draws.mean(axis=0), conditional_mean(spec, prev).values, atol=0.1
        )


    @pytest.mark.parametrize("grid_d, z, p", [(99, 0.57, 0.9), (99, 0.57, 0.5), (100, 0.5, 0.99)])
    def test_oracle_level_quantile_is_where_the_fraction_reaches_p(self, grid_d, z, p):
        # brute force on the same draws: the fraction of draws in the level
        # event reaches p at the oracle quantile and not one double below it
        # (at 100 points and z=0.57 the event admits 57 exceedances, while
        # floor(0.57 * 100) is 56)
        spec = synthetic_dgp(Grid(grid_d), seed=2)
        prev = simulate_far(spec, 1, seed=5)[0]
        draws = conditional_draws(spec, prev, 1000, seed=9)
        xi = oracle_level_quantile(spec, prev, p, z, 1000, seed=9)

        def fraction(alpha):
            return np.mean(contains_batch(level_set(alpha, z), draws, spec.grid))

        assert fraction(xi) >= p
        assert fraction(np.nextafter(xi, -np.inf)) < p


class TestDriversShareTheEstimator:
    """The drivers' ensemble and binomial-baseline probabilities are the
    public estimators'."""

    def test_rmse_estimates_equal_the_public_estimators(self, monkeypatch):
        seen = []
        monkeypatch.setattr(experiments, "rmse", lambda est, truth: seen.append(np.array(est)) or 0.0)
        seed, n, n_pred, reps, mc = 6, 40, 3, 2, 150
        event = level_set(5.5, 0.5)
        run_rmse_experiment(n=n, n_predictors=n_pred, event=event, methods="gauss,boot,glm",
                            reps=reps, seed=seed, grid_d=16, oracle_size=50, mc_size=mc)

        spec = synthetic_dgp(Grid(16))
        predictors = stationary_predictors(spec, n_pred, _int_seed(seed, _PREDICTORS))
        want = np.empty((3, n_pred, reps))  # methods in the order given: gauss, boot, glm
        for rep in range(reps):
            series = simulate_far(spec, n, rng=substream(seed, _SIM, rep))
            sample = build_far_design(series, order=1)[0]
            model = fit(sample, TruncationRule.threshold(), center=True)
            glm = fglm_fit(sample.x, contains_batch(event, sample.y, spec.grid).astype(float),
                           model)
            for j, y0 in enumerate(predictors):
                x = Covariate((y0,))
                want[0, j, rep] = gauss_prob(model, x, event, mc_size=mc,
                                             seed=_int_seed(seed, _MC, rep)).value
                want[1, j, rep] = boot_prob(model, x, event).value
                want[2, j, rep] = fglm_prob(glm, x.coords())
        assert np.mean((0.0 < want) & (want < 1.0)) >= 0.5  # not all indicators
        np.testing.assert_array_equal(np.reshape(seen, want.shape), want)

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
            sample = build_far_design(simulate_far(spec, n, rng=substream(seed, _SIM, rep)),
                                      order=1)[0]
            labels = contains_batch(event, sample.y, spec.grid).astype(float)
            single_class.append(labels.min() == labels.max())
            if single_class[-1]:
                want[:, rep] = labels.mean()
            else:
                glm = fglm_fit(sample.x, labels, fit(sample, TruncationRule.threshold(),
                                                     center=True))
                want[:, rep] = [fglm_prob(glm, Covariate((y0,)).coords()) for y0 in predictors]
        assert single_class == [False, True, False, True]
        np.testing.assert_array_equal(np.reshape(seen, want.shape), want)

    def test_entropy_probabilities_equal_per_z_event_tests(self, monkeypatch):
        check_entropy_probabilities(monkeypatch, alphas=(45.0, 55.0))

    def test_entropy_probabilities_equal_per_z_event_tests_over_many_alphas(self, monkeypatch):
        # one column table per method serves every alpha
        check_entropy_probabilities(monkeypatch, alphas=(42.0, 48.0, 52.0, 58.0))

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


def entropy_series():
    """90 days of a seasonal response on an 8-interval grid, one exogenous
    series and the day indices."""
    grid = Grid(8)
    rng = np.random.default_rng(4)
    n = 90
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


class TestSyntheticNoiseBasis:
    def test_from_spectrum_matches_sampler_contract(self):
        # the basis rows are L2-orthonormal, so in weighted coordinates they
        # are the eigenvectors a Karhunen-Loeve sampler of that kernel uses
        grid = Grid(25)
        lam, basis = synthetic_noise_basis(grid)
        spectrum = SpectralPair(lam, (basis * grid.quad_weights_sqrt()).T)
        draws = GaussSampler.from_spectrum(grid, spectrum, 0).draw_matrix(3000)
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
        for c in result.adjusted:
            np.testing.assert_allclose(c.values, 0.0, atol=1e-12)

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
        for c in result.adjusted:
            assert np.max(np.abs(c.values)) <= 1e-8

    def test_weekly_flag_off_subtracts_yearly_only(self):
        g = self.grid()
        n = 28
        doy = np.arange(n)
        dow = np.arange(n) % 7
        rng = np.random.default_rng(8)
        series = [Curve(g, rng.normal(size=g.size)) for _ in range(n)]
        result = deseasonalize(series, doy, dow, weekly=False)
        for i, c in enumerate(result.adjusted):
            np.testing.assert_allclose(
                c.values, series[i].values - result.yearly[doy[i]], atol=1e-12
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

    def test_seasonal_values_reconstruct_input(self):
        g = self.grid()
        n = 35
        rng = np.random.default_rng(9)
        series = [Curve(g, rng.normal(size=g.size)) for _ in range(n)]
        doy = np.arange(n)
        dow = np.arange(n) % 7
        result = deseasonalize(series, doy, dow, weekly=True)
        for i in range(n):
            rebuilt = result.adjusted[i].values + result.seasonal_values(i)
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
            np.testing.assert_array_equal(a.values, b.values)

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
        assert curve.grid == Grid(10)

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

    def test_empty_file_is_empty_list(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        assert load_curves(path) == []

    def test_index_loading(self, tmp_path):
        path = tmp_path / "idx.csv"
        path.write_text("0\n1\n2\n", encoding="utf-8")
        np.testing.assert_array_equal(load_index(path), [0, 1, 2])
        path.write_text("0\nx\n", encoding="utf-8")
        with pytest.raises(ParseError):
            load_index(path)
