import dataclasses
import json

import numpy as np
import pytest

from curveprob.curves import Covariate, Curve, Grid
from curveprob.errors import DegenerateInputError, StructureError, UsageError
from curveprob.conddist import ensemble_noise, gauss_prob, noise_sampler
from curveprob.events import extremal_set
from curveprob.flm import (
    FittedFLM,
    RegressionSample,
    TruncationRule,
    _noise_pairs,
    _rank_k_operator,
    build_far_design,
    fit,
    from_json,
    predict,
    predict_coords,
    to_json,
)
from curveprob.harness.dgp import simulate_far, synthetic_dgp
from curveprob.spectral import SpectralPair

from model_doc import MATRICES, NOISE, decode, edit_matrix, encode, set_cell

GRID = Grid(40)


def curve_from(fn):
    return Curve(GRID, np.asarray([fn(t) for t in GRID.points]))


def rank_two_pairs(n=20, noise=0.0, seed=0):
    """Responses are a fixed rank-2 linear image of the covariates."""
    rng = np.random.default_rng(seed)
    f1 = curve_from(lambda t: np.cos(2 * np.pi * t))
    f2 = curve_from(lambda t: 1.0)
    e1 = curve_from(lambda t: np.sin(2 * np.pi * t))
    e2 = curve_from(lambda t: t)
    xs, ys = [], []
    for _ in range(n):
        a, b = rng.normal(size=2)
        x = Curve(GRID, a * f1.values + b * f2.values)
        y = a * e1.values + b * e2.values
        if noise:
            y = y + noise * rng.normal(size=GRID.size)
        xs.append(Covariate((x,)))
        ys.append(Curve(GRID, y))
    return ys, xs


def rank_two_dataset(n=20, noise=0.0, seed=0):
    return RegressionSample.from_pairs(*rank_two_pairs(n, noise, seed))


class TestFitExactRecovery:
    def test_noiseless_rank_two_interpolates(self):
        model = fit(rank_two_dataset(), TruncationRule.fixed(2), center=True)
        assert model.n_components == 2
        assert np.max(np.abs(model.residual_matrix)) <= 1e-8

    def test_in_sample_prediction_matches_response(self):
        ys, xs = rank_two_pairs()
        model = fit(RegressionSample.from_pairs(ys, xs), TruncationRule.fixed(2))
        for y, x in zip(ys, xs):
            np.testing.assert_allclose(predict(model, x).values, y.values, atol=1e-8)

    def test_residuals_equal_y_minus_predict_bitwise(self):
        ys, xs = rank_two_pairs(noise=0.3, seed=2)
        model = fit(RegressionSample.from_pairs(ys, xs), TruncationRule.fixed(2))
        for k, (y, x) in enumerate(zip(ys, xs)):
            np.testing.assert_array_equal(
                model.residual_matrix[k], y.values - predict(model, x).values
            )


class TestRankOneRecovery:
    def test_recovers_unit_norm_direction(self):
        # x alternates +-f with ||f|| = 1, y = e <x, f>; the fitted operator
        # applied to f must return e
        sw = GRID.quad_weights_sqrt()
        f_vals = np.cos(2 * np.pi * GRID.points)
        f_vals = f_vals / np.sqrt(np.sum((f_vals * sw) ** 2))
        f = Curve(GRID, f_vals)
        e = curve_from(lambda t: np.sin(2 * np.pi * t))
        xs, ys = [], []
        for k in range(10):
            sign = 1.0 if k % 2 == 0 else -1.0
            xs.append(Covariate((Curve(GRID, sign * f.values),)))
            ys.append(Curve(GRID, sign * e.values))
        model = fit(RegressionSample.from_pairs(ys, xs), TruncationRule.fixed(1),
                    center=False)
        got = predict(model, Covariate((f,)))
        np.testing.assert_allclose(got.values, e.values, atol=1e-6)

    def test_single_component_fit_is_score_regression(self):
        # oracle: with one retained direction the operator is the least
        # squares regression of the responses on the first principal score
        ys, xs = rank_two_pairs(n=60, noise=0.5, seed=5)
        model = fit(RegressionSample.from_pairs(ys, xs), TruncationRule.fixed(1), center=True)

        x = np.asarray([cv.coords() for cv in xs])
        y = np.asarray([cu.values for cu in ys])
        xc = x - x.mean(axis=0)
        yc = y - y.mean(axis=0)
        v1 = model.covariate_spectrum.eigenvectors[:, 0]
        scores = xc @ v1
        slope = (scores @ yc) / (scores @ scores)  # lstsq oracle, per grid point

        probe = xs[0]
        got = predict(model, probe).values
        score_probe = (probe.coords() - x.mean(axis=0)) @ v1
        want = y.mean(axis=0) + slope * score_probe
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_uncorrelated_score_gives_null_operator(self):
        # responses built from noise independent of the covariates: the
        # single-component operator is pure sampling noise, bounded by a
        # Monte-Carlo estimate of the score-regression error
        rng = np.random.default_rng(6)
        n = 200
        xs, ys = [], []
        for _ in range(n):
            xs.append(Covariate((Curve(GRID, rng.normal(size=GRID.size)),)))
            ys.append(Curve(GRID, rng.normal(size=GRID.size)))
        model = fit(RegressionSample.from_pairs(ys, xs), TruncationRule.fixed(1))
        # slope se per point ~ sd(y) / (sqrt(n) * sd(score)); allow 6 sigma
        lam1 = model.covariate_spectrum.eigenvalues[0]
        bound = 6.0 / np.sqrt(n * lam1)
        sw = GRID.quad_weights_sqrt()
        operator_max = np.max(np.abs(model.coef_w / sw[:, None]))
        assert operator_max <= bound


class TestPredict:
    def test_mean_covariate_maps_to_mean_response(self):
        ys, xs = rank_two_pairs(noise=0.4, seed=3)
        model = fit(RegressionSample.from_pairs(ys, xs), TruncationRule.fixed(2), center=True)
        mean_cov = Covariate((Curve(GRID, np.asarray(
            [c.curve_parts[0].values for c in xs]).mean(axis=0)),))
        y_mean = np.asarray([c.values for c in ys]).mean(axis=0)
        np.testing.assert_allclose(predict(model, mean_cov).values, y_mean, atol=1e-10)

    def test_linearity(self):
        sample = rank_two_dataset(noise=0.2, seed=4)
        model = fit(sample, TruncationRule.fixed(2), center=True)
        rng = np.random.default_rng(0)
        a = Covariate((Curve(GRID, rng.normal(size=GRID.size)),))
        b = Covariate((Curve(GRID, rng.normal(size=GRID.size)),))
        zero = Covariate((Curve.constant(GRID, 0.0),))
        a_plus_b = Curve(GRID, a.curve_parts[0].values + b.curve_parts[0].values)
        lhs = predict(model, Covariate((a_plus_b,))).values \
            - predict(model, zero).values
        rhs = (predict(model, a).values - predict(model, zero).values) \
            + (predict(model, b).values - predict(model, zero).values)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_structure_mismatch(self):
        model = fit(rank_two_dataset(), TruncationRule.fixed(2))
        with pytest.raises(StructureError):
            predict(model, Covariate((), (1.0,)))


class TestFitValidation:
    def test_degenerate_covariates(self):
        ys = tuple(Curve.constant(GRID, float(k)) for k in range(4))
        xs = tuple(Covariate((Curve.constant(GRID, 1.0),)) for _ in range(4))
        with pytest.raises(DegenerateInputError):
            fit(RegressionSample.from_pairs(ys, xs), TruncationRule.fixed(1), center=True)

    def test_centered_residuals_average_to_zero(self):
        sample = rank_two_dataset(n=30, noise=0.5, seed=9)
        model = fit(sample, TruncationRule.fixed(1), center=True)
        np.testing.assert_allclose(model.residual_matrix.mean(axis=0), 0.0, atol=1e-10)

    def test_dof_correction_scales_noise_spectrum(self):
        sample = rank_two_dataset(n=20, noise=0.5, seed=10)
        plain = fit(sample, TruncationRule.fixed(2))
        corrected = fit(sample, TruncationRule.fixed(2), dof_correction=True)
        ratio = corrected.noise_spectrum.eigenvalues[0] / plain.noise_spectrum.eigenvalues[0]
        assert ratio == pytest.approx(20 / 18)


class TestConsistencySurrogates:
    def test_prediction_error_decreases_with_n(self):
        # median in- and out-of-sample errors over 100 replications drop
        # as the sample grows
        grid = Grid(20)
        t = grid.points
        f1 = np.cos(2 * np.pi * t)
        f2 = np.ones_like(t)
        e1 = np.sin(2 * np.pi * t)
        e2 = t.copy()
        sw = grid.quad_weights_sqrt()

        def true_response(x_vals):
            a = np.sum(x_vals * f1 * grid.quad_weights())
            b = np.sum(x_vals * f2 * grid.quad_weights())
            return a * e1 / np.sum(f1 * f1 * grid.quad_weights()) + b * e2 / np.sum(
                f2 * f2 * grid.quad_weights()
            )

        def l2(vals):
            return float(np.sqrt(np.sum((vals * sw) ** 2)))

        sizes = (50, 200, 800)
        in_sample = {n: [] for n in sizes}
        out_sample = {n: [] for n in sizes}
        rng = np.random.default_rng(42)
        for rep in range(100):
            for n in sizes:
                xs, ys = [], []
                for _ in range(n):
                    a, b = rng.normal(size=2)
                    x_vals = a * f1 + b * f2
                    xs.append(Covariate((Curve(grid, x_vals),)))
                    ys.append(Curve(grid, true_response(x_vals)
                                    + 0.5 * rng.normal(size=grid.size)))
                model = fit(RegressionSample.from_pairs(ys, xs),
                            TruncationRule.fixed(2))
                k = int(rng.integers(n))
                xk = xs[k]
                in_sample[n].append(
                    l2(predict(model, xk).values - true_response(
                        xk.curve_parts[0].values)))
                af, bf = rng.normal(size=2)
                fresh_vals = af * f1 + bf * f2
                out_sample[n].append(
                    l2(predict(model, Covariate((Curve(grid, fresh_vals),))).values
                       - true_response(fresh_vals)))
        med_in = [np.median(in_sample[n]) for n in sizes]
        med_out = [np.median(out_sample[n]) for n in sizes]
        assert med_in[0] > med_in[1] > med_in[2]
        assert med_out[0] > med_out[1] > med_out[2]


class TestFarDesign:
    def test_order_one_pairs(self):
        g = Grid(4)
        c1, c2, c3 = (Curve.constant(g, float(k)) for k in (1, 2, 3))
        sample, positions = build_far_design([c1, c2, c3], order=1)
        sw = g.quad_weights_sqrt()
        assert len(sample) == 2
        np.testing.assert_array_equal(sample.y, [c2.values, c3.values])
        np.testing.assert_array_equal(sample.x, [c1.values * sw, c2.values * sw])
        assert positions == (1, 2)

    def test_order_two_single_pair(self):
        g = Grid(4)
        c1, c2, c3 = (Curve.constant(g, float(k)) for k in (1, 2, 3))
        with pytest.raises(UsageError):
            # the design itself is fine, but it holds one pair and the
            # regression needs two
            sample, _ = build_far_design([c1, c2, c3], order=2)
            fit(sample, TruncationRule.fixed(1))

    def test_order_two_lag_order(self):
        g = Grid(4)
        curves = [Curve.constant(g, float(k)) for k in (1, 2, 3, 4)]
        sample, _ = build_far_design(curves, order=2)
        sw = g.quad_weights_sqrt()
        # covariate of response 3 is (lag1=2, lag2=1)
        np.testing.assert_array_equal(sample.y[0], curves[2].values)
        np.testing.assert_array_equal(sample.x[0, :g.size], curves[1].values * sw)
        np.testing.assert_array_equal(sample.x[0, g.size:], curves[0].values * sw)

    def test_exogenous_parts_are_same_position(self):
        g = Grid(4)
        series = [Curve.constant(g, float(k)) for k in range(5)]
        exog = [Curve.constant(g, 10.0 + k) for k in range(5)]
        sample, positions = build_far_design(series, order=1, exog=[exog])
        sw = g.quad_weights_sqrt()
        assert sample.structure == (2, g.resolution, 0)
        for pair_idx, k in enumerate(positions):
            lag, same = sample.x[pair_idx].reshape(2, g.size)
            np.testing.assert_array_equal(lag, series[k - 1].values * sw)
            np.testing.assert_array_equal(same, exog[k].values * sw)

    def test_slices_match_per_row_covariates_bitwise(self):
        # the sliced design equals flattening one Covariate per response
        rng = np.random.default_rng(13)
        g = Grid(24)
        series, ex_a, ex_b = ([Curve(g, rng.normal(size=g.size)) for _ in range(40)]
                              for _ in range(3))
        for order, exog in ((1, []), (7, []), (7, [ex_a]), (3, [ex_a, ex_b])):
            sample, _ = build_far_design(series, order, exog)
            rows = range(order, len(series))
            reference = RegressionSample.from_pairs(
                [series[k] for k in rows],
                [Covariate(tuple(series[k - i] for i in range(1, order + 1))
                           + tuple(ex[k] for ex in exog)) for k in rows])
            np.testing.assert_array_equal(sample.x, reference.x)
            np.testing.assert_array_equal(sample.y, reference.y)
            assert sample.x.flags.c_contiguous
            assert sample.structure == reference.structure and sample.grid == reference.grid

    def test_curve_lists_and_their_matrices_give_the_same_design(self):
        rng = np.random.default_rng(21)
        g = Grid(12)
        series, ex_a, ex_b = ([Curve(g, rng.normal(size=g.size)) for _ in range(30)]
                              for _ in range(3))

        def matrix(curves):
            return np.asarray([c.values for c in curves])

        for order, exog in ((1, []), (4, [ex_a]), (2, [ex_a, ex_b])):
            want, want_pos = build_far_design(series, order, exog)
            for form in ((matrix(series), [matrix(ex) for ex in exog]),
                         (series, [matrix(ex) for ex in exog]),
                         (matrix(series), exog)):
                got, got_pos = build_far_design(form[0], order, form[1])
                np.testing.assert_array_equal(got.y, want.y)
                np.testing.assert_array_equal(got.x, want.x)
                assert got_pos == want_pos
                assert got.structure == want.structure and got.grid == want.grid

    def test_matrix_inputs_keep_every_check(self):
        rng = np.random.default_rng(22)
        series = rng.normal(size=(6, 5))
        with pytest.raises(StructureError):  # exog on another grid
            build_far_design(series, order=1, exog=[rng.normal(size=(6, 9))])
        with pytest.raises(UsageError):
            build_far_design(series, order=1, exog=[series[:5]])
        with pytest.raises(UsageError):
            build_far_design(series, order=0)
        with pytest.raises(UsageError):
            build_far_design(series[:1], order=1)
        series[3, 2] = np.inf
        with pytest.raises(StructureError, match="curve values must be finite"):
            build_far_design(series, order=1)

    def test_mismatched_grids_and_lengths(self):
        series = [Curve.constant(Grid(4), float(k)) for k in range(5)]
        with pytest.raises(StructureError):
            build_far_design(series, order=1, exog=[[Curve.constant(Grid(8), 0.0)] * 5])
        with pytest.raises(UsageError):
            build_far_design(series, order=1, exog=[series[:4]])

    def test_too_short_series(self):
        g = Grid(4)
        with pytest.raises(UsageError):
            build_far_design([Curve.constant(g, 1.0)], order=1)


def matrices(model) -> dict:
    """The arrays a model holds, by the field name of its document."""
    return {"coef_w": model.coef_w, "factor": model.factor,
            "x_mean_coords": model.x_mean_coords,
            "y_mean": model.y_mean, "residual_matrix": model.residual_matrix,
            "covariate_eigenvalues": model.covariate_spectrum.eigenvalues,
            "covariate_eigenvectors": model.covariate_spectrum.eigenvectors,
            "noise_eigenvalues": model.noise_spectrum.eigenvalues,
            "noise_eigenvectors": model.noise_spectrum.eigenvectors}


class TestSerialization:
    def test_round_trip_preserves_predictions(self):
        ys, xs = rank_two_pairs(n=15, noise=0.3, seed=8)
        model = fit(RegressionSample.from_pairs(ys, xs), TruncationRule.pve(0.9), center=True)
        clone = from_json(to_json(model))
        x = xs[3]
        np.testing.assert_array_equal(predict(model, x).values, predict(clone, x).values)
        np.testing.assert_array_equal(model.residual_matrix, clone.residual_matrix)
        np.testing.assert_array_equal(
            model.noise_spectrum.eigenvalues, clone.noise_spectrum.eigenvalues
        )
        assert clone.truncation.kind == "pve"

    @pytest.mark.parametrize("grid_d, order, n, rule, k", [
        (4, 1, 60, "fixed:1", 1),
        (4, 1, 60, "fixed:5", 5),     # k = p
        (6, 2, 60, "fixed:3", 3),
        (16, 2, 60, "threshold:auto", None),
        (30, 3, 60, "pve:0.9", None),
        (40, 1, 30, "fixed:1", 1),
        (100, 7, 400, "threshold:auto", None),  # the query workload's shape
        (100, 1, 100, "threshold:auto", None),  # full-rank noise, as in coverage
    ])
    def test_a_loaded_model_predicts_and_draws_like_its_fit(self, grid_d, order, n, rule, k,
                                                            dof=False):
        series = simulate_far(synthetic_dgp(Grid(grid_d)), n + order, seed=grid_d + order)
        sample, _ = build_far_design(series, order)
        model = fit(sample, TruncationRule.parse(rule), dof_correction=dof)
        assert k is None or model.n_components == k
        text = to_json(model)
        doc = json.loads(text)
        assert doc["version"] == 5 and not set(NOISE) & set(doc)
        assert doc["noise_rank"] == len(model.noise_spectrum.eigenvalues)
        clone = from_json(text)
        assert clone.coef_w.tobytes() == model.coef_w.tobytes()
        for key in NOISE:
            got, want = matrices(clone)[key], matrices(model)[key]
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), key
        for row in sample.x:
            assert predict_coords(clone, row).tobytes() == predict_coords(model, row).tobytes()
        draws = [noise_sampler(m, 5).draw_matrix(2000) for m in (model, clone)]
        assert draws[0].tobytes() == draws[1].tobytes()

    @pytest.mark.parametrize("grid_d, order, n, rule", [
        (2, 1, 60, "fixed:1"), (24, 2, 60, "pve:0.9"), (60, 3, 90, "threshold:auto")])
    def test_a_loaded_dof_corrected_model_predicts_and_draws_like_its_fit(self, grid_d, order,
                                                                          n, rule):
        self.test_a_loaded_model_predicts_and_draws_like_its_fit(grid_d, order, n, rule, None,
                                                                 dof=True)

    def test_round_trip_keeps_every_bit(self):
        model = fit(rank_two_dataset(n=15, noise=0.3, seed=8), TruncationRule.fixed(2))
        special = [-0.0, 5e-324, -2.5e-310, 1e308, -1e308, np.nextafter(1.0, 2.0)]
        factor = model.factor.copy()
        factor.flat[:len(special)] = special
        x_mean, y_mean = model.x_mean_coords.copy(), model.y_mean.copy()
        x_mean[:len(special)] = special
        y_mean[:len(special)] = special[::-1]
        # the residuals keep the specials whose covariance does not overflow,
        # and the noise spectrum is rebuilt from them, as fit builds it
        residuals = model.residual_matrix.copy()
        residuals[0, :4] = [np.nextafter(1.0, 2.0), -2.5e-310, 5e-324, -0.0]
        coef_w = _rank_k_operator(factor, model.covariate_spectrum.eigenvectors)
        noise = _noise_pairs(residuals, model.grid, model.n_components, model.dof_correction)
        model = dataclasses.replace(model, coef_w=coef_w, factor=factor, x_mean_coords=x_mean,
                                    y_mean=y_mean, residual_matrix=residuals,
                                    noise_spectrum=noise)
        text = to_json(model)
        clone = from_json(text)
        doc = json.loads(text)
        assert "coef_w" not in doc and not set(NOISE) & set(doc)
        for key, value in matrices(model).items():
            got = matrices(clone)[key]
            assert got.dtype == np.float64 and not got.flags.writeable, key
            assert got.shape == value.shape and got.tobytes() == value.tobytes(), key
            if key in MATRICES:
                assert decode(doc[key]).tobytes() == value.tobytes(), key
        assert to_json(clone) == text

    def test_every_matrix_is_read_only(self):
        # a model built by dataclasses.replace or by hand from writable arrays
        # is read-only too, so a write cannot leave its memo stale
        model = fit(rank_two_dataset(n=15, noise=0.3, seed=8), TruncationRule.fixed(2))
        cov, noise = model.covariate_spectrum, model.noise_spectrum
        by_hand = dataclasses.replace(
            model, coef_w=model.coef_w.copy(), factor=model.factor.copy(),
            residual_matrix=model.residual_matrix.copy(),
            x_mean_coords=model.x_mean_coords.copy(), y_mean=model.y_mean.copy(),
            covariate_spectrum=SpectralPair(cov.eigenvalues.copy(), cov.eigenvectors.copy()),
            noise_spectrum=SpectralPair(noise.eigenvalues.copy(), noise.eigenvectors.copy()))
        for loaded in (model, from_json(to_json(model)),
                       dataclasses.replace(model, y_mean=np.array(model.y_mean)), by_hand):
            for values in matrices(loaded).values():
                with pytest.raises(ValueError, match="read-only"):
                    values[...] = 0.0

    def test_a_loaded_model_equals_its_fit_in_every_field(self):
        # this fit's noise and covariate spectra clamp a little negative mass,
        # which no model file stores; the model does not carry it either
        series = simulate_far(synthetic_dgp(Grid(40)), 16, seed=2)
        model = fit(build_far_design(series, 1)[0])
        clone = from_json(to_json(model))

        def same(a, b):
            if isinstance(a, np.ndarray):
                return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()
            if dataclasses.is_dataclass(a):
                return type(a) is type(b) and all(
                    same(getattr(a, f.name), getattr(b, f.name))
                    for f in dataclasses.fields(a) if f.compare)
            return a == b

        for f in dataclasses.fields(FittedFLM):
            if f.compare:
                assert same(getattr(model, f.name), getattr(clone, f.name)), f.name

    def test_keeps_only_leading_covariate_pairs(self):
        model = fit(rank_two_dataset(n=15, noise=0.3, seed=8), TruncationRule.fixed(2))
        doc = json.loads(to_json(model))
        assert doc["version"] == 5
        assert decode(doc["covariate_eigenvalues"]).shape == (2,)
        assert decode(doc["covariate_eigenvectors"]).shape == (GRID.size, 2)
        assert decode(doc["factor"]).shape == (GRID.size, 2)

    def test_keeps_only_the_noise_pairs_the_sampler_reads(self):
        # 15 residual curves span at most 14 of the 41 noise directions; the
        # file stores none of them, and reading it rebuilds the same ones
        model = fit(rank_two_dataset(n=15, noise=0.3, seed=8), TruncationRule.fixed(2))
        rank = len(model.noise_spectrum.eigenvalues)
        assert 1 <= rank <= 14 and model.noise_spectrum.sampler_rank() == rank
        text = to_json(model)
        assert not set(NOISE) & set(json.loads(text))
        clone = from_json(text)
        assert clone.noise_spectrum.eigenvalues.shape == (rank,)
        assert clone.noise_spectrum.eigenvectors.shape == (GRID.size, rank)

    def test_a_model_with_rank_zero_noise_stores_no_noise_pair(self):
        # identical responses leave all-zero residuals, so the sampler reads no pair
        x = np.random.default_rng(0).normal(size=(20, GRID.size))
        y = np.tile(np.linspace(0.0, 1.0, GRID.size), (20, 1))
        model = fit(RegressionSample(y=y, x=x, grid=GRID, structure=(1, GRID.resolution, 0)))
        clone = from_json(to_json(model))
        for m in (model, clone):
            assert m.noise_spectrum.eigenvalues.shape == (0,)
            assert m.noise_spectrum.eigenvectors.shape == (GRID.size, 0)
        with pytest.warns(UserWarning, match="rank zero"):
            rows = ensemble_noise(clone, "gauss", 10, 0)
        assert rows.shape == (10, GRID.size) and not rows.any()
        with pytest.warns(UserWarning, match="rank zero"):
            est = gauss_prob(clone, Covariate((Curve.constant(GRID, 0.0),)), extremal_set(0.0),
                             mc_size=10)
        assert est.status == "degenerate"

    def test_refuses_to_save_a_model_whose_noise_is_not_its_residuals(self):
        model = fit(rank_two_dataset(n=15, noise=0.3, seed=8), TruncationRule.fixed(2))
        lam, vecs = model.noise_spectrum.eigenvalues, model.noise_spectrum.eigenvectors
        residuals = model.residual_matrix.copy()
        residuals[0, 0] += 1e-9
        for other in (dataclasses.replace(model, residual_matrix=residuals),
                      dataclasses.replace(model, noise_spectrum=SpectralPair(lam * 2, vecs)),
                      # one pair more than the sampler reads
                      dataclasses.replace(model, noise_spectrum=SpectralPair(
                          np.append(lam, 0.0), np.column_stack([vecs, vecs[:, -1]]))),
                      dataclasses.replace(model, dof_correction=True)):
            with pytest.raises(UsageError, match="noise spectrum"):
                to_json(other)

    @pytest.mark.parametrize("edit, reason", [
        ("covariate_eigenvalues", "negative eigenvalues"),
        ("y_mean", r"\['y_mean'\] hold non-finite cells"),
    ], ids=["negative covariate eigenvalue", "NaN y_mean"])
    def test_refuses_to_save_a_model_its_reader_rejects(self, edit, reason):
        # coef_w and the noise spectrum are the model's own, but the file
        # would hold a negative covariate eigenvalue or a NaN mean
        model = fit(rank_two_dataset(n=15, noise=0.3, seed=8), TruncationRule.fixed(2))
        cov = model.covariate_spectrum
        if edit == "y_mean":
            y_mean = model.y_mean.copy()
            y_mean[3] = np.nan
            other = dataclasses.replace(model, y_mean=y_mean)
        else:
            other = dataclasses.replace(model, covariate_spectrum=SpectralPair(
                np.append(cov.eigenvalues[:-1], -1.0), cov.eigenvectors))
        with pytest.raises(UsageError, match=f"would not read it back: .*{reason}"):
            to_json(other)

    def test_stores_the_noise_rank_and_reads_back_that_many_pairs(self):
        # the file fixes the rank, so the reader does not recount the
        # sampler's floor; a leading part of the pairs round-trips too
        model = fit(rank_two_dataset(n=15, noise=0.3, seed=8), TruncationRule.fixed(2))
        lam, vecs = model.noise_spectrum.eigenvalues, model.noise_spectrum.eigenvectors
        for rank in (len(lam), len(lam) - 1, 0):
            part = dataclasses.replace(model, noise_spectrum=SpectralPair(lam[:rank],
                                                                          vecs[:, :rank]))
            text = to_json(part)
            assert json.loads(text)["noise_rank"] == rank
            clone = from_json(text)
            assert clone.noise_spectrum.eigenvalues.tobytes() == lam[:rank].tobytes()
            assert clone.noise_spectrum.eigenvectors.tobytes() == vecs[:, :rank].tobytes()

    def test_rejects_a_noise_rank_its_residuals_cannot_give(self):
        model = fit(rank_two_dataset(n=15, noise=0.3, seed=8), TruncationRule.fixed(2))
        doc = json.loads(to_json(model))
        doc["noise_rank"] += 1
        with pytest.raises(StructureError, match="no noise spectrum of rank"):
            from_json(json.dumps(doc))

    def test_rejects_residuals_whose_covariance_overflows(self):
        # each cell is finite, but the noise covariance it rebuilds is not
        model = fit(rank_two_dataset(n=15, noise=0.3, seed=8), TruncationRule.fixed(2))
        text = set_cell(to_json(model), "residual_matrix", 0, 1e308)
        with pytest.raises(StructureError, match="malformed model document"):
            from_json(text)

    def test_refuses_to_save_a_model_whose_coef_w_is_not_its_factor_product(self):
        model = fit(rank_two_dataset(n=15, noise=0.3, seed=8), TruncationRule.fixed(2))
        with pytest.raises(UsageError, match="not the product"):
            to_json(dataclasses.replace(model, coef_w=model.coef_w + 1e-9))

    @pytest.mark.parametrize("key", MATRICES)
    def test_rejects_corrupted_shape(self, key):
        model = fit(rank_two_dataset(n=15, noise=0.3, seed=8), TruncationRule.fixed(2))
        text = edit_matrix(to_json(model), key,
                           lambda value: value[:-1] if value.ndim == 1 else value[:, :-1])
        with pytest.raises(StructureError):
            from_json(text)

    @pytest.mark.parametrize("change", [{"grid_d": GRID.resolution + 1}, {"n_scalars": 1},
                                        {"n_components": 0}, {"n_components": 3},
                                        {"factor": "oops"}, {"noise_rank": -1},
                                        {"noise_rank": GRID.size + 1}, {"noise_rank": "oops"},
                                        {"noise_rank": None}, {"noise_rank": 1.0},
                                        {"noise_rank": True}])
    def test_rejects_inconsistent_header(self, change):
        model = fit(rank_two_dataset(n=15, noise=0.3, seed=8), TruncationRule.fixed(2))
        doc = json.loads(to_json(model))
        doc.update(change)
        with pytest.raises(StructureError):
            from_json(json.dumps(doc))

    @pytest.mark.parametrize("change", [{"n_components": 2.9}, {"n_components": 2.0},
                                        {"grid_d": 6.5}, {"grid_d": "6"},
                                        {"n_curve_parts": True}, {"n_scalars": False},
                                        {"dof_correction": "no"}, {"dof_correction": 0},
                                        {"centered": "false"}, {"centered": 1}])
    def test_rejects_a_mistyped_header_value(self, change):
        # counts must be JSON integers and flags JSON booleans: no value is
        # truncated, and no string or number is read as a flag
        model = fit(rank_two_dataset(n=15, noise=0.3, seed=8), TruncationRule.fixed(2))
        doc = json.loads(to_json(model))
        doc.update(change)
        with pytest.raises(StructureError, match="malformed model document"):
            from_json(json.dumps(doc))

    @pytest.mark.parametrize("field", [
        {"f8le": "@@@@"}, {"f8le": "AAAAA"}, {"f8le": "AAAA\nAAAA"}, {"f8le": 12},
        {"f8le": None}, {"shape": [-1, 41]}, {"shape": [1.0, 41]}, {"shape": [True, 41]},
        {"shape": ["1", 41]}, {"shape": "1,41"}, {"shape": None}, {"shape": [0, 41]},
        {"shape": [0, 41], "f8le": ""}, {"shape": [10**30, 41]}, {"shape": [0] * 70},
        {"shape": [0] * 70, "f8le": ""}, {"extra": 1},
    ])
    def test_rejects_a_bad_encoded_matrix(self, field):
        model = fit(rank_two_dataset(n=15, noise=0.3, seed=8), TruncationRule.fixed(2))
        doc = json.loads(to_json(model))
        doc["residual_matrix"].update(field)
        with pytest.raises(StructureError):
            from_json(json.dumps(doc))

    @pytest.mark.parametrize("key", MATRICES)
    def test_rejects_a_byte_count_that_disagrees_with_the_shape(self, key):
        model = fit(rank_two_dataset(n=15, noise=0.3, seed=8), TruncationRule.fixed(2))
        doc = json.loads(to_json(model))
        doc[key]["f8le"] = encode(decode(doc[key]).ravel()[:-1])["f8le"]
        with pytest.raises(StructureError, match="bytes"):
            from_json(json.dumps(doc))

    @pytest.mark.parametrize("version", [1, 2, 3, 4, 6, 5.0, "5", True, None],
                             ids=["1", "2", "3", "4", "6", "5.0", "string", "true", "missing"])
    def test_rejects_a_model_version_other_than_5(self, version):
        # a model is a function of its series and fit options, so an older
        # file is refitted rather than read
        model = fit(rank_two_dataset(n=15, noise=0.3, seed=8), TruncationRule.fixed(2))
        doc = json.loads(to_json(model))
        if version is None:
            del doc["version"]
        else:
            doc["version"] = version
        with pytest.raises(UsageError, match=r"version .* refit the model with `curveprob fit`"):
            from_json(json.dumps(doc))

    @pytest.mark.parametrize("key", MATRICES)
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_a_non_finite_cell(self, key, bad):
        model = fit(rank_two_dataset(n=15, noise=0.3, seed=8), TruncationRule.fixed(2))
        with pytest.raises(StructureError, match="non-finite"):
            from_json(set_cell(to_json(model), key, -1, bad))

    def test_rejects_a_finite_factor_whose_coef_w_overflows(self):
        model = fit(rank_two_dataset(n=15, noise=0.3, seed=8), TruncationRule.fixed(2))
        text = edit_matrix(to_json(model), "factor", lambda f: np.full_like(f, 1e308))
        text = edit_matrix(text, "covariate_eigenvectors", np.ones_like)
        with pytest.raises(StructureError, match=r"\['coef_w'\] hold non-finite cells"):
            from_json(text)

    def test_rejects_a_negative_eigenvalue(self):
        model = fit(rank_two_dataset(n=15, noise=0.3, seed=8), TruncationRule.fixed(2))
        with pytest.raises(StructureError, match="negative"):
            from_json(set_cell(to_json(model), "covariate_eigenvalues", -1, -1e-300))

    def test_rejects_a_non_finite_truncation_parameter(self):
        model = fit(rank_two_dataset(n=15, noise=0.3, seed=8), TruncationRule.fixed(2))
        doc = json.loads(to_json(model))
        doc["truncation"].update(kind="threshold", m_n=float("nan"))
        with pytest.raises(StructureError):
            from_json(json.dumps(doc))

    @pytest.mark.parametrize("change", [
        {"k": 2.5}, {"k": True}, {"k": "2"}, {"relative": "false"}, {"relative": 1},
        {"relative": None}, {"v": "0.9"}, {"v": True}, {"m_n": True}, {"m_n": "12"},
        {"kind": "bogus"}, {"kind": None},
    ])
    def test_rejects_a_mistyped_truncation_field(self, change):
        # the rule is metadata after the fit, but to_json writes it back as read
        model = fit(rank_two_dataset(n=15, noise=0.3, seed=8), TruncationRule.fixed(2))
        doc = json.loads(to_json(model))
        doc["truncation"].update(change)
        with pytest.raises(StructureError, match="malformed model document"):
            from_json(json.dumps(doc))

    @pytest.mark.parametrize("truncation", [None, "fixed:2", [], {"kind": "fixed", "k": 2}])
    def test_rejects_a_truncation_header_that_is_not_a_whole_rule(self, truncation):
        model = fit(rank_two_dataset(n=15, noise=0.3, seed=8), TruncationRule.fixed(2))
        doc = json.loads(to_json(model))
        doc["truncation"] = truncation
        with pytest.raises(StructureError, match="malformed model document"):
            from_json(json.dumps(doc))

    def test_reads_every_well_typed_truncation_rule(self):
        model = fit(rank_two_dataset(n=15, noise=0.3, seed=8), TruncationRule.fixed(2))
        for rule in (TruncationRule.threshold(), TruncationRule.threshold(12, relative=False),
                     TruncationRule.pve(0.9), TruncationRule.fixed(2)):
            text = to_json(dataclasses.replace(model, truncation=rule))
            assert from_json(text).truncation == rule
        doc = json.loads(to_json(model))
        doc["truncation"].update(kind="threshold", m_n=12)  # a JSON integer is a number
        assert from_json(json.dumps(doc)).truncation.m_n == 12

    def test_stores_exactly_the_version_5_keys(self):
        # the reader reads one format, so a change to what the writer stores
        # must come with a new MODEL_VERSION
        model = fit(rank_two_dataset(n=15, noise=0.3, seed=8), TruncationRule.fixed(2))
        header = {"format", "version", "grid_d", "n_curve_parts", "n_scalars", "n_components",
                  "centered", "dof_correction", "truncation", "noise_rank"}
        assert set(json.loads(to_json(model))) == header | set(MATRICES)

    def test_rejects_foreign_documents(self):
        with pytest.raises(UsageError):
            from_json('{"format": "something-else", "version": 1}')


class TestTruncationRuleParse:
    def test_forms(self):
        assert TruncationRule.parse("pve:0.85").v == 0.85
        assert TruncationRule.parse("fixed:3").k == 3
        rule = TruncationRule.parse("threshold:mn=12,absolute")
        assert rule.m_n == 12.0 and rule.relative is False
        assert TruncationRule.parse("threshold:auto").m_n is None

    def test_bad_forms(self):
        with pytest.raises(UsageError):
            TruncationRule.parse("frobnicate:1")
        with pytest.raises(UsageError):
            TruncationRule.parse("threshold:bogus=1")
        for text in ("pve:abc", "fixed:1.5", "threshold:mn=x", "threshold:mn=nan",
                     "threshold:mn=inf", "threshold:mn=-inf"):
            with pytest.raises(UsageError):
                TruncationRule.parse(text)
