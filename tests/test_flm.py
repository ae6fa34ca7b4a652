import json

import numpy as np
import pytest

from curveprob.curves import Covariate, Curve, Grid
from curveprob.errors import DegenerateInputError, StructureError, UsageError
from curveprob.flm import (
    RegressionSample,
    TruncationRule,
    build_far_design,
    fit,
    from_json,
    predict,
    to_json,
)
from curveprob.spectral import CovarianceOperator, eigendecompose

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
        lhs = predict(model, Covariate((a.curve_parts[0] + b.curve_parts[0],))).values \
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

    def test_keeps_only_leading_covariate_pairs(self):
        model = fit(rank_two_dataset(n=15, noise=0.3, seed=8), TruncationRule.fixed(2))
        doc = json.loads(to_json(model))
        assert doc["version"] == 2
        assert np.shape(doc["covariate_eigenvalues"]) == (2,)
        assert np.shape(doc["covariate_eigenvectors"]) == (GRID.size, 2)

    def test_reads_version_one_bitwise(self):
        # a version 1 document stores the whole covariate spectrum
        ys, xs = rank_two_pairs(n=15, noise=0.3, seed=8)
        sample = RegressionSample.from_pairs(ys, xs)
        model = fit(sample, TruncationRule.fixed(2))
        xc = sample.x - sample.x.mean(axis=0)
        full = eigendecompose(CovarianceOperator(xc.T @ xc / len(sample)))
        doc = json.loads(to_json(model))
        doc.update(version=1, covariate_eigenvalues=full.eigenvalues.tolist(),
                   covariate_eigenvectors=full.eigenvectors.tolist())
        old = from_json(json.dumps(doc))
        for x in xs:
            np.testing.assert_array_equal(predict(old, x).values, predict(model, x).values)
        np.testing.assert_array_equal(old.covariate_spectrum.eigenvalues,
                                      model.covariate_spectrum.eigenvalues)
        np.testing.assert_array_equal(old.covariate_spectrum.eigenvectors,
                                      model.covariate_spectrum.eigenvectors)

    @pytest.mark.parametrize("key", ["coef_w", "x_mean_coords", "y_mean", "residual_matrix",
                                     "covariate_eigenvalues", "covariate_eigenvectors",
                                     "noise_eigenvalues", "noise_eigenvectors"])
    def test_rejects_corrupted_shape(self, key):
        model = fit(rank_two_dataset(n=15, noise=0.3, seed=8), TruncationRule.fixed(2))
        doc = json.loads(to_json(model))
        value = np.asarray(doc[key])
        doc[key] = (value[:-1] if value.ndim == 1 else value[:, :-1]).tolist()
        with pytest.raises(StructureError):
            from_json(json.dumps(doc))

    @pytest.mark.parametrize("change", [{"grid_d": GRID.resolution + 1}, {"n_scalars": 1},
                                        {"n_components": 0}, {"n_components": 3},
                                        {"coef_w": "oops"}])
    def test_rejects_inconsistent_header(self, change):
        model = fit(rank_two_dataset(n=15, noise=0.3, seed=8), TruncationRule.fixed(2))
        doc = json.loads(to_json(model))
        doc.update(change)
        with pytest.raises(StructureError):
            from_json(json.dumps(doc))

    @pytest.mark.parametrize("key", ["coef_w", "x_mean_coords", "y_mean", "residual_matrix",
                                     "covariate_eigenvalues", "covariate_eigenvectors",
                                     "noise_eigenvalues", "noise_eigenvectors"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_a_non_finite_cell(self, key, bad):
        model = fit(rank_two_dataset(n=15, noise=0.3, seed=8), TruncationRule.fixed(2))
        doc = json.loads(to_json(model))
        value = np.asarray(doc[key])
        value.flat[-1] = bad
        doc[key] = value.tolist()
        with pytest.raises(StructureError, match="non-finite"):
            from_json(json.dumps(doc))

    @pytest.mark.parametrize("key", ["covariate_eigenvalues", "noise_eigenvalues"])
    def test_rejects_a_negative_eigenvalue(self, key):
        model = fit(rank_two_dataset(n=15, noise=0.3, seed=8), TruncationRule.fixed(2))
        doc = json.loads(to_json(model))
        doc[key][-1] = -1e-300
        with pytest.raises(StructureError, match="negative"):
            from_json(json.dumps(doc))

    def test_rejects_a_non_finite_truncation_parameter(self):
        model = fit(rank_two_dataset(n=15, noise=0.3, seed=8), TruncationRule.fixed(2))
        doc = json.loads(to_json(model))
        doc["truncation"].update(kind="threshold", m_n=float("nan"))
        with pytest.raises(StructureError):
            from_json(json.dumps(doc))

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
