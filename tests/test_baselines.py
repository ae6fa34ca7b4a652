from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import norm

from curveprob import baselines
from curveprob.baselines import (
    FGLMModel,
    default_bandwidth_grid,
    fglm_fit,
    fglm_prob,
    nw_fit,
    nw_prob,
    nw_select_bandwidth,
    pairwise_distances,
)
from curveprob.curves import Grid
from curveprob.errors import DegenerateInputError
from curveprob.flm import RegressionSample, TruncationRule, fit
from curveprob.spectral import SpectralPair

GRID = Grid(12)


def scalar_cov(*values):
    """Coordinates of a covariate made of scalars only."""
    return np.asarray(values, dtype=float)


def scalar_sample(values):
    """One single-scalar covariate per row."""
    return np.asarray(values, dtype=float)[:, None]


def curve_cov(grid, values):
    """Weighted coordinates of a one-curve covariate."""
    return np.asarray(values, dtype=float) * grid.quad_weights_sqrt()


def regression_on(coords, k=1):
    """The regression fitted on these covariate coordinates, keeping k
    principal directions. The binomial baseline reads only its covariate
    mean and directions, so the responses are zero curves."""
    coords = np.asarray(coords, dtype=float)
    sample = RegressionSample(y=np.zeros((len(coords), GRID.size)), x=coords, grid=GRID,
                              structure=(0, None, coords.shape[1]))
    return fit(sample, TruncationRule.fixed(k))


class TestNWProb:
    def test_all_positive_labels(self):
        xs = scalar_sample(range(5))
        est = nw_fit(xs, np.ones(5), bandwidth=0.7)
        for q in (-3.0, 0.0, 10.0):
            assert nw_prob(est, scalar_cov(q)) == pytest.approx(1.0)

    def test_all_positive_labels_stay_bounded(self):
        # the weighted mean of ones can round to either side of one; the
        # estimate is a probability and never leaves [0, 1]
        rng = np.random.default_rng(8)
        for _ in range(200):
            coords = rng.normal(size=(8, 3))
            est = nw_fit(coords, np.ones(8), bandwidth=rng.uniform(0.2, 3.0))
            got = nw_prob(est, rng.normal(size=3))
            assert 0.0 <= got <= 1.0
            assert got == pytest.approx(1.0)

    def test_single_training_point(self):
        est = nw_fit(scalar_sample([1.0]), [0.0], bandwidth=1.0)
        assert nw_prob(est, scalar_cov(5.0)) == pytest.approx(0.0)

    def test_equidistant_opposite_labels(self):
        est = nw_fit(scalar_sample([-1.0, 1.0]), [0.0, 1.0], bandwidth=0.5)
        assert nw_prob(est, scalar_cov(0.0)) == pytest.approx(0.5)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        xs = scalar_sample(rng.normal(size=12))
        labels = rng.integers(0, 2, size=12).astype(float)
        est = nw_fit(xs, labels, bandwidth=0.8)
        perm = rng.permutation(12)
        est_p = nw_fit(xs[perm], labels[perm], bandwidth=0.8)
        q = scalar_cov(0.3)
        assert nw_prob(est, q) == pytest.approx(nw_prob(est_p, q))

    def test_huge_bandwidth_tends_to_label_mean(self):
        rng = np.random.default_rng(1)
        xs = scalar_sample(rng.normal(size=15))
        labels = rng.integers(0, 2, size=15).astype(float)
        dists = np.abs(xs[:, 0] - 0.2)
        est = nw_fit(xs, labels, bandwidth=1e6 * max(dists))
        assert nw_prob(est, scalar_cov(0.2)) == pytest.approx(labels.mean(), abs=1e-6)

    def test_underflow_falls_back_to_mean(self):
        xs = scalar_sample([0.0, 1.0])
        est = nw_fit(xs, [1.0, 1.0], bandwidth=1e-300)
        with pytest.warns(UserWarning):
            assert nw_prob(est, scalar_cov(1e6)) == pytest.approx(1.0)


class TestBandwidthSelection:
    def test_constant_labels_pick_smallest(self):
        xs = scalar_sample(range(6))
        grid = np.array([0.3, 1.0, 3.0])
        assert nw_select_bandwidth(xs, np.ones(6), grid) == pytest.approx(0.3)

    def test_single_class_labels_pick_smallest_default_bandwidth(self):
        # every leave-one-out error of one-class labels is round-off, so the
        # tie rule must decide, not the round-off
        rng = np.random.default_rng(13)
        for case in range(100):
            coords = rng.normal(size=(8, 2)) * rng.uniform(0.1, 10.0)
            labels = np.full(8, float(case % 2))
            grid = default_bandwidth_grid(pairwise_distances(coords))
            assert nw_select_bandwidth(coords, labels) == grid[0]

    def test_separated_clusters_pick_small_bandwidth(self):
        # 10-point synthetic set: two clusters 10 apart with opposite labels;
        # oracle grid search must agree and land below the gap
        xs = scalar_sample([0.0, 0.2, 0.4, 0.6, 0.8, 10.0, 10.2, 10.4, 10.6, 10.8])
        labels = np.array([0.0] * 5 + [1.0] * 5)
        grid = np.array([0.25, 0.5, 1.0, 2.0, 5.0, 20.0])

        def loo_error(h):
            pts = xs[:, 0]
            err = 0.0
            for i in range(len(pts)):
                d = np.abs(pts - pts[i])
                w = np.exp(-0.5 * (d / h) ** 2)
                w[i] = 0.0
                err += (labels[i] - w @ labels / w.sum()) ** 2
            return err / len(pts)

        got = nw_select_bandwidth(xs, labels, grid)
        assert got < 10.0
        # matches the oracle search up to float noise in the near-zero errors
        assert loo_error(got) <= min(loo_error(h) for h in grid) + 1e-12

    def test_returned_bandwidth_is_argmin(self):
        rng = np.random.default_rng(4)
        xs = scalar_sample(rng.normal(size=14))
        labels = (rng.normal(size=14) > 0).astype(float)
        grid = np.geomspace(0.1, 5.0, 8)

        def loo_error(h):
            pts = xs[:, 0]
            err = 0.0
            for i in range(len(pts)):
                d = np.abs(pts - pts[i])
                w = np.exp(-0.5 * (d / h) ** 2)
                w[i] = 0.0
                err += (labels[i] - (w @ labels / w.sum() if w.sum() > 0
                                     else np.delete(labels, i).mean())) ** 2
            return err / len(pts)

        got = nw_select_bandwidth(xs, labels, grid)
        assert loo_error(got) <= min(loo_error(h) for h in grid) + 1e-12

    def test_matches_per_row_reference_loop(self):
        # the per-row leave-one-out loop the search is vectorized from; the
        # chosen bandwidth must agree on random problems, including ones
        # where every kernel weight of some points underflows. Both label
        # classes are present: with one class every error is round-off and
        # the argmin carries no information.
        def reference(coords, labels, grid):
            sq = np.sum(coords**2, axis=1)
            dist = np.sqrt(np.maximum(sq[:, None] + sq[None, :] - 2.0 * coords @ coords.T, 0.0))
            best_h, best_err = None, np.inf
            for h in np.sort(grid):
                k = np.exp(-0.5 * (dist / h) ** 2)
                np.fill_diagonal(k, 0.0)
                denom = k.sum(axis=1)
                preds = np.empty(len(labels))
                for i in range(len(labels)):
                    if denom[i] > 0:
                        preds[i] = k[i] @ labels / denom[i]
                    else:
                        preds[i] = np.delete(labels, i).mean()
                err = float(np.mean((labels - preds) ** 2))
                if err < best_err:
                    best_h, best_err = float(h), err
            return best_h

        rng = np.random.default_rng(21)
        for case in range(120):
            n, p = int(rng.integers(3, 40)), int(rng.integers(1, 6))
            coords = rng.normal(size=(n, p)) * rng.uniform(0.1, 10.0)
            labels = np.zeros(n)
            while labels.min() == labels.max():
                labels = (rng.uniform(size=n) < rng.uniform(0.1, 0.9)).astype(float)
            grid = default_bandwidth_grid(pairwise_distances(coords)) * (
                1e-3 if case % 4 == 0 else 1.0)
            assert nw_select_bandwidth(coords, labels, grid) == reference(coords, labels, grid)

    def test_underflowed_point_is_predicted_by_the_other_labels(self):
        # at h=0.05 every kernel weight of the point at 3 underflows, so its
        # leave-one-out prediction is the mean 1/3 of the other labels; that
        # error makes h=0.5 the better bandwidth, while predicting the mean of
        # all four labels (1/2) would favour h=0.05
        xs = scalar_sample([0.0, 0.1, 0.2, 3.0])
        labels = np.array([0.0, 0.0, 1.0, 1.0])
        assert nw_select_bandwidth(xs, labels, np.array([0.05, 0.5, 5.0])) == 0.5

    def test_degenerate_distances(self):
        with pytest.raises(DegenerateInputError):
            default_bandwidth_grid(pairwise_distances(scalar_sample([1.0] * 5)))

    def test_default_grid_scales_with_distances(self):
        rng = np.random.default_rng(5)
        coords = rng.normal(size=(10, 3))
        grid = default_bandwidth_grid(pairwise_distances(coords))
        assert len(grid) == 20
        assert grid[0] < grid[-1]

    def test_default_grid_builds_one_distance_matrix(self, monkeypatch):
        calls = []
        monkeypatch.setattr(baselines, "pairwise_distances",
                            lambda coords: calls.append(1) or pairwise_distances(coords))
        rng = np.random.default_rng(6)
        nw_select_bandwidth(rng.normal(size=(12, 3)), np.arange(12) % 2)
        assert len(calls) == 1


class TestFGLM:
    def make_scored_data(self, n=200, slope=2.0, seed=0, link="logit"):
        rng = np.random.default_rng(seed)
        g = Grid(12)
        source = np.sqrt(2) * np.sin(2 * np.pi * g.points)
        scores = rng.normal(size=n)
        xs = curve_cov(g, [s * source for s in scores])
        eta = slope * scores
        mu = 1 / (1 + np.exp(-eta)) if link == "logit" else norm.cdf(eta)
        labels = (rng.uniform(size=n) < mu).astype(float)
        return xs, labels, scores

    def test_permuted_labels_give_null_model(self):
        # oracle: with labels independent of the scores, the null model
        # (intercept only, at the label mean) is the target
        rng = np.random.default_rng(3)
        xs, labels, _ = self.make_scored_data(n=400, slope=2.0, seed=3)
        permuted = labels[rng.permutation(len(labels))]
        model = fglm_fit(xs, permuted, regression_on(xs), link="logit")
        p_bar = permuted.mean()
        null_intercept = np.log(p_bar / (1 - p_bar))
        # slope se ~ 1/sqrt(n * p(1-p) * var(score)); allow 4 sigma
        se = 1.0 / np.sqrt(len(labels) * p_bar * (1 - p_bar))
        assert abs(model.coefficients[0]) <= 4 * se
        assert model.intercept == pytest.approx(null_intercept, abs=4 * se)

    def test_separation_is_flagged(self):
        xs = scalar_sample(range(10))
        labels = np.array([0.0] * 5 + [1.0] * 5)
        with pytest.warns(UserWarning):
            model = fglm_fit(xs, labels, regression_on(xs))
        assert model.separation
        assert np.all(np.isfinite(model.coefficients))
        assert np.linalg.norm(model.coefficients) <= 1e3 + 1e-9

    def test_score_scaling_halves_coefficients(self):
        xs, labels, _ = self.make_scored_data(n=300, slope=1.5, seed=5)
        model = fglm_fit(xs, labels, regression_on(xs))
        doubled = 2.0 * xs
        model2 = fglm_fit(doubled, labels, regression_on(doubled))
        assert model2.coefficients[0] == pytest.approx(model.coefficients[0] / 2, rel=1e-6)
        for x, x2 in zip(xs[:10], doubled[:10]):
            assert fglm_prob(model2, x2) == pytest.approx(fglm_prob(model, x), abs=1e-8)

    def test_single_class_is_degenerate(self):
        xs = scalar_sample(range(6))
        with pytest.raises(DegenerateInputError):
            fglm_fit(xs, np.ones(6), regression_on(xs))

    def test_probabilities_monotone_in_linear_predictor(self):
        xs, labels, _ = self.make_scored_data(n=250, slope=2.0, seed=6)
        model = fglm_fit(xs, labels, regression_on(xs))
        g = Grid(12)
        source = np.sqrt(2) * np.sin(2 * np.pi * g.points)
        probs = [fglm_prob(model, curve_cov(g, s * source)) for s in np.linspace(-2, 2, 9)]
        diffs = np.diff(probs)
        assert np.all(diffs >= 0) or np.all(diffs <= 0)

    def test_scores_are_the_regression_projection(self):
        rng = np.random.default_rng(9)
        xs = rng.normal(size=(60, 5)) * [3.0, 2.0, 1.0, 0.5, 0.2]
        labels = (xs[:, 0] + rng.normal(size=60) > 0).astype(float)
        regression = regression_on(xs, k=3)
        model = fglm_fit(xs, labels, regression)
        assert model.basis is regression.covariate_spectrum.eigenvectors
        assert model.x_mean_coords is regression.x_mean_coords
        # the same fit on the projection itself, read through an identity
        # basis at mean zero, proves the scores are bitwise that projection
        scores = (xs - regression.x_mean_coords) @ regression.covariate_spectrum.eigenvectors
        identity = replace(regression, x_mean_coords=np.zeros(3),
                           covariate_spectrum=SpectralPair(np.ones(3), np.eye(3)))
        on_scores = fglm_fit(scores, labels, identity)
        assert on_scores.intercept == model.intercept
        np.testing.assert_array_equal(on_scores.coefficients, model.coefficients)


class TestFGLMProb:
    def test_zero_slope_is_constant(self):
        model = FGLMModel(link="logit", intercept=0.7, coefficients=np.zeros(1),
                          basis=np.ones((3, 1)), x_mean_coords=np.zeros(3))
        vals = {fglm_prob(model, scalar_cov(a, b, c))
                for a, b, c in [(0, 0, 0), (1, 2, 3), (-5, 0, 2)]}
        assert len(vals) == 1
        assert vals.pop() == pytest.approx(1 / (1 + np.exp(-0.7)))

    def test_logit_at_zero(self):
        model = FGLMModel(link="logit", intercept=0.0, coefficients=np.zeros(1),
                          basis=np.ones((1, 1)), x_mean_coords=np.zeros(1))
        assert fglm_prob(model, scalar_cov(0.0)) == pytest.approx(0.5)

    def test_probit_standard_quantile(self):
        model = FGLMModel(link="probit", intercept=0.0, coefficients=np.ones(1),
                          basis=np.ones((1, 1)), x_mean_coords=np.zeros(1))
        assert fglm_prob(model, scalar_cov(1.6449)) == pytest.approx(0.95, abs=1e-3)
