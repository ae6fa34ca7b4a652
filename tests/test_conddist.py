import dataclasses
import warnings

import numpy as np
import pytest

from curveprob import conddist
from curveprob.conddist import (
    GaussSampler,
    boot_prob,
    calibrate_uniform_band,
    ensemble_noise,
    ensemble_quantile,
    gauss_prob,
    linear_quantiles,
    noise_sampler,
    order_statistic_quantile,
    quantile_over_family,
)
from curveprob.curves import Covariate, Curve, Grid
from curveprob.errors import RangeExhaustedError, StructureError, UsageError
from curveprob.events import (
    boundary_set,
    complement,
    contains_batch,
    extremal_set,
    family_level_in_alpha,
    family_level_in_z,
    family_max_below,
    level_set,
)
from curveprob.flm import (
    FittedFLM,
    RegressionSample,
    TruncationRule,
    build_far_design,
    fit,
    from_json,
    predict,
    predict_coords,
    to_json,
)
from curveprob.harness.dgp import (
    conditional_draws,
    simulate_far,
    simulate_far_values,
    synthetic_dgp,
)
from curveprob.rng import substream
from curveprob.spectral import CovarianceOperator, SpectralPair, eigendecompose

from reference import scan_quantile

GRID = Grid(10)
FULL_SPACE = complement(extremal_set(np.inf))


def contains(event, y):
    return bool(contains_batch(event, y.values[np.newaxis, :], y.grid)[0])


def toy_model(grid, residual_rows):
    """Model with zero fitted mean and prescribed residual curves."""
    residuals = np.asarray(residual_rows, dtype=float)
    n, p = residuals.shape[0], grid.size
    sw = grid.quad_weights_sqrt()
    centered = residuals - residuals.mean(axis=0)
    gamma = CovarianceOperator((centered * sw).T @ (centered * sw) / n)
    return FittedFLM(
        grid=grid,
        n_curve_parts=1,
        n_scalars=0,
        coef_w=np.zeros((p, p)),
        factor=np.zeros((p, 1)),
        n_components=1,
        covariate_spectrum=SpectralPair(np.ones(1), np.ones((p, 1)) / np.sqrt(p)),
        residual_matrix=residuals,
        noise_spectrum=eigendecompose(gamma),
        x_mean_coords=np.zeros(p),
        y_mean=np.zeros(p),
        centered=True,
        dof_correction=False,
        truncation=TruncationRule.fixed(1),
    )


def zero_covariate(grid):
    return Covariate((Curve.constant(grid, 0.0),))


def fitted_model(n=40, seed=0, grid=None, noise=0.6):
    grid = grid or Grid(16)
    rng = np.random.default_rng(seed)
    source = np.sin(2 * np.pi * grid.points)
    xs, ys = [], []
    for _ in range(n):
        a = rng.normal()
        xs.append(Covariate((Curve(grid, a * source),)))
        ys.append(Curve(grid, 0.8 * a * grid.points + noise * rng.normal(size=grid.size)))
    return fit(RegressionSample.from_pairs(ys, xs), TruncationRule.fixed(1)), xs


class TestBootProb:
    def test_full_space(self):
        model = toy_model(GRID, np.zeros((3, GRID.size)))
        assert boot_prob(model, zero_covariate(GRID), FULL_SPACE).value == 1.0

    def test_zero_residuals_indicator(self):
        model = toy_model(GRID, np.zeros((3, GRID.size)))
        inside = boundary_set(-1.0, 1.0)
        outside = extremal_set(0.5)
        assert boot_prob(model, zero_covariate(GRID), inside).value == 1.0
        assert boot_prob(model, zero_covariate(GRID), outside).value == 0.0

    def test_three_constant_residuals(self):
        rows = np.array([[-1.0] * GRID.size, [0.0] * GRID.size, [1.0] * GRID.size])
        model = toy_model(GRID, rows)
        est = boot_prob(model, zero_covariate(GRID), complement(extremal_set(0.0)))
        assert est.value == pytest.approx(2 / 3)
        assert est.count == 2 and est.n_used == 3

    def test_empty_event(self):
        model = toy_model(GRID, np.zeros((3, GRID.size)))
        assert boot_prob(model, zero_covariate(GRID), extremal_set(np.inf)).value == 0.0


class TestGaussProb:
    def test_degenerate_noise_becomes_indicator(self):
        model = toy_model(GRID, np.zeros((4, GRID.size)))
        with pytest.warns(UserWarning):
            est = gauss_prob(model, zero_covariate(GRID), boundary_set(-1.0, 1.0),
                             mc_size=50, seed=3)
        assert est.value == 1.0 and est.status == "degenerate"

    def test_full_space_any_size(self):
        model, xs = fitted_model()
        est = gauss_prob(model, xs[0], FULL_SPACE, mc_size=17, seed=5)
        assert est.value == 1.0 and est.status == "ok"

    def test_rank_one_constant_noise_reduces_to_scalar_normal(self):
        # noise = Z * constant-one curve; the event {max <= 0} holds iff Z <= 0
        sw = GRID.quad_weights_sqrt()
        spectrum = SpectralPair(np.array([1.0]), sw[:, None].copy())
        model = toy_model(GRID, np.zeros((3, GRID.size)))
        object.__setattr__(model, "noise_spectrum", spectrum)
        m = 4000
        est = gauss_prob(model, zero_covariate(GRID), complement(extremal_set(0.0)),
                         mc_size=m, seed=11)
        assert abs(est.value - 0.5) <= 3 * 0.5 / np.sqrt(m)

    def test_reproducible_given_seed(self):
        model, xs = fitted_model()
        ev = level_set(0.4, 0.5)
        a = gauss_prob(model, xs[1], ev, mc_size=300, seed=9)
        b = gauss_prob(model, xs[1], ev, mc_size=300, seed=9)
        c = gauss_prob(model, xs[1], ev, mc_size=300, seed=10)
        assert a.value == b.value
        assert a.value != c.value or a.count != c.count


@pytest.mark.parametrize("estimate", [
    lambda model, x: boot_prob(model, x, FULL_SPACE),
    lambda model, x: gauss_prob(model, x, FULL_SPACE, mc_size=5, seed=1),
], ids=["boot", "gauss"])
def test_both_estimators_refuse_a_covariate_of_another_structure(estimate):
    model, xs = fitted_model()
    for bad in (Covariate((), (1.0,)), zero_covariate(Grid(8)),
                Covariate(xs[0].curve_parts, (1.0,))):
        with pytest.raises(StructureError, match="does not match model"):
            estimate(model, bad)


class TestEnsembleNoise:
    def test_boot_rows_are_the_residuals(self):
        model, xs = fitted_model()
        assert ensemble_noise(model, "boot", 5, 1) is model.residual_matrix
        assert boot_prob(model, xs[0], FULL_SPACE).status == "ok"

    def test_gauss_rows_are_the_sampler_draws(self):
        model, xs = fitted_model()
        rows = ensemble_noise(model, "gauss", 40, 12)
        expected = GaussSampler(model.grid, model.noise_spectrum, 12).draw_matrix(40)
        np.testing.assert_array_equal(rows, expected)
        assert gauss_prob(model, xs[0], FULL_SPACE, mc_size=40, seed=12).status == "ok"

    def test_rank_zero_warns_and_draws_zeros(self):
        model = toy_model(GRID, np.zeros((4, GRID.size)))
        with pytest.warns(UserWarning, match="rank zero"):
            rows = ensemble_noise(model, "gauss", 7, 0)
        assert rows.shape == (7, GRID.size) and np.all(rows == 0.0)
        with pytest.warns(UserWarning, match="rank zero"):
            est = gauss_prob(model, zero_covariate(GRID), FULL_SPACE, mc_size=7, seed=0)
        assert est.status == "degenerate"

    @pytest.mark.parametrize("lam", [[0.0, 0.0], [2.0, 0.0], [1e-300, 0.0], [0.0, 1.0], [], [np.nan, 1.0]])
    def test_degenerate_exactly_when_the_sampler_has_rank_zero(self, lam):
        model = toy_model(GRID, np.zeros((4, GRID.size)))
        lam = np.asarray(lam)
        object.__setattr__(model, "noise_spectrum",
                           SpectralPair(lam, np.eye(GRID.size, lam.size)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            est = gauss_prob(model, zero_covariate(GRID), FULL_SPACE, mc_size=3, seed=0)
        assert (est.status == "degenerate") == (noise_sampler(model, 0).rank == 0)

    @pytest.mark.parametrize("ask", [
        lambda model, x: gauss_prob(model, x, FULL_SPACE, mc_size=5, seed=1),
        lambda model, x: quantile_over_family(model, x, family_max_below(-2.0, 2.0), 0.5,
                                              method="gauss", mc_size=5),
        lambda model, x: calibrate_uniform_band(model, x, 0.9, method="gauss", mc_size=5),
        lambda model, x: ensemble_noise(model, "gauss", 5, 1),
    ], ids=["gauss_prob", "quantile_over_family", "calibrate_uniform_band", "ensemble_noise"])
    def test_rank_zero_warning_names_the_callers_line(self, ask):
        model = toy_model(GRID, np.zeros((4, GRID.size)))
        with warnings.catch_warnings(record=True) as records:
            warnings.simplefilter("always")
            ask(model, zero_covariate(GRID))
        assert [r.filename for r in records if "rank zero" in str(r.message)] == [__file__]

    @pytest.mark.parametrize("method, mc_size", [("bogus", 10), ("Boot", 10), ("gauss", 0)])
    def test_rejects_unknown_method_and_empty_draw(self, method, mc_size):
        model, _ = fitted_model()
        with pytest.raises(UsageError):
            ensemble_noise(model, method, mc_size, 0)


class TestNoiseMemo:
    """A Gaussian ensemble build keeps its rows in the noise slot for the next
    covariate; ensemble_noise keeps nothing."""

    def test_memo_rows_match_a_fresh_sampler(self):
        model, xs = fitted_model()
        gauss_prob(model, xs[0], FULL_SPACE, mc_size=40, seed=12)
        key, kept = model.memo["noise"]
        gauss_prob(model, xs[1], FULL_SPACE, mc_size=40, seed=12)
        assert key == (40, 12) and model.memo["noise"][1] is kept
        np.testing.assert_array_equal(kept, noise_sampler(model, 12).draw_matrix(40))
        np.testing.assert_array_equal(ensemble_noise(model, "gauss", 40, 12), kept)

    @pytest.mark.parametrize("other", [(40, 13), (41, 12)])
    def test_another_seed_or_size_gives_other_rows(self, other):
        model, _ = fitted_model()
        kept = ensemble_noise(model, "gauss", 40, 12)
        rows = ensemble_noise(model, "gauss", *other)
        assert rows.shape != kept.shape or not np.array_equal(rows, kept)
        np.testing.assert_array_equal(rows, noise_sampler(model, other[1]).draw_matrix(other[0]))

    def test_rows_are_read_only(self):
        model, xs = fitted_model()
        gauss_prob(model, xs[0], FULL_SPACE, mc_size=30, seed=4)
        for rows in (model.memo["noise"][1], ensemble_noise(model, "gauss", 30, 4)):
            with pytest.raises(ValueError):
                rows[0, 0] = 1.0

    def test_one_request_keeps_no_rows(self):
        # ensemble_noise, however often asked, keeps nothing; an ensemble
        # build keeps its rows under their key, and a new key replaces them
        model, xs = fitted_model()
        for _ in range(2):
            ensemble_noise(model, "gauss", 30, 4)
        assert model.memo == {}
        gauss_prob(model, xs[0], FULL_SPACE, mc_size=30, seed=4)
        assert held(model) == ["ensemble/gauss", "noise"] and model.memo["noise"][0] == (30, 4)
        gauss_prob(model, xs[0], FULL_SPACE, mc_size=30, seed=5)
        assert held(model) == ["ensemble/gauss", "noise"] and model.memo["noise"][0] == (30, 5)

    def test_boot_leaves_the_memo_empty(self):
        model, _ = fitted_model()
        for _ in range(2):
            ensemble_noise(model, "boot", 30, 4)
        assert model.memo == {}

    def test_copies_start_empty(self):
        model, xs = fitted_model()
        gauss_prob(model, xs[0], FULL_SPACE, mc_size=30, seed=4)
        assert "noise" in model.memo
        assert from_json(to_json(model)).memo == {}
        assert dataclasses.replace(model).memo == {}

    @pytest.mark.parametrize("n_covariates", [1, 3])
    def test_query_traffic_draws_once_for_the_ensembles_and_once_for_the_band(
            self, monkeypatch, n_covariates):
        model, xs = fitted_model()
        draws = []
        draw = GaussSampler.draw_matrix
        monkeypatch.setattr(GaussSampler, "draw_matrix",
                            lambda sampler, count: draws.append(count) or draw(sampler, count))
        for x in xs[:n_covariates]:
            for event in (extremal_set(0.3), level_set(0.0, 0.5)):
                gauss_prob(model, x, event, mc_size=40, seed=2)
            quantile_over_family(model, x, family_max_below(-5.0, 5.0), 0.5,
                                 method="gauss", mc_size=40, seed=2)
            calibrate_uniform_band(model, x, 0.9, "gauss", mc_size=40, seed=2)
        assert draws == [40, 40]
        fresh = dataclasses.replace(model)
        ensemble_noise(fresh, "gauss", 40, 2)
        assert draws == [40, 40, 40] and fresh.memo == {}


def copy_of(x):
    """A distinct covariate object with the same values."""
    return Covariate(tuple(Curve(c.grid, c.values.copy()) for c in x.curve_parts))


def held(model):
    """The memo slots that hold a value."""
    return sorted(model.memo)


def full_space_prob(model, x, method, mc_size, seed):
    """The method's probability of the full space at ``x``."""
    if method == "boot":
        return boot_prob(model, x, FULL_SPACE)
    return gauss_prob(model, x, FULL_SPACE, mc_size=mc_size, seed=seed)


class TestEnsembleMemo:
    """The estimates keep the fitted mean plus noise from the first request
    for a covariate value, and calibrate_uniform_band keeps a band's
    covariate-free part from the first request for its key."""

    @pytest.mark.parametrize("method", ["boot", "gauss"])
    def test_hit_equals_a_fresh_ensemble_and_is_read_only(self, method):
        model, xs = fitted_model()
        fresh = predict_coords(model, xs[0].coords()) + ensemble_noise(model, method, 40, 12)
        for _ in range(2):
            full_space_prob(model, xs[0], method, 40, 12)
        kept = model.memo[f"ensemble/{method}"][1]
        assert full_space_prob(model, xs[0], method, 40, 12).status == "ok"
        assert model.memo[f"ensemble/{method}"][1] is kept
        np.testing.assert_array_equal(kept, fresh)
        with pytest.raises(ValueError):
            kept[0, 0] = 1.0

    def test_a_kept_model_cannot_change_under_its_memo(self):
        series = simulate_far(synthetic_dgp(Grid(100)), 120, seed=1)
        model = fit(build_far_design(series, order=1)[0])
        x, event = Covariate((series[-1],)), level_set(np.sqrt(50.0), 0.5)
        kept = [gauss_prob(model, x, event, seed=3).value for _ in range(2)]
        assert kept == [0.981, 0.981] and held(model) == ["ensemble/gauss", "noise"]
        with pytest.raises(ValueError, match="read-only"):
            model.y_mean[:] += 100
        model.memo.clear()
        assert gauss_prob(model, x, event, seed=3).value == 0.981

    def test_equal_covariate_objects_hit(self):
        model, xs = fitted_model()
        ev = level_set(0.2, 0.5)
        gauss_prob(model, xs[0], ev, mc_size=40, seed=1)
        gauss_prob(model, copy_of(xs[0]), ev, mc_size=40, seed=1)
        kept = model.memo["ensemble/gauss"][1]
        assert kept is not None
        gauss_prob(model, copy_of(xs[0]), ev, mc_size=40, seed=1)
        assert model.memo["ensemble/gauss"][1] is kept

    def test_changing_one_cell_misses(self):
        model, xs = fitted_model()
        for _ in range(2):
            boot_prob(model, xs[0], FULL_SPACE)
        kept = model.memo["ensemble/boot"][1]
        values = xs[0].curve_parts[0].values.copy()
        values[3] = np.nextafter(values[3], np.inf)
        changed = Covariate((Curve(model.grid, values),))
        coords = changed.coords()
        assert np.count_nonzero(coords != xs[0].coords()) == 1
        boot_prob(model, changed, FULL_SPACE)
        got = model.memo["ensemble/boot"][1]
        assert held(model) == ["ensemble/boot"] and got is not kept
        np.testing.assert_array_equal(got, predict_coords(model, coords) + model.residual_matrix)
        boot_prob(model, changed, FULL_SPACE)
        assert model.memo["ensemble/boot"][1] is got

    def test_gauss_key_holds_size_and_seed(self):
        model, xs = fitted_model()
        gauss_prob(model, xs[0], FULL_SPACE, mc_size=40, seed=12)
        last = model.memo["ensemble/gauss"][1]
        assert last is not None
        for mc_size, seed in [(40, 13), (41, 12)]:
            est = gauss_prob(model, xs[0], FULL_SPACE, mc_size=mc_size, seed=seed)
            key, kept = model.memo["ensemble/gauss"]
            assert key[1:] == (mc_size, seed) and kept is not last
            assert est.n_used == len(kept) == mc_size
            np.testing.assert_array_equal(
                kept, predict_coords(model, xs[0].coords())
                + noise_sampler(model, seed).draw_matrix(mc_size))
            last = kept

    def test_boot_and_gauss_slots_do_not_evict_each_other(self):
        model, xs = fitted_model()
        ev = extremal_set(0.3)
        boot_prob(model, xs[0], ev)
        gauss_prob(model, xs[0], ev, mc_size=40, seed=2)
        assert held(model) == ["ensemble/boot", "ensemble/gauss", "noise"]
        boot_kept, gauss_kept = model.memo["ensemble/boot"][1], model.memo["ensemble/gauss"][1]
        quantile_over_family(model, xs[0], family_max_below(-5.0, 5.0), 0.5)
        quantile_over_family(model, xs[0], family_max_below(-5.0, 5.0), 0.5,
                             method="gauss", mc_size=40, seed=2)
        assert model.memo["ensemble/boot"][1] is boot_kept
        assert model.memo["ensemble/gauss"][1] is gauss_kept

    def test_band_slot_separates_nominal_literal_abs_and_method(self):
        model, xs = fitted_model(n=60)
        base = dict(nominal=0.9, method="boot", mc_size=50, seed=3, literal_abs=False)
        cal, _ = calibrate_uniform_band(model, xs[0], **base)
        assert model.memo["band"][1][0] is cal
        assert calibrate_uniform_band(model, xs[1], **base)[0] is cal  # covariate-free
        for change in ({"nominal": 0.8}, {"literal_abs": True}, {"method": "gauss"}):
            args = dict(base, **change)
            got, band = calibrate_uniform_band(model, xs[0], **args)
            key, (kept, _, _) = model.memo["band"]
            assert got is not cal and kept is got
            assert key == (args["method"], 50, 3, args["nominal"], args["literal_abs"])
            fresh, fresh_band = calibrate_uniform_band(dataclasses.replace(model), xs[0], **args)
            assert repr(got) == repr(fresh)
            assert np.array_equal(band.lower.values, fresh_band.lower.values)
            assert np.array_equal(band.upper.values, fresh_band.upper.values)

    def test_band_values_are_read_only(self):
        model, xs = fitted_model()
        cal, band = calibrate_uniform_band(model, xs[0], 0.9, "boot")
        for curve in (cal.sigma, band.lower, band.upper):
            with pytest.raises(ValueError):
                curve.values[0] = 1.0

    @pytest.mark.parametrize("query, slots", [
        (lambda m, x: boot_prob(m, x, extremal_set(0.3)), ["ensemble/boot"]),
        (lambda m, x: gauss_prob(m, x, extremal_set(0.3), mc_size=40, seed=2),
         ["ensemble/gauss", "noise"]),
        (lambda m, x: quantile_over_family(m, x, family_max_below(-5.0, 5.0), 0.5,
                                           method="gauss", mc_size=40, seed=2),
         ["ensemble/gauss", "noise"]),
        (lambda m, x: calibrate_uniform_band(m, x, 0.9, "gauss", mc_size=40, seed=2), ["band"]),
        (lambda m, x: ensemble_noise(m, "gauss", 40, 2), []),
    ])
    def test_a_model_queried_once_holds_only_what_it_built(self, query, slots):
        # one request keeps what it built and nothing else: the band keeps no
        # Gaussian rows, and ensemble_noise keeps nothing
        model, xs = fitted_model()
        query(model, xs[0])
        assert held(model) == slots

    def test_each_new_covariate_builds_its_ensemble_once(self, monkeypatch):
        model, xs = fitted_model()
        builds = []
        monkeypatch.setattr(conddist, "predict_coords",
                            lambda m, coords: builds.append(coords) or predict_coords(m, coords))
        for x in xs[:3]:
            for event in (extremal_set(0.3), level_set(0.0, 0.5)):
                boot_prob(model, x, event)
                gauss_prob(model, x, event, mc_size=40, seed=2)
            quantile_over_family(model, x, family_max_below(-5.0, 5.0), 0.5)
        assert len(builds) == 6

    def test_copies_start_empty_and_equality_and_repr_are_unchanged(self):
        model, xs = fitted_model()
        before, text = dataclasses.replace(model), repr(model)
        boot_prob(model, xs[0], extremal_set(0.3))
        gauss_prob(model, xs[0], extremal_set(0.3), mc_size=40, seed=2)
        calibrate_uniform_band(model, xs[0], 0.9, "gauss", mc_size=40, seed=2)
        assert held(model) == ["band", "ensemble/boot", "ensemble/gauss", "noise"]
        assert from_json(to_json(model)).memo == {}
        assert dataclasses.replace(model).memo == {}
        assert model == before and repr(model) == text


def _answer(model, request):
    """The repr of one public call, with the bits of every curve it returns."""
    kind, x, method, (mc_size, seed), nominal, extra = request
    if kind == "prob" and method == "boot":
        return repr(boot_prob(model, x, extra))
    if kind == "prob":
        return repr(gauss_prob(model, x, extra, mc_size=mc_size, seed=seed))
    if kind == "quantile":
        try:
            return repr(quantile_over_family(model, x, extra, nominal, method=method,
                                             mc_size=mc_size, seed=seed))
        except RangeExhaustedError as err:
            return "exhausted " + repr(err.boundary_estimate)
    cal, band = calibrate_uniform_band(model, x, nominal, method, mc_size=mc_size, seed=seed,
                                       literal_abs=extra)
    return repr(cal) + "".join(c.values.tobytes().hex() for c in
                               (cal.sigma, band.center, band.lower, band.upper))


def test_memo_sweep_is_bit_identical_to_fresh_models():
    # interleaved requests with repeats: every answer from the memoizing
    # model equals the same call on a copy whose memo is empty
    rng = np.random.default_rng(2024)
    model, xs = fitted_model(n=40, seed=9)
    covariates = [xs[0], copy_of(xs[0]), xs[1], xs[2]]
    events = [extremal_set(0.3), level_set(0.0, 0.5), complement(extremal_set(0.8))]
    families = [family_max_below(-3.0, 3.0), family_max_below(-3.0, -1.5),
                family_level_in_alpha(0.4, -2.0, 2.0)]
    keys = [(60, 1), (60, 2), (80, 1)]
    request, kept, exhausted = None, set(), 0
    for step in range(400):
        if request is None or rng.random() < 0.4:
            kind = ["prob", "quantile", "band"][int(rng.integers(3))]
            extra = {"prob": events, "quantile": families, "band": [False, True]}[kind]
            request = (kind,
                       covariates[int(rng.integers(len(covariates)))],
                       ["boot", "gauss"][int(rng.integers(2))],
                       keys[int(rng.integers(len(keys)))],
                       [0.5, 0.9, 0.95][int(rng.integers(3))],
                       extra[int(rng.integers(len(extra)))])
        got = _answer(model, request)
        assert got == _answer(dataclasses.replace(model), request), (step, request)
        kept.update(held(model))
        exhausted += got.startswith("exhausted")
    assert kept == {"band", "ensemble/boot", "ensemble/gauss", "noise"} and exhausted > 5


class TestSampleNoise:
    def test_rank_zero_gives_zero_curves(self):
        sampler = GaussSampler(GRID, SpectralPair(np.zeros(2), np.eye(GRID.size, 2)), 0)
        draws = sampler.draw_matrix(5)
        assert draws.shape == (5, GRID.size) and np.all(draws == 0.0)

    @pytest.mark.parametrize("lam", [np.zeros(2), np.ones(2)])
    def test_negative_seed_is_a_usage_error_at_any_rank(self, lam):
        sampler = GaussSampler(GRID, SpectralPair(lam, np.eye(GRID.size, 2)), -1)
        with pytest.raises(UsageError, match="non-negative"):
            sampler.draw_matrix(5)
        with pytest.raises(UsageError, match="non-negative"):
            substream(0, 3, -2)

    def test_empirical_covariance_matches_spectrum(self):
        grid = Grid(20)
        sw = grid.quad_weights_sqrt()
        t = grid.points
        funcs = np.asarray([np.ones_like(t), np.sqrt(2) * np.sin(2 * np.pi * t)])
        lam = np.array([0.8, 0.3])
        vectors = (funcs * sw).T
        sampler = GaussSampler(grid, SpectralPair(lam, vectors), rng_seed=21)
        m = 5000
        draws = sampler.draw_matrix(m)
        # operator entries (weighted coordinates) obey the top-eigenvalue bound
        emp_op = (draws * sw).T @ (draws * sw) / m
        target_op = (vectors * lam) @ vectors.T
        assert np.max(np.abs(emp_op - target_op)) <= 5 * lam[0] / np.sqrt(m)
        # raw kernel values obey the pointwise-variance bound
        emp_kernel = draws.T @ draws / m
        target_kernel = (funcs.T * lam) @ funcs
        peak_var = float(np.max(np.diag(target_kernel)))
        assert np.max(np.abs(emp_kernel - target_kernel)) <= 5 * peak_var / np.sqrt(m)

    def test_empirical_mean_is_small(self):
        grid = Grid(20)
        sw = grid.quad_weights_sqrt()
        t = grid.points
        funcs = np.asarray([np.ones_like(t), np.sqrt(2) * np.cos(2 * np.pi * t)])
        lam = np.array([0.6, 0.2])
        sampler = GaussSampler(grid, SpectralPair(lam, (funcs * sw).T), rng_seed=8)
        m = 5000
        mean = sampler.draw_matrix(m).mean(axis=0)
        pointwise_sd = np.sqrt(np.sum(lam[:, None] * funcs**2, axis=0) / m)
        assert np.max(np.abs(mean)) <= 4 * np.max(pointwise_sd)

    @pytest.mark.parametrize("count, rank", [(1, 1), (7, 3), (2000, GRID.size)])
    def test_draws_equal_the_out_of_place_formula_bitwise(self, count, rank):
        rng = np.random.default_rng(count)
        vecs, _ = np.linalg.qr(rng.normal(size=(GRID.size, GRID.size)))
        lam = np.sort(rng.exponential(size=GRID.size))[::-1]
        lam[rank:] = 0.0
        sampler = GaussSampler(GRID, SpectralPair(lam, vecs), rng_seed=5)
        z = substream(5).standard_normal((count, rank))
        expected = (z * np.sqrt(lam[:rank])) @ vecs[:, :rank].T / GRID.quad_weights_sqrt()
        assert np.array_equal(sampler.draw_matrix(count), expected)

    def test_count_validation(self):
        sampler = GaussSampler(GRID, SpectralPair(np.ones(1), np.ones((GRID.size, 1))), 0)
        with pytest.raises(UsageError):
            sampler.draw_matrix(0)


class TestQuantileOverFamily:
    def setup_method(self):
        rows = np.array([[-1.0] * GRID.size, [0.0] * GRID.size, [1.0] * GRID.size])
        self.model = toy_model(GRID, rows)
        self.family = family_max_below(lo=-2.0, hi=2.0)
        self.tol = 1e-4 * 4.0

    def test_median_of_three_steps(self):
        got = quantile_over_family(self.model, zero_covariate(GRID), self.family, 0.5)
        assert abs(got - 0.0) <= self.tol

    def test_upper_tail(self):
        got = quantile_over_family(self.model, zero_covariate(GRID), self.family, 0.9)
        assert abs(got - 1.0) <= self.tol

    def test_small_p_hits_first_step(self):
        got = quantile_over_family(self.model, zero_covariate(GRID), self.family, 0.2)
        assert abs(got - (-1.0)) <= self.tol

    def test_nondecreasing_in_p(self):
        ps = np.linspace(0.05, 0.95, 19)
        xs = zero_covariate(GRID)
        values = [quantile_over_family(self.model, xs, self.family, p) for p in ps]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_gauss_nondecreasing_in_p_fixed_seed(self):
        model, xs = fitted_model(seed=4)
        family = family_max_below(lo=-6.0, hi=6.0)
        values = [
            quantile_over_family(model, xs[0], family, p, method="gauss",
                                 mc_size=400, seed=13)
            for p in np.linspace(0.05, 0.95, 10)
        ]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_range_exhausted_carries_boundary(self):
        family = family_max_below(lo=-2.0, hi=-1.0)
        with pytest.raises(RangeExhaustedError) as err:
            quantile_over_family(self.model, zero_covariate(GRID), family, 0.9)
        # only the constant -1 curve fits below the right end of the range
        assert err.value.boundary_estimate == pytest.approx(1 / 3)

    def test_rank_zero_gauss_answers_for_the_fitted_mean(self):
        # zero residuals: the boot ensemble is the fitted mean repeated, and a
        # rank-zero Gaussian ensemble must give the same answer
        model = dataclasses.replace(toy_model(GRID, np.zeros((4, GRID.size))),
                                    y_mean=0.7 * np.sin(2 * np.pi * GRID.points))
        x = zero_covariate(GRID)
        peak = float(np.max(predict(model, x).values))
        for family in (self.family, family_level_in_alpha(0.3, -2.0, 2.0)):
            for p in (0.1, 0.5, 0.9):
                with pytest.warns(UserWarning, match="rank zero"):
                    got = quantile_over_family(model, x, family, p, method="gauss", mc_size=30)
                assert got == quantile_over_family(model, x, family, p, method="boot")
        assert peak <= quantile_over_family(model, x, self.family, 0.5, method="boot") <= peak + self.tol


class TestLinearQuantiles:
    SIZES = [*range(1, 60), 100, 1000, 2000, 2001]
    LEVELS = [0.025, 0.975, 0.005, 0.995]

    @pytest.mark.parametrize("kind", ["random", "tied", "constant"])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e5])
    def test_equals_np_quantile_bitwise(self, kind, scale):
        rng = np.random.default_rng(["random", "tied", "constant"].index(kind))
        for m in self.SIZES:
            if kind == "random":
                values = scale * rng.normal(size=m)
            elif kind == "tied":
                values = scale * rng.integers(-3, 4, size=m).astype(float)
            else:
                values = np.full(m, -1.7 * scale)
            levels = [*self.LEVELS, *rng.uniform(size=4), 0.0, 0.5, 1.0]
            before = values.copy()
            got = linear_quantiles(values, levels)
            want = [np.quantile(values, q) for q in levels]
            assert np.array(got).tobytes() == np.array(want).tobytes(), (m, levels)
            assert values.tobytes() == before.tobytes()

    def test_reads_both_band_levels_from_one_partition(self, monkeypatch):
        calls = []
        partition = np.partition
        monkeypatch.setattr(np, "partition", lambda *a, **k: calls.append(1) or partition(*a, **k))
        values = np.random.default_rng(3).normal(size=2000)
        lo, hi = linear_quantiles(values, (0.025, 0.975))
        assert len(calls) == 1 and lo < hi


class TestCriticalValueQuantile:
    @staticmethod
    def search(values, grid, family, p, tol):
        """What ensemble_quantile gives, in scan_quantile's form."""
        try:
            return float(ensemble_quantile(values, grid, family, p, tol))
        except RangeExhaustedError as err:
            return ("exhausted", float(err.boundary_estimate))

    def test_matches_a_scan_of_the_search_grid(self):
        # the search reads one order statistic of the critical values; the
        # reference counts the ensemble in the family's event at each grid
        # point in turn, and both must give the same float, or the same
        # boundary estimate when p is out of reach
        rng = np.random.default_rng(17)
        models = [fitted_model(n=30, seed=s) for s in range(4)]
        exhausted = 0
        for case in range(240):
            model, xs = models[case % 4]
            x = xs[int(rng.integers(len(xs)))]
            kind = case % 3
            if kind == 0:
                lo = float(rng.uniform(-3.0, 1.0))
                family = family_level_in_alpha(float(rng.choice([0.0, 0.25, 0.5, 0.57, 0.9])),
                                               lo, lo + float(rng.uniform(0.2, 4.0)))
            elif kind == 1:
                lo = float(rng.uniform(0.0, 0.6))
                family = family_level_in_z(float(rng.uniform(-1.0, 1.0)),
                                           lo, lo + float(rng.uniform(0.1, 0.4)))
            else:
                lo = float(rng.uniform(-2.0, 2.0))
                family = family_max_below(lo, lo + float(rng.uniform(0.2, 4.0)))
            p = float(rng.choice([0.05, 0.5, 0.9, 0.975, 1 - 1 / 41]))
            noise = ("boot", 0, 0) if case % 2 else (
                "gauss", int(rng.integers(50, 400)), int(rng.integers(1000)))
            tol = float(rng.uniform(1e-3, 0.2)) if case % 5 == 0 else None
            # the ensemble quantile_over_family searches
            values = predict_coords(model, x.coords()) + ensemble_noise(model, *noise)
            got = self.search(values, model.grid, family, p, tol)
            want = scan_quantile(values, model.grid, family, p, tol)
            assert repr(got) == repr(want), (case, got, want)
            exhausted += isinstance(got, tuple)
        assert 20 <= exhausted <= 200

    def test_matches_a_scan_when_critical_values_sit_on_the_grid(self):
        # integer-valued ensembles on a grid of step 1/2 or 1/4: the search
        # meets critical values exactly, where "reaches p" must hold, also at
        # a range end (a lower end of 3 is often the order statistic itself,
        # and an upper end of 2 is often out of reach but some row's maximum)
        rng = np.random.default_rng(29)
        for case in range(30):
            model = toy_model(GRID, rng.integers(-3, 4, size=(12, GRID.size)))
            x = zero_covariate(GRID)
            tol = float(rng.choice([0.25, 0.5]))
            p = float(rng.choice([0.25, 0.5, 0.75, 11 / 12]))
            for family in (family_max_below(-4.0, 4.0),
                           family_level_in_alpha(float(rng.choice([0.0, 0.3, 0.5])), -4.0, 4.0),
                           family_max_below(3.0, 4.0), family_max_below(-4.0, 2.0)):
                values = predict_coords(model, x.coords()) + ensemble_noise(model, "boot", 0, 0)
                got = self.search(values, GRID, family, p, tol)
                assert repr(got) == repr(scan_quantile(values, GRID, family, p, tol)), case

    def test_order_statistic_is_where_the_fraction_reaches_p(self):
        crit = np.array([3.0, -np.inf, 1.0, 1.0, 2.0, np.inf])
        for p, expected in [(0.1, -np.inf), (1 / 6, -np.inf), (0.2, 1.0), (0.5, 1.0),
                            (0.6, 2.0), (0.8, 3.0), (0.9, np.inf)]:
            t = order_statistic_quantile(crit, p)
            assert t == expected
            assert np.count_nonzero(crit <= t) / crit.size >= p
            if t > -np.inf:
                below = np.nextafter(t, -np.inf)
                assert np.count_nonzero(crit <= below) / crit.size < p
        # 0.07 * 100 rounds above 7, but 7 / 100 >= 0.07 already holds
        assert order_statistic_quantile(np.arange(100.0)[::-1], 0.07) == 6.0


class TestEstimatorAxioms:
    def test_bounds_complement_monotonicity(self):
        model, xs = fitted_model(n=25, seed=7)
        x = xs[2]
        fam = family_level_in_alpha(z=0.4, lo=-3.0, hi=3.0)
        thresholds = np.linspace(-3, 3, 9)
        for method, kwargs in (("boot", {}), ("gauss", {"mc_size": 256, "seed": 17})):
            previous = -1.0
            for a in thresholds:
                ev = fam.at(a)
                if method == "boot":
                    est = boot_prob(model, x, ev)
                    est_c = boot_prob(model, x, complement(ev))
                else:
                    est = gauss_prob(model, x, ev, **kwargs)
                    est_c = gauss_prob(model, x, complement(ev), **kwargs)
                assert 0.0 <= est.value <= 1.0
                assert est.value + est_c.value == 1.0
                assert est.count + est_c.count == est.n_used
                assert est.value >= previous
                previous = est.value


class TestUniformBand:
    def test_zero_residuals_collapse(self):
        model = toy_model(GRID, np.zeros((4, GRID.size)))
        cal, band = calibrate_uniform_band(model, zero_covariate(GRID), 0.95, "boot")
        assert cal.lower_quantile == cal.upper_quantile == 0.0
        center = predict(model, zero_covariate(GRID))
        assert contains(band, center)
        off = Curve(GRID, center.values + 1e-9)
        assert not contains(band, off)

    def test_zero_residuals_still_validate_the_method(self):
        model = toy_model(GRID, np.zeros((4, GRID.size)))
        with pytest.raises(UsageError, match="method must be"):
            calibrate_uniform_band(model, zero_covariate(GRID), 0.95, "bogus")

    def test_symmetric_residuals_give_symmetric_quantiles(self):
        rng = np.random.default_rng(3)
        half = rng.normal(size=(40, GRID.size))
        rows = np.vstack([half, -half])  # exactly symmetric residual cloud
        model = toy_model(GRID, rows)
        cal, _ = calibrate_uniform_band(model, zero_covariate(GRID), 0.9, "boot")
        assert cal.lower_quantile == pytest.approx(-cal.upper_quantile, abs=1e-12)
        assert cal.lower_quantile < 0 < cal.upper_quantile

    def test_gauss_near_symmetric(self):
        model, xs = fitted_model(n=60, seed=12)
        cal, _ = calibrate_uniform_band(model, xs[0], 0.9, "gauss", mc_size=4000, seed=19)
        assert abs(cal.lower_quantile + cal.upper_quantile) <= 0.2

    def test_band_widens_as_nominal_grows(self):
        model, xs = fitted_model(n=60, seed=14)
        widths = []
        for nominal in (0.5, 0.8, 0.95, 0.999):
            cal, _ = calibrate_uniform_band(model, xs[1], nominal, "boot")
            widths.append(cal.upper_quantile - cal.lower_quantile)
        assert all(a <= b for a, b in zip(widths, widths[1:]))

    def test_extreme_nominal_covers_nearly_all_boot_curves(self):
        # the interpolated quantiles sit just inside the extreme order
        # statistics, so at most the two most extreme curves may fall out
        model, xs = fitted_model(n=30, seed=15)
        _, band = calibrate_uniform_band(model, xs[3], 0.9999, "boot")
        est = boot_prob(model, xs[3], band)
        n = model.residual_matrix.shape[0]
        assert est.count >= n - 2

    def test_literal_abs_variant_is_one_sided(self):
        model, xs = fitted_model(n=50, seed=16)
        cal, _ = calibrate_uniform_band(model, xs[0], 0.9, "boot", literal_abs=True)
        assert cal.lower_quantile >= 0.0  # the literal reading keeps both quantiles positive

    def test_boot_probability_of_own_band_tracks_nominal(self):
        model, xs = fitted_model(n=200, seed=18)
        nominal = 0.9
        _, band = calibrate_uniform_band(model, xs[0], nominal, "boot")
        est = boot_prob(model, xs[0], band)
        assert abs(est.value - nominal) <= 0.06


class TestMonteCarloRate:
    def test_quadrupling_draws_halves_the_error(self):
        model, xs = fitted_model(n=50, seed=20)
        ev = level_set(0.2, 0.5)
        x = xs[0]

        def spread(mc_size):
            vals = [
                gauss_prob(model, x, ev, mc_size=mc_size, seed=s).value
                for s in range(40)
            ]
            return np.std(vals)

        ratio = spread(250) / spread(1000)
        assert 2.0 / 1.5 <= ratio <= 2.0 * 1.5


class TestUniformConvergenceSurrogate:
    def test_sup_error_over_family_shrinks_with_n(self):
        grid = Grid(30)
        spec = synthetic_dgp(grid)
        predictor = simulate_far(spec, 1, seed=77)[0]
        x = Covariate((predictor,))
        thresholds = np.linspace(4.0, 11.0, 25)
        oracle_draws = conditional_draws(spec, predictor.values, 10_000, seed=555)
        truth = np.asarray([
            np.mean(np.count_nonzero(oracle_draws > a, axis=1) / grid.size <= 0.5)
            for a in thresholds
        ])

        def sup_error(n, rep):
            series = simulate_far_values(spec, n, substream(900 + rep, n))
            sample, _ = build_far_design(series, order=1)
            model = fit(sample, TruncationRule.threshold())
            center = predict(model, x).values
            ensemble = center + model.residual_matrix
            est = np.asarray([
                np.mean(np.count_nonzero(ensemble > a, axis=1) / grid.size <= 0.5)
                for a in thresholds
            ])
            return np.max(np.abs(est - truth))

        errors_small = [sup_error(50, r) for r in range(21)]
        errors_large = [sup_error(500, r) for r in range(21)]
        assert np.median(errors_large) < np.median(errors_small)
