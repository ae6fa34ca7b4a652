import numpy as np
import pytest

from curveprob.curves import Covariate, Curve, Grid
from curveprob.errors import DegenerateInputError, StructureError, UsageError
from curveprob.flm import RegressionSample, TruncationRule, fit
from curveprob.spectral import (
    CovarianceOperator,
    SpectralPair,
    eigendecompose,
    empirical_covariance,
    truncation_pve,
    truncation_threshold,
)

from reference import reconstruct


def scalar_cov(*rows):
    return Covariate((), tuple(rows))


class TestCovarianceOperator:
    def test_rejects_asymmetric(self):
        with pytest.raises(StructureError):
            CovarianceOperator(np.array([[1.0, 0.5], [0.2, 1.0]]))

    def test_rejects_negative_diagonal(self):
        with pytest.raises(StructureError):
            CovarianceOperator(np.array([[-1.0, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_cell_is_degenerate(self, bad):
        # inf - inf = nan passed the symmetry test, and eigh then failed
        m = np.eye(3)
        m[0, 0] = bad
        with pytest.raises(DegenerateInputError, match="non-finite"):
            CovarianceOperator(m)

    def test_overflowing_sample_is_degenerate(self):
        coords = 1e200 * np.random.default_rng(4).normal(size=(40, 9))
        with np.errstate(over="ignore"), pytest.raises(DegenerateInputError):
            empirical_covariance(coords)


class TestEmpiricalCovariance:
    def test_opposite_pair_centered(self):
        g = Grid(20)
        coords = np.sin(np.pi * g.points) * g.quad_weights_sqrt()
        op = empirical_covariance(np.array([coords, -coords]))
        np.testing.assert_allclose(op.matrix, np.outer(coords, coords), atol=1e-14)

    def test_single_element_centered_is_zero(self):
        # the caller centers the rows, as fit does
        g = Grid(10)
        x = np.full((1, g.size), 3.0) * g.quad_weights_sqrt()
        op = empirical_covariance(x - x.mean(axis=0))
        np.testing.assert_allclose(op.matrix, 0.0, atol=1e-15)

    def test_basis_vectors_uncentered(self):
        op = empirical_covariance(np.eye(2))
        np.testing.assert_allclose(op.matrix, np.diag([0.5, 0.5]))

    def test_empty_sample_raises(self):
        with pytest.raises(UsageError):
            empirical_covariance(np.zeros((0, 3)))


class TestCrossCovariance:
    """The response-covariate cross-covariance is formed inside ``fit``.
    Without centering, and keeping every direction of a covariate sample
    whose covariance is the identity on its span, ``coef_w`` is that
    cross-covariance projected on the span."""

    def test_zero_responses(self):
        g = Grid(10)
        sample = RegressionSample.from_pairs(
            [Curve.constant(g, 0.0)] * 3, [scalar_cov(1.0), scalar_cov(2.0), scalar_cov(3.0)])
        np.testing.assert_allclose(fit(sample, TruncationRule.fixed(1)).coef_w, 0.0)

    def test_single_pair_outer_product(self):
        # the pair (x, y) and its mirror (-x, -y): covariance x x^T and
        # cross-covariance y x^T, so the operator is y x^T / |x|^2
        g = Grid(10)
        y = Curve(g, g.points.copy())
        x = np.array([2.0, -1.0])
        sample = RegressionSample.from_pairs(
            [y, Curve(g, -y.values)], [scalar_cov(*x), scalar_cov(*-x)])
        got = fit(sample, TruncationRule.fixed(1), center=False).coef_w
        want = np.outer(y.values * g.quad_weights_sqrt(), x) / (x @ x)
        np.testing.assert_allclose(got, want, atol=1e-14)

    def test_recovers_operator_under_identity_design(self):
        # oracle: with (1/n) sum x x^T = I, the cross-covariance of y = R x
        # is exactly the matrix R
        g = Grid(15)
        rng = np.random.default_rng(1)
        p = 4
        target = rng.normal(size=(g.size, p))
        xs, ys = [], []
        scale = np.sqrt(p)  # n = p rescaled basis vectors give identity covariance
        sw = g.quad_weights_sqrt()
        for k in range(p):
            coords = np.zeros(p)
            coords[k] = scale
            xs.append(scalar_cov(*coords))
            ys.append(Curve(g, (target @ coords) / sw))
        model = fit(RegressionSample.from_pairs(ys, xs), TruncationRule.fixed(p), center=False)
        np.testing.assert_allclose(model.coef_w, target, atol=1e-12)

    def test_length_mismatch(self):
        g = Grid(10)
        with pytest.raises(UsageError):
            RegressionSample.from_pairs([Curve.constant(g, 0.0)] * 2, [scalar_cov(1.0)])


class TestEigendecompose:
    def test_closed_form_2x2(self):
        pair = eigendecompose(CovarianceOperator(np.array([[2.0, 1.0], [1.0, 2.0]])))
        np.testing.assert_allclose(pair.eigenvalues, [3.0, 1.0])

    def test_identity(self):
        pair = eigendecompose(CovarianceOperator(np.eye(3)))
        np.testing.assert_allclose(pair.eigenvalues, 1.0)
        np.testing.assert_allclose(pair.eigenvectors.T @ pair.eigenvectors, np.eye(3), atol=1e-12)

    def test_rank_one(self):
        e = np.array([0.0, 2.0, 0.0])
        pair = eigendecompose(CovarianceOperator(np.outer(e, e)))
        assert pair.eigenvalues[0] == pytest.approx(4.0)
        np.testing.assert_allclose(pair.eigenvalues[1:], 0.0, atol=1e-12)

    def test_reconstruction_on_random_psd(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = rng.normal(size=(8, 8))
            op = CovarianceOperator(a @ a.T)
            pair = eigendecompose(op)
            err = np.max(np.abs(reconstruct(pair) - op.matrix))
            assert err <= 1e-8 * (1 + pair.eigenvalues[0])

    def test_sign_convention(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(6, 6))
        pair = eigendecompose(CovarianceOperator(a @ a.T))
        for j in range(6):
            v = pair.eigenvectors[:, j]
            assert v[np.argmax(np.abs(v))] > 0

    @pytest.mark.parametrize("p", [1, 25, 101])
    def test_sign_rule_equals_a_per_column_loop(self, p):
        rng = np.random.default_rng(p)
        for rank in (p, max(1, p // 3)):  # full rank, and zero eigenvalues too
            a = rng.normal(size=(p, rank))
            op = CovarianceOperator(a @ a.T)
            vals, vecs = np.linalg.eigh(op.matrix)
            want = vecs[:, np.argsort(vals)[::-1]]
            for j in range(p):
                lead = int(np.argmax(np.abs(want[:, j])))
                if want[lead, j] < 0:
                    want[:, j] = -want[:, j]
            np.testing.assert_array_equal(eigendecompose(op).eigenvectors, want)

    def test_tied_magnitudes_follow_the_first(self, monkeypatch):
        s = np.sqrt(0.5)
        vecs = np.array([[-s, s], [s, s]])  # column 0 is (-a, a), column 1 is (a, a)
        monkeypatch.setattr(np.linalg, "eigh", lambda m: (np.array([2.0, 1.0]), vecs.copy()))
        pair = eigendecompose(CovarianceOperator(np.eye(2)))
        np.testing.assert_array_equal(pair.eigenvectors, [[s, s], [-s, s]])

    def test_empty_operator(self):
        pair = eigendecompose(CovarianceOperator(np.zeros((0, 0))))
        assert pair.eigenvalues.shape == (0,) and pair.eigenvectors.shape == (0, 0)
        assert pair.rank == 0 and pair.clamped_mass == 0.0

    def test_rejects_clearly_non_psd(self):
        with pytest.raises(StructureError):
            eigendecompose(CovarianceOperator(np.array([[0.0, 1.0], [1.0, 0.0]])))

    def test_rank_bounded_spectra(self):
        # rank-r input: at most r eigenvalues above 1e-10 * top
        rng = np.random.default_rng(9)
        for r in (1, 2, 3):
            a = rng.normal(size=(10, r))
            pair = eigendecompose(CovarianceOperator(a @ a.T))
            above = np.count_nonzero(pair.eigenvalues > 1e-10 * pair.eigenvalues[0])
            assert above <= r


class TestTruncationThreshold:
    def test_plain_case(self):
        pair = SpectralPair(np.array([1.0, 0.1, 0.001]), np.eye(3))
        assert truncation_threshold(pair, 100.0) == 2

    def test_mn_one_keeps_top_plateau(self):
        pair = SpectralPair(np.array([2.0, 2.0, 1.0]), np.eye(3))
        assert truncation_threshold(pair, 1.0) == 2

    def test_tie_at_threshold_is_kept(self):
        pair = SpectralPair(np.array([4.0, 3.0, 2.0, 1.0]), np.eye(4))
        assert truncation_threshold(pair, 2.0) == 3

    def test_absolute_variant(self):
        pair = SpectralPair(np.array([4.0, 3.0, 2.0, 1.0]), np.eye(4))
        assert truncation_threshold(pair, 2.0, relative=False) == 4
        small = SpectralPair(np.array([0.4, 0.3, 0.2, 0.1]), np.eye(4))
        assert truncation_threshold(small, 4.0, relative=False) == 2

    def test_zero_spectrum_is_degenerate(self):
        with pytest.raises(DegenerateInputError):
            truncation_threshold(SpectralPair(np.zeros(3), np.eye(3)), 10.0)

    def test_nondecreasing_in_mn(self):
        rng = np.random.default_rng(4)
        lam = np.sort(rng.uniform(0, 1, size=12))[::-1]
        pair = SpectralPair(lam, np.eye(12))
        counts = [truncation_threshold(pair, m) for m in (1, 2, 5, 10, 100, 1e6)]
        assert all(a <= b for a, b in zip(counts, counts[1:]))

    def test_capped_at_rank(self):
        pair = SpectralPair(np.array([1.0, 0.5, 0.0, 0.0]), np.eye(4))
        assert truncation_threshold(pair, 1e12) == 2


class TestTruncationPve:
    def test_examples(self):
        pair = SpectralPair(np.array([4.0, 3.0, 2.0, 1.0]), np.eye(4))
        assert truncation_pve(pair, 0.69) == 2
        assert truncation_pve(pair, 0.71) == 3
        assert truncation_pve(pair, 1e-9) == 1

    def test_zero_mass_is_degenerate(self):
        with pytest.raises(DegenerateInputError):
            truncation_pve(SpectralPair(np.zeros(2), np.eye(2)), 0.5)

    def test_nondecreasing_in_v(self):
        rng = np.random.default_rng(6)
        lam = np.sort(rng.uniform(0, 1, size=9))[::-1]
        pair = SpectralPair(lam, np.eye(9))
        counts = [truncation_pve(pair, v) for v in np.linspace(0.05, 0.999, 30)]
        assert all(a <= b for a, b in zip(counts, counts[1:]))
