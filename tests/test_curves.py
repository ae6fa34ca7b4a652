import numpy as np
import pytest

from curveprob.curves import Covariate, Curve, Grid, curve_matrix
from curveprob.errors import StructureError, UsageError
from curveprob.events import (
    boundary_set,
    contains_batch,
    excursion_set,
    extremal_set,
    level_set,
)

from reference import covariate_inner, l2_inner, longest_run


def line(grid):
    return Curve(grid, grid.points.copy())


def inside(event, *curves) -> np.ndarray:
    """Membership of each curve, through the vectorized event kernel."""
    return contains_batch(event, np.asarray([c.values for c in curves]), curves[0].grid)


def below(x: float) -> float:
    return float(np.nextafter(x, -np.inf))


def above(x: float) -> float:
    return float(np.nextafter(x, np.inf))


class TestGrid:
    def test_points_are_uniform(self):
        g = Grid(4)
        np.testing.assert_allclose(g.points, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_rejects_tiny_resolution(self):
        with pytest.raises(UsageError):
            Grid(1)

    def test_quad_weights_sum_to_one(self):
        w = Grid(37).quad_weights()
        assert w[0] == w[-1] == pytest.approx(1 / 74)
        assert np.sum(w) == pytest.approx(1.0)


class TestCurveValidation:
    def test_rejects_nan(self):
        g = Grid(4)
        with pytest.raises(StructureError):
            Curve(g, np.array([0.0, 1.0, np.nan, 0.0, 0.0]))

    def test_rejects_wrong_length(self):
        with pytest.raises(StructureError):
            Curve(Grid(4), np.zeros(4))

    def test_covariate_requires_shared_grid(self):
        with pytest.raises(StructureError):
            Covariate((Curve.constant(Grid(4), 1.0), Curve.constant(Grid(8), 1.0)))


class TestCurveMatrix:
    def test_list_and_array_give_the_same_matrix(self):
        g = Grid(6)
        rng = np.random.default_rng(2)
        curves = [Curve(g, rng.normal(size=g.size)) for _ in range(5)]
        values, grid = curve_matrix(curves)
        assert grid == g and values.shape == (5, g.size)
        np.testing.assert_array_equal(values, [c.values for c in curves])
        again, grid = curve_matrix(values)
        assert grid == g
        np.testing.assert_array_equal(again, values)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_array_cells_must_be_finite_as_in_a_curve(self, bad):
        values = np.zeros((3, 5))
        values[2, 4] = bad
        with pytest.raises(StructureError, match="curve values must be finite"):
            curve_matrix(values)

    def test_rejects_other_shapes_and_mixed_grids(self):
        with pytest.raises(StructureError):
            curve_matrix(np.zeros(5))
        with pytest.raises(UsageError):
            curve_matrix(np.zeros((3, 2)))  # Grid(1)
        with pytest.raises(UsageError):
            curve_matrix([])
        with pytest.raises(StructureError):
            curve_matrix([Curve.constant(Grid(4), 1.0), Curve.constant(Grid(8), 1.0)])


class TestInnerProduct:
    """The trapezoid weights behind every L2 inner product."""

    def test_constant_one(self):
        assert np.sum(Grid(100).quad_weights()) == pytest.approx(1.0)

    def test_linear_integrand_is_exact(self):
        g = Grid(100)
        assert g.quad_weights() @ g.points == pytest.approx(0.5)

    def test_sine_against_constant_vanishes(self):
        g = Grid(200)
        assert abs(l2_inner(g, np.sin(2 * np.pi * g.points), np.ones(g.size))) < 1e-10

    def test_positive_definite_up_to_zero_curve(self):
        g = Grid(25)
        rng = np.random.default_rng(5)
        for _ in range(20):
            c = rng.normal(size=g.size)
            assert l2_inner(g, c, c) > 0.0
        assert l2_inner(g, np.zeros(g.size), np.zeros(g.size)) == 0.0

    def test_cauchy_schwarz(self):
        g = Grid(50)
        rng = np.random.default_rng(11)
        for _ in range(50):
            a, b = rng.normal(size=g.size), rng.normal(size=g.size)
            lhs = l2_inner(g, a, b) ** 2
            rhs = l2_inner(g, a, a) * l2_inner(g, b, b)
            assert lhs <= rhs * (1 + 1e-12)


class TestCovariateInnerProduct:
    """Weighted coordinates turn the covariate inner product into a dot product."""

    def test_zero_parts(self):
        g = Grid(10)
        a = Covariate((Curve.constant(g, 0.0),), (0.0,)).coords()
        assert a @ a == 0.0

    def test_reduces_to_curve_inner_product(self):
        g = Grid(60)
        rng = np.random.default_rng(2)
        u = Curve(g, rng.normal(size=g.size))
        v = Curve(g, rng.normal(size=g.size))
        assert Covariate((u,)).coords() @ Covariate((v,)).coords() == pytest.approx(
            l2_inner(g, u.values, v.values)
        )

    def test_scalar_only(self):
        a = Covariate((), (1.0, 2.0))
        b = Covariate((), (3.0, 4.0))
        assert a.coords() @ b.coords() == pytest.approx(11.0)

    def test_coords_dot_matches_inner_product(self):
        g = Grid(30)
        rng = np.random.default_rng(8)
        for _ in range(10):
            a = Covariate((Curve(g, rng.normal(size=g.size)),), (rng.normal(),))
            b = Covariate((Curve(g, rng.normal(size=g.size)),), (rng.normal(),))
            assert float(a.coords() @ b.coords()) == pytest.approx(covariate_inner(a, b))


class TestSupNorm:
    """max |c| <= r exactly when c lies in the boundary event [-r, r]; the
    maximum itself is the threshold where the strict extremal event flips."""

    def test_constant(self):
        c = Curve.constant(Grid(10), -3.0)
        assert inside(boundary_set(-3.0, 3.0), c)[0]
        assert not inside(boundary_set(above(-3.0), below(3.0)), c)[0]

    def test_line_attains_at_endpoint(self):
        c = line(Grid(10))
        assert inside(boundary_set(-1.0, 1.0), c)[0]
        assert not inside(boundary_set(-1.0, below(1.0)), c)[0]
        assert not inside(extremal_set(1.0), c)[0]
        assert inside(extremal_set(below(1.0)), c)[0]

    def test_zero(self):
        assert inside(boundary_set(0.0, 0.0), Curve.constant(Grid(10), 0.0))[0]

    def test_dominates_l2_norm(self):
        g = Grid(40)
        rng = np.random.default_rng(3)
        curves = [Curve(g, rng.normal(size=g.size)) for _ in range(20)]
        for c in curves:
            r = below(np.sqrt(l2_inner(g, c.values, c.values)) - 1e-12)
            assert not inside(boundary_set(-r, r), c)[0]

    def test_triangle_inequality(self):
        g = Grid(40)
        rng = np.random.default_rng(4)
        for _ in range(20):
            a = Curve(g, rng.normal(size=g.size))
            b = Curve(g, rng.normal(size=g.size))
            r = np.max(np.abs(a.values)) + np.max(np.abs(b.values)) + 1e-12
            assert inside(boundary_set(-r, r), Curve(g, a.values + b.values))[0]


class TestExceedance:
    """The share of grid points above alpha is at most z exactly when the
    level event (alpha, z) holds."""

    def test_line_at_half(self):
        c = line(Grid(100))
        # share above 0.5 lies within 1/100 of one half
        assert inside(level_set(0.5, 0.5 + 1 / 100), c)[0]
        assert not inside(level_set(0.5, below(0.5 - 1 / 100)), c)[0]

    def test_never_exceeds(self):
        assert inside(level_set(1.0, 0.0), Curve.constant(Grid(10), 0.0))[0]

    def test_sine_symmetry(self):
        g = Grid(1000)
        s = Curve(g, np.sin(2 * np.pi * g.points))
        assert inside(level_set(0.0, 0.5 + 2 / 1000), s)[0]
        assert not inside(level_set(0.0, below(0.5 - 2 / 1000)), s)[0]

    def test_monotone_in_threshold(self):
        g = Grid(50)
        rng = np.random.default_rng(9)
        c = Curve(g, rng.normal(size=g.size))
        levels = np.linspace(-3, 3, 25)
        for z in np.linspace(0.0, 1.0, 11):
            held = [inside(level_set(a, z), c)[0] for a in levels]
            assert all(x <= y for x, y in zip(held, held[1:]))

    def test_below_minimum_gives_one(self):
        g = Grid(50)
        c = Curve(g, np.random.default_rng(10).normal(size=g.size))
        alpha = float(np.min(c.values)) - 1.0
        assert inside(level_set(alpha, 1.0), c)[0]
        assert not inside(level_set(alpha, below(1.0)), c)[0]


class TestLongestExcursion:
    """The longest span above d is at least c exactly when the excursion
    event (d, c) holds, so the span is the largest c that still holds."""

    def test_entire_interval(self):
        assert inside(excursion_set(0.0, 1.0), Curve.constant(Grid(10), 1.0))[0]

    def test_never_above(self):
        assert not inside(excursion_set(0.0, above(0.0)), Curve.constant(Grid(10), -1.0))[0]

    def test_line_above_075(self):
        g = Grid(100)
        # grid points 0.76 .. 1.00 form the run; 24 subintervals
        span = max(longest_run(g.points > 0.75) - 1, 0) / 100
        assert span == 0.24
        assert inside(excursion_set(0.75, span), line(g))[0]
        assert not inside(excursion_set(0.75, above(span)), line(g))[0]

    def test_matches_brute_force_on_random_curves(self):
        g = Grid(37)
        rng = np.random.default_rng(12)
        for _ in range(100):
            c = Curve(g, rng.normal(size=g.size))
            d = rng.normal()
            span = max(longest_run(c.values > d) - 1, 0) / 37
            assert inside(excursion_set(d, span), c)[0]
            assert not inside(excursion_set(d, above(span)), c)[0]

    def test_isolated_point_counts_zero(self):
        g = Grid(10)
        vals = np.zeros(g.size)
        vals[4] = 2.0
        assert not inside(excursion_set(1.0, above(0.0)), Curve(g, vals))[0]
