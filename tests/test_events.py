import numpy as np
import pytest

from curveprob.curves import Curve, Grid
from curveprob.errors import StructureError, UsageError
from curveprob.events import (
    EventSet,
    _has_run,
    boundary_set,
    complement,
    contains_batch,
    contrast_set,
    excursion_set,
    extremal_set,
    family_level_in_alpha,
    family_level_in_z,
    family_max_below,
    format_event,
    level_set,
    level_shares,
    parse_event,
    parse_family,
    sorted_columns,
    uniform_band,
)

from reference import FAMILY_EVENTS, contains, in_point_band, longest_run

GRID = Grid(100)
LINE = Curve(GRID, GRID.points.copy())


def random_curves(grid, count, seed, scale=1.0, shift=0.0):
    rng = np.random.default_rng(seed)
    return [Curve(grid, shift + scale * rng.normal(size=grid.size)) for _ in range(count)]


class TestContains:
    def test_level_set_violated_by_high_constant(self):
        assert not contains(level_set(alpha=50.0, z=0.5), Curve.constant(GRID, 60.0))

    def test_level_set_boundary_convention(self):
        # exceedance exactly at z passes (non-strict on z)
        y = Curve.constant(GRID, 60.0)
        assert contains(level_set(alpha=50.0, z=1.0), y)

    def test_contrast_mean_above_zero(self):
        assert contains(contrast_set(Curve.constant(GRID, 1.0), 0.0), LINE)

    def test_extremal_strict_at_the_maximum(self):
        # max of the line is exactly 1; strict inequality fails
        assert not contains(extremal_set(1.0), LINE)
        assert contains(extremal_set(0.999), LINE)

    def test_excursion(self):
        assert contains(excursion_set(d=0.5, c=0.25), LINE)
        assert not contains(excursion_set(d=0.5, c=0.75), LINE)

    def test_boundary_inclusive_and_infinite(self):
        assert contains(boundary_set(0.0, 1.0), LINE)
        assert contains(boundary_set(-np.inf, 1.0), LINE)
        assert not contains(boundary_set(0.1, np.inf), LINE)

    def test_bands(self):
        center = Curve.constant(GRID, 0.0)
        one = Curve.constant(GRID, 1.0)
        y = Curve(GRID, 0.5 * np.sin(2 * np.pi * GRID.points))
        assert contains(uniform_band(center, one, one), y)
        narrow = Curve.constant(GRID, 0.1)
        assert not contains(uniform_band(center, narrow, narrow), y)


def test_a_contrast_curve_on_another_grid_is_a_structure_error():
    gamma = Curve.constant(Grid(10), 1.0)
    values = np.zeros((3, GRID.size))
    for event in (contrast_set(gamma, 0.5), complement(contrast_set(gamma, 0.5))):
        with pytest.raises(StructureError, match="grid 10.*grid 100"):
            contains_batch(event, values, GRID)


class TestComplement:
    @pytest.mark.parametrize("event", [
        level_set(0.0, 0.5),
        contrast_set(Curve.constant(GRID, 1.0), 0.1),
        extremal_set(0.3),
        excursion_set(0.0, 0.2),
        boundary_set(-1.0, 1.0),
        uniform_band(Curve.constant(GRID, 0.0), Curve.constant(GRID, 1.0),
                     Curve.constant(GRID, 1.0)),
    ])
    def test_negation(self, event):
        for y in random_curves(GRID, 20, seed=1):
            assert contains(complement(event), y) == (not contains(event, y))

    def test_double_complement_unwraps(self):
        ev = level_set(0.0, 0.5)
        assert complement(complement(ev)) is ev


class TestBatchConsistency:
    def test_batch_matches_scalar_on_all_kinds(self):
        curves = random_curves(GRID, 30, seed=2)
        values = np.asarray([c.values for c in curves])
        events = [
            level_set(0.2, 0.4),
            contrast_set(Curve(GRID, GRID.points - 0.5), 0.0),
            extremal_set(1.0),
            excursion_set(-0.5, 0.3),
            boundary_set(-2.0, 2.0),
            complement(extremal_set(0.5)),
        ]
        for ev in events:
            batch = contains_batch(ev, values, GRID)
            singles = [contains(ev, c) for c in curves]
            assert list(batch) == singles


class TestLongestRun:
    @pytest.mark.parametrize("shape", [(200, 101), (50, 1), (0, 101), (7, 0), (9, 37)])
    def test_matches_a_plain_loop(self, shape):
        rng = np.random.default_rng(shape[0] + shape[1])
        mask = rng.uniform(size=shape) < rng.uniform(size=(shape[0], 1))
        if shape[0] >= 2:
            mask[0], mask[1] = True, False
        longest = [longest_run(row) for row in mask]
        for length in range(-1, shape[1] + 2):
            runs = _has_run(mask, length)
            assert runs.shape == (shape[0],) and runs.dtype == bool
            assert list(runs) == [r >= length for r in longest], length

    @pytest.mark.parametrize("width", [1, 2, 3, 64])
    def test_all_true_and_all_false_rows(self, width):
        mask = np.array([[True] * width, [False] * width])
        for length in range(width + 2):
            assert list(_has_run(mask, length)) == [length <= width, length <= 0]


def excursion_reference(values, grid, d, c) -> list:
    """Excursion membership from the plain-loop longest run of each row."""
    return [max(longest_run(row > d) - 1, 0) / grid.resolution >= c
            for row in values]


class TestExcursionExact:
    @pytest.mark.parametrize("resolution", [2, 7, 100])
    def test_every_span_the_grid_can_take(self, resolution):
        grid = Grid(resolution)
        rng = np.random.default_rng(resolution)
        walks = np.cumsum(rng.normal(size=(300, grid.size)), axis=1)
        matrices = {"random": walks, "all above": np.ones((4, grid.size)),
                    "all below": -np.ones((4, grid.size)), "no rows": np.empty((0, grid.size))}
        spans = [k / resolution for k in range(resolution + 1)]
        cs = (spans + [np.nextafter(c, np.inf) for c in spans]
              + [0.0, -0.0, -0.5, -np.inf, np.nextafter(1.0, np.inf), 1.5, np.inf])
        for name, values in matrices.items():
            for c in cs:
                got = contains_batch(excursion_set(0.0, c), values, grid)
                assert got.shape == (len(values),) and got.dtype == bool
                assert list(got) == excursion_reference(values, grid, 0.0, c), (name, c)
        # the random walks reach every decision: some rows in and some out
        inside = contains_batch(excursion_set(0.0, 0.5), walks, grid)
        assert inside.any() and not inside.all()


class TestRowCountWidths:
    """All-True rows of 255, 256 and 1001 cells: a count kept in a dtype
    narrower than the width would wrap and flip these memberships."""

    @pytest.mark.parametrize("resolution", [254, 255, 1000])
    def test_full_rows_count_to_the_width(self, resolution):
        grid = Grid(resolution)
        one_out = np.ones(grid.size)
        one_out[resolution // 2] = -1.0
        values = np.stack([np.ones(grid.size), -np.ones(grid.size), one_out])
        width = grid.size
        below_one = np.nextafter(1.0, -np.inf)
        assert list(contains_batch(level_set(0.0, 1.0), values, grid)) == [True] * 3
        assert list(contains_batch(level_set(0.0, below_one), values, grid)) == [
            False, True, True]
        assert list(contains_batch(level_set(0.0, (width - 1) / width), values, grid)) == [
            False, True, True]
        assert list(contains_batch(complement(level_set(0.0, below_one)), values, grid)) == [
            True, False, False]
        assert list(contains_batch(boundary_set(0.0, 2.0), values, grid)) == [
            True, False, False]
        assert list(contains_batch(boundary_set(-2.0, 0.0), values, grid)) == [
            False, True, False]
        zero = Curve.constant(grid, 0.0)
        band = uniform_band(Curve.constant(grid, 1.0), zero, zero)
        assert list(contains_batch(band, values, grid)) == [True, False, False]
        assert list(family_level_in_z(0.0).critical(values, grid)) == [
            1.0, 0.0, (width - 1) / width]


def level_shares_reference(noise, centers, offsets, alpha):
    """Each test day's ensemble tested directly, as a level event does."""
    return np.asarray([np.count_nonzero(((c + noise) + s) > alpha, axis=1) / noise.shape[1]
                       for c, s in zip(centers, offsets)])


def assert_level_shares_exact(noise, centers, offsets, alphas):
    columns = sorted_columns(noise)
    for alpha in alphas:
        want = level_shares_reference(noise, centers, offsets, alpha)
        got = level_shares(columns, centers, offsets, alpha)
        assert got.shape == (len(centers), len(noise))
        np.testing.assert_array_equal(got, want, err_msg=f"alpha={alpha}")


class TestLevelShares:
    def test_ties_duplicated_rows_and_sums_on_alpha(self):
        # tenths round differently as (c + v) + s and as (c + s) + v, and every
        # alpha is a sum some cell lands on exactly, or the double beside it
        rng = np.random.default_rng(7)
        noise = rng.integers(-9, 10, size=(40, 6)) / 10
        noise = np.concatenate([noise, noise[:15], noise[:3]])
        centers = rng.integers(0, 10, size=(5, 6)) / 10
        offsets = rng.integers(-5, 6, size=(5, 6)) / 10
        centers[1], offsets[1] = centers[0], offsets[0]
        sums = np.unique((centers[:, None] + noise) + offsets[:, None])
        alphas = rng.choice(sums, size=20, replace=False)
        alphas = np.concatenate([alphas, np.nextafter(alphas[:5], np.inf),
                                 np.nextafter(alphas[:5], -np.inf), [-2.0, 2.5]])
        assert_level_shares_exact(noise, centers, offsets, alphas)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_centers_and_alphas(self):
        rng = np.random.default_rng(8)
        noise = rng.normal(size=(30, 5))
        centers = np.array([[np.nan, 0.0, np.inf, -np.inf, 1.0],
                            [np.inf, np.inf, -np.inf, 0.5, np.nan],
                            [0.0, -0.5, 0.25, 2.0, -1.0]])
        offsets = np.array([[0.0, np.nan, -np.inf, 1.0, 0.0],
                            [-np.inf, 1.0, np.inf, 0.0, 0.0],
                            [0.0, 0.0, 0.0, 0.0, 0.0]])
        assert_level_shares_exact(noise, centers, offsets, [-np.inf, np.inf, 0.0, 1.0, np.nan])

    def test_one_row_and_one_day(self):
        rng = np.random.default_rng(9)
        assert_level_shares_exact(rng.normal(size=(1, 4)), rng.normal(size=(3, 4)),
                                  rng.normal(size=(3, 4)), [-1.0, 0.0, 1.0])
        assert_level_shares_exact(rng.normal(size=(50, 4)), rng.normal(size=(1, 4)),
                                  rng.normal(size=(1, 4)), [-1.0, 0.0, 1.0])

    @pytest.mark.parametrize("m", [255, 256, 65_536])
    def test_rank_dtype_boundaries(self, m):
        # prefixes of length 0 and m occur: one day lies below every sum,
        # one above, and the third straddles alpha
        rng = np.random.default_rng(m)
        noise = rng.normal(size=(m, 3))
        centers = np.array([[-10.0] * 3, [10.0] * 3, [0.0, 0.5, -0.5]])
        assert_level_shares_exact(noise, centers, np.zeros((3, 3)), [0.0, -20.0, 20.0])

    def test_grid_of_more_than_255_points(self):
        rng = np.random.default_rng(10)
        noise = rng.normal(size=(20, 300))
        centers = np.stack([np.full(300, 10.0), np.zeros(300), np.full(300, -10.0)])
        assert_level_shares_exact(noise, centers, rng.normal(size=(3, 300)), [0.0, 1.0])


class TestMonotoneFamilies:
    @pytest.mark.parametrize("family,event,param_grid", [
        (family_level_in_z(alpha=0.0), FAMILY_EVENTS["level-z"](0.0), np.linspace(0.0, 1.0, 21)),
        *((family_level_in_alpha(z=z, lo=-2.0, hi=2.0), FAMILY_EVENTS["level-alpha"](z),
           np.linspace(-2.0, 2.0, 21)) for z in (0.3, 0.57, 0.0, 1.0, -0.1)),
        (family_max_below(lo=-2.0, hi=2.0), FAMILY_EVENTS["max-below"](),
         np.linspace(-2.0, 2.0, 21)),
    ])
    def test_membership_nested_in_parameter(self, family, event, param_grid):
        curves = random_curves(GRID, 25, seed=3)
        for y in curves:
            flags = [contains(event(x), y) for x in param_grid]
            # once a curve enters the family it stays in (increasing sets)
            assert all(a <= b for a, b in zip(flags, flags[1:]))
        # the critical value is where a curve enters: at every parameter,
        # including each critical value and the double just below it, and
        # on tied samples, "crit <= xi" is the family's membership test
        values = np.array([y.values for y in curves] + [np.round(y.values) for y in curves])
        crit = family.critical(values, GRID)
        finite = crit[np.isfinite(crit)]
        params = np.concatenate([param_grid, finite, np.nextafter(finite, -np.inf)])
        for xi in params:
            np.testing.assert_array_equal(
                crit <= xi, contains_batch(event(xi), values, GRID))

    def test_z_sweep_inclusion_example(self):
        small = level_set(50.0, 0.2)
        big = level_set(50.0, 0.4)
        for y in random_curves(GRID, 20, seed=4, scale=30.0, shift=40.0):
            if contains(small, y):
                assert contains(big, y)

    def test_alpha_sweep_inclusion_example(self):
        for y in random_curves(GRID, 20, seed=5, scale=10.0, shift=12.0):
            if contains(level_set(10.0, 0.3), y):
                assert contains(level_set(20.0, 0.3), y)

    def test_invalid_direction(self):
        with pytest.raises(UsageError):
            family_max_below(2.0, -2.0)


class TestBandNesting:
    def test_uniform_band_implies_point_band_everywhere(self):
        # the uniform band is the intersection of the pointwise bands at the grid points
        center = Curve(GRID, np.sin(2 * np.pi * GRID.points))
        lower = Curve.constant(GRID, 0.8)
        upper = Curve.constant(GRID, 0.9)
        uni = uniform_band(center, lower, upper)
        shifted = [Curve(GRID, center.values + t) for t in np.linspace(-1.2, 1.2, 25)]
        spiked = [Curve(GRID, center.values + 1.5 * (np.arange(GRID.size) == j))
                  for j in (0, 37, GRID.resolution)]
        for y in shifted + spiked + random_curves(GRID, 40, seed=6, scale=0.8):
            pointwise = [in_point_band(center, lower, upper, s, y) for s in GRID.points]
            assert contains(uni, y) == all(pointwise)
        assert any(contains(uni, y) for y in shifted)
        assert not any(contains(uni, y) for y in spiked)


class TestGridRefinement:
    def test_exceedance_stabilizes_when_doubling_d(self):
        # smooth curve: the grid proxy converges, halving the resolution error
        for d in (50, 100, 200, 400):
            g = Grid(d)
            y = Curve(g, np.sin(2 * np.pi * g.points))
            # the share of points above 0 lies within 2/d of one half
            assert contains(level_set(0.0, 0.5 + 2.0 / d), y)
            assert not contains(level_set(0.0, np.nextafter(0.5 - 2.0 / d, -np.inf)), y)


class TestParsing:
    def test_level(self):
        ev = parse_event("level:alpha=50,z=0.5")
        assert ev.kind == "level" and ev.alpha == 50.0 and ev.z == 0.5

    def test_excursion(self):
        ev = parse_event("excursion:d=0,c=0.25")
        assert ev.kind == "excursion" and ev.d == 0.0 and ev.c == 0.25

    def test_extremal_and_boundary(self):
        assert parse_event("extremal:d=1").d == 1.0
        ev = parse_event("boundary:lo=-inf,hi=5")
        assert np.isneginf(ev.lo) and ev.hi == 5.0

    def test_complement_nests(self):
        ev = parse_event("complement:extremal:d=0")
        assert ev.kind == "complement" and ev.inner.kind == "extremal"

    def test_contrast_loads_curve(self):
        loaded = {}

        def loader(path):
            loaded["path"] = path
            return Curve.constant(GRID, 1.0)

        ev = parse_event("contrast:gamma=@gamma.csv,a=0.5", load_curve=loader)
        assert loaded["path"] == "gamma.csv"
        assert ev.a == 0.5

    def test_errors(self):
        with pytest.raises(UsageError):
            parse_event("level:alpha=50")           # missing z
        with pytest.raises(UsageError):
            parse_event("levels:alpha=50,z=1")      # unknown kind
        with pytest.raises(UsageError):
            parse_event("level:alpha=50,z=1,q=2")   # stray parameter
        with pytest.raises(UsageError):
            parse_event("contrast:gamma=@x.csv,a=1")  # no loader available

    @pytest.mark.parametrize("text, message", [
        ("extremal:d=0,d=99", "event parameter 'd' is given twice"),
        ("extremal:d=abc", "event parameter 'd' is not a number: 'abc'"),
        ("level:alpha=nan,z=0.5", "event parameter 'alpha' is NaN"),
        ("extremal", "needs the form kind:key=value"),
    ])
    def test_event_spec_rules(self, text, message):
        with pytest.raises(UsageError, match=message):
            parse_event(text)

    def test_family_kinds(self):
        # each spec gives its factory's range and critical values, bit for bit
        values = np.array([y.values for y in random_curves(GRID, 25, seed=3, scale=30.0)])
        for text, want in (
                ("level-alpha:z=0.5,lo=0,hi=25", family_level_in_alpha(0.5, 0.0, 25.0)),
                (" Level-Z : alpha=50 ", family_level_in_z(50.0, 0.0, 1.0)),
                ("max-below:lo=-5,hi=5", family_max_below(-5.0, 5.0))):
            fam = parse_family(text)
            assert (fam.lo, fam.hi) == (want.lo, want.hi), text
            got, expected = fam.critical(values, GRID), want.critical(values, GRID)
            assert got.tobytes() == expected.tobytes(), text

    @pytest.mark.parametrize("text, message", [
        ("max-below:lo=0,hi=25,typo=1", r"unused family parameters: \['typo'\]"),
        ("level-z:alpha=6,z=0.3", r"unused family parameters: \['z'\]"),
        ("max-below:lo=0,lo=1,hi=25", "family parameter 'lo' is given twice"),
        ("level-alpha:z=nan,lo=0,hi=25", "family parameter 'z' is NaN"),
        ("level-alpha:z=0.5,lo=x,hi=25", "family parameter 'lo' is not a number: 'x'"),
        ("level-alpha:lo=0,hi=25", "family kind 'level-alpha' needs parameter 'z'"),
        ("max-below:lo=0,hi", "bad family parameter 'hi'"),
        ("max-above:lo=0,hi=1", "family kind 'max-above' is not one of"),
    ])
    def test_family_spec_rules(self, text, message):
        with pytest.raises(UsageError, match=message):
            parse_family(text)

    def test_format_round_trips_scalars(self):
        ev = level_set(50.0, 0.5)
        assert parse_event(format_event(ev)) == ev

    def test_format_writes_each_kind(self):
        for event, text in (
                (level_set(50.0, 0.5), "level:alpha=50.0,z=0.5"),
                (contrast_set(LINE, 0.5), "contrast:gamma=<curve>,a=0.5"),
                (extremal_set(1.0), "extremal:d=1.0"),
                (excursion_set(0.0, 0.25), "excursion:d=0.0,c=0.25"),
                (boundary_set(-np.inf, 5.0), "boundary:lo=-inf,hi=5.0"),
                (complement(extremal_set(1.0)), "complement:extremal:d=1.0"),
                (uniform_band(LINE, LINE, LINE), "uniform_band")):
            assert format_event(event) == text


class TestConstructor:
    @pytest.mark.parametrize("kind, params", [
        ("level", {"alpha": 5.0}),
        ("level", {"alpha": 5.0, "z": 0.5, "d": 1.0}),
        ("contrast", {"a": 0.5}),
        ("boundary", {"lo": 0.0, "hi": 1.0, "center": LINE}),
        ("uniform_band", {"center": LINE, "lower": LINE}),
        ("complement", {}),
        ("complement", {"inner": extremal_set(1.0), "d": 1.0}),
    ], ids=["missing", "foreign", "missing curve", "foreign curve", "band missing",
            "empty complement", "complement foreign"])
    def test_a_missing_or_foreign_parameter_is_a_usage_error(self, kind, params):
        with pytest.raises(UsageError, match=f"event kind '{kind}' takes exactly the parameters"):
            EventSet(kind, **params)

    def test_the_message_names_the_kind_and_the_parameters(self):
        with pytest.raises(UsageError) as err:
            EventSet("level", alpha=5.0)
        assert str(err.value) == ("event kind 'level' takes exactly the parameters "
                                  "('alpha', 'z'), got ('alpha',)")

    def test_unknown_kind(self):
        with pytest.raises(UsageError, match="unknown event kind 'levels'"):
            EventSet("levels", alpha=5.0, z=0.5)
