"""Event sets over curves and monotone one-parameter families of them.

Each kind follows its defining inequality verbatim, strict or not, so
membership is deterministic; the consistency theory only needs the event
boundary to carry no probability, which holds for the smooth Gaussian
processes the harness simulates.

Built-in kinds:

* ``level``       time spent above ``alpha`` is at most ``z``
* ``contrast``    inner product with ``gamma`` exceeds ``a`` (strict)
* ``extremal``    maximum exceeds ``d`` (strict)
* ``excursion``   stays above ``d`` for an unbroken span of at least ``c``
* ``boundary``    all values inside [``lo``, ``hi``] (inclusive; infinite bounds allowed)
* ``point_band``  value at the grid point nearest ``s`` inside a band around ``center``
* ``uniform_band``all values inside the band around ``center``
* ``complement``  negation of an inner event
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .curves import Curve
from .errors import UsageError

KINDS = (
    "level", "contrast", "extremal", "excursion", "boundary",
    "point_band", "uniform_band", "complement",
)


@dataclass(frozen=True)
class EventSet:
    kind: str
    alpha: float = None      # level threshold
    z: float = None          # level time budget
    gamma: Curve = None      # contrast function
    a: float = None          # contrast level
    d: float = None          # extremal / excursion threshold
    c: float = None          # excursion minimum span
    lo: float = None         # boundary lower bound
    hi: float = None         # boundary upper bound
    center: Curve = None     # band center
    lower: Curve = None      # band lower offset (band floor = center - lower)
    upper: Curve = None      # band ceiling offset
    s: float = None          # point_band location
    inner: "EventSet" = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise UsageError(f"unknown event kind {self.kind!r}")


def level_set(alpha: float, z: float) -> EventSet:
    return EventSet("level", alpha=float(alpha), z=float(z))


def contrast_set(gamma: Curve, a: float) -> EventSet:
    return EventSet("contrast", gamma=gamma, a=float(a))


def extremal_set(d: float) -> EventSet:
    return EventSet("extremal", d=float(d))


def excursion_set(d: float, c: float) -> EventSet:
    return EventSet("excursion", d=float(d), c=float(c))


def boundary_set(lo: float, hi: float) -> EventSet:
    return EventSet("boundary", lo=float(lo), hi=float(hi))


def point_band(center: Curve, lower: Curve, upper: Curve, s: float) -> EventSet:
    return EventSet("point_band", center=center, lower=lower, upper=upper, s=float(s))


def uniform_band(center: Curve, lower: Curve, upper: Curve) -> EventSet:
    return EventSet("uniform_band", center=center, lower=lower, upper=upper)


def complement(inner: EventSet) -> EventSet:
    if inner.kind == "complement":
        return inner.inner
    return EventSet("complement", inner=inner)


def _longest_run_lengths(mask: np.ndarray) -> np.ndarray:
    """Row-wise longest run of True in a boolean matrix: one sweep over the
    columns, each step vectorized over the rows."""
    longest = np.zeros(mask.shape[0], dtype=np.intp)
    run = np.zeros_like(longest)
    for column in mask.T:
        run += 1
        run *= column
        np.maximum(longest, run, out=longest)
    return longest


@dataclass(frozen=True)
class SortedColumns:
    """The columns of a (m, D+1) noise matrix, each sorted once for
    :func:`level_shares`: ``values[g]`` is column g in ascending order and
    ``ranks[g, r]`` is the position of cell (r, g) in it. The rank dtype also
    holds m, the longest prefix of a column."""

    values: np.ndarray = field(repr=False)  # (D+1, m)
    ranks: np.ndarray = field(repr=False)   # (D+1, m)


def sorted_columns(noise: np.ndarray) -> SortedColumns:
    # tied cells pass or fail the level test together, so their order is free
    noise = np.ascontiguousarray(np.asarray(noise, dtype=float).T)
    order = np.argsort(noise, axis=1)
    ranks = np.empty(noise.shape, dtype=np.min_scalar_type(noise.shape[1]))
    np.put_along_axis(ranks, order, np.arange(noise.shape[1]), axis=1)
    return SortedColumns(np.take_along_axis(noise, order, axis=1), ranks)


def level_shares(columns: SortedColumns, centers: np.ndarray, offsets: np.ndarray,
                 alpha: float) -> np.ndarray:
    """(T, m) share of grid points above ``alpha`` for every test curve
    ``(centers[t] + noise[r]) + offsets[t]``: bit for bit
    ``count_nonzero(((centers[t] + noise) + offsets[t]) > alpha, axis=1) / (D+1)``
    for each of the T rows of ``centers`` and ``offsets``.

    Float addition is monotone, so for finite noise the cells of one column
    that fail the test form a prefix of the sorted column. One bisection over all (t, g)
    pairs finds each prefix length; a cell is then above ``alpha`` exactly
    when its rank reaches that length, swept column by column.
    """
    values, ranks = columns.values, columns.ranks
    size, m = values.shape
    cols = np.arange(size)
    prefix = np.zeros(np.shape(centers), dtype=np.intp)
    step = 1 << (m.bit_length() - 1)
    while step:
        longer = prefix + step
        v = values[cols, np.minimum(longer, m) - 1]
        # not <=: a NaN sum fails here, as it does in the level test
        fails = ~(((centers + v) + offsets) > alpha)
        prefix = np.where((longer <= m) & fails, longer, prefix)
        step >>= 1
    prefix = prefix.astype(ranks.dtype)

    counts = np.zeros((prefix.shape[0], m), dtype=np.min_scalar_type(size))
    above = np.empty(counts.shape, dtype=bool)
    for g in range(size):
        np.greater_equal(ranks[g], prefix[:, g, np.newaxis], out=above)
        counts += above
    return counts / size


def contains(event: EventSet, y: Curve) -> bool:
    """Deterministic membership test."""
    return bool(contains_batch(event, y.values[np.newaxis, :], y.grid)[0])


def contains_batch(event: EventSet, values: np.ndarray, grid) -> np.ndarray:
    """Vectorized membership for a (m, D+1) matrix of curve samples."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    k = event.kind
    if k == "level":
        frac = np.count_nonzero(values > event.alpha, axis=1) / grid.size
        return frac <= event.z
    if k == "contrast":
        weighted = grid.quad_weights() * event.gamma.values
        return values @ weighted > event.a
    if k == "extremal":
        return np.max(values, axis=1) > event.d
    if k == "excursion":
        runs = _longest_run_lengths(values > event.d)
        return np.maximum(runs - 1, 0) / grid.resolution >= event.c
    if k == "boundary":
        ok = np.ones(values.shape[0], dtype=bool)
        if np.isfinite(event.lo):
            ok &= np.all(values >= event.lo, axis=1)
        if np.isfinite(event.hi):
            ok &= np.all(values <= event.hi, axis=1)
        return ok
    if k == "point_band":
        i = int(round(event.s * grid.resolution))
        i = min(max(i, 0), grid.resolution)
        floor = event.center.values[i] - event.lower.values[i]
        ceil = event.center.values[i] + event.upper.values[i]
        return (values[:, i] >= floor) & (values[:, i] <= ceil)
    if k == "uniform_band":
        floor = event.center.values - event.lower.values
        ceil = event.center.values + event.upper.values
        return np.all((values >= floor) & (values <= ceil), axis=1)
    if k == "complement":
        return ~contains_batch(event.inner, values, grid)
    raise UsageError(f"unknown event kind {k!r}")


@dataclass(frozen=True)
class MonotoneFamily:
    """One-parameter family of event sets nested by inclusion.

    ``generator(xi)`` must return events that grow with xi. The built-in
    factories guarantee this; custom families assert it themselves.

    The built-in families also carry ``critical(values, grid)``: per row of
    a (m, D+1) sample matrix, the parameter at which that curve enters the
    event, so that ``contains_batch(at(xi), values, grid)`` equals
    ``critical(values, grid) <= xi`` for every xi.
    """

    generator: Callable[[float], EventSet] = field(compare=False)
    lo: float
    hi: float
    critical: Optional[Callable[[np.ndarray, object], np.ndarray]] = field(
        default=None, compare=False, repr=False)

    def __post_init__(self):
        if not self.lo < self.hi:
            raise UsageError(f"family range must satisfy lo < hi, got [{self.lo}, {self.hi}]")

    def at(self, xi: float) -> EventSet:
        return self.generator(xi)


def level_alpha_critical(values: np.ndarray, grid, z: float) -> np.ndarray:
    """Per row of a (m, D+1) matrix, the smallest alpha with
    ``level_set(alpha, z)`` holding: the (allow+1)-th largest sample, where
    allow is the largest point count k with ``k / grid.size <= z`` (the
    ``level`` kernel's test). +inf when no k qualifies, -inf when k = size
    does."""
    size = grid.size
    allow = int(np.count_nonzero(np.arange(size + 1) / size <= z)) - 1
    if allow < 0:
        return np.full(values.shape[0], np.inf)
    if allow == size:
        return np.full(values.shape[0], -np.inf)
    kth = size - 1 - allow  # ascending position of the (allow+1)-th largest
    return np.partition(values, kth, axis=1)[:, kth]


def family_level_in_z(alpha: float, lo: float = 0.0, hi: float = 1.0) -> MonotoneFamily:
    """Level sets swept in the time budget z at a fixed threshold; increasing."""
    alpha = float(alpha)
    return MonotoneFamily(
        lambda z: level_set(alpha, z), lo, hi,
        critical=lambda values, grid: np.count_nonzero(values > alpha, axis=1) / grid.size,
    )


def family_level_in_alpha(z: float, lo: float, hi: float) -> MonotoneFamily:
    """Level sets swept in the threshold alpha at a fixed budget; increasing."""
    z = float(z)
    return MonotoneFamily(
        lambda alpha: level_set(alpha, z), lo, hi,
        critical=lambda values, grid: level_alpha_critical(values, grid, z),
    )


def family_max_below(lo: float, hi: float) -> MonotoneFamily:
    """{curves whose maximum stays at or below xi}; increasing in xi."""
    return MonotoneFamily(
        lambda d: complement(extremal_set(d)), lo, hi,
        critical=lambda values, grid: np.max(values, axis=1),
    )


def parse_event(text: str, load_curve=None) -> EventSet:
    """Parse the compact event syntax used on the command line.

    Examples: ``level:alpha=50,z=0.5``, ``contrast:gamma=@g.csv,a=0.5``,
    ``extremal:d=1``, ``excursion:d=0,c=0.25``, ``boundary:lo=-inf,hi=5``,
    and ``complement:<inner spec>``. Curve-valued parameters use ``@path``
    and are resolved through ``load_curve``.
    """
    kind, sep, rest = text.partition(":")
    kind = kind.strip().lower()
    if not sep:
        raise UsageError(f"event spec {text!r} needs the form kind:key=value,...")
    if kind == "complement":
        return complement(parse_event(rest, load_curve))

    params = {}
    for piece in filter(None, (p.strip() for p in rest.split(","))):
        key, eq, value = piece.partition("=")
        if not eq:
            raise UsageError(f"bad event parameter {piece!r}, expected key=value")
        params[key.strip()] = value.strip()

    def num(key):
        if key not in params:
            raise UsageError(f"event kind {kind!r} needs parameter {key!r}")
        try:
            value = float(params.pop(key))
        except ValueError as exc:
            raise UsageError(f"parameter {key!r} is not a number: {exc}") from exc
        if np.isnan(value):
            raise UsageError(f"parameter {key!r} is NaN, not a number")
        return value

    def curve(key):
        if key not in params:
            raise UsageError(f"event kind {kind!r} needs parameter {key!r}")
        ref = params.pop(key)
        if not ref.startswith("@"):
            raise UsageError(f"parameter {key!r} must reference a curve file as @path")
        if load_curve is None:
            raise UsageError("no curve loader available for @path parameters")
        return load_curve(ref[1:])

    if kind == "level":
        result = level_set(num("alpha"), num("z"))
    elif kind == "contrast":
        result = contrast_set(curve("gamma"), num("a"))
    elif kind == "extremal":
        result = extremal_set(num("d"))
    elif kind == "excursion":
        result = excursion_set(num("d"), num("c"))
    elif kind == "boundary":
        result = boundary_set(num("lo"), num("hi"))
    else:
        raise UsageError(f"event kind {kind!r} cannot be parsed from a string")
    if params:
        raise UsageError(f"unused event parameters: {sorted(params)}")
    return result


def format_event(event: EventSet) -> str:
    """Compact one-line description for reports."""
    k = event.kind
    if k == "level":
        return f"level:alpha={event.alpha},z={event.z}"
    if k == "contrast":
        return f"contrast:gamma=<curve>,a={event.a}"
    if k == "extremal":
        return f"extremal:d={event.d}"
    if k == "excursion":
        return f"excursion:d={event.d},c={event.c}"
    if k == "boundary":
        return f"boundary:lo={event.lo},hi={event.hi}"
    if k == "complement":
        return f"complement:{format_event(event.inner)}"
    return k

