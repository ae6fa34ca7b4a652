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
* ``uniform_band``all values inside the band around ``center``
* ``complement``  negation of an inner event
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .curves import Curve
from .errors import StructureError, UsageError

# each kind's parameters, in field order; the constructor, parse_event and
# format_event all read this table
PARAMS = {"level": ("alpha", "z"), "contrast": ("gamma", "a"), "extremal": ("d",),
          "excursion": ("d", "c"), "boundary": ("lo", "hi"),
          "uniform_band": ("center", "lower", "upper"), "complement": ("inner",)}


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
    inner: "EventSet" = None

    def __post_init__(self):
        if self.kind not in PARAMS:
            raise UsageError(f"unknown event kind {self.kind!r}")
        given = tuple(key for key, value in vars(self).items()
                      if key != "kind" and value is not None)
        if given != PARAMS[self.kind]:
            raise UsageError(f"event kind {self.kind!r} takes exactly the parameters "
                             f"{PARAMS[self.kind]}, got {given}")


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


def uniform_band(center: Curve, lower: Curve, upper: Curve) -> EventSet:
    return EventSet("uniform_band", center=center, lower=lower, upper=upper)


def complement(inner: EventSet) -> EventSet:
    if inner.kind == "complement":
        return inner.inner
    return EventSet("complement", inner=inner)


def _has_run(mask: np.ndarray, length: int) -> np.ndarray:
    """Rows of a boolean matrix that hold an unbroken run of at least
    ``length`` True cells (every row for ``length <= 0``).

    ``run[:, j]`` says cells j .. j+span-1 are all True; ANDing it with
    itself shifted by ``step <= span`` extends the span by ``step``, so the
    span doubles each vectorized step until it reaches ``length``.
    """
    if length <= 0:
        return np.ones(mask.shape[0], dtype=bool)
    run, span = mask, 1
    while span < length:
        step = min(span, length - span)
        run = run[:, :-step] & run[:, step:]
        span += step
    return run.any(axis=1)


def _row_counts(mask: np.ndarray) -> np.ndarray:
    """True cells per row of a boolean matrix, in the narrowest unsigned
    dtype that holds the row width."""
    return np.add.reduce(mask.view(np.uint8), axis=1, dtype=np.min_scalar_type(mask.shape[1]))


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


def contains_batch(event: EventSet, values: np.ndarray, grid) -> np.ndarray:
    """Vectorized membership for a (m, D+1) matrix of curve samples."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    width = values.shape[1]
    k = event.kind
    if k == "level":
        return _row_counts(values > event.alpha) / grid.size <= event.z
    if k == "contrast":
        if event.gamma.grid != grid:
            raise StructureError(f"contrast curve is on grid {event.gamma.grid.resolution}, "
                                 f"the curves on grid {grid.resolution}")
        weighted = grid.quad_weights() * event.gamma.values
        return values @ weighted > event.a
    if k == "extremal":
        return np.max(values, axis=1) > event.d
    if k == "excursion":
        # the least run length r whose span (r - 1) / D reaches c; the test
        # is monotone in r, so a row is inside exactly when it holds such a run
        lengths = np.arange(grid.size + 1)
        spans_reach = np.maximum(lengths - 1, 0) / grid.resolution >= event.c
        if not spans_reach.any():
            return np.zeros(values.shape[0], dtype=bool)
        return _has_run(values > event.d, int(np.argmax(spans_reach)))
    if k == "boundary":
        ok = np.ones(values.shape[0], dtype=bool)
        if np.isfinite(event.lo):
            ok &= _row_counts(values >= event.lo) == width
        if np.isfinite(event.hi):
            ok &= _row_counts(values <= event.hi) == width
        return ok
    if k == "uniform_band":
        floor = event.center.values - event.lower.values
        ceil = event.center.values + event.upper.values
        return _row_counts((values >= floor) & (values <= ceil)) == width
    return ~contains_batch(event.inner, values, grid)  # complement, the last kind


@dataclass(frozen=True)
class MonotoneFamily:
    """One-parameter family of event sets nested by inclusion, given by its
    parameter range and its critical values.

    ``critical(values, grid)`` gives, per row of a (m, D+1) sample matrix,
    the parameter at which that curve enters the family's event: a curve is
    in the event at xi exactly when its critical value is <= xi, so the
    events grow with xi. The quantile search reads only the critical values.
    The built-in factories keep this contract; custom families assert it
    themselves.
    """

    lo: float
    hi: float
    critical: Callable[[np.ndarray, object], np.ndarray] = field(compare=False, repr=False)

    def __post_init__(self):
        # finite width, not just finite bounds: the quantile search steps through it
        if not (self.lo < self.hi and np.isfinite(self.hi - self.lo)):
            raise UsageError(f"family range must satisfy lo < hi with a finite width, "
                             f"got [{self.lo}, {self.hi}]")


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
    return MonotoneFamily(lo, hi, lambda values, grid: _row_counts(values > alpha) / grid.size)


def family_level_in_alpha(z: float, lo: float, hi: float) -> MonotoneFamily:
    """Level sets swept in the threshold alpha at a fixed budget; increasing."""
    z = float(z)
    return MonotoneFamily(lo, hi, lambda values, grid: level_alpha_critical(values, grid, z))


def family_max_below(lo: float, hi: float) -> MonotoneFamily:
    """{curves whose maximum stays at or below xi}; increasing in xi."""
    return MonotoneFamily(lo, hi, lambda values, grid: np.max(values, axis=1))


class _Params(dict):
    """The raw parameters of one spec, each taken at most once."""

    def take(self, key: str) -> str:
        if key not in self:
            raise UsageError(f"{self.what} kind {self.kind!r} needs parameter {key!r}")
        return self.pop(key)

    def number(self, key: str, default: float = None) -> float:
        """One rule for every number: not a number or NaN is a usage error."""
        if default is not None and key not in self:
            return default
        text = self.take(key)
        try:
            value = float(text)
        except ValueError:
            raise UsageError(f"{self.what} parameter {key!r} is not a number: {text!r}") from None
        if np.isnan(value):
            raise UsageError(f"{self.what} parameter {key!r} is NaN")
        return value


def _parse_spec(text: str, what: str, kinds: dict):
    """Parse ``kind:key=value,...`` with ``kinds[kind](params)``. A key may be
    given once, and every key must be taken."""
    kind, sep, rest = text.partition(":")
    if not sep:
        raise UsageError(f"{what} spec {text!r} needs the form kind:key=value,...")
    params = _Params()
    params.what, params.kind = what, kind.strip().lower()
    for piece in filter(None, (p.strip() for p in rest.split(","))):
        key, eq, value = (s.strip() for s in piece.partition("="))
        if not eq:
            raise UsageError(f"bad {what} parameter {piece!r}, expected key=value")
        if key in params:
            raise UsageError(f"{what} parameter {key!r} is given twice")
        params[key] = value
    if params.kind not in kinds:
        raise UsageError(f"{what} kind {params.kind!r} is not one of {sorted(kinds)}")
    result = kinds[params.kind](params)
    if params:
        raise UsageError(f"unused {what} parameters: {sorted(params)}")
    return result


def parse_event(text: str, load_curve=None) -> EventSet:
    """Parse the compact event syntax used on the command line.

    Examples: ``level:alpha=50,z=0.5``, ``contrast:gamma=@g.csv,a=0.5``,
    ``extremal:d=1``, ``excursion:d=0,c=0.25``, ``boundary:lo=-inf,hi=5``,
    and ``complement:<inner spec>``. Curve-valued parameters use ``@path``
    and are resolved through ``load_curve``.
    """
    kind, _, inner = text.partition(":")
    if kind.strip().lower() == "complement":
        return complement(parse_event(inner, load_curve))

    def value(params, key):
        if key != "gamma":
            return params.number(key)
        ref = params.take(key)
        if not ref.startswith("@"):
            raise UsageError(f"parameter {key!r} must reference a curve file as @path")
        if load_curve is None:
            raise UsageError("no curve loader available for @path parameters")
        return load_curve(ref[1:])

    # keys in table order, so the first missing or bad one is reported
    return _parse_spec(text, "event", {
        kind: lambda p, kind=kind: EventSet(kind, **{key: value(p, key) for key in PARAMS[kind]})
        for kind in PARAMS if kind not in ("uniform_band", "complement")})


def parse_family(text: str) -> MonotoneFamily:
    """Parse a monotone family spec: ``level-alpha:z=0.5,lo=0,hi=25``,
    ``level-z:alpha=50`` (lo and hi default to 0 and 1) or
    ``max-below:lo=-5,hi=5``."""
    return _parse_spec(text, "family", {
        "level-alpha": lambda p: family_level_in_alpha(p.number("z"), p.number("lo"),
                                                       p.number("hi")),
        "level-z": lambda p: family_level_in_z(p.number("alpha"), p.number("lo", 0.0),
                                               p.number("hi", 1.0)),
        "max-below": lambda p: family_max_below(p.number("lo"), p.number("hi")),
    })


def format_event(event: EventSet) -> str:
    """Compact one-line description for reports."""
    k = event.kind
    if k == "complement":
        return f"complement:{format_event(event.inner)}"
    if k == "uniform_band":
        return k
    return f"{k}:" + ",".join(f"{key}=<curve>" if key == "gamma" else f"{key}={getattr(event, key)}"
                              for key in PARAMS[k])
