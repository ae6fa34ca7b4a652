"""Seasonal adjustment of daily curve series.

The yearly component is the per-day-of-year mean curve smoothed with a
circular rolling mean (window 21, a whole number of weeks, so a pure
weekday pattern passes through it as a constant). The weekly component is
the per-weekday mean, centered to zero across the seven weekdays so the
two components do not both absorb the grand mean. Day-of-year labels that
never occur are filled by circular linear interpolation between their
observed neighbours before smoothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..curves import Curve
from ..errors import UsageError

DEFAULT_WINDOW = 21
WEEK = 7


@dataclass(frozen=True)
class SeasonalDecomposition:
    adjusted: list
    yearly: np.ndarray = field(repr=False)        # (period, D+1) smoothed day-of-year means
    weekly: np.ndarray = field(repr=False)        # (7, D+1) centered weekday means, or None
    day_of_year: np.ndarray = field(repr=False)
    day_of_week: np.ndarray = field(repr=False)

    def seasonal_values(self, i: int | np.ndarray) -> np.ndarray:
        """Seasonal curve that was subtracted from series element i; for an
        index array, one row per listed element."""
        out = self.yearly[self.day_of_year[i]].copy()
        if self.weekly is not None:
            out += self.weekly[self.day_of_week[i]]
        return out


def _circular_fill(table: np.ndarray, have: np.ndarray) -> np.ndarray:
    """Fill missing rows by linear interpolation around the circle."""
    period = table.shape[0]
    present = np.nonzero(have)[0]
    if present.size == 0:
        raise UsageError("no day-of-year labels present")
    if present.size == period:
        return table
    filled = table.copy()
    for day in np.nonzero(~have)[0]:
        before = present[present < day]
        after = present[present > day]
        prev = before[-1] if before.size else present[-1] - period
        nxt = after[0] if after.size else present[0] + period
        weight = (day - prev) / (nxt - prev)
        filled[day] = (1 - weight) * table[prev % period] + weight * table[nxt % period]
    return filled


def _circular_rolling_mean(table: np.ndarray, window: int) -> np.ndarray:
    period = table.shape[0]
    if window < 1:
        raise UsageError(f"window must be >= 1, got {window}")
    if window > period:
        raise UsageError(f"window {window} exceeds the seasonal period {period}")
    half = window // 2
    offsets = np.arange(-half, window - half)
    idx = (np.arange(period)[:, None] + offsets[None, :]) % period
    return table[idx].mean(axis=1)


def deseasonalize(
    series: list,
    day_of_year,
    day_of_week=None,
    window: int = DEFAULT_WINDOW,
    weekly: bool = True,
) -> SeasonalDecomposition:
    """Subtract the yearly and (optionally) weekly seasonal components."""
    n = len(series)
    doy = np.asarray(day_of_year, dtype=int)
    if doy.shape != (n,):
        raise UsageError(f"day-of-year index has length {doy.size}, series has {n}")
    if doy.min() < 0:
        raise UsageError("day-of-year labels must be nonnegative")
    if weekly:
        if day_of_week is None:
            raise UsageError("weekly adjustment needs a day-of-week index")
        dow = np.asarray(day_of_week, dtype=int)
        if dow.shape != (n,):
            raise UsageError(f"day-of-week index has length {dow.size}, series has {n}")
        if dow.min() < 0 or dow.max() >= WEEK:
            raise UsageError("day-of-week labels must lie in 0..6")
    else:
        dow = np.zeros(n, dtype=int) if day_of_week is None else np.asarray(day_of_week, dtype=int)

    grid = series[0].grid
    values = np.asarray([c.values for c in series])
    period = int(doy.max()) + 1

    sums = np.zeros((period, grid.size))
    counts = np.zeros(period)
    np.add.at(sums, doy, values)
    np.add.at(counts, doy, 1.0)
    have = counts > 0
    means = np.divide(sums, counts[:, None], out=np.zeros_like(sums), where=have[:, None])
    yearly = _circular_rolling_mean(_circular_fill(means, have), window)

    residual = values - yearly[doy]

    weekly_table = None
    if weekly:
        wsums = np.zeros((WEEK, grid.size))
        wcounts = np.zeros(WEEK)
        np.add.at(wsums, dow, residual)
        np.add.at(wcounts, dow, 1.0)
        whave = wcounts > 0
        wmeans = np.divide(wsums, wcounts[:, None], out=np.zeros_like(wsums), where=whave[:, None])
        wmeans -= wmeans[whave].mean(axis=0)  # identifiability: weekly component sums to zero
        weekly_table = wmeans
        residual = residual - weekly_table[dow]

    adjusted = [Curve(grid, row) for row in residual]
    return SeasonalDecomposition(
        adjusted=adjusted,
        yearly=yearly,
        weekly=weekly_table,
        day_of_year=doy,
        day_of_week=dow,
    )
