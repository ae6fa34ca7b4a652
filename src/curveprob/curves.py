"""Grid-sampled functions on [0, 1] and the geometry every other module uses.

A :class:`Curve` holds samples of a real function on a shared uniform grid.
All L2 quantities use trapezoid quadrature, which is exact for the piecewise
linear interpolant of the samples. Path statistics (maximum, time above a
level, longest excursion) live in the event kernels of
:mod:`curveprob.events` and are evaluated on the grid only; their error
vanishes as the grid is refined.

Covariates are ordered tuples of curves plus scalars. Their flattened
"weighted coordinates" (curve samples scaled by the square root of the
quadrature weights, then raw scalars) turn every inner product in the
package into a plain Euclidean dot product, so covariance operators can be
handed to a standard symmetric eigensolver.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import StructureError, UsageError


@dataclass(frozen=True)
class Grid:
    """Uniform grid 0 = t_0 < t_1 < ... < t_D = 1 with t_i = i/D."""

    resolution: int

    def __post_init__(self):
        if self.resolution < 2:
            raise UsageError(f"grid resolution must be >= 2, got {self.resolution}")

    @property
    def points(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.resolution + 1)

    @property
    def size(self) -> int:
        """Number of sample points, resolution + 1."""
        return self.resolution + 1

    def quad_weights(self) -> np.ndarray:
        """Trapezoid weights: 1/(2D) at the endpoints, 1/D inside."""
        d = self.resolution
        w = np.full(d + 1, 1.0 / d)
        w[0] = w[-1] = 0.5 / d
        return w

    def quad_weights_sqrt(self) -> np.ndarray:
        return np.sqrt(self.quad_weights())


@dataclass(frozen=True, eq=False)
class Curve:
    """Samples of a real function on a shared :class:`Grid`."""

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.shape[0] != self.grid.size:
            raise StructureError(
                f"curve needs {self.grid.size} samples, got shape {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise StructureError("curve values must be finite")
        object.__setattr__(self, "values", vals)

    def __eq__(self, other):
        if not isinstance(other, Curve):
            return NotImplemented
        return self.grid == other.grid and np.array_equal(self.values, other.values)

    __hash__ = None

    @staticmethod
    def constant(grid: Grid, value: float) -> "Curve":
        return Curve(grid, np.full(grid.size, float(value)))


@dataclass(frozen=True)
class Covariate:
    """Ordered tuple of curves and scalars, an element of the product covariate space."""

    curve_parts: tuple
    scalar_parts: tuple = ()

    def __post_init__(self):
        parts = tuple(self.curve_parts)
        scalars = tuple(float(s) for s in self.scalar_parts)
        grids = {p.grid.resolution for p in parts}
        if len(grids) > 1:
            raise StructureError("all curve parts of a covariate must share one grid")
        for s in scalars:
            if not np.isfinite(s):
                raise StructureError("scalar parts must be finite")
        object.__setattr__(self, "curve_parts", parts)
        object.__setattr__(self, "scalar_parts", scalars)

    @property
    def grid(self) -> Grid | None:
        return self.curve_parts[0].grid if self.curve_parts else None

    def structure(self) -> tuple:
        """(number of curve parts, grid resolution or None, number of scalars)."""
        d = self.grid.resolution if self.curve_parts else None
        return (len(self.curve_parts), d, len(self.scalar_parts))

    def coords(self) -> np.ndarray:
        """Flattened weighted coordinates; Euclidean dot = covariate inner product."""
        pieces = []
        if self.curve_parts:
            sw = self.grid.quad_weights_sqrt()
            pieces.extend(p.values * sw for p in self.curve_parts)
        if self.scalar_parts:
            pieces.append(np.asarray(self.scalar_parts, dtype=float))
        if not pieces:
            return np.zeros(0)
        return np.concatenate(pieces)


def curve_matrix(series) -> tuple[np.ndarray, Grid]:
    """A curve series as an ``(n, D+1)`` value matrix and its grid.

    ``series`` is a nonempty list of curves on one grid, or a 2-D float
    array with one curve per row on ``Grid(width - 1)``; an array gets the
    finiteness check that :class:`Curve` applies to its values."""
    if isinstance(series, np.ndarray):
        values = np.asarray(series, dtype=float)
        if values.ndim != 2:
            raise StructureError(f"a curve matrix must be 2-D, got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise StructureError("curve values must be finite")
        return values, Grid(values.shape[1] - 1)
    if len(series) == 0:
        raise UsageError("a curve series needs at least one curve")
    grid = series[0].grid
    if any(c.grid != grid for c in series):
        raise StructureError("all curves of a series must share one grid")
    return np.asarray([c.values for c in series]), grid

