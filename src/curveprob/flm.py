"""Truncated principal-component regression for curve responses.

The fitted object inverts the covariate covariance on its leading
principal directions only, stores the in-sample residual curves, and the
spectrum of their covariance. Those three pieces are exactly what the
downstream conditional-distribution estimators consume.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .curves import Covariate, Curve, Grid
from .errors import DegenerateInputError, StructureError, UsageError
from .spectral import (
    CovarianceOperator,
    SpectralPair,
    eigendecompose,
    empirical_covariance,
    truncation_pve,
    truncation_threshold,
)

MODEL_FORMAT = "curveprob-flm"
MODEL_VERSION = 2  # version 1 also stored the trailing covariate eigenpairs


def default_m_n(n: int) -> float:
    """Default eigenvalue-threshold tuning sequence, 5 * n**0.45."""
    return 5.0 * float(n) ** 0.45


@dataclass(frozen=True)
class TruncationRule:
    """How many principal directions the fit keeps.

    kind 'threshold' keeps eigenvalues above top/m_n (or above 1/m_n when
    relative=False); 'pve' keeps the smallest count reaching variance share
    v; 'fixed' keeps exactly k.
    """

    kind: str
    m_n: float | None = None  # None means the default 5 * n**0.45
    relative: bool = True
    v: float | None = None
    k: int | None = None

    def __post_init__(self):
        if self.m_n is not None and not np.isfinite(self.m_n):
            raise UsageError(f"threshold m_n must be finite, got {self.m_n}")

    @staticmethod
    def threshold(m_n: float | None = None, relative: bool = True) -> "TruncationRule":
        return TruncationRule(kind="threshold", m_n=m_n, relative=relative)

    @staticmethod
    def pve(v: float) -> "TruncationRule":
        return TruncationRule(kind="pve", v=v)

    @staticmethod
    def fixed(k: int) -> "TruncationRule":
        return TruncationRule(kind="fixed", k=k)

    def select(self, spectrum: SpectralPair, n: int) -> int:
        if self.kind == "threshold":
            m_n = self.m_n if self.m_n is not None else default_m_n(n)
            return truncation_threshold(spectrum, m_n, relative=self.relative)
        if self.kind == "pve":
            return truncation_pve(spectrum, self.v)
        if self.kind == "fixed":
            if self.k is None or self.k < 1:
                raise UsageError("fixed truncation needs k >= 1")
            if spectrum.rank == 0:
                raise DegenerateInputError("cannot truncate an all-zero spectrum")
            return min(self.k, spectrum.rank)
        raise UsageError(f"unknown truncation rule {self.kind!r}")

    def to_dict(self) -> dict:
        return {"kind": self.kind, "m_n": self.m_n, "relative": self.relative,
                "v": self.v, "k": self.k}

    @staticmethod
    def from_dict(d: dict) -> "TruncationRule":
        return TruncationRule(kind=d["kind"], m_n=d.get("m_n"),
                              relative=bool(d.get("relative", True)),
                              v=d.get("v"), k=d.get("k"))

    @staticmethod
    def parse(text: str) -> "TruncationRule":
        """Parse CLI forms like 'pve:0.85', 'threshold:mn=12', 'threshold:auto',
        'threshold:mn=12,absolute', 'fixed:3'."""
        kind, _, rest = text.partition(":")
        kind = kind.strip().lower()
        try:
            if kind == "pve":
                return TruncationRule.pve(float(rest))
            if kind == "fixed":
                return TruncationRule.fixed(int(rest))
            if kind == "threshold":
                m_n, relative = None, True
                for piece in filter(None, (p.strip() for p in rest.split(","))):
                    if piece == "auto":
                        m_n = None
                    elif piece == "absolute":
                        relative = False
                    elif piece == "relative":
                        relative = True
                    elif piece.startswith("mn="):
                        m_n = float(piece[3:])
                    else:
                        raise UsageError(f"unknown threshold option {piece!r}")
                return TruncationRule.threshold(m_n, relative=relative)
        except ValueError as exc:
            raise UsageError(f"bad truncation rule {text!r}: {exc}") from None
        raise UsageError(f"unknown truncation rule {text!r}")


def _noise_scale(n: int, k: int, dof_correction: bool) -> float:
    """Factor on the residuals' sum of squares: 1/(n - k) with the
    degrees-of-freedom correction for k retained components, else 1/n."""
    if not dof_correction:
        return 1.0 / n
    if n - k <= 0:
        raise DegenerateInputError(
            f"degrees-of-freedom correction impossible: n={n}, components={k}"
        )
    return 1.0 / (n - k)


def _check_lengths(n_y: int, n_x: int) -> None:
    if n_y != n_x:
        raise UsageError(f"sample length mismatch: {n_y} vs {n_x}")
    if n_y < 2:
        raise UsageError("regression needs at least 2 observations")


@dataclass(frozen=True)
class RegressionSample:
    """Aligned responses and covariates as coordinate matrices.

    ``y`` holds the response curves row-wise as raw samples on ``grid``;
    ``x`` holds the covariates' weighted coordinates row-wise, laid out as
    :meth:`Covariate.coords` lays out one covariate. ``structure`` is the
    covariates' common :meth:`Covariate.structure`.
    """

    y: np.ndarray = field(repr=False)
    x: np.ndarray = field(repr=False)
    grid: Grid
    structure: tuple

    def __post_init__(self):
        _check_lengths(self.y.shape[0], self.x.shape[0])

    @staticmethod
    def from_pairs(ys, xs) -> "RegressionSample":
        """Flatten response curves and their covariate objects into one sample."""
        _check_lengths(len(ys), len(xs))
        if len({y.grid.resolution for y in ys}) != 1:
            raise StructureError("all responses must share one grid")
        structures = {x.structure() for x in xs}
        if len(structures) != 1:
            raise StructureError("all covariates must share one structure")
        return RegressionSample(
            y=np.asarray([y.values for y in ys]),
            x=np.asarray([x.coords() for x in xs]),
            grid=ys[0].grid,
            structure=structures.pop(),
        )

    def __len__(self) -> int:
        return self.y.shape[0]


@dataclass(frozen=True)
class FittedFLM:
    """Everything the conditional-distribution estimators need.

    ``coef_w`` maps weighted covariate coordinates to weighted response
    coordinates. ``residual_matrix`` holds the raw residual curves row-wise;
    ``noise_spectrum`` is the eigendecomposition of their (mean-centered)
    covariance operator.

    ``memo`` holds what :mod:`curveprob.conddist` derives from the model for
    one request and may reuse for the next, one ``(key, value)`` pair per
    slot: ``noise`` (Gaussian rows per ``(mc_size, seed)``), ``ensemble/boot``
    and ``ensemble/gauss`` (fitted mean plus noise rows per covariate value)
    and ``band`` (a band's covariate-free calibration). A slot keeps a value
    only when its key is asked for twice in a row, and one key replaces the
    last, so each slot holds at most one read-only value and a model asked
    once holds none. Serialization, comparison, ``repr`` and
    :func:`dataclasses.replace` ignore the memo.
    """

    grid: Grid
    n_curve_parts: int
    n_scalars: int
    coef_w: np.ndarray = field(repr=False)
    n_components: int = 0
    covariate_spectrum: SpectralPair = None
    residual_matrix: np.ndarray = field(repr=False, default=None)
    noise_spectrum: SpectralPair = None
    x_mean_coords: np.ndarray = field(repr=False, default=None)
    y_mean: np.ndarray = field(repr=False, default=None)
    centered: bool = True
    dof_correction: bool = False
    truncation: TruncationRule = None
    memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n_observations(self) -> int:
        return self.residual_matrix.shape[0]

    def noise_std(self) -> np.ndarray:
        """Pointwise standard deviation of the centered residuals, with the
        same 1/n (or 1/(n - k)) scaling as the noise covariance."""
        centered = self.residual_matrix - self.residual_matrix.mean(axis=0)
        scale = _noise_scale(self.n_observations, self.n_components, self.dof_correction)
        return np.sqrt(np.sum(centered**2, axis=0) * scale)

    def check_structure(self, x: Covariate) -> None:
        got = x.structure()
        want = (self.n_curve_parts,
                self.grid.resolution if self.n_curve_parts else None,
                self.n_scalars)
        if got != want:
            raise StructureError(f"covariate structure {got} does not match model {want}")


def fit(
    sample: RegressionSample,
    truncation: TruncationRule | None = None,
    center: bool = True,
    dof_correction: bool = False,
) -> FittedFLM:
    """Fit the truncated principal-component regression.

    Centering removes the sample means of covariates and responses before
    estimation and stores them, so predictions are affine. The residuals are
    computed through the same kernel as ``predict`` and therefore satisfy
    residual_k = y_k - predict(x_k) bit for bit. Only the leading
    ``n_components`` covariate eigenpairs are kept.
    """
    truncation = truncation or TruncationRule.threshold()
    n = len(sample)
    grid = sample.grid
    n_parts, _, n_scalars = sample.structure

    x, y = sample.x, sample.y
    x_mean = x.mean(axis=0) if center else np.zeros(x.shape[1])
    y_mean = y.mean(axis=0) if center else np.zeros(y.shape[1])
    xc = x - x_mean
    yc = y - y_mean

    spectrum = eigendecompose(empirical_covariance(xc, center=False))
    # "zero spectrum" up to round-off: compare against the raw coordinate scale,
    # so a centered constant sample (eigenvalue dust ~ eps^2) is caught
    raw_scale = float(np.mean(x**2))
    if spectrum.rank == 0 or raw_scale == 0.0 or \
            spectrum.eigenvalues[0] <= 1e-24 * raw_scale:
        raise DegenerateInputError("covariate sample has a zero covariance spectrum")
    k = truncation.select(spectrum, n)

    sw = grid.quad_weights_sqrt()
    cross = (yc * sw).T @ xc / n
    lam, vecs = spectrum.leading(k)
    coef_w = (cross @ vecs / lam) @ vecs.T

    residuals = np.empty_like(y)
    for i in range(n):
        residuals[i] = y[i] - _apply(coef_w, x_mean, y_mean, sw, x[i])

    scale = _noise_scale(n, k, dof_correction)
    centered_res = residuals - residuals.mean(axis=0)
    gamma = CovarianceOperator((centered_res * sw).T @ (centered_res * sw) * scale)

    return FittedFLM(
        grid=grid,
        n_curve_parts=n_parts,
        n_scalars=n_scalars,
        coef_w=coef_w,
        n_components=k,
        covariate_spectrum=SpectralPair(lam.copy(), vecs.copy(), spectrum.clamped_mass),
        residual_matrix=residuals,
        noise_spectrum=eigendecompose(gamma),
        x_mean_coords=x_mean,
        y_mean=y_mean,
        centered=center,
        dof_correction=dof_correction,
        truncation=truncation,
    )


def _apply(coef_w, x_mean, y_mean, sw, x_coords) -> np.ndarray:
    return y_mean + (coef_w @ (x_coords - x_mean)) / sw


def predict_coords(model: FittedFLM, x_coords: np.ndarray) -> np.ndarray:
    """Conditional-mean values for one row of weighted covariate coordinates,
    through the kernel ``fit`` computes its residuals with."""
    return _apply(model.coef_w, model.x_mean_coords, model.y_mean,
                  model.grid.quad_weights_sqrt(), x_coords)


def predict(model: FittedFLM, x: Covariate) -> Curve:
    """Conditional-mean curve for a new covariate."""
    model.check_structure(x)
    return Curve(model.grid, predict_coords(model, x.coords()))


def build_far_design(
    series: list,
    order: int,
    exog: list | None = None,
) -> tuple[RegressionSample, tuple]:
    """Turn a curve series into lagged (response, covariate) pairs, and
    give each response's position in the series.

    The covariate for the response at position k stacks the curves at
    k-1, ..., k-order followed by the position-k curve of each exogenous
    series in ``exog``; the response never appears inside its own
    covariate. The curves are stacked once and every block of the design
    is a slice of that stack.
    """
    if order < 1:
        raise UsageError(f"autoregressive order must be >= 1, got {order}")
    n = len(series)
    if n <= order:
        raise UsageError(f"series of length {n} is too short for order {order}")
    exog = list(exog or ())
    if any(len(ex) != n for ex in exog):
        raise UsageError("exogenous series must align one-to-one with the series")
    grid = series[0].grid
    curves = [c for part in (series, *exog) for c in part]
    if any(c.grid != grid for c in curves):
        raise StructureError("all curves of a design must share one grid")

    stacked = np.asarray([c.values for c in curves]).reshape(1 + len(exog), n, grid.size)
    weighted = stacked * grid.quad_weights_sqrt()
    blocks = [weighted[0, order - i:n - i] for i in range(1, order + 1)]
    blocks.extend(weighted[1:, order:])
    sample = RegressionSample(
        y=stacked[0, order:],
        x=np.hstack(blocks),
        grid=grid,
        structure=(order + len(exog), grid.resolution, 0),
    )
    return sample, tuple(range(order, n))


def to_json(model: FittedFLM) -> str:
    """Serialize a fitted model to a versioned JSON document."""
    doc = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "grid_d": model.grid.resolution,
        "n_curve_parts": model.n_curve_parts,
        "n_scalars": model.n_scalars,
        "n_components": model.n_components,
        "centered": model.centered,
        "dof_correction": model.dof_correction,
        "truncation": model.truncation.to_dict() if model.truncation else None,
        "coef_w": model.coef_w.tolist(),
        "x_mean_coords": model.x_mean_coords.tolist(),
        "y_mean": model.y_mean.tolist(),
        "residual_matrix": model.residual_matrix.tolist(),
        "covariate_eigenvalues": model.covariate_spectrum.eigenvalues.tolist(),
        "covariate_eigenvectors": model.covariate_spectrum.eigenvectors.tolist(),
        "noise_eigenvalues": model.noise_spectrum.eigenvalues.tolist(),
        "noise_eigenvectors": model.noise_spectrum.eigenvectors.tolist(),
    }
    return json.dumps(doc)


def from_json(text: str) -> FittedFLM:
    """Read a model document and check every matrix shape against the grid,
    the part counts, ``n_components`` and the residual count, every cell for
    finiteness and every eigenvalue for sign. Version 1 documents hold the
    whole covariate spectrum; its leading pairs are kept."""
    doc = json.loads(text)
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise UsageError(f"not a {MODEL_FORMAT} document")
    version = doc.get("version")
    if version not in (1, MODEL_VERSION):
        raise UsageError(f"unsupported model version {version}")
    try:
        grid = Grid(int(doc["grid_d"]))
        n_parts, n_scalars, k = (int(doc[key]) for key in
                                 ("n_curve_parts", "n_scalars", "n_components"))
        size, p = grid.size, n_parts * grid.size + n_scalars
        kept = k if version == MODEL_VERSION else p
        want = {
            "coef_w": (size, p), "x_mean_coords": (p,), "y_mean": (size,),
            "residual_matrix": (len(doc["residual_matrix"]), size),
            "covariate_eigenvalues": (kept,), "covariate_eigenvectors": (p, kept),
            "noise_eigenvalues": (size,), "noise_eigenvectors": (size, size),
        }
        m = {key: np.asarray(doc[key], dtype=float) for key in want}
        truncation = TruncationRule.from_dict(doc["truncation"]) if doc["truncation"] else None
        centered, dof_correction = bool(doc["centered"]), bool(doc["dof_correction"])
    except (KeyError, TypeError, ValueError, UsageError) as exc:
        raise StructureError(f"malformed model document: {exc!r}") from None
    bad = [key for key, shape in want.items() if m[key].shape != shape]
    if bad or not 1 <= k <= p:
        raise StructureError(f"model fields {bad} do not match grid_d={grid.resolution}, "
                             f"p={p}, n_components={k}")
    bad = [key for key in want if not np.all(np.isfinite(m[key]))]
    if bad:
        raise StructureError(f"model fields {bad} hold non-finite cells")
    bad = [key for key in ("covariate_eigenvalues", "noise_eigenvalues") if np.any(m[key] < 0)]
    if bad:
        raise StructureError(f"model fields {bad} hold negative eigenvalues")

    return FittedFLM(
        grid=grid,
        n_curve_parts=n_parts,
        n_scalars=n_scalars,
        coef_w=m["coef_w"],
        n_components=k,
        covariate_spectrum=SpectralPair(
            m["covariate_eigenvalues"][:k],
            np.ascontiguousarray(m["covariate_eigenvectors"][:, :k]),
        ),
        residual_matrix=m["residual_matrix"],
        noise_spectrum=SpectralPair(m["noise_eigenvalues"], m["noise_eigenvectors"]),
        x_mean_coords=m["x_mean_coords"],
        y_mean=m["y_mean"],
        centered=centered,
        dof_correction=dof_correction,
        truncation=truncation,
    )
