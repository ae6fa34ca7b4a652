"""Truncated principal-component regression for curve responses.

The fitted object inverts the covariate covariance on its leading
principal directions only, stores the in-sample residual curves, and the
spectrum of their covariance. Those three pieces are exactly what the
downstream conditional-distribution estimators consume.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .curves import Covariate, Curve, Grid, curve_matrix
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
MODEL_VERSION = 5


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
        """The rule :meth:`to_dict` wrote. ``kind`` must name a rule,
        ``relative`` be a JSON boolean, ``k`` null or a JSON integer, and
        ``m_n`` and ``v`` null or a JSON number; anything else raises
        ``TypeError``."""
        kind, m_n, relative, v, k = (d[key] for key in ("kind", "m_n", "relative", "v", "k"))
        if (kind not in ("threshold", "pve", "fixed") or type(relative) is not bool
                or not (k is None or type(k) is int)
                or not all(x is None or type(x) in (int, float) for x in (m_n, v))):
            raise TypeError(f"malformed truncation rule {d!r}")
        return TruncationRule(kind=kind, m_n=m_n, relative=relative, v=v, k=k)

    @staticmethod
    def parse(text: str) -> "TruncationRule":
        """Parse CLI forms like 'pve:0.85', 'threshold:mn=12', 'threshold:auto',
        'threshold:mn=12,absolute', 'fixed:3'. A threshold takes at most one
        of mn=/auto and at most one of relative/absolute."""
        kind, _, rest = text.partition(":")
        kind = kind.strip().lower()
        try:
            if kind == "pve":
                return TruncationRule.pve(float(rest))
            if kind == "fixed":
                return TruncationRule.fixed(int(rest))
            if kind == "threshold":
                m_n, relative, given = None, True, set()
                for piece in filter(None, (p.strip() for p in rest.split(","))):
                    if piece in ("relative", "absolute"):
                        option, relative = "relative/absolute", piece == "relative"
                    elif piece == "auto" or piece.startswith("mn="):
                        option, m_n = "mn/auto", None if piece == "auto" else float(piece[3:])
                    else:
                        raise UsageError(f"unknown threshold option {piece!r}")
                    if option in given:
                        raise UsageError(f"threshold option {option} is given twice")
                    given.add(option)
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
    coordinates. It has rank ``n_components``: ``factor`` @ the transposed
    covariate eigenvectors, where ``factor`` holds the cross-covariance on each
    retained direction divided by its eigenvalue. ``residual_matrix`` holds the
    raw residual curves row-wise; ``noise_spectrum`` holds the leading
    eigenpairs of their (mean-centered) covariance operator, those the
    Gaussian sampler draws from. ``fit`` and ``from_json`` compute them from
    ``residual_matrix`` with one function, so a model file stores only their
    number. Neither spectrum carries the ``clamped_mass`` of its
    eigendecomposition, which no model file stores.

    ``memo`` holds what :mod:`curveprob.conddist` derives from the model for
    one request and may reuse for the next; its slots and their rule are
    conddist's. Serialization, comparison, ``repr`` and
    :func:`dataclasses.replace` ignore the memo. However a model is built,
    every matrix is read-only, so a write raises instead of leaving the memo stale.
    """

    grid: Grid
    n_curve_parts: int
    n_scalars: int
    coef_w: np.ndarray = field(repr=False)
    factor: np.ndarray = field(repr=False)
    n_components: int
    covariate_spectrum: SpectralPair
    residual_matrix: np.ndarray = field(repr=False)
    noise_spectrum: SpectralPair
    x_mean_coords: np.ndarray = field(repr=False)
    y_mean: np.ndarray = field(repr=False)
    centered: bool
    dof_correction: bool
    truncation: TruncationRule
    memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for values in (self.coef_w, self.factor, self.residual_matrix, self.x_mean_coords,
                       self.y_mean, self.covariate_spectrum.eigenvalues,
                       self.covariate_spectrum.eigenvectors, self.noise_spectrum.eigenvalues,
                       self.noise_spectrum.eigenvectors):
            values.flags.writeable = False

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


def _rank_k_operator(factor: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """``coef_w`` from its factor and the retained covariate eigenvectors.

    ``fit`` and ``from_json`` both build it here, with the basis in the
    Fortran order that ``eigendecompose`` returns, so a model read from its
    file holds the fit's ``coef_w`` bit for bit at one BLAS thread count."""
    return factor @ np.asfortranarray(basis).T


def _noise_pairs(residuals: np.ndarray, grid: Grid, k: int, dof_correction: bool,
                 rank: int | None = None) -> SpectralPair:
    """The leading ``rank`` eigenpairs of the residuals' (mean-centered)
    covariance operator; by default the sampler's rank, the pairs the
    Gaussian sampler reads.

    ``fit`` computes them here and ``from_json`` rebuilds them here at the
    rank the file stores, so a model read from its file holds the fit's
    pairs bit for bit at the fit's BLAS build and thread count. A ``rank``
    above the sampler's rank of this spectrum raises ``StructureError``:
    the sampler would not draw from all of those pairs."""
    sw = grid.quad_weights_sqrt()
    scale = _noise_scale(len(residuals), k, dof_correction)
    centered = residuals - residuals.mean(axis=0)
    noise = eigendecompose(CovarianceOperator((centered * sw).T @ (centered * sw) * scale))
    available = noise.sampler_rank()
    if rank is None:
        rank = available
    elif rank > available:
        raise StructureError(f"the noise spectrum has {available} eigenpairs above the "
                             f"sampler's floor, fewer than {rank}")
    return SpectralPair(*noise.leading(rank))


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def fit(
    sample: RegressionSample,
    truncation: TruncationRule | None = None,
    center: bool = True,
    dof_correction: bool = False,
) -> FittedFLM:
    """Fit the truncated principal-component regression.

    Centering removes the sample means of covariates and responses before
    estimation and stores them, so predictions are affine. The residuals are
    computed with the operations of ``predict``, one matrix-vector product
    per row, and therefore satisfy residual_k = y_k - predict(x_k) bit for
    bit. Only the leading ``n_components`` covariate eigenpairs are kept, and
    only the noise eigenpairs the Gaussian sampler reads.
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

    spectrum = eigendecompose(empirical_covariance(xc))
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
    factor = cross @ vecs / lam
    coef_w = _rank_k_operator(factor, vecs)

    # a batched product would round differently from predict's per-row one
    products = np.empty_like(y)
    for i in range(n):
        products[i] = coef_w @ xc[i]
    residuals = y - (y_mean + products / sw)

    return FittedFLM(
        grid=grid,
        n_curve_parts=n_parts,
        n_scalars=n_scalars,
        coef_w=coef_w,
        factor=factor,
        n_components=k,
        covariate_spectrum=SpectralPair(lam.copy(), vecs.copy()),
        residual_matrix=residuals,
        noise_spectrum=_noise_pairs(residuals, grid, k, dof_correction),
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
    series,
    order: int,
    exog: list | None = None,
) -> tuple[RegressionSample, tuple]:
    """Turn a curve series into lagged (response, covariate) pairs, and
    give each response's position in the series.

    ``series`` and each entry of ``exog`` are curve lists or ``(n, D+1)``
    value matrices (see :func:`~curveprob.curves.curve_matrix`). The
    covariate for the response at position k stacks the curves at
    k-1, ..., k-order followed by the position-k curve of each exogenous
    series in ``exog``; the response never appears inside its own
    covariate. The series are stacked once and every block of the design is
    a slice of that stack.
    """
    if order < 1:
        raise UsageError(f"autoregressive order must be >= 1, got {order}")
    n = len(series)
    if n <= order:
        raise UsageError(f"series of length {n} is too short for order {order}")
    exog = list(exog or ())
    if any(len(ex) != n for ex in exog):
        raise UsageError("exogenous series must align one-to-one with the series")
    parts = [curve_matrix(part) for part in (series, *exog)]
    grid = parts[0][1]
    if any(g != grid for _, g in parts):
        raise StructureError("all curves of a design must share one grid")

    stacked = np.stack([values for values, _ in parts])
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


def _encode_matrix(values: np.ndarray) -> dict:
    """A matrix as its shape and the base64 of its C-order little-endian
    float64 bytes, which read back bit for bit."""
    data = np.ascontiguousarray(values, dtype="<f8").tobytes()
    return {"shape": list(values.shape), "f8le": base64.b64encode(data).decode("ascii")}


def _decode_matrix(field) -> np.ndarray:
    """A native float64 array from a document's matrix field, in the form
    :func:`_encode_matrix` writes."""
    if not isinstance(field, dict) or set(field) != {"shape", "f8le"}:
        raise StructureError("a matrix field must hold exactly 'shape' and 'f8le'")
    shape = field["shape"]
    if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
        raise StructureError(f"matrix shape must list non-negative integers, got {shape!r}")
    data = base64.b64decode(field["f8le"], validate=True)
    if len(data) != 8 * math.prod(shape):
        raise StructureError(f"matrix of shape {shape} needs {8 * math.prod(shape)} bytes, "
                             f"got {len(data)}")
    return np.frombuffer(data, dtype="<f8").reshape(shape).astype(float)


def to_json(model: FittedFLM) -> str:
    """Serialize a fitted model to a versioned JSON document.

    ``coef_w`` is stored as its factor, and the noise spectrum as its
    number of eigenpairs only: ``from_json`` rebuilds both as ``fit`` builds
    them. A model whose ``coef_w`` is not the product of its factor, or whose
    noise spectrum is not the leading pairs its residuals give (one built by
    hand or edited through :func:`dataclasses.replace`), is refused: its file
    would not read it back."""
    rebuilt = _rank_k_operator(model.factor, model.covariate_spectrum.eigenvectors)
    if not _same_bits(rebuilt, model.coef_w):
        raise UsageError("coef_w is not the product of the model's factor and covariate "
                         "eigenvectors, so its file would not read it back")
    noise_rank = len(model.noise_spectrum.eigenvalues)
    try:
        noise = _noise_pairs(model.residual_matrix, model.grid, model.n_components,
                             model.dof_correction, noise_rank)
        same = (_same_bits(noise.eigenvalues, model.noise_spectrum.eigenvalues)
                and _same_bits(noise.eigenvectors, model.noise_spectrum.eigenvectors))
    except (DegenerateInputError, StructureError):
        same = False
    if not same:
        raise UsageError(f"model format {MODEL_VERSION} rebuilds the noise spectrum from the "
                         "residuals, and this model's noise spectrum is not theirs, so its "
                         "file would not read it back")
    doc = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "grid_d": model.grid.resolution,
        "n_curve_parts": model.n_curve_parts,
        "n_scalars": model.n_scalars,
        "n_components": model.n_components,
        "centered": model.centered,
        "dof_correction": model.dof_correction,
        "truncation": model.truncation.to_dict(),
        "noise_rank": noise_rank,
        "factor": _encode_matrix(model.factor),
        "x_mean_coords": _encode_matrix(model.x_mean_coords),
        "y_mean": _encode_matrix(model.y_mean),
        "residual_matrix": _encode_matrix(model.residual_matrix),
        "covariate_eigenvalues": _encode_matrix(model.covariate_spectrum.eigenvalues),
        "covariate_eigenvectors": _encode_matrix(model.covariate_spectrum.eigenvectors),
    }
    return json.dumps(doc)


def _header(doc: dict, key: str, kind: type):
    """``doc[key]``, which must be exactly of type ``kind`` (so no bool is
    read as a count and no count or string as a flag)."""
    value = doc[key]
    if type(value) is not kind:
        raise TypeError(f"{key} must be {kind.__name__}, got {value!r}")
    return value


def from_json(text: str) -> FittedFLM:
    """Read a model document and check every matrix shape against the grid,
    the part counts, ``n_components`` and the residual count, every cell for
    finiteness and every covariate eigenvalue for sign.

    The document stores ``coef_w`` as its factor and of the noise spectrum
    only its number of eigenpairs, ``noise_rank``; both are rebuilt here as
    ``fit`` builds them, the noise eigenpairs from the residuals, and a file
    whose residuals give fewer than ``noise_rank`` pairs above the sampler's
    floor is refused. Only format version 5 is read: a model saved in an
    earlier version is refitted from its series with ``curveprob fit``."""
    doc = json.loads(text)
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise UsageError(f"not a {MODEL_FORMAT} document")
    version = doc.get("version")
    if type(version) is not int or version != MODEL_VERSION:
        raise UsageError(f"model format version {version!r} is not read, only version "
                         f"{MODEL_VERSION}: refit the model with `curveprob fit`")
    try:
        grid = Grid(_header(doc, "grid_d", int))
        n_parts, n_scalars, k, noise_rank = (
            _header(doc, key, int)
            for key in ("n_curve_parts", "n_scalars", "n_components", "noise_rank"))
        size, p = grid.size, n_parts * grid.size + n_scalars
        m = {key: _decode_matrix(doc[key]) for key in
             ("factor", "x_mean_coords", "y_mean", "residual_matrix",
              "covariate_eigenvalues", "covariate_eigenvectors")}
        n = len(m["residual_matrix"])
        truncation = TruncationRule.from_dict(doc["truncation"])
        centered, dof_correction = (_header(doc, key, bool)
                                    for key in ("centered", "dof_correction"))
    except (KeyError, TypeError, ValueError, OverflowError, UsageError) as exc:
        raise StructureError(f"malformed model document: {exc!r}") from None
    want = {
        "factor": (size, k), "x_mean_coords": (p,), "y_mean": (size,),
        "residual_matrix": (n, size), "covariate_eigenvalues": (k,),
        "covariate_eigenvectors": (p, k),
    }
    bad = [key for key, shape in want.items() if m[key].shape != shape]
    if bad or n < 1 or not 1 <= k <= p or not 0 <= noise_rank <= size:
        raise StructureError(f"model fields {bad} do not match grid_d={grid.resolution}, "
                             f"p={p}, n_components={k}, residual rows={n}, "
                             f"noise pairs={noise_rank}")
    with np.errstate(over="ignore", invalid="ignore"):
        m["coef_w"] = _rank_k_operator(m["factor"], m["covariate_eigenvectors"])
    bad = [key for key, values in m.items() if not np.all(np.isfinite(values))]
    if bad:
        raise StructureError(f"model fields {bad} hold non-finite cells")
    if np.any(m["covariate_eigenvalues"] < 0):
        raise StructureError("model field covariate_eigenvalues holds negative eigenvalues")
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            noise = _noise_pairs(m["residual_matrix"], grid, k, dof_correction, noise_rank)
    except (DegenerateInputError, StructureError) as exc:
        raise StructureError(f"malformed model document: its residuals give no noise "
                             f"spectrum of rank {noise_rank} ({exc})") from None

    return FittedFLM(
        grid=grid,
        n_curve_parts=n_parts,
        n_scalars=n_scalars,
        coef_w=m["coef_w"],
        factor=m["factor"],
        n_components=k,
        covariate_spectrum=SpectralPair(m["covariate_eigenvalues"],
                                        m["covariate_eigenvectors"]),
        residual_matrix=m["residual_matrix"],
        noise_spectrum=noise,
        x_mean_coords=m["x_mean_coords"],
        y_mean=m["y_mean"],
        centered=centered,
        dof_correction=dof_correction,
        truncation=truncation,
    )
