"""CSV/JSON input and output for curves and experiment reports.

Curves are stored one per row with a header row of grid points. Floats are
written with ``repr``, the shortest decimal that parses back to the exact
same double, so save-then-load is an identity.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from ..curves import Curve, Grid, curve_matrix
from ..errors import ParseError, UsageError


HEADER_ATOL = 1e-9  # header points may be hand-written decimals such as 0.3
# the fields of an ExperimentReport, in the order its JSON form lists them
_REPORT_KEYS = ("kind", "spec", "summary", "columns", "rows", "n_replications", "runtime_seconds")


def _format_row(values: np.ndarray) -> str:
    return ",".join(map(repr, values.tolist()))


def read_text(path) -> str:
    """The text of the UTF-8 file at ``path``; bytes that do not decode
    raise ``ParseError`` naming the path."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def save_curves(series, path) -> None:
    """Write a curve series, as :func:`~curveprob.curves.curve_matrix`
    accepts it; an empty series gives an empty file."""
    if len(series) == 0:
        Path(path).write_text("", encoding="utf-8")
        return
    values, grid = curve_matrix(series)
    lines = [_format_row(grid.points)]
    lines.extend(map(_format_row, values))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_curves(path) -> np.ndarray:
    """Read a curve-per-row CSV as its ``(n, D+1)`` value matrix. An empty
    file gives shape ``(0, 0)`` and a header-only file ``(0, D+1)``.

    The header must list the uniform grid points i/D, each within
    HEADER_ATOL."""
    text = read_text(path)
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        return np.empty((0, 0))
    header = lines[0].split(",")
    if len(header) < 3:
        raise ParseError(f"{path}: header must list at least 3 grid points", row=1)
    grid = Grid(len(header) - 1)
    expected = grid.points
    off_grid = np.flatnonzero(~(np.abs(_parse_row(path, header, 1) - expected) <= HEADER_ATOL))
    if off_grid.size:
        c = int(off_grid[0])
        raise ParseError(
            f"{path}: header cell {header[c]!r} is not the uniform grid point "
            f"{float(expected[c])!r}", row=1, column=c + 1,
        )

    values = np.empty((len(lines) - 1, grid.size))
    for r, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != grid.size:
            raise ParseError(
                f"{path}: expected {grid.size} columns, found {len(cells)}", row=r
            )
        values[r - 2] = _parse_row(path, cells, r)
    return curve_matrix(values)[0]


def _parse_row(path, cells: list, row: int) -> np.ndarray:
    try:
        return np.fromiter(map(float, cells), float, len(cells))
    except ValueError:
        pass  # the per-cell loop names the first bad cell
    values = np.empty(len(cells))
    for c, cell in enumerate(cells, start=1):
        try:
            values[c - 1] = float(cell)
        except ValueError:
            raise ParseError(f"{path}: non-numeric cell {cell!r}", row=row, column=c) from None
    return values


def load_single_curve(path) -> Curve:
    values = load_curves(path)
    if len(values) != 1:
        raise UsageError(f"{path}: expected exactly one curve, found {len(values)}")
    return Curve(Grid(values.shape[1] - 1), values[0])


def load_index(path) -> np.ndarray:
    """One 64-bit integer per line (day-of-year or day-of-week labels)."""
    text = read_text(path)
    out = []
    for r, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            out.append(np.int64(line.strip()))
        except (ValueError, OverflowError):
            raise ParseError(f"{path}: index {line.strip()!r} is not a 64-bit integer", row=r) from None
    return np.asarray(out, dtype=int)


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def report_path(path) -> Path:
    """``path`` as a report file: a .csv or .json file in a directory that exists."""
    path = Path(path)
    if path.suffix.lower() not in (".csv", ".json"):
        raise UsageError(f"report path must end in .csv or .json, got {path.name!r}")
    if not path.parent.is_dir():
        raise UsageError(f"report path {str(path)!r}: {str(path.parent)!r} is not a directory")
    return path


def save_report(report, path) -> None:
    """Write an experiment report as CSV or JSON depending on the file extension.

    The CSV form holds the kind, the parameters, the summary and the table
    only, so identical seeds give byte-identical files; wall-clock runtime
    lives in the JSON form because it is not reproducible.
    """
    path = report_path(path)
    if path.suffix.lower() == ".json":
        text = json.dumps({key: getattr(report, key) for key in _REPORT_KEYS}, indent=2)
    else:
        text = "\n".join([
            f"# kind={report.kind}",
            *(f"# {key}={report.spec[key]}" for key in sorted(report.spec)),
            *(f"# summary.{key}={_format_cell(report.summary[key])}"
              for key in sorted(report.summary)),
            *(",".join(map(_format_cell, row)) for row in (report.columns, *report.rows)),
        ])
    path.write_text(text + "\n", encoding="utf-8")
