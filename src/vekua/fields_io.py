"""CSV field exchange and grid metadata records.

Field CSV: header ``x,y,re,im``, row-major (x outer, y inner), every number
rendered with 17 significant digits so exports are bit-faithful round trips.
Grid metadata travels as a small JSON record (a1, a2, n1, n2).  Both CSV
readers reject short rows and non-numeric cells (naming the file and line)
and non-finite values (naming the data row) with a
:class:`~vekua.errors.ConfigError`.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .grid import Grid1D, Grid2D

__all__ = [
    "write_field_csv",
    "read_field_csv",
    "write_grid_meta",
    "read_grid_meta",
    "read_axis_table",
]

_FMT = ".17g"


def write_field_csv(path, grid: Grid2D, values) -> None:
    values = grid.check(np.asarray(values, dtype=complex))
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "re", "im"])
        for i, x in enumerate(grid.gx.nodes):
            for j, y in enumerate(grid.gy.nodes):
                v = values[i, j]
                writer.writerow(
                    [format(x, _FMT), format(y, _FMT), format(v.real, _FMT), format(v.imag, _FMT)]
                )


def _bad_row(path: Path, line: int, exc: Exception) -> ConfigError:
    return ConfigError(f"{path}:{line}: malformed row ({type(exc).__name__}: {exc})")


def _check_finite(path: Path, *columns: np.ndarray) -> None:
    bad = ~np.isfinite(np.vstack(columns)).all(axis=0)
    if bad.any():
        raise ConfigError(f"{path}: non-finite value in data row {int(np.argmax(bad)) + 1}")


def _axis_from_values(values: np.ndarray, label: str) -> Grid1D:
    n = len(values)
    if n < 3 or n % 2 == 0:
        raise ConfigError(f"{label}: need an odd number (>= 3) of distinct nodes, got {n}")
    a = -values[0]
    if not np.isclose(values[-1], a, rtol=0, atol=1e-9 * max(1.0, abs(a))):
        raise ConfigError(f"{label}: nodes are not symmetric about 0")
    grid = Grid1D(float(a), n)
    if not np.allclose(grid.nodes, values, rtol=0, atol=1e-9 * max(1.0, grid.h)):
        raise ConfigError(f"{label}: nodes are not uniformly spaced")
    return grid


def read_field_csv(path) -> tuple[Grid2D, np.ndarray]:
    """Load a field CSV, reconstructing and validating its grid."""
    path = Path(path)
    xs, ys, res, ims = [], [], [], []
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip() for c in header[:4]] != ["x", "y", "re", "im"]:
            raise ConfigError(f"{path}: expected header 'x,y,re,im'")
        for row in reader:
            if not row:
                continue
            try:
                xs.append(float(row[0]))
                ys.append(float(row[1]))
                res.append(float(row[2]))
                ims.append(float(row[3]))
            except (IndexError, ValueError) as exc:
                raise _bad_row(path, reader.line_num, exc) from exc
    xs, ys, res, ims = (np.asarray(c) for c in (xs, ys, res, ims))
    _check_finite(path, xs, ys, res, ims)
    x_nodes = np.unique(xs)
    y_nodes = np.unique(ys)
    if len(x_nodes) * len(y_nodes) != len(xs):
        raise ConfigError(f"{path}: rows do not form a full tensor grid")
    grid = Grid2D(_axis_from_values(x_nodes, f"{path}:x"), _axis_from_values(y_nodes, f"{path}:y"))
    values = (res + 1j * ims).reshape(grid.shape)
    # row-major export means x is the slow index already
    return grid, values


def write_grid_meta(path, grid: Grid2D) -> None:
    record = {
        "a1": grid.gx.half_width,
        "a2": grid.gy.half_width,
        "n1": grid.gx.n,
        "n2": grid.gy.n,
    }
    Path(path).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


def read_grid_meta(path) -> Grid2D:
    record = json.loads(Path(path).read_text())
    try:
        return Grid2D(
            Grid1D(float(record["a1"]), int(record["n1"])),
            Grid1D(float(record["a2"]), int(record["n2"])),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: bad grid metadata ({exc})") from exc


def read_axis_table(path, grid: Grid1D, label: str) -> np.ndarray:
    """Two-column CSV (coordinate, value) sampled on the exact grid nodes."""
    path = Path(path)
    coords, vals = [], []
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ConfigError(f"{path}: empty table")
        for row in reader:
            if not row:
                continue
            try:
                coords.append(float(row[0]))
                vals.append(float(row[1]))
            except (IndexError, ValueError) as exc:
                raise _bad_row(path, reader.line_num, exc) from exc
    coords = np.asarray(coords)
    vals = np.asarray(vals)
    _check_finite(path, coords, vals)
    if len(coords) != grid.n or not np.allclose(
        coords, grid.nodes, rtol=0, atol=1e-9 * max(1.0, grid.h)
    ):
        raise ConfigError(f"{path}: {label} samples are not on the expected grid nodes")
    return vals
