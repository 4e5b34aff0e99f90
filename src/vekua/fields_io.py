"""CSV field exchange and grid metadata records.

Field CSV bytes: the header line ``x,y,re,im``, then one line ``x,y,re,im``
per grid node in x-major order (x outer, y inner), every line ended by
``\r\n`` and every number written as ``format(v, ".17g")``, so an export
is a bit-faithful round trip.  These are the bytes :class:`csv.writer`
writes for those cells.  The reader accepts any line ending, blank lines,
extra trailing columns and space-padded or quoted cells, and it enforces the
x-major order.  Grid metadata is written next to the fields as a small JSON
record (a1, a2, n1, n2) for the reader; the package never reads it back.

Both CSV readers parse every data row with one :func:`numpy.loadtxt` call,
which gives the float64 that ``float()`` gives for each cell.  They reject
with a :class:`~vekua.errors.ConfigError` short rows and non-numeric cells
(naming the file and line; the cell must be ASCII with no ``_``, as the bulk
parser requires) and non-finite values (naming the data row).

Every output of the package is opened through :func:`open_output`, which
removes an existing file or symlink at the path and creates a new file, so
a hard link or a read-only file there is replaced, not written through.
On ext4 a truncating open of a file that was itself truncated and rewritten
was measured to wait for the disk (0.1-0.5 s for a 12 MB field CSV); an
unlink and a create took under 4 ms.  A directory at the path is not removed;
on Linux the error is the one ``open`` would raise.
"""

from __future__ import annotations

import csv
import json
import warnings
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .grid import Grid1D, Grid2D

__all__ = [
    "open_output",
    "write_field_csv",
    "read_field_csv",
    "write_grid_meta",
    "read_axis_table",
]

_FMT = ".17g"
_FIELD_HEADER = ["x", "y", "re", "im"]


def open_output(path, newline=None):
    """Open ``path`` for writing text as a new file, never in place."""
    path = Path(path)
    path.unlink(missing_ok=True)
    return path.open("w", newline=newline)


def write_field_csv(path, grid: Grid2D, values) -> None:
    values = grid.check(np.asarray(values, dtype=complex))
    # row i holds re, im, re, im, ... of values[i]
    cells = np.ascontiguousarray(values).view(np.float64)
    # each axis node is formatted once; a line is x + tail, re and im filled in by %
    tails = [f",{format(y, _FMT)},%{_FMT},%{_FMT}\r\n" for y in grid.gy.nodes]
    with open_output(path, newline="") as fh:
        fh.write(",".join(_FIELD_HEADER) + "\r\n")
        for x, row in zip(grid.gx.nodes, cells):
            head = format(x, _FMT)
            fh.write((head + head.join(tails)) % tuple(row.tolist()))


def _check_cell(text: str) -> None:
    """Raise the ValueError of ``float(text)``, also for the cells that ``float``
    takes but the bulk parser refuses: those with ``_`` or non-ASCII characters
    other than whitespace."""
    if "_" in text or not text.strip().isascii():
        raise ValueError(f"could not convert string to float: {text!r}")
    float(text)


def _raise_bad_row(path: Path, width: int) -> None:
    """Raise the error of the first data row whose leading ``width`` cells do not parse."""
    with path.open() as fh:
        reader = csv.reader(fh)
        next(reader, None)
        for row in reader:
            if not row:
                continue
            try:
                for k in range(width):
                    _check_cell(row[k])
            except (IndexError, ValueError) as exc:
                raise ConfigError(
                    f"{path}:{reader.line_num}: malformed row ({type(exc).__name__}: {exc})"
                ) from exc


def _read_rows(path: Path, width: int, header: list[str] | None = None) -> np.ndarray:
    """The leading ``width`` cells of every data row, as a (rows, width) float array.

    The first row is the header; when ``header`` is given, its leading cells
    must be those names.  Blank lines are skipped.  Only when the bulk parse
    fails does the row loop run, to name the line at fault.
    """
    with path.open() as fh:
        found = next(csv.reader(fh), None)
    if found is None or (header and [c.strip() for c in found[: len(header)]] != header):
        raise ConfigError(
            f"{path}: expected header {','.join(header)!r}" if header else f"{path}: empty table"
        )
    try:
        with warnings.catch_warnings():
            # a file with no data rows; the callers reject it
            warnings.simplefilter("ignore", UserWarning)
            rows = np.loadtxt(path, delimiter=",", quotechar='"', comments=None, skiprows=1,
                              usecols=tuple(range(width)), ndmin=2)
    except ValueError as exc:
        _raise_bad_row(path, width)
        raise ConfigError(f"{path}: malformed CSV ({exc})") from exc
    bad = ~np.isfinite(rows).all(axis=1)
    if bad.any():
        raise ConfigError(f"{path}: non-finite value in data row {int(np.argmax(bad)) + 1}")
    return rows


def _axis_from_values(values: np.ndarray, label: str) -> Grid1D:
    n = len(values)
    if n < 3 or n % 2 == 0:
        raise ConfigError(f"{label}: need an odd number (>= 3) of distinct nodes, got {n}")
    a = -values[0]
    if not np.isclose(values[-1], a, rtol=0, atol=1e-9 * max(1.0, abs(a))):
        raise ConfigError(f"{label}: nodes are not symmetric about 0")
    try:
        grid = Grid1D(float(a), n)
    except ValueError as exc:
        raise ConfigError(f"{label}: {exc}") from exc
    if not np.allclose(grid.nodes, values, rtol=0, atol=1e-9 * max(1.0, grid.h)):
        raise ConfigError(f"{label}: nodes are not uniformly spaced")
    return grid


def read_field_csv(path) -> tuple[Grid2D, np.ndarray]:
    """Load a field CSV, reconstructing and validating its grid."""
    path = Path(path)
    rows = _read_rows(path, 4, _FIELD_HEADER)
    xs, ys = rows[:, 0], rows[:, 1]
    x_nodes = np.unique(xs)
    y_nodes = np.unique(ys)
    if len(x_nodes) * len(y_nodes) != len(rows):
        raise ConfigError(f"{path}: rows do not form a full tensor grid")
    grid = Grid2D(_axis_from_values(x_nodes, f"{path}:x"), _axis_from_values(y_nodes, f"{path}:y"))
    in_order = (xs == np.repeat(x_nodes, len(y_nodes))) & (ys == np.tile(y_nodes, len(x_nodes)))
    if not in_order.all():
        raise ConfigError(
            f"{path}: data row {int(np.argmax(~in_order)) + 1} is out of x-major order "
            "(x outer, y inner)"
        )
    # a view keeps each cell's bits; re + 1j * im would turn -0.0 into 0.0
    return grid, np.ascontiguousarray(rows[:, 2:]).view(complex).reshape(grid.shape)


def write_grid_meta(path, grid: Grid2D) -> None:
    record = {
        "a1": grid.gx.half_width,
        "a2": grid.gy.half_width,
        "n1": grid.gx.n,
        "n2": grid.gy.n,
    }
    with open_output(path) as fh:
        fh.write(json.dumps(record, indent=2, sort_keys=True) + "\n")


def read_axis_table(path, grid: Grid1D, label: str) -> np.ndarray:
    """Two-column CSV (coordinate, value) sampled on the exact grid nodes."""
    path = Path(path)
    rows = _read_rows(path, 2)
    if len(rows) != grid.n or not np.allclose(
        rows[:, 0], grid.nodes, rtol=0, atol=1e-9 * max(1.0, grid.h)
    ):
        raise ConfigError(f"{path}: {label} samples are not on the expected grid nodes")
    return rows[:, 1].copy()
