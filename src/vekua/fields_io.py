"""CSV field exchange and grid metadata records.

Field CSV bytes: the header line ``x,y,re,im``, then one line ``x,y,re,im``
per grid node in x-major order (x outer, y inner), every line ended by
``\r\n`` and every number written as ``format(v, ".17g")``, so an export
is a bit-faithful round trip.  These are the bytes :class:`csv.writer`
writes for those cells.  The reader accepts any line ending, blank lines,
extra trailing columns and space-padded or quoted cells, and it enforces the
x-major order.  Grid metadata is written next to the fields as a small JSON
record (a1, a2, n1, n2) for the reader; the package never reads it back.

Both CSV readers parse the data rows with :func:`numpy.loadtxt`, which
gives the float64 that ``float()`` gives for each cell.  They reject
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

Each field-CSV conversion runs on two cores: a child made by ``os.fork``
does one half of the rows while this process does the other
(:func:`_child_half`).  Threads cannot share this work, because
``%``-formatting and :func:`numpy.loadtxt` hold the interpreter lock: two
``loadtxt`` calls on a 12 MB field CSV took 0.17-0.22 s in two threads and
0.17 s one after the other (2-core x86-64 box).

* A write formats the x-rows ``n1 // 2`` on in the child, which sends them
  as one buffer through a pipe; this process writes the header and the
  first rows straight into the file, then copies the pipe into it in
  chunks.  The file is byte for byte the one a single process writes.
* A read splits the file after the first ``\n`` at or after its byte
  midpoint.  The child reads the head into its memory, header included,
  parses it and sends ``rows.tobytes()``; this process parses the tail
  straight from the file after a seek, so it holds no copy of the text, and
  concatenates the two.  A
  universal-newline line always ends at a ``\n``, so the halves hold the
  rows of the single parse, as long as no quoted cell runs over the split:
  a head that holds a ``"`` therefore counts as failed.  A file without a
  ``\n`` after its midpoint (CR line ends) is parsed whole here.
* Failure: the child exits non-zero if anything in it fails (Ctrl-C
  included).  A read then runs the single parse, so its errors name the
  same file line; a write formats the child's rows itself.  This process
  closes its pipe end before it waits for the child, so a child blocked on
  a full pipe ends, and no child outlives a call.
* Where ``os.fork`` is missing or fails, both halves run here, in turn.

Forking while OpenBLAS keeps its thread pool is safe here: the child calls
no BLAS routine, takes no lock the threads could hold, and leaves by
``os._exit``, so it flushes no inherited stdio buffer and runs no atexit
handler.  The child's memory (the half text it formats or reads) is not
counted in this process's ``getrusage(RUSAGE_SELF)`` peak, but in
``RUSAGE_CHILDREN``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import shutil
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


@contextlib.contextmanager
def _child_half(work):
    """Run ``work()``, which returns bytes, in a child made by ``os.fork``
    while the body of the ``with`` runs here.

    The body gets ``receive``: ``receive(consume)`` returns
    ``consume(stream)``, ``stream`` a binary stream of those bytes, and
    raises :class:`ChildProcessError` when the child exited non-zero.  Where
    ``os.fork`` is missing or fails, ``receive`` runs ``work`` itself.  The
    child is reaped before the ``with`` ends, also on an error.
    """
    read_fd, write_fd = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns on a fork with threads alive (OpenBLAS's);
            # the child takes no lock they may hold, see the module docstring
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except (AttributeError, OSError):  # no fork on this platform, or none to be had
        pid = None
    if pid is None:
        os.close(read_fd)
        os.close(write_fd)
        yield lambda consume: consume(io.BytesIO(work()))
        return
    if pid == 0:  # the child: never returns into the caller's frames
        code = 1
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as pipe:
                pipe.write(work())
            code = 0
        finally:  # any failure, Ctrl-C too, ends the child with code 1
            os._exit(code)
    os.close(write_fd)
    pipe = open(read_fd, "rb")
    reaped = False

    def receive(consume):
        nonlocal reaped
        with pipe:
            result = consume(pipe)
        _, status = os.waitpid(pid, 0)
        reaped = True
        if status != 0:  # 0 is a normal exit with code 0
            raise ChildProcessError(f"field CSV child {pid} ended with wait status {status}")
        return result

    try:
        yield receive
    finally:
        pipe.close()  # first: a child blocked on a full pipe now ends
        if not reaped:
            os.waitpid(pid, 0)


def _field_lines(grid: Grid2D, cells: np.ndarray, rows: range):
    """The CSV lines of the nodes of x-rows ``rows``, one string per x-row."""
    # each axis node is formatted once; a line is x + tail, re and im filled in by %
    tails = [f",{format(y, _FMT)},%{_FMT},%{_FMT}\r\n" for y in grid.gy.nodes]
    for i in rows:
        head = format(grid.gx.nodes[i], _FMT)
        yield (head + head.join(tails)) % tuple(cells[i].tolist())


def write_field_csv(path, grid: Grid2D, values) -> None:
    values = grid.check(np.asarray(values, dtype=complex))
    # row i holds re, im, re, im, ... of values[i]
    cells = np.ascontiguousarray(values).view(np.float64)
    n1 = grid.gx.n
    own, theirs = range(n1 // 2), range(n1 // 2, n1)
    with open_output(path, newline="") as fh, _child_half(
        lambda: "".join(_field_lines(grid, cells, theirs)).encode("ascii")
    ) as receive:
        fh.write(",".join(_FIELD_HEADER) + "\r\n")
        fh.writelines(_field_lines(grid, cells, own))
        fh.flush()
        start = fh.buffer.tell()
        try:
            receive(lambda pipe: shutil.copyfileobj(pipe, fh.buffer, 1 << 20))
        except ChildProcessError:
            # what the child sent is a prefix of these lines: write them over it
            fh.buffer.seek(start)
            fh.writelines(_field_lines(grid, cells, theirs))


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


def _load(source, width: int, skiprows: int) -> np.ndarray:
    """The leading ``width`` cells of every row of ``source`` after ``skiprows`` lines."""
    with warnings.catch_warnings():
        # a file with no data rows; the callers reject it
        warnings.simplefilter("ignore", UserWarning)
        return np.loadtxt(source, delimiter=",", quotechar='"', comments=None,
                          skiprows=skiprows, usecols=tuple(range(width)), ndmin=2)


def _split_offset(path: Path) -> int | None:
    """The offset just past the first ``\n`` at or after the file's byte
    midpoint, or None when there is none or no byte follows it."""
    with path.open("rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        pos = fh.seek(size // 2)
        while chunk := fh.read(1 << 16):
            k = chunk.find(b"\n")
            if k >= 0:
                return pos + k + 1 if pos + k + 1 < size else None
            pos += len(chunk)
    return None


def _load_in_halves(path: Path, width: int, split: int) -> np.ndarray:
    """The rows of the file, the head before ``split`` parsed by a child.

    Raises ValueError or ChildProcessError when either half fails."""
    def head() -> bytes:
        with path.open("rb") as fh:
            text = fh.read(split)
        if b'"' in text:
            raise ValueError("a quoted cell may run over the split")
        return _load(io.TextIOWrapper(io.BytesIO(text)), width, 1).tobytes()

    with _child_half(head) as receive:
        with path.open() as fh:
            fh.buffer.seek(split)  # before any read, so the text layer starts there
            tail = _load(fh, width, 0)
        head_rows = np.frombuffer(receive(lambda pipe: pipe.read())).reshape(-1, width)
    return np.concatenate((head_rows, tail))


def _read_rows(path: Path, width: int, header: list[str] | None = None) -> np.ndarray:
    """The leading ``width`` cells of every data row, as a (rows, width) float array.

    The first row is the header; when ``header`` is given, its leading cells
    must be those names.  Blank lines are skipped.  The file is parsed in two
    halves (see the module docstring); only when that fails is it parsed
    whole, and only when that fails too does the row loop run, to name the
    line at fault.
    """
    with path.open() as fh:
        found = next(csv.reader(fh), None)
    if found is None or (header and [c.strip() for c in found[: len(header)]] != header):
        raise ConfigError(
            f"{path}: expected header {','.join(header)!r}" if header else f"{path}: empty table"
        )
    rows = None
    split = _split_offset(path)
    if split is not None:
        with contextlib.suppress(ValueError, ChildProcessError):
            rows = _load_in_halves(path, width, split)
    if rows is None:
        try:
            rows = _load(path, width, 1)
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
