import errno
import json
import os
import subprocess
import sys
from math import comb
from pathlib import Path

import numpy as np
import pytest

import vekua
import vekua.cli as cli
import vekua.fields_io as fields_io
import vekua.formal_powers as formal_powers
import vekua.transmutation as transmutation
import vekua.verification as verification
from vekua.cli import build_parser, main
from vekua.errors import (
    ConfigError,
    GridShapeError,
    KernelMembershipError,
)
from vekua.fields_io import (
    read_axis_table,
    read_field_csv,
    write_field_csv,
    write_grid_meta,
)
from vekua.grid import Grid1D, Grid2D
from vekua.superpotential import catalog_names


@pytest.fixture()
def small_grid():
    return Grid2D(Grid1D(1.0, 21), Grid1D(1.0, 21))


def test_field_csv_roundtrip(tmp_path, small_grid):
    x, y = small_grid.meshes()
    values = np.exp(x) * np.cos(y) + 1j * (x - y) / 3.0
    values[0, :4] = [complex(-0.0, 5e-324), complex(-5e-324, -0.0), 1e300 - 1e-300j, 0.1]
    path = tmp_path / "field.csv"
    write_field_csv(path, small_grid, values)
    grid2, back = read_field_csv(path)
    assert grid2.shape == small_grid.shape
    # 17 significant digits round-trip bit for bit, signed zeros and subnormals too
    np.testing.assert_array_equal(back.view(np.uint64), values.view(np.uint64))
    header = path.read_text().splitlines()[0]
    assert header == "x,y,re,im"


def test_field_csv_golden_bytes(tmp_path):
    values = np.array([[complex(-0.0, 5e-324), complex(1e300, 0.1), complex(0.1, -1e300)],
                       [complex(0.0, -0.0), complex(-5e-324, 1.0), complex(1 / 3, 2.5)],
                       [complex(-2.5e-310, 1e22), complex(123456789.0, -0.1), complex(-0.0, -0.0)]])
    path = tmp_path / "field.csv"
    write_field_csv(path, Grid2D.square(1.0, 3), values)
    assert path.read_bytes() == (
        b"x,y,re,im\r\n"
        b"-1,-1,-0,4.9406564584124654e-324\r\n"
        b"-1,0,1.0000000000000001e+300,0.10000000000000001\r\n"
        b"-1,1,0.10000000000000001,-1.0000000000000001e+300\r\n"
        b"0,-1,0,-0\r\n"
        b"0,0,-4.9406564584124654e-324,1\r\n"
        b"0,1,0.33333333333333331,2.5\r\n"
        b"1,-1,-2.5000000000000171e-310,1e+22\r\n"
        b"1,0,123456789,-0.10000000000000001\r\n"
        b"1,1,-0,-0\r\n"
    )


# the cells of one data row, spelt as a hand-written export might
_CELL_SPELLINGS = ("-1", " -1.0 ", '"-1"', '" -1e0"', "-1.", "-.1e1", "+0", "-0", "0.0",
                   "5e-324", "1E300", "0.1", "-2.5e-310", "+1e22", " 0.33333333333333331\t")


def _serial_field_csv(grid, values) -> bytes:
    """The field CSV cell by cell: header, then x,y,re,im per node, x-major, CRLF-ended."""
    lines = ["x,y,re,im"]
    for i, x in enumerate(grid.gx.nodes):
        for j, y in enumerate(grid.gy.nodes):
            v = values[i, j]
            lines.append(",".join(format(c, ".17g") for c in (x, y, v.real, v.imag)))
    return ("\r\n".join(lines) + "\r\n").encode()


def _odd_values(grid, seed=0):
    """Values of every magnitude, with signed zeros, subnormals and extremes."""
    rng = np.random.default_rng(seed)
    cells = rng.standard_normal((*grid.shape, 2)) * 10.0 ** rng.integers(-300, 300, (*grid.shape, 2))
    special = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -2.5e-310, 0.1, 1 / 3]
    flat = cells.reshape(-1)
    flat[: len(special)] = special
    flat[-len(special):] = special[::-1]
    return cells.view(complex)[..., 0]


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("n1, n2", [(3, 3), (3, 5), (21, 21), (401, 3)])
def test_field_csv_bytes_equal_a_serial_formatter(tmp_path, n1, n2):
    grid = Grid2D(Grid1D(1.0, n1), Grid1D(0.5, n2))
    values = _odd_values(grid)
    path = tmp_path / "field.csv"
    write_field_csv(path, grid, values)
    assert path.read_bytes() == _serial_field_csv(grid, values)
    _, back = read_field_csv(path)
    assert back.tobytes() == values.tobytes()
    _no_child_left()


def _spy_whole_file_parses(monkeypatch):
    """A list that gets one entry each time a file is parsed whole, not in halves."""
    whole, load = [], fields_io._load

    def spy(source, *args):
        if isinstance(source, Path):
            whole.append(source)
        return load(source, *args)

    monkeypatch.setattr(fields_io, "_load", spy)
    return whole


# (nodes per axis, first data row with quoted cells, blank lines in the middle, final newline)
_SPELT_LAYOUTS = {
    "n3-every-row-quoted": (3, 0, 0, True),
    "n9-tail-quoted": (9, 41, 0, True),
    "n9-blank-lines-at-the-split": (9, 41, 40, True),
    "n9-no-final-newline": (9, 41, 0, False),
}


def _spelt_field(path, n, quoted_from, blank_run, final_newline, newline):
    grid = Grid2D.square(1.0, n)
    lines, want = ["x, y ,re,im,note"], []
    for k, (x, y) in enumerate(zip(*(m.ravel() for m in grid.meshes()))):
        re, im = _CELL_SPELLINGS[k % 15], _CELL_SPELLINGS[-1 - k % 15]
        if k < quoted_from:
            re, im = re.replace('"', ""), im.replace('"', "")
        want.append(complex(float(re.strip('"')), float(im.strip('"'))))
        extra = ["", ",7", ",text,more"][k % 3]  # ragged trailing columns
        ycell = f'"{y:.17g}"' if k >= quoted_from else f" {y:.17g} "
        lines.append(f"{x:.17g},{ycell},{re},{im}{extra}")
        if k % 4 == 0:
            lines.append("")
        if k == n * n // 2:
            lines.extend([""] * blank_run)
    path.write_bytes((newline.join(lines) + (newline if final_newline else "")).encode())
    return want


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_read_field_csv_parses_cells_as_float_does(tmp_path, monkeypatch, newline):
    whole = _spy_whole_file_parses(monkeypatch)
    for label, (n, quoted_from, blank_run, final_newline) in _SPELT_LAYOUTS.items():
        path = tmp_path / f"{label}.csv"
        want = _spelt_field(path, n, quoted_from, blank_run, final_newline, newline)
        if blank_run:
            split = fields_io._split_offset(path)
            data = path.read_bytes()
            assert split is None or data[split - 2:split + 1].strip() == b"", label
        whole.clear()
        _, back = read_field_csv(path)
        np.testing.assert_array_equal(back.ravel().view(np.uint64),
                                      np.array(want).view(np.uint64), err_msg=label)
        # the halves parse on their own unless a quote is in the head or no LF ends a line
        assert bool(whole) == (newline == "\r" or quoted_from == 0), label
    _no_child_left()


def test_read_field_csv_keeps_a_quoted_cell_that_runs_over_the_split(tmp_path, monkeypatch):
    # a note cell holding 200 lines that look like data rows, in the middle of the file
    grid = Grid2D.square(1.0, 5)
    path = tmp_path / "field.csv"
    write_field_csv(path, grid, _odd_values(grid))
    header, *rows = path.read_text().splitlines()
    note = "\n".join(["9,9,9,9"] * 200)
    rows[12] += f',"{note}"'
    path.write_text("\n".join([header, *rows]) + "\n")
    split = fields_io._split_offset(path)
    assert path.read_bytes()[:split].count(b'"') == 1  # the split is inside the note
    whole = _spy_whole_file_parses(monkeypatch)
    _, back = read_field_csv(path)
    assert back.tobytes() == _odd_values(grid).tobytes()
    assert whole == [path]
    _no_child_left()


def _fork_then(monkeypatch, child_does):
    """Make every ``os.fork`` child run ``child_does()`` first."""
    fork = os.fork

    def forked():
        pid = fork()
        if pid == 0:
            child_does()
        return pid

    monkeypatch.setattr(os, "fork", forked)


class _HalfThenFail:
    """A pipe writer that sends the first half of its bytes, then fails."""

    def __init__(self, fd, mode):
        self.fd = fd

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        os.close(self.fd)

    def write(self, data):
        view = memoryview(data)[: len(data) // 2]
        while view:
            view = view[os.write(self.fd, view):]
        raise OSError(errno.EIO, "synthetic failure")


def _fork_fails():
    raise OSError(errno.EAGAIN, "Resource temporarily unavailable")


def _fail_fork(monkeypatch, how):
    if how == "fork-raises":
        monkeypatch.setattr(os, "fork", _fork_fails)
    elif how == "no-fork":
        monkeypatch.delattr(os, "fork")
    elif how == "child-exits-1":
        _fork_then(monkeypatch, lambda: os._exit(1))
    else:  # the child sends half of its bytes, then fails
        _fork_then(monkeypatch, lambda: setattr(fields_io, "open", _HalfThenFail))


@pytest.mark.parametrize("how", ["fork-raises", "no-fork", "child-exits-1", "child-fails-midway"])
def test_field_csv_conversions_without_a_working_child(tmp_path, monkeypatch, how):
    grid = Grid2D(Grid1D(1.0, 21), Grid1D(0.5, 5))
    values = _odd_values(grid)
    want = _serial_field_csv(grid, values)
    _fail_fork(monkeypatch, how)
    path = tmp_path / "field.csv"
    write_field_csv(path, grid, values)
    assert path.read_bytes() == want
    _, back = read_field_csv(path)
    assert back.tobytes() == values.tobytes()
    _no_child_left()


def test_grid_meta_roundtrip(tmp_path, small_grid):
    path = tmp_path / "grid.json"
    write_grid_meta(path, small_grid)
    assert json.loads(path.read_text()) == {"a1": 1.0, "a2": 1.0, "n1": 21, "n2": 21}


def test_read_rejects_even_grid(tmp_path):
    lines = ["x,y,re,im"]
    for x in (-1.0, 1.0):
        for y in (-1.0, 1.0):
            lines.append(f"{x},{y},0,0")
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError):
        read_field_csv(path)


def _write_sample_field(tmp_path, n=21):
    grid = Grid2D.square(1.0, n)
    z = grid.zmesh()
    path = tmp_path / "input.csv"
    write_field_csv(path, grid, z**2)
    return grid, path


def test_cli_transmute_identity_for_zero_chi(tmp_path):
    grid, inp = _write_sample_field(tmp_path)
    out = tmp_path / "out"
    code = main(
        [
            "transmute",
            "--sp",
            "zero",
            "--input",
            str(inp),
            "--op",
            "T0",
            "--out",
            str(out),
            "--dump-kernel",
        ]
    )
    assert code == 0
    _, result = read_field_csv(out / "transmuted.csv")
    _, original = read_field_csv(inp)
    np.testing.assert_allclose(result, original, atol=1e-12)
    assert (out / "kernel_x.csv").read_text().splitlines()[0] == "x,t,K"


def _kernel_csv_oracle(gk) -> bytes:
    """The kernel CSV cell by cell: header, then x,t,K per node pair, LF-ended."""
    nodes = gk.axis_grid.nodes
    n = len(nodes)
    lines = ["x,t,K"]
    for k in range(n):
        for l in range(min(k, n - 1 - k), max(k, n - 1 - k) + 1):
            cells = (nodes[k], nodes[l], gk.axis_values[k, l])
            lines.append(",".join(format(v, ".17g") for v in cells))
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("op", ["T0", "T1d-tilde", "T2d"])
def test_cli_kernel_dump_bytes(tmp_path, op):
    from vekua.superpotential import make_superpotential
    from vekua.transmutation import build_transmute, build_transmute_2d, build_transmute_tilde

    _, inp = _write_sample_field(tmp_path, n=11)
    out = tmp_path / "out"
    argv = ["transmute", "--sp", "quadratic", "--params=1,-0.5", "--input", str(inp),
            "--op", op, "--out", str(out), "--dump-kernel"]
    assert main(argv) == 0
    sp = make_superpotential("quadratic", (1.0, -0.5), read_field_csv(inp)[0])
    if op == "T0":
        t2d = build_transmute_2d(sp)
        kernels = {"x": t2d.tx, "y": t2d.ty}
    elif op == "T1d-tilde":
        kernels = {"x": build_transmute_tilde(sp.ax)}
    else:
        kernels = {"y": build_transmute(sp.ay)}
    assert sorted(p.name for p in out.glob("kernel_*.csv")) == [f"kernel_{k}.csv" for k in kernels]
    for label, t in kernels.items():
        assert (out / f"kernel_{label}.csv").read_bytes() == _kernel_csv_oracle(t.kernel)


def _write_axis_table(path, grid, samples, label):
    rows = "".join(f"{x:.17g},{v:.17g}\n" for x, v in zip(grid.nodes, samples))
    path.write_text(f"x,{label}\n" + rows)


@pytest.mark.parametrize("op", ["T1d", "T2d-tilde"])
def test_cli_transmute_tabulated_converges_to_the_catalog_family(tmp_path, op):
    # quadratic (1, -0.5) as tables: its chi' and chi'' stencils are exact for a
    # quadratic, so the gap to the catalog run is the O(h^2) interpolation of q
    # between the nodes, which the characteristic grid reads at half steps
    from vekua.verification import RATIO_WINDOW

    gaps = []
    for n in (21, 41):
        work = tmp_path / f"n{n}"
        work.mkdir()
        grid, inp = _write_sample_field(work, n)
        _write_axis_table(work / "chi1.csv", grid.gx, 0.5 * grid.gx.nodes**2, "chi1")
        _write_axis_table(work / "chi2.csv", grid.gy, -0.25 * grid.gy.nodes**2, "chi2")
        common = ["transmute", "--input", str(inp), "--op", op]
        tabulated = ["--sp", "tabulated", "--chi1-file", str(work / "chi1.csv"),
                     "--chi2-file", str(work / "chi2.csv"), "--out", str(work / "tab")]
        assert main(common + tabulated) == 0
        assert main(common + ["--sp", "quadratic", "--params=1,-0.5",
                              "--out", str(work / "poly")]) == 0
        _, got = read_field_csv(work / "tab" / "transmuted.csv")
        _, want = read_field_csv(work / "poly" / "transmuted.csv")
        gaps.append(float(np.max(np.abs(got - want))))
    assert gaps[1] > 0.0
    assert RATIO_WINDOW[0] <= gaps[0] / gaps[1] <= RATIO_WINDOW[1], gaps


def test_cli_formal_powers_zero_chi(tmp_path):
    out = tmp_path / "fp"
    code = main(
        [
            "formal-powers",
            "--sp",
            "zero",
            "--nodes",
            "21",
            "--n-max",
            "3",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert "power_seq0_a1_n3.csv" in manifest["files"]
    grid, z3 = read_field_csv(out / "power_seq0_a1_n3.csv")
    z = grid.zmesh()
    assert np.max(np.abs(z3 - z**3)) <= grid.hmax**2


def test_cli_determinism(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    argv = ["formal-powers", "--sp", "quadratic", "--params", "1,1", "--nodes", "21",
            "--n-max", "2", "--out"]
    assert main(argv + [str(out1)]) == 0
    path = out1 / "power_seq0_a1_n2.csv"
    with path.open("rb") as handle:
        for out in (out1, out2):
            assert main(argv + [str(out)]) == 0
        # the rerun into a made a new file; the handle still holds the first run's
        assert not os.path.samestat(os.fstat(handle.fileno()), os.stat(path))
        assert handle.read() == path.read_bytes()
    names = sorted(p.name for p in out1.iterdir())
    assert names == sorted(p.name for p in out2.iterdir())
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_cli_output_path_that_is_a_directory_exits_2(tmp_path, capsys):
    out = tmp_path / "o"
    (out / "grid.json").mkdir(parents=True)
    code = main(["formal-powers", "--sp", "zero", "--nodes", "5", "--n-max", "0",
                 "--out", str(out)])
    assert code == 2
    _one_line_error(capsys, f"i/o error: [Errno 21] Is a directory: '{out / 'grid.json'}'")
    assert (out / "grid.json").is_dir()


@pytest.mark.parametrize("direction", ["2to0", "0to2"])
def test_cli_conjugate(tmp_path, direction):
    # for chi = 0 the partners are harmonic conjugates: x -> y and y -> x
    grid = Grid2D.square(1.0, 21)
    x, y = grid.meshes()
    given, partner_want = (x, y) if direction == "2to0" else (y, x)
    inp = tmp_path / "w.csv"
    write_field_csv(inp, grid, given.astype(complex))
    out = tmp_path / "conj"
    code = main(
        ["conjugate", "--sp", "zero", "--input", str(inp), "--direction", direction,
         "--out", str(out)]
    )
    assert code == 0
    _, partner = read_field_csv(out / "partner.csv")
    np.testing.assert_allclose(np.real(partner), partner_want, atol=1e-6)
    assert (out / "conjugate_report.txt").exists()


def test_cli_expand(tmp_path):
    grid = Grid2D.square(1.0, 21)
    x, y = grid.meshes()
    inp = tmp_path / "target.csv"
    write_field_csv(inp, grid, (x**2 - y**2).astype(complex))
    out = tmp_path / "fit"
    code = main(
        ["expand", "--sp", "zero", "--input", str(inp), "--basis", "ker_h0",
         "--degree", "3", "--out", str(out)]
    )
    assert code == 0
    text = (out / "expansion.txt").read_text()
    assert "residual_max" in text
    assert (out / "fit_residual.csv").exists()


def test_cli_usage_error_exit_code():
    assert main(["transmute", "--input", "missing.csv", "--nonsense"]) == 2


def test_cli_config_error_exit_code(tmp_path):
    grid, inp = _write_sample_field(tmp_path)
    code = main(
        ["transmute", "--sp", "tabulated", "--input", str(inp), "--out", str(tmp_path / "x")]
    )
    assert code == 2  # tabulated family without table files


@pytest.mark.parametrize(
    "flags",
    [
        ["--sp", "linear", "--params", "a,b"],
        ["--sp", "linear"],  # family without its parameters
        ["--sp", "linear", "--params", "nan,1"],
        ["--half-width", "nan"],
        ["--half-width", "1", "0"],
        ["--nodes", "21", "31", "41"],  # the third value was dropped without a word
    ],
    ids=["params-not-numeric", "params-missing", "params-not-finite", "half-width-not-finite",
         "half-width-zero", "nodes-three-values"],
)
def test_cli_malformed_input_exit_code(tmp_path, capsys, flags):
    argv = ["verify", "--nodes", "21", "--out", str(tmp_path / "out"), *flags]
    assert main(argv) == 2
    _one_line_error(capsys, "config error: ")
    assert not (tmp_path / "out").exists()


# data row 5 (file line 6) of a valid 21 x 21 field CSV, spoilt three ways,
# and what the error names
_SPOILT_ROWS = {
    "nan-cell": (lambda cells: cells[:2] + ["nan", "0"], "non-finite value in data row 5"),
    "short-row": (lambda cells: cells[:3], "input.csv:6: malformed row (IndexError"),
    "word-cell": (lambda cells: cells[:2] + ["abc", "0"], "input.csv:6: malformed row (ValueError"),
    # float() takes these two, but they are no plain numbers: refused, never misread
    "underscore-cell": (lambda cells: cells[:2] + ["1_0", "0"],
                        "input.csv:6: malformed row (ValueError: could not convert string to "
                        "float: '1_0')"),
    "fullwidth-digit-cell": (lambda cells: cells[:2] + ["\uff11", "0"],
                             "input.csv:6: malformed row (ValueError"),
}


def _write_spoilt_field(tmp_path, kind):
    _, path = _write_sample_field(tmp_path)
    lines = path.read_text().splitlines()
    lines[5] = ",".join(_SPOILT_ROWS[kind][0](lines[5].split(",")))
    path.write_text("\n".join(lines) + "\n")
    return path


def _one_line_error(capsys, prefix):
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1, err
    return err


@pytest.mark.parametrize(
    "row, message",
    [("0,inf", "non-finite value in data row 3"), ("0,nan", "non-finite value in data row 3"),
     ("0", r"chi1\.csv:4: malformed row")],
    ids=["inf", "nan", "short"],
)
def test_read_axis_table_rejects_spoilt_row(tmp_path, row, message):
    grid = Grid1D(1.0, 5)
    rows = [f"{x:.17g},0" for x in grid.nodes]
    rows[2] = row
    path = tmp_path / "chi1.csv"
    path.write_text("x,chi1\n" + "\n".join(rows) + "\n")
    with pytest.raises(ConfigError, match=message):
        read_axis_table(path, grid, "chi1")


@pytest.mark.parametrize("kind", sorted(_SPOILT_ROWS))
def test_cli_transmute_rejects_spoilt_csv(tmp_path, capsys, kind):
    path = _write_spoilt_field(tmp_path, kind)
    argv = ["transmute", "--sp", "zero", "--input", str(path), "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    assert _SPOILT_ROWS[kind][1] in _one_line_error(capsys, "config error: ")
    assert not (tmp_path / "o" / "transmuted.csv").exists()


@pytest.mark.parametrize("how", ["fork", "child-exits-1"])
@pytest.mark.parametrize("kind", sorted(_SPOILT_ROWS))
def test_read_field_csv_names_a_bad_row_in_the_second_half(tmp_path, monkeypatch, how, kind):
    if how != "fork":
        _fail_fork(monkeypatch, how)
    # 101 x 101 nodes: the head's rows fill the pipe, so the child blocks
    # until this process closes its end, when the tail has failed
    _, path = _write_sample_field(tmp_path, n=101)
    lines = path.read_text().splitlines()
    lines[9000] = ",".join(_SPOILT_ROWS[kind][0](lines[9000].split(",")))
    path.write_text("\n".join(lines) + "\n")
    assert fields_io._split_offset(path) < len("\n".join(lines[:9000]))
    message = _SPOILT_ROWS[kind][1].replace(":6:", ":9001:").replace("row 5", "row 9000")
    with pytest.raises(ConfigError) as err:
        read_field_csv(path)
    assert message in str(err.value)
    _no_child_left()


@pytest.mark.parametrize("order, row", [("y-major", 2), ("duplicated-row", 7)])
def test_rows_out_of_x_major_order_exit_2(tmp_path, capsys, order, row):
    grid = Grid2D.square(1.0, 5)
    x, y = grid.meshes()
    path = tmp_path / "input.csv"
    write_field_csv(path, grid, x + 2j * y)
    header, *data = path.read_text().splitlines()
    if order == "y-major":
        data = [data[5 * j + i] for i in range(5) for j in range(5)]
    else:
        data[6] = data[5]  # node (x1, y1) is missing, (x1, y0) twice
    path.write_text("\n".join([header, *data]) + "\n")
    message = f"data row {row} is out of x-major order"
    with pytest.raises(ConfigError, match=message):
        read_field_csv(path)
    argv = ["transmute", "--sp", "zero", "--input", str(path), "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    assert message in _one_line_error(capsys, "config error: ")


@pytest.fixture(scope="module")
def exit_2_inputs(tmp_path_factory):
    """x^2 + y^2 on the 3, 21 and 101 node grids and exp(xy) on the 21 node
    grid (in neither kernel for chi = 0), 1.7e308 (1 + i) and 8e307 (x^2 - y^2)
    on the 21 node grid, and a zero chi table on 21 nodes."""
    fields = {f"sq{n}": (n, lambda x, y: x**2 + y**2) for n in (3, 21, 101)}
    fields["expxy21"] = (21, lambda x, y: np.exp(x * y))
    # finite, but its derivatives and its transmuted image overflow
    fields["huge21"] = (21, lambda x, y: np.full(x.shape, complex(1.7e308, 1.7e308)))
    # harmonic and within range, but its conjugate partner and its fit overflow
    fields["harmonic21"] = (21, lambda x, y: 8e307 * (x**2 - y**2))
    paths = {}
    for label, (n, f) in fields.items():
        grid = Grid2D.square(1.0, n)
        path = tmp_path_factory.mktemp("fields") / f"{label}.csv"
        write_field_csv(path, grid, f(*grid.meshes()).astype(complex))
        paths[label] = str(path)
    path = tmp_path_factory.mktemp("tables") / "chi0_21.csv"
    path.write_text("s,chi\n" + "".join(f"{s:.17g},0\n" for s in Grid1D(1.0, 21).nodes))
    paths["chi0_21"] = str(path)
    # x nodes -1.5e308, 0, 1.5e308: symmetric and uniform, but 2 * a1 overflows
    path = tmp_path_factory.mktemp("fields") / "huge3.csv"
    path.write_text("x,y,re,im\n" + "".join(f"{x},{y},0,0\n" for x in (-1.5e308, 0, 1.5e308)
                                             for y in (-1, 0, 1)))
    paths["huge3"] = str(path)
    return paths


@pytest.mark.parametrize(
    "argv, prefix",
    [
        (["formal-powers", "--sp", "zero", "--nodes", "21", "--n-max", "-1"], "config error: "),
        (["expand", "--sp", "zero", "--input", "{sq21}", "--basis", "ker_h2", "--degree", "-1"],
         "config error: "),
        (["expand", "--sp", "zero", "--input", "{sq101}", "--basis", "ker_h0"],
         "domain error (KernelMembershipError): "),
        (["expand", "--sp", "zero", "--input", "{sq3}", "--basis", "ker_h2"],
         "domain error (GridShapeError): "),
        (["conjugate", "--sp", "zero", "--input", "{sq101}", "--direction", "2to0"],
         "domain error (KernelMembershipError): "),
        # exp(xy) has Laplacian (x^2 + y^2) exp(xy); on a coarse grid the cap
        # must still see that against the size of f_xx, f_yy
        (["expand", "--sp", "zero", "--input", "{expxy21}", "--basis", "ker_h0"],
         "domain error (KernelMembershipError): "),
        (["conjugate", "--sp", "zero", "--input", "{expxy21}", "--direction", "2to0"],
         "domain error (KernelMembershipError): "),
        (["transmute", "--sp", "tabulated", "--params", "1,2", "--input", "{sq21}",
          "--chi1-file", "{chi0_21}", "--chi2-file", "{chi0_21}"],
         "config error: family 'tabulated' takes 0 parameters, got 2"),
        # these subcommands run on the grid of --input and take no grid flags
        (["transmute", "--sp", "zero", "--input", "{sq21}", "--nodes", "301"],
         "usage error: vekua: unrecognized arguments: --nodes 301"),
        (["transmute", "--sp", "zero", "--input", "{sq21}", "--nodes", "4"],
         "usage error: vekua: unrecognized arguments: --nodes 4"),
        (["conjugate", "--sp", "zero", "--input", "{sq21}", "--direction", "2to0",
          "--half-width", "7"], "usage error: vekua: unrecognized arguments: --half-width 7"),
        (["expand", "--sp", "zero", "--input", "{sq21}", "--basis", "ker_h0", "--nodes", "21"],
         "usage error: vekua: unrecognized arguments: --nodes 21"),
        # verify refuses tabulated, so it takes no chi files
        (["verify", "--nodes", "21", "--chi1-file", "{chi0_21}"],
         "usage error: vekua: unrecognized arguments: --chi1-file"),
        (["formal-powers", "--sp", "zero", "--half-width", "1", "2", "3"],
         "config error: --half-width takes one value or two, got 3"),
        # a non-finite coefficient would write power_custom_n* tables of nan/inf
        (["formal-powers", "--sp", "zero", "--nodes", "5", "--n-max", "1", "--a1", "nan"],
         "config error: --a1 must be finite, got nan"),
        (["formal-powers", "--sp", "zero", "--nodes", "5", "--n-max", "1", "--a1", "inf"],
         "config error: --a1 must be finite, got inf"),
        (["formal-powers", "--sp", "zero", "--nodes", "5", "--n-max", "1", "--a2=-inf"],
         "config error: --a2 must be finite, got -inf"),
        # finite, but a1 * Z^1(1) + a2 * Z^1(i) overflows
        (["formal-powers", "--sp", "zero", "--nodes", "5", "--n-max", "1", "--a1", "1e308",
          "--a2", "1e308"],
         "config error: --a1 1e+308 and --a2 1e+308 overflow the power_custom tables"),
        # C(1030, 515) is not a finite double, so the binomial sum would raise
        (["formal-powers", "--sp", "zero", "--nodes", "3", "--n-max", "1030"],
         "config error: degree 1030: binomial C(1030, 515) overflows a double"),
        (["expand", "--sp", "zero", "--input", "{sq21}", "--basis", "ker_h2", "--degree",
          "1030"], "config error: degree 1030: binomial C(1030, 515) overflows a double"),
        # exp(2 chi) overflows, so the formal powers would be tables of inf/nan
        (["formal-powers", "--sp", "linear", "--params", "400,1", "--nodes", "21", "--n-max",
          "3"], "config error: --sp linear with --params 400.0,1.0 overflows the formal powers"),
        (["formal-powers", "--sp", "quadratic", "--params", "1e3,1", "--nodes", "21",
          "--n-max", "3"],
         "config error: --sp quadratic with --params 1000.0,1.0 overflows the formal powers"),
        # the 1-D systems are finite, but 2 x y overflows in Z^2
        (["formal-powers", "--sp", "zero", "--half-width", "1.2e154", "--nodes", "3",
          "--n-max", "2"],
         "config error: --sp zero with --params none overflows the formal powers up to degree "
         "2 to a non-finite value on this grid\n"),
        (["expand", "--sp", "linear", "--params", "400,1", "--input", "{sq21}", "--basis",
          "ker_h0"], "config error: --sp linear with --params 400.0,1.0 overflows the formal powers"),
        # the battery's formal powers would overflow
        (["verify", "--sp", "linear", "--params", "400,1", "--nodes", "21"],
         "config error: --sp linear with --params 400.0,1.0 overflows the formal powers"),
        # 2 * a1 overflows, so the node spacing would be inf
        (["verify", "--half-width", "1e308", "--nodes", "5"],
         "config error: half_width 1e+308 with 5 nodes gives spacing h = inf"),
        (["transmute", "--sp", "zero", "--input", "{huge3}"],
         "config error: {huge3}:x: half_width 1.5e+308 with 3 nodes gives spacing h = inf"),
        # finite input whose image, or whose h0 or h2 terms, overflow
        (["transmute", "--sp", "linear", "--params", "1,1", "--op", "T0", "--input",
          "{huge21}"], "config error: the --op T0 image of {huge21} overflows to a non-finite"),
        (["conjugate", "--sp", "zero", "--direction", "2to0", "--input", "{huge21}"],
         "domain error (KernelMembershipError): conjugate_from_w1: the h2 residual"),
        (["expand", "--sp", "zero", "--basis", "ker_h0", "--degree", "2", "--input",
          "{huge21}"], "domain error (KernelMembershipError): fit_formal_polynomial: the h0 "
         "residual"),
        (["conjugate", "--sp", "zero", "--direction", "2to0", "--input", "{harmonic21}"],
         "config error: the --direction 2to0 partner of {harmonic21} or its Vekua residual "
         "overflows to a non-finite value"),
        (["expand", "--sp", "zero", "--basis", "ker_h0", "--degree", "2", "--input",
          "{harmonic21}"], "config error: the --basis ker_h0 fit of {harmonic21} or its "
         "residual overflows to a non-finite value"),
        # a run's values come from the flags alone
        (["verify", "--nodes", "21", "--config", "cfg.json"],
         "usage error: vekua: unrecognized arguments: --config cfg.json"),
        (["transmute", "--sp", "zero", "--input", "{sq21}", "--config", "cfg.json"],
         "usage error: vekua: unrecognized arguments: --config cfg.json"),
    ],
    ids=["formal-powers-negative-n-max", "expand-negative-degree", "expand-not-in-kernel",
         "expand-grid-too-small", "conjugate-not-in-kernel", "expand-exp-xy-coarse",
         "conjugate-exp-xy-coarse", "transmute-tabulated-with-params", "transmute-nodes",
         "transmute-even-nodes", "conjugate-half-width", "expand-nodes", "verify-chi1-file",
         "formal-powers-three-half-widths", "formal-powers-a1-nan", "formal-powers-a1-inf",
         "formal-powers-a2-minus-inf", "formal-powers-custom-overflows",
         "formal-powers-degree-1030", "expand-degree-1030",
         "formal-powers-linear-overflows", "formal-powers-quadratic-overflows",
         "formal-powers-2d-assembly-overflows",
         "expand-linear-overflows", "verify-linear-overflows",
         "verify-spacing-overflows",
         "transmute-input-spacing-overflows", "transmute-image-overflows",
         "conjugate-terms-overflow", "expand-terms-overflow", "conjugate-partner-overflows",
         "expand-fit-overflows", "verify-config",
         "transmute-config"],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")  # a refused input prints no numpy warning
def test_cli_domain_and_usage_errors_exit_2(tmp_path, capsys, exit_2_inputs, argv, prefix):
    argv = [a.format(**exit_2_inputs) for a in argv] + ["--out", str(tmp_path / "o")]
    assert main(argv) == 2
    _one_line_error(capsys, prefix.format(**exit_2_inputs))
    assert not (tmp_path / "o").exists()


def test_largest_binomial_first_overflows_a_double_at_degree_1030():
    assert comb(1029, 514) <= sys.float_info.max < comb(1030, 515)


@pytest.mark.parametrize("argv", [
    ["formal-powers", "--sp", "zero", "--nodes", "3", "--n-max", "3000000"],
    ["expand", "--sp", "zero", "--input", "{sq21}", "--basis", "ker_h2", "--degree", "3000000"],
], ids=["formal-powers", "expand"])
def test_cli_refuses_a_large_degree_without_its_binomial(tmp_path, capsys, monkeypatch,
                                                         exit_2_inputs, argv):
    # C(n, n // 2) of a degree in the millions takes minutes to build as an integer
    def small_comb(n, k):
        assert n <= 1030, f"C({n}, {k}) built"
        return comb(n, k)

    monkeypatch.setattr(cli, "comb", small_comb)
    argv = [a.format(**exit_2_inputs) for a in argv] + ["--out", str(tmp_path / "o")]
    assert main(argv) == 2
    _one_line_error(capsys, "config error: degree 3000000: binomial C(3000000, 1500000) "
                    "overflows a double\n")
    assert not (tmp_path / "o").exists()


def test_cli_refuses_overflowing_1d_systems_before_the_2d_assembly(tmp_path, capsys,
                                                                    monkeypatch):
    # phi_k of chi = 0 on 3 nodes is non-finite from degree 197; the binomial
    # assembly up to degree 1029 would take most of a minute
    def no_assembly(*args, **kwargs):
        raise AssertionError("2-D binomial assembly ran")

    monkeypatch.setattr(formal_powers, "_binomial_sum", no_assembly)
    argv = ["formal-powers", "--sp", "zero", "--nodes", "3", "--n-max", "1029",
            "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    _one_line_error(capsys, "config error: --sp zero with --params none overflows the formal "
                    "powers up to degree 1029 to a non-finite value on this grid\n")
    assert not (tmp_path / "o").exists()


def test_cli_maps_an_overflow_of_the_refinement_to_exit_2(tmp_path, capsys, monkeypatch):
    # the coarse powers are finite, those of the refined grid are not
    assemble = verification.assemble_formal_powers

    def overflow_when_refined(sp, n_max):
        if sp.grid.gx.n != 21:
            raise OverflowError("synthetic overflow")
        return assemble(sp, n_max)

    monkeypatch.setattr(verification, "assemble_formal_powers", overflow_when_refined)
    argv = ["verify", "--sp", "zero", "--nodes", "21", "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    _one_line_error(capsys, "overflow: synthetic overflow\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("error", [KernelMembershipError, GridShapeError])
def test_cli_maps_every_domain_error_to_exit_2(tmp_path, capsys, monkeypatch, error):
    def fail(sp):
        raise error("synthetic failure")

    monkeypatch.setattr(cli, "build_transmute_2d", fail)
    _, inp = _write_sample_field(tmp_path)
    assert main(["transmute", "--sp", "zero", "--input", str(inp),
                 "--out", str(tmp_path / "o")]) == 2
    assert _one_line_error(capsys, f"domain error ({error.__name__}): ").endswith(
        "synthetic failure\n"
    )
    assert not (tmp_path / "o").exists()


def test_cli_transmute_non_convergence_exits_3_without_output(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(transmutation, "MAX_ITER", 2)
    _, inp = _write_sample_field(tmp_path)
    assert main(["transmute", "--sp", "quadratic", "--params", "1,-0.5", "--input", str(inp),
                 "--out", str(tmp_path / "o")]) == 3
    _one_line_error(capsys, "non-convergence: Goursat iteration did not reach 1e-12 in 2 steps")
    assert not (tmp_path / "o").exists()


def test_cli_transmute_kernel_at_its_rounding_floor(tmp_path):
    # linear c1 = 5: max|K| is 6.7e3, so the Picard defect stalls above 1e-12
    _, inp = _write_sample_field(tmp_path, n=201)
    out = tmp_path / "t"
    assert main(["transmute", "--sp", "linear", "--params", "5,0", "--op", "T1d",
                 "--input", str(inp), "--out", str(out)]) == 0
    assert (out / "transmuted.csv").stat().st_size > 0


def test_cli_sp_choices_are_the_catalog():
    subcommands = build_parser()._subparsers._group_actions[0].choices
    for name, sub in subcommands.items():
        (sp_action,) = [a for a in sub._actions if a.dest == "sp_name"]
        assert tuple(sp_action.choices) == catalog_names(), name


def _child_env():
    # a child process imports the same vekua as this process, installed or not
    src = str(Path(vekua.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}


def test_cli_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "vekua.cli", "--help"], capture_output=True, text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0
    assert "formal-powers" in proc.stdout


# modules the CLI does not need at start-up: scipy would add most of the start-up
# time, and each of the others adds its own import cost to every command
UNLOADED_AT_START = ("scipy", "multiprocessing", "concurrent.futures", "asyncio",
                     "subprocess", "tracemalloc")


def test_cli_import_leaves_scipy_unloaded():
    code = f"import sys, vekua.cli; print([m for m in {UNLOADED_AT_START!r} if m in sys.modules])"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_child_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("module, loaded", [
    ("vekua.grid", ["vekua", "vekua.errors", "vekua.grid"]),
    ("vekua.cli", ["vekua", "vekua.cli", "vekua.conjugate", "vekua.corpus", "vekua.errors",
                   "vekua.expansion", "vekua.fields_io", "vekua.formal_powers", "vekua.grid",
                   "vekua.operators", "vekua.superpotential", "vekua.transmutation",
                   "vekua.verification"]),
])
def test_import_loads_only_what_the_module_imports(module, loaded):
    # the package namespace re-exports nothing, so it pulls in no module of its own
    code = (f"import sys, {module}; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'vekua'))")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_child_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == repr(loaded)


def test_cli_formal_powers_custom_coefficient(tmp_path):
    out = tmp_path / "fp"
    argv = ["formal-powers", "--sp", "linear", "--params", "0.5,-1", "--nodes", "21",
            "--n-max", "2", "--a1", "0.5", "--a2", "-1", "--out", str(out)]
    assert main(argv) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["custom_coefficient"] == [0.5, -1.0]
    for n in range(3):
        assert f"power_custom_n{n}.csv" in manifest["files"]
        _, custom = read_field_csv(out / f"power_custom_n{n}.csv")
        _, z_one = read_field_csv(out / f"power_seq0_a1_n{n}.csv")
        _, z_i = read_field_csv(out / f"power_seq0_ai_n{n}.csv")
        # Z^n(a) = a1 Z^n(1) + a2 Z^n(i) for a = a1 + i a2
        np.testing.assert_array_equal(custom, 0.5 * z_one + -1.0 * z_i)
